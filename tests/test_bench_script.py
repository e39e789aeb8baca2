"""scripts/bench.py: the paired comparison against a base revision."""

import importlib.util
import subprocess
import tempfile
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_stats_counts_wins_in_the_metric_direction(bench):
    base, change = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 3.5, 1.0, 4.0]
    row = bench.pair_stats("wall_s", base, change)
    # pairs: change lower in 1, 4, 5; equal in 2 (no win); higher in 3
    assert row == {"n": 5, "base_median": 3.0, "change_median": 2.0, "base_iqr": 2.0, "change_wins": 3}
    assert bench.pair_stats("ok_ops_ratio", base, change)["change_wins"] == 1


def test_equal_length_dir_matches_the_checkout_path(bench, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(bench, "ROOT", tmp_path / "checkout")
    made = {bench.equal_length_dir() for _ in range(5)}
    assert len(made) == 5
    for path in made:
        assert path.parent == tmp_path and path.is_dir() and not any(path.iterdir())
        assert len(str(path)) == len(str(tmp_path / "checkout"))


def test_equal_length_dir_refuses_a_longer_temporary_directory(bench, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(bench, "ROOT", Path(str(tmp_path)[:-1]))
    with pytest.raises(SystemExit, match="set TMPDIR to a shorter directory"):
        bench.equal_length_dir()


def test_checkout_extracts_a_revision_and_leaves_git_alone(bench, monkeypatch, tmp_path):
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=bench.ROOT, capture_output=True, text=True)

    if git("rev-parse", "--verify", "HEAD^{commit}").returncode != 0:
        pytest.skip("not a git checkout")
    monkeypatch.setattr(bench, "equal_length_dir", lambda: Path(tempfile.mkdtemp(dir=tmp_path)))
    worktrees = git("worktree", "list").stdout
    with bench.checkout("HEAD") as path:
        assert (path / "src" / "normlab" / "__init__.py").is_file()
        assert (path / "perfbench" / "run.py").is_file()
        assert not (path / ".git").exists()
    assert not path.exists()
    assert git("worktree", "list").stdout == worktrees
