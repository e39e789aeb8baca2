"""scripts/disjoint_support_sums.py: its exit status reports its check."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "disjoint_support_sums.py"


@pytest.fixture
def demo(monkeypatch):
    spec = importlib.util.spec_from_file_location("disjoint_support_sums", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr("sys.argv", ["disjoint_support_sums.py", "3000"])
    return module


def test_disjoint_support_demo_exits_0_when_the_sum_is_the_or(demo, capsys):
    assert demo.main() == 0
    assert "digit-wise OR: True" in capsys.readouterr().out


def test_disjoint_support_demo_exits_1_when_the_sum_differs(demo, monkeypatch, capsys):
    monkeypatch.setattr(demo, "carry_add", lambda x, y: x)  # drops y's ones
    assert demo.main() == 1
    assert "digit-wise OR: False" in capsys.readouterr().out
