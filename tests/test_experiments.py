from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from normlab.experiments import _pair_block_counts, load_manifest, run_experiment
from normlab.seqcore import Block, SymbolicSequence, joint_frequency, prefix_frequency


@settings(max_examples=100)
@given(data=st.data())
def test_pair_block_counts_match_frequencies(data):
    N = data.draw(st.integers(2, 40))
    rows = [data.draw(st.lists(st.integers(0, 1), min_size=N, max_size=N)) for _ in range(2)]
    s1, s2 = (SymbolicSequence.from_array(r) for r in rows)
    for blen in (1, 2):
        W = N - blen + 1
        joint, marg1, marg2 = _pair_block_counts(s1.digits(1, N), s2.digits(1, N), blen)
        for c1 in range(1 << blen):
            B1 = Block.from_code(c1, blen, 2)
            assert Fraction(int(marg1[c1]), W) == prefix_frequency(s1, B1, N)
            assert Fraction(int(marg2[c1]), W) == prefix_frequency(s2, B1, N)
            for c2 in range(1 << blen):
                B2 = Block.from_code(c2, blen, 2)
                got = Fraction(int(joint[(c1 << blen) + c2]), W)
                assert got == joint_frequency(s1, s2, B1, B2, N)


def test_xy_switch_decay_matches_recorded_curve():
    recorded = load_manifest()["experiments"]["xy-switch-decay"]["recorded_curve"]
    rep = run_experiment("xy-switch-decay")
    curve = next(c.measured for c in rep.checks if c.name == "curve-nonincreasing")
    assert [round(v, 6) for v in curve] == recorded
