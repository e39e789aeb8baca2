from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab.experiments import _pair_block_counts, load_manifest, run_experiment
from normlab.seqcore import Block, SymbolicSequence, _anchor_codes, prefix_frequency


def joint_frequency(seq1, seq2, B1: Block, B2: Block, N: int) -> Fraction:
    """Fraction of common anchors where B1 occurs in seq1 and B2 in seq2.

    Anchors range over [1, N - max(|B1|,|B2|) + 1] so that the diagonal case
    joint_frequency(s, s, B, B, N) == prefix_frequency(s, B, N) holds exactly.
    """
    W = N - max(len(B1), len(B2)) + 1
    c1 = _anchor_codes(seq1.digits(1, W + len(B1) - 1), len(B1), seq1.alphabet.size)
    c2 = _anchor_codes(seq2.digits(1, W + len(B2) - 1), len(B2), seq2.alphabet.size)
    return Fraction(int(np.count_nonzero((c1 == B1.encode()) & (c2 == B2.encode()))), W)


def test_joint_frequency_diagonal():
    seq = SymbolicSequence.periodic([0, 1, 1])
    for blk in ("01", "11", "10"):
        B = Block.from_string(blk)
        assert joint_frequency(seq, seq, B, B, 50) == prefix_frequency(seq, B, 50)


def test_joint_frequency_constant_left():
    zeros = SymbolicSequence.constant(0)
    seq = SymbolicSequence.periodic([0, 1, 1, 0])
    B = Block.from_string
    assert joint_frequency(zeros, seq, B("00"), B("11"), 60) == prefix_frequency(seq, B("11"), 60)


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
