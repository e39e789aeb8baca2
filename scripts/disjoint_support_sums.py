#!/usr/bin/env python3
"""Digit sums of binary sequences with disjoint supports.

When two fractions have ones at disjoint positions, carry addition is
plain digit-wise OR, so entropy-style statistics of the sum decompose
along the supports.  The demo interleaves a pseudorandom stream on one
residue class with zeros elsewhere and checks that the sum's block
statistics match the mixture.

Usage: python scripts/disjoint_support_sums.py [N=100000] [seed=9]
Exits 1 when carry addition differs from digit-wise OR.
"""

import sys
from fractions import Fraction

import numpy as np

from normlab.analysis import combinatorial_entropy
from normlab.bitarith import FixedPointNumber, carry_add
from normlab.generators import bernoulli_stream, derive_seed
from normlab.seqcore import SymbolicSequence


def main() -> int:
    N = int(sys.argv[1]) if len(sys.argv) > 1 else 100000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 9
    rand = bernoulli_stream(Fraction(1, 2), derive_seed(seed, "half"), N).digits(1, N)

    a = np.zeros(N, dtype=np.uint8)
    b = np.zeros(N, dtype=np.uint8)
    a[0::3] = rand[0::3]  # support inside 3N+1
    b[1::3] = rand[1::3]  # support inside 3N+2; positions 3N stay zero

    x = FixedPointNumber.from_sequence(SymbolicSequence.from_array(a), N, 0)
    y = FixedPointNumber.from_sequence(SymbolicSequence.from_array(b), N, 0)
    s = carry_add(x, y)
    sum_digits = s.fraction_digits(N, certified_only=False)

    is_or = bool((sum_digits == (a | b)).all())
    print(f"N = {N}, seed = {seed}")
    print("carry addition equals digit-wise OR:", is_or)
    print("ones density of the sum:", float(sum_digits.mean()))
    for n in (1, 2, 4):
        h = combinatorial_entropy(sum_digits, n)
        print(f"H_{n}(sum prefix) = {h:.4f} bits/symbol")
    # two thirds of the coordinates carry a fair bit, one third is frozen;
    # the one-block entropy of the mixture is H(1/3 of mass on ones)
    p1 = float(sum_digits.mean())
    hmix = -(p1 * np.log2(p1) + (1 - p1) * np.log2(1 - p1))
    print(f"mixture one-block entropy H({p1:.3f}) = {hmix:.4f}")
    return 0 if is_or else 1


if __name__ == "__main__":
    sys.exit(main())
