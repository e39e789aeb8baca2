"""Sequences shared by several test modules."""

import numpy as np

from normlab.errors import DomainError
from normlab.seqcore import SymbolicSequence


def constant(digit: int, r: int = 2) -> SymbolicSequence:
    """The sequence digit, digit, digit, ... over an alphabet of size r."""
    return SymbolicSequence.periodic([digit], r=r)


def base4_split(seq: SymbolicSequence) -> tuple[SymbolicSequence, SymbolicSequence]:
    """Split a base-4 stream into its two binary rows (floor(d/2), d mod 2):
    the reference for the row-pair counts base4-independence reads from the
    base-4 block counts."""
    if seq.r != 4:
        raise DomainError("base4_split needs an alphabet of size 4")
    row1 = SymbolicSequence(lambda s, c: (seq.digits(s, c) // 2).astype(np.uint8), horizon=seq.horizon)
    row2 = SymbolicSequence(lambda s, c: (seq.digits(s, c) % 2).astype(np.uint8), horizon=seq.horizon)
    return row1, row2
