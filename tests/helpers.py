"""Sequences shared by several test modules."""

from normlab.seqcore import SymbolicSequence


def constant(digit: int, r: int = 2) -> SymbolicSequence:
    """The sequence digit, digit, digit, ... over an alphabet of size r."""
    return SymbolicSequence.periodic([digit], r=r)
