"""The package's one exact row reduction over the rationals.

``det`` and ``rank`` are two views of the same forward elimination, so every
determinant and rank in :mod:`hnbounds.series` and :mod:`hnbounds.lattices`
comes from one routine.  Entries are ints or ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

__all__ = ["det", "rank"]


def _eliminate(rows) -> tuple[list[Fraction], int]:
    """Forward-eliminate a copy of ``rows``: (pivots, sign of the row swaps).

    len(pivots) is the rank; for a square matrix of full rank, the sign
    times the product of the pivots is the determinant.
    """
    rows = [list(row) for row in rows]
    cols = len(rows[0]) if rows else 0
    pivots: list[Fraction] = []
    sign = 1
    for col in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        top = rows[r]
        p = Fraction(top[col])  # int entries stay exact: int / Fraction is a Fraction
        pivots.append(p)
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / p
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
    return pivots, sign


def det(rows) -> Fraction:
    """Determinant of a square matrix (1 for the empty matrix), exact."""
    pivots, sign = _eliminate(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    return sign * prod(pivots, start=Fraction(1))


def rank(rows) -> int:
    """Rank of a (possibly non-square) matrix, exact."""
    return len(_eliminate(rows)[0])
