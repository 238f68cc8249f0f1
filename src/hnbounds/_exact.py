"""The package's one exact row reduction: Bareiss's fraction-free elimination.

Rows enter one at a time (:class:`Echelon`).  Each is reduced against the
pivot rows before it by ``row <- (p_k row - row[c_k] P_k) // p_(k-1)``, where
``P_k`` is the k-th pivot row, ``c_k`` its pivot column and ``p_k`` its
pivot entry.  By Sylvester's identity every entry of the reduced row is a
minor of the input, so each ``//`` is exact and every number stays an
integer (Bareiss 1968).  The leading minors of a Gram matrix in
:mod:`hnbounds.lattices`, the independence test of its successive minima and
the nonsingularity test of :func:`hnbounds.lattices.random_gram` are all
views of this routine.  Entries are ints.
"""

from __future__ import annotations

__all__ = ["Echelon"]


class Echelon:
    """A fraction-free row echelon form, grown one row at a time.

    ``rows[k]`` is the k-th pivot row, reduced against the pivot rows before
    it, with pivot column ``cols[k]`` (its first nonzero entry).  Its entry
    in column j is the minor of the input on the rows of pivots 0..k and the
    columns ``cols[0..k-1]`` and j.  For a Gram matrix whose leading minors
    are all nonzero, pivot k sits in column k, ``rows[k][k]`` is the
    (k+1)-th leading minor and ``rows[k][j]`` (j > k) is lambda_jk.
    """

    def __init__(self):
        self.rows: list[list[int]] = []
        self.cols: list[int] = []

    def reduce(self, row) -> list[int]:
        """The integer row reduced against every pivot row, as a new list."""
        row = list(row)
        prev = 1
        for top, c in zip(self.rows, self.cols):
            f = row[c]
            p = top[c]
            if f:
                row = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif prev != p:
                row = [p * x // prev for x in row]
            prev = p
        return row

    def add(self, row) -> bool:
        """Reduce an integer row and keep it if it is independent of the
        pivot rows; return whether it was kept."""
        row = self.reduce(row)
        for col, x in enumerate(row):
            if x:
                self.rows.append(row)
                self.cols.append(col)
                return True
        return False
