"""Harder-Narasimhan types, polygons, R-filtrations and the positive degree.

An :class:`HNType` records the slope data of a filtered object as a list of
``(rank, slope)`` segments with strictly decreasing slopes, each slope a
``Fraction`` or an interval :class:`~hnbounds.scalars.Scalar`.  It is the one
validated type here, and ``HNType(segments)`` its public constructor: in a
single pass it checks each rank, reads each exact slope and decides each
adjacent pair of slopes with one certified comparison, which merges equal
slopes.  A diagonal lattice's segments, whose order its exact entries
already prove, are wrapped as they are.  Everything downstream (the
polygon's breakpoints, the positive degree deg+, the rank filtration F^t,
the slope probability measure's atoms) is a plain value computed from this
data alone, and none of it decides the slope order again; no sheaf-level
input is ever required.  Each is a ``Fraction`` when every slope it reads is
exact, and an interval otherwise.  The positive degree needs no order at all:
:func:`positive_degree` sums any ``(rank, slope)`` pairs.

An HNType compares by value (an interval slope by identity) and, like a
:class:`Scalar`, is never changed after construction, by convention; all
operations are pure, so instances can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import CertificationError, Scalar, exact_bounds, exact_fraction, max0, order

__all__ = ["HNType", "positive_degree"]


def _slope(s) -> Fraction | Scalar:
    """An interval slope as it is; any other read by ``exact_fraction``."""
    return s if type(s) is Scalar else exact_fraction(s)


def _show(s: Fraction | Scalar) -> str:
    """A slope as the CLI reads it: a rational, or its interval's bounds."""
    lo, hi = exact_bounds(s)
    return f"[{lo}, {hi}]" if type(s) is Scalar else str(lo)


def positive_degree(segments: Iterable[tuple[int, Fraction | Scalar]]) -> Fraction | Scalar:
    """Sum of rank * max(slope, 0) over ``(rank, slope)`` pairs, added in order.

    The sum needs no slope order, so the pairs need not be an HN type.
    """
    return sum((r * max0(s) for r, s in segments), Fraction(0))


class HNType:
    """Fraction | Scalar data: ``(rank, slope)`` segments with strictly decreasing slopes."""

    __slots__ = ("segments",)

    def __init__(self, segments: Iterable[Sequence]):
        """``(rank, slope)`` pairs, a slope an interval Scalar or what
        ``exact_fraction`` reads, validated and merged in one pass.

        Refuses empty input and ranks that are not positive ints (bools
        included).  Each slope is compared once with the one before it:
        equal slopes merge, a larger one is a ``ValueError``, and bounds that
        overlap raise ``CertificationError`` naming both positions (from 1).
        """
        merged: list[tuple[int, Fraction | Scalar]] = []
        for i, (rank, slope) in enumerate(segments, 1):
            if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
                raise ValueError(f"segment ranks must be positive integers, got {rank!r}")
            slope = _slope(slope)
            decided = order(merged[-1][1], slope) if merged else 1
            if decided == 0:
                merged[-1] = (merged[-1][0] + rank, merged[-1][1])
            elif decided == 1:
                merged.append((rank, slope))
            elif decided is None:
                raise CertificationError(
                    f"cannot order slopes {i - 1} and {i}: {_show(merged[-1][1])} vs {_show(slope)}"
                )
            else:
                raise ValueError("segment slopes must strictly decrease")
        if not merged:
            raise ValueError("HNType needs at least one segment")
        self.segments = tuple(merged)

    def __eq__(self, other):
        return self.segments == other.segments if type(other) is HNType else NotImplemented

    # -- basic data ------------------------------------------------------

    @property
    def rank(self) -> int:
        return sum(r for r, _ in self.segments)

    def degree(self) -> Fraction | Scalar:
        """Total degree: sum of rank_i * slope_i."""
        return sum((r * s for r, s in self.segments), Fraction(0))

    # -- operations -------------------------------------------------------

    def polygon(self) -> tuple[tuple[Fraction, Fraction | Scalar], ...]:
        """Breakpoints ``((0, 0), (r_1, r_1 s_1), ...)`` of the HN polygon:
        the cumulative (rank, degree) points.  The polygon is concave because
        the slopes strictly decrease; its maximum is :meth:`deg_plus`.
        """
        x = y = Fraction(0)
        pts = [(x, y)]
        for r, s in self.segments:
            x = x + r
            y = y + r * s
            pts.append((x, y))
        return tuple(pts)

    def deg_plus(self) -> Fraction | Scalar:
        """Positive degree (:func:`positive_degree` of the segments).

        Equals the maximum of the polygon; 0 when every slope is negative.
        """
        return positive_degree(self.segments)

    def slope_extremes(self) -> tuple[Fraction | Scalar, Fraction | Scalar]:
        """(mu_max, mu_min) = (first slope, last slope)."""
        return (self.segments[0][1], self.segments[-1][1])

    def dual(self) -> "HNType":
        """Segments reversed with slopes negated (mu_max + mu_min(dual) = 0)."""
        return HNType((r, -s) for r, s in reversed(self.segments))

    def tensor(self, other: "HNType") -> "HNType":
        """Tensor product type: all pairwise slope sums, equal sums merged.

        Models the characteristic-zero fact that the filtration of a tensor
        product is the product filtration (tensor slopes add).  The sums are
        sorted on their exact values, so interval slopes raise ``TypeError``.
        """
        pairs = [(r1 * r2, s1 + s2) for r1, s1 in self.segments for r2, s2 in other.segments]
        return HNType(sorted(pairs, key=lambda p: exact_fraction(p[1]), reverse=True))

    def filtration_rank(self, t) -> int:
        """Rank of F^t: total rank of segments with slope >= t.

        The filtration is closed at the slope: F^t jumps down only once t
        passes strictly beyond each slope.  Bounds that :func:`order` cannot
        decide raise ``CertificationError`` naming both.
        """
        t = _slope(t)
        total = 0
        for r, s in self.segments:
            decided = order(s, t)
            if decided is None:
                raise CertificationError(f"cannot compare slope {_show(s)} with t = {_show(t)}")
            if decided >= 0:
                total += r
        return total

    def positive_rank_integral(self) -> Fraction | Scalar:
        """Integral of rank(F^t) over t >= 0, evaluated piecewise.

        rank(F^t) is cumrank_i for t in (s_{i+1}, s_i], so the integral is
        sum cumrank_i * (max0(s_i) - max0(s_{i+1})), with the slope after the
        last taken as 0.  Cross-checks deg_plus: the two agree exactly on
        exact slopes, and their enclosures overlap on intervals.
        """
        tops = [max0(s) for _, s in self.segments] + [Fraction(0)]
        total = Fraction(0)
        cumrank = 0
        for (r, _), top, below in zip(self.segments, tops, tops[1:]):
            cumrank += r
            total = total + cumrank * (top - below)
        return total

    def slope_measure(self) -> tuple[tuple[Fraction | Scalar, Fraction], ...]:
        """Atoms ``(slope_i, rank_i / rank)`` of the slope probability measure."""
        n = self.rank
        return tuple((s, Fraction(r, n)) for r, s in self.segments)


def _ordered(segments: Iterable[tuple[int, Fraction | Scalar]]) -> HNType:
    """An HNType of ``(rank, slope)`` pairs whose strict order the caller has
    proven exactly (``__init__``'s checks and comparisons skipped)."""
    h = object.__new__(HNType)
    h.segments = tuple(segments)
    return h
