"""Harder-Narasimhan types, polygons, R-filtrations and the positive degree.

An :class:`HNType` records the slope data of a filtered object as a list of
``(rank, slope)`` segments with strictly decreasing slopes.  Everything
downstream (polygons, the positive degree deg+, the rank filtration F^t, the
slope probability measure) is computed from this data alone; no sheaf-level
input is ever required.

All values are immutable and all operations are pure, so instances can be
shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import Scalar, as_scalar, scalar_max

__all__ = [
    "HNType",
    "Polygon",
    "SlopeMeasure",
    "make_hn_type",
    "hn_from_json",
]


@dataclass(frozen=True)
class Polygon:
    """Concave piecewise-linear polygon on [0, rank], starting at (0, 0).

    Breakpoints are ``(x, y)`` pairs with strictly increasing x and strictly
    decreasing segment slopes (concavity).
    """

    breakpoints: tuple[tuple[Scalar, Scalar], ...]

    def __post_init__(self):
        pts = self.breakpoints
        if len(pts) < 2:
            raise ValueError("polygon needs at least two breakpoints")
        x0, y0 = pts[0]
        if not (x0 == 0 and y0 == 0):
            raise ValueError("polygon must start at (0, 0)")
        slopes = []
        for (xa, ya), (xb, yb) in zip(pts, pts[1:]):
            if not xb > xa:
                raise ValueError("polygon x-coordinates must strictly increase")
            slopes.append((yb - ya) / (xb - xa))
        for s, t in zip(slopes, slopes[1:]):
            if not s > t:
                raise ValueError("polygon slopes must strictly decrease (concavity)")

    def max_value(self) -> Scalar:
        """Maximum of the polygon over its domain (attained at a breakpoint)."""
        best = self.breakpoints[0][1]
        for _, y in self.breakpoints[1:]:
            best = scalar_max(best, y)
        return best


@dataclass(frozen=True)
class SlopeMeasure:
    """Probability measure with one atom per slope, mass rank_i / rank."""

    atoms: tuple[tuple[Scalar, Fraction], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("slope measure needs at least one atom")
        total = sum(m for _, m in self.atoms)
        if total != 1:
            raise ValueError(f"atom masses must sum to 1, got {total}")
        if any(m <= 0 for _, m in self.atoms):
            raise ValueError("atom masses must be positive")
        for (s, _), (t, _) in zip(self.atoms, self.atoms[1:]):
            if not s > t:
                raise ValueError("atoms must have strictly decreasing distinct slopes")


@dataclass(frozen=True)
class HNType:
    """Slope data: ``(rank, slope)`` segments with strictly decreasing slopes.

    Construct through :func:`make_hn_type`, which merges adjacent equal-slope
    segments before validating.
    """

    segments: tuple[tuple[int, Scalar], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("HNType needs at least one segment")
        for rank, slope in self.segments:
            if not isinstance(rank, int) or rank < 1:
                raise ValueError(f"segment ranks must be positive integers, got {rank!r}")
            if not isinstance(slope, Scalar):
                raise TypeError("segment slopes must be Scalar values")
        for (_, s), (_, t) in zip(self.segments, self.segments[1:]):
            if not s > t:
                raise ValueError("segment slopes must strictly decrease")

    # -- basic data ------------------------------------------------------

    @property
    def rank(self) -> int:
        return sum(r for r, _ in self.segments)

    def degree(self) -> Scalar:
        """Total degree: sum of rank_i * slope_i."""
        total = Scalar.exact(0)
        for r, s in self.segments:
            total = total + Scalar.exact(r) * s
        return total

    def is_rational(self) -> bool:
        return all(s.is_rational for _, s in self.segments)

    def _require_rational(self, op: str):
        if not self.is_rational():
            raise TypeError(f"{op} requires rational-mode slopes")

    # -- operations -------------------------------------------------------

    def polygon(self) -> Polygon:
        """Polygon through the cumulative (rank, degree) points."""
        x = Scalar.exact(0)
        y = Scalar.exact(0)
        pts = [(x, y)]
        for r, s in self.segments:
            x = x + Scalar.exact(r)
            y = y + Scalar.exact(r) * s
            pts.append((x, y))
        return Polygon(tuple(pts))

    def deg_plus(self) -> Scalar:
        """Positive degree: sum of rank_i * slope_i over nonnegative slopes.

        Equals the maximum of the polygon; 0 when every slope is negative.
        """
        total = Scalar.exact(0)
        for r, s in self.segments:
            total = total + Scalar.exact(r) * s.max0()
        return total

    def slope_extremes(self) -> tuple[Scalar, Scalar]:
        """(mu_max, mu_min) = (first slope, last slope)."""
        return (self.segments[0][1], self.segments[-1][1])

    def dual(self) -> "HNType":
        """Segments reversed with slopes negated (mu_max + mu_min(dual) = 0)."""
        return HNType(tuple((r, -s) for r, s in reversed(self.segments)))

    def tensor(self, other: "HNType") -> "HNType":
        """Tensor product type: all pairwise slope sums, aggregated.

        Models the characteristic-zero fact that the filtration of a tensor
        product is the product filtration (tensor slopes add).  Requires
        rational-mode slopes so that aggregation by equality is exact.
        """
        self._require_rational("tensor")
        other._require_rational("tensor")
        sums: dict[Fraction, int] = {}
        for r1, s1 in self.segments:
            for r2, s2 in other.segments:
                key = (s1 + s2).as_fraction()
                sums[key] = sums.get(key, 0) + r1 * r2
        merged = sorted(sums.items(), key=lambda kv: kv[0], reverse=True)
        return HNType(tuple((r, Scalar.exact(s)) for s, r in merged))

    def filtration_rank(self, t) -> int:
        """Rank of F^t: total rank of segments with slope >= t.

        The filtration is closed at the slope: F^t jumps down only once t
        passes strictly beyond each slope.
        """
        t = as_scalar(t)
        total = 0
        for r, s in self.segments:
            if s >= t:
                total += r
        return total

    def positive_rank_integral(self) -> Scalar:
        """Integral of rank(F^t) over t in [0, mu_max], evaluated piecewise.

        Cross-checks deg_plus: the two must agree exactly in rational mode.
        """
        zero = Scalar.exact(0)
        total = Scalar.exact(0)
        cumrank = 0
        for i, (r, s) in enumerate(self.segments):
            if not s > zero:
                break
            cumrank += r
            nxt = self.segments[i + 1][1] if i + 1 < len(self.segments) else None
            lower = nxt.max0() if nxt is not None else Scalar.exact(0)
            total = total + Scalar.exact(cumrank) * (s - lower)
        return total

    def slope_measure(self) -> SlopeMeasure:
        """Atom at each slope with mass rank_i / rank."""
        n = self.rank
        return SlopeMeasure(tuple((s, Fraction(r, n)) for r, s in self.segments))


def make_hn_type(segments: Iterable[Sequence]) -> HNType:
    """Validated constructor; merges adjacent equal-slope segments.

    Accepts ``(rank, slope)`` pairs where slope is a Scalar, int, Fraction or
    "p/q" string.  Rejects empty input, non-positive ranks, and slope lists
    that are not strictly decreasing after the merge.  Idempotent on its own
    output.
    """
    items = [(r, as_scalar(s)) for r, s in segments]
    if not items:
        raise ValueError("HNType needs at least one segment")
    merged: list[tuple[int, Scalar]] = []
    for rank, slope in items:
        if not isinstance(rank, int) or rank < 1:
            raise ValueError(f"segment ranks must be positive integers, got {rank!r}")
        if merged and merged[-1][1] == slope:
            merged[-1] = (merged[-1][0] + rank, merged[-1][1])
        else:
            merged.append((rank, slope))
    return HNType(tuple(merged))


def hn_from_json(data) -> HNType:
    return make_hn_type((r, Scalar.from_json(s)) for r, s in data)
