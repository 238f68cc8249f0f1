"""Graded linear series with closed-form data.

Two concrete families:

* :class:`ToricSeries` -- the normalized area of a rational convex polygon:
  the shoelace sum over its hull.

* :class:`FiberedSeries` -- the total graded system of the line bundle
  O(a f + b s) on the Hirzebruch surface F_e fibered over P^1 (e = 0 is
  P^1 x P^1).  Pushforwards split, so ranks, slopes, filtered pieces and
  volumes all have closed forms; the volume agrees with the area of the
  associated trapezoid.

Counts and asymptotic slopes are ints; areas, volumes, filtered rank
integrals and a pushforward's slopes (an :class:`~hnbounds.hn.HNType`) are
Fractions.  Vertices are read by :func:`~hnbounds.scalars.exact_fraction`.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .curves import SplitBundle
from .scalars import exact_fraction

__all__ = ["ToricSeries", "FiberedSeries"]


def _convex_hull_2d(points: list[tuple[Fraction, Fraction]]):
    """Andrew's monotone chain; returns hull vertices in ccw order."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


# ---------------------------------------------------------------------------
# toric series
# ---------------------------------------------------------------------------


class ToricSeries:
    """Graded series of a two-dimensional rational convex polygon.

    The degree-n piece is the set of lattice points of the n-th dilate, so
    rank growth is governed by the area: vol(series) = 2! * area(polygon).
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        verts = tuple(tuple(map(exact_fraction, v)) for v in vertices)
        if any(len(v) != 2 for v in verts):
            raise ValueError("vertices must be points of the plane")
        if len(_convex_hull_2d(list(verts))) < 3:
            raise ValueError("polygon must be two-dimensional")
        self.vertices = verts

    def volume(self) -> Fraction:
        """Normalized volume 2! * area: the shoelace sum over the
        counter-clockwise hull, which is twice the area."""
        hull = _convex_hull_2d(list(self.vertices))
        return sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]))


# ---------------------------------------------------------------------------
# Hirzebruch fibered series
# ---------------------------------------------------------------------------


class FiberedSeries:
    """Total graded system of O(a f + b s) on the Hirzebruch surface F_e.

    ``a`` is the base twist, ``b`` the fiber degree, ``e`` the surface
    parameter (e = 0 gives P^1 x P^1).  The intended regime is a >= e*b so
    that every pushforward summand is effective; operations only require
    a >= 0, b >= 1, e >= 0 and tolerate the rest.
    """

    __slots__ = ("a", "b", "e")

    def __init__(self, a: int, b: int, e: int):
        self.a, self.b, self.e = operator.index(a), operator.index(b), operator.index(e)
        if self.a < 0 or self.b < 1 or self.e < 0:
            raise ValueError("need a >= 0, b >= 1, e >= 0")

    def __reduce__(self):
        return (FiberedSeries, (self.a, self.b, self.e))

    def pushforward(self, n: int) -> SplitBundle:
        """Direct image of the n-th power on the base P^1: twists n*a - e*j.

        Rank is n*b + 1; on P^1 x P^1 all twists equal n*a.
        """
        if n < 1:
            raise ValueError("tensor power must be >= 1")
        return SplitBundle(n * self.a - self.e * j for j in range(n * self.b + 1))

    def mu_max_asy(self) -> int:
        """Limit of mu_max(pushforward(n)) / n; here exactly ``a``."""
        return self.a

    def filtered_rank_integral(self, n: int = 1) -> Fraction:
        """Exact integral over t in [0, oo) of the rank of the slope->=t piece
        of pushforward(n) rescaled by 1/n, a Fraction.

        That filtration is the HN filtration of pushforward(n) at n*t, so
        this is its positive-rank integral over n; for n = 1 it is the
        positive degree of the pushforward.
        """
        return self.pushforward(n).hn_type().positive_rank_integral() / n

    def volume_via_fibers(self) -> Fraction:
        """(d+1) * integral over t in [0, mu_max_asy] of the filtered volume
        min(b, (a - t)/e), the limit of the slope->=t rank over n; d+1 = 2.

        Exact piecewise integration; agrees with the normalized volume of the
        associated trapezoid.  With knee = max(a - e*b, 0) the integral is
        b*knee + (a - knee)^2 / (2e), so the volume is
        (2eb*knee + (a - knee)^2) / e, or 2ab when e = 0, a Fraction either
        way.
        """
        a, b, e = self.a, self.b, self.e
        if e == 0:
            return Fraction(2 * a * b)
        knee = max(a - e * b, 0)
        return Fraction(2 * e * b * knee + (a - knee) ** 2, e)

    def trapezoid(self) -> ToricSeries:
        """The polytope {0 <= y <= b, 0 <= x <= a - e y} (needs a >= e*b >= 0
        and a >= 1 so it is full-dimensional)."""
        if self.a < max(self.e * self.b, 1):
            raise ValueError("trapezoid is degenerate unless a >= max(e*b, 1)")
        a, b, e = self.a, self.b, self.e
        return ToricSeries([(0, 0), (a, 0), (a - e * b, b), (0, b)])
