"""Graded linear series with closed-form data.

Two concrete families:

* :class:`ToricSeries` -- lattice-point counting and exact volume for a
  full-dimensional rational convex polytope (dimension 1 to 3).  Counting is
  plain bounding-box enumeration; volume is exact rational via triangulation.

* :class:`FiberedSeries` -- the total graded system of the line bundle
  O(a f + b s) on the Hirzebruch surface F_e fibered over P^1 (e = 0 is
  P^1 x P^1).  Pushforwards split, so ranks, slopes, filtered pieces and
  volumes all have closed forms, and everything can be cross-checked against
  the lattice-point count of the associated trapezoid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd

from ._exact import det, rank
from .curves import SplitBundle
from .scalars import Scalar, as_scalar

__all__ = ["ToricSeries", "FiberedSeries"]


def _normal_through(points: list[tuple[Fraction, ...]]) -> tuple[Fraction, ...] | None:
    """Normal of the hyperplane through d affinely independent points in R^d.

    Returns None when the points are affinely dependent.  Computed by cofactor
    expansion: the i-th normal coordinate is (-1)^i det of the difference
    matrix with column i removed.
    """
    d = len(points[0])
    diffs = [[points[k][j] - points[0][j] for j in range(d)] for k in range(1, d)]
    normal = []
    for i in range(d):
        minor = [[row[j] for j in range(d) if j != i] for row in diffs]
        sign = -1 if i % 2 else 1
        normal.append(sign * det(minor))
    if all(x == 0 for x in normal):
        return None
    return tuple(normal)


def _integerize(normal, rhs):
    """Scale a rational inequality a.x <= c to coprime integer coefficients."""
    denom_lcm = 1
    for x in list(normal) + [rhs]:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in normal]
    c = int(rhs * denom_lcm)
    g = 0
    for x in ints + [c]:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
        c = c // g
    return tuple(ints), c


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


def _facet_cycle(points, normal):
    """Vertices of a planar point set in convex-cycle order.

    Projects onto exact in-plane coordinates (u, n x u) and takes the 2D
    hull there; the projection is an affine bijection of the plane, so the
    returned cycle is the facet's boundary order (redundant or interior
    points are discarded).
    """
    p0 = points[0]
    u = next(
        tuple(x - y for x, y in zip(p, p0)) for p in points[1:] if p != p0
    )
    w = (
        normal[1] * u[2] - normal[2] * u[1],
        normal[2] * u[0] - normal[0] * u[2],
        normal[0] * u[1] - normal[1] * u[0],
    )
    coords = {}
    for p in points:
        rel = tuple(x - y for x, y in zip(p, p0))
        st = (sum(a * b for a, b in zip(rel, u)), sum(a * b for a, b in zip(rel, w)))
        coords.setdefault(st, p)
    ring = _convex_hull_2d(list(coords))
    return [coords[st] for st in ring]


# ---------------------------------------------------------------------------
# toric series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToricSeries:
    """Graded series of a full-dimensional rational polytope (dim 1 to 3).

    The degree-n piece is the set of lattice points of the n-th dilate, so
    rank growth is governed by the Euclidean volume:
    vol(series) = d! * vol(polytope).
    """

    vertices: tuple[tuple[Fraction, ...], ...]

    def __init__(self, vertices):
        verts = tuple(tuple(Fraction(x) for x in v) for v in vertices)
        if not verts:
            raise ValueError("polytope needs at least one vertex")
        d = len(verts[0])
        if any(len(v) != d for v in verts):
            raise ValueError("vertices must share one dimension")
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if d > 3:
            raise ValueError("dimensions above 3 are outside the enumeration budget")
        diffs = [[v[j] - verts[0][j] for j in range(d)] for v in verts[1:]]
        if rank(diffs) < d:
            raise ValueError("polytope must be full-dimensional")
        object.__setattr__(self, "vertices", verts)

    @property
    def dimension(self) -> int:
        return len(self.vertices[0])

    # -- facet inequalities ------------------------------------------------

    def facets(self) -> list[tuple[tuple[int, ...], int]]:
        """Integer inequalities a.x <= c cutting out the polytope.

        Found by brute force over d-subsets of the points: a hyperplane
        through d affinely independent points supports the polytope iff every
        point lies (weakly) on one side.  Fine at desk scale.
        """
        d = self.dimension
        if d == 1:
            xs = [v[0] for v in self.vertices]
            lo, hi = min(xs), max(xs)
            out = []
            out.append(_integerize((Fraction(1),), hi))
            out.append(_integerize((Fraction(-1),), -lo))
            return out
        seen = set()
        result = []
        for subset in itertools.combinations(self.vertices, d):
            normal = _normal_through(list(subset))
            if normal is None:
                continue
            c = sum(a * x for a, x in zip(normal, subset[0]))
            sides = [sum(a * x for a, x in zip(normal, v)) - c for v in self.vertices]
            if all(s <= 0 for s in sides):
                ineq = _integerize(normal, c)
            elif all(s >= 0 for s in sides):
                ineq = _integerize(tuple(-a for a in normal), -c)
            else:
                continue
            if ineq not in seen:
                seen.add(ineq)
                result.append(ineq)
        return result

    # -- lattice point counting ---------------------------------------------

    def rank(self, n: int) -> int:
        """Number of lattice points of the n-th dilate (n >= 0)."""
        if n < 0:
            raise ValueError("dilation factor must be >= 0")
        if n == 0:
            return 1
        facets = [(a, c * n) for a, c in self.facets()]
        box = []
        for j in range(self.dimension):
            coords = [n * v[j] for v in self.vertices]
            box.append((ceil(min(coords)), floor(max(coords))))
        return _count_points(facets, box)

    def volume(self) -> Scalar:
        """Normalized volume d! * vol(polytope), exact rational."""
        d = self.dimension
        if d == 1:
            xs = [v[0] for v in self.vertices]
            return Scalar.exact(max(xs) - min(xs))
        if d == 2:
            hull = _convex_hull_2d([(v[0], v[1]) for v in self.vertices])
            area = Fraction(0)
            for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
                area += x1 * y2 - x2 * y1
            return Scalar.exact(abs(area))  # 2! * (|shoelace| / 2)
        return Scalar.exact(6 * self._volume_3d())

    def _volume_3d(self) -> Fraction:
        apex = self.vertices[0]
        total = Fraction(0)
        for a, c in self.facets():
            on_facet = [
                v
                for v in self.vertices
                if sum(ai * x for ai, x in zip(a, v)) == c
            ]
            if apex in on_facet or len(on_facet) < 3:
                continue
            normal = (Fraction(a[0]), Fraction(a[1]), Fraction(a[2]))
            ring = _facet_cycle(on_facet, normal)
            p0 = ring[0]
            for p1, p2 in zip(ring[1:], ring[2:]):
                signed = det(
                    [
                        [x - y for x, y in zip(p1, p0)],
                        [x - y for x, y in zip(p2, p0)],
                        [x - y for x, y in zip(apex, p0)],
                    ]
                )
                total += abs(signed)
        return total / 6

    def to_json(self):
        return [[str(x) for x in v] for v in self.vertices]

    @classmethod
    def from_json(cls, data) -> "ToricSeries":
        return cls([[Fraction(x) for x in v] for v in data])


def _count_points(facets, box) -> int:
    """Count integer points in the box satisfying all integer inequalities.

    Recursive over coordinates; the innermost coordinate is counted as an
    interval instead of enumerated.
    """
    d = len(box)

    def rec(prefix):
        j = len(prefix)
        lo, hi = box[j]
        if j == d - 1:
            for a, c in facets:
                rest = c - sum(ai * xi for ai, xi in zip(a, prefix))
                aj = a[j]
                if aj > 0:
                    hi = min(hi, floor(Fraction(rest, aj)))
                elif aj < 0:
                    lo = max(lo, ceil(Fraction(rest, aj)))
                elif rest < 0:
                    return 0
            return max(0, hi - lo + 1)
        total = 0
        for x in range(lo, hi + 1):
            total += rec(prefix + (x,))
        return total

    if any(lo > hi for lo, hi in box):
        return 0
    return rec(())


# ---------------------------------------------------------------------------
# Hirzebruch fibered series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberedSeries:
    """Total graded system of O(a f + b s) on the Hirzebruch surface F_e.

    ``a`` is the base twist, ``b`` the fiber degree, ``e`` the surface
    parameter (e = 0 gives P^1 x P^1).  The intended regime is a >= e*b so
    that every pushforward summand is effective; operations only require
    a >= 0, b >= 1, e >= 0 and tolerate the rest.
    """

    a: int
    b: int
    e: int

    def __post_init__(self):
        if self.a < 0 or self.b < 1 or self.e < 0:
            raise ValueError("need a >= 0, b >= 1, e >= 0")

    def pushforward(self, n: int) -> SplitBundle:
        """Direct image of the n-th power on the base P^1: twists n*a - e*j.

        Rank is n*b + 1; on P^1 x P^1 all twists equal n*a.
        """
        if n < 1:
            raise ValueError("tensor power must be >= 1")
        return SplitBundle(n * self.a - self.e * j for j in range(n * self.b + 1))

    def mu_max_asy(self) -> Scalar:
        """Limit of mu_max(pushforward(n)) / n; here exactly ``a``."""
        return Scalar.exact(self.a)

    def filtered_rank(self, t, n: int) -> int:
        """Rank of the slope->=t piece of pushforward(n): its HN filtration
        at the threshold n*t."""
        t = as_scalar(t).as_fraction()
        return self.pushforward(n).hn_type().filtration_rank(n * t)

    def filtered_volume(self, t) -> Scalar:
        """Normalized limit of filtered_rank(t, n)/n: min(b, (a-t)/e) on
        [0, b], and 0 past t = a."""
        t = as_scalar(t).as_fraction()
        a, b, e = Fraction(self.a), Fraction(self.b), Fraction(self.e)
        if t > a:
            return Scalar.exact(0)
        if self.e == 0:
            return Scalar.exact(b)
        value = min(b, (a - t) / e)
        return Scalar.exact(max(value, Fraction(0)))

    def filtered_rank_integral(self, n: int = 1) -> Scalar:
        """Exact integral over t in [0, oo) of filtered_rank(t, n).

        The filtration is the HN filtration of pushforward(n) rescaled by 1/n,
        so this is its positive-rank integral over n; for n = 1 it is the
        positive degree of the pushforward.
        """
        integral = self.pushforward(n).hn_type().positive_rank_integral()
        return integral / Scalar.exact(n)

    def volume_via_fibers(self) -> Scalar:
        """(d+1) * integral of filtered_volume over [0, mu_max_asy], d+1 = 2.

        Exact piecewise integration; agrees with the normalized volume of the
        associated trapezoid.
        """
        a, b = Fraction(self.a), Fraction(self.b)
        if self.e == 0:
            integral = a * b
        else:
            e = Fraction(self.e)
            knee = max(a - e * b, Fraction(0))
            integral = b * knee + (a - knee) * (a - knee) / (2 * e)
        return Scalar.exact(2 * integral)

    def trapezoid(self) -> ToricSeries:
        """The polytope {0 <= y <= b, 0 <= x <= a - e y} (needs a >= e*b >= 0
        and a >= 1 so it is full-dimensional)."""
        if self.a < max(self.e * self.b, 1):
            raise ValueError("trapezoid is degenerate unless a >= max(e*b, 1)")
        a, b, e = self.a, self.b, self.e
        return ToricSeries([(0, 0), (a, 0), (a - e * b, b), (0, b)])

    def to_json(self):
        return {"a": self.a, "b": self.b, "e": self.e}

    @classmethod
    def from_json(cls, data) -> "FiberedSeries":
        return cls(int(data["a"]), int(data["b"]), int(data["e"]))
