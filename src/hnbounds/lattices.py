"""Euclidean lattices over Z with exact enumeration-backed invariants.

A lattice is Z^r equipped with a symmetric positive-definite rational Gram
matrix.  Short-vector counts and successive minima are computed by exact
Fincke-Pohst enumeration over a rational LDL decomposition, so every count is
a theorem, not a float.  An exact-arithmetic LLL reduction is applied first
as a heuristic to shrink the search region; it never enters the certification
path (the enumeration bound is taken from whichever basis is in use).

Logarithmic invariants (log-counts, Euler characteristic, Arakelov degree,
the rank-n comparison constant of Gillet-Soule type) are certified intervals.

Out of scope: maximal slopes beyond rank 2 or off-diagonal (a genuine
sublattice optimization), and absolute minima over the algebraic closure for
non-diagonal lattices.  The conjectural slope/absolute-minima comparison
mu_i <= Lambda_i + (1/2) ln(rank) is recorded here for context only and is
never asserted by any check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, isqrt, prod

from ._exact import det, rank
from .hn import HNType, make_hn_type
from .scalars import (
    Scalar,
    log_ball_volume,
    log_gamma,
    log_scalar,
    scalar_max,
)

__all__ = [
    "EuclideanLattice",
    "NumberFieldData",
    "RATIONAL_FIELD",
    "EnumerationBudgetError",
    "gillet_soule_constant",
    "random_gram",
]

MAX_RANK = 8
MAX_NODES = 10_000_000


class EnumerationBudgetError(RuntimeError):
    """The exact enumeration would exceed the configured budget."""


def _frac_isqrt_floor(x: Fraction) -> int:
    """floor(sqrt(x)) for a nonnegative rational, exact."""
    if x < 0:
        raise ValueError("negative radicand")
    # floor(sqrt(p/q)) = floor(sqrt(p*q)/q)
    return isqrt(x.numerator * x.denominator) // x.denominator


@dataclass(frozen=True)
class EuclideanLattice:
    """Z^r with a symmetric positive-definite rational Gram matrix."""

    gram: tuple[tuple[Fraction, ...], ...]

    def __init__(self, gram):
        rows = tuple(tuple(Fraction(x) for x in row) for row in gram)
        r = len(rows)
        if r < 1 or any(len(row) != r for row in rows):
            raise ValueError("Gram matrix must be square and nonempty")
        for i in range(r):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        # Sylvester: the leading minors are the partial products of the LDL
        # pivots, so all of them are > 0 iff every pivot is.
        d, u = _ldl(rows)
        if len(d) < r:
            raise ValueError("Gram matrix must be positive definite")
        object.__setattr__(self, "gram", rows)
        object.__setattr__(self, "_memo", {"ldl": (d, u)})

    # -- basic invariants --------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.gram)

    def determinant(self) -> Fraction:
        return prod(self._memo["ldl"][0])

    def norm2(self, v) -> Fraction:
        """The quadratic form v^T G v, exact."""
        g = self.gram
        r = self.rank
        total = Fraction(0)
        for i in range(r):
            if v[i]:
                row = g[i]
                total += v[i] * sum(row[j] * v[j] for j in range(r))
        return total

    def is_diagonal(self) -> bool:
        return all(
            self.gram[i][j] == 0
            for i in range(self.rank)
            for j in range(self.rank)
            if i != j
        )

    def scale(self, c: Fraction) -> "EuclideanLattice":
        """Gram scaled by c^2 (all vector lengths scaled by c)."""
        c2 = Fraction(c) ** 2
        return EuclideanLattice([[x * c2 for x in row] for row in self.gram])

    # -- counting and minima -------------------------------------------------

    def h0_count(self) -> int:
        """Number of lattice vectors with norm <= 1 (the origin included)."""
        if "h0_count" not in self._memo:
            self._check_budget()
            count = 0
            for _, v in self._short_vectors(Fraction(1)):
                count += 2 if any(v) else 1  # enumeration yields one of each +-v pair
            self._memo["h0_count"] = count
        return self._memo["h0_count"]

    def h0_hat(self) -> Scalar:
        """ln of the count of norm <= 1 vectors, as a certified interval."""
        return log_scalar(self.h0_count())

    def successive_minima(self) -> list[Scalar]:
        """Log minima lambda_1 >= ... >= lambda_r, lambda_i = -ln(norm_i).

        norm_i is the smallest real t such that vectors of norm <= t span a
        rank-i subspace.  Enumeration bound: the standard basis vectors give
        r independent vectors of squared norm max(G_ii), so all minima are
        realized inside that ball (the LLL-reduced basis usually gives a much
        smaller one).
        """
        squares = self.minima_norms_squared()
        half = Scalar.exact(Fraction(1, 2))
        return [Scalar.exact(0) - half * log_scalar(q) for q in squares]

    def minima_norms_squared(self) -> list[Fraction]:
        """Squared norms of the successive minima, exact rationals."""
        if "minima" in self._memo:
            return list(self._memo["minima"])
        self._check_budget()
        reduced, _ = self._lll()
        bound = max(reduced.gram[i][i] for i in range(self.rank))
        vectors = sorted(
            (q, v) for q, v in reduced._short_vectors(bound) if any(v)
        )
        out: list[Fraction] = []
        basis: list[tuple[int, ...]] = []
        for q, v in vectors:
            if rank(basis + [v]) > len(basis):
                out.append(q)
                basis.append(v)
                if len(out) == self.rank:
                    self._memo["minima"] = tuple(out)
                    return out
        raise AssertionError("enumeration ball failed to span; bound too small")

    # -- slope-theoretic invariants -----------------------------------------

    def euler_char(self) -> Scalar:
        """ln(vol of the unit ball / covolume), certified interval."""
        r = self.rank
        half = Scalar.exact(Fraction(1, 2))
        return log_ball_volume(r) - half * log_scalar(self.determinant())

    def arakelov_degree(self) -> Scalar:
        """-(1/2) ln det(Gram), the hermitian Arakelov degree over Z."""
        half = Scalar.exact(Fraction(1, 2))
        return Scalar.exact(0) - half * log_scalar(self.determinant())

    def orthogonal_hn(self) -> HNType:
        """Slope data of a diagonal lattice: rank-one summands of slope
        -(1/2) ln(G_ii), aggregated by equal diagonal entries.

        Aggregation happens on the exact rational diagonal before any log is
        taken, so the strict-decrease validation is always certifiable.
        """
        if not self.is_diagonal():
            raise ValueError("orthogonal_hn requires a diagonal Gram matrix")
        counts: dict[Fraction, int] = {}
        for i in range(self.rank):
            d = self.gram[i][i]
            counts[d] = counts.get(d, 0) + 1
        half = Scalar.exact(Fraction(1, 2))
        segments = [
            (counts[d], Scalar.exact(0) - half * log_scalar(d))
            for d in sorted(counts)
        ]
        return make_hn_type(segments)

    def rank2_mu_max(self) -> Scalar:
        """Maximal slope of a rank-2 lattice: max(lambda_1, deg/2).

        Rank-one sublattice degrees are maximized by the shortest vector;
        the only other subobject is the lattice itself.
        """
        if self.rank != 2:
            raise ValueError("rank2_mu_max requires a rank-2 lattice")
        shortest = self.minima_norms_squared()[0]
        half = Scalar.exact(Fraction(1, 2))
        lam1 = Scalar.exact(0) - half * log_scalar(shortest)
        return scalar_max(lam1, self.arakelov_degree() / Scalar.exact(2))

    # -- internals -----------------------------------------------------------

    def _check_budget(self):
        if self.rank > MAX_RANK:
            raise EnumerationBudgetError(
                f"rank {self.rank} exceeds the enumeration budget ({MAX_RANK})"
            )

    def _short_vectors(self, bound: Fraction):
        """Yield (norm2, coords) over all v with v^T G v <= bound.

        One representative per +-v pair is yielded, with coordinates in the
        lattice's own basis, plus the zero vector.  Exact throughout.
        """
        r = self.rank
        d, u = self._memo["ldl"]
        yield (Fraction(0), tuple([0] * r))
        coords = [0] * r
        nodes = 0

        def centers(level):
            return sum(u[level][j] * coords[j] for j in range(level + 1, r))

        def descend(level, remaining):
            nonlocal nodes
            nodes += 1
            if nodes > MAX_NODES:
                raise EnumerationBudgetError("enumeration node budget exceeded")
            c = centers(level)
            radius2 = remaining / d[level]
            root = _frac_isqrt_floor(radius2)
            lo = ceil(-c) - root - 1
            hi = floor(-c) + root + 1
            for x in range(lo, hi + 1):
                step = d[level] * (x + c) ** 2
                if step > remaining:
                    continue
                coords[level] = x
                if level == 0:
                    v = tuple(coords)
                    if any(v):
                        neg = tuple(-y for y in v)
                        if v > neg:
                            continue
                        yield (bound - remaining + step, v)
                else:
                    yield from descend(level - 1, remaining - step)
            coords[level] = 0

        yield from descend(r - 1, bound)

    def _lll(self, delta: Fraction = Fraction(3, 4)):
        """Exact-rational LLL; returns (reduced lattice, transform rows).

        transform[i] is the coordinate vector of the i-th reduced basis
        vector in the original basis.  The only other state is the
        Gram-Schmidt data |b*_i|^2 = d[i] and mu[i][j] (j < i), copied from
        the memoized LDL and updated in place, never recomputed: size
        reduction leaves d unchanged and a swap is Cohen's rational update
        (Alg. 2.6.3).  b_k is size-reduced against every j < k before the
        Lovasz test.  Heuristic only: callers use the reduced Gram to shrink
        enumeration regions, never to certify.
        """
        r = self.rank
        d, u = self._memo["ldl"]
        d = list(d)
        mu = [[u[j][i] for j in range(i)] for i in range(r)]
        basis = [[int(i == j) for j in range(r)] for i in range(r)]
        k = 1
        steps = 0
        while k < r:
            steps += 1
            if steps > 10_000:
                break  # heuristic step cap; correctness is unaffected
            for j in range(k - 1, -1, -1):
                q = round(mu[k][j])
                if q:  # b_k -= q b_j
                    basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
                    mu[k][j] -= q
                    for i in range(j):
                        mu[k][i] -= q * mu[j][i]
            m = mu[k][k - 1]
            if d[k] >= (delta - m**2) * d[k - 1]:
                k += 1
                continue
            # swap b_(k-1) and b_k
            big = d[k] + m**2 * d[k - 1]
            new = m * d[k - 1] / big
            d[k - 1], d[k] = big, d[k - 1] * d[k] / big
            basis[k - 1], basis[k] = basis[k], basis[k - 1]
            mu[k - 1], mu[k] = mu[k][: k - 1], mu[k - 1] + [new]
            for i in range(k + 1, r):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + new * mu[i][k]
            k = max(k - 1, 1)
        g = self.gram
        gb = [[sum(x * y for x, y in zip(row, b)) for row in g] for b in basis]
        reduced = EuclideanLattice(
            [[sum(x * y for x, y in zip(a, c)) for c in gb] for a in basis]
        )
        return reduced, basis

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        return [[str(x) for x in row] for row in self.gram]

    @classmethod
    def from_json(cls, data) -> "EuclideanLattice":
        return cls([[Fraction(x) for x in row] for row in data])


def _ldl(g):
    """G = U^T D U with U unit upper triangular and D diagonal, exact.

    Stops at the first pivot <= 0, so len(d) == len(g) iff G is positive
    definite; u is then fully computed.
    """
    r = len(g)
    d: list[Fraction] = []
    u = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    for i in range(r):
        di = g[i][i] - sum(d[k] * u[k][i] ** 2 for k in range(i))
        if di <= 0:
            break
        d.append(di)
        for j in range(i + 1, r):
            u[i][j] = (g[i][j] - sum(d[k] * u[k][i] * u[k][j] for k in range(i))) / di
    return d, u


@dataclass(frozen=True)
class NumberFieldData:
    """Degree, signature and absolute discriminant of a number field."""

    degree: int
    real_places: int
    complex_places: int
    abs_discriminant: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.real_places < 0 or self.complex_places < 0:
            raise ValueError("place counts must be nonnegative")
        if self.real_places + 2 * self.complex_places != self.degree:
            raise ValueError("signature must satisfy r1 + 2 r2 = degree")
        if self.abs_discriminant < 1:
            raise ValueError("absolute discriminant must be >= 1")

    def log_abs_discriminant(self) -> Scalar:
        return log_scalar(self.abs_discriminant)


RATIONAL_FIELD = NumberFieldData(1, 1, 0, 1)


def gillet_soule_constant(field: NumberFieldData, n: int) -> Scalar:
    """Comparison constant C(K, n) between log-section-counts and degrees.

    C(K, n) = n d ln 3 + n (r1 + r2) ln 2 + (n/2) ln|Delta|
              - r1 ln(V(B_n) n!) - r2 ln(V(B_2n) (2n)!) + ln((d n)!)

    evaluated as a certified interval, with every ln m! taken as the certified
    ln Gamma(m + 1), so the cost does not grow with n.  C(K, n) grows like
    (d/2) n ln n, and its ratio to that term falls toward 1 from above,
    slowly: for K = Q it is 1.081 at n = 10^4 and stays within 5 % only
    from n ~ 3 x 10^6 on.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = field.degree
    r1, r2 = field.real_places, field.complex_places
    total = Scalar.exact(n * d) * log_scalar(3)
    total = total + Scalar.exact(n * (r1 + r2)) * log_scalar(2)
    total = total + Scalar.exact(Fraction(n, 2)) * field.log_abs_discriminant()
    if r1:
        total = total - Scalar.exact(r1) * (log_ball_volume(n) + log_gamma(n + 1))
    if r2:
        total = total - Scalar.exact(r2) * (log_ball_volume(2 * n) + log_gamma(2 * n + 1))
    total = total + log_gamma(d * n + 1)
    return total


def random_gram(rank: int, rng) -> EuclideanLattice:
    """Random integer Gram matrix B^T B, entries of B uniform in [-3, 3].

    Singular draws are rejected, so the result is always positive definite.
    """
    while True:
        b = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
        if det(b) == 0:
            continue
        gram = [
            [sum(b[k][i] * b[k][j] for k in range(rank)) for j in range(rank)]
            for i in range(rank)
        ]
        return EuclideanLattice(gram)
