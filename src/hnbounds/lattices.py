"""Euclidean lattices over Z with exact, integer-counted invariants.

A lattice is Z^r equipped with a symmetric positive-definite rational Gram
matrix G.  The constructor clears denominators once, A = den G with den the
lcm of the entry denominators, and keeps A's Gram-Schmidt data in integers:
the leading minors Delta_0 = 1, ..., Delta_r and lambda_ij = Delta_(j+1) mu_ij,
read off the pivot rows of the package's one fraction-free (Bareiss)
elimination.  G is diagonal exactly when every lambda_ij is 0, which the
constructor records once.  Every count is a theorem in integers, not a
float, made on one of two paths.  A diagonal Gram's count is a convolution
of its coordinates' squares: with a_i = den G_ii, the sums sum a_i x_i^2 <=
den are folded in one coordinate at a time as a dict {sum: multiplicity},
with no reduction and no enumeration.  Any other Gram's count, and the
successive minima of every Gram, come from an integer Fincke-Pohst
enumeration over the Gram-Schmidt data: the count adds each level-0 range in
O(1) without visiting its leaves, and the minima compare integer norms over
one common denominator.  Both paths refuse work past ``MAX_NODES``, read at
call time: the enumeration charges its nodes and leaves, and the convolution
charges each coordinate the (sum, x) pairs it folds in, before it builds
them.  Each enumerated lattice is reduced once by the integral LLL of Cohen
(Alg. 2.6.7), memoized and shared by the count and the minima; it keeps the
reduced basis's Gram-Schmidt data alone, since the enumeration needs nothing
else.  The reduction only shrinks the search region and never enters the
certification path (the enumeration bound is taken from whichever basis is
in use).

Logarithmic invariants (log-counts, Euler characteristic, Arakelov degree,
the comparison constant C(Q, n) of Gillet and Soule) are certified
intervals.  Each log is memoized once, by ``log_scalar`` on its exact
argument; C(Q, n) is memoized per argument, and a lattice memoizes only its
exact data, its Euler characteristic and its log minima.

Out of scope: maximal slopes beyond rank 2 or off-diagonal (a genuine
sublattice optimization), and absolute minima over the algebraic closure for
non-diagonal lattices.  The conjectural slope/absolute-minima comparison
mu_i <= Lambda_i + (1/2) ln(rank) is recorded here for context only and is
never asserted by any check.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from operator import mul

from ._exact import Echelon
from .hn import HNType, _ordered
from .scalars import (
    Scalar,
    exact_fraction,
    log_ball_volume,
    log_gamma,
    log_scalar,
    neg_half_log,
    scalar_max,
)

__all__ = [
    "EuclideanLattice",
    "RATIONAL_FIELD",
    "EnumerationBudgetError",
    "gillet_soule_constant",
    "random_gram",
]

MAX_RANK = 8
MAX_NODES = 10_000_000


class EnumerationBudgetError(RuntimeError):
    """The exact enumeration would exceed the configured budget."""


def _round_half_even(n: int, d: int) -> int:
    """round(n / d) for d > 0 in integers, ties to even, as round(Fraction(n, d))."""
    q, rem = divmod(2 * n + d, 2 * d)
    return q - 1 if not rem and q & 1 else q


class EuclideanLattice:
    """Z^r with a symmetric positive-definite rational Gram matrix, compared by it."""

    __slots__ = ("gram", "_memo", "_diagonal")

    def __init__(self, gram):
        rows = tuple(tuple(map(exact_fraction, row)) for row in gram)
        r = len(rows)
        if r < 1 or any(len(row) != r for row in rows):
            raise ValueError("Gram matrix must be square and nonempty")
        # A = den G in integers; its pivot rows give the leading minors
        # Delta_i and lambda.  Sylvester: G is definite iff every Delta_i > 0,
        # and then pivot i sits in column i.
        den = lcm(*(x.denominator for row in rows for x in row))
        a = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
        if any(a[i][j] != a[j][i] for i in range(r) for j in range(i)):
            raise ValueError("Gram matrix must be symmetric")
        e = Echelon()
        for i, row in enumerate(a):
            if not (e.add(row) and e.cols[i] == i and e.rows[i][i] > 0):
                raise ValueError("Gram matrix must be positive definite")
        delta = [1] + [e.rows[i][i] for i in range(r)]
        lam = [[e.rows[j][i] for j in range(i)] for i in range(r)]
        self.gram, self._memo = rows, {"gso": (den, delta, lam)}
        # G is diagonal iff its basis is orthogonal, iff every lambda_ij is 0
        self._diagonal = not any(map(any, lam))

    def __eq__(self, other):
        return self.gram == other.gram if type(other) is EuclideanLattice else NotImplemented

    # -- basic invariants --------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.gram)

    def determinant(self) -> Fraction:
        den, delta, _ = self._memo["gso"]
        return Fraction(delta[-1], den**self.rank)

    def is_diagonal(self) -> bool:
        return self._diagonal

    def scale(self, c) -> "EuclideanLattice":
        """Gram scaled by c^2 (all vector lengths scaled by c), c an exact rational."""
        c2 = exact_fraction(c) ** 2
        return EuclideanLattice([[x * c2 for x in row] for row in self.gram])

    # -- counting and minima -------------------------------------------------

    def h0_count(self) -> int:
        """Number of lattice vectors with norm <= 1 (the origin included).

        A diagonal Gram is counted by :func:`_diagonal_count`, an integer
        convolution of its coordinates' squares, with no reduction and no
        enumeration.  Any other Gram is enumerated in its reduced basis,
        without visiting the leaves: each level-0 range of the enumeration
        adds its length in O(1), and the count is 1 + 2 #leaves (the
        origin, and each +-v pair once).  Both paths refuse a count past
        ``MAX_NODES`` with :class:`EnumerationBudgetError`: the enumeration
        charges its nodes and leaves, the convolution the (sum, x) pairs of
        each coordinate it folds in, before they are built.
        """
        if "h0_count" not in self._memo:
            self._check_budget()
            if self._diagonal:
                den, delta, _ = self._memo["gso"]
                count = _diagonal_count(den, [delta[i + 1] // delta[i] for i in range(self.rank)])
            else:
                gso = self._lll()
                weights, scale = _form(gso)
                leaves = sum(top - lo for _, lo, top, _, _ in _level0_ranges(gso, weights, scale))
                count = 1 + 2 * leaves
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
        if "log_minima" not in self._memo:
            self._memo["log_minima"] = tuple(neg_half_log(q) for q in self.minima_norms_squared())
        return list(self._memo["log_minima"])

    def minima_norms_squared(self) -> list[Fraction]:
        """Squared norms of the successive minima, exact rationals.

        The reduced basis's ball of radius^2 max(G_ii), G its Gram, is
        enumerated with integer norms over their common denominator scale
        (see :func:`_short_vectors`) and sorted on those integers.  The
        radius is read off the Gram-Schmidt data: scale G_ii =
        w_i Delta_(i+1)^2 + sum_(l<i) w_l lambda_il^2.  Candidates are
        taken in order of norm and kept when independent of those kept
        before, tested against their fraction-free echelon form; a Fraction
        is built only for the r norms kept.
        """
        if "minima" not in self._memo:
            self._check_budget()
            gso = self._lll()
            _, delta, lam = gso
            weights, scale = _form(gso)
            top = max(
                weights[i] * delta[i + 1] ** 2 + sum(w * x * x for w, x in zip(weights, lam[i]))
                for i in range(self.rank)
            )
            kept = Echelon()
            out = []
            for q, v in sorted(_short_vectors(gso, Fraction(top, scale))):
                if q and kept.add(v):
                    out.append(Fraction(q, scale))
                    if len(out) == self.rank:
                        break
            else:
                raise AssertionError("enumeration ball failed to span; bound too small")
            self._memo["minima"] = tuple(out)
        return list(self._memo["minima"])

    # -- slope-theoretic invariants -----------------------------------------

    def euler_char(self) -> Scalar:
        """ln(vol of the unit ball / covolume), certified interval (memoized)."""
        if "chi" not in self._memo:
            self._memo["chi"] = log_ball_volume(self.rank) + self.arakelov_degree()
        return self._memo["chi"]

    def arakelov_degree(self) -> Scalar:
        """-(1/2) ln det(Gram), the hermitian Arakelov degree over Z."""
        return neg_half_log(self.determinant())

    def orthogonal_slopes(self) -> list[tuple[int, Scalar]]:
        """Slope data of a diagonal lattice: one ``(count, -(1/2) ln d)`` per
        distinct diagonal entry d, in increasing order of the exact d, so in
        decreasing order of slope without comparing a log.
        """
        if not self._diagonal:
            raise ValueError("orthogonal slopes require a diagonal Gram matrix")
        counts = Counter(self.gram[i][i] for i in range(self.rank))
        return [(counts[d], neg_half_log(d)) for d in sorted(counts)]

    def orthogonal_hn(self) -> HNType:
        """:meth:`orthogonal_slopes` as an HN type.

        Aggregation happens on the exact rational diagonal before any log is
        taken, and the entries' exact order is the slopes' order: no log is compared.
        """
        return _ordered(self.orthogonal_slopes())

    def rank2_mu_max(self) -> Scalar:
        """Maximal slope of a rank-2 lattice: max(lambda_1, deg/2).

        Rank-one sublattice degrees are maximized by the shortest vector;
        the only other subobject is the lattice itself.
        """
        if self.rank != 2:
            raise ValueError("rank2_mu_max requires a rank-2 lattice")
        return scalar_max(self.successive_minima()[0], self.arakelov_degree() / 2)

    # -- internals -----------------------------------------------------------

    def _check_budget(self):
        if self.rank > MAX_RANK:
            raise EnumerationBudgetError(
                f"rank {self.rank} exceeds the enumeration budget ({MAX_RANK})"
            )

    def _lll(self):
        """Integral LLL (Cohen, Alg. 2.6.7), memoized: the integer
        Gram-Schmidt data gso = (den, Delta, lambda) of the reduced basis
        (:func:`_form`).

        The only state is that data, copied from the lattice and updated in
        place, never recomputed: size reduction b_k -= q b_j, with
        q = round(lambda_kj / Delta_(j+1)) (ties to even), leaves Delta
        unchanged, and a swap is Cohen's SWAPI with exact integer division.
        b_k is size-reduced against every j < k before the Lovasz test
        4 (Delta_(k+1) Delta_(k-1) + lambda^2) >= 3 Delta_k^2 (delta = 3/4).
        Neither the transform to the reduced basis nor its Gram is formed:
        the enumeration reads coordinates and norms off gso alone.  Heuristic
        only: callers use the reduced basis to shrink enumeration regions,
        never to certify.
        """
        if "lll" in self._memo:
            return self._memo["lll"]
        r = self.rank
        den, delta, lam = self._memo["gso"]
        delta = list(delta)
        lam = [list(row) for row in lam]
        k = 1
        steps = 0
        while k < r:
            steps += 1
            if steps > 10_000:
                break  # heuristic step cap; correctness is unaffected
            lk = lam[k]
            for j in range(k - 1, -1, -1):
                if 2 * abs(lk[j]) > delta[j + 1]:  # else round(lambda/Delta) == 0
                    q = _round_half_even(lk[j], delta[j + 1])
                    lk[j] -= q * delta[j + 1]
                    lj = lam[j]
                    for i in range(j):
                        lk[i] -= q * lj[i]
            l = lk[k - 1]
            if 4 * (delta[k + 1] * delta[k - 1] + l * l) >= 3 * delta[k] ** 2:
                k += 1
                continue
            # swap b_(k-1) and b_k
            lam[k - 1], lam[k] = lk[: k - 1], lam[k - 1] + [l]
            dk, dk1 = delta[k], delta[k + 1]
            big = (delta[k - 1] * dk1 + l * l) // dk
            for i in range(k + 1, r):
                li = lam[i]
                t = li[k]
                li[k] = (dk1 * li[k - 1] - l * t) // dk
                li[k - 1] = (big * t + l * li[k]) // dk1
            delta[k] = big
            k = max(k - 1, 1)
        self._memo["lll"] = den, delta, lam
        return self._memo["lll"]


def _diagonal_count(den: int, entries) -> int:
    """#{x in Z^r : sum_i a_i x_i^2 <= den}, the a_i positive integers.

    For a diagonal Gram G, with a_i = den G_ii (Delta_(i+1) / Delta_i),
    this is the count of vectors of norm <= 1.  The coordinates are folded
    in one at a time, those with the fewest values first, into
    {partial sum <= den: number of partial vectors}: each sum s spreads to
    s + a x^2 for 0 <= x <= isqrt((den - s) // a), and each x != 0
    counts twice, for +-x.  The last coordinate's ranges are added by
    their lengths instead of being built.  Each coordinate is charged
    its (s, x) pairs against ``MAX_NODES`` before they are visited, so a
    ball too big for the budget is refused before it is built.  At rank 1
    the charge is the enumeration's, 1 + isqrt(den // a); folded in this
    order, it stayed at or below the enumeration's node count on every
    diagonal Gram tested.
    """
    sums = {0: 1}
    nodes = 0
    entries = sorted(entries, reverse=True)
    for i, a in enumerate(entries, 1):
        tops = [isqrt((den - s) // a) for s in sums]
        nodes += len(tops) + sum(tops)
        if nodes > MAX_NODES:
            raise EnumerationBudgetError("enumeration node budget exceeded")
        if i == len(entries):
            return sum(m * (2 * t + 1) for m, t in zip(sums.values(), tops))
        folded = dict(sums)  # x = 0
        for (s, m), t in zip(sums.items(), tops):
            for x in range(1, t + 1):
                key = s + a * x * x
                folded[key] = folded.get(key, 0) + 2 * m
        sums = folded


def _form(gso):
    """(weights, scale) of the integer form of Gram-Schmidt data
    gso = (den, Delta, lambda).

    With s_l = Delta_(l+1) x_l + sum_(j>l) lambda_jl x_j, the form is
    den v^T G v = sum_l s_l^2 / (Delta_l Delta_(l+1)).  Scaled by
    M = lcm(Delta_l Delta_(l+1)), every term is w_l s_l^2 with
    w_l = M / (Delta_l Delta_(l+1)) an integer, so scale = den M turns
    every norm into the integer scale v^T G v.
    """
    den, delta, _ = gso
    r = len(delta) - 1
    m = lcm(*(delta[l] * delta[l + 1] for l in range(r)))
    return [m // (delta[l] * delta[l + 1]) for l in range(r)], den * m


def _short_vectors(gso, bound: Fraction):
    """Yield (scale v^T G v, coords) over all v with v^T G v <= bound.

    G is the Gram matrix whose Gram-Schmidt data is gso (:func:`_form`), and
    the norm is an integer over its common denominator scale = den M.  One
    representative per +-v pair is yielded (its last nonzero coordinate is
    negative), with coordinates in the basis of gso, plus the zero vector
    first.  The leaves are read off the ranges of :func:`_level0_ranges`,
    with no per-x test.
    """
    bound = Fraction(bound)
    delta = gso[1]
    weights, scale = _form(gso)
    total = bound.numerator * scale // bound.denominator
    w0, d1 = weights[0], delta[1]
    yield 0, (0,) * len(weights)
    for coords, lo, top, c, left in _level0_ranges(gso, weights, total):
        base = total - left
        tail = tuple(coords[1:])
        for x in range(lo + 1, top + 1):
            s = d1 * x + c
            yield base + w0 * s * s, (x,) + tail


def _level0_ranges(gso, weights, total: int):
    """Integer Fincke-Pohst over sum_l w_l s_l^2 <= total (:func:`_form`).

    Yields (coords, lo, top, c, left) once per level-0 range: the leaves
    are x_0 = lo + 1, ..., top with coords[1:] fixed (``coords`` is the
    live list, valid until the next item), s_0 = Delta_1 x_0 + c, and
    left the budget levels 1.. leave to level 0.  Each level's range of
    x_l is exact, |s_l| <= isqrt(remaining // w_l), and no per-x test is
    made.  Only nonzero vectors whose last nonzero coordinate is
    negative are covered.  Every level entered is a node, and level 0's
    whole range is charged when it is entered, so a ball too big for
    ``MAX_NODES`` is refused before its leaves are walked.
    """
    _, delta, lam = gso
    r = len(weights)
    coords = [0] * r
    tops = [0] * r  # the last x to visit at each level
    centers = [0] * r  # sum_(j>l) lambda_jl x_j
    remaining = [0] * r + [total]  # remaining[l + 1]: budget for levels <= l
    nodes = 0
    level = r
    while True:
        if level < r:
            if coords[level] < tops[level]:  # next x at this level
                x = coords[level] = coords[level] + 1
                s = delta[level + 1] * x + centers[level]
                remaining[level] = remaining[level + 1] - weights[level] * s * s
            else:  # level done: back up
                coords[level] = 0
                level += 1
                if level == r:
                    return
                continue
        # enter the level below
        nodes += 1
        if nodes > MAX_NODES:
            raise EnumerationBudgetError("enumeration node budget exceeded")
        level -= 1
        c = sum(lam[j][level] * coords[j] for j in range(level + 1, r))
        t = isqrt(remaining[level + 1] // weights[level])
        dl = delta[level + 1]
        lo = -((t + c) // dl) - 1
        if c == 0 and not any(coords[level + 1 :]):
            top = 0 if level else -1  # -v is counted with v; skip 0
        else:
            top = (t - c) // dl
        if level:
            centers[level], coords[level], tops[level] = c, lo, top
            continue
        nodes += top - lo  # the leaves count too
        if nodes > MAX_NODES:
            raise EnumerationBudgetError("enumeration node budget exceeded")
        yield coords, lo, top, c, remaining[1]
        if r == 1:
            return
        level = 1


RATIONAL_FIELD = "Q"  # the one field gillet_soule_constant takes


@lru_cache(maxsize=256)
def gillet_soule_constant(field, n: int) -> Scalar:
    """Comparison constant C(Q, n) between log-section-counts and degrees.

    Gillet and Soule's C(K, n) at K = Q (degree 1, one real place, |Delta| = 1):

        C(Q, n) = n ln 3 + n ln 2 - ln(V(B_n) n!) + ln(n!)

    evaluated as a certified interval, with ln n! taken as the certified
    ln Gamma(n + 1), so the cost does not grow with n.  The two ln n! terms
    are kept, not cancelled, so the interval is the one the general formula
    gives.  C(Q, n) grows like (1/2) n ln n, and its ratio to that term falls
    toward 1 from above, slowly: it is 1.081 at n = 10^4 and stays within
    5 % only from n ~ 3 x 10^6 on.  ``field`` must be
    :data:`RATIONAL_FIELD`; checks count sections over Z.  Memoized per
    (field, n); the result is an immutable Scalar, so a repeated call
    returns the interval a fresh evaluation would compute.
    """
    if field != RATIONAL_FIELD:
        raise ValueError("C(K, n) is implemented for K = Q only")
    if n < 1:
        raise ValueError("n must be >= 1")
    log_factorial = log_gamma(n + 1)
    total = n * log_scalar(3) + n * log_scalar(2) - (log_ball_volume(n) + log_factorial)
    return total + log_factorial


def _random_int_gram(rank: int, rng) -> tuple[tuple[int, ...], ...]:
    """The integer Gram matrix B^T B that :func:`random_gram` wraps, built
    from its upper triangle: r(r+1)/2 dot products of columns, not r^2."""
    while True:
        b = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
        e = Echelon()
        if not all(e.add(row) for row in b):  # B is singular
            continue
        cols = list(zip(*b))
        gram = []
        for i, ci in enumerate(cols):  # row i: column i of the rows above, then its own dot products
            gram.append(tuple([row[i] for row in gram] + [sum(map(mul, ci, cj)) for cj in cols[i:]]))
        return tuple(gram)


def random_gram(rank: int, rng) -> EuclideanLattice:
    """Random integer Gram matrix B^T B, entries of B uniform in [-3, 3].

    Singular draws are rejected, so the result is always positive definite.
    """
    return EuclideanLattice(_random_int_gram(rank, rng))
