import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import leibniz_det
from hnbounds import (
    EnumerationBudgetError,
    EuclideanLattice,
    RATIONAL_FIELD,
    NumberFieldData,
    gillet_soule_constant,
    log_scalar,
    random_gram,
)
from hnbounds import cli, lattices
from hnbounds.scalars import log_ball_volume, max0, scalar_max


def diagonal(*entries):
    entries = [Fraction(e) for e in entries]
    n = len(entries)
    return EuclideanLattice(
        [[entries[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    )


IDENTITY2 = diagonal(1, 1)


# -- counting ------------------------------------------------------------------


def test_h0_count_examples():
    assert IDENTITY2.h0_count() == 5
    assert IDENTITY2.h0_hat().midpoint() == pytest.approx(math.log(5))
    assert diagonal(4, 4).h0_count() == 1
    assert diagonal(4, 4).h0_hat().midpoint() == pytest.approx(0)
    assert diagonal(Fraction(1, 4)).h0_count() == 5


def brute_count_norm_le(L, bound):
    """#{v in Z^r : v^T G v <= bound}, counted in integers on A = den*G.

    Free of the library's LDL, LLL and enumeration.  The first r - 2
    coordinates sweep the Cauchy-Schwarz box |v_i| <= sqrt(bound (G^-1)_ii).
    The last two, (x, y), are solved exactly for each prefix: a real y
    exists iff the discriminant of the quadratic in y is nonnegative, which
    is a quadratic inequality in x, and each x in its integer range leaves
    an integer range of y.
    """
    g = [[Fraction(x) for x in row] for row in L.gram]
    r = len(g)
    bound = Fraction(bound)
    den = math.lcm(bound.denominator, *(x.denominator for row in g for x in row))
    a = [[int(x * den) for x in row] for row in g]
    b = int(bound * den)
    if r == 1:
        lo, hi = _int_range(a[0][0], 0, -b)
        return hi - lo + 1
    inv = _invert(g)
    box = [math.isqrt(math.floor(inv[i][i] * bound)) for i in range(r - 2)]
    x, y = r - 2, r - 1
    axx, axy, ayy = a[x][x], a[x][y], a[y][y]
    alpha = axx * ayy - axy * axy  # a leading 2x2 minor, positive
    count = 0
    for p in itertools.product(*[range(-k, k + 1) for k in box]):
        q = sum(a[i][j] * p[i] * p[j] for i in range(r - 2) for j in range(r - 2)) - b
        bx = sum(a[i][x] * p[i] for i in range(r - 2))
        by = sum(a[i][y] * p[i] for i in range(r - 2))
        # the form minus b is ayy y^2 + 2 (by + axy x) y + q + 2 bx x + axx x^2;
        # its discriminant in y, over 4, is -(alpha x^2 - 2 beta x - gamma)
        beta = by * axy - ayy * bx
        gamma = by * by - ayy * q
        xlo, xhi = _int_range(alpha, -2 * beta, -gamma)
        for u in range(xlo, xhi + 1):
            ylo, yhi = _int_range(ayy, 2 * (by + axy * u), q + 2 * bx * u + axx * u * u)
            count += yhi - ylo + 1
    return count


def _int_range(a, lin, const):
    """(lo, hi) with lo..hi the integers t where a t^2 + lin t + const <= 0 (a > 0).

    ``hi == lo - 1`` when there are none.
    """
    disc = lin * lin - 4 * a * const
    if disc < 0:
        return 1, 0
    s = math.isqrt(disc)
    lo = (-lin - s) // (2 * a) - 1
    hi = (-lin + s) // (2 * a) + 1
    while lo <= hi and a * lo * lo + lin * lo + const > 0:
        lo += 1
    while hi >= lo and a * hi * hi + lin * hi + const > 0:
        hi -= 1
    return lo, hi


def exact_short_vectors(gso, bound):
    """_short_vectors(gso, bound) with each integer norm over its scale as a Fraction."""
    _, scale = lattices._form(gso)
    return [(Fraction(q, scale), v) for q, v in lattices._short_vectors(gso, bound)]


def integer_gram(g):
    """(den, A) with A = den G the integer Gram matrix, den the lcm of the
    denominators."""
    den = math.lcm(*(x.denominator for row in g for x in row))
    return den, [[int(x * den) for x in row] for row in g]


def integer_norm(a, v):
    """v^T A v for an integer matrix A."""
    return sum(x * sum(y * z for y, z in zip(row, v)) for x, row in zip(v, a) if x)


def reduced_lattice(L):
    """The lattice of L's LLL-reduced basis: Gram T G T^T, T from _lll."""
    _, t = L._lll()
    g = L.gram
    tg = [[sum(x * col for x, col in zip(u, cols)) for cols in zip(*g)] for u in t]
    return EuclideanLattice([[sum(x * y for x, y in zip(row, u)) for u in t] for row in tg])


def _invert(g):
    n = len(g)
    aug = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(g)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def test_h0_count_against_box_sweep(rng):
    for rank in (2, 3):
        for _ in range(25):
            L = random_gram(rank, rng)
            assert L.h0_count() == brute_count_norm_le(L, Fraction(1))


def test_h0_count_monotone_under_scaling(rng):
    for _ in range(50):
        L = random_gram(2, rng)
        scaled = L.scale(Fraction(rng.randint(2, 4)))
        assert scaled.h0_count() <= L.h0_count()


def test_range_count_on_dense_balls():
    # random rank 2-4 Grams divided by k^2, drawn until the unit ball holds
    # 10^2-10^4 points.  The count adds whole level-0 ranges of the reduced
    # basis without visiting a leaf; it must match the leaves _short_vectors
    # walks in the lattice's own basis, and the integer box sweep, which
    # runs on the same Gram and so rests on neither the LDL nor the LLL.
    rng = random.Random(7411)
    for rank, k in ((2, 20), (2, 45), (3, 12), (3, 16), (4, 6), (4, 8)):
        seen = 0
        while seen < 3:
            L = random_gram(rank, rng).scale(Fraction(1, k))
            count = L.h0_count()
            if not 10**2 <= count <= 10**4:
                continue
            seen += 1
            nonzero = sum(1 for _, v in lattices._short_vectors(L._memo["gso"], Fraction(1)) if any(v))
            assert count == brute_count_norm_le(L, Fraction(1)) == 1 + 2 * nonzero


# -- minima ------------------------------------------------------------------------


def test_minima_examples():
    lams = diagonal(1, 4).successive_minima()
    assert lams[0].midpoint() == pytest.approx(0)
    assert lams[1].midpoint() == pytest.approx(-math.log(2))
    assert [l.midpoint() for l in diagonal(1, 1, 1).successive_minima()] == [0, 0, 0]


def brute_minima_squared(L):
    """The minima from a box sweep in integers: v^T A v on A = den G over the
    Cauchy-Schwarz box of the ball v^T G v <= max G_ii, which holds them."""
    r = L.rank
    g = L.gram
    den, a = integer_gram(g)
    inv = _invert(g)
    top = max(a[i][i] for i in range(r))
    box = [math.isqrt(math.ceil(inv[i][i] * top / den)) + 1 for i in range(r)]
    norms = ((integer_norm(a, v), v) for v in itertools.product(*[range(-b, b + 1) for b in box]))
    vecs = sorted((q, v) for q, v in norms if 0 < q <= top)
    return [Fraction(q, den) for q in _greedy_minima(vecs, r)]


def _greedy_minima(vecs, r):
    """Norms of the first r independent vectors of a norm-sorted list."""
    out, basis = [], []
    for q, v in vecs:
        cand = basis + [[Fraction(x) for x in v]]
        if _rank(cand) > len(basis):
            out.append(q)
            basis = cand
            if len(out) == r:
                break
    return out


def _rank(rows):
    rows = [row[:] for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_minima_against_box_sweep(rng):
    for rank in (2, 3):
        for _ in range(15):
            L = random_gram(rank, rng)
            assert L.minima_norms_squared() == brute_minima_squared(L)


def test_minima_against_unreduced_enumeration(rng):
    # the bound max G_ii of the successive_minima docstring, in the original basis
    for rank in (4, 5):
        for _ in range(8):
            L = random_gram(rank, rng)
            bound = max(L.gram[i][i] for i in range(rank))
            vecs = sorted((q, v) for q, v in exact_short_vectors(L._memo["gso"], bound) if any(v))
            assert L.minima_norms_squared() == _greedy_minima(vecs, rank)


def test_minima_sorted_decreasing(rng):
    # lambda_i = -(1/2) ln q_i decreases as the exact squared norms q_i grow
    for _ in range(30):
        L = random_gram(3, rng)
        squares = L.minima_norms_squared()
        assert squares == sorted(squares)


# -- slope invariants -----------------------------------------------------------------


def test_euler_char_examples():
    assert IDENTITY2.euler_char().midpoint() == pytest.approx(math.log(math.pi))
    assert diagonal(1, 4).euler_char().midpoint() == pytest.approx(math.log(math.pi / 2))
    c = Fraction(3, 2)
    L = diagonal(c**2, c**2, c**2)
    expected = math.log(math.pi ** 1.5 / math.gamma(2.5)) - 3 * math.log(1.5)
    assert L.euler_char().midpoint() == pytest.approx(expected)


def test_logs_taken_once_per_lattice(rng):
    # h0_hat, arakelov_degree and euler_char are memoized; each is the very
    # interval of a fresh evaluation of its formula
    for rank in (1, 3, 5):
        L = random_gram(rank, rng).scale(Fraction(1, 2))
        degree = 0 - Fraction(1, 2) * log_scalar(L.determinant())
        fresh = {
            "h0_hat": log_scalar(L.h0_count()),
            "arakelov_degree": degree,
            "euler_char": log_ball_volume(rank) + degree,
        }
        for name, expected in fresh.items():
            value = getattr(L, name)()
            assert value._ivl == expected._ivl
            assert getattr(L, name)() is value


def test_arakelov_degree_examples(rng):
    assert IDENTITY2.arakelov_degree().midpoint() == pytest.approx(0)
    assert diagonal(1, 4).arakelov_degree().midpoint() == pytest.approx(-math.log(2))
    # degree of the scaled lattice drops by rank * ln c
    for _ in range(20):
        L = random_gram(2, rng)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        diff = (L.arakelov_degree() - L.scale(c).arakelov_degree()).midpoint()
        assert diff == pytest.approx(2 * math.log(float(c)), abs=1e-12)


def test_orthogonal_hn_examples():
    h = diagonal(1, 4).orthogonal_hn()
    assert [(r, s.midpoint()) for r, s in h.segments] == [
        (1, pytest.approx(0)),
        (1, pytest.approx(-math.log(2))),
    ]
    h = diagonal(1, 1, 1).orthogonal_hn()
    assert [(r, s.midpoint()) for r, s in h.segments] == [(3, pytest.approx(0))]
    dp = diagonal(Fraction(1, 4), 4).orthogonal_hn().deg_plus()
    assert dp.midpoint() == pytest.approx(math.log(2))
    with pytest.raises(ValueError):
        EuclideanLattice([[2, 1], [1, 2]]).orthogonal_hn()


def test_orthogonal_hn_orders_a_tie_below_the_interval_precision():
    # -(1/2) ln d of 1 and 1 + 2^-200 overlap at 120 bits; the exact entries
    # order them, so the HN type has both segments, the smaller entry first
    L = diagonal(1, 1 + Fraction(1, 2**200))
    h = L.orthogonal_hn()
    slopes = L.orthogonal_slopes()
    assert [r for r, _ in h.segments] == [r for r, _ in slopes] == [1, 1]
    assert [s.bounds() for _, s in h.segments] == [s.bounds() for _, s in slopes]
    assert h.segments[0][1].bounds() == (0, 0)


def test_orthogonal_minima_match_slopes():
    for diag in itertools.product([Fraction(1, 4), Fraction(1), Fraction(4)], repeat=3):
        L = diagonal(*diag)
        slopes = []
        for r, s in L.orthogonal_hn().segments:
            slopes.extend([s] * r)
        lams = L.successive_minima()
        assert len(slopes) == len(lams)
        for s, lam in zip(slopes, lams):
            assert s.bounds() == lam.bounds()


def test_rank2_mu_max_examples():
    assert diagonal(1, 4).rank2_mu_max().midpoint() == pytest.approx(0)
    assert IDENTITY2.rank2_mu_max().midpoint() == pytest.approx(0)
    assert diagonal(Fraction(1, 4), Fraction(1, 4)).rank2_mu_max().midpoint() == pytest.approx(
        math.log(2)
    )
    with pytest.raises(ValueError):
        diagonal(1, 1, 1).rank2_mu_max()


def test_rank2_mu_max_dominates_both_branches(rng):
    for _ in range(30):
        L = random_gram(2, rng)
        mu_lo, mu_hi = L.rank2_mu_max().bounds()
        shortest = L.minima_norms_squared()[0]
        lam1 = 0 - Fraction(1, 2) * log_scalar(shortest)
        for branch in (lam1, L.arakelov_degree() / 2):
            lo, hi = branch.bounds()
            assert mu_lo >= lo and mu_hi >= hi


# -- budget and validation ----------------------------------------------------------


def test_budget_and_validation():
    with pytest.raises(EnumerationBudgetError):
        diagonal(*([1] * 9)).h0_count()
    with pytest.raises(ValueError):
        EuclideanLattice([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(ValueError):
        EuclideanLattice([[0, 0], [0, 1]])  # not positive definite
    with pytest.raises(ValueError):
        EuclideanLattice([[1, 0]])


def test_json_round_trip(rng):
    L = random_gram(3, rng)
    # the CLI reads back the Gram entries a user writes as strings
    rows = [[cli._rational(str(x), "--gram", "Gram matrix") for x in row] for row in L.gram]
    assert EuclideanLattice(rows) == L


def test_interval_slope_measure_consistency():
    # slope measure and polygon agree with deg_plus on interval slopes too
    L = diagonal(Fraction(1, 4), Fraction(1, 4), 1, 4)
    h = L.orthogonal_hn()
    dp = h.deg_plus()
    atoms = h.slope_measure()
    via_measure = h.rank * sum(max0(s) * mass for s, mass in atoms)
    via_polygon = functools.reduce(scalar_max, (y for _, y in h.polygon()))
    for other in (via_measure, via_polygon):
        alo, ahi = dp.bounds()
        blo, bhi = other.bounds()
        assert max(alo, blo) <= min(ahi, bhi)  # certified overlap


def test_interval_slope_data_serializes():
    h = diagonal(Fraction(1, 4), 1, 4).orthogonal_hn()
    back = cli._hn_type([[r, s.to_json()] for r, s in h.segments], "--hn")
    assert back.rank == h.rank
    for (r1, s1), (r2, s2) in zip(back.segments, h.segments):
        assert r1 == r2
        lo2, hi2 = s2.bounds()
        lo1, hi1 = s1.bounds()
        assert lo1 <= lo2 and hi2 <= hi1  # round trip only widens


# -- number field data and the comparison constant ------------------------------------


def test_number_field_validation():
    with pytest.raises(ValueError):
        NumberFieldData(2, 1, 1, 1)  # r1 + 2 r2 != degree
    with pytest.raises(ValueError):
        NumberFieldData(1, 1, 0, 0)
    K = NumberFieldData(2, 0, 1, 4)
    assert K.log_abs_discriminant().midpoint() == pytest.approx(math.log(4))


def test_gillet_soule_small_values():
    c1 = gillet_soule_constant(RATIONAL_FIELD, 1)
    assert abs(c1.midpoint() - math.log(3)) < 1e-12
    c2 = gillet_soule_constant(RATIONAL_FIELD, 2)
    assert abs(c2.midpoint() - (2 * math.log(6) - math.log(math.pi))) < 1e-12


def test_gillet_soule_imaginary_quadratic():
    # degree 2, one complex place: only the r2 term and (dn)! survive vs 2n ln 6
    K = NumberFieldData(2, 0, 1, 3)
    c = gillet_soule_constant(K, 1)
    # n=1, d=2: 2 ln3 + ln2 + (1/2)ln3 - ln(V(B_2) 2!) + ln(2!), V(B_2) = pi
    expected = 2 * math.log(3) + math.log(2) + 0.5 * math.log(3) - math.log(math.pi * 2) + math.log(2)
    assert c.midpoint() == pytest.approx(expected)


def test_gillet_soule_growth_law():
    # C(Q,n) = (1/2) n ln n + O(n): the ratio drifts toward 1 from above,
    # decided on the exact endpoints of certified intervals
    def ratio(n):
        return gillet_soule_constant(RATIONAL_FIELD, n) / (Fraction(n, 2) * log_scalar(n))

    lo, hi = ratio(10**4).bounds()
    assert Fraction(107, 100) < lo and hi < Fraction(109, 100)  # true value ~ 1.0811
    lo2, hi2 = ratio(10**6).bounds()
    assert hi2 < lo
    assert Fraction(1) < lo2 and hi2 < Fraction(106, 100)


def test_gillet_soule_width_tolerance():
    for n in (1, 10, 10**4):
        assert gillet_soule_constant(RATIONAL_FIELD, n).width() < Fraction(1, 10**9)


def test_random_gram_properties(rng):
    for _ in range(20):
        L = random_gram(3, rng)
        assert L.determinant() > 0
        assert all(L.gram[i][j] == L.gram[j][i] for i in range(3) for j in range(3))


# -- the memoized LDL and LLL ----------------------------------------------------------


def _random_symmetric(rng, r):
    """Seeded symmetric matrices: definite, semidefinite and indefinite ones."""
    kind = rng.randrange(3)
    if kind == 2:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(r)] for _ in range(r)]
        return [[m[i][j] if i <= j else m[j][i] for j in range(r)] for i in range(r)]
    # B^T B, with a zero row of B when semidefinite
    b = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
    if kind == 1:
        b[rng.randrange(r)] = [0] * r
    return [[sum(b[k][i] * b[k][j] for k in range(r)) for j in range(r)] for i in range(r)]


def test_definiteness_matches_leading_minors():
    rng = random.Random(4103)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        g = _random_symmetric(rng, rng.randint(1, 5))
        minors = [leibniz_det([row[:k] for row in g[:k]]) for k in range(len(g) + 1)]
        definite = all(m > 0 for m in minors)
        try:
            L = EuclideanLattice(g)
        except ValueError:
            assert not definite
        else:
            assert definite
            assert L.determinant() == leibniz_det(g)
            den, delta, _ = L._memo["gso"]
            assert delta == [den**k * m for k, m in enumerate(minors)]
        verdicts[definite] += 1
    assert min(verdicts.values()) >= 50
    with pytest.raises(ValueError):
        EuclideanLattice([[1, 1], [1, 1]])  # semidefinite, pivots 1 and 0
    with pytest.raises(ValueError):
        EuclideanLattice([[1, 0], [0, -1]])  # indefinite


def _ldl(g):
    """G = U^T D U with U unit upper triangular and D diagonal, in rationals.

    Stops at the first pivot <= 0, so len(d) == len(g) iff G is positive
    definite; u is then fully computed.  The oracle for the integer data.
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


def test_ldl_reconstructs_gram(rng):
    # the integer Gram-Schmidt data: A = den G, leading minors Delta and
    # lambda_ij = Delta_(j+1) mu_ij, for original and LLL-reduced lattices
    lattices = [random_gram(r, rng) for r in range(1, 7) for _ in range(5)]
    lattices.append(diagonal(Fraction(1, 4), 3, Fraction(7, 2)))
    lattices += [random_gram(r, rng).scale(Fraction(1, k)) for r in (3, 4, 5) for k in (2, 3)]
    reduced = [reduced_lattice(L) for L in lattices]
    for L in lattices + reduced:
        den, delta, lam = L._memo["gso"]
        g = L.gram
        r = L.rank
        assert den == math.lcm(*(x.denominator for row in g for x in row))
        a = integer_gram(g)[1]
        assert delta == [den**k * leibniz_det([row[:k] for row in g[:k]]) for k in range(r + 1)]
        # A = sum_l lambda_il lambda_jl / (Delta_l Delta_(l+1)), with lambda_ll = Delta_(l+1)
        full = [lam[i] + [delta[i + 1]] for i in range(r)]
        for i in range(r):
            for j in range(r):
                terms = range(min(i, j) + 1)
                rebuilt = sum(Fraction(full[i][l] * full[j][l], delta[l] * delta[l + 1]) for l in terms)
                assert rebuilt == a[i][j]
    for L, R in zip(lattices, reduced):
        # the data LLL hands over is what a fresh elimination of T G T^T gives
        assert L._lll()[0] == R._memo["gso"]


def _rational_lll(g):
    """Transform rows of LLL (delta = 3/4) run on the rational LDL data
    d, mu with Cohen's rational swap (Alg. 2.6.3): the reference for the
    decisions of the integral _lll."""
    r = len(g)
    d, u = _ldl(g)
    mu = [[u[j][i] for j in range(i)] for i in range(r)]
    basis = [[int(i == j) for j in range(r)] for i in range(r)]
    k = 1
    steps = 0
    while k < r and steps < 10_000:
        steps += 1
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
                mu[k][j] -= q
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
        m = mu[k][k - 1]
        if d[k] >= (Fraction(3, 4) - m**2) * d[k - 1]:
            k += 1
            continue
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
    return basis


def test_lll_output_is_size_reduced_and_lovasz():
    rng = random.Random(4104)
    half, delta = Fraction(1, 2), Fraction(3, 4)
    lattices = [random_gram(r, rng) for r in range(2, 9) for _ in range(40 if r <= 6 else 10)]
    # rational Grams, so the swap divides non-integer pivots
    lattices += [random_gram(r, rng).scale(Fraction(1, k)) for r in range(2, 7) for k in (2, 3, 5)]
    lattices += _tie_grams()  # round(lambda/Delta) at exact ties
    for L in lattices:
        r = L.rank
        _, t = L._lll()
        assert t == _rational_lll(L.gram)  # the same decisions as in rationals
        reduced = reduced_lattice(L)
        g = reduced.gram
        assert reduced.determinant() == L.determinant()  # T is unimodular
        assert reduced.h0_count() == L.h0_count()
        # G = U^T D U determines the Gram-Schmidt data: |b*_i|^2 = d_i, mu_ij = u_ji
        d, u = _ldl(g)
        assert all(abs(u[j][i]) <= half for i in range(r) for j in range(i))
        assert all(d[k] >= (delta - u[k - 1][k] ** 2) * d[k - 1] for k in range(1, r))


def test_round_half_even_matches_fraction_round():
    # every residue of n mod 2d, so the exact ties 2|n| = (2m + 1) d are all met
    for d in range(1, 13):
        for n in range(-6 * d, 6 * d + 1):
            assert lattices._round_half_even(n, d) == round(Fraction(n, d))


def _tie_grams():
    """Rank-2 and rank-3 Grams whose first size reduction divides a tie
    lambda/Delta = m + 1/2 (and 2|lambda| = Delta itself at m = 0)."""
    out = []
    for n in range(-9, 10):
        out.append(EuclideanLattice([[2, n], [n, n * n // 2 + 1]]))
        out.append(EuclideanLattice([[2, n, 1], [n, n * n + 3, n], [1, n, n * n + 5]]))
    return out


def _lll_inputs(kind):
    if kind == "seeded":
        rng = random.Random(4104)
        return [random_gram(r, rng) for r in range(2, 9) for _ in range(20)]
    if kind == "rational":
        rng = random.Random(4105)
        return [random_gram(r, rng).scale(Fraction(1, k)) for r in range(2, 7) for k in (2, 3, 5)]
    if kind == "ties":
        return _tie_grams()
    # the benchmark's lattice pools: the suite and dense mixes of the lattice
    # workload, and the rank-4 suite the pool workload runs at seed 1
    out = [random_gram(r, random.Random(f"lattice-{r}-{k}")) for r in (3, 5, 6) for k in range(160)]
    out += [
        random_gram(r, random.Random(f"dense-{r}-{s}-{k}")).scale(Fraction(1, s))
        for r, s in ((3, 8), (4, 5), (5, 3))
        for k in range(40)
    ]
    rng = random.Random(random.Random("pool-1").randrange(2**31))
    out += [EuclideanLattice(lattices._random_int_gram(4, rng)) for _ in range(150)]
    return out


LLL_DIGESTS = {
    "bench": "a60b208ebbfdcf69f1fa4666e2fc5408b2d3a9bec2f5159670f5ac1280fd0a29",
    "rational": "f0b11b5713851bacf7957acb3680f02b7d68f33ef1c0ac5484229fb60b17c25e",
    "seeded": "e67bc3684ea76645aa5a5df1eb6e6cef3fb93a00435b7cb191e4799f66985896",
    "ties": "a9f28dd8aca6775439da288d553c744490f3b2ebe0ca570d2e918c017ba3e053",
}


@pytest.mark.parametrize("kind", sorted(LLL_DIGESTS))
def test_lll_output_pinned(kind):
    # sha256 of every transform and reduced Gram, pinned: the integer
    # rounding and swaps take the very decisions they took when recorded
    h = hashlib.sha256()
    for L in _lll_inputs(kind):
        _, t = L._lll()
        h.update(repr((t, [[str(x) for x in row] for row in reduced_lattice(L).gram])).encode())
    assert h.hexdigest() == LLL_DIGESTS[kind]


# -- the integer enumeration against a rational one -------------------------------------


def _rational_short_vectors(g, bound):
    """Fincke-Pohst over the rational LDL, testing every x against the bound;
    yields the representative whose last nonzero coordinate is negative."""
    r = len(g)
    d, u = _ldl(g)
    coords = [0] * r

    def descend(level, remaining):
        c = sum(u[level][j] * coords[j] for j in range(level + 1, r))
        root = math.isqrt(math.floor(remaining / d[level]))
        for x in range(math.floor(-c) - root - 1, math.ceil(-c) + root + 2):
            step = d[level] * (x + c) ** 2
            if step > remaining:
                continue
            coords[level] = x
            if level:
                yield from descend(level - 1, remaining - step)
            else:
                yield bound - remaining + step, tuple(coords)
        coords[level] = 0

    for q, v in descend(r - 1, bound):
        nonzero = [x for x in v if x]
        if not nonzero or nonzero[-1] < 0:
            yield q, v


@st.composite
def grams(draw):
    """Positive definite Grams B^T B of rank 1-6, divided by k^2 (k = 1 keeps
    them integral)."""
    r = draw(st.integers(1, 6))
    entry = st.integers(-2, 2)
    b = draw(
        st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r).filter(
            lambda m: leibniz_det(m) != 0
        )
    )
    k = draw(st.sampled_from([1, 2, 3]))
    g = [[Fraction(sum(b[t][i] * b[t][j] for t in range(r)), k * k) for j in range(r)] for i in range(r)]
    return EuclideanLattice(g)


PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTIES
@given(grams())
def test_short_vectors_match_rational_enumeration(L):
    # the original basis, and the reduced one through the data _lll hands over
    reduced = reduced_lattice(L)
    top = max(reduced.gram[i][i] for i in range(L.rank))  # all minima lie in this ball
    for gso, M in ((L._memo["gso"], L), (L._lll()[0], reduced)):
        den, a = integer_gram(M.gram)
        for bound in (Fraction(1), Fraction(5, 2), top):
            got = sorted(exact_short_vectors(gso, bound))
            assert got == sorted(_rational_short_vectors(M.gram, bound))
            assert all(Fraction(integer_norm(a, v), den) == q for q, v in got)


@PROPERTIES
@given(grams())
def test_lll_keeps_determinant_and_count(L):
    _, t = L._lll()
    reduced = reduced_lattice(L)
    assert reduced.determinant() == L.determinant()
    assert reduced.h0_count() == L.h0_count()
    assert abs(leibniz_det(t)) == 1


@PROPERTIES
@given(grams())
def test_count_same_in_original_and_reduced_basis(L):
    for gso in (L._memo["gso"], L._lll()[0]):
        vectors = list(lattices._short_vectors(gso, Fraction(1)))
        assert 2 * len(vectors) - 1 == L.h0_count()


# -- the node budget ----------------------------------------------------------------------


def test_node_budget_counts_leaves():
    # one level, about 6.3e10 vectors of norm <= 1: the level-0 range alone
    # exceeds MAX_NODES, so the count is refused instead of run
    L = EuclideanLattice([[Fraction(1, 10**21)]])
    with pytest.raises(EnumerationBudgetError):
        L.h0_count()
    # a range inside the budget is still enumerated
    assert EuclideanLattice([[Fraction(1, 10**10)]]).h0_count() == 2 * 10**5 + 1


def test_node_budget_raises(monkeypatch, capsys):
    gram = [[Fraction(1, 9) if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    L = EuclideanLattice(gram)
    assert L.h0_count() == brute_count_norm_le(L, Fraction(1)) == 123
    monkeypatch.setattr(lattices, "MAX_NODES", 5)
    with pytest.raises(EnumerationBudgetError):
        EuclideanLattice(gram).h0_count()
    # the CLI reports it as a one-line error with exit status 2
    assert cli.main(["lattice", "--gram", json.dumps([[str(x) for x in row] for row in gram])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: enumeration node budget exceeded\n"
