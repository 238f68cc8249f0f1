import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import leibniz_det
from hnbounds import FiberedSeries, ToricSeries
from hnbounds._exact import Echelon
from hnbounds.series import _convex_hull_2d


UNIT_SQUARE = ToricSeries([(0, 0), (1, 0), (0, 1), (1, 1)])
RECT = ToricSeries([(0, 0), (2, 0), (0, 3), (2, 3)])
TRAPEZOID = ToricSeries([(0, 0), (3, 0), (1, 2), (0, 2)])  # a=3, b=2, e=1


def brute_count(vertices, n):
    """Independent point-in-hull count via convex-combination feasibility."""
    from itertools import product

    d = len(vertices[0])
    scaled = [tuple(Fraction(n) * Fraction(x) for x in v) for v in vertices]
    import math

    lo = [min(v[j] for v in scaled) for j in range(d)]
    hi = [max(v[j] for v in scaled) for j in range(d)]
    count = 0
    ranges = [range(math.ceil(lo[j]), math.floor(hi[j]) + 1) for j in range(d)]
    for pt in product(*ranges):
        if _in_hull(scaled, pt):
            count += 1
    return count


def _in_hull(vertices, point):
    """Exact LP feasibility: point is a convex combination of the vertices."""
    d = len(point)
    m = len(vertices)
    # Solve sum l_i v_i = p, sum l_i = 1, l_i >= 0 by exhaustive search over
    # d+1-subsets (Caratheodory): enough for an oracle at desk scale.
    from itertools import combinations

    for subset in combinations(range(m), min(d + 1, m)):
        pts = [vertices[i] for i in subset]
        lam = _solve_affine(pts, point)
        if lam is not None and all(x >= 0 for x in lam):
            return True
    return False


def _solve_affine(pts, target):
    k = len(pts)
    d = len(target)
    rows = [[Fraction(pts[j][i]) for j in range(k)] for i in range(d)]
    rows.append([Fraction(1)] * k)
    rhs = [Fraction(x) for x in target] + [Fraction(1)]
    # Gaussian elimination on the (d+1) x k system
    aug = [row + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][-1] != 0:
            return None
    lam = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        lam[c] = aug[i][-1]
    return lam


# -- the lattice-point oracle ---------------------------------------------------
#
# Column-by-column counting cut by integer facets: the oracle for the
# section counts of the Hirzebruch pushforwards, which the library reads
# off closed forms instead.


def _integerize(normal, rhs):
    """Scale a rational inequality a.x <= c to coprime integer coefficients."""
    values = [*normal, rhs]
    den = math.lcm(*(x.denominator for x in values))
    ints = [int(x * den) for x in values]
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints[:-1]), ints[-1] // g


def facets(series):
    """Integer inequalities a.x <= c cutting out the polygon, one per hull
    edge; the polygon lies left of each counter-clockwise edge, so a is its
    right normal."""
    hull = _convex_hull_2d(list(series.vertices))
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
        normal = (y2 - y1, x1 - x2)
        out.append(_integerize(normal, normal[0] * x1 + normal[1] * y1))
    return out


def toric_rank(series, n):
    """Number of lattice points of the n-th dilate (n >= 0).

    Each integer column x of the bounding box contributes the length of its
    y range, cut by every facet.
    """
    if n < 0:
        raise ValueError("dilation factor must be >= 0")
    cuts = [(a, c * n) for a, c in facets(series)]
    xs = [n * x for x, _ in series.vertices]
    ys = [n * y for _, y in series.vertices]
    total = 0
    for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1):
        lo, hi = math.ceil(min(ys)), math.floor(max(ys))
        for (ax, ay), c in cuts:
            rest = c - ax * x
            if ay > 0:
                hi = min(hi, rest // ay)
            elif ay < 0:
                lo = max(lo, -(rest // -ay))
            elif rest < 0:
                break
        else:
            total += max(0, hi - lo + 1)
    return total


# -- toric counting -----------------------------------------------------------


def test_rank_examples():
    assert toric_rank(UNIT_SQUARE, 1) == 4
    assert toric_rank(RECT, 1) == 12
    assert toric_rank(RECT, 0) == 1
    assert toric_rank(TRAPEZOID, 1) == 9
    with pytest.raises(ValueError):
        toric_rank(RECT, -1)


def test_rank_matches_brute_force():
    for series in (UNIT_SQUARE, RECT, TRAPEZOID):
        for n in range(4):
            assert toric_rank(series, n) == brute_count(series.vertices, n)
    shifted = ToricSeries([(Fraction(1, 2), 0), (2, 0), (1, Fraction(3, 2))])
    for n in range(5):
        assert toric_rank(shifted, n) == brute_count(shifted.vertices, n)


def test_volume_examples():
    assert RECT.volume() == 12
    assert TRAPEZOID.volume() == 8
    assert UNIT_SQUARE.volume() == 2 and type(UNIT_SQUARE.volume()) is Fraction


def test_redundant_points_do_not_change_anything():
    square = [(x, y) for x in (0, 2) for y in (0, 2)]
    plain = ToricSeries(square)
    cluttered = ToricSeries(square + [(1, 1), (1, 0), (2, 1), (0, 1), (1, 2)])  # center, edge midpoints
    assert facets(cluttered) == facets(plain) and len(facets(plain)) == 4
    assert cluttered.volume() == plain.volume() == 8
    for n in range(4):
        assert toric_rank(cluttered, n) == toric_rank(plain, n) == (2 * n + 1) ** 2


def test_rank_growth_approaches_volume():
    # |d! rank(n)/n^d - volume| <= C/n with C = 12 for this rectangle
    vol = RECT.volume()
    for n in range(1, 51):
        approx = Fraction(2 * toric_rank(RECT, n), n * n)
        assert abs(approx - vol) <= Fraction(12, n)


def test_validation():
    with pytest.raises(ValueError):
        ToricSeries([])
    with pytest.raises(ValueError):
        ToricSeries([(0, 0), (1, 0)])  # not full-dimensional
    with pytest.raises(ValueError):
        ToricSeries([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])  # not a polygon


# -- fibered series --------------------------------------------------------------


def test_pushforward_examples():
    assert FiberedSeries(2, 3, 0).pushforward(1).twists == (2, 2, 2, 2)
    assert FiberedSeries(3, 2, 1).pushforward(1).twists == (3, 2, 1)
    assert FiberedSeries(3, 2, 1).pushforward(1).h0() == 9
    for n in range(1, 8):
        assert FiberedSeries(4, 3, 1).pushforward(n).rank == 3 * n + 1


def test_pushforward_matches_trapezoid_count():
    cases = [(a, b, e) for e in range(3) for a in range(1, 7) for b in range(1, 7) if a >= e * b]
    for a, b, e in cases:
        F = FiberedSeries(a, b, e)
        trap = F.trapezoid()
        for n in range(1, 21):
            assert F.pushforward(n).h0() == toric_rank(trap, n), (a, b, e, n)


def test_mu_max_asy():
    assert FiberedSeries(2, 3, 0).mu_max_asy() == 2
    assert FiberedSeries(3, 2, 1).mu_max_asy() == 3
    F = FiberedSeries(5, 2, 2)
    for n in range(1, 21):
        mu_n = F.pushforward(n).hn_type().slope_extremes()[0]
        assert mu_n == n * F.mu_max_asy()


def test_mu_max_superadditivity_is_equality():
    F = FiberedSeries(4, 3, 1)
    mu = lambda n: F.pushforward(n).hn_type().slope_extremes()[0]
    for n in range(1, 6):
        for m in range(1, 6):
            assert mu(n + m) == mu(n) + mu(m)


def filtered_rank(F, t, n):
    """Rank of the slope->=t piece of pushforward(n): its HN filtration at n t."""
    return F.pushforward(n).hn_type().filtration_rank(n * t)


# References that re-derive the filtration of pushforward(n) from its twists
# n a - e j, without the HN type.


def direct_filtered_rank(F, t, n):
    """#{j <= n b : n a - e j >= n t}, counted term by term."""
    return sum(1 for j in range(n * F.b + 1) if n * F.a - F.e * j >= n * t)


def piecewise_rank_integral(F, n):
    """Integral over t >= 0 of direct_filtered_rank(F, t, n), summed over
    the knots (n a - e j) / n of the step function."""
    values = sorted({Fraction(n * F.a - F.e * j, n) for j in range(n * F.b + 1)}, reverse=True)
    total = Fraction(0)
    for i, v in enumerate(values):
        if v <= 0:
            break
        lower = max(values[i + 1], Fraction(0)) if i + 1 < len(values) else Fraction(0)
        total += direct_filtered_rank(F, v, n) * (v - lower)
    return total


def hirzebruch_grid():
    """a, b <= 20, e <= 3 with a >= e b."""
    return [
        FiberedSeries(a, b, e)
        for e in range(4)
        for a in range(1, 21)
        for b in range(1, 21)
        if a >= e * b
    ]


def test_filtered_rank_integral_matches_piecewise_reference():
    for F in hirzebruch_grid():
        for n in (1, 2, 3):
            got = F.filtered_rank_integral(n)
            assert got == piecewise_rank_integral(F, n) and type(got) is Fraction, (F, n)


def test_filtered_rank_examples():
    assert filtered_rank(FiberedSeries(2, 3, 0), 0, 1) == 4
    assert filtered_rank(FiberedSeries(2, 3, 0), 3, 5) == 0
    assert filtered_rank(FiberedSeries(3, 2, 1), 2, 4) == 5


def test_filtered_rank_matches_hn_filtration():
    # filtered_rank reads the HN filtration; the reference counts twists
    F = FiberedSeries(3, 2, 1)
    for n in (1, 2, 5):
        for t in [Fraction(k, 2) for k in range(-2, 9)]:
            assert filtered_rank(F, t, n) == direct_filtered_rank(F, t, n)
    # on the grid: about three of the jumps (n a - e j) / n, just above
    # each, and -1, 0
    for F in hirzebruch_grid():
        for n in (1, 2, 3):
            knots = sorted({Fraction(n * F.a - F.e * j, n) for j in range(n * F.b + 1)})
            picks = knots[:: max(1, len(knots) // 2)]
            above = [k + Fraction(1, 2 * n) for k in picks]
            for t in [Fraction(-1), Fraction(0), *picks, *above]:
                assert filtered_rank(F, t, n) == direct_filtered_rank(F, t, n), (F, t, n)


def test_filtered_volume_is_rank_limit():
    # the filtered volume of O(3f + 2s) on F_1 is min(b, (a - t)/e) on [0, a]
    F = FiberedSeries(3, 2, 1)
    n = 60
    for t in [Fraction(k, 4) for k in range(0, 13)]:
        fv = max(min(Fraction(2), 3 - t), Fraction(0))
        fr = Fraction(filtered_rank(F, t, n), n)
        assert abs(fr - fv) <= Fraction(1, n)


def test_volume_via_fibers_matches_trapezoid():
    # 2 * integral of filtered volumes = normalized polytope volume
    assert FiberedSeries(3, 2, 1).volume_via_fibers() == 8
    assert FiberedSeries(2, 3, 0).volume_via_fibers() == 12
    for e in range(3):
        for a in range(1, 7):
            for b in range(1, 7):
                if a >= e * b:
                    F = FiberedSeries(a, b, e)
                    assert F.volume_via_fibers() == F.trapezoid().volume()


def _volume_via_fibers_reference(a, b, e):
    """2 * the piecewise Fraction integral of min(b, (a - t)/e) over [0, a]."""
    a, b = Fraction(a), Fraction(b)
    if e == 0:
        return 2 * a * b
    e = Fraction(e)
    knee = max(a - e * b, Fraction(0))
    return 2 * (b * knee + (a - knee) * (a - knee) / (2 * e))


def test_volume_via_fibers_matches_fraction_integral():
    # the integer closed form on the whole a, b <= 20, e <= 3 grid, a < e*b included;
    # a Fraction at e = 0 too, which a report prints as a string, not a number
    for e in range(4):
        for a in range(21):
            for b in range(1, 21):
                got = FiberedSeries(a, b, e).volume_via_fibers()
                assert type(got) is Fraction, (a, b, e)
                assert got == _volume_via_fibers_reference(a, b, e)


def test_filtered_rank_integral_is_deg_plus():
    for e in range(3):
        for a in range(0, 7):
            for b in range(1, 7):
                F = FiberedSeries(a, b, e)
                for n in (1, 3):
                    lhs = F.filtered_rank_integral(n)
                    rhs = F.pushforward(n).hn_type().deg_plus()
                    assert lhs * n == rhs, (a, b, e, n)


def test_bigness_criterion():
    # positive volume iff positive asymptotic slope (fiber degree is always >= 1)
    for e in range(3):
        for a in range(0, 5):
            for b in range(1, 5):
                F = FiberedSeries(a, b, e)
                vol_positive = F.volume_via_fibers() > 0
                mu_positive = F.mu_max_asy() > 0
                assert vol_positive == mu_positive


def test_fibered_validation_and_json():
    with pytest.raises(ValueError):
        FiberedSeries(-1, 2, 0)
    with pytest.raises(ValueError):
        FiberedSeries(2, 0, 0)
    with pytest.raises(ValueError):
        FiberedSeries(1, 2, 1).trapezoid()  # a < e*b is degenerate


# -- the exact row reduction ---------------------------------------------------------


def _random_matrix(rng, rows, cols):
    """Small rationals, many zeros; often one row is a combination of two others."""
    entries = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    m = [[Fraction(rng.choice(entries)) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.4:
        i, j, k = rng.sample(range(rows), 3)
        a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2)
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    return m


def _integer_rows(m):
    """Each row times the lcm of its denominators: the same rank, and a
    determinant scaled by a nonzero factor."""
    out = []
    for row in m:
        k = math.lcm(*(x.denominator for x in row))
        out.append([int(x * k) for x in row])
    return out


def test_det_matches_leibniz_expansion():
    # Echelon keeps every row of a square matrix iff it is nonsingular, and
    # its last pivot is then the determinant, signed by the pivot columns'
    # permutation
    rng = random.Random(4101)
    singular = 0
    for n in range(1, 6):
        for _ in range(40):
            m = _integer_rows(_random_matrix(rng, n, n))
            expected = leibniz_det(m)
            e = Echelon()
            assert all(e.add(row) for row in m) == (expected != 0)
            if expected:
                cols = e.cols
                sign = (-1) ** sum(a > b for i, a in enumerate(cols) for b in cols[i + 1 :])
                assert sign * e.rows[-1][cols[-1]] == expected
            singular += expected == 0
    assert 20 <= singular <= 150  # both kinds are exercised


def _largest_nonzero_minor(m):
    rows, cols = len(m), len(m[0])
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                if leibniz_det([[m[i][j] for j in ci] for i in ri]):
                    return k
    return 0


def test_rank_matches_largest_nonzero_minor():
    # the rank is the number of rows Echelon keeps
    rng = random.Random(4102)
    seen = set()
    for rows in range(1, 5):
        for cols in range(1, 5):
            for _ in range(12):
                m = _random_matrix(rng, rows, cols)
                expected = _largest_nonzero_minor(m)
                e = Echelon()
                assert sum(e.add(row) for row in _integer_rows(m)) == expected
                seen.add((expected, min(rows, cols)))
    # full and deficient ranks, including the zero matrix, are all exercised
    assert {(0, 1), (1, 2), (2, 3), (3, 4), (4, 4)} <= seen
