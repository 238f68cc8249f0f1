import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from hnbounds import (
    EuclideanLattice,
    FiberedSeries,
    IntPolynomial,
    Scalar,
    check_blichfeldt,
    check_filtered,
    check_gillet_soule,
    check_minkowski,
    check_toric_family,
    circle_sup_norm,
    geometric_hs_bound,
    h0_minima_bound,
    p1z_h0,
    random_gram,
)
from hnbounds import bounds
from hnbounds.bounds import (
    CheckReport,
    PrecisionBudgetError,
    _bernstein,
    _halves,
    _rank_constants,
    _square_on_unit_interval,
    reports_to_csv,
    reports_to_json,
)
from hnbounds.scalars import PI, Exact, cos_2pi, sqrt_interval, verdict
from hnbounds.towers import Tower, TowerData, epsilon


def diagonal(*entries):
    entries = [Fraction(e) for e in entries]
    n = len(entries)
    return EuclideanLattice(
        [[entries[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    )


# -- report plumbing -----------------------------------------------------------


def test_report_pass_iff_margin_certified():
    good = CheckReport.compare("x", 1, 2)
    assert good.passed and type(good.margin) is Exact and good.margin == 1
    bad = CheckReport.compare("x", 2, Fraction(1))
    assert not bad.passed
    from hnbounds import log_scalar

    straddle = CheckReport.compare("x", log_scalar(2), log_scalar(2))
    assert not straddle.passed  # equality of intervals cannot be certified


def test_report_wraps_exact_values():
    # an int or a Fraction field becomes the Exact that Scalar.exact builds: a
    # Fraction that answers a reader's reads, and whose arithmetic is plain
    rep = CheckReport.compare("x", 3, Fraction(7, 2))
    fields = (rep.lhs, rep.rhs, rep.margin)
    assert fields == tuple(map(Scalar.exact, (3, Fraction(7, 2), Fraction(1, 2))))
    assert all(type(s) is Exact and s.is_rational for s in fields)
    assert [s.bounds() for s in fields] == [(3, 3), (Fraction(7, 2),) * 2, (Fraction(1, 2),) * 2]
    assert [s.to_json() for s in fields] == ["3", "7/2", "1/2"]
    assert rep.margin.midpoint() == 0.5 and verdict(rep.margin) is True
    assert type(rep.rhs - rep.lhs) is Fraction and type(-rep.margin) is Fraction
    wrapped = CheckReport.compare("x", Scalar.exact(3), Scalar.exact(Fraction(7, 2)))
    assert rep.to_json() == wrapped.to_json()
    assert CheckReport("y", *fields).lhs is rep.lhs
    # a Scalar field is kept as it is, and an interval rhs coerces the exact lhs
    from hnbounds import log_scalar

    rhs = log_scalar(2)
    mixed = CheckReport.compare("x", 0, rhs)
    assert mixed.rhs is rhs and mixed.passed and not mixed.margin.is_rational
    assert CheckReport("x", 1, 1, 0).passed
    # passed is a True verdict: a disproved (False) and an undecided (None) margin fail
    assert verdict(rhs - rhs) is None and not CheckReport("x", 0, 0, rhs - rhs).passed
    assert not CheckReport("x", 2, 1, -1).passed
    for bad in (0.5, "1/2", None):
        with pytest.raises(TypeError):
            CheckReport("x", bad, 1, 0)
        with pytest.raises(TypeError):
            CheckReport("x", 1, 1, bad)


def test_report_serialization():
    reps = [CheckReport.compare("a", 1, Fraction(3))]
    blob = reports_to_json(reps)
    assert blob[0]["pass"] is True and blob[0]["margin"] == "2"
    csv_text = reports_to_csv(reps)
    assert csv_text.splitlines()[0] == "name,lhs,rhs,margin,pass"
    assert "a,1,3,2,True" in csv_text


# -- geometric ---------------------------------------------------------------------


def test_geometric_hs_bound_examples():
    assert geometric_hs_bound(Fraction(12), 2, "6") == 12
    assert geometric_hs_bound(8, 2, 6) == 10
    assert geometric_hs_bound(Fraction(0), 1, 1) == 1
    assert type(geometric_hs_bound(Fraction(3), 2, 1)) is Fraction
    with pytest.raises(ValueError):
        geometric_hs_bound(-1, 2, 0)
    with pytest.raises(ValueError):
        geometric_hs_bound(1, 2, Fraction(-1, 3))
    # the bound is exact: an interval or a float is refused
    with pytest.raises(TypeError):
        geometric_hs_bound(Scalar.from_fraction_bounds(Fraction(1), Fraction(2)), 2, 0)
    with pytest.raises(TypeError):
        geometric_hs_bound(1, 2, 0.5)


def test_check_toric_family_examples():
    rep = check_toric_family(FiberedSeries(2, 3, 0))
    assert all(type(v) is Exact for v in (rep.lhs, rep.rhs, rep.margin))
    assert (rep.lhs, rep.rhs) == (12, 12)
    assert rep.margin == 0 and rep.passed
    rep = check_toric_family(FiberedSeries(3, 2, 1))
    assert (rep.lhs, rep.rhs) == (9, 10)
    assert rep.margin == 1 and str(rep.margin) == "1" and float(rep.margin) == 1.0


def test_check_toric_family_margin_law():
    for e in range(3):
        for a in range(1, 7):
            for b in range(1, 7):
                if a >= e * b:
                    F = FiberedSeries(a, b, e)
                    rep = check_toric_family(F)
                    assert rep.passed
                    assert type(rep.margin) is Exact and rep.margin == Fraction(e * b, 2)
                    # the closed-form volume is the trapezoid's hull area
                    assert rep.context["volume"] == F.trapezoid().volume()


def test_check_filtered_examples():
    rep = check_filtered(FiberedSeries(2, 3, 0))
    assert type(rep.lhs) is Exact and rep.lhs == 8 and rep.passed
    assert rep.context["lhs_equals_deg_plus"] is True
    rep = check_filtered(FiberedSeries(3, 2, 1))
    assert rep.lhs == 6 and rep.rhs == 7


def test_positive_characteristic_bound_on_grid():
    # same assembly with the char-p error term (ell(g) = g + 1): the bound
    # only loosens, so it holds across the family as well
    from hnbounds import epsilon_tilde
    from hnbounds.towers import DEFAULT_ELL

    for e in range(3):
        for a in range(1, 7):
            for b in range(1, 7):
                if a >= e * b:
                    F = FiberedSeries(a, b, e)
                    tower = Tower((0, 0))
                    data = TowerData(
                        (a, b),
                        (F.volume_via_fibers(), b),
                    )
                    eps_p = epsilon_tilde(tower, data, DEFAULT_ELL)
                    rhs = geometric_hs_bound(F.trapezoid().volume(), 2, eps_p)
                    assert eps_p >= epsilon(tower, data)
                    assert F.pushforward(1).h0() <= rhs


def test_check_filtered_grid():
    for e in range(3):
        for a in range(1, 7):
            for b in range(1, 7):
                if a >= e * b:
                    rep = check_filtered(FiberedSeries(a, b, e))
                    assert rep.passed and rep.context["lhs_equals_deg_plus"]


def test_family_requires_effective_range():
    with pytest.raises(ValueError):
        check_toric_family(FiberedSeries(1, 2, 1))
    with pytest.raises(ValueError):
        check_filtered(FiberedSeries(1, 2, 1))


# -- lattice chains ---------------------------------------------------------------


def test_h0_minima_bound_examples():
    rep = h0_minima_bound(diagonal(1, 1))
    assert rep.lhs.midpoint() == pytest.approx(math.log(5))
    assert rep.rhs.midpoint() == pytest.approx(math.log(16))
    assert rep.passed
    rep = h0_minima_bound(diagonal(4, 4))
    assert rep.lhs.midpoint() == pytest.approx(0)
    assert rep.rhs.midpoint() == pytest.approx(math.log(16))


def test_lattice_chain_random(rng):
    for rank in (2, 3):
        for _ in range(25):
            L = random_gram(rank, rng)
            for check in (check_minkowski, check_blichfeldt, h0_minima_bound):
                rep = check(L)
                assert rep.passed, (check.__name__, L.gram)


def test_minkowski_margin_width(rng):
    for _ in range(10):
        L = random_gram(3, rng)
        rep = check_minkowski(L)
        assert rep.margin.width() < Fraction(1, 10**9)


def test_log_constants_are_fresh_logs():
    # ln 2, ln r! and ln(2 r!) of the lattice checks and p1z (ranks up to 65)
    # come from log_scalar's memo, and the rank constants are built once per
    # rank; each is the interval a fresh evaluation computes, endpoint for
    # endpoint, on the first call and from the memo
    from mpmath.libmp import mpi_log

    from hnbounds import log_scalar
    from hnbounds.scalars import PREC, _fraction_to_raw, _interval

    def fresh_log(n):
        return _interval(mpi_log(_fraction_to_raw(Fraction(n)), PREC))

    for r in range(1, 66):
        for n in (2, math.factorial(r), 2 * math.factorial(r)):
            first = log_scalar(n)
            assert first._ivl == fresh_log(n)._ivl
            assert log_scalar(n) is first
        r_ln2 = r * fresh_log(2)
        expected = (r_ln2, r_ln2 - fresh_log(math.factorial(r)), fresh_log(2 * math.factorial(r)))
        constants = _rank_constants(r)
        assert [c._ivl for c in constants] == [c._ivl for c in expected]
        assert _rank_constants(r) is constants


def test_gillet_soule_comparison_sweep():
    import itertools

    for rank in range(1, 5):
        for diag in itertools.product([Fraction(1, 4), 1, 4], repeat=rank):
            rep = check_gillet_soule(diagonal(*diag))
            assert rep.passed, diag


def test_gillet_soule_exact_tie():
    rep = check_gillet_soule(diagonal(1))
    assert rep.passed
    assert type(rep.margin) is Exact and rep.margin == 0


# Rank-1 Grams.  Minkowski's double inequality is an identity there, so both
# one-sided margins are exactly 0, and Blichfeldt's bound is attained at the
# Grams 1, 1/4 and 1/9 (and missed by less than 2^-200 at 1 - 2^-200).  No
# interval certifies a zero margin, so these true statements fail today; the
# strict marks make the fix an error until they go.
RANK_ONE_GRAMS = {
    "1": Fraction(1),
    "2": Fraction(2),
    "1/4": Fraction(1, 4),
    "1/5": Fraction(1, 5),
    "1/9": Fraction(1, 9),
    "10^41": Fraction(10**41),
    "1-2^-200": 1 - Fraction(1, 2**200),
}
BLICHFELDT_TIES = {"1", "1/4", "1/9", "1-2^-200"}
_uncertified_zero_margin = pytest.mark.xfail(
    strict=True, reason="no interval certifies a margin of 0, or one within 2^-200 of 0"
)


@_uncertified_zero_margin
@pytest.mark.parametrize("gram", RANK_ONE_GRAMS)
def test_minkowski_rank_one(gram):
    assert check_minkowski(diagonal(RANK_ONE_GRAMS[gram])).passed


@pytest.mark.parametrize(
    "gram",
    [pytest.param(g, marks=_uncertified_zero_margin) if g in BLICHFELDT_TIES else g for g in RANK_ONE_GRAMS],
)
def test_blichfeldt_rank_one(gram):
    assert check_blichfeldt(diagonal(RANK_ONE_GRAMS[gram])).passed


@pytest.mark.parametrize("gram", RANK_ONE_GRAMS)
def test_minima_bound_and_gillet_soule_rank_one(gram):
    L = diagonal(RANK_ONE_GRAMS[gram])
    assert h0_minima_bound(L).passed
    assert check_gillet_soule(L).passed


# -- circle norms ----------------------------------------------------------------------


def test_circle_sup_norm_examples():
    one = circle_sup_norm(IntPolynomial([1]), Fraction(1, 1000))
    assert one.bounds() == (1, 1)
    cube = circle_sup_norm(IntPolynomial([0, 0, 0, 1]), Fraction(1, 1000))
    assert cube.bounds() == (1, 1)
    two = circle_sup_norm(IntPolynomial([1, 1]), Fraction(1, 100))
    lo, hi = two.bounds()
    assert lo <= 2 <= hi and hi - lo <= Fraction(1, 100)
    zero = circle_sup_norm(IntPolynomial([0]), Fraction(1, 10))
    assert zero.bounds() == (0, 0)


def test_circle_sup_norm_known_maxima():
    # 1 + x + x^2 peaks at z = 1 with value 3
    iv = circle_sup_norm(IntPolynomial([1, 1, 1]), Fraction(1, 50))
    lo, hi = iv.bounds()
    assert lo <= 3 <= hi and hi - lo <= Fraction(1, 50)
    # x^2 - x: |z||z - 1| peaks at z = -1 with value 2
    iv = circle_sup_norm(IntPolynomial([0, -1, 1]), Fraction(1, 50))
    lo, hi = iv.bounds()
    assert lo <= 2 <= hi


def test_circle_sup_norm_contains_sampled_maximum():
    # dense float sampling gives a lower estimate of the sup; the certified
    # interval must sit consistently around it
    import cmath

    for coeffs in [(1, 2, -1), (3, 0, 0, -2), (1, -1, 1, -1, 1), (0, 5, 1, 1)]:
        p = IntPolynomial(coeffs)
        iv = circle_sup_norm(p, Fraction(1, 200))
        lo, hi = (float(b) for b in iv.bounds())
        sampled = max(
            abs(sum(c * cmath.exp(1j * 2 * cmath.pi * k / 4096) ** i for i, c in enumerate(coeffs)))
            for k in range(4096)
        )
        assert sampled <= hi + 1e-9
        assert lo <= sampled + float(Fraction(1, 200)) + 1e-9


def test_circle_sup_norm_validation():
    with pytest.raises(ValueError):
        circle_sup_norm(IntPolynomial([1]), Fraction(0))
    with pytest.raises(ValueError):
        circle_sup_norm(IntPolynomial([1] * 66), Fraction(1, 10))


def test_int_polynomial_normalization():
    p = IntPolynomial([1, 0, 0])
    assert p.coefficients == (1,) and p.degree == 0
    assert IntPolynomial([0]).degree == -1
    assert IntPolynomial([2, 0, 5]).autocorrelation() == [29, 0, 10]


def test_non_integer_input_is_refused():
    # int() would truncate these: 0.5 + 1.9x has sup norm 2.4 on the circle,
    # yet its truncation 0 + 1x would certify the exact norm 1
    from hnbounds import SplitBundle, Tower

    with pytest.raises(TypeError):
        circle_sup_norm(IntPolynomial([0.5, 1.9]), Fraction(1, 8))
    with pytest.raises(TypeError):
        Tower([1.7, "2"])
    with pytest.raises(TypeError):
        SplitBundle([2.5, "3"])
    with pytest.raises(TypeError):
        FiberedSeries(3, 2.5, 1)


# -- a reference circle norm: the certified grid -----------------------------------------

_FIXED_ONE = 1 << 128  # fixed-point scale, above the 120-bit interval precision


@functools.lru_cache(maxsize=None)
def _cos_table(n_grid):
    """Integer brackets (floor(lo 2^128), ceil(hi 2^128)) of 2^128 cos(2 pi k / N)
    for 0 <= k <= N/2, from the certified ``cos_2pi``."""
    table = []
    for k in range(n_grid // 2 + 1):
        lo, hi = cos_2pi(Fraction(k, n_grid)).bounds()
        table.append((math.floor(lo * _FIXED_ONE), math.ceil(hi * _FIXED_ONE)))
    return tuple(table)


def _grid_squares(corr, n_grid):
    """Integers lo <= 2^128 max_j |p(e^{2 pi i j/N})|^2 <= hi over every j <= N/2.

    |p|^2 = c_0 + sum_m 2 c_m cos(2 pi j m / N), each term taking the end of
    its cosine bracket that rounds outward, so nothing is rounded.
    """
    table = _cos_table(n_grid)
    sq_lo = sq_hi = 0
    for j in range(n_grid // 2 + 1):
        acc_lo = acc_hi = corr[0] * _FIXED_ONE
        for m in range(1, len(corr)):
            k = j * m % n_grid
            t_lo, t_hi = table[min(k, n_grid - k)]
            c = 2 * corr[m]
            acc_lo += c * (t_lo if c > 0 else t_hi)
            acc_hi += c * (t_hi if c > 0 else t_lo)
        sq_lo, sq_hi = max(sq_lo, acc_lo), max(sq_hi, acc_hi)
    return sq_lo, sq_hi


def _grid_bounds(squares, deg, n_grid):
    """(lower, upper) norm bounds: the grid maximum, and by the Bernstein
    inequality ||p'|| <= deg ||p||, norm <= grid maximum / (1 - pi deg / N)."""
    sq_lo, sq_hi = squares
    grid_max = sqrt_interval(
        Scalar.from_fraction_bounds(Fraction(sq_lo, _FIXED_ONE), Fraction(sq_hi, _FIXED_ONE))
    )
    upper = grid_max / (1 - PI * Fraction(deg, n_grid))
    return grid_max.bounds()[0], upper.bounds()[1]


def grid_norm(p, precision, max_grid=1 << 12):
    """The grid's norm interval, clipped to the coefficient sandwich: N doubles
    from the first power of two >= 64 above 4 deg until the width is met or N
    reaches ``max_grid``, and every grid is evaluated in full."""
    corr = p.autocorrelation()
    n_grid = 64
    while n_grid <= 4 * p.degree:
        n_grid *= 2
    while True:
        low, high = _grid_bounds(_grid_squares(corr, n_grid), p.degree, n_grid)
        low, high = max(low, p.max_abs()), min(high, p.sum_abs())
        if high - low <= precision or n_grid >= max_grid:
            return low, high
        n_grid *= 2


def _polyval(coeffs, z):
    """p(z) for z = (re, im) in exact Fractions, by Horner's rule."""
    re, im = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        re, im = re * z[0] - im * z[1] + c, re * z[1] + im * z[0]
    return re, im


def _power_value(r, s):
    return sum(c * s**j for j, c in enumerate(r))


def _bernstein_value(b, s):
    n = len(b) - 1
    return sum(c * math.comb(n, k) * s**k * (1 - s) ** (n - k) for k, c in enumerate(b))


def bench_circle_pool():
    """The 63 inputs of the benchmark's ``circle`` workload: three seeded
    polynomials per degree 2..8 and width 1/2, 1/4, 1/8."""
    out = []
    for deg in range(2, 9):
        for i, prec in enumerate((Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))):
            for k in range(3):
                rng = random.Random(f"circle-{deg}-{i}-{k}")
                out.append((IntPolynomial([rng.randint(-2, 2) for _ in range(deg + 1)]), prec))
    return out


def test_fixed_point_grid_against_mpmath():
    # independent oracle for the reference grid: 50-digit mpmath cosines and |p|
    # on the full N-point grid
    import mpmath

    polys = [
        (1, 2, -1),
        (2, 1, 2, -1),
        (-2, 0, 1, 2),
        (1, -1, 1, -1, 1),
        (0, 2, -2, 1, 0, -1),
        (-1, -1, -1, 0, 0, -1, 2, -1, -1),
        (2, 1, 0, -2, 1, 1, -1, 2, -2),
    ]
    unit = mpmath.mpf("1e-3")  # 50 digits resolve 2^128 |p|^2 far below one unit
    with mpmath.workdps(50):
        for n_grid in (64, 256):
            table = _cos_table(n_grid)
            assert len(table) == n_grid // 2 + 1
            for k, (lo, hi) in enumerate(table):
                exact = _FIXED_ONE * mpmath.cos(2 * mpmath.pi * k / n_grid)
                assert lo <= exact + unit and exact - unit <= hi
                assert hi - lo <= 2**12  # 2^-116 after scaling back
            for coeffs in polys:
                p = IntPolynomial(coeffs)
                top = max(
                    abs(mpmath.polyval(list(reversed(coeffs)), mpmath.expjpi(mpmath.mpf(2 * j) / n_grid)))
                    for j in range(n_grid)
                )
                sq_lo, sq_hi = _grid_squares(p.autocorrelation(), n_grid)
                square = _FIXED_ONE * top**2
                assert sq_lo <= square + unit and square - unit <= sq_hi
                low, high = _grid_bounds((sq_lo, sq_hi), p.degree, n_grid)
                assert mpmath.mpf(low.numerator) / low.denominator <= top + mpmath.mpf("1e-30")
                assert top <= mpmath.mpf(high.numerator) / high.denominator


def test_circle_sup_norm_overlaps_grid_reference():
    # the benchmark's pool, then seeded polynomials up to degree 16: every
    # interval meets its width and overlaps the reference grid's
    rng = random.Random(1411)
    seeded = [
        (IntPolynomial([rng.randint(-3, 3) for _ in range(rng.randint(2, 16) + 1)]), Fraction(1, 8))
        for _ in range(60)
    ]
    for p, precision in bench_circle_pool() + seeded:
        lo, hi = circle_sup_norm(p, precision).bounds()
        assert hi - lo <= precision
        ref_lo, ref_hi = grid_norm(p, precision)
        assert lo <= ref_hi and ref_lo <= hi, (p.coefficients, precision)


def test_square_on_unit_interval_exact():
    # R(s) = |p(e^{it})|^2 with cos t = 2s - 1, checked at points where z is
    # rational: z = 1, -1, i and the Pythagorean point (3 + 4i)/5 (s = 4/5)
    rng = random.Random(77)
    for _ in range(40):
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 12) + 1)]
        if not any(coeffs[1:]):
            continue
        p = IntPolynomial(coeffs)
        r = _square_on_unit_interval(p.autocorrelation())
        assert all(isinstance(c, int) for c in r) and len(r) == p.degree + 1
        assert _power_value(r, 1) == sum(coeffs) ** 2
        assert _power_value(r, 0) == sum(c * (-1) ** k for k, c in enumerate(coeffs)) ** 2
        for s, z in [
            (Fraction(1, 2), (Fraction(0), Fraction(1))),
            (Fraction(4, 5), (Fraction(3, 5), Fraction(4, 5))),
        ]:
            re, im = _polyval(coeffs, z)
            assert _power_value(r, s) == re**2 + im**2


def test_bernstein_form_and_halves():
    # the Bernstein form equals the power form at rational s, and the halves
    # reparametrize [0, 1/2] and [1/2, 1]
    rng = random.Random(5)
    points = [Fraction(k, 7) for k in range(8)] + [Fraction(3, 11)]
    for _ in range(20):
        r = [rng.randint(-50, 50) for _ in range(rng.randint(0, 10) + 1)]
        b = _bernstein(r)
        left, right = _halves(b)
        assert len(left) == len(right) == len(b)
        for s in points:
            assert _bernstein_value(b, s) == _power_value(r, s)
            assert _bernstein_value(left, s) == _power_value(r, s / 2)
            assert _bernstein_value(right, s) == _power_value(r, (1 + s) / 2)


def test_circle_sup_norm_against_refined_mpmath_maxima():
    # 50-digit maxima: the best of 1024 samples refined by Newton on dR/dt,
    # against the endpoints t = 0, pi; each lies in the 2^-60 interval
    import mpmath

    rng = random.Random(60)
    with mpmath.workdps(50):
        for _ in range(8):
            p = IntPolynomial([rng.randint(-4, 4) for _ in range(rng.randint(2, 10) + 1)])
            corr = p.autocorrelation()

            def square(t):
                return corr[0] + 2 * sum(c * mpmath.cos(m * t) for m, c in enumerate(corr) if m)

            def slope(t):
                return -2 * sum(m * c * mpmath.sin(m * t) for m, c in enumerate(corr) if m)

            t0 = max((mpmath.pi * k / 1024 for k in range(1025)), key=square)
            top = max(square(0), square(mpmath.pi), square(mpmath.findroot(slope, t0)))
            lo, hi = circle_sup_norm(p, Fraction(1, 2**60)).bounds()
            assert hi - lo <= Fraction(1, 2**60)
            norm = mpmath.sqrt(top)
            tol = mpmath.mpf("1e-40")
            assert mpmath.mpf(lo.numerator) / lo.denominator <= norm + tol
            assert norm <= mpmath.mpf(hi.numerator) / hi.denominator + tol


def test_circle_sup_norm_degree_64_at_width_one_eighth():
    # the whole degree budget certifies at width 1/8; the interval holds a
    # float-sampled lower estimate
    import cmath

    for i in range(4):
        rng = random.Random(f"degree-64-{i}")
        coeffs = [rng.randint(-2, 2) for _ in range(65)]
        lo, hi = circle_sup_norm(IntPolynomial(coeffs), Fraction(1, 8)).bounds()
        assert hi - lo <= Fraction(1, 8)
        sampled = max(
            abs(sum(c * cmath.exp(1j * cmath.pi * k / 2048 * m) for m, c in enumerate(coeffs)))
            for k in range(2049)
        )
        assert sampled <= hi + 1e-9 and lo <= sampled + 1 / 8 + 1e-9


def _count_halvings(monkeypatch):
    calls = []

    def halves(b):
        calls.append(1)
        return _halves(b)

    monkeypatch.setattr(bounds, "_halves", halves)
    return calls


def test_circle_sup_norm_refuses_unreachable_width(monkeypatch):
    calls = _count_halvings(monkeypatch)
    tiny = Fraction(1, 2**200)
    # an interior maximum: R there is a non-square rational, whose 120-bit
    # square root is wider than 2^-200, so the refusal comes within a few halvings
    rng = random.Random("degree-64-0")
    p = IntPolynomial([rng.randint(-2, 2) for _ in range(65)])
    assert circle_sup_norm(p, Fraction(1, 8)).bounds()[0] > abs(sum(p.coefficients))
    calls.clear()
    with pytest.raises(PrecisionBudgetError):
        circle_sup_norm(p, tiny)
    assert len(calls) <= 8
    # a maximum at s = 0 or s = 1 is p(-1)^2 or p(1)^2, an integer square: it is
    # certified exactly when the square fits the interval precision, and
    # refused before any halving when it does not
    assert circle_sup_norm(IntPolynomial([1, -1, 1]), tiny).bounds() == (3, 3)
    big = 2**70
    for coeffs in ([big + 1, -big], [big, big + 1]):  # maxima at s = 0 and s = 1
        calls.clear()
        with pytest.raises(PrecisionBudgetError):
            circle_sup_norm(IntPolynomial(coeffs), tiny)
        assert not calls


def test_circle_sup_norm_split_budget(monkeypatch):
    # the halving cap is hit exactly: the same call certifies with the budget back
    p = IntPolynomial([2, -1, 0, 2, 1, -2, 1])
    calls = _count_halvings(monkeypatch)
    circle_sup_norm(p, Fraction(1, 2**20))
    needed = len(calls)
    assert needed > 3
    monkeypatch.setattr(bounds, "_MAX_SPLITS", 3)
    calls.clear()
    with pytest.raises(PrecisionBudgetError):
        circle_sup_norm(p, Fraction(1, 2**20))
    assert len(calls) == 3


# -- the integer-polynomial testbed -------------------------------------------------------


def _coefficient_box(n):
    """All 3^(n+1) polynomials with coefficients in {-1, 0, 1}."""
    return [IntPolynomial(c) for c in itertools.product((-1, 0, 1), repeat=n + 1)]


def test_p1z_counts():
    for n, expected in [(0, 3), (1, 5), (2, 7)]:
        count, report = p1z_h0(n)
        assert count == expected
        assert report.passed
        assert report.context["count"] == expected


def test_p1z_monotone_and_no_unresolved():
    counts = []
    for n in range(7):
        count, report = p1z_h0(n)
        counts.append(count)
        assert report.passed
        # oracle: every candidate of the sandwich box is decided by one integer
        # test, sum|a_k| <= 1 accepting it or c_0 = sum a_k^2 >= 2 rejecting it
        # (Parseval)
        accepted = 0
        for p in _coefficient_box(n):
            assert p.sum_abs() <= 1 or p.autocorrelation()[0] >= 2, p.coefficients
            accepted += p.sum_abs() <= 1
        assert accepted == count
    assert counts == sorted(counts)
    assert counts == [2 * n + 3 for n in range(7)]
    assert counts[5:] == [13, 15]


def test_p1z_validation():
    with pytest.raises(ValueError):
        p1z_h0(-1)
    # the degree budget is the circle norm's, MAX_CIRCLE_DEGREE = 64
    count, report = p1z_h0(64)
    assert count == 131 and report.passed
    with pytest.raises(ValueError):
        p1z_h0(65)
