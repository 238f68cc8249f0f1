import itertools
import math
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
    check_truncated_siegel,
    circle_sup_norm,
    geometric_hs_bound,
    h0_minima_bound,
    p1z_h0,
    random_gram,
)
from hnbounds.bounds import (
    _FIXED_BITS,
    CheckReport,
    _cos_table,
    _grid_bounds,
    _grid_squares,
    _log_int,
    reports_to_csv,
    reports_to_json,
)
from hnbounds.towers import Tower, TowerData, epsilon


def diagonal(*entries):
    entries = [Fraction(e) for e in entries]
    n = len(entries)
    return EuclideanLattice(
        [[entries[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    )


# -- report plumbing -----------------------------------------------------------


def test_report_pass_iff_margin_certified():
    good = CheckReport.compare("x", Scalar.exact(1), Scalar.exact(2))
    assert good.passed and good.margin.as_fraction() == 1
    bad = CheckReport.compare("x", Scalar.exact(2), Scalar.exact(1))
    assert not bad.passed
    from hnbounds import log_scalar

    straddle = CheckReport.compare("x", log_scalar(2), log_scalar(2))
    assert not straddle.passed  # equality of intervals cannot be certified


def test_report_serialization():
    reps = [CheckReport.compare("a", Scalar.exact(1), Scalar.exact(3))]
    blob = reports_to_json(reps)
    assert blob[0]["pass"] is True and blob[0]["margin"] == "2"
    csv_text = reports_to_csv(reps)
    assert csv_text.splitlines()[0] == "name,lhs,rhs,margin,pass"
    assert "a,1,3,2,True" in csv_text


# -- geometric ---------------------------------------------------------------------


def test_geometric_hs_bound_examples():
    assert geometric_hs_bound(Scalar.exact(12), 2, Scalar.exact(6)).as_fraction() == 12
    assert geometric_hs_bound(Scalar.exact(8), 2, Scalar.exact(6)).as_fraction() == 10
    assert geometric_hs_bound(Scalar.exact(0), 1, Scalar.exact(1)).as_fraction() == 1
    with pytest.raises(ValueError):
        geometric_hs_bound(Scalar.exact(-1), 2, Scalar.exact(0))


def test_check_toric_family_examples():
    rep = check_toric_family(FiberedSeries(2, 3, 0))
    assert (rep.lhs.as_fraction(), rep.rhs.as_fraction()) == (12, 12)
    assert rep.margin.as_fraction() == 0 and rep.passed
    rep = check_toric_family(FiberedSeries(3, 2, 1))
    assert (rep.lhs.as_fraction(), rep.rhs.as_fraction()) == (9, 10)
    assert rep.margin.as_fraction() == 1


def test_check_toric_family_margin_law():
    for e in range(3):
        for a in range(1, 7):
            for b in range(1, 7):
                if a >= e * b:
                    F = FiberedSeries(a, b, e)
                    rep = check_toric_family(F)
                    assert rep.passed
                    assert rep.margin.as_fraction() == Fraction(e * b, 2)
                    # the closed-form volume is the trapezoid's hull area
                    assert rep.context["volume"] == F.trapezoid().volume()


def test_check_filtered_examples():
    rep = check_filtered(FiberedSeries(2, 3, 0))
    assert rep.lhs.as_fraction() == 8 and rep.passed
    assert rep.context["lhs_equals_deg_plus"] is True
    rep = check_filtered(FiberedSeries(3, 2, 1))
    assert rep.lhs.as_fraction() == 6 and rep.rhs.as_fraction() == 7


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
                        (Scalar.exact(a), Scalar.exact(b)),
                        (F.volume_via_fibers(), Scalar.exact(b)),
                    )
                    eps_p = epsilon_tilde(tower, data, DEFAULT_ELL)
                    rhs = geometric_hs_bound(F.trapezoid().volume(), 2, eps_p)
                    lhs = Scalar.exact(F.pushforward(1).h0())
                    assert eps_p.as_fraction() >= epsilon(tower, data).as_fraction()
                    assert lhs.as_fraction() <= rhs.as_fraction()


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
    # ln 2, ln r! and ln(2 r!) are taken once per argument for the lattice
    # checks and p1z (ranks up to 65); each is the interval a fresh log_scalar
    # call computes, endpoint for endpoint, on the first call and from the cache
    from hnbounds import log_scalar

    for r in range(1, 66):
        for n in (2, math.factorial(r), 2 * math.factorial(r)):
            first = _log_int(n)
            assert first._ivl == log_scalar(n)._ivl
            assert _log_int(n) is first


def test_gillet_soule_comparison_sweep():
    import itertools

    for rank in range(1, 5):
        for diag in itertools.product([Fraction(1, 4), 1, 4], repeat=rank):
            rep = check_gillet_soule(diagonal(*diag))
            assert rep.passed, diag


def test_gillet_soule_exact_tie():
    rep = check_gillet_soule(diagonal(1))
    assert rep.passed
    assert rep.margin.is_rational and rep.margin.as_fraction() == 0


def test_truncated_siegel_slack():
    for diag in [(1, 4), (Fraction(1, 4), 1, 4), (1, 1, 4, 4)]:
        L = diagonal(*diag)
        rep = check_truncated_siegel(L)
        r = len(diag)
        assert rep.passed
        assert rep.margin.midpoint() == pytest.approx(r / 2 * math.log(r))


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


def test_fixed_point_grid_against_mpmath():
    # independent oracle: 50-digit mpmath cosines and |p| on the full N-point grid
    import mpmath

    scale = 2**_FIXED_BITS
    polys = [
        (1, 2, -1),
        (2, 1, 2, -1),
        (-2, 0, 1, 2),
        (1, -1, 1, -1, 1),
        (0, 2, -2, 1, 0, -1),
        (-1, -1, -1, 0, 0, -1, 2, -1, -1),
        (2, 1, 0, -2, 1, 1, -1, 2, -2),
    ]
    unit = mpmath.mpf("1e-3")  # 50 digits resolve 2^B |p|^2 far below one unit
    with mpmath.workdps(50):
        for n_grid in (64, 256):
            table = _cos_table(n_grid)
            assert len(table) == n_grid // 2 + 1
            for k, (lo, hi) in enumerate(table):
                exact = scale * mpmath.cos(2 * mpmath.pi * k / n_grid)
                assert lo <= exact + unit and exact - unit <= hi
                assert hi - lo <= 2**12  # 2^-116 after scaling back
            for coeffs in polys:
                p = IntPolynomial(coeffs)
                top = max(
                    abs(mpmath.polyval(list(reversed(coeffs)), mpmath.expjpi(mpmath.mpf(2 * j) / n_grid)))
                    for j in range(n_grid)
                )
                sq_lo, sq_hi = _grid_squares(p.autocorrelation(), n_grid, range(n_grid // 2 + 1))
                square = scale * top**2
                assert sq_lo <= square + unit and square - unit <= sq_hi
                low, high = _grid_bounds((sq_lo, sq_hi), p.degree, n_grid)
                assert mpmath.mpf(low.numerator) / low.denominator <= top + mpmath.mpf("1e-30")
                assert top <= mpmath.mpf(high.numerator) / high.denominator


def test_doubled_grids_match_full_evaluation():
    # a doubled grid reuses the coarser bracket and visits only the odd j; the
    # reference evaluates every grid in full, and the intervals must be equal
    import random

    def full_grids(p, precision):
        corr = p.autocorrelation()
        lo_frac, hi_frac = Fraction(p.max_abs()), Fraction(p.sum_abs())
        n_grid = 64
        while True:
            if n_grid > 4 * p.degree:
                squares = _grid_squares(corr, n_grid, range(n_grid // 2 + 1))
                low, high = _grid_bounds(squares, p.degree, n_grid)
                low, high = max(low, lo_frac), min(high, hi_frac)
                if high - low <= precision:
                    return (low, high), n_grid
            n_grid *= 2

    rng = random.Random(4105)
    grids = set()
    for _ in range(24):
        p = IntPolynomial([rng.randint(-2, 2) for _ in range(rng.randint(3, 9))])
        precision = Fraction(1, rng.choice([2, 4, 16]))
        if p.sum_abs() - p.max_abs() <= precision:
            continue
        expected, n_grid = full_grids(p, precision)
        assert circle_sup_norm(p, precision).bounds() == expected
        grids.add(n_grid)
    assert len(grids) >= 3  # one, two and more doublings are exercised


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
