import ast
import importlib
import math
import operator
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import finf, fnan, fninf, from_man_exp, mpf_neg, mpi_log, to_rational

import hnbounds
from hnbounds import CertificationError, EuclideanLattice, IntPolynomial, Scalar, ToricSeries, log_scalar
from hnbounds import circle_sup_norm, cli, scalars
from hnbounds.scalars import (
    LOG_PI,
    PI,
    PREC,
    Exact,
    _fraction_to_raw,
    cos_2pi,
    exact_bounds,
    exact_fraction,
    exp_interval,
    log_ball_volume,
    log_gamma,
    log_interval,
    max0,
    neg_half_log,
    scalar_max,
    scalar_min,
    sqrt_interval,
)

fractions = st.fractions(min_value=-100, max_value=100, max_denominator=64)


@given(fractions, fractions)
def test_exact_arithmetic_is_plain_fraction_arithmetic(x, y):
    # a report's Exact reads like an interval, and computes as a Fraction
    a, b = Scalar.exact(x), Scalar.exact(y)
    assert type(a) is Exact and a == x and a.is_rational and a.as_fraction() == x
    assert a.bounds() == (x, x) and a.midpoint() == float(x)
    assert a.certified_nonneg() == (x >= 0) and a.to_json() == str(x)
    results = [(a + b, x + y), (a - b, x - y), (a * b, x * y), (-a, -x), (a + 1, x + 1)]
    if y != 0:
        results.append((a / b, x / y))
    for got, want in results:
        assert type(got) is Fraction and got == want


def test_exact_fraction_reads_exact_values_only():
    # every reader of exact input takes an int, a Fraction or a "p/q" string,
    # and refuses an interval, a point one included; a Fraction, an Exact
    # among them, is returned as it is
    for value in (3, "3", "6/2"):
        assert type(exact_fraction(value)) is Fraction and exact_fraction(value) == 3
    for value in (Fraction(3), Scalar.exact(3)):
        assert exact_fraction(value) is value
    for value in (0.5, 3.0, log_scalar(2), Scalar.from_fraction_bounds(3, 3), None):
        with pytest.raises(TypeError):
            exact_fraction(value)


def test_exact_inputs_refuse_floats():
    # each input below is read by exact_fraction: a float is refused (0.1
    # would read as 3602879701896397/36028797018963968), and an int, a
    # Fraction and a "p/q" string of one value read alike
    p = IntPolynomial([1, 1])  # sup norm 2, at z = 1
    readers = {
        "gram": lambda x: EuclideanLattice([[x]]).gram[0][0],
        "scale": lambda x: EuclideanLattice([[1]]).scale(x).gram[0][0],
        "vertex": lambda x: ToricSeries([(0, 0), (2, 0), (0, 2), (x, 0)]).vertices[-1][0],
        "circle": lambda x: circle_sup_norm(p, x).bounds(),
        "cos": lambda x: cos_2pi(x).bounds(),
    }
    for name, read in readers.items():
        for bad in (0.1, 0.5, 1.0):
            with pytest.raises(TypeError):
                read(bad)
        for q in (Fraction(1), Fraction(1, 2)):
            want = read(q)
            forms = [str(q)] + ([q.numerator] if q.denominator == 1 else [])
            assert all(read(form) == want for form in forms), name
    assert readers["gram"]("1/2") == Fraction(1, 2) and readers["scale"]("1/2") == Fraction(1, 4)
    assert readers["vertex"]("1/2") == Fraction(1, 2)


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_log_contains_true_value(p, q):
    s = log_scalar(Fraction(p, q))
    lo, hi = s.bounds()
    assert lo <= hi
    # float log sits well inside a certified enclosure of width ~1e-36
    assert float(lo) - 1e-9 <= math.log(p / q) <= float(hi) + 1e-9
    assert s.width() < Fraction(1, 10**20)


up_to_1e30 = st.integers(min_value=1, max_value=10**30)
positive_rationals = st.one_of(up_to_1e30.map(Fraction), st.builds(Fraction, up_to_1e30, up_to_1e30))


@example(Fraction(1))
@example(Fraction(1, 10**30))
@example(Fraction(10**30))
@given(positive_rationals)
def test_neg_half_log_is_the_halved_negated_log(q):
    # negating and halving the endpoints of ln q is exact in binary, so it
    # gives the very interval of 0 - (1/2) ln q, endpoint for endpoint
    expected = 0 - Fraction(1, 2) * log_scalar(q)
    got = neg_half_log(q)
    assert got._ivl == expected._ivl
    assert got.bounds() == expected.bounds()


@settings(deadline=None, derandomize=True, max_examples=200)
@example(Fraction(2))
@example(Fraction(1))
@example(Fraction(1, 10**30))
@given(positive_rationals)
def test_log_scalar_memo_is_a_fresh_log(q):
    # the memo keyed on the exact value hands back, on the first call and on
    # every repeat, in whichever form q comes, the very endpoints of a fresh
    # certified log
    fresh = mpi_log(_fraction_to_raw(q), PREC)
    scalars._log_fraction.cache_clear()
    first = log_scalar(q)
    assert first._ivl == fresh
    forms = [q, Scalar.exact(q), str(q)] + ([q.numerator] if q.denominator == 1 else [])
    for again in forms:
        assert log_scalar(again) is first


def test_interval_width_reported():
    s = log_scalar(2)
    assert 0 < s.width() < Fraction(1, 10**30)
    assert Scalar.from_fraction_bounds(5, 5).width() == 0


def test_mixed_arithmetic_promotes():
    x = Fraction(3, 2) + log_scalar(2)
    lo, hi = x.bounds()
    assert lo < hi
    assert abs(x.midpoint() - (1.5 + math.log(2))) < 1e-15


def test_certified_comparisons():
    assert log_scalar(2) < log_scalar(3)
    assert log_scalar(3) > 1 and Fraction(1) < log_scalar(3)
    with pytest.raises(CertificationError):
        _ = log_scalar(2) < log_scalar(2)  # overlapping, not point-equal
    point = Scalar.from_fraction_bounds(2, 2)
    assert point == 2 and Fraction(2) == point and point <= 2 <= point
    assert not point == Fraction(3)
    with pytest.raises(TypeError):
        _ = point < 2.5


def test_point_interval_hashes_as_its_exact_value():
    # equal values hash equal: a point interval is == its exact value
    for value in (Fraction(2), Fraction(-7, 4), Fraction(0), Fraction(3, 2**200)):
        point = Scalar.from_fraction_bounds(value, value)
        assert point.bounds() == (value, value) and point == value
        assert hash(point) == hash(value)
        assert len({point, value}) == 1
    point = Scalar.from_fraction_bounds(Fraction(2), Fraction(2))
    assert len({point, Fraction(2), 2, Scalar.from_fraction_bounds(2, 2)}) == 1
    assert {point: "two"}[2] == "two"
    wide = log_scalar(2)
    assert hash(wide) == hash(wide.bounds())


def test_repr_past_the_float_range():
    # the width, like the midpoint, reads inf where float() would overflow
    wide = Scalar.from_fraction_bounds(Fraction(0), Fraction(10**400))
    assert repr(wide) == "Scalar(~inf, width=inf)"
    assert repr(Scalar.from_fraction_bounds(5, 5)) == "Scalar(~5, width=0)"


def test_division_by_straddling_zero_refused():
    straddle = log_scalar(2) - log_scalar(2)
    with pytest.raises(CertificationError):
        1 / straddle
    with pytest.raises(CertificationError):
        Fraction(1) / straddle
    with pytest.raises(CertificationError):
        log_scalar(2) / 0
    assert (log_scalar(2) / Fraction(1, 3)).bounds()[0] > 2


def test_max0_and_abs_interval_extensions():
    assert max0(Fraction(-3)) == 0 and type(max0(Fraction(-3))) is Fraction
    assert max0(Fraction(3)) == 3
    neg = 0 - log_scalar(2)
    assert max0(neg).bounds() == (0, 0)
    assert abs(neg).midpoint() == pytest.approx(math.log(2))
    straddle = log_scalar(2) - log_scalar(2)
    a = abs(straddle)
    assert a.bounds()[0] >= 0


def test_min_max():
    a, b = Fraction(1), log_scalar(2)
    assert scalar_max(a, b).bounds()[0] >= Fraction(1)
    assert scalar_min(a, b).bounds()[1] <= Fraction(1)


def test_special_values():
    assert log_scalar(math.factorial(5)).midpoint() == pytest.approx(math.log(120))
    assert log_gamma(Fraction(7, 2)).midpoint() == pytest.approx(math.lgamma(3.5))
    assert log_ball_volume(2).midpoint() == pytest.approx(math.log(math.pi))
    assert log_ball_volume(3).midpoint() == pytest.approx(math.log(4 * math.pi / 3))
    assert LOG_PI.midpoint() == pytest.approx(math.log(math.pi))
    assert sqrt_interval(2).midpoint() == pytest.approx(math.sqrt(2))
    assert exp_interval(Fraction(1)).midpoint() == pytest.approx(math.e)


def test_loggamma_agrees_with_exact_factorial_route():
    # two certified routes to ln(n!): interval loggamma(n+1) and the exact
    # integer factorial followed by an interval log; enclosures must overlap
    for n in (2, 5, 50, 500):
        a = log_gamma(n + 1)
        b = log_scalar(math.factorial(n))
        alo, ahi = a.bounds()
        blo, bhi = b.bounds()
        assert max(alo, blo) <= min(ahi, bhi)
        assert a.width() < Fraction(1, 10**20) and b.width() < Fraction(1, 10**20)


def test_json_round_trip():
    # the CLI reads back the rationals and intervals a report prints
    r = Scalar.exact(Fraction(-7, 3))
    assert cli._rational(r.to_json(), "--hn", "slope data") == Fraction(-7, 3)
    s = log_scalar(2)
    ((_, back),) = cli._hn_type([[1, s.to_json()]], "--hn").segments
    assert back.bounds()[0] <= s.bounds()[0] <= s.bounds()[1] <= back.bounds()[1]


@pytest.mark.parametrize(
    "lo, hi, approx",
    [
        # dyadics of at most PREC bits, which outward rounding keeps
        (Fraction(1), Fraction(3), 2.0),
        (Fraction(2**1400), Fraction(2**1500), None),
        (Fraction(-(2**1500)), Fraction(-(2**1400)), None),
        # the sum is past the float range, the midpoint is not
        (Fraction(2**1023), Fraction(2**1023 + 2**1000), 2.0**1023 + 2.0**999),
        # the least value that rounds to infinity, and a value just below it
        (Fraction(0), Fraction(2**1025 - 2**971), None),
        (Fraction(0), Fraction(2**1025 - 2**971 - 2**906), 1.7976931348623157e308),
    ],
)
def test_midpoint_past_the_float_range(lo, hi, approx):
    s = Scalar.from_fraction_bounds(lo, hi)
    assert s.bounds() == (lo, hi)
    assert s.to_json()["approx"] == approx
    assert s.midpoint() == (approx if approx is not None else math.inf if hi > 0 else -math.inf)


def _approx_reference(lo, hi):
    """``to_json``'s ``approx`` as first written: float(lo + hi) / 2, with
    the exact midpoint when the sum is past the float range."""
    try:
        mid = float(lo + hi) / 2 if lo != hi else float(lo)
    except OverflowError:
        exact = (lo + hi) / 2
        mid = float(exact) if abs(exact) < 2**1024 - 2**970 else math.inf
    return mid if math.isfinite(mid) else None


@pytest.mark.parametrize(
    "lo, hi",
    [
        # a midpoint just under 2^1024, whose sum is past the float range
        (Fraction(2**1024 - 2**972), Fraction(2**1024 - 2**971)),
        (Fraction(-(2**1024) + 2**971), Fraction(-(2**1024) + 2**972)),
        # one past it
        (Fraction(2**1024 - 2**970), Fraction(2**1024)),
        # subnormal midpoints: a tie that rounds to even, and one that the
        # rounded sum and the exact midpoint round apart
        (Fraction(1, 2**1074), Fraction(1, 2**1073)),
        (Fraction(0), Fraction(3 * 2**26 - 1, 2**1100)),
        (Fraction(-3, 2**1074), Fraction(1, 2**1074)),
        (Fraction(1, 2**1074), Fraction(1, 2**1074)),
    ],
)
def test_approx_at_the_float_range_edges(lo, hi):
    s = Scalar.from_fraction_bounds(lo, hi)
    assert s.bounds() == (lo, hi)
    assert s.to_json()["approx"] == _approx_reference(lo, hi)


@st.composite
def _raw_intervals(draw):
    """Finite raw intervals with endpoints of magnitude 2^-1200 to 2^1100 and
    zero, equal ends among them, and ends whose sum is tiny or subnormal."""

    def endpoint():
        # a mantissa of up to PREC bits, its top bit in a range drawn first:
        # below the subnormals, subnormal, normal, about 2^1024, past it
        bits = draw(st.integers(0, PREC))
        man = draw(st.integers(2**bits >> 1, 2**bits - 1))
        regions = [(-1200, -1075), (-1074, -1022), (-1021, 1021), (1022, 1026), (1027, 1100)]
        top = draw(st.integers(*draw(st.sampled_from(regions))))
        return from_man_exp(-man if draw(st.booleans()) else man, top - bits)

    lo = endpoint()
    kind = draw(st.sampled_from(["any", "equal", "cancel"]))
    if kind == "equal":
        return (lo, lo)
    if kind == "any":
        hi = endpoint()
    else:  # hi = -lo + k 2^j, with j about the least subnormal exponent
        k, j = draw(st.integers(0, 2**60)), draw(st.integers(-1140, -1000))
        p, q = to_rational(lo)  # q is a power of two
        hi = from_man_exp(-p * (2**-j // q) + k if q <= 2**-j else k, j)
    (lo_p, lo_q), (hi_p, hi_q) = to_rational(lo), to_rational(hi)
    return (lo, hi) if Fraction(lo_p, lo_q) <= Fraction(hi_p, hi_q) else (hi, lo)


@settings(deadline=None, derandomize=True, max_examples=400)
@given(_raw_intervals())
def test_to_json_prints_the_exact_bounds(raw):
    # the endpoints printed from their integers, against str of the exact
    # Fractions and float(lo + hi) / 2 with the exact midpoint past the range
    lo, hi = (Fraction(*to_rational(end)) for end in raw)
    s, approx = scalars._interval(raw), _approx_reference(lo, hi)
    assert s.to_json() == {"lo": str(lo), "hi": str(hi), "approx": approx}
    assert s.midpoint() == (approx if approx is not None else math.inf if lo + hi > 0 else -math.inf)


def test_pickle_round_trip():
    # bit-identical: an Exact comes back an Exact of the same numerator and
    # denominator, an interval with the same raw endpoint tuples of ints
    import pickle

    big = Fraction(-(10**60) - 7, 3**40)
    values = [
        Scalar.exact(Fraction(2, 7)),
        Scalar.exact(big),
        Scalar.exact(10**70 + 1),
        Scalar.exact(0),
        log_scalar(5),
        log_scalar(-big),
        big - log_scalar(3),
        exp_interval(log_scalar(-big)),
        exp_interval(-50),
        log_scalar(1),  # the interval [0, 0]
    ]
    for s in values:
        t = pickle.loads(pickle.dumps(s))
        assert type(t) is type(s) and t.is_rational == s.is_rational
        if s.is_rational:
            assert (t.numerator, t.denominator) == (s.numerator, s.denominator)
        else:
            assert t._ivl == s._ivl
            assert s.__reduce__()[1] == (s._ivl,)


# -- the interval layer against mpmath's interval context ----------------------
#
# ``scalars`` calls mpmath's libmpi directly on raw endpoint pairs.  The
# reference below runs the same quantities through ``MPIntervalContext`` at
# 120 bits, as the package once did, and the endpoints must agree bit for bit.

PROPERTIES = settings(deadline=None, derandomize=True)

_ref = MPIntervalContext()
_ref.prec = 120

wide_fractions = st.fractions(max_denominator=10**45).filter(lambda q: abs(q) < 10**45)
positive_fractions = st.fractions(min_value=Fraction(1, 10**40), max_value=10**40, max_denominator=10**45)


def _ref_rational(q: Fraction):
    if q.denominator == 1:
        return _ref.mpf(q.numerator)
    return _ref.mpf(q.numerator) / _ref.mpf(q.denominator)


def _ref_bounds(x):
    return tuple(Fraction(*to_rational(end)) for end in x._mpi_)


def _operands(q, p):
    """(value, reference) pairs: two rationals and two intervals from logs."""
    return [
        (q, _ref_rational(q)),
        (p, _ref_rational(p)),
        (log_scalar(p), _ref.log(_ref_rational(p))),
        (q - log_scalar(p), _ref_rational(q) - _ref.log(_ref_rational(p))),
    ]


@PROPERTIES
@given(wide_fractions, positive_fractions)
def test_interval_ops_match_mpmath_interval_context(q, p):
    operands = _operands(q, p)
    for x, rx in operands:
        if type(x) is Scalar:
            assert (-x).bounds() == _ref_bounds(-rx)
        for y, ry in operands:
            if type(x) is not Scalar and type(y) is not Scalar:
                continue
            assert (x + y).bounds() == _ref_bounds(rx + ry)
            assert (x - y).bounds() == _ref_bounds(rx - ry)
            assert (x * y).bounds() == _ref_bounds(rx * ry)
            lo, hi = exact_bounds(y)
            if not lo <= 0 <= hi:
                assert (x / y).bounds() == _ref_bounds(rx / ry)
        if exact_bounds(x)[0] > 0:
            assert log_interval(x).bounds() == _ref_bounds(_ref.log(rx))
            assert sqrt_interval(x).bounds() == _ref_bounds(_ref.sqrt(rx))
        if abs(sum(exact_bounds(x))) < 2000:
            assert exp_interval(x).bounds() == _ref_bounds(_ref.exp(rx))


@PROPERTIES
@given(wide_fractions, positive_fractions)
def test_functions_of_rationals_match_mpmath_interval_context(q, p):
    rp = _ref_rational(p)
    assert log_scalar(p).bounds() == _ref_bounds(_ref.log(rp))
    assert log_gamma(p).bounds() == _ref_bounds(_ref.loggamma(rp))
    assert cos_2pi(q).bounds() == _ref_bounds(_ref.cos(2 * _ref.pi * _ref_rational(q)))
    lo, hi = sorted((q, p))
    expected = (_ref_bounds(_ref_rational(lo))[0], _ref_bounds(_ref_rational(hi))[1])
    assert Scalar.from_fraction_bounds(lo, hi).bounds() == expected


def test_constants_match_mpmath_interval_context():
    assert PI.bounds() == _ref_bounds(+_ref.pi)
    assert LOG_PI.bounds() == _ref_bounds(_ref.log(_ref.pi))
    # computed on first use, once: a repeated import gets the same objects
    from hnbounds.scalars import LOG_PI as log_pi, PI as pi

    assert pi is PI and log_pi is LOG_PI and scalars.PI is PI
    pi_raw = tuple(mpmath.libmp.mpf_pi(120, rnd) for rnd in (mpmath.libmp.round_floor, mpmath.libmp.round_ceiling))
    assert PI._ivl == pi_raw and LOG_PI._ivl == mpi_log(pi_raw, 120)
    for n in (0, 1, 2, 30, 200):
        assert log_scalar(math.factorial(n)).bounds() == _ref_bounds(_ref.log(_ref.mpf(math.factorial(n))))
    for n in (1, 2, 7, 10**6):
        expected = _ref_rational(Fraction(n, 2)) * _ref.log(_ref.pi) - _ref.loggamma(
            _ref_rational(Fraction(n, 2) + 1)
        )
        assert log_ball_volume(n).bounds() == _ref_bounds(expected)


# -- fast paths against a bounds()/Fraction reference -------------------------
#
# Interval sign tests, comparisons, scalar_min and scalar_max read the raw
# endpoint tuples, and an exact operand meets an interval through the
# interval's operators, reflected ones included.  The reference below decides
# everything from the exact bounds, as the package once did, and the fast
# paths must agree with it, CertificationErrors included.

_big = st.integers(min_value=-(10**60), max_value=10**60)
_rationals = st.one_of(
    st.integers(min_value=-3, max_value=3).map(Fraction),
    st.fractions(min_value=-10, max_value=10, max_denominator=8),
    st.builds(Fraction, _big, st.integers(min_value=1, max_value=10**60)),
)
_NON_FINITE = (finf, fninf, fnan)


@st.composite
def _scalar_operands(draw):
    q = draw(_rationals)
    p = abs(q) + 1
    kind = draw(st.sampled_from(["rational", "log", "far", "shifted", "bounds", "point", "non-finite"]))
    if kind == "rational":
        return q
    if kind == "log":
        return log_scalar(p)
    if kind == "far":  # scaling by a power of 2 is exact: far-apart exponents
        return Fraction(2) ** draw(st.integers(min_value=-400, max_value=400)) * (q - log_scalar(p))
    if kind == "shifted":
        return q - log_scalar(p)
    if kind == "bounds":
        return Scalar.from_fraction_bounds(q, q + draw(_rationals.map(abs)))
    if kind == "point":  # lo == hi: certified equal to the rational k
        k = Fraction(draw(st.integers(min_value=-3, max_value=3)))
        return Scalar.from_fraction_bounds(k, k)
    finite = (q + log_scalar(p))._ivl
    bad = draw(st.sampled_from(_NON_FINITE))
    return scalars._interval(draw(st.sampled_from([(fninf, finite[1]), (finite[0], bad), (bad, bad)])))


def _is_interval(s):
    return type(s) is Scalar


def _key(s):
    return ("interval", s._ivl) if _is_interval(s) else ("rational", s)


def _agree(fast, ref):
    """fast() returns what ref() returns, or raises CertificationError as it does."""
    try:
        expected = ref()
    except CertificationError:
        with pytest.raises(CertificationError):
            fast()
        return
    got = fast()
    assert type(got) is type(expected)
    if isinstance(expected, (Scalar, Fraction)):
        assert _key(got) == _key(expected)
    else:
        assert got == expected


def _ref_cmp(x, y):
    alo, ahi = exact_bounds(x)
    blo, bhi = exact_bounds(y)
    if ahi < blo:
        return -1
    if alo > bhi:
        return 1
    if alo == ahi == blo == bhi:
        return 0
    raise CertificationError("overlap")


def _ref_eq(x, y):
    alo, ahi = exact_bounds(x)
    blo, bhi = exact_bounds(y)
    if alo == ahi == blo == bhi:
        return True
    if ahi < blo or alo > bhi:
        return False
    raise CertificationError("overlap")


def _ref_max0(x):
    if not _is_interval(x):
        return max(x, Fraction(0))
    lo, hi = x.bounds()
    return Scalar.from_fraction_bounds(max(lo, Fraction(0)), max(hi, Fraction(0)))


def _ref_neg(x):
    lo, hi = x.bounds()
    return Scalar.from_fraction_bounds(-hi, -lo)


def _ref_abs(x):
    lo, hi = x.bounds()
    if lo >= 0:
        return x
    if hi <= 0:
        return _ref_neg(x)
    return Scalar.from_fraction_bounds(Fraction(0), max(-lo, hi))


def _ref_extreme(pick, x, y):
    if not _is_interval(x) and not _is_interval(y):
        return pick(x, y)
    (xlo, xhi), (ylo, yhi) = exact_bounds(x), exact_bounds(y)
    return Scalar.from_fraction_bounds(pick(xlo, ylo), pick(xhi, yhi))


def _finite(x):
    try:
        exact_bounds(x)
    except CertificationError:
        return False
    return True


@settings(PROPERTIES, max_examples=300)
@given(_scalar_operands(), _scalar_operands())
def test_fast_paths_match_bounds_reference(x, y):
    for a in (x, y):
        _agree(lambda: max0(a), lambda: _ref_max0(a))
        if not _is_interval(a):
            continue
        _agree(a.certified_nonneg, lambda: a.bounds()[0] >= 0)
        _agree(a.__abs__, lambda: _ref_abs(a))
        if _finite(a):
            _agree(a.__neg__, lambda: _ref_neg(a))
        else:  # exact negation of the raw ends, no certification needed
            assert (-a)._ivl == (mpf_neg(a._ivl[1]), mpf_neg(a._ivl[0]))
    _agree(lambda: scalar_min(x, y), lambda: _ref_extreme(min, x, y))
    _agree(lambda: scalar_max(x, y), lambda: _ref_extreme(max, x, y))
    _agree(lambda: x < y, lambda: _ref_cmp(x, y) < 0)
    _agree(lambda: x <= y, lambda: _ref_cmp(x, y) <= 0)
    _agree(lambda: x == y, lambda: _ref_eq(x, y))
    _agree(lambda: y > x, lambda: _ref_cmp(x, y) < 0)
    if not _is_interval(x) and not _is_interval(y):
        return  # plain Fraction arithmetic
    results = [(x + y, operator.add), (x - y, operator.sub), (x * y, operator.mul)]
    try:
        ylo, yhi = exact_bounds(y)
        straddles = ylo <= 0 <= yhi
    except CertificationError:
        straddles = True  # the divisor's sign is not certified either way
    if straddles:
        with pytest.raises(CertificationError):
            x / y
    else:
        results.append((x / y, operator.truediv))
    if _finite(x) and _finite(y):
        for result, op in results:
            assert _is_interval(result)
            lo, hi = result.bounds()
            for u in exact_bounds(x):
                for v in exact_bounds(y):
                    assert lo <= op(u, v) <= hi


# -- containment: every interval op brackets the exact value -------------------


def _points(s):
    """Exact rationals inside s: its endpoints and their midpoint."""
    lo, hi = exact_bounds(s)
    return (lo, (lo + hi) / 2, hi)


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _brackets(s, value, digits=45):
    """True when s contains the 50-digit value up to 10^-digits relative slack."""
    lo, hi = s.bounds()
    slack = mpmath.mpf(10) ** -digits * max(1, abs(value))
    return _mp(lo) <= value + slack and value - slack <= _mp(hi)


@PROPERTIES
@given(wide_fractions, positive_fractions)
def test_interval_ops_contain_exact_results(q, p):
    x = q - log_scalar(p)  # interval operands with dyadic ends
    y = log_scalar(p + 2)  # bounded away from zero, so a divisor
    for a in (x, y, q):
        for b in (y, x):
            for u in _points(a):
                for v in _points(b):
                    results = [(a + b, u + v), (a - b, u - v), (a * b, u * v)]
                    if b is y:
                        results.append((a / b, u / v))
                    for result, exact in results:
                        lo, hi = result.bounds()
                        assert lo <= exact <= hi
    for u in _points(x):
        lo, hi = (-x).bounds()
        assert lo <= -u <= hi


@PROPERTIES
@given(positive_fractions, st.fractions(min_value=-200, max_value=200, max_denominator=10**12))
def test_transcendental_ops_contain_50_digit_values(p, t):
    with mpmath.workdps(50):
        assert _brackets(log_scalar(p), mpmath.log(_mp(p)))
        x = log_scalar(p + 2)  # positive interval operand
        for u in _points(x):
            assert _brackets(log_interval(x), mpmath.log(_mp(u)))
            assert _brackets(sqrt_interval(x), mpmath.sqrt(_mp(u)))
        e = t + log_scalar(p)
        for u in _points(e):
            assert _brackets(exp_interval(e), mpmath.exp(_mp(u)))


# -- mpmath stays behind this module --------------------------------------------


def test_only_scalars_imports_mpmath():
    offenders = []
    for path in sorted(Path(hnbounds.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                if module.split(".")[0] == "mpmath" and (
                    path.name != "scalars.py" or module.startswith("mpmath.ctx_iv")
                ):
                    offenders.append(f"{path.name}: {module}")
    assert offenders == []


# -- the public names -------------------------------------------------------------


def test_every_public_name_resolves():
    package = Path(hnbounds.__file__).parent
    modules = [hnbounds] + [
        importlib.import_module(f"hnbounds.{path.stem}")
        for path in sorted(package.glob("*.py"))
        if path.stem != "__init__"
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
