"""Inequality assemblies and end-to-end verification reports.

Each check compares a quantity computed one way (a rank, a count, an exact
integral) against a bound assembled from closed-form invariants, and records
the outcome in a :class:`CheckReport`.  A report passes only when the margin
``rhs - lhs`` is certified nonnegative: for interval scalars that means the
*lower* endpoint of the margin is >= 0.

The desk-scale testbed at the bottom counts integer polynomials of bounded
degree whose sup norm on the unit circle is at most 1, with every norm
decision either exact or certified.
"""

from __future__ import annotations

import csv
import heapq
import io
import operator
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .hn import positive_degree
from .lattices import EuclideanLattice, RATIONAL_FIELD, gillet_soule_constant
from .scalars import (
    Exact,
    Scalar,
    _exact,
    exact_fraction,
    exp_interval,
    log_interval,
    log_scalar,
    max0,
    scalar_min,
    sqrt_interval,
)
from .series import FiberedSeries
from .towers import Tower, TowerData, epsilon

__all__ = [
    "CheckReport",
    "IntPolynomial",
    "PrecisionBudgetError",
    "geometric_hs_bound",
    "check_toric_family",
    "check_filtered",
    "h0_minima_bound",
    "check_minkowski",
    "check_blichfeldt",
    "check_gillet_soule",
    "circle_sup_norm",
    "p1z_h0",
    "reports_to_json",
    "reports_to_csv",
]


class PrecisionBudgetError(RuntimeError):
    """The requested certification precision is unreachable at the budget."""


class CheckReport:
    """Outcome of one certified comparison lhs <= rhs.

    ``margin`` is rhs - lhs (or, for composite checks, the minimum of the
    individual margins).  ``passed`` is derived from the margin on each
    access, not stored: it is true iff the margin's lower bound is
    certified nonnegative.  ``context`` carries check-specific details.
    :meth:`compare` builds the report whose margin is rhs - lhs; a check
    with another margin calls the constructor.  It keeps an interval or an
    :class:`Exact` ``lhs``, ``rhs`` or ``margin`` as it is and wraps an int or
    a Fraction as an Exact; any other type is a ``TypeError``.
    """

    __slots__ = ("name", "lhs", "rhs", "margin", "context")

    def __init__(self, name: str, lhs, rhs, margin, context=None):
        self.name, self.lhs, self.rhs, self.margin = name, *map(_report_value, (lhs, rhs, margin))
        self.context = {} if context is None else context

    @property
    def passed(self) -> bool:
        return self.margin.certified_nonneg()

    @classmethod
    def compare(cls, name: str, lhs, rhs, context=None) -> "CheckReport":
        return cls(name, lhs, rhs, rhs - lhs, dict(context or {}))

    def to_json(self):
        return {
            "name": self.name,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "margin": self.margin.to_json(),
            "pass": self.passed,
            "context": {k: _context_value(v) for k, v in sorted(self.context.items())},
        }


def _report_value(value):
    """A report's lhs, rhs or margin: an interval or an Exact as it is, an
    int or a Fraction as an Exact."""
    if type(value) is Scalar or type(value) is Exact:
        return value
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"a report value is a Scalar, an int or a Fraction, not {type(value).__name__}")
    return _exact(value)


def _context_value(v):
    if isinstance(v, Scalar):
        return v.to_json()
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_context_value(x) for x in v]
    return v


def reports_to_json(reports) -> list:
    return [r.to_json() for r in reports]


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "lhs", "rhs", "margin", "pass"])
    for r in reports:
        writer.writerow(
            [r.name, _csv_scalar(r.lhs), _csv_scalar(r.rhs), _csv_scalar(r.margin), r.passed]
        )
    return buf.getvalue()


def _csv_scalar(s) -> str:
    if s.is_rational:
        return str(s.as_fraction())
    return f"{s.midpoint():.15g}"


# ---------------------------------------------------------------------------
# geometric assemblies
# ---------------------------------------------------------------------------


def geometric_hs_bound(vol, dim: int, eps) -> Fraction:
    """Degree-one rank bound vol / dim! + eps for a dim-dimensional scheme, a
    Fraction; ``exact_fraction`` reads both inputs, so an interval is a TypeError."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    vol, eps = exact_fraction(vol), exact_fraction(eps)
    if vol < 0 or eps < 0:
        raise ValueError("volume and error term must be nonnegative")
    return vol / factorial(dim) + eps


def check_toric_family(F: FiberedSeries) -> CheckReport:
    """Degree-one rank of the Hirzebruch family vs the recursive bound.

    lhs: exact section count of the pushforward at n = 1.
    rhs: volume / 2! + eps of the genus-(0,0) tower with mu = (a, b) and
    vol = (volume, b), where volume = 2ab - eb^2, the normalized area of the
    trapezoid, is the closed form ``volume_via_fibers``.
    The margin works out to exactly e*b/2, so the bound is tight on P1 x P1.
    """
    if F.a < F.e * F.b:
        raise ValueError("family requires a >= e*b")
    lhs = F.pushforward(1).h0()
    volume = F.volume_via_fibers()
    eps = epsilon(Tower((0, 0)), TowerData(mu=(F.a, F.b), vol=(volume, F.b)))
    rhs = geometric_hs_bound(volume, 2, eps)
    return CheckReport.compare(
        f"geometric a={F.a} b={F.b} e={F.e}",
        lhs,
        rhs,
        {
            "volume": volume,
            "epsilon": eps,
            "expected_margin": Fraction(F.e * F.b, 2),
        },
    )


def check_filtered(F: FiberedSeries) -> CheckReport:
    """Filtered version: integral of the degree-one filtered ranks vs the
    integrated filtered volumes plus the asymptotic-slope error term.

    lhs: exact piecewise integral of rank F^t(E_1) over t >= 0, read off the
    HN type of E_1 like the positive degree it equals (recorded in context).
    rhs: integral of filtered volumes / 1! + mu_max_asy * eps(fiber tower).
    """
    if F.a < F.e * F.b:
        raise ValueError("family requires a >= e*b")
    hn = F.pushforward(1).hn_type()
    lhs = hn.positive_rank_integral()
    eps = epsilon(Tower((0,)), TowerData(mu=(F.b,), vol=(F.b,)))
    rhs = F.volume_via_fibers() / 2 + F.mu_max_asy() * eps
    deg_plus = hn.deg_plus()
    return CheckReport.compare(
        f"filtered a={F.a} b={F.b} e={F.e}",
        lhs,
        rhs,
        {
            "deg_plus_pushforward": deg_plus,
            "lhs_equals_deg_plus": lhs == deg_plus,
            "epsilon_fiber": eps,
        },
    )


# ---------------------------------------------------------------------------
# lattice assemblies
# ---------------------------------------------------------------------------


def _positive_minima(L: EuclideanLattice) -> Scalar:
    """sum max(lambda_i, 0) over the successive minima, added in order."""
    return sum(max0(lam) for lam in L.successive_minima())


@lru_cache(maxsize=256)
def _rank_constants(r: int) -> tuple[Scalar, Scalar, Scalar]:
    """r ln 2, r ln 2 - ln r! and ln(2 r!): the rank-r constants of the lattice
    checks and p1z, built once per rank.  A memoized value is the interval a
    fresh evaluation computes."""
    r_ln2 = r * log_scalar(2)
    return r_ln2, r_ln2 - log_scalar(factorial(r)), log_scalar(2 * factorial(r))


def _count_bound(positive_minima, r: int) -> Scalar:
    """positive_minima + r ln 2 + ln(2 r!), the bound on a rank-r log-count."""
    r_ln2, _, ln_2r_fact = _rank_constants(r)
    return positive_minima + r_ln2 + ln_2r_fact


def h0_minima_bound(L: EuclideanLattice) -> CheckReport:
    """Log-count of norm <= 1 vectors vs the positive minima plus r ln 2 + ln(2 r!)."""
    r = L.rank
    return CheckReport.compare(
        f"minima-bound rank={r}",
        L.h0_hat(),
        _count_bound(_positive_minima(L), r),
        {"count": L.h0_count(), "rank": r},
    )


def check_minkowski(L: EuclideanLattice) -> CheckReport:
    """Double inequality r ln2 - ln r! <= chi - sum(lambda_i) <= r ln2.

    The report's margin is the minimum of the two one-sided margins, so it
    passes only when both sides are certified.
    """
    r = L.rank
    chi = L.euler_char()
    lam_sum = sum(L.successive_minima())
    sandwiched = chi - lam_sum
    upper, lower, _ = _rank_constants(r)
    margin = scalar_min(upper - sandwiched, sandwiched - lower)
    return CheckReport(
        f"minkowski rank={r}",
        sandwiched,
        upper,
        margin,
        {"lower": lower, "chi": chi, "lambda_sum": lam_sum},
    )


def check_blichfeldt(L: EuclideanLattice) -> CheckReport:
    """Counting bound: h0_hat <= ln(r! e^chi + r)."""
    r = L.rank
    lhs = L.h0_hat()
    chi = L.euler_char()
    rhs = log_interval(factorial(r) * exp_interval(chi) + r)
    return CheckReport.compare(
        f"blichfeldt rank={r}", lhs, rhs, {"count": L.h0_count(), "chi": chi}
    )


def check_gillet_soule(L: EuclideanLattice) -> CheckReport:
    """|h0_hat - positive degree| <= C(Q, r) for diagonal lattices.

    Section counts are computed over Z, so the field is the rationals, the
    one field :func:`~hnbounds.lattices.gillet_soule_constant` takes.  The
    positive degree is summed over the orthogonal slopes, which the exact
    diagonal orders, so no slope comparison is certified.

    At rank 1 the inequality can hold with exact equality (for the unit
    lattice both sides are ln 3), which no interval can certify; that single
    tie is resolved by exact rational comparison: with q the product of the
    reciprocals of the sub-1 diagonal entries, the margin is nonnegative iff
    max(count^2/q, q/count^2) <= 9 = exp(2 C(Q, 1)), as C(Q, 1) = ln 3.
    """
    r = L.rank
    deg_plus = positive_degree(L.orthogonal_slopes())
    lhs = abs(L.h0_hat() - deg_plus)
    rhs = gillet_soule_constant(RATIONAL_FIELD, r)
    margin = rhs - lhs
    lo, hi = margin.bounds()
    if lo < 0 <= hi and r == 1:
        # C(Q, 1) = ln 3 exactly; decide 2*margin = ln 9 - |ln(count^2/q)| on
        # exact rationals (q as in the docstring).
        d = L.gram[0][0]
        q = 1 / d if d < 1 else Fraction(1)
        ratio = Fraction(L.h0_count()) ** 2 / q
        worst = max(ratio, 1 / ratio)
        if worst == 9:
            margin = 0
        elif worst < 9:
            margin = max0(margin)
    return CheckReport(
        f"gillet-soule rank={r} diag={[str(L.gram[i][i]) for i in range(r)]}",
        lhs,
        rhs,
        margin,
        {"count": L.h0_count(), "deg_plus": deg_plus},
    )


# ---------------------------------------------------------------------------
# integer polynomials on the unit circle
# ---------------------------------------------------------------------------

MAX_CIRCLE_DEGREE = 64
# halvings per norm: over 400 seeded polynomials of degree 2..64 the most
# taken was 19 at width 1/8, 28 at 2^-20 and 61 at 2^-60
_MAX_SPLITS = 128


class IntPolynomial:
    """Integer polynomial a_0 + a_1 x + ... (constant coefficient first)."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = tuple(operator.index(c) for c in coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0,)
        self.coefficients = coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        if self.coefficients == (0,):
            return -1
        return len(self.coefficients) - 1

    def sum_abs(self) -> int:
        return sum(abs(c) for c in self.coefficients)

    def max_abs(self) -> int:
        return max(abs(c) for c in self.coefficients)

    def autocorrelation(self) -> list[int]:
        """c_m = sum_k a_k a_{k+m}; |p(e^{i t})|^2 = c_0 + 2 sum_m c_m cos(m t)."""
        a = self.coefficients
        n = len(a)
        return [sum(a[k] * a[k + m] for k in range(n - m)) for m in range(n)]


def circle_sup_norm(p: IntPolynomial, precision: Fraction) -> Scalar:
    """Certified interval around max |p(z)| over |z| = 1, width <= precision.

    Uses the coefficient sandwich max|a_k| <= norm <= sum|a_k| for early
    acceptance.  Otherwise R(s) = |p(e^{it})|^2 with cos t = 2s - 1 is an
    integer polynomial of degree deg on [0, 1] (:func:`_square_on_unit_interval`),
    and best-first Bernstein subdivision brackets its maximum in exact
    rationals: on each piece the largest Bernstein coefficient bounds R from
    above, and the two end coefficients are values of R, so lower bounds.
    The piece with the largest upper bound is halved until the square root
    of [best value, largest upper bound] is no wider than ``precision``.
    :class:`PrecisionBudgetError` is raised after ``_MAX_SPLITS`` halvings,
    or at once when the square root of the best value alone is too wide.
    """
    precision = exact_fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    deg = p.degree
    if deg > MAX_CIRCLE_DEGREE:
        raise ValueError(f"degree {deg} exceeds the budget ({MAX_CIRCLE_DEGREE})")
    lo_frac = Fraction(p.max_abs())
    hi_frac = Fraction(p.sum_abs())
    if deg <= 0 or hi_frac - lo_frac <= precision:
        return Scalar.from_fraction_bounds(lo_frac, hi_frac)

    def root(square_lo, square_hi):
        """The sandwich-clipped square root of [square_lo, square_hi]."""
        lo, hi = sqrt_interval(Scalar.from_fraction_bounds(square_lo, square_hi)).bounds()
        return max(lo, lo_frac), min(hi, hi_frac)

    b = _bernstein(_square_on_unit_interval(p.autocorrelation()))
    best = max(b[0], b[-1])
    heap = [(-max(b), 0, b)]
    for splits in range(_MAX_SPLITS + 1):
        top = max(-heap[0][0], best) if heap else best
        low, high = root(best, top)
        if high - low <= precision:
            return Scalar.from_fraction_bounds(low, high)
        point_lo, point_hi = root(best, best)
        if splits == _MAX_SPLITS or point_hi - point_lo > precision:
            break  # out of budget, or the exact value best alone is too wide
        halves = _halves(heapq.heappop(heap)[2])
        best = max(best, halves[1][0])  # the one new end coefficient, R(midpoint)
        for i, half in enumerate(halves):
            if max(half) > best:
                heapq.heappush(heap, (-max(half), 2 * splits + i + 1, half))
    raise PrecisionBudgetError(
        f"cannot certify the circle norm to width {precision} within the subdivision budget"
    )


def _square_on_unit_interval(corr) -> list[int]:
    """Integer power coefficients r_j of R(s) = |p(e^{it})|^2, cos t = 2s - 1.

    R = c_0 + 2 sum_m c_m T_m(2s - 1) with the shifted Chebyshev polynomials
    T_0 = 1, T_1 = 2s - 1, T_{m+1} = 2(2s - 1) T_m - T_{m-1}: no trigonometry.
    Real coefficients give |p(e^{-it})| = |p(e^{it})|, so s in [0, 1]
    (t in [0, pi]) covers the whole circle.
    """
    n = len(corr) - 1
    r = [corr[0]] + [0] * n
    prev, cur = [1] + [0] * n, [-1, 2] + [0] * (n - 1)  # T_0, T_1
    for c in corr[1:]:
        r = [x + 2 * c * t for x, t in zip(r, cur)]
        # T_{m+1} = 4s T_m - 2 T_m - T_{m-1}; zip drops the unused s^(n+1) of T_(n+1)
        prev, cur = cur, [4 * u - 2 * t - q for u, t, q in zip([0] + cur, cur, prev)]
    return r


def _bernstein(r) -> list[Fraction]:
    """Bernstein coefficients on [0, 1] of sum_j r_j s^j:
    b_k = sum_(j <= k) C(k, j) / C(n, j) r_j."""
    n = len(r) - 1
    return [
        sum(Fraction(comb(k, j), comb(n, j)) * r[j] for j in range(k + 1)) for k in range(n + 1)
    ]


def _halves(b) -> tuple[list[Fraction], list[Fraction]]:
    """Bernstein coefficients of the two halves of a piece (de Casteljau at 1/2)."""
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = [(x + y) / 2 for x, y in zip(b, b[1:])]
        left.append(b[0])
        right.append(b[-1])
    return left, right[::-1]


def p1z_h0(n: int) -> tuple[int, CheckReport]:
    """Count integer polynomials of degree <= n with circle sup norm <= 1.

    The count is 2n + 3, zero and the monomials +-x^k: the coefficient
    sandwich max|a_k| <= norm <= sum|a_k| confines them to {-1, 0, 1}^(n+1)
    and accepts those with sum|a_k| <= 1, and Parseval, ||p||^2 >= (1/2 pi)
    int |p|^2 = sum a_k^2 >= 2, rejects every other one.  The degree budget
    is the circle norm's, ``MAX_CIRCLE_DEGREE``.

    Returns the count and a report checking ln(count) against the minima
    bound of the coefficient lattice, whose log minima all vanish: every
    nonzero integer polynomial has norm >= max|a_k| >= 1, and the monomials
    x^k attain norm exactly 1 with full rank.
    """
    if n < 0:
        raise ValueError("degree bound must be >= 0")
    if n > MAX_CIRCLE_DEGREE:
        raise ValueError(f"degree bound {n} exceeds the budget ({MAX_CIRCLE_DEGREE})")
    count = 2 * n + 3

    r = n + 1
    report = CheckReport.compare(
        f"p1z degree<={n}",
        log_scalar(count),
        _count_bound(0, r),
        {
            "count": count,
            "rank": r,
            "minima_all_zero": True,
        },
    )
    return count, report
