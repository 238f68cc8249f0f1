"""Certified real intervals, and the exact value of a report.

Every numeric quantity in this library is exact or an interval.  An exact
value is an int or a ``fractions.Fraction`` from input to report, read by
:func:`exact_fraction`, the one reader of exact input.  A :class:`Scalar` is
a certified real interval: a pair of arbitrary-precision floats guaranteed
to bracket the true real value, as logarithmic quantities (log-counts,
Arakelov degrees, Stirling-type constants) are.  An exact value meets an
interval in the interval's arithmetic operators, reflected ones included
(``Fraction``'s return ``NotImplemented`` for a type they do not know),
which promote it with outward rounding; :func:`max0`, :func:`order`,
:func:`verdict` and :func:`exact_bounds` take either kind.  A report keeps an
exact value as an :class:`Exact`, a ``Fraction`` that answers a report
reader's reads.

An interval is held as the raw endpoint pair ``(lo, hi)`` of mpmath's
``libmpf`` tuples ``(sign, man, exp, bc)``, and every interval operation
calls ``mpmath.libmp``'s ``mpi_*`` functions directly at ``PREC`` = 120
bits, rounding the lower end down and the upper end up.  Those are the
functions mpmath's ``MPIntervalContext`` runs underneath its ``ivmpf``
objects, so the endpoints are the ones that context computes; the tests keep
it as the reference.  A rational enters interval arithmetic as the quotient
of its numerator and denominator, each rounded outward to ``PREC`` bits.

Interval endpoints are dyadic rationals, so :func:`order`, the one certified
comparison, is exact, and returns ``None`` instead of guessing when the
bounds overlap.  An interval compares and hashes by identity.

The common operations avoid converting between representations.  An
interval's sign tests, :func:`verdict`, :func:`max0`, ``abs``, and
:func:`order`, ``scalar_min`` and ``scalar_max`` with another interval read
the raw endpoints: the sign bit, and mpmath's ``mpf_lt`` between endpoints.
They give what the exact bounds would, and they too raise
:class:`CertificationError` on a non-finite endpoint.  Only an exact value
against an interval converts the endpoints to ``Fraction``.  Results are
built by one private constructor, :func:`_interval`.

A Scalar pickles as its raw endpoint tuples of integers, so a worker process
gets back the very same interval.

Scalars are immutable, so constants are computed once: ``PI`` and ``LOG_PI``
on their first use, :func:`log_ball_volume` once per dimension, and
:func:`log_scalar` once per exact rational value, in a fixed-size memo of this
process (a worker process fills its own).  A memoized value is the very
interval a fresh call would compute, so sharing it changes no bound.

mpmath is loaded by this module only, and only its arithmetic kernel
``mpmath.libmp``, when an interval operation first needs it: building an
interval from a rational, interval arithmetic, or ``PI`` and ``LOG_PI``.
Unless the process has imported mpmath already, ``libmp`` is loaded without
mpmath's package ``__init__`` and kept private to this module, and no
``mpmath`` module stays in ``sys.modules`` (:func:`_load_libmp`).  Exact
arithmetic never loads it, nor does reading a finished interval's raw
endpoints: its sign, :meth:`bounds`, :meth:`midpoint`, :meth:`to_json` and
unpickling.  :meth:`to_json` prints an endpoint from its integers, and the
midpoint is the float of an integer quotient.
"""

from __future__ import annotations

import importlib.util
import math
import operator
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Union

PREC = 120


class _LazyLibmp:
    """Stands in for ``mpmath.libmp`` until its first attribute is read, then
    loads it and puts the module in its own place: each later read is a
    plain module attribute."""

    def __getattr__(self, name):
        global _libmp
        _libmp = _load_libmp()
        return getattr(_libmp, name)


def _load_libmp():
    """``mpmath.libmp``, without running mpmath's package ``__init__``.

    A process that has imported mpmath gets its ``libmp``.  Otherwise
    ``libmp`` is imported under an unexecuted stand-in for the package, and
    then the stand-in and every ``mpmath.*`` module the import added leave
    ``sys.modules``: this module keeps a private ``libmp``, and a later
    ``import mpmath`` builds the whole package afresh.  Both must go: a
    ``libmp`` left behind would be picked up by that import, which would
    then not set the package's ``libmp`` attribute.  The private copy stays
    sound because the ``libmp`` functions called here import nothing when
    called, and intervals are plain tuples of ints that either copy reads.
    """
    mpmath = sys.modules.get("mpmath")
    if mpmath is not None:
        return mpmath.libmp
    spec = importlib.util.find_spec("mpmath")
    if spec is None:
        raise ModuleNotFoundError("No module named 'mpmath'", name="mpmath")
    before = set(sys.modules)
    sys.modules["mpmath"] = importlib.util.module_from_spec(spec)
    try:
        return importlib.import_module("mpmath.libmp")
    finally:
        for name in set(sys.modules) - before:
            if name.partition(".")[0] == "mpmath":
                del sys.modules[name]


_libmp = _LazyLibmp()

# the least value a float rounds to infinity: the largest float plus half its ulp
_FLOAT_OVERFLOW = 2**1024 - 2**970

RationalLike = Union[int, Fraction, str]


def _midpoint(lo: int, hi: int, den: int) -> float:
    """The midpoint of [lo/den, hi/den] as a float; ``±inf`` past the float range.

    An int quotient is correctly rounded, as ``float`` of the reduced
    ``Fraction`` is, so this is ``float(lo + hi) / 2`` of the exact bounds.
    """
    try:
        return (lo + hi) / den / 2 if lo != hi else lo / den
    except OverflowError:  # the sum, and perhaps the midpoint, is past the range
        return _float(Fraction(lo + hi, 2 * den))


def _float(x: Fraction) -> float:
    """``float(x)``, or ``±inf`` where that would overflow."""
    return float(x) if abs(x) < _FLOAT_OVERFLOW else math.inf if x > 0 else -math.inf


class CertificationError(ArithmeticError):
    """A comparison or sign query could not be decided from interval bounds."""


def _raw_to_fraction(raw) -> Fraction:
    """Exact value of a raw mpf endpoint tuple (endpoints are dyadic)."""
    sign, man, exp, _ = raw
    if man == 0 and exp != 0:  # mpmath's encoding of +-inf and nan
        raise CertificationError("interval endpoint is not finite")
    man = -int(man) if sign else int(man)
    if exp >= 0:
        return Fraction(man << exp)
    return Fraction(man, 1 << -exp)


def _finite(raw):
    """The raw interval itself; CertificationError if an endpoint is not finite.

    A finite endpoint's sign bit is its sign, and it is zero iff its mantissa
    is (mpmath keeps one zero, ``fzero``, and marks +-inf and nan by a zero
    mantissa with a nonzero exponent).
    """
    lo, hi = raw
    if (not lo[1] and lo[2]) or (not hi[1] and hi[2]):
        raise CertificationError("interval endpoint is not finite")
    return raw


def _lower_sign(raw) -> int:
    """Sign of a raw interval's lower bound (-1, 0, 1); CertificationError on
    a non-finite endpoint, as :meth:`Scalar.bounds` raises."""
    lo = _finite(raw)[0]
    return -1 if lo[0] else int(bool(lo[1]))


def _aligned(raw) -> tuple[int, int, int]:
    """A finite raw interval as ints ``(lo, hi, den)``: its exact bounds are
    ``lo/den`` and ``hi/den``, with ``den`` the least common power of two."""
    (slo, mlo, elo, _), (shi, mhi, ehi, _) = _finite(raw)
    e = min(elo, ehi, 0)
    lo, hi = int(mlo) << (elo - e), int(mhi) << (ehi - e)
    return (-lo if slo else lo, -hi if shi else hi, 1 << -e)


def _endpoint_str(raw) -> str:
    """A finite raw endpoint's exact value as ``str`` of its ``Fraction``
    prints it.  mpmath keeps the mantissa odd, so ``man/2^-exp`` is already
    in lowest terms."""
    sign, man, exp, _ = raw
    text = str(int(man) << exp) if exp >= 0 else f"{int(man)}/{1 << -exp}"
    return "-" + text if sign else text


def _int_to_raw(n: int):
    """Raw interval of the integer n, each end rounded outward to PREC bits."""
    lo = _libmp.from_int(n, PREC, _libmp.round_floor)
    if n.bit_length() <= PREC:  # exactly representable: both ends agree
        return (lo, lo)
    return (lo, _libmp.from_int(n, PREC, _libmp.round_ceiling))


def _fraction_to_raw(f: Fraction):
    """Raw interval guaranteed to contain the exact rational f."""
    if f.denominator == 1:
        return _int_to_raw(f.numerator)
    return _libmp.mpi_div(_int_to_raw(f.numerator), _int_to_raw(f.denominator), PREC)


class Scalar:
    """A certified real interval.

    Build one with :meth:`from_fraction_bounds` or the ``log*`` helpers in
    this module.  An int or a ``Fraction`` operand, on either side, is
    promoted with outward rounding, so results always contain the true
    value.  It compares and hashes by identity; :func:`order` decides it.
    """

    __slots__ = ("_ivl",)

    is_rational = False

    # -- construction --------------------------------------------------

    @staticmethod
    def exact(value: RationalLike) -> "Exact":
        """The :class:`Exact` of :func:`exact_fraction`'s value, for outside callers."""
        q = exact_fraction(value)
        return _ratio(Exact, q.numerator, q.denominator)

    @classmethod
    def from_fraction_bounds(cls, lo: Fraction, hi: Fraction) -> "Scalar":
        """The interval containing [lo, hi] (outward rounding)."""
        if lo > hi:
            raise ValueError("lower bound exceeds upper bound")
        return _interval((_fraction_to_raw(lo)[0], _fraction_to_raw(hi)[1]))

    # -- bounds --------------------------------------------------------

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Exact lower and upper bounds."""
        a_raw, b_raw = self._ivl
        return (_raw_to_fraction(a_raw), _raw_to_fraction(b_raw))

    def width(self) -> Fraction:
        lo, hi = self.bounds()
        return hi - lo

    def midpoint(self) -> float:
        """The midpoint as a float; ``±inf`` past the float range."""
        return _midpoint(*_aligned(self._ivl))

    # -- arithmetic ----------------------------------------------------

    # The ops are written out: a lookup of the ``mpi_*`` function by name
    # would add a call to every op.  ``_raw`` is None for an operand of
    # another type.

    def __add__(self, other):
        raw = _raw(other)
        if raw is None:
            return NotImplemented
        return _interval(_libmp.mpi_add(self._ivl, raw, PREC))

    __radd__ = __add__

    def __sub__(self, other):
        raw = _raw(other)
        if raw is None:
            return NotImplemented
        return _interval(_libmp.mpi_sub(self._ivl, raw, PREC))

    def __rsub__(self, other):
        raw = _raw(other)
        if raw is None:
            return NotImplemented
        return _interval(_libmp.mpi_sub(raw, self._ivl, PREC))

    def __mul__(self, other):
        raw = _raw(other)
        if raw is None:
            return NotImplemented
        return _interval(_libmp.mpi_mul(self._ivl, raw, PREC))

    __rmul__ = __mul__

    def __truediv__(self, other):
        raw = _raw(other)
        if raw is None:
            return NotImplemented
        return _divide(self._ivl, raw)

    def __rtruediv__(self, other):
        raw = _raw(other)
        if raw is None:
            return NotImplemented
        return _divide(raw, self._ivl)

    def __neg__(self):
        return _interval(_libmp.mpi_neg(self._ivl, PREC))

    def __abs__(self) -> "Scalar":
        """Interval extension of |x|."""
        lo, hi = _finite(self._ivl)
        if not lo[0]:
            return self
        if hi[0] or not hi[1]:
            return -self
        neg_lo = _libmp.mpf_neg(lo)
        return _interval((_libmp.fzero, hi if _libmp.mpf_lt(neg_lo, hi) else neg_lo))

    # -- display / serialization ----------------------------------------

    def __reduce__(self):
        return (_interval, (self._ivl,))

    def __repr__(self):
        return f"Scalar(~{self.midpoint():.12g}, width={_float(self.width()):.3g})"

    def to_json(self):
        """``{"lo": .., "hi": .., "approx": ..}``; ``approx`` is ``None`` past
        the float range."""
        approx = _midpoint(*_aligned(self._ivl))
        lo, hi = self._ivl
        return {
            "lo": _endpoint_str(lo),
            "hi": _endpoint_str(hi),
            "approx": approx if math.isfinite(approx) else None,
        }


class Exact(Fraction):
    """A report's exact lhs, rhs or margin: a ``Fraction`` that answers the
    reads a report reader makes of an interval, :meth:`to_json` printing
    ``"p/q"``.  Arithmetic on it gives plain ``Fraction``s."""

    __slots__ = ()

    is_rational = True
    to_json = Fraction.__str__

    def as_fraction(self) -> Fraction:
        return self

    def bounds(self) -> tuple[Fraction, Fraction]:
        return (self, self)

    def midpoint(self) -> float:
        """The value as a float; ``±inf`` past the float range."""
        return _midpoint(self.numerator, self.numerator, self.denominator)


def exact_fraction(value: RationalLike) -> Fraction:
    """The exact rational of an int, a ``Fraction`` (an :class:`Exact`
    included, returned as it is) or a ``"p/q"`` string.  A Scalar, a float
    or any other type is a ``TypeError``: an interval has no exact value,
    and a float's binary value is not the rational it was meant to be."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot read an exact rational from {type(value).__name__}")


_new = object.__new__


def _interval(raw) -> Scalar:
    """The Scalar holding the raw endpoint pair: the one constructor."""
    s = _new(Scalar)
    s._ivl = raw
    return s


def _ratio(cls, numerator: int, denominator: int):
    """The ``Fraction`` or ``Exact`` of a numerator and a positive denominator
    in lowest terms, built past ``Fraction.__new__``'s parsing and gcd."""
    q = _new(cls)
    q._numerator, q._denominator = numerator, denominator
    return q


def _raw(x):
    """The raw interval of a Scalar, or of an int or a Fraction promoted with
    outward rounding; None for any other type."""
    if type(x) is Scalar:
        return x._ivl
    if isinstance(x, Fraction):
        return _fraction_to_raw(x)
    if isinstance(x, int):
        return _int_to_raw(x)
    return None


def _divide(a, b) -> Scalar:
    """a / b of raw intervals; CertificationError when b holds 0."""
    lo, hi = _finite(b)
    if (lo[0] or not lo[1]) and not hi[0]:  # lo <= 0 <= hi
        raise CertificationError("division by a scalar whose bounds straddle zero")
    return _interval(_libmp.mpi_div(a, b, PREC))


def exact_bounds(x) -> tuple[Fraction, Fraction]:
    """Exact lower and upper bounds of a Scalar, or of a value
    :func:`exact_fraction` reads (a float is a ``TypeError``)."""
    if type(x) is Scalar:
        return x.bounds()
    x = exact_fraction(x)
    return (x, x)


def max0(x):
    """max(x, 0) of a value :func:`exact_fraction` reads, exact (a float is a
    ``TypeError``), or of a Scalar, as the exact interval extension.

    An interval's endpoints stay as they are or become zero: they are dyadic
    with at most PREC bits, so the outward rounding of the bounds changes
    none of them.
    """
    if type(x) is not Scalar:
        x = exact_fraction(x)
        return x if x.numerator >= 0 else Fraction(0)
    lo, hi = _finite(x._ivl)
    if not lo[0]:
        return x
    return _interval((_libmp.fzero, _libmp.fzero if hi[0] else hi))


def order(a, b):
    """-1, 0, +1 when the bounds decide a against b; None when they overlap.

    Each of a and b is a Scalar or a value :func:`exact_fraction` reads (a
    float is a ``TypeError``).  Two exact values cross-multiply (denominators
    are positive), two intervals compare raw endpoints, and an exact value
    against an interval compares exact bounds.
    """
    if type(a) is Scalar and type(b) is Scalar:
        (alo, ahi), (blo, bhi) = _finite(a._ivl), _finite(b._ivl)
        lt = _libmp.mpf_lt
    elif type(a) is Scalar or type(b) is Scalar:
        (alo, ahi), (blo, bhi) = exact_bounds(a), exact_bounds(b)
        lt = operator.lt
    else:
        a, b = exact_fraction(a), exact_fraction(b)
        x, y = a.numerator * b.denominator, b.numerator * a.denominator
        return (x > y) - (x < y)
    if lt(ahi, blo):
        return -1
    if lt(bhi, alo):
        return 1
    if alo == ahi == blo == bhi:
        return 0
    return None


def verdict(margin):
    """The verdict on a margin, a Scalar or a value :func:`exact_fraction`
    reads: True when its lower end is >= 0, False when its upper end is < 0,
    None when it straddles 0 and the bounds decide nothing."""
    if type(margin) is not Scalar:
        return exact_fraction(margin).numerator >= 0
    lo, hi = _finite(margin._ivl)
    if not lo[0]:
        return True
    return False if hi[0] else None


@lru_cache(maxsize=None)
def _pi_constants() -> tuple[Scalar, Scalar, tuple]:
    """``PI``, ``LOG_PI`` and the raw interval of 2 pi, computed on first use."""
    pi = _interval((_libmp.mpf_pi(PREC, _libmp.round_floor), _libmp.mpf_pi(PREC, _libmp.round_ceiling)))
    return pi, _interval(_libmp.mpi_log(pi._ivl, PREC)), _libmp.mpi_mul(_int_to_raw(2), pi._ivl, PREC)


def __getattr__(name: str):
    """``PI`` and ``LOG_PI``, read as module attributes, load on first use."""
    if name == "PI":
        return _pi_constants()[0]
    if name == "LOG_PI":
        return _pi_constants()[1]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _extreme(pick, a, b):
    """Interval extension of ``pick`` (max or min); exact for exact values.

    Two exact values are read through :func:`exact_fraction` (a float is a
    ``TypeError``, a string is read) and the picked one is returned.  Two
    intervals keep the picked raw endpoints: they are dyadic with at most
    PREC bits, so outward rounding of their exact values would change none
    of them, and ``mpf_lt`` compares them exactly.  An exact value against
    an interval compares exact bounds and rounds the picked ones outward.
    """
    if type(a) is not Scalar and type(b) is not Scalar:
        return pick(exact_fraction(a), exact_fraction(b))
    if type(a) is Scalar and type(b) is Scalar:
        (alo, ahi), (blo, bhi) = _finite(a._ivl), _finite(b._ivl)
        larger = pick is max
        return _interval((
            alo if _libmp.mpf_lt(blo, alo) is larger else blo,
            ahi if _libmp.mpf_lt(bhi, ahi) is larger else bhi,
        ))
    (alo, ahi), (blo, bhi) = exact_bounds(a), exact_bounds(b)
    return Scalar.from_fraction_bounds(pick(alo, blo), pick(ahi, bhi))


def scalar_max(a, b):
    """Interval extension of max of Scalars and values
    :func:`exact_fraction` reads; exact for exact values."""
    return _extreme(max, a, b)


def scalar_min(a, b):
    """Interval extension of min of Scalars and values
    :func:`exact_fraction` reads; exact for exact values."""
    return _extreme(min, a, b)


def log_scalar(x: RationalLike) -> Scalar:
    """Certified ln of a positive rational, memoized on
    its exact value: a repeated argument gets the interval a fresh call
    computes."""
    return _log_fraction(exact_fraction(x))


@lru_cache(maxsize=256)
def _log_fraction(x: Fraction) -> Scalar:
    if x <= 0:
        raise ValueError("log of a non-positive rational")
    return _interval(_libmp.mpi_log(_fraction_to_raw(x), PREC))


def _neg_half(raw):
    """-x/2 of a finite raw endpoint: flip the sign bit, lower the exponent."""
    sign, man, exp, bc = raw
    return (1 - sign, man, exp - 1, bc) if man else raw


def neg_half_log(x: RationalLike) -> Scalar:
    """-(1/2) ln x of a positive rational x, certified.

    Negation and halving are exact in binary, so the endpoints of ln x are
    mapped without rounding, and the result is bit for bit the interval
    ``0 - Fraction(1, 2) * log_scalar(x)``.
    """
    lo, hi = log_scalar(x)._ivl
    return _interval((_neg_half(hi), _neg_half(lo)))


def log_interval(x) -> Scalar:
    """Certified ln of a positive Scalar, int or Fraction (promoted as the
    operators promote it; so are the arguments of the two below)."""
    raw = _raw(x)
    if _lower_sign(raw) <= 0:
        raise CertificationError("log requires certified positive bounds")
    return _interval(_libmp.mpi_log(raw, PREC))


def sqrt_interval(x) -> Scalar:
    raw = _raw(x)
    if _lower_sign(raw) < 0:
        raise CertificationError("sqrt requires certified nonnegative bounds")
    return _interval(_libmp.mpi_sqrt(raw, PREC))


def exp_interval(x) -> Scalar:
    return _interval(_libmp.mpi_exp(_raw(x), PREC))


def log_gamma(x: RationalLike) -> Scalar:
    """Certified ln Gamma(x) for positive rational x."""
    x = exact_fraction(x)
    if x <= 0:
        raise ValueError("log_gamma requires a positive argument")
    return _interval(_libmp.mpi_loggamma(_fraction_to_raw(x), PREC))


@lru_cache(maxsize=256)
def log_ball_volume(n: int) -> Scalar:
    """ln of the Lebesgue volume of the unit ball in R^n.

    V(B_n) = pi^(n/2) / Gamma(n/2 + 1).
    """
    if n < 1:
        raise ValueError("ball dimension must be >= 1")
    half_n = Fraction(n, 2)
    return half_n * _pi_constants()[1] - log_gamma(half_n + 1)


def cos_2pi(frac: RationalLike) -> Scalar:
    """Certified cos(2*pi*frac) of an exact rational."""
    angle = _libmp.mpi_mul(_pi_constants()[2], _fraction_to_raw(exact_fraction(frac)), PREC)
    return _interval(_libmp.mpi_cos(angle, PREC))
