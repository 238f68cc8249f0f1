"""Exact scalars: rational numbers and certified real intervals.

Every numeric quantity in this library that an interval can reach is a
:class:`Scalar`.  A scalar is either *rational* (an exact
``fractions.Fraction``, closed under +, -, *, /) or an *interval* (a pair of
arbitrary-precision floats guaranteed to bracket the true real value).
Logarithmic quantities (log-counts, Arakelov degrees, Stirling-type
constants) live in interval mode.  The geometric modules (``towers``,
``series``, ``curves``) compute on ``Fraction`` and int, read through
:func:`exact_fraction`; :class:`~hnbounds.bounds.CheckReport` wraps an exact
value as a rational Scalar when a report takes it.

An interval is held as the raw endpoint pair ``(lo, hi)`` of mpmath's
``libmpf`` tuples ``(sign, man, exp, bc)``, and every interval operation
calls ``mpmath.libmp``'s ``mpi_*`` functions directly at ``PREC`` = 120
bits, rounding the lower end down and the upper end up.  Those are the
functions mpmath's ``MPIntervalContext`` runs underneath its ``ivmpf``
objects, so the endpoints are the ones that context computes; the tests keep
it as the reference.  A rational enters interval arithmetic as the quotient
of its numerator and denominator, each rounded outward to ``PREC`` bits.

Interval endpoints are dyadic rationals, so mixed rational/interval
comparisons are exact.  A comparison whose outcome is not determined by the
endpoints raises :class:`CertificationError` instead of guessing.

The common operations avoid converting between representations.  A rational
is a ``Fraction`` and its arithmetic, comparisons and sign tests work on that
``Fraction`` directly; results are built by a private constructor that skips
``__init__``.  An interval's sign tests, ``max0``, ``abs``, and comparisons,
``scalar_min`` and ``scalar_max`` with another interval read the raw
endpoints: the sign bit, and mpmath's ``mpf_lt`` between endpoints.  They
give what the exact bounds would, and they too raise
:class:`CertificationError` on a non-finite endpoint.  Only a rational
against an interval converts the endpoints to ``Fraction``.

A Scalar pickles as integers: a rational as its numerator and denominator,
an interval as its raw endpoint tuples, so a worker process gets back the
very same value.

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
``mpmath`` module stays in ``sys.modules`` (:func:`_load_libmp`).  Rational
arithmetic never loads it, nor does reading a finished interval's raw
endpoints: its sign, :meth:`bounds`, :meth:`midpoint`, :meth:`to_json` and
unpickling.  :meth:`to_json` prints an endpoint from its integers, and the
midpoint is the float of an integer quotient.  The rest of the package sees
:class:`Scalar`.
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

RationalLike = Union[int, Fraction, str, "Scalar"]


def _midpoint(lo: int, hi: int, den: int) -> float:
    """The midpoint of [lo/den, hi/den] as a float; ``±inf`` past the float range.

    An int quotient is correctly rounded, as ``float`` of the reduced
    ``Fraction`` is, so this is ``float(lo + hi) / 2`` of the exact bounds.
    """
    try:
        return (lo + hi) / den / 2 if lo != hi else lo / den
    except OverflowError:  # the sum, and perhaps the midpoint, is past the range
        mid = Fraction(lo + hi, 2 * den)
        return float(mid) if abs(mid) < _FLOAT_OVERFLOW else math.inf if mid > 0 else -math.inf


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
    """An exact rational or a certified real interval.

    Use :meth:`Scalar.exact` for rational values and the ``log*`` helpers in
    this module for interval-mode quantities.  Arithmetic between a rational
    and an interval promotes the rational exactly (with outward rounding of
    the conversion), so results always contain the true value.
    """

    __slots__ = ("_rat", "_ivl")

    def __init__(self, rat=None, ivl=None):
        if (rat is None) == (ivl is None):
            raise ValueError("Scalar needs exactly one of a rational or an interval")
        self._rat = rat
        self._ivl = ivl

    # -- construction --------------------------------------------------

    @classmethod
    def exact(cls, value: RationalLike) -> "Scalar":
        """The rational Scalar of :func:`exact_fraction`'s value."""
        return _rational(exact_fraction(value))

    @classmethod
    def from_fraction_bounds(cls, lo: Fraction, hi: Fraction) -> "Scalar":
        """Interval-mode scalar containing [lo, hi] (outward rounding)."""
        if lo > hi:
            raise ValueError("lower bound exceeds upper bound")
        return _interval((_fraction_to_raw(lo)[0], _fraction_to_raw(hi)[1]))

    # -- mode and bounds -----------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._rat is not None

    def as_fraction(self) -> Fraction:
        if self._rat is None:
            raise TypeError("interval-mode scalar has no exact rational value")
        return self._rat

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Exact lower and upper bounds (equal in rational mode)."""
        if self._rat is not None:
            return (self._rat, self._rat)
        a_raw, b_raw = self._ivl
        return (_raw_to_fraction(a_raw), _raw_to_fraction(b_raw))

    def width(self) -> Fraction:
        lo, hi = self.bounds()
        return hi - lo

    def midpoint(self) -> float:
        """The midpoint as a float; ``±inf`` past the float range."""
        if self._rat is not None:
            n = self._rat.numerator
            return _midpoint(n, n, self._rat.denominator)
        return _midpoint(*_aligned(self._ivl))

    def _raw(self):
        """The raw interval (a rational is promoted with outward rounding)."""
        if self._ivl is not None:
            return self._ivl
        return _fraction_to_raw(self._rat)

    def _lower_sign(self) -> int:
        """Sign of the lower bound (-1, 0, 1); CertificationError on a
        non-finite endpoint, as :meth:`bounds` raises."""
        if self._rat is not None:
            n = self._rat.numerator
            return (n > 0) - (n < 0)
        lo = _finite(self._ivl)[0]
        return -1 if lo[0] else int(bool(lo[1]))

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Scalar":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, Fraction):
            return _rational(other)
        if isinstance(other, int):
            return _rational(Fraction(other))
        return NotImplemented

    # The ops are written out: handing each one its ``mpi_*`` function would
    # read ``_libmp``, and so load mpmath, for a rational pair too, and a
    # lookup by name would add a call to every interval op.

    def __add__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._rat is not None and other._rat is not None:
            return _rational(self._rat + other._rat)
        return _interval(_libmp.mpi_add(self._raw(), other._raw(), PREC))

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._rat is not None and other._rat is not None:
            return _rational(self._rat - other._rat)
        return _interval(_libmp.mpi_sub(self._raw(), other._raw(), PREC))

    def __rsub__(self, other):
        other = Scalar._coerce(other)
        return other.__sub__(self) if other is not NotImplemented else NotImplemented

    def __mul__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._rat is not None and other._rat is not None:
            return _rational(self._rat * other._rat)
        return _interval(_libmp.mpi_mul(self._raw(), other._raw(), PREC))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other._rat is not None:
            if not other._rat:
                raise CertificationError("division by a scalar whose bounds straddle zero")
            if self._rat is not None:
                return _rational(self._rat / other._rat)
        else:
            lo, hi = _finite(other._ivl)
            if (lo[0] or not lo[1]) and not hi[0]:  # lo <= 0 <= hi
                raise CertificationError("division by a scalar whose bounds straddle zero")
        return _interval(_libmp.mpi_div(self._raw(), other._raw(), PREC))

    def __rtruediv__(self, other):
        other = Scalar._coerce(other)
        return other.__truediv__(self) if other is not NotImplemented else NotImplemented

    def __neg__(self):
        if self._rat is not None:
            return _rational(-self._rat)
        return _interval(_libmp.mpi_neg(self._ivl, PREC))

    def __pos__(self):
        return self

    def max0(self) -> "Scalar":
        """max(x, 0), computed as the exact interval extension (never fails).

        An interval's endpoints stay as they are or become zero: they are
        dyadic with at most PREC bits, so the outward rounding of the
        bounds changes none of them.
        """
        if self._rat is not None:
            return self if self._rat.numerator >= 0 else _rational(Fraction(0))
        lo, hi = _finite(self._ivl)
        if not lo[0]:
            return self
        return _interval((_libmp.fzero, _libmp.fzero if hi[0] else hi))

    def __abs__(self) -> "Scalar":
        """Interval extension of |x|; exact in rational mode."""
        if self._rat is not None:
            return self if self._rat.numerator >= 0 else _rational(-self._rat)
        lo, hi = _finite(self._ivl)
        if not lo[0]:
            return self
        if hi[0] or not hi[1]:
            return -self
        neg_lo = _libmp.mpf_neg(lo)
        return _interval((_libmp.fzero, hi if _libmp.mpf_lt(neg_lo, hi) else neg_lo))

    # -- certified comparisons ------------------------------------------

    def _order(self, other: "Scalar"):
        """-1, 0, +1 when the bounds decide self against other; None when
        they overlap.  Two rationals cross-multiply (denominators are
        positive), two intervals compare raw endpoints, and a rational
        against an interval compares exact bounds."""
        a, b = self._rat, other._rat
        if a is not None and b is not None:
            x, y = a.numerator * b.denominator, b.numerator * a.denominator
            return (x > y) - (x < y)
        if a is None and b is None:
            (alo, ahi), (blo, bhi) = _finite(self._ivl), _finite(other._ivl)
            lt = _libmp.mpf_lt
        else:
            (alo, ahi), (blo, bhi) = self.bounds(), other.bounds()
            lt = operator.lt
        if lt(ahi, blo):
            return -1
        if lt(bhi, alo):
            return 1
        if alo == ahi == blo == bhi:
            return 0
        return None

    def _cmp(self, other) -> int:
        """-1, 0, +1 when certified; raises CertificationError otherwise."""
        other = Scalar._coerce(other)
        if other is NotImplemented:
            raise TypeError("cannot compare Scalar with that type")
        order = self._order(other)
        if order is None:
            alo, ahi = self.bounds()
            blo, bhi = other.bounds()
            raise CertificationError(
                f"cannot certify comparison of overlapping bounds [{alo},{ahi}] vs [{blo},{bhi}]"
            )
        return order

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        order = self._order(other)
        if order is None:
            raise CertificationError("cannot certify equality of overlapping intervals")
        return order == 0

    def __hash__(self):
        if self._rat is not None:
            return hash(self._rat)
        return hash(self.bounds())

    def __reduce__(self):
        if self._rat is not None:
            return (_rational_from_ints, (self._rat.numerator, self._rat.denominator))
        return (_interval, (self._ivl,))

    def certified_nonneg(self) -> bool:
        """True iff the lower bound is >= 0 (the certifiable direction)."""
        return self._lower_sign() >= 0

    # -- display / serialization ----------------------------------------

    def __repr__(self):
        if self._rat is not None:
            return f"Scalar({self._rat})"
        return f"Scalar(~{self.midpoint():.12g}, width={float(self.width()):.3g})"

    def to_json(self):
        """``"p/q"`` for rationals, ``{"lo": .., "hi": .., "approx": ..}`` for
        intervals; ``approx`` is ``None`` past the float range."""
        if self._rat is not None:
            return str(self._rat)
        approx = _midpoint(*_aligned(self._ivl))
        lo, hi = self._ivl
        return {
            "lo": _endpoint_str(lo),
            "hi": _endpoint_str(hi),
            "approx": approx if math.isfinite(approx) else None,
        }


def exact_fraction(value: RationalLike) -> Fraction:
    """The exact rational of an int, a ``Fraction``, a ``"p/q"`` string or a
    rational Scalar.  An interval Scalar, a float or any other type is a
    ``TypeError``: a float's binary value is not the rational it was meant
    to be."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, Scalar):
        return value.as_fraction()
    raise TypeError(f"cannot read an exact rational from {type(value).__name__}")


_new = object.__new__


def _rational(f: Fraction) -> Scalar:
    """A rational Scalar holding the Fraction f (``__init__``'s check skipped)."""
    s = _new(Scalar)
    s._rat = f
    s._ivl = None
    return s


def _interval(raw) -> Scalar:
    """An interval Scalar holding the raw endpoint pair (check skipped)."""
    s = _new(Scalar)
    s._rat = None
    s._ivl = raw
    return s


def _rational_from_ints(numerator: int, denominator: int) -> Scalar:
    """Unpickle a rational from its numerator and denominator."""
    return _rational(Fraction(numerator, denominator))


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


def as_scalar(x: RationalLike) -> Scalar:
    """x itself if it is a Scalar (of either mode), else ``Scalar.exact(x)``."""
    return x if isinstance(x, Scalar) else Scalar.exact(x)


def _extreme(pick, a: Scalar, b: Scalar) -> Scalar:
    """Interval extension of ``pick`` (max or min); exact for rationals.

    Two intervals keep the picked raw endpoints: they are dyadic with at most
    PREC bits, so outward rounding of their exact values would change none
    of them, and ``mpf_lt`` compares them exactly.  A rational against an
    interval compares exact bounds and rounds the picked ones outward.
    """
    if a._rat is not None and b._rat is not None:
        return a if pick(a._rat, b._rat) == a._rat else b
    if a._rat is None and b._rat is None:
        (alo, ahi), (blo, bhi) = _finite(a._ivl), _finite(b._ivl)
        larger = pick is max
        return _interval((
            alo if _libmp.mpf_lt(blo, alo) is larger else blo,
            ahi if _libmp.mpf_lt(bhi, ahi) is larger else bhi,
        ))
    (alo, ahi), (blo, bhi) = a.bounds(), b.bounds()
    return Scalar.from_fraction_bounds(pick(alo, blo), pick(ahi, bhi))


def scalar_max(a: Scalar, b: Scalar) -> Scalar:
    """Interval extension of max; exact for rationals."""
    return _extreme(max, a, b)


def scalar_min(a: Scalar, b: Scalar) -> Scalar:
    """Interval extension of min; exact for rationals."""
    return _extreme(min, a, b)


def log_scalar(x: RationalLike) -> Scalar:
    """Certified ln of a positive rational (or rational Scalar), memoized on
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
    ``Scalar.exact(0) - Scalar.exact(1/2) * log_scalar(x)``.
    """
    lo, hi = log_scalar(x)._ivl
    return _interval((_neg_half(hi), _neg_half(lo)))


def log_interval(x: Scalar) -> Scalar:
    """Certified ln of any positive scalar."""
    if x._lower_sign() <= 0:
        raise CertificationError("log requires certified positive bounds")
    return _interval(_libmp.mpi_log(x._raw(), PREC))


def sqrt_interval(x: Scalar) -> Scalar:
    if x._lower_sign() < 0:
        raise CertificationError("sqrt requires certified nonnegative bounds")
    return _interval(_libmp.mpi_sqrt(x._raw(), PREC))


def exp_interval(x: Scalar) -> Scalar:
    return _interval(_libmp.mpi_exp(x._raw(), PREC))


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
    return Scalar.exact(half_n) * _pi_constants()[1] - log_gamma(half_n + 1)


def cos_2pi(frac: Fraction) -> Scalar:
    """Certified cos(2*pi*frac)."""
    angle = _libmp.mpi_mul(_pi_constants()[2], _fraction_to_raw(Fraction(frac)), PREC)
    return _interval(_libmp.mpi_cos(angle, PREC))
