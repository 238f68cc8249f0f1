"""Towers of curve fibrations and their recursive error terms.

A scheme of dimension d+1 presented as d+1 successive fibrations over curves
is summarized by its genus vector (g_0, ..., g_d).  A graded linear series on
it contributes a slope vector (mu_0, ..., mu_d) and a volume vector
(v_0, ..., v_d); from these the error term controlling the degree-one rank is
defined by downward recursion:

    eps_d = max(g_d - 1, 1)
    eps_i = mu_i * eps_{i+1} + (v_{i+1} / (d-i)! + eps_{i+1}) * max(g_i - 1, 1)

The positive-characteristic variant replaces the genus factor by
max(g_i - 1, 1) + ell(g_i) for a caller-supplied affine function ell (the
Riemann-Roch-free constant of the minima filtration; default ell(g) = g + 1).

Everything here is a Fraction or an int, read by
:func:`~hnbounds.scalars.exact_fraction` (which refuses intervals and floats):
the recursion is a finite composition of +, *, / and must stay bit-exact.
:func:`epsilon` and :func:`epsilon_tilde` return a Fraction.
"""

from __future__ import annotations

import operator
import warnings
from fractions import Fraction
from math import factorial

from .scalars import exact_fraction

__all__ = [
    "Tower",
    "TowerData",
    "AffineFunction",
    "DEFAULT_ELL",
    "NegativeSlopeWarning",
    "epsilon",
    "epsilon_tilde",
    "rescale",
]


class NegativeSlopeWarning(UserWarning):
    """A slope coordinate is negative; the bound is outside its proven range."""


class Tower:
    """Genus vector (g_0, ..., g_d) of a tower of curve fibrations."""

    __slots__ = ("genera",)

    def __init__(self, genera):
        genera = tuple(map(operator.index, genera))
        if not genera:
            raise ValueError("a tower has at least one level")
        if any(g < 0 for g in genera):
            raise ValueError("genera must be nonnegative")
        self.genera = genera

    @property
    def depth(self) -> int:
        """d, where the tower has d+1 levels."""
        return len(self.genera) - 1


class TowerData:
    """Slope vector mu and volume vector vol attached to a tower's levels,
    each a tuple of Fractions."""

    __slots__ = ("mu", "vol")

    def __init__(self, mu, vol):
        mu = tuple(map(exact_fraction, mu))
        vol = tuple(map(exact_fraction, vol))
        if len(mu) != len(vol) or not mu:
            raise ValueError("mu and vol must be nonempty vectors of equal length")
        if any(v < 0 for v in vol):
            raise ValueError("volumes must be nonnegative")
        self.mu, self.vol = mu, vol

    def __eq__(self, other):
        return (self.mu, self.vol) == (other.mu, other.vol) if type(other) is TowerData else NotImplemented

    def __len__(self):
        return len(self.mu)


class AffineFunction:
    """g |-> intercept + slope * g, evaluable at nonnegative integers; the
    coefficients and values are Fractions."""

    __slots__ = ("intercept", "slope")

    def __init__(self, intercept, slope):
        self.intercept, self.slope = exact_fraction(intercept), exact_fraction(slope)

    def __call__(self, g: int) -> Fraction:
        return self.intercept + self.slope * g


#: Documented default for the positive-characteristic constant.
DEFAULT_ELL = AffineFunction(1, 1)


def _epsilon(tower: Tower, data: TowerData, ell) -> Fraction:
    """The recursion of the module docstring, on Fractions.

    ``ell`` is None or an affine function whose value at g_i is added to
    the genus factor of every non-base level.  A negative mu_i (i < d) is
    a ``NegativeSlopeWarning`` naming the caller of :func:`epsilon` or
    :func:`epsilon_tilde`.
    """
    genera, d, mu, vol = tower.genera, tower.depth, data.mu, data.vol
    if len(data) != len(genera):
        raise ValueError(f"data length {len(data)} does not match tower length {len(genera)}")
    for i in range(d):
        if mu[i] < 0:
            warnings.warn(
                f"mu[{i}] < 0: the error term is not asserted by any bound here",
                NegativeSlopeWarning,
                stacklevel=3,
            )
    eps = Fraction(max(genera[d] - 1, 1))
    for i in range(d - 1, -1, -1):
        g = genera[i]
        factor = max(g - 1, 1)
        if ell is not None:
            factor += ell(g)
        eps = mu[i] * eps + (vol[i + 1] / factorial(d - i) + eps) * factor
    return eps


def epsilon(tower: Tower, data: TowerData) -> Fraction:
    """Error term of the tower, a Fraction.

    Base case max(g_d - 1, 1); one recursion step per fibration level, using
    mu_0..mu_{d-1} and v_1..v_d (mu_d and v_0 never enter).

    ``tests/test_towers.py`` keeps an independent oracle, one loop for this
    term and one for :func:`epsilon_tilde`, so the degeneration ell == 0
    stays a genuine cross-check.
    """
    return _epsilon(tower, data, None)


def epsilon_tilde(tower: Tower, data: TowerData, ell: AffineFunction = DEFAULT_ELL) -> Fraction:
    """Positive-characteristic error term with affine correction ``ell``.

    Same recursion as :func:`epsilon` with genus factor
    max(g_i - 1, 1) + ell(g_i) at every non-base level; the base case carries
    no ell term.  With ell identically zero this reduces exactly to epsilon.
    """
    return _epsilon(tower, data, ell)


def rescale(data: TowerData, p: int) -> TowerData:
    """Data of the p-th power subsystem: mu_i -> p mu_i, v_i -> p^(d+1-i) v_i.

    Level i sits on a scheme of dimension d+1-i, which fixes the volume
    scaling exponent.  The error term of the rescaled data is bounded by
    p^d times the original (checked as a property, not assumed).
    """
    if p < 1:
        raise ValueError("rescaling exponent must be >= 1")
    d = len(data) - 1
    mu = tuple(p * m for m in data.mu)
    vol = tuple(p ** (d + 1 - i) * v for i, v in enumerate(data.vol))
    return TowerData(mu, vol)
