"""Split vector bundles on the projective line, and genus-g h^0 envelopes.

A :class:`SplitBundle` is a direct sum of line bundles O(a_1) + ... + O(a_r)
on P^1, recorded as the multiset of its twists.  On P^1 everything is exact:
h^0 is a sum of monomial counts, the slope data is the sorted twist multiset,
tensor products add twists pairwise, and the successive minima are the twists
themselves.  Twists, ranks, degrees, h^0 and minima are ints; the slope data
is an :class:`~hnbounds.hn.HNType`, which reads the int slopes as
Fractions.

For curves of positive genus there is no h^0 engine here; the honest surface
is :func:`h0_interval`, which returns the tightest interval guaranteed by
exact slope data alone.
"""

from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction

from .hn import HNType
from .scalars import exact_fraction

__all__ = ["SplitBundle", "h0_interval"]


class SplitBundle:
    """Direct sum of O(a_i) on P^1; ``twists`` is stored sorted decreasing."""

    __slots__ = ("twists",)

    def __init__(self, twists):
        twists = tuple(sorted(map(operator.index, twists), reverse=True))
        if not twists:
            raise ValueError("a split bundle needs at least one summand")
        self.twists = twists

    def __eq__(self, other):
        return self.twists == other.twists if type(other) is SplitBundle else NotImplemented

    @property
    def rank(self) -> int:
        return len(self.twists)

    @property
    def degree(self) -> int:
        return sum(self.twists)

    def h0(self) -> int:
        """Global sections: each O(a) contributes max(a + 1, 0) monomials."""
        return sum(max(a + 1, 0) for a in self.twists)

    def hn_type(self) -> HNType:
        """Slope data: twists aggregated by value, sorted decreasing."""
        counts = Counter(self.twists)
        return HNType((counts[a], a) for a in sorted(counts, reverse=True))

    def tensor(self, other: "SplitBundle") -> "SplitBundle":
        return SplitBundle(a + b for a in self.twists for b in other.twists)

    def dual(self) -> "SplitBundle":
        return SplitBundle(-a for a in self.twists)

    def twist(self, c: int) -> "SplitBundle":
        """Tensor with the line bundle O(c)."""
        return SplitBundle(a + c for a in self.twists)

    def minima(self) -> list[int]:
        """Successive minima of the height filtration, largest first.

        For a split bundle on P^1 the i-th minimum is the i-th largest twist:
        the line subbundles O(a_i) realize these heights, and no subsheaf does
        better.  Consistency with the slope data is witnessed by
        sum(max(minima, 0)) == deg_plus(hn_type()).
        """
        return list(self.twists)


def h0_interval(h: HNType, genus: int) -> tuple[Fraction, Fraction]:
    """Tightest interval guaranteed for h^0 of a bundle with slope data ``h``
    on a smooth projective curve of genus ``genus`` (a nonnegative integer;
    ValueError otherwise), as its two ends, Fractions.  The slopes of a
    bundle on a curve are rational: an interval slope is a ``TypeError``.

    Intersects, over the cases whose hypotheses hold:

    * base estimate  |h^0 - deg+| <= rank * max(g - 1, 1);
    * mu_max < 0        ==>  h^0 = 0;
    * mu_min > 2g - 2   ==>  h^0 = deg + rank (1 - g)   (Riemann-Roch range);
    * mu_min > 0        ==>  |h^0 - deg| <= rank |g - 1|.

    The lower end is clamped at 0.  For slope data realizable by an actual
    bundle the cases are mutually consistent; formally inconsistent inputs
    raise ValueError rather than returning an empty interval.
    """
    g = operator.index(genus)
    if g < 0:
        raise ValueError("genus must be a nonnegative integer")
    rank = h.rank
    deg = exact_fraction(h.degree())  # a TypeError if any slope is an interval
    deg_plus = h.deg_plus()
    mu_max, mu_min = h.slope_extremes()
    base_pad = rank * max(g - 1, 1)
    lo, hi = deg_plus - base_pad, deg_plus + base_pad

    zero = Fraction(0)
    if mu_max < zero:
        lo, hi = max(lo, zero), min(hi, zero)
    if mu_min > 2 * g - 2:
        point = deg + rank * (1 - g)
        lo, hi = max(lo, point), min(hi, point)
    if mu_min > zero:
        pad = rank * abs(g - 1)
        lo, hi = max(lo, deg - pad), min(hi, deg + pad)

    if lo < zero:
        lo = zero
    if lo > hi:
        raise ValueError("slope data is not realizable by a bundle of this genus")
    return (lo, hi)
