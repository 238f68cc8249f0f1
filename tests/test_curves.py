from fractions import Fraction

import pytest

from hnbounds import HNType, SplitBundle, h0_interval, log_scalar

from conftest import random_split_bundle


def test_h0_examples():
    assert SplitBundle([2, 0, -3]).h0() == 4
    assert SplitBundle([-1]).h0() == 0
    assert SplitBundle([0, 0]).h0() == 2


def test_hn_type_examples():
    h = SplitBundle([2, 2, -3]).hn_type()
    assert list(h.segments) == [(2, 2), (1, -3)]
    assert all(type(s) is Fraction for _, s in h.segments)
    h = SplitBundle([0]).hn_type()
    assert list(h.segments) == [(1, 0)]
    assert SplitBundle([2, 0, -3]).hn_type().deg_plus() == 2


def test_tensor_examples():
    assert SplitBundle([1, -1]).tensor(SplitBundle([2])).twists == (3, 1)
    assert SplitBundle([0]).tensor(SplitBundle([0])).twists == (0,)


def test_tensor_hn_consistency(rng):
    for _ in range(500):
        b1 = random_split_bundle(rng, max_rank=5)
        b2 = random_split_bundle(rng, max_rank=5)
        assert b1.tensor(b2).hn_type() == b1.hn_type().tensor(b2.hn_type())


def test_minima_examples(rng):
    assert SplitBundle([2, 0, -3]).minima() == [2, 0, -3]
    for _ in range(500):
        b = random_split_bundle(rng)
        minima = b.minima()
        h = b.hn_type()
        assert minima[0] == h.slope_extremes()[0]
        positive_sum = sum(max(m, 0) for m in minima)
        assert positive_sum == h.deg_plus()


def test_minima_twist_and_permutation(rng):
    b = SplitBundle([5, -2, 0])
    same = SplitBundle([0, 5, -2])
    assert b == same and b.minima() == same.minima()
    for _ in range(50):
        b = random_split_bundle(rng, max_rank=6)
        c = rng.randint(-5, 5)
        shifted = b.tensor(SplitBundle([c]))
        assert shifted.minima() == [m + c for m in b.minima()]


def test_riemann_roch_serre_duality(rng):
    # h0(B) - h0(B^dual (x) O(-2)) = deg + rank on the projective line
    for _ in range(300):
        b = random_split_bundle(rng)
        twisted_dual = b.dual().twist(-2)
        assert b.h0() - twisted_dual.h0() == b.degree + b.rank


def test_h0_minus_deg_plus_is_nonnegative_twist_count(rng):
    for _ in range(1000):
        b = random_split_bundle(rng)
        gap = b.h0() - b.hn_type().deg_plus()
        assert gap == sum(1 for a in b.twists if a >= 0)
        assert 0 <= gap <= b.rank


def test_semistable_slope_zero_has_h0_rank():
    for rank in range(1, 8):
        assert SplitBundle([0] * rank).h0() == rank


# -- genus-g envelope -------------------------------------------------------


def test_h0_interval_examples():
    lo, hi = h0_interval(HNType([(2, -1)]), 5)
    assert (lo, hi) == (0, 0) and type(lo) is type(hi) is Fraction
    lo, hi = h0_interval(HNType([(2, 3)]), 0)
    assert (lo, hi) == (8, 8)
    lo, hi = h0_interval(HNType([(1, 5), (1, -2)]), 2)
    assert (lo, hi) == (3, 7)


def test_h0_interval_riemann_roch_range():
    # mu_min above 2g-2 pins the exact point deg + rank(1-g)
    lo, hi = h0_interval(HNType([(2, 5)]), 3)
    assert (lo, hi) == (6, 6)
    lo, hi = h0_interval(HNType([(2, 3)]), 1)
    assert (lo, hi) == (6, 6)


def test_h0_interval_contains_true_h0(rng):
    for _ in range(500):
        b = random_split_bundle(rng)
        lo, hi = h0_interval(b.hn_type(), 0)
        assert lo <= b.h0() <= hi and type(lo) is type(hi) is Fraction


def test_h0_interval_lower_clamped_at_zero():
    lo, hi = h0_interval(HNType([(1, 1), (1, Fraction(-1, 2))]), 4)
    assert lo >= 0


def test_h0_interval_takes_exact_slope_data_only():
    # a bundle's slopes on a curve are rational: an interval slope, at an
    # end or in the middle, is a TypeError
    for segments in ([(1, log_scalar(2))], [(1, 5), (1, log_scalar(2)), (1, -1)]):
        with pytest.raises(TypeError):
            h0_interval(HNType(segments), 1)


def test_curve_context_validation():
    # the curve enters only through its genus, a nonnegative integer
    h = HNType([(1, 0)])
    with pytest.raises(ValueError):
        h0_interval(h, -1)
    with pytest.raises(TypeError):
        h0_interval(h, 1.5)


def test_split_bundle_validation_and_json(rng):
    with pytest.raises(ValueError):
        SplitBundle([])
    for _ in range(20):
        b = random_split_bundle(rng)
        assert SplitBundle(reversed(b.twists)) == b
        assert list(b.twists) == sorted(b.twists, reverse=True)
