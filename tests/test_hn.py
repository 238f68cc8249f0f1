from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hnbounds import CertificationError, HNType, Scalar, cli
from hnbounds import hn as hn_module
from hnbounds.hn import positive_degree
from hnbounds.scalars import exact_bounds, max0

from conftest import random_hn_type


def hn(*segments):
    return HNType(segments)


# -- constructor ---------------------------------------------------------


def test_constructor_examples():
    h = hn((2, 3), (1, -1))
    assert len(h.segments) == 2 and h.rank == 3

    merged = hn((1, 2), (1, 2))
    assert merged.segments == ((2, Fraction(2)),)
    assert type(merged.segments[0][1]) is Fraction

    with pytest.raises(ValueError):
        hn((1, 0), (1, 1))
    with pytest.raises(ValueError):
        HNType([])
    with pytest.raises(ValueError):
        hn((0, 1))


def test_constructor_idempotent(rng):
    for _ in range(50):
        h = random_hn_type(rng)
        again = HNType(h.segments)
        assert again == h


# -- polygon ---------------------------------------------------------------


def test_polygon_examples():
    pts = hn((2, 3), (1, -1)).polygon()
    assert pts == ((0, 0), (2, 6), (3, 5))
    assert all(type(v) is Fraction for pt in pts for v in pt)
    assert hn((1, 0)).polygon() == ((0, 0), (1, 0))
    assert hn((3, 1)).polygon() == ((0, 0), (3, 3))


def test_polygon_max_is_deg_plus(rng):
    for _ in range(200):
        h = random_hn_type(rng)
        top = max(y for _, y in h.polygon())
        assert top == h.deg_plus()


# -- deg_plus ---------------------------------------------------------------


def test_deg_plus_examples():
    assert hn((2, 3), (1, -1)).deg_plus() == 6
    assert hn((1, -2)).deg_plus() == 0
    assert hn((1, 5), (2, 0), (1, -1)).deg_plus() == 5
    assert type(hn((1, -2)).deg_plus()) is Fraction


def test_slope_extremes_examples():
    assert hn((2, 3), (1, -1)).slope_extremes() == (3, -1)
    assert hn((3, 1)).slope_extremes() == (1, 1)
    assert hn((1, 0), (1, -5)).slope_extremes() == (0, -5)


# -- dual ---------------------------------------------------------------------


def test_dual_examples(rng):
    d = hn((2, 3), (1, -1)).dual()
    assert d.segments == ((1, 1), (2, -3))
    assert hn((3, 0)).dual() == hn((3, 0))
    for _ in range(100):
        h = random_hn_type(rng)
        assert h.dual().dual() == h
        # mu_max(h) + mu_min(dual) = 0
        assert h.slope_extremes()[0] + h.dual().slope_extremes()[1] == 0


# -- tensor ---------------------------------------------------------------------


def naive_tensor(h1: HNType, h2: HNType) -> HNType:
    """Independent oracle: full pairwise multiset via a double loop."""
    pairs = []
    for r1, s1 in h1.segments:
        for r2, s2 in h2.segments:
            pairs.extend([s1 + s2] * (r1 * r2))
    pairs.sort(reverse=True)
    return HNType((1, s) for s in pairs)


def test_tensor_examples():
    t = hn((1, 1), (1, -1)).tensor(hn((1, 2)))
    assert t.segments == ((1, 3), (1, 1))
    t = hn((1, 1), (1, 0)).tensor(hn((1, 1), (1, 0)))
    assert t.segments == ((1, 2), (2, 1), (1, 0))


def test_tensor_against_naive_oracle(rng):
    for _ in range(200):
        h1 = random_hn_type(rng, max_segments=3)
        h2 = random_hn_type(rng, max_segments=3)
        assert h1.tensor(h2) == naive_tensor(h1, h2)


def test_tensor_rank_and_additivity(rng):
    for _ in range(200):
        h1 = random_hn_type(rng)
        h2 = random_hn_type(rng)
        t = h1.tensor(h2)
        assert t.rank == h1.rank * h2.rank
        assert t.slope_extremes()[0] == h1.slope_extremes()[0] + h2.slope_extremes()[0]
        assert t.degree() == h1.rank * h2.degree() + h2.rank * h1.degree()


# -- filtration -----------------------------------------------------------------


def test_filtration_rank_examples():
    h = hn((2, 3), (1, -1))
    assert h.filtration_rank(0) == 2
    assert h.filtration_rank(3) == 2  # closed at the slope
    assert h.filtration_rank(4) == 0
    assert h.filtration_rank(Fraction(-5)) == 3


def test_filtration_rank_interval_slopes():
    # each slope >= t is decided by order; bounds that overlap raise, naming both
    h = hn((1, Scalar.from_fraction_bounds(Fraction(1), Fraction(2))), (2, Fraction(-1)))
    assert h.filtration_rank(Fraction(1, 2)) == 1 and h.filtration_rank(3) == 0
    assert h.filtration_rank(Scalar.from_fraction_bounds(Fraction(-3), Fraction(-2))) == 3
    with pytest.raises(CertificationError, match=r"slope \[1, 2\] with t = 3/2"):
        h.filtration_rank(Fraction(3, 2))


def test_filtration_rank_monotone(rng):
    for _ in range(50):
        h = random_hn_type(rng)
        ts = sorted(Fraction(t, 2) for t in range(-20, 21))
        ranks = [h.filtration_rank(t) for t in ts]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))


# -- integral identity -------------------------------------------------------------


def test_positive_rank_integral_examples():
    assert hn((2, 3), (1, -1)).positive_rank_integral() == 6
    assert hn((1, -2)).positive_rank_integral() == 0
    assert type(hn((1, -2)).positive_rank_integral()) is Fraction


def test_integral_identity_random(rng):
    for _ in range(500):
        h = random_hn_type(rng)
        assert h.positive_rank_integral() == h.deg_plus()


def _overlap(a, b) -> bool:
    (alo, ahi), (blo, bhi) = exact_bounds(a), exact_bounds(b)
    return max(alo, blo) <= min(ahi, bhi)


def test_interval_slopes_polygon_and_integral():
    # cumulative interval sums are wider than the slopes: nothing derived
    # from a valid HNType decides their order again
    ivl = Scalar.from_fraction_bounds
    h = HNType([(1, ivl(Fraction(2), Fraction(3))), (1, ivl(Fraction(1), Fraction(3, 2)))])
    pts = [tuple(map(exact_bounds, pt)) for pt in h.polygon()]
    assert pts[0] == ((0, 0), (0, 0)) and pts[2][0] == (2, 2)
    assert pts[1][1][0] <= 2 and pts[1][1][1] >= 3
    assert pts[2][1][0] <= 3 and pts[2][1][1] >= Fraction(9, 2)
    assert _overlap(h.positive_rank_integral(), h.deg_plus())
    # a slope straddling 0 enters through max0, not through a sign test
    h = HNType([(1, ivl(Fraction(3), Fraction(4))), (1, ivl(Fraction(-1), Fraction(1, 2)))])
    integral = h.positive_rank_integral()
    assert _overlap(integral, h.deg_plus())
    lo, hi = integral.bounds()
    assert lo <= 3 and hi >= 4


# -- slope measure ------------------------------------------------------------------


def test_slope_measure_examples():
    m = hn((2, 3), (1, -1)).slope_measure()
    assert m == ((3, Fraction(2, 3)), (-1, Fraction(1, 3)))
    assert hn((3, 1)).slope_measure() == ((1, Fraction(1)),)


def test_slope_measure_mass_and_mean(rng):
    for _ in range(100):
        h = random_hn_type(rng)
        m = h.slope_measure()
        assert sum(mass for _, mass in m) == 1 and all(mass > 0 for _, mass in m)
        positive_mean = sum(max0(s) * mass for s, mass in m)
        assert h.rank * positive_mean == h.deg_plus()


# -- hypothesis property: structure survives arbitrary valid inputs -----------------


slope_lists = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    min_size=1,
    max_size=6,
    unique=True,
)


@given(slope_lists, st.data())
@settings(max_examples=200)
def test_hypothesis_polygon_concavity(slopes, data):
    slopes = sorted(slopes, reverse=True)
    ranks = [data.draw(st.integers(min_value=1, max_value=5)) for _ in slopes]
    h = HNType(zip(ranks, slopes))
    pts = h.polygon()
    assert pts[0] == (0, 0) and pts[-1][0] == h.rank
    assert all(xa < xb for (xa, _), (xb, _) in zip(pts, pts[1:]))
    edges = [(yb - ya) / (xb - xa) for (xa, ya), (xb, yb) in zip(pts, pts[1:])]
    assert all(s > t for s, t in zip(edges, edges[1:]))  # concave
    assert h.positive_rank_integral() == h.deg_plus()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(-40, 40), st.booleans()), min_size=1, max_size=6))
def test_positive_degree_of_the_pairs_is_deg_plus(pairs):
    # slope k/8, or an interval of width 1/16 around it; equal rational slopes
    # merge in HNType but stay apart here, and with an interval among them the
    # slopes are made distinct, since no interval orders against an equal slope
    pairs = sorted(pairs, key=lambda p: -p[1])
    if any(interval for _, _, interval in pairs):
        pairs = [p for p, q in zip(pairs, [None] + pairs) if q is None or p[1] != q[1]]
    segments = [
        (r, Scalar.from_fraction_bounds(Fraction(4 * k - 1, 32), Fraction(4 * k + 1, 32)))
        if interval
        else (r, Fraction(k, 8))
        for r, k, interval in pairs
    ]
    assert exact_bounds(positive_degree(segments)) == exact_bounds(HNType(segments).deg_plus())


# -- serialization --------------------------------------------------------------------


def test_json_round_trip(rng):
    # the CLI reads back the slope data a report prints
    for _ in range(20):
        h = random_hn_type(rng)
        assert cli._hn_type([[r, str(s)] for r, s in h.segments], "--hn") == h


def test_hn_type_refuses_non_integer_ranks():
    # a rank is taken as given, not truncated: 1.5 would otherwise read as 1
    for rank in (1.5, 2.0, "3", True, 0, -1):
        with pytest.raises(ValueError, match="positive integers"):
            HNType([[rank, "3"]])
    with pytest.raises(ValueError, match="positive integers"):
        HNType([(1, 3), (True, Fraction(2))])


def _counting_order(monkeypatch):
    """Patch the order test ``HNType`` merges with to count its calls; returns
    the list of calls."""
    calls, order = [], hn_module.order

    def counted(a, b):
        calls.append((a, b))
        return order(a, b)

    monkeypatch.setattr(hn_module, "order", counted)
    return calls


def test_hn_type_decides_each_adjacent_pair_once(monkeypatch, rng):
    calls = _counting_order(monkeypatch)
    for _ in range(50):
        slopes = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(rng.randint(1, 8))]
        pairs = [(rng.randint(1, 3), s) for s in sorted(slopes, reverse=True)]
        del calls[:]
        h = HNType(pairs)
        assert len(calls) <= len(pairs) - 1
        assert h.rank == sum(r for r, _ in pairs)


def test_hn_type_merges_keeps_refuses_and_cannot_order(monkeypatch):
    calls = _counting_order(monkeypatch)
    ivl = Scalar.from_fraction_bounds
    # merge (0): equal slopes add their ranks, a degenerate interval included
    h = HNType([(1, "2"), (2, Fraction(2)), (1, ivl(Fraction(2), Fraction(2))), (1, 0)])
    assert h.segments == ((4, 2), (1, 0))
    assert len(calls) == 3
    # keep (+1): a smaller slope starts a segment
    assert [r for r, _ in HNType([(1, ivl(Fraction(3), Fraction(4))), (2, "2")]).segments] == [1, 2]
    # refuse (-1): a larger slope
    with pytest.raises(ValueError, match="strictly decrease"):
        HNType([(1, 1), (1, ivl(Fraction(2), Fraction(3)))])
    # undecidable: overlapping bounds name both positions, from 1
    with pytest.raises(CertificationError, match=r"^cannot order slopes 1 and 2: \[1, 3\] vs 2$"):
        HNType([(1, ivl(Fraction(1), Fraction(3))), (1, 2)])
    with pytest.raises(CertificationError, match=r"^cannot order slopes 2 and 3: 5 vs \[9/2, 6\]$"):
        HNType([(1, 7), (1, 5), (1, ivl(Fraction(9, 2), Fraction(6)))])


def test_tensor_refuses_interval_slopes():
    h = HNType([(1, Scalar.from_fraction_bounds(Fraction(1), Fraction(2)))])
    with pytest.raises(TypeError):
        h.tensor(hn((1, 0)))
