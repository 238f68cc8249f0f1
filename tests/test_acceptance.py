"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion is checked at its stated tolerance, with exact arithmetic
wherever the quantities are rational and certified intervals elsewhere.

Criterion 7 checks the comparison constant C(Q, n).  For even n the Stirling
series with Robbins' remainder (1955) gives
C(Q, n) = (1/2) n ln n + c n + (1/2) ln(pi n) + mu,  1/(6n+1) < mu < 1/(6n),
with c = ln 6 - (1/2)(1 + ln(2 pi)) ~ 0.3728.  The ratio to (1/2) n ln n
therefore falls toward 1 from above, slowly: it is ~ 1.0811 at n = 10^4 and
first enters the +-5 % window near n ~ 3 x 10^6.  The test checks that
window at n = 10^7, and pins the value at n = 10^4 by the Robbins enclosure.
"""

import itertools
import random
import time
from fractions import Fraction

from hnbounds import (
    EuclideanLattice,
    FiberedSeries,
    RATIONAL_FIELD,
    Tower,
    TowerData,
    check_blichfeldt,
    check_filtered,
    check_gillet_soule,
    check_minkowski,
    check_toric_family,
    epsilon,
    epsilon_tilde,
    gillet_soule_constant,
    h0_minima_bound,
    log_scalar,
    p1z_h0,
    random_gram,
    rescale,
)
from hnbounds.scalars import LOG_PI, Exact
from hnbounds.towers import AffineFunction

from conftest import random_hn_type, random_split_bundle


def report(number, description, passed, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({elapsed:.2f}s)")
    return passed


def timed():
    return time.perf_counter()


def test_criterion_1_p1xp1_equality():
    t0 = timed()
    ok = True
    for a in range(1, 7):
        for b in range(1, 7):
            rep = check_toric_family(FiberedSeries(a, b, 0))
            ok = ok and rep.passed and type(rep.margin) is Exact and rep.margin == 0
    elapsed = timed() - t0
    assert report(1, "product-surface equality, margin exactly 0", ok, elapsed)
    assert elapsed < 1.0


def test_criterion_2_hirzebruch_gap_law():
    t0 = timed()
    ok = True
    for e in (1, 2):
        for a in range(1, 7):
            for b in range(1, 7):
                if a >= e * b:
                    rep = check_toric_family(FiberedSeries(a, b, e))
                    ok = ok and rep.passed
                    ok = ok and type(rep.margin) is Exact and rep.margin == Fraction(e * b, 2)
    elapsed = timed() - t0
    assert report(2, "Hirzebruch margin equals e*b/2 exactly", ok, elapsed)
    assert elapsed < 1.0


def test_criterion_3_h0_vs_deg_plus_gap():
    t0 = timed()
    rng = random.Random(3)
    ok = True
    for _ in range(1000):
        b = random_split_bundle(rng, max_rank=10, twist_range=10)
        gap = b.h0() - b.hn_type().deg_plus()
        ok = ok and gap == sum(1 for a in b.twists if a >= 0)
        ok = ok and 0 <= gap <= b.rank
    elapsed = timed() - t0
    assert report(3, "0 <= h0 - deg_plus <= rank, equals #{a_i >= 0}", ok, elapsed)
    assert elapsed < 1.0


def test_criterion_4_tensor_filtration_oracle():
    t0 = timed()
    rng = random.Random(4)
    ok = True
    for _ in range(500):
        b1 = random_split_bundle(rng, max_rank=5)
        b2 = random_split_bundle(rng, max_rank=5)
        via_bundles = b1.tensor(b2).hn_type()
        via_types = b1.hn_type().tensor(b2.hn_type())
        # independent oracle: aggregate the raw pairwise twist sums
        sums = sorted(
            (x + y for x in b1.twists for y in b2.twists), reverse=True
        )
        from collections import Counter

        counts = Counter(sums)
        oracle = [(counts[s], s) for s in sorted(counts, reverse=True)]
        got = list(via_bundles.segments)
        ok = ok and via_bundles == via_types
        ok = ok and got == oracle
    elapsed = timed() - t0
    assert report(4, "tensor slope data matches the pairwise-sum oracle", ok, elapsed)
    assert elapsed < 1.0


def test_criterion_5_integral_identity():
    t0 = timed()
    rng = random.Random(5)
    ok = True
    for _ in range(500):
        h = random_hn_type(rng)
        ok = ok and h.positive_rank_integral() == h.deg_plus()
    elapsed = timed() - t0
    assert report(5, "rank-filtration integral equals deg_plus exactly", ok, elapsed)
    assert elapsed < 1.0


def test_criterion_6_geometry_of_numbers():
    t0 = timed()
    rng = random.Random(6)
    ok = True
    width_cap = Fraction(1, 10**9)
    lattices = (
        [random_gram(2, rng) for _ in range(100)]
        + [random_gram(3, rng) for _ in range(100)]
        + [random_gram(4, rng) for _ in range(20)]
    )
    for L in lattices:
        for check in (check_minkowski, check_blichfeldt, h0_minima_bound):
            rep = check(L)
            ok = ok and rep.passed and rep.margin.width() <= width_cap
    elapsed = timed() - t0
    assert report(
        6, "Minkowski double bound, Blichfeldt, minima bound on 220 lattices", ok, elapsed
    )
    assert elapsed < 30.0


def test_criterion_7_gillet_soule_constant():
    t0 = timed()
    # (a) C(Q, 1) = ln 3 to 1e-12
    tol = Fraction(1, 10**12)
    c1 = gillet_soule_constant(RATIONAL_FIELD, 1)
    dlo, dhi = (c1 - log_scalar(3)).bounds()
    part_a = -tol <= dlo and dhi <= tol and c1.width() < tol
    # (b) the +-5 % window of C(Q, n) / ((1/2) n ln n), where the expansion puts it
    n_window = 10**7
    ratio = gillet_soule_constant(RATIONAL_FIELD, n_window) / (
        Fraction(n_window, 2) * log_scalar(n_window)
    )
    rlo, rhi = ratio.bounds()
    part_b = Fraction(95, 100) <= rlo and rhi <= Fraction(105, 100)
    # (c) Robbins' remainder at n = 10^4, from certified ln and ln pi only
    n = 10**4
    c = log_scalar(6) - Fraction(1, 2) * (1 + log_scalar(2) + LOG_PI)
    expansion = (
        Fraction(n, 2) * log_scalar(n)
        + n * c
        + Fraction(1, 2) * (LOG_PI + log_scalar(n))
    )
    mlo, mhi = (gillet_soule_constant(RATIONAL_FIELD, n) - expansion).bounds()
    part_c = Fraction(1, 6 * n + 1) < mlo and mhi < Fraction(1, 6 * n)
    elapsed = timed() - t0
    report(7, f"C(Q,1) = ln 3 to 1e-12: {part_a}", part_a, elapsed)
    report(
        7,
        f"C(Q,{n_window}) / ((1/2) n ln n) in [{float(rlo):.7f}, {float(rhi):.7f}]"
        " within [0.95, 1.05]",
        part_b,
        elapsed,
    )
    report(
        7,
        f"C(Q,{n}) - Stirling terms = {float(mlo):.10e}"
        " in (1/(6n+1), 1/(6n)) (Robbins)",
        part_c,
        elapsed,
    )
    assert elapsed < 1.0
    assert part_a
    assert part_b
    assert part_c


def test_criterion_8_gillet_soule_comparison():
    t0 = timed()
    ok = True
    entries = [Fraction(1, 4), Fraction(1), Fraction(4)]
    for rank in range(1, 5):
        for diag in itertools.product(entries, repeat=rank):
            gram = [
                [diag[i] if i == j else Fraction(0) for j in range(rank)]
                for i in range(rank)
            ]
            rep = check_gillet_soule(EuclideanLattice(gram))
            ok = ok and rep.passed
    elapsed = timed() - t0
    assert report(8, "|h0_hat - deg_plus| <= C(Q, r) on 120 diagonal lattices", ok, elapsed)
    assert elapsed < 10.0


def test_criterion_9_integer_polynomial_testbed():
    t0 = timed()
    ok = True
    counts = {}
    for n in range(5):
        count, rep = p1z_h0(n)  # every candidate decided by an integer test
        counts[n] = count
        ok = ok and rep.passed
    ok = ok and counts[0] == 3 and counts[1] == 5 and counts[2] == 7
    ok = ok and counts[3] <= counts[4] and counts[2] <= counts[3]
    elapsed = timed() - t0
    assert report(
        9,
        f"unit-ball polynomial counts {list(counts.values())} with certified norms",
        ok,
        elapsed,
    )
    assert elapsed < 60.0


def test_criterion_10_epsilon_calculus():
    t0 = timed()
    rng = random.Random(10)
    ok = True
    zero_ell = AffineFunction(0, 0)
    for _ in range(500):
        depth = rng.randint(0, 3)
        tower = Tower(tuple(rng.randint(0, 5) for _ in range(depth + 1)))
        data = TowerData(
            tuple(
                Fraction(rng.randint(0, 16), rng.randint(1, 4))
                for _ in range(depth + 1)
            ),
            tuple(
                Fraction(rng.randint(0, 24), rng.randint(1, 4))
                for _ in range(depth + 1)
            ),
        )
        base = epsilon(tower, data)
        # rescale bound
        p = rng.randint(1, 5)
        scaled = epsilon(tower, rescale(data, p))
        ok = ok and scaled <= Fraction(p) ** depth * base
        # monotonicity in one randomly chosen coordinate of each kind
        if depth >= 1:
            k = rng.randrange(depth)
            mu = list(data.mu)
            mu[k] = mu[k] + 1
            ok = ok and epsilon(tower, TowerData(tuple(mu), data.vol)) >= base
        k = rng.randrange(depth + 1)
        vol = list(data.vol)
        vol[k] = vol[k] + 1
        ok = ok and epsilon(tower, TowerData(data.mu, tuple(vol))) >= base
        genera = list(tower.genera)
        genera[rng.randrange(depth + 1)] += 1
        ok = ok and epsilon(Tower(tuple(genera)), data) >= base
        # char-p degeneration
        ok = ok and epsilon_tilde(tower, data, zero_ell) == base
    elapsed = timed() - t0
    assert report(10, "epsilon monotone, rescale bound, ell=0 degeneration", ok, elapsed)
    assert elapsed < 1.0


def test_criterion_11_filtered_corollary():
    t0 = timed()
    ok = True
    for e in range(3):
        for a in range(1, 7):
            for b in range(1, 7):
                if a >= e * b:
                    F = FiberedSeries(a, b, e)
                    rep = check_filtered(F)
                    deg_plus = F.pushforward(1).hn_type().deg_plus()
                    ok = ok and rep.passed
                    ok = ok and type(rep.lhs) is Exact and rep.lhs == deg_plus
    elapsed = timed() - t0
    assert report(11, "filtered bound on the full grid, lhs = deg_plus exactly", ok, elapsed)
    assert elapsed < 1.0
