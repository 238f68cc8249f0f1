import json
from fractions import Fraction
from math import factorial

import pytest

from hnbounds import AffineFunction, Tower, TowerData, epsilon, epsilon_tilde, rescale
from hnbounds import cli
from hnbounds.towers import NegativeSlopeWarning


def data(mu, vol):
    return TowerData(mu, vol)


def test_epsilon_base_case():
    for g in range(6):
        assert epsilon(Tower((g,)), data([0], [0])) == max(g - 1, 1)


def test_epsilon_surface_examples():
    # genera (0,0), mu0=2, v1=3: 2*1 + (3/1! + 1)*1 = 6
    assert epsilon(Tower((0, 0)), data([2, 0], [0, 3])) == 6
    # genera (3,0): 2*1 + 4*max(2,1) = 10
    assert epsilon(Tower((3, 0)), data([2, 0], [0, 3])) == 10
    assert type(epsilon(Tower((0, 0)), data([2, 0], [0, 3]))) is Fraction


def test_epsilon_threefold_hand_value():
    # d=2, genera (0,0,0): inner eps1 = mu1 + (v2 + 1); then
    # eps0 = mu0 eps1 + (v1/2! + eps1) * 1
    tower = Tower((0, 0, 0))
    d = data([2, 3, 0], [0, 8, 5])
    eps1 = Fraction(3 + 5 + 1)
    expected = 2 * eps1 + (Fraction(8, 2) + eps1)
    assert epsilon(tower, d) == expected


def test_epsilon_tilde_examples():
    zero_ell = AffineFunction(0, 0)
    shifted = AffineFunction(1, 1)  # ell(g) = g + 1
    t = Tower((0, 0))
    d = data([2, 0], [0, 3])
    assert epsilon_tilde(t, d, zero_ell) == 6
    assert epsilon_tilde(t, d, shifted) == 10
    assert type(epsilon_tilde(t, d)) is Fraction


def _genus_factor(g: int) -> Fraction:
    return Fraction(max(g - 1, 1))


def _reference_epsilon(tower, data, ell=None):
    """The error term by two separate loops, one for epsilon (``ell`` None)
    and one for epsilon_tilde: an oracle independent of the package's single
    recursion."""
    genera = tower.genera
    d = tower.depth
    eps = _genus_factor(genera[d])
    if ell is None:
        for i in range(d - 1, -1, -1):
            v_next = data.vol[i + 1] / factorial(d - i)
            eps = data.mu[i] * eps + (v_next + eps) * _genus_factor(genera[i])
        return eps
    for i in range(d - 1, -1, -1):
        level_factor = _genus_factor(genera[i]) + ell(genera[i])
        v_next = data.vol[i + 1] / factorial(d - i)
        eps = data.mu[i] * eps + (v_next + eps) * level_factor
    return eps


def test_epsilon_tilde_zero_ell_equals_epsilon(rng):
    # the package's epsilon and its ell == 0 degeneration both match the
    # reference's epsilon loop, which has no ell term at all
    zero_ell = AffineFunction(0, 0)
    for _ in range(200):
        tower, d = _random_nonneg(rng)
        expected = _reference_epsilon(tower, d)
        assert epsilon_tilde(tower, d, zero_ell) == expected
        assert epsilon(tower, d) == expected


def test_epsilon_tilde_dominates_epsilon(rng):
    ell = AffineFunction(Fraction(1, 2), Fraction(2))
    for _ in range(200):
        tower, d = _random_nonneg(rng)
        value = epsilon_tilde(tower, d, ell)
        assert value == _reference_epsilon(tower, d, ell)
        assert value >= _reference_epsilon(tower, d)


def _random_nonneg(rng, depth_max=3):
    depth = rng.randint(0, depth_max)
    genera = tuple(rng.randint(0, 5) for _ in range(depth + 1))
    mu = [Fraction(rng.randint(0, 20), rng.randint(1, 5)) for _ in range(depth + 1)]
    vol = [Fraction(rng.randint(0, 30), rng.randint(1, 5)) for _ in range(depth + 1)]
    return Tower(genera), data(mu, vol)


def test_rescale_examples():
    d = data([2, 0], [0, 3])
    r = rescale(d, 2)
    assert r.mu == (4, 0) and r.vol == (0, 6)
    t = Tower((0, 0))
    assert epsilon(t, r) == 11
    assert epsilon(t, r) <= 2 * epsilon(t, d)
    assert rescale(d, 1) == d
    with pytest.raises(ValueError):
        rescale(d, 0)


def test_rescale_bound_sweep(rng):
    for _ in range(500):
        tower, d = _random_nonneg(rng)
        p = rng.randint(1, 5)
        depth = tower.depth
        scaled = epsilon(tower, rescale(d, p))
        assert scaled <= Fraction(p) ** depth * epsilon(tower, d)


def test_monotonicity_in_every_argument(rng):
    for _ in range(500):
        tower, d = _random_nonneg(rng)
        base = epsilon(tower, d)
        depth = tower.depth
        bump = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        # slopes (only mu_0..mu_{d-1} enter)
        if depth >= 1:
            k = rng.randrange(depth)
            mu = list(d.mu)
            mu[k] += bump
            assert epsilon(tower, TowerData(tuple(mu), d.vol)) >= base
        # volumes (only v_1..v_d enter)
        k = rng.randrange(len(d.vol))
        vol = list(d.vol)
        vol[k] += bump
        assert epsilon(tower, TowerData(d.mu, tuple(vol))) >= base
        # genera
        k = rng.randrange(depth + 1)
        genera = list(tower.genera)
        genera[k] += rng.randint(1, 3)
        assert epsilon(Tower(tuple(genera)), d) >= base


def test_negative_slope_flagged_not_rejected():
    t = Tower((0, 0))
    d = data([-1, 0], [0, 3])
    with pytest.warns(NegativeSlopeWarning):
        value = epsilon(t, d)
    assert value == -1 + 4


def test_negative_slope_warning_names_the_caller():
    t = Tower((0, 0))
    d = data([-1, 0], [0, 3])
    for term in (epsilon, epsilon_tilde):
        with pytest.warns(NegativeSlopeWarning) as caught:
            term(t, d)
        assert [w.filename for w in caught] == [__file__]


def test_validation():
    with pytest.raises(ValueError):
        Tower(())
    with pytest.raises(ValueError):
        Tower((0, -1))
    with pytest.raises(ValueError):
        TowerData((1,), (1, 2))
    with pytest.raises(ValueError):
        data([1], [-1])
    with pytest.raises(ValueError):
        epsilon(Tower((0, 0)), data([1], [1]))
    # an int, a Fraction and a "p/q" string are stored as Fractions
    stored = TowerData((2, Fraction(1, 3), "5/2"), (0, 1, 2))
    assert stored.mu == (2, Fraction(1, 3), Fraction(5, 2))
    assert {type(x) for x in stored.mu + stored.vol} == {Fraction}
    with pytest.raises(TypeError):
        from hnbounds import log_scalar

        TowerData((log_scalar(2),), (1,))
    with pytest.raises(TypeError):
        TowerData((0.5,), (1,))


def test_affine_function():
    ell = AffineFunction(Fraction(1, 2), 3)
    assert ell(0) == Fraction(1, 2) and type(ell(0)) is Fraction
    assert ell(4) == Fraction(25, 2)


def test_json_round_trip(capsys):
    # the CLI reads a tower as written: the error term of the same tower in memory
    t = Tower((0, 2))
    d = data([Fraction(3, 2), 0], [0, 5])
    blob = '{"genera": [0, 2], "mu": ["3/2", "0"], "vol": ["0", "5"]}'
    assert cli.main(["epsilon", "--tower", blob]) == 0
    assert json.loads(capsys.readouterr().out) == {"epsilon": str(epsilon(t, d))}
    # genera are ints: 2.0 is refused like 1.5, by the CLI's schema and by Tower
    for genera in ("[0.0, 2.0]", "[0, 1.5]"):
        assert cli.main(["epsilon", "--tower", blob.replace("[0, 2]", genera)]) == 2
        assert capsys.readouterr().err.startswith("config error: invalid --tower: ")
        with pytest.raises(TypeError):
            Tower(json.loads(genera))
