"""Seeded inputs and op streams of the four benchmark workloads.

An *op* is one certified check (one ``CheckReport``) or one top-level call
(``p1z_h0``, ``circle_sup_norm``, ``gillet_soule_constant``).  A workload's
inputs for one seed form a *round*: a list of units, each a list of ops run
back to back (the three checks of one lattice share the lattice object).
Timed runs repeat the round, building fresh program objects every time, so
no per-object memo survives from one round to the next.

Only generated inputs reach the program: Hirzebruch triples, tower data,
Gram matrices, integer polynomials and suite configs.  Inputs whose reports
are gated against the recorded reference come from fixed pools (item ``k``
of a pool is derived from ``k`` alone); the seed picks items and their order.

Every op carries two callables: ``call`` runs it as a user would, and
``traced`` runs the same op with each public call into the library under
its own span, then the op itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from hnbounds import bounds, cli
from hnbounds.bounds import CheckReport, IntPolynomial
from hnbounds.lattices import RATIONAL_FIELD, EuclideanLattice, gillet_soule_constant, random_gram
from hnbounds.scalars import Scalar, exp_interval, log_scalar
from hnbounds.series import FiberedSeries
from hnbounds.towers import Tower, TowerData, epsilon, rescale

WORKLOADS = ("hirzebruch", "lattice", "circle", "pool")

# hirzebruch: the a, b <= 20, e <= 3 grid (773 triples) and epsilon trials
GRID = (20, 20, 3)
EPS_POOL = 3000
EPS_TRIALS = 2000

# lattice: random_gram suite mix, dense mix, arithmetic suite, C(Q, n)
SUITE_RANKS = (3, 5, 6)
SUITE_POOL = 160
SUITE_PER_RANK = 80
DENSE_MIX = ((3, 8), (4, 5), (5, 3))
DENSE_POOL = 40
DENSE_PER_MIX = 10
ARITH_MAX_RANK = 5
ARITH_ENTRIES = (Fraction(1, 4), Fraction(1), Fraction(4))
GS_SIZES = (10_000, 100_000, 200_000)

# circle: p1z at n = 3, 4 and stratified circle_sup_norm calls
P1Z_DEGREES = (3, 4)
CIRCLE_DEGREES = tuple(range(2, 9))
CIRCLE_PRECISIONS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
CIRCLE_PER_STRATUM = 3  # polynomials per (degree, precision)

# pool: two suites through cli.run_config with two worker processes
POOL_JOBS = 2
POOL_LATTICE_TRIALS = 150


@dataclass
class Op:
    key: str  # reference key of the result; its first word names the op kind
    call: Callable[[], object]
    traced: Callable[[object], object]  # takes the span recorder
    n_ops: int = 1  # ops this call counts as (a whole suite pass in pool)
    inputs: object = None  # what an oracle in the gate needs besides the result


# -- input pools (item k depends on k only) ---------------------------------------


def hirzebruch_grid():
    a_max, b_max, e_max = GRID
    return [
        (a, b, e)
        for e in range(e_max + 1)
        for a in range(1, a_max + 1)
        for b in range(1, b_max + 1)
        if a >= e * b
    ]


def epsilon_trial(k: int):
    """Tower data, power p and one bumped coordinate, as the epsilon suite draws them."""
    rng = random.Random(f"epsilon-{k}")
    depth = rng.randint(0, 3)
    genera = tuple(rng.randint(0, 4) for _ in range(depth + 1))
    mu = tuple(Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(depth + 1))
    vol = tuple(Fraction(rng.randint(0, 24), rng.randint(1, 4)) for _ in range(depth + 1))
    p = rng.randint(1, 5)
    which = rng.randrange(3)
    if which == 0 and depth >= 1:
        bump, coord = "mu", rng.randrange(depth)
    elif which == 1:
        bump, coord = "vol", rng.randrange(depth + 1)
    else:
        bump, coord = "genus", rng.randrange(depth + 1)
    return genera, mu, vol, p, which, bump, coord


def suite_gram(rank: int, k: int):
    return random_gram(rank, random.Random(f"lattice-{rank}-{k}")).gram


def dense_gram(rank: int, shrink: int, k: int):
    lattice = random_gram(rank, random.Random(f"dense-{rank}-{shrink}-{k}"))
    return lattice.scale(Fraction(1, shrink)).gram


def circle_inputs():
    """The fixed polynomial pool: a polynomial's cost spans three orders of
    magnitude, so a per-seed draw of the ~130 calls a run reaches moved the
    median latency by 40% between seeds; the seed orders this pool instead."""
    out = []
    for deg in CIRCLE_DEGREES:
        for i, prec in enumerate(CIRCLE_PRECISIONS):
            for k in range(CIRCLE_PER_STRATUM):
                rng = random.Random(f"circle-{deg}-{i}-{k}")
                out.append((tuple(rng.randint(-2, 2) for _ in range(deg + 1)), prec))
    return out


def arithmetic_grams():
    import itertools

    out = []
    for rank in range(1, ARITH_MAX_RANK + 1):
        for diag in itertools.product(ARITH_ENTRIES, repeat=rank):
            out.append([[diag[i] if i == j else Fraction(0) for j in range(rank)] for i in range(rank)])
    return out


# -- ops ----------------------------------------------------------------------------


def _tower_data(mu, vol):
    return TowerData(tuple(Scalar.exact(x) for x in mu), tuple(Scalar.exact(x) for x in vol))


def hirzebruch_ops(triple):
    a, b, e = triple

    def geometric():
        return bounds.check_toric_family(FiberedSeries(a, b, e))

    def filtered():
        return bounds.check_filtered(FiberedSeries(a, b, e))

    def geometric_traced(tr):
        F = FiberedSeries(a, b, e)
        fiber_volume = _series_layers(tr, F)
        with tr.span("series.trapezoid_volume"):
            F.trapezoid().volume()
        with tr.span("towers.epsilon"):
            epsilon(Tower((0, 0)), TowerData((Scalar.exact(a), Scalar.exact(b)), (fiber_volume, Scalar.exact(b))))
        with tr.span("bounds.geometric_check"):
            return bounds.check_toric_family(F)

    def filtered_traced(tr):
        F = FiberedSeries(a, b, e)
        _series_layers(tr, F)
        with tr.span("series.filtered_rank_integral"):
            F.filtered_rank_integral(1)
        with tr.span("towers.epsilon"):
            epsilon(Tower((0,)), TowerData((Scalar.exact(b),), (Scalar.exact(b),)))
        with tr.span("bounds.geometric_check"):
            return bounds.check_filtered(F)

    return [
        [Op(f"geometric a={a} b={b} e={e}", geometric, geometric_traced)],
        [Op(f"filtered a={a} b={b} e={e}", filtered, filtered_traced)],
    ]


def _series_layers(tr, F):
    with tr.span("series.pushforward"):
        bundle = F.pushforward(1)
    with tr.span("curves.h0"):
        bundle.h0()
    with tr.span("curves.hn_type"):
        hn = bundle.hn_type()
    with tr.span("hn.deg_plus"):
        hn.deg_plus()
    with tr.span("series.volume_via_fibers"):
        return F.volume_via_fibers()


def epsilon_ops(k):
    genera, mu, vol, p, which, bump, coord = epsilon_trial(k)
    d = len(genera) - 1

    def bumped():
        genera2, mu2, vol2 = list(genera), list(mu), list(vol)
        if bump == "mu":
            mu2[coord] += 1
        elif bump == "vol":
            vol2[coord] += 1
        else:
            genera2[coord] += 1
        return Tower(tuple(genera2)), _tower_data(mu2, vol2)

    def rescale_check(tr=None):
        span = tr.span if tr else _no_span
        tower, data = Tower(genera), _tower_data(mu, vol)
        with span("towers.epsilon"):
            eps = epsilon(tower, data)
        with span("towers.rescale"):
            scaled = rescale(data, p)
        with span("towers.epsilon"):
            eps_scaled = epsilon(tower, scaled)
        with span("bounds.epsilon_check"):
            return CheckReport.compare(
                f"epsilon-rescale trial={k:04d} p={p} d={d}",
                eps_scaled,
                Scalar.exact(Fraction(p) ** d) * eps,
                {"epsilon": eps},
            )

    def monotone_check(tr=None):
        span = tr.span if tr else _no_span
        tower2, data2 = bumped()
        with span("towers.epsilon"):
            eps = epsilon(Tower(genera), _tower_data(mu, vol))
        with span("towers.epsilon"):
            eps2 = epsilon(tower2, data2)
        with span("bounds.epsilon_check"):
            return CheckReport.compare(f"epsilon-monotone trial={k:04d} coord={which}", eps, eps2, {})

    return [
        [Op(f"epsilon-rescale {k}", rescale_check, rescale_check)],
        [Op(f"epsilon-monotone {k}", monotone_check, monotone_check)],
    ]


_NULL = contextlib.nullcontext()


def _no_span(name, n=1):
    """Stands in for ``Tracer.span`` in untraced runs, at almost no cost."""
    return _NULL


def lattice_unit(key, gram):
    """The three lattice checks as three ops sharing one fresh lattice."""
    held = {}

    def first():
        held["L"] = L = EuclideanLattice(gram)
        return bounds.check_minkowski(L)

    def first_traced(tr):
        with tr.span("lattices.init"):
            held["L"] = L = EuclideanLattice(gram)
        with tr.span("lattices.h0_count"):
            count = L.h0_count()
        tr.add("lattices.points", count)
        tr.add("lattices.lattices", 1)
        tr.add("lattices.degenerate", int(count == 1))
        with tr.span("lattices.minima"):
            L.minima_norms_squared()
        with tr.span("bounds.lattice_check"):
            return bounds.check_minkowski(L)

    def second(tr=None):
        span = tr.span if tr else _no_span
        with span("bounds.lattice_check"):
            return bounds.check_blichfeldt(held["L"])

    def third(tr=None):
        span = tr.span if tr else _no_span
        with span("bounds.lattice_check"):
            return bounds.h0_minima_bound(held.pop("L"))

    return [
        Op(f"{key} minkowski", first, first_traced),
        Op(f"{key} blichfeldt", second, second, inputs=gram),
        Op(f"{key} minima-bound", third, third),
    ]


def arithmetic_op(gram):
    def call(tr=None):
        span = tr.span if tr else _no_span
        with span("lattices.init"):
            L = EuclideanLattice(gram)
        with span("bounds.gillet_soule_check"):
            return bounds.check_gillet_soule(L)

    diag = [str(gram[i][i]) for i in range(len(gram))]
    return Op(f"arithmetic rank={len(gram)} diag={diag}", call, call)


def gs_constant_op(n):
    def call(tr=None):
        span = tr.span if tr else _no_span
        with span("lattices.gillet_soule_constant"):
            return gillet_soule_constant(RATIONAL_FIELD, n)

    return Op(f"gs-constant n={n}", call, call)


def p1z_op(n):
    def call(tr=None):
        span = tr.span if tr else _no_span
        with span("bounds.p1z_h0", n=3 ** (n + 1)):
            return bounds.p1z_h0(n)

    return Op(f"p1z n={n}", call, call)


def circle_op(coeffs, precision):
    def call(tr=None):
        span = tr.span if tr else _no_span
        with span("bounds.circle_sup_norm"):
            return bounds.circle_sup_norm(IntPolynomial(coeffs), precision)

    return Op(f"circle {list(coeffs)} {precision}", call, call, inputs=(coeffs, precision))


def grid_config():
    return {"suite": "geometric", "parameters": dict(zip(("a_max", "b_max", "e_max"), GRID))}


def lattice_config(seed: int, trials: int):
    return {"suite": "lattice", "parameters": {"rank": 4, "trials": trials}, "seed": seed}


def pool_configs(seed: int):
    return [grid_config(), lattice_config(seed, POOL_LATTICE_TRIALS)]


def run_config_quiet(config, jobs: int):
    """cli.run_config with HNBOUNDS_JOBS set and its progress lines swallowed."""
    previous = os.environ.get("HNBOUNDS_JOBS")
    os.environ["HNBOUNDS_JOBS"] = str(jobs)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run_config(config)
    finally:
        if previous is None:
            del os.environ["HNBOUNDS_JOBS"]
        else:
            os.environ["HNBOUNDS_JOBS"] = previous


def pool_op(configs):
    n_reports = len(hirzebruch_grid()) + 3 * POOL_LATTICE_TRIALS

    def call(tr=None):
        span = tr.span if tr else _no_span
        out = []
        for config in configs:
            with span(f"cli.run_config.{config['suite']}"):
                out.append(run_config_quiet(config, POOL_JOBS))
        return out

    return Op("pool round", call, call, n_ops=n_reports, inputs=configs)


# -- rounds ----------------------------------------------------------------------------


def build_round(workload: str, seed: int) -> list[list[Op]]:
    """The workload's inputs for one seed, as units of ops in run order."""
    rng = random.Random(f"{workload}-{seed}")
    if workload == "hirzebruch":
        units = [u for t in hirzebruch_grid() for u in hirzebruch_ops(t)]
        for k in rng.sample(range(EPS_POOL), EPS_TRIALS):
            units.extend(epsilon_ops(k))
        rng.shuffle(units)
        return units
    if workload == "lattice":
        units = []
        for r in SUITE_RANKS:
            for k in rng.sample(range(SUITE_POOL), SUITE_PER_RANK):
                units.append(lattice_unit(f"suite r={r} k={k}", suite_gram(r, k)))
        for r, s in DENSE_MIX:
            for k in rng.sample(range(DENSE_POOL), DENSE_PER_MIX):
                units.append(lattice_unit(f"dense r={r} s={s} k={k}", dense_gram(r, s, k)))
        units.extend([arithmetic_op(g)] for g in arithmetic_grams())
        units.extend([gs_constant_op(n)] for n in GS_SIZES)
        rng.shuffle(units)
        return units
    if workload == "circle":
        units = [[p1z_op(n)] for n in P1Z_DEGREES]
        units += [[circle_op(*args)] for args in circle_inputs()]
        rng.shuffle(units)
        return units
    if workload == "pool":
        return [[pool_op(pool_configs(rng.randrange(2**31)))]]
    raise ValueError(f"unknown workload {workload!r}")


def direct_suite(config):
    """The checks run_config would make for ``config``, called directly on the
    same inputs (geometric and lattice suites only)."""
    if config["suite"] == "geometric":
        grid = hirzebruch_grid()
        return lambda: [bounds.check_toric_family(FiberedSeries(*t)) for t in grid]

    def lattice():
        rng = random.Random(config["seed"])
        out = []
        for _ in range(config["parameters"]["trials"]):
            L = random_gram(config["parameters"]["rank"], rng)
            out += [bounds.check_minkowski(L), bounds.check_blichfeldt(L), bounds.h0_minima_bound(L)]
        return out

    return lattice


def cli_args(workload: str, seed: int, out_dir: str) -> tuple[list[str], dict, str]:
    """argv after ``hnbounds``, extra environment and report path of the CLI form."""
    report = os.path.join(out_dir, f"cli-{workload}.json")
    if workload == "circle":
        return ["p1z", "--degree", "4"], {}, report
    env = {}
    if workload == "hirzebruch":
        config = grid_config()
    elif workload == "lattice":
        config = lattice_config(seed, trials=100)
    else:
        config = lattice_config(seed, POOL_LATTICE_TRIALS)
        env = {"HNBOUNDS_JOBS": str(POOL_JOBS)}
    config = dict(config, output={"path": report, "format": "json"})
    path = os.path.join(out_dir, f"cli-{workload}-config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return ["run", path], env, report


# probes used only by the traced run: operands for the scalar layer


def scalar_probes(tr, results, cos_grid: bool):
    """Time Scalar ops on operands drawn from this run's results."""
    rationals, intervals = [], []
    for value in results:
        for s in _scalars_of(value):
            (rationals if s.is_rational else intervals).append(s)
    pick = random.Random(0)
    for label, pool in (("scalars.rational_op", rationals), ("scalars.interval_op", intervals)):
        if len(pool) < 2:
            continue
        pairs = [(pick.choice(pool), pick.choice(pool)) for _ in range(400)]
        divisible = [(x, y) for x, y in pairs if not y.bounds()[0] <= 0 <= y.bounds()[1]]
        with tr.span(label, n=3 * len(pairs) + len(divisible)):
            for x, y in pairs:
                x + y
                x - y
                x * y
            for x, y in divisible:
                x / y
    counts = [r.context["count"] for r in reports_in(results) if r.context.get("count", 0) > 0]
    positives = ([s.as_fraction() for s in rationals if s.as_fraction() > 0] + counts)[:400]
    if positives:
        with tr.span("scalars.log_scalar", n=len(positives)):
            for q in positives:
                log_scalar(q)
    bounded = [s for s in intervals if abs(s.midpoint()) < 50][:400]
    if bounded:
        with tr.span("scalars.exp_interval", n=len(bounded)):
            for s in bounded:
                exp_interval(s)
    if cos_grid:
        from hnbounds.scalars import cos_2pi

        angles = [Fraction(k, n) for n in (64, 256, 1024) for k in range(0, n, max(1, n // 128))]
        with tr.span("scalars.cos_2pi", n=len(angles)):
            for angle in angles:
                cos_2pi(angle)


def reports_in(values):
    for value in values:
        if isinstance(value, CheckReport):
            yield value
        elif isinstance(value, (tuple, list)):
            yield from reports_in(value)


def _scalars_of(value):
    if isinstance(value, Scalar):
        yield value
    elif isinstance(value, CheckReport):
        yield from (value.lhs, value.rhs, value.margin)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _scalars_of(v)
