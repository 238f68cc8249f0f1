"""Command-line harness: run verification suites, emit JSON/CSV reports.

Subcommands:

* ``run <config.json>`` -- execute a named suite from a config file;
* ``polygon --hn <json>`` -- echo slope-data invariants of one type;
* ``epsilon --tower <json>`` -- evaluate the recursive error term;
* ``lattice --gram <json>`` -- invariants and checks of one lattice;
* ``p1z --degree <n>`` -- the integer-polynomial count testbed.

Exit status: 0 when every check passes, 1 on any failed check, 2 on invalid
input, when a result cannot be certified within its budget
(``EnumerationBudgetError``, ``CertificationError``, ``PrecisionBudgetError``)
or when a worker process dies (``BrokenProcessPool``), with a one-line
message on stderr.  Randomized suites take a seed and print
it, so every failure is replayable; identical config and seed produce
byte-identical JSON output.
``HNBOUNDS_JOBS`` controls how many worker processes evaluate checks; it is
clamped to the CPU count and to the number of tasks (the report list is
assembled in a fixed order either way).  Workers receive plain data (a
``FiberedSeries``, which is three integers, or a lattice trial's number and
integer Gram matrix) and return finished reports.

The worker pool is built on the first pooled suite and kept warm for every
later one in the process while the worker count stays the same; it is
replaced when the count changes, when a worker dies, or in a forked child,
and shut down at interpreter exit.  Workers are forked once, so they keep
the module globals of that moment: a global changed later (say, a
monkeypatched ``lattices.MAX_NODES``) is not seen by checks run in workers.

JSON schemas are compiled on first use, once per schema; ``jsonschema`` is
imported only then, so a subcommand that validates nothing never loads it.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import dataclasses
import itertools
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction

from . import bounds
from .hn import HNType, hn_from_json
from .lattices import EnumerationBudgetError, EuclideanLattice, _random_int_gram
from .scalars import CertificationError, Scalar
from .series import FiberedSeries
from .towers import Tower, TowerData, epsilon, epsilon_tilde, rescale, tower_from_json, AffineFunction
from .bounds import CheckReport, reports_to_csv, reports_to_json

SUITES = ("geometric", "filtered", "lattice", "arithmetic", "epsilon", "polygon")

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["suite"],
    "properties": {
        "suite": {"enum": list(SUITES)},
        "parameters": {"type": "object"},
        "seed": {"type": "integer"},
        "output": {
            "type": "object",
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["json", "csv"]},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

_RATIONAL = {"type": ["string", "integer"]}
_INTERVAL = {"type": "object", "required": ["lo", "hi"], "properties": {"lo": _RATIONAL, "hi": _RATIONAL}}
_SCALAR = {"anyOf": [_RATIONAL, _INTERVAL]}  # what Scalar.from_json reads
_HN_PAIR = {"type": "array", "prefixItems": [{"type": "integer"}, _SCALAR], "minItems": 2, "maxItems": 2}
_HN_SCHEMA = {"type": "array", "items": _HN_PAIR}

TOWER_SCHEMA = {
    "type": "object",
    "required": ["genera", "mu", "vol"],
    "properties": {
        "genera": {"type": "array", "items": {"type": "integer"}},
        "mu": {"type": "array", "items": _RATIONAL},
        "vol": {"type": "array", "items": _RATIONAL},
    },
}

HIRZEBRUCH_GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "a_max": {"type": "integer", "minimum": 1},
        "b_max": {"type": "integer", "minimum": 1},
        "e_max": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

PARAMETER_SCHEMAS = {
    "geometric": HIRZEBRUCH_GRID_SCHEMA,
    "filtered": HIRZEBRUCH_GRID_SCHEMA,
    "lattice": {
        "type": "object",
        "properties": {
            "rank": {"type": "integer", "minimum": 1, "maximum": 8},
            "trials": {"type": "integer", "minimum": 1},
        },
        "additionalProperties": False,
    },
    "arithmetic": {
        "type": "object",
        "properties": {
            "max_rank": {"type": "integer", "minimum": 1, "maximum": 6},
            "entries": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        },
        "additionalProperties": False,
    },
    "epsilon": {
        "type": "object",
        "properties": {
            "trials": {"type": "integer", "minimum": 1},
            "p_max": {"type": "integer", "minimum": 1},
        },
        "additionalProperties": False,
    },
    "polygon": {
        "type": "object",
        "required": ["hn"],
        "properties": {"hn": _HN_SCHEMA},
        "additionalProperties": False,
    },
}


GRAM_SCHEMA = {
    "type": "array",
    "items": {"type": "array", "items": _RATIONAL},
}

ELL_SCHEMA = {
    "type": "array",
    "items": {"type": ["string", "number"]},
    "minItems": 2,
    "maxItems": 2,
}


class ConfigError(ValueError):
    pass


_VALIDATORS = {}  # id(schema) -> (schema, its compiled validator)


def _validate(value, schema, what: str):
    """``value`` if it matches ``schema``; otherwise a one-line ConfigError.

    The message is that of ``jsonschema.validate``: the best match among
    the errors.  Each schema is checked against its meta-schema and compiled
    once; the entry keeps the schema alive, so its id is not reused.
    ``"integer"`` means a Python int: JSON Schema's own rule admits ``2.0``,
    which the integer fields would then receive as a float.
    """
    entry = _VALIDATORS.get(id(schema))
    if entry is None:
        from jsonschema.validators import extend, validator_for

        cls = validator_for(schema)
        cls.check_schema(schema)
        checker = cls.TYPE_CHECKER.redefine("integer", lambda _, x: type(x) is int)
        cls = extend(cls, type_checker=checker)
        entry = _VALIDATORS[id(schema)] = (schema, cls(schema))
    from jsonschema.exceptions import best_match

    error = best_match(entry[1].iter_errors(value))
    if error is not None:
        raise ConfigError(f"invalid {what}: {error.message}") from error
    return value


@contextlib.contextmanager
def _parsing(what: str):
    """Report a zero denominator in a JSON rational as invalid ``what``."""
    try:
        yield
    except ZeroDivisionError as exc:
        raise ConfigError(f"invalid {what}: a rational has a zero denominator") from exc


def validate_config(config: dict) -> dict:
    _validate(config, CONFIG_SCHEMA, "config")
    _validate(config.get("parameters", {}), PARAMETER_SCHEMAS[config["suite"]], "config")
    return config


def _jobs(tasks: int) -> int:
    """Worker count: ``HNBOUNDS_JOBS``, at most the CPU count and ``tasks``."""
    try:
        jobs = int(os.environ.get("HNBOUNDS_JOBS", "1"))
    except ValueError:
        jobs = 1
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def _call(task):
    func, arg = task
    return func(arg)


_pool = None  # (pid of the creating process, worker count, executor)


def _executor(jobs: int) -> ProcessPoolExecutor:
    """The warm pool of ``jobs`` workers, built on first use.

    A pool of another size is shut down and replaced.  A pool inherited by
    a forked child is forgotten, not shut down: its workers are the
    parent's.
    """
    global _pool
    if _pool is not None and _pool[:2] != (os.getpid(), jobs):
        _drop_pool()
    if _pool is None:
        _pool = (os.getpid(), jobs, ProcessPoolExecutor(max_workers=jobs))
    return _pool[2]


@atexit.register
def _drop_pool() -> None:
    """Forget the warm pool, and shut it down if this process created it."""
    global _pool
    if _pool is not None:
        pid, _, pool = _pool
        _pool = None
        if pid == os.getpid():
            pool.shutdown()


def _run_checks(tasks):
    """Evaluate (func, arg) pairs, optionally in worker processes.

    Workers receive the tasks in contiguous batches, about four per worker,
    so that a cheap check does not cost a round trip of its own.  Results
    keep submission order and the first error in that order is raised, so
    the final report list is stable no matter how many workers run.

    Pooled calls share one warm pool per process (see ``_executor``); a
    ``jobs == 1`` call runs in this process and leaves the pool as it is.
    The workers were forked when the pool was built, so a check run there
    sees the module globals of that moment, not later changes to them.  A
    worker that dies raises ``BrokenProcessPool`` and the pool is dropped,
    so the next pooled call starts a fresh one.  The pool is shared without
    a lock: call this from one thread at a time, as the CLI does.
    """
    jobs = _jobs(len(tasks))
    if jobs == 1:
        return [_call(task) for task in tasks]
    chunksize = -(-len(tasks) // (4 * jobs))
    try:
        return list(_executor(jobs).map(_call, tasks, chunksize=chunksize))
    except BrokenProcessPool:
        _drop_pool()
        raise


# -- suites -------------------------------------------------------------------


def _hirzebruch_grid(params):
    a_max = params.get("a_max", 6)
    b_max = params.get("b_max", 6)
    e_max = params.get("e_max", 2)
    for e in range(e_max + 1):
        for a in range(1, a_max + 1):
            for b in range(1, b_max + 1):
                if a >= e * b:
                    yield FiberedSeries(a, b, e)


def suite_geometric(params, rng) -> list[CheckReport]:
    tasks = [(bounds.check_toric_family, F) for F in _hirzebruch_grid(params)]
    return _run_checks(tasks)


def suite_filtered(params, rng) -> list[CheckReport]:
    tasks = [(bounds.check_filtered, F) for F in _hirzebruch_grid(params)]
    return _run_checks(tasks)


def _lattice_checks(L: EuclideanLattice) -> list[CheckReport]:
    return [
        bounds.check_minkowski(L),
        bounds.check_blichfeldt(L),
        bounds.h0_minima_bound(L),
    ]


def _lattice_trial(task) -> list[CheckReport]:
    """The named reports of one suite trial, ``task = (trial, integer Gram)``."""
    trial, gram = task
    return [
        dataclasses.replace(rep, name=f"{rep.name} trial={trial:04d}")
        for rep in _lattice_checks(EuclideanLattice(gram))
    ]


def suite_lattice(params, rng) -> list[CheckReport]:
    """Three checks on each of ``trials`` seeded ``random_gram`` lattices.

    The parent draws the integer Gram matrices (the same draws as
    ``random_gram``) and sends each worker ``(trial, Gram)``; the worker
    builds the lattice and returns its three reports already named.
    """
    rank = params.get("rank", 3)
    trials = params.get("trials", 50)
    grams = [_random_int_gram(rank, rng) for _ in range(trials)]
    nested = _run_checks([(_lattice_trial, task) for task in enumerate(grams)])
    return [rep for triple in nested for rep in triple]


def suite_arithmetic(params, rng) -> list[CheckReport]:
    max_rank = params.get("max_rank", 4)
    with _parsing("config"):
        entries = [Fraction(e) for e in params.get("entries", ["1/4", "1", "4"])]
    reports = []
    for rank in range(1, max_rank + 1):
        for diag in itertools.product(entries, repeat=rank):
            gram = [
                [diag[i] if i == j else Fraction(0) for j in range(rank)]
                for i in range(rank)
            ]
            reports.append(bounds.check_gillet_soule(EuclideanLattice(gram)))
    return reports


def _random_tower(rng):
    depth = rng.randint(0, 3)
    genera = tuple(rng.randint(0, 4) for _ in range(depth + 1))
    mu = tuple(Scalar.exact(Fraction(rng.randint(0, 12), rng.randint(1, 4))) for _ in range(depth + 1))
    vol = tuple(Scalar.exact(Fraction(rng.randint(0, 24), rng.randint(1, 4))) for _ in range(depth + 1))
    return Tower(genera), TowerData(mu, vol)


def suite_epsilon(params, rng) -> list[CheckReport]:
    trials = params.get("trials", 100)
    p_max = params.get("p_max", 5)
    reports = []
    for i in range(trials):
        tower, data = _random_tower(rng)
        d = tower.depth
        eps = epsilon(tower, data)
        p = rng.randint(1, p_max)
        eps_scaled = epsilon(tower, rescale(data, p))
        bound = Scalar.exact(Fraction(p) ** d) * eps
        reports.append(
            CheckReport.compare(
                f"epsilon-rescale trial={i:04d} p={p} d={d}",
                eps_scaled,
                bound,
                {"epsilon": eps},
            )
        )
        # monotonicity: bump one coordinate upward
        which = rng.randrange(3)
        if which == 0 and d >= 1:
            k = rng.randrange(d)
            mu = list(data.mu)
            mu[k] = mu[k] + Scalar.exact(1)
            bumped = TowerData(tuple(mu), data.vol)
            tower2 = tower
        elif which == 1:
            k = rng.randrange(len(data.vol))
            vol = list(data.vol)
            vol[k] = vol[k] + Scalar.exact(1)
            bumped = TowerData(data.mu, tuple(vol))
            tower2 = tower
        else:
            k = rng.randrange(d + 1)
            genera = list(tower.genera)
            genera[k] += 1
            tower2 = Tower(tuple(genera))
            bumped = data
        reports.append(
            CheckReport.compare(
                f"epsilon-monotone trial={i:04d} coord={which}",
                eps,
                epsilon(tower2, bumped),
                {},
            )
        )
    return reports


# A report prints each rational in decimal, and CPython refuses to convert an
# int of more than 4300 digits (about 14,000 bits) to a string.  Every value
# a polygon report derives from slope data has at most a few hundred bits
# more than the data's ranks, numerators and denominators together.
_HN_MAX_BITS = 10_000


def _read_hn(data, what: str) -> HNType:
    """Slope data from schema-valid JSON; ``ConfigError`` naming ``what`` on
    a zero denominator or on data too large to print in a report."""
    with _parsing(what):
        h = hn_from_json(data)
    bits = sum(
        r.bit_length() + sum(q.numerator.bit_length() + q.denominator.bit_length() for q in set(s.bounds()))
        for r, s in h.segments
    )
    if bits > _HN_MAX_BITS:
        raise ConfigError(
            f"invalid {what}: the slope data has {bits} bits, more than a report prints ({_HN_MAX_BITS})"
        )
    return h


def suite_polygon(params, rng) -> list[CheckReport]:
    h = _read_hn(params["hn"], "config")
    deg_plus = h.deg_plus()
    (ilo, ihi), (dlo, dhi) = h.positive_rank_integral().bounds(), deg_plus.bounds()
    mu_max, mu_min = h.slope_extremes()
    report = CheckReport.compare(
        "polygon deg_plus<=max(rank,1)*mu_max_plus",
        deg_plus,
        Scalar.exact(h.rank) * mu_max.max0(),
        {
            "deg_plus": deg_plus,
            "mu_max": mu_max,
            "mu_min": mu_min,
            "rank": h.rank,
            "breakpoints": [[x.to_json(), y.to_json()] for x, y in h.polygon()],
            # the two enclosures overlap: equality, for rational slopes
            "integral_identity": max(ilo, dlo) <= min(ihi, dhi),
        },
    )
    return [report]


SUITE_RUNNERS = {
    "geometric": suite_geometric,
    "filtered": suite_filtered,
    "lattice": suite_lattice,
    "arithmetic": suite_arithmetic,
    "epsilon": suite_epsilon,
    "polygon": suite_polygon,
}


def run_config(config: dict) -> tuple[int, list[CheckReport]]:
    config = validate_config(config)
    seed = config.get("seed", 0)
    rng = random.Random(seed)
    reports = SUITE_RUNNERS[config["suite"]](config.get("parameters", {}), rng)
    reports = sorted(reports, key=lambda r: r.name)
    passed = sum(1 for r in reports if r.passed)
    output = config.get("output", {})
    path = output.get("path")
    fmt = output.get("format", "json")
    if path:
        with open(path, "w") as fh:
            if fmt == "csv":
                fh.write(reports_to_csv(reports))
            else:
                json.dump(reports_to_json(reports), fh, indent=2, sort_keys=True)
                fh.write("\n")
    # nothing reaches stdout until the suite has run and its report is written
    print(f"suite={config['suite']} seed={seed}")
    print(f"{passed}/{len(reports)}")
    return (0 if passed == len(reports) else 1), reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hnbounds", description="exact slope/lattice inequality verifier"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a suite from a JSON config file")
    p_run.add_argument("config", help="path to config JSON")

    p_poly = sub.add_parser("polygon", help="echo invariants of one slope type")
    p_poly.add_argument("--hn", required=True, help='JSON like [[2,"3"],[1,"-1"]]')

    p_eps = sub.add_parser("epsilon", help="evaluate the recursive error term")
    p_eps.add_argument(
        "--tower", required=True, help='JSON {"genera":[..],"mu":[..],"vol":[..]}'
    )
    p_eps.add_argument("--ell", default=None, help='optional affine "c+s*g" as JSON [c, s]')

    p_lat = sub.add_parser("lattice", help="invariants and checks of one lattice")
    p_lat.add_argument("--gram", required=True, help="JSON matrix of 'p/q' strings")

    p_p1z = sub.add_parser("p1z", help="count unit-norm integer polynomials")
    p_p1z.add_argument("--degree", type=int, required=True)

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            with open(args.config) as fh:
                config = json.load(fh)
            status, _ = run_config(config)
            return status
        if args.command == "polygon":
            # refused here, the message naming the flag; the suite reads it again
            hn = _validate(json.loads(args.hn), _HN_SCHEMA, "--hn")
            _read_hn(hn, "--hn")
            status, reports = run_config({"suite": "polygon", "parameters": {"hn": hn}})
            print(json.dumps(reports_to_json(reports), indent=2, sort_keys=True))
            return status
        if args.command == "epsilon":
            tower_json = _validate(json.loads(args.tower), TOWER_SCHEMA, "--tower")
            with _parsing("--tower"):
                tower, data = tower_from_json(tower_json)
            if args.ell is None:
                value = epsilon(tower, data)
            else:
                c, s = _validate(json.loads(args.ell), ELL_SCHEMA, "--ell")
                with _parsing("--ell"):
                    ell = AffineFunction(Fraction(str(c)), Fraction(str(s)))
                value = epsilon_tilde(tower, data, ell)
            print(json.dumps({"epsilon": value.to_json()}))
            return 0
        if args.command == "lattice":
            gram = _validate(json.loads(args.gram), GRAM_SCHEMA, "--gram")
            with _parsing("--gram"):
                lattice = EuclideanLattice.from_json(gram)
            reports = _lattice_checks(lattice)
            print(json.dumps(reports_to_json(reports), indent=2, sort_keys=True))
            return 0 if all(r.passed for r in reports) else 1
        if args.command == "p1z":
            count, report = bounds.p1z_h0(args.degree)
            print(json.dumps({"count": count, "report": report.to_json()}, indent=2, sort_keys=True))
            return 0 if report.passed else 1
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 2
    except (
        ValueError,
        KeyError,
        EnumerationBudgetError,
        CertificationError,
        bounds.PrecisionBudgetError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
