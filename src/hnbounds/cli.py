"""Command-line harness: run verification suites, emit JSON/CSV reports.

Subcommands:

* ``run <config.json>`` -- execute a named suite from a config file;
* ``polygon --hn <json>`` -- echo slope-data invariants of one type;
* ``epsilon --tower <json>`` -- evaluate the recursive error term;
* ``lattice --gram <json>`` -- invariants and checks of one lattice;
* ``p1z --degree <n>`` -- the integer-polynomial count testbed.

Exit status: 0 when every check passes, 1 on any failed check, 2 on invalid
input, when a result cannot be certified within its budget
(``EnumerationBudgetError``, ``CertificationError``) or when a worker
process dies (``WorkerDiedError``), with a one-line message on stderr.
Invalid input reads ``config error: invalid <flag or config>: …``, also
when the input is well formed but a library constructor refuses it
(``_build``): slopes that do not decrease, a negative genus, an asymmetric
Gram matrix, a ``--degree`` past its budget.  Interval slopes
whose order ``HNType`` cannot certify are invalid slope data too.  A
command line that argparse refuses reads ``config error: invalid
arguments: …`` (``_Parser``), without the usage text.  A library warning
on accepted input (a negative slope in an ``epsilon`` tower) is printed as
one ``warning: …`` line and changes neither stdout nor the exit status.  Randomized suites take a seed
and print it, so every failure is replayable; identical config and seed
produce byte-identical JSON.

``HNBOUNDS_JOBS`` sets how many processes evaluate checks, this one
included; it is clamped to the CPU count and to the number of tasks, and
where ``os.fork`` is missing the run is serial.  ``_run_checks`` splits the
tasks in order into contiguous shares: this process runs the first, and
each of the other processes, a forked worker, gets its share as one pickle
on a plain pipe and sends its results back as one pickle.  Shares are plain
data (a ``FiberedSeries``, which is three integers, or a lattice trial's
number and integer Gram matrix) and results are finished reports, so the
report list is assembled in a fixed order either way.  No thread is started
and neither ``concurrent.futures`` nor ``multiprocessing`` is imported.  The
workers are forked on the first pooled suite, and kept warm for every later
one in the process while the count stays the same; they are replaced when
the count changes or a worker dies, forgotten in a forked child, and closed
and reaped at interpreter exit.  Workers are forked once, so they keep the
module globals of that moment: a global changed later (say, a monkeypatched
``lattices.MAX_NODES``) is seen by the first share, which runs here, but not
by the shares run in workers.

The JSON wire format is read here only.  ``_load`` parses a flag or a config
file and checks it against the schemas below with ``_validate``, a small
interpreter of the Draft 2020-12 keywords they use with ``jsonschema``'s
messages (``jsonschema`` is the tests' reference).  Every JSON rational goes
through ``_rational``, which refuses a string ``Fraction`` does not read and
weighs a decimal exponent before expanding it; ``_refuse_past_cap`` caps
each input's total at ``_MAX_BITS``.
"""

from __future__ import annotations

import argparse
import atexit
import itertools
import json
import os
import random
import re
import sys
import warnings
from fractions import Fraction

from . import bounds
from .hn import HNType
from .lattices import MAX_RANK, EnumerationBudgetError, EuclideanLattice, _random_int_gram
from .scalars import CertificationError, Scalar
from .series import FiberedSeries
from .towers import Tower, TowerData, epsilon, epsilon_tilde, rescale, AffineFunction
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
_SCALAR = {"anyOf": [_RATIONAL, _INTERVAL]}
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
            "rank": {"type": "integer", "minimum": 1, "maximum": MAX_RANK},
            "trials": {"type": "integer", "minimum": 1},
        },
        "additionalProperties": False,
    },
    "arithmetic": {
        "type": "object",
        "properties": {
            "max_rank": {"type": "integer", "minimum": 1, "maximum": MAX_RANK},
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


class _Parser(argparse.ArgumentParser):
    """An argparse usage error is invalid input: one ConfigError line, not
    argparse's usage text and ``SystemExit``.  ``--help`` still exits 0."""

    def error(self, message):
        raise ConfigError(f"invalid arguments: {message}")


# JSON Schema's types as Python values.  "integer" is a Python int: JSON
# Schema's own rule admits 2.0, which the integer fields would then receive
# as a float.
_TYPES = {
    "array": lambda x: isinstance(x, list),
    "integer": lambda x: type(x) is int,
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


def _errors(value, schema, path=()):
    """The errors of ``value`` under ``schema``, as ``jsonschema``'s Draft
    2020-12 validator yields them: in its order, with its messages, each as
    ``(relevance, message, context)``.

    ``relevance`` is ``jsonschema.exceptions.relevance`` of the error, whose
    ``path`` locates it in the outer value; an ``anyOf`` error's ``context``
    holds its branches' errors, located in its own value.  Only the keywords
    the schemas above use are read; any other raises ``ValueError``.
    """
    types = schema.get("type")
    types = [types] if isinstance(types, str) else types
    matched = types is not None and any(_TYPES[t](value) for t in types)

    def error(keyword, message, context=()):
        return (-len(path), path, keyword != "anyOf", not matched), message, context

    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    for keyword, arg in schema.items():
        if keyword == "type":
            if not matched:
                yield error(keyword, f"{value!r} is not of type {', '.join(map(repr, types))}")
        elif keyword == "enum":
            # JSON equality: true is not 1
            if not any(type(x) is type(value) and x == value for x in arg):
                yield error(keyword, f"{value!r} is not one of {arg!r}")
        elif keyword == "anyOf":
            context = []
            for branch in arg:
                found = list(_errors(value, branch))
                if not found:
                    break
                context += found
            else:
                yield error(keyword, f"{value!r} is not valid under any of the given schemas", context)
        elif keyword in ("minimum", "maximum"):
            if _TYPES["number"](value) and (value < arg if keyword == "minimum" else value > arg):
                side = "less" if keyword == "minimum" else "greater"
                yield error(keyword, f"{value!r} is {side} than the {keyword} of {arg!r}")
        elif keyword == "required":
            for key in arg if is_object else ():
                if key not in value:
                    yield error(keyword, f"{key!r} is a required property")
        elif keyword == "properties":
            for key, sub in arg.items() if is_object else ():
                if key in value:
                    yield from _errors(value[key], sub, (*path, key))
        elif keyword == "additionalProperties" and arg is False:
            known = schema.get("properties", {})
            extra = sorted((k for k in value if k not in known), key=str) if is_object else []
            if extra:
                names, verb = ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were"
                yield error(keyword, f"Additional properties are not allowed ({names} {verb} unexpected)")
        elif keyword == "prefixItems":
            for i, (item, sub) in enumerate(zip(value, arg) if is_array else ()):
                yield from _errors(item, sub, (*path, i))
        elif keyword == "items":
            for i in range(len(schema.get("prefixItems", ())), len(value)) if is_array else ():
                yield from _errors(value[i], arg, (*path, i))
        elif keyword == "minItems":
            if is_array and len(value) < arg:
                yield error(keyword, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}")
        elif keyword == "maxItems":
            if is_array and len(value) > arg:
                yield error(keyword, f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}")
        else:
            raise ValueError(f"unsupported schema keyword {keyword!r}: {arg!r}")


def _relevance(error):
    return error[0]


def _validate(value, schema, what: str):
    """``value`` if it matches ``schema``; otherwise a one-line ConfigError.

    The message is that of ``jsonschema.validate``, its ``best_match``: the
    most relevant error (the shallowest, an ``anyOf`` last), then, while
    that is an ``anyOf``, its branches' least relevant error (the deepest)
    unless two of them tie.
    """
    errors = list(_errors(value, schema))
    if not errors:
        return value
    _, message, context = max(errors, key=_relevance)
    while context:
        first, *rest = sorted(context, key=_relevance)
        if rest and _relevance(rest[0]) == _relevance(first):
            break
        _, message, context = first
    raise ConfigError(f"invalid {what}: {message}")


# A report prints each rational in decimal, and CPython refuses to convert an
# int of more than 4300 digits (about 14,000 bits) to a string.  Every value
# a polygon report derives from slope data has at most a few hundred bits
# more than the data's ranks, numerators and denominators together.  Exact
# lattice arithmetic on a Gram matrix of more bits can run for minutes (the
# gcds of its minima), and the arithmetic suite prints its entries.
_MAX_BITS = 10_000


def _load(text: str, schema: dict, what: str):
    """The JSON ``text`` if it matches ``schema``; otherwise a one-line ConfigError."""
    try:
        value = json.loads(text)
    except ValueError as exc:  # malformed, or an int past CPython's digit limit
        raise ConfigError(f"invalid {what}: {exc}") from None
    return _validate(value, schema, what)


def _rational(x, what: str, data: str) -> Fraction:
    """The JSON rational ``x`` (a string or a number) as a Fraction, or a
    ConfigError naming ``what``.  A decimal exponent is weighed before 10**e
    is built: the mantissa is ``x`` read with the exponent's digits zeroed
    (the same grammar), and ``mantissa * 10**e`` has at least ``|e| log2(10)``
    bits less those of its denominator (e > 0) or numerator (e < 0)."""
    if isinstance(x, int):
        return Fraction(x)
    text = x if isinstance(x, str) else str(x)  # a float, from --ell: as printed
    try:
        exp = re.search(r"[eE]([-+]?[\d_]+)\s*\Z", text)
        if exp is None:
            return Fraction(text)
        mantissa = Fraction(text[: exp.start(1)] + re.sub(r"\d", "0", exp[1]) + text[exp.end(1):])
        e = int(exp[1])
    except (ValueError, ZeroDivisionError) as exc:  # also a run of digits past CPython's limit
        raise ConfigError(f"invalid {what}: {x!r} is not a rational") from exc
    if not mantissa:
        return mantissa
    side = mantissa.denominator if e > 0 else mantissa.numerator
    bits = abs(e) * 3321928 // 10**6 - abs(side).bit_length() + 1  # 3.321928 < log2(10)
    if bits > _MAX_BITS:
        raise ConfigError(f"invalid {what}: the {data} has {bits} or more bits, more than {_MAX_BITS}")
    return mantissa * Fraction(10) ** e


def _refuse_past_cap(data: str, what: str, rationals, ints=()) -> None:
    """A ConfigError naming ``what`` when ``rationals`` and ``ints`` take more than ``_MAX_BITS``."""
    bits = sum(n.bit_length() for n in ints)
    bits += sum(q.numerator.bit_length() + q.denominator.bit_length() for q in rationals)
    if bits > _MAX_BITS:
        raise ConfigError(f"invalid {what}: the {data} has {bits} bits, more than {_MAX_BITS}")


def _build(what: str, make, *args):
    """``make(*args)``, a library constructor or check run on parsed input; a
    ``ValueError`` it raises on that input becomes a ConfigError naming ``what``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from None


def validate_config(config: dict) -> dict:
    _validate(config, CONFIG_SCHEMA, "config")
    _validate(config.get("parameters", {}), PARAMETER_SCHEMAS[config["suite"]], "config")
    return config


def _jobs(tasks: int) -> int:
    """Process count, this one included: ``HNBOUNDS_JOBS``, at most the CPU
    count and ``tasks``; 1 where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        jobs = int(os.environ.get("HNBOUNDS_JOBS", "1"))
    except ValueError:
        jobs = 1
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def _call(task):
    func, arg = task
    return func(arg)


class WorkerDiedError(RuntimeError):
    """A worker process ended before it sent back its share's results."""


_pool = None  # (pid of the creating process, [(worker pid, share pipe, reply pipe)])


def _workers(count: int):
    """The ``count`` warm workers, forked on first use.

    Workers of another count are closed and reaped, and replaced.  Workers
    inherited by a forked child are forgotten, not reaped: they are the
    parent's.
    """
    global _pool
    if _pool is not None and (_pool[0] != os.getpid() or len(_pool[1]) != count):
        _drop_pool()
    if _pool is None:
        _pool = (os.getpid(), [])
        while len(_pool[1]) < count:
            share_r, share_w = os.pipe()
            reply_r, reply_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    # a sibling sees EOF only once every copy of its share pipe is closed
                    for _, shares, replies in _pool[1]:
                        shares.close()
                        replies.close()
                    os.close(share_w)
                    os.close(reply_r)
                    _serve(os.fdopen(share_r, "rb"), os.fdopen(reply_w, "wb"))
                finally:
                    os._exit(0)
            os.close(share_r)
            os.close(reply_w)
            _pool[1].append((pid, os.fdopen(share_w, "wb"), os.fdopen(reply_r, "rb")))
    return _pool[1]


def _serve(shares, replies) -> None:
    """A worker's loop: read a share, send back ``(True, results)`` or
    ``(False, first exception)``, until EOF."""
    import pickle

    while True:
        try:
            share = pickle.load(shares)
        except EOFError:
            return
        try:
            reply = pickle.dumps((True, [_call(task) for task in share]))
        except Exception as exc:
            reply = pickle.dumps((False, exc))
        replies.write(reply)
        replies.flush()


@atexit.register
def _drop_pool() -> None:
    """Forget the warm workers; close and reap them if this process forked them."""
    global _pool
    if _pool is not None:
        pid, workers = _pool
        _pool = None
        for _, shares, replies in workers:
            replies.close()
            try:
                shares.close()
            except OSError:  # the rest of a share that a dead worker never read
                pass
        if pid == os.getpid():
            for worker, _, _ in workers:
                os.waitpid(worker, 0)


def _run_checks(tasks):
    """Evaluate (func, arg) pairs, split over ``_jobs`` processes.

    ``tasks`` is split in order into contiguous shares whose sizes differ by
    at most one.  This process runs the first share itself and the warm
    workers of ``_workers`` the others: each worker reads its share as one
    pickle on a pipe and sends back its results as one pickle.  Every reply
    is read, in order, also when the first share raised, so the pipes stay
    in step.  The first error in task order is raised, and otherwise the
    results are returned in task order, so the report list is the same no
    matter how many processes run.

    A ``jobs == 1`` call runs here and leaves the workers as they are.  The
    workers were forked at the first pooled call, so a task run there sees
    the module globals of that moment, not later changes to them.  A reply
    that ends early raises ``WorkerDiedError`` and drops the workers, so the
    next pooled call forks fresh ones.  The workers are shared without a
    lock: call this from one thread at a time, as the CLI does.
    """
    jobs = _jobs(len(tasks))
    if jobs == 1:
        return [_call(task) for task in tasks]
    import pickle

    cuts = [len(tasks) * k // jobs for k in range(jobs + 1)]
    shares = [tasks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    payloads = [pickle.dumps(share) for share in shares[1:]]
    workers = _workers(jobs - 1)
    try:
        for (_, pipe, _), payload in zip(workers, payloads):
            pipe.write(payload)
            pipe.flush()
        try:
            replies = [(True, [_call(task) for task in shares[0]])]
        except Exception as exc:
            replies = [(False, exc)]
        replies += [pickle.load(pipe) for _, _, pipe in workers]
    except BaseException as exc:
        _drop_pool()
        if isinstance(exc, (OSError, EOFError, pickle.UnpicklingError)):
            raise WorkerDiedError(f"{type(exc).__name__}: {exc}") from None
        raise
    for ok, value in replies:
        if not ok:
            raise value
    return [result for _, results in replies for result in results]


# -- suites -------------------------------------------------------------------


def suite_grid(check, params) -> list[CheckReport]:
    """``check`` on each Hirzebruch family F(a, b, e) of the grid with a >= e b."""
    a_max, b_max, e_max = params.get("a_max", 6), params.get("b_max", 6), params.get("e_max", 2)
    grid = itertools.product(range(e_max + 1), range(1, a_max + 1), range(1, b_max + 1))
    return _run_checks([(check, FiberedSeries(a, b, e)) for e, a, b in grid if a >= e * b])


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
        CheckReport(f"{rep.name} trial={trial:04d}", rep.lhs, rep.rhs, rep.margin, rep.context)
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
    entries = [_rational(e, "config", "list of entries") for e in params.get("entries", ["1/4", "1", "4"])]
    _refuse_past_cap("list of entries", "config", entries)
    reports = []
    for rank in range(1, max_rank + 1):
        for diag in itertools.product(entries, repeat=rank):
            gram = [
                [diag[i] if i == j else Fraction(0) for j in range(rank)]
                for i in range(rank)
            ]
            reports.append(bounds.check_gillet_soule(_build("config", EuclideanLattice, gram)))
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
        # monotonicity: bump one coordinate upward; mu_d never enters, so at
        # depth 0 a draw of mu bumps a genus
        genera, mu, vol = list(tower.genera), list(data.mu), list(data.vol)
        which = rng.randrange(3)
        coords = (mu if d else genera, vol, genera)[which]
        coords[rng.randrange(d if coords is mu else d + 1)] += 1
        reports.append(
            CheckReport.compare(
                f"epsilon-monotone trial={i:04d} coord={which}",
                eps,
                epsilon(Tower(genera), TowerData(mu, vol)),
                {},
            )
        )
    return reports


def _hn_type(pairs, what: str) -> HNType:
    """Slope data from schema-valid JSON ``[rank, slope]`` pairs, a slope a
    rational or an interval; ConfigError naming ``what`` on bad data."""
    segments = []
    for rank, slope in pairs:
        if isinstance(slope, dict):
            lo, hi = (_rational(slope[end], what, "slope data") for end in ("lo", "hi"))
            if lo > hi:
                raise ConfigError(f"invalid {what}: an interval has lo > hi")
            segments.append((rank, Scalar.from_fraction_bounds(lo, hi)))
        else:
            segments.append((rank, _rational(slope, what, "slope data")))
    try:
        h = _build(what, HNType, segments)
    except CertificationError as exc:  # interval slopes whose order no bound decides
        raise ConfigError(f"invalid {what}: {exc}") from None
    ends = (q for _, s in h.segments for q in set(s.bounds()))
    _refuse_past_cap("slope data", what, ends, [r for r, _ in h.segments])
    return h


def suite_polygon(params, rng) -> list[CheckReport]:
    """deg+ <= rank mu_max^+ with margin sum_(i>=2) r_i (mu_1^+ - mu_i^+): each
    term is certified nonnegative, so a tie on interval slopes passes."""
    h = _hn_type(params["hn"], "config")
    deg_plus = h.deg_plus()
    (ilo, ihi), (dlo, dhi) = h.positive_rank_integral().bounds(), deg_plus.bounds()
    mu_max, mu_min = h.slope_extremes()
    top = mu_max.max0()
    margin = sum((Scalar.exact(r) * (top - s.max0()) for r, s in h.segments[1:]), Scalar.exact(0))
    report = CheckReport(
        "polygon deg_plus<=max(rank,1)*mu_max_plus",
        deg_plus,
        Scalar.exact(h.rank) * top,
        margin,
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


# the grid suites look their check up when they run, so a patched check is the one run
SUITE_RUNNERS = {
    "geometric": lambda params, rng: suite_grid(bounds.check_toric_family, params),
    "filtered": lambda params, rng: suite_grid(bounds.check_filtered, params),
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
        if fmt == "csv":
            text = reports_to_csv(reports)
        else:
            text = json.dumps(reports_to_json(reports), indent=2, sort_keys=True) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
    # nothing reaches stdout until the suite has run and its report is written
    print(f"suite={config['suite']} seed={seed}")
    print(f"{passed}/{len(reports)}")
    return (0 if passed == len(reports) else 1), reports


def main(argv=None) -> int:
    parser = _Parser(prog="hnbounds", description="exact slope/lattice inequality verifier")
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

    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            with open(args.config) as fh:
                config = _load(fh.read(), CONFIG_SCHEMA, "config")
            status, _ = run_config(config)
            return status
        if args.command == "polygon":
            # refused here, the message naming the flag; the suite reads it again
            hn = _load(args.hn, _HN_SCHEMA, "--hn")
            _hn_type(hn, "--hn")
            status, reports = run_config({"suite": "polygon", "parameters": {"hn": hn}})
            print(json.dumps(reports_to_json(reports), indent=2, sort_keys=True))
            return status
        if args.command == "epsilon":
            obj = _load(args.tower, TOWER_SCHEMA, "--tower")
            mu, vol = ([_rational(x, "--tower", "tower") for x in obj[key]] for key in ("mu", "vol"))
            _refuse_past_cap("tower", "--tower", mu + vol, obj["genera"])
            tower, data = _build("--tower", Tower, obj["genera"]), _build("--tower", TowerData, mu, vol)
            if args.ell is not None:
                c, s = (_rational(x, "--ell", "affine function") for x in _load(args.ell, ELL_SCHEMA, "--ell"))
                _refuse_past_cap("affine function", "--ell", (c, s))
            # a library warning (a negative slope) is printed as one line
            with warnings.catch_warnings(record=True) as caught:
                if args.ell is None:
                    value = _build("--tower", epsilon, tower, data)
                else:
                    value = _build("--tower", epsilon_tilde, tower, data, AffineFunction(c, s))
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
            print(json.dumps({"epsilon": value.to_json()}))
            return 0
        if args.command == "lattice":
            gram = _load(args.gram, GRAM_SCHEMA, "--gram")
            rows = [[_rational(x, "--gram", "Gram matrix") for x in row] for row in gram]
            _refuse_past_cap("Gram matrix", "--gram", itertools.chain.from_iterable(rows))
            reports = _lattice_checks(_build("--gram", EuclideanLattice, rows))
            print(json.dumps(reports_to_json(reports), indent=2, sort_keys=True))
            return 0 if all(r.passed for r in reports) else 1
        if args.command == "p1z":
            count, report = _build("--degree", bounds.p1z_h0, args.degree)
            print(json.dumps({"count": count, "report": report.to_json()}, indent=2, sort_keys=True))
            return 0 if report.passed else 1
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WorkerDiedError as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, EnumerationBudgetError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
