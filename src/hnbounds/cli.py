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
Invalid input reads ``config error: invalid <flag or config>: …``, also when
the input is well formed but a library constructor refuses it (``_build``):
slopes that do not decrease, a negative genus, an asymmetric Gram matrix, a
``--degree`` past its budget.  An interval slope with ``lo > hi``, and
interval slopes whose order ``HNType`` cannot certify, are invalid slope
data too.  A command line that argparse refuses reads ``config error:
invalid arguments: …`` (``_Parser``), without the usage text.  A library
warning on accepted input (a negative slope in an ``epsilon`` tower) is
printed as one ``warning: …`` line and changes neither stdout nor the exit
status.  Randomized suites take a seed and print it, so every failure is
replayable; identical config and seed produce byte-identical JSON.

``HNBOUNDS_JOBS`` sets how many processes evaluate checks, this one
included; it is clamped to the CPU count, to the CPUs this process may run
on and to the number of tasks, and a value that is not a positive integer,
or a missing ``os.fork``, makes the run serial.  Every suite maps one
function over its task data with ``_run_checks``, which hands the data out
in order by guided self-scheduling: each idle forked worker gets the
function and the next ``ceil(remaining / (2 N))`` tasks as one share, drawn
as it is taken (the lattice and epsilon suites draw each trial when its
task is taken), and this process runs the next single task between shares.
Shares and replies cross buffered pipes, each holding at most one message
at a time, as length-prefixed pickles (``_frame``) that build reports and
rationals from their fields and integers and write each distinct exact
rational of a message once.  A task's data is plain: a ``FiberedSeries``
(three integers), a lattice trial's number and integer Gram matrix, one
distinct sorted ``arithmetic`` diagonal's orderings, or an ``epsilon``
trial's drawn integers; ``polygon`` is one task, always run here.  Results
are finished reports, placed by task index, so the report list is the same
at any job count.  No thread is started and neither ``concurrent.futures`` nor
``multiprocessing`` is imported.  The workers are forked on the first pooled
suite, and kept warm for every later one in the process while the count
stays the same; they are replaced when the count changes or a worker dies,
forgotten in a forked child, and closed and reaped at interpreter exit.
Workers are forked once, so they keep the module globals of that moment: a
global changed later (say, a monkeypatched ``lattices.MAX_NODES``) reaches
the tasks run here, but not those run in workers, and a task function
defined later cannot be read there at all: the call raises
``WorkerDiedError`` naming it.

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
import io
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
from .scalars import CertificationError, Exact, Scalar, _ratio, exact_bounds, max0
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
            "required": ["path"],
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
# a rational or an interval: "required" and "properties" apply to an object only
_SCALAR = {
    "type": ["string", "integer", "object"],
    "required": ["lo", "hi"],
    "properties": {"lo": _RATIONAL, "hi": _RATIONAL},
}
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
    "additionalProperties": False,
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
    ``(relevance, message)``.

    ``relevance`` is ``jsonschema.exceptions.relevance`` of the error, whose
    ``path`` locates it in the outer value.  Only the keywords the schemas
    above use are read; any other, ``anyOf`` among them, raises ``ValueError``.
    """
    types = schema.get("type")
    types = [types] if isinstance(types, str) else types
    matched = types is not None and any(_TYPES[t](value) for t in types)

    def error(message):
        return (-len(path), path, not matched), message

    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    for keyword, arg in schema.items():
        if keyword == "type":
            if not matched:
                yield error(f"{value!r} is not of type {', '.join(map(repr, types))}")
        elif keyword == "enum":
            # JSON equality: true is not 1
            if not any(type(x) is type(value) and x == value for x in arg):
                yield error(f"{value!r} is not one of {arg!r}")
        elif keyword in ("minimum", "maximum"):
            if _TYPES["number"](value) and (value < arg if keyword == "minimum" else value > arg):
                side = "less" if keyword == "minimum" else "greater"
                yield error(f"{value!r} is {side} than the {keyword} of {arg!r}")
        elif keyword == "required":
            for key in arg if is_object else ():
                if key not in value:
                    yield error(f"{key!r} is a required property")
        elif keyword == "properties":
            for key, sub in arg.items() if is_object else ():
                if key in value:
                    yield from _errors(value[key], sub, (*path, key))
        elif keyword == "additionalProperties" and arg is False:
            known = schema.get("properties", {})
            extra = sorted((k for k in value if k not in known), key=str) if is_object else []
            if extra:
                names, verb = ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were"
                yield error(f"Additional properties are not allowed ({names} {verb} unexpected)")
        elif keyword == "prefixItems":
            for i, (item, sub) in enumerate(zip(value, arg) if is_array else ()):
                yield from _errors(item, sub, (*path, i))
        elif keyword == "items":
            for i in range(len(schema.get("prefixItems", ())), len(value)) if is_array else ():
                yield from _errors(value[i], arg, (*path, i))
        elif keyword == "minItems":
            if is_array and len(value) < arg:
                yield error(f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}")
        elif keyword == "maxItems":
            if is_array and len(value) > arg:
                yield error(f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}")
        else:
            raise ValueError(f"unsupported schema keyword {keyword!r}: {arg!r}")


def _validate(value, schema, what: str):
    """``value`` if it matches ``schema``; otherwise a one-line ConfigError.

    The message is that of ``jsonschema.validate``, its ``best_match``: the
    first of the most relevant errors (the shallowest).
    """
    errors = list(_errors(value, schema))
    if not errors:
        return value
    _, message = max(errors, key=lambda error: error[0])
    raise ConfigError(f"invalid {what}: {message}")


# A report prints each rational in decimal, and CPython refuses to convert an
# int of more than 4300 digits (about 14,000 bits) to a string.  Every value
# a polygon report derives from slope data has at most a few hundred bits
# more than the data's ranks, numerators and denominators together.  Exact
# lattice arithmetic on a Gram matrix of more bits can run for minutes (the
# gcds of its minima), and the arithmetic suite prints its entries.
_MAX_BITS = 10_000


def _load(text, schema: dict, what: str):
    """The JSON ``text`` (str or bytes) if it matches ``schema``; otherwise a one-line ConfigError."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, undecodable, too deep, or too long an int
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
    ``ValueError`` or a ``CertificationError`` (interval slopes whose order
    ``HNType`` cannot decide) it raises on that input becomes a ConfigError
    naming ``what``."""
    try:
        return make(*args)
    except (ValueError, CertificationError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from None


def validate_config(config: dict) -> dict:
    _validate(config, CONFIG_SCHEMA, "config")
    _validate(config.get("parameters", {}), PARAMETER_SCHEMAS[config["suite"]], "config")
    return config


def _jobs(tasks: int) -> int:
    """Process count, this one included: ``HNBOUNDS_JOBS``, at most the CPU
    count, the CPUs this process may run on (where ``os`` can tell) and
    ``tasks``; 1 for a value not a positive integer or without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    try:
        jobs = int(os.environ.get("HNBOUNDS_JOBS", "1"))
    except ValueError:
        jobs = 1
    cpus = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        cpus = min(cpus, len(os.sched_getaffinity(0)))
    return max(1, min(jobs, cpus, tasks))


class WorkerDiedError(RuntimeError):
    """A worker process ended before it sent back its share's results."""


_pool = None  # (pid of the creating process, [(worker pid, share pipe, reply pipe)])


def _workers(count: int):
    """The ``count`` warm workers, forked on first use.

    Each worker is ``(pid, share pipe, reply pipe)``, both buffered: this
    process writes shares to the first and reads replies from the second.
    A pipe never holds more than one message: a share goes only to an idle
    worker, and a worker replies once per share.  So a buffered reader
    holds no bytes past the message it reads, and ``select.poll`` on a
    reply pipe's fd sees every reply not yet read.
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
                    # closed here: a file freed unclosed warns on stderr under -X dev
                    with os.fdopen(share_r, "rb") as shares, os.fdopen(reply_w, "wb") as replies:
                        _serve(shares, replies)
                finally:
                    os._exit(0)
            os.close(share_r)
            os.close(reply_w)
            _pool[1].append((pid, os.fdopen(share_w, "wb"), os.fdopen(reply_r, "rb")))
    return _pool[1]


# -- the pool's wire ------------------------------------------------------------


def _same(value):
    """``value`` itself: a message's repeat of an exact rational unpickles as
    this call on the first one, so it is the same object."""
    return value


def _frame(message) -> bytes:
    """``message``, a share or a reply, pickled for a pipe after its length.

    The length is 8 bytes, little-endian.  A ``Fraction`` or an ``Exact``
    pickles as ``scalars._ratio`` of its type and lowest terms, and a
    ``CheckReport`` reduces to ``bounds._report`` of its fields, so loading
    a message calls neither a report's ``__init__`` nor ``Fraction.__new__``
    and sets no object state.  A message writes each distinct exact rational once:
    one equal in type, numerator and denominator to one written before it
    in the same message is written as ``_same`` of that one.  The values
    are immutable, so sharing them changes nothing, and an int, a
    ``Fraction`` and an ``Exact`` of one value stay apart.  Each message
    has its own pickler, whose ``dispatch_table`` holds the rational
    reduction (``copyreg``'s is untouched), and ``pickle`` is imported
    here, at the first pooled call, not with this module.
    """
    import pickle

    firsts = {}

    def rational(q):
        key = (type(q), q._numerator, q._denominator)
        first = firsts.setdefault(key, q)
        return (_ratio, key) if first is q else (_same, (first,))

    out = io.BytesIO()
    out.write(bytes(8))
    pickler = pickle.Pickler(out)
    pickler.dispatch_table = {Fraction: rational, Exact: rational}
    pickler.dump(message)
    with out.getbuffer() as data:  # a view left open makes freeing the BytesIO raise BufferError
        data[:8] = (len(data) - 8).to_bytes(8, "little")
    return out.getvalue()


def _read_frame(pipe) -> bytes:
    """The pickle of the next message on the buffered ``pipe``; ``EOFError``
    if it ends first.  The pipe holds no more than this one message (see
    ``_workers``), so the reader keeps no bytes of the next."""
    head = pipe.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "little")
        data = pipe.read(size)
        if len(data) == size:
            return data
    raise EOFError("a pipe ended inside a message")


def _serve(shares, replies) -> None:
    """A worker's loop: read a share ``(func, args)``, send back ``(True,
    [func(arg) for arg in args])`` or ``(False, first exception)``, until EOF.

    A share that cannot be loaded here, say one naming a task function
    defined after the fork, is answered with a ``WorkerDiedError`` naming
    the load error, and the worker leaves; the caller drops the workers.
    """
    import pickle

    while True:
        try:
            share = _read_frame(shares)
        except EOFError:
            return
        try:
            func, args = pickle.loads(share)
        except Exception as exc:
            died = WorkerDiedError(
                f"{type(exc).__name__}: {exc} (a worker keeps the module globals"
                " of the moment it was forked)"
            )
            replies.write(_frame((False, died)))
            replies.flush()
            return
        try:
            reply = _frame((True, [func(arg) for arg in args]))
        except Exception as exc:
            reply = _frame((False, exc))
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


def _run_checks(func, args, count=None):
    """``[func(arg) for arg in args]``, spread over ``_jobs`` processes.

    ``args`` is an iterable of ``count`` tasks, each a plain value (by
    default ``count`` is ``len(args)``).  It is drawn once, in order, as the
    tasks are handed out, by guided self-scheduling (Polychronopoulos and
    Kuck 1987): each idle warm worker of ``_workers`` is given ``func`` and
    the next ``ceil(remaining / (2 jobs))`` tasks as one share, with at most
    one share outstanding per worker, and between shares this process draws
    and runs the next single task, then polls the reply pipes without
    waiting.  With ``count == jobs`` each worker runs one task and
    this process the last.  Shares and replies cross the pipes as framed
    pickles (``_frame``).  Once an error is known no task is handed out or
    run; every outstanding reply is still read, so the pipes stay in step,
    and then the first error in task order is raised.  Otherwise the
    results are returned in task order, so the report list is the same no
    matter how many processes run.

    A ``jobs == 1`` call runs here and leaves the workers as they are.  The
    workers were forked at the first pooled call, so a task run there sees
    the module globals of that moment, not later changes to them.  A reply
    that ends early raises ``WorkerDiedError`` and drops the workers, so the
    next pooled call forks fresh ones, as does a reply holding a
    ``WorkerDiedError`` from a worker that could not load its share.  The
    workers are shared without a lock: call this from one thread at a time,
    as the CLI does.
    """
    if count is None:
        count = len(args)
    args = iter(args)
    jobs = _jobs(count)
    if jobs == 1:
        return [func(arg) for arg in args]
    import pickle
    import select

    idle = list(_workers(jobs - 1))
    busy = {}  # reply fd -> (worker, index of its share's first task)
    replies = select.poll()
    results = [None] * count
    errors = {}  # index of a share's first task -> the share's first error
    drawn = 0
    try:
        while True:
            while idle and drawn < count and not errors:
                size = -(-(count - drawn) // (2 * jobs))
                try:
                    share = _frame((func, list(itertools.islice(args, size))))
                except Exception as exc:
                    errors[drawn] = exc
                    break
                worker = idle.pop(0)
                worker[1].write(share)
                worker[1].flush()
                busy[worker[2].fileno()] = worker, drawn
                replies.register(worker[2], select.POLLIN)
                drawn += size
            if drawn < count and not errors:
                try:
                    results[drawn] = func(next(args))
                except Exception as exc:
                    errors[drawn] = exc
                drawn += 1
                timeout = 0
            elif busy:
                timeout = None
            else:
                break
            for fd, _ in replies.poll(timeout):
                replies.unregister(fd)
                worker, start = busy.pop(fd)
                ok, value = pickle.loads(_read_frame(worker[2]))
                idle.append(worker)
                if ok:
                    results[start : start + len(value)] = value
                else:
                    errors[start] = value
    except BaseException as exc:
        _drop_pool()
        if isinstance(exc, (OSError, EOFError, pickle.UnpicklingError)):
            raise WorkerDiedError(f"{type(exc).__name__}: {exc}") from None
        raise
    if any(isinstance(error, WorkerDiedError) for error in errors.values()):
        _drop_pool()
    if errors:
        raise errors[min(errors)]
    return results


# -- suites -------------------------------------------------------------------


def suite_grid(check, params) -> list[CheckReport]:
    """``check`` on each Hirzebruch family F(a, b, e) of the grid with a >= e b."""
    a_max, b_max, e_max = params.get("a_max", 6), params.get("b_max", 6), params.get("e_max", 2)
    grid = itertools.product(range(e_max + 1), range(1, a_max + 1), range(1, b_max + 1))
    return _run_checks(check, [FiberedSeries(a, b, e) for e, a, b in grid if a >= e * b])


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

    Each integer Gram matrix (the same draws as ``random_gram``) is drawn
    when its task ``(trial, Gram)`` is taken, so a worker's share is sent
    once its own trials are drawn, before the later ones; the process that
    runs a task builds the lattice and returns its three reports already
    named.
    """
    rank = params.get("rank", 3)
    trials = params.get("trials", 50)
    grams = ((trial, _random_int_gram(rank, rng)) for trial in range(trials))
    nested = _run_checks(_lattice_trial, grams, trials)
    return [rep for triple in nested for rep in triple]


def _gillet_soule(orderings) -> list[CheckReport]:
    """The reports of one distinct diagonal, named for each of its
    ``orderings`` in turn: one lattice and one ``check_gillet_soule``."""
    diag = sorted(orderings[0])
    gram = [[d if i == j else Fraction(0) for j in range(len(diag))] for i, d in enumerate(diag)]
    rep = bounds.check_gillet_soule(_build("config", EuclideanLattice, gram))
    names = (f"gillet-soule rank={len(diag)} diag={[str(d) for d in ordering]}" for ordering in orderings)
    return [CheckReport(name, rep.lhs, rep.rhs, rep.margin, dict(rep.context)) for name in names]


def suite_arithmetic(params, rng) -> list[CheckReport]:
    """Gillet-Soule on every diagonal of ``entries``, one task per sorted diagonal."""
    max_rank = params.get("max_rank", 4)
    entries = [_rational(e, "config", "list of entries") for e in params.get("entries", ["1/4", "1", "4"])]
    _refuse_past_cap("list of entries", "config", entries)
    orderings = {}
    for rank in range(1, max_rank + 1):
        for diag in itertools.product(entries, repeat=rank):
            orderings.setdefault(tuple(sorted(diag)), []).append(diag)
    return list(itertools.chain.from_iterable(_run_checks(_gillet_soule, list(orderings.values()))))


def _epsilon_trial(task) -> list[CheckReport]:
    """The two reports of one trial that ``suite_epsilon`` drew,
    ``task = (i, genera, mu, vol, p, which, at)``: rescaling the tower's data
    by ``p``, and the bump of coordinate ``at`` of kind ``which``.  ``mu``
    and ``vol`` are (numerator, denominator) pairs."""
    i, genera, mu, vol, p, which, at = task
    mu, vol = [Fraction(*q) for q in mu], [Fraction(*q) for q in vol]
    tower, data = Tower(genera), TowerData(mu, vol)
    d = tower.depth
    # monotonicity: bump one coordinate upward; mu_d never enters, so at
    # depth 0 a draw of mu bumps a genus
    genera = list(genera)
    coords = (mu if d else genera, vol, genera)[which]
    coords[at] += 1
    eps = epsilon(tower, data)
    rescale_name = f"epsilon-rescale trial={i:04d} p={p} d={d}"
    bumped = Tower(genera), TowerData(mu, vol)
    return [
        CheckReport.compare(rescale_name, epsilon(tower, rescale(data, p)), p**d * eps, {"epsilon": eps}),
        CheckReport.compare(f"epsilon-monotone trial={i:04d} coord={which}", eps, epsilon(*bumped), {}),
    ]


def suite_epsilon(params, rng) -> list[CheckReport]:
    """Two checks on each of ``trials`` seeded towers.

    Each trial's integers (depth, genera, the numerators and denominators of
    mu and vol, ``p``, the coordinate kind and index of the bump) are drawn
    when its task is taken, in seed order; no draw depends on a computed
    value.  The task builds the tower and its data and computes the trial's
    two reports.
    """
    trials = params.get("trials", 100)
    p_max = params.get("p_max", 5)

    def draw(i):
        depth = rng.randint(0, 3)
        genera = tuple(rng.randint(0, 4) for _ in range(depth + 1))
        mu = tuple((rng.randint(0, 12), rng.randint(1, 4)) for _ in range(depth + 1))
        vol = tuple((rng.randint(0, 24), rng.randint(1, 4)) for _ in range(depth + 1))
        p = rng.randint(1, p_max)
        which = rng.randrange(3)
        at = rng.randrange(depth if which == 0 and depth else depth + 1)
        return i, genera, mu, vol, p, which, at

    nested = _run_checks(_epsilon_trial, map(draw, range(trials)), trials)
    return list(itertools.chain.from_iterable(nested))


def _hn_type(pairs, what: str) -> HNType:
    """Slope data from schema-valid JSON ``[rank, slope]`` pairs, a slope a
    rational or an interval; ConfigError naming ``what`` on bad data."""
    segments = []
    for rank, slope in pairs:
        if isinstance(slope, dict):
            lo, hi = (_rational(slope[end], what, "slope data") for end in ("lo", "hi"))
            slope = _build(what, Scalar.from_fraction_bounds, lo, hi)
        else:
            slope = _rational(slope, what, "slope data")
        segments.append((rank, slope))
    h = _build(what, HNType, segments)
    ends = (q for _, s in h.segments for q in set(exact_bounds(s)))
    _refuse_past_cap("slope data", what, ends, [r for r, _ in h.segments])
    return h


def _polygon_check(h: HNType) -> CheckReport:
    """deg+ <= rank mu_max^+ with margin sum_(i>=2) r_i (mu_1^+ - mu_i^+): each
    term is certified nonnegative, so a tie on interval slopes passes."""
    deg_plus = h.deg_plus()
    (ilo, ihi), (dlo, dhi) = exact_bounds(h.positive_rank_integral()), exact_bounds(deg_plus)
    mu_max, mu_min = h.slope_extremes()
    top = max0(mu_max)
    margin = sum((r * (top - max0(s)) for r, s in h.segments[1:]), Fraction(0))
    return CheckReport(
        "polygon deg_plus<=max(rank,1)*mu_max_plus",
        deg_plus,
        h.rank * top,
        margin,
        {
            "deg_plus": deg_plus,
            "mu_max": mu_max,
            "mu_min": mu_min,
            "rank": h.rank,
            "breakpoints": h.polygon(),
            # the two enclosures overlap: equality, for rational slopes
            "integral_identity": max(ilo, dlo) <= min(ihi, dhi),
        },
    )


def suite_polygon(params, rng) -> list[CheckReport]:
    return _run_checks(_polygon_check, [_hn_type(params["hn"], "config")])


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
    output = config.get("output")
    if output is not None:  # an empty path fails to open, as an unwritable one does
        if output.get("format") == "csv":
            text = reports_to_csv(reports)
        else:
            text = json.dumps(reports_to_json(reports), indent=2, sort_keys=True) + "\n"
        with open(output["path"], "w") as fh:
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
            with open(args.config, "rb") as fh:
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
            print(json.dumps({"epsilon": str(value)}))
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
    except (ValueError, EnumerationBudgetError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
