"""Correctness gate: every op result is checked before it counts as done.

* Exact report fields (names, pass flags, counts, rational values) must hash
  to the digest recorded in ``reference/<workload>.json``.
* Every interval field must intersect its reference interval.  The recorded
  interval is a 12-digit midpoint widened by ``REF_RADIUS`` relative, and
  ``record.py`` checks that it contains the interval computed when it was
  recorded; both contain the true value, so the test stays sound when a
  later change computes the same quantity another way.
* ``p1z_h0(n)`` counts must equal 2n + 3.
* Dense lattices: ``h0_count`` must equal an independent count (box sweep
  over all but the last coordinate, exact quadratic solve for the last) on
  the subset whose sweep stays under ``BRUTE_PREFIX_CAP`` prefixes.
* ``circle_sup_norm`` intervals must be no wider than the requested
  precision, and their upper end must not lie below high-precision mpmath
  samples of |p(z)| on the unit circle.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from fractions import Fraction
from math import isqrt
from pathlib import Path

import mpmath

from hnbounds.bounds import CheckReport
from hnbounds.scalars import Scalar
from workloads import run_config_quiet

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REF_RADIUS = Fraction(1, 10**10)
BRUTE_PREFIX_CAP = 20_000
CIRCLE_SAMPLES = 256
SAMPLE_SLACK = mpmath.mpf("1e-30")


def split(value):
    """(exact JSON, [(lo, hi), ...]) of a report, scalar or p1z result."""
    if isinstance(value, CheckReport):
        data = value.to_json()
    elif isinstance(value, Scalar):
        data = value.to_json()
    elif isinstance(value, tuple):  # p1z_h0: (count, report)
        data = [value[0], value[1].to_json()]
    else:
        raise TypeError(f"cannot gate a {type(value).__name__}")
    intervals = []

    def walk(x):
        if isinstance(x, dict) and set(x) == {"lo", "hi", "approx"}:
            intervals.append((Fraction(x["lo"]), Fraction(x["hi"])))
            return "~"
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, list):
            return [walk(v) for v in x]
        return x

    return walk(data), intervals


def digest(exact) -> str:
    text = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def record_entry(value):
    """Reference entry: the digest, or [digest, midpoint, ...] when the result
    has interval fields; each midpoint is checked to cover its interval."""
    exact, intervals = split(value)
    entry = [digest(exact)]
    for lo, hi in intervals:
        mid = float(f"{float((lo + hi) / 2):.12g}")
        ref_lo, ref_hi = _reference_interval(mid)
        if not (ref_lo <= lo and hi <= ref_hi):
            raise ValueError(f"interval [{lo}, {hi}] is wider than the reference radius")
        entry.append(mid)
    return entry if intervals else entry[0]


def _reference_interval(mid: float) -> tuple[Fraction, Fraction]:
    m = Fraction(mid)
    radius = REF_RADIUS * max(Fraction(1), abs(m))
    return m - radius, m + radius


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


class Gate:
    """Checks op results; ``problems`` collects one line per failure."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.problems: list[str] = []
        self.brute_checked = 0
        self.brute_skipped = 0
        self._seen: set[str] = set()
        self._serial_reports = None  # pool's lattice suite run with one job

    def fail(self, key: str, why: str) -> bool:
        self.problems.append(f"{key}: {why}")
        return False

    def check(self, op, value) -> bool:
        """Gate one op result; full checks run on the first result per key."""
        key = op.key
        first = key not in self._seen
        self._seen.add(key)
        kind = key.split(" ", 1)[0]
        if kind == "circle":
            return self._circle(key, value, op.inputs, full=first)
        if kind == "pool":
            return self._pool(key, value, op.inputs, full=first)
        report = value[1] if kind == "p1z" else value
        if isinstance(report, CheckReport) and not report.passed:
            return self.fail(key, "check did not pass")
        if not first:
            return True
        if not self.matches_reference(key, value):
            return False
        if kind == "p1z":
            n = int(key.split("=")[1])
            if value[0] != 2 * n + 3:
                return self.fail(key, f"count {value[0]} != 2n + 3 = {2 * n + 3}")
        if kind == "dense" and key.endswith("blichfeldt"):
            return self._dense_count(key, value, op.inputs)
        return True

    def matches_reference(self, key: str, value, ref_key: str | None = None) -> bool:
        entry = self.reference.get(ref_key or key)
        if entry is None:
            return self.fail(key, "no reference entry")
        if isinstance(entry, str):
            entry = [entry]
        exact, intervals = split(value)
        if digest(exact) != entry[0]:
            return self.fail(key, "exact fields differ from the reference")
        if len(intervals) != len(entry) - 1:
            return self.fail(key, "interval fields differ from the reference")
        for (lo, hi), mid in zip(intervals, entry[1:]):
            ref_lo, ref_hi = _reference_interval(mid)
            if hi < ref_lo or lo > ref_hi:
                return self.fail(key, f"interval [{float(lo)}, {float(hi)}] misses reference {mid}")
        return True

    # -- oracles ---------------------------------------------------------------------

    def _dense_count(self, key, report, gram) -> bool:
        count = brute_count(gram, BRUTE_PREFIX_CAP)
        if count is None:
            self.brute_skipped += 1
            return True
        self.brute_checked += 1
        if count != report.context["count"]:
            return self.fail(key, f"h0_count {report.context['count']} != box count {count}")
        return True

    def _circle(self, key, value, inputs, full: bool) -> bool:
        coeffs, precision = inputs
        lo, hi = value.bounds()
        if hi - lo > precision:
            return self.fail(key, f"width {float(hi - lo)} exceeds precision {precision}")
        if not full:
            return True
        with mpmath.workdps(40):
            top = max(abs(mpmath.polyval(list(reversed(coeffs)), z)) for z in _unit_roots())
            upper = mpmath.mpf(hi.numerator) / hi.denominator
            if upper < top - SAMPLE_SLACK:
                return self.fail(key, f"upper end {float(hi)} below sample {float(top)}")
        return True

    def _pool(self, key, passes, configs, full: bool) -> bool:
        for config, (status, reports) in zip(configs, passes):
            if status != 0:
                return self.fail(key, f"{config['suite']} suite exited {status}")
            if not full:
                continue
            if config["suite"] == "geometric":
                if not all(self.matches_reference(key, r, r.name) for r in reports):
                    return False
            elif [r.to_json() for r in reports] != self._serial(config):
                return self.fail(key, "parallel lattice reports differ from a serial run")
        return True

    def _serial(self, config):
        if self._serial_reports is None:
            _, reports = run_config_quiet(config, 1)
            self._serial_reports = [r.to_json() for r in reports]
        return self._serial_reports


@functools.cache
def _unit_roots():
    with mpmath.workdps(40):
        return [mpmath.expjpi(mpmath.mpf(2 * j) / CIRCLE_SAMPLES) for j in range(CIRCLE_SAMPLES)]


def brute_count(gram, prefix_cap: int):
    """#{v in Z^r : v^T G v <= 1}, or None when the sweep would exceed the cap.

    Independent of the library's enumeration: no LDL, no LLL.  Coordinates
    are bounded by |v_i| <= sqrt((G^-1)_ii); the first r - 1 are swept and
    the last solved from an integer quadratic.
    """
    g = [[Fraction(x) for x in row] for row in gram]
    r = len(g)
    den = math.lcm(*(x.denominator for row in g for x in row))
    q = [[int(x * den) for x in row] for row in g]
    inv = _inverse(g)
    box = [isqrt(math.floor(inv[i][i])) + 1 for i in range(r)]
    if math.prod(2 * b + 1 for b in box[:-1]) > prefix_cap:
        return None
    a = q[-1][-1]
    count = 0
    for prefix in itertools.product(*(range(-b, b + 1) for b in box[:-1])):
        lin = 2 * sum(q[i][-1] * prefix[i] for i in range(r - 1))
        const = sum(q[i][j] * prefix[i] * prefix[j] for i in range(r - 1) for j in range(r - 1)) - den
        disc = lin * lin - 4 * a * const
        if disc < 0:
            continue

        def inside(x):
            return a * x * x + lin * x + const <= 0

        s = isqrt(disc)
        lo = (-lin - s) // (2 * a) - 2
        hi = (-lin + s) // (2 * a) + 2
        while not inside(lo) and lo <= hi:
            lo += 1
        while hi >= lo and not inside(hi):
            hi -= 1
        count += max(0, hi - lo + 1)
    return count


def _inverse(g):
    n = len(g)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(g)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]
