"""In-memory span recorder for the traced run, and the per-layer metrics.

A span is (name, start_ns, end_ns, parent index, op id, work count).  Spans
are kept in a list while the run goes and written out once at the end.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self.op_id = 0

    @contextlib.contextmanager
    def span(self, name: str, n: int = 1):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.op_id, n]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter_ns()

    def op(self):
        self.op_id += 1
        return self.span("op")

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id, n in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op_id, "n": n}) + "\n")

    def self_times(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, total work count, total self time in ns)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = {}
        for i, (name, start, end, _, _, n) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0, 0])
            acc[0] += 1
            acc[1] += n
            acc[2] += end - start - child_ns[i]
        return {k: tuple(v) for k, v in out.items()}

    def durations(self, name: str) -> list[float]:
        return [(end - start) / 1e9 for n, start, end, *_ in self.spans if n == name]


def per_layer_metrics(tr: Tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every per-layer metric; a layer this workload never calls reads 0."""
    times = tr.self_times()

    def per_unit(name, scale):
        calls, work, ns = times.get(name, (0, 0, 0))
        return ns / work / scale if work else 0.0

    def rate(name, work_total):
        _, _, ns = times.get(name, (0, 0, 0))
        return work_total / (ns / 1e9) if ns else 0.0

    def ratio(slow, fast):
        a, b = tr.durations(slow), tr.durations(fast)
        return statistics.median(a) / statistics.median(b) if a and b else 0.0

    c = tr.counters
    p1z_work = times.get("bounds.p1z_h0", (0, 0, 0))[1]
    lattices = c.get("lattices.lattices", 0)
    speedups = {
        suite: ratio(f"cli.pool.{suite}.jobs1", f"cli.pool.{suite}.jobs2")
        for suite in ("geometric", "lattice")
    }
    jobs1 = sum(statistics.median(tr.durations(f"cli.pool.{s}.jobs1") or [0]) for s in speedups)
    jobs2 = sum(statistics.median(tr.durations(f"cli.pool.{s}.jobs2") or [0]) for s in speedups)
    overhead = ratio("cli.run_config", "cli.direct")
    return {
        "scalars.rational_op_us": per_unit("scalars.rational_op", 1e3),
        "scalars.interval_op_us": per_unit("scalars.interval_op", 1e3),
        "scalars.log_scalar_us": per_unit("scalars.log_scalar", 1e3),
        "scalars.exp_interval_us": per_unit("scalars.exp_interval", 1e3),
        "scalars.cos_2pi_us": per_unit("scalars.cos_2pi", 1e3),
        "hn.deg_plus_us": per_unit("hn.deg_plus", 1e3),
        "curves.h0_us": per_unit("curves.h0", 1e3),
        "curves.hn_type_us": per_unit("curves.hn_type", 1e3),
        "series.pushforward_us": per_unit("series.pushforward", 1e3),
        "series.filtered_rank_integral_us": per_unit("series.filtered_rank_integral", 1e3),
        "series.trapezoid_volume_us": per_unit("series.trapezoid_volume", 1e3),
        "series.volume_via_fibers_us": per_unit("series.volume_via_fibers", 1e3),
        "towers.epsilon_us": per_unit("towers.epsilon", 1e3),
        "towers.rescale_us": per_unit("towers.rescale", 1e3),
        "lattices.init_us": per_unit("lattices.init", 1e3),
        "lattices.h0_count_ms": per_unit("lattices.h0_count", 1e6),
        "lattices.points_per_s": rate("lattices.h0_count", c.get("lattices.points", 0)),
        "lattices.points": float(c.get("lattices.points", 0)),
        "lattices.minima_ms": per_unit("lattices.minima", 1e6),
        "lattices.gillet_soule_constant_ms": per_unit("lattices.gillet_soule_constant", 1e6),
        "lattices.degenerate_frac": c.get("lattices.degenerate", 0) / lattices if lattices else 0.0,
        "bounds.lattice_check_us": per_unit("bounds.lattice_check", 1e3),
        "bounds.geometric_check_us": per_unit("bounds.geometric_check", 1e3),
        "bounds.circle_sup_norm_ms": per_unit("bounds.circle_sup_norm", 1e6),
        "bounds.circle_calls": float(times.get("bounds.circle_sup_norm", (0, 0, 0))[0]),
        "bounds.p1z_candidates_per_s": rate("bounds.p1z_h0", p1z_work),
        "bounds.to_json_us": per_unit("bounds.to_json", 1e3),
        "cli.validate_ms": per_unit("cli.validate_config", 1e6),
        "cli.run_config_overhead_frac": overhead - 1 if overhead else 0.0,
        "cli.pool_speedup": jobs1 / jobs2 if jobs2 else 0.0,
        "cli.pool_speedup_geometric": speedups["geometric"],
        "cli.pool_speedup_lattice": speedups["lattice"],
        "lattices.budget_errors": float(c.get("EnumerationBudgetError", 0)),
        "bounds.precision_errors": float(c.get("PrecisionBudgetError", 0)),
        "scalars.certification_errors": float(c.get("CertificationError", 0)),
        "trace.overhead_frac": traced_s / untraced_s - 1 if untraced_s else 0.0,
    }
