"""hnbounds benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload lattice --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  With ``--trace 0`` the run times the workload's ops
one at a time (closed loop, one caller) with no tracing and prints every
end-to-end metric; with ``--trace 1`` it runs the same ops untraced and
then traced, and prints every per-layer metric.  Every op result passes
the correctness gate (``gate.py``) before it counts as done.  The last
stdout line is the JSON result; the exit status is 1 when the gate fails
and 2 when the checkout has no library to benchmark.

Spans and a full result record (versions, seed, sample counts) are written
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WARM_S = 1.0  # untimed warm-up before the timed loop (fills lazy caches)
SETUP_REPEATS = (5, 11)  # fewest and most samples; more while under the budget
CLI_REPEATS = (5, 9)
REPEAT_BUDGET_S = 3.0
CHILD_TIMEOUT_S = 120
KEEP_RESULTS = 300
CAL_ITERS = 100_000
CAL_NOMINAL_S = 0.0070  # one calibration sample on an unloaded core
CAL_EVERY_S = 0.25


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "hnbounds" / "__init__.py").is_file():
        print(f"bench: no library at {SRC / 'hnbounds'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = workloads.build_round(args.workload, args.seed)
    if args.setup_only:
        return 0

    import hnbounds

    if Path(hnbounds.__file__).resolve().parent != SRC / "hnbounds":
        print(f"bench: imported hnbounds from {hnbounds.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload != "pool" and hasattr(os, "sched_setaffinity"):
        # one core for the ops, the calibration samples and the timed child
        # processes, so that the calibration sees the speed the timings saw
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(args, units)
    metrics, summary = run.traced() if args.trace else run.untraced()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        print(f"bench: metric set differs from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 2
    result = {
        "correct": not run.gate.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = dict(meta(args, run), summary=summary, problems=run.gate.problems[:50], **result)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    for problem in run.gate.problems[:20]:
        print(f"GATE FAILED {problem}")
    for m in wanted:
        print(f"{args.workload} {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(f"{args.workload} summary {json.dumps(summary, sort_keys=True)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


class Run:
    """One workload's round of ops, its gate, and the timing loops."""

    def __init__(self, args, units):
        import gate
        import workloads

        self.args = args
        self.units = units
        self.workloads = workloads
        ref_name = "hirzebruch" if args.workload == "pool" else args.workload
        self.gate = gate.Gate(gate.load_reference(ref_name))
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        # from the first round of the recorded pass: a few results as probe
        # operands, and the lattice counts; nothing more is kept, so that
        # retained objects do not slow the timed loop through the collector
        self.sample: list = []
        self.counts: dict[str, list[int]] = {}
        self.host = HostSpeed()

    # -- loops ----------------------------------------------------------------------

    def _one(self, op, tracer=None, timed=True):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                value = op.call()
            else:
                with tracer.op():
                    value = op.traced(tracer)
        except Exception as exc:  # a raising op is a failed op, and the run goes on
            elapsed = time.perf_counter() - t0
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            self.gate.fail(op.key, f"raised {name}: {exc}")
            value = None
        else:
            elapsed = time.perf_counter() - t0
        if timed:
            self.attempted += op.n_ops
        ok = value is not None and self.gate.check(op, value)
        if not ok and timed:
            self.failed += op.n_ops
        return value, elapsed

    def loop(self, seconds, tracer=None, max_units=None, timed=True, keep=True, whole_rounds=True):
        """Run units from the round's start, cycling, until ``seconds`` of wall
        time have passed and a round is complete (or ``max_units`` units), so
        every run times the same mix.  Returns per-call latencies scaled to
        nominal host speed, the raw ones, ops done and units done."""
        latencies, raw, ops, done = [], [], 0, 0
        starts = []
        start = time.perf_counter()
        self.host.sample()
        while True:
            unit = self.units[done % len(self.units)]
            for op in unit:
                starts.append(time.perf_counter())
                value, elapsed = self._one(op, tracer, timed)
                raw.append(elapsed)
                ops += op.n_ops
                if keep and done < len(self.units) and value is not None:
                    self.keep(op.key, value)
            done += 1
            now = time.perf_counter()
            if now - self.host.last >= CAL_EVERY_S:
                self.host.sample()
            if max_units is not None:
                if done >= max_units:
                    break
            elif now - start >= seconds and (not whole_rounds or done % len(self.units) == 0):
                break
        self.host.sample()
        latencies = [x * self.host.factor(t + x / 2) for t, x in zip(starts, raw)]
        return latencies, raw, ops, done

    def keep(self, key, value):
        if len(self.sample) < KEEP_RESULTS:
            self.sample.append(value)
        if key.endswith("blichfeldt"):
            self.counts.setdefault(key.split(" ", 1)[0], []).append(value.context["count"])

    def warm(self):
        self.loop(WARM_S, timed=False, keep=False, whole_rounds=False)
        gc.collect()

    # -- untraced: end-to-end metrics --------------------------------------------------

    def untraced(self):
        self.warm()
        latencies, raw, ops, units = self.loop(self.args.seconds)
        busy = sum(latencies)
        rss = peak_rss_mb(self.args.workload == "pool")
        setup = repeat(self.time_setup, SETUP_REPEATS)
        cli = repeat(self.time_cli, CLI_REPEATS)
        ordered = sorted(latencies)
        p50 = statistics.median(ordered)
        p95 = statistics.quantiles(ordered, n=20, method="inclusive")[18] if len(ordered) > 1 else p50
        metrics = {
            "ops_per_s": ops / busy,
            "op_p50_ms": p50 * 1e3,
            "op_p95_ms": p95 * 1e3,
            "setup_s": statistics.median(setup),
            "cli_s": statistics.median(cli),
            "peak_rss_mb": rss,
        }
        summary = {
            "ops": ops,
            "units": units,
            "round_units": len(self.units),
            "timed_s": sum(raw),
            "ops_per_s_unscaled": ops / sum(raw),
            "op_p50_ms_unscaled": statistics.median(raw) * 1e3,
            "host_factor_median": statistics.median(f for _, f in self.host.factors()),
            "latency_samples": len(ordered),
            "samples_beyond_p95": sum(1 for x in ordered if x > p95),
            "latency_unit": "round of both suites" if self.args.workload == "pool" else "op",
            "failed_frac": self.failed / self.attempted if self.attempted else 0.0,
            "errors": self.errors,
            "setup_s_samples": setup,
            "cli_s_samples": cli,
            **self.workload_facts(),
        }
        return metrics, summary

    def workload_facts(self):
        """Shares of degenerate lattices (h0_count == 1) per mix, and oracle coverage."""
        if self.args.workload != "lattice":
            return {}
        facts = {}
        for mix in ("suite", "dense"):
            counts = self.counts.get(mix, [])
            facts[f"{mix}_degenerate_frac"] = sum(c == 1 for c in counts) / len(counts) if counts else 0.0
            facts[f"{mix}_points_mean"] = statistics.mean(counts) if counts else 0.0
        facts["dense_brute_checked"] = self.gate.brute_checked
        facts["dense_brute_skipped"] = self.gate.brute_skipped
        return facts

    def time_setup(self) -> float:
        """Wall time of a fresh interpreter importing hnbounds and building the inputs."""
        cmd = [sys.executable, __file__, "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", "0", "--setup-only"]
        self.host.sample()
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        self.host.sample()
        elapsed *= self.host.factor(t0 + elapsed / 2)
        if done.returncode != 0:
            self.gate.fail("setup", f"exited {done.returncode}: {done.stderr.decode()[-300:]}")
        return elapsed

    def time_cli(self) -> float:
        """Wall time of a cold ``hnbounds`` process for the workload's CLI form."""
        args, extra_env, report = self.workloads.cli_args(self.args.workload, self.args.seed, str(OUT))
        env = {**os.environ, "HNBOUNDS_JOBS": "1", **extra_env}
        cmd = [sys.executable, "-m", "hnbounds.cli", *args]
        Path(report).unlink(missing_ok=True)
        with open(report if args[0] == "p1z" else os.devnull, "w") as sink:
            self.host.sample()
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sink, stderr=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S)
            elapsed = time.perf_counter() - t0
            self.host.sample()
            elapsed *= self.host.factor(t0 + elapsed / 2)
        if done.returncode != 0:
            self.gate.fail("cli", f"exited {done.returncode}: {done.stderr.decode()[-300:]}")
            return elapsed
        data = json.loads(Path(report).read_text())
        if args[0] == "p1z":
            if data["count"] != 11 or not data["report"]["pass"]:
                self.gate.fail("cli", f"p1z --degree 4 reported count {data['count']}")
        else:
            config = json.loads(Path(args[1]).read_text())
            expected = 773 if config["suite"] == "geometric" else 3 * config["parameters"]["trials"]
            if len(data) != expected or not all(r["pass"] for r in data):
                self.gate.fail("cli", f"report has {len(data)} entries, expected {expected} passing")
        return elapsed

    # -- traced: per-layer metrics --------------------------------------------------------

    def traced(self):
        import spans

        tr = spans.Tracer()
        self.warm()
        # untraced, traced, untraced over the same units; the mean of the two
        # untraced passes cancels drift between the first pass and the last
        before, _, ops, units = self.loop(self.args.seconds / 3, keep=False)
        traced_lat, _, _, _ = self.loop(0, tracer=tr, max_units=units)
        after, _, _, _ = self.loop(0, max_units=units, keep=False)
        untraced_s = (sum(before) + sum(after)) / 2
        traced_s = sum(traced_lat)
        values = self.sample
        self.workloads.scalar_probes(tr, values, cos_grid=self.args.workload == "circle")
        for report in list(self.workloads.reports_in(values))[:500]:
            with tr.span("bounds.to_json"):
                report.to_json()
        self.cli_probes(tr)
        for name, count in self.errors.items():
            tr.add(name, count)
        tr.write(OUT / f"spans-{self.args.workload}-seed{self.args.seed}.jsonl")
        metrics = spans.per_layer_metrics(tr, untraced_s, traced_s)
        summary = {
            "ops": ops,
            "units": units,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "spans": len(tr.spans),
            "errors": self.errors,
        }
        return metrics, summary

    def cli_probes(self, tr, repeats=3):
        """validate_config cost, run_config overhead and pool speed-up."""
        w = self.workloads
        configs = {
            "hirzebruch": [w.grid_config()],
            "lattice": [w.lattice_config(self.args.seed, trials=50)],
            "pool": w.pool_configs(self.args.seed),
        }.get(self.args.workload, [])
        from hnbounds import cli

        for config in configs:
            for _ in range(50):
                with tr.span("cli.validate_config"):
                    cli.validate_config(config)
        if self.args.workload in ("hirzebruch", "lattice"):
            direct = w.direct_suite(configs[0])
            for _ in range(repeats):
                with tr.span("cli.run_config"):
                    w.run_config_quiet(configs[0], 1)
                with tr.span("cli.direct"):
                    direct()
        if self.args.workload == "pool":
            for _ in range(2):
                for config in configs:
                    for jobs in (1, w.POOL_JOBS):
                        with tr.span(f"cli.pool.{config['suite']}.jobs{jobs}"):
                            w.run_config_quiet(config, jobs)


class HostSpeed:
    """Calibration samples of a fixed pure-Python loop, taken between ops.

    The host's speed drifts (on a shared 2-vCPU VM the same op took up to 2x
    longer for tens of seconds at a time).  A timing is multiplied by
    CAL_NOMINAL_S over the median of the calibration samples nearest to it,
    which states it at nominal host speed; both the op and the loop slow
    down together, so the drift cancels.  Unscaled figures are kept in the
    result record.
    """

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self.last = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        if len(cores) > 1:
            # pool workers run on every core, so time the loop on each
            took = []
            for core in cores:
                os.sched_setaffinity(0, {core})
                took.append(_calibration_loop())
            os.sched_setaffinity(0, cores)
            seconds = statistics.mean(took)
        else:
            seconds = _calibration_loop()
        self.last = time.perf_counter()
        self.times.append((t0 + self.last) / 2)
        self.seconds.append(seconds)

    def factor(self, t: float) -> float:
        i = bisect.bisect(self.times, t)
        return CAL_NOMINAL_S / statistics.median(self.seconds[max(0, i - 2): i + 2])

    def factors(self):
        return [(t, self.factor(t)) for t in self.times]


def _calibration_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


def repeat(measure, counts) -> list[float]:
    """At least counts[0] samples, more while under REPEAT_BUDGET_S, at most counts[1]."""
    low, high = counts
    samples = []
    start = time.perf_counter()
    while len(samples) < low or (len(samples) < high and time.perf_counter() - start < REPEAT_BUDGET_S):
        samples.append(measure())
    return samples


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident memory of this process, plus its largest child (pool workers)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def meta(args, run) -> dict:
    import mpmath

    digest = hashlib.sha256()
    for path in sorted((SRC / "hnbounds").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
    }


if __name__ == "__main__":
    sys.exit(main())
