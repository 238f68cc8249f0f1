import itertools
import json
import os
import pickle
import pickletools
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import hnbounds
from hnbounds import bounds, cli, lattices
from hnbounds.bounds import reports_to_csv, reports_to_json
from hnbounds.cli import run_config, validate_config, ConfigError
from hnbounds.lattices import EnumerationBudgetError
from hnbounds.scalars import CertificationError, Exact, Scalar
from hnbounds.towers import NegativeSlopeWarning, Tower, TowerData, epsilon
from test_report_digests import MIXED_RUN_CONFIGS, RUN_CONFIGS


def run_python(args, env_extra=None, timeout=None):
    # the child imports the same hnbounds as this process, installed or not
    src = os.path.dirname(os.path.dirname(hnbounds.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)


def run_cli(args, env_extra=None, timeout=None):
    return run_python(["-m", "hnbounds.cli", *args], env_extra, timeout)


def _worker_pid(_):
    return os.getpid()


def pool_pids(jobs):
    """The pids of the ``jobs - 1`` workers of a pooled ``_run_checks`` call.

    Its ``jobs`` one-task shares run in ``jobs`` processes: the last in
    this one, the others each in its own worker.
    """
    pids = cli._run_checks(_worker_pid, [0] * jobs)
    assert pids[-1] == os.getpid() and len(set(pids)) == jobs
    return set(pids[:-1])


def patch_cpus(monkeypatch, cpus):
    """Let ``_jobs`` see ``cpus`` CPUs, every one of them open to this process."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _die_in_a_worker(caller):
    """Kill the process running this task, unless it is ``caller``."""
    if os.getpid() != caller:
        os._exit(3)
    return caller


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_validate_config():
    validate_config({"suite": "geometric"})
    with pytest.raises(ConfigError):
        validate_config({"suite": "nope"})
    with pytest.raises(ConfigError):
        validate_config({"suite": "lattice", "parameters": {"rank": 99}})
    with pytest.raises(ConfigError):
        validate_config({})


def test_geometric_suite_counts(tmp_path):
    out = tmp_path / "geo.json"
    status, reports = run_config(
        {
            "suite": "geometric",
            "parameters": {"a_max": 6, "b_max": 6, "e_max": 2},
            "output": {"path": str(out), "format": "json"},
        }
    )
    assert status == 0
    # grid size: 36 (e=0) + 21 (e=1) + 9 (e=2)
    assert len(reports) == 66
    data = json.loads(out.read_text())
    assert len(data) == 66 and all(r["pass"] for r in data)


def test_filtered_suite():
    status, reports = run_config(
        {"suite": "filtered", "parameters": {"a_max": 4, "b_max": 4, "e_max": 1}}
    )
    assert status == 0 and len(reports) == 16 + 10


def test_lattice_suite_three_reports_per_trial():
    status, reports = run_config(
        {"suite": "lattice", "parameters": {"rank": 2, "trials": 200}, "seed": 42}
    )
    assert status == 0
    assert len(reports) == 600
    assert all(r.passed for r in reports)


@pytest.mark.xfail(strict=True, reason="rank-1 Minkowski and Blichfeldt margins of exactly 0 are not certified")
def test_lattice_suite_rank_one_exits_zero(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": "lattice", "parameters": {"rank": 1, "trials": 20}, "seed": 3}))
    assert cli.main(["run", str(config)]) == 0


def test_lattice_suite_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    cfg = {
        "suite": "lattice",
        "parameters": {"rank": 2, "trials": 10},
        "seed": 7,
    }
    run_config({**cfg, "output": {"path": str(out1)}})
    run_config({**cfg, "output": {"path": str(out2)}})
    assert out1.read_bytes() == out2.read_bytes()


def test_lattice_suite_rank_cap_is_the_enumeration_budget():
    # one rank cap: the schemas refuse the ranks EuclideanLattice would not enumerate
    for suite, key in (("lattice", "rank"), ("arithmetic", "max_rank")):
        assert cli.PARAMETER_SCHEMAS[suite]["properties"][key]["maximum"] == lattices.MAX_RANK
        validate_config({"suite": suite, "parameters": {key: lattices.MAX_RANK}})
        with pytest.raises(ConfigError):
            validate_config({"suite": suite, "parameters": {key: lattices.MAX_RANK + 1}})


def test_parallel_matches_serial(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "suite": "geometric",
                "parameters": {"a_max": 3, "b_max": 3, "e_max": 1},
                "seed": 5,
                "output": {"path": str(out1), "format": "json"},
            }
        )
    )
    r = run_cli(["run", str(cfg)])
    assert r.returncode == 0, r.stderr
    cfg2 = json.loads(cfg.read_text())
    cfg2["output"]["path"] = str(out2)
    cfg_file2 = tmp_path / "cfg2.json"
    cfg_file2.write_text(json.dumps(cfg2))
    r2 = run_cli(["run", str(cfg_file2)], env_extra={"HNBOUNDS_JOBS": "3"})
    assert r2.returncode == 0, r2.stderr
    assert out1.read_bytes() == out2.read_bytes()


def test_jobs_clamped_to_cpus_and_tasks(monkeypatch):
    def no_fork():
        raise AssertionError("a worker process was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setenv("HNBOUNDS_JOBS", "10000")
    patch_cpus(monkeypatch, 4)
    assert [cli._jobs(n) for n in (0, 1, 3, 4, 100)] == [1, 1, 3, 4, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._jobs(100) == 1
    assert cli._run_checks(abs, [-1, -2]) == [1, 2]
    for value in ("0", "-3", "many"):
        monkeypatch.setenv("HNBOUNDS_JOBS", value)
        assert cli._jobs(100) == 1
    # without os.fork every run is serial
    monkeypatch.setenv("HNBOUNDS_JOBS", "4")
    patch_cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork")
    assert cli._jobs(100) == 1
    assert cli._run_checks(abs, [-1, -2]) == [1, 2]


def test_jobs_clamped_to_the_cpus_this_process_may_run_on(monkeypatch):
    # under `taskset -c 0` a second process would share the one core
    monkeypatch.setenv("HNBOUNDS_JOBS", "4")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._jobs(100) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 3}, raising=False)
    assert cli._jobs(100) == 3


def _pid_and(x):
    return os.getpid(), x


@pytest.mark.parametrize("jobs", [2, 3])
def test_lazy_shares_are_drawn_once_in_order(monkeypatch, jobs):
    monkeypatch.setenv("HNBOUNDS_JOBS", str(jobs))
    patch_cpus(monkeypatch, jobs)
    here, frame = os.getpid(), cli._frame
    drawn, shares = [], []

    def recording_frame(message):
        # shares are framed here; replies only in the workers
        if os.getpid() == here:
            shares.append((message[1], len(drawn)))
        return frame(message)

    monkeypatch.setattr(cli, "_frame", recording_frame)

    def tasks(n):
        for i in range(n):
            drawn.append(i)
            yield i

    for count in [*range(8), 40]:
        drawn.clear()
        shares.clear()
        ran = cli._run_checks(_pid_and, tasks(count), count)
        assert drawn == list(range(count))
        assert [x for _, x in ran] == list(range(count))
        procs = cli._jobs(count)
        assert len({pid for pid, _ in ran}) == min(procs, count)
        if procs == 1:
            assert not shares and all(pid == here for pid, _ in ran)
            continue
        # each share is a contiguous run of tasks, framed as soon as its last
        # task is drawn, and runs in one worker; this process runs the rest
        starts, sent = {}, set()
        for xs, drawn_then in shares:
            assert xs == list(range(xs[0], xs[0] + len(xs))) and drawn_then == xs[-1] + 1
            (pid,) = {ran[x][0] for x in xs}
            assert pid != here
            starts.setdefault(pid, []).append(xs[0])
            sent.update(xs)
        # each worker's shares come in task order, and the first leaves before the last task is drawn
        assert all(s == sorted(s) for s in starts.values())
        assert shares[0][1] < count
        assert all(pid == here for pid, x in ran if x not in sent)


def test_error_drawing_the_last_share_still_reads_every_reply(monkeypatch):
    # the worker's share is sent before this process draws its own; the
    # draw's error is raised once the worker's 2 MiB reply has been read
    monkeypatch.setenv("HNBOUNDS_JOBS", "2")
    patch_cpus(monkeypatch, 2)
    pids = pool_pids(2)

    def sizes():
        yield 1 << 20
        yield 1 << 20
        raise LookupError("drawn here")

    def hung(signum, frame):
        raise TimeoutError("a pooled call hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(LookupError, match="drawn here"):
            cli._run_checks(bytes, sizes(), 4)
        assert cli._run_checks(abs, [-i for i in range(50)]) == list(range(50))
        assert pool_pids(2) == pids
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _rationals_twice(_):
    """This process's pid, then two equal but distinct copies of each value."""
    def values():
        return [
            Fraction(1, 2),
            Exact(1, 2),
            Fraction(2),
            2,
            True,
            Scalar.from_fraction_bounds(Fraction(1, 3), Fraction(1, 2)),
        ]

    return os.getpid(), values(), values()


def test_reply_sends_equal_rationals_once_and_keeps_types(monkeypatch):
    monkeypatch.setenv("HNBOUNDS_JOBS", "2")
    patch_cpus(monkeypatch, 2)
    (pid, first, second), _ = cli._run_checks(_rationals_twice, [0] * 2)
    assert pid != os.getpid()
    _, want, _ = _rationals_twice(0)
    for got in (first, second):
        assert [type(x) for x in got] == [type(x) for x in want]
        assert got[:5] == want[:5] and type(got[1]) is Exact and type(got[5]) is Scalar
        assert got[5].bounds() == want[5].bounds()
    # the repeat of each rational is the first one
    assert all(first[i] is second[i] for i in (0, 1, 2))


def _reports_of(results):
    """The JSON of a list of task results, each a report or a list of reports."""
    return [r.to_json() for x in results for r in (x if isinstance(x, list) else [x])]


@pytest.mark.parametrize("name", sorted(set(RUN_CONFIGS) - {"polygon"}))
def test_wire_loads_shares_and_replies_without_fraction_new_or_state(monkeypatch, name):
    # a suite's first share at two jobs and the reply to it, as the pool
    # pickles them: loading them builds no Fraction through Fraction.__new__
    # and sets no object state (no BUILD), and gives back equal values
    captured = []

    def capture(func, args, count=None):
        captured.append((func, list(args)))
        return [func(arg) for arg in captured[-1][1]]

    monkeypatch.setattr(cli, "_run_checks", capture)
    run_config(RUN_CONFIGS[name])
    ((func, args),) = captured
    share = func, args[: -(-len(args) // 4)]
    results = [func(arg) for arg in share[1]]
    new = Fraction.__new__
    built = []

    def counting_new(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    for message in (share, (True, results)):
        data = bytes(cli._frame(message))
        assert int.from_bytes(data[:8], "little") == len(data) - 8
        assert "BUILD" not in {op.name for op, _, _ in pickletools.genops(data[8:])}
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", counting_new)
            loaded = pickle.loads(data[8:])
            assert built == []
            Fraction(1, 2)  # the counter counts
            assert built == [Fraction]
        built.clear()
        if message is share:
            assert _reports_of(loaded[0](arg) for arg in loaded[1]) == _reports_of(results)
        else:
            assert loaded[0] is True and _reports_of(loaded[1]) == _reports_of(results)


def test_pool_batches_keep_order_and_first_error(monkeypatch):
    monkeypatch.setenv("HNBOUNDS_JOBS", "2")
    patch_cpus(monkeypatch, 2)
    assert cli._run_checks(abs, [-i for i in range(50)]) == list(range(50))
    pids = pool_pids(2)
    # the worker's first share is tasks 0-12; later shares vary in size and
    # in the process that runs them: the error of the earlier task is
    # raised, wherever either runs, and not the later one
    for first, second in ((10, 45), (10, 20), (30, 45)):
        texts = [str(i) for i in range(50)]
        texts[first] = "first"
        texts[second] = "second"
        with pytest.raises(ValueError, match="first"):
            cli._run_checks(int, texts)
        # the same workers then return the next call's results, in order
        assert cli._run_checks(abs, [-i for i in range(50)]) == list(range(50))
        assert pool_pids(2) == pids


def _pid_after(task):
    """This process's pid and the task's index, after the task's pause."""
    i, pause = task
    time.sleep(pause)
    return os.getpid(), i


def test_each_pipe_holds_one_message_at_a_time(monkeypatch):
    # the buffered pipes rely on it: a worker is sent its next share only
    # once its reply to the last one has been read
    monkeypatch.setenv("HNBOUNDS_JOBS", "3")
    patch_cpus(monkeypatch, 3)
    here, frame, read_frame = os.getpid(), cli._frame, cli._read_frame
    log = []

    def logging_frame(message):
        # this process frames only shares, and reads only replies
        if os.getpid() == here:
            log.append(("share", [i for i, _ in message[1]]))
        return frame(message)

    def logging_read_frame(pipe):
        data = read_frame(pipe)
        if os.getpid() == here:
            log.append(("reply", pickle.loads(data)[1]))
        return data

    monkeypatch.setattr(cli, "_frame", logging_frame)
    monkeypatch.setattr(cli, "_read_frame", logging_read_frame)
    # 40 tasks of uneven cost, so that shares and replies interleave
    tasks = [(i, 0.004 if i % 7 == 3 else 0.0005 * (i % 3)) for i in range(40)]

    def hung(signum, frame):
        raise TimeoutError("a pooled call hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        ran = cli._run_checks(_pid_after, tasks)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [i for _, i in ran] == list(range(40))
    owner = {i: pid for pid, i in ran}
    events = {}  # worker pid -> its shares and replies, as task indices, in order
    for kind, items in log:
        indices = items if kind == "share" else [i for _, i in items]
        (pid,) = {owner[i] for i in indices}
        events.setdefault(pid, []).append((kind, indices))
    assert len(events) == 2 and here not in events
    for sequence in events.values():
        # share, the reply to it, share, the reply to it, ...
        assert [kind for kind, _ in sequence] == ["share", "reply"] * (len(sequence) // 2)
        assert all(sequence[k][1] == sequence[k + 1][1] for k in range(0, len(sequence), 2))
    assert max(map(len, events.values())) >= 4  # some worker was sent a second share


def _huge_reply_in_a_worker(caller):
    """Raise in ``caller``; elsewhere return more than a pipe buffer holds."""
    if os.getpid() == caller:
        raise ValueError("the caller's share")
    return bytes(1 << 20)


def test_first_share_error_still_reads_every_reply(monkeypatch):
    # the worker's 1 MiB reply fills its pipe while this process's share
    # raises; unless it is read, the next call would read it in place of its own
    monkeypatch.setenv("HNBOUNDS_JOBS", "2")
    patch_cpus(monkeypatch, 2)
    pids = pool_pids(2)

    def hung(signum, frame):
        raise TimeoutError("a pooled call hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(ValueError, match="the caller's share"):
            cli._run_checks(_huge_reply_in_a_worker, [os.getpid()] * 2)
        assert cli._run_checks(abs, [-i for i in range(50)]) == list(range(50))
        assert pool_pids(2) == pids
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_warm_pool_kept_until_the_worker_count_changes(monkeypatch):
    patch_cpus(monkeypatch, 4)
    monkeypatch.setenv("HNBOUNDS_JOBS", "2")
    pids = pool_pids(2)
    assert pool_pids(2) == pids
    # serial calls, by a single task or by the setting, run here and keep the pool
    assert cli._run_checks(_worker_pid, [0]) == [os.getpid()]
    monkeypatch.setenv("HNBOUNDS_JOBS", "1")
    assert cli._run_checks(_worker_pid, [0] * 3) == [os.getpid()] * 3
    monkeypatch.setenv("HNBOUNDS_JOBS", "2")
    assert pool_pids(2) == pids
    # another count replaces the workers, and the old ones are reaped
    monkeypatch.setenv("HNBOUNDS_JOBS", "3")
    replaced = pool_pids(3)
    assert not replaced & pids
    assert not any(alive(pid) for pid in pids)
    assert pool_pids(3) == replaced


def test_forked_child_builds_its_own_pool(monkeypatch):
    monkeypatch.setenv("HNBOUNDS_JOBS", "2")
    patch_cpus(monkeypatch, 2)
    parent_pids = pool_pids(2)
    child = os.fork()
    if child == 0:
        status = 1
        try:
            ran = cli._run_checks(abs, [-i for i in range(50)])
            if ran == list(range(50)) and not pool_pids(2) & parent_pids:
                status = 0
            cli._drop_pool()
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(child, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:
        os.kill(child, 9)
        os.waitpid(child, 0)
    assert done[0] == child and os.waitstatus_to_exitcode(done[1]) == 0
    # the child left the parent's workers alone
    assert pool_pids(2) == parent_pids


# every suite of the report digests, and the arithmetic suite's near tie
POOLED_CONFIGS = {**RUN_CONFIGS, "arithmetic-tie": MIXED_RUN_CONFIGS["arithmetic-tie"][0]}


@pytest.mark.parametrize("name", sorted(POOLED_CONFIGS))
def test_alternating_pooled_suites_match_serial(monkeypatch, name):
    # each suite, run between pooled ones, gives its serial reports at 2 and
    # 3 jobs, and the warm workers stay (polygon's one task runs here)
    patch_cpus(monkeypatch, 3)
    geometric = {"suite": "geometric", "parameters": {"a_max": 4, "b_max": 4, "e_max": 1}}
    lattice = {"suite": "lattice", "parameters": {"rank": 3, "trials": 20}, "seed": 3}

    def reports(jobs):
        monkeypatch.setenv("HNBOUNDS_JOBS", jobs)
        texts = []
        for config in (geometric, POOLED_CONFIGS[name], lattice, geometric):
            reps = run_config(config)[1]
            texts.append(json.dumps(reports_to_json(reps), indent=2, sort_keys=True) + reports_to_csv(reps))
        return texts

    serial = reports("1")
    for jobs in (2, 3):
        monkeypatch.setenv("HNBOUNDS_JOBS", str(jobs))
        pids = pool_pids(jobs)
        assert reports(str(jobs)) == serial
        assert pool_pids(jobs) == pids


def test_dead_worker_exits_two_with_one_line(monkeypatch, capsys, tmp_path):
    # a worker killed mid-suite (say, by the OOM killer) is an error, not a failed check
    monkeypatch.setenv("HNBOUNDS_JOBS", "2")
    patch_cpus(monkeypatch, 2)
    pids = pool_pids(2)

    def dying_suite(params, rng):
        return cli._run_checks(_die_in_a_worker, [os.getpid()] * 4)

    monkeypatch.setitem(cli.SUITE_RUNNERS, "geometric", dying_suite)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": "geometric"}))
    assert cli.main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died: ") and len(err.splitlines()) == 1
    # the workers are dropped: fresh ones return the next results in order
    assert cli._run_checks(abs, [-i for i in range(50)]) == list(range(50))
    assert not pool_pids(2) & pids


def test_task_defined_after_the_fork_is_named(monkeypatch):
    # the workers were forked before this module had the task, so they
    # cannot unpickle it: the error names it, and the next call forks afresh;
    # a 1 MiB share, more than a pipe buffer holds, is named too
    monkeypatch.setenv("HNBOUNDS_JOBS", "2")
    patch_cpus(monkeypatch, 2)

    def hung(signum, frame):
        raise TimeoutError("a pooled call hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        for name, arg in (("_late_task", 0), ("_late_task_huge", bytes(1 << 20))):
            pids = pool_pids(2)

            def late(x):
                return x

            late.__qualname__ = name
            monkeypatch.setattr(sys.modules[__name__], name, late, raising=False)
            with pytest.raises(cli.WorkerDiedError, match=rf"AttributeError: .*'{name}'.* forked"):
                cli._run_checks(late, [arg] * 4)
            assert cli._run_checks(abs, [-i for i in range(50)]) == list(range(50))
            assert not pool_pids(2) & pids
            assert not any(alive(pid) for pid in pids)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_dead_worker_in_a_cold_process_exits_two(tmp_path):
    # the pool's pickle is imported only when a pooled suite starts; a worker
    # that dies there still ends the run with exit 2, one stderr line and no report
    code = (
        "import os, sys\n"
        "from hnbounds import bounds, cli\n"
        "caller, check = os.getpid(), bounds.check_toric_family\n"
        "def die(family):\n"
        "    if os.getpid() != caller:\n"
        "        os._exit(3)\n"
        "    return check(family)\n"
        "bounds.check_toric_family = die\n"
        "os.cpu_count = lambda: 2\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "assert 'pickle' not in sys.modules\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": "geometric"}))
    r = run_python(["-c", code, "run", str(config)], env_extra={"HNBOUNDS_JOBS": "2"})
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert r.stderr.startswith("error: a worker process died: ") and len(r.stderr.splitlines()) == 1


def test_pooled_run_in_dev_mode_prints_only_its_own_stderr(tmp_path):
    # -X dev prints a file left unclosed (a worker's pipes) and an error
    # raised while freeing an object (a BytesIO with a live buffer export)
    code = (
        "import os, sys\n"
        "from hnbounds import cli\n"
        "os.cpu_count = lambda: 2\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    refused = "config error: invalid config: Gram matrix must be positive definite\n"
    runs = (
        ({"suite": "geometric", "parameters": {"a_max": 4, "b_max": 4, "e_max": 1}}, 0, ""),
        ({"suite": "arithmetic", "parameters": {"entries": ["1", "0"]}}, 2, refused),
    )
    config = tmp_path / "config.json"
    for settings, status, err in runs:
        config.write_text(json.dumps(settings))
        r = run_python(["-X", "dev", "-c", code, "run", str(config)], env_extra={"HNBOUNDS_JOBS": "2"})
        assert (r.returncode, r.stderr) == (status, err)


def test_arithmetic_suite():
    status, reports = run_config({"suite": "arithmetic", "parameters": {"max_rank": 3}})
    assert status == 0
    assert len(reports) == 3 + 9 + 27


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_arithmetic_suite_matches_a_lattice_per_ordering(monkeypatch, jobs):
    # the oracle builds every ordered diagonal's lattice and checks it; the
    # suite checks each distinct sorted diagonal once, a repeated entry too
    monkeypatch.setenv("HNBOUNDS_JOBS", jobs)
    patch_cpus(monkeypatch, 2)
    entries = ["1/4", "1", "1", "4"]
    _, reports = run_config({"suite": "arithmetic", "parameters": {"max_rank": 3, "entries": entries}})
    oracle = []
    for rank in range(1, 4):
        for diag in itertools.product(map(Fraction, entries), repeat=rank):
            gram = [[diag[i] if i == j else 0 for j in range(rank)] for i in range(rank)]
            oracle.append(bounds.check_gillet_soule(lattices.EuclideanLattice(gram)))
    oracle.sort(key=lambda r: r.name)
    assert len(reports) == 4 + 16 + 64
    assert json.dumps(reports_to_json(reports)) == json.dumps(reports_to_json(oracle))


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "entry, err",
    [
        ("0", "config error: invalid config: Gram matrix must be positive definite\n"),
        ("-1", "config error: invalid config: Gram matrix must be positive definite\n"),
        ("1/1000000000000000000000", "error: enumeration node budget exceeded\n"),
    ],
)
def test_arithmetic_refusal_from_a_task_keeps_its_one_line(monkeypatch, capsys, tmp_path, jobs, entry, err):
    # the refused diagonals fall in a worker's share when two processes run
    monkeypatch.setenv("HNBOUNDS_JOBS", jobs)
    patch_cpus(monkeypatch, 2)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": "arithmetic", "parameters": {"entries": ["1", entry]}}))
    assert cli.main(["run", str(config)]) == 2
    assert capsys.readouterr() == ("", err)


def test_arithmetic_suite_orders_a_tie_below_the_interval_precision(tmp_path, capsys, monkeypatch):
    # the slopes of 1 and 1 + 2^-200 overlap at 120 bits; the positive degree
    # is summed over the exact diagonal's order and never builds an HNType
    tie = Fraction(2**200 + 1, 2**200)
    config = tmp_path / "config.json"
    parameters = {"entries": ["1", str(tie)], "max_rank": 2}
    config.write_text(json.dumps({"suite": "arithmetic", "parameters": parameters}))
    assert cli.main(["run", str(config)]) == 0
    assert capsys.readouterr() == ("suite=arithmetic seed=0\n6/6\n", "")

    def refuse(self, segments):
        raise AssertionError("HNType constructed")

    monkeypatch.setattr(hnbounds.HNType, "__init__", refuse)
    for diag in ([1, tie], [tie, 1], [tie, tie]):
        L = lattices.EuclideanLattice([[diag[0], 0], [0, diag[1]]])
        assert bounds.check_gillet_soule(L).passed


def test_epsilon_suite():
    status, reports = run_config(
        {"suite": "epsilon", "parameters": {"trials": 30}, "seed": 11}
    )
    assert status == 0 and len(reports) == 60


def test_reports_render_without_exact_reader_methods(monkeypatch, capsys):
    # the JSON and CSV writers tell an exact report value from an interval by
    # type, so none of Exact's reader methods is read
    reports = [r for config in RUN_CONFIGS.values() for r in run_config(config)[1]]
    capsys.readouterr()
    assert any(type(r.margin) is Exact for r in reports) and any(type(r.margin) is Scalar for r in reports)
    want = reports_to_json(reports), reports_to_csv(reports)

    def refuse(*args):
        raise AssertionError("a report value was read through an Exact reader method")

    for name in ("as_fraction", "bounds", "midpoint", "to_json"):
        monkeypatch.setattr(Exact, name, refuse)
    monkeypatch.setattr(Exact, "is_rational", property(refuse))
    assert (reports_to_json(reports), reports_to_csv(reports)) == want


def test_exact_suites_build_no_scalar(monkeypatch, capsys):
    # exact values stay Fractions from input to report: the suites whose
    # checks are all exact build no interval, and every report value is an
    # Exact (scalars builds each Scalar through its module-level ``_new``)
    from hnbounds import scalars

    built = []
    new = scalars._new

    def counting_new(cls):
        if cls is scalars.Scalar:
            built.append(cls)
        return new(cls)

    monkeypatch.setattr(scalars, "_new", counting_new)
    monkeypatch.setenv("HNBOUNDS_JOBS", "1")
    configs = [
        {"suite": "geometric", "parameters": {"a_max": 4, "b_max": 3, "e_max": 2}},
        {"suite": "filtered", "parameters": {"a_max": 4, "b_max": 3, "e_max": 2}},
        {"suite": "epsilon", "parameters": {"trials": 20}, "seed": 5},
        {"suite": "polygon", "parameters": {"hn": [[2, "3"], [1, "-1/2"], [3, "-4"]]}},
    ]
    for config in configs:
        status, reports = run_config(config)
        assert status == 0 and reports
        assert all(type(v) is Exact for r in reports for v in (r.lhs, r.rhs, r.margin))
    capsys.readouterr()
    assert built == []
    scalars.Scalar.from_fraction_bounds(Fraction(1), Fraction(2))  # the counter counts
    assert built == [scalars.Scalar]


def test_polygon_suite_echo():
    status, reports = run_config(
        {"suite": "polygon", "parameters": {"hn": [[2, "3"], [1, "-1"]]}}
    )
    assert status == 0
    ctx = reports[0].context
    assert ctx["deg_plus"] == 6 and type(ctx["deg_plus"]) is Fraction
    assert ctx["mu_max"] == 3 and type(ctx["mu_max"]) is Fraction
    assert ctx["integral_identity"] is True


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"suite": "bogus"}))
    r = run_cli(["run", str(bad)])
    assert r.returncode == 2
    assert "config error" in r.stderr

    missing = run_cli(["run", str(tmp_path / "absent.json")])
    assert missing.returncode == 2

    good = tmp_path / "good.json"
    good.write_text(json.dumps({"suite": "geometric", "parameters": {"a_max": 2, "b_max": 2, "e_max": 0}}))
    r = run_cli(["run", str(good)])
    assert r.returncode == 0
    assert r.stdout.strip().splitlines()[-1] == "4/4"


def test_empty_output_path_exits_two(capsys, monkeypatch, tmp_path):
    # an output names the file to write, and "" names none
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": "polygon", "parameters": {"hn": [[1, "1"]]}, "output": {"path": ""}}))
    assert cli.main(["run", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: ") and len(err.splitlines()) == 1
    assert os.listdir(tmp_path) == ["config.json"]


def test_unwritable_output_path_exits_two_before_any_check(capsys, monkeypatch, tmp_path):
    # the path is opened before the suite runs: a missing directory costs no check
    calls = []
    monkeypatch.setitem(cli.SUITE_RUNNERS, "lattice", lambda params, rng: calls.append(params) or [])
    config = tmp_path / "config.json"
    output = {"path": str(tmp_path / "missing" / "x.json")}
    config.write_text(json.dumps({"suite": "lattice", "parameters": {"rank": 4, "trials": 2000}, "output": output}))
    assert cli.main(["run", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: [Errno ") and len(err.splitlines()) == 1
    assert calls == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_refused_run_leaves_an_existing_report_unchanged(capsys, tmp_path, fmt):
    # the early open does not truncate: a refusal raised by the suite keeps the old bytes
    report = tmp_path / f"report.{fmt}"
    config = tmp_path / "config.json"
    output = {"path": str(report), "format": fmt}
    config.write_text(json.dumps({**RUN_CONFIGS["polygon"], "output": output}))
    assert cli.main(["run", str(config)]) == 0
    before = report.read_bytes()
    config.write_text(json.dumps({"suite": "arithmetic", "parameters": {"entries": ["1", "0"]}, "output": output}))
    assert cli.main(["run", str(config)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error: invalid config: ") and len(err.splitlines()) == 1
    assert report.read_bytes() == before
    # a later run rewrites the file whole, over a longer old report
    short = {"suite": "polygon", "parameters": {"hn": [[1, "1"]]}}
    for path in (report, tmp_path / f"fresh.{fmt}"):
        config.write_text(json.dumps({**short, "output": {**output, "path": str(path)}}))
        assert cli.main(["run", str(config)]) == 0
    assert len(before) > len(report.read_bytes()) and report.read_bytes() == (tmp_path / f"fresh.{fmt}").read_bytes()


def test_run_exits_one_on_failing_check(monkeypatch):
    from hnbounds.bounds import CheckReport
    from hnbounds import cli

    def failing_suite(params, rng):
        return [CheckReport.compare("forced", 2, 1)]

    monkeypatch.setitem(cli.SUITE_RUNNERS, "polygon", failing_suite)
    status, reports = run_config({"suite": "polygon", "parameters": {"hn": [[1, "0"]]}})
    assert status == 1 and not reports[0].passed


def test_cli_budget_errors_exit_two():
    # rank 9 exceeds the enumeration budget: exit 2 with one line, no traceback
    gram = [["1" if i == j else "0" for j in range(9)] for i in range(9)]
    r = run_cli(["lattice", "--gram", json.dumps(gram)])
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and len(r.stderr.strip().splitlines()) == 1
    # the level-0 range of this rank-1 lattice alone holds about 6.3e10 leaves
    r = run_cli(["lattice", "--gram", '[["1/1000000000000000000000"]]'])
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: enumeration node budget exceeded\n"


def test_diagonal_ball_past_the_enumeration_budget_gets_a_report():
    # (3/4)^14 I_8 holds 41,527,105 points, more than MAX_NODES enumeration
    # nodes; its count is a convolution and is reported
    c = str(Fraction(3, 4) ** 14)
    gram = [[c if i == j else "0" for j in range(8)] for i in range(8)]
    r = run_cli(["lattice", "--gram", json.dumps(gram)], timeout=60)
    assert r.returncode == 0 and r.stderr == ""
    reports = json.loads(r.stdout)
    assert len(reports) == 3 and all(rep["pass"] for rep in reports)
    assert {rep["context"]["count"] for rep in reports if "count" in rep["context"]} == {41_527_105}
    # a rank-1 ball too big for the convolution's charge is still refused at once
    r = run_cli(["lattice", "--gram", json.dumps([[str(Fraction(1, 10**21))]])], timeout=10)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: enumeration node budget exceeded\n"


@pytest.mark.parametrize("error", [CertificationError, EnumerationBudgetError])
def test_cli_uncertified_exit_two(monkeypatch, capsys, error):
    from hnbounds import cli

    def raising_suite(params, rng):
        raise error("cannot certify")

    monkeypatch.setitem(cli.SUITE_RUNNERS, "polygon", raising_suite)
    assert cli.main(["polygon", "--hn", '[[1,"0"]]']) == 2
    assert capsys.readouterr().err == "error: cannot certify\n"


def test_cli_lets_a_key_error_through(monkeypatch, tmp_path):
    # no library path raises KeyError on purpose: one is a bug, not bad input
    def broken(series):
        raise KeyError("a bug")

    monkeypatch.setattr(bounds, "check_toric_family", broken)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": "geometric", "parameters": {"a_max": 2, "b_max": 2, "e_max": 0}}))
    with pytest.raises(KeyError, match="a bug"):
        cli.main(["run", str(config)])


def test_cli_summary_line_format():
    cfg = {"suite": "geometric", "parameters": {"a_max": 2, "b_max": 2, "e_max": 0}}
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        status, reports = run_config(cfg)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("suite=geometric seed=")
    assert lines[-1] == f"{len(reports)}/{len(reports)}"


def test_polygon_subcommand():
    r = run_cli(["polygon", "--hn", '[[2,"3"],[1,"-1"]]'])
    assert r.returncode == 0
    assert '"deg_plus": "6"' in r.stdout
    assert '"mu_max": "3"' in r.stdout


@pytest.mark.parametrize("first", [{"lo": "2", "hi": "3"}, {"lo": "5", "hi": "6"}])
def test_polygon_subcommand_interval_slopes(capsys, first):
    # interval slopes the schema admits are reported, not refused: the
    # breakpoints are read as they are, and integral_identity is an overlap
    hn = json.dumps([[1, first], [1, {"lo": "1/2", "hi": "1"}]])
    assert cli.main(["polygon", "--hn", hn]) == 0
    out = capsys.readouterr().out
    (report,) = json.loads(out[out.index("["):])
    assert report["pass"] and report["context"]["integral_identity"] is True
    assert len(report["context"]["breakpoints"]) == 3


def test_epsilon_subcommand():
    r = run_cli(
        ["epsilon", "--tower", '{"genera":[0,0],"mu":["2","0"],"vol":["0","3"]}']
    )
    assert r.returncode == 0
    assert json.loads(r.stdout.strip())["epsilon"] == "6"
    # char-p variant with ell(g) = g + 1
    r = run_cli(
        [
            "epsilon",
            "--tower",
            '{"genera":[0,0],"mu":["2","0"],"vol":["0","3"]}',
            "--ell",
            "[1, 1]",
        ]
    )
    assert json.loads(r.stdout.strip())["epsilon"] == "10"


def test_lattice_subcommand():
    r = run_cli(["lattice", "--gram", '[["1","0"],["0","1"]]'])
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert len(data) == 3 and all(rep["pass"] for rep in data)


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "--gram", "5"],
        ["lattice", "--gram", "[[null]]"],
        ["epsilon", "--tower", '{"genera":[0],"mu":["1"],"vol":["1"]}', "--ell", "5"],
        ["epsilon", "--tower", "5"],
        ["epsilon", "--tower", '{"genera":5,"mu":["1"],"vol":["1"]}'],
        ["polygon", "--hn", "[5]"],
        # a zero denominator in a JSON rational
        ["polygon", "--hn", '[[1,"1/0"]]'],
        ["lattice", "--gram", '[["1/0"]]'],
        ["epsilon", "--tower", '{"genera":[0],"mu":["1/0"],"vol":["1"]}'],
        ["epsilon", "--tower", '{"genera":[0],"mu":["1"],"vol":["1"]}', "--ell", '["1/0",1]'],
        ["run", {"suite": "arithmetic", "parameters": {"entries": ["1/0"]}}],
        # a setting the suite does not read, and an empty list of checks
        ["run", {"suite": "epsilon", "parameters": {"trials": 40, "depth_max": 0}}],
        ["run", {"suite": "arithmetic", "parameters": {"entries": []}}],
        # tower data is rational: an interval slope or volume is refused
        ["epsilon", "--tower", '{"genera":[0],"mu":[{"lo":"1","hi":"2"}],"vol":["1"]}'],
        # a slope whose report would exceed CPython's int-to-decimal limit
        ["polygon", "--hn", '[[1,"1e999999"]]'],
        ["run", {"suite": "polygon", "parameters": {"hn": [[1, "1e999999"]]}}],
        # Gram entries whose exact arithmetic would run for minutes, and
        # entries too large to print in a report: alone and added up
        ["lattice", "--gram", '[["1e999999"]]'],
        ["run", {"suite": "arithmetic", "parameters": {"entries": ["1e999999"]}}],
        ["lattice", "--gram", json.dumps([["1", "0"], ["0", str(2**10_000)]])],
        ["run", {"suite": "arithmetic", "parameters": {"entries": [str(2**5000), str(2**5000)]}}],
        # strings that are not rationals, in every input that reads one
        *(
            argv
            for bad in ("x", "1/2/3")
            for argv in (
                ["polygon", "--hn", json.dumps([[1, bad]])],
                ["lattice", "--gram", json.dumps([[bad]])],
                ["epsilon", "--tower", json.dumps({"genera": [0], "mu": [bad], "vol": ["1"]})],
                ["epsilon", "--tower", '{"genera":[0],"mu":["1"],"vol":["1"]}', "--ell", json.dumps([bad, 1])],
                ["run", {"suite": "arithmetic", "parameters": {"entries": [bad]}}],
            )
        ),
        ["epsilon", "--tower", '{"genera":[0],"mu":["1"],"vol":["1"]}', "--ell", "[NaN, 1]"],
        ["polygon", "--hn", '[[1,{"lo":"3","hi":"2"}]]'],
        # an integer past CPython's digit limit, and a tower past the cap
        ["lattice", "--gram", "[[" + "7" * 5000 + "]]"],
        ["epsilon", "--tower", json.dumps({"genera": [0, 1], "mu": [str(2**10_000), "1"], "vol": ["1", "1"]})],
        # a config file that is not JSON (a string here is the file's text)
        ["run", "{"],
        ["run", '{"suite": ' + "9" * 5000 + "}"],
        # a config file that is not text (bytes here are the file's content)
        ["run", b"\xff{}"],
        # settings that nothing reads
        ["run", {"suite": "lattice", "output": {"format": "csv"}}],
        ["epsilon", "--tower", '{"genera":[0,0],"mu":["1","1"],"vol":["1","1"],"ell":[1,1]}'],
        # well-formed input that a library constructor refuses
        ["polygon", "--hn", '[[1,"1"],[1,"2"]]'],
        ["polygon", "--hn", '[[0,"1"]]'],
        ["epsilon", "--tower", '{"genera":[-1],"mu":["1"],"vol":["1"]}'],
        ["epsilon", "--tower", '{"genera":[0],"mu":["1"],"vol":["-1"]}'],
        ["epsilon", "--tower", '{"genera":[0],"mu":["1","2"],"vol":["1"]}'],
        ["epsilon", "--tower", '{"genera":[0,1],"mu":["1"],"vol":["1"]}'],
        ["lattice", "--gram", '[["1","2"],["3","1"]]'],
        ["lattice", "--gram", '[["1","2"],["2","1"]]'],
        ["run", {"suite": "polygon", "parameters": {"hn": [[1, "1"], [1, "2"]]}}],
        ["run", {"suite": "polygon", "parameters": {"hn": [[0, "1"]]}}],
        ["run", {"suite": "arithmetic", "parameters": {"entries": ["0"]}}],
        # interval slopes whose order their bounds cannot decide
        ["polygon", "--hn", '[[1,{"lo":"1","hi":"3"}],[1,"2"]]'],
        ["run", {"suite": "polygon", "parameters": {"hn": [[1, {"lo": "1", "hi": "3"}], [1, "2"]]}}],
        # a degree outside the circle norm's budget
        ["p1z", "--degree", "-1"],
        ["p1z", "--degree", "65"],
        # arrays nested past the JSON decoder's recursion limit
        ["polygon", "--hn", "[" * 1000 + "]" * 1000],
        ["lattice", "--gram", "[" * 1000 + "]" * 1000],
        ["run", "[" * 1000 + "]" * 1000],
    ],
)
def test_cli_malformed_input_exits_two(capsys, tmp_path, argv):
    # malformed JSON shapes are input errors (exit 2, one line and nothing on
    # stdout), not failed checks; the message names the flag, or the config for run
    if argv[0] == "run":
        config = tmp_path / "config.json"
        if isinstance(argv[1], bytes):
            config.write_bytes(argv[1])
        else:
            config.write_text(argv[1] if isinstance(argv[1], str) else json.dumps(argv[1]))
        argv = ["run", str(config)]
    what = "config" if argv[0] == "run" else argv[-2]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"config error: invalid {what}: ") and len(err.strip().splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize(
    "hn, message",
    [
        # a slope is one node of three types; an interval needs both ends
        ("[[1,null]]", "None is not of type 'string', 'integer', 'object'"),
        ('[[1,{"lo":1.5}]]', "'hi' is a required property"),
        # Scalar.from_fraction_bounds refuses the interval
        ('[[1,{"lo":"3","hi":"2"}]]', "lower bound exceeds upper bound"),
    ],
)
def test_bad_slope_messages(capsys, tmp_path, hn, message):
    assert cli.main(["polygon", "--hn", hn]) == 2
    assert capsys.readouterr() == ("", f"config error: invalid --hn: {message}\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": "polygon", "parameters": {"hn": json.loads(hn)}}))
    assert cli.main(["run", str(config)]) == 2
    assert capsys.readouterr() == ("", f"config error: invalid config: {message}\n")


@pytest.mark.parametrize("hn", ["[]", '[[1,"1/0"]]'])
def test_polygon_input_error_leaves_stdout_empty(hn):
    # the suite header is printed only once the suite has returned
    r = run_cli(["polygon", "--hn", hn])
    assert r.returncode == 2 and r.stdout == ""
    assert len(r.stderr.strip().splitlines()) == 1 and "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["polygon", "--hn", '[[1,"1e100000000"]]'],
        ["lattice", "--gram", '[["1e100000000"]]'],
        ["epsilon", "--tower", '{"genera":[0],"mu":["1e100000000"],"vol":["1"]}'],
        ["epsilon", "--tower", '{"genera":[0],"mu":["1"],"vol":["1"]}', "--ell", '["1e100000000",1]'],
        ["run", '{"suite":"arithmetic","parameters":{"entries":["1e100000000"]}}'],
    ],
)
def test_huge_exponent_is_refused_before_it_is_expanded(tmp_path, argv):
    # 10**100000000 alone would take 41 MB and seconds to build; a config is its file's text
    if argv[0] == "run":
        (tmp_path / "config.json").write_text(argv[1])
        argv = ["run", str(tmp_path / "config.json")]
    r = run_cli(argv, timeout=10)
    assert r.returncode == 2 and r.stdout == ""
    (line,) = r.stderr.splitlines()
    assert line.startswith("config error: invalid ") and "or more bits, more than 10000" in line


def _digits(draw, lengths):
    """A run of decimal digits, its length near one of ``lengths``, at
    times with underscores, valid or not, between or around them."""
    n = draw(st.sampled_from(lengths)) + draw(st.integers(-3, 3))
    text = draw(st.sampled_from(["", "0", "00"])) + str(draw(st.integers(0, 10 ** max(n, 1) - 1)))
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + "_" + text[i:]
    return text


@st.composite
def _literals(draw):
    """Rational literals near the 10,000-bit cap, in each of Fraction's forms,
    and near misses."""
    digits = lambda *lengths: _digits(draw, lengths)
    space = lambda: draw(st.sampled_from(["", "", " ", "\t\n "]))
    sign = draw(st.sampled_from(["", "-", "+"]))
    exponent = draw(st.integers(-20, 20) | st.integers(2900, 3100) | st.integers(-3100, -2900))
    body = draw(st.sampled_from([
        digits(1, 20, 3000, 3020),
        digits(1, 1500) + "/" + digits(1, 1500),
        digits(0, 1, 20) + "." + digits(0, 1, 20, 1000) + draw(st.sampled_from("eE")) + f"{exponent:+d}",
        digits(1, 40) + "e" + str(exponent),
        draw(st.sampled_from(["x", "1/2/3", "", ".", "e5", "nan", "-inf", "1/0", "0/0", "1e", "1e5.5"])),
    ]))
    return space() + sign + body + space()


def _read_one(text):
    """A one-rational input through the CLI's reader and its cap."""
    q = cli._rational(text, "--gram", "Gram matrix")
    cli._refuse_past_cap("Gram matrix", "--gram", [q])
    return q


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_literals())
# within the cap only because the mantissa's denominator, or numerator, is long
@example("0." + "0" * 19 + "1e3025")
@example(str(5**4000) + "e-4000")
def test_reader_is_fraction_within_the_cap(text):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        want = None
    if want is not None and want.numerator.bit_length() + want.denominator.bit_length() <= cli._MAX_BITS:
        assert _read_one(text) == want
    else:
        with pytest.raises(ConfigError, match="^invalid --gram: "):
            _read_one(text)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.from_regex(r"\A[-+]?[0-9]{0,3}(\.[0-9]{0,3})?\Z"), st.integers(10**4, 10**6), st.sampled_from("+-"))
def test_reader_refuses_a_far_exponent(mantissa, e, sign):
    # a nonzero mantissa is refused by its exponent alone, a zero one reads as 0
    text = f"{mantissa}e{sign}{e}"
    try:
        zero = Fraction(mantissa + "e0") == 0
    except ValueError:
        zero = None
    if zero:
        assert cli._rational(text, "--gram", "Gram matrix") == 0
    else:
        with pytest.raises(ConfigError, match="^invalid --gram: "):
            cli._rational(text, "--gram", "Gram matrix")


@pytest.mark.parametrize(
    "hn, lo, hi",
    [
        ([[1, {"lo": "2", "hi": "3"}]], 0, 0),
        ([[2, {"lo": "2", "hi": "3"}], [1, "1"]], 1, 2),
        # rational and interval slopes mixed, one below 0
        ([[1, "5"], [2, {"lo": "2", "hi": "3"}], [1, "-1"]], 9, 11),
        ([[1, "3"], [1, {"lo": "1/3", "hi": "1/2"}]], Fraction(5, 2), Fraction(8, 3)),
    ],
)
def test_polygon_passes_on_interval_ties(capsys, hn, lo, hi):
    # rank*mu_max^+ - deg+ = sum_(i>=2) r_i (mu_1^+ - mu_i^+), each term
    # certified nonnegative: a tie on an interval slope is no failure
    assert cli.main(["polygon", "--hn", json.dumps(hn)]) == 0
    out = capsys.readouterr().out
    (report,) = json.loads(out[out.index("["):])
    margin = report["margin"]
    ends = (margin, margin) if isinstance(margin, str) else (margin["lo"], margin["hi"])
    assert report["pass"] and 0 <= Fraction(ends[0]) <= lo and Fraction(ends[1]) >= hi


@pytest.mark.parametrize(
    "hn",
    [
        [[1, "1e-999999"]],
        [[1, {"lo": "1e-999999", "hi": "1"}]],
        [[10**1100, "1e1001"], [1, "1e1000"]],  # the parts add up
    ],
)
def test_polygon_refuses_slope_data_too_large_to_print(capsys, hn):
    assert cli.main(["polygon", "--hn", json.dumps(hn)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert err.startswith("config error: invalid --hn: the slope data has ")
    assert int(err.split(" has ")[1].split()[0]) > cli._MAX_BITS


def test_polygon_prints_slope_data_under_the_bit_limit(capsys):
    # just under the limit every derived value of the report still prints
    assert cli.main(["polygon", "--hn", json.dumps([[10**900, "1e2000"], [7, "-1/3"]])]) == 0
    out = capsys.readouterr().out
    (report,) = json.loads(out[out.index("["):])
    assert report["context"]["deg_plus"] == str(10**2900)


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "hn",
    [
        [[1, {"lo": "1e400", "hi": "1e401"}]],
        [[10**300, {"lo": "1e10", "hi": "2e10"}]],  # deg_plus is past the float range
    ],
)
def test_polygon_reports_values_past_the_float_range(capsys, hn):
    # an interval's approx is null past the float range; lo and hi stay exact
    assert cli.main(["polygon", "--hn", json.dumps(hn)]) in (0, 1)
    out, err = capsys.readouterr()
    assert err == ""
    (report,) = _strict_json(out[out.index("["):])
    deg_plus = report["context"]["deg_plus"]
    assert deg_plus["approx"] is None and int(deg_plus["lo"]) >= 10**308


def test_rationals_under_the_bit_limit_are_checked(capsys, tmp_path):
    # just under the limit: the lattice is checked, and the arithmetic
    # suite's reports print every entry
    scale = str(10**1500)  # 4,983 bits
    assert cli.main(["lattice", "--gram", json.dumps([[scale, "0"], ["0", scale]])]) == 0
    assert all(rep["pass"] for rep in json.loads(capsys.readouterr().out))
    big = str(10**3000)  # 9,966 bits
    config = tmp_path / "config.json"
    out = tmp_path / "out.json"
    config.write_text(json.dumps({
        "suite": "arithmetic",
        "parameters": {"entries": ["1", big], "max_rank": 2},
        "output": {"path": str(out)},
    }))
    assert cli.main(["run", str(config)]) == 0
    assert any(big in rep["name"] for rep in json.loads(out.read_text()))


def _integer_fields():
    """Configs with a JSON float in one integer field each: every integer
    parameter of every suite, a polygon rank and the seed."""
    for suite, schema in sorted(cli.PARAMETER_SCHEMAS.items()):
        for name, field in sorted(schema["properties"].items()):
            if field.get("type") == "integer":
                yield {"suite": suite, "parameters": {name: 2.0}}
    yield {"suite": "polygon", "parameters": {"hn": [[2.0, "3"]]}}
    yield {"suite": "lattice", "seed": 1.0}


@pytest.mark.parametrize("config", list(_integer_fields()), ids=json.dumps)
def test_cli_float_in_integer_field_exits_two(capsys, tmp_path, config):
    # JSON Schema's own "integer" admits 2.0; the CLI's is a Python int
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid config: ") and "is not of type 'integer'" in err
    assert len(err.strip().splitlines()) == 1


def test_pooled_lattice_suite_matches_string_payload_reference(monkeypatch):
    # the suite sends workers integer Grams and gets named reports back; the
    # reference rebuilds each lattice from the JSON strings the suite once sent
    import random

    from hnbounds.bounds import CheckReport, reports_to_json
    from hnbounds.lattices import EuclideanLattice, random_gram

    rng = random.Random(2024)
    reference = []
    for i in range(12):
        gram_json = [[str(x) for x in row] for row in random_gram(4, rng).gram]
        rows = [[cli._rational(x, "--gram", "Gram matrix") for x in row] for row in gram_json]
        for rep in cli._lattice_checks(EuclideanLattice(rows)):
            named = f"{rep.name} trial={i:04d}"
            reference.append(CheckReport(named, rep.lhs, rep.rhs, rep.margin, rep.context))
    reference.sort(key=lambda r: r.name)
    expected = json.dumps(reports_to_json(reference), indent=2, sort_keys=True)
    patch_cpus(monkeypatch, 2)
    for jobs in ("1", "2"):
        monkeypatch.setenv("HNBOUNDS_JOBS", jobs)
        _, reports = run_config({"suite": "lattice", "parameters": {"rank": 4, "trials": 12}, "seed": 2024})
        assert json.dumps(reports_to_json(reports), indent=2, sort_keys=True) == expected


def test_neither_jsonschema_nor_the_pool_is_loaded(tmp_path):
    # schemas are checked in-house; the pool's pickle waits for a pooled call
    configs = {
        "geometric": {"a_max": 3, "b_max": 3, "e_max": 1},
        "filtered": {"a_max": 3, "b_max": 3, "e_max": 1},
        "lattice": {"rank": 2, "trials": 3},
        "arithmetic": {"max_rank": 2},
        "epsilon": {"trials": 3},
        "polygon": {"hn": [[2, "3"], [1, "-1"]]},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": "lattice", "parameters": configs["lattice"], "seed": 3}))
    argvs = [
        ["run", str(config)],
        ["polygon", "--hn", '[[2,"3"],[1,{"lo":"-1","hi":"0"}]]'],
        ["epsilon", "--tower", '{"genera":[0,0],"mu":["2","0"],"vol":["0","3"]}', "--ell", "[1, 1]"],
        ["lattice", "--gram", '[["2","1"],["1","2"]]'],
        ["p1z", "--degree", "2"],
    ]
    code = (
        "import json, sys, hnbounds.cli as cli\n"
        "unloaded = lambda: not {'jsonschema', 'pickle'} & set(sys.modules)\n"
        f"for suite, params in {configs!r}.items():\n"
        "    cli.validate_config({'suite': suite, 'parameters': params})\n"
        "    assert unloaded(), suite\n"
        f"for argv in {argvs!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    assert unloaded(), argv\n"
    )
    r = run_python(["-c", code], env_extra={"HNBOUNDS_JOBS": "1"})
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("suite=lattice seed=3\n9/9\n")


def test_mpmath_loads_with_the_first_interval(tmp_path):
    # the exact-rational suites and subcommands never build an interval
    configs = {
        "geometric": {"a_max": 3, "b_max": 3, "e_max": 1},
        "filtered": {"a_max": 3, "b_max": 3, "e_max": 1},
        "lattice": {"rank": 2, "trials": 3},
        "arithmetic": {"max_rank": 2},
        "epsilon": {"trials": 3},
        "polygon": {"hn": [[2, "3"], [1, "-1"]]},
    }
    argvs = []
    for suite in ("geometric", "filtered", "epsilon", "polygon"):
        config = tmp_path / f"{suite}.json"
        config.write_text(json.dumps({"suite": suite, "parameters": configs[suite]}))
        argvs.append(["run", str(config)])
    argvs += [
        ["epsilon", "--tower", '{"genera":[0,0],"mu":["2","0"],"vol":["0","3"]}', "--ell", "[1, 1]"],
        ["polygon", "--hn", '[[2,"3"],[1,"-1"]]'],
    ]
    code = (
        "import sys, hnbounds.cli as cli\n"
        "from hnbounds import scalars\n"
        "assert 'mpmath' not in sys.modules\n"
        f"for suite, params in {configs!r}.items():\n"
        "    cli.validate_config({'suite': suite, 'parameters': params})\n"
        "    assert 'mpmath' not in sys.modules, suite\n"
        f"for argv in {argvs!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    assert 'mpmath' not in sys.modules, argv\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "assert scalars._libmp.__name__ == 'mpmath.libmp'\n"
        "assert not [m for m in sys.modules if m.partition('.')[0] == 'mpmath']\n"
    )
    # the interval commands load mpmath's arithmetic kernel, privately
    for last in (["lattice", "--gram", '[["2","1"],["1","2"]]'], ["p1z", "--degree", "2"]):
        r = run_python(["-c", code, *last], env_extra={"HNBOUNDS_JOBS": "1"})
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith("suite=geometric seed=0\n")


def test_mpmath_imports_whole_after_the_private_kernel():
    # the kernel loaded for the first interval leaves no trace in sys.modules,
    # so a later import builds the whole package, and both agree bit for bit
    code = (
        "import sys, hnbounds.cli as cli\n"
        "from hnbounds import log_scalar\n"
        "assert cli.main(['lattice', '--gram', '[[\"2\",\"1\"],[\"1\",\"2\"]]']) == 0\n"
        "private = log_scalar(7)._ivl\n"
        "assert 'mpmath' not in sys.modules\n"
        "import mpmath\n"
        "assert mpmath.libmp is sys.modules['mpmath.libmp']\n"
        "mpmath.iv.prec = 120\n"
        "assert mpmath.iv.log(7)._mpi_ == private\n"
        "assert mpmath.iv.log(11)._mpi_ == log_scalar(11)._ivl\n"
    )
    r = run_python(["-c", code], env_extra={"HNBOUNDS_JOBS": "1"})
    assert r.returncode == 0, r.stderr


def test_no_suite_or_subcommand_imports_dataclasses(tmp_path):
    # the value types are plain slotted classes, so a cold process never
    # loads dataclasses, nor the inspect that dataclasses would pull in
    configs = {
        "geometric": {"a_max": 3, "b_max": 3, "e_max": 1},
        "filtered": {"a_max": 3, "b_max": 3, "e_max": 1},
        "lattice": {"rank": 2, "trials": 3},
        "arithmetic": {"max_rank": 2},
        "epsilon": {"trials": 3},
        "polygon": {"hn": [[2, "3"], [1, "-1"]]},
    }
    argvs = []
    for suite, params in configs.items():
        config = tmp_path / f"{suite}.json"
        output = {"path": str(tmp_path / f"{suite}.out.json")}
        config.write_text(json.dumps({"suite": suite, "parameters": params, "output": output}))
        argvs.append(["run", str(config)])
    argvs += [
        ["polygon", "--hn", '[[2,"3"],[1,{"lo":"-1","hi":"0"}]]'],
        ["epsilon", "--tower", '{"genera":[0,0],"mu":["2","0"],"vol":["0","3"]}', "--ell", "[1, 1]"],
        ["lattice", "--gram", '[["2","1"],["1","2"]]'],
        ["p1z", "--degree", "2"],
    ]
    code = (
        "import sys, hnbounds.cli as cli\n"
        f"for argv in {argvs!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    assert not {'dataclasses', 'inspect'} & set(sys.modules), argv\n"
    )
    r = run_python(["-c", code], env_extra={"HNBOUNDS_JOBS": "1"})
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("suite=geometric seed=0\n")


def test_interval_reports_unpickle_without_mpmath(tmp_path):
    # a pooled parent only reads what workers send back: that needs no mpmath
    _, reports = run_config({"suite": "lattice", "parameters": {"rank": 3, "trials": 4}, "seed": 5})
    reports += run_config({"suite": "arithmetic", "parameters": {"max_rank": 2}})[1]
    reports.append(bounds.p1z_h0(2)[1])
    assert any(type(r.margin) is Scalar for r in reports)
    (tmp_path / "reports.pickle").write_bytes(pickle.dumps(reports))
    code = (
        "import json, pickle, sys\n"
        "from hnbounds.bounds import reports_to_csv\n"
        "reports = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "json.dump([[r.to_json() for r in reports], [r.passed for r in reports], reports_to_csv(reports)], sys.stdout)\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    r = run_python(["-c", code, str(tmp_path / "reports.pickle")])
    assert r.returncode == 0, r.stderr
    want = [[r.to_json() for r in reports], [r.passed for r in reports], reports_to_csv(reports)]
    assert json.loads(r.stdout) == json.loads(json.dumps(want))


def test_negative_slope_warning_is_one_line():
    tower = '{"genera":[2,2],"mu":["-1","1"],"vol":["1","1"]}'
    r = run_cli(["epsilon", "--tower", tower])
    assert r.returncode == 0
    with pytest.warns(NegativeSlopeWarning):
        value = epsilon(Tower([2, 2]), TowerData(["-1", "1"], ["1", "1"]))
    assert r.stdout == json.dumps({"epsilon": str(value)}) + "\n"
    assert r.stderr == "warning: mu[0] < 0: the error term is not asserted by any bound here\n"


def test_validator_messages_are_jsonschemas():
    import jsonschema

    cases = [
        ({"suite": "nope"}, cli.CONFIG_SCHEMA),
        ({"rank": 99, "trials": 0}, cli.PARAMETER_SCHEMAS["lattice"]),
        ([[1, "2"], [None]], cli.GRAM_SCHEMA),
        ({"genera": [0], "mu": [None], "vol": []}, cli.TOWER_SCHEMA),
    ]
    for value, schema in cases:
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(value, schema)
        with pytest.raises(ConfigError) as got:
            cli._validate(value, schema, "x")
        assert str(got.value) == f"invalid x: {expected.value.message}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lattice"], "the following arguments are required: --gram"),
        (["p1z", "--degree", "x"], "argument --degree: invalid int value: 'x'"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ],
)
def test_cli_usage_errors_exit_two_in_one_line(capsys, argv, message):
    # argparse's usage text and SystemExit become the one-line input error
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"config error: invalid arguments: {message}")


def test_cli_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["p1z", "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: hnbounds p1z")


def test_p1z_subcommand():
    r = run_cli(["p1z", "--degree", "1"])
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["count"] == 5 and data["report"]["pass"]


def test_csv_output(tmp_path):
    out = tmp_path / "r.csv"
    run_config(
        {
            "suite": "geometric",
            "parameters": {"a_max": 2, "b_max": 2, "e_max": 0},
            "output": {"path": str(out), "format": "csv"},
        }
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,lhs,rhs,margin,pass"
    assert len(lines) == 5
