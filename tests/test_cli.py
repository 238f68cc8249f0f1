import json
import os
import pickle
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
from hnbounds.scalars import CertificationError
from hnbounds.towers import NegativeSlopeWarning, Tower, TowerData, epsilon


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

    Its ``jobs`` one-task shares run in ``jobs`` processes: the first in
    this one, the others each in its own worker.
    """
    pids = cli._run_checks([(_worker_pid, 0)] * jobs)
    assert pids[0] == os.getpid() and len(set(pids)) == jobs
    return set(pids[1:])


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
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert [cli._jobs(n) for n in (0, 1, 3, 4, 100)] == [1, 1, 3, 4, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._jobs(100) == 1
    assert cli._run_checks([(abs, -1), (abs, -2)]) == [1, 2]
    for value in ("0", "-3", "many"):
        monkeypatch.setenv("HNBOUNDS_JOBS", value)
        assert cli._jobs(100) == 1
    # without os.fork every run is serial
    monkeypatch.setenv("HNBOUNDS_JOBS", "4")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert cli._jobs(100) == 1
    assert cli._run_checks([(abs, -1), (abs, -2)]) == [1, 2]


def test_pool_batches_keep_order_and_first_error(monkeypatch):
    monkeypatch.setenv("HNBOUNDS_JOBS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    tasks = [(abs, -i) for i in range(50)]
    assert cli._run_checks(tasks) == list(range(50))
    pids = pool_pids(2)
    # tasks 0-24 run here and 25-49 in the worker: the error of the earlier
    # task is raised, in either share, and not the later one
    for first, second in ((10, 45), (10, 20), (30, 45)):
        tasks = [(int, str(i)) for i in range(50)]
        tasks[first] = (int, "first")
        tasks[second] = (int, "second")
        with pytest.raises(ValueError, match="first"):
            cli._run_checks(tasks)
        # the same workers then return the next call's results, in order
        assert cli._run_checks([(abs, -i) for i in range(50)]) == list(range(50))
        assert pool_pids(2) == pids


def _huge_reply_in_a_worker(caller):
    """Raise in ``caller``; elsewhere return more than a pipe buffer holds."""
    if os.getpid() == caller:
        raise ValueError("the caller's share")
    return bytes(1 << 20)


def test_first_share_error_still_reads_every_reply(monkeypatch):
    # the worker's 1 MiB reply fills its pipe while this process's share
    # raises; unless it is read, the next call would read it in place of its own
    monkeypatch.setenv("HNBOUNDS_JOBS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pids = pool_pids(2)

    def hung(signum, frame):
        raise TimeoutError("a pooled call hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(ValueError, match="the caller's share"):
            cli._run_checks([(_huge_reply_in_a_worker, os.getpid())] * 2)
        assert cli._run_checks([(abs, -i) for i in range(50)]) == list(range(50))
        assert pool_pids(2) == pids
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_warm_pool_kept_until_the_worker_count_changes(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("HNBOUNDS_JOBS", "2")
    pids = pool_pids(2)
    assert pool_pids(2) == pids
    # serial calls, by a single task or by the setting, run here and keep the pool
    assert cli._run_checks([(_worker_pid, 0)]) == [os.getpid()]
    monkeypatch.setenv("HNBOUNDS_JOBS", "1")
    assert cli._run_checks([(_worker_pid, 0)] * 3) == [os.getpid()] * 3
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
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parent_pids = pool_pids(2)
    child = os.fork()
    if child == 0:
        status = 1
        try:
            tasks = [(abs, -i) for i in range(50)]
            if cli._run_checks(tasks) == list(range(50)) and not pool_pids(2) & parent_pids:
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


def test_alternating_pooled_suites_match_serial(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    geometric = {"suite": "geometric", "parameters": {"a_max": 4, "b_max": 4, "e_max": 1}}
    lattice = {"suite": "lattice", "parameters": {"rank": 3, "trials": 20}, "seed": 3}

    def reports(jobs):
        monkeypatch.setenv("HNBOUNDS_JOBS", jobs)
        return [
            json.dumps(reports_to_json(run_config(config)[1]), indent=2, sort_keys=True)
            for config in (geometric, lattice, geometric)
        ]

    serial = reports("1")
    monkeypatch.setenv("HNBOUNDS_JOBS", "2")
    pids = pool_pids(2)
    assert reports("2") == serial
    assert pool_pids(2) == pids


def test_dead_worker_exits_two_with_one_line(monkeypatch, capsys, tmp_path):
    # a worker killed mid-suite (say, by the OOM killer) is an error, not a failed check
    monkeypatch.setenv("HNBOUNDS_JOBS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pids = pool_pids(2)

    def dying_suite(params, rng):
        return cli._run_checks([(_die_in_a_worker, os.getpid())] * 4)

    monkeypatch.setitem(cli.SUITE_RUNNERS, "geometric", dying_suite)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": "geometric"}))
    assert cli.main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died: ") and len(err.splitlines()) == 1
    # the workers are dropped: fresh ones return the next results in order
    assert cli._run_checks([(abs, -i) for i in range(50)]) == list(range(50))
    assert not pool_pids(2) & pids


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
        "assert 'pickle' not in sys.modules\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": "geometric"}))
    r = run_python(["-c", code, "run", str(config)], env_extra={"HNBOUNDS_JOBS": "2"})
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert r.stderr.startswith("error: a worker process died: ") and len(r.stderr.splitlines()) == 1


def test_arithmetic_suite():
    status, reports = run_config({"suite": "arithmetic", "parameters": {"max_rank": 3}})
    assert status == 0
    assert len(reports) == 3 + 9 + 27


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


def test_polygon_suite_echo():
    status, reports = run_config(
        {"suite": "polygon", "parameters": {"hn": [[2, "3"], [1, "-1"]]}}
    )
    assert status == 0
    ctx = reports[0].context
    assert ctx["deg_plus"].as_fraction() == 6
    assert ctx["mu_max"].as_fraction() == 3
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


def test_run_exits_one_on_failing_check(monkeypatch):
    from hnbounds.bounds import CheckReport
    from hnbounds.scalars import Scalar
    from hnbounds import cli

    def failing_suite(params, rng):
        return [CheckReport.compare("forced", Scalar.exact(2), Scalar.exact(1))]

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


@pytest.mark.parametrize("error", [CertificationError, EnumerationBudgetError])
def test_cli_uncertified_exit_two(monkeypatch, capsys, error):
    from hnbounds import cli

    def raising_suite(params, rng):
        raise error("cannot certify")

    monkeypatch.setitem(cli.SUITE_RUNNERS, "polygon", raising_suite)
    assert cli.main(["polygon", "--hn", '[[1,"0"]]']) == 2
    assert capsys.readouterr().err == "error: cannot certify\n"


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
    ],
)
def test_cli_malformed_input_exits_two(capsys, tmp_path, argv):
    # malformed JSON shapes are input errors (exit 2, one line and nothing on
    # stdout), not failed checks; the message names the flag, or the config for run
    if argv[0] == "run":
        config = tmp_path / "config.json"
        config.write_text(argv[1] if isinstance(argv[1], str) else json.dumps(argv[1]))
        argv = ["run", str(config)]
    what = "config" if argv[0] == "run" else argv[-2]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"config error: invalid {what}: ") and len(err.strip().splitlines()) == 1
    assert out == ""


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
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
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
    assert any(not r.margin.is_rational for r in reports)
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
    assert r.stdout == json.dumps({"epsilon": value.to_json()}) + "\n"
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
