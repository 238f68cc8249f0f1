"""Every demo runs to completion: exit 0, nothing on stderr, no failed check."""

import os
import subprocess
import sys

import pytest

import hnbounds

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs_clean(demo):
    # the child imports the same hnbounds as this process, installed or not
    src = os.path.dirname(os.path.dirname(hnbounds.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)], capture_output=True, text=True, env=env
    )
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    assert r.stdout and "pass=False" not in r.stdout
