"""Every demo runs to completion: exit 0, nothing on stderr, no failed check,
and the very stdout pinned by its sha256."""

import hashlib
import os
import subprocess
import sys

import pytest

import hnbounds

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")

STDOUT_DIGESTS = {
    "demo_01_slope_polygons.py": "8adec73c8053a00c90bbc8b61a4067ee9917db94991b618f07275db39261ecc7",
    "demo_02_split_bundles.py": "f472b90f88b5d49fd03df1c6d5260784adcbfb5f305b4115a908481cfc17120b",
    "demo_03_hirzebruch_counts.py": "85d58a3b1132e9f995cc40b5c47437b4fcb1f0ada09647cd7596928ae355f0c5",
    "demo_04_error_terms.py": "e0c06d8e03074692f7bb36413a244fcd8a7c70839e9e44357a918e3a31714d01",
    "demo_05_lattices.py": "dffb87b4def95850313eaac96da771e7fe4ebc74178bcf85b245d9fd35a3c304",
    "demo_06_integer_polynomials.py": "120b3b4531df3b351f430127586673fbff78ca3fcc4719820099385f4ec0cc80",
}


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
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == STDOUT_DIGESTS[demo]
