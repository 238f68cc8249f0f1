"""Pinned sha256 digests of the reports, to keep them byte-identical.

Each case runs the CLI in-process at a small size and hashes what it writes:
the JSON and CSV report files of ``hnbounds run`` for every suite, and the
stdout of the ``lattice``, ``epsilon``, ``polygon`` and ``p1z`` subcommands.
``MIXED_RUN_CONFIGS`` and ``MIXED_SUBCOMMANDS`` pin the reports where exact
values and intervals meet: polygons with an interval or a point-interval
slope, the arithmetic suite's near tie at ``1 + 2^-200``, and the rank-1
lattice suite, whose exact-zero margins fail and exit 1.
A change to any formula on the check paths that moves a single byte of a
report changes a digest here.
"""

import hashlib
import json

import pytest

from hnbounds import cli

RUN_CONFIGS = {
    "geometric": {"suite": "geometric", "parameters": {"a_max": 4, "b_max": 3, "e_max": 1}},
    "filtered": {"suite": "filtered", "parameters": {"a_max": 4, "b_max": 3, "e_max": 1}},
    "lattice": {"suite": "lattice", "parameters": {"rank": 3, "trials": 6}, "seed": 11},
    "arithmetic": {"suite": "arithmetic", "parameters": {"max_rank": 2, "entries": ["1/4", "2/3", "3"]}},
    "epsilon": {"suite": "epsilon", "parameters": {"trials": 25, "p_max": 4}, "seed": 5},
    "polygon": {"suite": "polygon", "parameters": {"hn": [[2, "3"], [1, "-1/2"], [3, "-4"]]}},
}

TOWER = '{"genera":[2,0,3],"mu":["3/2","1","2"],"vol":["1","5/3","7"]}'

SUBCOMMANDS = {
    "lattice": ["lattice", "--gram", '[["2","1/2","0"],["1/2","3","1"],["0","1","5/2"]]'],
    "epsilon": ["epsilon", "--tower", TOWER],
    "epsilon-ell": ["epsilon", "--tower", TOWER, "--ell", '["1/2", 2]'],
    "polygon": ["polygon", "--hn", '[[2,"3"],[1,"-1/2"],[3,"-4"]]'],
    **{f"p1z-{n}": ["p1z", "--degree", str(n)] for n in range(5)},
}

DIGESTS = {
    "run-arithmetic.json": "eda88003d9466755c30ec4b041d572d6204efa5d2206f9e726c5ad0f058749e9",
    "run-arithmetic.csv": "d6be31def289e3e782c1a2645de950409d9802ca523f1c91fd1fa6bdeebf1b5c",
    "run-epsilon.json": "e22fa3456f270ff9e31c4b994794f0fcdec82b07f375099b701eae93d20d3213",
    "run-epsilon.csv": "cfbfd3d77eacd6a0af65ea30d6bf3dfc6966eda3410f06b0ebf6a6a0e93661d3",
    "run-filtered.json": "f10a94defd7f80a6b5238cfba7b2a85600cd9387ae975c7087a5f29cf412433e",
    "run-filtered.csv": "7954db2620b050aa5a8890752ff1f7ce9ced354e813c9db6abe12b782db1f627",
    "run-geometric.json": "9cd46d87a35893ccbe1156773501a3bd95398e899c058c3e95a5cc7375b7c89e",
    "run-geometric.csv": "5ded64dd9b4831f1bbe8b139d65bfb96c461997997fe33e65a8c4fd5b86bb550",
    "run-lattice.json": "44e20ff9ac87c237901fe873fc33bd771a9733d65a61b51ba40b17a00a9fea24",
    "run-lattice.csv": "ca22c6a43970dbe7a2c704d1dda5adb7013f4ff12effb3a5547b31b199f25dd0",
    "run-polygon.json": "ecc275283d12a2e6a409f876d6202e7f6ec4cd98c28699d02a9ffc01a4f02aa9",
    "run-polygon.csv": "59335ffdae5a57bca8511b4084f9ef6c4bb3d7fde4b43d9e8089a36272818af9",
    "epsilon": "67f452a43b0a1a5c6ad513015e2aa7a5b3e2b415af12081d7b7d43f45f06e321",
    "epsilon-ell": "4a61c71467bffdc287d9373dd21554911b22d0397366da44d236247928e06717",
    "lattice": "5dfb8e04224a56fc5b88e296541e0ff77c4e3deb0699cd5c33c639d9791efb57",
    "p1z-0": "6ba3d379f17507cc7717679e3a2eec3315b6032b68da6f277f9049cefb416a2e",
    "p1z-1": "25cc8d4b4cfa7aa2286578f9b8b7d6358b7f19c6deb12526ec64b46cc3846b73",
    "p1z-2": "9301826fad96415997ac900cab494fd6cc6b607dd73456f4c04bd377ac04a509",
    "p1z-3": "13820da2abf3e90ac41b7913e194505cebe0307c702331fe4c7e22ff20f33353",
    "p1z-4": "aa7d6004aa44b7811ed73089c7e629b0147c697ea714edb63c621c86d2f005f6",
    "polygon": "69cd8daae894fd859a6192ccba8390f5ab51a2eaed2bac6c062167ee4eed8300",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("suite", sorted(RUN_CONFIGS))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_run_report_digest(tmp_path, capsys, suite, fmt):
    out = tmp_path / f"report.{fmt}"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**RUN_CONFIGS[suite], "output": {"path": str(out), "format": fmt}}))
    assert cli.main(["run", str(config)]) == 0
    capsys.readouterr()
    assert _sha(out.read_bytes()) == DIGESTS[f"run-{suite}.{fmt}"]


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_stdout_digest(capsys, name):
    assert cli.main(SUBCOMMANDS[name]) == 0
    assert _sha(capsys.readouterr().out.encode()) == DIGESTS[name]


TIE = (
    "1606938044258990275541962092341162602522202993782792835301377"
    "/1606938044258990275541962092341162602522202993782792835301376"
)

# name: (config, exit status)
MIXED_RUN_CONFIGS = {
    "polygon-interval": (
        {"suite": "polygon", "parameters": {"hn": [[2, "3"], [1, {"lo": "-1", "hi": "0"}], [3, "-5/2"]]}},
        0,
    ),
    "polygon-point": ({"suite": "polygon", "parameters": {"hn": [[1, {"lo": "1", "hi": "1"}], [2, "1/3"]]}}, 0),
    "arithmetic-tie": ({"suite": "arithmetic", "parameters": {"entries": ["1", TIE], "max_rank": 2}}, 0),
    "lattice-rank1": ({"suite": "lattice", "parameters": {"rank": 1, "trials": 6}, "seed": 11}, 1),
}

MIXED_SUBCOMMANDS = {
    "polygon-interval": ["polygon", "--hn", '[[2,"3"],[1,{"lo":"-1","hi":"0"}],[3,"-5/2"]]'],
}

MIXED_DIGESTS = {
    "run-polygon-interval.json": "aeb19efe81ac5bd3df2a7d72dfcfacb0aa470b616ac205edcaa152de2ef2e579",
    "run-polygon-interval.csv": "59335ffdae5a57bca8511b4084f9ef6c4bb3d7fde4b43d9e8089a36272818af9",
    "run-polygon-point.json": "ad7d82a9d6eb5f8b5332659658204fd4c0f26a478fb51994a4773c4e6a969f1b",
    "run-polygon-point.csv": "0b291ea82dd31924428b2cf927b96288cf6de6e40e501af5fcf416c62a27ef5d",
    "run-arithmetic-tie.json": "42f27b4526877c2efc108da2d1c0e6d853e844b5bc4be557fed66e6a1d7b03c0",
    "run-arithmetic-tie.csv": "fd3aed5a7bf4100028fbb3ba7ac536b2e67dfa1613ad38ad513042a9bdd88f60",
    "run-lattice-rank1.json": "c0d32393cda744ccf4446172684b64e3a075c751c832109f84a2d17afe2aa87b",
    "run-lattice-rank1.csv": "00b11d53d635dfb7adafbe021a36f1b129807d45342f08263a69227091b41a35",
    "polygon-interval": "b25ac66fe249e09425b74aef3735dd95ae7151706462b3bf402fffb3e0292ca1",
}


@pytest.mark.parametrize("name", sorted(MIXED_RUN_CONFIGS))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_mixed_run_report_digest(tmp_path, capsys, name, fmt):
    config, status = MIXED_RUN_CONFIGS[name]
    out = tmp_path / f"report.{fmt}"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "output": {"path": str(out), "format": fmt}}))
    assert cli.main(["run", str(path)]) == status
    capsys.readouterr()
    assert _sha(out.read_bytes()) == MIXED_DIGESTS[f"run-{name}.{fmt}"]


@pytest.mark.parametrize("name", sorted(MIXED_SUBCOMMANDS))
def test_mixed_subcommand_stdout_digest(capsys, name):
    assert cli.main(MIXED_SUBCOMMANDS[name]) == 0
    assert _sha(capsys.readouterr().out.encode()) == MIXED_DIGESTS[name]
