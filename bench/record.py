"""Record the reference results that the correctness gate compares against.

Runs every pool item and every fixed input of the gated workloads once and
writes ``reference/<workload>.json``: for each op key, the digest of its
exact report fields followed by the midpoints of its interval fields.
Run from the repository root, only at a commit whose results are trusted:

    python3 bench/record.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402
from gate import REFERENCE_DIR, record_entry  # noqa: E402


def units_to_record(workload: str):
    if workload == "hirzebruch":
        units = [u for t in w.hirzebruch_grid() for u in w.hirzebruch_ops(t)]
        units += [u for k in range(w.EPS_POOL) for u in w.epsilon_ops(k)]
        return units
    if workload == "lattice":
        units = [
            w.lattice_unit(f"suite r={r} k={k}", w.suite_gram(r, k))
            for r in w.SUITE_RANKS
            for k in range(w.SUITE_POOL)
        ]
        units += [
            w.lattice_unit(f"dense r={r} s={s} k={k}", w.dense_gram(r, s, k))
            for r, s in w.DENSE_MIX
            for k in range(w.DENSE_POOL)
        ]
        units += [[w.arithmetic_op(g)] for g in w.arithmetic_grams()]
        units += [[w.gs_constant_op(n)] for n in w.GS_SIZES]
        return units
    if workload == "circle":
        return [[w.p1z_op(n)] for n in w.P1Z_DEGREES]
    raise ValueError(workload)


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in ("hirzebruch", "lattice", "circle"):
        reference = {}
        for unit in units_to_record(workload):
            for op in unit:
                result = op.call()
                report = result[1] if isinstance(result, tuple) else result
                if getattr(report, "passed", True) is not True:
                    raise SystemExit(f"{op.key}: check failed, refusing to record it")
                reference[op.key] = record_entry(result)
        path = REFERENCE_DIR / f"{workload}.json"
        with open(path, "w") as fh:
            json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"{path.name}: {len(reference)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
