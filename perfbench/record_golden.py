"""Record golden sha256 hashes of each workload's CSV and JSON reports.

Run from the repository root, at a commit whose reports are known good:

    PYTHONPATH=src python3 perfbench/record_golden.py

Each report must first pass the structural checks.  The hashes for seeds
0 to GOLDEN_SEEDS - 1 go to perfbench/golden.json, keyed by workload and
seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import riglab.cli  # noqa: E402

import checks  # noqa: E402
from run import WORK_DIR  # noqa: E402
from workloads import WORKLOADS, spec_for  # noqa: E402

GOLDEN_SEEDS = 32


def record(workload: str, seed: int, tmp: str) -> dict:
    command, spec = spec_for(workload, seed)
    spec_path = os.path.join(tmp, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    prefix = os.path.join(tmp, "out")
    with contextlib.redirect_stdout(io.StringIO()):
        code = riglab.cli.main([command, "--spec", spec_path, "--out", prefix])
    if code != 0:
        raise SystemExit(f"{workload} seed {seed}: riglab failed")
    with open(prefix + ".csv", "rb") as fh:
        csv_bytes = fh.read()
    with open(prefix + ".json", "rb") as fh:
        json_bytes = fh.read()
    checks.check_structure(spec, csv_bytes, json_bytes)
    return {"csv": checks.sha256(csv_bytes), "json": checks.sha256(json_bytes)}


def main() -> int:
    golden = {}
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        for workload in WORKLOADS:
            golden[workload] = {str(seed): record(workload, seed, tmp) for seed in range(GOLDEN_SEEDS)}
    with open(checks.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
