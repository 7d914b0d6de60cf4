"""Output checks for one experiment call's CSV and JSON reports.

The checks share no code with riglab.  For a seed listed in golden.json the
reports must match the recorded sha256 hashes byte for byte.  For every seed
they must have the documented columns, one row per grid point, matching CSV
and JSON values, each interval around its estimate, and the spec echoed back
with the hash of its canonical JSON.  Edge-prob estimates must also lie
within six standard errors of the closed form 1 - (1 - p^2)^m.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

from workloads import grid_labels

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

_ESTIMATE_STATS = ["estimate", "std_error", "ci_low", "ci_high"]
_TAIL = ["trials", "master_seed"]

COLUMNS = {
    "edge-prob": ["m", "p", *_ESTIMATE_STATS, "q_exact", "q_approx", "zeta_bound", "abs_error", *_TAIL],
    "connectivity-sweep": ["n", "alpha", *_ESTIMATE_STATS, "m", "p", "q_exact", "pair_bound", *_TAIL],
    "degree-dist": ["n", "m", "p", "trials", "tv_exact_mixture", "tv_binomial_approx", "master_seed"],
    "degree-scaling": [
        "n", "m", "alpha", "delta", "c", "p", "trials",
        "ratio_mean", "ratio_min", "ratio_q25", "ratio_median", "ratio_q75", "ratio_max",
        "a_lower", "a_upper", "exceed_lower_freq", "exceed_upper_freq",
        "chernoff_lower", "chernoff_upper", "master_seed",
    ],
}


class OutputError(Exception):
    """A report failed a check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def spec_sha256(spec: dict) -> str:
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode())


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def check_reports(workload: str, spec: dict, csv_bytes: bytes, json_bytes: bytes, golden: dict) -> None:
    """Raise OutputError unless the two reports are correct for this spec."""
    expected = golden.get(workload, {}).get(str(spec["master_seed"]))
    if expected is not None:
        _require(sha256(csv_bytes) == expected["csv"], "CSV differs from its golden hash")
        _require(sha256(json_bytes) == expected["json"], "JSON differs from its golden hash")
    check_structure(spec, csv_bytes, json_bytes)


def check_structure(spec: dict, csv_bytes: bytes, json_bytes: bytes) -> None:
    kind = spec["kind"]
    columns = COLUMNS[kind]
    rows_expected = len(grid_labels(spec))
    digest = spec_sha256(spec)
    try:
        text = csv_bytes.decode("ascii")
        payload = json.loads(json_bytes)
    except (UnicodeDecodeError, ValueError) as exc:
        raise OutputError(f"unreadable report: {exc}") from None

    lines = text.splitlines()
    _require(len(lines) == 3 + rows_expected, f"CSV has {len(lines) - 3} rows, want {rows_expected}")
    _require(lines[0].startswith("# riglab "), "CSV lacks the version line")
    _require(
        lines[1] == f"# kind={kind} master_seed={spec['master_seed']} spec_sha256={digest}",
        "CSV provenance line does not match the spec",
    )
    table = list(csv.reader(io.StringIO("\n".join(lines[2:]))))
    _require(table[0] == columns, f"CSV columns {table[0]} differ from {columns}")

    _require(payload.get("kind") == kind, "JSON kind differs from the spec")
    _require(payload.get("spec") == spec, "JSON spec echo differs from the spec")
    _require(payload.get("spec_sha256") == digest, "JSON spec hash differs")
    _require(payload.get("master_seed") == spec["master_seed"], "JSON master_seed differs")
    records = payload.get("records")
    _require(isinstance(records, list) and len(records) == rows_expected, "JSON record count is wrong")

    for row, record in zip(table[1:], records):
        _require(len(row) == len(columns), "CSV row has the wrong width")
        for name, cell in zip(columns, row):
            _require(name in record, f"JSON record lacks {name}")
            _require(float(cell) == record[name], f"{name}: CSV {cell} != JSON {record[name]!r}")
        _require(record["trials"] == spec["trials"], "record trial count differs from the spec")
        _require(record["master_seed"] == spec["master_seed"], "record master_seed differs")
        _check_record(kind, spec, record)


def _check_record(kind: str, spec: dict, record: dict) -> None:
    trials = spec["trials"]
    if kind in ("edge-prob", "connectivity-sweep"):
        _require(0.0 <= record["ci_low"] <= record["estimate"] <= record["ci_high"] <= 1.0,
                 "estimate lies outside its interval")
        _require(math.isclose(record["estimate"] * trials, round(record["estimate"] * trials)),
                 "estimate is not a count over the trials")
    if kind == "edge-prob":
        q = 1.0 - (1.0 - record["p"] ** 2) ** record["m"]
        _require(math.isclose(record["q_exact"], q, rel_tol=1e-9), "q_exact differs from 1-(1-p^2)^m")
        tolerance = 6.0 * math.sqrt(q * (1.0 - q) / trials) + 1.0 / trials
        _require(abs(record["estimate"] - q) <= tolerance, "estimate is more than 6 sigma from q_exact")
    elif kind == "degree-dist":
        pmf = record.get("empirical_pmf")
        _require(isinstance(pmf, list) and len(pmf) == record["n"], "empirical pmf has the wrong length")
        _require(all(x >= 0.0 for x in pmf) and math.isclose(sum(pmf), 1.0, abs_tol=1e-9),
                 "empirical pmf is not a distribution")
        for name in ("tv_exact_mixture", "tv_binomial_approx"):
            _require(0.0 <= record[name] <= 1.0, f"{name} outside [0, 1]")
    elif kind == "degree-scaling":
        ordered = [record[k] for k in ("ratio_min", "ratio_q25", "ratio_median", "ratio_q75", "ratio_max")]
        _require(ordered == sorted(ordered), "ratio quantiles are out of order")
        _require(record["ratio_min"] <= record["ratio_mean"] <= record["ratio_max"], "ratio mean out of range")
        _require(0.0 < record["a_lower"] < 1.0 < record["a_upper"], "envelope roots do not bracket 1")
        for name in ("exceed_lower_freq", "exceed_upper_freq"):
            _require(0.0 <= record[name] <= 1.0, f"{name} outside [0, 1]")
