"""riglab benchmark: four CLI experiment workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload edge-prob --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all

The program is used from source (``src/`` on PYTHONPATH); nothing is built
or installed.  Each run starts a fresh single-threaded interpreter for the
workload (worker.py), plus, untraced, a few more that only import
``riglab.cli``, so that ``setup_s`` is the median of several real import
costs.  Every experiment call's reports are checked (checks.py).

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
wall time of one ``riglab.cli.main`` experiment call, trials per second
inside ``run_experiment``, set-up time and peak resident memory.  Times
are medians in reference seconds (refclock.py), which remove most of the
host's changes of speed.  With ``--trace 1`` the line carries the per-layer
metrics of spans.LAYER_METRICS.  The error rate is ``failed / attempted``
on that line.  A fuller record is written to ``.perfbench_work/``.  It is
stamped with core count, versions, git commit and seed, and holds every
sample, raw wall times included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refclock  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, grid_labels, spec_for  # noqa: E402

WORK_DIR = ".perfbench_work"
SETUP_PROBES = 4
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "trials_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}
LAYER_UNITS = {name: unit for name, unit, _better, _moves in LAYER_METRICS}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(root: str, extra: list[str], deadline: float) -> dict:
    """Start worker.py, wait for it, and return its JSON result line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    # time.monotonic is CLOCK_MONOTONIC, which the worker reads on the same clock
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--t0", repr(time.monotonic()), *extra]
    try:
        proc = subprocess.run(
            argv, cwd=root, env=child_env(root), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError("worker ran past the deadline and was stopped") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit(root: str) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work_dir = os.path.join(root, WORK_DIR)
    # set-up probes run before and after the workload, so that their median
    # spans the run rather than one moment of the host
    probes = 0 if trace else SETUP_PROBES
    setup = [run_worker(root, ["--setup-only"], deadline)["setup_s"] for _ in range(probes // 2)]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work-dir", work_dir]
    result = run_worker(root, args, deadline)
    setup.append(result["setup_s"])
    setup += [run_worker(root, ["--setup-only"], deadline)["setup_s"] for _ in range(probes - probes // 2)]

    if trace:
        if "layers" not in result:
            raise BenchmarkError("no traced experiment call succeeded")
        untraced = result["untraced"]["wall_s"]
        traced = result["traced"]["wall_s"]
        metrics = dict(result["layers"])
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        samples = {"untraced_wall_s": untraced, "traced_wall_s": traced,
                   "self_s_by_point": result["self_s_by_point"]}
    else:
        runs = result["untraced"]
        if not runs["wall_s"]:
            raise BenchmarkError("no experiment call succeeded")
        wall = runs["wall_s"]
        rates = [result["trials"] / t for t in runs["experiment_s"]]
        setup_scale = refclock.REFERENCE_S / statistics.median(runs["calib_s"])
        metrics = {
            "wall_s": statistics.median(wall),
            "trials_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup) * setup_scale,
            "peak_rss_mib": result["peak_rss_mib"],
        }
        samples = {"wall_s": wall, "trials_per_s": rates, "raw_setup_s": setup,
                   "raw_wall_s": runs["raw_wall_s"], "calib_s": runs["calib_s"]}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "stamp": {
            "cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            **result["versions"],
            "git_commit": git_commit(root),
        },
        "correct": result["failed"] == 0 and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "metrics": metrics,
        "samples": samples,
    }


def report_lines(record: dict) -> list[str]:
    units = LAYER_UNITS if record["trace"] else END_TO_END_UNITS
    name = record["workload"]
    lines = [f"# {name} stamp {json.dumps(record['stamp'], sort_keys=True)} seed={record['seed']}"]
    for metric, value in record["metrics"].items():
        count = len(record["samples"].get(metric, record["samples"].get("raw_" + metric, ())))
        note = f"  (median of {count})" if count > 1 else ""
        lines.append(f"{name}  {metric}  {value:.6g} {units[metric]}{note}")
    raw = record["samples"].get("raw_wall_s")
    if raw:
        lines.append(f"{name}  (raw wall time, not scaled: median {statistics.median(raw):.6g} s)")
    if record["trace"]:
        labels = grid_labels(spec_for(name, record["seed"])[1])
        for point, layers in sorted(record["samples"]["self_s_by_point"].items(), key=lambda kv: int(kv[0])):
            total = sum(layers.values())
            top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
            label = labels[int(point)] if int(point) >= 0 else "run level"
            shares = ", ".join(f"{layer} {own / total:.0%}" for layer, own in top)
            lines.append(f"{name}  point {label}: {total:.4g} s self time; {shares}")
    attempted, failed = record["attempted"], record["failed"]
    lines.append(f"{name}  error_rate  {failed / attempted:.6g}  ({failed} of {attempted} calls failed)")
    lines.extend(f"{name}  error: {error}" for error in record["errors"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "riglab", "cli.py")):
        print("error: run from the riglab repository root (src/riglab not found)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for workload in selected:
            record = run_workload(root, workload, args.seed, args.seconds, args.trace)
            stem = f"{workload}-seed{args.seed}-trace{args.trace}.json"
            with open(os.path.join(root, WORK_DIR, stem), "w") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
            print("\n".join(report_lines(record)), flush=True)
            records.append(record)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": units[name]}
        for r in records
        for name, value in r["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
