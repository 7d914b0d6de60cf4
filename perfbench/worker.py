"""One benchmark run of one workload, in a fresh interpreter started by run.py.

The first statement that matters is ``import riglab.cli``: the time from
``--t0`` (taken by the parent just before it started this process) until
that import returns is the set-up time.  The workload's experiment is then
run through ``riglab.cli.main`` again and again until ``--seconds`` have
passed.  Every call's CSV and JSON are checked, and its times are also
taken in reference seconds (refclock.py).  With ``--trace 1`` half the
time is spent untraced and half traced, so that the trace overhead is
known.  The result is printed as one JSON line.
"""

import sys
import time

import riglab.cli

_IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import refclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class Workload:
    """Runs and checks one workload's experiment through the CLI."""

    def __init__(self, name: str, seed: int, work_dir: str) -> None:
        self.name = name
        self.command, self.spec = workloads.spec_for(name, seed)
        self.trials = workloads.total_trials(self.spec)
        self.golden = checks.load_golden()
        self.spec_path = os.path.join(work_dir, "spec.json")
        self.out_prefix = os.path.join(work_dir, name)
        with open(self.spec_path, "w") as fh:
            json.dump(self.spec, fh)
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.experiment_s = 0.0

    def _timed_run_experiment(self, func):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.experiment_s = time.perf_counter() - start

        return timed

    def call(self):
        """One experiment call; returns its wall time, or None if it failed."""
        self.attempted += 1
        argv = [self.command, "--spec", self.spec_path, "--out", self.out_prefix]
        try:
            start = time.perf_counter()
            code = riglab.cli.main(argv)
            wall = time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"riglab exited with code {code}")
            with open(self.out_prefix + ".csv", "rb") as fh:
                csv_bytes = fh.read()
            with open(self.out_prefix + ".json", "rb") as fh:
                json_bytes = fh.read()
            if self.reference is None:
                checks.check_reports(self.name, self.spec, csv_bytes, json_bytes, self.golden)
                self.reference = (csv_bytes, json_bytes)
            elif (csv_bytes, json_bytes) != self.reference:
                raise checks.OutputError("reports differ from the first call's reports")
        except Exception as exc:
            traceback.print_exc()
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        return wall

    def measure(self, seconds: float, min_calls: int, after_call=None) -> dict:
        """Call until `seconds` have passed and at least `min_calls` succeeded.

        Calls are separated by calibrations, so that each call's wall time
        and run_experiment time are also returned in reference seconds.
        """
        out = {"raw_wall_s": [], "calib_s": [], "wall_s": [], "experiment_s": []}
        start = time.perf_counter()
        before = refclock.calibrate()
        while len(out["wall_s"]) < min_calls or time.perf_counter() - start < seconds:
            wall = self.call()
            after = refclock.calibrate()
            if wall is not None:
                scale = refclock.factor(before, after)
                out["raw_wall_s"].append(wall)
                out["calib_s"].append((before + after) / 2)
                out["wall_s"].append(wall * scale)
                out["experiment_s"].append(self.experiment_s * scale)
                if after_call is not None:
                    after_call(scale)
            before = after
            if self.failed > min_calls:
                break
        return out

    def run_untraced(self, seconds: float) -> dict:
        original = riglab.cli.run_experiment
        riglab.cli.run_experiment = self._timed_run_experiment(original)
        try:
            self.call()
            return self.measure(seconds, 3)
        finally:
            riglab.cli.run_experiment = original

    def run_traced(self, seconds: float) -> dict:
        self.call()
        untraced = self.measure(seconds / 2, 2)
        per_call, by_point = [], {}
        with spans.Tracer() as tracer:

            def reduce_call(scale):
                reduced = spans.reduce_spans(tracer.spans, scale)
                per_call.append(spans.layer_metrics(reduced, tracer.counts))
                by_point.update(reduced["self_s_by_point"])
                tracer.reset()

            traced = self.measure(seconds / 2, 2, reduce_call)
        return {"untraced": untraced, "traced": traced, "layers": per_call, "self_s_by_point": by_point}


def layer_summary(per_call: list[dict]) -> tuple[dict, list[str]]:
    """Median self times and exact counts over the traced calls.

    Counts must repeat exactly from call to call; any that do not are
    returned as errors.
    """
    out, errors = {}, []
    for name in per_call[0]:
        values = [layers[name] for layers in per_call]
        if name.endswith(".self_s"):
            out[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                errors.append(f"{name} differs between traced calls: {sorted(set(values))}")
            out[name] = values[0]
    return out, errors


def peak_rss_mib() -> float:
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "riglab": riglab.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--work-dir")
    args = parser.parse_args()
    out = {"setup_s": _IMPORTED - args.t0}
    if not args.setup_only:
        with tempfile.TemporaryDirectory(dir=args.work_dir) as tmp:
            workload = Workload(args.workload, args.seed, tmp)
            if args.trace:
                traced = workload.run_traced(args.seconds)
                if traced["layers"]:
                    out["layers"], errors = layer_summary(traced.pop("layers"))
                    workload.errors += errors
                out.update(traced)
            else:
                out["untraced"] = workload.run_untraced(args.seconds)
        out.update(
            trials=workload.trials,
            attempted=workload.attempted,
            failed=workload.failed,
            errors=workload.errors,
            peak_rss_mib=peak_rss_mib(),
            versions=versions(),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
