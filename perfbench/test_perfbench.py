"""Self-tests for the benchmark's own helpers.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_a_synthetic_nested_call():
    # main [0, 10] -> run [1, 9] -> two sample calls [2, 4] and [5, 8]; render [9, 9.5]
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 9.0, 9.0, 9.5, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    sample = tracer.wrap(lambda: None, "sample")
    render = tracer.wrap(lambda: "ab", "render")

    def run():
        sample()
        sample()

    run = tracer.wrap(run, "run")

    def main():
        run()
        render()

    tracer.wrap(main, "main")()
    reduced = spans.reduce_spans(tracer.spans)
    assert reduced["calls"] == {"main": 1, "run": 1, "sample": 2, "render": 1}
    assert reduced["self_s"] == pytest.approx({"main": 1.5, "run": 3.0, "sample": 5.0, "render": 0.5})
    assert sum(reduced["self_s"].values()) == pytest.approx(10.0)


def _reports(workload: str, seed: int, tmp_path) -> tuple[dict, bytes, bytes]:
    import riglab.cli

    command, spec = workloads.spec_for(workload, seed)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    prefix = str(tmp_path / "out")
    assert riglab.cli.main([command, "--spec", str(spec_path), "--out", prefix]) == 0
    with open(prefix + ".csv", "rb") as fh, open(prefix + ".json", "rb") as gh:
        return spec, fh.read(), gh.read()


@pytest.mark.parametrize("target", ["csv", "json"])
def test_output_check_rejects_one_flipped_byte(tmp_path, target):
    golden = checks.load_golden()
    spec, csv_bytes, json_bytes = _reports("degree-scaling", 0, tmp_path)
    checks.check_reports("degree-scaling", spec, csv_bytes, json_bytes, golden)

    data = bytearray(csv_bytes if target == "csv" else json_bytes)
    position = len(data) // 2
    data[position] ^= 0x01
    flipped = (bytes(data), json_bytes) if target == "csv" else (csv_bytes, bytes(data))
    with pytest.raises(checks.OutputError):
        checks.check_reports("degree-scaling", spec, *flipped, golden)


def test_wrapped_sample_assignment_counted_through_montecarlo_copy():
    import riglab.model
    import riglab.montecarlo as mc

    original = riglab.model.sample_assignment
    spec = mc.ExperimentSpec(kind="edge-prob", trials=7, master_seed=3, points=((5, 0.2), (2, 0.5)))
    with spans.Tracer() as tracer:
        assert mc.sample_assignment is not original
        mc.run_experiment(spec)
    assert mc.sample_assignment is original and riglab.model.sample_assignment is original
    reduced = spans.reduce_spans(tracer.spans)
    assert reduced["calls"]["model.sample_assignment"] == 14
    # two vertex streams per two-vertex assignment
    assert reduced["calls"]["model.vertex_substream"] == 28
    assert tracer.counts["model.sample_assignment.uniforms"] == 7 * (2 * 5 + 2 * 2)


def test_benchmark_json_lists_the_layer_metrics():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == [(name, unit, better) for name, unit, better, _ in spans.LAYER_METRICS]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
