import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import riglab.model
from riglab import (
    ModelParams,
    parse_edgelist,
    project,
    q_exact,
    sample_assignment,
)
from riglab.cli import ENV_SEED, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)


# ------------------------------------------------------------------------ gen

def test_gen_edgelist_round_trip(tmp_path, capsys):
    out = tmp_path / "graph.txt"
    code, stdout, _ = run_cli(
        ["gen", "--n", "6", "--m", "3", "--p", "0.4", "--seed", "11", "--out", str(out)],
        capsys,
    )
    assert code == 0
    graph, params, seed = parse_edgelist(out.read_text())
    assert params == ModelParams(n=6, m=3, p=0.4)
    assert seed == 11
    assert graph == project(sample_assignment(params, 11))


def test_gen_stdout_is_deterministic(capsys):
    argv = ["gen", "--n", "5", "--m", "4", "--p", "0.3", "--seed", "2"]
    code1, first, _ = run_cli(argv, capsys)
    code2, second, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert first == second
    assert first.startswith("# rig n=5 m=4 p=0.3 seed=2\n")


def test_gen_extremes(capsys):
    code, stdout, _ = run_cli(
        ["gen", "--n", "4", "--m", "2", "--p", "0", "--seed", "0"], capsys
    )
    assert code == 0
    graph, params, _ = parse_edgelist(stdout)
    assert not graph.edges
    code, stdout, _ = run_cli(
        ["gen", "--n", "4", "--m", "2", "--p", "1", "--seed", "0"], capsys
    )
    assert code == 0
    graph, _, _ = parse_edgelist(stdout)
    assert len(graph.edges) == 6


def test_gen_json_format(capsys):
    code, stdout, _ = run_cli(
        ["gen", "--n", "5", "--m", "3", "--p", "0.5", "--seed", "8", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["format"] == "rig-graph"
    assert payload["n"] == 5 and payload["m"] == 3 and payload["seed"] == 8
    params = ModelParams(n=5, m=3, p=0.5)
    assignment = sample_assignment(params, 8)
    assert payload["sets"] == [list(s) for s in assignment.sets]
    assert payload["edges"] == [list(e) for e in sorted(project(assignment).edges)]


def test_gen_assignment_out(tmp_path, capsys):
    sets_path = tmp_path / "sets.txt"
    code, _, _ = run_cli(
        ["gen", "--n", "4", "--m", "3", "--p", "0.6", "--seed", "5",
         "--out", str(tmp_path / "g.txt"), "--assignment-out", str(sets_path)],
        capsys,
    )
    assert code == 0
    text = sets_path.read_text()
    assert text.startswith("# rig n=4 m=3 p=0.6 seed=5\n")
    assert text.count(":") == 4


def test_gen_invalid_params_exit_2(capsys):
    code, _, err = run_cli(
        ["gen", "--n", "4", "--m", "2", "--p", "1.5", "--seed", "0"], capsys
    )
    assert code == 2
    assert "error:" in err


def test_gen_size_past_bound_exit_2(capsys):
    code, _, err = run_cli(["gen", "--n", "2", "--m", str(10**30), "--p", "0.5"], capsys)
    assert code == 2
    assert err.startswith("error: m must be at most ")


def test_unknown_option_exit_2(capsys):
    code, _, _ = run_cli(["gen", "--vertices", "4"], capsys)
    assert code == 2


# ----------------------------------------------------------------------- seed

def test_seed_env_default(monkeypatch, capsys):
    monkeypatch.setenv(ENV_SEED, "123")
    code, stdout, _ = run_cli(["gen", "--n", "3", "--m", "2", "--p", "0.5"], capsys)
    assert code == 0
    assert "seed=123" in stdout.splitlines()[0]


def test_seed_flag_beats_env(monkeypatch, capsys):
    monkeypatch.setenv(ENV_SEED, "123")
    code, stdout, _ = run_cli(
        ["gen", "--n", "3", "--m", "2", "--p", "0.5", "--seed", "9"], capsys
    )
    assert code == 0
    assert "seed=9" in stdout.splitlines()[0]


def test_seed_env_must_be_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(ENV_SEED, "twelve")
    code, _, err = run_cli(["gen", "--n", "3", "--m", "2", "--p", "0.5"], capsys)
    assert code == 2
    assert ENV_SEED in err
    # an experiment reads the variable only when its spec names no master_seed
    spec = {"kind": "edge-prob", "trials": 5, "points": [{"m": 2, "p": 0.5}]}
    named = _write_spec(tmp_path, {**spec, "master_seed": 3}, "named_spec.json")
    code, _, _ = run_cli(["sweep", "--spec", named, "--out", str(tmp_path / "named")], capsys)
    assert code == 0
    bare = _write_spec(tmp_path, spec, "bare_spec.json")
    code, _, err = run_cli(["sweep", "--spec", bare, "--out", str(tmp_path / "bare")], capsys)
    assert code == 2
    assert ENV_SEED in err
    assert not (tmp_path / "bare.csv").exists()


# ---------------------------------------------------------------------- probe

@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["probe", "q-exact", "--m", "2", "--p", "0.5"], "0.4375"),
        (["probe", "q-approx", "--m", "2", "--p", "0.5"], "0.5"),
        (["probe", "zeta", "--m", "2", "--p", "0.5"], "0.0625"),
        (["probe", "H", "--t", "1"], "0.0"),
        (["probe", "H", "--t", "inf"], "-1.0"),
        (["probe", "threshold-p", "--alpha", "2", "--m", "4", "--n", "10"], "0.05"),
    ],
)
def test_probe_prints_exact_repr(argv, expected, capsys):
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    assert stdout == expected + "\n"


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        # m * n**alpha overflows, and m*(m-1) overflows while p^4 underflows
        (["probe", "threshold-p", "--alpha", "308", "--m", "100", "--n", "10"], 1e-155),
        (["probe", "zeta", "--m", str(10**200), "--p", "1e-100"], 0.5),
    ],
)
def test_probe_past_the_float_range_of_a_factor(argv, expected, capsys):
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    assert float(stdout) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_probe_tail_bound(capsys):
    code, stdout, _ = run_cli(
        ["probe", "tail-bound", "--trials", "10", "--p", "0.5",
         "--cutoff", "10", "--direction", "upper"],
        capsys,
    )
    assert code == 0
    assert float(stdout) == pytest.approx(math.exp(5.0) / 1024.0, rel=1e-12)


def test_probe_tail_bound_window_violation(capsys):
    code, _, err = run_cli(
        ["probe", "tail-bound", "--trials", "10", "--p", "0.5",
         "--cutoff", "4", "--direction", "upper"],
        capsys,
    )
    assert code == 2
    assert "cutoff" in err


@pytest.mark.parametrize(
    ("argv", "name"),
    [
        (["probe", "q-exact", "--m", str(10**400), "--p", "0.5"], "m"),
        (["probe", "q-approx", "--m", str(10**400), "--p", "0.5"], "m"),
        (["probe", "zeta", "--m", str(10**400), "--p", "0.5"], "m"),
        (["probe", "tail-bound", "--trials", str(10**400), "--p", "0.5",
          "--cutoff", "1", "--direction", "lower"], "trials"),
    ],
    ids=["q-exact", "q-approx", "zeta", "tail-bound"],
)
def test_probe_count_past_float_range_exit_2(argv, name, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: {name} must be at most ")


def test_probe_a_root(capsys):
    code, stdout, _ = run_cli(
        ["probe", "a-root", "--c", "1", "--branch", "upper"], capsys
    )
    assert code == 0
    assert float(stdout) == pytest.approx(math.e, abs=1e-9)
    code, _, err = run_cli(
        ["probe", "a-root", "--c", "1", "--branch", "lower"], capsys
    )
    assert code == 2
    assert "lower branch" in err


# ---------------------------------------------------------------- experiments

def _write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_sweep_end_to_end(tmp_path, capsys):
    spec_path = _write_spec(
        tmp_path,
        {"kind": "edge-prob", "trials": 200, "master_seed": 31,
         "points": [{"m": 2, "p": 0.5}, {"m": 4, "p": 0.2}]},
    )
    out = str(tmp_path / "result")
    code, stdout, _ = run_cli(["sweep", "--spec", spec_path, "--out", out], capsys)
    assert code == 0
    assert f"wrote {out}.csv" in stdout
    assert f"wrote {out}.json" in stdout
    csv_first = (tmp_path / "result.csv").read_bytes()
    json_first = (tmp_path / "result.json").read_bytes()
    payload = json.loads(json_first)
    assert payload["kind"] == "edge-prob"
    assert len(payload["records"]) == 2
    estimate = payload["records"][0]["estimate"]
    assert abs(estimate - q_exact(2, 0.5)) < 0.15

    code, _, _ = run_cli(["sweep", "--spec", spec_path, "--out", out], capsys)
    assert code == 0
    assert (tmp_path / "result.csv").read_bytes() == csv_first
    assert (tmp_path / "result.json").read_bytes() == json_first


def test_sweep_svg_chart(tmp_path, capsys):
    spec_path = _write_spec(
        tmp_path,
        {"kind": "connectivity-sweep", "trials": 20, "master_seed": 4,
         "n": [4, 6], "alpha": [1.0, 2.0]},
    )
    out = str(tmp_path / "conn")
    code, stdout, _ = run_cli(
        ["sweep", "--spec", spec_path, "--out", out, "--svg"], capsys
    )
    assert code == 0
    assert f"wrote {out}.svg" in stdout
    svg = (tmp_path / "conn.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg
    # one CI band per n series, each of two alpha points
    assert svg.count("<polygon") == 2


def test_degree_dist_end_to_end(tmp_path, capsys):
    spec_path = _write_spec(
        tmp_path,
        {"kind": "degree-dist", "trials": 50, "master_seed": 6,
         "points": [{"n": 6, "m": 3, "p": 0.3}]},
    )
    out = str(tmp_path / "dist")
    code, stdout, _ = run_cli(["degree-dist", "--spec", spec_path, "--out", out], capsys)
    assert code == 0
    payload = json.loads((tmp_path / "dist.json").read_text())
    (record,) = payload["records"]
    assert len(record["empirical_pmf"]) == 6


def test_degree_dist_svg_draws_every_point(tmp_path, capsys):
    points = [{"n": 6, "m": 3, "p": 0.3}, {"n": 4, "m": 2, "p": 0.5}, {"n": 1, "m": 2, "p": 0.5}]
    spec_path = _write_spec(
        tmp_path, {"kind": "degree-dist", "trials": 20, "master_seed": 6, "points": points}
    )
    out = str(tmp_path / "dist")
    code, _, _ = run_cli(["degree-dist", "--spec", spec_path, "--out", out, "--svg"], capsys)
    assert code == 0
    svg = (tmp_path / "dist.svg").read_text()
    assert svg.count("<polyline") == len(points)
    # a pmf has no interval, so no series draws a band
    assert svg.count("<polygon") == 0
    for point in points:
        assert ">n={n} m={m} p={p}</text>".format(**point) in svg


def test_degree_dist_svg_of_a_single_degree(tmp_path, capsys):
    # at n = 1 the pmf is [1.0], so both axes are widened from zero extent
    spec_path = _write_spec(
        tmp_path,
        {"kind": "degree-dist", "trials": 5, "master_seed": 6,
         "points": [{"n": 1, "m": 2, "p": 0.5}]},
    )
    out = str(tmp_path / "dist")
    code, _, _ = run_cli(["degree-dist", "--spec", spec_path, "--out", out, "--svg"], capsys)
    assert code == 0
    # the one point sits in the middle of the 640 x 400 plot area
    assert '<circle cx="342.00" cy="189.00"' in (tmp_path / "dist.svg").read_text()


def test_degree_scaling_end_to_end(tmp_path, capsys):
    spec_path = _write_spec(
        tmp_path,
        {"kind": "degree-scaling", "trials": 30, "master_seed": 2,
         "n": [30], "alpha": [0.5], "c": 0.5},
    )
    out = str(tmp_path / "scaling")
    code, _, _ = run_cli(["degree-scaling", "--spec", spec_path, "--out", out], capsys)
    assert code == 0
    lines = (tmp_path / "scaling.csv").read_text().splitlines()
    assert lines[2].split(",")[:4] == ["n", "m", "alpha", "delta"]


def test_experiment_default_seed_from_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(ENV_SEED, "77")
    spec = {"kind": "edge-prob", "trials": 10, "points": [{"m": 2, "p": 0.5}]}
    for name, payload in (("seeded", spec), ("named", {**spec, "master_seed": 77})):
        spec_path = _write_spec(tmp_path, payload, f"{name}_spec.json")
        code, _, _ = run_cli(["sweep", "--spec", spec_path, "--out", str(tmp_path / name)], capsys)
        assert code == 0
    payload = json.loads((tmp_path / "seeded.json").read_text())
    assert payload["master_seed"] == 77
    for suffix in (".csv", ".json"):
        seeded = (tmp_path / f"seeded{suffix}").read_bytes()
        assert seeded == (tmp_path / f"named{suffix}").read_bytes()


@pytest.mark.parametrize("command", ["sweep", "degree-dist", "degree-scaling"])
def test_experiment_has_no_seed_option(command, tmp_path, capsys):
    # the spec's master_seed, else $RIG_LAB_SEED, seeds an experiment
    spec_path = _write_spec(
        tmp_path,
        {"kind": "edge-prob", "trials": 5, "master_seed": 1, "points": [{"m": 2, "p": 0.5}]},
    )
    out = str(tmp_path / "x")
    code, _, err = run_cli([command, "--spec", spec_path, "--out", out, "--seed", "5"], capsys)
    assert code == 2
    assert "unrecognized arguments: --seed 5" in err
    assert not (tmp_path / "x.csv").exists()


def test_wrong_kind_for_subcommand(tmp_path, capsys):
    spec_path = _write_spec(
        tmp_path,
        {"kind": "degree-dist", "trials": 5, "master_seed": 0,
         "points": [{"n": 4, "m": 2, "p": 0.5}]},
    )
    code, _, err = run_cli(
        ["sweep", "--spec", spec_path, "--out", str(tmp_path / "x")], capsys
    )
    assert code == 2
    assert "does not belong" in err


def test_unknown_kind_exit_2(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, {"kind": "percolation", "trials": 5, "master_seed": 0})
    code, _, err = run_cli(
        ["sweep", "--spec", spec_path, "--out", str(tmp_path / "x")], capsys
    )
    assert code == 2
    assert "unknown experiment kind" in err


def test_empty_grid_exit_2(tmp_path, capsys):
    spec_path = _write_spec(
        tmp_path, {"kind": "edge-prob", "trials": 5, "master_seed": 0, "points": []}
    )
    code, _, err = run_cli(
        ["sweep", "--spec", spec_path, "--out", str(tmp_path / "x")], capsys
    )
    assert code == 2
    assert "empty parameter grid" in err


@pytest.mark.parametrize(
    "text", ["{not json", "[" * 200_000 + "]" * 200_000], ids=["not-json", "too-deep"]
)
def test_malformed_spec_json_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run_cli(
        ["sweep", "--spec", str(path), "--out", str(tmp_path / "x")], capsys
    )
    assert code == 2
    assert err.startswith("error: ")


_SUBCOMMAND = {
    "edge-prob": "sweep",
    "connectivity-sweep": "sweep",
    "degree-dist": "degree-dist",
    "degree-scaling": "degree-scaling",
}


@pytest.mark.parametrize(
    ("fields", "key_path"),
    [
        ({"kind": "edge-prob", "points": [{"m": 2, "p": None}]}, "points[0].p"),
        ({"kind": "edge-prob", "points": [{"m": 2, "p": "0.5"}]}, "points[0].p"),
        ({"kind": "edge-prob", "points": [{"m": 2, "p": 0.5}, {"m": 2, "p": 2}]}, "points[1].p"),
        ({"kind": "degree-dist", "points": [{"n": 4, "m": "2", "p": 0.5}]}, "points[0].m"),
        ({"kind": "connectivity-sweep", "n": [4], "alpha": [None]}, "alpha[0]"),
        ({"kind": "connectivity-sweep", "n": [4, 2.5], "alpha": [1.0]}, "n[1]"),
        ({"kind": "connectivity-sweep", "n": [10], "alpha": [1.0],
          "m_rule": {"kind": "power", "beta": 1e300}}, "m_rule.beta"),
        ({"kind": "connectivity-sweep", "n": [10], "alpha": [1.0],
          "m_rule": {"kind": "fixed", "m": "3"}}, "m_rule.m"),
        ({"kind": "degree-scaling", "n": [10], "alpha": [0.5], "c": "x"}, "c"),
        ({"kind": "degree-scaling", "n": [10], "alpha": [0.5], "c": None}, "c"),
        ({"kind": "edge-prob", "points": [{"m": 2, "p": 0.5}], "trials": 2**64 + 1}, "trials"),
        # sizes past the 2**59 - 1 bound on n and m, beyond any array riglab could allocate
        ({"kind": "edge-prob", "points": [{"m": 10**30, "p": 0.5}]}, "points[0].m"),
        ({"kind": "degree-dist", "points": [{"n": 4, "m": 10**30, "p": 0.5}]}, "points[0].m"),
        ({"kind": "degree-dist", "points": [{"n": 2**63 - 1, "m": 2, "p": 0.5}]}, "points[0].n"),
        ({"kind": "connectivity-sweep", "n": [10**30], "alpha": [1.0]}, "n[0]"),
        ({"kind": "degree-scaling", "n": [10**30], "alpha": [0.5], "c": 0.5}, "n[0]"),
        ({"kind": "connectivity-sweep", "n": [4], "alpha": [1.0],
          "m_rule": {"kind": "power", "beta": 40}}, "m_rule.beta"),
        # p(alpha) is 10**199.5 > 1, then 10**499.5, past the float range, and an
        # alpha outside degree scaling's (0, 1)
        ({"kind": "connectivity-sweep", "n": [10], "alpha": [-400]}, "alpha[0]"),
        ({"kind": "connectivity-sweep", "n": [10], "alpha": [-1000]}, "alpha[0]"),
        ({"kind": "degree-scaling", "n": [10], "alpha": [1.5], "c": 0.5}, "alpha[0]"),
    ],
)
def test_malformed_spec_value_exit_2(fields, key_path, tmp_path, capsys):
    payload = {"trials": 3, "master_seed": 0, **fields}
    spec_path = _write_spec(tmp_path, payload)
    out = tmp_path / "x"
    code, _, err = run_cli(
        [_SUBCOMMAND[payload["kind"]], "--spec", spec_path, "--out", str(out)], capsys
    )
    assert code == 2
    assert err.startswith("error: ")
    assert key_path in err
    assert not (tmp_path / "x.csv").exists()


def test_out_of_memory_exit_2(tmp_path, capsys):
    # m = 2**59 - 1 passes the size bound, but one vertex's 2**59 - 1 uniforms
    # exceed any address space, so numpy refuses the allocation at once
    payload = {"kind": "edge-prob", "trials": 1, "master_seed": 0,
               "points": [{"m": 2**59 - 1, "p": 0.5}]}
    spec_path = _write_spec(tmp_path, payload)
    code, _, err = run_cli(["sweep", "--spec", spec_path, "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


def test_bad_grid_point_rejected_before_sampling(tmp_path, monkeypatch, capsys):
    # alpha = -3 at n = 4 puts p = 4 on the curve; the first point is valid.
    # Every vertex a connectivity trial samples goes through vertex_substream.
    calls = []
    original = riglab.model.vertex_substream

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(riglab.model, "vertex_substream", counting)
    payload = {"kind": "connectivity-sweep", "trials": 3, "master_seed": 0,
               "n": [4, 10], "alpha": [1.0, -3.0]}
    spec_path = _write_spec(tmp_path, payload)
    code, _, err = run_cli(
        ["sweep", "--spec", spec_path, "--out", str(tmp_path / "x")], capsys
    )
    assert code == 2
    assert "alpha[1]" in err
    assert not list(tmp_path.glob("*.csv"))
    assert calls == []

    # positive control: the same counter sees the sampling of a valid spec
    spec_path = _write_spec(tmp_path, {**payload, "alpha": [1.0]})
    code, _, _ = run_cli(
        ["sweep", "--spec", spec_path, "--out", str(tmp_path / "x")], capsys
    )
    assert code == 0
    assert calls


_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 10**30, -1, 0, 2.5, "0.5"]),
)


@st.composite
def _cli_runs(draw):
    """(subcommand, spec JSON) near the valid set, with sizes kept small.

    Each value is junk one time in ten, one spec in ten lacks a key, and the
    subcommand matches the kind nine times in ten.
    """

    def value(valid):
        return draw(_JUNK) if draw(st.integers(0, 9)) == 0 else draw(valid)

    count = st.integers(min_value=1, max_value=8)
    prob = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0, 1, 1.5, -0.25])
    kind = draw(st.sampled_from(sorted(_SUBCOMMAND)))
    commands = sorted(set(_SUBCOMMAND.values()))
    command = _SUBCOMMAND[kind] if draw(st.integers(0, 9)) else draw(st.sampled_from(commands))
    payload = {"kind": value(st.just(kind)), "trials": value(st.integers(1, 3)),
               "master_seed": value(st.integers(0, 2**70))}
    if kind in ("edge-prob", "degree-dist"):
        keys = ("m", "p") if kind == "edge-prob" else ("n", "m", "p")
        payload["points"] = [
            {key: value(prob if key == "p" else count) for key in keys}
            for _ in range(draw(st.integers(1, 3)))
        ]
    else:
        scaling = kind == "degree-scaling"
        alpha = st.floats(0.01, 0.99) if scaling else st.floats(-60.0, 60.0) | st.integers(-2, 4)
        payload["n"] = [value(count) for _ in range(draw(st.integers(1, 3)))]
        payload["alpha"] = [value(alpha) for _ in range(draw(st.integers(1, 3)))]
        # beta <= 1 keeps m = floor(n ** beta) <= 8
        rule = {"kind": draw(st.sampled_from(["equal-n", "power", "fixed"]))}
        if rule["kind"] == "power":
            rule["beta"] = value(st.floats(0.01, 1.0))
        elif rule["kind"] == "fixed":
            rule["m"] = value(count)
        payload["m_rule"] = value(st.just(rule))
        if scaling:
            payload["c"] = value(st.floats(0.01, 0.99))
    if draw(st.integers(0, 9)) == 0:
        del payload[draw(st.sampled_from(sorted(payload)))]
    return command, payload


# the autouse fixture clears the seed variable once for the whole test, which
# is all this test needs from it
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(run=_cli_runs())
# a p at which scipy's binomial pmf overflowed inside degree_pmf
@example(run=("degree-dist", {"kind": "degree-dist", "trials": 1, "master_seed": 0,
                              "points": [{"n": 1, "m": 2, "p": 1.1125369292536007e-308}]}))
# an n >= 2**63, which overflowed np.bincount's minlength in the degree-dist aggregate
@example(run=("degree-dist", {"kind": "degree-dist", "trials": 1, "master_seed": 0,
                              "points": [{"n": 2**63, "m": 1, "p": 0.0}]}))
def test_any_spec_exits_0_or_2(run):
    command, payload = run
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(payload, fh)
        argv = [command, "--spec", spec_path, "--out", os.path.join(tmp, "x")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 2)


def test_missing_spec_file_exit_3(tmp_path, capsys):
    code, _, err = run_cli(
        ["sweep", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 3
    assert "i/o error:" in err


def test_unwritable_output_exit_3(tmp_path, capsys):
    spec_path = _write_spec(
        tmp_path,
        {"kind": "edge-prob", "trials": 5, "master_seed": 0,
         "points": [{"m": 2, "p": 0.5}]},
    )
    locked = tmp_path / "locked"
    locked.mkdir()
    os.chmod(locked, stat.S_IRUSR | stat.S_IXUSR)
    try:
        (locked / "probe").write_text("")
    except OSError:
        pass
    else:
        os.chmod(locked, stat.S_IRWXU)
        pytest.skip("running with privileges that ignore directory modes")
    try:
        code, _, err = run_cli(
            ["sweep", "--spec", spec_path, "--out", str(locked / "x")], capsys
        )
    finally:
        os.chmod(locked, stat.S_IRWXU)
    assert code == 3
    assert "i/o error:" in err


# ----------------------------------------------------------------- subprocess

def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "riglab", "probe", "q-exact", "--m", "2", "--p", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0.4375\n"


def test_module_help():
    proc = subprocess.run(
        [sys.executable, "-m", "riglab", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout
    assert "probe" in proc.stdout
