import contextlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import riglab.cli
import riglab.model
import riglab.montecarlo
from riglab import (
    ModelParams,
    parse_assignment,
    parse_edgelist,
    project,
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
    assert text.startswith(f"# rig n=4 m=3 p=0.6 seed=5\n# riglab {riglab.__version__}\n")
    assert text.count(":") == 4
    graph, params, seed = parse_edgelist((tmp_path / "g.txt").read_text())
    assignment, assignment_seed = parse_assignment(text)
    assert graph == project(assignment)
    assert params == assignment.params == ModelParams(n=4, m=3, p=0.6)
    assert seed == assignment_seed == 5


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
        (["probe", "a-root", "--c", "1", "--branch", "upper"], "2.718281828459045"),
        (["probe", "tail-bound", "--trials", "10", "--p", "0.5",
          "--cutoff", "10", "--direction", "upper"], "0.14493472568610996"),
        # mean / cutoff underflows to 0, yet the bound is 0.0, not a math domain error
        (["probe", "tail-bound", "--trials", "10", "--p", "1e-300",
          "--cutoff", "1e300", "--direction", "upper"], "0.0"),
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


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["probe", "q-exact", "--m", str(10**400), "--p", "0.5"],
         "m must be at most 1.7976931348623157e+308"),
        (["probe", "q-approx", "--m", str(10**400), "--p", "0.5"],
         "m must be at most 1.7976931348623157e+308"),
        (["probe", "zeta", "--m", str(10**400), "--p", "0.5"],
         "m must be at most 1.7976931348623157e+308"),
        (["probe", "tail-bound", "--trials", str(10**400), "--p", "0.5",
          "--cutoff", "1", "--direction", "lower"],
         "trials must be at most 1.7976931348623157e+308"),
        (["probe", "tail-bound", "--trials", "10", "--p", "0.5", "--cutoff", "4",
          "--direction", "upper"],
         "upper tail bound requires cutoff >= trials * success_prob, got cutoff=4.0 < 5.0"),
        (["probe", "a-root", "--c", "1", "--branch", "lower"], "lower branch requires c < 1"),
    ],
    ids=["q-exact", "q-approx", "zeta", "tail-bound", "tail-bound-window", "a-root-lower"],
)
def test_probe_count_past_float_range_exit_2(argv, message, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: {message}")


# ---------------------------------------------------------------- experiments

def _write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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


def _key_path(value):
    """A row's id: the spec key path at the start of its message.

    A row whose message does not start with its key path names it in its own id.
    """
    return re.match(r"[\w.\[\]]+", value)[0] if isinstance(value, str) else None


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        ({"kind": "edge-prob", "points": [{"m": 2, "p": None}]},
         "points[0].p must be a finite real number, got None"),
        ({"kind": "edge-prob", "points": [{"m": 2, "p": "0.5"}]},
         "points[0].p must be a finite real number, got '0.5'"),
        ({"kind": "edge-prob", "points": [{"m": 2, "p": 0.5}, {"m": 2, "p": 2}]},
         "points[1].p must lie in [0, 1], got 2.0"),
        ({"kind": "degree-dist", "points": [{"n": 4, "m": "2", "p": 0.5}]},
         "points[0].m must be an integer, got '2'"),
        ({"kind": "connectivity-sweep", "n": [4], "alpha": [None]},
         "alpha[0] must be a finite real number, got None"),
        ({"kind": "connectivity-sweep", "n": [4, 2.5], "alpha": [1.0]},
         "n[1] must be an integer, got 2.5"),
        ({"kind": "connectivity-sweep", "n": [10], "alpha": [1.0],
          "m_rule": {"kind": "power", "beta": 1e300}},
         "m_rule.beta=1e+300 makes m = inf > 576460752303423487 at n=10"),
        ({"kind": "connectivity-sweep", "n": [10], "alpha": [1.0],
          "m_rule": {"kind": "fixed", "m": "3"}}, "m_rule.m must be an integer, got '3'"),
        ({"kind": "degree-scaling", "n": [10], "alpha": [0.5], "c": "x"},
         "c must be a finite real number, got 'x'"),
        pytest.param({"kind": "degree-scaling", "n": [10], "alpha": [0.5], "c": None},
                     "degree-scaling requires the rate constant c", id="fields9-c"),
        ({"kind": "edge-prob", "points": [{"m": 2, "p": 0.5}], "trials": 2**64 + 1},
         "trials must be at most 2**64, because trial seeds are keyed by a 64-bit trial index"),
        # sizes past the 2**59 - 1 bound on n and m, beyond any array riglab could allocate
        ({"kind": "edge-prob", "points": [{"m": 10**30, "p": 0.5}]},
         "points[0].m must be at most 576460752303423487"),
        ({"kind": "degree-dist", "points": [{"n": 4, "m": 10**30, "p": 0.5}]},
         "points[0].m must be at most 576460752303423487"),
        ({"kind": "degree-dist", "points": [{"n": 2**63 - 1, "m": 2, "p": 0.5}]},
         "points[0].n must be at most 576460752303423487"),
        ({"kind": "connectivity-sweep", "n": [10**30], "alpha": [1.0]},
         "n[0] must be at most 576460752303423487"),
        ({"kind": "degree-scaling", "n": [10**30], "alpha": [0.5], "c": 0.5},
         "n[0] must be at most 576460752303423487"),
        ({"kind": "connectivity-sweep", "n": [4], "alpha": [1.0],
          "m_rule": {"kind": "power", "beta": 40}},
         "m_rule.beta=40.0 makes m = 1208925819614629174706176 > 576460752303423487 at n=4"),
        # p(alpha) is 10**199.5 > 1, then 10**499.5, past the float range, and an
        # alpha outside degree scaling's (0, 1)
        ({"kind": "connectivity-sweep", "n": [10], "alpha": [-400]},
         "alpha[0]=-400.0 gives p=3.1622776601684643e+199 > 1 at n=10, m=10"),
        ({"kind": "connectivity-sweep", "n": [10], "alpha": [-1000]},
         "alpha[0]: p(alpha) is outside the float range at alpha=-1000.0"),
        pytest.param({"kind": "degree-scaling", "n": [10], "alpha": [1.5], "c": 0.5},
                     "degree scaling requires alpha in (0, 1) so that delta = 1 - alpha > 0, "
                     "got alpha[0]=1.5", id="fields19-alpha[0]"),
        pytest.param({"kind": "connectivity-sweep", "n": [4], "alpha": [1.0],
                      "m_rule": {"kind": "power"}},
                     "m_rule must be an object with exactly keys ['beta', 'kind']",
                     id="power-without-beta"),
        pytest.param({"kind": "connectivity-sweep", "n": [4], "alpha": [1.0],
                      "m_rule": {"kind": "fixed", "m": 0}},
                     "m_rule.m must be an integer >= 1", id="fixed-m-zero"),
        # keys the kind does not read would be ignored and left out of the spec hash
        pytest.param({"kind": "edge-prob", "points": [{"m": 2, "p": 0.5}], "alpha": [3],
                      "c": "junk", "m_rule": {"kind": "bogus"}},
                     "unknown spec keys for kind 'edge-prob': ['alpha', 'c', 'm_rule']",
                     id="keys-of-another-kind"),
        pytest.param({"kind": "edge-prob", "points": [{"m": 2, "p": 0.5}], "label": "x"},
                     "unknown spec keys for kind 'edge-prob': ['label']", id="unknown-key"),
        pytest.param({"kind": "edge-prob", "points": [{"m": 2, "p": 0.5, "n": 4}]},
                     "points[0] must be an object with exactly keys ['m', 'p']",
                     id="extra-point-key"),
        pytest.param({"kind": "percolation"}, "unknown experiment kind 'percolation'",
                     id="unknown-kind"),
        pytest.param({"kind": "edge-prob", "points": []}, "empty parameter grid: points is empty",
                     id="empty-grid"),
        pytest.param({"kind": "connectivity-sweep", "n": [4], "alpha": [1.0],
                      "m_rule": {"kind": "cubed"}},
                     "m_rule kind must be one of ['equal-n', 'power', 'fixed'], "
                     "got {'kind': 'cubed'}", id="unknown-m-rule-kind"),
        pytest.param({"kind": "degree-scaling", "n": [10], "alpha": [0.5], "c": 0},
                     "c must be > 0, got 0.0", id="c-zero"),
    ],
    ids=_key_path,
)
def test_malformed_spec_value_exit_2(fields, message, tmp_path, capsys):
    payload = {"trials": 3, "master_seed": 0, **fields}
    spec_path = _write_spec(tmp_path, payload)
    out = tmp_path / "x"
    code, _, err = run_cli(
        [_SUBCOMMAND.get(payload["kind"], "sweep"), "--spec", spec_path, "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert err.startswith(f"error: {message}")
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


def test_trial_error_on_a_helper_thread_exits_2(tmp_path, monkeypatch, capsys):
    # every point runs on three helper threads, and its trials fail there
    def fails_on_helpers(params, seed):
        assert threading.current_thread() is not threading.main_thread()
        raise ValueError(f"no degree on a helper thread (n={params.n})")

    monkeypatch.setattr(riglab.montecarlo, "sample_degree", fails_on_helpers)
    monkeypatch.setattr(riglab.montecarlo, "_THREADED_WORDS", 0)
    monkeypatch.setattr(riglab.montecarlo, "_usable_cores", lambda: 3)
    payload = {"kind": "degree-scaling", "trials": 8 * 64, "master_seed": 2,
               "n": [40], "alpha": [0.5], "c": 0.5}
    with pytest.raises(ValueError, match=r"^no degree on a helper thread \(n=40\)$"):
        riglab.montecarlo.run_experiment(riglab.montecarlo.ExperimentSpec.from_dict(payload))
    spec_path = _write_spec(tmp_path, payload)
    code, out, err = run_cli(
        ["degree-scaling", "--spec", spec_path, "--out", str(tmp_path / "x")], capsys
    )
    assert (code, out, err) == (2, "", "error: no degree on a helper thread (n=40)\n")
    assert not list(tmp_path.glob("x.*"))


def test_interrupt_exits_130_without_a_report(tmp_path, monkeypatch, capsys):
    def interrupted(spec):
        raise KeyboardInterrupt

    monkeypatch.setattr(riglab.cli, "run_experiment", interrupted)
    spec_path = _write_spec(tmp_path, {"kind": "edge-prob", "trials": 5, "master_seed": 0,
                                       "points": [{"m": 2, "p": 0.5}]})
    code, out, err = run_cli(["sweep", "--spec", spec_path, "--out", str(tmp_path / "x")], capsys)
    assert (code, out) == (130, "")
    assert err.startswith("interrupted") and err.count("\n") == 1
    assert not list(tmp_path.glob("x.*"))


def test_sigint_on_the_threaded_runner_exits_130_without_a_report(tmp_path):
    # m = 2**59 - 1 makes every degree trial draw until it is stopped, on
    # three helper threads whatever the host's core count
    spec_path = _write_spec(tmp_path, {"kind": "degree-dist", "trials": 64, "master_seed": 0,
                                       "points": [{"n": 4, "m": 2**59 - 1, "p": 0.5}]})
    script = (
        "import sys, riglab.cli, riglab.montecarlo\n"
        "riglab.montecarlo._usable_cores = lambda: 3\n"
        "print('ready', file=sys.stderr, flush=True)\n"
        "sys.exit(riglab.cli.main(sys.argv[1:]))\n"
    )
    argv = ["degree-dist", "--spec", spec_path, "--out", str(tmp_path / "x")]
    with subprocess.Popen([sys.executable, "-c", script, *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            assert proc.stderr.readline() == "ready\n"
            time.sleep(0.5)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=10)
        finally:
            proc.kill()
    assert (proc.returncode, out) == (130, "")
    assert err.endswith("interrupted\n")
    assert not list(tmp_path.glob("x.*"))


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


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--spec", "spec.json", "--out", "plainfile/x"],
        ["gen", "--n", "4", "--m", "3", "--p", "0.5", "--out", "plainfile/g.txt"],
        ["gen", "--n", "4", "--m", "3", "--p", "0.5", "--assignment-out", "plainfile/a.txt"],
    ],
    ids=["sweep-out", "gen-out", "gen-assignment-out"],
)
def test_unwritable_output_exit_3(argv, tmp_path, monkeypatch, capsys):
    # a path under a regular file cannot be written by any user, root included
    monkeypatch.chdir(tmp_path)
    _write_spec(tmp_path, {"kind": "edge-prob", "trials": 5, "master_seed": 0,
                           "points": [{"m": 2, "p": 0.5}]})
    (tmp_path / "plainfile").write_text("")
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert err.startswith("i/o error: [Errno 20] Not a directory")


_SWEEP_X = ["sweep", "--spec", "spec.json", "--out", "x"]


@pytest.mark.parametrize(
    ("argv", "directory", "older"),
    [
        (_SWEEP_X, "x.json", {}),
        (_SWEEP_X, "x.json", {"x.csv": b"# an older report\n"}),
        (_SWEEP_X + ["--svg"], "x.svg", {}),
        (["gen", "--n", "4", "--m", "3", "--p", "0.5", "--out", "g.txt",
          "--assignment-out", "a.txt"], "a.txt", {}),
    ],
    ids=["sweep-json", "sweep-json-older-csv", "sweep-svg", "gen-assignment-out"],
)
def test_directory_output_exit_3_writes_nothing(argv, directory, older, tmp_path, monkeypatch,
                                                capsys):
    # a target that is a directory is refused before the first write, with
    # the error open() would give, so no other target is created or changed
    monkeypatch.chdir(tmp_path)
    _write_spec(tmp_path, {"kind": "edge-prob", "trials": 5, "master_seed": 0,
                           "points": [{"m": 2, "p": 0.5}]})
    (tmp_path / directory).mkdir()
    for name, data in older.items():
        (tmp_path / name).write_bytes(data)
    before = sorted(path.name for path in tmp_path.iterdir())
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (3, "", f"i/o error: [Errno 21] Is a directory: '{directory}'\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == before
    for name, data in older.items():
        assert (tmp_path / name).read_bytes() == data


# ----------------------------------------------------------------- subprocess

def test_module_invocation(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "riglab", "probe", "q-exact", "--m", "2", "--p", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0.4375\n"
    # a failing run exits with main's status, so a shell sees the failure
    for argv, message in [
        (["sweep", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "x"),
          "--seed", "5"], "unrecognized arguments: --seed 5"),
        (["probe", "q-exact", "--m", str(10**400), "--p", "0.5"], "error: m must be at most"),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "riglab", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 2, argv
        assert message in proc.stderr


def test_module_help():
    proc = subprocess.run(
        [sys.executable, "-m", "riglab", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout
    assert "probe" in proc.stdout
