"""End-to-end acceptance checks.

Each test covers one numbered release criterion and writes a single
``[criterion N] PASS/FAIL`` line straight to the terminal, bypassing
pytest's capture, so the tee'd run log always carries the scorecard.

The master seed is frozen; every statistical check below was verified
to hold under it, so reruns are exact repeats, not fresh draws.
"""

import json
import math
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from riglab import (
    EXPERIMENT_KINDS,
    ExperimentSpec,
    degree_pmf,
    q_approx,
    q_exact,
    rate_H,
    render_csv,
    render_summary_json,
    run_experiment,
    solve_a,
    tail_bound,
    zeta_bound,
)

from oracles import binom_tail, enum_degree_pmf, envelope_residual

MASTER = 20260822


def _report(capsys, number: int, ok: bool, detail: str) -> None:
    # write around pytest's fd capture so the scorecard shows in the run log
    with capsys.disabled():
        sys.stdout.write(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}\n")
        sys.stdout.flush()


def _valid_queries(max_trials: int, probs):
    """((trials, p, cutoff, direction), bound) for each query on its bound's side of the mean."""
    for trials in range(1, max_trials + 1):
        for p in probs:
            for cutoff in range(1, trials + 1):
                for direction in ("upper", "lower"):
                    try:
                        bound = tail_bound(trials, p, cutoff, direction)
                    except ValueError:
                        continue
                    yield (trials, p, cutoff, direction), bound


def test_edge_probability_oracle(capsys):
    points = [(1, 0.3), (2, 0.5), (50, 0.02), (100, 0.01)]
    worst_dev = 0.0
    worst_time = 0.0
    for m, p in points:
        spec = ExperimentSpec(
            kind="edge-prob", trials=100_000, master_seed=MASTER, points=((m, p),)
        )
        start = time.perf_counter()
        (rec,) = run_experiment(spec).records
        elapsed = time.perf_counter() - start
        exact = q_exact(m, p)
        se = math.sqrt(exact * (1.0 - exact) / rec.trials)
        dev = abs(rec.estimate - exact) / se
        worst_dev = max(worst_dev, dev)
        worst_time = max(worst_time, elapsed)
    ok = worst_dev <= 3.0 and worst_time < 10.0
    _report(
        capsys, 1, ok,
        f"4 points x 1e5 trials, worst deviation {worst_dev:.2f} SE (<= 3), "
        f"slowest point {worst_time:.1f}s (< 10s)",
    )
    assert worst_dev <= 3.0
    assert worst_time < 10.0


def test_remainder_sandwich_on_500_point_grid(capsys):
    p_grid = [float(p) for p in np.geomspace(0.001, 0.999, 25)]
    count = 0
    ok = True
    for m in range(1, 21):
        for p in p_grid:
            lower = q_approx(m, p) - zeta_bound(m, p)
            exact = q_exact(m, p)
            if not (lower <= exact <= q_approx(m, p)):
                ok = False
            count += 1
    _report(capsys, 2, ok, f"exact two-sided inequality on all {count} (m, p) grid points")
    assert ok
    assert count == 500


def test_tail_bound_dominates_exact_tail(capsys):
    probs = (0.1, 0.3, 0.5, 0.7, 0.9)
    start = time.perf_counter()
    checked = 0
    ok = True
    for query, bound in _valid_queries(30, probs):
        if Fraction(bound) < binom_tail(*query):
            ok = False
        checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(
        capsys, 3, ok,
        f"bound >= exact tail at all {checked} valid queries, n <= 30, {elapsed:.1f}s (< 5s)",
    )
    assert ok


def test_rate_function_identities_and_equivalence(capsys):
    identities = rate_H(1.0) == 0.0 and rate_H(float("inf")) == -1.0
    rising = np.linspace(1e-4, 1.0 - 1e-4, 10_000)
    falling = np.geomspace(1.0 + 1e-4, 1e6, 10_000)
    h_rising = np.array([rate_H(float(t)) for t in rising])
    h_falling = np.array([rate_H(float(t)) for t in falling])
    monotone = bool(np.all(np.diff(h_rising) > 0.0) and np.all(np.diff(h_falling) < 0.0))
    worst_rel = 0.0
    for (trials, p, cutoff, _), direct in _valid_queries(30, (0.1, 0.3, 0.5, 0.7, 0.9)):
        mean = trials * p
        via_h = math.exp(mean * rate_H(mean / cutoff))
        worst_rel = max(worst_rel, abs(direct - via_h) / via_h)
    ok = identities and monotone and worst_rel <= 1e-12
    _report(
        capsys, 4, ok,
        f"H(1)=0, H(inf)=-1, monotone on 1e4-point grids, "
        f"bound matches exp(mean*H) to {worst_rel:.1e} relative (<= 1e-12)",
    )
    assert identities
    assert monotone
    assert worst_rel <= 1e-12


def test_envelope_root_solver_residuals(capsys):
    worst_upper = max(
        envelope_residual(solve_a(c, "upper"), c) for c in np.linspace(0.0, 50.0, 2001).tolist()
    )
    worst_lower = max(
        envelope_residual(solve_a(c, "lower"), c) for c in np.linspace(0.0, 0.999, 1000).tolist()
    )
    err_e = abs(solve_a(1.0, "upper") - math.e)
    err_inv_e = abs(solve_a(1.0 - 2.0 / math.e, "lower") - 1.0 / math.e)
    ok = (
        worst_upper <= 1e-12
        and worst_lower <= 1e-12
        and err_e <= 1e-9
        and err_inv_e <= 1e-9
    )
    _report(
        capsys, 5, ok,
        f"residuals <= 1e-12 on both branches (worst {max(worst_upper, worst_lower):.1e}), "
        f"analytic roots off by {max(err_e, err_inv_e):.1e} (<= 1e-9)",
    )
    assert ok


def test_degree_law_oracle(capsys):
    start = time.perf_counter()
    mixture = degree_pmf(4, 2, 0.5, "exact-mixture")
    reference = enum_degree_pmf(4, 2, 0.5)
    enum_err = float(np.max(np.abs(mixture - reference)))
    spec = ExperimentSpec(
        kind="degree-dist", trials=100_000, master_seed=MASTER, points=((4, 2, 0.5),)
    )
    (rec,) = run_experiment(spec).records
    elapsed = time.perf_counter() - start
    ok = enum_err <= 1e-9 and rec.tv_exact_mixture < 0.01 and elapsed < 30.0
    _report(
        capsys, 6, ok,
        f"pmf matches 256-outcome enumeration to {enum_err:.1e} (<= 1e-9), "
        f"1e5-trial TV {rec.tv_exact_mixture:.4f} (< 0.01), {elapsed:.1f}s (< 30s)",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "on the m=n curve at alpha=1 the attachment probability is 1/n, so a "
        "constant fraction ~exp(-1) of vertices carries an empty object set "
        "and sampled graphs are essentially never connected at any size; the "
        "connected fraction stays 0 instead of reaching 0.9"
    ),
)
def test_connectivity_threshold_trend(capsys):
    spec = ExperimentSpec(
        kind="connectivity-sweep", trials=200, master_seed=MASTER,
        n_values=(100, 400, 1600), alphas=(1.0, 3.0),
    )
    start = time.perf_counter()
    result = run_experiment(spec)
    elapsed = time.perf_counter() - start
    frac = {(r.n, r.alpha): r.estimate for r in result.records}
    sparse = [frac[(n, 3.0)] for n in (100, 400, 1600)]
    dense = [frac[(n, 1.0)] for n in (100, 400, 1600)]
    ok = (
        elapsed < 300.0
        and all(b <= a for a, b in zip(sparse, sparse[1:]))
        and sparse[-1] <= 0.1
        and all(b >= a for a, b in zip(dense, dense[1:]))
        and dense[-1] >= 0.9
    )
    _report(
        capsys, 7, ok,
        f"alpha=3 fractions {sparse} (nonincreasing, last <= 0.1); "
        f"alpha=1 fractions {dense} (nondecreasing, last >= 0.9); {elapsed:.0f}s (< 300s)",
    )
    assert elapsed < 300.0
    assert all(b <= a for a, b in zip(sparse, sparse[1:]))
    assert sparse[-1] <= 0.1
    assert all(b >= a for a, b in zip(dense, dense[1:]))
    assert dense[-1] >= 0.9


def test_degree_scaling_envelope(capsys):
    spec = ExperimentSpec(
        kind="degree-scaling", trials=1000, master_seed=MASTER,
        n_values=(10_000,), alphas=(0.5,), c=0.5,
    )
    start = time.perf_counter()
    (rec,) = run_experiment(spec).records
    elapsed = time.perf_counter() - start
    freq = rec.exceed_upper_freq
    se = math.sqrt(freq * (1.0 - freq) / rec.trials)
    budget = 5.0 * math.exp(-0.5 * float(rec.n) ** rec.delta) + 3.0 * se
    ok = (
        rec.a_lower <= rec.ratio_mean <= rec.a_upper
        and freq <= budget
        and elapsed < 300.0
    )
    _report(
        capsys, 8, ok,
        f"mean ratio {rec.ratio_mean:.4f} in [{rec.a_lower:.4f}, {rec.a_upper:.4f}], "
        f"upper exceedance {freq} <= {budget:.2e}, {elapsed:.0f}s (< 300s)",
    )
    assert ok


# 1000 trials of each kind at seed 41.  Both outcomes occur at every
# connectivity point, so trials stop early on some vertices and run the full
# connectivity check on others.
_SCHEDULE_SPECS = {
    "edge-prob": dict(points=((20, 0.2), (40, 0.05))),
    "connectivity-sweep": dict(n_values=(6, 12), alphas=(0.0, 0.5), m_rule=("fixed", 5)),
    "degree-dist": dict(points=((30, 20, 0.1), (12, 6, 0.3))),
    "degree-scaling": dict(n_values=(60, 240), alphas=(0.5,), c=0.5),
}


def _reversed_map(func, seeds):
    items = list(enumerate(seeds))
    done = {i: func(s) for i, s in reversed(items)}
    return [done[i] for i in range(len(items))]


def test_deterministic_outputs_across_schedules(capsys):
    specs = [
        ExperimentSpec(kind=kind, trials=1000, master_seed=41, **_SCHEDULE_SPECS[kind])
        for kind in EXPERIMENT_KINDS
    ]

    def reports(map_fn):
        results = [run_experiment(spec, map_fn=map_fn) for spec in specs]
        return [(render_csv(r), render_summary_json(r)) for r in results]

    start = time.perf_counter()
    sequential = reports(map)
    # spawned workers start from a fresh import; forking this process, whose
    # numpy already runs threads, is unsafe and warns from Python 3.12 on
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as processes:
        schedules = {"2-process pool": reports(partial(processes.map, chunksize=64))}
    schedules["rerun"] = reports(map)
    schedules["reversed schedule"] = reports(_reversed_map)
    # a tiny switch interval makes threads interleave inside a trial, so any
    # random state shared between threads would change the reports
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as threads:
            schedules["4-thread pool"] = reports(threads.map)
    finally:
        sys.setswitchinterval(interval)
    elapsed = time.perf_counter() - start
    differing = [name for name, outputs in schedules.items() if outputs != sequential]
    sweep = json.loads(sequential[EXPERIMENT_KINDS.index("connectivity-sweep")][1])
    mixed = all(0.0 < record["estimate"] < 1.0 for record in sweep["records"])
    ok = not differing and mixed
    _report(
        capsys, 9, ok,
        f"CSV and JSON of all {len(specs)} kinds byte-identical across "
        f"{', '.join(schedules)} (differing: {differing or 'none'}); "
        f"both outcomes at every connectivity point: {mixed}; {elapsed:.1f}s",
    )
    assert ok
