import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from riglab import (
    DegreeScalingRecord,
    ExperimentSpec,
    degree_pmf,
    derive_trial_seed,
    project,
    q_exact,
    render_csv,
    render_summary_json,
    run_experiment,
    sample_assignment,
    sample_connected,
    sample_degree,
    solve_a,
    spec_hash,
    threshold_p,
    total_variation,
    wilson_interval,
    write_outputs,
)
import riglab.model
from riglab.model import ModelParams

from oracles import (
    binom_tail,
    enum_connected_prob,
    enum_degree_pmf,
    gilbert_connected_prob,
    mixture_degree_pmf,
)


# ---------------------------------------------------------------- trial seeds

def test_derive_trial_seed_is_stable():
    # frozen so the reproducibility contract cannot drift silently
    assert derive_trial_seed(1, 2, 3) == 13041116711478803063


def test_derive_trial_seed_distinct_and_in_range():
    seeds = {
        derive_trial_seed(5, g, t) for g in range(8) for t in range(64)
    }
    assert len(seeds) == 8 * 64
    assert all(0 <= s < 2**64 for s in seeds)


def test_derive_trial_seed_wraps_master():
    assert derive_trial_seed(2**64 + 7, 0, 0) == derive_trial_seed(7, 0, 0)


# ------------------------------------------------------------------ intervals

def test_wilson_interval_known_shape():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 20)[0] == 0.0
    assert wilson_interval(20, 20)[1] == 1.0
    for successes, trials in ((0, 0), (-1, 5), (6, 5), (2.5, 5), (True, 2), (1, 5.0)):
        with pytest.raises(ValueError, match=f"got {successes}/{trials}"):
            wilson_interval(successes, trials)


@given(
    trials=st.integers(min_value=1, max_value=10_000),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_wilson_interval_brackets_estimate(trials, data):
    successes = data.draw(st.integers(min_value=0, max_value=trials))
    lo, hi = wilson_interval(successes, trials)
    phat = successes / trials
    assert 0.0 <= lo <= phat <= hi <= 1.0


# ------------------------------------------------------------ spec validation

def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown experiment kind"):
        ExperimentSpec(kind="edge", trials=10, master_seed=0, points=((2, 0.5),))


def test_spec_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty parameter grid"):
        ExperimentSpec(kind="edge-prob", trials=10, master_seed=0, points=())
    with pytest.raises(ValueError, match="empty parameter grid"):
        ExperimentSpec(kind="connectivity-sweep", trials=10, master_seed=0, n_values=(), alphas=(1.0,))


def test_spec_rejects_bad_trials_and_points():
    with pytest.raises(ValueError):
        ExperimentSpec(kind="edge-prob", trials=0, master_seed=0, points=((2, 0.5),))
    with pytest.raises(ValueError):
        ExperimentSpec(kind="edge-prob", trials=10, master_seed=0, points=((2, 1.5),))
    with pytest.raises(ValueError, match=r"^points\[0\] must be a tuple of 2 values"):
        ExperimentSpec(kind="edge-prob", trials=10, master_seed=0, points=((2, 0.5, 3),))
    with pytest.raises(ValueError):
        ExperimentSpec(kind="degree-dist", trials=10, master_seed=0, points=((0, 2, 0.5),))
    # the grid fields are tuples, as JSON's lists are
    with pytest.raises(ValueError, match="^points must be a tuple"):
        ExperimentSpec(kind="edge-prob", trials=10, master_seed=0, points=5)
    with pytest.raises(ValueError, match=r"^points\[0\] must be a tuple"):
        ExperimentSpec(kind="edge-prob", trials=10, master_seed=0, points=(5,))
    with pytest.raises(ValueError, match="^n_values must be a tuple"):
        ExperimentSpec(kind="connectivity-sweep", trials=10, master_seed=0, n_values=None,
                       alphas=(1.0,))
    # a sweep point is resolved when the spec is built, not when it runs
    with pytest.raises(ValueError, match=r"alpha\[0\]"):
        ExperimentSpec(
            kind="connectivity-sweep", trials=1, master_seed=0, n_values=(4,), alphas=(-3.0,)
        )
    # an m_rule without its parameter is a ValueError, not an IndexError
    with pytest.raises(ValueError, match="m_rule"):
        ExperimentSpec(
            kind="connectivity-sweep", trials=1, master_seed=0, n_values=(4,), alphas=(1.0,),
            m_rule=("power",),
        )


def test_spec_grid_lists_sweep_points_n_major():
    spec = ExperimentSpec(
        kind="connectivity-sweep", trials=1, master_seed=0, n_values=(4, 9), alphas=(0.5, 1.0)
    )
    assert spec.grid == tuple(
        (ModelParams(n, n, threshold_p(alpha, n, n)), alpha) for n in (4, 9) for alpha in (0.5, 1.0)
    )


def test_spec_trials_fit_the_64_bit_trial_index():
    # trial indices 0 .. 2**64 - 1 are all distinct under derive_trial_seed's mask
    spec = ExperimentSpec(kind="edge-prob", trials=2**64, master_seed=0, points=((2, 0.5),))
    assert spec.trials == 2**64
    with pytest.raises(ValueError, match="trials must be at most 2\\*\\*64"):
        ExperimentSpec(kind="edge-prob", trials=2**64 + 1, master_seed=0, points=((2, 0.5),))


def test_spec_degree_scaling_constraints():
    with pytest.raises(ValueError, match="alpha in \\(0, 1\\)"):
        ExperimentSpec(
            kind="degree-scaling", trials=10, master_seed=0,
            n_values=(10,), alphas=(1.0,), c=0.5,
        )
    with pytest.raises(ValueError, match="rate constant c"):
        ExperimentSpec(
            kind="degree-scaling", trials=10, master_seed=0,
            n_values=(10,), alphas=(0.5,),
        )
    with pytest.raises(ValueError):
        ExperimentSpec(
            kind="degree-scaling", trials=10, master_seed=0,
            n_values=(10,), alphas=(0.5,), c=0.0,
        )


def test_m_rules_set_m_in_the_grid():
    def grid_m(n, rule):
        spec = ExperimentSpec(kind="connectivity-sweep", trials=1, master_seed=0,
                              n_values=(n,), alphas=(1.0,), m_rule=rule)
        return spec.grid[0][0].m

    assert grid_m(17, ("equal-n",)) == 17
    assert grid_m(5, ("power", 2.0)) == 25
    assert grid_m(123, ("fixed", 9)) == 9
    # JSON and the constructor give the same message, listing the kinds of the rule table
    message = r"^m_rule kind must be one of \['equal-n', 'power', 'fixed'\], got "
    with pytest.raises(ValueError, match=message):
        grid_m(4, ("cubed",))
    with pytest.raises(ValueError, match=message):
        ExperimentSpec.from_dict({"kind": "connectivity-sweep", "trials": 1, "master_seed": 0,
                                  "n": [4], "alpha": [1.0], "m_rule": {"kind": "cubed"}})


def test_from_dict_round_trip_all_kinds():
    payloads = [
        {"kind": "edge-prob", "trials": 5, "master_seed": 3,
         "points": [{"m": 2, "p": 0.5}, {"m": 7, "p": 0.01}]},
        {"kind": "degree-dist", "trials": 5, "master_seed": 3,
         "points": [{"n": 10, "m": 4, "p": 0.2}]},
        {"kind": "connectivity-sweep", "trials": 5, "master_seed": 3,
         "n": [4, 9], "alpha": [1.0, 3.0], "m_rule": {"kind": "equal-n"}},
        {"kind": "degree-scaling", "trials": 5, "master_seed": 3,
         "n": [50], "alpha": [0.5], "m_rule": {"kind": "power", "beta": 1.0}, "c": 0.5},
    ]
    for payload in payloads:
        spec = ExperimentSpec.from_dict(payload)
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec
        assert spec_hash(again) == spec_hash(spec)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown spec keys"):
        ExperimentSpec.from_dict(
            {"kind": "edge-prob", "trials": 5, "master_seed": 0,
             "points": [{"m": 2, "p": 0.5}], "label": "x"}
        )
    # keys of another kind are rejected too, not ignored and left out of the spec hash
    with pytest.raises(ValueError, match=r"unknown spec keys.*\['alpha', 'c', 'm_rule'\]"):
        ExperimentSpec.from_dict(
            {"kind": "edge-prob", "trials": 5, "master_seed": 0, "points": [{"m": 2, "p": 0.5}],
             "alpha": [3], "c": "junk", "m_rule": {"kind": "bogus"}}
        )
    with pytest.raises(ValueError, match="exactly keys"):
        ExperimentSpec.from_dict(
            {"kind": "edge-prob", "trials": 5, "master_seed": 0,
             "points": [{"m": 2, "p": 0.5, "n": 4}]}
        )


def test_spec_rejects_fields_of_another_kind():
    # the Python constructor holds to the same contract as test_from_dict_rejects_unknown_keys
    edge = dict(kind="edge-prob", trials=5, master_seed=0, points=((2, 0.5),))
    with pytest.raises(ValueError, match="unknown spec field for kind 'edge-prob': alphas"):
        ExperimentSpec(**edge, c="junk", alphas=("x",), m_rule=("bogus",))
    for name, value in [("c", "junk"), ("m_rule", ("bogus",)), ("n_values", (4,))]:
        with pytest.raises(ValueError, match=f"unknown spec field for kind 'edge-prob': {name}="):
            ExperimentSpec(**edge, **{name: value})
    with pytest.raises(ValueError, match="unknown spec field for kind 'degree-scaling': points="):
        ExperimentSpec(
            kind="degree-scaling", trials=5, master_seed=0, n_values=(10,), alphas=(0.5,), c=0.5,
            points=((4, 2, 0.5),),
        )
    # a field left at its default is not read, so it changes neither the spec nor its hash
    spec = ExperimentSpec(**edge, m_rule=("equal-n",), c=None)
    assert spec == ExperimentSpec(**edge)
    assert spec_hash(spec) == spec_hash(ExperimentSpec(**edge))


def test_from_dict_requires_master_seed():
    payload = {"kind": "edge-prob", "trials": 5, "points": [{"m": 2, "p": 0.5}]}
    assert ExperimentSpec.from_dict({**payload, "master_seed": 42}).master_seed == 42
    with pytest.raises(ValueError, match="master_seed must be an integer, got None"):
        ExperimentSpec.from_dict(payload)


# ------------------------------------------------------------------ edge-prob

def test_edge_prob_degenerate_points_are_exact():
    spec = ExperimentSpec(
        kind="edge-prob", trials=200, master_seed=1,
        points=((3, 0.0), (3, 1.0)),
    )
    zero, one = run_experiment(spec).records
    assert zero.estimate == 0.0
    assert zero.std_error == 0.0
    assert one.estimate == 1.0


def test_edge_prob_estimate_tracks_q_exact():
    spec = ExperimentSpec(
        kind="edge-prob", trials=4000, master_seed=7, points=((2, 0.5),),
    )
    (rec,) = run_experiment(spec).records
    exact = q_exact(2, 0.5)
    se = math.sqrt(exact * (1.0 - exact) / spec.trials)
    assert abs(rec.estimate - exact) <= 3.0 * se
    assert rec.ci_low <= rec.estimate <= rec.ci_high
    assert rec.q_exact == exact
    assert rec.abs_error == abs(rec.estimate - exact)


def test_edge_prob_coverage_over_many_master_seeds():
    # 3-sigma misses should be rare; a scheme bug shows up as mass failure
    exact = q_exact(2, 0.5)
    trials = 1000
    se = math.sqrt(exact * (1.0 - exact) / trials)
    hits = 0
    for master in range(100):
        spec = ExperimentSpec(
            kind="edge-prob", trials=trials, master_seed=master, points=((2, 0.5),),
        )
        (rec,) = run_experiment(spec).records
        if abs(rec.estimate - exact) <= 3.0 * se:
            hits += 1
    assert hits >= 97


# ----------------------------------------------------------------- scheduling

def test_trial_seeds_reach_map_fn_lazily_in_trial_order():
    # two grid points, each handing map_fn one iterator over all its seeds;
    # the count crosses two 1024-trial boundaries, where a seed source cut
    # into pieces would show its seams
    trials = 2 * 1024 + 3
    spec = ExperimentSpec(kind="edge-prob", trials=trials, master_seed=5, points=((1, 0.5), (2, 0.5)))
    seen = []

    def recording_map(func, seeds):
        assert iter(seeds) is seeds
        seen.append(list(seeds))
        return map(func, seen[-1])

    assert run_experiment(spec, map_fn=recording_map) == run_experiment(spec)
    assert seen == [[derive_trial_seed(5, g, t) for t in range(trials)] for g in (0, 1)]


def test_trial_seeds_are_never_listed_even_at_2_to_the_64_trials():
    spec = ExperimentSpec(kind="edge-prob", trials=2**64, master_seed=8, points=((1, 0.5),))

    class Enough(Exception):
        pass

    def first_three(func, seeds):
        for t, seed in zip(range(3), seeds):
            assert seed == derive_trial_seed(8, 0, t)
        raise Enough

    with pytest.raises(Enough):
        run_experiment(spec, map_fn=first_three)


# --------------------------------------------------------------- connectivity

def test_connectivity_single_vertex_is_always_connected():
    spec = ExperimentSpec(
        kind="connectivity-sweep", trials=25, master_seed=0,
        n_values=(1,), alphas=(1.0,),
    )
    (rec,) = run_experiment(spec).records
    assert rec.estimate == 1.0


def test_sample_connected_stops_at_the_first_isolated_vertex(monkeypatch):
    # p = n**-2 leaves vertex 0 empty with probability about 1 - 1/n
    n = 1600
    sparse = ModelParams(n, n, n**-2.0)
    seed = next(s for s in range(20) if not sample_assignment(ModelParams(1, n, sparse.p), s).sets[0])
    # at p = 1/n the first empty set turns up after a few vertices
    params = ModelParams(40, 40, 1 / 40)
    prefixes = []
    for s in range(30):
        sets = sample_assignment(params, s).sets
        prefixes.append(next((v + 1 for v, objects in enumerate(sets) if not objects), params.n))
    assert min(prefixes) < max(prefixes) < params.n

    calls = []
    original = riglab.model.vertex_substream

    def counting(seed, index, **kwargs):
        calls.append(index)
        return original(seed, index, **kwargs)

    monkeypatch.setattr(riglab.model, "vertex_substream", counting)
    assert sample_connected(sparse, seed) is False
    assert calls == [0]
    for s, prefix in enumerate(prefixes):
        calls.clear()
        assert sample_connected(params, s) is False
        assert calls == list(range(prefix))


def test_connectivity_grid_order_and_extras():
    spec = ExperimentSpec(
        kind="connectivity-sweep", trials=5, master_seed=0,
        n_values=(4, 8), alphas=(1.0, 3.0), m_rule=("fixed", 6),
    )
    records = run_experiment(spec).records
    grid = [(r.n, r.alpha) for r in records]
    assert grid == [(4, 1.0), (4, 3.0), (8, 1.0), (8, 3.0)]
    for rec in records:
        assert rec.m == 6
        assert rec.p == threshold_p(rec.alpha, 6, rec.n)
        assert rec.pair_bound == float(rec.n) ** (-rec.alpha / 2.0)


def test_connectivity_point_where_m_n_alpha_overflows():
    # m * n**alpha = 1e310 leaves the float range, but p = 1e-155 does not
    spec = ExperimentSpec.from_dict(
        {"kind": "connectivity-sweep", "trials": 2, "master_seed": 1, "n": [10], "alpha": [308],
         "m_rule": {"kind": "fixed", "m": 100}}
    )
    (record,) = run_experiment(spec).records
    assert record.p == threshold_p(308.0, 100, 10) == pytest.approx(1e-155, rel=1e-12, abs=0.0)
    assert record.estimate == 0.0


def test_connectivity_falls_with_alpha():
    # denser curve point keeps many samples connected, sparser kills them
    spec = ExperimentSpec(
        kind="connectivity-sweep", trials=60, master_seed=3,
        n_values=(12,), alphas=(0.2, 3.0),
    )
    dense, sparse = run_experiment(spec).records
    assert dense.estimate > 0.3
    assert sparse.estimate < 0.1
    assert dense.estimate > sparse.estimate


def test_gilbert_recursion_matches_enumeration():
    for n, m in [(1, 3), (2, 1), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5), (4, 3), (3, 4)]:
        for p in (0.0, 0.3, 0.5, 1.0):
            assert gilbert_connected_prob(n, m, p) == enum_connected_prob(n, m, p)


def test_connectivity_sweep_agrees_with_exact_probability():
    # 20 points with exact P(connected) from 4e-5 to 0.99.  At each, the 95%
    # Wilson interval of 1000 trials misses the exact value with probability at
    # most 0.062 (summed over the binomial law of the count), so the number of
    # misses is bounded by Binomial(20, 0.07) and exceeds `limit` with
    # probability below 1e-3; a biased sampler misses at most of them.
    spec = ExperimentSpec(
        kind="connectivity-sweep", trials=1000, master_seed=1959,
        n_values=(2, 3, 5, 8), alphas=(-0.5, 0.0, 0.5, 1.0, 1.5), m_rule=("fixed", 5),
    )
    records = run_experiment(spec).records
    misses = sum(
        not rec.ci_low <= float(gilbert_connected_prob(rec.n, rec.m, rec.p)) <= rec.ci_high
        for rec in records
    )
    count = len(records)
    limit = next(k for k in range(count) if binom_tail(count, 0.07, k + 1, "upper") < 1e-3)
    assert count == 20
    assert misses <= limit


# ---------------------------------------------------------------- degree dist

def test_degree_dist_tracks_exact_mixture_not_binomial():
    spec = ExperimentSpec(
        kind="degree-dist", trials=20_000, master_seed=9, points=((10, 8, 0.2),),
    )
    (rec,) = run_experiment(spec).records
    assert len(rec.empirical_pmf) == 10
    assert sum(rec.empirical_pmf) == pytest.approx(1.0, abs=1e-9)
    assert rec.tv_exact_mixture < 0.03
    assert rec.tv_binomial_approx > 0.2
    assert rec.tv_exact_mixture < rec.tv_binomial_approx


def test_conditional_sampler_agrees_with_full_projection():
    # two routes to the same law: the shortcut sampler and a full
    # assignment -> projection -> degree pipeline, both against the
    # analytic mixture pmf
    n, m, p = 5, 3, 0.4
    trials = 20_000
    exact = degree_pmf(n, m, p, "exact-mixture")
    params = ModelParams(n=n, m=m, p=p)
    shortcut = np.bincount(
        [sample_degree(params, 70_000 + t) for t in range(trials)], minlength=n
    ) / trials
    full = np.bincount(
        [
            sum(0 in edge for edge in project(sample_assignment(params, 70_000 + t)).edges)
            for t in range(trials)
        ],
        minlength=n,
    ) / trials
    assert total_variation(shortcut, exact) < 0.02
    assert total_variation(full, exact) < 0.02


def test_sample_degree_degenerate_cases():
    assert sample_degree(ModelParams(1, 5, 0.9), 123) == 0
    assert sample_degree(ModelParams(6, 3, 0.0), 123) == 0
    assert sample_degree(ModelParams(6, 3, 1.0), 123) == 5


def test_sample_degree_reads_vertex_0_then_the_reserved_stream(monkeypatch):
    calls = []
    original = riglab.model.vertex_substream

    def counting(seed, index, **kwargs):
        calls.append(index)
        return original(seed, index, **kwargs)

    monkeypatch.setattr(riglab.model, "vertex_substream", counting)
    sample_degree(ModelParams(5, 4, 0.9), 11)
    assert calls == [0, 5]
    # no adjacency draw when n = 1 or vertex 0 has no objects
    for params in (ModelParams(1, 4, 0.9), ModelParams(5, 4, 0.0)):
        calls.clear()
        assert sample_degree(params, 11) == 0
        assert calls == [0]


# ------------------------------------------------------------- degree scaling

def test_degree_scaling_record_fields():
    spec = ExperimentSpec(
        kind="degree-scaling", trials=400, master_seed=11,
        n_values=(200, 400), alphas=(0.5,), c=0.5,
    )
    records = run_experiment(spec).records
    assert [r.n for r in records] == [200, 400]
    lower = solve_a(0.5, "lower")
    upper = solve_a(0.5, "upper")
    for rec in records:
        assert rec.delta == 1.0 - rec.alpha
        assert rec.m == rec.n
        assert rec.p == threshold_p(rec.alpha, rec.m, rec.n)
        assert rec.a_lower == lower
        assert rec.a_upper == upper
        scale = float(rec.n) ** rec.delta
        assert rec.chernoff_lower == math.exp(-0.5 * scale)
        assert rec.chernoff_upper == rec.chernoff_lower
        assert rec.ratio_min <= rec.ratio_q25 <= rec.ratio_median
        assert rec.ratio_median <= rec.ratio_q75 <= rec.ratio_max
        assert 0.0 <= rec.exceed_lower_freq <= 1.0
        assert 0.0 <= rec.exceed_upper_freq <= 1.0
        # mean normalized degree concentrates near 1 on the sqrt curve
        assert 0.8 < rec.ratio_mean < 1.25


def test_mixture_oracle_matches_enumeration():
    for n, m, p in [(1, 3, 0.4), (2, 3, 0.5), (4, 2, 0.5), (3, 4, 0.3), (4, 3, 0.0), (3, 3, 1.0)]:
        mixture = np.array(mixture_degree_pmf(n, m, p))
        assert np.max(np.abs(mixture - enum_degree_pmf(n, m, p))) <= 1e-12


def test_degree_scaling_exceedance_agrees_with_exact_mixture():
    # 18 points, 2000 trials each.  At every point both exceedance masses of
    # the exact degree law lie in (0.004, 0.53), where the 95% Wilson interval
    # of 2000 trials misses the mass with probability at most 0.07 (summed over
    # the binomial law of the count, checked below).  A point misses when
    # either interval does, so with probability at most 0.14, and the number
    # of missed points exceeds `limit` with probability below 1e-3.
    trials = 2000
    records = [
        rec
        for rule in [("equal-n",), ("fixed", 6), ("power", 0.5)]
        for rec in run_experiment(ExperimentSpec(
            kind="degree-scaling", trials=trials, master_seed=2008,
            n_values=(8, 16, 30), alphas=(0.5, 0.75), c=0.5, m_rule=rule,
        )).records
    ]
    counts = np.arange(trials + 1)
    intervals = np.array([wilson_interval(k, trials) for k in range(trials + 1)])
    missed = 0
    for rec in records:
        pmf = mixture_degree_pmf(rec.n, rec.m, rec.p)
        ratios = [k / float(rec.n) ** rec.delta for k in range(rec.n)]
        miss = False
        for freq, inside in [(rec.exceed_lower_freq, [r <= rec.a_lower for r in ratios]),
                             (rec.exceed_upper_freq, [r >= rec.a_upper for r in ratios])]:
            mass = math.fsum(x for x, hit in zip(pmf, inside) if hit)
            assert 0.004 < mass < 0.53
            outside = (intervals[:, 0] > mass) | (mass > intervals[:, 1])
            assert stats.binom.pmf(counts, trials, mass)[outside].sum() <= 0.07
            low, high = wilson_interval(round(freq * trials), trials)
            miss |= not low <= mass <= high
        missed += miss
    count = len(records)
    limit = next(k for k in range(count) if binom_tail(count, 0.14, k + 1, "upper") < 1e-3)
    assert count == 18
    assert missed <= limit


# -------------------------------------------------------------------- outputs

def test_spec_hash_is_canonical_and_sensitive():
    spec = ExperimentSpec(
        kind="edge-prob", trials=5, master_seed=3, points=((2, 0.5),),
    )
    assert spec_hash(spec) == spec_hash(ExperimentSpec.from_dict(spec.to_dict()))
    other = ExperimentSpec(
        kind="edge-prob", trials=5, master_seed=4, points=((2, 0.5),),
    )
    assert spec_hash(spec) != spec_hash(other)


def test_render_csv_layout():
    spec = ExperimentSpec(
        kind="edge-prob", trials=50, master_seed=17, points=((2, 0.5),),
    )
    result = run_experiment(spec)
    lines = render_csv(result).splitlines()
    assert lines[0].startswith("# riglab ")
    assert "kind=edge-prob" in lines[1]
    assert f"spec_sha256={spec_hash(spec)}" in lines[1]
    header = lines[2].split(",")
    assert header[:2] == ["m", "p"]
    assert header[2:6] == ["estimate", "std_error", "ci_low", "ci_high"]
    assert header[-2:] == ["trials", "master_seed"]
    row = lines[3].split(",")
    assert len(row) == len(header)
    # float cells round-trip exactly through repr
    assert float(row[1]) == 0.5
    assert row[1] == repr(0.5)


def test_render_summary_json_echoes_spec():
    spec = ExperimentSpec(
        kind="degree-dist", trials=60, master_seed=5, points=((6, 3, 0.3),),
    )
    result = run_experiment(spec)
    payload = json.loads(render_summary_json(result))
    assert payload["kind"] == "degree-dist"
    assert payload["spec"] == spec.to_dict()
    assert payload["spec_sha256"] == spec_hash(spec)
    (record,) = payload["records"]
    assert len(record["empirical_pmf"]) == 6
    assert record["tv_exact_mixture"] >= 0.0


def test_write_outputs(tmp_path):
    spec = ExperimentSpec(
        kind="edge-prob", trials=20, master_seed=1, points=((2, 0.5),),
    )
    result = run_experiment(spec)
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    write_outputs(result, csv_path, json_path)
    assert csv_path.read_text() == render_csv(result)
    assert json.loads(json_path.read_text())["kind"] == "edge-prob"

