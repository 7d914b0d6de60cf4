import math
import re
import threading
import time
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from riglab import (
    ExperimentSpec,
    degree_pmf,
    derive_trial_seed,
    pair_adjacent,
    project,
    q_exact,
    run_experiment,
    sample_assignment,
    sample_connected,
    sample_degree,
    solve_a,
    spec_hash,
    threshold_p,
    total_variation,
    wilson_interval,
)
import riglab.model
import riglab.montecarlo
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

_EDGE = dict(kind="edge-prob", trials=10, master_seed=0, points=((2, 0.5),))
_SWEEP = dict(kind="connectivity-sweep", trials=10, master_seed=0, n_values=(4,), alphas=(1.0,))
_SCALING = dict(
    kind="degree-scaling", trials=10, master_seed=0, n_values=(10,), alphas=(0.5,), c=0.5
)


@pytest.mark.parametrize(
    ("kwargs", "message"),
    [
        ({**_EDGE, "kind": "edge"}, "unknown experiment kind 'edge'"),
        ({**_EDGE, "trials": 0}, "trials must be an integer >= 1, got 0"),
        # trial indices 0 .. 2**64 - 1 are all distinct under derive_trial_seed's mask
        ({**_EDGE, "trials": 2**64 + 1}, "trials must be at most 2**64, because trial seeds"),
        ({**_EDGE, "points": ()}, "empty parameter grid: points is empty"),
        ({**_SWEEP, "n_values": ()}, "empty parameter grid: n or alpha is empty"),
        # the grid fields are tuples, as JSON's lists are
        ({**_EDGE, "points": 5}, "points must be a tuple, got 5"),
        ({**_SWEEP, "n_values": None}, "n_values must be a tuple, got None"),
        ({**_EDGE, "points": (5,)}, "points[0] must be a tuple of 2 values ('m', 'p')"),
        ({**_EDGE, "points": ((2, 0.5, 3),)}, "points[0] must be a tuple of 2 values ('m', 'p')"),
        ({**_EDGE, "points": ((2, 1.5),)}, "points[0].p must lie in [0, 1], got 1.5"),
        ({**_EDGE, "kind": "degree-dist", "points": ((0, 2, 0.5),)},
         "points[0].n must be an integer >= 1, got 0"),
        # a field the kind does not read; the first such field in field order is named
        ({**_EDGE, "c": "junk", "alphas": ("x",), "m_rule": ("bogus",)},
         "unknown spec field for kind 'edge-prob': alphas=('x',)"),
        ({**_EDGE, "n_values": (4,)}, "unknown spec field for kind 'edge-prob': n_values=(4,)"),
        ({**_EDGE, "m_rule": ("bogus",)},
         "unknown spec field for kind 'edge-prob': m_rule=('bogus',)"),
        ({**_EDGE, "c": "junk"}, "unknown spec field for kind 'edge-prob': c='junk'"),
        ({**_SCALING, "points": ((4, 2, 0.5),)},
         "unknown spec field for kind 'degree-scaling': points=((4, 2, 0.5),)"),
        # a sweep point is resolved when the spec is built, not when it runs
        ({**_SWEEP, "alphas": (-3.0,)}, "alpha[0]=-3.0 gives p=4.0 > 1 at n=4, m=4"),
        # the message lists the kinds of the rule table, as JSON's does
        ({**_SWEEP, "m_rule": ("cubed",)},
         "m_rule kind must be one of ['equal-n', 'power', 'fixed'], got ('cubed',)"),
        # an m_rule without its parameter is a ValueError, not an IndexError
        ({**_SWEEP, "m_rule": ("power",)}, "m_rule must be ('power', 'beta'), got ('power',)"),
        ({**_SCALING, "alphas": (1.0,)}, "degree scaling requires alpha in (0, 1)"),
        ({**_SCALING, "c": None}, "degree-scaling requires the rate constant c"),
        ({**_SCALING, "c": 0.0}, "c must be > 0, got 0.0"),
    ],
)
def test_spec_rejects_a_malformed_field(kwargs, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        ExperimentSpec(**kwargs)


def test_spec_rejects_fields_of_another_kind():
    # only a field changed from its default is rejected (the rows above); one
    # left at its default is not read, so it changes neither the spec nor its hash
    spec = ExperimentSpec(**_EDGE, m_rule=("equal-n",), c=None)
    assert spec == ExperimentSpec(**_EDGE)
    assert spec_hash(spec) == spec_hash(ExperimentSpec(**_EDGE))


def test_spec_grid_lists_sweep_points_n_major():
    spec = ExperimentSpec(
        kind="connectivity-sweep", trials=1, master_seed=0, n_values=(4, 9), alphas=(0.5, 1.0)
    )
    assert spec.grid == tuple(
        (ModelParams(n, n, threshold_p(alpha, n, n)), alpha) for n in (4, 9) for alpha in (0.5, 1.0)
    )


def test_m_rules_set_m_in_the_grid():
    def grid_m(n, rule):
        spec = ExperimentSpec(kind="connectivity-sweep", trials=1, master_seed=0,
                              n_values=(n,), alphas=(1.0,), m_rule=rule)
        return spec.grid[0][0].m

    assert grid_m(17, ("equal-n",)) == 17
    assert grid_m(5, ("power", 2.0)) == 25
    assert grid_m(123, ("fixed", 9)) == 9


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

def test_chunk_starts_reach_map_fn_as_one_lazy_range_per_point():
    # two grid points, each handing map_fn one range of chunk starts; the
    # count crosses 64-trial chunk seams and two 1024-trial boundaries, and
    # the last chunk holds the 3 trials left over
    trials = 2 * 1024 + 3
    spec = ExperimentSpec(kind="edge-prob", trials=trials, master_seed=5, points=((1, 0.5), (2, 0.5)))
    seen, results = [], []

    def recording_map(func, starts):
        seen.append(starts)
        results.append([func(start) for start in starts])
        return iter(results[-1])

    assert run_experiment(spec, map_fn=recording_map) == run_experiment(spec, map_fn=map)
    assert seen == [range(0, trials, 64)] * 2
    assert all(type(starts) is range for starts in seen)
    for g, ((params,), chunks) in enumerate(zip(spec.grid, results)):
        assert [len(chunk) for chunk in chunks] == [64] * 32 + [3]
        per_trial = [
            pair_adjacent(sample_assignment(params, derive_trial_seed(5, g, t)), 0, 1)
            for t in range(trials)
        ]
        assert [hit for chunk in chunks for hit in chunk] == per_trial


def test_threaded_runner_yields_every_result_in_item_order():
    # the last item is the slowest, so the caller often reaches it while a
    # helper still computes it; ending early there would drop it
    computed = []

    def square(i):
        computed.append(i)
        time.sleep(0.02 if i == count - 1 else 0.0005 * (i % 3))
        if i == fails_at:
            raise ValueError(i)
        return i * i

    # (item count, how the caller stops, k: the items it takes before that)
    cases = [(count, "end", count) for count in (0, 1, 7, 50)]
    cases += [(50, "close", k) for k in (1, 20)] + [(7, "raise", 6)]
    cases += [(50, "raise", k) for k in (0, 20)]
    threads = threading.active_count()
    for workers in (1, 2, 3, 4, 8):
        for count, stop, k in cases:
            computed.clear()
            fails_at = k if stop == "raise" else None
            runner = riglab.montecarlo._threaded_map(square, range(count), workers)
            assert list(islice(runner, k)) == [i * i for i in range(k)]
            if stop == "close":
                runner.close()
            elif stop == "raise":
                with pytest.raises(ValueError, match=f"^{k}$"):
                    next(runner)
            else:
                assert next(runner, None) is None
            assert len(computed) <= k + 2 * workers, (workers, count, stop, k)
            # every helper ends once the caller stops, however it stops
            deadline = time.monotonic() + 5
            while threading.active_count() > threads and time.monotonic() < deadline:
                time.sleep(0.001)
            assert threading.active_count() == threads, (workers, count, stop, k)


def test_threaded_runner_raises_a_helpers_base_exception_in_the_caller():
    # an error that is not an Exception must reach the caller too; the map is
    # consumed on a daemon thread, so a helper that lets the error escape
    # fails this test in seconds rather than at the suite's time limit
    class Stop(BaseException):
        pass

    def stop_at_1(i):
        if i == 1:
            raise Stop
        return i

    outcome = []

    def consume():
        try:
            outcome.append(list(riglab.montecarlo._threaded_map(stop_at_1, range(4), 2)))
        except Stop as exc:
            outcome.append(exc)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    consumer.join(10)
    assert len(outcome) == 1 and isinstance(outcome[0], Stop)


def test_threaded_runner_skips_the_items_queued_when_the_caller_stops():
    # two helpers: item 0 fails, and items 1 and 2 hold both helpers until the
    # caller has seen that failure, so item 3 is still queued when it stops
    ran, release = [], threading.Event()

    def func(i):
        ran.append(i)
        if i == 0:
            raise ValueError(i)
        if i in (1, 2):
            release.wait(10)
        return i

    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="^0$"):
        next(riglab.montecarlo._threaded_map(func, range(4), 2))
    helpers = set(threading.enumerate()) - before
    release.set()
    for helper in helpers:
        helper.join(10)
    assert len(helpers) == 2 and not any(helper.is_alive() for helper in helpers)
    assert sorted(ran) == [0, 1, 2]


def test_no_list_of_starts_or_seeds_is_built_even_at_2_to_the_64_trials(monkeypatch):
    spec = ExperimentSpec(kind="edge-prob", trials=2**64, master_seed=8, points=((1, 0.5),))
    (params,) = spec.grid[0]

    class Enough(Exception):
        pass

    def first_three(func, starts):
        assert starts == range(0, 2**64, 64)
        for start in starts[:3]:
            assert func(start) == [
                pair_adjacent(sample_assignment(params, derive_trial_seed(8, 0, t)), 0, 1)
                for t in range(start, start + 64)
            ]
        raise Enough

    with pytest.raises(Enough):
        run_experiment(spec, map_fn=first_three)
    # the default runner takes chunks lazily too, on threads as well as serially
    degree = ExperimentSpec(
        kind="degree-scaling", trials=2**64, master_seed=8, n_values=(40,), alphas=(0.5,), c=0.5
    )
    calls = []

    def bounded(params, seed):
        calls.append(seed)
        if len(calls) == 1000:
            raise Enough
        return 0

    monkeypatch.setattr(riglab.montecarlo, "sample_degree", bounded)
    for threshold in (0, math.inf):
        calls.clear()
        monkeypatch.setattr(riglab.montecarlo, "_THREADED_WORDS", threshold)
        monkeypatch.setattr(riglab.montecarlo, "_usable_cores", lambda: 3)
        with pytest.raises(Enough):
            run_experiment(degree)
        assert len(calls) < 1000 + 6 * 64


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
