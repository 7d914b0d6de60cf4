"""Seeded Monte Carlo experiments over the intersection graph model.

Four experiment kinds share one discipline: every trial draws its own seed
from (master_seed, grid_index, trial_index) through a fixed hash, per-trial
results are integers or booleans folded in trial order, and aggregation
is commutative.  Reruns of the same spec therefore produce byte-identical
CSV and JSON outputs no matter how the trials were scheduled.  A grid point
on the calling thread hands its kind one lazy stream of trial seeds; a
`map_fn` or a threaded point gets chunks of up to 64 consecutive trials.
A grid point whose trials draw long streams runs its chunks on every
usable core.

Building an ExperimentSpec validates it and resolves its grid into
ModelParams points, so a bad value fails before any sampling and
run_experiment only runs trials and aggregates them.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import struct
import threading
from collections import deque
from contextlib import suppress
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from itertools import chain, islice

import numpy as np

from ._version import __version__
from .analytics import (
    degree_pmf,
    q_approx,
    q_exact,
    solve_a,
    threshold_p,
    total_variation,
    zeta_bound,
)
from .model import ModelParams, pair_adjacent, sample_assignment, sample_connected, sample_degree
from .model import _MASK64, _MAX_SIZE, _check_int, _check_real, _pair_hits, _prefixed, _require

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentSpec",
    "EdgeProbRecord",
    "ConnectivityRecord",
    "DegreeDistRecord",
    "DegreeScalingRecord",
    "ExperimentResult",
    "derive_trial_seed",
    "wilson_interval",
    "run_experiment",
    "spec_hash",
    "render_csv",
    "render_summary_json",
    "write_outputs",
]

# 97.5% standard normal quantile, fixed so intervals never depend on library versions
_Z95 = 1.959963984540054


def derive_trial_seed(master_seed: int, grid_index: int, trial_index: int) -> int:
    """Derive the 64-bit seed for one trial.

    blake2b over the little-endian packed (master_seed, grid_index,
    trial_index) triple, truncated to 8 bytes.  The hash is fixed by this
    contract; collisions across distinct triples are as unlikely as 64-bit
    hash collisions get.
    """
    payload = struct.pack(
        "<QQQ", master_seed & _MASK64, grid_index & _MASK64, trial_index & _MASK64
    )
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _positive(value, name: str) -> float:
    """A finite real > 0, returned as a float."""
    value = _check_real(value, name)
    _require(value > 0.0, f"{name} must be > 0, got {value}")
    return value


def _power_m(n: int, beta: float) -> int:
    try:
        m = max(1, math.floor(float(n) ** beta))
    except OverflowError:
        m = math.inf
    _require(m <= _MAX_SIZE, f"m_rule.beta={beta} makes m = {m} > {_MAX_SIZE} at n={n}")
    return m


# m_rule kind: (JSON keys of its parameters, their validator, m as a function of n and them)
_M_RULES = {
    "equal-n": ((), None, lambda n: n),
    "power": (("beta",), _positive, _power_m),
    "fixed": (("m",), partial(_check_int, minimum=1, maximum=_MAX_SIZE), lambda n, m: m),
}


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Always contains the point estimate successes/trials and stays inside
    [0, 1], unlike the normal approximation at the boundaries.
    """
    if (type(successes) is not int or type(trials) is not int
            or trials < 1 or not 0 <= successes <= trials):
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    z2 = _Z95 * _Z95
    phat = successes / trials
    denom = 1.0 + z2 / trials
    center = phat + z2 / (2.0 * trials)
    half = _Z95 * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    lower = max(0.0, (center - half) / denom)
    upper = min(1.0, (center + half) / denom)
    # at the boundary counts center and half agree exactly in real
    # arithmetic; sqrt rounding may land a few ulp to either side
    if successes == 0:
        lower = 0.0
    if successes == trials:
        upper = 1.0
    return (lower, upper)


def _unpack(entry, keys: tuple, where: str) -> tuple:
    """Values of a JSON object that must have exactly `keys`, in that order."""
    _require(
        isinstance(entry, dict) and set(entry) == set(keys),
        f"{where} must be an object with exactly keys {sorted(keys)}, got {entry!r}",
    )
    return tuple(entry[key] for key in keys)


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated experiment description with its grid resolved.

    `points` carries explicit grid points for edge-prob ((m, p) pairs) and
    degree-dist ((n, m, p) triples); sweeps use the n_values x alphas product
    with m chosen by m_rule.  `c` is the rate constant for degree scaling.
    A field that the kind does not read (see _KINDS) must keep its default.
    Construction is the spec's only validation: it resolves every grid point
    into `grid`, a tuple of (ModelParams, *labels), whose ModelParams checks
    the point's (n, m, p).  Errors name the key path, such as points[1].p,
    and integer p, alpha, beta and c are stored as floats.
    """

    kind: str
    trials: int
    master_seed: int
    points: tuple = ()
    n_values: tuple = ()
    alphas: tuple = ()
    m_rule: tuple = ("equal-n",)
    c: float | None = None
    grid: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require(self.kind in EXPERIMENT_KINDS, f"unknown experiment kind {self.kind!r}")
        _check_int(self.trials, "trials", 1)
        _require(
            self.trials <= 1 << 64,
            f"trials must be at most 2**64, because trial seeds are keyed by a 64-bit "
            f"trial index, got {self.trials}",
        )
        _check_int(self.master_seed, "master_seed")
        reads = _KINDS[self.kind][3]
        for f in fields(self):
            value = getattr(self, f.name, None)  # grid is not set yet
            # a field the kind does not read would be left out of to_dict and the spec hash
            stray = f.default is not MISSING and f.name not in reads and value != f.default
            _require(not stray, f"unknown spec field for kind {self.kind!r}: {f.name}={value!r}")
            wrong = isinstance(f.default, tuple) and not isinstance(value, tuple)
            _require(not wrong, f"{f.name} must be a tuple, got {value!r}")
        grid = []
        if "points" in reads:
            _, fixed, keys = reads["points"]
            _require(len(self.points) > 0, "empty parameter grid: points is empty")
            for i, point in enumerate(self.points):
                shaped = isinstance(point, tuple) and len(point) == len(keys)
                _require(shaped, f"points[{i}] must be a tuple of {len(keys)} values {keys}")
                grid.append((_prefixed(f"points[{i}].", ModelParams, *fixed, *point),))
            points = tuple(tuple(getattr(point[0], key) for key in keys) for point in grid)
            object.__setattr__(self, "points", points)
        else:
            _require(self.n_values and self.alphas, "empty parameter grid: n or alpha is empty")
            alphas = tuple(_check_real(a, f"alpha[{i}]") for i, a in enumerate(self.alphas))
            object.__setattr__(self, "alphas", alphas)
            rule = self.m_rule
            known = rule[:1] in [(kind,) for kind in _M_RULES]
            _require(known, f"m_rule kind must be one of {list(_M_RULES)}, got {rule!r}")
            keys, check, m_of = _M_RULES[rule[0]]
            _require(len(rule) == 1 + len(keys), f"m_rule must be {(rule[0], *keys)}, got {rule!r}")
            rule = (rule[0], *(check(v, f"m_rule.{key}") for key, v in zip(keys, rule[1:])))
            object.__setattr__(self, "m_rule", rule)
            for i, n in enumerate(self.n_values):
                m = m_of(_check_int(n, f"n[{i}]", 1, _MAX_SIZE), *rule[1:])
                for j, alpha in enumerate(alphas):
                    p = _prefixed(f"alpha[{j}]: ", threshold_p, alpha, m, n)
                    _require(p <= 1.0, f"alpha[{j}]={alpha} gives p={p} > 1 at n={n}, m={m}")
                    grid.append((ModelParams(n, m, p), alpha))
        if "c" in reads:
            # a kind that reads c compares X / n**(1 - alpha) with the envelope roots of c
            _require(self.c is not None, f"{self.kind} requires the rate constant c")
            c = _positive(self.c, "c")
            object.__setattr__(self, "c", c)
            for j, alpha in enumerate(self.alphas):
                _require(
                    0.0 < alpha < 1.0,
                    f"degree scaling requires alpha in (0, 1) so that delta = 1 - alpha > 0, "
                    f"got alpha[{j}]={alpha}",
                )
            envelope = (
                _prefixed("c: ", solve_a, c, "lower"), _prefixed("c: ", solve_a, c, "upper")
            )
            grid = [point + envelope for point in grid]
        object.__setattr__(self, "grid", tuple(grid))

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        """Build a spec from its JSON object, which must name `kind` and `master_seed`."""
        _require(isinstance(payload, dict), "experiment spec must be a JSON object")
        kind = payload.get("kind")
        _require(kind in EXPERIMENT_KINDS, f"unknown experiment kind {kind!r}")
        reads = _KINDS[kind][3]
        # a key the kind does not read would be ignored and left out of the spec hash
        unknown = set(payload) - {"kind", "trials", "master_seed", *(k for k, *_ in reads.values())}
        _require(not unknown, f"unknown spec keys for kind {kind!r}: {sorted(unknown)}")
        kwargs = {key: payload.get(key) for key in ("kind", "trials", "master_seed")}
        for name, (key, *shape) in reads.items():
            if key not in payload:
                continue  # the field keeps its default, which __post_init__ judges
            value = payload[key]
            if name == "m_rule":
                rule_kind = value.get("kind") if isinstance(value, dict) else None
                known = isinstance(rule_kind, str) and rule_kind in _M_RULES
                _require(known, f"m_rule kind must be one of {list(_M_RULES)}, got {value!r}")
                value = _unpack(value, ("kind", *_M_RULES[rule_kind][0]), "m_rule")
            elif name != "c":
                _require(isinstance(value, list), f"{kind} spec needs a list {key!r}")
                if name == "points":
                    value = [_unpack(p, shape[1], f"points[{i}]") for i, p in enumerate(value)]
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "trials": self.trials, "master_seed": self.master_seed}
        for name, (key, *shape) in _KINDS[self.kind][3].items():
            value = getattr(self, name)
            if name == "points":
                value = [dict(zip(shape[1], point)) for point in value]
            elif name == "m_rule":
                value = dict(zip(("kind", *_M_RULES[value[0]][0]), value))
            out[key] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class EdgeProbRecord:
    """Two-vertex adjacency frequency at one (m, p) against q_exact, q_approx and zeta_bound."""

    m: int
    p: float
    estimate: float
    std_error: float
    ci_low: float
    ci_high: float
    q_exact: float
    q_approx: float
    zeta_bound: float
    abs_error: float
    trials: int
    master_seed: int


@dataclass(frozen=True)
class ConnectivityRecord:
    """Connected fraction at one (n, alpha) sweep point, with pairwise adjacency alongside."""

    n: int
    alpha: float
    estimate: float
    std_error: float
    ci_low: float
    ci_high: float
    m: int
    p: float
    q_exact: float
    pair_bound: float
    trials: int
    master_seed: int


@dataclass(frozen=True)
class DegreeDistRecord:
    """Empirical degree law of vertex 0 against both analytic models."""

    n: int
    m: int
    p: float
    trials: int
    tv_exact_mixture: float
    tv_binomial_approx: float
    master_seed: int
    empirical_pmf: tuple[float, ...]


@dataclass(frozen=True)
class DegreeScalingRecord:
    """Normalized-degree summary at one (n, alpha) grid point.

    ratios are X / n**delta with delta = 1 - alpha; the envelope is the pair
    of roots of a*log(a) - a + 1 = c, and chernoff_lower/chernoff_upper both
    carry the reference decay exp(-c * n**delta).
    """

    n: int
    m: int
    alpha: float
    delta: float
    c: float
    p: float
    trials: int
    ratio_mean: float
    ratio_min: float
    ratio_q25: float
    ratio_median: float
    ratio_q75: float
    ratio_max: float
    a_lower: float
    a_upper: float
    exceed_lower_freq: float
    exceed_upper_freq: float
    chernoff_lower: float
    chernoff_upper: float
    master_seed: int


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    records: tuple


# the raw words a trial draws per stream, on average: an attachment row is m
# words, and a degree trial draws m on vertex 0's stream and n - 1 on stream n
def _row_words(params: ModelParams) -> float:
    return params.m


def _degree_words(params: ModelParams) -> float:
    return (params.m + params.n - 1) / 2


# trials per unit of work handed to map_fn or a helper thread
_CHUNK = 64
# a point whose trials draw at least this many raw words per stream runs its
# chunks on every usable core, since numpy draws the words with the GIL
# released.  Near the threshold the GIL handoff between short draws eats the
# second core: on 2 vCPUs a point at 9999.5 words ran threaded at 0.84-1.16
# of its serial time
_THREADED_WORDS = 8192


def _chunk(kind_trials, params: ModelParams, master_seed: int, grid_index: int, trials: int,
           start: int) -> list:
    """The results of trials start .. min(start + _CHUNK, trials) - 1, in trial order."""
    stop = min(start + _CHUNK, trials)
    seeds = (derive_trial_seed(master_seed, grid_index, t) for t in range(start, stop))
    return list(kind_trials(params, seeds))


# A kind's trials function takes a point's params and an iterator of trial
# seeds and yields their results in order.  It finds sample_assignment,
# pair_adjacent, sample_connected and sample_degree as module globals, so a
# wrapper sees each call.
def _connected_trials(params: ModelParams, seeds):
    return (sample_connected(params, seed) for seed in seeds)


def _degree_trials(params: ModelParams, seeds):
    return (sample_degree(params, seed) for seed in seeds)


# the edge-prob kind hands a call of at least _CHUNK trials, at no more than
# this many objects, to model._pair_hits, whose fixed cost is about 190 numpy
# calls per group of seeds.  Seed hashing aside, on 2 vCPUs it took
# 0.42-0.92 of the per-trial path's time on a 64-trial chunk at m <= 64 and
# 1.20 at m = 100; on a whole 3000-trial point, 0.57 at m = 64, 0.85 at
# m = 100 and 1.74 at m = 256.  So a map's chunks at m = 100, and the
# benchmark's m = 100 point, stay on the per-trial path
_BATCH_OBJECTS = 64


def _pair_trials(params: ModelParams, seeds):
    head = list(islice(seeds, _CHUNK))
    seeds = chain(head, seeds)
    if len(head) == _CHUNK and params.m <= _BATCH_OBJECTS:
        return _pair_hits(params, seeds)
    return (pair_adjacent(sample_assignment(params, seed), 0, 1) for seed in seeds)


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _threaded_map(func, items, workers: int):
    """Yield func(item) for each item, in order, computed on `workers` daemon threads.

    The calling thread hands out (slot, item) jobs on one queue and waits on
    the slots, one-shot queues of (exception or None, result), in item
    order.  Items are taken in order, and a job is added only while fewer
    than 2 * workers items are taken and not yet yielded, so any iterable
    of items is read lazily.  An item's exception is raised here in its
    turn, so the first failure in item order is the one seen; a
    KeyboardInterrupt in the caller is raised at once.  Once the caller
    stops iterating, for whatever reason, the helpers skip the jobs still
    queued and end at their sentinels.
    """
    import queue  # here, not at the top: `import riglab` need not load it

    jobs = queue.SimpleQueue()
    stopped = False

    def helper() -> None:
        for slot, item in iter(jobs.get, None):
            if stopped:
                continue
            try:
                outcome = (None, func(item))
            except BaseException as exc:
                outcome = (exc, None)
            slot.put(outcome)

    items = iter(items)
    slots = deque()
    try:
        for _ in range(workers):
            threading.Thread(target=helper, daemon=True).start()
        while True:
            for item in islice(items, 2 * workers - len(slots)):
                slots.append(queue.SimpleQueue())
                jobs.put((slots[-1], item))
            if not slots:
                return
            error, result = slots.popleft().get()
            if error is not None:
                raise error
            yield result
    finally:
        stopped = True
        for _ in range(workers):
            jobs.put(None)


def _estimate(spec, outcomes) -> tuple[float, float, float, float]:
    """Success fraction of the boolean trial outcomes, its standard error and Wilson interval."""
    successes = int(sum(outcomes))
    phat = successes / spec.trials
    std_error = math.sqrt(phat * (1.0 - phat) / spec.trials)
    return (phat, std_error, *wilson_interval(successes, spec.trials))


def _edge_record(spec, point, hits) -> EdgeProbRecord:
    m, p = point[0].m, point[0].p
    estimate = _estimate(spec, hits)
    exact = q_exact(m, p)
    return EdgeProbRecord(m, p, *estimate, exact, q_approx(m, p), zeta_bound(m, p),
                          abs(estimate[0] - exact), spec.trials, spec.master_seed)


def _connectivity_record(spec, point, flags) -> ConnectivityRecord:
    params, alpha = point
    n, m, p = params.n, params.m, params.p
    return ConnectivityRecord(n, alpha, *_estimate(spec, flags), m, p, q_exact(m, p),
                              float(n) ** (-alpha / 2.0), spec.trials, spec.master_seed)


def _dist_record(spec, point, degrees) -> DegreeDistRecord:
    """The sampled degree law of vertex 0 against both analytic models."""
    n, m, p = point[0].n, point[0].m, point[0].p
    empirical = np.bincount(np.fromiter(degrees, np.int64), minlength=n) / spec.trials
    tv_mixture = total_variation(empirical, degree_pmf(n, m, p, "exact-mixture"))
    tv_binomial = total_variation(empirical, degree_pmf(n, m, p, "binomial-approx"))
    pmf = tuple(float(x) for x in empirical)
    return DegreeDistRecord(n, m, p, spec.trials, tv_mixture, tv_binomial, spec.master_seed, pmf)


def _scaling_record(spec, point, degrees) -> DegreeScalingRecord:
    """X / n**delta against the envelope roots at one (n, alpha) point.

    A finite-sample proxy: the asymptotic statements speak of limsup and
    liminf along n, while each record reports one n with exceedance
    frequencies and the reference decay exp(-c * n**delta) for context.
    """
    params, alpha, a_lower, a_upper = point
    delta = 1.0 - alpha
    scale = float(params.n) ** delta
    degrees = np.fromiter(degrees, np.int64)
    ratios = np.sort(degrees) / scale
    ratio_mean = float(int(degrees.sum()) / spec.trials / scale)
    quartiles = (float(np.quantile(ratios, q)) for q in (0.25, 0.5, 0.75))
    exceed_lower = float(np.count_nonzero(ratios <= a_lower) / spec.trials)
    exceed_upper = float(np.count_nonzero(ratios >= a_upper) / spec.trials)
    chernoff = math.exp(-spec.c * scale)
    return DegreeScalingRecord(
        params.n, params.m, alpha, delta, spec.c, params.p, spec.trials,
        ratio_mean, float(ratios[0]), *quartiles, float(ratios[-1]),
        a_lower, a_upper, exceed_lower, exceed_upper, chernoff, chernoff, spec.master_seed,
    )


# kind: (trials function, its raw words per stream, aggregator, {spec field
# the kind reads: (its JSON key, *shape)}).  A points shape is the ModelParams
# arguments every point shares and the JSON keys of the rest: an edge-prob
# point is an (m, p) pair at two vertices.
_SWEEP = {"n_values": ("n",), "alphas": ("alpha",), "m_rule": ("m_rule",)}
_KINDS = {
    "edge-prob": (
        _pair_trials, _row_words, _edge_record, {"points": ("points", (2,), ("m", "p"))}
    ),
    "connectivity-sweep": (_connected_trials, _row_words, _connectivity_record, _SWEEP),
    "degree-dist": (
        _degree_trials, _degree_words, _dist_record, {"points": ("points", (), ("n", "m", "p"))}
    ),
    "degree-scaling": (_degree_trials, _degree_words, _scaling_record, {**_SWEEP, "c": ("c",)}),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(spec: ExperimentSpec, map_fn=None) -> ExperimentResult:
    """Run each point of `spec.grid` through the kind's _KINDS trials function and aggregator.

    The grid, (ModelParams, *labels) per point, was resolved and checked when
    the spec was built.  A trial's seed is ``derive_trial_seed(master_seed,
    grid_index, trial_index)``, and the aggregator folds the results in
    trial order as they arrive.  A point that runs on the calling thread
    hands the kind's trials function one lazy iterator of all its seeds.
    A point that runs on a map gets chunks of up to 64 trials: a chunk
    function takes the index of a chunk's first trial, derives the chunk's
    seeds, hands them to the kind and returns their results in a list.
    The starts reach the map as one lazy range per point, so no list of
    starts or seeds is built for any trial count.

    With `map_fn`, every point runs on it; `map_fn` must keep the order of
    the starts, as ThreadPoolExecutor.map does.  Without it, a point whose
    trials draw at least 8192 raw words per stream on average, (m + n - 1)
    / 2 for the degree kinds and m for the others, runs its chunks on one
    daemon helper per usable core (the process's affinity mask, as
    ``taskset`` sets it), the calling thread waiting, at most 2 * workers
    chunks in flight; every other point runs on the calling thread.
    """
    kind_trials, words, aggregate, _ = _KINDS[spec.kind]
    workers = _usable_cores()
    records = []
    for grid_index, point in enumerate(spec.grid):
        params, mapper = point[0], map_fn
        if mapper is None and workers > 1 and words(params) >= _THREADED_WORDS:
            mapper = partial(_threaded_map, workers=workers)
        if mapper is None:
            seeds = (derive_trial_seed(spec.master_seed, grid_index, t) for t in range(spec.trials))
            results = kind_trials(params, seeds)
        else:
            chunk = partial(_chunk, kind_trials, params, spec.master_seed, grid_index, spec.trials)
            results = chain.from_iterable(mapper(chunk, range(0, spec.trials, _CHUNK)))
        records.append(aggregate(spec, point, results))
    return ExperimentResult(spec=spec, records=tuple(records))


def spec_hash(spec: ExperimentSpec) -> str:
    """sha256 of the canonical JSON encoding of the experiment spec."""
    canonical = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _flatten(record) -> list[tuple[str, object]]:
    """(name, value) entries in field order, which is the report's column order."""
    return [(field.name, getattr(record, field.name)) for field in fields(record)]


def render_csv(result: ExperimentResult) -> str:
    """Fixed-column CSV with provenance comment lines, stable across reruns."""
    spec = result.spec
    # cells are ints and floats, written by repr (the shortest round trip);
    # tuple fields (the degree-dist pmf) stay out of the CSV
    rows = [[(k, v) for k, v in _flatten(r) if not isinstance(v, tuple)] for r in result.records]
    lines = [
        f"# riglab {__version__}",
        f"# kind={spec.kind} master_seed={spec.master_seed} spec_sha256={spec_hash(spec)}",
        ",".join(name for name, _ in rows[0]),
    ]
    lines.extend(",".join(repr(value) for _, value in row) for row in rows)
    return "\n".join(lines) + "\n"


def render_summary_json(result: ExperimentResult) -> str:
    """JSON summary: tool version, spec echo, spec hash, and all records."""
    payload = {
        "tool": "riglab",
        "version": __version__,
        "kind": result.spec.kind,
        "master_seed": result.spec.master_seed,
        "spec": result.spec.to_dict(),
        "spec_sha256": spec_hash(result.spec),
        "records": [dict(_flatten(rec)) for rec in result.records],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _beside(path: str, tag: str) -> str:
    """A fresh hidden name in `path`'s directory, for a file on its way to or from `path`."""
    directory, name = os.path.split(path)
    return os.path.join(directory, f".{name}.{os.urandom(6).hex()}.{tag}")


def _target(path: str) -> str:
    """The file a write to `path` replaces: the one a symlink resolves to, else `path` itself."""
    return os.path.realpath(path) if os.path.islink(path) else path


def _refuse_targets(*paths) -> None:
    """Refuse, before any file is made, targets (None: stdout) that cannot all be written.

    Two targets that resolve to one file raise ValueError.  A target that is
    a directory, or whose directory is missing or is not a directory, raises
    the error open() would give for it, naming the target.  A target that
    exists and is not a regular file (a FIFO, a device) raises EINVAL, so it
    is never replaced.  A symlink is judged by the file it resolves to, and
    one in a loop raises ELOOP, as open() would.
    """
    paths = [path for path in paths if path is not None]
    for i, path in enumerate(paths):
        for other in paths[:i]:
            _require(os.path.realpath(path) != os.path.realpath(other),
                     f"outputs {other!r} and {path!r} name the same file")
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if os.path.exists(path) and not os.path.isfile(path):
            raise OSError(errno.EINVAL, "not a regular file", path)
        if os.path.islink(_target(path)):  # a loop: realpath stops at a link
            raise OSError(errno.ELOOP, os.strerror(errno.ELOOP), path)
        try:  # a trailing separator makes stat fail as open() would on the directory
            os.stat(os.path.join(os.path.dirname(_target(path)) or os.curdir, ""))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None


def _write_all(texts) -> None:
    """Write each text of `texts`, (path, text) pairs, to its path: all of them or none.

    Every text is first written to a new file beside its target.  Only
    when all are written are they moved into place, each target's older
    file first moved aside.  On any error, an interrupt included, the
    targets already moved get their older files back (or are removed,
    where there was none) and every new file is removed, so no target is
    created or changed.  A symlink target is written at the path it resolves
    to, so the link stays.  A failed write names its target, not the new
    file, and ``_refuse_targets`` runs before any file is made.
    """
    _refuse_targets(*(path for path, _ in texts))
    texts = [(_target(path), text) for path, text in texts]
    fresh, moved = [], []
    try:
        for path, text in texts:
            fresh.append(_beside(path, "new"))
            try:
                with open(fresh[-1], "x") as fh:
                    fh.write(text)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
        for (path, _), new in zip(texts, fresh):
            older = _beside(path, "old") if os.path.lexists(path) else None
            moved.append((path, older))
            if older is not None:
                os.replace(path, older)
            os.replace(new, path)
    except BaseException:
        for path, older in reversed(moved):
            with suppress(OSError):
                if older is None:
                    os.unlink(path)
                else:
                    os.replace(older, path)
        for new in fresh:
            with suppress(OSError):
                os.unlink(new)
        raise
    for _, older in moved:
        if older is not None:
            os.unlink(older)


def write_outputs(result: ExperimentResult, csv_path, json_path, extra=None) -> None:
    """Write the CSV and JSON reports for one experiment result, and any `extra` {path: text}.

    All of them are written or none (see ``_write_all``).
    """
    _write_all([(csv_path, render_csv(result)), (json_path, render_summary_json(result)),
                *(extra or {}).items()])
