"""Layer tracing from outside the program.

``Tracer.install()`` rebinds riglab's public functions to timing wrappers
in every namespace that imported them, so a call made through
``riglab.montecarlo``'s imported copy of ``sample_assignment`` is traced
just like one made through ``riglab.model``.  Calls made inside
``riglab.analytics`` are not rebound, so ``degree_pmf`` keeps its own
internals in its self time.  Spans are kept in memory as
(name, parent index, start, end, grid point) and reduced to per-layer self time by
``reduce_spans``.  ``Tracer.restore()`` puts every original back.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# namespaces that hold copies of the traced functions
NAMESPACES = ("riglab.model", "riglab.montecarlo", "riglab.cli", "riglab")

CLOSED_FORMS = (
    "q_exact",
    "q_approx",
    "zeta_bound",
    "threshold_p",
    "solve_a",
    "conditional_adjacency_prob",
    "total_variation",
)

# (defining module, function name, layer the span is charged to)
TRACED = (
    ("riglab.model", "vertex_substream", "model.vertex_substream"),
    ("riglab.model", "sample_assignment", "model.sample_assignment"),
    ("riglab.model", "project", "model.project"),
    ("riglab.model", "is_connected", "model.is_connected"),
    ("riglab.model", "pair_adjacent", "model.pair_adjacent"),
    ("riglab.montecarlo", "derive_trial_seed", "montecarlo.derive_trial_seed"),
    ("riglab.montecarlo", "sample_degree", "montecarlo.sample_degree"),
    ("riglab.montecarlo", "run_experiment", "montecarlo.run_experiment"),
    ("riglab.montecarlo", "render_csv", "montecarlo.render"),
    ("riglab.montecarlo", "render_summary_json", "montecarlo.render"),
    ("riglab.montecarlo", "write_outputs", "montecarlo.write_outputs"),
    ("riglab.analytics", "degree_pmf", "analytics.degree_pmf"),
    ("riglab.cli", "main", "cli.main"),
) + tuple(("riglab.analytics", name, "analytics.closed_forms") for name in CLOSED_FORMS)

SPEC_PARSE = "montecarlo.spec_parse"

# Per-layer metrics: (name, unit, better, what it should move).  BENCHMARK.json
# lists the same names, units and directions; test_perfbench checks they agree.
LAYER_METRICS = (
    ("model.vertex_substream.calls", "count", "lower",
     "trials_per_s on edge-prob (about half of a trial) and connectivity sparse points; not degree-scaling"),
    ("model.vertex_substream.self_s", "s", "lower",
     "trials_per_s on edge-prob and connectivity sparse points; not degree-scaling"),
    ("model.sample_assignment.calls", "count", "lower",
     "trials_per_s on connectivity and edge-prob; runs in neither degree workload"),
    ("model.sample_assignment.self_s", "s", "lower",
     "trials_per_s on connectivity and edge-prob; runs in neither degree workload"),
    ("model.sample_assignment.uniforms", "count", "lower",
     "trials_per_s on connectivity and edge-prob; runs in neither degree workload"),
    ("model.sample_assignment.useful_vertex_frac", "ratio", "higher",
     "bounds what an early exit can save on connectivity (trials_per_s)"),
    ("model.project.calls", "count", "lower",
     "wall_s and peak_rss_mib on connectivity, mainly the dense point; zero elsewhere"),
    ("model.project.self_s", "s", "lower",
     "wall_s and peak_rss_mib on connectivity, mainly the dense point; zero elsewhere"),
    ("model.project.edges", "count", "lower",
     "wall_s and peak_rss_mib on connectivity, mainly the dense point; zero elsewhere"),
    ("model.is_connected.calls", "count", "lower",
     "wall_s and peak_rss_mib on connectivity, mainly the dense point; zero elsewhere"),
    ("model.is_connected.self_s", "s", "lower",
     "wall_s and peak_rss_mib on connectivity, mainly the dense point; zero elsewhere"),
    ("model.pair_adjacent.calls", "count", "lower", "trials_per_s on edge-prob only"),
    ("model.pair_adjacent.self_s", "s", "lower", "trials_per_s on edge-prob only"),
    ("montecarlo.derive_trial_seed.calls", "count", "lower",
     "trials_per_s on edge-prob, where it is a small share"),
    ("montecarlo.derive_trial_seed.self_s", "s", "lower",
     "trials_per_s on edge-prob, where it is a small share"),
    ("montecarlo.sample_degree.calls", "count", "lower",
     "trials_per_s on degree-scaling, partly on degree-dist"),
    ("montecarlo.sample_degree.self_s", "s", "lower",
     "trials_per_s on degree-scaling, partly on degree-dist"),
    ("montecarlo.run_experiment.self_s", "s", "lower",
     "trials_per_s on all workloads (grid loop, map, aggregation)"),
    ("montecarlo.render.self_s", "s", "lower",
     "wall_s but not trials_per_s; largest on degree-dist"),
    ("montecarlo.render.bytes", "bytes", "lower",
     "wall_s but not trials_per_s; largest on degree-dist"),
    ("montecarlo.write_outputs.self_s", "s", "lower",
     "wall_s but not trials_per_s; largest on degree-dist"),
    ("montecarlo.spec_parse.self_s", "s", "lower", "wall_s, small on every workload"),
    ("cli.main.self_s", "s", "lower", "wall_s, small on every workload"),
    ("analytics.degree_pmf.calls", "count", "lower",
     "wall_s and trials_per_s on degree-dist only"),
    ("analytics.degree_pmf.self_s", "s", "lower",
     "wall_s and trials_per_s on degree-dist only"),
    ("analytics.closed_forms.calls", "count", "lower",
     "trials_per_s, small on every workload"),
    ("analytics.closed_forms.self_s", "s", "lower",
     "trials_per_s, small on every workload"),
    ("trace.overhead_frac", "ratio", "lower",
     "none: traced wall_s over untraced wall_s minus one, to read layer numbers with"),
)


def _first_empty_prefix(sets) -> int:
    """Vertices sampled up to and including the first empty object set."""
    for v, objects in enumerate(sets):
        if not objects:
            return v + 1
    return len(sets)


def _count_sample_assignment(tracer, args, result) -> None:
    params = result.params
    tracer.counts["model.sample_assignment.uniforms"] += params.n * params.m
    tracer.counts["model.sample_assignment.sampled_vertices"] += params.n
    tracer.counts["model.sample_assignment.useful_vertices"] += _first_empty_prefix(result.sets)


def _count_project(tracer, args, result) -> None:
    tracer.counts["model.project.edges"] += len(result.edges)


def _count_render(tracer, args, result) -> None:
    tracer.counts["montecarlo.render.bytes"] += len(result.encode())


def _enter_grid_point(tracer, args, result) -> None:
    # every runner derives a grid point's trial seeds before running its trials
    tracer.point = args[1]


_COUNTERS = {
    "model.sample_assignment": _count_sample_assignment,
    "model.project": _count_project,
    "montecarlo.render": _count_render,
    "montecarlo.derive_trial_seed": _enter_grid_point,
}


class Tracer:
    """Records one span per call of every traced riglab function.

    Use as a context manager; the wrappers are installed on entry and the
    originals restored on exit, even when the traced code raises.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.point = -1
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, func, layer: str):
        spans, stack, clock = self.spans, self._stack, self.clock
        counter = _COUNTERS.get(layer)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            point = self.point
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, parent, start, end, point)
            if counter is not None:
                counter(self, args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in NAMESPACES}
        modules["riglab.analytics"] = importlib.import_module("riglab.analytics")
        try:
            for home, name, layer in TRACED:
                original = getattr(modules[home], name)
                wrapper = self.wrap(original, layer)
                for namespace in NAMESPACES:
                    module = modules[namespace]
                    if getattr(module, name, None) is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)
            spec_cls = modules["riglab.montecarlo"].ExperimentSpec
            bound = spec_cls.__dict__["from_dict"]
            self._saved.append((spec_cls, "from_dict", bound))
            spec_cls.from_dict = classmethod(self.wrap(bound.__func__, SPEC_PARSE))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        """Drop recorded spans and counts; the wrappers stay installed."""
        self.spans.clear()
        self.counts.clear()
        self.point = -1

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def reduce_spans(spans, scale: float = 1.0) -> dict:
    """Per layer: number of calls and self time, in total and per grid point.

    A span's self time is its duration minus the durations of its direct
    children.  The traced program is single-threaded, so children of one
    span never overlap and their durations simply add.  Self times are
    multiplied by `scale`, which converts them to reference seconds
    (refclock.py).  Grid point -1 holds the spans begun outside any grid
    point, such as run_experiment's own.
    """
    child_time = [0.0] * len(spans)
    for layer, parent, start, end, point in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: defaultdict = defaultdict(int)
    self_s: defaultdict = defaultdict(float)
    by_point: defaultdict = defaultdict(lambda: defaultdict(float))
    for index, (layer, parent, start, end, point) in enumerate(spans):
        own = ((end - start) - child_time[index]) * scale
        calls[layer] += 1
        self_s[layer] += own
        by_point[point][layer] += own
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "self_s_by_point": {point: dict(layers) for point, layers in by_point.items()},
    }


def layer_metrics(reduced: dict, counts: dict) -> dict:
    """Flatten one traced experiment call into LAYER_METRICS names (all but the overhead)."""
    out = {}
    for name, _unit, _better, _moves in LAYER_METRICS:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = reduced["calls"].get(layer, 0)
        elif field == "self_s":
            out[name] = reduced["self_s"].get(layer, 0.0)
        elif field == "useful_vertex_frac":
            sampled = counts.get("model.sample_assignment.sampled_vertices", 0)
            useful = counts.get("model.sample_assignment.useful_vertices", 0)
            out[name] = useful / sampled if sampled else 0.0
        elif name != "trace.overhead_frac":
            out[name] = counts.get(name, 0)
    return out
