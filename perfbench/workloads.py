"""The four benchmark workloads: one riglab experiment spec per experiment kind.

Each workload is a spec template; the benchmark's ``--seed`` becomes the
spec's ``master_seed`` and is the only thing that varies between runs.
Floats are written as floats so that the spec file is already in the
canonical form riglab echoes back (see ``checks.spec_sha256``).
"""

from __future__ import annotations

# why each workload exists is recorded in BENCHMARK.json; the comments below
# note the layer each one is sized to stress
_TEMPLATES = {
    # many ~80 us two-vertex trials: per-trial fixed cost (two Philox
    # constructions, dataclass validation, seed hash) dominates
    "edge-prob": (
        "sweep",
        {
            "kind": "edge-prob",
            "trials": 3000,
            "points": [
                {"m": 1, "p": 0.3},
                {"m": 2, "p": 0.5},
                {"m": 50, "p": 0.02},
                {"m": 100, "p": 0.01},
            ],
        },
    ),
    # few trials at large n; alpha = 0.3 at n = 1600 is the dense point where
    # project + is_connected dominate and set the peak memory
    "connectivity": (
        "sweep",
        {
            "kind": "connectivity-sweep",
            "trials": 2,
            "n": [400, 1600],
            "alpha": [0.3, 1.0, 3.0],
            "m_rule": {"kind": "equal-n"},
        },
    ),
    # degree_pmf("exact-mixture") takes over half the run and runs nowhere
    # else; lengthen with large points, not trials, so that share holds
    "degree-dist": (
        "degree-dist",
        {
            "kind": "degree-dist",
            "trials": 1000,
            "points": [
                {"n": 4, "m": 2, "p": 0.5},
                {"n": 400, "m": 400, "p": 0.05},
                {"n": 2000, "m": 2000, "p": 0.02},
                {"n": 4000, "m": 1000, "p": 0.05},
            ],
        },
    ),
    # sample_degree draws ~n uniforms from only two streams, so the uniform
    # draw dominates and stream creation is a small share
    "degree-scaling": (
        "degree-scaling",
        {
            "kind": "degree-scaling",
            "trials": 600,
            "n": [2500, 10000, 40000],
            "alpha": [0.5],
            "c": 0.5,
            "m_rule": {"kind": "equal-n"},
        },
    ),
}

WORKLOADS = tuple(_TEMPLATES)


def spec_for(workload: str, seed: int) -> tuple[str, dict]:
    """Return (CLI subcommand, spec dict) for one workload at one seed."""
    command, template = _TEMPLATES[workload]
    spec = {"kind": template["kind"], "master_seed": seed}
    spec.update((key, value) for key, value in template.items() if key != "kind")
    return command, spec


def grid_labels(spec: dict) -> list[str]:
    """One label per grid point, in the order riglab runs them."""
    if "points" in spec:
        return [" ".join(f"{k}={v}" for k, v in point.items()) for point in spec["points"]]
    return [f"n={n} alpha={alpha}" for n in spec["n"] for alpha in spec["alpha"]]


def total_trials(spec: dict) -> int:
    return spec["trials"] * len(grid_labels(spec))
