"""Command line front end.

Subcommands: gen (sample one graph), probe (print one closed-form value),
sweep / degree-dist / degree-scaling (run a JSON experiment spec and write
CSV + JSON reports, optionally with a small static SVG chart).

Exit codes: 0 success, 2 usage or domain error, 3 I/O error, 130 interrupted
(Ctrl-C; no report is written when a run is interrupted).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._version import __version__
from .analytics import (
    q_approx,
    q_exact,
    rate_H,
    solve_a,
    tail_bound,
    threshold_p,
    zeta_bound,
)
from .model import ModelParams, format_assignment, format_edgelist, project, sample_assignment
from .montecarlo import ExperimentSpec, run_experiment, write_outputs
from .montecarlo import _refuse_targets, _write_all

ENV_SEED = "RIG_LAB_SEED"

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _env_seed() -> int:
    raw = os.environ.get(ENV_SEED, "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


def cmd_gen(args) -> int:
    params = ModelParams(n=args.n, m=args.m, p=args.p)
    seed = _env_seed() if args.seed is None else args.seed
    _refuse_targets(args.out, args.assignment_out)
    assignment = sample_assignment(params, seed)
    graph = project(assignment)
    if args.format == "edgelist":
        text = format_edgelist(graph, params, seed)
    else:
        payload = {
            "format": "rig-graph",
            "version": __version__,
            "n": params.n,
            "m": params.m,
            "p": params.p,
            "seed": seed,
            "sets": [list(objects) for objects in assignment.sets],
            "edges": [list(edge) for edge in sorted(graph.edges)],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # the files are written all or none, and only then is stdout written
    outputs = [(args.out, text)]
    if args.assignment_out is not None:
        outputs.append((args.assignment_out, format_assignment(assignment, seed)))
    _write_all([(path, body) for path, body in outputs if path is not None])
    if args.out is None:
        sys.stdout.write(text)
    return 0


_SIDES = ("upper", "lower")

# probe quantity -> (function of the flag values in flag order, flags); a flag
# is (name, type or choices[, help]) and every flag is required
_PROBES = {
    "q-exact": (q_exact, (("m", int), ("p", float))),
    "q-approx": (q_approx, (("m", int), ("p", float))),
    "zeta": (zeta_bound, (("m", int), ("p", float))),
    "H": (rate_H, (("t", float, "argument; 'inf' is accepted"),)),
    "tail-bound": (
        tail_bound, (("trials", int), ("p", float), ("cutoff", float), ("direction", _SIDES))
    ),
    "a-root": (solve_a, (("c", float), ("branch", _SIDES))),
    "threshold-p": (threshold_p, (("alpha", float), ("m", int), ("n", int))),
}


def cmd_probe(args) -> int:
    func, flags = _PROBES[args.quantity]
    value = func(*(getattr(args, flag[0]) for flag in flags))
    # shortest round-trip decimal form
    sys.stdout.write(repr(float(value)) + "\n")
    return 0


# kind -> (record fields for x (also the x label), y, band low and band high; y
# label; the record field, also a spec key, whose spec values split records into series)
_CHARTS = {
    "edge-prob": ("p", "estimate", "ci_low", "ci_high", "adjacency probability", None),
    "connectivity-sweep": ("alpha", "estimate", "ci_low", "ci_high", "connected fraction", "n"),
    "degree-scaling": (
        "n", "ratio_mean", "ratio_q25", "ratio_q75", "mean normalized degree", "alpha"
    ),
}


def _chart_series(result):
    """(x label, y label, [(series label, [(x, y, low, high), ...]), ...])."""
    records = result.records
    if result.spec.kind == "degree-dist":
        series = [[(k, v, v, v) for k, v in enumerate(rec.empirical_pmf)] for rec in records]
        labels = [f"n={rec.n} m={rec.m} p={rec.p}" for rec in records]
        return "degree", "relative frequency", list(zip(labels, series))
    *columns, ylabel, split = _CHARTS[result.spec.kind]
    groups = [("estimate", records)] if split is None else [
        (f"{split}={value}", [rec for rec in records if getattr(rec, split) == value])
        for value in result.spec.to_dict()[split]
    ]
    return columns[0], ylabel, [
        (label, [tuple(getattr(rec, name) for name in columns) for rec in group])
        for label, group in groups
    ]


def render_chart(result) -> str:
    """Minimal static SVG line chart: axes, one polyline per series, CI bands."""
    xlabel, ylabel, series = _chart_series(result)
    width, height = 640.0, 400.0
    left, right, top, bottom = 62.0, 18.0, 24.0, 46.0
    xs = [x for _, pts in series for x, _, _, _ in pts]
    ys = [v for _, pts in series for _, y, lo, hi in pts for v in (y, lo, hi)]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(x: float) -> float:
        return left + (x - x0) / (x1 - x0) * (width - left - right)

    def sy(y: float) -> float:
        return height - bottom - (y - y0) / (y1 - y0) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<line x1="{left:.2f}" y1="{height - bottom:.2f}" x2="{width - right:.2f}" '
        f'y2="{height - bottom:.2f}" stroke="black"/>',
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{height - bottom:.2f}" '
        f'stroke="black"/>',
    ]
    for i in range(5):
        fx = x0 + (x1 - x0) * i / 4
        fy = y0 + (y1 - y0) * i / 4
        parts.append(
            f'<line x1="{sx(fx):.2f}" y1="{height - bottom:.2f}" x2="{sx(fx):.2f}" '
            f'y2="{height - bottom + 4:.2f}" stroke="black"/>'
            f'<text x="{sx(fx):.2f}" y="{height - bottom + 16:.2f}" '
            f'text-anchor="middle">{fx:.4g}</text>'
        )
        parts.append(
            f'<line x1="{left - 4:.2f}" y1="{sy(fy):.2f}" x2="{left:.2f}" y2="{sy(fy):.2f}" '
            f'stroke="black"/>'
            f'<text x="{left - 7:.2f}" y="{sy(fy) + 4:.2f}" text-anchor="end">{fy:.4g}</text>'
        )
    parts.append(
        f'<text x="{(left + width - right) / 2:.2f}" y="{height - 8:.2f}" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{(top + height - bottom) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {(top + height - bottom) / 2:.2f})">{ylabel}</text>'
    )
    for idx, (label, pts) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        if len(pts) > 1 and any(lo != hi for _, _, lo, hi in pts):
            band = [(sx(x), sy(hi)) for x, _, _, hi in pts]
            band += [(sx(x), sy(lo)) for x, _, lo, _ in reversed(pts)]
            band_str = " ".join(f"{bx:.2f},{by:.2f}" for bx, by in band)
            parts.append(f'<polygon points="{band_str}" fill="{color}" fill-opacity="0.15"/>')
        line = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y, _, _ in pts)
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y, _, _ in pts:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>')
        parts.append(
            f'<text x="{width - right - 6:.2f}" y="{top + 14 * (idx + 1):.2f}" '
            f'text-anchor="end" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# experiment subcommand -> (help line, spec kinds it runs)
_EXPERIMENTS = {
    "sweep": ("run an edge-prob or connectivity-sweep spec", ("edge-prob", "connectivity-sweep")),
    "degree-dist": ("run a degree-dist spec", ("degree-dist",)),
    "degree-scaling": ("run a degree-scaling spec", ("degree-scaling",)),
}


def _cmd_experiment(args) -> int:
    with open(args.spec) as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            raise ValueError("spec JSON is nested too deeply") from None
    if isinstance(payload, dict) and "master_seed" not in payload:
        payload["master_seed"] = _env_seed()
    spec = ExperimentSpec.from_dict(payload)
    allowed_kinds = _EXPERIMENTS[args.command][1]
    if spec.kind not in allowed_kinds:
        raise ValueError(
            f"spec kind {spec.kind!r} does not belong to this subcommand "
            f"(expected one of {allowed_kinds})"
        )
    csv_path, json_path, svg_path = args.out + ".csv", args.out + ".json", args.out + ".svg"
    _refuse_targets(csv_path, json_path, svg_path if args.svg else None)
    result = run_experiment(spec)
    chart = {svg_path: render_chart(result)} if args.svg else {}
    write_outputs(result, csv_path, json_path, chart)
    for path in [csv_path, json_path, *chart]:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riglab",
        description="random intersection graph laboratory",
    )
    parser.add_argument("--version", action="version", version=f"riglab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample one graph and print or save it")
    gen.add_argument("--n", type=int, required=True, help="number of vertices")
    gen.add_argument("--m", type=int, required=True, help="number of objects")
    gen.add_argument("--p", type=float, required=True, help="attachment probability")
    gen.add_argument("--format", choices=("edgelist", "json"), default="edgelist")
    gen.add_argument("--out", default=None, help="output file (default stdout)")
    gen.add_argument("--assignment-out", default=None, help="also write per-vertex object sets")
    gen.add_argument("--seed", type=int, help=f"sampling seed (default: ${ENV_SEED}, else 0)")
    gen.set_defaults(func=cmd_gen)

    probe = sub.add_parser("probe", help="print one closed-form quantity")
    quantity = probe.add_subparsers(dest="quantity", required=True)
    for name, (_, flags) in _PROBES.items():
        q = quantity.add_parser(name)
        for flag, kind, *help_text in flags:
            values = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            values["help"] = help_text[0] if help_text else None
            q.add_argument(f"--{flag}", required=True, **values)
        q.set_defaults(func=cmd_probe)

    for command, (help_line, _) in _EXPERIMENTS.items():
        experiment = sub.add_parser(command, help=help_line)
        experiment.add_argument("--spec", required=True, help="path to JSON experiment spec")
        experiment.add_argument(
            "--out", required=True, help="output path prefix (.csv/.json appended)"
        )
        experiment.add_argument("--svg", action="store_true", help="also write an SVG chart")
        experiment.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def entrypoint() -> None:
    sys.exit(main())
