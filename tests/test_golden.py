"""Byte-level guard on the CSV and JSON reports and the SVG chart.

Small specs run through the CLI with --svg, one or more per experiment kind,
covering every m_rule kind, n = 1 grid points, integer JSON values (p given
as 0 and 1, integer alpha and beta) that the spec normalizes to floats, and
a sweep that repeats an n and an alpha value.  The sha256 of each written
file is pinned, so any change to the sampling, the aggregation, the row
layout, the spec echo or the chart shows up here, and so are the `wrote`
lines on stdout.  This is the suite's one check of report bytes.  Each chart's
counts of lines, labels, polylines, points and bands are checked too, from
the series it draws, so its structure stays guarded when its digests change.
"""

import hashlib
import json
from collections import Counter
from xml.etree import ElementTree

import pytest

from riglab import ExperimentSpec, run_experiment
from riglab.cli import ENV_SEED, _chart_series, main

CASES = {
    "edge-prob": (
        "sweep",
        {"kind": "edge-prob", "trials": 60, "master_seed": 5,
         "points": [{"m": 1, "p": 0}, {"m": 3, "p": 1}, {"m": 4, "p": 0.3},
                    {"m": 20, "p": 0.05}]},
    ),
    # 300 trials, all on the batched kernel: m = 1 on its Philox lanes, m = 64 and
    # m = 65 on its C rows
    "edge-prob-batched": (
        "sweep",
        {"kind": "edge-prob", "trials": 300, "master_seed": 14,
         "points": [{"m": 1, "p": 0.3}, {"m": 64, "p": 0.02}, {"m": 65, "p": 0.02}]},
    ),
    "connectivity-default-rule": (
        "sweep",
        {"kind": "connectivity-sweep", "trials": 20, "master_seed": 6,
         "n": [1, 5, 9], "alpha": [0.5, 1, 3.0]},
    ),
    "connectivity-power": (
        "sweep",
        {"kind": "connectivity-sweep", "trials": 15, "master_seed": 7,
         "n": [1, 4, 16], "alpha": [0.25, 2.0], "m_rule": {"kind": "power", "beta": 1}},
    ),
    # a repeated n gives a repeated series, a repeated alpha a repeated x
    "connectivity-repeated-values": (
        "sweep",
        {"kind": "connectivity-sweep", "trials": 12, "master_seed": 13,
         "n": [4, 6, 4], "alpha": [1.0, 0.5, 1.0], "m_rule": {"kind": "fixed", "m": 4}},
    ),
    "connectivity-fixed": (
        "sweep",
        {"kind": "connectivity-sweep", "trials": 15, "master_seed": 8,
         "n": [3, 7], "alpha": [1.0], "m_rule": {"kind": "fixed", "m": 3}},
    ),
    "degree-dist": (
        "degree-dist",
        {"kind": "degree-dist", "trials": 200, "master_seed": 9,
         "points": [{"n": 1, "m": 2, "p": 0.5}, {"n": 6, "m": 3, "p": 0},
                    {"n": 5, "m": 4, "p": 1}, {"n": 8, "m": 5, "p": 0.25}]},
    ),
    "degree-scaling-equal-n": (
        "degree-scaling",
        {"kind": "degree-scaling", "trials": 40, "master_seed": 10,
         "n": [1, 30, 100], "alpha": [0.25, 0.5], "c": 0.75,
         "m_rule": {"kind": "equal-n"}},
    ),
    "degree-scaling-power": (
        "degree-scaling",
        {"kind": "degree-scaling", "trials": 30, "master_seed": 11,
         "n": [20, 50], "alpha": [0.5], "c": 0.5,
         "m_rule": {"kind": "power", "beta": 1.5}},
    ),
    "degree-scaling-fixed": (
        "degree-scaling",
        {"kind": "degree-scaling", "trials": 30, "master_seed": 12,
         "n": [25], "alpha": [0.75], "c": 0.25, "m_rule": {"kind": "fixed", "m": 7}},
    ),
}

# (sha256 of <out>.csv, sha256 of <out>.json, sha256 of <out>.svg)
GOLDEN = {
    'connectivity-default-rule': (
        '60374bfb65b87aaff1f515e6cca0566369d3507d0bd96a0565e777e7a61102b9',
        'b2b0a78bf9dc5b622465650e65fb1ceb38433fd28b95581ec45281520551251e',
        'eb72bb6696a2b6d7235c764fa8d88621afe8256d7cc88004df1cbf35e62849ca',
    ),
    'connectivity-fixed': (
        '39307728b1a7ea8d0f229191b0166b030996cbc8f719257ad9f8ff27f05ca882',
        '384b9aa25b6dfcdf34870fc0518ffeb1769a2489b698251dc353da33ca1e2096',
        'fcf1858ac7687193788749dd3cb048c78bc6ede85cf0ed4743c53019f0a259a4',
    ),
    'connectivity-power': (
        'e013e42b96317178d33338c9ef4056607bab909ee568155fc91946f07635d5b5',
        '6a2b97e32d0fb6fc5b2bf7893cfb9fa13cbf4ff8c8e08d9535b0f45656aa67be',
        '6fc7b4ac291b86127d104bfd76e23ff92f4c7d3043b8046a775424b91d0c8cb0',
    ),
    'connectivity-repeated-values': (
        '92442bf5487bff1a584a85f450a40abde83f4843ae2d58d283a428ab43e5bd58',
        'd60d5cc74b2b6d5741c0a97953f3069b850e3783a7a7217d04a475732d7e199a',
        'ba6e08822bf8300cdaa2b0c4719c5150b4abb0f014da93417b6d0786506cd2f8',
    ),
    'degree-dist': (
        '4d42d350d6bfd8d3c2bf434f1b97fd52462581fb722d3a195c1e55a07005ba1f',
        'e10a9b53748d1f6301c48e89c0fe25789c52eb5b2501c9aae3882f39f6614294',
        'aefb105b6e47935e0f20835b9fb80c80c55b244b60178715098c5a87ae460617',
    ),
    'degree-scaling-equal-n': (
        'a8a5c9e2036b6bb8b1db4e9777774892b163e29af4fbacf0682a1f66bd6b094d',
        '2f7409a86ed2f7c5315d20566228c06679aa79fb3009a47071415d1135cc2e98',
        '90b9795cabcbd18eafd1b4590e89e697f99c1d37b8c7e102425b573d40e9c872',
    ),
    'degree-scaling-fixed': (
        '813cddd4e744ebbc1e703896e5b6252ee2bb334ec52c8a7313abf91d4f9b4bc2',
        '3af124aeae8e6b6d2b9fc4e752bb764b39f79ad89795a3eae4586a9c4c451ab8',
        'e77b90dd8deb163d108c34a57baf2fa41a1364a7f1ec39bac0f68bbe1c720791',
    ),
    'degree-scaling-power': (
        'c875bcedbff87287b3a79de3067491cf89a33f3f9c49694667972522e5d228a8',
        'e51cb1299d91ab65a6749bbf4f5fe48af4264269e082f72367397a347a7e0b64',
        '2f505678c76d91eec5b9e4d3baaae74cb10f4d1ae238a9099a9f5aa3dc996019',
    ),
    'edge-prob': (
        '842d597dbb338c90a275f6e56b4895dfb2159a7ba18fa10f83deb0f55ef1b963',
        '96b6cbd24796407e329f39332e7dd29ad226f2b543ae278a64a4be3cbe262bc6',
        'ea0d99eae78d142ae9a83f7a1198a8a91315d0f545ad00bb2140926993a6d31c',
    ),
    'edge-prob-batched': (
        '8fe03dfb896c5fd0d14338415d23dfa54a60cc581e3041e227871f5713151bee',
        '25183b9989425bd3a3b14a1daf5b59ff80be8a0c066f653f2098448b9cbaf954',
        'a7c947fd3fdbfdf03960b6eae27d3d70be4761a317c0564556267f2b84273316',
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_SEED, raising=False)
    command, spec = CASES[name]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "report"
    assert main([command, "--spec", str(spec_path), "--out", str(out), "--svg"]) == 0
    extensions = ("csv", "json", "svg")
    assert capsys.readouterr().out.splitlines() == [f"wrote {out}.{ext}" for ext in extensions]
    # the chart's structure, counted from the series it draws, holds whatever its bytes become
    _, _, series = _chart_series(run_experiment(ExperimentSpec.from_dict(spec)))
    svg = ElementTree.parse(tmp_path / "report.svg").getroot()
    counts = Counter(element.tag.rpartition("}")[2] for element in svg.iter())
    banded = [pts for _, pts in series if len(pts) > 1 and any(lo != hi for *_, lo, hi in pts)]
    assert counts["line"] == 2 + 10  # the axes, and five ticks on each
    assert counts["text"] == 10 + 2 + len(series)  # tick and axis labels, one legend label each
    assert counts["polyline"] == len(series)
    assert counts["circle"] == sum(len(pts) for _, pts in series)
    assert counts["polygon"] == len(banded)
    digests = tuple(
        hashlib.sha256((tmp_path / f"report.{ext}").read_bytes()).hexdigest()
        for ext in extensions
    )
    assert digests == GOLDEN[name]
