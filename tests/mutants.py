"""The mutation ledger: small faults in src/, each with the tests that must catch it.

Usage::

    python tests/mutants.py

Each row of ``ROWS`` names a file under src/, an exact ``old`` text that
occurs once in it, the ``new`` text that replaces it, and the tests, as
``path::function``, that must fail on the result.  For each row, src/,
tests/ and pyproject.toml are copied into a temporary directory, the row is
applied there, and pytest runs the row's tests against that copy.  The
working tree is never edited.  The rows run on one worker thread per usable
core, each driving its own pytest subprocess, and are reported in row order.

A row is reported as:

- killed: every test it names fails;
- survived: one of them passes;
- stale: its ``old`` text does not occur exactly once, or a test it names
  did not run.

The run exits 1 when any row survives or is stale, and 0 otherwise.  A
change that adds a check adds its row here; ``tests/test_mutants.py``
checks, within the suite, that every row still applies and names tests
that exist.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parents[1]


class Row(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


_RUNNER = ("tests/test_montecarlo.py::"
           "test_the_default_runner_threads_a_point_from_8192_words_per_stream")
_IN_THE_WAY = "tests/test_montecarlo.py::test_a_new_file_that_cannot_be_made_is_named_by_its_target"
_LANES = ("tests/test_model.py::test_batched_philox_matches_independent_philox",
          "tests/test_montecarlo.py::test_edge_prob_runs_straddle_the_batch_rule")
_KERNEL = (
    "tests/test_model.py::test_batched_pair_trials_match_the_assignment",
    "tests/test_model.py::test_batched_pair_trials_stop_at_one_block",
    "tests/test_montecarlo.py::test_chunk_starts_reach_map_fn_as_one_lazy_range_per_point",
    "tests/test_montecarlo.py::test_no_list_of_starts_or_seeds_is_built_even_at_2_to_the_64_trials",
)
_PAIR_SEEDS = "tests/test_model.py::test_batched_pair_trials_match_the_assignment"
_GOLDEN = "tests/test_golden.py::test_report_bytes_are_pinned"
_ROWS = "tests/test_model.py::test_long_rows_reseat_the_threads_philox_for_stream_0_only"
_SEEDS = ("tests/test_montecarlo.py::test_trial_seeds_match_the_oracle_across_blocks",
          "tests/test_montecarlo.py::test_derive_trial_seed_is_stable", _GOLDEN)
_COMPARE = "tests/test_model.py::test_raw_compare_matches_the_uniform_compare_at_the_bound"
_TINY = "tests/test_analytics.py::test_degree_pmf_keeps_a_term_below_1e_290_in_a_run_of_its_own"
_TERM_RUNS = "tests/test_analytics.py::test_degree_pmf_evaluates_its_terms_in_runs_of_at_most_8192_values"
_BIT_IDENTITY = "tests/test_analytics.py::test_degree_pmf_windows_change_no_bit"
_JOINED = ("tests/test_model.py::"
           "test_sample_connected_reads_later_rows_to_their_first_attachment_once_joined")
_LATER_EMPTY = "tests/test_model.py::test_sample_connected_answers_false_at_an_empty_later_row"
_SPLIT = ("tests/test_model.py::"
          "test_sample_connected_goes_on_with_full_rows_when_the_owning_rows_are_split")
_DENSE = "tests/test_model.py::test_sample_connected_raw_words_at_the_dense_workload_point"
_LAW_ERROR = ("tests/test_cli.py::"
              "test_a_law_error_on_the_laws_helper_exits_2_after_its_points_trials")

ROWS = (
    Row("runner-rule-includes-8192-words", "src/riglab/montecarlo.py",
        "words(params) >= _THREADED_WORDS", "words(params) > _THREADED_WORDS", (_RUNNER,)),
    Row("degree-words-average-both-streams", "src/riglab/montecarlo.py",
        "return (params.m + params.n - 1) / 2", "return params.m", (_RUNNER,)),
    Row("runner-needs-two-cores", "src/riglab/montecarlo.py",
        "mapper is None and workers > 1 and words(params)", "mapper is None and words(params)",
        (_RUNNER,)),
    Row("degree-scaling-reads-degree-words", "src/riglab/montecarlo.py",
        '"degree-scaling": (_degree_trials, _degree_words,',
        '"degree-scaling": (_degree_trials, _row_words,', (_RUNNER,)),
    Row("usable-cores-falls-back-to-cpu-count", "src/riglab/montecarlo.py",
        "return os.cpu_count() or 1", "return 1",
        ("tests/test_montecarlo.py::test_usable_cores_without_an_affinity_call_is_the_cpu_count",)),
    Row("restore-removes-a-target-it-made", "src/riglab/montecarlo.py",
        "if older is None:\n                    os.unlink(path)",
        "if older is None:\n                    pass",
        ("tests/test_cli.py::test_a_failed_move_into_place_restores_every_target",)),
    Row("failed-write-names-its-target", "src/riglab/montecarlo.py",
        "fresh.pop()\n                raise OSError(exc.errno, exc.strerror, path) from None",
        "fresh.pop()\n                raise", (_IN_THE_WAY,)),
    Row("a-file-in-the-way-is-not-removed", "src/riglab/montecarlo.py",
        "                    fresh.pop()\n", "                    pass\n", (_IN_THE_WAY,)),
    Row("rows-connected-stops-at-an-isolated-vertex", "src/riglab/model.py",
        "    kept = []\n    for row in rows:\n        if not len(row) and n > 1:\n            return False\n",
        "    kept = []\n    for row in rows:\n", (_SPLIT,)),
    Row("sample-connected-stops-at-an-isolated-vertex", "src/riglab/model.py",
        "            return False\n        kept.append(row)\n        owned[row] = True\n",
        "            pass\n        kept.append(row)\n        owned[row] = True\n",
        ("tests/test_montecarlo.py::test_sample_connected_stops_at_the_first_isolated_vertex",)),
    Row("later-rows-reseat-their-own-stream", "src/riglab/model.py",
        "range(len(kept), n):\n        vertex_substream(seed, v,",
        "range(len(kept), n):\n        vertex_substream(seed, v + 1,", (_JOINED, _LATER_EMPTY, _DENSE)),
    Row("an-empty-later-row-is-isolated", "src/riglab/model.py",
        "        else:\n            return False\n    return True\n",
        "        else:\n            return True\n    return True\n", (_LATER_EMPTY,)),
    Row("owning-rows-are-labelled-before-the-later-reads", "src/riglab/model.py",
        "    if not _rows_connected(len(kept), m, kept):\n        return _rows_connected(n, m, chain(kept, rows))\n",
        "", (_JOINED, _SPLIT)),
    Row("later-rows-read-past-their-first-step", "src/riglab/model.py",
        "for start in range(0, m, step):", "for start in range(0, min(m, step), step):",
        (_JOINED, _DENSE)),
    Row("wilson-z-is-the-exact-quantile", "src/riglab/montecarlo.py",
        "_Z95 = 1.959963984540054", "_Z95 = 1.96",
        ("tests/test_montecarlo.py::test_wilson_interval_matches_the_exact_interval_within_32_ulp",)),
    Row("philox-bumps-its-key-each-round", "src/riglab/model.py",
        "key += _PHILOX_BUMP", "key += _PHILOX_BUMP * np.uint64(0)",
        (*_LANES, *_KERNEL, _GOLDEN)),
    Row("mulhilo-keeps-its-carry", "src/riglab/model.py",
        "hi += carry >> _SHIFT32", "hi += carry >> _SHIFT32 >> _SHIFT32",
        (*_LANES, *_KERNEL, _GOLDEN)),
    Row("pair-hits-count-blocks-from-1", "src/riglab/model.py",
        "np.tile(np.arange(1, blocks + 1, dtype=np.uint64), group)",
        "np.tile(np.arange(blocks, dtype=np.uint64), group)", (*_KERNEL, _GOLDEN)),
    Row("pair-hits-read-stream-1-at-stream-0s-blocks", "src/riglab/model.py",
        "_philox(one, counter[kept])", "_philox(one, counter[kept] + np.uint64(1))",
        (*_KERNEL, _GOLDEN)),
    Row("pair-hits-keep-lanes-hit-at-word-3", "src/riglab/model.py",
        "kept = first.any(axis=1)", "kept = first[:, :3].any(axis=1)", (_PAIR_SEEDS,)),
    Row("pair-hits-mask-words-past-m", "src/riglab/model.py",
        "        first.reshape(len(batch), -1)[:, m:] = False", "        pass", (_PAIR_SEEDS,)),
    Row("pair-hits-lanes-up-to-lane-blocks", "src/riglab/model.py",
        "blocks <= _LANE_BLOCKS", "blocks < _LANE_BLOCKS", (_ROWS,)),
    Row("pair-hits-rows-read-stream-0", "src/riglab/model.py",
        "            vertex_substream(seed, 0, bit_generator=philox)\n",
        "            vertex_substream(seed, 1, bit_generator=philox)\n",
        (_ROWS, _PAIR_SEEDS, _GOLDEN)),
    Row("pair-hits-rows-are-whole-blocks", "src/riglab/model.py",
        "philox.random_raw(4 * blocks)", "philox.random_raw(m)", (_PAIR_SEEDS, _GOLDEN)),
    Row("trial-seeds-pack-the-trial-little-endian", "src/riglab/montecarlo.py",
        't.to_bytes(8, "little")', 't.to_bytes(8, "big")', _SEEDS),
    Row("trial-seeds-prefix-is-master-then-grid", "src/riglab/montecarlo.py",
        'struct.pack("<QQ", master_seed & _MASK64, grid_index & _MASK64)',
        'struct.pack("<QQ", grid_index & _MASK64, master_seed & _MASK64)', _SEEDS),
    Row("below-blocks-are-8192-words", "src/riglab/model.py",
        "range(0, shape[-1], _BLOCK)", "range(0, shape[-1], _BLOCK // 2)",
        (_COMPARE, "tests/test_model.py::test_object_rows_follow_independent_philox",
         "tests/test_model.py::test_sample_degree_follows_independent_philox")),
    Row("below-holds-its-decisions-before-drawing", "src/riglab/model.py",
        """    below = np.empty(shape, dtype=bool)
    for start in range(0, shape[-1], _BLOCK):
        block = below[..., start : start + _BLOCK]
        block[...] = _below(draw, block.shape, limit)
    return below
""",
        """    blocks = [_below(draw, (*shape[:-1], min(_BLOCK, shape[-1] - start)), limit)
              for start in range(0, shape[-1], _BLOCK)]
    return np.concatenate(blocks, axis=-1)
""",
        ("tests/test_model.py::test_below_makes_its_decision_array_before_the_first_draw",)),
    Row("threaded-map-skips-jobs-after-a-stop", "src/riglab/montecarlo.py",
        "            if stopped:\n                continue\n", "",
        ("tests/test_montecarlo.py::test_threaded_runner_skips_the_items_queued_when_the_caller_stops",)),
    Row("below-compares-strictly", "src/riglab/model.py",
        "return draw(shape) < limit", "return draw(shape) <= limit", (_COMPARE,)),
    Row("laws-on-a-helper-only-from-two-cores", "src/riglab/montecarlo.py",
        "workers=1) if workers > 1 else map", "workers=1) if workers > 0 else map", (_RUNNER,)),
    Row("laws-in-grid-order", "src/riglab/montecarlo.py",
        "laws_map(*laws, spec.grid)", "laws_map(*laws, spec.grid[::-1])", (_GOLDEN,)),
    Row("laws-taken-after-the-points-trials", "src/riglab/montecarlo.py",
        """    empirical = np.bincount(np.fromiter(degrees, np.int64), minlength=n) / spec.trials
    mixture, binomial = next(laws)
""",
        """    mixture, binomial = next(laws)
    empirical = np.bincount(np.fromiter(degrees, np.int64), minlength=n) / spec.trials
""", (_LAW_ERROR,)),
    Row("pmf-runs-keep-a-tiny-share-alone", "src/riglab/analytics.py",
        "tiny = q < _PMF_OVERFLOW_BELOW", "tiny = q < 0.0", (_TINY, _TERM_RUNS)),
    Row("pmf-runs-hold-at-most-8192-values", "src/riglab/analytics.py",
        "_RUN_VALUES = 8192", "_RUN_VALUES = 16384", (_TERM_RUNS,)),
    Row("pmf-runs-offset-each-term", "src/riglab/analytics.py",
        "np.repeat(los[run] - offsets, length)", "np.repeat(los[run], length)",
        (_BIT_IDENTITY, _GOLDEN)),
    Row("threaded-map-holds-2-per-worker", "src/riglab/montecarlo.py",
        "islice(items, 2 * workers - len(slots))", "islice(items, 3 * workers - len(slots))",
        ("tests/test_montecarlo.py::"
         "test_threaded_runner_takes_2_per_worker_items_in_the_call_and_one_per_result",)),
    Row("threaded-map-catches-base-exceptions", "src/riglab/montecarlo.py",
        "except BaseException as exc:", "except Exception as exc:",
        ("tests/test_montecarlo.py::"
         "test_threaded_runner_raises_a_helpers_base_exception_in_the_caller",)),
)


def _failed_tests(root: Path, tests) -> dict:
    """{test id: whether any of its cases failed}, for each named test that ran in `root`."""
    report = root / "report.xml"
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            f"--junitxml={report}", *tests]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=False)
    failed = {}
    if report.exists():
        for case in ElementTree.parse(report).iter("testcase"):
            test = f"{case.get('classname').replace('.', '/')}.py::{case.get('name').split('[')[0]}"
            bad = case.find("failure") is not None or case.find("error") is not None
            failed[test] = failed.get(test, False) or bad
    return failed


def run_row(row: Row) -> tuple[str, str]:
    """(killed, survived or stale; why) for one row, applied to a copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="riglab-mutant-") as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", root)
        target = root / row.file
        text = target.read_text()
        if text.count(row.old) != 1:
            return "stale", f"its old text occurs {text.count(row.old)} times in {row.file}"
        target.write_text(text.replace(row.old, row.new))
        failed = _failed_tests(root, row.tests)
    missing = [test for test in row.tests if test not in failed]
    if missing:
        return "stale", f"did not run: {', '.join(missing)}"
    passed = [test for test in row.tests if not failed[test]]
    return ("survived", f"passed: {', '.join(passed)}") if passed else ("killed", "")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from riglab.montecarlo import _usable_cores

    bad = 0
    with ThreadPoolExecutor(min(_usable_cores(), len(ROWS))) as pool:
        for row, (status, why) in zip(ROWS, pool.map(run_row, ROWS)):
            print(f"{status:8} {row.name}" + (f": {why}" if why else ""), flush=True)
            bad += status != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
