import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import riglab
from riglab import analytics, model, montecarlo

from oracles import reachability_connected

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def test_public_names_are_the_module_lists():
    assert riglab.__all__ == [
        "__version__", *model.__all__, *analytics.__all__, *montecarlo.__all__
    ]
    assert len(set(riglab.__all__)) == len(riglab.__all__)
    for module in (model, analytics, montecarlo):
        for name in module.__all__:
            assert getattr(riglab, name) is getattr(module, name)


def test_importing_the_cli_leaves_scipy_stats_unloaded(tmp_path):
    # degree_pmf needs scipy.special only, its OverflowError fallback included
    # (the second point takes it); scipy.stats would nearly double degree-dist's memory
    spec = tmp_path / "dist.json"
    spec.write_text('{"kind": "degree-dist", "trials": 20, "master_seed": 1, "points": '
                    '[{"n": 5, "m": 3, "p": 0.4}, {"n": 1, "m": 2, "p": 1.1125369292536007e-308}]}')
    code = (
        "import sys, riglab.cli\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded on import'\n"
        "from riglab import degree_pmf\n"
        "pmf = degree_pmf(5, 3, 0.4, 'exact-mixture')\n"
        "assert pmf.shape == (5,) and abs(pmf.sum() - 1.0) < 1e-12, pmf\n"
        "assert 'scipy.special' in sys.modules\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded by degree_pmf'\n"
        f"assert riglab.cli.main(['degree-dist', '--spec', {str(spec)!r}, "
        f"'--out', {str(tmp_path / 'dist')!r}]) == 0\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded by degree-dist'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "dist.csv").read_text().startswith("# riglab")


def test_riglab_starts_on_numpy_alone(tmp_path):
    # gen, probe, sample_degree, the connectivity tests and a connectivity sweep
    # never load any of scipy
    spec = tmp_path / "conn-spec.json"
    spec.write_text('{"kind": "connectivity-sweep", "trials": 5, "master_seed": 1, '
                    '"n": [4, 8], "alpha": [0.5, 1.0]}')
    code = (
        "import sys\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "from riglab.cli import main\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
        f"assert main(['gen', '--n', '30', '--m', '10', '--p', '0.2', '--seed', '4', '--out', {str(tmp_path / 'g.txt')!r}]) == 0\n"
        "assert main(['probe', 'q-exact', '--m', '2', '--p', '0.5']) == 0\n"
        "from riglab import ModelParams, sample_connected, sample_degree\n"
        "sample_degree(ModelParams(50, 9, 0.5), 1)\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
        "print(sample_connected(ModelParams(12, 6, 0.3), 5))\n"
        "from riglab import BipartiteAssignment, is_connected\n"
        "print(is_connected(BipartiteAssignment(ModelParams(3, 4, 0.5), ((0, 3), (3,), (1,)))))\n"
        f"assert main(['sweep', '--spec', {str(spec)!r}, '--out', {str(tmp_path / 'conn')!r}]) == 0\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    probed, sampled, tested, *_ = proc.stdout.splitlines()  # then the sweep's `wrote` lines
    assert probed == "0.4375"
    assignment = model.sample_assignment(model.ModelParams(12, 6, 0.3), 5)
    assert sampled == str(reachability_connected(model.project(assignment)))
    assert tested == "False"
    assert (tmp_path / "g.txt").read_text().startswith("# rig n=30 m=10 p=0.2 seed=4\n")


def test_readme_library_tour_runs(capsys):
    tour = README.read_text().split("## Library quick tour")[1]
    block = tour.split("```python\n")[1].split("```")[0]
    exec(compile(block, "README.md", "exec"), {})
    assert "# riglab" in capsys.readouterr().out  # the rendered CSV's provenance line


def test_readme_csv_columns_are_the_record_fields():
    # README lists "- `kind`: `col, col, ...`" lines, wrapped, under "CSV columns by kind:"
    readme = README.read_text()
    section = readme.split("CSV columns by kind:")[1].split("\n\n")[1]
    listed = {}
    for item in section.split("\n- "):
        kind, columns = item.removeprefix("- ").split(":", 1)
        listed[kind.strip("`")] = " ".join(columns.split()).replace("`", "").split(", ")
    records = {
        "edge-prob": montecarlo.EdgeProbRecord,
        "connectivity-sweep": montecarlo.ConnectivityRecord,
        "degree-dist": montecarlo.DegreeDistRecord,
        "degree-scaling": montecarlo.DegreeScalingRecord,
    }
    assert listed == {
        kind: [f.name for f in fields(cls) if not f.type.startswith("tuple")]
        for kind, cls in records.items()
    }


def test_a_failing_hypothesis_test_is_reported_under_the_warning_filters(tmp_path):
    # On a failure, hypothesis's pytest plugin imports libcst, whose use of the
    # deprecated mypy_extensions.TypedDict would, under `error::DeprecationWarning`,
    # stop pytest with INTERNALERROR and exit 3, losing every later result.
    # Where libcst is not installed nothing warns, and this passes either way.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
    )
    argv = ["-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_fails.py"]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
