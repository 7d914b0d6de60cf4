from dataclasses import fields
from pathlib import Path

import riglab
from riglab import analytics, model, montecarlo


def test_public_names_are_the_module_lists():
    assert riglab.__all__ == [
        "__version__", *model.__all__, *analytics.__all__, *montecarlo.__all__
    ]
    assert len(set(riglab.__all__)) == len(riglab.__all__)
    for module in (model, analytics, montecarlo):
        for name in module.__all__:
            assert getattr(riglab, name) is getattr(module, name)


def test_readme_csv_columns_are_the_record_fields():
    # README lists "- `kind`: `col, col, ...`" lines, wrapped, under "CSV columns by kind:"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
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
