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
