import importlib

import pytest

MODULES = [
    "simplexmix",
    "simplexmix.admixture",
    "simplexmix.asymptotics",
    "simplexmix.choquet",
    "simplexmix.cli",
    "simplexmix.hull",
    "simplexmix.polya",
    "simplexmix.simplex",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    # a stale __all__ entry makes `from module import *` raise
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing
    exec(f"from {name} import *", {})


def test_package_exports_are_the_module_lists():
    # each public name is declared once, in its module's __all__; cli is not re-exported
    import simplexmix
    from simplexmix import admixture, asymptotics, choquet, hull, polya, simplex

    modules = (admixture, asymptotics, choquet, hull, polya, simplex)
    assert simplexmix.__all__ == ["__version__", *(name for module in modules for name in module.__all__)]
    assert len(set(simplexmix.__all__)) == len(simplexmix.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(simplexmix, name) is getattr(module, name), (module.__name__, name)
