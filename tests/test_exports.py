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
