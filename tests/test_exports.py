import importlib

import pytest


@pytest.mark.parametrize("module", [
    "insertsim",
    "insertsim.arm",
    "insertsim.registration",
    "insertsim.scansim",
])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
