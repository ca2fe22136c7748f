import importlib

import pytest

MODULES = ["lattice", "potentials", "assembly", "spectral", "stationary", "thermo",
           "harness", "fitting", "config", "serialize"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"latthermo.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"latthermo.{name}.__all__ names missing attributes: {missing}"
    namespace: dict = {}
    exec(f"from latthermo.{name} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
