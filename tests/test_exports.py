import importlib

import pytest


@pytest.mark.parametrize("module", ["lattice", "processes", "solver", "unfairness"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"fairmeasure.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"fairmeasure.{module}.__all__ names missing attributes: {missing}"
