import importlib
import inspect
import pkgutil
import re

import pytest

import fairmeasure

MODULES = {m.name: importlib.import_module(f"fairmeasure.{m.name}")
           for m in pkgutil.iter_modules(fairmeasure.__path__)
           if m.name != "__main__"}   # importing it runs the CLI

NAME = r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*"
# ``name`` and the targets of :meth:, :func: and :class: roles
REFERENCES = re.compile(rf"``({NAME})``|:(?:meth|func|class):`~?({NAME})(?:\(\))?`")


@pytest.mark.parametrize("module", ["lattice", "processes", "solver", "unfairness"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"fairmeasure.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"fairmeasure.{module}.__all__ names missing attributes: {missing}"


def _resolves(name: str, mod) -> bool:
    """Whether a dotted name is an attribute path from the module's own
    names, from one of the package's modules or, for a bare name, from one
    of the module's classes."""
    head, *rest = name.split(".")
    roots = [getattr(mod, head, None), MODULES.get(head)]
    if not rest:
        roots += [vars(cls).get(head) for cls in vars(mod).values()
                  if inspect.isclass(cls) and cls.__module__ == mod.__name__]
    for obj in roots:
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


@pytest.mark.parametrize("module", sorted(MODULES))
def test_docstrings_and_comments_name_only_existing_symbols(module):
    """Every double-backticked name that is dotted or private, and every
    :meth:, :func: or :class: target, in the module's source names something
    that exists, so a rename or a deletion cannot leave a stale reference."""
    mod = MODULES[module]
    stale = []
    for match in REFERENCES.finditer(inspect.getsource(mod)):
        name = match[1] or match[2]
        if match[1] and "." not in name and not name.startswith("_"):
            continue
        if not _resolves(name, mod):
            stale.append(name)
    assert not stale, f"fairmeasure.{module} names symbols that do not exist: {stale}"
