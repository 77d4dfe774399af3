"""Span tracer that wraps public fairmeasure functions from the outside.

Nothing in the package is edited: the tracer replaces a function object in
every loaded ``fairmeasure`` module namespace that binds it (the home
module, the package's re-exports, and modules that imported the name, such
as ``fairmeasure.cli.minimize``), so calls made inside the package are seen
as well as the benchmark's own.  Spans are kept in memory as
``(name, start, end, parent)`` and written out once, when the run ends.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Children nest strictly inside their parent because the
wrappers run on one thread and record on a stack.
"""
from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

# span name -> (home module, public function name)
SPANS = {
    "solver.minimize": ("fairmeasure.solver", "minimize"),
    "solver.project": ("fairmeasure.solver", "project_capped_simplex"),
    "solver.kkt_residual": ("fairmeasure.solver", "kkt_residual"),
    "solver.check_constraints": ("fairmeasure.solver", "check_constraints"),
    "solver.brute_force": ("fairmeasure.solver", "brute_force_min"),
    "unfairness.m": ("fairmeasure.unfairness", "unfairness_m"),
    "unfairness.n": ("fairmeasure.unfairness", "unfairness_n"),
    "processes.simulate_gbm": ("fairmeasure.processes", "simulate_gbm"),
    "lattice.adaptedness": ("fairmeasure.lattice", "find_adaptedness_violation"),
    "cli.parse_config": ("fairmeasure.cli", "parse_config"),
    "cli.process_csv.write": ("fairmeasure.cli", "write_process_csv"),
    "cli.process_csv.read": ("fairmeasure.cli", "read_process_csv"),
    "cli.measure_csv.write": ("fairmeasure.cli", "write_measure_csv"),
    "cli.measure_csv.read": ("fairmeasure.cli", "read_measure_csv"),
    "cli.report.write": ("fairmeasure.cli", "write_json_report"),
}


def _package_modules(package: str) -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


def _find_original(home: str, attr: str, package: str):
    """The function to wrap: from its home module, else from any package
    module that still binds the name (it may have moved), else None."""
    mod = sys.modules.get(home)
    if mod is not None and callable(getattr(mod, attr, None)):
        return getattr(mod, attr)
    for mod in _package_modules(package):
        if callable(getattr(mod, attr, None)):
            return getattr(mod, attr)
    return None


class Tracer:
    """Install with :meth:`install`, undo with :meth:`uninstall`.

    ``spans`` holds ``(name, start, end, parent)`` tuples, where ``parent``
    is the index of the enclosing span or -1.  ``absent`` lists the span
    names whose function no longer exists, so a refactor that removes a
    wrapped name is reported instead of crashing the benchmark.
    """

    def __init__(self, spans: dict[str, tuple[str, str]] = SPANS,
                 package: str = "fairmeasure", clock=time.perf_counter):
        self.spec = dict(spans)
        self.package = package
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.absent: list[str] = []
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, spans[idx][3])

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self) -> "Tracer":
        # import every submodule first, so names a module imports later
        # cannot keep a wrapper after uninstall
        pkg = sys.modules.get(self.package)
        for info in pkgutil.iter_modules(getattr(pkg, "__path__", [])):
            if not info.name.startswith("_"):
                importlib.import_module(f"{self.package}.{info.name}")
        modules = _package_modules(self.package)
        for span, (home, attr) in self.spec.items():
            original = _find_original(home, attr, self.package)
            if original is None:
                self.absent.append(span)
                continue
            wrapper = self.wrap(span, original)
            bound = []
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        bound.append(f"{mod.__name__}.{key}")
            self.bindings[span] = bound
        return self

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.spec}
        for idx, (name, start, end, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += (end - start) - child_time[idx]
        return out

    def dump(self, path: str) -> None:
        """Write every span, the bindings and the absent names as JSON."""
        names = sorted(self.spec)
        code = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "absent": self.absent,
            "bindings": self.bindings,
            "spans": [[code[n], s, e, p] for n, s, e, p in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
