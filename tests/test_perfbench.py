"""The benchmark's miniature workload still runs against the package.

``perfbench/run.py`` times the workloads in ``perfbench/workloads.py``; this
runs the ``tiny`` workload, the miniature of all three, through the same
build, run, check and probe steps without timing it, so a change that
breaks what the benchmark calls (a config key that ``build_floor`` writes,
a report key that ``check_floor`` reads) fails here.
"""
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class CallClock:
    """The benchmark's clock without the timing: it calls what it is given."""

    def time(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def test_the_tiny_workload_runs_and_passes_its_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    workloads = importlib.import_module("workloads")
    tiny = workloads.WORKLOADS["tiny"]
    inputs = tiny.build(1, str(tmp_path))
    outcome = tiny.run(inputs, CallClock())
    checks = workloads.Checks()
    solves = tiny.check(inputs, outcome, checks)
    assert checks.failed == 0, checks.messages
    assert checks.attempted == 6 and [s.label for s in solves] == ["tiny", "floor"]
    case = tiny.probe_case(inputs, outcome)
    assert case.measure.lattice == case.process.lattice
