"""Fast self-test of the benchmark harness (about ten seconds).

    python3 perfbench/selftest.py

Checks that

* self times of nested spans add up: a span's self time plus its direct
  children's durations equals its duration, and the self times of all spans
  sum to the duration of the outermost ones (exactly, on a synthetic package
  with a counting clock; to rounding, on a tiny fairmeasure solve);
* the tracer wraps a function in every module namespace that binds it,
  restores them all, and reports a removed name as absent;
* the host clock samples its reference kernel while a unit runs, takes the
  kernel's time out of the unit's wall time, and disarms its timer and
  restores the SIGALRM handler afterwards;
* a run of the tiny workload prints, as its last line, exactly the result
  keys, and every metric BENCHMARK.json names, with its unit, for both
  ``--trace 0`` and ``--trace 1``.

Exits 1 and lists the failures if any check fails.
"""
from __future__ import annotations

import itertools
import json
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def self_times_add_up(tracer, tol: float) -> None:
    spans = tracer.spans
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
            expect(spans[parent][1] <= start and end <= spans[parent][2],
                   "child span outside its parent")
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    summary = tracer.summary()
    total_self = sum(rec["self_s"] for rec in summary.values())
    expect(abs(total_self - roots) <= tol,
           f"self times sum to {total_self!r}, outermost spans last {roots!r}")
    for idx, (name, start, end, _) in enumerate(spans):
        expect(end - start - children[idx] >= -tol, f"{name}: negative self time")
    expect(sum(rec["calls"] for rec in summary.values()) == len(spans), "span count")


def check_synthetic_package() -> None:
    from tracer import Tracer
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    exec("def leaf():\n    return 1\n"
         "def mid():\n    return leaf() + leaf()\n", inner.__dict__)
    pkg.mid = inner.mid          # a re-export, like fairmeasure.minimize
    exec("def top():\n    return mid() + leaf()\n", pkg.__dict__)
    pkg.leaf = inner.leaf
    sys.modules.update({"fakepkg": pkg, "fakepkg.inner": inner})
    try:
        ticks = itertools.count()
        tracer = Tracer({"top": ("fakepkg", "top"), "mid": ("fakepkg.inner", "mid"),
                         "leaf": ("fakepkg.inner", "leaf"),
                         "gone": ("fakepkg.inner", "removed_by_a_refactor")},
                        package="fakepkg", clock=lambda: float(next(ticks)))
        with tracer:
            expect(pkg.mid is inner.mid, "re-export and home bound to different wrappers")
            expect(getattr(pkg.mid, "__wrapped_by_tracer__", False), "re-export not wrapped")
            expect(pkg.top() == 3, "wrapped call changed the result")
        expect(not hasattr(pkg.mid, "__wrapped_by_tracer__"), "re-export not restored")
        expect(not hasattr(inner.leaf, "__wrapped_by_tracer__"), "home binding not restored")
        expect(tracer.absent == ["gone"], f"absent names {tracer.absent}")
        summary = tracer.summary()
        # top: ticks 0..9 (9); mid: 1..6 (5) with leaves 2..3, 4..5; leaf 7..8
        expect(summary["top"] == {"calls": 1, "total_s": 9.0, "self_s": 3.0},
               f"top {summary['top']}")
        expect(summary["mid"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0},
               f"mid {summary['mid']}")
        expect(summary["leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0},
               f"leaf {summary['leaf']}")
        expect(summary["gone"]["calls"] == 0, "absent span has calls")
        self_times_add_up(tracer, 0.0)
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.inner"]


def check_fairmeasure() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import fairmeasure as fm
    from fairmeasure import cli, solver
    from tracer import Tracer
    lat = fm.build_lattice(2, 2)
    vals = np.empty((3, 4, 1))
    vals[0], vals[1, :, 0], vals[2, :, 0] = 1.0, [2, 2, .5, .5], [3, 1.5, .7, .4]
    original = solver.minimize
    tracer = Tracer()
    with tracer:
        for name in ("fairmeasure.minimize", "fairmeasure.solver.minimize",
                     "fairmeasure.cli.minimize"):
            expect(name in tracer.bindings["solver.minimize"], f"{name} not wrapped")
        expect(cli.minimize is fm.minimize and cli.minimize is not original,
               "cli.minimize not wrapped")
        g = fm.LatticeProcess(lat, 1, 1, vals)
        fm.minimize(g, fm.ConstraintParams(N=2.0), fm.SolveOptions(restarts=2, max_iter=20))
    expect(cli.minimize is original and fm.minimize is original, "minimize not restored")
    expect(not tracer.absent, f"absent spans {tracer.absent}")
    summary = tracer.summary()
    for span in ("solver.minimize", "solver.project", "solver.kkt_residual",
                 "solver.check_constraints", "lattice.adaptedness"):
        expect(summary[span]["calls"] > 0, f"{span} never seen")
    self_times_add_up(tracer, 1e-9)


def check_host_clock() -> None:
    import hostclock
    from hostclock import HostClock

    def busy(seconds: float) -> int:
        end, n = time.perf_counter() + seconds, 0
        while time.perf_counter() < end:
            n += 1
        return n

    before = signal.getsignal(signal.SIGALRM)
    clock = HostClock()
    start = time.perf_counter()
    clock.time(busy, 0.3)
    elapsed = time.perf_counter() - start
    expect(len(clock.samples) >= hostclock.MIN_UNIT_SAMPLES,
           f"host clock took {len(clock.samples)} samples in 0.3 s")
    expect(abs(clock.wall + sum(clock.samples) - elapsed) < 0.01,
           f"wall {clock.wall!r} + kernel {sum(clock.samples)!r} != elapsed {elapsed!r}")
    expect(clock.scaled() > 0.0, "host clock scaled time not positive")
    expect(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "interval timer left armed")
    expect(signal.getsignal(signal.SIGALRM) is before, "SIGALRM handler not restored")
    quiet = HostClock(sampling=False)
    quiet.time(busy, 0.05)
    expect(not quiet.samples and quiet.scaled() > 0.0 and len(quiet.samples) == 1,
           "unsampled clock did not fall back to one kernel measurement")


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "tiny", "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            failures.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
               f"trace {trace}: result keys {sorted(result)}")
        expect(result["correct"] is True and result["failed"] == 0
               and result["attempted"] >= 1, f"trace {trace}: checks {result}")
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == wanted, f"trace {trace}: metrics differ from BENCHMARK.json "
                              f"{sorted(set(got) ^ set(wanted))} "
                              f"{[n for n in wanted if got.get(n, wanted[n]) != wanted[n]]}")
        expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
               f"trace {trace}: a metric value is not a number")


def main() -> int:
    sys.path.insert(0, str(HERE))
    check_synthetic_package()
    check_fairmeasure()
    check_host_clock()
    check_runs()
    for message in failures:
        print(f"FAIL {message}")
    print(f"selftest: {'FAILED' if failures else 'OK'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
