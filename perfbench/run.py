"""Run one fairmeasure benchmark workload and print its metrics.

    python3 perfbench/run.py --workload deep_solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  BLAS/OpenMP threads are pinned to 1 and
``FAIRMEASURE_THREADS`` is unset before numpy is imported.

Times are rescaled to a reference host speed by :mod:`hostclock`: while a
unit of work runs, a frozen reference kernel is timed every 25 ms, so the
shared host's changes of speed cancel out.  ``--trace 0`` reports the
end-to-end metrics: set-up time (median of several imports in fresh
interpreters plus the median of several input builds), the median rescaled
time of the workload's passes over ``--seconds``, peak resident memory and
the mean value ratio.  ``--trace 1`` runs the same untraced passes, then one
traced build, pass and check, and reports the per-layer counts and self
times, the per-call probes, the tracing overhead, the passes' raw wall time
and the median kernel time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count the correctness checks.  The line before it records the
environment.  A full record of the run, and in traced runs every span, is
written under ``.perfbench-runs/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"
THREAD_PINS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                      "VECLIB_MAXIMUM_THREADS")}
SETUP_REPEATS = 9
# Times one import in a fresh interpreter, then rescales it by the reference
# kernel timed right after in the same interpreter.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import fairmeasure; "
                "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
                "import hostclock as h; "
                "print(repr(t * h.REFERENCE_KERNEL_S / h.median_kernel_seconds()))")
PROBE_MIN_CALLS = 5
PROBE_MIN_SECONDS = 0.25


def pin_threads() -> None:
    os.environ.update(THREAD_PINS)
    os.environ.pop("FAIRMEASURE_THREADS", None)


def import_package():
    """Import fairmeasure from this checkout's ``src`` or fail loudly."""
    if not (SRC / "fairmeasure" / "__init__.py").is_file():
        raise SystemExit(f"error: no fairmeasure sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fairmeasure
    if SRC.resolve() not in Path(fairmeasure.__file__).resolve().parents:
        raise SystemExit(f"error: imported fairmeasure from {fairmeasure.__file__}, "
                         f"not from {SRC}")
    return fairmeasure


def median_import_seconds() -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC),
                               str(Path(__file__).resolve().parent)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment(seed: int, workload, dropped: list[str]) -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "FAIRMEASURE_THREADS": os.environ.get("FAIRMEASURE_THREADS"),
        "seed": seed,
        "workload": workload.name,
        "settings": workload.settings,
        "dropped_solver_options": dropped,
    }


def measure_passes(workload, inputs, clock, budget: float, checks, reserve_passes: int = 0):
    """Run passes until the next one (plus ``reserve_passes`` more) would
    overrun ``budget`` wall seconds; at least one.  Returns each pass's
    rescaled and wall times, every kernel time, and the first pass's solves.
    Each pass is checked after its timed section, and its solves must repeat
    the first pass's."""
    times, walls, kernels, first = [], [], [], None
    start = time.perf_counter()
    while True:
        clock.reset()
        outcome = workload.run(inputs, clock)
        times.append(clock.scaled())
        walls.append(clock.wall)
        kernels += clock.samples
        solves = workload.check(inputs, outcome, checks)
        if first is None:
            first = solves
        else:
            same = [(s.value, s.iterations) for s in solves] == \
                   [(s.value, s.iterations) for s in first]
            checks.expect(same, f"{workload.name}: a repeated pass changed its result")
        projected = time.perf_counter() - start + (1 + reserve_passes) * statistics.median(walls)
        if projected > budget:
            return times, walls, kernels, first


def value_ratio(solves) -> float:
    ratios = [s.value / s.base for s in solves if s.base != 0.0]
    return sum(ratios) / len(ratios)


def median_call(fn) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < PROBE_MIN_CALLS or time.perf_counter() - start < PROBE_MIN_SECONDS:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def probes(fm, case, seed: int, absent: list[str]) -> dict[str, float]:
    """Per-call medians of public functions on the workload's own instance at
    its returned measure.  A function a refactor removed reads 0 and is
    listed in ``absent``."""
    import numpy as np
    g, Q, params = case.process, case.measure, case.params
    P = g.lattice.n_paths
    lo, hi = fm.box_bounds(g.lattice, params.N)
    # a point off the box-simplex, so the projection does its full search
    v = Q.weights + np.random.default_rng(seed).normal(0.0, 1.0 / P, P)
    calls = {
        "unfairness.m.call_s": ("unfairness_m", lambda f: f(Q, g, fm.UnfairnessConfig(p=params.p))),
        "unfairness.n.call_s": ("unfairness_n", lambda f: f(Q, g)),
        "solver.kkt_residual.call_s": ("kkt_residual",
                                       lambda f: f(Q, g, params, gradient=case.gradient)),
        "solver.project.call_s": ("project_capped_simplex", lambda f: f(v, lo, hi)),
    }
    out = {}
    for metric, (attr, call) in calls.items():
        fn = getattr(fm, attr, None)
        if fn is None:
            absent.append(metric)
            out[metric] = 0.0
        else:
            out[metric] = median_call(lambda: call(fn))
    return out


def layer_metrics(summary, solves, probe_values, overhead: float, absent: list[str],
                  walls: list[float], kernels: list[float]) -> dict:
    metrics = {}
    mini = summary["solver.minimize"]
    metrics["solver.minimize.calls"] = (mini["calls"], "count")
    metrics["solver.minimize.total_s"] = (mini["total_s"], "s")
    metrics["solver.descent.self_s"] = (mini["self_s"], "s")
    for span, rec in summary.items():
        if span != "solver.minimize":
            metrics[f"{span}.calls"] = (rec["calls"], "count")
            metrics[f"{span}.self_s"] = (rec["self_s"], "s")
    share = summary["solver.project"]["self_s"] / mini["total_s"] if mini["total_s"] else 0.0
    metrics["solver.project.share"] = (share, "ratio")
    metrics["solver.solves"] = (len(solves), "count")
    metrics["solver.iterations"] = (sum(s.iterations for s in solves), "count")
    metrics["solver.start_wins"] = (sum(s.iterations == 0 for s in solves), "count")
    for name, value in probe_values.items():
        metrics[name] = (value, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.absent"] = (len(absent), "count")
    metrics["run.wall_s"] = (statistics.median(walls), "s")
    metrics["host.kernel_s"] = (statistics.median(kernels), "s")
    return metrics


def run(args) -> dict:
    pin_threads()
    fm = import_package()
    from hostclock import HostClock
    from tracer import Tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    workdir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {"environment": environment(args.seed, workload, workloads.dropped_options())}
    try:
        clock = HostClock()
        if args.trace == 0:
            import_s = median_import_seconds()
            builds = []
            for i in range(SETUP_REPEATS):
                clock.reset()
                inputs = clock.time(workload.build, args.seed, str(workdir / f"build{i}"))
                builds.append(clock.scaled())
            times, walls, kernels, solves = measure_passes(workload, inputs, clock,
                                                           args.seconds, checks)
            metrics = {
                "setup_s": (import_s + statistics.median(builds), "s"),
                "run_s": (statistics.median(times), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
                "value_ratio": (value_ratio(solves), "ratio"),
            }
            record.update(import_s=import_s, build_s=builds)
        else:
            inputs = workload.build(args.seed, str(workdir / "build"))
            times, walls, kernels, _ = measure_passes(workload, inputs, clock, args.seconds,
                                                      checks, reserve_passes=1)
            tracer = Tracer()
            with tracer:
                traced_inputs = workload.build(args.seed, str(workdir / "traced"))
                traced_clock = HostClock(sampling=False)
                outcome = workload.run(traced_inputs, traced_clock)
                solves = workload.check(traced_inputs, outcome, checks)
            traced_s = traced_clock.scaled()
            absent = list(tracer.absent)
            probe_values = probes(fm, workload.probe_case(traced_inputs, outcome),
                                  args.seed, absent)
            overhead = traced_s - statistics.median(times)
            metrics = layer_metrics(tracer.summary(), solves, probe_values, overhead, absent,
                                    walls, kernels)
            RUNS.mkdir(exist_ok=True)
            tracer.dump(str(RUNS / f"{workdir.name}-spans.json"))
            record.update(traced_run_s=traced_s, absent=absent, bindings=tracer.bindings)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update(pass_s=times, pass_wall_s=walls, kernel_s=kernels,
                  check_failures=checks.messages, result=result)
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / f"{workdir.name}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print("env " + json.dumps(record["environment"], default=str))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["deep_solve", "oracle_small", "floor_cli", "tiny"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
