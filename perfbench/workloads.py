"""The benchmark's workloads, built from a seed.

Each workload has four parts:

* ``build(seed, workdir)`` makes the inputs (the set-up, timed as ``setup_s``);
* ``run(inputs, clock)`` is the timed section: it times each unit of work
  through a :class:`hostclock.HostClock` and returns the outcome;
* ``check(inputs, outcome, checks)`` runs the correctness checks and returns
  one :class:`Solve` per ``minimize`` call, for ``value_ratio`` and counts;
* ``probe_case(inputs, outcome)`` names the instance and returned measure on
  which the per-call probes run.

Every solver option is pinned explicitly, so a change of default does not
change a workload; the restart seed stays at 0, as in acceptance criterion 6.
In ``deep_solve`` and ``floor_cli`` the benchmark seed drives
``simulate_gbm``, which assigns the moment-matched innovations to branch
digits.  ``oracle_small``'s corpus is criterion 6's, whose oracle grids are
tuned to its instances, so the seed only moves the projection probe's point.
Instance sizes never depend on the seed.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import fairmeasure as fm
from fairmeasure import cli

# SolveOptions as the workloads pin them.  Fields the installed SolveOptions
# no longer has are dropped (and reported) rather than crashing the run.
PINNED_OPTIONS = dict(max_iter=300, step=1.0, tol=1e-9, restarts=4, seed=0,
                      gradient="analytic", fd_step=1e-7, penalty_init=10.0,
                      penalty_growth=10.0, penalty_rounds=6, workers=1)


def solve_options(**overrides) -> fm.SolveOptions:
    wanted = {**PINNED_OPTIONS, **overrides}
    known = {f.name for f in dataclasses.fields(fm.SolveOptions)}
    return fm.SolveOptions(**{k: v for k, v in wanted.items() if k in known})


def dropped_options() -> list[str]:
    known = {f.name for f in dataclasses.fields(fm.SolveOptions)}
    return sorted(set(PINNED_OPTIONS) - known)


def same_value(a: float, b: float) -> bool:
    """Equal up to the last bits of rounding."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


@dataclass
class Solve:
    label: str
    value: float
    base: float
    iterations: int


@dataclass
class ProbeCase:
    process: fm.LatticeProcess
    measure: fm.Measure
    params: fm.ConstraintParams
    gradient: str


@dataclass(frozen=True)
class Workload:
    name: str
    settings: dict
    build: Callable
    run: Callable
    check: Callable
    probe_case: Callable


def objective_value(Q: fm.Measure, g: fm.LatticeProcess,
                    params: fm.ConstraintParams) -> float:
    if params.objective == "m":
        return fm.unfairness_m(Q, g, fm.UnfairnessConfig(p=params.p))
    return fm.unfairness_n(Q, g)


def base_value(g: fm.LatticeProcess, params: fm.ConstraintParams) -> float:
    """The objective at the uniform base measure."""
    return objective_value(fm.uniform_measure(g.lattice), g, params)


def gbm_params(spec: dict) -> fm.GbmParams:
    return fm.GbmParams(n=spec["n"], d=spec["d"],
                        **{k: np.array(spec[k], dtype=float)
                           for k in ("drift", "vol", "corr", "s0")})


# -- deep_solve: minimize on one deep lattice, objective m then n ----------------

DEEP = dict(b=2, K=11, n=1, N=2.0, p=2.0, restarts=4, gradient="analytic")
DEEP_GBM = {"n": 1, "d": 1, "drift": [[0.2]], "vol": [[0.3]], "corr": [[1.0]],
            "s0": [[1.0]]}


def build_deep(seed: int, workdir: str) -> dict:
    lat = fm.build_lattice(DEEP["b"], DEEP["K"])
    g = fm.simulate_gbm(lat, gbm_params(DEEP_GBM), seed=seed)
    opts = solve_options(restarts=DEEP["restarts"], gradient=DEEP["gradient"])
    cases = []
    for objective in ("m", "n"):
        params = fm.ConstraintParams(N=DEEP["N"], p=DEEP["p"], objective=objective)
        cases.append((objective, params, base_value(g, params)))
    return {"g": g, "opts": opts, "cases": cases}


def run_deep(inp: dict, clock):
    return [clock.time(fm.minimize, inp["g"], params, inp["opts"])
            for _, params, _ in inp["cases"]]


def check_deep(inp: dict, reports, checks: Checks) -> list[Solve]:
    g = inp["g"]
    solves = []
    for (label, params, base), rep in zip(inp["cases"], reports):
        feasible = fm.check_constraints(rep.measure, g, params).feasible
        checks.expect(feasible and rep.feasible, f"deep_solve/{label}: report infeasible")
        checks.expect(rep.value <= base,
                      f"deep_solve/{label}: value {rep.value!r} above base {base!r}")
        again = objective_value(rep.measure, g, params)
        checks.expect(same_value(rep.value, again),
                      f"deep_solve/{label}: report.value {rep.value!r} != recomputed {again!r}")
        solves.append(Solve(label, rep.value, base, rep.iterations))
    return solves


def probe_deep(inp: dict, reports) -> ProbeCase:
    _, params, _ = inp["cases"][0]
    return ProbeCase(inp["g"], reports[0].measure, params, DEEP["gradient"])


# -- oracle_small: the criterion-6 kinds of instances, solver against oracle -------

def binomial_process(lat, s0: float, up: float, down: float) -> fm.LatticeProcess:
    """Multiplicative binomial tree: child values are parent*up / parent*down."""
    vals = np.empty((lat.depth + 1, lat.n_paths, 1))
    vals[0] = s0
    factors = np.array([up, down])
    for k in range(lat.depth):
        vals[k + 1, :, 0] = vals[k, :, 0] * factors[lat.digits[:, k]]
    return fm.LatticeProcess(lat, 1, 1, vals)


def random_process(seed: int, lat, low: float = 0.5, high: float = 2.5) -> fm.LatticeProcess:
    """Adapted by construction: one uniform draw per (time, block)."""
    rng = np.random.default_rng(seed)
    vals = np.empty((lat.depth + 1, lat.n_paths, 1))
    for k in range(lat.depth + 1):
        per_block = rng.uniform(low, high, (lat.n_blocks(k), 1))
        vals[k] = np.repeat(per_block, lat.block_size(k), axis=0)
    return fm.LatticeProcess(lat, 1, 1, vals)


def two_asset(lat, pairs) -> fm.LatticeProcess:
    cols = [binomial_process(lat, 1.0, u, d).values for (u, d) in pairs]
    return fm.LatticeProcess(lat, 2, 1, np.concatenate(cols, axis=2))


def grid_correlations(g: fm.LatticeProcess, cand: np.ndarray) -> np.ndarray:
    """Correlation integral of exchanges 0 and 1 at each row of ``cand``,
    computed as the brute-force oracle filters its grid."""
    x_all, y_all = g.values[:, :, 0], g.values[:, :, 1]
    total = np.zeros(cand.shape[0])
    for k in range(1, g.lattice.depth + 1):
        x, y = x_all[k], y_all[k]
        cov = cand @ (x * y) - (cand @ x) * (cand @ y)
        total += g.lattice.dt * cov / (cand @ np.abs(x * y))
    return total


def floor_on_grid(g: fm.LatticeProcess, N: float, share: float = 0.6) -> float:
    """A correlation floor between the unconstrained optimum and the largest
    achievable value, snapped to a point of the oracle's 2-path grid."""
    lo, hi = fm.box_bounds(g.lattice, N)
    grid = np.linspace(lo[0], hi[0], 2001)
    cand = np.column_stack([grid, 1.0 - grid])
    cand = cand[(cand[:, 1] >= lo[1]) & (cand[:, 1] <= hi[1])]
    corr = grid_correlations(g, cand)
    free = fm.brute_force_min(g, fm.ConstraintParams(N=N, p=2.0), resolution=2000)
    at_free = fm.correlation_integral(free.measure, g, 0, 1)
    target = at_free + (float(corr.max()) - at_free) * share
    return float(corr[int(np.argmin(np.abs(corr - target)))])


def oracle_corpus() -> list[tuple]:
    """(name, process, params, gradient, oracle resolution) per instance.

    Two-path instances cover interior and boundary optima, p in {1, 2, 3},
    both objectives and two correlation floors; the p = 1 and n objectives
    are kinked at their zero, so their optima sit on the oracle grid.  The
    four-path instances are smooth, with grid resolutions that keep the
    quantization error well inside the agreement tolerance.
    """
    lat1, lat2, lat4 = fm.build_lattice(2, 1), fm.build_lattice(2, 2), fm.build_lattice(4, 1)
    m = lambda N, p=2.0, c=None: fm.ConstraintParams(N=N, c=c, p=p, objective="m")
    n = lambda N: fm.ConstraintParams(N=N, objective="n")
    cases = [
        ("2p-interior", binomial_process(lat1, 1.0, 2.0, 0.5), m(2.0), "fd", 2000),
        ("2p-boundary", binomial_process(lat1, 1.0, 2.0, 0.5), m(1.2), "fd", 2000),
        ("2p-p1", binomial_process(lat1, 1.0, 1.45, 0.7), m(2.0, 1.0), "fd", 2000),
        ("2p-p1-boundary", binomial_process(lat1, 1.0, 1.8, 0.7), m(1.1, 1.0), "fd", 2000),
        ("2p-p3", binomial_process(lat1, 1.0, 1.5, 0.9), m(2.5, 3.0), "fd", 2000),
        ("2p-wide", binomial_process(lat1, 1.0, 3.0, 0.4), m(1.5), "fd", 2000),
        ("2p-narrow", binomial_process(lat1, 1.0, 1.2, 0.85), m(2.0), "fd", 2000),
        ("2p-narrow-boundary", binomial_process(lat1, 1.0, 1.2, 0.85), m(1.05), "fd", 2000),
        ("2p-n", binomial_process(lat1, 1.0, 1.45, 0.7), n(2.0), "analytic", 2000),
        ("2p-n-boundary", binomial_process(lat1, 1.0, 1.8, 0.7), n(1.15), "analytic", 2000),
    ]
    pair = two_asset(lat1, [(2.0, 0.5), (1.6, 0.7)])
    for idx, N in enumerate((2.0, 1.6)):
        cases.append((f"2p-penalized-{idx}", pair, m(N, c=floor_on_grid(pair, N)), "fd", 2000))
    cases += [
        ("4p-interior", binomial_process(lat2, 1.0, 2.0, 0.5), m(3.2), "fd", 160),
        ("4p-interior-2", binomial_process(lat2, 1.0, 1.6, 0.75), m(3.5), "fd", 96),
        ("4p-boundary", binomial_process(lat2, 1.0, 1.8, 0.6), m(1.3), "fd", 200),
        ("4p-random", random_process(41, lat2), m(2.0), "fd", 96),
        ("4p-random-p1", random_process(42, lat2), m(1.5, 1.0), "fd", 128),
        ("4p-b4", random_process(43, lat4), m(2.0), "fd", 96),
        ("4p-b4-p3", random_process(77, lat4), m(1.4, 3.0), "fd", 160),
        ("4p-b4-p15", random_process(77, lat4), m(1.4, 1.5), "fd", 128),
    ]
    return cases


ORACLE = dict(restarts=4, max_iter=400, probe_instance="4p-b4")


def build_oracle(seed: int, workdir: str) -> dict:
    cases = []
    for name, g, params, grad, resolution in oracle_corpus():
        opts = solve_options(restarts=ORACLE["restarts"], max_iter=ORACLE["max_iter"],
                             gradient=grad)
        cases.append((name, g, params, opts, resolution, base_value(g, params)))
    return {"cases": cases}


def run_oracle(inp: dict, clock):
    out = []
    for _, g, params, opts, resolution, _ in inp["cases"]:
        rep = clock.time(fm.minimize, g, params, opts)
        oracle = clock.time(fm.brute_force_min, g, params, resolution=resolution)
        out.append((rep, oracle))
    return out


def check_oracle(inp: dict, out, checks: Checks) -> list[Solve]:
    solves = []
    for (name, _, _, _, _, base), (rep, oracle) in zip(inp["cases"], out):
        tol = max(1e-4, 1e-3 * oracle.value)
        gap = abs(rep.value - oracle.value)
        checks.expect(gap <= tol, f"oracle_small/{name}: solver {rep.value!r} vs oracle "
                                  f"{oracle.value!r} (gap {gap:.2e} > tol {tol:.2e})")
        solves.append(Solve(name, rep.value, base, rep.iterations))
    return solves


def probe_oracle(inp: dict, out) -> ProbeCase:
    for (name, g, params, opts, _, _), (rep, _) in zip(inp["cases"], out):
        if name == ORACLE["probe_instance"]:
            return ProbeCase(g, rep.measure, params, opts.gradient)
    raise KeyError(ORACLE["probe_instance"])


# -- floor_cli: simulate -> optimize -> eval through the CLI, floor active --------

FLOOR = dict(b=4, K=3, n=3, N=2.0, p=2.0, restarts=4, max_iter=300, gradient="analytic",
             floor_share=0.9,
             gbm={"n": 3, "d": 1, "drift": [[0.3], [0.05], [0.15]],
                  "vol": [[0.4], [0.25], [0.3]],
                  "corr": [[1.0, 0.6, 0.3], [0.6, 1.0, 0.5], [0.3, 0.5, 1.0]],
                  "s0": [[1.0], [1.0], [1.0]]})


def build_floor(seed: int, workdir: str, spec: dict = FLOOR) -> dict:
    """Write the run config.  The floor is a share of the smallest pairwise
    correlation integral at the uniform measure, so the uniform measure is
    feasible and the floor binds at the unconstrained optimum."""
    lat = fm.build_lattice(spec["b"], spec["K"])
    g = fm.simulate_gbm(lat, gbm_params(spec["gbm"]), seed=seed)
    U = fm.uniform_measure(lat)
    smallest = min(fm.correlation_integral(U, g, i, j)
                   for i in range(g.n) for j in range(i + 1, g.n))
    c = spec["floor_share"] * smallest
    params = fm.ConstraintParams(N=spec["N"], c=c, p=spec["p"], objective="m")
    config = {
        "lattice": {"b": spec["b"], "K": spec["K"]},
        "process": {"gbm": spec["gbm"]},
        "constraints": {"N": spec["N"], "c": c, "p": spec["p"]},
        "objective": "m",
        "solver": {"max_iter": spec["max_iter"], "step": PINNED_OPTIONS["step"],
                   "tol": PINNED_OPTIONS["tol"], "restarts": spec["restarts"],
                   "seed": PINNED_OPTIONS["seed"], "gradient": spec["gradient"]},
        "io": {"process_file": "process.csv", "measure_file": "measure.csv",
               "report_file": "report.json"},
    }
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return {"config": path, "workdir": workdir, "seed": seed, "params": params,
            "base": base_value(g, params), "passes": 0}


def _cli(clock, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return clock.time(cli.main, argv)


def run_floor(inp: dict, clock):
    """Time the three commands; the report that ``optimize`` wrote is read
    between ``optimize`` and ``eval`` (which overwrites it), outside the clock."""
    inp["passes"] += 1
    out_dir = os.path.join(inp["workdir"], f"pass{inp['passes']}")
    os.makedirs(out_dir)
    args = ["--config", inp["config"], "--out", out_dir]
    c_sim = _cli(clock, ["simulate", *args, "--seed", str(inp["seed"])])
    c_opt = _cli(clock, ["optimize", *args])
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        optimized = json.load(fh)
    c_eval = _cli(clock, ["eval", *args])
    return {"dir": out_dir, "codes": (c_sim, c_opt, c_eval), "optimized": optimized}


def _floor_files(out: dict):
    process = cli.load_process(os.path.join(out["dir"], "process.csv"))
    measure = cli.read_measure_csv(os.path.join(out["dir"], "measure.csv"), process.lattice)
    return process, measure


def check_floor(inp: dict, out, checks: Checks) -> list[Solve]:
    for cmd, code in zip(("simulate", "optimize", "eval"), out["codes"]):
        checks.expect(code == 0, f"floor_cli/{cmd}: exit code {code}")
    process, measure = _floor_files(out)
    report = fm.check_constraints(measure, process, inp["params"])
    checks.expect(report.feasible, f"floor_cli: measure.csv infeasible {report.summary()}")
    with open(os.path.join(out["dir"], "report.json"), encoding="utf-8") as fh:
        evaluated = json.load(fh)
    value = out["optimized"]["value"]
    checks.expect(same_value(evaluated["unfairness_m"], value),
                  f"floor_cli: eval m {evaluated['unfairness_m']!r} != optimize value {value!r}")
    return [Solve("floor", value, inp["base"], out["optimized"]["iterations"])]


def probe_floor(inp: dict, out) -> ProbeCase:
    process, measure = _floor_files(out)
    return ProbeCase(process, measure, inp["params"], FLOOR["gradient"])


# -- tiny: the harness self-test's miniature of all three -----------------------

TINY = dict(FLOOR, b=3, K=2, n=2, restarts=2, max_iter=30,
            gbm={"n": 2, "d": 1, "drift": [[0.3], [0.1]], "vol": [[0.4], [0.3]],
                 "corr": [[1.0, 0.5], [0.5, 1.0]], "s0": [[1.0], [1.0]]})


def build_tiny(seed: int, workdir: str) -> dict:
    lat = fm.build_lattice(2, 1)
    g = binomial_process(lat, 1.0, 2.0, 0.5)
    params = fm.ConstraintParams(N=2.0, p=2.0, objective="m")
    return {"g": g, "params": params, "base": base_value(g, params),
            "opts": solve_options(restarts=2, max_iter=50, gradient="fd"),
            "floor": build_floor(seed, workdir, TINY)}


def run_tiny(inp: dict, clock):
    rep = clock.time(fm.minimize, inp["g"], inp["params"], inp["opts"])
    oracle = clock.time(fm.brute_force_min, inp["g"], inp["params"], resolution=200)
    return rep, oracle, run_floor(inp["floor"], clock)


def check_tiny(inp: dict, out, checks: Checks) -> list[Solve]:
    rep, oracle, floor_out = out
    checks.expect(abs(rep.value - oracle.value) <= max(1e-4, 1e-3 * oracle.value),
                  f"tiny: solver {rep.value!r} vs oracle {oracle.value!r}")
    return [Solve("tiny", rep.value, inp["base"], rep.iterations),
            *check_floor(inp["floor"], floor_out, checks)]


def probe_tiny(inp: dict, out) -> ProbeCase:
    return ProbeCase(inp["g"], out[0].measure, inp["params"], "fd")


# -- registry -------------------------------------------------------------------------

WORKLOADS = {
    "deep_solve": Workload(
        "deep_solve",
        dict(b=DEEP["b"], K=DEEP["K"], n=DEEP["n"], P=DEEP["b"] ** DEEP["K"],
             objective="m,n", gradient=DEEP["gradient"], restarts=DEEP["restarts"],
             N=DEEP["N"], p=DEEP["p"]),
        build_deep, run_deep, check_deep, probe_deep),
    "oracle_small": Workload(
        "oracle_small",
        dict(b="2,4", K="1,2", n="1,2", P="2,4", objective="m,n",
             gradient="fd for m, analytic for n", restarts=ORACLE["restarts"],
             max_iter=ORACLE["max_iter"], instances=20),
        build_oracle, run_oracle, check_oracle, probe_oracle),
    "floor_cli": Workload(
        "floor_cli",
        dict(b=FLOOR["b"], K=FLOOR["K"], n=FLOOR["n"], P=FLOOR["b"] ** FLOOR["K"],
             objective="m", gradient=FLOOR["gradient"], restarts=FLOOR["restarts"],
             N=FLOOR["N"], p=FLOOR["p"], floor=f"{FLOOR['floor_share']} x smallest at uniform"),
        build_floor, run_floor, check_floor, probe_floor),
    "tiny": Workload(
        "tiny", dict(b="2,3", K="1,2", n="1,2", P="2,9", objective="m",
                     gradient="fd,analytic", restarts=2),
        build_tiny, run_tiny, check_tiny, probe_tiny),
}
