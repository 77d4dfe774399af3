"""Batch front door: simulate | calibrate | eval | optimize | verify.

One JSON config drives everything.  File formats are diff-friendly CSV/JSON
with UTF-8 and LF line endings; floats are written with shortest
round-tripping repr so files reload bit-identically.  Exit codes: 0 success,
1 validation or I/O error, 2 infeasible optimization.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ConfigError, FairmeasureError, ParameterError
from .lattice import (AdaptedLattice, LatticeProcess, Measure, build_lattice,
                      uniform_measure)
from .processes import (GbmParams, calibrate_from_prices, read_price_csv,
                        simulate_gbm)
from .solver import ConstraintParams, SolveOptions, minimize
from .unfairness import UnfairnessConfig, unfairness_m, unfairness_n

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


# -- configuration ---------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationSource:
    csv_path: str
    exchanges: list[str] | None  # None = all, in order of first appearance


@dataclass(frozen=True)
class IoPaths:
    process_file: str = "process.csv"
    measure_file: str = "measure.csv"
    report_file: str = "report.json"
    params_file: str = "params.json"


@dataclass(frozen=True)
class RunConfig:
    lattice: AdaptedLattice
    gbm: GbmParams | None
    calibration: CalibrationSource | None
    constraints: ConstraintParams
    solver: SolveOptions
    io: IoPaths
    config_dir: str


def _need(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise ConfigError(f"{where}.{key}: missing required key")
    val = obj[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool):
        raise ConfigError(f"{where}.{key}: expected {getattr(kind, '__name__', kind)}, "
                          f"got {type(val).__name__}")
    return val


def _opt(obj: dict, key: str, kind, where: str, default):
    if key not in obj or obj[key] is None:
        return default
    return _need(obj, key, kind, where)


def _matrix(obj: dict, key: str, where: str) -> np.ndarray:
    raw = _need(obj, key, list, where)
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{key}: expected a rectangular numeric matrix") from None
    if arr.ndim != 2:
        raise ConfigError(f"{where}.{key}: expected a 2-d matrix, got {arr.ndim} dims")
    return arr


def parse_config(path: str) -> RunConfig:
    """Load and validate a run configuration, naming any offending key."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")

    lat_obj = _need(data, "lattice", dict, "config")
    b = _need(lat_obj, "b", int, "lattice")
    K = _need(lat_obj, "K", int, "lattice")
    try:
        lattice = build_lattice(b, K)
    except FairmeasureError as exc:
        raise ConfigError(f"lattice: {exc}") from None

    proc_obj = _need(data, "process", dict, "config")
    gbm = None
    calibration = None
    if ("gbm" in proc_obj) == ("calibration" in proc_obj):
        raise ConfigError("process: exactly one of 'gbm' or 'calibration' is required")
    if "gbm" in proc_obj:
        g = _need(proc_obj, "gbm", dict, "process")
        try:
            gbm = GbmParams(n=_need(g, "n", int, "process.gbm"),
                            d=_need(g, "d", int, "process.gbm"),
                            drift=_matrix(g, "drift", "process.gbm"),
                            vol=_matrix(g, "vol", "process.gbm"),
                            corr=_matrix(g, "corr", "process.gbm"),
                            s0=_matrix(g, "s0", "process.gbm"))
        except FairmeasureError as exc:
            raise ConfigError(f"process.gbm: {exc}") from None
    else:
        cal = _need(proc_obj, "calibration", dict, "process")
        csv_path = _need(cal, "csv", str, "process.calibration")
        exchanges = _opt(cal, "exchanges", list, "process.calibration", None)
        if exchanges is not None and not all(isinstance(e, str) for e in exchanges):
            raise ConfigError("process.calibration.exchanges: expected a list of strings")
        calibration = CalibrationSource(csv_path, exchanges)

    con_obj = _need(data, "constraints", dict, "config")
    N = _need(con_obj, "N", float, "constraints")
    c = _opt(con_obj, "c", float, "constraints", None)
    p = _opt(con_obj, "p", float, "constraints", 2.0)
    objective = _opt(data, "objective", str, "config", "m")
    try:
        constraints = ConstraintParams(N=N, c=c, p=p, objective=objective)
    except FairmeasureError as exc:
        raise ConfigError(f"constraints: {exc}") from None

    sol_obj = _opt(data, "solver", dict, "config", {})
    try:
        solver = SolveOptions(
            max_iter=_opt(sol_obj, "max_iter", int, "solver", 300),
            step=_opt(sol_obj, "step", float, "solver", 1.0),
            tol=_opt(sol_obj, "tol", float, "solver", 1e-9),
            restarts=_opt(sol_obj, "restarts", int, "solver", 8),
            seed=_opt(sol_obj, "seed", int, "solver", 0),
            gradient=_opt(sol_obj, "gradient", str, "solver", "analytic"),
        )
    except FairmeasureError as exc:
        raise ConfigError(f"solver: {exc}") from None

    io_obj = _opt(data, "io", dict, "config", {})
    paths = IoPaths(
        process_file=_opt(io_obj, "process_file", str, "io", "process.csv"),
        measure_file=_opt(io_obj, "measure_file", str, "io", "measure.csv"),
        report_file=_opt(io_obj, "report_file", str, "io", "report.json"),
        params_file=_opt(io_obj, "params_file", str, "io", "params.json"),
    )
    return RunConfig(lattice=lattice, gbm=gbm, calibration=calibration,
                     constraints=constraints, solver=solver, io=paths,
                     config_dir=os.path.dirname(os.path.abspath(path)))


# -- file formats ------------------------------------------------------------------

def write_process_csv(path: str, process: LatticeProcess) -> None:
    """Header path,k,exchange,component,value; base-b digit-string paths."""
    lat = process.lattice
    labels = lat.labels()
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("path,k,exchange,component,value\n")
        for idx in range(lat.n_paths):
            for k in range(lat.depth + 1):
                for i in range(process.n):
                    for j in range(process.d):
                        val = float(process.values[k, idx, i * process.d + j])
                        fh.write(f"{labels[idx]},{k},{i},{j},{val!r}\n")


def read_process_csv(path: str):
    """Parse a process file into (lattice, values, n, d) without validation
    of adaptedness; use :func:`load_process` for the validated object."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["path", "k", "exchange", "component", "value"]:
            raise ParameterError(
                f"{path}: expected header 'path,k,exchange,component,value', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise ParameterError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            label, k_s, i_s, j_s, v_s = row
            if not label or not all(ch.isdigit() for ch in label):
                raise ParameterError(f"{path}:{lineno}: bad path label {label!r}")
            try:
                rows.append((label, int(k_s), int(i_s), int(j_s), float(v_s)))
            except ValueError as exc:
                raise ParameterError(f"{path}:{lineno}: {exc}") from None
            if not math.isfinite(rows[-1][4]):
                raise ParameterError(f"{path}:{lineno}: non-finite value {v_s!r}")
    if not rows:
        raise ParameterError(f"{path}: no data rows")
    K = len(rows[0][0])
    digits = sorted({int(ch) for r in rows for ch in r[0]})
    b = max(digits) + 1
    if b < 2:
        b = 2
    n = max(r[2] for r in rows) + 1
    d = max(r[3] for r in rows) + 1
    lattice = AdaptedLattice(b, K)
    values = np.full((K + 1, lattice.n_paths, n * d), np.nan)
    seen = set()
    for label, k, i, j, val in rows:
        if len(label) != K:
            raise ParameterError(f"{path}: inconsistent path label length {label!r}")
        idx = sum(int(ch) * b ** (K - 1 - pos) for pos, ch in enumerate(label))
        if not (0 <= k <= K and 0 <= i < n and 0 <= j < d):
            raise ParameterError(f"{path}: indices out of range in row {(label, k, i, j)}")
        cell = (idx, k, i, j)
        if cell in seen:
            raise ParameterError(f"{path}: duplicate row for {(label, k, i, j)}")
        seen.add(cell)
        values[k, idx, i * d + j] = val
    if np.any(np.isnan(values)):
        raise ParameterError(f"{path}: incomplete grid; every (path,k,exchange,component) "
                             "combination must appear exactly once")
    return lattice, values, n, d


def load_process(path: str) -> LatticeProcess:
    lattice, values, n, d = read_process_csv(path)
    return LatticeProcess(lattice, n, d, values)


def write_measure_csv(path: str, measure: Measure) -> None:
    lat = measure.lattice
    labels = lat.labels()
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("path,weight\n")
        for idx in range(lat.n_paths):
            fh.write(f"{labels[idx]},{float(measure.weights[idx])!r}\n")


def read_measure_csv(path: str, lattice: AdaptedLattice) -> Measure:
    weights = np.full(lattice.n_paths, np.nan)
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["path", "weight"]:
            raise ParameterError(f"{path}: expected header 'path,weight', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ParameterError(f"{path}:{lineno}: expected 2 fields")
            label, w_s = row
            if len(label) != lattice.depth or not all(ch.isdigit() for ch in label):
                raise ParameterError(f"{path}:{lineno}: bad path label {label!r}")
            idx = sum(int(ch) * lattice.branching ** (lattice.depth - 1 - pos)
                      for pos, ch in enumerate(label))
            if not 0 <= idx < lattice.n_paths:
                raise ParameterError(f"{path}:{lineno}: path {label!r} outside the lattice")
            if idx in seen:
                raise ParameterError(f"{path}:{lineno}: duplicate row for path {label!r}")
            seen.add(idx)
            try:
                weight = float(w_s)
            except ValueError:
                raise ParameterError(f"{path}:{lineno}: bad weight {w_s!r}") from None
            if not math.isfinite(weight):
                raise ParameterError(f"{path}:{lineno}: non-finite weight {w_s!r}")
            weights[idx] = weight
    if np.any(np.isnan(weights)):
        raise ParameterError(f"{path}: missing weights for some paths")
    return Measure(lattice, weights)


def write_json_report(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, ensure_ascii=False)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _gbm_payload(params: GbmParams) -> dict:
    return {
        "n": params.n,
        "d": params.d,
        "drift": params.drift.tolist(),
        "vol": params.vol.tolist(),
        "corr": params.corr.tolist(),
        "s0": params.s0.tolist(),
    }


# -- command helpers ---------------------------------------------------------------

def _resolve_out(out_dir: str, name: str) -> str:
    if os.path.isabs(name):
        return name
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _resolve_in(cfg: RunConfig, out_dir: str, name: str) -> str:
    """Inputs are looked up under --out first, then next to the config."""
    if os.path.isabs(name):
        return name
    candidate = os.path.join(out_dir, name)
    if os.path.exists(candidate):
        return candidate
    return os.path.join(cfg.config_dir, name)


def _calibrated_params(cfg: RunConfig, out_dir: str) -> GbmParams:
    src = cfg.calibration
    series = read_price_csv(_resolve_in(cfg, out_dir, src.csv_path))
    if src.exchanges is not None:
        by_name = {s.exchange: s for s in series}
        missing = [e for e in src.exchanges if e not in by_name]
        if missing:
            raise ConfigError(f"process.calibration.exchanges: not in CSV: {missing}")
        series = [by_name[e] for e in src.exchanges]
    return calibrate_from_prices(series)


def _build_process(cfg: RunConfig, out_dir: str, seed: int) -> LatticeProcess:
    params = cfg.gbm if cfg.gbm is not None else _calibrated_params(cfg, out_dir)
    return simulate_gbm(cfg.lattice, params, seed=seed)


def _obtain_process(cfg: RunConfig, out_dir: str, seed: int) -> LatticeProcess:
    """Prefer an existing process file; otherwise simulate from the config."""
    path = _resolve_in(cfg, out_dir, cfg.io.process_file)
    if os.path.exists(path):
        return load_process(path)
    return _build_process(cfg, out_dir, seed)


# -- commands ------------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig, out_dir: str, seed: int) -> int:
    process = _build_process(cfg, out_dir, seed)
    path = _resolve_out(out_dir, cfg.io.process_file)
    write_process_csv(path, process)
    print(f"wrote {path}: b={cfg.lattice.branching} K={cfg.lattice.depth} "
          f"n={process.n} d={process.d}")
    return EXIT_OK


def cmd_calibrate(cfg: RunConfig, out_dir: str, seed: int) -> int:
    if cfg.calibration is None:
        raise ConfigError("process.calibration: required for the calibrate command")
    params = _calibrated_params(cfg, out_dir)
    path = _resolve_out(out_dir, cfg.io.params_file)
    write_json_report(path, _gbm_payload(params))
    print(f"wrote {path}: calibrated {params.n} exchange(s)")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, out_dir: str, seed: int) -> int:
    process = _obtain_process(cfg, out_dir, seed)
    measure_path = _resolve_in(cfg, out_dir, cfg.io.measure_file)
    if os.path.exists(measure_path):
        measure = read_measure_csv(measure_path, process.lattice)
        measure_src = cfg.io.measure_file
    else:
        measure = uniform_measure(process.lattice)
        measure_src = "uniform"
    p = cfg.constraints.p
    m_val = unfairness_m(measure, process, UnfairnessConfig(p=p))
    n_val = unfairness_n(measure, process)
    payload = {
        "command": "eval",
        "version": __version__,
        "measure": measure_src,
        "p": p,
        "unfairness_m": m_val,
        "unfairness_n": n_val,
    }
    path = _resolve_out(out_dir, cfg.io.report_file)
    write_json_report(path, payload)
    print(f"m(p={p}) = {m_val!r}")
    print(f"n        = {n_val!r}")
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, out_dir: str, seed: int) -> int:
    process = _obtain_process(cfg, out_dir, seed)
    opts = cfg.solver if seed == cfg.solver.seed else \
        SolveOptions(**{**cfg.solver.__dict__, "seed": seed})
    report = minimize(process, cfg.constraints, opts)
    measure_path = _resolve_out(out_dir, cfg.io.measure_file)
    write_measure_csv(measure_path, report.measure)
    payload = {
        "command": "optimize",
        "version": __version__,
        "objective": cfg.constraints.objective,
        "p": cfg.constraints.p,
        "N": cfg.constraints.N,
        "c": cfg.constraints.c,
        "seed": seed,
        "value": report.value,
        "feasible": report.feasible,
        "kkt_residual": report.kkt_residual,
        "iterations": report.iterations,
        "constraint_slacks": report.constraint_slacks,
        "winner": report.winner,
        "restarts": [rec._asdict() for rec in report.restarts],
        "measure_file": cfg.io.measure_file,
    }
    path = _resolve_out(out_dir, cfg.io.report_file)
    write_json_report(path, payload)
    status = "feasible" if report.feasible else "INFEASIBLE"
    print(f"{cfg.constraints.objective}* = {report.value!r} ({status}, "
          f"kkt={report.kkt_residual:.3e}, iters={report.iterations})")
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_verify(cfg: RunConfig, out_dir: str, seed: int) -> int:
    from .verify import run_verification
    results = run_verification(cfg, out_dir, seed)
    failed = 0
    for name, status, detail in results:
        print(f"[{status}] {name}" + (f" -- {detail}" if detail else ""))
        if status == "FAIL":
            failed += 1
    payload = {
        "command": "verify",
        "version": __version__,
        "seed": seed,
        "checks": [{"name": n, "status": s, "detail": d} for n, s, d in results],
        "failed": failed,
    }
    write_json_report(_resolve_out(out_dir, cfg.io.report_file), payload)
    print(f"{len(results)} checks, {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_ERROR


# -- entry point ------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmeasure",
        description="Fairest-measure tools on finite scenario lattices.")
    parser.add_argument("command",
                        choices=["simulate", "calibrate", "eval", "optimize", "verify"])
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=".", help="directory for output files")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's solver seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        seed = cfg.solver.seed if args.seed is None else args.seed
        handler = {
            "simulate": cmd_simulate,
            "calibrate": cmd_calibrate,
            "eval": cmd_eval,
            "optimize": cmd_optimize,
            "verify": cmd_verify,
        }[args.command]
        return handler(cfg, args.out, seed)
    except FairmeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
