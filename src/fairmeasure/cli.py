"""Batch front door: simulate | calibrate | eval | optimize | verify.

One JSON config drives everything.  File formats are diff-friendly CSV/JSON
with UTF-8 and LF line endings; floats are written with shortest
round-tripping repr so files reload bit-identically.  Exit codes: 0 success,
1 validation or I/O error, 2 infeasible optimization.
"""
from __future__ import annotations

import argparse
import inspect
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from ._descent import STEP, TOL
from .errors import ConfigError, FairmeasureError, ParameterError, SizeBudgetError, quoted
from .lattice import (AdaptedLattice, LatticeProcess, Measure, build_lattice,
                      uniform_measure)
from .processes import (GbmParams, _is_integer, _read_csv, _read_text, calibrate_from_prices,
                        parse_float_field, read_price_csv, simulate_gbm)
from .solver import ConstraintParams, SolveOptions, minimize
from .unfairness import UnfairnessConfig, unfairness_m, unfairness_n

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


# -- configuration ---------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationSource:
    csv: str
    exchanges: list[str] | None = None  # None = all, in order of first appearance

    def __post_init__(self):
        if self.exchanges is not None and not all(isinstance(e, str) for e in self.exchanges):
            raise ParameterError("exchanges: expected a list of strings")
        twice = [e for i, e in enumerate(self.exchanges or []) if e in self.exchanges[:i]]
        if twice:
            raise ParameterError(f"exchanges: {quoted(twice[0])} is listed twice")


@dataclass(frozen=True)
class IoPaths:
    process_file: str = "process.csv"
    measure_file: str = "measure.csv"
    report_file: str = "report.json"
    params_file: str = "params.json"

    def __post_init__(self):
        first: dict[str, str] = {}
        for key, name in vars(self).items():
            if (other := first.setdefault(os.path.normpath(name), key)) != key:
                raise ParameterError(f"{other} and {key} name the same file {quoted(name)}")


@dataclass(frozen=True)
class RunConfig:
    lattice: AdaptedLattice
    gbm: GbmParams | None
    calibration: CalibrationSource | None
    constraints: ConstraintParams
    solver: SolveOptions
    io: IoPaths
    config_dir: str


# Every key each config section accepts, with its JSON type; np.ndarray
# stands for a rectangular numeric matrix given as nested lists.
_CONFIG = {"lattice": dict, "process": dict, "constraints": dict, "objective": str,
           "solver": dict, "io": dict}
_LATTICE = {"b": int, "K": int}
_PROCESS = {"gbm": dict, "calibration": dict}
_GBM = {"n": int, "d": int, "drift": np.ndarray, "vol": np.ndarray, "corr": np.ndarray,
        "s0": np.ndarray}
_CALIBRATION = {"csv": str, "exchanges": list}
_CONSTRAINTS = {"N": float, "c": float, "p": float}
_SOLVER = {"max_iter": int, "restarts": int, "seed": int}
# Solver keys that were options and are now fixed, each with its one value;
# older configs that still name them parse, and any other value is an error.
_RETIRED = {"gradient": "analytic", "step": STEP, "tol": TOL}
_IO = {"process_file": str, "measure_file": str, "report_file": str, "params_file": str}


def _typed(val, kind, where: str):
    if kind is np.ndarray:
        try:
            arr = np.asarray(_typed(val, list, where), dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: expected a rectangular numeric matrix") from None
        if arr.ndim != 2:
            raise ConfigError(f"{where}: expected a 2-d matrix, got {arr.ndim} dims")
        return arr
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def _keys(obj: dict, table: dict, where: str) -> dict:
    """The keys of a config section that are set (present and not null),
    each checked against its type in ``table``; any other key is an error."""
    for key in obj:
        if key not in table:
            raise ConfigError(f"{where}.{key}: unknown key")
    return {key: _typed(val, table[key], f"{where}.{key}")
            for key, val in obj.items() if val is not None}


def _build(make, obj: dict, table: dict, where: str, **extra):
    """``make(**keys)`` from a config section, so that ``make`` supplies the
    default of every key left unset; a key it has no default for is required."""
    kwargs = _keys(obj, table, where)
    for name, param in inspect.signature(make).parameters.items():
        if name in table and name not in kwargs and param.default is param.empty:
            raise ConfigError(f"{where}.{name}: missing required key")
    try:
        return make(**kwargs, **extra)
    except FairmeasureError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_config(path: str) -> RunConfig:
    """Load and validate a run configuration, naming any offending key."""
    try:
        text = _read_text(path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:   # int() raises ValueError on an integer of over 4300 digits
        data = json.loads(text)
    except ValueError as exc:   # without int()'s advice to call sys.set_int_max_str_digits
        reason = str(exc).partition("; use sys.set_int_max_str_digits()")[0]
        raise ConfigError(f"config {path} is not valid JSON: {reason}") from None
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")

    top = _keys(data, _CONFIG, "config")
    lattice = _build(build_lattice, top.get("lattice", {}), _LATTICE, "lattice")
    try:   # every command reads or writes files labelled by the lattice
        lattice._check_labels()
    except ParameterError as exc:
        raise ConfigError(f"lattice: {exc}") from None
    proc = _keys(top.get("process", {}), _PROCESS, "process")
    if ("gbm" in proc) == ("calibration" in proc):
        raise ConfigError("process: exactly one of 'gbm' or 'calibration' is required")
    gbm = calibration = None
    if "gbm" in proc:
        gbm = _build(GbmParams, proc["gbm"], _GBM, "process.gbm")
    else:
        calibration = _build(CalibrationSource, proc["calibration"], _CALIBRATION,
                             "process.calibration")
    objective = {"objective": top["objective"]} if "objective" in top else {}
    constraints = _build(ConstraintParams, top.get("constraints", {}), _CONSTRAINTS,
                         "constraints", **objective)
    solver = dict(top.get("solver", {}))
    for key, fixed in _RETIRED.items():
        val = solver.pop(key, None)
        if val is not None and _typed(val, type(fixed), f"solver.{key}") != fixed:
            raise ConfigError(f"solver.{key}: only {json.dumps(fixed)} is supported; "
                              "the option was removed")
    io = _build(IoPaths, top.get("io", {}), _IO, "io")
    for key, name in vars(io).items():   # an output would overwrite the price file
        if calibration is not None and os.path.normpath(name) == os.path.normpath(calibration.csv):
            raise ConfigError(f"process.calibration.csv and io.{key} name the same file "
                              f"{quoted(calibration.csv)}")
    return RunConfig(lattice=lattice, gbm=gbm, calibration=calibration,
                     constraints=constraints,
                     solver=_build(SolveOptions, solver, _SOLVER, "solver"), io=io,
                     config_dir=os.path.dirname(os.path.abspath(path)))


# -- file formats ------------------------------------------------------------------

def write_process_csv(path: str, process: LatticeProcess) -> None:
    """Header path,k,exchange,component,value; base-b digit-string paths."""
    lat = process.lattice
    cells = itertools.product(lat.labels(), range(lat.depth + 1), range(process.n),
                              range(process.d))
    values = process.values.transpose(1, 0, 2).reshape(-1).tolist()
    lines = (f"{label},{k},{i},{j},{val!r}\n" for (label, k, i, j), val in zip(cells, values))
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("path,k,exchange,component,value\n")
        # one join per 65536 lines: a join of the whole file doubles peak memory
        while chunk := "".join(itertools.islice(lines, 65536)):
            fh.write(chunk)


def _read_path_csv(path: str, columns: list[str], lattice: AdaptedLattice | None = None):
    """The reader of the path-indexed CSV formats.

    ``columns`` is the header: the path label, integer index columns, then
    one float column.  Labels go through the lattice's label codec; the
    lattice is inferred from them when not given.  The rows must fill the
    grid of every path and every index from 0 to its column's largest value
    exactly once.  Returns the lattice and that grid as a float array of
    shape (n_paths, *index extents).
    """
    rows = _read_csv(path, columns, ParameterError)
    if not rows:
        raise ParameterError(f"{path}: no data rows")
    if lattice is None:
        try:
            lattice = AdaptedLattice.for_labels([row[0] for _, row in rows])
        except SizeBudgetError as exc:
            raise SizeBudgetError(f"{path}: {exc}") from None
    names, value_name = columns[1:-1], columns[-1]
    cells: dict[tuple[int, ...], float] = {}
    for line, (label, *indices, text) in rows:
        where = f"{path}:{line}"
        try:
            cell = (lattice.path_index(label),)
        except ParameterError as exc:
            raise ParameterError(f"{where}: {exc}") from None
        for name, index in zip(names, indices):
            try:   # int() raises ValueError on an index of over 4300 digits
                if not (index.isascii() and index.isdigit()):
                    raise ValueError
                cell += (int(index),)
            except ValueError:
                raise ParameterError(f"{where}: bad {name} {quoted(index)}") from None
        try:
            value = parse_float_field(text)
        except ValueError as exc:
            raise ParameterError(f"{where}: {exc} {value_name} {quoted(text)}") from None
        if cell in cells:
            raise ParameterError(f"{where}: duplicate row for {_cell_name(lattice, names, cell)}")
        cells[cell] = value
    shape = (lattice.n_paths, *(max(cell[a] for cell in cells) + 1
                                for a in range(1, len(columns) - 1)))
    if len(cells) != math.prod(shape):
        # the first absent cell is among the first len(cells) + 1 in order
        missing = next(c for c in itertools.product(*map(range, shape)) if c not in cells)
        raise ParameterError(f"{path}: incomplete grid; no row for "
                             f"{_cell_name(lattice, names, missing)}")
    grid = np.empty(shape)
    grid[tuple(np.array(list(cells)).T)] = list(cells.values())
    return lattice, grid


def _cell_name(lattice: AdaptedLattice, names: list[str], cell: tuple[int, ...]) -> str:
    return ", ".join([f"path {lattice.path_label(cell[0])!r}",
                      *(f"{name}={i}" for name, i in zip(names, cell[1:]))])


def read_process_csv(path: str):
    """Parse a process file into (lattice, values, n, d) without validation
    of adaptedness; use :func:`load_process` for the validated object."""
    lattice, grid = _read_path_csv(path, ["path", "k", "exchange", "component", "value"])
    P, times, n, d = grid.shape
    if times != lattice.depth + 1:
        raise ParameterError(f"{path}: k runs over 0..{times - 1}, expected 0..{lattice.depth}")
    return lattice, grid.transpose(1, 0, 2, 3).reshape(times, P, n * d), n, d


def load_process(path: str) -> LatticeProcess:
    lattice, values, n, d = read_process_csv(path)
    try:
        return LatticeProcess(lattice, n, d, values)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None


def write_measure_csv(path: str, measure: Measure) -> None:
    rows = zip(measure.lattice.labels(), measure.weights.tolist())
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("path,weight\n" + "".join(f"{label},{w!r}\n" for label, w in rows))


def read_measure_csv(path: str, lattice: AdaptedLattice) -> Measure:
    _, weights = _read_path_csv(path, ["path", "weight"], lattice)
    try:
        return Measure(lattice, weights)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None


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
    series = read_price_csv(_resolve_in(cfg, out_dir, src.csv))
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
    report = minimize(process, cfg.constraints, cfg.solver)
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
        "gap": report.gap,
        "kkt": report.kkt,
        "lagrangian_gap": report.lagrangian_gap,
        "iterations": report.iterations,
        "constraint_slacks": report.constraint_slacks,
        "winner": report.winner,
        "restarts": [rec._asdict() for rec in report.restarts],
        "measure_file": cfg.io.measure_file,
    }
    path = _resolve_out(out_dir, cfg.io.report_file)
    write_json_report(path, payload)
    status = "feasible" if report.feasible else "INFEASIBLE"
    gap = "" if report.gap is None else f", gap={report.gap:.3e}"
    if report.kkt is not None:
        gap += f", kkt={report.kkt:.3e}"
    print(f"{cfg.constraints.objective}* = {report.value!r} "
          f"({status}{gap}, iters={report.iterations})")
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_verify(cfg: RunConfig, out_dir: str, seed: int) -> int:
    from .verify import run_verification
    results = run_verification(cfg, out_dir, seed)
    failed = 0
    for name, status, detail, seconds in results:
        # the elapsed time goes to stdout only, so the report stays deterministic
        print(f"[{status}] {name}" + (f" -- {detail}" if detail else "") + f" ({seconds:.3f} s)")
        if status == "FAIL":
            failed += 1
    payload = {
        "command": "verify",
        "version": __version__,
        "seed": seed,
        "checks": [{"name": n, "status": s, "detail": d} for n, s, d, _ in results],
        "failed": failed,
    }
    write_json_report(_resolve_out(out_dir, cfg.io.report_file), payload)
    print(f"{len(results)} checks, {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_ERROR


# -- entry point ------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    def integer(text: str) -> int:
        """--seed under the integer rule of the timestamp column, refused
        in argparse's own words with the text quoted as readers quote it."""
        try:   # int() raises ValueError itself on over 4300 digits
            if not _is_integer(text):
                raise ValueError(text)
            return int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer value: {quoted(text)}") from None

    parser = argparse.ArgumentParser(
        prog="fairmeasure",
        description="Fairest-measure tools on finite scenario lattices.")
    parser.add_argument("command",
                        choices=["simulate", "calibrate", "eval", "optimize", "verify"])
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=".", help="directory for output files")
    parser.add_argument("--seed", type=integer, default=None,
                        help="override the config's solver seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 means an infeasible optimization
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            # through SolveOptions, so every command gets the same checked seed
            cfg = replace(cfg, solver=replace(cfg.solver, seed=args.seed))
        handler = {
            "simulate": cmd_simulate,
            "calibrate": cmd_calibrate,
            "eval": cmd_eval,
            "optimize": cmd_optimize,
            "verify": cmd_verify,
        }[args.command]
        return handler(cfg, args.out, cfg.solver.seed)
    except (FairmeasureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
