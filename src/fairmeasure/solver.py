"""Constrained search for the fairest measure.

The feasible set is the probability simplex intersected with the uniform
equivalence box mu/N <= q <= N*mu (atomwise, which on a finite space is the
same as the per-event condition), optionally cut by a correlation floor on
every pair of exchanges.  The objective is one of the two unfairness
functionals, minimized by projected gradient descent over the path weights
with an escalating exact penalty for the floor, multi-started from the base
measure plus random feasible points.  A grid-search oracle over tiny
instances provides an independent check of the optimizer.

Each value and analytic gradient is one O(P) pass of the node kernel in
``_tree``; an FD gradient is one batched pass over 2P perturbed rows, O(P^2)
in all, so "analytic" is the default and "fd" an explicit check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._tree import Floor, Tree, row_blocks
from .errors import (InfeasibleError, ParameterError, SizeBudgetError,
                     UnsupportedConstraintError)
from .lattice import AdaptedLattice, LatticeProcess, Measure, uniform_measure

__all__ = [
    "ConstraintParams", "SolveOptions", "ConstraintReport", "SolveReport",
    "BruteForceResult", "box_bounds", "correlation_integral",
    "check_constraints", "project_capped_simplex",
    "minimize", "brute_force_min", "kkt_residual",
]

FEASIBILITY_TOL = 1e-8
_RESIDUAL_ETA = 1e-6
_MIN_STEP = 1e-14
_GRID_BUDGET = 10 ** 8  # oracle grid points; scoring them takes about a minute


@dataclass(frozen=True)
class ConstraintParams:
    """Equivalence bound N >= 1, optional correlation floor c, exponent p,
    and which functional to minimize ("m" or "n")."""

    N: float
    c: float | None = None
    p: float = 2.0
    objective: str = "m"

    def __post_init__(self):
        if not self.N >= 1.0:
            raise ParameterError(f"equivalence bound N must be >= 1, got {self.N}")
        if not self.p > 0:
            raise ParameterError(f"exponent p must be > 0, got {self.p}")
        if self.objective not in ("m", "n"):
            raise ParameterError(f"objective must be 'm' or 'n', got {self.objective!r}")
        if self.c is not None and not math.isfinite(self.c):
            raise ParameterError("correlation floor c must be finite or None")


@dataclass(frozen=True)
class SolveOptions:
    max_iter: int = 300
    step: float = 1.0
    tol: float = 1e-9
    restarts: int = 8
    seed: int = 0
    gradient: str = "analytic"    # "analytic" | "fd"
    fd_step: float = 1e-7
    penalty_init: float = 10.0
    penalty_growth: float = 10.0
    penalty_rounds: int = 6

    def __post_init__(self):
        if self.gradient not in ("fd", "analytic"):
            raise ParameterError(f"gradient must be 'fd' or 'analytic', got {self.gradient!r}")
        if self.max_iter < 0 or self.restarts < 1:
            raise ParameterError("need max_iter >= 0 and restarts >= 1")


def box_bounds(lattice: AdaptedLattice, N: float) -> tuple[np.ndarray, np.ndarray]:
    """Atomwise equivalence box [mu/N, N*mu] around the uniform base measure."""
    if not N >= 1.0:
        raise ParameterError(f"equivalence bound N must be >= 1, got {N}")
    mu = 1.0 / lattice.n_paths
    P = lattice.n_paths
    return np.full(P, mu / N), np.full(P, mu * N)


# -- constraints ---------------------------------------------------------------

def correlation_integral(Q: Measure, g: LatticeProcess, i: int, j: int) -> float:
    """Time-integrated normalized covariance between exchanges i and j:
    the right-endpoint time sum of Cov_Q / E_Q|g_i g_j|."""
    if Q.lattice != g.lattice:
        raise ParameterError("measure and process live on different lattices")
    if not (0 <= i < g.n and 0 <= j < g.n and i != j):
        raise ParameterError(f"need distinct exchange indices in 0..{g.n - 1}")
    if g.d != 1:
        raise UnsupportedConstraintError(
            "the correlation floor is defined for scalar exchanges (d = 1) only")
    tree = Tree(g)
    return float(Floor(tree, [(i, j)]).moments(tree.node_weights(Q.weights))[0][0, 0])


def _floor_pairs(g: LatticeProcess, params: ConstraintParams) -> list[tuple[int, int]]:
    if params.c is None or g.n < 2:
        return []
    if g.d != 1:
        raise UnsupportedConstraintError(
            "correlation floor with d > 1 is undefined; use d = 1 or c = None")
    return [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]


@dataclass
class ConstraintReport:
    box_lower_slack: np.ndarray
    box_upper_slack: np.ndarray
    normalization_error: float
    correlation: dict[tuple[int, int], float]
    correlation_slack: dict[tuple[int, int], float]
    feasible: bool

    def summary(self) -> dict[str, float]:
        out = {
            "box_lower": float(self.box_lower_slack.min()),
            "box_upper": float(self.box_upper_slack.min()),
            "normalization": -abs(self.normalization_error),
        }
        for (i, j), slack in sorted(self.correlation_slack.items()):
            out[f"correlation_{i}_{j}"] = slack
        return out


def check_constraints(Q: Measure, g: LatticeProcess, params: ConstraintParams,
                      feas_tol: float = FEASIBILITY_TOL) -> ConstraintReport:
    """Report per-atom box slacks, normalization, and correlation-floor slacks."""
    if Q.lattice != g.lattice:
        raise ParameterError("measure and process live on different lattices")
    lo, hi = box_bounds(Q.lattice, params.N)
    q = Q.weights
    lower = q - lo
    upper = hi - q
    norm_err = float(q.sum()) - 1.0
    corr: dict[tuple[int, int], float] = {}
    slack: dict[tuple[int, int], float] = {}
    for i, j in _floor_pairs(g, params):
        corr[(i, j)] = correlation_integral(Q, g, i, j)
        slack[(i, j)] = corr[(i, j)] - params.c
    feasible = (float(lower.min()) >= -feas_tol and float(upper.min()) >= -feas_tol
                and abs(norm_err) <= feas_tol
                and all(s >= -feas_tol for s in slack.values()))
    return ConstraintReport(lower, upper, norm_err, corr, slack, feasible)


# -- projection ----------------------------------------------------------------

def project_capped_simplex(v: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                           total: float = 1.0) -> np.ndarray:
    """Euclidean projection onto {q : sum q = total, lo <= q <= hi}.

    The projection is clip(v - tau, lo, hi) for the dual variable tau of the
    sum constraint, a continuous quadratic knapsack solved exactly by a
    breakpoint search (Held, Wolfe & Crowder 1974; Kiwiel 2008, JOTA 138).
    f(tau) = sum clip(v - tau, lo, hi) is piecewise linear and nonincreasing:
    it equals sum(hi) left of every breakpoint, its slope drops by 1 at each
    v - hi and rises by 1 at each v - lo.  One sort of the 2P breakpoints and
    cumulative sums give f at every breakpoint; tau is then solved in closed
    form on the piece where f crosses ``total``, from the coordinates that
    piece holds at lo, at hi and free.  The sort need not be stable: f is
    continuous, so tied breakpoints only bound pieces of zero width, and tau
    is clamped to its piece.  O(P log P) for any box, uniform or not.
    Already-feasible inputs come back unchanged; non-finite inputs raise.
    """
    v = np.asarray(v, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if v.shape != lo.shape or v.shape != hi.shape:
        raise ParameterError("point and bounds must have matching shapes")
    if not (np.isfinite(v).all() and np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ParameterError("point and bounds must be finite")
    if np.any(lo > hi):
        raise ParameterError("empty box: lo > hi somewhere")
    slo, shi = float(lo.sum()), float(hi.sum())
    if not slo - 1e-12 <= total <= shi + 1e-12:
        raise ParameterError(
            f"box and simplex do not intersect: sum bounds [{slo}, {shi}] exclude {total}")
    if (np.all(v >= lo - 1e-15) and np.all(v <= hi + 1e-15)
            and abs(float(v.sum()) - total) <= 1e-13):
        return v.copy()
    P = v.size
    breaks = np.concatenate((v - hi, v - lo))
    order = np.argsort(breaks)
    t = breaks[order]
    dslope = np.where(order < P, -1.0, 1.0)
    slope = np.cumsum(dslope)                 # slope of f right of each breakpoint
    # f is slope * tau + offset on each piece; crossing v - hi adds v - hi to
    # the offset and crossing v - lo subtracts v - lo, so offset = shi - cumsum(dslope * t)
    f = shi - np.cumsum(dslope * t) + slope * t
    below = f <= total
    if below[0] or not below[-1]:             # total at sum(hi) or sum(lo)
        return np.clip(v - (t[0] if below[0] else t[-1]), lo, hi)
    j = int(np.argmax(below))
    # tau lies on the piece [t[j-1], t[j]]: solve it there from the crossed
    # breakpoints, not from the rounded cumulative sums.  Coordinates past
    # v - lo sit at lo, those short of v - hi at hi, the rest are free.
    crossed = np.zeros(2 * P, dtype=bool)
    crossed[order[:j]] = True
    at_hi, at_lo = ~crossed[:P], crossed[P:]
    free = ~(at_hi | at_lo)
    n_free = int(free.sum())
    if n_free == 0:
        return np.clip(v - t[j], lo, hi)
    fixed = float(hi[at_hi].sum()) + float(lo[at_lo].sum())
    tau = (float(v[free].sum()) + fixed - total) / n_free
    return np.clip(v - min(max(tau, t[j - 1]), t[j]), lo, hi)


# -- objective -----------------------------------------------------------------

class _Objective:
    """Penalized objective on raw weight vectors: values and gradients, each
    one pass of the node kernel in ``_tree`` (FD: over 2P perturbed rows)."""

    def __init__(self, g: LatticeProcess, params: ConstraintParams, rho: float):
        self.params, self.rho = params, rho
        self.tree = Tree(g)
        pairs = _floor_pairs(g, params)
        self.floor = Floor(self.tree, pairs) if pairs else None

    def raw(self, W: list[np.ndarray]) -> np.ndarray:
        if self.params.objective == "m":
            return self.tree.m(W, self.params.p)
        return self.tree.n_value(W)

    def evaluate(self, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(penalized value, raw objective, max floor violation) per row of Q."""
        W = self.tree.node_weights(Q)
        raw = self.raw(W)
        if self.floor is None:
            return raw, raw, np.zeros_like(raw)
        viols = np.maximum(0.0, self.params.c - self.floor.moments(W)[0])
        return raw + self.rho * (viols * viols).sum(axis=1), raw, viols.max(axis=1)

    def value_parts(self, q: np.ndarray) -> tuple[float, float, float]:
        """(penalized value, raw objective, max floor violation)."""
        pen, raw, viol = self.evaluate(q)
        return float(pen[0]), float(raw[0]), float(viol[0])

    def gradient(self, q: np.ndarray, mode: str, h: float) -> np.ndarray:
        if mode == "analytic":
            W = self.tree.node_weights(q)
            if self.params.objective == "m":
                terms, D = self.tree.m(W, self.params.p, adjoint=True)
            else:
                terms, D = self.tree.n_value(W, adjoint=True)
            if self.floor is not None and self.rho > 0.0:
                pen = self.floor.penalty_terms(W, self.params.c, self.rho)
                terms = [t + e for t, e in zip(terms, pen)]
            return self.tree.reverse(terms, D)[0]
        if mode != "fd":
            raise ParameterError(f"unknown gradient mode {mode!r}")
        step = h * max(1.0, float(np.linalg.norm(q)))
        grad = np.empty_like(q)
        for rows in row_blocks(q.size, 2 * q.size):
            coords = np.arange(rows.start, rows.stop)
            r = coords.size
            Q = np.tile(q, (2 * r, 1))
            Q[np.arange(r), coords] += step
            Q[np.arange(r, 2 * r), coords] -= step
            pen = self.evaluate(Q)[0]
            grad[rows] = (pen[:r] - pen[r:]) / (2.0 * step)
        return grad


# -- minimization --------------------------------------------------------------

@dataclass
class SolveReport:
    measure: Measure
    value: float
    kkt_residual: float
    constraint_slacks: dict[str, float]
    iterations: int
    trace: list[tuple[float, float, float]]
    feasible: bool

    def __post_init__(self):
        if self.value < 0.0:
            raise ParameterError(f"objective value must be >= 0, got {self.value}")
        if self.feasible and any(s < -FEASIBILITY_TOL for s in self.constraint_slacks.values()):
            raise ParameterError("feasible report with slack below tolerance")


@dataclass
class _Candidate:
    q: np.ndarray
    value: float
    violation: float
    iterations: int
    trace: list[tuple[float, float, float]]
    rho: float


def _pgd(obj: _Objective, q0: np.ndarray, project: Callable[[np.ndarray], np.ndarray],
         opts: SolveOptions) -> _Candidate:
    q = project(q0)
    f_pen, f_raw, viol = obj.value_parts(q)
    trace: list[tuple[float, float, float]] = []
    t = opts.step
    iters = 0
    for _ in range(opts.max_iter):
        grad = obj.gradient(q, opts.gradient, opts.fd_step)
        moved = project(q - _RESIDUAL_ETA * grad)
        residual = float(np.linalg.norm(moved - q)) / _RESIDUAL_ETA
        if residual <= opts.tol:
            break
        t = min(opts.step, 2.0 * t)
        accepted = False
        while t > _MIN_STEP:
            qn = project(q - t * grad)
            d2 = float(((qn - q) ** 2).sum())
            if d2 == 0.0:
                break
            fn_pen, fn_raw, vn = obj.value_parts(qn)
            if fn_pen <= f_pen - 1e-4 * d2 / t:
                q, f_pen, f_raw, viol = qn, fn_pen, fn_raw, vn
                iters += 1
                trace.append((fn_raw, t, vn))
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    return _Candidate(q, f_raw, viol, iters, trace, obj.rho)


def _solve_from(g: LatticeProcess, params: ConstraintParams, opts: SolveOptions,
                q0: np.ndarray, project, floor_active: bool) -> _Candidate:
    rho = opts.penalty_init if floor_active else 0.0
    q = q0
    total_iters = 0
    trace: list[tuple[float, float, float]] = []
    cand = None
    rounds = opts.penalty_rounds if floor_active else 1
    for _ in range(rounds):
        cand = _pgd(_Objective(g, params, rho), q, project, opts)
        q = cand.q
        total_iters += cand.iterations
        trace.extend(cand.trace)
        if not floor_active or cand.violation <= FEASIBILITY_TOL:
            break
        rho *= opts.penalty_growth
    cand.iterations = total_iters
    cand.trace = trace
    return cand


def minimize(g: LatticeProcess, params: ConstraintParams,
             opts: SolveOptions = SolveOptions(),
             extra_starts: Sequence[np.ndarray] = ()) -> SolveReport:
    """Minimize the chosen unfairness functional over the constraint class.

    Projected gradient descent on the path weights, multi-started from the
    base measure, (restarts - 1) random feasible points, and any
    ``extra_starts`` (projected first; useful for warm starts across related
    instances).  The correlation floor is handled by an escalating exact
    penalty.  Every start point is itself kept as a candidate, so whenever
    the base measure is feasible the report is feasible with value no worse
    than the base value.  If no candidate ever satisfies the floor the best
    penalized point is returned with ``feasible=False``.
    """
    lat = g.lattice
    lo, hi = box_bounds(lat, params.N)
    project = lambda v: project_capped_simplex(v, lo, hi)
    floor_active = bool(_floor_pairs(g, params))
    base = uniform_measure(lat).weights

    starts = [base.copy()]
    for r in range(1, opts.restarts):
        rng = np.random.default_rng([opts.seed, r])
        starts.append(project(rng.uniform(lo, hi)))
    starts.extend(project(np.asarray(s, dtype=float)) for s in extra_starts)

    eval_obj = _Objective(g, params, 0.0)

    candidates: list[_Candidate] = []
    for q0 in starts:
        _, raw, viol = eval_obj.value_parts(q0)
        candidates.append(_Candidate(q0, raw, viol, 0, [], 0.0))
        candidates.append(_solve_from(g, params, opts, q0, project, floor_active))

    feasible_cands = [c for c in candidates if c.violation <= FEASIBILITY_TOL]
    pool_ = feasible_cands if feasible_cands else candidates
    winner = pool_[0]
    for c in pool_[1:]:
        if feasible_cands:
            better = c.value < winner.value
        else:
            better = (c.violation, c.value) < (winner.violation, winner.value)
        if better:
            winner = c

    measure = Measure(lat, winner.q)
    report = check_constraints(measure, g, params)
    residual = kkt_residual(measure, g, params, rho=winner.rho,
                            gradient=opts.gradient, fd_step=opts.fd_step)
    slacks = report.summary()
    feasible = bool(feasible_cands) and report.feasible
    return SolveReport(measure=measure, value=winner.value, kkt_residual=residual,
                       constraint_slacks=slacks, iterations=winner.iterations,
                       trace=winner.trace, feasible=feasible)


def kkt_residual(Q: Measure, g: LatticeProcess, params: ConstraintParams, *,
                 eta: float = 1e-6, rho: float = 0.0, gradient: str = "analytic",
                 fd_step: float = 1e-7) -> float:
    """First-order stationarity: ||project(q - eta * grad) - q|| / eta.

    Zero (up to tolerance) at constrained stationary points of the
    (optionally penalty-augmented) objective.
    """
    lat = g.lattice
    lo, hi = box_bounds(lat, params.N)
    obj = _Objective(g, params, rho)
    grad = obj.gradient(Q.weights, gradient, fd_step)
    moved = project_capped_simplex(Q.weights - eta * grad, lo, hi)
    return float(np.linalg.norm(moved - Q.weights)) / eta


# -- brute-force oracle ----------------------------------------------------------

@dataclass
class BruteForceResult:
    measure: Measure
    value: float


def brute_force_min(g: LatticeProcess, params: ConstraintParams,
                    resolution: int = 200) -> BruteForceResult:
    """Exhaustive grid search over the feasible box-simplex.

    The last coordinate is eliminated by normalization; grid points outside
    the box or below the correlation floor are discarded.  Ties break to the
    lexicographically smallest grid point.  Limited to 6 paths, resolution
    2000 and 10^8 grid points, scored in row blocks of bounded memory.
    """
    lat = g.lattice
    P = lat.n_paths
    if P > 6:
        raise SizeBudgetError(f"brute force supports at most 6 paths, got {P}")
    if not 1 <= resolution <= 2000:
        raise ParameterError(f"resolution must be in 1..2000, got {resolution}")
    size = (resolution + 1) ** (P - 1)
    if size > _GRID_BUDGET:
        raise SizeBudgetError(f"grid of {resolution + 1}^{P - 1} points exceeds {_GRID_BUDGET}")
    lo, hi = box_bounds(lat, params.N)
    obj = _Objective(g, params, 0.0)
    axes = [np.linspace(lo[i], hi[i], resolution + 1) for i in range(P - 1)]
    best_q, best_value, in_box = None, math.inf, False
    for rows in row_blocks(size, P):
        # grid rows in lexicographic order, the first coordinate slowest
        digits = np.unravel_index(np.arange(rows.start, rows.stop), (resolution + 1,) * (P - 1))
        head = np.column_stack([axis[i] for axis, i in zip(axes, digits)])
        last = 1.0 - head.sum(axis=1)
        keep = (last >= lo[-1] - 1e-12) & (last <= hi[-1] + 1e-12)
        cand = np.column_stack([head[keep], np.clip(last[keep], lo[-1], hi[-1])])
        if cand.shape[0] == 0:
            continue
        in_box = True
        W = obj.tree.node_weights(cand)
        if obj.floor is not None:
            keep = (obj.floor.moments(W)[0] >= params.c - 1e-12).all(axis=1)
            cand = cand[keep]
            if cand.shape[0] == 0:
                continue
            W = [w[keep] for w in W]
        values = obj.raw(W)
        best = int(np.argmin(values))  # first occurrence = lexicographically smallest
        if values[best] < best_value:
            best_q, best_value = cand[best], float(values[best])
    if not in_box:
        raise InfeasibleError("no grid point lies in the box-simplex")
    if best_q is None:
        raise InfeasibleError(f"no grid point satisfies the correlation floor c={params.c}")
    return BruteForceResult(measure=Measure(lat, best_q), value=best_value)
