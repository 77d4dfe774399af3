"""Constrained search for the fairest measure.

The feasible set is the probability simplex intersected with the uniform
equivalence box mu/N <= q <= N*mu (atomwise, which on a finite space is the
same as the per-event condition), optionally cut by a correlation floor on
every pair of exchanges.  The objective is one of the two unfairness
functionals, minimized by projected gradient descent over the path weights
with an escalating exact penalty for the floor, multi-started from the base
measure plus random feasible points.  A grid-search oracle over tiny
instances provides an independent check of the optimizer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (DomainError, InfeasibleError, ParameterError,
                     SizeBudgetError, UnsupportedConstraintError)
from .lattice import AdaptedLattice, LatticeProcess, Measure, uniform_measure
from .unfairness import _m_raw, _n_raw

__all__ = [
    "ConstraintParams", "SolveOptions", "ConstraintReport", "SolveReport",
    "BruteForceResult", "box_bounds", "correlation_integral",
    "check_constraints", "project_box_simplex", "project_capped_simplex",
    "minimize", "brute_force_min", "kkt_residual",
]

FEASIBILITY_TOL = 1e-8
_RESIDUAL_ETA = 1e-6
_MIN_STEP = 1e-14


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
    gradient: str = "fd"          # "fd" | "analytic"
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

def _pair_columns(g: LatticeProcess, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    if g.d != 1:
        raise UnsupportedConstraintError(
            "the correlation floor is defined for scalar exchanges (d = 1) only")
    return g.values[:, :, i], g.values[:, :, j]


def _corr_integral_raw(q: np.ndarray, g: LatticeProcess, i: int, j: int) -> float:
    """Right-endpoint time sum of Cov_q / E_q|product| for exchanges i, j."""
    x_all, y_all = _pair_columns(g, i, j)
    dt = g.lattice.dt
    total = 0.0
    for k in range(1, g.lattice.depth + 1):
        x, y = x_all[k], y_all[k]
        cov = float(q @ (x * y)) - float(q @ x) * float(q @ y)
        scale = float(q @ np.abs(x * y))
        if scale <= 0.0:
            raise DomainError(f"E|g_{i} g_{j}| vanishes at time {k}; floor undefined")
        total += dt * cov / scale
    return total


def correlation_integral(Q: Measure, g: LatticeProcess, i: int, j: int) -> float:
    """Time-integrated normalized covariance between exchanges i and j."""
    if Q.lattice != g.lattice:
        raise ParameterError("measure and process live on different lattices")
    if not (0 <= i < g.n and 0 <= j < g.n and i != j):
        raise ParameterError(f"need distinct exchange indices in 0..{g.n - 1}")
    return _corr_integral_raw(Q.weights, g, i, j)


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
        val = _corr_integral_raw(q, g, i, j)
        corr[(i, j)] = val
        slack[(i, j)] = val - params.c
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


def project_box_simplex(q: np.ndarray, params: ConstraintParams, base: Measure) -> np.ndarray:
    """Projection onto the simplex cut to the equivalence box around ``base``."""
    lo = base.weights / params.N
    hi = base.weights * params.N
    return project_capped_simplex(q, lo, hi)


# -- objective -----------------------------------------------------------------

class _Objective:
    """Penalized objective on raw weight vectors: value, parts and gradients."""

    def __init__(self, g: LatticeProcess, params: ConstraintParams, rho: float):
        self.g = g
        self.params = params
        self.rho = rho
        self.pairs = _floor_pairs(g, params)

    def raw(self, q: np.ndarray) -> float:
        if self.params.objective == "m":
            return _m_raw(q, self.g, self.params.p, True)
        return _n_raw(q, self.g)

    def floor_violations(self, q: np.ndarray) -> list[float]:
        c = self.params.c
        return [max(0.0, c - _corr_integral_raw(q, self.g, i, j)) for i, j in self.pairs]

    def value_parts(self, q: np.ndarray) -> tuple[float, float, float]:
        """(penalized value, raw objective, max floor violation)."""
        raw = self.raw(q)
        if not self.pairs:
            return raw, raw, 0.0
        viols = self.floor_violations(q)
        pen = raw + self.rho * sum(v * v for v in viols)
        return pen, raw, max(viols)

    def value(self, q: np.ndarray) -> float:
        return self.value_parts(q)[0]

    def gradient(self, q: np.ndarray, mode: str, h: float) -> np.ndarray:
        if mode == "fd":
            return self._fd_gradient(q, h)
        if mode == "analytic":
            return self._analytic_gradient(q)
        raise ParameterError(f"unknown gradient mode {mode!r}")

    def _fd_gradient(self, q: np.ndarray, h: float) -> np.ndarray:
        step = h * max(1.0, float(np.linalg.norm(q)))
        grad = np.empty_like(q)
        for v in range(q.size):
            plus = q.copy()
            minus = q.copy()
            plus[v] += step
            minus[v] -= step
            grad[v] = (self.value(plus) - self.value(minus)) / (2.0 * step)
        return grad

    def _analytic_gradient(self, q: np.ndarray) -> np.ndarray:
        if self.params.objective == "m":
            grad = _grad_m(q, self.g, self.params.p)
        else:
            grad = _grad_n(q, self.g)
        if self.pairs and self.rho > 0.0:
            grad = grad + _grad_penalty(q, self.g, self.pairs, self.params.c, self.rho)
        return grad


def _block_average(lat, X, k, q):
    from .lattice import _cond_exp_weights
    avg, _ = _cond_exp_weights(lat, X, k, q)
    return avg


def _grad_m(q: np.ndarray, g: LatticeProcess, p: float) -> np.ndarray:
    """d/dq of the m-functional.

    Per (exchange, time pair) the deviation dev = g(k) - E_q[g(l)|F_k] is
    constant on each level-k block, so the derivative splits into the
    integrand itself plus the chain-rule term through the blockwise average:
    grad_v = sum dt^2 [ |dev|^p - p |dev|^{p-2} dev . (g(l, v) - E_q[g(l)|F_k]) ].
    """
    lat = g.lattice
    dt = lat.dt
    P, n, d = lat.n_paths, g.n, g.d
    grad = np.zeros(P)
    for k in range(lat.depth):
        for l in range(k, lat.depth + 1):
            Xl = g.values[l]
            A = _block_average(lat, Xl, k, q)
            dev = g.values[k] - A
            if d == 1:
                nrm = np.abs(dev)
            else:
                nrm = np.sqrt((dev.reshape(P, n, d) ** 2).sum(axis=2))
            with np.errstate(divide="ignore", invalid="ignore"):
                coef = np.where(nrm > 0.0, p * nrm ** (p - 2.0), 0.0)
            inner = (dev * (Xl - A)).reshape(P, n, d).sum(axis=2)
            grad += dt * dt * ((nrm ** p) - coef * inner).sum(axis=1)
    return grad


def _grad_n(q: np.ndarray, g: LatticeProcess) -> np.ndarray:
    """d/dq of the n-functional (subgradient 0 at drift kinks)."""
    lat = g.lattice
    dt = lat.dt
    grad = np.zeros(lat.n_paths)
    for k in range(lat.depth):
        cur = g.values[k]
        if np.any(cur <= 0.0):
            raise DomainError(f"drift rate needs strictly positive values at time {k}")
        nxt = g.values[k + 1]
        A = _block_average(lat, nxt, k, q)
        D = (A - cur) / (dt * cur)
        grad += dt * (np.abs(D) + np.sign(D) * (nxt - A) / (dt * cur)).sum(axis=1)
    return grad


def _grad_penalty(q: np.ndarray, g: LatticeProcess, pairs, c: float,
                  rho: float) -> np.ndarray:
    lat = g.lattice
    dt = lat.dt
    grad = np.zeros(lat.n_paths)
    for i, j in pairs:
        integral = _corr_integral_raw(q, g, i, j)
        gap = c - integral
        if gap <= 0.0:
            continue
        x_all, y_all = _pair_columns(g, i, j)
        d_int = np.zeros(lat.n_paths)
        for k in range(1, lat.depth + 1):
            x, y = x_all[k], y_all[k]
            ex = float(q @ x)
            ey = float(q @ y)
            cov = float(q @ (x * y)) - ex * ey
            scale = float(q @ np.abs(x * y))
            d_cov = x * y - x * ey - y * ex
            d_scale = np.abs(x * y)
            d_int += dt * (d_cov * scale - cov * d_scale) / (scale * scale)
        grad += rho * 2.0 * gap * (-d_int)
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
        raw = eval_obj.raw(q0)
        viol = max(eval_obj.floor_violations(q0), default=0.0) if floor_active else 0.0
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
                 eta: float = 1e-6, rho: float = 0.0, gradient: str = "fd",
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


def _m_batch(Qmat: np.ndarray, g: LatticeProcess, p: float) -> np.ndarray:
    lat = g.lattice
    dt = lat.dt
    G = Qmat.shape[0]
    n, d = g.n, g.d
    total = np.zeros(G)
    for k in range(lat.depth):
        nblk, bs = lat.n_blocks(k), lat.block_size(k)
        Qb = Qmat.reshape(G, nblk, bs)
        W = Qb.sum(axis=2)
        gk = g.values[k].reshape(nblk, bs, -1)[:, 0, :]
        for l in range(k, lat.depth + 1):
            Xb = g.values[l].reshape(nblk, bs, -1)
            S = np.einsum("gnb,nbm->gnm", Qb, Xb)
            A = S / W[:, :, None]
            dev = gk[None, :, :] - A
            if d == 1:
                nrm = np.abs(dev)
            else:
                nrm = np.sqrt((dev.reshape(G, nblk, n, d) ** 2).sum(axis=3))
            total += dt * dt * (W * (nrm ** p).sum(axis=2)).sum(axis=1)
    return total


def _n_batch(Qmat: np.ndarray, g: LatticeProcess) -> np.ndarray:
    lat = g.lattice
    dt = lat.dt
    G = Qmat.shape[0]
    total = np.zeros(G)
    for k in range(lat.depth):
        nblk, bs = lat.n_blocks(k), lat.block_size(k)
        cur = g.values[k].reshape(nblk, bs, -1)[:, 0, :]
        if np.any(cur <= 0.0):
            raise DomainError(f"drift rate needs strictly positive values at time {k}")
        Qb = Qmat.reshape(G, nblk, bs)
        W = Qb.sum(axis=2)
        Xb = g.values[k + 1].reshape(nblk, bs, -1)
        A = np.einsum("gnb,nbm->gnm", Qb, Xb) / W[:, :, None]
        D = (A - cur[None]) / (dt * cur[None])
        total += dt * (W * np.abs(D).sum(axis=2)).sum(axis=1)
    return total


def _corr_batch(Qmat: np.ndarray, g: LatticeProcess, i: int, j: int) -> np.ndarray:
    x_all, y_all = _pair_columns(g, i, j)
    dt = g.lattice.dt
    total = np.zeros(Qmat.shape[0])
    for k in range(1, g.lattice.depth + 1):
        x, y = x_all[k], y_all[k]
        cov = Qmat @ (x * y) - (Qmat @ x) * (Qmat @ y)
        scale = Qmat @ np.abs(x * y)
        if np.any(scale <= 0.0):
            raise DomainError(f"E|g_{i} g_{j}| vanishes at time {k}; floor undefined")
        total += dt * cov / scale
    return total


def brute_force_min(g: LatticeProcess, params: ConstraintParams,
                    resolution: int = 200) -> BruteForceResult:
    """Exhaustive grid search over the feasible box-simplex.

    The last coordinate is eliminated by normalization; grid points outside
    the box or below the correlation floor are discarded.  Ties break to the
    lexicographically smallest grid point.  Limited to 6 paths and
    resolution 2000.
    """
    lat = g.lattice
    P = lat.n_paths
    if P > 6:
        raise SizeBudgetError(f"brute force supports at most 6 paths, got {P}")
    if not 1 <= resolution <= 2000:
        raise ParameterError(f"resolution must be in 1..2000, got {resolution}")
    lo, hi = box_bounds(lat, params.N)
    axes = [np.linspace(lo[i], hi[i], resolution + 1) for i in range(P - 1)]
    if P == 1:
        cand = np.ones((1, 1))
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        head = np.stack([m.reshape(-1) for m in mesh], axis=1)
        last = 1.0 - head.sum(axis=1)
        keep = (last >= lo[-1] - 1e-12) & (last <= hi[-1] + 1e-12)
        cand = np.column_stack([head[keep], np.clip(last[keep], lo[-1], hi[-1])])
    if cand.shape[0] == 0:
        raise InfeasibleError("no grid point lies in the box-simplex")
    for i, j in _floor_pairs(g, params):
        keep = _corr_batch(cand, g, i, j) >= params.c - 1e-12
        cand = cand[keep]
        if cand.shape[0] == 0:
            raise InfeasibleError(f"no grid point satisfies the correlation floor c={params.c}")
    if params.objective == "m":
        values = _m_batch(cand, g, params.p)
    else:
        values = _n_batch(cand, g)
    best = int(np.argmin(values))  # first occurrence = lexicographically smallest
    return BruteForceResult(measure=Measure(lat, cand[best]), value=float(values[best]))
