"""Constrained search for the fairest measure.

The feasible set is the probability simplex intersected with the uniform
equivalence box mu/N <= q <= N*mu (atomwise, which on a finite space is the
same as the per-event condition), optionally cut by a correlation floor on
every pair of exchanges.  The objective is one of the two unfairness
functionals, minimized by projected gradient descent over the path weights
with a quadratic penalty rho * sum max(0, c - I)^2 over the exchange pairs
for the floor (rho 10, x10 per round, <= 6 rounds) from the base measure.  A
row stops once its Frank-Wolfe gap over the box-simplex is at most
``_descent.TOL``; that gap is the solver's one stationarity measure.  On
the lattice, m with p >= 1 and n are convex in the weights; where m is
also smooth (p > 1) and no floor binds, every stationary point is a global
minimizer and the gap bounds the distance to the optimal value, so one
start suffices and the report carries the winner's gap.  Elsewhere (n,
p <= 1, the floor) the descent is also multi-started from random feasible
points, and each start's record says why it stopped.  A grid-search
oracle over tiny instances provides an independent check of the
optimizer.

Each iteration searches the projected arc P(x - t g), halving t until an
Armijo test passes.  Where the penalized value is differentiable (m with
p > 1, with or without the floor) this is spectral projected gradient
(Barzilai & Borwein 1988; Birgin, Martinez & Raydan 2000): t starts from
the Barzilai-Borwein ratio of the row's last step and gradient change, and
the test is against the largest of its last few values, so the value need
not fall at every step.  On n and on m with p <= 1 the trial step doubles
from the last one up to ``_descent.STEP`` and the test is monotone; see
``_descent``.

The starts descend in lock step as the rows of one (G, P) batch, the G
axis of the node kernel.  Each row keeps its own step size and window; an
active mask drops a row once its gap is at most TOL, its line search
stalls, its projected step vanishes or it reaches max_iter, and each
backtracking trial evaluates only the rows still searching.  Penalty rounds
are shared: every row starts at rho = 10, and after each round the rows
that meet the floor leave while the rest go on at the grown rho, so rho is
one scalar per round.
Kernel calls and the projection treat rows independently, so each start
follows the same float path as it would alone.

Every trial step and random start goes through the box-simplex projection
of ``_projection``, which the solver calls with its uniform box as the two
floats mu/N and N*mu.  It solves the dual variable tau of the sum
constraint exactly and without sorting, by Newton steps on the piecewise
linear sum kept inside a bracket, with a median-breakpoint step as the
safeguard (Cominetti, Mascarenhas & Silva 2014; Dai & Fletcher 2006;
Kiwiel 2008), in a number of O(P) passes that is small in practice and
bounded by 2P + floor(log2 P) + 4.

Each value and each gradient is one O(P) pass of the node kernel in
``_tree``; the gradient is the kernel's exact adjoint sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._descent import Descent
from ._projection import frank_wolfe_gap, project_capped_simplex
from ._tree import Floor, Tree, row_blocks
from .errors import (InfeasibleError, ParameterError, SizeBudgetError,
                     UnsupportedConstraintError)
from .lattice import (AdaptedLattice, LatticeProcess, Measure, _as_count,
                      check_same_lattice, uniform_measure)
from .unfairness import UnfairnessConfig

__all__ = [
    "ConstraintParams", "SolveOptions", "ConstraintReport", "RestartRecord",
    "SolveReport", "BruteForceResult", "box_bounds", "correlation_integral",
    "check_constraints", "project_capped_simplex",
    "minimize", "brute_force_min",
]

FEASIBILITY_TOL = 1e-8
# Oracle grid points.  The worst grid in budget, b = 2, K = 2 at resolution
# 463 with N = 1.01 (66.5 million of its 99.9 million points in the box),
# takes 9-10.5 s for m at p = 2 and 8 s for n (one core of a 2-vCPU Xeon,
# numpy 2.4).
_GRID_BUDGET = 10 ** 8


@dataclass(frozen=True)
class ConstraintParams:
    """Equivalence bound N >= 1, optional correlation floor c, exponent p,
    and which functional to minimize ("m" or "n")."""

    N: float
    c: float | None = None
    p: float = 2.0
    objective: str = "m"

    def __post_init__(self):
        if not 1.0 <= self.N < math.inf:
            raise ParameterError(f"equivalence bound N must be finite and >= 1, got {self.N}")
        UnfairnessConfig(self.p)   # checks p
        if self.objective not in ("m", "n"):
            raise ParameterError(f"objective must be 'm' or 'n', got {self.objective!r}")
        if self.c is not None and not math.isfinite(self.c):
            raise ParameterError("correlation floor c must be finite or None")


@dataclass(frozen=True)
class SolveOptions:
    """``max_iter`` limits each penalty round, not the whole solve: a start
    that runs all 6 rounds may take up to 6 * max_iter iterations.
    ``restarts`` counts the base start and the random ones, which
    ``minimize`` draws only where m is not both smooth and convex; ``seed``
    draws them."""

    max_iter: int = 300
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        for name, least in (("max_iter", 0), ("restarts", 1), ("seed", 0)):
            object.__setattr__(self, name, _as_count(name, getattr(self, name), least))

    @property
    def gradient(self) -> str:
        """The one gradient there is, the kernel's adjoint; not a field, so it
        cannot be set, but callers written when it was an option can read it."""
        return "analytic"


def box_bounds(lattice: AdaptedLattice, N: float) -> tuple[np.ndarray, np.ndarray]:
    """Atomwise equivalence box [mu/N, N*mu] around the uniform base measure."""
    ConstraintParams(N)   # checks N
    P = lattice.n_paths
    return np.full(P, 1.0 / P / N), np.full(P, 1.0 / P * N)


# -- constraints ---------------------------------------------------------------

def correlation_integral(Q: Measure, g: LatticeProcess, i: int, j: int) -> float:
    """Time-integrated normalized covariance between exchanges i and j:
    the right-endpoint time sum of Cov_Q / E_Q|g_i g_j|, as the solver and
    ``check_constraints`` compute it, in one pass over every pair."""
    check_same_lattice(Q, g)
    if not (0 <= i < g.n and 0 <= j < g.n and i != j):
        raise ParameterError(f"need distinct exchange indices in 0..{g.n - 1}")
    return _correlations(Q, g, _floor_pairs(g))[min(i, j), max(i, j)]


def _floor_pairs(g: LatticeProcess, params: ConstraintParams | None = None
                 ) -> list[tuple[int, int]]:
    """The exchange pairs i < j that a correlation floor binds: every pair,
    or none where ``params`` sets no floor.  The floor is defined for scalar
    exchanges only."""
    if (params is not None and params.c is None) or g.n < 2:
        return []
    if g.d != 1:
        raise UnsupportedConstraintError(
            "the correlation floor is defined for scalar exchanges (d = 1) only; "
            "use d = 1 or c = None")
    return [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]


def _correlations(Q: Measure, g: LatticeProcess, pairs: list[tuple[int, int]]
                  ) -> dict[tuple[int, int], float]:
    """The correlation integral of each pair, from the solver's ``Floor``."""
    if not pairs:
        return {}
    tree = Tree(g)
    integrals = Floor(tree, pairs).moments(tree.node_weights(Q.weights))[0][0]
    return dict(zip(pairs, integrals.tolist()))


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


def check_constraints(Q: Measure, g: LatticeProcess, params: ConstraintParams) -> ConstraintReport:
    """Report per-atom box slacks, normalization, and correlation-floor slacks."""
    check_same_lattice(Q, g)
    lo, hi = box_bounds(Q.lattice, params.N)
    q = Q.weights
    lower = q - lo
    upper = hi - q
    norm_err = float(q.sum()) - 1.0
    corr = _correlations(Q, g, _floor_pairs(g, params))
    slack = {pair: value - params.c for pair, value in corr.items()}
    feasible = (float(lower.min()) >= -FEASIBILITY_TOL and float(upper.min()) >= -FEASIBILITY_TOL
                and abs(norm_err) <= FEASIBILITY_TOL
                and all(s >= -FEASIBILITY_TOL for s in slack.values()))
    return ConstraintReport(lower, upper, norm_err, corr, slack, feasible)


# -- objective -----------------------------------------------------------------

class _Objective:
    """Penalized objective on raw weight rows (G, P) or one vector (P,):
    values and exact gradients, each one pass of the node kernel in
    ``_tree``.  The penalty weight rho is an argument, so one tree serves
    every penalty round.  ``differentiable`` says whether the penalized
    value is continuously differentiable: m with p > 1, as the floor's
    penalty is, but not n or m with p <= 1."""

    def __init__(self, g: LatticeProcess, params: ConstraintParams):
        self.params = params
        self.differentiable = params.objective == "m" and params.p > 1.0
        self.tree = Tree(g)
        pairs = _floor_pairs(g, params)
        self.floor = Floor(self.tree, pairs) if pairs else None

    def raw(self, W: list[np.ndarray]) -> np.ndarray:
        if self.params.objective == "m":
            return self.tree.m(W, self.params.p)
        return self.tree.n_value(W)

    def evaluate(self, Q: np.ndarray, rho: float = 0.0
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(penalized value, raw objective, max floor violation) per row of Q."""
        W = self.tree.node_weights(Q)
        raw = self.raw(W)
        if self.floor is None:
            return raw, raw, np.zeros_like(raw)
        penalty, violation = self.floor.penalty(W, self.params.c, rho)
        return raw + penalty, raw, violation

    def gradient(self, Q: np.ndarray, rho: float = 0.0) -> np.ndarray:
        """Gradient of the penalized value, in the shape of Q: the adjoint
        sweep of the node kernel."""
        W = self.tree.node_weights(np.atleast_2d(Q))
        if self.params.objective == "m":
            terms, D = self.tree.m(W, self.params.p, adjoint=True)
        else:
            terms, D = self.tree.n_value(W, adjoint=True)
        if self.floor is not None and rho > 0.0:
            pen = self.floor.penalty_terms(W, self.params.c, rho)
            terms = [t + e for t, e in zip(terms, pen)]
        return self.tree.reverse(terms, D).reshape(Q.shape)


# -- minimization --------------------------------------------------------------

class RestartRecord(NamedTuple):
    """What the descent from one start did.  ``kind`` is "base", "random" or
    "extra"; ``stop`` is why its last penalty round ended: "tol" (Frank-Wolfe
    gap at most ``_descent.TOL``), "stalled-line-search" (no step above the
    minimum step decreased the value), "zero-step" (the projected step did
    not move) or "max_iter".  The counts are rows the descent evaluated,
    differentiated and projected for this start; ``rho`` is the penalty
    weight of its last round, ``value`` and ``violation`` those of the point
    it reached."""

    kind: str
    stop: str
    iterations: int
    evaluations: int
    gradients: int
    projections: int
    penalty_rounds: int
    rho: float
    value: float
    violation: float


@dataclass
class SolveReport:
    """The winning measure and what the solver did.  ``restarts`` has one
    record per start; ``winner`` indexes the candidates, which are each
    start point followed by the point solved from it (2r is start r itself,
    2r + 1 its descent).  ``trace`` has, per accepted step of the winner's
    descent, its raw value, the trial step t the line search accepted (the
    spectral step, or a halving of it, where m is differentiable) and its
    floor violation.  ``gap`` is the winner's Frank-Wolfe gap, a
    certified bound on value minus the optimal value, where one holds: m
    with p > 1 and no active floor; None elsewhere."""

    measure: Measure
    value: float
    gap: float | None
    constraint_slacks: dict[str, float]
    iterations: int
    trace: list[tuple[float, float, float]]
    feasible: bool
    restarts: list[RestartRecord]
    winner: int

    def __post_init__(self):
        if self.value < 0.0:
            raise ParameterError(f"objective value must be >= 0, got {self.value}")
        if self.feasible and any(s < -FEASIBILITY_TOL for s in self.constraint_slacks.values()):
            raise ParameterError("feasible report with slack below tolerance")


# The floor's penalty schedule: the first rho, its growth per round, the most rounds.
_PENALTY_INIT = 10.0
_PENALTY_GROWTH = 10.0
_PENALTY_ROUNDS = 6


def _solve_starts(obj: _Objective, starts: np.ndarray,
                  project: Callable[[np.ndarray], np.ndarray],
                  gap: Callable[[np.ndarray, np.ndarray], np.ndarray], max_iter: int,
                  floor_active: bool) -> Descent:
    """Descend from every start row at once.  Every row begins at rho =
    _PENALTY_INIT, and the rows still above the floor after a round go on
    with rho grown by _PENALTY_GROWTH, so one scalar rho serves each round."""
    run = Descent(obj, starts, project, gap, max_iter)
    rows = np.arange(len(starts))
    rho = _PENALTY_INIT if floor_active else 0.0
    for _ in range(_PENALTY_ROUNDS if floor_active else 1):
        run.round(rows, rho)
        rows = rows[run.viol[rows] > FEASIBILITY_TOL]
        if not floor_active or not rows.size:
            break
        rho *= _PENALTY_GROWTH
    return run


def minimize(g: LatticeProcess, params: ConstraintParams,
             opts: SolveOptions = SolveOptions(),
             extra_starts: Sequence[np.ndarray] = ()) -> SolveReport:
    """Minimize the chosen unfairness functional over the constraint class.

    Projected gradient descent on the path weights, started from the base
    measure and any ``extra_starts`` (projected first; useful for warm
    starts across related instances), all descending together as one batch
    of rows, each until its Frank-Wolfe gap is at most ``_descent.TOL``.
    Where the problem is nonsmooth or nonconvex (objective n, p <= 1 or an
    active correlation floor) (restarts - 1) random feasible points are
    added to the starts; for m with p > 1 and no floor the objective is
    convex and smooth, so the base start alone reaches the optimum and no
    random start is drawn.  The correlation floor is handled by the quadratic penalty
    rho * sum max(0, c - I)^2 over the exchange pairs; rho starts at 10 and
    grows tenfold per round, at most 6 rounds.  Every start point is kept as a
    candidate, so whenever the base measure is feasible the report is
    feasible with value no worse than the base value.  If no candidate ever
    satisfies the floor the best penalized point is returned with
    ``feasible=False``.
    """
    lat = g.lattice
    P = lat.n_paths
    lo, hi = box_bounds(lat, params.N)
    project = lambda V: project_capped_simplex(V, lo[0], hi[0])
    gap = lambda V, grad: frank_wolfe_gap(V, grad, lo[0], hi[0])
    obj = _Objective(g, params)
    floor_active = obj.floor is not None
    smooth_convex = obj.differentiable and not floor_active
    extra = [np.asarray(s, dtype=float) for s in extra_starts]
    if any(s.shape != (P,) for s in extra):
        raise ParameterError(f"extra starts must have one weight per path, shape ({P},)")

    randoms = 0 if smooth_convex else opts.restarts - 1
    kinds = ["base"] + ["random"] * randoms + ["extra"] * len(extra)
    starts = np.empty((len(kinds), P))
    starts[0] = uniform_measure(lat).weights
    for r in range(1, randoms + 1):
        starts[r] = np.random.default_rng([opts.seed, r]).uniform(lo, hi)
    for r, s in enumerate(extra, start=randoms + 1):
        starts[r] = s
    starts[1:] = project(starts[1:])

    _, start_raw, start_viol = obj.evaluate(starts)
    run = _solve_starts(obj, starts, project, gap, opts.max_iter, floor_active)

    # the candidates: start r is 2r and the point descended from it 2r + 1
    value = np.column_stack((start_raw, run.raw)).ravel()
    violation = np.column_stack((start_viol, run.viol)).ravel()
    feasible_idx = np.flatnonzero(violation <= FEASIBILITY_TOL)
    if feasible_idx.size:
        w = int(feasible_idx[np.argmin(value[feasible_idx])])
    else:
        w = int(np.lexsort((value, violation))[0])
    r, solved = divmod(w, 2)
    records = [RestartRecord(kind, str(run.stop[i]), int(run.iterations[i]),
                             *map(int, run.counts[i]), int(run.rounds[i]),
                             float(run.rho[i]), float(run.raw[i]), float(run.viol[i]))
               for i, kind in enumerate(kinds)]

    q = run.q[r] if solved else starts[r]
    measure = Measure(lat, q)
    report = check_constraints(measure, g, params)
    # the winner's gap certifies its value only where m is smooth and convex
    # (no floor, so rho = 0)
    certified = max(0.0, float(gap(q, obj.gradient(q)))) if smooth_convex else None
    feasible = bool(feasible_idx.size) and report.feasible
    return SolveReport(measure=measure, value=float(value[w]),
                       gap=certified, constraint_slacks=report.summary(),
                       iterations=int(run.iterations[r]) if solved else 0,
                       trace=run.trace(r) if solved else [], feasible=feasible,
                       restarts=records, winner=w)


# -- brute-force oracle ----------------------------------------------------------

@dataclass
class BruteForceResult:
    measure: Measure
    value: float


def brute_force_min(g: LatticeProcess, params: ConstraintParams,
                    resolution: int = 200) -> BruteForceResult:
    """Exhaustive grid search over the feasible box-simplex.

    The last coordinate is eliminated by normalization; only grid points in the
    box are built, in lexicographic order, in row blocks of bounded memory, and a
    point below the floor never wins; ties go to the lexicographically smallest.
    Limited to 6 paths, integer resolutions to 2000 and 10^8 points on the grid.
    """
    lat = g.lattice
    P = lat.n_paths
    if P > 6:
        raise SizeBudgetError(f"brute force supports at most 6 paths, got {P}")
    width = _as_count("resolution", resolution, 1, 2000) + 1
    size = width ** (P - 1)
    if size > _GRID_BUDGET:
        raise SizeBudgetError(f"grid of {width}^{P - 1} points exceeds {_GRID_BUDGET}")
    lo, hi = box_bounds(lat, params.N)
    obj = _Objective(g, params)
    axis = np.linspace(lo[0], hi[0], width)  # every axis, as the box is uniform
    best_q, best_value, in_box = None, math.inf, False
    for rows in row_blocks(width ** (P - 2), P * width):
        # prefixes on the first P - 2 axes by the last head axis, summed left to right
        pre = [axis[d] for d in np.unravel_index(np.arange(rows.start, rows.stop),
                                                 (1,) + (width,) * (P - 2))[1:]]
        last = 1.0 - (sum(pre, np.zeros(rows.stop - rows.start))[:, None] + axis)
        keep = (last >= lo[-1] - 1e-12) & (last <= hi[-1] + 1e-12)
        counts = keep.sum(axis=1)
        n = int(counts.sum())
        if n == 0:
            continue
        cand = np.empty((n, P))
        for c, x in enumerate(pre):
            cand[:, c] = np.repeat(x, counts)
        cand[:, -2] = np.broadcast_to(axis, last.shape)[keep]
        cand[:, -1] = np.clip(last[keep], lo[-1], hi[-1])
        in_box = True
        W = obj.tree.node_weights(cand)
        values = obj.raw(W)
        if obj.floor is not None:
            values[~(obj.floor.moments(W)[0] >= params.c - 1e-12).all(axis=1)] = math.inf
        best = int(np.argmin(values))  # first occurrence = lexicographically smallest
        if values[best] < best_value:
            best_q, best_value = cand[best], float(values[best])
    if not in_box:
        raise InfeasibleError("no grid point lies in the box-simplex")
    if best_q is None:
        raise InfeasibleError(f"no grid point satisfies the correlation floor c={params.c}")
    return BruteForceResult(measure=Measure(lat, best_q), value=best_value)
