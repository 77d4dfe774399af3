"""Constrained search for the fairest measure.

The feasible set is the probability simplex intersected with the uniform
equivalence box mu/N <= q <= N*mu (atomwise, which on a finite space is the
same as the per-event condition), optionally cut by a correlation floor on
every pair of exchanges.  The objective is one of the two unfairness
functionals, minimized by projected gradient descent over the path weights
from the base measure, with rounds on the linearized floor where there is
one.  A row stops once its Frank-Wolfe gap over the box-simplex is at most
``_descent.TOL`` (over the cut box-simplex under the floor, below); that
gap is the solver's one stationarity measure.  On the lattice, m with
p >= 1 and n are convex in the weights; where m is also smooth (p > 1) and
no floor binds, every stationary point is a global minimizer and the gap
bounds the distance to the optimal value, so one
start suffices and the report carries the winner's gap.  Elsewhere (n on
b > 2, p <= 1, the floor) the descent is also multi-started from random
feasible points, and each start's record says why it stopped.  A
grid-search oracle over tiny instances provides an independent check of
the optimizer.

Each iteration searches the projected arc P(x - t g), halving t until an
Armijo test passes.  Where the objective is differentiable (m with p > 1,
with or without the floor) this is spectral projected gradient
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
backtracking trial evaluates only the rows still searching.

The floor is met by linearly constrained rounds (Robinson 1972, Math.
Prog. 3; Murtagh & Saunders 1978), made elastic as Friedlander & Saunders
(2005, SIAM J. Optim. 15) do.  Each pair's constraint I - c >= 0 is
scaled by |c|, so one multiplier, one elastic weight and TOL serve every
floor.  A round linearizes the row's integrals at its point x, l(q) =
h(x) + a . (q - x) with h = (I - c) / |c| and the Jacobian a from one
adjoint sweep over all pairs, descends on f - lam . (h - l) +
``_descent.ELASTIC`` * sum max(0, -l) from the row's multipliers lam (0
at first), and projects every trial step onto the box-simplex cut by the
halfspaces l >= 0 (``_projection.project_cut``), elastic where no point
meets them.  The halfspaces' multipliers at the round's end are the
row's next lam.  At a round's start what the linearization leaves out is
0, so its stop test there is the floor's KKT test at the row's point and
multipliers: the Frank-Wolfe gap of f's gradient tilted by lam . a, plus
the complementarity.  A row's early rounds stop at the loose gap levels
1e-5 and then 1e-7, each skipped where the round's start already meets
it, and the rest at TOL (``_descent.LEVELS``), so a round that stops
before its first step ran at TOL.  A row leaves once a round takes no
step: stopped at "tol", it is stationary to TOL; stalled, or on a zero
step that leaves its multipliers as they were, nothing about it would
change in a later round.  Otherwise it leaves after 30 rounds.  The
rounds converge fast near a solution; on the benchmark's floor instance
each row takes six, two loose ones and the last one confirming.  Kernel
calls and both projections treat rows independently, so each start
follows the same float path as it would alone.

Every trial step and random start goes through the box-simplex projection
of ``_projection``, which the solver calls with its uniform box as the two
floats mu/N and N*mu.  It solves the dual variable tau of the sum
constraint exactly and without sorting, by Newton steps on the piecewise
linear sum kept inside a bracket, with a median-breakpoint step as the
safeguard (Cominetti, Mascarenhas & Silva 2014; Dai & Fletcher 2006;
Kiwiel 2008), in a number of O(P) passes that is small in practice and
bounded by 2P + floor(log2 P) + 4.

Each value is one O(P) forward pass of the node kernel in ``_tree``, kept
as the point's tape for as long as one trial, and each gradient the
kernel's exact adjoint sweep over that tape: a row is differentiated at
each round's start and at each point it accepts, so a solved winner's
gap reads the gradient its descent took there.  A start's own value is
read in its first round; only a start that wins where m is smooth and
convex is folded again, for its gap, and under the floor the winner, for
its KKT certificate.

n on a binary lattice with no floor takes none of the above: there its
minimum is the exact bottom-up walk over subtree mass of ``_exact``, in
O(P) breakpoints per level, and a top-down pass from the root's unit mass
gives a measure that attains it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _tree
from ._descent import Descent
from ._exact import min_n
from ._projection import frank_wolfe_gap, project_capped_simplex, project_cut
from ._tree import Floor, Tape, Tree, row_blocks
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
# takes 1.8-2.0 s for m at p = 2 and 1.5-1.7 s for n, with a tracemalloc
# peak of 8.3-8.4 MiB (one core of a 2-vCPU Xeon, numpy 2.4; BENCH_29.json).
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
    """``max_iter`` limits each round, not the whole solve: a start with a
    floor runs at most 30 rounds on the linearized floor, so up to
    30 * max_iter iterations.  Every round stops at the gap
    ``_descent.TOL``, or an early floor round at the looser gap levels of
    ``_descent.LEVELS``; neither is an option.  ``restarts`` counts the
    base start and the random ones, which ``minimize`` draws only where m
    is not both smooth and convex; ``seed`` draws them."""

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
    ``check_constraints`` compute it, in one pass over every pair.  It
    raises only where this pair's E_Q|g_i g_j| vanishes."""
    check_same_lattice(Q, g)
    if not (0 <= i < g.n and 0 <= j < g.n and i != j):
        raise ParameterError(f"need distinct exchange indices in 0..{g.n - 1}")
    pairs, tree = _floor_pairs(g), Tree(g)
    pair = pairs.index((min(i, j), max(i, j)))
    with np.errstate(divide="ignore", invalid="ignore"):   # where another pair's vanishes
        integrals = Floor(tree, pairs).moments(tree.node_weights(Q.weights), pair)[0]
    return float(integrals[0, pair])


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
    """The objective on raw weight rows (G, P) or one vector (P,): values,
    floor violations and exact gradients, each one pass of the node kernel
    in ``_tree``.  The forward pass at a point is its :class:`Tape`; the
    value and the adjoint read it, so a point differentiated from its tape
    is not folded again.  The rows enter C-contiguous, so neither pass
    follows the caller's layout.  ``differentiable`` says whether the
    objective is continuously differentiable: m with p > 1, but not n or m
    with p <= 1."""

    def __init__(self, g: LatticeProcess, params: ConstraintParams):
        self.params = params
        self.differentiable = params.objective == "m" and params.p > 1.0
        self.tree = Tree(g)
        pairs = _floor_pairs(g, params)
        self.floor = Floor(self.tree, pairs) if pairs else None

    def raw(self, W: list[np.ndarray], tape: Tape | None = None) -> np.ndarray:
        """The objective per row of the node weights W, read from their
        tape where given (the tapeless value pass folds here, in place)."""
        if self.params.objective == "m":
            return self.tree.m(W, self.params.p) if tape is None else self.tree.m(
                W, self.params.p, A=tape.A, elem=tape.elem)
        return self.tree.n_value(W, A=None if tape is None else tape.A)

    def tape(self, Q: np.ndarray) -> Tape:
        """The forward pass at the rows of Q: node weights, the fold (every
        horizon for m, one step for n), the floor's moments and m's
        elementwise pass."""
        W = self.tree.node_weights(np.ascontiguousarray(np.atleast_2d(Q)))
        moments = None if self.floor is None else self.floor.moments(W)
        if self.params.objective == "n":
            return Tape(W, self.tree.averages(W, 1), moments)
        A = self.tree.averages(W, self.tree.K)
        return Tape(W, A, moments, self.tree.m_pass(A, self.params.p))

    def evaluate(self, Q: np.ndarray, tape: Tape | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
        """(objective, largest floor violation max(0, c - I)) per row of Q,
        read from its tape (taken here where None)."""
        tape = self.tape(Q) if tape is None else tape
        raw = self.raw(tape.W, tape)
        if self.floor is None:
            return raw, np.zeros_like(raw)
        return raw, np.maximum(0.0, self.params.c - tape.moments[0]).max(axis=1)

    def gradient(self, Q: np.ndarray, tape: Tape | None = None,
                 weights: np.ndarray | None = None) -> np.ndarray:
        """Gradient of the objective plus sum_j weights_j * I_j, the floor's
        integrals weighted per row and pair (G, pairs), in the shape of Q:
        the adjoint sweep of the node kernel over Q's tape (taken here where
        None)."""
        tape = self.tape(Q) if tape is None else tape
        if self.params.objective == "m":
            terms, D = self.tree.m(tape.W, self.params.p, adjoint=True, A=tape.A,
                                   elem=tape.elem)
        else:
            terms, D = self.tree.n_value(tape.W, adjoint=True, A=tape.A)
        if weights is not None and np.any(weights):
            terms = [t + e for t, e in zip(terms, self.floor.terms(tape.moments,
                                                                   np.atleast_2d(weights)))]
        return self.tree.reverse(terms, D).reshape(np.shape(Q))


# -- minimization --------------------------------------------------------------

class RestartRecord(NamedTuple):
    """What the descent from one start did.  ``kind`` is "base", "random" or
    "extra"; ``stop`` is why its last round ended: "tol" (stationary: its
    Frank-Wolfe gap, under the floor that of the gradient tilted by the
    multipliers plus their complementarity, at most ``_descent.TOL``),
    "stalled-line-search" (no step above the minimum step decreased the
    value), "zero-step" (a trial's projected point was the row's point: a
    fixed point, or a step halved too short to move it) or "max_iter".
    Under the floor a start leaves its rounds once one takes no step, so
    its last round stopped at "tol" before a step, at the full gap
    ``_descent.TOL``, unless it stalled there, ended there on a zero step
    that left its multipliers as they were, or ran all 30 rounds.  The
    counts are rows the descent evaluated (forward passes, each the
    point's tape), differentiated and projected (trial steps only, a cut
    projection counting its dual steps: one where the step on the row's
    piece settles it, each other step a box-simplex projection) for this
    start.
    A row is differentiated once per point it reached, at each round's
    start (with the floor's Jacobian there) and at each accepted step,
    from the tape its evaluation made, so ``gradients`` is iterations +
    penalty_rounds and no gradient folds again.  ``penalty_rounds`` counts
    its rounds (one without a floor), the loose early rounds on the
    linearized floor and the round that confirms its point included.
    ``value`` and ``violation`` are those of the point it reached, and
    ``multipliers`` the floor's multipliers there, one per exchange pair
    i < j in order (none without a floor), in the units of
    f - sum lam (I - c): those of the linearized floor's halfspaces at the
    end of its last round, at most ``_descent.ELASTIC`` / |c|, which they
    reach where the floor is out of reach.  Where the exact walk solved n
    (b = 2, no floor) the one record has kind and stop "exact", one
    evaluation, of the walk's point, and no iteration, gradient or penalty
    round."""

    kind: str
    stop: str
    iterations: int
    evaluations: int
    gradients: int
    projections: int
    penalty_rounds: int
    value: float
    violation: float
    multipliers: tuple[float, ...] = ()


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
    with p > 1 and no active floor; 0.0 where the exact walk solved n, whose
    candidates are the base measure (0) and the walk's point (1); None
    elsewhere.  Under the floor, where the problem is nonconvex and no gap
    bounds the value, ``kkt`` and ``lagrangian_gap`` certify how stationary
    the winner is at its multipliers lam (a solved winner's, 0 for a start):
    ``lagrangian_gap`` is the Frank-Wolfe gap of the Lagrangian
    f - sum lam (I - c) over the box-simplex, and ``kkt`` the largest of
    that gap, the floor's violation max(0, c - I) and the complementarity
    |lam (I - c)| over the pairs.  Both are None without a floor."""

    measure: Measure
    value: float
    gap: float | None
    constraint_slacks: dict[str, float]
    iterations: int
    trace: list[tuple[float, float, float]]
    feasible: bool
    restarts: list[RestartRecord]
    winner: int
    kkt: float | None = None
    lagrangian_gap: float | None = None

    def __post_init__(self):
        if self.value < 0.0:
            raise ParameterError(f"objective value must be >= 0, got {self.value}")
        if self.feasible and any(s < -FEASIBILITY_TOL for s in self.constraint_slacks.values()):
            raise ParameterError("feasible report with slack below tolerance")


# The most rounds a row takes on the floor; see ``_solve_starts``.
_ROUNDS = 30


def _solve_starts(obj: _Objective, starts: np.ndarray,
                  project: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  gap: Callable[[np.ndarray, np.ndarray], np.ndarray], max_iter: int,
                  cut: Callable | None = None) -> Descent:
    """Descend from every start row at once: one round without a floor
    (``cut`` None), else linearly constrained rounds (Robinson 1972; Murtagh
    & Saunders 1978), made elastic as Friedlander & Saunders (2005) do; see
    :meth:`Descent.round`.

    Each round linearizes the floor at the row's point and takes the
    halfspaces' multipliers at its end as the row's next multipliers.  A
    round stops at the row's gap level, the first of ``_descent.LEVELS``
    after its last round's that the round's start does not meet, so a
    round that stops at "tol" before its first step ran at TOL.  A row
    leaves once a round takes no step: where it stopped at "tol" the row
    has passed the KKT test to TOL at its point and multipliers; where it
    stalled, ran out of iterations or ended on a zero step that left its
    multipliers as they were, nothing about the row changed, so every
    later round would repeat it, and its record's stop says it is not
    stationary.  A round that steps, or that ends on a zero step which
    hands the row new multipliers, those of its fixed point, never lets it
    leave: the next round linearizes again at the point it reached.  Rows
    leave after _ROUNDS rounds in any case, the loose rounds counted."""
    run = Descent(obj, starts, project, gap, max_iter, cut)
    rows = np.arange(len(starts))
    if cut is None:
        run.round(rows)
        return run
    for _ in range(_ROUNDS):
        before, lam = run.iterations[rows], run.lam[rows]
        run.round(rows)
        renewed = (run.stop[rows] == "zero-step") & (run.lam[rows] != lam).any(axis=1)
        rows = rows[(run.iterations[rows] > before) | renewed]
        if not rows.size:
            break
    return run


def minimize(g: LatticeProcess, params: ConstraintParams,
             opts: SolveOptions = SolveOptions(),
             extra_starts: Sequence[np.ndarray] = ()) -> SolveReport:
    """Minimize the chosen unfairness functional over the constraint class.

    Projected gradient descent on the path weights, started from the base
    measure and any ``extra_starts`` (projected first; useful for warm
    starts across related instances), all descending together as one batch
    of rows, each until its Frank-Wolfe gap is at most ``_descent.TOL``.
    Where the problem is nonsmooth or nonconvex (objective n on b > 2, p <= 1
    or an active correlation floor) (restarts - 1) random feasible points are
    added to the starts; for m with p > 1 and no floor the objective is
    convex and smooth, so the base start alone reaches the optimum and no
    random start is drawn.  The correlation floor is handled by rounds on
    the floor linearized at each start's point, each start with its own
    multipliers, at most 30 rounds (see the module docstring and
    ``_solve_starts``), and the report certifies the winner's KKT residual.
    Every start point is kept as a candidate, so
    whenever the base measure is feasible the report is feasible with value
    no worse than the base value.  If no candidate ever satisfies the floor
    the least violating point is returned with ``feasible=False``.

    Objective n on a binary lattice with no floor is solved exactly
    instead, with no descent: the walk of ``_exact`` over subtree mass
    gives a minimizer, the options and the extra starts play no part, and
    the report's one record has kind "exact" and its gap is 0.0.
    """
    lat = g.lattice
    P = lat.n_paths
    lo, hi = box_bounds(lat, params.N)
    project = lambda V, x=None: project_capped_simplex(V, lo[0], hi[0], x)
    gap = lambda V, grad: frank_wolfe_gap(V, grad, lo[0], hi[0])
    obj = _Objective(g, params)
    floor_active = obj.floor is not None
    smooth_convex = obj.differentiable and not floor_active
    extra = [np.asarray(s, dtype=float) for s in extra_starts]
    if any(s.shape != (P,) for s in extra):
        raise ParameterError(f"extra starts must have one weight per path, shape ({P},)")
    if params.objective == "n" and lat.branching == 2 and not floor_active:
        return _solve_exact(g, params, obj, lo[0], hi[0])

    randoms = 0 if smooth_convex else opts.restarts - 1
    kinds = ["base"] + ["random"] * randoms + ["extra"] * len(extra)
    starts = np.empty((len(kinds), P))
    starts[0] = uniform_measure(lat).weights
    for r in range(1, randoms + 1):
        starts[r] = np.random.default_rng([opts.seed, r]).uniform(lo, hi)
    for r, s in enumerate(extra, start=randoms + 1):
        starts[r] = s
    starts[1:] = project(starts[1:])

    cut = (lambda V, A, b, upper, nu, x: project_cut(V, lo[0], hi[0], A, b, upper, nu, x)
           ) if floor_active else None
    run = _solve_starts(obj, starts, project, gap, opts.max_iter, cut)

    # the candidates: start r is 2r and the point descended from it 2r + 1
    value = np.column_stack((run.start_raw, run.raw)).ravel()
    violation = np.column_stack((run.start_viol, run.viol)).ravel()
    feasible_idx = np.flatnonzero(violation <= FEASIBILITY_TOL)
    if feasible_idx.size:
        w = int(feasible_idx[np.argmin(value[feasible_idx])])
    else:
        w = int(np.lexsort((value, violation))[0])
    r, solved = divmod(w, 2)
    records = [RestartRecord(kind, str(run.stop[i]), int(run.iterations[i]),
                             *map(int, run.counts[i]), int(run.rounds[i]),
                             float(run.raw[i]), float(run.viol[i]),
                             tuple((run.lam[i] / run.scale).tolist()))
               for i, kind in enumerate(kinds)]

    q = run.q[r] if solved else starts[r]
    measure = Measure(lat, q)
    report = check_constraints(measure, g, params)
    # the winner's gap certifies its value only where m is smooth and convex
    # (no floor); under the floor its KKT residual certifies its point
    certified = kkt = lagrangian_gap = None
    if smooth_convex:
        grad = run.grad[r] if solved else obj.gradient(q)
        certified = max(0.0, float(gap(q, grad)))
    if floor_active:
        lam = run.lam[r] / run.scale if solved else np.zeros(len(obj.floor.pairs))
        kkt, lagrangian_gap = _certificate(obj, q, lam, gap)
    feasible = bool(feasible_idx.size) and report.feasible
    return SolveReport(measure=measure, value=float(value[w]),
                       gap=certified, kkt=kkt, lagrangian_gap=lagrangian_gap,
                       constraint_slacks=report.summary(),
                       iterations=int(run.iterations[r]) if solved else 0,
                       trace=run.trace(r) if solved else [], feasible=feasible,
                       restarts=records, winner=w)


def _certificate(obj: _Objective, q: np.ndarray, lam: np.ndarray,
                 gap: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> tuple[float, float]:
    """The KKT residual of a point q under the floor at its multipliers lam
    (one per pair), and the Frank-Wolfe gap of its Lagrangian
    f - sum lam (I - c) over the box-simplex, the residual's stationarity
    part; the residual is the largest of that gap, the violation
    max(0, c - I) and the complementarity |lam (I - c)| over the pairs.
    One forward pass and one adjoint sweep at q."""
    tape = obj.tape(q)
    slack = tape.moments[0][0] - obj.params.c
    lagrangian_gap = max(0.0, float(gap(q, obj.gradient(q, tape, -lam))))
    residual = max(lagrangian_gap, float(np.maximum(0.0, -slack).max()),
                   float(np.abs(lam * slack).max()))
    return residual, lagrangian_gap


def _solve_exact(g: LatticeProcess, params: ConstraintParams, obj: _Objective,
                 lo: float, hi: float) -> SolveReport:
    """n on a binary lattice with no floor, by the exact walk.  The base
    measure is evaluated first, so nonpositive values raise n's own error
    before the walk divides by them; it stays a candidate, so the report
    is never worse than the base."""
    base = float(obj.evaluate(uniform_measure(g.lattice).weights)[0][0])
    q = min_n(obj.tree, lo, hi)
    value = float(obj.evaluate(q)[0][0])
    w = int(value < base)
    measure = Measure(g.lattice, q) if w else uniform_measure(g.lattice)
    report = check_constraints(measure, g, params)
    record = RestartRecord("exact", "exact", 0, 1, 0, 0, 0, value, 0.0)
    return SolveReport(measure=measure, value=value if w else base, gap=0.0,
                       constraint_slacks=report.summary(), iterations=0, trace=[],
                       feasible=report.feasible, restarts=[record], winner=w)


# -- brute-force oracle ----------------------------------------------------------

@dataclass
class BruteForceResult:
    measure: Measure
    value: float


def _run_bounds(s: np.ndarray, axis: np.ndarray, lo: float,
                hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Each prefix sum's run of in-box last head values, as index bounds
    (start, stop) into ``axis``: the j with
    lo - 1e-12 <= 1.0 - (s + axis[j]) <= hi + 1e-12.  As ``axis`` is
    nondecreasing and IEEE rounding is monotone, that last coordinate is
    nonincreasing in j, so each bound is the first j past a threshold,
    found by a vectorized bisection on the same rounded expression
    (log2(width) + 1 passes, however many axis values are equal)."""
    width = len(axis)
    bounds = []
    for beyond in (lambda last: last <= hi + 1e-12, lambda last: last < lo - 1e-12):
        first = np.zeros(len(s), dtype=np.intp)  # no j below first is beyond
        for step in [1 << e for e in reversed(range(width.bit_length()))]:
            probe = first + step
            last = 1.0 - (s + axis[np.minimum(probe, width) - 1])
            first = np.where((probe <= width) & ~beyond(last), probe, first)
        bounds.append(first)
    return bounds[0], bounds[1]


def _in_box_blocks(axis: np.ndarray, P: int, lo: float, hi: float):
    """The grid's points in the box-simplex, in lexicographic order, as
    column-major (n, P) blocks.  On the box-simplex the last coordinate
    falls as the last head value rises, so each prefix on the first P - 2
    axes holds one contiguous run of in-box points; only those runs are
    built.  The prefixes are taken in chunks of at most
    ``_tree.BLOCK_ELEMS``, and a block holds whole runs, at most
    ``BLOCK_ELEMS // P`` rows of them or one run that is longer."""
    width = len(axis)
    rows_max = _tree.BLOCK_ELEMS // P
    for chunk in row_blocks(width ** (P - 2), 1):
        # prefixes on the first P - 2 axes, summed left to right
        pre = [axis[d] for d in np.unravel_index(np.arange(chunk.start, chunk.stop),
                                                 (1,) + (width,) * (P - 2))[1:]]
        s = sum(pre, np.zeros(chunk.stop - chunk.start))
        start, stop = _run_bounds(s, axis, lo, hi)
        counts = stop - start
        ends = np.cumsum(counts)
        i, base = 0, 0
        while i < len(s):
            j = max(int(np.searchsorted(ends, base + rows_max, side="right")), i + 1)
            n = int(ends[j - 1]) - base
            if n:
                c = counts[i:j]
                cand = np.empty((n, P), order="F")
                for col, x in enumerate(pre):
                    cand[:, col] = np.repeat(x[i:j], c)
                # each row's axis index: its run's start plus its place in the run
                head = np.arange(n) + np.repeat(start[i:j] - (ends[i:j] - c - base), c)
                np.take(axis, head, out=cand[:, -2])
                np.clip(1.0 - (np.repeat(s[i:j], c) + cand[:, -2]), lo, hi, out=cand[:, -1])
                yield cand
            i, base = j, base + n


def brute_force_min(g: LatticeProcess, params: ConstraintParams,
                    resolution: int = 200) -> BruteForceResult:
    """Exhaustive grid search over the feasible box-simplex.

    The last coordinate is eliminated by normalization; only grid points in
    the box are built, in lexicographic order, in blocks of bounded memory
    (``_in_box_blocks``), and a point below the floor never wins; ties go
    to the lexicographically smallest.  Each block is column-major, so the
    node kernel's passes run along the candidates (see ``_tree``); the
    values are those of the same rows in row-major order.  Limited to 6
    paths, integer resolutions to 2000 and 10^8 points on the grid.
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
    # its distinct values (it is nondecreasing), so that at N = 1 the grid
    # is one point; np.unique would cost its first call 1.7 MB of RSS
    axis = axis[np.append(True, axis[1:] != axis[:-1])]
    best_q, best_value = None, math.inf
    for cand in _in_box_blocks(axis, P, lo[-1], hi[-1]):
        W = obj.tree.node_weights(cand)
        values = obj.raw(W)
        if obj.floor is not None:
            values[~(obj.floor.moments(W)[0] >= params.c - 1e-12).all(axis=1)] = math.inf
        best = int(np.argmin(values))  # first occurrence = lexicographically smallest
        if values[best] < best_value:
            best_q, best_value = cand[best], float(values[best])
    if best_q is None:
        raise InfeasibleError(f"no grid point satisfies the correlation floor c={params.c}")
    return BruteForceResult(measure=Measure(lat, best_q), value=best_value)
