"""Lock-step projected gradient descent over a batch of start rows.

``solver.minimize`` hands every start to one :class:`Descent` as a row of a
(G, P) weight array, the G axis of the node kernel, and runs its rounds
through :meth:`Descent.round`; under the correlation floor each row keeps
its own multipliers and the floor linearized at its point.  The objective
supplies per-row values and gradients (``solver._Objective``) and says
whether they are differentiable, the projection maps rows onto the
feasible box-simplex (under the floor the cut projection onto the
box-simplex cut by the linearized floor), each trial step given its row's
current point, whose piece starts the projection's Newton search, the gap
gives each row's Frank-Wolfe gap over it, each round stops a row once its
gap is at most TOL (a floor round at the row's gap level), and max_iter
bounds the iterations of one round.  Each evaluation's forward pass is
its tape (``_tree.Tape``), and a tape lives for one trial: a row is
differentiated as soon as its point is evaluated, at a round's start from
the round's tape and on accepting a trial from the trial's (its accepting
rows taken, where not all of them accepted), so differentiating runs only
the adjoint.  The row keeps that gradient for its next iteration, and
``minimize`` certifies a solved winner from it.  A row past its first
round holds the value and violation of its point, so a later round's
start takes the point's tape for its gradient and the floor's Jacobian
alone.

A floor round is linearly constrained (Robinson 1972; Friedlander &
Saunders 2005): each pair's integral, scaled to h = (I - c) / |c|, is
linearized at the row's point as l, the round's value is
f - lam . (h - l) + ELASTIC * sum max(0, -l), and every trial step is
projected onto the box-simplex cut by the halfspaces l >= 0, elastic at
ELASTIC; the multipliers of the halfspaces at the round's end are the
row's next lam.  Early rounds converge toward a linearization the next
round replaces, so they stop at loose gap levels (Friedlander & Saunders
also solve early subproblems inexactly): each row steps through
``LEVELS``, 1e-5, 1e-7 and then TOL, skipping a level its round's start
already meets.  See :meth:`Descent.round`.

Every iteration searches along the projected arc P(x - t g): each trial
step t is one projection and one evaluation, and a rejected trial halves
t.  How the first trial step is chosen and what a trial is tested against
depend on the objective:

* Differentiable (m with p > 1, with or without the floor's terms):
  spectral projected gradient (Barzilai & Borwein 1988;
  Raydan 1997; Birgin, Martinez & Raydan 2000).  The first trial step of a round
  is ``STEP``; after that it is the Barzilai-Borwein ratio s's / s'y of
  the row's last pair, s = x_k - x_{k-1} and y = g_k - g_{k-1}, clamped to
  [_BB_MIN, _BB_MAX], with s'y <= 0 (no positive curvature along s)
  taking ``STEP`` again.  A trial is accepted by the Armijo test against
  the largest of the row's last _WINDOW values of the round, so
  the value may rise for a few iterations (Grippo, Lampariello & Lucidi
  1986).
* Nonsmooth (n, and m with p <= 1): the trial step doubles from the last
  accepted one, capped at ``STEP``, and the Armijo test is monotone,
  against the current value.

Variants measured against this one, by ``minimize`` on the instances of
the package's benchmark workloads at seed 1 (2 vCPU, Python 3.11, numpy
2.4), which lose or gain too little (n on the deep lattice was measured
before the exact walk, the kept tape below under the growing
quadratic-penalty rounds that the later floor rounds replaced, and the
quadratic term and the carried step with every floor round at TOL):

* The spectral step and the window on every row: n on a deep lattice
  (b = 2, K = 11) stopped at 0.05153 instead of 0.05049, and m at p = 1
  and n on two-path instances ran all 400 iterations with 8300-10500
  evaluations per row, 6 s instead of 0.035 s each.  Across a kink the BB
  ratio estimates no curvature.
* A monotone test with the spectral step: the correlation-floor instance
  (b = 4, K = 3, three exchanges) took 1.36-1.44 s instead of 0.32 s at
  seeds 1 and 2, its rows taking 356-415 iterations instead of 183-219 for
  the same minimum (both under the multiplier rounds below).  On the
  nonsmooth rows alone it raised n on the deep lattice from 0.0504891 to
  0.0509553.
* The spectral step capped at ``STEP``: m on the deep lattice took
  49 iterations instead of 36, and the 20 tiny oracle instances 0.46 s
  instead of 0.24 s in all.
* PHR multiplier rounds on the whole floor (Hestenes 1969; Powell 1969),
  the method these rounds replaced: each round descended on
  f + rho * sum max(0, c + lam / (2 rho) - I)^2 with rho from 1e3 growing
  tenfold on a stall, to 1e6, or 1e12 with a new start from the row's
  start where that met the floor, and lam <- max(0, lam + 2 rho (c - I))
  after it; the first two rounds stopped at gaps of 1e-5 and 1e-7.  On
  the correlation-floor instance at seed 1 its rows took 146-169
  iterations and 817 evaluations in all (1074 with every round at TOL),
  against 349 here, and 8395 over seeds 1-10 against 3430; they ended
  8.6e-11 below the floor, 5.0e-9 relative below these rounds' value.
  On four random floors they ended 3.9-10.3% above SLSQP, where these
  rounds reach it.
* A quadratic term (rho / 2) |h - l|^2 in the round's value, the
  augmented Lagrangian of MINOS (Murtagh & Saunders 1978), in the scaled
  units (rho times |c|^-2 in the integrals' own, c = 0.0247 there): on
  the correlation-floor instance at seed 1 rho = 0.1 took 703 evaluations,
  10 took 4928 and 100 took 9133, against 349 without it, for the same
  value to 1e-11; the term weighs against every step away from the
  linearization, and the elastic term keeps the rounds defined without it.
* The step carried into the next round, each round's first trial step
  being the row's last one instead of ``STEP``: on the correlation-floor
  instance 3366 evaluations over seeds 1-10 instead of 3430, 2% fewer,
  for a step kept per row between rounds.
* Every floor round at TOL instead of at the gap levels: on the
  correlation-floor instance at seed 1 the rows took 22 + 26 + 18 + 14 +
  1 + 0 iterations over their six rounds and 349 evaluations in all,
  against 257 at the levels (3430 against 2524 over seeds 1-10), for the
  same value to 1e-14 relative.
* A gap of max(TOL, eta * the KKT test at the round's start) for each
  round, with eta = 0.1, 0.01 and 0.001: on the correlation-floor instance
  each round took about one iteration, the rows ran all 30 rounds with the multiplier of pair (1, 2) swinging between 0.22 and
  0.34 (0.265 at the solution), and the uniform start won at 0.0379 with
  a KKT residual of 0.054; on the tiny floor (integrals near 2e-6) the
  rows took up to 10 rounds.
* Looser first levels: 1e-3, 1e-5, 1e-7, TOL took 184 evaluations on the
  correlation-floor instance and 1e-4, 1e-6, 1e-8, TOL took 217, against
  257, but the first ladder took the tiny floor's rows up to 11 rounds,
  over the 8 its test allows; ladders of three levels from 1e-3 or 1e-4 down to
  1e-7 or 1e-8 took 250-276.
* Levels by round count, the first two rounds at 1e-5 and 1e-7 whatever
  their starts meet: a loose round that stops before its first step
  could end a start, and a row kept from leaving there takes one round
  more.  The rows on a floor out of reach took three rounds instead of
  two, and three of the four on a floor at the uniform measure's integral
  three instead of two.

One variant gives the same points and runs no faster, but takes more
code: each row kept the trial tape that reached its point, and its next
iteration differentiated that tape (the tape itself where it held just the
active rows in order, else their rows gathered across trials).  It needs
a per-row record of tape and place and three more methods of the tape,
and it skips the gradient at the last point of a round that ends at
max_iter.  The benchmark's run_s medians over 4 alternating 10 s pairs at
seed 1, kept tape against gradient on acceptance: deep_solve 0.130 against
0.130 s, oracle_small 0.907 against 0.922 s and floor_cli 1.378 against
1.352 s, peak memory within 0.2 MB; every output the same.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

# The first trial step of each round; the Frank-Wolfe gap at which a row stops.
STEP, TOL = 1.0, 1e-9
# The gap levels of a row's floor rounds, loosest first; see ``Descent.round``.
LEVELS = (1e-5, 1e-7, TOL)
# The elastic weight of a floor round: the bound on its halfspaces' multipliers,
# in units of the objective per unit of the scaled floor.
ELASTIC = 1e4
# The rounding of a linearized constraint jac . q - bound, relative to the
# size of its terms: within it, a halfspace counts as met.
_NOISE = 1e-12
# A backtracking line search that halves the step to this size has stalled.
_MIN_STEP = 1e-14
# The clamp on a Barzilai-Borwein step, and how many of a row's last
# penalized values its Armijo test may rise to, on the differentiable rows.
_BB_MIN, _BB_MAX = 1e-10, 1e10
_WINDOW = 10


class Descent:
    """The rows of a batch and what each has done so far.

    Each row has its own step size and line-search window and leaves the
    active set when it stops; each backtracking trial evaluates only the
    rows still searching, and a row that accepts is differentiated from the
    trial's tape at once, so no tape outlives its trial and ``grad`` holds
    the gradient at every row's point.  Every kernel call and projection
    treats rows independently, so a row's path is the same float for float
    whatever else is in the batch.

    With a floor, ``cut`` projects rows onto the box-simplex cut by their
    linearized floor (``_projection.project_cut`` on the solver's box, each
    row warm-started from its multipliers and its point's piece), and
    each round is a linearly constrained one; see :meth:`round`.  Each pair's
    constraint is scaled by ``scale`` = |c| (1 where c = 0), so the
    multipliers ``lam`` and ``mult``, ``ELASTIC`` and TOL mean the same on
    every floor."""

    def __init__(self, obj, starts: np.ndarray,
                 project: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 gap: Callable[[np.ndarray, np.ndarray], np.ndarray], max_iter: int,
                 cut: Callable | None = None):
        S, P = starts.shape
        self.obj, self.project, self.gap, self.max_iter = obj, project, gap, max_iter
        self.cut = cut
        self.q = starts.copy()
        self.raw, self.viol = np.zeros(S), np.zeros(S)
        self.start_raw, self.start_viol = np.zeros(S), np.zeros(S)   # read in round 1
        self.iterations = np.zeros(S, dtype=int)
        self.rounds = np.zeros(S, dtype=int)
        self.level = np.full(S, -1)   # the index in LEVELS of its last floor round's level
        self.counts = np.zeros((S, 3), dtype=int)   # evaluations, gradients, projections
        self.steps = np.empty((S, 64, 3))   # per accepted step: raw value, step size, violation
        self.stop = np.full(S, "max_iter", dtype=object)
        self.grad = np.empty_like(self.q)   # per row, the gradient at q of its round's value
        # per row and floor pair, scaled by ``scale``: the multipliers of its
        # round and those of its halfspaces at q, the gradient of the integral
        # at the round's point (the cut is jac . q >= bound) and the linearized
        # constraint at q, jac . q - bound
        pairs = 0 if cut is None else len(obj.floor.pairs)
        c = obj.params.c
        self.scale = abs(c) if c else 1.0
        self.lam, self.mult = np.zeros((S, pairs)), np.zeros((S, pairs))
        self.jac, self.bound = np.zeros((S, pairs, P if pairs else 0)), np.zeros((S, pairs))
        self.lin, self.noise = np.zeros((S, pairs)), np.zeros((S, pairs))

    def trace(self, row: int) -> list[tuple[float, float, float]]:
        """(raw value, step size, violation) after each accepted step of a
        row; the step size is the trial step t that the line search
        accepted, the point being P(x - t g)."""
        return [tuple(step) for step in self.steps[row, :self.iterations[row]].tolist()]

    def round(self, rows: np.ndarray) -> None:
        """At most max_iter iterations on ``rows``, on the box-simplex already.
        The step and the window start afresh each round.

        Without a floor a row descends on f over the box-simplex and stops
        at "tol" once its Frank-Wolfe gap is at most TOL.  With one, each
        row's round is linearly constrained (Robinson 1972; Friedlander &
        Saunders 2005): at its point x the floor's integrals I, scaled to
        h = (I - c) / scale, are linearized as l(q) = h(x) + a . (q - x),
        the Jacobian a from one adjoint sweep over all pairs; the row descends
        on f - lam . d + ELASTIC * sum max(0, -l), with d = h - l what the
        linearization leaves out, and every trial step is
        projected onto the box-simplex cut by the halfspaces l >= 0, elastic
        at the multiplier bound t * ELASTIC for the trial step t, so the
        projection is the proximal step of the elastic term.  The
        halfspaces' multipliers of the trial that reached a point, its
        projection's divided by t, are the row's ``mult`` there (at the
        round's start its ``lam``), and the row stops at "tol" once the
        Frank-Wolfe gap of g - mult . a plus the complementarity
        sum ELASTIC * max(0, -l) + mult * l is at most TOL; this bounds the
        Frank-Wolfe gap of the round's value over the cut.  At the round's
        start d = 0 and g is f's gradient, so there the test is the floor's
        KKT test at lam.  After the round ``lam`` takes ``mult``.

        A floor round stops at its row's gap level instead of TOL: the
        first of ``LEVELS`` after the row's last round's (``level``, an
        index into ``LEVELS``, -1 before its first round) that the KKT test
        at the round's start does not already meet, or TOL where it meets
        them all.  So a round that stops before its first step ran at TOL,
        and the loose rounds are counted among a start's penalty rounds."""
        obj, q, t = self.obj, self.q, np.full(len(self.q), STEP)
        tol = np.full(len(q), TOL)   # each row's gap level in this round
        floor = self.cut is not None
        spectral = obj.differentiable
        # each row's last penalized values in this round, -inf where none yet
        recent = np.full((len(q), _WINDOW if spectral else 1), -np.inf)
        last_x, last_grad = np.empty_like(q), np.empty_like(q)   # the spectral rows' last pair
        tape = obj.tape(q[rows])
        first = rows[self.rounds[rows] == 0]
        if first.size:   # a row past its first round holds its value and violation at q
            self.raw[rows], self.viol[rows] = obj.evaluate(q[rows], tape)
        self.start_raw[first], self.start_viol[first] = self.raw[first], self.viol[first]
        self.grad[rows] = obj.gradient(q[rows], tape)
        recent[rows, 0] = self.raw[rows]
        if floor:
            # on the simplex a constant shift of a leaves a . q - bound as it
            # is; without it the halfspaces would cancel digits
            jac = obj.floor.jacobian(tape.moments) / self.scale
            self.jac[rows] = jac - jac.mean(axis=2, keepdims=True)
            self.lin[rows] = (tape.moments[0] - obj.params.c) / self.scale
            self.bound[rows] = np.einsum("gjp,gp->gj", self.jac[rows], q[rows]) - self.lin[rows]
            self.noise[rows] = _NOISE * (np.abs(self.jac[rows]).max(axis=2)
                                         + np.abs(self.bound[rows]))
            self.mult[rows] = self.lam[rows]
            recent[rows, 0] += ELASTIC * np.maximum(0.0, -self.lin[rows]).sum(axis=1)
        self.counts[rows, :2] += 1
        self.stop[rows] = "max_iter"
        self.rounds[rows] += 1
        active = rows
        for it in range(self.max_iter):
            if not active.size:
                break
            x, grad = q[active], self.grad[active]
            if floor:
                lin, mult = self.lin[active], self.mult[active]
                tilt = grad - np.einsum("gj,gjp->gp", mult, self.jac[active])
                # a halfspace met to within its rounding counts as met
                slack = np.maximum(0.0, ELASTIC * np.maximum(0.0, -lin - self.noise[active])
                                   + mult * lin).sum(axis=1)
                test = self.gap(x, tilt) + slack
                if not it:   # the first level from the row's next that its start does not meet
                    # (the levels fall, so those a row meets are the first ``met``)
                    levels = np.array(LEVELS)
                    met = (test[:, None] <= levels).sum(axis=1)
                    level = np.minimum(np.maximum(self.level[active] + 1, met), len(levels) - 1)
                    self.level[active], tol[active] = level, levels[level]
                done = test <= tol[active]
            else:
                done = self.gap(x, grad) <= TOL
            self.stop[active[done]] = "tol"
            active, x, grad = active[~done], x[~done], grad[~done]
            if not spectral:
                t[active] = np.minimum(STEP, 2.0 * t[active])
            else:
                if it:   # every active row has accepted `it` steps this round
                    s, y = x - last_x[active], grad - last_grad[active]
                    ss, sy = (s * s).sum(axis=1), (s * y).sum(axis=1)
                    with np.errstate(divide="ignore"):
                        t[active] = np.where(sy > 0.0, np.clip(ss / sy, _BB_MIN, _BB_MAX),
                                             STEP)
                last_x[active], last_grad[active] = x, grad
            took = np.zeros(active.size, dtype=bool)
            search = np.arange(active.size)       # positions in active
            while search.size:
                stalled = t[active[search]] <= _MIN_STEP
                self.stop[active[search[stalled]]] = "stalled-line-search"
                search = search[~stalled]
                if not search.size:
                    break
                r = active[search]
                step = x[search] - t[r][:, None] * grad[search]
                if floor:
                    tr = t[r][:, None]
                    xn, nu, passes = self.cut(step, self.jac[r], self.bound[r], t[r] * ELASTIC,
                                              tr * self.mult[r], x[search])
                    self.counts[r, 2] += passes
                    nu /= tr
                else:
                    xn = self.project(step, x[search])
                    self.counts[r, 2] += 1
                d2 = ((xn - x[search]) ** 2).sum(axis=1)
                zero = d2 == 0.0
                self.stop[r[zero]] = "zero-step"
                if floor:   # a fixed point: its projection's multipliers hold there
                    self.mult[r[zero]] = nu[zero]
                    nu = nu[~zero]
                search, r, xn, d2 = search[~zero], r[~zero], xn[~zero], d2[~zero]
                if not search.size:
                    break
                tape = obj.tape(xn)
                f_raw, f_viol = obj.evaluate(xn, tape)
                f_pen = f_raw
                if floor:
                    lin = np.einsum("gjp,gp->gj", self.jac[r], xn) - self.bound[r]
                    d = (tape.moments[0] - obj.params.c) / self.scale - lin
                    f_pen = (f_raw - (self.lam[r] * d).sum(axis=1)
                             + ELASTIC * np.maximum(0.0, -lin).sum(axis=1))
                self.counts[r, 0] += 1
                ok = f_pen <= recent[r].max(axis=1) - 1e-4 * d2 / t[r]
                a = r[ok]
                q[a], self.raw[a], self.viol[a] = xn[ok], f_raw[ok], f_viol[ok]
                if a.size:
                    kept = tape if ok.all() else tape.take(ok)
                    if floor:
                        lam = self.lam[a]
                        self.grad[a] = (obj.gradient(xn[ok], kept, -lam / self.scale)
                                        + np.einsum("gj,gjp->gp", lam, self.jac[a]))
                        self.mult[a], self.lin[a] = nu[ok], lin[ok]
                    else:
                        self.grad[a] = obj.gradient(xn[ok], kept)
                    self.counts[a, 1] += 1
                recent[a, (it + 1) % recent.shape[1]] = f_pen[ok]
                n = self.iterations[a]
                if a.size and n.max() == self.steps.shape[1]:
                    self.steps = np.concatenate((self.steps, np.empty_like(self.steps)), axis=1)
                self.steps[a, n] = np.stack((f_raw[ok], t[a], f_viol[ok]), axis=1)
                self.iterations[a] += 1
                took[search[ok]] = True
                t[r[~ok]] *= 0.5
                search = search[~ok]
            active = active[took]
        if floor:
            self.lam[rows] = self.mult[rows]
