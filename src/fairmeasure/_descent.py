"""Lock-step projected gradient descent over a batch of start rows.

``solver.minimize`` hands every start to one :class:`Descent` as a row of a
(G, P) weight array, the G axis of the node kernel, and runs its multiplier
rounds through :meth:`Descent.round` and :meth:`Descent.multiply`; each row
keeps its own multipliers and the floor's integrals at its point.  The
objective supplies per-row values and gradients (``solver._Objective``) and
says whether they are differentiable, the projection maps rows onto the
feasible box-simplex, the gap gives each row's Frank-Wolfe gap over it,
each round stops a row at the gap the caller gives it (TOL, or looser in a
floor's early rounds), and max_iter bounds the iterations of one round.
Each evaluation's forward pass is its tape (``_tree.Tape``), and a tape
lives for one trial: a row is differentiated as soon as its point is
evaluated, at a round's start from the round's tape and on accepting a
trial from the trial's (its accepting rows taken, where not all of them
accepted), so differentiating runs only the adjoint.  The row keeps that gradient for its next iteration, and
``minimize`` certifies a solved winner from it.

Every iteration searches along the projected arc P(x - t g): each trial
step t is one projection and one evaluation, and a rejected trial halves
t.  How the first trial step is chosen and what a trial is tested against
depend on the objective:

* Differentiable (m with p > 1, with or without the floor's augmented
  Lagrangian term): spectral projected gradient (Barzilai & Borwein 1988;
  Raydan 1997; Birgin, Martinez & Raydan 2000).  The first trial step of a round
  is ``STEP``; after that it is the Barzilai-Borwein ratio s's / s'y of
  the row's last pair, s = x_k - x_{k-1} and y = g_k - g_{k-1}, clamped to
  [_BB_MIN, _BB_MAX], with s'y <= 0 (no positive curvature along s)
  taking ``STEP`` again.  A trial is accepted by the Armijo test against
  the largest of the row's last _WINDOW penalized values in the round, so
  the value may rise for a few iterations (Grippo, Lampariello & Lucidi
  1986).
* Nonsmooth (n, and m with p <= 1): the trial step doubles from the last
  accepted one, capped at ``STEP``, and the Armijo test is monotone,
  against the current value.

Variants measured against this one, by ``minimize`` on the instances of
the package's benchmark workloads at seed 1 (2 vCPU, Python 3.11, numpy
2.4), which lose (n on the deep lattice was measured before the exact walk,
and the kept tape below under the growing quadratic-penalty rounds that the
multiplier rounds replaced):

* The spectral step and the window on every row: n on a deep lattice
  (b = 2, K = 11) stopped at 0.05153 instead of 0.05049, and m at p = 1
  and n on two-path instances ran all 400 iterations with 8300-10500
  evaluations per row, 6 s instead of 0.035 s each.  Across a kink the BB
  ratio estimates no curvature.
* A monotone test with the spectral step: the correlation-floor instance
  (b = 4, K = 3, three exchanges) took 1.36-1.44 s instead of 0.32 s at
  seeds 1 and 2, its rows taking 356-415 iterations instead of 183-219 for
  the same minimum.  On the nonsmooth rows alone it raised n on the deep
  lattice from 0.0504891 to 0.0509553.
* The spectral step capped at ``STEP``: m on the deep lattice took
  49 iterations instead of 36, and the 20 tiny oracle instances 0.46 s
  instead of 0.24 s in all.
* The step carried into the next multiplier round, each round's first
  trial step being the row's last one instead of ``STEP``: on the
  correlation-floor instance at seed 1 its rows took 167-188 iterations
  instead of 146-169 (879 evaluations instead of 817), and over seeds
  1-10 8348 evaluations instead of 8395.
* A first multiplier round at a gap of 1e-4, then 1e-6 and 1e-8: on the
  correlation-floor instance at seeds 1-10 it took 7988 evaluations
  instead of 8395, but its values moved up to 1.8e-8 relative from those
  of rounds all at TOL, against 3.0e-9 for 1e-5 and 1e-7, and some rows
  passed the KKT test after four rounds instead of five.

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
    whatever else is in the batch."""

    def __init__(self, obj, starts: np.ndarray,
                 project: Callable[[np.ndarray], np.ndarray],
                 gap: Callable[[np.ndarray, np.ndarray], np.ndarray], max_iter: int):
        S = len(starts)
        self.obj, self.project, self.gap, self.max_iter = obj, project, gap, max_iter
        self.q = starts.copy()
        self.raw, self.viol, self.rho = np.zeros(S), np.zeros(S), np.zeros(S)
        self.iterations = np.zeros(S, dtype=int)
        self.rounds = np.zeros(S, dtype=int)
        self.counts = np.zeros((S, 3), dtype=int)   # evaluations, gradients, projections
        self.steps = np.empty((S, 64, 3))   # per accepted step: raw value, step size, violation
        self.stop = np.full(S, "max_iter", dtype=object)
        self.grad = np.empty_like(self.q)   # per row, the gradient at q of its round's value
        # per row and floor pair, the multiplier of its next round and the
        # integral at q, read from the evaluation that reached q; the caller
        # may reset a row's multipliers and point between rounds
        pairs = 0 if obj.floor is None else len(obj.floor.pairs)
        self.lam, self.integrals = np.zeros((S, pairs)), np.zeros((S, pairs))

    def trace(self, row: int) -> list[tuple[float, float, float]]:
        """(raw value, step size, violation) after each accepted step of a
        row; the step size is the trial step t that the line search
        accepted, the point being P(x - t g)."""
        return [tuple(step) for step in self.steps[row, :self.iterations[row]].tolist()]

    def multiply(self, rows: np.ndarray) -> np.ndarray:
        """After a round on ``rows``: each row's KKT residual, the largest
        |max(c - I, -lam / (2 rho))| over the pairs at the multipliers of
        the round and the integrals I at its point, and then the multiplier
        update lam <- max(0, lam + 2 rho (c - I)) (Hestenes 1969; Powell
        1969)."""
        lam, slack = self.lam[rows], self.obj.params.c - self.integrals[rows]
        w = 2.0 * self.rho[rows, None]
        self.lam[rows] = np.maximum(0.0, lam + w * slack)
        return np.abs(np.maximum(slack, -lam / w)).max(axis=1)

    def round(self, rows: np.ndarray, rho: float, tol: float | np.ndarray = TOL) -> None:
        """At most max_iter iterations on ``rows`` at penalty weight rho, each
        row on its augmented Lagrangian f + rho * sum max(0, c + lam / (2 rho)
        - I)^2, the floor c shifted by its multipliers ``lam``.  A row stops
        at "tol" once its Frank-Wolfe gap is at most its ``tol``, one per row
        of ``rows`` or one for all: TOL, where the row is stationary, or a
        looser gap for an early multiplier round.  The step and the window
        start afresh each round, as the multipliers change the penalized
        value."""
        obj, q, t = self.obj, self.q, np.full(len(self.q), STEP)
        limit = np.empty(len(q))
        limit[rows] = tol
        # per row and pair, the floor its penalty is against: c shifted by the
        # row's multipliers, or c itself (None) where there is no penalty
        shift = obj.params.c + self.lam / (2.0 * rho) if self.lam.shape[1] and rho else None
        shifted = lambda r: None if shift is None else shift[r]
        spectral = obj.differentiable
        # each row's last penalized values in this round, -inf where none yet
        recent = np.full((len(q), _WINDOW if spectral else 1), -np.inf)
        last_x, last_grad = np.empty_like(q), np.empty_like(q)   # the spectral rows' last pair
        q[rows] = self.project(q[rows])
        tape = obj.tape(q[rows])
        recent[rows, 0], self.raw[rows], self.viol[rows] = obj.evaluate(q[rows], rho, tape,
                                                                        shifted(rows))
        self.grad[rows] = obj.gradient(q[rows], rho, tape, shifted(rows))
        if shift is not None:
            self.integrals[rows] = tape.moments[0]
        self.counts[rows] += 1
        self.stop[rows], self.rho[rows] = "max_iter", rho
        self.rounds[rows] += 1
        active = rows
        for it in range(self.max_iter):
            if not active.size:
                break
            x, grad = q[active], self.grad[active]
            done = self.gap(x, grad) <= limit[active]
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
                xn = self.project(x[search] - t[r][:, None] * grad[search])
                d2 = ((xn - x[search]) ** 2).sum(axis=1)
                self.counts[r, 2] += 1
                zero = d2 == 0.0
                self.stop[r[zero]] = "zero-step"
                search, r, xn, d2 = search[~zero], r[~zero], xn[~zero], d2[~zero]
                if not search.size:
                    break
                tape = obj.tape(xn)
                f_pen, f_raw, f_viol = obj.evaluate(xn, rho, tape, shifted(r))
                self.counts[r, 0] += 1
                ok = f_pen <= recent[r].max(axis=1) - 1e-4 * d2 / t[r]
                a = r[ok]
                q[a], self.raw[a], self.viol[a] = xn[ok], f_raw[ok], f_viol[ok]
                if a.size:
                    kept = tape if ok.all() else tape.take(ok)
                    self.grad[a] = obj.gradient(xn[ok], rho, kept, shifted(a))
                    self.counts[a, 1] += 1
                    if shift is not None:
                        self.integrals[a] = kept.moments[0]
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
