"""Lock-step projected gradient descent over a batch of start rows.

``solver.minimize`` hands every start to one :class:`Descent` as a row of a
(G, P) weight array, the G axis of the node kernel, and runs its penalty
rounds through :meth:`Descent.round`.  The objective supplies per-row values
and gradients (``solver._Objective``), the projection maps rows onto the
feasible box-simplex, the gap gives each row's Frank-Wolfe gap over it, and
the options give max_iter, step and tol.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

# A backtracking line search that halves the step to this size has stalled.
_MIN_STEP = 1e-14


class Descent:
    """The rows of a batch and what each has done so far.

    Each row has its own step size and leaves the active set when it stops;
    each backtracking trial evaluates only the rows still searching.  Every
    kernel call and projection treats rows independently, so a row's path
    is the same float for float whatever else is in the batch."""

    def __init__(self, obj, starts: np.ndarray,
                 project: Callable[[np.ndarray], np.ndarray],
                 gap: Callable[[np.ndarray, np.ndarray], np.ndarray], opts):
        S = len(starts)
        self.obj, self.project, self.gap, self.opts = obj, project, gap, opts
        self.q = starts.copy()
        self.raw, self.viol, self.rho = np.zeros(S), np.zeros(S), np.zeros(S)
        self.iterations = np.zeros(S, dtype=int)
        self.rounds = np.zeros(S, dtype=int)
        self.counts = np.zeros((S, 3), dtype=int)   # evaluations, gradients, projections
        self.steps = np.empty((S, 64, 3))   # per accepted step: raw value, step size, violation
        self.stop = np.full(S, "max_iter", dtype=object)

    def trace(self, row: int) -> list[tuple[float, float, float]]:
        """(raw value, step size, violation) after each accepted step of a row."""
        return [tuple(step) for step in self.steps[row, :self.iterations[row]].tolist()]

    def round(self, rows: np.ndarray, rho: float) -> None:
        """At most max_iter iterations on ``rows`` at penalty weight rho.  A
        row is stationary, and stops at "tol", once its Frank-Wolfe gap is at
        most tol."""
        obj, opts, q, t = self.obj, self.opts, self.q, np.full(len(self.q), self.opts.step)
        pen = np.zeros(len(q))
        q[rows] = self.project(q[rows])
        pen[rows], self.raw[rows], self.viol[rows] = obj.evaluate(q[rows], rho)
        self.counts[rows] += (1, 0, 1)
        self.stop[rows], self.rho[rows] = "max_iter", rho
        self.rounds[rows] += 1
        active = rows
        for _ in range(opts.max_iter):
            if not active.size:
                break
            x = q[active]
            grad = obj.gradient(x, rho)
            self.counts[active, 1] += 1
            done = self.gap(x, grad) <= opts.tol
            self.stop[active[done]] = "tol"
            active, x, grad = active[~done], x[~done], grad[~done]
            t[active] = np.minimum(opts.step, 2.0 * t[active])
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
                f_pen, f_raw, f_viol = obj.evaluate(xn, rho)
                self.counts[r, 0] += 1
                ok = f_pen <= pen[r] - 1e-4 * d2 / t[r]
                a = r[ok]
                q[a], pen[a], self.raw[a], self.viol[a] = xn[ok], f_pen[ok], f_raw[ok], f_viol[ok]
                n = self.iterations[a]
                if a.size and n.max() == self.steps.shape[1]:
                    self.steps = np.concatenate((self.steps, np.empty_like(self.steps)), axis=1)
                self.steps[a, n] = np.stack((f_raw[ok], t[a], f_viol[ok]), axis=1)
                self.iterations[a] += 1
                took[search[ok]] = True
                t[r[~ok]] *= 0.5
                search = search[~ok]
            active = active[took]
