"""The box-simplex: Euclidean projection onto it and the Frank-Wolfe gap
over it, for one point or a batch of rows.

The solver's feasible set without the correlation floor is
{q : sum q = total, lo <= q <= hi}; every iterate of the descent and every
random start pass through the projection, and the descent's stationarity
test is the Frank-Wolfe gap.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError


def project_capped_simplex(v: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                           total: float = 1.0) -> np.ndarray:
    """Euclidean projection onto {q : sum q = total, lo <= q <= hi}, of one
    point v (P,) or of each row of v (G, P).

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
    is clamped to its piece.  O(P log P) per row for any box, uniform or not.
    Each row is first shifted by the integer part of its mean, which is exact
    and leaves rows of mean below 1 in magnitude untouched: far from 0,
    v - tau would cancel most of each coordinate's digits and lose the sum
    constraint.
    Rows are independent: each comes out the same whatever the other rows.
    Already-feasible rows come back unchanged; non-finite inputs raise.
    """
    v = np.asarray(v, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1:] != lo.shape or lo.shape != hi.shape:
        raise ParameterError("point and bounds must have matching shapes")
    if not (np.isfinite(v).all() and np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ParameterError("point and bounds must be finite")
    if np.any(lo > hi):
        raise ParameterError("empty box: lo > hi somewhere")
    slo, shi = float(lo.sum()), float(hi.sum())
    if not slo - 1e-12 <= total <= shi + 1e-12:
        raise ParameterError(
            f"box and simplex do not intersect: sum bounds [{slo}, {shi}] exclude {total}")
    V = np.atleast_2d(v)
    inside = ((V >= lo - 1e-15) & (V <= hi + 1e-15)).all(axis=1)
    rows = np.flatnonzero(~inside | (np.abs(V.sum(axis=1) - total) > 1e-13))
    moved = V[rows]
    if rows.size:
        moved -= np.trunc(moved.mean(axis=1, keepdims=True))
        np.subtract(moved, _breakpoint_tau(moved, lo, hi, total, shi)[:, None], out=moved)
        np.clip(moved, lo, hi, out=moved)
    out = V.copy()
    out[rows] = moved
    return out.reshape(v.shape)


def _breakpoint_tau(V: np.ndarray, lo: np.ndarray, hi: np.ndarray, total: float,
                    shi: float) -> np.ndarray:
    """The dual variable tau per row of V (G, P); see project_capped_simplex.
    The (G, 2P) arrays set the projection's memory, so they are updated in
    place and dropped as soon as they are spent."""
    G, P = V.shape
    breaks = np.empty((G, 2 * P))
    np.subtract(V, hi, out=breaks[:, :P])
    np.subtract(V, lo, out=breaks[:, P:])
    order = np.argsort(breaks, axis=1)
    upper = order < P                     # the sorted breakpoint is a v - hi
    order += np.arange(0, G * 2 * P, 2 * P)[:, None]
    t = np.take(breaks, order)
    del breaks, order
    # f is slope * tau + offset on each piece; crossing v - hi adds v - hi to
    # the offset and crossing v - lo subtracts v - lo, so offset = shi - cumsum(dslope * t)
    # with dslope = -1 at each v - hi and +1 at each v - lo
    f = np.negative(t, where=upper, out=t.copy())
    np.cumsum(f, axis=1, out=f)
    np.subtract(shi, f, out=f)
    slope = np.where(upper, -1.0, 1.0)
    np.cumsum(slope, axis=1, out=slope)   # slope of f right of each breakpoint
    slope *= t
    f += slope
    below = f <= total
    del f, slope
    j, r = np.argmax(below, axis=1), np.arange(G)
    left, right = t[r, j - 1], t[r, j]
    # tau lies on the piece [t[j-1], t[j]]: solve it there from the crossed
    # breakpoints, not from the rounded cumulative sums.  Coordinates past
    # v - lo sit at lo, those short of v - hi at hi, the rest are free.  The
    # crossed breakpoints are those below t[j]; where ties make the piece a
    # point, tau is clamped to it whatever the count.
    at_hi = V - hi >= right[:, None]
    at_lo = V - lo < right[:, None]
    n_free = P - at_hi.sum(axis=1) - at_lo.sum(axis=1)
    held = np.where(at_hi, hi, np.where(at_lo, lo, V)).sum(axis=1)
    tau = (held - total) / np.maximum(n_free, 1)
    tau = np.where(n_free > 0, np.minimum(np.maximum(tau, left), right), right)
    # total at sum(hi) or sum(lo): tau is the first or the last breakpoint
    return np.where(below[:, 0], t[:, 0], np.where(below[:, -1], tau, t[:, -1]))


def frank_wolfe_gap(q: np.ndarray, grad: np.ndarray, lo: float, hi: float,
                    total: float = 1.0) -> np.ndarray:
    """The Frank-Wolfe gap max_s <grad, q - s> over the uniform box-simplex
    {s : sum s = total, lo <= s <= hi}, of one point q (P,) or of each row
    of q (G, P), with the gradient in the same shape.

    The gap is zero exactly at the stationary points of a differentiable f
    on the set, and bounds f(q) - min f where f is also convex (Jaggi 2013,
    ICML).  The linear minimization is greedy: s starts at lo everywhere,
    and the mass left over fills the coordinates of smallest gradient up to
    hi, the k-th of them only partly.  With the box uniform, k is the same
    for every row, so one ``np.partition`` per row finds those coordinates
    in O(P).  Rows are independent, as in the projection.
    """
    X, D = np.atleast_2d(q), np.atleast_2d(grad)
    P, width = D.shape[1], hi - lo
    spare = total - P * lo
    k = min(int(spare // width), P - 1) if width > 0.0 and spare > 0.0 else 0
    rest = spare - k * width
    part = np.partition(D, k, axis=1)
    low = lo * D.sum(axis=1) + width * part[:, :k].sum(axis=1) + rest * part[:, k]
    gap = (X * D).sum(axis=1) - low
    return gap.reshape(np.shape(q)[:-1])
