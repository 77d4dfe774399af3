"""The box-simplex: Euclidean projection onto it and the Frank-Wolfe gap
over it, for one point or a batch of rows.

The solver's feasible set without the correlation floor is
{q : sum q = 1, lo <= q <= hi}, with the uniform box mu/N <= q <= N*mu;
every iterate of the descent and every random start pass through the
projection, and the descent's stationarity test is the Frank-Wolfe gap.

Variants of the projection measured against this one, on the projections
of the package's benchmark workloads at seed 1 (2 vCPU, Python 3.11,
numpy 2.4), which lose:

* Variable fixing (Kiwiel 2008, JOTA 138): the same floats on all 2761
  projections, but 2.2-2.3x the projection time on the deep lattice
  (b = 2, K = 11) and on the correlation-floor instance (b = 4, K = 3),
  from about 5 passes instead of 3-4, each heavier.
* The Newton loop without the pass that takes every row's step at once
  when all lie inside their brackets: up to 35% more projection time.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError


def project_capped_simplex(v: np.ndarray, lo: float | np.ndarray,
                           hi: float | np.ndarray) -> np.ndarray:
    """Euclidean projection onto {q : sum q = 1, lo <= q <= hi}, of one
    point v (P,) or of each row of v (G, P).

    The box is the solver's uniform box: two floats, or two arrays of shape
    (P,) whose entries are all equal, as ``box_bounds`` returns them, which
    are taken as their two floats; any other array box is refused.
    The projection is clip(v - tau, lo, hi) for the dual variable tau of the
    sum constraint, a continuous quadratic knapsack solved exactly and
    without sorting by a safeguarded Newton method on
    f(tau) = sum clip(v - tau, lo, hi) = 1 (Cominetti, Mascarenhas &
    Silva 2014, Math. Prog. Comp. 6; Dai & Fletcher 2006, Math. Prog. 106),
    started from the tau that would make the row's mean 1 / P; see
    ``_newton_tau``.  Each row is first shifted by the integer part of its
    mean, which is exact and leaves rows of mean below 1 in magnitude
    untouched: far from 0, v - tau would cancel most of each coordinate's
    digits and lose the sum constraint.  A row whose coordinates lie far
    apart cancels digits all the same, and its result is projected once
    more wherever its sum misses 1 by more than 1e-13; see
    ``_project_rows``.  Rows are independent: each comes out the same
    whatever the other rows.  Already-feasible rows come back unchanged;
    non-finite inputs raise.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2):
        raise ParameterError("point and bounds must have matching shapes")
    lo, hi = _uniform_box(lo, hi, v.shape[-1])
    if not np.isfinite(v).all():
        raise ParameterError("point and bounds must be finite")
    V = np.atleast_2d(v)
    sums = np.add.reduce(V, axis=1)
    inside = np.logical_and.reduce((V >= lo - 1e-15) & (V <= hi + 1e-15), axis=1)
    rows = np.flatnonzero(~inside | (np.abs(sums - 1.0) > 1e-13))
    if rows.size and rows.size == len(V):
        return _project_rows(V, sums, lo, hi).reshape(v.shape)
    out = V.copy()
    if rows.size:
        out[rows] = _project_rows(V[rows], sums[rows], lo, hi)
    return out.reshape(v.shape)


def _uniform_box(lo, hi, P: int) -> tuple[float, float]:
    """The two floats of the uniform box lo <= q <= hi on P coordinates,
    checked: two floats, or two arrays of shape (P,) whose entries are all
    equal, as ``box_bounds`` returns them; finite; not empty; and meeting
    the simplex sum q = 1."""
    if np.ndim(lo) or np.ndim(hi):
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if lo.shape != (P,) or hi.shape != (P,):
            raise ParameterError("point and bounds must have matching shapes")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ParameterError("point and bounds must be finite")
        if P and not ((lo == lo[0]).all() and (hi == hi[0]).all()):
            raise ParameterError("the box must be uniform: array bounds need all entries equal")
        lo, hi = (lo[0], hi[0]) if P else (0.0, 0.0)
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError("point and bounds must be finite")
    if lo > hi:
        raise ParameterError("empty box: lo > hi")
    if not P * lo - 1e-12 <= 1.0 <= P * hi + 1e-12:
        raise ParameterError(
            f"box and simplex do not intersect: sum bounds [{P * lo}, {P * hi}] exclude 1")
    return lo, hi


def _project_rows(V: np.ndarray, sums: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The projection of each row of V (G, P), whose row sums are ``sums``.

    Where a row's coordinates lie far apart, as after a long step t g, the
    free coordinates v - tau cancel most of their digits, and the sum can
    miss 1 by an ulp of the largest |v|.  Such a row, one whose result
    is off 1 by more than the 1e-13 that ``project_capped_simplex``
    accepts as feasible, is projected once more from that result, whose
    coordinates lie within the box."""
    out = _clip_rows(V, sums, lo, hi)
    sums = np.add.reduce(out, axis=1)
    off = np.flatnonzero(np.abs(sums - 1.0) > 1e-13)
    if off.size:
        out[off] = _clip_rows(out[off], sums[off], lo, hi)
    return out


def _clip_rows(V: np.ndarray, sums: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """clip(V - tau, lo, hi) per row of V (G, P), whose row sums are ``sums``."""
    P = V.shape[1]
    mean = sums / P
    shift = np.trunc(mean)
    moved = V - shift[:, None]
    tau, _ = _newton_tau(moved, lo, hi, mean - shift - 1.0 / P)
    moved -= tau[:, None]
    np.maximum(moved, lo, out=moved)
    return np.minimum(moved, hi, out=moved)


def _max_passes(P: int) -> int:
    """The most passes ``_newton_tau`` makes on rows of P coordinates."""
    return 2 * P + P.bit_length() + 3


def _newton_tau(V: np.ndarray, lo: float, hi: float, tau: np.ndarray
                ) -> tuple[np.ndarray, int]:
    """tau with sum clip(V - tau, lo, hi) = 1 for each row of V (G, P),
    started from ``tau``, and the number of passes the loop made.

    f(tau) = sum clip(v - tau, lo, hi) is piecewise linear and nonincreasing,
    with breakpoints at the floats v - hi and v - lo.  A pass reads, at each
    row's current tau, the coordinates held at hi (v - hi >= tau), held at
    lo (v - lo < tau; never both, so with lo == hi each is held once) and
    free.  These are the sets of the piece (z, z'] of f that holds
    tau, z and z' consecutive breakpoints, and they give the closed form
    tau' = (held sum - 1) / #free, where the held sum adds hi, lo and
    the free coordinates' v.  tau' is the Newton step on f, and the exact
    root when the piece holds it.  A row stops when tau' == tau: the sets
    at tau return tau itself, so no float tolerance decides.  A row with no
    free coordinate stops when its held sum equals 1, and otherwise has
    no Newton step.

    The safeguard is a bracket (a, b), open and shrinking: it starts as
    (-inf, +inf), a is the last tau with f > 1, b the last with
    f < 1, and every tau evaluated lies strictly inside it.  A pass
    where every row's Newton step lies inside its bracket, as on every pass
    until some row turns back, takes them all at once.  A Newton step that
    does not, or a row with no free coordinate, takes a breakpoint step
    instead: to the median of the breakpoints strictly inside the bracket,
    as in Kiwiel's median search (2008, JOTA 138).  With no breakpoint left
    inside, the bracket lies within the piece that holds b, and the row
    ends at that piece's closed form clipped to [a, b] (b = +inf being the
    piece where every coordinate is at lo, and a = -inf that where every
    coordinate is at hi).

    Pass cap, proven: count the evaluations of one row, one per pass.  Each
    is at a point strictly inside the bracket, the first at the start tau
    inside (-inf, +inf), and the point then becomes an end of the bracket.
    A Newton step is a function of the sets alone, so each piece proposes
    one point, and once evaluated that point is an end and is never
    accepted again; there are at most 2P + 1 pieces.  A breakpoint step
    halves the number of breakpoints strictly inside the bracket, at most
    2P at the start, so there are at most floor(log2 P) + 2 of them.  With
    the first pass, a row needs at most 2P + floor(log2 P) + 4 passes,
    ``_max_passes(P)``.
    """
    G, P = V.shape
    Zhi, Zlo = V - hi, V - lo
    a, b = np.full(G, -np.inf), np.full(G, np.inf)
    out = idx = None    # the result and the rows still solving, once a row has ended
    with np.errstate(divide="ignore", invalid="ignore"):
        for passes in range(1, _max_passes(P) + 1):
            newton = _closed_form(V, Zhi, Zlo, lo, hi, tau)
            right = newton > tau
            left = newton < tau
            np.copyto(a, tau, where=right)
            np.copyto(b, tau, where=left)
            step = (a < newton) & (newton < b)
            if step.all():
                if (newton == tau).all():
                    break
                tau = newton
                continue
            moving = right | left
            if not moving.any():
                break
            tau = np.where(step, newton, tau)
            for r in np.flatnonzero(moving & ~step):
                tau[r] = _median_breakpoint(Zhi[r], Zlo[r], a[r], b[r])
            ends = np.flatnonzero(np.isnan(tau))
            if ends.size:
                if idx is None:
                    out, idx = np.empty(G), np.arange(G)
                nb = _closed_form(V[ends], Zhi[ends], Zlo[ends], lo, hi, b[ends])
                out[idx[ends]] = np.where(np.isnan(nb), b[ends], np.clip(nb, a[ends], b[ends]))
                keep = np.ones(len(idx), dtype=bool)
                keep[ends] = False
                V, Zhi, Zlo, tau, a, b, idx = (V[keep], Zhi[keep], Zlo[keep], tau[keep],
                                               a[keep], b[keep], idx[keep])
                if not idx.size:
                    break
        else:
            raise RuntimeError("box-simplex projection passed its proven pass cap")
    if idx is None:
        return tau, passes
    out[idx] = tau
    return out, passes


def _closed_form(V, Zhi, Zlo, lo: float, hi: float, tau: np.ndarray) -> np.ndarray:
    """Per row, the closed-form tau of the piece of f that holds ``tau``:
    +-inf where no coordinate is free, nan where moreover the held sum is 1."""
    t = tau[:, None]
    up = Zhi >= t
    down = Zlo < t
    held = V.copy()
    np.copyto(held, hi, where=up)
    np.copyto(held, lo, where=down)
    free = V.shape[1] - np.add.reduce(up | down, axis=1)
    return (np.add.reduce(held, axis=1) - 1.0) / free


def _median_breakpoint(zhi, zlo, a: float, b: float) -> float:
    """The median of one row's breakpoints zhi = v - hi and zlo = v - lo
    strictly inside (a, b); nan where there is none."""
    inner = np.concatenate([z[(z > a) & (z < b)] for z in (zhi, zlo)])
    if not inner.size:
        return math.nan
    k = inner.size // 2
    return float(np.partition(inner, k)[k])


def frank_wolfe_gap(q: np.ndarray, grad: np.ndarray, lo: float | np.ndarray,
                    hi: float | np.ndarray) -> np.ndarray:
    """The Frank-Wolfe gap max_s <grad, q - s> over the uniform box-simplex
    {s : sum s = 1, lo <= s <= hi}, of one point q (P,) or of each row
    of q (G, P), with the gradient in the same shape.  The box is taken
    and checked as in ``project_capped_simplex``.

    The gap is zero exactly at the stationary points of a differentiable f
    on the set, and bounds f(q) - min f where f is also convex (Jaggi 2013,
    ICML).  The linear minimization is greedy: s starts at lo everywhere,
    and the mass left over fills the coordinates of smallest gradient up to
    hi, the k-th of them only partly.  With the box uniform, k is the same
    for every row, so one ``np.partition`` per row finds those coordinates
    in O(P).  Rows are independent, as in the projection.
    """
    X, D = np.atleast_2d(q), np.atleast_2d(grad)
    lo, hi = _uniform_box(lo, hi, D.shape[1])
    P, width = D.shape[1], hi - lo
    spare = 1.0 - P * lo
    k = min(int(spare // width), P - 1) if width > 0.0 and spare > 0.0 else 0
    rest = spare - k * width
    part = np.partition(D, k, axis=1)
    low = lo * D.sum(axis=1) + width * part[:, :k].sum(axis=1) + rest * part[:, k]
    gap = (X * D).sum(axis=1) - low
    return gap.reshape(np.shape(q)[:-1])
