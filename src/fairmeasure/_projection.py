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

The descent hands each trial step v = x - t g its row's current point x,
and Newton starts from the closed form of x's piece (its coordinates at
lo or hi held, the rest free), which a short step rarely leaves: on the
deep lattice (b = 2, K = 11, P = 2048) a projection takes 2.17 passes
instead of 5.67 from the mean, to the same floats.  It helps short steps
only: on random far ones (t from 1 to 100, g standard normal, P = 64 and
2048, N = 1.5-4) it took 5.4-9.8 passes against 5.2-9.9 from the mean.

Under the correlation floor every trial step of the descent is projected
onto the box-simplex cut by the linearized floor (``project_cut``), a dual
Newton method whose steps each take one box-simplex projection.  Given the
row's current point, its first step is taken on that point's piece in
closed form instead, and most trial points lie on it: on the
correlation-floor instance at seed 1 that step settles 200 of the 232 rows
of ``minimize``'s 61 cut projections, and replayed in a loop those calls
take 147 us each where the step settles every row, against 366 us
without the point, and 0.93 ms against 0.82 ms where it leaves some row
(2 vCPU, Python 3.11, numpy 2.4; BENCH_34.json).  Each box-simplex
projection of the dual loop starts from the row's point at the step
before (x, clipped, at the first): 3.0 and 2.7 Newton passes per call on
that instance at seeds 1 and 5, against 4.4 and 4.6 from the mean.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError


def project_capped_simplex(v: np.ndarray, lo: float | np.ndarray, hi: float | np.ndarray,
                           x: np.ndarray | None = None) -> np.ndarray:
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
    ``_newton_tau``.  ``x``, where given, holds a point of the box-simplex
    per row of v, as the descent's current point for its trial step v:
    where the row of x has a free coordinate, Newton starts instead from
    the closed form of x's piece (its coordinates at lo or hi held, the
    rest free), which a short step rarely leaves.  Newton ends on the
    root's piece from any start, so the result is the cold start's, float
    for float, but where the root is an interval (a box within rounding of
    a point, or a vertex of the box on the simplex): there the two may end
    apart by rounding.  Each row is first shifted by the integer part of its
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
    if x is not None and np.shape(x) != v.shape:
        raise ParameterError("a warm start x must have the shape of the point")
    if not np.isfinite(v).all():
        raise ParameterError("point and bounds must be finite")
    V = np.atleast_2d(v)
    sums = np.add.reduce(V, axis=1)
    inside = np.logical_and.reduce((V >= lo - 1e-15) & (V <= hi + 1e-15), axis=1)
    rows = np.flatnonzero(~inside | (np.abs(sums - 1.0) > 1e-13))
    X = None if x is None else np.atleast_2d(x)
    if rows.size and rows.size == len(V):
        return _project_rows(V, sums, lo, hi, X).reshape(v.shape)
    out = V.copy()
    if rows.size:
        out[rows] = _project_rows(V[rows], sums[rows], lo, hi, None if X is None else X[rows])
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


def _project_rows(V: np.ndarray, sums: np.ndarray, lo: float, hi: float,
                  X: np.ndarray | None = None) -> np.ndarray:
    """The projection of each row of V (G, P), whose row sums are ``sums``,
    warm-started from the pieces of the rows of X where given.

    Where a row's coordinates lie far apart, as after a long step t g, the
    free coordinates v - tau cancel most of their digits, and the sum can
    miss 1 by an ulp of the largest |v|.  Such a row, one whose result
    is off 1 by more than the 1e-13 that ``project_capped_simplex``
    accepts as feasible, is projected once more from that result, whose
    coordinates lie within the box."""
    out = _clip_rows(V, sums, lo, hi, X)
    sums = np.add.reduce(out, axis=1)
    off = np.flatnonzero(np.abs(sums - 1.0) > 1e-13)
    if off.size:
        out[off] = _clip_rows(out[off], sums[off], lo, hi)
    return out


def _clip_rows(V: np.ndarray, sums: np.ndarray, lo: float, hi: float,
               X: np.ndarray | None = None) -> np.ndarray:
    """clip(V - tau, lo, hi) per row of V (G, P), whose row sums are
    ``sums``, Newton started from the closed form of X's piece per row
    where X is given and its row has a free coordinate, else from the mean."""
    P = V.shape[1]
    mean = sums / P
    shift = np.trunc(mean)
    moved = V - shift[:, None]
    tau = mean - shift - 1.0 / P
    if X is not None:
        free = (X > lo) & (X < hi)
        n = np.add.reduce(free, axis=1)
        held = np.add.reduce(np.where(free, moved, np.clip(X, lo, hi)), axis=1)
        tau = np.where(n > 0, (held - 1.0) / np.maximum(n, 1), tau)
    tau, _ = _newton_tau(moved, lo, hi, tau)
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


# The most dual steps of one cut projection: a row that takes them all keeps
# the point of its last step, which lies in the box-simplex.
_CUT_STEPS = 50
# Projected Gauss-Seidel sweeps over the dual's quadratic on one piece.
_SWEEPS = 30
# The most coordinates on which a row that takes every step is solved again
# exactly, by the dual active-set method.
_EXACT_P = 64


def project_cut(V: np.ndarray, lo: float, hi: float, A: np.ndarray, b: np.ndarray,
                upper: np.ndarray, nu: np.ndarray, x: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euclidean projection of each row of V (G, P) onto the box-simplex
    {q : sum q = 1, lo <= q <= hi} cut by the row's J halfspaces
    A[g, j] . q >= b[g, j], made elastic by the bound 0 <= nu <= upper[g]
    on their multipliers; the box is two floats, checked by the caller,
    and each row of A should have mean 0 (on the simplex a constant shift
    of a_j and b_j leaves the halfspace as it is, and a large one cancels
    digits).  ``x``, where given, holds a point of the box-simplex per
    row, the descent's current point, whose piece warm-starts the row.
    Returns the points, their multipliers nu (G, J) and the number of dual
    steps each row took, the step on x's piece included; every other step
    is one box-simplex projection.

    The multipliers solve the concave dual
    theta(nu) = min_q 1/2 |q - v|^2 - nu . (A q - b) over the box-simplex,
    whose minimizer is q(nu) = P(v + A^T nu), P the box-simplex projection,
    and whose gradient is b - A q(nu).  With the bound, q is the minimizer
    of 1/2 |q - v|^2 + upper * sum max(0, b - A q), so it is defined where
    no point of the box-simplex meets every halfspace.  The dual is
    piecewise quadratic: on a piece, where q(nu) holds the same
    coordinates at lo, at hi and free (F), A q(nu) - b = c0 + H nu with
    H = A_F A_F^T - (A_F 1)(A_F 1)^T / |F|.  Each dual step is a
    semismooth Newton step, the primal-dual active set rule (Hintermueller,
    Ito & Kunisch 2003); see ``_cut_step``.  A step whose multipliers, on
    the piece it was taken on, meet every condition of its sets ends its
    row at once with the piece's point, which is then the projection, so
    a row whose sets the warm start already holds takes one projection; so
    does a row whose own multipliers meet them to the rounding of its
    slacks, or whose Newton step returns them unchanged.  Steps are full.
    Where a full step lowers theta, as when it jumps between two pieces
    and back, the row steps instead to the maximizer of theta's quadratic
    on its last point's piece, cut off just past that piece's end
    (``_model_step``), and a step that lowers theta after that is halved.
    Each step is one ``project_capped_simplex`` call on the rows still
    solving, and ``nu`` warm-starts them; each call starts its Newton
    search from the row's point at the step before (with ``x``, x clipped,
    at the first).  With ``x``, each row first takes one step from nu on
    x's piece instead, read from x exactly: the
    coordinates at lo or hi held there, the rest free, and the point and
    slacks at nu from the piece's closed form (``_unclipped``), with no
    box-simplex projection.  A row that this step settles is done, as the
    settled test certifies its point as the projection on any piece; every
    other row goes on from nu as without x, to the same floats, one step
    more.  The descent's trial points lie near its last point, mostly on
    its piece: on the correlation-floor instance of the package's benchmark
    (b = 4, K = 3, three exchanges, seed 1) the step settles 200 of the 232
    rows of ``minimize``'s 61 calls.  Rows are independent, each the same
    float for float whatever the other rows.

    On 4000 random cuts with a common point (P 2-40, J 1-3) every row met
    the KKT conditions in at most 12 steps, 1.53 on average, from nu = 0
    without x.  On a
    face of a few coordinates, where the dual's pieces are degenerate, a
    row can still run all _CUT_STEPS steps; on at most _EXACT_P
    coordinates it is then solved again by the dual active-set method
    (``_active_set``), and where the halfspaces have no common point, which
    that method does not take, it keeps the point of the largest theta it
    reached.  Of 2000 random cuts whose offsets may leave no common point,
    with elastic bounds uniform in [0, 1e4], 109 at P 2-6 and 79 at P 7-40
    end off their KKT conditions (relative 1e-9).  The same steps run once
    more from the start, halving each step that lowers theta, do not stand
    in for the active-set method: they leave rows with a common point, on
    two and on six coordinates, off those conditions (``tests/test_cut.py``
    pins them)."""
    G, J = b.shape
    upper = np.full(G, upper, dtype=float)
    norms = np.einsum("gjp,gjp->gj", A, A)
    trial = np.clip(nu, 0.0, upper[:, None])
    nu, theta = trial.copy(), np.full(G, -np.inf)
    H, c0, retry = np.empty((G, J, J)), np.empty((G, J)), np.zeros(G, dtype=bool)
    out, passes = np.empty_like(V), np.zeros(G, dtype=int)
    rows = np.arange(G)
    # each row's point at its last step, which warm-starts its next projection
    last = None if x is None else np.clip(x, lo, hi)
    if x is not None:   # one step on x's piece; the rows it settles are done
        piece = _sets(last, lo, hi)
        z = _unclipped(V, A, trial, *piece[1:])
        s = np.einsum("gjp,gp->gj", A, np.where(piece[1], z, piece[0])) - b
        new, point, settled = _cut_step(V, A, b, trial, upper, s, piece, norms, lo, hi)[:3]
        passes += 1
        nu[settled], out[settled] = new[settled], point[settled]
        rows = rows[~settled]
    for _ in range(_CUT_STEPS):
        if not rows.size:
            break
        Ar, tr = A[rows], trial[rows]
        W = V[rows] + np.einsum("gjp,gj->gp", Ar, tr)
        Q = project_capped_simplex(W, lo, hi, None if last is None else last[rows])
        if last is None:
            last = np.empty_like(V)
        last[rows] = Q
        passes[rows] += 1
        s = np.einsum("gjp,gp->gj", Ar, Q) - b[rows]
        value = 0.5 * ((Q - V[rows]) ** 2).sum(axis=1) - (tr * s).sum(axis=1)
        up = value >= theta[rows] - 1e-13 * np.abs(theta[rows])   # -inf at first
        ok, back = rows[up], rows[~up]
        nu[ok], theta[ok], out[ok], retry[ok] = tr[up], value[up], Q[up], False
        # a step that lowered theta: the maximizer over the bounds of the
        # dual's quadratic on the last point's piece instead, a hundredth
        # past the piece's end where it leaves it; halved after that
        first, again = back[~retry[back]], back[retry[back]]
        trial[again] = 0.5 * (nu[again] + trial[again])
        if first.size:
            trial[first] = _model_step(V[first], A[first], nu[first], out[first], H[first],
                                       c0[first], upper[first], norms[first], lo, hi)
        retry[back] = True
        Vo, Ao, no, so, Qo = V[ok], Ar[up], tr[up], s[up], Q[up]
        new, point, settled, still, H[ok], c0[ok] = _cut_step(
            Vo, Ao, b[ok], no, upper[ok], so, _piece(W[up], Qo, lo, hi), norms[ok], lo, hi)
        # a row whose nu itself meets every condition, to the rounding of its
        # slacks, is done where it is
        now = _meets(Vo, Ao, b[ok], no, so, upper[ok], ~settled)
        new[now], point[now], settled[now] = no[now], Qo[now], True
        trial[ok] = new
        nu[ok[settled]], out[ok[settled]] = new[settled], point[settled]
        rows = np.concatenate((ok[~(settled | still)], back))
    for g in rows:   # the rows that took every step, on at most _EXACT_P coordinates
        if V.shape[1] <= _EXACT_P:
            exact = _active_set(V[g], lo, hi, A[g], b[g])
            if exact is not None and (exact[1] <= upper[g]).all():
                out[g], nu[g] = exact
    return out, nu, passes


def _active_set(v, lo: float, hi: float, A, b):
    """The projection of v (P,) onto {q : sum q = 1, lo <= q <= hi, A q >= b}
    and the multipliers of A's rows, by the dual active-set method of
    Goldfarb & Idnani (1983, Math. Prog. 27) with the identity Hessian:
    from q = v it adds the most violated constraint, the sum's first,
    stepping in the null space of the active normals and dropping an
    active constraint whose multiplier the step would make negative.  It
    ends finitely whatever the degeneracy; None where the halfspaces and
    the box-simplex have no common point.  O(P) dense steps of O(P^2), so
    only for a few coordinates."""
    P, J = len(v), len(b)
    normals = np.vstack((np.eye(P), -np.eye(P), A))
    bounds = np.concatenate((np.full(P, lo), np.full(P, -hi), b))
    scale = np.abs(normals).sum(axis=1) * max(1.0, float(np.abs(v).max())) * 1e-14
    q, active, u = np.array(v, dtype=float), [], []   # active: -1 is the sum
    for _ in range(4 * (2 * P + J) + 4):
        if not active or active[0] != -1:
            p, n, gap = -1, np.ones(P), 1.0 - q.sum()
            n, gap = (n, gap) if gap >= 0.0 else (-n, -gap)
        else:
            slack = normals @ q - bounds
            p = int(np.argmin(slack / np.abs(normals).sum(axis=1)))
            if slack[p] >= -scale[p]:   # a last projection takes off the rounding
                return (project_capped_simplex(q, lo, hi),
                        np.array([u[active.index(i)] if i in active else 0.0
                                  for i in range(2 * P, 2 * P + J)]))
            n, gap = normals[p], -slack[p]
        up = 0.0
        while True:
            N = np.array([np.ones(P) if i == -1 else normals[i] for i in active]).T
            r = np.linalg.lstsq(N, n, rcond=None)[0] if active else np.zeros(0)
            z = n - (N @ r if active else 0.0)
            # the dual step: the first active inequality whose multiplier reaches 0
            ratios = [(u[k] / r[k], k) for k in range(len(active))
                      if active[k] != -1 and r[k] > 1e-15]
            t2, drop = min(ratios) if ratios else (np.inf, None)
            # z . n is z . z but for rounding; either near 0, the active normals span n
            if min(float(z @ z), float(z @ n)) <= 1e-24 * float(n @ n):
                if drop is None:
                    return None
                u = [u[k] - t2 * r[k] for k in range(len(active))]
                up += t2
                del active[drop], u[drop]
                continue
            t1 = gap / float(z @ n)
            t = min(t1, t2)
            q = q + t * z
            u = [u[k] - t * r[k] for k in range(len(active))]
            up += t
            gap -= t * float(z @ n)
            if t1 <= t2:
                active.append(p)
                u.append(up if p != -1 or n[0] > 0 else -up)
                if p == -1:   # the sum first, so its normal stays +1 in N
                    active.insert(0, active.pop())
                    u.insert(0, u.pop())
                break
            del active[drop], u[drop]
    return None


def _cut_step(V, A, b, nu, upper, s, piece, norms, lo: float,
              hi: float) -> tuple[np.ndarray, ...]:
    """One step of ``project_cut``'s dual from nu, whose slacks on the
    piece ``piece`` (its point Q with each held coordinate at its bound,
    which are free, the sum of the held values and 1 over the number free,
    as ``_sets`` gives them) are s = A q - b; ``norms`` holds each
    halfspace's |a|^2.  Returns the new multipliers,
    clipped to [0, upper]; the point they give on the piece; whether that
    point and multipliers solve the projection: the point lies on the
    piece (free coordinates inside the box, held ones beyond their bound
    before the clip, its sum 1 to 1e-13) and the multipliers meet their
    sets' conditions (those strictly inside their bounds with a slack of 0
    on the piece, those at 0 with one of at least 0, those at the bound
    with one of at most 0); whether a Newton step on a nonsingular piece
    returned nu itself; and the piece's H and c0.

    The step is semismooth Newton: a multiplier with nu_j - s_j / H_jj <= 0
    is set to 0, one with nu_j - s_j / H_jj >= upper to the bound, and the
    rest solve c0 + H nu = 0 on the piece.  Where H is singular on those
    (as where H_jj = 0, with at most one coordinate free, or where two
    halfspaces are parallel on the free coordinates) the dual is linear
    along its null space, rising at the rate of the slacks the solve
    leaves there: the multipliers take the solve's least-norm solution and
    then walk along that rise to a hundredth past the piece's end, or to
    their bounds, so the next step sees a new piece."""
    Q, free, held, inv = piece
    AF = A * free[:, None, :]
    S1 = AF.sum(axis=2)
    H = np.einsum("gjp,gkp->gjk", AF, AF) - S1[:, :, None] * S1[:, None, :] * inv[:, :, None]
    c0 = s - np.einsum("gjk,gk->gj", H, nu)
    diag = np.einsum("gjj->gj", H)
    flat = diag <= 1e-12 * norms
    top = upper[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        trial = nu - s / diag
        at_top = trial >= top
        inner = (trial > 0.0) & ~at_top
        if flat.any():
            # a multiplier along which the piece is flat moves where its slack
            # pulls it and its bound lets it
            at_top = np.where(flat, (s < 0.0) & (nu >= top), at_top)
            inner = np.where(flat, ~at_top & ~((s >= 0.0) & (nu <= 0.0)), inner)
        fixed = np.where(at_top, top, 0.0)
        # the free multipliers solve H_II nu_I = -c0_I - H_IA nu_A in the least
        # norm: one alone by division, several by the eigenvectors of H_II (the
        # rest of H zeroed, so they drop out)
        rhs = np.where(inner, -c0 - np.einsum("gjk,gk->gj", H, fixed), 0.0)
        new = np.where(inner, np.where(flat, 0.0, rhs / diag), fixed)
    singular = (inner & flat).any(axis=1)
    several = np.flatnonzero(inner.sum(axis=1) > 1)
    if several.size:
        w, U = _eigen(H[several], inner[several])
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = np.where(w > 0.0, np.einsum("gkj,gk->gj", U, rhs[several]) / w, 0.0)
        new[several] = np.where(inner[several], np.einsum("gjk,gk->gj", U, scaled),
                                fixed[several])
        singular[several] = (w > 0.0).sum(axis=1) < inner[several].sum(axis=1)
    if singular.any():
        # where the solve leaves no slack the piece holds its solution all the same
        rise = np.where(inner & singular[:, None], rhs - np.einsum("gjk,gk->gj", H, new), 0.0)
        singular &= (np.abs(rise) > 1e-12 * (np.abs(rhs) + np.abs(c0))).any(axis=1)
        rise[~singular] = 0.0
    if singular.any():
        at = _unclipped(V, A, new, free, held, inv)
        along = _piece_end(at, _unclipped(V, A, new + rise, free, held, inv) - at, free, Q, lo,
                           hi, inv)
        with np.errstate(divide="ignore", invalid="ignore"):
            bounds = np.where(rise > 0.0, (top - new) / rise,
                              np.where(rise < 0.0, -new / rise, np.inf)).min(axis=1)
        walk = np.minimum(1.01 * along, bounds)
        walk = np.where(np.isfinite(walk), walk, 0.0)
        new += walk[:, None] * rise
    new = np.clip(new, 0.0, top)
    # the point on Q's piece: held coordinates as they are, free ones w - tau
    z = _unclipped(V, A, new, free, held, inv)
    point = np.where(free, z, Q)
    slack = np.einsum("gjp,gp->gj", A, point) - b
    on_piece = (np.where(free, (z > lo) & (z < hi), np.where(Q >= hi, z >= hi, z <= lo)).all(axis=1)
                & (np.abs(point.sum(axis=1) - 1.0) <= 1e-13))
    meets = np.where(inner, (new > 0.0) & (new < top),
                     np.where(new >= top, slack <= 0.0, (new <= 0.0) & (slack >= 0.0)))
    settled = on_piece & meets.all(axis=1) & ~singular
    return new, point, settled, ~singular & (new == nu).all(axis=1), H, c0


def _meets(V, A, b, nu, s, upper, rows) -> np.ndarray:
    """The indices among ``rows`` (a mask) of those whose nu meets every
    condition of ``_cut_step`` at its slacks s to their rounding:
    |a . q| <= max |a| on the simplex, and q carries the rounding of v's
    largest entry."""
    rest = np.flatnonzero(rows)
    if not rest.size:
        return rest
    Ab = np.abs(A[rest])
    eps = (1e-13 * (Ab.max(axis=2) + np.abs(b[rest]))
           + 1e-15 * np.abs(V[rest]).max(axis=1)[:, None] * Ab.sum(axis=2))
    n_r, s_r, top_r = nu[rest], s[rest], upper[rest, None]
    return rest[np.where(n_r <= 0.0, s_r >= -eps, np.where(n_r >= top_r, s_r <= eps,
                                                           np.abs(s_r) <= eps)).all(axis=1)]


def _model_step(V, A, nu, Q, H, c0, upper, norms, lo: float, hi: float) -> np.ndarray:
    """From nu, whose point Q lies on the piece of H and c0, the maximizer
    over [0, upper] of the dual's quadratic on that piece, by projected
    Gauss-Seidel sweeps until one changes nothing, at most _SWEEPS (a
    multiplier along which it is flat goes to the bound its slack points
    to), stopped a hundredth past the piece's end
    where the move leaves the piece: up to there the quadratic is the
    dual, so the move raises it."""
    top = upper[:, None]
    x = nu.copy()
    diag = np.einsum("gjj->gj", H)
    flat = diag <= 1e-12 * norms
    for _ in range(_SWEEPS):
        last = x.copy()
        for j in range(nu.shape[1]):
            sj = c0[:, j] + np.einsum("gk,gk->g", H[:, j], x)
            pulled = np.where(sj < 0.0, upper, np.where(sj > 0.0, 0.0, x[:, j]))
            with np.errstate(divide="ignore", invalid="ignore"):
                x[:, j] = np.where(flat[:, j], pulled, np.clip(x[:, j] - sj / diag[:, j], 0.0,
                                                                upper))
        if np.array_equal(x, last):
            break
    Q, free, held, inv = _piece(V + np.einsum("gjp,gj->gp", A, nu), Q, lo, hi)
    z0 = _unclipped(V, A, nu, free, held, inv)
    end = _piece_end(z0, _unclipped(V, A, x, free, held, inv) - z0, free, Q, lo, hi, inv)
    share = np.minimum(1.0, 1.01 * end)[:, None]
    return np.clip(nu + share * (x - nu), 0.0, top)


def _piece(W, Q, lo: float, hi: float) -> tuple[np.ndarray, ...]:
    """The piece of the rows Q = P(W) of box-simplex projections of the
    rows W = V + A^T nu: Q with each coordinate within its rounding,
    4e-16 max |W|, of a bound held at it (read as free, it gives the wrong
    piece), which are free, the sum of the held ones' values and 1 over
    the number free (0 where none is), as a column."""
    eps = 4e-16 * np.abs(W).max(axis=1, keepdims=True)
    return _sets(np.where(Q - lo <= eps, lo, np.where(hi - Q <= eps, hi, Q)), lo, hi)


def _sets(Q, lo: float, hi: float) -> tuple[np.ndarray, ...]:
    """The piece of the rows Q, in the box, read exactly: Q, which
    coordinates are free (strictly inside the box), the sum of the held
    ones' values and 1 over the number free (0 where none is), as a
    column."""
    free = (Q > lo) & (Q < hi)
    n = free.sum(axis=1)
    return (Q, free, np.where(free, 0.0, Q).sum(axis=1),
            np.where(n > 0, 1.0 / np.maximum(n, 1), 0.0)[:, None])


def _unclipped(V, A, nu, free, held, inv) -> np.ndarray:
    """w - tau per coordinate, w = v + A^T nu and tau the sum's multiplier
    on the piece whose free coordinates are ``free`` and whose held ones
    add up to ``held``."""
    z = V + np.einsum("gjp,gj->gp", A, nu)
    z -= ((np.where(free, z, 0.0).sum(axis=1) + held - 1.0) * inv[:, 0])[:, None]
    return z


def _piece_end(z, dz, free, Q, lo: float, hi: float, inv) -> np.ndarray:
    """Per row, the share of a move dz of the coordinates before the clip,
    from z, at which the first of them changes state on Q's piece: a free
    one reaching lo or hi, a held one coming back inside; inf where none
    does or no coordinate is free.  A coordinate already on the edge of
    the piece does not end it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ends = np.where(free, np.where(dz > 0.0, (hi - z) / dz,
                                       np.where(dz < 0.0, (lo - z) / dz, np.inf)),
                        np.where((Q >= hi) & (dz < 0.0), (hi - z) / dz,
                                 np.where((Q <= lo) & (dz > 0.0), (lo - z) / dz, np.inf)))
    ends[ends <= 0.0] = np.inf   # a coordinate on the piece's edge already
    return np.where(inv[:, 0] > 0.0, ends.min(axis=1), np.inf)


def _eigen(H: np.ndarray, inner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues and eigenvectors of each row's H restricted to its
    ``inner`` multipliers (zero elsewhere), the eigenvalues below 1e-10 of
    the largest set to 0."""
    w, U = np.linalg.eigh(np.where(inner[:, :, None] & inner[:, None, :], H, 0.0))
    w[w <= 1e-10 * w.max(axis=1, keepdims=True)] = 0.0
    return w, U
