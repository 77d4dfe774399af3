"""Path-level reference implementations of the functionals and gradients.

These are the straightforward O(K^2 * P) forms: every (k, l) pair averages
the whole path array again.  The package evaluates the same quantities with
the node kernel in ``fairmeasure._tree``; the tests compare the two.
"""
import math

import numpy as np

import fairmeasure as fm


def block_average(lat, X, k, q):
    """Blockwise weighted average of X (n_paths, m) over partition(k),
    expanded to paths: zero-weight blocks give 0, constant blocks pass
    their constant through."""
    nblk, bs = lat.n_blocks(k), lat.block_size(k)
    Xb = X.reshape(nblk, bs, X.shape[1])
    wb = q.reshape(nblk, bs)
    W = wb.sum(axis=1)
    zero = W <= 0.0
    num = np.einsum("nb,nbm->nm", wb, Xb)
    avg = num / np.where(zero, 1.0, W)[:, None]
    const = np.all(Xb == Xb[:, :1, :], axis=1)
    avg = np.where(const, Xb[:, 0, :], avg)
    avg[zero] = 0.0
    return np.repeat(avg, bs, axis=0)


def exchange_norms(dev, n, d):
    if d == 1:
        return np.abs(dev)
    return np.sqrt((dev.reshape(dev.shape[0], n, d) ** 2).sum(axis=2))


def m_raw(q, g, p, include_diagonal=True):
    lat = g.lattice
    dt = lat.dt
    offset = 0 if include_diagonal else 1
    total = 0.0
    for k in range(lat.depth):
        for l in range(k + offset, lat.depth + 1):
            avg = block_average(lat, g.values[l], k, q)
            nrm = exchange_norms(g.values[k] - avg, g.n, g.d)
            total += dt * dt * float(q @ (nrm ** p).sum(axis=1))
    return total


def n_raw(q, g):
    lat = g.lattice
    dt = lat.dt
    total = 0.0
    for k in range(lat.depth):
        cur = g.values[k]
        if np.any(cur <= 0.0):
            raise fm.DomainError(f"drift rate needs strictly positive values at time {k}")
        avg = block_average(lat, g.values[k + 1], k, q)
        drift = (avg - cur) / (dt * cur)
        total += dt * float(q @ np.abs(drift).sum(axis=1))
    return total


def inner_raw(q, x, y):
    lat = x.lattice
    dt = lat.dt
    total = 0.0
    for k in range(lat.depth):
        for l in range(k, lat.depth + 1):
            dev_x = x.values[k] - block_average(lat, x.values[l], k, q)
            dev_y = y.values[k] - block_average(lat, y.values[l], k, q)
            total += dt * dt * float(q @ (dev_x * dev_y).sum(axis=1))
    return total


def corr_raw(q, g, i, j):
    """Right-endpoint time sum of Cov_q / E_q|product| for exchanges i, j."""
    x_all, y_all = g.values[:, :, i], g.values[:, :, j]
    dt = g.lattice.dt
    total = 0.0
    for k in range(1, g.lattice.depth + 1):
        x, y = x_all[k], y_all[k]
        cov = float(q @ (x * y)) - float(q @ x) * float(q @ y)
        scale = float(q @ np.abs(x * y))
        total += dt * cov / scale
    return total


def grad_m(q, g, p):
    """The l = k terms are left out: they vanish identically on positive
    weights, and on a zero-weight block the zero convention would turn them
    into a spurious |g(k)|^p (1 - p)."""
    lat = g.lattice
    dt = lat.dt
    P, n, d = lat.n_paths, g.n, g.d
    grad = np.zeros(P)
    for k in range(lat.depth):
        for l in range(k + 1, lat.depth + 1):
            Xl = g.values[l]
            A = block_average(lat, Xl, k, q)
            dev = g.values[k] - A
            nrm = exchange_norms(dev, n, d)
            with np.errstate(divide="ignore", invalid="ignore"):
                coef = np.where(nrm > 0.0, p * nrm ** (p - 2.0), 0.0)
            inner = (dev * (Xl - A)).reshape(P, n, d).sum(axis=2)
            grad += dt * dt * ((nrm ** p) - coef * inner).sum(axis=1)
    return grad


def grad_n(q, g):
    lat = g.lattice
    dt = lat.dt
    grad = np.zeros(lat.n_paths)
    for k in range(lat.depth):
        cur = g.values[k]
        nxt = g.values[k + 1]
        A = block_average(lat, nxt, k, q)
        D = (A - cur) / (dt * cur)
        grad += dt * (np.abs(D) + np.sign(D) * (nxt - A) / (dt * cur)).sum(axis=1)
    return grad


def grad_penalty(q, g, pairs, c, rho):
    lat = g.lattice
    dt = lat.dt
    grad = np.zeros(lat.n_paths)
    for i, j in pairs:
        gap = c - corr_raw(q, g, i, j)
        if gap <= 0.0:
            continue
        x_all, y_all = g.values[:, :, i], g.values[:, :, j]
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


def central_difference(obj, q, h, rho=0.0):
    """The gradient of ``obj``'s penalized value at q (P,) by central
    differences, one coordinate at a time, with the step h * max(1, |q|)."""
    step = h * max(1.0, float(np.linalg.norm(q)))
    grad = np.empty(q.size)
    for j in range(q.size):
        plus, minus = q.copy(), q.copy()
        plus[j] += step
        minus[j] -= step
        grad[j] = (obj.evaluate(plus, rho)[0][0] - obj.evaluate(minus, rho)[0][0]) / (2.0 * step)
    return grad


# -- the stacked fold ----------------------------------------------------------------

def stacked_averages(tree, W, horizon):
    """``Tree.averages`` as one ``_weighted_mean`` per level over the stacked
    X = [child | A_{k+1}], unchanged from before the fold averaged the
    child column on its own: A[k][:, :, j] = E[g_{k+1+j} | F_k], shape
    (G, b^k, h, n*d) with h = min(horizon, K - k)."""
    from fairmeasure.lattice import _weighted_mean
    b, K, G = tree.b, tree.K, W[0].shape[0]
    positive = bool((W[K] > 0.0).all())
    A = [None] * K
    for k in range(K - 1, -1, -1):
        h, child = min(horizon, K - k), tree.nodes[k + 1]
        M = child.shape[1]
        if h == 1:
            X = child.reshape(1, b ** k, b, M)
        else:
            X = np.empty((G, b ** (k + 1), h, M))
            X[:, :, 0], X[:, :, 1:] = child, A[k + 1][:, :, :h - 1]
            X = X.reshape(G, b ** k, b, h * M)
        Wk = W[k] if positive else np.where(W[k] > 0.0, W[k], 1.0)
        A[k] = _weighted_mean(W[k + 1].reshape(G, b ** k, b), X, Wk).reshape(G, b ** k, h, M)
    if not positive:  # the fold kept weightless nodes at their first child's value
        for k in range(K):
            A[k][W[k] <= 0.0] = 0.0
    return A


def m_from_averages(tree, W, A, p):
    """``Tree.m``'s value per row on the averages A of ``Tree.averages``
    at horizon K, each deviation and norm in a new array."""
    total = 0.0
    for k in range(tree.K):
        dev = tree.nodes[k][:, None, :] - A[k]
        nrm = np.abs(dev) if tree.d == 1 else np.sqrt(
            (dev.reshape(dev.shape[:-1] + (tree.n, tree.d)) ** 2).sum(axis=-1))
        total = total + np.einsum("gv,gvhe->g", W[k], nrm ** p)
    return tree.dt * tree.dt * total


# -- the linear programs of n and of m at p = 1 -------------------------------------

def lp_min(g, params):
    """The minimum of n, or of m at p = 1, over the box-simplex, and a point
    that attains it, for scalar exchanges (d = 1).  Each functional is a
    sum of absolute values of linear functions of q: W_k |g_k - E[g_l|F_k]|
    at a level-k node is |sum q_pi (g_k - g_l(pi))| over the paths below it,
    and W_k |E[g_{k+1}|F_k] - g_k| / g_k likewise.  So min sum |A q| is the
    linear program min sum t subject to -t <= A q <= t, solved by HiGHS at
    feasibility tolerances of 1e-10 (at scipy's default of 1e-7 the value
    on a 2048-path lattice lies 4e-5 relative below the functional at the
    returned point).  Returns (value, q)."""
    from scipy import sparse
    from scipy.optimize import linprog
    from fairmeasure.solver import box_bounds
    assert g.d == 1 and (params.objective == "n" or params.p == 1.0)
    lat = g.lattice
    P, K, dt = lat.n_paths, lat.depth, lat.dt
    paths = np.arange(P)
    rows, cols, data, R = [], [], [], 0
    for k in range(K):
        node = paths // lat.block_size(k)
        if params.objective == "n":
            pairs = [(k + 1, 1.0 / g.values[k])]
        else:
            pairs = [(l, dt * dt) for l in range(k + 1, K + 1)]
        for l, scale in pairs:
            coef = (g.values[l] - g.values[k]) * scale      # (P, n)
            for e in range(g.n):
                rows.append(R + node * g.n + e)
                cols.append(paths)
                data.append(coef[:, e])
            R += lat.n_blocks(k) * g.n
    A = sparse.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(R, P))
    eye = sparse.identity(R, format="csr")
    lo, hi = box_bounds(lat, params.N)
    res = linprog(np.concatenate((np.zeros(P), np.ones(R))),
                  A_ub=sparse.vstack((sparse.hstack((A, -eye)), sparse.hstack((-A, -eye)))),
                  b_ub=np.zeros(2 * R),
                  A_eq=sparse.hstack((np.ones((1, P)), sparse.csr_matrix((1, R)))), b_eq=[1.0],
                  bounds=list(zip(lo, hi)) + [(0.0, None)] * R, method="highs",
                  options=dict(primal_feasibility_tolerance=1e-10,
                               dual_feasibility_tolerance=1e-10))
    assert res.status == 0, res.message
    return float(res.fun), res.x[:P]


# -- the exact n on a binary lattice ----------------------------------------------

def exact_n_min(g, N):
    """The minimum of n over the box-simplex on a binary lattice, by the
    naive dynamic program over subtree mass that ``fairmeasure._exact``
    walks.  A leaf's F is 0 on [lo, hi].  At a node with children c1, c2,
    G(m1, m2) = F_c1(m1) + F_c2(m2) + sum_e |a_e m1 + b_e m2| is affine on
    each cell of the arrangement of the child breakpoint lines m1 = x1,
    m2 = x2 and the zero-drift rays a_e m1 + b_e m2 = 0, so
    F_v(m) = min over m1 + m2 = m of G is the lower convex hull of the
    points (m1 + m2, G) over the O(n^2) candidate splits, the vertices of
    that arrangement: every pair of child breakpoints and every child
    breakpoint on a ray.  Returns F_root(1)."""
    from fairmeasure.solver import box_bounds
    lat = g.lattice
    assert lat.branching == 2
    K = lat.depth
    lo, hi = box_bounds(lat, N)
    leaf = (np.array([lo[0], hi[0]]), np.zeros(2))
    funcs = [leaf] * lat.n_paths
    for k in range(K - 1, -1, -1):
        node = g.values[k, ::2 ** (K - k)]
        child = g.values[k + 1, ::2 ** (K - k - 1)]
        funcs = [_node_function(funcs[2 * v], funcs[2 * v + 1],
                                (child[2 * v] - node[v]) / node[v],
                                (child[2 * v + 1] - node[v]) / node[v])
                 for v in range(2 ** k)]
    m, F = funcs[0]
    return float(np.interp(1.0, m, F))


def _node_function(f1, f2, a, b):
    """(breakpoints, values) of F_v from its children's, as in ``exact_n_min``."""
    (X1, F1), (X2, F2) = f1, f2
    splits = [np.stack(np.meshgrid(X1, X2, indexing="ij"), axis=-1).reshape(-1, 2)]
    for ae, be in zip(a, b):
        if ae * be < 0.0:
            splits += [np.column_stack((X1, -ae * X1 / be)), np.column_stack((-be * X2 / ae, X2))]
    V = np.concatenate(splits)
    V = V[(V[:, 0] >= X1[0]) & (V[:, 0] <= X1[-1]) & (V[:, 1] >= X2[0]) & (V[:, 1] <= X2[-1])]
    G = (np.interp(V[:, 0], X1, F1) + np.interp(V[:, 1], X2, F2)
         + np.abs(V @ np.stack((a, b))).sum(axis=1))
    return lower_hull(V.sum(axis=1), G)


def lower_hull(x, y):
    """The vertices of the lower convex hull of the points (x, y), in
    increasing x, as two arrays."""
    hull = []
    for px, py in sorted(zip(x.tolist(), y.tolist())):
        if hull and px == hull[-1][0]:
            continue          # the lower of two points at one x came first
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (py - hull[-2][1])
                                  - (hull[-1][1] - hull[-2][1]) * (px - hull[-2][0])) <= 0.0:
            hull.pop()
        hull.append((px, py))
    return tuple(np.array(c) for c in zip(*hull))


_WALK_INF = math.inf


def walk_n_min(tree, lo, hi):
    """The path weights of ``fairmeasure._exact.min_n`` by the per-step
    walk: ``_walk`` builds each node's F_v, node after node, with one Python
    iteration per step.  The package's walk takes each run of steps between
    two ray events in one numpy merge, all nodes of a level at once, and is
    checked against this one."""
    K, lo, hi = tree.K, float(lo), float(hi)
    # the leaves: F = 0 on [lo, hi], one breakpoint where lo == hi
    ends = [lo, hi] if hi > lo else [lo]
    X, S = ends * 2 ** K, [math.nan, 0.0][:len(ends)] * 2 ** K
    start = range(0, len(X) + 1, len(ends))
    levels = []
    for k in range(K - 1, -1, -1):
        g, child = tree.nodes[k], tree.nodes[k + 1]
        A, B = ((child[0::2] - g) / g).tolist(), ((child[1::2] - g) / g).tolist()
        nX, nS, split, offsets = [], [], [], [0]
        for v in range(2 ** k):
            _walk(X, S, start[2 * v], start[2 * v + 1], start[2 * v + 2],
                  [(a, b) for a, b in zip(A[v], B[v]) if a or b], nX, nS, split)
            offsets.append(len(nX))
        levels.append((np.array(offsets), np.array(nX), np.array(split)))
        X, S, start = nX, nS, offsets
    mass = np.ones(1)
    for offsets, X, split in reversed(levels):
        first, last = offsets[:-1], offsets[1:] - 1
        # per node the last breakpoint at or below its mass, and the next one
        below = np.add.reduceat(X <= np.repeat(mass, offsets[1:] - first), first, dtype=np.intp)
        j = first + np.clip(below - 1, 0, last - first)
        nxt = np.minimum(j + 1, last)
        width = X[nxt] - X[j]
        t = np.clip((mass - X[j]) / np.where(width > 0.0, width, 1.0), 0.0, 1.0)
        m1 = split[j] + t * (split[nxt] - split[j])
        mass = np.column_stack((m1, mass - m1)).ravel()
    return mass


def _walk(X, S, i1, i2, end, cols, outX, outS, outSplit):
    """Append F_v's breakpoints, the slopes of the pieces that end there and
    the c1 mass at each to the out lists, from m = L1 + L2 up to H1 + H2.
    c1's breakpoints are X[i1:i2] and c2's X[i2:end]; S[i] is the slope of
    the piece that ends at X[i].  ``cols`` are the (a_e, b_e) of the node's
    terms.  Each step advances a child breakpoint or ends on a ray, and
    between two breakpoints the walk crosses each ray at most once, which
    bounds the steps; a walk past that bound raises RuntimeError."""
    e1, e2 = i2 - 1, end - 1
    x1, x2 = X[i1], X[i2]
    sgn = [(r > 0.0) - (r < 0.0) for r in (a * x1 + b * x2 for a, b in cols)]
    outX.append(x1 + x2)
    outS.append(math.nan)
    outSplit.append(x1)
    for _ in range((e1 - i1 + e2 - i2 + 2) * (len(cols) + 2)):
        s1 = S[i1 + 1] if i1 < e1 else _WALK_INF
        s2 = S[i2 + 1] if i2 < e2 else _WALK_INF
        if s1 == _WALK_INF and s2 == _WALK_INF:
            return
        d1, d2, ray = s1, s2, -1
        for e, (a, b) in enumerate(cols):
            s = sgn[e]
            if s:
                d1 += s * a
                d2 += s * b
            else:
                d1 += abs(a)
                d2 += abs(b)
                ray = e
        d3 = _WALK_INF
        if ray >= 0 and s1 < _WALK_INF and s2 < _WALK_INF:
            a, b = cols[ray]
            r1, r2 = b / (b - a), a / (a - b)
            d3 = r1 * s1 + r2 * s2 + sum(s * (a * r1 + b * r2)
                                         for s, (a, b) in zip(sgn, cols) if s)
        if d3 < d1 and d3 < d2:      # along the ray, to the nearer child breakpoint
            slope = d3
            t1, t2 = (X[i1 + 1] - x1) / r1, (X[i2 + 1] - x2) / r2
            if t1 <= t2:
                x2 = min(x2 + r2 * t1, X[i2 + 1])
                x1 = X[i1 + 1]
                i1 += 1
            if t2 <= t1:
                x1 = min(x1 + r1 * t2, X[i1 + 1]) if t2 < t1 else x1
                x2 = X[i2 + 1]
                i2 += 1
        else:
            one = d1 <= d2
            slope = d1 if one else d2
            here, there = (x1, x2) if one else (x2, x1)
            target = X[i1 + 1] if one else X[i2 + 1]
            nxt, hit = target, []
            for e, (a, b) in enumerate(cols):
                rate, other = (a, b) if one else (b, a)
                if not sgn[e]:       # leaving the ray
                    sgn[e] = 1 if rate > 0.0 else -1
                elif sgn[e] * rate < 0.0:     # heading for the ray
                    cross = -other * there / rate
                    if cross < nxt:
                        nxt, hit = cross, [e]
                    elif cross == nxt:
                        hit.append(e)
            for e in hit:
                sgn[e] = 0
            if nxt >= target:
                nxt = target
                if one:
                    i1 += 1
                else:
                    i2 += 1
            nxt = max(nxt, here)
            if one:
                x1 = nxt
            else:
                x2 = nxt
        m = x1 + x2
        if m > outX[-1]:
            if slope == outS[-1]:    # collinear with the last piece
                outX[-1], outSplit[-1] = m, x1
            else:
                outX.append(m)
                outS.append(slope)
                outSplit.append(x1)
    raise RuntimeError("exact walk passed its step cap")


# -- the per-start solver loop ----------------------------------------------------

def pgd(obj, q0, project, gap, max_iter, rho):
    """One penalty round of projected gradient descent from one start, one
    row at a time: the loop ``minimize`` runs per start, written without
    the batch.  A start stops at "tol" once ``gap`` (the package's
    Frank-Wolfe gap) is at most ``TOL``.  Where ``obj.differentiable`` the
    first trial step is ``STEP`` and later ones the Barzilai-Borwein ratio
    s's / s'y of the last pair, clamped (``STEP`` where s'y <= 0), and a
    trial is tested against the largest of the last ``_WINDOW`` penalized
    values; elsewhere the trial step doubles up to ``STEP`` and the test is
    against the current value.  Returns (q, raw value, violation,
    iterations, trace, stop reason)."""
    from fairmeasure._descent import _BB_MAX, _BB_MIN, _MIN_STEP, _WINDOW, STEP, TOL
    spectral = obj.differentiable
    q = project(q0)
    pen, raw, viol = (float(x[0]) for x in obj.evaluate(q, rho))
    recent = [pen]
    trace = []
    t = STEP
    last = None
    iters = 0
    stop = "max_iter"
    for _ in range(max_iter):
        grad = obj.gradient(q, rho)
        if float(gap(q, grad)) <= TOL:
            stop = "tol"
            break
        if not spectral:
            t = min(STEP, 2.0 * t)
        elif last is not None:
            s, y = q - last[0], grad - last[1]
            sy = float((s * y).sum())
            t = min(max(float((s * s).sum()) / sy, _BB_MIN), _BB_MAX) if sy > 0.0 else STEP
        last = (q, grad)
        ref_value = max(recent[-_WINDOW:]) if spectral else pen
        accepted = False
        stop = "stalled-line-search"
        while t > _MIN_STEP:
            qn = project(q - t * grad)
            d2 = float(((qn - q) ** 2).sum())
            if d2 == 0.0:
                stop = "zero-step"
                break
            fn_pen, fn_raw, vn = (float(x[0]) for x in obj.evaluate(qn, rho))
            if fn_pen <= ref_value - 1e-4 * d2 / t:
                q, pen, raw, viol = qn, fn_pen, fn_raw, vn
                recent.append(pen)
                iters += 1
                trace.append((fn_raw, t, vn))
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        stop = "max_iter"
    return q, raw, viol, iters, trace, stop


def solve_from(obj, q0, project, gap, max_iter, floor_active):
    """Penalty rounds from one start: rho grows until the floor is met, and
    each round starts its step and its window afresh in ``pgd``.
    Returns a dict of the point reached (q, value, violation), the summed
    iterations and trace, and the last round's rho and stop reason."""
    from fairmeasure.solver import (_PENALTY_GROWTH, _PENALTY_INIT, _PENALTY_ROUNDS,
                                    FEASIBILITY_TOL)
    rho = _PENALTY_INIT if floor_active else 0.0
    q, iters, trace, rounds = q0, 0, [], 0
    for _ in range(_PENALTY_ROUNDS if floor_active else 1):
        q, raw, viol, n, steps, stop = pgd(obj, q, project, gap, max_iter, rho)
        iters += n
        trace.extend(steps)
        rounds += 1
        used = rho
        if not floor_active or viol <= FEASIBILITY_TOL:
            break
        rho *= _PENALTY_GROWTH
    return dict(q=q, value=raw, violation=viol, iterations=iters, trace=trace,
                rho=used, stop=stop, penalty_rounds=rounds)


# -- the Frank-Wolfe gap by sorting -------------------------------------------------

def lmo(grad, lo, hi, total=1.0):
    """The vertex of {s : sum s = total, lo <= s <= hi} that minimizes
    <grad, s>, by the greedy rule in full: every coordinate starts at lo,
    then coordinates in increasing order of grad take all they can up to hi
    until the mass is spent."""
    s = np.array(lo, dtype=float)
    spare = total - s.sum()
    for i in np.argsort(grad, kind="stable"):
        take = min(max(spare, 0.0), hi[i] - lo[i])
        s[i] += take
        spare -= take
    return s


def fw_gap(q, grad, lo, hi, total=1.0):
    """max over the box-simplex of <grad, q - s>, through ``lmo``."""
    return float(grad @ (q - lmo(grad, lo, hi, total)))


def breakpoint_projection(v, lo, hi, total=1.0):
    """Reference box-simplex projection of v (P,) or of each row of v (G, P):
    the O(P log P) breakpoint search (Held, Wolfe & Crowder 1974; Kiwiel
    2008) that the sort-free Newton method replaced.  One sort of the 2P
    breakpoints v - hi and v - lo and cumulative sums give
    f(tau) = sum clip(v - tau, lo, hi) at every breakpoint; tau is then
    solved in closed form on the piece where f crosses ``total``, from the
    coordinates that piece holds at lo, at hi and free, and clamped to the
    piece.  Rows are shifted by the integer part of their mean first, and
    already-feasible rows are returned unchanged, as in the package."""
    v = np.asarray(v, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), v.shape[-1:])
    hi = np.broadcast_to(np.asarray(hi, dtype=float), v.shape[-1:])
    V = np.atleast_2d(v)
    G, P = V.shape
    inside = ((V >= lo - 1e-15) & (V <= hi + 1e-15)).all(axis=1)
    rows = np.flatnonzero(~inside | (np.abs(V.sum(axis=1) - total) > 1e-13))
    out = V.copy()
    for r in rows:
        x = V[r] - np.trunc(V[r].mean())
        t = np.concatenate((x - hi, x - lo))
        upper = np.arange(2 * P) < P              # the breakpoint is a v - hi
        order = np.argsort(t)
        t, upper = t[order], upper[order]
        # f is slope * tau + offset on each piece; crossing v - hi adds v - hi
        # to the offset and crossing v - lo subtracts v - lo
        f = float(hi.sum()) - np.cumsum(np.where(upper, -t, t))
        f += np.cumsum(np.where(upper, -1.0, 1.0)) * t
        below = f <= total
        if below[0]:
            tau = t[0]
        elif not below[-1]:
            tau = t[-1]
        else:
            j = int(np.argmax(below))
            left, right = t[j - 1], t[j]
            at_hi, at_lo = x - hi >= right, x - lo < right
            n_free = P - int(at_hi.sum()) - int(at_lo.sum())
            held = float(np.where(at_hi, hi, np.where(at_lo, lo, x)).sum())
            tau = min(max((held - total) / n_free, left), right) if n_free else right
        out[r] = np.clip(x - tau, lo, hi)
    return out.reshape(v.shape)


# -- the full-grid oracle -------------------------------------------------------------

def grid_min(g, params, resolution=200):
    """The grid search that ``brute_force_min`` replaced, unchanged: every
    one of the (resolution + 1)^(P - 1) grid rows is decoded, gathered and
    summed, and only then are the rows outside the box dropped.  Returns
    ``fm.BruteForceResult``."""
    import math
    from fairmeasure._tree import row_blocks
    from fairmeasure.solver import _GRID_BUDGET, _Objective, box_bounds
    lat = g.lattice
    P = lat.n_paths
    if P > 6:
        raise fm.SizeBudgetError(f"brute force supports at most 6 paths, got {P}")
    if not 1 <= resolution <= 2000:
        raise fm.ParameterError(f"resolution must be in 1..2000, got {resolution}")
    size = (resolution + 1) ** (P - 1)
    if size > _GRID_BUDGET:
        raise fm.SizeBudgetError(f"grid of {resolution + 1}^{P - 1} points exceeds {_GRID_BUDGET}")
    lo, hi = box_bounds(lat, params.N)
    obj = _Objective(g, params)
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
        raise fm.InfeasibleError("no grid point lies in the box-simplex")
    if best_q is None:
        raise fm.InfeasibleError(f"no grid point satisfies the correlation floor c={params.c}")
    return fm.BruteForceResult(measure=fm.Measure(lat, best_q), value=best_value)
