"""The exact minimum of n on a binary lattice, by a walk over subtree mass.

On a binary lattice n's term at a node v with children c1 and c2 is
sum_e |a_e w(c1) + b_e w(c2)|, where w(c) is the mass below c,
a_e = (g_e(c1) - g_e(v)) / g_e(v) and b_e is the same for c2: it depends on
the two child masses alone.  So min n over the box-simplex is F_root(1),
where a leaf has F = 0 on [lo, hi] and

    F_v(m) = min over m1 + m2 = m of F_c1(m1) + F_c2(m2) + sum_e |a_e m1 + b_e m2|,

each F convex and piecewise linear: message passing of convex piecewise-
linear functions up a tree, as in total variation on trees (Kolmogorov,
Pock & Rolinek, SIAM J. Imaging Sci. 2016) and the fused-lasso dynamic
program (Johnson, JCGS 2013).

:func:`_walk` builds F_v from m = L1 + L2, the children's least masses.
Some optimal split has both child masses nondecreasing in m (Topkis): a
term whose a_e and b_e share a sign is linear where masses are positive, and
one whose signs differ is submodular in (m1, m) and in (m2, m).  So the
slope of F_v just right of m is the least slope among three directions
from the current split: more mass to c1, more mass to c2, or, where the
split sits on the zero-drift ray a_e m1 + b_e m2 = 0 of a column e, along
that ray.  A direction's slope is its child's slope (on the ray, both
children's, weighted) plus the rate of sum_e |a_e m1 + b_e m2| along it,
and it holds up to the next breakpoint of a child or the next ray, where
the step ends.  Which side of each ray the split lies on is kept as a sign
that a step sets when it ends on the ray, so no float test of
a_e m1 + b_e m2 == 0 decides it.

Steps of equal slope merge into one piece.  Where F_v is linear, a convex
combination of two optimal splits is optimal too, as the objective is
convex; so the top-down pass from m_root = 1 interpolates each node's
recorded splits linearly.  Each level keeps its breakpoints and splits in
flat float64 arrays, with one offset per node.
"""
from __future__ import annotations

import math

import numpy as np

from ._tree import Tree

_INF = math.inf


def min_n(tree: Tree, lo: float, hi: float) -> np.ndarray:
    """Path weights (P,) that minimize n over {q : sum q = 1, lo <= q <= hi}
    on the binary lattice of ``tree`` (values strictly positive)."""
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


def _walk(X: list, S: list, i1: int, i2: int, end: int, cols: list,
          outX: list, outS: list, outSplit: list) -> None:
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
        s1 = S[i1 + 1] if i1 < e1 else _INF
        s2 = S[i2 + 1] if i2 < e2 else _INF
        if s1 == _INF and s2 == _INF:
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
        d3 = _INF
        if ray >= 0 and s1 < _INF and s2 < _INF:
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
