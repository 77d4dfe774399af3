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

The walk builds F_v from m = L1 + L2, the children's least masses.  Some
optimal split has both child masses nondecreasing in m (Topkis): a term
whose a_e and b_e share a sign is linear where masses are positive, and one
whose signs differ is submodular in (m1, m) and in (m2, m).  So the slope of
F_v just right of m is the least slope among three directions from the
current split: more mass to c1, more mass to c2, or, where the split sits
on the zero-drift ray a_e m1 + b_e m2 = 0 of a column e, along that ray.  A
direction's slope is its child's slope (on the ray, both children's,
weighted) plus the rate of sum_e |a_e m1 + b_e m2| along it, and it holds up
to the next breakpoint of a child or the next ray, where the step ends.
Which side of each ray the split lies on is kept as a sign that a step sets
when it ends on the ray, so no float test of a_e m1 + b_e m2 == 0 decides
it.

Between two ray events the signs are fixed, so the steps form a run that
numpy takes whole.  Off every ray each term's rate is fixed, and the run is
the merge of the two children's slope sequences, each shifted by its
child's rates, c1 first on equal slopes.  On a ray the run is the merge of
the children's breakpoints in ray time (a breakpoint over the child's share
r1 or r2 of a step along the ray) for as long as the ray is cheaper than
either child.  An event is the step that ends a run: the step off the rays
that reaches a ray before its breakpoint, or the step that leaves a ray.
It is taken on its own, by the step rule above.  A level walks all its
nodes in lock step, in rounds: a round merges the runs of all the nodes on a
ray in one stable sort keyed by (node, ray time), those of all the nodes
off the rays in another keyed by (node, slope), and then takes the event of
every node whose run ended at one.  So a level costs a Python iteration per
event of its busiest node (2 to 4 on most levels of the benchmark's GBM, up
to 32 next to the root), not one per step.  A round looks ahead a window of
each child's breakpoints, at least ``_WINDOW`` and twice the node's last
run, and takes at most ``_ROUND`` breakpoints in all (or one node's windows,
where they alone are more), which bounds its working memory; a run cut at
the end of its window goes on in the next round.

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
# the least window of a child's breakpoints that a node looks ahead in a round
_WINDOW = 64
# the most child breakpoints a round takes, unless one node's windows hold more
_ROUND = 1 << 13


def min_n(tree: Tree, lo: float, hi: float) -> np.ndarray:
    """Path weights (P,) that minimize n over {q : sum q = 1, lo <= q <= hi}
    on the binary lattice of ``tree`` (values strictly positive).  Each level
    walks all its nodes in lock step, in rounds of one run and at most one
    event per node (see the module docstring); a walk past its step cap
    raises RuntimeError."""
    K, lo, hi = tree.K, float(lo), float(hi)
    # the leaves: F = 0 on [lo, hi], one breakpoint where lo == hi
    ends = [lo, hi] if hi > lo else [lo]
    X = np.append(np.tile(ends, 2 ** K), math.nan)
    S = np.append(np.tile([math.nan, 0.0][:len(ends)], 2 ** K), math.nan)
    start = np.arange(0, X.size, len(ends))
    levels = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(K - 1, -1, -1):
            g, child = tree.nodes[k], tree.nodes[k + 1]
            start, X, S, split = _level(X, S, start, (child[0::2] - g) / g,
                                        (child[1::2] - g) / g)
            levels.append((start, X[:-1], split))
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


def _level(X: np.ndarray, S: np.ndarray, start: np.ndarray, A: np.ndarray,
           B: np.ndarray) -> tuple:
    """(offsets, breakpoints, slopes, splits) of F_v for every node v of a
    level, from its children's: node v's c1 has breakpoints
    X[start[2v]:start[2v + 1]] and c2 X[start[2v + 1]:start[2v + 2]], and
    S[i] is the slope of the piece that ends at X[i] (nan at a child's first
    breakpoint).  Row v of A and B holds the node's (a_e, b_e); a column
    with a_e = b_e = 0 is no term.  Each step advances a child breakpoint or
    ends on a ray, and between two breakpoints the walk crosses each ray at
    most once, which bounds a node's steps; a walk past that bound raises
    RuntimeError.  X and S carry one nan past the last breakpoint, and so
    do the breakpoints and slopes returned."""
    walk = _Walk(X, S, start, A, B)
    act = np.flatnonzero((walk.i < walk.e).any(axis=0))
    while act.size:
        # the nodes whose windows fit in one round, one at least
        load = np.minimum(walk.e[:, act] - walk.i[:, act], walk.window[act]).sum(axis=0).cumsum()
        walk.round(act[:max(1, np.searchsorted(load, _ROUND, side="right"))])
        act = act[(walk.i[:, act] < walk.e[:, act]).any(axis=0)]
        if (walk.steps[act] >= walk.cap[act]).any():
            raise RuntimeError("exact walk passed its step cap")
    return walk.pieces()


class _Walk:
    """The walk state of every node of one level.  Axis 0 of ``i`` and
    ``e`` is the child, c1 then c2: its last breakpoint reached and its last
    breakpoint.  ``sgn`` (cols, nodes) holds the side of each column's ray,
    as -1.0, 0.0 or 1.0, and ``on`` whether the split sits on a ray.
    ``per`` (fields, child, node) holds, for each child c of each node: the
    other child's mass; what the signs fix: the ray fractions of c and of
    the other child, the rate T of the terms off the ray along it, and per
    term column the rates towards c and towards the other child; c's
    coefficients (a_e or b_e); and ``toward``: where a step of c heads for
    the column's ray, minus the other child's coefficient, else nan."""

    OTHER, R_OWN, R_OTHER, T, RATE = range(5)

    def __init__(self, X, S, start, A, B):
        _lift(S)
        nodes, cols = A.shape
        self.RATE_OTHER, self.COEF, self.TOWARD = 4 + cols, 4 + 2 * cols, 4 + 3 * cols
        self.X, self.S = X, S
        self.i = np.stack((start[:-1:2], start[1::2]))
        self.e = np.stack((start[1::2], start[2::2])) - 1
        x1, x2 = X[self.i]
        self.per = np.empty((4 + 4 * cols, 2, nodes))
        self.per[self.OTHER] = x2, x1
        self.per[self.COEF:self.TOWARD] = np.stack((A.T, B.T), axis=1)
        term = (A != 0.0) | (B != 0.0)
        r = A * x1[:, None] + B * x2[:, None]
        # a column that is no term counts as off its ray, with rates 0
        self.sgn = np.where(term, np.sign(r), 1.0).T.copy()
        self.on = np.empty(nodes, dtype=bool)
        self.cap = (self.e - self.i + 1).sum(axis=0) * (term.sum(axis=1) + 2)
        self.steps = np.zeros(nodes, dtype=np.intp)
        self.window = np.full(nodes, _WINDOW)
        self._rays(np.arange(nodes))
        self.out = [(np.arange(nodes), x1 + x2, np.full(nodes, math.nan), x1)]

    def _rays(self, ev: np.ndarray) -> None:
        """Set what the signs fix, for the nodes ``ev``."""
        per, cols = self.per, self.sgn.shape[0]
        on, ra, rb = np.zeros(ev.size, dtype=bool), 0.0, 0.0
        for e in range(cols):
            s, a, b = self.sgn[e, ev], per[self.COEF + e, 0, ev], per[self.COEF + e, 1, ev]
            zero = s == 0.0
            on |= zero
            sa, sb = s * a, s * b
            rate1, rate2 = np.where(zero, np.abs(a), sa), np.where(zero, np.abs(b), sb)
            per[self.RATE + e, 0, ev], per[self.RATE + e, 1, ev] = rate1, rate2
            per[self.RATE_OTHER + e, 0, ev], per[self.RATE_OTHER + e, 1, ev] = rate2, rate1
            per[self.TOWARD + e, 0, ev] = np.where(sa < 0.0, -b, math.nan)
            per[self.TOWARD + e, 1, ev] = np.where(sb < 0.0, -a, math.nan)
            # the ray: the last column whose split sits on it
            ra, rb = np.where(zero, a, ra), np.where(zero, b, rb)
        r1, r2 = rb / (rb - ra), ra / (ra - rb)
        T = np.zeros(ev.size)
        for e in range(cols):
            s = self.sgn[e, ev]
            T = T + np.where(s == 0.0, 0.0, s * (per[self.COEF + e, 0, ev] * r1
                                                 + per[self.COEF + e, 1, ev] * r2))
        per[self.R_OWN, 0, ev], per[self.R_OWN, 1, ev] = r1, r2
        per[self.R_OTHER, 0, ev], per[self.R_OTHER, 1, ev] = r2, r1
        per[self.T, 0, ev], per[self.T, 1, ev] = T, T
        self.on[ev] = on

    def round(self, act: np.ndarray) -> None:
        """One round for the active nodes: each takes its run, the steps up
        to its next event or to the end of its window of child breakpoints,
        and then the event, if its run stopped at one."""
        on = self.on[act]
        ev = np.concatenate([self._run(nodes, ray) for nodes, ray in ((act[on], True),
                                                                     (act[~on], False))
                             if nodes.size])
        if ev.size:
            self.event(ev)

    def _run(self, act: np.ndarray, ray: bool) -> np.ndarray:
        """The runs of the nodes ``act``, all on a ray or all off the rays.
        Returns the nodes whose run stopped at an event.  A step is seen
        from the child that moves (own) and the other one."""
        X, S, n, cols = self.X, self.S, act.size, self.sgn.shape[0]
        i = self.i[:, act].ravel()
        left = self.e[:, act].ravel() - i
        count = np.minimum(left, np.concatenate((self.window[act],) * 2))
        # the windows of c1 of all nodes, then of c2
        seg = np.repeat(np.arange(2 * n), count)
        idx = _ragged(i + 1, count)
        G = self.per[:, :, act].reshape(len(self.per), 2 * n)[:, seg]
        reach, s_own = X[idx], S[idx]
        # off the rays a child's key is its slope plus its rates; on a ray its
        # ray time, the breakpoint over its share of the ray
        key = reach / G[self.R_OWN] if ray else _shift(s_own, G[self.RATE:self.RATE_OTHER])
        # the last breakpoint of a cut window ends the run before it is reached
        cut = np.zeros(seg.size, dtype=bool)
        cut[(np.cumsum(count) - 1)[left > count]] = True
        # each child's window is sorted by (node, key) already, so a stable
        # sort of both merges them, c1 first
        z = np.empty(seg.size, dtype=complex)
        z.real, z.imag = seg % n, key
        order = np.argsort(z, kind="stable")
        seg, idx, key, cut, G = seg[order], idx[order], key[order], cut[order], G[:, order]
        reach, s_own = reach[order], s_own[order]
        size = count[:n] + count[n:]
        first = np.cumsum(size) - size
        v = np.repeat(np.arange(n), size)
        # the other child's last breakpoint: its start plus its steps before
        # this one in the round, which are all the node's steps less the own
        jo = (i[:n] + i[n:] + 1 - first)[v] + np.arange(v.size) - idx
        # the other child stays where it was, or on a ray moves to its share
        # of the ray point
        other = np.maximum(G[self.OTHER], X[jo])
        if ray:
            other = np.maximum(np.minimum(G[self.R_OTHER] * key, X[jo + 1]), other)
            # the run lasts while the ray is cheaper than either child (past a
            # child's last breakpoint its slope is nan)
            s_oth = S[jo + 1]
            slope = G[self.R_OWN] * s_own + G[self.R_OTHER] * s_oth + G[self.T]
            stop = ~((slope < _shift(s_own, G[self.RATE:self.RATE_OTHER]))
                     & (slope < _shift(s_oth, G[self.RATE_OTHER:self.COEF])))
        else:
            # the run lasts until a step reaches a ray before its breakpoint
            slope, stop = key, np.zeros(v.size, dtype=bool)
            for e in range(cols):
                stop |= G[self.TOWARD + e] * other / G[self.COEF + e] <= reach
        # each node's run: its steps before its first stop
        stop = np.append(np.flatnonzero(stop | cut), v.size)
        took = np.minimum(stop[np.searchsorted(stop, first)], first + size) - first
        run = _ragged(first, took)
        one = seg < n
        y1, y2 = np.where(one, reach, other), np.where(one, other, reach)
        last, moved = (first + took - 1)[took > 0], act[took > 0]
        self.i[:, moved] = np.where(one, idx, jo)[last], np.where(one, jo, idx)[last]
        self.per[self.OTHER][:, moved] = y2[last], y1[last]
        self.steps[act] += took
        self.window[act] = np.maximum(_WINDOW, 2 * took)
        self.out.append((act[v[run]], y1[run] + y2[run], slope[run], y1[run]))
        ev = np.flatnonzero(took < size)
        return act[ev[~cut[(first + took)[ev]]]]

    def event(self, ev: np.ndarray) -> None:
        """One step off the current split for each node in ``ev``, by one
        child: the cheaper of the two, c1 on a tie.  The step ends at the
        child's next breakpoint or at the first ray it meets; it leaves the
        rays the split sat on."""
        cols, per = self.sgn.shape[0], self.per[:, :, ev]
        s, i, x = self.sgn[:, ev], self.i[:, ev], per[self.OTHER, ::-1]
        has = i < self.e[:, ev]
        d = np.where(has, _shift(self.S[i + 1], per[self.RATE:self.RATE_OTHER]), _INF)
        one = d[0] <= d[1]
        side, col = (~one).astype(np.intp), np.arange(ev.size)
        here, there, go = x[side, col], x[1 - side, col], has[side, col]
        # a child with no piece left (reached only through nan slopes) stays put
        target = np.where(go, self.X[i[side, col] + 1], here)
        nxt, hit = target.copy(), np.zeros(s.shape, dtype=bool)
        for e in range(cols):
            own, other = per[self.COEF + e, side, col], per[self.COEF + e, 1 - side, col]
            heading = (s[e] != 0.0) & (s[e] * own < 0.0)
            cross = np.where(heading, -other * there / own, _INF)
            closer = heading & (cross < nxt)
            hit[:, closer] = False
            hit[e] |= closer | (heading & (cross == nxt))
            nxt = np.where(closer, cross, nxt)
            s[e] = np.where(s[e] == 0.0, np.where(own > 0.0, 1.0, -1.0), s[e])
        s[hit] = 0.0
        self.sgn[:, ev] = s
        self._rays(ev)
        i[side, col] += go & (nxt >= target)
        x[side, col] = np.maximum(nxt, here)
        self.i[:, ev], self.per[self.OTHER][:, ev] = i, x[::-1]
        self.steps[ev] += 1
        self.out.append((ev, x[0] + x[1], d[side, col], x[0]))

    def pieces(self) -> tuple:
        """(offsets, breakpoints, slopes, splits) of every node's F_v, with a
        nan past the last breakpoint and slope.  A step that does not raise
        m records nothing; a piece collinear with the one before it extends
        that piece."""
        node, m, slope, split = zip(*self.out)
        self.out = None
        node = np.concatenate(node)
        order = np.argsort(node, kind="stable")
        node, m = node[order], np.concatenate(m)[order]
        kept = np.ones(m.size, dtype=bool)
        kept[1:] = (m[1:] > m[:-1]) | (node[1:] != node[:-1])
        kept = np.flatnonzero(kept)
        slope = np.concatenate(slope)[order][kept]
        new = np.ones(kept.size, dtype=bool)
        new[1:] = slope[1:] != slope[:-1]       # nan at each node's start
        end = kept[np.append(new[1:], True)]
        offsets = np.zeros(self.i.shape[1] + 1, dtype=np.intp)
        np.cumsum(np.bincount(node[end], minlength=self.i.shape[1]), out=offsets[1:])
        X, S = np.full(end.size + 1, math.nan), np.full(end.size + 1, math.nan)
        np.take(m, end, out=X[:-1])
        np.compress(new, slope, out=S[:-1])
        return offsets, X, S, np.concatenate(split)[order][end]


def _lift(S: np.ndarray) -> None:
    """Raise each slope to the running maximum of its child's slopes, in
    place, so that every merge sorts sequences that are sorted already (the
    merge's index arithmetic counts on it).  F_c is convex, so this changes
    a slope only where rounding made one dip; the nan at each child's first
    breakpoint keeps one child from lifting the next."""
    while (dip := np.flatnonzero(S[1:] < S[:-1])).size:
        S[dip + 1] = S[dip]


def _shift(s: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """s plus each column's rate (the first axis of ``rates``) in turn: a
    direction's slope, summed in column order."""
    for rate in rates:
        s = s + rate
    return s


def _ragged(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """first[v], first[v] + 1, ..., first[v] + counts[v] - 1, for v in turn."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - counts - first, counts)
