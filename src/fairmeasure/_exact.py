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

A level walks all its nodes in lock step, in rounds of one run and at most
one event per node.  One stable sort keyed by (node, key) merges the runs
of every node, the key being the shifted slope off the rays and the ray
time on one.  Each node whose run stopped at a step then takes its event
from the arrays of that merge: off the rays the event is the step that
stopped the run, cut at the first ray it reaches (the crossings are those
the stop test computed); on a ray it is the step rule above, fed the
slopes of the two directions that the stop test compared.  Only the nodes
whose signs changed have what the signs fix computed again, and a node
leaves the level's arrays once both its children are walked, so each round
takes every node still walking, and only those.  So a level costs a Python
iteration per event of its busiest node (2 to 4 on most levels of the
benchmark's GBM, up to 32 next to the root), not one per step.  A round
looks ahead a window of each child's breakpoints, at least ``_WINDOW`` and
twice the node's last run; a run cut at the end of its window goes on in
the next round.  Nodes are independent within a round, and the merge's
sort is stable and keyed by node first, so which nodes share a round
changes no node's order, runs or events.

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
    while walk.ids.size:
        walk.round()
    return walk.pieces()


class _Walk:
    """The walk state of the nodes of one level that still walk, ``ids``;
    a node leaves every array once both its children are walked.  Axis 1
    of ``i`` and ``e`` is the child, c1 then c2: its last breakpoint reached
    and its last breakpoint.  ``sgn`` (cols, nodes) holds the side of each
    column's ray, as -1.0, 0.0 or 1.0, and ``on`` whether the split sits on
    a ray.  ``per`` (fields, node, child) holds, for each child c of each
    node: the other child's mass; c's coefficients (a_e or b_e); and what
    the signs fix, in one block: the ray fractions of c and of the other
    child, the rate T of the terms off the ray along it, per term column
    the rates towards c and towards the other child, and ``toward``: where
    a step of c heads for the column's ray, minus the other child's
    coefficient, else nan.  On every flattened (node, child) axis the
    children of a node are adjacent: child k's sibling is k ^ 1."""

    OTHER, COEF = 0, 1

    def __init__(self, X, S, start, A, B):
        _lift(S)
        nodes, cols = A.shape
        # the fields that the signs fix follow the coefficients
        self.R_OWN, self.R_OTHER, self.T = 1 + cols, 2 + cols, 3 + cols
        self.RATE, self.RATE_OTHER, self.TOWARD = 4 + cols, 4 + 2 * cols, 4 + 3 * cols
        self.X, self.S, self.nodes = X, S, nodes
        self.i = start[:-1].reshape(nodes, 2).copy()
        self.e = start[1:].reshape(nodes, 2) - 1
        x1, x2 = X[self.i].T
        self.per = np.empty((4 + 4 * cols, nodes, 2))
        self.per[self.OTHER] = np.column_stack((x2, x1))
        self.per[self.COEF:self.R_OWN] = np.stack((A.T, B.T), axis=-1)
        term = (A != 0.0) | (B != 0.0)
        r = A * x1[:, None] + B * x2[:, None]
        # a column that is no term counts as off its ray, with rates 0
        self.sgn = np.where(term, np.sign(r), 1.0).T.copy()
        self.on = np.empty(nodes, dtype=bool)
        self.cap = (self.e - self.i + 1).sum(axis=1) * (term.sum(axis=1) + 2)
        self.steps = np.zeros(nodes, dtype=np.intp)
        self.window = np.full(nodes, _WINDOW)
        self.ids = np.arange(nodes)
        self._rays(self.per, self.sgn, self.on, slice(None))
        self.out = [(self.ids, x1 + x2, np.full(nodes, math.nan), x1)]
        self._keep((self.i < self.e).any(axis=1))

    def _keep(self, live: np.ndarray) -> None:
        """Drop the nodes that are not ``live`` from every array."""
        if not live.all():
            for name in ("i", "e", "cap", "steps", "window", "ids", "on"):
                setattr(self, name, getattr(self, name)[live])
            # a round reshapes per, so it stays C-contiguous
            self.per, self.sgn = np.ascontiguousarray(self.per[:, live]), self.sgn[:, live]

    def _rays(self, per: np.ndarray, sgn: np.ndarray, on: np.ndarray, ev) -> None:
        """Set what the signs fix in ``per`` and ``on``, for the nodes ``ev``
        (an index of the node axis of ``per`` and ``sgn``), every field of
        both children in one write."""
        s, coef = sgn[:, ev, None], per[self.COEF:self.R_OWN, ev]
        zero, sc = s == 0.0, s * coef
        # the ray: the last column whose split sits on it
        ray = 0.0
        for e in range(len(coef)):
            ray = np.where(zero[e], coef[e], ray)
        r = ray[:, ::-1] / (ray[:, ::-1] - ray)
        # T sums the terms off the ray in column order
        T = np.add.reduce(np.where(zero, 0.0, s * (coef * r).sum(axis=2, keepdims=True)),
                          axis=0, initial=0.0)
        rate = np.where(zero, np.abs(coef), sc)
        per[self.R_OWN:, ev] = np.concatenate((
            r[None], r[None, :, ::-1], T.repeat(2, axis=1)[None], rate, rate[:, :, ::-1],
            np.where(sc < 0.0, -coef[:, :, ::-1], math.nan)))
        on[ev] = zero.any(axis=0)[:, 0]

    def round(self) -> None:
        """One round for every node still walking: each takes its run, the
        steps up to its next event or to the end of its window of child
        breakpoints, and then the event, if its run stopped at one.  The
        nodes on a ray and those off the rays merge in one sort."""
        X, S, cols = self.X, self.S, self.sgn.shape[0]
        per, sgn, on, ids, n = self.per, self.sgn, self.on, self.ids, self.ids.size
        # per child, c1 and c2 of each node in turn: fields, breakpoints, masses
        flat, at, last_bp = per.reshape(len(per), 2 * n), self.i.reshape(-1), self.e.reshape(-1)
        mass = flat[self.OTHER]   # child k's mass is mass[k ^ 1]
        left = last_bp - at
        count = np.minimum(left, self.window.repeat(2))
        seg = np.arange(2 * n).repeat(count)
        # each window's breakpoints in turn, from the child's next one
        idx = np.arange(seg.size) + (at + 1 + count - count.cumsum())[seg]
        # off the rays a child's key is its slope plus its rates; on a ray its
        # ray time, the breakpoint over its share of the ray
        rays, offs = bool(on.any()), not on.all()
        if offs:
            key = _shift(S[idx], flat[self.RATE:self.RATE_OTHER][:, seg])
        if rays:
            t = X[idx] / flat[self.R_OWN][seg]
            key = np.where(on.repeat(2)[seg], t, key) if offs else t
        # each child's window is sorted by (node, key) already, so a stable
        # sort of both merges them, c1 first; the child fields a run reads
        # are gathered once, in merge order
        v = seg >> 1
        z = np.empty(seg.size, dtype=complex)
        z.real, z.imag = v, key
        order = z.argsort(kind="stable")
        seg, idx, key, v = seg[order], idx[order], key[order], v[order]
        reach, s_own = X[idx], S[idx]
        # the last breakpoint of a cut window ends the run before it is reached
        cut = idx == np.where(left > count, at + count, -1)[seg]
        size = count[0::2] + count[1::2]
        end = size.cumsum()
        first = end - size
        pos = np.arange(v.size) - first[v]
        # the other child's last breakpoint: its start plus its steps before
        # this one in the round, which are all the node's steps less the own
        jo = (at[0::2] + at[1::2] + 1)[v] + pos - idx
        # the other child stays where it was, or on a ray moves to its share
        # of the ray point
        other = np.maximum(mass[seg], X[jo])
        slope = key
        if offs:
            # the run lasts until a step reaches a ray before its breakpoint
            cross = [flat[self.TOWARD + c][seg] * other / flat[self.COEF + c][seg]
                     for c in range(cols)]
            stop = cross[0] <= reach
            for c in range(1, cols):
                stop |= cross[c] <= reach
        if rays:
            # the run lasts while the ray is cheaper than either child (past a
            # child's last breakpoint its slope is nan)
            r_own, r_other, T, *rates = np.take(flat[self.R_OWN:self.TOWARD], seg, axis=1)
            s_oth = S[jo + 1]
            on_ray = r_own * s_own + r_other * s_oth + T
            d_own, d_oth = _shift(s_own, rates[:cols]), _shift(s_oth, rates[cols:])
            leave = ~((on_ray < d_own) & (on_ray < d_oth))
            along = np.maximum(np.minimum(r_other * key, X[jo + 1]), other)
            if offs:
                ray = on[v]
                stop, slope, other = (np.where(ray, leave, stop), np.where(ray, on_ray, key),
                                      np.where(ray, along, other))
            else:
                stop, slope, other = leave, on_ray, along
        # each node's run: its steps before its first stop
        stops = np.empty(v.size + 1, dtype=bool)
        np.bitwise_or(stop, cut, out=stops[:-1])
        stops[-1] = True
        stops = stops.nonzero()[0]
        took = np.minimum(stops[stops.searchsorted(first)], end) - first
        run = pos < took[v]
        record = [(ids[v[run]], (reach + other)[run], slope[run],
                   np.where(seg & 1, other, reach)[run])]
        # the moving child of each node's last step and its sibling
        last = (first + took - 1)[took.nonzero()[0]]
        k = seg[last]
        at[k], at[k ^ 1] = idx[last], jo[last]
        mass[k ^ 1], mass[k] = reach[last], other[last]
        self.window = np.maximum(_WINDOW, 2 * took)
        # the events: each node whose run stopped at a step, not at the end
        # of a window
        ev = (took < size).nonzero()[0]
        j = (first + took)[ev]
        ev, j = ev[~cut[j]], j[~cut[j]]
        if ev.size:
            took[ev] += 1
            ray = on[ev]
            if offs:
                # off the rays the event is the step that stopped the run, up
                # to the first ray it reaches; only the moving child moves
                off, jf = (ev[~ray], j[~ray]) if rays else (ev, j)
                k = seg[jf]
                nxt = reach[jf]
                for c in range(cols):
                    nxt = np.fmin(nxt, cross[c][jf])
                for c in range(cols):
                    sgn[c, off[cross[c][jf] == nxt]] = 0.0
                mass[k ^ 1] = np.maximum(nxt, mass[k ^ 1])
                at[k] = idx[jf] - (nxt < reach[jf])
                record.append((ids[off], mass[2 * off + 1] + mass[2 * off], key[jf],
                               mass[2 * off + 1]))
            if rays:
                record.append(self._leave(flat, sgn, at, last_bp, ids, ev[ray], j[ray],
                                          (seg, reach, jo, d_own, d_oth)))
            # every event changes a sign
            self._rays(per, sgn, on, ev if ev.size < n else slice(None))
        self.out += record
        self.steps += took
        live = at < last_bp
        live = live[0::2] | live[1::2]
        if (self.steps[live] >= self.cap[live]).any():
            raise RuntimeError("exact walk passed its step cap")
        self._keep(live)

    def _leave(self, flat, sgn, at, last_bp, ids, ev, j, merge) -> tuple:
        """The events of the nodes ``ev`` on a ray, from the entries ``j`` at
        which their runs stopped in the round's ``merge`` (its children,
        breakpoints, other children's last breakpoints and the slopes of the
        two directions): one step off the split by one child, the cheaper of
        the two, c1 on a tie.  The step ends at the child's next breakpoint
        or at the first ray it meets; it leaves the rays the split sat on.
        Returns the step's record."""
        seg, reach, jo, d_own, d_oth = merge
        mass = flat[self.OTHER]
        k = seg[j]                        # the child of the entry, and its sibling k ^ 1
        nb = jo[j] + 1                    # the sibling's next breakpoint
        has = nb <= last_bp[k ^ 1]
        mine, theirs = d_own[j], np.where(has, d_oth[j], _INF)
        c1 = (k & 1) == 0
        step = np.where(c1, mine <= theirs, theirs <= mine) == c1   # the entry's child moves
        k = np.where(step, k, k ^ 1)      # the moving child
        here, there, go = mass[k ^ 1], mass[k], step | has
        # a child with no piece left (reached only through nan slopes) stays put
        target = np.where(go, np.where(step, reach[j], self.X[nb]), here)
        # each column's ray that the step heads for, and where it meets it
        coef = flat[self.COEF:self.R_OWN]
        s, own, other = sgn[:, ev], coef[:, k], coef[:, k ^ 1]
        heading = (s != 0.0) & (s * own < 0.0)
        cross = np.where(heading, -other * there / own, _INF)
        nxt = np.minimum(target, cross.min(axis=0))
        sgn[:, ev] = np.where(heading & (cross == nxt), 0.0,
                              np.where(s == 0.0, np.where(own > 0.0, 1.0, -1.0), s))
        at[k] += go & (nxt >= target)
        mass[k ^ 1] = np.maximum(nxt, here)
        m1 = mass[2 * ev + 1]
        return ids[ev], m1 + mass[2 * ev], np.where(step, mine, theirs), m1

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
        offsets = np.zeros(self.nodes + 1, dtype=np.intp)
        np.cumsum(np.bincount(node[end], minlength=self.nodes), out=offsets[1:])
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
