"""Node-level kernel behind every unfairness functional and its gradient.

An adapted process at time k is one row per level-k node,
``values[k][::b**(K-k)]``.  A batch of weight rows Q (G, P) enters through
its node weights W_K = Q, W_k = W_{k+1}.reshape(G, -1, b).sum(-1).  The
forward fold A_k = sum_children W_{k+1} [g_{k+1}, A_{k+1}] / W_k gives every
E[g_l | F_k], l > k, in O(P) work and about K numpy calls, where a path
array per (k, l) pair costs O(K^2 P).  Each step is
``lattice._weighted_mean``, as in ``cond_exp``, over the stacked children
[g_{k+1}, A_{k+1}] (g_{k+1} alone, the constant node array, where the
horizon ends at k + 1): constants pass through exactly, zero-weight nodes
average to 0, and a column's floats do not depend on what is stacked beside
it, so a martingale built by ``cond_exp`` has A_k = g_k at every depth.  On
a binary lattice a scalar process's step with one later column would stack
two entries per child, and numpy's passes over so short a trailing axis are
slow; there g_{k+1} and A_{k+1} are averaged in two calls (at K = 2 and
65536 rows, 2.6-3.0 ms against 4.8-5.8 ms stacked on row-major weights and
0.86-0.95 ms against 2.5-2.6 ms on column-major ones; 2-vCPU Xeon, numpy
2.4).  With longer axes the second call costs more than the copies it saves.

The kernel follows the layout of the weights.  The descent's batches are
row-major and a few rows tall.  An oracle block is column-major: at most
BLOCK_ELEMS // P rows (16384 at P = 4) of at most six paths, so a
row-major pass would run one loop of 1-4 entries per row.  Where the row axis of W_K is the fastest
(``_rows_last``; a single row never is), the fold's buffers put it fastest
too and every pass runs one long loop along the rows.  The floats are those
of the row-major block: the fold is elementwise, numpy adds up to seven
children in order in either layout (eight or more it adds pairwise on a
row-major row; no column-major block has so many), the floor's moments add
the nodes in turn in either layout, and the value sums of m and n go
through ``_node_sum``.

Each functional is F = sum_k sum_nodes W_k f_k(A_k).  Below a level-k node
dA_kl/dq_pi = (g_l(pi) - A_kl) / W_k, whose 1/W_k cancels the W_k in front,
so with D_k = df_k/dA_k the adjoint (Griewank & Walther, *Evaluating
Derivatives*) is

    dF/dq_pi = sum_k [f_k - D_k . A_k](node_k(pi))
               + sum_l (sum_{k<l} D_kl(node_k(pi))) . g_l(pi),

one O(P) top-down sweep in :meth:`Tree.reverse`.  The floor's Jacobian is
that sweep without the D terms, one row per weight row and pair: the
node rates of each pair's integral summed down to the paths.

A gradient needs the fold at its point, and the evaluation of that point
has just made it, so the forward pass at a batch of rows is kept as the
rows' :class:`Tape`: the node weights W, the fold's A and the floor's
moments where there is a floor.  The value and the gradient at a point
both read its tape, and neither writes over it, so a point that was
evaluated is differentiated without folding again.  A tape lives for one
trial of the descent: the rows that accept a trial are differentiated
from its tape at once, taken from it where only some accepted.  The
objective hands the kernel its rows C-contiguous, so the adjoint, whose
einsums add in an order that follows the layout, gives the same floats
whatever the caller's layout.  m's adjoint keeps its deviations from A in
one buffer, so each of its elementwise passes runs once over every level,
and only the einsums that sum a node go level by level.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .lattice import LatticeProcess, _parent_weights, _weighted_mean

# Weight entries per row block when a large batch (the oracle grid) is
# evaluated piecewise; bounds the kernel's working memory and keeps a block's
# buffers near the cache.  m at p = 2 on a column-major P = 4 oracle block
# costs 19 ns a candidate at 16200 rows, against 21-40 ns at 65523 rows and
# 26-27 ns at 4082 (best of 20), and the 20 oracle grids of perfbench's
# oracle_small take 0.28 s in blocks of 1 << 16 entries, 0.34 s in blocks
# of 1 << 18 and 0.39-0.43 s in blocks of 1 << 14 (best of 3); one core of
# a 2-vCPU Xeon with 4 MiB of L2, numpy 2.4.
BLOCK_ELEMS = 1 << 16


def row_blocks(rows: int, width: int) -> list[slice]:
    """Slices of at least one row and at most BLOCK_ELEMS entries of ``width``."""
    step = max(1, BLOCK_ELEMS // width)
    return [slice(s, min(s + step, rows)) for s in range(0, rows, step)]


def _rows_last(Q: np.ndarray) -> bool:
    """Whether the row axis of a weight block (G, P) is its fastest, as in a
    column-major block of more than one row (one row's stride is arbitrary)."""
    return len(Q) > 1 and Q.strides[0] < Q.strides[1]


def _empty(shape: tuple, rows_last: bool) -> np.ndarray:
    """An array of ``shape``; with ``rows_last`` its first (row) axis is the
    fastest and the other axes keep their row-major order, so that the
    fold's reshapes stay views."""
    return np.moveaxis(np.empty(shape[1:] + shape[:1]), -1, 0) if rows_last else np.empty(shape)


def _node_sum(w: np.ndarray, x: np.ndarray, rows_last: bool) -> np.ndarray:
    """Per row, the sum over nodes v of w[:, v] times the sum of x[:, v], with
    the floats np.einsum gives a row-major block.  einsum's order of addition
    follows the layout: on a row-major row it multiplies each node's entry
    sum by the node's weight and adds the nodes in turn, but sums more than
    two entries, or more than two single-entry nodes, by SIMD lane; on a
    rows-last block it adds every product in turn.  A rows-last block of at
    most two nodes of at most two entries is summed here in the row-major
    order, each step one pass along the rows; any other block goes to einsum
    row-major."""
    G, v = w.shape
    x = x.reshape(G, v, -1)
    if not rows_last or v > 2 or x.shape[2] > 2:
        return np.einsum("gv,gvc->g", np.ascontiguousarray(w), np.ascontiguousarray(x))
    s = x[:, :, 0] + x[:, :, 1] if x.shape[2] == 2 else x[:, :, 0]
    return w[:, 0] * s[:, 0] + w[:, 1] * s[:, 1] if v == 2 else w[:, 0] * s[:, 0]


def _levels(shapes: list[tuple], flat: np.ndarray | None = None
            ) -> tuple[np.ndarray, list[np.ndarray]]:
    """One flat buffer (``flat``, or a new one) holding a row-major array of
    each of ``shapes`` in turn, and the views of those arrays."""
    ends = [0]
    for shape in shapes:
        ends.append(ends[-1] + math.prod(shape))
    if flat is None:
        flat = np.empty(ends[-1])
    return flat, [flat[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes)]


class Tree:
    """Node arrays of one adapted process."""

    def __init__(self, g: LatticeProcess):
        b, K = g.lattice.branching, g.lattice.depth
        self.b, self.K, self.dt, self.n, self.d = b, K, g.lattice.dt, g.n, g.d
        self.nodes = [g.values[k][:: b ** (K - k)] for k in range(K + 1)]
        # the first time k < K with a value <= 0, where n's drift rate is undefined
        self.nonpositive = next((k for k in range(K) if (self.nodes[k] <= 0.0).any()), None)

    def node_weights(self, Q: np.ndarray) -> list[np.ndarray]:
        """[W_0, ..., W_K], W_k of shape (G, b^k), for weight rows (or one vector) Q."""
        W = [np.atleast_2d(Q)]
        for _ in range(self.K):
            W.append(_parent_weights(W[-1], self.b))
        return W[::-1]

    def averages(self, W: list[np.ndarray], horizon: int) -> list[np.ndarray]:
        """A[k][:, :, j] = E[g_{k+1+j} | F_k] at the level-k nodes, shape
        (G, b^k, h, n*d) with h = min(horizon, K - k)."""
        b, K, G = self.b, self.K, W[0].shape[0]
        positive, rows_last = bool((W[K] > 0.0).all()), _rows_last(W[K])
        A: list = [None] * K
        for k in range(K - 1, -1, -1):
            h, child = min(horizon, K - k), self.nodes[k + 1]
            M = child.shape[1]
            w = W[k + 1].reshape(G, b ** k, b)
            Wk = W[k] if positive else np.where(W[k] > 0.0, W[k], 1.0)
            if h == 1:
                X = child.reshape(1, b ** k, b, M)
            elif b == 2 and h * M == 2:  # averaged apart: see the module docstring
                A[k] = _empty((G, b ** k, 2, 1), rows_last)
                A[k][:, :, 0] = _weighted_mean(w, child.reshape(1, b ** k, 2, 1), Wk)
                A[k][:, :, 1] = _weighted_mean(w, A[k + 1][:, :, :1].reshape(G, b ** k, 2, 1), Wk)
                continue
            else:
                X = _empty((G, b ** (k + 1), h, M), rows_last)
                X[:, :, 0], X[:, :, 1:] = child, A[k + 1][:, :, :h - 1]
                X = X.reshape(G, b ** k, b, h * M)
            A[k] = _weighted_mean(w, X, Wk).reshape(G, b ** k, h, M)
        if not positive:  # the fold kept weightless nodes at their first child's value
            for k in range(K):
                A[k][W[k] <= 0.0] = 0.0
        return A

    def reverse(self, terms: list, D: list[np.ndarray] | None = None) -> np.ndarray:
        """Per path (G, P): the sum over k of terms[k] (G, b^k; a scalar for
        k > 0) at its level-k node plus sum_l (sum_{k<l} D[k][:, :, l-k-1]) . g_l.
        D[k] is (G, b^k, h_k, n*d) with h_{k+1} = h_k - 1 wherever h_k > 1 (m's
        every horizon; n's h_k = 1); the running sum of D goes down to the
        children in arrays of its own, leaving D as it was, and its l-th
        entry closes at level l.  With D None there are no closing terms and
        every terms[k] is an array: each level adds its parent's sum to its
        own terms, as the floor's Jacobian sums its node rates."""
        b, K = self.b, self.K
        acc, carry = terms[0], None if D is None else D[0]
        for k in range(1, K + 1):
            G, parents = acc.shape
            if D is None:
                acc = (acc[:, :, None] + terms[k].reshape(G, parents, b)).reshape(G, -1)
                continue
            closing = np.einsum("gpm,pcm->gpc", carry[:, :, 0],
                                self.nodes[k].reshape(parents, b, -1))
            acc = (acc[:, :, None] + closing).reshape(G, parents * b) + terms[k]
            if k < K:
                later, carry = carry[:, :, None, 1:], D[k]
                if later.shape[3]:
                    carry = (carry.reshape((G, parents, b) + carry.shape[2:]) + later
                             ).reshape(carry.shape)
        return acc

    def m(self, W: list[np.ndarray], p: float, adjoint: bool = False,
          A: list[np.ndarray] | None = None):
        """The m-functional per weight row (G,), or its (terms, D) for
        :meth:`reverse` with ``adjoint``.  A is the fold at W (a tape's),
        folded here where None; only the value pass of a fold made here
        writes its deviations over the fold.  The adjoint keeps every
        level's deviations in one row-major buffer, so each of its
        elementwise passes runs once over all levels."""
        own = A is None and not adjoint
        if A is None:
            A = self.averages(W, self.K)
        dt2, rows_last = self.dt * self.dt, _rows_last(W[-1])
        shapes = [a.shape for a in A]
        flat, dev = (None, A) if own else _levels(shapes)
        for k in range(self.K):
            np.subtract(self.nodes[k][:, None, :], A[k], out=dev[k])
        norms = [s[:-1] + (self.n,) for s in shapes]
        if not adjoint:
            total = 0.0
            for w, y in zip(W, dev):
                nrm = np.abs(y, out=y) if self.d == 1 else np.sqrt(
                    np.square(y, out=y).reshape(y.shape[:-1] + (self.n, self.d)).sum(axis=-1))
                nrm **= p
                total = total + _node_sum(w, nrm, rows_last)
            return dt2 * total
        if self.d == 1:
            nrm = np.abs(flat)
        else:
            nrm, x = _levels(norms)
            for k in range(self.K):
                np.sqrt(np.square(dev[k]).reshape(norms[k] + (self.d,)).sum(axis=-1), out=x[k])
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = np.where(nrm > 0.0, (-dt2 * p) * nrm ** (p - 2.0), 0.0)
        if self.d == 1:
            D = _levels(shapes, coef * flat)[1]
        else:
            D = [np.repeat(c, self.d, axis=-1) * y
                 for c, y in zip(_levels(norms, coef)[1], dev)]
        terms = [dt2 * np.einsum("gvhe->gv", y) - np.einsum("gvhm,gvhm->gv", z, a)
                 for y, z, a in zip(_levels(norms, nrm ** p)[1], D, A)]
        return terms + [0.0], D

    def n_value(self, W: list[np.ndarray], adjoint: bool = False,
                A: list[np.ndarray] | None = None):
        """The n-functional per weight row (G,), or its (terms, D) for
        :meth:`reverse` with ``adjoint`` (subgradient 0 at drift kinks).  A
        is the fold at W, of horizon 1 at least, folded here where None."""
        if self.nonpositive is not None:
            raise DomainError(
                f"drift rate needs strictly positive values at time {self.nonpositive}")
        if A is None:
            A = self.averages(W, 1)
        rows_last = _rows_last(W[-1])
        total, terms, D = 0.0, [], []
        for k in range(self.K):
            a, g = A[k][:, :, 0], self.nodes[k]
            rate = (a - g) / (self.dt * g)
            if not adjoint:
                total = total + _node_sum(W[k], np.abs(rate), rows_last)
                continue
            slope = np.sign(rate) / g
            terms.append(self.dt * np.abs(rate).sum(axis=2) - np.einsum("gvm,gvm->gv", slope, a))
            D.append(slope[:, :, None])
        return (terms + [0.0], D) if adjoint else self.dt * total

    def inner(self, W: list[np.ndarray], split: int) -> np.ndarray:
        """The p = 2 pairing of components [:split] with [split:], per row."""
        A = self.averages(W, self.K)
        devs = [np.split(self.nodes[k][:, None, :] - A[k], [split], axis=-1) for k in range(self.K)]
        return self.dt * self.dt * sum(np.einsum("gv,gvhm,gvhm->g", w, *dev)
                                       for w, dev in zip(W, devs))


class Floor:
    """The correlation floor on pairs of scalar exchanges: the integrals
    sum_k dt Cov_q / E_q|g_i g_j| under raw (unnormalized) weights and
    their gradients (weighted adjoint terms, or every pair's apart).  The
    solver, the oracle, the constraint report and ``correlation_integral``
    read the same all-pairs pass.  The products are einsums, not BLAS matmuls,
    so a row's result does not depend on how many rows share the call."""

    def __init__(self, tree: Tree, pairs: list[tuple[int, int]]):
        self.tree, self.pairs = tree, pairs
        I, J = [i for i, _ in pairs], [j for _, j in pairs]
        # per level k >= 1 the node columns [g_i, g_j, g_i g_j, |g_i g_j|] per pair
        self.features = [None] + [np.concatenate((x[:, I], x[:, J], x[:, I] * x[:, J],
                                                  np.abs(x[:, I] * x[:, J])), axis=1)
                                  for x in tree.nodes[1:]]

    def moments(self, W: list[np.ndarray], pair: int | None = None
                ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Integrals (G, pairs) and per level k >= 1 (G, 4, pairs): E g_i, E g_j, cov, E|g_i g_j|.
        Raises where a pair's E|g_i g_j| vanishes, or only where pair
        ``pair``'s does (an index into the pairs); the other pairs then
        compute as they would beside it, but may divide by zero."""
        checked = slice(None) if pair is None else slice(pair, pair + 1)
        total, parts = 0.0, []
        for k in range(1, self.tree.K + 1):
            E = np.einsum("gv,vf->gf", W[k], self.features[k]).reshape(len(W[k]), 4, -1)
            scale = E[:, 3]
            vanished = scale[:, checked] <= 0.0
            if vanished.any():
                i, j = self.pairs[checked][int(np.argmax(vanished.any(axis=0)))]
                raise DomainError(f"E|g_{i} g_{j}| vanishes at time {k}; floor undefined")
            E[:, 2] -= E[:, 0] * E[:, 1]   # E g_i g_j to the covariance
            total = total + self.tree.dt * E[:, 2] / scale
            parts.append(E)
        return total, parts

    def _rates(self, moments: tuple) -> list:
        """Per level k >= 1, the derivative of each pair's integral with
        respect to the level-k node weights (G, pairs, b^k), from the
        (integrals, parts) of :meth:`moments`."""
        out, J = [], len(self.pairs)
        for k, level in enumerate(moments[1], start=1):
            ex, ey, cov, scale = level.swapaxes(0, 1)
            ws = self.tree.dt / scale
            coef = np.stack((-ws * ey, -ws * ex, ws, -ws * cov / scale), axis=1)
            out.append(np.einsum("gfj,vfj->gjv", coef, self.features[k].reshape(-1, 4, J)))
        return out

    def terms(self, moments: tuple, weight: np.ndarray) -> list:
        """Node terms of sum_j weight_j * integral_j for :meth:`Tree.reverse`,
        with ``weight`` (G, pairs) per row and pair."""
        return [0.0] + [np.einsum("gj,gjv->gv", weight, rate) for rate in self._rates(moments)]

    def jacobian(self, moments: tuple) -> np.ndarray:
        """The gradient of each pair's integral in the path weights,
        (G, pairs, P): every level's node rates summed down to the paths by
        :meth:`Tree.reverse`, one row per row and pair."""
        rates = self._rates(moments)
        G, J = rates[0].shape[:2]
        # level 0 adds -0.0, which leaves every float, and the sign of a zero, as it is
        terms = [np.full((G * J, 1), -0.0)] + [r.reshape(G * J, -1) for r in rates]
        return self.tree.reverse(terms).reshape(G, J, -1)


class Tape(NamedTuple):
    """The forward pass at a batch of weight rows, kept for the value and
    the adjoint: the node weights W, the fold's averages A and, where there
    is a floor, its :meth:`Floor.moments` (integrals, per-level parts).
    Every array has the batch's rows on axis 0, so a tape's rows can be
    taken and stored apart."""

    W: list[np.ndarray]
    A: list[np.ndarray]
    moments: tuple | None

    def take(self, rows) -> Tape:
        """The tape of the rows ``rows``."""
        moments = None if self.moments is None else (
            self.moments[0][rows], [x[rows] for x in self.moments[1]])
        return Tape([x[rows] for x in self.W], [x[rows] for x in self.A], moments)
