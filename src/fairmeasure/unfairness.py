"""Unfairness functionals: how far a process is from being a martingale.

Two notions are implemented, both vanishing exactly on martingales:

* ``unfairness_m`` -- the incomplete-market notion: the L^p-aggregated
  deviation of the process from its own conditional expectations, summed
  over all ordered time pairs.  Its p-th root is 1-homogeneous and, at
  p = 2, comes from the inner product ``inner_product_m``.
* ``unfairness_n`` -- the complete-market notion: the expected absolute
  drift rate, normalized by the current level.  Invariant under scaling
  the process by positive constants.

On a finite lattice the drift rate in ``unfairness_n`` is a one-step
forward difference quotient and always exists; the +infinity convention
for processes without a drift derivative belongs to the continuum limit
only and never arises here.  Likewise every lattice process has finite
unfairness, so the space carrying the p = 2 inner product is simply the
set of all lattice processes; no membership check is needed.

All of them run on the node kernel in ``_tree``.  On P paths a value costs
O(P), and so does its exact gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._tree import Tree
from .errors import ParameterError
from .lattice import LatticeProcess, Measure, check_same_lattice

__all__ = [
    "UnfairnessConfig", "MartingaleCheck",
    "unfairness_m", "unfairness_n", "inner_product_m", "is_martingale",
]


@dataclass(frozen=True)
class UnfairnessConfig:
    """Finite exponent p > 0 of the m functional."""

    p: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.p < math.inf:
            raise ParameterError(f"exponent p must be finite and > 0, got {self.p}")


class MartingaleCheck(NamedTuple):
    ok: bool
    max_deviation: float


def unfairness_m(Q: Measure, g: LatticeProcess,
                 cfg: UnfairnessConfig = UnfairnessConfig()) -> float:
    """L^p deviation of g from its conditional expectations under Q.

    Discretizes the double time integral as a left-endpoint sum over the
    earlier time k and a sum over later times l >= k, each weighted dt; the
    l = k term vanishes identically.  Per exchange the deviation is measured
    in the Euclidean norm over its d components.  Nonnegative, and zero
    exactly when g is a Q-martingale on the lattice.
    """
    check_same_lattice(Q, g)
    tree = Tree(g)
    return float(tree.m(tree.node_weights(Q.weights), cfg.p)[0])


def unfairness_n(Q: Measure, g: LatticeProcess) -> float:
    """Expected absolute one-step drift rate of g under Q.

    Componentwise |E_Q[g(k+1)|F_k] - g(k)| / (dt * g(k)), averaged under Q
    and summed over the time grid with weight dt.  Requires g > 0 wherever
    the normalization divides.  Unchanged when g is scaled by a positive
    constant, and zero exactly for Q-martingales.
    """
    check_same_lattice(Q, g)
    tree = Tree(g)
    return float(tree.n_value(tree.node_weights(Q.weights))[0])


def inner_product_m(Q: Measure, x: LatticeProcess, y: LatticeProcess) -> float:
    """The bilinear form polarizing unfairness_m at p = 2.

    Pairs the deviation vectors of x and y from their conditional
    expectations over all ordered time pairs; <x, x> equals
    unfairness_m(Q, x, p=2), and the form vanishes whenever either argument
    is a Q-martingale.
    """
    check_same_lattice(Q, x)
    check_same_lattice(Q, y)
    if (x.n, x.d) != (y.n, y.d):
        raise ParameterError("processes have different exchange layouts")
    tree = Tree(LatticeProcess(x.lattice, 2 * x.n, x.d,
                               np.concatenate((x.values, y.values), axis=2)))
    return float(tree.inner(tree.node_weights(Q.weights), x.n_components)[0])


def is_martingale(Q: Measure, x: LatticeProcess, tol: float = 1e-9) -> MartingaleCheck:
    """One-step martingale test: max |x(k) - E_Q[x(k+1)|F_k]| <= tol.

    The one-step check suffices by the tower property of conditional
    expectations.  Returns the verdict and the largest deviation found
    (over times, components and the nodes of positive Q-weight: a null
    node's x is free, as it is in m and n).
    """
    check_same_lattice(Q, x)
    tree = Tree(x)
    W = tree.node_weights(Q.weights)
    A = tree.averages(W, 1)
    worst = max(float(np.abs(tree.nodes[k][:, None] - A[k])[W[k] > 0.0].max(initial=0.0))
                for k in range(tree.K))
    return MartingaleCheck(ok=worst <= tol, max_deviation=worst)
