"""Finite adapted path lattices.

A lattice is the product path space {0..b-1}^K over the time grid
{0, 1/K, ..., 1}.  Paths are enumerated lexicographically by their branch
digits, so the partition of paths sharing a prefix of length k consists of
contiguous index ranges of size b^(K-k).  All measures, densities and
processes in this package are path-indexed arrays aligned to that order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import EquivalenceViolationError, ParameterError, SizeBudgetError

DEFAULT_PATH_BUDGET = 1 << 20
NORMALIZATION_TOL = 1e-12
_DIGITS = "0123456789"  # path-label alphabet: digit d names branch d


def _as_count(name: str, val, least: int, most: int | None = None) -> int:
    """``val`` as a Python int, under the rule every count shares: an
    integral number that is not a bool, in ``least``..``most``."""
    if (isinstance(val, Integral) and not isinstance(val, bool)
            and least <= val and (most is None or val <= most)):
        return int(val)
    bound = f">= {least}" if most is None else f"in {least}..{most}"
    raise ParameterError(f"{name} must be an integer {bound}, got {val!r}")


@dataclass(frozen=True)
class AdaptedLattice:
    """Product path space with the prefix filtration on [0, 1].

    branching: number of children per node (size of the one-step alphabet).
    depth:     number of time steps K; the grid spacing is dt = 1/K.
    """

    branching: int
    depth: int

    def __post_init__(self):
        for name, least in (("branching", 2), ("depth", 1)):
            object.__setattr__(self, name, _as_count(name, getattr(self, name), least))

    @property
    def n_paths(self) -> int:
        return self.branching ** self.depth

    @property
    def dt(self) -> float:
        return 1.0 / self.depth

    @cached_property
    def digits(self) -> np.ndarray:
        """(n_paths, depth) array of branch digits, lexicographic path order."""
        b, K = self.branching, self.depth
        idx = np.arange(self.n_paths)
        cols = [(idx // b ** (K - 1 - j)) % b for j in range(K)]
        out = np.stack(cols, axis=1).astype(np.int64)
        out.setflags(write=False)
        return out

    def block_size(self, k: int) -> int:
        return self.branching ** (self.depth - self._check_time(k))

    def n_blocks(self, k: int) -> int:
        return self.branching ** self._check_time(k)

    def partition(self, k: int) -> list[range]:
        """Blocks of paths sharing a digit prefix of length k, as index ranges."""
        bs = self.block_size(k)
        return [range(j * bs, (j + 1) * bs) for j in range(self.n_blocks(k))]

    def path_label(self, idx: int) -> str:
        """Base-b digit string of a path (serialization order)."""
        self._check_labels()
        return "".join(_DIGITS[d] for d in self.digits[idx])

    def labels(self) -> list[str]:
        return [self.path_label(i) for i in range(self.n_paths)]

    def path_index(self, label: str) -> int:
        """Inverse of :meth:`path_label`: only a label of exactly ``depth``
        ASCII digits 0..b-1 names a path."""
        self._check_labels()
        if len(label) != self.depth or label.strip(_DIGITS[:self.branching]):
            raise ParameterError(f"bad path label {label!r}: expected {self.depth} "
                                 f"digit(s) 0..{self.branching - 1}")
        return int(label, self.branching)

    @classmethod
    def for_labels(cls, labels: list[str]) -> "AdaptedLattice":
        """The smallest lattice that can name these paths: depth from the
        first label, branching one above the largest digit, within the
        default path budget.  Malformed labels are left to :meth:`path_index`."""
        top = max(map(_DIGITS.find, set().union(*labels)), default=0)
        return build_lattice(max(top + 1, 2), max(len(labels[0]), 1))

    def _check_labels(self) -> None:
        if self.branching > len(_DIGITS):
            raise ParameterError("digit-string labels support branching <= 10")

    def _check_time(self, k: int) -> int:
        return _as_count("k", k, 0, self.depth)


def build_lattice(b: int, K: int, path_budget: int = DEFAULT_PATH_BUDGET) -> AdaptedLattice:
    """Construct the lattice with b branches per node and K steps.

    Rejects lattices whose path count b^K exceeds ``path_budget``.
    """
    lattice = AdaptedLattice(b, K)
    if lattice.n_paths > path_budget:
        raise SizeBudgetError(f"lattice would have {b}^{K} paths, budget is {path_budget}")
    return lattice


def _path_array(lattice: AdaptedLattice, values, subject: str) -> np.ndarray:
    """A read-only float copy of one value per path, each finite and >= 0."""
    x = np.asarray(values, dtype=float).copy()
    if x.shape != (lattice.n_paths,):
        raise ParameterError(f"{subject} shape {x.shape} does not match {lattice.n_paths} paths")
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise ParameterError(f"{subject} must be finite and nonnegative")
    x.setflags(write=False)
    return x


@dataclass(frozen=True, eq=False)
class Measure:
    """Probability weights on paths; must sum to 1 within 1e-12."""

    lattice: AdaptedLattice
    weights: np.ndarray

    def __post_init__(self):
        w = _path_array(self.lattice, self.weights, "weights")
        if abs(float(w.sum()) - 1.0) > NORMALIZATION_TOL:
            raise ParameterError(f"weights sum to {w.sum()!r}, not 1 within {NORMALIZATION_TOL}")
        object.__setattr__(self, "weights", w)

    def density(self) -> "Density":
        """Radon-Nikodym derivative against the uniform base measure."""
        return Density(self.lattice, self.weights * self.lattice.n_paths)


@dataclass(frozen=True, eq=False)
class Density:
    """Path density F = dQ/dmu against the uniform base measure mu."""

    lattice: AdaptedLattice
    values: np.ndarray

    def __post_init__(self):
        f = _path_array(self.lattice, self.values, "density")
        if abs(float(f.mean()) - 1.0) > NORMALIZATION_TOL:
            raise ParameterError("density does not integrate to 1 against the base measure")
        object.__setattr__(self, "values", f)

    def measure(self) -> Measure:
        return Measure(self.lattice, self.values / self.lattice.n_paths)


def uniform_measure(lattice: AdaptedLattice) -> Measure:
    """The normalized counting measure: weight b^-K on every path."""
    P = lattice.n_paths
    return Measure(lattice, np.full(P, 1.0 / P))


@dataclass(frozen=True, eq=False)
class LatticeProcess:
    """Adapted process with n exchanges of d components each.

    values has shape (K+1, n_paths, n*d); component i*d+j is dimension j of
    exchange i.  Adaptedness (values at time k identical across each
    partition(k) block) is validated exactly on construction.
    """

    lattice: AdaptedLattice
    n: int
    d: int
    values: np.ndarray

    def __post_init__(self):
        for name in ("n", "d"):
            object.__setattr__(self, name, _as_count(name, getattr(self, name), 1))
        v = np.asarray(self.values, dtype=float).copy()
        expected = (self.lattice.depth + 1, self.lattice.n_paths, self.n * self.d)
        if v.shape != expected:
            raise ParameterError(f"values shape {v.shape}, expected {expected}")
        if not np.all(np.isfinite(v)):
            raise ParameterError("process values must be finite")
        violation = find_adaptedness_violation(self.lattice, v)
        if violation is not None:
            k, blk = violation
            raise ParameterError(f"process not adapted: time {k}, block {blk} is not constant")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_components(self) -> int:
        return self.n * self.d

    def exchange(self, i: int) -> np.ndarray:
        """(K+1, n_paths, d) view of exchange i."""
        if not 0 <= i < self.n:
            raise ParameterError(f"exchange index {i} outside 0..{self.n - 1}")
        return self.values[:, :, i * self.d:(i + 1) * self.d]

    def scaled(self, factor: float) -> "LatticeProcess":
        return LatticeProcess(self.lattice, self.n, self.d, self.values * factor)


def check_same_lattice(Q: Measure, g: LatticeProcess) -> None:
    if Q.lattice != g.lattice:
        raise ParameterError("measure and process live on different lattices")


def find_adaptedness_violation(lattice: AdaptedLattice, values: np.ndarray):
    """Return (k, block index) of the first non-constant block, or None.

    Uses exact equality: adapted processes built in this package repeat the
    identical float per block, and serialized ones round-trip bit-exactly.
    """
    for k in range(lattice.depth + 1):
        nblk = lattice.n_blocks(k)
        blocks = values[k].reshape(nblk, lattice.block_size(k), -1)
        ok = np.all(blocks == blocks[:, :1, :], axis=(1, 2))
        if not np.all(ok):
            return k, int(np.argmin(ok))
    return None


def _as_columns(x: np.ndarray, n_paths: int):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape != (n_paths,):
            raise ParameterError(f"vector length {x.shape[0]} does not match {n_paths} paths")
        return x[:, None], True
    if x.ndim == 2 and x.shape[0] == n_paths:
        return x, False
    raise ParameterError(f"expected ({n_paths},) or ({n_paths}, m) array, got shape {x.shape}")


def _weighted_mean(w: np.ndarray, X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """X_0 + sum(w * (X - X_0)) / W over the children axis, w (..., c), X
    (..., c, m), W (...) the positive total weight: exact where X is constant.
    ``cond_exp`` and the node kernel both average through it, so a one-step
    conditional expectation is the same float on either path."""
    first = X[..., :1, :]
    return first[..., 0, :] + np.einsum("...c,...cm->...m", w, X - first) / W[..., None]


def cond_exp(x: np.ndarray, k: int, Q: Measure):
    """Conditional expectation of x given the time-k prefix information, under Q.

    Per block B of partition(k) the result is sum_B(x*q) / sum_B(q), repeated
    across the block.  Blocks of total weight zero yield 0; this zero
    convention takes precedence over everything else.  On positive-weight
    blocks where x is constant, the constant is passed through unchanged, so
    inputs already measurable at level k come back exactly.

    Accepts a path vector or an (n_paths, m) array (columnwise).
    """
    lat = Q.lattice
    X, was_vector = _as_columns(x, lat.n_paths)
    nblk, bs = lat.n_blocks(k), lat.block_size(k)
    Xb = X.reshape(nblk, bs, X.shape[1])
    wb = Q.weights.reshape(nblk, bs)
    W = wb.sum(axis=1)
    zero = W <= 0.0
    avg = _weighted_mean(wb, Xb, np.where(zero, 1.0, W))
    avg[zero] = 0.0
    out = np.repeat(avg, bs, axis=0)
    if was_vector:
        out = out[:, 0]
    return out


def cond_exp_reweighted(x: np.ndarray, F: Density, k: int, base: Measure):
    """Conditional expectation of x at time k under the measure F d(base).

    Computed as the ratio cond_exp(F*x) / cond_exp(F) under the base measure,
    which equals the conditional expectation under the reweighted measure.
    Blocks of zero base weight yield 0; a vanishing denominator on a block of
    positive base weight means F is not equivalent to the base there and
    raises :class:`EquivalenceViolationError`.
    """
    lat = base.lattice
    if F.lattice != lat:
        raise ParameterError("density and base measure live on different lattices")
    X, was_vector = _as_columns(x, lat.n_paths)
    num = cond_exp(F.values[:, None] * X, k, base)
    den = cond_exp(F.values, k, base)
    bs = lat.block_size(k)
    zero_paths = np.repeat(base.weights.reshape(-1, bs).sum(axis=1) <= 0.0, bs)
    bad = (den <= 0.0) & ~zero_paths
    if np.any(bad):
        blk = int(np.argmax(bad)) // bs
        raise EquivalenceViolationError(
            f"density has zero conditional mass on positive-weight block {blk} at time {k}")
    out = np.where(zero_paths[:, None], 0.0,
                   num / np.where(den > 0.0, den, 1.0)[:, None])
    if was_vector:
        out = out[:, 0]
    return out


# -- branch duplication (embedding into a finer lattice) ----------------------

def _embedding(lat: AdaptedLattice, copies: int) -> tuple[AdaptedLattice, np.ndarray]:
    """The lattice with every branch of ``lat`` split into ``copies``
    children, and for each of its paths the index of the path it copies."""
    copies = _as_count("copies", copies, 2)
    fine = AdaptedLattice(lat.branching * copies, lat.depth)
    powers = lat.branching ** np.arange(lat.depth - 1, -1, -1)
    return fine, (fine.digits // copies) @ powers


def duplicate_branches(process: LatticeProcess, copies: int = 2) -> LatticeProcess:
    """Embed a process into the lattice where every branch is split into
    ``copies`` identical children; values are copied along the embedding."""
    fine, idx = _embedding(process.lattice, copies)
    return LatticeProcess(fine, process.n, process.d, process.values[:, idx, :])


def lift_measure(Q: Measure, copies: int = 2) -> Measure:
    """Lift a measure along the branch-duplication embedding: each coarse
    path's weight is split evenly over its copies^K fine images, so every
    blockwise average (hence every functional built from them) is preserved."""
    fine, idx = _embedding(Q.lattice, copies)
    return Measure(fine, Q.weights[idx] / float(copies ** Q.lattice.depth))


__all__ = [
    "AdaptedLattice", "Measure", "Density", "LatticeProcess",
    "DEFAULT_PATH_BUDGET", "NORMALIZATION_TOL",
    "build_lattice", "uniform_measure", "cond_exp", "cond_exp_reweighted",
    "find_adaptedness_violation", "duplicate_branches", "lift_measure",
]
