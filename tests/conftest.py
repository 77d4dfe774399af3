import numpy as np
import pytest

import fairmeasure as fm
from fairmeasure.verify import (martingale_from_terminal, random_measure,
                                random_process)

__all__ = ["random_measure", "random_process", "martingale_from_terminal", "random_floor"]


@pytest.fixture
def two_path_lattice():
    return fm.build_lattice(2, 1)


@pytest.fixture
def two_path(two_path_lattice):
    """The canonical instance: value 1 branching to children (2, 0.5)."""
    vals = np.array([[[1.0], [1.0]], [[2.0], [0.5]]])
    return fm.LatticeProcess(two_path_lattice, 1, 1, vals)


@pytest.fixture
def three_path():
    """One trinomial step, value 1 branching to children (2, 1.25, 0.5): a
    lattice with b = 3, where n keeps the descent."""
    vals = np.array([[[1.0]] * 3, [[2.0], [1.25], [0.5]]])
    return fm.LatticeProcess(fm.build_lattice(3, 1), 1, 1, vals)


@pytest.fixture
def two_path_pair(two_path_lattice):
    """Two identical exchanges holding the canonical instance."""
    vals = np.array([[[1.0, 1.0], [1.0, 1.0]], [[2.0, 2.0], [0.5, 0.5]]])
    return fm.LatticeProcess(two_path_lattice, 2, 1, vals)


def binomial_process(lattice, s0: float, up: float, down: float) -> fm.LatticeProcess:
    """Multiplicative binomial tree: child values are parent*up / parent*down."""
    assert lattice.branching == 2
    P = lattice.n_paths
    vals = np.empty((lattice.depth + 1, P, 1))
    vals[0] = s0
    factors = np.array([up, down])
    for k in range(lattice.depth):
        vals[k + 1, :, 0] = vals[k, :, 0] * factors[lattice.digits[:, k]]
    return fm.LatticeProcess(lattice, 1, 1, vals)


def random_floor(seed, b, K, N, spread):
    """Three exchanges on a random process and a floor ``spread`` times the
    smallest pair's |integral| below that integral under the uniform
    measure, which therefore meets it where ``spread`` >= 0."""
    g = random_process(np.random.default_rng(seed), fm.build_lattice(b, K), n=3,
                       low=0.5, high=2.0)
    U = fm.uniform_measure(g.lattice)
    smallest = min(fm.correlation_integral(U, g, i, j) for i, j in ((0, 1), (0, 2), (1, 2)))
    return g, fm.ConstraintParams(N=N, c=smallest - spread * abs(smallest), p=2.0)


def dyadic_martingale(rng: np.random.Generator, K: int) -> tuple[fm.Measure, fm.LatticeProcess]:
    """Martingale whose every conditional expectation is exact in floats.

    Uniform measure on a binary lattice with integer terminal values: block
    averages are integers divided by powers of two, so all arithmetic is
    exact and the m-functional is exactly 0.0 at every exponent.
    """
    lat = fm.build_lattice(2, K)
    Q = fm.uniform_measure(lat)
    terminal = rng.integers(-8, 9, lat.n_paths).astype(float)
    return Q, martingale_from_terminal(terminal, Q)
