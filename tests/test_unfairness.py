import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmeasure as fm
from fairmeasure import UnfairnessConfig

import reference as ref
from conftest import dyadic_martingale, martingale_from_terminal, random_measure, random_process


@st.composite
def measure_process(draw, positive=False, max_b=3, max_K=3):
    b = draw(st.integers(2, max_b))
    K = draw(st.integers(1, max_K))
    lat = fm.build_lattice(b, K)
    P = lat.n_paths
    raw = draw(st.lists(st.integers(1, 50), min_size=P, max_size=P))
    w = np.array(raw, dtype=float)
    Q = fm.Measure(lat, w / w.sum())
    seed = draw(st.integers(0, 2 ** 31))
    rng = np.random.default_rng(seed)
    low = 0.2 if positive else -4.0
    x = random_process(rng, lat, low=low, high=4.0)
    return Q, x


# -- the m functional -----------------------------------------------------------

def test_m_canonical_value(two_path):
    # E[g1|F0] = 1.25 under uniform; dt^2 * sum q * 0.25^2 = 0.0625
    U = fm.uniform_measure(two_path.lattice)
    assert fm.unfairness_m(U, two_path, UnfairnessConfig(p=2.0)) == pytest.approx(0.0625, abs=1e-15)


def test_m_vanishes_under_risk_neutral(two_path):
    Q = fm.Measure(two_path.lattice, [1 / 3, 2 / 3])
    for p in (1.0, 2.0, 3.0):
        assert fm.unfairness_m(Q, two_path, UnfairnessConfig(p=p)) <= 1e-30


def test_m_constant_process_is_zero():
    lat = fm.build_lattice(3, 2)
    const = fm.LatticeProcess(lat, 1, 1, np.full((3, 9, 1), 4.2))
    rng = np.random.default_rng(1)
    for _ in range(5):
        Q = random_measure(rng, lat)
        for p in (0.5, 1.0, 2.0):
            assert fm.unfairness_m(Q, const, UnfairnessConfig(p=p)) == 0.0


def test_m_mismatched_lattice(two_path):
    other = fm.uniform_measure(fm.build_lattice(2, 2))
    with pytest.raises(fm.ParameterError):
        fm.unfairness_m(other, two_path)


def test_m_diagonal_term_contributes_exactly_zero():
    """The l = k term of m vanishes identically (g_k is F_k-measurable), so
    the path-level reference gives the same float with and without it; the
    kernel never forms it, and test_tree compares the kernel against the
    reference with the term included."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        lat = fm.build_lattice(int(rng.integers(2, 4)), int(rng.integers(1, 4)))
        q = random_measure(rng, lat).weights.copy()
        q[: lat.block_size(1)] = 0.0   # a weightless block: the zero convention
        q /= q.sum()
        x = random_process(rng, lat, n=2, d=2)
        for p in (0.5, 1.0, 2.0, 3.0):
            a = ref.m_raw(q, x, p, include_diagonal=True)
            b = ref.m_raw(q, x, p, include_diagonal=False)
            assert a == b  # bit-exact: the l = k deviations are exactly zero


# -- the n functional -----------------------------------------------------------

def test_n_canonical_value(two_path):
    U = fm.uniform_measure(two_path.lattice)
    assert fm.unfairness_n(U, two_path) == pytest.approx(0.25, abs=1e-15)


def test_n_vanishes_under_risk_neutral(two_path):
    Q = fm.Measure(two_path.lattice, [1 / 3, 2 / 3])
    assert fm.unfairness_n(Q, two_path) <= 1e-15


def test_n_scale_invariance_canonical(two_path):
    U = fm.uniform_measure(two_path.lattice)
    assert fm.unfairness_n(U, two_path.scaled(7.0)) == pytest.approx(0.25, rel=1e-12)


def test_n_requires_positive_values():
    lat = fm.build_lattice(2, 1)
    vals = np.array([[[-1.0], [-1.0]], [[2.0], [0.5]]])
    proc = fm.LatticeProcess(lat, 1, 1, vals)
    with pytest.raises(fm.DomainError):
        fm.unfairness_n(fm.uniform_measure(lat), proc)


# -- inner product ----------------------------------------------------------------

def test_inner_product_matches_m_at_p2(two_path):
    U = fm.uniform_measure(two_path.lattice)
    assert fm.inner_product_m(U, two_path, two_path) == pytest.approx(0.0625, abs=1e-15)


def test_inner_product_martingale_factor_kills_it():
    rng = np.random.default_rng(11)
    Q, mart = dyadic_martingale(rng, K=3)
    x = random_process(rng, mart.lattice)
    assert fm.inner_product_m(Q, x, mart) == 0.0
    assert fm.inner_product_m(Q, mart, x) == 0.0


@settings(max_examples=40, deadline=None)
@given(measure_process(), st.integers(0, 2 ** 31))
def test_inner_product_symmetry_and_diagonal(data, seed):
    Q, x = data
    y = random_process(np.random.default_rng(seed), x.lattice)
    assert fm.inner_product_m(Q, x, y) == pytest.approx(fm.inner_product_m(Q, y, x), abs=1e-12)
    assert fm.inner_product_m(Q, x, x) == pytest.approx(
        fm.unfairness_m(Q, x, UnfairnessConfig(p=2.0)), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(measure_process(), st.integers(0, 2 ** 31))
def test_inner_product_bilinear_and_cauchy_schwarz(data, seed):
    Q, x = data
    rng = np.random.default_rng(seed)
    y = random_process(rng, x.lattice)
    z = random_process(rng, x.lattice)
    a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
    combo = fm.LatticeProcess(x.lattice, 1, 1, a * x.values + b * y.values)
    lhs = fm.inner_product_m(Q, combo, z)
    rhs = a * fm.inner_product_m(Q, x, z) + b * fm.inner_product_m(Q, y, z)
    assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))
    cs = abs(fm.inner_product_m(Q, x, y))
    bound = np.sqrt(fm.inner_product_m(Q, x, x) * fm.inner_product_m(Q, y, y))
    assert cs <= bound + 1e-9


# -- martingale check ----------------------------------------------------------------

def test_is_martingale_examples(two_path):
    lat = two_path.lattice
    const = fm.LatticeProcess(lat, 1, 1, np.full((2, 2, 1), 3.0))
    check = fm.is_martingale(fm.uniform_measure(lat), const)
    assert check.ok and check.max_deviation == 0.0

    under_uniform = fm.is_martingale(fm.uniform_measure(lat), two_path)
    assert not under_uniform.ok
    assert under_uniform.max_deviation == pytest.approx(0.25, abs=1e-15)

    rn = fm.is_martingale(fm.Measure(lat, [1 / 3, 2 / 3]), two_path, 1e-12)
    assert rn.ok


def test_is_martingale_ignores_the_values_at_null_nodes():
    """Q puts no weight below path prefix 1, where x(1) = 7 is free: m at
    p = 1 and 2 and n all read 0, and so does the martingale check.  A
    change at path 00, which has weight, shows in both."""
    lat = fm.build_lattice(2, 2)
    Q = fm.Measure(lat, [0.5, 0.5, 0.0, 0.0])
    values = np.array([[3.0] * 4, [3.0, 3.0, 7.0, 7.0], [2.0, 4.0, 1.0, 9.0]])[:, :, None]
    x = fm.LatticeProcess(lat, 1, 1, values)
    assert fm.is_martingale(Q, x) == (True, 0.0)
    for p in (1.0, 2.0):
        assert fm.unfairness_m(Q, x, UnfairnessConfig(p=p)) == 0.0
    assert fm.unfairness_n(Q, x) == 0.0
    values[2, 0] = 2.5
    x = fm.LatticeProcess(lat, 1, 1, values)
    assert fm.is_martingale(Q, x) == (False, 0.25)
    assert fm.unfairness_m(Q, x) == 0.03125


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.integers(1, 2), st.integers(0, 2 ** 31))
def test_is_martingale_agrees_with_m_where_q_has_null_blocks(b, K, d, seed):
    """A martingale under a measure with null blocks at one level, with
    arbitrary adapted values written at every null node: the check and m at
    p = 2 (at the thresholds of ``verify``'s characterization check) both
    say yes, and both say no once one node of positive weight moves."""
    rng = np.random.default_rng(seed)
    lat = fm.build_lattice(b, K)
    level = int(rng.integers(1, K + 1))
    keep = rng.random(lat.n_blocks(level)) < 0.5
    keep[rng.integers(keep.size)] = True
    w = rng.uniform(0.1, 1.0, lat.n_paths) * np.repeat(keep, lat.block_size(level))
    Q = fm.Measure(lat, w / w.sum())
    mart = martingale_from_terminal(rng.uniform(0.5, 2.0, lat.n_paths * d), Q, d=d)
    values = mart.values.copy()
    weight = [Q.weights.reshape(lat.n_blocks(k), -1).sum(axis=1) for k in range(K + 1)]
    for k in range(K + 1):
        size = lat.block_size(k)
        free = np.repeat(weight[k] == 0.0, size)
        arbitrary = rng.uniform(-3.0, 3.0, (lat.n_blocks(k), d))
        values[k, free] = np.repeat(arbitrary, size, axis=0)[free]

    def agree(x):
        ok = fm.is_martingale(Q, x, 1e-9).ok
        assert ok == (fm.unfairness_m(Q, x) <= 1e-18)
        return ok

    assert agree(fm.LatticeProcess(lat, 1, d, values))
    k = int(rng.integers(0, K + 1))
    moved = rng.choice(np.flatnonzero(weight[k] > 0.0))
    values[k, moved * lat.block_size(k):(moved + 1) * lat.block_size(k)] += 0.5
    assert not agree(fm.LatticeProcess(lat, 1, d, values))


# -- seminorm properties ----------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(measure_process(),
       st.floats(-4.0, 4.0).filter(lambda v: abs(v) >= 1e-3))
def test_m_homogeneity(data, lam):
    Q, x = data
    for p in (0.5, 1.0, 2.0, 3.0):
        cfg = UnfairnessConfig(p=p)
        lhs = fm.unfairness_m(Q, x.scaled(lam), cfg)
        rhs = abs(lam) ** p * fm.unfairness_m(Q, x, cfg)
        assert lhs == pytest.approx(rhs, rel=1e-10)


@settings(max_examples=50, deadline=None)
@given(measure_process(), st.integers(0, 2 ** 31))
def test_m_triangle_inequality(data, seed):
    Q, x = data
    y = random_process(np.random.default_rng(seed), x.lattice)
    z = fm.LatticeProcess(x.lattice, 1, 1, x.values + y.values)
    for p in (1.0, 1.5, 2.0, 3.0):
        cfg = UnfairnessConfig(p=p)
        lhs = fm.unfairness_m(Q, z, cfg) ** (1 / p)
        rhs = fm.unfairness_m(Q, x, cfg) ** (1 / p) + fm.unfairness_m(Q, y, cfg) ** (1 / p)
        assert lhs <= rhs + 1e-9


@settings(max_examples=50, deadline=None)
@given(measure_process(positive=True), st.floats(0.05, 20.0))
def test_n_scale_invariance(data, lam):
    Q, x = data
    lhs = fm.unfairness_n(Q, x.scaled(lam))
    rhs = fm.unfairness_n(Q, x)
    assert lhs == pytest.approx(rhs, rel=1e-10)


# -- convexity in the measure ------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (2, 2), (3, 2), (2, 3)]), st.integers(1, 2),
       st.integers(1, 2), st.integers(0, 2 ** 31))
def test_m_and_n_are_midpoint_convex_in_the_weights(shape, n, d, seed):
    """Each node term of m is the perspective W |g - S / W|^p of a convex
    function of (S, W), both linear in q, and n is a sum of |linear|; so
    f((a + b) / 2) <= (f(a) + f(b)) / 2 for m at p >= 1 and for n.  This is
    what lets ``minimize`` draw one start for smooth m."""
    from fairmeasure.solver import _Objective, box_bounds
    rng = np.random.default_rng(seed)
    lat = fm.build_lattice(*shape)
    g = random_process(rng, lat, n=n, d=d, low=0.3, high=3.0)
    lo, hi = box_bounds(lat, 4.0)
    A, B = (fm.project_capped_simplex(rng.uniform(lo, hi, (16, lat.n_paths)), lo, hi)
            for _ in range(2))
    cases = [fm.ConstraintParams(N=4.0, p=p) for p in (1.0, 1.5, 2.0, 3.0)]
    for params in cases + [fm.ConstraintParams(N=4.0, objective="n")]:
        obj = _Objective(g, params)
        fa, fb, mid = (obj.evaluate(X)[0] for X in (A, B, 0.5 * (A + B)))
        assert np.all(mid <= 0.5 * (fa + fb) + 1e-12 * (fa + fb)), params


# -- martingale characterization ------------------------------------------------------

def test_characterization_generic_processes_fail_both_sides():
    rng = np.random.default_rng(21)
    for _ in range(20):
        lat = fm.build_lattice(int(rng.integers(2, 4)), int(rng.integers(1, 4)))
        Q = random_measure(rng, lat)
        x = random_process(rng, lat)
        check = fm.is_martingale(Q, x, 1e-9)
        assert not check.ok
        for p in (1.0, 2.0, 3.0):
            assert fm.unfairness_m(Q, x, UnfairnessConfig(p=p)) > 1e-18


def test_characterization_exact_martingales_pass_both_sides():
    rng = np.random.default_rng(22)
    for K in (1, 2, 3, 4):
        Q, mart = dyadic_martingale(rng, K)
        assert fm.is_martingale(Q, mart, 1e-9).ok
        for p in (1.0, 2.0, 3.0):
            assert fm.unfairness_m(Q, mart, UnfairnessConfig(p=p)) == 0.0


def test_characterization_random_measure_martingales():
    # exact for every p, on one-step lattices and on deeper ones
    rng = np.random.default_rng(23)
    for _ in range(10):
        lat = fm.build_lattice(2, 1)
        Q = random_measure(rng, lat)
        mart = martingale_from_terminal(rng.uniform(0.5, 2.0, 2), Q)
        assert fm.is_martingale(Q, mart, 1e-9).ok
        for p in (1.0, 2.0, 3.0):
            assert fm.unfairness_m(Q, mart, UnfairnessConfig(p=p)) == 0.0
    for K in (2, 3):
        lat = fm.build_lattice(2, K)
        Q = random_measure(rng, lat)
        mart = martingale_from_terminal(rng.uniform(0.5, 2.0, lat.n_paths), Q)
        assert fm.is_martingale(Q, mart, 1e-9).ok
        for p in (1.0, 2.0, 3.0):
            assert fm.unfairness_m(Q, mart, UnfairnessConfig(p=p)) == 0.0
        assert fm.unfairness_n(Q, mart) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.integers(1, 4), st.integers(1, 2), st.integers(0, 2 ** 31))
def test_random_measure_martingales_are_exact_at_every_depth(b, K, d, seed):
    """A martingale built by ``cond_exp`` under a random measure has a
    one-step deviation, an m at every p and a pairing with any process of
    exactly 0.0, however deep the lattice."""
    rng = np.random.default_rng(seed)
    lat = fm.build_lattice(b, K)
    Q = random_measure(rng, lat)
    mart = martingale_from_terminal(rng.uniform(0.5, 2.0, lat.n_paths * d), Q, d=d)
    x = random_process(rng, lat, d=d, low=-3.0, high=3.0)
    assert fm.is_martingale(Q, mart).max_deviation == 0.0
    for p in (0.5, 1.0, 2.0, 3.0):
        assert fm.unfairness_m(Q, mart, UnfairnessConfig(p=p)) == 0.0
    assert fm.inner_product_m(Q, x, mart) == 0.0


def test_config_validation():
    with pytest.raises(fm.ParameterError):
        UnfairnessConfig(p=0.0)
    with pytest.raises(fm.ParameterError):
        UnfairnessConfig(p=-1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_config_rejects_non_finite_p(bad):
    with pytest.raises(fm.ParameterError, match="must be finite"):
        UnfairnessConfig(p=bad)
