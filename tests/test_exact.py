"""The exact walk for n on binary lattices against the naive dynamic program
of ``reference.exact_n_min`` and the linear program of ``reference.lp_min``."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmeasure as fm

import reference as ref
from conftest import binomial_process, random_process


def exact(g, N):
    """``minimize``'s report for n on g, after checking that its value is
    the kernel's n at its measure and that the measure is feasible."""
    params = fm.ConstraintParams(N=N, objective="n")
    rep = fm.minimize(g, params)
    assert [(rec.kind, rec.stop) for rec in rep.restarts] == [("exact", "exact")]
    assert math.isclose(rep.value, fm.unfairness_n(rep.measure, g), rel_tol=1e-12,
                        abs_tol=1e-15)
    assert rep.feasible and fm.check_constraints(rep.measure, g, params).feasible
    return rep


def assert_agree(value, other, rel):
    assert math.isclose(value, other, rel_tol=rel, abs_tol=1e-15), (value, other)


boxes = st.one_of(st.just(1.0), st.floats(1.0, 4.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), boxes, st.integers(0, 2 ** 16))
def test_walk_matches_the_reference_and_the_linear_program(K, n, N, seed):
    pytest.importorskip("scipy")
    g = random_process(np.random.default_rng(seed), fm.build_lattice(2, K), n=n,
                       low=0.3, high=3.0)
    value = exact(g, N).value
    assert_agree(value, ref.exact_n_min(g, N), 1e-10)
    assert_agree(value, ref.lp_min(g, fm.ConstraintParams(N=N, objective="n"))[0], 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 2), boxes, st.integers(0, 2 ** 16))
def test_walk_matches_the_reference_on_vector_exchanges(K, n, N, seed):
    """d = 2: each of the n * d columns has its own term (``lp_min`` is d = 1)."""
    g = random_process(np.random.default_rng(seed), fm.build_lattice(2, K), n=n, d=2,
                       low=0.3, high=3.0)
    assert_agree(exact(g, N).value, ref.exact_n_min(g, N), 1e-10)


@pytest.mark.parametrize("K", [1, 3, 5])
def test_martingale_trees_reach_zero(K):
    """Up 1.5, down 0.75 is a martingale under the branch weights (1/3, 2/3),
    which lie in the box at N = 4 for K <= 3 only; beyond, the least n is
    positive."""
    g = binomial_process(fm.build_lattice(2, K), 1.0, 1.5, 0.75)
    value = exact(g, 4.0).value
    if K <= 3:
        assert value <= 1e-15
    else:
        assert value > 1e-3
    assert_agree(value, ref.exact_n_min(g, 4.0), 1e-10)


def test_a_split_that_starts_on_the_ray():
    """Up 1.25, down 0.75 from 1 gives a_e = -b_e exactly at every node, so
    each walk starts on its zero-drift ray; under the uniform measure the
    process is a martingale, and the walk keeps n at 0.  A second, random
    exchange moves the optimum off the rays."""
    pytest.importorskip("scipy")
    lat = fm.build_lattice(2, 4)
    sym = binomial_process(lat, 1.0, 1.25, 0.75)
    rep = exact(sym, 2.0)
    assert rep.value == 0.0 and rep.winner == 0
    rough = random_process(np.random.default_rng(3), lat, low=0.5, high=2.0)
    g = fm.LatticeProcess(lat, 2, 1, np.concatenate((sym.values, rough.values), axis=2))
    value = exact(g, 2.0).value
    assert_agree(value, ref.exact_n_min(g, 2.0), 1e-10)
    assert_agree(value, ref.lp_min(g, fm.ConstraintParams(N=2.0, objective="n"))[0], 1e-12)


def test_same_sign_drifts_have_no_ray():
    """Both children above their parent: every term is linear in the
    masses, and the optimum is a vertex of the box-simplex."""
    pytest.importorskip("scipy")
    g = binomial_process(fm.build_lattice(2, 4), 1.0, 1.3, 1.1)
    value = exact(g, 2.0).value
    assert_agree(value, ref.exact_n_min(g, 2.0), 1e-10)
    assert_agree(value, ref.lp_min(g, fm.ConstraintParams(N=2.0, objective="n"))[0], 1e-12)


@pytest.mark.parametrize("K,seed", [(4, 1), (6, 5)])
def test_gbm_lattices_where_pieces_merge(K, seed):
    """The benchmark's GBM repeats one branch pair at every node, so many
    steps of a walk tie in slope and merge into one piece, which random
    processes almost never do."""
    pytest.importorskip("scipy")
    one = np.array([[1.0]])
    g = fm.simulate_gbm(fm.build_lattice(2, K),
                        fm.GbmParams(n=1, d=1, drift=0.2 * one, vol=0.3 * one, corr=one,
                                     s0=one), seed=seed)
    value = exact(g, 2.0).value
    assert_agree(value, ref.exact_n_min(g, 2.0), 1e-10)
    assert_agree(value, ref.lp_min(g, fm.ConstraintParams(N=2.0, objective="n"))[0], 1e-12)


@pytest.mark.parametrize("k", [0, 2])
def test_nonpositive_values_raise_the_drift_rate_error(k):
    lat = fm.build_lattice(2, 3)
    g = random_process(np.random.default_rng(1), lat, low=0.5, high=2.0)
    values = g.values.copy()
    values[k, :lat.block_size(k)] = 0.0
    g = fm.LatticeProcess(lat, 1, 1, values)
    with pytest.raises(fm.DomainError,
                       match=rf"^drift rate needs strictly positive values at time {k}$"):
        fm.minimize(g, fm.ConstraintParams(N=2.0, objective="n"))


def test_the_exact_report():
    """One record, of kind and stop "exact"; the candidates are the base
    measure (0) and the walk's point (1), so the winner is never worse
    than the base; the gap is 0.0 and there is no trace.  The options and
    the extra starts play no part, but extra starts are still checked."""
    g = random_process(np.random.default_rng(7), fm.build_lattice(2, 5), low=0.5, high=2.0)
    params = fm.ConstraintParams(N=2.0, objective="n")
    rep = fm.minimize(g, params, fm.SolveOptions(restarts=5, max_iter=3, seed=9),
                      extra_starts=[np.full(32, 1 / 32)])
    assert rep.restarts == [fm.RestartRecord("exact", "exact", 0, 1, 0, 0, 0, 0.0,
                                             rep.value, 0.0)]
    assert rep.winner == 1 and rep.gap == 0.0 and rep.trace == [] and rep.iterations == 0
    assert rep.value < fm.unfairness_n(fm.uniform_measure(g.lattice), g)
    again = fm.minimize(g, params)
    assert again.value == rep.value
    assert np.array_equal(again.measure.weights, rep.measure.weights)
    with pytest.raises(fm.ParameterError, match="extra starts"):
        fm.minimize(g, params, extra_starts=[np.ones(3)])


def test_a_floor_or_a_wider_branching_keeps_the_descent(two_path_pair, three_path):
    for g, params in [(two_path_pair, fm.ConstraintParams(N=2.0, c=0.2, objective="n")),
                      (three_path, fm.ConstraintParams(N=2.0, objective="n"))]:
        rep = fm.minimize(g, params, fm.SolveOptions(restarts=2, max_iter=20))
        assert [rec.kind for rec in rep.restarts] == ["base", "random"]
        assert rep.gap is None
