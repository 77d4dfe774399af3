"""The walk of ``fairmeasure._exact``, one numpy merge per run of steps,
against the per-step walk of ``reference.walk_n_min``: on random binary
lattices up to K = 9 and on the benchmark's deep GBM, n agrees within 1e-13
relative and every measure is feasible.  Also that a node's walk does not
depend on the nodes it shares a level with, the walk's step cap and columns
with zero drift."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmeasure as fm
from fairmeasure import _exact
from fairmeasure._tree import Tree
from fairmeasure.solver import box_bounds

import reference as ref
from conftest import binomial_process, random_process


def assert_walks_agree(g, N):
    lo, hi = box_bounds(g.lattice, N)
    tree = Tree(g)
    params = fm.ConstraintParams(N=N, objective="n")
    values = []
    for q in (_exact.min_n(tree, lo[0], hi[0]), ref.walk_n_min(tree, lo[0], hi[0])):
        measure = fm.Measure(g.lattice, q)
        assert fm.check_constraints(measure, g, params).feasible
        values.append(fm.unfairness_n(measure, g))
    assert math.isclose(*values, rel_tol=1e-13, abs_tol=1e-15), values


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 2),
       st.one_of(st.just(1.0), st.floats(1.0, 4.0)), st.integers(0, 2 ** 16))
def test_bulk_walk_matches_the_per_step_walk(K, n, d, N, seed):
    """N = 1.0 makes the box a point, where each leaf has one breakpoint."""
    g = random_process(np.random.default_rng(seed), fm.build_lattice(2, K), n=n, d=d,
                       low=0.3, high=3.0)
    assert_walks_agree(g, N)


@settings(max_examples=8, deadline=None)
@given(st.integers(7, 9), st.integers(1, 3), st.integers(1, 2), st.floats(1.0, 4.0),
       st.integers(0, 2 ** 16))
def test_bulk_walk_matches_at_the_top_of_deep_lattices(K, n, d, N, seed):
    """The levels next to the root are where a node crosses rays most often
    and its events come round after round."""
    g = random_process(np.random.default_rng(seed), fm.build_lattice(2, K), n=n, d=d,
                       low=0.3, high=3.0)
    assert_walks_agree(g, N)


@pytest.mark.parametrize("K", [6, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bulk_walk_matches_on_small_random_binary_processes(K, seed):
    """Scalar processes with values in [0.5, 2] and N = 2, where every level
    holds few breakpoints and the walk is mostly events."""
    g = random_process(np.random.default_rng(seed), fm.build_lattice(2, K), n=1, d=1,
                       low=0.5, high=2.0)
    assert_walks_agree(g, 2.0)


@pytest.mark.parametrize("seed", [1, 5])
def test_bulk_walk_matches_on_the_deep_gbm(seed):
    """deep_solve's lattice (b = 2, K = 11, N = 2): every node of a level
    has the same branch pair, so many steps tie in slope and merge, and
    the top levels cross a ray up to 32 times a node."""
    one = np.array([[1.0]])
    g = fm.simulate_gbm(fm.build_lattice(2, 11),
                        fm.GbmParams(n=1, d=1, drift=0.2 * one, vol=0.3 * one, corr=one,
                                     s0=one), seed=seed)
    assert_walks_agree(g, 2.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.integers(1, 3), st.integers(1, 2), st.floats(1.0, 4.0),
       st.integers(0, 2 ** 16))
def test_a_node_walks_the_same_alone_as_in_its_level(K, n, d, N, seed):
    """Every level that ``min_n`` walks on a random binary lattice, walked
    again node by node: each node's breakpoints, slopes and splits are the
    same bytes either way, so which nodes share a round changes nothing."""
    g = random_process(np.random.default_rng(seed), fm.build_lattice(2, K), n=n, d=d,
                       low=0.3, high=3.0)
    lo, hi = box_bounds(g.lattice, N)
    level, levels = _exact._level, []

    def record(X, S, start, A, B):
        levels.append((X, S.copy(), start, A, B))   # the walk lifts S in place
        out = level(X, S, start, A, B)
        levels.append(out)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_exact, "_level", record)
        _exact.min_n(Tree(g), lo[0], hi[0])
    assert len(levels) == 2 * K
    with np.errstate(divide="ignore", invalid="ignore"):
        for (X, S, start, A, B), whole in zip(levels[0::2], levels[1::2]):
            for v in range(len(A)):
                a, b = start[2 * v], start[2 * v + 2]
                alone = level(np.append(X[a:b], math.nan), np.append(S[a:b], math.nan),
                              start[2 * v:2 * v + 3] - a, A[v:v + 1], B[v:v + 1])
                first, last = whole[0][v:v + 2]
                assert alone[0].tolist() == [0, last - first]
                for got, want in zip(alone[1:], whole[1:]):
                    assert got[:last - first].tobytes() == want[first:last].tobytes()


def test_a_walk_that_stops_moving_reaches_its_step_cap():
    """One node whose c1 has a piece of slope nan and whose c2 is a single
    point: the nan makes the walk prefer c2, which has no piece left, so
    its step moves nothing.  The walk raises at its step cap, 3 child
    breakpoints times (1 term + 2), instead of looping."""
    X = np.array([0.1, 0.5, 0.3, np.nan])
    S = np.full(4, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(RuntimeError, match="^exact walk passed its step cap$"):
        _exact._level(X, S, np.array([0, 2, 3]), np.array([[-1.0]]), np.array([[1.0]]))


@pytest.mark.parametrize("up,down,value", [(1.0, 1.0, 1.1834289697556182),
                                           (1.0, 0.7, 1.7461816083178443)])
def test_zero_drift_columns_stay_off_their_rays(up, down, value):
    """A constant first exchange has a_e = b_e = 0 at every node, so its
    column is no term; one with a flat up child has a_e = 0, so its ray is
    m2 = 0, which positive masses never reach.  The second exchange is
    random.  Each value is the one the per-step walk, ``exact_n_min`` and
    ``lp_min`` agree on."""
    lat = fm.build_lattice(2, 4)
    first = binomial_process(lat, 1.0, up, down)
    rough = random_process(np.random.default_rng(3), lat, low=0.5, high=2.0)
    g = fm.LatticeProcess(lat, 2, 1, np.concatenate((first.values, rough.values), axis=2))
    rep = fm.minimize(g, fm.ConstraintParams(N=2.0, objective="n"))
    assert rep.restarts[0].kind == "exact"
    assert math.isclose(rep.value, value, rel_tol=1e-13)
    assert_walks_agree(g, 2.0)


def test_a_column_with_zero_drift_below_some_nodes_only():
    """The first exchange is constant on c1's half of the tree, where its
    column is no term, and moves up 1.25 or down 0.75 on c2's half, where
    every split starts on its ray; both kinds of node take their first
    runs in the same round.  The second exchange is random."""
    pytest.importorskip("scipy")
    lat = fm.build_lattice(2, 5)
    first = binomial_process(lat, 1.0, 1.25, 0.75).values.copy()
    first[:, lat.digits[:, 0] == 0] = 1.0
    rough = random_process(np.random.default_rng(11), lat, low=0.5, high=2.0)
    g = fm.LatticeProcess(lat, 2, 1, np.concatenate((first, rough.values), axis=2))
    assert_walks_agree(g, 2.0)
    params = fm.ConstraintParams(N=2.0, objective="n")
    assert math.isclose(fm.minimize(g, params).value, ref.lp_min(g, params)[0], rel_tol=1e-12)


def test_lift_raises_a_dip_to_the_running_maximum_of_its_child():
    """A slope that rounding left below the one before it is raised to it;
    the nan at each child's first breakpoint keeps the children apart."""
    S = np.array([np.nan, 1.0, 0.5, 2.0, 1.5, 1.0, np.nan, -1.0, -2.0, np.nan])
    _exact._lift(S)
    np.testing.assert_array_equal(S, [np.nan, 1.0, 1.0, 2.0, 2.0, 2.0, np.nan, -1.0, -1.0,
                                      np.nan])
