import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmeasure as fm
from fairmeasure.lattice import NORMALIZATION_TOL

from conftest import random_measure


# -- strategies ---------------------------------------------------------------

@st.composite
def lattice_measure_vector(draw, max_b=3, max_K=3):
    b = draw(st.integers(2, max_b))
    K = draw(st.integers(1, max_K))
    lat = fm.build_lattice(b, K)
    P = lat.n_paths
    raw = draw(st.lists(st.integers(1, 50), min_size=P, max_size=P))
    w = np.array(raw, dtype=float)
    Q = fm.Measure(lat, w / w.sum())
    x = np.array(draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=P, max_size=P)))
    return lat, Q, x


# -- construction -------------------------------------------------------------

def test_smallest_lattice():
    lat = fm.build_lattice(2, 1)
    assert lat.n_paths == 2
    assert lat.partition(0) == [range(0, 2)]
    assert lat.partition(1) == [range(0, 1), range(1, 2)]


def test_counting_examples():
    lat = fm.build_lattice(2, 3)
    assert lat.n_paths == 8
    assert len(lat.partition(2)) == 4
    lat = fm.build_lattice(3, 2)
    assert lat.n_paths == 9
    blocks = lat.partition(1)
    assert len(blocks) == 3
    assert all(len(blk) == 3 for blk in blocks)


def test_build_lattice_argument_errors():
    with pytest.raises(fm.ParameterError):
        fm.build_lattice(1, 3)
    with pytest.raises(fm.ParameterError):
        fm.build_lattice(2, 0)
    with pytest.raises(fm.SizeBudgetError):
        fm.build_lattice(2, 21)
    fm.build_lattice(2, 21, path_budget=1 << 22)


_ONE_STEP = fm.build_lattice(2, 1)
_ONE_STEP_VALUES = np.array([[[1.0], [1.0]], [[2.0], [0.5]]])
_ONE_STEP_PROCESS = fm.LatticeProcess(_ONE_STEP, 1, 1, _ONE_STEP_VALUES)
_GBM = {"drift": [[0.0]], "vol": [[0.1]], "corr": [[1.0]], "s0": [[1.0]]}

# Every count site beside the lattice's own: a call that passes it one count and returns the count as
# kept (or the int the site computes from it), a valid count, and a count
# out of range.
COUNT_SITES = {
    "process-n": (lambda v: fm.LatticeProcess(_ONE_STEP, v, 1, _ONE_STEP_VALUES).n, 1, 0),
    "process-d": (lambda v: fm.LatticeProcess(_ONE_STEP, 1, v, _ONE_STEP_VALUES).d, 1, 0),
    "gbm-n": (lambda v: fm.GbmParams(n=v, d=1, **_GBM).n, 1, 0),
    "gbm-d": (lambda v: fm.GbmParams(n=1, d=v, **_GBM).d, 1, 0),
    "block-size-k": (lambda v: fm.build_lattice(2, 2).block_size(v), 1, 3),
    "n-blocks-k": (lambda v: fm.build_lattice(2, 2).n_blocks(v), 1, -1),
    "max-iter": (lambda v: fm.SolveOptions(max_iter=v).max_iter, 5, -1),
    "restarts": (lambda v: fm.SolveOptions(restarts=v).restarts, 2, 0),
    "seed": (lambda v: fm.SolveOptions(seed=v).seed, 3, -1),
    "duplicate-copies": (lambda v: fm.duplicate_branches(_ONE_STEP_PROCESS, v)
                         .lattice.branching, 3, 1),
    "lift-copies": (lambda v: fm.lift_measure(fm.uniform_measure(_ONE_STEP), v)
                    .lattice.branching, 3, 1),
}
# sites whose counts leave nothing to inspect
_REJECT_ONLY = {
    "cond-exp-k": (lambda v: fm.cond_exp(np.ones(2), v, fm.uniform_measure(_ONE_STEP)), 2),
    "resolution": (lambda v: fm.brute_force_min(
        _ONE_STEP_PROCESS, fm.ConstraintParams(N=2.0), resolution=v), 2001),
}


def test_lattice_stores_python_ints():
    lat = fm.AdaptedLattice(np.int64(2), np.int64(2))
    assert lat == fm.build_lattice(2, 2)
    assert type(lat.branching) is int and type(lat.depth) is int
    assert np.array_equal(fm.uniform_measure(lat).weights, np.full(4, 0.25))
    for name, (call, valid, _) in COUNT_SITES.items():
        got = call(np.int64(valid))
        assert type(got) is int and got == call(valid), name


@pytest.mark.parametrize("calls,args", [
    *(pytest.param((fm.AdaptedLattice, fm.build_lattice), (b, K), id=f"{b}-{K}")
      for b, K in [(True, 2), (2, True), (2.5, 2), (2, 1.5), ("2", 2), (None, 2),
                   (float("nan"), 2), (2, float("inf")), (1, 2), (2, 0),
                   (2.0, 2), (3.0, 2), (2, 2.0)]),
    *(pytest.param((call,), (bad,), id=f"{name}-{bad!r}")
      for name, (call, *_, out) in {**COUNT_SITES, **_REJECT_ONLY}.items()
      for bad in (True, 1.5, 2.0, "2", None, out)),
])
def test_lattice_rejects_non_integral_sizes(calls, args):
    for call in calls:
        with pytest.raises(fm.ParameterError, match="must be an integer"):
            call(*args)


@pytest.mark.parametrize("b,K", [(2, 1), (2, 4), (3, 3), (7, 2), (10, 2)])
def test_path_index_inverts_path_label(b, K):
    lat = fm.build_lattice(b, K)
    assert [lat.path_index(label) for label in lat.labels()] == list(range(lat.n_paths))
    assert fm.AdaptedLattice.for_labels(lat.labels()) == lat


@pytest.mark.parametrize("label", ["02", "2", "012", "", "0a", " 01", "+1", "0_1", "¹0",
                                   "١0", "0١", "-1"])
def test_path_index_accepts_only_ascii_digits_below_b(label):
    with pytest.raises(fm.ParameterError, match="bad path label"):
        fm.build_lattice(2, 2).path_index(label)


def test_labels_need_branching_at_most_ten():
    lat = fm.build_lattice(11, 1)
    with pytest.raises(fm.ParameterError, match="branching <= 10"):
        lat.path_label(0)
    with pytest.raises(fm.ParameterError, match="branching <= 10"):
        lat.path_index("0")


@given(st.integers(2, 4), st.integers(1, 5))
def test_partition_refinement_chain(b, K):
    lat = fm.build_lattice(b, K)
    assert len(lat.partition(0)) == 1
    assert len(lat.partition(K)) == lat.n_paths
    for k in range(K):
        coarse = {(c.start, c.stop) for c in lat.partition(k)}
        for blk in lat.partition(k + 1):
            parents = [c for c in coarse if c[0] <= blk.start and blk.stop <= c[1]]
            assert len(parents) == 1
    # every path in exactly one block per level
    for k in range(K + 1):
        covered = sorted(i for blk in lat.partition(k) for i in blk)
        assert covered == list(range(lat.n_paths))


def test_uniform_measure_values():
    for b, K in [(2, 1), (2, 2), (3, 1)]:
        Q = fm.uniform_measure(fm.build_lattice(b, K))
        assert np.allclose(Q.weights, 1.0 / b ** K, atol=0, rtol=0)


def test_measure_validation():
    lat = fm.build_lattice(2, 1)
    with pytest.raises(fm.ParameterError):
        fm.Measure(lat, [0.6, 0.6])
    with pytest.raises(fm.ParameterError):
        fm.Measure(lat, [-0.1, 1.1])
    with pytest.raises(fm.ParameterError):
        fm.Measure(lat, [1.0])
    q = fm.Measure(lat, [0.25, 0.75])
    with pytest.raises(ValueError):
        q.weights[0] = 0.5  # frozen


def test_density_round_trip():
    lat = fm.build_lattice(2, 2)
    Q = fm.Measure(lat, [0.1, 0.2, 0.3, 0.4])
    F = Q.density()
    assert abs(F.values.mean() - 1.0) <= NORMALIZATION_TOL
    back = F.measure()
    assert np.allclose(back.weights, Q.weights, atol=1e-16)
    with pytest.raises(fm.ParameterError):
        fm.Density(lat, [2.0, 2.0, 2.0, 2.0])


# -- conditional expectation ---------------------------------------------------

def test_cond_exp_two_point_average(two_path_lattice):
    U = fm.uniform_measure(two_path_lattice)
    out = fm.cond_exp(np.array([2.0, 0.5]), 0, U)
    assert np.array_equal(out, [1.25, 1.25])


def test_cond_exp_measurable_at_own_level_is_identity(two_path_lattice):
    x = np.array([2.0, 0.5])
    for Q in [fm.uniform_measure(two_path_lattice),
              fm.Measure(two_path_lattice, [1 / 3, 2 / 3]),
              fm.Measure(two_path_lattice, [0.9, 0.1])]:
        out = fm.cond_exp(x, 1, Q)
        assert np.array_equal(out, x)


def test_cond_exp_hand_weighted_average(two_path_lattice):
    # 2*(1/3) + 0.5*(2/3) = 1.0
    Q = fm.Measure(two_path_lattice, [1 / 3, 2 / 3])
    out = fm.cond_exp(np.array([2.0, 0.5]), 0, Q)
    assert np.allclose(out, 1.0, atol=1e-15)


def test_cond_exp_zero_block_flag():
    lat = fm.build_lattice(2, 1)
    Q = fm.Measure(lat, [0.0, 1.0])
    out = fm.cond_exp(np.array([7.0, 3.0]), 1, Q)
    assert out.tolist() == [0.0, 3.0]


def test_cond_exp_columns_match_vectors():
    lat = fm.build_lattice(2, 2)
    rng = np.random.default_rng(0)
    Q = random_measure(rng, lat)
    X = rng.normal(size=(4, 3))
    out = fm.cond_exp(X, 1, Q)
    for col in range(3):
        assert np.array_equal(out[:, col], fm.cond_exp(X[:, col], 1, Q))


def test_cond_exp_reweighted_hand_value(two_path_lattice):
    # ((2/3*2 + 4/3*0.5)/2) / ((2/3 + 4/3)/2) = 1.0
    base = fm.uniform_measure(two_path_lattice)
    F = fm.Density(two_path_lattice, [2 / 3, 4 / 3])
    out = fm.cond_exp_reweighted(np.array([2.0, 0.5]), F, 0, base)
    assert np.allclose(out, 1.0, atol=1e-15)


def test_cond_exp_reweighted_identity_density(two_path_lattice):
    base = fm.uniform_measure(two_path_lattice)
    F = fm.Density(two_path_lattice, [1.0, 1.0])
    x = np.array([2.0, 0.5])
    for k in (0, 1):
        assert np.array_equal(fm.cond_exp_reweighted(x, F, k, base),
                              fm.cond_exp(x, k, base))


def test_cond_exp_reweighted_measurable_level(two_path_lattice):
    base = fm.uniform_measure(two_path_lattice)
    F = fm.Density(two_path_lattice, [2 / 3, 4 / 3])
    x = np.array([2.0, 0.5])
    assert np.array_equal(fm.cond_exp_reweighted(x, F, 1, base), x)


def test_cond_exp_reweighted_equivalence_violation():
    lat = fm.build_lattice(2, 1)
    base = fm.uniform_measure(lat)
    F = fm.Density(lat, [0.0, 2.0])
    with pytest.raises(fm.EquivalenceViolationError):
        fm.cond_exp_reweighted(np.array([1.0, 2.0]), F, 1, base)


@settings(max_examples=60, deadline=None)
@given(lattice_measure_vector())
def test_tower_property(data):
    lat, Q, x = data
    for k in range(lat.depth + 1):
        for l in range(k, lat.depth + 1):
            lhs = fm.cond_exp(fm.cond_exp(x, l, Q), k, Q)
            rhs = fm.cond_exp(x, k, Q)
            assert np.abs(lhs - rhs).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(lattice_measure_vector(), st.integers(0, 10))
def test_reweighting_identity(data, k_pick):
    lat, Q, x = data
    base = fm.uniform_measure(lat)
    F_raw = Q.weights * lat.n_paths
    if np.any(F_raw <= 0):
        return
    F = fm.Density(lat, F_raw)
    k = k_pick % (lat.depth + 1)
    lhs = fm.cond_exp_reweighted(x, F, k, base)
    rhs = fm.cond_exp(x, k, Q)
    assert np.abs(lhs - rhs).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(lattice_measure_vector())
def test_cond_exp_linear_and_idempotent(data):
    lat, Q, x = data
    rng = np.random.default_rng(7)
    y = rng.normal(size=lat.n_paths)
    for k in range(lat.depth + 1):
        lin = fm.cond_exp(2.5 * x - 0.5 * y, k, Q)
        parts = 2.5 * fm.cond_exp(x, k, Q) - 0.5 * fm.cond_exp(y, k, Q)
        assert np.abs(lin - parts).max() <= 1e-12
        once = fm.cond_exp(x, k, Q)
        assert np.array_equal(fm.cond_exp(once, k, Q), once)  # exact: block-constant input


# -- process container ----------------------------------------------------------

def test_process_rejects_non_adapted():
    lat = fm.build_lattice(2, 1)
    vals = np.array([[[1.0], [1.1]], [[2.0], [0.5]]])  # differs at time 0
    with pytest.raises(fm.ParameterError, match="time 0, block 0"):
        fm.LatticeProcess(lat, 1, 1, vals)


def test_process_shape_validation():
    lat = fm.build_lattice(2, 1)
    with pytest.raises(fm.ParameterError):
        fm.LatticeProcess(lat, 1, 1, np.ones((3, 2, 1)))  # wrong time axis
    with pytest.raises(fm.ParameterError):
        fm.LatticeProcess(lat, 2, 1, np.ones((2, 2, 1)))  # wrong component count


def test_exchange_slices(two_path_pair):
    ex0 = two_path_pair.exchange(0)
    assert ex0.shape == (2, 2, 1)
    assert np.array_equal(ex0, two_path_pair.exchange(1))


# -- branch duplication ----------------------------------------------------------

def test_duplicate_branches_shape_and_values(two_path):
    fine = fm.duplicate_branches(two_path, copies=2)
    assert fine.lattice.branching == 4
    assert fine.lattice.n_paths == 4
    assert sorted(fine.values[1, :, 0].tolist()) == [0.5, 0.5, 2.0, 2.0]


def test_lift_measure_preserves_functionals(two_path):
    Q = fm.Measure(two_path.lattice, [0.3, 0.7])
    fine_g = fm.duplicate_branches(two_path, copies=3)
    fine_Q = fm.lift_measure(Q, copies=3)
    assert abs(fine_Q.weights.sum() - 1.0) <= 1e-12
    for p in (1.0, 2.0):
        coarse = fm.unfairness_m(Q, two_path, fm.UnfairnessConfig(p=p))
        fine = fm.unfairness_m(fine_Q, fine_g, fm.UnfairnessConfig(p=p))
        assert fine == pytest.approx(coarse, rel=1e-12)
    assert fm.unfairness_n(fine_Q, fine_g) == pytest.approx(
        fm.unfairness_n(Q, two_path), rel=1e-12)
