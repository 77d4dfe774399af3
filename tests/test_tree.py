"""The node kernel against the path-level reference in ``reference.py``.

Differential and hypothesis tests: values and gradients of m, n, the
correlation floor and the p = 2 inner product, on batches of weight rows
(including zero-weight blocks), the exact cases the acceptance gate
relies on, and the grid oracle against the full-grid loop it replaced.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairmeasure as fm
from fairmeasure import UnfairnessConfig, _tree
from fairmeasure._tree import Floor, Tree
from fairmeasure.solver import _in_box_blocks, _Objective, _run_bounds, box_bounds
from fairmeasure.verify import _central_difference

import reference as ref
from conftest import martingale_from_terminal, random_measure, random_process

RTOL = 1e-12


def close(a, b, rtol=RTOL):
    """Agreement up to summation order: relative, with an absolute floor at
    the scale of the reference's own rounding."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.allclose(a, b, rtol=rtol, atol=rtol * max(1.0, float(np.abs(b).max())))


@st.composite
def instances(draw, positive=False, d_max=2):
    """(process, weight rows): b <= 4, K <= 4, n and d <= 2, G in 1..3 rows of
    integer weights, some of them zero (so whole blocks can carry none)."""
    b = draw(st.integers(2, 4))
    K = draw(st.integers(1, 4 if b < 4 else 3))
    n = draw(st.integers(1, 2))
    d = draw(st.integers(1, d_max))
    lat = fm.build_lattice(b, K)
    G = draw(st.integers(1, 3))
    P = lat.n_paths
    rows = draw(st.lists(st.lists(st.integers(0, 6), min_size=P, max_size=P),
                         min_size=G, max_size=G))
    Q = np.array(rows, dtype=float)
    Q[Q.sum(axis=1) == 0.0, 0] = 1.0
    Q /= Q.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    g = random_process(rng, lat, n=n, d=d, low=0.3 if positive else -3.0, high=3.0)
    return g, Q


def tree_of(g):
    return Tree(g)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_m_values_match_reference(case):
    g, Q = case
    tree = tree_of(g)
    W = tree.node_weights(Q)
    for p in (0.5, 1.0, 1.5, 2.0, 3.0):
        batch = tree.m(W, p)
        expect = [ref.m_raw(q, g, p, include_diagonal=True) for q in Q]
        assert close(batch, expect)
        public = [fm.unfairness_m(fm.Measure(g.lattice, q), g, UnfairnessConfig(p=p))
                  for q in Q]
        assert close(public, expect)


@settings(max_examples=100, deadline=None)
@given(instances(positive=True))
def test_n_values_match_reference(case):
    g, Q = case
    tree = tree_of(g)
    assert close(tree.n_value(tree.node_weights(Q)), [ref.n_raw(q, g) for q in Q])
    public = [fm.unfairness_n(fm.Measure(g.lattice, q), g) for q in Q]
    assert close(public, [ref.n_raw(q, g) for q in Q])


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(0, 2 ** 31))
def test_inner_product_matches_reference(case, seed):
    g, Q = case
    y = random_process(np.random.default_rng(seed), g.lattice, n=g.n, d=g.d)
    for q in Q:
        got = fm.inner_product_m(fm.Measure(g.lattice, q), g, y)
        assert close(got, ref.inner_raw(q, g, y))


@settings(max_examples=100, deadline=None)
@given(instances(positive=True, d_max=1))
def test_correlation_integrals_match_reference(case):
    g, Q = case
    if g.n < 2:
        g = fm.LatticeProcess(g.lattice, 2, 1, np.concatenate((g.values, g.values ** 2), axis=2))
    tree = tree_of(g)
    batch = Floor(tree, [(0, 1)]).moments(tree.node_weights(Q))[0][:, 0]
    assert close(batch, [ref.corr_raw(q, g, 0, 1) for q in Q], rtol=1e-10)
    public = [fm.correlation_integral(fm.Measure(g.lattice, q), g, 0, 1) for q in Q]
    assert close(public, [ref.corr_raw(q, g, 0, 1) for q in Q], rtol=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(2, 4), st.integers(1, 3),
       st.integers(0, 2 ** 31))
def test_reported_correlations_are_the_solvers_floats(b, K, n, G, seed):
    """Every pair's integral is one float: the solver's all-pairs Floor on
    a batch of G rows, ``check_constraints`` and ``correlation_integral``
    (either order of the pair) on each row alone."""
    lat = fm.build_lattice(b, K)
    rng = np.random.default_rng(seed)
    g = random_process(rng, lat, n=n, low=-3.0, high=3.0)
    Q = rng.uniform(0.1, 1.0, (G, lat.n_paths))
    Q /= Q.sum(axis=1, keepdims=True)
    params = fm.ConstraintParams(N=2.0, c=0.0)
    floor = _Objective(g, params).floor
    batch = floor.moments(floor.tree.node_weights(Q))[0]
    for q, row in zip(Q, batch):
        measure = fm.Measure(lat, q)
        solver = dict(zip(floor.pairs, row.tolist()))
        assert fm.check_constraints(measure, g, params).correlation == solver
        for (i, j), value in solver.items():
            assert fm.correlation_integral(measure, g, i, j) == value
            assert fm.correlation_integral(measure, g, j, i) == value


@settings(max_examples=100, deadline=None)
@given(instances(positive=True))
def test_adjoint_gradients_match_reference(case):
    g, Q = case
    tree = tree_of(g)
    W = tree.node_weights(Q)
    for p in (1.0, 1.5, 2.0, 3.0):
        terms, D = tree.m(W, p, adjoint=True)
        assert close(tree.reverse(terms, D), [ref.grad_m(q, g, p) for q in Q])
    terms, D = tree.n_value(W, adjoint=True)
    assert close(tree.reverse(terms, D), [ref.grad_n(q, g) for q in Q])


@settings(max_examples=60, deadline=None)
@given(instances(positive=True, d_max=1), st.floats(-50.0, 50.0))
def test_penalty_gradient_matches_reference(case, weight):
    """The gradient of m plus a weighted floor integral, one adjoint sweep,
    against the path-level loops."""
    g, Q = case
    if g.n < 2:
        g = fm.LatticeProcess(g.lattice, 2, 1, np.concatenate((g.values, 1.0 / g.values), axis=2))
    params = fm.ConstraintParams(N=2.0, c=0.0, p=2.0)
    for q in Q:
        got = _Objective(g, params).gradient(q, weights=np.array([weight]))
        expect = ref.grad_m(q, g, 2.0) + weight * ref.grad_corr(q, g, 0, 1)
        assert close(got, expect)


@settings(max_examples=60, deadline=None)
@given(instances(positive=True, d_max=1))
def test_floor_jacobian_matches_reference(case):
    """Every pair's integral gradient at once, against the path-level loop
    of each pair, on three exchanges."""
    g, Q = case
    g = fm.LatticeProcess(g.lattice, 3, 1, np.concatenate(
        (g.values[..., :1], 1.0 / g.values[..., :1], g.values[..., :1] ** 2), axis=2))
    tree = Tree(g)
    floor = Floor(tree, [(0, 1), (0, 2), (1, 2)])
    jac = floor.jacobian(floor.moments(tree.node_weights(Q)))
    for q, rows in zip(Q, jac):
        assert close(rows, [ref.grad_corr(q, g, i, j) for i, j in floor.pairs])


@settings(max_examples=60, deadline=None)
@given(instances(positive=True, d_max=1), st.sampled_from(["m", "n"]))
def test_batched_fd_gradient_matches_loop(case, objective):
    """The central differences of ``verify``'s gradient check, two kernel
    calls over P perturbed rows each, against the coordinate loop of single
    evaluations in ``reference``: the kernel treats rows independently, so
    the two agree float for float."""
    g, Q = case
    q = 0.5 * Q[0] + 0.5 / g.lattice.n_paths  # positive, so central differences are defined
    obj = _Objective(g, fm.ConstraintParams(N=4.0, p=2.0, objective=objective))
    assert np.array_equal(_central_difference(obj, q), ref.central_difference(obj, q, 1e-6))


# -- exact cases -------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(instances(), st.floats(-5.0, 5.0))
def test_constant_process_is_exactly_zero(case, level):
    g, Q = case
    const = fm.LatticeProcess(g.lattice, g.n, g.d, np.full(g.values.shape, level))
    tree = tree_of(const)
    W = tree.node_weights(Q)
    # a zero-weight block averages to 0 by convention, so the gradient is
    # exactly 0 only where every block carries weight
    W_pos = tree.node_weights(0.5 * Q + 0.5 / g.lattice.n_paths)
    for p in (0.5, 1.0, 2.0, 3.0):
        assert np.all(tree.m(W, p) == 0.0)
        terms, D = tree.m(W_pos, p, adjoint=True)
        assert np.all(tree.reverse(terms, D) == 0.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2 ** 31))
def test_one_step_random_measure_martingales_are_exact(b, seed):
    rng = np.random.default_rng(seed)
    lat = fm.build_lattice(b, 1)
    Q = random_measure(rng, lat)
    mart = martingale_from_terminal(rng.uniform(0.5, 4.0, lat.n_paths), Q)
    for p in (1.0, 2.0, 3.0):
        assert fm.unfairness_m(Q, mart, UnfairnessConfig(p=p)) <= 1e-18


def test_zero_weight_blocks_average_to_zero():
    lat = fm.build_lattice(2, 2)
    g = random_process(np.random.default_rng(3), lat)
    tree = tree_of(g)
    Q = np.array([[0.0, 0.0, 0.25, 0.75]])
    A = tree.averages(tree.node_weights(Q), lat.depth)
    assert A[1][0, 0].tolist() == [[0.0]]
    assert np.all(np.isfinite(A[0]))


# -- the fold against the stacked reference --------------------------------------

def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def fold_cases(draw):
    """(tree, node weights): b <= 4 (b = 2 in half the draws), K <= 4,
    n <= 3 and d in {1, 2} (a scalar process in half the draws), G in
    {1, 3, 2000} rows of random weights; in about two of three draws each
    node of one level carries no weight with probability 1/3, so some rows
    have weightless nodes down to the leaves."""
    b, K = draw(st.sampled_from([2, 2, 3, 4])), draw(st.integers(1, 4))
    lat = fm.build_lattice(b, K)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    n, d = (1, 1) if draw(st.booleans()) else (draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    g = random_process(rng, lat, n=n, d=d, low=-3.0, high=3.0)
    G = draw(st.sampled_from([1, 3, 2000]))
    Q = rng.uniform(0.0, 1.0, (G, lat.n_paths))
    level = draw(st.sampled_from([None, *range(1, K + 1)]))
    if level is not None:
        blocks = Q.reshape(G, b ** level, -1)
        blocks[rng.uniform(size=(G, b ** level)) < 1 / 3] = 0.0
    tree = Tree(g)
    return tree, tree.node_weights(Q)


@settings(max_examples=80, deadline=None)
@given(fold_cases())
def test_fold_is_the_stacked_fold_bit_for_bit(case):
    """Averaging a binary scalar step's child column apart changes no
    float: every level at every horizon, weightless nodes included."""
    tree, W = case
    for horizon in range(1, tree.K + 1):
        got, expect = tree.averages(W, horizon), ref.stacked_averages(tree, W, horizon)
        assert all(same_bits(a, e) for a, e in zip(got, expect))


@settings(max_examples=80, deadline=None)
@given(fold_cases())
def test_m_value_pass_is_the_stacked_sum_bit_for_bit(case):
    """The value pass, deviations and norms written over the averages, is
    the einsum sum over the stacked fold's averages, float for float."""
    tree, W = case
    for p in (0.5, 1.0, 1.5, 2.0, 3.0):
        expect = ref.m_from_averages(tree, W, ref.stacked_averages(tree, W, tree.K), p)
        assert same_bits(tree.m(W, p), expect)


@st.composite
def layout_cases(draw):
    """(tree, weight rows, positive): b in 2..6 with b^K <= 64, n and d <= 2,
    a process of positive values in half the draws, G in 2..300 rows of
    random weights; in about two of three draws each node of one level
    carries no weight with probability 1/3."""
    b = draw(st.integers(2, 6))
    K = draw(st.integers(1, {2: 6, 3: 3, 4: 3, 5: 2, 6: 2}[b]))
    lat = fm.build_lattice(b, K)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    positive = draw(st.booleans())
    g = random_process(rng, lat, n=draw(st.integers(1, 2)), d=draw(st.integers(1, 2)),
                       low=0.3 if positive else -3.0, high=3.0)
    G = draw(st.integers(2, 300))
    Q = rng.uniform(0.0, 1.0, (G, lat.n_paths))
    level = draw(st.sampled_from([None, *range(1, K + 1)]))
    if level is not None:
        blocks = Q.reshape(G, b ** level, -1)
        blocks[rng.uniform(size=(G, b ** level)) < 1 / 3] = 0.0
    Q[Q.sum(axis=1) == 0.0, 0] = 1.0
    return Tree(g), Q, positive


def value_passes(tree, Q, positive):
    """m at p in {1, 1.5, 2, 3}, n where the values are positive and the
    floor's integrals where there is a pair of scalar exchanges."""
    W = tree.node_weights(Q)
    out = [tree.m(W, p) for p in (1.0, 1.5, 2.0, 3.0)]
    if positive:
        out.append(tree.n_value(W))
    if tree.n == 2 and tree.d == 1:
        out.append(Floor(tree, [(0, 1)]).moments(W)[0])
    return out


@settings(max_examples=100, deadline=None)
@given(layout_cases())
def test_value_passes_do_not_depend_on_the_layout(case):
    """The oracle hands the kernel column-major blocks: a row-major block,
    its column-major copy and a row slice of a taller column-major block
    give m, n and the floor's integrals the same bytes."""
    tree, Q, positive = case
    G = len(Q)
    taller = np.asfortranarray(np.vstack([Q[::-1], Q, Q[::-1]]))
    column_major, row_slice = np.asfortranarray(Q), taller[G:2 * G]
    assert column_major.flags.f_contiguous and not column_major.flags.c_contiguous
    assert not (row_slice.flags.f_contiguous or row_slice.flags.c_contiguous)
    expect = value_passes(tree, Q, positive)
    for block in (column_major, row_slice):
        got = value_passes(tree, block, positive)
        assert len(got) == len(expect) and all(map(same_bits, got, expect))


@pytest.mark.parametrize("zero", [False, True])
@pytest.mark.parametrize("b, K, n, d", [(2, 1, 2, 1), (3, 1, 2, 2), (2, 3, 1, 1), (4, 2, 2, 2)])
def test_kernel_passes_leave_their_inputs_alone(b, K, n, d, zero):
    """The value pass overwrites only arrays it made: the node arrays, the
    process values and the caller's weight rows keep their bytes, and a
    second call returns the first call's bytes.  ``zero`` takes the fold's
    path for weightless nodes (a weightless leaf, and a weightless level-(K-1)
    node where K > 1); the scalar binary case takes the two-call step."""
    lat = fm.build_lattice(b, K)
    rng = np.random.default_rng(b * 10 + K)
    g = random_process(rng, lat, n=n, d=d, low=0.3, high=3.0)
    y = random_process(rng, lat, n=n, d=d, low=0.3, high=3.0)
    Q = rng.uniform(0.5, 1.0, (3, lat.n_paths))
    if zero:
        Q[:, :b if K > 1 else 1] = 0.0
    Q /= Q.sum(axis=1, keepdims=True)
    tree = Tree(g)
    pair = Tree(fm.LatticeProcess(lat, 2 * n, d, np.concatenate((g.values, y.values), axis=2)))
    W, pair_W = tree.node_weights(Q), pair.node_weights(Q)
    measure = fm.Measure(lat, Q[0])
    inputs = lambda: [g.values, y.values, Q, measure.weights] + tree.nodes + pair.nodes + W + pair_W
    saved = [x.copy() for x in inputs()]
    calls = [lambda p=p: tree.m(W, p) for p in (0.5, 1.0, 2.0, 3.0)] + [
        lambda: tree.n_value(W),
        lambda: pair.inner(pair_W, g.n_components),
        lambda: np.float64(fm.is_martingale(measure, g).max_deviation)]
    for call in calls:
        first = call()
        assert same_bits(call(), first)
        assert all(same_bits(a, e) for a, e in zip(inputs(), saved))


@pytest.mark.parametrize("b, K, n, d", [(2, 3, 1, 1), (3, 2, 2, 2), (2, 5, 2, 1)])
def test_reverse_leaves_its_adjoint_alone(b, K, n, d):
    """The sweep builds its running sum of D in arrays of its own: two
    reverse calls on one (terms, D) give the same bytes, and D keeps its
    bytes, for m (every horizon) and n (one step)."""
    lat = fm.build_lattice(b, K)
    rng = np.random.default_rng(b * 10 + K)
    tree = Tree(random_process(rng, lat, n=n, d=d, low=0.3, high=3.0))
    W = tree.node_weights(rng.dirichlet(np.ones(lat.n_paths), 3))
    for terms, D in (tree.m(W, 2.0, adjoint=True), tree.m(W, 1.5, adjoint=True),
                     tree.n_value(W, adjoint=True)):
        saved = [x.copy() for x in D]
        first = tree.reverse(terms, D)
        assert all(map(same_bits, D, saved))
        assert same_bits(tree.reverse(terms, D), first)


def objectives(lat, rng):
    """m at p = 2 and 1.5 and n on one scalar exchange, m on two vector
    exchanges, and m at p = 2 with a correlation floor on two scalar ones,
    its integral weighted by 25 in the gradient; each with its weights."""
    one = random_process(rng, lat, n=1, low=0.3, high=3.0)
    two = random_process(rng, lat, n=2, low=0.3, high=3.0)
    vector = random_process(rng, lat, n=2, d=2, low=0.3, high=3.0)
    return [(_Objective(one, fm.ConstraintParams(N=4.0, p=p)), None) for p in (2.0, 1.5)] + [
        (_Objective(one, fm.ConstraintParams(N=4.0, objective="n")), None),
        (_Objective(vector, fm.ConstraintParams(N=4.0)), None),
        (_Objective(two, fm.ConstraintParams(N=4.0, c=1.0)), np.array([25.0]))]


@pytest.mark.parametrize("b, K", [(2, 3), (3, 2), (4, 2), (2, 5)])
def test_adjoint_does_not_depend_on_the_layout(b, K):
    """The objective takes its rows C-contiguous, so the gradient of a
    column-major copy of 50 rows has the bytes of the row-major rows, and
    so have the values."""
    lat = fm.build_lattice(b, K)
    rng = np.random.default_rng(b * 10 + K)
    Q = rng.dirichlet(np.ones(lat.n_paths), 50)
    column_major = np.asfortranarray(Q)
    assert not column_major.flags.c_contiguous
    for obj, weights in objectives(lat, rng):
        assert same_bits(obj.gradient(column_major, weights=weights),
                         obj.gradient(Q, weights=weights))
        assert all(map(same_bits, obj.evaluate(column_major), obj.evaluate(Q)))


@pytest.mark.parametrize("b, K", [(2, 1), (2, 4), (3, 2)])
def test_a_tape_serves_its_value_and_gradient_unchanged(b, K):
    """A point's tape gives the value and the gradient that a fresh forward
    pass gives, float for float, and neither pass writes over it; the rows
    taken from a tape differentiate as their own tape does."""
    lat = fm.build_lattice(b, K)
    rng = np.random.default_rng(b * 10 + K + 1)
    Q = rng.dirichlet(np.ones(lat.n_paths), 4)
    for obj, weights in objectives(lat, rng):
        tape = obj.tape(Q)
        arrays = lambda t: t.W + t.A + ([] if t.moments is None
                                        else [t.moments[0], *t.moments[1]])
        saved = [x.copy() for x in arrays(tape)]
        assert all(map(same_bits, obj.evaluate(Q, tape), obj.evaluate(Q)))
        assert same_bits(obj.gradient(Q, tape, weights), obj.gradient(Q, weights=weights))
        assert all(map(same_bits, arrays(tape), saved))
        for rows in ([2, 0], np.array([True, False, True, True])):
            assert same_bits(obj.gradient(Q[rows], tape.take(rows), weights),
                             obj.gradient(Q[rows], weights=weights))


# -- the brute-force grid ----------------------------------------------------------

def reference_brute_force(g, params, resolution):
    """The whole grid at once, scored by the path-level reference."""
    lat = g.lattice
    P = lat.n_paths
    lo, hi = box_bounds(lat, params.N)
    axes = [np.linspace(lo[i], hi[i], resolution + 1) for i in range(P - 1)]
    mesh = np.meshgrid(*axes, indexing="ij")
    head = np.stack([m.reshape(-1) for m in mesh], axis=1)
    last = 1.0 - head.sum(axis=1)
    keep = (last >= lo[-1] - 1e-12) & (last <= hi[-1] + 1e-12)
    cand = np.column_stack([head[keep], np.clip(last[keep], lo[-1], hi[-1])])
    values = np.array([ref.m_raw(q, g, params.p) for q in cand])
    best = int(np.argmin(values))
    return cand[best], values[best]


@pytest.mark.parametrize("block", [None, 7])
def test_brute_force_matches_full_grid_reference(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(_tree, "BLOCK_ELEMS", block)
    rng = np.random.default_rng(17)
    flat = fm.LatticeProcess(fm.build_lattice(2, 2), 1, 1, np.ones((3, 4, 1)))  # all tie at 0
    cases = [(random_process(rng, fm.build_lattice(b, K), low=0.5, high=2.5), res)
             for b, K, res in [(2, 1, 50), (2, 2, 12), (4, 1, 10)]] + [(flat, 6)]
    for g, res in cases:
        params = fm.ConstraintParams(N=2.0, p=2.0)
        q_ref, v_ref = reference_brute_force(g, params, res)
        got = fm.brute_force_min(g, params, resolution=res)
        assert got.value == pytest.approx(v_ref, rel=1e-12, abs=1e-15)
        assert np.array_equal(got.measure.weights, q_ref)


def grid_correlations(g, N, resolution):
    """The floor integral of exchanges 0 and 1 at every grid row in the box."""
    tree = Tree(g)
    cand = ref.grid_rows(g.lattice, N, resolution)
    return Floor(tree, [(0, 1)]).moments(tree.node_weights(cand))[0][:, 0]


def oracle_outcome(search, g, params, resolution):
    """(value, weight bytes), or the type and text of the error raised."""
    try:
        got = search(g, params, resolution)
    except fm.FairmeasureError as exc:
        return type(exc), str(exc)
    return got.value, got.measure.weights.tobytes()


@st.composite
def grid_instances(draw):
    """(process, params, resolution, BLOCK_ELEMS or None, floor mode).

    P in 2..6 (b = 2 with K <= 2, or b in 3..6 with K = 1); N at 1, at
    1 + 1e-9 or up to 4; m at p in {1, 1.5, 2, 3} or n, on a random or a flat
    process; an active two-exchange floor or one no grid point meets; rows
    scored in the default blocks, in blocks of 7 entries (chunks of 7
    prefixes, blocks of one row or one run) or in blocks capped at 2 to
    2 * resolution + 3 rows, no multiple of the axis width, so that some
    blocks hold several runs and some one run longer than the cap.  Grids
    reach about 2e5 points."""
    b = draw(st.integers(2, 6))
    lat = fm.build_lattice(b, draw(st.integers(1, 2)) if b == 2 else 1)
    P = lat.n_paths
    floor = draw(st.sampled_from([None, None, "active", "unmet"]))
    n = 2 if floor else draw(st.integers(1, 2))
    if draw(st.booleans()) and not floor:
        g = fm.LatticeProcess(lat, n, 1, np.ones((lat.depth + 1, P, n)))  # every point ties
    else:
        g = random_process(np.random.default_rng(draw(st.integers(0, 2 ** 16))), lat, n=n,
                           low=0.5, high=2.5)
    N = draw(st.sampled_from([1.0, 1.0 + 1e-9]) | st.floats(1.0, 4.0))
    block = draw(st.sampled_from([None, 7, "split"]))
    points = min({None: 2e5, 7: 300, "split": 1500}[block], 2e4 if floor else 2e5)
    r_max = 1
    while r_max < 2000 and (r_max + 2) ** (P - 1) <= points:
        r_max += 1
    resolution = draw(st.just(r_max) | st.integers(1, r_max))
    if block == "split":  # caps that are not whole runs of the last axis
        block = P * draw(st.integers(2, 2 * resolution + 3).filter(
            lambda rows: rows % (resolution + 1) != 0))
    objective = draw(st.sampled_from(["m", "n"]))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    c = None
    if floor:
        free = ref.grid_min(g, fm.ConstraintParams(N=N, p=p, objective=objective), resolution)
        at_free = fm.correlation_integral(free.measure, g, 0, 1)
        top = float(grid_correlations(g, N, resolution).max())
        c = top + 0.5 if floor == "unmet" else at_free + (top - at_free) * draw(
            st.floats(0.1, 1.0))
    return g, fm.ConstraintParams(N=N, c=c, p=p, objective=objective), resolution, block, floor


@settings(max_examples=60, deadline=None)
@given(grid_instances())
def test_brute_force_is_bit_identical_to_the_full_grid_search(case):
    """The in-box enumeration against the full-grid loop it replaced: the
    same value and the same weight bytes, or the same error and text."""
    g, params, resolution, block, floor = case
    with mock.patch.object(_tree, "BLOCK_ELEMS", block or _tree.BLOCK_ELEMS):
        expect = oracle_outcome(ref.grid_min, g, params, resolution)
        got = oracle_outcome(fm.brute_force_min, g, params, resolution)
    assert got == expect
    if floor == "unmet":
        assert expect == (fm.InfeasibleError,
                          f"no grid point satisfies the correlation floor c={params.c}")
    else:
        assert isinstance(expect[0], float)


def exact_prefix_sums(axis, target):
    """Prefix sums s, near each axis value's, at which 1.0 - (s + axis[j])
    lands exactly on ``target``, and one ulp either side of each."""
    found = []
    for a in np.unique(axis):
        s = (1.0 - target) - a
        for _ in range(8):  # walk down a few ulps, then up through the hits
            s = np.nextafter(s, -np.inf)
        for _ in range(16):
            if 1.0 - (s + a) == target:
                found += [np.nextafter(s, -np.inf), s, np.nextafter(s, np.inf)]
            s = np.nextafter(s, np.inf)
    return np.array(found)


@pytest.mark.parametrize("width", [2, 25, 201, 2001])
@pytest.mark.parametrize("P,N", [(3, 1.3), (4, 1.5), (6, 3.85), (4, 1.0)])
def test_run_bounds_match_an_exhaustive_scan(width, P, N):
    """Each prefix's in-box run, as the bisection finds it, is the run an
    exhaustive scan of 1.0 - (s + axis[j]) keeps, also where that value lands
    exactly on lo - 1e-12 or hi + 1e-12 or an ulp from either, and on a
    constant axis (N = 1).  The boxes are chosen so that 1.0 - x can equal
    both thresholds; at N = 1 only hi + 1e-12 can be met exactly."""
    lo, hi = box_bounds(fm.build_lattice(P, 1), N)
    axis = np.linspace(lo[0], hi[0], width)
    rng = np.random.default_rng(width)
    edges = [exact_prefix_sums(axis[rng.integers(0, width, 40)], t)
             for t in (lo[-1] - 1e-12, hi[-1] + 1e-12)]
    assert edges[1].size and (edges[0].size or N == 1.0)
    s = np.concatenate([axis[rng.integers(0, width, (1000, P - 2))].sum(axis=1), *edges])
    start, stop = _run_bounds(s, axis, lo[-1], hi[-1])
    last = 1.0 - np.add.outer(s, axis)
    keep = (last >= lo[-1] - 1e-12) & (last <= hi[-1] + 1e-12)
    j = np.arange(width)
    assert np.array_equal(keep, (j >= start[:, None]) & (j < stop[:, None]))
    assert np.array_equal(start, (last > hi[-1] + 1e-12).sum(axis=1))
    assert np.array_equal(stop, (last >= lo[-1] - 1e-12).sum(axis=1))


@settings(max_examples=60, deadline=None)
@given(P=st.integers(2, 6), N=st.floats(1.0, 50.0), resolution=st.integers(1, 60))
@example(P=6, N=1.0 + 1e-15, resolution=60)
@example(P=6, N=5.0, resolution=1)
@example(P=3, N=2.0, resolution=1)
@example(P=4, N=3.0, resolution=7)
def test_every_grid_has_a_point_in_the_box(P, N, resolution):
    """The oracle's grid always meets the box-simplex, so it needs no branch
    for a grid without one.  The first P - 1 coordinates sum to
    (P - 1) lo + j delta with delta = (hi - lo) / resolution <= hi - lo; these
    sums run from (P - 1) lo <= 1 - lo up to (P - 1) hi >= 1 - hi, so one of
    them lies in [1 - hi, 1 - lo], and its last coordinate is in the box.
    N = P - 1 puts (P - 1) lo on 1 - hi."""
    lo, hi = box_bounds(fm.build_lattice(P, 1), N)
    axis = np.linspace(lo[0], hi[0], resolution + 1)
    axis = axis[np.append(True, axis[1:] != axis[:-1])]   # as brute_force_min builds it
    first = next(_in_box_blocks(axis, P, lo[-1], hi[-1]))
    assert len(first) and abs(first.sum(axis=1) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("block", [None, 1, 7, 40])
@pytest.mark.parametrize("b,K,resolution,N", [(2, 1, 50, 2.0), (3, 1, 30, 1.5), (2, 2, 20, 1.5),
                                              (2, 2, 12, 1.0), (6, 1, 6, 3.0)])
def test_oracle_scores_whole_runs_in_capped_blocks(block, b, K, resolution, N):
    """The blocks the kernel scores, concatenated, are the in-box rows of
    the grid on the axis's distinct values in order, byte for byte (at
    N = 1 one row); each holds whole runs (its first
    row starts a prefix's run and its last ends one), and at most
    BLOCK_ELEMS // P rows unless it is a single run.  BLOCK_ELEMS = 1 takes
    the prefixes one chunk each."""
    lat = fm.build_lattice(b, K)
    P = lat.n_paths
    g = random_process(np.random.default_rng(3), lat, low=0.5, high=2.5)
    blocks, node_weights = [], Tree.node_weights

    def spy(tree, Q):
        blocks.append(np.array(Q, order="A"))
        return node_weights(tree, Q)

    with mock.patch.object(_tree, "BLOCK_ELEMS", block or _tree.BLOCK_ELEMS), \
            mock.patch.object(Tree, "node_weights", spy):
        fm.brute_force_min(g, fm.ConstraintParams(N=N), resolution=resolution)
        cap = _tree.BLOCK_ELEMS // P
    lo, hi = box_bounds(lat, N)
    width = len(np.unique(np.linspace(lo[0], hi[0], resolution + 1)))
    rows = ref.grid_rows(lat, N, resolution, distinct=True)
    assert np.concatenate(blocks).tobytes() == rows.tobytes()
    assert all(Q.flags.f_contiguous for Q in blocks)
    # each prefix's run: the in-box rows among its width grid rows
    runs = np.cumsum([0] + [len(ref.grid_rows(lat, N, resolution, slice(i, i + width), True))
                            for i in range(0, width ** (P - 1), width)])
    single = {(a, z) for a, z in zip(runs[:-1], runs[1:]) if z > a}
    ends = np.cumsum([0] + [len(Q) for Q in blocks])
    assert set(ends) <= set(runs)
    assert all(z - a <= cap or (a, z) in single for a, z in zip(ends[:-1], ends[1:]))
    if block == 1:
        assert set(zip(ends[:-1], ends[1:])) == single
