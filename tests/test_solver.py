import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmeasure as fm
from fairmeasure import _projection, solver
from fairmeasure._descent import TOL
from fairmeasure._projection import frank_wolfe_gap
from fairmeasure.solver import _Objective, box_bounds

import reference as ref
from conftest import random_process


# -- constraint checking ---------------------------------------------------------

def test_box_slack_at_uniform(two_path):
    for N in (1.0, 1.5, 2.0, 4.0):
        params = fm.ConstraintParams(N=N)
        rep = fm.check_constraints(fm.uniform_measure(two_path.lattice), two_path, params)
        assert rep.feasible
        # lower slack is (1 - 1/N) * mu on every atom
        assert np.allclose(rep.box_lower_slack, (1 - 1 / N) * 0.5, atol=1e-15)
        assert np.allclose(rep.box_upper_slack, (N - 1) * 0.5, atol=1e-15)


def test_correlation_integral_two_identical_assets(two_path_pair):
    # Cov = 0.5625, E|g1 g2| = 2.125 at time 1: integral = 9/34
    U = fm.uniform_measure(two_path_pair.lattice)
    val = fm.correlation_integral(U, two_path_pair, 0, 1)
    assert val == pytest.approx(0.5625 / 2.125, abs=1e-15)
    rep_lo = fm.check_constraints(U, two_path_pair, fm.ConstraintParams(N=2.0, c=0.2))
    assert rep_lo.feasible
    rep_hi = fm.check_constraints(U, two_path_pair, fm.ConstraintParams(N=2.0, c=0.3))
    assert not rep_hi.feasible


def test_box_violation_case(two_path):
    # box per atom is [0.25, 1.0]; 0.9 passes, 0.1 breaks the lower bound
    Q = fm.Measure(two_path.lattice, [0.9, 0.1])
    rep = fm.check_constraints(Q, two_path, fm.ConstraintParams(N=2.0))
    assert not rep.feasible
    assert rep.box_lower_slack[0] == pytest.approx(0.65, abs=1e-15)
    assert rep.box_upper_slack[0] == pytest.approx(0.1, abs=1e-15)
    assert rep.box_lower_slack[1] == pytest.approx(-0.15, abs=1e-15)


def test_unsupported_vector_correlation():
    lat = fm.build_lattice(3, 1)
    vals = np.ones((2, 3, 4))
    vals[1] = 1.0 + np.arange(12).reshape(3, 4) / 10.0
    g = fm.LatticeProcess(lat, 2, 2, vals)
    with pytest.raises(fm.UnsupportedConstraintError):
        fm.check_constraints(fm.uniform_measure(lat), g, fm.ConstraintParams(N=2.0, c=0.1))
    # without a floor the same process is fine
    rep = fm.check_constraints(fm.uniform_measure(lat), g, fm.ConstraintParams(N=2.0))
    assert rep.feasible


def test_constraint_params_validation():
    with pytest.raises(fm.ParameterError):
        fm.ConstraintParams(N=0.8)
    with pytest.raises(fm.ParameterError):
        fm.ConstraintParams(N=2.0, p=0.0)
    with pytest.raises(fm.ParameterError):
        fm.ConstraintParams(N=2.0, objective="z")


@pytest.mark.parametrize("field", ["N", "p"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_constraint_params_reject_non_finite(field, bad):
    with pytest.raises(fm.ParameterError, match="must be finite"):
        fm.ConstraintParams(**{"N": 2.0, field: bad})


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.5])
def test_box_bounds_need_a_finite_N_of_at_least_one(two_path, bad):
    with pytest.raises(fm.ParameterError, match="must be finite and >= 1"):
        box_bounds(two_path.lattice, bad)


# -- projection -------------------------------------------------------------------

def test_projection_identity_on_feasible(two_path):
    N = 2.0
    base = fm.uniform_measure(two_path.lattice).weights
    lo, hi = base / N, base * N
    q = np.array([0.5, 0.5])
    out = fm.project_capped_simplex(q, lo, hi)
    assert np.array_equal(out, q)
    q2 = np.array([0.4, 0.6])
    assert np.array_equal(fm.project_capped_simplex(q2, lo, hi), q2)


def test_projection_custom_box_example():
    # fine-grid oracle over the feasible segment q2 = 1 - q1, q in [0.25, 0.75]
    v = np.array([0.9, 0.1])
    lo = np.array([0.25, 0.25])
    hi = np.array([0.75, 0.75])
    grid = np.linspace(0.25, 0.75, 20001)
    dist = (grid - v[0]) ** 2 + ((1 - grid) - v[1]) ** 2
    best = grid[int(np.argmin(dist))]
    assert best == pytest.approx(0.75, abs=1e-12)
    out = fm.project_capped_simplex(v, lo, hi)
    assert np.allclose(out, [0.75, 0.25], atol=1e-12)


def test_projection_feasible_to_tolerance():
    rng = np.random.default_rng(6)
    for _ in range(30):
        lat = fm.build_lattice(2, int(rng.integers(1, 4)))
        lo, hi = box_bounds(lat, float(rng.uniform(1.0, 3.0)))
        v = rng.normal(0.0, 1.0, lat.n_paths)
        q = fm.project_capped_simplex(v, lo, hi)
        assert abs(q.sum() - 1.0) <= 1e-12
        assert np.all(q >= lo - 1e-12) and np.all(q <= hi + 1e-12)
        # idempotent and a true minimizer against a random feasible comparison point
        again = fm.project_capped_simplex(q, lo, hi)
        assert np.abs(again - q).max() <= 1e-12
        other = fm.project_capped_simplex(rng.uniform(lo, hi), lo, hi)
        assert ((q - v) ** 2).sum() <= ((other - v) ** 2).sum() + 1e-12


def test_projection_empty_box():
    with pytest.raises(fm.ParameterError):
        fm.project_capped_simplex(np.array([0.5, 0.5]),
                                  np.array([0.6, 0.6]), np.array([0.7, 0.7]))


@pytest.mark.parametrize("which", ["v", "lo", "hi"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projection_rejects_non_finite(which, bad):
    args = {"v": np.array([0.1, 0.2, 0.3, 0.4]),
            "lo": np.full(4, 0.125), "hi": np.full(4, 0.5)}
    args[which] = args[which].copy()
    args[which][0] = bad
    with pytest.raises(fm.ParameterError, match="finite"):
        fm.project_capped_simplex(args["v"], args["lo"], args["hi"])


def bisection_projection(v, lo, hi, total=1.0):
    """Reference projection: bisection on the dual variable tau of the sum
    constraint, run until the midpoint of the bracket equals an endpoint."""
    tau_lo = float((v - hi).min())
    tau_hi = float((v - lo).max())
    while True:
        tau = 0.5 * (tau_lo + tau_hi)
        if tau in (tau_lo, tau_hi):
            return np.clip(v - tau, lo, hi)
        if float(np.clip(v - tau, lo, hi).sum()) > total:
            tau_lo = tau
        else:
            tau_hi = tau


@st.composite
def projection_cases(draw, offsets=False):
    """(v, lo, hi): P in 1..64, repeated entries in v, and the uniform box
    of N in [1, 4], N = 1 (lo == hi) included, as ``box_bounds`` arrays.
    On the grid, v is a multiple of 1/8, so breakpoints tie across
    coordinates and the search lands on them exactly.  With ``offsets``, v
    moves by up to 1e5 either way."""
    P = draw(st.integers(1, 64))
    grid = draw(st.booleans())
    number = st.integers(-16, 16).map(lambda k: k / 8) if grid else st.floats(-2.0, 2.0)
    pool = draw(st.lists(number, min_size=1, max_size=P))
    v = np.array(draw(st.lists(st.sampled_from(pool), min_size=P, max_size=P)))
    if offsets:
        v = v + draw(st.one_of(st.just(0.0), st.floats(-1e5, 1e5)))
    N = draw(st.one_of(st.just(1.0), st.floats(1.0, 4.0)))
    return v, np.full(P, 1.0 / (N * P)), np.full(P, N / P)


@settings(max_examples=300, deadline=None)
@given(projection_cases())
def test_projection_matches_bisection_reference(case):
    v, lo, hi = case
    q = fm.project_capped_simplex(v, lo, hi)
    ref = bisection_projection(v, lo, hi)
    assert np.abs(q - ref).max() <= 1e-12
    assert abs(float(q.sum()) - 1.0) <= 1e-12
    assert np.all(q >= lo - 1e-15) and np.all(q <= hi + 1e-15)
    again = fm.project_capped_simplex(q, lo, hi)
    assert np.abs(again - q).max() <= 1e-12
    d_new, d_ref = float(((q - v) ** 2).sum()), float(((ref - v) ** 2).sum())
    assert d_new <= d_ref + 1e-12 * max(1.0, d_ref)


@settings(max_examples=200, deadline=None)
@given(projection_cases(), st.integers(1, 4), st.randoms(use_true_random=False))
def test_projection_rows_match_their_own_projection(case, G, rnd):
    """A (G, P) batch: each row comes out exactly as its own 1-D projection,
    whichever rows share the call, and still matches the bisection."""
    v, lo, hi = case
    rows = [v] + [np.array(rnd.sample(list(v), len(v))) + rnd.choice([0.0, 1e-3, -2.0])
                  for _ in range(G - 1)]
    V = np.array(rows)
    Q = fm.project_capped_simplex(V, lo, hi)
    assert Q.shape == V.shape
    for row, q in zip(V, Q):
        assert np.array_equal(q, fm.project_capped_simplex(row, lo, hi))
        assert np.abs(q - bisection_projection(row, lo, hi)).max() <= 1e-12
    for k in range(G):
        assert np.array_equal(fm.project_capped_simplex(V[k:], lo, hi), Q[k:])


@settings(max_examples=200, deadline=None)
@given(projection_cases(), st.floats(-1e5, 1e5), st.integers(1, 3))
def test_projection_keeps_the_sum_far_from_zero(case, offset, G):
    """Rows shifted far from 0, as a step against a large penalty gradient
    puts them, still come back on the sum constraint and in the box."""
    v, lo, hi = case
    V = np.array([v + offset * (1.0 + 0.5 * r) for r in range(G)])
    Q = fm.project_capped_simplex(V, lo, hi)
    assert np.abs(Q.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.all(Q >= lo - 1e-15) and np.all(Q <= hi + 1e-15)
    for row, q in zip(V, Q):
        assert np.array_equal(q, fm.project_capped_simplex(row, lo, hi))


def test_projection_keeps_the_sum_at_a_large_penalty_step():
    """The rows that broke a calibrated run: P = 9 points near -19998.5."""
    lo, hi = box_bounds(fm.build_lattice(3, 2), 2.0)
    rng = np.random.default_rng(3)
    V = -19998.5 + rng.uniform(-0.2, 0.2, (50, 9))
    Q = fm.project_capped_simplex(V, lo, hi)
    assert np.abs(Q.sum(axis=1) - 1.0).max() <= 1e-13
    assert np.all(Q >= lo) and np.all(Q <= hi)


def test_projection_keeps_the_sum_at_a_long_spectral_step():
    """Rows x - t g with t = 1e10, as the longest Barzilai-Borwein step
    makes them: coordinates about 1e7 apart, whose free ones cancel most of
    their digits, still come back on the sum constraint, in the box, and
    as a fixed point of the projection."""
    lo, hi = box_bounds(fm.build_lattice(3, 2), 2.0)
    rng = np.random.default_rng(4)
    X = fm.project_capped_simplex(rng.uniform(lo, hi, (50, 9)), lo, hi)
    V = X - 1e10 * rng.normal(0.0, 1e-3, (50, 9))
    Q = fm.project_capped_simplex(V, lo, hi)
    assert np.abs(Q.sum(axis=1) - 1.0).max() <= 1e-13
    assert np.all(Q >= lo) and np.all(Q <= hi)
    assert np.array_equal(fm.project_capped_simplex(Q, lo, hi), Q)


def test_projection_batch_shapes():
    lo, hi = np.full(3, 0.2), np.full(3, 0.5)
    assert fm.project_capped_simplex(np.empty((0, 3)), lo, hi).shape == (0, 3)
    for bad in (np.zeros((2, 4)), np.zeros((1, 2, 3))):
        with pytest.raises(fm.ParameterError, match="shapes"):
            fm.project_capped_simplex(bad, lo, hi)


@pytest.mark.parametrize("G, P", [(1, 2), (1, 64), (5, 2), (5, 64)])
def test_projection_uniform_array_box_is_the_float_box(G, P):
    """A box of equal arrays, as ``box_bounds`` returns it, projects to the
    bytes of the same box as two floats, for a batch and for one point."""
    rng = np.random.default_rng(G * 100 + P)
    for N in (1.0, 1.5, 4.0):
        lo, hi = box_bounds(fm.build_lattice(P, 1), N)
        V = rng.normal(1.0 / P, 2.0 / P, (G, P))
        for v in (V, V[0]):
            got = fm.project_capped_simplex(v, lo, hi)
            assert got.tobytes() == fm.project_capped_simplex(v, lo[0], hi[0]).tobytes()


@pytest.mark.parametrize("which", ["lo", "hi"])
def test_projection_nearly_uniform_array_box(which):
    """A box uniform but for one coordinate is refused, naming the rule."""
    P = 16
    bounds = {"lo": np.full(P, 0.5 / P), "hi": np.full(P, 2.0 / P)}
    bounds[which][3] = 0.1 / P if which == "lo" else 4.0 / P
    with pytest.raises(fm.ParameterError, match="the box must be uniform"):
        fm.project_capped_simplex(np.full(P, 1.0 / P), bounds["lo"], bounds["hi"])


@settings(max_examples=500, deadline=None)
@given(projection_cases(offsets=True), st.integers(1, 3))
def test_projection_matches_breakpoint_reference(case, G):
    """The Newton projection against the sorting breakpoint search it
    replaced, row by row of a batch, to 1e-15 times the larger of 1 and
    the shifted row's magnitude max|row - trunc(mean(row))|: both are exact
    up to rounding, and where the root lies within rounding of a breakpoint
    they solve neighbouring pieces, whose closed forms then differ by a few
    ulps of the held sum.  Each rounds tau at the scale of the shifted row
    it is subtracted from, so q = row - tau can differ by ulps of that
    magnitude."""
    v, lo, hi = case
    V = np.array([v[::1 - 2 * (r % 2)] + r for r in range(G)])
    Q = fm.project_capped_simplex(V, lo, hi)
    for row, q in zip(V, Q):
        expect = ref.breakpoint_projection(row, lo, hi)
        shifted = float(np.abs(row - np.trunc(row.mean())).max())
        assert np.abs(q - expect).max() <= 1e-15 * max(1.0, shifted)


@settings(max_examples=300, deadline=None)
@given(projection_cases(offsets=True), st.integers(1, 4))
def test_projection_scalar_and_array_bounds_agree(case, G):
    """A uniform box given as two floats or as two arrays gives the same
    floats, on the same checks."""
    v, lo, hi = case
    P, low, high = len(v), float(lo[0]), float(hi[0])
    V = np.array([v * (r + 1) for r in range(G)])
    arrays = fm.project_capped_simplex(V, np.full(P, low), np.full(P, high))
    assert np.array_equal(fm.project_capped_simplex(V, low, high), arrays)
    assert np.array_equal(fm.project_capped_simplex(V[0], low, high), arrays[0])
    with pytest.raises(fm.ParameterError, match="do not intersect"):
        fm.project_capped_simplex(V, low + 1.0, high + 1.0)
    with pytest.raises(fm.ParameterError, match="empty box"):
        fm.project_capped_simplex(V, high + 1.0, high)


@pytest.mark.parametrize("bounds", [(np.nan, 0.5), (0.1, np.inf), (-np.inf, 0.5)])
def test_projection_checks_scalar_bounds(bounds):
    v = np.array([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(fm.ParameterError, match="finite"):
        fm.project_capped_simplex(v, *bounds)
    with pytest.raises(fm.ParameterError, match="empty box"):
        fm.project_capped_simplex(v, 0.5, 0.25)
    with pytest.raises(fm.ParameterError, match="shapes"):
        fm.project_capped_simplex(v, 0.1, np.full(4, 0.5))


def adversarial_rows(rng, G, P, lo, hi):
    """Rows that are hard for a Newton search on tau: all-equal entries; entries
    on the breakpoint grid, k * (hi - lo) + lo, so that breakpoints tie in
    bulk; and geometric spreads over up to 40 binary orders, of either sign."""
    w = hi - lo
    yield np.full((G, P), 3.7) + np.arange(G)[:, None]
    yield np.full((G, P), -2.0)
    yield rng.integers(-4, 5, (G, P)) * w + lo
    yield rng.integers(-1, 2, (G, P)) * w + hi
    ramp = np.linspace(0.0, 1.0, P)
    for r in range(2):
        spread = [2.0 ** (-(10 + 10 * k) * ramp) for k in range(G)]
        yield (1 - 2 * r) * np.array(spread) * rng.choice([1.0, 0.5, 8.0 / P], (G, 1))
        yield np.array(spread) * np.where(np.arange(P) % 2, -1.0, 1.0)


@pytest.mark.parametrize("G", [1, 4])
@pytest.mark.parametrize("P", [1, 2, 3, 16, 255, 4096])
def test_projection_passes_stay_under_the_proven_cap(P, G, monkeypatch):
    """Every row of every adversarial family ends within the pass cap that
    the loop's docstring proves, and matches the breakpoint reference."""
    passes = []
    solve = _projection._newton_tau

    def counted(*args):
        tau, n = solve(*args)
        passes.append(n)
        return tau, n

    monkeypatch.setattr(_projection, "_newton_tau", counted)
    rng = np.random.default_rng([P, G])
    for N in (1.0, 1.5, 4.0):
        lo, hi = 1.0 / (N * P), N / P
        for V in adversarial_rows(rng, G, P, lo, hi):
            Q = fm.project_capped_simplex(V, lo, hi)
            expect = ref.breakpoint_projection(V, lo, hi)
            assert np.abs(Q - expect).max() <= 1e-15
    assert passes and max(passes) <= _projection._max_passes(P)


def test_projection_grid_row_where_newton_alone_cycles():
    """A row on the 1/68 grid, with the uniform box of P = 17 and N = 2
    (lo = 1/34, hi = 2/17), on which Newton steps taken without the bracket
    cycle between pieces until the pass cap."""
    v = np.array([-34, 21, -22, 8, 20, 45, 9, 3, 33, 14, 38, -15, 21, 33, 21, -10, 27]) / 68
    lo, hi = box_bounds(fm.build_lattice(17, 1), 2.0)
    V = np.array([v, v + 1.0, v[::-1], -v])
    Q = fm.project_capped_simplex(V, lo, hi)
    assert np.abs(Q - ref.breakpoint_projection(V, lo, hi)).max() <= 1e-15


# -- Frank-Wolfe gap ------------------------------------------------------------------

@st.composite
def gap_cases(draw):
    """(q, grad, lo, hi): a feasible q and a gradient on a uniform box of P
    in 1..48 paths, with N = 1 (lo == hi), N making the greedy vertex end on
    a full coordinate (N + 1 divides P), or N anywhere in [1, 4]."""
    P = draw(st.integers(1, 48))
    kind = draw(st.sampled_from(["point", "full", "any"]))
    if kind == "point":
        N = 1.0
    elif kind == "full" and P >= 2:
        N = P / draw(st.integers(1, P // 2)) - 1.0
    else:
        N = draw(st.floats(1.0, 4.0))
    lo, hi = np.full(P, 1.0 / (N * P)), np.full(P, N / P)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    q = fm.project_capped_simplex(rng.uniform(lo, hi), lo, hi)
    pool = rng.normal(0.0, draw(st.sampled_from([1e-4, 1.0, 1e3])), draw(st.integers(1, P)))
    grad = pool[rng.integers(0, pool.size, P)]       # ties included
    return q, grad, lo, hi


@settings(max_examples=300, deadline=None)
@given(gap_cases(), st.integers(1, 4))
def test_gap_matches_the_sorting_reference(case, G):
    """The partition-based gap against the greedy vertex by full sort, and
    each row of a batch exactly as its own 1-D gap."""
    q, grad, lo, hi = case
    gap = frank_wolfe_gap(q, grad, lo[0], hi[0])
    expect = ref.fw_gap(q, grad, lo, hi)
    scale = float(np.abs(grad).sum()) * hi[0]
    assert gap.shape == ()
    assert abs(float(gap) - expect) <= 1e-13 * scale
    assert expect >= -1e-13 * scale
    Q = np.array([q] + [q[::-1]] * (G - 1))
    D = np.array([grad] + [grad * (r + 1) for r in range(1, G)])
    gaps = frank_wolfe_gap(Q, D, lo[0], hi[0])
    assert gaps.shape == (G,)
    for r in range(G):
        assert gaps[r] == frank_wolfe_gap(Q[r], D[r], lo[0], hi[0])


def test_gap_is_zero_at_the_minimizing_vertex():
    lo, hi = box_bounds(fm.build_lattice(2, 2), 2.0)
    grad = np.array([3.0, -1.0, 0.5, 2.0])
    s = ref.lmo(grad, lo, hi)
    assert np.array_equal(s, [lo[0], hi[0], 1.0 - lo[0] - hi[0] - lo[0], lo[0]])
    assert abs(float(frank_wolfe_gap(s, grad, lo[0], hi[0]))) <= 1e-16
    assert float(frank_wolfe_gap(fm.uniform_measure(fm.build_lattice(2, 2)).weights,
                                 grad, lo[0], hi[0])) > 0.0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 1), (2, 2), (3, 1)]), st.sampled_from([1.5, 2.0, 3.0]),
       st.floats(1.05, 3.0), st.integers(0, 2 ** 16))
def test_gap_bounds_the_distance_to_the_oracle(shape, p, N, seed):
    """m with p > 1 is convex and smooth, so the gap at any feasible q bounds
    m(q) - min m, and the grid oracle's value is at least min m."""
    rng = np.random.default_rng(seed)
    g = random_process(rng, fm.build_lattice(*shape), low=0.5, high=2.0)
    params = fm.ConstraintParams(N=N, p=p)
    lo, hi = box_bounds(g.lattice, N)
    oracle = fm.brute_force_min(g, params, resolution=400 if shape == (2, 1) else 60)
    obj = _Objective(g, params)
    for q in [fm.project_capped_simplex(rng.uniform(lo, hi), lo, hi),
              fm.uniform_measure(g.lattice).weights, oracle.measure.weights]:
        value = float(obj.evaluate(q)[1][0])
        gap = float(frank_wolfe_gap(q, obj.gradient(q), lo[0], hi[0]))
        assert gap >= value - oracle.value - 1e-12 * max(1.0, value)


def lp_bound(g, params):
    """The LP's minimum, after checking that the kernel's value at the LP's
    point is that minimum: the LP is the functional, not a relaxation."""
    value, q = ref.lp_min(g, params)
    obj = _Objective(g, params)
    at_q = float(obj.raw(obj.tree.node_weights(q))[0])
    assert math.isclose(at_q, value, rel_tol=1e-9, abs_tol=1e-15), (at_q, value)
    return value


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.integers(1, 2), st.sampled_from(["m", "n"]),
       st.floats(1.05, 3.0), st.integers(0, 2 ** 16))
def test_minimize_is_bounded_below_by_the_linear_program(b, K, n, objective, N, seed):
    """n and m at p = 1 are linear programs over the box-simplex, and no
    point the solver returns lies below their minimum."""
    pytest.importorskip("scipy")
    g = random_process(np.random.default_rng(seed), fm.build_lattice(b, K), n=n,
                       low=0.3, high=3.0)
    params = fm.ConstraintParams(N=N, p=1.0, objective=objective)
    bound = lp_bound(g, params)
    assert fm.minimize(g, params, fm.SolveOptions(restarts=3, seed=seed)).value \
        >= bound - 1e-9 * bound


@pytest.mark.parametrize("objective", ["m", "n"])
def test_minimize_is_bounded_below_by_the_linear_program_on_a_deep_lattice(objective):
    """The same on the benchmark's deep lattice (b = 2, K = 11, P = 2048),
    with its solver options.  At seed 1 the solver reads n = 0.0504891
    against the LP's 0.0501722 (+0.63%), and m at p = 1 0.0081882 against
    0.0081811 (+0.09%); those gaps are recorded, not asserted."""
    pytest.importorskip("scipy")
    one = np.array([[1.0]])
    g = fm.simulate_gbm(fm.build_lattice(2, 11),
                        fm.GbmParams(n=1, d=1, drift=0.2 * one, vol=0.3 * one, corr=one,
                                     s0=one), seed=1)
    params = fm.ConstraintParams(N=2.0, p=1.0, objective=objective)
    bound = lp_bound(g, params)
    opts = fm.SolveOptions(max_iter=300, restarts=4, seed=0)
    assert fm.minimize(g, params, opts).value >= bound - 1e-9 * bound


def test_solve_report_gap_only_where_certified(two_path, two_path_pair):
    opts = fm.SolveOptions(restarts=2)
    rep = fm.minimize(two_path, fm.ConstraintParams(N=1.2, p=2.0), opts)
    # the optimum is a vertex of the box, where the gap of m is 0 up to rounding
    assert rep.restarts[0].stop == "tol" and 0.0 <= rep.gap <= 1e-16
    rep = fm.minimize(two_path, fm.ConstraintParams(N=2.0, p=1.5), opts)
    assert rep.gap is not None and 0.0 <= rep.value <= rep.gap <= TOL
    for g, params in [(two_path, fm.ConstraintParams(N=2.0, p=1.0)),
                      (two_path, fm.ConstraintParams(N=2.0, objective="n")),
                      (two_path_pair, fm.ConstraintParams(N=2.0, c=0.3))]:
        rep = fm.minimize(g, params, fm.SolveOptions(restarts=2, max_iter=50))
        assert rep.gap is None


# -- minimize -----------------------------------------------------------------------

def test_minimize_recovers_risk_neutral_measure(two_path):
    params = fm.ConstraintParams(N=2.0, p=2.0, objective="m")
    rep = fm.minimize(two_path, params, fm.SolveOptions(restarts=4))
    assert rep.feasible
    assert rep.value <= 1e-8
    assert np.allclose(rep.measure.weights, [1 / 3, 2 / 3], atol=1e-3)
    assert rep.gap <= 1e-9


def test_minimize_n_objective_zero(two_path):
    params = fm.ConstraintParams(N=2.0, objective="n")
    rep = fm.minimize(two_path, params, fm.SolveOptions(restarts=4))
    assert rep.feasible
    assert rep.value <= 1e-8
    assert np.allclose(rep.measure.weights, [1 / 3, 2 / 3], atol=1e-3)


def test_minimize_box_edge(two_path):
    params = fm.ConstraintParams(N=1.2, p=2.0, objective="m")
    rep = fm.minimize(two_path, params, fm.SolveOptions(restarts=4))
    # the box [1/2.4, 0.6] excludes 1/3: optimum sits at the near edge
    assert np.allclose(rep.measure.weights, [1 / 2.4, 1 - 1 / 2.4], atol=1e-6)
    oracle = fm.brute_force_min(two_path, params, resolution=2000)
    assert rep.value == pytest.approx(oracle.value, abs=1e-6)
    assert rep.value == pytest.approx((0.5 - 1.5 / 2.4) ** 2, rel=1e-9)


def test_minimize_never_worse_than_base(two_path):
    U = fm.uniform_measure(two_path.lattice)
    for objective, base_val in [("m", 0.0625), ("n", 0.25)]:
        params = fm.ConstraintParams(N=1.5, p=2.0, objective=objective)
        rep = fm.minimize(two_path, params, fm.SolveOptions(restarts=2, max_iter=40))
        assert rep.feasible
        assert 0.0 <= rep.value <= base_val + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.sampled_from([1.5, 2.0, 3.0]),
       st.floats(1.05, 3.0), st.one_of(st.none(), st.floats(-0.05, 0.1)),
       st.integers(0, 2 ** 16))
def test_spectral_steps_keep_every_row_on_the_box_simplex(b, K, p, N, shift, seed):
    """m with p > 1 takes Barzilai-Borwein steps as long as 1e10, where
    x - t g cancels most digits of each coordinate.  Every point the
    descent projects, and so every row's end point, still lies on the
    box-simplex with its sum within 1e-12; the winner is a valid measure no
    worse than a feasible base, and a row stopped at "tol" has its gap at
    most tol at the point it returns.  ``shift`` puts a floor that far above
    the pair's correlation under the base measure."""
    rng = np.random.default_rng(seed)
    lat = fm.build_lattice(b, K)
    g = random_process(rng, lat, n=1 if shift is None else 2, low=0.4, high=2.5)
    U = fm.uniform_measure(lat)
    c = None if shift is None else fm.correlation_integral(U, g, 0, 1) + shift
    params = fm.ConstraintParams(N=N, c=c, p=p)
    opts = fm.SolveOptions(restarts=3, max_iter=100, seed=seed)
    lo, hi = box_bounds(lat, N)
    runs, points = [], []
    solve, project = solver._solve_starts, solver.project_capped_simplex

    def keep(*args):
        runs.append(solve(*args))
        return runs[-1]

    def keep_points(*args):
        points.append(np.atleast_2d(project(*args)))
        return points[-1].reshape(np.shape(args[0]))

    with mock.patch.object(solver, "_solve_starts", keep), \
            mock.patch.object(solver, "project_capped_simplex", keep_points):
        rep = fm.minimize(g, params, opts)
    assert abs(rep.measure.weights.sum() - 1.0) <= 1e-12
    run = runs[0]
    for Q in points + [run.q]:
        assert (np.abs(Q.sum(axis=1) - 1.0) <= 1e-12).all()
        assert ((Q >= lo - 1e-15) & (Q <= hi + 1e-15)).all()
    if fm.check_constraints(U, g, params).feasible:
        assert rep.value <= fm.unfairness_m(U, g, fm.UnfairnessConfig(p=p))
    for r in np.flatnonzero(run.stop == "tol"):
        q = run.q[r]
        assert run.gap(q, run.obj.gradient(q, run.rho[r])) <= TOL


def test_minimize_constant_process_returns_zero():
    lat = fm.build_lattice(2, 2)
    const = fm.LatticeProcess(lat, 1, 1, np.full((3, 4, 1), 2.0))
    rep = fm.minimize(const, fm.ConstraintParams(N=2.0), fm.SolveOptions(restarts=2))
    assert rep.feasible
    assert rep.value == 0.0
    assert rep.gap == 0.0


def test_minimize_infeasible_floor(two_path_pair):
    params = fm.ConstraintParams(N=2.0, c=0.9, p=2.0)
    rep = fm.minimize(two_path_pair, params,
                      fm.SolveOptions(restarts=3, max_iter=120))
    assert not rep.feasible
    assert any(s < -fm.solver.FEASIBILITY_TOL for s in rep.constraint_slacks.values())


def test_minimize_feasible_floor_active(two_path_pair):
    # floor above the uniform value 9/34 but below the achievable maximum
    params = fm.ConstraintParams(N=2.0, c=0.30, p=2.0)
    rep = fm.minimize(two_path_pair, params, fm.SolveOptions(restarts=4, max_iter=200))
    assert rep.feasible
    U = fm.uniform_measure(two_path_pair.lattice)
    assert rep.value <= fm.unfairness_m(U, two_path_pair) + 1e-12
    oracle = fm.brute_force_min(two_path_pair, params, resolution=2000)
    assert rep.value <= oracle.value + 1e-6


def test_minimize_monotone_in_N(two_path):
    values = []
    prev = None
    for N in (1.1, 1.5, 2.0, 3.0):
        params = fm.ConstraintParams(N=N, p=2.0, objective="m")
        extra = [prev] if prev is not None else []
        rep = fm.minimize(two_path, params, fm.SolveOptions(restarts=3), extra_starts=extra)
        values.append(rep.value)
        prev = rep.measure.weights
    assert all(values[i + 1] <= values[i] + 1e-6 for i in range(len(values) - 1))


def test_refinement_never_increases_optimum(two_path):
    params = fm.ConstraintParams(N=1.4, p=2.0, objective="m")
    coarse = fm.minimize(two_path, params, fm.SolveOptions(restarts=3))
    fine_g = fm.duplicate_branches(two_path, copies=2)
    lifted = fm.lift_measure(coarse.measure, copies=2)
    fine = fm.minimize(fine_g, params, fm.SolveOptions(restarts=3),
                       extra_starts=[lifted.weights])
    assert fine.value <= coarse.value + 1e-6


# -- brute force ---------------------------------------------------------------------

def test_brute_force_canonical(two_path):
    params = fm.ConstraintParams(N=2.0, p=2.0, objective="m")
    res = fm.brute_force_min(two_path, params, resolution=2000)
    assert res.value <= 2e-7
    assert res.measure.weights[0] == pytest.approx(1 / 3, abs=5e-4)


def test_brute_force_singleton_when_N_is_one(two_path):
    params = fm.ConstraintParams(N=1.0, p=2.0, objective="m")
    res = fm.brute_force_min(two_path, params, resolution=50)
    assert np.allclose(res.measure.weights, 0.5, atol=1e-12)
    assert res.value == pytest.approx(0.0625, abs=1e-12)


def test_brute_force_tie_breaks_lexicographically():
    lat = fm.build_lattice(2, 1)
    const = fm.LatticeProcess(lat, 1, 1, np.full((2, 2, 1), 1.0))
    params = fm.ConstraintParams(N=2.0, p=2.0, objective="m")
    res = fm.brute_force_min(const, params, resolution=4)
    assert res.value == 0.0
    # every grid point ties at 0; the first (lexicographically smallest) wins
    assert res.measure.weights[0] == pytest.approx(0.25, abs=1e-12)


def test_brute_force_size_limits():
    lat = fm.build_lattice(2, 3)
    g = random_process(np.random.default_rng(0), lat)
    with pytest.raises(fm.SizeBudgetError):
        fm.brute_force_min(g, fm.ConstraintParams(N=2.0), resolution=10)
    small = fm.build_lattice(2, 1)
    g2 = random_process(np.random.default_rng(0), small)
    with pytest.raises(fm.ParameterError):
        fm.brute_force_min(g2, fm.ConstraintParams(N=2.0), resolution=5000)
    g6 = random_process(np.random.default_rng(0), fm.build_lattice(6, 1))
    with pytest.raises(fm.SizeBudgetError, match="grid"):
        fm.brute_force_min(g6, fm.ConstraintParams(N=2.0), resolution=2000)


def test_brute_force_rejects_a_bool_resolution(two_path):
    with pytest.raises(fm.ParameterError, match="resolution must be an integer in 1..2000, got True"):
        fm.brute_force_min(two_path, fm.ConstraintParams(N=2.0), resolution=True)


def test_brute_force_rejects_a_non_integral_resolution(two_path):
    params = fm.ConstraintParams(N=2.0)
    for bad in (2.5, 50.0):
        with pytest.raises(fm.ParameterError, match=f"resolution must be an integer in 1..2000, got {bad}"):
            fm.brute_force_min(two_path, params, resolution=bad)
    # numpy integers pass, as SolveOptions accepts them for its counts
    got = fm.brute_force_min(two_path, params, resolution=np.int64(50))
    expect = fm.brute_force_min(two_path, params, resolution=50)
    assert got.value == expect.value
    assert np.array_equal(got.measure.weights, expect.measure.weights)


def test_brute_force_infeasible_floor(two_path_pair):
    params = fm.ConstraintParams(N=2.0, c=0.9, p=2.0)
    with pytest.raises(fm.InfeasibleError):
        fm.brute_force_min(two_path_pair, params, resolution=200)


# -- gradients ---------------------------------------------------------------------------

def test_analytic_gradient_matches_fd():
    rng = np.random.default_rng(31)
    for b, K in [(2, 1), (2, 2), (4, 1)]:
        lat = fm.build_lattice(b, K)
        lo, hi = box_bounds(lat, 2.5)
        for _ in range(6):
            g = random_process(rng, lat, n=2, d=1, low=0.3, high=3.0)
            q = fm.project_capped_simplex(rng.uniform(lo, hi), lo, hi)
            for params in [fm.ConstraintParams(N=2.5, p=1.5, objective="m"),
                           fm.ConstraintParams(N=2.5, p=2.0, objective="m"),
                           fm.ConstraintParams(N=2.5, p=3.0, objective="m"),
                           fm.ConstraintParams(N=2.5, objective="n")]:
                obj = _Objective(g, params)
                ana = obj.gradient(q)
                fd = ref.central_difference(obj, q, 1e-6)
                scale = max(np.linalg.norm(ana), np.linalg.norm(fd))
                assert np.linalg.norm(ana - fd) <= 1e-4 * scale


def test_analytic_gradient_matches_fd_with_penalty(two_path_pair):
    params = fm.ConstraintParams(N=2.0, c=0.35, p=2.0)
    obj = _Objective(two_path_pair, params)
    rng = np.random.default_rng(8)
    lo, hi = box_bounds(two_path_pair.lattice, 2.0)
    for _ in range(8):
        q = fm.project_capped_simplex(rng.uniform(lo, hi), lo, hi)
        ana = obj.gradient(q, rho=25.0)
        fd = ref.central_difference(obj, q, 1e-6, rho=25.0)
        scale = max(np.linalg.norm(ana), np.linalg.norm(fd))
        assert np.linalg.norm(ana - fd) <= 1e-4 * scale


@pytest.mark.parametrize("case", ["m", "p=1", "n", "floor"])
def test_minimize_differentiates_the_descent_and_a_certified_winner(case, monkeypatch):
    """The rows minimize differentiates are those its records count, plus
    the winner once where its gap certifies the value."""
    rng = np.random.default_rng(21)
    lat = fm.build_lattice(2, 2)
    g = random_process(rng, lat, n=2 if case == "floor" else 1, low=0.5, high=2.0)
    params = fm.ConstraintParams(N=2.0, p=1.0 if case == "p=1" else 2.0,
                                 objective="n" if case == "n" else "m",
                                 c=0.9 if case == "floor" else None)
    opts = fm.SolveOptions(restarts=3, max_iter=60)
    rows = []
    gradient = _Objective.gradient

    def counted(self, Q, *args, **kwargs):
        rows.append(len(np.atleast_2d(Q)))
        return gradient(self, Q, *args, **kwargs)

    monkeypatch.setattr(_Objective, "gradient", counted)
    rep = fm.minimize(g, params, opts)
    assert (rep.gap is not None) == (case == "m")
    assert sum(rows) == sum(r.gradients for r in rep.restarts) + (rep.gap is not None)


# -- reports ------------------------------------------------------------------------------

def test_solve_report_contents(two_path):
    params = fm.ConstraintParams(N=2.0, p=2.0, objective="m")
    rep = fm.minimize(two_path, params, fm.SolveOptions(restarts=2))
    assert rep.iterations >= 1
    assert len(rep.trace) == rep.iterations
    assert set(rep.constraint_slacks) == {"box_lower", "box_upper", "normalization"}
    assert all(s >= -fm.solver.FEASIBILITY_TOL for s in rep.constraint_slacks.values())


@pytest.mark.parametrize("field,bad", [
    ("max_iter", -1), ("max_iter", 2.5), ("max_iter", True),
    ("restarts", 0), ("restarts", 2.5), ("restarts", True),
    ("seed", -1), ("seed", 2.5), ("seed", True),
])
def test_solve_options_reject_out_of_range_values(field, bad):
    """Each error names the field and the value it was given."""
    with pytest.raises(fm.ParameterError, match=rf"^{field} .*, got {re.escape(str(bad))}$"):
        fm.SolveOptions(**{field: bad})


def test_solve_options_accept_their_edge_values():
    opts = fm.SolveOptions(max_iter=0, restarts=1, seed=np.int64(0))
    assert (opts.max_iter, opts.restarts, opts.seed) == (0, 1, 0)


def test_minimize_deterministic_given_seed(two_path):
    # p = 1: not smooth, so the seed draws random starts
    params = fm.ConstraintParams(N=1.7, p=1.0, objective="m")
    reps = [fm.minimize(two_path, params, fm.SolveOptions(restarts=5, seed=42))
            for _ in range(2)]
    assert reps[0].value == reps[1].value
    assert np.array_equal(reps[0].measure.weights, reps[1].measure.weights)
    assert reps[0].iterations == reps[1].iterations
