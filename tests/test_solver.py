import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fairmeasure as fm
from fairmeasure import _descent, _projection, solver
from fairmeasure._descent import TOL
from fairmeasure._projection import frank_wolfe_gap
from fairmeasure._tree import Tree
from fairmeasure.solver import _Objective, box_bounds

import reference as ref
from conftest import dyadic_martingale, random_floor, random_process, same_bits


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


@pytest.mark.parametrize("i,j", [(0, 0), (1, 1), (0, 2), (-1, 1)])
def test_correlation_integral_needs_two_distinct_exchanges(two_path_pair, i, j):
    U = fm.uniform_measure(two_path_pair.lattice)
    with pytest.raises(fm.ParameterError, match=r"^need distinct exchange indices in 0\.\.1$"):
        fm.correlation_integral(U, two_path_pair, i, j)


def test_the_floor_names_the_pair_whose_scale_vanishes():
    """Exchange 2 is 0 at time 2 on every path, so E|g_0 g_2| vanishes
    there, the first pair in order whose normalization does, and the floor
    on it is undefined."""
    lat = fm.build_lattice(2, 2)
    values = np.ones((3, lat.n_paths, 3))
    values[1:, :, 1] = 2.0
    values[2, :, 2] = 0.0
    g = fm.LatticeProcess(lat, 3, 1, values)
    U = fm.uniform_measure(lat)
    with pytest.raises(fm.DomainError, match=r"^E\|g_0 g_2\| vanishes at time 2; floor undefined$"):
        fm.check_constraints(U, g, fm.ConstraintParams(N=2.0, c=0.0))


def test_correlation_integral_raises_only_for_the_pair_it_is_asked_about():
    """Exchange 2 is 0 at time 2, so E|g_0 g_2| and E|g_1 g_2| vanish there;
    pair (0, 1) is still defined, and only the pairs with exchange 2 raise,
    each naming itself."""
    rng = np.random.default_rng(31)
    lat = fm.build_lattice(2, 2)
    values = random_process(rng, lat, n=3, low=0.5, high=2.0).values.copy()
    values[2, :, 2] = 0.0
    g = fm.LatticeProcess(lat, 3, 1, values)
    Q = fm.Measure(lat, rng.dirichlet(np.ones(lat.n_paths)))
    assert fm.correlation_integral(Q, g, 0, 1) == pytest.approx(
        ref.corr_raw(Q.weights, g, 0, 1), rel=0.0, abs=1e-12)
    assert fm.correlation_integral(Q, g, 1, 0) == fm.correlation_integral(Q, g, 0, 1)
    for (i, j), name in [((0, 2), "g_0 g_2"), ((2, 1), "g_1 g_2")]:
        message = rf"^E\|{name}\| vanishes at time 2; floor undefined$"
        with pytest.raises(fm.DomainError, match=message):
            fm.correlation_integral(Q, g, i, j)


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
    the loop's docstring proves, started cold or from a random point's
    piece, and matches the breakpoint reference."""
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
            expect = ref.breakpoint_projection(V, lo, hi)
            # cold, and warm from a point of the box-simplex far from V's projection
            x = fm.project_capped_simplex(rng.uniform(lo, hi, (G, P)), lo, hi)
            for Q in (fm.project_capped_simplex(V, lo, hi),
                      fm.project_capped_simplex(V, lo, hi, x)):
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


@st.composite
def descent_rows(draw, interval=False):
    """(v, lo, hi, x): G in 1..4 trial steps v = x - t g of a descent from
    box-simplex points x, P in 2..300, t log-uniform in [1e-6, 100] per row
    and g standard normal.  N lies in [1.01, 4] where no vertex of the box
    (k coordinates at hi, the rest at lo) lies within 1e-9 of the simplex;
    with ``interval`` it is within rounding of 1, or P / k - 1, which puts a
    vertex on the simplex, so that the root tau can be an interval."""
    P, G = draw(st.integers(2, 300)), draw(st.integers(1, 4))
    if not interval:
        N = draw(st.floats(1.01, 4.0))
    else:
        N = draw(st.sampled_from([1.0 + 1e-12, P / draw(st.integers(1, P // 2)) - 1.0]))
    lo, hi = 1.0 / (N * P), N / P
    k = np.arange(P + 1)
    assume(interval or np.abs(k * hi + (P - k) * lo - 1.0).min() > 1e-9)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    x = fm.project_capped_simplex(rng.uniform(lo, hi, (G, P)), lo, hi)
    t = 10.0 ** rng.uniform(-6.0, 2.0, (G, 1))
    return x - t * rng.standard_normal((G, P)), lo, hi, x


@settings(max_examples=300, deadline=None)
@given(descent_rows())
def test_warm_projection_is_the_cold_one_on_descent_rows(case):
    """Started from the piece of the current point x, the projection of a
    descent's trial step has the bytes of the projection started cold."""
    v, lo, hi, x = case
    assert same_bits(fm.project_capped_simplex(v, lo, hi, x), fm.project_capped_simplex(v, lo, hi))


@settings(max_examples=200, deadline=None)
@given(descent_rows(interval=True))
def test_warm_projection_where_the_root_is_an_interval(case):
    """Where the root tau is an interval, within rounding of N = 1 or with a
    vertex on the simplex, the warm and the cold start may end at points
    apart by rounding; the warm one is feasible and of the form
    clip(v - tau, lo, hi) all the same."""
    v, lo, hi, x = case
    Q = fm.project_capped_simplex(v, lo, hi, x)
    assert (Q >= lo).all() and (Q <= hi).all()
    assert np.abs(Q.sum(axis=1) - 1.0).max() <= 1e-13
    # some tau puts clip(v - tau, lo, hi) within eps of Q, eps the rounding of
    # max |v|: tau >= v - Q - eps where Q + eps < hi, tau <= v - Q + eps where
    # Q - eps > lo (the rows a second pass corrects lie eps off their bounds)
    eps = 1e-12 * max(1.0, float(np.abs(v).max()))
    low = np.where(Q + eps < hi, v - Q - eps, -np.inf).max(axis=1)
    assert (low <= np.where(Q - eps > lo, v - Q + eps, np.inf).min(axis=1)).all()


def test_warm_projection_starts_cold_on_a_vertex(monkeypatch):
    """A row of x with no free coordinate (a vertex of the box-simplex)
    starts Newton from the mean shift, as without x; a row with one starts
    from the closed form of x's piece.  Mixed in one batch, each row gives
    the cold projection's bytes."""
    starts = []
    solve = _projection._newton_tau

    def recorded(V, lo, hi, tau):
        starts.append(tau.copy())
        return solve(V, lo, hi, tau)

    monkeypatch.setattr(_projection, "_newton_tau", recorded)
    P, lo, hi = 8, 1.0 / 24.0, 3.0 / 8.0   # N = 3: two coordinates at hi, six at lo
    vertex = np.where(np.arange(P) % 4 == 1, hi, lo)
    ramp = np.linspace(1.0, 2.0, P - 1)
    inner = np.append(lo, ramp * (1.0 - lo) / ramp.sum())
    x = np.array([vertex, inner, vertex[::-1]])
    v = x - 0.01 * np.random.default_rng(7).standard_normal((3, P))
    warm = fm.project_capped_simplex(v, lo, hi, x)
    warm_start = starts[0]
    starts.clear()
    assert same_bits(warm, fm.project_capped_simplex(v, lo, hi))
    cold_start = starts[0]
    assert same_bits(warm_start[[0, 2]], cold_start[[0, 2]])
    # the closed form of inner's piece: its first coordinate held at lo, the rest free
    assert warm_start[1] == (lo + v[1, 1:].sum() - 1.0) / (P - 1) != cold_start[1]
    with pytest.raises(fm.ParameterError, match="shape"):
        fm.project_capped_simplex(v, lo, hi, x[:2])


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


@settings(max_examples=100, deadline=None)
@given(gap_cases(), st.integers(1, 3))
def test_gap_takes_the_box_as_the_projection_does(case, G):
    """``box_bounds``' arrays give the floats' gap, byte for byte; a box
    that is not uniform, not finite or empty is refused with the
    projection's own error."""
    q, grad, lo, hi = case
    Q, D = np.array([q] * G), np.array([grad * (r + 1) for r in range(G)])
    for X, Y in [(q, grad), (Q, D)]:
        assert frank_wolfe_gap(X, Y, lo, hi).tobytes() == \
            frank_wolfe_gap(X, Y, lo[0], hi[0]).tobytes()
    uneven = lo.copy()
    uneven[-1] = 0.0
    bad = [(lo, np.full(q.size, np.inf), "must be finite"),
           (hi + 1.0, hi + 1.0, "do not intersect"),
           (lo[0], hi[0] / 2.0 ** 60, "empty box"),
           (np.append(lo, lo[0]), hi, "matching shapes")]
    bad += [(uneven, hi, "the box must be uniform")] if q.size > 1 else []
    for blo, bhi, message in bad:
        for call in (frank_wolfe_gap, fm.project_capped_simplex):
            args = (q, grad, blo, bhi) if call is frank_wolfe_gap else (q, blo, bhi)
            with pytest.raises(fm.ParameterError, match=message):
                call(*args)


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
        value = float(obj.evaluate(q)[0][0])
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
    with its solver options.  n there is solved exactly and equals the LP's
    0.0501722; m at p = 1 reads 0.0081882 at seed 1 against the LP's
    0.0081811 (+0.09%), a gap recorded, not asserted."""
    pytest.importorskip("scipy")
    one = np.array([[1.0]])
    g = fm.simulate_gbm(fm.build_lattice(2, 11),
                        fm.GbmParams(n=1, d=1, drift=0.2 * one, vol=0.3 * one, corr=one,
                                     s0=one), seed=1)
    params = fm.ConstraintParams(N=2.0, p=1.0, objective=objective)
    bound = lp_bound(g, params)
    opts = fm.SolveOptions(max_iter=300, restarts=4, seed=0)
    value = fm.minimize(g, params, opts).value
    assert value >= bound - 1e-9 * bound
    if objective == "n":
        assert math.isclose(value, bound, rel_tol=1e-9)


def test_solve_report_gap_only_where_certified(two_path, three_path, two_path_pair):
    opts = fm.SolveOptions(restarts=2)
    rep = fm.minimize(two_path, fm.ConstraintParams(N=1.2, p=2.0), opts)
    # the optimum is a vertex of the box, where the gap of m is 0 up to rounding
    assert rep.restarts[0].stop == "tol" and 0.0 <= rep.gap <= 1e-16
    rep = fm.minimize(two_path, fm.ConstraintParams(N=2.0, p=1.5), opts)
    assert rep.gap is not None and 0.0 <= rep.value <= rep.gap <= TOL
    for g, params in [(two_path, fm.ConstraintParams(N=2.0, p=1.0)),
                      (three_path, fm.ConstraintParams(N=2.0, objective="n")),
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
            mock.patch.object(solver, "project_capped_simplex", keep_points), \
            mock.patch.object(_projection, "project_capped_simplex", keep_points):
        rep = fm.minimize(g, params, opts)
    assert abs(rep.measure.weights.sum() - 1.0) <= 1e-12
    run = runs[0]
    for Q in points + [run.q]:
        assert (np.abs(Q.sum(axis=1) - 1.0) <= 1e-12).all()
        assert ((Q >= lo - 1e-15) & (Q <= hi + 1e-15)).all()
    if fm.check_constraints(U, g, params).feasible:
        assert rep.value <= fm.unfairness_m(U, g, fm.UnfairnessConfig(p=p))
    for r in np.flatnonzero(run.stop == "tol"):
        q, grad = run.q[r], run.grad[r]
        if run.cut is None:
            assert run.gap(q, grad) <= TOL
            continue
        # with the floor: the gap of the gradient tilted by the halfspaces'
        # multipliers, plus their complementarity
        lin, mult = run.lin[r], run.mult[r]
        slack = np.maximum(0.0, _descent.ELASTIC * np.maximum(0.0, -lin - run.noise[r])
                           + mult * lin).sum()
        assert run.gap(q, grad - mult @ run.jac[r]) + slack <= TOL


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


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)]),
       st.floats(1.2, 3.0), st.floats(0.0, 0.7), st.integers(0, 2 ** 16))
# draws on which the multiplier rounds that these rounds replaced ended
# 3.9-10.3% above SLSQP, all with the floor at the uniform measure's integral
@example((2, 2), 2.7856411502753398, 0.0, 55089)
@example((3, 1), 2.185127455175001, 0.0, 17210)
@example((2, 2), 1.3618795349880024, 0.0, 42867)
@example((3, 1), 1.25, 0.0, 134)
def test_minimize_is_no_worse_than_slsqp_on_random_floors(shape, N, spread, seed):
    """SLSQP started from minimize's answer, wherever SLSQP reports
    success: minimize must be feasible and at most 1e-6 relative above
    SLSQP, so it returns a local minimum to that accuracy.  The floor makes
    the problem nonconvex, so the check is one-sided, and it starts SLSQP
    from minimize's answer because the two methods can reach different
    local minima from one start: on (3, 1), N = 2.5, spread 0, seed 57973,
    SLSQP from the uniform measure finds 2.672322 and from one random
    start 2.676427, the minimum the earlier multiplier rounds reached from
    every start (see the test of that draw below)."""
    pytest.importorskip("scipy")
    g, params = random_floor(seed, *shape, N, spread)
    rep = fm.minimize(g, params, fm.SolveOptions(restarts=4, seed=seed))
    assert rep.feasible
    other = ref.slsqp_min(g, params, rep.measure.weights)
    if other.success:
        assert rep.value <= other.fun + 1e-6 * abs(other.fun)


def test_every_row_reaches_slsqp_on_the_trap_floor():
    """The floor is the uniform measure's integral of exchanges 1 and 2.
    The multiplier rounds that these rounds replaced took every row to a box
    vertex 3.6e-3 below it, where no feasible direction raises that
    integral, and reached SLSQP's minimum only by starting two rows again
    from their starts.  A round on the linearized floor stays on its cut,
    so all four rows end feasible at SLSQP's minimum, each in at most six
    rounds, with one multiplier, on that pair."""
    pytest.importorskip("scipy")
    g, params = random_floor(1236, 3, 1, 2.0, 0.0)
    rep = fm.minimize(g, params, fm.SolveOptions(restarts=4, seed=1236))
    other = ref.slsqp_min(g, params, fm.uniform_measure(g.lattice).weights)
    assert other.success and rep.feasible and rep.kkt <= 1e-9
    for rec in rep.restarts:
        assert rec.violation <= fm.solver.FEASIBILITY_TOL and rec.penalty_rounds <= 6
        assert abs(rec.value - other.fun) <= 1e-6 * other.fun
        assert rec.multipliers[:2] == (0.0, 0.0) and rec.multipliers[2] > 0.0


def test_minimize_reaches_slsqp_from_the_uniform_measure_on_seed_57973():
    """On (3, 1), N = 2.5, spread 0, seed 57973 every start of the earlier
    multiplier rounds fell into the basin of 2.676427, 0.15% above the
    2.672322 SLSQP reaches from the uniform measure; the rounds on the
    linearized floor reach 2.672322 from all four starts."""
    pytest.importorskip("scipy")
    g, params = random_floor(57973, 3, 1, 2.5, 0.0)
    rep = fm.minimize(g, params, fm.SolveOptions(restarts=4, seed=57973))
    other = ref.slsqp_min(g, params, fm.uniform_measure(g.lattice).weights)
    assert other.success and round(other.fun, 6) == 2.672322
    assert rep.feasible and rep.value <= other.fun + 1e-6 * other.fun
    assert all(rec.value <= other.fun + 1e-6 * other.fun for rec in rep.restarts)


def floor_cli_instance(seed=1, K=3):
    """The benchmark's floor_cli problem: three correlated GBM exchanges on
    b = 4, N = 2, m at p = 2, and a floor 0.9 times the smallest pair's
    integral at the uniform measure."""
    g = fm.simulate_gbm(fm.build_lattice(4, K),
                        fm.GbmParams(n=3, d=1, drift=np.array([[0.3], [0.05], [0.15]]),
                                     vol=np.array([[0.4], [0.25], [0.3]]),
                                     corr=np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.5],
                                                    [0.3, 0.5, 1.0]]),
                                     s0=np.ones((3, 1))), seed=seed)
    U = fm.uniform_measure(g.lattice)
    smallest = min(fm.correlation_integral(U, g, i, j) for i, j in ((0, 1), (0, 2), (1, 2)))
    return g, fm.ConstraintParams(N=2.0, c=0.9 * smallest, p=2.0)


class RoundLog(solver.Descent):
    """A descent that keeps, per row, the gap level, the iterations and the
    stop reason of each of its rounds."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = [[] for _ in self.q]

    def round(self, rows):
        before = self.iterations[rows]
        super().round(rows)
        for r, steps in zip(rows, self.iterations[rows] - before):
            self.log[r].append((_descent.LEVELS[self.level[r]], int(steps), self.stop[r]))


def logged_minimize(g, params, opts, monkeypatch, extra=(), descent=RoundLog):
    """minimize's report and the rounds its descent, a ``descent``, logged."""
    runs = []

    def logged(*args):
        runs.append(descent(*args))
        return runs[-1]

    monkeypatch.setattr(solver, "Descent", logged)
    rep = fm.minimize(g, params, opts, extra_starts=extra)
    run, = runs
    return rep, run.log


def uniform_floor():
    """A floor at the uniform measure's integral, which every row's first
    round, even a loose one, meets to a KKT residual of 1e-9."""
    g = random_process(np.random.default_rng(6), fm.build_lattice(2, 2), n=2,
                       low=0.5, high=2.0)
    c = fm.correlation_integral(fm.uniform_measure(g.lattice), g, 0, 1)
    return g, fm.ConstraintParams(N=2.0, c=c, p=2.0)


@pytest.mark.parametrize("case", ["floor_cli", "uniform", "tiny", "trap", "never met"])
def test_every_floor_row_leaves_after_a_round_at_the_full_gap(case, two_path_pair, monkeypatch):
    """A row leaves only after a round at the gap level TOL that stops at
    "tol" before its first step, where the gap of its gradient tilted by its
    multipliers plus their complementarity, the floor's KKT test, is at most
    TOL at its point; a round that steps, or ends at max_iter or on a
    stalled line search, never lets it leave, and no loose round ends a
    start.  Each round's level comes after its last round's.  No row here
    needs all _ROUNDS rounds, and where the floor is met the winner's KKT
    residual is at most 1e-9."""
    g, params = {"floor_cli": floor_cli_instance, "uniform": uniform_floor,
                 "tiny": lambda: random_floor(217, 2, 1, 1.83, 0.09),
                 "trap": lambda: random_floor(1236, 3, 1, 2.0, 0.0),
                 "never met": lambda: (two_path_pair, fm.ConstraintParams(N=2.0, c=0.9))}[case]()
    rep, log = logged_minimize(g, params, fm.SolveOptions(restarts=4, seed=7), monkeypatch)
    levels = list(_descent.LEVELS)
    for rounds in log:
        assert rounds[-1] == (TOL, 0, "tol")
        for _, steps, stop in rounds[:-1]:
            assert steps > 0 or stop == "zero-step"
        for (last, _, _), (level, _, _) in zip(rounds, rounds[1:]):
            assert levels.index(level) >= min(levels.index(last) + 1, len(levels) - 1)
    assert all(rec.penalty_rounds < solver._ROUNDS for rec in rep.restarts)
    assert rep.feasible == (case != "never met")
    assert rep.kkt <= 1e-9 or case == "never met"


class EntryLog(solver.Descent):
    """A descent that keeps, per round, its rows' points as they enter it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def round(self, rows):
        self.log.append(self.q[rows].copy())
        super().round(rows)


@pytest.mark.parametrize("case", ["floor", "no floor"])
def test_every_row_enters_every_round_on_the_box_simplex(case, monkeypatch):
    """A round's start projects nothing, so every row must enter each round
    on the box-simplex, its sum 1 to 1e-13 and its box to 1e-15: the starts
    as ``minimize`` projected them, an extra start off the simplex among
    them, and later points as the projections of their trials returned
    them.  Without a floor n on b = 4 descends from random starts."""
    g, params = floor_cli_instance()
    if case == "no floor":
        params = fm.ConstraintParams(N=2.0, objective="n")
    lo, hi = (x[0] for x in box_bounds(g.lattice, params.N))
    extra = np.random.default_rng(3).uniform(0.0, 2.0 * hi, g.lattice.n_paths)
    rep, entries = logged_minimize(g, params, fm.SolveOptions(restarts=4, seed=7), monkeypatch,
                                   [extra], EntryLog)
    assert len(entries) == max(rec.penalty_rounds for rec in rep.restarts)
    assert len(entries) > (case == "floor")
    for q in entries:
        assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-13
        assert lo - 1e-15 <= q.min() and q.max() <= hi + 1e-15


@pytest.mark.parametrize("case", ["floor", "no floor", "a start wins"])
def test_each_start_is_folded_once(case, monkeypatch):
    """``minimize`` reads each start's own value in the start's first
    round, so the rows it folds are the rows its descent evaluated, and
    one more for the floor's certificate, or for the gap of a start that
    wins where m is smooth and convex: on a dyadic martingale the uniform
    base measure is optimal, and its round stops before a step."""
    g, params = floor_cli_instance()
    if case == "no floor":
        params = fm.ConstraintParams(N=2.0, objective="n")
    elif case == "a start wins":
        g, params = dyadic_martingale(np.random.default_rng(4), 3)[1], fm.ConstraintParams(N=2.0)
    rows, tape = [], solver._Objective.tape
    monkeypatch.setattr(solver._Objective, "tape",
                        lambda self, Q: rows.append(len(np.atleast_2d(Q))) or tape(self, Q))
    rep = fm.minimize(g, params, fm.SolveOptions(restarts=4, seed=7))
    assert (rep.winner == 0) == (case == "a start wins")
    assert sum(rows) == sum(rec.evaluations for rec in rep.restarts) + (case != "no floor")


def test_a_round_skips_the_gap_levels_its_start_meets(monkeypatch):
    """On the uniform floor three rows end their first round, at 1e-5, where
    the next round's start meets 1e-7 and even TOL: that round skips 1e-7,
    runs at TOL and stops before its first step.  A start at the winner's
    point meets TOL at once, so its one round runs at TOL.  So every start
    takes exactly as many rounds as with TOL alone."""
    g, params = uniform_floor()
    opts = fm.SolveOptions(restarts=4, seed=7)
    winner = fm.minimize(g, params, opts).measure.weights
    rep, log = logged_minimize(g, params, opts, monkeypatch, [winner])
    assert sum(rounds == [(1e-5, 3, "tol"), (TOL, 0, "tol")] for rounds in log) == 3
    assert log[-1] == [(TOL, 0, "tol")]
    monkeypatch.setattr(_descent, "LEVELS", (TOL,))
    alone = fm.minimize(g, params, opts, extra_starts=[winner])
    assert ([rec.penalty_rounds for rec in rep.restarts]
            == [rec.penalty_rounds for rec in alone.restarts])


def test_the_floor_cli_instance_takes_fewer_evaluations():
    """The rounds on the linearized floor cut the evaluations the floor_cli
    instance takes, summed over its four starts: 1074 when every multiplier
    round ran to TOL, 817 with looser first rounds, 349 on the linearized
    floor with every round at TOL, 257 with the gap levels; the bound is
    257 plus 5%."""
    g, params = floor_cli_instance()
    rep = fm.minimize(g, params, fm.SolveOptions(restarts=4, max_iter=300))
    assert rep.feasible
    assert sum(rec.evaluations for rec in rep.restarts) <= 269


def test_a_floor_of_tiny_integrals_ends_feasible_at_slsqp():
    """A floor of 2e-6, where the multiplier rounds in absolute units
    climbed to rho = 1e12 over 22-23 rounds before the multipliers moved a
    row: each pair's constraint is scaled by |c|, so the rounds take as
    few here as elsewhere (at most eight), and minimize ends feasible and no
    more than 1e-6 relative above SLSQP from its answer."""
    pytest.importorskip("scipy")
    g, params = random_floor(217, 2, 1, 1.83, 0.09)
    rep = fm.minimize(g, params, fm.SolveOptions(restarts=4, seed=217))
    assert rep.feasible and all(rec.penalty_rounds <= 8 for rec in rep.restarts)
    other = ref.slsqp_min(g, params, rep.measure.weights)
    assert other.success and rep.value <= other.fun + 1e-6 * abs(other.fun)


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


def test_brute_force_scores_a_box_of_one_point_once():
    """At N = 1 the grid's axis has one distinct value, so the 39^5-point
    grid of b = 6 at resolution 38 is one candidate, the uniform measure,
    and the kernel sees one row."""
    g = random_process(np.random.default_rng(5), fm.build_lattice(6, 1))
    rows = []
    node_weights = Tree.node_weights

    def spy(tree, Q):
        rows.append(len(Q))
        return node_weights(tree, Q)

    with mock.patch.object(Tree, "node_weights", spy):
        res = fm.brute_force_min(g, fm.ConstraintParams(N=1.0), resolution=38)
    assert rows == [1]
    assert np.abs(res.measure.weights - 1.0 / 6).max() <= 1e-15


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


def test_brute_force_memory_stays_bounded():
    """The oracle takes its prefixes in chunks and scores their in-box runs
    in cache-sized blocks, so a 39^5-point grid (b = 6, K = 1, resolution
    38, N = 3) peaks near 10 MiB under tracemalloc; building every run at
    once would take over 200 MiB."""
    g = random_process(np.random.default_rng(5), fm.build_lattice(6, 1))
    tracemalloc.start()
    try:
        fm.brute_force_min(g, fm.ConstraintParams(N=3.0), resolution=38)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


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
    """The floor enters a round's gradient as its integral weighted by the
    row's multiplier: the weighted gradient against central differences."""
    params = fm.ConstraintParams(N=2.0, c=0.35, p=2.0)
    obj = _Objective(two_path_pair, params)
    rng = np.random.default_rng(8)
    lo, hi = box_bounds(two_path_pair.lattice, 2.0)
    weights = np.array([-25.0])
    for _ in range(8):
        q = fm.project_capped_simplex(rng.uniform(lo, hi), lo, hi)
        ana = obj.gradient(q, weights=weights)
        fd = ref.central_difference(obj, q, 1e-6, weights)
        scale = max(np.linalg.norm(ana), np.linalg.norm(fd))
        assert np.linalg.norm(ana - fd) <= 1e-4 * scale


def descent_case(case):
    """(process, params) on K = 2 for m at p = 2 or 1, n, or m with a
    binding floor; n descends on b = 3, as on b = 2 it is solved exactly."""
    rng = np.random.default_rng(21)
    lat = fm.build_lattice(3 if case == "n" else 2, 2)
    g = random_process(rng, lat, n=2 if case == "floor" else 1, low=0.5, high=2.0)
    return g, fm.ConstraintParams(N=2.0, p=1.0 if case == "p=1" else 2.0,
                                  objective="n" if case == "n" else "m",
                                  c=0.9 if case == "floor" else None)


@pytest.mark.parametrize("case", ["m", "p=1", "n", "floor"])
def test_minimize_differentiates_the_descent_and_a_certified_winner(case, monkeypatch):
    """The rows minimize differentiates are those its records count, plus
    a start winner once where its gap certifies the value, or the winner
    once for the floor's KKT certificate; a solved winner's gap reads the
    gradient its descent took at its point."""
    g, params = descent_case(case)
    opts = fm.SolveOptions(restarts=3, max_iter=60)
    rows = []
    gradient = _Objective.gradient

    def counted(self, Q, *args, **kwargs):
        rows.append(len(np.atleast_2d(Q)))
        return gradient(self, Q, *args, **kwargs)

    monkeypatch.setattr(_Objective, "gradient", counted)
    rep = fm.minimize(g, params, opts)
    assert (rep.gap is not None) == (case == "m")
    assert (rep.kkt is not None) == (case == "floor")
    start_certified = rep.gap is not None and rep.winner % 2 == 0
    # the floor's certificate differentiates the winner once more
    assert sum(rows) == sum(r.gradients for r in rep.restarts) + start_certified + (
        case == "floor")


@pytest.mark.parametrize("case", ["m", "p=1", "floor"])
def test_gradients_fold_nothing(case, monkeypatch):
    """Every evaluation folds once, for its point's tape, and every gradient
    reads the tape of a point already evaluated, the winner's gap too: over
    a whole minimize the forward folds are the evaluations and, under the
    floor, one per round after the first, whose start takes its rows' tapes
    for their gradients but holds their values, and one for the KKT
    certificate, which takes the winner's pass again."""
    rng = np.random.default_rng(21)
    g = random_process(rng, fm.build_lattice(2, 2), n=2 if case == "floor" else 1,
                       low=0.5, high=2.0)
    params = fm.ConstraintParams(N=2.0, p=1.0 if case == "p=1" else 2.0,
                                 c=0.9 if case == "floor" else None)
    calls = {"fold": 0, "evaluate": 0, "gradient": 0, "round": 0}

    def counted(name, method):
        def call(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return call

    monkeypatch.setattr(Tree, "averages", counted("fold", Tree.averages))
    monkeypatch.setattr(_Objective, "evaluate", counted("evaluate", _Objective.evaluate))
    monkeypatch.setattr(_Objective, "gradient", counted("gradient", _Objective.gradient))
    monkeypatch.setattr(_descent.Descent, "round", counted("round", _descent.Descent.round))
    rep = fm.minimize(g, params, fm.SolveOptions(restarts=3, max_iter=60))
    assert calls["gradient"] > 0 and sum(r.gradients for r in rep.restarts) > 0
    assert calls["round"] > (case == "floor")
    assert calls["fold"] == calls["evaluate"] + (case == "floor") * calls["round"]


@pytest.mark.parametrize("max_iter", [60, 2])
@pytest.mark.parametrize("case", ["m", "p=1", "n", "floor"])
def test_each_point_reached_is_differentiated_once(case, max_iter):
    """A row is differentiated at the start of each penalty round and at
    each point it accepts, the last one too where a round ends at max_iter,
    so every descent record counts iterations + penalty_rounds gradients.
    max_iter = 2 ends every round at max_iter that does not stop earlier."""
    g, params = descent_case(case)
    rep = fm.minimize(g, params, fm.SolveOptions(restarts=3, max_iter=max_iter))
    assert all(r.gradients == r.iterations + r.penalty_rounds for r in rep.restarts)
    # with the floor a row leaves only after a round that takes no step,
    # which max_iter never ends
    assert max_iter > 2 or all((r.stop != "max_iter") == (case == "floor")
                               for r in rep.restarts)


def test_the_exact_record_counts_no_gradient():
    """n on a binary lattice is walked, not descended: its one record has
    no iteration, no gradient and no penalty round."""
    g = random_process(np.random.default_rng(21), fm.build_lattice(2, 2), low=0.5, high=2.0)
    rec, = fm.minimize(g, fm.ConstraintParams(N=2.0, objective="n")).restarts
    assert (rec.iterations, rec.gradients, rec.penalty_rounds) == (0, 0, 0)


def test_deep_lattice_counts_stay_pinned():
    """m at p = 2 on the benchmark's deep lattice (b = 2, K = 11, its GBM at
    seed 1, N = 2) evaluates, differentiates and projects as many rows as
    it did when every gradient folded again."""
    one = np.array([[1.0]])
    g = fm.simulate_gbm(fm.build_lattice(2, 11),
                        fm.GbmParams(n=1, d=1, drift=0.2 * one, vol=0.3 * one, corr=one,
                                     s0=one), seed=1)
    rep = fm.minimize(g, fm.ConstraintParams(N=2.0, p=2.0),
                      fm.SolveOptions(max_iter=300, restarts=4, seed=0))
    assert [r[:6] for r in rep.restarts] == [("base", "tol", 36, 37, 37, 36)]


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
