"""The box-simplex cut by the linearized floor's halfspaces: the batched
dual Newton projection of ``_projection.project_cut`` against a general QP
solver in ``reference.py`` and on its KKT conditions."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairmeasure as fm
from fairmeasure._projection import _active_set, project_cut

import reference as ref


def random_cuts(seed, G, P, J, N, reach):
    """G rows of a point v near the box-simplex and J halfspaces with mean-0
    rows; each row's halfspaces have a point, a random point of the
    box-simplex, and cut the box-simplex projection of v off where
    ``reach`` > 0."""
    rng = np.random.default_rng(seed)
    lo, hi = 1.0 / P / N, N / P
    V = fm.project_capped_simplex(rng.uniform(lo, hi, (G, P)), lo, hi)
    V += rng.normal(0.0, 0.3 / P, (G, P))
    A = rng.normal(size=(G, J, P))
    A -= A.mean(axis=2, keepdims=True)
    inside = fm.project_capped_simplex(rng.uniform(lo, hi, (G, P)), lo, hi)
    b = np.einsum("gjp,gp->gj", A, inside) - rng.uniform(0.0, reach, (G, J)) * np.abs(A).sum(
        axis=2) / P
    return V, lo, hi, A, b


def assert_kkt(V, lo, hi, A, b, upper, Q, nu, tol=1e-9):
    """Q is the box-simplex projection of v + A^T nu, and each multiplier
    meets its halfspace's condition: slack 0 strictly inside its bounds,
    at least 0 at 0, at most 0 at the bound."""
    assert np.array_equal(Q, fm.project_capped_simplex(V + np.einsum("gjp,gj->gp", A, nu), lo, hi)
                          ) or np.abs(Q - fm.project_capped_simplex(
                              V + np.einsum("gjp,gj->gp", A, nu), lo, hi)).max() <= tol * (hi - lo)
    s = np.einsum("gjp,gp->gj", A, Q) - b
    scale = tol * np.abs(A).sum(axis=2) / A.shape[2]
    top = upper[:, None]
    assert ((nu >= 0.0) & (nu <= top)).all()
    assert np.where(nu <= 0.0, s >= -scale, np.where(nu >= top, s <= scale,
                                                     np.abs(s) <= scale)).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 4), st.integers(2, 40), st.integers(1, 3),
       st.floats(1.2, 3.0), st.floats(0.0, 0.2))
# a degenerate face of three coordinates where the Newton steps take every
# step, and the row is solved again by the active-set method
@example(188, 2, 3, 3, 3.0, 0.0078125)
# rows that take every step and that the same steps, run again from the
# start halving each step that lowers theta, leave off their KKT conditions
# (relative residuals 0.16 and 1.1e-6): halfspaces through one point of
# the box-simplex on six coordinates, and on two coordinates, where every
# halfspace is parallel to the others
@example(190, 2, 6, 3, 1.5, 0.0)
@example(1, 1, 2, 3, 3.0, 5.960464477539063e-08)
def test_cut_projection_matches_a_qp_solver(seed, G, P, J, N, reach):
    """On cuts with a point the projection is the QP's minimizer: it meets
    the KKT conditions, each row is the same float for float as alone, and
    SLSQP from the box-simplex projection ends no lower than it."""
    pytest.importorskip("scipy")
    V, lo, hi, A, b = random_cuts(seed, G, P, J, N, reach)
    upper = np.full(G, 1e6)
    Q, nu, passes = project_cut(V, lo, hi, A, b, upper, np.zeros((G, J)))
    assert_kkt(V, lo, hi, A, b, upper, Q, nu)
    assert (nu < upper[:, None]).all()      # a cut with a point is never elastic
    for g in range(G):
        alone = project_cut(V[g:g + 1], lo, hi, A[g:g + 1], b[g:g + 1], upper[g:g + 1],
                            np.zeros((1, J)))
        assert np.array_equal(alone[0][0], Q[g]) and np.array_equal(alone[1][0], nu[g])
        other = ref.cut_projection(V[g], lo, hi, A[g], b[g])
        if other.success:
            ours = 0.5 * float(((Q[g] - V[g]) ** 2).sum())
            assert ours <= other.fun + 1e-12 * max(1.0, other.fun)


def test_cut_projection_warm_start_takes_one_pass():
    """Started from its own multipliers, a row whose sets hold is done in
    one box-simplex projection."""
    V, lo, hi, A, b = random_cuts(3, 4, 30, 3, 2.0, 0.2)
    upper = np.full(4, 1e6)
    Q, nu, _ = project_cut(V, lo, hi, A, b, upper, np.zeros((4, 3)))
    again, nu2, passes = project_cut(V, lo, hi, A, b, upper, nu)
    assert (passes == 1).all()
    assert np.abs(again - Q).max() <= 1e-12 and np.abs(nu2 - nu).max() <= 1e-9 * np.abs(nu).max()


def descent_move(seed, V, elastic, size):
    """The next point a descent projects after V, V - t g for a random
    change g of the gradient with entries of about 1 / P and a step t of at
    most ``size``, and the multiplier bound ``elastic`` (uniform in
    [0, 100] per row where it is None, as an elastic cut's)."""
    rng = np.random.default_rng(seed + 1)
    G, P = V.shape
    upper = rng.uniform(0.0, 100.0, G) if elastic is None else np.full(G, elastic)
    return V - rng.uniform(0.0, size) * rng.normal(0.0, 1.0 / P, (G, P)), upper


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 4), st.integers(2, 40), st.integers(1, 3),
       st.floats(1.2, 3.0), st.floats(0.0, 0.2), st.booleans())
def test_a_warm_start_from_the_last_point_is_the_cold_projection(seed, G, P, J, N, reach,
                                                                 common):
    """Projected cold, moved as a descent step moves it and projected again
    from the first point and multipliers: a row that the step on that
    point's piece settles meets the KKT conditions, lies on the
    box-simplex, matches the cold projection to 1e-12 and counts one step;
    every other row is the cold projection bit for bit, one step more.
    Without a common point (``common`` False) the offsets may leave none
    and the halfspaces are elastic."""
    V, lo, hi, A, b = random_cuts(seed, G, P, J, N, reach)
    if not common:
        b = b + np.random.default_rng(seed).uniform(0.0, 1.5, b.shape) * np.abs(A).sum(
            axis=2) / P
    Q, nu, _ = project_cut(V, lo, hi, A, b, np.full(G, 1e6) if common else np.full(G, 50.0),
                           np.zeros((G, J)))
    V2, upper = descent_move(seed, V, 1e6 if common else None, 0.3)
    cold, cold_nu, cold_passes = project_cut(V2, lo, hi, A, b, upper, nu)
    warm, warm_nu, passes = project_cut(V2, lo, hi, A, b, upper, nu, Q)
    S = passes == 1
    assert np.array_equal(warm[~S], cold[~S]) and np.array_equal(warm_nu[~S], cold_nu[~S])
    assert np.array_equal(passes[~S], cold_passes[~S] + 1)
    if S.any():
        W = warm[S]
        assert_kkt(V2[S], lo, hi, A[S], b[S], upper[S], W, warm_nu[S])
        assert (W >= lo).all() and (W <= hi).all()
        assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-13
        assert np.abs(W - cold[S]).max() <= 1e-12


def test_a_warm_point_on_the_projection_s_piece_settles_every_row():
    """After a small move of V every row of this draw, one of them with
    all three halfspaces active, stays on the piece of its last
    projection, so each settles in the one step on that point's piece:
    no box-simplex projection."""
    V, lo, hi, A, b = random_cuts(7, 4, 30, 3, 2.0, 0.2)
    Q, nu, _ = project_cut(V, lo, hi, A, b, np.full(4, 1e6), np.zeros((4, 3)))
    assert (nu > 0.0).sum(axis=1).tolist() == [1, 1, 3, 1]
    V2, upper = descent_move(7, V, 1e6, 0.05)
    cold = project_cut(V2, lo, hi, A, b, upper, nu)
    warm = project_cut(V2, lo, hi, A, b, upper, nu, Q)
    assert (warm[2] == 1).all() and (cold[2] == 1).all()
    assert np.abs(warm[0] - cold[0]).max() <= 1e-12
    assert np.abs(warm[1] - cold[1]).max() <= 1e-9 * np.abs(cold[1]).max()
    assert_kkt(V2, lo, hi, A, b, upper, warm[0], warm[1])


@pytest.mark.parametrize("common", [True, False])
def test_a_warm_point_on_the_wrong_piece_changes_nothing(common):
    """From a vertex of the box-simplex, whose piece has one free
    coordinate, or from the uniform point, where every coordinate is free,
    the step on the warm point's piece settles no row of these draws, whose
    projections lie on other pieces (without a common point, on the
    elastic bound with one coordinate free): each row is the cold
    projection bit for bit, one step more."""
    P = 12
    V, lo, hi, A, b = random_cuts(7, 4, P, 2, 1.3, 0.2)
    if not common:
        b = b + 0.5 * np.abs(A).sum(axis=2) / P
    upper = np.full(4, 1e6 if common else 20.0)
    nu = np.zeros((4, 2))
    cold = project_cut(V, lo, hi, A, b, upper, nu)
    k = int((1.0 - P * lo) // (hi - lo))
    vertex = np.full(P, lo)
    vertex[:k], vertex[k] = hi, 1.0 - k * hi - (P - 1 - k) * lo
    for x in (vertex, np.full(P, 1.0 / P)):
        free = (cold[0] > lo) & (cold[0] < hi)
        assert (free != ((x > lo) & (x < hi))).any(axis=1).all()
        warm = project_cut(V, lo, hi, A, b, upper, nu, np.tile(x, (4, 1)))
        assert np.array_equal(warm[0], cold[0]) and np.array_equal(warm[1], cold[1])
        assert np.array_equal(warm[2], cold[2] + 1)


def test_active_set_matches_the_dual_newton_method():
    """The exact fallback for rows that take every step agrees with the
    dual Newton projection on rows that settle, and finds no point where
    the halfspaces leave none."""
    for seed in range(40):
        V, lo, hi, A, b = random_cuts(seed, 1, 2 + seed % 9, 1 + seed % 3, 2.0, 0.1)
        Q, nu, _ = project_cut(V, lo, hi, A, b, np.full(1, 1e6), np.zeros((1, A.shape[1])))
        q, mult = _active_set(V[0], lo, hi, A[0], b[0])
        assert np.abs(q - Q[0]).max() <= 1e-9 * (hi - lo)
        assert_kkt(V, lo, hi, A, b, np.full(1, 1e6), q[None], mult[None])
    P = 5
    a = np.arange(P) - (P - 1) / 2.0
    best = fm.project_capped_simplex(1e6 * a, 1.0 / P / 2.0, 2.0 / P) @ a
    assert _active_set(np.full(P, 1.0 / P), 1.0 / P / 2.0, 2.0 / P, a[None],
                       np.array([best + 1.0])) is None


def test_cut_projection_is_elastic_where_the_cut_is_empty():
    """Where no point of the box-simplex meets a halfspace, its multiplier
    rests at the bound and the point is the projection of v + upper a: on
    P = 16 paths, one halfspace above the largest a . q of the box-simplex."""
    rng = np.random.default_rng(5)
    P, N = 16, 2.0
    lo, hi = 1.0 / P / N, N / P
    v = fm.project_capped_simplex(rng.uniform(lo, hi, P), lo, hi)
    a = rng.normal(size=P)
    a -= a.mean()
    best = fm.project_capped_simplex(1e6 * a, lo, hi) @ a
    A, b, upper = a[None, None], np.array([[best + 1.0]]), np.array([5.0])
    Q, nu, _ = project_cut(v[None], lo, hi, A, b, upper, np.zeros((1, 1)))
    assert nu[0, 0] == 5.0
    assert np.abs(Q[0] - fm.project_capped_simplex(v + 5.0 * a, lo, hi)).max() <= 1e-15
    assert_kkt(v[None], lo, hi, A, b, upper, Q, nu)


def test_a_coordinate_a_few_ulps_inside_its_bound_is_held():
    """A row of a solver run, warm-started at the elastic bound 1e4 on one
    multiplier: the projection of v + A^T nu leaves its second coordinate
    3.5e-13 above lo, within the rounding of the shifted point's entries of
    1.2e4.  Read as free, it gave every Newton step the same wrong piece,
    and the row took all the steps before the active-set fallback; held at
    lo, it settles at nu = 0 within three projections."""
    V = np.array([[0.8254720557027199, -0.18932738130965598]])
    lo, hi = 0.17661007278660584, 1.415547800051414
    A = np.array([[[-3.7544126530976527, 3.7544126530976527],
                   [1.2341706292614063, -1.2341706292614063],
                   [1.1769989992406593, -1.1769989992406593]]])
    b = np.array([[-4.870178024963298, 0.310940440586451, 0.25244108890332195]])
    upper = np.array([1e4])
    Q, nu, passes = project_cut(V, lo, hi, A, b, upper, np.array([[0.0, 1e4, 0.0]]))
    assert passes[0] <= 3 and (nu == 0.0).all()
    assert_kkt(V, lo, hi, A, b, upper, Q, nu)


def empty_cut(seed):
    """One row and 1-3 halfspaces, as ``random_cuts`` draws them but with
    offsets that may leave no common point."""
    rng = np.random.default_rng(seed)
    P, J, N = rng.integers(2, 9), rng.integers(1, 4), rng.uniform(1.2, 3.0)
    lo, hi = 1.0 / (P * N), N / P
    v = fm.project_capped_simplex(rng.uniform(lo, hi, P), lo, hi) + rng.normal(0.0, 0.3 / P, P)
    A = rng.normal(size=(J, P))
    A -= A.mean(axis=1, keepdims=True)
    b = (A @ fm.project_capped_simplex(rng.uniform(lo, hi, P), lo, hi)
         + rng.uniform(-0.5, 1.0, J) * np.abs(A).sum(axis=1) / P)
    return v, lo, hi, A, b


@pytest.mark.parametrize("seed", [2096, 9052])
def test_active_set_finds_no_point_of_an_empty_cut(seed):
    """Two cuts on eight coordinates with no common point (an LP's best
    smallest slack is -0.25 and -0.50): once the active normals span the
    next constraint's, its step z . n is 0 but for rounding, and the method
    returns None, without dividing by it."""
    v, lo, hi, A, b = empty_cut(seed)
    assert (len(v), len(b)) == ((8, 1) if seed == 2096 else (8, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _active_set(v, lo, hi, A, b) is None
