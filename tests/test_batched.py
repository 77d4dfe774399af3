"""The batched solver against the per-start reference loop in ``reference.py``.

``minimize`` descends from all its starts at once, as the rows of one
batch.  Each row must follow exactly the path that start follows alone
through the same objective and projection: the same point, value,
violation, iteration count, trace, stop reason and counts,
bit for bit, whichever rows stop early.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmeasure as fm
from fairmeasure import _descent, solver
from fairmeasure._descent import STEP, Descent
from fairmeasure._projection import frank_wolfe_gap, project_cut
from fairmeasure.solver import _Objective, box_bounds

import reference as ref
from conftest import random_floor, random_process


class Counting:
    """An objective, a projection and a cut projection that count the rows
    they are given (the cut projection its dual steps)."""

    def __init__(self, obj, lo, hi):
        self.obj, self.lo, self.hi = obj, lo, hi
        self.differentiable, self.floor, self.params = obj.differentiable, obj.floor, obj.params
        self.evaluations = self.gradients = self.projections = 0

    def tape(self, Q):
        return self.obj.tape(Q)

    def evaluate(self, Q, tape=None):
        self.evaluations += 1
        return self.obj.evaluate(Q, tape)

    def gradient(self, Q, tape=None, weights=None):
        self.gradients += 1
        return self.obj.gradient(Q, tape, weights)

    def project(self, v, x=None):
        self.projections += 1
        return fm.project_capped_simplex(v, self.lo, self.hi, x)

    def cut(self, V, A, b, upper, nu, x):
        out = project_cut(V, self.lo[0], self.hi[0], A, b, upper, nu, x)
        self.projections += int(out[2].sum())
        return out


def random_starts(params, opts, floor_active):
    """How many random starts minimize draws: none where m is smooth and
    convex (p > 1, no floor), restarts - 1 elsewhere."""
    convex = params.objective == "m" and params.p > 1.0 and not floor_active
    return 0 if convex else opts.restarts - 1


def reference_solve(g, params, opts, extra=()):
    """Each start of ``minimize`` run alone through the reference loop, the
    candidates in minimize's order and the winner by its rule."""
    lat = g.lattice
    lo, hi = box_bounds(lat, params.N)
    obj = _Objective(g, params)
    project = lambda v, x=None: fm.project_capped_simplex(v, lo, hi, x)
    gap = lambda v, grad: frank_wolfe_gap(v, grad, lo[0], hi[0])
    floor_active = bool(solver._floor_pairs(g, params))
    starts = [fm.uniform_measure(lat).weights]
    starts += [project(np.random.default_rng([opts.seed, r]).uniform(lo, hi))
               for r in range(1, random_starts(params, opts, floor_active) + 1)]
    starts += [project(np.asarray(s, dtype=float)) for s in extra]
    runs, candidates = [], []
    for q0 in starts:
        counting = Counting(obj, lo, hi)
        run = ref.solve_from(counting, q0, counting.project, gap, opts.max_iter,
                             counting.cut if floor_active else None)
        run.update(evaluations=counting.evaluations, gradients=counting.gradients,
                   projections=counting.projections)
        runs.append(run)
        raw, viol = (float(x[0]) for x in obj.evaluate(q0))
        candidates += [(q0, raw, viol, 0, []),
                       (run["q"], run["value"], run["violation"], run["iterations"],
                        run["trace"])]
    feasible = [i for i, c in enumerate(candidates) if c[2] <= solver.FEASIBILITY_TOL]
    pool = feasible or list(range(len(candidates)))
    winner = pool[0]
    for i in pool[1:]:
        c, w = candidates[i], candidates[winner]
        if (c[1] < w[1]) if feasible else ((c[2], c[1]) < (w[2], w[1])):
            winner = i
    return runs, candidates, winner


def assert_matches_reference(g, params, opts, extra=()):
    """minimize against the reference, row by row and bit for bit; returns
    the report."""
    rep = fm.minimize(g, params, opts, extra_starts=extra)
    runs, candidates, winner = reference_solve(g, params, opts, extra)
    assert len(rep.restarts) == len(runs)
    randoms = random_starts(params, opts, bool(solver._floor_pairs(g, params)))
    kinds = ["base"] + ["random"] * randoms + ["extra"] * len(extra)
    for r, (rec, run, kind) in enumerate(zip(rep.restarts, runs, kinds)):
        assert rec.kind == kind
        for field in ("stop", "iterations", "evaluations", "gradients", "projections",
                      "penalty_rounds", "multipliers", "value", "violation"):
            assert getattr(rec, field) == run[field], (r, field)
    assert rep.winner == winner
    q, value, viol, iters, trace = candidates[winner]
    assert np.array_equal(rep.measure.weights, q)
    assert rep.value == value and rep.iterations == iters and rep.trace == trace
    return rep, runs


def test_batched_rows_equal_reference_points(two_path):
    """The solved points themselves, not just the records."""
    params = fm.ConstraintParams(N=2.0, p=2.0)
    opts = fm.SolveOptions(restarts=4)
    lo, hi = box_bounds(two_path.lattice, 2.0)
    starts = np.array([fm.uniform_measure(two_path.lattice).weights] +
                      [fm.project_capped_simplex(np.random.default_rng([0, r]).uniform(lo, hi),
                                                 lo, hi) for r in range(1, 4)])
    obj = _Objective(two_path, params)
    project = lambda v, x=None: fm.project_capped_simplex(v, lo, hi, x)
    gap = lambda v, grad: frank_wolfe_gap(v, grad, lo[0], hi[0])
    run = solver._solve_starts(obj, starts, project, gap, opts.max_iter, None)
    for r, q0 in enumerate(starts):
        expect = ref.solve_from(obj, q0, project, gap, opts.max_iter)
        assert np.array_equal(run.q[r], expect["q"])
        assert run.trace(r) == expect["trace"]


@pytest.mark.parametrize("objective", ["m", "n"])
def test_minimize_matches_reference(objective):
    """n on a binary lattice is solved exactly, so its case descends on b = 3."""
    lat = fm.build_lattice(2, 4) if objective == "m" else fm.build_lattice(3, 3)
    g = random_process(np.random.default_rng(5), lat, low=0.5, high=2.0)
    params = fm.ConstraintParams(N=3.0, p=1.5 if objective == "m" else 2.0,
                                 objective=objective)
    opts = fm.SolveOptions(restarts=4, max_iter=120)
    # smooth convex m draws no random starts, so its batch is made of extras
    lo, hi = box_bounds(g.lattice, params.N)
    extra = [np.random.default_rng([1, r]).uniform(lo, hi) for r in range(3)]
    rep, runs = assert_matches_reference(g, params, opts, extra if objective == "m" else ())
    assert len(runs) == 4
    # the rows leave the batch at different iterations
    assert len({run["iterations"] for run in runs}) > 1


def test_minimize_matches_reference_at_a_kink():
    """m at p = 1 is kinked at its zero, here the uniform base measure: the
    base row is stationary at once, and the random rows descend to the kink,
    where the gradient jumps and no step decreases the value any more."""
    lat = fm.build_lattice(2, 1)
    g = fm.LatticeProcess(lat, 1, 1, np.array([[[1.0], [1.0]], [[1.5], [0.5]]]))
    opts = fm.SolveOptions(restarts=4, max_iter=400)
    _, runs = assert_matches_reference(g, fm.ConstraintParams(N=2.0, p=1.0), opts)
    assert [run["stop"] for run in runs] == ["tol"] + ["stalled-line-search"] * 3
    assert runs[0]["iterations"] == 0 and all(run["iterations"] > 0 for run in runs[1:])


def test_descent_stops_when_the_projected_step_does_not_move(two_path):
    """m at p = 2 with N = 1.2 has its optimum on the box edge.  With a gap
    that never certifies, each row steps onto that edge, and there the next
    projected step returns the same point: every row stops at "zero-step",
    as it does in the reference loop.  The last row's second step moves one
    ulp; from a pair that short s'y <= 0, so its next trial is the round's
    first step, not the longest spectral one, and that trial does not move."""
    lo, hi = box_bounds(two_path.lattice, 1.2)
    starts = np.array([fm.uniform_measure(two_path.lattice).weights] +
                      [fm.project_capped_simplex(np.random.default_rng([0, r]).uniform(lo, hi),
                                                 lo, hi) for r in range(1, 4)])
    obj = _Objective(two_path, fm.ConstraintParams(N=1.2, p=2.0))
    never = lambda v, grad: np.full(np.shape(v)[:-1], np.inf)
    max_iter = fm.SolveOptions().max_iter
    project = lambda v, x=None: fm.project_capped_simplex(v, lo, hi, x)
    run = Descent(obj, starts, project, never, max_iter)
    run.round(np.arange(len(starts)))
    assert run.stop.tolist() == ["zero-step"] * 4
    assert run.iterations.tolist() == [1, 1, 1, 2]
    assert all(step <= STEP for _, step, _ in run.trace(3))
    for r, q0 in enumerate(starts):
        counting = Counting(obj, lo, hi)
        q, raw, viol, iters, trace, stop, *_ = ref.pgd(counting, q0, counting.project, never,
                                                       max_iter)
        assert (run.stop[r], run.iterations[r], run.raw[r], run.viol[r]) == (stop, iters, raw, viol)
        assert np.array_equal(run.q[r], q) and run.trace(r) == trace
        assert run.counts[r].tolist() == [counting.evaluations, counting.gradients,
                                          counting.projections]


def test_minimize_matches_reference_with_extra_starts(three_path):
    params = fm.ConstraintParams(N=1.7, objective="n")
    extra = [np.array([0.2, 0.5, 0.3]), np.array([1.0, 1.0, 1.0]) / 3.0]
    rep, _ = assert_matches_reference(three_path, params, fm.SolveOptions(restarts=3), extra)
    assert [rec.kind for rec in rep.restarts] == ["base", "random", "random", "extra", "extra"]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_smooth_convex_m_draws_no_random_starts(two_path, p):
    """m with p > 1 and no floor is convex and smooth: the base start and
    the extra starts descend, and no random start is drawn.  Every row
    reaches the gap tolerance, at p = 3 too, where the gradient of |x|^3
    vanishes like x^2 near the interior zero and only a step that grows
    past ``STEP`` gets there within max_iter."""
    params = fm.ConstraintParams(N=1.7, p=p)
    extra = [np.array([0.2, 0.8]), np.array([0.5, 0.5])]
    rep, runs = assert_matches_reference(two_path, params, fm.SolveOptions(restarts=3), extra)
    assert [rec.kind for rec in rep.restarts] == ["base", "extra", "extra"]
    assert [rec.stop for rec in rep.restarts] == ["tol"] * 3
    # the risk-neutral measure lies in the box, so the optimal value is 0
    assert 0.0 <= rep.value <= rep.gap
    alone = fm.minimize(two_path, params, fm.SolveOptions(restarts=5))
    assert [rec.kind for rec in alone.restarts] == ["base"]


@pytest.mark.parametrize("params", [fm.ConstraintParams(N=1.7, p=1.0),
                                    fm.ConstraintParams(N=1.7, p=0.5),
                                    fm.ConstraintParams(N=1.7, objective="n")])
def test_nonsmooth_or_nonconvex_problems_keep_random_starts(three_path, params):
    """On b = 3, where n is not solved exactly."""
    rep = fm.minimize(three_path, params, fm.SolveOptions(restarts=3))
    assert [rec.kind for rec in rep.restarts] == ["base", "random", "random"]


def test_minimize_matches_reference_on_the_penalty_path():
    """A floor at its value under the uniform measure binds as soon as a row
    moves; with a short max_iter the rows meet its KKT test after different
    numbers of rounds (4, 5 and 6), so the batch shrinks between rounds as
    within them."""
    lat = fm.build_lattice(2, 2)
    g = random_process(np.random.default_rng(5), lat, n=2, low=0.5, high=2.0)
    c = fm.correlation_integral(fm.uniform_measure(lat), g, 0, 1)
    opts = fm.SolveOptions(restarts=6, max_iter=4)
    rep, runs = assert_matches_reference(g, fm.ConstraintParams(N=2.0, c=c, p=2.0), opts)
    assert len({run["penalty_rounds"] for run in runs}) > 2
    assert rep.feasible


def test_minimize_matches_reference_at_the_gap_levels(monkeypatch):
    """The instance above at the default max_iter, where the rows' early
    rounds end at their loose gap levels: the batch matches the reference
    with the levels and with every round at TOL, and the levels take fewer
    evaluations."""
    lat = fm.build_lattice(2, 2)
    g = random_process(np.random.default_rng(5), lat, n=2, low=0.5, high=2.0)
    params = fm.ConstraintParams(N=2.0, c=fm.correlation_integral(fm.uniform_measure(lat), g,
                                                                  0, 1), p=2.0)
    opts = fm.SolveOptions(restarts=6)
    evaluations = []
    for levels in (_descent.LEVELS, (_descent.TOL,)):
        monkeypatch.setattr(_descent, "LEVELS", levels)
        rep, _ = assert_matches_reference(g, params, opts)
        evaluations.append(sum(rec.evaluations for rec in rep.restarts))
    assert evaluations[0] < evaluations[1]


def test_a_row_at_a_fixed_point_of_its_cut_leaves_its_rounds():
    """A row whose round takes no step and ends on a zero step with the
    multipliers it started from would repeat that round to the last of
    _ROUNDS, so it leaves.  Here the third start reaches such a point in
    its second round and leaves after its third."""
    g, params = random_floor(4497, 2, 2, 2.6443348597527314, -0.14341260029842817)
    rep, _ = assert_matches_reference(g, params, fm.SolveOptions(restarts=4, seed=4497))
    assert rep.feasible
    assert [(rec.stop, rec.penalty_rounds) for rec in rep.restarts] == [
        ("tol", 4), ("tol", 3), ("zero-step", 3), ("tol", 3)]


def test_minimize_matches_reference_when_the_floor_is_never_met(two_path_pair):
    params = fm.ConstraintParams(N=2.0, c=0.9, p=2.0)
    opts = fm.SolveOptions(restarts=3, max_iter=40)
    rep, runs = assert_matches_reference(two_path_pair, params, opts)
    assert not rep.feasible
    # no point meets the floor, so every round is elastic: each row steps to
    # the vertex of the box-simplex with the largest integral, the least
    # violating point, where the next round stops before its first step at
    # the elastic bound on its multiplier
    least = fm.Measure(two_path_pair.lattice, np.array([0.25, 0.75]))
    short = 0.9 - fm.correlation_integral(least, two_path_pair, 0, 1)
    assert np.array_equal(rep.measure.weights, least.weights)
    for run in runs:
        assert run["penalty_rounds"] == 2 and run["stop"] == "tol"
        assert run["violation"] == pytest.approx(short, rel=1e-12)
        assert run["multipliers"] == (pytest.approx(_descent.ELASTIC / 0.9),)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.integers(1, 2), st.sampled_from(["m", "n"]),
       st.floats(1.1, 3.0), st.integers(1, 5), st.integers(0, 2 ** 16))
def test_minimize_matches_reference_on_random_instances(b, K, n, objective, N, restarts, seed):
    """n descends on b = 3 only: on b = 2 it is solved exactly."""
    b = 3 if objective == "n" else b
    rng = np.random.default_rng(seed)
    g = random_process(rng, fm.build_lattice(b, K), n=n, low=0.4, high=2.5)
    params = fm.ConstraintParams(N=N, p=float(rng.choice([1.0, 2.0, 3.0])), objective=objective)
    assert_matches_reference(g, params, fm.SolveOptions(restarts=restarts, max_iter=60,
                                                         seed=seed))


def test_restart_records_stop_reasons(two_path, monkeypatch):
    """Smooth convex m draws no random starts, so extra starts fill the batch."""
    params = fm.ConstraintParams(N=2.0, p=2.0)
    extra = [np.array([0.3, 0.7]), np.array([0.6, 0.4])]
    rep = fm.minimize(two_path, params, fm.SolveOptions(restarts=3), extra)
    assert [rec.stop for rec in rep.restarts] == ["tol"] * 3
    capped = fm.minimize(two_path, params, fm.SolveOptions(restarts=3, max_iter=2), extra)
    assert [rec.stop for rec in capped.restarts] == ["max_iter"] * 3
    # a gradient at the start and at each accepted point, the last one included
    assert all(rec.iterations == 2 and rec.gradients == 3 for rec in capped.restarts)
    # a first trial step below the line search's minimum step stalls every row
    monkeypatch.setattr(_descent, "STEP", 1e-15)
    frozen = fm.minimize(two_path, params, fm.SolveOptions(restarts=2), [np.array([0.8, 0.2])])
    assert [rec.stop for rec in frozen.restarts] == ["stalled-line-search"] * 2
    assert frozen.winner == 0 and frozen.iterations == 0
