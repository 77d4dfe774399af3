"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[ACCEPTANCE ..] PASS|FAIL` line (visible with -s or
in captured output) and fails the suite if its criterion does not hold.
"""
import json
import math
import time

import numpy as np
import pytest

import fairmeasure as fm
from fairmeasure import UnfairnessConfig, cli
from fairmeasure._tree import Floor, Tree
from fairmeasure.solver import _Objective, box_bounds

import reference as ref
from conftest import (binomial_process, dyadic_martingale,
                      martingale_from_terminal, random_measure, random_process)


def _report(num: int, desc: str, failures: list[str]):
    status = "PASS" if not failures else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {status} {desc}")
    assert not failures, f"criterion {num} ({desc}): " + "; ".join(failures[:5])


def grid_correlations(cand, g):
    """Correlation integral of exchanges 0 and 1 at each row of ``cand``,
    computed as the brute-force oracle filters its grid."""
    tree = Tree(g)
    return Floor(tree, [(0, 1)]).moments(tree.node_weights(cand))[0][:, 0]


def two_asset(lat, pairs):
    cols = [binomial_process(lat, 1.0, u, d).values for (u, d) in pairs]
    return fm.LatticeProcess(lat, 2, 1, np.concatenate(cols, axis=2))


# -- 1: martingale characterization ------------------------------------------------

def test_criterion_1_martingale_characterization():
    rng = np.random.default_rng(1001)
    failures = []
    start = time.perf_counter()
    count = 0
    # 100 generic instances: not martingales, m above threshold at every p
    for _ in range(100):
        b = int(rng.integers(2, 4))
        K = int(rng.integers(1, 4 if b == 3 else 5))
        lat = fm.build_lattice(b, K)
        Q = random_measure(rng, lat)
        x = random_process(rng, lat)
        check = fm.is_martingale(Q, x, 1e-9)
        for p in (1.0, 2.0, 3.0):
            m_val = fm.unfairness_m(Q, x, UnfairnessConfig(p=p))
            if (m_val <= 1e-18) != check.ok:
                failures.append(f"generic b={b} K={K} p={p}: m={m_val!r} ok={check.ok}")
        count += 1
    # 60 exact martingales on dyadic uniform lattices (all p exact)
    for _ in range(60):
        Q, mart = dyadic_martingale(rng, int(rng.integers(1, 7)))
        check = fm.is_martingale(Q, mart, 1e-9)
        for p in (1.0, 2.0, 3.0):
            m_val = fm.unfairness_m(Q, mart, UnfairnessConfig(p=p))
            if not (check.ok and m_val <= 1e-18):
                failures.append(f"dyadic martingale: m={m_val!r} ok={check.ok} p={p}")
        count += 1
    # 40 martingales under random measures, K = 1..3 (exact at every p)
    for _ in range(40):
        b = int(rng.integers(2, 4))
        lat = fm.build_lattice(b, int(rng.integers(1, 4)))
        Q = random_measure(rng, lat)
        mart = martingale_from_terminal(rng.uniform(0.5, 4.0, lat.n_paths), Q)
        check = fm.is_martingale(Q, mart, 1e-9)
        for p in (1.0, 2.0, 3.0):
            m_val = fm.unfairness_m(Q, mart, UnfairnessConfig(p=p))
            if not (check.ok and m_val <= 1e-18):
                failures.append(f"random-measure martingale: m={m_val!r} ok={check.ok} p={p}")
        count += 1
    elapsed = time.perf_counter() - start
    if count != 200:
        failures.append(f"corpus size {count} != 200")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    _report(1, f"martingale characterization, 200 instances, {elapsed:.2f}s", failures)


# -- 2: reweighted conditional expectation identity ----------------------------------

def test_criterion_2_reweighting_identity():
    rng = np.random.default_rng(1002)
    failures = []
    start = time.perf_counter()
    for trial in range(500):
        b = int(rng.integers(2, 4))
        K = int(rng.integers(1, 4))
        lat = fm.build_lattice(b, K)
        base = fm.uniform_measure(lat)
        F_raw = rng.uniform(0.1, 3.0, lat.n_paths)
        F_raw /= F_raw.mean()
        F = fm.Density(lat, F_raw)
        x = rng.uniform(-10.0, 10.0, lat.n_paths)
        k = int(rng.integers(0, K + 1))
        lhs = fm.cond_exp_reweighted(x, F, k, base)
        rhs = fm.cond_exp(x, k, F.measure())
        err = float(np.abs(lhs - rhs).max())
        if err > 1e-12:
            failures.append(f"trial {trial}: err={err:.3e} (b={b}, K={K}, k={k})")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(2, f"reweighting identity, 500 instances, {elapsed:.2f}s", failures)


# -- 3: seminorm properties -----------------------------------------------------------

def test_criterion_3_seminorm_properties():
    rng = np.random.default_rng(1003)
    failures = []
    for trial in range(200):
        b = int(rng.integers(2, 4))
        K = int(rng.integers(1, 4))
        lat = fm.build_lattice(b, K)
        Q = random_measure(rng, lat)
        x = random_process(rng, lat, low=0.2, high=4.0)
        y = random_process(rng, lat, low=0.2, high=4.0)
        lam = float(rng.uniform(0.3, 3.0))
        # triangle inequality of m^(1/p), p >= 1
        z = fm.LatticeProcess(lat, 1, 1, x.values + y.values)
        for p in (1.0, 1.5, 2.0, 3.0):
            cfg = UnfairnessConfig(p=p)
            lhs = fm.unfairness_m(Q, z, cfg) ** (1 / p)
            rhs = fm.unfairness_m(Q, x, cfg) ** (1 / p) + fm.unfairness_m(Q, y, cfg) ** (1 / p)
            if lhs > rhs + 1e-9 * max(1.0, rhs):
                failures.append(f"triangle trial {trial} p={p}: {lhs!r} > {rhs!r}")
        # |lambda|^p homogeneity, any p > 0
        for p in (0.5, 1.0, 2.0, 3.0):
            cfg = UnfairnessConfig(p=p)
            lhs = fm.unfairness_m(Q, x.scaled(-lam), cfg)
            rhs = lam ** p * fm.unfairness_m(Q, x, cfg)
            if abs(lhs - rhs) > 1e-9 * max(abs(rhs), 1e-30):
                failures.append(f"homogeneity trial {trial} p={p}: {lhs!r} vs {rhs!r}")
        # scale invariance of n under lambda > 0
        lhs_n = fm.unfairness_n(Q, x.scaled(lam))
        rhs_n = fm.unfairness_n(Q, x)
        if abs(lhs_n - rhs_n) > 1e-9 * max(rhs_n, 1e-30):
            failures.append(f"n-scale trial {trial}: {lhs_n!r} vs {rhs_n!r}")
    _report(3, "seminorm properties on 200 instances (rel 1e-9)", failures)


# -- 4: inner-product suite --------------------------------------------------------------

def test_criterion_4_inner_product_suite():
    rng = np.random.default_rng(1004)
    failures = []
    for trial in range(50):
        b = int(rng.integers(2, 4))
        K = int(rng.integers(1, 4))
        lat = fm.build_lattice(b, K)
        Q = random_measure(rng, lat)
        x = random_process(rng, lat, low=-3.0, high=3.0)
        y = random_process(rng, lat, low=-3.0, high=3.0)
        z = random_process(rng, lat, low=-3.0, high=3.0)
        a, bb = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        combo = fm.LatticeProcess(lat, 1, 1, a * x.values + bb * y.values)
        lhs = fm.inner_product_m(Q, combo, z)
        rhs = a * fm.inner_product_m(Q, x, z) + bb * fm.inner_product_m(Q, y, z)
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
            failures.append(f"bilinearity trial {trial}: {lhs!r} vs {rhs!r}")
        sym = abs(fm.inner_product_m(Q, x, y) - fm.inner_product_m(Q, y, x))
        if sym > 1e-12:
            failures.append(f"symmetry trial {trial}: asymmetry {sym:.3e}")
        xx = fm.inner_product_m(Q, x, x)
        yy = fm.inner_product_m(Q, y, y)
        if xx < 0.0:
            failures.append(f"positivity trial {trial}: <x,x>={xx!r}")
        cs = abs(fm.inner_product_m(Q, x, y))
        if cs > math.sqrt(xx * yy) + 1e-9:
            failures.append(f"cauchy-schwarz trial {trial}: {cs!r} > {math.sqrt(xx * yy)!r}")
        norm_identity = abs(xx - fm.unfairness_m(Q, x, UnfairnessConfig(p=2.0)))
        if norm_identity > 1e-12 * max(1.0, xx):
            failures.append(f"<x,x> != m trial {trial}: gap {norm_identity:.3e}")
    # the pairing with any constructed martingale vanishes
    for trial in range(20):
        Q, mart = dyadic_martingale(rng, int(rng.integers(1, 5)))
        x = random_process(rng, mart.lattice, low=-3.0, high=3.0)
        val = fm.inner_product_m(Q, x, mart)
        if val != 0.0:
            failures.append(f"exact martingale pairing {trial}: {val!r}")
    for trial in range(20):
        lat = fm.build_lattice(2, int(rng.integers(1, 4)))
        Q = random_measure(rng, lat)
        mart = martingale_from_terminal(rng.uniform(0.5, 2.0, lat.n_paths), Q)
        x = random_process(rng, lat, low=-3.0, high=3.0)
        val = fm.inner_product_m(Q, x, mart)
        if val != 0.0:
            failures.append(f"martingale pairing {trial}: {val!r}")
    _report(4, "p=2 inner-product suite (1e-9)", failures)


# -- 5: zero recovery ------------------------------------------------------------------------

def test_criterion_5_zero_recovery():
    failures = []
    instances = []
    lat1 = fm.build_lattice(2, 1)
    instances.append(("canonical", binomial_process(lat1, 1.0, 2.0, 0.5), 2.0))
    instances.append(("mild", binomial_process(lat1, 1.0, 1.8, 0.6), 2.0))
    lat2 = fm.build_lattice(2, 2)
    instances.append(("two-step", binomial_process(lat2, 1.0, 2.0, 0.5), 3.2))
    for name, g, N in instances:
        oracle = fm.risk_neutral_binomial_measure(g)
        lo, hi = box_bounds(g.lattice, N)
        assert np.all(oracle.weights >= lo) and np.all(oracle.weights <= hi), \
            f"{name}: oracle not inside the box"
        for objective in ("m", "n"):
            params = fm.ConstraintParams(N=N, p=2.0, objective=objective)
            rep = fm.minimize(g, params, fm.SolveOptions(restarts=4, max_iter=600))
            if not rep.feasible:
                failures.append(f"{name}/{objective}: infeasible")
            if rep.value > 1e-8:
                failures.append(f"{name}/{objective}: value {rep.value!r} > 1e-8")
            gap = float(np.abs(rep.measure.weights - oracle.weights).max())
            if gap > 1e-3:
                failures.append(f"{name}/{objective}: weights off by {gap:.2e}")
    # the named instance: q* = (1/3, 2/3)
    rep = fm.minimize(instances[0][1], fm.ConstraintParams(N=2.0, p=2.0, objective="m"),
                      fm.SolveOptions(restarts=4))
    if float(np.abs(rep.measure.weights - np.array([1 / 3, 2 / 3])).max()) > 1e-3:
        failures.append(f"canonical weights {rep.measure.weights} != (1/3, 2/3)")
    _report(5, "zero recovery for both objectives (<=1e-8, weights 1e-3)", failures)


# -- 6: oracle equivalence ---------------------------------------------------------------------

def _corpus_for_criterion_6():
    lat1 = fm.build_lattice(2, 1)
    lat2 = fm.build_lattice(2, 2)
    lat4 = fm.build_lattice(4, 1)
    cases = []

    def add(name, g, params, resolution=2000):
        cases.append((name, g, params, resolution))

    def rand(seed, lat):
        return random_process(np.random.default_rng(seed), lat, low=0.5, high=2.5)

    # Two-path instances: interior, boundary, varying p, both objectives.
    # The p=1 and n objectives are kinked at their zero, so the grid oracle
    # only sees the exact optimum when it is a grid point; those instances
    # use boundary optima (linspace includes the box edges) or children
    # (1.45, 0.7) whose risk-neutral weight 0.4 lies on the N=2 grid.
    add("2p-interior", binomial_process(lat1, 1.0, 2.0, 0.5),
        fm.ConstraintParams(N=2.0, p=2.0, objective="m"))
    add("2p-boundary", binomial_process(lat1, 1.0, 2.0, 0.5),
        fm.ConstraintParams(N=1.2, p=2.0, objective="m"))
    add("2p-p1", binomial_process(lat1, 1.0, 1.45, 0.7),
        fm.ConstraintParams(N=2.0, p=1.0, objective="m"))
    add("2p-p1-boundary", binomial_process(lat1, 1.0, 1.8, 0.7),
        fm.ConstraintParams(N=1.1, p=1.0, objective="m"))
    add("2p-p3", binomial_process(lat1, 1.0, 1.5, 0.9),
        fm.ConstraintParams(N=2.5, p=3.0, objective="m"))
    add("2p-wide", binomial_process(lat1, 1.0, 3.0, 0.4),
        fm.ConstraintParams(N=1.5, p=2.0, objective="m"))
    add("2p-narrow", binomial_process(lat1, 1.0, 1.2, 0.85),
        fm.ConstraintParams(N=2.0, p=2.0, objective="m"))
    add("2p-narrow-boundary", binomial_process(lat1, 1.0, 1.2, 0.85),
        fm.ConstraintParams(N=1.05, p=2.0, objective="m"))
    add("2p-n", binomial_process(lat1, 1.0, 1.45, 0.7),
        fm.ConstraintParams(N=2.0, objective="n"))
    add("2p-n-boundary", binomial_process(lat1, 1.0, 1.8, 0.7),
        fm.ConstraintParams(N=1.15, objective="n"))

    # penalized: correlation floor active between the unconstrained optimum
    # and the achievable maximum; the floor value is taken from an exact
    # oracle grid point so the constrained boundary lies on the grid
    pair = two_asset(lat1, [(2.0, 0.5), (1.6, 0.7)])
    for idx, N in enumerate((2.0, 1.6)):
        lo, hi = box_bounds(lat1, N)
        grid = np.linspace(lo[0], hi[0], 2001)
        cand = np.column_stack([grid, 1.0 - grid])
        cand = cand[(cand[:, 1] >= lo[1]) & (cand[:, 1] <= hi[1])]
        corr = grid_correlations(cand, pair)
        free = fm.brute_force_min(pair, fm.ConstraintParams(N=N, p=2.0), resolution=2000)
        at_free = fm.correlation_integral(free.measure, pair, 0, 1)
        target = at_free + (float(corr.max()) - at_free) * 0.6
        c = float(corr[int(np.argmin(np.abs(corr - target)))])
        add(f"2p-penalized-{idx}", pair, fm.ConstraintParams(N=N, c=c, p=2.0, objective="m"))

    # four-path instances: smooth objectives, grid resolutions tuned so the
    # quantization error sits well inside the agreement tolerance
    add("4p-interior", binomial_process(lat2, 1.0, 2.0, 0.5),
        fm.ConstraintParams(N=3.2, p=2.0, objective="m"), resolution=160)
    add("4p-interior-2", binomial_process(lat2, 1.0, 1.6, 0.75),
        fm.ConstraintParams(N=3.5, p=2.0, objective="m"), resolution=96)
    add("4p-boundary", binomial_process(lat2, 1.0, 1.8, 0.6),
        fm.ConstraintParams(N=1.3, p=2.0, objective="m"), resolution=200)
    add("4p-random", rand(41, lat2),
        fm.ConstraintParams(N=2.0, p=2.0, objective="m"), resolution=96)
    add("4p-random-p1", rand(42, lat2),
        fm.ConstraintParams(N=1.5, p=1.0, objective="m"), resolution=128)
    add("4p-b4", rand(43, lat4),
        fm.ConstraintParams(N=2.0, p=2.0, objective="m"), resolution=96)
    add("4p-b4-p3", rand(77, lat4),
        fm.ConstraintParams(N=1.4, p=3.0, objective="m"), resolution=160)
    add("4p-b4-p15", rand(77, lat4),
        fm.ConstraintParams(N=1.4, p=1.5, objective="m"), resolution=128)
    return cases


def test_criterion_6_oracle_equivalence():
    failures = []
    start = time.perf_counter()
    cases = _corpus_for_criterion_6()
    if len(cases) < 20:
        failures.append(f"corpus has {len(cases)} < 20 instances")
    for name, g, params, resolution in cases:
        rep = fm.minimize(g, params, fm.SolveOptions(restarts=4, max_iter=400))
        oracle = fm.brute_force_min(g, params, resolution=resolution)
        tol = max(1e-4, 1e-3 * oracle.value)
        gap = abs(rep.value - oracle.value)
        if gap > tol:
            failures.append(f"{name}: solver {rep.value!r} vs oracle {oracle.value!r} "
                            f"(gap {gap:.2e} > tol {tol:.2e})")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s >= 60s")
    _report(6, f"oracle equivalence on {len(cases)} instances, {elapsed:.2f}s", failures)


@pytest.mark.parametrize("seed", [0, 11])
def test_criterion_6_floor_instances_at_two_restart_seeds(seed):
    """Criterion 6 asks a feasible report too.  The two floor instances,
    solved from the gate's restart seed 0 and from seed 11, must each
    report feasible at the oracle's value.  Under growing quadratic-penalty
    rounds both ended infeasible at seed 0, and 2p-penalized-0 ended 1.8e-2
    above the oracle at seed 11."""
    failures = []
    for name, g, params, resolution in _corpus_for_criterion_6():
        if not name.startswith("2p-penalized"):
            continue
        rep = fm.minimize(g, params, fm.SolveOptions(restarts=4, max_iter=400, seed=seed))
        oracle = fm.brute_force_min(g, params, resolution=resolution)
        tol = max(1e-4, 1e-3 * oracle.value)
        if not rep.feasible:
            failures.append(f"{name}: infeasible {rep.constraint_slacks}")
        if abs(rep.value - oracle.value) > tol:
            failures.append(f"{name}: solver {rep.value!r} vs oracle {oracle.value!r}")
    _report(6, f"floor instances feasible at the oracle, restart seed {seed}", failures)


# -- 7: monotonicity in the constraint set -------------------------------------------------------

def test_criterion_7_constraint_monotonicity():
    failures = []
    lat = fm.build_lattice(2, 1)
    pair = two_asset(lat, [(2.0, 0.5), (1.7, 0.6)])
    N_grid = [1.3, 1.7, 2.2]
    c_grid = [0.0, 0.1, 0.2]  # all below the uniform-measure integral
    for objective, p in (("m", 2.0), ("m", 1.0)):
        values: dict[tuple[float, float], float] = {}
        winners: dict[tuple[float, float], np.ndarray] = {}
        for c in sorted(c_grid, reverse=True):
            for N in N_grid:
                extra = []
                key_n = (max((x for x in N_grid if x < N), default=None), c)
                key_c = (N, min((x for x in c_grid if x > c), default=None))
                for key in (key_n, key_c):
                    if key in winners:
                        extra.append(winners[key])
                params = fm.ConstraintParams(N=N, c=c, p=p, objective=objective)
                rep = fm.minimize(pair, params,
                                  fm.SolveOptions(restarts=4, max_iter=300),
                                  extra_starts=extra)
                if not rep.feasible:
                    failures.append(f"{objective}/p={p}: infeasible at N={N}, c={c}")
                values[(N, c)] = rep.value
                winners[(N, c)] = rep.measure.weights
        for c in c_grid:
            for lo_n, hi_n in zip(N_grid, N_grid[1:]):
                if values[(hi_n, c)] > values[(lo_n, c)] + 1e-6:
                    failures.append(f"{objective}: value rose with N at c={c}: "
                                    f"{values[(lo_n, c)]!r} -> {values[(hi_n, c)]!r}")
        for N in N_grid:
            for lo_c, hi_c in zip(c_grid, c_grid[1:]):
                if values[(N, lo_c)] > values[(N, hi_c)] + 1e-6:
                    failures.append(f"{objective}: value fell as c dropped at N={N}: "
                                    f"{values[(N, lo_c)]!r} vs {values[(N, hi_c)]!r}")
    _report(7, "optimum monotone over the 3x3 (N, c) grid (1e-6)", failures)


# -- 8: refinement monotonicity ----------------------------------------------------------------

def test_criterion_8_refinement_monotonicity():
    rng = np.random.default_rng(1008)
    failures = []
    instances = []
    lat1 = fm.build_lattice(2, 1)
    lat2 = fm.build_lattice(2, 2)
    lat3 = fm.build_lattice(3, 1)
    instances.append((binomial_process(lat1, 1.0, 2.0, 0.5),
                      fm.ConstraintParams(N=1.4, p=2.0, objective="m")))
    instances.append((binomial_process(lat1, 1.0, 1.8, 0.7),
                      fm.ConstraintParams(N=1.2, p=1.0, objective="m")))
    instances.append((binomial_process(lat1, 1.0, 1.5, 0.9),
                      fm.ConstraintParams(N=2.0, objective="n")))
    for _ in range(4):
        instances.append((random_process(rng, lat2, low=0.5, high=2.5),
                          fm.ConstraintParams(N=float(rng.uniform(1.2, 2.5)),
                                              p=2.0, objective="m")))
    for _ in range(3):
        instances.append((random_process(rng, lat3, low=0.5, high=2.5),
                          fm.ConstraintParams(N=float(rng.uniform(1.2, 2.5)),
                                              p=2.0, objective="m")))
    if len(instances) != 10:
        failures.append(f"{len(instances)} instances != 10")
    for idx, (g, params) in enumerate(instances):
        opts = fm.SolveOptions(restarts=3, max_iter=300)
        coarse = fm.minimize(g, params, opts)
        fine_g = fm.duplicate_branches(g, copies=2)
        lifted = fm.lift_measure(coarse.measure, copies=2)
        fine = fm.minimize(fine_g, params, opts, extra_starts=[lifted.weights])
        if fine.value > coarse.value + 1e-6:
            failures.append(f"instance {idx}: fine {fine.value!r} > coarse {coarse.value!r}")
    _report(8, "branch duplication never increases the optimum (1e-6)", failures)


# -- 9: gradient check ---------------------------------------------------------------------------

def test_criterion_9_gradient_check():
    rng = np.random.default_rng(1009)
    failures = []
    points = 0
    layouts = [(2, 1), (2, 2), (4, 1)]
    param_sets = [fm.ConstraintParams(N=2.5, p=1.5, objective="m"),
                  fm.ConstraintParams(N=2.5, p=2.0, objective="m"),
                  fm.ConstraintParams(N=2.5, p=3.0, objective="m"),
                  fm.ConstraintParams(N=2.5, objective="n")]
    while points < 50:
        b, K = layouts[points % len(layouts)]
        lat = fm.build_lattice(b, K)
        g = random_process(rng, lat, n=2, d=1, low=0.3, high=3.0)
        lo, hi = box_bounds(lat, 2.5)
        q = fm.project_capped_simplex(rng.uniform(lo, hi), lo, hi)
        params = param_sets[points % len(param_sets)]
        obj = _Objective(g, params)
        ana = obj.gradient(q)
        fd = ref.central_difference(obj, q, 1e-6)
        scale = max(float(np.linalg.norm(ana)), float(np.linalg.norm(fd)), 1e-12)
        rel = float(np.linalg.norm(ana - fd)) / scale
        if rel > 1e-4:
            failures.append(f"point {points} ({params.objective}, p={params.p}): rel {rel:.2e}")
        points += 1
    _report(9, "analytic vs central-difference gradients at 50 points (rel 1e-4)", failures)


# -- 10: determinism ------------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    failures = []
    cfg = {
        "lattice": {"b": 2, "K": 2},
        "process": {"gbm": {"n": 1, "d": 1, "drift": [[0.24]], "vol": [[0.69]],
                            "corr": [[1.0]], "s0": [[1.0]]}},
        "constraints": {"N": 1.8, "c": None, "p": 2.0},
        "objective": "m",
        "solver": {"max_iter": 200, "restarts": 4, "tol": 1e-9, "seed": 7},
        "io": {"process_file": "process.csv", "measure_file": "measure.csv",
               "report_file": "report.json"},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        out.mkdir()
        for command in ("simulate", "optimize", "eval"):
            code = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
            if code != 0:
                failures.append(f"{name}/{command}: exit {code}")
        outs.append(out)
    for artifact in ("process.csv", "measure.csv", "report.json"):
        a = (outs[0] / artifact).read_bytes()
        b = (outs[1] / artifact).read_bytes()
        if a != b:
            failures.append(f"{artifact} differs between identical runs")
    _report(10, "byte-identical reports for identical config and seed", failures)
