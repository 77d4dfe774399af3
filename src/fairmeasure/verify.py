"""Invariant suites behind the `fairmeasure verify` command.

Each check runs on deterministically generated instances and reports
PASS / FAIL / SKIP with a counterexample summary on failure, and the wall
time it took, which the command prints but keeps out of its report.
"""
from __future__ import annotations

import os
import time
import zlib

import numpy as np

from .cli import _resolve_in, load_process
from .errors import FairmeasureError
from .lattice import (Density, LatticeProcess, Measure, build_lattice,
                      cond_exp, cond_exp_reweighted,
                      find_adaptedness_violation, uniform_measure)
from .processes import branch_innovations, risk_neutral_binomial_measure, simulate_gbm
from ._projection import frank_wolfe_gap
from .solver import (ConstraintParams, _Objective, box_bounds, brute_force_min,
                     project_capped_simplex)
from .unfairness import UnfairnessConfig, is_martingale, unfairness_m, unfairness_n

Result = tuple[str, str, str, float]  # (name, PASS|FAIL|SKIP, detail, seconds)


def random_measure(rng: np.random.Generator, lattice) -> Measure:
    w = rng.uniform(0.1, 1.0, lattice.n_paths)
    return Measure(lattice, w / w.sum())


def random_process(rng: np.random.Generator, lattice, n: int = 1, d: int = 1,
                   low: float = 0.2, high: float = 3.0) -> LatticeProcess:
    """Adapted by construction: one draw per (time, block), expanded to paths."""
    M = n * d
    vals = np.empty((lattice.depth + 1, lattice.n_paths, M))
    for k in range(lattice.depth + 1):
        per_block = rng.uniform(low, high, (lattice.n_blocks(k), M))
        vals[k] = np.repeat(per_block, lattice.block_size(k), axis=0)
    return LatticeProcess(lattice, n, d, vals)


def martingale_from_terminal(terminal: np.ndarray, Q: Measure, n: int = 1,
                             d: int = 1) -> LatticeProcess:
    """Backward closure: x(k) = E_Q[x(k+1) | F_k] from given terminal values."""
    lat = Q.lattice
    M = n * d
    vals = np.empty((lat.depth + 1, lat.n_paths, M))
    vals[lat.depth] = terminal.reshape(lat.n_paths, M)
    for k in range(lat.depth - 1, -1, -1):
        vals[k] = cond_exp(vals[k + 1], k, Q)
    return LatticeProcess(lat, n, d, vals)


def _check_refinement(rng) -> tuple[bool, str]:
    for b, K in [(2, 3), (3, 2), (2, 5)]:
        lat = build_lattice(b, K)
        for k in range(K):
            coarse = lat.partition(k)
            fine = lat.partition(k + 1)
            for blk in fine:
                parents = [c for c in coarse if blk.start >= c.start and blk.stop <= c.stop]
                if len(parents) != 1:
                    return False, f"b={b} K={K}: block {blk} at level {k + 1} not nested"
        if len(lat.partition(0)) != 1 or len(lat.partition(K)) != lat.n_paths:
            return False, f"b={b} K={K}: partition sizes wrong"
    return True, ""


def _check_tower(rng) -> tuple[bool, str]:
    for _ in range(25):
        lat = build_lattice(int(rng.integers(2, 4)), int(rng.integers(1, 4)))
        Q = random_measure(rng, lat)
        x = rng.uniform(-5.0, 5.0, lat.n_paths)
        for k in range(lat.depth + 1):
            for l in range(k, lat.depth + 1):
                lhs = cond_exp(cond_exp(x, l, Q), k, Q)
                rhs = cond_exp(x, k, Q)
                err = float(np.abs(lhs - rhs).max())
                if err > 1e-12:
                    return False, f"tower error {err:.3e} at (k={k}, l={l}, b={lat.branching}, K={lat.depth})"
    return True, ""


def _check_reweighting(rng) -> tuple[bool, str]:
    for _ in range(25):
        lat = build_lattice(int(rng.integers(2, 4)), int(rng.integers(1, 4)))
        base = uniform_measure(lat)
        F_raw = rng.uniform(0.2, 2.0, lat.n_paths)
        F_raw = F_raw / F_raw.mean()
        F = Density(lat, F_raw)
        x = rng.uniform(-5.0, 5.0, lat.n_paths)
        k = int(rng.integers(0, lat.depth + 1))
        lhs = cond_exp_reweighted(x, F, k, base)
        Q = Measure(lat, F_raw / lat.n_paths)
        rhs = cond_exp(x, k, Q)
        err = float(np.abs(lhs - rhs).max())
        if err > 1e-12:
            return False, f"reweighting mismatch {err:.3e} at k={k}"
    return True, ""


def _check_characterization(rng) -> tuple[bool, str]:
    for trial in range(20):
        lat = build_lattice(2, int(rng.integers(1, 4)))
        Q = random_measure(rng, lat)
        generic = random_process(rng, lat)
        mart = martingale_from_terminal(rng.uniform(0.5, 2.0, lat.n_paths), Q)
        for proc, expect_mart in [(generic, None), (mart, True)]:
            check = is_martingale(Q, proc, 1e-9)
            for p in (1.0, 2.0, 3.0):
                m_val = unfairness_m(Q, proc, UnfairnessConfig(p=p))
                if check.ok and m_val > 1e-18:
                    return False, f"martingale with m={m_val!r} (p={p}, trial {trial})"
                if not check.ok and m_val <= 1e-18:
                    return False, f"non-martingale with m={m_val!r} (p={p}, trial {trial})"
            if expect_mart and not check.ok:
                return False, f"constructed martingale failed check, dev={check.max_deviation!r}"
    return True, ""


def _check_homogeneity(rng) -> tuple[bool, str]:
    for _ in range(20):
        lat = build_lattice(int(rng.integers(2, 4)), int(rng.integers(1, 3)))
        Q = random_measure(rng, lat)
        x = random_process(rng, lat)
        lam = float(rng.uniform(0.3, 4.0)) * float(rng.choice([-1.0, 1.0]))
        for p in (1.0, 2.0, 3.0):
            cfg = UnfairnessConfig(p=p)
            lhs = unfairness_m(Q, x.scaled(lam), cfg)
            rhs = abs(lam) ** p * unfairness_m(Q, x, cfg)
            if abs(lhs - rhs) > 1e-10 * max(1e-30, abs(rhs)):
                return False, f"homogeneity off: {lhs!r} vs {rhs!r} (lam={lam}, p={p})"
    return True, ""


def _check_triangle(p: float):
    def run(rng) -> tuple[bool, str]:
        for _ in range(20):
            lat = build_lattice(2, int(rng.integers(1, 3)))
            Q = random_measure(rng, lat)
            x = random_process(rng, lat)
            y = random_process(rng, lat)
            z = LatticeProcess(lat, 1, 1, x.values + y.values)
            cfg = UnfairnessConfig(p=p)
            lhs = unfairness_m(Q, z, cfg) ** (1.0 / p)
            rhs = unfairness_m(Q, x, cfg) ** (1.0 / p) + unfairness_m(Q, y, cfg) ** (1.0 / p)
            if lhs > rhs + 1e-9:
                return False, f"triangle violated: {lhs!r} > {rhs!r} (p={p})"
        return True, ""
    return run


def _check_scale_invariance(rng) -> tuple[bool, str]:
    for _ in range(20):
        lat = build_lattice(int(rng.integers(2, 4)), int(rng.integers(1, 3)))
        Q = random_measure(rng, lat)
        x = random_process(rng, lat)
        lam = float(rng.uniform(0.2, 8.0))
        lhs = unfairness_n(Q, x.scaled(lam))
        rhs = unfairness_n(Q, x)
        if abs(lhs - rhs) > 1e-10 * max(1e-30, rhs):
            return False, f"scale invariance off: {lhs!r} vs {rhs!r} (lam={lam})"
    return True, ""


def _check_gbm(rng) -> tuple[bool, str]:
    from .processes import GbmParams
    rho = np.array([[1.0, 0.4], [0.4, 1.0]])
    params = GbmParams(n=2, d=1, drift=np.array([[0.1], [0.05]]),
                       vol=np.array([[0.3], [0.5]]), corr=rho,
                       s0=np.array([[1.0], [2.0]]))
    lat = build_lattice(3, 3)
    proc = simulate_gbm(lat, params, seed=7)
    if find_adaptedness_violation(lat, proc.values) is not None:
        return False, "simulated process not adapted"
    if np.any(proc.values <= 0.0):
        return False, "simulated process not strictly positive"
    Z = branch_innovations(3, rho, seed=7)
    mean_err = float(np.abs(Z.mean(axis=0)).max())
    cov_err = float(np.abs(Z.T @ Z / 3 - rho).max())
    if mean_err > 1e-12 or cov_err > 1e-10:
        return False, f"innovation moments off: mean {mean_err:.2e}, cov {cov_err:.2e}"
    return True, ""


def _check_risk_neutral(rng) -> tuple[bool, str]:
    from .processes import GbmParams
    params = GbmParams(n=1, d=1, drift=np.array([[0.3]]), vol=np.array([[0.6]]),
                       corr=np.array([[1.0]]), s0=np.array([[1.0]]))
    lat = build_lattice(2, 4)
    proc = simulate_gbm(lat, params, seed=3)
    Q = risk_neutral_binomial_measure(proc)
    check = is_martingale(Q, proc, 1e-12)
    if not check.ok:
        return False, f"one-step deviation {check.max_deviation!r} under the oracle measure"
    return True, ""


def _check_projection(rng) -> tuple[bool, str]:
    """Sum, box and idempotence on random points; a G = 3 batch row by row
    against its rows' 1-D projections; the uniform box as two floats
    against the same box as two arrays, float for float."""
    for _ in range(25):
        lat = build_lattice(2, int(rng.integers(1, 4)))
        lo, hi = box_bounds(lat, float(rng.uniform(1.1, 3.0)))
        v = rng.uniform(-0.5, 1.5, lat.n_paths)
        q = project_capped_simplex(v, lo, hi)
        if abs(float(q.sum()) - 1.0) > 1e-12:
            return False, f"projection sum off by {q.sum() - 1.0:.2e}"
        if np.any(q < lo - 1e-12) or np.any(q > hi + 1e-12):
            return False, "projection left the box"
        again = project_capped_simplex(q, lo, hi)
        if float(np.abs(again - q).max()) > 1e-12:
            return False, "projection is not idempotent"
        V = np.vstack([v, rng.uniform(-0.5, 1.5, (2, lat.n_paths))])
        Q = project_capped_simplex(V, lo, hi)
        if any(not np.array_equal(Q[r], project_capped_simplex(V[r], lo, hi)) for r in range(3)):
            return False, "a batch row differs from its own 1-D projection"
        if not np.array_equal(project_capped_simplex(V, lo[0], hi[0]), Q):
            return False, "scalar and array bounds give different floats"
    return True, ""


def _central_difference(obj, q: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Central differences of the objective at q (P,), plus the floor's
    integrals weighted by ``weights`` (pairs,) where given, one perturbed
    row per coordinate and sign, with the step 1e-6 * max(1, |q|)."""
    E = 1e-6 * max(1.0, float(np.linalg.norm(q))) * np.eye(q.size)

    def value(X):
        tape = obj.tape(X)
        out = obj.evaluate(X, tape)[0]
        return out if weights is None else out + tape.moments[0] @ weights

    return (value(q + E) - value(q - E)) / (2.0 * E[0, 0])


def _check_gradient(rng) -> tuple[bool, str]:
    """The analytic gradient against central differences: m at p in
    {1.5, 2, 3}, n, and m plus a weighted correlation integral (n = 2
    exchanges, weight -25)."""
    lat = build_lattice(2, 2)
    lo, hi = box_bounds(lat, 3.0)
    cases = [(ConstraintParams(N=3.0, p=p), 1, None) for p in (1.5, 2.0, 3.0)]
    cases += [(ConstraintParams(N=3.0, objective="n"), 1, None),
              (ConstraintParams(N=3.0, c=1.0), 2, np.array([-25.0]))]
    for params, n, weights in cases * 5:
        obj = _Objective(random_process(rng, lat, n=n), params)
        q = project_capped_simplex(rng.uniform(lo, hi), lo, hi)
        ana, fd = obj.gradient(q, weights=weights), _central_difference(obj, q, weights)
        scale = max(float(np.linalg.norm(ana)), float(np.linalg.norm(fd)), 1e-12)
        if float(np.linalg.norm(ana - fd)) > 1e-4 * scale:
            return False, (f"{params.objective}, p={params.p}, c={params.c}: gradient "
                           f"mismatch {np.linalg.norm(ana - fd):.3e} vs scale {scale:.3e}")
    return True, ""


def _check_gap(rng) -> tuple[bool, str]:
    """The Frank-Wolfe gap of m (p > 1) at random feasible points equals
    <grad, q - s> at the greedy vertex s found by a full sort, and bounds
    m(q) minus the grid oracle's value, as convexity requires."""
    for _ in range(10):
        lat = build_lattice(2, int(rng.integers(1, 3)))
        N, p = float(rng.uniform(1.1, 3.0)), float(rng.choice([1.5, 2.0, 3.0]))
        params = ConstraintParams(N=N, p=p)
        lo, hi = box_bounds(lat, N)
        g = random_process(rng, lat, low=0.5, high=2.0)
        obj = _Objective(g, params)
        q = project_capped_simplex(rng.uniform(lo, hi), lo, hi)
        grad = obj.gradient(q)
        gap = float(frank_wolfe_gap(q, grad, lo, hi))
        s, spare = lo.copy(), 1.0 - float(lo.sum())
        for i in np.argsort(grad):
            s[i] += min(max(spare, 0.0), hi[i] - lo[i])
            spare -= s[i] - lo[i]
        direct = float(grad @ (q - s))
        if abs(gap - direct) > 1e-12 * float(np.abs(grad).sum()):
            return False, f"gap {gap!r} != {direct!r} at the sorted vertex (p={p}, N={N:.3f})"
        value = float(obj.evaluate(q)[0][0])
        oracle = brute_force_min(g, params, resolution=200 if lat.n_paths == 2 else 40).value
        if gap < value - oracle - 1e-12:
            return False, f"gap {gap!r} below m(q) - min = {value - oracle!r} (p={p})"
    return True, ""


CHECKS = [
    ("partition-refinement", _check_refinement),
    ("tower-property", _check_tower),
    ("reweighting-identity", _check_reweighting),
    ("martingale-characterization", _check_characterization),
    ("m-homogeneity", _check_homogeneity),
    ("n-scale-invariance", _check_scale_invariance),
    ("gbm-build", _check_gbm),
    ("risk-neutral-oracle", _check_risk_neutral),
    ("projection", _check_projection),
    ("gradient-consistency", _check_gradient),
    ("frank-wolfe-gap", _check_gap),
]


def run_verification(cfg, out_dir: str, seed: int) -> list[Result]:
    """Run every invariant suite; returns (name, status, detail, seconds)
    per check.  Each check draws from a generator salted with a hash of its
    name, so adding, removing or reordering checks leaves the others' draws
    alone."""
    rng_for = lambda name: np.random.default_rng([seed, zlib.crc32(name.encode())])
    results: list[Result] = []

    process_path = _resolve_in(cfg, out_dir, cfg.io.process_file)
    if os.path.exists(process_path):
        start = time.perf_counter()
        try:
            load_process(process_path)
            status, detail = "PASS", ""
        except FairmeasureError as exc:
            status, detail = "FAIL", str(exc)
        results.append(("process-file-adapted", status, detail, time.perf_counter() - start))

    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = fn(rng_for(name))
            status = "PASS" if ok else "FAIL"
        except FairmeasureError as exc:
            status, detail = "FAIL", f"raised {type(exc).__name__}: {exc}"
        results.append((name, status, detail, time.perf_counter() - start))

    p = cfg.constraints.p
    if p < 1.0:
        results.append((f"m-triangle-p={p}", "SKIP", "skipped: p<1", 0.0))
    else:
        start = time.perf_counter()
        ok, detail = _check_triangle(p)(rng_for("m-triangle"))
        results.append((f"m-triangle-p={p}", "PASS" if ok else "FAIL", detail,
                        time.perf_counter() - start))
    return results
