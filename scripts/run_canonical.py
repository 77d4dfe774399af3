#!/usr/bin/env python3
"""Walk the canonical two-path instance end to end.

Evaluates both unfairness functionals under the uniform and risk-neutral
measures, solves for the fairest measure under both objectives, and writes
a plot-ready CSV sweeping the constrained optimum against the equivalence
bound N.
"""
import argparse
import csv
from pathlib import Path

import numpy as np

import fairmeasure as fm


def canonical_process():
    lat = fm.build_lattice(2, 1)
    vals = np.array([[[1.0], [1.0]], [[2.0], [0.5]]])
    return fm.LatticeProcess(lat, 1, 1, vals)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="canonical_sweep.csv",
                        help="where to write the N-sweep CSV")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    g = canonical_process()
    uniform = fm.uniform_measure(g.lattice)
    oracle = fm.risk_neutral_binomial_measure(g)

    print("canonical instance: 1 -> (2.0, 0.5)")
    print(f"  risk-neutral weights: {oracle.weights.round(6).tolist()}")
    for name, Q in (("uniform", uniform), ("risk-neutral", oracle)):
        m_val = fm.unfairness_m(Q, g, fm.UnfairnessConfig(p=2.0))
        n_val = fm.unfairness_n(Q, g)
        print(f"  {name:13s} m(p=2) = {m_val:.6g}   n = {n_val:.6g}")

    for objective in ("m", "n"):
        params = fm.ConstraintParams(N=2.0, p=2.0, objective=objective)
        rep = fm.minimize(g, params, fm.SolveOptions(restarts=4, seed=args.seed))
        print(f"  fairest ({objective}): value = {rep.value:.3e}, "
              f"weights = {rep.measure.weights.round(6).tolist()}, "
              f"feasible = {rep.feasible}")

    rows = []
    prev = None
    for N in np.linspace(1.0, 3.0, 21):
        params = fm.ConstraintParams(N=float(N), p=2.0, objective="m")
        extra = [prev] if prev is not None else []
        rep = fm.minimize(g, params,
                          fm.SolveOptions(restarts=3, seed=args.seed),
                          extra_starts=extra)
        prev = rep.measure.weights
        rows.append((float(N), rep.value, float(rep.measure.weights[0])))

    out = Path(args.out)
    with out.open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["N", "optimal_m", "weight_path0"])
        writer.writerows(rows)
    print(f"wrote {out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
