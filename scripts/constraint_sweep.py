#!/usr/bin/env python3
"""Sweep the constrained optimum over an (N, c) grid for a two-asset lattice.

Solves the fairest-measure problem on every grid cell with warm starts
chained along both axes (tighter cells seed looser ones), and emits a
plot-ready CSV of optimum values and floor slacks.
"""
import argparse
import csv
from pathlib import Path

import numpy as np

import fairmeasure as fm


def two_asset_instance():
    lat = fm.build_lattice(2, 1)
    cols = []
    for up, down in [(2.0, 0.5), (1.7, 0.6)]:
        vals = np.array([[[1.0], [1.0]], [[up], [down]]])
        cols.append(vals)
    return fm.LatticeProcess(lat, 2, 1, np.concatenate(cols, axis=2))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="constraint_sweep.csv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--objective", choices=["m", "n"], default="m")
    parser.add_argument("-p", type=float, default=2.0)
    args = parser.parse_args()

    g = two_asset_instance()
    uniform = fm.uniform_measure(g.lattice)
    base_corr = fm.correlation_integral(uniform, g, 0, 1)
    print(f"correlation integral at the base measure: {base_corr:.6f}")

    N_grid = [1.2, 1.5, 2.0, 3.0]
    c_grid = [0.0, base_corr / 2, base_corr * 0.9]

    rows = []
    winners: dict[tuple[float, float], np.ndarray] = {}
    for c in sorted(c_grid, reverse=True):
        for N in N_grid:
            extra = []
            smaller_N = max((x for x in N_grid if x < N), default=None)
            larger_c = min((x for x in c_grid if x > c), default=None)
            for key in ((smaller_N, c), (N, larger_c)):
                if key in winners:
                    extra.append(winners[key])
            params = fm.ConstraintParams(N=N, c=c, p=args.p, objective=args.objective)
            rep = fm.minimize(g, params,
                              fm.SolveOptions(restarts=4, seed=args.seed),
                              extra_starts=extra)
            winners[(N, c)] = rep.measure.weights
            slack = min(v for k, v in rep.constraint_slacks.items()
                        if k.startswith("correlation"))
            rows.append((N, c, rep.value, int(rep.feasible), slack))
            print(f"N={N:4.2f} c={c:7.4f}  value={rep.value:.6e}  "
                  f"feasible={rep.feasible}  floor slack={slack:+.2e}")

    out = Path(args.out)
    with out.open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["N", "c", "value", "feasible", "floor_slack"])
        writer.writerows(rows)
    print(f"wrote {out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
