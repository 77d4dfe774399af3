"""Re-measure ROADMAP's quoted per-call baselines with the benchmark's probe.

    python3 perfbench/baselines.py

Prints one JSON line per size: the median seconds of one ``unfairness_m``
call on a b = 2 GBM lattice with n = 1 at the uniform measure, timed like
the benchmark's ``unfairness.m.call_s`` probe (threads pinned to 1).  The
projection share on ``oracle_small`` is the ``solver.project.share`` metric
of a traced ``run.py --workload oracle_small --trace 1`` run.
"""
from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.pin_threads()
    fm = run.import_package()
    import workloads
    for K in (12, 16):
        lat = fm.build_lattice(2, K)
        g = fm.simulate_gbm(lat, workloads.gbm_params(workloads.DEEP_GBM), seed=0)
        Q = fm.uniform_measure(lat)
        seconds = run.median_call(lambda: fm.unfairness_m(Q, g))
        print(json.dumps({"probe": "unfairness.m.call_s", "b": 2, "K": K, "n": 1,
                          "P": lat.n_paths, "seconds": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
