"""Run the `synthesize` design of one config over a list of scenario seeds
and print one row of solver work and design quality per seed.

    OPENBLAS_NUM_THREADS=1 python3 tools/seed_sweep.py --seeds 2024,0-18 \
        [--config PATH] [--preset ci] [--src SRC]

Each seed runs `harness._design` in this process with SRC (default: this
tree's src/) first on the import path. A row lists the process CPU seconds
of that design, the final cost, the flat-top ripple, the alternation
rounds, the cost evaluations of the winning start's precoder and theta
solves, and how many of those solves ended at their iteration cap or on a
stalled line search. A last line sums the CPU time, the evaluations and
the Armijo backtracks of those solves and gives the median final cost and
the worst ripple. CPU time counts every BLAS thread, so pin one thread to
compare trees. SRC must be a tree whose `CgResult` counts `backtracks`.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import time
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """Parse "2024,0-3" into [2024, 0, 1, 2, 3]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="comma-separated seeds and inclusive ranges, e.g. 2024,0-18")
    parser.add_argument("--config", help="JSON scenario file (defaults are built in)")
    parser.add_argument("--preset", default="ci")
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from risbeam import harness
    from risbeam.scenario import ScenarioConfig

    config = ScenarioConfig.load(args.config, args.preset)
    print(f"{'seed':>6} {'cpu_s':>7} {'final_cost':>11} {'ripple_db':>9} {'rounds':>6} "
          f"{'evals_w':>8} {'evals_theta':>11} {'capped':>6} {'stalled':>7}")
    cpu, costs, ripples, evals, backtracks = 0.0, [], [], 0, 0
    for seed in args.seeds:
        t0 = time.process_time()
        result = harness._design(dataclasses.replace(config, seed=seed))[2]
        took = time.process_time() - t0
        # solves alternate precoder, theta, precoder, ...
        evals_w, evals_theta = (sum(s.cost_evals for s in result.solves[i::2]) for i in (0, 1))
        statuses = [s.status for s in result.solves]
        print(f"{seed:>6} {took:>7.2f} {result.final_cost:>11.4e} "
              f"{result.flat_top_ripple_db:>9.3f} {len(result.solves) // 2:>6} "
              f"{evals_w:>8} {evals_theta:>11} {statuses.count('max_iterations'):>6} "
              f"{statuses.count('line_search_stalled'):>7}", flush=True)
        cpu += took
        costs.append(result.final_cost)
        ripples.append(result.flat_top_ripple_db)
        evals += evals_w + evals_theta
        backtracks += sum(s.backtracks for s in result.solves)
    print(f"{len(args.seeds)} seeds: cpu {cpu:.2f} s, median final cost "
          f"{statistics.median(costs):.4e}, worst ripple {max(ripples):.3f} dB, "
          f"cost evaluations {evals}, backtracks {backtracks}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
