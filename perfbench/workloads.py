"""Benchmark workloads: each is one `risbeam` CLI invocation with a fixed
scenario config; `run.py` derives the CLI's `--seed` from the workload seed.

Synthesis runs a fixed amount of solver work: tolerances are zero and the
round and iteration caps bind, so every seed does the same number of CG
iterations and wall time tracks the cost per iteration, not how soon a
particular channel draw happens to converge. A converged reference design
takes minutes, far longer than one benchmark run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Zero tolerances make the caps bind on every seed (a solve still ends
# early when its line search stalls).
FIXED_WORK = {"outer_tol": 0.0, "inner_cost_tol": 0.0, "inner_grad_tol": 0.0}

# Gate for a fixed-work design. The acceptance suite asks a converged
# reference design for ripple <= 2 dB and a final cost below 10 % of the
# initial one; a design stopped after two rounds misses either on a few
# seeds in a hundred (both figures are recorded as quality instead).
MAX_COST_RATIO = 0.5
TRACE_RTOL = 1e-9  # the acceptance suite's tolerance on a nonincreasing trace


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    why: str
    check: Callable[[dict, Path], list[str]]
    quality: Callable[[dict], dict[str, float]]


def _check_synth(report: dict, out_dir: Path) -> list[str]:
    outer = json.loads((out_dir / "result.json").read_text())["outer_cost_trace"]
    errors = [f"outer cost rose from {a:.6g} to {b:.6g} in round {i + 1}"
              for i, (a, b) in enumerate(zip(outer, outer[1:]))
              if b - a > TRACE_RTOL * outer[0]]
    if not outer[-1] < MAX_COST_RATIO * outer[0]:
        errors.append(f"final cost {outer[-1]:.6g} not below "
                      f"{MAX_COST_RATIO} x initial {outer[0]:.6g}")
    return errors


def _quality_synth(report: dict) -> dict[str, float]:
    p = report["payload"]
    return {"ripple_db": p["ripple_db"],
            "flat_gain_err_db": abs(10.0 * math.log10(
                p["achieved_flat_mean"] / p["target_flat_power"])),
            "cost_ratio": p["final_cost"] / p["initial_cost"]}


def _check_broadcast(report: dict, out_dir: Path) -> list[str]:
    # The one-round design is not converged: on a few draws its median rate
    # falls below the random-phase baseline, so only the no-surface
    # ordering is gated (both medians are recorded as quality).
    med = report["payload"]["median_rates"]
    if med["proposed"] > med["no_ris"]:
        return []
    return [f"median rate proposed {med['proposed']:.4f} <= no_ris {med['no_ris']:.4f}"]


def _quality_broadcast(report: dict) -> dict[str, float]:
    p = report["payload"]
    return {"median_rate_bits": p["median_rates"]["proposed"],
            "median_rate_random_phase_bits": p["median_rates"]["random_phase"],
            "median_rate_no_ris_bits": p["median_rates"]["no_ris"],
            "ripple_db": p["ripple_db"]}


def _check_gradcheck(report: dict, out_dir: Path) -> list[str]:
    return [] if report["payload"]["pass"] is True else ["gradcheck reports FAIL"]


def _quality_gradcheck(report: dict) -> dict[str, float]:
    worst = report["payload"]["worst"]
    return {"fd_worst_rel_err": max(worst["precoder_fd"], worst["phase_fd"],
                                    worst["full_matrix_fd"]),
            "diag_extraction": worst["diag_extraction"]}


WORKLOADS = {
    "synth-ref": Workload(
        command="synthesize",
        config={"optimizer": {"num_starts": 1, "outer_max_iters": 2,
                              "inner_max_iters": 60, **FIXED_WORK}},
        why="reference design shape (M=100, N_BS=64, 4 streams, 5 feed paths, "
            "grid 1000), one start: BLAS-sized pattern kernel and Armijo searches",
        check=_check_synth, quality=_quality_synth),
    "synth-small": Workload(
        command="synthesize",
        config={"ris_elements": 32, "bs_antennas": 16, "streams": 2,
                "bs_ris_paths": 3, "coverage_deg": [95, 135],
                "optimizer": {"num_starts": 3, "outer_max_iters": 2,
                              "inner_max_iters": 60, **FIXED_WORK}},
        why="same layers as synth-ref at M=32, grid 320, three starts: per-call "
            "Python overhead dominates, and it is the only multi-start workload",
        check=_check_synth, quality=_quality_synth),
    "broadcast-users": Workload(
        command="broadcast-cdf",
        config={"users": 1280, "realizations": 3,
                "optimizer": {"num_starts": 1, "outer_max_iters": 1,
                              "inner_max_iters": 20}},
        why="broadcast trial loop at the paper preset's 1280 users per "
            "realization: channel assembly, equivalent channel and log-dets",
        check=_check_broadcast, quality=_quality_broadcast),
    "gradcheck-audit": Workload(
        command="gradcheck",
        config={"gradcheck": {"instances": 240}},
        why="finite-difference gradient audit at M <= 8: the only workload "
            "that runs the validation layer; call overhead is everything",
        check=_check_gradcheck, quality=_quality_gradcheck),
}
