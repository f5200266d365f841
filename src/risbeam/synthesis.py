"""Joint synthesis of the surface phases and the transmit precoder.

The weighted pattern-fit cost is minimized by alternating two conjugate
gradient solvers: a plain Euclidean CG over the precoder and a Riemannian CG
over the unit-modulus phases, each fed its analytic conjugate-coordinate
gradient. Weights are refreshed from the current pattern inside every cost
evaluation but held fixed inside the gradient formulas. Each inner solve
owns one cost-and-gradient object of ``pattern`` (``_PhaseSolve``,
``_PrecoderSolve``) that computes what the solve holds fixed once and lets
the gradient reuse the pattern terms of the accepted point.
Also provides the closed-form prediction of how a synthesized flat-top
region shifts when the incident angle changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStats
from .manifold import (ArmijoParams, CgResult, euclidean_cg_minimize,
                       random_unit_modulus, rcg_minimize)
from .pattern import (AngularGrid, TargetPattern, WeightConfig, _as_precoder, _PhaseSolve,
                      _PrecoderSolve, _weight_rule, check_flat_top_resolved,
                      normalized_pattern, region_masks, target_value)


def precoder_gradient(precoder, theta, stats: ChannelStats, target_values: np.ndarray,
                      weights: np.ndarray, grid: AngularGrid) -> np.ndarray:
    """Conjugate-coordinate gradient of the fixed-weight cost in the precoder.

    Two terms: a radial component along W from the pattern normalization and
    a term routing the weighted pattern residual back through the transmit
    steering stack.
    """
    w, _ = _as_precoder(precoder)
    solve = _PrecoderSolve(stats, grid, target_values, None, theta)
    return solve.gradient(w, *solve.pattern(w), weights)


def phase_gradient(theta, precoder, stats: ChannelStats, target_values: np.ndarray,
                   weights: np.ndarray, grid: AngularGrid) -> np.ndarray:
    """Conjugate-coordinate gradient of the fixed-weight cost in the phases.

    Equals the diagonal of the unconstrained full-matrix gradient of the
    pattern quadratic form, which is what makes optimizing only the diagonal
    phase matrix legitimate.
    """
    theta = np.asarray(theta, dtype=complex)
    solve = _PhaseSolve(stats, grid, target_values, None, precoder)
    return solve.gradient(theta, *solve.pattern(theta), weights)


def optimize_precoder(precoder0, theta, stats: ChannelStats, target: TargetPattern,
                      grid: AngularGrid, weight_config: WeightConfig = WeightConfig(),
                      armijo: ArmijoParams = ArmijoParams(),
                      grad_tol: float = 1e-6, cost_tol: float = 1e-8,
                      max_iters: int = 500) -> CgResult:
    """Euclidean CG over the precoder with the phases held fixed.

    The cost is invariant under rescaling of the precoder, so the returned
    matrix is renormalized to unit Frobenius norm for free.
    """
    w0, _ = _as_precoder(precoder0)
    solve = _PrecoderSolve(stats, grid, target_value(target, grid.angles),
                           _weight_rule(target, weight_config, grid.angles), theta)
    result = euclidean_cg_minimize(solve.cost, solve.grad, w0, armijo, grad_tol, cost_tol,
                                   max_iters)
    result.point = result.point / np.linalg.norm(result.point)
    return result


@dataclass
class SynthesisResult:
    """Winning multi-start design plus its diagnostics.

    ``solves`` holds the ``CgResult`` of every inner solve of the winning
    start in execution order (precoder, phases, precoder, ...), and
    ``initial_cost`` the cost of its random start; the outer trace and the
    final cost follow from them. ``outer_capped`` is true when the
    alternation stopped at ``outer_max_iters`` rounds before its relative
    cost drop fell below a positive ``outer_tol``.
    """

    theta: np.ndarray
    precoder: np.ndarray
    solves: tuple
    initial_cost: float
    achieved_pattern: np.ndarray
    flat_top_ripple_db: float
    grid: AngularGrid
    target_values: np.ndarray
    start_index: int
    outer_capped: bool

    @property
    def outer_cost_trace(self) -> np.ndarray:
        """The initial cost, then the cost after every alternation round."""
        return np.asarray([self.initial_cost] + [s.final_cost for s in self.solves[1::2]])

    @property
    def final_cost(self) -> float:
        return float(self.outer_cost_trace[-1])

    def concatenated_trace(self) -> np.ndarray:
        """All inner traces joined in execution order (nonincreasing)."""
        if not self.solves:
            return self.outer_cost_trace
        return np.concatenate([s.cost_trace for s in self.solves])

    def diagnostics(self) -> dict:
        """The solves of this start in execution order: round, block,
        iterations, cost evaluations, Armijo backtracks and status of each."""
        return {"solves": [
            {"round": i // 2 + 1, "block": ("precoder", "theta")[i % 2],
             "iterations": s.iterations, "cost_evals": s.cost_evals,
             "backtracks": s.backtracks, "status": s.status}
            for i, s in enumerate(self.solves)]}

    def solver_warnings(self) -> list[str]:
        """One line per inner solve that hit its iteration cap or whose line
        search stalled, e.g. "round 3 theta solve: max_iterations (500
        iterations)", then "outer loop: max_iterations (50 rounds)" when the
        alternation stopped at its round cap."""
        lines = [f"round {s['round']} {s['block']} solve: {s['status']} "
                 f"({s['iterations']} iterations)" for s in self.diagnostics()["solves"]
                 if s["status"] in ("max_iterations", "line_search_stalled")]
        if self.outer_capped:
            lines.append(f"outer loop: max_iterations ({len(self.solves) // 2} rounds)")
        return lines


def flat_top_ripple_db(pattern: np.ndarray, target: TargetPattern,
                       angles: np.ndarray) -> float:
    """Max-to-min spread, in dB, of the pattern over the flat-top region."""
    flat, _, _ = region_masks(target, angles)
    vals = np.asarray(pattern, dtype=float)[flat]
    if vals.size == 0:
        raise ValueError("no grid samples fall inside the flat-top region")
    lo = float(vals.min())
    if lo <= 0.0:
        return math.inf
    return 10.0 * math.log10(float(vals.max()) / lo)


def synthesize(target: TargetPattern, stats: ChannelStats, num_streams: int,
               oversampling: int = 10, weight_config: WeightConfig = WeightConfig(),
               armijo: ArmijoParams = ArmijoParams(),
               seed: int | np.random.SeedSequence = 0,
               num_starts: int = 3, inner_max_iters: int = 500,
               inner_grad_tol: float = 1e-6, inner_cost_tol: float = 1e-8,
               outer_max_iters: int = 50, outer_tol: float = 1e-4) -> SynthesisResult:
    """Alternating pattern synthesis, best of ``num_starts`` random starts.

    Each start draws uniform random phases and a Gaussian precoder from a
    child seed of ``seed``, then alternates the precoder and phase solvers
    until the relative cost drop per round falls below ``outer_tol`` or the
    round cap is hit. The start with the lowest final cost wins; ties go to
    the lowest start index.
    """
    m = stats.num_ris_elements
    grid = AngularGrid(oversampling, m)
    check_flat_top_resolved(target, grid)
    if num_starts < 1:
        raise ValueError("need at least one start")
    f = target_value(target, grid.angles)
    weight_rule = _weight_rule(target, weight_config, grid.angles)
    n_bs = stats.num_bs_antennas

    best: SynthesisResult | None = None
    for start, rng in enumerate(np.random.default_rng(seed).spawn(num_starts)):
        theta = random_unit_modulus(m, rng)
        w = rng.standard_normal((n_bs, num_streams)) + 1j * rng.standard_normal((n_bs, num_streams))
        w = w / np.linalg.norm(w)

        initial_cost = cost_now = float(_PhaseSolve(stats, grid, f, weight_rule, w).cost(theta))
        solves = []
        outer_capped = False
        for _ in range(outer_max_iters):
            w_step = optimize_precoder(w, theta, stats, target, grid, weight_config,
                                       armijo, inner_grad_tol, inner_cost_tol,
                                       inner_max_iters)
            w = w_step.point
            solve = _PhaseSolve(stats, grid, f, weight_rule, w)
            t_step = rcg_minimize(solve.cost, solve.grad, theta, armijo,
                                  inner_grad_tol, inner_cost_tol, inner_max_iters)
            theta = t_step.point
            solves += [w_step, t_step]

            rel_drop = (cost_now - t_step.final_cost) / max(abs(cost_now), np.finfo(float).tiny)
            cost_now = t_step.final_cost
            if rel_drop < outer_tol:
                break
        else:
            # with outer_tol = 0 (or no rounds) the cap is the only stopping rule
            outer_capped = outer_tol > 0 and outer_max_iters > 0

        achieved = normalized_pattern(theta, w, stats, grid)
        candidate = SynthesisResult(
            theta=theta, precoder=w / np.linalg.norm(w), solves=tuple(solves),
            initial_cost=initial_cost, achieved_pattern=achieved,
            flat_top_ripple_db=flat_top_ripple_db(achieved, target, grid.angles),
            grid=grid, target_values=f, start_index=start, outer_capped=outer_capped,
        )
        if best is None or candidate.final_cost < best.final_cost:
            best = candidate
    return best


@dataclass(frozen=True)
class CoverageRegion:
    """Angular interval [phi_min, phi_max] within [0, pi]."""

    phi_min: float
    phi_max: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.phi_min < self.phi_max <= np.pi):
            raise ValueError("need 0 <= phi_min < phi_max <= pi")


def predict_shifted_region(region: CoverageRegion, incident_from: float,
                           incident_to: float) -> CoverageRegion | None:
    """Where a flat-top beam lands when the incident angle moves.

    A surface configured to reflect an arriving wave from ``incident_from``
    onto ``region`` maps features at angle phi to the angle whose cosine is
    cos(phi) + cos(incident_from) - cos(incident_to) when re-illuminated from
    ``incident_to``. Returns ``None`` when the whole region is pushed outside
    [0, pi]. The prediction assumes the region lies in the upper half
    [pi/2, pi]; under that hypothesis a shift towards smaller angles can
    never push the lower edge past zero, and a violation raises.
    """
    if not (np.pi / 2 <= region.phi_min and region.phi_max <= np.pi):
        raise ValueError("prediction requires the region inside [pi/2, pi]")
    for name, val in (("incident_from", incident_from), ("incident_to", incident_to)):
        if not 0.0 < val < np.pi:
            raise ValueError(f"{name} must lie strictly inside (0, pi)")
    xi = math.cos(incident_from) - math.cos(incident_to)
    if xi == 0.0:
        return region
    c_lo = math.cos(region.phi_min) + xi
    c_hi = math.cos(region.phi_max) + xi
    if xi < 0.0:
        # shift towards pi; the far edge may be cut off at pi
        if c_lo <= -1.0:
            return None
        return CoverageRegion(math.acos(c_lo), math.acos(max(-1.0, c_hi)))
    # shift towards 0
    if c_hi >= 1.0:
        return None
    if c_lo > 1.0:
        raise ValueError("shift drives the lower edge past zero, outside the "
                         "prediction's hypothesis")
    return CoverageRegion(math.acos(min(1.0, c_lo)), math.acos(c_hi))


def measure_minus3db_region(angles: np.ndarray, pattern: np.ndarray) -> tuple[float, float]:
    """Edges of the contiguous -3 dB region around the pattern peak.

    Edge positions are refined by linear interpolation of the dB pattern
    between the bracketing grid samples, so the resolution is finer than one
    grid bin.
    """
    p = np.asarray(pattern, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("pattern must be a 1-D vector with at least two samples")
    if np.any(p < 0):
        raise ValueError("power pattern must be nonnegative")
    peak = int(np.argmax(p))
    floor = np.finfo(float).tiny
    db = 10.0 * np.log10(np.maximum(p, floor))
    thr = db[peak] - 3.0
    lo = peak
    while lo > 0 and db[lo - 1] >= thr:
        lo -= 1
    hi = peak
    while hi < p.size - 1 and db[hi + 1] >= thr:
        hi += 1
    if lo > 0:
        frac = (db[lo] - thr) / (db[lo] - db[lo - 1])
        lo_angle = angles[lo] - frac * (angles[lo] - angles[lo - 1])
    else:
        lo_angle = float(angles[0])
    if hi < p.size - 1:
        frac = (db[hi] - thr) / (db[hi] - db[hi + 1])
        hi_angle = angles[hi] + frac * (angles[hi + 1] - angles[hi])
    else:
        hi_angle = float(angles[-1])
    return float(lo_angle), float(hi_angle)
