"""Optimization on the product of unit circles (one circle per surface element).

The feasible set {theta : |theta_m| = 1} is treated as a Riemannian
submanifold of C^M with the real inner product Re[x^H y]. Tangent vectors at
theta satisfy Re[x o conj(theta)] = 0 entrywise; the retraction normalizes
each entry back to the circle. A Polak-Ribiere conjugate-gradient iteration
with Armijo backtracking searches the manifold; the same engine with identity
projection/retraction doubles as the plain Euclidean CG used for the precoder
subproblem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

RETRACTION_EPS = 1e-14


class RetractionError(ValueError):
    """An entry is too close to the origin to be normalized onto its circle."""


class LineSearchError(RuntimeError):
    """Armijo backtracking exhausted its halving budget without acceptance."""


def real_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of entrywise Re[conj(a) * b]; the manifold's ambient inner product."""
    return float(np.vdot(a, b).real)


def project_tangent(base: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the tangent space at ``base``:
    d - Re[d o conj(base)] o base."""
    base = np.asarray(base)
    vector = np.asarray(vector)
    if vector.shape != base.shape:
        raise ValueError("vector and base point must have the same shape")
    return vector - (vector * base.conj()).real * base


def retract(point: np.ndarray) -> np.ndarray:
    """Entrywise normalization x_m / |x_m| back onto the manifold."""
    mags = np.abs(point)
    if np.any(mags < RETRACTION_EPS):
        raise RetractionError("cannot retract a vector with a near-zero entry")
    return point / mags


def random_unit_modulus(size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform i.i.d. phases on the unit circle."""
    return np.exp(2j * np.pi * rng.uniform(size=size))


def is_unit_modulus(theta: np.ndarray, atol: float = 1e-9) -> bool:
    return bool(np.all(np.abs(np.abs(theta) - 1.0) <= atol))


@dataclass(frozen=True)
class ArmijoParams:
    """Backtracking constants: step q * contraction^n, sufficient-decrease
    factor, and the halving budget; the synthesis solves use the defaults.

    Inside a CG solve ``initial_step`` is q, the first search's step and the
    cap on every later one (see ``_cg_minimize``).
    """

    initial_step: float = 1.0
    contraction: float = 0.5
    sufficient_decrease: float = 1e-4
    max_halvings: int = 50

    def __post_init__(self) -> None:
        if not 0.0 < self.initial_step < math.inf:
            raise ValueError("initial step must be positive and finite")
        if not 0.0 < self.contraction < 1.0:
            raise ValueError("contraction factor must lie in (0, 1)")
        if not 0.0 < self.sufficient_decrease < 1.0:
            raise ValueError("sufficient-decrease factor must lie in (0, 1)")
        if self.max_halvings < 0:
            raise ValueError("max_halvings must be nonnegative")


class ArmijoResult(NamedTuple):
    step: float
    point: np.ndarray
    cost: float
    halvings: int


def armijo_search(cost: Callable[[np.ndarray], float], base: np.ndarray,
                  direction: np.ndarray, grad: np.ndarray,
                  params: ArmijoParams = ArmijoParams(),
                  cost_at_base: float | None = None,
                  retraction: Callable[[np.ndarray], np.ndarray] = retract) -> ArmijoResult:
    """Smallest-n Armijo backtracking along a descent direction.

    Accepts the first step q*l^n (n = 0, 1, ...; ``halvings`` is n) whose
    retracted point drops the cost by at least the sufficient-decrease
    fraction of the predicted linear decrease. Trial points that cannot be
    retracted count as rejected steps. Raises LineSearchError when the
    halving budget runs out and ValueError when handed an ascent direction.

    A nonnegative cost at the base point is taken to mean a nonnegative
    cost, as the synthesis costs are sums of weighted squares: a trial
    whose required decrease exceeds the base cost j0 then fails whatever
    its cost jc >= 0, since j0 - jc <= j0 in floating point. Such a step is
    halved past without retracting or costing it, and still spends one
    trial of the budget, so the accepted step, point and cost, and every
    failure, are those of a search that costs every trial. For a cost that
    is negative somewhere, a skipped step could only have been accepted at
    a negative cost; the search still returns a step that passes the test.
    """
    slope = real_inner(grad, direction)
    if slope > 0.0:
        raise ValueError("armijo_search needs a descent direction (got ascent)")
    j0 = cost(base) if cost_at_base is None else cost_at_base
    step = params.initial_step
    for halvings in range(params.max_halvings + 1):
        trial, step = step, step * params.contraction
        required = -params.sufficient_decrease * trial * slope
        if j0 >= 0.0 and required > j0:
            continue
        try:
            candidate = retraction(base + trial * direction)
        except RetractionError:
            continue
        jc = cost(candidate)
        if j0 - jc >= required:
            return ArmijoResult(step=trial, point=candidate, cost=jc, halvings=halvings)
    raise LineSearchError(f"no Armijo step within {params.max_halvings} halvings")


@dataclass
class CgResult:
    """The record of one CG solve: ``cost_trace`` holds the cost at the start
    point and after every accepted step (nonincreasing), ``status`` how the
    solve ended, ``cost_evals`` the calls of the cost, retries included,
    and ``backtracks`` the rejected trial steps of its Armijo searches: the
    halvings before each accepted step, skipped trials included, and the
    whole budget of each failed search. The gradient is called once at the
    start point and once per accepted step, ``iterations + 1`` times."""

    point: np.ndarray
    cost_trace: np.ndarray
    status: str
    cost_evals: int
    backtracks: int

    @property
    def iterations(self) -> int:
        return len(self.cost_trace) - 1

    @property
    def final_cost(self) -> float:
        return float(self.cost_trace[-1])


def _cg_minimize(cost, euclidean_grad, x0, project, retraction, armijo,
                 grad_tol, cost_tol, max_iters) -> CgResult:
    """Polak-Ribiere(+) CG shared by the manifold and Euclidean solvers.

    The previous gradient and search direction are transported by the same
    tangent projection before entering the Polak-Ribiere parameter, which is
    clamped at zero; any non-descent direction triggers a reset to steepest
    descent. A search that fails along a conjugate direction is retried
    once along -g from q; a failed search along -g, or a failed retry, ends
    the solve as "line_search_stalled" at the last accepted point.

    Each search after the first starts where the previous one was accepted
    (Nocedal & Wright, Numerical Optimization, 2nd ed., sec. 3.5): at
    min(q, 2 * accepted step) when the accepted step was the first trial of
    the search that produced it, and at the accepted step when that search
    backtracked. The acceptance test is unchanged, so the cost trace stays
    nonincreasing.
    """
    evals = backtracks = 0

    def counted_cost(point):
        nonlocal evals
        evals += 1
        return cost(point)

    def search(x, d, g, j, params):
        nonlocal backtracks
        try:
            accepted = armijo_search(counted_cost, x, d, g, params, cost_at_base=j,
                                     retraction=retraction)
        except LineSearchError:
            backtracks += params.max_halvings + 1
            return None
        backtracks += accepted.halvings
        return accepted

    x = np.asarray(x0, dtype=complex)
    g = project(x, euclidean_grad(x))
    d = -g
    j = float(counted_cost(x))
    trace = [j]
    status = "max_iterations"
    warm = armijo
    for _ in range(max_iters):
        gnorm = float(np.linalg.norm(g))
        if gnorm < grad_tol:
            status = "gradient_tolerance"
            break
        if real_inner(g, d) >= 0.0 and np.any(d != 0):
            d = -g
        params = warm
        accepted = search(x, d, g, j, params)
        if accepted is None and not np.array_equal(d, -g):
            d, params = -g, armijo
            accepted = search(x, d, g, j, params)
        if accepted is None:
            status = "line_search_stalled"
            break
        x_new, j_new = accepted.point, accepted.cost
        if accepted.step > 0.0:  # a step halved past the smallest float is 0
            start = (min(armijo.initial_step, 2.0 * accepted.step)
                     if accepted.step == params.initial_step else accepted.step)
            warm = replace(armijo, initial_step=start)
        g_new = project(x_new, euclidean_grad(x_new))
        beta = max(0.0, real_inner(g_new, g_new - project(x_new, g)) / (gnorm * gnorm))
        d = -g_new + beta * project(x_new, d)
        rel_drop = (j - j_new) / max(abs(j), np.finfo(float).tiny)
        x, g, j = x_new, g_new, j_new
        trace.append(j)
        if rel_drop < cost_tol:
            status = "cost_tolerance"
            break
    return CgResult(point=x, cost_trace=np.asarray(trace), status=status, cost_evals=evals,
                    backtracks=backtracks)


def rcg_minimize(cost: Callable[[np.ndarray], float],
                 euclidean_grad: Callable[[np.ndarray], np.ndarray],
                 theta0: np.ndarray,
                 armijo: ArmijoParams = ArmijoParams(),
                 grad_tol: float = 1e-6,
                 cost_tol: float = 1e-8,
                 max_iters: int = 500) -> CgResult:
    """Riemannian CG over the unit-modulus phases.

    ``euclidean_grad`` must return the conjugate-coordinate (Wirtinger)
    gradient of the real cost; it is projected to the tangent space at every
    iterate. Terminates on small Riemannian gradient norm, small relative
    cost drop, or the iteration cap. Line-search stalls end the run with the
    best point so far and status "line_search_stalled".
    """
    theta0 = np.asarray(theta0, dtype=complex)
    if not is_unit_modulus(theta0):
        raise ValueError("theta0 must lie on the unit-modulus manifold")
    return _cg_minimize(cost, euclidean_grad, theta0, project_tangent, retract,
                        armijo, grad_tol, cost_tol, max_iters)


def _euclid_project(_x: np.ndarray, v: np.ndarray) -> np.ndarray:
    return v


def _euclid_retract(x: np.ndarray) -> np.ndarray:
    return x


def euclidean_cg_minimize(cost, euclidean_grad, x0,
                          armijo: ArmijoParams = ArmijoParams(),
                          grad_tol: float = 1e-6,
                          cost_tol: float = 1e-8,
                          max_iters: int = 500) -> CgResult:
    """Unconstrained complex CG with the same Armijo rule (identity retraction)."""
    return _cg_minimize(cost, euclidean_grad, x0, _euclid_project, _euclid_retract,
                        armijo, grad_tol, cost_tol, max_iters)
