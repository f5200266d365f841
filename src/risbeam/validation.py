"""Numerical validation of the analytic gradients.

Central finite differences over the real and imaginary parts of each entry
approximate the conjugate-coordinate gradient of a real cost: for f(z) real,
grad_conj f = (df/dRe + j*df/dIm) / 2. The perturbed points go to the cost
as stacks, so one batched call evaluates a whole block of them; the phase
and precoder costs run through the per-solve pattern objects of ``pattern``.
The pattern cost is also evaluated with a full (unstructured) phase matrix
through an independent dense quadratic form, both by finite differences and
in closed form, to check that the diagonal of the full-matrix gradient
reproduces the vector gradient used by the phase solver. The finite
differences form the pattern of each perturbed matrix T from Q = T V T^H as
one product of vec(Q) against a table of steering-row outer products; the
closed-form gradient goes through rows T V, so the two reach the dense
form by different products and neither uses the solver's lag-domain kernel.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .channel import ChannelStats
from .pattern import (AngularGrid, TargetPattern, WeightConfig, _as_precoder, _PhaseSolve,
                      _PrecoderSolve, compute_weights, grid_steering_rows, normalized_pattern,
                      target_value)
from .synthesis import phase_gradient, precoder_gradient

# Perturbed points per batched cost call. With the vec(Q) oracle the cost per
# point falls with the block: a 240-instance audit (M <= 8, one BLAS thread,
# median of 6 fresh processes) took 0.53 s at 8 points per block, 0.44 s at
# 16, 0.34 s at 32, 0.33 s at 64 and 0.30 s at 128, at a peak RSS of
# 37.66-37.72 MB up to 64 and 37.92 MB at 128.
FD_BLOCK = 64
# Entries of one angle block of the full-matrix oracle's product table:
# 2**16 complex entries (1 MB) hold the whole table at the audit sizes (M <= 8)
# and six angles of it at M = 100.
TABLE_ENTRIES = 1 << 16


def wirtinger_finite_difference(fn: Callable[[np.ndarray], np.ndarray], z: np.ndarray,
                                step: float = 1e-6) -> np.ndarray:
    """Conjugate-coordinate gradient of a real-valued cost by central
    differences over the real and imaginary part of every entry of ``z``.

    The 4 * z.size points z +- step * e_k and z +- j * step * e_k reach
    ``fn`` as stacks of shape (B, *z.shape) with B <= FD_BLOCK; ``fn``
    returns the B costs.
    """
    z = np.asarray(z, dtype=complex)
    n = z.size
    # point 4k + i moves entry k by deltas[i]
    deltas = step * np.array([1.0, -1.0, 1j, -1j])
    costs = np.empty(4 * n)
    for start in range(0, 4 * n, FD_BLOCK):
        idx = np.arange(start, min(start + FD_BLOCK, 4 * n))
        points = np.repeat(z.reshape(1, n), idx.size, axis=0)
        points[np.arange(idx.size), idx // 4] += deltas[idx % 4]
        costs[idx] = fn(points.reshape((idx.size,) + z.shape))
    c = costs.reshape(n, 4)
    d_re = (c[:, 0] - c[:, 1]) / (2.0 * step)
    d_im = (c[:, 2] - c[:, 3]) / (2.0 * step)
    return (0.5 * (d_re + 1j * d_im)).reshape(z.shape)


def relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Max-norm deviation normalized by the max-norm of the exact value."""
    exact = np.asarray(exact)
    denom = max(float(np.max(np.abs(exact))), np.finfo(float).tiny)
    return float(np.max(np.abs(np.asarray(approx) - exact))) / denom


def _dense_excitation(precoder, stats: ChannelStats) -> tuple[np.ndarray, float]:
    """Inner matrix V = A [I o (P B^H W W^H B)] A^H of the quadratic form, by
    explicit dense products, and ||W||^2."""
    w, wnorm2 = _as_precoder(precoder)
    bw = stats.bs_departure.conj().T @ w
    gram = bw @ bw.conj().T
    excite = np.diag(np.diag(np.diag(stats.path_powers) @ gram))
    v = stats.ris_arrival @ excite @ stats.ris_arrival.conj().T
    return v, wnorm2


def _full_matrix_pattern(theta_matrix: np.ndarray, v: np.ndarray, wnorm2: float,
                         stats: ChannelStats, grid: AngularGrid) -> np.ndarray:
    """Normalized pattern of a full phase matrix T, or of each matrix in a
    stack (..., M, M): the diagonal of rows T V T^H rows^H through dense
    products (no per-path shortcut). Each matrix costs Q = T V T^H; the
    pattern at angle j is then Re sum_ab Q_ab t_jab with t_jab =
    rows_ja conj(rows_jb), so the whole stack takes one GEMM of vec(Q)
    against the table t per block of angles. The blocks share one buffer of
    at most TABLE_ENTRIES entries, so no (grid, M^2) table is held at a
    large M."""
    q = (theta_matrix @ v) @ theta_matrix.conj().swapaxes(-1, -2)
    rows = grid_steering_rows(grid)
    g, m = rows.shape
    vec_q = q.reshape(q.shape[:-2] + (m * m,))
    reflected = np.empty(q.shape[:-2] + (g,))
    step = min(g, max(1, TABLE_ENTRIES // (m * m)))
    block = np.empty((step, m, m), complex)
    for start in range(0, g, step):
        r = rows[start:start + step]
        table = block[:len(r)]
        np.multiply(r[:, :, None], r.conj()[:, None, :], out=table)
        reflected[..., start:start + len(r)] = (vec_q @ table.reshape(len(r), m * m).T).real
    return m * m * stats.num_bs_antennas * reflected / wnorm2


def full_matrix_phase_gradient(theta_matrix: np.ndarray, precoder,
                               target_values: np.ndarray, weights: np.ndarray,
                               stats: ChannelStats, grid: AngularGrid) -> np.ndarray:
    """Closed-form conjugate gradient of the fixed-weight cost with respect to
    an unstructured phase matrix, shape (M, M). The production phase gradient
    must equal its diagonal."""
    theta_matrix = np.asarray(theta_matrix, dtype=complex)
    v, wnorm2 = _dense_excitation(precoder, stats)
    ybar = _full_matrix_pattern(theta_matrix, v, wnorm2, stats, grid)
    f = np.asarray(target_values, dtype=float)
    u = np.asarray(weights, dtype=float) * (ybar - f)
    m = stats.num_ris_elements
    scale = 2.0 * m * m * stats.num_bs_antennas / wnorm2
    rows = grid_steering_rows(grid)
    return scale * (rows.conj().T * u[None, :]) @ (rows @ theta_matrix @ v)


def gradient_check(stats: ChannelStats, target: TargetPattern,
                   weight_config: WeightConfig, grid: AngularGrid,
                   theta: np.ndarray, precoder, fd_step: float = 1e-6) -> dict[str, float]:
    """Relative errors of the analytic gradients at one point.

    * ``precoder_fd`` / ``phase_fd`` -- analytic gradients against central
      finite differences of the fixed-weight cost (phases treated as free
      complex variables).
    * ``full_matrix_fd`` -- closed-form full-matrix gradient against finite
      differences over all matrix entries.
    * ``diag_extraction`` -- production phase gradient against the diagonal
      of the closed-form full-matrix gradient (pure algebra, so this should
      hold to machine precision).
    """
    theta = np.asarray(theta, dtype=complex)
    w, wnorm2 = _as_precoder(precoder)
    f = target_value(target, grid.angles)
    ybar = normalized_pattern(theta, w, stats, grid)
    weights = compute_weights(ybar, target, weight_config, grid.angles)
    phases = _PhaseSolve(stats, grid, None, None, w)
    precoders = _PrecoderSolve(stats, grid, None, None, theta)

    # each cost maps a stack of points to one fixed-weight cost per point
    def fit(y: np.ndarray) -> np.ndarray:
        return (weights * (f - y) ** 2).sum(axis=-1)

    def cost_of_precoders(wc: np.ndarray) -> np.ndarray:
        return fit(precoders.pattern(wc)[2])

    def cost_of_phases(th: np.ndarray) -> np.ndarray:
        return fit(phases.pattern(th)[0])

    def cost_of_matrices(tm: np.ndarray) -> np.ndarray:
        return fit(_full_matrix_pattern(tm, v, wnorm2, stats, grid))

    v, _ = _dense_excitation(w, stats)
    tm0 = np.diag(theta)
    analytic_phase = phase_gradient(theta, w, stats, f, weights, grid)
    analytic_full = full_matrix_phase_gradient(tm0, w, f, weights, stats, grid)
    return {
        "precoder_fd": relative_error(
            wirtinger_finite_difference(cost_of_precoders, w, fd_step),
            precoder_gradient(w, theta, stats, f, weights, grid)),
        "phase_fd": relative_error(
            wirtinger_finite_difference(cost_of_phases, theta, fd_step), analytic_phase),
        "full_matrix_fd": relative_error(
            wirtinger_finite_difference(cost_of_matrices, tm0, fd_step), analytic_full),
        "diag_extraction": relative_error(np.diag(analytic_full), analytic_phase),
    }
