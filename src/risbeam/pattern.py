"""Flat-top target patterns and the average reflected power pattern.

The power reflected by a phase-shifting surface towards angle phi, averaged
over the path gains of the feeding multipath channel, admits a closed form
that depends only on the statistical CSI (path angles and mean powers), the
surface phases theta and the transmit precoder W:

    y(phi) = M^2 * N_BS * a(phi)^H Theta A [I o (P B^H W W^H B)] A^H Theta^H a(phi)

with A/B the stacked steering vectors, P the diagonal of mean path powers,
and `o` the Hadamard product. The pattern is identical at every subcarrier,
so a single (theta, W) pair serves the whole OFDM band.

It is evaluated in lag space: the beam power of an aperture y at
u = cos(phi) is the cosine series (c_0 + 2 sum_{k>=1} Re(c_k e^{-j pi k u})) / M
in its lags c_k = sum_m y_{m+k} conj(y_m). On a half-wavelength ULA the
apertures theta o a_l of all paths share the lags of theta up to a ramp,
so the lags of the excitation-weighted sum of the beams are c = rho o h: rho
is the autocorrelation of theta and h = A chi / sqrt(M) the excitations chi
summed over the steering columns A. ``_PhaseSolve`` and ``_PrecoderSolve``
form c so and take one real product with a cached table over half the grid
(u_{G-j} = -u_j); ``validation`` keeps the dense steering rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, cached_property

import numpy as np

from .channel import ArrayGeometry, ChannelStats, steering_matrix
from .manifold import is_unit_modulus


@dataclass(frozen=True)
class TargetPattern:
    """Flat-top target: constant ``flat_power`` over a sector, raised-cosine
    roll-off of relative width ``rolloff``, and a ``sidelobe_power`` floor."""

    flat_power: float
    sidelobe_power: float
    center: float
    half_width: float
    rolloff: float = 0.1

    def __post_init__(self) -> None:
        if not (self.flat_power > self.sidelobe_power >= 0.0):
            raise ValueError("need flat_power > sidelobe_power >= 0")
        if not (0.0 <= self.rolloff < 1.0):
            raise ValueError("rolloff factor must lie in [0, 1)")
        if self.half_width <= 0.0:
            raise ValueError("half_width must be positive")
        outer = self.half_width * (1.0 + self.rolloff)
        if self.center - outer < 0.0 or self.center + outer > np.pi:
            raise ValueError("target (including roll-off) must fit inside [0, pi]")

    @classmethod
    def for_coverage(cls, phi_min: float, phi_max: float, flat_power: float,
                     sidelobe_power: float | None = None,
                     rolloff: float = 0.1) -> "TargetPattern":
        """Build a target covering [phi_min, phi_max] (beam edges, radians)."""
        if not phi_min < phi_max:
            raise ValueError("phi_min must be below phi_max")
        if sidelobe_power is None:
            sidelobe_power = flat_power / 100.0
        return cls(flat_power=flat_power, sidelobe_power=sidelobe_power,
                   center=0.5 * (phi_min + phi_max),
                   half_width=0.5 * (phi_max - phi_min), rolloff=rolloff)

    @property
    def inner_half_width(self) -> float:
        return self.half_width * (1.0 - self.rolloff)

    @property
    def outer_half_width(self) -> float:
        return self.half_width * (1.0 + self.rolloff)


def target_value(target: TargetPattern, angle) -> np.ndarray:
    """Evaluate the flat-top target at angles in [0, pi]. Continuous everywhere."""
    d = np.abs(np.asarray(angle, dtype=float) - target.center)
    out = np.full_like(d, target.sidelobe_power)
    out[d <= target.inner_half_width] = target.flat_power
    roll = (d > target.inner_half_width) & (d <= target.outer_half_width)
    if np.any(roll):
        x = np.pi * (d[roll] - target.inner_half_width) / (2.0 * target.rolloff * target.half_width)
        mid = 0.5 * (target.flat_power + target.sidelobe_power)
        amp = 0.5 * (target.flat_power - target.sidelobe_power)
        out[roll] = mid + amp * np.cos(x)
    return out if out.ndim else float(out)


def region_masks(target: TargetPattern, angles: np.ndarray):
    """Boolean masks (flat, sidelobe, rolloff) partitioning the given angles."""
    d = np.abs(np.asarray(angles, dtype=float) - target.center)
    flat = d <= target.inner_half_width
    side = d > target.outer_half_width
    return flat, side, ~flat & ~side


@dataclass(frozen=True)
class AngularGrid:
    """Uniform oversampled grid over [0, pi): angles pi*j/(k*M)."""

    oversampling: int
    num_ris_elements: int

    def __post_init__(self) -> None:
        if self.oversampling <= 1:
            raise ValueError("oversampling factor must exceed 1")
        if self.num_ris_elements < 1:
            raise ValueError("num_ris_elements must be positive")

    @property
    def size(self) -> int:
        return self.oversampling * self.num_ris_elements

    @property
    def spacing(self) -> float:
        return np.pi / self.size

    @cached_property
    def angles(self) -> np.ndarray:
        a = np.arange(self.size) * self.spacing
        a.flags.writeable = False
        return a


def check_flat_top_resolved(target: TargetPattern, grid: AngularGrid) -> None:
    """Reject a flat top narrower than one grid bin: the synthesis would fit
    at most one sample of it."""
    if 2.0 * target.inner_half_width < grid.spacing:
        raise ValueError("flat-top region narrower than one grid bin; "
                         "increase the beamwidth or the oversampling")


@dataclass(frozen=True)
class WeightConfig:
    """Region weights for the synthesis cost (flat top, sidelobe, roll-off)."""

    flat_weight: float = 10.0
    sidelobe_weight: float = 1.0
    rolloff_weight: float = 0.5

    def __post_init__(self) -> None:
        if min(self.flat_weight, self.sidelobe_weight, self.rolloff_weight) <= 0:
            raise ValueError("all region weights must be positive")


def _weight_rule(target: TargetPattern, config: WeightConfig, angles: np.ndarray):
    """``compute_weights`` with the region masks resolved on one angle grid,
    as a function from the pattern values to the weights."""
    flat, side, roll = region_masks(target, angles)
    base = np.zeros(side.shape)
    base[flat], base[roll] = config.flat_weight, config.rolloff_weight
    return lambda y: np.where(side & (y > target.sidelobe_power), config.sidelobe_weight, base)


def compute_weights(pattern_values: np.ndarray, target: TargetPattern,
                    config: WeightConfig, angles: np.ndarray) -> np.ndarray:
    """Per-sample weights: sidelobe samples already at or below the sidelobe
    floor get weight zero, everything else its region weight."""
    return _weight_rule(target, config, angles)(np.asarray(pattern_values, dtype=float))


@lru_cache(maxsize=16)
def grid_steering_rows(grid: AngularGrid) -> np.ndarray:
    """Surface steering vectors at every grid angle, conjugated and stacked
    as rows, shape (grid, M): a transposed view of the -cos stack, its
    exact conjugate. Cached."""
    rows = steering_matrix(ArrayGeometry(grid.num_ris_elements), grid.angles,
                           "arrival_cos_neg").T
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=16)
def _lag_table(grid: AngularGrid) -> np.ndarray:
    """cos and sin of pi k u_j weighted as in the beam-power series (1/M at
    lag 0, 2/M after) for the lags k < M at the first G//2 + 1 grid angles,
    shape (2, G//2 + 1, M); the other angles mirror them. Cached."""
    m = grid.num_ris_elements
    arg = np.outer(np.pi * np.cos(grid.angles[:grid.size // 2 + 1]), np.arange(m))
    table = (2.0 / m) * np.stack((np.cos(arg), np.sin(arg)))
    table[0, :, 0] = 1.0 / m
    table.flags.writeable = False
    return table


def _autocorrelation(theta: np.ndarray) -> np.ndarray:
    """Lags rho_k = sum_m theta_{m+k} conj(theta_m), k < M, of phases (..., M):
    one BLAS dot per lag with a shifted view of the phases padded with M
    zeros, so no (M, M) array is formed."""
    m = theta.shape[-1]
    padded = np.zeros(theta.shape[:-1] + (2 * m,), complex)
    padded[..., :m] = theta
    shifted = np.ndarray(padded.shape[:-1] + (m, m), complex, padded,
                         strides=padded.strides[:-1] + 2 * padded.strides[-1:])
    return np.vecdot(padded[..., None, :m], shifted)


def _as_precoder(precoder) -> tuple[np.ndarray, float]:
    """The precoder as a nonzero (N_BS, N_d) matrix, and ||W||^2."""
    w = np.asarray(precoder, dtype=complex)
    if w.ndim == 1:
        w = w[:, None]
    if w.ndim != 2:
        raise ValueError("precoder must be a vector or a matrix")
    wnorm2 = float(np.vdot(w, w).real)
    if wnorm2 == 0.0:
        raise ValueError("precoder must be nonzero")
    return w, wnorm2


def path_excitations(stats: ChannelStats, bw: np.ndarray) -> np.ndarray:
    """Nonnegative per-path factors chi_l = P_l * ||W^H b_l||^2 from the
    products B^H W (paths, N_d) of a precoder matrix, or of each matrix in a
    stack (..., paths, N_d).

    These scalars weight the per-path beams whose superposition forms the
    average pattern.
    """
    return stats.path_powers * (np.abs(bw) ** 2).sum(axis=-1)


def normalized_pattern(theta, precoder, stats: ChannelStats, grid: AngularGrid) -> np.ndarray:
    """Average reflected power at every grid angle (independent of
    subcarrier) of the Frobenius-normalized precoder; invariant under any
    nonzero rescaling of the precoder."""
    theta = np.asarray(theta, dtype=complex)
    if not is_unit_modulus(theta):
        raise ValueError("phase coefficients must have unit modulus")
    m = stats.num_ris_elements
    if theta.shape != (m,):
        raise ValueError("phase vector length must match the surface size")
    if grid.num_ris_elements != m:
        raise ValueError("grid was built for a different surface size")
    return _PhaseSolve(stats, grid, None, None, precoder).pattern(theta)[0]


def pattern_cost(pattern_values: np.ndarray, target_values: np.ndarray,
                 weights: np.ndarray) -> float:
    """Weighted squared distance between a normalized pattern and the target.

    The synthesis recomputes the weights from the current pattern at every
    evaluation (the gradient formulas differentiate with them held fixed).
    """
    return float((weights * (target_values - pattern_values) ** 2).sum())


class _Solve:
    """Cost and gradient of one inner solve over what the solve holds fixed:
    the lag table of the grid, the steering ramps A^T / sqrt(M) of the
    paths, pattern scale M^2 * N_BS, target values and weight rule (either
    may be None for a caller that supplies the weights or only wants the
    pattern). It remembers the terms of the last point it evaluated, keyed
    by the point's bytes, and reuses them at that point: the Armijo search
    returns the last point it costed, and the CG asks for the gradient
    there. Both solves form the summed lags as c = rho o h, the
    autocorrelation of the phases times the ramps summed by ``_ramp_sum``,
    and the pattern of c in ``_series``, so they agree bit for bit."""

    def __init__(self, stats: ChannelStats, grid: AngularGrid, target_values, weight_rule):
        m = stats.num_ris_elements
        self.stats, self.size = stats, grid.size
        self.table = _lag_table(grid)
        self.ramps = np.ascontiguousarray(stats.ris_arrival.T) / np.sqrt(m)
        self.scale = float(m * m * stats.num_bs_antennas)
        self.f = None if target_values is None else np.asarray(target_values, dtype=float)
        self.weight_rule, self._key = weight_rule, None

    def _ramp_sum(self, excitation: np.ndarray) -> np.ndarray:
        """h = A excitation / sqrt(M), shape (..., M), of excitations
        (..., paths); a stack item takes the same product as a single one."""
        return (excitation[..., None, :] @ self.ramps)[..., 0, :]

    def _series(self, lags: np.ndarray) -> np.ndarray:
        """Pattern, shape (..., G), of summed lags (..., M): the half table's
        even (cos) and odd (sin) parts add on its angles and subtract on the
        mirror. Clipped at 0, as a null may round a few ulps below it."""
        parts = self.table @ lags.view(float).reshape(lags.shape + (2,)).swapaxes(-1, -2)[..., None]
        even, odd = parts[..., 0, :, 0], parts[..., 1, :, 0]
        mirrored = self.size - self.table.shape[1]
        y = np.concatenate((even + odd, (even - odd)[..., mirrored:0:-1]), axis=-1)
        return np.maximum(y, 0.0, out=y)

    def _terms_at(self, x: np.ndarray) -> tuple:
        key = x.tobytes()
        if key != self._key:
            terms = self.pattern(x)
            self._key, self._terms = key, (*terms, self.weight_rule(terms[-1]))
        return self._terms

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.gradient(x, *self._terms_at(x))


class _PhaseSolve(_Solve):
    """The phase solve at a fixed precoder, which fixes the path weights
    scale * chi_l / ||W||^2 and so h; terms (pattern, weights). ``pattern``
    takes phases (M,) or a stack (..., M), unit-modulus or not: the
    gradients are derived for free complex phases."""

    def __init__(self, stats, grid, target_values, weight_rule, precoder):
        super().__init__(stats, grid, target_values, weight_rule)
        w, wnorm2 = _as_precoder(precoder)
        bw = stats.bs_departure.conj().T @ w
        self.h = self._ramp_sum(self.scale / wnorm2 * path_excitations(stats, bw))

    def pattern(self, theta: np.ndarray) -> tuple[np.ndarray]:
        return (self._series(_autocorrelation(theta) * self.h),)

    def cost(self, theta: np.ndarray) -> float:
        ybar, weights = self._terms_at(theta)
        return pattern_cost(ybar, self.f, weights)

    def gradient(self, theta, ybar, weights) -> np.ndarray:
        # t_k = sum_j rho_j (d |b_j|^2 / d c_k), rho folded onto the half table
        rho = weights * (ybar - self.f)
        half = self.table.shape[1]
        mirror = np.zeros(half)
        mirror[1:self.size - half + 1] = rho[:half - 1:-1]
        t = (rho[:half] + mirror) @ self.table[0] + 1j * ((rho[:half] - mirror) @ self.table[1])
        # grad_p = sum_n s_{p-n} K_{n,p} theta_n, s_d = 2 t_d (t_0 has half
        # weight), s_{-d} = conj(s_d), and K = A diag(chi) A^H is Hermitian
        # Toeplitz, K_{n,p} = h_{n-p}: one Toeplitz product of symbol
        # s_d conj(h_d). A row-major product sums each row in one thread,
        # whatever the BLAS threads
        t[0] *= 2.0
        t *= self.h.conj()
        symbol = np.concatenate((t[:0:-1].conj(), t))
        step, m = symbol.itemsize, t.size
        toeplitz = np.ndarray((m, m), complex, symbol, offset=(m - 1) * step,
                              strides=(step, -step))
        return np.ascontiguousarray(toeplitz) @ theta


class _PrecoderSolve(_Solve):
    """The precoder solve at fixed phases, which fix their autocorrelation
    rho and the beam powers |b_jl|^2 (grid, paths); terms (||W||^2, B^H W,
    pattern, weights). ``pattern`` also takes a stack (..., N_BS, N_d),
    whose ||W||^2 come as (..., 1)."""

    def __init__(self, stats, grid, target_values, weight_rule, theta):
        super().__init__(stats, grid, target_values, weight_rule)
        self.rho = _autocorrelation(np.asarray(theta, dtype=complex))
        self.bh = stats.bs_departure.conj().T

    @cached_property
    def beam_power(self) -> np.ndarray:
        """|b_jl|^2, shape (grid, paths): the series of each path's lags
        rho o a_l / sqrt(M) alone."""
        return self._series(self.rho * self.ramps).T

    def pattern(self, w: np.ndarray) -> tuple:
        wnorm2 = (float(np.vdot(w, w).real) if w.ndim == 2
                  else (np.abs(w) ** 2).sum(axis=(-2, -1))[..., None])
        bw = self.bh @ w
        h = self._ramp_sum(self.scale / wnorm2 * path_excitations(self.stats, bw))
        return wnorm2, bw, self._series(self.rho * h)

    def cost(self, w: np.ndarray) -> float:
        _, _, ybar, weights = self._terms_at(w)
        return float((weights * (self.f - ybar) ** 2).sum())

    def gradient(self, w, wnorm2, bw, ybar, weights) -> np.ndarray:
        radial = (2.0 / wnorm2) * float((weights * ybar * (self.f - ybar)).sum()) * w
        d = self.beam_power.T @ (weights * (ybar - self.f))
        routed = self.stats.bs_departure @ ((self.stats.path_powers * d)[:, None] * bw)
        return radial + (2.0 * self.scale / wnorm2) * routed
