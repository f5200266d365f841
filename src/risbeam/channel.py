"""Geometric multipath mmWave channel model for half-wavelength uniform
linear arrays.

Channels are sums of discrete plane-wave paths. Each path carries a complex
gain, an arrival angle, a departure angle, and an integer delay tap; the
frequency response at OFDM subcarrier k follows by an N_c-point DFT of the
tapped time-domain impulse response, which reduces to a per-path phase ramp
exp(-2j*pi*k*tap/N_c) on the gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

SteeringConvention = Literal["arrival_cos_neg", "arrival_cos_pos", "departure_sin_neg"]

# (sign of the phase ramp, angle map) per convention
_CONVENTIONS = {
    "arrival_cos_neg": (-1.0, np.cos),
    "arrival_cos_pos": (+1.0, np.cos),
    "departure_sin_neg": (-1.0, np.sin),
}

@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array with half-wavelength element spacing."""

    num_elements: int

    def __post_init__(self) -> None:
        if int(self.num_elements) != self.num_elements or self.num_elements < 1:
            raise ValueError("num_elements must be a positive integer")


def steering_matrix(geometry: ArrayGeometry, angles: np.ndarray,
                    convention: SteeringConvention) -> np.ndarray:
    """Stack unit-norm steering vectors for several angles (radians) as
    columns, shape (N, len(angles)); angles of shape (..., L) give one such
    stack per leading index, shape (..., N, L).

    Entry m has phase ``sign * pi * m * trig(angle)`` (half-wavelength
    spacing) where sign/trig are fixed by the convention:

    * ``arrival_cos_neg``   -- -cos ramp (wave impinging on the reflecting array)
    * ``arrival_cos_pos``   -- +cos ramp (wave leaving the reflecting array)
    * ``departure_sin_neg`` -- -sin ramp (transmit/receive terminals)

    All entries have magnitude 1/sqrt(num_elements).

    Every array takes one exponential e^{j*r} per angle (r the ramp) and
    forms entry m, e^{j*m*r}/sqrt(n), as a running product down the element
    axis in the returned C-contiguous array. Against one exponential per
    entry it differs by about 1e-15, and by about 1e-14 at 1000 elements.
    """
    angles = np.asarray(angles, dtype=float)
    if not np.all(np.isfinite(angles)):
        raise ValueError("steering angles must be finite")
    try:
        sign, trig = _CONVENTIONS[convention]
    except KeyError:
        raise ValueError(f"unknown steering convention: {convention!r}") from None
    n = geometry.num_elements
    ramp = sign * np.pi * trig(angles)
    out = np.empty(ramp.shape[:-1] + (n, ramp.shape[-1]), dtype=complex)
    out[..., 0, :] = 1.0 / np.sqrt(n)
    out[..., 1:, :] = np.exp(1j * ramp)[..., None, :]
    return np.cumprod(out, axis=-2, out=out)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PathSet:
    """One sampled multipath channel. Immutable after construction.

    ``mean_powers`` holds the per-path average power E{|gain|^2}; the total
    channel power is normalized so the mean powers sum to one.

    A batch of draws of one recipe carries a leading draw axis: gains,
    angles and taps then have shape (draws, paths), and ``mean_powers``,
    common to every draw, keeps shape (paths,).
    """

    gains: np.ndarray
    arrival_angles: np.ndarray
    departure_angles: np.ndarray
    tap_indices: np.ndarray
    mean_powers: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "gains", _readonly(np.asarray(self.gains, dtype=complex)))
        for name in ("arrival_angles", "departure_angles", "mean_powers"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "tap_indices", _readonly(np.asarray(self.tap_indices, dtype=int)))
        if self.gains.ndim not in (1, 2):
            raise ValueError("gains must have shape (paths,) or (draws, paths)")
        n = self.gains.shape[-1]
        if n < 1:
            raise ValueError("a PathSet needs at least one path")
        for name in ("arrival_angles", "departure_angles", "tap_indices"):
            if getattr(self, name).shape != self.gains.shape:
                raise ValueError(f"{name} must have the same shape as gains")
        if self.mean_powers.shape != (n,):
            raise ValueError("mean_powers needs one entry per path")
        if np.any(self.mean_powers < 0):
            raise ValueError("mean path powers must be nonnegative")
        if abs(float(self.mean_powers.sum()) - 1.0) > 1e-12:
            raise ValueError("mean path powers must sum to one")
        if np.any(self.tap_indices < 0):
            raise ValueError("delay tap indices must be nonnegative")


@dataclass(frozen=True)
class ChannelConfig:
    """Sampling recipe for a PathSet.

    ``k_factor_db`` splits the unit channel power between a line-of-sight
    path (index 0, deterministic magnitude, uniform random phase) and the
    remaining paths; ``None`` makes every path zero-mean complex Gaussian.
    ``math.inf`` puts all power in the line-of-sight path. The diffuse paths
    share their power equally.
    ``angle_distribution`` is "uniform" for i.i.d. angles over [0, pi], or a
    pair (arrival_angles, departure_angles) of fixed lists.
    """

    num_paths: int
    k_factor_db: float | None = None
    delay_spread_taps: int = 0
    angle_distribution: str | tuple = "uniform"

    def __post_init__(self) -> None:
        if int(self.num_paths) != self.num_paths or self.num_paths < 1:
            raise ValueError("num_paths must be a positive integer")
        if self.delay_spread_taps < 0:
            raise ValueError("delay_spread_taps must be nonnegative")
        if self.k_factor_db is not None:
            if math.isnan(self.k_factor_db):
                raise ValueError("k_factor_db must not be NaN")
            if self.num_paths == 1 and math.isfinite(self.k_factor_db):
                raise ValueError("a finite K-factor needs at least one diffuse path "
                                 "to carry the residual power")
        if isinstance(self.angle_distribution, str) and self.angle_distribution != "uniform":
            raise ValueError("angle_distribution must be 'uniform' or fixed lists")


# Spawn key of every named random stream, fixed by the (config, seed) contract.
# Start i of a synthesis seeded with key K is K + (i,): no other stream draws there.
STREAMS = {"design-channel": 0, "synthesis-starts": 1, "trials": 2, "batch-channel": 3,
           "batch-starts": 4, "ofdma": 5, "gradcheck": 6, "beamshift-feed": 7,
           "beamshift-starts": 8, "scaling-channel": 9, "scaling-starts": 10}


def stream(seed: int, purpose: str, *index: int) -> np.random.SeedSequence:
    """The stream of ``purpose`` under ``seed``, one per ``index`` where it draws many."""
    return np.random.SeedSequence(seed, spawn_key=(STREAMS[purpose], *index))


def sample_paths(config: ChannelConfig, rng: int | np.random.SeedSequence | np.random.Generator,
                 draws: int | None = None) -> PathSet:
    """Draw one PathSet, or ``draws`` independent ones as a batched PathSet.
    Deterministic given (config, seed, draws).

    The random stream is consumed in a fixed, documented order so results
    reproduce across platforms:

    1. line-of-sight phase (one uniform draw, only when a K-factor is set)
    2. diffuse gains (standard normal pairs, path order)
    3. arrival angles (uniform draws for every path, then fixed values
       overwrite where configured)
    4. departure angles (same scheme)
    5. delay taps (uniform integers over {0, ..., delay_spread_taps})

    With ``draws`` set, each step draws for every draw at once (draw-major
    order), so the stream differs from ``draws`` single calls; ``draws=1``
    reproduces one unbatched call.
    """
    gen = np.random.default_rng(rng)
    if draws is not None and (int(draws) != draws or draws < 0):
        raise ValueError("draws must be a nonnegative integer")
    lead = () if draws is None else (int(draws),)
    q = config.num_paths

    los = int(config.k_factor_db is not None)  # the line-of-sight path is path 0
    if los and math.isinf(config.k_factor_db):
        los_power, residual = 1.0, 0.0
    else:
        k = 10.0 ** (config.k_factor_db / 10.0) if los else 0.0
        los_power, residual = k / (k + 1.0), 1.0 / (k + 1.0)
    powers = np.concatenate(([los_power][:los], np.full(q - los, 1.0 / max(q - los, 1))
                             * residual))
    # force the exact unit sum the rest of the model relies on
    powers[-1] = 1.0 - powers[:-1].sum()
    gains = np.empty(lead + (q,), dtype=complex)
    if los:
        gains[..., 0] = np.sqrt(powers[0]) * np.exp(2j * np.pi * gen.uniform(size=lead or None))
    noise = gen.standard_normal(lead + (q - los, 2))
    gains[..., los:] = (noise[..., 0] + 1j * noise[..., 1]) * np.sqrt(powers[los:] / 2.0)

    arrivals = gen.uniform(0.0, np.pi, size=lead + (q,))
    departures = gen.uniform(0.0, np.pi, size=lead + (q,))
    if not isinstance(config.angle_distribution, str):
        fixed_arr, fixed_dep = config.angle_distribution
        if np.shape(fixed_arr) != (q,) or np.shape(fixed_dep) != (q,):
            raise ValueError("fixed angle lists must match num_paths")
        arrivals = np.broadcast_to(np.asarray(fixed_arr, dtype=float), lead + (q,))
        departures = np.broadcast_to(np.asarray(fixed_dep, dtype=float), lead + (q,))

    taps = gen.integers(0, config.delay_spread_taps + 1, size=lead + (q,))
    return PathSet(gains, arrivals, departures, taps, powers)


def freq_gain(path_gain, tap_index, subcarrier, num_subcarriers):
    """Frequency-domain gain of a path at one subcarrier.

    A path delayed by ``tap_index`` samples contributes
    ``gain * exp(-2j*pi*subcarrier*tap/num_subcarriers)``; the magnitude is
    delay-invariant. Accepts scalars or equal-length arrays.
    """
    k = np.asarray(subcarrier)
    if np.any(k < 0) or np.any(k >= num_subcarriers):
        raise ValueError("subcarrier index out of range")
    phase = -2j * np.pi * k * np.asarray(tap_index) / num_subcarriers
    return np.asarray(path_gain) * np.exp(phase)


def assemble_channel(paths: PathSet, tx_geometry: ArrayGeometry, rx_geometry: ArrayGeometry,
                     subcarrier: int, num_subcarriers: int,
                     rx_convention: SteeringConvention = "arrival_cos_neg",
                     tx_convention: SteeringConvention = "departure_sin_neg") -> np.ndarray:
    """Frequency-domain channel matrix at one subcarrier, shape (N_rx, N_tx),
    or (draws, N_rx, N_tx) for a batched PathSet.

    Equals sqrt(N_tx*N_rx) * sum over paths of the frequency gain
    (``freq_gain``) times the outer product of receive and transmit steering
    vectors. ``subcarrier`` may be an array that broadcasts against the draw
    axis: one subcarrier per draw of a batched PathSet, or a table of
    subcarriers for one PathSet.
    """
    if np.any(paths.tap_indices >= num_subcarriers):
        raise ValueError("delay taps must be below the subcarrier count")
    arrival = steering_matrix(rx_geometry, paths.arrival_angles, rx_convention)
    departure = steering_matrix(tx_geometry, paths.departure_angles, tx_convention)
    gains = freq_gain(paths.gains, paths.tap_indices, np.asarray(subcarrier)[..., None],
                      num_subcarriers)
    scale = math.sqrt(tx_geometry.num_elements * rx_geometry.num_elements)
    return scale * (arrival * gains[..., None, :]) @ departure.conj().swapaxes(-1, -2)


def time_domain_channel(paths: PathSet, tx_geometry: ArrayGeometry, rx_geometry: ArrayGeometry,
                        num_subcarriers: int,
                        rx_convention: SteeringConvention = "arrival_cos_neg",
                        tx_convention: SteeringConvention = "departure_sin_neg") -> np.ndarray:
    """Tapped impulse response, shape (num_subcarriers, N_rx, N_tx).

    With a rectangular pulse of one sample period, each path lands entirely
    on its integer delay tap. The DFT of this array over the first axis
    reproduces ``assemble_channel`` at every subcarrier.
    """
    if paths.gains.ndim != 1:
        raise ValueError("time_domain_channel takes a single draw, not a batch")
    if np.any(paths.tap_indices >= num_subcarriers):
        raise ValueError("delay taps must be below the subcarrier count")
    arrival = steering_matrix(rx_geometry, paths.arrival_angles, rx_convention)
    departure = steering_matrix(tx_geometry, paths.departure_angles, tx_convention)
    scale = math.sqrt(tx_geometry.num_elements * rx_geometry.num_elements)
    out = np.zeros((num_subcarriers, rx_geometry.num_elements, tx_geometry.num_elements),
                   dtype=complex)
    for gain, tap, a, b in zip(paths.gains, paths.tap_indices,
                               arrival.T, departure.T):
        out[tap] += scale * gain * np.outer(a, b.conj())
    return out


def path_loss_linear(distance_m: float, exponent: float) -> float:
    """Large-scale fading factor: 30 dB at 1 m plus 10*exponent*log10(d)."""
    if not (math.isfinite(distance_m) and distance_m >= 1.0):
        raise ValueError("distance must be at least the 1 m reference")
    if not math.isfinite(exponent):
        raise ValueError(f"path-loss exponent must be finite, got {exponent}")
    return 10.0 ** (-0.1 * (30.0 + 10.0 * exponent * math.log10(distance_m)))


@dataclass(frozen=True)
class ChannelStats:
    """Statistical description of the transmitter-to-surface link.

    ``ris_arrival`` stacks the surface-side steering vectors of the paths as
    columns (M, L); ``bs_departure`` the transmitter-side ones (N_BS, L);
    ``path_powers`` is the diagonal of the mean-power matrix.
    """

    ris_arrival: np.ndarray
    bs_departure: np.ndarray
    path_powers: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "ris_arrival", _readonly(np.asarray(self.ris_arrival, dtype=complex)))
        object.__setattr__(self, "bs_departure", _readonly(np.asarray(self.bs_departure, dtype=complex)))
        object.__setattr__(self, "path_powers", _readonly(np.asarray(self.path_powers, dtype=float)))
        if self.ris_arrival.ndim != 2 or self.bs_departure.ndim != 2:
            raise ValueError("steering stacks must be 2-D")
        l = self.ris_arrival.shape[1]
        if self.bs_departure.shape[1] != l or self.path_powers.shape != (l,):
            raise ValueError("inconsistent path counts in channel statistics")
        if np.any(self.path_powers < 0):
            raise ValueError("path powers must be nonnegative")

    @property
    def num_ris_elements(self) -> int:
        return self.ris_arrival.shape[0]

    @property
    def num_bs_antennas(self) -> int:
        return self.bs_departure.shape[0]

    @property
    def num_paths(self) -> int:
        return self.path_powers.shape[0]


def channel_stats(paths: PathSet, ris_geometry: ArrayGeometry,
                  bs_geometry: ArrayGeometry) -> ChannelStats:
    """Statistical CSI of a transmitter-to-surface PathSet (angles and mean powers)."""
    return ChannelStats(
        ris_arrival=steering_matrix(ris_geometry, paths.arrival_angles, "arrival_cos_neg"),
        bs_departure=steering_matrix(bs_geometry, paths.departure_angles, "departure_sin_neg"),
        path_powers=paths.mean_powers,
    )
