"""Downlink rate evaluation and closed-form performance predictions.

Covers the multi-stream rate of a precoded channel (log-det per
subcarrier), the factored precoded channels of the broadcast trials, and
the closed-form average received power / OFDMA rate that hold when the
reflected pattern is an ideal flat top: a user inside the covered sector
then collects the line-of-sight share K/(K+1) of its channel power plus the
fraction |coverage|/pi of the diffuse share, scaled by the flat-top gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .channel import (ArrayGeometry, ChannelConfig, PathSet, channel_stats,
                      freq_gain, sample_paths, steering_matrix)

# Users per block of `precoded_channels`: bounds its (block, M, paths)
# steering stacks, which for a whole 1280-user realization would double
# the peak memory of a broadcast run.
USER_BLOCK = 32

# Realizations per block of `idealized_ofdma_channel_gains`; the stream is
# drawn block by block, so the size is part of the (config, seed) contract.
REALIZATION_BLOCK = 256


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power, noise power and the three large-scale fading factors
    (all linear units; any gain may be zero to model a fully blocked link)."""

    tx_power_w: float
    noise_power_w: float
    bs_ris_gain: float
    ris_user_gain: float
    direct_gain: float = 0.0

    def __post_init__(self) -> None:
        if not (0 <= self.tx_power_w < math.inf and 0 < self.noise_power_w < math.inf):
            raise ValueError("powers must be finite and nonnegative (noise strictly positive)")
        if not all(0 <= g < math.inf for g in (self.bs_ris_gain, self.ris_user_gain,
                                               self.direct_gain)):
            raise ValueError("fading gains must be finite and nonnegative")

    @property
    def snr_scale(self) -> float:
        return self.tx_power_w / self.noise_power_w


def dbm_to_watts(dbm: float) -> float:
    """x dBm -> 10^((x - 30)/10) W."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def rate_scale(num_subcarriers: int, cp_length: int, overhead_fraction: float) -> float:
    """Factor applied to every reported rate: the cyclic-prefix efficiency
    N_c/(N_c + L_cp) times the share 1 - F left after estimation overhead."""
    if not 0.0 <= overhead_fraction < 1.0:
        raise ValueError(f"overhead fraction must lie in [0, 1), got {overhead_fraction}")
    cp = num_subcarriers / (num_subcarriers + cp_length)
    return cp * (1.0 - overhead_fraction)


def default_flat_power(num_elements: int, beamwidth_rad: float) -> float:
    """Flat-top gain that a design of ``num_elements`` elements can hold over
    ``beamwidth_rad``: linear in the aperture, inverse in the beamwidth."""
    if not beamwidth_rad > 0.0:
        raise ValueError(f"covered beamwidth must be positive, got {beamwidth_rad}")
    return num_elements * math.pi / beamwidth_rad


def equivalent_channel(ris_user_channel: np.ndarray, theta: np.ndarray,
                       bs_ris_channel: np.ndarray, direct_channel: np.ndarray,
                       budget: LinkBudget) -> np.ndarray:
    """sqrt(b1*b2) * H Theta G + sqrt(b_direct) * H_d at one subcarrier."""
    cascade = (ris_user_channel * theta[None, :]) @ bs_ris_channel
    return (math.sqrt(budget.bs_ris_gain * budget.ris_user_gain) * cascade
            + math.sqrt(budget.direct_gain) * direct_channel)


def precoded_channels(thetas: Sequence[np.ndarray | None], precoder: np.ndarray,
                      feed: PathSet, users: PathSet, direct: PathSet,
                      subcarriers: np.ndarray, num_subcarriers: int,
                      ris: ArrayGeometry, bs: ArrayGeometry, ue: ArrayGeometry,
                      budget: LinkBudget) -> Iterator[tuple[slice, np.ndarray]]:
    """Precoded equivalent channels H_eq W of many users, one block of at
    most ``USER_BLOCK`` users at a time: yields (users in the block, stack of
    shape (len(thetas), block, N_UE, N_d)).

    ``feed`` is one transmitter-to-surface draw; ``users`` and ``direct``
    are batched PathSets with one surface-to-user and one direct draw per
    user, and user u is served on subcarrier ``subcarriers[u]``. A ``None``
    in ``thetas`` removes the surface and leaves the direct channel alone.
    Matches ``equivalent_channel`` on the ``assemble_channel`` matrices
    times W, without forming any of them:

        H_k Theta G_k W = s * A_ue diag(d_user,k) [C^H Theta A] diag(d_feed,k) B^H W

    where C^H Theta A (user paths x feed paths) is the surface's array
    factor between the feed and user paths, the beam kernel of the average
    pattern, and s = sqrt(M N_UE) sqrt(N_BS M).

    Each block takes its surface and transmitter steering from one call over
    its (user, path) angles, so the array factor and B^H W are one matrix
    product each: C^H is the arrival_cos_neg stack transposed, B^H W = (W^H B)^H.
    The feed's subcarrier gains scale the array-factor rows, so the rows of
    all users meet B^H W in one product. The direct and surface-to-user
    paths sit side by side on the user side: one gain table per call, scaled
    per column, and one UE steering call per block.
    """
    if any(np.any(p.tap_indices >= num_subcarriers) for p in (feed, users, direct)):
        raise ValueError("delay taps must be below the subcarrier count")
    w = np.asarray(precoder, dtype=complex)
    w_h = w.conj().T
    feed_stats = channel_stats(feed, ris, bs)
    feed_bw = feed_stats.bs_departure.conj().T @ w
    # feed path gains at every subcarrier, (N_c, L_feed)
    feed_delta = freq_gain(feed.gains, feed.tap_indices,
                           np.arange(num_subcarriers)[:, None], num_subcarriers)
    # scaling the (M, paths) arrival stack, not the rows, costs M * paths
    # multiplies and leaves a narrower product
    fed_surfaces = [None if theta is None else theta[:, None] * feed_stats.ris_arrival
                    for theta in thetas]
    a_ris = (math.sqrt(budget.bs_ris_gain * budget.ris_user_gain
                       * bs.num_elements * ris.num_elements)
             * math.sqrt(ris.num_elements * ue.num_elements))
    a_direct = math.sqrt(budget.direct_gain) * math.sqrt(bs.num_elements * ue.num_elements)

    subcarriers = np.asarray(subcarriers)
    # scale * diag(d_k) of every user's direct paths, then its surface paths
    n_direct, n_user = direct.gains.shape[-1], users.gains.shape[-1]
    ue_gains = freq_gain(np.concatenate((direct.gains, users.gains), axis=-1),
                         np.concatenate((direct.tap_indices, users.tap_indices), axis=-1),
                         subcarriers[:, None], num_subcarriers)
    ue_gains *= np.repeat([a_direct, a_ris], [n_direct, n_user])
    ue_angles = np.concatenate((direct.arrival_angles, users.arrival_angles), axis=-1)
    for start in range(0, subcarriers.shape[0], USER_BLOCK):
        block = slice(start, start + USER_BLOCK)
        # scale * A_ue diag(d_k), (block, N_UE, direct paths + user paths)
        ue_side = (steering_matrix(ue, ue_angles[block], "departure_sin_neg")
                   * ue_gains[block, None])
        dep = direct.departure_angles[block]
        direct_bw = (w_h @ steering_matrix(bs, dep.ravel(), "departure_sin_neg")).conj().T
        direct_hw = ue_side[..., :n_direct] @ direct_bw.reshape(dep.shape + (-1,))
        user_steer = ue_side[..., n_direct:]
        psi = users.departure_angles[block]
        user_rows = steering_matrix(ris, psi.ravel(), "arrival_cos_neg").T
        feed_rows = feed_delta[np.repeat(subcarriers[block], n_user)]
        out = np.empty((len(thetas),) + direct_hw.shape, dtype=complex)
        for i, fed_surface in enumerate(fed_surfaces):
            if fed_surface is None:
                out[i] = direct_hw
            else:
                rows = ((user_rows @ fed_surface) * feed_rows) @ feed_bw
                out[i] = user_steer @ rows.reshape(psi.shape + (-1,)) + direct_hw
        yield block, out


def subcarrier_rates(precoded: np.ndarray, snr_scale: float) -> np.ndarray:
    """Rate log2 det(I + snr_scale * HW (HW)^H) of each precoded channel HW
    in a stack of shape (..., N_UE, N_d), in bits; one rate per matrix."""
    hw = np.asarray(precoded)
    gram = np.eye(hw.shape[-2]) + snr_scale * hw @ hw.conj().swapaxes(-1, -2)
    sign, logdet = np.linalg.slogdet(gram)
    if not np.all(sign.real > 0):
        raise ValueError("rate computation hit a non positive-definite Gram matrix")
    return logdet / math.log(2.0)


@dataclass(frozen=True)
class CoverageStats:
    """Inputs of the closed forms: Rice factor of the user link (linear, may
    be inf), covered beamwidth in radians, and the flat-top power gain."""

    k_factor_linear: float
    beamwidth_rad: float
    flat_power: float

    def __post_init__(self) -> None:
        if self.k_factor_linear < 0 or math.isnan(self.k_factor_linear):
            raise ValueError("K-factor must be nonnegative")
        if not 0.0 < self.beamwidth_rad <= np.pi:
            raise ValueError("beamwidth must lie in (0, pi]")
        if self.flat_power < 0:
            raise ValueError("flat-top power must be nonnegative")

    @property
    def in_coverage_power_fraction(self) -> float:
        """Average share of the user-link power that falls inside the sector:
        all of the line-of-sight path plus beamwidth/pi of the diffuse power."""
        k = self.k_factor_linear
        if math.isinf(k):
            return 1.0
        return k / (k + 1.0) + self.beamwidth_rad / (np.pi * (k + 1.0))


def avg_received_power(stats: CoverageStats, budget: LinkBudget,
                       num_bs_antennas: int) -> float:
    """Mean received power (W) with MRT of a user inside an ideal flat-top
    sector, noise included: p (b1 b2 F frac + b_d N_BS) + noise, where
    b_d N_BS is the direct channel's mean power; flat across user positions
    within the sector."""
    signal = (budget.bs_ris_gain * budget.ris_user_gain * stats.flat_power
              * stats.in_coverage_power_fraction + budget.direct_gain * num_bs_antennas)
    return budget.tx_power_w * signal + budget.noise_power_w


def analytic_ofdma_rate(stats: CoverageStats, budget: LinkBudget,
                        num_subcarriers: int, num_bs_antennas: int) -> float:
    """Closed-form OFDMA downlink rate (bits per OFDM symbol) under an ideal
    flat-top pattern: N_c log2 of the mean received power over the noise, so
    it grows logarithmically with the flat-top gain."""
    power = avg_received_power(stats, budget, num_bs_antennas)
    return num_subcarriers * math.log2(power / budget.noise_power_w)


def idealized_ofdma_channel_gains(stats: CoverageStats, coverage: tuple[float, float],
                                  num_nlos_paths: int, num_direct_paths: int,
                                  num_subcarriers: int, num_bs_antennas: int,
                                  bs_ris_user_gain: float, direct_gain: float,
                                  num_realizations: int, rng: np.random.Generator) -> np.ndarray:
    """Combined channel power gains g of shape (realizations, subcarriers)
    under a synthetically ideal flat top, so the per-subcarrier SNR with MRT
    is (p / noise) * g and p * mean(g) + noise is the mean received power.

    The reflected response is instantiated directly on the user-link paths:
    a path leaving the surface inside the covered sector contributes with
    amplitude sqrt(flat_power), any other path contributes nothing (the
    response phase is immaterial because path gains carry uniform random
    phases). The user link has a line-of-sight path when K > 0, whose
    departure is redrawn inside the sector, and delays anywhere within the
    symbol. The cascade rides on the rank-one transmit steering of the
    line-of-sight feed and adds to the diffuse direct channel.
    """
    lo, hi = coverage
    k = stats.k_factor_linear
    user_link = ChannelConfig(num_nlos_paths + int(k > 0),
                              10.0 * math.log10(k) if k > 0 else None,
                              delay_spread_taps=num_subcarriers - 1)
    direct_link = ChannelConfig(num_direct_paths, None, delay_spread_taps=num_subcarriers - 1)
    bs = ArrayGeometry(num_bs_antennas)
    a1 = math.sqrt(bs_ris_user_gain)
    # the direct channel's single receive antenna leaves sqrt(N_BS) of its scale
    a2 = math.sqrt(direct_gain) * math.sqrt(num_bs_antennas)
    ks = np.arange(num_subcarriers)[:, None]
    out = np.empty((num_realizations, num_subcarriers))
    done = 0
    while done < num_realizations:
        r = min(REALIZATION_BLOCK, num_realizations - done)
        user = sample_paths(user_link, rng, draws=r)
        depart = user.departure_angles.copy()
        if k > 0:
            depart[:, 0] = rng.uniform(lo, hi, size=r)
        amp = user.gains * np.sqrt(np.where((depart >= lo) & (depart <= hi),
                                            stats.flat_power, 0.0))
        cascade = np.sum(freq_gain(amp[:, None, :], user.tap_indices[:, None, :], ks,
                                   num_subcarriers), axis=-1)

        # transmit-side steering of the line-of-sight feed, (r, N_BS)
        feed = steering_matrix(bs, rng.uniform(0.0, np.pi, size=r), "departure_sin_neg").T

        direct = sample_paths(direct_link, rng, draws=r)
        bsteer = steering_matrix(bs, direct.departure_angles, "departure_sin_neg")
        delta_d = freq_gain(direct.gains[:, None, :], direct.tap_indices[:, None, :], ks,
                            num_subcarriers)
        rows = (a1 * cascade[:, :, None] * feed.conj()[:, None, :]
                + a2 * np.einsum("rkq,rnq->rkn", delta_d, bsteer.conj()))
        out[done:done + r] = np.sum(np.abs(rows) ** 2, axis=2)
        done += r
    return out

