import math

import numpy as np
import pytest

from risbeam.analysis import (USER_BLOCK, CoverageStats, LinkBudget,
                              analytic_ofdma_rate, avg_received_power, dbm_to_watts,
                              equivalent_channel,
                              idealized_ofdma_channel_gains,
                              precoded_channels, rate_scale, subcarrier_rates)
from risbeam.channel import (ArrayGeometry, ChannelConfig, PathSet, assemble_channel,
                             sample_paths)
from risbeam.manifold import random_unit_modulus


def _budget(p_w=0.1, direct=1.0):
    return LinkBudget(tx_power_w=p_w, noise_power_w=1e-3,
                      bs_ris_gain=1e-2, ris_user_gain=1e-2, direct_gain=direct)


def _random_channels(rng, n_c=4, n_ue=2, n_bs=6, n_d=2):
    h = rng.standard_normal((n_c, n_ue, n_bs)) + 1j * rng.standard_normal((n_c, n_ue, n_bs))
    w = rng.standard_normal((n_bs, n_d)) + 1j * rng.standard_normal((n_bs, n_d))
    w /= np.linalg.norm(w)
    return h, w


class TestUnits:
    def test_dbm_conversion(self):
        assert dbm_to_watts(20.0) == pytest.approx(0.1)
        assert dbm_to_watts(-80.0) == pytest.approx(1e-11)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)

    def test_cp_adjustment_exact(self):
        assert 72.0 * rate_scale(64, 8, 0.0) == pytest.approx(64.0)

    @pytest.mark.parametrize("fraction", [1.0, 1.5, -0.1, math.nan])
    def test_overhead_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="overhead fraction"):
            rate_scale(64, 8, fraction)


def _sum_rate(h, w, budget):
    """Rate over all subcarriers of the channel stack h under one precoder w."""
    return float(np.sum(subcarrier_rates(h @ w, budget.snr_scale)))


class TestSubcarrierRates:
    def test_zero_power_zero_rate(self):
        rng = np.random.default_rng(0)
        h, w = _random_channels(rng)
        budget = LinkBudget(0.0, 1e-3, 1e-2, 1e-2, 1.0)
        assert _sum_rate(h, w, budget) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_reduction(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((1, 1, 5)) + 1j * rng.standard_normal((1, 1, 5))
        w = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
        w /= np.linalg.norm(w)
        budget = _budget()
        snr = budget.snr_scale * abs(h[0, 0] @ w[:, 0]) ** 2
        assert _sum_rate(h, w, budget) == pytest.approx(
            math.log2(1 + snr), rel=1e-12)

    def test_eigenvalue_oracle(self):
        rng = np.random.default_rng(2)
        h, w = _random_channels(rng, n_c=6)
        budget = _budget()
        hw = h @ w
        expected = 0.0
        for k in range(6):
            lam = np.linalg.eigvalsh(hw[k] @ hw[k].conj().T)
            expected += float(np.sum(np.log2(1 + budget.snr_scale * np.clip(lam, 0, None))))
        assert _sum_rate(h, w, budget) == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_power(self):
        rng = np.random.default_rng(3)
        h, w = _random_channels(rng)
        rates = [_sum_rate(h, w, LinkBudget(p, 1e-3, 1e-2, 1e-2, 1.0))
                 for p in (0.01, 0.1, 1.0)]
        assert rates[0] < rates[1] < rates[2]

    def test_nan_rejected(self):
        rng = np.random.default_rng(5)
        h, w = _random_channels(rng)
        h[0, 0, 0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            _sum_rate(h, w, _budget())

    def test_rejects_non_positive_definite_gram(self):
        # a negative SNR scale turns I + s H W W^H H^H indefinite
        with pytest.raises(ValueError, match="positive-definite"):
            subcarrier_rates(np.eye(1)[None], -2.0)

    def test_matches_log_det(self):
        h = np.array([[1.0, 0.5j], [0.2, 1.0]])
        stack = np.stack([h, 2.0 * h, np.zeros((2, 2))])
        rates = subcarrier_rates(stack, 3.0)
        assert rates.shape == (3,)
        for hw, rate in zip(stack, rates):
            gram = np.eye(2) + 3.0 * hw @ hw.conj().T
            assert rate == pytest.approx(math.log2(np.linalg.det(gram).real), abs=1e-12)


def _draw(paths, u):
    """Draw ``u`` of a batched PathSet as a PathSet of its own."""
    return PathSet(paths.gains[u], paths.arrival_angles[u], paths.departure_angles[u],
                   paths.tap_indices[u], paths.mean_powers)


def _dense_precoded(thetas, w, feed, users, direct, subcarriers, n_c, ris, bs, ue, budget):
    """H_eq W per user from the dense channel matrices (the reference)."""
    out = np.empty((len(thetas), len(subcarriers), ue.num_elements, w.shape[1]), dtype=complex)
    for u, k in enumerate(subcarriers):
        g = assemble_channel(feed, bs, ris, k, n_c)
        h = assemble_channel(_draw(users, u), ris, ue, k, n_c,
                             rx_convention="departure_sin_neg",
                             tx_convention="arrival_cos_pos")
        hd = assemble_channel(_draw(direct, u), bs, ue, k, n_c,
                              rx_convention="departure_sin_neg",
                              tx_convention="departure_sin_neg")
        for i, theta in enumerate(thetas):
            heq = (math.sqrt(budget.direct_gain) * hd if theta is None
                   else equivalent_channel(h, theta, g, hd, budget))
            out[i, u] = heq @ w
    return out


class TestPrecodedChannels:
    @pytest.mark.parametrize("n_users", [0, USER_BLOCK // 2, USER_BLOCK, 2 * USER_BLOCK + 3])
    def test_factored_matches_dense(self, n_users):
        self._check_against_dense(n_users, 12, 6)

    def test_factored_matches_dense_large_arrays(self):
        # surface and transmitter above 16 elements take the recurrence steering
        self._check_against_dense(USER_BLOCK + 5, 40, 24)

    @staticmethod
    def _check_against_dense(n_users, m, n_bs):
        rng = np.random.default_rng(40 + n_users)
        n_c, n_ue, n_d = 8, 3, 2
        ris, bs, ue = ArrayGeometry(m), ArrayGeometry(n_bs), ArrayGeometry(n_ue)
        feed = sample_paths(ChannelConfig(3, k_factor_db=0.0, delay_spread_taps=n_c - 1), rng)
        users = sample_paths(ChannelConfig(4, k_factor_db=10.0, delay_spread_taps=n_c - 1),
                             rng, draws=n_users)
        direct = sample_paths(ChannelConfig(2, delay_spread_taps=n_c - 1), rng, draws=n_users)
        subcarriers = rng.integers(0, n_c, size=n_users)
        w = rng.standard_normal((n_bs, n_d)) + 1j * rng.standard_normal((n_bs, n_d))
        w /= np.linalg.norm(w)
        thetas = (random_unit_modulus(m, rng), random_unit_modulus(m, rng), None)
        budget = LinkBudget(0.1, 1e-11, 1e-5, 2e-6, 3e-9)
        args = (thetas, w, feed, users, direct, subcarriers, n_c, ris, bs, ue, budget)
        dense = _dense_precoded(*args)
        fact = np.empty_like(dense)
        covered = []
        for block, hw in precoded_channels(*args):
            assert hw.shape == (3, len(range(n_users)[block]), n_ue, n_d)
            assert 0 < hw.shape[1] <= USER_BLOCK
            fact[:, block] = hw
            covered.extend(range(n_users)[block])
        assert covered == list(range(n_users))
        for f, d in zip(fact, dense):
            if n_users:
                assert np.max(np.abs(f - d)) <= 1e-10 * np.max(np.abs(d))

    def test_user_and_direct_taps_beyond_band_rejected(self):
        feed = PathSet([1.0], [0.4], [1.2], [0], [1.0])
        ok = sample_paths(ChannelConfig(2), 1, draws=USER_BLOCK + 8)
        taps = np.zeros_like(ok.tap_indices)
        taps[-1, 0] = 4  # one late path, in the last block
        late = PathSet(ok.gains, ok.arrival_angles, ok.departure_angles, taps, ok.mean_powers)
        for users, direct in ((late, ok), (ok, late)):
            with pytest.raises(ValueError, match="delay taps"):
                next(precoded_channels((None,), np.eye(2), feed, users, direct,
                                       np.zeros(USER_BLOCK + 8, dtype=int), 4,
                                       ArrayGeometry(4), ArrayGeometry(2), ArrayGeometry(2),
                                       _budget()))

    def test_feed_taps_beyond_band_rejected(self):
        feed = PathSet([1.0], [0.4], [1.2], [20], [1.0])
        users = sample_paths(ChannelConfig(2), 1, draws=1)
        with pytest.raises(ValueError, match="delay taps"):
            next(precoded_channels((None,), np.eye(2), feed, users, users, [0], 4,
                                   ArrayGeometry(4), ArrayGeometry(2), ArrayGeometry(2),
                                   _budget()))


class TestClosedForms:
    def test_full_coverage_pure_diffuse(self):
        # the direct channel adds its mean power b_d * N_BS under MRT
        stats = CoverageStats(0.0, np.pi, 5.0)
        budget = _budget()
        expected = (budget.tx_power_w * (budget.bs_ris_gain * budget.ris_user_gain * 5.0
                                         + budget.direct_gain * 8)
                    + budget.noise_power_w)
        assert avg_received_power(stats, budget, 8) == pytest.approx(expected, rel=1e-12)

    def test_zero_flat_power_noise_only(self):
        stats = CoverageStats(2.0, 1.0, 0.0)
        budget = _budget(direct=0.0)
        assert avg_received_power(stats, budget, 8) == budget.noise_power_w

    def test_rate_is_log_of_received_power(self):
        stats = CoverageStats(1.0, 1.0, 5.0)
        budget = _budget()
        power = avg_received_power(stats, budget, 8)
        assert analytic_ofdma_rate(stats, budget, 16, 8) == pytest.approx(
            16 * math.log2(power / budget.noise_power_w), rel=1e-12)

    def test_pure_los_limit(self):
        stats = CoverageStats(math.inf, 0.5, 7.0)
        budget = LinkBudget(0.1, 1e-3, 1e-2, 1e-2, 0.0)
        expected = 16 * math.log2(1 + budget.snr_scale * 1e-4 * 7.0)
        assert analytic_ofdma_rate(stats, budget, 16, 8) == pytest.approx(
            expected, rel=1e-12)

    def test_monotone_in_arguments(self):
        budget = _budget()
        base = analytic_ofdma_rate(CoverageStats(1.0, 1.0, 5.0), budget, 16, 8)
        assert analytic_ofdma_rate(CoverageStats(1.0, 1.0, 10.0), budget, 16, 8) > base
        assert analytic_ofdma_rate(CoverageStats(2.0, 1.0, 5.0), budget, 16, 8) > base
        richer = LinkBudget(0.1, 1e-3, 1e-2, 1e-2, 10.0)
        assert analytic_ofdma_rate(CoverageStats(1.0, 1.0, 5.0), richer, 16, 8) > base

    def test_log_scaling_in_flat_power(self):
        # doubling a large flat-top gain adds about one bit per subcarrier
        budget = LinkBudget(0.1, 1e-3, 1e-2, 1e-2, 0.0)
        n_c = 16
        r1 = analytic_ofdma_rate(CoverageStats(10.0, 1.0, 1e8), budget, n_c, 8)
        r2 = analytic_ofdma_rate(CoverageStats(10.0, 1.0, 2e8), budget, n_c, 8)
        assert r2 - r1 == pytest.approx(n_c, rel=1e-6)

    def test_received_power_matches_monte_carlo(self):
        rng = np.random.default_rng(14)
        stats = CoverageStats(10.0, np.deg2rad(40), 300.0)
        budget = LinkBudget(0.1, 1e-11, 2.8e-8, 2.9e-6, 0.0)
        cov = (np.deg2rad(95), np.deg2rad(135))
        # one direct path at zero gain, 16 subcarriers: the reflected power alone
        gains = idealized_ofdma_channel_gains(stats, cov, 3, 1, 16, 8,
                                              budget.bs_ris_gain * budget.ris_user_gain,
                                              budget.direct_gain, 4000, rng)
        mc = budget.tx_power_w * float(np.mean(gains)) + budget.noise_power_w
        closed = avg_received_power(stats, budget, 8)
        assert abs(mc - closed) / closed < 0.02

    def test_ofdma_rate_matches_monte_carlo(self):
        rng = np.random.default_rng(15)
        k = 10.0  # 10 dB
        width = np.deg2rad(30)
        stats = CoverageStats(k, width, 1200.0)
        budget = LinkBudget(0.1, 1e-11, 2.8e-8, 2.9e-6, 8.8e-12)
        cov = (np.deg2rad(90), np.deg2rad(120))
        gains = idealized_ofdma_channel_gains(stats, cov, 3, 4, 32, 64,
                                              budget.bs_ris_gain * budget.ris_user_gain,
                                              budget.direct_gain, 400, rng)
        mc = float(np.mean(np.sum(np.log2(1 + budget.snr_scale * gains), axis=1)))
        closed = analytic_ofdma_rate(stats, budget, 32, 64)
        assert abs(closed - mc) / mc < 0.06

