import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam.channel import (ArrayGeometry, ChannelConfig, PathSet,
                             assemble_channel, channel_stats,
                             freq_gain, path_loss_linear, sample_paths,
                             steering_matrix)

from channel_oracles import time_domain_channel

CONVENTIONS = ("arrival_cos_neg", "arrival_cos_pos", "departure_sin_neg")


class TestSteeringVector:
    def test_broadside_arrival_is_flat(self):
        v = steering_matrix(ArrayGeometry(4), [np.pi / 2], "arrival_cos_neg")[:, 0]
        np.testing.assert_allclose(v, np.full(4, 0.5), atol=1e-15)

    def test_zero_angle_sine_is_flat(self):
        v = steering_matrix(ArrayGeometry(2), [0.0], "departure_sin_neg")[:, 0]
        np.testing.assert_allclose(v, np.full(2, 1 / np.sqrt(2)), atol=1e-15)

    def test_sixty_degree_positive_cos_ramp(self):
        # phase +pi*m*cos(pi/3) = +pi*m/2 at half-wavelength spacing
        v = steering_matrix(ArrayGeometry(4), [np.pi / 3], "arrival_cos_pos")[:, 0]
        np.testing.assert_allclose(v, np.array([1, 1j, -1, -1j]) / 2, atol=1e-14)

    def test_sign_conventions_are_conjugate(self):
        geom = ArrayGeometry(6)
        neg = steering_matrix(geom, [0.7], "arrival_cos_neg")[:, 0]
        pos = steering_matrix(geom, [0.7], "arrival_cos_pos")[:, 0]
        np.testing.assert_allclose(neg, pos.conj(), atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.floats(0.0, np.pi),
           st.sampled_from(CONVENTIONS))
    def test_unit_norm(self, n, angle, convention):
        v = steering_matrix(ArrayGeometry(n), [angle], convention)[:, 0]
        assert abs(np.vdot(v, v).real - 1.0) < 1e-12

    def test_non_finite_angle_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                steering_matrix(ArrayGeometry(4), [bad], "arrival_cos_neg")[:, 0]

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            steering_matrix(ArrayGeometry(4), [0.3], "sideways")[:, 0]

    def test_matrix_unknown_convention_rejected(self):
        with pytest.raises(ValueError, match="convention"):
            steering_matrix(ArrayGeometry(4), [0.3, 0.4], "sideways")

    def test_matrix_matches_vectors(self):
        geom = ArrayGeometry(5)
        angles = np.array([0.2, 1.1, 2.9])
        mat = steering_matrix(geom, angles, "departure_sin_neg")
        for i, a in enumerate(angles):
            np.testing.assert_allclose(mat[:, i],
                                       steering_matrix(geom, [a], "departure_sin_neg")[:, 0])


def _direct_steering(n, angles, convention):
    """The one-exponential-per-entry steering stack, written out."""
    sign, trig = {"arrival_cos_neg": (-1.0, np.cos), "arrival_cos_pos": (1.0, np.cos),
                  "departure_sin_neg": (-1.0, np.sin)}[convention]
    ramp = sign * np.pi * trig(np.asarray(angles, dtype=float))
    return np.exp(1j * (np.arange(n)[:, None] * ramp[..., None, :])) / np.sqrt(n)


class TestSteeringRecurrence:
    ANGLES = {"flat": np.linspace(0.0, np.pi, 9),
              "batched": np.random.default_rng(3).uniform(0.0, np.pi, (2, 3, 5))}

    @pytest.mark.parametrize("n", [1, 4, 8, 15, 16, 17, 24, 64, 100, 257, 1000])
    @pytest.mark.parametrize("convention", CONVENTIONS)
    @pytest.mark.parametrize("shape", ["flat", "batched"])
    def test_recurrence_matches_direct_exponentials(self, n, convention, shape):
        angles = self.ANGLES[shape]
        out = steering_matrix(ArrayGeometry(n), angles, convention)
        ref = _direct_steering(n, angles, convention)
        assert out.shape == ref.shape == angles.shape[:-1] + (n, angles.shape[-1])
        assert out.flags.c_contiguous
        assert np.max(np.abs(out - ref)) < 1e-13

    @pytest.mark.parametrize("n", [4, 17, 64, 100, 1000])
    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_flattened_angles_match_stacked_call(self, n, convention):
        # one call over the flattened (draw, path) angles gives, column for
        # column, the same bits as the stacked call
        angles = self.ANGLES["batched"]
        stacked = steering_matrix(ArrayGeometry(n), angles, convention)
        flat = steering_matrix(ArrayGeometry(n), angles.ravel(), convention)
        assert flat.shape == (n, angles.size)
        np.testing.assert_array_equal(flat.T.reshape(angles.shape + (n,)),
                                      stacked.swapaxes(-1, -2))

    @pytest.mark.parametrize("n", [4, 17, 100])
    def test_negative_cos_ramp_is_exact_conjugate(self, n):
        angles = self.ANGLES["batched"]
        np.testing.assert_array_equal(
            steering_matrix(ArrayGeometry(n), angles, "arrival_cos_pos").conj(),
            steering_matrix(ArrayGeometry(n), angles, "arrival_cos_neg"))

    @staticmethod
    def _extended_reference(n, angles, convention):
        """Real and imaginary parts of e^{j*m*r}/sqrt(n) from the same float
        ramps r, with the phases m*r and their cosines in extended precision."""
        sign, trig = {"arrival_cos_neg": (-1.0, np.cos), "arrival_cos_pos": (1.0, np.cos),
                      "departure_sin_neg": (-1.0, np.sin)}[convention]
        ramp = (sign * np.pi * trig(np.asarray(angles, dtype=float))).astype(np.longdouble)
        phase = np.arange(n, dtype=np.longdouble)[:, None] * ramp
        scale = np.sqrt(np.longdouble(n))
        return np.cos(phase) / scale, np.sin(phase) / scale

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 100, 1000])
    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_doubling_matches_extended_precision_phases(self, n, convention):
        # the doubled factor e^{j*k*r} gathers about one rounding per level
        # and row, so the relative error of an entry grows like n * eps
        angles = np.random.default_rng(11).uniform(0.0, np.pi, 500)
        out = steering_matrix(ArrayGeometry(n), angles, convention)
        re, im = self._extended_reference(n, angles, convention)
        err = np.hypot(out.real.astype(np.longdouble) - re, out.imag.astype(np.longdouble) - im)
        assert float(err.max()) * math.sqrt(n) <= 1e-15 * n

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65])
    def test_entry_magnitudes(self, n):
        # the magnitude error grows like sqrt(n) * eps: 1.1e-15 at 100
        # elements, 3.5e-15 at 1000, inside the extended-precision bound above
        angles = np.random.default_rng(12).uniform(0.0, np.pi, 2000)
        for convention in CONVENTIONS:
            out = steering_matrix(ArrayGeometry(n), angles, convention)
            assert np.max(np.abs(np.abs(out) - 1.0 / math.sqrt(n))) <= 1e-15

    @pytest.mark.parametrize("n", [1, 4, 17, 64, 100])
    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_stacked_draws_match_per_draw_calls(self, n, convention):
        angles = np.random.default_rng(13).uniform(0.0, np.pi, (6, 5))
        stacked = steering_matrix(ArrayGeometry(n), angles, convention)
        for d, row in enumerate(angles):
            np.testing.assert_array_equal(stacked[d],
                                          steering_matrix(ArrayGeometry(n), row, convention))

    def test_empty_angle_sets(self):
        for n in (4, 100):
            assert steering_matrix(ArrayGeometry(n), np.empty((0, 3)),
                                   "arrival_cos_neg").shape == (0, n, 3)
            assert steering_matrix(ArrayGeometry(n), [], "arrival_cos_neg").shape == (n, 0)


class TestArrayGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0)


class TestPathSet:
    def test_power_sum_enforced(self):
        with pytest.raises(ValueError):
            PathSet([1.0], [0.1], [0.2], [0], [0.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PathSet([1.0, 0.0], [0.1], [0.2, 0.3], [0, 0], [0.5, 0.5])

    def test_immutable(self):
        p = PathSet([1.0], [0.1], [0.2], [0], [1.0])
        with pytest.raises(ValueError):
            p.gains[0] = 0.0

    def test_batched_shapes_checked(self):
        ok = PathSet(np.ones((2, 1)), [[0.1], [0.2]], [[0.3], [0.4]], [[0], [1]], [1.0])
        assert ok.gains.shape[-1] == 1
        with pytest.raises(ValueError):  # angles must follow the draw axis
            PathSet(np.ones((2, 1)), [0.1], [[0.3], [0.4]], [[0], [1]], [1.0])
        with pytest.raises(ValueError):  # mean powers are per path, not per draw
            PathSet(np.ones((2, 1)), [[0.1], [0.2]], [[0.3], [0.4]], [[0], [1]], [[1.0], [1.0]])


class TestSamplePaths:
    def test_los_only(self):
        p = sample_paths(ChannelConfig(num_paths=1, k_factor_db=math.inf), 0)
        assert abs(abs(p.gains[0]) - 1.0) < 1e-12
        assert p.mean_powers[0] == 1.0

    def test_rician_power_split(self):
        cfg = ChannelConfig(num_paths=4, k_factor_db=10.0)
        p = sample_paths(cfg, 1)
        assert abs(p.mean_powers[0] - 10.0 / 11.0) < 1e-12
        np.testing.assert_allclose(p.mean_powers[1:], 1.0 / 33.0, atol=1e-12)
        assert p.mean_powers.sum() == 1.0
        # line-of-sight magnitude is deterministic
        assert abs(abs(p.gains[0]) - math.sqrt(10.0 / 11.0)) < 1e-12

    def test_same_seed_identical(self):
        cfg = ChannelConfig(num_paths=3, k_factor_db=2.0, delay_spread_taps=5)
        a = sample_paths(cfg, 77)
        b = sample_paths(cfg, 77)
        for name in ("gains", "arrival_angles", "departure_angles",
                     "tap_indices", "mean_powers"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("k_db", [3.0, -math.inf])
    def test_finite_k_needs_diffuse_path(self, k_db):
        with pytest.raises(ValueError, match="needs at least one diffuse path"):
            ChannelConfig(num_paths=1, k_factor_db=k_db)

    def test_minus_infinite_k_is_rayleigh(self):
        p = sample_paths(ChannelConfig(num_paths=3, k_factor_db=-math.inf, delay_spread_taps=4), 5)
        np.testing.assert_array_equal(p.mean_powers, [0.0, 0.5, 0.5])
        assert p.gains[0] == 0
        # the line-of-sight phase is still drawn, so every later draw matches
        # a vanishing finite K-factor's
        q = sample_paths(ChannelConfig(num_paths=3, k_factor_db=-300.0, delay_spread_taps=4), 5)
        for name in ("arrival_angles", "departure_angles", "tap_indices"):
            np.testing.assert_array_equal(getattr(p, name), getattr(q, name))
        np.testing.assert_array_equal(p.gains[1:], q.gains[1:])

    def test_k_overflowing_linear_units_rejected(self):
        with pytest.raises(ValueError, match="overflows in linear units"):
            ChannelConfig(num_paths=3, k_factor_db=4000.0)

    def test_pure_nlos_uniform(self):
        p = sample_paths(ChannelConfig(num_paths=5), 9)
        np.testing.assert_allclose(p.mean_powers, 0.2, atol=1e-12)
        assert p.mean_powers.sum() == 1.0

    @pytest.mark.parametrize("draws", [None, 3])
    def test_pinned_angles_keep_the_stream(self, draws):
        # angles pinned on the draw, line-of-sight path included, leave the
        # gains, taps and mean powers of the same seed and the next draw
        # of a shared generator as they are
        cfg = ChannelConfig(num_paths=3, k_factor_db=0.0, delay_spread_taps=4)
        rngs = np.random.default_rng(5), np.random.default_rng(5)
        plain = sample_paths(cfg, rngs[0], draws=draws)
        arr = np.broadcast_to([0.3, 0.5, 0.9], plain.gains.shape)
        dep = np.broadcast_to([1.0, 1.5, 2.0], plain.gains.shape)
        pinned = dataclasses.replace(sample_paths(cfg, rngs[1], draws=draws),
                                     arrival_angles=arr, departure_angles=dep)
        np.testing.assert_array_equal(pinned.arrival_angles, arr)
        np.testing.assert_array_equal(pinned.departure_angles, dep)
        for name in ("gains", "tap_indices", "mean_powers"):
            assert np.array_equal(getattr(pinned, name), getattr(plain, name)), name
        following = [sample_paths(cfg, g, draws=draws) for g in rngs]
        for name in ("gains", "arrival_angles", "departure_angles", "tap_indices"):
            assert np.array_equal(getattr(following[0], name), getattr(following[1], name)), name

    def test_taps_within_spread(self):
        cfg = ChannelConfig(num_paths=8, delay_spread_taps=3)
        p = sample_paths(cfg, 6)
        assert np.all((p.tap_indices >= 0) & (p.tap_indices <= 3))

    @pytest.mark.parametrize("cfg, seed, golden", [
        (ChannelConfig(num_paths=3, k_factor_db=2.0, delay_spread_taps=5), 77, dict(
            gains=[0.17528628479315292 - 0.7631589208785787j,
                   -0.17752570322815756 + 0.8255150610729289j,
                   -0.5002440194875393 + 0.2057880333150283j],
            arrival_angles=[1.2257049752450697, 2.5173603284809483, 0.2852617651317667],
            departure_angles=[1.1737756475107886, 2.4860142100872795, 2.383436699576175],
            tap_indices=[4, 3, 5],
            mean_powers=[0.613136820153143, 0.19343158992342846, 0.19343158992342857])),
        (ChannelConfig(num_paths=2, delay_spread_taps=3), 5, dict(
            gains=[-0.4009657126267237 - 0.6621794978140725j,
                   -0.12418081104762427 + 0.21022261903276074j],
            arrival_angles=[0.1694282984051494, 1.2043888594907253],
            departure_angles=[1.2832564213357422, 0.14223621655377514],
            tap_indices=[0, 0],
            mean_powers=[0.5, 0.5])),
        # line of sight alone: the diffuse draw is empty and consumes nothing
        (ChannelConfig(num_paths=1, k_factor_db=math.inf, delay_spread_taps=3), 3, dict(
            gains=[0.8586585755304812 + 0.5125479984040178j],
            arrival_angles=[0.7439621478151841],
            departure_angles=[2.517277973401507],
            tap_indices=[3],
            mean_powers=[1.0])),
    ])
    def test_unbatched_stream_unchanged(self, cfg, seed, golden):
        # the values a single draw has always returned for this seed
        p = sample_paths(cfg, seed)
        for name, values in golden.items():
            if name == "gains":  # the line-of-sight phase goes through exp
                np.testing.assert_array_max_ulp(p.gains.real, np.real(values), maxulp=2)
                np.testing.assert_array_max_ulp(p.gains.imag, np.imag(values), maxulp=2)
            else:
                assert np.array_equal(getattr(p, name), values), name

    @pytest.mark.parametrize("cfg", [
        ChannelConfig(num_paths=3, k_factor_db=2.0, delay_spread_taps=5),
        ChannelConfig(num_paths=2, delay_spread_taps=3),
    ])
    def test_single_batched_draw_matches_unbatched(self, cfg):
        one = sample_paths(cfg, 77)
        batch = sample_paths(cfg, 77, draws=1)
        assert batch.gains.shape == (1, cfg.num_paths)
        for name in ("gains", "arrival_angles", "departure_angles", "tap_indices"):
            assert np.array_equal(getattr(batch, name)[0], getattr(one, name)), name
        assert np.array_equal(batch.mean_powers, one.mean_powers)

    def test_batched_rician_empirical_powers(self):
        # Monte Carlo against the construction: 1e5 draws within 1%; a single
        # draw runs the same branch (test_unbatched_stream_unchanged pins it)
        cfg = ChannelConfig(num_paths=4, k_factor_db=10.0)
        p = sample_paths(cfg, np.random.default_rng(123), draws=100_000)
        emp = np.mean(np.abs(p.gains) ** 2, axis=0)
        expect = np.array([10 / 11, 1 / 33, 1 / 33, 1 / 33])
        assert np.all(np.abs(emp - expect) / expect < 0.01)
        np.testing.assert_allclose(np.abs(p.gains[:, 0]), math.sqrt(10 / 11), rtol=1e-12)

    def test_zero_draws(self):
        p = sample_paths(ChannelConfig(num_paths=3), 1, draws=0)
        assert p.gains.shape == (0, 3)
        with pytest.raises(ValueError):
            sample_paths(ChannelConfig(num_paths=3), 1, draws=-1)


class TestFreqGain:
    def test_zero_delay_path(self):
        g = 0.3 - 0.4j
        assert freq_gain(g, 0, 17, 64) == g

    def test_half_band_single_tap(self):
        assert abs(freq_gain(1.0, 1, 32, 64) - (-1.0)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 63), st.integers(0, 63),
           st.complex_numbers(max_magnitude=10, allow_nan=False))
    def test_magnitude_is_delay_invariant(self, k, tap, gain):
        assert abs(abs(freq_gain(gain, tap, k, 64)) - abs(gain)) < 1e-12

    def test_subcarrier_range_checked(self):
        with pytest.raises(ValueError):
            freq_gain(1.0, 0, 64, 64)


def _random_paths(rng, num_paths, max_tap):
    gains = rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths)
    powers = rng.uniform(0.5, 1.5, num_paths)
    powers /= powers.sum()
    powers[-1] = 1.0 - powers[:-1].sum()
    return PathSet(gains, rng.uniform(0, np.pi, num_paths),
                   rng.uniform(0, np.pi, num_paths),
                   rng.integers(0, max_tap + 1, num_paths), powers)


class TestAssembleChannel:
    def test_single_path_rank_one(self):
        p = PathSet([1.0], [0.4], [1.2], [0], [1.0])
        h = assemble_channel(p, ArrayGeometry(3), ArrayGeometry(5), 0, 16)
        assert np.linalg.matrix_rank(h) == 1
        assert abs(np.linalg.norm(h) - math.sqrt(15)) < 1e-12

    def test_factored_form_matches_sum(self):
        rng = np.random.default_rng(8)
        p = _random_paths(rng, 3, 7)
        tx, rx = ArrayGeometry(6), ArrayGeometry(4)
        h = assemble_channel(p, tx, rx, 5, 32)
        arrival = steering_matrix(rx, p.arrival_angles, "arrival_cos_neg")
        departure = steering_matrix(tx, p.departure_angles, "departure_sin_neg")
        gains = freq_gain(p.gains, p.tap_indices, 5, 32)
        rebuilt = math.sqrt(6 * 4) * arrival @ np.diag(gains) @ departure.conj().T
        assert np.max(np.abs(h - rebuilt)) < 1e-12 * np.max(np.abs(h))

    def test_dc_subcarrier_has_unit_tap_phases(self):
        rng = np.random.default_rng(9)
        p = _random_paths(rng, 4, 7)
        undelayed = PathSet(p.gains, p.arrival_angles, p.departure_angles,
                            np.zeros_like(p.tap_indices), p.mean_powers)
        geom = ArrayGeometry(4)
        # every tap phase is 1 at DC, so the delays leave the channel unchanged
        np.testing.assert_allclose(assemble_channel(p, geom, geom, 0, 16),
                                   assemble_channel(undelayed, geom, geom, 0, 16),
                                   rtol=0, atol=1e-15)

    def test_batched_draws_match_single_draws(self):
        p = sample_paths(ChannelConfig(3, k_factor_db=3.0, delay_spread_taps=7), 2, draws=4)
        tx, rx = ArrayGeometry(5), ArrayGeometry(3)
        ks = np.array([0, 3, 7, 15])
        batch = assemble_channel(p, tx, rx, ks, 16)
        assert batch.shape == (4, 3, 5)
        for i, k in enumerate(ks):
            one = PathSet(p.gains[i], p.arrival_angles[i], p.departure_angles[i],
                          p.tap_indices[i], p.mean_powers)
            np.testing.assert_array_equal(batch[i], assemble_channel(one, tx, rx, k, 16))
        with pytest.raises(ValueError, match="single draw"):
            time_domain_channel(p, tx, rx, 16)

    def test_tap_beyond_band_rejected(self):
        p = PathSet([1.0], [0.4], [1.2], [20], [1.0])
        with pytest.raises(ValueError):
            assemble_channel(p, ArrayGeometry(2), ArrayGeometry(2), 0, 16)

    def test_dft_oracle(self):
        # time-domain taps + DFT reproduce the closed-form frequency response
        rng = np.random.default_rng(31)
        n_c = 16
        for _ in range(50):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            l = int(rng.integers(1, 5))
            p = _random_paths(rng, l, n_c - 1)
            tx, rx = ArrayGeometry(n), ArrayGeometry(m)
            taps = time_domain_channel(p, tx, rx, n_c)
            spectrum = np.fft.fft(taps, axis=0)
            for k in (0, 1, n_c // 2, n_c - 1):
                direct = assemble_channel(p, tx, rx, k, n_c)
                assert np.max(np.abs(spectrum[k] - direct)) < 1e-10


class TestPathLoss:
    def test_reference_distance(self):
        assert abs(path_loss_linear(1.0, 2.0) - 1e-3) < 1e-18

    def test_ten_meters_square_law(self):
        assert abs(path_loss_linear(10.0, 2.0) - 1e-5) < 1e-18

    def test_hundred_meters_steep(self):
        assert abs(path_loss_linear(100.0, 3.5) - 1e-10) < 1e-23

    def test_below_reference_rejected(self):
        with pytest.raises(ValueError):
            path_loss_linear(0.5, 2.0)


class TestChannelStats:
    def test_shapes_and_powers(self):
        rng = np.random.default_rng(3)
        p = _random_paths(rng, 3, 0)
        s = channel_stats(p, ArrayGeometry(8), ArrayGeometry(4))
        assert s.ris_arrival.shape == (8, 3)
        assert s.bs_departure.shape == (4, 3)
        np.testing.assert_allclose(s.path_powers, p.mean_powers)
        assert s.num_ris_elements == 8 and s.num_bs_antennas == 4
