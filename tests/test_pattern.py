import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam.channel import (ArrayGeometry, ChannelConfig, ChannelStats, channel_stats,
                             sample_paths, steering_matrix)
from risbeam.manifold import random_unit_modulus
from risbeam.pattern import (AngularGrid, TargetPattern, WeightConfig, _autocorrelation,
                             _lag_table, _PhaseSolve, _PrecoderSolve, compute_weights,
                             grid_steering_rows, normalized_pattern, path_excitations,
                             pattern_cost, region_masks, target_value)
from risbeam.synthesis import (measure_minus3db_region, optimize_precoder, phase_gradient,
                               precoder_gradient)
from risbeam.validation import _dense_excitation, _full_matrix_pattern, relative_error


def _target():
    return TargetPattern(flat_power=4.0, sidelobe_power=0.04, center=2.0,
                         half_width=0.45, rolloff=0.1)


class TestTargetPattern:
    def test_center_value(self):
        t = _target()
        assert target_value(t, t.center) == t.flat_power

    def test_flat_boundary_continuous(self):
        t = _target()
        edge = t.center + t.half_width * (1 - t.rolloff)
        assert target_value(t, edge) == pytest.approx(t.flat_power, abs=1e-12)

    def test_outer_boundary_hits_sidelobe_level(self):
        t = _target()
        edge = t.center + t.half_width * (1 + t.rolloff)
        assert target_value(t, edge) == pytest.approx(t.sidelobe_power, abs=1e-12)

    def test_rolloff_midpoint(self):
        t = _target()
        mid = t.center + t.half_width  # halfway through the transition
        assert target_value(t, mid) == pytest.approx(
            0.5 * (t.flat_power + t.sidelobe_power), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, np.pi))
    def test_value_between_levels(self, angle):
        t = _target()
        v = target_value(t, angle)
        assert t.sidelobe_power - 1e-12 <= v <= t.flat_power + 1e-12

    def test_continuity_on_dense_grid(self):
        t = _target()
        x = np.linspace(0, np.pi, 200_001)
        v = target_value(t, x)
        # steepest slope is the raised cosine's; allow 2x slack
        max_slope = (t.flat_power - t.sidelobe_power) * np.pi / (4 * t.rolloff * t.half_width)
        assert np.max(np.abs(np.diff(v))) < 2 * max_slope * (x[1] - x[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TargetPattern(1.0, 1.0, 1.5, 0.3)  # flat must exceed sidelobe
        with pytest.raises(ValueError):
            TargetPattern(1.0, 0.0, 0.1, 0.3)  # spills below zero angle
        with pytest.raises(ValueError):
            TargetPattern(1.0, 0.0, 1.5, 0.3, rolloff=1.0)

    def test_for_coverage_maps_edges(self):
        t = TargetPattern.for_coverage(np.deg2rad(90), np.deg2rad(140), 10.0)
        assert t.center == pytest.approx(np.deg2rad(115))
        assert t.half_width == pytest.approx(np.deg2rad(25))
        assert t.sidelobe_power == pytest.approx(0.1)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, np.pi))
    def test_regions_partition(self, angle):
        flat, side, roll = region_masks(_target(), np.array([angle]))
        assert int(flat[0]) + int(side[0]) + int(roll[0]) == 1


class TestAngularGrid:
    def test_samples(self):
        g = AngularGrid(4, 8)
        assert g.size == 32
        np.testing.assert_allclose(g.angles, np.arange(32) * np.pi / 32)

    def test_oversampling_must_exceed_one(self):
        with pytest.raises(ValueError):
            AngularGrid(1, 8)

    def test_caches_keyed_by_the_grid(self):
        # equal grids share one steering stack and one lag table
        a, b = AngularGrid(4, 8), AngularGrid(4, 8)
        assert a is not b
        assert grid_steering_rows(a) is grid_steering_rows(b)
        assert _lag_table(a) is _lag_table(b)
        assert _lag_table(AngularGrid(3, 8)) is not _lag_table(a)


class TestWeights:
    def test_sidelobe_below_target_excluded(self):
        t = _target()
        angles = np.array([0.1])  # sidelobe region
        f = target_value(t, angles)
        w = compute_weights(f / 2, t, WeightConfig(), angles)
        assert w[0] == 0.0

    def test_sidelobe_above_target_included(self):
        t = _target()
        angles = np.array([0.1])
        f = target_value(t, angles)
        w = compute_weights(f * 2, t, WeightConfig(2.0, 3.0, 0.5), angles)
        assert w[0] == 3.0

    def test_flat_region_weight_unconditional(self):
        t = _target()
        angles = np.array([t.center])
        f = target_value(t, angles)
        for y in (f / 2, f * 2):
            w = compute_weights(y, t, WeightConfig(7.0, 1.0, 0.5), angles)
            assert w[0] == 7.0

    def test_equality_boundary_gets_zero(self):
        t = _target()
        angles = np.array([0.1])
        f = target_value(t, angles)
        assert compute_weights(f.copy(), t, WeightConfig(), angles)[0] == 0.0

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            WeightConfig(flat_weight=0.0)


def _instance(seed=0, m=8, n_bs=4, n_d=2, paths=2):
    rng = np.random.default_rng(seed)
    p = sample_paths(ChannelConfig(num_paths=paths, delay_spread_taps=3), rng)
    stats = channel_stats(p, ArrayGeometry(m), ArrayGeometry(n_bs))
    theta = random_unit_modulus(m, rng)
    w = rng.standard_normal((n_bs, n_d)) + 1j * rng.standard_normal((n_bs, n_d))
    w /= np.linalg.norm(w)
    return stats, theta, w, AngularGrid(10, m), rng


def _average_pattern(theta, w, stats, grid):
    """Average pattern of the precoder as given: the normalized pattern
    times ||W||^2."""
    return normalized_pattern(theta, w, stats, grid) * np.vdot(w, w).real


class TestAveragePowerPattern:
    def test_monte_carlo_expectation_oracle(self):
        # average of instantaneous patterns over random path gains and tap
        # phases, built from explicit per-draw channel matrices
        stats, theta, w, grid, rng = _instance(seed=42)
        m, n_bs = 8, 4
        geom_m, geom_b = ArrayGeometry(m), ArrayGeometry(n_bs)
        a_cols = stats.ris_arrival
        b_cols = stats.bs_departure
        rows = steering_matrix(geom_m, grid.angles, "arrival_cos_pos").conj().T
        draws = 100_000
        lam = stats.path_powers
        acc = np.zeros(grid.size)
        batch = 10_000
        for _ in range(draws // batch):
            g = (rng.standard_normal((batch, 2)) + 1j * rng.standard_normal((batch, 2)))
            g *= np.sqrt(lam / 2.0)
            g *= np.exp(-2j * np.pi * rng.uniform(size=(batch, 2)))  # tap phases
            # G = sqrt(N_BS*M) sum_l delta_l a_l b_l^H ; instantaneous pattern
            # y(phi) = M * || row(phi) Theta G W ||^2
            gw = np.einsum("ln,nd->ld", b_cols.conj().T, w)
            cols = np.einsum("ml,tl->tml", a_cols, g)
            rtg = np.einsum("gm,m,tml->tgl", rows, theta, cols)
            field = np.einsum("tgl,ld->tgd", rtg, gw) * np.sqrt(n_bs * m)
            acc += m * np.sum(np.abs(field) ** 2, axis=(0, 2))
        mc = acc / draws
        closed = _average_pattern(theta, w, stats, grid)
        assert np.max(np.abs(mc - closed)) / np.max(closed) < 0.01

    def test_nonnegative(self):
        stats, theta, w, grid, _ = _instance(seed=5)
        assert np.all(_average_pattern(theta, w, stats, grid) >= 0)

    def test_rejects_off_circle_phases(self):
        stats, theta, w, grid, _ = _instance()
        with pytest.raises(ValueError):
            normalized_pattern(theta * 1.5, w, stats, grid)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0, 2 * np.pi))
    def test_global_phase_invariance(self, phi):
        stats, theta, w, grid, _ = _instance(seed=2)
        y0 = _average_pattern(theta, w, stats, grid)
        y1 = _average_pattern(np.exp(1j * phi) * theta, w, stats, grid)
        np.testing.assert_allclose(y0, y1, rtol=1e-11, atol=1e-11 * y0.max())

    def test_single_path_conjugate_match_direct_evaluation(self):
        # one feed path, phases conjugate-matched to the feed and observation
        # steering: the matched angle collects the full array gain
        # M^2 * N_BS * power * |b^H W|^2; cross-checked against a naive
        # dense-matrix evaluation of the quadratic form
        m, n_bs = 8, 4
        rng = np.random.default_rng(3)
        incident, observe, feed_dep = 1.1, 2.0, 0.7
        geom_m, geom_b = ArrayGeometry(m), ArrayGeometry(n_bs)
        paths = dataclasses.replace(sample_paths(ChannelConfig(num_paths=1, k_factor_db=np.inf),
                                                 rng),
                                    arrival_angles=[incident], departure_angles=[feed_dep])
        stats = channel_stats(paths, geom_m, geom_b)
        w = steering_matrix(geom_b, [feed_dep], "departure_sin_neg")
        idx = np.arange(m)
        theta = np.exp(1j * np.pi * idx * (np.cos(observe) + np.cos(incident)))
        grid = AngularGrid(10, m)
        y = _average_pattern(theta, w, stats, grid)
        j = int(np.argmin(np.abs(grid.angles - observe)))
        # direct evaluation at the exact observation angle
        obs = steering_matrix(geom_m, [observe], "arrival_cos_pos")[:, 0]
        quad = obs.conj() @ np.diag(theta) @ (stats.ris_arrival @ stats.ris_arrival.conj().T) \
            @ np.diag(theta).conj().T @ obs
        direct = m * m * n_bs * float(quad.real) * float(
            np.abs(stats.bs_departure[:, 0].conj() @ w[:, 0]) ** 2)
        assert direct == pytest.approx(m * m * n_bs, rel=1e-12)
        assert y[j] <= direct + 1e-9
        assert y.max() == pytest.approx(direct, rel=1e-3)  # peak sits on a grid sample

    def test_superposition_of_per_path_beams(self):
        # pattern equals the weighted sum of single-feed beams
        stats, theta, w, grid, _ = _instance(seed=7, paths=3)
        m, n_bs = stats.num_ris_elements, stats.num_bs_antennas
        y = _average_pattern(theta, w, stats, grid)
        rows = steering_matrix(ArrayGeometry(m), grid.angles, "arrival_cos_pos").conj().T
        total = np.zeros(grid.size)
        for l in range(stats.path_powers.size):
            chi = stats.path_powers[l] * np.sum(
                np.abs(stats.bs_departure[:, l].conj() @ w) ** 2)
            beam = rows @ (theta * stats.ris_arrival[:, l])
            total += m * m * n_bs * chi * np.abs(beam) ** 2
        assert np.max(np.abs(total - y)) <= 1e-10 * max(1.0, y.max())


class TestNormalizedPattern:
    @pytest.mark.parametrize("m", [4, 32, 100])
    def test_matches_dense_full_matrix_form(self, m):
        # the per-path beam kernel against the explicit dense quadratic form
        # rows Theta A (I o P B^H W W^H B) A^H Theta^H rows^H with Theta = diag(theta)
        stats, theta, w, grid, _ = _instance(seed=m, m=m, n_bs=4, paths=3)
        dense = _full_matrix_pattern(np.diag(theta), *_dense_excitation(w, stats), stats, grid)
        y = normalized_pattern(theta, w, stats, grid)
        assert np.max(np.abs(y - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_scale_invariance(self):
        stats, theta, w, grid, _ = _instance(seed=11)
        y1 = normalized_pattern(theta, w, stats, grid)
        y7 = normalized_pattern(theta, 7.0 * w, stats, grid)
        np.testing.assert_allclose(y1, y7, rtol=1e-12)

    @pytest.mark.parametrize("evaluate", [
        lambda theta, w, stats, grid, f: normalized_pattern(theta, w, stats, grid),
        lambda theta, w, stats, grid, f: precoder_gradient(w, theta, stats, f, np.ones_like(f), grid),
        lambda theta, w, stats, grid, f: phase_gradient(theta, w, stats, f, np.ones_like(f), grid),
        lambda theta, w, stats, grid, f: optimize_precoder(w, theta, stats, _target(), grid),
    ], ids=["normalized_pattern", "precoder_gradient", "phase_gradient", "optimize_precoder"])
    def test_zero_precoder_rejected(self, evaluate):
        stats, theta, w, grid, _ = _instance()
        f = target_value(_target(), grid.angles)
        with pytest.raises(ValueError, match="precoder must be nonzero"):
            evaluate(theta, np.zeros_like(w), stats, grid, f)

    def test_stacked_precoder_rejected(self):
        stats, theta, w, grid, _ = _instance()
        with pytest.raises(ValueError):
            normalized_pattern(theta, np.stack([w, w]), stats, grid)

    def test_stacked_kernel_matches_per_point(self):
        # the finite-difference audit evaluates stacks of free complex points
        stats, theta, w, grid, rng = _instance(seed=14, paths=3)
        thetas = theta + 0.1 * (rng.standard_normal((5, theta.size))
                                + 1j * rng.standard_normal((5, theta.size)))
        ws = w + 0.1 * (rng.standard_normal((5,) + w.shape)
                        + 1j * rng.standard_normal((5,) + w.shape))
        solve = _PhaseSolve(stats, grid, None, None, w)
        np.testing.assert_array_equal(solve.pattern(thetas)[0],
                                      [solve.pattern(th)[0] for th in thetas])
        precoders = _PrecoderSolve(stats, grid, None, None, theta)
        stacked = precoders.pattern(ws)[2]
        np.testing.assert_array_equal(stacked, [precoders.pattern(wc[None])[2][0] for wc in ws])
        # a stack item's ||W||^2 is summed, a single precoder's is a vdot
        np.testing.assert_allclose(stacked, [normalized_pattern(theta, wc, stats, grid)
                                             for wc in ws], rtol=1e-12)

    def test_null_on_the_grid_is_not_negative(self):
        # one endfire path on a two-element surface with equal phases has an
        # exact null at pi/2, a grid angle; unclipped, the series rounds it to
        # about -5e-32, which the -3 dB measurement rejects
        arrival = steering_matrix(ArrayGeometry(2), np.array([0.0]), "arrival_cos_neg")
        stats = ChannelStats(arrival, np.ones((1, 1)), np.ones(1))
        grid, theta, w = AngularGrid(2, 2), np.ones(2, dtype=complex), np.ones((1, 1))
        ybar = normalized_pattern(theta, w, stats, grid)
        assert ybar[2] == 0.0 and np.all(ybar >= 0.0)
        np.testing.assert_array_equal(_PrecoderSolve(stats, grid, None, None, theta).pattern(w)[2],
                                      ybar)
        lo, hi = measure_minus3db_region(grid.angles, ybar)
        assert lo < hi


class TestLagKernel:
    """The lag-domain series of the solves against the dense products with
    the (grid, M) steering rows: beams rows @ (theta o A), the phase gradient
    routed back through rows^H, and the per-path beam powers |beams|^2 with
    the precoder pattern and gradient they give."""

    # odd grids (3 x 17, 3 x 257) leave no self-mirrored angle at pi/2
    @pytest.mark.parametrize("oversampling, m", [(10, 4), (3, 17), (8, 17), (10, 32),
                                                 (10, 100), (3, 257), (2, 257)])
    def test_matches_dense_steering_rows(self, oversampling, m):
        stats, theta, w, _, rng = _instance(seed=m, m=m, n_bs=4, paths=3)
        grid = AngularGrid(oversampling, m)
        rows = grid_steering_rows(grid)
        f = rng.uniform(0.0, 2.0 * m, grid.size)
        weights = rng.uniform(0.0, 10.0, grid.size)
        solve = _PhaseSolve(stats, grid, f, None, w)
        bw = stats.bs_departure.conj().T @ w
        chi = path_excitations(stats, bw)
        wnorm2 = np.vdot(w, w).real
        factor = m * m * stats.num_bs_antennas / wnorm2
        free = theta + 0.3 * (rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m)))
        for th in (theta, *free):
            beams = rows @ (th[:, None] * stats.ris_arrival)
            beam_power = np.abs(beams) ** 2
            dense = factor * (beam_power @ chi)
            ybar, = solve.pattern(th)
            assert relative_error(ybar, dense) <= 1e-12
            residual = (weights * (ybar - f))[:, None] * beams * chi
            dense_grad = 2.0 * factor * np.sum(
                stats.ris_arrival.conj() * (rows.conj().T @ residual), axis=1)
            assert relative_error(solve.gradient(th, ybar, weights), dense_grad) <= 1e-12
            precoders = _PrecoderSolve(stats, grid, f, None, th)
            assert relative_error(precoders.beam_power, beam_power) <= 1e-12
            terms = precoders.pattern(w)
            assert relative_error(terms[2], dense) <= 1e-12
            d = beam_power.T @ (weights * (ybar - f))
            dense_w_grad = ((2.0 / wnorm2) * np.sum(weights * ybar * (f - ybar)) * w
                            + 2.0 * factor * stats.bs_departure
                            @ ((stats.path_powers * d)[:, None] * bw))
            assert relative_error(precoders.gradient(w, *terms, weights), dense_w_grad) <= 1e-12
        # a stack (B, M) of free phases, each against its dense pattern
        stacked, = solve.pattern(free)
        for th, y in zip(free, stacked):
            dense = factor * (np.abs(rows @ (th[:, None] * stats.ris_arrival)) ** 2 @ chi)
            assert relative_error(y, dense) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 17, 100])
    def test_autocorrelation_matches_double_sum(self, m):
        rng = np.random.default_rng(m)
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        direct = [sum(x[i + k] * np.conj(x[i]) for i in range(m - k)) for k in range(m)]
        rho = _autocorrelation(x)
        assert rho.shape == (m,)
        np.testing.assert_allclose(rho, direct, rtol=0, atol=1e-13 * np.vdot(x, x).real)
        # a (5, M) stack equals its rows, each on its own
        stack = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
        np.testing.assert_array_equal(_autocorrelation(stack),
                                      [_autocorrelation(row) for row in stack])

    @pytest.mark.parametrize("oversampling, m", [(10, 4), (3, 17), (10, 100)])
    def test_phase_gradient_is_dense_toeplitz_product(self, oversampling, m):
        # grad = (S o K^T) theta with S = 2 rows^H diag(rho) rows and
        # K = A diag(scale chi / ||W||^2) A^H, both formed densely
        stats, theta, w, _, rng = _instance(seed=m + 1, m=m, n_bs=4, paths=4)
        grid = AngularGrid(oversampling, m)
        rows = grid_steering_rows(grid)
        f = rng.uniform(0.0, 2.0 * m, grid.size)
        weights = rng.uniform(0.0, 10.0, grid.size)
        solve = _PhaseSolve(stats, grid, f, None, w)
        chi = path_excitations(stats, stats.bs_departure.conj().T @ w)
        factor = m * m * stats.num_bs_antennas / np.vdot(w, w).real
        a = stats.ris_arrival
        k = (a * (factor * chi)) @ a.conj().T
        free = theta + 0.3 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        for th in (theta, free):
            ybar, = solve.pattern(th)
            s = 2.0 * (rows.conj().T * (weights * (ybar - f))) @ rows
            assert relative_error(solve.gradient(th, ybar, weights), (s * k.T) @ th) <= 1e-12


class TestPatternCost:
    def test_perfect_fit_costs_nothing(self):
        stats, theta, w, grid, _ = _instance(seed=13)
        t = _target()
        ybar = normalized_pattern(theta, w, stats, grid)
        weights = compute_weights(ybar, t, WeightConfig(), grid.angles)
        assert pattern_cost(ybar, ybar, weights) == 0.0

    def test_flat_perturbation_quadratic(self):
        stats, theta, w, grid, _ = _instance(seed=14)
        t = _target()
        ybar = normalized_pattern(theta, w, stats, grid)
        flat, _, _ = region_masks(t, grid.angles)
        j = int(np.flatnonzero(flat)[0])
        f = ybar.copy()
        delta = 0.37
        f[j] += delta
        cfg = WeightConfig(flat_weight=10.0)
        cost = pattern_cost(ybar, f, compute_weights(ybar, t, cfg, grid.angles))
        assert cost == pytest.approx(10.0 * delta ** 2, rel=1e-9)

    def test_nonnegative_random(self):
        stats, theta, w, grid, _ = _instance(seed=15)
        t = _target()
        f = target_value(t, grid.angles)
        ybar = normalized_pattern(theta, w, stats, grid)
        weights = compute_weights(ybar, t, WeightConfig(), grid.angles)
        assert pattern_cost(ybar, f, weights) >= 0.0

