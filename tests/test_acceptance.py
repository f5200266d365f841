"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them on success).

The reference flat-top scenario (100-element surface fed by a 5-path channel
with the line-of-sight as strong as each diffuse path, 64-antenna
transmitter, 4 streams, coverage 90-140 degrees, oversampling 10, best of 3
starts) is synthesized once and shared by the criteria that consume it.
"""

import math
import time

import numpy as np
import pytest

from risbeam import harness
from risbeam.analysis import (CoverageStats, LinkBudget, analytic_ofdma_rate,
                              avg_received_power, dbm_to_watts,
                              idealized_ofdma_channel_gains,
                              idealized_received_power_mc)
from risbeam.channel import (ArrayGeometry, ChannelConfig, PathSet,
                             assemble_channel, channel_stats, sample_paths)
from risbeam.manifold import (project_tangent, random_unit_modulus,
                              rcg_minimize, retract)
from risbeam.pattern import AngularGrid, TargetPattern, WeightConfig, normalized_pattern
from risbeam.scenario import ScenarioConfig
from risbeam.synthesis import (CoverageRegion, measure_minus3db_region,
                               predict_shifted_region, synthesize)
from risbeam.validation import gradient_check

from channel_oracles import time_domain_channel


def _announce(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def reference_design():
    config = ScenarioConfig()  # built-in defaults are the reference scenario
    t0 = time.perf_counter()
    paths, stats, result = harness._design(config)
    elapsed = time.perf_counter() - t0
    return config, paths, stats, result, elapsed


def test_flat_top_reproduction(reference_design):
    config, _, _, result, elapsed = reference_design
    ok = result.flat_top_ripple_db <= 2.0 and elapsed < 300.0
    _announce("flat-top-reproduction",
              ok, f"ripple {result.flat_top_ripple_db:.3f} dB (<= 2.0), "
                  f"synthesis wall time {elapsed:.1f} s (< 300)")
    assert result.flat_top_ripple_db <= 2.0
    assert elapsed < 300.0


def test_convergence_traces(reference_design):
    _, _, _, result, _ = reference_design
    outer = result.outer_cost_trace
    outer_ok = bool(np.all(np.diff(outer) <= 1e-9 * outer[0]))
    inner_ok = all(np.all(np.diff(s.cost_trace) <= 1e-9 * max(1.0, s.cost_trace[0]))
                   for s in result.solves)
    reduction = result.final_cost / outer[0]
    ok = outer_ok and inner_ok and reduction < 0.10
    _announce("convergence",
              ok, f"outer/inner traces nonincreasing: {outer_ok}/{inner_ok}, "
                  f"final cost {100 * reduction:.2f}% of initial (< 10%)")
    assert outer_ok and inner_ok
    assert reduction < 0.10


def test_gradient_fidelity():
    rng = np.random.default_rng(314)
    worst_fd = 0.0
    worst_diag = 0.0
    for _ in range(20):
        m = int(rng.integers(4, 17))
        n_bs = int(rng.integers(2, 9))
        n_d = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        paths = sample_paths(ChannelConfig(num_paths=l, delay_spread_taps=0), rng)
        stats = channel_stats(paths, ArrayGeometry(m), ArrayGeometry(n_bs))
        grid = AngularGrid(8, m)
        target = TargetPattern(flat_power=2.0, sidelobe_power=0.02,
                               center=float(rng.uniform(1.2, 1.9)),
                               half_width=float(rng.uniform(0.25, 0.5)))
        theta = random_unit_modulus(m, rng)
        w = rng.standard_normal((n_bs, n_d)) + 1j * rng.standard_normal((n_bs, n_d))
        w /= np.linalg.norm(w)
        errs = gradient_check(stats, target, WeightConfig(), grid, theta, w)
        worst_fd = max(worst_fd, errs["precoder_fd"], errs["phase_fd"],
                       errs["full_matrix_fd"])
        worst_diag = max(worst_diag, errs["diag_extraction"])
    ok = worst_fd < 1e-4 and worst_diag < 1e-8
    _announce("gradient-fidelity",
              ok, f"max finite-difference error {worst_fd:.2e} (< 1e-4, "
                  f"target 1e-5 {'met' if worst_fd < 1e-5 else 'missed'}), "
                  f"diagonal extraction {worst_diag:.2e} (< 1e-8)")
    assert worst_fd < 1e-4
    assert worst_diag < 1e-8


def test_dft_oracle():
    rng = np.random.default_rng(2718)
    n_c = 16
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        l = int(rng.integers(1, 5))
        gains = rng.standard_normal(l) + 1j * rng.standard_normal(l)
        powers = rng.uniform(0.5, 1.5, l)
        powers /= powers.sum()
        powers[-1] = 1.0 - powers[:-1].sum()
        paths = PathSet(gains, rng.uniform(0, np.pi, l), rng.uniform(0, np.pi, l),
                        rng.integers(0, n_c, l), powers)
        tx, rx = ArrayGeometry(n), ArrayGeometry(m)
        spectrum = np.fft.fft(time_domain_channel(paths, tx, rx, n_c), axis=0)
        for k in range(n_c):
            direct = assemble_channel(paths, tx, rx, k, n_c)
            worst = max(worst, float(np.max(np.abs(spectrum[k] - direct))))
    ok = worst < 1e-10
    _announce("dft-oracle", ok, f"max deviation {worst:.2e} (< 1e-10, 50 instances)")
    assert worst < 1e-10


def test_manifold_suite():
    rng = np.random.default_rng(161)
    # retraction and projection numerics
    worst_mod = 0.0
    worst_proj = 0.0
    worst_tang = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 40))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        theta = retract(x)
        worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(theta) - 1.0))))
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        once = project_tangent(theta, d)
        twice = project_tangent(theta, once)
        worst_proj = max(worst_proj, float(np.max(np.abs(once - twice))))
        worst_tang = max(worst_tang, float(np.max(np.abs((once * theta.conj()).real))))

    # per-iterate feasibility and tangency on an optimization run
    target = random_unit_modulus(16, rng)
    iterates = []

    def grad(x):
        iterates.append(x.copy())
        return x - target

    res = rcg_minimize(lambda x: float(np.sum(np.abs(x - target) ** 2)), grad,
                       random_unit_modulus(16, rng))
    for x in iterates:
        worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(x) - 1.0))))
        rg = project_tangent(x, x - target)
        worst_tang = max(worst_tang, float(np.max(np.abs((rg * x.conj()).real))))

    # two-element phase matching against the exhaustive grid
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c = a.conj() * b

    def cost(th):
        return -abs(np.sum(c * th))

    def cgrad(th):
        s = np.sum(c * th)
        return -0.5 * s * c.conj() / max(abs(s), 1e-300)

    opt = rcg_minimize(cost, cgrad, random_unit_modulus(2, rng),
                       grad_tol=1e-9, cost_tol=1e-14)
    ph = np.exp(1j * np.deg2rad(np.arange(360)))
    grid_best = float(np.min(-np.abs(np.add.outer(c[0] * ph, c[1] * ph))))
    gap = opt.final_cost - grid_best

    ok = (worst_mod < 1e-12 and worst_proj < 1e-12 and worst_tang < 1e-10
          and gap <= 1e-6)
    _announce("manifold-suite",
              ok, f"unit-modulus {worst_mod:.1e} (<1e-12), projection "
                  f"idempotence {worst_proj:.1e} (<1e-12), tangency "
                  f"{worst_tang:.1e} (<1e-10), grid gap {gap:.1e} (<=1e-6)")
    assert worst_mod < 1e-12
    assert worst_proj < 1e-12
    assert worst_tang < 1e-10
    assert gap <= 1e-6


def test_constant_received_power_prediction():
    rng = np.random.default_rng(55)
    budget = LinkBudget(dbm_to_watts(20.0), dbm_to_watts(-80.0),
                        2.76e-8, 2.94e-6, 0.0)
    worst = 0.0
    for k_db in (0.0, 10.0):
        for width_deg in (30.0, 90.0):
            width = math.radians(width_deg)
            stats = CoverageStats(10.0 ** (k_db / 10.0), width, 600.0)
            cov = (math.radians(95.0), math.radians(95.0) + width)
            mc = idealized_received_power_mc(stats, budget, cov, 3, 10_000, rng)
            closed = avg_received_power(stats, budget)
            worst = max(worst, abs(mc - closed) / closed)
    ok = worst < 0.02
    _announce("constant-received-power", ok,
              f"max closed-form vs Monte Carlo deviation {100 * worst:.2f}% (< 2%)")
    assert worst < 0.02


def test_ofdma_rate_prediction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    spec = ScenarioConfig().ofdma
    n_c, n_bs, m = 64, 64, spec.ris_elements
    lo, hi = (math.radians(d) for d in spec.coverage_deg)
    flat = m * math.pi / (hi - lo)
    b1, b2, bd = 2.762e-8, 2.944e-6, 8.839e-12
    noise = dbm_to_watts(-80.0)
    worst_mid = 0.0
    worst_low = 0.0
    for k_db in spec.k_sweep_db:
        stats = CoverageStats(10.0 ** (k_db / 10.0), hi - lo, flat)
        gains = idealized_ofdma_channel_gains(stats, (lo, hi), spec.nlos_paths,
                                              spec.direct_paths, n_c, n_bs,
                                              b1 * b2, bd, spec.realizations, rng)
        for p_dbm in spec.p_sweep_dbm:
            budget = LinkBudget(dbm_to_watts(p_dbm), noise, b1, b2, bd)
            mc = float(np.mean(np.sum(np.log2(1 + budget.snr_scale * gains), axis=1)))
            closed = analytic_ofdma_rate(stats, budget, n_c, n_bs)
            rel = abs(closed - mc) / mc
            if k_db < 0:
                worst_low = max(worst_low, rel)
            else:
                worst_mid = max(worst_mid, rel)
    elapsed = time.perf_counter() - t0
    ok = worst_mid < 0.05 and worst_low < 0.12 and elapsed < 600.0
    _announce("ofdma-rate-prediction", ok,
              f"closed form within {100 * worst_mid:.2f}% of Monte Carlo for "
              f"K >= 0 dB (< 5%), {100 * worst_low:.2f}% at K = -10 dB (< 12%), "
              f"{elapsed:.1f} s (< 600)")
    assert worst_mid < 0.05
    assert worst_low < 0.12
    assert elapsed < 600.0


def test_shifted_coverage_prediction():
    m, n_bs = 64, 8
    lo, hi = math.radians(100.0), math.radians(140.0)
    target = TargetPattern.for_coverage(lo, hi, m * math.pi / (hi - lo))

    def stats_at(incident):
        return channel_stats(PathSet([1.0], [incident], [1.3], [0], [1.0]),
                             ArrayGeometry(m), ArrayGeometry(n_bs))

    phi0 = math.radians(60.0)
    design = synthesize(target, stats_at(phi0), num_streams=1, seed=8,
                        num_starts=1, inner_max_iters=300, outer_max_iters=12)
    grid = design.grid
    bin_rad = grid.spacing
    measured0 = measure_minus3db_region(grid.angles, design.achieved_pattern)
    region0 = CoverageRegion(*measured0)

    # identity case is exact
    identity = predict_shifted_region(region0, phi0, phi0)
    identity_ok = identity is region0

    rng = np.random.default_rng(99)
    checked = 0
    worst = 0.0
    while checked < 10:
        cand0 = float(rng.uniform(0.4, math.pi - 0.4))
        cand1 = cand0 + float(rng.uniform(0.05, 0.3)) * (1 if rng.uniform() < 0.5 else -1)
        if not 0.0 < cand1 < math.pi:
            continue
        # the beam launched from cand0 is the measurement baseline; the pair
        # qualifies only when that region satisfies the prediction hypothesis
        base = normalized_pattern(design.theta, design.precoder,
                                  stats_at(cand0), grid)
        base_lo, base_hi = measure_minus3db_region(grid.angles, base)
        if not math.pi / 2 + bin_rad < base_lo < base_hi < math.pi - bin_rad:
            continue
        predicted = predict_shifted_region(CoverageRegion(base_lo, base_hi),
                                           cand0, cand1)
        if predicted is None or predicted.phi_max >= math.pi - bin_rad \
                or predicted.phi_min <= bin_rad:
            continue  # clamped or out of the measurable range
        shifted = normalized_pattern(design.theta, design.precoder,
                                     stats_at(cand1), grid)
        measured1 = measure_minus3db_region(grid.angles, shifted)
        worst = max(worst, abs(predicted.phi_min - measured1[0]),
                    abs(predicted.phi_max - measured1[1]))
        checked += 1
    ok = identity_ok and worst <= bin_rad
    _announce("shifted-coverage-prediction", ok,
              f"identity exact: {identity_ok}, max edge error over 10 shifts "
              f"{math.degrees(worst):.4f} deg (<= one bin = "
              f"{math.degrees(bin_rad):.4f} deg)")
    assert identity_ok
    assert worst <= bin_rad


def test_power_scaling_trends(tmp_path):
    config = ScenarioConfig.from_dict({
        "seed": 0, "cp_length": 4,
        "optimizer": {"num_starts": 1, "inner_max_iters": 150, "outer_max_iters": 10},
        "scaling": {"element_counts": [32, 64], "beamwidths_deg": [40.0, 20.0],
                    "center_deg": 115.0, "num_seeds": 3, "paths": 3, "streams": 2,
                    "bs_antennas": 16},
    })
    report = harness.run_scaling_probe(config, tmp_path)
    mean = {(c["num_elements"], c["beamwidth_deg"]): c["mean_achieved"]
            for c in report["payload"]["cell_means"]}
    ratio_m = mean[(64, 40)] / mean[(32, 40)]
    ratio_bw = mean[(32, 20)] / mean[(32, 40)]
    ok = 1.7 <= ratio_m <= 2.3 and 1.7 <= ratio_bw <= 2.3
    _announce("power-scaling-trends", ok,
              f"doubling elements: x{ratio_m:.3f}, halving beamwidth: "
              f"x{ratio_bw:.3f} (both within [1.7, 2.3], 3 seeds)")
    assert 1.7 <= ratio_m <= 2.3
    assert 1.7 <= ratio_bw <= 2.3


def test_broadcast_rate_ordering(tmp_path, monkeypatch, reference_design):
    config = ScenarioConfig.load(None, "ci")
    design_config, paths, stats, result, _ = reference_design

    # the fixture already synthesized this scenario's design
    def shared_design(asked, *row):
        assert asked == design_config and not row
        return paths, stats, result

    monkeypatch.setattr(harness, "_design", shared_design)
    report = harness.run_broadcast_cdf(config, tmp_path)
    med = report["payload"]["median_rates"]
    ok = med["proposed"] > med["random_phase"] and med["proposed"] > med["no_ris"]
    _announce("broadcast-rate-ordering", ok,
              f"median rates (bits/subcarrier): proposed {med['proposed']:.3f} "
              f"> random-phase {med['random_phase']:.3f} and "
              f"> no-surface {med['no_ris']:.3f} "
              f"({config.users} users x {config.realizations} realizations)")
    assert med["proposed"] > med["random_phase"]
    assert med["proposed"] > med["no_ris"]
