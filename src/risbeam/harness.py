"""Seeded experiment runners behind the command-line interface.

Every runner takes the scenario and an output directory alone and is a pure
function of (config, seed): each option it reads is a scenario key, so
report.json's ``config_hash`` names the run. Data outputs (CSV and result
documents) are byte-identical across re-runs; the run summary (report.json)
additionally records wall time, the one field excluded from that
determinism contract. Angles are degrees in files, radians internally.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from . import analysis, pattern, synthesis
from .channel import (ArrayGeometry, ChannelConfig, PathSet, channel_stats, sample_paths,
                      stream)
from .manifold import random_unit_modulus
from .pattern import region_masks
from .scenario import ScenarioConfig, feed_channel
from .synthesis import CoverageRegion, measure_minus3db_region, predict_shifted_region
from .validation import gradient_check


# Rows per formatted block. Past about a hundred rows the per-block call
# costs nothing measurable; 1024-row blocks raised the synthesis runs' peak
# RSS by about 0.1 MB (a 1000-row pattern.csv in one block), 256 did not.
_CSV_BLOCK = 256
_G = "%.12g"  # same text as format(x, ".12g"), including nan, inf and -0


def _write_csv(path: Path, columns: dict[str, str], rows) -> None:
    """Write ``rows`` as LF-terminated CSV under a header of the ``columns``
    names; each column has its printf format ("%s" strings, "%d" integers,
    ``_G`` floats). Rows stream through in blocks of ``_CSV_BLOCK``, each
    formatted by one ``%`` operation."""
    line = ",".join(columns.values()) + "\n"
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        while block := list(itertools.islice(rows, _CSV_BLOCK)):
            fh.write((line * len(block)) % tuple(itertools.chain.from_iterable(block)))


def _finish(out_dir: Path, command: str, config: ScenarioConfig, payload: dict,
            outputs: list[str], t0: float, exit_code: int = 0, design=None) -> dict:
    """Write report.json, whose payload alone gets the solver ``warnings`` and
    ``diagnostics`` of a ``design``: the data files are written by now."""
    if design is not None:
        payload["warnings"] = design.solver_warnings()
        payload["diagnostics"] = design.diagnostics()
    report = {
        "command": command,
        "seed": config.seed,
        "config_hash": config.config_hash(),
        "outputs": outputs,
        "payload": payload,
        "exit_code": exit_code,
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _ensure_dir(out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _design(config: ScenarioConfig, *row: int):
    """Draw a design channel and synthesize (theta, W): the scenario's own
    design, or with a ``row`` index that row of a batch of fresh draws."""
    kind = ("batch-channel", "batch-starts") if row else ("design-channel", "synthesis-starts")
    paths = sample_paths(config.bs_ris_channel(), stream(config.seed, kind[0], *row))
    stats = channel_stats(paths, ArrayGeometry(config.ris_elements),
                          ArrayGeometry(config.bs_antennas))
    result = synthesis.synthesize(config.target(), stats, config.streams,
                                  seed=stream(config.seed, kind[1], *row),
                                  **config.synthesis_kwargs())
    return paths, stats, result


def run_synthesize(config: ScenarioConfig, out_dir) -> dict:
    """Synthesize the configured flat-top design; emit the pattern, the cost
    trace, and the full design document. Nonzero exit when the achieved
    ripple exceeds the scenario's ``assert_ripple_db``."""
    t0 = time.perf_counter()
    out = _ensure_dir(out_dir)
    paths, stats, result = _design(config)
    grid = result.grid
    angles = grid.angles

    _write_csv(out / "pattern.csv",
               dict.fromkeys(["angle_deg", "gain_linear", "gain_db", "target_linear",
                              "target_db"], _G),
               ((math.degrees(a), y, 10.0 * np.log10(max(y, 1e-30)),
                 f, 10.0 * np.log10(max(f, 1e-30)))
                for a, y, f in zip(angles, result.achieved_pattern, result.target_values)))
    trace = result.concatenated_trace()
    _write_csv(out / "trace.csv", {"iteration": "%d", "cost": _G},
               ((i, c) for i, c in enumerate(trace)))

    flat_mask, _, _ = region_masks(config.target(), angles)
    payload = {
        "ripple_db": result.flat_top_ripple_db,
        "achieved_flat_mean": float(result.achieved_pattern[flat_mask].mean()),
        "target_flat_power": config.flat_power_value(),
        "initial_cost": float(result.outer_cost_trace[0]),
        "final_cost": result.final_cost,
        "outer_iterations": int(len(result.outer_cost_trace) - 1),
        "winning_start": result.start_index,
    }
    doc = dict(payload)
    doc.update({
        "phases_rad": np.angle(result.theta).tolist(),
        "precoder_real": result.precoder.real.tolist(),
        "precoder_imag": result.precoder.imag.tolist(),
        "outer_cost_trace": result.outer_cost_trace.tolist(),
        "config_hash": config.config_hash(),
    })
    with open(out / "result.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs = ["pattern.csv", "trace.csv", "result.json"]

    if config.batch_channels > 0:
        batch = np.asarray([_design(config, i)[2].achieved_pattern
                            for i in range(config.batch_channels)])
        _write_csv(out / "pattern_stats.csv",
                   dict.fromkeys(["angle_deg", "mean_gain_linear", "std_gain_linear",
                                  "mean_gain_db"], _G),
                   ((math.degrees(a), m, s, 10.0 * math.log10(max(m, 1e-30)))
                    for a, m, s in zip(angles, batch.mean(axis=0), batch.std(axis=0))))
        payload["batch_channels"] = config.batch_channels
        outputs.append("pattern_stats.csv")

    exit_code = 0
    bound = config.assert_ripple_db
    if bound is not None and not result.flat_top_ripple_db <= bound:
        payload["ripple_assertion"] = f"FAIL: {result.flat_top_ripple_db:.3f} dB > {bound} dB"
        exit_code = 1
    return _finish(out, "synthesize", config, payload, outputs, t0, exit_code,
                   design=result)


def run_broadcast_cdf(config: ScenarioConfig, out_dir) -> dict:
    """Empirical downlink-rate CDFs of the synthesized design against the
    random-phase and no-surface baselines, users at random angles inside the
    coverage with one subcarrier each, common channel draws across
    strategies. Rates are per assigned subcarrier, cyclic-prefix adjusted
    and scaled by (1 - overhead_fraction).

    None of the strategies sees instantaneous CSI: the no-surface baseline
    transmits the same broad-coverage precoder over the direct channel
    alone, and the random-phase baseline redraws the surface phases each
    realization while keeping that precoder.
    """
    t0 = time.perf_counter()
    n_c = config.subcarriers
    scale = config.rate_scale()
    out = _ensure_dir(out_dir)
    design_paths, stats, design = _design(config)
    theta = design.theta
    w = design.precoder
    budget = config.budget()
    lo, hi = config.coverage_rad()
    m = config.ris_elements
    ue = ArrayGeometry(config.ue_antennas)
    ris = ArrayGeometry(m)
    bs = ArrayGeometry(config.bs_antennas)

    feed_cfg = config.bs_ris_channel()
    user_cfg = config.ris_user_channel()
    direct_cfg = config.direct_channel()
    subcarriers = np.arange(config.users) % n_c

    rng = np.random.default_rng(stream(config.seed, "trials"))
    names = ("proposed", "random_phase", "no_ris")
    rates = np.empty((len(names), config.realizations, config.users))
    for r in range(config.realizations):
        # fresh feed gains and delays along the design's path angles
        feed = dataclasses.replace(sample_paths(feed_cfg, rng),
                                   arrival_angles=design_paths.arrival_angles,
                                   departure_angles=design_paths.departure_angles)
        theta_rand = random_unit_modulus(m, rng)
        angles = rng.uniform(lo, hi, size=config.users)
        users = sample_paths(user_cfg, rng, draws=config.users)
        # each user's line-of-sight path leaves the surface towards the user
        users = dataclasses.replace(users, departure_angles=np.column_stack(
            (angles, users.departure_angles[:, 1:])))
        direct = sample_paths(direct_cfg, rng, draws=config.users)
        for block, hw in analysis.precoded_channels((theta, theta_rand, None), w, feed,
                                                    users, direct, subcarriers, n_c,
                                                    ris, bs, ue, budget):
            rates[:, r, block] = scale * analysis.subcarrier_rates(hw, budget.snr_scale)

    sorted_rates = np.sort(rates.reshape(len(names), -1), axis=1)
    n = sorted_rates.shape[1]
    # the middle pair of each sorted row: np.median's value bit for bit,
    # without the numpy.ma import that its first call pays for
    medians = {name: float(0.5 * (vals[(n - 1) // 2] + vals[n // 2])) if n else None
               for name, vals in zip(names, sorted_rates)}
    # streamed: the paper preset writes about two million rows; the cdf
    # column is the same for every strategy, so it is formatted once
    cdf = [_G % ((i + 1) / n) for i in range(n)]
    _write_csv(out / "cdf.csv",
               {"strategy": "%s", "rate_bits_per_subcarrier_symbol": _G, "cdf": "%s"},
               ((name, v, c) for name, vals in zip(names, sorted_rates)
                for v, c in zip(vals.tolist(), cdf)))
    payload = {
        "median_rates": medians,
        "users": config.users,
        "realizations": config.realizations,
        "overhead_fraction": config.overhead_fraction,
        "ripple_db": design.flat_top_ripple_db,
        "no_ris_strategy": "direct channel only, same broad-coverage precoder "
                           "(no instantaneous CSI at the transmitter)",
    }
    return _finish(out, "broadcast-cdf", config, payload, ["cdf.csv"], t0, design=design)


def run_ofdma_eval(config: ScenarioConfig, out_dir) -> dict:
    """Monte Carlo mean OFDMA rate and received power under the ideal flat
    top next to their closed forms, swept over the Rice factor and transmit
    power."""
    t0 = time.perf_counter()
    n_c = config.subcarriers
    scale = config.rate_scale()
    out = _ensure_dir(out_dir)
    spec = config.ofdma
    budget0 = config.budget()
    coverage = tuple(math.radians(d) for d in spec.coverage_deg)

    rows, powers = [], []
    worst = worst_power = 0.0
    for i, k_db in enumerate(spec.k_sweep_db):
        stats = spec.coverage_stats(k_db)
        gains = analysis.idealized_ofdma_channel_gains(
            stats, coverage, spec.nlos_paths, spec.direct_paths, n_c, config.bs_antennas,
            budget0.bs_ris_gain * budget0.ris_user_gain, budget0.direct_gain,
            spec.realizations, np.random.default_rng(stream(config.seed, "ofdma", i)))
        for p_dbm in spec.p_sweep_dbm:
            budget = dataclasses.replace(budget0, tx_power_w=analysis.dbm_to_watts(p_dbm))
            mc = scale * float(np.mean(np.sum(np.log2(1.0 + budget.snr_scale * gains), axis=1)))
            closed = scale * analysis.analytic_ofdma_rate(stats, budget, n_c,
                                                          config.bs_antennas)
            rel = abs(closed - mc) / max(mc, np.finfo(float).tiny)
            worst = max(worst, rel)
            rows.append((k_db, p_dbm, mc, closed, 100.0 * rel))
            power = analysis.avg_received_power(stats, budget, config.bs_antennas)
            mc_power = budget.tx_power_w * float(np.mean(gains)) + budget.noise_power_w
            worst_power = max(worst_power, abs(power - mc_power) / mc_power)
            powers.append(power)
    _write_csv(out / "rates.csv",
               dict.fromkeys(["k_factor_db", "tx_power_dbm", "mc_rate_bits_per_symbol",
                              "analytic_rate_bits_per_symbol", "rel_err_pct"], _G), rows)
    with open(out / "analytic.txt", "w") as fh:
        fh.write("closed-form OFDMA downlink rate (bits per OFDM symbol, "
                 "CP-adjusted, overhead-scaled) and mean received power (W, noise included)\n")
        for (k_db, p_dbm, _, closed, _), power in zip(rows, powers):
            fh.write(f"K = {k_db:+.1f} dB, p = {p_dbm:.1f} dBm: {closed:.6g}, "
                     f"received power {power:.6g} W\n")
    payload = {
        "worst_rel_err_pct": 100.0 * worst,
        "received_power_rel_err_pct": 100.0 * worst_power,
        "flat_power": stats.flat_power,  # the same at every Rice factor
        "realizations": spec.realizations,
        "overhead_fraction": config.overhead_fraction,
    }
    return _finish(out, "ofdma-eval", config, payload, ["rates.csv", "analytic.txt"], t0)


def run_gradcheck(config: ScenarioConfig, out_dir) -> dict:
    """Finite-difference audit of both analytic gradients and the
    diagonal-extraction identity on random small instances; nonzero exit
    above the configured threshold."""
    t0 = time.perf_counter()
    out = _ensure_dir(out_dir)
    spec = config.gradcheck
    keys = ("precoder_fd", "phase_fd", "full_matrix_fd", "diag_extraction")
    rows = []
    for i in range(spec.instances):
        rng = np.random.default_rng(stream(config.seed, "gradcheck", i))
        m, n_bs, n_d, n_paths = spec.draw_sizes(rng)
        paths = sample_paths(ChannelConfig(num_paths=n_paths, delay_spread_taps=0), rng)
        stats = channel_stats(paths, ArrayGeometry(m), ArrayGeometry(n_bs))
        grid = pattern.AngularGrid(spec.oversampling, m)
        center = rng.uniform(1.2, 1.9)
        half = rng.uniform(0.2, 0.5)
        target = pattern.TargetPattern(flat_power=2.0, sidelobe_power=0.02,
                                       center=center, half_width=half, rolloff=0.1)
        theta = random_unit_modulus(m, rng)
        w = rng.standard_normal((n_bs, n_d)) + 1j * rng.standard_normal((n_bs, n_d))
        w /= np.linalg.norm(w)
        errs = gradient_check(stats, target, pattern.WeightConfig(), grid, theta, w,
                              fd_step=spec.fd_step)
        rows.append((i, m, n_bs, n_d, n_paths, *(errs[key] for key in keys)))
    _write_csv(out / "gradcheck.csv",
               {"instance": "%d", "ris_elements": "%d", "bs_antennas": "%d", "streams": "%d",
                "paths": "%d", **dict.fromkeys(keys, _G)}, rows)
    # np.max keeps a NaN error, which max() would drop; it then fails its bound
    errors = np.max([row[5:] for row in rows], axis=0)
    ok = bool(np.all(errors < (spec.threshold,) * 3 + (1e-8,)))
    worst = dict(zip(keys, errors.tolist()))
    lines = [f"max {k}: {v:.3e}" for k, v in worst.items()]
    lines.append(f"threshold {spec.threshold:g}: {'PASS' if ok else 'FAIL'}")
    (out / "gradcheck.txt").write_text("\n".join(lines) + "\n")
    payload = {"worst": worst, "instances": spec.instances, "pass": ok}
    return _finish(out, "gradcheck", config, payload,
                   ["gradcheck.csv", "gradcheck.txt"], t0, 0 if ok else 1)


def run_beamshift(config: ScenarioConfig, out_dir) -> dict:
    """Synthesize a single-feed flat top, re-illuminate it from a different
    incident angle, and check the measured -3 dB region against the
    closed-form shift prediction to one grid bin; no prediction fails."""
    t0 = time.perf_counter()
    spec = config.beamshift
    phi0, phi1 = math.radians(spec.incident_from_deg), math.radians(spec.incident_to_deg)
    out = _ensure_dir(out_dir)
    feed_departure = np.random.default_rng(stream(config.seed, "beamshift-feed")).uniform(0, np.pi)

    def stats_for(incident: float):
        path = PathSet(gains=[1.0 + 0.0j], arrival_angles=[incident],
                       departure_angles=[feed_departure], tap_indices=[0], mean_powers=[1.0])
        return channel_stats(path, ArrayGeometry(spec.ris_elements),
                             ArrayGeometry(config.bs_antennas))

    design = synthesis.synthesize(spec.target(), stats_for(phi0), num_streams=1,
                                  seed=stream(config.seed, "beamshift-starts"),
                                  **config.synthesis_kwargs())
    grid = design.grid
    angles = grid.angles
    measured0 = measure_minus3db_region(angles, design.achieved_pattern)
    try:
        predicted = predict_shifted_region(CoverageRegion(*measured0), phi0, phi1)
    except ValueError:  # the design's region breaks the prediction's hypothesis
        predicted = None
    shifted_pattern = pattern.normalized_pattern(design.theta, design.precoder,
                                                 stats_for(phi1), grid)
    measured1 = measure_minus3db_region(angles, shifted_pattern)

    bin_rad = grid.spacing
    errs = (math.nan, math.nan) if predicted is None else (
        abs(predicted.phi_min - measured1[0]), abs(predicted.phi_max - measured1[1]))
    ok = predicted is not None and max(errs) <= bin_rad
    payload = {
        "incident_from_deg": math.degrees(phi0),
        "incident_to_deg": math.degrees(phi1),
        "design_region_deg": [math.degrees(a) for a in measured0],
        "predicted_region_deg": None if predicted is None else
            [math.degrees(predicted.phi_min), math.degrees(predicted.phi_max)],
        "measured_region_deg": [math.degrees(a) for a in measured1],
        "errors_deg": [math.degrees(e) for e in errs],
        "grid_bin_deg": math.degrees(bin_rad),
        "pass": ok,
    }
    lines = [f"{k}: {v}" for k, v in payload.items()]
    (out / "beamshift.txt").write_text("\n".join(lines) + "\n")
    return _finish(out, "beamshift", config, payload, ["beamshift.txt"], t0,
                   0 if ok else 1, design=design)


def run_scaling_probe(config: ScenarioConfig, out_dir) -> dict:
    """Synthesize every (element count, beamwidth) cell over several seeds
    and tabulate the achieved flat-top mean power. Every cell of one seed
    shares that seed's "scaling-channel" and "scaling-starts" streams."""
    t0 = time.perf_counter()
    out = _ensure_dir(out_dir)
    spec = config.scaling
    feed = feed_channel(spec.paths, None, config.cp_length)
    rows, cells, warnings, diagnostics = [], {}, [], []
    for m, bw, seed in itertools.product(spec.element_counts, spec.beamwidths_deg,
                                         range(config.seed, config.seed + spec.num_seeds)):
        stats = channel_stats(sample_paths(feed, stream(seed, "scaling-channel")),
                              ArrayGeometry(m), ArrayGeometry(spec.bs_antennas))
        target = spec.cell_target(m, bw)
        design = synthesis.synthesize(target, stats, spec.streams,
                                      seed=stream(seed, "scaling-starts"),
                                      **config.synthesis_kwargs())
        flat_mask, _, _ = region_masks(target, design.grid.angles)
        achieved = float(design.achieved_pattern[flat_mask].mean())
        rows.append((m, bw, seed, target.flat_power, achieved, design.flat_top_ripple_db))
        cells.setdefault((m, bw), []).append(achieved)
        warnings += [f"cell ({m} elements, {bw:g} deg, seed {seed}): {line}"
                     for line in design.solver_warnings()]
        diagnostics.append({"num_elements": m, "beamwidth_deg": bw, "seed": seed,
                            "solves": design.diagnostics()["solves"]})
    _write_csv(out / "scaling.csv",
               {"num_elements": "%d", "beamwidth_deg": _G, "seed": "%d",
                "target_flat_power": _G, "achieved_flat_mean": _G, "ripple_db": _G}, rows)
    payload = {
        "cell_means": [{"num_elements": m, "beamwidth_deg": bw, "mean_achieved": float(np.mean(v))}
                       for (m, bw), v in sorted(cells.items())],
        "warnings": warnings,
        "diagnostics": {"cells": diagnostics},
    }
    return _finish(out, "scaling-probe", config, payload, ["scaling.csv"], t0)
