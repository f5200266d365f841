import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import risbeam.synthesis
import risbeam.validation
from risbeam import analysis, cli, harness
from risbeam.channel import stream
from risbeam.scenario import OptimizerSpec, ScenarioConfig

TINY = dict(
    ris_elements=24, bs_antennas=8, ue_antennas=2, streams=2,
    bs_ris_paths=3, ris_user_paths=3, direct_paths=2,
    users=8, realizations=3, subcarriers=16, cp_length=2, seed=11,
)
TINY_OPT = dict(num_starts=1, inner_max_iters=100, outer_max_iters=8)
COMMANDS = ("synthesize", "broadcast-cdf", "ofdma-eval", "gradcheck", "beamshift",
            "scaling-probe")
# every inner solve runs into its 4-iteration cap
CAPPED_OPT = dict(num_starts=1, inner_max_iters=4, outer_max_iters=2, outer_tol=0.0,
                  inner_cost_tol=0.0, inner_grad_tol=0.0)


def _opt():
    return OptimizerSpec(**TINY_OPT)


def _tiny_config(**overrides):
    data = dict(TINY)
    data.update(overrides)
    return ScenarioConfig(optimizer=_opt(), **data)


class TestScenarioConfig:
    def test_defaults_mirror_reference_deployment(self):
        c = ScenarioConfig()
        assert c.bs_antennas == 64 and c.ris_elements == 100
        assert c.subcarriers == 64 and c.cp_length == 8
        assert c.tx_power_dbm == 20.0 and c.noise_power_dbm == -80.0
        assert c.oversampling == 10
        assert c.coverage_deg == (90.0, 140.0)
        assert (c.bs_ris_exponent, c.ris_user_exponent, c.direct_exponent) == (2.0, 2.2, 3.5)
        assert c.ris_position == (190.0, 10.0)

    def test_budget_from_geometry(self):
        b = ScenarioConfig().budget()
        assert b.tx_power_w == pytest.approx(0.1)
        assert b.noise_power_w == pytest.approx(1e-11)
        d1 = math.hypot(190.0, 10.0)
        assert b.bs_ris_gain == pytest.approx(10 ** (-0.1 * (30 + 20 * math.log10(d1))))

    def test_flat_power_heuristic(self):
        c = ScenarioConfig()
        assert c.flat_power_value() == pytest.approx(100 * math.pi / math.radians(50))

    def test_feed_k_factor_balances_paths(self):
        cfg = ScenarioConfig().bs_ris_channel()
        k = 10 ** (cfg.k_factor_db / 10)
        assert k / (k + 1) == pytest.approx(1 / 5)  # as strong as each diffuse path

    def test_preset_counts(self):
        assert ScenarioConfig.load(None, "paper").users == 1280
        assert ScenarioConfig.load(None, "paper").realizations == 500
        assert ScenarioConfig.load(None, "ci").users == 128
        with pytest.raises(ValueError):
            ScenarioConfig.load(None, "huge")

    @pytest.mark.parametrize("data, preset, golden", [
        (None, "ci", "206450cb0a56b4bc35f14077c23deaae022e00defdab13234a56b6f6c79961d2"),
        (None, "paper", "bbcf4963b1cae2ee014efa2084722d2b808e19d796578f51c5464e7e79e9a886"),
        # the file's own users override the preset's; realizations stay 500
        ({"users": 7}, "paper", "e47a744b0f6fdb27d92b403f1573098b9052eb6303cb5ae2d2f44db61ace6468"),
    ])
    def test_load_config_hash_golden(self, tmp_path, data, preset, golden):
        path = None
        if data is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(data))
        assert ScenarioConfig.load(path, preset).config_hash() == golden

    def test_solver_defaults_are_synthesize_defaults(self):
        # the scenario's solver settings are synthesize's keywords, stated
        # twice: a default changed in one place fails here until the other
        # follows
        params = inspect.signature(risbeam.synthesis.synthesize).parameters
        defaults = {name: p.default for name, p in params.items()
                    if p.default is not p.empty and name != "seed"}
        assert ScenarioConfig().synthesis_kwargs() == defaults
        assert [f.name for f in dataclasses.fields(OptimizerSpec)] == [
            name for name in defaults if name not in ("oversampling", "weight_config")]

    def test_unknown_key_reports_path(self):
        with pytest.raises(ValueError, match=r"scenario\.optimizer\.bogus"):
            ScenarioConfig.from_dict({"optimizer": {"bogus": 1}})

    def test_type_error_reports_path(self):
        with pytest.raises(ValueError, match=r"scenario\.subcarriers"):
            ScenarioConfig.from_dict({"subcarriers": "many"})

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "seed": 1,\n  oops\n}\n')
        with pytest.raises(ValueError, match=r":3:"):
            ScenarioConfig.load(p)

    def test_roundtrip_and_hash(self):
        c = ScenarioConfig.load(None, "ci")
        again = ScenarioConfig.from_dict(json.loads(json.dumps(c.to_dict())))
        assert again == c
        assert again.config_hash() == c.config_hash()
        assert ScenarioConfig(seed=1).config_hash() != ScenarioConfig(seed=2).config_hash()

    def test_optional_and_tuple_coercion(self):
        c = ScenarioConfig.from_dict({"flat_power": None,
                                      "coverage_deg": [95, 130]})
        assert c.flat_power is None
        assert c.coverage_deg == (95.0, 130.0)


@pytest.fixture(scope="module")
def syn_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("syn")
    config = _tiny_config()
    report = harness.run_synthesize(config, out)
    return config, out, report


class TestRunSynthesize:
    def test_outputs_exist(self, syn_run):
        _, out, report = syn_run
        for name in ("pattern.csv", "trace.csv", "result.json", "report.json"):
            assert (out / name).exists()
        assert report["exit_code"] == 0

    def test_pattern_rows_cover_grid(self, syn_run):
        config, out, _ = syn_run
        lines = (out / "pattern.csv").read_text().strip().splitlines()
        assert len(lines) == config.oversampling * config.ris_elements + 1
        assert lines[0].startswith("angle_deg,")

    def test_pattern_csv_roundtrip(self, tmp_path, monkeypatch):
        designs = []
        true_design = harness._design

        def recording_design(config, *row):
            designs.append(true_design(config, *row))
            return designs[-1]

        monkeypatch.setattr(harness, "_design", recording_design)
        harness.run_synthesize(_tiny_config(), tmp_path)
        result = designs[0][2]
        lines = (tmp_path / "pattern.csv").read_text().strip().splitlines()
        assert lines[0] == "angle_deg,gain_linear,gain_db,target_linear,target_db"
        assert len(lines) == result.grid.size + 1
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.0)
        assert float(first[1]) == pytest.approx(result.achieved_pattern[0], rel=1e-10)
        table = np.loadtxt(tmp_path / "pattern.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(table[:, 1], result.achieved_pattern, rtol=1e-10)
        np.testing.assert_allclose(table[:, 3], result.target_values, rtol=1e-10)
        np.testing.assert_allclose(10 ** (table[:, [2, 4]] / 10), table[:, [1, 3]], rtol=1e-9)

    def test_trace_nonincreasing(self, syn_run):
        _, out, _ = syn_run
        rows = [line.split(",") for line in
                (out / "trace.csv").read_text().strip().splitlines()[1:]]
        costs = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(costs) <= 1e-9 * costs[0])

    def test_deterministic_reruns(self, syn_run, tmp_path):
        config, out, _ = syn_run
        harness.run_synthesize(config, tmp_path)
        for name in ("pattern.csv", "trace.csv", "result.json"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()

    def test_report_metadata(self, syn_run):
        config, out, report = syn_run
        assert report["config_hash"] == config.config_hash()
        assert report["seed"] == config.seed
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk["payload"]["ripple_db"] == report["payload"]["ripple_db"]

    def test_warnings_in_report_only(self, syn_run):
        _, out, report = syn_run
        assert isinstance(report["payload"]["warnings"], list)
        assert "warnings" not in json.loads((out / "result.json").read_text())

    def test_diagnostics_in_report_only(self, syn_run):
        # per-solve counts of the winning start, in report.json only
        _, out, report = syn_run
        diagnostics = report["payload"]["diagnostics"]
        assert isinstance(diagnostics, dict)
        solves = diagnostics["solves"]
        assert len(solves) == 2 * report["payload"]["outer_iterations"]
        assert [s["block"] for s in solves[:2]] == ["precoder", "theta"]
        assert all(s["cost_evals"] > s["iterations"] >= 0 for s in solves)
        assert "diagnostics" not in json.loads((out / "result.json").read_text())
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk["payload"]["diagnostics"] == diagnostics

    def test_capped_solves_reported(self, tmp_path):
        config = ScenarioConfig(optimizer=OptimizerSpec(**CAPPED_OPT), **TINY)
        report = harness.run_synthesize(config, tmp_path)
        warnings = report["payload"]["warnings"]
        assert len(warnings) == 4
        assert warnings[-1] == "round 2 theta solve: max_iterations (4 iterations)"

    def test_capped_outer_loop_reported(self, tmp_path):
        # the same budget with a positive outer_tol: the round cap now cut
        # the alternation short, and only report.json says so
        capped = {**CAPPED_OPT, "outer_tol": 1e-4}
        config = ScenarioConfig(optimizer=OptimizerSpec(**capped), **TINY)
        report = harness.run_synthesize(config, tmp_path / "tol")
        assert report["payload"]["warnings"][-1] == "outer loop: max_iterations (2 rounds)"
        budget = ScenarioConfig(optimizer=OptimizerSpec(**CAPPED_OPT), **TINY)
        harness.run_synthesize(budget, tmp_path / "budget")
        for name in ("pattern.csv", "trace.csv"):
            assert ((tmp_path / "tol" / name).read_bytes()
                    == (tmp_path / "budget" / name).read_bytes())

    def test_ripple_assertion_exit_code(self, tmp_path):
        ok = harness.run_synthesize(_tiny_config(assert_ripple_db=1e9), tmp_path / "a")
        assert ok["exit_code"] == 0
        bad = harness.run_synthesize(_tiny_config(assert_ripple_db=1e-6), tmp_path / "b")
        assert bad["exit_code"] == 1

    def test_batch_mode_emits_stats(self, tmp_path):
        config = _tiny_config(batch_channels=2)
        report = harness.run_synthesize(config, tmp_path)
        assert "pattern_stats.csv" in report["outputs"]
        lines = (tmp_path / "pattern_stats.csv").read_text().strip().splitlines()
        assert len(lines) == config.oversampling * config.ris_elements + 1

    def test_batch_rows_draw_fresh_channels(self, tmp_path, monkeypatch):
        # no row of the batch may redraw the design channel
        config = _tiny_config(batch_channels=2)
        drawn = []
        true_sample = harness.sample_paths

        def recording_sample(cfg, rng):
            drawn.append(true_sample(cfg, rng))
            return drawn[-1]

        monkeypatch.setattr(harness, "sample_paths", recording_sample)
        harness.run_synthesize(config, tmp_path)
        design = true_sample(config.bs_ris_channel(), stream(config.seed, "design-channel"))
        assert len(drawn) == 3
        np.testing.assert_array_equal(drawn[0].gains, design.gains)
        for paths in drawn[1:]:
            assert not np.allclose(paths.gains, design.gains)


class TestStreams:
    def _record(self, monkeypatch):
        """Record (entropy, spawn key) of every stream a run draws: each
        generator seeded outside a synthesis, and each synthesis's starts."""
        drawn, designs, depth = [], [], []
        true_rng, true_synthesize = np.random.default_rng, risbeam.synthesis.synthesize
        signature = inspect.signature(true_synthesize)

        def as_sequence(seed):
            assert seed is not None
            return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)

        def default_rng(seed=None):
            if not depth and not isinstance(seed, np.random.Generator):
                seq = as_sequence(seed)
                drawn.append((seq.entropy, seq.spawn_key))
            return true_rng(seed)

        def synthesize(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seq = as_sequence(bound.arguments["seed"])
            drawn.extend((seq.entropy, seq.spawn_key + (j,))
                         for j in range(bound.arguments["num_starts"]))
            depth.append(1)
            try:
                designs.append(true_synthesize(*args, **kwargs))
            finally:
                depth.pop()
            return designs[-1]

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        monkeypatch.setattr(risbeam.synthesis, "synthesize", synthesize)
        return drawn, designs

    def test_runners_draw_independent_streams(self, tmp_path, monkeypatch):
        config = ScenarioConfig.from_dict({
            **TINY, "batch_channels": 2,
            "optimizer": {"num_starts": 2, "inner_max_iters": 10, "outer_max_iters": 2},
            "ofdma": {"ris_elements": 16, "k_sweep_db": [0.0, 10.0, 20.0],
                      "p_sweep_dbm": [20.0], "realizations": 4},
            "gradcheck": {"instances": 3},
            "beamshift": {"ris_elements": 16},
            # one cell: the cells of one seed share that seed's streams on purpose
            "scaling": {"element_counts": [16], "beamwidths_deg": [40.0], "num_seeds": 2,
                        "paths": 2, "streams": 1, "bs_antennas": 8},
        })
        drawn, designs = self._record(monkeypatch)
        streams, first_design = {}, {}
        for name in ("synthesize", "broadcast_cdf", "ofdma_eval", "gradcheck", "beamshift",
                     "scaling_probe"):
            start, first_design[name] = len(drawn), len(designs)
            getattr(harness, f"run_{name}")(config, tmp_path / name)
            streams[name] = drawn[start:]
        # broadcast-cdf rebuilds the scenario's design from the streams that
        # synthesize drew first, then draws its trials
        design = streams["broadcast_cdf"][:-1]
        assert streams["synthesize"][:len(design)] == design
        np.testing.assert_array_equal(designs[first_design["broadcast_cdf"]].theta,
                                      designs[first_design["synthesize"]].theta)
        every = [key for name, keys in streams.items() if name != "broadcast_cdf"
                 for key in keys]
        every.append(streams["broadcast_cdf"][-1])
        # 1 + 2 design, 2 x (1 + 2) batch, 1 trials, 3 ofdma, 3 gradcheck,
        # 1 + 2 beamshift, 2 x (1 + 2) scaling
        assert len(every) == 25
        assert len(set(every)) == len(every)


def _reference_csv(header, rows) -> bytes:
    """CSV text written value by value: strings as they are, integers
    exactly, everything else through format(x, ".12g")."""
    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return format(float(v), ".12g")
    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestWriteCsv:
    FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1 / 3, 1e300, -2.5e-7,
              np.float64(0.1), 12345678901234.5, np.float32(1.1), 0.0, 2.0 ** 60]
    INTS = [0, -7, 2 ** 53 + 1, -(2 ** 63), 10 ** 30]
    NP_INTS = [np.int64(2 ** 62 + 3), np.int32(-5), np.uint64(2 ** 64 - 1), np.int64(0)]

    def _rows(self, count):
        return [(f"s{i % 3}", self.INTS[i % len(self.INTS)],
                 self.NP_INTS[i % len(self.NP_INTS)], self.FLOATS[i % len(self.FLOATS)],
                 self.FLOATS[(i * 7 + 3) % len(self.FLOATS)]) for i in range(count)]

    # zero rows: the header alone
    @pytest.mark.parametrize("count", [0, 1, harness._CSV_BLOCK - 1, harness._CSV_BLOCK,
                                       harness._CSV_BLOCK + 1, 2 * harness._CSV_BLOCK + 5])
    def test_matches_value_by_value_writer(self, tmp_path, count):
        header = ["name", "py_int", "np_int", "x", "y"]
        formats = ["%s", "%d", "%d", harness._G, harness._G]
        rows = self._rows(count)
        path = tmp_path / "t.csv"
        # a generator: the writer streams, it never needs len(rows)
        harness._write_csv(path, dict(zip(header, formats)), (r for r in rows))
        assert path.read_bytes() == _reference_csv(header, rows)


@pytest.fixture(scope="module")
def cdf_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cdf")
    config = _tiny_config()
    report = harness.run_broadcast_cdf(config, out)
    return config, out, report


class TestRunBroadcastCdf:
    def test_cdf_well_formed(self, cdf_run):
        config, out, _ = cdf_run
        lines = (out / "cdf.csv").read_text().strip().splitlines()
        n = config.users * config.realizations
        assert len(lines) == 3 * n + 1
        by_strategy = {}
        for line in lines[1:]:
            strategy, rate, cdf = line.split(",")
            by_strategy.setdefault(strategy, []).append((float(rate), float(cdf)))
        for strategy, pairs in by_strategy.items():
            rates = [p[0] for p in pairs]
            cdfs = [p[1] for p in pairs]
            assert rates == sorted(rates)
            assert cdfs[-1] == pytest.approx(1.0)

    def test_median_ordering_reported(self, cdf_run):
        _, _, report = cdf_run
        med = report["payload"]["median_rates"]
        assert set(med) == {"proposed", "random_phase", "no_ris"}

    def test_warnings_reported(self, cdf_run):
        _, _, report = cdf_run
        assert isinstance(report["payload"]["warnings"], list)
        # the design's per-solve counts, as synthesize reports them
        solves = report["payload"]["diagnostics"]["solves"]
        assert [s["block"] for s in solves[:2]] == ["precoder", "theta"]
        assert all(s["cost_evals"] > s["iterations"] >= 0 for s in solves)

    def test_feeds_keep_the_design_angles(self, tmp_path, monkeypatch):
        # each realization redraws the feed gains along the design's angles
        config = _tiny_config()
        feeds = []
        precoded = harness.analysis.precoded_channels

        def recording(thetas, w, feed, *args):
            feeds.append(feed)
            return precoded(thetas, w, feed, *args)

        monkeypatch.setattr(harness.analysis, "precoded_channels", recording)
        harness.run_broadcast_cdf(config, tmp_path)
        design = harness.sample_paths(config.bs_ris_channel(),
                                      stream(config.seed, "design-channel"))
        assert len(feeds) == config.realizations
        for feed in feeds:
            np.testing.assert_array_equal(feed.arrival_angles, design.arrival_angles)
            np.testing.assert_array_equal(feed.departure_angles, design.departure_angles)
            assert not np.allclose(feed.gains, design.gains)
        assert not np.allclose(feeds[0].gains, feeds[1].gains)

    def test_zero_trials_clean(self, tmp_path):
        config = _tiny_config(realizations=0)
        report = harness.run_broadcast_cdf(config, tmp_path)
        assert report["exit_code"] == 0
        lines = (tmp_path / "cdf.csv").read_text().strip().splitlines()
        assert len(lines) == 1
        assert report["payload"]["median_rates"]["proposed"] is None

    @pytest.mark.parametrize("users, realizations", [(7, 3), (8, 3)])
    def test_medians_match_numpy_median_of_rows(self, tmp_path, users, realizations):
        # an odd and an even number of rates per strategy
        report = harness.run_broadcast_cdf(
            _tiny_config(users=users, realizations=realizations), tmp_path)
        by_strategy = {}
        for line in (tmp_path / "cdf.csv").read_text().splitlines()[1:]:
            strategy, rate, _ = line.split(",")
            by_strategy.setdefault(strategy, []).append(float(rate))
        medians = report["payload"]["median_rates"]
        assert set(by_strategy) == set(medians)
        for strategy, rates in by_strategy.items():
            assert len(rates) == users * realizations
            # the file holds 12 significant digits of each rate
            assert medians[strategy] == pytest.approx(np.median(rates), rel=1e-11)

    def test_run_leaves_numpy_ma_unimported(self, tmp_path):
        # np.median imports numpy.ma on its first call, about 10 ms and
        # 0.8 MB of peak RSS; the medians come from the sorted rows instead
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY, "optimizer": TINY_OPT}))
        argv = ["broadcast-cdf", "--config", str(cfg), "--out", str(tmp_path / "o")]
        script = ("import sys\nfrom risbeam import cli\n"
                  f"code = cli.main({argv!r})\n"
                  "print('numpy.ma' in sys.modules)\nsys.exit(code)\n")
        src = str(Path(risbeam.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_deterministic(self, cdf_run, tmp_path):
        config, out, _ = cdf_run
        harness.run_broadcast_cdf(config, tmp_path)
        assert (tmp_path / "cdf.csv").read_bytes() == (out / "cdf.csv").read_bytes()

    def test_overhead_scales_rates(self, cdf_run, tmp_path):
        _, out, _ = cdf_run
        harness.run_broadcast_cdf(_tiny_config(overhead_fraction=0.5), tmp_path)
        full = [float(l.split(",")[1]) for l in
                (out / "cdf.csv").read_text().strip().splitlines()[1:]]
        half = [float(l.split(",")[1]) for l in
                (tmp_path / "cdf.csv").read_text().strip().splitlines()[1:]]
        np.testing.assert_allclose(half, np.array(full) * 0.5, rtol=1e-9)


@pytest.mark.parametrize("runner", [harness.run_broadcast_cdf, harness.run_ofdma_eval])
def test_runner_rejects_overhead_before_work(tmp_path, monkeypatch, runner):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesis ran before the overhead check")

    monkeypatch.setattr(harness.synthesis, "synthesize", no_synthesis)
    monkeypatch.setattr(harness.analysis, "idealized_ofdma_channel_gains", no_synthesis)
    out = tmp_path / "o"
    with pytest.raises(ValueError, match=r"scenario\.overhead_fraction: overhead fraction"):
        runner(_tiny_config(overhead_fraction=1.5), out)
    assert not out.exists()


@pytest.fixture(scope="module")
def ofdma_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ofdma")
    config = ScenarioConfig.from_dict({
        "seed": 5, "subcarriers": 16, "cp_length": 2,
        "ofdma": {"ris_elements": 64, "k_sweep_db": [0.0, 10.0],
                  "p_sweep_dbm": [10.0, 20.0, 30.0], "realizations": 200},
    })
    report = harness.run_ofdma_eval(config, out)
    return config, out, report


class TestRunOfdmaEval:
    def test_rows_cover_sweep(self, ofdma_run):
        config, out, _ = ofdma_run
        lines = (out / "rates.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 3
        assert (out / "analytic.txt").exists()

    def test_rate_increases_with_power(self, ofdma_run):
        _, out, _ = ofdma_run
        rows = [l.split(",") for l in (out / "rates.csv").read_text().strip().splitlines()[1:]]
        by_k = {}
        for k_db, p_dbm, mc, *_ in rows:
            by_k.setdefault(k_db, []).append((float(p_dbm), float(mc)))
        for pairs in by_k.values():
            rates = [r for _, r in sorted(pairs)]
            assert rates == sorted(rates)

    def test_single_cell(self, tmp_path):
        config = ScenarioConfig.from_dict({
            "seed": 5, "subcarriers": 16,
            "ofdma": {"ris_elements": 32, "k_sweep_db": [10.0],
                      "p_sweep_dbm": [20.0], "realizations": 50},
        })
        report = harness.run_ofdma_eval(config, tmp_path)
        lines = (tmp_path / "rates.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + one (K, p) cell
        assert report["exit_code"] == 0

    def test_received_power_checked_on_the_drawn_gains(self, tmp_path, monkeypatch):
        drawn = []
        idealized = harness.analysis.idealized_ofdma_channel_gains

        def recording(*args):
            drawn.append(idealized(*args))
            return drawn[-1]

        monkeypatch.setattr(harness.analysis, "idealized_ofdma_channel_gains", recording)
        config = ScenarioConfig.from_dict({
            "seed": 5, "subcarriers": 16, "bs_antennas": 8,
            "ofdma": {"ris_elements": 32, "k_sweep_db": [0.0, 10.0],
                      "p_sweep_dbm": [10.0, -math.inf], "realizations": 50},
        })
        report = harness.run_ofdma_eval(config, tmp_path)
        spec, budget0 = config.ofdma, config.budget()
        closed, errors = [], []
        for k_db, gains in zip(spec.k_sweep_db, drawn, strict=True):
            for p_dbm in spec.p_sweep_dbm:
                budget = dataclasses.replace(budget0, tx_power_w=analysis.dbm_to_watts(p_dbm))
                power = analysis.avg_received_power(spec.coverage_stats(k_db), budget, 8)
                mc = budget.tx_power_w * float(np.mean(gains)) + budget.noise_power_w
                closed.append(power)
                errors.append(abs(power - mc) / mc)
        assert report["payload"]["received_power_rel_err_pct"] == pytest.approx(
            100.0 * max(errors), rel=1e-12)
        # a 0 W sweep point receives the noise alone, in both models
        assert closed[1] == closed[3] == budget0.noise_power_w
        lines = (tmp_path / "analytic.txt").read_text().splitlines()[1:]
        assert len(lines) == len(closed)
        for line, power in zip(lines, closed):
            assert line.endswith(f", received power {power:.6g} W")


class TestRunGradcheck:
    def test_default_instances_pass(self, tmp_path):
        config = ScenarioConfig.from_dict({"seed": 3, "gradcheck": {"instances": 4}})
        report = harness.run_gradcheck(config, tmp_path)
        assert report["exit_code"] == 0
        assert report["payload"]["pass"] is True
        assert report["payload"]["worst"]["phase_fd"] < 1e-5

    def test_corrupted_gradient_fails(self, tmp_path, monkeypatch):
        true_grad = risbeam.synthesis.phase_gradient

        def corrupted(*args, **kwargs):
            g = true_grad(*args, **kwargs)
            return g * (1.0 + 1e-2)

        monkeypatch.setattr("risbeam.validation.phase_gradient", corrupted)
        config = ScenarioConfig.from_dict({"seed": 3, "gradcheck": {"instances": 2}})
        report = harness.run_gradcheck(config, tmp_path)
        assert report["exit_code"] == 1

    @pytest.mark.parametrize("name", ["precoder_gradient", "full_matrix_phase_gradient"])
    def test_corrupted_oracle_fails(self, tmp_path, monkeypatch, name):
        true_grad = getattr(risbeam.validation, name)

        def corrupted(*args, **kwargs):
            return true_grad(*args, **kwargs) * (1.0 + 1e-2)

        monkeypatch.setattr(f"risbeam.validation.{name}", corrupted)
        config = ScenarioConfig.from_dict({"seed": 3, "gradcheck": {"instances": 2}})
        report = harness.run_gradcheck(config, tmp_path)
        assert report["exit_code"] == 1

    def test_nan_errors_fail(self, tmp_path, monkeypatch):
        # every finite difference NaN, as an overflowing step would make it
        true_check = harness.gradient_check

        def nan_differences(*args, **kwargs):
            return {**true_check(*args, **kwargs),
                    **dict.fromkeys(("precoder_fd", "phase_fd", "full_matrix_fd"), math.nan)}

        monkeypatch.setattr(harness, "gradient_check", nan_differences)
        config = ScenarioConfig.from_dict({"gradcheck": {"instances": 3}})
        report = harness.run_gradcheck(config, tmp_path)
        assert report["exit_code"] == 1 and report["payload"]["pass"] is False
        worst = report["payload"]["worst"]
        assert all(math.isnan(worst[key]) for key in ("precoder_fd", "phase_fd",
                                                      "full_matrix_fd"))
        assert (tmp_path / "gradcheck.txt").read_text().endswith(": FAIL\n")

    def test_repeatable_error_values(self, tmp_path):
        config = ScenarioConfig.from_dict({"seed": 9, "gradcheck": {"instances": 3}})
        a = harness.run_gradcheck(config, tmp_path / "a")
        b = harness.run_gradcheck(config, tmp_path / "b")
        assert a["payload"]["worst"] == b["payload"]["worst"]


class TestRunBeamshift:
    def test_default_prediction_within_bin(self, tmp_path):
        config = ScenarioConfig.from_dict({
            "seed": 7,
            "optimizer": {"num_starts": 1, "inner_max_iters": 200,
                          "outer_max_iters": 10},
        })
        report = harness.run_beamshift(config, tmp_path)
        assert report["exit_code"] == 0
        assert max(report["payload"]["errors_deg"]) <= report["payload"]["grid_bin_deg"]

    def test_identity_case(self, tmp_path):
        config = ScenarioConfig.from_dict({
            "seed": 7,
            "optimizer": {"num_starts": 1, "inner_max_iters": 200,
                          "outer_max_iters": 10},
            "beamshift": {"incident_from_deg": 60.0, "incident_to_deg": 60.0},
        })
        report = harness.run_beamshift(config, tmp_path)
        assert report["exit_code"] == 0
        np.testing.assert_allclose(report["payload"]["predicted_region_deg"],
                                   report["payload"]["design_region_deg"], atol=1e-9)

    def test_capped_solves_reported(self, tmp_path):
        config = ScenarioConfig.from_dict({"seed": 7, "optimizer": CAPPED_OPT,
                                           "beamshift": {"ris_elements": 16}})
        report = harness.run_beamshift(config, tmp_path)
        warnings = report["payload"]["warnings"]
        assert len(warnings) == 4
        assert warnings[-1] == "round 2 theta solve: max_iterations (4 iterations)"
        solves = report["payload"]["diagnostics"]["solves"]
        assert [(s["status"], s["iterations"]) for s in solves] == [("max_iterations", 4)] * 4
        text = (tmp_path / "beamshift.txt").read_text()
        assert "warnings" not in text and "diagnostics" not in text


    def test_region_outside_prediction_hypothesis_fails(self, tmp_path, monkeypatch):
        # a design region reaching below 90 degrees admits no prediction
        monkeypatch.setattr(harness, "measure_minus3db_region", lambda angles, p: (1.0, 2.0))
        config = ScenarioConfig.from_dict({"seed": 7, "optimizer": CAPPED_OPT,
                                           "beamshift": {"ris_elements": 16}})
        report = harness.run_beamshift(config, tmp_path)
        assert report["exit_code"] == 1
        assert report["payload"]["predicted_region_deg"] is None

    def test_invalid_incident_angle_fails_before_synthesis(self, tmp_path):
        # the angles are scenario keys, so the config itself rejects them
        with pytest.raises(ValueError, match="^scenario.beamshift.incident_to_deg: incident angle"):
            harness.run_beamshift(ScenarioConfig.from_dict(
                {"beamshift": {"incident_to_deg": 180.0}}), tmp_path / "o")
        assert not (tmp_path / "o").exists()


class TestRunScalingProbe:
    @pytest.mark.parametrize("data", [
        {"seed": 2, "optimizer": {"num_starts": 1, "inner_max_iters": 80, "outer_max_iters": 6},
         "scaling": {"element_counts": [16], "beamwidths_deg": [40.0], "num_seeds": 2,
                     "paths": 2, "streams": 1, "bs_antennas": 8}},
        {"seed": 0, "oversampling": 6, "cp_length": 0,
         "optimizer": {"num_starts": 1, "inner_max_iters": 60, "outer_max_iters": 5},
         "scaling": {"element_counts": [12, 16], "beamwidths_deg": [50.0, 40.0],
                     "center_deg": 110.0, "num_seeds": 2, "paths": 2, "streams": 1,
                     "bs_antennas": 4}},
    ], ids=["one-cell", "four-cells"])
    def test_table_shape(self, tmp_path, data):
        config = ScenarioConfig.from_dict(data)
        spec = config.scaling
        seeds = range(config.seed, config.seed + spec.num_seeds)
        report = harness.run_scaling_probe(config, tmp_path)
        rows = np.genfromtxt(tmp_path / "scaling.csv", delimiter=",", names=True)
        # one row per (elements, beamwidth, seed), in config order
        assert [(r["num_elements"], r["beamwidth_deg"], r["seed"]) for r in rows] == [
            (m, bw, seed) for m in spec.element_counts for bw in spec.beamwidths_deg
            for seed in seeds]
        assert np.all(rows["achieved_flat_mean"] > 0)
        # one mean per cell, sorted, over that cell's own rows
        means = report["payload"]["cell_means"]
        assert [(c["num_elements"], c["beamwidth_deg"]) for c in means] == sorted(
            (m, bw) for m in spec.element_counts for bw in spec.beamwidths_deg)
        for c in means:
            own = rows[(rows["num_elements"] == c["num_elements"])
                       & (rows["beamwidth_deg"] == c["beamwidth_deg"])]
            assert len(own) == len(seeds)
            assert c["mean_achieved"] == pytest.approx(np.mean(own["achieved_flat_mean"]),
                                                       rel=1e-11)

    def test_capped_solves_reported_per_cell(self, tmp_path):
        config = ScenarioConfig.from_dict({
            "seed": 2, "optimizer": CAPPED_OPT,
            "scaling": {"element_counts": [16], "beamwidths_deg": [40.0],
                        "num_seeds": 2, "paths": 2, "streams": 1, "bs_antennas": 8},
        })
        report = harness.run_scaling_probe(config, tmp_path)
        warnings = report["payload"]["warnings"]
        assert len(warnings) == 8  # two seeds, two rounds of two solves each
        assert warnings[3] == ("cell (16 elements, 40 deg, seed 2): "
                               "round 2 theta solve: max_iterations (4 iterations)")
        assert warnings[7].startswith("cell (16 elements, 40 deg, seed 3): round 2 theta")
        # each cell's capped solves in diagnostics are its warning lines
        cells = report["payload"]["diagnostics"]["cells"]
        assert [(c["num_elements"], c["beamwidth_deg"], c["seed"]) for c in cells] == [
            (16, pytest.approx(40.0), 2), (16, pytest.approx(40.0), 3)]
        assert [f"cell ({c['num_elements']} elements, {c['beamwidth_deg']:g} deg, "
                f"seed {c['seed']}): round {s['round']} {s['block']} solve: "
                f"{s['status']} ({s['iterations']} iterations)"
                for c in cells for s in c["solves"] if s["status"] == "max_iterations"
                ] == warnings
        text = (tmp_path / "scaling.csv").read_text()
        assert "warnings" not in text and "diagnostics" not in text


class TestCli:
    def test_synthesize_seed_repeatability(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY, "optimizer": TINY_OPT}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["synthesize", "--config", str(cfg), "--seed", "4",
                         "--out", str(a)]) == 0
        # the summary prints scalars only, so not the diagnostics dict
        summary = capsys.readouterr().out
        assert "final_cost: " in summary and "diagnostics" not in summary
        assert cli.main(["synthesize", "--config", str(cfg), "--seed", "4",
                         "--out", str(b)]) == 0
        for name in ("pattern.csv", "trace.csv", "result.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_assert_ripple_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY, "optimizer": TINY_OPT}))
        code = cli.main(["synthesize", "--config", str(cfg), "--out",
                         str(tmp_path / "o"), "--assert-ripple-db", "1e-9"])
        assert code == 1

    def test_bad_config_reports_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"subcarriers": "lots"}')
        code = cli.main(["synthesize", "--config", str(cfg), "--out",
                         str(tmp_path / "o")])
        assert code == 2
        assert "scenario.subcarriers" in capsys.readouterr().err

    @pytest.mark.parametrize("data, path", [
        ({"coverage_deg": [150, 200]}, "coverage_deg"),
        ({"rolloff_weight": 0.0}, "rolloff_weight"),
        ({"users": -3}, "scenario.users"),
        ({"realizations": -1}, "scenario.realizations"),
        ({"batch_channels": -1}, "scenario.batch_channels"),
        ({"subcarriers": 4, "cp_length": 8}, "scenario.cp_length"),
        ({"subcarriers": 8, "cp_length": 8}, "scenario.cp_length"),
        ({"cp_length": -1}, "scenario.cp_length"),
        ({"ris_user_paths": 1}, "scenario.ris_user_paths"),
        ({"streams": 0}, "scenario.streams"),
        ({"oversampling": 1}, "scenario.oversampling"),
        ({"bs_ris_paths": 0}, "scenario.bs_ris_paths"),
        ({"gradcheck": {"instances": -1}}, "scenario.gradcheck.instances"),
        ({"ris_elements": 0}, "scenario.ris_elements"),
        ({"ofdma": {"nlos_paths": 0}}, "scenario.ofdma.nlos_paths"),
        ({"optimizer": {"num_starts": 0}}, "scenario.optimizer.num_starts"),
        ({"coverage_deg": [100, 100]}, "scenario.coverage_deg"),
        ({"gradcheck": {"ris_elements": 3}}, "scenario.gradcheck.ris_elements"),
        ({"gradcheck": {"bs_antennas": 1}}, "scenario.gradcheck.bs_antennas"),
        ({"gradcheck": {"streams": 0}}, "scenario.gradcheck.streams"),
        ({"gradcheck": {"paths": 0}}, "scenario.gradcheck.paths"),
        ({"gradcheck": {"oversampling": 1}}, "scenario.gradcheck.oversampling"),
        ({"gradcheck": {"fd_step": 0}}, "scenario.gradcheck.fd_step"),
        # a step this long overflows every finite difference
        ({"gradcheck": {"fd_step": 1e200}}, "scenario.gradcheck.fd_step"),
        ({"gradcheck": {"threshold": -1e-4}}, "scenario.gradcheck.threshold"),
        ({"seed": -1}, "scenario.seed"),
        # infinite link-budget inputs; -Infinity dBm (0 W) stays a valid transmit power
        ({"tx_power_dbm": math.inf}, "scenario.tx_power_dbm"),
        ({"noise_power_dbm": math.inf}, "scenario.noise_power_dbm"),
        ({"bs_ris_exponent": math.inf, "ris_position": [0.5, 0.0]},
         "scenario.bs_ris_exponent"),
        ({"direct_exponent": -math.inf}, "scenario.direct_exponent"),
        # finite values whose linear powers or gains overflow
        ({"bs_ris_exponent": -1000}, "scenario.bs_ris_exponent"),
        ({"tx_power_dbm": 1e6}, "scenario.tx_power_dbm"),
        ({"noise_power_dbm": 1e6}, "scenario.noise_power_dbm"),
        ({"ofdma": {"k_sweep_db": [4000]}}, "scenario.ofdma.k_sweep_db"),
        ({"ris_user_k_factor_db": 4000}, "scenario.ris_user_k_factor_db"),
        # a JSON integer that no float holds
        ({"tx_power_dbm": 10 ** 400}, "scenario.tx_power_dbm"),
        # JSON's NaN loads as a float; no float field accepts it
        ({"tx_power_dbm": math.nan}, "scenario.tx_power_dbm"),
        ({"bs_position": [math.nan, 0.0]}, "scenario.bs_position[0]"),
        ({"flat_weight": math.nan}, "scenario.flat_weight"),
        ({"optimizer": {"outer_tol": math.nan}}, "scenario.optimizer.outer_tol"),
        ({"ofdma": {"p_sweep_dbm": [10.0, math.nan]}}, "scenario.ofdma.p_sweep_dbm[1]"),
        # sweep powers fail as tx_power_dbm does; -Infinity dBm (0 W) stays valid
        ({"ofdma": {"p_sweep_dbm": [10.0, 1e6]}}, "scenario.ofdma.p_sweep_dbm"),
        ({"ofdma": {"p_sweep_dbm": [math.inf]}}, "scenario.ofdma.p_sweep_dbm"),
        # departures are drawn in [0, 180] degrees only
        ({"ofdma": {"coverage_deg": [-60, 60]}}, "scenario.ofdma.coverage_deg"),
        ({"ofdma": {"coverage_deg": [150, 190]}}, "scenario.ofdma.coverage_deg"),
        # an integer field rejects NaN and Infinity with its path
        ({"users": math.nan}, "scenario.users"),
        ({"users": math.inf}, "scenario.users"),
        ({"scaling": {"beamwidths_deg": [40, 0]}}, "scenario.scaling.beamwidths_deg"),
        # the 40 degree cell around 165 degrees runs past 180 degrees
        ({"scaling": {"center_deg": 165, "beamwidths_deg": [20, 40]}},
         "scenario.scaling.center_deg"),
        # audits that would check nothing: no Monte Carlo draw, no instance
        ({"ofdma": {"realizations": 0}}, "scenario.ofdma.realizations"),
        ({"gradcheck": {"instances": 0}}, "scenario.gradcheck.instances"),
        ({"scaling": {"num_seeds": 0}}, "scenario.scaling.num_seeds"),
        # empty sweeps: a header-only table that reports nothing
        ({"ofdma": {"k_sweep_db": []}}, "scenario.ofdma.k_sweep_db"),
        ({"ofdma": {"p_sweep_dbm": []}}, "scenario.ofdma.p_sweep_dbm"),
        ({"scaling": {"element_counts": []}}, "scenario.scaling.element_counts"),
        ({"scaling": {"beamwidths_deg": []}}, "scenario.scaling.beamwidths_deg"),
        # flat tops narrower than one bin of a 4-element grid at oversampling 2
        ({"ris_elements": 4, "oversampling": 2, "coverage_deg": [100, 110]},
         "scenario.coverage_deg"),
        ({"oversampling": 2, "beamshift": {"ris_elements": 4, "coverage_deg": [100, 110]}},
         "scenario.beamshift.coverage_deg"),
        ({"oversampling": 2, "scaling": {"element_counts": [4], "beamwidths_deg": [10],
                                         "num_seeds": 1}}, "scenario.scaling.beamwidths_deg"),
    ])
    def test_invalid_field_combination_fails_fast(self, tmp_path, capsys, data, path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        start = time.perf_counter()
        code = cli.main(["synthesize", "--config", str(cfg), "--out",
                         str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err.split(": ")[1]
        assert not (tmp_path / "o").exists()

    # the Armijo constants are manifold.ArmijoParams' defaults, not scenario
    # keys; each value here is the default it had as a key
    @pytest.mark.parametrize("key, value", [("initial_step", 1.0), ("contraction", 0.5),
                                            ("sufficient_decrease", 1e-4),
                                            ("max_halvings", 50)])
    def test_line_search_constants_are_unknown_keys(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {key: value}}))
        for command in COMMANDS:
            start = time.perf_counter()
            code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
            assert time.perf_counter() - start < 1.0
            assert code == 2
            assert capsys.readouterr().err == f"error: scenario.optimizer.{key}: unknown key\n"
            assert not (tmp_path / "o").exists()

    def test_unusable_out_fails_fast(self, tmp_path, capsys):
        # a usage error (exit 2), told apart from a failed audit or bound (exit 1)
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        for out in (blocker, blocker / "sub"):
            for command in COMMANDS:
                start = time.perf_counter()
                code = cli.main([command, "--out", str(out)])
                assert time.perf_counter() - start < 1.0
                assert code == 2
                err = capsys.readouterr().err
                assert err.startswith("error: --out: ") and str(out) in err
        assert blocker.read_text() == "kept\n"

    def test_more_streams_than_antennas_runs(self, tmp_path):
        # a rank-deficient precoder (6 streams on 4 antennas) still defines
        # the average pattern and the log-det rate, so the config is valid
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY, "optimizer": TINY_OPT, "ris_elements": 16,
                                   "bs_antennas": 4, "streams": 6}))
        for command in ("synthesize", "broadcast-cdf"):
            out = tmp_path / command
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        design = json.loads((tmp_path / "synthesize" / "result.json").read_text())
        assert np.shape(design["precoder_real"]) == (4, 6)
        report = json.loads((tmp_path / "broadcast-cdf" / "report.json").read_text())
        assert all(math.isfinite(v) for v in report["payload"]["median_rates"].values())

    def test_negative_seed_flag_fails_fast(self, tmp_path, capsys):
        start = time.perf_counter()
        code = cli.main(["gradcheck", "--seed", "-1", "--out", str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert capsys.readouterr().err.startswith("error: scenario.seed: ")
        assert not (tmp_path / "o").exists()

    # each value as a flag and as the config key it names
    @pytest.mark.parametrize("given", ["flag", "key"])
    @pytest.mark.parametrize("command", ["broadcast-cdf", "ofdma-eval"])
    @pytest.mark.parametrize("fraction", ["1", "1.5", "-0.1", "nan"])
    def test_invalid_overhead_fraction_fails_fast(self, tmp_path, capsys, given, command,
                                                  fraction):
        self._fails_fast(tmp_path, capsys, given, command, "overhead_fraction", fraction)

    @pytest.mark.parametrize("given", ["flag", "key"])
    @pytest.mark.parametrize("bound", ["nan", "-1", "inf"])
    def test_invalid_ripple_bound_fails_fast(self, tmp_path, capsys, given, bound):
        self._fails_fast(tmp_path, capsys, given, "synthesize", "assert_ripple_db", bound)

    @staticmethod
    def _fails_fast(tmp_path, capsys, given, command, key, value):
        cfg = tmp_path / "cfg.json"
        # JSON's NaN and Infinity load as floats
        cfg.write_text(json.dumps({key: float(value)} if given == "key" else {}))
        flags = ["--" + key.replace("_", "-"), value] if given == "flag" else []
        start = time.perf_counter()
        code = cli.main([command, "--config", str(cfg), *flags, "--out",
                         str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: scenario.{key}: ")
        assert not (tmp_path / "o").exists()

    # the angle flags override scenario keys, so they fail under the keys' paths
    @pytest.mark.parametrize("data, flags, field", [
        ({}, ["--from-deg", "0"], "scenario.beamshift.incident_from_deg"),
        ({}, ["--to-deg", "180"], "scenario.beamshift.incident_to_deg"),
        ({}, ["--to-deg", "nan"], "scenario.beamshift.incident_to_deg"),
        ({"beamshift": {"incident_to_deg": 200}}, [], "scenario.beamshift.incident_to_deg"),
        ({"beamshift": {"incident_from_deg": -5}}, [], "scenario.beamshift.incident_from_deg"),
    ])
    def test_invalid_incident_angle_fails_fast(self, tmp_path, capsys, data, flags, field):
        # the shifted-coverage prediction needs both angles inside (0, 180)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        start = time.perf_counter()
        code = cli.main(["beamshift", "--config", str(cfg), *flags, "--out",
                         str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, base, flags, keys, other, files, exit_code", [
        ("beamshift", {"optimizer": CAPPED_OPT, "beamshift": {"ris_elements": 16}},
         ["--from-deg", "50", "--to-deg", "70"],
         {"beamshift": {"ris_elements": 16, "incident_from_deg": 50, "incident_to_deg": 70}},
         ["--from-deg", "60"], ["beamshift.txt"], 0),
        ("broadcast-cdf", {**TINY, "optimizer": CAPPED_OPT}, ["--overhead-fraction", "0.5"],
         {"overhead_fraction": 0.5}, ["--overhead-fraction", "0"], ["cdf.csv"], 0),
        ("ofdma-eval", {"ofdma": {"ris_elements": 32, "k_sweep_db": [10.0],
                                  "p_sweep_dbm": [20.0], "realizations": 20}},
         ["--overhead-fraction", "0.5"], {"overhead_fraction": 0.5},
         ["--overhead-fraction", "0"], ["rates.csv", "analytic.txt"], 0),
        ("synthesize", {**TINY, "optimizer": CAPPED_OPT}, ["--assert-ripple-db", "1e-6"],
         {"assert_ripple_db": 1e-6}, ["--assert-ripple-db", "1e9"],
         ["pattern.csv", "trace.csv", "result.json"], 1),
    ])
    def test_flags_are_scenario_keys(self, tmp_path, command, base, flags, keys, other,
                                     files, exit_code):
        # a flag and the config key it names give one run under one config_hash
        runs = {"flags": (base, flags), "keys": ({**base, **keys}, []), "other": (base, other)}
        codes, reports = {}, {}
        for name, (data, run_flags) in runs.items():
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(data))
            codes[name] = cli.main([command, "--config", str(cfg), *run_flags, "--out",
                                    str(tmp_path / name)])
            report = json.loads((tmp_path / name / "report.json").read_text())
            del report["wall_time_s"]
            reports[name] = report
        assert codes["flags"] == codes["keys"] == exit_code
        assert json.dumps(reports["flags"]) == json.dumps(reports["keys"])
        for file in files:
            assert ((tmp_path / "flags" / file).read_bytes()
                    == (tmp_path / "keys" / file).read_bytes())
        assert reports["other"]["config_hash"] != reports["flags"]["config_hash"]

    @pytest.mark.parametrize("command, flags, csvs", [
        ("synthesize", ["--batch-channels", "1"], {"pattern.csv", "trace.csv",
                                                   "pattern_stats.csv"}),
        ("broadcast-cdf", [], {"cdf.csv"}),
        ("ofdma-eval", [], {"rates.csv"}),
        ("gradcheck", [], {"gradcheck.csv"}),
        ("beamshift", [], set()),
        ("scaling-probe", [], {"scaling.csv"}),
    ])
    def test_csv_rows_end_in_lf(self, tmp_path, command, flags, csvs):
        # read as bytes: text mode would turn CRLF into LF and hide it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            **TINY, "optimizer": TINY_OPT,
            "ofdma": {"ris_elements": 32, "k_sweep_db": [10.0], "p_sweep_dbm": [20.0],
                      "realizations": 20},
            "gradcheck": {"instances": 1},
            "beamshift": {"ris_elements": 16},
            "scaling": {"element_counts": [16], "beamwidths_deg": [40.0], "num_seeds": 1,
                        "paths": 2, "streams": 1, "bs_antennas": 8},
        }))
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(cfg), "--out", str(out), *flags]) in (0, 1)
        outputs = json.loads((out / "report.json").read_text())["outputs"]
        assert {name for name in outputs if name.endswith(".csv")} == csvs
        for name in csvs:
            data = (out / name).read_bytes()
            assert b"\r" not in data and data.endswith(b"\n")

    def test_preset_flows_into_config(self, tmp_path):
        # ofdma-eval ignores users/realizations, so use gradcheck for speed:
        # the report hash must differ between presets (different trial counts)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gradcheck": {"instances": 1}}))
        assert cli.main(["gradcheck", "--config", str(cfg), "--preset", "ci",
                         "--out", str(out_a)]) == 0
        assert cli.main(["gradcheck", "--config", str(cfg), "--preset", "paper",
                         "--out", str(out_b)]) == 0
        ha = json.loads((out_a / "report.json").read_text())["config_hash"]
        hb = json.loads((out_b / "report.json").read_text())["config_hash"]
        assert ha != hb
