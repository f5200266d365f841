"""Property tests of the command line over tiny scenarios: every valid one
runs each subcommand to exit 0 or 1 with a well-formed report.json and
reruns byte for byte; one field out of range fails at load with its dotted
path."""

import contextlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam import cli

COMMANDS = ("synthesize", "broadcast-cdf", "ofdma-eval", "gradcheck", "beamshift",
            "scaling-probe")
REPORT_KEYS = {"command", "seed", "config_hash", "outputs", "payload", "exit_code",
               "wall_time_s"}


@st.composite
def tiny_configs(draw):
    """A valid scenario with surfaces of at most 8 elements, grids of at most
    80 angles, at most 2 realizations and a few solver iterations."""
    m = draw(st.integers(4, 8))
    return {
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
        "ris_elements": m,
        "oversampling": draw(st.integers(2, 80 // m)),
        "bs_antennas": draw(st.integers(1, 4)),
        "ue_antennas": draw(st.integers(1, 2)),
        "streams": draw(st.integers(1, 2)),
        "subcarriers": 8,
        "cp_length": draw(st.integers(0, 2)),
        "users": draw(st.integers(0, 4)),
        "realizations": draw(st.integers(0, 2)),
        "batch_channels": draw(st.integers(0, 2)),
        "optimizer": {"num_starts": draw(st.integers(1, 2)), "inner_max_iters": 5,
                      "outer_max_iters": 2},
        "ofdma": {"ris_elements": m, "k_sweep_db": [draw(st.sampled_from([-10.0, 0.0, 10.0]))],
                  "p_sweep_dbm": [20.0], "realizations": draw(st.integers(1, 2))},
        "gradcheck": {"instances": draw(st.integers(1, 2))},
        "beamshift": {"ris_elements": m},
        "scaling": {"element_counts": [m], "beamwidths_deg": [40.0], "num_seeds": 1,
                    "paths": 2, "streams": 1, "bs_antennas": 2},
    }


def _run(args: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, err.getvalue()


@settings(max_examples=10, deadline=None)
@given(tiny_configs())
def test_every_command_runs_and_reruns_byte_identically(data):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(data))
        for command in COMMANDS:
            runs = []
            for rerun in ("a", "b"):
                out = Path(tmp) / command / rerun
                code, _ = _run([command, "--config", str(cfg), "--out", str(out)])
                assert code in (0, 1), command
                report = json.loads((out / "report.json").read_text())
                assert set(report) == REPORT_KEYS
                assert report["command"] == command and report["exit_code"] == code
                assert sorted(p.name for p in out.iterdir()) == sorted(
                    report["outputs"] + ["report.json"])
                runs.append({name: (out / name).read_bytes() for name in report["outputs"]})
            assert runs[0] == runs[1], command


# Each field with values outside its valid range (the tiny scenarios have 8
# subcarriers, so a cyclic prefix of 8 or more is out of range).
OUT_OF_RANGE = {
    "seed": st.integers(max_value=-1),
    "ris_elements": st.integers(max_value=0),
    "streams": st.integers(max_value=0),
    "users": st.integers(max_value=-1),
    "realizations": st.integers(max_value=-1),
    "batch_channels": st.integers(max_value=-1),
    "oversampling": st.integers(max_value=1),
    "cp_length": st.one_of(st.integers(max_value=-1), st.integers(min_value=8)),
    "optimizer.num_starts": st.integers(max_value=0),
    "ofdma.realizations": st.integers(max_value=0),
    "gradcheck.instances": st.integers(max_value=0),
    "gradcheck.fd_step": st.floats(max_value=0.0),
    "scaling.num_seeds": st.integers(max_value=0),
    "beamshift.incident_from_deg": st.one_of(st.floats(max_value=0.0),
                                             st.floats(min_value=180.0), st.just(math.nan)),
    "beamshift.incident_to_deg": st.one_of(st.floats(max_value=0.0),
                                           st.floats(min_value=180.0), st.just(math.nan)),
    # JSON's NaN loads as a float; no float field accepts it
    "tx_power_dbm": st.sampled_from([math.nan, math.inf]),
    # an infinite link budget has no meaning (-Infinity dBm, 0 W, is a valid power)
    "noise_power_dbm": st.sampled_from([math.inf, -math.inf]),
    "bs_ris_exponent": st.sampled_from([math.inf, -math.inf]),
    "ris_user_exponent": st.sampled_from([math.inf, -math.inf]),
    "direct_exponent": st.sampled_from([math.inf, -math.inf]),
    "bs_position": st.just([math.nan, 0.0]),
    "flat_weight": st.just(math.nan),
    "optimizer.initial_step": st.sampled_from([math.nan, math.inf]),
    "ofdma.p_sweep_dbm": st.just([10.0, math.nan]),
}


@settings(max_examples=40, deadline=None)
@given(tiny_configs(), st.sampled_from(sorted(OUT_OF_RANGE)).flatmap(
    lambda field: st.tuples(st.just(field), OUT_OF_RANGE[field])))
def test_one_field_out_of_range_fails_fast(data, bad):
    field, value = bad
    *parents, key = field.split(".")
    node = data
    for name in parents:
        node = node[name]
    node[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = Path(tmp) / "out"
        for command in COMMANDS:
            start = time.perf_counter()
            code, err = _run([command, "--config", str(cfg), "--out", str(out)])
            assert time.perf_counter() - start < 1.0
            assert code == 2
            assert err.startswith("error: ") and f"scenario.{field}" in err.split(": ")[1]
            assert not out.exists()
