"""Every function defined in src/risbeam runs in some subcommand, so library
code that only the tests call cannot come back unnoticed."""

import ast
import json
import sys
from pathlib import Path

import risbeam
from risbeam import cli

SRC = Path(risbeam.__file__).resolve().parent

# Reached from tests only, until `ofdma-eval` reports the received-power
# closed form (ROADMAP item 6) and the dense channel oracles move to tests/
# (item 7). Drop a name once a run reaches it.
ALLOWED = {"analysis.avg_received_power", "analysis.idealized_received_power_mc",
           "analysis.equivalent_channel", "channel.assemble_channel"}

M = 8
TINY = {"ris_elements": M, "oversampling": 4, "bs_antennas": 2, "ue_antennas": 1, "streams": 1,
        "subcarriers": 8, "cp_length": 1, "users": 2, "realizations": 1, "batch_channels": 1,
        "optimizer": {"num_starts": 1, "inner_max_iters": 5, "outer_max_iters": 2},
        "ofdma": {"ris_elements": M, "k_sweep_db": [0.0], "p_sweep_dbm": [20.0],
                  "realizations": 1},
        "gradcheck": {"instances": 1}, "beamshift": {"ris_elements": M},
        "scaling": {"element_counts": [M], "beamwidths_deg": [40.0], "num_seeds": 1,
                    "paths": 2, "streams": 1, "bs_antennas": 2}}
# every runner; every flag overrides a scenario key, so one flag covers that path
RUNS = (["synthesize", "--seed", "3", "--assert-ripple-db", "10"], ["broadcast-cdf"],
        ["ofdma-eval"], ["gradcheck"], ["beamshift"], ["scaling-probe"])


def _defs() -> dict:
    """Dotted name of every def (function, method, property, nested function)
    under src/risbeam, keyed by its code object's (file, first line)."""
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = name
            visit(child, path, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem)
    return found


def test_every_function_is_reached(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # a cache that an earlier test filled would answer without a call
    for name, module in list(sys.modules.items()):
        if name.startswith("risbeam."):
            for obj in vars(module).values():
                getattr(obj, "cache_clear", lambda: None)()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main([*run, "--config", str(cfg), "--out", str(tmp_path / run[0])])
                 for run in RUNS]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(RUNS)
    called = {(str(Path(file).resolve()), line) for file, line in called}
    unreached = {name for key, name in _defs().items() if key not in called}
    assert sorted(unreached - ALLOWED) == [], "defined in src/risbeam but never called"
    assert sorted(ALLOWED - unreached) == [], "reached or gone: drop from ALLOWED"
