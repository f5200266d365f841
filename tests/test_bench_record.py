"""tools/bench_record.py folds perfbench records of a parent/change pair
series; these tests fold synthetic records written to a temporary directory."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

ENV = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "blas_name": "scipy-openblas",
       "blas_version": "0.3.29", "blas_threads": 1, "git_sha": None,
       "source_sha256": "0" * 64, "seed": 1}


def _record(workload, seed, trace, wall, correct=True, **env):
    return {"workload": workload, "seed": seed, "trace": trace, "correct": correct,
            "failed": 0, "environment": {**ENV, **env},
            "metrics": {"wall_s": {"unit": "s", "value": wall},
                        "peak_rss_mb": {"unit": "MB", "value": 40.0}}}


def _write(directory: Path, records) -> Path:
    directory.mkdir()
    for rec in records:
        name = f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json"
        (directory / name).write_text(json.dumps(rec))
    # a traced run's span file sits next to its record and is not one
    (directory / "a-seed1-trace1.spans.json").write_text("[]")
    return directory


def _fold(tmp_path, parent, change):
    out = tmp_path / "BENCH.json"
    code = bench_record.main(["--parent", str(_write(tmp_path / "parent", parent)),
                              "--change", str(_write(tmp_path / "change", change)),
                              "--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_pairs_by_workload_seed_and_trace(tmp_path):
    parent = [_record("a", 1, 0, 0.30), _record("a", 2, 0, 0.20), _record("a", 1, 1, 0.5),
              _record("b", 1, 0, 0.1)]
    change = [_record("a", 1, 0, 0.25), _record("a", 2, 0, 0.22), _record("a", 1, 1, 0.4),
              _record("a", 3, 0, 0.1)]
    code, doc = _fold(tmp_path, parent, change)
    assert code == 0
    # b and seed 3 have no partner and are left out
    assert [(w["workload"], w["trace"], w["seeds"]) for w in doc["workloads"]] == [
        ("a", 0, [1, 2]), ("a", 1, [1])]
    wall = doc["workloads"][0]["metrics"]["wall_s"]
    assert wall["parent"]["values"] == [0.30, 0.20]
    assert wall["change"]["values"] == [0.25, 0.22]
    assert (wall["change_better"], wall["equal"], wall["change_worse"]) == (1, 0, 1)
    assert doc["workloads"][0]["metrics"]["peak_rss_mb"]["equal"] == 2
    assert doc["machine"]["numpy"] == ENV["numpy"]


def test_no_pair_is_a_usage_error(tmp_path):
    code, doc = _fold(tmp_path, [_record("a", 1, 0, 0.3)], [_record("a", 2, 0, 0.3)])
    assert (code, doc) == (2, None)


@pytest.mark.parametrize("parent_env, change_env, message", [
    ({}, {"numpy": "2.3.0"}, "disagree on numpy"),
    ({}, {"git_sha": "0f9ee44"}, "different kinds of tree"),
    ({"git_sha": "0f9ee44"}, {}, "different kinds of tree"),
])
def test_sides_that_measure_more_than_the_code(tmp_path, capsys, parent_env, change_env,
                                               message):
    code, doc = _fold(tmp_path, [_record("a", 1, 0, 0.3, **parent_env)],
                      [_record("a", 1, 0, 0.3, **change_env)])
    assert (code, doc) == (1, None)
    assert message in capsys.readouterr().err


def test_both_sides_from_checkouts_fold(tmp_path):
    code, doc = _fold(tmp_path, [_record("a", 1, 0, 0.3, git_sha="0f9ee44")],
                      [_record("a", 1, 0, 0.3, git_sha="1a2b3c4")])
    assert code == 0
    assert (doc["parent"]["git_sha"], doc["change"]["git_sha"]) == (["0f9ee44"], ["1a2b3c4"])


def test_record_that_is_not_correct(tmp_path, capsys):
    code, doc = _fold(tmp_path, [_record("a", 1, 0, 0.3)],
                      [_record("a", 1, 0, 0.3, correct=False)])
    assert (code, doc) == (1, None)
    assert "change a seed 1 trace 0: not correct" in capsys.readouterr().err
