"""Fold the perfbench records of a parent/change pair series into one
committed BENCH_<n>.json.

    python3 tools/bench_record.py --parent PARENT/.perfbench/results \
        --change .perfbench/results --out BENCH_1.json

Each directory holds the `<workload>-seed<n>-trace<t>.json` records that
`perfbench/run.py` writes. A record of one side pairs with the record of
the other side that has the same workload, seed and trace flag; records
without a partner are left out. For every workload and trace flag the
output lists, per metric, each side's median and quartiles over the pairs,
the pairs in which the change is better, equal or worse (the direction is
the metric's `better` in BENCHMARK.json), and the median shift against the
parent's interquartile range. It also records the git SHA and source
digest of each side and the machine the pairs ran on.

Exit 0 when the output was written; 1 when a paired record failed its
checks, the two sides ran on different machines or builds, or one side ran
from a git checkout and the other from an exported tree; 2 on a usage
error or when nothing pairs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a pair measures the code only when these agree across both sides
MACHINE_KEYS = ("nproc", "python", "numpy", "blas_name", "blas_version", "blas_threads")


def load_records(directory: Path) -> dict[tuple[str, int, int], dict]:
    records = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        rec = json.loads(path.read_text())
        records[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return records


def directions() -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def fold_metric(parent: list[float], change: list[float], better: str | None) -> dict:
    out = {"better": better, "parent": summary(parent), "change": summary(change)}
    if better is not None:
        sign = 1.0 if better == "lower" else -1.0
        diffs = [sign * (p - c) for p, c in zip(parent, change)]  # > 0: change better
        out["change_better"] = sum(d > 0 for d in diffs)
        out["equal"] = sum(d == 0 for d in diffs)
        out["change_worse"] = sum(d < 0 for d in diffs)
    shift = out["change"]["median"] - out["parent"]["median"]
    iqr = out["parent"]["q3"] - out["parent"]["q1"]
    out["median_shift"] = shift
    out["median_shift_pct"] = (100.0 * shift / out["parent"]["median"]
                               if out["parent"]["median"] else None)
    out["shift_exceeds_parent_iqr"] = abs(shift) > iqr
    return out


def side_identity(records: list[dict]) -> dict:
    envs = [r["environment"] for r in records]
    return {"git_sha": sorted({e["git_sha"] for e in envs}, key=str),
            "source_sha256": sorted({e["source_sha256"] for e in envs})}


def fold(parent: dict, change: dict) -> tuple[dict, list[str]]:
    """The BENCH document and the problems that make it unusable."""
    keys = sorted(parent.keys() & change.keys())
    problems = [f"{side} {k[0]} seed {k[1]} trace {k[2]}: not correct"
                for side, recs in (("parent", parent), ("change", change))
                for k in keys if recs[k]["correct"] is not True]
    machine = {}
    for rec in [parent[k] for k in keys] + [change[k] for k in keys]:
        for key in MACHINE_KEYS:
            machine.setdefault(key, set()).add(json.dumps(rec["environment"].get(key)))
    problems += [f"the records disagree on {key}: {', '.join(sorted(vals))}"
                 for key, vals in machine.items() if len(vals) > 1]
    # a checkout reads about 0.09 MB more peak RSS than an exported copy
    trees = {side: sorted({"export" if recs[k]["environment"]["git_sha"] is None
                           else "checkout" for k in keys})
             for side, recs in (("parent", parent), ("change", change))}
    if len(set(trees["parent"] + trees["change"])) > 1:
        problems.append("the records ran from different kinds of tree (checkout: git_sha "
                        f"set, export: git_sha null): parent {', '.join(trees['parent'])}, "
                        f"change {', '.join(trees['change'])}")
    better = directions()
    groups: dict[tuple[str, int], list[tuple[str, int, int]]] = {}
    for k in keys:
        groups.setdefault((k[0], k[2]), []).append(k)
    workloads = []
    for (workload, trace), group in sorted(groups.items()):
        names = sorted(set(parent[group[0]]["metrics"]) & set(change[group[0]]["metrics"]))
        workloads.append({
            "workload": workload,
            "trace": trace,
            "pairs": len(group),
            "seeds": [k[1] for k in group],
            "failed_units": {"parent": sum(parent[k]["failed"] for k in group),
                             "change": sum(change[k]["failed"] for k in group)},
            "metrics": {name: {"unit": parent[group[0]]["metrics"][name]["unit"],
                               **fold_metric([parent[k]["metrics"][name]["value"] for k in group],
                                             [change[k]["metrics"][name]["value"] for k in group],
                                             better.get(name))}
                        for name in names},
        })
    doc = {
        "parent": side_identity([parent[k] for k in keys]),
        "change": side_identity([change[k] for k in keys]),
        "machine": {key: json.loads(next(iter(vals))) for key, vals in machine.items()},
        "workloads": workloads,
    }
    return doc, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="results directory of the parent's runs")
    parser.add_argument("--change", type=Path, required=True,
                        help="results directory of the change's runs")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    for d in (args.parent, args.change):
        if not d.is_dir():
            print(f"error: {d}: not a directory", file=sys.stderr)
            return 2
    parent, change = load_records(args.parent), load_records(args.change)
    if not parent.keys() & change.keys():
        print("error: no record pairs (same workload, seed and trace on both sides)",
              file=sys.stderr)
        return 2
    doc, problems = fold(parent, change)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        return 1
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for wl in doc["workloads"]:
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            m = wl["metrics"].get(name)
            if m:
                print(f"{wl['workload']} trace {wl['trace']} {name}: "
                      f"{m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
                      f"({m['median_shift_pct']:+.1f} %), change better in "
                      f"{m['change_better']}/{wl['pairs']} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
