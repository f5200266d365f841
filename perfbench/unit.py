"""One benchmark unit: a single `risbeam` CLI run in a fresh interpreter.

    python3 perfbench/unit.py --result R.json [--setup-only] [--trace] -- <cli args>

Set-up time runs from just before `import risbeam.cli` to the moment the CLI
hands over to its `harness.run_*` runner: importing `risbeam.cli`, parsing
the arguments and loading the config. `--setup-only` stops there. Otherwise
the unit times `cli.main(argv)` and records the process's peak RSS. With
`--trace` the layers are wrapped by `tracer.Tracer` and the spans and
solver counts go into the result file; set-up time is not recorded then.
"""

import argparse
import ctypes
import json
import resource
import sys
import time

from tracer import Tracer, replace_everywhere


class SetupDone(BaseException):
    """Raised at the runner boundary to end a set-up-only unit; derives from
    BaseException so the CLI's error handling does not swallow it."""


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    import risbeam.cli
    from risbeam import harness

    result: dict = {}
    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        def at_runner(fn):
            def runner(*a, **kw):
                result["setup_s"] = time.perf_counter() - t0
                if args.setup_only:
                    raise SetupDone
                return fn(*a, **kw)
            return runner

        for name in [a for a in vars(harness) if a.startswith("run_")]:
            fn = getattr(harness, name)
            replace_everywhere(fn, at_runner(fn))

    t = time.perf_counter()
    try:
        result["exit_code"] = risbeam.cli.main(argv)
    except SetupDone:
        result["exit_code"] = 0
    result["wall_s"] = time.perf_counter() - t
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads"] = blas_threads()
    if args.trace:
        result["trace"] = tracer.dump()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
