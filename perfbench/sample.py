"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/sample.py WORKLOAD SEED TRACE SPAWN_NS``, where
``SPAWN_NS`` is the parent's ``time.monotonic_ns()`` just before it spawned
this process (the clock is system-wide on Linux).  The sample imports the
package from ``src/``, calls ``fermion_noise.cli.main(argv)`` once per
command of the workload, checks every output, and prints one JSON line.

Only modules the interpreter has loaded at start-up are imported before the
set-up marks, so that ``setup_s`` covers the interpreter, numpy, scipy and
the package and nothing of the benchmark's own.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def environment(numpy) -> dict:
    """Versions and BLAS build of the numerical stack this sample ran on."""
    from importlib import metadata
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy_version, "blas": blas}


def main(argv):
    workload, seed, trace, spawn_ns = argv[0], int(argv[1]), argv[2] == "1", int(argv[3])
    sys.path.insert(0, SRC)
    before_numpy = time.monotonic_ns()
    import numpy
    after_numpy = time.monotonic_ns()
    import fermion_noise.cli as cli
    after_package = time.monotonic_ns()

    import csv
    import json
    import resource
    import traceback
    from pathlib import Path

    scratch = Path(ROOT) / ".perfbench"
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"fermion_noise imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 1

    sys.path.insert(0, HERE)
    from tracer import Tracer
    from workloads import commands, parse_rows

    tracer = Tracer().install() if trace else None
    checks, rows, wall_ns = [], 0, 0
    for i, (args, check) in enumerate(commands(workload, seed)):
        out = scratch / f"out-{os.getpid()}-{i}"
        start = time.perf_counter_ns()
        try:
            code = cli.main(args + ["--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        wall_ns += time.perf_counter_ns() - start
        text = out.read_text(encoding="utf-8") if code == 0 and out.exists() else None
        out.unlink(missing_ok=True)
        try:
            checks += check(text)
            rows += len(parse_rows(text)) if text is not None else 0
        except (ValueError, KeyError, TypeError, csv.Error):
            traceback.print_exc()
            checks += check(None)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_s": (after_package - spawn_ns) / 1e9,
        "setup.interpreter_s": (before_numpy - spawn_ns) / 1e9,
        "setup.numpy_s": (after_numpy - before_numpy) / 1e9,
        "setup.package_s": (after_package - after_numpy) / 1e9,
        "wall_s": wall_ns / 1e9,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": len(checks),
        "failed": checks.count(False),
        "cli.rows": rows,
        "env": environment(numpy),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(str(scratch / f"spans-{workload}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
