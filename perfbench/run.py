"""Benchmark runner for the fermion-noise CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fermi2d --seed 1 --seconds 30 --trace 0

Runs samples of one workload for about ``--seconds`` seconds.  Each sample is
a fresh interpreter (``sample.py``) with BLAS/OpenMP pinned to the CPUs this
process may use; it imports the package from ``src/``, calls the CLI's
``main(argv)`` once per command of the workload and checks every output.
All samples run closed-loop, one at a time.

With ``--trace 0`` the result holds the end-to-end metrics, medians over the
samples.  With ``--trace 1`` untraced and traced samples alternate, and the
result holds the per-layer metrics of the traced samples together with the
tracing overhead: the median, over adjacent untraced/traced pairs, of the
traced ``wall_s`` over the untraced one, minus 1.  The last line of standard
output is one JSON object; the lines before it give every metric with its
unit, the quartiles and sample counts, and a record of the numerical stack.
The exit code is 0 when every sample ran, whatever the checks found.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from tracer import COUNTERS, LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A run must end within 180 s; no sample starts once this much has passed.
HARD_LIMIT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.calls": "count",
                      f"{layer}.errors": "count", f"{layer}.out_bytes": "B"})
    for key in COUNTERS:
        units[key] = "B" if key.endswith("_bytes") else "count"
    units.update({"cli.rows": "count", "setup.interpreter_s": "s", "setup.numpy_s": "s",
                  "setup.package_s": "s", "trace.wall_s": "s", "trace.unattributed_s": "s",
                  "trace.overhead": "1"})
    return units


PER_LAYER = per_layer_units()


def run_sample(workload: str, seed: int, traced: bool, env: Dict[str, str],
               timeout: float) -> dict:
    """Spawn one sample process and return its parsed result."""
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "sample.py"), workload, str(seed),
         "1" if traced else "0", str(spawn_ns)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"sample process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median and third quartile (any sample count)."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def end_to_end(samples: List[dict]) -> Dict[str, List[float]]:
    return {name: quartiles([s[name] for s in samples]) for name in END_TO_END}


def overhead_ratios(plain: List[dict], traced: List[dict]) -> List[float]:
    """Traced over untraced ``wall_s`` of each adjacent pair of samples.

    Samples alternate untraced, traced, so ``plain[i]`` ran just before
    ``traced[i]`` and the machine's drift mostly cancels within a pair.
    """
    return [t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced)]


def per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics: medians of times, counts from the first traced sample."""
    metrics: Dict[str, float] = {}
    for name in traced[0]["layers"]:
        if name.endswith("_s"):
            metrics[name] = statistics.median(s["layers"][name] for s in traced)
        else:
            metrics[name] = traced[0]["layers"][name]
    metrics["cli.rows"] = traced[0]["cli.rows"]
    for name in ("setup.interpreter_s", "setup.numpy_s", "setup.package_s"):
        metrics[name] = statistics.median(s[name] for s in plain + traced)
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.unattributed_s"] = statistics.median(
        s["wall_s"] - sum(v for k, v in s["layers"].items() if k.endswith(".self_s"))
        for s in traced)
    metrics["trace.overhead"] = statistics.median(overhead_ratios(plain, traced)) - 1.0
    return metrics


def counts_repeat(traced: List[dict]) -> bool:
    def counts(sample: dict) -> dict:
        return {k: v for k, v in sample["layers"].items() if not k.endswith("_s")}
    return all(counts(s) == counts(traced[0]) for s in traced)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fermion_noise" / "cli.py").is_file():
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    # Byte-compile once so that no sample pays for it; users rarely do.
    compileall.compile_dir(str(SRC), quiet=1)
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, **{var: str(nproc) for var in THREAD_VARS})

    plain: List[dict] = []
    traced: List[dict] = []
    start = time.monotonic()
    while True:
        tracing = bool(args.trace) and len(traced) < len(plain)
        elapsed = time.monotonic() - start
        try:
            sample = run_sample(args.workload, args.seed, tracing, env,
                                timeout=max(5.0, 170.0 - elapsed))
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        (traced if tracing else plain).append(sample)
        elapsed = time.monotonic() - start
        count = len(plain) + len(traced)
        ready = bool(plain) and (bool(traced) or not args.trace)
        # Start another sample only if it is expected to end within the budget.
        if ready and (elapsed * (count + 1) / count > args.seconds or elapsed > HARD_LIMIT_S):
            break

    samples = plain + traced
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    e2e = end_to_end(plain)
    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in per_layer(plain, traced).items()}
    else:
        metrics = {name: {"value": e2e[name][1], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"samples={len(plain)} traced={len(traced)}")
    for name, unit in END_TO_END.items():
        q1, med, q3 = e2e[name]
        print(f"  {name:<14} {med:12.6g} {unit:<5} q1={q1:.6g} q3={q3:.6g} n={len(plain)}")
    print(f"  {'fail_ratio':<14} {failed / attempted:12.6g} 1     ({failed} of {attempted} checks)")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<34} {metric['value']:14.6g} {metric['unit']}")
        pairs = [ratio - 1.0 for ratio in overhead_ratios(plain, traced)]
        print(f"  trace.overhead per pair: {', '.join(f'{x:+.3f}' for x in pairs)} "
              f"(n={len(pairs)}; the machine's drift hides less than about 10%)")
        if not counts_repeat(traced):
            print("  warning: layer counts differ between traced samples")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": len(plain), "traced_samples": len(traced),
        "end_to_end": {name: {"q1": q[0], "median": q[1], "q3": q[2], "n": len(plain),
                              "unit": END_TO_END[name], "values": [s[name] for s in plain]}
                       for name, q in e2e.items()},
        "fail_ratio": failed / attempted,
        "trace_overhead_pairs": ([r - 1.0 for r in overhead_ratios(plain, traced)]
                                 if args.trace else None),
        "env": dict(samples[0]["env"], nproc=nproc,
                    pinned_threads={var: env[var] for var in THREAD_VARS}),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
