"""Benchmark of the kimura package: four workloads checked against exact laws.

Usage, from the root of the repository::

    python3 bench/run.py --workload product_hitting --seed 3 --seconds 25 --trace 0

The workload runs in a fresh single-threaded child process (BLAS and OpenMP
threads set to 1), which imports the package from ``src/``.  With
``--trace 0`` the child times its operations untraced and four more fresh
children only set up, so ``setup_s`` is a median of five.  With
``--trace 1`` the child alternates untraced and traced operations and
reports per-layer figures.  One child is alive at a time.  The last line of
standard output is the result as JSON; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import METRICS as LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("wf3_absorb", "crossfed_corner", "product_hitting", "pde_solves")
SETUP_REPEATS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
WORKER_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 30.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args, out: Path, setup_only: bool, timeout: float) -> dict:
    """Run one child to its end and return its JSON line."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], env=_child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=timeout, check=False,
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed ≥ 0 and --seconds > 0")
    if not (ROOT / "src" / "kimura" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'kimura'}", file=sys.stderr)
        return 2

    out = ROOT / ".bench_out"
    try:
        main_run = _worker(args, out, setup_only=False, timeout=WORKER_TIMEOUT_S)
        setups = [main_run["setup_s"]]
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                again = _worker(args, out, setup_only=True, timeout=SETUP_TIMEOUT_S)
                setups.append(again["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = main_run["attempted"], main_run["failed"]
    walls = main_run["wall_s"]
    if not walls:
        print("no operation completed", file=sys.stderr)
        return 1
    wall = statistics.median(walls)
    print(
        f"{args.workload} seed={args.seed}: {attempted} operations attempted, {failed} failed; "
        f"untraced wall_s per operation {[round(w, 3) for w in walls]}"
    )
    if args.trace:
        warm = statistics.median(walls[1:] or walls)
        traced = statistics.median(main_run["traced_wall_s"] or [warm])
        metrics = dict(main_run["layers"])
        metrics["trace.overhead_s"] = traced - warm
        metrics["trace.overhead_pct"] = 100.0 * (traced - warm) / warm
        if main_run["absent"]:
            print(f"absent trace targets: {', '.join(main_run['absent'])}")
        units = LAYER_UNITS
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
