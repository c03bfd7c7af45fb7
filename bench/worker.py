"""One workload in one fresh process: set up, run operations, check them.

Started by ``run.py``, never by hand.  The last line of standard output is a
JSON object with this process's figures.  ``--t0`` is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide), so ``setup_s`` covers interpreter start, the imports of
``kimura``, numpy and scipy, and the building of the inputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _run_ops(wl, inp, ref, seconds: float, tracer):
    """Repeat the operation until the next one would end past the deadline.

    Without a tracer every operation is timed untraced.  With one, the first
    operation runs untraced (it also pays for first-touch memory), then
    traced and untraced operations alternate, three at least, so the traced
    run measures its own overhead against the untraced ones after the first.
    """
    untraced, traced, failures = [], [], []
    attempted, failed, first_digest = 0, 0, None
    min_ops = 3 if tracer is not None else 1
    deadline = time.perf_counter() + seconds
    while True:
        use_trace = tracer is not None and attempted % 2 == 1
        wall, bad = None, []
        try:  # an operation that raises, or whose checks raise, has failed
            try:
                if use_trace:
                    tracer.install()
                start = time.perf_counter()
                out = wl.run(inp)
                wall = time.perf_counter() - start
            finally:
                if use_trace:
                    tracer.uninstall()
            bad = wl.check(inp, ref, out)
            digest = wl.digest(inp, out)
            first_digest = first_digest or digest
            if digest != first_digest:
                bad.append("estimates differ from the first repeat of this operation")
        except Exception:
            bad.append(traceback.format_exc(limit=3))
        attempted += 1
        if bad:
            failed += 1
            failures.extend(bad)
        if wall is not None:
            (traced if use_trace else untraced).append(wall)
        typical = statistics.median(untraced + traced) if untraced + traced else 0.0
        if attempted >= min_ops and time.perf_counter() + typical > deadline:
            break
    return untraced, traced, attempted, failed, failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads  # imports kimura, numpy and scipy

    wl = workloads.WORKLOADS[args.workload]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    inp = wl.setup(args.seed, out_dir)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ref = wl.reference(inp)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    untraced, traced, attempted, failed, failures = _run_ops(wl, inp, ref, args.seconds, tracer)
    for line in failures[:20]:
        print(f"failed check: {line}", file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "wall_s": untraced,
        "traced_wall_s": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from spans import layer_metrics

        result["layers"] = layer_metrics(tracer.spans, len(traced), tracer.bytes_written)
        result["absent"] = tracer.absent
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
