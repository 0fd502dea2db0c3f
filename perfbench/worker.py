"""One workload in one process: set up, run operations, check their outputs.

Started by run.py, never by hand.  Modes:
- setup:   set up and report when it finished (for the setup_s median);
- measure: set up, run operations for --seconds untraced, then check them;
- trace:   for --seconds, run each operation untraced and traced, in
           alternating order, the traced one on a second set-up made under
           the tracer.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tapglass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if Path(tapglass.__file__).resolve().parent != ROOT / "src" / "tapglass":
    sys.exit(f"tapglass was imported from {tapglass.__file__}, not from this checkout")

MAX_REPORTED_ERRORS = 5


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
    }


def timed(fn, *args):
    """(latency, output, error) of one operation; output None if it raised."""
    start = time.perf_counter()
    try:
        out, err = fn(*args), None
    except Exception as exc:  # noqa: BLE001  (a failed operation is counted, not fatal)
        out, err = None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, err


def check_all(wl, state, outputs, errors):
    """Fill in the output-check problem of every operation that ran."""
    for i, out in enumerate(outputs):
        if errors[i] is None:
            errors[i] = wl.check(state, i, out)


def key(wl, out):
    return None if out is None else wl.digest(out)


def run_for(seconds, step):
    """Call step(i) for i = 0, 1, ... until `seconds` have passed (at least once)."""
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        results.append(step(len(results)))
    return results


def measure(wl, state, seconds, report):
    start = time.perf_counter()
    runs = run_for(seconds, lambda i: timed(wl.op, state, i))
    elapsed = time.perf_counter() - start
    latencies, outputs, errors = (list(col) for col in zip(*runs))
    check_all(wl, state, outputs, errors)
    # Determinism: the first operation again, outside the timed loop.
    _, again, err = timed(wl.op, state, 0)
    if errors[0] is None and (err or key(wl, again) != key(wl, outputs[0])):
        errors[0] = "gave a different result when run again"
    report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return latencies, errors, elapsed


def trace(wl, state, setup_wall, args, report):
    """Each operation runs untraced and traced, in alternating order, the
    traced one on a second set-up made under the tracer, so machine noise
    slower than one operation falls on both passes alike."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    traced_setup, traced_state, err = timed(tracer.root, "setup", wl.setup, args.seed)
    tracer.uninstall()
    if err:
        sys.exit(f"traced set-up {err}")

    def traced_op(i):
        tracer.install()
        try:
            return timed(tracer.root, i, wl.op, traced_state, i)
        finally:
            tracer.uninstall()

    def pair(i):
        if i % 2:
            traced = traced_op(i)
            return timed(wl.op, state, i), traced
        return timed(wl.op, state, i), traced_op(i)

    pairs = run_for(args.seconds, pair)
    latencies, outputs, errors = (list(col) for col in zip(*(p for p, _ in pairs)))
    traced_latencies, traced_outputs, traced_errors = (
        list(col) for col in zip(*(t for _, t in pairs)))
    check_all(wl, state, outputs, errors)
    check_all(wl, traced_state, traced_outputs, traced_errors)
    for i, out in enumerate(traced_outputs):
        errors[i] = errors[i] or traced_errors[i]
        if errors[i] is None and key(wl, out) != key(wl, outputs[i]):
            errors[i] = "gave a different result traced and untraced"

    elapsed = sum(latencies)
    untraced_wall = setup_wall + elapsed
    per_layer = tracer.metrics(len(pairs))
    per_layer["failed_frac"] = {
        "value": sum(e is not None for e in errors) / len(errors), "unit": "fraction"}
    per_layer["trace.overhead_s"] = {
        "value": traced_setup + sum(traced_latencies) - untraced_wall, "unit": "s"}
    per_layer["trace.wall_s"] = {"value": untraced_wall, "unit": "s"}
    per_layer["trace.ops"] = {"value": len(pairs), "unit": "count"}
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path, report["fingerprint"])
    report["per_layer"] = per_layer
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    return latencies, errors, elapsed


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    args = parser.parse_args()

    wl = WORKLOADS[args.workload]
    setup_start = time.perf_counter()
    state = wl.setup(args.seed)
    setup_wall = time.perf_counter() - setup_start
    report = {"ready": time.monotonic(), "fingerprint": fingerprint()}
    if args.mode == "setup":
        print(json.dumps(report))
        return
    if args.mode == "measure":
        latencies, errors, elapsed = measure(wl, state, args.seconds, report)
    else:
        latencies, errors, elapsed = trace(wl, state, setup_wall, args, report)
    report.update(
        attempted=len(errors),
        failed=sum(e is not None for e in errors),
        errors=[f"op {i}: {e}" for i, e in enumerate(errors) if e is not None][:MAX_REPORTED_ERRORS],
        latencies=[lat for lat, e in zip(latencies, errors) if e is None],
        elapsed=elapsed,
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
