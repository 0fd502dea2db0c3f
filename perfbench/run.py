"""tapglass benchmark: one workload per invocation, each in its own process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the program under test is imported from
./src, never from an installed copy.  With --trace 0 the workload runs
untraced for --seconds and the end-to-end metrics are printed; set-up is
repeated in extra processes so that setup_s is a median.  With --trace 1 a
separate process runs the same operations untraced and then traced, and the
per-layer metrics are printed.  Every operation's output is checked.  The
last line of standard output is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TIME_LIMIT_S = 170.0

# Set-ups per measured run, for the median in setup_s.  The cheap set-ups are
# imports and config parsing; reuse_solve builds an n = 3000 instance each time.
SETUP_REPEATS = {"haar_grid": 5, "reuse_solve": 3, "gibbs_band_grid": 5, "glauber_grid": 5}


class WorkerFailed(RuntimeError):
    pass


def spawn(args, mode: str, deadline: float) -> tuple[float, dict]:
    """Run one worker process to completion; return its spawn time and report."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"{mode} worker ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS[args.workload] - 1):
        spawned, probe = spawn(args, "setup", deadline)
        setups.append(probe["ready"] - spawned)
    spawned, rep = spawn(args, "measure", deadline)
    setups.append(rep["ready"] - spawned)
    # With no validated operation, the whole timed run stands in for a latency.
    lat = rep["latencies"] or [rep["elapsed"]]
    print(f"operations: {rep['attempted']} attempted, {rep['failed']} failed, "
          f"{rep['elapsed']:.3f} s timed, {len(rep['latencies']) / rep['elapsed']:.4g} ops/s; "
          f"latency over {len(rep['latencies'])} samples: min {min(lat):.4f} s, "
          f"p50 {statistics.median(lat):.4f} s, mean {statistics.fmean(lat):.4f} s; "
          f"setup_s median of {len(setups)} set-ups {[round(s, 3) for s in setups]}")
    metrics = {
        # The fastest operation, not the median or the mean: see "Why the
        # minimum" in README.md.
        "op_s_min": {"value": min(lat), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mib": {"value": rep["peak_rss_mib"], "unit": "MiB"},
    }
    return rep, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_REPEATS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tapglass" / "__init__.py").is_file():
        print(f"no tapglass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        if args.trace:
            _, rep = spawn(args, "trace", deadline)
            metrics = rep["per_layer"]
            print(f"spans written to {rep['spans_file']}")
        else:
            rep, metrics = end_to_end(args, deadline)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print("fingerprint " + json.dumps(rep["fingerprint"], sort_keys=True))
    for err in rep["errors"]:
        print(f"FAILED {err}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
