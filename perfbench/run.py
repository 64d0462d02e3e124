"""Benchmark of thermocontact: chord scans, relaxation paths, CLI sessions.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload chord_scan --seed 1 --seconds 30 --trace 0

Each run starts fresh single-threaded interpreters on ``src/``: with
``--trace 0``, ``SETUP_RUNS - 1`` interpreters that only set up, then one
that also measures; with ``--trace 1``, one interpreter that measures
untraced and then traced.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md for what each metric means.
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

from calibration import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_RUNS = 7
TAIL_BEYOND = 10
# A worker starts no operation after STOP_FACTOR * --seconds of its loop;
# CHILD_SLACK_S covers its set-up, warm-up and one last operation.
STOP_FACTOR = 4
CHILD_SLACK_S = 40


def tail_percentile(min_ops: int) -> int:
    """The highest whole percentile with TAIL_BEYOND samples beyond it in
    a run of ``min_ops`` operations, the least a worker times."""
    return 100 * (min_ops - TAIL_BEYOND) // min_ops


def tail(latencies: list[float], percentile: int) -> float:
    """The ``percentile``-th percentile (nearest rank) of the latencies."""
    ordered = sorted(latencies)
    rank = -(-percentile * len(ordered) // 100)  # ceil
    return ordered[rank - 1]


def child(args, mode: str, tag: str) -> dict:
    """Start one worker interpreter and return its JSON result."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--stop-s", str(STOP_FACTOR * args.seconds),
        "--mode", mode,
        "--scratch", str(OUT / f"scratch-{args.workload}-{os.getpid()}-{tag}"),
    ]
    if mode == "trace":
        cmd += ["--trace-file", str(OUT / f"trace-{args.workload}-seed{args.seed}.json")]
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    timeout = STOP_FACTOR * args.seconds + CHILD_SLACK_S
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {mode} did not end within {timeout:g} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker {mode} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_raw(args, setups: list[dict], res: dict, percentile: int, scaled: dict) -> None:
    """Keep the unscaled wall-clock figures of a run next to the scaled ones."""
    OUT.mkdir(parents=True, exist_ok=True)
    wall = {"setup_s": statistics.median(p["setup_s"] for p in setups)}
    if res["latencies"]:
        wall["op_p50_ms"] = 1e3 * statistics.median(res["latencies"])
        wall["op_tail_ms"] = 1e3 * tail(res["latencies"], percentile)
    doc = {
        "scaled": scaled,
        "wall": wall,
        "tail_percentile": percentile,
        "timed_ops": len(res["latencies"]),
        "setup_kernel_ms": [1e3 * p["setup_kernel_s"] for p in setups],
    }
    (OUT / f"run-{args.workload}-seed{args.seed}.json").write_text(json.dumps(doc) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "thermocontact" / "__init__.py").is_file():
        print(f"error: no thermocontact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Metrics that need a timed operation are left out when none completed,
    # and ``correct`` is then false.
    if args.trace:
        res = child(args, "trace", "trace")
        values, spec = res["layers"], SPEC["per_layer"]
    else:
        probes = [child(args, "setup", f"setup{k}") for k in range(SETUP_RUNS - 1)]
        res = child(args, "measure", "measure")
        setups = [p["setup_s"] * REFERENCE_S / p["setup_kernel_s"] for p in probes + [res]]
        lat = res["scaled"]
        percentile = tail_percentile(res["min_ops"])
        values = {"setup_s": statistics.median(setups), "peak_rss_mb": res["peak_rss_mb"]}
        if lat:
            values.update(
                ops_per_s=len(lat) / sum(lat),
                op_p50_ms=1e3 * statistics.median(lat),
                op_tail_ms=1e3 * tail(lat, percentile),
            )
        if len(lat) < res["min_ops"]:
            print(f"warning: {len(lat)} timed operations, fewer than {res['min_ops']}: "
                  f"p{percentile} has fewer than {TAIL_BEYOND} beyond it", file=sys.stderr)
        spec = SPEC["end_to_end"]
        write_raw(args, probes + [res], res, percentile, values)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec if m["name"] in values}
    print(json.dumps({
        "correct": res["wrong"] == 0 and len(metrics) == len(spec),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
