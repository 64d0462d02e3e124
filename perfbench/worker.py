"""One workload in one fresh interpreter; started by ``run.py``.

Modes:

* ``setup``: import the CLI, draw the inputs, report ``setup_s`` and exit;
* ``measure``: the same set-up, one untimed warm-up operation, then a
  closed loop with one caller for ``--seconds`` and at least the workload's
  ``min_ops`` completed operations, untraced, starting none after
  ``--stop-s``;
* ``trace``: an untraced loop for half the time, then the same operations
  again with the tracer installed; reports the per-layer metrics and the
  tracing overhead, and writes the spans to ``--trace-file``.

``setup_s`` runs from ``--spawn-ns`` (the parent's ``time.monotonic_ns()``
just before it started this interpreter) to the end of input generation.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

t_start = time.perf_counter()
modules_before = len(sys.modules)
import thermocontact.cli  # noqa: E402,F401  (timed: every CLI call pays this import)

import_s = time.perf_counter() - t_start
modules_loaded = len(sys.modules) - modules_before

import workloads  # noqa: E402
from calibration import REFERENCE_S, kernel_s  # noqa: E402
from checks import CheckError  # noqa: E402
from tracer import Tracer  # noqa: E402

class Loop:
    """Latencies and outcomes of a closed loop with one caller.

    ``kernels[i]`` is the calibration kernel's time around operation i (the
    mean of one timing before and one after it).
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.kernels: list[float] = []
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    def scaled(self) -> list[float]:
        """Latencies in seconds of a machine where the kernel takes REFERENCE_S."""
        return [lat * REFERENCE_S / k for lat, k in zip(self.latencies, self.kernels)]

    def run(self, wl, start: int, seconds: float, min_ops: int, stop_s: float,
            tracer=None) -> "Loop":
        """Run ops from input ``start`` on until ``seconds`` have passed and
        ``min_ops`` ops have completed; after ``stop_s`` start no more."""
        t0 = time.perf_counter()
        i = start
        while True:
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds and len(self.latencies) >= min_ops:
                break
            if elapsed >= stop_s and self.attempted:
                break
            prep = wl.prepare(wl.inputs[i % len(wl.inputs)])
            gc.collect()
            if tracer is not None:
                tracer.op = i
            kernel_before = kernel_s()
            t0_op = time.perf_counter()
            try:
                out = wl.run(prep)
            except Exception:  # a failing operation is counted; the loop goes on
                self.failed += 1
                self.errors.append(f"op {i} failed: {traceback.format_exc(limit=4)}")
                i += 1
                continue
            self.latencies.append(time.perf_counter() - t0_op)
            self.kernels.append((kernel_before + kernel_s()) / 2.0)
            if tracer is not None:
                for key, value in wl.counts(out).items():
                    tracer.count(key, value)
            try:
                wl.check(prep, out)
            except CheckError as exc:
                self.wrong += 1
                self.errors.append(f"op {i} output wrong: {exc}")
            i += 1
        return self


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--stop-s", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.scratch))
    result: dict = {"setup_s": (time.monotonic_ns() - args.spawn_ns) / 1e9,
                    "setup_kernel_s": kernel_s()}
    loops: list[Loop] = []
    try:
        if args.mode != "setup":
            loops.append(Loop().run(wl, 0, 0.0, 1, 0.0))  # warm-up, checked but not timed
            gc.freeze()  # set-up objects stay out of the per-op collections
        if args.mode == "measure":
            loops.append(Loop().run(wl, 1, args.seconds, wl.min_ops, args.stop_s))
            result["latencies"] = loops[-1].latencies
            result["scaled"] = loops[-1].scaled()
        elif args.mode == "trace":
            plain = Loop().run(wl, 1, args.seconds / 2, wl.min_ops // 2, args.stop_s / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = Loop().run(wl, 1, 0.0, len(plain.latencies), args.stop_s / 2, tracer)
            finally:
                tracer.uninstall()
            loops += [plain, traced]
            layers = tracer.layer_metrics(max(1, len(traced.latencies)))
            layers["import.thermocontact_s"] = import_s
            layers["import.modules_loaded"] = modules_loaded
            if plain.latencies and traced.latencies:
                overhead = sum(traced.scaled()) / sum(plain.scaled()) - 1.0
                layers["trace.overhead_pct"] = 100.0 * overhead
                layers["calibration.kernel_ms"] = 1e3 * statistics.median(traced.kernels)
            result["layers"] = layers
            if args.trace_file:
                Path(args.trace_file).parent.mkdir(parents=True, exist_ok=True)
                with open(args.trace_file, "w") as fh:
                    json.dump({"workload": args.workload, "seed": args.seed, "layers": layers,
                               "span_fields": ["op", "span", "parent", "name", "start_ns", "end_ns"],
                               "spans": tracer.spans}, fh)
                    fh.write("\n")
    finally:
        wl.close()
    errors = [e for loop in loops for e in loop.errors]
    for err in errors[:5]:
        print(err, file=sys.stderr)
    result.update(
        attempted=sum(loop.attempted for loop in loops),
        failed=sum(loop.failed for loop in loops),
        wrong=sum(loop.wrong for loop in loops),
        min_ops=wl.min_ops,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
