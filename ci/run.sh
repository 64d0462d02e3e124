#!/usr/bin/env bash
# The whole CI, offline: the installed requirements, Tier-1, the acceptance
# criteria and 2-s benchmark smoke runs.  Run from anywhere as `ci/run.sh`
# once the package's requirements are installed; the first failing step
# ends the run with its exit status.
#
# Not run here: `python ci/unrun.py` reruns Tier-1 under sys.settrace and
# lists the package statements no test executes (about three minutes).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

step() { printf '\n== %s\n' "$*"; }

# the last line a benchmark run prints, checked by the Python test given
smoke() {
    local check=$1 label=$2
    shift 2
    local last
    last=$(python3 perfbench/run.py "$@" | tail -n 1)
    echo "$label: $last"
    echo "$last" | python3 -c "import json, sys; r = json.load(sys.stdin); sys.exit(not ($check))"
}

step "installed requirements"
python -m pip check

step "Tier-1 tests"
# numpy's CPU dispatch level names the digest table tests/test_cli_outputs.py
# checks (tests/test_dispatch_levels.py reruns that file at each lower
# level, one rerun per usable CPU at a time), and the hypothesis version
# chooses the derandomized draws
python - <<'PY'
import os
import sys

import hypothesis
import numpy as np
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

sys.path.insert(0, "tests")
from test_cli_outputs import dispatch_level

on = " ".join(t for t in __cpu_dispatch__ if __cpu_features__[t]) or "none"
print(f"numpy {np.__version__}: baseline {' '.join(__cpu_baseline__)}, "
      f"dispatch targets on: {on}, digest level {dispatch_level()}; "
      f"hypothesis {hypothesis.__version__}; {len(os.sched_getaffinity(0))} CPUs")
PY
python -m pytest -q --continue-on-collection-errors --durations=15

step "acceptance criteria"
python -m thermocontact.cli verify

step "benchmark smoke runs"
for w in chord_scan relax_paths cli_session; do
    smoke 'r["correct"] is True and r["failed"] == 0' "$w" \
        --workload "$w" --seed 1 --seconds 2 --trace 0
done

step "traced benchmark smoke runs"
# the tracer counts front evaluations by patching FrontFunction.value/slope
smoke 'r["correct"] is True and r["failed"] == 0 and r["metrics"]["models.front_evals"]["value"] > 0' \
    "chord_scan --trace 1" --workload chord_scan --seed 1 --seconds 2 --trace 1
# the traced path I/O layer: write_csv's kernel formats the path CSVs
smoke 'r["correct"] is True and r["failed"] == 0 and r["metrics"]["phase_space.csv_bytes"]["value"] > 0' \
    "relax_paths --trace 1" --workload relax_paths --seed 1 --seconds 2 --trace 1
# the relax command and every writer of the CLI session under the tracer
smoke 'r["correct"] is True and r["failed"] == 0 and r["metrics"]["cli.bytes_written"]["value"] > 0' \
    "cli_session --trace 1" --workload cli_session --seed 1 --seconds 2 --trace 1

step "all steps passed"
