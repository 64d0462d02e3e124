"""The CLI digests and the CSV cells hold at every numpy CPU dispatch level
this CPU has.

numpy reads ``NPY_DISABLE_CPU_FEATURES`` once, when it is imported, so each
lower level reruns ``tests/test_cli_outputs.py`` and ``tests/test_csv_format.py``
in a fresh interpreter with the dispatch targets above that level switched
off; the first checks the digest table of the level it runs at, the second
that every CSV cell is ``%.17g`` although ``np.log10``, on which the CSV
kernel's fast path rests, gives other bits there.  The reruns start
together, at most one per CPU this process may use at a time.  A level
above this process's level is skipped: the CPU lacks one of its targets,
or the environment switched one off.

What numpy 2.4.6 does with a name it cannot disable, as the tests at the end
of this file check on x86-64:
- a baseline feature (X86_V2 here): the import raises RuntimeError ("You
  cannot disable CPU feature 'X86_V2', since it is part of the baseline
  optimizations");
- a name that is not a dispatch target (a feature such as AVX512F that a
  target implies, or an unknown word): an ImportWarning ("... since they are
  not part of the dispatched optimizations"), hidden by default, and every
  target stays on.
A dispatch target that the CPU lacks cannot be tried on a CPU that has them
all; numpy's binary holds the text "You cannot disable CPU features (...),
since they are not supported by your machine" for it.  So a rerun never
names a target that is off here: it names the targets above its level that
are on, after whatever this process's environment already switched off.
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

from test_cli_outputs import LEVELS, dispatch_level

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
ON = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
# what this process's environment switched off, kept off in every rerun
OFF = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()

# prints the dispatch targets that are on
_TARGETS_ON = (
    "from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__\n"
    "print([t for t in __cpu_dispatch__ if __cpu_features__[t]])\n"
)
# ... and then runs pytest on its arguments
_CHILD = _TARGETS_ON + "import sys, pytest\nsys.exit(pytest.main(sys.argv[1:]))\n"


def _python(code: str, disable: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with NPY_DISABLE_CPU_FEATURES=disable."""
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disable}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-W", "always::ImportWarning", "-c", code, *args],
        capture_output=True, text=True, env=env, cwd=TESTS.parent, timeout=300,
    )


def _skip_reason(level: str) -> str | None:
    """Why the rerun at ``level`` is skipped, or None."""
    here = dispatch_level()
    if level == here:
        return f"{level} is this process's level, checked in-process"
    if LEVELS.index(level) > LEVELS.index(here):
        return f"{level} is above this process's level {here}"
    if "NPY_ENABLE_CPU_FEATURES" in os.environ:
        # it cannot be set with NPY_DISABLE_CPU_FEATURES, and it hides which
        # targets the CPU has
        return "NPY_ENABLE_CPU_FEATURES is set"
    return None


def _rerun(level: str) -> subprocess.CompletedProcess:
    above = LEVELS[LEVELS.index(level) + 1:]
    return _python(_CHILD, " ".join(OFF + [t for t in above if t in ON]),
                   "-q", "-p", "no:cacheprovider", str(TESTS / "test_cli_outputs.py"),
                   str(TESTS / "test_csv_format.py"))


@pytest.fixture(scope="module")
def reruns(request):
    """The rerun of each selected level that is not skipped, all started at
    once and run at most one per CPU this process may use at a time."""
    levels = {item.callspec.params["level"] for item in request.session.items
              if item.originalname == "test_digests_hold_at_lower_level"}
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        yield {level: pool.submit(_rerun, level)
               for level in LEVELS if level in levels and _skip_reason(level) is None}


@pytest.mark.parametrize("level", LEVELS)
def test_digests_hold_at_lower_level(level, reruns):
    reason = _skip_reason(level)
    if reason is not None:
        pytest.skip(reason)
    proc = reruns[level].result()
    above = LEVELS[LEVELS.index(level) + 1:]
    on = [t for t in ON if t not in above]
    assert proc.stdout.splitlines()[:1] == [repr(on)], proc.stdout + proc.stderr
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]


def test_disabling_a_baseline_feature_stops_the_import():
    proc = _python("import numpy", LEVELS[0])
    assert proc.returncode != 0
    assert f"cannot disable CPU feature '{LEVELS[0]}'" in proc.stderr
    assert "part of the baseline optimizations" in proc.stderr


@pytest.mark.parametrize(
    "name",
    ["NOT_A_FEATURE", *[f for f in ["AVX512F"] if f not in LEVELS and f not in __cpu_baseline__]],
)
def test_disabling_a_name_that_is_not_a_target_only_warns(name):
    proc = _python(_TARGETS_ON, " ".join(OFF + [name]))
    assert proc.returncode == 0, proc.stderr
    assert "ImportWarning" in proc.stderr
    assert f"cannot disable CPU features ({name})" in proc.stderr
    assert proc.stdout.splitlines() == [repr(ON)]
