"""Acceptance suite: every criterion runs at its pinned tolerance.

One test per criterion; each prints its PASS/FAIL line so a verbose run
reads as the acceptance report.  The same checks back the CLI ``verify``
subcommand.

Each line must also equal, character for character, the line recorded in
``LINES`` below, so any change that moves a reported value (which
``thermocontact verify`` prints) fails here.  The lines were recorded with
numpy 2.4 on x86-64 Linux; transcendental functions may round differently
on another platform or numpy build, in which case they must be re-recorded
from a known-good commit there.
"""

import pytest

from thermocontact import verify
from thermocontact.verify import CRITERIA, run_all

LINES = (
    "PASS criterion  1 [gas chord]: P0=0.5 v=2 |len-4ln2|=0.00e+00 finder |q+0.5|=0.00e+00 |len-4ln2|=0.00e+00",
    "PASS criterion  2 [magnet chord]: |p-tanh(3/4)|=1.11e-16 |Q*-1.5|=2.22e-16 finder dq=0.00e+00 dlen=4.44e-16 asym=5.68e-13",
    "PASS criterion  3 [thermodynamic identities]: max|S+dG/dT|=4.94e-10 max|p+dG/dq|=6.98e-10 over 100 systems",
    "PASS criterion  4 [Gibbs minimality]: max(G_min-G_rand)=-1.12e-01 grad spread=3.55e-15 (10 systems x 1000 densities)",
    "PASS criterion  5 [barred form preservation]: form residual=2.56e-10 zero-section=2.22e-16 round-trip=4.44e-16",
    "PASS criterion  6 [relaxation contract]: mass=2.38e-14 lyapunov=3.55e-15 -min(form)=3.55e-13 terminal TV=1.18e-14 (50 runs)",
    "PASS criterion  7 [reduction soundness]: min reduced form value=5.100e-02 over 1000 admissible paths",
    "PASS criterion  8 [slow-process fixed point]: slice residual=0.00e+00 chord-path (p,q) err=0.00e+00 z(t)-(1+4t)ln2=0.00e+00",
    "PASS criterion  9 [monotonicity]: min dz/dT=1.55e-128 FD mismatch=4.09e-10 |dz/db - p^2/2|=6.01e-09 min coupling deriv=1.25e-03",
    "PASS criterion 10 [upward chord existence]: 100 random draws per model: unique chord, direction +1",
)


@pytest.mark.parametrize(
    "criterion, line",
    zip(CRITERIA, LINES),
    ids=[f"criterion_{i + 1}" for i in range(len(CRITERIA))],
)
def test_acceptance_criterion(criterion, line):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()
    assert result.line() == line


def test_runner_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        run_all([0])
    with pytest.raises(ValueError):
        run_all([len(CRITERIA) + 1])


def test_runner_subset_order():
    results = run_all([2, 1])
    assert [r.index for r in results] == [2, 1]


@pytest.mark.parametrize("copies", [0, 2])
def test_a_finder_result_without_one_chord_fails_criterion_10(monkeypatch, copies):
    # no chord, or two, has no length to compare: the first draw fails
    find_chords = verify.find_chords
    monkeypatch.setattr(verify, "find_chords", lambda *scan: find_chords(*scan)[:1] * copies)
    (result,) = run_all([10])
    assert not result.passed
    assert result.line().startswith(
        "FAIL criterion 10 [upward chord existence]: gas draw failed at t0="
    )
