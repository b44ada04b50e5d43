"""The chaos matrix as a pytest suite.

Every scenario in :data:`repro.faults.SCENARIOS` is run at three pinned
seeds.  Each cell must land in its contract — either the recovered
engine state is byte-identical to the fault-free oracle (exact float
reprs, same clusterings) or the failure surfaced as a *typed* error.
A cell that diverges silently is the one unforgivable outcome and
fails the suite immediately.  Every engine under test
runs the array serving engine and every oracle the dict reference, so
each cell is also a cross-engine differential under faults.

Gated behind ``@pytest.mark.chaos`` (enable with ``--chaos`` or
``ANC_CHAOS=1``) so the tier-1 suite stays fast; CI runs the same cells
through ``repro-anc chaos`` instead.  The catalog's injector floor needs
no cell run and lives in ``tests/test_faults.py``.
"""

from __future__ import annotations

import pytest

from repro.faults import SCENARIOS, run_scenario

SEEDS = (0, 1, 2)

pytestmark = pytest.mark.chaos


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_cell_in_contract(scenario, seed, tmp_path):
    result = run_scenario(scenario.name, seed, tmp_path)
    assert not result.silent_divergence, (
        f"SILENT DIVERGENCE in {scenario.name} seed={seed}: {result.detail}"
    )
    assert result.status != "error", (
        f"harness escape in {scenario.name} seed={seed}: {result.detail}"
    )
    assert result.ok, (
        f"{scenario.name} seed={seed}: expected {result.expect}, "
        f"got {result.status} ({result.detail})"
    )
    assert len(result.injected) >= 1, "scenario ran but no fault ever fired"


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_same_outcome(seed, tmp_path):
    """Determinism: re-running a cell reproduces status and detail."""
    first = run_scenario("wal-torn-tail", seed, tmp_path / "a")
    second = run_scenario("wal-torn-tail", seed, tmp_path / "b")
    assert first.status == second.status
    assert first.injected == second.injected

