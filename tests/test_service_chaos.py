"""Service-level chaos: seeded adversarial traffic campaigns.

Each campaign cell throws arrival bursts, worker-pool crashes, poison
specs and racing duplicates at one service instance and holds it to
the full contract at once: drained, one terminal record per accepted
submission, exactly-once commit, bitwise-exact completions, poison
containment, and bit-for-bit replay (see
:func:`repro.service.chaos.check_service_invariants`).
"""

import dataclasses

import pytest

from repro._util import ReproError
from repro.service import (
    JobExecutor,
    ServiceChaosSpace,
    check_service_invariants,
    random_service_workload,
    run_service_campaign,
    run_service_case,
)
from repro.service.chaos import _run_once

SPACE = ServiceChaosSpace(jobs=12)


@pytest.fixture(scope="module")
def executor():
    return JobExecutor()


def test_workload_is_pure_function_of_seed():
    a = random_service_workload(3, SPACE)
    b = random_service_workload(3, SPACE)
    assert a.config == b.config
    assert [(t, s.key()) for t, s in a.arrivals] == (
        [(t, s.key()) for t, s in b.arrivals]
    )
    assert a.poison_keys == b.poison_keys
    assert random_service_workload(4, SPACE).arrivals != a.arrivals


def test_workload_mixes_the_fault_space():
    wl = random_service_workload(0, ServiceChaosSpace(jobs=40))
    specs = [s for _, s in wl.arrivals]
    assert wl.poison_keys, "no poison specs drawn"
    assert any(
        s.faults is not None and s.key() not in wl.poison_keys
        for s in specs
    ), "no recoverable chaos specs drawn"
    assert len(specs) > 40, "no duplicate submissions appended"
    assert len({s.tenant for s in specs}) > 1


def test_campaign_seeds_pass_every_invariant(executor):
    for seed in range(3):
        case = run_service_case(seed, SPACE, executor)
        assert case.ok, (
            f"seed {seed} violated: {case.violations}"
        )
        assert case.deterministic


def test_campaign_summary_aggregates(executor):
    out = run_service_campaign(range(2), SPACE)
    assert out["total"] == 2 and out["passed"] == 2
    assert out["aggregate"]["completed"] > 0
    assert not out["failures"]


def test_oracle_catches_a_lying_service(executor):
    """The invariant checker must actually reject corrupted outcomes -
    an oracle that cannot fail proves nothing."""
    wl = random_service_workload(1, SPACE)
    svc = _run_once(wl, executor)
    assert check_service_invariants(svc, wl) == []
    # Tamper: drop a terminal record (a starved submission).
    dropped = svc.results.pop()
    bad = check_service_invariants(svc, wl)
    assert any("terminal records" in v for v in bad)
    svc.results.append(dropped)
    # Tamper: complete a poison job.
    poisoned = [r for r in svc.results if r.key in wl.poison_keys]
    if poisoned:
        r = poisoned[0]
        old = r.status
        r.status = "completed"
        assert any(
            "poison" in v for v in check_service_invariants(svc, wl)
        )
        r.status = old
    # Tamper: leak an admission credit.
    svc.admission.total += 1
    assert any(
        "credits leaked" in v for v in check_service_invariants(svc, wl)
    )
    svc.admission.total -= 1


def test_space_validation():
    with pytest.raises(ReproError):
        ServiceChaosSpace(jobs=0)
    assert dataclasses.is_dataclass(SPACE)
