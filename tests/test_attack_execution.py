"""Tests for attack execution: triggering, realtime, BIoTA, capability."""

import numpy as np
import pytest

from repro.adm.cluster_model import AdmParams, ClusterADM, ClusterBackend
from repro.attack.biota import BiotaRules, biota_attack_samples, biota_greedy_attack
from repro.attack.model import (
    AttackerCapability,
    AttackVector,
    check_capability_consistency,
)
from repro.attack.realtime import execute_attack
from repro.attack.schedule import shatter_schedule
from repro.attack.stealth import (
    anomalous_visit_fraction,
    triggering_is_occupant_stealthy,
)
from repro.attack.trigger import appliance_triggering_decisions
from repro.dataset.splits import split_days
from repro.dataset.synthetic import SyntheticConfig, generate_house_trace
from repro.errors import AttackError
from repro.home.builder import build_house_a
from repro.hvac.controller import DemandControlledHVAC
from repro.hvac.pricing import TouPricing
from repro.hvac.simulation import simulate


@pytest.fixture(scope="module")
def setup():
    home = build_house_a()
    trace = generate_house_trace(
        home, house="A", config=SyntheticConfig(n_days=12, seed=21)
    )
    train, test = split_days(trace, 9)
    adm = ClusterADM(AdmParams(backend=ClusterBackend.DBSCAN, eps=40.0, min_pts=4))
    adm.fit(train, home.n_zones)
    capability = AttackerCapability.full_access(home)
    pricing = TouPricing()
    schedule = shatter_schedule(home, adm, capability, pricing, test)
    return home, adm, test, capability, pricing, schedule


# ----------------------------------------------------------------------
# Algorithm 1: appliance triggering
# ----------------------------------------------------------------------


def test_triggering_produces_decisions(setup):
    home, adm, test, capability, _, schedule = setup
    triggered, decisions = appliance_triggering_decisions(
        home, adm, schedule, test, capability
    )
    assert triggered.shape == (test.n_slots, home.n_appliances)
    assert len(decisions) > 0
    assert triggered.any()


def test_triggering_respects_occupants(setup):
    """Eq. 16: never trigger in a zone with a real occupant."""
    home, adm, test, capability, _, schedule = setup
    triggered, _ = appliance_triggering_decisions(
        home, adm, schedule, test, capability
    )
    assert triggering_is_occupant_stealthy(home, triggered, test)


def test_triggering_never_targets_running_appliances(setup):
    home, adm, test, capability, _, schedule = setup
    triggered, _ = appliance_triggering_decisions(
        home, adm, schedule, test, capability
    )
    assert not (triggered & test.appliance_status).any()


def test_triggering_respects_appliance_access(setup):
    home, adm, test, _, _, schedule = setup
    no_appliances = AttackerCapability(
        zones=frozenset(range(home.n_zones)),
        occupants=frozenset(range(home.n_occupants)),
        appliances=frozenset(),
    )
    triggered, decisions = appliance_triggering_decisions(
        home, adm, schedule, test, no_appliances
    )
    assert not triggered.any()
    assert decisions == []


def test_triggering_follows_reported_activity(setup):
    """Triggered appliances must belong to the claimed activity."""
    home, adm, test, capability, _, schedule = setup
    _, decisions = appliance_triggering_decisions(
        home, adm, schedule, test, capability
    )
    for decision in decisions[:50]:
        activity_id = int(
            schedule.spoofed_activity[decision.slot, decision.occupant_id]
        )
        allowed = set(home.appliance_ids_for_activity(activity_id))
        assert set(decision.appliance_ids).issubset(allowed)


# ----------------------------------------------------------------------
# Real-time execution
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def executed(setup):
    home, adm, test, capability, pricing, schedule = setup
    controller = DemandControlledHVAC(home)
    benign = simulate(home, test, controller)
    with_trigger = execute_attack(
        home, controller, test, schedule, capability, adm=adm
    )
    without_trigger = execute_attack(
        home, controller, test, schedule, capability, enable_triggering=False
    )
    return benign, with_trigger, without_trigger


def test_attack_raises_cost(setup, executed):
    _, _, _, _, pricing, _ = setup
    benign, with_trigger, without_trigger = executed
    assert without_trigger.cost(pricing) > benign.cost(pricing)
    assert with_trigger.cost(pricing) > without_trigger.cost(pricing)


def test_full_access_applies_all_visits(executed):
    _, with_trigger, _ = executed
    assert with_trigger.applied_visit_fraction == 1.0


def test_attack_vector_deltas_nonzero(executed):
    """The consistent FDI story requires nonzero IAQ deltas."""
    _, with_trigger, _ = executed
    vector = with_trigger.vector
    assert np.abs(vector.delta_co2).max() > 0
    assert np.abs(vector.delta_temperature).max() > 0


def test_triggering_needs_adm(setup):
    home, _, test, capability, _, schedule = setup
    controller = DemandControlledHVAC(home)
    with pytest.raises(AttackError):
        execute_attack(home, controller, test, schedule, capability, adm=None)


def test_vector_passes_capability_check(setup, executed):
    home, _, test, capability, _, _ = setup
    _, with_trigger, _ = executed
    check_capability_consistency(
        with_trigger.vector, test.occupant_zone, capability, home
    )


def test_restricted_schedule_stays_feasible_and_nonempty(setup):
    """With limited zone access the visit-substitution fallback still
    finds stealthy spoofs, all of which survive real-time checks."""
    home, adm, test, _, pricing, _ = setup
    limited = AttackerCapability.with_zones(
        home, [home.zone_id("Kitchen"), home.zone_id("Bedroom")]
    )
    schedule = shatter_schedule(home, adm, limited, pricing, test)
    spoofed_something = (
        (schedule.spoofed_zone != test.occupant_zone).any()
        or (schedule.spoofed_activity != test.occupant_activity).any()
    )
    assert spoofed_something
    assert schedule.substituted_days
    assert schedule.expected_reward > 0
    controller = DemandControlledHVAC(home)
    outcome = execute_attack(home, controller, test, schedule, limited, adm=adm)
    assert outcome.applied_visit_fraction == 1.0


def test_overoptimistic_schedule_loses_visits_at_execution(setup):
    """A schedule built assuming full access, executed with limited
    access, must drop the infeasible visits (the paper's real-time
    feasibility condition)."""
    home, adm, test, _, pricing, schedule = setup
    limited = AttackerCapability.with_zones(
        home, [home.zone_id("Kitchen"), home.zone_id("Bedroom")]
    )
    controller = DemandControlledHVAC(home)
    outcome = execute_attack(home, controller, test, schedule, limited, adm=adm)
    assert outcome.applied_visit_fraction < 1.0


# ----------------------------------------------------------------------
# BIoTA baseline
# ----------------------------------------------------------------------


def test_biota_attack_is_rule_consistent(setup):
    home, _, test, capability, pricing, _ = setup
    rules = BiotaRules()
    schedule = biota_greedy_attack(home, capability, pricing, test, rules=rules)
    assert rules.occupancy_consistent(schedule.spoofed_zone, test.occupant_zone)


def test_biota_attack_is_flagged_by_cluster_adm(setup):
    """The paper's core claim: 60-100% of BIoTA vectors alarm the ADM."""
    home, adm, test, capability, pricing, _ = setup
    schedule = biota_greedy_attack(home, capability, pricing, test)
    fraction = anomalous_visit_fraction(
        adm, schedule.spoofed_zone, schedule.spoofed_activity
    )
    assert fraction > 0.5


def test_biota_reward_exceeds_shatter(setup):
    """Unconstrained by the ADM, BIoTA's raw cost is the upper bound."""
    home, _, test, capability, pricing, schedule = setup
    biota = biota_greedy_attack(home, capability, pricing, test)
    assert biota.expected_reward > schedule.expected_reward


def test_biota_keeps_outside_occupants_outside(setup):
    home, _, test, capability, pricing, _ = setup
    schedule = biota_greedy_attack(home, capability, pricing, test)
    outside = test.occupant_zone == 0
    assert (schedule.spoofed_zone[outside] == 0).all()


def test_biota_attack_samples_labelled(setup):
    home, _, test, _, pricing, _ = setup
    reported, labels = biota_attack_samples(home, test, pricing, seed=3)
    assert labels.shape == test.occupant_zone.shape
    assert labels.any()
    changed = reported.occupant_zone != test.occupant_zone
    assert (changed == labels).all()


# ----------------------------------------------------------------------
# Capability / vector validation
# ----------------------------------------------------------------------


def test_capability_check_rejects_bad_vector(setup):
    home, _, test, _, _, _ = setup
    n_slots = test.n_slots
    vector = AttackVector(
        spoofed_zone=test.occupant_zone.copy(),
        spoofed_activity=test.occupant_activity.copy(),
        delta_co2=np.zeros((n_slots, home.n_zones)),
        delta_temperature=np.zeros((n_slots, home.n_zones)),
        triggered=np.zeros((n_slots, home.n_appliances), dtype=bool),
    )
    vector.spoofed_zone[0, 0] = home.zone_id("Kitchen")
    no_access = AttackerCapability(
        zones=frozenset(), occupants=frozenset(), appliances=frozenset()
    )
    with pytest.raises(AttackError):
        check_capability_consistency(
            vector, test.occupant_zone, no_access, home
        )


def test_attack_vector_shape_validation():
    with pytest.raises(AttackError):
        AttackVector(
            spoofed_zone=np.zeros((5, 2), dtype=int),
            spoofed_activity=np.zeros((4, 2), dtype=int),
            delta_co2=np.zeros((5, 3)),
            delta_temperature=np.zeros((5, 3)),
            triggered=np.zeros((5, 2), dtype=bool),
        )


@pytest.mark.parametrize("slot_range", [None, (3, 7), (0, 0)])
def test_capability_masks_match_scalar_queries(setup, slot_range):
    home = setup[0]
    capability = AttackerCapability(
        zones=frozenset({1, 3}),
        occupants=frozenset({0}),
        appliances=frozenset(),
        slot_range=slot_range,
    )
    assert capability.attackable_slots(12).tolist() == [
        capability.can_attack_slot(t) for t in range(12)
    ]
    assert capability.spoofable_zones(home.n_zones).tolist() == [
        capability.can_spoof_zone(z) for z in range(home.n_zones)
    ]
