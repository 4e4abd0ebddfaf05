"""Kernel attack paths against their preserved per-slot oracles.

``execute_attack`` runs the shadow plant through ``simulate`` and the
true plant through an open-loop recurrence; ``biota_greedy_attack``
decides all slots of an (occupant, day) at once.  Both must reproduce
the original loops in :mod:`repro.oracles` exactly — every array bit
for bit, the BIoTA reward down to its type.
"""

import numpy as np
import pytest

from repro.adm.cluster_model import AdmParams, ClusterADM, ClusterBackend
from repro.attack.biota import BiotaRules, biota_greedy_attack
from repro.attack.model import AttackerCapability
from repro.attack.realtime import execute_attack
from repro.attack.schedule import AttackSchedule, shatter_schedule
from repro.dataset.splits import split_days
from repro.dataset.synthetic import (
    SyntheticConfig,
    generate_home_fleet,
    generate_house_trace,
)
from repro.errors import ControlError
from repro.home.builder import build_house_a, build_house_b
from repro.hvac.ashrae import AshraeController
from repro.hvac.controller import ControllerConfig, DemandControlledHVAC
from repro.hvac.pricing import TouPricing
from repro.hvac.simulation import OutdoorConditions
from repro.oracles.biota import biota_greedy_attack_reference
from repro.oracles.realtime import execute_attack_reference

_VECTOR_FIELDS = (
    "spoofed_zone",
    "spoofed_activity",
    "delta_co2",
    "delta_temperature",
    "triggered",
)
_RESULT_FIELDS = (
    "airflow_cfm",
    "co2_ppm",
    "temperature_f",
    "hvac_kwh",
    "appliance_kwh",
)


class _SubclassedHVAC(DemandControlledHVAC):
    """Not the exact kernel type, so ``simulate`` takes its reference
    loop — the fallback every unknown controller gets."""


@pytest.fixture(scope="module", params=["A", "B"])
def world(request):
    house = request.param
    home = (build_house_a if house == "A" else build_house_b)()
    trace = generate_house_trace(
        home, house=house, config=SyntheticConfig(n_days=6, seed=31)
    )
    train, evaluation = split_days(trace, 4)
    adm = ClusterADM(
        AdmParams(backend=ClusterBackend.DBSCAN, eps=40.0, min_pts=4)
    ).fit(train, home.n_zones)
    full = AttackerCapability.full_access(home)
    schedule = shatter_schedule(home, adm, full, TouPricing(), evaluation)
    return home, adm, train, evaluation, schedule


def _capability(home, kind):
    if kind == "full":
        return AttackerCapability.full_access(home)
    if kind == "zones":
        return AttackerCapability.with_zones(home, [1, 2])
    full = AttackerCapability.full_access(home)
    return AttackerCapability(
        zones=full.zones,
        occupants=full.occupants,
        appliances=full.appliances,
        slot_range=(400, 2200),
    )


def _controller(home, kind, history):
    if kind == "dchvac":
        return DemandControlledHVAC(home)
    if kind == "ashrae":
        return AshraeController(home, ControllerConfig()).calibrate(history)
    return _SubclassedHVAC(home)


def _assert_outcomes_equal(expected, actual):
    for field in _VECTOR_FIELDS:
        assert np.array_equal(
            getattr(expected.vector, field), getattr(actual.vector, field)
        ), field
    for field in _RESULT_FIELDS:
        assert np.array_equal(
            getattr(expected.result, field), getattr(actual.result, field)
        ), field
    assert expected.result.start_slot == actual.result.start_slot
    assert np.array_equal(expected.applied_zone, actual.applied_zone)
    assert expected.trigger_decisions == actual.trigger_decisions
    assert expected.applied_visit_fraction == actual.applied_visit_fraction


@pytest.mark.parametrize("capability_kind", ["full", "zones", "slot_range"])
@pytest.mark.parametrize("triggering", [True, False])
def test_execute_attack_matches_oracle_across_capabilities(
    world, capability_kind, triggering
):
    home, adm, train, evaluation, schedule = world
    capability = _capability(home, capability_kind)
    controller = DemandControlledHVAC(home)
    kwargs = dict(adm=adm, enable_triggering=triggering, start_slot=4320)
    expected = execute_attack_reference(
        home, controller, evaluation, schedule, capability, **kwargs
    )
    _assert_outcomes_equal(
        expected,
        execute_attack(
            home, controller, evaluation, schedule, capability, **kwargs
        ),
    )
    # The limited capabilities must actually reject scheduled visits.
    assert (expected.applied_visit_fraction < 1.0) == (capability_kind != "full")
    assert bool(expected.trigger_decisions) == triggering


@pytest.mark.parametrize("controller_kind", ["ashrae", "subclass"])
@pytest.mark.parametrize("triggering", [True, False])
def test_execute_attack_matches_oracle_across_controllers(
    world, controller_kind, triggering
):
    home, adm, train, evaluation, schedule = world
    capability = AttackerCapability.full_access(home)
    controller = _controller(home, controller_kind, train)
    kwargs = dict(adm=adm, enable_triggering=triggering)
    _assert_outcomes_equal(
        execute_attack_reference(
            home, controller, evaluation, schedule, capability, **kwargs
        ),
        execute_attack(
            home, controller, evaluation, schedule, capability, **kwargs
        ),
    )


def test_execute_attack_matches_oracle_with_outdoor_profile(world):
    home, adm, _, evaluation, schedule = world
    capability = AttackerCapability.full_access(home)
    controller = DemandControlledHVAC(home)
    slots = np.arange(evaluation.n_slots + 60)
    outdoor = OutdoorConditions(
        temperature_f=80.0 + 12.0 * np.sin(slots / 1440.0 * 2 * np.pi),
        co2_ppm=420.0,
    )
    _assert_outcomes_equal(
        execute_attack_reference(
            home, controller, evaluation, schedule, capability, adm=adm,
            outdoor=outdoor,
        ),
        execute_attack(
            home, controller, evaluation, schedule, capability, adm=adm,
            outdoor=outdoor,
        ),
    )


def test_execute_attack_matches_oracle_large_home():
    """Nine zones take the simulation kernel's numpy-mirror metering."""
    (home, trace), = generate_home_fleet(1, n_zones=8, n_days=1, seed=3)
    spoofed = trace.occupant_zone.copy()
    rng = np.random.default_rng(1)
    for occupant in range(trace.n_occupants):
        for start in range(0, trace.n_slots, 120):
            window = slice(start, start + 60)
            if rng.random() < 0.5 and (spoofed[window, occupant] != 0).all():
                spoofed[window, occupant] = rng.integers(1, home.n_zones)
    schedule = AttackSchedule(
        spoofed_zone=spoofed,
        spoofed_activity=trace.occupant_activity.copy(),
        expected_reward=0.0,
    )
    capability = AttackerCapability.full_access(home)
    controller = DemandControlledHVAC(home)
    expected = execute_attack_reference(
        home, controller, trace, schedule, capability, enable_triggering=False
    )
    assert (expected.applied_zone != trace.occupant_zone).any()
    _assert_outcomes_equal(
        expected,
        execute_attack(
            home, controller, trace, schedule, capability, enable_triggering=False
        ),
    )


def test_short_outdoor_profile_is_a_control_error(world):
    home, adm, _, evaluation, schedule = world
    outdoor = OutdoorConditions(
        temperature_f=np.full(evaluation.n_slots - 1, 85.0)
    )
    with pytest.raises(ControlError, match="outdoor temperature profile"):
        execute_attack(
            home,
            DemandControlledHVAC(home),
            evaluation,
            schedule,
            AttackerCapability.full_access(home),
            adm=adm,
            outdoor=outdoor,
        )


# ----------------------------------------------------------------------
# BIoTA
# ----------------------------------------------------------------------


def _assert_schedules_equal(expected, actual):
    assert np.array_equal(expected.spoofed_zone, actual.spoofed_zone)
    assert np.array_equal(expected.spoofed_activity, actual.spoofed_activity)
    assert expected.spoofed_activity.dtype == actual.spoofed_activity.dtype
    assert expected.expected_reward == actual.expected_reward
    assert type(expected.expected_reward) is type(actual.expected_reward)
    assert expected.infeasible_days == actual.infeasible_days


@pytest.mark.parametrize(
    "case",
    ["full", "capacity_1", "tied_rewards", "one_occupant", "slot_range", "zones"],
)
def test_biota_matches_oracle(world, case):
    home, _, _, evaluation, _ = world
    capability = AttackerCapability.full_access(home)
    rules = BiotaRules()
    pricing = TouPricing()
    if case == "capacity_1":
        rules = BiotaRules(zone_capacity=1)
    elif case == "tied_rewards":
        # Free off-peak power ties every zone at zero reward: the pick
        # falls to zone order, and capacity 1 makes the order matter.
        rules = BiotaRules(zone_capacity=1)
        pricing = TouPricing(off_peak_rate=0.0)
    elif case == "one_occupant":
        capability = AttackerCapability(
            zones=capability.zones,
            occupants=frozenset({1}),
            appliances=capability.appliances,
        )
    elif case == "slot_range":
        capability = _capability(home, "slot_range")
    elif case == "zones":
        capability = _capability(home, "zones")
    expected = biota_greedy_attack_reference(
        home, capability, pricing, evaluation, rules=rules
    )
    actual = biota_greedy_attack(home, capability, pricing, evaluation, rules=rules)
    _assert_schedules_equal(expected, actual)
    assert isinstance(actual.expected_reward, np.float64)
    assert actual.expected_reward > 0


@pytest.mark.parametrize("case", ["no_occupants", "no_zones", "no_slots"])
def test_biota_without_spoofs_matches_oracle(world, case):
    """Nothing to spoof: the reward stays the plain ``0.0`` it starts as."""
    home, _, _, evaluation, _ = world
    full = AttackerCapability.full_access(home)
    capability = AttackerCapability(
        zones=frozenset({0}) if case == "no_zones" else full.zones,
        occupants=frozenset() if case == "no_occupants" else full.occupants,
        appliances=full.appliances,
        slot_range=(0, 0) if case == "no_slots" else None,
    )
    pricing = TouPricing()
    expected = biota_greedy_attack_reference(home, capability, pricing, evaluation)
    actual = biota_greedy_attack(home, capability, pricing, evaluation)
    _assert_schedules_equal(expected, actual)
    assert type(actual.expected_reward) is float
    assert np.array_equal(actual.spoofed_zone, evaluation.occupant_zone)
