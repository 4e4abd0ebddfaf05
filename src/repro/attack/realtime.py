"""Real-time attack execution against the closed-loop plant.

This is the second half of Section IV-C: the pre-computed schedule is
applied minute by minute against the *actual* occupant behaviour.  Each
spoofed visit is applied only if the attacker can reach both the real
zone and the claimed zone of every slot it covers (the paper's
feasibility condition); otherwise the visit falls back to reality.

The plant then runs with a *shadow model*.  The controller is fed IAQ
measurements forward-simulated under the spoofed story (exactly what
Eqs. 14-15 require of a consistent FDI vector: the spoofed CO2 and
temperature must follow the model's predictions).  Because the
controller reads only that shadow plant, the shadow run *is* a
closed-loop simulation of the *shadow trace* — the applied spoofed
occupancy and activities, with the real appliance status plus the
triggered appliances — so :func:`~repro.hvac.simulation.simulate`
produces the commanded airflow, the energy meters and the shadow
CO2/temperature in one kernel call.

The physical zones evolve under the true occupants, the true (and
triggered) appliances, and that airflow.  Given the airflow, the true
plant is open loop: :func:`_drive_plant` steps each conditioned zone's
recurrence on its own.  The difference between shadow and true IAQ is
the δ the attacker injects.

The original implementation, which stepped both plants minute by minute
with one ``controller.decide`` call per slot, is preserved in
:mod:`repro.oracles.realtime`; the two agree array for array.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.adm.cluster_model import ClusterADM
from repro.attack.model import AttackerCapability, AttackVector
from repro.attack.schedule import AttackSchedule
from repro.attack.trigger import TriggerDecision, appliance_triggering_decisions
from repro.errors import AttackError
from repro.events.dispatch import ATTACK_EXECUTION, record_kernel
from repro.home.builder import SmartHome
from repro.home.state import HomeTrace
from repro.hvac.controller import ControllerConfig
from repro.hvac.pricing import TouPricing
from repro.hvac.simulation import (
    OutdoorConditions,
    SimulationResult,
    appliance_gain_tables,
    occupant_gain_matrices,
    simulate,
)
from repro.units import SENSIBLE_HEAT_FACTOR


@dataclass
class AttackOutcome:
    """Everything produced by executing an attack.

    Attributes:
        vector: The δ attack vector actually injected.
        result: Plant trajectories and energy under attack.
        applied_zone: The reported occupancy after feasibility
            filtering, ``[T, O]``.
        trigger_decisions: Algorithm 1's positive decisions.
        applied_visit_fraction: Share of scheduled spoofed visits that
            survived the real-time feasibility check.
    """

    vector: AttackVector
    result: SimulationResult
    applied_zone: np.ndarray
    trigger_decisions: list[TriggerDecision]
    applied_visit_fraction: float

    def cost(self, pricing: TouPricing) -> float:
        return self.result.cost(pricing)


def _apply_visit_feasibility(
    schedule: AttackSchedule,
    actual_trace: HomeTrace,
    capability: AttackerCapability,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Filter scheduled visits by real-time accessibility.

    A spoofed visit (a maximal run of one claimed zone) is applied only
    if, at every slot it covers, the attacker can read/alter the sensors
    of both the actual zone and the claimed zone and the slot is inside
    ``T^A``.  Rejected visits revert to the actual behaviour, keeping
    granularity at visit level so the reported stream stays
    visit-consistent.  Runs are found and judged per occupant with
    segment reductions (``reduceat``) over per-slot masks.
    """
    actual_zone = actual_trace.occupant_zone
    actual_activity = actual_trace.occupant_activity
    applied_zone = actual_zone.copy()
    applied_activity = actual_activity.copy()
    n_slots, n_occupants = applied_zone.shape
    if applied_zone.size == 0:
        return applied_zone, applied_activity, 1.0
    attackable = capability.attackable_slots(n_slots)
    spoofable = capability.spoofable_zones(
        int(max(actual_zone.max(), schedule.spoofed_zone.max())) + 1
    )
    scheduled_visits = 0
    applied_visits = 0
    for occupant in range(n_occupants):
        if occupant not in capability.occupants:
            continue
        spoofed = schedule.spoofed_zone[:, occupant]
        spoofed_activity = schedule.spoofed_activity[:, occupant]
        starts = np.flatnonzero(
            np.concatenate(([True], spoofed[1:] != spoofed[:-1]))
        )
        differs = (actual_zone[:, occupant] != spoofed) | (
            actual_activity[:, occupant] != spoofed_activity
        )
        reachable = (
            attackable & spoofable[spoofed] & spoofable[actual_zone[:, occupant]]
        )
        changes = np.logical_or.reduceat(differs, starts)
        feasible = changes & np.logical_and.reduceat(reachable, starts)
        scheduled_visits += int(changes.sum())
        applied_visits += int(feasible.sum())
        rows = np.repeat(feasible, np.diff(np.append(starts, n_slots)))
        applied_zone[rows, occupant] = spoofed[rows]
        applied_activity[rows, occupant] = spoofed_activity[rows]
    fraction = applied_visits / scheduled_visits if scheduled_visits else 1.0
    return applied_zone, applied_activity, fraction


def execute_attack(
    home: SmartHome,
    controller,
    actual_trace: HomeTrace,
    schedule: AttackSchedule,
    capability: AttackerCapability,
    adm: ClusterADM | None = None,
    enable_triggering: bool = True,
    outdoor: OutdoorConditions | None = None,
    start_slot: int = 0,
) -> AttackOutcome:
    """Execute a schedule against the plant and assemble the δ vector.

    Args:
        home: The target home.
        controller: The victim controller (``decide`` + ``config``).
        actual_trace: Ground-truth behaviour over the attack span.
        schedule: The pre-computed attack schedule.
        capability: Accessibility constraints.
        adm: The attacker's ADM, needed for Algorithm 1's ``minStay``;
            required when ``enable_triggering``.
        enable_triggering: Run the appliance-triggering attack on top of
            the measurement-manipulation attack (Fig. 10's toggle).
        outdoor: Weather.
        start_slot: Absolute slot of the first sample (pricing phase).

    Returns:
        The outcome with vector, plant result, and diagnostics.

    Raises:
        AttackError: Triggering is enabled without an ADM.
        ControlError: A per-slot outdoor profile is shorter than the span.
    """
    started = time.perf_counter()
    outdoor = outdoor or OutdoorConditions()
    outdoor_temps = outdoor.temperature_array(actual_trace.n_slots)
    applied_zone, applied_activity, fraction = _apply_visit_feasibility(
        schedule, actual_trace, capability
    )

    if enable_triggering:
        if adm is None:
            raise AttackError("appliance triggering needs the attacker's ADM")
        applied_schedule = AttackSchedule(
            spoofed_zone=applied_zone,
            spoofed_activity=applied_activity,
            expected_reward=schedule.expected_reward,
            infeasible_days=schedule.infeasible_days,
        )
        triggered, decisions = appliance_triggering_decisions(
            home, adm, applied_schedule, actual_trace, capability
        )
    else:
        triggered = np.zeros(
            (actual_trace.n_slots, home.n_appliances), dtype=bool
        )
        decisions = []

    # Triggered appliances really turn on: both plants see them.
    status = actual_trace.appliance_status | triggered
    own_seconds = time.perf_counter() - started

    # The controller sees the spoofed story end to end: shadow IAQ,
    # spoofed occupancy/activity, and the (attacked) appliance status.
    shadow = simulate(
        home,
        HomeTrace(applied_zone, applied_activity, status),
        controller,
        outdoor=outdoor,
        start_slot=start_slot,
    )

    started = time.perf_counter()
    emission, occupant_heat = occupant_gain_matrices(
        home, actual_trace.occupant_zone, actual_trace.occupant_activity
    )
    appliance_heat, _, _ = appliance_gain_tables(home, status)
    true_co2, true_temp = _drive_plant(
        home,
        controller.config,
        shadow.airflow_cfm,
        emission,
        occupant_heat + appliance_heat,
        outdoor.co2_ppm,
        outdoor_temps,
    )

    vector = AttackVector(
        spoofed_zone=applied_zone,
        spoofed_activity=applied_activity,
        delta_co2=shadow.co2_ppm - true_co2,
        delta_temperature=shadow.temperature_f - true_temp,
        triggered=triggered,
    )
    result = SimulationResult(
        airflow_cfm=shadow.airflow_cfm,
        co2_ppm=true_co2,
        temperature_f=true_temp,
        hvac_kwh=shadow.hvac_kwh,
        appliance_kwh=shadow.appliance_kwh,
        start_slot=start_slot,
    )
    # One attack_execution sample per call, excluding the nested
    # simulate (timed as SIMULATION) so the two kernels never overlap.
    record_kernel(
        ATTACK_EXECUTION, own_seconds + time.perf_counter() - started
    )
    return AttackOutcome(
        vector=vector,
        result=result,
        applied_zone=applied_zone,
        trigger_decisions=decisions,
        applied_visit_fraction=fraction,
    )


def _drive_plant(
    home: SmartHome,
    config: ControllerConfig,
    airflow: np.ndarray,
    emission: np.ndarray,
    heat: np.ndarray,
    outdoor_co2: float,
    outdoor_temps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Step the physical zones under a known airflow, ``([T, Z], [T, Z])``.

    With the airflow fixed the zones do not interact, so each
    conditioned zone is one scalar recurrence over ``t``, evaluated with
    the simulator's physics-step operation order (exchange clipped at
    one volume per minute, then CO2, then temperature).  Inert zones
    stay at the outdoor CO2 and the temperature setpoint.

    Args:
        home: The home (zone volumes, which zones are conditioned).
        config: Controller configuration (thermal mass, envelope,
            supply air, setpoint).
        airflow: Commanded airflow per zone, ``[T, Z]``.
        emission: True occupant CO2 generation, ``[T, Z]`` ft³/min.
        heat: True occupant plus appliance heat, ``[T, Z]`` watts.
        outdoor_co2: Outdoor CO2 concentration.
        outdoor_temps: Outdoor temperature per slot, ``[T]``.

    Returns:
        The true CO2 and temperature trajectories.
    """
    n_slots, n_zones = airflow.shape
    co2_out = np.full((n_slots, n_zones), float(outdoor_co2))
    temp_out = np.full((n_slots, n_zones), float(config.temperature_setpoint_f))
    outdoor_list = outdoor_temps.tolist()
    supply = config.supply_temperature_f
    for zone in home.layout.conditioned_ids:
        volume = float(home.layout[zone].volume_ft3)
        capacity = config.mass_factor * volume * SENSIBLE_HEAT_FACTOR
        conductance = config.envelope_conductance(volume)
        flow = airflow[:, zone]
        exchange = np.minimum(flow / volume, 1.0).tolist()
        generation = (emission[:, zone] / volume * 1e6).tolist()
        cooling_rate = (flow * SENSIBLE_HEAT_FACTOR).tolist()
        gains = heat[:, zone].tolist()
        co2_path = [0.0] * n_slots
        temp_path = [0.0] * n_slots
        co2 = float(outdoor_co2)
        temp = float(config.temperature_setpoint_f)
        for t in range(n_slots):
            co2 = co2 + generation[t] - exchange[t] * (co2 - outdoor_co2)
            cooling = cooling_rate[t] * (temp - supply)
            leakage = conductance * (outdoor_list[t] - temp)
            temp = temp + (gains[t] - cooling + leakage) / capacity
            co2_path[t] = co2
            temp_path[t] = temp
        co2_out[:, zone] = co2_path
        temp_out[:, zone] = temp_path
    return co2_out, temp_out
