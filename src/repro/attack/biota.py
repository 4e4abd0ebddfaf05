"""Reimplementation of the BIoTA baseline framework (Haque et al. 2021).

BIoTA is the state of the art the paper measures itself against
(Table I): a *rule-based* defense — zone capacity, occupant-count
conservation, IAQ measurement consistency — and a *greedy* FDI attack
that teleports every accessible occupant to the most rewarding zone
with no regard for temporal behaviour.  Against the rules alone this is
optimal; against a clustering ADM it produces wildly implausible visits,
which is why Table V reports 60-100% of BIoTA vectors being flagged.

The module also generates the labelled attack datasets used to score
the ADMs in Table IV and Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.model import AttackerCapability
from repro.attack.schedule import AttackSchedule, ScheduleConfig, _day_rewards
from repro.errors import AttackError
from repro.home.builder import SmartHome
from repro.home.state import HomeTrace
from repro.hvac.controller import ControllerConfig
from repro.hvac.pricing import TouPricing
from repro.units import MINUTES_PER_DAY


@dataclass(frozen=True)
class BiotaRules:
    """BIoTA's verification rules.

    Attributes:
        zone_capacity: Maximum headcount per conditioned zone.
        co2_bounds_ppm: Plausible CO2 measurement range.
        temperature_bounds_f: Plausible temperature range.
    """

    zone_capacity: int = 4
    co2_bounds_ppm: tuple[float, float] = (350.0, 2500.0)
    temperature_bounds_f: tuple[float, float] = (50.0, 95.0)

    def occupancy_consistent(
        self, spoofed_zone: np.ndarray, actual_zone: np.ndarray
    ) -> bool:
        """Capacity and count-conservation rules.

        The entrance sensor fixes the number of people inside the home,
        so a consistent spoof keeps the per-slot at-home headcount equal
        to reality and never exceeds zone capacity.
        """
        if spoofed_zone.shape != actual_zone.shape:
            return False
        at_home_spoofed = (spoofed_zone != 0).sum(axis=1)
        at_home_actual = (actual_zone != 0).sum(axis=1)
        if not np.array_equal(at_home_spoofed, at_home_actual):
            return False
        n_zones = int(max(spoofed_zone.max(), actual_zone.max())) + 1
        for zone in range(1, n_zones):
            if ((spoofed_zone == zone).sum(axis=1) > self.zone_capacity).any():
                return False
        return True

    def iaq_consistent(self, co2_ppm: np.ndarray, temperature_f: np.ndarray) -> bool:
        """Range rules on the IAQ channels."""
        co2_ok = bool(
            (co2_ppm >= self.co2_bounds_ppm[0]).all()
            and (co2_ppm <= self.co2_bounds_ppm[1]).all()
        )
        temp_ok = bool(
            (temperature_f >= self.temperature_bounds_f[0]).all()
            and (temperature_f <= self.temperature_bounds_f[1]).all()
        )
        return co2_ok and temp_ok


def biota_greedy_attack(
    home: SmartHome,
    capability: AttackerCapability,
    pricing: TouPricing,
    actual_trace: HomeTrace,
    rules: BiotaRules | None = None,
    controller_config: ControllerConfig | None = None,
    config: ScheduleConfig | None = None,
) -> AttackSchedule:
    """BIoTA's greedy FDI: every occupant to the best zone, all day.

    Only the rule set constrains the spoof: at-home occupants are
    re-reported in the most rewarding accessible zone (respecting
    capacity); occupants actually outside stay outside (the entrance
    count rule pins them).

    Occupants are placed one after another, so later occupants see the
    headcounts earlier spoofs left; within one (occupant, day) the
    slots are independent and are decided together.  The per-slot
    original is :mod:`repro.oracles.biota`.
    """
    rules = rules or BiotaRules()
    controller_config = controller_config or ControllerConfig()
    config = config or ScheduleConfig()
    n_slots = actual_trace.n_slots
    if n_slots % MINUTES_PER_DAY != 0:
        raise AttackError("attack traces must cover whole days")

    spoofed_zone = actual_trace.occupant_zone.copy()
    spoofed_activity = actual_trace.occupant_activity.copy()
    zones = [z for z in capability.schedulable_zones(home) if z != 0]
    if not zones:
        return AttackSchedule(
            spoofed_zone=spoofed_zone,
            spoofed_activity=spoofed_activity,
            expected_reward=0.0,
        )

    zone_ids = np.array(zones)
    attackable = capability.attackable_slots(n_slots)
    spoofable = capability.spoofable_zones(home.n_zones)
    # Python-float left fold over the picked rewards in (occupant, day,
    # slot) order; it becomes a numpy float64 once anything is added,
    # exactly as accumulating the table's float64 entries would.
    total_reward = 0.0
    picked_any = False
    n_days = n_slots // MINUTES_PER_DAY
    for occupant in home.occupants:
        occupant_id = occupant.occupant_id
        if occupant_id not in capability.occupants:
            continue
        for day in range(n_days):
            day_start = day * MINUTES_PER_DAY
            day_slots = slice(day_start, day_start + MINUTES_PER_DAY)
            actual = actual_trace.occupant_zone[day_slots, occupant_id]
            # Outside stays outside: the entrance count rule pins them.
            eligible = attackable[day_slots] & (actual != 0) & spoofable[actual]
            if not eligible.any():
                continue
            rewards, best_activity = _day_rewards(
                home,
                occupant_id,
                zones,
                pricing,
                controller_config,
                config,
                day_start,
            )
            # Zones best-first per slot; the stable sort keeps the
            # capability's zone order among equal rewards.
            ranking = np.argsort(-rewards[zone_ids], axis=0, kind="stable")
            # Headcounts include earlier occupants' spoofs.  A zone is
            # open if it has spare capacity or already holds this
            # occupant.
            current = spoofed_zone[day_slots]
            headcount = (current[:, :, None] == zone_ids).sum(axis=1)
            here = current[:, occupant_id, None] == zone_ids
            is_open = (headcount < rules.zone_capacity) | here
            ranked_open = np.take_along_axis(is_open.T, ranking, axis=0)
            picked = np.flatnonzero(eligible & ranked_open.any(axis=0))
            if not len(picked):
                continue
            first = ranked_open[:, picked].argmax(axis=0)
            picked_zones = zone_ids[ranking[first, picked]]
            spoofed_zone[day_start + picked, occupant_id] = picked_zones
            for zone in np.unique(picked_zones).tolist():
                rows = picked[picked_zones == zone]
                spoofed_activity[day_start + rows, occupant_id] = (
                    best_activity[zone]
                )
            for value in rewards[picked_zones, picked].tolist():
                total_reward += value
            picked_any = True
    return AttackSchedule(
        spoofed_zone=spoofed_zone,
        spoofed_activity=spoofed_activity,
        expected_reward=np.float64(total_reward) if picked_any else 0.0,
    )


def biota_attack_samples(
    home: SmartHome,
    actual_trace: HomeTrace,
    pricing: TouPricing,
    seed: int = 0,
    windows_per_day: int = 3,
    window_minutes: tuple[int, int] = (30, 150),
) -> tuple[HomeTrace, np.ndarray]:
    """Labelled BIoTA-attacked data for ADM scoring (Table IV, Fig. 5).

    Random windows of each day are attacked with the greedy spoof;
    everything else stays benign.  Returns the attacked *reported*
    trace and a per-slot boolean label array ``[T, O]`` marking which
    (slot, occupant) entries were falsified.
    """
    rng = np.random.default_rng(seed)
    capability = AttackerCapability.full_access(home)
    schedule = biota_greedy_attack(home, capability, pricing, actual_trace)
    reported = actual_trace.copy()
    labels = np.zeros(actual_trace.occupant_zone.shape, dtype=bool)
    n_days = actual_trace.n_slots // MINUTES_PER_DAY
    for day in range(n_days):
        day_start = day * MINUTES_PER_DAY
        for _ in range(windows_per_day):
            length = int(rng.integers(window_minutes[0], window_minutes[1]))
            start = day_start + int(rng.integers(0, MINUTES_PER_DAY - length))
            stop = start + length
            occupant = int(rng.integers(0, actual_trace.n_occupants))
            window_spoof = schedule.spoofed_zone[start:stop, occupant]
            window_actual = actual_trace.occupant_zone[start:stop, occupant]
            if np.array_equal(window_spoof, window_actual):
                continue
            reported.occupant_zone[start:stop, occupant] = window_spoof
            reported.occupant_activity[start:stop, occupant] = (
                schedule.spoofed_activity[start:stop, occupant]
            )
            labels[start:stop, occupant] = (window_spoof != window_actual)
    return reported, labels
