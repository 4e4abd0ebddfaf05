"""BIoTA's greedy spoof as a per-slot loop, kept as the equivalence oracle.

:func:`repro.attack.biota.biota_greedy_attack` ranks zones and picks the
first open one for every slot of an (occupant, day) at once; this module
preserves the original per-slot loop with its ``sorted`` zone ranking
and per-zone headcount scans.  The equivalence tests and
``benchmarks/bench_hotpaths.py`` compare the two schedules, reward type
included; nothing in the library imports this module.
"""

from __future__ import annotations

from repro.attack.biota import BiotaRules
from repro.attack.model import AttackerCapability
from repro.attack.schedule import AttackSchedule, ScheduleConfig, _day_rewards
from repro.errors import AttackError
from repro.home.builder import SmartHome
from repro.home.state import HomeTrace
from repro.hvac.controller import ControllerConfig
from repro.hvac.pricing import TouPricing
from repro.units import MINUTES_PER_DAY


def biota_greedy_attack_reference(
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

    total_reward = 0.0
    n_days = n_slots // MINUTES_PER_DAY
    for occupant in home.occupants:
        if occupant.occupant_id not in capability.occupants:
            continue
        for day in range(n_days):
            day_start = day * MINUTES_PER_DAY
            rewards, best_activity = _day_rewards(
                home,
                occupant.occupant_id,
                zones,
                pricing,
                controller_config,
                config,
                day_start,
            )
            for offset in range(MINUTES_PER_DAY):
                t = day_start + offset
                if not capability.can_attack_slot(t):
                    continue
                actual = int(actual_trace.occupant_zone[t, occupant.occupant_id])
                if actual == 0:
                    continue  # entrance count rule pins them outside
                if not capability.can_spoof_zone(actual):
                    continue
                # Best zone with remaining capacity this slot.
                for zone in sorted(zones, key=lambda z: -rewards[z, offset]):
                    already = int((spoofed_zone[t] == zone).sum())
                    occupied_here = (
                        int(spoofed_zone[t, occupant.occupant_id]) == zone
                    )
                    if not occupied_here and already >= rules.zone_capacity:
                        continue
                    spoofed_zone[t, occupant.occupant_id] = zone
                    spoofed_activity[t, occupant.occupant_id] = best_activity[zone]
                    total_reward += rewards[zone, offset]
                    break
    return AttackSchedule(
        spoofed_zone=spoofed_zone,
        spoofed_activity=spoofed_activity,
        expected_reward=total_reward,
    )
