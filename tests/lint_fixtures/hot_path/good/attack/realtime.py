"""Attack executor that leaves the controller to the simulation kernel."""

from repro.hvac.simulation import simulate


def execute_attack(home, controller, shadow_trace):
    return simulate(home, shadow_trace, controller)
