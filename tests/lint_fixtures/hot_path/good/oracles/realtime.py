"""The oracle package may step the controller and import its siblings."""

from repro.oracles.biota import biota_greedy_attack_reference


def execute_attack_reference(home, controller, trace):
    decisions = [controller.decide(row) for row in trace]
    return decisions, biota_greedy_attack_reference(home)
