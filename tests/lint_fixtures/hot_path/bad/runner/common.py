"""Library code importing the test-support oracles, in both spellings."""

import repro.oracles.biota
from repro import oracles


def baseline(home):
    return repro.oracles.biota.biota_greedy_attack_reference(home), oracles
