"""Round-trip tests for attack-vector and report serialization."""

import numpy as np
import pytest

from repro.attack.model import AttackVector
from repro.core.report import AttackReport, CostBreakdown
from repro.core.serialization import (
    attack_report_from_dict,
    attack_report_to_dict,
    attack_vector_from_dict,
    attack_vector_to_dict,
    load_attack_report,
    load_attack_vector,
    save_attack_report,
    save_attack_vector,
)
from repro.errors import ConfigurationError


def _vector() -> AttackVector:
    rng = np.random.default_rng(3)
    n_slots, n_occupants, n_zones, n_appliances = 20, 2, 5, 4
    return AttackVector(
        spoofed_zone=rng.integers(0, n_zones, size=(n_slots, n_occupants)),
        spoofed_activity=rng.integers(1, 28, size=(n_slots, n_occupants)),
        delta_co2=rng.normal(size=(n_slots, n_zones)),
        delta_temperature=rng.normal(size=(n_slots, n_zones)),
        triggered=rng.random(size=(n_slots, n_appliances)) > 0.8,
    )


def _report() -> AttackReport:
    breakdown = CostBreakdown(total=10.0, hvac=7.0, appliance=3.0, daily=(5.0, 5.0))
    return AttackReport(
        home_name="ARAS House A",
        adm_backend="dbscan",
        knowledge="all",
        benign=breakdown,
        shatter=breakdown,
        shatter_triggered=breakdown,
        greedy=breakdown,
        biota=breakdown,
        biota_flagged=0.95,
        shatter_flagged=0.0,
        greedy_flagged=0.1,
        trigger_count=42,
        extras={"x": 1.5},
    )


def test_vector_dict_round_trip():
    vector = _vector()
    rebuilt = attack_vector_from_dict(attack_vector_to_dict(vector))
    assert np.array_equal(rebuilt.spoofed_zone, vector.spoofed_zone)
    assert np.array_equal(rebuilt.triggered, vector.triggered)
    assert np.allclose(rebuilt.delta_co2, vector.delta_co2)


def test_vector_file_round_trip(tmp_path):
    vector = _vector()
    path = tmp_path / "vector.json"
    save_attack_vector(vector, path)
    rebuilt = load_attack_vector(path)
    assert np.array_equal(rebuilt.spoofed_activity, vector.spoofed_activity)
    assert rebuilt.triggered.dtype == bool


def test_vector_rejects_bad_version():
    payload = attack_vector_to_dict(_vector())
    payload["format_version"] = 99
    with pytest.raises(ConfigurationError):
        attack_vector_from_dict(payload)


@pytest.mark.parametrize(
    "to_dict, from_dict, make, field",
    [
        (attack_vector_to_dict, attack_vector_from_dict, _vector, "delta_co2"),
        (attack_report_to_dict, attack_report_from_dict, _report, "adm_backend"),
    ],
    ids=["vector", "report"],
)
def test_codec_rejects_missing_field(to_dict, from_dict, make, field):
    payload = to_dict(make())
    del payload[field]
    with pytest.raises(ConfigurationError, match=field):
        from_dict(payload)


def test_report_dict_round_trip():
    report = _report()
    rebuilt = attack_report_from_dict(attack_report_to_dict(report))
    assert rebuilt.home_name == report.home_name
    assert rebuilt.benign.total == report.benign.total
    assert rebuilt.benign.daily == report.benign.daily
    assert rebuilt.extras == report.extras
    assert rebuilt.trigger_count == 42


def test_report_file_round_trip(tmp_path):
    report = _report()
    path = tmp_path / "report.json"
    save_attack_report(report, path)
    rebuilt = load_attack_report(path)
    assert rebuilt.shatter_flagged == report.shatter_flagged
    assert rebuilt.triggering_gain == pytest.approx(report.triggering_gain)


def test_report_rejects_bad_version():
    payload = attack_report_to_dict(_report())
    payload["format_version"] = 0
    with pytest.raises(ConfigurationError):
        attack_report_from_dict(payload)
