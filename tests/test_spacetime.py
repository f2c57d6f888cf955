import math

import numpy as np
import pytest

from franson import (
    StationGeometry,
    check_emission_time_premise,
    classify_event_order,
)


class TestStationGeometry:
    def test_accepts_valid(self):
        g = StationGeometry(100.0, 20.0, 50.0)
        assert g.switch_period_ns == 50.0

    def test_infinite_switch_period_allowed(self):
        g = StationGeometry(100.0, 20.0, math.inf)
        assert math.isinf(g.switch_period_ns)

    @pytest.mark.parametrize(
        "dt,mdd,sw",
        [(0.0, 20.0, 50.0), (100.0, 0.0, 50.0), (100.0, 20.0, 0.0), (-5.0, 20.0, 50.0)],
    )
    def test_rejects_nonpositive_delays(self, dt, mdd, sw):
        with pytest.raises(ValueError):
            StationGeometry(dt, mdd, sw)

    @pytest.mark.parametrize("dt,mdd", [(math.nan, 20.0), (math.inf, 20.0), (100.0, math.nan)])
    def test_rejects_non_finite_delays(self, dt, mdd):
        with pytest.raises(ValueError, match="finite"):
            StationGeometry(dt, mdd, 50.0)


class TestPremiseCheck:
    def test_satisfied_with_margin(self):
        check = check_emission_time_premise(StationGeometry(100.0, 20.0, 50.0))
        assert check.satisfied
        assert check.margin_ns == pytest.approx(30.0)

    def test_violated_when_modulator_too_far(self):
        check = check_emission_time_premise(StationGeometry(10.0, 20.0, 1.0))
        assert not check.satisfied
        assert check.margin_ns == pytest.approx(-11.0)

    def test_zero_margin_is_not_enough(self):
        # a switch period exactly filling the gap leaves no fresh choice
        check = check_emission_time_premise(StationGeometry(100.0, 20.0, 80.0))
        assert not check.satisfied
        assert check.margin_ns == pytest.approx(0.0)

    def test_static_setting_never_satisfies(self):
        check = check_emission_time_premise(StationGeometry(100.0, 20.0, math.inf))
        assert not check.satisfied
        # the -inf margin is written as null, keeping the JSON strict
        assert check.to_json_dict() == {"satisfied": False, "margin_ns": None}

    def test_margin_monotone_in_geometry(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            dt = rng.uniform(1, 1000)
            mdd = rng.uniform(0.1, 500)
            sw = rng.uniform(0.1, 500)
            base = check_emission_time_premise(StationGeometry(dt, mdd, sw))
            wider = check_emission_time_premise(StationGeometry(dt + 10, mdd, sw))
            assert wider.margin_ns > base.margin_ns
            if base.satisfied:
                assert wider.satisfied

    def test_json_dict(self):
        d = check_emission_time_premise(StationGeometry(100.0, 20.0, 50.0)).to_json_dict()
        assert d == {"satisfied": True, "margin_ns": 30.0}


def times(order):
    """Each event's time by its label."""
    return {e.label: e.time_ns for e in order.events}


class TestEventOrder:
    def test_good_geometry_orders_late_readoff_after_early_detection(self):
        order = classify_event_order(StationGeometry(100.0, 20.0, 50.0))
        labels = [e.label for e in order.events]
        assert labels == [
            "early_setting_readoff",
            "early_detection",
            "late_setting_readoff",
            "late_detection",
        ]
        t = times(order)
        assert t["early_detection"] < t["late_setting_readoff"]
        assert not t["late_setting_readoff"] < t["early_detection"]

    def test_bad_geometry_reads_late_setting_too_soon(self):
        # modulator so far from the detector that the late setting is fixed
        # before the early alternative has passed
        t = times(classify_event_order(StationGeometry(100.0, 150.0, 10.0)))
        assert t["late_setting_readoff"] < t["early_detection"]

    def test_simultaneous_events_are_unordered(self):
        # path difference equal to the modulator delay puts the late
        # readoff exactly at the early detection
        t = times(classify_event_order(StationGeometry(100.0, 100.0, 10.0)))
        assert not t["early_detection"] < t["late_setting_readoff"]
        assert not t["late_setting_readoff"] < t["early_detection"]
        assert t["early_setting_readoff"] < t["late_detection"]

    def test_times_are_relative_to_early_detection(self):
        t = times(classify_event_order(StationGeometry(100.0, 20.0, 50.0)))
        assert t["early_detection"] == 0.0
        assert t["early_setting_readoff"] == -20.0
        assert t["late_setting_readoff"] == 80.0
        assert t["late_detection"] == 100.0
