"""Spacetime layout checks for the two-setting timing argument.

The emission-time analysis needs each photon's late detection to be
governed by a setting chosen only after the early detection alternative has
already passed.  Whether a given interferometer geometry actually enforces
that is pure arithmetic on three delays, collected here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class StationGeometry:
    """Per-station delays, in nanoseconds.

    path_difference_ns: arm-length imbalance of the analyzing
    interferometer (late minus early arrival).
    modulator_to_detector_ns: light travel time from the phase modulator to
    the detector along the optical path.
    switch_period_ns: time between independent fresh choices of the phase
    setting; may be ``inf`` for a static setting.
    """

    path_difference_ns: float
    modulator_to_detector_ns: float
    switch_period_ns: float

    def __post_init__(self) -> None:
        delays = (self.path_difference_ns, self.modulator_to_detector_ns)
        if not all(math.isfinite(d) and d > 0.0 for d in delays):
            raise ValueError("delays must be positive and finite")
        if not (self.switch_period_ns > 0.0):
            raise ValueError("switch period must be positive (inf allowed)")


@dataclass(frozen=True)
class PremiseCheck:
    """Result of the two-setting timing test.

    A static setting (infinite switch period) has margin -inf, which the
    JSON form writes as null.
    """

    satisfied: bool
    margin_ns: float

    def to_json_dict(self) -> dict:
        margin = self.margin_ns if math.isfinite(self.margin_ns) else None
        return {"satisfied": self.satisfied, "margin_ns": margin}


def check_emission_time_premise(geometry: StationGeometry) -> PremiseCheck:
    """Decide whether late detections see a setting chosen after the early one.

    Requires strictly path_difference > modulator-to-detector delay, and a
    switch period strictly below their difference, so a fresh setting is
    always drawn between the early and late readoff times.  The margin is
    path_difference - modulator_to_detector - switch_period; zero margin
    does not satisfy the premise.
    """
    dt = geometry.path_difference_ns
    mdd = geometry.modulator_to_detector_ns
    sw = geometry.switch_period_ns
    margin = dt - mdd - sw
    satisfied = (dt > mdd) and (sw < dt - mdd)
    return PremiseCheck(satisfied=satisfied, margin_ns=margin)


@dataclass(frozen=True)
class TimelineEvent:
    label: str
    time_ns: float


@dataclass(frozen=True)
class EventOrder:
    """Events around one detection, sorted in time."""

    events: tuple[TimelineEvent, ...]


def classify_event_order(geometry: StationGeometry) -> EventOrder:
    """Timeline of setting readoffs and detection alternatives at one station.

    Times are relative to the early detection alternative.  The setting
    read off for an arrival is the one present at the modulator one
    modulator-to-detector delay beforehand.  Simultaneous events keep
    the order listed here.
    """
    mdd = geometry.modulator_to_detector_ns
    dt = geometry.path_difference_ns
    raw = [
        TimelineEvent("early_setting_readoff", -mdd),
        TimelineEvent("early_detection", 0.0),
        TimelineEvent("late_setting_readoff", dt - mdd),
        TimelineEvent("late_detection", dt),
    ]
    return EventOrder(events=tuple(sorted(raw, key=lambda e: e.time_ns)))
