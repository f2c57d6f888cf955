"""Event-level simulation and analysis of energy-time entanglement tests.

The package simulates interferometric Bell tests photon pair by photon
pair, postselects coincidences from raw detection times, evaluates chained
correlation statistics against the bounds of several local-realist model
classes, and searches those classes' strategy spaces to verify the bounds.

The public names of ``strategyopt`` (the game solver) and ``spacetime``
(the station geometry checker) are provided lazily: each module is
imported on the first use of one of its names, so ``simulate``,
``report``, ``bounds`` and ``visibility`` start without them.
"""

import importlib

from .core import (
    RandomSource,
    ResourceLimitError,
    Setting,
    SettingsChain,
    chain_settings,
    draw_uniforms,
    random_settings_chain,
    reduce_phase,
    setting_key,
)
from .inequalities import (
    CellEstimate,
    CorrelationTable,
    ModelClass,
    ModelKind,
    Verdict,
    bound_for,
    chained_statistic,
    critical_visibility,
    evaluate,
    statistic_stderr,
    threshold_efficiency,
)
from .lhv import (
    LocalStrategy,
    ModelStatistics,
    TrialBatch,
    aklz_quadrature,
    aklz_strategy,
    monte_carlo_statistics,
    simulate_strategy_pairs,
)
from .quantum import (
    chained_quantum_value,
    franson_correlation,
    sample_franson_events,
)
from .setups import (
    SetupRun,
    SetupVariant,
    expected_coincidence_fraction,
    model_class_for,
    path_is_element_of_reality,
    sample_setup_pairs,
    simulate_setup,
)
from .timing import (
    EfficiencyReport,
    EventColumns,
    InterferometerTiming,
    PairColumns,
    PostselectionResult,
    correlation_from_pairs,
    emit_events_from_batch,
    postselect,
    read_events_csv,
    write_events_csv,
)

__version__ = "0.1.0"

# public names imported with their module on first use, and that module
_LAZY = {
    **dict.fromkeys(
        (
            "EventOrder",
            "PremiseCheck",
            "StationGeometry",
            "TimelineEvent",
            "check_emission_time_premise",
            "classify_event_order",
        ),
        "spacetime",
    ),
    **dict.fromkeys(
        (
            "BoundReport",
            "DeterministicVertex",
            "GameEvaluation",
            "GameSpec",
            "MaxStatisticResult",
            "MixedStrategy",
            "OptimizerBudget",
            "SiteVertex",
            "aklz_mixed_strategy",
            "emission_time_lp_value",
            "evaluate_mixed",
            "max_statistic",
            "verify_bound",
        ),
        "strategyopt",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        # so that ``from franson import strategyopt`` imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "BoundReport",
    "CellEstimate",
    "CorrelationTable",
    "DeterministicVertex",
    "EfficiencyReport",
    "EventColumns",
    "EventOrder",
    "GameEvaluation",
    "GameSpec",
    "InterferometerTiming",
    "LocalStrategy",
    "MaxStatisticResult",
    "MixedStrategy",
    "ModelClass",
    "ModelKind",
    "ModelStatistics",
    "OptimizerBudget",
    "PairColumns",
    "PostselectionResult",
    "PremiseCheck",
    "RandomSource",
    "ResourceLimitError",
    "Setting",
    "SettingsChain",
    "SetupRun",
    "SetupVariant",
    "SiteVertex",
    "StationGeometry",
    "TimelineEvent",
    "TrialBatch",
    "Verdict",
    "aklz_mixed_strategy",
    "aklz_quadrature",
    "aklz_strategy",
    "bound_for",
    "chain_settings",
    "chained_quantum_value",
    "chained_statistic",
    "check_emission_time_premise",
    "classify_event_order",
    "correlation_from_pairs",
    "critical_visibility",
    "draw_uniforms",
    "emission_time_lp_value",
    "emit_events_from_batch",
    "evaluate",
    "evaluate_mixed",
    "expected_coincidence_fraction",
    "franson_correlation",
    "max_statistic",
    "model_class_for",
    "monte_carlo_statistics",
    "path_is_element_of_reality",
    "postselect",
    "random_settings_chain",
    "read_events_csv",
    "reduce_phase",
    "sample_franson_events",
    "sample_setup_pairs",
    "setting_key",
    "simulate_setup",
    "simulate_strategy_pairs",
    "statistic_stderr",
    "threshold_efficiency",
    "verify_bound",
    "write_events_csv",
]
