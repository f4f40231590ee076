"""Scenario orchestration: the Nov/Dec 2015 event simulation."""

from .arrays import diff_arrays, result_arrays
from .config import ScenarioConfig
from .engine import (
    BASELINE_DATES,
    EVENT_DATES,
    LetterTruth,
    ScenarioResult,
    Substrate,
    build_substrate,
    simulate,
    substrate_signature,
)
from .nl import COLOCATED_NODES, STANDALONE_NODES, NlConfig, NlService
from .presets import (
    JUNE2016_EVENT,
    JUNE2016_EVENTS,
    JUNE2016_WINDOW_START,
    QUIET_WINDOW_START,
    june2016_config,
    nov2015_config,
    quiet_config,
)

__all__ = [
    "BASELINE_DATES",
    "COLOCATED_NODES",
    "EVENT_DATES",
    "LetterTruth",
    "NlConfig",
    "NlService",
    "JUNE2016_EVENT",
    "JUNE2016_EVENTS",
    "JUNE2016_WINDOW_START",
    "QUIET_WINDOW_START",
    "STANDALONE_NODES",
    "ScenarioConfig",
    "ScenarioResult",
    "Substrate",
    "build_substrate",
    "diff_arrays",
    "june2016_config",
    "nov2015_config",
    "quiet_config",
    "result_arrays",
    "simulate",
    "substrate_signature",
]
