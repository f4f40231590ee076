"""Deterministic parallel sweep engine.

Runs grids of :class:`~repro.scenario.config.ScenarioConfig`
variations (plus seed replication) across a supervised process pool,
with per-worker substrate caching, structured progress events,
replicate aggregation, crash-safe checkpointing, and retry/timeout
handling -- while guaranteeing outputs bit-identical to a serial,
uninterrupted run.  Each worker builds the substrates it needs from
the cell configs.  See ``docs/architecture.md`` ("Parallel sweeps"
and "Fault-tolerant sweeps").
"""

from .aggregate import CellSummary, MetricSummary, summarize
from .chaos import CHAOS_ENV, ChaosError, parse_chaos
from .checkpoint import (
    CheckpointData,
    CheckpointError,
    CheckpointWriter,
    load_checkpoint,
    resume_command,
    spec_digest,
)
from .metrics import cell_metrics
from .progress import (
    CELL_DONE,
    CELL_FAILED,
    CELL_RESTORED,
    CELL_RETRY,
    SWEEP_DONE,
    SWEEP_START,
    ProgressCallback,
    ProgressEvent,
)
from .runner import (
    SweepInterrupted,
    SweepResult,
    backoff_schedule_s,
    default_chunk_size,
    default_start_method,
    leaked_segments,
    run_sweep,
    summaries_records,
)
from .spec import SweepCell, SweepSpec, replicate_seeds

__all__ = [
    "CELL_DONE",
    "CELL_FAILED",
    "CELL_RESTORED",
    "CELL_RETRY",
    "CHAOS_ENV",
    "CellSummary",
    "ChaosError",
    "CheckpointData",
    "CheckpointError",
    "CheckpointWriter",
    "MetricSummary",
    "ProgressCallback",
    "ProgressEvent",
    "SWEEP_DONE",
    "SWEEP_START",
    "SweepCell",
    "SweepInterrupted",
    "SweepResult",
    "SweepSpec",
    "backoff_schedule_s",
    "cell_metrics",
    "default_chunk_size",
    "default_start_method",
    "leaked_segments",
    "load_checkpoint",
    "parse_chaos",
    "replicate_seeds",
    "resume_command",
    "run_sweep",
    "spec_digest",
    "summaries_records",
    "summarize",
]
