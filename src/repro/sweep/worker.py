"""Pool-worker side of the sweep runner.

Each worker process keeps a small cache of
:class:`~repro.scenario.engine.Substrate` objects keyed by
:func:`~repro.scenario.engine.substrate_signature`, each built in the
worker from a cell's config: consecutive cells that differ only in
run-time knobs (events, overload model, controllers, faults) reuse
the expensive topology/deployment/VP build instead of repeating it.  Substrate reuse is bit-identical to a fresh build
(``tests/scenario/test_substrate.py``), so caching cannot change any
output.

Fault-stream isolation: each cell's ``FaultPlan`` is resolved inside
:func:`~repro.scenario.engine.simulate` from a fresh
:class:`~repro.util.rng.RngFactory` seeded with that cell's own seed
-- the worker holds no shared fault RNG, so a cell's fault draws are
a pure function of its config, wherever it runs.

Supervision contract: a worker never lets one cell's exception escape
the task -- every cell produces a :class:`CellOutcome`, carrying
either the result or the error string, plus the worker's pid and the
cell's ``PREFIX_CACHE_STATS`` deltas, so the parent can retry failed
cells and spot which process did what.  Only process death (crash,
chaos kill, OOM) loses a task, and the runner detects that as
``BrokenProcessPool``.

The serial (``jobs=1``) path goes through :func:`run_cells_serial`,
which pickle-roundtrips the cells first: worker processes only ever
see pickled copies of cell configs, and mirroring that inline keeps
stateful objects inside a config (e.g. defense controllers, which
accumulate per-run state) from leaking between cells or back into the
caller's spec.  That is what makes ``jobs=1`` and ``jobs=N``
bit-identical by construction.
"""

from __future__ import annotations

import os
import pickle
import resource
import signal
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from ..devtools import sanitize
from ..netsim.anycast import PREFIX_CACHE_STATS
from ..scenario.engine import Substrate, build_substrate, simulate
from ..scenario.engine import substrate_signature
from .chaos import maybe_inject

if TYPE_CHECKING:
    from ..scenario.engine import ScenarioResult
    from .spec import SweepCell

#: Per-process substrate cache; signature -> substrate.  A FIFO
#: bounded by ``_CACHE_MAX``: a chunk walks cells in index order, so
#: only the most recent signatures are worth keeping.
_SUBSTRATE_CACHE: dict[tuple[object, ...], Substrate] = {}
_CACHE_MAX = 4

#: True inside a process-pool worker (set by :func:`init_worker`);
#: gates chaos actions that must never take down the parent.
_IN_WORKER = False


@dataclass(frozen=True, slots=True)
class CellOutcome:
    """What one attempt at one cell produced.

    Exactly one of ``result``/``error`` is set.  ``routing_stats``
    holds this cell's *deltas* of the process-global counters (keys
    prefixed ``prefix_cache/``, plus ``sanitize/`` draw counts under
    ``REPRO_SANITIZE=1``), so the parent can sum them
    across workers without double counting.
    """

    index: int
    result: "ScenarioResult | None"
    error: str | None
    worker_pid: int
    routing_stats: dict[str, int]
    #: This worker's peak RSS (``ru_maxrss``, KiB on Linux) observed
    #: right after the cell ran -- a high-water mark, not a per-cell
    #: delta, so the parent takes a max per pid, not a sum.
    peak_rss_kb: int = field(default=0)


def init_worker() -> None:
    """Process-pool initializer: empty substrate cache, worker flag,
    clean signal disposition.

    With the ``fork`` start method a worker inherits the parent's
    graceful-drain SIGINT/SIGTERM handlers (the runner installs them
    before spawning the pool); left in place they would swallow the
    supervisor's ``terminate()`` and turn every pool kill into a hang.
    Workers therefore restore SIGTERM to its default (die) and ignore
    SIGINT (a Ctrl-C goes to the whole foreground process group; the
    *parent* drains gracefully and decides the workers' fate).
    """
    global _IN_WORKER
    _IN_WORKER = True
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _SUBSTRATE_CACHE.clear()


def _substrate_for(cell: SweepCell) -> Substrate:
    signature = substrate_signature(cell.config)
    substrate = _SUBSTRATE_CACHE.get(signature)
    if substrate is None:
        substrate = build_substrate(cell.config)
        while len(_SUBSTRATE_CACHE) >= _CACHE_MAX:
            _SUBSTRATE_CACHE.pop(next(iter(_SUBSTRATE_CACHE)))
        _SUBSTRATE_CACHE[signature] = substrate
    return substrate


def _stats_snapshot() -> dict[str, int]:
    return {f"prefix_cache/{k}": v for k, v in PREFIX_CACHE_STATS.items()}


def _run_cell(cell: SweepCell, attempt: int) -> CellOutcome:
    """One attempt at one cell; exceptions become error outcomes."""
    pid = os.getpid()
    sanitizing = sanitize.enabled()
    before = _stats_snapshot()
    try:
        maybe_inject(cell.index, attempt, in_worker=_IN_WORKER)
        substrate = _substrate_for(cell)
        if sanitizing:
            # Per-cell draw accounting covers the simulate phase only:
            # the counters are zeroed *after* the substrate lookup,
            # because a build may be served from the per-process cache
            # -- counting its draws would make the telemetry depend on
            # cache warmth, not on the cell's config.  Zeroed here,
            # the reported ``sanitize/stream/*`` deltas are a pure
            # function of the cell's config, identical wherever (and
            # under whatever jobs count) the cell runs.
            sanitize.reset_streams()
        result = simulate(cell.config, substrate)
    except Exception as exc:
        return CellOutcome(
            index=cell.index,
            result=None,
            error=f"{type(exc).__name__}: {exc}",
            worker_pid=pid,
            routing_stats={},
            peak_rss_kb=_peak_rss_kb(),
        )
    after = _stats_snapshot()
    stats = {
        name: after[name] - before[name]
        for name in after
        if after[name] != before[name]
    }
    if sanitizing:
        stats.update(
            {
                f"sanitize/stream/{label}": count
                for label, count in sanitize.stream_report().items()
            }
        )
    return CellOutcome(
        index=cell.index,
        result=result,
        error=None,
        worker_pid=pid,
        routing_stats=stats,
        peak_rss_kb=_peak_rss_kb(),
    )


def _peak_rss_kb() -> int:
    """This process's lifetime peak RSS in KiB (``ru_maxrss`` is
    already KiB on Linux, bytes on macOS -- normalised here)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if os.uname().sysname == "Darwin":
        peak //= 1024
    return int(peak)


def run_cells(
    cells: tuple[SweepCell, ...], attempts: Mapping[int, int]
) -> list[CellOutcome]:
    """Simulate one task's cells; one outcome per cell, index order.

    *attempts* maps cell index to the 0-based attempt number the
    runner is on, which the chaos hook keys off.  A failing cell does
    not stop the rest of the task -- its outcome carries the error.
    """
    return [_run_cell(cell, attempts.get(cell.index, 0)) for cell in cells]


def run_cells_serial(
    cells: Sequence[SweepCell], attempts: Mapping[int, int]
) -> list[CellOutcome]:
    """Inline execution mirroring the process boundary.

    The cells are pickle-roundtripped before running, exactly as a
    pool worker would receive them, so the serial path sees the same
    fresh config copies as the parallel one.
    """
    return run_cells(pickle.loads(pickle.dumps(tuple(cells))), attempts)
