"""Per-layer spans for the traced benchmark run.

The tracer records spans from the benchmark's side only: it replaces
public functions of the package *where their callers look them up*
(module globals and class attributes) with thin wrappers that time the
call, then restores the originals.  Nothing in the package is edited,
and the package's own counters (``PREFIX_CACHE_STATS``) are only read.

A span has a name, a duration and a parent (the span open when it
started); a layer's self time is its duration minus the time its child
spans cover.  Spans are folded into per-name totals as they close and
kept in memory.

Sweeps with ``jobs > 1`` run cells in forked pool workers, which
inherit the installed wrappers.  The worker-side entry point
(``run_cells``) is wrapped by :func:`run_cells_traced`, a module-level
function so the pool can pickle it by name; in a worker it records the
task into a fresh recorder and writes that recorder to one JSON file
per task under the trace directory, which the parent merges after the
sweep.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Span name -> (calls, total seconds, self seconds).
SpanTotals = dict[str, list[float]]


@dataclass
class _Frame:
    name: str
    start: float
    child_s: float = 0.0
    child_names: set[str] = field(default_factory=set)


class Recorder:
    """Span totals and counts of one process, for one operation."""

    def __init__(self) -> None:
        self.spans: SpanTotals = {}
        self.counts: dict[str, float] = {}
        self._stack: list[_Frame] = []

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter())
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        duration = time.perf_counter() - frame.start
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        self_s = duration - frame.child_s
        totals = self.spans.setdefault(frame.name, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += duration
        totals[2] += self_s
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += duration
            parent.child_names.add(frame.name)
        # The per-bin executor is private; its time is the self time
        # of a simulate() span that never entered the batched executor.
        if frame.name == "engine.simulate" and (
            "engine.batched" not in frame.child_names
        ):
            self.add("engine.perbin_s", self_s)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def merge(self, spans: SpanTotals, counts: dict[str, float]) -> None:
        for name, (calls, total, self_s) in spans.items():
            totals = self.spans.setdefault(name, [0, 0.0, 0.0])
            totals[0] += calls
            totals[1] += total
            totals[2] += self_s
        for name, value in counts.items():
            self.add(name, value)


_recorder = Recorder()
_main_pid = os.getpid()
_trace_dir: str | None = None
_task_seq = itertools.count()
_installed: list[tuple[object, str, object]] = []
_original_run_cells: Callable[..., Any] | None = None


def _cache_counters() -> dict[str, int]:
    from repro.netsim.anycast import PREFIX_CACHE_STATS

    return dict(PREFIX_CACHE_STATS)


def _counter_delta(
    before: dict[str, int], after: dict[str, int]
) -> dict[str, float]:
    return {f"cache.{k}": after[k] - before[k] for k in after}


def _wrap(
    fn: Callable[..., Any],
    name: str,
    after: Callable[[Recorder, tuple, Any], None] | None,
) -> Callable[..., Any]:
    def traced(*args: Any, **kwargs: Any) -> Any:
        rec = _recorder
        frame = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        if after is not None:
            after(rec, args, result)
        return result

    return traced


def _count_bins(rec: Recorder, args: tuple, result: Any) -> None:
    rec.add("engine.bins", args[0].grid().n_bins)


def _count_probes(rec: Recorder, args: tuple, result: Any) -> None:
    from repro.datasets import RESP_NOT_PROBED

    rec.add("atlas.probes", int((result.site_idx != RESP_NOT_PROBED).sum()))


#: (owner, attribute, span name, post-call hook).  Owners are modules
#: or classes, named by import path; a ``module:Class`` owner patches
#: a method on the class.
_TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.scenario.engine", "build_substrate", "substrate.build", None),
    ("repro.sweep.worker", "build_substrate", "substrate.build", None),
    ("repro.netsim.anycast", "propagate", "routing.propagate", None),
    ("repro.netsim.anycast", "propagate_delta", "routing.delta", None),
    ("repro", "simulate", "engine.simulate", _count_bins),
    ("repro.sweep.worker", "simulate", "engine.simulate", _count_bins),
    ("repro.scenario.batch", "run_batched", "engine.batched", None),
    (
        "repro.defense.controllers:GreedyShedController", "decide",
        "defense.decide", None,
    ),
    ("repro.atlas.probing:LetterProber", "finish", "atlas.finish",
     _count_probes),
    ("repro.scenario.engine", "build_daily_report", "rssac.report", None),
    ("repro.scenario.engine", "build_baseline_report", "rssac.report", None),
    (
        "repro.bgpmon.collector:BgpCollectors", "route_changes_per_bin",
        "bgpmon.route_changes", None,
    ),
    ("run_paper", "clean_dataset", "core.clean", None),
    ("run_paper", "render_all", "core.render", None),
    ("repro.sweep", "run_sweep", "sweep.run", None),
    (
        "repro.sweep.runner", "export_shared_substrates",
        "sweep.shm_export", None,
    ),
    (
        "repro.sweep.checkpoint:CheckpointWriter", "record",
        "sweep.checkpoint", None,
    ),
)


def _owner(path: str) -> object:
    module_name, _, class_name = path.partition(":")
    owner: object = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner


def run_cells_traced(*args: Any, **kwargs: Any) -> Any:
    """Traced stand-in for ``repro.sweep.worker.run_cells``.

    In the benchmark's own process (the serial sweep path) it is an
    ordinary span.  In a pool worker it records the task into a fresh
    recorder, with the worker's cache-counter deltas, and writes it to
    the trace directory before returning the task's outcomes.
    """
    global _recorder
    assert _original_run_cells is not None
    if os.getpid() == _main_pid:
        frame = _recorder.enter("sweep.task")
        try:
            return _original_run_cells(*args, **kwargs)
        finally:
            _recorder.exit(frame)
    _recorder = Recorder()
    before = _cache_counters()
    frame = _recorder.enter("sweep.task")
    try:
        return _original_run_cells(*args, **kwargs)
    finally:
        _recorder.exit(frame)
        _recorder.merge({}, _counter_delta(before, _cache_counters()))
        if _trace_dir is not None:
            path = os.path.join(
                _trace_dir, f"{os.getpid()}-{next(_task_seq)}.json"
            )
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "pid": os.getpid(),
                        "spans": _recorder.spans,
                        "counts": _recorder.counts,
                    },
                    handle,
                )


def install(trace_dir: str) -> None:
    """Install every wrapper; worker tasks write to *trace_dir*."""
    global _trace_dir, _original_run_cells
    if _installed:
        raise RuntimeError("tracer already installed")
    _trace_dir = trace_dir
    for path, attr, name, after in _TARGETS:
        owner = _owner(path)
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        _installed.append((owner, attr, original))
        setattr(owner, attr, _wrap(original, name, after))
    import repro.sweep.runner as runner
    import repro.sweep.worker as worker

    _original_run_cells = worker.run_cells
    for owner in (worker, runner):
        _installed.append((owner, "run_cells", owner.run_cells))
        setattr(owner, "run_cells", run_cells_traced)


def uninstall() -> None:
    """Restore every patched attribute, newest first."""
    global _trace_dir, _original_run_cells
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)
    _trace_dir = None
    _original_run_cells = None


class TracedOperation:
    """Brackets one traced operation in the benchmark's process.

    Resets the in-process recorder, snapshots the cache counters, and
    on :meth:`finish` merges every worker task file written meanwhile,
    returning the combined recorder plus per-worker busy time.
    """

    def __init__(self, trace_dir: str) -> None:
        global _recorder
        self.trace_dir = trace_dir
        for entry in os.listdir(trace_dir):
            os.remove(os.path.join(trace_dir, entry))
        _recorder = Recorder()
        self._before = _cache_counters()

    def finish(self) -> tuple[Recorder, dict[int, float]]:
        rec = _recorder
        rec.merge({}, _counter_delta(self._before, _cache_counters()))
        busy: dict[int, float] = {}
        if "sweep.task" in rec.spans:
            busy[_main_pid] = rec.spans["sweep.task"][1]
        for entry in sorted(os.listdir(self.trace_dir)):
            path = os.path.join(self.trace_dir, entry)
            with open(path, encoding="utf-8") as handle:
                dump = json.load(handle)
            os.remove(path)
            rec.merge(dump["spans"], dump["counts"])
            task = dump["spans"].get("sweep.task", [0, 0.0, 0.0])
            busy[dump["pid"]] = busy.get(dump["pid"], 0.0) + task[1]
        return rec, busy
