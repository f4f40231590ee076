"""The repository benchmark: one closed-loop client over the public API.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

A single client issues operations of one workload back to back for
``--seconds`` seconds (the operation running at the deadline finishes),
checks every operation's outputs, and prints one JSON object as the
last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (tracing off):
``op_s`` (median seconds per operation), ``scenarios_per_s``
(verified scenarios per second spent in operations), ``setup_s``
(median of three samples of package import plus first-input
generation: this process and two fresh interpreters), ``peak_rss_mb``
(peak RSS of this process plus its largest child, through the first
operation) and ``ok_share`` (share of
operations that passed every check).  After the timed loop, untimed,
the first operation's input is re-run through a second code path and
must give bit-identical outputs (``paper``: the per-bin engine;
``whatif``: a serial sweep).

With ``--trace 1`` untraced and traced operations alternate and the
metrics are the per-layer ones (see ``tracer.py``), each the median
over the traced operations, plus ``trace.overhead_s``, the traced
minus the untraced median ``op_s``.  The first traced input is re-run
untraced and its outputs must be bit-identical.

An operation fails if it raises, leaves a quarantined cell, fails an
output check, or (``paper``, ``defense``) computed no routing table,
which would mean caches leaked between operations.  The run also
fails if a child process, a shared-memory segment of this process, or
a scratch file is left behind.  Scratch files live under
``.perfbench_tmp/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SCRATCH_ROOT = ROOT / ".perfbench_tmp"
#: Set-up samples per run: this process plus fresh interpreters.
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "op_s": "s",
    "scenarios_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

PER_LAYER_UNITS = {
    "substrate.build_s": "s",
    "substrate.builds": "count",
    "routing.propagate_calls": "count",
    "routing.propagate_s": "s",
    "routing.delta_calls": "count",
    "routing.delta_s": "s",
    "routing.cache_hit_ratio": "ratio",
    "engine.batched_s": "s",
    "engine.perbin_s": "s",
    "engine.bins": "count",
    "defense.decide_calls": "count",
    "defense.decide_s": "s",
    "atlas.finish_s": "s",
    "atlas.probes": "count",
    "rssac.report_s": "s",
    "bgpmon.route_changes_s": "s",
    "core.clean_s": "s",
    "core.render_s": "s",
    "sweep.dispatch_s": "s",
    "sweep.shm_export_s": "s",
    "sweep.shm_segments": "count",
    "sweep.shm_attach": "count",
    "sweep.shm_fallback": "count",
    "sweep.retries": "count",
    "sweep.checkpoint_s": "s",
    "sweep.checkpoint_bytes": "bytes",
    "sweep.worker_peak_rss_mb": "MB",
    "trace.overhead_s": "s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("paper", "whatif", "defense")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only time set-up and print the seconds (internal)",
    )
    return parser.parse_args(argv)


def source_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file() and (
        ROOT / "scripts" / "run_paper.py"
    ).is_file()


def setup(
    args: argparse.Namespace, scratch: Path
) -> tuple[Any, int, Any, float]:
    """Import the package and build the first operation's input;
    returns the workload, the input's seed, the input, and the
    seconds this took."""
    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, str(scratch))
    seed = workload.next_seed()
    inp = workload.make_input(seed)
    return workload, seed, inp, time.perf_counter() - start


def setup_probes(args: argparse.Namespace) -> list[float]:
    """Set-up seconds measured in fresh interpreters, one at a time."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", "1", "--setup-probe",
            ],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=PROBE_TIMEOUT_S,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Loop:
    """Runs operations and records their times and failures."""

    def __init__(self, workload: Any) -> None:
        import workloads

        self.workloads = workloads
        self.workload = workload
        self.times: list[float] = []
        self.scenarios = 0
        self.failed = 0

    def run_one(
        self, inp: Any, rerun: bool = False
    ) -> tuple[float, Any, list[str]]:
        """Time one operation; returns (seconds, outcome, problems).

        A *rerun* of an input already run may legitimately be served
        from the package's caches, so it skips the cold-state guard.
        """
        computes = self.workloads.routing_computes()
        start = time.perf_counter()
        try:
            out = self.workload.run(inp)
        except Exception:
            seconds = time.perf_counter() - start
            return seconds, None, [traceback.format_exc()]
        seconds = time.perf_counter() - start
        problems = self.workload.check(inp, out)
        if (
            self.workload.cold_routing
            and not rerun
            and self.workloads.routing_computes() == computes
        ):
            problems.append(
                "cold-state guard: the operation computed no routing table"
            )
        return seconds, out, problems

    def record(self, seconds: float, out: Any, problems: list[str]) -> bool:
        self.times.append(seconds)
        status = "failed" if problems else "ok"
        print(
            f"op {len(self.times)}: {seconds:.3f} s {status}",
            file=sys.stderr,
        )
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED: {problem}", file=sys.stderr)
            return False
        self.scenarios += len(out.results)
        return True

    def digests(self, out: Any) -> list[str]:
        return [self.workloads.result_digest(r) for r in out.results]


def measure(
    args: argparse.Namespace, workload: Any, seed: int, inp: Any
) -> tuple[dict[str, float], Loop, list[str]]:
    """The untraced timed loop, then the untimed cross-path check."""
    loop = Loop(workload)
    first: tuple[int, list[str]] | None = None
    deadline = time.perf_counter() + args.seconds
    while True:
        seconds, out, problems = loop.run_one(inp)
        if loop.record(seconds, out, problems) and len(loop.times) == 1:
            first = (seed, loop.digests(out))
        if len(loop.times) == 1:
            # Pool workers fork from this process, so their RSS grows
            # with whatever earlier operations left in its heap; the
            # first operation is the one every run has in common.
            rss = peak_rss_mb()
        del out
        gc.collect()
        if time.perf_counter() >= deadline:
            break
        seed = workload.next_seed()
        inp = workload.make_input(seed)
    problems: list[str] = []
    if first is not None:
        problems = workload.verify(workload.make_input(first[0]), first[1])
        if problems:
            loop.failed += 1
    metrics = {
        "op_s": statistics.median(loop.times),
        "scenarios_per_s": loop.scenarios / sum(loop.times),
        "peak_rss_mb": rss,
        "ok_share": (len(loop.times) - loop.failed) / len(loop.times),
    }
    return metrics, loop, problems


def layer_metrics(rec: Any, busy: dict[int, float], out: Any) -> dict:
    """Per-layer figures of one traced operation."""

    def span(name: str, field: int) -> float:
        return rec.spans.get(name, (0, 0.0, 0.0))[field]

    def count(name: str) -> float:
        return rec.counts.get(name, 0)

    hits = count("cache.lru_hits") + count("cache.memo_hits")
    lookups = hits + count("cache.computes")
    sweep = out.sweep
    metrics = {
        "substrate.build_s": span("substrate.build", 1),
        "substrate.builds": span("substrate.build", 0),
        "routing.propagate_calls": span("routing.propagate", 0),
        "routing.propagate_s": span("routing.propagate", 1),
        "routing.delta_calls": span("routing.delta", 0),
        "routing.delta_s": span("routing.delta", 1),
        "routing.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "engine.batched_s": span("engine.batched", 1),
        "engine.perbin_s": count("engine.perbin_s"),
        "engine.bins": count("engine.bins"),
        "defense.decide_calls": span("defense.decide", 0),
        "defense.decide_s": span("defense.decide", 1),
        "atlas.finish_s": span("atlas.finish", 1),
        "atlas.probes": count("atlas.probes"),
        "rssac.report_s": span("rssac.report", 1),
        "bgpmon.route_changes_s": span("bgpmon.route_changes", 1),
        "core.clean_s": span("core.clean", 1),
        "core.render_s": span("core.render", 2),
        "sweep.dispatch_s": 0.0,
        "sweep.shm_export_s": span("sweep.shm_export", 1),
        "sweep.shm_segments": 0,
        "sweep.shm_attach": 0,
        "sweep.shm_fallback": 0,
        "sweep.retries": 0,
        "sweep.checkpoint_s": span("sweep.checkpoint", 1),
        "sweep.checkpoint_bytes": out.checkpoint_bytes,
        "sweep.worker_peak_rss_mb": 0.0,
    }
    if sweep is not None:
        workers = [
            kb for pid, kb in sweep.worker_rss_kb.items()
            if pid != os.getpid()
        ]
        metrics.update(
            {
                # The sweep's wall time not spent running cells on its
                # busiest process: dispatch, export, pickling, merge.
                "sweep.dispatch_s": span("sweep.run", 1)
                - max(busy.values(), default=0.0),
                "sweep.shm_segments": sweep.shm_segments,
                "sweep.shm_attach": sweep.routing_stats.get("shm/attach", 0),
                "sweep.shm_fallback": sweep.routing_stats.get(
                    "shm/fallback", 0
                ),
                "sweep.retries": sum(
                    n - 1 for n in sweep.attempts.values()
                ),
                "sweep.worker_peak_rss_mb": max(workers, default=0) / 1024,
            }
        )
    return metrics


def trace(
    args: argparse.Namespace,
    workload: Any,
    seed: int,
    inp: Any,
    scratch: Path,
) -> tuple[dict[str, float], Loop, list[str]]:
    """Alternate untraced and traced operations; per-layer medians.

    The first operation is untraced and left out of the overhead
    figure: it pays the process's one-time warm-up.
    """
    import tracer

    trace_dir = scratch / "trace"
    trace_dir.mkdir()
    loop = Loop(workload)
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    first: tuple[int, list[str]] | None = None
    deadline = time.perf_counter() + args.seconds
    while True:
        if len(loop.times) % 2 == 0:
            seconds, out, problems = loop.run_one(inp)
            if loop.times:
                plain.append(seconds)
        else:
            tracer.install(str(trace_dir))
            try:
                op = tracer.TracedOperation(str(trace_dir))
                seconds, out, problems = loop.run_one(inp)
                rec, busy = op.finish()
            finally:
                tracer.uninstall()
            traced.append(seconds)
            if not problems:
                layers.append(layer_metrics(rec, busy, out))
                if first is None:
                    first = (seed, loop.digests(out))
        loop.record(seconds, out, problems)
        del out
        gc.collect()
        if time.perf_counter() >= deadline and traced and plain:
            break
        seed = workload.next_seed()
        inp = workload.make_input(seed)
    problems: list[str] = []
    if first is None:
        problems.append("no traced operation succeeded")
    else:
        seconds, out, rerun = loop.run_one(
            workload.make_input(first[0]), rerun=True
        )
        if rerun:
            problems.extend(rerun)
        elif loop.digests(out) != first[1]:
            problems.append("outputs differ with tracing on and off")
        if problems:
            loop.failed += 1
        del out
    metrics = {
        name: statistics.median(layer[name] for layer in layers)
        for name in PER_LAYER_UNITS
        if name != "trace.overhead_s"
    } if layers else {name: 0.0 for name in PER_LAYER_UNITS}
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain)
    )
    return metrics, loop, problems


def residue() -> list[str]:
    """Children or shared-memory segments this process left behind;
    anything found is cleaned up before it is reported."""
    from multiprocessing import resource_tracker, shared_memory

    from repro.sweep import leaked_segments

    problems: list[str] = []
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    if children:
        problems.append(f"{len(children)} child process(es) left running")
    own = f"repro_sweep_{os.getpid()}_"
    segments = [name for name in leaked_segments() if name.startswith(own)]
    for name in segments:
        segment = shared_memory.SharedMemory(name=name)
        segment.close()
        segment.unlink()
    if segments:
        problems.append(f"shared-memory segments left: {segments}")
    # Creating a segment starts multiprocessing's resource-tracker
    # process, which would otherwise exit only after this one does.
    resource_tracker._resource_tracker._stop()
    return problems


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not source_present():
        print(
            f"error: no package source under {ROOT}/src and "
            f"{ROOT}/scripts; run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    scratch = SCRATCH_ROOT / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        workload, seed, inp, setup_s = setup(args, scratch)
        if args.setup_probe:
            print(setup_s)
            return 0
        if args.trace:
            metrics, loop, problems = trace(args, workload, seed, inp, scratch)
            units = PER_LAYER_UNITS
        else:
            metrics, loop, problems = measure(args, workload, seed, inp)
            metrics["setup_s"] = statistics.median(
                [setup_s] + setup_probes(args)
            )
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass
    problems.extend(residue())
    if scratch.exists():
        problems.append(f"scratch directory {scratch} left behind")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:.6g} {unit}", file=sys.stderr)
    report = {
        "correct": not problems and loop.failed == 0,
        "attempted": len(loop.times),
        "failed": loop.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
