"""Serial vs pickled pool sweep dispatch -> BENCH_sweep.json.

Runs a fixed grid (one substrate signature, runtime knobs only, so
every worker builds the substrate once and reuses it) through
:func:`repro.sweep.run_sweep` serially and then on the process pool
at each worker count.  Wall time, speed-up over serial, parallel
efficiency and each worker's peak RSS are recorded; bit-equality of
every run against serial is *always* asserted.  The numbers are
honest for the host that ran them: ``host.usable_cpus`` is recorded
alongside, and no speed-up is asserted (a host with fewer usable
cores than workers shows pool overhead, not scaling).

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_scaling.py \
        [--out BENCH_sweep.json] [--cells 8] [--jobs 1,2,4,8]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
import time

from repro import ScenarioConfig
from repro.scenario import diff_arrays, result_arrays
from repro.sweep import SweepSpec, run_sweep

# The host-metadata block is shared with every other BENCH_* writer;
# it lives in scripts/bench_report.py, outside the package tree.
sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts"),
)
from bench_report import host_metadata  # noqa: E402

#: The bench grid: one mid-size substrate signature swept over a
#: runtime knob, so every parallel worker builds it once.
BENCH_BASE = dict(
    seed=42, n_stubs=200, n_vps=300, letters=("A", "F", "H", "K"),
    include_nl=True,
)


def bench_spec(cells: int) -> SweepSpec:
    return SweepSpec.grid(
        ScenarioConfig(**BENCH_BASE),
        {"baseline_days": list(range(1, cells + 1))},
    )


def _rss_summary(worker_rss_kb: dict[int, int]) -> dict[str, int]:
    peaks = sorted(worker_rss_kb.values())
    if not peaks:
        return {"workers": 0, "max_kb": 0, "total_kb": 0}
    return {
        "workers": len(peaks),
        "max_kb": peaks[-1],
        "total_kb": sum(peaks),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_sweep.json")
    parser.add_argument("--cells", type=int, default=8)
    parser.add_argument("--jobs", default="1,2,4,8",
                        help="comma-separated worker counts")
    args = parser.parse_args(argv)
    job_counts = [int(part) for part in args.jobs.split(",")]
    spec = bench_spec(args.cells)
    host = host_metadata()

    serial_arrays: list[dict] | None = None
    serial_wall: float | None = None
    runs = []
    for jobs in job_counts:
        dispatch = "serial" if jobs == 1 else "pickled"
        started = time.perf_counter()
        sweep = run_sweep(spec, jobs=jobs)
        wall = time.perf_counter() - started
        arrays = [result_arrays(r) for r in sweep.results]
        if serial_arrays is None:
            serial_arrays, serial_wall = arrays, wall
            identical = True
        else:
            identical = all(
                not diff_arrays(a, b)
                for a, b in zip(serial_arrays, arrays)
            )
        assert identical, (
            f"jobs={jobs} ({dispatch}) output differs from serial"
        )
        assert serial_wall is not None
        speedup = serial_wall / wall
        runs.append(
            {
                "jobs": jobs,
                "dispatch": dispatch,
                "wall_s": round(wall, 3),
                "speedup_vs_serial": round(speedup, 3),
                "efficiency": round(speedup / jobs, 3),
                "bit_identical_to_serial": identical,
                "worker_peak_rss": _rss_summary(sweep.worker_rss_kb),
            }
        )
        print(
            f"jobs={jobs} ({dispatch}): {wall:.2f}s, "
            f"speedup {speedup:.2f}x, bit-identical={identical}",
            file=sys.stderr,
        )

    payload = {
        "generated": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "host": host,
        "grid": {**BENCH_BASE, "cells": spec.n_cells,
                 "axis": "baseline_days"},
        "note": (
            "no speed-up is asserted; with fewer usable cores than "
            "workers the pool runs measure pool overhead, not scaling, "
            "while still asserting bit-equality with serial execution"
        ),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
