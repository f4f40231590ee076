"""CI smoke test: crash a sweep mid-run, resume it, demand bit-identity.

Three legs, all compared array-by-array (``result_arrays`` /
``diff_arrays``) against one uninterrupted ``jobs=1`` reference sweep
of the same spec:

0. **shm leg** -- the grid runs with ``jobs=2`` over zero-copy
   shared-memory substrates (:mod:`repro.sweep.shm`) while a chaos
   directive kills a worker mid-run; the healed run must be
   bit-identical, the respawned pool must have reattached the
   parent's segments, ``/dev/shm`` must be empty afterwards, and a
   ``shm=False`` control must run the same grid without exporting
   anything.

1. **kill leg** -- a six-cell grid runs with ``jobs=2`` and a chaos
   directive (``REPRO_SWEEP_CHAOS=kill:cell4``) that makes the worker
   about to simulate cell 4 die like an OOM-kill.  With
   ``max_retries=0`` the cell is quarantined, every other cell lands
   in the checkpoint, and the run completes with one flagged summary
   instead of aborting.  A second run with the chaos cleared resumes
   from the checkpoint, restores the healthy cells without re-running
   them, simulates only the quarantined one, and must match the
   reference bit for bit.

2. **interrupt leg** -- the same grid runs via the ``anycast-ddos
   sweep`` CLI in a subprocess with a ``stall:cell5`` chaos directive;
   once the checkpoint shows progress, the process gets SIGINT, must
   drain gracefully (exit code 130, resume hint on stderr), and a
   ``--resume`` invocation must complete the sweep bit-identically.

Exit status 0 = every check passed.

Usage::

    PYTHONPATH=src python scripts/sweep_chaos_smoke.py
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

from repro import nov2015_config
from repro.scenario import diff_arrays, result_arrays
from repro.sweep import (
    CHAOS_ENV,
    SweepSpec,
    leaked_segments,
    load_checkpoint,
    run_sweep,
)

#: Small but multi-chunk grid: 3 points x 2 seeds = 6 cells.
AXES = {"baseline_days": [1, 2, 3]}
REPLICATES = 2

#: Kill leg: the victim is late in the grid, so earlier cells are
#: already durable in the checkpoint when the worker dies.
KILL_CELL = 4

#: Interrupt leg: one cell stalls long enough for the parent to be
#: SIGINT'd while the sweep is demonstrably mid-flight.
STALL_CELL = 5
STALL_SECONDS = 120


def base_config():
    # Must match what `anycast-ddos sweep --seed 7 --stubs 50 --vps 30
    # --letters A,K` builds, or the interrupt leg's in-process spec
    # would digest differently from the CLI subprocess's.
    return nov2015_config(
        seed=7, n_stubs=50, n_vps=30, letters=("A", "K")
    )


def build_spec() -> SweepSpec:
    return SweepSpec.grid(
        base_config(), AXES, replicates=REPLICATES
    )


def check_identical(result, reference, label: str) -> None:
    assert not result.failures, (
        f"{label}: unexpected quarantined cells {result.failures}"
    )
    for index, (got, want) in enumerate(
        zip(result.results, reference.results)
    ):
        mismatches = diff_arrays(result_arrays(got), result_arrays(want))
        assert not mismatches, (
            f"{label}: cell {index} diverged from the uninterrupted "
            f"reference: {mismatches}"
        )
    print(f"ok: {label} is bit-identical to the reference")


def shm_leg(spec, reference) -> None:
    assert leaked_segments() == [], (
        f"/dev/shm not clean before the shm leg: {leaked_segments()}"
    )
    os.environ[CHAOS_ENV] = f"kill:cell{KILL_CELL}"
    try:
        healed = run_sweep(
            spec, jobs=2, chunk_size=2, shm=True,
            max_retries=2, backoff_base_s=0.0,
        )
    finally:
        del os.environ[CHAOS_ENV]
    check_identical(healed, reference, "shm leg (healed)")
    # 2 replicate seeds -> 2 substrate signatures, each shared by 3
    # cells -> both exported; the respawned pool reattached them.
    assert healed.shm_segments == 2, (
        f"expected 2 exported segments, got {healed.shm_segments}"
    )
    assert healed.routing_stats.get("shm/cell", 0) == spec.n_cells, (
        f"not every cell was served from shared memory: "
        f"{healed.routing_stats}"
    )
    assert "shm/fallback" not in healed.routing_stats, (
        f"unexpected attach fallbacks: {healed.routing_stats}"
    )
    assert leaked_segments() == [], (
        f"segments leaked after the shm leg: {leaked_segments()}"
    )
    print(
        "ok: shm leg healed a worker kill over shared segments "
        "with no /dev/shm residue"
    )

    control = run_sweep(spec, jobs=2, chunk_size=2, shm=False)
    check_identical(control, reference, "shm leg (disabled control)")
    assert control.shm_segments == 0, "shm=False still exported segments"
    print("ok: shm=False control matched on the pickled path")


def kill_leg(spec, reference, workdir: pathlib.Path) -> None:
    ckpt = workdir / "kill.ckpt"
    os.environ[CHAOS_ENV] = f"kill:cell{KILL_CELL}"
    try:
        crashed = run_sweep(
            spec, jobs=2, chunk_size=2, checkpoint=ckpt,
            max_retries=0, backoff_base_s=0.0,
        )
    finally:
        del os.environ[CHAOS_ENV]
    assert KILL_CELL in crashed.failures, (
        f"expected cell {KILL_CELL} quarantined, got "
        f"{crashed.failures}"
    )
    flagged = crashed.summaries[spec.cell(KILL_CELL).point_index]
    assert any(
        f.metric == "cell-failed" for f in flagged.quality.flags
    ), "quarantined cell did not flag its summary"
    durable = load_checkpoint(ckpt, spec).results
    assert durable, "no cells were checkpointed before the crash"
    print(
        f"ok: kill leg quarantined cell {KILL_CELL}, "
        f"{len(durable)} cell(s) durable in the checkpoint"
    )

    resumed = run_sweep(spec, jobs=2, chunk_size=2, checkpoint=ckpt)
    assert resumed.restored, "resume re-ran cells it should restore"
    check_identical(resumed, reference, "kill-leg resume")


def interrupt_leg(spec, reference, workdir: pathlib.Path) -> None:
    ckpt = workdir / "sigint.ckpt"
    argv = [
        sys.executable, "-m", "repro.cli", "sweep",
        "--seed", "7", "--stubs", "50", "--vps", "30",
        "--letters", "A,K",
        "--axis", "baseline_days=1,2,3",
        "--replicates", str(REPLICATES),
        "--jobs", "2", "--checkpoint", str(ckpt),
        "--out", str(workdir / "unused.json"),
    ]
    env = dict(os.environ)
    env[CHAOS_ENV] = f"stall:cell{STALL_CELL}:{STALL_SECONDS}"
    env.setdefault("PYTHONPATH", "src")
    proc = subprocess.Popen(
        argv, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    # Wait until some cells are durable (the stalled cell guarantees
    # the sweep is still mid-flight), then interrupt the parent.
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        try:
            if load_checkpoint(ckpt, spec).results:
                break
        except Exception:
            pass
        if proc.poll() is not None:
            break
        time.sleep(0.2)
    assert proc.poll() is None, (
        "sweep CLI exited before it could be interrupted:\n"
        + proc.communicate()[1]
    )
    proc.send_signal(signal.SIGINT)
    try:
        _, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise AssertionError("interrupted sweep CLI failed to drain")
    assert proc.returncode == 130, (
        f"expected exit 130 after SIGINT, got {proc.returncode}:\n"
        f"{stderr}"
    )
    assert "--resume" in stderr, (
        f"no resume hint on stderr after SIGINT:\n{stderr}"
    )
    print(
        "ok: interrupt leg drained with exit 130 and a resume hint"
    )

    out = workdir / "resumed.json"
    done = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "sweep",
            "--resume", str(ckpt), "--jobs", "2",
            "--out", str(out), "--quiet",
        ],
        env={k: v for k, v in env.items() if k != CHAOS_ENV},
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, (
        f"resume run failed ({done.returncode}):\n{done.stderr}"
    )
    payload = json.loads(out.read_text())
    assert not payload["failed_cells"], (
        f"resume run quarantined cells: {payload['failed_cells']}"
    )
    # The CLI only surfaces summaries; full per-cell bit-identity
    # comes from re-loading the finished checkpoint in-process.
    finished = load_checkpoint(ckpt, spec).results
    assert sorted(finished) == list(range(spec.n_cells)), (
        "resume left cells missing from the checkpoint"
    )
    for index, want in enumerate(reference.results):
        mismatches = diff_arrays(
            result_arrays(finished[index]), result_arrays(want)
        )
        assert not mismatches, (
            f"interrupt-leg cell {index} diverged: {mismatches}"
        )
    print("ok: interrupt-leg resume is bit-identical to the reference")


def main() -> int:
    spec = build_spec()
    print(
        f"reference sweep: {spec.n_cells} cells, jobs=1, no faults",
        file=sys.stderr,
    )
    reference = run_sweep(spec, jobs=1)
    shm_leg(spec, reference)
    with tempfile.TemporaryDirectory(prefix="sweep-chaos-") as tmp:
        workdir = pathlib.Path(tmp)
        kill_leg(spec, reference, workdir)
        interrupt_leg(spec, reference, workdir)
    print("sweep chaos smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
