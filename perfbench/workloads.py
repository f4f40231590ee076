"""The benchmark's three workloads and the checks on their outputs.

Every operation calls only the package's public API (plus the paper
pipeline of ``scripts/run_paper.py``) on inputs built from a fresh
scenario seed, so in-process caches keyed on the scenario never make a
later operation warm.  Scenario seeds are drawn from a generator seeded
with the workload name and the benchmark's ``--seed``.

* ``paper``: the ``run_paper.py`` pipeline in-process -- the 3-cell
  sweep (nov2015, quiet, june2016) at 600 stubs and 1500 VPs with
  ``jobs=1``, then ``render_all`` for all 17 figures and tables.
* ``whatif``: a 12-cell operator grid (attack-rate scale x buffer
  depth) on one shared substrate (600 stubs, 300 VPs), run with
  ``jobs=2``, shared memory on and a checkpoint file.
* ``defense``: one ``simulate()`` at 6000 stubs and 1500 VPs with a
  greedy shedding controller on every attacked letter and a fault plan.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import random
import shutil
import tempfile
from typing import Any

import numpy as np

import repro
import repro.sweep as sweep_api
import run_paper
from repro import (
    BgpSessionReset,
    FaultPlan,
    PeerChurn,
    RssacOutage,
    ScenarioConfig,
    SiteFailure,
    VpDropout,
)
from repro.attack.events import NOV2015_EVENTS
from repro.core import (
    clean_dataset,
    event_size_table,
    sites_vs_resilience,
    worst_responsiveness,
)
from repro.defense import GreedyShedController
from repro.netsim.anycast import PREFIX_CACHE_STATS
from repro.netsim.queueing import OverloadModel
from repro.rootdns import (
    ATTACKED_LETTERS,
    LETTERS_SPEC,
    RSSAC_REPORTING_LETTERS,
)
from repro.scenario.arrays import result_arrays
from repro.util.env import ENGINE_BATCH
from repro.util.timegrid import EVENT_WINDOW_START

HOUR = 3600

#: Relative slack for sums of per-site shares: served load is summed
#: over thousands of stub shares, which rounds a few ulps either way.
ROUNDING = 1e-9


def result_digest(result: Any) -> str:
    """BLAKE2 digest of a ScenarioResult's canonical output arrays."""
    digest = hashlib.blake2b(digest_size=16)
    for name, array in sorted(result_arrays(result).items()):
        array = np.ascontiguousarray(array)
        digest.update(f"{name}|{array.dtype.str}|{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def invariant_problems(result: Any) -> list[str]:
    """Physical invariants of one scenario's truth arrays: legit
    served <= legit offered (up to summation rounding), loss within
    [0, 1], and queueing delay at or below each site's buffer ceiling.
    """
    problems: list[str] = []
    buffer_ms = result.config.overload.buffer_ms
    for letter in result.letters:
        truth = result.truth[letter]
        tag = f"seed {result.config.seed} {letter}"
        offered = truth.legit_offered_qps
        if not np.all(truth.legit_served_qps <= offered * (1 + ROUNDING)):
            problems.append(f"{tag}: legit served exceeds legit offered")
        if not np.all((truth.loss >= 0.0) & (truth.loss <= 1.0)):
            problems.append(f"{tag}: loss outside [0, 1]")
        ceiling = result.deployments[letter].buffer_caps(buffer_ms)
        if not np.all(truth.delay_ms <= ceiling):
            problems.append(f"{tag}: delay above the buffer ceiling")
    return problems


@dataclasses.dataclass
class Outcome:
    """What one operation produced, for checks and the trace."""

    results: list[Any]
    #: The SweepResult, when the operation ran a sweep.
    sweep: Any = None
    rendered: dict[str, str] | None = None
    checkpoint_bytes: int = 0


class Workload:
    """One kind of operation: inputs from seeds, a run, and checks."""

    name = ""
    #: Whether every operation must route from scratch (cold guard).
    cold_routing = False

    def __init__(self, seed: int, scratch: str) -> None:
        self._seeds = random.Random(f"{self.name}:{seed}")
        self.scratch = scratch

    def next_seed(self) -> int:
        return self._seeds.randrange(1, 2**31)

    def make_input(self, scenario_seed: int) -> Any:
        raise NotImplementedError

    def run(self, inp: Any) -> Outcome:
        raise NotImplementedError

    def check(self, inp: Any, out: Outcome) -> list[str]:
        problems: list[str] = []
        for result in out.results:
            if result is None:
                problems.append("missing result")
            else:
                problems.extend(invariant_problems(result))
        return problems

    def verify(self, inp: Any, digests: list[str]) -> list[str]:
        """Untimed cross-path check on an input already run once."""
        return []


def _paper_args(seed: int) -> argparse.Namespace:
    return argparse.Namespace(seed=seed, stubs=600, vps=1500, replicates=1)


class Paper(Workload):
    name = "paper"
    cold_routing = True

    def make_input(self, scenario_seed: int) -> Any:
        return run_paper.paper_spec(_paper_args(scenario_seed))

    def run(self, inp: Any) -> Outcome:
        sweep = sweep_api.run_sweep(inp, jobs=1)
        if sweep.failures:
            return Outcome(sweep.results, sweep=sweep)
        rendered = run_paper.render_all(*sweep.results)
        return Outcome(sweep.results, sweep=sweep, rendered=rendered)

    def check(self, inp: Any, out: Outcome) -> list[str]:
        problems = super().check(inp, out)
        if out.sweep.failures:
            problems.append(f"quarantined cells: {out.sweep.failures}")
        if out.rendered is None or len(out.rendered) != 17 or not all(
            out.rendered.values()
        ):
            problems.append("render_all did not produce 17 outputs")
        if problems:
            return problems
        return problems + self._shape_problems(out.results[0])

    @staticmethod
    def _shape_problems(result: Any) -> list[str]:
        """Shape claims of Fig. 3 and Table 3 on the Nov 2015 cell."""
        problems: list[str] = []
        cleaned, _ = clean_dataset(result.atlas)
        worst = {L: worst_responsiveness(cleaned, L) for L in "BKL"}
        if not worst["B"] < worst["K"] < worst["L"]:
            problems.append(f"worst responsiveness not B < K < L: {worst}")
        fit = sites_vs_resilience(
            cleaned, {L: s.n_sites for L, s in LETTERS_SPEC.items()}
        )
        if not (fit.slope > 0 and fit.r_squared > 0.5):
            problems.append(
                f"sites-vs-resilience fit slope {fit.slope}, "
                f"R^2 {fit.r_squared}"
            )
        table = event_size_table(
            {L: result.rssac[L] for L in RSSAC_REPORTING_LETTERS},
            ATTACKED_LETTERS,
            "2015-11-30",
            len(ATTACKED_LETTERS),
        )
        if not table.row_for("lower")[1] < table.row_for("upper")[1]:
            problems.append("Table 3: lower bound not below upper bound")
        if not table.row_for("A")[1] > table.row_for("H")[1]:
            problems.append("Table 3: A-Root not above H-Root")
        return problems

    def verify(self, inp: Any, digests: list[str]) -> list[str]:
        """The per-bin reference engine must match the batched one."""
        previous = os.environ.get(ENGINE_BATCH)
        os.environ[ENGINE_BATCH] = "0"
        try:
            sweep = sweep_api.run_sweep(inp, jobs=1)
        finally:
            if previous is None:
                del os.environ[ENGINE_BATCH]
            else:
                os.environ[ENGINE_BATCH] = previous
        if sweep.failures:
            return [f"{ENGINE_BATCH}=0 rerun failed: {sweep.failures}"]
        if [result_digest(r) for r in sweep.results] != digests:
            return [f"{ENGINE_BATCH}=0 rerun differs from the default path"]
        return []


#: Attack-rate multipliers of the what-if grid.
ATTACK_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
#: Ingress-buffer depths (ms) of the what-if grid.
BUFFER_DEPTHS_MS = (600.0, 1800.0)


class Whatif(Workload):
    name = "whatif"

    def make_input(self, scenario_seed: int) -> Any:
        base = ScenarioConfig(seed=scenario_seed, n_stubs=600, n_vps=300)
        events = [
            tuple(
                dataclasses.replace(e, rate_qps=e.rate_qps * scale)
                for e in NOV2015_EVENTS
            )
            for scale in ATTACK_SCALES
        ]
        overloads = [OverloadModel(buffer_ms=b) for b in BUFFER_DEPTHS_MS]
        return sweep_api.SweepSpec.grid(
            base, {"events": events, "overload": overloads}
        )

    def run(self, inp: Any) -> Outcome:
        workdir = tempfile.mkdtemp(prefix="whatif-", dir=self.scratch)
        try:
            checkpoint = os.path.join(workdir, "grid.ckpt")
            sweep = sweep_api.run_sweep(
                inp, jobs=2, shm=True, checkpoint=checkpoint
            )
            size = os.path.getsize(checkpoint)
        finally:
            shutil.rmtree(workdir)
        return Outcome(sweep.results, sweep=sweep, checkpoint_bytes=size)

    def check(self, inp: Any, out: Outcome) -> list[str]:
        problems = super().check(inp, out)
        if out.sweep.failures:
            problems.append(f"quarantined cells: {out.sweep.failures}")
        return problems

    def verify(self, inp: Any, digests: list[str]) -> list[str]:
        """A serial run must be bit-identical to the jobs=2 run."""
        sweep = sweep_api.run_sweep(inp, jobs=1)
        if sweep.failures:
            return [f"jobs=1 rerun failed: {sweep.failures}"]
        if [result_digest(r) for r in sweep.results] != digests:
            return ["jobs=1 rerun differs from the jobs=2 run"]
        return []


def defense_faults() -> FaultPlan:
    """Incidental failures layered on the attack, all mid-window."""
    w = EVENT_WINDOW_START
    return FaultPlan(
        specs=(
            SiteFailure(
                letter="K", site="AMS", start=w + 12 * HOUR,
                duration_s=2 * HOUR,
            ),
            BgpSessionReset(
                letter="K", site="LHR", start=w + 15 * HOUR,
                duration_s=1800,
            ),
            BgpSessionReset(
                letter="K", site="FRA", start=w + 30 * HOUR,
                duration_s=1800,
            ),
            VpDropout(start=w + 18 * HOUR, duration_s=HOUR, fraction=0.5),
            PeerChurn(start=w + 6 * HOUR, duration_s=2 * HOUR, fraction=0.5),
            RssacOutage(letter="K", start=w, duration_s=86_400),
        )
    )


class Defense(Workload):
    name = "defense"
    cold_routing = True

    def make_input(self, scenario_seed: int) -> Any:
        return ScenarioConfig(
            seed=scenario_seed,
            n_stubs=6000,
            n_vps=1500,
            faults=defense_faults(),
            controllers={L: GreedyShedController() for L in ATTACKED_LETTERS},
        )

    def run(self, inp: Any) -> Outcome:
        return Outcome([repro.simulate(inp)])


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Paper, Whatif, Defense)
}


def routing_computes() -> int:
    """Routing tables computed in this process so far (full + delta)."""
    return PREFIX_CACHE_STATS["computes"]
