"""Cross-cell routing-table reuse through each prefix's routing cache.

Every letter's :class:`~repro.netsim.anycast.AnycastPrefix` memoizes
its routing tables in one private, bounded LRU that survives
:meth:`~repro.scenario.engine.Substrate.reset`, so sweep cells that
share a substrate (same topology signature, different attack/fault
knobs) reuse each other's BGP propagations.  Reuse must be pure speed
-- every output array stays bit-identical to a fresh-substrate run,
and ``jobs=N`` stays bit-identical to ``jobs=1`` with the cache in
play.
"""

import dataclasses

import numpy as np
import pytest

from repro.netsim import anycast as anycast_module
from repro.netsim.anycast import PREFIX_CACHE_STATS
from repro.scenario import result_arrays
from repro.scenario.engine import build_substrate, simulate
from repro.sweep import SweepSpec, run_sweep


def _with_scaled_events(config, factor):
    """The same scenario with every attack's rate scaled by *factor*.

    Changes only a run-time knob, so the substrate signature -- and
    therefore the routing caches -- are identical to the base
    config's.
    """
    events = tuple(
        dataclasses.replace(event, rate_qps=event.rate_qps * factor)
        for event in config.events
    )
    return dataclasses.replace(config, events=events)


def _assert_bit_identical(a, b):
    got, want = result_arrays(a), result_arrays(b)
    assert set(got) == set(want)
    for name in want:
        assert np.array_equal(
            np.asarray(got[name]), np.asarray(want[name]),
            equal_nan=True,
        ), name


class TestSubstrateMemo:
    def test_memo_attached_to_every_prefix(self, tiny_base):
        # Each letter owns a private cache, and the tables
        # build_substrate computed (H's standby withdrawal) survive the
        # reset every reusing simulate() starts with.
        config = dataclasses.replace(tiny_base, letters=("H", "K"))
        substrate = build_substrate(config)
        caches = {
            letter: dict(deployment.prefix._cache)
            for letter, deployment in substrate.deployments.items()
        }
        assert len(
            {id(d.prefix._cache) for d in substrate.deployments.values()}
        ) == len(caches)
        assert any(caches.values())
        before = PREFIX_CACHE_STATS["computes"]
        substrate.reset()
        assert PREFIX_CACHE_STATS["computes"] == before
        for letter, deployment in substrate.deployments.items():
            assert deployment.prefix._cache == caches[letter]

    def test_simulate_populates_memo_per_letter(self, tiny_base):
        substrate = build_substrate(tiny_base)
        simulate(tiny_base, substrate)
        for deployment in substrate.deployments.values():
            cache = deployment.prefix._cache
            assert 0 < len(cache) <= anycast_module.CACHE_SIZE

    def test_reused_substrate_computes_no_new_tables(self, tiny_base):
        substrate = build_substrate(tiny_base)
        first = simulate(tiny_base, substrate)
        before = PREFIX_CACHE_STATS["computes"]
        second = simulate(tiny_base, substrate)
        assert PREFIX_CACHE_STATS["computes"] == before
        _assert_bit_identical(second, first)

    def test_memo_serves_cells_across_lru_eviction(
        self, tiny_base, monkeypatch
    ):
        # A one-entry cache evicts on every state change; a cell run
        # on the reused substrate must still match a fresh build.
        monkeypatch.setattr(anycast_module, "CACHE_SIZE", 1)
        substrate = build_substrate(tiny_base)
        simulate(tiny_base, substrate)
        for deployment in substrate.deployments.values():
            assert len(deployment.prefix._cache) == 1
        heavy = _with_scaled_events(tiny_base, 2.0)
        reused = simulate(heavy, substrate)
        monkeypatch.undo()
        _assert_bit_identical(reused, simulate(heavy, build_substrate(heavy)))


class TestJobsParity:
    @pytest.mark.parametrize("jobs", [2])
    def test_attack_axis_bit_identical_across_jobs(self, tiny_base, jobs):
        points = [
            {},
            {"events": _with_scaled_events(tiny_base, 2.0).events},
        ]
        spec = SweepSpec.from_points(tiny_base, points)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=jobs)
        assert len(serial.results) == len(parallel.results)
        for a, b in zip(serial.results, parallel.results):
            _assert_bit_identical(a, b)
