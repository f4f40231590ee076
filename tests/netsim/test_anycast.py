"""Tests for anycast announcement state and change logging."""

import pytest

from repro.netsim import (
    DELTA_STATS,
    ASGraph,
    AnycastPrefix,
    AsNode,
    Origin,
    Relationship,
    propagate,
    propagate_delta,
)
from repro.netsim import anycast as anycast_module
from repro.netsim.anycast import PREFIX_CACHE_STATS
from repro.util import Location


def _node(asn):
    return AsNode(asn=asn, location=Location(0, 0))


def _make_prefix():
    graph = ASGraph()
    for asn in (1, 2, 3, 4, 5):
        graph.add_as(_node(asn))
    graph.add_link(1, 3, Relationship.PROVIDER)
    graph.add_link(2, 4, Relationship.PROVIDER)
    graph.add_link(3, 4, Relationship.PEER)
    graph.add_link(5, 3, Relationship.PROVIDER)
    return AnycastPrefix(
        graph, [Origin(site="A", asn=1), Origin(site="B", asn=2)]
    )


@pytest.fixture
def prefix():
    return _make_prefix()


class TestState:
    def test_initially_all_announced(self, prefix):
        assert prefix.announced_sites() == {"A", "B"}
        assert prefix.is_announced("A")

    def test_withdraw_changes_catchment(self, prefix):
        assert prefix.catchment_of(5) == "A"
        assert prefix.withdraw("A", timestamp=100.0)
        assert prefix.catchment_of(5) == "B"
        assert prefix.announced_sites() == {"B"}

    def test_withdraw_idempotent(self, prefix):
        assert prefix.withdraw("A", timestamp=100.0)
        assert not prefix.withdraw("A", timestamp=101.0)
        assert len(prefix.change_log()) == 1

    def test_reannounce_restores(self, prefix):
        before = prefix.catchment_of(5)
        prefix.withdraw("A", timestamp=100.0)
        prefix.announce("A", timestamp=200.0)
        assert prefix.catchment_of(5) == before

    def test_unknown_site_raises(self, prefix):
        with pytest.raises(KeyError):
            prefix.withdraw("Z", timestamp=0.0)
        with pytest.raises(KeyError):
            prefix.is_announced("Z")
        with pytest.raises(KeyError):
            prefix.origin("Z")

    def test_all_withdrawn_leaves_no_routes(self, prefix):
        prefix.withdraw("A", timestamp=1.0)
        prefix.withdraw("B", timestamp=2.0)
        assert prefix.catchment_of(5) is None
        assert len(prefix.routing()) == 0


class TestChangeLog:
    def test_change_log_records_affected_asns(self, prefix):
        prefix.withdraw("A", timestamp=100.0)
        log = prefix.change_log()
        assert len(log) == 1
        assert log[0].timestamp == 100.0
        # ASes 1, 3, 5 were in A's catchment and must change.
        assert {1, 3, 5} <= log[0].changed_asns

    def test_log_ordering(self, prefix):
        prefix.withdraw("A", timestamp=100.0)
        prefix.announce("A", timestamp=200.0)
        times = [rec.timestamp for rec in prefix.change_log()]
        assert times == [100.0, 200.0]


def _limit_cache(monkeypatch, size):
    """Patch the per-prefix cache bound for the rest of the test."""
    monkeypatch.setattr(anycast_module, "CACHE_SIZE", size)


class TestCacheLru:
    def test_cache_stays_bounded(self, monkeypatch):
        for size in (1, 2):
            _limit_cache(monkeypatch, size)
            prefix = _make_prefix()
            # Cycle through 4 distinct announcement states.
            prefix.routing()                      # {A, B}
            prefix.withdraw("A", timestamp=1.0)   # {B}
            prefix.withdraw("B", timestamp=2.0)   # {}
            prefix.announce("A", timestamp=3.0)   # {A}
            assert len(prefix._cache) == size

    def test_cache_stays_bounded_across_reset(self, monkeypatch):
        # reset() keeps the cached states, so cycling through more
        # states afterwards must still evict down to the bound.
        _limit_cache(monkeypatch, 2)
        prefix = _make_prefix()
        for round_ in range(2):
            prefix.routing()                      # {A, B}
            prefix.withdraw("A", timestamp=1.0)   # {B}
            prefix.withdraw("B", timestamp=2.0)   # {}
            prefix.announce("A", timestamp=3.0)   # {A}
            assert len(prefix._cache) == 2
            assert prefix.catchment_of(5) == "A"
            prefix.reset()
            assert len(prefix._cache) == 2

    def test_eviction_preserves_routing_outputs(self, monkeypatch):
        # A tiny cache forces evictions while a large one never
        # evicts; the observable outputs (catchments, change log) must
        # be identical -- only version tokens may differ.
        def drive(size):
            _limit_cache(monkeypatch, size)
            prefix = _make_prefix()
            seen = []
            schedule = [
                ("A", False), ("B", False), ("A", True),
                ("B", True), ("A", False), ("A", True),
            ]
            for t, (site, up) in enumerate(schedule):
                prefix.set_announced(site, up, timestamp=float(t))
                seen.append(prefix.routing().catchments())
            changes = [rec.changed_asns for rec in prefix.change_log()]
            return seen, changes

        assert drive(1) == drive(2) == drive(64)

    def test_recomputed_state_gets_fresh_version(self, monkeypatch):
        _limit_cache(monkeypatch, 1)
        prefix = _make_prefix()
        v_full = prefix.routing().version
        prefix.withdraw("A", timestamp=1.0)   # evicts {A, B}
        prefix.routing()
        prefix.announce("A", timestamp=2.0)   # recompute {A, B}
        assert prefix.routing().version != v_full

    def test_recency_keeps_hot_state(self, monkeypatch):
        _limit_cache(monkeypatch, 2)
        prefix = _make_prefix()
        prefix.routing()                      # {A, B} cached
        prefix.withdraw("A", timestamp=1.0)   # {B} cached
        prefix.announce("A", timestamp=2.0)   # {A, B} hit, refreshed
        v_full = prefix.routing().version
        prefix.withdraw("B", timestamp=3.0)   # {A} evicts {B}, not {A, B}
        prefix.announce("B", timestamp=4.0)
        assert prefix.routing().version == v_full

    def test_cache_survives_reset(self):
        prefix = _make_prefix()
        v_full = prefix.routing().version
        prefix.withdraw("A", timestamp=1.0)
        v_b = prefix.routing().version
        entries = dict(prefix._cache)
        prefix.reset()
        assert prefix._cache == entries
        assert prefix.change_log() == []
        before = PREFIX_CACHE_STATS["computes"]
        assert prefix.routing().version == v_full
        prefix.withdraw("A", timestamp=2.0)
        assert prefix.routing().version == v_b
        assert PREFIX_CACHE_STATS["computes"] == before


class TestValidation:
    def test_needs_origins(self, prefix):
        with pytest.raises(ValueError):
            AnycastPrefix(prefix.graph, [])

    def test_rejects_duplicate_sites(self, prefix):
        with pytest.raises(ValueError):
            AnycastPrefix(
                prefix.graph,
                [Origin(site="A", asn=1), Origin(site="A", asn=2)],
            )


def _delta_calls():
    """propagate_delta calls so far: each ends as a replay, a fallback
    or a ripple bailout."""
    return (
        DELTA_STATS["delta"]
        + DELTA_STATS["fallback"]
        + DELTA_STATS["ripple_bailouts"]
    )


def _assert_same_routes(actual, expected):
    assert list(actual._routes) == list(expected._routes)
    assert actual._routes == expected._routes
    assert actual.catchments() == expected.catchments()


class TestDeltaWiring:
    """routing() derives fresh states from cached tables via deltas."""

    @pytest.fixture(autouse=True)
    def _force_delta_eligible(self, monkeypatch):
        # The toy graphs here sit far below the size cutoff where the
        # delta path pays off; drop it so the wiring stays exercised.
        monkeypatch.setattr(anycast_module, "DELTA_MIN_NODES", 0)

    def test_state_changes_are_delta_derived(self, prefix):
        before = _delta_calls()
        prefix.routing()                                   # cold: full
        prefix.withdraw("A", timestamp=1.0)                # delta base {A,B}
        prefix.set_blocked("B", frozenset({4}), timestamp=2.0)
        assert _delta_calls() == before + 2

    def test_delta_tables_match_full_propagation(self, prefix):
        prefix.withdraw("A", timestamp=1.0)
        table = prefix.routing()
        full = propagate(prefix.graph, [prefix.origin("B")])
        _assert_same_routes(table, full)

    def test_delta_base_is_previous_table(self, prefix, monkeypatch):
        # Every derived table starts from the one routing() returned
        # last -- the state being left, including across reset().
        bases = []

        def spy(graph, previous, announce=(), withdraw=()):
            bases.append(previous)
            return propagate_delta(
                graph, previous, announce=announce, withdraw=withdraw
            )

        monkeypatch.setattr(anycast_module, "propagate_delta", spy)
        full = prefix.routing()
        prefix.withdraw("A", timestamp=1.0)
        only_b = prefix.routing()
        prefix.set_blocked("B", frozenset({4}), timestamp=2.0)
        prefix.reset()
        prefix.routing()                                   # cached {A,B}
        prefix.set_blocked("A", frozenset({3}), timestamp=3.0)
        assert [id(t) for t in bases] == [
            id(full), id(only_b), id(full)
        ]

    def test_dict_backed_tables_never_seed_deltas(self, monkeypatch):
        # bench_routing's reference A/B swaps propagate for the scalar
        # implementation; its dict-backed tables land in the cache and
        # must never seed a replay, even as the previous table.
        from repro.netsim import bgp_reference

        prefix = _make_prefix()
        with monkeypatch.context() as patched:
            patched.setattr(
                anycast_module, "propagate", bgp_reference.propagate
            )
            prefix.routing()                   # dict-backed {A, B} cached
        prefix.withdraw("A", timestamp=1.0)    # must not replay from it
        full = propagate(prefix.graph, [prefix.origin("B")])
        _assert_same_routes(prefix.routing(), full)


class TestDeltaSizeCutoff:
    def test_small_graphs_skip_the_delta_path(self, prefix):
        # Under the default DELTA_MIN_NODES cutoff a 5-node graph
        # always propagates in full; outputs stay identical.
        before = _delta_calls()
        prefix.routing()
        prefix.withdraw("A", timestamp=1.0)
        table = prefix.routing()
        assert _delta_calls() == before
        _assert_same_routes(
            table, propagate(prefix.graph, [prefix.origin("B")])
        )
