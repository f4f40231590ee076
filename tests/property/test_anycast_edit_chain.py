"""An anycast prefix driven through random edit chains routes exactly
like the scalar reference.

:class:`repro.netsim.anycast.AnycastPrefix` serves every
``routing()`` call from its current-table slot, its bounded per-prefix
LRU (keyed by :meth:`~repro.netsim.anycast.AnycastPrefix.state_key`)
or a fresh propagation.  Whichever tier answers, the table must equal
:func:`repro.netsim.bgp_reference.propagate` over the announced
origins in canonical (site-sorted) order -- same winners, same
tie-break floats, same AS paths, same iteration order.  Hypothesis
draws the topology, the sites, the LRU bound and a *sequence* of
announce / withdraw / block / reset edits, and every intermediate
table is checked, so a stale current slot, a state-key collision or an
eviction bug cannot hide behind a single transition.  Each logged
route change must also equal the reference's ``changes_from`` between
the two states.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import anycast, bgp_reference
from repro.netsim.anycast import AnycastPrefix
from repro.netsim.asgraph import ASGraph, AsNode, Relationship
from repro.netsim.bgp import Origin, RoutingTable, Scope
from repro.util import Location


@st.composite
def graph_and_origins(draw):
    """A random AS graph plus a prefix's site definitions.

    Provider edges orient low ASN -> high ASN so the transit hierarchy
    is acyclic, matching the kernel property suite; each site draws its
    scope, location (sometimes absent) and tie-break discount.
    """
    n = draw(st.integers(min_value=3, max_value=12))
    graph = ASGraph()
    for asn in range(1, n + 1):
        graph.add_as(
            AsNode(
                asn=asn,
                location=Location(
                    draw(st.floats(min_value=-60, max_value=60)),
                    draw(st.floats(min_value=-170, max_value=170)),
                ),
            )
        )
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            kind = draw(st.sampled_from(["none", "none", "cust", "peer"]))
            if kind == "cust":
                graph.add_link(a, b, Relationship.PROVIDER)
            elif kind == "peer":
                graph.add_link(a, b, Relationship.PEER)
    pool_size = draw(st.integers(min_value=2, max_value=min(5, n)))
    pool_asns = draw(
        st.lists(
            st.integers(min_value=1, max_value=n),
            min_size=pool_size,
            max_size=pool_size,
            unique=True,
        )
    )
    pool = []
    for asn in pool_asns:
        pool.append(
            Origin(
                site=f"S{asn}",
                asn=asn,
                scope=draw(st.sampled_from([Scope.GLOBAL, Scope.LOCAL])),
                location=draw(
                    st.sampled_from([None, graph.node(asn).location])
                ),
                preference_discount=draw(
                    st.sampled_from([0.0, 0.25, 0.5])
                ),
            )
        )
    return graph, pool


def reference_table(graph: ASGraph, prefix: AnycastPrefix) -> RoutingTable:
    """The scalar reference over the prefix's current announcement."""
    canonical = [
        prefix.origin(s).with_blocked(prefix.blocked_neighbors(s))
        for s in sorted(prefix.announced_sites())
    ]
    return bgp_reference.propagate(graph, canonical)


def assert_tables_identical(actual: RoutingTable, expected: RoutingTable):
    actual_routes = actual._routes
    expected_routes = expected._routes
    assert list(actual_routes) == list(expected_routes)
    for asn, route in expected_routes.items():
        assert actual_routes[asn] == route, asn
    assert actual.catchments() == expected.catchments()
    assert list(actual.catchments()) == list(expected.catchments())
    assert actual.reachable_asns() == expected.reachable_asns()


class TestPrefixMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(data=graph_and_origins(), edits=st.data())
    def test_edit_chain_matches_reference(self, data, edits):
        graph, pool = data
        cache_size = edits.draw(
            st.integers(min_value=1, max_value=4), label="LRU bound"
        )
        with mock.patch.object(anycast, "CACHE_SIZE", cache_size):
            prefix = AnycastPrefix(graph, pool)
            before = reference_table(graph, prefix)
            assert_tables_identical(prefix.routing(), before)
            n_edits = edits.draw(
                st.integers(min_value=1, max_value=8), label="edit count"
            )
            for step in range(n_edits):
                kind = edits.draw(
                    st.sampled_from(
                        ["announce", "withdraw", "block", "reset"]
                    ),
                    label="edit kind",
                )
                site = edits.draw(
                    st.sampled_from(prefix.sites), label="site"
                )
                logged = len(prefix.change_log())
                if kind == "reset":
                    prefix.reset()
                elif kind == "announce":
                    prefix.announce(site, timestamp=float(step))
                elif kind == "withdraw":
                    prefix.withdraw(site, timestamp=float(step))
                else:
                    asn = prefix.origin(site).asn
                    neighbors = sorted(graph.neighbors(asn))
                    blocked = edits.draw(
                        st.frozensets(
                            st.sampled_from(neighbors or [asn]),
                            max_size=2,
                        ),
                        label="blocked set",
                    )
                    prefix.set_blocked(site, blocked, timestamp=float(step))
                after = reference_table(graph, prefix)
                assert_tables_identical(prefix.routing(), after)
                log = prefix.change_log()
                if kind == "reset":
                    assert log == []
                else:
                    expected = after.changes_from(before)
                    assert len(log) == logged + bool(expected)
                    if expected:
                        assert log[-1].changed_asns == frozenset(expected)
                before = after
