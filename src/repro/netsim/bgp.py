"""Path-vector route propagation with valley-free (Gao-Rexford) export.

Anycast catchments are the set of networks whose BGP best path leads to
a given site (paper section 2.1).  This module computes, for a set of
anycast origins announcing one prefix, the best route at every AS:

* routes learned from **customers** are exported to everyone;
* routes learned from **peers** or **providers** are exported only to
  customers;
* preference order is customer > peer > provider, then shortest AS
  path, then a deterministic tie-break (geographic proximity to the
  origin site, approximating hot-potato/IGP tie-breaks, then site id).

Sites announced with a **local** scope (the paper's NOPEER/NO_EXPORT
sites, Table 2) install their route only at the host AS and its direct
neighbors; the route is never re-exported, so the catchment stays in
the immediate neighborhood.

The propagation is a level-synchronous BFS run in three stages
(customer-learned "uphill", one peer hop, provider-learned "downhill").
:func:`propagate` is an array kernel over the graph's compiled CSR
view (:meth:`~repro.netsim.asgraph.ASGraph.compiled`): each stage
expands whole frontiers at once, selects per-AS winners with one
stable lexicographic sort, and stores best routes as parallel arrays.
AS paths live in an append-only record forest and are materialized
into :class:`Route` objects only when a caller asks for them.  The
kernel reproduces the scalar reference implementation
(:mod:`repro.netsim.bgp_reference`) bit for bit, including its
insertion-order-dependent tie-breaking; the property tests in
``tests/property/test_bgp_kernel.py`` pin that equivalence.
"""

from __future__ import annotations

import enum
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from ..util.geo import Location, haversine_km
from .asgraph import ASGraph, CompiledGraph

if TYPE_CHECKING:
    from .asgraph import AsNode  # noqa: F401  (doc cross-references)

#: Process-wide monotonic source of :attr:`RoutingTable.version` tokens.
#: Unlike ``id()``, a version is never reused after garbage collection,
#: so it is safe to key long-lived caches on it.
_TABLE_VERSIONS = itertools.count(1)

#: ``best_class`` sentinel for "no route"; larger than every real
#: :class:`RouteClass`, so lexicographic comparison needs no mask.
_UNREACHED = 127

#: Route class seen by a neighbor of a local-scope origin, indexed by
#: the origin's relationship code for that neighbor (see
#: ``asgraph._REL_CODES``): our provider (1) learns a customer route
#: (0), a peer (2) a peer route (1), our customer (0) a provider route
#: (2).
_EXPORT_CLASS = np.array([2, 0, 1], dtype=np.int8)


class Scope(enum.Enum):
    """Anycast announcement scope (paper's global vs local sites)."""

    GLOBAL = "global"
    LOCAL = "local"


class RouteClass(enum.IntEnum):
    """Preference class of a route; lower is better."""

    CUSTOMER = 0
    PEER = 1
    PROVIDER = 2


@dataclass(frozen=True, slots=True)
class Origin:
    """One anycast origin: a site announced from its host AS.

    *blocked_neighbors* models partial withdrawal: the origin stops
    exporting to those direct neighbors while still serving the rest.
    Under stress this is how a site sheds part of its catchment while
    remaining a degraded absorber for "stuck" networks (paper §3.4.2:
    some VPs stay pinned to an overloaded site while others shift).
    """

    site: str
    asn: int
    scope: Scope = Scope.GLOBAL
    location: Location | None = None
    blocked_neighbors: frozenset[int] = frozenset()
    #: Interconnection-richness discount applied to the geo tie-break
    #: distance (0 = none, 0.5 = distances count half).  Densely peered
    #: sites (K-AMS at AMS-IX) win ties over a wider radius than their
    #: location alone would suggest, without ever beating a zero-
    #: distance competitor.
    preference_discount: float = 0.0

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("origin site id must be non-empty")
        if not 0.0 <= self.preference_discount < 1.0:
            raise ValueError("preference_discount must be within [0, 1)")

    def with_blocked(self, blocked: frozenset[int]) -> "Origin":
        """A copy of this origin with a different blocked set."""
        return Origin(
            site=self.site,
            asn=self.asn,
            scope=self.scope,
            location=self.location,
            blocked_neighbors=blocked,
            preference_discount=self.preference_discount,
        )


@dataclass(frozen=True, slots=True)
class Route:
    """An AS's best route towards the anycast prefix.

    *path* lists the ASes the announcement traversed, origin first and
    the route holder last (so ``len(path)`` is the AS-path length).
    """

    site: str
    origin_asn: int
    path: tuple[int, ...]
    route_class: RouteClass
    tiebreak: float

    @property
    def path_len(self) -> int:
        """AS-path length (number of ASes, origin included)."""
        return len(self.path)

    def preference_key(self) -> tuple:
        """Lexicographic key; the smallest key wins."""
        return (
            int(self.route_class),
            self.path_len,
            self.tiebreak,
            self.site,
            self.origin_asn,
        )

    def better_than(self, other: "Route | None") -> bool:
        """Whether this route beats *other* in BGP preference."""
        if other is None:
            return True
        return self.preference_key() < other.preference_key()


@dataclass(frozen=True, slots=True)
class _LevelTrace:
    """One BFS level of a propagation run, as recorded for delta replay.

    ``frontier`` lists the rows installed at this level in frontier
    order (first-candidate-occurrence order); ``fresh`` marks rows
    installed for the first time (the ones that entered ``order``).
    For batched levels, ``first_pred``/``first_adj`` name the first
    candidate each frontier row saw: the predecessor row and its
    adjacency offset in the *forward* CSR -- together with the
    predecessor's frontier position this reconstructs the row's
    first-seen sort key without re-expanding the level.
    """

    stage: int                      # 0 seed, 1 customer, 2 peer, 3 provider, 4 local
    frontier: np.ndarray            # int64 rows, frontier order
    fresh: np.ndarray               # bool, aligned to frontier
    first_pred: np.ndarray | None   # int64 pred rows (None at the seed)
    first_adj: np.ndarray | None    # int64 adjacency offsets
    #: Values installed at this level, aligned to ``frontier``:
    #: (pathlen, tiebreak, site, origin, rec).  A row re-installed at a
    #: later level overwrites these in the final arrays, so the trace
    #: is the only place its transient mid-run route survives -- the
    #: delta replay needs it to reproduce what such a row exported
    #: between its installs.  ``None`` only on local-stage levels.
    inst: tuple[np.ndarray, ...] | None = None


@dataclass(frozen=True, slots=True)
class _PropTrace:
    """Level schedule of one propagation, for :func:`propagate_delta`.

    ``seed_installs`` keeps the raw seed install sequence *with*
    duplicates (an AS hosting two sites can install twice), so the
    delta path can spot rows whose during-run state differs from their
    final state and re-derive them instead of trusting the arrays.
    """

    origins: tuple[Origin, ...]
    graph_version: int
    seed_installs: tuple[int, ...]
    levels: tuple[_LevelTrace, ...]  # levels[0] is the seed frontier
    #: Snapshot of the best-route arrays *before* the local stage ran
    #: (class, pathlen, tiebreak, site, origin, rec), or ``None`` when
    #: no local origins exist (the final arrays already are the batched
    #: result).  Replays start from this snapshot and re-run the local
    #: stage outright, so local catchments never look like churn.
    pre_local: tuple[np.ndarray, ...] | None = None


@dataclass(frozen=True, slots=True)
class _TableArrays:
    """Array backing of one routing table (kernel output).

    Rows align with the compiled graph.  ``best_site`` holds indices
    into ``site_names`` (sorted, so index order equals the reference's
    lexicographic site comparison) with ``-1`` for "no route";
    ``best_class`` uses :data:`_UNREACHED` as its sentinel.  AS paths
    are chains in the append-only record forest: ``best_rec[row]``
    points at the last hop, ``rec_parent`` walks back to the origin
    (``-1`` terminates), and ``rec_row`` names the AS at each hop.
    ``order`` lists reached rows in first-install order -- the exact
    insertion order of the reference implementation's dict, which
    materialized dicts reproduce.
    """

    compiled: CompiledGraph
    site_names: tuple[str, ...]
    best_class: np.ndarray    # int8, _UNREACHED where no route
    best_pathlen: np.ndarray  # int16
    best_tiebreak: np.ndarray # float64
    best_site: np.ndarray     # int16 index into site_names, -1 none
    best_origin: np.ndarray   # int64 origin ASN
    best_rec: np.ndarray      # int64 index into the record forest
    rec_row: np.ndarray       # int32 AS row of each record
    rec_parent: np.ndarray    # int64 parent record, -1 at the origin
    order: np.ndarray         # int64 reached rows, first-install order
    #: Level schedule recorded during the run; lets
    #: :func:`propagate_delta` replay only the contested slice of each
    #: level.  ``None`` on tables the delta path cannot extend.
    trace: "_PropTrace | None" = None


class RoutingTable:
    """Best route per AS for one anycast prefix.

    Every table carries a process-unique, monotonic :attr:`version`
    token assigned at construction.  Cached tables (see
    :class:`~repro.netsim.anycast.AnycastPrefix`) keep their version
    across reuse, so ``version`` is the correct cache key for any
    derived data (catchment arrays, share vectors) -- unlike
    ``id(table)``, which can alias once a table is garbage collected.

    Tables come in two backings: the array kernel produces tables over
    :class:`_TableArrays` (``Route`` objects and the full dict are
    materialized lazily, only when asked), while the dict constructor
    remains for hand-built tables and the scalar reference.  All query
    methods behave identically on both.
    """

    def __init__(self, routes: dict[int, Route]) -> None:
        self._dict: dict[int, Route] | None = routes
        self._arrays: _TableArrays | None = None
        self._route_cache: dict[int, Route] = {}
        self.version = next(_TABLE_VERSIONS)

    @classmethod
    def _from_arrays(cls, arrays: _TableArrays) -> "RoutingTable":
        table = cls.__new__(cls)
        table._dict = None
        table._arrays = arrays
        table._route_cache = {}
        table.version = next(_TABLE_VERSIONS)
        return table

    # -- lazy materialization -----------------------------------------

    def _route_at(self, row: int) -> Route:
        """Materialize the :class:`Route` held at compiled-graph *row*."""
        arrays = self._arrays
        assert arrays is not None
        hops: list[int] = []
        rec = int(arrays.best_rec[row])
        while rec >= 0:
            hops.append(int(arrays.rec_row[rec]))
            rec = int(arrays.rec_parent[rec])
        asn_of = arrays.compiled.asn_of
        path = tuple(int(asn_of[r]) for r in reversed(hops))
        return Route(
            site=arrays.site_names[int(arrays.best_site[row])],
            origin_asn=int(arrays.best_origin[row]),
            path=path,
            route_class=RouteClass(int(arrays.best_class[row])),
            tiebreak=float(arrays.best_tiebreak[row]),
        )

    @property
    def _routes(self) -> dict[int, Route]:
        """The full ``asn -> Route`` dict, materialized on first use.

        Iteration order equals the reference implementation's install
        order, so dict-based fallbacks stay order-identical.
        """
        if self._dict is None:
            arrays = self._arrays
            assert arrays is not None
            asn_of = arrays.compiled.asn_of
            self._dict = {
                int(asn_of[row]): self._route_at(row)
                for row in arrays.order.tolist()
            }
        return self._dict

    # -- queries ------------------------------------------------------

    def route(self, asn: int) -> Route | None:
        """The best route of *asn*, or ``None`` if unreachable."""
        if self._dict is not None:
            return self._dict.get(asn)
        arrays = self._arrays
        assert arrays is not None
        row = arrays.compiled.row_of.get(asn)
        if row is None or arrays.best_class[row] == _UNREACHED:
            return None
        cached = self._route_cache.get(asn)
        if cached is None:
            cached = self._route_at(row)
            self._route_cache[asn] = cached
        return cached

    def site_of(self, asn: int) -> str | None:
        """The anycast site *asn*'s traffic reaches, or ``None``."""
        if self._dict is not None:
            route = self._dict.get(asn)
            return None if route is None else route.site
        arrays = self._arrays
        assert arrays is not None
        row = arrays.compiled.row_of.get(asn)
        if row is None or arrays.best_class[row] == _UNREACHED:
            return None
        return arrays.site_names[int(arrays.best_site[row])]

    def sites_of(
        self, asns: Iterable[int], site_index: Mapping[str, int]
    ) -> np.ndarray:
        """Vectorized catchment lookup over *asns*.

        Returns an ``int16`` array of site indices (per *site_index*),
        with ``-1`` for ASes holding no route.
        """
        arrays = self._arrays
        if arrays is None:
            return self._sites_of_dict(asns, site_index)
        asn_arr = np.asarray(asns, dtype=np.int64)
        out = np.full(asn_arr.size, -1, dtype=np.int16)
        rows = arrays.compiled.rows_of(asn_arr)
        valid = rows >= 0
        if not bool(valid.any()):
            return out
        # Translate kernel site indices into the caller's *site_index*;
        # the trailing -1 slot catches unreached rows (best_site == -1).
        trans = np.full(len(arrays.site_names) + 1, -1, dtype=np.int16)
        for i, name in enumerate(arrays.site_names):
            trans[i] = site_index.get(name, -2)
        picked = trans[arrays.best_site[rows[valid]]]
        if bool((picked == -2).any()):
            missing = sorted(
                name
                for name in arrays.site_names
                if name not in site_index
            )
            raise KeyError(missing[0])
        out[valid] = picked
        return out

    def _sites_of_dict(
        self, asns: Iterable[int], site_index: Mapping[str, int]
    ) -> np.ndarray:
        routes = self._routes
        asn_arr = np.asarray(asns, dtype=np.int64)
        out = np.full(asn_arr.size, -1, dtype=np.int16)
        get = routes.get
        for i, asn in enumerate(asn_arr.tolist()):
            route = get(asn)
            if route is not None:
                out[i] = site_index[route.site]
        return out

    def catchments(self) -> dict[str, set[int]]:
        """Site -> set of ASes routed to it."""
        result: dict[str, set[int]] = defaultdict(set)
        arrays = self._arrays
        if arrays is not None and self._dict is None:
            asn_of = arrays.compiled.asn_of
            best_site = arrays.best_site
            for row in arrays.order.tolist():
                site = arrays.site_names[int(best_site[row])]
                result[site].add(int(asn_of[row]))
            return dict(result)
        for asn, route in self._routes.items():
            result[route.site].add(asn)
        return dict(result)

    def reachable_asns(self) -> set[int]:
        """All ASes holding any route."""
        arrays = self._arrays
        if arrays is not None:
            rows = np.flatnonzero(arrays.best_class != _UNREACHED)
            return set(arrays.compiled.asn_of[rows].tolist())
        return set(self._routes)

    def changes_from(self, previous: "RoutingTable") -> set[int]:
        """ASes whose best route differs from *previous*.

        A change of site, of path, or gain/loss of reachability all
        counts -- this mirrors what a BGP collector peer sees as update
        activity (paper section 3.4.1).  Two array-backed tables over
        the same compiled graph compare without materializing a single
        ``Route``: the five best-route arrays are compared elementwise
        and only key-equal rows fall back to a vectorized walk of both
        record chains (equal keys imply equal path lengths, so the
        chains terminate in lockstep).
        """
        mine, theirs = self._arrays, previous._arrays
        if (
            mine is not None
            and theirs is not None
            and (
                mine.compiled is theirs.compiled
                or _rows_prefix_aligned(mine.compiled, theirs.compiled)
            )
        ):
            return self._changes_from_arrays(mine, theirs)
        changed: set[int] = set()
        prev = previous._routes
        for asn, route in self._routes.items():
            if prev.get(asn) != route:
                changed.add(asn)
        for asn in prev:
            if asn not in self._routes:
                changed.add(asn)
        return changed

    @staticmethod
    def _changes_from_arrays(
        mine: _TableArrays, theirs: _TableArrays
    ) -> set[int]:
        # The two tables may sit on different compiled views of an
        # append-only graph (the caller verified the shared row
        # prefix); rows past the shorter table exist on one side only
        # and count as changed wherever they hold a route.
        n = min(mine.best_class.shape[0], theirs.best_class.shape[0])
        reached_a = mine.best_class[:n] != _UNREACHED
        reached_b = theirs.best_class[:n] != _UNREACHED
        changed = reached_a != reached_b
        both = reached_a & reached_b
        if mine.site_names == theirs.site_names:
            their_site = theirs.best_site[:n]
        else:
            # Map the other table's site indices into this table's
            # space; -2 marks sites this table does not know (always a
            # difference) and the trailing slot keeps -1 (unreached).
            index = {name: i for i, name in enumerate(mine.site_names)}
            trans = np.full(
                len(theirs.site_names) + 1, -2, dtype=np.int16
            )
            trans[-1] = -1
            for j, name in enumerate(theirs.site_names):
                trans[j] = index.get(name, -2)
            their_site = trans[theirs.best_site[:n]]
        keydiff = (
            (mine.best_class[:n] != theirs.best_class[:n])
            | (mine.best_pathlen[:n] != theirs.best_pathlen[:n])
            | (mine.best_tiebreak[:n] != theirs.best_tiebreak[:n])
            | (mine.best_site[:n] != their_site)
            | (mine.best_origin[:n] != theirs.best_origin[:n])
        )
        changed |= both & keydiff
        changed_rows = [np.flatnonzero(changed)]
        if mine.best_class.shape[0] > n:
            changed_rows.append(
                n + np.flatnonzero(mine.best_class[n:] != _UNREACHED)
            )
        # Key-equal rows can still differ in the path interior; walk
        # both record chains level by level (same length: equal keys
        # imply equal path lengths).
        same = np.flatnonzero(both & ~keydiff)
        rec_a = mine.best_rec[same]
        rec_b = theirs.best_rec[same]
        while same.size:
            neq = mine.rec_row[rec_a] != theirs.rec_row[rec_b]
            if bool(neq.any()):
                changed_rows.append(same[neq])
                keep = ~neq
                same, rec_a, rec_b = same[keep], rec_a[keep], rec_b[keep]
                if not same.size:
                    break
            rec_a = mine.rec_parent[rec_a]
            rec_b = theirs.rec_parent[rec_b]
            alive = rec_a >= 0
            same, rec_a, rec_b = same[alive], rec_a[alive], rec_b[alive]
        rows = np.concatenate(changed_rows)
        result = set(mine.compiled.asn_of[rows].tolist())
        if theirs.best_class.shape[0] > n:
            extra = n + np.flatnonzero(
                theirs.best_class[n:] != _UNREACHED
            )
            result.update(theirs.compiled.asn_of[extra].tolist())
        return result

    def __len__(self) -> int:
        arrays = self._arrays
        if arrays is not None:
            return int((arrays.best_class != _UNREACHED).sum())
        return len(self._routes)


def _rows_prefix_aligned(a: CompiledGraph, b: CompiledGraph) -> bool:
    """Whether two compiled views share their leading row order.

    AS nodes are append-only, so two compilations of the *same* graph
    taken before and after it grew agree on every shared row -- their
    tables then compare elementwise over the common prefix instead of
    materializing Route dicts.  Checked against the actual asn rows
    (not assumed) so unrelated graphs never take the array path.
    """
    n = min(a.asn_of.shape[0], b.asn_of.shape[0])
    return bool(np.array_equal(a.asn_of[:n], b.asn_of[:n]))


def _geo_tiebreak(graph: ASGraph, asn: int, origin: Origin) -> float:
    """Effective distance from *asn* to the origin site (0 if unknown).

    The origin's richness discount shrinks its effective distance.
    Kept as the scalar definition of the tie-break; :func:`propagate`
    uses precomputed per-origin distance rows instead.
    """
    if origin.location is None:
        return 0.0
    distance = haversine_km(graph.node(asn).location, origin.location)
    return distance * (1.0 - origin.preference_discount)


class _Propagation:
    """Mutable state of one array-kernel propagation run.

    The kernel mirrors the scalar reference exactly, including every
    ordering the reference inherits from dict iteration: CSR adjacency
    preserves link-insertion order, per-level winners are chosen by a
    stable lexicographic sort (first candidate wins full-key ties, as
    Python's ``min`` does), level frontiers keep first-occurrence
    target order (``dict.items`` over the reference's candidate dict),
    and ``order`` records first-install order (the reference's best
    dict insertion order).
    """

    def __init__(
        self, graph: ASGraph, origins: list[Origin]
    ) -> None:
        self.compiled = graph.compiled()
        n = self.compiled.n_nodes
        self.site_names = tuple(sorted({o.site for o in origins}))
        site_idx = {s: i for i, s in enumerate(self.site_names)}
        self.site_idx = site_idx
        # Tie-break distances per site over all ASes.  Rows come from
        # the graph's per-version memo, so repeated propagations (and
        # the scalar reference) see bit-identical float64 values; sites
        # without a located origin tie-break at 0.0.  Duplicated site
        # ids resolve last-origin-wins, like the reference's dict.
        self.tie = np.zeros((len(self.site_names), n), dtype=np.float64)
        located = [o for o in origins if o.location is not None]
        if located:
            rows = graph.distance_rows(
                [
                    (o.asn, o.location, 1.0 - o.preference_discount)
                    for o in located
                ]
            )
            for origin, row in zip(located, rows):
                self.tie[site_idx[origin.site]] = row
        by_site = {o.site: o for o in origins}
        self.blocked: np.ndarray | None = None
        if any(o.blocked_neighbors for o in by_site.values()):
            blocked = np.zeros((len(self.site_names), n), dtype=bool)
            for site, origin in by_site.items():
                for neighbor in origin.blocked_neighbors:
                    row = self.compiled.row_of.get(neighbor)
                    if row is not None:
                        blocked[site_idx[site], row] = True
            self.blocked = blocked
        self.best_class = np.full(n, _UNREACHED, dtype=np.int8)
        self.best_pathlen = np.zeros(n, dtype=np.int16)
        self.best_tiebreak = np.zeros(n, dtype=np.float64)
        self.best_site = np.full(n, -1, dtype=np.int16)
        self.best_origin = np.zeros(n, dtype=np.int64)
        self.best_rec = np.full(n, -1, dtype=np.int64)
        self.rec_rows: list[np.ndarray] = []
        self.rec_parents: list[np.ndarray] = []
        self.pending_rows: list[int] = []
        self.pending_parents: list[int] = []
        self.rec_count = 0
        self.order_chunks: list[np.ndarray] = []
        self.trace_levels: list[_LevelTrace] = []

    def site_tb(self, site: int, rows: np.ndarray) -> np.ndarray:
        """Tie-break floats of *site* at *rows*."""
        result: np.ndarray = self.tie[site, rows]
        return result

    # -- record forest ------------------------------------------------

    def new_record(self, row: int, parent: int) -> int:
        """Append one path record and return its index.

        Scalar records buffer in Python lists; :meth:`_flush_pending`
        folds them into the chunked forest before any batched append,
        preserving creation order.
        """
        self.pending_rows.append(row)
        self.pending_parents.append(parent)
        rec = self.rec_count
        self.rec_count += 1
        return rec

    def _flush_pending(self) -> None:
        if self.pending_rows:
            self.rec_rows.append(
                np.array(self.pending_rows, dtype=np.int32)
            )
            self.rec_parents.append(
                np.array(self.pending_parents, dtype=np.int64)
            )
            self.pending_rows = []
            self.pending_parents = []

    # -- scalar offers (bootstrap and local origins) ------------------

    def scalar_beats(
        self, row: int, cls: int, plen: int, tb: float, site: int,
        origin_asn: int,
    ) -> bool:
        return (cls, plen, tb, site, origin_asn) < (
            int(self.best_class[row]),
            int(self.best_pathlen[row]),
            float(self.best_tiebreak[row]),
            int(self.best_site[row]),
            int(self.best_origin[row]),
        )

    def scalar_install(
        self, row: int, cls: int, plen: int, tb: float, site: int,
        origin_asn: int, parent: int,
    ) -> None:
        if self.best_class[row] == _UNREACHED:
            self.order_chunks.append(np.array([row], dtype=np.int64))
        self.best_class[row] = cls
        self.best_pathlen[row] = plen
        self.best_tiebreak[row] = tb
        self.best_site[row] = site
        self.best_origin[row] = origin_asn
        self.best_rec[row] = self.new_record(row, parent)

    # -- batched frontier machinery -----------------------------------

    def expand(
        self, indptr: np.ndarray, indices: np.ndarray,
        frontier: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All (pred, target, adjacency-offset) edges out of *frontier*,
        in the exact order the reference visits them: frontier order
        outer, adjacency (link-insertion) order inner."""
        counts = indptr[frontier + 1] - indptr[frontier]
        total = int(counts.sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty
        preds = np.repeat(frontier, counts)
        starts = np.repeat(indptr[frontier], counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        targets = indices[starts + within].astype(np.int64)
        return preds, targets, within

    def vector_beats(
        self, rows: np.ndarray, cls: np.ndarray, plen: np.ndarray,
        tb: np.ndarray, site: np.ndarray, origin_asn: np.ndarray,
    ) -> np.ndarray:
        """Strict lexicographic preference vs the incumbents at *rows*."""
        b_cls = self.best_class[rows]
        b_plen = self.best_pathlen[rows]
        b_tb = self.best_tiebreak[rows]
        b_site = self.best_site[rows]
        b_origin = self.best_origin[rows]
        result: np.ndarray = (
            (cls < b_cls)
            | ((cls == b_cls) & (
                (plen < b_plen)
                | ((plen == b_plen) & (
                    (tb < b_tb)
                    | ((tb == b_tb) & (
                        (site < b_site)
                        | ((site == b_site) & (origin_asn < b_origin))
                    ))
                ))
            ))
        )
        return result

    def level(
        self, frontier: np.ndarray, indptr: np.ndarray,
        indices: np.ndarray, route_class: int, stage: int,
    ) -> np.ndarray:
        """Expand one BFS level and install winning offers.

        Returns the next frontier: newly installed rows, ordered by
        first candidate occurrence (the reference's ``dict.items``
        order over its per-level candidate map).
        """
        empty = np.zeros(0, dtype=np.int64)
        preds, targets, within = self.expand(indptr, indices, frontier)
        if targets.size == 0:
            return empty
        blocked = self.blocked
        if blocked is not None:
            # Partial withdrawal filters exports of the origin itself
            # (path length 1) only; longer routes re-export freely.
            at_origin = self.best_pathlen[preds] == 1
            if bool(at_origin.any()):
                keep = ~(
                    at_origin
                    & blocked[self.best_site[preds], targets]
                )
                preds, targets, within = (
                    preds[keep], targets[keep], within[keep]
                )
                if targets.size == 0:
                    return empty
        c_site = self.best_site[preds]
        c_origin = self.best_origin[preds]
        c_plen = (self.best_pathlen[preds] + 1).astype(np.int16)
        c_tb = self.tie[c_site, targets]
        # Parents are gathered before this level's installs, so a path
        # snapshot taken through a pred that improves later in the
        # stage stays stale -- exactly like the reference's captured
        # Route objects.
        c_parent = self.best_rec[preds]
        rank = np.lexsort((c_origin, c_site, c_tb, c_plen, targets))
        sorted_targets = targets[rank]
        lead = np.ones(sorted_targets.size, dtype=bool)
        lead[1:] = sorted_targets[1:] != sorted_targets[:-1]
        winners = rank[lead]  # stable min per target, targets ascending
        occurrence = np.argsort(targets, kind="stable")
        occ_targets = targets[occurrence]
        occ_lead = np.ones(occ_targets.size, dtype=bool)
        occ_lead[1:] = occ_targets[1:] != occ_targets[:-1]
        first_seen = occurrence[occ_lead]
        frontier_rank = np.argsort(first_seen, kind="stable")
        winners = winners[frontier_rank]
        first_seen = first_seen[frontier_rank]
        w_targets = targets[winners]
        cls = np.full(w_targets.size, route_class, dtype=np.int8)
        beats = self.vector_beats(
            w_targets, cls, c_plen[winners], c_tb[winners],
            c_site[winners], c_origin[winners],
        )
        winners, w_targets = winners[beats], w_targets[beats]
        first_seen = first_seen[beats]
        if w_targets.size == 0:
            return empty
        fresh = self.install_rows(
            w_targets,
            np.full(w_targets.size, route_class, dtype=np.int8),
            c_plen[winners],
            c_tb[winners],
            c_site[winners],
            c_origin[winners],
            c_parent[winners],
        )
        self.trace_levels.append(
            _LevelTrace(
                stage=stage,
                frontier=w_targets,
                fresh=fresh,
                first_pred=preds[first_seen],
                first_adj=within[first_seen],
                inst=(
                    c_plen[winners],
                    c_tb[winners],
                    c_site[winners],
                    c_origin[winners],
                    self.best_rec[w_targets].copy(),
                ),
            )
        )
        return w_targets

    def install_rows(
        self, rows: np.ndarray, cls: np.ndarray, plen: np.ndarray,
        tb: np.ndarray, site: np.ndarray, origin_asn: np.ndarray,
        parents: np.ndarray,
    ) -> np.ndarray:
        """Install winning offers at distinct *rows* in one batch.

        Returns the fresh mask (rows reached for the first time).
        """
        fresh = self.best_class[rows] == _UNREACHED
        if bool(fresh.any()):
            self.order_chunks.append(rows[fresh])
        self.best_class[rows] = cls
        self.best_pathlen[rows] = plen
        self.best_tiebreak[rows] = tb
        self.best_site[rows] = site
        self.best_origin[rows] = origin_asn
        self._flush_pending()
        recs = np.arange(
            self.rec_count, self.rec_count + rows.size, dtype=np.int64
        )
        self.rec_count += rows.size
        self.rec_rows.append(rows.astype(np.int32))
        self.rec_parents.append(parents.astype(np.int64))
        self.best_rec[rows] = recs
        return fresh

    def reached_in_order(self) -> np.ndarray:
        """All reached rows so far, in first-install order."""
        if not self.order_chunks:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(self.order_chunks)

    def finish(self, trace: _PropTrace | None = None) -> _TableArrays:
        self._flush_pending()
        if self.rec_rows:
            rec_row = np.concatenate(self.rec_rows)
            rec_parent = np.concatenate(self.rec_parents)
        else:
            rec_row = np.zeros(0, dtype=np.int32)
            rec_parent = np.zeros(0, dtype=np.int64)
        for array in (
            self.best_class, self.best_pathlen, self.best_tiebreak,
            self.best_site, self.best_origin, self.best_rec,
            rec_row, rec_parent,
        ):
            array.flags.writeable = False
        return _TableArrays(
            compiled=self.compiled,
            site_names=self.site_names,
            best_class=self.best_class,
            best_pathlen=self.best_pathlen,
            best_tiebreak=self.best_tiebreak,
            best_site=self.best_site,
            best_origin=self.best_origin,
            best_rec=self.best_rec,
            rec_row=rec_row,
            rec_parent=rec_parent,
            order=self.reached_in_order(),
            trace=trace,
        )


def compiled_graph_from_buffers(
    version: int, arrays: Mapping[str, np.ndarray]
) -> CompiledGraph:
    """Rebuild a :class:`CompiledGraph` from named array buffers.

    The from-buffer constructor used by the zero-copy sweep substrate
    layer (:mod:`repro.sweep.shm`): *arrays* are typically read-only
    views over a ``multiprocessing.shared_memory`` segment exported by
    the sweep parent, one entry per
    :meth:`CompiledGraph.array_fields` name.  ``row_of`` is derived
    from ``asn_of``; the result is indistinguishable from the view
    :meth:`ASGraph.compiled` would build for the same structure
    version, so every kernel in this module runs on it unchanged.
    """
    return CompiledGraph.from_arrays(version, arrays)


def propagate(graph: ASGraph, origins: list[Origin]) -> RoutingTable:
    """Compute best routes at every AS for one anycast prefix.

    Withdrawn sites are simply omitted from *origins*.  This is the
    array kernel; it is bit-identical to
    :func:`repro.netsim.bgp_reference.propagate` (same winners, same
    tie-breaks, same table iteration order).
    """
    for origin in origins:
        if origin.asn not in graph:
            raise KeyError(f"origin AS {origin.asn} not in graph")

    state = _Propagation(graph, origins)
    compiled = state.compiled
    site_idx = state.site_idx
    global_origins = [o for o in origins if o.scope is Scope.GLOBAL]
    local_origins = [o for o in origins if o.scope is Scope.LOCAL]

    # --- Stage 1: customer-learned routes climb provider edges. -------
    # Origins offer sequentially; with duplicated origin ASes a later,
    # lexicographically smaller offer supersedes the earlier one, and
    # the reference expands the survivor at the *later* offer's
    # frontier position.
    winning: list[int] = []
    for origin in global_origins:
        row = compiled.row_of[origin.asn]
        site = site_idx[origin.site]
        if state.scalar_beats(row, 0, 1, 0.0, site, origin.asn):
            state.scalar_install(
                row, 0, 1, 0.0, site, origin.asn, parent=-1
            )
            winning.append(row)
    last_win = {row: i for i, row in enumerate(winning)}
    frontier = np.array(
        [row for i, row in enumerate(winning) if last_win[row] == i],
        dtype=np.int64,
    )
    seed_installs = tuple(winning)
    state.trace_levels.append(
        _LevelTrace(
            stage=0,
            frontier=frontier,
            fresh=np.ones(frontier.size, dtype=bool),
            first_pred=None,
            first_adj=None,
            inst=_gather_inst(state, frontier),
        )
    )
    while frontier.size:
        frontier = state.level(
            frontier,
            compiled.provider_indptr,
            compiled.provider_indices,
            int(RouteClass.CUSTOMER),
            stage=1,
        )

    # --- Stage 2: one peer hop from every customer-routed AS. ---------
    # Every route installed so far is customer-learned, and peer offers
    # can only win at so-far-unreached ASes, so one batched level with
    # the reference's source order (install order) is exact.
    state.level(
        state.reached_in_order(),
        compiled.peer_indptr,
        compiled.peer_indices,
        int(RouteClass.PEER),
        stage=2,
    )

    # --- Stage 3: everything rolls downhill to customers. -------------
    frontier = state.reached_in_order()
    while frontier.size:
        frontier = state.level(
            frontier,
            compiled.customer_indptr,
            compiled.customer_indices,
            int(RouteClass.PROVIDER),
            stage=3,
        )

    # --- Local sites: host AS and direct neighbors only. --------------
    pre_local = _snapshot_pre_local(state, local_origins)
    _local_stage(state, local_origins)

    trace = _PropTrace(
        origins=tuple(origins),
        graph_version=compiled.version,
        seed_installs=seed_installs,
        levels=tuple(state.trace_levels),
        pre_local=pre_local,
    )
    return RoutingTable._from_arrays(state.finish(trace))


def _gather_inst(
    state: "_Propagation", frontier: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Record the values just installed at *frontier* for the trace."""
    return (
        state.best_pathlen[frontier].copy(),
        state.best_tiebreak[frontier].copy(),
        state.best_site[frontier].copy(),
        state.best_origin[frontier].copy(),
        state.best_rec[frontier].copy(),
    )


def _snapshot_pre_local(
    state: "_Propagation", local_origins: list[Origin]
) -> tuple[np.ndarray, ...] | None:
    """Copy the batched-stage arrays before the local stage mutates them.

    ``None`` when there are no local origins: the final arrays then
    equal the batched result and the trace needs no separate snapshot.
    """
    if not local_origins:
        return None
    return (
        state.best_class.copy(),
        state.best_pathlen.copy(),
        state.best_tiebreak.copy(),
        state.best_site.copy(),
        state.best_origin.copy(),
        state.best_rec.copy(),
    )


def _local_stage(
    state: _Propagation, local_origins: list[Origin]
) -> None:
    """Install local-scope (NO_EXPORT) sites: host AS plus neighbors.

    One batched offer per origin: the neighbors are distinct targets
    in adjacency order, so a vectorized compare equals the
    reference's sequential offers (origins still go one at a time,
    since a later origin competes against an earlier one's installs).
    Shared between the full kernel and the delta replay, which runs it
    on the repaired pre-local arrays.
    """
    compiled = state.compiled
    site_idx = state.site_idx
    install_chunks: list[np.ndarray] = []
    fresh_chunks: list[np.ndarray] = []
    for origin in local_origins:
        row = compiled.row_of[origin.asn]
        site = site_idx[origin.site]
        if state.scalar_beats(row, 0, 1, 0.0, site, origin.asn):
            fresh_chunks.append(
                np.array(
                    [state.best_class[row] == _UNREACHED], dtype=bool
                )
            )
            install_chunks.append(np.array([row], dtype=np.int64))
            state.scalar_install(
                row, 0, 1, 0.0, site, origin.asn, parent=-1
            )
        start, end = (
            int(compiled.all_indptr[row]),
            int(compiled.all_indptr[row + 1]),
        )
        targets = compiled.all_indices[start:end].astype(np.int64)
        rels = compiled.all_rel[start:end]
        if origin.blocked_neighbors:
            keep = ~np.isin(
                compiled.asn_of[targets],
                np.array(sorted(origin.blocked_neighbors), dtype=np.int64),
            )
            targets, rels = targets[keep], rels[keep]
        if targets.size == 0:
            continue
        # The neighbor learned the route from the inverse side: our
        # provider sees a customer route, our customer a provider one.
        cls = _EXPORT_CLASS[rels]
        plen = np.full(targets.size, 2, dtype=np.int16)
        tb = state.site_tb(site, targets)
        site_arr = np.full(targets.size, site, dtype=np.int16)
        origin_arr = np.full(targets.size, origin.asn, dtype=np.int64)
        beats = state.vector_beats(
            targets, cls, plen, tb, site_arr, origin_arr
        )
        if not bool(beats.any()):
            continue
        # Path root (origin.asn,) independent of whatever route the
        # origin AS itself currently holds.
        base_rec = state.new_record(row, parent=-1)
        parents = np.full(int(beats.sum()), base_rec, dtype=np.int64)
        fresh = state.install_rows(
            targets[beats], cls[beats], plen[beats], tb[beats],
            site_arr[beats], origin_arr[beats], parents,
        )
        install_chunks.append(targets[beats])
        fresh_chunks.append(fresh)
    if install_chunks:
        state.trace_levels.append(
            _LevelTrace(
                stage=4,
                frontier=np.concatenate(install_chunks),
                fresh=np.concatenate(fresh_chunks),
                first_pred=None,
                first_adj=None,
            )
        )


#: Delta-path instrumentation, for tests and benchmarks: how many
#: :func:`propagate_delta` calls took the replay path vs fell back to
#: full propagation, and how many levels were copied wholesale vs
#: sparsely re-contested.
DELTA_STATS: dict[str, int] = {
    "delta": 0,
    "fallback": 0,
    "ripple_bailouts": 0,
    "levels_copied": 0,
    "levels_replayed": 0,
}


#: Record-forest growth bound (multiple of node count) beyond which a
#: chained delta falls back to full propagation instead of appending to
#: an ever-growing forest.
_FOREST_LIMIT_FACTOR = 4


class _RippleTooLarge(Exception):
    """Raised mid-replay when the changed set grows past the point
    where a sparse repair can beat full propagation."""


def _inversion_offenders(seq: np.ndarray) -> np.ndarray:
    """Mask of rows hitting every inversion pair of *seq*.

    For any pair ``i < j`` with ``seq[i] > seq[j]``, the left member
    exceeds the running minimum from the right and the right member
    undercuts the running maximum from the left -- so both masks are
    hitting sets of all inversions; return the smaller one.
    """
    down = seq < np.maximum.accumulate(seq)
    up = seq > np.minimum.accumulate(seq[::-1])[::-1]
    return down if int(down.sum()) <= int(up.sum()) else up


class _DeltaReplay(_Propagation):
    """Sparse replay of a propagation against a previous run's trace.

    Starts from writable copies of the previous table's best-route
    arrays (site indices translated into the new site namespace) and
    replays the recorded level schedule: levels whose frontier contains
    no changed, removed, or export-filtered predecessor are copied from
    the trace wholesale; everything else re-contests only the affected
    targets, gathering each target's *full* candidate set through the
    reverse CSR so winners and first-seen tie-break keys are exactly
    the ones the full kernel would compute.

    Masked incumbents keep old state from leaking into the future: a
    row's copied value is only readable once the replay passes the
    level the previous run installed it at (``old_gid``), or once the
    replay itself wrote the row (``overridden``).  Rows installed more
    than once in the previous run (``superseded``) have during-run
    states that the final arrays cannot reproduce, so they are reset
    up front and re-derived like any changed row.
    """

    # pylint: disable=super-init-not-called
    def __init__(
        self,
        graph: ASGraph,
        old: _TableArrays,
        origins: list[Origin],
    ) -> None:
        trace = old.trace
        assert trace is not None
        self.graph = graph
        self.compiled = old.compiled
        n = self.compiled.n_nodes
        self.site_names = tuple(sorted({o.site for o in origins}))
        self.site_idx = {s: i for i, s in enumerate(self.site_names)}
        self.origins = origins
        self.old = old
        self.old_trace = trace
        # Working copies of the previous *batched* best-route arrays --
        # the pre-local snapshot when the previous run had local
        # origins, the final arrays otherwise.  Starting before the
        # local stage means local catchments carry no stale state; the
        # local stage is simply re-run at the end.  Site indices are
        # translated into the new (sorted) namespace, which is
        # order-preserving on surviving sites.  Withdrawn sites map to
        # -3: their rows are re-contested before any masked read could
        # surface the stale index.
        src = trace.pre_local
        if src is None:
            src = (
                old.best_class, old.best_pathlen, old.best_tiebreak,
                old.best_site, old.best_origin, old.best_rec,
            )
        self.best_class = src[0].copy()
        self.best_pathlen = src[1].copy()
        self.best_tiebreak = src[2].copy()
        self.best_origin = src[4].copy()
        self.best_rec = src[5].copy()
        trans = np.full(len(old.site_names) + 1, -3, dtype=np.int16)
        trans[-1] = -1
        for j, name in enumerate(old.site_names):
            trans[j] = self.site_idx.get(name, -3)
        self.site_trans = trans
        self.same_sites = tuple(old.site_names) == self.site_names
        # Pristine reference copy of the previous batched result, for
        # unchanged-detection and ripple healing (a changed row that
        # re-installs its old value stops rippling).
        self.ref_class = src[0]
        self.ref_plen = src[1]
        self.ref_tb = src[2]
        # With an unchanged site set the (sorted) namespaces coincide
        # and the translation is the identity on every stored index.
        self.ref_site = src[3] if self.same_sites else trans[src[3]]
        self.ref_origin = src[4]
        self.ref_rec = src[5]
        self.best_site = self.ref_site.copy()
        # The previous forest is the shared prefix; new records append.
        self.rec_rows = [np.asarray(old.rec_row)]
        self.rec_parents = [np.asarray(old.rec_parent)]
        self.pending_rows = []
        self.pending_parents = []
        self.rec_count = int(old.rec_row.size)
        self.order_chunks = []
        self.trace_levels = []
        self._seed_installs: tuple[int, ...] = ()
        by_site = {o.site: o for o in origins}
        self._by_site = by_site
        self._tie_rows: dict[int, np.ndarray] = {}
        self._zero_tb: np.ndarray | None = None
        self.blocked = None
        if any(o.blocked_neighbors for o in by_site.values()):
            blocked = np.zeros((len(self.site_names), n), dtype=bool)
            for site, origin in by_site.items():
                for neighbor in origin.blocked_neighbors:
                    row = self.compiled.row_of.get(neighbor)
                    if row is not None:
                        blocked[self.site_idx[site], row] = True
            self.blocked = blocked
        # Previous-run install bookkeeping: the level (trace index) of
        # each row's first and final *batched* install, and which rows
        # were installed more than once during the batched stages (the
        # provider stage mixes path depths, so re-installs are routine;
        # seed duplicates also count).  Local-stage installs are
        # excluded on purpose -- replays start from the pre-local
        # snapshot, so the local stage never counts as churn.
        maxgid = np.iinfo(np.int64).max
        self.old_gid = np.full(n, maxgid, dtype=np.int64)
        self.first_gid = np.full(n, maxgid, dtype=np.int64)
        batched = [
            (gid, lvl)
            for gid, lvl in enumerate(trace.levels)
            if lvl.stage != 4
        ]
        ev_rows = np.concatenate([lvl.frontier for _, lvl in batched])
        ev_gids = np.concatenate([
            np.full(lvl.frontier.size, gid, dtype=np.int64)
            for gid, lvl in batched
        ])
        self.old_gid[ev_rows] = ev_gids
        # Events are level-ordered, so slicing off the seed level's
        # frontier (gid 0) beats building a gid mask.
        seed_size = batched[0][1].frontier.size if batched else 0
        counts = np.bincount(ev_rows[seed_size:], minlength=n)
        if trace.seed_installs:
            counts += np.bincount(
                np.array(trace.seed_installs, dtype=np.int64),
                minlength=n,
            )
        self.superseded = counts >= 2
        self.multi4 = counts >= 4
        # Shadow install values for superseded rows: between installs
        # such a row held (and exported) a transient route the final
        # arrays no longer show.  The trace's per-level install records
        # resurrect the first two; rows with three or more transients
        # (four or more installs) bail to the full kernel when touched
        # mid-flight.
        # Shadow state is stored compactly: ``shadow_idx`` maps a
        # superseded row to its slot in the per-slot arrays below, so
        # only one full-size array is paid per replay regardless of
        # how many value fields the two shadow sets carry.
        sup_rows = np.flatnonzero(self.superseded)
        n_sup = sup_rows.size
        self.shadow_idx = np.full(n, -1, dtype=np.int64)
        self.shadow_idx[sup_rows] = np.arange(n_sup, dtype=np.int64)
        self.second_gid = np.full(n_sup, maxgid, dtype=np.int64)
        self.shadow_class = np.full(n_sup, _UNREACHED, dtype=np.int8)
        self.shadow_plen = np.zeros(n_sup, dtype=np.int16)
        self.shadow_tb = np.zeros(n_sup, dtype=np.float64)
        self.shadow_site = np.full(n_sup, -1, dtype=np.int16)
        self.shadow_origin = np.zeros(n_sup, dtype=np.int64)
        self.shadow_rec = np.full(n_sup, -1, dtype=np.int64)
        self.shadow2_class = np.full(n_sup, _UNREACHED, dtype=np.int8)
        self.shadow2_plen = np.zeros(n_sup, dtype=np.int16)
        self.shadow2_tb = np.zeros(n_sup, dtype=np.float64)
        self.shadow2_site = np.full(n_sup, -1, dtype=np.int16)
        self.shadow2_origin = np.zeros(n_sup, dtype=np.int64)
        self.shadow2_rec = np.full(n_sup, -1, dtype=np.int64)
        stage_class = np.array([0, 0, 1, 2], dtype=np.int8)
        if n_sup:
            r_parts: list[np.ndarray] = []
            g_parts: list[np.ndarray] = []
            c_parts: list[np.ndarray] = []
            v_parts: list[list[np.ndarray]] = [[] for _ in range(5)]
            for gid, lvl in batched:
                idx_l = np.flatnonzero(self.superseded[lvl.frontier])
                if idx_l.size == 0:
                    continue
                assert lvl.inst is not None
                r_parts.append(lvl.frontier[idx_l])
                g_parts.append(np.full(
                    idx_l.size, gid, dtype=np.int64
                ))
                c_parts.append(np.full(
                    idx_l.size, stage_class[lvl.stage],
                    dtype=np.int8,
                ))
                for k in range(5):
                    v_parts[k].append(lvl.inst[k][idx_l])
            s_rows = np.concatenate(r_parts)
            s_gids = np.concatenate(g_parts)
            s_cls = np.concatenate(c_parts)
            s_inst = [np.concatenate(p) for p in v_parts]
            s_idx = self.shadow_idx[s_rows]
            # Events arrive in increasing-gid order, so a reversed
            # scatter leaves each row's *earliest* event in place;
            # a second reversed scatter over the not-first events
            # leaves each row's second one.
            rev = np.s_[::-1]
            r = s_rows[rev]
            ri = s_idx[rev]
            self.first_gid[r] = s_gids[rev]
            self.shadow_class[ri] = s_cls[rev]
            self.shadow_plen[ri] = s_inst[0][rev]
            self.shadow_tb[ri] = s_inst[1][rev]
            self.shadow_site[ri] = trans[s_inst[2][rev]]
            self.shadow_origin[ri] = s_inst[3][rev]
            self.shadow_rec[ri] = s_inst[4][rev]
            m2 = s_gids > self.first_gid[s_rows]
            ri2 = s_idx[m2][rev]
            self.second_gid[ri2] = s_gids[m2][rev]
            self.shadow2_class[ri2] = s_cls[m2][rev]
            self.shadow2_plen[ri2] = s_inst[0][m2][rev]
            self.shadow2_tb[ri2] = s_inst[1][m2][rev]
            self.shadow2_site[ri2] = trans[s_inst[2][m2][rev]]
            self.shadow2_origin[ri2] = s_inst[3][m2][rev]
            self.shadow2_rec[ri2] = s_inst[4][m2][rev]
        self.old_levels: dict[int, list[int]] = {1: [], 2: [], 3: [], 4: []}
        for gid, level in enumerate(trace.levels):
            if level.stage > 0:
                self.old_levels[level.stage].append(gid)
        total = len(trace.levels)
        self.end_gid: dict[int, int] = {}
        for stage in (1, 2, 3, 4):
            later = [
                gid
                for next_stage in range(stage + 1, 5)
                for gid in self.old_levels[next_stage]
            ]
            self.end_gid[stage] = later[0] if later else total
        self.overridden = np.zeros(n, dtype=bool)
        self.changed = np.zeros(n, dtype=bool)
        self._changed_cache: np.ndarray | None = None
        # Past this many changed rows, sparse repair costs more than
        # the full kernel; bail out and let the caller fall back.
        self.ripple_limit = max(256, n // 8)
        self.export_changed = np.zeros(n, dtype=bool)
        self.frontier_pos = np.full(n, -1, dtype=np.int64)
        self._posed = np.zeros(0, dtype=np.int64)
        # Origins whose blocked set changed export differently even
        # when their own install is identical: treat their rows as
        # changed predecessors wherever they hold their own site's
        # path-length-1 route.
        old_by_site = {o.site: o for o in trace.origins}
        for site, origin in by_site.items():
            before = old_by_site.get(site)
            if (
                before is None
                or before.blocked_neighbors == origin.blocked_neighbors
            ):
                continue
            row = self.compiled.row_of[origin.asn]
            if (
                not self.overridden[row]
                and int(self.best_pathlen[row]) == 1
                and int(self.best_site[row]) == self.site_idx[site]
            ):
                self.export_changed[row] = True

    def site_tb(self, site: int, rows: np.ndarray) -> np.ndarray:
        result: np.ndarray = self._tie_row(site)[rows]
        return result

    def _tie_row(self, site: int) -> np.ndarray:
        row = self._tie_rows.get(site)
        if row is None:
            origin = self._by_site[self.site_names[site]]
            if origin.location is None:
                if self._zero_tb is None:
                    self._zero_tb = np.zeros(
                        self.compiled.n_nodes, dtype=np.float64
                    )
                row = self._zero_tb
            else:
                row = self.graph.distance_row(
                    origin.asn,
                    origin.location,
                    1.0 - origin.preference_discount,
                )
            self._tie_rows[site] = row
        return row

    def _tb_of(self, sites: np.ndarray, rows: np.ndarray) -> np.ndarray:
        out = np.zeros(rows.size, dtype=np.float64)
        for site in np.unique(sites).tolist():
            mask = sites == site
            out[mask] = self._tie_row(int(site))[rows[mask]]
        return out

    def _transient(
        self, rows: np.ndarray, cur_gid: int
    ) -> tuple[np.ndarray, ...]:
        """Mid-flight shadow values of *rows* as of level *cur_gid*.

        A superseded row between installs holds its first transient
        until its second install completes, then the second until the
        final one lands; ``second_gid`` picks the right shadow set.
        """
        idx = self.shadow_idx[rows]
        use2 = self.second_gid[idx] < cur_gid
        if not bool(use2.any()):
            return (
                self.shadow_class[idx], self.shadow_plen[idx],
                self.shadow_tb[idx], self.shadow_site[idx],
                self.shadow_origin[idx], self.shadow_rec[idx],
            )
        return (
            np.where(use2, self.shadow2_class[idx],
                     self.shadow_class[idx]),
            np.where(use2, self.shadow2_plen[idx],
                     self.shadow_plen[idx]),
            np.where(use2, self.shadow2_tb[idx], self.shadow_tb[idx]),
            np.where(use2, self.shadow2_site[idx],
                     self.shadow_site[idx]),
            np.where(use2, self.shadow2_origin[idx],
                     self.shadow_origin[idx]),
            np.where(use2, self.shadow2_rec[idx],
                     self.shadow_rec[idx]),
        )

    def _write_unreached(self, rows: np.ndarray) -> None:
        self.best_class[rows] = _UNREACHED
        self.best_pathlen[rows] = 0
        self.best_tiebreak[rows] = 0.0
        self.best_site[rows] = -1
        self.best_origin[rows] = 0
        self.best_rec[rows] = -1

    def _mark_changed(self, rows: np.ndarray) -> None:
        self.changed[rows] = True
        self._changed_cache = None

    def _clear_changed(self, rows: np.ndarray) -> None:
        self.changed[rows] = False
        self._changed_cache = None

    def _changed_rows(self) -> np.ndarray:
        cached = self._changed_cache
        if cached is None:
            cached = np.flatnonzero(self.changed)
            self._changed_cache = cached
        return cached

    def _adopt_level(self, old_lt: _LevelTrace) -> _LevelTrace:
        """Carry an untouched old level into the new trace.

        Its install record stores site indices of the *old* namespace;
        when the site set changed they must be re-indexed so the new
        trace is uniformly in the new namespace.
        """
        if self.same_sites or old_lt.inst is None:
            return old_lt
        inst = old_lt.inst
        return _LevelTrace(
            stage=old_lt.stage,
            frontier=old_lt.frontier,
            fresh=old_lt.fresh,
            first_pred=old_lt.first_pred,
            first_adj=old_lt.first_adj,
            inst=(
                inst[0], inst[1],
                self.site_trans[inst[2]],
                inst[3], inst[4],
            ),
        )

    def _set_frontier_pos(self, rows: np.ndarray) -> None:
        self.frontier_pos[self._posed] = -1
        self.frontier_pos[rows] = np.arange(rows.size, dtype=np.int64)
        self._posed = rows

    def _old_order_prefix(self, through_stage: int) -> np.ndarray:
        total = 0
        for level in self.old_trace.levels:
            if level.stage <= through_stage:
                total += int(level.fresh.sum())
        result: np.ndarray = self.old.order[:total]
        return result

    # -- seed ---------------------------------------------------------

    def _replay_seed(
        self, global_origins: list[Origin]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Recompute the origin installs and diff them against level 0.

        The seed is tiny (one offer per origin), so it is re-run in
        full; rows whose value and record content match the previous
        run keep their old record ids, which is what keeps unchanged
        downstream subtrees from cascading into the changed set.
        """
        compiled = self.compiled
        site_idx = self.site_idx
        offers: dict[int, tuple[int, int, float, int, int]] = {}
        winning: list[int] = []
        for origin in global_origins:
            row = compiled.row_of[origin.asn]
            key = (0, 1, 0.0, site_idx[origin.site], origin.asn)
            cur = offers.get(row)
            if cur is None or key < cur:
                offers[row] = key
                winning.append(row)
        self._seed_installs = tuple(winning)
        last_win = {row: i for i, row in enumerate(winning)}
        frontier = np.array(
            [row for i, row in enumerate(winning) if last_win[row] == i],
            dtype=np.int64,
        )
        seen: set[int] = set()
        chunk: list[int] = []
        for row in winning:
            if row not in seen:
                seen.add(row)
                chunk.append(row)
        if chunk:
            self.order_chunks.append(np.array(chunk, dtype=np.int64))
        seed_changed: list[int] = []
        for row in frontier.tolist():
            cls, plen, tb, site, oasn = offers[row]
            unchanged = (
                not self.overridden[row]
                and int(self.old_gid[row]) == 0
                and int(self.best_class[row]) == cls
                and int(self.best_pathlen[row]) == plen
                and float(self.best_tiebreak[row]) == tb
                and int(self.best_site[row]) == site
                and int(self.best_origin[row]) == oasn
            )
            if not unchanged:
                self.best_class[row] = cls
                self.best_pathlen[row] = plen
                self.best_tiebreak[row] = tb
                self.best_site[row] = site
                self.best_origin[row] = oasn
                self.best_rec[row] = self.new_record(row, parent=-1)
                self.overridden[row] = True
                seed_changed.append(row)
        if seed_changed:
            self._mark_changed(np.array(seed_changed, dtype=np.int64))
        old_f0 = self.old_trace.levels[0].frontier
        if old_f0.size:
            in_new = np.zeros(compiled.n_nodes, dtype=bool)
            in_new[frontier] = True
            lost = old_f0[~in_new[old_f0]]
            self._write_unreached(lost)
            self.overridden[lost] = True
            self._mark_changed(lost)
        self.trace_levels.append(
            _LevelTrace(
                stage=0,
                frontier=frontier,
                fresh=np.ones(frontier.size, dtype=bool),
                first_pred=None,
                first_adj=None,
                inst=_gather_inst(self, frontier),
            )
        )
        self._set_frontier_pos(frontier)
        return frontier, old_f0

    # -- batched levels ----------------------------------------------

    def _replay_level(
        self,
        stage: int,
        j: int,
        prev_new: np.ndarray,
        prev_old: np.ndarray,
        fwd_indptr: np.ndarray,
        fwd_indices: np.ndarray,
        rev_indptr: np.ndarray,
        rev_indices: np.ndarray,
        rev_fwd: np.ndarray,
        route_class: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Replay one BFS level; returns (new frontier, old frontier)."""
        n = self.compiled.n_nodes
        levels = self.old_levels[stage]
        has_old = j < len(levels)
        old_lt = self.old_trace.levels[levels[j]] if has_old else None
        cur_gid = levels[j] if has_old else self.end_gid[stage]
        empty = np.zeros(0, dtype=np.int64)
        old_frontier = old_lt.frontier if old_lt is not None else empty
        moved = empty
        if prev_new is prev_old:
            # The previous level was adopted wholesale (same array
            # object), so every old predecessor survives in place: no
            # removals and no reorders to account for.
            removed = empty
        elif prev_old.size:
            pos_in_new = self.frontier_pos[prev_old]
            common_mask = pos_in_new >= 0
            removed = prev_old[~common_mask]
            # Predecessors whose *relative* order changed can flip
            # first-seen frontier keys and equal-preference winner
            # choices (same-site candidates to one target always tie on
            # tiebreak).  Contesting the targets of an inversion
            # hitting set covers every reorder-affected target; with no
            # inversions the position remap is monotone and copied
            # orderings stay valid.
            seq = pos_in_new[common_mask]
            if seq.size > 1 and not bool(np.all(np.diff(seq) > 0)):
                moved = prev_old[common_mask][_inversion_offenders(seq)]
        else:
            removed = empty
        if prev_new.size:
            pred_mask = (
                self.changed[prev_new] | self.export_changed[prev_new]
            )
            changed_preds = prev_new[pred_mask]
        else:
            changed_preds = empty
        contested_parts: list[np.ndarray] = []
        if removed.size or changed_preds.size or moved.size:
            src = np.concatenate([changed_preds, removed, moved])
            _, targets, _ = self.expand(fwd_indptr, fwd_indices, src)
            contested_parts.append(targets)
        changed_rows = self._changed_rows()
        if changed_rows.size and prev_new.size:
            # A changed row already holding a better-class route -- or
            # a shorter same-class route during the uniform-path-length
            # customer stage -- cannot be beaten by this level's offers
            # (class dominates, then path length), so it needs no
            # re-contest here.  Changed rows are always overridden, so
            # their working values are valid reads.
            settled = self.best_class[changed_rows] < route_class
            if route_class == int(RouteClass.CUSTOMER):
                settled |= (
                    self.best_class[changed_rows] == route_class
                ) & (self.best_pathlen[changed_rows] < j + 2)
            # ... except at the level the previous run installed the
            # row: there it must stay contested so its old-frontier
            # membership (survive vs lose) gets resolved explicitly.
            settled &= (
                (self.old_gid[changed_rows] != cur_gid)
                & ~self.superseded[changed_rows]
            )
            receptive = changed_rows[~settled]
            if receptive.size:
                rows_rep, in_nbr, _ = self.expand(
                    rev_indptr, rev_indices, receptive
                )
                hit = self.frontier_pos[in_nbr] >= 0
                contested_parts.append(rows_rep[hit])
        if contested_parts:
            contested = np.unique(np.concatenate(contested_parts))
        else:
            contested = empty
        if contested.size:
            # Rows installed four or more times carry three or more
            # transients, beyond what the two shadow sets represent; if
            # the ripple touches one mid-flight, repair it with a full
            # propagation instead.
            hazard = (
                self.multi4[contested]
                & ~self.overridden[contested]
                & (self.first_gid[contested] < cur_gid)
                & (self.old_gid[contested] >= cur_gid)
            )
            if bool(hazard.any()):
                raise _RippleTooLarge

        if contested.size == 0:
            # Untouched level: no frontier row is a target of any
            # changed, removed, or reordered predecessor (removed and
            # moved preds with no forward edges here cannot affect the
            # level), so the previous run's frontier -- values, order,
            # fresh flags -- is exactly what a full run would produce.
            DELTA_STATS["levels_copied"] += 1
            if old_lt is None:
                self._set_frontier_pos(empty)
                return empty, empty
            self.trace_levels.append(self._adopt_level(old_lt))
            if bool(old_lt.fresh.any()):
                self.order_chunks.append(
                    old_lt.frontier[old_lt.fresh]
                )
            self._set_frontier_pos(old_lt.frontier)
            return old_lt.frontier, old_frontier

        DELTA_STATS["levels_replayed"] += 1
        if self._changed_rows().size > self.ripple_limit:
            raise _RippleTooLarge
        # Full candidate set of every contested target, via the
        # reverse CSR; rev_fwd recovers each edge's forward adjacency
        # offset so first-seen keys match the full kernel's expansion
        # order (frontier position outer, adjacency offset inner).
        c_t, c_p, c_within = self.expand(
            rev_indptr, rev_indices, contested
        )
        pos = self.frontier_pos[c_p] if c_p.size else empty
        keep = pos >= 0
        c_t, c_p, c_within, pos = (
            c_t[keep], c_p[keep], c_within[keep], pos[keep]
        )
        fwd_edge = (
            rev_fwd[rev_indptr[c_t] + c_within] if c_t.size else empty
        )
        adj = fwd_edge - fwd_indptr[c_p] if c_t.size else empty
        # A superseded predecessor whose final install lies at or past
        # this level exported its *first*-install transient here, not
        # the value the final arrays show; read it from the shadow.
        if c_p.size:
            mf_p = (
                self.superseded[c_p]
                & ~self.overridden[c_p]
                & (self.old_gid[c_p] >= cur_gid)
            )
            if bool(mf_p.any()):
                _, t_plen, _, t_site, t_org, t_rec = self._transient(
                    c_p, cur_gid
                )
                if bool((t_site[mf_p] < 0).any()):
                    raise _RippleTooLarge
                p_plen = np.where(
                    mf_p, t_plen, self.best_pathlen[c_p]
                ).astype(np.int16)
                p_site = np.where(
                    mf_p, t_site, self.best_site[c_p]
                ).astype(np.int16)
                p_origin = np.where(mf_p, t_org, self.best_origin[c_p])
                p_parent = np.where(mf_p, t_rec, self.best_rec[c_p])
            else:
                p_plen = self.best_pathlen[c_p]
                p_site = self.best_site[c_p]
                p_origin = self.best_origin[c_p]
                p_parent = self.best_rec[c_p]
        else:
            p_plen = p_site = p_origin = p_parent = empty
        if self.blocked is not None and c_t.size:
            at_origin = p_plen == 1
            if bool(at_origin.any()):
                drop = at_origin & self.blocked[p_site, c_t]
                keep = ~drop
                c_t, c_p, pos, adj = (
                    c_t[keep], c_p[keep], pos[keep], adj[keep]
                )
                p_plen, p_site = p_plen[keep], p_site[keep]
                p_origin, p_parent = p_origin[keep], p_parent[keep]
        if c_t.size:
            c_site = p_site
            c_origin = p_origin
            c_plen = (p_plen + 1).astype(np.int16)
            c_tb = self._tb_of(c_site, c_t)
            c_parent = p_parent
            rank = np.lexsort(
                (adj, pos, c_origin, c_site, c_tb, c_plen, c_t)
            )
            ranked_t = c_t[rank]
            lead = np.ones(ranked_t.size, dtype=bool)
            lead[1:] = ranked_t[1:] != ranked_t[:-1]
            win = rank[lead]
            occ = np.lexsort((adj, pos, c_t))
            occ_t = c_t[occ]
            occ_lead = np.ones(occ_t.size, dtype=bool)
            occ_lead[1:] = occ_t[1:] != occ_t[:-1]
            first = occ[occ_lead]
            w_t = c_t[win]
            w_plen = c_plen[win]
            w_tb = c_tb[win]
            w_site = c_site[win]
            w_origin = c_origin[win]
            w_parent = c_parent[win]
            f_pos = pos[first]
            f_adj = adj[first]
            f_pred = c_p[first]
            cls_arr = np.full(w_t.size, route_class, dtype=np.int8)
            inc_valid = (
                self.overridden[w_t] | (self.old_gid[w_t] < cur_gid)
            )
            # Mid-flight superseded targets hold their first-install
            # transient at this point of the run, not the final value
            # the working arrays started from.
            mf_t = (
                self.superseded[w_t]
                & ~self.overridden[w_t]
                & (self.first_gid[w_t] < cur_gid)
                & (self.old_gid[w_t] >= cur_gid)
            )
            inc_class = np.where(
                inc_valid, self.best_class[w_t], _UNREACHED
            ).astype(np.int16)
            b_plen = self.best_pathlen[w_t]
            b_tb = self.best_tiebreak[w_t]
            b_site = self.best_site[w_t]
            b_origin = self.best_origin[w_t]
            if bool(mf_t.any()):
                t_cls, t_plen, t_tb, t_site, t_org, _ = self._transient(
                    w_t, cur_gid
                )
                inc_class = np.where(
                    mf_t, t_cls.astype(np.int16), inc_class
                )
                b_plen = np.where(mf_t, t_plen, b_plen)
                b_tb = np.where(mf_t, t_tb, b_tb)
                b_site = np.where(mf_t, t_site, b_site)
                b_origin = np.where(mf_t, t_org, b_origin)
            beats = (cls_arr < inc_class) | (
                (cls_arr == inc_class) & (
                    (w_plen < b_plen)
                    | ((w_plen == b_plen) & (
                        (w_tb < b_tb)
                        | ((w_tb == b_tb) & (
                            (w_site < b_site)
                            | (
                                (w_site == b_site)
                                & (w_origin < b_origin)
                            )
                        ))
                    ))
                )
            )
            fresh_w = inc_class == _UNREACHED
            unchanged_mask = np.zeros(w_t.size, dtype=bool)
            if old_lt is not None:
                cand = (
                    beats
                    & ~self.overridden[w_t]
                    & (self.old_gid[w_t] == cur_gid)
                    & (self.best_class[w_t] == cls_arr)
                    & (self.best_pathlen[w_t] == w_plen)
                    & (self.best_tiebreak[w_t] == w_tb)
                    & (self.best_site[w_t] == w_site)
                    & (self.best_origin[w_t] == w_origin)
                )
                if bool(cand.any()):
                    old_rec = self.best_rec[w_t[cand]]
                    cand[np.flatnonzero(cand)] = (
                        self.old.rec_parent[old_rec] == w_parent[cand]
                    )
                unchanged_mask = cand
            # Ripple healing: an already-overridden row that re-installs
            # exactly its old value (and path) at its old install level
            # is back in sync with the previous run -- reuse the old
            # record and stop treating it as changed.
            restore_mask = np.zeros(w_t.size, dtype=bool)
            if old_lt is not None:
                ref_rec = self.ref_rec[w_t]
                cand2 = (
                    beats
                    & ~unchanged_mask
                    & self.overridden[w_t]
                    & (self.old_gid[w_t] == cur_gid)
                    & (ref_rec >= 0)
                    & (self.ref_class[w_t] == cls_arr)
                    & (self.ref_plen[w_t] == w_plen)
                    & (self.ref_tb[w_t] == w_tb)
                    & (self.ref_site[w_t] == w_site)
                    & (self.ref_origin[w_t] == w_origin)
                )
                if bool(cand2.any()):
                    cand2[np.flatnonzero(cand2)] = (
                        self.old.rec_parent[ref_rec[cand2]]
                        == w_parent[cand2]
                    )
                restore_mask = cand2
            rows_r = w_t[restore_mask]
            if rows_r.size:
                self.best_class[rows_r] = route_class
                self.best_pathlen[rows_r] = w_plen[restore_mask]
                self.best_tiebreak[rows_r] = w_tb[restore_mask]
                self.best_site[rows_r] = w_site[restore_mask]
                self.best_origin[rows_r] = w_origin[restore_mask]
                self.best_rec[rows_r] = self.ref_rec[rows_r]
                self._clear_changed(rows_r)
            write = beats & ~unchanged_mask & ~restore_mask
            rows_w = w_t[write]
            if rows_w.size:
                self.best_class[rows_w] = route_class
                self.best_pathlen[rows_w] = w_plen[write]
                self.best_tiebreak[rows_w] = w_tb[write]
                self.best_site[rows_w] = w_site[write]
                self.best_origin[rows_w] = w_origin[write]
                self._flush_pending()
                recs = np.arange(
                    self.rec_count,
                    self.rec_count + rows_w.size,
                    dtype=np.int64,
                )
                self.rec_count += rows_w.size
                self.rec_rows.append(rows_w.astype(np.int32))
                self.rec_parents.append(
                    w_parent[write].astype(np.int64)
                )
                self.best_rec[rows_w] = recs
                self.overridden[rows_w] = True
                self._mark_changed(rows_w)
            inst_rows = w_t[beats]
        else:
            inst_rows = empty
            w_t = empty
            beats = np.zeros(0, dtype=bool)
            fresh_w = np.zeros(0, dtype=bool)
            f_pos = empty
            f_adj = empty
            f_pred = empty
        # Contested rows the previous run installed at this level but
        # the new run does not: they lose that install.  A superseded
        # row losing its *final* install falls back to the transient it
        # still held; one losing its *first* install (with the final
        # yet to come) loses its route outright for now.
        if contested.size:
            inst_mask = np.zeros(n, dtype=bool)
            inst_mask[inst_rows] = True
            base = (
                ~inst_mask[contested] & ~self.overridden[contested]
            )
            at_final = base & (self.old_gid[contested] == cur_gid)
            stands = (
                at_final
                & self.superseded[contested]
                & (self.first_gid[contested] < cur_gid)
            )
            keepers = contested[stands]
            if keepers.size:
                k_cls, k_plen, k_tb, k_site, k_org, k_rec = (
                    self._transient(keepers, cur_gid)
                )
                if bool((k_site < 0).any()):
                    raise _RippleTooLarge
                self.best_class[keepers] = k_cls
                self.best_pathlen[keepers] = k_plen
                self.best_tiebreak[keepers] = k_tb
                self.best_site[keepers] = k_site
                self.best_origin[keepers] = k_org
                self.best_rec[keepers] = k_rec
                self.overridden[keepers] = True
                self._mark_changed(keepers)
            # A row losing its *second* install (first stands, final
            # still to come) falls back to its first transient.
            second_loss = (
                base
                & self.superseded[contested]
                & (self.old_gid[contested] > cur_gid)
            )
            cand = contested[second_loss]
            if cand.size:
                cidx = self.shadow_idx[cand]
                hit = self.second_gid[cidx] == cur_gid
                k2 = cand[hit]
                k2i = cidx[hit]
            else:
                k2 = cand
                k2i = cand
            if k2.size:
                if bool((self.shadow_site[k2i] < 0).any()):
                    raise _RippleTooLarge
                self.best_class[k2] = self.shadow_class[k2i]
                self.best_pathlen[k2] = self.shadow_plen[k2i]
                self.best_tiebreak[k2] = self.shadow_tb[k2i]
                self.best_site[k2] = self.shadow_site[k2i]
                self.best_origin[k2] = self.shadow_origin[k2i]
                self.best_rec[k2] = self.shadow_rec[k2i]
                self.overridden[k2] = True
                self._mark_changed(k2)
            first_loss = (
                base
                & self.superseded[contested]
                & (self.first_gid[contested] == cur_gid)
                & (self.old_gid[contested] > cur_gid)
            )
            lose = contested[(at_final & ~stands) | first_loss]
            if lose.size:
                self._write_unreached(lose)
                self.overridden[lose] = True
                self._mark_changed(lose)
        if self._changed_rows().size > self.ripple_limit:
            raise _RippleTooLarge
        # Frontier assembly: uncontested survivors keep their recorded
        # first-seen key (their predecessor's *new* frontier position
        # plus the stored adjacency offset) and, by the inversion
        # argument above, their old relative order; contested installs
        # use the keys just computed.
        i_rows = inst_rows
        if inst_rows.size:
            i_pos = f_pos[beats]
            i_adj = f_adj[beats]
            i_pred = f_pred[beats]
            i_fresh = fresh_w[beats]
            i_vals = [
                w_plen[beats], w_tb[beats], w_site[beats],
                w_origin[beats], self.best_rec[inst_rows],
            ]
        else:
            i_pos = i_adj = i_pred = empty
            i_fresh = np.zeros(0, dtype=bool)
            i_vals = [
                np.zeros(0, dtype=np.int16),
                np.zeros(0, dtype=np.float64),
                np.zeros(0, dtype=np.int16),
                empty, empty,
            ]
        if old_lt is not None and old_lt.frontier.size:
            cmask = np.zeros(n, dtype=bool)
            cmask[contested] = True
            surv = ~cmask[old_lt.frontier]
            assert old_lt.first_pred is not None
            assert old_lt.first_adj is not None
            assert old_lt.inst is not None
            s_rows = old_lt.frontier[surv]
            s_pred = old_lt.first_pred[surv]
            s_adj = old_lt.first_adj[surv]
            s_fresh = old_lt.fresh[surv]
            s_site_all = (
                old_lt.inst[2] if self.same_sites
                else self.site_trans[old_lt.inst[2]]
            )
            s_vals = [
                old_lt.inst[0][surv], old_lt.inst[1][surv],
                s_site_all[surv], old_lt.inst[3][surv],
                old_lt.inst[4][surv],
            ]
        else:
            s_rows = s_pred = s_adj = empty
            s_fresh = np.zeros(0, dtype=bool)
            s_vals = i_vals[:]
            s_vals = [v[:0] for v in s_vals]
        if i_rows.size == 0 and s_rows.size == 0:
            self._set_frontier_pos(empty)
            return empty, old_frontier
        if i_rows.size == 0:
            frontier, fresh = s_rows, s_fresh
            pred, adj = s_pred, s_adj
            vals = s_vals
        else:
            rank = np.lexsort((i_adj, i_pos))
            i_rows, i_pos, i_adj = i_rows[rank], i_pos[rank], i_adj[rank]
            i_pred, i_fresh = i_pred[rank], i_fresh[rank]
            i_vals = [v[rank] for v in i_vals]
            if i_rows.size * 16 <= s_rows.size:
                # Few installs into a long, already-ordered survivor
                # run: binary-search each slot against lazily computed
                # survivor keys and splice, instead of re-sorting the
                # whole frontier.
                fpos = self.frontier_pos
                slots = np.empty(i_rows.size, dtype=np.int64)
                for k in range(i_rows.size):
                    key = (int(i_pos[k]), int(i_adj[k]))
                    lo, hi = 0, s_rows.size
                    while lo < hi:
                        mid = (lo + hi) // 2
                        mid_key = (
                            int(fpos[s_pred[mid]]), int(s_adj[mid])
                        )
                        if mid_key < key:
                            lo = mid + 1
                        else:
                            hi = mid
                    slots[k] = lo
                frontier = np.insert(s_rows, slots, i_rows)
                fresh = np.insert(s_fresh, slots, i_fresh)
                pred = np.insert(s_pred, slots, i_pred)
                adj = np.insert(s_adj, slots, i_adj)
                vals = [
                    np.insert(s, slots, i)
                    for s, i in zip(s_vals, i_vals)
                ]
            else:
                all_rows = np.concatenate([s_rows, i_rows])
                all_pos = np.concatenate(
                    [self.frontier_pos[s_pred], i_pos]
                )
                all_adj = np.concatenate([s_adj, i_adj])
                all_fresh = np.concatenate([s_fresh, i_fresh])
                all_pred = np.concatenate([s_pred, i_pred])
                merge = np.lexsort((all_adj, all_pos))
                frontier = all_rows[merge]
                fresh = all_fresh[merge]
                pred = all_pred[merge]
                adj = all_adj[merge]
                vals = [
                    np.concatenate([s, i])[merge]
                    for s, i in zip(s_vals, i_vals)
                ]
        if bool(fresh.any()):
            self.order_chunks.append(frontier[fresh])
        self.trace_levels.append(
            _LevelTrace(
                stage=stage,
                frontier=frontier,
                fresh=fresh,
                first_pred=pred,
                first_adj=adj,
                inst=tuple(vals),
            )
        )
        self._set_frontier_pos(frontier)
        return frontier, old_frontier

    # -- driver -------------------------------------------------------

    def run(self) -> _TableArrays:
        compiled = self.compiled
        global_origins = [
            o for o in self.origins if o.scope is Scope.GLOBAL
        ]
        local_origins = [
            o for o in self.origins if o.scope is Scope.LOCAL
        ]
        prev_new, prev_old = self._replay_seed(global_origins)
        j = 0
        while j < len(self.old_levels[1]) or prev_new.size:
            prev_new, prev_old = self._replay_level(
                1, j, prev_new, prev_old,
                compiled.provider_indptr, compiled.provider_indices,
                compiled.customer_indptr, compiled.customer_indices,
                compiled.customer_edge_fwd,
                int(RouteClass.CUSTOMER),
            )
            j += 1
        order_new = self.reached_in_order()
        self._set_frontier_pos(order_new)
        self._replay_level(
            2, 0, order_new, self._old_order_prefix(1),
            compiled.peer_indptr, compiled.peer_indices,
            compiled.peer_indptr, compiled.peer_indices,
            compiled.peer_edge_fwd,
            int(RouteClass.PEER),
        )
        prev_new = self.reached_in_order()
        prev_old = self._old_order_prefix(2)
        self._set_frontier_pos(prev_new)
        j = 0
        while j < len(self.old_levels[3]) or prev_new.size:
            prev_new, prev_old = self._replay_level(
                3, j, prev_new, prev_old,
                compiled.customer_indptr, compiled.customer_indices,
                compiled.provider_indptr, compiled.provider_indices,
                compiled.provider_edge_fwd,
                int(RouteClass.PROVIDER),
            )
            j += 1
        # Local stage: the working arrays hold the repaired *batched*
        # result (replays start from the pre-local snapshot), so the
        # local stage simply re-runs in full -- its footprint is the
        # origins' immediate neighborhoods.
        pre_local = _snapshot_pre_local(self, local_origins)
        _local_stage(self, local_origins)
        trace = _PropTrace(
            origins=tuple(self.origins),
            graph_version=compiled.version,
            seed_installs=self._seed_installs,
            levels=tuple(self.trace_levels),
            pre_local=pre_local,
        )
        return self.finish(trace)


def _delta_fallback_reason(
    graph: ASGraph,
    previous: RoutingTable,
    old_origins: tuple[Origin, ...],
    new_origins: list[Origin],
) -> str | None:
    """Why :func:`propagate_delta` must run a full propagation, if so."""
    arrays = previous._arrays
    if arrays is None or arrays.trace is None:
        return "previous table has no propagation trace"
    if graph.compiled() is not arrays.compiled:
        return "graph structure changed since the previous table"
    if len({o.site for o in old_origins}) != len(old_origins):
        return "previous origins duplicate a site id"
    if not new_origins:
        return "empty origin set"
    n = arrays.compiled.n_nodes
    if arrays.rec_row.size > _FOREST_LIMIT_FACTOR * (n + 1) + 64:
        return "record forest outgrew its bound"
    if arrays.trace.pre_local is None and any(
        o.scope is Scope.LOCAL for o in old_origins
    ):
        return "previous trace lacks a pre-local snapshot"
    for lvl in arrays.trace.levels:
        if lvl.stage != 4 and lvl.inst is None:
            return "previous trace lacks install records"
    old_by_site = {o.site: o for o in old_origins}
    for origin in new_origins:
        before = old_by_site.get(origin.site)
        if before is None:
            continue
        if before.with_blocked(origin.blocked_neighbors) != origin:
            return "origin redefined beyond its blocked set"
    return None


def propagate_delta(
    graph: ASGraph,
    previous: RoutingTable,
    announce: Iterable[Origin] = (),
    withdraw: Iterable[str] = (),
) -> RoutingTable:
    """Derive the routing table after announce/withdraw changes.

    *previous* must be a table produced by :func:`propagate` (or an
    earlier :func:`propagate_delta`) over the same, unmodified graph;
    *announce* adds or redefines origins (a re-announced site may only
    change its blocked-neighbor set) and *withdraw* removes sites by
    id.  The result is bit-identical to ``propagate(graph, origins)``
    over the new origin set in canonical (site-sorted) order -- same
    winners, same tie-break floats, same table iteration order -- but
    costs work proportional to the ripple of the change, not the graph.

    Falls back to full propagation (and says so in
    :data:`DELTA_STATS`) when the previous table carries no trace, the
    graph changed, a site is redefined beyond its blocked set, origins
    duplicate site ids, the origin set empties, or the shared record
    forest has grown past its bound.
    """
    announce_list = list(announce)
    withdraw_set = frozenset(withdraw)
    arrays = previous._arrays
    trace = arrays.trace if arrays is not None else None
    if trace is not None:
        old_origins = trace.origins
    elif len(previous) == 0:
        old_origins = ()
    else:
        raise ValueError(
            "previous table is not array-backed; propagate_delta cannot "
            "recover its origin set (pass a propagate() result)"
        )
    by_site: dict[str, Origin] = {o.site: o for o in old_origins}
    for site in sorted(withdraw_set):
        if site not in by_site:
            raise KeyError(f"cannot withdraw unknown site {site!r}")
        del by_site[site]
    for origin in announce_list:
        by_site[origin.site] = origin
    new_origins = [by_site[s] for s in sorted(by_site)]
    for origin in new_origins:
        if origin.asn not in graph:
            raise KeyError(f"origin AS {origin.asn} not in graph")
    reason = _delta_fallback_reason(
        graph, previous, old_origins, new_origins
    )
    if reason is not None:
        DELTA_STATS["fallback"] += 1
        return propagate(graph, new_origins)
    assert arrays is not None
    # Every row in a withdrawn site's catchment must change, so the
    # catchment sizes bound the ripple from below; when they already
    # exceed the replay's budget, skip straight to the full kernel
    # instead of discovering the blow-up level by level.
    new_sites = {o.site for o in new_origins}
    lost = [
        j for j, name in enumerate(arrays.site_names)
        if name not in new_sites
    ]
    if lost:
        # Withdraw-side repair is the replay's worst case (losses
        # cascade wider than gains), so the early threshold sits well
        # below the in-flight ripple limit.
        limit = max(256, arrays.best_site.size // 64)
        floor = int(np.isin(arrays.best_site, lost).sum())
        if floor > limit:
            DELTA_STATS["ripple_bailouts"] += 1
            return propagate(graph, new_origins)
    replay = _DeltaReplay(graph, arrays, new_origins)
    try:
        result = replay.run()
    except _RippleTooLarge:
        DELTA_STATS["ripple_bailouts"] += 1
        return propagate(graph, new_origins)
    DELTA_STATS["delta"] += 1
    return RoutingTable._from_arrays(result)
