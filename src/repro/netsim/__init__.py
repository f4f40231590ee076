"""Network substrate: AS graph, BGP propagation, topology, overload."""

from .anycast import AnycastPrefix, RouteChangeRecord
from .asgraph import ASGraph, AsNode, AsRole, CompiledGraph, Relationship
from .bgp import (
    DELTA_STATS,
    Origin,
    Route,
    RouteClass,
    RoutingTable,
    Scope,
    propagate,
    propagate_delta,
)
from .bgp_reference import propagate as propagate_reference
from .queueing import OverloadModel
from .topology import (
    ATLAS_REGION_WEIGHTS,
    TRANSIT_METROS,
    AsRelTopologyConfig,
    Topology,
    TopologyConfig,
    build_internet_graph,
    build_topology,
    dump_as_rel2,
    generate_as_rel2,
    load_as_rel2,
)

__all__ = [
    "ASGraph",
    "ATLAS_REGION_WEIGHTS",
    "AnycastPrefix",
    "AsNode",
    "AsRelTopologyConfig",
    "AsRole",
    "CompiledGraph",
    "DELTA_STATS",
    "Origin",
    "OverloadModel",
    "Relationship",
    "Route",
    "RouteChangeRecord",
    "RouteClass",
    "RoutingTable",
    "Scope",
    "TRANSIT_METROS",
    "Topology",
    "TopologyConfig",
    "build_internet_graph",
    "build_topology",
    "dump_as_rel2",
    "generate_as_rel2",
    "load_as_rel2",
    "propagate",
    "propagate_delta",
    "propagate_reference",
]
