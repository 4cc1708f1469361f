"""Multi-server topologies: primary/secondary clusters over NTB.

The paper's testbed is three Xeon servers, each hosting one Villars
device, daisy-chained with NTB adapters.  This package wires simulated
equivalents:

* :class:`~repro.cluster.server.Server` — one host: a Villars device, the
  drop-in log API, optionally a database;
* :func:`~repro.cluster.topology.replicated_pair` /
  :func:`~repro.cluster.topology.replicated_chain` — pre-wired clusters
  with the transport roles configured through the admin-command path;
* failure injection: power loss on any server, promotion of a secondary.

The fleet tier (see CLUSTER.md) composes many chains under one engine:

* :mod:`~repro.cluster.placement` — consistent-hash shard placement
  with minimal-move joins;
* :mod:`~repro.cluster.fleet` — :class:`Fleet` / :class:`FleetNode` /
  :class:`Shard`: multi-tenant log streams namespaced inside per-node
  shared databases, admission-gated per-shard write lanes;
* :mod:`~repro.cluster.rebalance` — live shard migration
  (copy → drain → catchup → cutover) and the :class:`FleetSupervisor`
  that triggers it off load skew.
"""

from repro.cluster.fleet import (
    Fleet,
    FleetNode,
    Shard,
    ShardView,
    kv_bootstrap,
    run_shard_body,
)
from repro.cluster.placement import (
    HashRingPlacement,
    PlacementError,
    stable_hash,
)
from repro.cluster.rebalance import FleetSupervisor, ShardMigration
from repro.cluster.server import Server
from repro.cluster.topology import Cluster, replicated_chain, replicated_pair

__all__ = [
    "Server",
    "Cluster",
    "replicated_pair",
    "replicated_chain",
    "Fleet",
    "FleetNode",
    "Shard",
    "ShardView",
    "kv_bootstrap",
    "run_shard_body",
    "HashRingPlacement",
    "PlacementError",
    "stable_hash",
    "FleetSupervisor",
    "ShardMigration",
]
