"""Disaster recovery: fleet snapshots, WAL archival, point-in-time restore.

The chain replication tier (``repro/cluster``) keeps acknowledged
transactions alive through single-node failures; this tier keeps them
alive through *total fleet loss*.  Three pieces:

* :mod:`repro.dr.grid` — a latency/fault-modeled remote object store
  living under the same sim engine (partitions and torn uploads arrive
  via :class:`~repro.faults.plan.FaultPlan` like every other fault);
* :mod:`repro.dr.archive` — per-node archivers that tail the primary's
  committed WAL off the destage ring (the same traced readback path the
  rebalancer uses — no side channel), seal byte-bounded segments, take
  periodic snapshots, and ship both with byte-stable manifests;
* :mod:`repro.dr.restore` — rebuild a node from snapshot + segment
  replay, including point-in-time recovery to any committed
  transaction boundary.

Verified by ``python -m repro.check --scenario dr``
(restore-after-total-loss and archive-lag schedule families with a PITR
oracle against the ReferenceModel) and measured by
``python -m repro.bench dr``.
See RECOVERY.md for the design.
"""

from repro.dr.archive import (
    Archiver,
    canonical_json,
    decode_value,
    encode_value,
    payload_checksum,
    record_from_dict,
    record_to_dict,
)
from repro.dr.grid import GridFaultDriver, GridUnavailable, RemoteGrid
from repro.dr.restore import (
    Archive,
    RestoreError,
    fetch_archive,
    restore_state,
)

__all__ = [
    "Archive",
    "Archiver",
    "GridFaultDriver",
    "GridUnavailable",
    "RemoteGrid",
    "RestoreError",
    "canonical_json",
    "decode_value",
    "encode_value",
    "fetch_archive",
    "payload_checksum",
    "record_from_dict",
    "record_to_dict",
    "restore_state",
]
