"""Shard placement: deciding which fleet device owns which log stream.

:class:`HashRingPlacement` is classic consistent hashing with virtual
nodes: each device projects :data:`VNODES` points onto a 64-bit ring and
a shard belongs to the first device point at or after its own hash.  It
is deterministic (the hash is keyed `blake2b`, never Python's salted
``hash``) and *stable*: when a device joins, the only shards that move
are the ones the new device takes over.  That minimal-move property is
what makes membership changes cheap — every move is a shard migration
(see :mod:`repro.cluster.rebalance`), so the placement layer must never
reshuffle bystanders.
"""

import bisect
import hashlib

HASH_SPACE = 1 << 64
VNODES = 128  # ring points per device


def stable_hash(*parts):
    """A deterministic 64-bit hash of the given parts.

    Python's builtin ``hash`` is salted per process; placement must map
    the same shard to the same device across runs and across processes
    (the parallel bench sweeps fork workers), so we key blake2b instead.
    """
    digest = hashlib.blake2b(
        "\x1f".join(str(part) for part in parts).encode("utf-8"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big")


class PlacementError(ValueError):
    """Raised for invalid membership operations (duplicate add)."""


class HashRingPlacement:
    """Consistent hashing with virtual nodes over a 64-bit ring."""

    def __init__(self, devices=()):
        self._devices = []
        self._points = []  # sorted ring positions
        self._owner_at = {}  # ring position -> device
        for device in devices:
            self.add_device(device)

    def devices(self):
        return list(self._devices)

    def add_device(self, device):
        if device in self._devices:
            raise PlacementError(f"device {device!r} already placed")
        self._devices.append(device)
        for replica in range(VNODES):
            point = stable_hash("ring", device, replica)
            # A collision would silently shadow another device's point;
            # nudge deterministically until the slot is free.
            while point in self._owner_at:
                point = (point + 1) % HASH_SPACE
            self._owner_at[point] = device
            bisect.insort(self._points, point)
        return device

    def place(self, shard_id):
        """The device owning ``shard_id`` (first ring point at/after it)."""
        if not self._points:
            raise PlacementError("no devices to place onto")
        point = stable_hash("shard", shard_id) % HASH_SPACE
        index = bisect.bisect_left(self._points, point)
        if index == len(self._points):
            index = 0  # wrap around the ring
        return self._owner_at[self._points[index]]
