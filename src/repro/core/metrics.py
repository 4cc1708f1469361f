"""Device observability: one structured snapshot of a Villars device.

Operators of a real device would read these through SMART-style log
pages; benchmarks and examples use them to explain results.  The
snapshot is plain data (nested dicts of numbers/strings), cheap to take,
and safe to take at any simulation instant — it never advances time.
"""

from repro.ssd.scheduler import Source


def _nand_counters(channels):
    """Die-resource-manager counters summed across a device's channels."""
    totals = {}
    for channel in channels:
        for key, value in channel.resources.snapshot().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def device_snapshot(device):
    """A structured metrics snapshot of one :class:`XssdDevice`."""
    cmb = device.cmb
    ring = cmb.ring
    destage = device.destage
    conventional = device.conventional
    scheduler = conventional.scheduler
    transport = device.transport
    elapsed = device.engine.now

    return {
        "time_ns": elapsed,
        "fast_side": {
            "bytes_received": cmb.bytes_received,
            "chunks_received": cmb.chunks_received,
            "credit": cmb.credit.value,
            "in_flight_bytes": cmb.in_flight_bytes,
            "queue_free_bytes": cmb.queue_free_bytes,
            "intake_backlog_bytes": cmb.intake_backlog_bytes,
            "intake_backlog_peak": cmb.intake_backlog_peak,
            "ring": {
                "capacity": ring.capacity,
                "frontier": ring.frontier,
                "released": ring.released,
                "used_bytes": ring.used_bytes,
                "has_gap": ring.has_gap,
            },
            "backing": {
                "bytes_written": device.backing.bytes_written,
                "bytes_read": device.backing.bytes_read,
                "port_utilization": device.backing.port.utilization(elapsed),
            },
        },
        "destage": {
            "pages_written": destage.pages_written,
            "filler_bytes": destage.filler_bytes_total,
            "destaged_offset": destage.destaged_offset,
            "outstanding_pages": destage.outstanding_pages,
            "ring_window": (destage.head_sequence, destage.durable_tail,
                            destage.tail_sequence),
        },
        "conventional_side": {
            "scheduler_mode": scheduler.mode.value,
            "pages_by_source": {
                "conventional": scheduler.dispatched[Source.CONVENTIONAL],
                "destage": scheduler.dispatched[Source.DESTAGE],
            },
            "bytes_by_source": {
                "conventional": scheduler.bytes_written[Source.CONVENTIONAL],
                "destage": scheduler.bytes_written[Source.DESTAGE],
            },
            "ftl": {
                "writes": conventional.ftl.writes_served,
                "reads": conventional.ftl.reads_served,
                "program_failures": conventional.ftl.program_failures,
                "read_retries": conventional.ftl.read_retries,
                "read_retirements": conventional.ftl.read_retirements,
                "mapped_lbas": len(conventional.ftl.table),
                "free_blocks": conventional.ftl.allocator.free_blocks(),
                "bad_blocks": len(conventional.ftl.allocator.bad_blocks),
            },
            "gc": {
                "collections": conventional.gc.collections,
                "pages_migrated": conventional.gc.pages_migrated,
            },
            "nand": _nand_counters(conventional.channels),
            "buffer": {
                "used_bytes": conventional.data_buffer.used_bytes,
                "hits": conventional.data_buffer.hits,
                "misses": conventional.data_buffer.misses,
            },
        },
        "transport": {
            "role": transport.role.value,
            "status": transport.status_register,
            "policy": transport.policy.name,
            "visible_credit": transport.visible_counter(),
            "shadow_counters": {
                name: counter.value
                for name, counter in transport.shadow_counters.items()
            },
            "updates_sent": transport.counter_updates_sent,
            "updates_received": transport.counter_updates_received,
        },
        "health": {
            "brownout_enters": device.brownout_enters,
            "brownout_exits": device.brownout_exits,
            "brownout_active": device.brownout_active,
        },
        "faults": {
            "torn_writes": cmb.torn_writes,
            "chunks_discarded": cmb.chunks_discarded,
            "chunks_shed": cmb.chunks_shed,
            "bytes_shed": cmb.bytes_shed,
            "corrupt_dropped": transport.corrupt_dropped,
            "sends_retried": transport.sends_retried,
            "chunks_abandoned": len(transport.chunks_abandoned),
        },
        "link": {
            "tlps_down": conventional.link.tlps_down,
            "tlps_up": conventional.link.tlps_up,
            "down_utilization": conventional.link.downstream.utilization(
                elapsed
            ),
            "up_utilization": conventional.link.upstream.utilization(
                elapsed
            ),
        },
    }


def format_snapshot(snapshot, indent=0):
    """Render a snapshot as indented text for logs and examples."""
    lines = []
    pad = "  " * indent
    for key, value in snapshot.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(format_snapshot(value, indent + 1))
        elif isinstance(value, float):
            lines.append(f"{pad}{key}: {value:.3f}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)
