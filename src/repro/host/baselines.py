"""Baseline logging paths the evaluation compares against.

Fig. 9's four non-Villars series each correspond to one class here:

* :class:`NoLogFile` — logging disabled (the upper bound on throughput);
* :class:`NvdimmLogFile` — the "Memory" series: log records persisted in
  host NVDIMM via store + flush (the latency floor);
* :class:`NvmeLogFile` — the "NVMe" series: pwrite/fsync against the
  conventional side through the kernel (syscall + NVMe protocol + flash
  program latency);
* :class:`HostPmRdmaLogFile` — the Fig. 1 (left) pipeline: host-managed
  PM logging with RDMA replication and host-driven destaging, paying the
  four data movements Section 5.1 counts.

All classes share the :class:`XssdLogFile`-compatible surface
(``x_pwrite``/``x_fsync``) so the database engine swaps them freely.
"""

# Cost of entering/leaving the kernel for one syscall (pwrite or fsync).
SYSCALL_NS = 1_500.0
# First LBA of each baseline's log: far apart, so the two never overlap.
NVME_LOG_START_LBA = 1_000_000
HOST_PM_LOG_START_LBA = 2_000_000


class NoLogFile:
    """Logging disabled: every call completes immediately."""

    def __init__(self, engine):
        self.engine = engine
        self.written = 0

    def x_pwrite(self, payload, nbytes):
        if nbytes <= 0:
            raise ValueError("positive size required")
        self.written += nbytes
        return self.engine.timeout(0.0, value=nbytes)

    def x_fsync(self):
        return self.engine.timeout(0.0, value=self.written)


class NvdimmLogFile:
    """Direct logging into host persistent memory (the 'Memory' series)."""

    def __init__(self, engine, nvdimm):
        self.engine = engine
        self.nvdimm = nvdimm
        self.written = 0
        self.persisted = 0

    def x_pwrite(self, payload, nbytes):
        if nbytes <= 0:
            raise ValueError("positive size required")
        return self.engine.process(self._pwrite(payload, nbytes))

    def _pwrite(self, payload, nbytes):
        yield self.nvdimm.persist(nbytes)
        self.written += nbytes
        self.persisted += nbytes
        return nbytes

    def x_fsync(self):
        # persist() already fenced; nothing further to wait for.
        return self.engine.timeout(0.0, value=self.persisted)


class NvmeLogFile:
    """pwrite/fsync against the conventional NVMe side through the kernel.

    Bytes accumulate in a user buffer; fsync (and any full block) pushes
    them as block writes and waits for durable completion — the classic
    WAL-on-SSD discipline.
    """

    def __init__(self, engine, ssd):
        self.engine = engine
        self.ssd = ssd
        self.block_bytes = ssd.block_bytes
        self._next_lba = NVME_LOG_START_LBA
        self._buffered = 0
        self._buffered_payloads = []
        self.written = 0
        self.blocks_written = 0

    def x_pwrite(self, payload, nbytes):
        if nbytes <= 0:
            raise ValueError("positive size required")
        return self.engine.process(self._pwrite(payload, nbytes))

    def _pwrite(self, payload, nbytes):
        yield self.engine.timeout(SYSCALL_NS)
        self._buffered += nbytes
        self._buffered_payloads.append((payload, nbytes))
        self.written += nbytes
        # Full blocks flush eagerly (the OS page cache writes back).
        while self._buffered >= self.block_bytes:
            yield self._write_one_block()
        return nbytes

    def x_fsync(self):
        return self.engine.process(self._fsync())

    def _fsync(self):
        yield self.engine.timeout(SYSCALL_NS)
        while self._buffered > 0:
            yield self._write_one_block()
        return self.written

    def _write_one_block(self):
        taken = min(self.block_bytes, self._buffered)
        self._buffered -= taken
        block_payload = tuple(self._buffered_payloads)
        self._buffered_payloads = []
        lba = self._next_lba
        self._next_lba += 1
        self.blocks_written += 1
        return self.ssd.write(lba, block_payload)


class HostPmRdmaLogFile:
    """Fig. 1 (left): the database coordinates PM, RDMA, and the SSD itself.

    Per log write: (1) store into local NVDIMM; (2) RDMA-write the record
    to the remote host's PM, plus a flush round trip for real durability
    (the DDIO caveat); host-driven destaging — (3) read the record back
    out of NVDIMM and (4) pwrite it to the SSD — runs in the background
    once a block's worth accumulates, stealing host memory bandwidth.
    """

    def __init__(self, engine, nvdimm, qp, ssd, destage_block_bytes=None):
        self.engine = engine
        self.nvdimm = nvdimm
        self.qp = qp
        self.ssd = ssd
        self.block_bytes = destage_block_bytes or ssd.block_bytes
        self._next_lba = HOST_PM_LOG_START_LBA
        self._undestaged = 0
        self.written = 0
        self.persisted = 0
        self.data_movements = 0
        self._destage_busy = False

    def x_pwrite(self, payload, nbytes):
        if nbytes <= 0:
            raise ValueError("positive size required")
        return self.engine.process(self._pwrite(payload, nbytes))

    def _pwrite(self, payload, nbytes):
        # Movement 1: CPU stores the record into NVDIMM.
        yield self.nvdimm.persist(nbytes)
        self.data_movements += 1
        # Movement 2: NIC reads host memory and ships it (durably) remote.
        yield self.qp.durable_write(nbytes)
        self.data_movements += 1
        self.written += nbytes
        self.persisted += nbytes
        self._undestaged += nbytes
        if self._undestaged >= self.block_bytes and not self._destage_busy:
            self.engine.process(self._destage_blocks())
        return nbytes

    def x_fsync(self):
        # Both local and remote persistence were synchronous above.
        return self.engine.timeout(0.0, value=self.persisted)

    def _destage_blocks(self):
        """Host-managed destaging: movements 3 (PM read) and 4 (SSD write)."""
        self._destage_busy = True
        try:
            while self._undestaged >= self.block_bytes:
                self._undestaged -= self.block_bytes
                yield self.nvdimm.read(self.block_bytes)  # movement 3
                self.data_movements += 1
                lba = self._next_lba
                self._next_lba += 1
                yield self.ssd.write(lba, ("pm-destage", lba))  # movement 4
                self.data_movements += 1
        finally:
            self._destage_busy = False
