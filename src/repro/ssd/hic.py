"""The Host Interface Controller: NVMe front end of the device.

The HIC fetches commands from the submission queue (paying the command
fetch round trip), DMAs write payloads into the device, hands commands to
the firmware, and posts completions back (Section 2.2's step-by-step
"Life of a Log Write").
"""

from repro.ssd.nvme import NvmeCompletion, NvmeStatus, Opcode

# Size of one submission-queue entry on the wire.
SQE_BYTES = 64
# Fixed command decode / dispatch cost inside the controller, ns.
DECODE_NS = 300.0


class HostInterfaceController:
    """Front-end pump: SQ fetch -> DMA -> firmware -> CQ post."""

    def __init__(self, engine, link, dma, submission_queue, completion_queue,
                 firmware):
        self.engine = engine
        self.link = link
        self.dma = dma
        self.submission_queue = submission_queue
        self.completion_queue = completion_queue
        self.firmware = firmware
        self.commands_fetched = 0
        self._running = False

    def start(self, pumps=4):
        """Launch command pump processes (one per outstanding command slot)."""
        if self._running:
            raise RuntimeError("HIC already started")
        self._running = True
        return [
            self.engine.process(self._pump(), name=f"hic-pump-{i}")
            for i in range(pumps)
        ]

    def stop(self):
        self._running = False

    def _pump(self):
        while self._running:
            command = yield self.submission_queue.fetch()
            if not self._running:
                # The controller lost power while this pump was parked on
                # the fetch: the command vanishes into the dead device and
                # its completion never posts (which is what lets probe
                # timeouts detect the loss).
                return
            self.commands_fetched += 1
            # Fetch the SQE itself over the link (read round trip).
            yield self.link.read_roundtrip(SQE_BYTES)
            yield self.engine.timeout(DECODE_NS)
            if command.opcode is Opcode.WRITE:
                # Pull the payload from host memory before firmware sees it.
                yield self.dma.pull(command.nblocks * self.firmware.block_bytes)
            try:
                result = yield self.firmware.execute(command)
                status = NvmeStatus.SUCCESS
            except Exception as error:
                result = error
                status = NvmeStatus.MEDIA_ERROR
            if command.opcode is Opcode.READ and status is NvmeStatus.SUCCESS:
                # Push the data back to host memory.
                yield self.dma.push(command.nblocks * self.firmware.block_bytes)
            self.completion_queue.post(
                NvmeCompletion(command.command_id, status=status,
                               result=result)
            )
