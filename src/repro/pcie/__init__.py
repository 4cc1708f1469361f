"""PCIe subsystem model: links, MMIO regions, DMA, NTB, and RDMA.

The paper's fast data path is built directly out of PCIe mechanisms:

* host stores against a CMB-mapped region become Transaction Layer Packets
  (TLPs) on the link (Section 2.1);
* Write-Combining vs Uncached mapping changes how many bytes each TLP
  carries (Section 6.2 / Fig. 10);
* device-to-device replication rides Non-Transparent Bridging, which
  forwards TLPs between hosts' PCIe domains (Sections 2.3, 4.2);
* the RDMA NIC model exists for the host-managed PM baseline (Fig. 1 left).

The model is packet-level, not cycle-level: a packet is its size.  Each
TLP pays a fixed header overhead (:mod:`repro.pcie.tlp`) and serializes
on a finite-bandwidth link, which is exactly the effect the paper's
Fig. 10 measures; no packet object is built.
"""

from repro.pcie.dma import DmaEngine
from repro.pcie.link import PcieLink, link_bandwidth
from repro.pcie.mmio import CachePolicy, MmioRegion
from repro.pcie.ntb import NtbBridge, NtbPort
from repro.pcie.rdma import RdmaNic, RdmaQueuePair
from repro.pcie.tlp import payload_sizes

__all__ = [
    "payload_sizes",
    "PcieLink",
    "link_bandwidth",
    "MmioRegion",
    "CachePolicy",
    "DmaEngine",
    "NtbBridge",
    "NtbPort",
    "RdmaNic",
    "RdmaQueuePair",
]
