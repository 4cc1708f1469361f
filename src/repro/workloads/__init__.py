"""Workload generators driving the benchmarks.

* :mod:`repro.workloads.tpcc` — a TPC-C-shaped transactional workload
  (five transaction types, standard mix, warehouse scaling) producing the
  log-record profile the paper's Fig. 9 and 11 experiments rely on;
* :mod:`repro.workloads.ycsb` — a key/value update workload with zipfian
  skew, for broader coverage;
* :mod:`repro.workloads.synthetic` — raw append streams with controlled
  write sizes and rates, used by the microbenchmarks (Figs. 10-13);
* :mod:`repro.workloads.diurnal` — bursty multi-tenant traffic (regional
  day/night sinusoids, Poisson flash crowds, Zipf tenant sizes) driving
  the SLO control-plane experiments.
"""

from repro.workloads.diurnal import (
    DiurnalTrafficModel,
    FlashCrowd,
    bursty_tenant_stream,
    zipf_weights,
)
from repro.workloads.synthetic import paced_append_stream
from repro.workloads.tpcc import TpccConfig, TpccWorkload
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload

__all__ = [
    "TpccConfig",
    "TpccWorkload",
    "YcsbConfig",
    "YcsbWorkload",
    "paced_append_stream",
    "DiurnalTrafficModel",
    "FlashCrowd",
    "bursty_tenant_stream",
    "zipf_weights",
]
