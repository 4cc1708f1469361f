"""The benchmark harness: one experiment per paper figure.

Each experiment module builds the full simulated stack, runs the workload
the paper describes, and returns structured rows (plus a text rendering
shaped like the figure's series).  The ``benchmarks/`` directory wraps
these in pytest-benchmark entry points; the ``examples/`` scripts reuse
them directly.
"""

from repro.bench.reporting import format_series, format_table
from repro.bench.parallel import run_cells
from repro.bench.chaos import run_chaos_bench
from repro.bench.dr import run_dr_bench
from repro.bench.fleet import run_fleet_bench
from repro.bench.kernel import run_kernel_bench
from repro.bench.nand import run_nand_bench
from repro.bench.slo import run_slo_bench
from repro.bench.fig09_local_logging import run_fig09
from repro.bench.fig10_write_combining import run_fig10
from repro.bench.fig11_queue_size import run_fig11
from repro.bench.fig12_destage_priority import run_fig12
from repro.bench.fig13_replication_delay import run_fig13

__all__ = [
    "format_table",
    "format_series",
    "run_cells",
    "run_chaos_bench",
    "run_dr_bench",
    "run_fleet_bench",
    "run_kernel_bench",
    "run_nand_bench",
    "run_slo_bench",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
]
