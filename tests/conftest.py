"""Shared test configuration: hypothesis profiles and device builders.

The builders below are deliberately plain functions (not fixtures):
hypothesis's ``@given`` forbids function-scoped fixtures, and most tests
want to call them with per-test arguments anyway.  Import them directly::

    from tests.conftest import cluster_config_factory, make_xssd_device

Profiles: ``dev`` (default) keeps hypothesis's randomized exploration
with no deadline (simulations are CPU-heavy but deterministic); ``ci``
derandomizes for reproducible CI runs and raises the example budget for
tests that don't pin their own; ``deep`` stays randomized and runs 2,000
examples per such test, for the nightly differentials.  Select with
``HYPOTHESIS_PROFILE=ci`` (or ``deep``).
"""

import os

from hypothesis import HealthCheck, settings

from repro.core.config import villars_dram, villars_sram
from repro.core.device import XssdDevice
from repro.db.engine import Database
from repro.host.api import XssdLogFile
from repro.nand.geometry import Geometry
from repro.nand.timing import NandTiming
from repro.sim import Engine
from repro.ssd.device import SsdConfig

settings.register_profile("dev", deadline=None)
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "deep",
    deadline=None,
    max_examples=2_000,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


# -- device builders (shared across test modules) ------------------------------------


def small_geometry(blocks_per_die=64):
    """The small NAND array every fast test uses (2ch x 2way)."""
    return Geometry(channels=2, ways_per_channel=2,
                    blocks_per_die=blocks_per_die, pages_per_block=16,
                    page_bytes=4096)


def fast_timing():
    """NAND timing scaled down so tests cover many events cheaply."""
    return NandTiming(t_program=50_000.0, t_read=5_000.0,
                      t_erase=200_000.0, bus_bandwidth=1.0)


def small_ssd_config(blocks_per_die=64, **overrides):
    return SsdConfig(geometry=small_geometry(blocks_per_die),
                     timing=fast_timing(), **overrides)


def small_villars_config(blocks_per_die=64, cmb_capacity=64 * 1024,
                         cmb_queue_bytes=8 * 1024, kind="sram",
                         ssd_overrides=None, **overrides):
    factory = villars_sram if kind == "sram" else villars_dram
    return factory(
        ssd=small_ssd_config(blocks_per_die, **(ssd_overrides or {})),
        cmb_capacity=cmb_capacity,
        cmb_queue_bytes=cmb_queue_bytes,
        **overrides,
    )


def cluster_config_factory():
    """The per-server config the cluster topology tests share."""
    return small_villars_config()


def make_xssd_device(blocks_per_die=32, cmb_queue_bytes=8 * 1024,
                     kind="sram", engine=None, **overrides):
    """A started small device on a (fresh or given) engine."""
    engine = engine or Engine()
    config = small_villars_config(
        blocks_per_die=blocks_per_die, cmb_queue_bytes=cmb_queue_bytes,
        kind=kind, **overrides,
    )
    return engine, XssdDevice(engine, config).start()


def build_logging_device(group_commit_bytes,
                         group_commit_timeout_ns=15_000.0):
    """Device + database wired for WAL tests (the crash-property setup)."""
    engine, device = make_xssd_device(blocks_per_die=64)
    log = XssdLogFile(device)
    database = Database(engine, log,
                        group_commit_bytes=group_commit_bytes,
                        group_commit_timeout_ns=group_commit_timeout_ns)
    database.create_table("kv")
    return engine, device, database
