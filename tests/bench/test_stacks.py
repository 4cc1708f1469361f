"""Tests for the shared bench stack builders."""

import tracemalloc

import pytest

from repro.bench.stacks import (
    GROUP_COMMIT_BYTES,
    bench_ssd_config,
    build_log_file,
    build_tpcc_database,
    build_villars,
)
from repro.host.api import XssdLogFile
from repro.host.baselines import NoLogFile, NvdimmLogFile, NvmeLogFile
from repro.sim import Engine


class TestBenchSsdConfig:
    def test_cosmos_shape(self):
        config = bench_ssd_config()
        assert config.geometry.channels == 8
        assert config.geometry.ways_per_channel == 8
        assert config.geometry.page_bytes == 16 * 1024

    def test_overrides_apply(self):
        from repro.nand.geometry import Geometry

        config = bench_ssd_config(geometry=Geometry(channels=2))
        assert config.geometry.channels == 2


class TestBuildVillars:
    def test_sram_and_dram_kinds(self):
        engine = Engine()
        sram = build_villars(engine, "sram")
        dram = build_villars(engine, "dram")
        assert sram.config.backing_kind == "sram"
        assert dram.config.backing_kind == "dram"
        assert sram.backing.port.bandwidth > dram.backing.port.bandwidth

    def test_queue_size_knob(self):
        engine = Engine()
        device = build_villars(engine, "sram", queue_bytes=8 * 1024)
        assert device.config.cmb_queue_bytes == 8 * 1024

    def test_unwritten_flash_costs_no_memory(self):
        """A fresh device's 64 dies x 48 blocks x 64 pages hold no
        per-page state: a block stores only the pages it has programmed."""
        tracemalloc.start()
        try:
            build_villars(Engine())
            allocated, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert allocated < 2 * 1024 * 1024


class TestBuildLogFile:
    @pytest.mark.parametrize("setup,expected", [
        ("no-log", NoLogFile),
        ("memory", NvdimmLogFile),
        ("nvme", NvmeLogFile),
        ("villars-sram", XssdLogFile),
        ("villars-dram", XssdLogFile),
    ])
    def test_every_setup_builds(self, setup, expected):
        engine = Engine()
        log = build_log_file(engine, setup)
        assert isinstance(log, expected)

    def test_unknown_setup_rejected(self):
        with pytest.raises(ValueError):
            build_log_file(Engine(), "floppy-disk")


class TestBuildTpccDatabase:
    def test_paper_group_commit_threshold(self):
        assert GROUP_COMMIT_BYTES == 16 * 1024

    def test_populated_schema(self):
        engine = Engine()
        database = build_tpcc_database(engine, NoLogFile(engine), workers=2)
        assert len(database.table("warehouse")) == 16  # paper default
        assert database.log_manager.group_commit_bytes == 16 * 1024
        assert database.log_manager.max_inflight_flushes == 8
