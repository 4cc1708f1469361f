"""Tests for the TPC-C / YCSB / synthetic workload generators."""

import pytest

from repro.db.engine import Database
from repro.host.baselines import NoLogFile, NvdimmLogFile
from repro.pm.nvdimm import Nvdimm
from repro.sim import Engine
from repro.workloads.synthetic import paced_append_stream
from repro.workloads.tpcc import MIX, TpccConfig, TpccWorkload
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload


def make_db(engine):
    database = Database(engine, NoLogFile(engine),
                        group_commit_timeout_ns=1_000.0)
    return database


class TestTpcc:
    def test_mix_fractions_sum_to_one(self):
        assert sum(weight for _name, weight in MIX) == pytest.approx(1.0)

    def test_generator_is_deterministic_per_seed(self):
        def draw(seed):
            workload = TpccWorkload(TpccConfig(seed=seed))
            for _ in range(50):
                next(workload)
            return dict(workload.generated)

        assert draw(1) == draw(1)
        assert draw(1) != draw(2)

    def test_mix_roughly_respected(self):
        workload = TpccWorkload()
        for _ in range(2000):
            next(workload)
        fraction = workload.generated["new_order"] / 2000
        assert 0.40 < fraction < 0.50

    def test_transactions_run_against_database(self):
        engine = Engine()
        database = make_db(engine)
        TpccWorkload.create_schema(database)
        workload = TpccWorkload()
        workload.populate(database)
        done = database.run_worker(workload, transactions=20)
        engine.run(until=1_000_000_000.0)
        assert done.triggered
        assert database.stats.commits == 20

    def test_new_order_touches_expected_tables(self):
        engine = Engine()
        database = make_db(engine)
        TpccWorkload.create_schema(database)
        workload = TpccWorkload()
        workload.populate(database)
        body = workload._new_order()

        def proc():
            txn = database.begin()
            body(txn)
            tables = {table for table, _key in txn._writes}
            assert "orders" in tables
            assert "order_line" in tables
            assert "stock" in tables
            assert "district" in tables
            yield txn.commit()

        engine.process(proc())
        engine.run(until=1_000_000_000.0)

    def test_log_footprint_is_oltp_sized(self):
        """Per the paper's Fig. 11 discussion: records well under 20 KB."""
        engine = Engine()
        log = NvdimmLogFile(engine, Nvdimm(engine, capacity=1 << 30))
        database = Database(engine, log, group_commit_bytes=1,
                            group_commit_timeout_ns=1_000.0)
        TpccWorkload.create_schema(database)
        workload = TpccWorkload()
        workload.populate(database)
        done = database.run_worker(workload, transactions=20)
        engine.run(until=1_000_000_000.0)
        assert done.triggered
        per_txn = log.written / max(1, database.stats.commits)
        assert 100 < per_txn < 20_000

    def test_workers_get_distinct_home_warehouses(self):
        config = TpccConfig(warehouses=4)
        homes = {TpccWorkload(config, worker_id=i).home_warehouse
                 for i in range(4)}
        assert homes == {1, 2, 3, 4}


class TestYcsb:
    def test_read_fraction_respected(self):
        workload = YcsbWorkload(YcsbConfig(read_fraction=0.8))
        for _ in range(1000):
            next(workload)
        fraction = workload.reads / 1000
        assert 0.7 < fraction < 0.9

    def test_zipf_skews_toward_hot_keys(self):
        workload = YcsbWorkload(YcsbConfig(zipf_theta=0.99, read_fraction=0.0))
        keys = [workload._key() for _ in range(2000)]
        hot = sum(1 for key in keys if key < 10)
        assert hot > 200  # far above uniform (10/1000 = 2%)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            YcsbConfig(read_fraction=1.5)
        with pytest.raises(ValueError):
            YcsbConfig(records=0)

    def test_runs_against_database(self):
        engine = Engine()
        database = make_db(engine)
        YcsbWorkload.create_schema(database)
        workload = YcsbWorkload(YcsbConfig(read_fraction=0.5))
        workload.populate(database)
        done = database.run_worker(workload, transactions=30)
        engine.run(until=1_000_000_000.0)
        assert done.triggered
        assert database.stats.commits == 30


class TestSynthetic:
    def test_paced_stream_offers_at_target_rate(self):
        engine = Engine()
        completed = []

        def submit(nbytes):
            event = engine.timeout(10.0, value=nbytes)
            completed.append(nbytes)
            return event

        done = paced_append_stream(
            engine, submit, target_bytes_per_ns=1.0, write_bytes=1000,
            duration_ns=100_000.0,
        )
        engine.run(until=1_000_000.0)
        stats = done.value
        # 1 B/ns for 100 us = ~100 KB offered (jitter makes it approximate).
        assert 80_000 <= stats["offered_bytes"] <= 120_000

    def test_invalid_parameters_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            paced_append_stream(
                engine, engine.timeout, target_bytes_per_ns=0,
                write_bytes=1000, duration_ns=100_000.0,
            )
