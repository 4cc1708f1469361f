"""Unit tests for PCIe links, NTB bridging, DMA, and the RDMA baseline NIC."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pcie.dma import DmaEngine
from repro.pcie.link import PcieLink, link_bandwidth
from repro.pcie.ntb import NtbBridge, NtbPort
from repro.pcie.rdma import RdmaNic
from repro.pcie.tlp import TLP_OVERHEAD_BYTES
from repro.sim import Engine, SimulationError


class TestLink:
    def test_bandwidth_table(self):
        assert link_bandwidth(4, 2) == pytest.approx(2.0)  # the paper's CMB link
        assert link_bandwidth(8, 2) == pytest.approx(4.0)
        assert link_bandwidth(4, 3) == pytest.approx(3.94, abs=0.01)

    def test_unsupported_gen_rejected(self):
        with pytest.raises(ValueError):
            link_bandwidth(4, 7)

    def test_invalid_lanes_rejected(self):
        with pytest.raises(ValueError):
            link_bandwidth(3, 2)

    def test_send_delivers_after_wire_time_plus_propagation(self):
        engine = Engine()
        link = PcieLink(engine, lanes=4, gen=2, propagation_ns=100.0)
        done = []

        def proc():
            yield link.send_train([176])  # wire = 176 + 24 = 200
            done.append(engine.now)

        engine.process(proc())
        engine.run()
        assert done == [pytest.approx(200 / 2.0 + 100.0)]

    @pytest.mark.parametrize("direction", ["send_train", "receive_train"])
    @pytest.mark.parametrize("payloads", [[-1], [64, -24], [-25]])
    def test_negative_payload_rejected(self, direction, payloads):
        """A negative payload is no packet, even when the per-packet
        overhead would make its wire size non-negative."""
        engine = Engine()
        link = PcieLink(engine)
        with pytest.raises(SimulationError, match="negative"):
            getattr(link, direction)(payloads)
        assert (link.tlps_down, link.tlps_up) == (0, 0)
        assert link.downstream.bytes_transferred == 0
        assert link.upstream.bytes_transferred == 0

    def test_directions_do_not_contend(self):
        engine = Engine()
        link = PcieLink(engine, lanes=4, gen=2, propagation_ns=0.0)
        times = {}

        def down():
            yield link.send_train([1976])  # 1 us wire
            times["down"] = engine.now

        def up():
            yield link.receive_train([1976])
            times["up"] = engine.now

        engine.process(down())
        engine.process(up())
        engine.run()
        assert times["down"] == pytest.approx(times["up"])


class TestDma:
    def test_pull_moves_all_bytes(self):
        engine = Engine()
        link = PcieLink(engine)
        dma = DmaEngine(engine, link)
        moved = []

        def proc():
            size = yield dma.pull(4096)
            moved.append(size)

        engine.process(proc())
        engine.run()
        assert moved == [4096]
        assert dma.bytes_pulled == 4096

    def test_pull_zero_completes(self):
        engine = Engine()
        dma = DmaEngine(engine, PcieLink(engine))
        done = []

        def proc():
            yield dma.pull(0)
            done.append(True)

        engine.process(proc())
        engine.run()
        assert done == [True]

    def test_push_moves_all_bytes(self):
        engine = Engine()
        dma = DmaEngine(engine, PcieLink(engine))
        moved = []

        def proc():
            size = yield dma.push(8192)
            moved.append(size)

        engine.process(proc())
        engine.run()
        assert moved == [8192]

    def test_negative_sizes_rejected(self):
        engine = Engine()
        dma = DmaEngine(engine, PcieLink(engine))
        with pytest.raises(ValueError):
            dma.pull(-1)
        with pytest.raises(ValueError):
            dma.push(-1)


class TestTrains:
    """A train moves a link exactly as a loop of per-TLP sends does."""

    @staticmethod
    def _run(lanes, gen, propagation, history, payloads, upstream, train):
        """Replay ``history`` on a fresh link, then send ``payloads`` as
        a train or packet by packet on the pipes; returns the packets
        counted per direction, the link and when the last packet
        arrived."""
        engine = Engine()
        link = PcieLink(engine, lanes=lanes, gen=gen,
                        propagation_ns=propagation)
        counted = {"down": 0, "up": 0}
        arrived = []

        def send(payload, up):
            """One packet on its own, as the per-packet model sends it."""
            counted["up" if up else "down"] += 1
            pipe = link.upstream if up else link.downstream
            return pipe.transfer(payload + TLP_OVERHEAD_BYTES)

        def proc():
            for gap, payload, up in history:
                yield engine.timeout(gap)
                if train:
                    (link.receive_train if up else link.send_train)(
                        [payload])
                else:
                    send(payload, up)
            yield engine.timeout(history[-1][0])
            if train and upstream:
                last = link.receive_train(payloads)
            elif train:
                last = link.send_train(payloads)
            else:
                for payload in payloads:
                    last = send(payload, upstream)
            yield last
            arrived.append(engine.now)

        engine.process(proc())
        engine.run()
        if train:
            counted = {"down": link.tlps_down, "up": link.tlps_up}
        return counted, link, arrived

    @given(
        lanes=st.sampled_from([1, 2, 4, 8, 16]),
        gen=st.sampled_from([1, 2, 3, 4]),
        propagation=st.floats(0.0, 1000.0),
        history=st.lists(st.tuples(st.floats(0.0, 5000.0),
                                   st.integers(0, 4096), st.booleans()),
                         min_size=1, max_size=8),
        payloads=st.lists(st.integers(1, 4096), min_size=1, max_size=80),
        upstream=st.booleans(),
    )
    def test_train_matches_per_tlp_loop(self, lanes, gen, propagation,
                                        history, payloads, upstream):
        args = (lanes, gen, propagation, history, payloads, upstream)
        loop_counted, looped, loop_arrived = self._run(*args, train=False)
        train_counted, trained, train_arrived = self._run(*args, train=True)
        assert train_arrived == loop_arrived
        assert train_counted == loop_counted
        for direction in ("downstream", "upstream"):
            want = getattr(looped, direction)
            got = getattr(trained, direction)
            assert got._busy_until == want._busy_until
            assert got.busy_time == want.busy_time
            assert got.bytes_transferred == want.bytes_transferred

    def test_pull_sends_one_completion_per_max_payload(self):
        """A DMA pull's completions split at the max payload size: 64
        full packets and the tail, each paying the packet overhead."""
        engine = Engine()
        link = PcieLink(engine)
        DmaEngine(engine, link).pull(16 * 1024 + 100)
        engine.run()
        assert link.tlps_down == 65
        assert link.downstream.bytes_transferred == (
            16 * 1024 + 100 + 65 * TLP_OVERHEAD_BYTES)


class TestNtb:
    def test_forward_delivers_to_peer_sink(self):
        engine = Engine()
        a = NtbPort(engine, "a")
        b = NtbPort(engine, "b")
        NtbBridge(engine, a, b, hop_latency=500.0)
        arrived = []
        b.attach_sink(lambda *packet: arrived.append((engine.now, packet)))
        delivered = []

        def proc():
            delivered.append((yield a.send("mirror", 128, 64, "x", "y")))

        engine.process(proc())
        engine.run()
        assert len(arrived) == 1
        assert arrived[0][0] >= 500.0
        assert arrived[0][1] == ("mirror", 128, 64, False, "x", "y")
        assert delivered == [True]

    def test_bridge_is_bidirectional(self):
        engine = Engine()
        a, b = NtbPort(engine, "a"), NtbPort(engine, "b")
        NtbBridge(engine, a, b)
        got = []
        a.attach_sink(lambda *_packet: got.append("at-a"))
        b.attach_sink(lambda *_packet: got.append("at-b"))

        def proc():
            yield a.send("mirror", 0, 8)
            yield b.send("mirror", 0, 8)

        engine.process(proc())
        engine.run()
        assert got == ["at-b", "at-a"]

    def test_unconnected_port_raises(self):
        engine = Engine()
        port = NtbPort(engine, "lonely")
        with pytest.raises(RuntimeError):
            port.send("mirror", 0, 8)


class TestRdma:
    def test_post_write_completes_after_latency(self):
        engine = Engine()
        nic_a = RdmaNic(engine, "a", latency=2000.0)
        nic_b = RdmaNic(engine, "b", latency=2000.0)
        qp = nic_a.connect(nic_b)
        done = []

        def proc():
            yield qp.post_write(64)
            done.append(engine.now)

        engine.process(proc())
        engine.run()
        assert done[0] >= 2000.0

    def test_receive_callback_fires_on_remote_side(self):
        engine = Engine()
        qp = RdmaNic(engine, "a").connect(RdmaNic(engine, "b"))
        landed = []
        qp.on_receive(lambda size: landed.append(size))

        def proc():
            yield qp.post_write(128)

        engine.process(proc())
        engine.run()
        assert landed == [128]

    def test_durable_write_without_persistence_needs_flush_rtt(self):
        """The paper's DDIO caveat: visible != persistent."""
        engine = Engine()

        def run(persistent):
            eng = Engine()
            qp = RdmaNic(eng, "a").connect(
                RdmaNic(eng, "b"), persistent_on_completion=persistent
            )
            done = []

            def proc():
                yield qp.durable_write(64)
                done.append(eng.now)

            eng.process(proc())
            eng.run()
            return done[0]

        assert run(persistent=False) > run(persistent=True)

    def test_negative_write_rejected(self):
        engine = Engine()
        qp = RdmaNic(engine, "a").connect(RdmaNic(engine, "b"))
        with pytest.raises(ValueError):
            qp.post_write(-5)
