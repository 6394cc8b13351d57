"""Tests for the packet-level contention model."""

import pytest

from repro.noc import Mesh, NocConfig, PacketNetwork
from repro.noc.fastmodel import PacketNetwork as _PN


@pytest.fixture
def net():
    return PacketNetwork(Mesh(4, 4))


class TestZeroLoad:
    def test_single_hop_single_flit(self, net):
        # hops * hop_cycles + (flits-1) cycles, 1 GHz -> ns == cycles.
        arrival = net.delivery_time((0, 0), (1, 0), 64, start_ns=0.0)
        assert arrival == pytest.approx(2.0)

    def test_multi_hop(self, net):
        arrival = net.delivery_time((0, 0), (3, 3), 64, start_ns=0.0)
        assert arrival == pytest.approx(6 * 2.0)

    def test_serialization(self, net):
        arrival = net.delivery_time((0, 0), (1, 0), 256, start_ns=0.0)
        assert arrival == pytest.approx(2.0 + 3.0)

    def test_local_delivery_is_crossbar_only(self, net):
        arrival = net.delivery_time((1, 1), (1, 1), 64, start_ns=5.0)
        assert arrival == pytest.approx(6.0)

    def test_start_time_offsets_result(self, net):
        # The first packet drains long before t=100, so the second sees an
        # idle network and the offset is exactly the start time.
        a = net.delivery_time((0, 0), (2, 0), 64, start_ns=0.0)
        b = net.delivery_time((0, 0), (2, 0), 64, start_ns=100.0)
        assert b == pytest.approx(a + 100.0)


class TestContention:
    def test_back_to_back_packets_queue(self):
        net = PacketNetwork(Mesh(2, 1))
        first = net.delivery_time((0, 0), (1, 0), 256, start_ns=0.0)
        second = net.delivery_time((0, 0), (1, 0), 256, start_ns=0.0)
        assert second == pytest.approx(first + 4.0)  # 4 flits serialization

    def test_disjoint_paths_do_not_interact(self):
        net = PacketNetwork(Mesh(2, 2))
        a = net.delivery_time((0, 0), (1, 0), 256, start_ns=0.0)
        b = net.delivery_time((0, 1), (1, 1), 256, start_ns=0.0)
        assert a == pytest.approx(b)

    def test_crossing_packets_share_link(self):
        net = PacketNetwork(Mesh(3, 1))
        # Both packets use link (1,0)->(2,0).
        net.delivery_time((0, 0), (2, 0), 640, start_ns=0.0)
        arrival = net.delivery_time((1, 0), (2, 0), 64, start_ns=0.0)
        solo = PacketNetwork(Mesh(3, 1)).delivery_time(
            (1, 0), (2, 0), 64, start_ns=0.0
        )
        assert arrival > solo


class TestAgainstFlitLevel:
    """The fast model must track the flit-level model at zero load."""

    @pytest.mark.parametrize("size", [64, 128, 512])
    @pytest.mark.parametrize("dst", [(1, 0), (3, 0), (3, 3)])
    def test_zero_load_latency_matches(self, size, dst):
        from repro.noc import FlitNetwork, Packet

        fast = PacketNetwork(Mesh(4, 4))
        fast_latency = fast.delivery_time((0, 0), dst, size, 0.0)

        flit_net = FlitNetwork(4, 4)
        pkt = Packet(src=(0, 0), dst=dst, size_bytes=size)
        flit_net.inject(pkt)
        flit_net.run()
        # The flit model charges injection (1 cycle) and local ejection
        # switching (1 cycle) that the fast model folds away; allow that
        # constant.
        assert abs(pkt.latency - fast_latency) <= 2.0


class TestReporting:
    def test_stats_counters(self, net):
        net.delivery_time((0, 0), (1, 0), 200, start_ns=0.0)
        assert net.stats.get("packets") == 1
        assert net.stats.get("flits") == 4
        assert net.stats.get("bytes") == 200

    def test_links_used(self, net):
        net.delivery_time((0, 0), (2, 0), 64, start_ns=0.0)
        assert net.links_used == 2

    def test_utilization_bounded(self, net):
        net.delivery_time((0, 0), (3, 0), 640, start_ns=0.0)
        util = net.max_link_utilization(elapsed_ns=100.0)
        assert 0 < util <= 1.0

    def test_empty_network_utilization_zero(self, net):
        assert net.max_link_utilization(10.0) == 0.0

    def test_invalid_node_rejected(self, net):
        with pytest.raises(ValueError):
            net.delivery_time((0, 0), (9, 9), 64, 0.0)


class TestMessageMemo:
    """Per-message terms are memoized; behaviour must not notice."""

    def test_invalid_node_raises_on_every_call(self, net):
        for _ in range(3):
            with pytest.raises(ValueError):
                net.delivery_time((0, 0), (9, 9), 64, 0.0)
            with pytest.raises(ValueError):
                net.delivery_time((9, 9), (0, 0), 64, 0.0)
        assert net.links_used == 0
        assert net.stats.get("packets") == 0

    def test_blackout_after_memoized_route_delays_next_packet(self):
        net = PacketNetwork(Mesh(4, 1))
        first = net.delivery_time((0, 0), (3, 0), 256, 0.0)
        repeat = net.delivery_time((0, 0), (3, 0), 256, 1000.0)
        assert repeat - 1000.0 == first
        net.reserve_link((1, 0), (2, 0), start_ns=2000.0, duration_ns=500.0)
        delayed = net.delivery_time((0, 0), (3, 0), 256, 2000.0)
        # The head waits out the blackout on the second hop, then takes
        # one more hop and the tail's serialization.
        assert delayed == 2500.0 + 2.0 + 2.0 + 3.0

    def test_listener_after_traffic_sees_every_link_once(self):
        net = PacketNetwork(Mesh(4, 4))
        pairs = [((0, 0), (3, 3)), ((3, 3), (0, 0)), ((0, 0), (3, 3)),
                 ((1, 2), (1, 0)), ((2, 2), (2, 2))]
        for i, (src, dst) in enumerate(pairs):
            net.delivery_time(src, dst, 128, 10.0 * i)
        seen = []
        net.attach_tracker_listener(lambda link, tracker: seen.append(link))
        used = {
            link for src, dst in pairs for link in net.mesh.route_links(src, dst)
        }
        assert sorted(seen) == sorted(used)
        assert len(seen) == net.links_used
        # Memo hits reuse the memoized trackers: no new link, no callback.
        for src, dst in pairs:
            net.delivery_time(src, dst, 128, 1000.0)
        assert sorted(seen) == sorted(used)

    def test_repeats_count_like_fresh_messages(self, net):
        for _ in range(3):
            net.delivery_time((0, 0), (2, 1), 200, 0.0)
        assert net.stats.as_dict() == {
            "packets": 3, "flits": 12, "bytes": 600, "flit_hops": 36,
        }
