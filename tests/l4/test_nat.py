import pytest
from hypothesis import given, settings, strategies as st

from repro.l4.nat import ArenaNatTable
from tests.l4.packet_oracle import NatTable, TcpFlags, TcpPacket

CLIENT = ("C1", 12345, "10.0.0.1", 80)


class TestNatTable:
    def test_install_and_translate_in(self):
        nat = NatTable()
        nat.install(CLIENT, "srv-1", 8080, now=0.0)
        pkt = TcpPacket(*CLIENT, flags=TcpFlags.SYN)
        out = nat.translate_in(pkt)
        assert out is not None
        assert (out.dst_ip, out.dst_port) == ("srv-1", 8080)
        assert nat.rewrites_in == 1

    def test_translate_out_restores_virtual_address(self):
        nat = NatTable()
        nat.install(CLIENT, "srv-1", 8080, now=0.0)
        resp = TcpPacket("srv-1", 8080, "C1", 12345, flags=TcpFlags.ACK)
        out = nat.translate_out(resp)
        assert out is not None
        assert (out.src_ip, out.src_port) == ("10.0.0.1", 80)
        assert nat.rewrites_out == 1

    def test_unknown_flow_returns_none(self):
        nat = NatTable()
        assert nat.translate_in(TcpPacket(*CLIENT)) is None
        assert nat.translate_out(TcpPacket("x", 1, "y", 2)) is None

    def test_duplicate_install_rejected(self):
        nat = NatTable()
        nat.install(CLIENT, "srv-1", 8080, now=0.0)
        with pytest.raises(ValueError):
            nat.install(CLIENT, "srv-2", 8080, now=1.0)

    def test_remove_clears_both_directions(self):
        nat = NatTable()
        nat.install(CLIENT, "srv-1", 8080, now=0.0)
        nat.remove(CLIENT)
        assert len(nat) == 0
        assert nat.translate_in(TcpPacket(*CLIENT)) is None
        resp = TcpPacket("srv-1", 8080, "C1", 12345)
        assert nat.translate_out(resp) is None

    def test_remove_missing_is_noop(self):
        NatTable().remove(CLIENT)

    def test_port_reuse_after_removal(self):
        nat = NatTable()
        nat.install(CLIENT, "srv-1", 8080, now=0.0)
        nat.remove(CLIENT)
        nat.install(CLIENT, "srv-2", 9090, now=1.0)
        out = nat.translate_in(TcpPacket(*CLIENT))
        assert (out.dst_ip, out.dst_port) == ("srv-2", 9090)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["C1", "C2", "C3"]),
                st.integers(min_value=1024, max_value=2048),
                st.sampled_from(["srv-1", "srv-2"]),
            ),
            max_size=40,
            unique_by=lambda t: (t[0], t[1]),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_identity_property(self, flows):
        """in-translate then out-translate always restores the virtual
        endpoint for every installed flow."""
        nat = NatTable()
        for client_ip, port, server in flows:
            tup = (client_ip, port, "10.0.0.1", 80)
            nat.install(tup, server, 8080, now=0.0)
        for client_ip, port, server in flows:
            fwd = nat.translate_in(
                TcpPacket(client_ip, port, "10.0.0.1", 80, flags=TcpFlags.SYN)
            )
            assert (fwd.dst_ip, fwd.dst_port) == (server, 8080)
            back = nat.translate_out(
                TcpPacket(server, 8080, client_ip, port, flags=TcpFlags.ACK)
            )
            assert (back.src_ip, back.src_port) == ("10.0.0.1", 80)


class TestArenaNatTable:
    """The production table: slot install/remove with slot recycling."""

    def test_install_translate_remove(self):
        nat = ArenaNatTable()
        slot = nat.install_slot(CLIENT, "srv-1", 8080)
        assert nat.live == {CLIENT: slot} and len(nat) == 1
        # The client tuple translates to the chosen server's address.
        assert (nat._server_ip[slot], nat._server_port[slot]) == ("srv-1", 8080)
        assert nat.remove(CLIENT)
        assert len(nat) == 0 and CLIENT not in nat.live
        assert not nat.remove(CLIENT)

    def test_duplicate_install_rejected(self):
        nat = ArenaNatTable()
        nat.install_slot(CLIENT, "srv-1", 8080)
        with pytest.raises(ValueError):
            nat.install_slot(CLIENT, "srv-2", 8080)

    def test_slot_reuse_after_remove(self):
        nat = ArenaNatTable()
        s0 = nat.install_slot(CLIENT, "srv-1", 8080)
        nat.remove(CLIENT)
        other = ("C2", 999, "10.0.0.1", 80)
        assert nat.install_slot(other, "srv-2", 9090) == s0
        assert (nat._server_ip[s0], nat._server_port[s0]) == ("srv-2", 9090)

    def test_scalar_vs_arena_parity_10k_flows(self):
        """After 10k mixed install/remove operations driven by one
        deterministic schedule, the slotted table and the oracle's dict
        table hold the same live mappings; neither table rewrites a
        response by itself (the switch counts those)."""
        scalar, arena = NatTable(), ArenaNatTable()
        live = []
        removed = 0
        for i in range(10_000):
            client = f"C{i % 7}"
            port = 10_000 + i
            tup = (client, port, "10.0.0.1", 80)
            server = f"srv-{i % 3}"
            scalar.install(tup, server, 8080, now=i * 1e-3)
            arena.install_slot(tup, server, 8080)
            live.append(tup)
            if i % 3 == 0:
                victim = live.pop(removed % len(live))
                removed += 1
                assert bool(scalar.remove(victim)) == arena.remove(victim)
            assert not arena.remove(("C9", 1, "10.0.0.1", 80))
        assert len(scalar) == len(arena) == len(live)
        assert set(scalar.live) == set(arena.live) == set(live)
        assert scalar.rewrites_out == arena.rewrites_out
        for tup in live:
            slot = arena.live[tup]
            assert scalar.lookup(tup).server == (
                arena._server_ip[slot], arena._server_port[slot])
