import pytest

from repro.cluster.request import Request
from repro.l4.packets import FlowRecord
from tests.l4.packet_oracle import TcpFlags, TcpPacket


def _syn():
    req = Request(principal="A", client_id="C1", created_at=0.0)
    return TcpPacket(
        src_ip="C1", src_port=12345, dst_ip="10.0.0.1", dst_port=80,
        flags=TcpFlags.SYN, request=req,
    )


class TestTcpPacket:
    def test_is_syn(self):
        assert _syn().is_syn

    def test_syn_ack_is_not_connection_request(self):
        p = TcpPacket("s", 80, "c", 1000, flags=TcpFlags.SYN | TcpFlags.ACK)
        assert not p.is_syn

    def test_four_tuple_and_reverse(self):
        p = _syn()
        assert p.four_tuple == ("C1", 12345, "10.0.0.1", 80)
        assert p.reverse_tuple == ("10.0.0.1", 80, "C1", 12345)

    def test_rewritten_destination(self):
        p = _syn().rewritten("server-1", 8080)
        assert p.dst_ip == "server-1"
        assert p.dst_port == 8080
        assert p.src_ip == "C1"          # untouched
        assert p.request is not None     # payload rides along

    def test_rewritten_source(self):
        p = TcpPacket("server-1", 8080, "C1", 12345, flags=TcpFlags.ACK)
        out = p.rewritten_source("10.0.0.1", 80)
        assert out.src_ip == "10.0.0.1"
        assert out.src_port == 80

    def test_invalid_ports(self):
        with pytest.raises(ValueError):
            TcpPacket("a", 0, "b", 80)
        with pytest.raises(ValueError):
            TcpPacket("a", 80, "b", 65536)

    def test_negative_payload(self):
        with pytest.raises(ValueError):
            TcpPacket("a", 1, "b", 2, payload_bytes=-1)

    def test_unique_packet_ids(self):
        assert _syn().packet_id != _syn().packet_id

    def test_flags_composable(self):
        f = TcpFlags.SYN | TcpFlags.ACK
        assert f & TcpFlags.SYN
        assert not (f & TcpFlags.FIN)


class _SwitchSpy:
    def __init__(self):
        self.responses = []

    def _on_response_flow(self, flow, request):
        self.responses.append((flow, request))


class TestFlowRecord:
    """The switch's whole-flow record: one slotted object instead of a
    SYN + payload + response packet chain."""

    TUP = ("C1", 12345, "10.0.0.1", 80)

    def _flow(self, switch=None):
        req = Request(principal="A", client_id="C1", created_at=0.0,
                      size_bytes=4096)
        return req, FlowRecord(switch or _SwitchSpy(), req, None, self.TUP)

    def test_principal_comes_from_the_request(self):
        _, flow = self._flow()
        assert flow.principal == "A"

    def test_unassigned_until_admitted(self):
        _, flow = self._flow()
        assert flow.server is None
        assert flow.response_bytes == 0

    def test_record_is_the_completion_callback(self):
        # The server calls ``done(request)``; the record *is* ``done`` —
        # no per-admission closure is allocated.
        spy = _SwitchSpy()
        req, flow = self._flow(spy)
        flow(req)
        assert spy.responses == [(flow, req)]

    def test_no_instance_dict(self):
        _, flow = self._flow()
        with pytest.raises(AttributeError):
            flow.arbitrary_attribute = 1
