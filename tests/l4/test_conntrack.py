import pytest

from repro.l4.conntrack import ArenaConnTracker
from tests.l4.packet_oracle import ConnTracker

TUP = ("C1", 12345, "10.0.0.1", 80)


class TestConnectionLifecycle:
    def test_open_lookup_close(self):
        ct = ConnTracker()
        conn = ct.open(TUP, server="srv-1", principal="A", now=0.0)
        assert ct.lookup(TUP) is conn
        ct.close(TUP)
        assert ct.lookup(TUP) is None
        assert conn.closed

    def test_touch_updates(self):
        ct = ConnTracker()
        ct.open(TUP, "srv-1", "A", now=0.0)
        conn = ct.touch(TUP, now=5.0)
        assert conn.last_seen == 5.0
        assert conn.packets == 2

    def test_touch_unknown(self):
        assert ConnTracker().touch(TUP, now=0.0) is None

    def test_expire_idle(self):
        ct = ConnTracker(idle_timeout=10.0)
        ct.open(TUP, "srv-1", "A", now=0.0)
        other = ("C2", 999, "10.0.0.1", 80)
        ct.open(other, "srv-1", "A", now=0.0)
        ct.touch(other, now=25.0)
        assert ct.expire(now=30.0) == 1
        assert ct.lookup(TUP) is None
        assert ct.lookup(other) is not None
        assert ct.expired == 1

    def test_len(self):
        ct = ConnTracker()
        ct.open(TUP, "srv-1", "A", now=0.0)
        assert len(ct) == 1

    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            ConnTracker(idle_timeout=0.0)


class TestAffinity:
    def test_remembers_last_server(self):
        ct = ConnTracker()
        ct.open(TUP, "srv-1", "A", now=0.0)
        assert ct.preferred_server("C1", "A") == "srv-1"

    def test_affinity_is_per_principal(self):
        ct = ConnTracker()
        ct.open(TUP, "srv-1", "A", now=0.0)
        assert ct.preferred_server("C1", "B") is None

    def test_affinity_updates_on_new_connection(self):
        ct = ConnTracker()
        ct.open(TUP, "srv-1", "A", now=0.0)
        ct.open(("C1", 22222, "10.0.0.1", 80), "srv-2", "A", now=1.0)
        assert ct.preferred_server("C1", "A") == "srv-2"

    def test_affinity_survives_connection_close(self):
        # SSL-session-style affinity persists beyond individual connections.
        ct = ConnTracker()
        ct.open(TUP, "srv-1", "A", now=0.0)
        ct.close(TUP)
        assert ct.preferred_server("C1", "A") == "srv-1"

    def test_forget_affinity(self):
        ct = ConnTracker()
        ct.open(TUP, "srv-1", "A", now=0.0)
        ct.forget_affinity("C1", "A")
        assert ct.preferred_server("C1", "A") is None


@pytest.fixture(params=[ConnTracker, ArenaConnTracker],
                ids=["scalar", "arena"])
def tracker_cls(request):
    return request.param


def _open(ct, tup, server, principal, now):
    """The oracle opens through ``open``, the production tracker through
    ``open_slot``; everything else in this class is one shared API."""
    (ct.open_slot if isinstance(ct, ArenaConnTracker) else ct.open)(
        tup, server, principal, now)


class TestTrackerApiParity:
    """The production tracker and the oracle's agree on every call the
    switch makes: open, close, len, live, expire_stale and affinity."""

    def test_open_lookup_close(self, tracker_cls):
        ct = tracker_cls()
        _open(ct, TUP, "srv-1", "A", 0.0)
        assert TUP in ct.live and len(ct) == 1
        assert ct.close(TUP)
        assert TUP not in ct.live and len(ct) == 0

    def test_close_unknown_is_falsy(self, tracker_cls):
        assert not tracker_cls().close(TUP)

    def test_expiry_and_affinity(self, tracker_cls):
        ct = tracker_cls(idle_timeout=10.0)
        _open(ct, TUP, "srv-1", "A", 0.0)
        other = ("C2", 999, "10.0.0.1", 80)
        _open(ct, other, "srv-2", "A", 25.0)
        assert ct.expire_stale(now=30.0) == [TUP]
        assert ct.expired == 1
        assert list(ct.live) == [other]
        assert ct.preferred_server("C1", "A") == "srv-1"
        assert ct.preferred_server("C2", "A") == "srv-2"

    def test_bad_timeout(self, tracker_cls):
        with pytest.raises(ValueError):
            tracker_cls(idle_timeout=0.0)


class TestArenaRing:
    """Arena-specific structure: slot recycling and the expiry ring."""

    def test_slot_reuse_after_close(self):
        ct = ArenaConnTracker()
        s0 = ct.open_slot(TUP, "srv-1", "A", now=0.0)
        ct.close(TUP)
        other = ("C2", 999, "10.0.0.1", 80)
        assert ct.open_slot(other, "srv-2", "A", now=1.0) == s0
        assert ct.live[other] == s0 and ct._servers[s0] == "srv-2"

    def test_ring_orders_by_last_seen(self):
        # A closed flow leaves the ring and its slot is reused at the
        # tail: expiry still returns flows in last-seen order.
        ct = ArenaConnTracker(idle_timeout=10.0)
        tups = [("C1", 1000 + i, "10.0.0.1", 80) for i in range(4)]
        for i, t in enumerate(tups[:3]):
            ct.open_slot(t, "srv-1", "A", now=float(i))
        ct.close(tups[0])
        ct.open_slot(tups[3], "srv-1", "A", now=3.0)
        assert ct.live[tups[3]] == 0
        assert ct.expire_stale(now=20.0) == [tups[1], tups[2], tups[3]]

    def test_expire_walks_only_the_stale_prefix(self):
        # The ring is last-seen ordered, so the sweep must stop at the
        # first fresh entry instead of scanning every live flow.
        ct = ArenaConnTracker(idle_timeout=10.0)
        tups = [("C1", 1000 + i, "10.0.0.1", 80) for i in range(5)]
        for i, t in enumerate(tups):
            ct.open_slot(t, "srv-1", "A", now=float(i))
        # Stale by its own clock but behind a fresh flow: a full-table scan
        # would expire it, the ring walk never reaches it.
        ct._last_seen[ct.live[tups[4]]] = -100.0
        stale = ct.expire_stale(now=12.5)
        assert stale == [tups[0], tups[1], tups[2]]
        assert list(ct.live) == [tups[3], tups[4]]
        assert len(ct) == 2

    def test_expired_slots_are_recycled(self):
        ct = ArenaConnTracker(idle_timeout=1.0)
        ct.open_slot(TUP, "srv-1", "A", now=0.0)
        ct.expire_stale(now=5.0)
        other = ("C2", 999, "10.0.0.1", 80)
        ct.open_slot(other, "srv-2", "A", now=6.0)
        # Arena did not grow: the expired slot was reused.
        assert len(ct._tuples) == 1

    def test_interleaved_churn_keeps_index_consistent(self):
        ct = ArenaConnTracker(idle_timeout=30.0)
        live = {}
        for i in range(500):
            tup = ("C1", 10_000 + i, "10.0.0.1", 80)
            ct.open_slot(tup, f"srv-{i % 3}", "A", now=float(i))
            live[tup] = f"srv-{i % 3}"
            if i % 3 == 0:
                victim = ("C1", 10_000 + i // 2, "10.0.0.1", 80)
                if victim in live:
                    ct.close(victim)
                    del live[victim]
        assert len(ct) == len(live)
        for tup, server in live.items():
            assert ct._servers[ct.live[tup]] == server
        stale = ct.expire_stale(now=600.0)
        assert sorted(stale) == sorted(live)
        assert len(ct) == 0
