"""Integration tests for the real asyncio L7 stack on localhost."""

import asyncio
import time

import pytest

from repro.core.access import compute_access_levels
from repro.core.agreements import Agreement, AgreementGraph
from repro.l7.asyncio_client import AsyncLoadGenerator, fetch_once
from repro.l7.asyncio_origin import OriginServer, principal_from_path
from repro.l7.asyncio_redirector import AsyncCombiner, AsyncRedirector
from repro.scheduling.window import WindowConfig


def _access(capacity=200.0, a=0.2, b=0.8):
    g = AgreementGraph()
    g.add_principal("S", capacity=capacity)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("S", "A", a, 1.0))
    g.add_agreement(Agreement("S", "B", b, 1.0))
    return compute_access_levels(g)


def _run(coro):
    return asyncio.run(coro)


class TestPrincipalFromPath:
    def test_valid(self):
        assert principal_from_path("/svc/A/page") == "A"
        assert principal_from_path("/svc/org-1/deep/path?q=1") == "org-1"

    def test_invalid(self):
        assert principal_from_path("/other/A") is None
        assert principal_from_path("/svc/") is None
        assert principal_from_path("/") is None


class TestOriginServer:
    def test_serves_and_counts(self):
        async def body():
            origin = OriginServer("S1", capacity=500.0)
            await origin.start()
            status, served_by = await fetch_once(*origin.address, "/svc/A/x")
            await origin.stop()
            return status, served_by, dict(origin.completed)

        status, served_by, completed = _run(body())
        assert status == 200
        assert served_by == "S1"
        assert completed == {"A": 1}

    def test_capacity_limits_rate(self):
        async def body():
            origin = OriginServer("S1", capacity=50.0)
            await origin.start()
            import time

            t0 = time.monotonic()
            await asyncio.gather(
                *[fetch_once(*origin.address, "/svc/A/x") for _ in range(40)]
            )
            elapsed = time.monotonic() - t0
            await origin.stop()
            return elapsed

        elapsed = _run(body())
        # 40 requests through a 50/s bucket (burst ~2.5) needs >= ~0.6 s.
        assert elapsed >= 0.5


class TestRedirection:
    def test_redirects_to_backend(self):
        async def body():
            acc = _access()
            origin = OriginServer("S1", capacity=1000.0)
            await origin.start()
            red = AsyncRedirector("R1", acc, backends={"S": [origin.address]})
            await red.start()
            # Give the window loop one cycle to install quotas.
            await asyncio.sleep(0.3)
            # Warm the demand estimate so a quota exists, then fetch.
            results = []
            for _ in range(10):
                results.append(await fetch_once(*red.address, "/svc/B/x"))
                await asyncio.sleep(0.02)
            await red.stop()
            await origin.stop()
            return results, origin.total_completed()

        results, completed = _run(body())
        assert any(status == 200 for status, _ in results)
        assert completed >= 1

    def test_unknown_principal_404(self):
        async def body():
            acc = _access()
            red = AsyncRedirector("R1", acc, backends={})
            await red.start()
            status, _ = await fetch_once(*red.address, "/nonsense")
            await red.stop()
            return status

        assert _run(body()) == 404

    def test_share_enforcement_under_overload(self):
        async def body():
            acc = _access(capacity=150.0, a=0.2, b=0.8)
            origin = OriginServer("S1", capacity=150.0)
            await origin.start()
            red = AsyncRedirector("R1", acc, backends={"S": [origin.address]})
            await red.start()
            ga = AsyncLoadGenerator("A", red.address, rate=200.0, concurrency=64)
            gb = AsyncLoadGenerator("B", red.address, rate=100.0, concurrency=64)
            ra, rb = await asyncio.gather(ga.run(3.0), gb.run(3.0))
            await red.stop()
            await origin.stop()
            return ra, rb, red

        ra, rb, red = _run(body())
        # Every completion went through one of the redirector's decisions.
        for p, r in (("A", ra), ("B", rb)):
            assert red.admitted[p] + red.self_redirects[p] >= r["completed"]
        # B's demand (100/s) is under its guarantee (120/s): served ~fully.
        assert rb["rate"] == pytest.approx(100.0, rel=0.2)
        # A is squeezed to roughly the remainder, far below its demand.
        assert ra["rate"] < 90.0


class TestProviderMode:
    def test_provider_mode_prefers_high_payer(self):
        async def body():
            from repro.core.agreements import Agreement, AgreementGraph
            from repro.core.access import compute_access_levels

            g = AgreementGraph()
            g.add_principal("P", capacity=120.0)
            g.add_principal("A")
            g.add_principal("B")
            g.add_agreement(Agreement("P", "A", 0.5, 1.0))
            g.add_agreement(Agreement("P", "B", 0.1, 1.0))
            acc = compute_access_levels(g)
            origin = OriginServer("S1", capacity=120.0)
            await origin.start()
            red = AsyncRedirector(
                "R1", acc, backends={"P": [origin.address]},
                mode="provider", prices={"A": 3.0, "B": 1.0},
            )
            await red.start()
            ga = AsyncLoadGenerator("A", red.address, rate=120.0, concurrency=48)
            gb = AsyncLoadGenerator("B", red.address, rate=120.0, concurrency=48)
            ra, rb = await asyncio.gather(ga.run(3.0), gb.run(3.0))
            await red.stop()
            await origin.stop()
            return ra, rb

        ra, rb = _run(body())
        # A pays more: it is served clearly above B despite equal offered
        # load, and B still sees at least its mandatory floor (12 req/s).
        assert ra["rate"] > 1.5 * rb["rate"]
        assert rb["rate"] >= 10.0


class TestFetchOnce:
    def test_redirect_loop_capped(self):
        """A redirector that always self-redirects must not loop forever."""
        async def body():
            acc = _access()
            red = AsyncRedirector("R1", acc, backends={})  # no backends at all
            await red.start()
            # With no quota installed yet every request self-redirects.
            status, _ = await fetch_once(*red.address, "/svc/A/x",
                                         max_redirects=3, retry_cap=0.01)
            await red.stop()
            return status

        assert _run(body()) == -2   # loop budget exhausted, surfaced

    def test_read_timeout_bounds_a_silent_server(self):
        """A server that accepts and never answers must cost at most the
        read timeout per attempt, then surface a timeout."""
        async def body():
            async def mute(reader, writer):
                await asyncio.sleep(10.0)      # never respond

            server = await asyncio.start_server(mute, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            t0 = time.monotonic()
            with pytest.raises(asyncio.TimeoutError):
                await fetch_once(
                    "127.0.0.1", port, "/svc/A/x",
                    read_timeout=0.1, retries=1, retry_backoff=0.01,
                )
            elapsed = time.monotonic() - t0
            server.close()
            await server.wait_closed()
            return elapsed

        elapsed = _run(body())
        # Two bounded attempts + one short backoff, not a 10 s hang.
        assert elapsed < 2.0

    def test_connect_refused_retries_then_surfaces(self):
        async def body():
            # Grab a port and close it so connections are refused.
            server = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            with pytest.raises(OSError):
                await fetch_once(
                    "127.0.0.1", port, "/svc/A/x",
                    retries=2, retry_backoff=0.01,
                )

        _run(body())

    def test_generator_counts_timeouts(self):
        async def body():
            async def mute(reader, writer):
                await asyncio.sleep(10.0)

            server = await asyncio.start_server(mute, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            gen = AsyncLoadGenerator(
                "A", ("127.0.0.1", port), rate=50.0, concurrency=4,
                read_timeout=0.05, retries=0,
            )
            stats = await gen.run(duration=0.4)
            server.close()
            await server.wait_closed()
            return gen, stats

        gen, stats = _run(body())
        assert stats["completed"] == 0
        assert gen.timeouts > 0
        assert gen.errors == gen.timeouts


class TestCombiner:
    def test_root_and_child_views_converge(self):
        async def body():
            root = AsyncCombiner("root", lambda: {"A": 1.0}, period=0.05)
            await root.start()
            child = AsyncCombiner(
                "child", lambda: {"A": 2.0, "B": 3.0}, period=0.05,
                root_addr=("127.0.0.1", root.port),
            )
            await child.start()
            await asyncio.sleep(0.6)
            rv = root.view.aggregate.values if root.view.aggregate else {}
            cv = child.view.aggregate.values if child.view.aggregate else {}
            await child.stop()
            await root.stop()
            return rv, cv

        rv, cv = _run(body())
        assert rv.get("A") == pytest.approx(3.0)
        assert rv.get("B") == pytest.approx(3.0)
        assert cv.get("A") == pytest.approx(3.0)

    def test_child_records_local_contribution(self):
        async def body():
            root = AsyncCombiner("root", lambda: {}, period=0.05)
            await root.start()
            child = AsyncCombiner(
                "child", lambda: {"A": 5.0}, period=0.05,
                root_addr=("127.0.0.1", root.port),
            )
            await child.start()
            await asyncio.sleep(0.5)
            contrib = child.view.local_contribution
            await child.stop()
            await root.stop()
            return contrib.values if contrib else {}

        contrib = _run(body())
        assert contrib.get("A") == pytest.approx(5.0)
