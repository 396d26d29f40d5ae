"""Shard-scaling benchmark: one scenario spread across worker processes.

The sharded lane partitions a fig6-shaped world's clusters across R
worker processes that synchronize only at window boundaries (window-epoch
barrier, one combining-tree merge + LP solve per window in the parent).
This bench drives a 64-cluster world with ~28M admitted requests through
shards=1 (inline reference) and shards=8 on the zero-copy shared-memory
seqlock plane, and records the wall-clock curve plus the per-epoch byte
accounting into ``benchmarks/BENCH_core.json``.  ``bytes_per_epoch`` is
the parent-handled data-plane traffic per window: copied float64 columns
+ sequence words (the deferred checkpoint ring is reported separately as
``ring_bytes_per_epoch`` — it never crosses to the parent in steady
state, which is the point).

The >=3x speedup floor only means anything when 8 workers can actually
run concurrently, so the assertion is gated on the affinity mask:
single-digit-core CI boxes and 1-core containers record the honest curve
(with the core count in the meta) and skip the floor.  Digest parity —
``shards=1`` bit-identical to ``shards=R`` — is asserted here too, on a
small world, so the perf numbers can never come from diverging work.
"""

import os
import time

from repro.experiments.benchrecord import record_bench
from repro.experiments.sharded import run_sharded

BENCH_PATH = os.path.join(os.path.dirname(__file__), "BENCH_core.json")

# fig6 x1000 load over 32 replicas: 64 clusters, 96 clients, ~28M
# admitted requests across 30 window epochs.  Heavy per-epoch columns
# keep the barrier cost a small fraction of each window.
REPLICAS = 32
LOAD_SCALE = 1000.0
DURATION_SCALE = 0.01
SEED = 3
SHARDS = 8
SPEEDUP_FLOOR = 3.0


def _cores() -> int:
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0))
        except OSError:
            pass
    return max(1, os.cpu_count() or 1)


def _run(shards: int):
    return run_sharded(
        "fig6", duration_scale=DURATION_SCALE, seed=SEED, shards=shards,
        replicas=REPLICAS, load_scale=LOAD_SCALE,
    )


def _admitted(result) -> int:
    return int(sum(float(a.sum()) for per in result.admitted.values()
                   for a in per.values()))


def _best_of(fn, reps=3):
    """Best-of-N wall-clock (best, not median: scheduling noise only ever
    adds time) plus the last run's return value."""
    best = float("inf")
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _plane_meta(res) -> dict:
    """The data-plane breakdown every sharded entry records."""
    return {
        "data_plane": res.data_plane,
        "bytes_per_epoch": res.bytes_per_epoch,
        "ring_bytes_per_epoch": res.ring_bytes_per_epoch,
        "barrier_polls": res.barrier_polls,
        "plane_polls": res.plane_polls,
        "plane_wait_ms": round(res.plane_wait_s * 1000.0, 1),
    }


def test_shard_parity_smoke():
    """Digest parity on a small world: perf never buys divergence."""
    digests = {
        shards: run_sharded("fig6", duration_scale=0.02, seed=0,
                            shards=shards, replicas=4).digest()
        for shards in (1, 2, 4)
    }
    assert len(set(digests.values())) == 1, digests


def test_shard_scaling_serial(benchmark):
    """Inline reference: the whole world stepped in the parent process."""
    res = benchmark.pedantic(lambda: _run(1), rounds=3, iterations=1)
    admitted = _admitted(res)
    median_s = benchmark.stats.stats.median
    record_bench(
        "shard_scaling_1", median_s * 1000.0,
        meta={"admitted": admitted, "clusters": len(res.clusters),
              "windows": res.n_windows,
              "reqs_per_s": round(admitted / median_s)},
        path=BENCH_PATH,
    )


def test_shard_scaling_sharded(benchmark):
    """Same world across 8 worker processes, shared-memory data plane.

    ``plane_wait_ms`` in the meta is the parent's idle time: seqlock-poll
    sleep while workers simulate the window.
    """
    res = benchmark.pedantic(lambda: _run(SHARDS), rounds=3, iterations=1)
    assert res.shards == SHARDS
    admitted = _admitted(res)
    median_s = benchmark.stats.stats.median
    meta = {"admitted": admitted, "clusters": len(res.clusters),
            "windows": res.n_windows, "cores": _cores(),
            "reqs_per_s": round(admitted / median_s)}
    meta.update(_plane_meta(res))
    record_bench("shard_scaling_8", median_s * 1000.0, meta=meta,
                 path=BENCH_PATH)


def test_shard_scaling_speedup():
    """Record the scaling curve; enforce >=3x only with >=8 usable cores."""
    t_1, res_1 = _best_of(lambda: _run(1))
    t_r, res_r = _best_of(lambda: _run(SHARDS))
    assert res_1.digest() == res_r.digest(), "sharded run diverged"
    cores = _cores()
    speedup = t_1 / t_r
    meta = {"speedup_x": round(speedup, 2), "cores": cores,
            "shards": SHARDS, "admitted": _admitted(res_r),
            "serial_s": round(t_1, 3), "sharded_s": round(t_r, 3),
            "data_plane": res_r.data_plane,
            "bytes_per_epoch": res_r.bytes_per_epoch}
    if res_r.transport_fallback is not None:   # platform without POSIX shm
        meta["transport_fallback"] = res_r.transport_fallback
    record_bench("shard_scaling_speedup", t_r * 1000.0, meta=meta,
                 path=BENCH_PATH)
    if cores >= SHARDS:
        assert speedup >= SPEEDUP_FLOOR, (
            f"{SHARDS} shards on {cores} cores: {speedup:.2f}x "
            f"(< {SPEEDUP_FLOOR:.0f}x floor)"
        )
