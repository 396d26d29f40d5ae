"""Shared-memory data plane: layout, epoch stamps, codec round-trips.

The plane's contract has two halves.  *Correctness*: every value read out
of a slot is bit-identical to what the writer published — demand/admitted
columns as float64, checkpoints through the fixed binary record — and a
slot stamped with another epoch is never read as this one.  (Ordering
the writer's stores before the reader's loads is the control pipe's job,
tested end to end in ``tests/experiments/test_sharded.py``.)
*Economics*: the layout arithmetic in ``segment_nbytes`` and the
per-epoch byte accounting must match the actual views, since the bench
reports those numbers.
"""

import numpy as np
import pytest

from repro.coordination.aggregation import StreamStats
from repro.coordination.checkpoint import ClusterCheckpoint, record_words
from repro.coordination.shm import PlaneSpec, ShmDataPlane
from repro.sim.rng import RngStreams

PRINCIPALS = ("A", "B")


def make_checkpoint(draws=7, clock=1.5):
    rng = RngStreams(0).get("cluster:R1")
    rng.random(draws)
    stats = StreamStats()
    for x in (0.25, 2.0):
        stats.observe(x)
    return ClusterCheckpoint(
        rng_state=rng.bit_generator.state,
        carry={"A": 0.5, "B": 0.125},
        response=stats,
        clock=clock,
    )


@pytest.fixture
def plane():
    p = ShmDataPlane.create(
        clusters=["R1[0]", "R1[1]", "R2[0]", "R2[1]"],
        principals=PRINCIPALS, shards=2, depth=2,
    )
    yield p
    p.close()
    p.unlink()


def publish(plane, shard, epoch, names, value, ck=None):
    """Publish ``names`` with demand (value, value + 0.5), admitted twice that."""
    ck = ck if ck is not None else make_checkpoint()
    demand = np.array([[value, value + 0.5]] * len(names))
    plane.publish(shard, epoch, [plane.index[n] for n in names],
                  demand, 2 * demand, [ck] * len(names))


def blank(plane):
    """A C×P destination pair; NaN marks rows never copied."""
    shape = (len(plane.spec.clusters), len(PRINCIPALS))
    return np.full(shape, np.nan), np.full(shape, np.nan)


def read(plane, shard, epoch, names):
    """``names``' (demand, admitted) rows, or None if the slot holds another
    epoch (then nothing at all was copied)."""
    demand, admitted = blank(plane)
    rows = [plane.index[n] for n in names]
    if not plane.read_rows(shard, epoch, rows, demand, admitted):
        assert np.isnan(demand).all() and np.isnan(admitted).all()
        return None
    return {n: (demand[i], admitted[i]) for n, i in zip(names, rows)}


class TestLayout:
    def test_segment_nbytes_matches_constructed_views(self, plane):
        C, P = 4, len(PRINCIPALS)
        assert plane.segment_bytes == \
            ShmDataPlane.segment_nbytes(C, P, shards=2, depth=2)
        # shards*depth*(stamp word + C*(2P cols + record)) in words.
        expected = 2 * 2 * (1 + C * (2 * P + record_words(P)))
        assert plane.segment_bytes == 8 * expected

    def test_byte_accounting(self, plane):
        C, P = 4, len(PRINCIPALS)
        assert plane.boundary_bytes_per_epoch == 8 * C * 2 * P
        assert plane.ring_bytes_per_epoch == 8 * C * record_words(P)

    def test_depth_below_two_rejected(self, plane):
        bad = PlaneSpec(name="x", clusters=("a",), principals=PRINCIPALS,
                        shards=1, depth=1)
        with pytest.raises(ValueError, match="depth"):
            ShmDataPlane(bad, plane._shm, owner=False)


class TestBoundarySlots:
    def test_publish_then_read_is_bit_exact(self, plane):
        names = ["R1[0]", "R2[0]"]
        publish(plane, 0, 5, names, 1.25)
        demand, admitted = blank(plane)
        rows = [plane.index[n] for n in names]
        assert plane.read_rows(0, 5, rows, demand, admitted)
        assert list(demand[rows[0]]) == [1.25, 1.75]
        assert list(admitted[rows[0]]) == [2.5, 3.5]
        # Only the named rows are written, and they are copies: the
        # slot's next publication does not reach them.
        assert np.isnan(demand[plane.index["R1[1]"]]).all()
        publish(plane, 0, 5, names, 9.0)
        assert list(demand[rows[1]]) == [1.25, 1.75]

    def test_unpublished_epoch_reads_none(self, plane):
        assert read(plane, 0, 0, ["R1[0]"]) is None
        publish(plane, 0, 0, ["R1[0]"], 1.0)
        assert read(plane, 0, 2, ["R1[0]"]) is None  # same slot

    def test_partial_publish_preserves_other_rows(self, plane):
        # A reassignment survivor republishes only adopted rows; its own
        # earlier writes in the same slot must survive.
        publish(plane, 0, 0, ["R1[0]"], 1.0)
        publish(plane, 0, 0, ["R2[0]"], 9.0)
        rows = read(plane, 0, 0, ["R1[0]", "R2[0]"])
        assert list(rows["R1[0]"][0]) == [1.0, 1.5]
        assert list(rows["R2[0]"][0]) == [9.0, 9.5]

    def test_shards_have_independent_rings(self, plane):
        publish(plane, 0, 0, ["R1[0]"], 1.0)
        assert read(plane, 1, 0, ["R1[0]"]) is None


class TestCheckpointRing:
    def test_ring_round_trip_preserves_digest(self, plane):
        ck = make_checkpoint(draws=13)
        publish(plane, 0, 2, ["R1[0]"], 0.0, ck)
        publish(plane, 1, 2, ["R2[1]"], 0.0, ck)
        out = plane.read_checkpoints(2, {"R1[0]": 0, "R2[1]": 1})
        assert out["R1[0]"].digest() == ck.digest()
        assert out["R2[1]"].digest() == ck.digest()

    def test_wrong_epoch_in_slot_is_an_error(self, plane):
        publish(plane, 0, 0, ["R1[0]"], 0.0)
        with pytest.raises(RuntimeError, match="checkpoint ring"):
            plane.read_checkpoints(2, {"R1[0]": 0})     # slot holds epoch 0


class TestAttach:
    def test_worker_view_shares_the_owner_segment(self, plane):
        worker = ShmDataPlane.attach(plane.spec)
        try:
            publish(worker, 1, 0, ["R1[1]"], 3.0)
            rows = read(plane, 1, 0, ["R1[1]"])
            assert rows is not None and list(rows["R1[1]"][0]) == [3.0, 3.5]
        finally:
            worker.close()                              # owner still unlinks
