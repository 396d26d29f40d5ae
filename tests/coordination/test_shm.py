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


def boundary_for(names, value, ck=None):
    ck = ck if ck is not None else make_checkpoint()
    vec = [value, value + 0.5]
    return {n: (list(vec), [v * 2 for v in vec], ck) for n in names}


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
        plane.publish(0, epoch=5, boundary=boundary_for(names, 1.25))
        rows = plane.read_boundary(0, 5, names)
        assert rows is not None
        d, a = rows["R1[0]"]
        assert list(d) == [1.25, 1.75] and list(a) == [2.5, 3.5]

    def test_unpublished_epoch_reads_none(self, plane):
        assert plane.read_boundary(0, 0, ["R1[0]"]) is None
        plane.publish(0, epoch=0, boundary=boundary_for(["R1[0]"], 1.0))
        assert plane.read_boundary(0, 2, ["R1[0]"]) is None  # same slot

    def test_partial_publish_preserves_other_rows(self, plane):
        # A reassignment survivor republishes only adopted rows; its own
        # earlier writes in the same slot must survive.
        plane.publish(0, epoch=0, boundary=boundary_for(["R1[0]"], 1.0))
        plane.publish(0, epoch=0, boundary=boundary_for(["R2[0]"], 9.0))
        rows = plane.read_boundary(0, 0, ["R1[0]", "R2[0]"])
        assert list(rows["R1[0]"][0]) == [1.0, 1.5]
        assert list(rows["R2[0]"][0]) == [9.0, 9.5]

    def test_shards_have_independent_rings(self, plane):
        plane.publish(0, epoch=0, boundary=boundary_for(["R1[0]"], 1.0))
        assert plane.read_boundary(1, 0, ["R1[0]"]) is None


class TestCheckpointRing:
    def test_ring_round_trip_preserves_digest(self, plane):
        ck = make_checkpoint(draws=13)
        plane.publish(0, epoch=2, boundary=boundary_for(["R1[0]"], 0.0, ck))
        plane.publish(1, epoch=2, boundary=boundary_for(["R2[1]"], 0.0, ck))
        out = plane.read_checkpoints(2, {"R1[0]": 0, "R2[1]": 1})
        assert out["R1[0]"].digest() == ck.digest()
        assert out["R2[1]"].digest() == ck.digest()

    def test_wrong_epoch_in_slot_is_an_error(self, plane):
        plane.publish(0, epoch=0, boundary=boundary_for(["R1[0]"], 0.0))
        with pytest.raises(RuntimeError, match="checkpoint ring"):
            plane.read_checkpoints(2, {"R1[0]": 0})     # slot holds epoch 0


class TestAttach:
    def test_worker_view_shares_the_owner_segment(self, plane):
        worker = ShmDataPlane.attach(plane.spec)
        try:
            worker.publish(1, epoch=0, boundary=boundary_for(["R1[1]"], 3.0))
            rows = plane.read_boundary(1, 0, ["R1[1]"])
            assert rows is not None and list(rows["R1[1]"][0]) == [3.0, 3.5]
        finally:
            worker.close()                              # owner still unlinks
