"""Checkpoints and recovery policy: the self-healing substrate.

The recovery contract rests on two properties tested here in isolation:
a :class:`ClusterCheckpoint` restores the exact RNG draw position it
captured, and it round-trips bit-exactly through the fixed binary record
form the shared-memory ring stores (including the Philox bit-generator
state), so the content digest of a restored checkpoint names the same
state.  Digests are computed lazily and cached.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coordination.aggregation import StreamStats
from repro.coordination.checkpoint import (
    RECORD_BASE_WORDS,
    ClusterCheckpoint,
    RecoveryPolicy,
    epoch_digest,
    pack_checkpoint,
    record_words,
    unpack_checkpoint,
)
from repro.sim.rng import RngStreams


def make_checkpoint(seed=0, draws=17, clock=3.25):
    rng = RngStreams(seed).get("cluster:R1")
    rng.random(draws)
    stats = StreamStats()
    for x in (0.5, 1.5, 9.0):
        stats.observe(x)
    return ClusterCheckpoint(
        rng_state=rng.bit_generator.state,
        carry={"A": 0.125, "B": 0.75},
        response=stats,
        clock=clock,
    ), rng


class TestClusterCheckpoint:
    def test_rng_state_restores_exact_draw_position(self):
        ck, rng = make_checkpoint(draws=23)
        expected = rng.random(8)   # the draws a restored worker must make
        fresh = RngStreams(0).get("cluster:R1")
        fresh.bit_generator.state = dict(ck.rng_state)
        assert np.array_equal(fresh.random(8), expected)

    def test_digest_sensitive_to_every_field(self):
        ck, _ = make_checkpoint()
        variants = [
            ClusterCheckpoint(ck.rng_state, {"A": 0.126, "B": 0.75},
                              ck.response, ck.clock),
            ClusterCheckpoint(ck.rng_state, ck.carry, ck.response, 99.0),
            make_checkpoint(draws=18)[0],
        ]
        digests = {ck.digest()} | {v.digest() for v in variants}
        assert len(digests) == 4

    def test_epoch_digest_order_independent(self):
        a, _ = make_checkpoint(draws=3)
        b, _ = make_checkpoint(draws=5)
        assert epoch_digest({"R1": a, "R2": b}) == \
               epoch_digest(dict([("R2", b), ("R1", a)]))
        assert epoch_digest({"R1": a}) != epoch_digest({"R1": b})

    def test_digest_is_cached_on_the_instance(self):
        ck, _ = make_checkpoint()
        assert ck._digest is None          # never computed eagerly
        first = ck.digest()
        assert ck._digest == first         # memoized
        assert ck.digest() is first        # same cached string object


class TestBinaryRecord:
    """The fixed-layout uint64 row the shared-memory ring stores."""

    PRINCIPALS = ["A", "B"]

    def pack(self, ck):
        row = np.zeros(record_words(len(self.PRINCIPALS)), dtype=np.uint64)
        pack_checkpoint(ck, self.PRINCIPALS, row)
        return row

    def test_round_trip_is_bit_exact(self):
        ck, rng = make_checkpoint(draws=23)
        back = unpack_checkpoint(self.pack(ck), self.PRINCIPALS)
        # Bit-exact means the canonical JSON — hence the digest — is
        # identical, not merely approximately equal state.
        assert json.dumps(back.to_dict(), sort_keys=True) == \
               json.dumps(ck.to_dict(), sort_keys=True)
        assert back.digest() == ck.digest()

    def test_restored_rng_resumes_exact_draws(self):
        ck, rng = make_checkpoint(draws=29)
        expected = rng.random(8)
        back = unpack_checkpoint(self.pack(ck), self.PRINCIPALS)
        fresh = RngStreams(0).get("cluster:R1")
        fresh.bit_generator.state = back.rng_state
        assert np.array_equal(fresh.random(8), expected)

    def test_empty_stats_infinities_survive(self):
        ck, _ = make_checkpoint()
        empty = ClusterCheckpoint(ck.rng_state, ck.carry, StreamStats(), 0.0)
        back = unpack_checkpoint(self.pack(empty), self.PRINCIPALS)
        assert back.response.count == 0
        assert back.response.min == np.inf and back.response.max == -np.inf
        assert back.digest() == empty.digest()

    def test_non_philox_state_rejected(self):
        ck, _ = make_checkpoint()
        bogus = ClusterCheckpoint({"bit_generator": "PCG64"},
                                  ck.carry, ck.response, 0.0)
        row = np.zeros(record_words(2), dtype=np.uint64)
        with pytest.raises(ValueError, match="Philox"):
            pack_checkpoint(bogus, self.PRINCIPALS, row)

    def test_wrong_row_shape_rejected(self):
        ck, _ = make_checkpoint()
        with pytest.raises(ValueError, match="row shape"):
            pack_checkpoint(ck, self.PRINCIPALS,
                            np.zeros(3, dtype=np.uint64))


def pack_oracle(ck, principals, out):
    """``pack_checkpoint`` as it was before one ``struct`` call wrote the
    row: one numpy store per field, kept verbatim as the reference."""
    state = ck.rng_state
    inner = state["state"]
    out[0:4] = np.asarray(inner["counter"], dtype=np.uint64)
    out[4:6] = np.asarray(inner["key"], dtype=np.uint64)
    out[6:10] = np.asarray(state["buffer"], dtype=np.uint64)
    out[10] = int(state["buffer_pos"])
    out[11] = int(state["has_uint32"])
    out[12] = int(state["uinteger"])
    out[13] = int(ck.response.count)
    flt = out.view(np.float64)
    flt[14] = ck.response.mean
    flt[15] = ck.response.m2
    flt[16] = ck.response.min
    flt[17] = ck.response.max
    flt[18] = ck.clock
    for i, p in enumerate(principals):
        flt[RECORD_BASE_WORDS + i] = float(ck.carry[p])


finite_or_inf = st.floats(allow_nan=False)


@st.composite
def checkpoints(draw):
    rng = RngStreams(draw(st.integers(0, 2**32))).get("cluster:R1")
    rng.random(draw(st.integers(0, 50)))
    # An odd number of 32-bit draws leaves half a word buffered.
    rng.integers(0, 2**32, size=draw(st.integers(0, 5)), dtype=np.uint32)
    principals = tuple(f"P{i}" for i in range(draw(st.integers(1, 4))))
    count = draw(st.integers(0, 2**40))
    stats = StreamStats() if count == 0 else StreamStats(
        count, *(draw(finite_or_inf) for _ in range(4)))
    ck = ClusterCheckpoint(
        rng_state=rng.bit_generator.state,
        carry={p: draw(finite_or_inf) for p in principals},
        response=stats,
        clock=draw(finite_or_inf),
    )
    return ck, principals


class TestStructPacking:
    @given(checkpoints())
    @settings(max_examples=80, deadline=None)
    def test_rows_are_word_equal_to_the_per_field_form(self, case):
        ck, principals = case
        new = np.zeros(record_words(len(principals)), dtype=np.uint64)
        old = np.ones_like(new)
        pack_checkpoint(ck, principals, new)
        pack_oracle(ck, principals, old)
        assert new.tolist() == old.tolist()
        # ... and so is a state restored from that row and packed again.
        back = unpack_checkpoint(new, principals)
        again, again_old = np.zeros_like(new), np.ones_like(new)
        pack_checkpoint(back, principals, again)
        pack_oracle(back, principals, again_old)
        assert again.tolist() == again_old.tolist() == new.tolist()


class TestRecoveryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RecoveryPolicy()
        assert policy.backoff(0) == pytest.approx(0.05)
        assert policy.backoff(1) == pytest.approx(0.10)
        assert policy.backoff(2) == pytest.approx(0.20)
        assert policy.backoff(5) == pytest.approx(1.60)
        assert policy.backoff(6) == pytest.approx(2.0)    # capped
        assert policy.backoff(10) == pytest.approx(2.0)

    def test_defaults_degrade_not_abort(self):
        # Exhausting the budget always reassigns; only a runner with no
        # policy (recovery=None) is fail-stop.
        assert set(vars(RecoveryPolicy())) == {"max_restarts", "backoff_base"}
        assert RecoveryPolicy().max_restarts >= 1
