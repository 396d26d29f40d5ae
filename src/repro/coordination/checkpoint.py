"""Epoch checkpoints and recovery policy for the sharded runner.

The paper's enforcement scheme is built to survive node loss — the
combining tree heals around a dead node and allocation degrades to the
conservative 1/R split (§3.2).  This module gives the *execution
substrate* the same property: at every window barrier each worker writes
a compact :class:`ClusterCheckpoint` per cluster (RNG substream position,
residual-carry admission state, mergeable response-time
:class:`~repro.coordination.aggregation.StreamStats`, and the Lindley
server clock) into the shared-memory ring
(:mod:`repro.coordination.shm`), the one place recovery reads from.
Because a cluster's entire private state is exactly those four things —
the per-window history arrays live in the parent — a respawned worker
restored from the latest checkpoint replays the in-flight window
bit-identically: the Philox counter resumes at the exact draw where the
snapshot was taken.

The ring stores the fixed-layout binary form (:func:`pack_checkpoint` /
:func:`unpack_checkpoint`): one ``uint64`` row of
``RECORD_BASE_WORDS + P`` words per cluster, holding the complete Philox
bit-generator state, the :class:`StreamStats` moments, the Lindley clock
and the per-principal carry — zero pickling, and the round-trip is
bit-exact.  Checkpoints are content-addressed (SHA-256 over a canonical
JSON form) so recovery can be audited: the digest of the state a worker
was restored from is recorded in the :class:`ShardRestart` event.
Digesting is *lazy*: the steady-state epoch loop never JSON-canonicalizes
or hashes anything — digests are computed (and cached) only on restore
and for the run's final-state witness.

:class:`RecoveryPolicy` governs the parent's reaction to a
:class:`~repro.coordination.barrier.ShardWorkerError`: how many respawns
the run may spend in total, how many on a single (shard, epoch), and the
exponential backoff between attempts.  When the budget is exhausted the
runner degrades instead of aborting — the dead shard's clusters are
reassigned round-robin to the survivors (a :class:`ShardReassignment`
event), mirroring the combining tree's reparent-the-orphans healing.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.coordination.aggregation import StreamStats

__all__ = [
    "ClusterCheckpoint",
    "RecoveryPolicy",
    "PER_EPOCH_RETRIES",
    "ShardRestart",
    "ShardReassignment",
    "epoch_digest",
    "RECORD_BASE_WORDS",
    "record_words",
    "pack_checkpoint",
    "unpack_checkpoint",
]

# -- fixed binary record layout ---------------------------------------------
#
# One cluster checkpoint is a row of uint64 words; float fields are stored
# as their IEEE-754 bit patterns.  The layout is Philox-specific on
# purpose: the sharded lane seeds every cluster substream
# from ``np.random.Philox``, whose state is fixed-size (counter 4 words,
# key 2, buffer 4, plus three scalar fields), which is what makes a
# zero-pickle data plane possible at all.
#
#   word  0.. 3   philox counter          (uint64 x 4)
#   word  4.. 5   philox key              (uint64 x 2)
#   word  6.. 9   philox buffer           (uint64 x 4)
#   word 10       buffer_pos              (uint64)
#   word 11       has_uint32              (uint64)
#   word 12       uinteger                (uint64)
#   word 13       response.count          (uint64)
#   word 14..17   response mean/m2/min/max (float64 bits)
#   word 18       clock                   (float64 bits)
#   word 19..     carry, one float64 per principal in caller-fixed order
RECORD_BASE_WORDS = 19


def record_words(n_principals: int) -> int:
    return RECORD_BASE_WORDS + int(n_principals)


def _encode(obj: Any) -> Any:
    """JSON-able form of a checkpoint field (ndarrays become typed lists)."""
    if isinstance(obj, np.ndarray):
        return {"__nd__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, Mapping):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


@dataclass(frozen=True)
class ClusterCheckpoint:
    """One cluster's complete private state at a window boundary.

    ``rng_state`` is the cluster substream's exact bit-generator state
    (``Generator.bit_generator.state``); restoring it resumes the Philox
    counter at the precise draw the snapshot captured, which is what makes
    post-recovery replay bit-identical rather than merely statistically
    equivalent.  ``carry`` is the residual-carry admission fraction per
    principal, ``response`` the mergeable response-time summary, and
    ``clock`` the server-free time of the Lindley observer.
    """

    rng_state: Mapping[str, Any]
    carry: Mapping[str, float]
    response: StreamStats
    clock: float
    _digest: Optional[str] = field(default=None, init=False, repr=False,
                                   compare=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rng_state": _encode(self.rng_state),
            "carry": {k: float(v) for k, v in sorted(self.carry.items())},
            "response": {
                "count": self.response.count,
                "mean": self.response.mean,
                "m2": self.response.m2,
                "min": self.response.min,
                "max": self.response.max,
            },
            "clock": self.clock,
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form — names this state exactly.

        Lazy and cached: the steady-state epoch loop never calls this; it
        runs only on restore and for the final-state witness, and the
        first computation is memoized on the (frozen) instance.
        """
        if self._digest is None:
            canonical = json.dumps(self.to_dict(), sort_keys=True,
                                   separators=(",", ":"))
            object.__setattr__(self, "_digest",
                               hashlib.sha256(canonical.encode()).hexdigest())
        assert self._digest is not None
        return self._digest


def epoch_digest(checkpoints: Mapping[str, ClusterCheckpoint]) -> str:
    h = hashlib.sha256()
    for name in sorted(checkpoints):
        h.update(name.encode("utf-8"))
        h.update(checkpoints[name].digest().encode("ascii"))
    return h.hexdigest()


# -- binary codec -----------------------------------------------------------


def pack_checkpoint(ck: ClusterCheckpoint, principals: Sequence[str],
                    out: np.ndarray) -> None:
    """Pack ``ck`` into a preallocated uint64 row (see layout above).

    ``principals`` fixes the carry column order; it must be the same
    sequence on both sides of the plane (the world's principal tuple).
    The counter, key and buffer are numpy arrays, as
    ``Generator.bit_generator.state`` and :func:`unpack_checkpoint` give
    them.  Raises ``ValueError`` for non-Philox generators — the binary
    plane is deliberately tied to the fixed-size Philox state.
    """
    if out.dtype != np.uint64 or out.shape != (record_words(len(principals)),):
        raise ValueError("pack_checkpoint: wrong row shape/dtype")
    state = ck.rng_state
    if state.get("bit_generator") != "Philox":
        raise ValueError(
            f"binary checkpoint records require Philox, got "
            f"{state.get('bit_generator')!r}"
        )
    inner = state["state"]
    st = ck.response
    # Native byte order and no padding: exactly the row's words in order.
    struct.pack_into(
        f"=14Q{5 + len(principals)}d", out, 0,
        *inner["counter"].tolist(), *inner["key"].tolist(),
        *state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"],
        state["uinteger"], st.count,
        st.mean, st.m2, st.min, st.max, ck.clock,
        *[ck.carry[p] for p in principals],
    )


def unpack_checkpoint(row: np.ndarray,
                      principals: Sequence[str]) -> ClusterCheckpoint:
    """Rebuild a checkpoint from its binary row, bit-exactly.

    The reconstructed ``rng_state`` uses the same container types numpy's
    ``Generator.bit_generator.state`` produces (uint64 arrays for
    counter/key/buffer, plain ints for the scalars), so the canonical JSON
    form — and therefore :meth:`ClusterCheckpoint.digest` — is identical
    to the packed original's.
    """
    if row.dtype != np.uint64 or row.shape != (record_words(len(principals)),):
        raise ValueError("unpack_checkpoint: wrong row shape/dtype")
    row = np.ascontiguousarray(row)
    flt = row.view(np.float64)
    rng_state = {
        "bit_generator": "Philox",
        "state": {
            "counter": row[0:4].copy(),
            "key": row[4:6].copy(),
        },
        "buffer": row[6:10].copy(),
        "buffer_pos": int(row[10]),
        "has_uint32": int(row[11]),
        "uinteger": int(row[12]),
    }
    response = StreamStats(
        count=int(row[13]), mean=float(flt[14]), m2=float(flt[15]),
        min=float(flt[16]), max=float(flt[17]),
    )
    carry = {p: float(flt[RECORD_BASE_WORDS + i])
             for i, p in enumerate(principals)}
    return ClusterCheckpoint(rng_state=rng_state, carry=carry,
                             response=response, clock=float(flt[18]))


# A single (shard, epoch) may burn at most this many respawns; respawn
# attempt n waits min(BACKOFF_CAP, backoff_base × BACKOFF_FACTOR^n) s.
PER_EPOCH_RETRIES = 2
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 2.0


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the parent spends respawns before degrading to reassignment.

    ``max_restarts`` caps respawns across the whole run; a single
    (shard, epoch) may burn at most :data:`PER_EPOCH_RETRIES` of them — a
    deterministic crasher must not consume the entire budget replaying
    one window.  Respawn attempts back off exponentially from
    ``backoff_base`` in wall-clock time; simulation state is unaffected,
    recovery happens *between* epochs.  An exhausted budget degrades the
    run — the dead shard's clusters move to the survivors — instead of
    aborting it; a runner with no policy is the fail-stop one.
    """

    max_restarts: int = 4
    backoff_base: float = 0.05

    def backoff(self, attempt: int) -> float:
        """Wall-clock delay before respawn ``attempt`` (0-based)."""
        return min(BACKOFF_CAP, self.backoff_base * BACKOFF_FACTOR ** attempt)


@dataclass(frozen=True)
class ShardRestart:
    """One respawn: shard re-forked and restored from ``restored_epoch``."""

    epoch: int
    shard: int
    attempt: int
    restored_epoch: int
    restored_digest: str
    detail: str


@dataclass(frozen=True)
class ShardReassignment:
    """Budget exhausted: a dead shard's clusters moved to the survivors."""

    epoch: int
    shard: int
    assignments: Mapping[str, int]   # cluster name -> surviving shard
    detail: str = ""
