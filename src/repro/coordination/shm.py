"""Zero-copy shared-memory data plane for the sharded lane.

The paper's enforcement loop is a per-window cycle — summarized demand up
a combining tree, one allocation vector broadcast back down — and its
economics depend on the measurement plane costing ~nothing next to the
work it measures.  This module is the sharded lane's one boundary
transport: a preallocated ``multiprocessing.shared_memory`` segment,
viewed through numpy:

* a **control block** the parent seqlock-publishes each epoch's
  allocation into, and
* one **region per shard** holding a K-deep ring of fixed-layout slots;
  each slot has demand and admitted columns (``C×P float64``) plus one
  binary checkpoint record per cluster
  (:func:`repro.coordination.checkpoint.pack_checkpoint`).

Workers write their clusters' rows in place and publish with a per-slot
**seqlock**: the slot's sequence word is bumped to ``2·epoch+1`` (odd =
torn) before the row writes and to ``2·epoch+2`` (even = published)
after.  The parent polls the sequence word, copies the rows it needs, and
re-checks the word — an unchanged even value proves the copy saw no
concurrent writer; anything else is retried.  The steady-state epoch
therefore does **zero pickling and zero hashing**; pipes remain only for
low-rate control traffic (reassignment, finish, failure), and the
checkpoint ring is decoded only on restore and at the horizon.

Memory-ordering caveat: the seqlock has no explicit fences — it relies on
the total-store-order guarantee of x86-64 (and on CPython's interpreter
making every numpy store a completed call before the next begins).  That
is the documented portability boundary; the torn-read stress test in
``tests/coordination/test_shm.py`` exercises the retry path empirically.

Every region is sized for *all* clusters in the world (rows are indexed
by global cluster position), so reassignment can move a cluster between
shards without relayout — the memory cost is small (the 8-shard bench
world is ~200 KiB total) and the layout stays static for the whole run.

Regions ring-buffer ``depth`` (K ≥ 2) epochs.  Slot ``e % K`` holds epoch
``e``; because workers can never run more than one allocation ahead of
the parent, the ``e−1`` slot a restore reads is always intact while epoch
``e`` is in flight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.coordination.checkpoint import (
    ClusterCheckpoint,
    pack_checkpoint,
    record_words,
    unpack_checkpoint,
)

__all__ = [
    "PlaneSpec",
    "ShmDataPlane",
    "ShmUnavailable",
]

# Control block layout (uint64 words; float fields as IEEE-754 bits):
#   word 0            seqlock word (2·epoch+1 torn, 2·epoch+2 published)
#   word 1            epoch
#   word 2            has_frac (0 = conservative/None, 1 = vector present)
#   word 3..3+P-1     served fraction per principal (float64 bits)
# An absent principal is encoded as NaN — never a legitimate fraction —
# so the reconstructed dict has exactly the sender's key set.
_CTL_BASE_WORDS = 3


class ShmUnavailable(RuntimeError):
    """Shared memory cannot be used here; the runner falls back to inline."""


@dataclass(frozen=True)
class PlaneSpec:
    """Everything a worker needs to attach to the parent's segment.

    Travels once in the :class:`~repro.experiments.sharded.ShardTask`;
    the layout is fully determined by these fields, so both sides derive
    identical offsets independently.
    """

    name: str
    clusters: Tuple[str, ...]      # global row order, fixed for the run
    principals: Tuple[str, ...]
    shards: int
    depth: int                     # ring depth K (>= 2)
    # True only when workers run with their own resource tracker (spawn):
    # such a tracker would unlink the segment when its worker exits
    # (bpo-38119), so the worker must unregister after attaching.  Under
    # fork the tracker is shared with the parent and unregistering would
    # drop the *parent's* leak protection — leave False.
    unregister_on_attach: bool = False


class ShmDataPlane:
    """One shared segment: allocation control block + per-shard slot rings."""

    def __init__(self, spec: PlaneSpec, shm: object, owner: bool) -> None:
        if spec.depth < 2:
            raise ValueError("ring depth must be >= 2 (restore reads k-1 "
                             "while epoch k is in flight)")
        self.spec = spec
        self._shm = shm
        self._owner = owner
        self.index: Dict[str, int] = {c: i for i, c in enumerate(spec.clusters)}
        C, P = len(spec.clusters), len(spec.principals)
        self._ctl_words = _CTL_BASE_WORDS + P
        self._row_words = 2 * P                      # demand + admitted
        self._rec_words = record_words(P)
        self._slot_words = C * self._row_words + C * self._rec_words
        self._region_words = spec.depth * (1 + self._slot_words)
        total = self._ctl_words + spec.shards * self._region_words
        self._words: Optional[np.ndarray] = np.ndarray(
            (total,), dtype=np.uint64, buffer=shm.buf)  # type: ignore[attr-defined]
        if owner:
            self._words[:] = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def segment_nbytes(cls, n_clusters: int, n_principals: int,
                       shards: int, depth: int) -> int:
        C, P = n_clusters, n_principals
        slot = C * 2 * P + C * record_words(P)
        return 8 * (_CTL_BASE_WORDS + P + shards * depth * (1 + slot))

    @classmethod
    def create(cls, clusters: Sequence[str], principals: Sequence[str],
               shards: int, depth: int = 2,
               unregister_on_attach: bool = False) -> "ShmDataPlane":
        """Allocate the segment in the parent; raises :class:`ShmUnavailable`
        when the platform cannot provide POSIX shared memory."""
        try:
            from multiprocessing import shared_memory
        except ImportError as exc:                       # pragma: no cover
            raise ShmUnavailable(f"shared_memory import failed: {exc}") from exc
        size = cls.segment_nbytes(len(clusters), len(principals),
                                  shards, depth)
        try:
            shm = shared_memory.SharedMemory(create=True, size=size)
        except OSError as exc:
            raise ShmUnavailable(f"shared memory allocation failed: {exc}") \
                from exc
        spec = PlaneSpec(name=shm.name, clusters=tuple(clusters),
                         principals=tuple(principals), shards=int(shards),
                         depth=int(depth),
                         unregister_on_attach=bool(unregister_on_attach))
        return cls(spec, shm, owner=True)

    @classmethod
    def attach(cls, spec: PlaneSpec) -> "ShmDataPlane":
        """Attach in a worker.

        When the worker has its own resource tracker (spawn start method),
        CPython registers the attach and would unlink the segment when the
        worker exits (bpo-38119) — ``spec.unregister_on_attach`` makes the
        worker unregister immediately; the parent owns the lifetime.
        """
        from multiprocessing import shared_memory
        shm = shared_memory.SharedMemory(name=spec.name, create=False)
        if spec.unregister_on_attach:
            from multiprocessing import resource_tracker
            try:
                resource_tracker.unregister(
                    getattr(shm, "_name", shm.name), "shared_memory")
            except Exception:                            # pragma: no cover
                pass
        return cls(spec, shm, owner=False)

    # -- internal views -----------------------------------------------------

    def _region(self, shard: int) -> int:
        return self._ctl_words + shard * self._region_words

    def seq_words(self, shard: int) -> np.ndarray:
        """The shard's per-slot sequence words (exposed for tests/audit)."""
        assert self._words is not None
        off = self._region(shard)
        return self._words[off:off + self.spec.depth]

    def _slot(self, shard: int, slot: int) -> Tuple[np.ndarray, np.ndarray,
                                                    np.ndarray]:
        """(demand C×P f64, admitted C×P f64, records C×REC u64) views."""
        assert self._words is not None
        C, P = len(self.spec.clusters), len(self.spec.principals)
        base = self._region(shard) + self.spec.depth + slot * self._slot_words
        cols = self._words[base:base + 2 * C * P].view(np.float64)
        demand = cols[:C * P].reshape(C, P)
        admitted = cols[C * P:].reshape(C, P)
        recs = self._words[base + 2 * C * P:
                           base + 2 * C * P + C * self._rec_words]
        return demand, admitted, recs.reshape(C, self._rec_words)

    # -- allocation control block (parent -> workers) -----------------------

    def write_allocation(self, epoch: int,
                         frac: Optional[Mapping[str, float]]) -> None:
        assert self._words is not None
        ctl = self._words[:self._ctl_words]
        ctl[0] = 2 * epoch + 1                 # odd: write in progress
        ctl[1] = epoch
        ctl[2] = 0 if frac is None else 1
        if frac is not None:
            flt = ctl.view(np.float64)
            for i, p in enumerate(self.spec.principals):
                flt[_CTL_BASE_WORDS + i] = frac.get(p, math.nan)
        ctl[0] = 2 * epoch + 2                 # even: published

    def poll_allocation(self, epoch: int) \
            -> Tuple[bool, Optional[Dict[str, float]]]:
        """(ready, frac) for exactly ``epoch``; retried by the caller."""
        assert self._words is not None
        ctl = self._words[:self._ctl_words]
        want = 2 * epoch + 2
        if int(ctl[0]) != want:
            return False, None
        has = int(ctl[2])
        vals = ctl.view(np.float64)[
            _CTL_BASE_WORDS:_CTL_BASE_WORDS + len(self.spec.principals)].copy()
        if int(ctl[0]) != want:                # torn by a concurrent write
            return False, None
        if not has:
            return True, None
        return True, {p: float(v)
                      for p, v in zip(self.spec.principals, vals)
                      if not math.isnan(v)}

    # -- boundary publication (workers -> parent) ---------------------------

    def publish(self, shard: int, epoch: int,
                boundary: Mapping[str, Tuple[Sequence[float], Sequence[float],
                                             ClusterCheckpoint]]) -> None:
        """Seqlock-publish one epoch's rows for ``boundary``'s clusters.

        ``boundary`` maps cluster name to (demand-per-principal,
        admitted-per-principal, checkpoint); only the given rows are
        touched, so a reassignment survivor can republish adopted rows
        into its own slot without disturbing its earlier writes.
        """
        slot = epoch % self.spec.depth
        seq = self.seq_words(shard)
        seq[slot] = 2 * epoch + 1
        demand, admitted, recs = self._slot(shard, slot)
        for name, (dvec, avec, ck) in boundary.items():
            i = self.index[name]
            demand[i, :] = dvec
            admitted[i, :] = avec
            pack_checkpoint(ck, self.spec.principals, recs[i])
        seq[slot] = 2 * epoch + 2

    def try_read_boundary(self, shard: int, epoch: int,
                          names: Sequence[str]) \
            -> Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]]:
        """Copy ``names``' demand/admitted rows for ``epoch``, or None.

        None means "not published yet or torn mid-copy" — the caller
        simply polls again.  A successful return is a consistent snapshot:
        the sequence word was the epoch's even value both before and after
        the copy.
        """
        slot = epoch % self.spec.depth
        seq = self.seq_words(shard)
        want = 2 * epoch + 2
        if int(seq[slot]) != want:
            return None
        demand, admitted, _ = self._slot(shard, slot)
        idx = [self.index[n] for n in names]
        dcopy = demand[idx, :].copy()
        acopy = admitted[idx, :].copy()
        if int(seq[slot]) != want:             # writer raced us: retry
            return None
        return {name: (dcopy[j], acopy[j]) for j, name in enumerate(names)}

    def read_checkpoints(self, epoch: int, owners: Mapping[str, int]) \
            -> Dict[str, ClusterCheckpoint]:
        """Decode ``epoch``'s checkpoint records from the ring.

        ``owners`` maps cluster name to the shard that published it during
        ``epoch``.  This is the deferred-digest path — restore and the
        final-state witness — never the steady-state loop.  A slot whose sequence word
        is not the epoch's published value is an error: the ring is only
        read for epochs the parent has already folded.
        """
        slot = epoch % self.spec.depth
        out: Dict[str, ClusterCheckpoint] = {}
        by_shard: Dict[int, list] = {}
        for name, shard in owners.items():
            by_shard.setdefault(shard, []).append(name)
        for shard, names in by_shard.items():
            seq = self.seq_words(shard)
            if int(seq[slot]) != 2 * epoch + 2:
                raise RuntimeError(
                    f"checkpoint ring: shard {shard} slot {slot} does not "
                    f"hold epoch {epoch} (seq={int(seq[slot])})"
                )
            _, _, recs = self._slot(shard, slot)
            for name in names:
                out[name] = unpack_checkpoint(
                    recs[self.index[name]].copy(), self.spec.principals)
        return out

    # -- accounting ---------------------------------------------------------

    @property
    def segment_bytes(self) -> int:
        assert self._words is not None
        return int(self._words.nbytes)

    @property
    def boundary_bytes_per_epoch(self) -> int:
        """Data-plane bytes the parent handles per steady-state epoch.

        Demand + admitted row copies for every cluster, one control-block
        write, and one sequence-word read per shard.  Checkpoint records
        are *excluded*: they are written in place by workers and never
        cross to the parent until a restore or the horizon (that deferral
        is the point); their per-epoch ring footprint is reported
        separately as :attr:`ring_bytes_per_epoch`.
        """
        C, P = len(self.spec.clusters), len(self.spec.principals)
        return 8 * (C * 2 * P + self._ctl_words + self.spec.shards)

    @property
    def ring_bytes_per_epoch(self) -> int:
        """Checkpoint-record bytes written into the ring per epoch."""
        C = len(self.spec.clusters)
        return 8 * C * self._rec_words

    # -- lifetime -----------------------------------------------------------

    def close(self) -> None:
        self._words = None
        try:
            self._shm.close()                  # type: ignore[attr-defined]
        except BufferError:                    # pragma: no cover
            pass                               # stray view; OS cleanup wins

    def unlink(self) -> None:
        if self._owner:
            try:
                self._shm.unlink()             # type: ignore[attr-defined]
            except FileNotFoundError:          # pragma: no cover
                pass
