"""WAL-follower read replicas: streaming replication and failover.

A primary :class:`~repro.durability.DurableEngine` already leaves behind
everything a second process needs to reconstruct it — an append-only,
globally-sequenced WAL plus an incremental checkpoint chain.  This
module turns that observation into *read replicas*: a
:class:`WalFollower` tails a primary's ``wal_dir`` **without taking the
writer lock**, replaying new records into a live engine incrementally
instead of re-running :func:`~repro.durability.recover` from scratch.

The follower reuses recovery's machinery and guarantees wholesale:

* the manifest and checkpoint chain are validated by the same code
  recovery uses (:func:`~repro.durability._load_manifest` /
  :func:`~repro.durability._restore_from_chain`);
* at most **one** torn segment tail is tolerated (a crash tears at most
  one append) — a second unreadable record is
  :class:`~repro.errors.WalCorruptionError`, exactly as in recovery;
* records are applied in strict sequence order with recovery's
  swallow-deterministic-rejection semantics
  (:func:`~repro.durability._replay_record`), so a follower that has
  applied seq *n* is byte-identical to a recovery of the log's first
  *n* records.

Because the primary may checkpoint + truncate covered segments out from
under the tail, the follower watches the checkpoint directory: whenever
the latest checkpoint's seq passes the applied watermark, the follower
*adopts* it — restoring a fresh engine from the chain and resuming the
tail past it — rather than stalling on the vanished prefix.

Failover is :meth:`WalFollower.promote`: seal the tail (take the writer
lock — a still-live primary makes this raise
:class:`~repro.errors.WalLockedError`, the zero-acknowledged-write-loss
guard), validate the sealed tail with recovery's own
:func:`~repro.durability._read_tail`, catch up to it, optionally verify
the warm engine byte-for-byte against an independent restore, and hand
the already-warm follower engine to recovery's
:func:`~repro.durability._resume` (torn-tail repair, next epoch, a
writable :class:`~repro.durability.DurableEngine`) — no cold restart.
None of this asks whether the engine is sharded: every engine answers
the same feed/sweep/flush protocol.  Promotions are
recorded in a ``PROMOTIONS.json`` audit marker beside the manifest (not
in the WAL: a promotion consumes no sequence number, so client-side
``wal_seq`` watermarks stay valid across failover).
"""

from __future__ import annotations

import os
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.durability import (
    DurableEngine,
    _CHECKPOINTS_DIR,
    _DEFAULT_IO,
    _SEGMENTS_DIR,
    _WalLock,
    _load_manifest,
    _parse_checkpoint_name,
    _parse_segment_name,
    _read_tail,
    _replay,
    _replay_record,
    _restore_from_chain,
    _resume,
)
from repro.engine import EngineObserver
from repro.errors import (
    DurabilityError,
    ModelError,
    PromotionError,
    RecoveryError,
    WalCorruptionError,
)
from repro.faults import StorageIO
from repro.io import atomic_write_json, engine_snapshot_to_json, wal_record_from_line

__all__ = [
    "PROMOTIONS_NAME",
    "ReplicaLag",
    "WalFollower",
    "read_promotions",
]

PROMOTIONS_NAME = "PROMOTIONS.json"

#: How many bytes of each segment tail :meth:`WalFollower.probe` reads.
_PROBE_TAIL_BYTES = 4096

#: Immediate retries for a checkpoint-chain read that races the
#: primary's core-stripping of the superseded link (publish-then-strip
#: is two atomic writes; a directory listing taken between them can see
#: a transiently coreless "latest").
_ADOPT_RETRIES = 3


@dataclass(frozen=True)
class ReplicaLag:
    """One follower lag measurement.

    ``lag_seq`` is how many sequence numbers of the primary's log are
    visible on disk but not yet applied; ``lag_seconds`` is how long the
    follower has continuously been behind (0.0 when caught up).
    ``applied_seq`` is the replica watermark — every record with seq ≤
    ``applied_seq`` is reflected in the follower's engine.
    """

    applied_seq: int
    visible_seq: int
    lag_seq: int
    lag_seconds: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "applied_seq": self.applied_seq,
            "visible_seq": self.visible_seq,
            "lag_seq": self.lag_seq,
            "lag_seconds": self.lag_seconds,
        }


def read_promotions(wal_dir) -> List[Dict[str, Any]]:
    """The ``PROMOTIONS.json`` audit trail of *wal_dir* (empty if none)."""
    import json

    path = pathlib.Path(wal_dir) / PROMOTIONS_NAME
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    entries = payload.get("entries") if isinstance(payload, dict) else None
    return entries if isinstance(entries, list) else []


class WalFollower:
    """Tail a primary's ``wal_dir`` into a live read-only engine.

    Construction validates the manifest and adopts the current
    checkpoint chain; each :meth:`poll` reads whatever new bytes the
    primary has flushed since, applies every record that extends the
    contiguous applied prefix, and adopts newer checkpoints when the
    primary truncates segments the follower had not finished reading.

    The follower holds **no lock** and opens no persistent handles: it
    is a pure observer, safe to run beside a live writer.  Reads go
    through *io* (a :class:`~repro.faults.StorageIO`), consulting the
    ``follower.read`` / ``follower.apply`` fault sites so chaos suites
    can tear the stream mid-tail.
    """

    def __init__(self, wal_dir, *, io: Optional[StorageIO] = None) -> None:
        self._wal_path = pathlib.Path(wal_dir)
        self._io = io if io is not None else _DEFAULT_IO
        self._manifest, self._config = _load_manifest(self._wal_path)
        self._shards = int(self._manifest["shards"])
        #: byte offset of the first unconsumed byte, per segment name
        self._offsets: Dict[str, int] = {}
        #: parsed-but-not-yet-contiguous records, keyed by seq
        self._stash: Dict[int, Tuple[Any, Optional[str]]] = {}
        self._applied_seq = 0
        self._visible_seq = 0
        self._behind_since: Optional[float] = None
        self._closed = False
        self._promoted = False
        self.polls = 0
        self.records_applied = 0
        self.checkpoints_adopted = 0
        self._engine: Any = None
        self._adopt_chain()
        self._visible_seq = self._applied_seq

    # -- introspection -----------------------------------------------------------

    @property
    def wal_dir(self) -> pathlib.Path:
        return self._wal_path

    @property
    def engine(self):
        """The live follower engine (read it, never feed it)."""
        return self._engine

    @property
    def wal_seq(self) -> int:
        """Replica watermark: highest seq applied to :attr:`engine`."""
        return self._applied_seq

    @property
    def visible_seq(self) -> int:
        """Highest seq observed on disk (may exceed :attr:`wal_seq`)."""
        return self._visible_seq

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def promoted(self) -> bool:
        return self._promoted

    def __repr__(self) -> str:
        return (
            f"WalFollower(wal_dir={str(self._wal_path)!r}, "
            f"applied={self._applied_seq}, visible={self._visible_seq}, "
            f"adopted={self.checkpoints_adopted})"
        )

    def metrics(self) -> Dict[str, Any]:
        lag = self.lag()
        return {
            "polls": self.polls,
            "records_applied": self.records_applied,
            "checkpoints_adopted": self.checkpoints_adopted,
            **lag.as_dict(),
        }

    # -- the tail ----------------------------------------------------------------

    def _require_live(self) -> None:
        if self._promoted:
            raise DurabilityError(
                "this follower was promoted to primary; use the engine "
                "promote() returned"
            )
        if self._closed:
            raise DurabilityError("this follower has been closed")

    def poll(self) -> int:
        """Ingest whatever the primary has flushed; returns records applied.

        Applies only the contiguous extension of the applied prefix;
        records flushed out of scan order stay stashed for the next
        poll.  When the primary's latest checkpoint passes the applied
        watermark (it truncated segments the follower still needed),
        the checkpoint chain is adopted and tailing resumes past it.
        """
        self._require_live()
        self._io.check("follower.read")
        self.polls += 1
        applied = 0
        # An adoption clears the offsets, so the segment scan must rerun
        # to pick up the tail past the new checkpoint; one extra round
        # suffices unless the primary checkpoints faster than we read.
        for _round in range(_ADOPT_RETRIES + 1):
            self._read_new_records()
            applied += self._apply_stashed()
            if not self._maybe_adopt():
                break
        self._update_clock()
        return applied

    def _segment_paths(self) -> List[pathlib.Path]:
        segments = self._wal_path / _SEGMENTS_DIR
        if not segments.is_dir():
            return []
        paths = [
            path
            for path in segments.iterdir()
            if _parse_segment_name(path.name) is not None
        ]
        paths.sort()
        return paths

    def _read_new_records(self) -> None:
        """Parse every newly-flushed complete line into the stash."""
        suspects = 0
        seen = set()
        for path in self._segment_paths():
            seen.add(path.name)
            offset = self._offsets.get(path.name, 0)
            try:
                data = self._io.read_bytes(path)
            except FileNotFoundError:
                continue  # truncated away mid-listing; next poll adopts
            if len(data) < offset:
                # The segment shrank: a recovery/promotion repaired a
                # torn tail in place.  Rescan from the top — records
                # at or below the watermark are skipped by seq anyway.
                offset = 0
            suspects += self._parse_segment(path.name, data, offset)
        for name in list(self._offsets):
            if name not in seen:
                del self._offsets[name]  # segment truncated by checkpoint
        if suspects > 1:
            raise WalCorruptionError(
                f"{suspects} torn segment tails found while tailing "
                f"{self._wal_path}; a single crash can tear at most one "
                "record, so this log is damaged, not crashed"
            )

    def _parse_segment(self, name: str, data: bytes, offset: int) -> int:
        """Consume complete lines of one segment; returns suspect count.

        Only newline-terminated lines are parsed — a trailing fragment
        is an append still in flight, never an error.  An unparsable
        *complete* line at end-of-file is the one legal artifact of a
        crashed append ("suspect": left unconsumed for promote-time
        repair); anywhere else it is corruption.
        """
        chunk = data[offset:]
        cut = chunk.rfind(b"\n")
        if cut < 0:
            return 0
        trailing_fragment = cut + 1 < len(chunk)
        lines = chunk[: cut + 1].split(b"\n")[:-1]
        position = offset
        for index, raw in enumerate(lines):
            line = raw.decode("utf-8", errors="replace")
            try:
                seq, step, control = wal_record_from_line(line)
            except ModelError as exc:
                if index == len(lines) - 1 and not trailing_fragment:
                    return 1  # suspect torn tail; offset stays put
                raise WalCorruptionError(
                    f"unreadable WAL record in {name} at byte {position} "
                    f"(not the segment tail): {exc}"
                ) from exc
            position += len(raw) + 1
            self._offsets[name] = position
            if seq > self._visible_seq:
                self._visible_seq = seq
            if seq > self._applied_seq:
                self._stash[seq] = (step, control)
        return 0

    def _apply_stashed(self) -> int:
        """Apply the contiguous run the stash now extends; returns count."""
        if (self._applied_seq + 1) not in self._stash:
            return 0
        self._io.check("follower.apply")
        applied = 0
        while True:
            record = self._stash.pop(self._applied_seq + 1, None)
            if record is None:
                break
            step, control = record
            _replay_record(self._engine, step, control)
            self._applied_seq += 1
            applied += 1
        self.records_applied += applied
        return applied

    # -- checkpoint adoption -----------------------------------------------------

    def _latest_checkpoint_seq(self) -> int:
        checkpoints = self._wal_path / _CHECKPOINTS_DIR
        latest = 0
        if checkpoints.is_dir():
            for path in checkpoints.iterdir():
                seq = _parse_checkpoint_name(path.name)
                if seq is not None and seq > latest:
                    latest = seq
        return latest

    def _maybe_adopt(self) -> bool:
        """Adopt the chain when it has passed the applied watermark.

        A checkpoint at seq *s* truncates every segment that held seqs
        ≤ *s*; if *s* is past what we applied, the records we were
        waiting for are gone and the chain is the only way forward.
        """
        if self._latest_checkpoint_seq() <= self._applied_seq:
            return False
        adopted = self._adopt_chain()
        if adopted:
            self.checkpoints_adopted += 1
        return adopted

    def _adopt_chain(self) -> bool:
        """Restore from the checkpoint chain; False = racing, try later.

        The primary publishes checkpoint N and then strips N-1's core
        (and superseded links), so a chain read overlapping the pair can
        transiently see a coreless "latest" or lose a link mid-read.
        While the chain *head keeps advancing* between attempts, any
        :class:`RecoveryError` is that race, not damage — and if the
        primary checkpoints faster than this process can restore (a
        write burst on a loaded host), the follower stays on its current
        snapshot and serves (lag-guarded) stale reads until a later poll
        lands the adoption.  A failure with a *static* head is the real
        thing: a quiescent chain whose latest has no core cannot restore.
        """
        last_head = -1
        for _attempt in range(_ADOPT_RETRIES):
            head = self._latest_checkpoint_seq()
            try:
                state = _restore_from_chain(
                    self._wal_path, self._config, self._shards
                )
            except RecoveryError:
                if head == last_head:
                    raise
                last_head = head
                continue
            self._engine = state.inner
            self._applied_seq = state.checkpoint_seq
            if self._visible_seq < self._applied_seq:
                self._visible_seq = self._applied_seq
            self._offsets.clear()
            self._stash = {
                seq: record
                for seq, record in self._stash.items()
                if seq > self._applied_seq
            }
            return True
        return False

    # -- lag ---------------------------------------------------------------------

    def _update_clock(self) -> None:
        if self._visible_seq > self._applied_seq:
            if self._behind_since is None:
                # Lag telemetry only: this wall-clock stamp feeds the
                # human-facing lag_seconds metric and never influences
                # which records get applied, so replica state stays
                # deterministic.  # lint: allow(determinism)
                self._behind_since = time.monotonic()
        else:
            self._behind_since = None

    def probe(self) -> int:
        """Cheaply refresh :attr:`visible_seq`; returns it.

        Reads only the last few KB of each segment (the newest complete
        line carries the highest seq), so an idle follower can report
        honest lag without a full poll.
        """
        self._require_live()
        for path in self._segment_paths():
            try:
                size = path.stat().st_size
                data = self._io.read_tail(
                    path, max(0, size - _PROBE_TAIL_BYTES)
                )
            except OSError:
                continue
            lines = data.split(b"\n")[:-1]  # drop any trailing fragment
            for raw in reversed(lines):
                try:
                    seq, _step, _control = wal_record_from_line(
                        raw.decode("utf-8", errors="replace")
                    )
                except ModelError:
                    continue  # partial first line of the window, or torn
                if seq > self._visible_seq:
                    self._visible_seq = seq
                break
        self._update_clock()
        return self._visible_seq

    def lag(self, *, probe: bool = False) -> ReplicaLag:
        """Current replica lag; ``probe=True`` refreshes visibility first."""
        if probe:
            self.probe()
        else:
            self._update_clock()
        lag_seq = max(0, self._visible_seq - self._applied_seq)
        if lag_seq and self._behind_since is not None:
            # Telemetry, not state (see _update_clock).  # lint: allow(determinism)
            lag_seconds = max(0.0, time.monotonic() - self._behind_since)
        else:
            lag_seconds = 0.0
        return ReplicaLag(
            applied_seq=self._applied_seq,
            visible_seq=self._visible_seq,
            lag_seq=lag_seq,
            lag_seconds=lag_seconds,
        )

    # -- failover ----------------------------------------------------------------

    def promote(
        self,
        *,
        verify: bool = True,
        observers: Iterable[EngineObserver] = (),
        checkpoint_interval: Optional[int] = None,
        sync: Optional[str] = None,
    ) -> DurableEngine:
        """Seal the log and flip this follower into a writable primary.

        Takes the WAL writer lock first — a still-live primary holds it,
        so promotion against a healthy primary raises
        :class:`~repro.errors.WalLockedError` before anything is
        touched: an acknowledged write can never be orphaned by a
        premature failover.  With the log sealed, the remaining tail is
        applied (same contiguity and single-torn-tail rules as
        recovery), any torn record is repaired in place, and — when
        *verify* is set — the warm engine is compared **byte-for-byte**
        against an independent restore-and-replay of the same log; a
        mismatch raises :class:`~repro.errors.PromotionError` and
        releases the lock, leaving the directory recoverable.

        Returns a live :class:`~repro.durability.DurableEngine` wrapping
        the follower's warm engine (no manifest rewrite — the directory
        already has one) and records the event in ``PROMOTIONS.json``.
        The follower itself is spent afterwards.
        """
        self._require_live()
        self._io.check("promote.seal")
        lock = _WalLock.acquire(self._wal_path)
        try:
            state = _restore_from_chain(
                self._wal_path, self._config, self._shards
            )
            tail = _read_tail(self._wal_path, state.checkpoint_seq)
            sealed_seq = tail.last_seq
            warm = self._applied_seq >= state.checkpoint_seq
            if warm:
                # Catch the warm engine up to the sealed log.
                inner = self._engine
                _replay(
                    inner,
                    [r for r in tail.records if r[0] > self._applied_seq],
                )
            else:
                # The primary checkpointed past us and the prefix is
                # gone: the chain restore *is* the freshest state.
                inner = state.inner
                _replay(inner, tail.records)
            self._applied_seq = sealed_seq
            if verify and warm:
                # state.inner is an independent restore of the same
                # chain; replaying the sealed tail into it yields the
                # oracle the warm engine must match byte-for-byte.
                oracle = state.inner
                _replay(oracle, tail.records)
                if engine_snapshot_to_json(
                    oracle.snapshot()
                ) != engine_snapshot_to_json(inner.snapshot()):
                    raise PromotionError(
                        f"follower state at seq {sealed_seq} disagrees "
                        "with an independent restore of the same log; "
                        "refusing to promote a divergent replica"
                    )
            engine = _resume(
                inner, state, tail, self._manifest, self._config,
                checkpoint_interval=checkpoint_interval,
                sync=sync,
                storage=self._io,
                lock=lock,
            )
            self._record_promotion(
                seq=sealed_seq,
                checkpoint_seq=state.checkpoint_seq,
                epoch=engine._wal.epoch,
            )
        except BaseException:
            lock.release()
            raise
        for observer in observers:
            engine._inner.subscribe(observer)
        self._promoted = True
        self._closed = True
        self._visible_seq = max(self._visible_seq, sealed_seq)
        self._offsets.clear()
        self._stash.clear()
        self._behind_since = None
        return engine

    def _record_promotion(
        self, *, seq: int, checkpoint_seq: int, epoch: int
    ) -> None:
        import json

        path = self._wal_path / PROMOTIONS_NAME
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            payload = None
        if not isinstance(payload, dict) or not isinstance(
            payload.get("entries"), list
        ):
            payload = {"format": 1, "kind": "wal-promotions", "entries": []}
        payload["entries"].append(
            {
                "seq": seq,
                "checkpoint_seq": checkpoint_seq,
                "epoch": epoch,
                "pid": os.getpid(),
                # Deliberately out-of-band: PROMOTIONS.json is a forensic
                # audit trail read by humans after a failover, never by
                # recovery or replay, so a wall-clock stamp here cannot
                # make replicas diverge.  # lint: allow(determinism)
                "promoted_at": time.time(),
            }
        )
        atomic_write_json(path, payload)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Stop following; the follower holds no locks or open handles."""
        self._closed = True
        self._offsets.clear()
        self._stash.clear()

    def __enter__(self) -> "WalFollower":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
