"""Crash safety: write-ahead step log, incremental checkpoints, recovery.

The paper bounds the scheduler's *live* state by deleting completed
transactions; this module bounds what a **crash** can cost by the same
discipline applied to storage.  Kuperberg's *Enabling Deletion in
Append-Only Blockchains* and Manevich et al.'s redactable-ledger work
(PAPERS.md) show the shape: an append-only log stays authoritative while
its *prefix* becomes deletable the moment a checkpoint covers it.  Here:

* **Write-ahead log** — every step fed to a :class:`DurableEngine` is
  appended (one compact JSON line, :func:`repro.io.wal_record_to_line`)
  to a segment file *before* the engine applies it.  Sharded engines keep
  per-shard segment files (records carry a global sequence number, so
  recovery merges them back into arrival order); steps the router answers
  itself (deferred BEGINs, post-abort traffic) land in the ``router``
  stream.  Out-of-loop mutations (explicit sweeps, batch flushes) are
  logged as *control* records so replay reproduces them too.
* **Incremental checkpoints** — every ``checkpoint_interval`` records a
  checkpoint is written atomically (tmp file + fsync + ``os.replace``).
  It holds the engine's *core*, ``snapshot(include_logs=False)``: live
  state only (graph kernel, currency, counters, and for a sharded
  engine the router's forest, which holds live keys only).  The
  history-sized sections are the paper's forgettable history, and each
  checkpoint stores only their **delta** since the previous one:
  ``engine.log_delta(marks)``, where *marks* is the
  ``engine.log_marks()`` the previous checkpoint took.  The logs are the
  step results, the scheduler input log, the ordered deletion log and
  the graph's abort log; a sharded engine adds its global result and
  deletion logs and nests one per-shard delta.  The aborted sets of the
  schedulers and of the sharded router have no log of their own: each
  is rebuilt from the results of its only writer, ``feed``.  This module
  never looks inside either payload, so it serves a plain and a sharded
  engine through the same code.  Per-checkpoint cost is O(live state +
  interval), not O(history) — checkpoints stay cheap forever, which is
  what makes a small interval affordable (benchmarked in E17).  Files
  are stamped ``format`` :data:`CHECKPOINT_FORMAT` (3: aborted sets out
  of the core; format-2 files are not read).
* **Truncation** — segments are grouped into *epochs* that roll at each
  checkpoint; once the checkpoint is durably on disk every segment of an
  older epoch is covered by it and deleted.  The WAL's steady-state
  footprint is one checkpoint interval of records.
* **Recovery** — :func:`recover` loads the checkpoint chain (validating
  every link; a corrupt checkpoint **aborts** with
  :class:`~repro.errors.RecoveryError`), hands the latest core plus the
  chain of deltas to :func:`repro.io.restore_engine` (the engine class
  splices its own logs back in), then replays the WAL tail in sequence
  order; the restored engine's ``log_marks()`` are the next checkpoint's
  starting marks.  A torn *final* record —
  the one artifact a crash mid-append can legally produce — is detected,
  dropped, and repaired in place; an unreadable record anywhere else, or
  a gap in the sequence, raises
  :class:`~repro.errors.WalCorruptionError` instead of silently
  resurrecting a different history.  Recovery is **deterministic**: the
  recovered engine's snapshot is byte-identical to an uninterrupted run
  over the same logged prefix (the crash-injection suite pins this across
  all five schedulers and sharded mode).

Durability model: with the default ``sync="checkpoint"`` every record is
flushed to the OS (a *process* crash loses at most the torn tail) and
checkpoints/manifest are fsync'd; ``sync="always"`` additionally fsyncs
every appended record, extending the guarantee to power loss at a heavy
per-step cost (measured in E17).
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.engine import (
    BatchFeeder,
    EngineConfig,
    EngineObserver,
    build_engine,
)
from repro.errors import (
    DurabilityError,
    ModelError,
    RecoveryError,
    ReproError,
    WalCorruptionError,
    WalLockedError,
)
from repro.faults import StorageIO
from repro.io import (
    atomic_write_json,
    restore_engine,
    wal_record_from_line,
    wal_record_to_line,
)
from repro.io import WAL_RECORD_FORMAT
from repro.model.steps import Begin, Finish, Read, Step, Write, WriteItem
from repro.scheduler.events import StepResult

__all__ = [
    "MANIFEST_FORMAT",
    "CHECKPOINT_FORMAT",
    "DurableEngine",
    "RecoveryInfo",
    "recover",
    "open_durable",
]

MANIFEST_FORMAT = 1
MANIFEST_KIND = "wal-manifest"
MANIFEST_NAME = "MANIFEST.json"
CHECKPOINT_FORMAT = 3
CHECKPOINT_KIND = "durability-checkpoint"

_SEGMENTS_DIR = "segments"
_CHECKPOINTS_DIR = "checkpoints"
_SEGMENT_SUFFIX = ".wal"
_ENGINE_STREAM = "engine"
_ROUTER_STREAM = "router"
LOCK_NAME = "LOCK"

_SYNC_MODES = ("checkpoint", "always")

#: Shared passthrough shim — every engine without an explicit ``io``
#: routes storage calls through this (one method hop, no allocation).
_DEFAULT_IO = StorageIO()


def _segment_name(epoch: int, stream: str) -> str:
    return f"{epoch:08d}-{stream}{_SEGMENT_SUFFIX}"


def _parse_segment_name(name: str) -> Optional[Tuple[int, str]]:
    if not name.endswith(_SEGMENT_SUFFIX):
        return None
    stem = name[: -len(_SEGMENT_SUFFIX)]
    epoch_text, sep, stream = stem.partition("-")
    if not sep or not epoch_text.isdigit() or not stream:
        return None
    return int(epoch_text), stream


def _checkpoint_name(seq: int) -> str:
    return f"checkpoint-{seq:010d}.json"


def _parse_checkpoint_name(name: str) -> Optional[int]:
    if not (name.startswith("checkpoint-") and name.endswith(".json")):
        return None
    digits = name[len("checkpoint-") : -len(".json")]
    return int(digits) if digits.isdigit() else None


# ---------------------------------------------------------------------------
# Fast record encoding
# ---------------------------------------------------------------------------

import json as _json

_D = _json.dumps  # correct JSON string escaping


def _step_record_line(seq: int, step: Step) -> str:
    """Byte-identical fast path for :func:`repro.io.wal_record_to_line`.

    The WAL append sits on every feed; ``json.dumps`` of a freshly built
    dict costs ~5µs where a per-kind f-string costs ~1µs.  Key order and
    escaping match the reference codec exactly (compact separators,
    sorted keys) — pinned by a parity test — and unknown step kinds fall
    back to the reference encoder.
    """
    kind = type(step)
    head = f'{{"format":{WAL_RECORD_FORMAT},"seq":{seq},"step":'
    if kind is Read:
        return (
            f'{head}{{"entity":{_D(step.entity)},"kind":"read",'
            f'"txn":{_D(step.txn)}}}}}'
        )
    if kind is Write:
        entities = ",".join(_D(e) for e in sorted(step.entities))
        return (
            f'{head}{{"entities":[{entities}],"kind":"write",'
            f'"txn":{_D(step.txn)}}}}}'
        )
    if kind is WriteItem:
        return (
            f'{head}{{"entity":{_D(step.entity)},"kind":"write_item",'
            f'"txn":{_D(step.txn)}}}}}'
        )
    if kind is Begin:
        return f'{head}{{"kind":"begin","txn":{_D(step.txn)}}}}}'
    if kind is Finish:
        return f'{head}{{"kind":"finish","txn":{_D(step.txn)}}}}}'
    return wal_record_to_line(seq, step)


# ---------------------------------------------------------------------------
# Exclusive writer lock
# ---------------------------------------------------------------------------


def _pid_alive(pid: int) -> bool:
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


class _WalLock:
    """Exclusive advisory lock: one live writer per ``wal_dir``.

    Two engines appending to the same log would interleave sequence
    numbers and corrupt the segment order, so every open — fresh or via
    :func:`recover` — creates a ``LOCK`` file with ``O_CREAT|O_EXCL``
    recording the owner's PID.  A second open finds the file and raises
    :class:`~repro.errors.WalLockedError` while the recorded PID is
    alive; locks left by *dead* processes (a crash never releases) and
    torn/unreadable lock files are stale and reclaimed atomically.

    Reclaim protocol: the lock file itself is **never** unlinked by a
    non-owner (two openers observing the same dead PID could otherwise
    both unlink — and the second unlink can destroy the first opener's
    freshly-won lock).  Instead, a PID-stamped ``LOCK.claim`` file
    created with ``O_CREAT|O_EXCL`` serializes reclaimers; the winner
    re-verifies the recorded owner is still dead *under the claim*,
    publishes itself with an atomic ``os.replace(claim, LOCK)``, and
    re-reads the lock after publish to confirm ownership.  Losers see a
    live claimer (or a live new owner) and raise
    :class:`~repro.errors.WalLockedError` — exactly one process ever
    acquires.
    """

    def __init__(self, path: pathlib.Path, pid: int) -> None:
        self.path = path
        self.pid = pid
        self._released = False

    @classmethod
    def acquire(cls, wal_path: pathlib.Path) -> "_WalLock":
        path = pathlib.Path(wal_path) / LOCK_NAME
        claim = path.with_name(LOCK_NAME + ".claim")
        pid = os.getpid()
        owner: Optional[int] = None
        # The lock protocol below uses raw O_EXCL syscalls on purpose:
        # mutual exclusion must hold against *other processes*, so it
        # cannot ride the per-engine injectable StorageIO shim (a fault
        # plan delaying the lock would change who wins, not what a
        # crash does), and fault drills cover crashes around the lock
        # via process kills instead.
        for _attempt in range(6):
            try:
                # lint: allow(raw-syscall)
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                owner = cls._owner_pid(path)
                if owner is not None and _pid_alive(owner):
                    raise WalLockedError(wal_path, owner)
                # Stale (dead owner) or torn (unreadable): reclaim.
                lock = cls._reclaim_stale(wal_path, path, claim, pid)
                if lock is not None:
                    return lock
                continue
            # lint: allow(raw-syscall)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(_json.dumps({"pid": pid}) + "\n")
            return cls(path, pid)
        # Repeated reclaim attempts lost the race every time: something
        # is recreating the lock faster than we can claim it.
        raise WalLockedError(wal_path, owner if owner is not None else -1)

    @classmethod
    def _reclaim_stale(
        cls,
        wal_path: pathlib.Path,
        path: pathlib.Path,
        claim: pathlib.Path,
        pid: int,
    ) -> Optional["_WalLock"]:
        """One atomic reclaim attempt; the lock on success, ``None`` to
        re-run the acquire loop (the stale lock vanished or the publish
        was contended away)."""
        try:
            # Raw O_EXCL on purpose — cross-process mutual exclusion
            # (see acquire()).  # lint: allow(raw-syscall)
            fd = os.open(claim, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            claimer = cls._owner_pid(claim)
            if claimer is not None and _pid_alive(claimer):
                # A live reclaimer is mid-publish; it owns the outcome.
                raise WalLockedError(wal_path, claimer)
            # The claimer died mid-reclaim: clear its claim and retry.
            # (Deleting a *fresh* claim here is benign — its live owner
            # re-verifies the lock under the claim and after publish.)
            try:
                claim.unlink()
            except FileNotFoundError:
                pass
            return None
        # lint: allow(raw-syscall)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(_json.dumps({"pid": pid}) + "\n")
        try:
            # Re-verify under the claim: the owner may have changed
            # between the stale read and winning the claim.
            owner = cls._owner_pid(path)
            if owner is not None and _pid_alive(owner):
                raise WalLockedError(wal_path, owner)
            if not path.exists():
                return None  # released outright; retry the O_EXCL create
            # Atomic publish of the claim (see acquire()).
            # lint: allow(raw-syscall)
            os.replace(claim, path)
        except FileNotFoundError:
            return None  # our claim was swept by a racing cleanup; retry
        finally:
            try:
                claim.unlink()  # no-op when the replace consumed it
            except OSError:
                pass
        # Post-publish verification: only return owned if the lock file
        # really records us (paranoia against exotic interleavings).
        if cls._owner_pid(path) == pid:
            return cls(path, pid)
        return None

    @staticmethod
    def _owner_pid(path: pathlib.Path) -> Optional[int]:
        try:
            payload = _json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        pid = payload.get("pid") if isinstance(payload, dict) else None
        return pid if isinstance(pid, int) else None

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        try:
            self.path.unlink()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Segment writer
# ---------------------------------------------------------------------------


class _WalWriter:
    """Append-only JSONL segment files, one per (epoch, stream).

    Files are opened lazily on first append and flushed per record, so a
    process crash tears at most the final line.  ``sync_always`` adds an
    fsync per record (power-loss durability).
    """

    def __init__(
        self, directory: pathlib.Path, *, sync_always: bool,
        io: StorageIO = _DEFAULT_IO,
    ) -> None:
        self._dir = directory
        self._sync_always = sync_always
        self._io = io
        self._epoch = 0
        self._files: Dict[str, Any] = {}

    @property
    def epoch(self) -> int:
        return self._epoch

    def set_epoch(self, epoch: int) -> None:
        self.close()
        self._epoch = epoch

    def append(self, stream: str, line: str) -> None:
        handle = self._files.get(stream)
        if handle is None:
            path = self._dir / _segment_name(self._epoch, stream)
            # Power-loss durability needs the new segment's directory
            # entry on disk too, not just its records.
            handle = self._io.open_append(
                path, self._dir, fsync_dir=self._sync_always
            )
            self._files[stream] = handle
        self._io.append_line(handle, line)
        if self._sync_always:
            self._io.fsync(handle)

    def roll(self, new_epoch: int) -> None:
        """Close the current epoch's files and start a new epoch."""
        self.set_epoch(new_epoch)

    def truncate_before(self, epoch: int) -> int:
        """Delete every segment of an epoch older than *epoch*; returns
        how many files were removed (the checkpoint covering them is
        already durable — this is the paper's deletable prefix, on disk).
        """
        removed = 0
        for path in sorted(self._dir.iterdir()):
            parsed = _parse_segment_name(path.name)
            if parsed is not None and parsed[0] < epoch:
                path.unlink()
                removed += 1
        return removed

    def close(self) -> None:
        # Exception-tolerant: close() runs on demotion paths where the
        # storage below may be actively failing — a handle that cannot
        # flush must not keep the lock held or the engine half-open.
        for handle in self._files.values():
            try:
                handle.close()
            except OSError:
                pass
        self._files.clear()


# ---------------------------------------------------------------------------
# Recovery report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryInfo:
    """What one :func:`recover` call found and did."""

    checkpoint_seq: int
    checkpoints_loaded: int
    replayed_steps: int
    replayed_controls: int
    torn_records_dropped: int
    repaired_segments: Tuple[str, ...]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "checkpoint_seq": self.checkpoint_seq,
            "checkpoints_loaded": self.checkpoints_loaded,
            "replayed_steps": self.replayed_steps,
            "replayed_controls": self.replayed_controls,
            "torn_records_dropped": self.torn_records_dropped,
            "repaired_segments": list(self.repaired_segments),
        }


# ---------------------------------------------------------------------------
# The durable engine
# ---------------------------------------------------------------------------


class DurableEngine(BatchFeeder):
    """A crash-safe wrapper around any engine (plain or sharded).

    Every fed step is WAL-appended before it is applied; a checkpoint is
    taken every *checkpoint_interval* records (0 disables the cadence —
    call :meth:`checkpoint` manually).  Use module-level :func:`recover`
    to resume from a crashed ``wal_dir``.  Read-only views (``stats``,
    ``graph``, ``accepted_subschedule`` …) delegate to the wrapped engine
    (also reachable as :attr:`engine`); state mutations must go through
    this wrapper, or they will not survive a crash.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        wal_dir,
        shards: int = 1,
        checkpoint_interval: int = 64,
        sync: str = "checkpoint",
        observers: Iterable[EngineObserver] = (),
        io: Optional[StorageIO] = None,
        **overrides: Any,
    ) -> None:
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        if not isinstance(checkpoint_interval, int) or checkpoint_interval < 0:
            raise DurabilityError(
                f"checkpoint_interval must be a non-negative integer, got "
                f"{checkpoint_interval!r}"
            )
        if sync not in _SYNC_MODES:
            raise DurabilityError(
                f"unknown sync mode {sync!r}; known: {', '.join(_SYNC_MODES)}"
            )
        wal_path = pathlib.Path(wal_dir)
        if (wal_path / MANIFEST_NAME).exists():
            raise DurabilityError(
                f"{wal_path} already holds a write-ahead log; use "
                "repro.durability.recover() to resume it (or point wal_dir "
                "at an empty directory)"
            )
        inner = build_engine(config, shards=shards, observers=observers)
        self._init_common(
            inner,
            wal_path,
            config=config,
            shards=shards,
            checkpoint_interval=checkpoint_interval,
            sync=sync,
            seq=0,
            epoch=0,
            last_checkpoint_seq=0,
            marks=inner.log_marks(),
            write_manifest=True,
            io=io,
        )

    # -- construction plumbing ---------------------------------------------------

    def _init_common(
        self,
        inner,
        wal_path: pathlib.Path,
        *,
        config: EngineConfig,
        shards: int,
        checkpoint_interval: int,
        sync: str,
        seq: int,
        epoch: int,
        last_checkpoint_seq: int,
        marks: Dict[str, Any],
        write_manifest: bool,
        last_checkpoint_path: Optional[pathlib.Path] = None,
        io: Optional[StorageIO] = None,
        lock: Optional[_WalLock] = None,
    ) -> None:
        self._inner = inner
        self.wal_dir = wal_path
        self.config = config
        self.shard_count = shards
        self.checkpoint_interval = checkpoint_interval
        self.sync = sync
        self._seq = seq
        self._last_checkpoint_seq = last_checkpoint_seq
        self._last_checkpoint_path = last_checkpoint_path
        #: The last-written checkpoint payload, already core-stripped —
        #: lets the *next* checkpoint demote it without a disk read.
        #: None on a resumed engine (its latest link lives on disk only).
        self._last_checkpoint_payload: Optional[Dict[str, Any]] = None
        #: ``log_marks()`` as of the last checkpoint: where the next
        #: checkpoint's delta starts.
        self._marks = marks
        #: What :func:`recover` found and did (None on a fresh engine).
        self.recovery_info: Optional[RecoveryInfo] = None
        self._closed = False
        self._poisoned = False
        self._io = io if io is not None else _DEFAULT_IO
        segments = wal_path / _SEGMENTS_DIR
        checkpoints = wal_path / _CHECKPOINTS_DIR
        segments.mkdir(parents=True, exist_ok=True)
        checkpoints.mkdir(parents=True, exist_ok=True)
        self._checkpoints_dir = checkpoints
        if lock is None:
            lock = _WalLock.acquire(wal_path)
        self._lock = lock
        try:
            self._wal = _WalWriter(
                segments, sync_always=(sync == "always"), io=self._io
            )
            self._wal.set_epoch(epoch)
            if write_manifest:
                atomic_write_json(
                    wal_path / MANIFEST_NAME,
                    {
                        "format": MANIFEST_FORMAT,
                        "kind": MANIFEST_KIND,
                        "config": config.as_dict(),
                        "shards": shards,
                        "checkpoint_interval": checkpoint_interval,
                        "sync": sync,
                    },
                )
        except BaseException:
            lock.release()
            raise

    # -- delegation ---------------------------------------------------------------

    @property
    def engine(self):
        """The wrapped engine."""
        return self._inner

    @property
    def seq(self) -> int:
        """Sequence number of the last WAL record appended."""
        return self._seq

    @property
    def last_checkpoint_seq(self) -> int:
        return self._last_checkpoint_seq

    def __getattr__(self, name: str):
        # Read-only views (stats, graph, accepted_subschedule, aborted,
        # step_index, ...) pass straight through to the wrapped engine.
        # Private names never delegate (also breaks the recursion a
        # half-constructed instance would otherwise hit on self._inner).
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)

    def __repr__(self) -> str:
        return (
            f"DurableEngine({self._inner!r}, wal_dir={str(self.wal_dir)!r}, "
            f"seq={self._seq}, checkpointed={self._last_checkpoint_seq})"
        )

    # -- the durable loop ---------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise DurabilityError("this durable engine has been closed")
        if self._poisoned:
            raise DurabilityError(
                "this durable engine hit a storage fault mid-append; "
                "close it and recover() the wal_dir (appending past a "
                "torn record would corrupt the log)"
            )

    def _stream_for(self, step: Optional[Step]) -> str:
        """The segment stream a record lands in (*step* None: a control
        record).  One shard logs everything to the ``engine`` stream;
        a sharded engine logs each step to its shard's stream and
        controls plus router-answered steps to the ``router`` stream."""
        if self.shard_count == 1:
            return _ENGINE_STREAM
        if step is None:
            return _ROUTER_STREAM
        # peek (no path compression!) so the WAL never perturbs the
        # router's forest relative to an un-instrumented run.
        shard = self._inner.router.peek_shard_of_txn(step.txn)
        if shard is None:
            return _ROUTER_STREAM
        return f"shard{shard:02d}"

    def feed(self, step: Step) -> StepResult:
        """WAL-append *step*, apply it, checkpoint when the cadence is due."""
        self._require_open()
        seq = self._seq + 1
        self._append(self._stream_for(step), _step_record_line(seq, step))
        self._seq = seq
        result = self._inner.feed(step)
        self._maybe_checkpoint()
        return result

    def _append(self, stream: str, line: str) -> None:
        """One WAL append; a failure poisons the engine (the segment may
        now end in a torn record — appending more would bury it mid-file
        where recovery rightly refuses to repair)."""
        try:
            self._wal.append(stream, line)
        except BaseException:
            self._poisoned = True
            raise

    def _maybe_checkpoint(self) -> None:
        if (
            self.checkpoint_interval
            and self._seq - self._last_checkpoint_seq >= self.checkpoint_interval
        ):
            self.checkpoint()

    def _control(self, op: str, apply):
        """Log control record *op*, then run *apply* (the engine's own
        method of that name), so replay reproduces the mutation."""
        self._require_open()
        seq = self._seq + 1
        line = wal_record_to_line(seq, control=op)
        self._append(self._stream_for(None), line)
        self._seq = seq
        outcome = apply()
        self._maybe_checkpoint()
        return outcome

    def sweep(self):
        """Explicit policy sweep, logged."""
        return self._control("sweep", self._inner.sweep)

    def flush_pending(self) -> int:
        """Materialize deferred BEGINs, logged; returns how many (always
        0 on one shard, which defers none)."""
        return self._control("flush_pending", self._inner.flush_pending)

    def flush_and_sweep(self) -> None:
        """The ``feed_batch(flush=True)`` epilogue, logged as ``flush``.

        Each of these mutations is intercepted here (instead of falling
        through ``__getattr__``) because the un-wrapped method would
        mutate engine state with no WAL record — a crash right after
        would replay to a different engine.
        """
        self._control("flush", self._inner.flush_and_sweep)

    # -- checkpoints ---------------------------------------------------------------

    def checkpoint(self) -> Optional[int]:
        """Write one incremental checkpoint now; returns its seq.

        No-op (returns ``None``) when nothing was logged since the last
        checkpoint.  On success the WAL epoch rolls and every segment the
        new checkpoint covers is deleted.
        """
        self._require_open()
        seq = self._seq
        if seq == self._last_checkpoint_seq:
            return None
        inner = self._inner
        core = inner.snapshot(include_logs=False)
        marks = inner.log_marks()
        delta = inner.log_delta(self._marks)
        payload = {
            "format": CHECKPOINT_FORMAT,
            "kind": CHECKPOINT_KIND,
            "seq": seq,
            "prev_seq": self._last_checkpoint_seq,
            "epoch": self._wal.epoch,
            "core": core,
            "delta": delta,
        }
        path = self._checkpoints_dir / _checkpoint_name(seq)
        try:
            self._io.write_checkpoint(
                path, _json.dumps(payload, separators=(",", ":")) + "\n"
            )
        except BaseException:
            if path.exists():
                # The rename published the checkpoint but a later stage
                # (the directory fsync) failed: disk now disagrees with
                # the in-memory chain state, and continuing would write
                # the next checkpoint with a stale prev_seq — a broken
                # chain.  Poison: close + recover() resolves it (the
                # published file simply becomes the latest link).
                self._poisoned = True
            raise
        # The checkpoint is durable: advance the chain, roll the epoch,
        # delete the WAL prefix it covers, and strip the now-superseded
        # predecessor down to its delta (recovery only ever restores the
        # *latest* core; keeping every historical core would make the
        # chain O(history x live state) on disk).
        self._strip_superseded_checkpoint()
        self._last_checkpoint_path = path
        payload.pop("core")
        payload["core_stripped"] = True
        self._last_checkpoint_payload = payload
        self._marks = marks
        self._last_checkpoint_seq = seq
        self._wal.roll(self._wal.epoch + 1)
        self._wal.truncate_before(self._wal.epoch)
        return seq

    def _strip_superseded_checkpoint(self) -> None:
        previous = self._last_checkpoint_path
        if previous is None or not previous.exists():
            return
        payload = self._last_checkpoint_payload
        if payload is None:
            # Resumed engine: the superseded link came from disk (once,
            # at recovery); read it back to strip its core.
            import json

            try:
                payload = json.loads(previous.read_text())
            except (OSError, json.JSONDecodeError):
                return  # leave it for recovery to report
            if payload.pop("core", None) is None:
                return
            payload["core_stripped"] = True
        # No fsync: stripping is a space optimization, not a durability
        # step — if this write is lost the superseded link just keeps its
        # core, which recovery tolerates on non-latest links.
        atomic_write_json(previous, payload, indent=None, fsync=False)

    def close(self, *, checkpoint: bool = False) -> None:
        """Close the WAL files (optionally after a final checkpoint).

        The file handles are closed and the writer lock released even
        when the final checkpoint raises — a close on a failing disk
        must still surrender the directory so :func:`recover` can take
        over.
        """
        if self._closed:
            return
        try:
            if checkpoint and not self._poisoned:
                self.checkpoint()
        finally:
            self._closed = True
            self._wal.close()
            if self._lock is not None:
                self._lock.release()
                self._lock = None

    def simulate_crash(self) -> None:
        """Abandon the engine the way a process kill would.

        Drops the segment file handles and the writer lock **without**
        checkpointing or truncating anything.  Every append was already
        flushed, so the on-disk state after this call is byte-identical
        to a real mid-run crash; the lock is released because a dead
        PID's stale lock is reclaimed by :func:`recover` anyway (in
        process, holding it would just block the test's own recovery).
        Crash-injection suites use this between "kill" and ``recover``.
        """
        if self._closed:
            return
        self._closed = True
        self._wal.close()
        if self._lock is not None:
            self._lock.release()
            self._lock = None

    def __enter__(self) -> "DurableEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def _load_manifest(
    wal_path: pathlib.Path,
) -> Tuple[Dict[str, Any], EngineConfig]:
    """The validated WAL manifest and the engine config it records."""
    manifest_path = wal_path / MANIFEST_NAME
    if not manifest_path.exists():
        raise RecoveryError(
            f"{wal_path} has no {MANIFEST_NAME}; not a write-ahead log "
            "directory (or the manifest was lost — recovery cannot guess "
            "the engine configuration)"
        )
    from repro.io import engine_snapshot_from_json

    try:
        manifest = engine_snapshot_from_json(manifest_path.read_text())
    except ModelError as exc:
        raise RecoveryError(f"corrupt WAL manifest: {exc}") from exc
    if (
        manifest.get("format") != MANIFEST_FORMAT
        or manifest.get("kind") != MANIFEST_KIND
    ):
        raise RecoveryError(
            f"unsupported WAL manifest stamp (format="
            f"{manifest.get('format')!r}, kind={manifest.get('kind')!r})"
        )
    for key in ("config", "shards"):
        if key not in manifest:
            raise RecoveryError(f"WAL manifest is missing the {key!r} section")
    try:
        config = EngineConfig(**manifest["config"])
    except (TypeError, ReproError) as exc:
        raise RecoveryError(f"WAL manifest config is invalid: {exc}") from exc
    return manifest, config


def _load_checkpoint_chain(
    checkpoints_dir: pathlib.Path,
) -> List[Tuple[Dict[str, Any], pathlib.Path]]:
    """Every checkpoint, seq order, each strictly validated.

    Checkpoints are written atomically, so a *torn* checkpoint cannot
    exist — an unreadable or inconsistent one means real corruption and
    recovery must abort (the covered WAL prefix is already deleted;
    silently skipping a link would resurrect a different history).

    Superseded links are stripped down to their delta when the next
    checkpoint lands (``core_stripped``); only the **latest** link must
    still carry a restorable core.
    """
    import json

    entries: List[Tuple[int, pathlib.Path]] = []
    if checkpoints_dir.is_dir():
        for path in checkpoints_dir.iterdir():
            seq = _parse_checkpoint_name(path.name)
            if seq is not None:
                entries.append((seq, path))
    entries.sort()
    chain: List[Tuple[Dict[str, Any], pathlib.Path]] = []
    prev_seq = 0
    for seq, path in entries:
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise RecoveryError(
                f"corrupt checkpoint {path.name}: {exc} — aborting recovery "
                "(a checkpoint is never torn; this is data loss, not a "
                "crashed append)"
            ) from exc
        if (
            not isinstance(payload, dict)
            or payload.get("format") != CHECKPOINT_FORMAT
            or payload.get("kind") != CHECKPOINT_KIND
        ):
            raise RecoveryError(
                f"checkpoint {path.name} has an unsupported format stamp"
            )
        if payload.get("seq") != seq:
            raise RecoveryError(
                f"checkpoint {path.name} claims seq {payload.get('seq')!r}"
            )
        if payload.get("prev_seq") != prev_seq:
            raise RecoveryError(
                f"checkpoint chain is broken at {path.name}: expected "
                f"prev_seq {prev_seq}, found {payload.get('prev_seq')!r}"
            )
        if "delta" not in payload:
            raise RecoveryError(
                f"checkpoint {path.name} is missing the 'delta' section"
            )
        if "core" not in payload and not payload.get("core_stripped"):
            raise RecoveryError(
                f"checkpoint {path.name} carries neither a core nor a "
                "core-stripped stamp"
            )
        chain.append((payload, path))
        prev_seq = seq
    if chain and "core" not in chain[-1][0]:
        raise RecoveryError(
            f"latest checkpoint {chain[-1][1].name} has no core (a crash "
            "can strip only superseded links); the chain cannot restore"
        )
    return chain


def _scan_segments(
    segments_dir: pathlib.Path,
) -> Tuple[
    List[Tuple[int, Optional[Step], Optional[str]]],
    int,
    List[Tuple[pathlib.Path, int]],
]:
    """Parse every WAL record on disk, tolerating one torn line per
    segment **tail** (repair happens later, after validation).

    Returns (records sorted by seq, torn-line count, (file, good-prefix
    byte length) pairs to repair).
    """
    records: List[Tuple[int, Optional[Step], Optional[str]]] = []
    torn = 0
    repairs: List[Tuple[pathlib.Path, int]] = []
    if not segments_dir.is_dir():
        return records, torn, repairs
    for path in sorted(segments_dir.iterdir()):
        if _parse_segment_name(path.name) is None:
            continue
        text = path.read_bytes().decode("utf-8", errors="replace")
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        offset = 0
        for index, line in enumerate(lines):
            try:
                seq, step, control = wal_record_from_line(line)
            except ModelError as exc:
                if index == len(lines) - 1:
                    # The one legal artifact of a crash mid-append: the
                    # final line of a segment.  Whether it is *the*
                    # globally-last record is verified by the sequence
                    # contiguity check after the merge.
                    torn += 1
                    repairs.append((path, offset))
                    break
                raise WalCorruptionError(
                    f"unreadable WAL record at {path.name}:{index + 1} "
                    f"(not the segment tail): {exc}"
                ) from exc
            records.append((seq, step, control))
            offset += len(line.encode("utf-8")) + 1
    records.sort(key=lambda item: item[0])
    return records, torn, repairs


def recover(
    wal_dir,
    *,
    observers: Iterable[EngineObserver] = (),
    checkpoint_interval: Optional[int] = None,
    sync: Optional[str] = None,
    io: Optional[StorageIO] = None,
) -> DurableEngine:
    """Rebuild a live :class:`DurableEngine` from a crashed ``wal_dir``.

    Loads the latest valid checkpoint chain (corrupt chain ⇒
    :class:`~repro.errors.RecoveryError`), replays the WAL tail in
    sequence order (torn final record dropped and repaired; any other
    damage ⇒ :class:`~repro.errors.WalCorruptionError`), and resumes
    logging where the crash left off.  The result is byte-identical to an
    uninterrupted run over the same logged prefix.  *observers* are
    attached **after** replay, so they see only post-recovery events.

    The exclusive writer lock is taken before the directory is read (a
    live writer would mutate segments under the scan) and released again
    if recovery fails; pass *io* to route the resumed engine's storage
    calls — and this recovery's repairs — through a custom
    :class:`~repro.faults.StorageIO` shim.
    """
    wal_path = pathlib.Path(wal_dir)
    storage = io if io is not None else _DEFAULT_IO
    storage.check("recover.start")
    manifest, config = _load_manifest(wal_path)
    shards = int(manifest["shards"])

    lock = _WalLock.acquire(wal_path)
    try:
        state = _restore_from_chain(wal_path, config, shards)
        tail = _read_tail(wal_path, state.checkpoint_seq)
        replayed_steps, replayed_controls = _replay(state.inner, tail.records)
        engine = _resume(
            state.inner, state, tail, manifest, config,
            checkpoint_interval=checkpoint_interval,
            sync=sync,
            storage=storage,
            lock=lock,
        )
        for observer in observers:
            engine._inner.subscribe(observer)
    except BaseException:
        lock.release()
        raise
    engine.recovery_info = RecoveryInfo(
        checkpoint_seq=state.checkpoint_seq,
        checkpoints_loaded=state.checkpoints_loaded,
        replayed_steps=replayed_steps,
        replayed_controls=replayed_controls,
        torn_records_dropped=tail.torn,
        repaired_segments=tuple(path.name for path, _ in tail.repairs),
    )
    return engine


@dataclass
class _ChainState:
    """Everything one checkpoint-chain restore yields.

    Shared between :func:`recover` and the replication follower
    (:mod:`repro.replication`): both need the same strictly-validated
    chain walk and freshly-restored engine — recovery wraps it in a
    :class:`DurableEngine`, the follower adopts it as its new live state.
    """

    wal_path: pathlib.Path
    checkpoint_seq: int
    checkpoints_loaded: int
    epoch: int  # next WAL epoch hint (latest checkpoint's + 1, or 0)
    inner: Any  # restored engine (or a fresh build when no chain)
    marks: Dict[str, Any]  # inner.log_marks() as restored
    latest_path: Optional[pathlib.Path]


def _restore_from_chain(
    wal_path: pathlib.Path, config: EngineConfig, shards: int
) -> _ChainState:
    """Load + validate the checkpoint chain and restore an engine from it.

    Raises :class:`~repro.errors.RecoveryError` on any chain damage; an
    empty chain yields a fresh engine at seq 0.
    """
    chain = _load_checkpoint_chain(wal_path / _CHECKPOINTS_DIR)
    if not chain:
        inner = build_engine(config, shards=shards)
        return _ChainState(
            wal_path=wal_path,
            checkpoint_seq=0,
            checkpoints_loaded=0,
            epoch=0,
            inner=inner,
            marks=inner.log_marks(),
            latest_path=None,
        )
    latest, latest_path = chain[-1]
    try:
        deltas = [checkpoint["delta"] for checkpoint, _path in chain]
        inner = restore_engine(latest["core"], deltas=deltas)
    except ReproError as exc:
        raise RecoveryError(
            f"checkpoint seq {latest['seq']} failed to restore: {exc}"
        ) from exc
    return _ChainState(
        wal_path=wal_path,
        checkpoint_seq=latest["seq"],
        checkpoints_loaded=len(chain),
        epoch=int(latest.get("epoch", 0)) + 1,
        inner=inner,
        marks=inner.log_marks(),
        latest_path=latest_path,
    )


@dataclass
class _Tail:
    """The WAL records past a checkpoint, validated for replay."""

    records: List[Tuple[int, Optional[Step], Optional[str]]]
    last_seq: int
    torn: int
    repairs: List[Tuple[pathlib.Path, int]]


def _read_tail(wal_path: pathlib.Path, checkpoint_seq: int) -> _Tail:
    """Every record past *checkpoint_seq*, checked to be replayable.

    A single crash can tear at most ONE append globally (records are
    written and flushed one at a time), so two torn tails mean the log
    itself is damaged — and since a torn record's seq is unreadable,
    the contiguity check could not see the loss.  The records past the
    checkpoint must then run without a gap.
    """
    records, torn, repairs = _scan_segments(wal_path / _SEGMENTS_DIR)
    if torn > 1:
        raise WalCorruptionError(
            f"{torn} torn segment tails found; a single crash can tear "
            "at most one record, so this log is damaged, not crashed"
        )
    tail = [record for record in records if record[0] > checkpoint_seq]
    expected = range(checkpoint_seq + 1, checkpoint_seq + 1 + len(tail))
    actual = [record[0] for record in tail]
    if actual != list(expected):
        raise WalCorruptionError(
            f"WAL tail is not contiguous after checkpoint seq "
            f"{checkpoint_seq}: expected seqs {expected.start}.."
            f"{expected.stop - 1}, found {actual[:20]}"
            + ("..." if len(actual) > 20 else "")
        )
    return _Tail(tail, actual[-1] if actual else checkpoint_seq, torn, repairs)


def _replay_record(inner, step, control) -> Optional[bool]:
    """Apply one WAL record to *inner* exactly as recovery does.

    Returns ``True`` when a step was applied, ``None`` when a step was
    rejected by the engine, and ``False`` for a control record.  A
    :class:`~repro.errors.ReproError` raised by the engine is the
    deterministic re-raise of an error the original run also hit (a
    rejected step mutates nothing) and is swallowed, exactly as the
    original caller's error path did.
    """
    try:
        if step is not None:
            inner.feed(step)
            return True
        if control == "sweep":
            inner.sweep()
        elif control == "flush":
            inner.flush_and_sweep()
        elif control == "flush_pending":
            inner.flush_pending()
    except ReproError:
        if step is not None:
            return None
    return False


def _replay(inner, records) -> Tuple[int, int]:
    """Replay *records* into *inner* in order; (steps applied, controls)."""
    steps = controls = 0
    for _seq, step, control in records:
        outcome = _replay_record(inner, step, control)
        if outcome is True:
            steps += 1
        elif outcome is False:
            controls += 1
    return steps, controls


def _resume(
    inner,
    state: _ChainState,
    tail: _Tail,
    manifest: Dict[str, Any],
    config: EngineConfig,
    *,
    checkpoint_interval: Optional[int],
    sync: Optional[str],
    storage: StorageIO,
    lock: _WalLock,
) -> DurableEngine:
    """Reopen the sealed log for writing with *inner* at ``tail.last_seq``.

    The validation passed, so the torn tails are repaired in place (a
    later recovery of the same directory sees only complete records) and
    logging resumes in an epoch past every segment on disk.  Shared by
    :func:`recover` and :meth:`repro.replication.WalFollower.promote`.
    """
    wal_path = state.wal_path
    for path, offset in tail.repairs:
        storage.truncate(path, offset)
    epoch = state.epoch
    for path in (wal_path / _SEGMENTS_DIR).iterdir():
        parsed = _parse_segment_name(path.name)
        if parsed is not None and parsed[0] >= epoch:
            epoch = parsed[0] + 1
    engine = DurableEngine.__new__(DurableEngine)
    engine._init_common(
        inner,
        wal_path,
        config=config,
        shards=int(manifest["shards"]),
        checkpoint_interval=(
            checkpoint_interval
            if checkpoint_interval is not None
            else int(manifest.get("checkpoint_interval", 64))
        ),
        sync=sync if sync is not None else str(manifest.get("sync", "checkpoint")),
        seq=tail.last_seq,
        epoch=epoch,
        last_checkpoint_seq=state.checkpoint_seq,
        marks=state.marks,
        write_manifest=False,
        last_checkpoint_path=state.latest_path,
        io=storage,
        lock=lock,
    )
    return engine


def open_durable(
    wal_dir,
    config: Optional[EngineConfig] = None,
    *,
    shards: Optional[int] = None,
    checkpoint_interval: Optional[int] = None,
    sync: Optional[str] = None,
    observers: Iterable[EngineObserver] = (),
    io: Optional[StorageIO] = None,
    **overrides: Any,
) -> DurableEngine:
    """Open *wal_dir* whether or not it already holds a durable engine.

    The serving layer's create-or-recover entry point: if *wal_dir*
    carries a manifest, the engine is rebuilt with :func:`recover` (and a
    ``config``/``shards`` explicitly passed here must match what the
    manifest records — a mismatch raises :class:`DurabilityError` rather
    than silently serving a different configuration); otherwise a fresh
    :class:`DurableEngine` is created with the given configuration.
    """
    wal_path = pathlib.Path(wal_dir)
    manifest_path = wal_path / MANIFEST_NAME
    if manifest_path.exists():
        engine = recover(
            wal_path,
            observers=observers,
            checkpoint_interval=checkpoint_interval,
            sync=sync,
            io=io,
        )
        if shards is not None and engine.shard_count != shards:
            engine.close()
            raise DurabilityError(
                f"wal_dir {str(wal_path)!r} was created with "
                f"shards={engine.shard_count}, but open_durable was "
                f"asked for shards={shards}"
            )
        if config is not None or overrides:
            want = config if config is not None else EngineConfig()
            if overrides:
                want = dataclasses.replace(want, **overrides)
            have = engine.config
            if dataclasses.asdict(want) != dataclasses.asdict(have):
                engine.close()
                raise DurabilityError(
                    f"wal_dir {str(wal_path)!r} records config {have!r}, "
                    f"which differs from the requested {want!r}"
                )
        return engine
    return DurableEngine(
        config,
        wal_dir=wal_path,
        shards=1 if shards is None else shards,
        checkpoint_interval=(
            64 if checkpoint_interval is None else checkpoint_interval
        ),
        sync="checkpoint" if sync is None else sync,
        observers=observers,
        io=io,
        **overrides,
    )
