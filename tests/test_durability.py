"""Durability units: atomic writes, WAL codec, checkpoints, recovery.

The crash-injection *equivalence* suite (recovered run byte-identical to
an uninterrupted one, all five schedulers, sharded and monolithic) lives
in ``tests/test_crash_recovery_equivalence.py``; this module pins the
mechanisms it is built on — torn-write-proof file dumps, strict record
and payload validation, segment truncation, torn-tail repair, and the
abort-impact restore path.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import time

import pytest

from repro import durability

from repro.durability import (
    CHECKPOINT_KIND,
    DurableEngine,
    MANIFEST_NAME,
    recover,
)
from repro.engine import Engine
from repro.errors import (
    DurabilityError,
    ModelError,
    RecoveryError,
    SnapshotError,
    WalCorruptionError,
)
from repro.io import (
    atomic_write_text,
    engine_snapshot_from_json,
    engine_snapshot_to_json,
    graph_from_dict,
    graph_from_json,
    restore_engine,
    step_from_dict,
    wal_record_from_line,
    wal_record_to_line,
)
from repro.model.steps import Begin, Read, Write
from repro.workloads.generator import WorkloadConfig, basic_stream

CONFIG = WorkloadConfig(
    n_transactions=40, n_entities=10, multiprogramming=5,
    write_fraction=0.4, max_accesses=3, seed=11,
)


def _stream():
    return list(basic_stream(CONFIG))


def _durable(tmp_path, **kwargs):
    kwargs.setdefault("scheduler", "conflict-graph")
    kwargs.setdefault("policy", "eager-c1")
    kwargs.setdefault("checkpoint_interval", 16)
    return DurableEngine(wal_dir=tmp_path / "wal", **kwargs)


def _last_segment(wal_dir):
    segments = sorted(
        (wal_dir / "segments").iterdir(), key=lambda p: p.stat().st_mtime
    )
    return segments[-1]


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text() == "two"
        assert list(tmp_path.iterdir()) == [target]  # no tmp litter

    def test_published_file_gets_umask_mode_not_0600(self, tmp_path):
        """mkstemp's private 0600 must not leak through os.replace and
        silently revoke other readers of a regenerated artifact."""
        target = tmp_path / "artifact.json"
        atomic_write_text(target, "shared")
        umask = os.umask(0)
        os.umask(umask)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_failure_mid_write_preserves_old_file(self, tmp_path, monkeypatch):
        """A crash between tmp-write and rename must leave the old file
        byte-identical (the bare ``open(...).write`` bug this replaces
        would have torn it)."""
        target = tmp_path / "snapshot.json"
        atomic_write_text(target, "precious old content")

        def exploding_replace(src, dst):
            raise OSError("simulated crash during publish")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(target, "half-written new content")
        monkeypatch.undo()
        assert target.read_text() == "precious old content"
        assert list(tmp_path.iterdir()) == [target]  # tmp file cleaned up

    def test_cli_dump_output_is_atomic(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        out = tmp_path / "graph.json"
        assert main([
            "dump", "--transactions", "12", "--format", "json",
            "--output", str(out),
        ]) == 0
        first = out.read_text()
        json.loads(first)  # parseable

        def exploding_replace(src, dst):
            raise OSError("simulated crash during publish")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            main([
                "dump", "--transactions", "12", "--seed", "3",
                "--format", "json", "--output", str(out),
            ])
        monkeypatch.undo()
        assert out.read_text() == first  # old dump survived intact


# ---------------------------------------------------------------------------
# WAL record codec
# ---------------------------------------------------------------------------


class TestWalRecords:
    def test_step_roundtrip(self):
        for step in (Begin("T1"), Read("T1", "x"), Write("T1", {"x", "y"})):
            seq, decoded, control = wal_record_from_line(
                wal_record_to_line(7, step)
            )
            assert (seq, decoded, control) == (7, step, None)

    def test_fast_encoder_matches_reference_codec(self):
        """The per-kind f-string fast path must emit byte-identical lines
        to the reference ``wal_record_to_line`` for every step kind."""
        from repro.durability import _step_record_line
        from repro.model.status import AccessMode
        from repro.model.steps import BeginDeclared, Finish, WriteItem

        steps = [
            Begin("T1"),
            Begin('T"quote\\weird'),
            BeginDeclared("T2", {"x": AccessMode.READ, "a": AccessMode.WRITE}),
            Read("T3", "entity-π"),
            Write("T4", frozenset()),
            Write("T4", {"z", "a", "m"}),
            WriteItem("T5", "x"),
            Finish("T6"),
        ]
        for seq, step in enumerate(steps, start=1):
            assert _step_record_line(seq, step) == wal_record_to_line(seq, step)

    def test_control_roundtrip(self):
        seq, step, control = wal_record_from_line(
            wal_record_to_line(3, control="sweep")
        )
        assert (seq, step, control) == (3, None, "sweep")

    @pytest.mark.parametrize("line", [
        "",  # empty
        "{not json",
        '"a string"',
        '{"format":99,"seq":1,"control":"sweep"}',  # bad format
        '{"format":1,"control":"sweep"}',  # missing seq
        '{"format":1,"seq":0,"control":"sweep"}',  # non-positive seq
        '{"format":1,"seq":true,"control":"sweep"}',  # bool seq
        '{"format":1,"seq":1}',  # neither step nor control
        '{"format":1,"seq":1,"control":"dance"}',  # unknown control
        '{"format":1,"seq":1,"step":{"kind":"read","txn":"T1"}}',  # no entity
    ])
    def test_malformed_records_raise_model_error(self, line):
        with pytest.raises(ModelError):
            wal_record_from_line(line)

    def test_encoder_rejects_ambiguous_records(self):
        with pytest.raises(ModelError):
            wal_record_to_line(1)
        with pytest.raises(ModelError):
            wal_record_to_line(1, Begin("T1"), control="sweep")
        with pytest.raises(ModelError):
            wal_record_to_line(1, control="dance")


# ---------------------------------------------------------------------------
# Strict payload validation (the torn-vs-corrupt distinction)
# ---------------------------------------------------------------------------


class TestPayloadValidation:
    def test_truncated_graph_json_is_model_error(self):
        with pytest.raises(ModelError, match="not valid JSON"):
            graph_from_json('{"format": 2, "nodes": [')

    def test_graph_dict_names_missing_section(self):
        with pytest.raises(ModelError, match="'nodes'"):
            graph_from_dict({"format": 2, "closure": {}})
        with pytest.raises(ModelError, match="'closure'"):
            graph_from_dict({"format": 2, "nodes": []})
        with pytest.raises(ModelError, match="'format'"):
            graph_from_dict({})
        with pytest.raises(ModelError):
            graph_from_dict("not a dict")

    def test_graph_dict_wraps_mangled_node(self):
        with pytest.raises(ModelError, match="invalid section"):
            graph_from_dict({
                "format": 1,
                "nodes": [{"txn": "T1", "state": "NOT-A-STATE",
                           "accesses": {}}],
                "arcs": [],
            })

    def test_truncated_snapshot_json_is_model_error(self):
        with pytest.raises(ModelError, match="truncated or not valid"):
            engine_snapshot_from_json('{"format": 1, "config": {"sch')

    def test_step_payload_names_missing_field(self):
        with pytest.raises(ModelError, match="'kind'"):
            step_from_dict({"txn": "T1"})
        with pytest.raises(ModelError, match="missing or invalid"):
            step_from_dict({"kind": "write", "txn": "T1"})

    def test_restore_engine_raises_snapshot_error_not_keyerror(self):
        engine = Engine(scheduler="conflict-graph", policy="eager-c1")
        engine.feed_batch(_stream()[:10])
        snapshot = engine.snapshot()
        del snapshot["scheduler_state"]["currency"]
        with pytest.raises(SnapshotError):
            restore_engine(snapshot)
        mangled = engine.snapshot()
        mangled["engine"]["step_index"] = "not-an-int"
        with pytest.raises(SnapshotError):
            restore_engine(mangled)


# ---------------------------------------------------------------------------
# Durable engine mechanics
# ---------------------------------------------------------------------------


class TestDurableEngine:
    def test_refuses_to_reopen_existing_wal(self, tmp_path):
        durable = _durable(tmp_path)
        durable.feed_many(_stream()[:5])
        durable.close()
        with pytest.raises(DurabilityError, match="recover"):
            _durable(tmp_path)

    def test_closed_engine_rejects_feeds(self, tmp_path):
        durable = _durable(tmp_path)
        durable.close()
        with pytest.raises(DurabilityError, match="closed"):
            durable.feed(Begin("T1"))

    def test_checkpoint_truncates_covered_segments(self, tmp_path):
        durable = _durable(tmp_path, checkpoint_interval=8)
        durable.feed_many(_stream())
        durable.feed(Begin("TX-extra"))  # ensure the current epoch has data
        segments = list((tmp_path / "wal" / "segments").iterdir())
        epochs = {p.name.split("-")[0] for p in segments}
        assert len(epochs) == 1  # only the current epoch survives
        # every record since the last checkpoint, nothing more
        lines = sum(
            len(p.read_text().splitlines()) for p in segments
        )
        assert lines == durable.seq - durable.last_checkpoint_seq

    def test_manual_checkpoint_and_noop(self, tmp_path):
        durable = _durable(tmp_path, checkpoint_interval=0)
        durable.feed_many(_stream()[:10])
        assert durable.last_checkpoint_seq == 0  # cadence disabled
        assert durable.checkpoint() == 10
        assert durable.checkpoint() is None  # nothing new

    def test_checkpoints_are_incremental(self, tmp_path):
        """Checkpoint N must carry only the delta since checkpoint N-1,
        not the full history (the O(live + interval) cost argument), and
        superseded checkpoints are stripped down to their deltas."""
        durable = _durable(tmp_path, checkpoint_interval=16)
        durable.feed_many(_stream())
        paths = sorted((tmp_path / "wal" / "checkpoints").iterdir())
        assert len(paths) >= 2
        payloads = [json.loads(p.read_text()) for p in paths]
        for payload in payloads[:-1]:
            # Only the latest link keeps a restorable core on disk.
            assert "core" not in payload
            assert payload["core_stripped"] is True
        for payload in payloads:
            assert payload["kind"] == CHECKPOINT_KIND
            assert len(payload["delta"]["results"]) <= 16
        latest = payloads[-1]
        core_state = latest["core"]["scheduler_state"]
        assert "results" not in core_state  # logs live in deltas
        assert "input_log" not in core_state
        assert "deleted" not in core_state["graph"]
        assert "deleted_ids" not in latest["core"]["stats"]
        # Aborted sets are history too: rebuilt from the delta chain.
        assert "aborted" not in core_state
        assert "aborted" not in core_state["graph"]
        total = sum(len(p["delta"]["results"]) for p in payloads)
        assert total == latest["seq"]

    def test_rejected_steps_survive_recovery_in_the_input_log(self, tmp_path):
        """A step whose processing *raises* is recorded in the input log
        but produces no result; the checkpoint delta chain must carry it
        (deriving the input log from results would silently drop it)."""
        from repro.errors import SchedulerError

        stream = _stream()
        wal_a = tmp_path / "a"
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=wal_a, checkpoint_interval=4,
        )
        oracle = Engine(scheduler="conflict-graph", policy="eager-c1")

        def feed_both(step):
            for engine in (durable, oracle):
                try:
                    engine.feed(step)
                except SchedulerError:
                    pass

        for step in stream[:10]:
            feed_both(step)
        feed_both(Read("T-unknown", "x"))  # raises: no BEGIN ever seen
        for step in stream[10:20]:
            feed_both(step)
        # crash AFTER a checkpoint covered the raising step
        assert durable.last_checkpoint_seq >= 11
        durable.simulate_crash()
        recovered = recover(wal_a)
        assert engine_snapshot_to_json(
            recovered.engine.snapshot()
        ) == engine_snapshot_to_json(oracle.snapshot())
        assert [str(s) for s in recovered.engine.scheduler.input_schedule] == [
            str(s) for s in oracle.scheduler.input_schedule
        ]

    def test_clean_shutdown_recovers_without_replay(self, tmp_path):
        durable = _durable(tmp_path)
        durable.feed_many(_stream())
        durable.close(checkpoint=True)
        resumed = recover(tmp_path / "wal")
        assert resumed.recovery_info.replayed_steps == 0
        assert resumed.stats.steps_fed == durable.stats.steps_fed

    def test_recovered_engine_keeps_logging(self, tmp_path):
        stream = _stream()
        durable = _durable(tmp_path)
        durable.feed_many(stream[:20])
        durable.simulate_crash()
        resumed = recover(tmp_path / "wal")
        resumed.feed_many(stream[20:40])
        resumed.close()
        # a second crash/recover sees the full prefix
        final = recover(tmp_path / "wal")
        assert final.stats.steps_fed == 40

    def test_sweep_control_record_replays(self, tmp_path):
        stream = _stream()
        durable = _durable(tmp_path, checkpoint_interval=0,
                           sweep_interval=1000)
        durable.feed_many(stream[:25])
        durable.sweep()  # explicit out-of-cadence sweep, logged
        deletions = durable.stats.deletions
        assert deletions > 0
        durable.simulate_crash()
        recovered = recover(tmp_path / "wal")
        assert recovered.stats.deletions == deletions
        assert recovered.recovery_info.replayed_controls == 1


# ---------------------------------------------------------------------------
# Recovery failure modes
# ---------------------------------------------------------------------------


class TestRecoveryFailures:
    def test_missing_manifest(self, tmp_path):
        (tmp_path / "wal").mkdir()
        with pytest.raises(RecoveryError, match="MANIFEST"):
            recover(tmp_path / "wal")

    def test_torn_tail_is_dropped_and_repaired(self, tmp_path):
        stream = _stream()
        durable = _durable(tmp_path)
        durable.feed_many(stream[:20])
        durable.close()
        segment = _last_segment(tmp_path / "wal")
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"format":1,"seq":9999,"step":{"kind":"re')
        recovered = recover(tmp_path / "wal")
        assert recovered.recovery_info.torn_records_dropped == 1
        assert recovered.recovery_info.repaired_segments == (segment.name,)
        assert recovered.stats.steps_fed == 20
        recovered.close()
        # idempotent: the repair removed the torn bytes for good
        again = recover(tmp_path / "wal")
        assert again.recovery_info.torn_records_dropped == 0

    def test_two_torn_tails_are_corruption_not_a_crash(self, tmp_path):
        """A single crash tears at most one append; two torn segment
        tails (possible only through damage) must abort, not be silently
        repaired away."""
        stream = _stream()
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal", shards=2, checkpoint_interval=0,
        )
        durable.feed_many(stream[:30])
        durable.close()
        segments = sorted((tmp_path / "wal" / "segments").iterdir())
        assert len(segments) >= 2
        for segment in segments[:2]:
            with open(segment, "a", encoding="utf-8") as handle:
                handle.write('{"format":1,"seq":77,"st')
        with pytest.raises(WalCorruptionError, match="torn segment tails"):
            recover(tmp_path / "wal")

    def test_flush_and_sweep_is_wal_logged(self, tmp_path):
        """The delegated ShardedEngine.flush_and_sweep must not bypass
        the WAL (an un-logged sweep would not survive a crash)."""
        stream = _stream()
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal", shards=2, checkpoint_interval=0,
            sweep_interval=1000,
        )
        durable.feed_many(stream[:25])
        durable.flush_and_sweep()
        deletions = durable.stats.deletions
        assert deletions > 0
        durable.simulate_crash()
        recovered = recover(tmp_path / "wal")
        assert recovered.stats.deletions == deletions
        assert recovered.recovery_info.replayed_controls == 1

    def test_one_shard_flush_pending_is_logged_and_replays(self, tmp_path):
        """One shard defers no BEGIN, so ``flush_pending`` flushes 0 —
        and is still a logged control record that recovery replays."""
        durable = _durable(tmp_path, checkpoint_interval=0)
        durable.feed_many(_stream()[:12])
        assert durable.flush_pending() == 0
        assert durable.seq == 13
        durable.simulate_crash()
        recovered = recover(tmp_path / "wal")
        assert recovered.recovery_info.replayed_steps == 12
        assert recovered.recovery_info.replayed_controls == 1
        assert recovered.seq == 13
        recovered.close()

    def test_one_shard_flush_and_sweep_is_logged(self, tmp_path):
        """The ``feed_batch(flush=True)`` epilogue is the same logged
        control on one shard as on many."""
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal", checkpoint_interval=0,
            sweep_interval=1000,
        )
        batch = durable.feed_batch(_stream()[:25], flush=True)
        assert batch.sweeps == 1
        deletions = durable.stats.deletions
        assert deletions > 0 and len(batch.deleted) == deletions
        durable.simulate_crash()
        recovered = recover(tmp_path / "wal")
        assert recovered.stats.deletions == deletions
        assert recovered.recovery_info.replayed_controls == 1
        recovered.close()

    def test_mid_segment_corruption_aborts(self, tmp_path):
        durable = _durable(tmp_path, checkpoint_interval=0)
        durable.feed_many(_stream()[:20])
        durable.close()
        segment = _last_segment(tmp_path / "wal")
        lines = segment.read_text().splitlines()
        lines[5] = lines[5][: len(lines[5]) // 2]  # tear a MIDDLE record
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalCorruptionError, match="not the segment tail"):
            recover(tmp_path / "wal")

    def test_sequence_gap_aborts(self, tmp_path):
        durable = _durable(tmp_path, checkpoint_interval=0)
        durable.feed_many(_stream()[:20])
        durable.close()
        segment = _last_segment(tmp_path / "wal")
        lines = segment.read_text().splitlines()
        del lines[7]  # a cleanly missing record is a gap, not a torn tail
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalCorruptionError, match="not contiguous"):
            recover(tmp_path / "wal")

    def test_corrupt_checkpoint_aborts_never_skips(self, tmp_path):
        durable = _durable(tmp_path, checkpoint_interval=8)
        durable.feed_many(_stream())
        durable.close()
        checkpoints = sorted((tmp_path / "wal" / "checkpoints").iterdir())
        assert len(checkpoints) >= 2
        checkpoints[-1].write_text('{"format": 1, "kind": "durability-che')
        with pytest.raises(RecoveryError, match="corrupt checkpoint"):
            recover(tmp_path / "wal")

    def test_broken_checkpoint_chain_aborts(self, tmp_path):
        durable = _durable(tmp_path, checkpoint_interval=8)
        durable.feed_many(_stream())
        durable.close()
        checkpoints = sorted((tmp_path / "wal" / "checkpoints").iterdir())
        assert len(checkpoints) >= 3
        checkpoints[1].unlink()  # a missing middle link loses deltas
        with pytest.raises(RecoveryError, match="chain is broken"):
            recover(tmp_path / "wal")

    def test_manifest_is_required_sections(self, tmp_path):
        wal = tmp_path / "wal"
        (wal).mkdir()
        (wal / MANIFEST_NAME).write_text(
            '{"format": 1, "kind": "wal-manifest", "shards": 1}'
        )
        with pytest.raises(RecoveryError, match="'config'"):
            recover(wal)


# ---------------------------------------------------------------------------
# Abort-impact tracking across restore (the restore-path audit)
# ---------------------------------------------------------------------------


def _aborty_stream():
    """A workload the conflict scheduler resolves with aborts."""
    config = WorkloadConfig(
        n_transactions=60, n_entities=6, multiprogramming=8,
        write_fraction=0.6, max_accesses=3, seed=23,
    )
    return list(basic_stream(config))


class TestAbortImpactRestore:
    def test_restore_reenables_abort_impact(self):
        engine = Engine(scheduler="conflict-graph", policy="eager-c1")
        engine.feed_batch(_aborty_stream()[:15])
        restored = Engine.restore(engine.snapshot())
        # eager-c1 consumes a dirty set, so the accumulator must be armed
        # the moment the graph exists — not lazily at some later feed.
        assert restored.graph._abort_impact is not None

    def test_restored_dirty_behavior_matches_uninterrupted(self):
        """Aborts after a restore must dirty the same impacted regions an
        uninterrupted run captures — no silent mark_all degradation
        (observable as diverging sweeps_skipped / dirty sets)."""
        stream = _aborty_stream()
        oracle = Engine(scheduler="conflict-graph", policy="eager-c1",
                        sweep_interval=4)
        aborted = 0
        for step in stream:
            aborted += len(oracle.feed(step).aborted)
        assert aborted > 0, "workload was meant to force aborts"

        for cut in (5, len(stream) // 2, len(stream) - 3):
            oracle = Engine(scheduler="conflict-graph", policy="eager-c1",
                            sweep_interval=4)
            oracle.feed_batch(stream)
            first = Engine(scheduler="conflict-graph", policy="eager-c1",
                           sweep_interval=4)
            first.feed_batch(stream[:cut])
            resumed = Engine.restore(
                json.loads(json.dumps(first.snapshot()))
            )
            resumed.feed_batch(stream[cut:])
            assert resumed.sweeps_skipped == oracle.sweeps_skipped
            assert (
                resumed._dirty_tracker.state_dict()
                == oracle._dirty_tracker.state_dict()
            )
            assert engine_snapshot_to_json(
                resumed.snapshot()
            ) == engine_snapshot_to_json(oracle.snapshot())


# ---------------------------------------------------------------------------
# Writer-lock stale reclaim (cross-process)
# ---------------------------------------------------------------------------


def _race_for_lock(wal_dir: str, barrier, queue) -> None:
    """Child process body: everyone acquires at once; report the outcome."""
    from repro.durability import _WalLock
    from repro.errors import WalLockedError

    barrier.wait()
    try:
        lock = _WalLock.acquire(pathlib.Path(wal_dir))
    except WalLockedError:
        queue.put(("lost", os.getpid()))
    except Exception as exc:  # pragma: no cover - diagnostic only
        queue.put(("error", f"{type(exc).__name__}: {exc}"))
    else:
        # Hold long enough that every loser has observed a *live* owner.
        time.sleep(0.5)
        lock.release()
        queue.put(("won", os.getpid()))


class TestWalLockStaleReclaim:
    """Pin the claim-file reclaim protocol: many processes racing to
    reclaim the same dead owner's lock must elect exactly one winner —
    the losers' unlinks can never destroy the winner's freshly-won
    lock (the regression the ``LOCK.claim`` handshake exists to stop).
    """

    def _forge_dead_owner(self, wal_dir: pathlib.Path) -> int:
        # A PID that existed and is now certainly dead: a child we reap.
        probe = multiprocessing.get_context("spawn").Process(target=int)
        probe.start()
        probe.join()
        dead_pid = probe.pid
        assert dead_pid is not None
        (wal_dir / "LOCK").write_text(
            json.dumps({"pid": dead_pid}) + "\n"
        )
        return dead_pid

    def test_exactly_one_process_reclaims_a_dead_lock(self, tmp_path):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        self._forge_dead_owner(wal_dir)
        context = multiprocessing.get_context("spawn")
        n_racers = 4
        barrier = context.Barrier(n_racers)
        queue = context.Queue()
        racers = [
            context.Process(
                target=_race_for_lock, args=(str(wal_dir), barrier, queue)
            )
            for _ in range(n_racers)
        ]
        for racer in racers:
            racer.start()
        outcomes = [queue.get(timeout=30) for _ in racers]
        for racer in racers:
            racer.join(timeout=30)
        errors = [detail for kind, detail in outcomes if kind == "error"]
        assert not errors, errors
        winners = [pid for kind, pid in outcomes if kind == "won"]
        assert len(winners) == 1, outcomes
        assert len([k for k, _ in outcomes if k == "lost"]) == n_racers - 1
        # The winner released cleanly: the directory is lockable again.
        lock = durability._WalLock.acquire(wal_dir)
        lock.release()

    def test_torn_lock_file_is_reclaimed_in_process(self, tmp_path):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        (wal_dir / "LOCK").write_text('{"pi')  # torn write: no owner
        lock = durability._WalLock.acquire(wal_dir)
        assert json.loads((wal_dir / "LOCK").read_text())["pid"] == os.getpid()
        lock.release()

    def test_stale_claim_from_dead_claimer_does_not_wedge(self, tmp_path):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        dead = self._forge_dead_owner(wal_dir)
        (wal_dir / "LOCK.claim").write_text(
            json.dumps({"pid": dead}) + "\n"
        )
        lock = durability._WalLock.acquire(wal_dir)
        assert json.loads((wal_dir / "LOCK").read_text())["pid"] == os.getpid()
        assert not (wal_dir / "LOCK.claim").exists()
        lock.release()
