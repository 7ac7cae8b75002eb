"""Checkpoint/restore: a restored engine continues bit-identically."""

from __future__ import annotations

import json

import pytest

from repro.engine import Engine, SNAPSHOT_FORMAT
from repro.errors import EngineError, SnapshotError
from repro.io import graph_to_dict
from repro.workloads.generator import (
    WorkloadConfig,
    basic_stream,
    multiwrite_stream,
    predeclared_stream,
)

CONFIG = WorkloadConfig(n_transactions=24, n_entities=6, seed=11)

#: (scheduler, policy, stream factory) for every model — including the
#: delaying schedulers, whose parked-step queues are the hard state to
#: carry across a checkpoint.
CASES = [
    ("conflict-graph", "eager-c1", basic_stream),
    ("conflict-graph", "noncurrent", basic_stream),
    ("certifier", "noncurrent", basic_stream),
    ("strict-2pl", "never", basic_stream),
    ("multiwrite", "eager-c3", multiwrite_stream),
    ("predeclared", "eager-c4", predeclared_stream),
]


def _engine_state(engine: Engine):
    """Everything observable that must survive a checkpoint."""
    return {
        "graph": graph_to_dict(engine.graph),
        "aborted": sorted(engine.aborted),
        "accepted": [str(s) for s in engine.accepted_subschedule()],
        "stats": engine.stats.as_dict(),
        "step_index": engine.step_index,
        "steps_since_sweep": engine.steps_since_sweep,
        "sweeps_run": engine.sweeps_run,
        "input": [str(s) for s in engine.scheduler.input_schedule],
    }


class TestSnapshotRestore:
    @pytest.mark.parametrize("scheduler,policy,stream_factory", CASES)
    def test_mid_stream_checkpoint_continues_identically(
        self, scheduler, policy, stream_factory
    ):
        stream = list(stream_factory(CONFIG))
        cut = len(stream) // 2

        uninterrupted = Engine(scheduler=scheduler, policy=policy,
                               sweep_interval=3)
        uninterrupted.feed_batch(stream)

        first_half = Engine(scheduler=scheduler, policy=policy,
                            sweep_interval=3)
        first_half.feed_batch(stream[:cut])
        # Round-trip through JSON to prove the payload is serializable.
        payload = json.loads(json.dumps(first_half.snapshot()))
        resumed = Engine.restore(payload)
        resumed.feed_batch(stream[cut:])

        assert _engine_state(resumed) == _engine_state(uninterrupted)

    def test_snapshot_is_a_frozen_copy(self):
        """Feeding the source engine after snapshotting must not mutate
        the snapshot or the restored engine."""
        stream = list(basic_stream(CONFIG))
        engine = Engine(scheduler="conflict-graph", policy="eager-c1")
        engine.feed_batch(stream[:10])
        snapshot = engine.snapshot()
        before = json.dumps(snapshot, sort_keys=True)
        engine.feed_batch(stream[10:])
        assert json.dumps(snapshot, sort_keys=True) == before
        restored = Engine.restore(snapshot)
        assert restored.step_index == 10

    def test_restore_preserves_config_and_cadence(self):
        engine = Engine(scheduler="predeclared", policy="eager-c4",
                        sweep_interval=8, verify_c2=False)
        engine.feed_batch(list(predeclared_stream(CONFIG))[:13])
        restored = Engine.restore(engine.snapshot())
        assert restored.config == engine.config
        assert restored.sweep_interval == 8
        assert restored.steps_since_sweep == engine.steps_since_sweep

    def test_restored_observers_see_only_new_events(self):
        from repro.engine import CallbackObserver

        engine = Engine(scheduler="conflict-graph", policy="eager-c1")
        stream = list(basic_stream(CONFIG))
        engine.feed_batch(stream[:8])
        seen = []
        restored = Engine.restore(
            engine.snapshot(),
            observers=[CallbackObserver(on_step=lambda e, r: seen.append(r))],
        )
        restored.feed_batch(stream[8:12])
        assert len(seen) == 4

    def test_policy_options_round_trip(self):
        engine = Engine(scheduler="conflict-graph", policy="optimal",
                        policy_options={"max_candidates": 9})
        restored = Engine.restore(engine.snapshot())
        assert restored.policy._max_candidates == 9


class TestSnapshotErrors:
    def test_unregistered_parts_cannot_snapshot(self):
        from repro.core.policies import NeverDeletePolicy
        from repro.scheduler.conflict import ConflictGraphScheduler

        class LocalPolicy(NeverDeletePolicy):
            name = "local"

        engine = Engine.from_parts(ConflictGraphScheduler(), LocalPolicy())
        with pytest.raises(EngineError):
            engine.snapshot()

    def test_registered_parts_can_snapshot_via_from_parts(self):
        from repro.core.policies import EagerC1Policy
        from repro.scheduler.conflict import ConflictGraphScheduler

        engine = Engine.from_parts(
            ConflictGraphScheduler(), EagerC1Policy(), sweep_interval=2
        )
        engine.feed_batch(list(basic_stream(CONFIG))[:6])
        restored = Engine.restore(engine.snapshot())
        assert restored.config.scheduler == "conflict-graph"
        assert restored.step_index == 6

    def test_bad_format_rejected(self):
        with pytest.raises(SnapshotError):
            Engine.restore({"format": SNAPSHOT_FORMAT + 1})
        with pytest.raises(SnapshotError):
            Engine.restore({"format": SNAPSHOT_FORMAT})  # missing sections
        with pytest.raises(SnapshotError):
            Engine.restore("not a dict")  # type: ignore[arg-type]

    def test_cross_variant_extra_state_rejected(self):
        engine = Engine(scheduler="predeclared", policy="never")
        engine.feed_batch(list(predeclared_stream(CONFIG))[:5])
        snapshot = engine.snapshot()
        snapshot["config"]["scheduler"] = "conflict-graph"
        with pytest.raises(SnapshotError):
            Engine.restore(snapshot)


class TestLogProtocol:
    """``snapshot(include_logs=False)`` + ``log_marks``/``log_delta`` +
    ``splice_logs``: a core plus its chain of deltas restores to exactly
    the full snapshot, for one engine and for a sharded one alike."""

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("scheduler,policy,stream_factory", CASES)
    def test_core_plus_delta_chain_restores_the_full_snapshot(
        self, scheduler, policy, stream_factory, shards
    ):
        from repro.engine import build_engine
        from repro.io import engine_snapshot_to_json, restore_engine

        engine = build_engine(
            scheduler=scheduler, policy=policy, shards=shards
        )
        stream = list(stream_factory(CONFIG))
        marks = engine.log_marks()
        deltas = []
        for cut in (len(stream) // 3, 2 * len(stream) // 3, len(stream)):
            engine.feed_many(stream[engine.step_index : cut])
            deltas.append(engine.log_delta(marks))
            marks = engine.log_marks()
        core = json.loads(json.dumps(engine.snapshot(include_logs=False)))
        restored = restore_engine(core, deltas=json.loads(json.dumps(deltas)))
        assert engine_snapshot_to_json(restored.snapshot()) == (
            engine_snapshot_to_json(engine.snapshot())
        )
        assert restored.log_marks() == engine.log_marks()
        assert engine.log_delta(marks) == restored.log_delta(marks)

    def test_short_delta_chain_is_rejected(self):
        from repro.io import restore_engine

        engine = Engine(scheduler="conflict-graph", policy="eager-c1")
        stream = list(basic_stream(CONFIG))
        start = engine.log_marks()
        engine.feed_many(stream[:10])
        first = engine.log_delta(start)
        engine.feed_many(stream[10:])
        core = engine.snapshot(include_logs=False)
        with pytest.raises(SnapshotError, match="delta chain reconstructs"):
            restore_engine(core, deltas=[first])

    def test_malformed_delta_is_a_snapshot_error(self):
        from repro.io import restore_engine

        engine = Engine(scheduler="conflict-graph", policy="eager-c1")
        engine.feed_many(basic_stream(CONFIG))
        core = engine.snapshot(include_logs=False)
        with pytest.raises(SnapshotError, match="malformed log delta"):
            restore_engine(core, deltas=[{"results": []}])
