"""Checkpoint cores stay O(live state) however long the history grows.

The paper bounds the scheduler's state by forgetting completed
transactions; these tests pin that the forgetting reaches every layer a
checkpoint serializes.  A partitioned banking stream (eager-c1, four
branches, 2% inter-branch transfers) is fed to a
:class:`~repro.durability.DurableEngine` with one and with four shards:

* the JSON core, ``snapshot(include_logs=False)``, barely grows from N to
  4N steps — the aborted sets, tombstones and logs live in the delta
  chain, not in the core;
* the sharded router's forest holds the entity keys plus the keys of
  live transactions only (plus any dead roots, of which the design
  leaves none);
* ``ShardedEngine.shard_of`` answers ``None`` once a transaction was
  deleted or aborted;
* the forgetting is part of the serialized state: a restored or
  recovered sharded engine snapshots to the same bytes;
* what history does stay in RAM is cheap per step: step and result
  records are slotted, and decoded names are interned.

CI refuses to pass if this module is skipped.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.durability import DurableEngine, recover
from repro.engine import ShardedEngine
from repro.io import engine_snapshot_to_json, step_from_dict, step_to_dict
from repro.model.steps import Read, Write
from repro.scheduler.events import Decision, StepResult
from repro.workloads.banking import BankingConfig, banking_stream

#: Steps in the short prefix; the long run feeds four times as many.
N_STEPS = 1_000
CHUNKS = 4 * N_STEPS // 400 + 1
ACCOUNTS = 64


def _stream():
    """Banking chunks with chunk-suffixed transaction ids (the
    interleaver is quadratic, so a long stream is several short ones)."""
    steps = []
    for chunk in range(CHUNKS):
        config = BankingConfig(
            n_accounts=ACCOUNTS,
            n_transfers=100,
            audit_every=10,
            audit_span=8,
            multiprogramming=6,
            seed=chunk,
            partitions=4,
            cross_fraction=0.02,
        )
        for step in banking_stream(config).steps:
            steps.append(dataclasses.replace(step, txn=f"{step.txn}.{chunk}"))
    assert len(steps) >= 4 * N_STEPS
    return steps[: 4 * N_STEPS]


STREAM = _stream()


def _durable(tmp_path, shards: int) -> DurableEngine:
    return DurableEngine(
        wal_dir=tmp_path / "wal",
        shards=shards,
        scheduler="conflict-graph",
        policy="eager-c1",
        sweep_interval=32,
        checkpoint_interval=64,
    )


def _core_bytes(engine) -> int:
    core = engine.engine.snapshot(include_logs=False)
    return len(json.dumps(core, sort_keys=True))


@pytest.mark.parametrize("shards", [1, 4])
def test_core_size_tracks_live_state_not_history(tmp_path, shards):
    engine = _durable(tmp_path, shards)
    engine.feed_many(STREAM[:N_STEPS])
    short = _core_bytes(engine)
    engine.feed_many(STREAM[N_STEPS:])
    long = _core_bytes(engine)
    engine.close()
    inner = engine.engine
    # The stream must exercise what the core leaves out.
    assert len(inner.aborted) > 50 and len(inner.deletion_log) > 500
    assert long <= 1.25 * short, (short, long)


def _forest_census(router):
    keys = router._uf._parent
    entities = sum(1 for kind, _ in keys if kind == "e")
    live = sum(router.live_counts())
    live_txns = set().union(*router._root_txns.values())
    dead_roots = sum(
        1
        for key, parent in keys.items()
        if key == parent and key[0] == "t" and key[1] not in live_txns
    )
    return len(keys), entities, live, dead_roots


def test_router_forest_holds_live_keys_only(tmp_path):
    engine = _durable(tmp_path, 4)
    peak_keys = 0
    for start in range(0, len(STREAM), 100):
        engine.feed_many(STREAM[start : start + 100])
        keys, entities, live, dead_roots = _forest_census(engine.engine.router)
        assert keys <= entities + 2 * live + dead_roots
        peak_keys = max(peak_keys, keys)
    engine.close()
    assert entities <= ACCOUNTS and peak_keys < ACCOUNTS + 100


def test_shard_of_forgets_deleted_and_aborted_transactions(tmp_path):
    engine = _durable(tmp_path, 4)
    engine.feed_many(STREAM)
    engine.close()
    inner = engine.engine
    deleted, aborted = inner.deletion_log, sorted(inner.aborted)
    assert deleted and aborted
    for txn in deleted + aborted:
        assert inner.shard_of(txn) is None
    for txn in inner.live_transactions():
        assert inner.shard_of(txn) is not None


def test_restored_compacted_engine_snapshots_identically(tmp_path):
    engine = _durable(tmp_path, 4)
    half = len(STREAM) // 2
    engine.feed_many(STREAM[:half])
    inner = engine.engine
    text = engine_snapshot_to_json(inner.snapshot())
    restored = ShardedEngine.restore(json.loads(text))
    assert engine_snapshot_to_json(restored.snapshot()) == text
    for step in STREAM[half:]:
        assert restored.feed(step) == engine.feed(step)
    engine.close()
    final = engine_snapshot_to_json(inner.snapshot())
    assert engine_snapshot_to_json(restored.snapshot()) == final
    recovered = recover(tmp_path / "wal")
    assert engine_snapshot_to_json(recovered.engine.snapshot()) == final
    recovered.close()


def test_retained_step_records_have_no_instance_dict():
    """Every fed step stays in RAM (input and result logs), so its layout
    is pinned: slotted records, no per-instance ``__dict__``."""
    read = Read("T1", "x")
    write = Write("T1", {"x"})
    result = StepResult(write, Decision.ACCEPTED, committed=("T1",))
    for record in (read, write, result):
        assert not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.txn = "T2"


def test_decoded_steps_share_interned_names():
    wire = json.dumps(step_to_dict(Write("T1", {"acct7"})))
    first, second = (step_from_dict(json.loads(wire)) for _ in range(2))
    assert first == second
    assert first.txn is second.txn
    assert next(iter(first.entities)) is next(iter(second.entities))
