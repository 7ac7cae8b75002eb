"""Unit tests for the sharding layer: union-find routing, kernel
extract/install, group migration, the sharded engine's routing behaviors,
and the format-versioned sharded snapshots.

The cross-cutting guarantee — a ShardedEngine decides, aborts, and deletes
identically to a monolithic Engine — lives in
``tests/test_sharding_equivalence.py``; this file pins the mechanisms.
"""

from __future__ import annotations

import pytest

from repro.core.dirty import DirtyTracker
from repro.core.reduced_graph import ReducedGraph
from repro.engine import Engine, EngineConfig, ShardedEngine, build_engine
from repro.errors import (
    EngineError,
    GraphError,
    ReproError,
    SchedulerError,
    SnapshotError,
    TransactionStateError,
)
from repro.graphs.bitclosure import BitClosureGraph
from repro.io import (
    engine_snapshot_from_json,
    engine_snapshot_to_json,
    restore_engine,
)
from repro.model.status import AccessMode, TxnState
from repro.model.steps import Begin, BeginDeclared, Finish, Read, Write, WriteItem
from repro.scheduler.events import Decision
from repro.sharding import FootprintRouter, UnionFind, footprint_of
from repro.tracking import CurrencyTracker
from repro.workloads.banking import BankingConfig, banking_specs
from repro.workloads.generator import (
    WorkloadConfig,
    basic_specs,
    basic_stream,
)


# ---------------------------------------------------------------------------
# Union-find and router
# ---------------------------------------------------------------------------


class TestUnionFind:
    def test_union_and_find(self):
        uf = UnionFind()
        for key in ("a", "b", "c", "d"):
            assert uf.add(("t", key))
        root, absorbed = uf.union(("t", "a"), ("t", "b"))
        assert absorbed is not None
        assert uf.find(("t", "a")) == uf.find(("t", "b")) == root
        same_root, absorbed2 = uf.union(("t", "a"), ("t", "b"))
        assert absorbed2 is None and same_root == root
        assert uf.find(("t", "c")) != root

    def test_add_is_idempotent(self):
        uf = UnionFind()
        assert uf.add(("e", "x"))
        assert not uf.add(("e", "x"))
        assert len(uf) == 1


class TestFootprintRouter:
    def test_new_groups_go_to_least_loaded_shard(self):
        router = FootprintRouter(3)
        shard_a, migs = router.assign("T1", {"x"})
        assert shard_a == 0 and not migs
        shard_b, _ = router.assign("T2", {"y"})
        shard_c, _ = router.assign("T3", {"z"})
        assert {shard_a, shard_b, shard_c} == {0, 1, 2}

    def test_same_entity_routes_to_same_shard(self):
        router = FootprintRouter(4)
        shard_a, _ = router.assign("T1", {"x"})
        shard_b, migs = router.assign("T2", {"x", "w"})
        assert shard_b == shard_a and not migs

    def test_cross_shard_merge_migrates_smaller_group(self):
        router = FootprintRouter(2)
        big, small = None, None
        for txn in ("A1", "A2", "A3"):
            big, _ = router.assign(txn, {"x"})
        small, _ = router.assign("B1", {"y"})
        assert big != small
        shard, migrations = router.assign("B2", {"y", "x"})
        assert shard == big
        [migration] = migrations
        assert migration.source == small and migration.target == big
        assert migration.txns == ("B1",)
        assert "y" in migration.entities
        assert router.migrations == 1 and router.merges == 1
        assert router.shard_of_entity("y") == big
        assert router.shard_of_txn("B1") == big

    def test_removed_txns_leave_live_counts(self):
        router = FootprintRouter(2)
        router.assign("T1", {"x"})
        router.assign("T2", {"y"})
        assert router.live_counts() == (1, 1)
        router.on_txn_removed("T1")
        assert router.live_counts() == (0, 1)
        # Unknown ids are a no-op (pending begins never materialized).
        router.on_txn_removed("nope")

    def test_removed_txn_keys_leave_the_forest(self):
        router = FootprintRouter(2)
        router.assign("T1", {"x", "y"})
        router.assign("T2", {"y", "z"})
        router.assign("T3", frozenset())  # an entity-less singleton group
        assert len(router._uf) == 6
        for txn in ("T1", "T2", "T3"):
            router.on_txn_removed(txn)
            assert not router.knows_txn(txn)
            assert router.shard_of_txn(txn) is None
        # Only the entity keys remain, all in one group; T3's group is gone.
        assert sorted(router._uf._parent) == [("e", "x"), ("e", "y"), ("e", "z")]
        assert list(router._root_txns.values()) == [set()]
        assert router.live_counts() == (0, 0)

    def test_txn_keys_are_never_parents(self):
        """Entity roots win size ties, so every transaction key stays a
        leaf (or a singleton root) and can leave the forest at once."""
        router = FootprintRouter(3)
        for index in range(40):
            entities = {f"e{index % 7}", f"e{(index * 3) % 11}"}
            router.assign(f"T{index}", entities if index % 5 else frozenset())
        assert any(key[0] == "t" for key in router._uf._size)  # T0, T5, ...
        for key, parent in router._uf._parent.items():
            assert parent[0] == "e" or parent == key

    def test_state_dict_round_trip_is_exact(self):
        router = FootprintRouter(3)
        router.assign("T1", {"x", "y"})
        router.assign("T2", {"z"})
        router.assign("T3", {"z", "x"})  # forces a merge
        router.on_txn_removed("T1")
        state = router.state_dict()
        clone = FootprintRouter.from_state(state)
        assert clone.state_dict() == state
        assert clone.shard_of_txn("T3") == router.shard_of_txn("T3")
        assert clone.live_counts() == router.live_counts()

    def test_from_state_refuses_dead_or_parent_txn_keys(self):
        router = FootprintRouter(2)
        router.assign("T1", {"x"})
        state = router.state_dict()
        dead = dict(state, parent={**state["parent"], "t:T9": "e:x"})
        with pytest.raises(SnapshotError, match="'t:T9' is a dead"):
            FootprintRouter.from_state(dead)
        # The pre-live-keys layout: a transaction key as the group root.
        parent = {"e:x": "t:T1", "t:T1": "t:T1"}
        legacy = dict(
            state,
            parent=parent,
            size={"t:T1": 2},
            root_shard={"t:T1": 0},
            root_txns={"t:T1": ["T1"]},
            root_entities={"t:T1": ["x"]},
        )
        with pytest.raises(SnapshotError, match="'t:T1' is a dead or non-leaf"):
            FootprintRouter.from_state(legacy)

    def test_bad_shard_count_rejected(self):
        with pytest.raises(EngineError):
            FootprintRouter(0)


def test_footprint_of_includes_declared_entities():
    step = BeginDeclared("T1", {"x": AccessMode.READ, "y": AccessMode.WRITE})
    assert footprint_of(step) == frozenset({"x", "y"})
    assert footprint_of(Begin("T1")) == frozenset()
    assert footprint_of(Write("T1", {"a", "b"})) == frozenset({"a", "b"})


# ---------------------------------------------------------------------------
# Kernel extract/install (snapshot/patch migration primitive)
# ---------------------------------------------------------------------------


def _group_kernel():
    kernel = BitClosureGraph()
    for node in ("a", "b", "c", "x", "y"):
        kernel.add_node(node)
    kernel.add_arc("a", "b")
    kernel.add_arc("b", "c")
    kernel.add_arc("x", "y")
    return kernel


class TestKernelExtractInstall:
    def test_round_trip_between_kernels(self):
        source = _group_kernel()
        target = BitClosureGraph()
        for node in ("m", "n"):  # pre-existing unrelated content
            target.add_node(node)
        target.add_arc("m", "n")
        payload = source.extract_nodes(["a", "b", "c"])
        assert sorted(source.nodes()) == ["x", "y"]
        target.install_nodes(payload)
        assert target.reaches("a", "c") and target.reaches("a", "b")
        assert target.has_arc("b", "c") and not target.has_arc("a", "c")
        assert target.reaches("m", "n")
        source.check_invariants()
        target.check_invariants()

    def test_boundary_violation_raises(self):
        kernel = _group_kernel()
        kernel.add_arc("c", "x")  # now {a,b,c} is not closed
        with pytest.raises(GraphError, match="cross the group boundary"):
            kernel.extract_nodes(["a", "b", "c"])

    def test_duplicate_nodes_rejected(self):
        kernel = _group_kernel()
        with pytest.raises(GraphError, match="duplicate"):
            kernel.extract_nodes(["a", "a"])

    def test_install_refuses_present_nodes(self):
        source = _group_kernel()
        payload = source.extract_nodes(["x", "y"])
        target = BitClosureGraph()
        target.add_node("x")
        with pytest.raises(GraphError, match="already present"):
            target.install_nodes(payload)


class TestReducedGraphExtractInstall:
    def _graph(self):
        graph = ReducedGraph()
        for txn in ("A", "B", "C"):
            graph.add_transaction(txn)
        graph.record_access("A", "x", AccessMode.WRITE)
        graph.record_access("B", "x", AccessMode.READ)
        graph.record_access("C", "z", AccessMode.WRITE)
        graph.add_arc("A", "B")
        graph.set_state("A", TxnState.COMMITTED)
        return graph

    def test_extract_install_rebuilds_every_index(self):
        source = self._graph()
        target = ReducedGraph()
        payload = source.extract_subgraph({"A", "B"})
        assert sorted(source.nodes()) == ["C"]
        assert not source.accessors_of("x")
        source.check_invariants()
        target.install_subgraph(payload)
        assert target.has_arc("A", "B")
        assert target.writers_of("x") == frozenset({"A"})
        assert target.state("A") is TxnState.COMMITTED
        assert target.active_transactions() == frozenset({"B"})
        target.check_invariants()

    def test_absent_txns_are_skipped(self):
        source = self._graph()
        payload = source.extract_subgraph({"C", "never-seen"})
        assert [info.txn for info in payload["infos"]] == ["C"]

    def test_install_guards_id_reuse(self):
        source = self._graph()
        payload = source.extract_subgraph({"C"})
        target = ReducedGraph()
        target.add_transaction("C", TxnState.COMMITTED)
        target.delete("C")
        with pytest.raises(TransactionStateError):
            target.install_subgraph(payload)


def test_currency_extract_absorb():
    tracker = CurrencyTracker()
    tracker.on_write("T1", "x")
    tracker.on_read("T2", "x")
    tracker.on_write("T3", "y")
    part = tracker.extract({"x"})
    assert tracker.current_transactions() == frozenset({"T3"})
    other = CurrencyTracker()
    other.absorb(part)
    assert other.current_transactions() == frozenset({"T1", "T2"})


# ---------------------------------------------------------------------------
# ShardedEngine behaviors
# ---------------------------------------------------------------------------


def _one_txn(scheduler, txn, entity):
    """A one-entity read-write transaction in *scheduler*'s step model."""
    if scheduler == "multiwrite":
        return [Begin(txn), Read(txn, entity), WriteItem(txn, entity), Finish(txn)]
    if scheduler == "predeclared":
        return [
            BeginDeclared(txn, {entity: AccessMode.WRITE}),
            WriteItem(txn, entity),
            Finish(txn),
        ]
    return [Begin(txn), Read(txn, entity), Write(txn, {entity})]


@pytest.mark.parametrize(
    "scheduler,policy",
    [
        ("conflict-graph", "eager-c1"),
        ("certifier", "noncurrent"),
        ("strict-2pl", "lemma1"),
        ("multiwrite", "eager-c3"),
        ("predeclared", "eager-c4"),
    ],
)
def test_refused_step_of_dead_txn_leaves_router_untouched(scheduler, policy):
    """A step of a transaction that is no longer live (deleted, or closed
    at commit by strict 2PL) raises the monolith's error and must not
    merge its entities into a group: the step was never applied."""
    stream = []
    for txn, entity in (("T1", "x"), ("T2", "y"), ("T3", "x"), ("T4", "y")):
        stream += _one_txn(scheduler, txn, entity)
    config = dict(scheduler=scheduler, policy=policy, sweep_interval=1)
    mono = Engine(**config)
    engine = ShardedEngine(shards=2, **config)
    for step in stream:
        assert mono.feed(step) == engine.feed(step)
    assert "T1" in engine.deleted_transactions() or scheduler == "strict-2pl"
    router_before = engine.router.state_dict()
    step = Read("T1", "y")
    with pytest.raises(ReproError) as expected:
        mono.feed(step)
    with pytest.raises(type(expected.value)) as refused:
        engine.feed(step)
    assert str(refused.value) == str(expected.value)
    assert engine.router.state_dict() == router_before
    assert engine.shard_of("T1") is None


def test_step_of_never_begun_txn_leaks_no_live_count():
    engine = ShardedEngine(scheduler="conflict-graph", policy="never", shards=2)
    engine.feed(Begin("T1"))
    engine.feed(Read("T1", "x"))
    router_before = engine.router.state_dict()
    with pytest.raises(SchedulerError, match="unknown transaction 'T9'"):
        engine.feed(Read("T9", "x"))
    assert engine.router.state_dict() == router_before
    assert engine.router.live_counts() in ((1, 0), (0, 1))


class TestShardedEngine:
    def test_begin_is_deferred_until_first_footprint_step(self):
        engine = ShardedEngine(
            scheduler="conflict-graph", policy="never", shards=2
        )
        result = engine.feed(Begin("T1"))
        assert result.decision is Decision.ACCEPTED
        assert engine.pending_begins == ("T1",)
        assert engine.live_transactions() == frozenset()
        engine.feed(Read("T1", "x"))
        assert engine.pending_begins == ()
        assert engine.live_transactions() == frozenset({"T1"})
        assert engine.shard_of("T1") is not None

    def test_flush_pending_materializes_idle_begins(self):
        engine = ShardedEngine(
            scheduler="conflict-graph", policy="never", shards=2
        )
        engine.feed(Begin("T1"))
        engine.feed(Begin("T2"))
        assert engine.flush_pending() == 2
        assert engine.live_transactions() == {"T1", "T2"}
        # Growth performed by the flush itself is observed by the merged
        # peaks (they are maintained per shard feed, not per routed step).
        assert engine.stats.peak_graph_size == 2

    def test_steps_of_aborted_transactions_are_ignored_at_the_router(self):
        engine = ShardedEngine(
            scheduler="conflict-graph", policy="never", shards=2
        )
        for step in (
            Begin("T1"), Read("T1", "x"),
            Begin("T2"), Read("T2", "x"),
            Write("T2", {"x"}),
        ):
            engine.feed(step)
        rejected = engine.feed(Write("T1", {"x"}))  # cycle: T1 aborts
        assert rejected.aborted == ("T1",)
        late = engine.feed(Read("T1", "y"))
        assert late.decision is Decision.IGNORED
        assert engine.stats.steps_fed == 7

    def test_merged_stats_and_report(self):
        config = WorkloadConfig(
            n_transactions=40, n_entities=12, multiprogramming=5,
            write_fraction=0.5, max_accesses=3, seed=3,
            partitions=4, cross_fraction=0.1,
        )
        engine = ShardedEngine(
            scheduler="conflict-graph", policy="eager-c1", shards=4
        )
        batch = engine.feed_batch(basic_stream(config), flush=True)
        stats = engine.stats
        assert stats.steps_fed == batch.steps_fed
        assert stats.deletions == len(stats.deleted_ids) > 0
        assert stats.policy_invocations == sum(
            shard.stats.policy_invocations for shard in engine.shards
        )
        report = engine.shard_report()
        assert len(report) == 4
        assert sum(row["steps_fed"] for row in report) <= stats.steps_fed
        assert stats.peak_graph_size >= max(
            row["peak_graph"] for row in report
        )

    def test_deleted_id_reuse_rejected_after_migration(self):
        """The router enforces id-reuse tombstones even when the group
        has migrated away from the shard that deleted the transaction."""
        engine = ShardedEngine(
            scheduler="conflict-graph", policy="eager-c1", shards=2
        )
        # T1 lives on entity x's shard, commits, and is deleted.
        engine.feed(Begin("T1"))
        engine.feed(Write("T1", {"x"}))
        assert "T1" in engine.stats.deleted_ids
        # Grow a bigger group on entity y, then bridge x into it so x's
        # group migrates away from T1's original shard.
        for txn in ("B1", "B2", "B3"):
            engine.feed(Begin(txn))
            engine.feed(Read(txn, "y"))
        engine.feed(Begin("M"))
        engine.feed(Read("M", "y"))
        engine.feed(Read("M", "x"))
        with pytest.raises(TransactionStateError, match="already used"):
            engine.feed(Begin("T1"))

    def test_shard_count_validation(self):
        with pytest.raises(EngineError):
            ShardedEngine(scheduler="conflict-graph", policy="never", shards=0)

    def test_build_engine_dispatch(self):
        assert isinstance(
            build_engine(EngineConfig(scheduler="conflict-graph")), Engine
        )
        assert isinstance(
            build_engine(EngineConfig(scheduler="conflict-graph"), shards=3),
            ShardedEngine,
        )

    def test_sweep_unions_shard_selections(self):
        engine = ShardedEngine(
            scheduler="conflict-graph", policy="never", shards=2,
        )
        for step in (
            Begin("T1"), Write("T1", {"x"}),
            Begin("T2"), Write("T2", {"y"}),
        ):
            engine.feed(step)
        # Swap in an eager policy per shard and sweep explicitly.
        for shard in engine.shards:
            from repro.core.policies import EagerC1Policy

            shard.policy = EagerC1Policy()
        selected = engine.sweep()
        assert selected == frozenset({"T1", "T2"})


class TestShardedSnapshots:
    def _run_half(self):
        config = WorkloadConfig(
            n_transactions=60, n_entities=16, multiprogramming=5,
            write_fraction=0.5, max_accesses=3, zipf_s=0.4, seed=9,
            partitions=4, cross_fraction=0.2,
        )
        stream = list(basic_stream(config))
        engine = ShardedEngine(
            scheduler="conflict-graph", policy="eager-c1", shards=4
        )
        half = len(stream) // 2
        for step in stream[:half]:
            engine.feed(step)
        return engine, stream[half:]

    def test_round_trip_is_bit_exact(self):
        engine, _rest = self._run_half()
        text = engine_snapshot_to_json(engine.snapshot())
        restored = restore_engine(engine_snapshot_from_json(text))
        assert isinstance(restored, ShardedEngine)
        assert engine_snapshot_to_json(restored.snapshot()) == text

    def test_restored_engine_continues_identically(self):
        engine, rest = self._run_half()
        restored = ShardedEngine.restore(engine.snapshot())
        for step in rest:
            assert engine.feed(step) == restored.feed(step)
        engine.flush_pending()
        restored.flush_pending()
        assert engine_snapshot_to_json(
            engine.snapshot()
        ) == engine_snapshot_to_json(restored.snapshot())

    def test_router_state_survives_restore(self):
        engine, _rest = self._run_half()
        restored = ShardedEngine.restore(engine.snapshot())
        assert restored.router.state_dict() == engine.router.state_dict()
        for txn in list(engine.live_transactions())[:5]:
            assert restored.shard_of(txn) == engine.shard_of(txn)

    def test_bad_payloads_rejected(self):
        with pytest.raises(SnapshotError):
            ShardedEngine.restore({"format": 99, "kind": "sharded-engine"})
        with pytest.raises(SnapshotError):
            ShardedEngine.restore([1, 2, 3])
        engine, _ = self._run_half()
        mono = Engine(scheduler="conflict-graph", policy="never")
        # restore_engine dispatches monolithic payloads to Engine.
        assert isinstance(restore_engine(mono.snapshot()), Engine)


# ---------------------------------------------------------------------------
# Partition-skew workload knobs
# ---------------------------------------------------------------------------


class TestPartitionKnobs:
    def test_partitions_one_is_byte_identical_to_legacy(self):
        legacy = WorkloadConfig(n_transactions=30, n_entities=10, seed=4)
        knobbed = WorkloadConfig(
            n_transactions=30, n_entities=10, seed=4,
            partitions=1, cross_fraction=0.5,  # ignored at partitions=1
        )
        assert basic_specs(legacy) == basic_specs(knobbed)
        bank_legacy = BankingConfig(seed=4)
        bank_knobbed = BankingConfig(seed=4, partitions=1, cross_fraction=0.5)
        assert banking_specs(bank_legacy) == banking_specs(bank_knobbed)

    def test_disjoint_partitions_never_share_entities(self):
        config = WorkloadConfig(
            n_transactions=40, n_entities=16, seed=2,
            partitions=4, cross_fraction=0.0, max_accesses=3,
        )
        for spec in basic_specs(config):
            prefixes = {
                entity.split("e")[0]
                for entity in set(spec.reads) | set(spec.writes)
            }
            assert len(prefixes) == 1

    def test_cross_fraction_produces_cross_partition_txns(self):
        config = WorkloadConfig(
            n_transactions=200, n_entities=16, seed=2,
            partitions=4, cross_fraction=0.5, max_accesses=3,
        )
        crossers = 0
        for spec in basic_specs(config):
            prefixes = {
                entity.split("e")[0]
                for entity in set(spec.reads) | set(spec.writes)
            }
            if len(prefixes) > 1:
                crossers += 1
        assert crossers > 20

    def test_banking_cross_fraction(self):
        config = BankingConfig(
            n_accounts=16, n_transfers=200, seed=2, audit_every=0,
            audit_span=2, partitions=4, cross_fraction=0.4,
            deposit_fraction=0.0,
        )
        per = config.accounts_per_partition
        crossers = 0
        for index, spec in enumerate(banking_specs(config)):
            branches = {
                int(entity[4:]) // per
                for entity in set(spec.reads) | set(spec.writes)
            }
            if len(branches) > 1:
                crossers += 1
        assert crossers > 20

    def test_partition_validation(self):
        with pytest.raises(Exception):
            WorkloadConfig(n_entities=8, partitions=4, max_accesses=3)
        with pytest.raises(Exception):
            BankingConfig(n_accounts=4, partitions=4)


# ---------------------------------------------------------------------------
# Abort-impact dirty regions (satellite)
# ---------------------------------------------------------------------------


class TestAbortImpactRegions:
    def test_graph_accumulates_region_when_enabled(self):
        graph = ReducedGraph()
        for txn in ("P", "C1", "C2"):
            graph.add_transaction(txn)
        graph.record_access("P", "x", AccessMode.READ)
        graph.add_arc("P", "C1")
        graph.add_arc("C1", "C2")
        graph.set_state("C1", TxnState.COMMITTED)
        graph.set_state("C2", TxnState.COMMITTED)
        graph.enable_abort_impact()
        graph.abort("P")
        region = graph.consume_abort_impact()
        assert region == {"C1", "C2"}
        assert graph.consume_abort_impact() == set()

    def test_disabled_graph_reports_none(self):
        graph = ReducedGraph()
        graph.add_transaction("T")
        graph.abort("T")
        assert graph.consume_abort_impact() is None

    def test_tracker_stays_bounded_on_aborts(self):
        """An abort no longer resets the tracker to all-dirty."""
        engine = Engine(scheduler="conflict-graph", policy="eager-c1")
        for step in (
            Begin("T1"), Read("T1", "x"),
            Begin("T2"), Read("T2", "x"), Write("T2", {"x"}),
        ):
            engine.feed(step)
        assert engine._dirty_tracker is not None
        rejected = engine.feed(Write("T1", {"x"}))
        assert rejected.aborted == ("T1",)
        tracker = engine._dirty_tracker
        assert tracker.snapshot() is not None, (
            "abort must dirty a region, not everything"
        )

    def test_tracker_without_accumulator_falls_back_to_all_dirty(self):
        tracker = DirtyTracker("completions")
        tracker.clear()  # leave the conservative initial state

        class Result:
            aborted = ("T9",)
            committed = ()
            released = ()
            step = Begin("T9")

        class BareGraph:
            pass

        tracker.observe(BareGraph(), Result())
        assert tracker.snapshot() is None
