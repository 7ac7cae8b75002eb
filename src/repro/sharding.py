"""Entity-footprint sharding: union-find routing and group migration.

The paper keeps one maintained graph small; this module is how the system
keeps *K* of them small at once.  The soundness observation is structural:
two transactions can only ever acquire an arc (Rules 1-3, 1'-3', locks,
certification arcs — every model) by executing conflicting steps, and
conflicting steps share an entity.  Transactions with disjoint *entity
footprints* therefore never interact, and the conflict graph of a
partitioned schedule is the disjoint union of the per-partition graphs.
Maintaining each partition in its own scheduler + kernel + deletion loop
changes **nothing** about decisions, aborts, or deletions (the lockstep
property tests replay this claim across all five schedulers) — it only
bounds every per-step mask operation by the *partition's* live size
instead of the system's.

Three pieces live here:

* :class:`UnionFind` — a plain disjoint-set forest (path compression,
  union by size).
* :class:`FootprintRouter` — the union-find specialized to footprints:
  elements are entities and transactions, every routed step unions its
  transaction with the entities it touches (declared futures included),
  each group root carries its shard assignment plus its live transaction
  and entity sets, and a cross-shard union yields the
  :class:`Migration` orders the engine must execute before feeding the
  step.  The *smaller* group (by live transactions) always moves into the
  larger group's shard.
* :func:`migrate_group` — executes one migration: the source scheduler
  extracts the group (graph subkernel via the bit kernel's
  ``extract_nodes`` / ``install_nodes`` snapshot/patch pair — closure rows
  move as relative masks, nothing is re-propagated — plus currency entries
  and variant extras: parked step queues, lock-table rows, certification
  clocks, last-writer marks) and the target absorbs it.

:class:`~repro.engine.ShardedEngine` drives the router; this module knows
nothing about engines beyond the two scheduler hooks
(:meth:`~repro.scheduler.base.SchedulerBase.extract_group` /
:meth:`~repro.scheduler.base.SchedulerBase.absorb_group`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import EngineError, SnapshotError
from repro.model.entities import Entity
from repro.model.steps import BeginDeclared, Step, TxnId, accessed_entities

__all__ = [
    "UnionFind",
    "Migration",
    "FootprintRouter",
    "footprint_of",
    "migrate_group",
]

#: Union-find key namespaces: entities and transactions share one forest
#: but must never collide by name.
_ENTITY = "e"
_TXN = "t"

Key = Tuple[str, str]


def footprint_of(step: Step) -> FrozenSet[Entity]:
    """The entities a step binds its transaction to.

    Executed accesses always count; a ``BeginDeclared`` additionally binds
    every *declared* entity up front (predeclared Rule 1' consults the
    declaration immediately, so the whole declared set is footprint from
    the first step on).
    """
    entities = set(accessed_entities(step))
    if isinstance(step, BeginDeclared):
        entities.update(step.declared)
    return frozenset(entities)


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    __slots__ = ("_parent", "_size")

    def __init__(self) -> None:
        self._parent: Dict[Key, Key] = {}
        self._size: Dict[Key, int] = {}

    def __contains__(self, key: Key) -> bool:
        return key in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def add(self, key: Key) -> bool:
        """Ensure *key* exists as (at least) a singleton; True if new."""
        if key in self._parent:
            return False
        self._parent[key] = key
        self._size[key] = 1
        return True

    def find(self, key: Key) -> Key:
        parent = self._parent
        root = key
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    def union(self, a: Key, b: Key) -> Tuple[Key, Optional[Key]]:
        """Merge the sets of *a* and *b*; on a size tie *a*'s root survives.

        Returns ``(surviving_root, absorbed_root)``; ``absorbed_root`` is
        ``None`` when the two were already one set.
        """
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return root_a, None
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size.pop(root_b)
        return root_a, root_b

    def remove_leaf(self, key: Key) -> Key:
        """Drop *key*, which no other key may point to (a leaf or a
        singleton root); returns the root it belonged to."""
        root = self.find(key)
        del self._parent[key]
        if root == key:
            del self._size[key]
        else:
            self._size[root] -= 1
        return root


@dataclass(frozen=True)
class Migration:
    """One cross-shard group merge the engine must execute.

    ``txns`` are the moving group's *live* transactions (still known to
    the source shard's scheduler: active, or completed-and-retained) and
    ``entities`` its entire entity set — lock rows, currency, and
    last-writer marks follow the entities even when no transaction
    currently touches them.
    """

    source: int
    target: int
    txns: Tuple[TxnId, ...]
    entities: Tuple[Entity, ...]


class FootprintRouter:
    """Union-find over footprints plus the group -> shard assignment.

    New groups are placed on the shard with the fewest live transactions
    (deterministic: lowest index wins ties).  :meth:`assign` is the whole
    routing protocol: it unions the step's transaction with the step's
    entities, merges group metadata, and — when two groups on *different*
    shards merge — emits the :class:`Migration` moving the smaller group
    (by live transactions) into the larger group's shard.  The caller must
    execute the returned migrations before feeding the step.

    Memory: the forest holds exactly the entity keys plus the keys of
    *live* transactions.  Entity roots win size ties, so a transaction
    key never becomes a parent: it is a leaf under an entity-rooted group
    or the root of a singleton, entity-less group.  Either way
    :meth:`on_txn_removed` drops it at once (with the singleton's group
    metadata), so the forest, the state :meth:`state_dict` serializes,
    and every checkpoint of it stay O(live state) however long the
    history.  Root names and ``_size`` only steer the forest's shape;
    shard choice and migrations read the group metadata alone, so the
    tie-break changes no routing decision.
    """

    def __init__(self, shards: int) -> None:
        if not isinstance(shards, int) or shards < 1:
            raise EngineError(
                f"shard count must be a positive integer, got {shards!r}"
            )
        self.shards = shards
        self._uf = UnionFind()
        #: Per-root metadata.  Roots absent from ``_root_shard`` are not
        #: yet placed (fresh singletons merge for free).
        self._root_shard: Dict[Key, int] = {}
        self._root_txns: Dict[Key, Set[TxnId]] = {}
        self._root_entities: Dict[Key, Set[Entity]] = {}
        self._live_per_shard: List[int] = [0] * shards
        self.merges = 0
        self.migrations = 0
        self.migrated_txns = 0

    # -- queries -----------------------------------------------------------------

    def knows_txn(self, txn: TxnId) -> bool:
        """Is *txn* live in some group?  (False once it was removed.)"""
        return (_TXN, txn) in self._uf

    def shard_of_txn(self, txn: TxnId) -> Optional[int]:
        key = (_TXN, txn)
        if key not in self._uf:
            return None
        return self._root_shard.get(self._uf.find(key))

    def peek_shard_of_txn(self, txn: TxnId) -> Optional[int]:
        """Like :meth:`shard_of_txn`, but **mutation-free**.

        :meth:`UnionFind.find` path-compresses, so even a read-only query
        reshapes the forest — harmless for routing, fatal for the
        durability layer, whose WAL bookkeeping must leave the router's
        :meth:`state_dict` byte-identical to an un-instrumented run.  This
        walks the parent chain without rewriting it.
        """
        key = (_TXN, txn)
        parent = self._uf._parent
        if key not in parent:
            return None
        while parent[key] != key:
            key = parent[key]
        return self._root_shard.get(key)

    def shard_of_entity(self, entity: Entity) -> Optional[int]:
        key = (_ENTITY, entity)
        if key not in self._uf:
            return None
        return self._root_shard.get(self._uf.find(key))

    def live_counts(self) -> Tuple[int, ...]:
        return tuple(self._live_per_shard)

    def group_of_txn(self, txn: TxnId) -> Tuple[FrozenSet[TxnId], FrozenSet[Entity]]:
        """The live transactions and entities of *txn*'s group."""
        root = self._uf.find((_TXN, txn))
        return (
            frozenset(self._root_txns.get(root, ())),
            frozenset(self._root_entities.get(root, ())),
        )

    # -- the routing protocol -----------------------------------------------------

    def assign(
        self, txn: TxnId, entities: Iterable[Entity]
    ) -> Tuple[int, List[Migration]]:
        """Union *txn* with *entities*; return its shard and any migrations.

        The returned migrations are already reflected in the router's own
        bookkeeping (shard assignment, live counts); the caller must move
        the scheduler state to match.
        """
        txn_key = (_TXN, txn)
        new_txn = self._uf.add(txn_key)
        if new_txn:
            self._root_txns[txn_key] = set()
            self._root_entities[txn_key] = set()
        migrations: List[Migration] = []
        current = self._uf.find(txn_key)
        for entity in sorted(set(entities)):
            entity_key = (_ENTITY, entity)
            if self._uf.add(entity_key):
                self._root_txns[entity_key] = set()
                self._root_entities[entity_key] = {entity}
            current = self._merge_roots(
                current, self._uf.find(entity_key), migrations
            )
        shard = self._root_shard.get(current)
        if shard is None:
            shard = min(
                range(self.shards), key=lambda i: (self._live_per_shard[i], i)
            )
            self._root_shard[current] = shard
        if new_txn:
            self._root_txns[current].add(txn)
            self._live_per_shard[shard] += 1
        return shard, migrations

    def _merge_roots(
        self, root_a: Key, root_b: Key, migrations: List[Migration]
    ) -> Key:
        if root_a == root_b:
            return root_a
        shard_a = self._root_shard.get(root_a)
        shard_b = self._root_shard.get(root_b)
        txns_a = self._root_txns.pop(root_a)
        txns_b = self._root_txns.pop(root_b)
        entities_a = self._root_entities.pop(root_a)
        entities_b = self._root_entities.pop(root_b)
        self._root_shard.pop(root_a, None)
        self._root_shard.pop(root_b, None)
        # Entity roots win size ties (see the class docstring).
        if root_a[0] == _TXN:
            survivor, absorbed = self._uf.union(root_b, root_a)
        else:
            survivor, absorbed = self._uf.union(root_a, root_b)
        assert absorbed is not None
        if shard_a is None or shard_b is None or shard_a == shard_b:
            shard = shard_a if shard_a is not None else shard_b
        else:
            # Cross-shard merge: the smaller group (by live transactions)
            # moves; ties keep the lower shard index's group in place.
            self.merges += 1
            keep_a = (len(txns_a), -shard_a) >= (len(txns_b), -shard_b)
            shard = shard_a if keep_a else shard_b
            moving_shard = shard_b if keep_a else shard_a
            moving_txns = txns_b if keep_a else txns_a
            moving_entities = entities_b if keep_a else entities_a
            if moving_txns or moving_entities:
                migrations.append(
                    Migration(
                        source=moving_shard,
                        target=shard,
                        txns=tuple(sorted(moving_txns)),
                        entities=tuple(sorted(moving_entities)),
                    )
                )
                self.migrations += 1
                self.migrated_txns += len(moving_txns)
            self._live_per_shard[moving_shard] -= len(moving_txns)
            self._live_per_shard[shard] += len(moving_txns)
        # Merge metadata smaller-into-larger in place (after the migration
        # decision read the pre-merge sets): coalescing n groups costs
        # O(n log n) set moves overall, not O(n^2) fresh unions.
        if len(txns_a) + len(entities_a) < len(txns_b) + len(entities_b):
            txns_b.update(txns_a)
            entities_b.update(entities_a)
            merged_txns, merged_entities = txns_b, entities_b
        else:
            txns_a.update(txns_b)
            entities_a.update(entities_b)
            merged_txns, merged_entities = txns_a, entities_a
        self._root_txns[survivor] = merged_txns
        self._root_entities[survivor] = merged_entities
        if shard is not None:
            self._root_shard[survivor] = shard
        return survivor

    def on_txn_removed(self, txn: TxnId) -> None:
        """A transaction left its shard's live state (abort, deletion, or
        a commit its scheduler keeps nothing of).

        Its key leaves the forest at once; a singleton, entity-less group
        goes with it, since no step can reach that group again (the
        engine never routes a step of an aborted or deleted transaction).
        """
        key = (_TXN, txn)
        if key not in self._uf:
            return
        root = self._uf.remove_leaf(key)
        self._root_txns[root].discard(txn)
        self._live_per_shard[self._root_shard[root]] -= 1
        if root == key:
            del self._root_txns[root]
            del self._root_entities[root]
            del self._root_shard[root]

    # -- checkpointing --------------------------------------------------------------

    @staticmethod
    def _encode(key: Key) -> str:
        return f"{key[0]}:{key[1]}"

    @staticmethod
    def _decode(text: str) -> Key:
        kind, _, name = text.partition(":")
        return (kind, name)

    def state_dict(self) -> Dict[str, Any]:
        """Bit-exact router state: the union-find forest *as it stands*
        (parent pointers after path compression included), group
        metadata, shard assignments, and counters."""
        encode = self._encode
        return {
            "shards": self.shards,
            "parent": {
                encode(k): encode(v)
                for k, v in sorted(self._uf._parent.items())
            },
            "size": {encode(k): n for k, n in sorted(self._uf._size.items())},
            "root_shard": {
                encode(k): shard for k, shard in sorted(self._root_shard.items())
            },
            "root_txns": {
                encode(k): sorted(txns)
                for k, txns in sorted(self._root_txns.items())
            },
            "root_entities": {
                encode(k): sorted(entities)
                for k, entities in sorted(self._root_entities.items())
            },
            "live_per_shard": list(self._live_per_shard),
            "merges": self.merges,
            "migrations": self.migrations,
            "migrated_txns": self.migrated_txns,
        }

    @classmethod
    def from_state(cls, payload: Dict[str, Any]) -> "FootprintRouter":
        router = cls(int(payload["shards"]))
        decode = cls._decode
        router._uf._parent = {
            decode(k): decode(v) for k, v in payload["parent"].items()
        }
        router._uf._size = {
            decode(k): int(n) for k, n in payload["size"].items()
        }
        router._root_shard = {
            decode(k): int(s) for k, s in payload["root_shard"].items()
        }
        router._root_txns = {
            decode(k): set(txns) for k, txns in payload["root_txns"].items()
        }
        router._root_entities = {
            decode(k): set(entities)
            for k, entities in payload["root_entities"].items()
        }
        router._live_per_shard = [int(n) for n in payload["live_per_shard"]]
        router.merges = int(payload.get("merges", 0))
        router.migrations = int(payload.get("migrations", 0))
        router.migrated_txns = int(payload.get("migrated_txns", 0))
        live = set().union(*router._root_txns.values())
        for key, parent in router._uf._parent.items():
            # on_txn_removed relies on live, leaf-only transaction keys:
            # fail here, not with a corrupt forest at a later removal.
            if key[0] == _TXN and key[1] not in live:
                bad = key
            elif parent[0] == _TXN and parent != key:
                bad = parent
            else:
                continue
            raise SnapshotError(
                f"router forest key {cls._encode(bad)!r} is a dead or "
                "non-leaf transaction key; was the snapshot taken before "
                "routers kept live keys only?"
            )
        return router

    def __repr__(self) -> str:
        return (
            f"FootprintRouter(shards={self.shards}, "
            f"live={list(self._live_per_shard)}, "
            f"migrations={self.migrations})"
        )


def migrate_group(source, target, migration: Migration) -> None:
    """Move one footprint group between schedulers (in-process).

    *source* and *target* are :class:`~repro.scheduler.base.SchedulerBase`
    instances.  The payload is live objects, not JSON — migration happens
    inside one process; engine snapshots remain the serialization story.
    """
    payload = source.extract_group(migration.txns, migration.entities)
    target.absorb_group(payload)
