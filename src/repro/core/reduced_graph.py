"""Reduced graphs of a schedule (§3-§4).

A *reduced graph* of a schedule ``p`` (§4) is any graph ``G`` such that:

1. ``G`` is acyclic;
2. its nodes are transactions of ``p``, including **all** active ones;
3. whenever two transactions present in ``G`` executed conflicting steps,
   an arc records their order — plus possibly extra arcs connecting
   non-conflicting transactions, inherited from earlier removals.

The conflict graph ``CG(p)`` is the reduced graph with no removals
performed.  :class:`ReducedGraph` couples the arc structure (a
:class:`~repro.graphs.bitclosure.BitClosureGraph`: interned dense node
ids, big-int bitmask closure rows — cycle pre-tests are O(1) bit tests and
removal really is "deleting the node from the transitive closure" as the
paper observes, here a masked row patch) with per-transaction payloads
(:class:`TxnInfo`): lifecycle state, strongest executed access per entity,
declared future accesses (predeclared model), and direct read-from
dependencies (multiwrite model).  The object-set
:class:`~repro.graphs.closure.ClosureGraph` kernel remains in the tree as
the reference oracle (``repro.core.reference``); the property tests assert
row-for-row equivalence between the two across all five schedulers.

Hot-path layers (the §4 cost argument: a deletion policy is only worth
running if evaluating it is cheap relative to the growth it prevents):

* **Inverted entity indexes, as masks** — per entity, one bitmask of the
  transactions that executed any access of it and one of those that wrote
  it (likewise for declared-future accesses), maintained by
  :meth:`record_access` / :meth:`consume_future` / :meth:`abort` /
  :meth:`delete`.  :meth:`accessors_of` / :meth:`writers_of` /
  :meth:`future_declarers_of` read one mask, and the condition checkers'
  witness probes ("does any transaction in this set access ``x`` at least
  this strongly?") collapse to a single AND via :meth:`accessors_mask`.
* **State-set masks** — the active / completed / committed sets are
  bitmasks maintained incrementally (:meth:`active_mask` and friends);
  "the actives among the tight predecessors" is one AND.
* **Copy-free tight-path queries** — :meth:`tight_predecessors` and
  friends run a frontier-as-mask BFS over the closure's adjacency rows
  restricted to :meth:`completed_mask` (no ``as_digraph()`` copy, no
  per-neighbor predicate calls) and memoize per *mutation epoch*: the
  epoch bumps on :meth:`add_arc` / :meth:`set_state` / :meth:`abort` /
  :meth:`delete`, so repeated queries within one policy sweep are O(1).
* **Trial deletions** — :meth:`trial_deletions` lets the eager policies
  run their delete/re-evaluate fixed point on the *live* structure and
  revert via an undo log, instead of copying the whole graph per sweep.

Two distinct node-removal operations exist, and conflating them is the
classic implementation bug this library is careful about:

* :meth:`ReducedGraph.abort` — the transaction aborted: node and incident
  arcs vanish, **paths through it are lost** (they never corresponded to
  committed behavior);
* :meth:`ReducedGraph.delete` — deliberate removal ``D(G, Ti)`` of a
  completed transaction: the node is contracted, every immediate
  predecessor gains an arc to every immediate successor, **paths survive**.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.errors import (
    GraphError,
    NotCompletedError,
    TransactionStateError,
    UnknownTransactionError,
)
from repro.graphs.bitclosure import (
    BitClosureGraph,
    BitContractionRecord,
    iter_bits,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.paths import restricted_reach_mask
from repro.model.entities import Entity
from repro.model.status import AccessMode, TxnState, at_least_as_strong
from repro.model.steps import TxnId

__all__ = ["TxnInfo", "ReducedGraph"]


@dataclass
class TxnInfo:
    """Payload the scheduler keeps per transaction node.

    ``accesses`` maps each entity to the strongest access the transaction
    has *executed* on it.  ``future`` is only populated for predeclared
    transactions: the strongest access still to come per entity (entries
    disappear as the declared steps execute).  ``reads_from`` records the
    direct dependencies of the multiwrite model ("A read an entity written
    by B before B committed").
    """

    txn: TxnId
    state: TxnState = TxnState.ACTIVE
    accesses: Dict[Entity, AccessMode] = field(default_factory=dict)
    future: Optional[Dict[Entity, AccessMode]] = None
    reads_from: set = field(default_factory=set)

    def strongest(self, entity: Entity) -> Optional[AccessMode]:
        """Strongest executed access of *entity*, or ``None``."""
        return self.accesses.get(entity)

    def accesses_at_least(self, entity: Entity, reference: AccessMode) -> bool:
        """Has this transaction accessed *entity* at least as strongly as
        *reference*?  (The comparison of conditions C1-C4.)"""
        mode = self.accesses.get(entity)
        return mode is not None and at_least_as_strong(mode, reference)

    def record(self, entity: Entity, mode: AccessMode) -> bool:
        """Strongest-wins merge; returns whether the entry changed (the
        graph-level caller mirrors changes into its entity index)."""
        current = self.accesses.get(entity)
        if current is None or mode > current:
            self.accesses[entity] = mode
            return True
        return False

    def copy(self) -> "TxnInfo":
        return TxnInfo(
            txn=self.txn,
            state=self.state,
            accesses=dict(self.accesses),
            future=None if self.future is None else dict(self.future),
            reads_from=set(self.reads_from),
        )


class _DeletionTrial:
    """Context manager handle returned by :meth:`ReducedGraph.trial_deletions`."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "ReducedGraph") -> None:
        self._graph = graph

    def __enter__(self) -> "ReducedGraph":
        return self._graph

    def __exit__(self, exc_type, exc, tb) -> None:
        self._graph.rollback_trial()


class ReducedGraph:
    """Arc structure + payloads; the object every condition inspects.

    >>> g = ReducedGraph()
    >>> g.add_transaction("T1")
    >>> g.add_transaction("T2")
    >>> g.record_access("T1", "x", AccessMode.READ)
    >>> g.record_access("T2", "x", AccessMode.WRITE)
    >>> g.add_arc("T1", "T2")
    >>> g.set_state("T2", TxnState.COMMITTED)
    >>> sorted(g.active_transactions())
    ['T1']
    >>> g.delete("T2")
    >>> "T2" in g
    False
    """

    def __init__(self) -> None:
        self._closure = BitClosureGraph()
        self._info: Dict[TxnId, TxnInfo] = {}
        self._deleted: set[TxnId] = set()
        self._aborted: set[TxnId] = set()
        # ``_aborted`` in abort order: checkpoints store only its tail.
        self._abort_log: List[TxnId] = []
        # Inverted entity indexes, as masks: per entity, the transactions
        # with any executed access and those with an executed write
        # (likewise for declared futures).  With two access modes the
        # (mask, write-mask) pair answers every ≥-strength query.
        self._entity_any: Dict[Entity, int] = {}
        self._entity_write: Dict[Entity, int] = {}
        self._future_any: Dict[Entity, int] = {}
        self._future_write: Dict[Entity, int] = {}
        # State-set masks (maintained by set_state/abort/delete).
        self._active_bits = 0
        self._completed_bits = 0
        self._committed_bits = 0
        # Mutation epoch + memo cache for the tight-path queries.  The
        # epoch bumps on every mutation that can change a tight set
        # (arcs, states, node removal); the cache is cleared lazily.
        self._epoch = 0
        self._cache_epoch = -1
        self._tight_cache: Dict[Tuple[str, TxnId], int] = {}
        # Undo log while a deletion trial is active (None otherwise).
        self._trial: Optional[
            List[Tuple[TxnId, TxnInfo, BitContractionRecord]]
        ] = None
        # Abort-impact accumulator (None = tracking off).  When enabled,
        # abort() captures the aborting transaction's impacted completed
        # region *before* removal — the engine's DirtyTracker consumes it
        # so an abort dirties only its region instead of everything.
        self._abort_impact: Optional[set[TxnId]] = None

    # -- membership and payloads -------------------------------------------

    def __contains__(self, txn: object) -> bool:
        return txn in self._info

    def __len__(self) -> int:
        return len(self._info)

    def __iter__(self) -> Iterator[TxnId]:
        return iter(self._info)

    def nodes(self) -> FrozenSet[TxnId]:
        return frozenset(self._info)

    def info(self, txn: TxnId) -> TxnInfo:
        try:
            return self._info[txn]
        except KeyError:
            raise UnknownTransactionError(txn) from None

    def state(self, txn: TxnId) -> TxnState:
        return self.info(txn).state

    @property
    def mutation_epoch(self) -> int:
        """Monotone counter of arc/state/membership mutations (cache key)."""
        return self._epoch

    def _bump(self) -> None:
        self._epoch += 1

    # -- mask-native API ----------------------------------------------------
    #
    # The bitset kernel assigns every transaction a dense id; sets of
    # transactions are big-int masks (bit i set = the transaction with id
    # i is a member).  The condition checkers work in this representation
    # and convert to transaction ids only at the API boundary.

    @property
    def kernel(self) -> BitClosureGraph:
        """The bitset closure kernel (read-only use: row lookups for mask
        BFS in the condition checkers)."""
        return self._closure

    @property
    def active_mask(self) -> int:
        return self._active_bits

    @property
    def completed_mask(self) -> int:
        return self._completed_bits

    @property
    def committed_mask(self) -> int:
        return self._committed_bits

    @property
    def live_mask(self) -> int:
        return self._closure.live_mask

    def id_of(self, txn: TxnId) -> int:
        """The dense kernel id of *txn*."""
        return self._closure.id_of(txn)

    def bit_of(self, txn: TxnId) -> int:
        """``1 << id_of(txn)``."""
        return self._closure.bit_of(txn)

    def mask_of(self, txns: Iterable[TxnId]) -> int:
        return self._closure.mask_of(txns)

    def unmask(self, mask: int) -> List[TxnId]:
        """The transactions whose bits are set in *mask* (id order; sort
        the result when deterministic txn order matters)."""
        return self._closure.nodes_of_mask(mask)

    def accessors_mask(
        self, entity: Entity, at_least: AccessMode = AccessMode.READ
    ) -> int:
        """Mask of transactions whose strongest executed access of
        *entity* is ≥ ``at_least`` — the one-AND witness probe."""
        index = (
            self._entity_write
            if at_least is AccessMode.WRITE
            else self._entity_any
        )
        return index.get(entity, 0)

    def future_declarers_mask(
        self, entity: Entity, at_least: AccessMode = AccessMode.READ
    ) -> int:
        index = (
            self._future_write
            if at_least is AccessMode.WRITE
            else self._future_any
        )
        return index.get(entity, 0)

    def descendants_mask(self, txn: TxnId) -> int:
        """Closure row of *txn* as a mask."""
        return self._closure.descendants_mask(txn)

    def ancestors_mask(self, txn: TxnId) -> int:
        return self._closure.ancestors_mask(txn)

    def _guard_trial(self, operation: str) -> None:
        if self._trial is not None:
            raise GraphError(
                f"{operation} is not allowed during a deletion trial; only "
                "delete() may run until rollback_trial()"
            )

    def add_transaction(
        self,
        txn: TxnId,
        state: TxnState = TxnState.ACTIVE,
        declared: Optional[Dict[Entity, AccessMode]] = None,
    ) -> None:
        """Insert a node (Rule 1).  Re-adding an existing id is an error —
        transaction ids are unique for the lifetime of a schedule."""
        self._guard_trial("add_transaction")
        if txn in self._info:
            raise TransactionStateError(f"transaction {txn!r} already present")
        if txn in self._deleted or txn in self._aborted:
            raise TransactionStateError(
                f"transaction id {txn!r} was already used and removed"
            )
        self._closure.add_node(txn)
        info = TxnInfo(
            txn=txn,
            state=state,
            future=None if declared is None else dict(declared),
        )
        self._info[txn] = info
        self._index_payload(txn, info)
        self._bump()

    def _index_payload(self, txn: TxnId, info: TxnInfo) -> None:
        """(Re)register *info* in every index: state masks and the
        executed/future entity masks."""
        bit = self._closure.bit_of(txn)
        self._index_state(bit, info.state)
        entity_any, entity_write = self._entity_any, self._entity_write
        for entity, mode in info.accesses.items():
            entity_any[entity] = entity_any.get(entity, 0) | bit
            if mode is AccessMode.WRITE:
                entity_write[entity] = entity_write.get(entity, 0) | bit
        if info.future:
            future_any, future_write = self._future_any, self._future_write
            for entity, mode in info.future.items():
                future_any[entity] = future_any.get(entity, 0) | bit
                if mode is AccessMode.WRITE:
                    future_write[entity] = future_write.get(entity, 0) | bit

    def _index_state(self, bit: int, state: TxnState) -> None:
        if state.is_active:
            self._active_bits |= bit
        if state.is_completed:
            self._completed_bits |= bit
        if state is TxnState.COMMITTED:
            self._committed_bits |= bit

    def _unindex_state(self, bit: int) -> None:
        not_bit = ~bit
        self._active_bits &= not_bit
        self._completed_bits &= not_bit
        self._committed_bits &= not_bit

    @staticmethod
    def _mask_discard(index: Dict[Entity, int], entity: Entity, bit: int) -> None:
        mask = index.get(entity)
        if mask is not None:
            mask &= ~bit
            if mask:
                index[entity] = mask
            else:
                del index[entity]

    def set_state(self, txn: TxnId, state: TxnState) -> None:
        self._guard_trial("set_state")
        info = self.info(txn)
        if info.state is state:
            return
        info.state = state
        bit = self._closure.bit_of(txn)
        self._unindex_state(bit)
        self._index_state(bit, state)
        self._bump()

    def record_access(self, txn: TxnId, entity: Entity, mode: AccessMode) -> None:
        """Merge an executed access into the payload (strongest wins)."""
        self._guard_trial("record_access")
        if self.info(txn).record(entity, mode):
            bit = self._closure.bit_of(txn)
            self._entity_any[entity] = self._entity_any.get(entity, 0) | bit
            if mode is AccessMode.WRITE:
                self._entity_write[entity] = (
                    self._entity_write.get(entity, 0) | bit
                )

    def consume_future(self, txn: TxnId, entity: Entity, mode: AccessMode) -> None:
        """Predeclared bookkeeping: an executed step uses up (part of) the
        declared future access of *entity*.

        We keep the declaration conservative: once a step of strength equal
        to the declared strongest mode has executed, the entity's future
        entry is dropped; weaker executed steps leave the declaration in
        place (the strong access is still to come).
        """
        self._guard_trial("consume_future")
        future = self.info(txn).future
        if future is None:
            return
        declared = future.get(entity)
        if declared is not None and mode >= declared:
            del future[entity]
            self._drop_future_index(self._closure.bit_of(txn), entity)

    def clear_future(self, txn: TxnId) -> None:
        """Completion: no declared steps remain."""
        self._guard_trial("clear_future")
        info = self.info(txn)
        if info.future:
            bit = self._closure.bit_of(txn)
            for entity in info.future:
                self._drop_future_index(bit, entity)
        if info.future is not None:
            info.future = {}

    def _drop_future_index(self, bit: int, entity: Entity) -> None:
        self._mask_discard(self._future_any, entity, bit)
        self._mask_discard(self._future_write, entity, bit)

    def _drop_entity_index(self, bit: int, info: TxnInfo) -> None:
        for entity in info.accesses:
            self._mask_discard(self._entity_any, entity, bit)
            self._mask_discard(self._entity_write, entity, bit)
        if info.future:
            for entity in info.future:
                self._drop_future_index(bit, entity)

    # -- arc structure -------------------------------------------------------

    def add_arc(self, tail: TxnId, head: TxnId) -> None:
        self._guard_trial("add_arc")
        if tail not in self._info:
            raise UnknownTransactionError(tail)
        if head not in self._info:
            raise UnknownTransactionError(head)
        if self._closure.has_arc(tail, head):
            return
        self._closure.add_arc(tail, head)
        self._bump()

    def has_arc(self, tail: TxnId, head: TxnId) -> bool:
        return self._closure.has_arc(tail, head)

    def arcs(self) -> Iterator[Tuple[TxnId, TxnId]]:
        return self._closure.arcs()

    def arc_count(self) -> int:
        return self._closure.arc_count()

    def successors(self, txn: TxnId) -> FrozenSet[TxnId]:
        return self._closure.successors(txn)

    def predecessors(self, txn: TxnId) -> FrozenSet[TxnId]:
        return self._closure.predecessors(txn)

    def reaches(self, source: TxnId, target: TxnId) -> bool:
        return self._closure.reaches(source, target)

    def ancestors(self, txn: TxnId) -> FrozenSet[TxnId]:
        """All (not just tight) predecessors — nodes with a path into txn."""
        return self._closure.ancestors(txn)

    def descendants(self, txn: TxnId) -> FrozenSet[TxnId]:
        """All (not just tight) successors."""
        return self._closure.descendants(txn)

    def successors_view(self, txn: TxnId):
        """Internal successor set — read-only, no copy (hot paths)."""
        return self._closure.successors_view(txn)

    def predecessors_view(self, txn: TxnId):
        """Internal predecessor set — read-only, no copy (hot paths)."""
        return self._closure.predecessors_view(txn)

    def ancestors_view(self, txn: TxnId):
        """Internal ancestor set — read-only, no copy (hot paths)."""
        return self._closure.ancestors_view(txn)

    def descendants_view(self, txn: TxnId):
        """Internal descendant set — read-only, no copy (hot paths)."""
        return self._closure.descendants_view(txn)

    def would_close_cycle(self, tail: TxnId, head: TxnId) -> bool:
        return self._closure.would_close_cycle(tail, head)

    def would_arcs_close_cycle(self, arcs: Iterable[Tuple[TxnId, TxnId]]) -> bool:
        """Would atomically inserting all *arcs* close a cycle?

        All arcs of one scheduler step share their head (basic/multiwrite
        rules) or their tail (predeclared rules), so pairwise O(1) closure
        tests suffice: a mixed-head *and* mixed-tail step never occurs.
        """
        return any(self.would_close_cycle(tail, head) for tail, head in arcs)

    def as_digraph(self) -> DiGraph:
        """A mutable snapshot of the arc structure (for oracles/analysis)."""
        return self._closure.as_digraph()

    # -- transaction classification -------------------------------------------

    def active_transactions(self) -> FrozenSet[TxnId]:
        return frozenset(self._closure.nodes_of_mask(self._active_bits))

    def completed_transactions(self) -> FrozenSet[TxnId]:
        """Type F and C transactions (all completed ones)."""
        return frozenset(self._closure.nodes_of_mask(self._completed_bits))

    def committed_transactions(self) -> FrozenSet[TxnId]:
        return frozenset(self._closure.nodes_of_mask(self._committed_bits))

    def active_count(self) -> int:
        return self._active_bits.bit_count()

    def completed_count(self) -> int:
        return self._completed_bits.bit_count()

    def is_completed(self, txn: TxnId) -> bool:
        return self.info(txn).state.is_completed

    def deleted_transactions(self) -> FrozenSet[TxnId]:
        """Ids removed by :meth:`delete` so far (bookkeeping only)."""
        return frozenset(self._deleted)

    def is_deleted(self, txn: TxnId) -> bool:
        """Membership test against the tombstone set (no copy)."""
        return txn in self._deleted

    def aborted_transactions(self) -> FrozenSet[TxnId]:
        return frozenset(self._aborted)

    def is_aborted(self, txn: TxnId) -> bool:
        """Membership test against the aborted set (no copy)."""
        return txn in self._aborted

    @property
    def abort_log(self) -> List[TxnId]:
        """The aborted ids in abort order (a live list; a deserialized
        graph starts it sorted)."""
        return self._abort_log

    # -- entity-indexed queries ------------------------------------------------

    def accessors_of(
        self,
        entity: Entity,
        at_least: AccessMode = AccessMode.READ,
    ) -> FrozenSet[TxnId]:
        """Transactions in the graph whose strongest executed access of
        *entity* is ≥ ``at_least`` — one index mask, no node scan."""
        return frozenset(
            self._closure.nodes_of_mask(self.accessors_mask(entity, at_least))
        )

    def writers_of(self, entity: Entity) -> FrozenSet[TxnId]:
        return self.accessors_of(entity, AccessMode.WRITE)

    def future_declarers_of(
        self,
        entity: Entity,
        at_least: AccessMode = AccessMode.READ,
    ) -> FrozenSet[TxnId]:
        """Transactions with a declared-but-unexecuted access of *entity*
        of strength ≥ ``at_least`` (predeclared model index)."""
        return frozenset(
            self._closure.nodes_of_mask(
                self.future_declarers_mask(entity, at_least)
            )
        )

    # -- tight / FC path queries -------------------------------------------------

    def _cached_mask(self, kind: str, txn: TxnId) -> Optional[int]:
        if self._cache_epoch != self._epoch:
            self._tight_cache.clear()
            self._cache_epoch = self._epoch
            return None
        return self._tight_cache.get((kind, txn))

    def tight_predecessors_mask(self, txn: TxnId) -> int:
        """Mask of nodes with a path into *txn* through completed
        intermediates — frontier-as-mask BFS over the closure's
        predecessor rows restricted to :meth:`completed_mask`.

        Memoized per mutation epoch: repeated queries within one policy
        sweep cost a dict lookup.
        """
        cached = self._cached_mask("tp", txn)
        if cached is None:
            if txn not in self._info:
                raise UnknownTransactionError(txn)
            cached = restricted_reach_mask(
                self._closure.pred_row,
                self._closure.id_of(txn),
                self._completed_bits,
            )
            self._tight_cache[("tp", txn)] = cached
        return cached

    def tight_successors_mask(self, txn: TxnId) -> int:
        cached = self._cached_mask("ts", txn)
        if cached is None:
            if txn not in self._info:
                raise UnknownTransactionError(txn)
            cached = restricted_reach_mask(
                self._closure.succ_row,
                self._closure.id_of(txn),
                self._completed_bits,
            )
            self._tight_cache[("ts", txn)] = cached
        return cached

    def active_tight_predecessors_mask(self, txn: TxnId) -> int:
        """The actives among the tight predecessors — C1's quantifier,
        one AND on the maintained masks."""
        return self.tight_predecessors_mask(txn) & self._active_bits

    def completed_tight_successors_mask(self, txn: TxnId) -> int:
        return self.tight_successors_mask(txn) & self._completed_bits

    def tight_predecessors(self, txn: TxnId) -> FrozenSet[TxnId]:
        """Nodes with a path into *txn* through completed intermediates.

        §3: "Transaction Ti is a tight predecessor of Tj if there is a path
        from Ti to Tj that uses only completed transactions as intermediate
        nodes."  In the multiwrite model completed = type F or C, so this
        doubles as the FC-path predecessor set.
        """
        return frozenset(
            self._closure.nodes_of_mask(self.tight_predecessors_mask(txn))
        )

    def tight_successors(self, txn: TxnId) -> FrozenSet[TxnId]:
        return frozenset(
            self._closure.nodes_of_mask(self.tight_successors_mask(txn))
        )

    def active_tight_predecessors(self, txn: TxnId) -> FrozenSet[TxnId]:
        """The actives among the tight predecessors — C1's quantifier."""
        return frozenset(
            self._closure.nodes_of_mask(
                self.active_tight_predecessors_mask(txn)
            )
        )

    def completed_tight_successors(self, txn: TxnId) -> FrozenSet[TxnId]:
        return frozenset(
            self._closure.nodes_of_mask(
                self.completed_tight_successors_mask(txn)
            )
        )

    # -- node removal ---------------------------------------------------------

    def enable_abort_impact(self) -> None:
        """Start capturing abort-impact regions (idempotent).

        The engine turns this on whenever a dirty-consuming deletion
        policy is active; standalone graph users never pay for it.
        """
        if self._abort_impact is None:
            self._abort_impact = set()

    def consume_abort_impact(self) -> Optional[set[TxnId]]:
        """Drain the accumulated abort-impact region.

        ``None`` means tracking was never enabled (callers must fall back
        to a conservative mark-all); otherwise the returned set names the
        completed transactions whose deletion condition may have flipped
        to *true* because of aborts since the last drain (some may since
        have left the graph — stale ids are harmless over-approximation).
        """
        if self._abort_impact is None:
            return None
        region = self._abort_impact
        self._abort_impact = set()
        return region

    def abort(self, txn: TxnId) -> None:
        """Remove an aborted transaction: node + incident arcs, no bypass."""
        self._guard_trial("abort")
        if txn not in self._info:
            raise UnknownTransactionError(txn)
        info = self._info[txn]
        if self._abort_impact is not None:
            # Captured on the pre-removal graph: the completed descendants
            # of the aborting transaction (its loss can cut FC-paths and
            # shed active-predecessor obligations) and of its still-active
            # ancestors — the same over-approximated region a step or
            # completion dirties.  For a cascade, each victim's region is
            # captured at its own removal; any candidate affected by the
            # cascade is a descendant of the *last* victim on its path,
            # whose region is computed while that path's non-victim
            # intermediates are still present.
            from repro.core.dirty import impacted_completed

            self._abort_impact |= impacted_completed(self, txn)
        bit = self._closure.bit_of(txn)  # before the id is recycled
        self._closure.remove_node_abort(txn)
        del self._info[txn]
        self._aborted.add(txn)
        self._abort_log.append(txn)
        self._unindex_state(bit)
        self._drop_entity_index(bit, info)
        self._bump()

    def delete(self, txn: TxnId) -> None:
        """The removal operation ``D(G, txn)`` (§3): contract the node.

        Only completed transactions may be removed; in the multiwrite model
        the conditions further restrict deletion to *committed* ones, which
        the condition layer (not this structural method) enforces.

        Inside a :meth:`trial_deletions` block the contraction is recorded
        on an undo log and reverted by :meth:`rollback_trial`.
        """
        info = self.info(txn)
        if not info.state.is_completed:
            raise NotCompletedError(txn, info.state)
        bit = self._closure.bit_of(txn)  # before the id is recycled
        if self._trial is not None:
            record = self._closure.contract_recording(txn)
            self._trial.append((txn, info, record))
        else:
            self._closure.contract(txn)
        del self._info[txn]
        self._deleted.add(txn)
        self._unindex_state(bit)
        self._drop_entity_index(bit, info)
        self._bump()

    def delete_set(self, txns: Iterable[TxnId]) -> None:
        """``D(G, N)``; §4: "the order of deletion of nodes in N is
        immaterial"."""
        for txn in list(txns):
            self.delete(txn)

    # -- trial deletions --------------------------------------------------------

    def trial_deletions(self) -> _DeletionTrial:
        """Run deletions on the live graph, then revert them all.

        The eager fixed-point policies use this instead of copying the
        whole graph per sweep::

            with graph.trial_deletions():
                ... graph.delete(txn) ...   # recorded on the undo log
            # here every trial deletion has been reverted exactly

        While a trial is active every *other* mutation raises
        :class:`~repro.errors.GraphError` — a trial reasons about
        deletions only.
        """
        self.begin_trial()
        return _DeletionTrial(self)

    def begin_trial(self) -> None:
        if self._trial is not None:
            raise GraphError("a deletion trial is already active")
        self._trial = []

    @property
    def in_trial(self) -> bool:
        return self._trial is not None

    def rollback_trial(self) -> None:
        """Revert every deletion since :meth:`begin_trial`, newest first."""
        log = self._trial
        if log is None:
            raise GraphError("no deletion trial is active")
        self._trial = None
        for txn, info, record in reversed(log):
            self._closure.uncontract(record)
            self._info[txn] = info
            self._deleted.discard(txn)
            self._index_payload(txn, info)
        self._bump()

    # -- copying ---------------------------------------------------------------

    def copy(self) -> "ReducedGraph":
        """An independent deep copy by direct set cloning.

        Not allowed mid-trial: a copy taken then would freeze trial
        deletions as permanent and clone detached (leaked) interner slots.

        The closure is cloned row-by-row (no arc-by-arc re-propagation
        through ``add_arc``) and the entity/state indexes are rebuilt from
        the cloned payloads; ``check_invariants`` in the property tests
        asserts the clone equals a closure rebuilt from scratch.
        """
        self._guard_trial("copy")
        clone = ReducedGraph()
        clone._closure = self._closure.copy()
        clone._info = {txn: info.copy() for txn, info in self._info.items()}
        clone._deleted = set(self._deleted)
        clone._aborted = set(self._aborted)
        clone._abort_log = list(self._abort_log)
        for txn, info in clone._info.items():
            clone._index_payload(txn, info)
        return clone

    def reduced_by(self, txns: Iterable[TxnId]) -> "ReducedGraph":
        """A copy with ``D(G, N)`` applied — the original is untouched."""
        clone = self.copy()
        clone.delete_set(txns)
        return clone

    # -- group extraction / installation (shard migration) -----------------------

    def extract_subgraph(self, txns: Iterable[TxnId]) -> Dict[str, object]:
        """Remove a footprint group and return an installable payload.

        The group must be closed under arcs (no arc crosses its boundary)
        — which an entity-footprint group always is, since every arc
        source shares an entity with its head.  The payload carries the
        live :class:`TxnInfo` objects and the kernel's relative closure
        rows (:meth:`BitClosureGraph.extract_nodes`); transactions not
        present in the graph (already deleted/aborted, or never begun
        here) are skipped.  Deletion/abort bookkeeping stays behind: those
        ids can never be re-added anywhere.
        """
        self._guard_trial("extract_subgraph")
        order = sorted(t for t in set(txns) if t in self._info)
        bits = {txn: self._closure.bit_of(txn) for txn in order}
        kernel_part = self._closure.extract_nodes(order)
        infos: List[TxnInfo] = []
        for txn in order:
            info = self._info.pop(txn)
            infos.append(info)
            bit = bits[txn]
            self._unindex_state(bit)
            self._drop_entity_index(bit, info)
        self._bump()
        return {"infos": infos, "kernel": kernel_part}

    def install_subgraph(self, payload: Dict[str, object]) -> None:
        """Inverse of :meth:`extract_subgraph`, into *this* graph.

        Node ids are re-interned here (fresh bits); closure rows are
        installed by bit translation, payload indexes are rebuilt from
        the moved :class:`TxnInfo` objects.
        """
        self._guard_trial("install_subgraph")
        infos: List[TxnInfo] = payload["infos"]  # type: ignore[assignment]
        for info in infos:
            if info.txn in self._info:
                raise TransactionStateError(
                    f"install_subgraph: transaction {info.txn!r} already "
                    "present"
                )
            if info.txn in self._deleted or info.txn in self._aborted:
                raise TransactionStateError(
                    f"install_subgraph: transaction id {info.txn!r} was "
                    "already used and removed here"
                )
        self._closure.install_nodes(payload["kernel"])
        for info in infos:
            self._info[info.txn] = info
            self._index_payload(info.txn, info)
        self._bump()

    # -- invariants (test helper) ------------------------------------------------

    def check_invariants(self) -> None:
        """Assert every index/cache layer agrees with a from-scratch scan."""
        self._closure.check_invariants()
        if set(self._info) != set(self._closure.nodes()):
            raise GraphError("payload/kernel membership drift")
        active = completed = committed = 0
        entity_any: Dict[Entity, int] = {}
        entity_write: Dict[Entity, int] = {}
        future_any: Dict[Entity, int] = {}
        future_write: Dict[Entity, int] = {}
        for txn, info in self._info.items():
            bit = self._closure.bit_of(txn)
            if info.state.is_active:
                active |= bit
            if info.state.is_completed:
                completed |= bit
            if info.state is TxnState.COMMITTED:
                committed |= bit
            for entity, mode in info.accesses.items():
                entity_any[entity] = entity_any.get(entity, 0) | bit
                if mode is AccessMode.WRITE:
                    entity_write[entity] = entity_write.get(entity, 0) | bit
            if info.future:
                for entity, mode in info.future.items():
                    future_any[entity] = future_any.get(entity, 0) | bit
                    if mode is AccessMode.WRITE:
                        future_write[entity] = (
                            future_write.get(entity, 0) | bit
                        )
        if active != self._active_bits:
            raise GraphError("active-mask index drift")
        if completed != self._completed_bits:
            raise GraphError("completed-mask index drift")
        if committed != self._committed_bits:
            raise GraphError("committed-mask index drift")
        if entity_any != self._entity_any or entity_write != self._entity_write:
            raise GraphError("entity mask index drift")
        if future_any != self._future_any or future_write != self._future_write:
            raise GraphError("future-entity mask index drift")

    def __repr__(self) -> str:
        states = {
            "A": self._active_bits.bit_count(),
            "F/C": self._completed_bits.bit_count(),
        }
        return (
            f"ReducedGraph(nodes={len(self)}, arcs={self.arc_count()}, "
            f"active={states['A']}, completed={states['F/C']})"
        )
