"""The unified engine façade: §4's scheduling loop as one configurable object.

§4 defines the combined algorithm: *"A deletion policy together with F
(Rules 1-3) specify the behavior of the scheduling algorithm ... when a new
transaction step arrives, the function F is applied to the current graph
giving a new graph G; then the set of nodes P(G) is removed."*  Everything
in this repository that drives that loop — the CLI, the experiment runner,
the serving and durability layers — goes through :class:`Engine`:

* **Registries** — schedulers and policies are named strings resolved via
  :mod:`repro.registry`, with model-compatibility validated when the
  :class:`EngineConfig` is constructed (``eager-c4`` only pairs with
  ``predeclared``, and so on).
* **Event hooks** — observers subscribe to ``on_step``, ``on_abort``,
  ``on_commit``, ``on_delete``, ``on_sweep`` (and ``on_step_end``), so
  statistics, metric sampling, tracing, and validation are composable
  subscribers instead of hard-coded fields.
* **Batched sweeps** — ``sweep_interval=k`` invokes the deletion policy
  once every *k* steps instead of after every step, amortizing the
  policy's graph scan over the batch (the paper never requires a deletion
  after *each* step; any interleaving of safe deletions is covered by
  Theorem 2).  :meth:`Engine.feed_batch` drives a whole iterable lazily
  and returns an aggregate :class:`BatchResult`.
* **Dirty-set sweeps** — between sweeps the engine tracks which completed
  transactions' deletion-condition status could have changed (new arcs,
  completions, aborts — via the step outcomes it already observes; see
  :mod:`repro.core.dirty`).  A cadence-due sweep whose dirty set is empty
  is skipped outright (``skip_clean_sweeps=False`` restores the classic
  unconditional cadence), and dirty-consuming policies (``eager-c1``,
  ``eager-c3``, ``eager-c4``) re-examine only the dirty transactions —
  with selections provably identical to a full scan.
* **Checkpoint/restore** — :meth:`Engine.snapshot` captures the full loop
  state (graph, currency, input log, variant-specific scheduler state,
  statistics, sweep cadence) as a JSON-ready dict built on the
  :mod:`repro.io` serializers; :meth:`Engine.restore` rebuilds a live
  engine that continues exactly where the snapshot left off.

>>> engine = Engine(scheduler="conflict-graph", policy="eager-c1",
...                 sweep_interval=2, verify_c2=True)
>>> from repro.workloads.traces import example1_schedule
>>> batch = engine.feed_batch(example1_schedule())
>>> batch.accepted, engine.stats.deletions >= 1
(8, True)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro import registry as _registry
from repro.core.dirty import DirtyTracker
from repro.core.policies import DeletionPolicy, NeverDeletePolicy
from repro.core.set_conditions import can_delete_set
from repro.errors import (
    EngineError,
    IncompatiblePolicyError,
    SnapshotError,
    TransactionStateError,
    UnknownNameError,
    UnsafeDeletionError,
)
from repro.model.schedule import Schedule
from repro.model.steps import Begin, BeginDeclared, Step, TxnId
from repro.scheduler.base import SchedulerBase
from repro.scheduler.events import Decision, StepResult
from repro.sharding import FootprintRouter, Migration, footprint_of, migrate_group

__all__ = [
    "SNAPSHOT_FORMAT",
    "SHARDED_SNAPSHOT_FORMAT",
    "AuditRecord",
    "GcStats",
    "EngineObserver",
    "CallbackObserver",
    "StatsObserver",
    "SweepReport",
    "BatchResult",
    "EngineConfig",
    "Engine",
    "ShardedEngine",
    "build_engine",
]

SNAPSHOT_FORMAT = 1
SHARDED_SNAPSHOT_FORMAT = 1
SHARDED_SNAPSHOT_KIND = "sharded-engine"

#: Observer hook names, in firing order within one step.
_HOOK_NAMES = (
    "on_step",
    "on_abort",
    "on_commit",
    "on_delete",
    "on_sweep",
    "on_step_end",
)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@dataclass
class GcStats:
    """Running totals for one engine (né garbage-collected scheduler)."""

    steps_fed: int = 0
    deletions: int = 0
    policy_invocations: int = 0
    peak_graph_size: int = 0
    peak_retained_completed: int = 0
    deleted_ids: List[TxnId] = field(default_factory=list)

    def as_dict(self, *, include_log: bool = True) -> Dict[str, object]:
        """JSON-ready counters; ``include_log=False`` leaves out the
        history-sized ``deleted_ids`` log."""
        payload: Dict[str, object] = {
            "steps_fed": self.steps_fed,
            "deletions": self.deletions,
            "policy_invocations": self.policy_invocations,
            "peak_graph_size": self.peak_graph_size,
            "peak_retained_completed": self.peak_retained_completed,
        }
        if include_log:
            payload["deleted_ids"] = list(self.deleted_ids)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "GcStats":
        return cls(
            steps_fed=int(payload.get("steps_fed", 0)),
            deletions=int(payload.get("deletions", 0)),
            policy_invocations=int(payload.get("policy_invocations", 0)),
            peak_graph_size=int(payload.get("peak_graph_size", 0)),
            peak_retained_completed=int(
                payload.get("peak_retained_completed", 0)
            ),
            deleted_ids=list(payload.get("deleted_ids", ())),
        )


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    """One policy invocation: when it ran and what it selected."""

    sweep_index: int
    step_index: int
    selected: Tuple[TxnId, ...]

    @property
    def deleted_anything(self) -> bool:
        return bool(self.selected)


@dataclass(frozen=True)
class AuditRecord:
    """One transaction's fate, answered from a single accessor.

    The serving read path (and any post-deletion auditor) needs "what
    happened to T?" answered without cross-referencing the live graph,
    the tombstone set, the aborted set, and the deletion log by hand —
    :meth:`Engine.audit` / :meth:`ShardedEngine.audit` collapse those
    four structures into one record.

    ``status`` is one of:

    * ``"live"`` — still in the maintained graph (``state`` carries the
      fine-grained ACTIVE/FINISHED/COMMITTED value);
    * ``"deleted"`` — completed and then removed by a deletion policy;
      the graph keeps only its id-reuse tombstone.  ``deleted_at`` is the
      step index (engine-local logical tick in sharded engines) of the
      sweep that removed it;
    * ``"aborted"`` — rejected or cascade-aborted; its steps are ignored;
    * ``"unknown"`` — never seen (or seen before a restore; see below).

    ``accepted_at`` is the step index at which the transaction's BEGIN
    was accepted.  Acceptance positions and deletion ticks are runtime
    bookkeeping, not part of the checkpoint format: a restored engine
    reports ``None`` for events that predate the restore.
    """

    txn: TxnId
    status: str
    state: Optional[str] = None
    accepted_at: Optional[int] = None
    deleted_at: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "txn": self.txn,
            "status": self.status,
            "state": self.state,
            "accepted_at": self.accepted_at,
            "deleted_at": self.deleted_at,
        }


class EngineObserver:
    """Base observer: subclass and override the hooks you care about.

    Hook firing order per fed step: ``on_step`` (scheduler outcome is in),
    then ``on_abort``/``on_commit`` when the step aborted or committed
    transactions, then — if the sweep cadence is due — ``on_delete`` (only
    when the policy selected something) and ``on_sweep``, and finally
    ``on_step_end`` once the step's full (step, deletion) pair is done.
    """

    def on_step(self, engine: "Engine", result: StepResult) -> None:
        """A step was processed by the scheduler (before any sweep)."""

    def on_abort(
        self, engine: "Engine", result: StepResult, aborted: Tuple[TxnId, ...]
    ) -> None:
        """The step aborted one or more transactions (cascades included)."""

    def on_commit(
        self, engine: "Engine", result: StepResult, committed: Tuple[TxnId, ...]
    ) -> None:
        """The step committed one or more transactions."""

    def on_delete(
        self, engine: "Engine", deleted: Tuple[TxnId, ...], step_index: int
    ) -> None:
        """A sweep removed *deleted* from the graph (sorted order)."""

    def on_sweep(self, engine: "Engine", report: SweepReport) -> None:
        """The deletion policy was invoked (even if it selected nothing)."""

    def on_step_end(self, engine: "Engine", result: StepResult) -> None:
        """The step's full (step, deletion) pair is complete."""


class CallbackObserver(EngineObserver):
    """Adapt plain callables into an observer.

    >>> deleted = []
    >>> obs = CallbackObserver(on_delete=lambda e, ids, i: deleted.extend(ids))
    """

    def __init__(
        self,
        on_step: Optional[Callable] = None,
        on_abort: Optional[Callable] = None,
        on_commit: Optional[Callable] = None,
        on_delete: Optional[Callable] = None,
        on_sweep: Optional[Callable] = None,
        on_step_end: Optional[Callable] = None,
    ) -> None:
        for name, fn in (
            ("on_step", on_step),
            ("on_abort", on_abort),
            ("on_commit", on_commit),
            ("on_delete", on_delete),
            ("on_sweep", on_sweep),
            ("on_step_end", on_step_end),
        ):
            if fn is not None:
                setattr(self, name, fn)


class StatsObserver(EngineObserver):
    """Maintains :class:`GcStats` from engine events.

    Every engine carries one, so ``engine.stats`` is always available.
    """

    def __init__(self, stats: Optional[GcStats] = None) -> None:
        self.stats = stats if stats is not None else GcStats()

    def on_step(self, engine: "Engine", result: StepResult) -> None:
        self.stats.steps_fed += 1

    def on_sweep(self, engine: "Engine", report: SweepReport) -> None:
        self.stats.policy_invocations += 1

    def on_delete(
        self, engine: "Engine", deleted: Tuple[TxnId, ...], step_index: int
    ) -> None:
        self.stats.deletions += len(deleted)
        self.stats.deleted_ids.extend(deleted)

    def on_step_end(self, engine: "Engine", result: StepResult) -> None:
        # Peaks are measured after the (step, deletion) pair completes.
        # The completed count comes from the maintained state mask (one
        # bit_count), not a per-step frozenset materialization.
        graph = engine.graph
        if len(graph) > self.stats.peak_graph_size:
            self.stats.peak_graph_size = len(graph)
        completed = graph.completed_count()
        if completed > self.stats.peak_retained_completed:
            self.stats.peak_retained_completed = completed


# ---------------------------------------------------------------------------
# Batch results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchResult:
    """Aggregate outcome of one :meth:`Engine.feed_batch` call."""

    steps_fed: int
    accepted: int
    rejected: int
    delayed: int
    ignored: int
    aborted: Tuple[TxnId, ...]
    committed: Tuple[TxnId, ...]
    deleted: Tuple[TxnId, ...]
    sweeps: int
    results: Tuple[StepResult, ...]

    def summary(self) -> Dict[str, object]:
        return {
            "steps_fed": self.steps_fed,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "delayed": self.delayed,
            "ignored": self.ignored,
            "aborted_txns": len(self.aborted),
            "committed_txns": len(self.committed),
            "deleted_txns": len(self.deleted),
            "sweeps": self.sweeps,
        }


class BatchFeeder:
    """``feed_many`` / ``feed_batch`` for every engine class.

    Written once against the narrow engine protocol — ``feed``,
    ``deletion_log`` (the ordered deletion log, a live list),
    ``sweeps_run`` and ``flush_and_sweep`` — so :class:`Engine`,
    :class:`ShardedEngine` and the durable wrapper share one batch
    aggregation.
    """

    def feed_many(self, steps: Iterable[Step]) -> List[StepResult]:
        """Feed steps lazily; returns the per-step results."""
        return [self.feed(step) for step in steps]

    def feed_batch(
        self, steps: Iterable[Step], *, flush: bool = False
    ) -> BatchResult:
        """Feed a whole iterable lazily and aggregate the outcome.

        Steps are pulled from *steps* one at a time (generators welcome;
        nothing is materialized up front).  With ``flush=True`` the batch
        ends with :meth:`flush_and_sweep`: deferred BEGINs are
        materialized and every shard with steps since its last sweep is
        swept, so the batch ends with the policy's verdict applied.
        """
        results: List[StepResult] = []
        counts = {decision: 0 for decision in Decision}
        aborted: List[TxnId] = []
        committed: List[TxnId] = []
        deletion_log = self.deletion_log
        deleted_start = len(deletion_log)
        sweeps_start = self.sweeps_run
        for step in steps:
            result = self.feed(step)
            results.append(result)
            counts[result.decision] += 1
            aborted.extend(result.aborted)
            committed.extend(result.committed)
        if flush:
            self.flush_and_sweep()
        return BatchResult(
            steps_fed=len(results),
            accepted=counts[Decision.ACCEPTED],
            rejected=counts[Decision.REJECTED],
            delayed=counts[Decision.DELAYED],
            ignored=counts[Decision.IGNORED],
            aborted=tuple(aborted),
            committed=tuple(committed),
            deleted=tuple(deletion_log[deleted_start:]),
            sweeps=self.sweeps_run - sweeps_start,
            results=tuple(results),
        )


def _aborted_in(results: List[Dict[str, Any]]) -> List[Any]:
    """The sorted aborted set a run of serialized results implies."""
    return sorted({txn for result in results for txn in result["aborted"]})


def _check_spliced(expected: Any, spliced: List[Any], what: str) -> None:
    """A core's recorded log length must match its spliced delta chain."""
    if expected is not None and expected != len(spliced):
        raise SnapshotError(
            f"checkpoint core expects {expected} {what} but the delta "
            f"chain reconstructs {len(spliced)}"
        )


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineConfig:
    """Declarative engine recipe: registry names plus loop knobs.

    Names are resolved (aliases canonicalized) and the scheduler/policy
    pairing is model-checked **at construction time**, so an invalid
    configuration never produces a half-built engine.

    >>> EngineConfig(scheduler="conflict", policy="eager-c1").scheduler
    'conflict-graph'
    """

    scheduler: str = "conflict-graph"
    policy: str = "never"
    sweep_interval: int = 1
    verify_c2: bool = False
    #: Skip cadence sweeps that provably cannot select anything (see
    #: "Dirty-set sweeps" in the Engine docstring).  Off = the classic
    #: unconditional §4 cadence.
    skip_clean_sweeps: bool = True
    scheduler_options: Dict[str, Any] = field(default_factory=dict)
    policy_options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "scheduler", _registry.schedulers.resolve(self.scheduler)
        )
        object.__setattr__(
            self, "policy", _registry.policies.resolve(self.policy)
        )
        if not isinstance(self.sweep_interval, int) or self.sweep_interval < 1:
            raise EngineError(
                f"sweep_interval must be a positive integer, got "
                f"{self.sweep_interval!r}"
            )
        _registry.check_compatible(self.scheduler, self.policy)
        object.__setattr__(
            self, "scheduler_options", dict(self.scheduler_options)
        )
        object.__setattr__(self, "policy_options", dict(self.policy_options))

    def build_scheduler(self) -> SchedulerBase:
        return _registry.create_scheduler(
            self.scheduler, **self.scheduler_options
        )

    def build_policy(self) -> DeletionPolicy:
        return _registry.create_policy(self.policy, **self.policy_options)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "policy": self.policy,
            "sweep_interval": self.sweep_interval,
            "verify_c2": self.verify_c2,
            "skip_clean_sweeps": self.skip_clean_sweeps,
            "scheduler_options": dict(self.scheduler_options),
            "policy_options": dict(self.policy_options),
        }


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class Engine(BatchFeeder):
    """§4's combined scheduling algorithm behind one stable API.

    Construct from registry names (directly or via an
    :class:`EngineConfig`)::

        Engine(scheduler="predeclared", policy="eager-c4", sweep_interval=8)

    or adopt pre-built instances (no registry validation — the caller
    vouches for the pairing)::

        Engine.from_parts(ConflictGraphScheduler(), EagerC1Policy())

    Feed steps with :meth:`feed` / :meth:`feed_batch`; subscribe observers
    with :meth:`subscribe`; checkpoint with :meth:`snapshot` /
    :meth:`restore`.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        observers: Iterable[EngineObserver] = (),
        **overrides: Any,
    ) -> None:
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        self._setup(
            config,
            config.build_scheduler(),
            config.build_policy(),
            config.sweep_interval,
            config.verify_c2,
            observers,
            skip_clean_sweeps=config.skip_clean_sweeps,
        )

    @classmethod
    def from_parts(
        cls,
        scheduler: SchedulerBase,
        policy: Optional[DeletionPolicy] = None,
        *,
        sweep_interval: int = 1,
        verify_c2: bool = False,
        skip_clean_sweeps: bool = True,
        observers: Iterable[EngineObserver] = (),
    ) -> "Engine":
        """Wrap pre-built scheduler/policy instances.

        Registry compatibility validation is **skipped** — this is the
        adoption path for custom (unregistered) components.  When both
        types are registered, an equivalent :class:`EngineConfig` is
        derived so :meth:`snapshot` works; note that constructor options
        of the instances are not recoverable, so a restored engine gets
        registry-default options.
        """
        chosen_policy = policy if policy is not None else NeverDeletePolicy()
        if sweep_interval < 1:
            raise EngineError(
                f"sweep_interval must be a positive integer, got "
                f"{sweep_interval!r}"
            )
        try:
            config: Optional[EngineConfig] = EngineConfig(
                scheduler=_registry.scheduler_name_of(scheduler),
                policy=_registry.policy_name_of(chosen_policy),
                sweep_interval=sweep_interval,
                verify_c2=verify_c2,
                skip_clean_sweeps=skip_clean_sweeps,
            )
        except (UnknownNameError, IncompatiblePolicyError):
            config = None
        engine = cls.__new__(cls)
        engine._setup(
            config, scheduler, chosen_policy, sweep_interval, verify_c2,
            observers, skip_clean_sweeps=skip_clean_sweeps,
        )
        return engine

    def _setup(
        self,
        config: Optional[EngineConfig],
        scheduler: SchedulerBase,
        policy: DeletionPolicy,
        sweep_interval: int,
        verify_c2: bool,
        observers: Iterable[EngineObserver],
        skip_clean_sweeps: bool = True,
    ) -> None:
        self.config = config
        self.scheduler = scheduler
        self.policy = policy
        self.sweep_interval = sweep_interval
        self.verify_c2 = verify_c2
        self.skip_clean_sweeps = skip_clean_sweeps
        self._stats_observer = StatsObserver()
        self._observers: List[EngineObserver] = [self._stats_observer]
        self._observers.extend(observers)
        self._rebuild_hooks()
        self._step_index = 0
        self._steps_since_sweep = 0
        self._sweeps_run = 0
        self._sweeps_skipped = 0
        # Audit bookkeeping (process-lifetime, not serialized): when each
        # transaction's BEGIN was accepted and when a sweep deleted it.
        self._accept_pos: Dict[TxnId, int] = {}
        self._deletion_ticks: Dict[TxnId, int] = {}
        # Sweep-gating state (see "Dirty-set sweeps" in the class
        # docstring).  Conservative until the first sweep: the gate opens
        # and the tracker starts ALL-dirty.
        self._gate_policy: Optional[DeletionPolicy] = None
        self._gate_open = True
        self._dirty_tracker: Optional[DirtyTracker] = None
        self._bind_policy()

    def _bind_policy(self) -> None:
        """(Re)derive gating state from the current policy.

        ``policy`` is a plain attribute a caller may swap mid-run, so
        binding is re-checked by identity on every feed/sweep;
        a swap resets the gate and dirty tracker to their conservative
        states.
        """
        if self._gate_policy is self.policy:
            return
        self._gate_policy = self.policy
        self._gate_open = True
        events = getattr(self.policy, "dirty_events", None)
        self._dirty_tracker = DirtyTracker(events) if events else None

    # -- observers ---------------------------------------------------------------

    def subscribe(self, observer: EngineObserver) -> EngineObserver:
        """Attach *observer*; returns it (handy for inline construction).

        Hook handlers are snapshotted per subscription: only hooks an
        observer actually overrides (or was given as callables) are
        dispatched, so an unobserved hook costs one empty-list test per
        step instead of a getattr loop.  After monkey-patching an
        already-attached observer's hooks, unsubscribe it and subscribe
        it again (subscribing twice dispatches its hooks twice).
        """
        self._observers.append(observer)
        self._rebuild_hooks()
        return observer

    def unsubscribe(self, observer: EngineObserver) -> None:
        self._observers.remove(observer)
        self._rebuild_hooks()

    def _rebuild_hooks(self) -> None:
        """Per-hook handler lists, skipping base-class no-op definitions."""
        hooks: Dict[str, List[Callable]] = {name: [] for name in _HOOK_NAMES}
        for observer in self._observers:
            for name in _HOOK_NAMES:
                handler = getattr(observer, name)
                # Bound methods expose the underlying function; plain
                # callables (CallbackObserver instance attributes) count
                # as overrides by construction.
                func = getattr(handler, "__func__", handler)
                if func is not getattr(EngineObserver, name):
                    hooks[name].append(handler)
        self._hooks = hooks

    def _emit(self, hook: str, *args: Any) -> None:
        handlers = self._hooks[hook]
        if not handlers:
            return
        for handler in handlers:
            handler(self, *args)

    # -- the §4 loop -------------------------------------------------------------

    def feed(self, step: Step) -> StepResult:
        """Apply F to the current graph; sweep when the cadence is due."""
        self._bind_policy()
        if self._dirty_tracker is not None:
            # Asserted per step (not per bind) because restore_state can
            # swap the graph object underneath us; an attribute check +
            # set is nanoseconds next to the step itself.
            self.scheduler.graph.enable_abort_impact()
        result = self.scheduler.feed(step)
        self._step_index += 1
        self._steps_since_sweep += 1
        if (
            result.accepted
            and isinstance(step, (Begin, BeginDeclared))
            and step.txn not in self._accept_pos
        ):
            self._accept_pos[step.txn] = self._step_index
        if result.committed or result.aborted:
            self._gate_open = True
        if self._dirty_tracker is not None:
            self._dirty_tracker.observe(self.scheduler.graph, result)
        self._emit("on_step", result)
        if result.aborted:
            self._emit("on_abort", result, result.aborted)
        if result.committed:
            self._emit("on_commit", result, result.committed)
        if self._steps_since_sweep >= self.sweep_interval:
            if self.skip_clean_sweeps and self._sweep_is_clean():
                # Nothing a policy could newly select: skip the invocation
                # outright, keep the cadence.
                self._steps_since_sweep = 0
                self._sweeps_skipped += 1
            else:
                self.sweep()
        self._emit("on_step_end", result)
        return result

    def _sweep_is_clean(self) -> bool:
        """Can the due sweep be skipped without changing any selection?

        * dirty-consuming policies: yes iff the dirty set is empty;
        * completion-gated policies: yes iff no transaction completed or
          aborted since the last sweep;
        * anything else: never skipped.
        """
        if self._dirty_tracker is not None:
            return self._dirty_tracker.is_empty
        if getattr(self.policy, "completion_gated", False):
            return not self._gate_open
        return False

    def sweep(self) -> FrozenSet[TxnId]:
        """Invoke the policy now and delete its selection; returns it.

        Emits ``on_delete`` (when anything was selected) and ``on_sweep``.
        Resets the batched-sweep cadence and consumes the gating state —
        an explicit call always invokes the policy (no skip), with the
        dirty set when the policy declares it consumes one.
        """
        self._bind_policy()
        if self._dirty_tracker is not None:
            dirty = self._dirty_tracker.snapshot()
            selected = self.policy.select(self.scheduler, dirty=dirty)
            self._dirty_tracker.clear()
        else:
            selected = self.policy.select(self.scheduler)
        self._gate_open = False
        self._sweeps_run += 1
        self._steps_since_sweep = 0
        ordered = tuple(sorted(selected))
        if ordered:
            if self.verify_c2 and not can_delete_set(
                self.scheduler.graph, selected
            ):
                raise UnsafeDeletionError(
                    ordered,
                    f"policy {self.policy.name!r} selected a C2-violating set",
                )
            self.scheduler.delete_transactions(ordered)
            for txn in ordered:
                self._deletion_ticks[txn] = self._step_index
            self._emit("on_delete", ordered, self._step_index)
        self._emit("on_sweep", SweepReport(self._sweeps_run, self._step_index, ordered))
        return frozenset(selected)

    def flush_pending(self) -> int:
        """One shard never defers a BEGIN: nothing to flush (returns 0)."""
        return 0

    def flush_and_sweep(self) -> None:
        """The ``feed_batch(flush=True)`` epilogue: sweep if steps are
        pending since the last sweep."""
        if self._steps_since_sweep:
            self.sweep()

    def note_migration_in(self, txns: Iterable[TxnId]) -> None:
        """A shard migration moved *txns* into this engine's scheduler.

        Migration changes nothing semantic (the moved group's subgraph is
        bit-identical), but any dirtiness the *source* engine was still
        holding for these transactions must not be lost — so they are
        conservatively marked dirty here and the completion gate opens.
        Over-marking never changes a selection (the policy just re-tests
        a condition that is still false).
        """
        self._bind_policy()
        self._gate_open = True
        if self._dirty_tracker is not None:
            self._dirty_tracker.mark(txns)

    # -- views -------------------------------------------------------------------

    @property
    def stats(self) -> GcStats:
        return self._stats_observer.stats

    @property
    def deletion_log(self) -> List[TxnId]:
        """Every deleted id in deletion order (a live list)."""
        return self.stats.deleted_ids

    @property
    def graph(self):
        return self.scheduler.graph

    @property
    def currency(self):
        return self.scheduler.currency

    @property
    def aborted(self):
        return self.scheduler.aborted

    @property
    def step_index(self) -> int:
        """Steps fed so far."""
        return self._step_index

    @property
    def sweeps_run(self) -> int:
        return self._sweeps_run

    @property
    def sweeps_skipped(self) -> int:
        """Cadence-due sweeps skipped because nothing could be selected."""
        return self._sweeps_skipped

    @property
    def steps_since_sweep(self) -> int:
        return self._steps_since_sweep

    def accepted_subschedule(self):
        return self.scheduler.accepted_subschedule()

    def live_transactions(self) -> FrozenSet[TxnId]:
        """Nodes of the maintained graph (mirrors :class:`ShardedEngine`)."""
        return self.scheduler.graph.nodes()

    def deleted_transactions(self) -> FrozenSet[TxnId]:
        """Ids removed by sweeps so far (the graph's tombstone set)."""
        return self.scheduler.graph.deleted_transactions()

    def audit(self, txn: TxnId) -> AuditRecord:
        """One transaction's fate — see :class:`AuditRecord`.

        Answers "was it accepted, is it still retained, when was it
        deleted" from the live graph, the tombstone set, and the aborted
        set in one call; the serving read path exposes it per tenant.
        """
        graph = self.scheduler.graph
        accepted_at = self._accept_pos.get(txn)
        if txn in graph:
            return AuditRecord(
                txn,
                "live",
                state=graph.state(txn).value,
                accepted_at=accepted_at,
            )
        if graph.is_deleted(txn):
            return AuditRecord(
                txn,
                "deleted",
                accepted_at=accepted_at,
                deleted_at=self._deletion_ticks.get(txn),
            )
        if txn in self.scheduler.aborted or graph.is_aborted(txn):
            return AuditRecord(txn, "aborted", accepted_at=accepted_at)
        return AuditRecord(txn, "unknown")

    def __repr__(self) -> str:
        return (
            f"Engine({type(self.scheduler).__name__}, "
            f"policy={self.policy.name!r}, "
            f"sweep_interval={self.sweep_interval}, "
            f"steps={self._step_index}, deletions={self.stats.deletions})"
        )

    # -- checkpoint / restore ------------------------------------------------------

    def snapshot(self, *, include_logs: bool = True) -> Dict[str, Any]:
        """A JSON-ready checkpoint of the whole loop.

        Requires a registry-derived :class:`EngineConfig` (engines adopted
        via :meth:`from_parts` with unregistered components cannot promise
        a faithful rebuild and raise :class:`EngineError`).

        ``include_logs=False`` omits every history-sized section — the
        scheduler's result and input logs and aborted set, the graph's
        tombstone and aborted lists, and the stats' deletion log (see
        :meth:`log_delta`).  Such a *core* is **not** restorable on its
        own: :meth:`splice_logs` puts a chain of log deltas back in first.
        """
        if self.config is None:
            raise EngineError(
                "cannot snapshot an engine built from unregistered parts; "
                "register the scheduler/policy types (repro.registry) first"
            )
        return {
            "format": SNAPSHOT_FORMAT,
            "config": self.config.as_dict(),
            "engine": {
                "step_index": self._step_index,
                "steps_since_sweep": self._steps_since_sweep,
                "sweeps_run": self._sweeps_run,
                "sweeps_skipped": self._sweeps_skipped,
                "gate_open": self._gate_open,
                "dirty": (
                    None
                    if self._dirty_tracker is None
                    else self._dirty_tracker.state_dict()
                ),
            },
            "stats": self.stats.as_dict(include_log=include_logs),
            "scheduler_state": self.scheduler.snapshot_state(
                include_logs=include_logs
            ),
        }

    def log_marks(self) -> Dict[str, Any]:
        """Current length of each history-sized log.

        The input log is marked separately from the result log: a step
        whose processing *raised* is recorded in the scheduler's input
        log but produces no result.  ``aborted`` marks the graph's abort
        log, which the results cannot rebuild (only some schedulers
        remove an aborted transaction through the graph).
        """
        scheduler = self.scheduler
        return {
            "results": len(scheduler._results),
            "input": len(scheduler._input_log),
            "deleted": len(self.stats.deleted_ids),
            "aborted": len(scheduler.graph.abort_log),
        }

    def log_delta(self, marks: Dict[str, Any]) -> Dict[str, Any]:
        """JSON-ready log entries appended since *marks* (a
        :meth:`log_marks` result) — one checkpoint's delta."""
        from repro.io import step_result_to_dict, step_to_dict

        scheduler = self.scheduler
        return {
            "results": [
                step_result_to_dict(r)
                for r in scheduler._results[marks["results"] :]
            ],
            "input": [
                step_to_dict(s) for s in scheduler._input_log[marks["input"] :]
            ],
            "deleted": list(self.stats.deleted_ids[marks["deleted"] :]),
            "aborted": scheduler.graph.abort_log[marks["aborted"] :],
        }

    @staticmethod
    def splice_logs(
        core: Dict[str, Any], deltas: Iterable[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Splice a chain of :meth:`log_delta` payloads (oldest first)
        into a ``snapshot(include_logs=False)`` *core*, in place, making
        it a full snapshot :meth:`restore` accepts; returns it."""
        results: List[Any] = []
        inputs: List[Any] = []
        deleted: List[Any] = []
        aborted: List[Any] = []
        for delta in deltas:
            results.extend(delta["results"])
            inputs.extend(delta["input"])
            deleted.extend(delta["deleted"])
            aborted.extend(delta["aborted"])
        state = core["scheduler_state"]
        _check_spliced(
            state.pop("log_len", None), results, "scheduler log entries"
        )
        _check_spliced(
            state.pop("input_len", None), inputs, "input-log entries"
        )
        state["results"] = results
        state["input_log"] = inputs
        state["aborted"] = _aborted_in(results)
        state["graph"]["deleted"] = sorted(deleted)
        state["graph"]["aborted"] = sorted(aborted)
        core["stats"]["deleted_ids"] = deleted
        return core

    @classmethod
    def restore(
        cls,
        snapshot: Dict[str, Any],
        *,
        observers: Iterable[EngineObserver] = (),
    ) -> "Engine":
        """Rebuild a live engine from a :meth:`snapshot` payload.

        The restored engine continues exactly where the snapshot left off:
        same graph, currency, input log, scheduler-variant state, stats,
        and sweep cadence.  *observers* are attached fresh (observers are
        not serialized) and see only post-restore events.
        """
        if not isinstance(snapshot, dict):
            raise SnapshotError(
                f"engine snapshot must be a dict, got {type(snapshot).__name__}"
            )
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"unsupported engine snapshot format {snapshot.get('format')!r}"
            )
        try:
            config = EngineConfig(**snapshot["config"])
            engine = cls(config, observers=observers)
            engine.scheduler.restore_state(snapshot["scheduler_state"])
            counters = snapshot["engine"]
            engine._step_index = int(counters["step_index"])
            engine._steps_since_sweep = int(counters["steps_since_sweep"])
            engine._sweeps_run = int(counters["sweeps_run"])
            engine._sweeps_skipped = int(counters.get("sweeps_skipped", 0))
            engine._gate_open = bool(counters.get("gate_open", True))
            dirty_state = counters.get("dirty")
            if dirty_state is not None and engine._dirty_tracker is not None:
                engine._dirty_tracker = DirtyTracker.from_state(dirty_state)
            engine._stats_observer.stats = GcStats.from_dict(snapshot["stats"])
        except (KeyError, ValueError, TypeError) as exc:
            raise SnapshotError(f"malformed engine snapshot: {exc}") from exc
        if engine._dirty_tracker is not None:
            # restore_state swapped in a freshly deserialized graph whose
            # abort-impact accumulator is off; re-enable it eagerly so a
            # post-restore abort feeds the tracker the same impacted
            # region an uninterrupted run would have captured, instead of
            # silently degrading to the conservative mark_all reset.
            engine.scheduler.graph.enable_abort_impact()
        return engine


# ---------------------------------------------------------------------------
# The sharded engine
# ---------------------------------------------------------------------------


class ShardedEngine(BatchFeeder):
    """K independent §4 loops behind one feed API, partitioned by footprint.

    Every model's arc/lock/certification rules only ever relate
    transactions that share an entity, so the maintained graph of any run
    is the disjoint union of its *entity-footprint groups* (connected
    components of the transaction-touches-entity bipartite graph).  A
    :class:`~repro.sharding.FootprintRouter` tracks those groups with a
    union-find and pins each to one of *K* shards; every shard owns a full
    :class:`Engine` — its own scheduler, reduced graph, bit kernel,
    deletion policy, and :class:`~repro.core.dirty.DirtyTracker` — and
    every step is fed to its group's shard.  Decisions, aborts, deletions,
    and the (union) live graph are **identical** to a monolithic engine fed
    the same stream (the lockstep property tests replay this across all
    five schedulers); what changes is cost: each shard's mask operations,
    sweeps, and C3 abort-set enumerations are bounded by the *shard's*
    live size, not the system's.

    Cross-group traffic is handled by **migration**: a step that touches
    entities of two groups merges them (union-find), and when the groups
    live on different shards the smaller group's live transactions move
    into the larger group's shard via the kernel's snapshot/patch
    machinery (:meth:`BitClosureGraph.extract_nodes` /
    ``install_nodes``) — closure rows travel as relative masks, nothing is
    re-propagated.

    Routing details worth knowing:

    * A plain ``Begin`` carries no footprint, so it is **deferred**: the
      engine answers ``ACCEPTED`` immediately (a BEGIN never fails and an
      isolated active node influences no decision and no deletion
      condition in any model) and feeds the buffered BEGIN to the resolved
      shard right before the transaction's first footprint-bearing step.
      ``BeginDeclared`` routes immediately on its declared set.  Call
      :meth:`flush_pending` (``feed_batch(flush=True)`` does) to
      materialize transactions that never took a step.
    * Steps of already-aborted transactions are answered ``IGNORED`` at
      the router, exactly like a monolithic scheduler's input filter.
    * Any other non-BEGIN step of a transaction that is not live (never
      begun, deleted, or closed at commit) is refused before routing:
      shard 0's scheduler, which does not know the transaction either,
      raises the monolith's error, and the router is left untouched.
    * The certifier's logical clock is re-synced to the global step
      counter before every feed (:meth:`SchedulerBase.sync_clock`), so
      its timestamp comparisons survive migrations.
    * Two registry policies carry graph-*global* caps and therefore are
      not perfectly shard-equivalent: ``optimal`` bounds its exact search
      by the whole graph's candidate count, and ``eager-c3``'s
      ``max_actives`` guard counts the whole graph's actives — a monolith
      may refuse a C3 check (``DeletionError``) that a shard, seeing only
      its group's actives, happily runs.  Selections that *do* run are
      identical; only the guard trip points differ.  Every other
      registered policy decomposes over groups exactly.

    Per-shard sweep cadence counts the shard's own steps; with the default
    ``sweep_interval=1`` the deletion sets are step-for-step identical to
    the monolith's.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        shards: int = 2,
        observers: Iterable[EngineObserver] = (),
        **overrides: Any,
    ) -> None:
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        if not isinstance(shards, int) or shards < 1:
            raise EngineError(
                f"shards must be a positive integer, got {shards!r}"
            )
        self.config = config
        self.shard_count = shards
        self._router = FootprintRouter(shards)
        self._deleted_ids: List[TxnId] = []
        # Audit bookkeeping (process-lifetime, not serialized; see
        # Engine).  Deletion ticks are stamped with the global logical
        # tick current when the owning shard's sweep fired.
        self._accept_pos: Dict[TxnId, int] = {}
        self._deletion_ticks: Dict[TxnId, int] = {}
        # Id-reuse tombstones: a deleted transaction's graph-level
        # tombstone stays on the shard that deleted it and does not
        # migrate with its group, so the router enforces the monolith's
        # "ids are never reused" rule itself.  (Grows with deletions,
        # exactly like the monolithic graph's _deleted set.)
        self._deleted_set: set[TxnId] = set()
        self._engines: List[Engine] = [
            Engine(config, observers=[self._make_collector()])
            for _ in range(shards)
        ]
        self._aborted: set[TxnId] = set()
        self._pending_begin: Dict[TxnId, Step] = {}
        # One StepResult per fed step, in arrival order — the global
        # record (each result carries its step, so no separate input log
        # is kept; per-shard schedulers log only their own traffic).
        self._results: List[StepResult] = []
        self._steps_fed = 0
        self._ticks = 0
        # System-wide totals, maintained incrementally: per-shard
        # contributions are refreshed only for the shard that was just
        # fed/swept/migrated-into, so per-step cost stays bounded by that
        # shard's size, not the system's.
        self._shard_live = [0] * shards
        self._shard_completed = [0] * shards
        self._live_total = 0
        self._completed_total = 0
        self._peak_live_total = 0
        self._peak_completed_total = 0
        self._extra_observers: List[EngineObserver] = []
        for observer in observers:
            self.subscribe(observer)

    def _make_collector(self) -> EngineObserver:
        """The internal per-shard observer: global deletion order + router
        live-set maintenance."""

        def on_delete(_engine: Engine, deleted, _step_index: int) -> None:
            self._deleted_ids.extend(deleted)
            self._deleted_set.update(deleted)
            for txn in deleted:
                self._router.on_txn_removed(txn)
                self._deletion_ticks[txn] = self._ticks

        return CallbackObserver(on_delete=on_delete)

    # -- observers ---------------------------------------------------------------

    def subscribe(self, observer: EngineObserver) -> EngineObserver:
        """Attach *observer* to every shard engine.

        Hooks fire with the owning *shard* engine as the ``engine``
        argument; each fed step fires on exactly one shard, so global
        counters (steps, aborts, commits, deletions) aggregate correctly.
        """
        for engine in self._engines:
            engine.subscribe(observer)
        self._extra_observers.append(observer)
        return observer

    def unsubscribe(self, observer: EngineObserver) -> None:
        for engine in self._engines:
            engine.unsubscribe(observer)
        self._extra_observers.remove(observer)

    # -- the routed §4 loop -------------------------------------------------------

    def feed(self, step: Step) -> StepResult:
        """Route one step to its footprint group's shard and feed it."""
        if step.txn in self._aborted:
            result = StepResult(step, Decision.IGNORED)
        else:
            result = self._route_and_feed(step)
        self._steps_fed += 1
        if (
            result.accepted
            and isinstance(step, (Begin, BeginDeclared))
            and step.txn not in self._accept_pos
        ):
            self._accept_pos[step.txn] = self._steps_fed
        self._results.append(result)
        if result.aborted:
            self._aborted.update(result.aborted)
            for txn in result.aborted:
                self._router.on_txn_removed(txn)
                self._pending_begin.pop(txn, None)
        return result

    def _refresh_shard_totals(self, shard_index: int) -> None:
        """Re-measure one shard's contribution to the system-wide totals
        and advance the peaks — O(that shard's live size)."""
        graph = self._engines[shard_index].graph
        live = len(graph)
        completed = graph.completed_count()
        self._live_total += live - self._shard_live[shard_index]
        self._completed_total += completed - self._shard_completed[shard_index]
        self._shard_live[shard_index] = live
        self._shard_completed[shard_index] = completed
        if self._live_total > self._peak_live_total:
            self._peak_live_total = self._live_total
        if self._completed_total > self._peak_completed_total:
            self._peak_completed_total = self._completed_total

    def _route_and_feed(self, step: Step) -> StepResult:
        txn = step.txn
        begins = isinstance(step, (Begin, BeginDeclared))
        if begins and txn in self._deleted_set:
            # The deleting shard's graph holds the tombstone, but the
            # group may since have migrated elsewhere; enforce the
            # monolith's id-reuse rule here so the error is identical.
            raise TransactionStateError(
                f"transaction id {txn!r} was already used and removed"
            )
        unrouted = not (
            txn in self._pending_begin or self._router.knows_txn(txn)
        )
        if unrouted and not begins:
            # Not live (never begun, deleted, or closed at commit): refused
            # before routing, since a step that is never applied must not
            # merge groups.  No shard knows the transaction, so shard 0's
            # scheduler raises exactly the monolith's error.
            return self._feed_shard(0, step)
        entities = footprint_of(step)
        if unrouted and not entities:
            self._pending_begin[txn] = step
            return StepResult(step, Decision.ACCEPTED)
        shard = self._resolve(txn, entities)
        pending = self._pending_begin.pop(txn, None)
        if pending is not None:
            self._feed_shard(shard, pending)
        return self._feed_shard(shard, step)

    def _feed_shard(self, shard_index: int, step: Step) -> StepResult:
        """One scheduler feed = one globally unique logical tick.

        Every shard feed gets its own strictly increasing tick, so
        timestamp-comparing schedulers (the certifier) never stamp two
        events — even on different shards — with the same value; the
        stamp order is exactly the global feed order.
        """
        self._ticks += 1
        engine = self._engines[shard_index]
        engine.scheduler.sync_clock(self._ticks)
        result = engine.feed(step)
        for txn in result.committed:
            if txn not in engine.graph:
                # Closed at commit (strict 2PL retains nothing), or
                # already swept by this very feed: no longer live.
                self._router.on_txn_removed(txn)
        self._refresh_shard_totals(shard_index)
        return result

    def _resolve(self, txn: TxnId, entities) -> int:
        shard, migrations = self._router.assign(txn, entities)
        for migration in migrations:
            self._execute_migration(migration)
        return shard

    def _execute_migration(self, migration: Migration) -> None:
        source = self._engines[migration.source]
        target = self._engines[migration.target]
        migrate_group(source.scheduler, target.scheduler, migration)
        moved_completed = [
            txn
            for txn in migration.txns
            if txn in target.graph and target.graph.is_completed(txn)
        ]
        target.note_migration_in(moved_completed)
        self._refresh_shard_totals(migration.source)
        self._refresh_shard_totals(migration.target)

    def flush_pending(self) -> int:
        """Materialize deferred BEGINs that never took a footprint step.

        Behaviorally invisible (an isolated active node affects nothing),
        but it makes the union of shard graphs node-identical to a
        monolithic run's graph.  Returns how many were flushed.
        """
        flushed = 0
        for txn in sorted(self._pending_begin):
            step = self._pending_begin.pop(txn)
            shard = self._resolve(txn, frozenset())
            self._feed_shard(shard, step)
            flushed += 1
        return flushed

    def flush_and_sweep(self) -> None:
        """Materialize pending BEGINs, then sweep every shard that has
        fed steps since its last sweep (the ``feed_batch(flush=True)``
        epilogue, exposed so the durability layer can replay it)."""
        self.flush_pending()
        for index, engine in enumerate(self._engines):
            if engine.steps_since_sweep:
                engine.sweep()
                self._refresh_shard_totals(index)

    def sweep(self) -> FrozenSet[TxnId]:
        """Invoke every shard's policy now; union of the selections."""
        selected: set[TxnId] = set()
        for index, engine in enumerate(self._engines):
            selected |= engine.sweep()
            self._refresh_shard_totals(index)
        return frozenset(selected)

    # -- views -------------------------------------------------------------------

    @property
    def shards(self) -> Tuple[Engine, ...]:
        return tuple(self._engines)

    @property
    def router(self) -> FootprintRouter:
        return self._router

    @property
    def deletion_log(self) -> List[TxnId]:
        """Every deleted id in global deletion order (a live list)."""
        return self._deleted_ids

    @property
    def stats(self) -> GcStats:
        """Merged statistics: global counters plus per-shard sums.

        ``peak_graph_size`` / ``peak_retained_completed`` are peaks of the
        system-wide totals (refreshed after every shard feed); per-shard
        peaks live on ``engine.shards[i].stats``.  Because footprint-less
        BEGINs are deferred, idle not-yet-materialized transactions are
        not counted — a monolithic engine's peak can exceed the sharded
        one by the number of concurrently pending BEGINs.
        """
        merged = GcStats(
            steps_fed=self._steps_fed,
            deletions=len(self._deleted_ids),
            peak_graph_size=self._peak_live_total,
            peak_retained_completed=self._peak_completed_total,
            deleted_ids=list(self._deleted_ids),
        )
        for engine in self._engines:
            merged.policy_invocations += engine.stats.policy_invocations
        return merged

    @property
    def policy(self) -> DeletionPolicy:
        return self._engines[0].policy

    @property
    def scheduler(self) -> SchedulerBase:
        """Shard 0's scheduler (for type/name introspection only)."""
        return self._engines[0].scheduler

    @property
    def aborted(self) -> FrozenSet[TxnId]:
        return frozenset(self._aborted)

    @property
    def step_index(self) -> int:
        return self._steps_fed

    @property
    def sweeps_run(self) -> int:
        return sum(engine.sweeps_run for engine in self._engines)

    @property
    def sweeps_skipped(self) -> int:
        return sum(engine.sweeps_skipped for engine in self._engines)

    @property
    def migrations(self) -> int:
        return self._router.migrations

    @property
    def pending_begins(self) -> Tuple[TxnId, ...]:
        return tuple(sorted(self._pending_begin))

    def graphs(self):
        """The per-shard reduced graphs, shard order."""
        return [engine.graph for engine in self._engines]

    def live_transactions(self) -> FrozenSet[TxnId]:
        """Union of the shard graphs' nodes (pending BEGINs excluded)."""
        live: set[TxnId] = set()
        for engine in self._engines:
            live |= engine.graph.nodes()
        return frozenset(live)

    def deleted_transactions(self) -> FrozenSet[TxnId]:
        """Ids removed by any shard's sweeps (the global tombstone set)."""
        return frozenset(self._deleted_set)

    def audit(self, txn: TxnId) -> AuditRecord:
        """One transaction's fate across all shards — see
        :class:`AuditRecord`.

        Deferred (footprint-less) BEGINs report as live actives: the
        router accepted them, they just have no graph node yet.
        """
        accepted_at = self._accept_pos.get(txn)
        if txn in self._deleted_set:
            return AuditRecord(
                txn,
                "deleted",
                accepted_at=accepted_at,
                deleted_at=self._deletion_ticks.get(txn),
            )
        if txn in self._pending_begin:
            from repro.model.status import TxnState

            return AuditRecord(
                txn, "live", state=TxnState.ACTIVE.value, accepted_at=accepted_at
            )
        for engine in self._engines:
            if txn in engine.graph:
                return AuditRecord(
                    txn,
                    "live",
                    state=engine.graph.state(txn).value,
                    accepted_at=accepted_at,
                )
        if txn in self._aborted:
            return AuditRecord(txn, "aborted", accepted_at=accepted_at)
        return AuditRecord(txn, "unknown")

    def shard_of(self, txn: TxnId) -> Optional[int]:
        """The shard holding *txn*'s live state; ``None`` once it is no
        longer live (deleted, aborted, or closed at commit by a scheduler
        that retains nothing) and before its deferred BEGIN materializes.

        The router forgets a transaction the moment it leaves live state,
        which is what keeps its forest and checkpoints O(live state).
        """
        return self._router.shard_of_txn(txn)

    def accepted_subschedule(self) -> Schedule:
        """The global accepted subschedule, reconstructed from the per-step
        results (per-shard logs only see their own traffic)."""
        from repro.scheduler.certifier import Certifier

        if isinstance(self._engines[0].scheduler, Certifier):
            committed: set[TxnId] = set()
            for engine in self._engines:
                committed |= engine.graph.committed_transactions()
            return Schedule(
                tuple(result.step for result in self._results)
            ).projection(committed)
        delaying = hasattr(self._engines[0].scheduler, "waiting_transactions")
        executed: List[Step] = []
        for result in self._results:
            if result.decision is Decision.ACCEPTED and not (
                delaying and isinstance(result.step, (Begin, BeginDeclared))
            ):
                executed.append(result.step)
            executed.extend(result.released)
        return Schedule(tuple(executed)).accepted_subschedule(self._aborted)

    def shard_report(self) -> List[Dict[str, object]]:
        """Per-shard load/health rows (benchmarks and the CLI table)."""
        rows = []
        for index, engine in enumerate(self._engines):
            stats = engine.stats
            rows.append(
                {
                    "shard": index,
                    "steps_fed": stats.steps_fed,
                    "live": len(engine.graph),
                    "peak_graph": stats.peak_graph_size,
                    "deletions": stats.deletions,
                    "sweeps_run": engine.sweeps_run,
                    "sweeps_skipped": engine.sweeps_skipped,
                    "closure_bytes": engine.graph.kernel.memory_bytes(),
                    "id_capacity": engine.graph.kernel.interner.capacity,
                }
            )
        return rows

    def __repr__(self) -> str:
        return (
            f"ShardedEngine(shards={self.shard_count}, "
            f"policy={self.policy.name!r}, steps={self._steps_fed}, "
            f"deletions={len(self._deleted_ids)}, "
            f"migrations={self._router.migrations})"
        )

    # -- checkpoint / restore ------------------------------------------------------

    def snapshot(self, *, include_logs: bool = True) -> Dict[str, Any]:
        """A JSON-ready checkpoint of the whole sharded loop.

        Format-versioned and bit-exact: every shard's engine snapshot
        (kernel layout included), the router's union-find forest and
        shard assignments as they stand, deferred BEGINs, the global
        per-step result log (one result per fed step; each result carries
        its step, so no separate global input log exists — though each
        shard's own scheduler log still records the traffic it processed,
        as any scheduler does), and the merged counters.  Restore followed
        by re-snapshot yields an identical payload.

        ``include_logs=False`` omits the global result and deletion logs
        (replaced by length markers), the router-level aborted set, and
        every shard's history-sized sections — a checkpoint core, not
        restorable until :meth:`splice_logs` puts the log deltas back in.
        """
        from repro.io import step_result_to_dict, step_to_dict

        payload = {
            "format": SHARDED_SNAPSHOT_FORMAT,
            "kind": SHARDED_SNAPSHOT_KIND,
            "config": self.config.as_dict(),
            "shard_count": self.shard_count,
            "shards": [
                engine.snapshot(include_logs=include_logs)
                for engine in self._engines
            ],
            "router": self._router.state_dict(),
            "pending": [
                step_to_dict(self._pending_begin[txn])
                for txn in sorted(self._pending_begin)
            ],
            "engine": {
                "steps_fed": self._steps_fed,
                "ticks": self._ticks,
                "peak_live_total": self._peak_live_total,
                "peak_completed_total": self._peak_completed_total,
            },
        }
        if include_logs:
            payload["aborted"] = sorted(self._aborted)
            payload["deleted_ids"] = list(self._deleted_ids)
            payload["results"] = [
                step_result_to_dict(r) for r in self._results
            ]
        else:
            # All three grow with history, not live state; incremental
            # checkpoints reconstruct them from their delta chain (feed
            # is the aborted set's only writer, so the spliced results
            # rebuild it).
            payload["deleted_ids_len"] = len(self._deleted_ids)
            payload["results_len"] = len(self._results)
        return payload

    def log_marks(self) -> Dict[str, Any]:
        """Global log lengths plus every shard's :meth:`Engine.log_marks`."""
        return {
            "results": len(self._results),
            "deleted": len(self._deleted_ids),
            "shards": [engine.log_marks() for engine in self._engines],
        }

    def log_delta(self, marks: Dict[str, Any]) -> Dict[str, Any]:
        """The global log entries since *marks*, with one nested
        :meth:`Engine.log_delta` per shard."""
        from repro.io import step_result_to_dict

        return {
            "results": [
                step_result_to_dict(r)
                for r in self._results[marks["results"] :]
            ],
            "deleted": list(self._deleted_ids[marks["deleted"] :]),
            "shards": [
                engine.log_delta(shard_marks)
                for engine, shard_marks in zip(self._engines, marks["shards"])
            ],
        }

    @staticmethod
    def splice_logs(
        core: Dict[str, Any], deltas: Iterable[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Inverse of ``snapshot(include_logs=False)`` plus a chain of
        :meth:`log_delta` payloads; see :meth:`Engine.splice_logs`."""
        results: List[Any] = []
        deleted: List[Any] = []
        shard_chains: List[List[Dict[str, Any]]] = [[] for _ in core["shards"]]
        for delta in deltas:
            results.extend(delta["results"])
            deleted.extend(delta["deleted"])
            for chain, shard_delta in zip(
                shard_chains, delta["shards"], strict=True
            ):
                chain.append(shard_delta)
        _check_spliced(
            core.pop("results_len", None), results, "global results"
        )
        _check_spliced(
            core.pop("deleted_ids_len", None), deleted, "deleted ids"
        )
        core["results"] = results
        core["deleted_ids"] = deleted
        core["aborted"] = _aborted_in(results)
        for shard_core, chain in zip(core["shards"], shard_chains):
            Engine.splice_logs(shard_core, chain)
        return core

    @classmethod
    def restore(
        cls,
        snapshot: Dict[str, Any],
        *,
        observers: Iterable[EngineObserver] = (),
    ) -> "ShardedEngine":
        """Rebuild a live sharded engine from a :meth:`snapshot` payload."""
        from repro.io import step_from_dict, step_result_from_dict

        if not isinstance(snapshot, dict):
            raise SnapshotError(
                "sharded snapshot must be a dict, got "
                f"{type(snapshot).__name__}"
            )
        if (
            snapshot.get("format") != SHARDED_SNAPSHOT_FORMAT
            or snapshot.get("kind") != SHARDED_SNAPSHOT_KIND
        ):
            raise SnapshotError(
                f"unsupported sharded snapshot stamp "
                f"(format={snapshot.get('format')!r}, "
                f"kind={snapshot.get('kind')!r})"
            )
        try:
            engine = cls.__new__(cls)
            engine.config = EngineConfig(**snapshot["config"])
            engine.shard_count = int(snapshot["shard_count"])
            engine._router = FootprintRouter.from_state(snapshot["router"])
            engine._deleted_ids = list(snapshot.get("deleted_ids", ()))
            engine._deleted_set = set(engine._deleted_ids)
            engine._accept_pos = {}
            engine._deletion_ticks = {}
            engine._aborted = set(snapshot["aborted"])
            engine._pending_begin = {}
            for item in snapshot.get("pending", ()):
                step = step_from_dict(item)
                engine._pending_begin[step.txn] = step
            engine._engines = [
                Engine.restore(shard, observers=[engine._make_collector()])
                for shard in snapshot["shards"]
            ]
            if len(engine._engines) != engine.shard_count:
                raise SnapshotError(
                    "sharded snapshot shard_count disagrees with the "
                    "serialized shard list"
                )
            counters = snapshot["engine"]
            engine._steps_fed = int(counters["steps_fed"])
            engine._ticks = int(counters["ticks"])
            engine._shard_live = [len(e.graph) for e in engine._engines]
            engine._shard_completed = [
                e.graph.completed_count() for e in engine._engines
            ]
            engine._live_total = sum(engine._shard_live)
            engine._completed_total = sum(engine._shard_completed)
            engine._peak_live_total = int(counters["peak_live_total"])
            engine._peak_completed_total = int(
                counters["peak_completed_total"]
            )
            engine._results = [
                step_result_from_dict(d) for d in snapshot["results"]
            ]
            engine._extra_observers = []
        except (KeyError, ValueError, TypeError) as exc:
            raise SnapshotError(
                f"malformed sharded snapshot: {exc}"
            ) from exc
        for observer in observers:
            engine.subscribe(observer)
        return engine


#: Keyword arguments :func:`build_engine` itself consumes (everything else
#: must be an :class:`EngineConfig` field).
_BUILDER_KWARGS = frozenset(
    {"shards", "observers", "wal_dir", "checkpoint_interval", "sync"}
)


def build_engine(
    config: Optional[EngineConfig] = None,
    *,
    shards: int = 1,
    observers: Iterable[EngineObserver] = (),
    wal_dir: Optional[str] = None,
    checkpoint_interval: Optional[int] = None,
    sync: Optional[str] = None,
    **overrides: Any,
):
    """``shards == 1`` builds a plain :class:`Engine`, else a
    :class:`ShardedEngine` — the CLI's ``--shards`` entry point.

    With ``wal_dir`` set, the engine is wrapped in a
    :class:`~repro.durability.DurableEngine`: every fed step is appended
    to an on-disk write-ahead log and a checkpoint is taken every
    *checkpoint_interval* steps (default 64), so a crash loses at most
    the torn final record (see :func:`repro.durability.recover`).

    Keyword arguments are validated eagerly: an unknown key raises
    :class:`ValueError` naming it (with a did-you-mean hint), and the
    durability-only knobs (``checkpoint_interval``, ``sync``) raise when
    passed without ``wal_dir`` — a misspelled or misplaced ``wal_dir``
    must never silently yield a non-durable engine.
    """
    config_fields = {f.name for f in dataclasses.fields(EngineConfig)}
    unknown = sorted(set(overrides) - config_fields)
    if unknown:
        import difflib

        known = sorted(config_fields | _BUILDER_KWARGS)
        hints = []
        for key in unknown:
            close = difflib.get_close_matches(key, known, n=1)
            hints.append(
                f"{key!r}" + (f" (did you mean {close[0]!r}?)" if close else "")
            )
        raise ValueError(
            f"build_engine() got unknown keyword argument(s) "
            f"{', '.join(hints)}; known keywords: {', '.join(known)}"
        )
    if wal_dir is not None:
        from repro.durability import DurableEngine

        return DurableEngine(
            config,
            wal_dir=wal_dir,
            shards=shards,
            checkpoint_interval=(
                64 if checkpoint_interval is None else checkpoint_interval
            ),
            sync="checkpoint" if sync is None else sync,
            observers=observers,
            **overrides,
        )
    if checkpoint_interval is not None or sync is not None:
        raise ValueError(
            "checkpoint_interval/sync configure the write-ahead log and "
            "require wal_dir=...; without it the run would silently be "
            "non-durable"
        )
    if shards == 1:
        return Engine(config, observers=observers, **overrides)
    return ShardedEngine(
        config, shards=shards, observers=observers, **overrides
    )
