"""The step algebra.

A schedule is a sequence of steps.  Which step kinds are legal depends on
the model variant:

Basic model (Section 2)
    ``Begin(t)`` then any number of ``Read(t, x)`` then one final
    ``Write(t, {x1, ..., xk})`` — the atomic write that installs all written
    values and completes the transaction.

Multiple-write-step model (Section 5)
    ``Begin(t)`` then an arbitrary interleaving of ``Read(t, x)`` and
    ``WriteItem(t, x)`` steps, closed by ``Finish(t)``; the transaction then
    commits once it no longer depends on active transactions.

Predeclared model (Section 5)
    ``BeginDeclared(t, reads, writes)`` announces the full access sets up
    front; subsequent ``Read``/``WriteItem`` steps must match the
    declaration.  (The predeclared criterion C4 "holds even in the multiple
    write model", so our predeclared transactions use per-entity write
    steps.)

Steps are immutable value objects; schedulers never mutate them.  Every step
carries the id of the transaction issuing it.  They are slotted (no
per-instance ``__dict__``): an engine retains every fed step in its logs,
so the bytes per step are a memory cost of the whole history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Mapping, Tuple, Union

from repro.errors import InvalidStepError
from repro.model.entities import Entity
from repro.model.status import AccessMode

__all__ = [
    "TxnId",
    "Begin",
    "BeginDeclared",
    "Read",
    "Write",
    "WriteItem",
    "Finish",
    "Step",
    "conflicting_modes",
    "steps_conflict",
    "accessed_entities",
]

TxnId = str


@dataclass(frozen=True, slots=True)
class Begin:
    """BEGIN step: *"every transaction starts with a BEGIN step"* (§2)."""

    txn: TxnId

    def __str__(self) -> str:
        return f"begin({self.txn})"


@dataclass(frozen=True, slots=True)
class BeginDeclared:
    """BEGIN of a predeclared transaction, carrying its declared accesses.

    ``declared`` maps each entity the transaction will touch to the
    strongest mode it will use on that entity.  The scheduler's Rule 1'
    (Section 5) adds arcs *into* the new node from every transaction that
    has already executed a step conflicting with a declared future step.
    """

    txn: TxnId
    declared: Mapping[Entity, AccessMode] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Freeze the mapping so the dataclass is genuinely immutable and
        # hashable regardless of what mapping type the caller handed in.
        object.__setattr__(self, "declared", dict(self.declared))

    def __hash__(self) -> int:
        return hash((self.txn, frozenset(self.declared.items())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BeginDeclared):
            return NotImplemented
        return self.txn == other.txn and dict(self.declared) == dict(other.declared)

    def __str__(self) -> str:
        body = ", ".join(
            f"{mode.name[0].lower()}{entity}"
            for entity, mode in sorted(self.declared.items())
        )
        return f"begin({self.txn}; declares {body})"


@dataclass(frozen=True, slots=True)
class Read:
    """Read step ``r x`` of a transaction."""

    txn: TxnId
    entity: Entity

    def __str__(self) -> str:
        return f"r{self.entity}({self.txn})"


@dataclass(frozen=True, slots=True)
class Write:
    """The *final atomic* write step of the basic model.

    Installs every entity in ``entities`` at once and completes the
    transaction: *"all values written by a transaction are installed
    atomically at the end"* (§2, assumption 1).  ``entities`` may be empty —
    a read-only transaction completes with an empty final write.
    """

    txn: TxnId
    entities: FrozenSet[Entity] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "entities", frozenset(self.entities))

    def __str__(self) -> str:
        body = ",".join(sorted(self.entities)) or "∅"
        return f"w{{{body}}}({self.txn})"


@dataclass(frozen=True, slots=True)
class WriteItem:
    """A single write step ``w x`` in the multiple-write-step model (§5)."""

    txn: TxnId
    entity: Entity

    def __str__(self) -> str:
        return f"w{self.entity}({self.txn})"


@dataclass(frozen=True, slots=True)
class Finish:
    """End-of-steps marker in the multiwrite model.

    After FINISH the transaction is of type F until every transaction it
    depends on has committed, at which point it becomes type C.
    """

    txn: TxnId

    def __str__(self) -> str:
        return f"finish({self.txn})"


Step = Union[Begin, BeginDeclared, Read, Write, WriteItem, Finish]


def conflicting_modes(a: AccessMode, b: AccessMode) -> bool:
    """Two accesses of the *same entity* conflict iff at least one writes.

    (§2: "Two steps of two (different) transactions conflict if they involve
    the same entity and at least one of them is a write step.")
    """
    return a.is_write or b.is_write


def _step_accesses(step: Step) -> Tuple[Tuple[Entity, AccessMode], ...]:
    """The (entity, mode) pairs a step performs.  BEGIN/FINISH access
    nothing; declared accesses of ``BeginDeclared`` are *future* accesses and
    deliberately not included here."""
    if isinstance(step, Read):
        return ((step.entity, AccessMode.READ),)
    if isinstance(step, Write):
        return tuple((entity, AccessMode.WRITE) for entity in sorted(step.entities))
    if isinstance(step, WriteItem):
        return ((step.entity, AccessMode.WRITE),)
    return ()


def accessed_entities(step: Step) -> FrozenSet[Entity]:
    """Entities a step actually touches (empty for BEGIN/FINISH)."""
    return frozenset(entity for entity, _mode in _step_accesses(step))


def steps_conflict(first: Step, second: Step) -> bool:
    """``True`` iff the two steps belong to *different* transactions and
    perform conflicting accesses on some common entity.

    >>> steps_conflict(Read("T1", "x"), Write("T2", {"x"}))
    True
    >>> steps_conflict(Read("T1", "x"), Read("T2", "x"))
    False
    >>> steps_conflict(Read("T1", "x"), Write("T1", {"x"}))
    False
    """
    if first.txn == second.txn:
        return False
    first_accesses = dict(_step_accesses(first))
    if not first_accesses:
        return False
    for entity, mode in _step_accesses(second):
        other = first_accesses.get(entity)
        if other is not None and conflicting_modes(other, mode):
            return True
    return False


def validate_declared(declared: Mapping[Entity, AccessMode]) -> None:
    """Raise :class:`InvalidStepError` if a declaration is malformed."""
    for entity, mode in declared.items():
        if not isinstance(mode, AccessMode):
            raise InvalidStepError(
                f"declared access of {entity!r} must be an AccessMode, "
                f"got {mode!r}"
            )


def reads_then_final_write(
    txn: TxnId,
    reads: Iterable[Entity],
    writes: Iterable[Entity],
) -> Tuple[Step, ...]:
    """Convenience constructor for a basic-model transaction's step list.

    >>> [str(s) for s in reads_then_final_write("T1", ["x", "y"], ["z"])]
    ['begin(T1)', 'rx(T1)', 'ry(T1)', 'w{z}(T1)']
    """
    step_list: list[Step] = [Begin(txn)]
    step_list.extend(Read(txn, entity) for entity in reads)
    step_list.append(Write(txn, frozenset(writes)))
    return tuple(step_list)
