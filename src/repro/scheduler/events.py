"""Step decisions and result records.

Every scheduler answers each fed step with a :class:`StepResult`: what was
decided, which arcs were inserted, which transactions aborted as a
consequence (just the issuer in the basic model; a whole cascade in the
multiwrite model), which committed, and — in the predeclared scheduler —
which previously-delayed steps were released by this one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

from repro.model.steps import Step, TxnId

__all__ = ["Decision", "StepResult"]


class Decision(enum.Enum):
    """Outcome of feeding one step."""

    ACCEPTED = "accepted"
    REJECTED = "rejected"  # step refused; issuing transaction aborted
    DELAYED = "delayed"  # predeclared/locking only: step parked, not refused
    # §2: "the sequence of steps that have arrived ... may contain steps of
    # transactions which have in the meantime aborted" — those are ignored.
    IGNORED = "ignored"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class StepResult:
    """Everything that happened while processing one step.

    Attributes
    ----------
    step:
        The step that was fed.
    decision:
        ACCEPTED / REJECTED / DELAYED.
    arcs_added:
        Conflict-graph arcs inserted (tail, head), in insertion order.
    aborted:
        Transactions aborted by this step — the issuer on a REJECTED step,
        plus any cascade (multiwrite model) or deadlock victims (locking).
    committed:
        Transactions whose state reached COMMITTED while processing this
        step (the issuer, and in the multiwrite model any finished
        transactions whose last dependency just committed).
    released:
        Previously delayed steps that executed as a consequence of this
        step (predeclared and locking schedulers), in execution order.
    blocked_on:
        For a DELAYED decision: the transactions the issuer now waits for.
    """

    step: Step
    decision: Decision
    arcs_added: Tuple[Tuple[TxnId, TxnId], ...] = ()
    aborted: Tuple[TxnId, ...] = ()
    committed: Tuple[TxnId, ...] = ()
    released: Tuple[Step, ...] = ()
    blocked_on: Tuple[TxnId, ...] = ()

    @property
    def accepted(self) -> bool:
        return self.decision is Decision.ACCEPTED

    @property
    def rejected(self) -> bool:
        return self.decision is Decision.REJECTED

    @property
    def delayed(self) -> bool:
        return self.decision is Decision.DELAYED

    def __str__(self) -> str:
        parts = [f"{self.step} -> {self.decision}"]
        if self.arcs_added:
            arcs = ", ".join(f"{t}->{h}" for t, h in self.arcs_added)
            parts.append(f"arcs[{arcs}]")
        if self.aborted:
            parts.append(f"aborted{list(self.aborted)}")
        if self.committed:
            parts.append(f"committed{list(self.committed)}")
        if self.blocked_on:
            parts.append(f"waits-for{list(self.blocked_on)}")
        return " ".join(parts)
