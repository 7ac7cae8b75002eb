"""Output checks that void a benchmark run when they fail.

Each check returns a list of human-readable problems; an empty list means
the served outputs agree with the in-process oracle.  The oracle is an
engine built in the load-generator process with the tenant's own
configuration (a plain ``Engine``, or the same ``ShardedEngine`` layout
for the sharded workload) and fed exactly the steps the server
acknowledged.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.engine import build_engine
from repro.model.steps import Begin

#: A transaction that never reached the oracle (audited before its BEGIN
#: was acknowledged, or never sent).
NEVER = float("inf")


class Oracle:
    """An in-process engine plus, per transaction, the step index at
    which its BEGIN was accepted, it aborted, or a sweep deleted it."""

    def __init__(self, config: Dict[str, Any], shards: int = 1) -> None:
        engine_config = {
            k: v for k, v in config.items()
            if k in ("scheduler", "policy", "sweep_interval")
        }
        self.engine = build_engine(shards=shards, **engine_config)
        self.sharded = shards > 1
        self.results: List[Any] = []
        self.fed = 0
        self.begun: Dict[str, int] = {}
        self.aborted: Dict[str, int] = {}
        self.deleted: Dict[str, int] = {}

    def feed(self, steps: Iterable[Any]) -> None:
        engine = self.engine
        results = self.results
        log = None if self.sharded else engine.stats.deleted_ids
        seen = 0 if log is None else len(log)
        for step in steps:
            result = engine.feed(step)
            results.append(result)
            self.fed += 1
            index = self.fed
            if result.accepted and isinstance(step, Begin):
                self.begun.setdefault(step.txn, index)
            for txn in result.aborted:
                self.aborted.setdefault(txn, index)
            if log is not None and len(log) != seen:
                for txn in log[seen:]:
                    self.deleted.setdefault(txn, index)
                seen = len(log)

    def status_at(self, txn: str, applied: int) -> str:
        """What ``audit(txn)`` answers after the first *applied* steps."""
        if self.deleted.get(txn, NEVER) <= applied:
            return "deleted"
        if self.aborted.get(txn, NEVER) <= applied:
            return "aborted"
        if self.begun.get(txn, NEVER) <= applied:
            return "live"
        return "unknown"

    def stats(self) -> Dict[str, Any]:
        return self.engine.stats.as_dict()


def check_decisions(
    served: Sequence[Any], oracle: Sequence[Any], first: int = 1
) -> List[str]:
    """Every served per-step result equals the oracle's, in order
    (*first* numbers the first step of the slice in messages)."""
    problems = []
    if len(served) != len(oracle):
        problems.append(
            f"served {len(served)} step results, oracle has {len(oracle)}"
        )
    for index, (got, want) in enumerate(zip(served, oracle), start=first):
        if got != want:
            problems.append(
                f"step {index}: served {got.decision.value} "
                f"{got.step}, oracle {want.decision.value}"
            )
            break
    return problems


def check_stats(
    served: Dict[str, Any], oracle: Dict[str, Any], *, label: str = "served"
) -> List[str]:
    """Engine totals, including the ordered deletion list, are equal."""
    problems = []
    for key in sorted(set(served) | set(oracle)):
        if served.get(key) != oracle.get(key):
            if key == "deleted_ids":
                problems.append(
                    f"{label} deletion list differs from the oracle "
                    f"({len(served.get(key) or ())} vs "
                    f"{len(oracle.get(key) or ())} entries)"
                )
            else:
                problems.append(
                    f"{label} {key}={served.get(key)!r}, "
                    f"oracle {oracle.get(key)!r}"
                )
    return problems


def check_deleted(served: Iterable[Any], oracle: Iterable[Any], *,
                  label: str = "served") -> List[str]:
    served, oracle = sorted(served), sorted(oracle)
    if served != oracle:
        return [
            f"{label} deleted set ({len(served)}) differs from the "
            f"oracle's ({len(oracle)})"
        ]
    return []


def check_reads(
    reads: Sequence[Tuple[str, str, int]], oracle: Oracle
) -> List[str]:
    """Each replica audit ``(txn, status, applied_seq)`` answers what the
    oracle says after *applied_seq* steps."""
    problems = []
    for txn, status, applied in reads:
        want = oracle.status_at(txn, applied)
        if status != want:
            problems.append(
                f"replica audit of {txn} at seq {applied}: {status}, "
                f"oracle {want}"
            )
            break
    return problems


def check_recovery(
    recovered_seq: int,
    recovered_stats: Dict[str, Any],
    recovered_deleted: Iterable[Any],
    acknowledged: int,
    oracle_stats: Dict[str, Any],
    oracle_deleted: Iterable[Any],
) -> List[str]:
    """The recovered engine holds exactly the acknowledged state."""
    problems = []
    if recovered_seq != acknowledged:
        problems.append(
            f"recovered seq {recovered_seq}, acknowledged {acknowledged}"
        )
    problems += check_stats(recovered_stats, oracle_stats, label="recovered")
    problems += check_deleted(
        recovered_deleted, oracle_deleted, label="recovered"
    )
    return problems


def check_replica(
    primary_stats: Dict[str, Any],
    replica_stats: Dict[str, Any],
    primary_deleted: Sequence[Any],
    replica_deleted: Sequence[Any],
) -> List[str]:
    """After catch-up the replica's stats and deletions are the primary's."""
    problems = check_stats(replica_stats, primary_stats, label="replica")
    if list(replica_deleted) != list(primary_deleted):
        problems.append("replica deleted list differs from the primary's")
    return problems
