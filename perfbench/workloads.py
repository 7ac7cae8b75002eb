"""The four benchmark workloads and the step streams they feed.

Every workload draws from the same banking generator: 512 accounts, zipf
0.8, deposit share 0.3, one 16-account audit after every 50 updates and
multiprogramming 8.  ``banking_stream``'s interleaver is quadratic in the
number of transactions, so a long stream is built from independent
*chunks* of ``CHUNK_UPDATES`` updates each, generated from seeds derived
from the benchmark seed; transaction ids are suffixed with a chunk
number so chunks never share a transaction (see :class:`Stream`).
Chunks are generated before any timing starts and cached on disk under
``.perfbench_cache/`` (keyed by workload stream and seed), so repeats of
a workload and seed reuse them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.model.steps import Begin, Finish, Read, Write
from repro.workloads.banking import BankingConfig, banking_stream

#: Updates per generated chunk (about 2,000 steps, ten audits).
CHUNK_UPDATES = 500
#: Steps per ``feed_batch`` request, on every workload.
BATCH_STEPS = 32
#: Seed reserved for checking a performance claim; never used while
#: tuning the benchmark or a change.
HELD_OUT_SEED = 9173

CACHE_DIR = ".perfbench_cache"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    policy: str
    sweep_interval: int
    partitions: int  # 1 = unpartitioned stream; 4 = four branches
    cross_fraction: float
    durable: bool
    shards: int = 1
    replica: bool = False
    #: Open-loop write rate in steps/s; ``None`` = one closed-loop writer.
    write_rate: Optional[float] = None
    #: Open-loop replica audit rate in reads/s.
    read_rate: Optional[float] = None

    @property
    def stream_key(self) -> str:
        return f"p{self.partitions}-x{self.cross_fraction}"

    def tenant_config(self) -> Dict[str, Any]:
        config: Dict[str, Any] = {
            "scheduler": "conflict-graph",
            "policy": self.policy,
            "sweep_interval": self.sweep_interval,
        }
        if self.durable:
            config.update(
                shards=self.shards,
                checkpoint_interval=CHECKPOINT_INTERVAL,
                sync=FLUSH_POLICY,
            )
        return config


#: Every durable tenant: each WAL record is flushed to the OS, each
#: checkpoint is fsync'd.
FLUSH_POLICY = "checkpoint"
CHECKPOINT_INTERVAL = 64

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ack-write",
            why=(
                "durable eager-c1 tenant, one closed-loop writer: few "
                "transactions retained, so checkpoint snapshot/encode/write "
                "dominate and the engine core does little"
            ),
            policy="eager-c1",
            sweep_interval=32,
            partitions=4,
            cross_fraction=0.02,
            durable=True,
        ),
        Workload(
            name="audit-pinned",
            why=(
                "in-memory noncurrent tenant, sweep every 4 steps: long "
                "audits pin ~480 completed transactions, so scheduler.feed "
                "and the kernel dominate; durability does nothing"
            ),
            policy="noncurrent",
            sweep_interval=4,
            partitions=1,
            cross_fraction=0.0,
            durable=False,
        ),
        Workload(
            name="replica-read",
            why=(
                "ack-write primary plus a co-hosted replica; open-loop "
                "writes (128 steps/s) and replica audits (100/s) on one "
                "event loop: the only added layer is replication (chain "
                "adoption)"
            ),
            policy="eager-c1",
            sweep_interval=32,
            partitions=4,
            cross_fraction=0.02,
            durable=True,
            replica=True,
            write_rate=128.0,
            read_rate=100.0,
        ),
        Workload(
            name="sharded-ack-write",
            why=(
                "ack-write with shards=4 on the same stream: only the "
                "router, per-shard WAL streams and sharded checkpoint "
                "branches differ"
            ),
            policy="eager-c1",
            sweep_interval=32,
            partitions=4,
            cross_fraction=0.02,
            durable=True,
            shards=4,
        ),
    )
}


# -- stream generation ------------------------------------------------------


def chunk_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index * 7_919) % (2**31)


def generate_chunk(workload: Workload, seed: int, index: int) -> List[list]:
    """One chunk as compact rows ``[kind, txn, entity...]``."""
    config = BankingConfig(
        n_accounts=512,
        n_transfers=CHUNK_UPDATES,
        deposit_fraction=0.3,
        audit_every=50,
        audit_span=16,
        zipf_s=0.8,
        multiprogramming=8,
        seed=chunk_seed(seed, index),
        partitions=workload.partitions,
        cross_fraction=workload.cross_fraction,
    )
    rows: List[list] = []
    for step in banking_stream(config).steps:
        if isinstance(step, Begin):
            rows.append(["b", step.txn])
        elif isinstance(step, Read):
            rows.append(["r", step.txn, step.entity])
        elif isinstance(step, Write):
            rows.append(["w", step.txn, *sorted(step.entities)])
        elif isinstance(step, Finish):
            rows.append(["f", step.txn])
        else:  # pragma: no cover - the banking generator emits only these
            raise TypeError(f"unexpected step {step!r}")
    return rows


class Stream:
    """The endless step stream of one workload and seed.

    ``BASE_CHUNKS`` chunks are generated (or loaded from the cache) up
    front; step *j* is the base row at ``j mod cycle`` with its
    transaction renamed for its cycle, so a stream of any length costs
    only the base generation plus a rename per step taken.
    """

    def __init__(self, chunks: List[List[list]]) -> None:
        self.rows: List[list] = []
        self.chunk_of: List[int] = []
        for index, chunk in enumerate(chunks):
            self.rows.extend(chunk)
            self.chunk_of.extend([index] * len(chunk))
        self.cycle = len(self.rows)
        self.chunks = len(chunks)

    def txn_at(self, j: int) -> str:
        cycle, p = divmod(j, self.cycle)
        return f"{self.rows[p][1]}.{cycle * self.chunks + self.chunk_of[p]}"

    def step_at(self, j: int):
        cycle, p = divmod(j, self.cycle)
        row = self.rows[p]
        txn = f"{row[1]}.{cycle * self.chunks + self.chunk_of[p]}"
        kind = row[0]
        if kind == "b":
            return Begin(txn)
        if kind == "r":
            return Read(txn, row[2])
        if kind == "w":
            return Write(txn, frozenset(row[2:]))
        return Finish(txn)

    def steps(self, start: int, stop: int) -> list:
        return [self.step_at(j) for j in range(start, stop)]

    def batch(self, index: int, size: int = BATCH_STEPS) -> list:
        return self.steps(index * size, (index + 1) * size)


#: Chunks generated per workload stream and seed (about 32,000 steps).
BASE_CHUNKS = 16


def load_stream(
    root: pathlib.Path, workload: Workload, seed: int
) -> Tuple[Stream, float]:
    """The workload's stream for *seed*, plus the seconds spent
    generating it (zero when the cache already held it)."""
    import time

    cache = root / CACHE_DIR / f"{workload.stream_key}-s{seed}.json"
    try:
        return Stream(json.loads(cache.read_text())), 0.0
    except (OSError, ValueError):
        pass
    started = time.perf_counter()
    chunks = [generate_chunk(workload, seed, i) for i in range(BASE_CHUNKS)]
    spent = time.perf_counter() - started
    cache.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(chunks, separators=(",", ":")))
    os.replace(tmp, cache)
    return Stream(chunks), spent


def describe(workload: Workload) -> Dict[str, Any]:
    """The workload's settings, for the result stamp."""
    record = dataclasses.asdict(workload)
    record.pop("why")
    record["stream"] = {
        "generator": "banking_stream",
        "accounts": 512,
        "zipf_s": 0.8,
        "deposit_fraction": 0.3,
        "audit_every": 50,
        "audit_span": 16,
        "multiprogramming": 8,
        "chunk_updates": CHUNK_UPDATES,
        "base_chunks": BASE_CHUNKS,
        "batch_steps": BATCH_STEPS,
    }
    return record
