"""The repository benchmark: acknowledged writes and replica reads over the wire.

    python3 perfbench/run.py --workload ack-write --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each run starts ``ReproServer`` in a
process of its own (``perfbench/server_main.py``), drives it from this
process over at most two connections with ``AsyncServingClient``, checks
every served output against an in-process oracle, and prints one JSON
object as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes an
untraced run and then a traced one (spans recorded by the server
launcher around each layer's entry points) and reports the per-layer
metrics.  Lines before the last one are a human-readable report: the
result stamp, every metric with its unit, and the output checks.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import itertools
import json
import math
import os
import pathlib
import platform
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"

#: Server spawns per run for ``setup_s`` (the median is reported); the
#: last spawn is the one measured.
SETUP_SPAWNS = 7
#: Per-request deadline; a failed request counts as this latency.
REQUEST_TIMEOUT_S = 30.0
#: How long the load generator waits for a server to print READY.
READY_TIMEOUT_S = 60.0
#: Stated tolerance of the traced self-time sum check: root spans plus
#: event-loop idle time must cover the traced wall time within this share.
SUM_TOLERANCE = 0.05
#: Designated layers per workload, for the design check of a traced run.
DESIGNATED = {
    "ack-write": ("durability", "storageio"),
    "audit-pinned": ("scheduler", "bitclosure", "policies"),
    "replica-read": ("replication",),
    "sharded-ack-write": ("sharding", "durability"),
}
LAYERS = (
    "io", "server", "durability", "storageio", "engine", "dirty",
    "scheduler", "bitclosure", "policies", "replication", "sharding",
)


def fail_setup(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


if not (SRC / "repro" / "__init__.py").is_file():
    fail_setup(
        f"no src/repro under {ROOT}; run from the root of a checkout"
    )
sys.path.insert(0, str(SRC))

from repro.client import AsyncServingClient  # noqa: E402
from repro.durability import recover  # noqa: E402
from repro.errors import (  # noqa: E402
    ConnectionDroppedError,
    ReproError,
    RequestTimeoutError,
)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    BATCH_STEPS,
    FLUSH_POLICY,
    HELD_OUT_SEED,
    WORKLOADS,
    Stream,
    Workload,
    describe,
    load_stream,
)


# -- statistics -------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def lateness_grows(sends: List[Tuple[float, float]]) -> bool:
    """Backlog test for an open-loop sender: ``sends`` holds
    ``(due, late)`` pairs.  True when the median lateness of the last
    quarter exceeds 50 ms and twice that of the first quarter."""
    if len(sends) < 8:
        return False
    quarter = len(sends) // 4
    head = statistics.median(late for _, late in sends[:quarter])
    tail = statistics.median(late for _, late in sends[-quarter:])
    return tail > 0.05 and tail > 2 * head


# -- the server process -------------------------------------------------------


class ServerProcess:
    """One ``server_main.py`` child: spawn, READY handshake, kill."""

    def __init__(self, trace_path: Optional[str] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
        command = [sys.executable, str(HERE / "server_main.py")]
        if trace_path:
            command += ["--trace", trace_path]
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
        )
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("server process did not become ready")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 64)
                if not chunk:
                    raise RuntimeError("server process closed stdout")
                line += chunk
        word, port = line.decode().split()
        if word != "READY":
            raise RuntimeError(f"unexpected server banner {line!r}")
        return int(port)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def _proc_field(self, name: str, key: str) -> int:
        with open(f"/proc/{self.pid}/{name}") as handle:
            for line in handle:
                if line.startswith(key):
                    return int(line.split()[1])
        raise RuntimeError(f"no {key} in /proc/<pid>/{name}")

    def proc_io_wchar(self) -> int:
        """Bytes the server passed to write-like syscalls (sockets'
        sendmsg is not counted)."""
        return self._proc_field("io", "wchar:")

    def cpu_seconds(self) -> float:
        """User + system CPU time the server process has used."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        return self._proc_field("status", "VmHWM:") / 1024.0

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# -- one measured phase -------------------------------------------------------


class Phase:
    """Spawn, set up, drive for ``seconds``, then check the outputs."""

    def __init__(
        self,
        workload: Workload,
        stream: Stream,
        seed: int,
        seconds: float,
        rundir: pathlib.Path,
        *,
        spawns: int,
        trace: bool,
    ) -> None:
        self.workload = workload
        self.stream = stream
        self.seed = seed
        self.seconds = seconds
        self.rundir = rundir
        self.spawns = spawns
        self.trace_path = str(rundir / "trace.json") if trace else None
        self.server: Optional[ServerProcess] = None
        self.setup_times: List[float] = []
        self.write_lat: List[float] = []
        self.read_lat: List[float] = []
        self.lags: List[int] = []
        self.sends: List[Tuple[float, float]] = []
        self.reads: List[Tuple[str, str, int]] = []
        self.served: List[Any] = []
        self.acks: List[float] = []
        self.acked_steps = 0
        self.attempted = 0
        self.failed = 0
        self.void: List[str] = []
        self.problems: List[str] = []
        self.report: Dict[str, Any] = {}

    # -- setup --------------------------------------------------------------

    def primary_dir(self, spawn: int) -> str:
        return str(self.rundir / f"spawn{spawn}" / "primary")

    async def _spawn(self, spawn: int, trace: Optional[str]):
        """Spawn a server and create the tenants; returns the server and
        the connected client."""
        config = self.workload.tenant_config()
        started = time.perf_counter()
        server = ServerProcess(trace)
        try:
            client = await AsyncServingClient.connect(
                "127.0.0.1", server.port, timeout=REQUEST_TIMEOUT_S
            )
            kwargs = dict(config)
            if self.workload.durable:
                kwargs["wal_dir"] = self.primary_dir(spawn)
            await client.create_tenant("primary", **kwargs)
            if self.workload.replica:
                await client.create_tenant(
                    "replica", replica_of=self.primary_dir(spawn)
                )
            await client.ping()
        except BaseException:
            server.kill()
            raise
        self.setup_times.append(time.perf_counter() - started)
        return server, client

    # -- load ---------------------------------------------------------------

    async def _write(self, client, batch) -> Optional[dict]:
        self.attempted += 1
        try:
            return await client.feed_batch("primary", batch, results=True)
        except (RequestTimeoutError, ConnectionDroppedError) as exc:
            self.failed += 1
            self.void.append(f"write outcome unknown: {exc}")
            raise
        except ReproError as exc:
            self.failed += 1
            self.problems.append(f"write refused: {exc}")
            return None

    async def _write_acked(self, client, batch, deadline) -> Optional[dict]:
        """Write *batch* until it is acknowledged.  A refusal (the batch
        was not applied) counts as one failed request at the deadline
        latency and is retried; ``None`` when the phase ends first."""
        while True:
            response = await self._write(client, batch)
            if response is not None:
                return response
            self.write_lat.append(REQUEST_TIMEOUT_S)
            if time.perf_counter() >= deadline:
                return None

    async def _closed_writer(self, client, deadline) -> None:
        for index in itertools.count():
            if time.perf_counter() >= deadline:
                return
            batch = self.stream.batch(index)
            sent = time.perf_counter()
            response = await self._write_acked(client, batch, deadline)
            if response is None:
                return
            self.write_lat.append(time.perf_counter() - sent)
            self._accept(batch, response)

    async def _open_writer(self, client, start, deadline) -> None:
        interval = BATCH_STEPS / self.workload.write_rate
        for index in itertools.count():
            due = start + index * interval
            if due >= deadline:
                return
            batch = self.stream.batch(index)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.sends.append((due, time.perf_counter() - due))
            response = await self._write_acked(client, batch, deadline)
            if response is None:
                return
            self.write_lat.append(time.perf_counter() - due)
            self._accept(batch, response)

    def _accept(self, batch, response) -> None:
        results = response["results"]
        if len(results) != len(batch):
            self.problems.append(
                f"batch of {len(batch)} steps answered with "
                f"{len(results)} results"
            )
        self.served.extend(results)
        self.acked_steps += len(batch)
        self.acks.append(time.perf_counter())

    async def _reader(self, client, start, deadline) -> None:
        rng = random.Random(self.seed * 31 + 7)
        interval = 1.0 / self.workload.read_rate
        index = 0
        while True:
            due = start + index * interval
            index += 1
            if due >= deadline:
                return
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            acked = self.acked_steps
            if not acked:
                continue
            txn = self.stream.txn_at(rng.randrange(acked))
            self.attempted += 1
            try:
                response = await client.request(
                    {"op": "audit", "tenant": "replica", "txn": txn},
                    idempotent=True,
                )
            except ReproError as exc:
                self.failed += 1
                self.read_lat.append(REQUEST_TIMEOUT_S)
                self.problems.append(f"replica read refused: {exc}")
                continue
            self.read_lat.append(time.perf_counter() - due)
            stamp = response["replica"]
            self.lags.append(stamp["lag_seq"])
            self.reads.append(
                (txn, response["audit"]["status"], stamp["wal_seq"])
            )

    # -- the phase ------------------------------------------------------------

    async def run(self) -> None:
        for spawn in range(self.spawns - 1):
            server, client = await self._spawn(spawn, None)
            await client.close()
            server.kill()
        last = self.spawns - 1
        self.server, client = await self._spawn(last, self.trace_path)
        reader = None
        try:
            if self.workload.replica:
                reader = await AsyncServingClient.connect(
                    "127.0.0.1", self.server.port, timeout=REQUEST_TIMEOUT_S
                )
            await self._measure(client, reader)
            await self._verify(client)
        finally:
            for conn in (client, reader):
                if conn is not None:
                    await conn.close()
            self.server.kill()
        if self.workload.durable and not self.void:
            self._recover(last)

    async def _measure(self, client, reader) -> None:
        if self.trace_path:
            self.server.signal(signal.SIGUSR1)
            await asyncio.sleep(0.05)
        wchar0 = self.server.proc_io_wchar()
        cpu0 = self.server.cpu_seconds()
        own0 = time.process_time()
        start = time.perf_counter()
        deadline = start + self.seconds
        self.report["start"] = start
        tasks = []
        if self.workload.write_rate is None:
            tasks.append(self._closed_writer(client, deadline))
        else:
            tasks.append(self._open_writer(client, start, deadline))
        if reader is not None:
            tasks.append(self._reader(reader, start, deadline))
        try:
            await asyncio.gather(*tasks)
        except (RequestTimeoutError, ConnectionDroppedError):
            pass
        elapsed = time.perf_counter() - start
        wchar = self.server.proc_io_wchar() - wchar0
        self.report["server_cpu"] = self.server.cpu_seconds() - cpu0
        self.report["loadgen_cpu"] = time.process_time() - own0
        if self.trace_path:
            self.server.signal(signal.SIGUSR2)
            await self._await_dump()
        self.report.update(elapsed=elapsed, wchar=wchar)

    async def _await_dump(self) -> None:
        deadline = time.monotonic() + 120
        while not os.path.exists(self.trace_path):
            if time.monotonic() > deadline:
                raise RuntimeError("server wrote no trace dump")
            await asyncio.sleep(0.05)

    async def _verify(self, client) -> None:
        """Wire-side checks and server-reported metrics (before the kill)."""
        metrics = await client.metrics()
        engine = metrics["tenants"]["primary"]["engine"]
        self.report["peak_graph_size"] = engine["peak_graph_size"]
        primary_stats = await client.query("primary", "stats")
        primary_deleted = await client.query("primary", "deleted")
        self.report["rss_mb"] = self.server.peak_rss_mb()
        # Oracle: the acknowledged prefix, fed in process and compared a
        # slice at a time so the two result lists are never both whole.
        oracle = checks.Oracle(
            self.workload.tenant_config(), shards=self.workload.shards
        )
        for start in range(0, self.acked_steps, 4096):
            stop = min(start + 4096, self.acked_steps)
            oracle.feed(self.stream.steps(start, stop))
            self.problems += checks.check_decisions(
                self.served[start:stop], oracle.results, first=start + 1
            )
            oracle.results.clear()
        self.served = []
        self.oracle_state = (
            oracle.stats(), oracle.engine.deleted_transactions()
        )
        self.problems += checks.check_stats(primary_stats, oracle.stats())
        self.problems += checks.check_deleted(
            primary_deleted, oracle.engine.deleted_transactions()
        )
        if self.workload.replica:
            self.problems += checks.check_reads(self.reads, oracle)
            await self._catch_up(client)
            replica_stats = await client.query("replica", "stats")
            replica_deleted = await client.query("replica", "deleted")
            self.problems += checks.check_replica(
                primary_stats, replica_stats, primary_deleted, replica_deleted
            )

    async def _catch_up(self, client) -> None:
        target = (await client.tenant_info("primary"))["wal_seq"]
        deadline = time.monotonic() + 60
        while (await client.tenant_info("replica"))["wal_seq"] < target:
            if time.monotonic() > deadline:
                self.problems.append("replica did not catch up within 60 s")
                return
            await asyncio.sleep(0.02)

    def _recover(self, spawn: int) -> None:
        started = time.perf_counter()
        engine = recover(self.primary_dir(spawn))
        self.report["recover_s"] = time.perf_counter() - started
        try:
            self.problems += checks.check_recovery(
                engine.seq,
                engine.stats.as_dict(),
                engine.deleted_transactions(),
                self.acked_steps,
                *self.oracle_state,
            )
        finally:
            engine.close()

    # -- results --------------------------------------------------------------

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        """The gated metrics: defined, and never 0, on every workload.

        ``latency_ms`` is the workload's headline latency, the most
        stable statistic of its measured request.  On the write workloads
        (one closed-loop writer) it is the mean ``feed_batch`` ack
        latency: every second 32-step batch carries a 64-record
        checkpoint and about half of audit-pinned's batches an abort, so
        the median sits on a mode boundary and jumps between modes from
        run to run.  On ``replica-read`` it is the median replica-audit
        latency, timed from when the read was due: the mean there is
        dominated by chain-adoption stalls whose length grows with run
        time and host speed.  Percentiles of both are in the report.
        """
        elapsed = self.report["elapsed"]
        if self.workload.replica:
            latency = percentile(self.read_lat, 0.50)
        else:
            latency = statistics.fmean(self.write_lat)
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "steps_per_s": (self.acked_steps / elapsed, "1/s"),
            "latency_ms": (1000 * latency, "ms"),
            "peak_retained_txns": (self.report["peak_graph_size"], "count"),
            "server_peak_rss_mb": (self.report["rss_mb"], "MB"),
        }

    def throughput_decay(self) -> float:
        """Acknowledged steps/s in the last quarter of the timed phase
        over the first quarter (1.0 = no slowdown as history grows)."""
        start, elapsed = self.report["start"], self.report["elapsed"]
        quarter = elapsed / 4
        first = sum(1 for t in self.acks if t < start + quarter)
        last = sum(1 for t in self.acks if t >= start + 3 * quarter)
        return last / first if first else 0.0

    def reported_only(self) -> Dict[str, Tuple[float, str]]:
        """Metrics printed by name but not gated: they exist only on some
        workloads, may read 0, or jump between latency modes."""
        out = {
            "ack_ms_p50": (1000 * percentile(self.write_lat, 0.50), "ms"),
            "ack_ms_p99": (1000 * percentile(self.write_lat, 0.99), "ms"),
            "write_requests": (len(self.write_lat), "count"),
            "error_rate": (self.failed / max(self.attempted, 1), "ratio"),
            "throughput_decay": (self.throughput_decay(), "ratio"),
            "server_cpu_share": (
                self.report["server_cpu"] / self.report["elapsed"], "ratio"
            ),
            "loadgen_cpu_share": (
                self.report["loadgen_cpu"] / self.report["elapsed"], "ratio"
            ),
        }
        if self.workload.durable:
            out["disk_bytes_per_step"] = (
                self.report["wchar"] / max(self.acked_steps, 1), "B/step"
            )
            if "recover_s" in self.report:
                out["recover_s"] = (self.report["recover_s"], "s")
        if self.workload.replica and self.read_lat:
            out["read_requests"] = (len(self.read_lat), "count")
            out["read_ms_p50"] = (1000 * percentile(self.read_lat, 0.50), "ms")
            out["read_ms_p99"] = (1000 * percentile(self.read_lat, 0.99), "ms")
            out["replica_lag_p99"] = (percentile(self.lags, 0.99), "records")
        if self.sends:
            lates = [late for _, late in self.sends]
            out["loadgen.late_ms_p99"] = (1000 * percentile(lates, 0.99), "ms")
            out["loadgen.backlog"] = (int(lateness_grows(self.sends)), "flag")
        return out


# -- traced-run summary ---------------------------------------------------------


def per_layer(
    phase: Phase, untraced_rate: float, codec_s: float
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, Any]]:
    dump = tracing.load_dump(phase.trace_path)
    summary = tracing.summarize(dump)
    counters = dump["counters"]
    self_t, total = summary["self"], summary["total"]
    extra = dump["extra"]["primary"]
    steps = max(phase.acked_steps, 1)

    def s(table, key):
        return table.get(key, 0.0)

    busy = {layer: 0.0 for layer in LAYERS}
    for name, seconds in summary["owned"].items():
        layer = name.split(".", 1)[0]
        if name in tracing.WAIT_SPANS or layer not in busy:
            continue
        busy[layer] += seconds
    busy_total = sum(busy.values()) or 1.0
    shares = {layer: busy[layer] / busy_total for layer in LAYERS}
    designated = DESIGNATED[phase.workload.name]
    group = sum(shares[layer] for layer in designated)
    rest = max(shares[layer] for layer in LAYERS if layer not in designated)
    invocations = counters.get("policies.invocations", 0)
    lates = [late for _, late in phase.sends]
    gap = abs(summary["wall"] - summary["roots"] - summary["idle"])
    metrics: Dict[str, Tuple[float, str]] = {
        "durability.checkpoint_self_s": (s(self_t, "durability.checkpoint"), "s"),
        "durability.feed_self_s": (s(self_t, "durability.feed"), "s"),
        "durability.checkpoints": (counters.get("durability.checkpoints", 0), "count"),
        "engine.snapshot_s": (s(self_t, "engine.snapshot"), "s"),
        "storageio.append_s": (s(total, "storageio.append"), "s"),
        "storageio.fsyncs": (counters.get("storageio.fsyncs", 0), "count"),
        "storageio.fsync_s": (s(total, "storageio.fsync"), "s"),
        "storageio.checkpoint_write_s": (s(total, "storageio.checkpoint_write"), "s"),
        "storageio.bytes_written": (counters.get("storageio.bytes_written", 0), "B"),
        "scheduler.feed_self_s": (s(self_t, "scheduler.feed"), "s"),
        "scheduler.steps": (counters.get("scheduler.steps", 0), "count"),
        "scheduler.rejected": (counters.get("scheduler.rejected", 0), "count"),
        "scheduler.delete_s": (s(total, "scheduler.delete"), "s"),
        "bitclosure.add_arc_s": (s(total, "bitclosure.add_arc"), "s"),
        "bitclosure.contract_s": (s(total, "bitclosure.contract"), "s"),
        "bitclosure.query_s": (s(total, "bitclosure.query"), "s"),
        "policies.select_s": (s(total, "policies.select"), "s"),
        "policies.invocations": (invocations, "count"),
        "policies.useful_ratio": (
            counters.get("policies.useful", 0) / invocations if invocations else 0.0,
            "ratio",
        ),
        "engine.feed_self_s": (s(self_t, "engine.feed"), "s"),
        "engine.sweep_self_s": (s(self_t, "engine.sweep"), "s"),
        "engine.sweeps_skipped": (extra["sweeps_skipped"], "count"),
        "dirty.observe_s": (s(total, "dirty.observe"), "s"),
        "replication.poll_s": (s(total, "replication.poll"), "s"),
        "replication.adopting_poll_s": (counters.get("replication.adopting_poll_s", 0.0), "s"),
        "replication.adoptions": (counters.get("replication.adoptions", 0), "count"),
        "replication.records_applied": (counters.get("replication.records_applied", 0), "count"),
        "sharding.route_self_s": (s(self_t, "sharding.route"), "s"),
        "sharding.migrations": (extra["migrations"], "count"),
        "server.queue_wait_s": (s(total, "server.queue_wait"), "s"),
        "server.read_s": (s(total, "server.read"), "s"),
        "server.admission_rejects": (counters.get("server.admission_rejects", 0), "count"),
        "server.loop_self_s": (s(self_t, "server.loop"), "s"),
        "io.wire_decode_s": (s(total, "io.wire_decode"), "s"),
        "io.wire_encode_s": (s(total, "io.wire_encode"), "s"),
        "io.wire_bytes_per_step": (
            (counters.get("io.wire_bytes_in", 0) + counters.get("io.wire_bytes_out", 0)) / steps,
            "B/step",
        ),
        "client.codec_s": (codec_s, "s"),
        "loadgen.late_ms_p99": (1000 * percentile(lates, 0.99) if lates else 0.0, "ms"),
        "trace.overhead": (
            (phase.acked_steps / phase.report["elapsed"]) / untraced_rate
            if untraced_rate else 0.0,
            "ratio",
        ),
        "trace.idle_s": (summary["idle"], "s"),
        "trace.sum_gap": (gap / summary["wall"], "ratio"),
        "design.share": (group, "ratio"),
        "design.largest": (int(group > rest), "flag"),
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (shares[layer], "ratio")
    info = {
        "sum_check_ok": gap / summary["wall"] <= SUM_TOLERANCE,
        "designated": designated,
        "spans_in_window": sum(summary["calls"].values()),
        "requests_traced": summary["requests"],
    }
    return metrics, info


class CodecTimer:
    """Load-generator codec time: wraps the client module's wire codec."""

    def __init__(self) -> None:
        import repro.client as client_module

        self.seconds = 0.0
        self._module = client_module
        self._saved = {}
        for attr in (
            "wire_message_to_line", "wire_message_from_line",
            "step_to_dict", "step_result_from_dict",
        ):
            original = getattr(client_module, attr)
            self._saved[attr] = original
            setattr(client_module, attr, self._timed(original))

    def _timed(self, func):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                self.seconds += clock() - started

        return timed

    def close(self) -> None:
        for attr, original in self._saved.items():
            setattr(self._module, attr, original)


# -- stamp and output ---------------------------------------------------------


def stamp(workload: Workload, seed: int, seconds: int, rundir: pathlib.Path):
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "host": socket.gethostname(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "wal_fs": filesystem_type(rundir),
        "flush_policy": f"sync={FLUSH_POLICY}: each WAL record flushed to the OS, each checkpoint fsync'd",
        "workload": describe(workload),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "setup_spawns": SETUP_SPAWNS,
        "replica_read_rates": {
            "write_steps_per_s": WORKLOADS["replica-read"].write_rate,
            "read_audits_per_s": WORKLOADS["replica-read"].read_rate,
        },
    }


def filesystem_type(path: pathlib.Path) -> str:
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def declared_metrics(trace: int) -> Optional[Dict[str, str]]:
    """Metric name -> unit as ``BENCHMARK.json`` declares them for this
    mode (``None`` when the file is absent)."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {
        m["name"]: m["unit"]
        for m in spec["per_layer" if trace else "end_to_end"]
    }


def emit(correct, attempted, failed, metrics: Dict[str, Tuple[float, str]]):
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(payload))


def show(title: str, metrics: Dict[str, Tuple[float, str]]) -> None:
    print(f"  {title}:")
    for name, (value, unit) in metrics.items():
        print(f"    {name:34s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    runs = ROOT / ".perfbench_runs"
    rundir = runs / f"{args.workload}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        return run(workload, args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def run(workload: Workload, args, rundir: pathlib.Path) -> int:
    stream, generated_s = load_stream(ROOT, workload, args.seed)
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("  stamp: " + json.dumps(stamp(workload, args.seed, args.seconds, rundir)))
    print(f"  stream: {stream.cycle}-step base cycle ready "
          f"({generated_s:.2f} s generating, outside the timed region)")

    def phase(name: str, spawns: int, trace: bool) -> Phase:
        sub = rundir / name
        sub.mkdir()
        p = Phase(workload, stream, args.seed, args.seconds, sub,
                  spawns=spawns, trace=trace)
        asyncio.run(p.run())
        return p

    if not args.trace:
        main_phase = phase("run", SETUP_SPAWNS, trace=False)
        phases = [main_phase]
        metrics = main_phase.end_to_end()
        show("end-to-end", metrics)
        show("reported only (not every workload has them)",
             main_phase.reported_only())
    else:
        untraced = phase("untraced", 1, trace=False)
        codec = CodecTimer()
        try:
            traced = phase("traced", 1, trace=True)
        finally:
            codec.close()
        phases = [untraced, traced]
        rate = untraced.acked_steps / untraced.report["elapsed"]
        metrics, info = per_layer(traced, rate, codec.seconds)
        show("per-layer (traced run)", metrics)
        print("  trace: " + json.dumps(info))
        if not info["sum_check_ok"]:
            traced.problems.append(
                f"traced self times + idle miss the wall time by more "
                f"than {SUM_TOLERANCE:.0%}"
            )
    problems = [p for ph in phases for p in ph.void + ph.problems]
    declared = declared_metrics(args.trace)
    printed = {name: unit for name, (_value, unit) in metrics.items()}
    if declared is not None and declared != printed:
        problems.append("printed metrics differ from BENCHMARK.json's")
    correct = not problems
    print("  checks: " + ("all outputs match the oracle" if correct
                          else "FAILED: " + "; ".join(problems[:5])))
    emit(
        correct,
        sum(ph.attempted for ph in phases),
        sum(ph.failed for ph in phases),
        metrics,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
