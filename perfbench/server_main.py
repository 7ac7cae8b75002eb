"""Run one ``ReproServer`` in its own process for the benchmark.

    PYTHONPATH=src python3 perfbench/server_main.py [--trace DUMP_PATH]

Binds an ephemeral localhost port and prints ``READY <port>`` on stdout;
tenants are created by the load generator over the wire.  With
``--trace`` the public entry points of every layer are wrapped in spans
(see :mod:`tracing`): ``SIGUSR1`` opens the traced window and ``SIGUSR2``
closes it and writes the spans to ``DUMP_PATH`` (plus
``DUMP_PATH.bin``), after which the server keeps serving.  The process
runs until it is killed.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
import time


def install_tracing(tracer, server_module) -> None:
    """Wrap each layer's entry points; the same set on every workload."""
    import asyncio.events as events

    from repro import durability, engine, replication
    from repro.core import dirty, policies
    from repro.faults import StorageIO
    from repro.graphs.bitclosure import BitClosureGraph
    from repro.scheduler.base import SchedulerBase
    from repro.scheduler.events import Decision

    count = tracer.count
    wrap = tracer.wrap

    # -- event loop: every callback is a root span --------------------------
    wrap(events.Handle, "_run", "server.loop")

    # -- io: the wire codec as the server calls it -------------------------
    def count_in(_result, line):
        count("io.wire_bytes_in", len(line))

    def count_out(result, _payload):
        count("io.wire_bytes_out", len(result) + 1)

    wrap(server_module, "wire_message_from_line", "io.wire_decode", count_in)
    wrap(server_module, "step_from_dict", "io.wire_decode")
    wrap(server_module, "wire_message_to_line", "io.wire_encode", count_out)
    wrap(server_module, "step_result_to_dict", "io.wire_encode")

    # -- server: requests, admission, queue hop, read path -----------------
    Server = server_module.ReproServer
    dispatch_line = Server._dispatch_line

    async def traced_dispatch_line(self, line):
        token = tracer.request.set(tracer.new_request())
        try:
            return await dispatch_line(self, line)
        finally:
            tracer.request.reset(token)

    Server._dispatch_line = traced_dispatch_line

    admit = Server._admit

    def traced_admit(self, tenant, n_steps):
        try:
            return admit(self, tenant, n_steps)
        except Exception:
            count("server.admission_rejects")
            raise

    Server._admit = tracer.span(traced_admit, "server.admit")
    wrap(Server, "audit", "server.read")
    wrap(Server, "query", "server.read")
    wrap(Server, "_guard_replica_read", "server.read")

    queued = {}
    base_item = server_module._WorkItem

    class TracedWorkItem(base_item):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            queued[id(self.steps)] = (time.perf_counter(), tracer.request.get())

    server_module._WorkItem = TracedWorkItem
    feed_steps = Server._feed_steps

    async def traced_feed_steps(self, tenant, steps):
        enqueued, req = queued.pop(id(steps), (None, 0))
        if enqueued is not None:
            tracer.record("server.queue_wait", enqueued, time.perf_counter(), req)
        token = tracer.request.set(req)
        try:
            return await feed_steps(self, tenant, steps)
        finally:
            tracer.request.reset(token)

    Server._feed_steps = traced_feed_steps

    # -- durability and storage --------------------------------------------
    wrap(durability.DurableEngine, "feed", "durability.feed")
    wrap(
        durability.DurableEngine, "checkpoint", "durability.checkpoint",
        lambda r, *_: count("durability.checkpoints"),
    )

    def count_append(_result, _io, _handle, line):
        count("storageio.bytes_written", len(line) + 1)

    def count_checkpoint(_result, _io, _path, text, **_kw):
        count("storageio.bytes_written", len(text))

    wrap(StorageIO, "append_line", "storageio.append", count_append)
    wrap(StorageIO, "write_checkpoint", "storageio.checkpoint_write",
         count_checkpoint)
    wrap(StorageIO, "read_bytes", "storageio.read")
    wrap(StorageIO, "read_tail", "storageio.read")
    wrap(os, "fsync", "storageio.fsync",
         lambda r, *_: count("storageio.fsyncs"))

    # -- engine facade, dirty tracker, scheduler, kernel, policies ---------
    wrap(engine.Engine, "feed", "engine.feed")
    wrap(engine.Engine, "sweep", "engine.sweep")
    wrap(engine.Engine, "snapshot", "engine.snapshot")
    wrap(engine.ShardedEngine, "snapshot", "engine.snapshot")
    wrap(dirty.DirtyTracker, "observe", "dirty.observe")

    def count_step(result, *_args):
        count("scheduler.steps")
        if result.decision is Decision.REJECTED:
            count("scheduler.rejected")

    wrap(SchedulerBase, "feed", "scheduler.feed", count_step)
    wrap(SchedulerBase, "delete_transactions", "scheduler.delete")
    wrap(BitClosureGraph, "add_arc", "bitclosure.add_arc")
    for attr in ("would_close_cycle", "reaches"):
        wrap(BitClosureGraph, attr, "bitclosure.query")
    for attr in ("contract", "contract_recording", "uncontract"):
        wrap(BitClosureGraph, attr, "bitclosure.contract")

    def count_select(result, *_args):
        count("policies.invocations")
        if result:
            count("policies.useful")

    for cls in vars(policies).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, policies.DeletionPolicy)
            and "select" in vars(cls)
        ):
            wrap(cls, "select", "policies.select", count_select)

    # -- sharding ------------------------------------------------------------
    wrap(engine.ShardedEngine, "feed", "sharding.route")

    # -- replication ---------------------------------------------------------
    poll = replication.WalFollower.poll
    poll_id = tracer.name_id("replication.poll")

    def traced_poll(self):
        adopted = self.checkpoints_adopted
        index = tracer.open(poll_id)
        try:
            applied = poll(self)
        finally:
            tracer.close(index)
        count("replication.records_applied", applied)
        rose = self.checkpoints_adopted - adopted
        if rose:
            count("replication.adoptions", rose)
            count(
                "replication.adopting_poll_s",
                tracer.end[index] - tracer.start[index],
            )
        return applied

    replication.WalFollower.poll = traced_poll


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", default=None, metavar="DUMP_PATH")
    args = parser.parse_args(argv)

    from repro import server as server_module

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        install_tracing(tracer, server_module)

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        server = server_module.ReproServer("127.0.0.1", 0)
        _host, port = await server.start()
        if tracer is not None:
            selector = loop._selector
            select = selector.select
            selector.select = tracer.span(select, "loop.idle")

            def stop_window() -> None:
                tracer.dump(args.trace, {"extra": engine_counters(server)})

            loop.add_signal_handler(signal.SIGUSR1, tracer.begin_window)
            loop.add_signal_handler(signal.SIGUSR2, stop_window)
        sys.stdout.write(f"READY {port}\n")
        sys.stdout.flush()
        await asyncio.Event().wait()

    asyncio.run(serve())
    return 0


def engine_counters(server) -> dict:
    """Counters the engines keep themselves, read at the window's end."""
    return {
        tenant.name: {
            "sweeps_skipped": tenant.engine.sweeps_skipped,
            "migrations": getattr(tenant.engine, "migrations", 0),
        }
        for tenant in server._tenants.values()
    }


if __name__ == "__main__":
    sys.exit(main())
