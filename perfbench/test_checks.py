"""Tests of the benchmark's own output checks: a tampered result fails.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from repro.scheduler.events import Decision  # noqa: E402
from workloads import WORKLOADS, Stream, generate_chunk  # noqa: E402

CONFIG = WORKLOADS["ack-write"].tenant_config()


@pytest.fixture(scope="module")
def stream():
    workload = WORKLOADS["ack-write"]
    return Stream([generate_chunk(workload, 3, i) for i in range(2)])


@pytest.fixture(scope="module")
def fed(stream):
    """An oracle and an independently built 'served' engine, same steps."""
    steps = stream.steps(0, 3000)
    oracle = checks.Oracle(CONFIG)
    oracle.feed(steps)
    served = checks.Oracle(CONFIG)
    served.feed(steps)
    return oracle, served


def test_stream_is_deterministic_and_renames_each_cycle(stream):
    again = Stream([generate_chunk(WORKLOADS["ack-write"], 3, i) for i in range(2)])
    assert stream.steps(0, 500) == again.steps(0, 500)
    first, second = stream.step_at(0), stream.step_at(stream.cycle)
    assert type(first) is type(second) and first.txn != second.txn
    assert stream.txn_at(stream.cycle + 5) == stream.step_at(stream.cycle + 5).txn


def test_untampered_outputs_pass(fed):
    oracle, served = fed
    assert checks.check_decisions(served.results, oracle.results) == []
    assert checks.check_stats(served.stats(), oracle.stats()) == []
    assert checks.check_deleted(
        served.engine.deleted_transactions(),
        oracle.engine.deleted_transactions(),
    ) == []


def test_flipped_decision_fails(fed):
    oracle, served = fed
    tampered = list(served.results)
    index = next(
        i for i, r in enumerate(tampered) if r.decision is Decision.ACCEPTED
    )
    tampered[index] = dataclasses.replace(
        tampered[index], decision=Decision.REJECTED
    )
    assert checks.check_decisions(tampered, oracle.results)


def test_missing_result_fails(fed):
    oracle, served = fed
    assert checks.check_decisions(served.results[:-1], oracle.results)


def test_tampered_deletion_list_fails(fed):
    oracle, served = fed
    stats = served.stats()
    assert stats["deleted_ids"], "the stream must delete something"
    stats["deleted_ids"] = stats["deleted_ids"][:-1]
    assert checks.check_stats(stats, oracle.stats())
    deleted = sorted(served.engine.deleted_transactions())[1:]
    assert checks.check_deleted(deleted, oracle.engine.deleted_transactions())


def test_tampered_peak_fails(fed):
    oracle, served = fed
    stats = dict(served.stats(), peak_graph_size=0)
    assert checks.check_stats(stats, oracle.stats())


def test_replica_reads_checked_against_the_prefix(fed):
    oracle, _ = fed
    txn = next(iter(oracle.deleted))
    at = oracle.deleted[txn]
    assert checks.check_reads([(txn, "deleted", at)], oracle) == []
    assert checks.check_reads([(txn, "live", at)], oracle)
    assert checks.check_reads([(txn, "deleted", at - 1)], oracle)
    assert checks.check_reads([("never-begun", "unknown", at)], oracle) == []


def test_recovery_must_hold_the_acknowledged_state(fed):
    oracle, served = fed
    n = len(oracle.results)
    deleted = served.engine.deleted_transactions()
    want = (oracle.stats(), oracle.engine.deleted_transactions())
    ok = checks.check_recovery(n, served.stats(), deleted, n, *want)
    assert ok == []
    assert checks.check_recovery(n - 1, served.stats(), deleted, n, *want)
    stats = dict(served.stats(), steps_fed=n - 1)
    assert checks.check_recovery(n, stats, deleted, n, *want)
    fewer = sorted(deleted)[1:]
    assert checks.check_recovery(n, served.stats(), fewer, n, *want)


def test_replica_must_match_the_primary(fed):
    _, served = fed
    stats = served.stats()
    deleted = sorted(served.engine.deleted_transactions())
    assert checks.check_replica(stats, dict(stats), deleted, list(deleted)) == []
    assert checks.check_replica(stats, dict(stats, deletions=0), deleted, deleted)
    assert checks.check_replica(stats, dict(stats), deleted, deleted[:-1])


def test_percentile_and_backlog():
    assert run.percentile([5.0, 1.0, 3.0], 0.5) == 3.0
    assert run.percentile(list(range(1, 101)), 0.95) == 95
    steady = [(i * 0.1, 0.001) for i in range(40)]
    growing = [(i * 0.1, 0.01 * i) for i in range(40)]
    assert not run.lateness_grows(steady)
    assert run.lateness_grows(growing)


def test_self_times_subtract_children():
    tracer = tracing.Tracer()
    tracer.begin_window()
    outer = tracer.name_id("engine.feed")
    inner = tracer.name_id("scheduler.feed")
    a = tracer.open(outer)
    b = tracer.open(inner)
    tracer.close(b)
    tracer.close(a)
    tracer.window_end = tracer.end[a] + 1.0
    dump = {
        "names": tracer.names,
        "window": [tracer.window_start, tracer.window_end],
        "columns": {
            "name": tracer.name, "parent": tracer.parent, "req": tracer.req,
            "start": tracer.start, "end": tracer.end,
        },
    }
    summary = tracing.summarize(dump)
    whole = tracer.end[a] - tracer.start[a]
    part = tracer.end[b] - tracer.start[b]
    assert summary["self"]["engine.feed"] == pytest.approx(whole - part)
    assert summary["self"]["scheduler.feed"] == pytest.approx(part)
    assert summary["roots"] == pytest.approx(whole)
