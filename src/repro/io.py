"""Serialization: reduced graphs and schedules to/from JSON.

For debugging sessions, regression fixtures, and crash post-mortems: dump
the scheduler's current reduced graph (arc structure + payloads + deletion
bookkeeping) or a step stream, reload them bit-identically later.

Graph format history:

* **format 1** — nodes + arcs only; loading replays every arc through
  ``add_arc`` (closure re-propagation).  Still accepted on read.
* **format 2** (current) — additionally carries the bitset kernel state
  (:meth:`~repro.graphs.bitclosure.BitClosureGraph.state_dict`): the
  interner's slot/free-list layout and the successor/descendant rows as
  hex-encoded bitmasks.  Loading restores the kernel directly — no
  re-propagation — and is *bit-exact*: the restored graph has the same id
  assignment, the same free list, and therefore the same masks everywhere.
"""

from __future__ import annotations

import json
import os
import tempfile
from sys import intern
from typing import Any, Dict, List, Optional

from repro.core.reduced_graph import ReducedGraph, TxnInfo
from repro.errors import ModelError, SnapshotError
from repro.graphs.bitclosure import BitClosureGraph
from repro.model.schedule import Schedule
from repro.model.status import AccessMode, TxnState
from repro.model.steps import (
    Begin,
    BeginDeclared,
    Finish,
    Read,
    Step,
    Write,
    WriteItem,
)

__all__ = [
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "graph_from_json",
    "step_to_dict",
    "step_from_dict",
    "step_result_to_dict",
    "step_result_from_dict",
    "currency_to_dict",
    "currency_from_dict",
    "schedule_to_list",
    "schedule_from_list",
    "engine_snapshot_to_json",
    "engine_snapshot_from_json",
    "restore_engine",
    "atomic_write_text",
    "atomic_write_json",
    "WAL_RECORD_FORMAT",
    "wal_record_to_line",
    "wal_record_from_line",
    "WIRE_FORMAT",
    "wire_message_to_line",
    "wire_message_from_line",
]

_FORMAT_VERSION = 2
_LEGACY_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Atomic file writes
# ---------------------------------------------------------------------------


def atomic_write_text(path, text: str, *, fsync: bool = True) -> None:
    """Write *text* to *path* so a crash never leaves a torn file.

    The content goes to a temporary file in the **same directory** (so the
    final rename cannot cross filesystems), is flushed — and fsync'd when
    *fsync* is true — and is then moved over *path* with :func:`os.replace`,
    which is atomic on POSIX: readers see either the complete old content
    or the complete new content, never a prefix.  With *fsync* the parent
    directory is synced too, so the rename itself survives a power loss.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".tmp-", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            # mkstemp creates 0600 files; give the published file the
            # ordinary umask-governed mode so overwriting a shared
            # artifact does not silently revoke other readers.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    if fsync:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def atomic_write_json(
    path, payload, *, indent: Optional[int] = 2, fsync: bool = True
) -> None:
    """Atomic, key-sorted JSON dump (see :func:`atomic_write_text`).

    ``indent=None`` writes compact single-line JSON without key sorting —
    the cheap mode the durability layer uses for checkpoint files, where
    write latency sits on the feed path and nobody diffs the bytes.
    """
    if indent is None:
        text = json.dumps(payload, separators=(",", ":"))
    else:
        text = json.dumps(payload, indent=indent, sort_keys=True)
    atomic_write_text(path, text + "\n", fsync=fsync)


def graph_to_dict(
    graph: ReducedGraph, *, include_history: bool = True
) -> Dict[str, Any]:
    """A JSON-ready dict capturing the whole reduced graph.

    Format 2: the ``closure`` section carries the bitset kernel state
    (interner layout + hex mask rows) so :func:`graph_from_dict` restores
    without re-propagating the closure; ``arcs`` stays in the payload for
    human audit and cross-checks.

    ``include_history=False`` omits the ``deleted`` and ``aborted`` id
    lists — the two sections that grow with *history* rather than live
    state (O(n log n) to build).  The durability layer's incremental
    checkpoints reconstruct them from their delta chain; such a payload
    is not loadable until the lists are spliced back.

    Not allowed while a deletion trial is open: the payload would record
    the to-be-rolled-back deletions as permanent and serialize their
    detached interner slots as leaked capacity.
    """
    if graph.in_trial:
        raise ModelError(
            "cannot serialize a reduced graph during a deletion trial; "
            "finish rollback_trial() first"
        )
    nodes = []
    for txn in sorted(graph.nodes()):
        info = graph.info(txn)
        nodes.append(
            {
                "txn": txn,
                "state": info.state.value,
                "accesses": {
                    entity: mode.name for entity, mode in sorted(info.accesses.items())
                },
                "future": (
                    None
                    if info.future is None
                    else {e: m.name for e, m in sorted(info.future.items())}
                ),
                "reads_from": sorted(info.reads_from),
            }
        )
    payload = {
        "format": _FORMAT_VERSION,
        "nodes": nodes,
        "arcs": sorted(graph.arcs()),
        "closure": graph.kernel.state_dict(),
    }
    if include_history:
        payload["aborted"] = sorted(graph.aborted_transactions())
        payload["deleted"] = sorted(graph.deleted_transactions())
    return payload


def _node_info_from_dict(node: Dict[str, Any]) -> TxnInfo:
    future = node.get("future")
    return TxnInfo(
        txn=node["txn"],
        state=TxnState(node["state"]),
        accesses={
            entity: AccessMode[mode]
            for entity, mode in node["accesses"].items()
        },
        future=(
            None
            if future is None
            else {e: AccessMode[m] for e, m in future.items()}
        ),
        reads_from=set(node.get("reads_from", ())),
    )


def _require_section(payload: Dict[str, Any], key: str, what: str):
    """Fetch a required payload section or raise a *named* ModelError.

    Recovery relies on these names to tell a torn tail record (skippable)
    from a corrupt checkpoint (abort): a raw ``KeyError('nodes')`` says
    nothing, ``"graph payload is missing the 'nodes' section"`` does.
    """
    if not isinstance(payload, dict):
        raise ModelError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    if key not in payload:
        raise ModelError(f"{what} is missing the {key!r} section")
    return payload[key]


def graph_from_dict(payload: Dict[str, Any]) -> ReducedGraph:
    """Inverse of :func:`graph_to_dict`.

    Accepts both format 2 (bit-exact kernel restore) and the legacy
    format 1 (arc-by-arc closure rebuild), so old snapshots still load.
    Truncated or type-mangled payloads raise :class:`ModelError` naming
    the missing/invalid section instead of surfacing a raw ``KeyError``.
    """
    version = _require_section(payload, "format", "graph payload")
    try:
        if version == _FORMAT_VERSION:
            closure_state = _require_section(payload, "closure", "graph payload")
            nodes = _require_section(payload, "nodes", "graph payload")
            graph = ReducedGraph()
            graph._closure = BitClosureGraph.from_state_dict(closure_state)
            for node in nodes:
                info = _node_info_from_dict(node)
                if info.txn not in graph._closure:
                    raise ModelError(
                        f"graph payload node {info.txn!r} missing from the "
                        "serialized closure kernel"
                    )
                graph._info[info.txn] = info
                graph._index_payload(info.txn, info)
            if len(graph._info) != len(graph._closure):
                raise ModelError(
                    "serialized closure kernel carries nodes without payloads"
                )
        elif version == _LEGACY_FORMAT_VERSION:
            graph = ReducedGraph()
            for node in _require_section(payload, "nodes", "graph payload"):
                future = node.get("future")
                graph.add_transaction(
                    node["txn"],
                    TxnState(node["state"]),
                    declared=(
                        None
                        if future is None
                        else {e: AccessMode[m] for e, m in future.items()}
                    ),
                )
                for entity, mode in node["accesses"].items():
                    graph.record_access(node["txn"], entity, AccessMode[mode])
                graph.info(node["txn"]).reads_from.update(
                    node.get("reads_from", ())
                )
            for tail, head in _require_section(payload, "arcs", "graph payload"):
                graph.add_arc(tail, head)
        else:
            raise ModelError(f"unsupported graph format {version!r}")
        # Deletion/abort bookkeeping: restore so id-reuse protection
        # survives a round trip.
        graph._deleted.update(payload.get("deleted", ()))
        graph._abort_log = sorted(payload.get("aborted", ()))
        graph._aborted.update(graph._abort_log)
    except ModelError:
        raise
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ModelError(
            f"graph payload has an invalid section: {exc!r}"
        ) from exc
    return graph


def graph_to_json(graph: ReducedGraph, indent: int = 2) -> str:
    return json.dumps(graph_to_dict(graph), indent=indent, sort_keys=True)


def graph_from_json(text: str) -> ReducedGraph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(
            f"graph JSON is truncated or not valid JSON: {exc}"
        ) from exc
    return graph_from_dict(payload)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

_STEP_ENCODERS = {
    Begin: lambda s: {"kind": "begin", "txn": s.txn},
    BeginDeclared: lambda s: {
        "kind": "begin_declared",
        "txn": s.txn,
        "declared": {e: m.name for e, m in sorted(s.declared.items())},
    },
    Read: lambda s: {"kind": "read", "txn": s.txn, "entity": s.entity},
    Write: lambda s: {"kind": "write", "txn": s.txn, "entities": sorted(s.entities)},
    WriteItem: lambda s: {"kind": "write_item", "txn": s.txn, "entity": s.entity},
    Finish: lambda s: {"kind": "finish", "txn": s.txn},
}


def step_to_dict(step: Step) -> Dict[str, Any]:
    """Encode one step as a small JSON-ready dict."""
    encoder = _STEP_ENCODERS.get(type(step))
    if encoder is None:
        raise ModelError(f"cannot encode step kind {type(step).__name__}")
    return encoder(step)


def step_from_dict(item: Dict[str, Any]) -> Step:
    """Inverse of :func:`step_to_dict`.

    Transaction and entity names are interned: every decoded step of one
    transaction (wire, WAL replay, snapshot restore) then shares one
    string object with the engine's retained logs, instead of holding a
    fresh copy per step.

    Raises :class:`ModelError` (naming the offending field) on truncated
    or type-mangled payloads — never a raw ``KeyError``.
    """
    kind = _require_section(item, "kind", "step payload")
    try:
        if kind == "begin":
            return Begin(intern(item["txn"]))
        if kind == "begin_declared":
            return BeginDeclared(
                intern(item["txn"]),
                {intern(e): AccessMode[m] for e, m in item["declared"].items()},
            )
        if kind == "read":
            return Read(intern(item["txn"]), intern(item["entity"]))
        if kind == "write":
            return Write(
                intern(item["txn"]), frozenset(map(intern, item["entities"]))
            )
        if kind == "write_item":
            return WriteItem(intern(item["txn"]), intern(item["entity"]))
        if kind == "finish":
            return Finish(intern(item["txn"]))
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ModelError(
            f"step payload of kind {kind!r} has a missing or invalid "
            f"field: {exc!r}"
        ) from exc
    raise ModelError(f"unknown step kind {kind!r}")


def schedule_to_list(schedule: Schedule) -> List[Dict[str, Any]]:
    """Encode every step as a small dict."""
    return [step_to_dict(step) for step in schedule]


def schedule_from_list(items: List[Dict[str, Any]]) -> Schedule:
    """Inverse of :func:`schedule_to_list`."""
    return Schedule(tuple(step_from_dict(item) for item in items))


# ---------------------------------------------------------------------------
# Step results and currency (engine checkpoints)
# ---------------------------------------------------------------------------


def step_result_to_dict(result) -> Dict[str, Any]:
    """Encode a :class:`~repro.scheduler.events.StepResult`."""
    return {
        "step": step_to_dict(result.step),
        "decision": result.decision.value,
        "arcs_added": [list(arc) for arc in result.arcs_added],
        "aborted": list(result.aborted),
        "committed": list(result.committed),
        "released": [step_to_dict(step) for step in result.released],
        "blocked_on": list(result.blocked_on),
    }


def step_result_from_dict(item: Dict[str, Any]):
    """Inverse of :func:`step_result_to_dict`."""
    from repro.scheduler.events import Decision, StepResult

    step = _require_section(item, "step", "step-result payload")
    decision = _require_section(item, "decision", "step-result payload")
    try:
        return StepResult(
            step=step_from_dict(step),
            decision=Decision(decision),
            arcs_added=tuple(tuple(arc) for arc in item.get("arcs_added", ())),
            aborted=tuple(item.get("aborted", ())),
            committed=tuple(item.get("committed", ())),
            released=tuple(step_from_dict(s) for s in item.get("released", ())),
            blocked_on=tuple(item.get("blocked_on", ())),
        )
    except ModelError:
        raise
    except (ValueError, TypeError) as exc:
        raise ModelError(
            f"step-result payload has an invalid section: {exc!r}"
        ) from exc


# ---------------------------------------------------------------------------
# Write-ahead-log records
# ---------------------------------------------------------------------------

#: Version stamp carried by every WAL record (see :mod:`repro.durability`).
WAL_RECORD_FORMAT = 1

#: Control operations a WAL may record besides fed steps (state mutations
#: the durable engine exposes outside the per-step loop).
_WAL_CONTROL_OPS = frozenset({"sweep", "flush", "flush_pending"})


def wal_record_to_line(seq: int, step=None, *, control: str = None) -> str:
    """Encode one WAL record as a compact single-line JSON document.

    A record is either a fed step (``step=...``) or a control operation
    (``control="sweep" | "flush" | "flush_pending"``) — exactly one of the
    two.  Lines never contain raw newlines (compact separators, ASCII-safe
    ``json.dumps``), so one line on disk is one record and a torn tail is
    detectable as an unparsable final line.
    """
    if (step is None) == (control is None):
        raise ModelError(
            "a WAL record encodes exactly one of a step or a control op"
        )
    record: Dict[str, Any] = {"format": WAL_RECORD_FORMAT, "seq": seq}
    if step is not None:
        record["step"] = step_to_dict(step)
    else:
        if control not in _WAL_CONTROL_OPS:
            raise ModelError(
                f"unknown WAL control op {control!r}; known: "
                f"{', '.join(sorted(_WAL_CONTROL_OPS))}"
            )
        record["control"] = control
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


def wal_record_from_line(line: str):
    """Decode and strictly validate one WAL line.

    Returns ``(seq, step_or_None, control_or_None)``.  Any malformation —
    invalid JSON, wrong format stamp, bad sequence number, missing or
    mangled payload — raises :class:`ModelError` naming the problem; the
    *caller* (recovery) decides whether the failing record is a tolerable
    torn tail or log corruption.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ModelError(f"WAL record is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ModelError(
            f"WAL record must be a JSON object, got {type(record).__name__}"
        )
    if record.get("format") != WAL_RECORD_FORMAT:
        raise ModelError(
            f"unsupported WAL record format {record.get('format')!r}"
        )
    seq = _require_section(record, "seq", "WAL record")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        raise ModelError(f"WAL record seq must be a positive integer, got {seq!r}")
    has_step = "step" in record
    has_control = "control" in record
    if has_step == has_control:
        raise ModelError(
            "WAL record must carry exactly one of 'step' or 'control'"
        )
    if has_step:
        return seq, step_from_dict(record["step"]), None
    control = record["control"]
    if control not in _WAL_CONTROL_OPS:
        raise ModelError(f"unknown WAL control op {control!r}")
    return seq, None, control


# ---------------------------------------------------------------------------
# Wire messages (the serving layer's line/JSON protocol)
# ---------------------------------------------------------------------------

#: Version stamp carried by every wire message (see :mod:`repro.server`).
WIRE_FORMAT = 1


def wire_message_to_line(payload: Dict[str, Any]) -> str:
    """Encode one wire message as a compact single-line JSON document.

    The serving protocol is newline-delimited JSON: one line, one message.
    Compact separators and ASCII-safe :func:`json.dumps` guarantee the
    encoded text never contains a raw newline; key-sorting makes encoded
    messages canonical (byte-identical for equal payloads), which the
    serving equivalence tests diff on.  The ``format`` stamp is added
    here so callers never forget it.
    """
    if not isinstance(payload, dict):
        raise ModelError(
            f"wire message must be a JSON object, got {type(payload).__name__}"
        )
    record = dict(payload)
    record.setdefault("format", WIRE_FORMAT)
    try:
        return json.dumps(record, separators=(",", ":"), sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"wire message is not JSON-serializable: {exc}") from exc


def wire_message_from_line(line: str) -> Dict[str, Any]:
    """Decode and validate one wire line into a message dict.

    Raises :class:`ModelError` on invalid JSON, a non-object payload, or
    an unsupported ``format`` stamp — the server turns these into
    structured ``bad_request`` error responses rather than dropping the
    connection.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ModelError(f"wire message is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ModelError(
            f"wire message must be a JSON object, got {type(record).__name__}"
        )
    fmt = record.get("format", WIRE_FORMAT)
    if fmt != WIRE_FORMAT:
        raise ModelError(f"unsupported wire message format {fmt!r}")
    return record


def engine_snapshot_to_json(payload: Dict[str, Any], indent: int = 2) -> str:
    """Stable JSON text for an engine or sharded-engine snapshot.

    Key-sorted so that bit-exact snapshots are byte-identical texts — the
    property the checkpoint round-trip tests diff on.
    """
    return json.dumps(payload, indent=indent, sort_keys=True)


def engine_snapshot_from_json(text: str) -> Dict[str, Any]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(
            f"engine snapshot JSON is truncated or not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ModelError("engine snapshot JSON must decode to an object")
    return payload


def restore_engine(payload: Dict[str, Any], deltas=None):
    """Rebuild a live engine from any snapshot payload.

    Dispatches on the payload's format stamp: sharded-engine snapshots
    (``kind == "sharded-engine"``) rebuild a
    :class:`~repro.engine.ShardedEngine`, anything else goes through
    :class:`~repro.engine.Engine.restore` (which validates its own format
    version).  With *deltas* — a chain of ``log_delta`` payloads, oldest
    first — *payload* is a ``snapshot(include_logs=False)`` core and the
    logs are spliced back in (``splice_logs``) before the restore.
    """
    from repro.engine import SHARDED_SNAPSHOT_KIND, Engine, ShardedEngine

    cls = Engine
    if isinstance(payload, dict) and payload.get("kind") == SHARDED_SNAPSHOT_KIND:
        cls = ShardedEngine
    if deltas is not None:
        try:
            cls.splice_logs(payload, deltas)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed log delta: {exc!r}") from exc
    return cls.restore(payload)


def currency_to_dict(tracker) -> Dict[str, Any]:
    """Encode a :class:`~repro.tracking.CurrencyTracker`."""
    return {
        "last_writer": dict(sorted(tracker.last_writer.items())),
        "readers_since_write": {
            entity: sorted(readers)
            for entity, readers in sorted(tracker.readers_since_write.items())
        },
    }


def currency_from_dict(payload: Dict[str, Any]):
    """Inverse of :func:`currency_to_dict`."""
    from repro.tracking import CurrencyTracker

    tracker = CurrencyTracker()
    tracker.last_writer.update(payload.get("last_writer", {}))
    for entity, readers in payload.get("readers_since_write", {}).items():
        tracker.readers_since_write[entity] = set(readers)
    return tracker
