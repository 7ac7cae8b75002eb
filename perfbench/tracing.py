"""Span tracing for the benchmark's traced runs.

The server launcher (``server_main.py --trace``) wraps the public entry
points of each layer with :meth:`Tracer.wrap`; nothing in ``src/`` is
edited.  A span records its name, start, end, parent span and request
id into flat arrays kept in memory; :meth:`Tracer.dump` writes them out
and :func:`summarize` turns a dump into per-layer self times.

Event-loop coverage: every asyncio callback runs inside a root span
(``server.loop``), and every selector wait is a root span
(``loop.idle``), so the root spans tile the traced wall time up to the
loop's own bookkeeping.  The self time of ``server.loop`` is the
asyncio stream/task machinery plus the server coroutines' own code that
no narrower span covers.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

#: Spans that measure waiting, not work on the loop thread.
WAIT_SPANS = frozenset({"server.queue_wait", "loop.idle"})
#: Spans that own their children's time in the layer shares: replaying
#: the primary's log is the replica's cost, and the snapshot and storage
#: calls a checkpoint makes are the checkpoint's cost.
OWNERS = {
    "replication.poll": "replication.nested",
    "durability.checkpoint": "durability.nested",
}

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.req = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.counters: Dict[str, float] = {}
        self.request = contextvars.ContextVar("perfbench_request", default=0)
        self._next_request = 0
        self.window_start: Optional[float] = None
        self.window_end: Optional[float] = None

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        stack = self.stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.req.append(self.request.get())
        self.end.append(0.0)
        stack.append(index)
        self.start.append(_clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _clock()
        self.stack.pop()

    def record(self, name: str, start: float, end: float, req: int = 0) -> None:
        """A finished span that is not on the stack (a wait)."""
        self.name.append(self.name_id(name))
        self.parent.append(-1)
        self.req.append(req)
        self.start.append(start)
        self.end.append(end)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def new_request(self) -> int:
        self._next_request += 1
        return self._next_request

    def span(
        self,
        func: Callable,
        name: str,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """*func* wrapped in a span; ``after(result, *args)`` may count."""
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = tracer.open(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(result, *args)
            return result

        return traced

    def wrap(self, owner: Any, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, self.span(getattr(owner, attr), name, after))

    # -- window and output --------------------------------------------------

    def begin_window(self) -> None:
        self.counters = {}
        self.window_start = _clock()

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        """Write the spans (binary arrays) and a JSON header beside them."""
        self.window_end = _clock()
        with open(path + ".bin", "wb") as handle:
            for column in (self.name, self.parent, self.req, self.start, self.end):
                column.tofile(handle)
        header = {
            "names": self.names,
            "count": len(self.start),
            "window": [self.window_start, self.window_end],
            "counters": self.counters,
            **extra,
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(header, handle)
        os.replace(tmp, path)


def load_dump(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        header = json.load(handle)
    n = header["count"]
    columns = {}
    with open(path + ".bin", "rb") as handle:
        for key, code in (
            ("name", "i"), ("parent", "i"), ("req", "q"),
            ("start", "d"), ("end", "d"),
        ):
            column = array(code)
            column.fromfile(handle, n)
            columns[key] = column
    header["columns"] = columns
    return header


def summarize(dump: Dict[str, Any]) -> Dict[str, Any]:
    """Per-span-name totals inside the traced window.

    Returns ``{"self": {name: s}, "total": {name: s}, "calls": {name: n},
    "owned": {name: s}, "requests": n, "wall": s, "roots": s, "idle":
    s}``.  Self time is a span's duration minus the time its child spans
    cover.  ``owned`` re-buckets self time for the layer shares: the self
    time of a span nested under an :data:`OWNERS` span is counted under
    that owner's key.
    """
    cols = dump["columns"]
    names = dump["names"]
    lo, hi = dump["window"]
    name, parent, start, end, req = (
        cols["name"], cols["parent"], cols["start"], cols["end"], cols["req"],
    )
    n = len(start)
    inside = [False] * n
    child = [0.0] * n
    owner_of = {
        names.index(span): key for span, key in OWNERS.items() if span in names
    }
    owner: List[Optional[str]] = [None] * n
    for i in range(n):
        if end[i] == 0.0 or start[i] < lo or end[i] > hi:
            continue
        inside[i] = True
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
            owner[i] = owner[p] or owner_of.get(name[p])
    self_t: Dict[str, float] = {}
    owned: Dict[str, float] = {}
    total: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    roots = idle = 0.0
    requests = set()
    for i in range(n):
        if not inside[i]:
            continue
        label = names[name[i]]
        duration = end[i] - start[i]
        p = parent[i]
        if p < 0 or name[p] != name[i]:  # outermost of a same-name nest
            total[label] = total.get(label, 0.0) + duration
        calls[label] = calls.get(label, 0) + 1
        own = duration - child[i]
        self_t[label] = self_t.get(label, 0.0) + own
        key = owner[i] or label
        owned[key] = owned.get(key, 0.0) + own
        if p < 0:
            if label == "loop.idle":
                idle += duration
            elif label not in WAIT_SPANS:
                roots += duration
        if req[i]:
            requests.add(req[i])
    return {
        "self": self_t,
        "owned": owned,
        "total": total,
        "calls": calls,
        "requests": len(requests),
        "wall": hi - lo,
        "roots": roots,
        "idle": idle,
    }
