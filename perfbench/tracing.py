"""Spans around the public entry points of each layer, recorded in
memory by wrapping the program's classes from outside.

``install()`` replaces each target method on its class with a wrapper
that records a span: name, start, end, parent span and the operation it
belongs to.  Spans of one benchmark operation share the operation's id
(client side; the server has no operation ids and roots its spans at
each incoming frame or task).  Aggregates per span name are kept for
every span; the raw spans are kept up to ``SPAN_CAP`` and written out
by ``write_spans`` when the run ends.

Install before the first ``Space`` is built: connections may bind
methods when they are created.  A target the program no longer has is
skipped and listed in ``Tracer.missing``.
"""

import functools
import importlib
import itertools
import json
import threading
import time

SPAN_CAP = 5_000           # raw spans kept per thread
SAMPLE_CAP = 50_000        # durations kept per thread and span name

# (module, class, method, span name, what the span's units count)
TARGETS = (
    ("repro.marshal.pickler", "Pickler", "dumps", "marshal.encode", "result"),
    ("repro.marshal.pickler", "Pickler", "dump_into", "marshal.encode",
     "grown"),
    ("repro.marshal.unpickler", "Unpickler", "loads", "marshal.decode",
     None),
    ("repro.transport.tcp", "SocketChannel", "send", "transport.send",
     "frame"),
    ("repro.transport.tcp", "SocketChannel", "send_framed", "transport.send",
     "arg"),
    ("repro.transport.shm", "ShmChannel", "send", "transport.send", "frame"),
    ("repro.transport.shm", "ShmChannel", "send_framed", "transport.send",
     "arg"),
    ("repro.wire.framing", "FrameAssembler", "advance", "transport.advance",
     "completed"),
    ("repro.rpc.connection", "Connection", "call_buffer", "rpc.call", None),
    ("repro.rpc.connection", "Connection", "call_buffer_async", "rpc.call",
     None),
    ("repro.rpc.connection", "Connection", "on_frame", "rpc.on_frame", None),
    ("repro.rpc.dispatcher", "Dispatcher", "submit", "rpc.submit", None),
    ("repro.dgc.client", "DgcClient", "acquire_ref", "dgc.acquire_ref", None),
    ("repro.dgc.client", "DgcClient", "send_clean_batch", "dgc.clean_batch",
     "claims"),
    ("repro.dgc.owner", "DgcOwner", "handle_dirty", "dgc.handle_dirty", None),
    ("repro.dgc.owner", "DgcOwner", "handle_clean", "dgc.handle_clean", None),
    ("repro.core.leases", "LeaseCache", "replica_for", "core.replica_for",
     None),
    ("repro.core.leases", "LeaseTable", "grant", "core.lease_grant", None),
    ("repro.core.leases", "LeaseTable", "begin_write", "core.begin_write",
     None),
    ("repro.naming.agent", "Agent", "get", "naming.get", None),
    ("repro.core.space", "Space", "import_object", "naming.import", None),
)


class _Thread:
    """One thread's open spans, aggregates and kept raw spans."""

    __slots__ = ("stack", "table", "spans", "op")

    def __init__(self):
        self.stack = []
        self.table = {}
        self.spans = []
        self.op = -1


class Tracer:
    """Span store of one process.

    Each thread records into its own ``_Thread``, so a span takes no
    lock; ``report`` merges them.  ``reset`` starts a new measurement
    window: spans still open then are dropped."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads = []
        self.waits = []
        self.missing = []

    def thread(self) -> _Thread:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _Thread()
            with self._lock:
                self._threads.append(state)
            return state

    def reset(self) -> None:
        with self._lock:
            self._local = threading.local()
            self._threads = []
            self.waits = []

    def begin_op(self, op_id: int) -> None:
        self.thread().op = op_id

    def begin(self, name: str):
        """Open a span by hand (the load generator's operations)."""
        th = self.thread()
        frame = [0, next(self._ids), name, time.perf_counter_ns()]
        th.stack.append(frame)
        return th, frame

    def end(self, opened, units: int = 0) -> None:
        th, frame = opened
        if th.stack and th.stack[-1] is frame:
            _close(th, frame, time.perf_counter_ns(), units)

    def add_wait(self, wait_ns: int) -> None:
        if len(self.waits) < SAMPLE_CAP:
            self.waits.append(wait_ns)

    def report(self) -> dict:
        """Per span name: count, total and self time, units, and the
        median duration and self time; plus the dispatch waits."""
        merged = {}
        with self._lock:
            threads = list(self._threads)
        for th in threads:
            for name, agg in list(th.table.items()):
                into = merged.setdefault(name, [0, 0, 0, 0, [], []])
                for i in range(4):
                    into[i] += agg[i]
                into[4] += agg[4]
                into[5] += agg[5]
        return {
            "spans": {
                name: {
                    "count": agg[0],
                    "total_ns": agg[1],
                    "self_ns": agg[2],
                    "units": agg[3],
                    "p50_ns": percentile(agg[4], 50),
                    "self_p50_ns": percentile(agg[5], 50),
                }
                for name, agg in merged.items()
            },
            "waits_ns": list(self.waits),
            "missing": list(self.missing),
        }

    def write_spans(self, path: str) -> None:
        with self._lock:
            threads = list(self._threads)
        with open(path, "w") as out:
            for th in threads:
                for span_id, name, start, end, parent, op in th.spans:
                    out.write(json.dumps({
                        "id": span_id, "name": name, "start_ns": start,
                        "end_ns": end, "parent": parent, "op": op,
                    }) + "\n")


def _close(th: _Thread, frame, end: int, units: int) -> None:
    stack = th.stack
    stack.pop()
    child_ns, span_id, name, start = frame
    duration = end - start
    if stack:
        stack[-1][0] += duration
    agg = th.table.get(name)
    if agg is None:
        # count, total ns, self ns, units, durations, self times
        agg = th.table[name] = [0, 0, 0, 0, [], []]
    agg[0] += 1
    agg[1] += duration
    agg[2] += duration - child_ns
    agg[3] += units
    if agg[0] <= SAMPLE_CAP:
        agg[4].append(duration)
        agg[5].append(duration - child_ns)
    if len(th.spans) < SPAN_CAP:
        th.spans.append((span_id, name, start, end,
                         stack[-1][1] if stack else -1, th.op))


def percentile(samples, q):
    if not samples:
        return 0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)) - 1))
    return ordered[index]


_UNITS = {
    "result": lambda args, result: len(result),
    "frame": lambda args, result: len(args[1]) + 4,
    "arg": lambda args, result: len(args[1]),
    "claims": lambda args, result: len(args[2]),
    "completed": lambda args, result: 0 if result is None else 1,
}


def _wrap(tracer, original, name, kind):
    units_of = _UNITS.get(kind)
    grown = kind == "grown"
    ids = tracer._ids
    perf_counter_ns = time.perf_counter_ns

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        th = tracer.thread()
        before = len(args[2]) if grown else 0
        frame = [0, next(ids), name, perf_counter_ns()]
        th.stack.append(frame)
        units = 0
        try:
            result = original(*args, **kwargs)
            if units_of is not None:
                units = units_of(args, result)
            elif grown:
                units = len(args[2]) - before
            return result
        finally:
            end = perf_counter_ns()
            if th.stack and th.stack[-1] is frame:
                _close(th, frame, end, units)
    return wrapper


def _timed_submit(tracer, original):
    """``Dispatcher.submit`` that also times each task's wait from
    submit to the start of its run on a worker."""
    def submit(self, task, *args, **kwargs):
        submitted = time.perf_counter_ns()

        def timed():
            tracer.add_wait(time.perf_counter_ns() - submitted)
            return task()

        on_shed = getattr(task, "on_shed", None)
        if on_shed is not None:
            timed.on_shed = on_shed
        return original(self, timed, *args, **kwargs)
    return submit


def install() -> Tracer:
    tracer = Tracer()
    for module_name, class_name, method, name, kind in TARGETS:
        try:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[method]
        except (ImportError, AttributeError, KeyError):
            tracer.missing.append(f"{class_name}.{method}")
            continue
        if method == "submit":
            original = functools.wraps(original)(
                _timed_submit(tracer, original))
        setattr(cls, method, _wrap(tracer, original, name, kind))
    return tracer
