"""Pieces both benchmark processes share: the served object types,
the seeded payloads, and readings of the process's own counters.

Both processes import this module under the same name, so the typecodes
the client narrows by (qualified class names) match the server's.
"""

import random
import resource
import socket
import struct
import threading

from repro import NetObj, quick, reads

#: Every call's deadline (``Space(call_timeout=...)``); a call that
#: misses it counts as failed and its connection as wedged.
CALL_TIMEOUT_S = 1.0

SMALL_BYTES = 100
ECHO_BYTES = 64 * 1024
BULK_BYTES = 1024 * 1024
RECORD_COUNT = 128           # 64 KiB of 512 B records by payload_size()
VARIANTS = 4                 # distinct payloads of each kind per seed


class WrongResult(Exception):
    """A reply that differs from the value the benchmark expected."""


def payload_size(value) -> int:
    """Application payload bytes of ``value``: leaf sizes only, with no
    encoding or framing overhead, so the count does not depend on the
    codec a later change picks."""
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, (int, float)) or value is None:
        return 8
    if isinstance(value, dict):
        return sum(payload_size(k) + payload_size(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return sum(payload_size(v) for v in value)
    raise TypeError(f"no payload size for {type(value).__name__}")


class Payloads:
    """Every input of a run, derived from its seed alone; the server
    builds the same object from the same seed to serve downloads."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.small = [rng.randbytes(SMALL_BYTES) for _ in range(VARIANTS)]
        self.dicts = [
            {
                "id": rng.randrange(1 << 40),
                "name": "".join(rng.choice("abcdefghij") for _ in range(40)),
                "tags": [rng.randrange(1000) for _ in range(4)],
                "score": rng.random(),
            }
            for _ in range(VARIANTS)
        ]
        self.echo = [rng.randbytes(ECHO_BYTES) for _ in range(VARIANTS)]
        self.bulk = [rng.randbytes(BULK_BYTES) for _ in range(2)]
        self.records = [
            [
                (rng.randrange(1 << 30), rng.randbytes(248).hex(),
                 rng.random())
                for _ in range(RECORD_COUNT)
            ]
            for _ in range(2)
        ]


class Item(NetObj):
    """A fresh server-owned object handed out by ``Service.make``."""

    def __init__(self, token: int):
        self.token = token

    def value(self):
        return self.token


class Probe(NetObj):
    """A client-owned object the server calls back into."""

    def poke(self, x):
        return x + 1


class Board(NetObj):
    """A shared board read through the lease replica."""

    def __init__(self):
        self.cells = {}

    @reads
    def read(self, key):
        return self.cells.get(key)

    def write(self, key, value):
        self.cells[key] = value
        return value


class Service(NetObj):
    """The served object every workload calls.

    ``wrong_every`` makes ``ping`` return a wrong answer once every that
    many calls; only the self-test sets it."""

    def __init__(self, payloads: Payloads, wrong_every: int = 0):
        self._payloads = payloads
        self._wrong_every = wrong_every
        self._pings = 0
        self._lock = threading.Lock()
        self._next_token = 0

    @quick
    def ping(self, x: int) -> int:
        if self._wrong_every:
            self._pings += 1
            if self._pings % self._wrong_every == 0:
                return x + 1
        return x

    def echo(self, value):
        return value

    def echo_bytes(self, data: bytes) -> bytes:
        return data

    def upload(self, data):
        return len(data)

    def download(self, index):
        return self._payloads.bulk[index]

    def make(self, n):
        with self._lock:
            first = self._next_token
            self._next_token += n
        return first, [Item(first + i) for i in range(n)]

    def visit(self, probe, x):
        return probe.poke(x)


def _status_fields() -> dict:
    fields = {}
    try:
        with open("/proc/self/status") as status:
            for line in status:
                key, _, rest = line.partition(":")
                parts = rest.split()
                if parts and parts[0].isdigit():
                    fields[key] = int(parts[0])
    except OSError:
        pass
    return fields


def host_cpu_ticks() -> dict:
    """Whole-machine busy and steal ticks from /proc/stat; steal is
    time the hypervisor ran something else on our virtual CPUs."""
    try:
        with open("/proc/stat") as stat_file:
            fields = [int(v) for v in stat_file.readline().split()[1:]]
    except (OSError, ValueError):
        return {}
    steal = fields[7] if len(fields) > 7 else 0
    return {"busy": sum(fields[:8]) - fields[3] - fields[4] - steal,
            "steal": steal}


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def proc_reading() -> dict:
    """CPU, context switches, threads and memory of this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    status = _status_fields()
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "ctx_switches": usage.ru_nvcsw + usage.ru_nivcsw,
        "threads": status.get("Threads", threading.active_count()),
        "peak_rss_kib": status.get("VmHWM", usage.ru_maxrss),
    }


def numbers_only(value):
    """The numeric leaves of a nested ``stats()`` snapshot, so the
    reading crosses the wire whatever else a section holds."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            item = numbers_only(item)
            if item is not None:
                out[str(key)] = item
        return out
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    return None


def add_numbers(into: dict, more: dict) -> None:
    """Add the numeric leaves of ``more`` into ``into``, key by key."""
    for key, value in more.items():
        if isinstance(value, dict):
            add_numbers(into.setdefault(key, {}), value)
        elif isinstance(value, (int, float)):
            into[key] = into.get(key, 0) + value


def stat(snapshot: dict, *path, default=0):
    """``snapshot[path...]``, or ``default`` when a section or key is
    missing: a later change may delete any of them."""
    value = snapshot
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return default
        value = value[key]
    return value if isinstance(value, (int, float)) else default


class Control(NetObj):
    """Readings of the server process, over the program's own RPC."""

    def __init__(self, space, tracer):
        self._space = space
        self._tracer = tracer

    def snapshot(self):
        return {
            "stats": numbers_only(self._space.stats()),
            "gc": numbers_only(self._space.gc_stats()),
            "proc": proc_reading(),
        }

    def cpu_seconds(self):
        return cpu_seconds()

    def trace_reset(self):
        if self._tracer is not None:
            self._tracer.reset()

    def trace_report(self):
        return {} if self._tracer is None else self._tracer.report()

    def raw_echo_port(self):
        """Start a length-prefixed TCP echo beside the object layer, on
        the host the space listens on; returns its port."""
        host = self._space.endpoints[0].split("://", 1)[1].rpartition(":")[0]
        listener = socket.create_server((host, 0))
        threading.Thread(target=_raw_echo, args=(listener,),
                         daemon=True).start()
        return listener.getsockname()[1]


def _recv_exact(sock, n):
    data = bytearray()
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            return None
        data += chunk
    return bytes(data)


def _raw_echo(listener):
    with listener:
        conn, _ = listener.accept()
    with conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            header = _recv_exact(conn, 4)
            if header is None:
                return
            body = _recv_exact(conn, struct.unpack("!I", header)[0])
            if body is None:
                return
            conn.sendall(header + body)
