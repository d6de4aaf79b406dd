"""The repository's benchmark: two processes, a closed loop, three
workloads.

    python3 perfbench/run.py --workload calls --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

A server process (``server.py``) hosts the objects; this process is the
load generator.  Two caller threads each make blocking surrogate calls
and send the next only when the reply is back (a closed loop, the
paper's synchronous RPC).  The operation mix and every payload derive
from ``--seed``.  Every reply is checked; a wrong one, or a server
object table that does not return to its size before the run, makes
``correct`` false and the exit code 1.

Workloads (why each is here):

* ``calls`` — the paper's null-call table: 60% ``@quick`` scalar pings
  (typed fast lane, run inline), 30% ~100 B dict echoes (pickle lane,
  dispatcher worker), 10% 100 B typed bytes echoes.  Fixed per-call
  cost in transport, wire, rpc and core dominates; marshal barely works.
* ``bulk`` — the paper's throughput figure: 40% 64 KiB echoes, 20%
  1 MiB uploads, 20% 1 MiB downloads, 20% echoes of 64 KiB of 512 B
  records.  Marshal and transport bytes dominate; uploads and downloads
  put encode and decode on opposite sides.
* ``objects`` — reference passing and collection: ``make(4)`` hands out
  fresh server objects (one is called, all four dropped), the server
  calls back into a fresh client object, leased reads of a shared board
  with 10% writes, and a naming-agent ``import_object`` every 50
  operations per caller.  dgc, leases and naming do the work.

All three listen on the host's non-loopback interface address: the
traffic goes through the kernel's TCP stack as between machines, but
never crosses a real link.

The default same-machine placement (a loopback endpoint, where the
shared-memory transport engages) is not a workload: with two callers
its connection wedges a few times in a run, so the count of failed
operations differs from run to run.  The traced ``calls`` run measures
it instead, as a probe of ``SHM_PROBE_S`` seconds beside the workload
(``transport.shm_engaged``, ``transport.stalls``); the probe's
operations are reported on the details line, not in the result's counts.

Each call has a deadline (``common.CALL_TIMEOUT_S``).  A call that
misses it, or whose connection fails, counts as failed; the caller then
counts one stall for the connection and replaces the client space with
a fresh one, so one wedged connection does not end the run.

``--trace 0`` prints the end-to-end metrics, taken over the window's
quiet slices (see ``Quiet``).  ``ok_frac`` is the share of attempted
operations that completed correctly: one minus the ``fail_frac`` the
details line carries, so that the metric is never 0.  ``--trace 1`` runs the
workload twice, each for half of ``--seconds``: once plain, then with
spans around each layer's entry points in both processes
(``tracing.py``), and prints the per-layer metrics, including how much
the tracing itself slowed the run.  The spans are written to
``.perfbench_out/``.  The last line of standard output is the result
object; the line before it is the machine stamp and run details.
"""

import argparse
import bisect
import gc
import json
import math
import os
import platform
import random
import select
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

import bootstrap

bootstrap.prepare()

from repro import Space  # noqa: E402
from repro.errors import CommFailure, NetObjError  # noqa: E402

import common  # noqa: E402
from common import WrongResult, stat  # noqa: E402
from tracing import install as install_tracing, percentile  # noqa: E402

WORKLOADS = ("calls", "bulk", "objects")
CALLERS = 2
SETUPS = 7                 # set-up time is the median of this many
WARMUP_S = 1.0
IMPORT_EVERY = 50          # objects: one naming import per this many ops
MAKE_COUNT = 4
REF_BYTES = 16             # payload bytes counted for one reference
LEAK_DEADLINE_S = 10.0
SERVER_START_S = 30.0
RAW_ECHO_ROUNDS = 2000
IMPORT_PROBES = 20
SHM_PROBE_S = 8.0          # the loopback probe beside the traced calls run
SLICE_S = 0.5              # CPU and steal readings this far apart
QUIET_STEAL = 0.03         # slices with at most this steal share are quiet
QUIET_SHARE = 0.1          # ... and at least this share of slices counts
HERE = os.path.dirname(os.path.abspath(__file__))


def check(ok: bool, what: str) -> None:
    if not ok:
        raise WrongResult(what)


# -- placement ----------------------------------------------------------------


def interface_address() -> str:
    """The first IPv4 address of a non-loopback interface."""
    import fcntl

    siocgifaddr = 0x8915
    for _, name in socket.if_nameindex():
        if name == "lo":
            continue
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            packed = fcntl.ioctl(probe.fileno(), siocgifaddr,
                                 struct.pack("256s", name[:15].encode()))
        except OSError:
            continue
        finally:
            probe.close()
        address = socket.inet_ntoa(packed[20:24])
        if not address.startswith("127."):
            return address
    raise RuntimeError("no non-loopback IPv4 interface for the network "
                       "placement")


# -- the two processes --------------------------------------------------------


class Server:
    """The server process; ``stop`` closes its stdin and waits."""

    def __init__(self, host: str, seed: int, spans_path=None,
                 wrong_every: int = 0):
        command = [sys.executable, os.path.join(HERE, "server.py"),
                   "--endpoint", f"tcp://{host}:0", "--seed", str(seed)]
        if spans_path:
            command += ["--trace", spans_path]
        if wrong_every:
            command += ["--wrong-every", str(wrong_every)]
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     cwd=bootstrap.ROOT)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    SERVER_START_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.stop()
            raise RuntimeError("the server process did not start")
        self.endpoint = json.loads(line)["endpoint"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class View:
    """One client space and the surrogates imported through it."""

    def __init__(self, endpoint: str, listen):
        self.endpoint = endpoint
        self.space = Space("bench-client", listen=listen,
                           call_timeout=common.CALL_TIMEOUT_S)
        try:
            self.svc = self.space.import_object(endpoint, "svc")
            self.board = self.space.import_object(endpoint, "board")
            self.ctl = self.space.import_object(endpoint, "ctl")
        except BaseException:
            self.space.shutdown()
            raise


class Session:
    """The load generator's link to the server; a wedged connection
    retires the whole client space and dials a fresh one."""

    def __init__(self, endpoint: str, listen):
        self._endpoint = endpoint
        self._listen = listen
        self._lock = threading.Lock()
        self._retiring = []
        self.stalls = 0
        self.view = View(endpoint, listen)
        self.spaces = [self.view.space]

    def redial(self, stale: View) -> None:
        with self._lock:
            if self.view is not stale:
                return            # another caller already replaced it
            self.stalls += 1
            self.view = View(self._endpoint, self._listen)
            self.spaces.append(self.view.space)
        retire = threading.Thread(target=stale.space.shutdown, daemon=True)
        retire.start()
        self._retiring.append(retire)

    def close(self) -> None:
        self.view.space.shutdown()
        for thread in self._retiring:
            thread.join(10)


# -- operation mixes ----------------------------------------------------------


class CallerState:
    """Per-caller inputs and the facts a later check needs."""

    def __init__(self, index: int, seed: int, leak_every: int = 0):
        self.rng = random.Random(seed * 1000 + index)
        self.key = f"caller-{index}"
        self.last_write = None
        self.count = 0
        self.writes = 0
        self.leak_every = leak_every
        self.leaked = []


class Mix:
    def __init__(self, payloads: common.Payloads):
        self.p = payloads
        self.dict_sizes = [common.payload_size(d) for d in payloads.dicts]
        self.record_sizes = [common.payload_size(r) for r in payloads.records]

    def calls(self, view: View, st: CallerState) -> int:
        rng = st.rng
        pick = rng.random()
        if pick < 0.6:
            x = rng.randrange(1 << 40)
            check(view.svc.ping(x) == x, "ping result")
            return 16
        i = rng.randrange(common.VARIANTS)
        if pick < 0.9:
            value = self.p.dicts[i]
            check(view.svc.echo(value) == value, "dict echo")
            return 2 * self.dict_sizes[i]
        data = self.p.small[i]
        check(view.svc.echo_bytes(data) == data, "bytes echo")
        return 2 * len(data)

    def bulk(self, view: View, st: CallerState) -> int:
        rng = st.rng
        pick = rng.random()
        if pick < 0.4:
            data = self.p.echo[rng.randrange(common.VARIANTS)]
            check(view.svc.echo_bytes(data) == data, "64 KiB echo")
            return 2 * len(data)
        i = rng.randrange(2)
        if pick < 0.6:
            data = self.p.bulk[i]
            check(view.svc.upload(data) == len(data), "upload length")
            return len(data) + 8
        if pick < 0.8:
            check(view.svc.download(i) == self.p.bulk[i], "download")
            return 8 + len(self.p.bulk[i])
        records = self.p.records[i]
        check(view.svc.echo(records) == records, "records echo")
        return 2 * self.record_sizes[i]

    def objects(self, view: View, st: CallerState) -> int:
        rng = st.rng
        st.count += 1
        if st.count % IMPORT_EVERY == 0:
            board = view.space.import_object(view.endpoint, "board")
            check(board.read(st.key) == st.last_write,
                  "read through an imported board")
            return 2 * REF_BYTES + 16
        pick = rng.random()
        if pick < 0.3:
            first, items = view.svc.make(MAKE_COUNT)
            j = rng.randrange(MAKE_COUNT)
            check(items[j].value() == first + j, "fresh object value")
            if st.leak_every and st.count % st.leak_every == 0:
                st.leaked.append(items[j])
            return 8 + 8 + MAKE_COUNT * REF_BYTES + 8
        if pick < 0.5:
            # A fresh client object each time: exported for this call,
            # collected once the server's surrogate is cleaned.
            x = rng.randrange(1 << 40)
            check(view.svc.visit(common.Probe(), x) == x + 1,
                  "callback result")
            return REF_BYTES + 16
        if pick < 0.9:
            check(view.board.read(st.key) == st.last_write,
                  "read after write")
            return 16
        value = rng.randrange(1 << 40)
        check(view.board.write(st.key, value) == value, "write result")
        st.last_write = value
        st.writes += 1
        return 24


# -- measurement --------------------------------------------------------------


class Window:
    """What the callers did in one timed stretch, op by op, with the
    machine's and both processes' CPU readings every ``SLICE_S``."""

    def __init__(self):
        self.ok = 0
        self.failed = 0
        self.wrong = 0
        self.payload = 0
        self.writes = 0
        self.done = []            # (end ns, latency ns, payload bytes)
        self.ticks = []           # (ns, host ticks, client cpu, server cpu)
        self.examples = []
        self.callers_done = 0
        self.elapsed = 0.0
        self.fatal = None
        self.stalls = 0
        self.kept = []

    @property
    def attempted(self) -> int:
        return self.ok + self.failed + self.wrong

    @property
    def latencies(self):
        return [latency for _, latency, _ in self.done]


def cpu_tick(session: Session):
    """One reading for ``Window.ticks``; the server's CPU is None when
    its control call fails (a wedged connection)."""
    try:
        server_cpu = session.view.ctl.cpu_seconds()
    except NetObjError:
        server_cpu = None
    return (time.perf_counter_ns(), common.host_cpu_ticks(),
            common.cpu_seconds(), server_cpu)


def run_callers(session: Session, op, states, seconds: float,
                tracer=None) -> Window:
    window = Window()
    lock = threading.Lock()
    finished = threading.Event()
    window.ticks.append(cpu_tick(session))
    start = time.perf_counter()
    end = start + seconds

    def caller(index: int):
        st = states[index]
        failed = wrong = 0
        done = []
        examples = []
        fatal = None
        op_id = index << 40
        while time.perf_counter() < end:
            view = session.view
            if tracer is not None:
                op_id += 1
                tracer.begin_op(op_id)
                span = tracer.begin("op")
            began = time.perf_counter_ns()
            try:
                nbytes = op(view, st)
            except WrongResult as exc:
                wrong += 1
                examples.append(str(exc))
                continue
            except CommFailure as exc:
                failed += 1
                examples.append(repr(exc))
                try:
                    session.redial(view)
                except Exception as exc:  # the server is gone
                    fatal = f"redial failed: {exc!r}"
                    break
                continue
            except NetObjError as exc:
                failed += 1
                examples.append(repr(exc))
                continue
            finally:
                if tracer is not None:
                    tracer.end(span)
            ended = time.perf_counter_ns()
            done.append((ended, ended - began, nbytes))
        with lock:
            window.ok += len(done)
            window.failed += failed
            window.wrong += wrong
            window.payload += sum(nbytes for _, _, nbytes in done)
            window.done.extend(done)
            window.examples.extend(examples[:3])
            window.callers_done += 1 if done else 0
            window.fatal = window.fatal or fatal

    def sampler():
        while not finished.wait(SLICE_S):
            window.ticks.append(cpu_tick(session))

    threads = [threading.Thread(target=caller, args=(i,), daemon=True)
               for i in range(CALLERS)]
    ticker = threading.Thread(target=sampler, daemon=True)
    for thread in threads:
        thread.start()
    ticker.start()
    for thread in threads:
        thread.join()
    finished.set()
    ticker.join()
    window.ticks.append(cpu_tick(session))
    window.elapsed = time.perf_counter() - start
    window.writes = sum(st.writes for st in states)
    window.done.sort()
    return window


class Quiet:
    """The window's figures over its quiet slices.

    A virtual machine shares its host with other guests: for stretches
    of seconds the hypervisor takes 10-30% of the time our virtual CPUs
    want ("steal"), and on a 2-vCPU guest the closed loop then ran up
    to 3x slower.  The end-to-end figures therefore come from the slices whose
    steal share is at most ``QUIET_STEAL``, or, when fewer than
    ``QUIET_SHARE`` of the slices are that quiet, from that share of
    slices with the least steal.  Slices are picked by the host's steal
    counter alone, never by the figures measured in them; on a quiet
    host every slice counts."""

    def __init__(self, window: Window):
        slices = []
        ticks = window.ticks
        for index, (first, last) in enumerate(zip(ticks, ticks[1:])):
            t0, host0, client0, server0 = first
            t1, host1, client1, server1 = last
            if t1 - t0 < SLICE_S * 0.5e9:
                continue              # the short tail after the deadline
            busy = host1.get("busy", 0) - host0.get("busy", 0)
            stolen = host1.get("steal", 0) - host0.get("steal", 0)
            steal = stolen / (busy + stolen) if busy + stolen else 0.0
            cpu = (None if server0 is None or server1 is None
                   else client1 - client0 + server1 - server0)
            slices.append((steal, index, t0, t1, cpu))
        slices.sort()
        least = slices[max(0, math.ceil(len(slices) * QUIET_SHARE) - 1)][0] \
            if slices else 0.0
        keep = [s for s in slices if s[0] <= max(QUIET_STEAL, least)]
        ends = [end for end, _, _ in window.done]
        self.seconds = 0.0
        self.ops = 0
        self.payload = 0
        self.latencies = []
        cpu_ops = 0
        cpu_s = 0.0
        for steal, _, t0, t1, cpu in keep:
            lo = bisect.bisect_left(ends, t0)
            hi = bisect.bisect_left(ends, t1)
            self.seconds += (t1 - t0) / 1e9
            self.ops += hi - lo
            for _, latency, nbytes in window.done[lo:hi]:
                self.payload += nbytes
                self.latencies.append(latency)
            if cpu is not None:
                cpu_s += cpu
                cpu_ops += hi - lo
        self.cpu_us_per_op = cpu_s / max(cpu_ops, 1) * 1e6
        self.slices = len(keep)
        self.all_slices = len(slices)
        self.steal = (sum(s[0] for s in keep) / len(keep)) if keep else 0.0
        self.all_steal = (sum(s[0] for s in slices) / len(slices)
                          if slices else 0.0)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.seconds if self.seconds else 0.0


class Counters:
    """Both processes' ``stats()`` and /proc readings at one instant.
    The client's counters add up every client space the session has
    dialled, so a redial does not reset them."""

    def __init__(self, session: Session):
        self.server = session.view.ctl.snapshot()
        self.client = {"stats": {}, "gc": {}, "proc": common.proc_reading()}
        for space in session.spaces:
            common.add_numbers(self.client["stats"],
                               common.numbers_only(space.stats()))
            common.add_numbers(self.client["gc"],
                               common.numbers_only(space.gc_stats()))

    def both(self, *path):
        return stat(self.server, *path) + stat(self.client, *path)


def delta(after: Counters, before: Counters, *path) -> float:
    return after.both(*path) - before.both(*path)


def server_exported(view: View) -> int:
    return stat(view.ctl.snapshot(), "gc", "exported")


def leaked_entries(session: Session, baseline: int,
                   deadline_s: float = LEAK_DEADLINE_S) -> int:
    """Entries the server still exports beyond ``baseline`` once the
    collector has had ``deadline_s`` to reclaim dropped ones."""
    gc.collect()
    deadline = time.monotonic() + deadline_s
    while True:
        extra = server_exported(session.view) - baseline
        if extra <= 0 or time.monotonic() > deadline:
            return max(0, extra)
        time.sleep(0.05)


class Run:
    """One set-up server and session plus the measured window."""

    def __init__(self, args, host: str, listen, spans_path=None,
                 wrong_every: int = 0):
        started = time.perf_counter()
        self.server = Server(host, args.seed, spans_path, wrong_every)
        try:
            self.session = Session(self.server.endpoint, listen)
            x = args.seed + 12345
            check(self.session.view.svc.ping(x) == x, "first ping")
        except BaseException:
            self.server.stop()
            raise
        self.setup_s = time.perf_counter() - started
        self.baseline_exported = server_exported(self.session.view)

    def close(self) -> None:
        try:
            self.session.close()
        finally:
            self.server.stop()


def measure(run: Run, mix: Mix, workload: str, seconds: float, seed: int,
            leak_every: int = 0, tracer=None):
    """Warm up, then run the timed window between two counter readings.
    With a tracer, both processes' span tables cover the window alone
    and their reports come back as the fourth item."""
    op = getattr(mix, workload)
    warm_states = [CallerState(i, seed + 7919, leak_every)
                   for i in range(CALLERS)]
    warm = run_callers(run.session, op, warm_states, WARMUP_S)
    states = [CallerState(i, seed, leak_every) for i in range(CALLERS)]
    for warm_st, st in zip(warm_states, states):
        st.last_write = warm_st.last_write
        st.leaked = warm_st.leaked
    stalls = run.session.stalls
    before = Counters(run.session)
    if tracer is not None:
        run.session.view.ctl.trace_reset()
        tracer.reset()
    window = run_callers(run.session, op, states, seconds, tracer)
    after = Counters(run.session)
    traces = None
    if tracer is not None:
        traces = (tracer.report(), run.session.view.ctl.trace_report())
    window.wrong += warm.wrong
    window.examples += warm.examples
    window.fatal = window.fatal or warm.fatal
    window.stalls = run.session.stalls - stalls
    window.kept = [ref for st in states for ref in st.leaked]
    return window, before, after, traces


# -- metrics ------------------------------------------------------------------


def end_to_end(setups, window: Window, after: Counters):
    quiet = Quiet(window)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (quiet.ops_per_s, "1/s"),
        "goodput_mb_s": (quiet.payload / max(quiet.seconds, 1e-9) / 1e6,
                         "MB/s"),
        "lat_p50_us": (percentile(quiet.latencies, 50) / 1e3, "us"),
        "lat_p99_us": (percentile(quiet.latencies, 99) / 1e3, "us"),
        "ok_frac": (window.ok / max(window.attempted, 1), "ratio"),
        "cpu_us_per_op": (quiet.cpu_us_per_op, "us"),
        "server_rss_mib": (stat(after.server, "proc", "peak_rss_kib") / 1024,
                           "MiB"),
    }


def raw_echo_p50_us(view: View, host: str) -> float:
    """Median round trip of a 100 B length-prefixed echo over plain
    TCP between the same two processes, with no object layer."""
    port = view.ctl.raw_echo_port()
    body = b"r" * common.SMALL_BYTES
    frame = struct.pack("!I", len(body)) + body
    samples = []
    with socket.create_connection((host, port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for _ in range(RAW_ECHO_ROUNDS):
            began = time.perf_counter_ns()
            sock.sendall(frame)
            got = b""
            while len(got) < len(frame):
                chunk = sock.recv(len(frame) - len(got))
                if not chunk:
                    raise WrongResult("raw echo closed early")
                got += chunk
            samples.append(time.perf_counter_ns() - began)
            check(got == frame, "raw echo")
    return percentile(samples, 50) / 1e3


def per_layer(plain: Window, traced: Window, before: Counters,
              after: Counters, client_trace: dict, server_trace: dict,
              raw_p50_us: float, leaked: int, shm_dials: int, stalls: int):
    ops = max(traced.ok, 1)
    c_spans = client_trace.get("spans", {})
    s_spans = server_trace.get("spans", {})

    def span_sum(name, field):
        return (c_spans.get(name, {}).get(field, 0)
                + s_spans.get(name, {}).get(field, 0))

    def d(*path):
        return delta(after, before, *path)

    def ratio(num, den):
        return num / den if den else 0.0

    waits = client_trace.get("waits_ns", []) + server_trace.get("waits_ns", [])
    clean_batches = span_sum("dgc.clean_batch", "count")
    acquires = span_sum("dgc.acquire_ref", "count")
    lease_hits = d("stats", "leases", "lease_hits")
    lease_misses = d("stats", "leases", "lease_misses")
    plain_quiet = Quiet(plain)
    plain_p50 = percentile(plain_quiet.latencies, 50) / 1e3
    plain_rate = plain_quiet.ops_per_s
    traced_rate = Quiet(traced).ops_per_s
    return {
        "transport.send_us_per_op": (
            span_sum("transport.send", "total_ns") / ops / 1e3, "us"),
        "transport.frames_per_op": (
            d("stats", "reactor", "frames_out") / ops, "count"),
        "transport.raw_echo_p50_us": (raw_p50_us, "us"),
        "transport.shm_engaged": (shm_dials, "count"),
        "transport.stalls": (stalls, "count"),
        "wire.header_bytes_per_op": (
            (span_sum("transport.send", "units") - traced.payload) / ops,
            "B"),
        "marshal.encode_us_per_op": (
            span_sum("marshal.encode", "total_ns") / ops / 1e3, "us"),
        "marshal.decode_us_per_op": (
            span_sum("marshal.decode", "total_ns") / ops / 1e3, "us"),
        "marshal.pickle_bytes_per_op": (
            span_sum("marshal.encode", "units") / ops, "B"),
        "rpc.dispatch_wait_us_p50": (percentile(waits, 50) / 1e3, "us"),
        "rpc.dispatch_wait_us_p99": (percentile(waits, 99) / 1e3, "us"),
        "rpc.inline_share": (
            d("stats", "fastlane", "inline_dispatches") / ops, "ratio"),
        "rpc.fastlane_share": (
            d("stats", "fastlane", "fastlane_calls") / ops, "ratio"),
        "rpc.fallbacks_per_op": (
            d("stats", "fastlane", "fastlane_fallbacks") / ops, "count"),
        "rpc.shed_per_op": (d("stats", "admission", "shed") / ops, "count"),
        "rpc.read_pauses": (d("stats", "admission", "read_pauses"), "count"),
        "core.call_self_us": (
            c_spans.get("op", {}).get("self_p50_ns", 0) / 1e3, "us"),
        "core.overhead_x": (ratio(plain_p50, raw_p50_us), "x"),
        "core.lease_hit_ratio": (
            ratio(lease_hits, lease_hits + lease_misses), "ratio"),
        "core.invalidations_per_write": (
            ratio(d("stats", "leases", "invalidations_sent"), traced.writes),
            "count"),
        "dgc.dirty_per_op": (d("gc", "dirty_calls_seen") / ops, "count"),
        "dgc.clean_frames_per_op": (
            d("gc", "clean_batches_sent") / ops, "count"),
        "dgc.clean_batch_mean": (
            ratio(span_sum("dgc.clean_batch", "units"), clean_batches),
            "count"),
        "dgc.acquire_ref_us": (
            ratio(span_sum("dgc.acquire_ref", "total_ns"), acquires) / 1e3,
            "us"),
        "dgc.leaked_entries": (leaked, "count"),
        "naming.import_us": (
            c_spans.get("naming.import", {}).get("p50_ns", 0) / 1e3, "us"),
        "proc.ctx_switches_per_op": (
            d("proc", "ctx_switches") / ops, "count"),
        "proc.server_threads": (stat(after.server, "proc", "threads"),
                                "count"),
        "proc.server_cpu_us_per_op": (
            (stat(after.server, "proc", "cpu_s")
             - stat(before.server, "proc", "cpu_s")) / ops * 1e6, "us"),
        "bench.trace_overhead_frac": (
            ratio(plain_rate - traced_rate, plain_rate), "ratio"),
    }


# -- stamp and result ---------------------------------------------------------


def git_stamp():
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(bootstrap.ROOT))

    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=bootstrap.ROOT, env=env,
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return sha or "unknown", None if status is None else bool(status)


def stamp(args, host: str, callers: int) -> dict:
    sha, dirty = git_stamp()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": dirty,
        "placement": ("loopback endpoint 127.0.0.1"
                      if host.startswith("127.") else
                      f"interface address {host}"),
        "link": "host loopback traffic through the kernel, not a real link",
        "seed": args.seed,
        "callers": CALLERS,
        "callers_achieved": callers,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         info: dict) -> int:
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def window_info(window: Window) -> dict:
    quiet = Quiet(window)
    cpu = [tick[2] + tick[3] for tick in (window.ticks[0], window.ticks[-1])
           if tick[3] is not None]
    return {
        "attempted": window.attempted,
        "ok": window.ok,
        "failed": window.failed,
        "wrong": window.wrong,
        "examples": window.examples,
        "fail_frac": (window.failed + window.wrong) / max(window.attempted, 1),
        "stalls": window.stalls,
        "fatal": window.fatal,
        "elapsed_s": window.elapsed,
        "all_ops_per_s": window.ok / window.elapsed,
        "all_lat_p50_us": percentile(window.latencies, 50) / 1e3,
        "all_lat_p99_us": percentile(window.latencies, 99) / 1e3,
        "all_cpu_us_per_op": ((cpu[1] - cpu[0]) / max(window.ok, 1) * 1e6
                              if len(cpu) == 2 else None),
        "all_steal": quiet.all_steal,
        "quiet_slices": quiet.slices,
        "all_slices": quiet.all_slices,
        "quiet_steal": quiet.steal,
        "quiet_latency_samples": len(quiet.latencies),
    }


def counter_info(before: Counters, after: Counters) -> dict:
    """Window deltas of counters that explain the metrics: whether the
    ``@quick`` inline lane stayed on, and the context switches."""
    return {
        name: delta(after, before, *path)
        for name, path in (
            ("inline_dispatches", ("stats", "fastlane", "inline_dispatches")),
            ("inline_demotions", ("stats", "fastlane", "inline_demotions")),
            ("ctx_switches", ("proc", "ctx_switches")),
        )
    }


def listen_for(workload: str, host: str):
    # Only ``objects`` passes client objects the server calls back.
    return [f"tcp://{host}:0"] if workload == "objects" else []


def upgraded_dials(session: Session) -> int:
    """Dials the shared-memory transport took over, in every client
    space the session has used."""
    return sum(stat(common.numbers_only(space.stats()), "cache",
                    "upgraded_dials")
               for space in session.spaces)


def shm_probe(args, mix: Mix):
    """The ``calls`` mix to a loopback endpoint for ``SHM_PROBE_S``:
    returns the window (its stalls are wedged connections) and whether
    the shared-memory transport engaged."""
    run = Run(args, "127.0.0.1", [])
    try:
        window, _, _, _ = measure(run, mix, "calls", SHM_PROBE_S, args.seed)
        return window, upgraded_dials(run.session)
    finally:
        run.close()


def run_plain(args) -> int:
    host = interface_address()
    listen = listen_for(args.workload, host)
    mix = Mix(common.Payloads(args.seed))
    setups = []
    run = None
    try:
        for _ in range(SETUPS):
            if run is not None:
                run.close()
            run = Run(args, host, listen)
            setups.append(run.setup_s)
        window, before, after, _ = measure(run, mix, args.workload,
                                        args.seconds, args.seed)
        leaked = leaked_entries(run.session, run.baseline_exported)
    finally:
        if run is not None:
            run.close()
    metrics = end_to_end(setups, window, after)
    correct = (window.wrong == 0 and leaked == 0 and window.fatal is None
               and window.ok > 0)
    info = {"stamp": stamp(args, host, window.callers_done),
            "run": window_info(window), "leaked_entries": leaked,
            "setups_s": setups, "counters": counter_info(before, after)}
    return emit(correct, window.attempted, window.failed + window.wrong,
                metrics, info)


def run_traced(args) -> int:
    host = interface_address()
    listen = listen_for(args.workload, host)
    mix = Mix(common.Payloads(args.seed))
    half = args.seconds / 2
    run = Run(args, host, listen)
    try:
        plain, _, _, _ = measure(run, mix, args.workload, half, args.seed)
        leaked_plain = leaked_entries(run.session, run.baseline_exported)
    finally:
        run.close()

    tracer = install_tracing()
    os.makedirs(bootstrap.OUT_DIR, exist_ok=True)
    base = os.path.join(bootstrap.OUT_DIR,
                        f"{args.workload}-seed{args.seed}")
    run = Run(args, host, listen, spans_path=f"{base}-server.spans.jsonl")
    try:
        raw_p50 = raw_echo_p50_us(run.session.view, host)
        traced, before, after, (client_trace, server_trace) = measure(
            run, mix, args.workload, half, args.seed, tracer=tracer)
        view = run.session.view
        tracer.write_spans(f"{base}-client.spans.jsonl")
        tracer.reset()
        for _ in range(IMPORT_PROBES):
            view.space.import_object(view.endpoint, "svc")
        client_trace["spans"]["naming.import"] = \
            tracer.report()["spans"].get("naming.import", {})
        leaked = leaked_entries(run.session, run.baseline_exported)
        shm_dials = upgraded_dials(run.session)
    finally:
        run.close()
    stalls = plain.stalls + traced.stalls
    probe = None
    if args.workload == "calls":
        probe, probe_dials = shm_probe(args, mix)
        shm_dials += probe_dials
        stalls += probe.stalls
    metrics = per_layer(plain, traced, before, after, client_trace,
                        server_trace, raw_p50, leaked, shm_dials, stalls)
    windows = [plain, traced] + ([probe] if probe is not None else [])
    wrong = sum(window.wrong for window in windows)
    fatal = next((w.fatal for w in windows if w.fatal is not None), None)
    correct = (wrong == 0 and leaked == 0 and leaked_plain == 0
               and fatal is None and traced.ok > 0)
    info = {"stamp": stamp(args, host, traced.callers_done),
            "plain": window_info(plain), "traced": window_info(traced),
            "leaked_entries": leaked + leaked_plain,
            "untraced_layers": client_trace.get("missing", [])}
    if probe is not None:
        info["shm_probe"] = window_info(probe)
    return emit(correct, plain.attempted + traced.attempted,
                plain.failed + plain.wrong + traced.failed + traced.wrong,
                metrics, info)


def selftest(args) -> int:
    """Inject a wrong result and a leaked reference and check that the
    benchmark's own checks catch both: a ``calls`` run against a server
    whose ``ping`` answers wrongly once in 100 calls, and an ``objects``
    run whose callers keep one fresh object in 20 instead of dropping
    it."""
    host = interface_address()
    mix = Mix(common.Payloads(args.seed))
    run = Run(args, host, [], wrong_every=100)
    try:
        wrong_run, _, _, _ = measure(run, mix, "calls", 1.0, args.seed)
    finally:
        run.close()
    run = Run(args, host, listen_for("objects", host))
    try:
        leak_run, _, _, _ = measure(run, mix, "objects", 2.0, args.seed,
                                 leak_every=20)
        leaked = leaked_entries(run.session, run.baseline_exported,
                                deadline_s=2.0)
        kept = len(leak_run.kept)
        del leak_run
    finally:
        run.close()
    result = {"wrong_results_caught": wrong_run.wrong,
              "references_kept": kept, "leaked_entries_caught": leaked}
    print(json.dumps({"selftest": result}))
    return 0 if wrong_run.wrong > 0 and leaked > 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_traced(args) if args.trace else run_plain(args)


if __name__ == "__main__":
    sys.exit(main())
