#!/usr/bin/env python3
"""Loopback benchmark of `icnet_cli serve`: served predictions and policy
search, measured end to end over TCP and split by layer from outside.

  python3 perfbench/run.py --workload predict-small --seed 1 --seconds 30 \
      --trace 0 [--cli build/examples/icnet_cli]

Run from the root of a source checkout. Without --cli the program is built
from source into .bench_build/cmake first. Each run starts a fresh server
(`icnet_cli serve <circuit> <model> --port 0 --jobs <nproc>`, every other
option at its default), drives it with the public JSON-lines protocol from
this one process, checks the answers and prints one metric per line followed
by a JSON summary as the last line. perfbench/README.md lists the workloads,
the metrics and which layer each one should move.
"""

import argparse
import collections
import ctypes
import hashlib
import json
import os
import select
import selectors
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import traffic as tr

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

# Share of --seconds given to each phase (open-loop predicts, closed-loop
# predicts, back-to-back searches). Every workload runs all three so that it
# reports every end-to-end metric. Server CPU per predict repeats within a few
# percent from a few seconds of traffic, while CPU per search varies with the
# seed's searches and needs many of them, hence the large search shares.
WORKLOADS = {
    # Not in BENCHMARK.json: its CPU costs are mostly thread wake-ups, whose
    # price swings with the host's load by more than a gate's bound
    # (README.md). It stays for paired front-end comparisons.
    "predict-small": {"circuit": "small", "sizes": (1, 6), "rate": 2000,
                      "shares": (0.35, 0.30, 0.35)},
    "predict-paper": {"circuit": "paper", "sizes": (1, 350), "rate": 400,
                      "shares": (0.30, 0.20, 0.50)},
    # Predicts here carry the search's own candidate size (budget 8).
    "search-paper": {"circuit": "paper", "sizes": (8, 8), "rate": 400,
                     "shares": (0.15, 0.15, 0.70)},
}
ROUNDS = 10            # each phase runs as one slice per round
SPARE_STARTS = 2       # spare servers timed before the first round and
                       # between rounds; setup_s is the median of all starts
WARMUP_SECONDS = 0.5
CLOSED_DEPTH = 16      # requests in flight per closed-loop connection
POOL = 4096            # distinct selections cycled by the closed loop
SAMPLE = 48            # answers per predict phase checked against references
SEARCH_SAMPLE = 2      # searches per run checked against in-process runs
DRAIN_SECONDS = 10.0   # wait for stragglers before counting them missing
GEN_CPU_LIMIT = 0.9    # generator busier than this: it, not the server, limits
GEN_LATE_LIMIT_MS = 1.0  # median send lateness above this: the same
# Units of the end-to-end figures a run prints that BENCHMARK.json does not
# gate (README.md says why). The gated ones and the per-layer metrics take
# theirs from BENCHMARK.json.
REPORTED_UNITS = {"setup_wall_s": "s", "predict_rps": "req/s",
                  "predict_p50_ms": "ms", "predict_p90_ms": "ms",
                  "search_p50_s": "s", "rss_peak_mb": "MiB", "steal_pct": "%"}


class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def declared_units():
    """({name: unit} of the end-to-end metrics, the same of the per-layer
    ones) as BENCHMARK.json declares them; the result line carries exactly
    these."""
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in doc[key]}
                 for key in ("end_to_end", "per_layer"))


def fingerprint(cli):
    """Digest of the program, this benchmark's code and its inputs. The
    checkout need not be a git repository, so this, not a commit id, tells
    whether two runs measured the same thing."""
    digest = hashlib.sha256()
    for path in [cli, *sorted(HERE.glob("*.py")), *sorted(INPUTS.iterdir())]:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def build(root):
    """Configure once, then build icnet_cli incrementally."""
    out = root / ".bench_build"
    bdir = out / "cmake"
    out.mkdir(exist_ok=True)
    with open(out / "build.log", "ab") as log:
        steps = [["cmake", "--build", str(bdir), "--target", "icnet_cli",
                  "-j", str(nproc())]]
        if not (bdir / "CMakeCache.txt").exists():
            steps.insert(0, ["cmake", "-S", str(root), "-B", str(bdir),
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} "
                                 f"(see {out / 'build.log'})")
    return bdir / "examples" / "icnet_cli"


def connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    # The generator must add no Nagle hold of its own.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class Conn:
    """Blocking one-request-at-a-time connection (setup, admin, replay,
    searches)."""

    def __init__(self, port):
        self.sock = connect(port)
        self.buf = b""

    def call_line(self, line):
        self.sock.sendall(line)
        while b"\n" not in self.buf:
            data = self.sock.recv(1 << 20)
            if not data:
                raise BenchError("server closed the connection")
            self.buf += data
        reply, _, self.buf = self.buf.partition(b"\n")
        return reply

    def call(self, obj):
        return json.loads(self.call_line(
            json.dumps(obj, separators=(",", ":")).encode() + b"\n"))

    def close(self):
        self.sock.close()


def proc_status(pid):
    """(threads, VmHWM MiB) of a live process, from /proc."""
    status = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            status[key] = value.split()
    return int(status["Threads"][0]), int(status["VmHWM"][0]) / 1024.0


def cpu_clock(pid):
    """Clock id of a process's CPU time over all its threads. Unlike the
    10 ms ticks of /proc/<pid>/stat it counts nanoseconds, which a single
    small search needs."""
    clock = ctypes.c_int()
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.clock_getcpuclockid(pid, ctypes.byref(clock)) != 0:
        raise BenchError(f"no CPU clock for pid {pid}")
    return clock.value


class Server:
    """One `icnet_cli serve` process on an ephemeral loopback port."""

    def __init__(self, cli, circuit, model, run_dir):
        self.stderr = open(run_dir / "serve.stderr", "ab")
        self.proc = subprocess.Popen(
            [str(cli), "serve", str(circuit), str(model), "--port", "0",
             "--jobs", str(nproc())],
            cwd=run_dir, stdout=subprocess.PIPE, stderr=self.stderr)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline().decode() if ready else ""
        if ":" not in line:
            self.kill()
            raise BenchError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        self.clock = cpu_clock(self.proc.pid)

    def cpu(self):
        """Seconds of CPU the server has used so far."""
        return time.clock_gettime(self.clock)

    @property
    def pid(self):
        return self.proc.pid

    def shutdown(self):
        """Graceful {"op":"shutdown"}; returns the exit code."""
        try:
            conn = Conn(self.port)
            conn.call({"op": "shutdown"})
            conn.close()
            code = self.proc.wait(timeout=30)
        except (OSError, BenchError, subprocess.TimeoutExpired):
            self.kill()
            code = -1
        self.proc.stdout.close()
        self.stderr.close()
        return code

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def start_server(cli, circuit, model, run_dir, first_line):
    """Spawn → first successful predict answered: (server, server CPU
    seconds, wall seconds). The CPU figure is the set-up work itself; the
    wall figure also holds whatever the host's other tenants took."""
    t0 = time.perf_counter()
    server = Server(cli, circuit, model, run_dir)
    try:
        conn = Conn(server.port)
        reply = json.loads(conn.call_line(first_line))
        cpu, wall = server.cpu(), time.perf_counter() - t0
        conn.close()
    except Exception:
        server.kill()
        raise
    if reply.get("ok") is not True:
        server.kill()
        raise BenchError(f"first predict failed: {reply}")
    return server, cpu, wall


def machine_ticks():
    """(steal, total) CPU ticks of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


class Window:
    """Wall, server CPU, generator CPU and machine steal over one slice."""

    def __init__(self, server):
        self.server = server
        self.t0 = time.perf_counter()
        self.cpu0 = server.cpu()
        self.gen0 = time.process_time()
        self.ticks0 = machine_ticks()

    def close(self, ops):
        """(server, generator, steal share) of the slice."""
        cpu = self.server.cpu()
        threads, _ = proc_status(self.server.pid)
        wall = time.perf_counter() - self.t0
        steal, total = (b - a for a, b in zip(self.ticks0, machine_ticks()))
        return ({"cpu_s": cpu - self.cpu0, "wall_s": wall, "ops": ops,
                 "threads": float(threads)},
                {"cpu_s": time.process_time() - self.gen0, "wall_s": wall},
                tr.ratio(steal, total))


def pump(sel, bufs, on_line, timeout):
    """One readiness pass: read what has arrived, hand each answer line to
    on_line(connection, line, arrival time)."""
    for key, _ in sel.select(timeout):
        c = key.data
        data = key.fileobj.recv(1 << 16)
        if not data:
            raise BenchError("server closed a load connection")
        now = time.perf_counter()
        lines = (bufs[c] + data).split(b"\n")
        bufs[c] = lines.pop()
        for line in lines:
            on_line(c, line, now)


def drain(sel, bufs, on_line, outstanding, deadline):
    """Read answers until `outstanding()` is 0 or the deadline passes."""
    while outstanding() > 0:
        left = deadline - time.perf_counter()
        if left <= 0:
            return
        pump(sel, bufs, on_line, min(left, 0.05))


def open_loop(port, n_conns, lines, offsets):
    """Seeded Poisson arrivals spread round-robin over n_conns connections.
    A sender thread sleeps to each due time; a receiver thread reads every
    answer. Returns due, send and answer times and the raw answers."""
    socks = [connect(port) for _ in range(n_conns)]
    sel = selectors.DefaultSelector()
    for c, s in enumerate(socks):
        sel.register(s, selectors.EVENT_READ, c)
    n = len(lines)
    fifo = [collections.deque() for _ in socks]
    bufs = [b""] * n_conns
    sent, answered, replies = [None] * n, [None] * n, [None] * n
    got = [0]
    finished = threading.Event()
    failure = []

    def on_line(c, line, now):
        i = fifo[c].popleft()
        answered[i], replies[i] = now, line
        got[0] += 1

    def receive():
        try:
            while not finished.is_set():
                pump(sel, bufs, on_line, 0.05)
            drain(sel, bufs, on_line, lambda: n - got[0],
                  time.perf_counter() + DRAIN_SECONDS)
        except Exception as e:  # re-raised by the sender below
            failure.append(e)

    receiver = threading.Thread(target=receive)
    receiver.start()
    start = time.perf_counter() + 0.005
    dues = [start + off for off in offsets]
    try:
        for i, due in enumerate(dues):
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            c = i % n_conns
            fifo[c].append(i)
            sent[i] = time.perf_counter()
            socks[c].sendall(lines[i])
    finally:
        finished.set()
        receiver.join()
        for s in socks:
            s.close()
    if failure:
        raise failure[0]
    return {"dues": dues, "sent": sent, "answered": answered,
            "replies": replies}


def closed_loop(port, n_conns, pool_lines, seconds, first, sample, trace):
    """n_conns connections, each keeping CLOSED_DEPTH requests in flight,
    cycling the selection pool from request number `first`; one selector
    thread. Answers after the deadline are drained but not counted."""
    socks = [connect(port) for _ in range(n_conns)]
    sel = selectors.DefaultSelector()
    for c, s in enumerate(socks):
        sel.register(s, selectors.EVENT_READ, c)
    fifo = [collections.deque() for _ in socks]
    bufs = [b""] * n_conns
    out = [[] for _ in socks]
    state = {"next": first, "in_time": 0, "outstanding": 0, "sending": True}
    replies, non_ok, spans = {}, [], []

    def issue(c):
        k = state["next"]
        state["next"] += 1
        p = k % len(pool_lines)
        rid = f"c{k}"
        fifo[c].append((p, rid, time.perf_counter() if trace else 0.0))
        out[c].append(tr.predict_line(rid, pool_lines[p]))
        state["outstanding"] += 1

    def on_line(c, line, now):
        p, rid, t_sent = fifo[c].popleft()
        state["outstanding"] -= 1
        if now < deadline:
            state["in_time"] += 1
        if not is_ok(line):
            non_ok.append(line)
        elif p in sample and p not in replies:
            replies[p] = line
        if trace:
            spans.append({"request_id": rid, "phase": "closed",
                          "due": t_sent, "sent": t_sent, "answered": now})
        if state["sending"]:
            issue(c)

    deadline = time.perf_counter() + seconds
    try:
        for c in range(n_conns):
            for _ in range(CLOSED_DEPTH):
                issue(c)
        while True:
            for c, s in enumerate(socks):
                if out[c]:
                    s.sendall(b"".join(out[c]))
                    out[c].clear()
            left = deadline - time.perf_counter()
            if left <= 0:
                break
            pump(sel, bufs, on_line, min(left, 0.05))
        state["sending"] = False
        drain(sel, bufs, on_line, lambda: state["outstanding"],
              time.perf_counter() + DRAIN_SECONDS)
    finally:
        for s in socks:
            s.close()
    return {"in_time": state["in_time"], "issued": state["next"] - first,
            "missing": state["outstanding"], "non_ok": non_ok,
            "replies": replies, "spans": spans}


def search_loop(server, seeds, seconds, first, trace):
    """One connection sending {"op":"search"} back to back until `seconds`
    are spent, at least one search. Returns (seed, seconds, server CPU
    seconds, answer) per search."""
    conn = Conn(server.port)
    results, spans = [], []
    start = time.perf_counter()
    try:
        while not results or time.perf_counter() - start < seconds:
            seed = next(seeds)
            rid = f"s{first + len(results)}"
            cpu0, t0 = server.cpu(), time.perf_counter()
            reply = json.loads(conn.call_line(tr.search_line(rid, seed)))
            t1 = time.perf_counter()
            results.append((seed, t1 - t0, server.cpu() - cpu0, reply))
            if trace:
                spans.append({"request_id": rid, "phase": "search",
                              "due": t0, "sent": t0, "answered": t1})
    finally:
        conn.close()
    return results, spans


def scrape(admin):
    return tr.parse_prometheus(
        admin.call({"op": "stats", "format": "prometheus"})["prometheus"])


class Phase:
    """One phase summed over its slices in every round."""

    def __init__(self):
        # Headline values for medians: (p50, p90) per open slice, req/s per
        # closed slice, seconds per search.
        self.slices = []
        self.steal = []  # machine steal share per slice
        self.delta = collections.Counter()
        self.proc = {"cpu_s": 0.0, "wall_s": 0.0, "ops": 0, "threads": 0.0}
        self.gen = {"cpu_s": 0.0, "wall_s": 0.0}
        self.wire = []  # sent → answered seconds, traced runs only


class Bench:
    """One run of one workload: traffic, measurement, checks and report."""

    def __init__(self, args, cli, root):
        self.args, self.cli = args, cli
        self.spec = spec = WORKLOADS[args.workload]
        self.trace = args.trace == 1
        runs = root / ".bench_build" / "perfbench"
        name = f"{args.workload}-seed{args.seed}"
        self.run_dir = runs / f"{name}-trace{args.trace}"
        self.untraced_dir = runs / f"{name}-trace0"
        self.gated, self.layer_units = declared_units()
        self.fingerprint = fingerprint(cli)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.run_dir.iterdir():
            stale.unlink()
        self.circuit = INPUTS / f"{spec['circuit']}.bench"
        self.model = INPUTS / f"{spec['circuit']}.model"
        self.first_gate, self.num_gates = tr.circuit_gates(
            self.circuit.read_text())
        self.conns = nproc()
        self.slice_s = {p: args.seconds * share / ROUNDS
                        for p, share in zip(tr.PHASES, spec["shares"])}
        # All traffic derives from --seed; the server sees only these
        # requests.
        self.pool = self.selections("pool", POOL)
        self.pool_json = [enc(s) for s in self.pool]
        self.seeds = iter(tr.search_seeds(tr.rng_for(args.seed, "search"),
                                          10000))
        self.closed_sample = set(
            tr.rng_for(args.seed, "sample").sample(range(POOL), SAMPLE))
        self.tally = tr.Tally()
        self.phases = {p: Phase() for p in tr.PHASES}
        self.setups = {"cpu_s": [], "wall_s": []}  # one entry per start
        # (request id, selection json, due, sent, answered, reply)
        self.open_requests = []
        self.open_selections = []
        self.closed = {"next": 0, "replies": {}, "spans": []}
        self.searches, self.search_spans = [], []
        self.search_cpu = []  # server CPU seconds per answered search
        self.traces = {}
        self.server = self.admin = None

    def selections(self, stream, count):
        lo, hi = self.spec["sizes"]
        return tr.make_selections(tr.rng_for(self.args.seed, stream), count,
                                  self.first_gate, self.num_gates, lo, hi)

    def spawn(self):
        k = len(self.setups["cpu_s"])
        server, cpu, wall = start_server(
            self.cli, self.circuit, self.model, self.run_dir,
            tr.predict_line(f"setup{k}", self.pool_json[k]))
        self.setups["cpu_s"].append(cpu)
        self.setups["wall_s"].append(wall)
        self.tally.ok()
        return server

    def stop(self, server):
        code = server.shutdown()
        if code != 0:
            self.tally.mismatch(f"server exited {code} after shutdown")

    def measure(self, name, fn, ops):
        """Run one slice of a phase, adding its server-side deltas (traced
        runs), CPU and wall time to the phase. ops(result) counts the
        operations the slice answered ok, so a failed request never lowers
        CPU per operation."""
        phase = self.phases[name]
        before = scrape(self.admin) if self.trace else None
        window = Window(self.server)
        result = fn()
        proc, gen, steal = window.close(ops(result))
        for k in ("cpu_s", "wall_s", "ops"):
            phase.proc[k] += proc[k]
        phase.proc["threads"] = proc["threads"]
        for k in ("cpu_s", "wall_s"):
            phase.gen[k] += gen[k]
        phase.steal.append(steal)
        if self.trace:
            phase.delta.update(tr.window_delta(before, scrape(self.admin)))
            for t in self.admin.call({"op": "traces"})["traces"]:
                self.traces[(t["request_id"], t["total_seconds"])] = t
        return result

    def open_slice(self, r):
        offsets = tr.poisson_schedule(tr.rng_for(self.args.seed, f"arr{r}"),
                                      self.spec["rate"], self.slice_s["open"])
        sels = self.selections(f"open{r}", len(offsets))
        sel_json = [enc(s) for s in sels]
        rids = [f"o{r}-{i}" for i in range(len(sels))]
        lines = [tr.predict_line(rid, j) for rid, j in zip(rids, sel_json)]
        res = self.measure(
            "open", lambda: open_loop(self.server.port, self.conns, lines,
                                      offsets),
            lambda o: sum(1 for r in o["replies"] if is_ok(r)))
        lat = tr.open_loop_latencies(res["dues"], res["answered"])
        self.phases["open"].slices.append(
            (tr.percentile(lat, 50), tr.percentile(lat, 90)))
        self.open_selections += sels
        self.open_requests += list(zip(rids, sel_json, res["dues"],
                                       res["sent"], res["answered"],
                                       res["replies"]))
        if self.trace:
            self.phases["open"].wire += [a - s for s, a in
                                         zip(res["sent"], res["answered"])
                                         if a is not None]

    def closed_slice(self):
        seconds = self.slice_s["closed"]
        cl = self.measure(
            "closed", lambda: closed_loop(
                self.server.port, self.conns, self.pool_json, seconds,
                self.closed["next"], self.closed_sample, self.trace),
            lambda c: c["issued"] - c["missing"] - len(c["non_ok"]))
        self.closed["next"] += cl["issued"]
        self.account_closed(cl)
        for p, line in cl["replies"].items():
            self.closed["replies"].setdefault(p, line)
        self.phases["closed"].slices.append(cl["in_time"] / seconds)
        self.closed["spans"] += cl["spans"]
        self.phases["closed"].wire += [s["answered"] - s["sent"]
                                       for s in cl["spans"]]

    def search_slice(self):
        results, spans = self.measure(
            "search", lambda: search_loop(
                self.server, self.seeds, self.slice_s["search"],
                len(self.searches), self.trace),
            lambda rs: sum(1 for *_, r in rs[0] if r.get("ok") is True))
        for _, seconds, cpu, reply in results:
            if self.tally.answer(reply):
                self.phases["search"].slices.append(seconds)
                self.search_cpu.append(cpu)
        self.searches += results
        self.search_spans += spans

    def account_closed(self, cl):
        self.tally.ok(cl["issued"] - cl["missing"] - len(cl["non_ok"]))
        self.tally.unanswered(cl["missing"])
        for line in cl["non_ok"]:
            self.tally.answer(json.loads(line))

    def window(self):
        """Set-up samples, warm-up, then ROUNDS rounds of the three phases.
        Interleaving short slices, and reporting medians over them, keeps a
        burst of outside load from owning a whole phase."""
        for _ in range(SPARE_STARTS):
            self.stop(self.spawn())
        self.server = self.spawn()
        self.admin = Conn(self.server.port)
        self.account_closed(closed_loop(self.server.port, 1, self.pool_json,
                                        WARMUP_SECONDS, 0, set(), False))
        if self.trace:
            self.admin.call({"op": "profile", "action": "start"})
        for r in range(ROUNDS):
            for _ in range(SPARE_STARTS if r > 0 else 0):
                self.stop(self.spawn())  # set-up samples between rounds
            self.open_slice(r)
            self.closed_slice()
            self.search_slice()
        self.folded = (self.admin.call({"op": "profile", "action": "dump"})
                       ["folded"] if self.trace else None)
        for *_, reply in self.open_requests:
            if reply is None:
                self.tally.unanswered(1)
            else:
                self.tally.answer(json.loads(reply))
        final = scrape(self.admin)
        # The server answers each unparsable line with status "error"; count
        # only wire errors that produced no such answer.
        self.tally.wire_errors = max(0, int(final.get("serve_wire_errors", 0))
                                     - self.tally.non_ok.get("error", 0))
        self.rss_mb = proc_status(self.server.pid)[1]

    def check_predicts(self):
        """Sampled answers against (a) the same selection replayed alone
        after the window, bit for bit, and (b) `icnet_cli predict
        --select-file` at the six decimals it prints."""
        picker = tr.rng_for(self.args.seed, "open-sample")
        answered = [(j, reply) for _, j, _, _, _, reply in self.open_requests
                    if is_ok(reply)]
        checks = picker.sample(answered, min(SAMPLE, len(answered)))
        checks += [(self.pool_json[p], line)
                   for p, line in sorted(self.closed["replies"].items())]
        conn = Conn(self.server.port)
        for n, (sel_json, reply) in enumerate(checks):
            again = json.loads(conn.call_line(tr.predict_line(f"r{n}",
                                                              sel_json)))
            first = json.loads(reply)
            for key in ("log_runtime", "seconds", "model_version"):
                if again.get(key) != first.get(key):
                    self.tally.mismatch(
                        f"replay of {sel_json.decode()} {key}: "
                        f"{first.get(key)!r} then {again.get(key)!r}")
        conn.close()
        sel_file = self.run_dir / "sample.select"
        sel_file.write_text("".join(s.decode()[1:-1] + "\n"
                                    for s, _ in checks))
        printed = subprocess.run(
            [str(self.cli), "predict", str(self.circuit), str(self.model),
             "--select-file", str(sel_file)], capture_output=True, text=True,
            check=True, timeout=120).stdout.split()
        if len(printed) != len(checks):
            self.tally.mismatch(f"icnet_cli predict printed {len(printed)} "
                                f"lines for {len(checks)} selections")
        for (sel_json, reply), line in zip(checks, printed):
            wire = "%.6f" % json.loads(reply)["seconds"]
            if wire != line:
                self.tally.mismatch(f"{sel_json.decode()}: wire {wire}, "
                                    f"cli {line}")

    def check_searches(self):
        """Sampled wire reports against `icnet_cli search --seed S` run
        in-process."""
        ok = [(seed, reply) for seed, _, _, reply in self.searches
              if reply.get("ok") is True]
        picks = tr.rng_for(self.args.seed, "search-sample").sample(
            ok, min(SEARCH_SAMPLE, len(ok)))
        for seed, reply in picks:
            out = self.run_dir / f"search-{seed}.json"
            subprocess.run([str(self.cli), "search", str(self.circuit),
                            str(self.model), "--seed", str(seed), "--out",
                            str(out)], stdout=subprocess.DEVNULL, check=True,
                           timeout=120)
            if json.loads(out.read_text()) != reply["report"]:
                self.tally.mismatch(f"search seed {seed}: wire report "
                                    f"differs from the in-process one")

    def run(self):
        try:
            self.window()
            self.check_predicts()
        finally:
            if self.admin is not None:
                self.admin.close()
            if self.server is not None:
                self.stop(self.server)
        self.check_searches()
        return self.report()

    def end_to_end(self):
        """(value, note) per end-to-end metric, the gated ones first: set-up
        and the server's CPU cost per operation. The wall-clock ones follow
        the host's CPU steal on a shared VM (see README.md)."""
        ph = self.phases
        p50s = [s[0] for s in ph["open"].slices]
        p90s = [s[1] for s in ph["open"].slices]
        n_open = ph["open"].proc["ops"]
        n_closed = ph["closed"].proc["ops"]
        n_search = len(ph["search"].slices)
        n_setup = len(self.setups["cpu_s"])
        med = statistics.median
        steal = statistics.mean(s for p in ph.values() for s in p.steal)
        cpu = lambda name, n: tr.ratio(ph[name].proc["cpu_s"], n)
        return {
            "setup_s": (med(self.setups["cpu_s"]),
                        f"median of {n_setup} server starts; server CPU "
                        f"from spawn to the first predict answered"),
            "predict_cpu_us": (1e6 * cpu("closed", n_closed),
                               f"server CPU per ok predict, closed loop; "
                               f"n={n_closed}"),
            "open_cpu_us": (1e6 * cpu("open", n_open),
                            f"server CPU per ok predict at "
                            f"{self.spec['rate']} req/s open loop; "
                            f"n={n_open}"),
            "search_cpu_s": (med(self.search_cpu),
                             f"median server CPU per search; n={n_search}"),
            "setup_wall_s": (med(self.setups["wall_s"]),
                             f"median of the same {n_setup} starts, wall "
                             f"clock"),
            "predict_rps": (med(ph["closed"].slices),
                            f"median of {ROUNDS} slices of "
                            f"{self.slice_s['closed']:.2f} s; n={n_closed}, "
                            f"{self.conns} connections x {CLOSED_DEPTH} "
                            f"in flight"),
            "predict_p50_ms": (1e3 * med(p50s),
                               f"median of {ROUNDS} slice p50s; n={n_open} "
                               f"at {self.spec['rate']} req/s, timed from "
                               f"due time"),
            "predict_p90_ms": (1e3 * med(p90s),
                               f"median of {ROUNDS} slice p90s; "
                               f"{n_open // 10} beyond"),
            "search_p50_s": (med(ph["search"].slices),
                             f"n={n_search} searches"),
            "rss_peak_mb": (self.rss_mb, "server VmHWM before shutdown"),
            "steal_pct": (100 * steal, "host CPU steal over the slices"),
        }

    def report(self):
        args, tally = self.args, self.tally
        e2e = self.end_to_end()
        late_ms = [1e3 * (s - d) for _, _, d, s, _, _ in self.open_requests
                   if s is not None]
        late_p50, late_p99 = (tr.percentile(late_ms, 50),
                              tr.percentile(late_ms, 99))
        busiest = max(tr.ratio(p.gen["cpu_s"], p.gen["wall_s"])
                      for p in self.phases.values())
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace} jobs={self.conns} "
              f"cli={self.cli}")
        units = {**REPORTED_UNITS, **self.gated}
        for gated in (True, False):
            if not gated:
                print("  reported, not gated:")
            for name, (value, note) in e2e.items():
                if (name in self.gated) == gated:
                    print(f"  {name:<16} {value:>12.6g} {units[name]:<6} "
                          f"{note}")
        print(f"  {'fail_ratio':<16} {tally.fail_ratio:>12.6g} {'ratio':<6} "
              f"{tally.failed} of {tally.attempted} operations (non-ok "
              f"{tally.non_ok}, wire {tally.wire_errors}, missing "
              f"{tally.missing}, mismatches {len(tally.mismatches)})")
        print(f"  generator: send lateness p50 {late_p50:.3f} ms, p99 "
              f"{late_p99:.3f} ms; busiest phase {busiest:.2f} core")
        for what in tally.mismatches[:10]:
            print(f"  MISMATCH {what}")
        if busiest > GEN_CPU_LIMIT or late_p50 > GEN_LATE_LIMIT_MS:
            raise BenchError(
                f"the generator, not the server, limited this run (busiest "
                f"phase {busiest:.2f} core, send lateness p50 "
                f"{late_p50:.3f} ms)")

        result = {"fingerprint": self.fingerprint, "seconds": args.seconds,
                  "e2e": {k: v for k, (v, _) in e2e.items()},
                  "setups": self.setups,
                  "slices": {p: ph.slices for p, ph in self.phases.items()},
                  "steal": {p: ph.steal for p, ph in self.phases.items()}}
        if self.trace:
            layers = self.per_layer(late_p99)
            self.write_trace()
            overhead = tracing_overhead(self.untraced_dir, result)
            result.update(layers=layers, overhead=overhead)
            print("  tracing overhead (traced - untraced, same seed, length "
                  "and code): " + (
                      ", ".join(f"{k} {v:+.6g}" for k, v in overhead.items())
                      if overhead is not None else
                      "no such untraced run here; run --trace 0 first"))
            for name, value in layers.items():
                print(f"  {name:<34} {value:.6g} {self.layer_units[name]}")
            metrics = declared(layers, self.layer_units)
        else:
            metrics = declared(result["e2e"], self.gated)
        (self.run_dir / "result.json").write_text(
            json.dumps(result, indent=1) + "\n")
        return {"correct": not tally.mismatches,
                "attempted": tally.attempted, "failed": tally.failed,
                "metrics": metrics}

    def per_layer(self, late_p99):
        phases = {}
        for name, p in self.phases.items():
            # A search answer is not a sum of predict stages, so the search
            # phase has no outside share.
            wire_us = 1e6 * sum(p.wire) / len(p.wire) if p.wire else 0.0
            phases[name] = (p.delta, wire_us, p.proc, p.gen)
        return tr.all_layers(phases, len(self.search_cpu), late_p99,
                             self.num_gates, self.pool + self.open_selections)

    def write_trace(self):
        """The traced run's records: one span per request, the server's
        tail-sampled timelines joined to them on request_id, per-phase
        stats deltas, and the folded profile of the window."""
        spans = [{"request_id": rid, "phase": "open", "due": d, "sent": s,
                  "answered": a}
                 for rid, _, d, s, a, _ in self.open_requests]
        spans += self.closed["spans"] + self.search_spans
        with open(self.run_dir / "spans.jsonl", "w") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")
        by_id = {s["request_id"]: s for s in spans}
        joined = [{"span": by_id.get(t["request_id"]), "server": t}
                  for t in self.traces.values()]
        (self.run_dir / "traces.json").write_text(
            json.dumps(joined, indent=1) + "\n")
        (self.run_dir / "stats.json").write_text(json.dumps(
            {p: dict(ph.delta) for p, ph in self.phases.items()},
            indent=1) + "\n")
        (self.run_dir / "profile.folded").write_text(self.folded)


def enc(selection):
    return json.dumps(selection, separators=(",", ":")).encode()


def is_ok(line):
    """Whether a raw answer line (None: no answer) reports success."""
    return line is not None and b'"ok":true' in line


def declared(values, units):
    """{name: {"value", "unit"}} of every metric in `units`, which
    BENCHMARK.json declares."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"BENCHMARK.json declares metrics this run does not "
                         f"make: {missing}")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def tracing_overhead(untraced_dir, traced):
    """Traced minus untraced per end-to-end metric, against the untraced run
    of the same workload, seed, length and code; None when there is none.
    `traced` is the traced run's result.json record."""
    path = untraced_dir / "result.json"
    if not path.exists():
        return None
    base = json.loads(path.read_text())
    if any(base.get(k) != traced[k] for k in ("fingerprint", "seconds")):
        return None
    return {k: v - base["e2e"][k] for k, v in traced["e2e"].items()
            if k in base["e2e"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cli", help="use this icnet_cli instead of building one")
    args = ap.parse_args()
    root = Path.cwd()
    try:
        if args.cli:
            cli = Path(args.cli).resolve()
        elif (root / "CMakeLists.txt").exists() and (root / "src").is_dir():
            cli = build(root)
        else:
            raise BenchError("run from the root of a source checkout "
                             "(no CMakeLists.txt and src/ here), or pass --cli")
        if not cli.exists():
            raise BenchError(f"no icnet_cli at {cli}")
        summary = Bench(args, cli, root).run()
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
