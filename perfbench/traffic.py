"""Pure parts of the loopback benchmark: seeded traffic, percentiles,
Prometheus parsing, window deltas, per-layer metrics and failure accounting.

Nothing in this module opens a socket or starts a process, so
perfbench/tests/test_traffic.py exercises it without a server.
"""

import json
import random

# Request stages of the server's per-request timeline, in order
# (serve.stage.<stage>_seconds histograms).
STAGES = ("accept", "parse", "route", "queue", "batch_admit", "feature_build",
          "spmm", "dense", "readout", "respond")

PHASES = ("open", "closed", "search")

# A selection this small touches little of the graph: the share of such
# requests tells whether a workload exercises selection-sized work.
SMALL_SELECTION = 8


def rng_for(seed, stream):
    """Independent deterministic stream per purpose. String seeds hash with
    SHA-512 inside random.Random, so they ignore PYTHONHASHSEED."""
    return random.Random(f"perfbench:{seed}:{stream}")


def circuit_gates(bench_text):
    """(primary inputs, total gates) of a .bench netlist: the server numbers
    inputs first, then one gate per assignment line."""
    inputs = gates = 0
    for line in bench_text.splitlines():
        line = line.strip()
        if line.startswith("INPUT("):
            inputs += 1
        elif "=" in line and not line.startswith("#"):
            gates += 1
    return inputs, inputs + gates


def make_selections(rng, count, first_gate, num_gates, lo, hi):
    """`count` selections of lo..hi distinct logic gates, sorted ids."""
    pool = range(first_gate, num_gates)
    return [sorted(rng.sample(pool, rng.randint(lo, hi))) for _ in range(count)]


def poisson_schedule(rng, rate, seconds):
    """Arrival offsets (s) of a Poisson process at `rate` per second."""
    offsets, t = [], rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def search_seeds(rng, count):
    return [rng.randrange(1, 2**31) for _ in range(count)]


def predict_line(request_id, selection_json):
    return (b'{"op":"predict","request_id":"' + request_id.encode() +
            b'","select":' + selection_json + b"}\n")


def search_line(request_id, seed):
    return json.dumps({"op": "search", "request_id": request_id,
                       "search": {"seed": seed}},
                      separators=(",", ":")).encode() + b"\n"


def percentile(values, q):
    """q-th percentile (0..100) by linear interpolation between closest
    ranks; `values` need not be sorted."""
    if not values:
        raise ValueError("percentile of no values")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def open_loop_latencies(dues, answers):
    """Latency of each answered request timed from its due time, so a stall
    also charges the requests queued behind it. None marks no answer."""
    return [a - d for d, a in zip(dues, answers) if a is not None]


def parse_prometheus(text):
    """{series: value} from Prometheus exposition text; a series is the
    metric name plus its label set, exactly as written."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        if key:
            series[key] = float(value)
    return series


def window_delta(before, after):
    """Change of every series over a window. Counters and histogram
    _sum/_count accumulate, so their delta is the window's own work; a series
    first created inside the window counts from zero."""
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def hist_mean(delta, name, scale=1.0):
    count = delta.get(name + "_count", 0.0)
    return scale * delta.get(name + "_sum", 0.0) / count if count > 0 else 0.0


def ratio(num, den):
    return num / den if den > 0 else 0.0


def stage_us(delta, stage):
    return hist_mean(delta, f"serve_stage_{stage}_seconds", 1e6)


def predict_layers(phase, delta, wire_us_mean, proc, gen):
    """Per-layer metrics of one predict or search phase.

    delta: window_delta of the server's exposition over the phase.
    wire_us_mean: mean generator-side latency, sent to answered (us).
    proc/gen: {"cpu_s", "wall_s", "ops", "threads"} of server and generator.
    """
    stages = {s: stage_us(delta, s) for s in STAGES}
    m = {
        "serve.parse_us": stages["parse"],
        "serve.respond_us": stages["respond"],
        "serve.wire_errors": delta.get("serve_wire_errors", 0.0),
        "serve.outside_us": (wire_us_mean - sum(stages.values())
                             if wire_us_mean else 0.0),
        "engine.route_us": stages["route"],
        "engine.queue_us": stages["queue"],
        "engine.batch_admit_us": stages["batch_admit"],
        "engine.batch_size_mean": hist_mean(delta, "serve_batch_size"),
        "engine.batches": delta.get("serve_batches", 0.0),
        "engine.rejected": delta.get("serve_rejected", 0.0),
        "engine.deadline": delta.get("serve_deadline_exceeded", 0.0),
        "engine.errors": delta.get("serve_errors", 0.0),
        "features.build_us": stages["feature_build"],
        "features.hit_ratio": ratio(
            delta.get("serve_feature_cache_hits", 0.0),
            delta.get("serve_feature_cache_hits", 0.0) +
            delta.get("serve_feature_cache_misses", 0.0)),
        "graph.spmm_us": stages["spmm"],
        "nn.dense_us": stages["dense"],
        "nn.readout_us": stages["readout"],
        "process.cpu_cores": ratio(proc["cpu_s"], proc["wall_s"]),
        "process.cpu_us_per_op": 1e6 * ratio(proc["cpu_s"], proc["ops"]),
        "process.threads": proc["threads"],
        "gen.cpu_cores": ratio(gen["cpu_s"], gen["wall_s"]),
    }
    return {f"{name}.{phase}": value for name, value in m.items()}


def search_layers(delta, searches):
    """Search, attack and SAT metrics of the search phase. SAT work is
    reported per completed search, so runs that fit a different number of
    searches into the window stay comparable."""
    d = delta.get
    solve_s = d("sat_attack_dip_solve_seconds_sum", 0.0)
    request_s = d("search_request_seconds_sum", 0.0)
    wait_s = d("search_queue_wait_seconds_sum", 0.0)
    step_s = d("search_step_seconds_sum", 0.0)
    attacks = d("sat_attack_attacks", 0.0)
    return {
        "search.step_ms": hist_mean(delta, "search_step_seconds", 1e3),
        "search.calls_per_batch": ratio(d("search_oracle_calls", 0.0),
                                        d("search_oracle_batches", 0.0)),
        "search.accept_ratio": ratio(d("search_accepted", 0.0),
                                     d("search_steps", 0.0)),
        "search.queue_wait_ms": hist_mean(delta, "search_queue_wait_seconds",
                                          1e3),
        "search.verify_ms": 1e3 * ratio(request_s - wait_s - step_s,
                                        d("search_request_seconds_count", 0.0)),
        "attack.miter_build_ms": hist_mean(delta,
                                           "sat_attack_miter_build_seconds",
                                           1e3),
        "attack.dips": ratio(d("sat_attack_iterations", 0.0), attacks),
        "attack.cap_ratio": ratio(d("sat_attack_caps_hit", 0.0), attacks),
        "sat.solve_ms": hist_mean(delta, "sat_attack_dip_solve_seconds", 1e3),
        "sat.solves": ratio(d("sat_attack_dip_solve_seconds_count", 0.0),
                            searches),
        "sat.conflicts": ratio(d("sat_attack_conflicts", 0.0), searches),
        "sat.propagations": ratio(d("sat_attack_propagations", 0.0), searches),
        "sat.decisions": ratio(d("sat_attack_decisions", 0.0), searches),
        "sat.props_per_s": ratio(d("sat_attack_propagations", 0.0), solve_s),
    }


def input_descriptors(num_gates, selections):
    sizes = [len(s) for s in selections]
    return {
        "input.circuit_gates": float(num_gates),
        "input.selection_gates_mean": sum(sizes) / len(sizes),
        "input.small_selection_share":
            sum(1 for k in sizes if k <= SMALL_SELECTION) / len(sizes),
    }


def all_layers(phases, searches, late_p99, num_gates, selections):
    """Every per-layer metric of a traced run. phases maps each of PHASES to
    the (delta, wire_us_mean, proc, gen) arguments of predict_layers."""
    layers = {}
    for name in PHASES:
        layers.update(predict_layers(name, *phases[name]))
    layers.update(search_layers(phases["search"][0], searches))
    layers["gen.late_p99_ms"] = late_p99
    layers.update(input_descriptors(num_gates, selections))
    return layers


class Tally:
    """Failure accounting of one run. Every failure counts once against the
    operations attempted: a non-ok answer (rejected, deadline, error), a line
    the server could not parse, a request never answered, an answer that
    differs from its reference, or a server that did not exit 0 after
    {"op":"shutdown"}. The last two make the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.non_ok = {}
        self.wire_errors = 0
        self.missing = 0
        self.mismatches = []

    def answer(self, response):
        """Count one parsed answer; returns True when it is ok."""
        self.attempted += 1
        if response.get("ok") is True:
            return True
        status = response.get("status") or "error"
        self.non_ok[status] = self.non_ok.get(status, 0) + 1
        return False

    def ok(self, n=1):
        self.attempted += n

    def unanswered(self, n):
        self.attempted += n
        self.missing += n

    def mismatch(self, what):
        self.mismatches.append(what)

    @property
    def failed(self):
        return (sum(self.non_ok.values()) + self.wire_errors + self.missing +
                len(self.mismatches))

    @property
    def fail_ratio(self):
        return ratio(self.failed, self.attempted)
