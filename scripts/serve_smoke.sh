#!/usr/bin/env bash
# Serving-layer smoke test (CI: the serve-smoke job).
#
# Stands up `icnet_cli serve` on loopback against a small trained model,
# fires a few hundred concurrent queries at it from many connections, and
# requires:
#   * every in-deadline request is answered ok (zero drops),
#   * {"op":"health"} reports ready,
#   * {"op":"search"} (via `icnet_cli search --port`) completes a small
#     policy search twice with byte-identical reports, batching its oracle
#     calls (search_oracle_batches < search_oracle_calls), and a search
#     with an unknown scheme is answered as a search error carrying its id
#     while the connection stays usable,
#   * {"op":"stats","format":"prometheus"} parses and shows a
#     serve_request_seconds histogram with a nonzero _count plus the
#     search_* counters from the policy search and nonzero serve_stage_*
#     histograms from the request timelines,
#   * {"op":"profile","action":"start"} arms the in-process sampling
#     profiler and a later dump returns non-empty, well-formed folded
#     stacks (uploaded as a CI artifact when SMOKE_ARTIFACT_DIR is set),
#   * {"op":"traces"} returns stage-attributed timelines whose stage
#     completion timestamps are monotonic, with the forward pass split
#     into spmm / dense / readout,
#   * the server shuts down gracefully (exit code 0) on {"op":"shutdown"}.
#
# Usage: scripts/serve_smoke.sh [path/to/icnet_cli]
# SMOKE_CACHE_DIR (optional): directory holding/receiving the trained model,
# so CI can cache it across runs instead of re-attacking the circuit.
# SMOKE_ARTIFACT_DIR (optional): receives the server's --metrics-out and
# --trace-out files for upload as CI artifacts.
set -euo pipefail

CLI=${1:-build/examples/icnet_cli}
PORT=${SMOKE_PORT:-38471}
CLIENTS=${SMOKE_CLIENTS:-20}
PER_CLIENT=${SMOKE_PER_CLIENT:-20}

WORK=$(mktemp -d)
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

CACHE=${SMOKE_CACHE_DIR:-$WORK}
mkdir -p "$CACHE"

if [[ ! -f "$CACHE/model.txt" || ! -f "$CACHE/circuit.bench" ]]; then
  echo "== building model (cache miss)"
  "$CLI" gen "$CACHE/circuit.bench" --gates 96 --inputs 16 --outputs 8 --seed 7
  "$CLI" dataset "$CACHE/circuit.bench" "$CACHE/dataset.txt" \
    --instances 12 --max 8 --seed 3
  "$CLI" train "$CACHE/circuit.bench" "$CACHE/dataset.txt" "$CACHE/model.txt" \
    --epochs 40
else
  echo "== using cached model"
fi

TELEMETRY_FLAGS=()
if [[ -n "${SMOKE_ARTIFACT_DIR:-}" ]]; then
  mkdir -p "$SMOKE_ARTIFACT_DIR"
  TELEMETRY_FLAGS=(--metrics-out "$SMOKE_ARTIFACT_DIR/serve_metrics.json"
                   --trace-out "$SMOKE_ARTIFACT_DIR/serve_trace.json")
fi

JOBS=${SMOKE_JOBS:-4}
echo "== starting server on 127.0.0.1:$PORT with $JOBS engine workers"
"$CLI" serve "$CACHE/circuit.bench" "$CACHE/model.txt" --port "$PORT" \
  --max-queue 4096 --batch 32 --jobs "$JOBS" \
  "${TELEMETRY_FLAGS[@]}" \
  > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do
  if "$CLI" query --port "$PORT" --op ping > /dev/null 2>&1; then
    break
  fi
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORK/serve.log"; exit 1; }
  sleep 0.1
done
"$CLI" query --port "$PORT" --op ping > /dev/null

echo "== arming the in-process sampling profiler (timed capture)"
"$CLI" query --port "$PORT" --op profile --action start --hz 997 --seconds 120 \
  > "$WORK/profile_start.json"
cat "$WORK/profile_start.json"
python3 - "$WORK/profile_start.json" <<'PY'
import json, sys

resp = json.load(open(sys.argv[1]))
assert resp.get("ok") is True, f"profile start failed: {resp}"
assert resp.get("started") is True, f"profiler did not arm: {resp}"
assert resp.get("running") is True, f"profiler not running: {resp}"
print("OK: profiler sampling at 997 Hz")
PY

echo "== blasting $((CLIENTS * PER_CLIENT)) concurrent queries"
python3 - "$PORT" "$CLIENTS" "$PER_CLIENT" <<'PY'
import json, socket, sys, threading

port, clients, per_client = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
failures = []
lock = threading.Lock()

def worker(cid):
    try:
        sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        f = sock.makefile("rw")
        # Pipeline every request, then read every response in order.
        for i in range(per_client):
            select = [1 + (cid * per_client + i) % 90, 3 + i % 50]
            req = {"op": "predict", "select": select, "timeout_ms": 30000,
                   "id": cid * per_client + i}
            f.write(json.dumps(req) + "\n")
        f.flush()
        for i in range(per_client):
            resp = json.loads(f.readline())
            if not resp.get("ok"):
                with lock:
                    failures.append((cid, i, resp))
        sock.close()
    except Exception as e:  # noqa: BLE001 - any failure fails the smoke
        with lock:
            failures.append((cid, "exception", repr(e)))

threads = [threading.Thread(target=worker, args=(c,)) for c in range(clients)]
for t in threads:
    t.start()
for t in threads:
    t.join()

if failures:
    print(f"FAIL: {len(failures)} dropped/failed in-deadline requests")
    for item in failures[:10]:
        print("  ", item)
    sys.exit(1)
print(f"OK: {clients * per_client} concurrent requests all answered")
PY

echo "== checking server stats"
"$CLI" query --port "$PORT" --op stats > "$WORK/stats.json"
cat "$WORK/stats.json"
python3 - "$WORK/stats.json" <<'PY'
import json, sys

stats = json.load(open(sys.argv[1]))
depth = stats.get("queue_depth")
assert isinstance(depth, (int, float)) and depth >= 0, \
    f"bad queue_depth: {stats}"
assert stats.get("requests", 0) > 0, f"no requests recorded: {stats}"
print(f"OK: {stats['requests']:.0f} requests, queue_depth={depth:.0f}")
PY

echo "== checking health"
"$CLI" health --port "$PORT" > "$WORK/health.json"
cat "$WORK/health.json"
python3 - "$WORK/health.json" <<'PY'
import json, sys

health = json.load(open(sys.argv[1]))
assert health.get("ready") is True, f"server not ready: {health}"
assert health.get("models"), f"no models loaded: {health}"
assert health.get("uptime_seconds", -1) >= 0, f"bad uptime: {health}"
print(f"OK: ready with models {health['models']}")
PY

echo "== policy search over the wire"
"$CLI" search --port "$PORT" --budget 4 --scheme xor \
  --greedy-steps 4 --sa-steps 4 --neighbors 4 --top-k 1 \
  --verify-max-conflicts 20000 --out "$WORK/search_report.json"
"$CLI" search --port "$PORT" --budget 4 --scheme xor \
  --greedy-steps 4 --sa-steps 4 --neighbors 4 --top-k 1 \
  --verify-max-conflicts 20000 --out "$WORK/search_report2.json" > /dev/null
cmp "$WORK/search_report.json" "$WORK/search_report2.json" \
  || { echo "FAIL: search reports differ across identical runs"; exit 1; }
python3 - "$WORK/search_report.json" <<'PY'
import json, sys

report = json.load(open(sys.argv[1]))
assert report.get("doc") == "icnet_search_report", f"bad doc: {report.get('doc')}"
assert report.get("schema") == 1, f"bad schema: {report.get('schema')}"
steps = report.get("steps", [])
assert len(steps) == 8, f"expected 8 steps, got {len(steps)}"
calls, batches = report.get("oracle_calls", 0), report.get("oracle_batches", 0)
assert calls > 0, "no oracle calls recorded"
assert 0 < batches < calls, \
    f"candidates must be scored in batches: {batches} batches / {calls} calls"
verified = report.get("verified", [])
assert len(verified) == 1, f"expected 1 verified candidate, got {len(verified)}"
assert verified[0]["actual_seconds"] > 0, f"no attack outcome: {verified[0]}"
assert len(report.get("best_selection", [])) == 4, "bad best selection"
print(f"OK: deterministic report, {calls} oracle calls in {batches} batches, "
      f"predicted {verified[0]['predicted_seconds']:.6f}s vs "
      f"actual {verified[0]['actual_seconds']:.6f}s")
PY

echo "== malformed search over the wire"
python3 - "$PORT" <<'PY'
import json, socket, sys

sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=30)
f = sock.makefile("rw")
f.write(json.dumps({"op": "search", "id": 9,
                    "search": {"scheme": "rot13"}}) + "\n")
f.flush()
bad = json.loads(f.readline())
assert bad.get("op") == "search", f"not a search answer: {bad}"
assert bad.get("id") == 9, f"id not echoed: {bad}"
assert bad.get("ok") is False, f"malformed search accepted: {bad}"
assert "unknown lock scheme 'rot13'" in bad.get("error", ""), \
    f"wrong error: {bad}"
f.write(json.dumps({"op": "ping", "id": 10}) + "\n")
f.flush()
pong = json.loads(f.readline())
assert pong.get("ok") is True and pong.get("id") == 10, \
    f"ping after the malformed search failed: {pong}"
sock.close()
print(f"OK: malformed search answered as a search error: {bad['error']}")
PY

echo "== dumping the profile capture"
PROFILE_DIR=${SMOKE_ARTIFACT_DIR:-$WORK}
"$CLI" query --port "$PORT" --op profile --action dump \
  --out "$PROFILE_DIR/serve_profile.folded"
python3 - "$PROFILE_DIR/serve_profile.folded" <<'PY'
import sys

lines = open(sys.argv[1]).read().splitlines()
assert lines, "folded capture is empty — the blast + search burned CPU"
total = 0
for line in lines:
    stack, _, count = line.rpartition(" ")
    assert stack and count.isdigit(), f"unparseable folded line: {line!r}"
    total += int(count)
print(f"OK: {total} samples across {len(lines)} folded stacks")
PY

echo "== checking stage-attributed request timelines"
"$CLI" query --port "$PORT" --op traces > "$WORK/traces.json"
python3 - "$WORK/traces.json" <<'PY'
import json, sys

resp = json.load(open(sys.argv[1]))
assert resp.get("ok") is True, f"traces query failed: {resp}"
assert resp.get("recorded", 0) > 0, f"no timelines recorded: {resp}"
traces = resp.get("traces", [])
assert traces, f"trace store returned no retained timelines: {resp}"
forward_split = 0
for trace in traces:
    assert trace.get("request_id"), f"trace without request id: {trace}"
    fp = trace.get("fingerprint", "")
    assert fp.startswith("0x") and len(fp) == 18, f"bad fingerprint: {trace}"
    assert trace.get("batch_size", 0) >= 1, f"bad batch size: {trace}"
    stages = trace.get("stages", [])
    assert stages, f"trace without stages: {trace}"
    last_ts = 0
    for stage in stages:
        assert stage["ts_us"] >= last_ts, \
            f"stage completion times must be monotonic: {trace}"
        last_ts = stage["ts_us"]
        assert stage["dur_us"] >= 0, f"negative stage duration: {trace}"
    names = {stage["stage"] for stage in stages}
    if {"spmm", "dense", "readout"} <= names:
        forward_split += 1
assert forward_split > 0, \
    "no timeline attributed the forward pass to spmm/dense/readout"
print(f"OK: {len(traces)} timelines retained, {forward_split} with a full "
      f"spmm/dense/readout split")
PY

echo "== checking prometheus exposition"
"$CLI" stats --port "$PORT" --format prometheus > "$WORK/metrics.prom"
python3 - "$WORK/metrics.prom" <<'PY'
import sys

samples = {}
for line in open(sys.argv[1]):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("#"):
        assert line.startswith("# TYPE "), f"unexpected comment: {line}"
        continue
    name, _, value = line.rpartition(" ")
    assert name and value, f"unparseable sample line: {line}"
    samples[name] = float(value)  # every sample value must be numeric

count = samples.get("serve_request_seconds_count")
assert count is not None, "serve_request_seconds histogram missing"
assert count > 0, "serve_request_seconds_count is zero after the blast"

oracle_calls = samples.get("search_oracle_calls", 0)
oracle_batches = samples.get("search_oracle_batches", 0)
assert oracle_calls > 0, "search_oracle_calls is zero after the search"
assert 0 < oracle_batches < oracle_calls, \
    f"search must batch its oracle calls: {oracle_batches}/{oracle_calls}"
assert samples.get("search_steps", 0) > 0, "search_steps counter missing"

# The progress plane samples /proc/self into process_* gauges; a zero RSS
# or thread count means the sampler silently broke.
for gauge in ("process_resident_memory_bytes", "process_threads",
              "process_open_fds"):
    assert samples.get(gauge, 0) > 0, f"{gauge} missing or zero"

# Stage-attributed latency: the forward-pass split must reach Prometheus.
for stage in ("queue", "feature_build", "spmm", "dense", "readout"):
    key = f"serve_stage_{stage}_seconds_count"
    assert samples.get(key, 0) > 0, f"{key} missing or zero"
print(f"OK: parseable exposition, serve_request_seconds_count={count:.0f}, "
      f"rss={samples['process_resident_memory_bytes']:.0f}B")
PY

echo "== graceful shutdown"
"$CLI" query --port "$PORT" --op shutdown
wait "$SERVE_PID"
RC=$?
cat "$WORK/serve.log"
if [[ $RC -ne 0 ]]; then
  echo "FAIL: server exited with code $RC"
  exit 1
fi
echo "OK: server shut down cleanly"
