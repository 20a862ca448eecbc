#!/usr/bin/env bash
# Tier-1 verification: exactly the recipe in ROADMAP.md.
# Usage: ./ci.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")"

BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .   # Default build type is Release (CMakeLists).
cmake --build "$BUILD_DIR" -j "$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

# Perf smokes. Every gated speedup below is the median of paired,
# order-alternating trials (bench::measure in bench/bench_util.hpp),
# recorded with its p10/p90 spread. Exact serving counters (herd
# coalescing, fleet byte identity, the kill/heal ledger, eviction caps)
# are asserted by the NetE2E, Router, RouterHeal and PlanService gtests
# in ctest above; perfbench/ drives the real daemons for throughput.

# Planner perf smoke: time the planner hot path and emit
# BENCH_planner.json. Gated against bench/baselines by bench_check below.
"$BUILD_DIR/bench/bench_perf_planner" "$BUILD_DIR/BENCH_planner.json"
echo "ci.sh: perf smoke artifact at $BUILD_DIR/BENCH_planner.json"

# Serve perf smoke: replay the duplicate-heavy multi-tenant trace and
# emit BENCH_serve.json. The binary itself fails (non-zero exit) when
# the coalesced PlanService's median answers the trace slower than the
# naive one-planner-per-request baseline, or when any answer diverges.
"$BUILD_DIR/bench/bench_serve_load" "$BUILD_DIR/BENCH_serve.json"
echo "ci.sh: serve smoke artifact at $BUILD_DIR/BENCH_serve.json"

# Wire-format smoke: the same pipelined trace in JSON lines and in
# binary frames against one warm NetServer, emitting BENCH_wire.json.
# The binary fails when any answer in either format diverges byte-wise
# from the in-process PlanService or the binary phase runs below 1.3x
# the JSON phase's request rate.
"$BUILD_DIR/bench/bench_wire" "$BUILD_DIR/BENCH_wire.json"
echo "ci.sh: wire smoke artifact at $BUILD_DIR/BENCH_wire.json"

# Bench-regression gate: fresh artifacts vs. checked-in baselines.
# Deterministic counters must match exactly; speedup ratios may drop
# at most 25% (override with BENCH_CHECK_TOLERANCE). Refresh after an
# intentional change: python3 tools/bench_check.py --update
python3 tools/bench_check.py --fresh-dir "$BUILD_DIR"
echo "ci.sh: bench regression gates green"

# Docs drift gate: docs/PROTOCOL.md is the normative wire spec, so it
# must mention every query kind, error code, and wire constant the
# sources actually ship (scraped from the authoritative switches in
# serve/protocol.cpp, common/result.cpp, and serve/wire.hpp).
python3 tools/check_docs.py

# Trend history: append this run's BENCH_*.json artifacts (stamped with
# the git SHA) to the append-only bench/history.jsonl ledger, so perf
# drift is visible across commits, not just against the last baseline.
python3 tools/bench_history.py --fresh-dir "$BUILD_DIR"

# Protocol smoke: the mixed example request file must parse cleanly —
# ftsim_serve exits non-zero on any protocol error. The run also dumps
# its registry snapshot, which must be valid JSON whose serve.requests
# counter equals the number of request lines in the file.
STATS_DUMP="$BUILD_DIR/ftsim_serve.stats.json"
"$BUILD_DIR/ftsim_serve" examples/serve_requests.jsonl \
    --stats-json "$STATS_DUMP" > /dev/null
EXAMPLE_LINES=$(grep -c '[^[:space:]]' examples/serve_requests.jsonl)
python3 - "$STATS_DUMP" "$EXAMPLE_LINES" <<'PY'
import json, sys
stats = json.load(open(sys.argv[1]))
want = int(sys.argv[2])
got = stats.get("serve.requests")
assert got == want, f"serve.requests={got}, want {want}"
assert stats.get("cli.lines_read") == want, stats.get("cli.lines_read")
PY
echo "ci.sh: ftsim_serve answered examples/serve_requests.jsonl with zero protocol errors (--stats-json dump valid)"

# E2E golden: the governed service (bounded caches + tenant quotas)
# must answer the example + governance fixtures byte-exactly. The same
# golden is checked in-process by tests/integration/test_serve_e2e.cpp;
# this run pins the CLI to it, flags included.
cat examples/serve_requests.jsonl examples/serve_requests_governed.jsonl \
  | "$BUILD_DIR/ftsim_serve" - --max-answers 4 --max-planners 2 \
      --tenant-rps 0.000001 2> /dev/null \
  | diff -u tests/integration/golden_serve_e2e.jsonl -
echo "ci.sh: ftsim_serve output matches the e2e golden (quotas + eviction)"

# Socket golden e2e: the same fixtures through the ftsim_served daemon
# and the ftsim_client pipelining client must produce the same golden
# bytes — the TCP hop adds transport, never semantics. Port 0 lets the
# kernel pick (announced on the daemon's stderr); SIGTERM must drain
# gracefully and exit 0.
SERVED_LOG="$BUILD_DIR/ftsim_served.ci.log"
"$BUILD_DIR/ftsim_served" --port 0 --max-answers 4 --max-planners 2 \
    --tenant-rps 0.000001 2> "$SERVED_LOG" &
SERVED_PID=$!
# set -e aborts mid-block on any failure below; without the trap that
# would orphan the daemon (holding its port) past the script's death.
trap 'kill -TERM "$SERVED_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  grep -q "listening on" "$SERVED_LOG" 2>/dev/null && break
  sleep 0.1
done
SERVED_PORT=$(sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' \
              "$SERVED_LOG" | head -1)
[ -n "$SERVED_PORT" ] || { echo "ci.sh: ftsim_served did not start"; exit 1; }
cat examples/serve_requests.jsonl examples/serve_requests_governed.jsonl \
  | "$BUILD_DIR/ftsim_client" - --port "$SERVED_PORT" --timeout-ms 30000 \
  | diff -u tests/integration/golden_serve_e2e.jsonl -
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"   # Graceful drain must exit 0.
trap - EXIT
echo "ci.sh: ftsim_served/ftsim_client socket e2e matches the golden (clean SIGTERM drain)"

# Binary wire golden e2e: the same governed fixtures as binary frames
# (ftsim_client --wire binary encodes each parsed line as a frame and
# prints the decoded answers through the JSON writer). Token buckets
# are stateful, so the replay gets its own daemon — and must produce
# the SAME golden bytes: the wire format changes encoding, never
# semantics. See docs/PROTOCOL.md for the frame layout.
WIRED_LOG="$BUILD_DIR/ftsim_served_wire.ci.log"
"$BUILD_DIR/ftsim_served" --port 0 --max-answers 4 --max-planners 2 \
    --tenant-rps 0.000001 2> "$WIRED_LOG" &
WIRED_PID=$!
trap 'kill -TERM "$WIRED_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  grep -q "listening on" "$WIRED_LOG" 2>/dev/null && break
  sleep 0.1
done
WIRED_PORT=$(sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' \
             "$WIRED_LOG" | head -1)
[ -n "$WIRED_PORT" ] \
  || { echo "ci.sh: binary-wire daemon did not start"; exit 1; }
cat examples/serve_requests.jsonl examples/serve_requests_governed.jsonl \
  | "$BUILD_DIR/ftsim_client" - --port "$WIRED_PORT" --timeout-ms 30000 \
      --wire binary \
  | diff -u tests/integration/golden_serve_e2e.jsonl -
kill -TERM "$WIRED_PID"
wait "$WIRED_PID"
trap - EXIT
echo "ci.sh: binary wire replay matches the SAME golden byte-for-byte"

# Router golden e2e: the same client bytes through ftsim_router and two
# real ftsim_served shard processes. The router must be protocol-
# invisible: the ungoverned example requests answer byte-exactly the
# golden prefix (governed fixtures are excluded — per-shard token
# buckets are not portable across sharding). Afterwards a third shard
# warm-starts from a busy shard's snapshot over the wire, and all four
# processes must drain cleanly on SIGTERM.
SHARD1_LOG="$BUILD_DIR/ftsim_shard1.ci.log"
SHARD2_LOG="$BUILD_DIR/ftsim_shard2.ci.log"
ROUTER_LOG="$BUILD_DIR/ftsim_router.ci.log"
WARMED_LOG="$BUILD_DIR/ftsim_warmed.ci.log"
"$BUILD_DIR/ftsim_served" --port 0 2> "$SHARD1_LOG" &
SHARD1_PID=$!
"$BUILD_DIR/ftsim_served" --port 0 2> "$SHARD2_LOG" &
SHARD2_PID=$!
trap 'kill -TERM "$SHARD1_PID" "$SHARD2_PID" 2>/dev/null || true' EXIT
port_from_log() {
  for _ in $(seq 1 100); do
    grep -q "listening on" "$1" 2>/dev/null && break
    sleep 0.1
  done
  sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "$1" | head -1
}
SHARD1_PORT=$(port_from_log "$SHARD1_LOG")
SHARD2_PORT=$(port_from_log "$SHARD2_LOG")
[ -n "$SHARD1_PORT" ] && [ -n "$SHARD2_PORT" ] \
  || { echo "ci.sh: fleet shards did not start"; exit 1; }
"$BUILD_DIR/ftsim_router" --port 0 \
    --shard "127.0.0.1:$SHARD1_PORT" --shard "127.0.0.1:$SHARD2_PORT" \
    2> "$ROUTER_LOG" &
ROUTER_PID=$!
trap 'kill -TERM "$ROUTER_PID" "$SHARD1_PID" "$SHARD2_PID" 2>/dev/null || true' EXIT
ROUTER_PORT=$(port_from_log "$ROUTER_LOG")
[ -n "$ROUTER_PORT" ] || { echo "ci.sh: ftsim_router did not start"; exit 1; }
UNGOVERNED_LINES=$(grep -c '[^[:space:]]' examples/serve_requests.jsonl)
"$BUILD_DIR/ftsim_client" examples/serve_requests.jsonl \
    --port "$ROUTER_PORT" --timeout-ms 30000 \
  | diff -u <(head -n "$UNGOVERNED_LINES" \
              tests/integration/golden_serve_e2e.jsonl) -
# Live stats scrape: one {"query":"stats"} line against the running
# fleet must return the router's own registry plus a namespaced piece
# per shard, and the scraped counters must agree with what the golden
# replay just pinned: router.forwarded equals the replayed line count
# (the scrape itself is never counted as forwarded), and the shards'
# serve.requests sum to the same replay — plus one stats probe each,
# because a live scrape observes itself.
FLEET_STATS="$BUILD_DIR/fleet_stats.ci.json"
echo '{"query":"stats"}' \
  | "$BUILD_DIR/ftsim_client" - --port "$ROUTER_PORT" --timeout-ms 30000 \
  > "$FLEET_STATS"
python3 - "$FLEET_STATS" "$UNGOVERNED_LINES" <<'PY'
import json, sys
resp = json.load(open(sys.argv[1]))
want = int(sys.argv[2])
assert resp["ok"] is True, resp
stats = resp["stats"]
fwd = stats["router"]["router.forwarded"]
assert fwd == want, f"router.forwarded={fwd}, want {want}"
shards = stats["shards"]
alive = {name: s for name, s in shards.items() if s is not None}
assert len(alive) == 2, sorted(shards)
total = sum(s["serve.requests"] for s in alive.values())
assert total == want + len(alive), f"shard serve.requests sum={total}"
PY
echo "ci.sh: live fleet stats scrape agrees with the golden replay counters"
# Binary frames through the fleet: the router forwards frames byte-
# verbatim to the shards, so the binary replay of the same ungoverned
# fixtures must decode to the same golden prefix. (After the stats
# scrape on purpose — the scrape pinned the JSON-replay counters.)
"$BUILD_DIR/ftsim_client" examples/serve_requests.jsonl \
    --port "$ROUTER_PORT" --timeout-ms 30000 --wire binary \
  | diff -u <(head -n "$UNGOVERNED_LINES" \
              tests/integration/golden_serve_e2e.jsonl) -
echo "ci.sh: binary wire replay through the router matches the golden prefix"
# Warm start over the wire: a fresh shard pulls shard 1's PlanRegistry
# snapshot at boot and must announce the loaded plans.
"$BUILD_DIR/ftsim_served" --port 0 --warm-from "127.0.0.1:$SHARD1_PORT" \
    2> "$WARMED_LOG" &
WARMED_PID=$!
trap 'kill -TERM "$WARMED_PID" "$ROUTER_PID" "$SHARD1_PID" "$SHARD2_PID" 2>/dev/null || true' EXIT
WARMED_PORT=$(port_from_log "$WARMED_LOG")
[ -n "$WARMED_PORT" ] || { echo "ci.sh: warm-started shard did not start"; exit 1; }
grep -q "warm-started" "$WARMED_LOG" \
  || { echo "ci.sh: warm start did not load any plans"; exit 1; }
kill -TERM "$WARMED_PID" "$ROUTER_PID" "$SHARD1_PID" "$SHARD2_PID"
wait "$WARMED_PID" && wait "$ROUTER_PID" \
  && wait "$SHARD1_PID" && wait "$SHARD2_PID"   # All drain to exit 0.
trap - EXIT
echo "ci.sh: ftsim_router fleet e2e matches the golden prefix (warm start + clean drains)"

# Governed single-shard fleet: with exactly one shard the per-shard
# token buckets and caches see every request, so the FULL governed
# golden (quotas + eviction included) must survive the router hop
# byte-exactly — the strongest router-is-invisible check we can state.
GOV_SHARD_LOG="$BUILD_DIR/ftsim_govshard.ci.log"
GOV_ROUTER_LOG="$BUILD_DIR/ftsim_govrouter.ci.log"
"$BUILD_DIR/ftsim_served" --port 0 --max-answers 4 --max-planners 2 \
    --tenant-rps 0.000001 2> "$GOV_SHARD_LOG" &
GOV_SHARD_PID=$!
trap 'kill -TERM "$GOV_SHARD_PID" 2>/dev/null || true' EXIT
GOV_SHARD_PORT=$(port_from_log "$GOV_SHARD_LOG")
[ -n "$GOV_SHARD_PORT" ] \
  || { echo "ci.sh: governed shard did not start"; exit 1; }
"$BUILD_DIR/ftsim_router" --port 0 \
    --shard "127.0.0.1:$GOV_SHARD_PORT" 2> "$GOV_ROUTER_LOG" &
GOV_ROUTER_PID=$!
trap 'kill -TERM "$GOV_ROUTER_PID" "$GOV_SHARD_PID" 2>/dev/null || true' EXIT
GOV_ROUTER_PORT=$(port_from_log "$GOV_ROUTER_LOG")
[ -n "$GOV_ROUTER_PORT" ] \
  || { echo "ci.sh: governed router did not start"; exit 1; }
cat examples/serve_requests.jsonl examples/serve_requests_governed.jsonl \
  | "$BUILD_DIR/ftsim_client" - --port "$GOV_ROUTER_PORT" --timeout-ms 30000 \
  | diff -u tests/integration/golden_serve_e2e.jsonl -
kill -TERM "$GOV_ROUTER_PID" "$GOV_SHARD_PID"
wait "$GOV_ROUTER_PID" && wait "$GOV_SHARD_PID"
trap - EXIT
echo "ci.sh: governed single-shard fleet matches the FULL golden through the router"

# Self-healing e2e: kill -9 a live shard under a router started with
# --respawn. The router must fork a replacement ftsim_served on the
# dead shard's endpoint, warm-start it from the survivor's snapshot,
# report healed=1 respawned=1 in the fleet query, and keep answering
# the golden prefix byte-exactly. Everything drains cleanly.
HEAL1_LOG="$BUILD_DIR/ftsim_heal1.ci.log"
HEAL2_LOG="$BUILD_DIR/ftsim_heal2.ci.log"
HEAL_ROUTER_LOG="$BUILD_DIR/ftsim_healrouter.ci.log"
"$BUILD_DIR/ftsim_served" --port 0 2> "$HEAL1_LOG" &
HEAL1_PID=$!
"$BUILD_DIR/ftsim_served" --port 0 2> "$HEAL2_LOG" &
HEAL2_PID=$!
trap 'kill -TERM "$HEAL1_PID" "$HEAL2_PID" 2>/dev/null || true' EXIT
HEAL1_PORT=$(port_from_log "$HEAL1_LOG")
HEAL2_PORT=$(port_from_log "$HEAL2_LOG")
[ -n "$HEAL1_PORT" ] && [ -n "$HEAL2_PORT" ] \
  || { echo "ci.sh: heal shards did not start"; exit 1; }
"$BUILD_DIR/ftsim_router" --port 0 \
    --shard "127.0.0.1:$HEAL1_PORT" --shard "127.0.0.1:$HEAL2_PORT" \
    --retry-budget 2 --reconnect-backoff-ms 50 \
    --reconnect-backoff-max-ms 500 --heal-timeout-ms 5000 \
    --respawn "$BUILD_DIR/ftsim_served" 2> "$HEAL_ROUTER_LOG" &
HEAL_ROUTER_PID=$!
trap 'kill -TERM "$HEAL_ROUTER_PID" "$HEAL1_PID" "$HEAL2_PID" 2>/dev/null || true' EXIT
HEAL_ROUTER_PORT=$(port_from_log "$HEAL_ROUTER_LOG")
[ -n "$HEAL_ROUTER_PORT" ] \
  || { echo "ci.sh: healing router did not start"; exit 1; }
"$BUILD_DIR/ftsim_client" examples/serve_requests.jsonl \
    --port "$HEAL_ROUTER_PORT" --timeout-ms 30000 \
  | diff -u <(head -n "$UNGOVERNED_LINES" \
              tests/integration/golden_serve_e2e.jsonl) -
kill -KILL "$HEAL1_PID"
wait "$HEAL1_PID" || true   # SIGKILL: non-zero by design.
HEALED=""
for _ in $(seq 1 100); do
  if echo '{"query":"fleet"}' \
      | "$BUILD_DIR/ftsim_client" - --port "$HEAL_ROUTER_PORT" \
          --timeout-ms 2000 2> /dev/null \
      | grep -q 'healed=1 respawned=1'; then
    HEALED=yes
    break
  fi
  sleep 0.1
done
[ -n "$HEALED" ] \
  || { echo "ci.sh: router did not respawn+heal the killed shard"; exit 1; }
# The replacement (the router's own child) must answer the same bytes.
"$BUILD_DIR/ftsim_client" examples/serve_requests.jsonl \
    --port "$HEAL_ROUTER_PORT" --timeout-ms 30000 \
  | diff -u <(head -n "$UNGOVERNED_LINES" \
              tests/integration/golden_serve_e2e.jsonl) -
kill -TERM "$HEAL_ROUTER_PID" "$HEAL2_PID"
wait "$HEAL_ROUTER_PID" && wait "$HEAL2_PID"   # Router reaps its child.
trap - EXIT
echo "ci.sh: kill -9 shard healed via respawn + warm rejoin, answers stayed golden"

# Sanitizer job: rebuild the library + tests with ASan/UBSan and run
# the serving, protocol-fuzz, LRU, histogram, network, router, and
# snapshot suites — the fuzz corpus under sanitizers is the ISSUE-4
# "no UB on hostile input" gate, the Net* suites put real sockets
# (framing fuzz included) under the same instrumentation, and the
# RegistrySnapshot*/Base64* suites cover the ISSUE-6 hostile-snapshot
# bytes (truncation/corruption sweeps). Router* also matches the
# RouterHeal kill/rejoin suite, FaultProxy* puts the chaos proxy's
# byte accounting under the same instrumentation, and StatsRegistry*
# (with the Histogram* concurrency suites) is the ISSUE-8 16-thread
# registration/publish/snapshot herd. StepPlanSweep* runs the ISSUE-9
# vectorized-sweep identity suite (kernel-major plane indexing) under
# the same instrumentation. Wire* adds the ISSUE-10 binary codec,
# framing, and frame-fuzz suites (hostile length prefixes and tag
# soup must be typed errors, never UB); Net*/Router* already match
# the NetWireE2E/RouterWire socket suites.
SAN_DIR="${BUILD_DIR}-asan"
cmake -B "$SAN_DIR" -S . -DFTSIM_SANITIZE=ON \
      -DFTSIM_BUILD_BENCH=OFF -DFTSIM_BUILD_EXAMPLES=OFF > /dev/null
cmake --build "$SAN_DIR" -j "$(nproc)" --target ftsim_tests
"$SAN_DIR/ftsim_tests" \
    --gtest_filter='Protocol*:PlanService*:LruCache*:ServeE2E*:Histogram*:Net*:Router*:HashRing*:RegistrySnapshot*:Base64*:FaultProxy*:StatsRegistry*:StepPlanSweep*:Wire*'
echo "ci.sh: ASan+UBSan serve/fuzz/net/fleet/stats suites green"

# Optional TSan job: the stats registry's whole point is lock-free
# publishing on hot paths, so put the herd and histogram quantile
# suites under ThreadSanitizer when the toolchain supports it — plus
# the suites where PlanService worker threads complete answers and wake
# the event loop (Net*, Router*, FaultProxy*, PlanService*), and the
# Planner.Concurrent* herds — the only thread-safety coverage of the
# step cache that PlanService workers share. Probe
# first — some images ship compilers without TSan runtimes — and skip
# with a note rather than fail when the probe cannot link or run.
TSAN_PROBE_DIR=$(mktemp -d)
if echo 'int main() { return 0; }' > "$TSAN_PROBE_DIR/probe.cpp" \
   && c++ -fsanitize=thread "$TSAN_PROBE_DIR/probe.cpp" \
        -o "$TSAN_PROBE_DIR/probe" 2> /dev/null \
   && "$TSAN_PROBE_DIR/probe" 2> /dev/null; then
  TSAN_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_DIR" -S . -DFTSIM_TSAN=ON \
        -DFTSIM_BUILD_BENCH=OFF -DFTSIM_BUILD_EXAMPLES=OFF > /dev/null
  cmake --build "$TSAN_DIR" -j "$(nproc)" --target ftsim_tests
  "$TSAN_DIR/ftsim_tests" \
      --gtest_filter='StatsRegistry*:Histogram*:Net*:Router*:FaultProxy*:PlanService*:Planner.Concurrent*'
  echo "ci.sh: TSan stats/histogram herd + loop/service + planner cache suites green"
else
  echo "ci.sh: TSan unavailable in this toolchain, skipping (probe failed)"
fi
rm -rf "$TSAN_PROBE_DIR"

echo "ci.sh: all green"
