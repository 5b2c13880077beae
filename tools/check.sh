#!/usr/bin/env bash
#===- tools/check.sh - Tier-1 verify + sanitizer and smoke checks -----------===#
#
# 1. Configure, build, and run the full test suite (the tier-1 gate).
# 2. Smoke-run the execution-throughput benchmark (1 iteration): every
#    corpus row must run to its expected checksum on the dispatch loop.
# 3. Smoke-run the compile-server benchmark: cold / warm-memory /
#    warm-disk tier counters must be exact, responses byte-identical,
#    and the warm-disk tier >= 6x faster than cold at the p50; then a
#    daemon + --connect CLI round trip over a real socket, with its
#    stats fetched as JSON, Prometheus text and the human page.
# 4. Smoke the observability layer: the disabled-tracer overhead gate
#    (obs_overhead) plus a real --trace-json export validated to contain
#    one span per pipeline phase (kept as build/trace_sample.json).
# 5. Smoke the CPS optimizer from the CLI: one program compiled with the
#    default rules and with both ablatable rules disabled must print
#    identical results. (The optimizer's semantic and count gates are
#    tier-1 tests: GeneratedPrograms against a host evaluation, and
#    CorpusCounts.MatchPinnedFile against tests/corpus_counts.tsv.)
# 6. Smoke the native backend: the AOT gate (native_throughput --smoke,
#    bit-identical to the VM and >= 3x geomean ips), a CLI
#    --backend=native run diffed against the VM run, and strict CLI
#    option validation (--cps-opt-disable / --backend with unknown
#    values, and the removed --cps-opt= engine choice and --vm-dispatch=
#    loop choice, must exit 64, not silently fall back). Right after
#    the native CLI check, the repository benchmark's own tests
#    (ledger/test_ledger.py): counts repeat, seeds fix the job order,
#    the traced replica is byte-identical on all 72 jobs, and every
#    workload's metric names match BENCHMARK.json (its native cases
#    need cc, like the native smoke).
# 7. Smoke the prelude snapshot: compile_throughput --smoke (front-end
#    speedup report + prelude-mode byte identity over the 72-job
#    matrix), plus a CLI differential — one corpus program compiled
#    under --prelude=snapshot and --prelude=inline must print identical
#    results.
# 8. Smoke the build farm: the farm_throughput gates (byte-identical
#    responses through the router, 2-shard cache scaling, clean
#    QueueFull-only overload, live /metrics), then a CLI-driven farm —
#    two --listen daemons behind a --router on loopback, a tenant-
#    authenticated compile through the router diffed against a local
#    run, a raw HTTP /metrics scrape asserting per-tenant counters,
#    `--connect` to a loopback listener that never answers (must exit
#    non-zero within the client's 5 s reply bound), and strict
#    validation of the farm flags (--listen=bogus / empty --backends
#    exit 64, a missing --token-file exits 66).
# 9. Smoke distributed tracing end to end: two --trace-json shards
#    behind a --trace-json router, one routed compile from a
#    --trace-json client, SIGTERM everything (the drain must flush
#    each node's trace buffers), then merge_traces must stitch the
#    four exports into ONE trace carrying rpc_compile, router_forward,
#    request, and compile_job spans (kept as build/merged.json); the
#    shard's --log-file must hold a structured drain_begin line, and
#    --log-level=bogus must exit 64.
# 10. Rebuild under ThreadSanitizer and run the batch-engine,
#    compile-server, farm, and observability tests, plus two threads
#    cold-building one native module, so data races in the worker pool,
#    poll loop, router threads, disk cache, trace/metric registries and
#    native artifact cache are caught mechanically.
# 11. Rebuild under AddressSanitizer and run the full suite (including
#    the protocol frame fuzzer, the optimizer differential harness, and
#    the native-backend differential tests, whose dlopen'd artifacts run
#    inside the instrumented process), so heap/GC bugs and codec
#    over-reads are caught at the first bad access rather than as
#    downstream corruption. Then rerun NativeBackend.* with modules
#    built by `cc -fsanitize=address` into a fresh cache: generated code
#    bump-allocates in the nursery itself, and its writes are checked too.
#
# Every step after the tier-1 build runs even when an earlier step
# failed (two speed gates, server_throughput's 6x warm-disk ratio and
# native_throughput's 3x geomean, can miss on a loaded or small host);
# the script then lists the failed steps and exits 1.
#
# The smoke steps write their reports under build/ (BENCH_*.json,
# trace_sample.json, merged.json). CI's tier1 job runs this script with
# --no-tsan --no-asan and uploads them; its sanitizer jobs are separate.
#
# Usage: tools/check.sh [--no-tsan] [--no-asan]
#
#===----------------------------------------------------------------------===#
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"
RUN_TSAN=1
RUN_ASAN=1
for Arg in "$@"; do
  case "$Arg" in
    --no-tsan) RUN_TSAN=0 ;;
    --no-asan) RUN_ASAN=0 ;;
    *) echo "unknown option '$Arg'" >&2; exit 64 ;;
  esac
done

SMLTCC="$ROOT/build/tools/smltcc"
FAILED=()

# Runs one step in a subshell under `set -e` (its EXIT traps clean up its
# own daemons and files) and records a failure instead of stopping.
run_step() {
  local Name="$1"
  shift
  echo "== $Name =="
  local Rc=0
  set +e
  (set -e; "$@")
  Rc=$?
  set -e
  if [[ "$Rc" != 0 ]]; then
    echo "== FAILED: $Name (exit $Rc) ==" >&2
    FAILED+=("$Name (exit $Rc)")
  fi
}

echo "== tier-1: build + ctest =="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j"$JOBS"

step_ctest() {
  (cd "$ROOT/build" && ctest --output-on-failure -j"$JOBS")
}

step_exec_smoke() {
  (cd "$ROOT/build" && ./bench/exec_throughput --smoke \
    --out="$ROOT/build/BENCH_exec_smoke.json")
}

step_server_smoke() {
  (cd "$ROOT/build" && ./bench/server_throughput --smoke \
    --out="$ROOT/build/BENCH_server_smoke.json")
}

step_server_cli() {
  CHECK_SOCK="/tmp/smltcc-check-$$.sock"
  CHECK_CACHE="/tmp/smltcc-check-cache-$$"
  "$SMLTCC" --daemon --socket="$CHECK_SOCK" --cache-dir="$CHECK_CACHE" &
  DAEMON_PID=$!
  trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -rf "$CHECK_CACHE"' EXIT
  sleep 1
  "$SMLTCC" --connect="$CHECK_SOCK" --remote-ping
  "$SMLTCC" --connect="$CHECK_SOCK" --expr 'fun main () = 6 * 7' \
    | grep 'result = 42' >/dev/null
  "$SMLTCC" --connect="$CHECK_SOCK" --remote-stats | python3 -c \
    'import json, sys; assert json.load(sys.stdin)["compile_requests"] == 1'
  "$SMLTCC" --connect="$CHECK_SOCK" --remote-stats --format=prom \
    | grep '^# TYPE smltcc_server_requests_total counter' >/dev/null
  "$SMLTCC" --connect="$CHECK_SOCK" --remote-stats --format=human \
    | grep 'smltcc compile server' >/dev/null
  "$SMLTCC" --connect="$CHECK_SOCK" --remote-shutdown
  wait "$DAEMON_PID"
  trap - EXIT
  rm -rf "$CHECK_CACHE"
}

step_observability() {
  (cd "$ROOT/build" && ./bench/obs_overhead --smoke \
    --out="$ROOT/build/BENCH_obs.json")
  CHECK_TRACE="$ROOT/build/trace_sample.json"
  "$SMLTCC" --trace-json="$CHECK_TRACE" --expr 'fun main () = 6 * 7' \
    | grep 'result = 42' >/dev/null
  python3 - "$CHECK_TRACE" <<'PYEOF'
import json, sys
evs = json.load(open(sys.argv[1]))["traceEvents"]
names = {e["name"] for e in evs if e["ph"] == "X"}
missing = {"parse", "elaborate", "translate", "cps_convert", "cps_opt",
           "closure", "codegen", "compile", "vm_run"} - names
assert not missing, f"trace missing phase spans: {missing}"
PYEOF
}

step_cps_opt_cli() {
  FIX_EXPR='fun main () = let fun go 0 acc = acc | go n acc = go (n - 1) (acc + n * n) in go 50 0 end'
  FIX_OUT="$("$SMLTCC" --expr "$FIX_EXPR")"
  echo "$FIX_OUT" | grep 'result = 42925' >/dev/null
  ALT_OUT="$("$SMLTCC" --cps-opt-disable=eta,wrapcancel --expr "$FIX_EXPR")"
  if [[ "$FIX_OUT" != "$ALT_OUT" ]]; then
    echo "FAIL: ablated rules change the output" >&2
    exit 1
  fi
}

step_native_smoke() {
  (cd "$ROOT/build" && ./bench/native_throughput --smoke \
    --out="$ROOT/build/BENCH_native_smoke.json")
}

step_native_cli() {
  VM_OUT="$("$SMLTCC" --backend=vm --expr 'fun main () = 6 * 7')"
  NATIVE_OUT="$("$SMLTCC" --backend=native --expr 'fun main () = 6 * 7')"
  echo "$NATIVE_OUT" | grep 'result = 42' >/dev/null
  if [[ "$(echo "$VM_OUT" | grep 'result =')" != \
        "$(echo "$NATIVE_OUT" | grep 'result =')" ]]; then
    echo "FAIL: native CLI result differs from VM CLI result" >&2
    exit 1
  fi
}

step_ledger_tests() {
  python3 "$ROOT/ledger/test_ledger.py"
}

step_compile_smoke() {
  (cd "$ROOT/build" && ./bench/compile_throughput --smoke \
    --out="$ROOT/build/BENCH_compile_smoke.json")
}

step_prelude_cli() {
  SNAP_OUT="$("$SMLTCC" --prelude=snapshot --expr 'fun main () = length (rev (tabulate (10, fn i => i)))')"
  INLINE_OUT="$("$SMLTCC" --prelude=inline --expr 'fun main () = length (rev (tabulate (10, fn i => i)))')"
  echo "$SNAP_OUT" | grep 'result = 10' >/dev/null
  if [[ "$SNAP_OUT" != "$INLINE_OUT" ]]; then
    echo "FAIL: --prelude=snapshot output differs from --prelude=inline" >&2
    exit 1
  fi
}

step_cli_validation() {
  for Bad in --vm-dispatch=bogus --cps-opt=bogus --backend=bogus \
             --prelude=bogus --log-level=bogus --cps-opt-max-phases=bogus \
             --cps-opt-max-phases=0 --cps-opt-max-phases=999999 \
             --cps-opt-max-phases=10 --cps-opt-disable=fag \
             --cps-opt-disable=hoist --cps-opt-disable=bogus \
             --cps-opt-disable= --cps-opt=rounds --cps-opt=shrink \
             --vm-dispatch=legacy --vm-dispatch=switch \
             --vm-dispatch=threaded; do
    if "$SMLTCC" "$Bad" --expr 'fun main () = 1' >/dev/null 2>&1; then
      echo "FAIL: $Bad was accepted; unknown option values must be rejected" >&2
      exit 1
    fi
    Rc=0; "$SMLTCC" "$Bad" --expr 'fun main () = 1' >/dev/null 2>&1 || Rc=$?
    if [[ "$Rc" != 64 ]]; then
      echo "FAIL: $Bad exited $Rc, expected usage error 64" >&2
      exit 1
    fi
  done
}

step_farm_smoke() {
  (cd "$ROOT/build" && ./bench/farm_throughput --smoke \
    --out="$ROOT/build/BENCH_farm_smoke.json")
}

step_farm_cli() {
  FARM_TOKENS="/tmp/smltcc-check-tokens-$$"
  FARM_LOG1="/tmp/smltcc-check-shard1-$$.log"
  FARM_LOG2="/tmp/smltcc-check-shard2-$$.log"
  FARM_LOG3="/tmp/smltcc-check-router-$$.log"
  printf 'team-a check-token-aaaa 3 8 64\nteam-b check-token-bbbb 1 8 64\n' \
    > "$FARM_TOKENS"
  "$SMLTCC" --daemon --listen=127.0.0.1:0 --token-file="$FARM_TOKENS" \
    2>"$FARM_LOG1" &
  SHARD1_PID=$!
  "$SMLTCC" --daemon --listen=127.0.0.1:0 --token-file="$FARM_TOKENS" \
    2>"$FARM_LOG2" &
  SHARD2_PID=$!
  trap 'kill "$SHARD1_PID" "$SHARD2_PID" 2>/dev/null || true; \
    rm -f "$FARM_TOKENS" "$FARM_LOG1" "$FARM_LOG2" "$FARM_LOG3"' EXIT
  sleep 1
  SHARD1="$(sed -n 's#.*listening on tcp://##p' "$FARM_LOG1")"
  SHARD2="$(sed -n 's#.*listening on tcp://##p' "$FARM_LOG2")"
  [[ -n "$SHARD1" && -n "$SHARD2" ]] || { echo "FAIL: shards did not bind" >&2; exit 1; }
  "$SMLTCC" --router --listen=127.0.0.1:0 --backends="$SHARD1,$SHARD2" \
    2>"$FARM_LOG3" &
  ROUTER_PID=$!
  trap 'kill "$SHARD1_PID" "$SHARD2_PID" "$ROUTER_PID" 2>/dev/null || true; \
    rm -f "$FARM_TOKENS" "$FARM_LOG1" "$FARM_LOG2" "$FARM_LOG3"' EXIT
  sleep 1
  ROUTER="$(sed -n 's#.*listening on ##p' "$FARM_LOG3")"
  [[ -n "$ROUTER" ]] || { echo "FAIL: router did not bind" >&2; exit 1; }
  "$SMLTCC" --connect="tcp://$ROUTER" --token=check-token-aaaa --remote-ping
  # A compile through the router must print exactly what a local run does.
  FARM_EXPR='fun main () = let fun go 0 acc = acc | go n acc = go (n - 1) (acc + n) in go 100 0 end'
  LOCAL_OUT="$("$SMLTCC" --expr "$FARM_EXPR")"
  ROUTED_OUT="$("$SMLTCC" --connect="tcp://$ROUTER" --token=check-token-bbbb \
    --expr "$FARM_EXPR")"
  echo "$ROUTED_OUT" | grep 'result = 5050' >/dev/null
  if [[ "$LOCAL_OUT" != "$ROUTED_OUT" ]]; then
    echo "FAIL: routed compile output differs from local output" >&2
    exit 1
  fi
  # An unauthenticated compile against a token-file daemon must exit 77.
  Rc=0; "$SMLTCC" --connect="tcp://$SHARD1" --expr 'fun main () = 1' \
    >/dev/null 2>&1 || Rc=$?
  if [[ "$Rc" != 77 ]]; then
    echo "FAIL: unauthenticated remote compile exited $Rc, expected 77" >&2
    exit 1
  fi
  # The shard's TCP port doubles as the Prometheus scrape endpoint, with
  # live per-tenant series.
  python3 - "$SHARD1" <<'PYEOF'
import socket, sys
host, port = sys.argv[1].rsplit(":", 1)
s = socket.create_connection((host, int(port)), timeout=5)
s.sendall(b"GET /metrics HTTP/1.1\r\nHost: check\r\n\r\n")
resp = b""
while chunk := s.recv(65536):
    resp += chunk
text = resp.decode()
assert text.startswith("HTTP/1.1 200"), text[:100]
assert "# TYPE smltcc_tenant_requests_total counter" in text
assert 'smltcc_tenant_requests_total{tenant="team-a"}' in text
assert 'smltcc_tenant_requests_total{tenant="team-b"}' in text
PYEOF
  "$SMLTCC" --connect="tcp://$ROUTER" --remote-shutdown
  wait "$ROUTER_PID"
  # A router whose own --token the shards refuse relays that refusal: the
  # client's compile exits 77, not 69.
  "$SMLTCC" --router --listen=127.0.0.1:0 --backends="$SHARD1,$SHARD2" \
    --token=wrong-token 2>"$FARM_LOG3" &
  ROUTER_PID=$!
  sleep 1
  ROUTER="$(sed -n 's#.*listening on ##p' "$FARM_LOG3")"
  [[ -n "$ROUTER" ]] || { echo "FAIL: wrong-token router did not bind" >&2; exit 1; }
  Rc=0; "$SMLTCC" --connect="tcp://$ROUTER" --expr 'fun main () = 1' \
    >/dev/null 2>&1 || Rc=$?
  if [[ "$Rc" != 77 ]]; then
    echo "FAIL: compile behind a wrong-token router exited $Rc, expected 77" >&2
    exit 1
  fi
  "$SMLTCC" --connect="tcp://$ROUTER" --remote-shutdown
  wait "$ROUTER_PID"
  "$SMLTCC" --connect="tcp://$SHARD1" --token=check-token-aaaa --remote-shutdown
  "$SMLTCC" --connect="tcp://$SHARD2" --token=check-token-aaaa --remote-shutdown
  wait "$SHARD1_PID" "$SHARD2_PID"
  trap - EXIT
  rm -f "$FARM_TOKENS" "$FARM_LOG1" "$FARM_LOG2" "$FARM_LOG3"
}

step_silent_peer() {
  python3 "$ROOT/tools/silent_peer_smoke.py" "$SMLTCC"
}

step_farm_flags() {
  Rc=0; "$SMLTCC" --daemon --listen=bogus >/dev/null 2>&1 || Rc=$?
  if [[ "$Rc" != 64 ]]; then
    echo "FAIL: --listen=bogus exited $Rc, expected usage error 64" >&2
    exit 1
  fi
  Rc=0; "$SMLTCC" --router --listen=127.0.0.1:0 --backends= >/dev/null 2>&1 || Rc=$?
  if [[ "$Rc" != 64 ]]; then
    echo "FAIL: empty --backends exited $Rc, expected usage error 64" >&2
    exit 1
  fi
  Rc=0; "$SMLTCC" --daemon --listen=127.0.0.1:0 \
    --token-file="/tmp/smltcc-no-such-tokens-$$" >/dev/null 2>&1 || Rc=$?
  if [[ "$Rc" != 66 ]]; then
    echo "FAIL: missing --token-file exited $Rc, expected 66" >&2
    exit 1
  fi
}

step_tracing() {
  TR_DIR="/tmp/smltcc-check-tracing-$$"
  mkdir -p "$TR_DIR"
  "$SMLTCC" --daemon --listen=127.0.0.1:0 --trace-json="$TR_DIR/shard1.json" \
    --log-level=info --log-file="$TR_DIR/shard1.jsonl" 2>"$TR_DIR/shard1.log" &
  TSHARD1_PID=$!
  "$SMLTCC" --daemon --listen=127.0.0.1:0 --trace-json="$TR_DIR/shard2.json" \
    2>"$TR_DIR/shard2.log" &
  TSHARD2_PID=$!
  trap 'kill "$TSHARD1_PID" "$TSHARD2_PID" 2>/dev/null || true; \
    rm -rf "$TR_DIR"' EXIT
  sleep 1
  TSHARD1="$(sed -n 's#.*listening on tcp://##p' "$TR_DIR/shard1.log")"
  TSHARD2="$(sed -n 's#.*listening on tcp://##p' "$TR_DIR/shard2.log")"
  [[ -n "$TSHARD1" && -n "$TSHARD2" ]] \
    || { echo "FAIL: tracing shards did not bind" >&2; exit 1; }
  "$SMLTCC" --router --listen=127.0.0.1:0 --backends="$TSHARD1,$TSHARD2" \
    --trace-json="$TR_DIR/router.json" 2>"$TR_DIR/router.log" &
  TROUTER_PID=$!
  trap 'kill "$TSHARD1_PID" "$TSHARD2_PID" "$TROUTER_PID" 2>/dev/null || true; \
    rm -rf "$TR_DIR"' EXIT
  sleep 1
  TROUTER="$(sed -n 's#.*listening on ##p' "$TR_DIR/router.log")"
  [[ -n "$TROUTER" ]] || { echo "FAIL: tracing router did not bind" >&2; exit 1; }
  "$SMLTCC" --connect="tcp://$TROUTER" --trace-json="$TR_DIR/client.json" \
    --expr 'fun main () = 191 * 7' | grep 'result = 1337' >/dev/null
  # SIGTERM rather than --remote-shutdown: the drain path must flush
  # every node's per-thread trace buffers on the way out.
  kill -TERM "$TROUTER_PID" "$TSHARD1_PID" "$TSHARD2_PID"
  wait "$TROUTER_PID" "$TSHARD1_PID" "$TSHARD2_PID" 2>/dev/null || true
  grep '"event":"drain_begin"' "$TR_DIR/shard1.jsonl" >/dev/null \
    || { echo "FAIL: structured log missing drain_begin" >&2; exit 1; }
  # One routed compile, four processes, ONE trace: the merged export must
  # carry a single trace id through client rpc -> router forward -> shard
  # request -> batch compile_job.
  "$ROOT/build/tools/merge_traces" --out="$ROOT/build/merged.json" \
    --require-single-trace \
    --require-span=rpc_compile --require-span=router_forward \
    --require-span=request --require-span=compile_job \
    "$TR_DIR/client.json" "$TR_DIR/router.json" \
    "$TR_DIR/shard1.json" "$TR_DIR/shard2.json"
  trap - EXIT
  rm -rf "$TR_DIR"
}

step_tsan() {
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DSMLTC_SANITIZE=thread
  cmake --build "$ROOT/build-tsan" -j"$JOBS" --target smltc_tests
  # The one list of suites run under TSan, shared with CI.
  "$ROOT/build-tsan/tests/smltc_tests" \
    --gtest_filter="$(cat "$ROOT/tests/tsan_filter.txt")"
}

step_asan() {
  cmake -B "$ROOT/build-asan" -S "$ROOT" -DSMLTC_SANITIZE=address
  cmake --build "$ROOT/build-asan" -j"$JOBS" --target smltc_tests
  ASAN_LOG="$ROOT/build-asan/asan-suite.log"
  "$ROOT/build-asan/tests/smltc_tests" 2>&1 | tee "$ASAN_LOG"
  # The compile stack's switches are annotated for ASan and avoid the
  # swapcontext it intercepts, so ASan must not warn about them.
  if grep -q 'makecontext/swapcontext' "$ASAN_LOG"; then
    echo "asan: warned about the compile stack's context switch" >&2
    exit 1
  fi
  # Generated code writes to the nursery itself: rerun the native tests
  # with modules built under ASan, into a fresh cache, so a write outside
  # the nursery is reported where it happens.
  ASAN_CACHE="$(mktemp -d)"
  trap 'rm -rf "$ASAN_CACHE"' EXIT
  SMLTCC_CC="cc -fsanitize=address" SMLTCC_NATIVE_CACHE="$ASAN_CACHE" \
    "$ROOT/build-asan/tests/smltc_tests" --gtest_filter='NativeBackend.*'
}

run_step "tier-1: ctest" step_ctest
run_step "smoke: exec_throughput (1 iteration, correctness gates)" step_exec_smoke
run_step "smoke: server_throughput (tier counters + 6x warm-disk gate)" step_server_smoke
run_step "smoke: compile-server CLI round trip" step_server_cli
run_step "smoke: observability (overhead gate + trace export)" step_observability
run_step "smoke: CPS optimizer CLI, default vs ablated rules" step_cps_opt_cli
run_step "smoke: native_throughput (bit-identical AOT + 3x exec gate)" step_native_smoke
run_step "smoke: native CLI vs VM CLI" step_native_cli
run_step "benchmark: ledger self-tests (counts, seeds, replica, metric names)" step_ledger_tests
run_step "smoke: compile_throughput (front-end gate + prelude byte identity)" step_compile_smoke
run_step "smoke: prelude snapshot CLI vs inline oracle" step_prelude_cli
run_step "smoke: strict CLI option validation (exit 64 on unknown values)" step_cli_validation
run_step "smoke: farm_throughput (router identity + scaling + overload gates)" step_farm_smoke
run_step "smoke: farm CLI (2 shard daemons + router on loopback)" step_farm_cli
run_step "smoke: --connect gives up on a peer that never answers" step_silent_peer
run_step "smoke: strict farm flag validation" step_farm_flags
run_step "smoke: distributed tracing (4 nodes, SIGTERM drain, merged trace)" step_tracing
if [[ "$RUN_TSAN" == 1 ]]; then
  run_step "tsan: batch engine + compile server race check" step_tsan
fi
if [[ "$RUN_ASAN" == 1 ]]; then
  run_step "asan: full suite under AddressSanitizer" step_asan
fi

if [[ "${#FAILED[@]}" != 0 ]]; then
  echo "== check.sh: ${#FAILED[@]} step(s) failed ==" >&2
  printf '  %s\n' "${FAILED[@]}" >&2
  exit 1
fi
echo "== check.sh: all green =="
