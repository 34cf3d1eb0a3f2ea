#!/usr/bin/env bash
# Tier-1 gate: the workspace must build and test OFFLINE with an empty
# registry cache (zero external dependencies), and stay rustfmt-clean.
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline =="
cargo test -q --offline

# The default test pass already sanitizes (debug builds default the
# sanitizer on), but run once with the flag forced so the env-var path
# itself can't bit-rot.
echo "== ARCHDSE_SANITIZE=1 cargo test -q --offline =="
ARCHDSE_SANITIZE=1 cargo test -q --offline

# The explorer's ground-truth simulations must stay sanitizable: force
# the checker over the frontier/determinism suites (the determinism one
# also pins byte-identity across thread settings under sanitize).
echo "== ARCHDSE_SANITIZE=1 explore suites =="
ARCHDSE_SANITIZE=1 cargo test -q --offline \
  --test explore_frontier --test explore_determinism

# The serve front end has two pollers (epoll, with a poll(2) fallback);
# the default test pass exercises epoll, so rerun the serve suites with
# the fallback forced — sanitized, so the event loop stays checkable on
# both paths.
echo "== ARCHDSE_SANITIZE=1 DSE_SERVE_POLL=1 serve suites =="
ARCHDSE_SANITIZE=1 DSE_SERVE_POLL=1 cargo test -q --offline -p dse-serve

# Observability: the test pass must also hold with spans/metrics forced
# on (golden_sim pins bit-identity either way), and `train --obs json`
# must emit span JSONL that `obs report` can parse back. Skip with
# DSE_OBS_SKIP=1.
if [ "${DSE_OBS_SKIP:-0}" = "1" ]; then
  echo "== obs gate skipped (DSE_OBS_SKIP=1) =="
else
  echo "== ARCHDSE_OBS=1 cargo test -q --offline =="
  ARCHDSE_OBS=1 cargo test -q --offline
  echo "== obs smoke: train --obs json | obs report =="
  OBS_DIR="$(mktemp -d)"
  trap 'rm -rf "$OBS_DIR"' EXIT
  cargo run --release --offline -q -- train \
    --out "$OBS_DIR/models" --benchmarks 2 --configs 8 --t 6 \
    --obs json 2>"$OBS_DIR/train.log" >"$OBS_DIR/spans.jsonl"
  [ -s "$OBS_DIR/spans.jsonl" ] || { echo "train --obs json emitted no spans"; exit 1; }
  cargo run --release --offline -q -- obs report "$OBS_DIR/spans.jsonl"

  # Stage profiler smoke: the per-stage host-time attribution must emit
  # its machine-readable line. (Output goes to a file first — the CLI
  # binaries die on SIGPIPE, so never pipe their stdout into grep -q.)
  echo "== obs smoke: simulate --profile-stages =="
  cargo run --release --offline -q -- simulate gzip --profile-stages \
    >"$OBS_DIR/stages.txt"
  grep -q "stageprof-json:" "$OBS_DIR/stages.txt" \
    || { echo "stage profile missing machine-readable line"; cat "$OBS_DIR/stages.txt"; exit 1; }
  grep -q '"issue"' "$OBS_DIR/stages.txt" \
    || { echo "stage profile missing issue bucket"; exit 1; }

  # Flight-recorder smoke: serve the obs-gate's tiny models, make one
  # predict, and follow its request id from the response header into the
  # recorder's event chain via GET /v1/obs/flight.
  echo "== obs smoke: serve -> predict request id -> flight recorder =="
  cargo run --release --offline -q -- serve \
    --models "$OBS_DIR/models" --addr 127.0.0.1:0 >"$OBS_DIR/serve.log" 2>&1 &
  OBS_SERVE_PID=$!
  trap 'rm -rf "$OBS_DIR"; kill "$OBS_SERVE_PID" 2>/dev/null || true' EXIT
  ADDR=""
  for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$OBS_DIR/serve.log" | head -1)"
    [ -n "$ADDR" ] && break
    kill -0 "$OBS_SERVE_PID" 2>/dev/null || { cat "$OBS_DIR/serve.log"; exit 1; }
    sleep 0.2
  done
  [ -n "$ADDR" ] || { echo "server never reported its address"; cat "$OBS_DIR/serve.log"; exit 1; }
  cargo run --release --offline -q -- client "$ADDR" fit gzip cycles r=8
  cargo run --release --offline -q -- client "$ADDR" predict gzip cycles \
    >"$OBS_DIR/predict.json"
  REQ_ID="$(sed -n 's/.*"request_id":\([0-9]*\).*/\1/p' "$OBS_DIR/predict.json" | head -1)"
  [ -n "$REQ_ID" ] && [ "$REQ_ID" -gt 0 ] \
    || { echo "predict response carried no request id"; cat "$OBS_DIR/predict.json"; exit 1; }
  cargo run --release --offline -q -- client "$ADDR" flight "$REQ_ID" \
    >"$OBS_DIR/flight.jsonl"
  for kind in reactor.dispatch worker.start registry.predict worker.done; do
    grep -q "\"kind\":\"$kind\"" "$OBS_DIR/flight.jsonl" \
      || { echo "flight dump for request $REQ_ID missing $kind"; cat "$OBS_DIR/flight.jsonl"; exit 1; }
  done
  cargo run --release --offline -q -- client "$ADDR" shutdown
  wait "$OBS_SERVE_PID"
  OBS_SERVE_PID=""

  rm -rf "$OBS_DIR"
  trap - EXIT
  echo "== obs smoke passed =="
fi

# Perf gate: quick bench run compared against the committed baseline
# (BENCH_sim.json); a >25% regression of any row's min iteration fails the build.
# Constrained or noisy runners can skip it with DSE_BENCH_SKIP=1.
if [ "${DSE_BENCH_SKIP:-0}" = "1" ]; then
  echo "== bench gate skipped (DSE_BENCH_SKIP=1) =="
else
  echo "== DSE_QUICK=1 bench_sim vs BENCH_sim.json (>25% min-iteration regression fails) =="
  DSE_QUICK=1 DSE_BENCH_BASELINE=BENCH_sim.json \
    cargo run --release --offline -q -p dse-bench --bin bench_sim
fi

# Load gate: quick bench_load run (in-process server on an ephemeral
# port, short closed-loop/open-loop/batched rounds) compared against the
# committed BENCH_serve.json; a >50% regression of any row's min iteration fails
# the build. Skip on constrained or noisy runners with DSE_LOAD_SKIP=1.
if [ "${DSE_LOAD_SKIP:-0}" = "1" ]; then
  echo "== load gate skipped (DSE_LOAD_SKIP=1) =="
else
  echo "== DSE_QUICK=1 bench_load vs BENCH_serve.json (>50% min-iteration regression fails) =="
  DSE_QUICK=1 DSE_BENCH_BASELINE=BENCH_serve.json \
    cargo run --release --offline -q -p dse-bench --bin bench_load
fi

# Serve smoke: train tiny artifacts, start the HTTP server on an
# ephemeral port, drive /healthz, /v1/fit and /v1/predict through the
# in-repo client, then shut it down cleanly. Skip with DSE_SERVE_SKIP=1.
if [ "${DSE_SERVE_SKIP:-0}" = "1" ]; then
  echo "== serve smoke skipped (DSE_SERVE_SKIP=1) =="
else
  echo "== serve smoke: train -> serve -> client fit/predict -> shutdown =="
  SMOKE_DIR="$(mktemp -d)"
  trap 'rm -rf "$SMOKE_DIR"; [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT
  cargo run --release --offline -q -- train \
    --out "$SMOKE_DIR/models" --benchmarks 3 --configs 40 --t 30
  cargo run --release --offline -q -- serve \
    --models "$SMOKE_DIR/models" --addr 127.0.0.1:0 >"$SMOKE_DIR/serve.log" 2>&1 &
  SERVE_PID=$!
  ADDR=""
  for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$SMOKE_DIR/serve.log" | head -1)"
    [ -n "$ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$SMOKE_DIR/serve.log"; exit 1; }
    sleep 0.2
  done
  [ -n "$ADDR" ] || { echo "server never reported its address"; cat "$SMOKE_DIR/serve.log"; exit 1; }
  cargo run --release --offline -q -- client "$ADDR" health
  cargo run --release --offline -q -- client "$ADDR" fit gzip cycles r=32
  cargo run --release --offline -q -- client "$ADDR" predict gzip cycles
  cargo run --release --offline -q -- client "$ADDR" shutdown
  wait "$SERVE_PID"
  SERVE_PID=""
  echo "== serve smoke passed =="
fi

# Explore smoke: train two-metric artifacts, run a tiny-budget frontier
# search through the CLI, and validate the written frontier JSON. Skip
# with DSE_EXPLORE_SKIP=1.
if [ "${DSE_EXPLORE_SKIP:-0}" = "1" ]; then
  echo "== explore smoke skipped (DSE_EXPLORE_SKIP=1) =="
else
  echo "== explore smoke: train -> explore -> validate frontier JSON =="
  EXPLORE_DIR="$(mktemp -d)"
  trap 'rm -rf "$EXPLORE_DIR"' EXIT
  cargo run --release --offline -q -- train \
    --out "$EXPLORE_DIR/models" --benchmarks 3 --configs 40 --t 30 \
    --metrics cycles,energy
  cargo run --release --offline -q -- explore gzip \
    --models "$EXPLORE_DIR/models" --objective cycles,energy \
    --rounds 2 --candidates 24 --sims 3 --archive 8 --r 8 \
    --out "$EXPLORE_DIR/results"
  FRONTIER="$EXPLORE_DIR/results/frontier-gzip-cycles-energy.json"
  [ -s "$FRONTIER" ] || { echo "explore wrote no frontier"; exit 1; }
  grep -q '"version":1' "$FRONTIER" || { echo "bad frontier version"; exit 1; }
  grep -q '"points":\[{' "$FRONTIER" || { echo "frontier has no points"; exit 1; }
  grep -q '"sim_calls":' "$FRONTIER" || { echo "frontier lacks cost accounting"; exit 1; }
  rm -rf "$EXPLORE_DIR"
  trap - EXIT
  echo "== explore smoke passed =="
fi

# Ingest smoke: fuzz a workload, export→import it through the
# interchange format, import a raw trace, train artifacts that include
# the imported store, serve them, and fit/predict the external program
# over HTTP — the full front-door path on programs that exist in no
# built-in suite. A co-run simulate runs sanitized, twice with different
# thread settings, and must be byte-identical. Skip with
# DSE_INGEST_SKIP=1.
if [ "${DSE_INGEST_SKIP:-0}" = "1" ]; then
  echo "== ingest smoke skipped (DSE_INGEST_SKIP=1) =="
else
  echo "== ingest smoke: synth -> import -> train -> serve -> predict =="
  INGEST_DIR="$(mktemp -d)"
  trap 'rm -rf "$INGEST_DIR"; [ -n "${INGEST_PID:-}" ] && kill "$INGEST_PID" 2>/dev/null || true' EXIT
  # Fuzzer smoke: a pinned seed emits interchange documents on stdout.
  cargo run --release --offline -q -- workload synth --seed 9 --count 2 \
    >"$INGEST_DIR/synth.ndjson"
  [ "$(wc -l <"$INGEST_DIR/synth.ndjson")" = "2" ] || { echo "synth emitted wrong count"; exit 1; }
  # Export → import: the first synthesized document goes through a file
  # into a fresh store, alongside a raw instruction trace.
  head -1 "$INGEST_DIR/synth.ndjson" >"$INGEST_DIR/ext.json"
  cargo run --release --offline -q -- workload import "$INGEST_DIR/ext.json" \
    --workloads "$INGEST_DIR/wl"
  printf '#archdse-trace v1 name=ci-trace seed=4\nL 400 1000\nA 404\nB 408 T\nL 400 1040\nA 404\nB 408 N\n' \
    >"$INGEST_DIR/ci.trace"
  cargo run --release --offline -q -- workload import "$INGEST_DIR/ci.trace" \
    --workloads "$INGEST_DIR/wl"
  cargo run --release --offline -q -- workload list --workloads "$INGEST_DIR/wl" \
    >"$INGEST_DIR/list.txt"
  grep -q "synth-9-0" "$INGEST_DIR/list.txt" \
    || { echo "imported workload missing from list"; exit 1; }
  # Train on 3 builtins + the imported store, serve, and fit/predict the
  # synthesized program end to end.
  cargo run --release --offline -q -- train \
    --out "$INGEST_DIR/models" --benchmarks 3 --configs 40 --t 30 \
    --workloads "$INGEST_DIR/wl"
  cargo run --release --offline -q -- serve \
    --models "$INGEST_DIR/models" --workloads "$INGEST_DIR/wl" \
    --addr 127.0.0.1:0 >"$INGEST_DIR/serve.log" 2>&1 &
  INGEST_PID=$!
  ADDR=""
  for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$INGEST_DIR/serve.log" | head -1)"
    [ -n "$ADDR" ] && break
    kill -0 "$INGEST_PID" 2>/dev/null || { cat "$INGEST_DIR/serve.log"; exit 1; }
    sleep 0.2
  done
  [ -n "$ADDR" ] || { echo "server never reported its address"; cat "$INGEST_DIR/serve.log"; exit 1; }
  cargo run --release --offline -q -- client "$ADDR" workloads \
    >"$INGEST_DIR/workloads.json"
  grep -q '"imported":2' "$INGEST_DIR/workloads.json" \
    || { echo "server does not list the imported store"; exit 1; }
  cargo run --release --offline -q -- client "$ADDR" fit synth-9-0 cycles r=16 \
    workloads="$INGEST_DIR/wl"
  cargo run --release --offline -q -- client "$ADDR" predict synth-9-0 cycles
  cargo run --release --offline -q -- client "$ADDR" shutdown
  wait "$INGEST_PID"
  INGEST_PID=""
  # Co-run smoke: sanitized, and byte-identical across thread settings
  # (the co-run passes run serially).
  ARCHDSE_SANITIZE=1 cargo run --release --offline -q -- \
    simulate gzip --corun mcf --sanitize >"$INGEST_DIR/corun1.txt"
  ARCHDSE_SANITIZE=1 ARCHDSE_THREADS=3 cargo run --release --offline -q -- \
    simulate gzip --corun mcf --sanitize >"$INGEST_DIR/corun2.txt"
  cmp "$INGEST_DIR/corun1.txt" "$INGEST_DIR/corun2.txt" \
    || { echo "co-run output depends on thread settings"; exit 1; }
  rm -rf "$INGEST_DIR"
  trap - EXIT
  echo "== ingest smoke passed =="
fi

echo "tier-1 gate passed"
