#!/usr/bin/env bash
# Tier-1 gate: the workspace must build and test OFFLINE with an empty
# registry cache (zero external dependencies), and stay rustfmt-clean.
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

# dse-ml keeps exactly one tanh, its `tanh` module's port of libm's:
# only that module's reference test may call the host's own. It also
# keeps one multiversion site: only its `isa` module may build code for
# CPU features chosen at run time.
echo "== dse-ml calls no libm tanh =="
if grep -rnE '\.tanh\(|f64::tanh' crates/ml/src --include='*.rs' \
    | grep -v '^crates/ml/src/tanh/tests.rs:' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
  echo "crates/ml/src calls libm's tanh outside crates/ml/src/tanh/tests.rs"
  exit 1
fi
if grep -rn '#\[target_feature' crates/ml/src --include='*.rs' \
    | grep -v '^crates/ml/src/isa.rs:'; then
  echo "crates/ml/src uses #[target_feature outside crates/ml/src/isa.rs"
  exit 1
fi

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

# The root `cargo test` runs only the root package, so the simulator
# crate's unit tests (select path, sanitizer, caches, predictors) get
# their one pass here, sanitized.
echo "== ARCHDSE_SANITIZE=1 sim unit tests =="
ARCHDSE_SANITIZE=1 cargo test -q --offline -p dse-sim

# The idle skip against every-cycle stepping, bit for bit: the debug pass
# above checks short traces; a release build checks the full-length
# (30k-instruction) traces of all eight `sweep` programs, sanitized, on
# sampled configs and on the largest legal in-flight window.
echo "== ARCHDSE_SANITIZE=1 idle skip vs stepping, full-length sweep traces =="
ARCHDSE_SANITIZE=1 cargo test -q --release --offline -p dse-sim --lib -- \
  idle_skip_matches_every_cycle_stepping_on_built_in_programs \
  largest_legal_window_matches_every_cycle_stepping

# The JSON layer (reader, tree, writer), the design space (config
# field table and legal-value check) and the observability layer
# (registry, trace recorder, flame table, log levels) have only unit
# tests; the root `cargo test` never reaches them.
echo "== util, space and obs unit tests =="
cargo test -q --offline -p dse-util -p dse-space -p dse-obs

# The remaining library crates' unit, doc and crate-level tests — the
# MLP training pin, the leave-one-out determinism checks, the explorer,
# ingest, workload, RNG and experiment-knob parsers — are out of the
# root `cargo test`'s reach too. Release build: they train real ANNs.
echo "== ml, core, explore, ingest, workload, rng and bench unit tests =="
cargo test -q --release --offline -p dse-ml -p dse-core -p dse-explore \
  -p dse-ingest -p dse-workload -p dse-rng -p dse-bench

# The tanh port is checked against the host's libm only where glibc
# resolved its FMA build. Mask FMA and AVX2 from glibc so the non-FMA
# build is resolved on any host: the reference test must then skip, not
# fail, and every other dse-ml test must still pass.
echo "== dse-ml tests under glibc.cpu.hwcaps=-AVX2,-FMA =="
GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA \
  cargo test -q --release --offline -p dse-ml

# The root `cargo test` runs only the root package, so the serve crate's
# unit tests and HTTP/event-loop suites get their one pass here,
# sanitized.
echo "== ARCHDSE_SANITIZE=1 serve suites =="
ARCHDSE_SANITIZE=1 cargo test -q --offline -p dse-serve

# The benchmark package (its own workspace under benchmark/) builds
# against the crates by path: build it against this tree and run its
# smoke tests (all four workloads at smoke sizes, bit-equality checks,
# compare rules and pins).
echo "== benchmark smoke tests =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Observability: `train --obs json` must emit trace-recorder JSONL that
# `obs report` can parse back, and so must a served request's flight
# dump. (The recorder is always on, so the default test pass already
# runs with it.) Skip with DSE_OBS_SKIP=1.
if [ "${DSE_OBS_SKIP:-0}" = "1" ]; then
  echo "== obs gate skipped (DSE_OBS_SKIP=1) =="
else
  echo "== obs smoke: train --obs json | obs report =="
  OBS_DIR="$(mktemp -d)"
  trap 'rm -rf "$OBS_DIR"' EXIT
  cargo run --release --offline -q -- train \
    --out "$OBS_DIR/models" --benchmarks 2 --configs 8 --t 6 \
    --obs json 2>"$OBS_DIR/train.log" >"$OBS_DIR/spans.jsonl"
  [ -s "$OBS_DIR/spans.jsonl" ] || { echo "train --obs json emitted no spans"; exit 1; }
  cargo run --release --offline -q -- obs report "$OBS_DIR/spans.jsonl" \
    2>"$OBS_DIR/report.err"
  [ ! -s "$OBS_DIR/report.err" ] || { echo "obs report rejected span log lines"; cat "$OBS_DIR/report.err"; exit 1; }

  # Profiler smoke: one pass must print the stall report and the
  # per-stage host-time attribution with its machine-readable line.
  # (Output goes to a file first — the CLI binaries die on SIGPIPE, so
  # never pipe their stdout into grep -q.)
  echo "== obs smoke: simulate --profile --profile-stages =="
  cargo run --release --offline -q -- simulate gzip --profile --profile-stages \
    >"$OBS_DIR/stages.txt"
  grep -q "^commit:   progress" "$OBS_DIR/stages.txt" \
    || { echo "stall report missing"; cat "$OBS_DIR/stages.txt"; exit 1; }
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
  # The flight dump is the same record format `obs report` reads.
  cargo run --release --offline -q -- obs report "$OBS_DIR/flight.jsonl" \
    2>"$OBS_DIR/report.err"
  [ ! -s "$OBS_DIR/report.err" ] || { echo "obs report rejected flight dump lines"; cat "$OBS_DIR/report.err"; exit 1; }
  cargo run --release --offline -q -- client "$ADDR" shutdown
  wait "$OBS_SERVE_PID"
  OBS_SERVE_PID=""

  rm -rf "$OBS_DIR"
  trap - EXIT
  echo "== obs smoke passed =="
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
