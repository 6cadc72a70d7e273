#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, formatting.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q --workspace =="
# Every crate's unit and integration tests, not only the root package's:
# the crates hold the search's acceptance oracles, the latency-model
# properties, and the store's corruption-injection and cross-process
# contention (SIGKILL recovery) suites; the root package holds the
# persistent-store cold -> warm tests.
cargo test -q --workspace

echo "== bench --quick --check =="
cargo run --release -p paqoc-bench --bin bench -- --quick --check \
    --out target/BENCH_pipeline_quick.json

echo "== report compare: quick run vs committed baseline =="
# Hard-gates the deterministic columns (counts, ESP, latency) of the
# quick subset against the repo-root baseline; wall times are
# informational only (--counts-only). Regenerate the baseline with:
#   cargo run --release -p paqoc-bench --bin bench -- --check
cargo run --release -p paqoc-bench --bin report -- compare \
    target/BENCH_pipeline_quick.json BENCH_pipeline.json --counts-only

echo "== bench cold -> warm against a fresh pulse store =="
PULSE_DB="target/verify_pulse_store.db"
rm -f "$PULSE_DB" "$PULSE_DB.lock"
cargo run --release -p paqoc-bench --bin bench -- --quick \
    --out target/BENCH_pipeline_cold.json --pulse-db "$PULSE_DB"
cargo run --release -p paqoc-bench --bin bench -- --quick --check \
    --out target/BENCH_pipeline_warm.json --pulse-db "$PULSE_DB" --expect-warm

echo "== paqoc-store verify on the cold->warm store =="
cargo run --release -p paqoc-store --bin paqoc-store -- verify "$PULSE_DB"

echo "== executor determinism: 1-thread vs 4-thread stable dumps must be byte-identical =="
# No --pulse-db here: a pooled store lets concurrent compiles trade
# permutation-equivalent entries, which is legal cache reuse but
# schedule-dependent; the determinism contract is per-table.
PAQOC_THREADS=1 cargo run --release -p paqoc-bench --bin bench -- --quick \
    --out target/BENCH_pipeline_t1.json --stable-dump target/BENCH_stable_t1.json
PAQOC_THREADS=4 cargo run --release -p paqoc-bench --bin bench -- --quick --check \
    --out target/BENCH_pipeline_t4.json --stable-dump target/BENCH_stable_t4.json
cmp target/BENCH_stable_t1.json target/BENCH_stable_t4.json
echo "stable dumps identical"

# The wall-clock speedup gate only means something with real cores
# under it; CI containers with 1-2 CPUs run the determinism half only.
if [ "$(nproc)" -ge 4 ]; then
    echo "== executor speedup gate (>= 2x overlap on $(nproc) cores) =="
    cargo run --release -p paqoc-bench --bin bench -- \
        --out target/BENCH_pipeline_speedup.json --threads 4 --min-speedup 2.0
else
    echo "== executor speedup gate skipped ($(nproc) core(s) < 4) =="
fi

echo "== kernel-probe overhead gate (quick suite, probes on vs off) =="
cargo run --release -p paqoc-bench --bin probe_overhead

echo "== report hotspots / flame smoke over a kernel-probed trace =="
# A quick analytic batch compile still drives the mathkit kernels (the
# Weyl-invariant matmuls and eigensolves inside the latency model), so
# the trace must yield a non-empty hotspot ranking and folded stacks.
PAQOC_TRACE=target/verify_kernels.jsonl PAQOC_KERNEL_PROBES=1 \
    cargo run --release -p paqoc-bench --bin profile -- bv m0 --batch > /dev/null
cargo run --release -p paqoc-bench --bin report -- hotspots \
    target/verify_kernels.jsonl | tee target/verify_hotspots.txt
grep -q "mathkit.matmul" target/verify_hotspots.txt
grep -q "mathkit.eig" target/verify_hotspots.txt
cargo run --release -p paqoc-bench --bin report -- flame \
    target/verify_kernels.jsonl > target/verify_flame.txt
grep -q "mathkit.matmul" target/verify_flame.txt
echo "kernel trace smoke OK"

echo "== OpenPulse export smoke: one benchmark per backend, reimport-checked =="
# The exporter re-imports its own output and diffs sample-by-sample, so
# a pass here certifies the wire format end to end on every backend.
cargo build --release -p paqoc-backend
for BK in transmon-grid heavy-hex tunable-coupler; do
    ./target/release/paqoc-export mod5d2_64 --backend "$BK" \
        --reimport-check --out "target/verify_export_$BK.json"
done
echo "export smoke OK"

echo "== heavy-hex bench cold -> warm against a fresh namespaced store =="
# Same cold->warm contract as transmon-grid above, but through the
# namespaced (0xB5-tagged) fingerprint path of a snapshot backend.
HH_DB="target/verify_hh_store.db"
rm -f "$HH_DB" "$HH_DB.lock"
cargo run --release -p paqoc-bench --bin bench -- --quick \
    --backend heavy-hex --out target/BENCH_hh_cold.json --pulse-db "$HH_DB"
cargo run --release -p paqoc-bench --bin bench -- --quick \
    --backend heavy-hex --out target/BENCH_hh_warm.json --pulse-db "$HH_DB" \
    --expect-warm
cargo run --release -p paqoc-store --bin paqoc-store -- verify "$HH_DB"

echo "== paqoc-serve smoke: UDS daemon, replay load, shed + drain gates =="
# A resident daemon on a unix socket with a deliberately tiny queue and
# an injected per-pulse stall: the replay must see real answers AND real
# sheds, p99 must stay sane, SIGTERM must drain to exit 0, and the
# synced store must pass the paqoc-store verifier. The root release
# build does not build dependency-crate binaries, so build them here.
cargo build --release -p paqoc-serve
SERVE_SOCK="target/verify_serve.sock"
SERVE_DB="target/verify_serve_store.db"
SERVE_LOG="target/verify_serve.log"
rm -f "$SERVE_SOCK" "$SERVE_DB" "$SERVE_DB.lock"
./target/release/paqoc-serve \
    --uds "$SERVE_SOCK" --pulse-db "$SERVE_DB" --workers 2 \
    --queue-cap 2 --tenant-cap 2 --chaos-stall-ms 10 > "$SERVE_LOG" &
SERVE_PID=$!
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
[ -S "$SERVE_SOCK" ]
./target/release/paqoc-load "unix:$SERVE_SOCK" replay \
    --requests 48 --concurrency 8 --tenants 3 \
    --expect-answers --expect-sheds --max-p99-ms 60000
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
grep -q '"event":"drained"' "$SERVE_LOG"
cargo run --release -p paqoc-store --bin paqoc-store -- verify "$SERVE_DB"
echo "serve smoke OK"

echo "== paqoc-perf: unit tests + short table1-minf, grape-small and serve-m0 oracle runs =="
# The benchmark package is its own workspace, so the root `cargo test`
# never builds it. A table1-minf run compiles all 17 Table-I programs
# and exits non-zero unless every output is bit-exact against
# perf/expected/. A grape-small run does the same for compiles whose
# pulses come from real GRAPE, so it checks the optimizer's outputs bit
# for bit. A serve-m0 run does the same for replies served from a warm
# store, whose pulses are found by canonical-code keys.
cargo test -q --offline --manifest-path perf/Cargo.toml
cargo run --release --quiet --offline --manifest-path perf/Cargo.toml -- \
    --workload table1-minf --seconds 5 > target/verify_perf_table1.txt
cargo run --release --quiet --offline --manifest-path perf/Cargo.toml -- \
    --workload grape-small --seconds 5 > target/verify_perf_grape.txt
cargo run --release --quiet --offline --manifest-path perf/Cargo.toml -- \
    --workload serve-m0 --seconds 5 > target/verify_perf_serve.txt
echo "paqoc-perf oracle OK"

echo "== cargo clippy -D warnings (workspace and benchmark package) =="
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --offline --manifest-path perf/Cargo.toml --all-targets -- -D warnings

echo "== cargo doc -D warnings (workspace doc links) =="
# A dangling or ambiguous intra-doc link fails here instead of rotting
# silently in the rendered docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo fmt --check (workspace and benchmark package) =="
cargo fmt --check
cargo fmt --check --manifest-path perf/Cargo.toml

echo "verify: OK"
