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
# persistent-store cold -> warm tests (pooled, on transmon-grid and
# heavy-hex), the pinned Table-I outputs, the concurrent-compile
# determinism check and the 4-core compile-overlap gate.
cargo test -q --workspace

echo "== cargo test --release -q --workspace =="
# The same suite at the optimisation level every shipped binary and the
# benchmark build with. The bit-identity oracles (paqoc-math's kernels,
# the estimator, GRAPE, the search and Durand–Kerner) must hold on the
# code that is measured, not only at the test profile's opt-level 2.
cargo test --release -q --workspace

echo "== kernel-probe overhead gate (quick suite, probes on vs off) =="
cargo run --release -p paqoc-bench --bin probe_overhead

echo "== report hotspots / flame smoke over a kernel-probed trace =="
# A quick analytic batch compile still drives the mathkit kernels (the
# Weyl-invariant matmuls and eigensolves inside the latency model), so
# the trace must yield a non-empty hotspot ranking and folded stacks.
# PAQOC_TRACE arms the probes; the mathkit.matmul grep proves they fired.
PAQOC_TRACE=target/verify_kernels.jsonl \
    cargo run --release -p paqoc-bench --bin profile -- bv m0 --batch > /dev/null
cargo run --release -p paqoc-bench --bin report -- hotspots \
    target/verify_kernels.jsonl | tee target/verify_hotspots.txt
grep -q "mathkit.matmul" target/verify_hotspots.txt
grep -q "mathkit.eig" target/verify_hotspots.txt
cargo run --release -p paqoc-bench --bin report -- flame \
    target/verify_kernels.jsonl > target/verify_flame.txt
grep -q "mathkit.matmul" target/verify_flame.txt
echo "kernel trace smoke OK"

echo "== report workers / jobs / phases smoke over the same batch trace =="
# The batch compile above journals exec.worker and exec.job events under
# exec.batch and exec.worker spans; each report must find them, so the
# event fields the executor writes and the report that reads them cannot
# drift apart. `workers` derives its stall count from the exec.job
# events, so the stall line proves that path runs. `phases` must also
# list the search's own spans, which split the generate phase.
cargo run --release -p paqoc-bench --bin report -- workers \
    target/verify_kernels.jsonl | tee target/verify_workers.txt
grep -q "busy_ms" target/verify_workers.txt
grep -q "^stalls flagged: [0-9]" target/verify_workers.txt
cargo run --release -p paqoc-bench --bin report -- jobs \
    target/verify_kernels.jsonl | tee target/verify_jobs.txt
grep -q "generated" target/verify_jobs.txt
cargo run --release -p paqoc-bench --bin report -- phases \
    target/verify_kernels.jsonl | tee target/verify_phases.txt
grep -q "exec.batch" target/verify_phases.txt
grep -q "search.preprocess" target/verify_phases.txt
# A baseline diff reads a second trace through the same loader; the
# trace against itself must print the baseline columns.
cargo run --release -p paqoc-bench --bin report -- hotspots \
    target/verify_kernels.jsonl --baseline target/verify_kernels.jsonl \
    | tee target/verify_hotspots_baseline.txt
grep -q "base_ms" target/verify_hotspots_baseline.txt
echo "batch trace report smoke OK"

echo "== report ledger over the committed ledger =="
# The ledger reader parses BENCH_perf.json with paqoc_telemetry::json and
# exits non-zero on a malformed ledger; one known row must print with
# its medians.
cargo run --release -p paqoc-bench --bin report -- ledger BENCH_perf.json \
    --entry "PR 23" | tee target/verify_ledger.txt
grep -Eq "^grape-small +job_s_total +1\.13193 +1\.14961 " target/verify_ledger.txt
echo "ledger reader smoke OK"

echo "== Chrome-trace export: written for Perfetto, refused by report =="
# A .json PAQOC_TRACE path writes the Chrome-trace export. report reads
# JSONL only, so it must exit non-zero and say how to record a JSONL
# trace instead of misreading the export.
rm -f target/verify_kernels.json
PAQOC_TRACE=target/verify_kernels.json \
    cargo run --release -p paqoc-bench --bin profile -- bv m0 --batch > /dev/null
[ -s target/verify_kernels.json ]
if cargo run --release -q -p paqoc-bench --bin report -- phases \
    target/verify_kernels.json 2> target/verify_chrome_refused.txt; then
    echo "report read a Chrome export" >&2
    exit 1
fi
grep -q "PAQOC_TRACE=<path>.jsonl" target/verify_chrome_refused.txt
echo "Chrome export smoke OK"

echo "== OpenPulse export smoke: one benchmark per backend, reimport-checked =="
# The exporter re-imports its own output and diffs sample-by-sample, so
# a pass here certifies the wire format end to end on every backend.
cargo build --release -p paqoc-backend
for BK in transmon-grid heavy-hex tunable-coupler; do
    ./target/release/paqoc-export mod5d2_64 --backend "$BK" \
        --reimport-check --out "target/verify_export_$BK.json"
done
echo "export smoke OK"

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
# store, whose pulses are found by canonical-code keys. Every step over
# the package is `--locked`: a dependency added to a workspace crate
# must fail here, not rewrite perf/Cargo.lock on the next benchmark run.
cargo test -q --offline --locked --manifest-path perf/Cargo.toml
cargo run --release --quiet --offline --locked --manifest-path perf/Cargo.toml -- \
    --workload table1-minf --seconds 5 > target/verify_perf_table1.txt
cargo run --release --quiet --offline --locked --manifest-path perf/Cargo.toml -- \
    --workload grape-small --seconds 5 > target/verify_perf_grape.txt
cargo run --release --quiet --offline --locked --manifest-path perf/Cargo.toml -- \
    --workload serve-m0 --seconds 5 > target/verify_perf_serve.txt
echo "paqoc-perf oracle OK"

echo "== cargo clippy -D warnings (workspace and benchmark package) =="
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --offline --locked --manifest-path perf/Cargo.toml --all-targets -- -D warnings

echo "== cargo doc -D warnings (workspace doc links) =="
# A dangling or ambiguous intra-doc link fails here instead of rotting
# silently in the rendered docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo fmt --check (workspace and benchmark package) =="
cargo fmt --check
cargo fmt --check --manifest-path perf/Cargo.toml

echo "== non-test lines per crate (information, not a gate) =="
./scripts/loc.sh

echo "verify: OK"
