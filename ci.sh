#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, build, and the full test suite.
# Everything here must pass before a change lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> lint example smoke-run"
# The example lints a seeded wiring mistake (structured IN-L* rule ids)
# and prints the abstract field-effect table for the fixed config.
# (capture first: grep -q would close the pipe mid-print)
lint_out="$(cargo run --release -q -p innet-examples --bin lint)"
grep -q "IN-L" <<<"$lint_out"

echo "==> metrics example smoke-run"
# The example asserts the zero-silent-drops invariant
# (packets == delivered + buffered + drops-by-reason) and exercises
# both snapshot export formats end to end.
cargo run --release -q -p innet-examples --bin metrics \
  | grep -q "invariant holds: no silent packet loss"

echo "==> deploy_storm example smoke-run"
# A fleet of alpha-renamed tenants deploys one stock chain: every
# admission after the first must replay the memoized chain summary
# (the marker line proves the compositional path actually ran).
# (capture first: grep -q would close the pipe mid-print)
storm_out="$(cargo run --release -q -p innet-examples --bin deploy_storm)"
grep -qE "summary cache: [1-9][0-9]* hits" <<<"$storm_out"
grep -q "speedup:" <<<"$storm_out"

echo "==> fleet example smoke-run"
# The example builds a multi-host fleet over a generated capacitated
# topology, deploys through ranked placement, and rebalances load via
# live migration — the marker proves a migration actually completed.
# (capture first: grep -q would close the pipe mid-print)
fleet_out="$(cargo run --release -q -p innet-examples --bin fleet)"
grep -q "migration completed:" <<<"$fleet_out"
grep -q "load spread after rebalance" <<<"$fleet_out"

echo "==> scenarios example smoke-run"
# The scenario engine kills a PoP under a gravity traffic matrix and
# executes plan_fleet's consolidation on the data plane: the markers
# prove tenants actually re-homed and migrations actually ran.
# (capture first: grep -q would close the pipe mid-print)
scenarios_out="$(cargo run --release -q -p innet-examples --bin scenarios)"
grep -q "failover: .* re-homed" <<<"$scenarios_out"
grep -qE "consolidation executed: [1-9][0-9]* live migrations" <<<"$scenarios_out"

echo "==> bench compile gate"
# Benches are not run in CI (too slow, too noisy), but they must keep
# compiling — parallel_scaling in particular tracks the runner API.
cargo bench --no-run --quiet

echo "==> perfbench build"
# The gated end-to-end benchmark (perfbench/, its own workspace) reads
# the controller, switch and fleet stats APIs; it must keep building.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> parallel example smoke-run"
# Differential, sharded-NAT, and global-degrade checks always run; the
# >=1.5x 4-worker speedup gate self-arms only on hosts with >=4 CPUs
# (on fewer cores the workers time-slice and no speedup is possible).
# (capture first: grep -q would close the pipe mid-print)
parallel_out="$(cargo run --release -q -p innet-examples --bin parallel)"
grep -q "verdict: FlowPartitionable" <<<"$parallel_out"
grep -q "all translated" <<<"$parallel_out"
grep -q "verdict: Global" <<<"$parallel_out"
grep -q "engine: compiled" <<<"$parallel_out"
grep -q "== verdict:" <<<"$parallel_out"

echo "==> bench snapshot smoke"
# Quick-mode snapshot emission into a scratch dir, then schema
# validation: proves the perf-trajectory machinery (BENCH_*.json
# writer + validator) stays wired without paying full bench time. The
# committed snapshots at the repo root are refreshed manually by full
# `cargo bench` runs, not by CI; a unit test in crates/bench checks that
# each of them parses and round-trips byte for byte.
snapdir="$(mktemp -d)"
trap 'rm -rf "$snapdir"' EXIT
for bench in parallel_scaling fig12_middlebox_throughput deploy_storm fleet scenarios; do
  INNET_BENCH_QUICK=1 INNET_BENCH_SNAPSHOT_DIR="$snapdir" \
    cargo bench --quiet --bench "$bench" >/dev/null
done
snaps=("$snapdir"/BENCH_*.json)
[ "${#snaps[@]}" -eq 5 ] || { echo "expected 5 snapshots, found ${#snaps[@]}" >&2; exit 1; }
cargo run --release -q -p innet-bench --bin validate_snapshot "${snaps[@]}"

echo "CI OK"
