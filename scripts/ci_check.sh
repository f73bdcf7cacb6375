#!/usr/bin/env sh
# One-command offline CI gate: formatting, lints, the tier-1 suite, and
# the error-taxonomy grep (no direct `ChainError::` variant use outside
# hammer-chain — retry decisions must go through kind()/is_retryable()).
#
# Usage: scripts/ci_check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (-D warnings)"
# Vendored crates.io stand-ins (vendor/*) mimic external APIs and are
# exempt from the documentation gate; every first-party crate must
# document cleanly.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet \
    --exclude rand --exclude proptest --exclude criterion \
    --exclude crossbeam --exclude parking_lot

echo "==> tier-1: cargo build --release && cargo test"
cargo build --workspace --release --offline
cargo test --workspace --release --offline -q

echo "==> grep gate: ChainError variants stay inside hammer-chain"
# `ChainError::constructor(...)` helpers (lowercase) are the public API;
# only variant paths (uppercase after ::) are forbidden outside the
# defining crate.
violations=$(grep -rn 'ChainError::[A-Z]' crates src examples tests benches 2>/dev/null \
    | grep -v '^crates/hammer-chain/' || true)
if [ -n "$violations" ]; then
    echo "ci_check: direct ChainError variant use outside hammer-chain:" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: sim crates stay on the node kernel"
# The four sim crates are consensus policies on the shared chain-node
# runtime: thread lifecycle belongs to the kernel's Worker/shutdown-join
# machinery, and block-seal instrumentation (sealed counters, mempool
# gauge, block_seal journal) is emitted by Kernel::seal_block only.
# Hand-rolled threads or duplicate instrumentation in a sim crate means
# the kernel is being bypassed.
sim_crates="crates/hammer-ethereum crates/hammer-fabric crates/hammer-neuchain crates/hammer-meepo"
violations=$(grep -rnE 'thread::Builder::new|thread::spawn' $sim_crates 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: raw thread creation in a sim crate (use kernel Workers):" >&2
    echo "$violations" >&2
    exit 1
fi
violations=$(grep -rnE 'hammer_chain_blocks_sealed_total|hammer_chain_txs_sealed_total|hammer_chain_mempool_depth|journal\(\)\.block_seal|block_seal\(' $sim_crates 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: direct block-seal instrumentation in a sim crate (Kernel::seal_block emits it):" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> obs-overhead smoke: disabled registry must not tax the hot path"
# Short samples (the vendored criterion has no CLI filter, so the whole
# group runs): the sign_obs_disabled/sign_plain ratio must stay within
# noise. The smoke threshold is looser than bench_snapshot.sh's 5% gate
# because 5 ms samples on a loaded 1-core host are jittery.
SMOKE_JSON="$(mktemp)"
CRITERION_JSON="$SMOKE_JSON" CRITERION_SAMPLE_MS=5 \
    cargo bench --offline -p bench --bench obs_overhead >/dev/null
plain=$(awk -F'"mean_ns":' '/"obs_signing\/sign_plain"/ { split($2, a, ","); print a[1] }' "$SMOKE_JSON")
disabled=$(awk -F'"mean_ns":' '/"obs_signing\/sign_obs_disabled"/ { split($2, a, ","); print a[1] }' "$SMOKE_JSON")
rm -f "$SMOKE_JSON"
if [ -z "$plain" ] || [ -z "$disabled" ]; then
    echo "ci_check: obs signing results missing from smoke run" >&2
    exit 1
fi
awk -v p="$plain" -v d="$disabled" 'BEGIN {
    r = d / p
    printf "disabled-obs signing overhead (smoke): %.3fx\n", r
    if (r > 1.25) {
        print "ci_check: disabled-obs overhead far above noise" > "/dev/stderr"
        exit 1
    }
}'

echo "==> driver-ceiling smoke: sharded tracker accounting identity"
# Small sweep point (2 shards x 50k in-flight) of the driver_ceiling
# bench: the bin asserts the accounting identity internally and exits
# non-zero on any mismatch; the grep pins the summary line too.
ceiling_out=$(cargo run --release --offline -p bench --bin driver_ceiling -- --smoke)
echo "$ceiling_out" | tail -n 3
if ! echo "$ceiling_out" | grep -q 'accounting identity holds'; then
    echo "ci_check: driver_ceiling accounting identity missing" >&2
    exit 1
fi

echo "==> chaos smoke: seeded schedules x all backends, invariant oracle"
# Fixed small matrix (3 seeds x 4 backends, 20 one-second slices) so the
# gate stays well under a minute on a 1-core host; the full acceptance
# matrix is `scenario_sweep --seeds 10`. Every cell grades the
# accounting identity, fault-window attribution, journal monotonicity,
# no stall, and no thread/child leak. The binary exits non-zero on any
# violation; the grep is a belt-and-suspenders check on its summary line.
chaos_out=$(cargo run --release --offline -p bench --bin scenario_sweep -- \
    --seeds 3 --slices 20)
echo "$chaos_out" | tail -n 1
if ! echo "$chaos_out" | grep -q ', 0 expectation violations'; then
    echo "ci_check: chaos sweep reported invariant violations" >&2
    exit 1
fi

echo "==> scenario smoke: corpus scenarios graded by their expectations"
# Two fast corpus scenarios x two fast backends through the scenario
# DSL (retarget + run + expectation grading); the full matrix is the
# bare `scenario_sweep` (8 scenarios x 4 backends). The binary exits
# non-zero on any expectation violation; the grep pins the summary.
scenario_out=$(cargo run --release --offline -p bench --bin scenario_sweep -- --smoke)
echo "$scenario_out" | tail -n 1
if ! echo "$scenario_out" | grep -q ', 0 expectation violations'; then
    echo "ci_check: scenario sweep reported expectation violations" >&2
    exit 1
fi

echo "==> multi-process smoke: crash window SIGKILLs a real node-host"
# One backend behind loopback TCP: the supervisor spawns node-host as
# its own OS process, the crash-fault window kills it with SIGKILL, the
# supervisor restarts it, and the run must complete with the accounting
# identity intact. The binary exits non-zero if the kill or the restart
# never happened; the grep pins the identity line.
cargo build --release --offline --bin node-host
smoke_out=$(cargo run --release --offline -p bench --bin scenario_sweep -- --crash-smoke)
echo "$smoke_out" | tail -n 2
if ! echo "$smoke_out" | grep -q 'accounting identity holds'; then
    echo "ci_check: multi-process crash smoke lost the accounting identity" >&2
    exit 1
fi

echo "==> grep gate: EvalConfig is built, never constructed"
# The validating builder is the only way to make an EvalConfig; a
# struct literal would bypass every invariant it enforces. Only the
# defining module (driver.rs) may construct one.
violations=$(grep -rn 'EvalConfig {' crates src examples tests benches 2>/dev/null \
    | grep -v '^crates/hammer-core/src/driver.rs' \
    | grep -vE -- '->[[:space:]]*&?EvalConfig \{' || true)
if [ -n "$violations" ]; then
    echo "ci_check: EvalConfig struct literal outside the driver builder:" >&2
    echo "$violations" >&2
    exit 1
fi

echo "ci_check: all gates passed"
