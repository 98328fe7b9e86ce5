#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tier-1 tests, every member
# crate's tests, perfbench's quick-mode checks, and the smoke steps below.
# Run from the repo root; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

# Run `cargo test` with a name filter and fail unless the filter selected
# at least one test: a filter that matches nothing passes silently
# otherwise, and a renamed or moved test would drop out of the stress
# loops unnoticed.
filtered_test() {
  local out
  if ! out="$(cargo test "$@" 2>&1)"; then
    printf '%s\n' "$out"
    return 1
  fi
  if ! grep -Eq 'test result: ok\. [1-9][0-9]* passed' <<<"$out"; then
    printf '%s\n' "$out"
    echo "error: 'cargo test $*' ran no test" >&2
    return 1
  fi
}

# --shard-stress: loop the cross-runtime equivalence suite (the
# lifecycle table included, with its case of a timer armed before a
# crash that must not fire after the restart) and the ThreadWorld unit
# tests 20x to shake out scheduling races in the sharded/threaded
# paths, then exit. Does not run the normal gate.
# --query-stress: hammer the query tier — 10 iterations of the ANN
# suite at 10^4 consumers plus the query-tier property tests (including
# the re-rank kernel ≡ vector_similarity properties in core and the
# planned cosine query ≡ naive scan property), the bounded cosine
# source's tests, the weighted posting-list check and the PA's pinned
# planner counters, then the full-scale query bench including the
# 10^6-consumer axis. Does not run the normal gate.
# --recovery-stress: loop the crash-point matrix, the marketplace-host
# crash sweep, the non-durable lost-return-trip buy and the
# durability-off ≡ durable metrics check (one purchase protocol with
# durability on or off), the WAL and marketplace delta-replay property tests (the
# crash tree path ≡ byte replay property among them), the durable
# store's tree-sharing and on-disk-format pins, the UserDB's
# buyer-host crash recovery and its refusal of the old table-store
# shape, the constant-size state checks (PA UserDB, BSMA and
# marketplace state size), and the amortised-checkpoint checks (the
# store-level rule and its carried-bytes bound, the durable PA's
# recovery to its live state, and the checkout run that seldom
# re-captures the PA), and the activation journalling checks (a
# re-activated PA recovers active with its later deltas; a journalled
# capsule absorbs the deltas logged before it), and the timer fence (a
# PA restored by a restart or a failover runs one maintenance chain; the
# auctions of a crashed marketplace still close once) 10x (the crash matrix covers the
# sharded/threaded recovery paths too), then the full E14 recovery
# series. Does not run the normal gate.
# --resilience-stress: loop the self-healing suite 10x — the 32-seed
# supervised chaos sweep, the DES ≡ ThreadWorld failover/hang
# equivalence (real threads + wall-clock leases, the racy part), the
# lifecycle table (hangs, crashes while hung and stalled timers on both
# runtimes), the span of a stalled delivery lost in a crash, and the
# file-WAL torn-tail properties — then the full E15 MTTR/overhead
# series. Does not run the normal gate.
if [[ "${1:-}" == "--resilience-stress" ]]; then
  echo "==> resilience stress (10x supervised sweep + runtime equivalence)"
  for i in $(seq 1 10); do
    echo "--- iteration $i/10 ---"
    cargo test -q --release --test resilience
    filtered_test -q --release --test equivalence lifecycle_cases_agree_across_runtimes
    filtered_test -q --release --test telemetry a_stalled_delivery_lost_in_a_crash_ends_its_span_at_the_crash
    cargo test -q --release -p simdb --test file_wal
  done
  echo "==> full E15 resilience series"
  cargo bench -p bench --bench resilience
  echo "resilience stress green."
  exit 0
fi
if [[ "${1:-}" == "--recovery-stress" ]]; then
  echo "==> recovery stress (10x crash-point matrix + WAL properties)"
  for i in $(seq 1 10); do
    echo "--- iteration $i/10 ---"
    cargo test -q --release --test recovery
    filtered_test -q --release --test recovery marketplace_host_crash
    filtered_test -q --release --test recovery non_durable_lost_return_trip_sells_once
    filtered_test -q --release --test recovery durability_off_keeps_traces_byte_identical_and_counters_zero
    filtered_test -q --release --test properties durable_replay
    filtered_test -q --release --test properties durable_crash_tree_path_equals_byte_replay
    filtered_test -q --release -p agentsim durable::tests::tree_sharing
    filtered_test -q --release -p agentsim durable::tests::golden
    filtered_test -q --release --test properties marketplace_checkpoint_plus_deltas
    filtered_test -q --release --test properties any_torn_log_prefix
    filtered_test -q --release --test properties crash_preserves
    filtered_test -q --release -p abcrm-core server::tests::pa_userdb_is_constant
    filtered_test -q --release --test failure_injection userdb_crash_recovery
    filtered_test -q --release -p abcrm-core server::tests::bsma_state_is_constant
    filtered_test -q --release -p abcrm-core server::tests::marketplace_state_is_constant
    filtered_test -q --release -p ecp marketplace::tests::minted_intents_never_wrap
    filtered_test -q --release -p abcrm-core pa::tests::pa_state_with_a_table_store_userdb_is_refused
    filtered_test -q --release -p agentsim durable::tests::checkpoint_rule
    filtered_test -q --release -p agentsim durable::tests::tallies_are_rebuilt_on_crash
    filtered_test -q --release --test properties checkpoint_rule_keeps_carried_deltas_below_their_capsule
    filtered_test -q --release -p abcrm-core pa::tests::durable_pa_recovers_to_its_live_state
    filtered_test -q --release -p abcrm-core pa::tests::record_shaped_deltas_replay
    filtered_test -q --release --test recovery checkout_checkpoints_seldom_recapture_the_pa
    filtered_test -q --release --test recovery reactivated_pa_recovers_active_with_its_later_deltas
    filtered_test -q --release -p agentsim durable::tests::a_journalled_capsule_absorbs_the_deltas
    filtered_test -q --release --test recovery a_restored_pa_runs_one_maintenance_chain
    filtered_test -q --release --test recovery a_failed_over_pa_runs_one_maintenance_chain
    filtered_test -q --release -p ecp marketplace::tests::auctions_open_across_a_host_crash_still_close_once
  done
  echo "==> full E14 recovery series"
  cargo bench -p bench --bench recovery
  echo "recovery stress green."
  exit 0
fi
if [[ "${1:-}" == "--query-stress" ]]; then
  echo "==> query stress (10x ANN suite @ 10^4 users + query-tier property tests)"
  for i in $(seq 1 10); do
    echo "--- iteration $i/10 ---"
    ANN_USERS=10000 cargo test -q --release --test ann
    filtered_test -q --release --test properties incremental_index_matches_rebuild
    filtered_test -q --release --test properties ann_neighbours_subset
    filtered_test -q --release -p abcrm-core ann::tests::kernel_matches_vector_similarity
    filtered_test -q --release --test properties planned_cosine_neighbours_equal_the_naive_scan
    filtered_test -q --release -p abcrm-core ann::tests::bounded_source
    filtered_test -q --release -p abcrm-core index::tests::posting_weights_follow_every_row_change
    filtered_test -q --release -p abcrm-core pa::tests::pa_similar_counts_its_neighbour_source
  done
  echo "==> full query scaling bench (QUERY_BENCH_FULL=1: 10^4/10^5/10^6 axis)"
  QUERY_BENCH_FULL=1 cargo bench -p bench --bench query_hot_path
  echo "query stress green."
  exit 0
fi

if [[ "${1:-}" == "--shard-stress" ]]; then
  echo "==> shard stress (20x cross-runtime equivalence + threaded-runtime tests)"
  for i in $(seq 1 20); do
    echo "--- iteration $i/20 ---"
    filtered_test -q --test equivalence cross_runtime
    filtered_test -q -p agentsim thread_net::tests::threaded
    filtered_test -q -p agentsim thread_net::tests::dispose_while_deactivated
    filtered_test -q -p agentsim sim::tests::dispose_while_deactivated
  done
  echo "shard stress green."
  exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::redundant_clone -D clippy::large_enum_variant -D clippy::dbg_macro -D clippy::needless_collect

# The WAL layer must not panic on malformed durable input: hold
# simdb to the stricter no-unwrap bar (its tests opt out locally).
echo "==> cargo clippy -p simdb (-D clippy::unwrap_used)"
cargo clippy -p simdb --all-targets -- -D warnings -D clippy::unwrap_used

# The runtime that supervises everyone else must not panic itself: hold
# agentsim to the no-panic bar (its tests opt out locally).
echo "==> cargo clippy -p agentsim (-D clippy::panic)"
cargo clippy -p agentsim --all-targets -- -D warnings -D clippy::panic

# The platform facade and the e-commerce protocols it drives are held to
# the same no-panic bar (their tests opt out locally).
echo "==> cargo clippy -p abcrm-core -p ecp (-D clippy::panic)"
cargo clippy -p abcrm-core -p ecp --all-targets -- -D warnings -D clippy::panic

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (tier-1)"
cargo test -q

# Tier-1 runs only the umbrella package; this runs every member crate's
# own unit and integration tests too.
echo "==> cargo test --workspace"
cargo test -q --workspace

# Typed local messages: every payload type the agents send reads back
# from its held value exactly as from its JSON tree, and a same-host
# request/reply never builds a tree while a cross-host send keeps its
# wire size.
echo "==> typed payload checks (typed ≡ tree, local hops never encode)"
filtered_test -q --release --test properties typed_payloads_read_back_as_their_trees
filtered_test -q --release -p agentsim sim::tests::same_host_request_and_reply_never_materialise
filtered_test -q --release -p agentsim sim::tests::cross_host_messages_materialise_and_keep_their_wire_size

# perfbench is a workspace of its own, so the step above skips it. Its
# tests run every workload at toy size through the same checks a full
# run makes: the reply digest and simulated counters repeat, exactly one
# reply per request, at-most-once settlement.
echo "==> perfbench quick-mode checks"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Chaos seed sweep: quick mode pins an 8-seed threaded matrix (the DES
# side always runs all 32 seeds); CHAOS_FULL=1 widens the threaded
# matrix to 32. Failures print the offending (seed, plan) JSON line —
# replay with: CHAOS_SEED=<seed> cargo test --test chaos repro_single_seed
if [[ "${CHAOS_FULL:-0}" == "1" ]]; then
  echo "==> chaos sweep (full: 32 seeds per runtime)"
  CHAOS_SEEDS=32 cargo test -q --test chaos
else
  echo "==> chaos sweep (quick: 8 threaded seeds; CHAOS_FULL=1 for 32)"
  CHAOS_SEEDS=8 cargo test -q --test chaos
fi

# Telemetry smoke: drive the quickstart workflows with tracing on,
# export the Chrome trace_event JSON and self-validate its schema (the
# binary exits non-zero on an invalid document), then measure the
# disabled-path overhead in bench quick mode.
echo "==> telemetry smoke (traced quickstart + chrome-trace schema)"
CHROME_TRACE_OUT="$(mktemp)"
cargo run --release -p bench --bin telemetry_report -- --quick --chrome-out "$CHROME_TRACE_OUT" >/dev/null
test -s "$CHROME_TRACE_OUT"
rm -f "$CHROME_TRACE_OUT"

# Shard smoke: the sharded quickstart at 1/2/4 shards. The 1-shard run
# self-checks byte-identity against the unsharded platform (trace labels
# and metrics); multi-shard runs assert every boundary migration
# authenticates.
echo "==> shard smoke (sharded quickstart at 1/2/4 shards)"
for n in 1 2 4; do
  cargo run --release -q --example sharded -- "$n" >/dev/null
done

# ANN smoke: oracle equivalence, bit-identical scores and the 0.95
# recall floor at 10^4 consumers — plus the allocation gate on warm queries from every source — bounded cosine,
# LSH, Pearson union (top-k heap only, whatever the candidate count).
echo "==> ann smoke (exact ≡ oracle + recall floor @ 10^4 users)"
ANN_USERS=10000 cargo test -q --release --test ann
cargo bench -p bench --bench query_hot_path -- --assert-no-alloc
# Local-message alloc gate: a same-host PaSimilarReply hop (send,
# delivery, payload_as) allocates one clone of the reply plus a constant.
cargo bench -p bench --bench local_message -- --assert-alloc

echo "==> bench smoke (quick mode; includes telemetry-overhead gate)"
PLATFORM_BENCH_QUICK=1 cargo bench -p bench --bench platform_throughput
cargo bench -p bench --bench query_hot_path

# Overload smoke: the E12 series in quick mode (100 requests) — admission
# shedding, bounded-mailbox depth and deadline accounting on the full
# platform — plus the dedicated behavioural suite.
echo "==> overload smoke (quick E12 series + tests/overload.rs)"
OVERLOAD_BENCH_QUICK=1 cargo bench -p bench --bench overload
cargo test -q --test overload

# Recovery smoke: the crash-point matrix (every stage of the Fig 4.3
# buy, ledger resolution, byte-identity with durability off, sharded
# crash at 1/2/4 shards, DES ≡ ThreadWorld outcome classes), plus the
# quick E14 recovery-cost series.
echo "==> recovery smoke (crash-point matrix + quick E14 series)"
cargo test -q --test recovery
RECOVERY_BENCH_QUICK=1 cargo bench -p bench --bench recovery

# Resilience smoke: self-healing supervision (unarmed byte-identity,
# the 32-seed supervised sweep with zero manual restarts, crash
# failover, hang bouncing, quarantine, DES ≡ ThreadWorld outcome
# classes), plus the quick E15 MTTR series.
echo "==> resilience smoke (self-healing suite + quick E15 series)"
cargo test -q --test resilience
RESILIENCE_BENCH_QUICK=1 cargo bench -p bench --bench resilience

echo "CI green."
