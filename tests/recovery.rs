//! Crash-point recovery matrix: durable platforms killed at every named
//! stage of the Fig 4.3 buy workflow, then restarted and driven to
//! quiescence (experiment E14).
//!
//! Each stage crashes the Buyer Agent Server host at a specific point of
//! the two-phase purchase protocol and asserts the two invariants the
//! durability layer promises:
//!
//! * **exactly-once observable purchase effects** — the marketplace's
//!   `units_sold` equals the number of receipts the consumer got, no
//!   matter how many retries or replays the crash provokes;
//! * **completion or clean abort** — the consumer always receives either
//!   a `Receipt` or an explicit `Error` naming the abort; silence and
//!   double-receipts are both failures.
//!
//! Crash points are targeted with a probe run: the same seed is first
//! run crash-free to record the sim-time of each workflow marker, then
//! re-run with `run_until(marker)` + `crash_host` + `restart_host`.
//! Determinism makes the two runs identical up to the crash.
//!
//! Stages covered (with the marker each anchors to):
//!
//! | stage                     | anchor                      | recovery path              |
//! |---------------------------|-----------------------------|----------------------------|
//! | pre-migration             | step04 profile request      | BRA re-requests profile    |
//! | at-marketplace            | step08 BRA deactivated      | MBA home-retry + watchdog  |
//! | post-intent / pre-commit  | step08 + lossy dispatch     | ledger "unknown" → retry   |
//! | post-commit / pre-return  | step09 + lossy return       | ledger "committed" → receipt |
//! | mid-profile-update        | after receipt               | PA delta replay            |

use abcrm::core::agents::msg::{BuyMode, ConsumerTask, ResponseBody};
use abcrm::core::profile::ConsumerId;
use abcrm::core::server::{listing, Platform, ShardedPlatform};
use abcrm::core::BackoffPolicy;
use agentsim::clock::{SimDuration, SimTime};
use agentsim::durable::DurabilityConfig;
use agentsim::net::LinkSpec;
use agentsim::sim::Location;
use ecp::merchandise::ItemId;

const CONSUMER: ConsumerId = ConsumerId(1);

fn listings() -> Vec<Vec<ecp::protocol::Listing>> {
    vec![vec![
        listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]),
        listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]),
    ]]
}

fn durable_platform_with(seed: u64, retry: BackoffPolicy) -> Platform {
    Platform::builder(seed)
        .marketplaces(listings())
        .mba_timeout_us(2_000_000)
        .bra_retry(retry)
        .durability(DurabilityConfig::default())
        .build()
}

fn durable_platform(seed: u64) -> Platform {
    durable_platform_with(seed, BackoffPolicy::new(200_000, 1_600_000, 3))
}

fn buy_task(p: &Platform) -> ConsumerTask {
    ConsumerTask::Buy {
        item: ItemId(1),
        market: p.markets()[0],
        mode: BuyMode::Direct,
    }
}

/// Units sold of `item` at marketplace 0 — the externally observable
/// purchase effect the exactly-once invariant is about.
fn units_sold(p: &Platform, item: ItemId) -> u32 {
    let snapshot = p
        .world()
        .snapshot_of(p.markets()[0].agent)
        .expect("marketplace active");
    let market: ecp::MarketplaceAgent = serde_json::from_value(snapshot).expect("state parses");
    market.units_sold(item)
}

/// The durable platform's twin without durability.
fn plain_platform(seed: u64) -> Platform {
    Platform::builder(seed)
        .marketplaces(listings())
        .mba_timeout_us(2_000_000)
        .bra_retry(BackoffPolicy::new(200_000, 1_600_000, 3))
        .build()
}

/// Probe run: drive the buy crash-free on `p` and report the sim-time of
/// the first trace event whose label contains `marker`.
fn probe_marker_on(mut p: Platform, marker: &str) -> SimTime {
    p.login(CONSUMER);
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    let wave = p.run_and_drain();
    assert!(
        wave.iter()
            .any(|(_, r)| matches!(r, ResponseBody::Receipt { .. })),
        "probe run must complete cleanly: {wave:?}"
    );
    p.world()
        .trace()
        .events()
        .iter()
        .find(|e| e.label.contains(marker))
        .unwrap_or_else(|| panic!("marker {marker:?} not in probe trace"))
        .at
}

fn probe_marker_with(seed: u64, retry: BackoffPolicy, marker: &str) -> SimTime {
    probe_marker_on(durable_platform_with(seed, retry), marker)
}

fn probe_marker(seed: u64, marker: &str) -> SimTime {
    probe_marker_with(seed, BackoffPolicy::new(200_000, 1_600_000, 3), marker)
}

/// The matrix invariant: exactly one terminal reply, and observable
/// sales equal to the number of receipts.
fn assert_exactly_once(p: &Platform, wave: &[(ConsumerId, ResponseBody)], stage: &str) {
    let receipts = wave
        .iter()
        .filter(|(_, r)| matches!(r, ResponseBody::Receipt { .. }))
        .count();
    let errors = wave
        .iter()
        .filter(|(_, r)| matches!(r, ResponseBody::Error(_)))
        .count();
    assert_eq!(
        receipts + errors,
        1,
        "{stage}: exactly one terminal reply expected, got {wave:?}"
    );
    assert_eq!(
        units_sold(p, ItemId(1)),
        receipts as u32,
        "{stage}: marketplace sales must match receipts (exactly-once)"
    );
}

// ---------------------------------------------------------------------
// stage 1: crash pre-migration (BRA waiting for the PA profile)
// ---------------------------------------------------------------------

#[test]
fn stage_pre_migration_crash_recovers_and_completes() {
    let seed = 101;
    let at = probe_marker(seed, "fig4.3/step04");
    let mut p = durable_platform(seed);
    p.login(CONSUMER);
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    p.world_mut().run_until(at + SimDuration::from_micros(1));
    let host = p.buyer_host();
    p.world_mut().crash_host(host).unwrap();
    p.world_mut().run_for(SimDuration::from_micros(100));
    p.world_mut().restart_host(host).unwrap();
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "pre-migration");
    assert!(
        wave.iter()
            .any(|(_, r)| matches!(r, ResponseBody::Receipt { .. })),
        "a pre-migration crash must still complete the buy: {wave:?}"
    );
    let m = p.world().metrics();
    assert_eq!(m.hosts_recovered, 1);
    assert!(
        m.agents_recovered >= 4,
        "bsma + pa + httpa + bra restored: {m:?}"
    );
    assert!(m.wal_records_replayed > 0);
    // the BRA re-requested the profile rather than stalling
    assert!(p
        .world()
        .trace()
        .labels()
        .iter()
        .any(|l| l.contains("re-requesting profile")));
}

// ---------------------------------------------------------------------
// stage 2: crash at-marketplace (MBA away, BRA capsule in the store)
// ---------------------------------------------------------------------

#[test]
fn stage_at_marketplace_crash_mba_retries_home_until_restart() {
    let seed = 202;
    let dispatched = probe_marker(seed, "fig4.3/step08");
    let mut p = durable_platform(seed);
    p.login(CONSUMER);
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    // the MBA is in flight to the marketplace; the BRA is deactivated
    p.world_mut()
        .run_until(dispatched + SimDuration::from_micros(50));
    assert_eq!(p.world().metrics().deactivations, 1, "bra parked");
    let host = p.buyer_host();
    p.world_mut().crash_host(host).unwrap();
    // stay down long enough that the MBA's first return attempt finds
    // the host dead and has to back off
    p.world_mut().run_for(SimDuration::from_micros(500));
    p.world_mut().restart_host(host).unwrap();
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "at-marketplace");
    assert!(
        wave.iter()
            .any(|(_, r)| matches!(r, ResponseBody::Receipt { .. })),
        "the roaming mba must deliver its result after the restart: {wave:?}"
    );
    let m = p.world().metrics();
    assert_eq!(m.hosts_recovered, 1);
    assert_eq!(m.purchases_committed, 1);
    assert_eq!(m.intents_logged, 1);
}

// ---------------------------------------------------------------------
// stage 3: crash post-intent / pre-commit (MBA lost before the market,
// ledger shows no commit → safe retry with the SAME intent)
// ---------------------------------------------------------------------

#[test]
fn stage_post_intent_crash_resolves_via_ledger_and_retries_same_intent() {
    let seed = 303;
    let dispatched = probe_marker(seed, "fig4.3/step08");
    let mut p = durable_platform(seed);
    p.login(CONSUMER);
    let market_host = p.markets()[0].host;
    let buyer_host = p.buyer_host();
    // the dispatch link eats the MBA: the intent is journalled but no
    // purchase ever happens at the marketplace
    p.world_mut().topology_mut().set_link_symmetric(
        buyer_host,
        market_host,
        LinkSpec::lan().lossy(1.0),
    );
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    p.world_mut()
        .run_until(dispatched + SimDuration::from_micros(50));
    p.world_mut().crash_host(buyer_host).unwrap();
    p.world_mut().run_for(SimDuration::from_micros(500));
    p.world_mut().restart_host(buyer_host).unwrap();
    // the outage that killed the MBA heals; the retry can go through
    p.world_mut()
        .topology_mut()
        .set_link_symmetric(buyer_host, market_host, LinkSpec::lan());
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "post-intent");
    assert!(
        wave.iter()
            .any(|(_, r)| matches!(r, ResponseBody::Receipt { .. })),
        "ledger-unknown must lead to a retried, completed buy: {wave:?}"
    );
    let m = p.world().metrics();
    assert_eq!(
        m.intents_logged, 1,
        "the retry must reuse the journalled intent, not mint a second: {m:?}"
    );
    assert_eq!(m.purchases_committed, 1);
    assert_eq!(m.purchases_aborted, 0);
    assert!(m.retries >= 1, "the lost mba must have been retried: {m:?}");
    assert_eq!(
        m.intents_resolved_by_ledger, 0,
        "the commit came from the real second trip, not the ledger"
    );
}

#[test]
fn stage_post_intent_without_retries_aborts_cleanly() {
    let seed = 313;
    let retry = BackoffPolicy::none();
    let dispatched = probe_marker_with(seed, retry, "fig4.3/step08");
    let mut p = durable_platform_with(seed, retry);
    p.login(CONSUMER);
    let market_host = p.markets()[0].host;
    let buyer_host = p.buyer_host();
    p.world_mut().topology_mut().set_link_symmetric(
        buyer_host,
        market_host,
        LinkSpec::lan().lossy(1.0),
    );
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    p.world_mut()
        .run_until(dispatched + SimDuration::from_micros(50));
    p.world_mut().crash_host(buyer_host).unwrap();
    p.world_mut().run_for(SimDuration::from_micros(500));
    p.world_mut().restart_host(buyer_host).unwrap();
    p.world_mut()
        .topology_mut()
        .set_link_symmetric(buyer_host, market_host, LinkSpec::lan());
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "post-intent abort");
    match &wave[0].1 {
        ResponseBody::Error(e) => assert!(
            e.contains("aborted") && e.contains("ledger"),
            "the abort must name the ledger check: {e}"
        ),
        other => panic!("retries exhausted must abort explicitly, got {other:?}"),
    }
    let m = p.world().metrics();
    assert_eq!(m.purchases_aborted, 1, "{m:?}");
    assert_eq!(m.purchases_committed, 0);
    assert_eq!(units_sold(&p, ItemId(1)), 0, "nothing was ever sold");
}

// ---------------------------------------------------------------------
// stage 4: crash post-commit / pre-return (sale recorded, MBA dies on
// the way home, ledger answers "committed" → receipt without re-buying)
// ---------------------------------------------------------------------

#[test]
fn stage_post_commit_crash_recovers_receipt_from_ledger() {
    let seed = 404;
    let at_market = probe_marker(seed, "fig4.3/step09");
    let mut p = durable_platform(seed);
    p.login(CONSUMER);
    let market_host = p.markets()[0].host;
    let buyer_host = p.buyer_host();
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    // let the MBA arrive and execute the buy, then cut the return path:
    // the sale is recorded at the marketplace but the MBA never gets home
    p.world_mut().run_until(at_market);
    p.world_mut().topology_mut().set_link_symmetric(
        buyer_host,
        market_host,
        LinkSpec::lan().lossy(1.0),
    );
    // crash the buyer host while the outcome is in doubt
    p.world_mut().run_for(SimDuration::from_micros(100_000));
    p.world_mut().crash_host(buyer_host).unwrap();
    p.world_mut().run_for(SimDuration::from_micros(50_000));
    p.world_mut().restart_host(buyer_host).unwrap();
    p.world_mut()
        .topology_mut()
        .set_link_symmetric(buyer_host, market_host, LinkSpec::lan());
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "post-commit");
    match &wave[0].1 {
        ResponseBody::Receipt { item, channel, .. } => {
            assert_eq!(item.id, ItemId(1));
            assert!(
                channel.contains("ledger"),
                "the receipt must be marked as ledger-recovered: {channel}"
            );
        }
        other => panic!("a committed sale must produce a receipt, got {other:?}"),
    }
    assert_eq!(
        units_sold(&p, ItemId(1)),
        1,
        "the ledger answer must prevent a second purchase"
    );
    let m = p.world().metrics();
    assert_eq!(m.intents_resolved_by_ledger, 1, "{m:?}");
    assert_eq!(m.intents_logged, 1);
    assert_eq!(
        m.purchases_committed, 1,
        "the ledger resolution journals the commit exactly once"
    );
}

/// Without durability a buy settles through the same intent and ledger:
/// a return trip lost after the sale is answered from the marketplace
/// ledger, never by selling the item a second time.
#[test]
fn non_durable_lost_return_trip_sells_once() {
    let seed = 404;
    let at_market = probe_marker_on(plain_platform(seed), "fig4.3/step09");
    let mut p = plain_platform(seed);
    p.login(CONSUMER);
    let market_host = p.markets()[0].host;
    let buyer_host = p.buyer_host();
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    // the MBA buys at the marketplace, then the link eats its trip home
    p.world_mut().run_until(at_market);
    p.world_mut().topology_mut().set_link_symmetric(
        buyer_host,
        market_host,
        LinkSpec::lan().lossy(1.0),
    );
    p.world_mut().run_for(SimDuration::from_micros(100_000));
    p.world_mut()
        .topology_mut()
        .set_link_symmetric(buyer_host, market_host, LinkSpec::lan());
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "non-durable lost return trip");
    match &wave[0].1 {
        ResponseBody::Receipt { channel, .. } => assert!(
            channel.contains("ledger"),
            "the receipt must come from the ledger, not a second sale: {channel}"
        ),
        other => panic!("a committed sale must produce a receipt, got {other:?}"),
    }
    let m = p.world().metrics();
    assert_eq!(m.intents_resolved_by_ledger, 1, "{m:?}");
    assert_eq!(m.wal_records_appended, 0, "no journal without durability");
}

// ---------------------------------------------------------------------
// stage 5: crash mid/after profile update (receipt delivered, learned
// profile must survive via delta replay)
// ---------------------------------------------------------------------

#[test]
fn stage_profile_update_crash_replays_deltas() {
    let seed = 505;
    let mut p = durable_platform(seed);
    p.login(CONSUMER);
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "clean run");
    let interest_before = p
        .pa_state()
        .store()
        .profile(CONSUMER)
        .expect("profile learned")
        .total_interest();
    assert!(interest_before > 0.0);
    assert_eq!(p.pa_state().userdb().transaction_count(), 1);

    let host = p.buyer_host();
    p.world_mut().crash_host(host).unwrap();
    p.world_mut().run_for(SimDuration::from_micros(100));
    p.world_mut().restart_host(host).unwrap();
    p.world_mut().run_until_idle();

    // the learned profile came back from the journalled deltas
    let pa = p.pa_state();
    let interest_after = pa
        .store()
        .profile(CONSUMER)
        .expect("profile survives the crash")
        .total_interest();
    assert!(
        (interest_after - interest_before).abs() < 1e-9,
        "replayed profile must match the learned one: {interest_before} vs {interest_after}"
    );
    assert_eq!(
        pa.userdb().transaction_count(),
        1,
        "the transaction record is replayed exactly once"
    );
    assert_eq!(units_sold(&p, ItemId(1)), 1, "no replay-driven re-buy");
    let m = p.world().metrics();
    assert!(m.profile_deltas_replayed >= 1, "{m:?}");
    assert_eq!(m.purchases_committed, 1);

    // the platform is fully operational after recovery: a second,
    // different buy completes and learns on top of the replayed profile
    let wave = {
        p.submit_task(
            CONSUMER,
            ConsumerTask::Buy {
                item: ItemId(2),
                market: p.markets()[0],
                mode: BuyMode::Direct,
            },
        );
        p.run_and_drain()
    };
    assert!(
        wave.iter()
            .any(|(_, r)| matches!(r, ResponseBody::Receipt { .. })),
        "post-recovery buy must work: {wave:?}"
    );
    assert_eq!(units_sold(&p, ItemId(2)), 1);
    assert_eq!(p.pa_state().userdb().transaction_count(), 2);
}

// ---------------------------------------------------------------------
// dead-agent leak regression: capsules stranded by a crash must be
// restored, and the stable store must return to its quiescent baseline
// ---------------------------------------------------------------------

#[test]
fn crashed_capsules_are_restored_and_store_returns_to_baseline() {
    let seed = 606;
    let dispatched = probe_marker(seed, "fig4.3/step08");
    let mut p = durable_platform(seed);
    p.login(CONSUMER);
    let host = p.buyer_host();
    let baseline_bytes = p.world().stored_bytes(host);
    let baseline_count = p.world().stored_count(host);
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    p.world_mut()
        .run_until(dispatched + SimDuration::from_micros(50));
    // the BRA capsule is in the stable store right now; the crash strands
    // it and the recovery pass must bring it back (pre-durability this
    // was the dead-agent leak: the capsule was unreachable forever)
    assert!(p.world().stored_count(host) > baseline_count);
    p.world_mut().crash_host(host).unwrap();
    p.world_mut().run_for(SimDuration::from_micros(500));
    p.world_mut().restart_host(host).unwrap();
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "leak regression");
    // at quiescence every recovered capsule has been re-activated or
    // consumed: the store is back to its pre-task baseline
    assert_eq!(
        p.world().stored_count(host),
        baseline_count,
        "no capsule may be stranded in the store after recovery"
    );
    assert_eq!(
        p.world().stored_bytes(host),
        baseline_bytes,
        "stored bytes must return to baseline after recovery"
    );
    // and the restored BRA still serves: a follow-up query answers
    let responses = p.query(CONSUMER, &["rust"], 5);
    assert!(
        matches!(&responses[0], ResponseBody::Recommendations { .. }),
        "recovered session must keep serving: {responses:?}"
    );
}

// ---------------------------------------------------------------------
// crash sweep: deterministic crash points swept across the whole buy
// window, every one exactly-once
// ---------------------------------------------------------------------

#[test]
fn crash_sweep_over_the_buy_window_is_exactly_once_everywhere() {
    for seed in 0..16u64 {
        // the ingress hops (HttpA → BSMA → BRA) are outside the durable
        // protocol — a request that never reached a BRA has no intent to
        // recover — so the sweep starts at the first BRA-owned stage
        let from = probe_marker(seed, "fig4.3/step04").as_micros();
        let to = probe_marker(seed, "fig4.3/step14").as_micros();
        let crash_at = from + (seed * 97) % (to - from + 1);
        let down_for = 200 + (seed * 53) % 800;

        let mut p = durable_platform(seed);
        p.login(CONSUMER);
        let task = buy_task(&p);
        p.submit_task(CONSUMER, task);
        p.world_mut().run_until(SimTime(crash_at));
        let host = p.buyer_host();
        p.world_mut().crash_host(host).unwrap();
        p.world_mut().run_for(SimDuration::from_micros(down_for));
        p.world_mut().restart_host(host).unwrap();
        let wave = p.run_and_drain();
        assert_exactly_once(&p, &wave, &format!("sweep seed {seed} crash@{crash_at}us"));
        let m = p.world().metrics();
        assert_eq!(m.hosts_recovered, 1, "seed {seed}: {m:?}");
        assert!(
            m.purchases_committed <= 1,
            "seed {seed}: at most one commit ever: {m:?}"
        );
    }
}

// ---------------------------------------------------------------------
// replies across a buyer-host crash with batched WAL syncs
// ---------------------------------------------------------------------

/// Crash the Buyer Agent Server host `offset_us` into a second wave of
/// queries, for each offset and several WAL sync batch sizes, and assert
/// that every consumer hears back exactly once. `deadline_us` 0 keeps
/// request deadlines off.
fn assert_one_reply_per_query_across_crashes(deadline_us: u64, offsets_us: &[u64]) {
    let consumers: Vec<ConsumerId> = (1..=6).map(ConsumerId).collect();
    let query = || ConsumerTask::Query {
        keywords: vec!["rust".into()],
        category: None,
        max_results: 5,
    };
    for sync_every in [2usize, 16, 64] {
        for &offset_us in offsets_us {
            let mut p = Platform::builder(11)
                .marketplaces(listings())
                .mba_timeout_us(2_000_000)
                .request_deadline_us(deadline_us)
                .durability(DurabilityConfig {
                    checkpoint_every: 0,
                    sync_every,
                })
                .build();
            for &c in &consumers {
                p.login(c);
            }
            for &c in &consumers {
                p.submit_task(c, query());
            }
            p.run_and_drain();
            for &c in &consumers {
                p.submit_task(c, query());
            }
            p.world_mut().run_for(SimDuration::from_micros(offset_us));
            let host = p.buyer_host();
            p.world_mut().crash_host(host).unwrap();
            p.world_mut().restart_host(host).unwrap();
            let wave = p.run_and_drain();
            let per_consumer: Vec<usize> = consumers
                .iter()
                .map(|c| wave.iter().filter(|(r, _)| r == c).count())
                .collect();
            assert_eq!(
                per_consumer,
                vec![1; consumers.len()],
                "sync_every {sync_every}, crash {offset_us} µs into wave 2: {wave:?}"
            );
        }
    }
}

/// A crash of the Buyer Agent Server host while a wave of queries is in
/// flight must not lose or repeat replies, even when the WAL syncs only
/// every few records: a reply that has left the HttpA was output-committed
/// first, and every query still in flight is re-driven to exactly one
/// answer.
#[test]
fn buyer_host_crash_with_batched_syncs_answers_every_query_once() {
    let offsets_us: Vec<u64> = (0..=57u64).step_by(3).map(|ms| ms * 1_000).collect();
    assert_one_reply_per_query_across_crashes(0, &offsets_us);
}

/// The deadline variant: admitting a task under a deadline records it in
/// the HttpA's in-flight set and emits nothing, so the admission itself
/// must be forced to stable storage. Otherwise a crash rolls the
/// in-flight entry back, the late reply is dropped as if the watchdog had
/// answered, and the consumer never hears back. The window lies between
/// the admissions and the first forced sync (the MBA's departure), a few
/// microseconds into the wave, so this sweep steps in microseconds.
#[test]
fn buyer_host_crash_with_batched_syncs_and_deadlines_answers_every_query_once() {
    let offsets_us: Vec<u64> = (0..=40).collect();
    assert_one_reply_per_query_across_crashes(3_000_000, &offsets_us);
}

// ---------------------------------------------------------------------
// durability off: byte-identical traces, zero counters
// ---------------------------------------------------------------------

#[test]
fn durability_off_keeps_traces_byte_identical_and_counters_zero() {
    let seed = 707;
    let mut plain = plain_platform(seed);
    let mut durable = durable_platform(seed);

    for p in [&mut plain, &mut durable] {
        p.login(CONSUMER);
        let task = buy_task(p);
        p.submit_task(CONSUMER, task);
        let wave = p.run_and_drain();
        assert!(wave
            .iter()
            .any(|(_, r)| matches!(r, ResponseBody::Receipt { .. })));
        p.query(CONSUMER, &["rust"], 5);
    }

    // identical trace, event for event (journaling adds no trace noise)
    assert_eq!(
        plain.world().trace().labels(),
        durable.world().trace().labels(),
        "durability must not perturb the workflow trace"
    );
    // the plain platform has every durability counter at zero…
    let pm = plain.world().metrics().clone();
    assert_eq!(pm.wal_records_appended, 0);
    assert_eq!(pm.wal_records_replayed, 0);
    assert_eq!(pm.checkpoints, 0);
    assert_eq!(pm.hosts_recovered, 0);
    assert_eq!(pm.agents_recovered, 0);
    assert_eq!(pm.intents_logged, 0);
    assert_eq!(pm.purchases_committed, 0);
    assert_eq!(pm.purchases_aborted, 0);
    assert_eq!(pm.intents_resolved_by_ledger, 0);
    assert_eq!(pm.profile_deltas_logged, 0);
    assert_eq!(pm.profile_deltas_replayed, 0);
    // …and the durable run matches it on every other counter: both runs
    // buy under the same intent, so even the migrated bytes agree.
    let mut dm = durable.world().metrics().clone();
    dm.wal_records_appended = 0;
    dm.checkpoints = 0;
    dm.intents_logged = 0;
    dm.purchases_committed = 0;
    dm.profile_deltas_logged = 0;
    assert_eq!(pm, dm, "durability must be invisible outside its counters");
}

// ---------------------------------------------------------------------
// marketplace-host crash across the buy window
// ---------------------------------------------------------------------

/// Crash the *marketplace* host `offset_us` after `marker` of one Direct
/// buy, restart it `down_ms` later, and drive the platform to quiescence.
/// Returns the replies and the marketplace's units sold afterwards.
fn market_crash_run(
    seed: u64,
    sync_every: usize,
    marker: &str,
    offset_us: u64,
    down_ms: u64,
) -> (Vec<(ConsumerId, ResponseBody)>, Option<u32>) {
    let at = probe_marker(seed, marker);
    let mut p = Platform::builder(seed)
        .marketplaces(listings())
        .mba_timeout_us(2_000_000)
        .bra_retry(BackoffPolicy::new(200_000, 1_600_000, 3))
        .durability(DurabilityConfig {
            checkpoint_every: 0,
            sync_every,
        })
        .build();
    p.login(CONSUMER);
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    p.world_mut()
        .run_until(at + SimDuration::from_micros(offset_us));
    let market = p.markets()[0];
    p.world_mut().crash_host(market.host).unwrap();
    p.world_mut().run_for(SimDuration::from_millis(down_ms));
    p.world_mut().restart_host(market.host).unwrap();
    let wave = p.run_and_drain();
    let sold = p
        .world()
        .snapshot_of(market.agent)
        .ok()
        .and_then(|s| serde_json::from_value::<ecp::MarketplaceAgent>(s).ok())
        .map(|m| m.units_sold(ItemId(1)));
    (wave, sold)
}

/// The marketplace host dies anywhere in the buy window — while the MBA
/// travels to it, the instant it lands, around the sale, or once it has
/// left — under every sync batch size, and restart it 50 ms later. The
/// marketplace must come back with its listings and ledger (its first
/// capsule and every sale are forced to stable storage), and the consumer
/// gets exactly one answer that matches the sales on record. The last
/// point keeps the host down for 15 s, past the BRA's give-up (about 6 s
/// for the BSMA watchdog plus 5 s of ledger re-sends): the MBA restored
/// then must not sell under the intent its BRA has already abandoned.
#[test]
fn marketplace_host_crash_anywhere_in_the_buy_is_answered_exactly_once() {
    let seed = 404;
    let points = [
        ("fig4.3/step08", 50, 50),
        ("fig4.3/step09", 0, 50),
        ("fig4.3/step09", 1, 50),
        ("fig4.3/step10", 0, 50),
        ("fig4.3/step10", 1, 50),
        ("fig4.3/step11", 0, 50),
        ("fig4.3/step09", 0, 15_000),
    ];
    for sync_every in [1usize, 2, 16, 64] {
        for (marker, offset_us, down_ms) in points {
            let case =
                format!("sync_every {sync_every}, {marker} + {offset_us}us, down {down_ms} ms");
            let (wave, sold) = market_crash_run(seed, sync_every, marker, offset_us, down_ms);
            let receipts = wave
                .iter()
                .filter(|(_, r)| matches!(r, ResponseBody::Receipt { .. }))
                .count();
            let errors = wave
                .iter()
                .filter(|(_, r)| matches!(r, ResponseBody::Error(_)))
                .count();
            assert_eq!(
                receipts + errors,
                1,
                "{case}: exactly one terminal reply expected, got {wave:?}"
            );
            assert_eq!(
                sold,
                Some(receipts as u32),
                "{case}: the recovered marketplace's sales must match the receipts"
            );
        }
    }
}

/// What a BRA did about a marketplace that died as the MBA landed: the
/// replies, its ledger re-sends, and when it sent its first ledger query
/// and when it gave up on the ledger (if it did).
struct LedgerOutage {
    wave: Vec<(ConsumerId, ResponseBody)>,
    resent: usize,
    first_query: Option<SimTime>,
    gave_up: Option<SimTime>,
}

/// Crash the marketplace host as the MBA lands and keep it down for
/// `down_ms` (for good with `None`). The BSMA's watchdog reports the MBA
/// lost about 6 s later (2 s timeout plus 4 s grace) and the BRA asks the
/// ledger of a host that is still dead. With `buyer_crash_at`, the buyer
/// host also crashes then and restarts 10 ms later.
fn ledger_outage_run(
    seed: u64,
    down_ms: Option<u64>,
    buyer_crash_at: Option<SimTime>,
) -> LedgerOutage {
    let at = probe_marker(seed, "fig4.3/step09");
    let mut p = durable_platform(seed);
    p.login(CONSUMER);
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    p.world_mut().run_until(at);
    let market = p.markets()[0].host;
    p.world_mut().crash_host(market).unwrap();
    if let Some(crash_at) = buyer_crash_at {
        let buyer = p.buyer_host();
        p.world_mut().run_until(crash_at);
        p.world_mut().crash_host(buyer).unwrap();
        p.world_mut().run_for(SimDuration::from_millis(10));
        p.world_mut().restart_host(buyer).unwrap();
    }
    if let Some(ms) = down_ms {
        p.world_mut().run_until(at + SimDuration::from_millis(ms));
        p.world_mut().restart_host(market).unwrap();
    }
    let wave = p.run_and_drain();
    let events = p.world().trace().events();
    let first = |marker: &str| {
        events
            .iter()
            .find(|e| e.label.contains(marker))
            .map(|e| e.at)
    };
    LedgerOutage {
        resent: events
            .iter()
            .filter(|e| e.label.contains("unanswered, re-sending"))
            .count(),
        first_query: first("querying marketplace ledger"),
        gave_up: first("marketplace ledger unreachable"),
        wave,
    }
}

#[test]
fn ledger_query_to_a_dead_marketplace_is_resent_then_answered() {
    // down past the first ledger query (~6.0 s), back before the first
    // re-send (~6.7 s)
    let run = ledger_outage_run(404, Some(6_300), None);
    let wave = &run.wave;
    assert_eq!(wave.len(), 1, "exactly one answer: {wave:?}");
    assert!(
        matches!(wave[0].1, ResponseBody::Receipt { .. }),
        "the re-sent query finds the recovered ledger: {wave:?}"
    );
    assert_eq!(run.resent, 1, "the dead-lettered query was re-sent once");
}

#[test]
fn ledger_query_to_a_marketplace_that_stays_dead_ends_in_an_explicit_error() {
    let run = ledger_outage_run(404, None, None);
    let wave = &run.wave;
    assert_eq!(wave.len(), 1, "exactly one answer, never silence: {wave:?}");
    assert_eq!(
        run.resent, 3,
        "re-sent under the BRA's backoff policy (3 retries)"
    );
    match &wave[0].1 {
        ResponseBody::Error(reason) => assert!(
            reason.contains("ledger unreachable"),
            "the error names the cause: {reason}"
        ),
        other => panic!("expected an explicit error, got {other:?}"),
    }
}

/// A buyer-host crash in the middle of a ledger outage: the recovered BRA
/// re-queries and arms a fresh timer, while the timer armed before the
/// crash may still fire. Only the timer of the current query counts, so
/// the BRA keeps its backoff schedule instead of spending its re-sends
/// twice as fast.
#[test]
fn buyer_host_crash_mid_ledger_outage_keeps_the_backoff_schedule() {
    let calm = ledger_outage_run(404, None, None);
    let first_query = calm.first_query.expect("the BRA queried the ledger");
    let crashed = ledger_outage_run(404, None, Some(first_query + SimDuration::from_millis(100)));
    let wave = &crashed.wave;
    assert_eq!(wave.len(), 1, "exactly one answer: {wave:?}");
    assert!(matches!(wave[0].1, ResponseBody::Error(_)), "{wave:?}");
    assert_eq!(crashed.resent, 3, "one re-send per query, not per timer");
    assert!(
        crashed.gave_up >= calm.gave_up,
        "gave up at {:?}, before the crash-free schedule's {:?}",
        crashed.gave_up,
        calm.gave_up
    );
}

// ---------------------------------------------------------------------
// checkpointing bounds replay
// ---------------------------------------------------------------------

#[test]
fn checkpoints_bound_replay_cost() {
    let run = |checkpoint_every: usize| {
        let mut p = Platform::builder(808)
            .marketplaces(listings())
            .mba_timeout_us(2_000_000)
            .bra_retry(BackoffPolicy::new(200_000, 1_600_000, 3))
            .durability(DurabilityConfig {
                checkpoint_every,
                sync_every: 1,
            })
            .build();
        p.login(CONSUMER);
        for _ in 0..6 {
            p.query(CONSUMER, &["rust"], 5);
        }
        let host = p.buyer_host();
        p.world_mut().crash_host(host).unwrap();
        p.world_mut().run_for(SimDuration::from_micros(100));
        p.world_mut().restart_host(host).unwrap();
        p.world_mut().run_until_idle();
        let m = p.world().metrics().clone();
        // recovered platform still serves
        let responses = p.query(CONSUMER, &["rust"], 5);
        assert!(matches!(
            &responses[0],
            ResponseBody::Recommendations { .. }
        ));
        m
    };
    let without = run(0);
    let with = run(32);
    assert_eq!(without.checkpoints, 0);
    assert!(with.checkpoints >= 1, "{with:?}");
    assert!(
        with.wal_records_replayed < without.wal_records_replayed,
        "checkpointing must shrink the replayed log: {} vs {}",
        with.wal_records_replayed,
        without.wal_records_replayed
    );
}

// ---------------------------------------------------------------------
// amortised checkpoints: a delta-journalled agent is re-captured only
// once its deltas outweigh its last capsule
// ---------------------------------------------------------------------

/// A seeded durable checkout run (a PA over 200 residents and 300
/// listings, then sessions of one query and two buys) takes at least ten
/// buyer-host checkpoints, and the PA's capsule is re-captured at no more
/// than two of them: its deltas between checkpoints are a small fraction
/// of its capsule. Capturing it at every checkpoint would count one
/// capture per checkpoint here.
#[test]
fn checkout_checkpoints_seldom_recapture_the_pa() {
    use abcrm::core::learning::BehaviorKind;
    use std::sync::Arc;

    const TOPICS: [&str; 4] = ["rust", "go", "sql", "ml"];
    let items: Vec<ecp::protocol::Listing> = (1..=300u64)
        .map(|i| {
            let topic = TOPICS[(i % 4) as usize];
            let tag = format!("tag{i}");
            let name = format!("Item {i}");
            listing(
                i,
                &name,
                "books",
                topic,
                20 + i,
                &[(topic, 1.0), (&tag, 0.5)],
            )
        })
        .collect();
    let mut p = Platform::builder(909)
        .marketplaces(vec![items.clone()])
        .mba_timeout_us(2_000_000)
        .bra_retry(BackoffPolicy::new(200_000, 1_600_000, 3))
        .durability(DurabilityConfig::default())
        .build();
    // 200 residents with six behaviours each
    let history: Vec<_> = (0..1200u64)
        .map(|e| {
            let resident = 1 + e % 200;
            let item = items[((resident * 7 + e) % 300) as usize].item.clone();
            (ConsumerId(resident), item, BehaviorKind::Browse)
        })
        .collect();
    p.seed_events(&history);
    let consumers: Vec<ConsumerId> = (1..=8).map(ConsumerId).collect();
    for &c in &consumers {
        p.login(c);
    }
    let pa = p.pa().0;
    fn store(p: &Platform) -> &agentsim::durable::DurableStore {
        p.world()
            .durable_store(p.buyer_host())
            .expect("durable buyer host")
    }
    let mut wal = store(&p).wal_len();
    let mut capsule = Arc::clone(&store(&p).state().capsules[&pa].capsule);
    let (mut checkpoints, mut captures) = (0, 0);
    for round in 0..12u64 {
        for (k, &c) in consumers.iter().enumerate() {
            let topic = TOPICS[(round as usize + k) % 4];
            p.submit_task(
                c,
                ConsumerTask::Query {
                    keywords: vec![topic.to_string()],
                    category: None,
                    max_results: 5,
                },
            );
            for b in 0..2u64 {
                p.submit_task(
                    c,
                    ConsumerTask::Buy {
                        item: ItemId(1 + (round * 8 + k as u64 * 3 + b) % 300),
                        market: p.markets()[0],
                        mode: BuyMode::Direct,
                    },
                );
            }
        }
        // a world step runs at most one checkpoint per host, and the
        // checkpoint is the step's last act: the buyer host checkpointed
        // in this step iff its non-empty WAL is now empty (no step
        // appends anywhere near `checkpoint_every` records)
        while p.world_mut().step() {
            let s = store(&p);
            if s.wal_len() == 0 && wal > 0 {
                checkpoints += 1;
            }
            wal = s.wal_len();
            let now = &s.state().capsules[&pa].capsule;
            if !Arc::ptr_eq(now, &capsule) {
                captures += 1;
                capsule = Arc::clone(now);
            }
        }
        let wave = p.run_and_drain();
        assert_eq!(
            wave.len(),
            consumers.len() * 3,
            "one reply per task: {wave:?}"
        );
    }
    assert!(checkpoints >= 10, "{checkpoints} buyer-host checkpoints");
    assert!(
        captures <= 2,
        "the PA was captured at {captures} of {checkpoints} checkpoints"
    );
}

/// A durable platform (checkpoints off, so the WAL holds everything)
/// whose PA is deactivated and activated, then records `before` purchases
/// before and one purchase after that round trip.
fn pa_reactivated_then_bought(before: u64) -> Platform {
    use abcrm::core::agents::msg::{kinds, PaRecord};
    use abcrm::core::learning::BehaviorKind;
    use agentsim::message::Message;

    let mut p = Platform::builder(77)
        .marketplaces(listings())
        .durability(DurabilityConfig {
            checkpoint_every: 0,
            sync_every: 1,
        })
        .build();
    let pa = p.pa();
    let item = listings()[0][0].item.clone();
    let purchase = |p: &mut Platform, at_us: u64| {
        let record = Message::new(kinds::PA_RECORD)
            .with_payload(&PaRecord {
                consumer: CONSUMER,
                item: item.clone(),
                kind: BehaviorKind::Purchase,
                price: None,
                at_us,
            })
            .unwrap();
        p.world_mut().send_external(pa, record).unwrap();
        p.world_mut().run_until_idle();
    };
    for at_us in 0..before {
        purchase(&mut p, at_us);
    }
    p.world_mut().deactivate_agent(pa).unwrap();
    p.world_mut().run_until_idle();
    p.world_mut().activate_agent(pa).unwrap();
    p.world_mut().run_until_idle();
    purchase(&mut p, before);
    assert_eq!(
        p.pa_state().userdb().transaction_count(),
        before as usize + 1
    );
    p
}

/// An activated delta-journalled agent journals its active capsule:
/// without it the durable store kept the capsule its deactivation wrote,
/// recovery restored the PA deactivated and dropped every delta logged
/// since the activation. The purchase made before the deactivation is in
/// the journalled capsule and must not be replayed a second time.
#[test]
fn reactivated_pa_recovers_active_with_its_later_deltas() {
    for before in [0u64, 1] {
        let mut p = pa_reactivated_then_bought(before);
        let (pa, host) = (p.pa(), p.buyer_host());
        p.world_mut().crash_host(host).unwrap();
        p.world_mut().run_for(SimDuration::from_micros(100));
        p.world_mut().restart_host(host).unwrap();
        p.world_mut().run_until_idle();
        assert!(
            matches!(p.world().location(pa), Some(Location::Active(h)) if h == host),
            "{before} earlier purchases: the PA must come back active, is {:?}",
            p.world().location(pa)
        );
        assert_eq!(
            p.pa_state().userdb().transaction_count(),
            before as usize + 1,
            "{before} earlier purchases: every purchase recovered exactly once"
        );
    }
}

// ---------------------------------------------------------------------
// sharded platforms: the same crash-and-recover path at 1, 2 and 4 shards
// ---------------------------------------------------------------------

#[test]
fn sharded_buy_survives_buyer_host_crash_at_1_2_4_shards() {
    for shards in [1usize, 2, 4] {
        let seed = 900 + shards as u64;
        let build = || {
            ShardedPlatform::builder(seed, shards)
                .marketplaces(listings())
                .mba_timeout_us(2_000_000)
                .bra_retry(BackoffPolicy::new(200_000, 1_600_000, 3))
                .durability(DurabilityConfig::default())
                .build()
        };
        // pick a consumer owned by the LAST shard so the crash exercises
        // a cross-shard trip whenever shards > 1
        let probe = build();
        let consumer = (1..10_000u64)
            .map(ConsumerId)
            .find(|c| probe.shard_of(*c) == shards - 1)
            .expect("hash covers the last shard");
        // probe the dispatch marker on a clean run
        let mut clean = build();
        clean.login(consumer);
        clean.submit_task(
            consumer,
            ConsumerTask::Buy {
                item: ItemId(1),
                market: clean.markets()[0],
                mode: BuyMode::Direct,
            },
        );
        let wave = clean.run_and_drain();
        assert!(
            wave.iter()
                .any(|(_, r)| matches!(r, ResponseBody::Receipt { .. })),
            "{shards}-shard probe run must complete: {wave:?}"
        );
        let dispatched = clean
            .world()
            .trace_events()
            .iter()
            .find(|e| e.label.contains("fig4.3/step08"))
            .expect("dispatch marker present")
            .at;

        let mut p = build();
        p.login(consumer);
        p.submit_task(
            consumer,
            ConsumerTask::Buy {
                item: ItemId(1),
                market: p.markets()[0],
                mode: BuyMode::Direct,
            },
        );
        p.world_mut()
            .run_until(dispatched + SimDuration::from_micros(50));
        let buyer_host = p.buyer_host(shards - 1);
        p.world_mut().crash_host(buyer_host).unwrap();
        p.world_mut()
            .run_until(dispatched + SimDuration::from_micros(550));
        p.world_mut().restart_host(buyer_host).unwrap();
        p.world_mut().run_until_idle();
        let wave = p.run_and_drain();
        let receipts = wave
            .iter()
            .filter(|(_, r)| matches!(r, ResponseBody::Receipt { .. }))
            .count();
        assert_eq!(receipts, 1, "{shards} shards: {wave:?}");
        let snapshot = p
            .world()
            .shard(0)
            .snapshot_of(p.markets()[0].agent)
            .expect("marketplace active");
        let market: ecp::MarketplaceAgent = serde_json::from_value(snapshot).expect("state parses");
        assert_eq!(
            market.units_sold(ItemId(1)),
            1,
            "{shards} shards: exactly one sale"
        );
        let m = p.metrics();
        assert_eq!(m.hosts_recovered, 1, "{shards} shards: {m:?}");
        assert_eq!(m.purchases_committed, 1, "{shards} shards: {m:?}");
    }
}

// ---------------------------------------------------------------------
// DES ≡ ThreadWorld: the same crash plan lands in the same outcome class
// on both runtimes
// ---------------------------------------------------------------------

/// The recovery outcome class both runtimes must agree on for the
/// buy → crash → restart → buy scenario.
#[derive(Debug, PartialEq, Eq)]
struct OutcomeClass {
    receipts: usize,
    intents_logged: u64,
    purchases_committed: u64,
    purchases_aborted: u64,
    hosts_recovered: u64,
}

/// Drive the scenario on the deterministic DES.
fn des_outcome(seed: u64) -> OutcomeClass {
    let mut p = durable_platform(seed);
    p.login(CONSUMER);
    let mut receipts = 0usize;
    for item in [ItemId(1), ItemId(2)] {
        p.submit_task(
            CONSUMER,
            ConsumerTask::Buy {
                item,
                market: p.markets()[0],
                mode: BuyMode::Direct,
            },
        );
        let wave = p.run_and_drain();
        receipts += wave
            .iter()
            .filter(|(_, r)| matches!(r, ResponseBody::Receipt { .. }))
            .count();
        if item == ItemId(1) {
            let host = p.buyer_host();
            p.world_mut().crash_host(host).unwrap();
            p.world_mut().run_for(SimDuration::from_micros(500));
            p.world_mut().restart_host(host).unwrap();
            p.world_mut().run_until_idle();
        }
    }
    let m = p.world().metrics();
    OutcomeClass {
        receipts,
        intents_logged: m.intents_logged,
        purchases_committed: m.purchases_committed,
        purchases_aborted: m.purchases_aborted,
        hosts_recovered: m.hosts_recovered,
    }
}

/// Drive the same scenario on real threads.
fn thread_outcome(seed: u64) -> OutcomeClass {
    use abcrm::core::agents::msg::{kinds as msgkinds, MarketRef, RoutedTask, SessionRequest};
    use abcrm::core::agents::{register_all, Bsma, BsmaConfig};
    use agentsim::message::Message;
    use agentsim::thread_net::ThreadWorldBuilder;
    use std::time::Duration;

    let mut builder = ThreadWorldBuilder::new(seed);
    builder.durability(DurabilityConfig::default());
    register_all(builder.registry_mut());
    let market_host = builder.add_host("marketplace");
    let seller_host = builder.add_host("seller");
    let buyer_host = builder.add_host("buyer-agent-server");
    let world = builder.start();

    let market = world
        .create_agent(market_host, Box::new(ecp::MarketplaceAgent::new("m0")))
        .unwrap();
    world
        .create_agent(
            seller_host,
            Box::new(ecp::SellerAgent::new(
                1,
                "s0",
                listings().remove(0),
                vec![market],
            )),
        )
        .unwrap();
    assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());

    let bsma = world
        .create_agent(
            buyer_host,
            Box::new(Bsma::new(BsmaConfig {
                target: buyer_host,
                markets: vec![MarketRef {
                    host: market_host,
                    agent: market,
                }],
                mba_timeout_us: 400_000, // 0.4s real time on this runtime
                ..BsmaConfig::default()
            })),
        )
        .unwrap();
    assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());

    world
        .send_external(
            bsma,
            Message::new(msgkinds::LOGIN)
                .with_payload(&SessionRequest { consumer: CONSUMER })
                .unwrap(),
        )
        .unwrap();
    assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());

    for item in [ItemId(1), ItemId(2)] {
        world
            .send_external(
                bsma,
                Message::new(msgkinds::ROUTE_TASK)
                    .with_payload(&RoutedTask {
                        consumer: CONSUMER,
                        task: ConsumerTask::Buy {
                            item,
                            market: MarketRef {
                                host: market_host,
                                agent: market,
                            },
                            mode: BuyMode::Direct,
                        },
                        blocked_markets: Vec::new(),
                    })
                    .unwrap(),
            )
            .unwrap();
        assert!(
            world.run_until_idle(Duration::from_secs(30)).is_idle(),
            "buy of {item:?} quiesces"
        );
        if item == ItemId(1) {
            world.crash_host(buyer_host).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            world.restart_host(buyer_host).unwrap();
            assert!(
                world.run_until_idle(Duration::from_secs(30)).is_idle(),
                "recovery quiesces"
            );
        }
    }

    let (metrics, trace) = world.shutdown();
    let receipts = trace
        .labels()
        .iter()
        .filter(|l| l.contains("bra responds with receipt"))
        .count();
    OutcomeClass {
        receipts,
        intents_logged: metrics.intents_logged,
        purchases_committed: metrics.purchases_committed,
        purchases_aborted: metrics.purchases_aborted,
        hosts_recovered: metrics.hosts_recovered,
    }
}

#[test]
fn des_and_thread_world_recover_to_the_same_outcome_class() {
    let expected = OutcomeClass {
        receipts: 2,
        intents_logged: 2,
        purchases_committed: 2,
        purchases_aborted: 0,
        hosts_recovered: 1,
    };
    assert_eq!(des_outcome(1111), expected, "DES outcome");
    assert_eq!(thread_outcome(1111), expected, "thread outcome");
}

#[test]
fn thread_world_recovers_the_same_outcome_on_a_second_seed() {
    let expected = OutcomeClass {
        receipts: 2,
        intents_logged: 2,
        purchases_committed: 2,
        purchases_aborted: 0,
        hosts_recovered: 1,
    };
    assert_eq!(des_outcome(2222), expected, "DES outcome");
    assert_eq!(thread_outcome(2222), expected, "thread outcome");
}
