//! E12 — overload protection under 10× admission-rate pressure.
//!
//! The series drives the full Buyer Agent Server at ten times the
//! admission bucket's sustained rate and compares an unprotected
//! platform against one with the whole protection stack switched on
//! (admission control, request deadlines, bounded mailboxes, breakers).
//! Reported per run: goodput (answered recommendations per second of
//! elapsed simulated time), shed rate (fraction of requests refused —
//! explicit `Overloaded` replies plus bounded-mailbox rejections), p99
//! end-to-end latency of accepted requests, and the deepest mailbox
//! observed. `errors` counts the BRA's per-consumer "busy with a
//! previous task" serialization, which is load-independent.
//!
//! Criterion times the two ingress paths the series exercises: a fully
//! served burst (unprotected) and a mostly-shed burst (protected with an
//! exhausted bucket) — the latter is the fast path that keeps an
//! overloaded server responsive.
//!
//! `OVERLOAD_BENCH_QUICK=1` shrinks the series for CI smoke runs.

use abcrm_core::admission::AdmissionConfig;
use abcrm_core::agents::msg::{ConsumerTask, ResponseBody};
use abcrm_core::breaker::BreakerConfig;
use abcrm_core::profile::ConsumerId;
use abcrm_core::server::{listing, Platform};
use agentsim::clock::SimDuration;
use agentsim::overload::MailboxConfig;
use criterion::{criterion_group, criterion_main, Criterion};

/// Sustained admission rate the protected run is provisioned for.
const RATE_PER_SEC: f64 = 50.0;
/// Token bucket depth.
const BURST: f64 = 16.0;
/// Requests arrive at 10× the sustained rate: one every 2 ms.
const ARRIVAL_GAP_US: u64 = 1_000_000 / (10 * RATE_PER_SEC as u64);
/// End-to-end deadline each admitted request runs under (protected run).
const DEADLINE_US: u64 = 100_000;

fn quick() -> bool {
    std::env::var("OVERLOAD_BENCH_QUICK").is_ok()
}

fn build(seed: u64, consumers: u64, protected: bool) -> Platform {
    let mut b = Platform::builder(seed)
        .telemetry(true)
        .marketplaces(vec![vec![
            listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]),
            listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]),
        ]])
        .mba_timeout_us(200_000);
    if protected {
        b = b
            .admission(AdmissionConfig {
                rate_per_sec: RATE_PER_SEC,
                burst: BURST,
                transaction_reserve: 0.125,
                query_reserve: 0.125,
            })
            .request_deadline_us(DEADLINE_US)
            .breaker(BreakerConfig {
                window: 8,
                failure_threshold: 0.5,
                min_samples: 4,
                cooldown_us: 1_000_000,
            })
            .mailbox(MailboxConfig::new(64));
    } else {
        // instrumentation-only: a bound this deep never rejects, it just
        // records how far the unprotected queue grows
        b = b.mailbox(MailboxConfig::new(1_000_000));
    }
    let mut p = b.build();
    for c in 1..=consumers {
        p.login(ConsumerId(c));
        // a paced login window so session setup is never what gets shed
        p.world_mut().run_for(SimDuration::from_micros(200_000));
    }
    p
}

#[derive(Clone, Copy, PartialEq)]
enum Arrival {
    /// One request every [`ARRIVAL_GAP_US`] — 10× the sustained rate.
    Paced,
    /// Every request injected at the same instant (thundering herd);
    /// this is what actually builds queue depth.
    Flood,
}

struct RunReport {
    answered: u64,
    shed: u64,
    mailbox_rejected: u64,
    errors: u64,
    goodput_per_sec: f64,
    shed_rate: f64,
    p99_accepted_us: Option<u64>,
    max_queue_depth: usize,
    deadline_drops: u64,
}

/// Offer `requests` queries under the given arrival pattern and account
/// for every reply.
fn drive(p: &mut Platform, consumers: u64, requests: u64, arrival: Arrival) -> RunReport {
    let rejected_before = p.world().metrics().mailbox_rejections;
    let started = p.world().now();
    for i in 0..requests {
        let consumer = ConsumerId(1 + (i % consumers));
        p.submit_task(
            consumer,
            ConsumerTask::Query {
                keywords: vec!["rust".into()],
                category: None,
                max_results: 5,
            },
        );
        if arrival == Arrival::Paced {
            p.world_mut()
                .run_for(SimDuration::from_micros(ARRIVAL_GAP_US));
        }
    }
    let replies = p.run_and_drain();
    let mut answered = 0u64;
    let mut shed = 0u64;
    let mut errors = 0u64;
    for (_, body) in &replies {
        match body {
            ResponseBody::Recommendations { .. } => answered += 1,
            ResponseBody::Overloaded { .. } => shed += 1,
            _ => errors += 1,
        }
    }
    let metrics = p.world().metrics();
    let mailbox_rejected = metrics.mailbox_rejections - rejected_before;
    let elapsed_s = (p.world().now().as_micros() - started.as_micros()) as f64 / 1_000_000.0;
    RunReport {
        answered,
        shed,
        mailbox_rejected,
        errors,
        goodput_per_sec: answered as f64 / elapsed_s.max(1e-6),
        shed_rate: (shed + mailbox_rejected) as f64 / requests as f64,
        p99_accepted_us: p
            .telemetry()
            .registry()
            .histogram("e2e.latency_us")
            .map(|h| h.quantile(0.99)),
        max_queue_depth: p.world().mailbox_max_depth(),
        deadline_drops: metrics.deadline_drops,
    }
}

fn report_json(label: &str, r: &RunReport) -> serde_json::Value {
    serde_json::json!({
        "run": label,
        "answered": r.answered,
        "shed_replies": r.shed,
        "mailbox_rejected": r.mailbox_rejected,
        "errors": r.errors,
        "goodput_per_sec": (r.goodput_per_sec * 10.0).round() / 10.0,
        "shed_rate": (r.shed_rate * 1000.0).round() / 1000.0,
        "p99_accepted_latency_us": r.p99_accepted_us,
        "max_queue_depth": r.max_queue_depth,
        "deadline_drops": r.deadline_drops,
    })
}

fn overload_series() {
    let consumers = 8;
    let requests: u64 = if quick() { 100 } else { 400 };
    println!(
        "E12 overload: {requests} queries at 10x the {RATE_PER_SEC}/s admission rate \
         ({consumers} consumers, one arrival per {ARRIVAL_GAP_US}us when paced)"
    );
    let mut rows = Vec::new();
    let runs = [
        ("paced-unprotected", Arrival::Paced, false),
        ("paced-protected", Arrival::Paced, true),
        ("flood-unprotected", Arrival::Flood, false),
        ("flood-protected", Arrival::Flood, true),
    ];
    for (label, arrival, protected) in runs {
        let mut p = build(42, consumers, protected);
        let r = drive(&mut p, consumers, requests, arrival);
        println!(
            "  {label:<18} answered {:>4}  shed {:>4}  mbox-rej {:>4}  errors {:>3}  \
             goodput {:>8.1}/s  shed-rate {:>5.1}%  p99 {:?}us  max-queue {}",
            r.answered,
            r.shed,
            r.mailbox_rejected,
            r.errors,
            r.goodput_per_sec,
            r.shed_rate * 100.0,
            r.p99_accepted_us,
            r.max_queue_depth,
        );
        rows.push(report_json(label, &r));
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&serde_json::json!({ "series": rows })).unwrap()
    );
}

fn bench(c: &mut Criterion) {
    overload_series();

    let burst: u64 = if quick() { 20 } else { 60 };
    let mut group = c.benchmark_group("E12_overload");
    group.sample_size(10);
    // the platforms live across iterations: the unprotected one keeps
    // serving, the protected one keeps shedding from an exhausted bucket
    let mut served = build(7, 4, false);
    group.bench_function("served_burst_unprotected", |b| {
        b.iter(|| drive(&mut served, 4, burst, Arrival::Paced).answered);
    });
    let mut shedding = build(7, 4, true);
    // exhaust the bucket first so the timed burst measures the shed
    // fast path an overloaded server lives on
    drive(&mut shedding, 4, BURST as u64 + 8, Arrival::Paced);
    group.bench_function("shed_fast_path_protected", |b| {
        b.iter(|| drive(&mut shedding, 4, burst, Arrival::Paced).shed);
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
