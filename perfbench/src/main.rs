//! End-to-end session benchmark of the agent platform.
//!
//! Drives the full platform — HttpA → BSMA → BRA → MBA migration →
//! marketplace → PA — through one of three closed-loop workloads
//! (`browse`, `checkout`, `crowd`) and prints every metric by name with
//! its unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```bash
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload browse --seed 1 --seconds 20 --trace 0 [--quick]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics (host wall-clock time,
//! tracing off). `--trace 1` runs the same requests again with telemetry
//! on and reports the per-layer metrics, exporting a Chrome trace to
//! `perfbench/out/<workload>.trace.json`. `--quick` runs the workload at
//! toy size.

mod drive;
mod inputs;
mod layers;
mod stats;

use drive::{run_phase, Phase, Plain, Stack, Tally};
use inputs::{Inputs, Workload};
use layers::Traced;
use stats::{median, ms, quantile};
use std::time::Duration;

/// Where the traced run writes its Chrome trace.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// How far the split path (send, run to idle, drain) may be from the
/// plain one (send, `run_and_drain`) in per-request host time, as a share
/// of the plain time, before the traced run fails its attribution check.
const ATTRIBUTION_TOLERANCE: f64 = 0.10;

/// Command-line options.
#[derive(Debug)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

impl Options {
    fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace, mut quick) = (1u64, 10.0f64, false, false);
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value()?)?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    };
                }
                "--quick" => quick = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            quick,
        })
    }
}

/// What one invocation reports.
#[derive(Debug, Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    lines: Vec<String>,
    problems: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
        self.lines
            .push(format!("  {name:<36} {value:>14.6} {unit}"));
    }

    fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    fn json(&self) -> serde_json::Value {
        let metrics: serde_json::Map = self
            .metrics
            .iter()
            .map(|(n, v, u)| (n.to_string(), serde_json::json!({ "value": v, "unit": u })))
            .collect();
        serde_json::json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })
    }
}

fn header(opts: &Options, report: &mut Report) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let scale = inputs::Scale::of(opts.workload, opts.quick);
    report.lines.push(format!(
        "perfbench workload={} seed={} seconds={} trace={} quick={} nproc={nproc} profile={profile}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.quick
    ));
    report.lines.push(format!("scale: {scale:?}"));
}

/// Check that `phase` reproduced `reference` exactly (same seed, same
/// requests).
fn check_phase(report: &mut Report, label: &str, phase: &Phase, reference: &Phase) {
    report.lines.push(format!(
        "check {label}: {} units, reply digest={:016x} {}",
        phase.units, phase.digest, phase.counters
    ));
    report.require(
        phase.digest == reference.digest && phase.counters == reference.counters,
        format!("{label}: replies or simulated counters differ from another run of the seed"),
    );
}

/// Record a tally's failures.
fn check_tally(report: &mut Report, label: &str, tally: &Tally) {
    report.require(
        tally.failed == 0,
        format!("{label}: {} failed requests", tally.failed),
    );
    for f in &tally.failures {
        report.problems.push(format!("{label}: {f}"));
    }
}

/// Purchases must be two-phase and at-most-once on the durable
/// workload: one logged intent and one commit per receipt.
fn check_purchases(report: &mut Report, stack: &Stack, receipts: u64) {
    let m = stack.metrics();
    if stack.worlds()[0].durability().is_some() {
        report.require(
            m.purchases_committed == receipts && m.intents_logged == receipts,
            format!(
                "{receipts} receipts but {} intents logged, {} committed",
                m.intents_logged, m.purchases_committed
            ),
        );
    }
}

/// Host times of one replica's requests, in request order (on `crowd`,
/// every task of a wave has the wave's time).
#[derive(Clone)]
struct Times {
    exchange_ms: Vec<f64>,
    request_ms: Vec<f64>,
    query_ms: Vec<f64>,
    buy_ms: Vec<f64>,
}

impl Times {
    fn of(t: &Tally) -> Times {
        Times {
            exchange_ms: t.exchange_ms.clone(),
            request_ms: t.request_ms.clone(),
            query_ms: t.query_ms.clone(),
            buy_ms: t.buy_ms.clone(),
        }
    }

    /// Keep, for each request, the faster of its time here and in
    /// `other`, a replica of the same requests.
    fn keep_faster(&mut self, other: &Times) {
        for (mine, theirs) in [
            (&mut self.exchange_ms, &other.exchange_ms),
            (&mut self.request_ms, &other.request_ms),
            (&mut self.query_ms, &other.query_ms),
            (&mut self.buy_ms, &other.buy_ms),
        ] {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a = a.min(*b);
            }
        }
    }

    fn requests_per_s(&self) -> f64 {
        self.request_ms.len() as f64 * 1e3 / self.exchange_ms.iter().sum::<f64>()
    }

    fn row(&self, label: &str) -> String {
        format!(
            "{label:>9} {:>12.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            self.requests_per_s(),
            median(&self.request_ms),
            quantile(&self.request_ms, 0.9),
            median(&self.query_ms),
            median(&self.buy_ms)
        )
    }
}

/// `--trace 0`: end-to-end metrics with tracing off. A run repeats one
/// replica of the workload — a platform freshly built from the seed,
/// driven with the seed's first sessions — several times. Every replica
/// sends the same requests to a platform in the same states, so the run
/// keeps each request's (or wave's) fastest time over the replicas and
/// computes every timing metric from these: the host's CPU speed drifts
/// by tens of percent over seconds, and the fastest time is the one least
/// slowed by it. `setup_s` is likewise the fastest set-up.
fn timed_run(opts: &Options, report: &mut Report) -> Result<(), String> {
    let scale = inputs::Scale::of(opts.workload, opts.quick);
    let units = scale.units_per_replica;
    let replicas = scale.replicas(opts.seconds);
    let builds_per_replica = scale.setups.div_ceil(replicas).max(1);
    let mut setups = Vec::new();
    let mut fastest: Option<Times> = None;
    let mut first: Option<(Phase, Tally)> = None;
    report
        .lines
        .push("  replica   requests/s     p50 ms     p90 ms   query ms     buy ms".into());
    for replica in 0..replicas {
        let mut inputs = Inputs::generate(opts.workload, opts.seed, opts.quick);
        for _ in 1..builds_per_replica {
            let (stack, setup) = Stack::build(&inputs, scale.shards);
            setups.push(setup.as_secs_f64());
            drop(stack);
        }
        let (mut stack, setup) = Stack::build(&inputs, scale.shards);
        setups.push(setup.as_secs_f64());
        let mut tally = Tally::default();
        let phase = run_phase(&mut stack, &mut inputs, units, &mut Plain, &mut tally);
        check_purchases(report, &stack, tally.receipts);
        check_tally(report, &format!("replica {replica}"), &tally);
        let times = Times::of(&tally);
        report.lines.push(times.row(&replica.to_string()));
        fastest
            .get_or_insert_with(|| times.clone())
            .keep_faster(&times);
        report.attempted += tally.attempted;
        report.failed += tally.failed;
        let reference = first
            .get_or_insert_with(|| (phase.clone(), tally))
            .0
            .clone();
        check_phase(report, &format!("replica {replica}"), &phase, &reference);
    }
    let fastest = fastest.expect("at least two replicas");
    report.lines.push(fastest.row("fastest"));
    let (_, t) = first.expect("at least two replicas");
    // on crowd every task of a wave carries the wave's time, so the
    // independent timings are the waves, fewer than the requests
    let beyond_p90 = t.request_ms.len() / 10;
    report.lines.push(format!(
        "samples per replica: {} requests ({} queries, {} buys) in {units} {}, {beyond_p90} \
         beyond p90; {} independent timings, {} beyond p90; {replicas} replicas",
        t.request_ms.len(),
        t.query_ms.len(),
        t.buy_ms.len(),
        if opts.workload == Workload::Crowd {
            "waves"
        } else {
            "sessions"
        },
        t.exchange_ms.len(),
        t.exchange_ms.len() / 10,
    ));
    report.require(beyond_p90 >= 10, "fewer than ten requests beyond p90");
    report.require(!t.buy_ms.is_empty(), "no buy was timed");
    report.lines.push(format!(
        "failed_ratio: {} ({} of {})",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    report.lines.push(format!(
        "recommendations: {} shown, {} relevant",
        t.shown, t.relevant
    ));
    report.lines.push(format!("setup_s: {setups:?}"));
    report.lines.push("metrics:".into());
    report.metric("requests_per_s", fastest.requests_per_s(), "1/s");
    report.metric("request_p50_ms", median(&fastest.request_ms), "ms");
    report.metric("request_p90_ms", quantile(&fastest.request_ms, 0.9), "ms");
    report.metric("query_p50_ms", median(&fastest.query_ms), "ms");
    report.metric("buy_p50_ms", median(&fastest.buy_ms), "ms");
    report.metric("rec_precision", t.precision(), "ratio");
    report.metric(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    report.metric("peak_rss_mb", stats::peak_rss_mb()?, "MiB");
    Ok(())
}

/// `--trace 1`: per-layer metrics from traced replicas. Two rounds each
/// run an untraced replica, then a traced one, of the same requests. The
/// untraced replicas alternate the plain path (send, `run_and_drain`)
/// and the split one (send, run to idle, drain) request by request, in
/// opposite phase, for the attribution check; per-request fastest times
/// of untraced and traced replicas give `trace.overhead`; the last traced
/// replica gives every other per-layer metric.
fn traced_run(opts: &Options, report: &mut Report) -> Result<(), String> {
    let scale = inputs::Scale::of(opts.workload, opts.quick);
    let units = scale.units_per_replica;
    let fresh = || Inputs::generate(opts.workload, opts.seed, opts.quick);

    let mut alternating: Vec<Vec<f64>> = Vec::new();
    let (mut untraced_fastest, mut traced_fastest): (Option<Times>, Option<Times>) = (None, None);
    let mut base: Option<Phase> = None;
    let mut last = None;
    for round in 0..2 {
        // one platform at a time: browse's is near a gigabyte
        drop(last.take());
        let mut inputs = fresh();
        let (mut stack, _) = Stack::build(&inputs, scale.shards);
        let mut tally = Tally::default();
        let mut driver = layers::Alternating::new(&stack, round);
        let phase = run_phase(&mut stack, &mut inputs, units, &mut driver, &mut tally);
        drop(stack);
        check_tally(report, "untraced", &tally);
        let base = base.get_or_insert_with(|| phase.clone()).clone();
        check_phase(report, &format!("untraced {round}"), &phase, &base);
        let times = Times::of(&tally);
        untraced_fastest
            .get_or_insert_with(|| times.clone())
            .keep_faster(&times);
        alternating.push(tally.exchange_ms);

        let mut inputs = fresh();
        let (mut stack, _) = Stack::build(&inputs, scale.shards);
        stack.enable_telemetry();
        let before = (stack.metrics(), layers::shard_events(&stack));
        let mut traced = Traced::new(&stack);
        let mut tally = Tally::default();
        let phase = run_phase(&mut stack, &mut inputs, units, &mut traced, &mut tally);
        check_phase(report, &format!("traced {round}"), &phase, &base);
        check_tally(report, "traced", &tally);
        check_purchases(report, &stack, tally.receipts);
        let times = Times::of(&tally);
        traced_fastest
            .get_or_insert_with(|| times.clone())
            .keep_faster(&times);
        last = Some((inputs, stack, before, traced, tally));
    }
    let untraced_rps = untraced_fastest.map_or(0.0, |t| t.requests_per_s());
    let traced_rps = traced_fastest.map_or(0.0, |t| t.requests_per_s());
    let split_over_plain = layers::split_over_plain(&alternating[0], &alternating[1]);
    let (inputs, mut stack, (before, events_before), traced, tally) = last.expect("two rounds ran");
    let after = stack.metrics();
    let events_after = layers::shard_events(&stack);
    let requests = tally.attempted as f64;
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    for w in stack.worlds() {
        report.require(
            w.telemetry().double_closes() == 0,
            "a span was closed twice",
        );
    }

    // handler attribution needs a world that can be stepped: on the
    // sharded workload, replay its first waves on one shard
    let single_shard;
    let (attr, attr_requests) = if opts.workload == Workload::Crowd {
        let mut inputs = fresh();
        let (mut single, _) = Stack::build(&inputs, 1);
        single.enable_telemetry();
        let mut t = Traced::new(&single);
        let mut single_tally = Tally::default();
        run_phase(
            &mut single,
            &mut inputs,
            units.min(10),
            &mut t,
            &mut single_tally,
        );
        check_tally(report, "1-shard replay", &single_tally);
        single_shard = t;
        (&single_shard, single_tally.attempted as f64)
    } else {
        (&traced, requests)
    };

    // trace export
    let doc = layers::chrome_trace(&stack);
    let trace_events =
        layers::validate_chrome_trace(&doc).map_err(|e| format!("chrome trace invalid: {e}"))?;
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    let path = std::path::Path::new(TRACE_DIR).join(format!("{}.trace.json", opts.workload.name()));
    let text = serde_json::to_string(&doc).map_err(|e| format!("trace encodes: {e}"))?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    report.lines.push(format!(
        "chrome trace: {trace_events} events, schema OK, written to {}",
        path.display()
    ));

    // standalone probes, outside every timed phase
    let (ann_us, recall) = layers::ann_probe(&inputs, &tally.queried);
    let (enc_us, dec_us) = match &tally.largest_reply {
        Some((_, body)) => layers::payload_probe(body),
        None => return Err("no Recommendations reply to probe".into()),
    };
    if stack.sessions().is_empty() {
        // leave one session open so a live BRA can be measured
        let market_ref = |i: usize| stack.market_ref(i);
        let mut probe_inputs = fresh();
        let session = probe_inputs.next_session(&market_ref);
        for r in &session.requests[..2] {
            stack.send(r);
            stack.run_and_drain();
        }
    }
    let (bra_bytes, capsule_us) = layers::capsule_probe(&stack).ok_or("no live BRA to measure")?;
    let (snapshot_bytes, replay_ms) = layers::wal_probe(&stack);

    let per = |d: Duration| ms(d) / requests;
    // share of the plain request time that the untraced split path's
    // send + run + drain does not cover (negative: the split costs more)
    let unaccounted = 1.0 - split_over_plain;
    // toy-size replicas last milliseconds, too short to compare
    report.require(
        opts.quick || unaccounted.abs() <= ATTRIBUTION_TOLERANCE,
        format!("send + run + drain leave {unaccounted:.4} of request time unaccounted"),
    );
    report.lines.push(format!(
        "attribution: traced send {:.3} ms + run {:.3} ms + drain {:.3} ms = {:.3} ms per \
         request; untraced, split path / plain path = {split_over_plain:.4}, {unaccounted:.4} \
         unaccounted (tolerance {ATTRIBUTION_TOLERANCE}); {} handler spans over \
         {attr_requests} requests",
        per(traced.send),
        per(traced.run),
        per(traced.drain),
        per(traced.send + traced.run + traced.drain),
        attr.handler_spans,
    ));
    report.lines.push("metrics:".into());
    let d = |f: fn(&agentsim::metrics::Metrics) -> u64| (f(&after) - f(&before)) as f64;
    report.metric("server.drain_ms", per(traced.drain), "ms");
    report.metric(
        "httpa.state_bytes",
        layers::httpa_state_bytes(&stack) as f64,
        "bytes",
    );
    report.metric("sim.run_ms", per(traced.run), "ms");
    report.metric(
        "sim.outside_handlers_ms",
        (ms(attr.run) - ms(attr.handler_total())) / attr_requests,
        "ms",
    );
    report.metric(
        "sim.host_us_per_message",
        traced.run.as_secs_f64() * 1e6 / d(|m| m.messages_delivered).max(1.0),
        "us",
    );
    report.metric(
        "sim.messages_per_request",
        d(|m| m.messages_delivered) / requests,
        "count",
    );
    report.metric(
        "sim.migrations_per_request",
        d(|m| m.migrations) / requests,
        "count",
    );
    report.metric(
        "sim.migration_bytes_per_request",
        d(|m| m.migration_bytes) / requests,
        "bytes",
    );
    report.metric(
        "sim.timers_per_request",
        d(|m| m.timers_fired) / requests,
        "count",
    );
    for (role, name) in layers::ROLES {
        let spent = attr.handler.get(role).copied().unwrap_or_default();
        report.metric(name, ms(spent) / attr_requests, "ms");
    }
    report.metric("ann.query_us", ann_us, "us");
    report.metric("ann.recall_at_10", recall, "ratio");
    report.metric(
        "cache.item_sim.hit_rate",
        layers::item_sim_hit_rate(&stack),
        "ratio",
    );
    report.metric("capsule.bra_bytes", bra_bytes as f64, "bytes");
    report.metric("capsule.encode_us", capsule_us, "us");
    report.metric("payload.encode_us", enc_us, "us");
    report.metric("payload.decode_us", dec_us, "us");
    report.metric(
        "wal.records_per_request",
        d(|m| m.wal_records_appended) / requests,
        "count",
    );
    report.metric("wal.checkpoints", d(|m| m.checkpoints), "count");
    report.metric("wal.snapshot_bytes", snapshot_bytes as f64, "bytes");
    report.metric("wal.replay_ms", replay_ms, "ms");
    report.metric(
        "shard.boundary_migrations_per_task",
        d(|m| m.boundary_migrations) / requests,
        "count",
    );
    report.metric(
        "shard.boundary_messages_per_task",
        d(|m| m.boundary_messages) / requests,
        "count",
    );
    report.metric(
        "shard.parallelism",
        traced.run_cpu_s / traced.run.as_secs_f64(),
        "ratio",
    );
    let work: Vec<f64> = events_after
        .iter()
        .zip(&events_before)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let mean = work.iter().sum::<f64>() / work.len() as f64;
    report.metric(
        "shard.imbalance",
        work.iter().copied().fold(0.0, f64::max) / mean.max(1.0),
        "ratio",
    );
    report.metric("trace.overhead", untraced_rps / traced_rps - 1.0, "ratio");
    report.metric("request.send_ms", per(traced.send), "ms");
    report.metric("attribution.unaccounted_share", unaccounted, "ratio");
    Ok(())
}

fn main() {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    header(&opts, &mut report);
    let outcome = if opts.trace {
        traced_run(&opts, &mut report)
    } else {
        timed_run(&opts, &mut report)
    };
    if let Err(e) = outcome {
        for line in &report.lines {
            println!("{line}");
        }
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    report.correct = report.problems.is_empty();
    for p in &report.problems {
        report.lines.push(format!("CHECK FAILED: {p}"));
    }
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: Workload, trace: bool) -> Report {
        let opts = Options {
            workload,
            seed: 7,
            seconds: 0.2,
            trace,
            quick: true,
        };
        let mut report = Report::default();
        let run = if trace { traced_run } else { timed_run };
        run(&opts, &mut report).expect("quick run completes");
        report
    }

    #[test]
    fn every_workload_passes_its_checks_at_toy_size() {
        for workload in [Workload::Browse, Workload::Checkout, Workload::Crowd] {
            for trace in [false, true] {
                let report = quick(workload, trace);
                assert!(
                    report.problems.is_empty(),
                    "{} trace={trace}: {:?}",
                    workload.name(),
                    report.problems
                );
                assert!(report.attempted > 0 && report.failed == 0);
                assert!(report.metrics.iter().all(|(_, v, _)| v.is_finite()));
            }
        }
    }

    #[test]
    fn reports_carry_the_declared_metrics() {
        let manifest: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark"),
        )
        .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            manifest[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| m["name"].as_str().expect("name").to_string())
                .collect()
        };
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = quick(Workload::Checkout, trace);
            let got: Vec<String> = report
                .metrics
                .iter()
                .map(|(n, _, _)| n.to_string())
                .collect();
            assert_eq!(got, names(key), "--trace {}", u8::from(trace));
        }
    }

    #[test]
    fn options_parse_the_command_line() {
        let args = [
            "--workload",
            "crowd",
            "--seed",
            "3",
            "--seconds",
            "20",
            "--trace",
            "1",
        ];
        let o = Options::parse(args.iter().map(|s| s.to_string())).expect("parses");
        assert_eq!(o.workload, Workload::Crowd);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick),
            (3, 20.0, true, false)
        );
        assert!(Options::parse(["--trace", "2"].iter().map(|s| s.to_string())).is_err());
        assert!(Options::parse(std::iter::empty()).is_err());
    }
}
