//! Shared measurement core for the `platform_throughput` bench and the
//! `run_experiments` E9 table: wall-clock messages/sec, migrations/sec
//! and sessions/sec on the DES platform.
//!
//! Everything here intentionally sticks to the stable platform API
//! (`with_payload`, `payload_as`, `clone`, `dispatch_self`, `login`/
//! `logout`), so the same measurement runs unchanged against builds
//! before and after the zero-copy payload fast path — the numbers in
//! `BENCH_platform.json` are directly comparable.

use abcrm_core::profile::ConsumerId;
use agentsim::agent::{Agent, Ctx};
use agentsim::ids::HostId;
use agentsim::message::Message;
use agentsim::shard::ShardedSimWorld;
use agentsim::sim::SimWorld;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One row of a marketplace quote sheet (a payload-heavy message body).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuoteRow {
    /// Item id.
    pub id: u64,
    /// Item name.
    pub name: String,
    /// Quoted price.
    pub price: f64,
    /// Descriptive terms.
    pub terms: Vec<String>,
}

/// The quote sheet fanned out to every consumer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuoteSheet {
    /// Originating marketplace.
    pub market: String,
    /// Quoted items.
    pub rows: Vec<QuoteRow>,
}

/// A quote sheet with `items` rows (~100 encoded bytes per row).
pub fn quote_sheet(items: usize) -> QuoteSheet {
    QuoteSheet {
        market: "m0".into(),
        rows: (0..items)
            .map(|i| QuoteRow {
                id: i as u64,
                name: format!("merchandise-{i}"),
                price: 10.25 + i as f64,
                terms: vec![format!("term{}", i % 7), "quality".into(), "fast".into()],
            })
            .collect(),
    }
}

/// Consumes fan-out quotes with a typed (hot-path) payload read.
#[derive(Debug, Default, Serialize, Deserialize)]
struct Reader {
    seen: u64,
    rows: u64,
}

impl Agent for Reader {
    fn agent_type(&self) -> &'static str {
        "reader"
    }
    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).unwrap()
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
        if msg.is("quote") {
            let sheet: QuoteSheet = msg.payload_as().expect("quote payload");
            self.seen += 1;
            self.rows += sheet.rows.len() as u64;
        }
    }
}

/// Migrating agent with configurable state ballast: one round trip per
/// "trip" message.
#[derive(Debug, Serialize, Deserialize)]
struct Carrier {
    home: HostId,
    away: HostId,
    ballast: Vec<u8>,
}

impl Agent for Carrier {
    fn agent_type(&self) -> &'static str {
        "carrier"
    }
    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).unwrap()
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if msg.is("trip") {
            ctx.dispatch_self(self.away);
        }
    }
    fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.host() != self.home {
            ctx.dispatch_self(self.home);
        }
    }
}

/// Fan one payload-heavy message out to `consumers` readers; returns
/// delivered messages per wall-clock second.
pub fn messages_per_sec(consumers: usize) -> f64 {
    fanout_messages_per_sec(consumers, false)
}

/// Same fan-out workload with request tracing enabled: every send mints
/// a root span, every delivery closes one and feeds the latency
/// histograms. Used to report the enabled-path telemetry cost.
pub fn messages_per_sec_traced(consumers: usize) -> f64 {
    fanout_messages_per_sec(consumers, true)
}

fn fanout_messages_per_sec(consumers: usize, traced: bool) -> f64 {
    let mut world = SimWorld::new(11);
    if traced {
        world.enable_telemetry();
    }
    world.registry_mut().register_serde::<Reader>("reader");
    let edge = world.add_host("edge");
    let readers: Vec<_> = (0..consumers)
        .map(|_| {
            world
                .create_agent(edge, Box::new(Reader::default()))
                .unwrap()
        })
        .collect();
    let template = Message::new("quote")
        .with_payload(&quote_sheet(40))
        .expect("quote serializes");
    let t0 = Instant::now();
    for reader in &readers {
        world.send_external(*reader, template.clone()).unwrap();
    }
    world.run_until_idle();
    consumers as f64 / t0.elapsed().as_secs_f64()
}

/// The same payload-heavy fan-out, but with the readers spread across
/// `shards` parallel DES shards (one edge host per shard, consumers
/// assigned round-robin). Every delivery stays shard-local, so this
/// measures how the epoch machinery scales the per-delivery work
/// (payload decode + handler) across cores. Returns delivered messages
/// per wall-clock second; `shards == 1` is the single-threaded baseline
/// (the sharded world degenerates to a plain [`SimWorld`]).
pub fn sharded_messages_per_sec(consumers: usize, shards: usize) -> f64 {
    let mut world = ShardedSimWorld::new(11, shards);
    for k in 0..shards {
        world
            .shard_mut(k)
            .registry_mut()
            .register_serde::<Reader>("reader");
    }
    let edges: Vec<HostId> = (0..shards)
        .map(|k| world.add_host(k, format!("edge-{k}")))
        .collect();
    let readers: Vec<_> = (0..consumers)
        .map(|i| {
            world
                .create_agent(edges[i % shards], Box::new(Reader::default()))
                .unwrap()
        })
        .collect();
    let template = Message::new("quote")
        .with_payload(&quote_sheet(40))
        .expect("quote serializes");
    let t0 = Instant::now();
    for reader in &readers {
        world.send_external(*reader, template.clone()).unwrap();
    }
    world.run_until_idle();
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(
        world.metrics().messages_delivered,
        consumers as u64,
        "every quote must be delivered"
    );
    consumers as f64 / elapsed
}

/// One row of the shard-scaling curve.
#[derive(Debug)]
pub struct ScalingRow {
    /// Shard count.
    pub shards: usize,
    /// Fan-out deliveries per second at this shard count.
    pub messages_per_sec: f64,
    /// Rate relative to the 1-shard baseline.
    pub speedup: f64,
}

/// Measure the fan-out workload at each shard count (first entry should
/// be 1, the baseline each row's speedup is computed against).
pub fn scaling_curve(consumers: usize, shard_counts: &[usize]) -> Vec<ScalingRow> {
    let mut rows: Vec<ScalingRow> = Vec::new();
    for &shards in shard_counts {
        let rate = sharded_messages_per_sec(consumers, shards);
        let baseline = rows.first().map_or(rate, |r| r.messages_per_sec);
        rows.push(ScalingRow {
            shards,
            messages_per_sec: rate,
            speedup: rate / baseline,
        });
    }
    rows
}

/// Render the shard-scaling table.
pub fn scaling_table(consumers: usize, shard_counts: &[usize]) -> String {
    let mut out = format!(
        "[E10] sharded fan-out scaling ({consumers} consumers)\n\
         shards     messages/s   speedup\n"
    );
    for row in scaling_curve(consumers, shard_counts) {
        out.push_str(&format!(
            "{:>6} {:>14.0} {:>8.2}x\n",
            row.shards, row.messages_per_sec, row.speedup
        ));
    }
    out
}

/// Send `agents` carriers (4 KB state each) on a round trip; returns
/// migrations (hops) per wall-clock second.
pub fn migrations_per_sec(agents: usize) -> f64 {
    let mut world = SimWorld::new(12);
    world.registry_mut().register_serde::<Carrier>("carrier");
    let home = world.add_host("home");
    let away = world.add_host("away");
    let carriers: Vec<_> = (0..agents)
        .map(|_| {
            world
                .create_agent(
                    home,
                    Box::new(Carrier {
                        home,
                        away,
                        ballast: vec![7; 4_000],
                    }),
                )
                .unwrap()
        })
        .collect();
    let t0 = Instant::now();
    for carrier in &carriers {
        world.send_external(*carrier, Message::new("trip")).unwrap();
    }
    world.run_until_idle();
    (2 * agents) as f64 / t0.elapsed().as_secs_f64()
}

/// Open and close a session for each of `consumers` users on a full
/// Buyer Agent Server; returns sessions per wall-clock second.
pub fn sessions_per_sec(consumers: usize) -> f64 {
    let mut platform = crate::bench_platform(50, 1, 13);
    let t0 = Instant::now();
    for c in 1..=consumers as u64 {
        platform.login(ConsumerId(c));
        platform.logout(ConsumerId(c));
    }
    consumers as f64 / t0.elapsed().as_secs_f64()
}

/// One measured row of the E9 table.
#[derive(Debug)]
pub struct ThroughputRow {
    /// Scale (consumers / carriers / sessions).
    pub consumers: usize,
    /// Payload-heavy fan-out deliveries per second.
    pub messages_per_sec: f64,
    /// Capsule hops per second.
    pub migrations_per_sec: f64,
    /// Login/logout cycles per second.
    pub sessions_per_sec: f64,
}

/// Measure all three rates at one scale.
pub fn measure(consumers: usize) -> ThroughputRow {
    ThroughputRow {
        consumers,
        messages_per_sec: messages_per_sec(consumers),
        migrations_per_sec: migrations_per_sec(consumers / 10),
        sessions_per_sec: sessions_per_sec(consumers / 10),
    }
}

/// Telemetry cost on the fan-out workload at one scale: returns
/// `(disabled_msgs_per_sec, enabled_msgs_per_sec, overhead_pct)`, where
/// the overhead is how much slower the traced run is than the default
/// untraced run. Each rate is the best of three runs, which keeps the
/// comparison stable against allocator and scheduler noise.
pub fn telemetry_overhead(consumers: usize) -> (f64, f64, f64) {
    let best = |f: &dyn Fn(usize) -> f64| (0..3).map(|_| f(consumers)).fold(0.0_f64, f64::max);
    let disabled = best(&messages_per_sec);
    let enabled = best(&messages_per_sec_traced);
    (disabled, enabled, (disabled / enabled - 1.0) * 100.0)
}

/// Render the E9 table at the given scales.
pub fn table(scales: &[usize]) -> String {
    let mut out = String::from(
        "[E9] platform throughput (wall clock)\n\
         consumers    messages/s  migrations/s   sessions/s\n",
    );
    for &scale in scales {
        let row = measure(scale);
        out.push_str(&format!(
            "{:>9} {:>13.0} {:>13.0} {:>12.0}\n",
            row.consumers, row.messages_per_sec, row.migrations_per_sec, row.sessions_per_sec
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_positive_at_small_scale() {
        let row = measure(50);
        assert!(row.messages_per_sec > 0.0);
        assert!(row.migrations_per_sec > 0.0);
        assert!(row.sessions_per_sec > 0.0);
    }

    #[test]
    fn table_renders_one_row_per_scale() {
        let t = table(&[20]);
        assert!(t.contains("messages/s"));
        assert!(t.lines().count() >= 3);
    }

    #[test]
    fn sharded_fanout_delivers_everything_at_every_shard_count() {
        for shards in [1, 2, 4] {
            let rate = sharded_messages_per_sec(120, shards);
            assert!(rate > 0.0, "{shards}-shard rate must be positive");
        }
    }

    #[test]
    fn scaling_curve_reports_speedup_against_first_row() {
        let rows = scaling_curve(60, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert!((rows[0].speedup - 1.0).abs() < 1e-9);
        assert!(rows[1].speedup > 0.0);
    }
}
