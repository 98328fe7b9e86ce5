//! The traced run's per-layer attribution and the standalone layer
//! probes. Every layer is timed from outside, around calls into its
//! public functions; handler self time comes from the runtime's own
//! handler spans.

use crate::drive::{Driver, Plain, Stack};
use crate::inputs::{similarity, Class, Inputs, Request};
use crate::stats::{cpu_seconds, median};
use abcrm_core::agents::msg::ResponseBody;
use abcrm_core::profile::ConsumerId;
use abcrm_core::{RecommendStore, SimilarityConfig};
use agentsim::durable::DurableStore;
use agentsim::ids::AgentId;
use agentsim::payload::Payload;
use agentsim::sim::SimWorld;
use agentsim::telemetry::HopKind;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// Agent roles whose handler self time is reported, with the metric
/// each is reported as, in report order.
pub const ROLES: [(&str, &str); 6] = [
    ("httpa", "httpa.handler_ms"),
    ("bsma", "bsma.handler_ms"),
    ("bra", "bra.handler_ms"),
    ("pa", "pa.handler_ms"),
    ("mba", "mba.handler_ms"),
    ("market", "market.handler_ms"),
];

/// Which role each agent plays. Unlisted agents are MBAs, the only
/// agents created per task.
struct Roles {
    fixed: BTreeMap<AgentId, &'static str>,
}

impl Roles {
    fn of(stack: &Stack) -> Roles {
        let mut fixed = BTreeMap::new();
        for a in stack.infrastructure() {
            fixed.insert(a, "other");
        }
        for (ids, role) in [
            (stack.httpas(), "httpa"),
            (stack.bsmas(), "bsma"),
            (stack.pas(), "pa"),
            (stack.market_agents(), "market"),
        ] {
            for a in ids {
                fixed.insert(a, role);
            }
        }
        let mut roles = Roles { fixed };
        roles.learn_bras(stack);
        roles
    }

    fn learn_bras(&mut self, stack: &Stack) {
        for (_, bra) in stack.sessions() {
            self.fixed.insert(bra, "bra");
        }
    }

    fn role(&self, agent: Option<AgentId>) -> &'static str {
        agent
            .and_then(|a| self.fixed.get(&a).copied())
            .unwrap_or("mba")
    }
}

/// The instrumented driver: each request (or wave) is sent, run to idle
/// and drained as three separately timed calls. On a single world the
/// run is stepped event by event so the handler spans can be read before
/// quiescence closes every open span (which stretches each handler over
/// the hops it caused).
pub struct Traced {
    /// Host time in `send_external` calls.
    pub send: Duration,
    /// Host time running the world to idle.
    pub run: Duration,
    /// Host time in `run_and_drain` on the idle world.
    pub drain: Duration,
    /// Process CPU seconds used while running the world.
    pub run_cpu_s: f64,
    /// Handler self time per role (single world only).
    pub handler: BTreeMap<&'static str, Duration>,
    /// Handler spans attributed.
    pub handler_spans: u64,
    roles: Roles,
    seen: usize,
}

impl Traced {
    /// A driver for `stack`. With telemetry off it times the same three
    /// calls and attributes no handler time.
    pub fn new(stack: &Stack) -> Traced {
        let seen = stack.worlds()[0].telemetry().spans().len();
        Traced {
            send: Duration::ZERO,
            run: Duration::ZERO,
            drain: Duration::ZERO,
            run_cpu_s: 0.0,
            handler: BTreeMap::new(),
            handler_spans: 0,
            roles: Roles::of(stack),
            seen,
        }
    }

    /// Sum of handler self time over every role (including
    /// coordinator/seller work).
    pub fn handler_total(&self) -> Duration {
        self.handler.values().sum()
    }

    /// Attribute the handler spans recorded since the last call. A
    /// handler's self time is its wall duration minus that of the
    /// handlers nested in it (callbacks of agents it created).
    fn attribute(&mut self, world: &SimWorld) {
        let telemetry = world.telemetry();
        let spans = telemetry.spans();
        let mut self_ns: HashMap<u64, i128> = HashMap::new();
        for s in &spans[self.seen..] {
            if s.kind != HopKind::Handler {
                continue;
            }
            let Some(end) = s.wall_end_ns else { continue };
            let d = i128::from(end.saturating_sub(s.wall_start_ns));
            *self_ns.entry(s.id).or_default() += d;
            if let Some(parent) = s.parent.and_then(|p| telemetry.span(p)) {
                if parent.kind == HopKind::Handler {
                    *self_ns.entry(parent.id).or_default() -= d;
                }
            }
        }
        for (id, ns) in self_ns {
            let role = self.roles.role(telemetry.span(id).and_then(|s| s.agent));
            *self.handler.entry(role).or_default() +=
                Duration::from_nanos(u64::try_from(ns.max(0)).unwrap_or(0));
            self.handler_spans += 1;
        }
        self.seen = spans.len();
    }
}

impl Driver for Traced {
    fn exchange(
        &mut self,
        stack: &mut Stack,
        requests: &[Request],
    ) -> (Vec<(ConsumerId, ResponseBody)>, Duration) {
        let t0 = Instant::now();
        for r in requests {
            stack.send(r);
        }
        let send = t0.elapsed();
        // the CPU-time reads stay outside the timed run
        let cpu0 = cpu_seconds();
        let t1 = Instant::now();
        let mut bookkeeping = Duration::ZERO;
        let stepped = match stack.single_world() {
            Some(world) => {
                while world.step() {}
                let tb = Instant::now();
                self.attribute(world);
                bookkeeping = tb.elapsed();
                // the world is idle: this only closes the request spans
                world.run_until_idle();
                true
            }
            None => false,
        };
        if !stepped {
            stack.run_until_idle();
        }
        let run = t1.elapsed() - bookkeeping;
        self.run_cpu_s += cpu_seconds() - cpu0;
        let t2 = Instant::now();
        let replies = stack.run_and_drain();
        let drain = t2.elapsed();
        if requests.iter().any(|r| r.class == Class::Login) {
            self.roles.learn_bras(stack);
        }
        self.send += send;
        self.run += run;
        self.drain += drain;
        (replies, send + run + drain)
    }
}

/// Alternates the plain path and the split one request by request (or
/// wave by wave): exchange `n` takes the plain path when `n % 2 ==
/// parity`, the split one otherwise.
pub struct Alternating {
    split: Traced,
    parity: usize,
    n: usize,
}

impl Alternating {
    /// A driver for `stack`, plain on exchanges of the given parity.
    pub fn new(stack: &Stack, parity: usize) -> Alternating {
        Alternating {
            split: Traced::new(stack),
            parity,
            n: 0,
        }
    }
}

impl Driver for Alternating {
    fn exchange(
        &mut self,
        stack: &mut Stack,
        requests: &[Request],
    ) -> (Vec<(ConsumerId, ResponseBody)>, Duration) {
        let plain = self.n % 2 == self.parity;
        self.n += 1;
        if plain {
            Plain.exchange(stack, requests)
        } else {
            self.split.exchange(stack, requests)
        }
    }
}

/// Host time of the split path over that of the plain one, from the
/// exchange times of two replicas of the same requests driven by
/// [`Alternating`] in opposite phase (`first` plain on even exchanges,
/// `second` on odd ones). Each replica's overall speed cancels out of the
/// product of the even and the odd ratio.
pub fn split_over_plain(first: &[f64], second: &[f64]) -> f64 {
    let sum = |t: &[f64], parity: usize| t.iter().skip(parity).step_by(2).sum::<f64>();
    let even = sum(second, 0) / sum(first, 0);
    let odd = sum(first, 1) / sum(second, 1);
    (even * odd).sqrt()
}

/// Messages delivered, migrations and timers fired by each shard.
pub fn shard_events(stack: &Stack) -> Vec<u64> {
    stack
        .worlds()
        .iter()
        .map(|w| {
            let m = w.metrics();
            m.messages_delivered + m.migrations + m.timers_fired
        })
        .collect()
}

/// Item-similarity cache hit rate from the PA's exported counters.
pub fn item_sim_hit_rate(stack: &Stack) -> f64 {
    let (mut hits, mut misses) = (0u64, 0u64);
    for w in stack.worlds() {
        let reg = w.telemetry().registry();
        hits += reg.counter("cache.item_sim.hits");
        misses += reg.counter("cache.item_sim.misses");
    }
    hits as f64 / (hits + misses).max(1) as f64
}

/// Median host time of `f` over `reps` calls, in microseconds.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Neighbour-search probe: a store built from the seeded history,
/// queried for the consumers the run queried. Returns the median ANN
/// query time (µs) and tie-tolerant recall@10 against the exact scan.
pub fn ann_probe(inputs: &Inputs, queried: &[usize]) -> (f64, f64) {
    let mut store = RecommendStore::new();
    for listings in &inputs.markets {
        for l in listings {
            store.upsert_item(l.item.clone());
        }
    }
    for (consumer, item, kind) in &inputs.history {
        store.record_event(*consumer, item.id, *kind);
    }
    let ann = similarity().with_ann_seed(inputs.seed);
    let exact = SimilarityConfig::default();
    store.warm_ann(&ann);
    let consumers: Vec<ConsumerId> = queried
        .iter()
        .take(200)
        .map(|&r| ConsumerId(r as u64 + 1))
        .collect();
    let mut samples = Vec::new();
    let (mut hit, mut total) = (0usize, 0usize);
    for &c in &consumers {
        for _ in 0..3 {
            let t = Instant::now();
            std::hint::black_box(store.nearest_neighbours(c, &ann, 10));
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let approx = store.nearest_neighbours(c, &ann, 10);
        let truth = store.nearest_neighbours(c, &exact, 10);
        total += truth.len();
        hit += truth
            .iter()
            .filter(|(tc, ts)| {
                approx
                    .iter()
                    .any(|(ac, asc)| ac == tc || (asc - ts).abs() < 1e-9)
            })
            .count();
    }
    (median(&samples), hit as f64 / total.max(1) as f64)
}

/// Payload probe on one reply: median µs to encode it into a payload and
/// its wire bytes, and to decode those bytes back into the typed reply.
pub fn payload_probe(body: &ResponseBody) -> (f64, f64) {
    let encode = time_us(200, || {
        let p = Payload::encode(body).expect("reply encodes");
        std::hint::black_box(p.encoded());
    });
    let bytes = Payload::encode(body).expect("reply encodes").encoded();
    let decode = time_us(200, || {
        let v: serde_json::Value = serde_json::from_slice(&bytes).expect("reply parses");
        let back: ResponseBody = Payload::from(v).typed().expect("reply decodes");
        std::hint::black_box(back);
    });
    (encode, decode)
}

/// Capsule probe: JSON size of a live BRA's snapshot and the median µs
/// to capture and encode it (what journaling and migration pay).
pub fn capsule_probe(stack: &Stack) -> Option<(usize, f64)> {
    let (_, bra) = *stack.sessions().first()?;
    let world = stack
        .worlds()
        .into_iter()
        .find(|w| w.location(bra).is_some())?;
    let bytes = serde_json::to_string(&world.snapshot_of(bra).ok()?)
        .ok()?
        .len();
    let us = time_us(50, || {
        let v = world.snapshot_of(bra).expect("bra active");
        std::hint::black_box(serde_json::to_string(&v).expect("snapshot encodes"));
    });
    Some((bytes, us))
}

/// Encoded size of every shard's HttpA state.
pub fn httpa_state_bytes(stack: &Stack) -> usize {
    stack
        .httpas()
        .into_iter()
        .filter_map(|a| {
            let w = stack
                .worlds()
                .into_iter()
                .find(|w| w.location(a).is_some())?;
            Some(serde_json::to_string(&w.snapshot_of(a).ok()?).ok()?.len())
        })
        .sum()
}

/// WAL probe over every durable host: total snapshot bytes and the time
/// (ms, median of three) to replay each host's final snapshot and log,
/// summed over hosts. Zero on a platform without durability.
pub fn wal_probe(stack: &Stack) -> (usize, f64) {
    let mut bytes = 0;
    let mut ms = 0.0;
    for w in stack.worlds() {
        let hosts: BTreeSet<_> = w.hosts().into_iter().collect();
        for host in hosts {
            let Some(store) = w.durable_store(host) else {
                continue;
            };
            let snapshot = store.snapshot_bytes().to_vec();
            let log = store.wal_bytes();
            bytes += snapshot.len();
            ms += time_us(3, || {
                std::hint::black_box(
                    DurableStore::replay_bytes(&snapshot, &log).expect("journal replays"),
                );
            }) / 1e3;
        }
    }
    (bytes, ms)
}

/// Validate an exported Chrome `trace_event` document the way the
/// `telemetry_report` binary does: object form, a non-empty
/// `traceEvents` array whose events carry `name`/`ph`/`ts`/`pid`/`tid`,
/// only complete (`X`, positive `dur`) and instant (`i`) phases.
pub fn validate_chrome_trace(doc: &serde_json::Value) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    for (i, ev) in events.iter().enumerate() {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            if ev.get(key).is_none() {
                return Err(format!("event {i} missing {key}"));
            }
        }
        match ev["ph"].as_str() {
            Some("X") => {
                if ev.get("dur").and_then(|d| d.as_u64()).unwrap_or(0) == 0 {
                    return Err(format!("complete event {i} has zero duration"));
                }
            }
            Some("i") => {}
            other => return Err(format!("event {i} has unexpected phase {other:?}")),
        }
    }
    Ok(events.len())
}

/// One Chrome trace of every shard's spans (host ids are global, so the
/// shards' process lanes do not collide).
pub fn chrome_trace(stack: &Stack) -> serde_json::Value {
    let mut events = Vec::new();
    for w in stack.worlds() {
        if let Some(list) = w.telemetry().chrome_trace_json()["traceEvents"].as_array() {
            events.extend(list.iter().cloned());
        }
    }
    serde_json::json!({ "traceEvents": events, "displayTimeUnit": "ms" })
}
