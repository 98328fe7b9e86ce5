//! Sharded discrete-event runtime: N [`SimWorld`] shards advancing in
//! conservative lock-step epochs.
//!
//! [`ShardedSimWorld`] partitions hosts (and with them, agents) across
//! shards. Each shard owns a private event heap and runs one epoch —
//! a half-open window `[min_next, min_next + window)` — on its own OS
//! thread; cross-shard sends and migrations are collected into per-shard
//! outboxes and exchanged at the barrier between epochs.
//!
//! # Determinism
//!
//! Same seed + same shard count ⇒ the identical execution, because:
//!
//! * every event is keyed `(time, shard, seq)` — a total order with no
//!   ties (each shard mints its own monotone `seq`);
//! * a boundary item is delayed by at least the epoch window, so it can
//!   never land inside any shard's past (each shard only processes events
//!   strictly before `min_next + window`, and items sent during that
//!   window carry `at ≥ now + window ≥ min_next + window`);
//! * items are injected under their origin `(time, shard, seq)` key, so
//!   heap order is independent of exchange iteration order.
//!
//! The 1-shard configuration never installs boundary state at all: it is
//! the unsharded [`SimWorld`] byte for byte.

use crate::agent::Agent;
use crate::chaos::ChaosPlan;
use crate::clock::{SimDuration, SimTime};
use crate::error::{PlatformError, Result};
use crate::ids::{AgentId, HostId, MessageId};
use crate::message::Message;
use crate::metrics::Metrics;
use crate::overload::MailboxConfig;
use crate::sim::{BoundaryItem, BoundaryPayload, Location, SimWorld};
use crate::trace::{Trace, TraceEvent};
use std::collections::HashMap;

/// Default epoch window (and minimum boundary latency): one LAN hop.
pub const DEFAULT_WINDOW: SimDuration = SimDuration(200);

// The epoch loop moves `&mut SimWorld` into scoped threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SimWorld>();
};

/// N conservative-time-window shards behind one world-like facade.
///
/// Hosts are placed on an explicit shard ([`ShardedSimWorld::add_host`]);
/// agents live on their host's shard and migrate between shards through
/// ordinary `dispatch` calls. Consumer-facing callers pick a shard with
/// [`crate::ids::shard_of`].
pub struct ShardedSimWorld {
    shards: Vec<SimWorld>,
    window: SimDuration,
    /// Owner shard of every agent the coordinator has seen.
    owners: HashMap<AgentId, usize>,
    /// Owner shard of every host.
    host_owners: HashMap<HostId, usize>,
}

impl ShardedSimWorld {
    /// `shards` lock-step worlds with the default epoch window (also the
    /// minimum cross-shard latency; see the module docs). Shard 0 is
    /// seeded exactly like `SimWorld::new(seed)`; other shards derive
    /// disjoint seeds deterministically.
    pub fn new(seed: u64, shards: usize) -> Self {
        let shards = shards.max(1);
        let worlds = (0..shards)
            .map(|k| {
                let shard_seed = if k == 0 {
                    seed
                } else {
                    seed ^ crate::ids::splitmix64(k as u64)
                };
                let mut w = SimWorld::new(shard_seed);
                if shards > 1 {
                    w.enable_boundary(k as u16, DEFAULT_WINDOW);
                }
                w
            })
            .collect();
        ShardedSimWorld {
            shards: worlds,
            window: DEFAULT_WINDOW,
            owners: HashMap::new(),
            host_owners: HashMap::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shared access to one shard's world (inspect state, traces, hosts).
    pub fn shard(&self, k: usize) -> &SimWorld {
        &self.shards[k]
    }

    /// Mutable access to one shard's world (register agent types, tweak
    /// topology). Avoid driving a shard's clock directly — use the
    /// facade's run methods so the barrier stays consistent.
    pub fn shard_mut(&mut self, k: usize) -> &mut SimWorld {
        &mut self.shards[k]
    }

    /// Register a host on `shard` and make it addressable from every
    /// other shard. Host ids are globally unique (per-shard id bases).
    pub fn add_host(&mut self, shard: usize, name: impl Into<String>) -> HostId {
        let id = self.shards[shard].add_host(name);
        for (k, w) in self.shards.iter_mut().enumerate() {
            if k != shard {
                w.register_remote_host(id);
            }
        }
        self.host_owners.insert(id, shard);
        id
    }

    /// Owner shard of `host`, if known.
    pub fn shard_of_host(&self, host: HostId) -> Option<usize> {
        self.host_owners.get(&host).copied()
    }

    /// Owner shard of `agent`, if known to the coordinator.
    pub fn shard_of_agent(&self, agent: AgentId) -> Option<usize> {
        if let Some(&k) = self.owners.get(&agent) {
            return Some(k);
        }
        self.shards.iter().position(|s| s.location(agent).is_some())
    }

    /// Create `agent` on `host` (like [`SimWorld::create_agent`]) and
    /// announce it to every other shard immediately.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if no shard owns `host`.
    pub fn create_agent(&mut self, host: HostId, agent: Box<dyn Agent>) -> Result<AgentId> {
        let shard = self
            .host_owners
            .get(&host)
            .copied()
            .ok_or(PlatformError::UnknownHost(host))?;
        let id = self.shards[shard].create_agent(host, agent)?;
        self.owners.insert(id, shard);
        for (k, w) in self.shards.iter_mut().enumerate() {
            if k != shard {
                w.register_remote_agent(id, host);
            }
        }
        Ok(id)
    }

    /// Inject a message from outside the world, routed to the recipient's
    /// owner shard.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownAgent`] if no shard knows `to`.
    pub fn send_external(&mut self, to: AgentId, msg: Message) -> Result<MessageId> {
        let shard = self
            .shard_of_agent(to)
            .ok_or(PlatformError::UnknownAgent(to))?;
        self.shards[shard].send_external(to, msg)
    }

    /// Run until every shard's queue and every outbox is empty, then
    /// close any open telemetry spans.
    pub fn run_until_idle(&mut self) {
        if self.shards.len() == 1 {
            self.shards[0].run_until_idle();
            return;
        }
        while let Some(next) = self.next_event_at() {
            let end = next + self.window;
            self.run_epoch(end);
        }
        for s in &mut self.shards {
            s.finalize_telemetry();
        }
    }

    /// Run until the (global) clock reaches `deadline` or the world
    /// drains; shard clocks are advanced to `deadline` either way.
    pub fn run_until(&mut self, deadline: SimTime) {
        if self.shards.len() == 1 {
            self.shards[0].run_until(deadline);
            return;
        }
        while let Some(next) = self.next_event_at() {
            if next > deadline {
                break;
            }
            // Epochs never reach past the deadline: events *at* the
            // deadline still run (half-open window, hence the +1µs cap).
            let end = (next + self.window).min(deadline + SimDuration::from_micros(1));
            self.run_epoch(end);
        }
        for s in &mut self.shards {
            s.run_until(deadline);
        }
    }

    /// Run for `span` of simulated time past the most advanced shard.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now() + span;
        self.run_until(deadline);
    }

    /// Earliest queued event across all shards.
    fn next_event_at(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(SimWorld::next_event_at).min()
    }

    /// One epoch: every busy shard processes events strictly before
    /// `end` (in parallel when more than one shard has work), then the
    /// barrier exchanges boundary items and agent announcements.
    fn run_epoch(&mut self, end: SimTime) {
        let busy: Vec<bool> = self
            .shards
            .iter()
            .map(|s| s.next_event_at().is_some_and(|t| t < end))
            .collect();
        if busy.iter().filter(|b| **b).count() <= 1 {
            // A lone busy shard gains nothing from a thread spawn.
            for (s, &b) in self.shards.iter_mut().zip(&busy) {
                if b {
                    s.run_window(end);
                }
            }
        } else {
            std::thread::scope(|scope| {
                for (s, &b) in self.shards.iter_mut().zip(&busy) {
                    if b {
                        scope.spawn(move || s.run_window(end));
                    }
                }
            });
        }
        // Lockstep: every shard's clock advances to the epoch end, busy
        // or not. Outbox items are stamped `>= end` (latency >= window),
        // so after the sync no boundary item can land in any shard's
        // past — even a shard that sat idle for many epochs.
        for s in &mut self.shards {
            s.sync_clock(end);
        }
        self.exchange();
    }

    /// The inter-epoch barrier: propagate agent announcements, then route
    /// boundary items to their destination shards in global key order.
    fn exchange(&mut self) {
        // Announcements first, so items addressed to agents created this
        // epoch route correctly below.
        let mut announced: Vec<(usize, AgentId, HostId)> = Vec::new();
        for k in 0..self.shards.len() {
            for (id, host) in self.shards[k].drain_announcements() {
                announced.push((k, id, host));
            }
        }
        for (k, id, host) in announced {
            self.owners.insert(id, k);
            for (j, w) in self.shards.iter_mut().enumerate() {
                if j != k {
                    w.register_remote_agent(id, host);
                }
            }
        }
        let mut items: Vec<(usize, BoundaryItem)> = Vec::new();
        for k in 0..self.shards.len() {
            for item in self.shards[k].drain_outbox() {
                let dest_shard = match &item.payload {
                    BoundaryPayload::Deliver(msg) => {
                        // Unknown recipients route to shard 0, which
                        // dead-letters them like any unsharded world.
                        self.owners.get(&msg.to).copied().unwrap_or(0)
                    }
                    BoundaryPayload::Arrive { dest, .. } => {
                        self.host_owners.get(dest).copied().unwrap_or(0)
                    }
                };
                items.push((dest_shard, item));
            }
        }
        // Global total order; injection order then no longer matters, but
        // sorting keeps the coordinator itself deterministic too.
        items.sort_by_key(|(_, i)| (i.at, i.origin_shard, i.origin_seq));
        for (dest_shard, item) in items {
            if let BoundaryPayload::Arrive { capsule, dest } = &item.payload {
                let id = capsule.id;
                let dest = *dest;
                self.owners.insert(id, dest_shard);
                for (j, w) in self.shards.iter_mut().enumerate() {
                    if j != dest_shard {
                        w.register_remote_agent(id, dest);
                    }
                }
            }
            self.shards[dest_shard].inject_boundary(item);
        }
    }

    /// Most advanced shard clock.
    pub fn now(&self) -> SimTime {
        self.shards
            .iter()
            .map(SimWorld::now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Field-wise sum of every shard's counters.
    pub fn metrics(&self) -> Metrics {
        let mut merged = Metrics::new();
        for s in &self.shards {
            merged.merge(s.metrics());
        }
        merged
    }

    /// All shards' trace events, merged in time order (ties keep shard
    /// order — the merge is stable).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self
            .shards
            .iter()
            .flat_map(|s| s.trace().events().iter().cloned())
            .collect();
        all.sort_by_key(|e| e.at);
        all
    }

    /// Labels of the merged trace, in time order.
    pub fn trace_labels(&self) -> Vec<String> {
        self.trace_events().into_iter().map(|e| e.label).collect()
    }

    /// All shards' events merged into one [`Trace`] in time order, for
    /// consumers (like workflow validators) that take a whole trace.
    pub fn merged_trace(&self) -> Trace {
        let mut trace = Trace::new();
        for e in self.trace_events() {
            trace.record(e.at, e.agent, e.label);
        }
        trace
    }

    /// Enable request tracing on every shard.
    pub fn enable_telemetry(&mut self) {
        for s in &mut self.shards {
            s.enable_telemetry();
        }
    }

    /// Enable WAL-backed durability on every shard (see
    /// [`SimWorld::enable_durability`]); restarting a crashed host then
    /// runs the recovery pass on its owner shard.
    pub fn enable_durability(&mut self, cfg: crate::durable::DurabilityConfig) {
        for s in &mut self.shards {
            s.enable_durability(cfg);
        }
    }

    /// Arm self-healing supervision on every shard (see
    /// [`SimWorld::enable_supervision`]); each shard's detector watches
    /// the hosts that shard owns.
    pub fn enable_supervision(&mut self, cfg: crate::supervise::SupervisionConfig) {
        for s in &mut self.shards {
            s.enable_supervision(cfg);
        }
    }

    /// Bound every shard's per-agent mailboxes (see
    /// [`SimWorld::set_mailbox`]).
    pub fn set_mailbox(&mut self, config: MailboxConfig) {
        for s in &mut self.shards {
            s.set_mailbox(config);
        }
    }

    /// Install the chaos plan on every shard: topology faults apply to
    /// each shard's own overlay; a host crash executes on the owner shard
    /// and mirrors into the others' remote-down sets.
    pub fn install_chaos(&mut self, plan: &ChaosPlan) {
        for s in &mut self.shards {
            s.install_chaos(plan);
        }
    }

    /// Partition a host pair on every shard's topology.
    pub fn partition(&mut self, a: HostId, b: HostId) {
        for s in &mut self.shards {
            s.topology_mut().partition(a, b);
        }
    }

    /// Heal a partition on every shard's topology.
    pub fn heal_partition(&mut self, a: HostId, b: HostId) {
        for s in &mut self.shards {
            s.topology_mut().heal_partition(a, b);
        }
    }

    /// Crash `host` on its owner shard and mirror the outage everywhere.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if no shard owns `host`.
    pub fn crash_host(&mut self, host: HostId) -> Result<()> {
        let owner = self
            .host_owners
            .get(&host)
            .copied()
            .ok_or(PlatformError::UnknownHost(host))?;
        self.shards[owner].crash_host(host)?;
        for (k, w) in self.shards.iter_mut().enumerate() {
            if k != owner {
                w.set_remote_host_down(host, true);
            }
        }
        Ok(())
    }

    /// Restart a crashed host and clear the mirrored outage.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if no shard owns `host`.
    pub fn restart_host(&mut self, host: HostId) -> Result<()> {
        let owner = self
            .host_owners
            .get(&host)
            .copied()
            .ok_or(PlatformError::UnknownHost(host))?;
        self.shards[owner].restart_host(host)?;
        for (k, w) in self.shards.iter_mut().enumerate() {
            if k != owner {
                w.set_remote_host_down(host, false);
            }
        }
        Ok(())
    }

    /// Where `agent` currently is, asking its owner shard.
    pub fn location(&self, agent: AgentId) -> Option<Location> {
        self.shards.iter().find_map(|s| s.location(agent))
    }
}

impl std::fmt::Debug for ShardedSimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimWorld")
            .field("shards", &self.shards.len())
            .field("window", &self.window)
            .field("agents", &self.owners.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, Ctx};
    use crate::message::Message;
    use serde::{Deserialize, Serialize};

    /// Ping-pong agent: replies "pong" to "ping", counts what it saw.
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Ponger {
        pings: u64,
        pongs: u64,
    }

    impl Agent for Ponger {
        fn agent_type(&self) -> &'static str {
            "ponger"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if msg.is("ping") {
                self.pings += 1;
                ctx.reply(&msg, Message::new("pong"));
            } else if msg.is("pong") {
                self.pongs += 1;
            } else if msg.is("ping-to") {
                let raw: u64 = msg.payload_as().expect("agent id");
                ctx.send(AgentId(raw), Message::new("ping"));
            }
        }
    }

    /// Mobile agent that hops to a host named in a "visit" message and
    /// notes its arrival.
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Rover;

    impl Agent for Rover {
        fn agent_type(&self) -> &'static str {
            "rover"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::json!(null)
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if msg.is("visit") {
                let dest: u32 = msg.payload_as().expect("host id");
                ctx.dispatch_self(HostId(dest));
            }
        }
        fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
            ctx.note("rover arrived");
        }
    }

    fn two_shard_pingpong(shards: usize) -> ShardedSimWorld {
        let mut world = ShardedSimWorld::new(7, shards);
        for k in 0..world.shard_count() {
            world
                .shard_mut(k)
                .registry_mut()
                .register_serde::<Ponger>("ponger");
            world
                .shard_mut(k)
                .registry_mut()
                .register_serde::<Rover>("rover");
        }
        world
    }

    #[test]
    fn cross_shard_messages_deliver_and_reply() {
        let mut world = two_shard_pingpong(2);
        let h0 = world.add_host(0, "left");
        let h1 = world.add_host(1, "right");
        let a = world.create_agent(h0, Box::new(Ponger::default())).unwrap();
        let b = world.create_agent(h1, Box::new(Ponger::default())).unwrap();
        world
            .send_external(a, Message::new("ping-to").with_payload(&b.0).unwrap())
            .unwrap();
        world.run_until_idle();
        let m = world.metrics();
        assert!(m.boundary_messages >= 2, "ping and pong must cross: {m:?}");
        assert_eq!(m.messages_dead_lettered, 0);
        let b_state = world.shard(1).snapshot_of(b).unwrap();
        assert_eq!(b_state["pings"], 1);
        let a_state = world.shard(0).snapshot_of(a).unwrap();
        assert_eq!(a_state["pongs"], 1);
    }

    #[test]
    fn cross_shard_migration_round_trips_with_auth() {
        let mut world = two_shard_pingpong(2);
        let h0 = world.add_host(0, "home");
        let h1 = world.add_host(1, "away");
        let rover = world.create_agent(h0, Box::new(Rover)).unwrap();
        world
            .send_external(rover, Message::new("visit").with_payload(&h1.0).unwrap())
            .unwrap();
        world.run_until_idle();
        assert_eq!(world.location(rover), Some(Location::Active(h1)));
        assert_eq!(world.shard_of_agent(rover), Some(1));
        // ...and back home, which demands permit authentication.
        world
            .send_external(rover, Message::new("visit").with_payload(&h0.0).unwrap())
            .unwrap();
        world.run_until_idle();
        assert_eq!(world.location(rover), Some(Location::Active(h0)));
        let m = world.metrics();
        assert_eq!(m.boundary_migrations, 2);
        assert_eq!(m.migrations_rejected, 0);
        assert_eq!(
            world
                .trace_labels()
                .iter()
                .filter(|l| *l == "rover arrived")
                .count(),
            2
        );
    }

    #[test]
    fn same_seed_sharded_runs_reproduce_exactly() {
        fn run() -> (Vec<String>, Metrics) {
            let mut world = two_shard_pingpong(4);
            let hosts: Vec<HostId> = (0..4).map(|k| world.add_host(k, format!("h{k}"))).collect();
            let agents: Vec<AgentId> = hosts
                .iter()
                .map(|h| world.create_agent(*h, Box::new(Ponger::default())).unwrap())
                .collect();
            // Every agent pings its clockwise neighbour, all at t=0.
            for (i, a) in agents.iter().enumerate() {
                let peer = agents[(i + 1) % agents.len()];
                world
                    .send_external(*a, Message::new("ping-to").with_payload(&peer.0).unwrap())
                    .unwrap();
            }
            world.run_until_idle();
            (world.trace_labels(), world.metrics())
        }
        let (t1, m1) = run();
        let (t2, m2) = run();
        assert_eq!(t1, t2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn one_shard_facade_is_a_plain_simworld() {
        let mut sharded = ShardedSimWorld::new(7, 1);
        sharded
            .shard_mut(0)
            .registry_mut()
            .register_serde::<Ponger>("ponger");
        let h = sharded.add_host(0, "solo");
        let a = sharded
            .create_agent(h, Box::new(Ponger::default()))
            .unwrap();
        sharded.send_external(a, Message::new("ping")).unwrap();
        sharded.run_until_idle();

        let mut plain = SimWorld::new(7);
        plain.registry_mut().register_serde::<Ponger>("ponger");
        let ph = plain.add_host("solo");
        let pa = plain.create_agent(ph, Box::new(Ponger::default())).unwrap();
        plain.send_external(pa, Message::new("ping")).unwrap();
        plain.run_until_idle();

        assert_eq!((h, a), (ph, pa));
        assert_eq!(sharded.metrics(), plain.metrics().clone());
        assert_eq!(
            sharded.trace_labels(),
            plain
                .trace()
                .labels()
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn crashed_remote_host_refuses_boundary_dispatch() {
        let mut world = two_shard_pingpong(2);
        let h0 = world.add_host(0, "home");
        let h1 = world.add_host(1, "away");
        let rover = world.create_agent(h0, Box::new(Rover)).unwrap();
        world.crash_host(h1).unwrap();
        world
            .send_external(rover, Message::new("visit").with_payload(&h1.0).unwrap())
            .unwrap();
        world.run_until_idle();
        // Refused synchronously: the rover stays home instead of being lost.
        assert_eq!(world.location(rover), Some(Location::Active(h0)));
        assert!(world.metrics().chaos_drops >= 1);
        world.restart_host(h1).unwrap();
        world
            .send_external(rover, Message::new("visit").with_payload(&h1.0).unwrap())
            .unwrap();
        world.run_until_idle();
        assert_eq!(world.location(rover), Some(Location::Active(h1)));
    }
}
