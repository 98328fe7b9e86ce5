//! Deterministic discrete-event world.
//!
//! [`SimWorld`] hosts agents on named hosts connected by a
//! [`Topology`]. All interaction — message delivery, migration, timers —
//! flows through a single event queue ordered by `(time, sequence)`, so a
//! given seed always produces the identical execution. This is the runtime
//! used by every benchmark; the thread-backed runtime in
//! [`crate::thread_net`] exercises the same [`Agent`] API on real
//! concurrency. Both schedule the same per-host kernel,
//! `host::HostCore`; this module is the event queue, the link
//! model, chaos, sharding and supervision around it.
//!
//! # Example
//!
//! ```
//! use agentsim::prelude::*;
//! use serde::{Serialize, Deserialize};
//!
//! #[derive(Serialize, Deserialize)]
//! struct Echo;
//!
//! impl Agent for Echo {
//!     fn agent_type(&self) -> &'static str { "echo" }
//!     fn snapshot(&self) -> serde_json::Value { serde_json::json!(null) }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
//!         ctx.note(format!("echoed {}", msg.kind));
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut world = SimWorld::new(7);
//! let host = world.add_host("solo");
//! let echo = world.create_agent(host, Box::new(Echo))?;
//! world.send_external(echo, Message::new("ping"))?;
//! world.run_until_idle();
//! assert_eq!(world.trace().labels(), vec!["echoed ping"]);
//! # Ok(())
//! # }
//! ```

use crate::agent::{Agent, AgentCapsule, AgentRegistry, Ctx};
use crate::chaos::{ChaosEvent, ChaosPlan, Fault};
use crate::clock::{SimDuration, SimTime};
use crate::durable::{DurabilityConfig, DurableStore};
use crate::error::{PlatformError, Result};
pub use crate::host::Location;
use crate::host::{admit, dead_letter, HostCore, HostEnv, Reach, Routed, Timer};
use crate::ids::{AgentId, HostId, MessageId};
use crate::message::Message;
use crate::metrics::Metrics;
use crate::net::Topology;
use crate::overload::{EnqueueVerdict, MailboxConfig, MailboxState};
use crate::payload::Payload;
use crate::supervise::{RestoreDecision, SupervisionConfig, Supervisor, Verdict};
use crate::telemetry::{HopKind, SpanEventKind, Telemetry};
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

enum EventKind {
    Deliver(Message),
    Arrive {
        capsule: AgentCapsule,
        dest: HostId,
    },
    Timer {
        agent: AgentId,
        tag: u64,
        trace: Option<crate::telemetry::TraceCtx>,
        deadline: Option<SimTime>,
    },
    /// A lifecycle operation for an agent on another host, handed to that
    /// host's core.
    Routed {
        host: HostId,
        op: Routed,
    },
    /// Apply (`heal == false`) or heal (`heal == true`) the chaos plan's
    /// fault at `index`.
    Chaos {
        index: usize,
        heal: bool,
    },
    /// Run the supervision failure detector. Only ever scheduled while
    /// supervision is enabled *and* armed by an observation, so worlds
    /// without supervision stay byte-identical.
    SupervisionTick,
}

/// Live chaos-engine state derived from an installed [`ChaosPlan`].
struct ChaosState {
    dup_probability: f64,
    reorder_probability: f64,
    max_jitter_us: u64,
    events: Vec<ChaosEvent>,
    /// Last scheduled delivery per (sender, receiver) pair: jitter is
    /// clamped so per-pair FIFO order survives reordering (TCP-like).
    fifo: HashMap<(Option<AgentId>, AgentId), SimTime>,
    /// Message ids already delivered to an active agent; duplicate copies
    /// are suppressed at the receiver.
    delivered: HashSet<MessageId>,
}

struct QueuedEvent {
    at: SimTime,
    /// Shard that scheduled the event (0 in unsharded worlds). Part of the
    /// ordering key so that same-time events from different shards have a
    /// deterministic total order regardless of heap insertion order.
    shard: u16,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.shard == other.shard && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.shard, self.seq).cmp(&(other.at, other.shard, other.seq))
    }
}

/// What a [`BoundaryItem`] carries across a shard boundary.
pub(crate) enum BoundaryPayload {
    /// A message for an agent owned by another shard.
    Deliver(Message),
    /// An agent migrating to a host owned by another shard.
    Arrive { capsule: AgentCapsule, dest: HostId },
}

/// One cross-shard handoff, exchanged between epochs by
/// [`crate::shard::ShardedSimWorld`]. The `(at, origin_shard, origin_seq)`
/// triple is the item's position in the global total order: the destination
/// shard enqueues it under exactly that key, so same-seed runs reproduce at
/// any shard count and independently of exchange iteration order.
pub(crate) struct BoundaryItem {
    pub(crate) at: SimTime,
    pub(crate) origin_shard: u16,
    pub(crate) origin_seq: u64,
    pub(crate) payload: BoundaryPayload,
}

/// Cross-shard routing state, present only in multi-shard runs (installed
/// by [`crate::shard::ShardedSimWorld`]). `None` — the default — keeps the
/// single-shard world byte-identical to the pre-sharding runtime: none of
/// the boundary paths below are ever taken.
struct BoundaryState {
    /// Minimum latency of a boundary crossing. At least the epoch window:
    /// this is what makes the conservative lock-step barrier safe (an item
    /// sent during an epoch can never land inside any shard's past).
    latency: SimDuration,
    /// Agents known to live on other shards: id → host they were last
    /// announced on (used for fault/latency lookups on the sending side).
    remote_agents: HashMap<AgentId, HostId>,
    /// Hosts owned by other shards.
    remote_hosts: HashSet<HostId>,
    /// Remote hosts currently crashed, mirrored between epochs so remote
    /// dispatches are refused synchronously like local ones.
    remote_down: HashSet<HostId>,
    /// Outgoing boundary items, drained by the coordinator between epochs.
    outbox: Vec<BoundaryItem>,
    /// Agents newly created on (or arrived at) this shard, to be announced
    /// to the other shards at the next epoch exchange.
    announce: Vec<(AgentId, HostId)>,
}

/// Scheduler-side state of a host; its agents and stores live in its
/// [`HostCore`].
struct Host {
    name: String,
    /// Crashed by the chaos engine: refuses arrivals and deliveries until
    /// restarted. The authenticator survives (stable-storage semantics),
    /// so genuine returning agents still verify after a restart.
    crashed: bool,
    /// Wedged by a chaos hang fault: the host is up and accepts arrivals,
    /// but deliveries and timer callbacks stall into the buffers below
    /// until the hang heals or the supervisor bounces the host.
    hung: bool,
    /// Deliveries that landed while hung, replayed on heal/bounce.
    stalled: Vec<Message>,
    /// Timer callbacks that came due while hung, fired on heal/bounce.
    stalled_timers: Vec<Timer>,
}

/// Live self-healing state, present after [`SimWorld::enable_supervision`].
struct SupervisionState {
    supervisor: Supervisor,
    /// Whether a detector tick is currently scheduled. The detector is
    /// dormant (no events) until an observation arms it, and disarms again
    /// once nothing is being watched — otherwise `run_until_idle` would
    /// never drain.
    armed: bool,
    /// Hosts replaced by automatic failover: dead host → standby.
    failed_over: HashMap<HostId, HostId>,
    /// Agents whose home moved in a failover; arrivals of capsules still
    /// carrying the dead home are re-bound from this map.
    rehomed: HashMap<AgentId, HostId>,
    /// In-transit orphans marked for retirement: their home failed over
    /// with no restored owner, so they are dropped on arrival instead of
    /// leaking.
    retired: HashSet<AgentId>,
}

/// The deterministic discrete-event agent world.
///
/// See the [module documentation](self) for an example.
pub struct SimWorld {
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<QueuedEvent>>,
    hosts: BTreeMap<HostId, Host>,
    /// Each host's agents and stores. Taken out of the world while one of
    /// them runs (see [`SimWorld::with_core`]), so the world itself can
    /// serve as the core's [`HostEnv`].
    cores: BTreeMap<HostId, HostCore>,
    locations: HashMap<AgentId, Location>,
    homes: HashMap<AgentId, HostId>,
    topology: Topology,
    registry: AgentRegistry,
    metrics: Metrics,
    trace: Trace,
    rng: StdRng,
    next_agent_id: u64,
    next_msg_id: u64,
    next_host_id: u32,
    /// Safety valve against runaway event loops.
    max_events: u64,
    processed_events: u64,
    /// Chaos engine state, present after [`SimWorld::install_chaos`].
    chaos: Option<ChaosState>,
    /// Telemetry sink (request tracing + metrics registry), off by default.
    telemetry: Telemetry,
    /// Bounded-mailbox state, present after [`SimWorld::set_mailbox`].
    /// `None` keeps the unbounded pre-overload behaviour byte-identical.
    mailbox: Option<MailboxState>,
    /// This world's shard index (0 in unsharded worlds); stamped onto every
    /// scheduled event as the middle component of the ordering key.
    shard: u16,
    /// Cross-shard routing state; `None` outside sharded runs.
    boundary: Option<BoundaryState>,
    /// Durability configuration, present after
    /// [`SimWorld::enable_durability`]. `None` — the default — keeps every
    /// journaling seam untaken: traces and metrics stay byte-identical to
    /// the pre-durability runtime.
    durability: Option<DurabilityConfig>,
    /// Self-healing supervision, present after
    /// [`SimWorld::enable_supervision`]. `None` — the default — schedules
    /// no detector events and takes no recovery seams: traces stay
    /// byte-identical and every supervision counter stays zero.
    supervision: Option<SupervisionState>,
    /// Payloads agents emitted with [`Ctx::emit`], per emitting agent, in
    /// emit order, until [`SimWorld::take_outbox`] takes them. World-level,
    /// so host crashes and failover leave it alone.
    outbox: HashMap<AgentId, Vec<Payload>>,
}

impl SimWorld {
    /// Create a world with a LAN topology and the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_topology(seed, Topology::lan())
    }

    /// Create a world with an explicit topology.
    pub fn with_topology(seed: u64, topology: Topology) -> Self {
        SimWorld {
            now: SimTime::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            hosts: BTreeMap::new(),
            cores: BTreeMap::new(),
            locations: HashMap::new(),
            homes: HashMap::new(),
            topology,
            registry: AgentRegistry::new(),
            metrics: Metrics::new(),
            trace: Trace::new(),
            rng: StdRng::seed_from_u64(seed),
            next_agent_id: 1,
            next_msg_id: 1,
            next_host_id: 1,
            max_events: 50_000_000,
            processed_events: 0,
            chaos: None,
            telemetry: Telemetry::new(),
            mailbox: None,
            shard: 0,
            boundary: None,
            durability: None,
            supervision: None,
            outbox: HashMap::new(),
        }
    }

    /// Give every host (existing and future) a WAL-backed
    /// [`DurableStore`]: agent capsules are journalled at callback and
    /// lifecycle boundaries, purchase intents/commits and profile deltas
    /// land via the `Ctx::journal_*` family, and
    /// [`SimWorld::restart_host`] runs a replay-based recovery pass. Off
    /// by default (zero cost, byte-identical traces).
    pub fn enable_durability(&mut self, cfg: DurabilityConfig) {
        self.durability = Some(cfg);
        for core in self.cores.values_mut() {
            if core.durable.is_none() {
                core.durable = Some(DurableStore::new(cfg));
            }
        }
    }

    /// The world's durability configuration, if enabled.
    pub fn durability(&self) -> Option<DurabilityConfig> {
        self.durability
    }

    /// Read access to a host's durable store (tests, benches).
    pub fn durable_store(&self, host: HostId) -> Option<&DurableStore> {
        self.cores.get(&host)?.durable.as_ref()
    }

    /// Turn on the self-healing supervision layer: a crashed host is
    /// *suspected* after missing a heartbeat lease and automatically
    /// failed over to a standby (durable replay + roamer reclamation)
    /// once the lease expires; a hung host is bounced after the hang
    /// grace; crash-looping agents are quarantined once their restart
    /// budget runs out. Off by default — no detector events are
    /// scheduled, traces stay byte-identical, and every supervision
    /// counter stays zero.
    pub fn enable_supervision(&mut self, cfg: SupervisionConfig) {
        self.supervision = Some(SupervisionState {
            supervisor: Supervisor::new(cfg),
            armed: false,
            failed_over: HashMap::new(),
            rehomed: HashMap::new(),
            retired: HashSet::new(),
        });
    }

    /// The supervision policy engine, if enabled (tests, benches).
    pub fn supervisor(&self) -> Option<&Supervisor> {
        self.supervision.as_ref().map(|s| &s.supervisor)
    }

    /// Standby host that automatically replaced `host`, if the
    /// supervisor ran a failover for it.
    pub fn failover_of(&self, host: HostId) -> Option<HostId> {
        self.supervision
            .as_ref()
            .and_then(|s| s.failed_over.get(&host).copied())
    }

    /// Whether `host` is currently wedged by a chaos hang fault.
    pub fn host_hung(&self, host: HostId) -> bool {
        self.hosts.get(&host).map(|h| h.hung).unwrap_or(false)
    }

    /// Enforce a per-agent bounded mailbox with the given capacity and
    /// full-mailbox policy. Off by default (unbounded, byte-identical to
    /// the pre-overload behaviour).
    pub fn set_mailbox(&mut self, config: MailboxConfig) {
        self.mailbox = Some(MailboxState::new(Some(config)));
    }

    /// Highest mailbox depth observed so far (0 when bounded mailboxes
    /// are off).
    pub fn mailbox_max_depth(&self) -> usize {
        self.mailbox
            .as_ref()
            .map_or(0, MailboxState::max_depth_seen)
    }

    /// Register a host and return its id.
    pub fn add_host(&mut self, name: impl Into<String>) -> HostId {
        let id = HostId(self.next_host_id);
        self.next_host_id += 1;
        let secret = self.rng.gen();
        self.hosts.insert(
            id,
            Host {
                name: name.into(),
                crashed: false,
                hung: false,
                stalled: Vec::new(),
                stalled_timers: Vec::new(),
            },
        );
        let durable = self.durability.map(DurableStore::new);
        self.cores.insert(id, HostCore::new(id, secret, durable));
        id
    }

    /// Mutable access to the agent factory registry.
    pub fn registry_mut(&mut self) -> &mut AgentRegistry {
        &mut self.registry
    }

    /// Shared access to the agent factory registry.
    pub fn registry(&self) -> &AgentRegistry {
        &self.registry
    }

    /// Mutable access to the topology (adjust links between runs).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Create `agent` on `host` from outside the world (the operator's
    /// hand). `on_creation` runs immediately.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn create_agent(&mut self, host: HostId, agent: Box<dyn Agent>) -> Result<AgentId> {
        if !self.hosts.contains_key(&host) {
            return Err(PlatformError::UnknownHost(host));
        }
        let id = AgentId(self.next_agent_id);
        self.next_agent_id += 1;
        self.with_core(host, |core, w| core.install(w, id, agent, false));
        Ok(id)
    }

    /// Inject a message from outside the world (e.g. a simulated browser
    /// request entering the HttpA front). Delivered after the local delay.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownAgent`] if `to` has never been seen.
    pub fn send_external(&mut self, to: AgentId, mut msg: Message) -> Result<MessageId> {
        if !self.locations.contains_key(&to) {
            return Err(PlatformError::UnknownAgent(to));
        }
        msg.id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        msg.from = None;
        msg.to = to;
        // Request ingress: mint the root span of a new trace (subject to
        // sampling) and open the first message hop under it.
        msg.trace = if self.telemetry.is_enabled() {
            self.telemetry.mint_root(&msg.kind, self.now).map(|root| {
                self.telemetry.child(
                    root,
                    HopKind::Message,
                    msg.kind.clone(),
                    None,
                    None,
                    self.now,
                )
            })
        } else {
            None
        };
        let id = msg.id;
        let delay = self.topology.local_delay();
        let at = self.now + delay;
        self.enqueue_deliver(at, msg);
        Ok(id)
    }

    /// Process a single event. Returns `false` when the queue is empty or
    /// the event budget is exhausted.
    pub fn step(&mut self) -> bool {
        if self.processed_events >= self.max_events {
            return false;
        }
        let Some(Reverse(event)) = self.events.pop() else {
            return false;
        };
        self.processed_events += 1;
        debug_assert!(event.at >= self.now, "event queue must be monotone");
        self.now = event.at;
        match event.kind {
            EventKind::Deliver(msg) => self.handle_deliver(msg),
            EventKind::Arrive { capsule, dest } => {
                self.with_core(dest, |core, w| core.land(w, capsule));
            }
            EventKind::Timer {
                agent,
                tag,
                trace,
                deadline,
            } => self.handle_timer(Timer {
                agent,
                tag,
                trace,
                deadline,
            }),
            EventKind::Routed { host, op } => {
                let actor = op.agent();
                self.with_core(host, |core, w| core.handle(w, actor, op));
            }
            EventKind::Chaos { index, heal } => self.handle_chaos(index, heal),
            EventKind::SupervisionTick => self.handle_supervision_tick(),
        }
        if self.durability.is_some() {
            let mut cores = std::mem::take(&mut self.cores);
            for core in cores.values_mut() {
                core.maybe_checkpoint(self);
            }
            self.cores = cores;
        }
        true
    }

    /// Run `f` on `host`'s core with the world as its [`HostEnv`]. The
    /// cores are taken out of the world for the call; nothing a core asks
    /// of its env touches them.
    fn with_core<R>(
        &mut self,
        host: HostId,
        f: impl FnOnce(&mut HostCore, &mut Self) -> R,
    ) -> Option<R> {
        let mut cores = std::mem::take(&mut self.cores);
        let out = cores.get_mut(&host).map(|core| f(core, self));
        self.cores = cores;
        out
    }

    /// Run a callback on `id` wherever it is active (world-level callers:
    /// recovery and failover).
    fn callback_on<F>(&mut self, id: AgentId, name: &str, f: F)
    where
        F: FnOnce(&mut dyn Agent, &mut Ctx<'_>),
    {
        if let Some(Location::Active(host)) = self.location(id) {
            self.with_core(host, |core, w| core.run_callback(w, id, None, name, f));
        }
    }

    /// Run until no events remain. If request tracing recorded any spans,
    /// quiescence closes them all ([`Telemetry::finalize`]): every request
    /// whose work drained is complete by definition.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
        self.finalize_telemetry();
    }

    /// Close any open request spans at the current instant. Called by
    /// quiescence in [`SimWorld::run_until_idle`] and by the shard
    /// coordinator once the whole sharded world has drained.
    pub(crate) fn finalize_telemetry(&mut self) {
        if !self.telemetry.spans().is_empty() {
            let now = self.now;
            self.telemetry.finalize(now);
        }
    }

    /// Run until the clock reaches `deadline` or the queue drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(Reverse(ev)) = self.events.peek() {
            if ev.at > deadline {
                break;
            }
            if !self.step() {
                break;
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Run for `span` of simulated time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The labelled event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable trace access (e.g. to clear between bench iterations).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// The telemetry sink: request span trees and the metrics registry.
    /// Disabled by default; see [`SimWorld::enable_telemetry`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable telemetry access (enable, set sampling, read registries).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Turn on request tracing: every subsequent
    /// [`SimWorld::send_external`] mints a root span that follows the
    /// request through messages, handlers, migrations and timers.
    pub fn enable_telemetry(&mut self) {
        self.telemetry.enable();
    }

    /// Where `agent` currently is, if the world knows it.
    pub fn location(&self, agent: AgentId) -> Option<Location> {
        self.locations.get(&agent).copied()
    }

    /// Home host of `agent` (where it was created).
    pub fn home_of(&self, agent: AgentId) -> Option<HostId> {
        self.homes.get(&agent).copied()
    }

    /// Ids of agents active on `host`, sorted for determinism.
    pub fn agents_on(&self, host: HostId) -> Vec<AgentId> {
        let Some(core) = self.cores.get(&host) else {
            return Vec::new();
        };
        let mut ids: Vec<AgentId> = core.active.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of active agents on `host`.
    pub fn active_count(&self, host: HostId) -> usize {
        self.cores.get(&host).map(|c| c.active.len()).unwrap_or(0)
    }

    /// Bytes of deactivated capsules in `host`'s stable store.
    pub fn stored_bytes(&self, host: HostId) -> usize {
        self.cores
            .get(&host)
            .map(|c| c.store.stored_bytes())
            .unwrap_or(0)
    }

    /// Number of deactivated agents stored on `host`.
    pub fn stored_count(&self, host: HostId) -> usize {
        self.cores.get(&host).map(|c| c.store.len()).unwrap_or(0)
    }

    /// Host display name.
    pub fn host_name(&self, host: HostId) -> Option<&str> {
        self.hosts.get(&host).map(|h| h.name.as_str())
    }

    /// All host ids, in creation order.
    pub fn hosts(&self) -> Vec<HostId> {
        self.hosts.keys().copied().collect()
    }

    /// Count of failed return-authentications on `host`.
    pub fn auth_rejections(&self, host: HostId) -> u64 {
        self.cores
            .get(&host)
            .map(|c| c.auth.rejections())
            .unwrap_or(0)
    }

    /// Take everything `agent` has emitted with [`Ctx::emit`] since the
    /// last take, in emit order. Each payload is handed out exactly once.
    pub fn take_outbox(&mut self, agent: AgentId) -> Vec<Payload> {
        self.outbox.remove(&agent).unwrap_or_default()
    }

    /// Snapshot of an *active* agent's state, for inspection in tests.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownAgent`] if the agent is not active anywhere.
    pub fn snapshot_of(&self, agent: AgentId) -> Result<serde_json::Value> {
        let Some(Location::Active(host)) = self.locations.get(&agent).copied() else {
            return Err(PlatformError::UnknownAgent(agent));
        };
        let core = self
            .cores
            .get(&host)
            .ok_or(PlatformError::UnknownHost(host))?;
        let a = core
            .active
            .get(&agent)
            .ok_or(PlatformError::UnknownAgent(agent))?;
        Ok(a.snapshot())
    }

    /// Administratively deactivate an active agent (tests / operators).
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownAgent`] if not active.
    pub fn deactivate_agent(&mut self, agent: AgentId) -> Result<()> {
        match self.locations.get(&agent).copied() {
            Some(Location::Active(host)) => {
                self.with_core(host, |core, w| core.do_deactivate(w, agent));
                Ok(())
            }
            Some(Location::Deactivated(_)) => Err(PlatformError::AgentDeactivated(agent)),
            _ => Err(PlatformError::UnknownAgent(agent)),
        }
    }

    /// Administratively activate a deactivated agent.
    ///
    /// # Errors
    ///
    /// [`PlatformError::AgentAlreadyActive`] if active;
    /// [`PlatformError::UnknownAgent`] if unknown.
    pub fn activate_agent(&mut self, agent: AgentId) -> Result<()> {
        match self.locations.get(&agent).copied() {
            Some(Location::Deactivated(host)) => self
                .with_core(host, |core, w| core.do_activate(w, agent))
                .unwrap_or(Err(PlatformError::UnknownHost(host))),
            Some(Location::Active(_)) => Err(PlatformError::AgentAlreadyActive(agent)),
            _ => Err(PlatformError::UnknownAgent(agent)),
        }
    }

    /// Install `plan` into the world: its faults are scheduled as ordinary
    /// events (apply at `at`, heal at `at + heal_after`) and the message
    /// duplication/reordering knobs take effect immediately. All chaos
    /// randomness is drawn from the world's own RNG, so an execution
    /// reproduces exactly from `(world seed, plan)`.
    pub fn install_chaos(&mut self, plan: &ChaosPlan) {
        for (index, ev) in plan.events.iter().enumerate() {
            self.schedule_at(ev.at(), EventKind::Chaos { index, heal: false });
            self.schedule_at(ev.heals_at(), EventKind::Chaos { index, heal: true });
        }
        self.chaos = Some(ChaosState {
            dup_probability: plan.dup_probability,
            reorder_probability: plan.reorder_probability,
            max_jitter_us: plan.max_jitter_us,
            events: plan.events.clone(),
            fifo: HashMap::new(),
            delivered: HashSet::new(),
        });
        self.trace.record(
            self.now,
            None,
            format!(
                "chaos: plan installed (seed {}, {} events)",
                plan.seed,
                plan.events.len()
            ),
        );
    }

    /// Crash `host`: every active agent and deactivated capsule on it is
    /// lost (the registry reconciles — their locations are forgotten), and
    /// the host refuses deliveries, arrivals and dispatches until
    /// [`SimWorld::restart_host`]. The authenticator survives, modelling
    /// secrets kept on stable storage.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn crash_host(&mut self, host: HostId) -> Result<()> {
        let h = self
            .hosts
            .get_mut(&host)
            .ok_or(PlatformError::UnknownHost(host))?;
        if h.crashed {
            return Ok(());
        }
        h.crashed = true;
        // A crash while hung loses the stall buffers with the host.
        h.hung = false;
        let stalled_lost = h.stalled.len() as u64;
        h.stalled.clear();
        h.stalled_timers.clear();
        let lost = self.with_core(host, |core, w| core.crash(w)).unwrap_or(0);
        self.metrics.host_crashes += 1;
        self.metrics.messages_lost += stalled_lost;
        self.trace.record(
            self.now,
            None,
            format!("chaos: {host} crashed ({lost} agents lost)"),
        );
        let now_us = self.now.as_micros();
        if let Some(state) = self.supervision.as_mut() {
            state.supervisor.observe_hang_cleared(host);
            state.supervisor.observe_crash(host, now_us);
        }
        self.arm_supervision();
        Ok(())
    }

    /// Bring a crashed host back up (empty, but reachable again). With
    /// durability enabled the restart also runs the recovery pass:
    /// replay the WAL over the last snapshot, restore deactivated
    /// capsules into the host's store, rehydrate journalled active
    /// agents, and hand each its logged profile deltas via
    /// [`Agent::on_recovered`].
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn restart_host(&mut self, host: HostId) -> Result<()> {
        let h = self
            .hosts
            .get_mut(&host)
            .ok_or(PlatformError::UnknownHost(host))?;
        if h.crashed {
            h.crashed = false;
            self.trace
                .record(self.now, None, format!("chaos: {host} restarted"));
            self.with_core(host, |core, w| core.recover(w));
            // A scripted/chaos heal cancels any pending automatic failover.
            if let Some(state) = self.supervision.as_mut() {
                state.supervisor.observe_restart(host);
            }
        }
        Ok(())
    }

    /// Whether `host` is currently crashed.
    pub fn host_crashed(&self, host: HostId) -> bool {
        self.hosts.get(&host).map(|h| h.crashed).unwrap_or(false)
    }

    /// Ensure a supervision detector tick is scheduled. The detector is
    /// dormant (zero events, zero cost) until an observation arms it.
    fn arm_supervision(&mut self) {
        let interval = match self.supervision.as_mut() {
            Some(state) if !state.armed => {
                state.armed = true;
                state.supervisor.config().lease_interval_us
            }
            _ => return,
        };
        self.schedule(
            SimDuration::from_micros(interval),
            EventKind::SupervisionTick,
        );
    }

    /// Run the failure detector and execute its verdicts, then reschedule
    /// the next tick while anything is still being watched.
    fn handle_supervision_tick(&mut self) {
        let now_us = self.now.as_micros();
        let (verdicts, interval) = match self.supervision.as_mut() {
            Some(state) => (
                state.supervisor.tick(now_us),
                state.supervisor.config().lease_interval_us,
            ),
            None => return,
        };
        for verdict in verdicts {
            match verdict {
                Verdict::Suspect(host) => {
                    self.metrics.hosts_suspected += 1;
                    self.trace.record(
                        self.now,
                        None,
                        format!("supervisor: {host} suspected (missed heartbeat lease)"),
                    );
                }
                Verdict::FailOver(host) => {
                    self.metrics.leases_expired += 1;
                    self.trace.record(
                        self.now,
                        None,
                        format!("supervisor: {host} lease expired, starting failover"),
                    );
                    self.failover_host(host);
                }
                Verdict::BounceHang(host) => {
                    self.metrics.hangs_detected += 1;
                    self.trace.record(
                        self.now,
                        None,
                        format!("supervisor: {host} hung past grace, bouncing"),
                    );
                    self.heal_hang(host, true);
                }
            }
        }
        let watching = self
            .supervision
            .as_ref()
            .is_some_and(|s| s.supervisor.watching());
        if watching {
            self.schedule(
                SimDuration::from_micros(interval),
                EventKind::SupervisionTick,
            );
        } else if let Some(state) = self.supervision.as_mut() {
            state.armed = false;
        }
    }

    /// Automatic host failover: stand up a standby host, move the dead
    /// host's durable store onto it, re-run the replay/rehydrate recovery
    /// pass there unprompted, and reclaim every agent homed on the dead
    /// host — restored agents and roamers are re-bound to the standby
    /// ([`Agent::on_rehomed`]); orphaned roamers with no restored owner
    /// are retired instead of leaking.
    fn failover_host(&mut self, dead: HostId) {
        if !self.host_crashed(dead) {
            return; // healed since the lease expired; nothing to do
        }
        let base_name = self
            .hosts
            .get(&dead)
            .map(|h| h.name.clone())
            .unwrap_or_else(|| format!("{dead}"));
        let standby = self.add_host(format!("{base_name}+failover"));
        // Move (not copy) the durable store: the dead host must not be
        // able to resurrect a second copy of these agents if a scripted
        // heal restarts it later.
        let moved = self.cores.get_mut(&dead).and_then(|c| c.durable.take());
        if let Some(store) = moved {
            if let Some(s) = self.cores.get_mut(&standby) {
                s.durable = Some(store);
            }
        }
        self.metrics.failovers += 1;
        self.trace.record(
            self.now,
            None,
            format!("supervisor: {dead} failed over to {standby} ({base_name}+failover)"),
        );
        self.with_core(standby, |core, w| core.recover(w));
        let restored_any = self
            .cores
            .get(&standby)
            .map(|c| !c.active.is_empty() || !c.store.is_empty())
            .unwrap_or(false);
        let mut orphans: Vec<AgentId> = self
            .homes
            .iter()
            .filter(|(_, home)| **home == dead)
            .map(|(id, _)| *id)
            .collect();
        orphans.sort_unstable();
        for id in orphans {
            match self.locations.get(&id).copied() {
                Some(Location::Active(at)) if at == standby => {
                    // Restored by the recovery pass above: re-bound
                    // silently as part of the failover itself.
                    self.homes.insert(id, standby);
                    if let Some(state) = self.supervision.as_mut() {
                        state.rehomed.insert(id, standby);
                    }
                    self.callback_on(id, "on_rehomed", move |agent, ctx| {
                        agent.on_rehomed(ctx, standby)
                    });
                }
                Some(_) if restored_any => {
                    // A roamer whose owner came back on the standby:
                    // re-bind its lease-stamped home. In-transit agents
                    // get their callback on arrival via the rehomed map.
                    self.homes.insert(id, standby);
                    if let Some(state) = self.supervision.as_mut() {
                        state.rehomed.insert(id, standby);
                    }
                    self.metrics.agents_rehomed += 1;
                    self.trace.record(
                        self.now,
                        Some(id),
                        format!("supervisor: roaming {id} re-bound to {standby}"),
                    );
                    self.callback_on(id, "on_rehomed", move |agent, ctx| {
                        agent.on_rehomed(ctx, standby)
                    });
                }
                Some(Location::Active(at)) | Some(Location::Deactivated(at)) => {
                    // No owner restored on the standby: retire the orphan
                    // rather than leak it.
                    self.metrics.agents_retired += 1;
                    self.trace.record(
                        self.now,
                        Some(id),
                        format!("supervisor: orphan {id} retired (home {dead} lost)"),
                    );
                    self.with_core(at, |core, w| core.do_dispose(w, id));
                }
                Some(Location::InTransit) => {
                    // Cannot be disposed mid-flight: dropped on arrival.
                    if let Some(state) = self.supervision.as_mut() {
                        state.retired.insert(id);
                    }
                }
                None => {
                    // Lost in the crash and not restored: drop the stale
                    // home entry so a later failover won't re-process it.
                    self.homes.remove(&id);
                }
            }
        }
        if let Some(state) = self.supervision.as_mut() {
            state.failed_over.insert(dead, standby);
        }
    }

    /// Wedge `host` (chaos hang fault): arrivals still land, but
    /// deliveries and timer callbacks stall until the hang heals or the
    /// supervisor bounces the host.
    fn apply_hang(&mut self, host: HostId) {
        let Some(h) = self.hosts.get_mut(&host) else {
            return;
        };
        if h.crashed || h.hung {
            return;
        }
        h.hung = true;
        self.metrics.hangs_injected += 1;
        self.trace.record(
            self.now,
            None,
            format!("chaos: {host} hung (deliveries stalling)"),
        );
        let now_us = self.now.as_micros();
        if let Some(state) = self.supervision.as_mut() {
            state.supervisor.observe_hang(host, now_us);
        }
        self.arm_supervision();
    }

    /// Un-wedge `host` and replay everything that stalled. `bounced`
    /// marks a supervisor-driven bounce rather than a scripted chaos heal.
    fn heal_hang(&mut self, host: HostId, bounced: bool) {
        let (stalled, timers) = {
            let Some(h) = self.hosts.get_mut(&host) else {
                return;
            };
            if !h.hung {
                return;
            }
            h.hung = false;
            (
                std::mem::take(&mut h.stalled),
                std::mem::take(&mut h.stalled_timers),
            )
        };
        let label = if bounced {
            format!(
                "supervisor: {host} bounced ({} stalled deliveries replayed)",
                stalled.len()
            )
        } else {
            format!(
                "chaos: {host} unhung ({} stalled deliveries replayed)",
                stalled.len()
            )
        };
        self.trace.record(self.now, None, label);
        if let Some(state) = self.supervision.as_mut() {
            state.supervisor.observe_hang_cleared(host);
        }
        for msg in stalled {
            let at = self.now + self.topology.local_delay();
            self.enqueue_deliver(at, msg);
        }
        for timer in timers {
            self.schedule_timer(self.now, timer);
        }
    }

    // ------------------------------------------------------------------
    // shard boundary (driven by crate::shard::ShardedSimWorld)
    // ------------------------------------------------------------------

    /// Turn this world into shard `shard` of a multi-shard run. Non-zero
    /// shards get disjoint id bases so agent/message/host ids are globally
    /// unique; shard 0 keeps the default bases, which is what makes the
    /// 1-shard configuration byte-identical to an unsharded world.
    pub(crate) fn enable_boundary(&mut self, shard: u16, latency: SimDuration) {
        self.shard = shard;
        if shard > 0 {
            self.next_agent_id = ((shard as u64) << 40) | 1;
            self.next_msg_id = ((shard as u64) << 40) | 1;
            self.next_host_id = ((shard as u32) << 24) | 1;
        }
        self.boundary = Some(BoundaryState {
            latency,
            remote_agents: HashMap::new(),
            remote_hosts: HashSet::new(),
            remote_down: HashSet::new(),
            outbox: Vec::new(),
            announce: Vec::new(),
        });
    }

    /// Make a host owned by another shard addressable from this one.
    pub(crate) fn register_remote_host(&mut self, host: HostId) {
        if let Some(b) = &mut self.boundary {
            b.remote_hosts.insert(host);
        }
    }

    /// Record (or refresh) the shard-external location of an agent.
    pub(crate) fn register_remote_agent(&mut self, agent: AgentId, host: HostId) {
        if let Some(b) = &mut self.boundary {
            b.remote_agents.insert(agent, host);
        }
    }

    /// Mirror a remote host's crashed/restarted state.
    pub(crate) fn set_remote_host_down(&mut self, host: HostId, down: bool) {
        if let Some(b) = &mut self.boundary {
            if down {
                b.remote_down.insert(host);
            } else {
                b.remote_down.remove(&host);
            }
        }
    }

    /// Time of the earliest queued event, if any.
    pub(crate) fn next_event_at(&self) -> Option<SimTime> {
        self.events.peek().map(|Reverse(e)| e.at)
    }

    /// Process every event strictly before `end` (one conservative epoch).
    /// The clock is left at the last processed event, not advanced to
    /// `end`, so a 1-shard epoch loop replays `run_until_idle` exactly.
    pub(crate) fn run_window(&mut self, end: SimTime) {
        while let Some(Reverse(ev)) = self.events.peek() {
            if ev.at >= end {
                break;
            }
            if !self.step() {
                break;
            }
        }
    }

    /// Advance the clock to the epoch end without processing anything.
    /// Called on every shard (busy or idle) at the inter-epoch barrier so
    /// shard clocks stay in lockstep: if an idle shard's clock lagged (or
    /// ran ahead), a later boundary item could land in its past. With
    /// lockstep, every pending event and every outbox item is stamped at
    /// or after the epoch end, so `now <= end <=` all future work.
    pub(crate) fn sync_clock(&mut self, to: SimTime) {
        if self.now < to {
            self.now = to;
        }
    }

    /// Take the boundary items produced during the last window.
    pub(crate) fn drain_outbox(&mut self) -> Vec<BoundaryItem> {
        self.boundary
            .as_mut()
            .map(|b| std::mem::take(&mut b.outbox))
            .unwrap_or_default()
    }

    /// Take the agent announcements produced during the last window.
    pub(crate) fn drain_announcements(&mut self) -> Vec<(AgentId, HostId)> {
        self.boundary
            .as_mut()
            .map(|b| std::mem::take(&mut b.announce))
            .unwrap_or_default()
    }

    /// Accept a boundary item routed here by the coordinator. The item is
    /// enqueued under its origin `(at, shard, seq)` key, so the resulting
    /// heap order is independent of exchange iteration order.
    pub(crate) fn inject_boundary(&mut self, item: BoundaryItem) {
        debug_assert!(
            item.at >= self.now,
            "boundary item must not land in this shard's past"
        );
        let at = item.at.max(self.now);
        let (shard, seq) = (item.origin_shard, item.origin_seq);
        match item.payload {
            BoundaryPayload::Deliver(msg) => {
                self.metrics.boundary_messages += 1;
                self.enqueue_deliver_keyed(at, Some((shard, seq)), msg);
            }
            BoundaryPayload::Arrive { capsule, dest } => {
                self.metrics.boundary_migrations += 1;
                if let Some(b) = &mut self.boundary {
                    // The agent is ours from injection on.
                    b.remote_agents.remove(&capsule.id);
                }
                self.events.push(Reverse(QueuedEvent {
                    at,
                    shard,
                    seq,
                    kind: EventKind::Arrive { capsule, dest },
                }));
            }
        }
    }

    /// Host an agent is known to occupy on another shard, if any.
    fn remote_host_of(&self, agent: AgentId) -> Option<HostId> {
        self.boundary
            .as_ref()
            .and_then(|b| b.remote_agents.get(&agent).copied())
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn schedule(&mut self, delay: SimDuration, kind: EventKind) {
        let at = self.now + delay;
        self.schedule_at(at, kind);
    }

    /// Schedule at an absolute time (clamped to now, keeping the queue
    /// monotone).
    fn schedule_at(&mut self, at: SimTime, kind: EventKind) {
        let at = at.max(self.now);
        let shard = self.shard;
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(QueuedEvent {
            at,
            shard,
            seq,
            kind,
        }));
    }

    /// Apply or heal the installed plan's fault at `index`.
    fn handle_chaos(&mut self, index: usize, heal: bool) {
        let Some(ev) = self
            .chaos
            .as_ref()
            .and_then(|c| c.events.get(index))
            .copied()
        else {
            return;
        };
        let label = match (ev.fault, heal) {
            (Fault::Partition { a, b }, false) => {
                self.topology.partition(a, b);
                format!("chaos: partition {a}-{b}")
            }
            (Fault::Partition { a, b }, true) => {
                self.topology.heal_partition(a, b);
                format!("chaos: heal partition {a}-{b}")
            }
            (Fault::LinkLoss { a, b, loss }, false) => {
                self.topology.set_fault_loss(a, b, loss);
                format!("chaos: link {a}-{b} loss {loss:.2}")
            }
            (Fault::LinkLoss { a, b, .. }, true) => {
                self.topology.clear_fault_loss(a, b);
                format!("chaos: heal link {a}-{b} loss")
            }
            (Fault::SlowLink { a, b, factor }, false) => {
                self.topology.set_slowdown(a, b, factor);
                format!("chaos: link {a}-{b} slowed {factor:.1}x")
            }
            (Fault::SlowLink { a, b, .. }, true) => {
                self.topology.clear_slowdown(a, b);
                format!("chaos: heal link {a}-{b} slowdown")
            }
            (Fault::CrashHost { host }, false) => {
                if self.hosts.contains_key(&host) {
                    let _ = self.crash_host(host);
                } else {
                    // Another shard owns the host; mirror its state so
                    // remote dispatches are refused while it is down.
                    self.set_remote_host_down(host, true);
                }
                return; // crash_host traces for itself
            }
            (Fault::CrashHost { host }, true) => {
                if self.hosts.contains_key(&host) {
                    let _ = self.restart_host(host);
                } else {
                    self.set_remote_host_down(host, false);
                }
                return; // restart_host traces for itself
            }
            (Fault::Hang { host }, false) => {
                // Stalling is enforced at the shard that owns the host;
                // other shards see nothing (the hung host still accepts
                // traffic, so there is no routing state to mirror).
                if self.hosts.contains_key(&host) {
                    self.apply_hang(host);
                }
                return; // apply_hang traces for itself
            }
            (Fault::Hang { host }, true) => {
                if self.hosts.contains_key(&host) {
                    self.heal_hang(host, false);
                }
                return; // heal_hang traces for itself
            }
        };
        self.trace.record(self.now, None, label);
    }

    fn schedule_timer(&mut self, at: SimTime, timer: Timer) {
        let Timer {
            agent,
            tag,
            trace,
            deadline,
        } = timer;
        self.schedule_at(
            at,
            EventKind::Timer {
                agent,
                tag,
                trace,
                deadline,
            },
        );
    }

    /// Roll the link's loss for a hop from `from` to `to`: `Some(chaos)`
    /// if the hop is lost, `chaos` telling whether a chaos fault (rather
    /// than the base link) dropped it. Counts the loss.
    fn roll_loss(&mut self, from: HostId, to: HostId) -> Option<bool> {
        let loss = self.topology.loss(from, to);
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            self.metrics.messages_lost += 1;
            let chaos_fault = self.topology.fault_active(from, to);
            if chaos_fault {
                self.metrics.chaos_drops += 1;
            }
            Some(chaos_fault)
        } else {
            None
        }
    }

    /// Close a lost message's hop span.
    fn drop_lost(&mut self, msg: &Message, chaos_fault: bool) {
        let label = if chaos_fault {
            "dropped: chaos fault on link"
        } else {
            "dropped: link loss"
        };
        self.close_span(msg.trace, SpanEventKind::Chaos, label);
    }

    /// Hand a message to an agent owned by another shard: faults on the
    /// cross-shard link are rolled on the sending side (which owns the
    /// topology overlay for the pair), the hop span is ended here (span
    /// ids do not cross the boundary), and the item joins the outbox with
    /// a delivery time no earlier than the epoch end.
    fn send_boundary_message(&mut self, from_host: HostId, to_host: HostId, mut msg: Message) {
        let bytes = msg.wire_size();
        if let Some(chaos_fault) = self.roll_loss(from_host, to_host) {
            self.drop_lost(&msg, chaos_fault);
            return;
        }
        self.metrics.remote_message_bytes += bytes as u64;
        let label = format!("{} to {} crossed shard boundary", msg.kind, msg.to);
        self.close_span(msg.strip_trace(), SpanEventKind::Boundary, label);
        let delay = self.topology.delivery_time(from_host, to_host, bytes);
        self.push_boundary(delay, BoundaryPayload::Deliver(msg));
    }

    /// Queue a boundary item no earlier than the boundary latency from now.
    fn push_boundary(&mut self, delay: SimDuration, payload: BoundaryPayload) {
        let latency = self
            .boundary
            .as_ref()
            .map(|b| b.latency)
            .unwrap_or_default();
        let at = self.now + delay.max(latency);
        let seq = self.seq;
        self.seq += 1;
        let origin_shard = self.shard;
        if let Some(b) = &mut self.boundary {
            b.outbox.push(BoundaryItem {
                at,
                origin_shard,
                origin_seq: seq,
                payload,
            });
        }
    }

    /// Schedule a delivery, consulting the bounded mailbox (if one is
    /// configured) for an admission verdict first. The mailbox is the
    /// single choke point for every path that ends in
    /// [`EventKind::Deliver`]: agent sends, external ingress, chaos
    /// duplicates, activation replays and boundary injections.
    fn enqueue_deliver(&mut self, at: SimTime, msg: Message) {
        self.enqueue_deliver_keyed(at, None, msg);
    }

    /// [`SimWorld::enqueue_deliver`] with an optional explicit ordering
    /// key. `None` mints a local `(shard, seq)` key lazily — only if the
    /// verdict actually schedules, preserving the unsharded sequence
    /// stream byte for byte. `Some` pins the origin key of a boundary
    /// item so injected deliveries keep their global total order.
    fn enqueue_deliver_keyed(&mut self, at: SimTime, key: Option<(u16, u64)>, msg: Message) {
        let Some(mailbox) = self.mailbox.as_mut() else {
            self.schedule_deliver(at, key, msg);
            return;
        };
        match mailbox.on_enqueue(msg.to, msg.id) {
            EnqueueVerdict::Admit => self.schedule_deliver(at, key, msg),
            EnqueueVerdict::AdmitEvictingOldest => {
                self.metrics.mailbox_rejections += 1;
                self.trace.record(
                    self.now,
                    msg.from,
                    format!("mailbox full at {}: oldest queued message evicted", msg.to),
                );
                self.schedule_deliver(at, key, msg);
            }
            EnqueueVerdict::Reject => {
                self.metrics.mailbox_rejections += 1;
                let label = format!("shed: mailbox full at {}", msg.to);
                self.close_span(msg.trace, SpanEventKind::Shed, label);
                self.trace.record(
                    self.now,
                    msg.from,
                    format!("mailbox full at {}: {} rejected", msg.to, msg.kind),
                );
            }
            EnqueueVerdict::Defer => {
                let label = format!("mailbox full at {}: delivery deferred", msg.to);
                self.span_event(msg.trace, SpanEventKind::Note, label);
                if let Some(mailbox) = self.mailbox.as_mut() {
                    mailbox.defer(msg);
                }
            }
        }
        let max_depth = self
            .mailbox
            .as_ref()
            .map_or(0, MailboxState::max_depth_seen);
        if self.telemetry.is_enabled() {
            self.telemetry
                .registry_mut()
                .set_gauge("overload.mailbox_depth_max", max_depth as f64);
        }
    }

    /// Push an admitted delivery onto the heap, under the given origin key
    /// or a freshly minted local one.
    fn schedule_deliver(&mut self, at: SimTime, key: Option<(u16, u64)>, msg: Message) {
        match key {
            None => self.schedule_at(at, EventKind::Deliver(msg)),
            Some((shard, seq)) => {
                let at = at.max(self.now);
                self.events.push(Reverse(QueuedEvent {
                    at,
                    shard,
                    seq,
                    kind: EventKind::Deliver(msg),
                }));
            }
        }
    }

    fn handle_deliver(&mut self, msg: Message) {
        let Some(mut msg) = admit(self, msg) else {
            return;
        };
        let to = msg.to;
        match self.locations.get(&to).copied() {
            Some(Location::Active(host)) if self.host_hung(host) => {
                // A hung host accepts the connection but never drains it:
                // the delivery stalls (before duplicate suppression, so
                // the replayed copy is not mistaken for a chaos dupe).
                let label = format!("stalled: {host} hung");
                self.span_event(msg.trace, SpanEventKind::Note, label);
                if let Some(h) = self.hosts.get_mut(&host) {
                    h.stalled.push(msg);
                }
            }
            Some(Location::Active(host)) | Some(Location::Deactivated(host)) => {
                self.with_core(host, |core, w| core.deliver(w, msg));
            }
            Some(Location::InTransit) | None if self.remote_host_of(to).is_some() => {
                // The recipient moved to another shard after this
                // delivery was queued: forward across the boundary
                // instead of dead-lettering.
                let label = format!("{} to {} forwarded across shard boundary", msg.kind, to);
                self.close_span(msg.strip_trace(), SpanEventKind::Boundary, label);
                self.push_boundary(SimDuration::default(), BoundaryPayload::Deliver(msg));
            }
            Some(Location::InTransit) | None => dead_letter(self, msg, "gone at delivery"),
        }
    }

    /// Administratively recall an active agent to `to` (operator-side
    /// `retract`).
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownAgent`] if not active anywhere;
    /// [`PlatformError::UnknownHost`] if `to` does not exist.
    pub fn retract_agent(&mut self, agent: AgentId, to: HostId) -> Result<()> {
        if !self.hosts.contains_key(&to) {
            return Err(PlatformError::UnknownHost(to));
        }
        match self.locations.get(&agent).copied() {
            Some(Location::Active(at)) => {
                if at != to {
                    self.with_core(at, |core, w| core.dispatch(w, agent, to));
                }
                Ok(())
            }
            _ => Err(PlatformError::UnknownAgent(agent)),
        }
    }

    fn handle_timer(&mut self, timer: Timer) {
        match self.locations.get(&timer.agent).copied() {
            Some(Location::Active(host)) => {
                // Wedged scheduler: the callback only fires once the hang
                // clears (heal or supervisor bounce).
                match self.hosts.get_mut(&host) {
                    Some(h) if h.hung => h.stalled_timers.push(timer),
                    _ => {
                        self.with_core(host, |core, w| core.fire_timer(w, timer));
                    }
                }
            }
            _ => {
                // Agent gone (disposed, migrated, crashed): the
                // pending-timer hop still closes.
                self.end_span(timer.trace);
            }
        }
    }
}

impl HostEnv for SimWorld {
    fn now(&self) -> SimTime {
        self.now
    }

    fn ctx_parts(&mut self) -> (&mut StdRng, &mut u64) {
        (&mut self.rng, &mut self.next_agent_id)
    }

    fn next_msg_id(&mut self) -> MessageId {
        let id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        id
    }

    fn registry(&self) -> &AgentRegistry {
        &self.registry
    }

    fn locate(&self, id: AgentId) -> Option<Location> {
        self.locations.get(&id).copied()
    }

    fn set_location(&mut self, id: AgentId, loc: Option<Location>) {
        match loc {
            Some(loc) => self.locations.insert(id, loc),
            None => self.locations.remove(&id),
        };
    }

    fn home_of(&self, id: AgentId) -> Option<HostId> {
        self.homes.get(&id).copied()
    }

    fn set_home(&mut self, id: AgentId, home: HostId) {
        self.homes.insert(id, home);
    }

    fn reach(&self, from: HostId, dest: HostId) -> Reach {
        let down = match (self.hosts.get(&dest), &self.boundary) {
            (Some(h), _) => h.crashed,
            (None, Some(b)) if b.remote_hosts.contains(&dest) => b.remote_down.contains(&dest),
            (None, _) => return Reach::Unknown,
        };
        if down || self.topology.is_partitioned(from, dest) {
            Reach::Refused
        } else {
            Reach::Open
        }
    }

    fn is_down(&self, host: HostId) -> bool {
        self.host_crashed(host)
    }

    fn metrics(&mut self) -> impl std::ops::DerefMut<Target = Metrics> + '_ {
        &mut self.metrics
    }

    fn trace(&mut self) -> impl std::ops::DerefMut<Target = Trace> + '_ {
        &mut self.trace
    }

    fn telemetry(&mut self) -> impl std::ops::DerefMut<Target = Telemetry> + '_ {
        &mut self.telemetry
    }

    fn tracing(&self) -> bool {
        self.telemetry.is_enabled()
    }

    fn send(&mut self, from_host: HostId, msg: Message) {
        let to = msg.to;
        let to_host = match self.locations.get(&to) {
            Some(Location::Active(h)) | Some(Location::Deactivated(h)) => *h,
            Some(Location::InTransit) | None => {
                match self.remote_host_of(to) {
                    Some(remote) => self.send_boundary_message(from_host, remote, msg),
                    None => dead_letter(self, msg, "unreachable"),
                }
                return;
            }
        };
        if let Some(chaos_fault) = self.roll_loss(from_host, to_host) {
            self.drop_lost(&msg, chaos_fault);
            return;
        }
        // A same-host delivery costs the local delay whatever its size, so
        // a local message is never measured (and its payload never encoded).
        let bytes = if from_host == to_host {
            0
        } else {
            msg.wire_size()
        };
        self.metrics.remote_message_bytes += bytes as u64;
        let mut delay = self.topology.delivery_time(from_host, to_host, bytes);
        let Some(chaos) = self.chaos.as_mut() else {
            let at = self.now + delay;
            self.enqueue_deliver(at, msg);
            return;
        };
        // Bounded reordering: extra jitter on some deliveries, clamped so
        // per-(sender, receiver)-pair FIFO order is preserved (TCP-like;
        // only cross-pair interleavings change).
        let mut jittered = false;
        if chaos.reorder_probability > 0.0 && self.rng.gen::<f64>() < chaos.reorder_probability {
            delay = delay + SimDuration(self.rng.gen_range(0..=chaos.max_jitter_us));
            self.metrics.chaos_delays += 1;
            jittered = true;
        }
        let key = (msg.from, msg.to);
        let mut at = self.now + delay;
        if let Some(&last) = chaos.fifo.get(&key) {
            at = at.max(last);
        }
        // Duplication: a second copy with the *same* message id, scheduled
        // at or after the original; the receiver suppresses it.
        let dup_at = if chaos.dup_probability > 0.0 && self.rng.gen::<f64>() < chaos.dup_probability
        {
            self.metrics.chaos_dupes += 1;
            Some(at + SimDuration(self.rng.gen_range(0..=chaos.max_jitter_us.max(1))))
        } else {
            None
        };
        chaos.fifo.insert(key, dup_at.unwrap_or(at));
        if jittered {
            self.span_event(msg.trace, SpanEventKind::Chaos, "reorder jitter injected");
        }
        if let Some(dup_at) = dup_at {
            self.span_event(msg.trace, SpanEventKind::Chaos, "duplicated by chaos");
            self.enqueue_deliver(dup_at, msg.clone());
        }
        self.enqueue_deliver(at, msg);
    }

    fn arm_timer(&mut self, _host: HostId, delay: SimDuration, timer: Timer) {
        self.schedule_timer(self.now + delay, timer);
    }

    /// A local destination gets an arrival event after the link delay; a
    /// host owned by another shard gets the capsule through the boundary
    /// outbox, and the agent leaves this shard's directory so follow-up
    /// messages forward across the boundary. The migration hop ends at the
    /// boundary: span ids are shard-local.
    fn ship(&mut self, from: HostId, mut capsule: AgentCapsule, dest: HostId) {
        let id = capsule.id;
        let remote = !self.hosts.contains_key(&dest);
        if remote {
            let label = format!("{id} crossed shard boundary to {dest}");
            self.close_span(capsule.strip_trace(), SpanEventKind::Boundary, label);
        }
        let bytes = capsule.wire_size();
        if self.roll_loss(from, dest).is_some() {
            // The capsule is lost in transit: the agent is gone.
            self.locations.remove(&id);
            let label = format!("agent lost in transit to {dest}");
            self.close_span(capsule.trace, SpanEventKind::Chaos, label.clone());
            self.trace.record(self.now, Some(id), label);
            return;
        }
        self.metrics.migration_bytes += bytes as u64;
        let delay = self.topology.delivery_time(from, dest, bytes);
        if remote {
            self.locations.remove(&id);
            self.register_remote_agent(id, dest);
            self.push_boundary(delay, BoundaryPayload::Arrive { capsule, dest });
        } else {
            self.schedule(delay, EventKind::Arrive { capsule, dest });
        }
    }

    fn redeliver(&mut self, _host: HostId, msg: Message) {
        let at = self.now + self.topology.local_delay();
        self.enqueue_deliver(at, msg);
    }

    fn release(&mut self, msg: Message) {
        // Already admitted when it was deferred: schedule it directly.
        self.schedule_at(self.now, EventKind::Deliver(msg));
    }

    fn route(&mut self, host: HostId, op: Routed) {
        self.schedule_at(self.now, EventKind::Routed { host, op });
    }

    fn emit(&mut self, actor: AgentId, payloads: Vec<Payload>) {
        self.outbox.entry(actor).or_default().extend(payloads);
    }

    fn mailbox(&mut self) -> Option<impl std::ops::DerefMut<Target = MailboxState> + '_> {
        self.mailbox.as_mut()
    }

    fn first_delivery(&mut self, id: MessageId) -> bool {
        self.chaos.as_mut().is_none_or(|c| c.delivered.insert(id))
    }

    fn restore_decision(&mut self, id: AgentId) -> Option<RestoreDecision> {
        self.supervision
            .as_mut()
            .map(|s| s.supervisor.note_restore(id))
    }

    fn announce(&mut self, id: AgentId, host: HostId) {
        if let Some(b) = &mut self.boundary {
            b.announce.push((id, host));
        }
    }

    fn retire_on_arrival(&mut self, id: AgentId) -> bool {
        self.supervision
            .as_mut()
            .is_some_and(|s| s.retired.remove(&id))
    }

    fn rehomed(&self, id: AgentId) -> Option<HostId> {
        self.supervision
            .as_ref()
            .and_then(|s| s.rehomed.get(&id).copied())
    }
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorld")
            .field("now", &self.now)
            .field("hosts", &self.hosts.len())
            .field("agents", &self.locations.len())
            .field("queued_events", &self.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    /// Agent that counts messages and can be told to act via message kinds.
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Worker {
        count: u32,
    }

    impl Agent for Worker {
        fn agent_type(&self) -> &'static str {
            "worker"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            self.count += 1;
            match msg.kind.as_str() {
                "go" => {
                    let dest: u32 = msg.payload_as().unwrap();
                    ctx.dispatch_self(HostId(dest));
                }
                "sleep" => ctx.deactivate_self(),
                "die" => ctx.dispose_self(),
                "spawn" => {
                    ctx.create_agent(Box::new(Worker::default()));
                }
                "clone" => {
                    ctx.clone_self();
                }
                "retract" => {
                    let (agent, to): (u64, u32) = msg.payload_as().unwrap();
                    ctx.retract(AgentId(agent), HostId(to));
                }
                "ping" => {
                    ctx.reply(&msg, Message::new("pong"));
                }
                "sendto" => {
                    let target: u64 = msg.payload_as().unwrap();
                    ctx.send(AgentId(target), Message::new("ping"));
                }
                "emit" => ctx.emit(Payload::encode(&self.count).unwrap()),
                _ => {}
            }
        }
        fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
            ctx.note(format!("arrived at {}", ctx.host()));
        }
    }

    /// Records, before and after reading each message's payload, whether
    /// the payload's JSON tree exists; asks a peer and answers requests
    /// with typed payloads.
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Tracer {
        built: Vec<bool>,
    }

    fn words() -> Vec<String> {
        vec!["typed".into(), "local \"payload\"".into()]
    }

    impl Agent for Tracer {
        fn agent_type(&self) -> &'static str {
            "tracer"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            self.built.push(msg.payload.is_materialised());
            match msg.kind.as_str() {
                "ask" => {
                    let peer: u64 = msg.payload_as().unwrap();
                    let request = Message::new("request").with_payload(&words()).unwrap();
                    ctx.send(AgentId(peer), request);
                }
                "request" => {
                    let asked: Vec<String> = msg.payload_as().unwrap();
                    assert_eq!(asked, words());
                    ctx.reply(&msg, Message::new("reply").with_payload(&asked).unwrap());
                }
                _ => assert_eq!(msg.payload_as::<Vec<String>>().unwrap(), words()),
            }
            self.built.push(msg.payload.is_materialised());
        }
    }

    /// Ask `b` (on `b_host`) from `a` on host `a_host`; the two tracers'
    /// flags and the world's remote bytes.
    fn ask_and_answer(same_host: bool) -> (Vec<bool>, Vec<bool>, u64) {
        let (mut w, a_host, b_host) = world_with_two_hosts();
        w.registry_mut().register_serde::<Tracer>("tracer");
        let b_host = if same_host { a_host } else { b_host };
        let a = w.create_agent(a_host, Box::new(Tracer::default())).unwrap();
        let b = w.create_agent(b_host, Box::new(Tracer::default())).unwrap();
        w.send_external(a, Message::new("ask").with_payload(&b.0).unwrap())
            .unwrap();
        w.run_until_idle();
        let flags = |w: &SimWorld, id| {
            serde_json::from_value::<Tracer>(w.snapshot_of(id).unwrap())
                .unwrap()
                .built
        };
        (flags(&w, a), flags(&w, b), w.metrics().remote_message_bytes)
    }

    #[test]
    fn same_host_request_and_reply_never_materialise_their_payloads() {
        let (a, b, remote_bytes) = ask_and_answer(true);
        assert_eq!(a, vec![false; 4], "ask and reply stay typed");
        assert_eq!(b, vec![false; 2], "the request stays typed");
        assert_eq!(remote_bytes, 0);
    }

    #[test]
    fn cross_host_messages_materialise_and_keep_their_wire_size() {
        let (a, b, remote_bytes) = ask_and_answer(false);
        assert_eq!(a, vec![false, false, true, true], "the reply crossed hosts");
        assert_eq!(b, vec![true, true], "the request crossed hosts");
        // what a tree payload of the same value reports
        let tree = Payload::from(serde_json::to_value(words()).unwrap());
        let wire = |kind: &str| Message::new(kind).carrying(tree.clone()).wire_size() as u64;
        assert_eq!(remote_bytes, wire("request") + wire("reply"));
    }

    fn world_with_two_hosts() -> (SimWorld, HostId, HostId) {
        let mut w = SimWorld::new(42);
        w.registry_mut().register_serde::<Worker>("worker");
        let a = w.add_host("a");
        let b = w.add_host("b");
        (w, a, b)
    }

    #[test]
    fn external_message_is_delivered() {
        let (mut w, a, _) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("hello")).unwrap();
        w.run_until_idle();
        assert_eq!(w.metrics().messages_delivered, 1);
        assert_eq!(w.snapshot_of(id).unwrap()["count"], 1);
    }

    #[test]
    fn emits_leave_through_the_outbox_once_and_are_not_messages() {
        let (mut w, a, _) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("emit")).unwrap();
        w.send_external(id, Message::new("emit")).unwrap();
        w.run_until_idle();
        assert_eq!(w.metrics().messages_delivered, 2, "only the two requests");
        let out: Vec<u32> = w
            .take_outbox(id)
            .iter()
            .map(|p| p.typed().unwrap())
            .collect();
        assert_eq!(out, vec![1, 2], "emit order kept");
        assert!(w.take_outbox(id).is_empty(), "each payload handed out once");
    }

    #[test]
    fn emits_are_output_committed_and_survive_a_host_crash() {
        let (mut w, a, _) = world_with_two_hosts();
        w.enable_durability(DurabilityConfig {
            checkpoint_every: 0,
            sync_every: 64,
        });
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("hello")).unwrap();
        w.run_until_idle();
        let store = w.durable_store(a).unwrap();
        assert!(store.synced_len() < store.wal_len(), "batched, unsynced");
        w.send_external(id, Message::new("emit")).unwrap();
        w.run_until_idle();
        let store = w.durable_store(a).unwrap();
        assert_eq!(store.synced_len(), store.wal_len(), "forced before release");
        w.crash_host(a).unwrap();
        w.restart_host(a).unwrap();
        w.run_until_idle();
        assert_eq!(
            w.snapshot_of(id).unwrap()["count"],
            2,
            "the state behind the emit survived"
        );
        let out: Vec<u32> = w
            .take_outbox(id)
            .iter()
            .map(|p| p.typed().unwrap())
            .collect();
        assert_eq!(out, vec![2], "the crash left the outbox alone");
    }

    #[test]
    fn emits_survive_an_automatic_failover() {
        let (mut w, a, _) = world_with_two_hosts();
        w.enable_durability(DurabilityConfig {
            checkpoint_every: 0,
            sync_every: 64,
        });
        w.enable_supervision(SupervisionConfig::default());
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("emit")).unwrap();
        w.run_until_idle();
        w.crash_host(a).unwrap();
        w.run_until_idle();
        let standby = w.failover_of(a).expect("supervisor failed the host over");
        assert_eq!(w.location(id), Some(Location::Active(standby)));
        let out: Vec<u32> = w
            .take_outbox(id)
            .iter()
            .map(|p| p.typed().unwrap())
            .collect();
        assert_eq!(out, vec![1], "the failover left the outbox alone");
    }

    #[test]
    fn send_to_unknown_agent_errors() {
        let (mut w, _, _) = world_with_two_hosts();
        assert!(matches!(
            w.send_external(AgentId(999), Message::new("x")),
            Err(PlatformError::UnknownAgent(_))
        ));
    }

    #[test]
    fn migration_moves_state_across_hosts() {
        let (mut w, a, b) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker { count: 10 })).unwrap();
        w.send_external(id, Message::new("go").with_payload(&b.0).unwrap())
            .unwrap();
        w.run_until_idle();
        assert_eq!(w.location(id), Some(Location::Active(b)));
        // count incremented by the "go" message, preserved across the hop
        assert_eq!(w.snapshot_of(id).unwrap()["count"], 11);
        assert_eq!(w.metrics().migrations, 1);
        assert!(w.metrics().migration_bytes > 0);
        assert!(w.trace().find(&format!("arrived at {b}")).is_some());
    }

    #[test]
    fn round_trip_home_passes_authentication() {
        let (mut w, a, b) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("go").with_payload(&b.0).unwrap())
            .unwrap();
        w.run_until_idle();
        assert_eq!(w.location(id), Some(Location::Active(b)));
        w.send_external(id, Message::new("go").with_payload(&a.0).unwrap())
            .unwrap();
        w.run_until_idle();
        assert_eq!(w.location(id), Some(Location::Active(a)));
        assert_eq!(w.metrics().migrations, 2);
        assert_eq!(w.metrics().migrations_rejected, 0);
        assert_eq!(w.auth_rejections(a), 0);
    }

    #[test]
    fn deactivate_then_activate_preserves_state_and_replays_mail() {
        let (mut w, a, _) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker { count: 3 })).unwrap();
        w.send_external(id, Message::new("sleep")).unwrap();
        w.run_until_idle();
        assert_eq!(w.location(id), Some(Location::Deactivated(a)));
        assert_eq!(w.active_count(a), 0);
        assert!(w.stored_bytes(a) > 0);

        // message while asleep is held, not dead-lettered
        w.send_external(id, Message::new("while-asleep")).unwrap();
        w.run_until_idle();
        assert_eq!(w.metrics().messages_dead_lettered, 0);

        w.activate_agent(id).unwrap();
        w.run_until_idle();
        assert_eq!(w.location(id), Some(Location::Active(a)));
        // count = 3 + sleep msg + replayed msg
        assert_eq!(w.snapshot_of(id).unwrap()["count"], 5);
        assert_eq!(w.metrics().deactivations, 1);
        assert_eq!(w.metrics().activations, 1);
    }

    #[test]
    fn dispose_removes_agent_and_dead_letters_messages() {
        let (mut w, a, _) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("die")).unwrap();
        w.run_until_idle();
        assert_eq!(w.location(id), None);
        assert_eq!(w.metrics().agents_disposed, 1);
        // further sends fail fast
        assert!(w.send_external(id, Message::new("x")).is_err());
    }

    #[test]
    fn spawned_agents_run_on_creation_and_count() {
        let (mut w, a, _) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("spawn")).unwrap();
        w.run_until_idle();
        assert_eq!(w.metrics().agents_created, 2);
        assert_eq!(w.active_count(a), 2);
    }

    #[test]
    fn dispatch_to_unknown_host_is_a_noop_with_trace() {
        let (mut w, a, _) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("go").with_payload(&999u32).unwrap())
            .unwrap();
        w.run_until_idle();
        assert_eq!(w.location(id), Some(Location::Active(a)));
        assert!(w
            .trace()
            .events()
            .iter()
            .any(|e| e.label.contains("dispatch failed")));
    }

    #[test]
    fn unregistered_type_is_rejected_on_arrival() {
        let mut w = SimWorld::new(1);
        // no registration at all
        let a = w.add_host("a");
        let b = w.add_host("b");
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("go").with_payload(&b.0).unwrap())
            .unwrap();
        w.run_until_idle();
        assert_eq!(w.metrics().migrations_rejected, 1);
        assert_eq!(w.location(id), None);
    }

    #[test]
    fn lossy_link_can_lose_the_agent() {
        let mut w = SimWorld::new(3);
        w.registry_mut().register_serde::<Worker>("worker");
        let a = w.add_host("a");
        let b = w.add_host("b");
        w.topology_mut()
            .set_link_symmetric(a, b, crate::net::LinkSpec::lan().lossy(1.0));
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("go").with_payload(&b.0).unwrap())
            .unwrap();
        w.run_until_idle();
        assert_eq!(
            w.location(id),
            None,
            "agent must be lost on a fully lossy link"
        );
        assert!(w
            .trace()
            .events()
            .iter()
            .any(|e| e.label.contains("lost in transit")));
    }

    #[test]
    fn clone_copies_state_under_a_fresh_id() {
        let (mut w, a, _) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker { count: 6 })).unwrap();
        w.send_external(id, Message::new("clone")).unwrap();
        w.run_until_idle();
        assert_eq!(w.active_count(a), 2);
        let ids = w.agents_on(a);
        let clone_id = *ids.iter().find(|i| **i != id).unwrap();
        // the clone carries the original's state *after* the message that
        // triggered the clone (count was already incremented to 7)
        assert_eq!(w.snapshot_of(clone_id).unwrap()["count"], 7);
        // and evolves independently afterwards
        w.send_external(clone_id, Message::new("noop")).unwrap();
        w.run_until_idle();
        assert_eq!(w.snapshot_of(clone_id).unwrap()["count"], 8);
        assert_eq!(w.snapshot_of(id).unwrap()["count"], 7);
        assert_eq!(w.metrics().agents_created, 2);
    }

    #[test]
    fn clone_of_unregistered_type_fails_with_note() {
        let mut w = SimWorld::new(2);
        let a = w.add_host("a");
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("clone")).unwrap();
        w.run_until_idle();
        assert_eq!(w.active_count(a), 1);
        assert!(w
            .trace()
            .events()
            .iter()
            .any(|e| e.label.contains("clone failed")));
    }

    #[test]
    fn retract_pulls_an_agent_back() {
        let (mut w, a, b) = world_with_two_hosts();
        let roamer = w.create_agent(a, Box::new(Worker::default())).unwrap();
        let manager = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(roamer, Message::new("go").with_payload(&b.0).unwrap())
            .unwrap();
        w.run_until_idle();
        assert_eq!(w.location(roamer), Some(Location::Active(b)));
        // the manager retracts the roamer home
        w.send_external(
            manager,
            Message::new("retract")
                .with_payload(&(roamer.0, a.0))
                .unwrap(),
        )
        .unwrap();
        w.run_until_idle();
        assert_eq!(w.location(roamer), Some(Location::Active(a)));
        assert_eq!(w.metrics().migrations, 2);
        assert_eq!(
            w.metrics().migrations_rejected,
            0,
            "retracted return passes auth"
        );
    }

    #[test]
    fn admin_retract_api_works_and_validates() {
        let (mut w, a, b) = world_with_two_hosts();
        let roamer = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(roamer, Message::new("go").with_payload(&b.0).unwrap())
            .unwrap();
        w.run_until_idle();
        w.retract_agent(roamer, a).unwrap();
        w.run_until_idle();
        assert_eq!(w.location(roamer), Some(Location::Active(a)));
        assert!(matches!(
            w.retract_agent(AgentId(999), a),
            Err(PlatformError::UnknownAgent(_))
        ));
        assert!(matches!(
            w.retract_agent(roamer, HostId(99)),
            Err(PlatformError::UnknownHost(_))
        ));
    }

    #[test]
    fn identical_seeds_produce_identical_traces() {
        fn run(seed: u64) -> (Vec<String>, u64) {
            let mut w = SimWorld::new(seed);
            w.registry_mut().register_serde::<Worker>("worker");
            let a = w.add_host("a");
            let b = w.add_host("b");
            let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
            for _ in 0..5 {
                w.send_external(id, Message::new("ping")).unwrap();
            }
            w.send_external(id, Message::new("go").with_payload(&b.0).unwrap())
                .unwrap();
            w.run_until_idle();
            let labels = w.trace().labels().iter().map(|s| s.to_string()).collect();
            (labels, w.metrics().messages_delivered)
        }
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut w, a, _) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("m")).unwrap();
        // local delay is 1us; deadline at 0 must not deliver
        w.run_until(SimTime(0));
        assert_eq!(w.metrics().messages_delivered, 0);
        w.run_until(SimTime(10));
        assert_eq!(w.metrics().messages_delivered, 1);
        assert_eq!(w.now(), SimTime(10));
    }

    #[test]
    fn timers_fire_in_order() {
        #[derive(Serialize, Deserialize)]
        struct Timed;
        impl Agent for Timed {
            fn agent_type(&self) -> &'static str {
                "timed"
            }
            fn on_creation(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(5), 2);
                ctx.set_timer(SimDuration::from_millis(1), 1);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                ctx.note(format!("timer {tag}"));
            }
        }
        let mut w = SimWorld::new(1);
        let a = w.add_host("a");
        w.create_agent(a, Box::new(Timed)).unwrap();
        w.run_until_idle();
        assert_eq!(w.trace().labels(), vec!["timer 1", "timer 2"]);
        assert_eq!(w.metrics().timers_fired, 2);
    }

    #[test]
    fn remote_messages_pay_link_latency() {
        let (mut w, a, b) = world_with_two_hosts();
        w.topology_mut().set_link_symmetric(
            a,
            b,
            crate::net::LinkSpec::with_latency(SimDuration::from_millis(10)),
        );
        let ida = w.create_agent(a, Box::new(Worker::default())).unwrap();
        let idb = w.create_agent(b, Box::new(Worker::default())).unwrap();
        let before = w.now();
        // b sends "ping" to a (one 10ms hop), a replies "pong" (another)
        w.send_external(idb, Message::new("sendto").with_payload(&ida.0).unwrap())
            .unwrap();
        w.run_until_idle();
        assert!(
            w.now().since(before) >= SimDuration::from_millis(20),
            "two remote hops must cost at least 20ms, took {}",
            w.now().since(before)
        );
        assert!(w.metrics().remote_message_bytes > 0);
    }

    /// Satellite regression: same-time events from different shards must
    /// pop in `(time, shard, seq)` order no matter which was pushed first.
    #[test]
    fn same_time_cross_shard_events_order_by_shard_then_seq() {
        fn drain(order: &[(u16, u64)]) -> Vec<(u16, u64)> {
            let mut heap: BinaryHeap<Reverse<QueuedEvent>> = BinaryHeap::new();
            let at = SimTime::ZERO + SimDuration::from_micros(100);
            for &(shard, seq) in order {
                heap.push(Reverse(QueuedEvent {
                    at,
                    shard,
                    seq,
                    kind: EventKind::Timer {
                        agent: AgentId(1),
                        tag: 0,
                        trace: None,
                        deadline: None,
                    },
                }));
            }
            let mut popped = Vec::new();
            while let Some(Reverse(ev)) = heap.pop() {
                popped.push((ev.shard, ev.seq));
            }
            popped
        }
        let forward = drain(&[(0, 5), (1, 2), (0, 7), (1, 1), (2, 0)]);
        let backward = drain(&[(2, 0), (1, 1), (0, 7), (1, 2), (0, 5)]);
        assert_eq!(
            forward, backward,
            "heap order must not depend on enqueue order"
        );
        assert_eq!(forward, vec![(0, 5), (0, 7), (1, 1), (1, 2), (2, 0)]);
    }

    /// Satellite regression: a timer and a delivery scheduled for the same
    /// instant resolve the race identically run to run — the trace from
    /// enqueuing (timer, message) matches (message, timer).
    #[test]
    fn same_time_timer_and_delivery_race_is_deterministic() {
        fn run(send_first: bool) -> Vec<String> {
            let mut w = SimWorld::new(4242);
            w.registry_mut().register_serde::<Worker>("worker");
            let a = w.add_host("a");
            let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
            // A "ping" delivery lands after local_delay (1µs); a timer with
            // the same 1µs delay fires at the identical instant.
            if send_first {
                w.send_external(id, Message::new("ping")).unwrap();
                w.schedule(
                    SimDuration::from_micros(1),
                    EventKind::Timer {
                        agent: id,
                        tag: 9,
                        trace: None,
                        deadline: None,
                    },
                );
            } else {
                w.schedule(
                    SimDuration::from_micros(1),
                    EventKind::Timer {
                        agent: id,
                        tag: 9,
                        trace: None,
                        deadline: None,
                    },
                );
                w.send_external(id, Message::new("ping")).unwrap();
            }
            w.run_until_idle();
            w.trace().labels().iter().map(|s| s.to_string()).collect()
        }
        // Enqueue order differs, so seq differs and the winner flips — but
        // each ordering is fully deterministic under (time, shard, seq).
        assert_eq!(run(true), run(true));
        assert_eq!(run(false), run(false));
    }

    /// Boundary-enabled shards mint ids from disjoint bases, so a merged
    /// sharded world never collides agent, message or host ids.
    #[test]
    fn boundary_shards_use_disjoint_id_bases() {
        let mut s0 = SimWorld::new(1);
        let mut s1 = SimWorld::new(1);
        s0.enable_boundary(0, SimDuration::from_micros(200));
        s1.enable_boundary(1, SimDuration::from_micros(200));
        let h0 = s0.add_host("a");
        let h1 = s1.add_host("a");
        assert_ne!(h0, h1);
        assert_eq!(h1, HostId((1 << 24) | 1));
        let a0 = s0.create_agent(h0, Box::new(Worker::default())).unwrap();
        let a1 = s1.create_agent(h1, Box::new(Worker::default())).unwrap();
        assert_ne!(a0, a1);
        assert_eq!(a1, AgentId((1 << 40) | 1));
        // shard 0 keeps the legacy bases: byte-identity with unsharded runs
        assert_eq!(h0, HostId(1));
        assert_eq!(a0, AgentId(1));
    }

    /// Disposing a deactivated agent dead-letters the messages parked for
    /// it instead of dropping them silently.
    #[test]
    fn dispose_while_deactivated_dead_letters_parked_messages() {
        #[derive(Serialize, Deserialize)]
        struct Janitor {
            target: AgentId,
        }
        impl Agent for Janitor {
            fn agent_type(&self) -> &'static str {
                "janitor"
            }
            fn snapshot(&self) -> serde_json::Value {
                serde_json::to_value(self).unwrap()
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Message) {
                ctx.dispose(self.target);
            }
        }
        let mut w = SimWorld::new(29);
        w.registry_mut().register_serde::<Worker>("worker");
        let a = w.add_host("a");
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        let janitor = w.create_agent(a, Box::new(Janitor { target: id })).unwrap();
        w.send_external(id, Message::new("sleep")).unwrap();
        w.run_until_idle();
        w.send_external(id, Message::new("nudge")).unwrap();
        w.send_external(id, Message::new("nudge")).unwrap();
        w.run_until_idle();
        w.send_external(janitor, Message::new("scrap")).unwrap();
        w.run_until_idle();
        assert_eq!(w.location(id), None);
        assert_eq!(w.metrics().agents_disposed, 1);
        assert_eq!(
            w.metrics().messages_dead_lettered,
            2,
            "parked messages dead-letter on dispose instead of leaking"
        );
        let label = "dead-letter: nudge to agent-1 (recipient disposed while parked)";
        assert_eq!(w.trace().labels_with_prefix(label).len(), 2);
    }
}
