//! Thread-backed runtime: one OS thread per host, crossbeam channels as
//! the network.
//!
//! The same [`Agent`] implementations that run on the deterministic
//! [`crate::sim::SimWorld`] run unchanged here on real concurrency, on the
//! same per-host kernel: each worker thread drives one
//! `host::HostCore` with itself as the core's environment. This
//! runtime exists to demonstrate that the platform API is runtime-agnostic
//! (and to catch accidental determinism assumptions in agent code); all
//! benchmarks use the DES world because wall-clock interleavings are not
//! reproducible.
//!
//! Faults follow the DES world's lifecycle, written once in `HostCore`: a
//! crash, restart, hang or resume is an admin envelope that the host's
//! worker applies in channel order, and the core stalls and replays work,
//! counts what a crash loses, writes the trace lines and reports to the
//! supervisor. Only the crashed flag lives at runtime level, because other
//! hosts read it to refuse traffic. The supervisor thread books its
//! verdicts like the DES does; it answers an expired lease by restarting
//! the host in place instead of failing over to a standby.
//!
//! Unsupported relative to the DES world: link latency/loss modelling
//! (channels deliver as fast as the OS schedules) — timers are honoured via
//! real `thread::sleep`.

use crate::agent::{Agent, AgentCapsule, AgentRegistry};
use crate::chaos::ChaosKnobs;
use crate::clock::{SimDuration, SimTime};
use crate::durable::{DurabilityConfig, DurableStore};
use crate::error::{PlatformError, Result};
use crate::host::{admit, dead_letter, HostCore, HostEnv, Location, Reach, Routed, Timer};
use crate::ids::{AgentId, HostId, MessageId};
use crate::message::Message;
use crate::metrics::Metrics;
use crate::overload::MailboxState;
use crate::payload::Payload;
use crate::supervise::{RestoreDecision, SupervisionConfig, Supervisor, Verdict};
use crate::telemetry::{HopKind, SpanEventKind, Telemetry};
use crate::trace::Trace;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::DerefMut;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

enum Envelope {
    Deliver(Message),
    Arrive(AgentCapsule),
    Timer(Timer),
    /// A lifecycle operation for an agent of the host (external create,
    /// admin calls, and retracts forwarded from other hosts).
    Routed(Routed),
    /// Chaos: wipe the host's agents and stores (the crash itself; the
    /// unreachability flag lives in [`Shared::chaos`]).
    AdminCrash,
    /// Chaos: the host restarted — trace it and run the durable recovery
    /// pass (a no-op without durability).
    AdminRestart,
    /// Chaos: wedge the host; its deliveries and timers stall.
    AdminHang,
    /// The host's hang cleared (`bounced`: by the supervisor) — replay
    /// the stalled work.
    AdminResume {
        bounced: bool,
    },
    Shutdown,
}

struct Shared {
    /// The sender of each host's worker thread.
    routes: Mutex<HashMap<HostId, Sender<Envelope>>>,
    locations: Mutex<HashMap<AgentId, HostId>>,
    homes: Mutex<HashMap<AgentId, HostId>>,
    /// Restorations per agent (see [`HostEnv::incarnation`]); absent = 0.
    incarnations: Mutex<HashMap<AgentId, u32>>,
    in_flight: AtomicI64,
    next_agent_id: AtomicU64,
    next_msg_id: AtomicU64,
    registry: AgentRegistry,
    trace: Mutex<Trace>,
    metrics: Mutex<Metrics>,
    epoch: Instant,
    /// Live fault switches (same vocabulary as the DES chaos plan).
    chaos: Mutex<ChaosKnobs>,
    /// Fast path: skip all chaos checks until a knob is first touched.
    chaos_on: AtomicBool,
    /// Dedicated RNG for chaos decisions, separate from the per-host
    /// agent RNGs so fault injection never perturbs agent randomness.
    chaos_rng: Mutex<StdRng>,
    /// Request tracing + latency registry (same engine as the DES world).
    telemetry: Mutex<Telemetry>,
    /// Fast path: skip telemetry locking entirely until tracing is enabled.
    telemetry_on: AtomicBool,
    /// Per-agent mailbox depths, unbounded; they feed the stall
    /// diagnostics of [`ThreadWorld::run_until_idle`].
    mailbox: Mutex<MailboxState>,
    /// Messages held for deactivated agents, per agent (diagnostics).
    parked: Mutex<HashMap<AgentId, usize>>,
    /// Durability configuration; each host's worker carries its own
    /// [`DurableStore`]. `None` = durability off.
    durability: Option<DurabilityConfig>,
    /// Self-healing supervision policy engine, shared between the host
    /// workers (crash/hang observations) and the dedicated supervisor
    /// thread. `None` = supervision off (no extra thread, zero cost).
    supervision: Option<Mutex<Supervisor>>,
    /// Tells the supervisor thread to exit at shutdown.
    supervisor_stop: AtomicBool,
    /// Payloads agents emitted, per emitting agent, in emit order, until
    /// [`ThreadWorld::take_outbox`] takes them (the DES world's outbox).
    outbox: Mutex<HashMap<AgentId, Vec<Payload>>>,
}

impl Shared {
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    fn tracing(&self) -> bool {
        self.telemetry_on.load(Ordering::Relaxed)
    }

    /// Whether chaos has marked `host` crashed.
    fn crashed(&self, host: HostId) -> bool {
        self.chaos_on.load(Ordering::Relaxed) && self.chaos.lock().crashed.contains(&host)
    }

    fn send_envelope(&self, host: HostId, env: Envelope) -> bool {
        let routes = self.routes.lock();
        if let Some(tx) = routes.get(&host) {
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            if tx.send(env).is_ok() {
                return true;
            }
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        false
    }

    /// Send a delivery, counting it into its recipient's mailbox depth.
    /// Every path ending in [`Envelope::Deliver`] funnels through here —
    /// agent sends, external ingress, chaos duplicates and activation
    /// replays — so the depth gauge sees all traffic.
    fn enqueue_deliver(&self, dest: HostId, msg: Message) -> bool {
        // The mailbox has no bound here, so it admits everything.
        self.mailbox.lock().on_enqueue(msg.to);
        let sent = self.send_envelope(dest, Envelope::Deliver(msg));
        if self.tracing() {
            let max_depth = self.mailbox.lock().max_depth_seen();
            self.telemetry
                .lock()
                .registry_mut()
                .set_gauge("overload.mailbox_depth_max", max_depth as f64);
        }
        sent
    }
}

/// Builder for a [`ThreadWorld`].
pub struct ThreadWorldBuilder {
    seed: u64,
    registry: AgentRegistry,
    host_names: Vec<String>,
    telemetry: bool,
    durability: Option<DurabilityConfig>,
    supervision: Option<SupervisionConfig>,
}

impl ThreadWorldBuilder {
    /// Start building a thread world; `seed` feeds each host's RNG.
    pub fn new(seed: u64) -> Self {
        ThreadWorldBuilder {
            seed,
            registry: AgentRegistry::new(),
            host_names: Vec::new(),
            telemetry: false,
            durability: None,
            supervision: None,
        }
    }

    /// Give every host a WAL-backed [`DurableStore`] so
    /// [`ThreadWorld::restart_host`] recovers journalled agents, purchase
    /// records and profile deltas. Off by default (zero cost).
    pub fn durability(&mut self, cfg: DurabilityConfig) -> &mut Self {
        self.durability = Some(cfg);
        self
    }

    /// Turn on the self-healing supervision layer: a dedicated supervisor
    /// thread runs the failure detector over wall time, automatically
    /// restarting crashed hosts (durable recovery on the respawned
    /// worker), bouncing hung hosts, and quarantining crash-looping
    /// agents. Off by default (no extra thread, byte-identical behaviour,
    /// all supervision counters zero).
    pub fn supervision(&mut self, cfg: SupervisionConfig) -> &mut Self {
        self.supervision = Some(cfg);
        self
    }

    /// Turn on request tracing and the latency registry (off by default;
    /// when off the runtime takes a lock-free fast path).
    pub fn enable_telemetry(&mut self) -> &mut Self {
        self.telemetry = true;
        self
    }

    /// Register an agent factory (same semantics as
    /// [`AgentRegistry::register_serde`]).
    pub fn register_serde<A>(&mut self, agent_type: &str) -> &mut Self
    where
        A: Agent + serde::de::DeserializeOwned + 'static,
    {
        self.registry.register_serde::<A>(agent_type);
        self
    }

    /// Direct registry access (for bulk registration helpers).
    pub fn registry_mut(&mut self) -> &mut AgentRegistry {
        &mut self.registry
    }

    /// Declare a host; ids are assigned in declaration order starting at 1.
    pub fn add_host(&mut self, name: impl Into<String>) -> HostId {
        self.host_names.push(name.into());
        HostId(self.host_names.len() as u32)
    }

    /// Spawn the worker threads (one per host) and return the running
    /// world.
    pub fn start(self) -> ThreadWorld {
        let shared = Arc::new(Shared {
            routes: Mutex::new(HashMap::new()),
            locations: Mutex::new(HashMap::new()),
            homes: Mutex::new(HashMap::new()),
            incarnations: Mutex::new(HashMap::new()),
            in_flight: AtomicI64::new(0),
            next_agent_id: AtomicU64::new(1),
            next_msg_id: AtomicU64::new(1),
            registry: self.registry,
            trace: Mutex::new(Trace::new()),
            metrics: Mutex::new(Metrics::new()),
            epoch: Instant::now(),
            chaos: Mutex::new(ChaosKnobs::default()),
            chaos_on: AtomicBool::new(false),
            chaos_rng: Mutex::new(StdRng::seed_from_u64(self.seed ^ 0xc4a0_5c4a)),
            telemetry: Mutex::new({
                let mut t = Telemetry::new();
                if self.telemetry {
                    t.enable();
                }
                t
            }),
            telemetry_on: AtomicBool::new(self.telemetry),
            mailbox: Mutex::new(MailboxState::new(None)),
            parked: Mutex::new(HashMap::new()),
            durability: self.durability,
            supervision: self.supervision.map(|cfg| Mutex::new(Supervisor::new(cfg))),
            supervisor_stop: AtomicBool::new(false),
            outbox: Mutex::new(HashMap::new()),
        });
        let mut handles = Vec::new();
        let mut hosts = Vec::new();
        for (i, _name) in self.host_names.iter().enumerate() {
            let id = HostId(i as u32 + 1);
            hosts.push(id);
            let seed = self.seed.wrapping_add(i as u64 + 1);
            let (tx, rx) = unbounded();
            let shared2 = Arc::clone(&shared);
            handles.push(thread::spawn(move || host_loop(id, seed, rx, shared2)));
            shared.routes.lock().insert(id, tx);
        }
        if shared.supervision.is_some() {
            let shared2 = Arc::clone(&shared);
            handles.push(thread::spawn(move || supervisor_loop(shared2)));
        }
        ThreadWorld {
            shared,
            handles,
            hosts,
        }
    }
}

/// A running thread-backed world.
///
/// Create via [`ThreadWorldBuilder`]; drive with
/// [`ThreadWorld::create_agent`] and [`ThreadWorld::send_external`]; wait
/// with [`ThreadWorld::run_until_idle`]; finish with
/// [`ThreadWorld::shutdown`].
pub struct ThreadWorld {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    hosts: Vec<HostId>,
}

impl ThreadWorld {
    /// Host ids in declaration order.
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    /// Create `agent` on `host`. Returns the id immediately; `on_creation`
    /// runs on the host thread.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn create_agent(&self, host: HostId, agent: Box<dyn Agent>) -> Result<AgentId> {
        let id = AgentId(self.shared.next_agent_id.fetch_add(1, Ordering::SeqCst));
        self.shared.locations.lock().insert(id, host);
        self.shared.homes.lock().insert(id, host);
        if !self.shared.send_envelope(
            host,
            Envelope::Routed(Routed::Create {
                id,
                agent,
                cloned: false,
            }),
        ) {
            self.shared.locations.lock().remove(&id);
            return Err(PlatformError::UnknownHost(host));
        }
        Ok(id)
    }

    /// Inject an external message to `to`.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownAgent`] if the agent's location is unknown.
    pub fn send_external(&self, to: AgentId, mut msg: Message) -> Result<MessageId> {
        let host = {
            let locs = self.shared.locations.lock();
            locs.get(&to).copied()
        }
        .ok_or(PlatformError::UnknownAgent(to))?;
        msg.id = MessageId(self.shared.next_msg_id.fetch_add(1, Ordering::SeqCst));
        msg.from = None;
        msg.to = to;
        // An external message is a request entering the platform: mint the
        // root span and the first message hop under it.
        msg.trace = if self.shared.tracing() {
            let now = self.shared.now();
            let mut t = self.shared.telemetry.lock();
            t.mint_root(&msg.kind, now)
                .map(|root| t.child(root, HopKind::Message, msg.kind.clone(), None, None, now))
        } else {
            None
        };
        let id = msg.id;
        if !self.shared.enqueue_deliver(host, msg) {
            return Err(PlatformError::UnknownHost(host));
        }
        Ok(id)
    }

    /// Take everything `agent` has emitted with [`Ctx::emit`] since the
    /// last take, in emit order. Each payload is handed out exactly once.
    pub fn take_outbox(&self, agent: AgentId) -> Vec<Payload> {
        self.shared.outbox.lock().remove(&agent).unwrap_or_default()
    }

    /// Highest mailbox depth observed so far.
    pub fn mailbox_max_depth(&self) -> usize {
        self.shared.mailbox.lock().max_depth_seen()
    }

    /// Total messages currently parked for deactivated agents, summed
    /// across all agents. Disposing or crashing an agent must drop its
    /// contribution to zero — a nonzero value after the world quiesced
    /// with no deactivated agents left is a bookkeeping leak.
    pub fn parked_total(&self) -> usize {
        self.shared.parked.lock().values().sum()
    }

    /// Administratively deactivate / activate an agent (mirrors the DES
    /// world's admin API).
    pub fn deactivate_agent(&self, agent: AgentId) -> Result<()> {
        let host = self
            .shared
            .locations
            .lock()
            .get(&agent)
            .copied()
            .ok_or(PlatformError::UnknownAgent(agent))?;
        self.shared
            .send_envelope(host, Envelope::Routed(Routed::Deactivate(agent)));
        Ok(())
    }

    /// See [`ThreadWorld::deactivate_agent`].
    pub fn activate_agent(&self, agent: AgentId) -> Result<()> {
        let host = self
            .shared
            .locations
            .lock()
            .get(&agent)
            .copied()
            .ok_or(PlatformError::UnknownAgent(agent))?;
        self.shared
            .send_envelope(host, Envelope::Routed(Routed::Activate(agent)));
        Ok(())
    }

    /// Chaos: duplicate each delivered message with probability `p`
    /// (clamped to `[0, 1]`); receivers suppress the second copy.
    pub fn set_duplication_probability(&self, p: f64) {
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        self.shared.chaos.lock().dup_probability = p;
        self.shared.chaos_on.store(true, Ordering::SeqCst);
    }

    /// Chaos: hard-partition hosts `a` and `b` — messages between them
    /// drop and dispatches toward either side fail synchronously (the
    /// agent gets `on_dispatch_failed`).
    pub fn partition(&self, a: HostId, b: HostId) {
        self.shared.chaos.lock().partition(a, b);
        self.shared.chaos_on.store(true, Ordering::SeqCst);
    }

    /// Heal a partition installed by [`ThreadWorld::partition`].
    pub fn heal_partition(&self, a: HostId, b: HostId) {
        self.shared.chaos.lock().heal_partition(a, b);
    }

    /// Chaos: crash `host` — its agents and stored capsules are lost and
    /// it refuses traffic until [`ThreadWorld::restart_host`].
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn crash_host(&self, host: HostId) -> Result<()> {
        if !self.hosts.contains(&host) {
            return Err(PlatformError::UnknownHost(host));
        }
        self.shared.chaos_on.store(true, Ordering::SeqCst);
        if self.shared.chaos.lock().crashed.insert(host) {
            self.shared.send_envelope(host, Envelope::AdminCrash);
        }
        Ok(())
    }

    /// Bring a crashed host back up (empty, but reachable again): its
    /// worker traces `chaos: <host> restarted` and runs the recovery pass
    /// over its durable store, if durability is configured — journalled
    /// agents are restored and handed their logged profile deltas via
    /// [`Agent::on_recovered`].
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn restart_host(&self, host: HostId) -> Result<()> {
        if !self.hosts.contains(&host) {
            return Err(PlatformError::UnknownHost(host));
        }
        if self.shared.chaos.lock().crashed.remove(&host) {
            self.shared.send_envelope(host, Envelope::AdminRestart);
        }
        Ok(())
    }

    /// Chaos: wedge `host` — it stays reachable and accepts arrivals, but
    /// deliveries and timer callbacks for its agents stall (staying in
    /// flight) until [`ThreadWorld::unhang_host`] or a supervisor bounce.
    /// The hang takes effect in channel order: work already queued to the
    /// host ahead of it still runs.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn hang_host(&self, host: HostId) -> Result<()> {
        self.admin(host, Envelope::AdminHang)
    }

    /// Heal a hang installed by [`ThreadWorld::hang_host`]: the host's
    /// stalled deliveries are replayed, then its stalled timers fire.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn unhang_host(&self, host: HostId) -> Result<()> {
        self.admin(host, Envelope::AdminResume { bounced: false })
    }

    /// Queue an operator envelope behind the host's pending work.
    fn admin(&self, host: HostId, env: Envelope) -> Result<()> {
        if !self.hosts.contains(&host) {
            return Err(PlatformError::UnknownHost(host));
        }
        self.shared.send_envelope(host, env);
        Ok(())
    }

    /// Block until no envelopes are in flight (the world is quiescent) or
    /// `timeout` elapses. On timeout the returned [`DrainStatus`] carries
    /// a [`StallDiagnostic`] naming what is still queued where.
    pub fn run_until_idle(&self, timeout: Duration) -> DrainStatus {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.in_flight.load(Ordering::SeqCst) == 0 {
                // settle: double-check after a short pause to avoid racing
                // a thread between dequeue and counter decrement
                thread::sleep(Duration::from_millis(2));
                if self.shared.in_flight.load(Ordering::SeqCst) == 0 {
                    return DrainStatus::Idle;
                }
            }
            if Instant::now() >= deadline {
                return DrainStatus::TimedOut(self.stall_diagnostic());
            }
            thread::sleep(Duration::from_micros(200));
        }
    }

    fn stall_diagnostic(&self) -> StallDiagnostic {
        let queued = self.shared.mailbox.lock().depths();
        let mut parked: Vec<(AgentId, usize)> = self
            .shared
            .parked
            .lock()
            .iter()
            .filter(|(_, n)| **n > 0)
            .map(|(a, n)| (*a, *n))
            .collect();
        parked.sort_unstable();
        StallDiagnostic {
            in_flight: self.shared.in_flight.load(Ordering::SeqCst),
            queued,
            parked,
        }
    }

    /// Stop all host threads and return the merged metrics and trace.
    pub fn shutdown(self) -> (Metrics, Trace) {
        let (metrics, trace, _) = self.shutdown_with_telemetry();
        (metrics, trace)
    }

    /// Stop all host threads and additionally return the finalized
    /// telemetry sink (span trees + latency registry).
    pub fn shutdown_with_telemetry(self) -> (Metrics, Trace, Telemetry) {
        self.shared.supervisor_stop.store(true, Ordering::SeqCst);
        {
            let routes = self.shared.routes.lock();
            for tx in routes.values() {
                let _ = tx.send(Envelope::Shutdown);
            }
        }
        for handle in self.handles {
            let _ = handle.join();
        }
        let metrics = self.shared.metrics.lock().clone();
        let trace = self.shared.trace.lock().clone();
        let telemetry = {
            let now = self.shared.now();
            let mut t = self.shared.telemetry.lock();
            if !t.spans().is_empty() {
                t.finalize(now);
            }
            t.clone()
        };
        (metrics, trace, telemetry)
    }
}

/// Outcome of [`ThreadWorld::run_until_idle`].
#[derive(Debug)]
pub enum DrainStatus {
    /// The world quiesced: no envelopes in flight.
    Idle,
    /// The timeout elapsed with work still pending; the diagnostic names
    /// what is stuck where.
    TimedOut(StallDiagnostic),
}

impl DrainStatus {
    /// Whether the world quiesced before the timeout.
    pub fn is_idle(&self) -> bool {
        matches!(self, DrainStatus::Idle)
    }
}

impl fmt::Display for DrainStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrainStatus::Idle => write!(f, "idle"),
            DrainStatus::TimedOut(d) => d.fmt(f),
        }
    }
}

/// Why a [`ThreadWorld`] failed to quiesce: a snapshot of pending work
/// taken when [`ThreadWorld::run_until_idle`] timed out.
#[derive(Debug)]
pub struct StallDiagnostic {
    /// Envelopes sent but not yet handled.
    pub in_flight: i64,
    /// Nonzero queued (scheduled, unhandled) depths per agent.
    pub queued: Vec<(AgentId, usize)>,
    /// Messages held for deactivated agents, per agent.
    pub parked: Vec<(AgentId, usize)>,
}

impl fmt::Display for StallDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn fmt_depths(entries: &[(AgentId, usize)]) -> String {
            entries
                .iter()
                .map(|(a, n)| format!("{a}:{n}"))
                .collect::<Vec<_>>()
                .join(", ")
        }
        write!(
            f,
            "thread world failed to quiesce: {} envelopes in flight; \
             queued: [{}]; parked: [{}]",
            self.in_flight,
            fmt_depths(&self.queued),
            fmt_depths(&self.parked),
        )
    }
}

/// A host's worker thread: the [`HostEnv`] its core runs against.
struct Worker {
    shared: Arc<Shared>,
    host: HostId,
    rng: StdRng,
    /// Local id allocation window fetched in batches from the shared
    /// counter so `Ctx` keeps its simple `&mut u64` interface.
    id_cursor: u64,
    id_end: u64,
    /// Message ids already delivered here; chaos-injected duplicates are
    /// suppressed against this set.
    seen: HashSet<MessageId>,
}

const ID_BATCH: u64 = 1 << 16;

fn host_loop(id: HostId, seed: u64, rx: Receiver<Envelope>, shared: Arc<Shared>) {
    let durable = shared.durability.map(DurableStore::new);
    let mut core = HostCore::new(id, seed ^ 0x5ee5_ee5e, durable);
    let mut w = Worker {
        shared,
        host: id,
        rng: StdRng::seed_from_u64(seed),
        id_cursor: 0,
        id_end: 0,
        seen: HashSet::new(),
    };
    while let Ok(env) = rx.recv() {
        if matches!(env, Envelope::Shutdown) {
            break;
        }
        let stalled = core.stalled_len() as i64;
        w.handle(&mut core, env);
        core.maybe_checkpoint(&mut w);
        // Work that stalls on a hung host keeps its envelope's in-flight
        // slot, so `run_until_idle` blocks through the hang; a replay
        // (which sends afresh) or a crash releases it.
        let held = core.stalled_len() as i64 - stalled;
        w.shared.in_flight.fetch_add(held - 1, Ordering::SeqCst);
    }
}

/// Dedicated supervisor thread: runs the failure detector over wall time,
/// books each verdict ([`Verdict::book`]) and executes it — a crashed
/// host is restarted in place (the worker never died, so its failover is
/// an [`Envelope::AdminRestart`] recovery pass) and a hung host is
/// bounced. Exits when [`Shared::supervisor_stop`] is raised at
/// shutdown.
fn supervisor_loop(shared: Arc<Shared>) {
    let poll = {
        let Some(sup) = shared.supervision.as_ref() else {
            return;
        };
        let interval = sup.lock().config().lease_interval_us;
        // Poll a few times per lease so detection latency stays well under
        // one interval while shutdown remains responsive.
        Duration::from_micros((interval / 4).clamp(1_000, 50_000))
    };
    loop {
        if shared.supervisor_stop.load(Ordering::SeqCst) {
            return;
        }
        thread::sleep(poll);
        let verdicts = {
            let Some(sup) = shared.supervision.as_ref() else {
                return;
            };
            let now_us = shared.now().as_micros();
            sup.lock().tick(now_us)
        };
        for verdict in verdicts {
            let now = shared.now();
            verdict.book(&mut shared.metrics.lock(), &mut shared.trace.lock(), now);
            match verdict {
                Verdict::Suspect(_) => {}
                Verdict::FailOver(host) => {
                    // Re-check under the knob lock: a manual restart may
                    // have raced the verdict.
                    if shared.chaos.lock().crashed.remove(&host) {
                        shared.metrics.lock().failovers += 1;
                        if shared.durability.is_some() {
                            shared.send_envelope(host, Envelope::AdminRestart);
                        }
                    }
                }
                Verdict::BounceHang(host) => {
                    shared.send_envelope(host, Envelope::AdminResume { bounced: true });
                }
            }
        }
    }
}

impl Worker {
    fn handle(&mut self, core: &mut HostCore, env: Envelope) {
        match env {
            Envelope::Deliver(msg) => {
                let Some(msg) = admit(self, msg) else {
                    return;
                };
                if self.shared.crashed(self.host) {
                    {
                        let mut m = self.shared.metrics.lock();
                        m.messages_lost += 1;
                        m.chaos_drops += 1;
                    }
                    self.close_span(
                        msg.trace,
                        SpanEventKind::Chaos,
                        "dropped: destination crashed",
                    );
                    return;
                }
                core.deliver(self, msg);
            }
            Envelope::Arrive(capsule) => core.land(self, capsule),
            Envelope::Timer(timer) => core.fire_timer(self, timer),
            Envelope::Routed(op) => core.handle(self, op.agent(), op),
            Envelope::AdminCrash => {
                self.seen.clear();
                core.crash(self);
            }
            Envelope::AdminRestart => core.restart(self),
            Envelope::AdminHang => core.hang(self),
            Envelope::AdminResume { bounced } => core.resume(self, bounced),
            Envelope::Shutdown => {}
        }
    }
}

impl HostEnv for Worker {
    fn now(&self) -> SimTime {
        self.shared.now()
    }

    fn ctx_parts(&mut self) -> (&mut StdRng, &mut u64) {
        if self.id_end - self.id_cursor < 1024 {
            self.id_cursor = self
                .shared
                .next_agent_id
                .fetch_add(ID_BATCH, Ordering::SeqCst);
            self.id_end = self.id_cursor + ID_BATCH;
        }
        (&mut self.rng, &mut self.id_cursor)
    }

    fn next_msg_id(&mut self) -> MessageId {
        MessageId(self.shared.next_msg_id.fetch_add(1, Ordering::SeqCst))
    }

    fn registry(&self) -> &AgentRegistry {
        &self.shared.registry
    }

    /// The shared directory only knows hosts: an agent it places is
    /// reported active there.
    fn locate(&self, id: AgentId) -> Option<Location> {
        self.shared
            .locations
            .lock()
            .get(&id)
            .map(|h| Location::Active(*h))
    }

    fn set_location(&mut self, id: AgentId, loc: Option<Location>) {
        let mut locations = self.shared.locations.lock();
        match loc {
            Some(Location::Active(h) | Location::Deactivated(h)) => locations.insert(id, h),
            Some(Location::InTransit) | None => locations.remove(&id),
        };
    }

    fn home_of(&self, id: AgentId) -> Option<HostId> {
        self.shared.homes.lock().get(&id).copied()
    }

    fn set_home(&mut self, id: AgentId, home: HostId) {
        self.shared.homes.lock().insert(id, home);
    }

    fn incarnation(&self, id: AgentId) -> u32 {
        self.shared
            .incarnations
            .lock()
            .get(&id)
            .copied()
            .unwrap_or(0)
    }

    fn bump_incarnation(&mut self, id: AgentId) {
        *self.shared.incarnations.lock().entry(id).or_insert(0) += 1;
    }

    fn reach(&self, from: HostId, dest: HostId) -> Reach {
        if !self.shared.routes.lock().contains_key(&dest) {
            Reach::Unknown
        } else if self.shared.chaos_on.load(Ordering::Relaxed)
            && self.shared.chaos.lock().blocks(from, dest)
        {
            Reach::Refused
        } else {
            Reach::Open
        }
    }

    fn is_down(&self, host: HostId) -> bool {
        self.shared.crashed(host)
    }

    fn metrics(&mut self) -> impl DerefMut<Target = Metrics> + '_ {
        self.shared.metrics.lock()
    }

    fn trace(&mut self) -> impl DerefMut<Target = Trace> + '_ {
        self.shared.trace.lock()
    }

    fn telemetry(&mut self) -> impl DerefMut<Target = Telemetry> + '_ {
        self.shared.telemetry.lock()
    }

    fn tracing(&self) -> bool {
        self.shared.tracing()
    }

    fn send(&mut self, from: HostId, msg: Message) {
        let shared = Arc::clone(&self.shared);
        let Some(h) = shared.locations.lock().get(&msg.to).copied() else {
            return dead_letter(self, msg, "unreachable");
        };
        let mut duplicate = false;
        if shared.chaos_on.load(Ordering::Relaxed) {
            let (blocked, dup_p) = {
                let knobs = shared.chaos.lock();
                (knobs.blocks(from, h), knobs.dup_probability)
            };
            if blocked {
                {
                    let mut m = shared.metrics.lock();
                    m.messages_lost += 1;
                    m.chaos_drops += 1;
                }
                self.close_span(
                    msg.trace,
                    SpanEventKind::Chaos,
                    "dropped: chaos fault on link",
                );
                return;
            }
            if dup_p > 0.0 && shared.chaos_rng.lock().gen::<f64>() < dup_p {
                duplicate = true;
                shared.metrics.lock().chaos_dupes += 1;
                self.span_event(msg.trace, SpanEventKind::Chaos, "duplicated by chaos");
            }
        }
        if h != from {
            shared.metrics.lock().remote_message_bytes += msg.wire_size() as u64;
        }
        if duplicate {
            shared.enqueue_deliver(h, msg.clone());
        }
        shared.enqueue_deliver(h, msg);
    }

    fn arm_timer(&mut self, host: HostId, delay: SimDuration, timer: Timer) {
        let shared = Arc::clone(&self.shared);
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        thread::spawn(move || {
            thread::sleep(Duration::from_micros(delay.as_micros()));
            // route to wherever the agent is now
            let dest = shared
                .locations
                .lock()
                .get(&timer.agent)
                .copied()
                .unwrap_or(host);
            shared.send_envelope(dest, Envelope::Timer(timer));
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        });
    }

    fn ship(&mut self, _from: HostId, capsule: AgentCapsule, dest: HostId) {
        self.shared.metrics.lock().migration_bytes += capsule.wire_size() as u64;
        self.shared.send_envelope(dest, Envelope::Arrive(capsule));
    }

    fn redeliver(&mut self, host: HostId, msg: Message) {
        self.shared.enqueue_deliver(host, msg);
    }

    fn route(&mut self, host: HostId, op: Routed) {
        self.shared.send_envelope(host, Envelope::Routed(op));
    }

    fn emit(&mut self, actor: AgentId, payloads: Vec<Payload>) {
        self.shared
            .outbox
            .lock()
            .entry(actor)
            .or_default()
            .extend(payloads);
    }

    fn mailbox(&mut self) -> Option<impl DerefMut<Target = MailboxState> + '_> {
        Some(self.shared.mailbox.lock())
    }

    fn parked(&mut self, id: AgentId, depth: usize) {
        let mut parked = self.shared.parked.lock();
        if depth == 0 {
            parked.remove(&id);
        } else {
            parked.insert(id, depth);
        }
    }

    fn first_delivery(&mut self, id: MessageId) -> bool {
        !self.shared.chaos_on.load(Ordering::Relaxed) || self.seen.insert(id)
    }

    fn restore_decision(&mut self, id: AgentId) -> Option<RestoreDecision> {
        self.shared
            .supervision
            .as_ref()
            .map(|s| s.lock().note_restore(id))
    }

    fn supervise(&mut self, observe: impl FnOnce(&mut Supervisor, u64)) {
        if let Some(sup) = &self.shared.supervision {
            observe(&mut sup.lock(), self.shared.now().as_micros());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Ctx;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Hopper {
        hops: u32,
    }

    impl Agent for Hopper {
        fn agent_type(&self) -> &'static str {
            "hopper"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if msg.is("hop") {
                let dest: u32 = msg.payload_as().unwrap();
                ctx.dispatch_self(HostId(dest));
            } else if msg.is("emit") {
                ctx.emit(Payload::encode(&self.hops).unwrap());
            }
        }
        fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
            self.hops += 1;
            ctx.note(format!(
                "hopper arrived at {} (hops={})",
                ctx.host(),
                self.hops
            ));
        }
    }

    #[test]
    fn threaded_world_delivers_and_migrates() {
        let mut builder = ThreadWorldBuilder::new(11);
        builder.register_serde::<Hopper>("hopper");
        let a = builder.add_host("a");
        let b = builder.add_host("b");
        let world = builder.start();
        let id = world.create_agent(a, Box::new(Hopper::default())).unwrap();
        world
            .send_external(id, Message::new("hop").with_payload(&b.0).unwrap())
            .unwrap();
        let status = world.run_until_idle(Duration::from_secs(5));
        assert!(status.is_idle(), "world must quiesce: {status}");
        let (metrics, trace) = world.shutdown();
        assert_eq!(metrics.migrations, 1);
        assert_eq!(metrics.migrations_rejected, 0);
        assert!(trace
            .events()
            .iter()
            .any(|e| e.label.contains("hopper arrived at host-2")));
    }

    #[test]
    fn threaded_emits_leave_through_the_outbox_once() {
        let mut builder = ThreadWorldBuilder::new(19);
        builder.register_serde::<Hopper>("hopper");
        let a = builder.add_host("a");
        let world = builder.start();
        let id = world.create_agent(a, Box::new(Hopper { hops: 3 })).unwrap();
        world.send_external(id, Message::new("emit")).unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        let out: Vec<u32> = world
            .take_outbox(id)
            .iter()
            .map(|p| p.typed().unwrap())
            .collect();
        assert_eq!(out, vec![3]);
        assert!(world.take_outbox(id).is_empty(), "handed out once");
        let (metrics, _) = world.shutdown();
        assert_eq!(metrics.messages_delivered, 1, "an emit is not a message");
    }

    #[test]
    fn threaded_round_trip_authenticates() {
        let mut builder = ThreadWorldBuilder::new(13);
        builder.register_serde::<Hopper>("hopper");
        let a = builder.add_host("a");
        let b = builder.add_host("b");
        let world = builder.start();
        let id = world.create_agent(a, Box::new(Hopper::default())).unwrap();
        world
            .send_external(id, Message::new("hop").with_payload(&b.0).unwrap())
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        world
            .send_external(id, Message::new("hop").with_payload(&a.0).unwrap())
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        let (metrics, _) = world.shutdown();
        assert_eq!(metrics.migrations, 2);
        assert_eq!(metrics.migrations_rejected, 0);
    }

    #[test]
    fn threaded_deactivate_activate_cycle() {
        let mut builder = ThreadWorldBuilder::new(17);
        builder.register_serde::<Hopper>("hopper");
        let a = builder.add_host("a");
        let world = builder.start();
        let id = world.create_agent(a, Box::new(Hopper { hops: 4 })).unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        world.deactivate_agent(id).unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        world.activate_agent(id).unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        let (metrics, _) = world.shutdown();
        assert_eq!(metrics.deactivations, 1);
        assert_eq!(metrics.activations, 1);
    }

    #[test]
    fn unknown_host_create_is_an_error() {
        let builder = ThreadWorldBuilder::new(1);
        let world = builder.start();
        assert!(world
            .create_agent(HostId(42), Box::new(Hopper::default()))
            .is_err());
        world.shutdown();
    }

    /// Clones itself once on request; the clone notes its arrival.
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Mitosis {
        generation: u32,
    }

    impl Agent for Mitosis {
        fn agent_type(&self) -> &'static str {
            "mitosis"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if msg.is("divide") {
                self.generation += 1;
                ctx.clone_self();
            }
        }
        fn on_clone(&mut self, ctx: &mut Ctx<'_>) {
            ctx.note(format!("clone born at generation {}", self.generation));
        }
    }

    #[test]
    fn threaded_clone_copies_state() {
        let mut builder = ThreadWorldBuilder::new(19);
        builder.register_serde::<Mitosis>("mitosis");
        let a = builder.add_host("a");
        let world = builder.start();
        let cell = world.create_agent(a, Box::new(Mitosis::default())).unwrap();
        world.send_external(cell, Message::new("divide")).unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        let (metrics, trace) = world.shutdown();
        assert_eq!(metrics.agents_created, 2, "original + clone");
        assert!(trace
            .events()
            .iter()
            .any(|e| e.label.contains("clone born at generation 1")));
    }

    /// Manager that retracts a named agent home on request.
    #[derive(Debug, Serialize, Deserialize)]
    struct Manager {
        target: AgentId,
        home: HostId,
    }

    impl Agent for Manager {
        fn agent_type(&self) -> &'static str {
            "manager"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if msg.is("recall") {
                ctx.retract(self.target, self.home);
            }
        }
    }

    #[test]
    fn threaded_retract_pulls_agent_home() {
        let mut builder = ThreadWorldBuilder::new(23);
        builder.register_serde::<Hopper>("hopper");
        builder.register_serde::<Manager>("manager");
        let a = builder.add_host("a");
        let b = builder.add_host("b");
        let world = builder.start();
        let hopper = world.create_agent(a, Box::new(Hopper::default())).unwrap();
        let manager = world
            .create_agent(
                a,
                Box::new(Manager {
                    target: hopper,
                    home: a,
                }),
            )
            .unwrap();
        world
            .send_external(hopper, Message::new("hop").with_payload(&b.0).unwrap())
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        world
            .send_external(manager, Message::new("recall"))
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        let (metrics, trace) = world.shutdown();
        assert_eq!(metrics.migrations, 2, "hop out + retracted home");
        assert_eq!(
            metrics.migrations_rejected, 0,
            "retraction passes authentication"
        );
        assert!(trace
            .events()
            .iter()
            .any(|e| e.label.contains("hopper arrived at host-1 (hops=2)")));
    }

    /// Janitor that deactivates or disposes a named target on request.
    #[derive(Debug, Serialize, Deserialize)]
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
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if msg.is("hibernate") {
                ctx.deactivate(self.target);
            } else if msg.is("scrap") {
                ctx.dispose(self.target);
            }
        }
    }

    /// Regression: disposing an agent while it is deactivated must drop
    /// its parked messages (dead-lettered, spans closed) instead of
    /// leaking them in the pending map and the parked-depth gauge.
    #[test]
    fn dispose_while_deactivated_dead_letters_parked_messages() {
        let mut builder = ThreadWorldBuilder::new(29);
        builder.register_serde::<Hopper>("hopper");
        builder.register_serde::<Janitor>("janitor");
        let a = builder.add_host("a");
        let world = builder.start();
        let hopper = world.create_agent(a, Box::new(Hopper::default())).unwrap();
        let janitor = world
            .create_agent(a, Box::new(Janitor { target: hopper }))
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        world
            .send_external(janitor, Message::new("hibernate"))
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        // These park: the recipient is deactivated.
        world.send_external(hopper, Message::new("nudge")).unwrap();
        world.send_external(hopper, Message::new("nudge")).unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        assert_eq!(world.parked_total(), 2, "both messages should be parked");
        world.send_external(janitor, Message::new("scrap")).unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        assert_eq!(world.parked_total(), 0, "dispose must clear parked depth");
        let (metrics, _) = world.shutdown();
        assert_eq!(metrics.deactivations, 1);
        assert_eq!(metrics.agents_disposed, 1);
        assert_eq!(
            metrics.messages_dead_lettered, 2,
            "parked messages dead-letter on dispose instead of leaking"
        );
    }
}
