//! The host kernel shared by both runtimes.
//!
//! [`HostCore`] is one Aglet-style host of the paper (§4.1): the agents
//! active on it, its deactivated store, the authenticator that checks
//! returning agents, mail parked for deactivated agents, the WAL-backed
//! durable store and the permits carried by visiting agents. Its methods
//! are the host's policy, written once: running a callback and applying
//! the actions it queued (with output commit), create/clone, dispatch and
//! landing, local delivery, timers, deactivate/activate/dispose,
//! journaling and checkpoints, and the fault lifecycle: hang and resume
//! with their stalled work, the crash wipe, restart and the recovery pass.
//!
//! A runtime drives a core through a [`HostEnv`]: the clock, randomness,
//! id allocation, the agent directory, the metric/trace/telemetry sinks,
//! and the effects that leave the host (send a message, arm a timer, ship
//! a capsule, re-deliver parked mail, route an operation to the agent's
//! host). [`crate::sim::SimWorld`] and [`crate::thread_net::ThreadWorld`]
//! are schedulers around it, the way aika's `World` keeps its agents apart
//! from the event clock and the messenger.

use crate::agent::{Action, Agent, AgentCapsule, AgentRegistry, Ctx, DurablePolicy, FaultCounter};
use crate::clock::{SimDuration, SimTime};
use crate::durable::DurableStore;
use crate::error::{PlatformError, Result};
use crate::ids::{AgentId, HostId, MessageId};
use crate::intern::InternedStr;
use crate::message::Message;
use crate::metrics::Metrics;
use crate::overload::{deadline_expired, MailboxState};
use crate::payload::Payload;
use crate::security::{Authenticator, TravelPermit};
use crate::storage::DeactivatedStore;
use crate::supervise::{RestoreDecision, Supervisor};
use crate::telemetry::{HopKind, SpanEventKind, Telemetry, TraceCtx};
use crate::trace::Trace;
use rand::rngs::StdRng;
use serde::Deserialize;
use std::collections::HashMap;
use std::ops::DerefMut;

/// Where an agent currently is, from the world's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// Live on a host, receiving messages.
    Active(HostId),
    /// Serialized in a host's stable store.
    Deactivated(HostId),
    /// Travelling between hosts.
    InTransit,
}

/// A pending timer callback: armed by [`Ctx::set_timer`], fired by
/// [`HostCore::fire_timer`].
#[derive(Debug)]
pub(crate) struct Timer {
    pub(crate) agent: AgentId,
    pub(crate) tag: u64,
    /// Timer hop of the request that armed it.
    pub(crate) trace: Option<TraceCtx>,
    /// Ambient deadline the callback runs under.
    pub(crate) deadline: Option<SimTime>,
    /// The agent's incarnation when it armed the timer
    /// ([`HostEnv::incarnation`]); a timer from an earlier one is stale.
    pub(crate) incarnation: u32,
}

/// Whether a dispatch from one host to another can leave.
pub(crate) enum Reach {
    Open,
    /// Partitioned or crashed: refused synchronously.
    Refused,
    Unknown,
}

/// A lifecycle operation handed to the host that holds the agent.
pub(crate) enum Routed {
    /// Install a freshly created (or cloned) agent and run its birth
    /// callback.
    Create {
        id: AgentId,
        agent: Box<dyn Agent>,
        cloned: bool,
    },
    Retract {
        id: AgentId,
        to: HostId,
    },
    Deactivate(AgentId),
    Activate(AgentId),
    Dispose(AgentId),
}

impl Routed {
    /// The agent the operation is about.
    pub(crate) fn agent(&self) -> AgentId {
        match self {
            Routed::Create { id, .. } | Routed::Retract { id, .. } => *id,
            Routed::Deactivate(id) | Routed::Activate(id) | Routed::Dispose(id) => *id,
        }
    }
}

/// What a [`HostCore`] needs from the runtime that schedules it.
pub(crate) trait HostEnv {
    /// Current time.
    fn now(&self) -> SimTime;
    /// The RNG and agent-id cursor lent to a callback's [`Ctx`].
    fn ctx_parts(&mut self) -> (&mut StdRng, &mut u64);
    /// A fresh message id.
    fn next_msg_id(&mut self) -> MessageId;
    /// Factories that rehydrate capsules.
    fn registry(&self) -> &AgentRegistry;

    /// Where the directory places `id`.
    fn locate(&self, id: AgentId) -> Option<Location>;
    /// Update (or, with `None`, forget) the directory entry of `id`.
    fn set_location(&mut self, id: AgentId, loc: Option<Location>);
    /// Home host of `id`.
    fn home_of(&self, id: AgentId) -> Option<HostId>;
    /// Record the home host of `id`.
    fn set_home(&mut self, id: AgentId, home: HostId);
    /// How many times a recovery pass has restored `id` (0 if never).
    fn incarnation(&self, id: AgentId) -> u32;
    /// Count one more restoration of `id`: its pending timers go stale.
    fn bump_incarnation(&mut self, id: AgentId);
    /// Whether a dispatch from `from` to `dest` can leave.
    fn reach(&self, from: HostId, dest: HostId) -> Reach;
    /// Whether `host` is crashed.
    fn is_down(&self, host: HostId) -> bool;

    /// Counter sink.
    fn metrics(&mut self) -> impl DerefMut<Target = Metrics> + '_;
    /// Labelled event trace.
    fn trace(&mut self) -> impl DerefMut<Target = Trace> + '_;
    /// Request spans and the metrics registry.
    fn telemetry(&mut self) -> impl DerefMut<Target = Telemetry> + '_;
    /// Whether telemetry is on (a cheap check before any registry work).
    fn tracing(&self) -> bool;

    /// Route a stamped message toward `msg.to`.
    fn send(&mut self, from: HostId, msg: Message);
    /// Fire `timer` after `delay`, wherever its agent then is.
    fn arm_timer(&mut self, host: HostId, delay: SimDuration, timer: Timer);
    /// Carry a departed agent's capsule from `from` to `dest`.
    fn ship(&mut self, from: HostId, capsule: AgentCapsule, dest: HostId);
    /// Deliver a message again through mailbox admission (activation
    /// replay of parked mail).
    fn redeliver(&mut self, host: HostId, msg: Message);
    /// Hand `op` to the core of `host`.
    fn route(&mut self, host: HostId, op: Routed);
    /// Release a callback's emitted payloads to `actor`'s outbox.
    fn emit(&mut self, actor: AgentId, payloads: Vec<Payload>);
    /// The bounded-mailbox bookkeeping, if any.
    fn mailbox(&mut self) -> Option<impl DerefMut<Target = MailboxState> + '_>;
    /// Note how many messages are parked for `id`.
    fn parked(&mut self, _id: AgentId, _depth: usize) {}
    /// Whether this is the first delivery of message `id` here (chaos
    /// duplicates repeat an id).
    fn first_delivery(&mut self, id: MessageId) -> bool;
    /// Supervision's verdict on restoring `id` once more.
    fn restore_decision(&mut self, id: AgentId) -> Option<RestoreDecision>;
    /// Report a fault observation to supervision, if it is on; the
    /// closure gets the supervisor and the time in µs.
    fn supervise(&mut self, observe: impl FnOnce(&mut Supervisor, u64));
    /// Make a newly installed agent known beyond this runtime.
    fn announce(&mut self, _id: AgentId, _host: HostId) {}
    /// Whether `id` was retired in transit and must be dropped on arrival.
    fn retire_on_arrival(&mut self, _id: AgentId) -> bool {
        false
    }
    /// A new home `id` was re-bound to while it travelled.
    fn rehomed(&self, _id: AgentId) -> Option<HostId> {
        None
    }

    /// Record a trace line at the current time.
    fn record(&mut self, actor: Option<AgentId>, label: impl Into<String>) {
        let now = self.now();
        self.trace().record(now, actor, label);
    }

    /// Open a child span under `parent`, if the hop is traced.
    fn child_span(
        &mut self,
        parent: Option<TraceCtx>,
        kind: HopKind,
        name: InternedStr,
        agent: Option<AgentId>,
        host: Option<HostId>,
    ) -> Option<TraceCtx> {
        let p = parent?;
        let now = self.now();
        Some(self.telemetry().child(p, kind, name, agent, host, now))
    }

    /// Add an event to the span `tc` names, if any.
    fn span_event(&mut self, tc: Option<TraceCtx>, kind: SpanEventKind, label: impl Into<String>) {
        if let Some(tc) = tc {
            let now = self.now();
            self.telemetry().event(tc.span_id, kind, label, now);
        }
    }

    /// Close the span `tc` names; returns its duration in µs.
    fn end_span(&mut self, tc: Option<TraceCtx>) -> Option<u64> {
        let tc = tc?;
        let now = self.now();
        self.telemetry().end(tc.span_id, now)
    }

    /// Add an event to the span `tc` names and close it.
    fn close_span(&mut self, tc: Option<TraceCtx>, kind: SpanEventKind, label: impl Into<String>) {
        if tc.is_some() {
            self.span_event(tc, kind, label);
            self.end_span(tc);
        }
    }

    /// Observe `value` into the registry histogram `name`.
    fn observe(&mut self, name: &str, value: u64) {
        self.telemetry().registry_mut().observe(name, value);
    }
}

/// Drop `msg` as undeliverable: count it, close its hop span and trace
/// why.
pub(crate) fn dead_letter<E: HostEnv>(env: &mut E, msg: Message, why: &str) {
    env.metrics().messages_dead_lettered += 1;
    env.telemetry()
        .registry_mut()
        .dead_letter(msg.kind.as_str());
    let label = format!("{} to {} ({why})", msg.kind, msg.to);
    env.close_span(msg.trace, SpanEventKind::DeadLetter, label.clone());
    env.record(msg.from, format!("dead-letter: {label}"));
}

/// Admission at delivery time: the delivery leaves the bounded mailbox,
/// and work past its deadline is dropped. Returns the message if it
/// should be handled.
pub(crate) fn admit<E: HostEnv>(env: &mut E, msg: Message) -> Option<Message> {
    if let Some(mut mb) = env.mailbox() {
        mb.on_consume(msg.to);
    }
    if deadline_expired(msg.deadline, env.now()) {
        env.metrics().deadline_drops += 1;
        env.close_span(
            msg.trace,
            SpanEventKind::DeadlineExceeded,
            format!("dropped: deadline passed before {} delivery", msg.kind),
        );
        env.record(
            msg.from,
            format!("deadline exceeded: {} to {} dropped", msg.kind, msg.to),
        );
        return None;
    }
    Some(msg)
}

/// What a callback's actions ask of the output-commit step.
#[derive(Default)]
struct Commit {
    /// Payloads to release to the actor's outbox.
    emits: Vec<Payload>,
    /// The callback admitted a deadline-tracked request: its in-flight
    /// record must be as durable as a reply would be.
    admitted: bool,
}

/// One host's agents, stores and policy. See the [module
/// documentation](self).
pub(crate) struct HostCore {
    pub(crate) id: HostId,
    pub(crate) active: HashMap<AgentId, Box<dyn Agent>>,
    pub(crate) store: DeactivatedStore,
    pub(crate) auth: Authenticator,
    /// Messages for deactivated agents, replayed on activation.
    pending: HashMap<AgentId, Vec<Message>>,
    /// WAL-backed stable storage, present when durability is on. Survives
    /// crashes (only the unsynced tail is lost).
    pub(crate) durable: Option<DurableStore>,
    /// Home permits carried by agents visiting this host.
    permits: HashMap<AgentId, TravelPermit>,
    /// Handler span of the running callback; parents every hop it causes.
    /// Saved and restored around nested callbacks.
    current_trace: Option<TraceCtx>,
    /// Ambient request deadline of the running callback, stamped onto
    /// everything it sends. Same save/restore discipline.
    current_deadline: Option<SimTime>,
    /// Wedged by a hang fault: the host is up and accepts arrivals, but
    /// deliveries and timers for its active agents stall into the buffers
    /// below until [`HostCore::resume`].
    hung: bool,
    /// Deliveries that landed while hung, replayed on resume.
    stalled: Vec<Message>,
    /// Timers that came due while hung, fired on resume.
    stalled_timers: Vec<Timer>,
}

impl HostCore {
    pub(crate) fn new(id: HostId, secret: u64, durable: Option<DurableStore>) -> Self {
        HostCore {
            id,
            active: HashMap::new(),
            store: DeactivatedStore::new(),
            auth: Authenticator::new(secret),
            pending: HashMap::new(),
            durable,
            permits: HashMap::new(),
            current_trace: None,
            current_deadline: None,
            hung: false,
            stalled: Vec::new(),
            stalled_timers: Vec::new(),
        }
    }

    /// Run `f` against the active agent `id`, then apply the actions it
    /// queued. When the triggering hop is traced (`parent`), the callback
    /// runs under a handler span named `name`, which parents every hop the
    /// callback causes. On a durable host the callback boundary is a
    /// journaling boundary, and its emits are released only once the
    /// journal is synced (output commit).
    pub(crate) fn run_callback<E, F>(
        &mut self,
        env: &mut E,
        id: AgentId,
        parent: Option<TraceCtx>,
        name: &str,
        f: F,
    ) where
        E: HostEnv,
        F: FnOnce(&mut dyn Agent, &mut Ctx<'_>),
    {
        let Some(mut agent) = self.active.remove(&id) else {
            return;
        };
        let handler = env.child_span(
            parent,
            HopKind::Handler,
            InternedStr::new(name),
            Some(id),
            Some(self.id),
        );
        let saved = std::mem::replace(&mut self.current_trace, handler);
        // Nested callbacks (on_creation from a Create action, etc.) inherit
        // the caller's ambient deadline; event handlers set it from the
        // carried value before calling in.
        let saved_deadline = self.current_deadline;
        let mut actions = Vec::new();
        {
            let now = env.now();
            let (rng, ids) = env.ctx_parts();
            let mut ctx = Ctx::new(id, self.id, now, rng, &mut actions, ids)
                .with_trace(handler)
                .with_deadline(self.current_deadline)
                .with_durable(self.durable.is_some());
            f(agent.as_mut(), &mut ctx);
        }
        // Reinsert before applying actions so that actions targeting the
        // agent itself (deactivate_self, dispose_self, dispatch_self) see it.
        self.active.insert(id, agent);
        let mut commit = Commit::default();
        self.apply_actions(env, id, actions, &mut commit);
        if self.durable.is_some() && self.active.contains_key(&id) {
            self.journal_live_capsule(env, id);
        }
        if commit.admitted || !commit.emits.is_empty() {
            if let Some(store) = self.durable.as_mut() {
                let _ = store.sync();
            }
            if !commit.emits.is_empty() {
                env.emit(id, commit.emits);
            }
        }
        if let Some(h) = handler {
            let now = env.now();
            let mut t = env.telemetry();
            t.end(h.span_id, now);
            if let Some(wall) = t
                .span(h.span_id)
                .and_then(|s| s.wall_end_ns.map(|e| e.saturating_sub(s.wall_start_ns)))
            {
                t.registry_mut().observe("stage.handler_wall_ns", wall);
            }
        }
        self.current_trace = saved;
        self.current_deadline = saved_deadline;
    }

    /// Apply a callback's actions in order; emits and admissions are
    /// gathered into `commit` for the output-commit step.
    fn apply_actions<E: HostEnv>(
        &mut self,
        env: &mut E,
        actor: AgentId,
        actions: Vec<Action>,
        commit: &mut Commit,
    ) {
        for action in actions {
            match action {
                Action::Send { mut msg, .. } => {
                    msg.id = env.next_msg_id();
                    msg.deadline = self.current_deadline;
                    // Every send is a fresh hop: any context the message
                    // already carried names a hop that ended at its delivery.
                    msg.trace = env.child_span(
                        self.current_trace,
                        HopKind::Message,
                        msg.kind.clone(),
                        msg.from,
                        Some(self.id),
                    );
                    env.send(self.id, msg);
                }
                Action::Create { id, agent } => self.install(env, id, agent, false),
                Action::CreateOfType {
                    id,
                    agent_type,
                    state,
                } => {
                    let capsule = AgentCapsule {
                        id,
                        agent_type,
                        state,
                        home: self.id,
                        permit: None,
                        trace: None,
                        deadline: None,
                    };
                    match env.registry().rehydrate(&capsule) {
                        Ok(agent) => self.install(env, id, agent, false),
                        Err(e) => {
                            env.record(Some(actor), format!("create-of-type failed for {id}: {e}"))
                        }
                    }
                }
                Action::DispatchSelf { dest } => self.dispatch(env, actor, dest),
                Action::CloneSelf { id } => {
                    let Some(capsule) = self
                        .active
                        .get(&actor)
                        .map(|a| AgentCapsule::capture(id, a.as_ref(), self.id, None))
                    else {
                        continue;
                    };
                    match env.registry().rehydrate(&capsule) {
                        Ok(copy) => self.install(env, id, copy, true),
                        Err(e) => env.record(Some(actor), format!("clone failed for {actor}: {e}")),
                    }
                }
                Action::Retract { id, to } => {
                    self.lifecycle(env, actor, Routed::Retract { id, to })
                }
                Action::Deactivate { id } => self.lifecycle(env, actor, Routed::Deactivate(id)),
                Action::Activate { id } => self.lifecycle(env, actor, Routed::Activate(id)),
                Action::Dispose { id } => self.lifecycle(env, actor, Routed::Dispose(id)),
                Action::SetTimer { id, delay, tag } => {
                    // A pending timer is a hop of the request that armed
                    // it: span opens at arm, closes at fire.
                    let trace = env.child_span(
                        self.current_trace,
                        HopKind::Timer,
                        InternedStr::new("timer"),
                        Some(id),
                        Some(self.id),
                    );
                    let timer = Timer {
                        agent: id,
                        tag,
                        trace,
                        deadline: self.current_deadline,
                        incarnation: env.incarnation(id),
                    };
                    env.arm_timer(self.id, delay, timer);
                }
                Action::SetDeadline { deadline } => {
                    commit.admitted |= deadline.is_some();
                    self.current_deadline = deadline;
                }
                Action::Note { label } => {
                    env.span_event(self.current_trace, SpanEventKind::Note, label.clone());
                    env.record(Some(actor), label);
                }
                Action::CountFault { counter } => {
                    let (kind, label) = {
                        let mut m = env.metrics();
                        match counter {
                            FaultCounter::Retry => {
                                m.retries += 1;
                                (SpanEventKind::Retry, "retry attempt")
                            }
                            FaultCounter::DegradedReply => {
                                m.degraded_replies += 1;
                                (SpanEventKind::Degraded, "degraded reply")
                            }
                            FaultCounter::Shed => {
                                m.requests_shed += 1;
                                (SpanEventKind::Shed, "request shed")
                            }
                            FaultCounter::BreakerRejection => {
                                m.breaker_rejections += 1;
                                (SpanEventKind::Breaker, "dispatch suppressed: circuit open")
                            }
                            FaultCounter::LedgerResolution => {
                                m.intents_resolved_by_ledger += 1;
                                (
                                    SpanEventKind::Note,
                                    "purchase resolved from marketplace ledger",
                                )
                            }
                        }
                    };
                    env.span_event(self.current_trace, kind, label);
                }
                Action::Observe { name, value } => {
                    if env.tracing() {
                        env.observe(name.as_str(), value);
                    }
                }
                Action::IncCounter { name, by } => {
                    if env.tracing() {
                        env.telemetry().registry_mut().inc(name.as_str(), by);
                    }
                }
                Action::JournalIntent { intent, detail } => {
                    self.journal(env, |s| s.log_intent(intent, detail));
                }
                Action::JournalCommit { intent, detail } => {
                    self.journal(env, |s| s.log_commit(intent, detail));
                }
                Action::JournalAbort { intent, reason } => {
                    self.journal(env, |s| s.log_abort(intent, reason));
                }
                Action::JournalDelta { id, delta, forced } => {
                    self.journal(env, |s| {
                        if forced {
                            s.log_forced_delta(id.0, delta)
                        } else {
                            s.log_delta(id.0, delta)
                        }
                    });
                }
                Action::Emit { payload } => commit.emits.push(payload),
            }
        }
    }

    /// Apply an agent's lifecycle request about `op.agent()`. An agent this
    /// host holds is handled here; a retract follows the agent to any
    /// host; anything else is ignored with a trace line.
    fn lifecycle<E: HostEnv>(&mut self, env: &mut E, actor: AgentId, op: Routed) {
        let id = op.agent();
        let held = self.active.contains_key(&id) || self.store.contains(id);
        if !held && matches!(op, Routed::Retract { .. }) {
            if let Some(Location::Active(at)) = env.locate(id) {
                if at != self.id {
                    return env.route(at, op);
                }
            }
        }
        self.handle(env, actor, op);
    }

    /// Apply `op` to an agent of this host (`actor` asked for it).
    pub(crate) fn handle<E: HostEnv>(&mut self, env: &mut E, actor: AgentId, op: Routed) {
        let host = self.id;
        match op {
            Routed::Create { id, agent, cloned } => self.land_new(env, id, agent, None, cloned),
            Routed::Retract { id, to } => {
                if !self.active.contains_key(&id) {
                    let at = if self.store.contains(id) {
                        Some(Location::Deactivated(host))
                    } else {
                        env.locate(id)
                    };
                    env.record(
                        Some(actor),
                        format!("retract failed: {id} not active ({at:?})"),
                    );
                } else if host == to {
                    env.record(
                        Some(actor),
                        format!("retract ignored: {id} already at {to}"),
                    );
                } else {
                    self.dispatch(env, id, to);
                }
            }
            Routed::Deactivate(id) => {
                if !self.do_deactivate(env, id) {
                    env.record(
                        Some(actor),
                        format!("deactivate ignored: {id} not active on {host}"),
                    );
                }
            }
            Routed::Activate(id) => {
                if !self.store.contains(id) {
                    env.record(
                        Some(actor),
                        format!("activate ignored: {id} not stored on {host}"),
                    );
                } else {
                    let _ = self.do_activate(env, id);
                }
            }
            Routed::Dispose(id) => {
                if !self.do_dispose(env, id) {
                    env.record(Some(id), format!("dispose ignored: {id} not on {host}"));
                }
            }
        }
    }

    /// Register a new agent born on this host (from an action, or from
    /// outside the world) and run its birth callback.
    pub(crate) fn install<E: HostEnv>(
        &mut self,
        env: &mut E,
        id: AgentId,
        agent: Box<dyn Agent>,
        cloned: bool,
    ) {
        env.set_location(id, Some(Location::Active(self.id)));
        env.set_home(id, self.id);
        let parent = self.current_trace;
        self.land_new(env, id, agent, parent, cloned);
    }

    /// Activate a new agent here and run `on_creation` (or `on_clone`).
    fn land_new<E: HostEnv>(
        &mut self,
        env: &mut E,
        id: AgentId,
        agent: Box<dyn Agent>,
        parent: Option<TraceCtx>,
        cloned: bool,
    ) {
        self.active.insert(id, agent);
        env.metrics().agents_created += 1;
        env.announce(id, self.id);
        if cloned {
            self.run_callback(env, id, parent, "on_clone", |a, ctx| a.on_clone(ctx));
        } else {
            self.run_callback(env, id, parent, "on_creation", |a, ctx| a.on_creation(ctx));
        }
    }

    /// Send the active agent `id` to `dest`: `on_dispatch`, permit issue
    /// (or the carried home permit), capsule capture, then the runtime
    /// ships it. An unreachable destination refuses synchronously and the
    /// agent gets `on_dispatch_failed`.
    pub(crate) fn dispatch<E: HostEnv>(&mut self, env: &mut E, id: AgentId, dest: HostId) {
        let host = self.id;
        let reach = env.reach(host, dest);
        if let Reach::Unknown = reach {
            env.record(Some(id), format!("dispatch failed: unknown {dest}"));
            return;
        }
        if !self.active.contains_key(&id) {
            return; // already departed or disposed this round
        }
        let parent = self.current_trace;
        if let Reach::Refused = reach {
            env.metrics().chaos_drops += 1;
            let label = format!("dispatch refused: {dest} unreachable");
            env.span_event(parent, SpanEventKind::Chaos, label.clone());
            env.record(Some(id), label);
            self.run_callback(env, id, parent, "on_dispatch_failed", move |a, ctx| {
                a.on_dispatch_failed(ctx, dest)
            });
            return;
        }
        // Lifecycle callback before departure; its actions run here. It
        // may dispose or deactivate the agent.
        self.run_callback(env, id, parent, "on_dispatch", |a, ctx| a.on_dispatch(ctx));
        let Some(agent) = self.active.remove(&id) else {
            return;
        };
        let home = env.home_of(id).unwrap_or(host);
        let permit = if host == home {
            Some(self.auth.issue(id))
        } else {
            self.permits.remove(&id)
        };
        let mut capsule = AgentCapsule::capture(id, agent.as_ref(), home, permit);
        drop(agent); // the live instance stays behind and is destroyed
        capsule.deadline = self.current_deadline;
        // The travelling capsule is a migration hop of the request that
        // asked for the dispatch.
        capsule.trace = env.child_span(
            parent,
            HopKind::Migration,
            capsule.agent_type.clone(),
            Some(id),
            Some(host),
        );
        env.set_location(id, Some(Location::InTransit));
        // The agent has left: its capsule is no longer this host's to
        // restore. Journalled (forced) so a crash cannot resurrect a
        // second copy of an agent that already departed.
        self.journal_capsule_gone(env, id);
        env.ship(host, capsule, dest);
    }

    /// Land an arriving capsule: refused if the host crashed, the agent
    /// was retired or its deadline passed; a returning agent must present
    /// its home permit (§4.1); then it is rehydrated and `on_arrival` runs.
    pub(crate) fn land<E: HostEnv>(&mut self, env: &mut E, capsule: AgentCapsule) {
        let id = capsule.id;
        let dest = self.id;
        let refuse = |core: &mut Self, env: &mut E, kind, span: String, label: String| {
            env.set_location(id, None);
            core.permits.remove(&id);
            env.close_span(capsule.trace, kind, span);
            env.record(Some(id), label);
        };
        // A crash while the capsule was in flight loses the agent.
        if env.is_down(dest) {
            {
                let mut m = env.metrics();
                m.agents_lost_in_crash += 1;
                m.chaos_drops += 1;
            }
            let span = format!("arrival failed: {dest} crashed; agent lost");
            let label = format!("arrival failed: {dest} crashed; {id} lost");
            return refuse(self, env, SpanEventKind::Chaos, span, label);
        }
        // An orphan retired while in transit (its home failed over with
        // no restored owner) is dropped rather than leaked.
        if env.retire_on_arrival(id) {
            env.metrics().agents_retired += 1;
            env.set_location(id, None);
            self.permits.remove(&id);
            env.end_span(capsule.trace);
            env.record(
                Some(id),
                format!("supervisor: orphan {id} retired on arrival at {dest}"),
            );
            return;
        }
        // Work past its deadline is cancelled rather than landed: the
        // requester has already been answered (or timed out) by now.
        if deadline_expired(capsule.deadline, env.now()) {
            env.metrics().deadline_drops += 1;
            let span = format!("cancelled: deadline passed before arrival at {dest}");
            let label = format!("deadline exceeded: {id} cancelled before arrival at {dest}");
            return refuse(self, env, SpanEventKind::DeadlineExceeded, span, label);
        }
        // Returning home: the paper demands authentication (§4.1 p.2).
        if dest == capsule.home && self.auth.expects(id) {
            let ok = match capsule.permit {
                Some(permit) => self.auth.verify(id, &permit),
                None => {
                    // no permit presented: count as a rejection
                    let bogus = TravelPermit {
                        agent: id,
                        nonce: 0,
                        mac: 0,
                    };
                    self.auth.verify(id, &bogus);
                    false
                }
            };
            if !ok {
                env.metrics().migrations_rejected += 1;
                let label = format!("arrival rejected at {dest}: authentication failed");
                return refuse(self, env, SpanEventKind::Note, label.clone(), label);
            }
        } else if let Some(p) = capsule.permit {
            // Keep carrying the home permit while visiting.
            self.permits.insert(id, p);
        }
        match env.registry().rehydrate(&capsule) {
            Ok(agent) => {
                env.metrics().migrations += 1;
                self.active.insert(id, agent);
                env.set_location(id, Some(Location::Active(dest)));
                // Records the true home of cross-shard arrivals so their
                // later dispatches carry the right permit expectations.
                env.set_home(id, capsule.home);
                // A capsule that left before its home failed over still
                // carries the dead home: re-bind it.
                if let Some(new_home) = env.rehomed(id).filter(|h| *h != capsule.home) {
                    env.set_home(id, new_home);
                    self.run_callback(env, id, None, "on_rehomed", move |a, ctx| {
                        a.on_rehomed(ctx, new_home)
                    });
                }
                env.announce(id, dest);
                if let Some(dur) = env.end_span(capsule.trace) {
                    env.observe("stage.migration_us", dur);
                }
                self.current_deadline = capsule.deadline;
                self.run_callback(env, id, capsule.trace, "on_arrival", |a, ctx| {
                    a.on_arrival(ctx)
                });
                self.current_deadline = None;
            }
            Err(e) => {
                env.metrics().migrations_rejected += 1;
                let label = format!("arrival rejected at {dest}: {e}");
                refuse(self, env, SpanEventKind::Note, label.clone(), label);
            }
        }
    }

    /// Hand an admitted message to its recipient on this host: stall it if
    /// the recipient is active on a hung host, run `on_message` if it is
    /// active, park it if it is deactivated, and dead-letter it otherwise.
    pub(crate) fn deliver<E: HostEnv>(&mut self, env: &mut E, msg: Message) {
        let to = msg.to;
        if self.hung && self.active.contains_key(&to) {
            // A hung host accepts the delivery but never drains it. It
            // stalls before duplicate suppression, so the replayed copy is
            // not mistaken for a chaos dupe.
            let label = format!("stalled: {} hung", self.id);
            env.span_event(msg.trace, SpanEventKind::Note, label);
            self.stalled.push(msg);
        } else if self.active.contains_key(&to) {
            // Receiver-side duplicate suppression: a chaos-injected copy
            // carries the original's id and is dropped here.
            if !env.first_delivery(msg.id) {
                env.metrics().dupes_suppressed += 1;
                env.span_event(
                    msg.trace,
                    SpanEventKind::Chaos,
                    "duplicate suppressed at receiver",
                );
                return;
            }
            env.metrics().messages_delivered += 1;
            if let Some(dur) = env.end_span(msg.trace) {
                let mut t = env.telemetry();
                let reg = t.registry_mut();
                reg.observe("stage.transfer_us", dur);
                reg.observe(&format!("latency_us.{}", msg.kind), dur);
                reg.inc(&format!("delivered.{}", msg.kind), 1);
            }
            let parent = msg.trace;
            let kind = msg.kind.clone();
            self.current_deadline = msg.deadline;
            self.run_callback(env, to, parent, kind.as_str(), move |a, ctx| {
                a.on_message(ctx, msg)
            });
            self.current_deadline = None;
        } else if self.store.contains(to) {
            // Held until the agent is activated, like a mailbox; the hop
            // span stays open until the replayed copy lands.
            env.span_event(
                msg.trace,
                SpanEventKind::Note,
                "parked: recipient deactivated",
            );
            let parked = self.pending.entry(to).or_default();
            parked.push(msg);
            let depth = parked.len();
            env.parked(to, depth);
        } else {
            dead_letter(env, msg, "gone at delivery");
        }
    }

    /// Fire a due timer. Timers fire even past the deadline: a watchdog is
    /// often the very thing that turns an expired request into a reply. A
    /// timer armed before its agent was last restored died with the crash
    /// that lost that incarnation, and never fires. On a hung host the
    /// timer of an active agent stalls until [`HostCore::resume`].
    pub(crate) fn fire_timer<E: HostEnv>(&mut self, env: &mut E, timer: Timer) {
        if self.hung && self.active.contains_key(&timer.agent) {
            self.stalled_timers.push(timer);
            return;
        }
        if !self.active.contains_key(&timer.agent)
            || timer.incarnation != env.incarnation(timer.agent)
        {
            // Agent gone (disposed, migrated, crashed) or restored since:
            // the pending-timer hop still closes.
            env.end_span(timer.trace);
            return;
        }
        env.metrics().timers_fired += 1;
        if let Some(dur) = env.end_span(timer.trace) {
            env.observe("stage.timer_wait_us", dur);
        }
        let Timer {
            agent,
            tag,
            trace,
            deadline,
            ..
        } = timer;
        self.current_deadline = deadline;
        self.run_callback(env, agent, trace, "on_timer", move |a, ctx| {
            a.on_timer(ctx, tag)
        });
        self.current_deadline = None;
    }

    /// Deactivate the active agent `id` into the stable store (journalled
    /// on a durable host). Returns whether the agent was active here.
    pub(crate) fn do_deactivate<E: HostEnv>(&mut self, env: &mut E, id: AgentId) -> bool {
        if !self.active.contains_key(&id) {
            return false;
        }
        let parent = self.current_trace;
        self.run_callback(env, id, parent, "on_deactivation", |a, ctx| {
            a.on_deactivation(ctx)
        });
        // The callback may itself have changed the agent's state.
        let Some(agent) = self.active.remove(&id) else {
            return true;
        };
        let home = env.home_of(id).unwrap_or(self.id);
        let capsule = AgentCapsule::capture(id, agent.as_ref(), home, None);
        if self.durable.is_some() {
            if let Ok(value) = serde_json::to_value(&capsule) {
                self.journal(env, |s| s.put_capsule(id.0, value, false));
            }
        }
        self.store.store(capsule);
        env.set_location(id, Some(Location::Deactivated(self.id)));
        env.metrics().deactivations += 1;
        true
    }

    /// Activate the stored agent `id` and replay the messages parked for
    /// it.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownAgent`] if `id` is not stored here; the
    /// registry's error if it cannot be rehydrated (it stays stored).
    pub(crate) fn do_activate<E: HostEnv>(&mut self, env: &mut E, id: AgentId) -> Result<()> {
        let capsule = self.store.load(id).ok_or(PlatformError::UnknownAgent(id))?;
        let agent = match env.registry().rehydrate(&capsule) {
            Ok(a) => a,
            Err(e) => {
                // Activation failed but the agent is not lost.
                self.store.store(capsule);
                return Err(e);
            }
        };
        self.active.insert(id, agent);
        env.set_location(id, Some(Location::Active(self.id)));
        env.metrics().activations += 1;
        let parent = self.current_trace;
        self.run_callback(env, id, parent, "on_activation", |a, ctx| {
            a.on_activation(ctx)
        });
        let pending = self.pending.remove(&id).unwrap_or_default();
        env.parked(id, 0);
        for msg in pending {
            env.redeliver(self.id, msg);
        }
        Ok(())
    }

    /// Dispose of `id`, active or stored here. Messages parked for it can
    /// never replay now, so they are dead-lettered. Returns whether the
    /// agent was here.
    pub(crate) fn do_dispose<E: HostEnv>(&mut self, env: &mut E, id: AgentId) -> bool {
        if self.active.contains_key(&id) {
            let parent = self.current_trace;
            self.run_callback(env, id, parent, "on_disposal", |a, ctx| a.on_disposal(ctx));
            self.active.remove(&id);
        } else if self.store.load(id).is_none() {
            return false;
        }
        for msg in self.pending.remove(&id).unwrap_or_default() {
            dead_letter(env, msg, "recipient disposed while parked");
        }
        env.set_location(id, None);
        self.permits.remove(&id);
        env.parked(id, 0);
        if let Some(mut mb) = env.mailbox() {
            mb.forget(id);
        }
        self.journal_capsule_gone(env, id);
        env.metrics().agents_disposed += 1;
        true
    }

    /// Deliveries and timers stalled on this hung host.
    pub(crate) fn stalled_len(&self) -> usize {
        self.stalled.len() + self.stalled_timers.len()
    }

    /// Wedge the host (a hang fault): arrivals still land, but deliveries
    /// and timers for its active agents stall until [`HostCore::resume`].
    /// A crashed or already-hung host is left alone.
    pub(crate) fn hang<E: HostEnv>(&mut self, env: &mut E) {
        let host = self.id;
        if self.hung || env.is_down(host) {
            return;
        }
        self.hung = true;
        env.metrics().hangs_injected += 1;
        env.record(None, format!("chaos: {host} hung (deliveries stalling)"));
        env.supervise(|s, now_us| s.observe_hang(host, now_us));
    }

    /// Clear a hang and replay what stalled: the deliveries back through
    /// mailbox admission, then the timers at once. `bounced` marks a
    /// supervisor bounce rather than a healed fault.
    pub(crate) fn resume<E: HostEnv>(&mut self, env: &mut E, bounced: bool) {
        let host = self.id;
        if !self.hung {
            return;
        }
        self.hung = false;
        let (who, what) = if bounced {
            ("supervisor", "bounced")
        } else {
            ("chaos", "unhung")
        };
        let n = self.stalled.len();
        env.record(
            None,
            format!("{who}: {host} {what} ({n} stalled deliveries replayed)"),
        );
        env.supervise(|s, _| s.observe_hang_cleared(host));
        for msg in std::mem::take(&mut self.stalled) {
            env.redeliver(host, msg);
        }
        for timer in std::mem::take(&mut self.stalled_timers) {
            env.arm_timer(host, SimDuration::default(), timer);
        }
    }

    /// Crash the host: lose everything but the durable store (minus its
    /// unsynced tail) and the authenticator, which models secrets on
    /// stable storage. Work stalled by a hang is lost with the host.
    pub(crate) fn crash<E: HostEnv>(&mut self, env: &mut E) {
        let host = self.id;
        self.hung = false;
        let stalled = std::mem::take(&mut self.stalled);
        env.metrics().messages_lost += stalled.len() as u64;
        let timers = std::mem::take(&mut self.stalled_timers);
        let traces = stalled.into_iter().map(|m| m.trace);
        let why = "dropped: host crashed while hung";
        for trace in traces.chain(timers.into_iter().map(|t| t.trace)) {
            env.close_span(trace, SpanEventKind::Chaos, why);
        }
        let mut lost: Vec<AgentId> = self.active.keys().copied().collect();
        self.active.clear();
        lost.extend(self.store.drain());
        self.pending.clear();
        self.permits.clear();
        if let Some(store) = self.durable.as_mut() {
            // The agents still count as lost here; the recovery pass on
            // restart is what brings them back.
            let _ = store.crash();
        }
        for &id in &lost {
            env.set_location(id, None);
            env.parked(id, 0);
            if let Some(mut mb) = env.mailbox() {
                mb.forget(id);
            }
        }
        {
            let mut m = env.metrics();
            m.agents_lost_in_crash += lost.len() as u64;
            m.host_crashes += 1;
        }
        env.record(
            None,
            format!("chaos: {host} crashed ({} agents lost)", lost.len()),
        );
        env.supervise(|s, now_us| {
            s.observe_hang_cleared(host);
            s.observe_crash(host, now_us);
        });
    }

    /// Bring the crashed host back: trace the restart and run the
    /// recovery pass.
    pub(crate) fn restart<E: HostEnv>(&mut self, env: &mut E) {
        let host = self.id;
        env.record(None, format!("chaos: {host} restarted"));
        self.recover(env);
        // A scripted heal cancels any pending automatic failover.
        env.supervise(|s, _| s.observe_restart(host));
    }

    /// Recovery pass after a restart or failover: replay the durable store,
    /// restore deactivated capsules into the store, rehydrate journalled
    /// active agents and hand each its logged profile deltas via
    /// [`Agent::on_recovered`]. Crash-looping agents are quarantined. Each
    /// restored agent starts a new incarnation, so no timer it armed
    /// before the crash fires, wherever the recovery runs.
    pub(crate) fn recover<E: HostEnv>(&mut self, env: &mut E) {
        let host = self.id;
        let Some(recovered) = self.durable.as_ref().map(DurableStore::recover) else {
            return;
        };
        {
            let mut m = env.metrics();
            m.hosts_recovered += 1;
            m.wal_records_replayed += recovered.replayed as u64;
        }
        let mut restored_active: Vec<AgentId> = Vec::new();
        let mut restored = 0u64;
        for (raw, rec) in &recovered.state.capsules {
            let id = AgentId(*raw);
            if let Some(RestoreDecision::Quarantine) = env.restore_decision(id) {
                env.metrics().agents_quarantined += 1;
                env.record(
                    Some(id),
                    format!("supervisor: {id} quarantined (restart budget exhausted)"),
                );
                continue;
            }
            let capsule = match AgentCapsule::deserialize_value(&rec.capsule) {
                Ok(c) => c,
                Err(e) => {
                    env.record(
                        None,
                        format!("recovery: {host} capsule for {id} unreadable: {e}"),
                    );
                    continue;
                }
            };
            let home = capsule.home;
            if rec.active {
                match env.registry().rehydrate(&capsule) {
                    Ok(agent) => {
                        self.active.insert(id, agent);
                        env.set_location(id, Some(Location::Active(host)));
                        if let Some(p) = capsule.permit {
                            self.permits.insert(id, p);
                        }
                        restored_active.push(id);
                    }
                    Err(e) => {
                        env.record(None, format!("recovery: {host} cannot rehydrate {id}: {e}"));
                        continue;
                    }
                }
            } else {
                self.store.store(capsule);
                env.set_location(id, Some(Location::Deactivated(host)));
            }
            env.set_home(id, home);
            env.bump_incarnation(id);
            restored += 1;
        }
        env.metrics().agents_recovered += restored;
        env.record(
            None,
            format!(
                "recovery: {host} replayed {} wal records, restored {restored} agents",
                recovered.replayed
            ),
        );
        restored_active.sort_unstable();
        for id in restored_active {
            let deltas = recovered.state.deltas_for(id.0);
            env.metrics().profile_deltas_replayed += deltas.len() as u64;
            self.run_callback(env, id, None, "on_recovered", move |a, ctx| {
                a.on_recovered(ctx, &deltas)
            });
        }
    }

    /// Run one durable-store operation, if this host is durable, and fold
    /// its counters into the metrics.
    fn journal<E, F>(&mut self, env: &mut E, op: F)
    where
        E: HostEnv,
        F: FnOnce(&mut DurableStore) -> simdb::Result<()>,
    {
        if let Some(store) = self.durable.as_mut() {
            let _ = op(store);
            self.drain_durable_counters(env);
        }
    }

    /// Fold the durable store's counters into the metrics.
    fn drain_durable_counters<E: HostEnv>(&mut self, env: &mut E) {
        if let Some(counters) = self.durable.as_mut().map(DurableStore::take_counters) {
            counters.merge_into(&mut env.metrics());
        }
    }

    /// The capsule of active agent `id` as the durable store keeps it.
    fn capsule_value<E: HostEnv>(&self, env: &E, id: AgentId) -> Option<serde_json::Value> {
        let agent = self.active.get(&id)?;
        let home = env.home_of(id).unwrap_or(self.id);
        let permit = self.permits.get(&id).copied();
        Some(AgentCapsule::capture(id, agent.as_ref(), home, permit).into_value())
    }

    /// Journal the live capsule of active agent `id`. Capsule-journalled
    /// agents are captured after every callback; delta-journalled agents
    /// only get a baseline capture (their history travels as deltas,
    /// folded into a fresh capture at the checkpoint where they come to
    /// outweigh it). An agent's first active capsule here — at creation,
    /// arrival or activation — is forced: until it is synced, a crash
    /// would lose the agent outright (or restore it deactivated, without
    /// the deltas logged since), whatever it already answered.
    fn journal_live_capsule<E: HostEnv>(&mut self, env: &mut E, id: AgentId) {
        let Some(store) = self.durable.as_ref() else {
            return;
        };
        let has_capsule = store
            .state()
            .capsules
            .get(&id.0)
            .is_some_and(|rec| rec.active);
        let deltas = self
            .active
            .get(&id)
            .is_some_and(|a| matches!(a.durable_policy(), DurablePolicy::Deltas));
        if deltas && has_capsule {
            return;
        }
        if let Some(value) = self.capsule_value(env, id) {
            self.journal(env, |s| {
                s.put_capsule(id.0, value, true)?;
                if has_capsule {
                    Ok(())
                } else {
                    s.sync()
                }
            });
        }
    }

    /// Journal the removal of `id`'s capsule (departure or disposal — a
    /// crash deliberately does not).
    fn journal_capsule_gone<E: HostEnv>(&mut self, env: &mut E, id: AgentId) {
        self.journal(env, |s| s.remove_capsule(id.0));
    }

    /// Checkpoint the durable store once its journal has grown past the
    /// configured threshold: re-capture the delta-journalled agents whose
    /// carried deltas outweigh their last capsule
    /// ([`DurableStore::needs_capture`]), snapshot the state, and truncate
    /// the WAL. Bounds replay cost at recovery time.
    pub(crate) fn maybe_checkpoint<E: HostEnv>(&mut self, env: &mut E) {
        let Some(store) = self.durable.as_mut().filter(|s| s.should_checkpoint()) else {
            return;
        };
        let mut ids: Vec<AgentId> = self
            .active
            .iter()
            .filter(|(id, a)| {
                matches!(a.durable_policy(), DurablePolicy::Deltas) && store.needs_capture(id.0)
            })
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        let fresh: Vec<(u64, serde_json::Value, bool)> = ids
            .into_iter()
            .filter_map(|id| Some((id.0, self.capsule_value(env, id)?, true)))
            .collect();
        // in-memory checkpoints cannot fail; the runtimes never install
        // file-backed stores
        self.journal(env, |s| s.checkpoint(fresh));
    }
}
