//! The agent abstraction: lifecycle callbacks, the action context handed to
//! callbacks, and migration capsules.
//!
//! The lifecycle mirrors IBM Aglets (§2.1 of the paper): agents are
//! *created*, may be *cloned*, *dispatched* to another host (carrying their
//! state), *deactivated* into stable storage and later *activated*, and
//! finally *disposed*. State travels as an [`AgentCapsule`]; the receiving
//! host rehydrates it through an [`AgentRegistry`] keyed by
//! [`Agent::agent_type`], mirroring the "takes along its program code as
//! well as the states" behaviour of aglets.

use crate::clock::{SimDuration, SimTime};
use crate::error::{PlatformError, Result};
use crate::ids::{AgentId, HostId};
use crate::intern::InternedStr;
use crate::message::Message;
use crate::payload::Payload;
use crate::security::TravelPermit;
use crate::telemetry::TraceCtx;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Behaviour of an agent.
///
/// Implementations are plain state machines: every callback receives a
/// [`Ctx`] through which the agent reads the clock, sends messages, spawns
/// other agents, migrates, deactivates or disposes. Side effects requested
/// through the context are applied by the world *after* the callback
/// returns, so callbacks never observe a half-updated world.
///
/// State that must survive migration or deactivation is captured by
/// [`Agent::snapshot`] and restored by the factory registered in
/// [`AgentRegistry`].
pub trait Agent: Send {
    /// Stable type tag used to find the rehydration factory after
    /// migration. Conventionally a short kebab-case name like `"mba"`.
    fn agent_type(&self) -> &'static str;

    /// Serialize migratable state. Called on dispatch and deactivation.
    ///
    /// The default is suitable only for stateless agents.
    fn snapshot(&self) -> serde_json::Value {
        serde_json::Value::Null
    }

    /// Called once, on the host where the agent was created.
    fn on_creation(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called just before the agent's state is serialized for migration.
    fn on_dispatch(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called after the agent has been rehydrated on the destination host.
    fn on_arrival(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called on a fresh clone (the copy, not the original) right after
    /// it is installed.
    fn on_clone(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called when a deactivated agent is loaded back into memory.
    fn on_activation(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called just before the agent is serialized into stable storage.
    fn on_deactivation(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called just before the agent is destroyed.
    fn on_disposal(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called for each delivered message.
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}

    /// Called when a [`Ctx::dispatch_self`] to `dest` fails synchronously
    /// because the destination is unreachable (partitioned or crashed).
    /// The agent stays active on its current host and may pick an
    /// alternative destination. Default: no-op.
    fn on_dispatch_failed(&mut self, _ctx: &mut Ctx<'_>, _dest: HostId) {}

    /// How a durable host journals this agent: whole capsules at every
    /// callback boundary (the default — right for small protocol agents
    /// like the BRA), or incremental deltas the agent logs itself via
    /// [`Ctx::journal_delta`] / [`Ctx::journal_forced_delta`] (right for
    /// agents carrying large state that changes a little per callback,
    /// like the PA's learned profiles or the marketplace's listings and
    /// ledger). Either way the agent's first capsule on a durable host —
    /// at creation or arrival — is forced to stable storage, so a crash
    /// can never lose an agent the host has already run.
    fn durable_policy(&self) -> DurablePolicy {
        DurablePolicy::Capsule
    }

    /// Called once after the agent has been restored by a crash-recovery
    /// pass, with every [`Ctx::journal_delta`] payload logged since the
    /// capsule in the recovered state was taken (empty for capsule-policy
    /// agents). The agent re-applies its deltas and re-drives any
    /// in-flight protocol: re-send unanswered requests, re-arm watchdog
    /// timers. Default: no-op.
    fn on_recovered(&mut self, _ctx: &mut Ctx<'_>, _deltas: &[serde_json::Value]) {}

    /// Called when the supervisor moves the agent's home to `new_home`
    /// during an automatic host failover — either because the agent itself
    /// was restored onto the standby, or because it was roaming when its
    /// home host died and its lease-stamped ownership was re-bound. Agents
    /// that cache their home host (e.g. a mobile agent planning its return
    /// trip) update it here. Default: no-op.
    fn on_rehomed(&mut self, _ctx: &mut Ctx<'_>, _new_home: HostId) {}
}

/// Journaling strategy of an agent on a durable host (see
/// [`Agent::durable_policy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurablePolicy {
    /// The world write-ahead-logs the agent's whole capsule at every
    /// callback boundary.
    Capsule,
    /// The agent journals incremental deltas itself via
    /// [`Ctx::journal_delta`] or [`Ctx::journal_forced_delta`]; the world
    /// only captures its capsule when it lands on a host and at the
    /// checkpoints where the deltas logged since outweigh that capsule,
    /// and recovery replays the deltas logged since. The deltas must
    /// record every state change, so that capsule plus deltas equals the
    /// live agent.
    Deltas,
}

/// A fault-handling statistic bumped by an application agent via
/// [`Ctx::count_retry`] / [`Ctx::count_degraded_reply`] and accumulated
/// into [`crate::metrics::Metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCounter {
    /// A retry attempt (re-dispatch, watchdog re-arm, backoff round).
    Retry,
    /// A degraded (partial or fallback) reply served to a consumer.
    DegradedReply,
    /// A request shed by admission control before any work was done.
    Shed,
    /// A dispatch suppressed by an open circuit breaker.
    BreakerRejection,
    /// An in-doubt purchase intent resolved by querying the marketplace
    /// ledger after a crash or loss.
    LedgerResolution,
}

/// Deferred side effect requested by an agent callback.
#[derive(Debug)]
#[allow(missing_docs)] // variant fields are self-describing; variants are documented
pub enum Action {
    /// Send `msg` to agent `to` (possibly on another host).
    Send { to: AgentId, msg: Message },
    /// Create a new agent on the local host with pre-allocated id.
    Create { id: AgentId, agent: Box<dyn Agent> },
    /// Create an agent on the local host by rehydrating `state` through
    /// the world's registry under `agent_type` (mobile-code style).
    CreateOfType {
        id: AgentId,
        agent_type: InternedStr,
        state: Payload,
    },
    /// Migrate the calling agent to `dest`.
    DispatchSelf { dest: HostId },
    /// Clone the calling agent on the local host under a fresh id
    /// (Aglets `clone()`; the copy gets `on_clone`).
    CloneSelf { id: AgentId },
    /// Forcibly recall agent `id` (wherever it is) to host `to`
    /// (Aglets `retract()`).
    Retract { id: AgentId, to: HostId },
    /// Serialize agent `id` (same host) into stable storage
    /// (`Aglet.deactivate()` in the paper).
    Deactivate { id: AgentId },
    /// Load agent `id` back from stable storage (`Aglet.activate()`).
    Activate { id: AgentId },
    /// Destroy agent `id` (same host).
    Dispose { id: AgentId },
    /// Deliver `on_timer(tag)` to the calling agent after `delay`.
    SetTimer {
        id: AgentId,
        delay: SimDuration,
        tag: u64,
    },
    /// Replace the running handler's ambient request deadline; subsequent
    /// sends, migrations and timers in the same action list carry it.
    SetDeadline { deadline: Option<SimTime> },
    /// Append a labelled event to the world trace.
    Note { label: String },
    /// Bump a fault-handling counter in the world metrics.
    CountFault { counter: FaultCounter },
    /// Record `value` into the telemetry histogram `name`.
    Observe { name: InternedStr, value: u64 },
    /// Add `by` to the telemetry counter `name`.
    IncCounter { name: InternedStr, by: u64 },
    /// Write-ahead-log a purchase intent on the local host's durable
    /// store before the purchase is attempted (forced to stable storage).
    JournalIntent {
        intent: String,
        detail: serde_json::Value,
    },
    /// Log that the purchase identified by `intent` definitely happened.
    JournalCommit {
        intent: String,
        detail: serde_json::Value,
    },
    /// Log that the purchase identified by `intent` was abandoned.
    JournalAbort { intent: String, reason: String },
    /// Log an incremental state delta for the calling agent (delta-policy
    /// durability; replayed through `on_recovered` after a crash).
    /// `forced` deltas are synced at append, like purchase records.
    JournalDelta {
        id: AgentId,
        delta: serde_json::Value,
        forced: bool,
    },
    /// Append `payload` to the calling agent's outbox (see [`Ctx::emit`]).
    Emit { payload: Payload },
}

impl fmt::Debug for Box<dyn Agent> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Box<dyn Agent type={}>", self.agent_type())
    }
}

/// Execution context passed to every agent callback.
///
/// All world mutations requested through the context are queued as
/// [`Action`]s and applied after the callback returns.
pub struct Ctx<'a> {
    self_id: AgentId,
    host: HostId,
    now: SimTime,
    rng: &'a mut StdRng,
    actions: &'a mut Vec<Action>,
    next_agent_id: &'a mut u64,
    trace: Option<TraceCtx>,
    deadline: Option<SimTime>,
    durable: bool,
}

impl<'a> Ctx<'a> {
    /// Internal constructor used by world runtimes.
    #[doc(hidden)]
    pub fn new(
        self_id: AgentId,
        host: HostId,
        now: SimTime,
        rng: &'a mut StdRng,
        actions: &'a mut Vec<Action>,
        next_agent_id: &'a mut u64,
    ) -> Self {
        Ctx {
            self_id,
            host,
            now,
            rng,
            actions,
            next_agent_id,
            trace: None,
            deadline: None,
            durable: false,
        }
    }

    /// Mark the callback as running on a durable host. Used by world
    /// runtimes.
    #[doc(hidden)]
    pub fn with_durable(mut self, durable: bool) -> Self {
        self.durable = durable;
        self
    }

    /// Whether the host journals state durably: journaling actions are
    /// no-ops otherwise, so an agent can skip building their records.
    pub fn durable(&self) -> bool {
        self.durable
    }

    /// Attach the telemetry context of the handler span this callback
    /// runs under. Used by world runtimes; `None` when tracing is off.
    #[doc(hidden)]
    pub fn with_trace(mut self, trace: Option<TraceCtx>) -> Self {
        self.trace = trace;
        self
    }

    /// Telemetry context of the running callback, if this request is
    /// being traced. Application agents rarely need this; the world
    /// propagates it automatically.
    pub fn trace(&self) -> Option<TraceCtx> {
        self.trace
    }

    /// Attach the ambient request deadline this callback runs under.
    /// Used by world runtimes; `None` when the request has no deadline.
    #[doc(hidden)]
    pub fn with_deadline(mut self, deadline: Option<SimTime>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Absolute deadline of the request this callback serves, if one was
    /// minted at ingress. Carried automatically on every message,
    /// migration and timer the callback causes.
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// Microseconds of deadline budget left: `None` when no deadline is
    /// set, saturating at zero once it has passed. Retry/backoff logic
    /// clamps its schedule to this.
    pub fn remaining_us(&self) -> Option<u64> {
        crate::overload::remaining_us(self.deadline, self.now)
    }

    /// Mint (or overwrite) the ambient request deadline. Subsequent sends,
    /// migrations and timers requested by this callback carry it; expired
    /// work is dropped by the world with a `deadline_exceeded` span event.
    pub fn set_deadline(&mut self, deadline: SimTime) {
        self.deadline = Some(deadline);
        self.actions.push(Action::SetDeadline {
            deadline: Some(deadline),
        });
    }

    /// Clear the ambient deadline: work requested after this (e.g. the
    /// final reply to the consumer) is never deadline-dropped.
    pub fn clear_deadline(&mut self) {
        self.deadline = None;
        self.actions.push(Action::SetDeadline { deadline: None });
    }

    /// Id of the agent whose callback is running.
    pub fn self_id(&self) -> AgentId {
        self.self_id
    }

    /// Host the agent is currently executing on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deterministic world RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Send `msg` to `to`. The `from` field is stamped with the calling
    /// agent's id; the message id is assigned by the world at send time.
    pub fn send(&mut self, to: AgentId, mut msg: Message) {
        msg.from = Some(self.self_id);
        msg.to = to;
        self.actions.push(Action::Send { to, msg });
    }

    /// Send a reply to `original`, correlating via `in_reply_to`.
    ///
    /// The reply goes to the sender of `original`; if `original` came from
    /// outside the world (no sender) the reply is dropped with a trace note.
    pub fn reply(&mut self, original: &Message, msg: Message) {
        match original.from {
            Some(from) => self.send(from, msg.replying_to(original)),
            None => self.note("reply dropped: original message had no sender"),
        }
    }

    /// Create `agent` on the local host. Returns the new agent's id
    /// immediately; `on_creation` runs after this callback returns.
    pub fn create_agent(&mut self, agent: Box<dyn Agent>) -> AgentId {
        let id = AgentId(*self.next_agent_id);
        *self.next_agent_id += 1;
        self.actions.push(Action::Create { id, agent });
        id
    }

    /// Create an agent on the local host from a type tag and a state
    /// snapshot, resolved through the world's [`AgentRegistry`]. Returns
    /// the new agent's id immediately; if the type is unknown the creation
    /// is dropped with a trace note when the action is applied.
    ///
    /// This is how the paper's Coordinator Agent instantiates a BSMA whose
    /// concrete type it does not link against (Fig 4.1 step 2).
    pub fn create_agent_of_type(
        &mut self,
        agent_type: impl Into<InternedStr>,
        state: impl Into<Payload>,
    ) -> AgentId {
        let id = AgentId(*self.next_agent_id);
        *self.next_agent_id += 1;
        self.actions.push(Action::CreateOfType {
            id,
            agent_type: agent_type.into(),
            state: state.into(),
        });
        id
    }

    /// Migrate the calling agent to `dest`. After the current callback
    /// returns, `on_dispatch` fires, the agent is serialized and travels
    /// over the network; `on_arrival` fires at the destination.
    pub fn dispatch_self(&mut self, dest: HostId) {
        self.actions.push(Action::DispatchSelf { dest });
    }

    /// Clone the calling agent on the local host. The copy is built from
    /// the caller's snapshot through the world registry (so the type must
    /// be registered), gets the returned fresh id, and receives
    /// `on_clone` after installation. Mirrors the aglet `clone()`
    /// operation the platform layer advertises (§3.1 of the paper).
    pub fn clone_self(&mut self) -> AgentId {
        let id = AgentId(*self.next_agent_id);
        *self.next_agent_id += 1;
        self.actions.push(Action::CloneSelf { id });
        id
    }

    /// Forcibly recall agent `id` from wherever it currently is to host
    /// `to` (the aglet `retract()`). No-op with a trace note if the agent
    /// is not active.
    pub fn retract(&mut self, id: AgentId, to: HostId) {
        self.actions.push(Action::Retract { id, to });
    }

    /// Deactivate agent `id` (must be co-located): its state is snapshotted
    /// into the host's stable store and it stops receiving messages until
    /// activated. The paper's BSMA does this to the BRA while its MBA
    /// roams (§4.1 principle 3).
    pub fn deactivate(&mut self, id: AgentId) {
        self.actions.push(Action::Deactivate { id });
    }

    /// Deactivate the calling agent itself.
    pub fn deactivate_self(&mut self) {
        let id = self.self_id;
        self.deactivate(id);
    }

    /// Activate a previously deactivated co-located agent.
    pub fn activate(&mut self, id: AgentId) {
        self.actions.push(Action::Activate { id });
    }

    /// Dispose agent `id` (must be co-located). `on_disposal` fires first.
    pub fn dispose(&mut self, id: AgentId) {
        self.actions.push(Action::Dispose { id });
    }

    /// Dispose the calling agent.
    pub fn dispose_self(&mut self) {
        let id = self.self_id;
        self.dispose(id);
    }

    /// Ask the world to call `on_timer(tag)` on this agent after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.actions.push(Action::SetTimer {
            id: self.self_id,
            delay,
            tag,
        });
    }

    /// Append a labelled event to the world trace. Workflow implementations
    /// use this to emit the paper's numbered figure steps.
    pub fn note(&mut self, label: impl Into<String>) {
        self.actions.push(Action::Note {
            label: label.into(),
        });
    }

    /// Record a retry attempt in [`crate::metrics::Metrics::retries`].
    pub fn count_retry(&mut self) {
        self.actions.push(Action::CountFault {
            counter: FaultCounter::Retry,
        });
    }

    /// Record a degraded reply in
    /// [`crate::metrics::Metrics::degraded_replies`].
    pub fn count_degraded_reply(&mut self) {
        self.actions.push(Action::CountFault {
            counter: FaultCounter::DegradedReply,
        });
    }

    /// Record a shed request in [`crate::metrics::Metrics::requests_shed`].
    pub fn count_shed(&mut self) {
        self.actions.push(Action::CountFault {
            counter: FaultCounter::Shed,
        });
    }

    /// Record a breaker-suppressed dispatch in
    /// [`crate::metrics::Metrics::breaker_rejections`].
    pub fn count_breaker_rejection(&mut self) {
        self.actions.push(Action::CountFault {
            counter: FaultCounter::BreakerRejection,
        });
    }

    /// Record an in-doubt purchase resolved by the marketplace ledger in
    /// [`crate::metrics::Metrics::intents_resolved_by_ledger`].
    pub fn count_ledger_resolution(&mut self) {
        self.actions.push(Action::CountFault {
            counter: FaultCounter::LedgerResolution,
        });
    }

    /// Record `value` into the telemetry histogram `name` (no-op when
    /// telemetry is disabled on the world).
    pub fn observe(&mut self, name: impl Into<InternedStr>, value: u64) {
        self.actions.push(Action::Observe {
            name: name.into(),
            value,
        });
    }

    /// Add `by` to the telemetry counter `name` (no-op when telemetry is
    /// disabled on the world).
    pub fn inc_counter(&mut self, name: impl Into<InternedStr>, by: u64) {
        self.actions.push(Action::IncCounter {
            name: name.into(),
            by,
        });
    }

    /// Write-ahead-log a purchase intent before dispatching the buyer
    /// toward the marketplace. Forced to stable storage immediately
    /// (fsync-on-intent); no-op when the local host is not durable.
    pub fn journal_intent(&mut self, intent: impl Into<String>, detail: serde_json::Value) {
        self.actions.push(Action::JournalIntent {
            intent: intent.into(),
            detail,
        });
    }

    /// Log that the purchase identified by `intent` definitely happened
    /// (the confirm/receipt reached the buyer). No-op on non-durable
    /// hosts.
    pub fn journal_commit(&mut self, intent: impl Into<String>, detail: serde_json::Value) {
        self.actions.push(Action::JournalCommit {
            intent: intent.into(),
            detail,
        });
    }

    /// Log that the purchase identified by `intent` was abandoned and the
    /// marketplace ledger confirms (or the protocol guarantees) it never
    /// happened. No-op on non-durable hosts.
    pub fn journal_abort(&mut self, intent: impl Into<String>, reason: impl Into<String>) {
        self.actions.push(Action::JournalAbort {
            intent: intent.into(),
            reason: reason.into(),
        });
    }

    /// Log an incremental state delta for the calling agent. Only
    /// meaningful for agents whose [`Agent::durable_policy`] is
    /// [`DurablePolicy::Deltas`]; replayed through
    /// [`Agent::on_recovered`] after a crash. No-op on non-durable hosts.
    pub fn journal_delta(&mut self, delta: serde_json::Value) {
        self.actions.push(Action::JournalDelta {
            id: self.self_id,
            delta,
            forced: false,
        });
    }

    /// Log a delta that records an obligation to another party (a sale,
    /// a counter-offer, an accepted bid): like [`Ctx::journal_delta`],
    /// but forced to stable storage at append, so journal it before the
    /// reply it justifies and no crash can roll back what a peer has
    /// seen. No-op on non-durable hosts.
    pub fn journal_forced_delta(&mut self, delta: serde_json::Value) {
        self.actions.push(Action::JournalDelta {
            id: self.self_id,
            delta,
            forced: true,
        });
    }

    /// Hand `payload` to the world outside the agents: it lands in this
    /// agent's outbox, in emit order, until the code running the world
    /// takes it with `take_outbox`. An emit is not a message — no mailbox, link,
    /// latency, chaos or message counter — and the outbox survives host
    /// crashes and failover, since it stands for the far side of a
    /// connection. On a durable host the world forces the host's WAL sync
    /// after the callback's capsule is journalled and before releasing
    /// its emits (output commit), so no crash can roll back the state
    /// that produced an emitted payload.
    pub fn emit(&mut self, payload: impl Into<Payload>) {
        self.actions.push(Action::Emit {
            payload: payload.into(),
        });
    }
}

/// Serialized form of an agent in transit or in stable storage.
///
/// Mirrors an aglet on the wire: identity, a code tag (`agent_type`) and
/// the state snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgentCapsule {
    /// The travelling agent's id (stable across migration).
    pub id: AgentId,
    /// Type tag resolved against the [`AgentRegistry`] on arrival.
    /// Interned: every capsule of a type shares one allocation.
    pub agent_type: InternedStr,
    /// Snapshotted state (shared, encode-once).
    pub state: Payload,
    /// Host the agent considers home (where it was created).
    pub home: HostId,
    /// Travel permit issued by the home host when the agent first left.
    /// Demanded (and burned) when the agent arrives back home.
    pub permit: Option<TravelPermit>,
    /// Telemetry context of the migration hop carrying this capsule.
    /// `None` when tracing is off; stamped by the world at dispatch.
    #[serde(default)]
    pub trace: Option<TraceCtx>,
    /// Absolute deadline of the request this migration serves, if any.
    /// Stamped by the world at dispatch from the ambient deadline; an
    /// expired capsule is cancelled at arrival. Excluded from
    /// [`AgentCapsule::wire_size`] (a few header bytes at most).
    #[serde(default)]
    pub deadline: Option<SimTime>,
}

impl AgentCapsule {
    /// Capture `agent` into a capsule: its type tag is interned and its
    /// snapshot wrapped into a shared [`Payload`]. Used by both runtimes
    /// for dispatch, clone and deactivation.
    pub fn capture(
        id: AgentId,
        agent: &dyn Agent,
        home: HostId,
        permit: Option<TravelPermit>,
    ) -> Self {
        AgentCapsule {
            id,
            agent_type: InternedStr::new(agent.agent_type()),
            state: Payload::from(agent.snapshot()),
            home,
            permit,
            trace: None,
            deadline: None,
        }
    }

    /// Approximate on-the-wire size in bytes (drives transfer time in the
    /// network model). The state's encoded length is computed once per
    /// capsule and cached — repeated calls (transfer, storage accounting,
    /// restore) do not re-serialize.
    pub fn wire_size(&self) -> usize {
        64 + self.agent_type.len() + self.state.encoded_len()
    }

    /// The capsule as the JSON value `serde_json::to_value` gives, with
    /// the state tree moved in rather than copied when this capsule
    /// holds its only handle.
    pub fn into_value(mut self) -> serde_json::Value {
        let state = std::mem::take(&mut self.state).into_value();
        let mut value = serde_json::to_value(&self).unwrap_or(serde_json::Value::Null);
        if let serde_json::Value::Object(fields) = &mut value {
            fields.insert("state".to_string(), state);
        }
        value
    }

    /// Detach the telemetry context, returning it.
    ///
    /// Span ids are scoped to one shard's `Telemetry` store; a capsule
    /// crossing a shard boundary has its migration hop ended on the origin
    /// shard and travels without a trace (see
    /// [`crate::message::Message::strip_trace`]).
    pub fn strip_trace(&mut self) -> Option<TraceCtx> {
        self.trace.take()
    }
}

/// Factory function rehydrating an agent from a reference to its
/// snapshotted state (no clone of the state tree).
pub type AgentFactory = Box<dyn Fn(&Payload) -> Result<Box<dyn Agent>> + Send + Sync>;

/// Registry of agent factories, shared by all hosts of a world.
///
/// Registering a type makes hosts able to rehydrate capsules of that type,
/// which models "the code is available at the destination". Dispatching an
/// agent whose type is not registered fails with
/// [`PlatformError::UnknownAgentType`] at arrival.
#[derive(Default)]
pub struct AgentRegistry {
    factories: HashMap<String, AgentFactory>,
}

impl AgentRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a factory for `agent_type`, replacing any previous one.
    pub fn register<F>(&mut self, agent_type: &str, factory: F)
    where
        F: Fn(&Payload) -> Result<Box<dyn Agent>> + Send + Sync + 'static,
    {
        self.factories
            .insert(agent_type.to_string(), Box::new(factory));
    }

    /// Convenience: register a factory for a serde-deserializable agent.
    pub fn register_serde<A>(&mut self, agent_type: &str)
    where
        A: Agent + serde::de::DeserializeOwned + 'static,
    {
        self.register(agent_type, |state| {
            let agent: A = state
                .typed()
                .map_err(|e| PlatformError::RestoreFailed(e.to_string()))?;
            Ok(Box::new(agent) as Box<dyn Agent>)
        });
    }

    /// Rehydrate `capsule` into a live agent. The capsule's state is handed
    /// to the factory by reference — restoring does not copy it.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownAgentType`] if no factory is registered;
    /// [`PlatformError::RestoreFailed`] if the snapshot does not parse.
    pub fn rehydrate(&self, capsule: &AgentCapsule) -> Result<Box<dyn Agent>> {
        let factory = self
            .factories
            .get(capsule.agent_type.as_str())
            .ok_or_else(|| PlatformError::UnknownAgentType(capsule.agent_type.to_string()))?;
        factory(&capsule.state)
    }

    /// Whether a factory exists for `agent_type`.
    pub fn knows(&self, agent_type: &str) -> bool {
        self.factories.contains_key(agent_type)
    }
}

impl fmt::Debug for AgentRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut types: Vec<&str> = self.factories.keys().map(|s| s.as_str()).collect();
        types.sort_unstable();
        f.debug_struct("AgentRegistry")
            .field("types", &types)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::panic)]

    use super::*;
    use rand::SeedableRng;

    #[derive(Debug, Serialize, Deserialize)]
    struct Counter {
        count: u32,
    }

    impl Agent for Counter {
        fn agent_type(&self) -> &'static str {
            "counter"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {
            self.count += 1;
        }
    }

    fn test_ctx_parts() -> (StdRng, Vec<Action>, u64) {
        (StdRng::seed_from_u64(1), Vec::new(), 100)
    }

    #[test]
    fn ctx_send_stamps_sender_and_destination() {
        let (mut rng, mut actions, mut next) = test_ctx_parts();
        let mut ctx = Ctx::new(
            AgentId(7),
            HostId(1),
            SimTime(5),
            &mut rng,
            &mut actions,
            &mut next,
        );
        ctx.send(AgentId(9), Message::new("hello"));
        match &actions[0] {
            Action::Send { to, msg } => {
                assert_eq!(*to, AgentId(9));
                assert_eq!(msg.from, Some(AgentId(7)));
                assert_eq!(msg.to, AgentId(9));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn ctx_create_agent_allocates_fresh_ids() {
        let (mut rng, mut actions, mut next) = test_ctx_parts();
        let mut ctx = Ctx::new(
            AgentId(1),
            HostId(1),
            SimTime(0),
            &mut rng,
            &mut actions,
            &mut next,
        );
        let a = ctx.create_agent(Box::new(Counter { count: 0 }));
        let b = ctx.create_agent(Box::new(Counter { count: 0 }));
        assert_eq!(a, AgentId(100));
        assert_eq!(b, AgentId(101));
        assert_eq!(actions.len(), 2);
    }

    #[test]
    fn ctx_reply_routes_to_original_sender() {
        let (mut rng, mut actions, mut next) = test_ctx_parts();
        let mut ctx = Ctx::new(
            AgentId(1),
            HostId(1),
            SimTime(0),
            &mut rng,
            &mut actions,
            &mut next,
        );
        let mut original = Message::new("ask");
        original.id = crate::ids::MessageId(55);
        original.from = Some(AgentId(3));
        ctx.reply(&original, Message::new("answer"));
        match &actions[0] {
            Action::Send { to, msg } => {
                assert_eq!(*to, AgentId(3));
                assert_eq!(msg.in_reply_to, Some(crate::ids::MessageId(55)));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn ctx_reply_to_external_message_becomes_note() {
        let (mut rng, mut actions, mut next) = test_ctx_parts();
        let mut ctx = Ctx::new(
            AgentId(1),
            HostId(1),
            SimTime(0),
            &mut rng,
            &mut actions,
            &mut next,
        );
        let original = Message::new("external");
        ctx.reply(&original, Message::new("answer"));
        assert!(matches!(actions[0], Action::Note { .. }));
    }

    #[test]
    fn registry_rehydrates_serde_agents() {
        let mut reg = AgentRegistry::new();
        reg.register_serde::<Counter>("counter");
        let capsule = AgentCapsule {
            id: AgentId(1),
            agent_type: "counter".into(),
            state: serde_json::json!({"count": 41}).into(),
            home: HostId(0),
            permit: None,
            trace: None,
            deadline: None,
        };
        let agent = reg.rehydrate(&capsule).unwrap();
        assert_eq!(agent.agent_type(), "counter");
        assert_eq!(agent.snapshot(), serde_json::json!({"count": 41}));
    }

    #[test]
    fn registry_rejects_unknown_type() {
        let reg = AgentRegistry::new();
        let capsule = AgentCapsule {
            id: AgentId(1),
            agent_type: "ghost".into(),
            state: Payload::null(),
            home: HostId(0),
            permit: None,
            trace: None,
            deadline: None,
        };
        match reg.rehydrate(&capsule) {
            Err(PlatformError::UnknownAgentType(t)) => assert_eq!(t, "ghost"),
            other => panic!("expected UnknownAgentType, got {other:?}"),
        }
    }

    #[test]
    fn registry_rejects_malformed_state() {
        let mut reg = AgentRegistry::new();
        reg.register_serde::<Counter>("counter");
        let capsule = AgentCapsule {
            id: AgentId(1),
            agent_type: "counter".into(),
            state: serde_json::json!({"not_count": true}).into(),
            home: HostId(0),
            permit: None,
            trace: None,
            deadline: None,
        };
        assert!(matches!(
            reg.rehydrate(&capsule),
            Err(PlatformError::RestoreFailed(_))
        ));
    }

    #[test]
    fn capsule_wire_size_reflects_state_size() {
        let small = AgentCapsule {
            id: AgentId(1),
            agent_type: "a".into(),
            state: serde_json::json!(1).into(),
            home: HostId(0),
            permit: None,
            trace: None,
            deadline: None,
        };
        let big = AgentCapsule {
            id: AgentId(1),
            agent_type: "a".into(),
            state: serde_json::json!(vec![0; 512]).into(),
            home: HostId(0),
            permit: None,
            trace: None,
            deadline: None,
        };
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn capture_interns_type_and_wraps_snapshot() {
        let agent = Counter { count: 12 };
        let capsule = AgentCapsule::capture(AgentId(5), &agent, HostId(2), None);
        assert_eq!(capsule.agent_type, "counter");
        assert_eq!(*capsule.state, serde_json::json!({"count": 12}));
        assert_eq!(capsule.home, HostId(2));
    }

    #[test]
    fn capsule_into_value_matches_to_value_whether_or_not_the_state_is_shared() {
        let agent = Counter { count: 3 };
        let permit = TravelPermit {
            agent: AgentId(4),
            nonce: 9,
            mac: 11,
        };
        let capsule = AgentCapsule::capture(AgentId(4), &agent, HostId(1), Some(permit));
        let expected = serde_json::to_value(&capsule).unwrap();
        let shared = capsule.clone();
        assert_eq!(shared.into_value(), expected);
        assert_eq!(capsule.into_value(), expected);
    }

    #[test]
    fn capsule_wire_size_is_stable_and_matches_encoding() {
        let agent = Counter { count: 7_654_321 };
        let capsule = AgentCapsule::capture(AgentId(1), &agent, HostId(0), None);
        let encoded = serde_json::to_string(capsule.state.value()).unwrap();
        let expected = 64 + capsule.agent_type.len() + encoded.len();
        for _ in 0..3 {
            assert_eq!(capsule.wire_size(), expected);
        }
    }
}
