//! The Buyer Server Management Agent (BSMA).
//!
//! §3.3: *"BSMA is the manager of Buyer Agent Server. BSMA has several
//! abilities: (1) the E-Commerce information providing. (2) user
//! registration and login. (3) the management of agent and mobile
//! agent."*
//!
//! Provisioned by the Coordinator Agent (Fig 4.1): the CA creates the
//! BSMA (step 2), the BSMA dispatches itself to the target host (step 3),
//! then creates the PA (step 4) and HttpA (step 5) and initializes the
//! databases (step 6). At runtime it opens/closes consumer sessions
//! (creating and disposing BRAs, §4.1 principle 1), routes tasks, records
//! dispatched MBAs, deactivates BRAs while their MBA roams and
//! reactivates them on the MBA's authenticated return (§4.1 principles
//! 2–3), and declares overdue MBAs lost.
//!
//! The paper's BSMDB is the BSMA's own typed state: the marketplaces in
//! [`BsmaConfig::markets`], the open sessions and the watch list of
//! roaming MBAs, journalled with the BSMA's capsule.

use crate::admission::AdmissionConfig;
use crate::agents::bra::BuyerRecommendAgent;
use crate::agents::httpa::HttpAgent;
use crate::agents::msg::{
    kinds, ConsumerTask, EcInfo, FrontTask, MarketRef, MarketStatus, MbaLost, MbaRegister,
    MbaReturned, SessionOpen, SessionRequest,
};
use crate::agents::pa::ProfileAgent;
use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::learning::LearnerConfig;
use crate::retry::BackoffPolicy;
use crate::similarity::SimilarityConfig;
use agentsim::agent::{Agent, Ctx};
use agentsim::clock::SimDuration;
use agentsim::ids::{AgentId, HostId};
use agentsim::message::Message;
use ecp::protocol::{kinds as ecpk, ListServers, RegisterServer, ServerList, ServerRole};
use serde::{Deserialize, Serialize};

/// Agent-type tag of [`Bsma`] (referenced by the CA's provisioning).
pub const BSMA_TYPE: &str = "bsma";

/// Static configuration handed to the BSMA at provisioning time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BsmaConfig {
    /// Host that becomes the Buyer Agent Server.
    pub target: HostId,
    /// The Coordinator Agent (0 = none; skip registration).
    pub coordinator: AgentId,
    /// Marketplaces known up front (more may arrive via the CA).
    pub markets: Vec<MarketRef>,
    /// Display name.
    pub name: String,
    /// Profile learner configuration for the PA.
    pub learner: LearnerConfig,
    /// Similarity configuration for the PA.
    pub similarity: SimilarityConfig,
    /// Microseconds before a roaming MBA is presumed lost.
    pub mba_timeout_us: u64,
    /// Hybrid collaborative weight for BRAs.
    pub collaborative_weight: f64,
    /// Extra grace periods the watchdog grants an overdue MBA (each
    /// doubles the wait, capped at 4x) before declaring it lost.
    #[serde(default = "default_watch_retries")]
    pub watch_retries: u32,
    /// Backoff schedule BRAs use to re-dispatch a lost MBA.
    #[serde(default)]
    pub bra_retry: BackoffPolicy,
    /// Ingress admission control for the HttpA; `None` admits everything.
    #[serde(default)]
    pub admission: Option<AdmissionConfig>,
    /// End-to-end deadline the HttpA mints per admitted task (µs);
    /// 0 disables deadline propagation.
    #[serde(default)]
    pub request_deadline_us: u64,
    /// Per-marketplace circuit-breaker tuning; `None` disables breakers.
    #[serde(default)]
    pub breaker: Option<BreakerConfig>,
}

fn default_watch_retries() -> u32 {
    1
}

impl Default for BsmaConfig {
    fn default() -> Self {
        BsmaConfig {
            target: HostId(0),
            coordinator: AgentId(0),
            markets: Vec::new(),
            name: "buyer-agent-server".into(),
            learner: LearnerConfig::default(),
            similarity: SimilarityConfig::default(),
            mba_timeout_us: 600_000_000,
            collaborative_weight: 0.7,
            watch_retries: default_watch_retries(),
            bra_retry: BackoffPolicy::default(),
            admission: None,
            request_deadline_us: 0,
            breaker: None,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct WatchEntry {
    register: MbaRegister,
    /// Watchdog firings survived so far (re-arm bookkeeping).
    #[serde(default)]
    checks: u32,
}

/// The Buyer Server Management Agent.
#[derive(Debug, Serialize, Deserialize)]
pub struct Bsma {
    /// Provisioning configuration.
    pub config: BsmaConfig,
    #[serde(default)]
    pa: Option<AgentId>,
    #[serde(default)]
    httpa: Option<AgentId>,
    #[serde(default)]
    sessions: Vec<(u64, AgentId)>,
    #[serde(default)]
    mba_watch: Vec<WatchEntry>,
    #[serde(default)]
    ready: bool,
    /// Per-marketplace circuit breakers (a `Vec` of pairs so snapshots
    /// serialize deterministically).
    #[serde(default)]
    breakers: Vec<(AgentId, CircuitBreaker)>,
}

impl Bsma {
    /// BSMA from configuration (used for direct creation; the CA path
    /// builds the same state from the request payload).
    pub fn new(config: BsmaConfig) -> Self {
        Bsma {
            config,
            pa: None,
            httpa: None,
            sessions: Vec::new(),
            mba_watch: Vec::new(),
            ready: false,
            breakers: Vec::new(),
        }
    }

    /// The PA's id once the server is set up.
    pub fn pa(&self) -> Option<AgentId> {
        self.pa
    }

    /// The HttpA's id once the server is set up.
    pub fn httpa(&self) -> Option<AgentId> {
        self.httpa
    }

    /// Whether setup (Fig 4.1 steps 4–6) completed.
    pub fn is_ready(&self) -> bool {
        self.ready
    }

    /// Open sessions as `(consumer, bra)` pairs.
    pub fn sessions(&self) -> &[(u64, AgentId)] {
        &self.sessions
    }

    /// MBAs currently roaming.
    pub fn roaming_mbas(&self) -> usize {
        self.mba_watch.len()
    }

    fn session_of(&self, consumer: u64) -> Option<AgentId> {
        self.sessions
            .iter()
            .find(|(c, _)| *c == consumer)
            .map(|(_, b)| *b)
    }

    fn setup(&mut self, ctx: &mut Ctx<'_>) {
        ctx.note("fig4.1/step4 bsma creates profile agent");
        let pa = ctx.create_agent(Box::new(ProfileAgent::new(
            self.config.learner,
            self.config.similarity,
        )));
        self.pa = Some(pa);
        ctx.note("fig4.1/step5 bsma creates http agent");
        let mut front = HttpAgent::new(ctx.self_id());
        if let Some(admission) = self.config.admission {
            front = front.with_admission(admission);
        }
        if self.config.request_deadline_us > 0 {
            front = front.with_deadline_us(self.config.request_deadline_us);
        }
        let httpa = ctx.create_agent(Box::new(front));
        self.httpa = Some(httpa);
        // BSMDB is this agent's typed state and UserDB the PA's: both
        // start empty with their owners, so the step has nothing to build
        ctx.note("fig4.1/step6 bsma initializes bsmdb and userdb");
        // announce ourselves to the EC domain and discover marketplaces
        if self.config.coordinator != AgentId(0) {
            let register = Message::new(ecpk::REGISTER_SERVER)
                .with_payload(&RegisterServer {
                    role: ServerRole::BuyerServer,
                    host: ctx.host(),
                    agent: ctx.self_id(),
                    name: self.config.name.clone(),
                })
                .expect("register serializes");
            ctx.send(self.config.coordinator, register);
            let list = Message::new(ecpk::LIST_SERVERS)
                .with_payload(&ListServers {
                    role: ServerRole::Marketplace,
                })
                .expect("list serializes");
            ctx.send(self.config.coordinator, list);
        }
        self.ready = true;
    }

    fn handle_login(&mut self, ctx: &mut Ctx<'_>, msg: &Message, req: SessionRequest) {
        let (pa, httpa) = match (self.pa, self.httpa) {
            (Some(pa), Some(httpa)) => (pa, httpa),
            _ => {
                ctx.note("bsma: login before setup completed");
                return;
            }
        };
        let bra = match self.session_of(req.consumer.0) {
            Some(existing) => existing,
            None => {
                let new_bra = BuyerRecommendAgent::new(
                    req.consumer,
                    ctx.self_id(),
                    pa,
                    httpa,
                    self.config.markets.clone(),
                )
                .with_collaborative_weight(self.config.collaborative_weight)
                .with_mba_timeout_us(self.config.mba_timeout_us)
                .with_retry_policy(self.config.bra_retry);
                let bra = ctx.create_agent(Box::new(new_bra));
                ctx.note(format!("bsma: bra {bra} created for {}", req.consumer));
                self.sessions.push((req.consumer.0, bra));
                bra
            }
        };
        let reply = Message::new(kinds::SESSION_OPEN)
            .with_payload(&SessionOpen {
                consumer: req.consumer,
                bra,
            })
            .expect("session serializes");
        ctx.reply(msg, reply);
    }

    fn handle_logout(&mut self, ctx: &mut Ctx<'_>, msg: &Message, req: SessionRequest) {
        if let Some(bra) = self.session_of(req.consumer.0) {
            ctx.dispose(bra);
            self.sessions.retain(|(c, _)| *c != req.consumer.0);
        }
        let reply = Message::new(kinds::SESSION_CLOSED)
            .with_payload(&SessionRequest {
                consumer: req.consumer,
            })
            .expect("session serializes");
        ctx.reply(msg, reply);
    }

    /// The breaker guarding `market`, lazily created on first use.
    /// `None` when breakers are not configured.
    fn breaker_mut(&mut self, market: AgentId) -> Option<&mut CircuitBreaker> {
        let config = self.config.breaker?;
        let pos = match self.breakers.iter().position(|(a, _)| *a == market) {
            Some(pos) => pos,
            None => {
                self.breakers.push((market, CircuitBreaker::new(config)));
                self.breakers.len() - 1
            }
        };
        Some(&mut self.breakers[pos].1)
    }

    /// Marketplaces the task would touch whose breaker refuses dispatch
    /// right now. Empty when breakers are off or all circuits closed.
    fn blocked_markets(&mut self, now_us: u64, task: &ConsumerTask) -> Vec<MarketRef> {
        if self.config.breaker.is_none() {
            return Vec::new();
        }
        let candidates: Vec<MarketRef> = match task {
            ConsumerTask::Query { .. } => self.config.markets.clone(),
            ConsumerTask::Buy { market, .. } | ConsumerTask::Auction { market, .. } => {
                vec![*market]
            }
        };
        candidates
            .into_iter()
            .filter(|m| self.breaker_mut(m.agent).is_some_and(|b| !b.allow(now_us)))
            .collect()
    }

    fn handle_route(&mut self, ctx: &mut Ctx<'_>, msg: &Message, routed: FrontTask) {
        match self.session_of(routed.consumer.0) {
            Some(bra) => {
                let fig = routed.task.figure();
                ctx.note(format!("{fig}/step03 bsma forwards task to bra"));
                let blocked = self.blocked_markets(ctx.now().as_micros(), &routed.task);
                if !blocked.is_empty() {
                    for market in &blocked {
                        ctx.count_breaker_rejection();
                        ctx.note(format!(
                            "bsma: circuit open for marketplace {}; dispatch suppressed",
                            market.agent
                        ));
                    }
                    let annotated = FrontTask {
                        blocked_markets: blocked,
                        ..routed
                    };
                    let task = Message::new(kinds::BRA_TASK)
                        .with_payload(&annotated)
                        .expect("route serializes");
                    ctx.send(bra, task);
                    return;
                }
                // forward the already-encoded payload: no re-serialization,
                // the BRA reads the same FrontTask bytes we received
                let task = Message::new(kinds::BRA_TASK).carrying(msg.payload.clone());
                ctx.send(bra, task);
            }
            None => {
                // hand the refused task back: it names the request to settle
                let reply = Message::new(kinds::NO_SESSION).carrying(msg.payload.clone());
                ctx.reply(msg, reply);
            }
        }
    }

    fn handle_mba_register(&mut self, ctx: &mut Ctx<'_>, register: MbaRegister) {
        if self
            .mba_watch
            .iter()
            .any(|w| w.register.mba == register.mba)
        {
            // duplicated registration (chaos can replay messages): the
            // watchdog is already armed, a second deactivate/timer would
            // double-count
            ctx.note(format!("bsma: mba {} already registered", register.mba));
            return;
        }
        let fig = &register.figure;
        let step = if fig == "fig4.2" { "step09" } else { "step08" };
        ctx.note(format!(
            "{fig}/{step} bsma records mba in bsmdb and deactivates bra"
        ));
        // §4.1 principle 3: Aglet.deactivate() on the BRA while the MBA
        // roams
        ctx.deactivate(register.bra);
        // Under a request deadline the watchdog must not outlive the
        // reply budget: clamp the wait so loss is declared in time for
        // the BRA to still degrade before the HttpA gives up.
        let mut timeout_us = register.timeout_us;
        if let Some(rem) = ctx.remaining_us() {
            timeout_us = timeout_us.min(rem.max(1));
        }
        ctx.set_timer(SimDuration::from_micros(timeout_us), register.mba.0);
        self.mba_watch.push(WatchEntry {
            register,
            checks: 0,
        });
    }

    fn handle_mba_returned(&mut self, ctx: &mut Ctx<'_>, returned: MbaReturned) {
        // Feed the per-marketplace breakers with the trip's outcomes
        // before the registry lookup: a trip that failed so fast its
        // return notice beat the BRA's register message is still valid
        // health signal.
        let now_us = ctx.now().as_micros();
        for report in &returned.reports {
            if let Some(breaker) = self.breaker_mut(report.market.agent) {
                match report.status {
                    MarketStatus::Visited => breaker.record_success(now_us),
                    MarketStatus::Unreachable | MarketStatus::NoReply => {
                        breaker.record_failure(now_us);
                    }
                }
            }
        }
        let Some(pos) = self
            .mba_watch
            .iter()
            .position(|w| w.register.mba == returned.mba)
        else {
            ctx.note(format!(
                "bsma: unknown mba {} reported return",
                returned.mba
            ));
            return;
        };
        let entry = self.mba_watch.remove(pos);
        let fig = &entry.register.figure;
        let step = if fig == "fig4.2" { "step13" } else { "step12" };
        ctx.note(format!(
            "{fig}/{step} bsma activates bra after mba authentication"
        ));
        // §4.1 principle 3: Aglet.activate() loads the BRA back to memory;
        // the held MBA_RESULT is replayed to it by the platform.
        ctx.activate(entry.register.bra);
    }
}

impl Agent for Bsma {
    fn agent_type(&self) -> &'static str {
        BSMA_TYPE
    }

    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("bsma state serializes")
    }

    fn on_creation(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.host() == self.config.target || self.config.target == HostId(0) {
            // created in place (no dispatch hop needed)
            self.config.target = ctx.host();
            self.setup(ctx);
        } else {
            ctx.note("fig4.1/step3 bsma dispatched to buyer agent server host");
            ctx.dispatch_self(self.config.target);
        }
    }

    fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.host() == self.config.target && !self.ready {
            self.setup(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match msg.kind.as_str() {
            kinds::LOGIN => {
                if let Ok(req) = msg.payload_as::<SessionRequest>() {
                    self.handle_login(ctx, &msg, req);
                }
            }
            kinds::LOGOUT => {
                if let Ok(req) = msg.payload_as::<SessionRequest>() {
                    self.handle_logout(ctx, &msg, req);
                }
            }
            kinds::ROUTE_TASK => {
                if let Ok(routed) = msg.payload_as::<FrontTask>() {
                    self.handle_route(ctx, &msg, routed);
                }
            }
            kinds::MBA_REGISTER => {
                if let Ok(register) = msg.payload_as::<MbaRegister>() {
                    self.handle_mba_register(ctx, register);
                }
            }
            kinds::MBA_RETURNED => {
                if let Ok(returned) = msg.payload_as::<MbaReturned>() {
                    self.handle_mba_returned(ctx, returned);
                }
            }
            kinds::EC_INFO => {
                // §3.3 BSMA ability 1: provide the EC information the
                // mechanism holds
                let info = EcInfo {
                    marketplaces: self.config.markets.clone(),
                    online_consumers: self.sessions.len() as u32,
                    roaming_mbas: self.mba_watch.len() as u32,
                };
                let reply = Message::new(kinds::EC_INFO_REPLY)
                    .with_payload(&info)
                    .expect("ec info serializes");
                ctx.reply(&msg, reply);
            }
            ecpk::SERVER_LIST => {
                if let Ok(list) = msg.payload_as::<ServerList>() {
                    for server in list.servers {
                        if server.role == ServerRole::Marketplace {
                            let market = MarketRef {
                                host: server.host,
                                agent: server.agent,
                            };
                            if !self.config.markets.contains(&market) {
                                self.config.markets.push(market);
                            }
                        }
                    }
                }
            }
            ecpk::REGISTER_ACK => {}
            other => {
                ctx.note(format!("bsma: unhandled kind {other}"));
            }
        }
    }

    fn on_recovered(&mut self, ctx: &mut Ctx<'_>, _deltas: &[serde_json::Value]) {
        // The host crashed and came back: every armed watchdog timer died
        // with it. Without a re-arm a roaming MBA that never returns would
        // leave its BRA deactivated forever. Grant each watched MBA a
        // fresh full timeout from now.
        for entry in &self.mba_watch {
            ctx.note(format!(
                "bsma: recovered, re-arming watchdog for roaming mba {}",
                entry.register.mba
            ));
            ctx.set_timer(
                SimDuration::from_micros(entry.register.timeout_us),
                entry.register.mba.0,
            );
        }
    }

    fn on_rehomed(&mut self, ctx: &mut Ctx<'_>, new_home: HostId) {
        // The buyer server host is gone; the supervisor restored us on a
        // standby. Future child placements and MBA returns target it.
        self.config.target = new_home;
        ctx.note(format!("bsma: rehomed to failover host {new_home}"));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        // MBA loss watchdog: if the MBA is still registered when its
        // timer fires, it is presumed lost.
        let Some(pos) = self.mba_watch.iter().position(|w| w.register.mba.0 == tag) else {
            return; // returned in time
        };
        // With the request deadline already spent there is no point in
        // another grace period: declare the loss now so the BRA can still
        // answer (degraded) before the front watchdog gives up.
        let deadline_spent = ctx.remaining_us() == Some(0);
        if self.mba_watch[pos].checks < self.config.watch_retries && !deadline_spent {
            // grant a grace period: re-arm with a doubled (capped) wait
            // instead of writing the MBA off at the first deadline
            let entry = &mut self.mba_watch[pos];
            entry.checks += 1;
            let factor = 1u64 << entry.checks.min(2);
            let delay = entry.register.timeout_us.saturating_mul(factor);
            ctx.note(format!(
                "bsma: mba {} overdue, granting {delay}us grace (check {})",
                entry.register.mba, entry.checks
            ));
            ctx.count_retry();
            ctx.set_timer(SimDuration::from_micros(delay), tag);
            return;
        }
        let entry = self.mba_watch.remove(pos);
        // The loss notice IS the recovery path: it must reach the BRA
        // even though the request deadline may already be spent, so send
        // it deadline-free and hand the budget over inside the payload.
        let deadline_us = ctx.deadline().map(|d| d.as_micros());
        if ctx.deadline().is_some() {
            ctx.clear_deadline();
        }
        ctx.note(format!(
            "bsma: mba {} overdue; reactivating bra and reporting loss",
            entry.register.mba
        ));
        ctx.activate(entry.register.bra);
        let lost = Message::new(kinds::MBA_LOST)
            .with_payload(&MbaLost {
                mba: entry.register.mba,
                deadline_us,
            })
            .expect("lost serializes");
        ctx.send(entry.register.bra, lost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsma_config_defaults_are_sane() {
        let c = BsmaConfig::default();
        assert_eq!(c.coordinator, AgentId(0));
        assert!(c.markets.is_empty());
        assert!(c.mba_timeout_us > 0);
    }

    #[test]
    fn bsma_state_deserializes_from_bare_config() {
        // the Coordinator provisions a BSMA from just {"config": ...};
        // runtime fields default
        let config = BsmaConfig {
            name: "b1".into(),
            ..BsmaConfig::default()
        };
        let state = serde_json::json!({ "config": config });
        let bsma: Bsma = serde_json::from_value(state).unwrap();
        assert_eq!(bsma.config.name, "b1");
        assert!(!bsma.is_ready());
        assert_eq!(bsma.sessions().len(), 0);
    }

    #[test]
    fn bsma_snapshot_round_trips() {
        let bsma = Bsma::new(BsmaConfig::default());
        let back: Bsma = serde_json::from_value(bsma.snapshot()).unwrap();
        assert_eq!(back.config.name, bsma.config.name);
    }

    #[test]
    fn bsma_state_still_carrying_a_bsmdb_field_restores() {
        let bsma = Bsma::new(BsmaConfig::default());
        let state = bsma.snapshot().to_string();
        // the shape a BSMA state had while it kept a table store (with
        // the store's embedded log, from before that was dropped too)
        let legacy = state.replacen(
            r#""breakers":"#,
            r#""bsmdb":{"name":"bsmdb","tables":{"sessions":{"rows":{"7":3},"indexes":{}}},"wal":{"records":[{"CreateTable":{"table":"sessions"}}]}},"breakers":"#,
            1,
        );
        assert_ne!(legacy, state);
        let back: Bsma = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.snapshot(), bsma.snapshot());
    }

    /// Forwards an instruction and records the reply.
    #[derive(Debug, Default, serde::Serialize, serde::Deserialize)]
    struct Sink {
        replies: Vec<(String, serde_json::Value)>,
    }

    impl Agent for Sink {
        fn agent_type(&self) -> &'static str {
            "sink"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if let Some(target) = msg.payload.get("__send_to") {
                let to = AgentId(target.as_u64().unwrap());
                let inner = Message::new(msg.payload["kind"].as_str().unwrap())
                    .carrying(msg.payload.project("payload"));
                ctx.send(to, inner);
                return;
            }
            self.replies
                .push((msg.kind.to_string(), msg.payload.to_value()));
        }
    }

    #[test]
    fn ec_info_reports_domain_knowledge() {
        use agentsim::sim::SimWorld;
        let mut world = SimWorld::new(3);
        crate::agents::register_all(world.registry_mut());
        world.registry_mut().register_serde::<Sink>("sink");
        let host = world.add_host("buyer-server");
        let bsma = world
            .create_agent(
                host,
                Box::new(Bsma::new(BsmaConfig {
                    target: host,
                    markets: vec![MarketRef {
                        host: HostId(9),
                        agent: AgentId(100),
                    }],
                    ..BsmaConfig::default()
                })),
            )
            .unwrap();
        let sink = world.create_agent(host, Box::new(Sink::default())).unwrap();
        let mut msg = Message::new("instr");
        msg.payload = serde_json::json!({
            "__send_to": bsma.0,
            "kind": kinds::EC_INFO,
            "payload": null,
        })
        .into();
        world.send_external(sink, msg).unwrap();
        world.run_until_idle();
        let state: Sink = serde_json::from_value(world.snapshot_of(sink).unwrap()).unwrap();
        assert_eq!(state.replies.len(), 1);
        assert_eq!(state.replies[0].0, kinds::EC_INFO_REPLY);
        let info: EcInfo = serde_json::from_value(state.replies[0].1.clone()).unwrap();
        assert_eq!(info.marketplaces.len(), 1);
        assert_eq!(info.online_consumers, 0);
        assert_eq!(info.roaming_mbas, 0);
    }
}
