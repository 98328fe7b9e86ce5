//! The Http Agent (HttpA).
//!
//! §3.3: *"HttpA provides the Web interface, let users can use the
//! browser to use all service of Buyer Agent Server. HttpA can translate
//! the aglet message between Web interface and agent or mobile agent."*
//!
//! The "browser" is modelled as external messages injected with
//! [`agentsim::sim::SimWorld::send_external`]. Each reply goes back
//! through [`Ctx::emit`]: stamped with the next sequence number, it lands
//! in the HttpA's outbox, where the driving harness takes it — the same
//! request/translate/respond path a servlet front would take. The HttpA
//! keeps no reply history; its state holds only counters and the
//! requests still in flight.

use crate::admission::{AdmissionConfig, AdmissionGate, AdmissionVerdict, Priority};
use crate::agents::msg::{
    kinds, BraResponse, ConsumerTask, FrontRequest, FrontRequestBody, FrontResponse, FrontTask,
    ResponseBody, SessionOpen, SessionRequest,
};
use crate::profile::ConsumerId;
use agentsim::agent::{Agent, Ctx};
use agentsim::clock::SimDuration;
use agentsim::ids::AgentId;
use agentsim::message::Message;
use agentsim::payload::Payload;
use serde::{Deserialize, Serialize};

/// Agent-type tag of [`HttpAgent`].
pub const HTTPA_TYPE: &str = "httpa";

/// A task admitted under a deadline and not yet answered.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct InFlight {
    /// The HttpA's id for the request (its `requests_seen` at arrival).
    request: u64,
    consumer: ConsumerId,
    started_us: u64,
}

/// The Http front agent.
#[derive(Debug, Serialize, Deserialize)]
pub struct HttpAgent {
    bsma: AgentId,
    requests_seen: u32,
    /// Replies emitted so far, which is the next reply's `seq`.
    #[serde(default)]
    replies_sent: u64,
    /// Ingress admission gate; `None` (the default) admits everything.
    #[serde(default)]
    admission: Option<AdmissionGate>,
    /// End-to-end deadline minted for each admitted task (µs); 0 disables
    /// deadline propagation.
    #[serde(default)]
    deadline_us: u64,
    /// Tasks admitted under a deadline but not yet answered. A watchdog
    /// timer per entry, tagged with its request id, guarantees the
    /// browser always hears back, even if the request is dropped
    /// mid-pipeline.
    #[serde(default)]
    inflight: Vec<InFlight>,
}

impl HttpAgent {
    /// Front agent wired to its BSMA.
    pub fn new(bsma: AgentId) -> Self {
        HttpAgent {
            bsma,
            requests_seen: 0,
            replies_sent: 0,
            admission: None,
            deadline_us: 0,
            inflight: Vec::new(),
        }
    }

    /// Enable admission control at the ingress.
    pub fn with_admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(AdmissionGate::new(config));
        self
    }

    /// Mint an end-to-end deadline of `deadline_us` for each admitted
    /// task (0 keeps deadlines off).
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = deadline_us;
        self
    }

    /// Number of front requests processed.
    pub fn requests_seen(&self) -> u32 {
        self.requests_seen
    }

    /// Priority class of a front request: transactions are shed last,
    /// session management first.
    fn class_of(body: &FrontRequestBody) -> Priority {
        match body {
            FrontRequestBody::Task(ConsumerTask::Buy { .. })
            | FrontRequestBody::Task(ConsumerTask::Auction { .. }) => Priority::Transaction,
            FrontRequestBody::Task(ConsumerTask::Query { .. }) => Priority::Query,
            FrontRequestBody::Login | FrontRequestBody::Logout => Priority::Background,
        }
    }

    /// How long after admission a task's deadline watchdog fires: the
    /// deadline plus slack, so the browser always hears back even if the
    /// request dies mid-pipeline.
    fn watchdog_us(&self) -> u64 {
        self.deadline_us + self.deadline_us / 2
    }

    /// Take `request` out of the inflight set, if it is there.
    fn settle(&mut self, request: u64) -> Option<InFlight> {
        let pos = self.inflight.iter().position(|f| f.request == request)?;
        Some(self.inflight.remove(pos))
    }

    /// Emit the next reply to the browser.
    fn reply(&mut self, ctx: &mut Ctx<'_>, consumer: ConsumerId, body: ResponseBody) {
        let response = FrontResponse {
            seq: self.replies_sent,
            consumer,
            body,
        };
        self.replies_sent += 1;
        ctx.emit(Payload::encode(&response).expect("reply serializes"));
    }

    /// Answer task `request` with `body`, unless its deadline watchdog
    /// already did: under deadlines every task of ours is in flight until
    /// its first answer, and a later one would be a second reply.
    fn answer(
        &mut self,
        ctx: &mut Ctx<'_>,
        request: u64,
        consumer: ConsumerId,
        body: ResponseBody,
    ) {
        match self.settle(request) {
            Some(f) => ctx.observe(
                "e2e.latency_us",
                ctx.now().as_micros().saturating_sub(f.started_us),
            ),
            None if self.deadline_us > 0 && request != 0 => {
                ctx.note(format!(
                    "httpa: late reply to consumer {} dropped: the deadline already answered it",
                    consumer.0
                ));
                return;
            }
            None => {}
        }
        self.reply(ctx, consumer, body);
    }
}

impl Agent for HttpAgent {
    fn agent_type(&self) -> &'static str {
        HTTPA_TYPE
    }

    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("httpa state serializes")
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match msg.kind.as_str() {
            kinds::FRONT_REQUEST => {
                let Ok(req) = msg.payload_as::<FrontRequest>() else {
                    ctx.note("httpa: malformed front request");
                    return;
                };
                self.requests_seen += 1;
                let request = u64::from(self.requests_seen);
                if let Some(gate) = &mut self.admission {
                    let class = Self::class_of(&req.body);
                    let verdict = gate.try_admit(ctx.now().as_micros(), class);
                    if let AdmissionVerdict::Shed { retry_after_us } = verdict {
                        ctx.count_shed();
                        ctx.note(format!(
                            "httpa: shed {class:?} request from consumer {} (retry in {retry_after_us} us)",
                            req.consumer.0
                        ));
                        self.reply(
                            ctx,
                            req.consumer,
                            ResponseBody::Overloaded { retry_after_us },
                        );
                        return;
                    }
                }
                match req.body {
                    FrontRequestBody::Login => {
                        let login = Message::new(kinds::LOGIN)
                            .with_payload(&SessionRequest {
                                consumer: req.consumer,
                            })
                            .expect("login serializes");
                        ctx.send(self.bsma, login);
                    }
                    FrontRequestBody::Logout => {
                        let logout = Message::new(kinds::LOGOUT)
                            .with_payload(&SessionRequest {
                                consumer: req.consumer,
                            })
                            .expect("logout serializes");
                        ctx.send(self.bsma, logout);
                    }
                    FrontRequestBody::Task(task) => {
                        let fig = task.figure();
                        ctx.note(format!("{fig}/step01 buyer request received by httpa"));
                        ctx.note(format!("{fig}/step02 httpa forwards to bsma"));
                        if self.deadline_us > 0 {
                            // Stamp the deadline before the send so every
                            // downstream hop carries it, and arm the
                            // watchdog.
                            ctx.set_deadline(
                                ctx.now() + SimDuration::from_micros(self.deadline_us),
                            );
                            self.inflight.push(InFlight {
                                request,
                                consumer: req.consumer,
                                started_us: ctx.now().as_micros(),
                            });
                            ctx.set_timer(SimDuration::from_micros(self.watchdog_us()), request);
                        }
                        let route = Message::new(kinds::ROUTE_TASK)
                            .with_payload(&FrontTask {
                                consumer: req.consumer,
                                task,
                                blocked_markets: Vec::new(),
                                request,
                            })
                            .expect("route serializes");
                        ctx.send(self.bsma, route);
                    }
                }
            }
            kinds::SESSION_OPEN => {
                if let Ok(open) = msg.payload_as::<SessionOpen>() {
                    self.reply(ctx, open.consumer, ResponseBody::LoggedIn);
                }
            }
            kinds::SESSION_CLOSED => {
                if let Ok(req) = msg.payload_as::<SessionRequest>() {
                    self.reply(ctx, req.consumer, ResponseBody::LoggedOut);
                }
            }
            kinds::NO_SESSION => {
                if let Ok(task) = msg.payload_as::<FrontTask>() {
                    self.answer(
                        ctx,
                        task.request,
                        task.consumer,
                        ResponseBody::Error("not logged in".into()),
                    );
                }
            }
            kinds::BRA_RESPONSE => {
                if let Ok(resp) = msg.payload_as::<BraResponse>() {
                    self.answer(ctx, resp.request, resp.consumer, resp.body);
                }
            }
            other => {
                ctx.note(format!("httpa: unhandled kind {other}"));
            }
        }
    }

    fn on_recovered(&mut self, ctx: &mut Ctx<'_>, _deltas: &[serde_json::Value]) {
        // The host crashed and came back: the deadline watchdogs died with
        // it. Re-arm each in-flight request's for the instant it was due.
        for f in &self.inflight {
            let due = f.started_us + self.watchdog_us();
            ctx.set_timer(
                SimDuration::from_micros(due.saturating_sub(ctx.now().as_micros())),
                f.request,
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        // Deadline watchdog: the tag is the request id. A stale timer
        // (request already answered) is a no-op.
        if let Some(f) = self.settle(tag) {
            ctx.note(format!(
                "httpa: request from consumer {} missed its deadline with no reply",
                f.consumer.0
            ));
            self.reply(
                ctx,
                f.consumer,
                ResponseBody::Error("request deadline exceeded".into()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ConsumerId;

    #[test]
    fn httpa_state_round_trips() {
        let mut h = HttpAgent::new(AgentId(5)).with_deadline_us(1_000);
        h.replies_sent = 3;
        h.inflight.push(InFlight {
            request: 4,
            consumer: ConsumerId(1),
            started_us: 10,
        });
        let back: HttpAgent = serde_json::from_value(h.snapshot()).unwrap();
        assert_eq!(back.bsma, AgentId(5));
        assert_eq!(back.replies_sent, 3);
        assert_eq!(back.inflight.len(), 1);
        assert_eq!(back.inflight[0].request, 4);
    }
}
