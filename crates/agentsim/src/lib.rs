//! # agentsim — an Aglet-style mobile-agent platform
//!
//! This crate is the mobile-agent substrate of the `abcrm` reproduction of
//! *"An Agent-Based Consumer Recommendation Mechanism"* (Wang, Hwang &
//! Wang, AINA 2004). The paper builds on IBM Aglets; this crate reproduces
//! the aglet behaviours the mechanism depends on:
//!
//! * **lifecycle** — create, dispatch (migrate with state), deactivate into
//!   stable storage, activate, dispose ([`agent::Agent`]);
//! * **messaging** — asynchronous typed messages with request/response
//!   correlation ([`message::Message`]);
//! * **migration** — agents serialize into [`agent::AgentCapsule`]s and
//!   rehydrate through an [`agent::AgentRegistry`] at the destination;
//! * **security** — single-use travel permits authenticate returning
//!   mobile agents ([`security`]), per the paper's §4.1 principles 2 and 5;
//! * **networking** — a latency/bandwidth/loss link model ([`net`]).
//!
//! Two runtimes execute the same [`agent::Agent`] code:
//!
//! * [`sim::SimWorld`] — a deterministic discrete-event world (used by all
//!   benchmarks; same seed ⇒ same execution);
//! * [`thread_net::ThreadWorld`] — one OS thread per host over crossbeam
//!   channels (demonstrates runtime-agnosticism on real concurrency).
//!
//! Both are schedulers around one host kernel (the crate-internal `host`
//! module): the lifecycle, migration, delivery, journaling and recovery
//! rules exist once and run unchanged on either.
//!
//! ## Quickstart
//!
//! ```
//! use agentsim::prelude::*;
//! use serde::{Serialize, Deserialize};
//!
//! /// A mobile agent that visits a host and reports back in the trace.
//! #[derive(Serialize, Deserialize)]
//! struct Scout;
//!
//! impl Agent for Scout {
//!     fn agent_type(&self) -> &'static str { "scout" }
//!     fn snapshot(&self) -> serde_json::Value { serde_json::json!(null) }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
//!         if msg.is("visit") {
//!             let dest: u32 = msg.payload_as().expect("host id payload");
//!             ctx.dispatch_self(HostId(dest));
//!         }
//!     }
//!     fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.note("scout arrived");
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut world = SimWorld::new(42);
//! world.registry_mut().register_serde::<Scout>("scout");
//! let home = world.add_host("buyer-agent-server");
//! let market = world.add_host("marketplace");
//! let scout = world.create_agent(home, Box::new(Scout))?;
//! world.send_external(scout, Message::new("visit").with_payload(&market.0)?)?;
//! world.run_until_idle();
//! assert_eq!(world.location(scout), Some(Location::Active(market)));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agent;
pub mod chaos;
pub mod clock;
pub mod durable;
pub mod error;
pub(crate) mod host;
pub mod ids;
pub mod intern;
pub mod message;
pub mod metrics;
pub mod net;
pub mod overload;
pub mod payload;
pub mod security;
pub mod shard;
pub mod sim;
pub mod storage;
pub mod supervise;
pub mod telemetry;
pub mod thread_net;
pub mod trace;

/// Convenient glob import of the commonly used types.
pub mod prelude {
    pub use crate::agent::{Agent, AgentCapsule, AgentRegistry, Ctx, DurablePolicy};
    pub use crate::chaos::{ChaosConfig, ChaosEvent, ChaosPlan, Fault};
    pub use crate::clock::{SimDuration, SimTime};
    pub use crate::durable::{DurabilityConfig, DurableState, DurableStore, IntentState};
    pub use crate::error::PlatformError;
    pub use crate::ids::{AgentId, HostId, MessageId};
    pub use crate::intern::{intern, InternedStr};
    pub use crate::message::Message;
    pub use crate::metrics::Metrics;
    pub use crate::net::{LinkSpec, Topology};
    pub use crate::overload::MailboxConfig;
    pub use crate::payload::Payload;
    pub use crate::security::{Authenticator, TravelPermit};
    pub use crate::shard::ShardedSimWorld;
    pub use crate::sim::{Location, SimWorld};
    pub use crate::supervise::{RestoreDecision, SupervisionConfig, Supervisor, Verdict};
    pub use crate::telemetry::{
        Histogram, HopKind, Registry, Span, SpanEvent, SpanEventKind, Telemetry, TraceCtx,
    };
    pub use crate::thread_net::{DrainStatus, StallDiagnostic, ThreadWorld, ThreadWorldBuilder};
    pub use crate::trace::{Trace, TraceEvent};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_compile() {
        use crate::prelude::*;
        let world = SimWorld::new(0);
        let _ = format!("{world:?}");
    }
}
