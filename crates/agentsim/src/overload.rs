//! Overload protection primitives shared by both runtimes.
//!
//! A [`MailboxConfig`] bounds every agent's inbox to `capacity` messages;
//! a message that arrives at a full mailbox is rejected (the queue keeps
//! its oldest work). The bookkeeping lives in [`MailboxState`], which a
//! runtime drives through two calls: [`MailboxState::on_enqueue`] when a
//! delivery is scheduled and [`MailboxState::on_consume`] when it is
//! handed to the agent. The discrete-event world enforces a bound; the
//! thread-backed world only tracks depths, for its stall diagnostics.
//!
//! The module also hosts [`remaining_us`], the single definition of
//! deadline arithmetic (saturating at zero) used by `Ctx`, the runtimes and
//! the retry clamps in the application layer.

use crate::clock::SimTime;
use crate::ids::AgentId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-agent mailbox bound, applied uniformly to every agent in a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MailboxConfig {
    /// Maximum queued (scheduled but not yet handled) messages per agent;
    /// a message past the bound is rejected.
    pub capacity: usize,
}

impl MailboxConfig {
    /// A bound of `capacity` messages.
    pub fn new(capacity: usize) -> Self {
        MailboxConfig { capacity }
    }
}

/// Verdict for one enqueue attempt against the bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueVerdict {
    /// Deliver normally.
    Admit,
    /// The mailbox is full: drop the incoming message.
    Reject,
}

/// Mailbox-depth bookkeeping for one world.
///
/// With `config == None` the state only tracks depths (cheap map updates,
/// used by the thread world's stall diagnostics); no bound is enforced.
#[derive(Debug)]
pub struct MailboxState {
    config: Option<MailboxConfig>,
    depth: HashMap<AgentId, usize>,
    max_depth_seen: usize,
}

impl MailboxState {
    /// Fresh state; `None` config tracks depths without enforcing a bound.
    pub fn new(config: Option<MailboxConfig>) -> Self {
        MailboxState {
            config,
            depth: HashMap::new(),
            max_depth_seen: 0,
        }
    }

    /// Deepest mailbox observed so far (feeds the
    /// `overload.mailbox_depth_max` gauge).
    pub fn max_depth_seen(&self) -> usize {
        self.max_depth_seen
    }

    /// Current queued depth for `agent`.
    pub fn depth(&self, agent: AgentId) -> usize {
        self.depth.get(&agent).copied().unwrap_or(0)
    }

    /// Nonzero queued depths, sorted by agent id (stall diagnostics).
    pub fn depths(&self) -> Vec<(AgentId, usize)> {
        let mut v: Vec<_> = self
            .depth
            .iter()
            .filter(|(_, d)| **d > 0)
            .map(|(a, d)| (*a, *d))
            .collect();
        v.sort_unstable();
        v
    }

    /// Account a delivery being scheduled for `to`: admit it and count it
    /// queued, or reject it if `to`'s mailbox is full.
    pub fn on_enqueue(&mut self, to: AgentId) -> EnqueueVerdict {
        let d = self.depth.entry(to).or_insert(0);
        if self.config.is_some_and(|c| *d >= c.capacity) {
            return EnqueueVerdict::Reject;
        }
        *d += 1;
        self.max_depth_seen = self.max_depth_seen.max(*d);
        EnqueueVerdict::Admit
    }

    /// Account a scheduled delivery to `to` being consumed.
    pub fn on_consume(&mut self, to: AgentId) {
        // Decrement without ever materialising an entry: a consume for an
        // agent with no tracked depth (already forgotten, or never
        // enqueued) must not plant a junk zero in the map — over a long
        // run those would accumulate one per disposed agent. Emptied
        // entries are removed for the same reason. `saturating_sub` keeps
        // the gauge from underflowing no matter how calls interleave.
        if let Some(d) = self.depth.get_mut(&to) {
            *d = d.saturating_sub(1);
            if *d == 0 {
                self.depth.remove(&to);
            }
        }
    }

    /// Forget all bookkeeping for `agent` (disposed or lost in a crash).
    pub fn forget(&mut self, agent: AgentId) {
        self.depth.remove(&agent);
    }
}

/// Microseconds of deadline budget left at `now`: `None` when no deadline
/// is set, otherwise saturating at zero once the deadline has passed.
pub fn remaining_us(deadline: Option<SimTime>, now: SimTime) -> Option<u64> {
    deadline.map(|d| d.0.saturating_sub(now.0))
}

/// Whether `deadline` has already passed at `now` (a deadline exactly at
/// `now` is still considered live, so zero-latency hops never self-expire).
pub fn deadline_expired(deadline: Option<SimTime>, now: SimTime) -> bool {
    matches!(deadline, Some(d) if now > d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untracked_state_admits_everything_and_tracks_depth() {
        let mut mb = MailboxState::new(None);
        for _ in 0..100 {
            assert_eq!(mb.on_enqueue(AgentId(1)), EnqueueVerdict::Admit);
        }
        assert_eq!(mb.depth(AgentId(1)), 100);
        assert_eq!(mb.max_depth_seen(), 100);
        mb.on_consume(AgentId(1));
        assert_eq!(mb.depth(AgentId(1)), 99);
    }

    #[test]
    fn reject_newest_drops_past_capacity() {
        let mut mb = MailboxState::new(Some(MailboxConfig::new(2)));
        assert_eq!(mb.on_enqueue(AgentId(1)), EnqueueVerdict::Admit);
        assert_eq!(mb.on_enqueue(AgentId(1)), EnqueueVerdict::Admit);
        assert_eq!(mb.on_enqueue(AgentId(1)), EnqueueVerdict::Reject);
        assert_eq!(mb.depth(AgentId(1)), 2);
        assert_eq!(mb.max_depth_seen(), 2);
    }

    #[test]
    fn forget_clears_all_bookkeeping() {
        let mut mb = MailboxState::new(Some(MailboxConfig::new(1)));
        mb.on_enqueue(AgentId(1));
        mb.on_enqueue(AgentId(1));
        mb.forget(AgentId(1));
        assert_eq!(mb.depth(AgentId(1)), 0);
        assert!(mb.depths().is_empty());
        // a stale consume of the forgotten delivery is a plain miss
        mb.on_consume(AgentId(1));
        assert_eq!(mb.depth(AgentId(1)), 0);
        assert_eq!(mb.on_enqueue(AgentId(1)), EnqueueVerdict::Admit);
    }

    #[test]
    fn remaining_budget_saturates_at_zero() {
        assert_eq!(remaining_us(None, SimTime(5)), None);
        assert_eq!(remaining_us(Some(SimTime(100)), SimTime(40)), Some(60));
        assert_eq!(remaining_us(Some(SimTime(100)), SimTime(100)), Some(0));
        assert_eq!(remaining_us(Some(SimTime(100)), SimTime(500)), Some(0));
    }

    #[test]
    fn expiry_is_strictly_after_the_deadline() {
        assert!(!deadline_expired(None, SimTime(999)));
        assert!(!deadline_expired(Some(SimTime(100)), SimTime(100)));
        assert!(deadline_expired(Some(SimTime(100)), SimTime(101)));
    }

    /// Model-based sweep: random enqueue/consume/forget interleavings
    /// against a reference model. The gauge must track the model's live
    /// count exactly, never exceed capacity, and never underflow (an
    /// underflow would wrap a `usize` and blow the `<= capacity` check).
    #[test]
    fn depth_gauge_matches_reference_model_under_random_ops() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..16u64 {
            let capacity = 3;
            let mut mb = MailboxState::new(Some(MailboxConfig::new(capacity)));
            let mut rng = StdRng::seed_from_u64(seed);
            // Scheduled (admitted, unconsumed) deliveries, as the runtimes
            // would hold them; consumed in random order.
            let mut scheduled: Vec<AgentId> = Vec::new();
            // live[agent] = model's depth: admitted minus consumed.
            let mut live: HashMap<AgentId, usize> = HashMap::new();
            for _ in 0..400 {
                let agent = AgentId(rng.gen_range(1..4u64));
                if rng.gen_bool(0.55) {
                    let full = live.get(&agent).copied().unwrap_or(0) >= capacity;
                    let verdict = mb.on_enqueue(agent);
                    assert_eq!(
                        verdict == EnqueueVerdict::Reject,
                        full,
                        "only a full mailbox rejects: seed={seed}"
                    );
                    if verdict == EnqueueVerdict::Admit {
                        scheduled.push(agent);
                        *live.entry(agent).or_insert(0) += 1;
                    }
                } else if !scheduled.is_empty() {
                    let pick = rng.gen_range(0..scheduled.len());
                    let to = scheduled.swap_remove(pick);
                    mb.on_consume(to);
                    *live.entry(to).or_insert(0) -= 1;
                }
                for a in 1..4u64 {
                    let d = mb.depth(AgentId(a));
                    assert!(
                        d <= capacity,
                        "depth {d} exceeds capacity (underflow wrap?) seed={seed}"
                    );
                    assert_eq!(
                        d,
                        live.get(&AgentId(a)).copied().unwrap_or(0),
                        "gauge diverged from model: seed={seed}"
                    );
                }
            }
            // Stale consumes for unknown agents must not disturb anything
            // (and must not underflow past zero).
            let before = mb.depths();
            mb.on_consume(AgentId(99));
            assert_eq!(mb.depth(AgentId(99)), 0);
            assert_eq!(mb.depths(), before);
        }
    }

    #[test]
    fn per_agent_bounds_are_independent() {
        let mut mb = MailboxState::new(Some(MailboxConfig::new(1)));
        assert_eq!(mb.on_enqueue(AgentId(1)), EnqueueVerdict::Admit);
        assert_eq!(mb.on_enqueue(AgentId(2)), EnqueueVerdict::Admit);
        assert_eq!(mb.on_enqueue(AgentId(1)), EnqueueVerdict::Reject);
        assert_eq!(mb.depth(AgentId(2)), 1);
    }
}
