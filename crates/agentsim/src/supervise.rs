//! Self-healing supervision: failure detection, heartbeat leases, restart
//! budgets, and the policy engine behind automatic host failover.
//!
//! The [`Supervisor`] is a pure, clock-agnostic state machine shared by
//! both runtimes: the DES world drives it from sim time on a scheduled
//! detector tick, the threaded world from wall time on a dedicated
//! supervisor thread. Each runtime reports raw observations (a host
//! crashed, a host stopped draining its mailbox, a host came back) and
//! periodically asks for verdicts via [`Supervisor::tick`]. Each verdict
//! is counted and traced once, here ([`Verdict::book`]); the runtime then
//! executes it in its own way (the DES fails a dead host over to a
//! standby, ThreadWorld restarts the worker; both bounce a hung host).
//!
//! Determinism: the supervisor holds no randomness and iterates its watch
//! tables in `BTreeMap` order, so on the DES runtime the same seed and the
//! same [`SupervisionConfig`] yield the same detection and failover
//! timeline, event for event.

use crate::clock::SimTime;
use crate::ids::{AgentId, HostId};
use crate::metrics::Metrics;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Tuning knobs for the self-healing layer. All times are microseconds —
/// of sim time on the DES runtime, of wall time on the threaded one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisionConfig {
    /// Heartbeat lease interval: how often the failure detector looks at
    /// the world. A crashed host is *suspected* after missing one lease.
    pub lease_interval_us: u64,
    /// Missed leases (beyond the first) a suspected host is granted
    /// before its lease expires and failover starts.
    pub lease_grace: u32,
    /// How long a host's mailbox may sit stalled before the detector
    /// declares it hung (stuck-not-dead) and bounces it.
    pub hang_grace_us: u64,
    /// Restorations allowed per agent before it is quarantined to
    /// dead-letters instead of being restored again (poison protection).
    pub restart_budget: u32,
    /// Base backoff between successive automatic recoveries of the same
    /// host; doubles per recovery (exponential), capped at
    /// [`SupervisionConfig::backoff_max_us`].
    pub backoff_base_us: u64,
    /// Ceiling on the per-host recovery backoff.
    pub backoff_max_us: u64,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            lease_interval_us: 250_000,
            lease_grace: 2,
            hang_grace_us: 500_000,
            restart_budget: 3,
            backoff_base_us: 100_000,
            backoff_max_us: 2_000_000,
        }
    }
}

impl SupervisionConfig {
    /// Sim/wall time after a crash at which the host's lease expires and
    /// failover may begin: one missed lease to suspect, `lease_grace`
    /// further leases to expire.
    pub fn lease_expiry_us(&self) -> u64 {
        self.lease_interval_us
            .saturating_mul(1 + self.lease_grace as u64)
    }
}

/// What the failure detector decided a host needs this tick. Returned by
/// [`Supervisor::tick`] in deterministic (host id) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The host missed a heartbeat lease: mark it suspected (observable,
    /// but no recovery action yet).
    Suspect(HostId),
    /// The suspected host's lease expired: run automatic recovery
    /// (replay/rehydrate onto a standby, reclaim roamers).
    FailOver(HostId),
    /// The host is alive but its mailbox has been stalled past the hang
    /// grace: bounce it (clear the wedge, replay the stalled work).
    BounceHang(HostId),
}

impl Verdict {
    /// Count the verdict and write its trace line. What the verdict calls
    /// for is left to the runtime.
    pub(crate) fn book(self, metrics: &mut Metrics, trace: &mut Trace, now: SimTime) {
        let (host, what) = match self {
            Verdict::Suspect(host) => {
                metrics.hosts_suspected += 1;
                (host, "suspected (missed heartbeat lease)")
            }
            Verdict::FailOver(host) => {
                metrics.leases_expired += 1;
                (host, "lease expired, starting failover")
            }
            Verdict::BounceHang(host) => {
                metrics.hangs_detected += 1;
                (host, "hung past grace, bouncing")
            }
        };
        trace.record(now, None, format!("supervisor: {host} {what}"));
    }
}

/// Whether a capsule should be restored by a recovery pass or quarantined
/// because the agent has exhausted its restart budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreDecision {
    /// Within budget: restore the agent.
    Restore,
    /// Budget exhausted: skip the restore and count the agent as
    /// quarantined; its traffic dead-letters instead of crash-looping.
    Quarantine,
}

#[derive(Debug, Default, Clone)]
struct HostWatch {
    /// When the host was observed down (`None` = believed up).
    down_since: Option<u64>,
    /// Whether a `Suspect` verdict was already issued for this outage.
    suspected: bool,
    /// When the host's mailbox was observed stalled (`None` = draining).
    hung_since: Option<u64>,
    /// Automatic recoveries performed on this host so far (drives the
    /// exponential backoff).
    recoveries: u32,
    /// Earliest time the next automatic recovery of this host may run.
    not_before: u64,
}

/// The supervision policy engine. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Supervisor {
    cfg: SupervisionConfig,
    watches: BTreeMap<u32, HostWatch>,
    /// Restorations performed per agent (raw id), across every recovery
    /// pass while supervision is enabled.
    restores: BTreeMap<u64, u32>,
    quarantined: BTreeSet<u64>,
}

impl Supervisor {
    /// A supervisor with the given policy and no observations yet.
    pub fn new(cfg: SupervisionConfig) -> Self {
        Supervisor {
            cfg,
            watches: BTreeMap::new(),
            restores: BTreeMap::new(),
            quarantined: BTreeSet::new(),
        }
    }

    /// The active policy.
    pub fn config(&self) -> &SupervisionConfig {
        &self.cfg
    }

    /// Report that `host` crashed at `now_us`. Idempotent while the host
    /// stays down.
    pub fn observe_crash(&mut self, host: HostId, now_us: u64) {
        let w = self.watches.entry(host.0).or_default();
        if w.down_since.is_none() {
            w.down_since = Some(now_us);
            w.suspected = false;
        }
    }

    /// Report that `host` came back up (scripted restart or completed
    /// failover): its outage watch is cleared.
    pub fn observe_restart(&mut self, host: HostId) {
        if let Some(w) = self.watches.get_mut(&host.0) {
            w.down_since = None;
            w.suspected = false;
        }
    }

    /// Report that `host` stopped draining its mailbox at `now_us`
    /// (deliveries are parking instead of being processed). Idempotent
    /// while the stall lasts.
    pub fn observe_hang(&mut self, host: HostId, now_us: u64) {
        let w = self.watches.entry(host.0).or_default();
        if w.hung_since.is_none() {
            w.hung_since = Some(now_us);
        }
    }

    /// Report that `host` is draining again (healed or bounced).
    pub fn observe_hang_cleared(&mut self, host: HostId) {
        if let Some(w) = self.watches.get_mut(&host.0) {
            w.hung_since = None;
        }
    }

    /// Run the failure detector at `now_us`; returns the verdicts to
    /// execute, in ascending host-id order (deterministic).
    pub fn tick(&mut self, now_us: u64) -> Vec<Verdict> {
        let cfg = self.cfg;
        let backoff = |recoveries: u32| -> u64 {
            let shift = recoveries.saturating_sub(1).min(20);
            cfg.backoff_base_us
                .saturating_shl(shift)
                .min(cfg.backoff_max_us)
        };
        let mut verdicts = Vec::new();
        for (raw, w) in self.watches.iter_mut() {
            let host = HostId(*raw);
            if let Some(since) = w.down_since {
                let missed = now_us.saturating_sub(since);
                if !w.suspected && missed >= self.cfg.lease_interval_us {
                    w.suspected = true;
                    verdicts.push(Verdict::Suspect(host));
                }
                if w.suspected && missed >= cfg.lease_expiry_us() && now_us >= w.not_before {
                    w.down_since = None;
                    w.suspected = false;
                    w.recoveries += 1;
                    w.not_before = now_us.saturating_add(backoff(w.recoveries));
                    verdicts.push(Verdict::FailOver(host));
                }
            }
            if let Some(since) = w.hung_since {
                if now_us.saturating_sub(since) >= cfg.hang_grace_us && now_us >= w.not_before {
                    w.hung_since = None;
                    w.recoveries += 1;
                    w.not_before = now_us.saturating_add(backoff(w.recoveries));
                    verdicts.push(Verdict::BounceHang(host));
                }
            }
        }
        verdicts
    }

    /// Whether any watched host currently has an outstanding observation
    /// (outage or stall) that future ticks must act on. When false the
    /// detector can go dormant.
    pub fn watching(&self) -> bool {
        self.watches
            .values()
            .any(|w| w.down_since.is_some() || w.hung_since.is_some())
    }

    /// Charge one restoration of `agent` against its restart budget.
    pub fn note_restore(&mut self, agent: AgentId) -> RestoreDecision {
        if self.quarantined.contains(&agent.0) {
            return RestoreDecision::Quarantine;
        }
        let count = self.restores.entry(agent.0).or_insert(0);
        *count += 1;
        if *count > self.cfg.restart_budget {
            self.quarantined.insert(agent.0);
            RestoreDecision::Quarantine
        } else {
            RestoreDecision::Restore
        }
    }

    /// Whether `agent` has been quarantined by [`Supervisor::note_restore`].
    pub fn is_quarantined(&self, agent: AgentId) -> bool {
        self.quarantined.contains(&agent.0)
    }

    /// Number of agents currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }
}

/// `u64::checked_shl` with saturation, missing from std for the pattern
/// used by the backoff above.
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> Self {
        self.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::panic)]

    use super::*;

    fn cfg() -> SupervisionConfig {
        SupervisionConfig {
            lease_interval_us: 100,
            lease_grace: 2,
            hang_grace_us: 250,
            restart_budget: 2,
            backoff_base_us: 50,
            backoff_max_us: 400,
        }
    }

    #[test]
    fn crash_is_suspected_then_failed_over_after_grace() {
        let mut sup = Supervisor::new(cfg());
        sup.observe_crash(HostId(3), 1_000);
        assert!(sup.tick(1_050).is_empty(), "within the first lease");
        assert_eq!(sup.tick(1_100), vec![Verdict::Suspect(HostId(3))]);
        assert!(sup.tick(1_200).is_empty(), "suspected, grace not spent");
        assert_eq!(sup.tick(1_300), vec![Verdict::FailOver(HostId(3))]);
        assert!(sup.tick(1_400).is_empty(), "outage handled");
        assert!(!sup.watching());
    }

    #[test]
    fn restart_before_expiry_cancels_failover() {
        let mut sup = Supervisor::new(cfg());
        sup.observe_crash(HostId(1), 0);
        assert_eq!(sup.tick(100), vec![Verdict::Suspect(HostId(1))]);
        sup.observe_restart(HostId(1));
        assert!(sup.tick(1_000).is_empty(), "host healed on its own");
    }

    #[test]
    fn repeated_crashes_back_off_exponentially() {
        let mut sup = Supervisor::new(cfg());
        sup.observe_crash(HostId(1), 0);
        sup.tick(100);
        assert_eq!(sup.tick(300), vec![Verdict::FailOver(HostId(1))]);
        // Second outage immediately after: recovery is delayed by the
        // backoff (not_before = 300 + 50), not just the lease expiry.
        sup.observe_crash(HostId(1), 300);
        sup.tick(400);
        assert_eq!(sup.tick(600), vec![Verdict::FailOver(HostId(1))]);
        // Third outage: backoff doubled (100), expiry at 900 but
        // not_before is 700 — still the expiry dominates here; crash a
        // fourth time to see the cap engage without panicking.
        sup.observe_crash(HostId(1), 600);
        sup.tick(700);
        assert_eq!(sup.tick(900), vec![Verdict::FailOver(HostId(1))]);
    }

    #[test]
    fn hang_bounces_after_grace() {
        let mut sup = Supervisor::new(cfg());
        sup.observe_hang(HostId(2), 1_000);
        assert!(sup.tick(1_100).is_empty());
        assert_eq!(sup.tick(1_250), vec![Verdict::BounceHang(HostId(2))]);
        assert!(!sup.watching());
    }

    #[test]
    fn hang_cleared_by_heal_never_bounces() {
        let mut sup = Supervisor::new(cfg());
        sup.observe_hang(HostId(2), 0);
        sup.observe_hang_cleared(HostId(2));
        assert!(sup.tick(10_000).is_empty());
    }

    #[test]
    fn restart_budget_quarantines_crash_loopers() {
        let mut sup = Supervisor::new(cfg());
        let a = AgentId(7);
        assert_eq!(sup.note_restore(a), RestoreDecision::Restore);
        assert_eq!(sup.note_restore(a), RestoreDecision::Restore);
        assert_eq!(sup.note_restore(a), RestoreDecision::Quarantine);
        assert!(sup.is_quarantined(a));
        assert_eq!(sup.note_restore(a), RestoreDecision::Quarantine);
        assert_eq!(sup.quarantined_count(), 1);
    }

    #[test]
    fn verdicts_come_in_host_id_order() {
        let mut sup = Supervisor::new(cfg());
        sup.observe_crash(HostId(9), 0);
        sup.observe_crash(HostId(2), 0);
        let verdicts = sup.tick(100);
        assert_eq!(
            verdicts,
            vec![Verdict::Suspect(HostId(2)), Verdict::Suspect(HostId(9))]
        );
    }

    #[test]
    fn config_round_trips_serde() {
        let c = SupervisionConfig::default();
        let back: SupervisionConfig =
            serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(c, back);
        assert_eq!(c.lease_expiry_us(), 750_000);
    }
}
