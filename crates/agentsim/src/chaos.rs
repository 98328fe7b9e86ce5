//! Deterministic chaos engine: seed-derived fault plans for both runtimes.
//!
//! A [`ChaosPlan`] is a sim-time-scheduled sequence of faults — partition
//! windows with scheduled healing, extra link loss, slow links, host
//! crash/restart — plus message duplication and bounded-jitter reordering
//! knobs. Plans are derived from a seed by [`ChaosPlan::generate`], so any
//! failure observed under chaos reproduces exactly from the `(seed, plan)`
//! pair alone; the plan serializes to one JSON line for the repro command.
//!
//! [`sim::SimWorld::install_chaos`](crate::sim::SimWorld::install_chaos)
//! schedules the plan as ordinary DES events; the threaded runtime applies
//! the same fault vocabulary through [`ChaosKnobs`]. Both runtimes share
//! the semantics:
//!
//! * **partition / crash** — dispatching an agent toward an unreachable
//!   host fails *synchronously*: the agent stays put and gets
//!   [`Agent::on_dispatch_failed`](crate::agent::Agent::on_dispatch_failed).
//!   Messages toward (or from) the dead side are dropped.
//! * **link loss** — an overlay probability on top of the configured link
//!   spec; drops count as [`Metrics::chaos_drops`](crate::metrics::Metrics).
//! * **duplication** — a copy of a delivered message is scheduled later
//!   *with the same message id*; receivers suppress the duplicate.
//! * **reordering** — bounded extra delivery jitter, FIFO-clamped per
//!   sender/receiver pair so causal message order within a conversation
//!   is preserved (TCP-like), only cross-pair interleaving changes.

use crate::clock::{SimDuration, SimTime};
use crate::ids::HostId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// One injectable fault. Every fault heals: the window is part of the
/// scheduled [`ChaosEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// Hard partition between hosts `a` and `b` (both directions).
    Partition {
        /// One side of the partitioned pair.
        a: HostId,
        /// The other side.
        b: HostId,
    },
    /// Extra loss probability overlaid on the pair `a`/`b`.
    LinkLoss {
        /// One side of the lossy pair.
        a: HostId,
        /// The other side.
        b: HostId,
        /// Overlay loss probability in `[0, 1]`.
        loss: f64,
    },
    /// Delivery-time multiplier on the pair `a`/`b`.
    SlowLink {
        /// One side of the slowed pair.
        a: HostId,
        /// The other side.
        b: HostId,
        /// Multiplier applied to delivery time (≥ 1).
        factor: f64,
    },
    /// Crash `host`: every active agent and stored capsule on it is lost
    /// and arrivals/deliveries fail until the scheduled restart.
    CrashHost {
        /// The host that crashes.
        host: HostId,
    },
    /// Hang `host`: the host stays up and reachable (arrivals land, no
    /// state is lost) but its agents stop draining their mailboxes —
    /// deliveries and timer callbacks stall until the fault heals or a
    /// supervisor bounces the host. Stuck-not-dead, distinct from
    /// [`Fault::CrashHost`].
    Hang {
        /// The host that wedges.
        host: HostId,
    },
}

/// A fault scheduled at a sim time, healing after a delay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosEvent {
    /// When the fault strikes (microseconds of sim time).
    pub at_us: u64,
    /// How long the fault lasts before healing (microseconds).
    pub heal_after_us: u64,
    /// What happens.
    pub fault: Fault,
}

impl ChaosEvent {
    /// Sim time at which the fault is applied.
    pub fn at(&self) -> SimTime {
        SimTime(self.at_us)
    }

    /// Sim time at which the fault heals.
    pub fn heals_at(&self) -> SimTime {
        SimTime(self.at_us.saturating_add(self.heal_after_us))
    }
}

/// A complete, reproducible fault schedule.
///
/// `Display` prints the plan as a single JSON line — paste it next to the
/// seed to reproduce a failing run exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Seed the plan was derived from (also the world seed in the sweep).
    pub seed: u64,
    /// Probability that a delivered message is duplicated.
    pub dup_probability: f64,
    /// Probability that a delivery picks up extra jitter.
    pub reorder_probability: f64,
    /// Maximum extra jitter per delivery (microseconds).
    pub max_jitter_us: u64,
    /// Scheduled fault windows, in no particular order.
    pub events: Vec<ChaosEvent>,
}

/// Input to [`ChaosPlan::generate`]: which parts of the world the plan is
/// allowed to break, and how hard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Horizon (microseconds) within which faults strike; heal times may
    /// extend up to 50% past it.
    pub horizon_us: u64,
    /// Host pairs whose links may be partitioned / degraded.
    pub links: Vec<(HostId, HostId)>,
    /// Hosts that may crash (keep coordinator/server hosts out of this
    /// list if the application cannot survive losing them).
    pub crashable: Vec<HostId>,
    /// Hosts that may hang (stuck-not-dead). Empty by default — plans
    /// derived from configs without hangable hosts draw no hang
    /// randomness, so pre-existing `(seed, config)` pairs keep producing
    /// byte-identical plans.
    #[serde(default)]
    pub hangable: Vec<HostId>,
    /// 0.0 = no faults, 1.0 = full configured intensity.
    pub intensity: f64,
}

impl ChaosConfig {
    /// A config breaking the given links and hosts over `horizon_us` at
    /// full intensity.
    pub fn new(horizon_us: u64, links: Vec<(HostId, HostId)>, crashable: Vec<HostId>) -> Self {
        ChaosConfig {
            horizon_us,
            links,
            crashable,
            hangable: Vec::new(),
            intensity: 1.0,
        }
    }

    /// Allow the given hosts to hang (stuck-not-dead). Opt-in: without
    /// this the generator never draws hang randomness, keeping legacy
    /// plans byte-identical.
    pub fn with_hangs(mut self, hangable: Vec<HostId>) -> Self {
        self.hangable = hangable;
        self
    }

    /// Scale how many faults are generated and how aggressive the
    /// dup/reorder knobs are (clamped to `[0, 1]`).
    pub fn with_intensity(mut self, intensity: f64) -> Self {
        self.intensity = if intensity.is_nan() {
            0.0
        } else {
            intensity.clamp(0.0, 1.0)
        };
        self
    }
}

impl ChaosPlan {
    /// A plan with no faults and no message mangling.
    pub fn quiet(seed: u64) -> Self {
        ChaosPlan {
            seed,
            dup_probability: 0.0,
            reorder_probability: 0.0,
            max_jitter_us: 0,
            events: Vec::new(),
        }
    }

    /// Derive a plan from `seed`. The derivation uses its own
    /// `StdRng::seed_from_u64(seed)`, so the same `(seed, config)` always
    /// yields the same plan, independent of the world's RNG state.
    pub fn generate(seed: u64, config: &ChaosConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let intensity = config.intensity.clamp(0.0, 1.0);
        let mut plan = ChaosPlan {
            seed,
            dup_probability: rng.gen_range(0.0..0.35) * intensity,
            reorder_probability: rng.gen_range(0.0..0.5) * intensity,
            max_jitter_us: rng.gen_range(200u64..5_000),
            events: Vec::new(),
        };
        if config.horizon_us == 0 || intensity == 0.0 {
            return plan;
        }
        let n_link_faults = if config.links.is_empty() {
            0
        } else {
            ((1 + rng.gen_range(0..4)) as f64 * intensity).round() as usize
        };
        for _ in 0..n_link_faults {
            let (a, b) = config.links[rng.gen_range(0..config.links.len())];
            let fault = match rng.gen_range(0..3u8) {
                0 => Fault::Partition { a, b },
                1 => Fault::LinkLoss {
                    a,
                    b,
                    loss: rng.gen_range(0.2..1.0),
                },
                _ => Fault::SlowLink {
                    a,
                    b,
                    factor: rng.gen_range(2.0..20.0),
                },
            };
            let lo = config.horizon_us / 20;
            let hi = (config.horizon_us / 2).max(lo + 1);
            plan.events.push(ChaosEvent {
                at_us: rng.gen_range(0..config.horizon_us),
                heal_after_us: rng.gen_range(lo..hi).max(1),
                fault,
            });
        }
        let n_crashes = if config.crashable.is_empty() {
            0
        } else {
            (rng.gen_range(0..2) as f64 * intensity).round() as usize
        };
        for _ in 0..n_crashes {
            let host = config.crashable[rng.gen_range(0..config.crashable.len())];
            let lo = config.horizon_us / 10;
            let hi = (config.horizon_us / 2).max(lo + 1);
            plan.events.push(ChaosEvent {
                at_us: rng.gen_range(0..config.horizon_us),
                heal_after_us: rng.gen_range(lo..hi).max(1),
                fault: Fault::CrashHost { host },
            });
        }
        // Hang faults are drawn last and only when hangable hosts were
        // opted in, so every draw above is unchanged for legacy configs.
        let n_hangs = if config.hangable.is_empty() {
            0
        } else {
            (rng.gen_range(0..2) as f64 * intensity).round() as usize
        };
        for _ in 0..n_hangs {
            let host = config.hangable[rng.gen_range(0..config.hangable.len())];
            let lo = config.horizon_us / 10;
            let hi = (config.horizon_us / 2).max(lo + 1);
            plan.events.push(ChaosEvent {
                at_us: rng.gen_range(0..config.horizon_us),
                heal_after_us: rng.gen_range(lo..hi).max(1),
                fault: Fault::Hang { host },
            });
        }
        plan
    }

    /// Whether the plan injects any fault or message mangling at all.
    pub fn is_quiet(&self) -> bool {
        self.events.is_empty() && self.dup_probability == 0.0 && self.reorder_probability == 0.0
    }
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match serde_json::to_string(self) {
            Ok(json) => f.write_str(&json),
            Err(_) => write!(f, "ChaosPlan{{seed:{}}}", self.seed),
        }
    }
}

/// Live fault switches for the threaded runtime (no sim clock to schedule
/// against): the test harness flips these while the world runs. The DES
/// runtime derives the same vocabulary from a [`ChaosPlan`] instead.
#[derive(Debug, Default)]
pub struct ChaosKnobs {
    /// Probability that a delivered message is duplicated.
    pub dup_probability: f64,
    /// Hard-partitioned unordered host pairs.
    pub partitions: HashSet<(HostId, HostId)>,
    /// Currently crashed hosts.
    pub crashed: HashSet<HostId>,
}

impl ChaosKnobs {
    /// Partition the pair `a`/`b` (stored normalized, both directions).
    pub fn partition(&mut self, a: HostId, b: HostId) {
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.partitions.insert(key);
    }

    /// Heal a partition installed by [`ChaosKnobs::partition`].
    pub fn heal_partition(&mut self, a: HostId, b: HostId) {
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.partitions.remove(&key);
    }

    /// Whether traffic between `a` and `b` is blocked by a partition or a
    /// crash of either endpoint.
    pub fn blocks(&self, a: HostId, b: HostId) -> bool {
        if self.crashed.contains(&a) || self.crashed.contains(&b) {
            return true;
        }
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        a != b && self.partitions.contains(&key)
    }
}

/// Upper bound on chaos-injected extra delivery delay used by the DES
/// runtime when a plan does not specify one.
pub const DEFAULT_MAX_JITTER: SimDuration = SimDuration(2_000);

#[cfg(test)]
mod tests {
    #![allow(clippy::panic)]

    use super::*;

    fn config() -> ChaosConfig {
        ChaosConfig::new(
            5_000_000,
            vec![(HostId(1), HostId(2)), (HostId(1), HostId(3))],
            vec![HostId(2)],
        )
    }

    #[test]
    fn generate_is_deterministic_in_the_seed() {
        let a = ChaosPlan::generate(42, &config());
        let b = ChaosPlan::generate(42, &config());
        assert_eq!(a, b);
        let c = ChaosPlan::generate(43, &config());
        assert_ne!(a, c, "different seeds should yield different plans");
    }

    #[test]
    fn generated_faults_stay_within_bounds() {
        for seed in 0..64 {
            let plan = ChaosPlan::generate(seed, &config());
            assert!((0.0..=0.35).contains(&plan.dup_probability));
            assert!((0.0..=0.5).contains(&plan.reorder_probability));
            for ev in &plan.events {
                assert!(ev.at_us < 5_000_000);
                assert!(ev.heal_after_us >= 1);
                assert!(ev.heals_at() > ev.at());
                match ev.fault {
                    Fault::LinkLoss { loss, .. } => assert!((0.0..=1.0).contains(&loss)),
                    Fault::SlowLink { factor, .. } => assert!(factor >= 1.0),
                    Fault::CrashHost { host } => assert_eq!(host, HostId(2)),
                    Fault::Partition { .. } => {}
                    Fault::Hang { .. } => {
                        panic!("hang faults require hangable hosts, none configured")
                    }
                }
            }
        }
    }

    #[test]
    fn hang_faults_require_opt_in_and_target_only_hangable_hosts() {
        // Without hangable hosts the plan is byte-identical to the legacy
        // derivation (no hang randomness is drawn at all).
        for seed in 0..64 {
            let legacy = ChaosPlan::generate(seed, &config());
            let explicit = ChaosPlan::generate(seed, &config().with_hangs(Vec::new()));
            assert_eq!(legacy, explicit);
        }
        // With hangable hosts, hangs strike only those hosts; at least one
        // seed in the range produces one.
        let hang_cfg = config().with_hangs(vec![HostId(3)]);
        let mut seen = 0;
        for seed in 0..64 {
            let plan = ChaosPlan::generate(seed, &hang_cfg);
            for ev in &plan.events {
                if let Fault::Hang { host } = ev.fault {
                    assert_eq!(host, HostId(3));
                    seen += 1;
                }
            }
        }
        assert!(seen > 0, "64 seeds should produce at least one hang");
    }

    #[test]
    fn zero_intensity_is_quiet() {
        let plan = ChaosPlan::generate(7, &config().with_intensity(0.0));
        assert!(plan.is_quiet());
        assert!(ChaosPlan::quiet(7).is_quiet());
    }

    #[test]
    fn plan_round_trips_serde_and_displays_as_json() {
        let plan = ChaosPlan::generate(11, &config());
        let line = plan.to_string();
        let back: ChaosPlan = serde_json::from_str(&line).unwrap();
        assert_eq!(plan, back, "Display output must reproduce the plan");
    }

    #[test]
    fn knobs_block_partitioned_pairs_and_crashed_hosts() {
        let mut knobs = ChaosKnobs::default();
        knobs.partition(HostId(2), HostId(1));
        assert!(knobs.blocks(HostId(2), HostId(1)), "order-insensitive");
        assert!(!knobs.blocks(HostId(1), HostId(3)));
        knobs.crashed.insert(HostId(3));
        assert!(knobs.blocks(HostId(1), HostId(3)));
        assert!(knobs.blocks(HostId(3), HostId(3)), "crashed blocks local");
    }
}
