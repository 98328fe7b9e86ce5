//! Token-bucket admission control with priority shedding at the ingress.
//!
//! Under overload the platform must shed the cheapest work first (§3.3:
//! the Buyer Agent Server multiplexes every consumer through one BSMA, so
//! unbounded ingress starves the transactions that matter). Requests are
//! classed by [`Priority`]; the bucket reserves a fraction of its capacity
//! for each higher class, so background refreshes drain first, then
//! queries, and buy/auction tasks are shed only when the bucket is truly
//! empty. A shed request gets an explicit `Overloaded` reply rather than
//! silently queueing.

use serde::{Deserialize, Serialize};

/// Priority class of an ingress request, highest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Priority {
    /// Buy / auction tasks: real transactions, shed last.
    Transaction,
    /// Query tasks: interactive but re-issuable.
    Query,
    /// Recommendation refreshes, login/logout: cheapest to shed.
    Background,
}

/// Tuning knobs for an [`AdmissionGate`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Sustained admission rate, requests per second.
    pub rate_per_sec: f64,
    /// Bucket capacity: the largest tolerated burst.
    pub burst: f64,
    /// Fraction of the bucket only [`Priority::Transaction`] may dip into.
    pub transaction_reserve: f64,
    /// Additional fraction reserved from [`Priority::Background`] (so
    /// queries keep working after background traffic is shed).
    pub query_reserve: f64,
}

impl Default for AdmissionConfig {
    /// 100 req/s sustained, bursts of 20, a quarter of the bucket
    /// reserved for transactions and another quarter from background.
    fn default() -> Self {
        AdmissionConfig {
            rate_per_sec: 100.0,
            burst: 20.0,
            transaction_reserve: 0.25,
            query_reserve: 0.25,
        }
    }
}

/// Verdict of one admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Proceed.
    Admitted,
    /// Shed: reply `Overloaded` and suggest retrying after this long.
    Shed {
        /// Microseconds until the bucket is expected to hold enough
        /// tokens for this class again.
        retry_after_us: u64,
    },
}

/// A token-bucket admission gate with per-class floors.
///
/// Serializable so it can live inside the HttpA's migratable state; time
/// is passed in (µs on the world clock), never read from a wall clock, so
/// the gate is deterministic under the DES runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionGate {
    config: AdmissionConfig,
    tokens: f64,
    last_refill_us: u64,
}

impl AdmissionGate {
    /// A full bucket with the given tuning.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionGate {
            tokens: config.burst,
            config,
            last_refill_us: 0,
        }
    }

    /// Tokens a request of `class` must leave behind: 0 for transactions,
    /// the transaction reserve for queries, both reserves for background.
    fn floor(&self, class: Priority) -> f64 {
        let b = self.config.burst;
        match class {
            Priority::Transaction => 0.0,
            Priority::Query => b * self.config.transaction_reserve,
            Priority::Background => {
                b * (self.config.transaction_reserve + self.config.query_reserve)
            }
        }
    }

    /// Try to admit one request of `class` at `now_us`.
    pub fn try_admit(&mut self, now_us: u64, class: Priority) -> AdmissionVerdict {
        self.refill(now_us);
        let needed = 1.0 + self.floor(class);
        if self.tokens >= needed {
            self.tokens -= 1.0;
            AdmissionVerdict::Admitted
        } else {
            let deficit = needed - self.tokens;
            let retry_after_us = if self.config.rate_per_sec > 0.0 {
                (deficit / self.config.rate_per_sec * 1e6).ceil() as u64
            } else {
                u64::MAX
            };
            AdmissionVerdict::Shed { retry_after_us }
        }
    }

    fn refill(&mut self, now_us: u64) {
        let elapsed = now_us.saturating_sub(self.last_refill_us);
        self.last_refill_us = now_us;
        let refill = elapsed as f64 / 1e6 * self.config.rate_per_sec;
        self.tokens = (self.tokens + refill).min(self.config.burst);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::panic)]

    use super::*;

    fn gate() -> AdmissionGate {
        AdmissionGate::new(AdmissionConfig {
            rate_per_sec: 10.0,
            burst: 4.0,
            transaction_reserve: 0.25,
            query_reserve: 0.25,
        })
    }

    #[test]
    fn admits_within_burst_then_sheds() {
        let mut g = gate();
        // burst 4, background floor 2: two background requests pass
        assert_eq!(
            g.try_admit(0, Priority::Background),
            AdmissionVerdict::Admitted
        );
        assert_eq!(
            g.try_admit(0, Priority::Background),
            AdmissionVerdict::Admitted
        );
        assert!(matches!(
            g.try_admit(0, Priority::Background),
            AdmissionVerdict::Shed { .. }
        ));
    }

    #[test]
    fn transactions_outlive_queries_outlive_background() {
        let mut g = gate();
        // drain to below the background floor
        g.try_admit(0, Priority::Background);
        g.try_admit(0, Priority::Background);
        assert!(matches!(
            g.try_admit(0, Priority::Background),
            AdmissionVerdict::Shed { .. }
        ));
        // queries still pass (floor 1), down to one token
        assert_eq!(g.try_admit(0, Priority::Query), AdmissionVerdict::Admitted);
        assert!(matches!(
            g.try_admit(0, Priority::Query),
            AdmissionVerdict::Shed { .. }
        ));
        // the last token belongs to transactions alone
        assert_eq!(
            g.try_admit(0, Priority::Transaction),
            AdmissionVerdict::Admitted
        );
        assert!(matches!(
            g.try_admit(0, Priority::Transaction),
            AdmissionVerdict::Shed { .. }
        ));
    }

    #[test]
    fn bucket_refills_over_time() {
        let mut g = gate();
        for _ in 0..4 {
            g.try_admit(0, Priority::Transaction);
        }
        assert!(matches!(
            g.try_admit(0, Priority::Transaction),
            AdmissionVerdict::Shed { .. }
        ));
        // 10 tokens/s: 100 ms buys one token
        assert_eq!(
            g.try_admit(100_000, Priority::Transaction),
            AdmissionVerdict::Admitted
        );
    }

    #[test]
    fn retry_hint_scales_with_the_deficit() {
        let mut g = gate();
        for _ in 0..4 {
            g.try_admit(0, Priority::Transaction);
        }
        let AdmissionVerdict::Shed { retry_after_us } = g.try_admit(0, Priority::Transaction)
        else {
            panic!("must shed on an empty bucket");
        };
        // one whole token at 10/s is 100 ms
        assert_eq!(retry_after_us, 100_000);
    }

    #[test]
    fn gate_round_trips_serde() {
        let mut g = gate();
        g.try_admit(0, Priority::Query);
        let back: AdmissionGate =
            serde_json::from_str(&serde_json::to_string(&g).unwrap()).unwrap();
        assert_eq!(g, back);
    }
}
