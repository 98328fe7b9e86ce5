//! World-level counters.
//!
//! Collected by both runtimes and consumed by experiment E8 (platform
//! microbenchmarks) and the commerce simulations.

use serde::{Deserialize, Serialize};

/// Counters accumulated over a world's lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Messages successfully delivered.
    #[serde(default)]
    pub messages_delivered: u64,
    /// Messages dropped by the loss model.
    #[serde(default)]
    pub messages_lost: u64,
    /// Messages addressed to unknown/disposed/deactivated agents.
    #[serde(default)]
    pub messages_dead_lettered: u64,
    /// Message payload bytes moved across host boundaries.
    #[serde(default)]
    pub remote_message_bytes: u64,
    /// Agent migrations completed (arrivals).
    #[serde(default)]
    pub migrations: u64,
    /// Migrations rejected at arrival (unknown type, auth failure).
    #[serde(default)]
    pub migrations_rejected: u64,
    /// Capsule bytes moved across host boundaries.
    #[serde(default)]
    pub migration_bytes: u64,
    /// Agents created.
    #[serde(default)]
    pub agents_created: u64,
    /// Agents disposed.
    #[serde(default)]
    pub agents_disposed: u64,
    /// Deactivations performed.
    #[serde(default)]
    pub deactivations: u64,
    /// Activations performed.
    #[serde(default)]
    pub activations: u64,
    /// Timer callbacks fired.
    #[serde(default)]
    pub timers_fired: u64,
    /// Messages/migrations dropped because of an active chaos fault
    /// (partition, crash, or fault-loss overlay) rather than the link's
    /// own configured loss.
    #[serde(default)]
    pub chaos_drops: u64,
    /// Duplicate message copies injected by the chaos engine.
    #[serde(default)]
    pub chaos_dupes: u64,
    /// Messages delayed (reordered) by the chaos engine's jitter.
    #[serde(default)]
    pub chaos_delays: u64,
    /// Duplicate deliveries suppressed by receiver-side deduplication.
    #[serde(default)]
    pub dupes_suppressed: u64,
    /// Host crashes injected.
    #[serde(default)]
    pub host_crashes: u64,
    /// Agents (active or deactivated capsules) lost to a host crash.
    #[serde(default)]
    pub agents_lost_in_crash: u64,
    /// Retry attempts made by application agents (re-dispatch, watchdog
    /// re-arm) via [`crate::agent::Ctx::count_retry`].
    #[serde(default)]
    pub retries: u64,
    /// Degraded (partial/fallback) replies served by application agents
    /// via [`crate::agent::Ctx::count_degraded_reply`].
    #[serde(default)]
    pub degraded_replies: u64,
    /// Requests shed by admission control via
    /// [`crate::agent::Ctx::count_shed`].
    #[serde(default)]
    pub requests_shed: u64,
    /// Dispatches suppressed by an open circuit breaker via
    /// [`crate::agent::Ctx::count_breaker_rejection`].
    #[serde(default)]
    pub breaker_rejections: u64,
    /// Messages or migrations dropped because their request deadline had
    /// already passed when they were due for delivery.
    #[serde(default)]
    pub deadline_drops: u64,
    /// Deliveries rejected (or evicted) by a bounded mailbox.
    #[serde(default)]
    pub mailbox_rejections: u64,
    /// Messages that crossed a shard boundary (sharded DES runs only).
    #[serde(default)]
    pub boundary_messages: u64,
    /// Agent migrations that crossed a shard boundary.
    #[serde(default)]
    pub boundary_migrations: u64,
    /// Records appended to durable-store write-ahead logs.
    #[serde(default)]
    pub wal_records_appended: u64,
    /// WAL records replayed during crash-recovery passes.
    #[serde(default)]
    pub wal_records_replayed: u64,
    /// Durable-store checkpoints (snapshot + log truncation) taken.
    #[serde(default)]
    pub checkpoints: u64,
    /// Encoded bytes of the delta-journalled agents' capsules captured at
    /// checkpoints: the checkpoints' capture work.
    #[serde(default)]
    pub checkpoint_capture_bytes: u64,
    /// Host restarts that ran a durable recovery pass.
    #[serde(default)]
    pub hosts_recovered: u64,
    /// Agents restored from journalled capsules after a crash.
    #[serde(default)]
    pub agents_recovered: u64,
    /// Purchase intents write-ahead-logged.
    #[serde(default)]
    pub intents_logged: u64,
    /// Purchase commits write-ahead-logged.
    #[serde(default)]
    pub purchases_committed: u64,
    /// Purchase aborts write-ahead-logged.
    #[serde(default)]
    pub purchases_aborted: u64,
    /// In-doubt intents resolved by querying the marketplace ledger.
    #[serde(default)]
    pub intents_resolved_by_ledger: u64,
    /// Profile deltas write-ahead-logged.
    #[serde(default)]
    pub profile_deltas_logged: u64,
    /// Profile deltas replayed into recovered agents.
    #[serde(default)]
    pub profile_deltas_replayed: u64,
    /// Hang faults injected by the chaos engine (host wedged, not dead).
    #[serde(default)]
    pub hangs_injected: u64,
    /// Hung hosts detected (and bounced) by the supervisor's progress
    /// watermark.
    #[serde(default)]
    pub hangs_detected: u64,
    /// Hosts marked *suspected* after missing a heartbeat lease.
    #[serde(default)]
    pub hosts_suspected: u64,
    /// Suspicions that aged past the lease grace period, triggering
    /// automatic recovery.
    #[serde(default)]
    pub leases_expired: u64,
    /// Automatic host recoveries performed by the supervisor (standby
    /// failover on the DES runtime, a restart in place on the threaded
    /// one).
    #[serde(default)]
    pub failovers: u64,
    /// Roaming agents re-bound to a new home host by a failover.
    #[serde(default)]
    pub agents_rehomed: u64,
    /// Orphaned roaming agents retired (disposed) because their home host
    /// failed over without restoring any owner to re-bind them to.
    #[serde(default)]
    pub agents_retired: u64,
    /// Agents quarantined to dead-letters after exhausting their restart
    /// budget (crash-looping), instead of being restored yet again.
    #[serde(default)]
    pub agents_quarantined: u64,
}

impl Metrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes that crossed host boundaries (messages + migrations).
    pub fn total_network_bytes(&self) -> u64 {
        self.remote_message_bytes + self.migration_bytes
    }

    /// Agents currently alive according to the counters.
    pub fn live_agents(&self) -> u64 {
        self.agents_created.saturating_sub(self.agents_disposed)
    }

    /// Fold another shard's counters into this one (field-wise sum).
    ///
    /// Used by the sharded runtime to present a single platform-wide view.
    /// Implemented over the serialized form so a counter added to the
    /// struct can never be silently left out of the merge.
    pub fn merge(&mut self, other: &Metrics) {
        let mine = serde_json::to_value(&*self).expect("metrics serialize");
        let theirs = serde_json::to_value(other).expect("metrics serialize");
        let (mine_obj, theirs_obj) = (
            mine.as_object().expect("metrics is an object"),
            theirs.as_object().expect("metrics is an object"),
        );
        let mut merged = serde_json::Map::new();
        for (key, value) in mine_obj {
            let sum = value.as_u64().unwrap_or(0).saturating_add(
                theirs_obj
                    .get(key)
                    .and_then(serde_json::Value::as_u64)
                    .unwrap_or(0),
            );
            merged.insert(key.clone(), serde_json::json!(sum));
        }
        *self =
            serde_json::from_value(serde_json::Value::Object(merged)).expect("metrics deserialize");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_network_bytes_sums_components() {
        let m = Metrics {
            remote_message_bytes: 100,
            migration_bytes: 50,
            ..Metrics::default()
        };
        assert_eq!(m.total_network_bytes(), 150);
    }

    #[test]
    fn live_agents_never_underflows() {
        let m = Metrics {
            agents_created: 2,
            agents_disposed: 5,
            ..Metrics::default()
        };
        assert_eq!(m.live_agents(), 0);
        let m = Metrics {
            agents_created: 5,
            agents_disposed: 2,
            ..Metrics::default()
        };
        assert_eq!(m.live_agents(), 3);
    }

    #[test]
    fn metrics_round_trip_serde() {
        let m = Metrics {
            messages_delivered: 7,
            ..Metrics::default()
        };
        let back: Metrics = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn every_field_round_trips_nonzero() {
        // populate every counter with a distinct value so a missing
        // serde attribute or renamed field cannot hide
        let text = serde_json::to_string(&Metrics::default()).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        let populated = serde_json::Value::Object(
            value
                .as_object()
                .unwrap()
                .iter()
                .enumerate()
                .map(|(i, (k, _))| (k.clone(), serde_json::json!(i as u64 + 1)))
                .collect(),
        );
        let back: Metrics = serde_json::from_value(populated.clone()).unwrap();
        assert_eq!(serde_json::to_value(&back).unwrap(), populated);
    }

    #[test]
    fn merge_sums_every_field() {
        // exercise the serde-based merge against fully populated inputs so
        // a field skipped by the merge shows up as an inequality
        let text = serde_json::to_string(&Metrics::default()).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        let populated = |base: u64| -> Metrics {
            serde_json::from_value(serde_json::Value::Object(
                value
                    .as_object()
                    .unwrap()
                    .iter()
                    .enumerate()
                    .map(|(i, (k, _))| (k.clone(), serde_json::json!(base + i as u64)))
                    .collect(),
            ))
            .unwrap()
        };
        let mut a = populated(1);
        let b = populated(100);
        a.merge(&b);
        let expected: serde_json::Value = serde_json::Value::Object(
            value
                .as_object()
                .unwrap()
                .iter()
                .enumerate()
                .map(|(i, (k, _))| (k.clone(), serde_json::json!(101 + 2 * i as u64)))
                .collect(),
        );
        assert_eq!(serde_json::to_value(&a).unwrap(), expected);
    }

    #[test]
    fn legacy_snapshots_deserialize_with_defaults() {
        // a pre-chaos-engine snapshot: only the original twelve counters
        let legacy = serde_json::json!({
            "messages_delivered": 3,
            "messages_lost": 1,
            "messages_dead_lettered": 0,
            "remote_message_bytes": 512,
            "migrations": 2,
            "migrations_rejected": 0,
            "migration_bytes": 256,
            "agents_created": 4,
            "agents_disposed": 1,
            "deactivations": 0,
            "activations": 0,
            "timers_fired": 5
        });
        let m: Metrics = serde_json::from_value(legacy).unwrap();
        assert_eq!(m.messages_delivered, 3);
        assert_eq!(m.timers_fired, 5);
        assert_eq!(m.chaos_drops, 0);
        assert_eq!(m.retries, 0);

        // ...and the degenerate empty snapshot: every field defaulted
        let empty: Metrics = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, Metrics::default());
    }
}
