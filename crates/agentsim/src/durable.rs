//! Per-host durable state: WAL-backed capsules, purchase intents and
//! profile deltas, with snapshot checkpointing and crash recovery.
//!
//! A [`DurableStore`] models the stable storage a production host would
//! put under its agent runtime. Every capsule boundary (callback end,
//! deactivation, arrival), every two-phase purchase record and every
//! profile delta is appended to a [`simdb::Wal`] using the durability
//! record variants; a `synced` watermark models the fsync point — on a
//! crash only the synced prefix survives, so the store can answer "what
//! would a real disk hold" without ever touching the filesystem.
//!
//! Policy, mirroring production databases:
//! * purchase records ([`LogRecord::PurchaseIntent`] /
//!   [`LogRecord::PurchaseCommit`] / [`LogRecord::PurchaseAbort`]) and
//!   forced deltas (the marketplace's sales, counters and bids) are
//!   **forced**: the watermark advances through them immediately
//!   (fsync-on-commit), so a logged intent or sale is never lost;
//! * an agent's first capsule on a host is forced by the runtime, and a
//!   departure or disposal ([`LogRecord::CapsuleGone`]) is forced here;
//! * other capsule and delta records batch: the watermark advances once
//!   `sync_every` unsynced records accumulate (1 = sync everything);
//! * output commit: before the runtime releases anything an agent emitted
//!   to the outside world, it forces the watermark through every record
//!   so far with [`DurableStore::sync`];
//! * a checkpoint keeps the materialized state as the snapshot and
//!   truncates the log, bounding replay cost. A delta-journalled agent's
//!   capsule is re-captured at a checkpoint only once the deltas carried
//!   since its last capture encode to at least as many bytes as that
//!   capture ([`DurableStore::needs_capture`]); until then the snapshot
//!   carries the capsule and its deltas forward, so capture work follows
//!   the bytes journalled, not the size of the agent's state.
//!
//! Capsule and delta trees are shared, not copied: a journalled tree is
//! one `Arc<serde_json::Value>` held by its log record, the live state
//! and the snapshot alike, so journaling, checkpointing, cloning the
//! store and recovering bump reference counts. The snapshot is a
//! [`DurableState`], encoded to bytes only at the disk boundary — when a
//! file-backed store writes its `.snap` file, or when
//! [`DurableStore::snapshot_bytes`] is asked for them.

use crate::metrics::Metrics;
use crate::payload::encoded_len_of;
use serde::{Deserialize, Serialize};
use simdb::file_wal::FileWal;
use simdb::wal::{LogRecord, Wal};
use simdb::{DbError, Result};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Tuning knobs for per-host durability. Installed on a world via
/// `enable_durability`; absent = the host keeps no durable state and all
/// journaling actions are no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilityConfig {
    /// Checkpoint (snapshot + truncate) once this many records have been
    /// appended since the last checkpoint. 0 disables checkpointing.
    pub checkpoint_every: usize,
    /// Advance the fsync watermark once this many unsynced capsule/delta
    /// records accumulate. Purchase records always force a sync. 1 syncs
    /// every record.
    pub sync_every: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            checkpoint_every: 256,
            sync_every: 1,
        }
    }
}

/// A capsule as the durable store holds it: the serialized
/// [`crate::agent::AgentCapsule`] plus whether the agent was active or
/// deactivated when last journalled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapsuleRecord {
    /// Serialized `AgentCapsule` (id, type, state, home, permit), shared
    /// with the log record that journalled it.
    pub capsule: Arc<serde_json::Value>,
    /// `true` = running agent journalled at a callback boundary;
    /// `false` = deactivated into long-term storage.
    pub active: bool,
}

/// Resolution state of a logged purchase intent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IntentState {
    /// Intent logged, outcome unknown — after a crash this must be
    /// resolved against the marketplace ledger before retrying. The
    /// detail is shared with the log record that journalled it.
    Pending(Arc<serde_json::Value>),
    /// The purchase definitely happened.
    Committed(Arc<serde_json::Value>),
    /// The purchase definitely did not happen.
    Aborted(String),
}

/// The materialized durable state of one host: what a recovery pass gets
/// back after replaying the WAL over the last snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DurableState {
    /// Last journalled capsule per agent (raw id), capsule- and
    /// delta-policy agents alike.
    pub capsules: BTreeMap<u64, CapsuleRecord>,
    /// Purchase intents keyed by intent id.
    pub intents: BTreeMap<String, IntentState>,
    /// State deltas of delta-policy agents in log order: `(agent raw id,
    /// delta)`. An agent's deltas are cleared by the checkpoint that
    /// re-captures its capsule (which absorbs them) and carried forward
    /// by the others.
    pub deltas: Vec<(u64, Arc<serde_json::Value>)>,
}

impl DurableState {
    /// Apply one log record to the materialized state.
    fn apply(&mut self, record: &LogRecord) {
        match record {
            LogRecord::Capsule {
                agent,
                capsule,
                active,
            } => {
                self.capsules.insert(
                    *agent,
                    CapsuleRecord {
                        capsule: Arc::clone(capsule),
                        active: *active,
                    },
                );
            }
            LogRecord::CapsuleGone { agent } => {
                self.capsules.remove(agent);
                self.deltas.retain(|(a, _)| a != agent);
            }
            LogRecord::PurchaseIntent { intent, detail } => {
                // an intent never downgrades a known outcome (idempotent
                // replay: a re-logged intent after a commit is a no-op)
                self.intents
                    .entry(intent.clone())
                    .or_insert_with(|| IntentState::Pending(Arc::clone(detail)));
            }
            LogRecord::PurchaseCommit { intent, detail } => {
                self.intents
                    .insert(intent.clone(), IntentState::Committed(Arc::clone(detail)));
            }
            LogRecord::PurchaseAbort { intent, reason } => {
                // commit wins over a racing abort record on replay; a
                // committed purchase is never un-happened
                match self.intents.get(intent) {
                    Some(IntentState::Committed(_)) => {}
                    _ => {
                        self.intents
                            .insert(intent.clone(), IntentState::Aborted(reason.clone()));
                    }
                }
            }
            LogRecord::ProfileDelta { agent, delta } => {
                self.deltas.push((*agent, Arc::clone(delta)));
            }
        }
    }

    /// Deltas logged for `agent`, in log order.
    pub fn deltas_for(&self, agent: u64) -> Vec<serde_json::Value> {
        self.deltas
            .iter()
            .filter(|(a, _)| *a == agent)
            .map(|(_, d)| d.as_ref().clone())
            .collect()
    }
}

/// Counters a [`DurableStore`] accumulates; merged into the world
/// [`Metrics`] by the owning runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableCounters {
    /// WAL records appended (any kind).
    pub wal_records_appended: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Purchase intents logged.
    pub intents_logged: u64,
    /// Purchase commits logged.
    pub purchases_committed: u64,
    /// Purchase aborts logged.
    pub purchases_aborted: u64,
    /// State deltas logged (batched and forced).
    pub profile_deltas_logged: u64,
    /// Encoded bytes of the capsules captured at checkpoints.
    pub checkpoint_capture_bytes: u64,
}

impl DurableCounters {
    /// Fold these counters into the world metrics.
    pub fn merge_into(&self, m: &mut Metrics) {
        m.wal_records_appended += self.wal_records_appended;
        m.checkpoints += self.checkpoints;
        m.intents_logged += self.intents_logged;
        m.purchases_committed += self.purchases_committed;
        m.purchases_aborted += self.purchases_aborted;
        m.profile_deltas_logged += self.profile_deltas_logged;
        m.checkpoint_capture_bytes += self.checkpoint_capture_bytes;
    }
}

/// What a recovery pass found: the materialized state plus how much log
/// had to be replayed to get there.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// Materialized durable state (synced prefix over last snapshot).
    pub state: DurableState,
    /// WAL records replayed over the snapshot.
    pub replayed: usize,
}

/// Encoded-byte tallies of one agent's durable record, read by the
/// checkpoint rule ([`DurableStore::needs_capture`]). Derived state:
/// rebuilt from the materialized state on replay, never serialised.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Encoded length of the agent's capsule, measured once: when a
    /// checkpoint captures it, or else at the first checkpoint that asks.
    baseline: Option<usize>,
    /// Encoded length of the deltas carried since that capsule, each
    /// measured when it is logged.
    deltas: usize,
}

/// The byte tallies of every agent with carried deltas in `state`.
fn tallies_of(state: &DurableState) -> BTreeMap<u64, Tally> {
    let mut tallies: BTreeMap<u64, Tally> = BTreeMap::new();
    for (agent, delta) in &state.deltas {
        tallies.entry(*agent).or_default().deltas += encoded_len_of(delta);
    }
    tallies
}

/// Real-file persistence side-car for a [`DurableStore`]: the WAL is
/// mirrored to `wal` record-for-record and the snapshot lands next to it
/// at `snap_path` on every checkpoint.
#[derive(Debug)]
struct FileBacking {
    wal: FileWal,
    snap_path: PathBuf,
}

/// The stable storage of one durable host.
#[derive(Debug)]
pub struct DurableStore {
    cfg: DurabilityConfig,
    /// The state as of the last checkpoint, sharing its trees with
    /// `state`; `None` before the first one.
    snapshot: Option<DurableState>,
    wal: Wal,
    /// Fsync watermark: records `< synced` survive a crash.
    synced: usize,
    /// Materialized view of snapshot + full WAL (what a crash-free
    /// reader sees).
    state: DurableState,
    /// Byte tallies of capsules and carried deltas, per agent.
    tallies: BTreeMap<u64, Tally>,
    since_checkpoint: usize,
    counters: DurableCounters,
    /// Real-file mirror; `None` = purely simulated stable storage.
    file: Option<FileBacking>,
}

impl Clone for DurableStore {
    /// Clones are in-memory: the file backing (if any) stays with the
    /// original — two handles appending to one log would corrupt it.
    fn clone(&self) -> Self {
        DurableStore {
            cfg: self.cfg,
            snapshot: self.snapshot.clone(),
            wal: self.wal.clone(),
            synced: self.synced,
            state: self.state.clone(),
            tallies: self.tallies.clone(),
            since_checkpoint: self.since_checkpoint,
            counters: self.counters,
            file: None,
        }
    }
}

impl DurableStore {
    /// Empty store under `cfg`.
    pub fn new(cfg: DurabilityConfig) -> Self {
        DurableStore {
            cfg,
            snapshot: None,
            wal: Wal::new(),
            synced: 0,
            state: DurableState::default(),
            tallies: BTreeMap::new(),
            since_checkpoint: 0,
            counters: DurableCounters::default(),
            file: None,
        }
    }

    /// Open (or create) a store backed by real files: the WAL at `path`
    /// and the snapshot beside it at `{path}.snap`. Existing files are
    /// recovered — snapshot plus surviving log prefix, with a torn final
    /// record repaired — so a process restart resumes where the disk left
    /// off. Everything already on disk counts as synced.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on filesystem failures; [`DbError::WalCorrupt`] /
    /// [`DbError::Serialization`] if the on-disk log or snapshot is
    /// corrupt beyond a torn tail.
    pub fn with_file(cfg: DurabilityConfig, path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let mut snap_os = path.as_os_str().to_os_string();
        snap_os.push(".snap");
        let snap_path = PathBuf::from(snap_os);
        let snapshot = match std::fs::read(&snap_path) {
            Ok(bytes) => Self::decode_snapshot(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(DbError::Io(e.to_string())),
        };
        let (file_wal, wal) = FileWal::open(path)?;
        let recovered = Self::replay(snapshot.as_ref(), &wal);
        let synced = wal.len();
        Ok(DurableStore {
            cfg,
            snapshot,
            wal,
            synced,
            tallies: tallies_of(&recovered.state),
            state: recovered.state,
            since_checkpoint: synced,
            counters: DurableCounters::default(),
            file: Some(FileBacking {
                wal: file_wal,
                snap_path,
            }),
        })
    }

    /// Whether this store mirrors to real files.
    pub fn is_file_backed(&self) -> bool {
        self.file.is_some()
    }

    /// The store's configuration.
    pub fn config(&self) -> DurabilityConfig {
        self.cfg
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> DurableCounters {
        self.counters
    }

    /// Reset the counters after they have been merged elsewhere.
    pub fn take_counters(&mut self) -> DurableCounters {
        std::mem::take(&mut self.counters)
    }

    /// Records currently in the WAL (snapshot excluded).
    pub fn wal_len(&self) -> usize {
        self.wal.len()
    }

    /// Records below the fsync watermark (these survive a crash).
    pub fn synced_len(&self) -> usize {
        self.synced
    }

    /// The live materialized state (snapshot + full WAL; crash-free view).
    pub fn state(&self) -> &DurableState {
        &self.state
    }

    fn append(&mut self, record: LogRecord, force_sync: bool) -> Result<()> {
        self.state.apply(&record);
        self.tally(&record);
        if let Some(f) = self.file.as_mut() {
            f.wal.append(&record)?;
        }
        self.wal.append(record);
        self.counters.wal_records_appended += 1;
        self.since_checkpoint += 1;
        if force_sync || self.wal.len() - self.synced >= self.cfg.sync_every.max(1) {
            self.sync()?;
        }
        Ok(())
    }

    /// Keep the byte tallies in step with one appended record.
    fn tally(&mut self, record: &LogRecord) {
        match record {
            LogRecord::Capsule { agent, .. } => {
                // a new capsule is a new baseline; the state keeps the
                // deltas carried so far, and so does the tally
                if let Some(t) = self.tallies.get_mut(agent) {
                    t.baseline = None;
                }
            }
            LogRecord::CapsuleGone { agent } => {
                self.tallies.remove(agent);
            }
            LogRecord::ProfileDelta { agent, delta } => {
                self.tallies.entry(*agent).or_default().deltas += encoded_len_of(delta);
            }
            LogRecord::PurchaseIntent { .. }
            | LogRecord::PurchaseCommit { .. }
            | LogRecord::PurchaseAbort { .. } => {}
        }
    }

    /// Force the fsync watermark through every record appended so far, so
    /// all of it survives a crash. A no-op when nothing is unsynced.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] only on a file-backed store whose log fails to sync.
    pub fn sync(&mut self) -> Result<()> {
        if self.synced == self.wal.len() {
            return Ok(());
        }
        self.synced = self.wal.len();
        if let Some(f) = self.file.as_mut() {
            f.wal.sync()?;
        }
        Ok(())
    }

    /// Journal an agent capsule (active or deactivated). Batched sync.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] only on a file-backed store whose log append or
    /// sync fails.
    pub fn put_capsule(
        &mut self,
        agent: u64,
        capsule: serde_json::Value,
        active: bool,
    ) -> Result<()> {
        self.append(
            LogRecord::Capsule {
                agent,
                capsule: Arc::new(capsule),
                active,
            },
            false,
        )
    }

    /// The agent left this host (dispatch away or dispose); forget it.
    /// Forced: a crash after a departure must never resurrect a second
    /// copy of an agent that is already travelling or disposed.
    ///
    /// # Errors
    ///
    /// See [`DurableStore::put_capsule`].
    pub fn remove_capsule(&mut self, agent: u64) -> Result<()> {
        self.append(LogRecord::CapsuleGone { agent }, true)
    }

    /// Log a purchase intent. Forced to the synced prefix immediately.
    ///
    /// # Errors
    ///
    /// See [`DurableStore::put_capsule`].
    pub fn log_intent(&mut self, intent: String, detail: serde_json::Value) -> Result<()> {
        self.counters.intents_logged += 1;
        let detail = Arc::new(detail);
        self.append(LogRecord::PurchaseIntent { intent, detail }, true)
    }

    /// Log a purchase commit. Forced.
    ///
    /// # Errors
    ///
    /// See [`DurableStore::put_capsule`].
    pub fn log_commit(&mut self, intent: String, detail: serde_json::Value) -> Result<()> {
        self.counters.purchases_committed += 1;
        let detail = Arc::new(detail);
        self.append(LogRecord::PurchaseCommit { intent, detail }, true)
    }

    /// Log a purchase abort. Forced.
    ///
    /// # Errors
    ///
    /// See [`DurableStore::put_capsule`].
    pub fn log_abort(&mut self, intent: String, reason: String) -> Result<()> {
        self.counters.purchases_aborted += 1;
        self.append(LogRecord::PurchaseAbort { intent, reason }, true)
    }

    /// Log a state delta for a delta-policy agent. Batched sync.
    ///
    /// # Errors
    ///
    /// See [`DurableStore::put_capsule`].
    pub fn log_delta(&mut self, agent: u64, delta: serde_json::Value) -> Result<()> {
        self.counters.profile_deltas_logged += 1;
        let delta = Arc::new(delta);
        self.append(LogRecord::ProfileDelta { agent, delta }, false)
    }

    /// Log a state delta that records an obligation to another party (a
    /// sale, an accepted offer). Forced, like a purchase record.
    ///
    /// # Errors
    ///
    /// See [`DurableStore::put_capsule`].
    pub fn log_forced_delta(&mut self, agent: u64, delta: serde_json::Value) -> Result<()> {
        self.counters.profile_deltas_logged += 1;
        let delta = Arc::new(delta);
        self.append(LogRecord::ProfileDelta { agent, delta }, true)
    }

    /// Whether enough records have accumulated to warrant a checkpoint.
    pub fn should_checkpoint(&self) -> bool {
        self.cfg.checkpoint_every > 0 && self.since_checkpoint >= self.cfg.checkpoint_every
    }

    /// The checkpoint rule for the delta-journalled, active `agent`:
    /// re-capture it when the store holds no active capsule for it, or
    /// when the deltas carried since its capsule encode to at least as
    /// many bytes as the capsule. Otherwise the checkpoint carries capsule
    /// and deltas forward: recovery then decodes under twice the capsule's
    /// bytes for the agent, and capture work per journalled byte stays
    /// constant.
    pub fn needs_capture(&mut self, agent: u64) -> bool {
        let Some(rec) = self.state.capsules.get(&agent) else {
            return true;
        };
        if !rec.active {
            return true;
        }
        let tally = self.tallies.entry(agent).or_default();
        let baseline = *tally
            .baseline
            .get_or_insert_with(|| encoded_len_of(&rec.capsule));
        tally.deltas >= baseline
    }

    /// Checkpoint: fold `fresh_capsules` (live capsules of delta-policy
    /// agents the runtime re-captured at the checkpoint boundary, see
    /// [`DurableStore::needs_capture`]) into the state, keep it as the new
    /// snapshot, truncate the WAL and clear the absorbed deltas; other
    /// agents' deltas stay in the snapshot beside their capsules. The
    /// snapshot shares every tree with the live state; only a file-backed
    /// store encodes it, to write its `.snap` file.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] only on a file-backed store, if writing the
    /// snapshot or truncating the log file fails; an in-memory checkpoint
    /// cannot fail. On a file-backed store the snapshot is written via
    /// temp-file + rename so it is never torn; a crash between the rename
    /// and the log truncation can replay pre-checkpoint records over the
    /// new snapshot (idempotent for capsules and intents, duplicating
    /// only profile deltas) — a bounded, documented window.
    pub fn checkpoint(
        &mut self,
        fresh_capsules: Vec<(u64, serde_json::Value, bool)>,
    ) -> Result<()> {
        for (agent, capsule, active) in fresh_capsules {
            let bytes = encoded_len_of(&capsule);
            self.counters.checkpoint_capture_bytes += bytes as u64;
            self.tallies.insert(
                agent,
                Tally {
                    baseline: Some(bytes),
                    deltas: 0,
                },
            );
            let capsule = Arc::new(capsule);
            self.state
                .capsules
                .insert(agent, CapsuleRecord { capsule, active });
            self.state.deltas.retain(|(a, _)| *a != agent);
        }
        self.snapshot = Some(self.state.clone());
        self.wal.truncate();
        self.synced = 0;
        self.since_checkpoint = 0;
        self.counters.checkpoints += 1;
        if let Some(f) = self.file.as_mut() {
            let mut tmp_os = f.snap_path.as_os_str().to_os_string();
            tmp_os.push(".tmp");
            let tmp = PathBuf::from(tmp_os);
            std::fs::write(&tmp, Self::encode_snapshot(&self.state))
                .map_err(|e| DbError::Io(e.to_string()))?;
            std::fs::rename(&tmp, &f.snap_path).map_err(|e| DbError::Io(e.to_string()))?;
            f.wal.reset(&self.wal)?;
        }
        Ok(())
    }

    /// Crash the host: everything past the fsync watermark is lost, and
    /// the materialized state is rebuilt from the snapshot plus the
    /// surviving log prefix — exactly what recovery will see.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on a file-backed store whose log cannot be cut
    /// back to the synced prefix.
    pub fn crash(&mut self) -> Result<()> {
        self.wal.retain_prefix(self.synced);
        if let Some(f) = self.file.as_mut() {
            // mirror the loss: the file keeps only the synced prefix
            f.wal.reset(&self.wal)?;
        }
        self.state = Self::replay(self.snapshot.as_ref(), &self.wal).state;
        self.tallies = tallies_of(&self.state);
        Ok(())
    }

    /// Recovery pass: materialize snapshot + WAL. On a store that has
    /// been [`DurableStore::crash`]ed this is the durable view; on a live
    /// store it equals [`DurableStore::state`].
    pub fn recover(&self) -> Recovered {
        Self::replay(self.snapshot.as_ref(), &self.wal)
    }

    /// Apply `wal` over a copy of `snapshot` (sharing its trees).
    fn replay(snapshot: Option<&DurableState>, wal: &Wal) -> Recovered {
        let mut state = snapshot.cloned().unwrap_or_default();
        for record in wal.records() {
            state.apply(record);
        }
        Recovered {
            state,
            replayed: wal.len(),
        }
    }

    fn encode_snapshot(state: &DurableState) -> Vec<u8> {
        serde_json::to_vec(state).unwrap_or_default()
    }

    /// Decode snapshot bytes; empty bytes are "no snapshot yet".
    fn decode_snapshot(bytes: &[u8]) -> Result<Option<DurableState>> {
        if bytes.is_empty() {
            return Ok(None);
        }
        serde_json::from_slice(bytes)
            .map(Some)
            .map_err(|e| DbError::Serialization(e.to_string()))
    }

    /// Replay an encoded snapshot + WAL byte log into a state — the
    /// pure function the property tests exercise: `replay(snapshot,
    /// encode(log))` must equal direct application, be idempotent and
    /// tolerate any prefix truncation.
    ///
    /// # Errors
    ///
    /// [`DbError::WalCorrupt`] for undecodable non-final records;
    /// [`DbError::Serialization`] for an unreadable snapshot.
    pub fn replay_bytes(snapshot: &[u8], wal_bytes: &[u8]) -> Result<Recovered> {
        let snapshot = Self::decode_snapshot(snapshot)?;
        let wal = Wal::decode(wal_bytes)?;
        Ok(Self::replay(snapshot.as_ref(), &wal))
    }

    /// Current WAL bytes (what would be on disk past the snapshot).
    pub fn wal_bytes(&self) -> Vec<u8> {
        self.wal.encode()
    }

    /// The snapshot from the last checkpoint, encoded on call (empty
    /// before the first checkpoint): what a file-backed store holds in
    /// its `.snap` file.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.snapshot
            .as_ref()
            .map(Self::encode_snapshot)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use serde_json::json;

    fn cfg(sync_every: usize) -> DurabilityConfig {
        DurabilityConfig {
            checkpoint_every: 0,
            sync_every,
        }
    }

    #[test]
    fn capsule_lifecycle_materializes() {
        let mut s = DurableStore::new(cfg(1));
        s.put_capsule(7, json!({"x": 1}), true).unwrap();
        s.put_capsule(7, json!({"x": 2}), false).unwrap();
        assert_eq!(
            s.state().capsules.get(&7).unwrap(),
            &CapsuleRecord {
                capsule: json!({"x": 2}).into(),
                active: false
            }
        );
        s.remove_capsule(7).unwrap();
        assert!(s.state().capsules.is_empty());
    }

    #[test]
    fn unsynced_tail_is_lost_on_crash_but_forced_records_survive() {
        let mut s = DurableStore::new(cfg(100)); // batch: nothing syncs on its own
        s.put_capsule(1, json!({"a": 1}), true).unwrap();
        s.log_intent("42".into(), json!({"item": 3})).unwrap(); // forced: syncs the prefix
        s.put_capsule(2, json!({"b": 2}), true).unwrap(); // unsynced tail
        assert_eq!(s.synced_len(), 2);
        s.crash().unwrap();
        let rec = s.recover();
        assert!(
            rec.state.capsules.contains_key(&1),
            "pre-intent capsule synced"
        );
        assert!(!rec.state.capsules.contains_key(&2), "unsynced tail lost");
        assert!(matches!(
            rec.state.intents.get("42"),
            Some(IntentState::Pending(_))
        ));
    }

    #[test]
    fn explicit_sync_makes_the_batched_tail_survive_a_crash() {
        let mut s = DurableStore::new(cfg(100));
        s.put_capsule(1, json!({"a": 1}), true).unwrap();
        s.sync().unwrap();
        assert_eq!(s.synced_len(), 1);
        s.put_capsule(2, json!({"b": 2}), true).unwrap();
        s.crash().unwrap();
        let rec = s.recover();
        assert!(rec.state.capsules.contains_key(&1), "synced record kept");
        assert!(!rec.state.capsules.contains_key(&2), "later tail lost");
    }

    #[test]
    fn commit_wins_over_replayed_abort_and_intent_never_downgrades() {
        let mut st = DurableState::default();
        st.apply(&LogRecord::PurchaseIntent {
            intent: "1".into(),
            detail: json!({}).into(),
        });
        st.apply(&LogRecord::PurchaseCommit {
            intent: "1".into(),
            detail: json!({"price": 2.0}).into(),
        });
        st.apply(&LogRecord::PurchaseIntent {
            intent: "1".into(),
            detail: json!({}).into(),
        });
        st.apply(&LogRecord::PurchaseAbort {
            intent: "1".into(),
            reason: "late".into(),
        });
        assert!(matches!(
            st.intents.get("1"),
            Some(IntentState::Committed(_))
        ));
    }

    #[test]
    fn checkpoint_truncates_and_recovery_still_sees_everything() {
        let mut s = DurableStore::new(DurabilityConfig {
            checkpoint_every: 3,
            sync_every: 1,
        });
        s.put_capsule(1, json!({"v": 1}), true).unwrap();
        s.log_intent("9".into(), json!({})).unwrap();
        s.log_commit("9".into(), json!({"ok": true})).unwrap();
        assert!(s.should_checkpoint());
        s.checkpoint(Vec::new()).unwrap();
        assert_eq!(s.wal_len(), 0);
        s.log_delta(5, json!({"d": 1})).unwrap();
        let rec = s.recover();
        assert_eq!(rec.replayed, 1, "only post-checkpoint records replay");
        assert!(rec.state.capsules.contains_key(&1));
        assert!(matches!(
            rec.state.intents.get("9"),
            Some(IntentState::Committed(_))
        ));
        assert_eq!(rec.state.deltas_for(5), vec![json!({"d": 1})]);
    }

    #[test]
    fn checkpoint_absorbs_fresh_capsules_and_clears_their_deltas() {
        let mut s = DurableStore::new(cfg(1));
        s.log_delta(5, json!({"d": 1})).unwrap();
        s.checkpoint(vec![(5, json!({"full": true}), true)])
            .unwrap();
        let rec = s.recover();
        assert!(rec.state.deltas_for(5).is_empty());
        assert_eq!(
            *rec.state.capsules.get(&5).unwrap().capsule,
            json!({"full": true})
        );
    }

    #[test]
    fn checkpoint_rule_recaptures_once_deltas_outweigh_the_capsule() {
        let mut s = DurableStore::new(cfg(1));
        let capsule = json!({"state": "0123456789"}); // 22 bytes
        s.put_capsule(5, capsule, true).unwrap();
        assert!(!s.needs_capture(5), "no deltas yet");
        s.log_delta(5, json!({"d": 1})).unwrap(); // 7 bytes
        s.log_delta(5, json!({"d": 2})).unwrap();
        assert!(!s.needs_capture(5), "14 delta bytes < 22 capsule bytes");
        s.checkpoint(Vec::new()).unwrap();
        assert_eq!(s.state().deltas_for(5).len(), 2, "carried forward");
        assert_eq!(s.counters().checkpoint_capture_bytes, 0);
        s.log_delta(5, json!({"d": 3})).unwrap();
        assert!(!s.needs_capture(5), "21 < 22");
        s.log_delta(5, json!({"d": 4})).unwrap();
        assert!(s.needs_capture(5), "28 >= 22");
        s.checkpoint(vec![(5, json!({"state": 4}), true)]).unwrap();
        assert_eq!(s.counters().checkpoint_capture_bytes, 11);
        assert!(s.state().deltas_for(5).is_empty());
        assert!(!s.needs_capture(5), "a fresh capture carries nothing");
        // a deactivated record or no record at all is always re-captured
        s.put_capsule(6, json!({}), false).unwrap();
        assert!(s.needs_capture(6));
        assert!(s.needs_capture(7));
    }

    #[test]
    fn tallies_are_rebuilt_on_crash() {
        let mut s = DurableStore::new(cfg(1));
        s.put_capsule(5, json!({"state": "0123456789"}), true)
            .unwrap();
        s.checkpoint(Vec::new()).unwrap();
        s.log_delta(5, json!({"d": 1})).unwrap();
        s.log_delta(5, json!({"d": 2})).unwrap();
        s.log_delta(5, json!({"d": 3})).unwrap();
        s.crash().unwrap();
        assert!(!s.needs_capture(5), "21 carried bytes < 22");
        s.log_delta(5, json!({"d": 4})).unwrap();
        assert!(s.needs_capture(5), "the tally survived the crash");
        s.remove_capsule(5).unwrap();
        s.put_capsule(5, json!({"state": "0123456789"}), true)
            .unwrap();
        assert!(!s.needs_capture(5), "a departure forgets the deltas");
    }

    #[test]
    fn tree_sharing_journal_record_and_state() {
        let mut s = DurableStore::new(cfg(1));
        s.put_capsule(7, json!({"x": 1}), true).unwrap();
        s.log_delta(8, json!({"d": 1})).unwrap();
        let capsule = &s.state().capsules[&7].capsule;
        assert!(matches!(
            &s.wal.records()[0],
            LogRecord::Capsule { capsule: c, .. } if Arc::ptr_eq(c, capsule)
        ));
        assert!(matches!(
            &s.wal.records()[1],
            LogRecord::ProfileDelta { delta, .. } if Arc::ptr_eq(delta, &s.state().deltas[0].1)
        ));
        let copy = s.clone();
        assert!(Arc::ptr_eq(capsule, &copy.state().capsules[&7].capsule));
        assert!(Arc::ptr_eq(
            capsule,
            &s.recover().state.capsules[&7].capsule
        ));
    }

    #[test]
    fn tree_sharing_intent_details() {
        let mut s = DurableStore::new(cfg(1));
        s.log_intent("1".into(), json!({"item": 3})).unwrap();
        s.log_commit("2".into(), json!({"price": 9.5})).unwrap();
        let detail = |st: &DurableState, id: &str| match &st.intents[id] {
            IntentState::Pending(d) | IntentState::Committed(d) => Arc::clone(d),
            IntentState::Aborted(_) => unreachable!("no abort logged"),
        };
        assert!(matches!(
            &s.wal.records()[0],
            LogRecord::PurchaseIntent { detail: d, .. } if Arc::ptr_eq(d, &detail(s.state(), "1"))
        ));
        assert!(matches!(
            &s.wal.records()[1],
            LogRecord::PurchaseCommit { detail: d, .. } if Arc::ptr_eq(d, &detail(s.state(), "2"))
        ));
        s.checkpoint(Vec::new()).unwrap();
        let snapshot = s.snapshot.as_ref().unwrap();
        for id in ["1", "2"] {
            assert!(Arc::ptr_eq(&detail(snapshot, id), &detail(s.state(), id)));
        }
    }

    #[test]
    fn tree_sharing_snapshot_and_state() {
        let mut s = DurableStore::new(cfg(1));
        s.put_capsule(7, json!({"x": 1}), true).unwrap();
        s.checkpoint(vec![(5, json!({"full": true}), true)])
            .unwrap();
        let snapshot = s.snapshot.as_ref().unwrap();
        for agent in [5, 7] {
            assert!(Arc::ptr_eq(
                &snapshot.capsules[&agent].capsule,
                &s.state().capsules[&agent].capsule
            ));
        }
        s.crash().unwrap();
        let snapshot = s.snapshot.as_ref().unwrap();
        assert!(Arc::ptr_eq(
            &snapshot.capsules[&5].capsule,
            &s.state().capsules[&5].capsule
        ));
    }

    /// A fixed history with one checkpoint, written by `sync_every` 2.
    fn golden_history(s: &mut DurableStore) {
        s.put_capsule(
            1,
            json!({"id": 1, "state": {"n": 2.5, "tags": ["a", "b\"c"]}}),
            true,
        )
        .unwrap();
        s.log_delta(2, json!({"kind": "Sale", "qty": 3})).unwrap();
        s.log_intent("7".into(), json!({"item": 4})).unwrap();
        s.log_commit("7".into(), json!({"price": 9.5})).unwrap();
        s.put_capsule(3, json!({"id": 3}), false).unwrap();
        s.log_delta(4, json!({"kind": "Bid", "at": -1})).unwrap();
        s.checkpoint(vec![(2, json!({"id": 2, "sold": 3}), true)])
            .unwrap();
        s.log_forced_delta(2, json!({"kind": "Sale", "qty": 1}))
            .unwrap();
        s.log_abort("8".into(), "market closed".into()).unwrap();
        s.remove_capsule(3).unwrap();
        s.put_capsule(1, json!({"id": 1, "state": {"n": 1.0}}), true)
            .unwrap();
    }

    /// The on-disk format of `golden_history`: a change to these bytes
    /// makes every `.snap` and WAL file already written unreadable.
    const GOLDEN_WAL: &str = concat!(
        r#"{"ProfileDelta":{"agent":2,"delta":{"kind":"Sale","qty":1}}}"#,
        "\n",
        r#"{"PurchaseAbort":{"intent":"8","reason":"market closed"}}"#,
        "\n",
        r#"{"CapsuleGone":{"agent":3}}"#,
        "\n",
        r#"{"Capsule":{"active":true,"agent":1,"capsule":{"id":1,"state":{"n":1.0}}}}"#,
        "\n",
    );
    const GOLDEN_SNAPSHOT: &str = concat!(
        r#"{"capsules":{"1":{"active":true,"capsule":{"id":1,"state":{"n":2.5,"tags":["a","b\"c"]}}},"#,
        r#""2":{"active":true,"capsule":{"id":2,"sold":3}},"3":{"active":false,"capsule":{"id":3}}},"#,
        r#""deltas":[[4,{"at":-1,"kind":"Bid"}]],"intents":{"7":{"Committed":{"price":9.5}}}}"#,
    );

    #[test]
    fn golden_wal_and_snapshot_bytes() {
        let mut s = DurableStore::new(DurabilityConfig {
            checkpoint_every: 0,
            sync_every: 2,
        });
        assert!(
            s.snapshot_bytes().is_empty(),
            "no snapshot before a checkpoint"
        );
        golden_history(&mut s);
        assert_eq!(String::from_utf8(s.wal_bytes()).unwrap(), GOLDEN_WAL);
        assert_eq!(
            String::from_utf8(s.snapshot_bytes()).unwrap(),
            GOLDEN_SNAPSHOT
        );
        let replayed =
            DurableStore::replay_bytes(GOLDEN_SNAPSHOT.as_bytes(), GOLDEN_WAL.as_bytes()).unwrap();
        assert_eq!(&replayed.state, s.state());
    }

    #[test]
    fn golden_files_reopen_to_the_same_state() {
        let dir = std::env::temp_dir().join(format!("durable-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("host.wal");
        let mut snap = path.as_os_str().to_os_string();
        snap.push(".snap");
        let snap = PathBuf::from(snap);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&snap);
        let cfg = DurabilityConfig {
            checkpoint_every: 0,
            sync_every: 2,
        };
        let live = {
            let mut s = DurableStore::with_file(cfg, &path).unwrap();
            golden_history(&mut s);
            s.sync().unwrap();
            s.state().clone()
        };
        assert_eq!(std::fs::read_to_string(&path).unwrap(), GOLDEN_WAL);
        assert_eq!(std::fs::read_to_string(&snap).unwrap(), GOLDEN_SNAPSHOT);
        let reopened = DurableStore::with_file(cfg, &path).unwrap();
        assert_eq!(reopened.state(), &live);
        assert_eq!(reopened.recover().state, live);
        assert_eq!(reopened.snapshot_bytes(), GOLDEN_SNAPSHOT.as_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let mut s = DurableStore::new(cfg(1));
        s.log_intent("1".into(), json!({})).unwrap();
        s.log_abort("1".into(), "x".into()).unwrap();
        let c = s.take_counters();
        assert_eq!(c.wal_records_appended, 2);
        assert_eq!(c.intents_logged, 1);
        assert_eq!(c.purchases_aborted, 1);
        assert_eq!(s.counters().wal_records_appended, 0);
    }
}
