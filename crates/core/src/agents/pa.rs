//! The Profile Agent (PA).
//!
//! §3.3: *"Each recommendation mechanism contains only one PA. PA stands
//! for creating or updating user profile. When consumer query, buy or
//! join auction PA will generate the newer consumer profile to record
//! consumer behavior."*
//!
//! The PA owns the UserDB: the [`RecommendStore`] holds every profile
//! once, and [`UserDb`] the transaction records. Every behaviour
//! recorded through [`kinds::PA_RECORD`] runs the Fig 4.5 update.
//! [`kinds::PA_SIMILAR`] answers with the consumer's profile, their
//! nearest neighbours (Fig 4.5 similarity with threshold discard) and the
//! neighbours' merchandise preferences — the data the BRA turns into
//! recommendation information.

use crate::agents::msg::{kinds, PaLoad, PaProfile, PaRecord, PaSimilar, PaSimilarReply};
use crate::learning::{BehaviorKind, LearnerConfig};
use crate::profile::{ConsumerId, Profile};
use crate::similarity::SimilarityConfig;
use crate::store::{NeighbourSource, RecommendStore};
use crate::userdb::{TradeChannel, TransactionRecord, UserDb};
use agentsim::agent::{Agent, Ctx, DurablePolicy};
use agentsim::message::Message;
use ecp::merchandise::Merchandise;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Agent-type tag of [`ProfileAgent`].
pub const PA_TYPE: &str = "pa";

/// Periodic profile-maintenance settings (§5.2 item 1, "improve the
/// profile algorithm"): every `interval_us` of simulated time the PA
/// decays all interest weights by `decay` and compacts profiles, so
/// abandoned interests fade out.
///
/// **Caution:** an enabled maintenance cycle re-arms its timer forever —
/// drive such worlds with `run_until`/`run_for`, not `run_until_idle`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaintenanceConfig {
    /// Simulated microseconds between passes.
    pub interval_us: u64,
    /// Multiplicative decay per pass, in `(0, 1)`.
    pub decay: f64,
}

const MAINTENANCE_TIMER_TAG: u64 = u64::MAX;

/// A PA state change other than a recorded behaviour, journalled on a
/// durable host. Behaviour records are journalled as the [`PaRecord`]
/// itself.
#[derive(Debug, Serialize, Deserialize)]
enum PaDelta {
    /// Offers a neighbour query entered into the catalog, in order: each
    /// was unknown to it or differed from its entry.
    Offers(Vec<Merchandise>),
    /// The empty profile entered for a consumer seen for the first time.
    NewProfile(ConsumerId),
    /// One maintenance pass, decaying every profile by this factor.
    Decay(f64),
}

/// Journal `delta` on a durable host, ahead of the change it describes.
fn journal<T: Serialize>(ctx: &mut Ctx<'_>, delta: &T) {
    if !ctx.durable() {
        return;
    }
    match serde_json::to_value(delta) {
        Ok(delta) => ctx.journal_delta(delta),
        Err(e) => ctx.note(format!("pa: delta serialize failed: {e}")),
    }
}

/// The Profile Agent. Static on the Buyer Agent Server.
///
/// On a durable host it journals every state change as a delta — each
/// recorded behaviour, each catalog entry a query brings, each profile it
/// creates and each maintenance pass — so its last capsule plus the
/// deltas logged since equals its live state, and the host captures its
/// (large) capsule only at creation and at the checkpoints where those
/// deltas outweigh it ([`DurablePolicy::Deltas`]).
#[derive(Debug, Serialize, Deserialize)]
pub struct ProfileAgent {
    store: RecommendStore,
    userdb: UserDb,
    similarity: SimilarityConfig,
    #[serde(default)]
    maintenance: Option<MaintenanceConfig>,
    #[serde(default)]
    maintenance_passes: u32,
}

impl ProfileAgent {
    /// Fresh PA with the given learner and similarity configuration.
    pub fn new(learner: LearnerConfig, similarity: SimilarityConfig) -> Self {
        ProfileAgent {
            store: RecommendStore::with_learner(learner),
            userdb: UserDb::new(),
            similarity,
            maintenance: None,
            maintenance_passes: 0,
        }
    }

    /// Enable the periodic interest-decay maintenance cycle.
    pub fn with_maintenance(mut self, maintenance: MaintenanceConfig) -> Self {
        self.maintenance = Some(maintenance);
        self
    }

    /// Maintenance passes executed so far.
    pub fn maintenance_passes(&self) -> u32 {
        self.maintenance_passes
    }

    /// Access the in-memory store (tests, offline seeding).
    pub fn store(&self) -> &RecommendStore {
        &self.store
    }

    /// Mutable store access (offline seeding of populations).
    pub fn store_mut(&mut self) -> &mut RecommendStore {
        &mut self.store
    }

    /// The UserDB's transaction records.
    pub fn userdb(&self) -> &UserDb {
        &self.userdb
    }

    /// The consumer's profile, or a fresh one entered into the store.
    fn load_or_create(&mut self, ctx: &mut Ctx<'_>, consumer: ConsumerId) -> Profile {
        if let Some(p) = self.store.profile(consumer) {
            return p.clone();
        }
        journal(ctx, &PaDelta::NewProfile(consumer));
        self.store.put_profile(consumer, Profile::default());
        Profile::default()
    }

    fn record(&mut self, ctx: &mut Ctx<'_>, rec: PaRecord) {
        // write-ahead: the delta reaches the WAL before the learned
        // update it describes can be observed by anyone
        journal(ctx, &rec);
        self.apply_record(rec);
    }

    /// One maintenance pass: decay every profile by `factor`.
    fn decay(&mut self, factor: f64) {
        self.store.decay_all_profiles(factor);
        self.maintenance_passes += 1;
    }

    /// Re-apply one journalled delta: a [`PaDelta`] or a behaviour record.
    fn replay(&mut self, delta: &serde_json::Value) -> Result<(), serde::Error> {
        match PaDelta::deserialize_value(delta) {
            Ok(PaDelta::Offers(offers)) => {
                for offer in offers {
                    self.store.upsert_item(offer);
                }
            }
            Ok(PaDelta::NewProfile(consumer)) => {
                self.store.put_profile(consumer, Profile::default());
            }
            Ok(PaDelta::Decay(factor)) => self.decay(factor),
            Err(_) => self.apply_record(PaRecord::deserialize_value(delta)?),
        }
        Ok(())
    }

    fn apply_record(&mut self, rec: PaRecord) {
        self.store.upsert_item(rec.item.clone());
        self.store.record_event(rec.consumer, rec.item.id, rec.kind);
        // Fig 4.3 step 13: the transaction record
        let price = rec.price.unwrap_or(rec.item.list_price);
        let channel = match rec.kind {
            BehaviorKind::Purchase => TradeChannel::Direct,
            BehaviorKind::AuctionWin => TradeChannel::Auction,
            BehaviorKind::Negotiate => {
                // a negotiated deal's Purchase record came first and
                // wrote the transaction; this one names its channel
                self.userdb
                    .mark_negotiated(rec.consumer, rec.item.id, price);
                return;
            }
            BehaviorKind::Query | BehaviorKind::Browse | BehaviorKind::Bid => return,
        };
        self.userdb.record_transaction(TransactionRecord {
            consumer: rec.consumer,
            item: rec.item.id,
            price,
            channel,
            at_us: rec.at_us,
        });
    }

    fn similar(&mut self, ctx: &mut Ctx<'_>, req: &PaSimilar) -> PaSimilarReply {
        // make the queried merchandise known; only offers that change the
        // catalog are entered, and journalled
        let mut entered = Vec::new();
        for offer in &req.offers {
            if self.store.catalog().get(offer.id) != Some(offer) {
                self.store.upsert_item(offer.clone());
                if ctx.durable() {
                    entered.push(offer.clone());
                }
            }
        }
        if !entered.is_empty() {
            journal(ctx, &PaDelta::Offers(entered));
        }
        let profile = self.load_or_create(ctx, req.consumer);
        // load_or_create guarantees the consumer is in the store (and
        // thus the index), so the indexed search answers exactly what
        // the full profile scan would whenever the planner picks an exact
        // source.
        let search = self
            .store
            .search_neighbours(req.consumer, &self.similarity, req.k_neighbours);
        let neighbours = match search {
            Some(search) => {
                // the query's deterministic cost: where the candidates
                // came from and how many rows were exact-scored
                ctx.inc_counter(
                    match search.source {
                        NeighbourSource::Lsh => "pa.neighbour_source.lsh",
                        _ => "pa.neighbour_source.exact",
                    },
                    1,
                );
                ctx.observe("pa.candidates_scored", search.scored as u64);
                search.neighbours
            }
            None => Vec::new(),
        };
        // similarity-weighted neighbour preferences
        let mut prefs: BTreeMap<u64, f64> = BTreeMap::new();
        let mut total_sim = 0.0;
        for (nid, sim) in &neighbours {
            total_sim += sim;
            for (item, rating) in self.store.ratings().user_ratings(*nid) {
                *prefs.entry(item.0).or_insert(0.0) += sim * rating;
            }
        }
        let owned = self.store.purchased_by(req.consumer);
        let mut neighbour_preferences: Vec<(ecp::merchandise::Merchandise, f64)> = prefs
            .into_iter()
            .filter_map(|(item, mut w)| {
                if total_sim > 0.0 {
                    w /= total_sim;
                }
                let id = ecp::merchandise::ItemId(item);
                if owned.contains(&id) {
                    return None;
                }
                self.store.catalog().get(id).map(|m| (m.clone(), w))
            })
            .collect();
        neighbour_preferences.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.id.cmp(&b.0.id))
        });
        neighbour_preferences.truncate(64);
        PaSimilarReply {
            consumer: req.consumer,
            profile,
            neighbours,
            neighbour_preferences,
        }
    }
}

impl Agent for ProfileAgent {
    fn agent_type(&self) -> &'static str {
        PA_TYPE
    }

    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("pa state serializes")
    }

    fn durable_policy(&self) -> DurablePolicy {
        DurablePolicy::Deltas
    }

    fn on_recovered(&mut self, ctx: &mut Ctx<'_>, deltas: &[serde_json::Value]) {
        // Replay every change journalled since the baseline capsule was
        // captured, in log order, without re-journalling what the WAL
        // already holds.
        let mut replayed = 0usize;
        for delta in deltas {
            match self.replay(delta) {
                Ok(()) => replayed += 1,
                Err(e) => ctx.note(format!("pa: unreadable journalled delta skipped: {e}")),
            }
        }
        if replayed > 0 {
            ctx.note(format!(
                "pa: recovered, replayed {replayed} journalled deltas"
            ));
        }
        if let Some(m) = self.maintenance {
            // the maintenance timer died with the host; re-arm the cycle
            ctx.set_timer(
                agentsim::clock::SimDuration::from_micros(m.interval_us),
                MAINTENANCE_TIMER_TAG,
            );
        }
    }

    fn on_creation(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(m) = self.maintenance {
            ctx.set_timer(
                agentsim::clock::SimDuration::from_micros(m.interval_us),
                MAINTENANCE_TIMER_TAG,
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag != MAINTENANCE_TIMER_TAG {
            return;
        }
        let Some(m) = self.maintenance else {
            return;
        };
        let factor = m.decay.clamp(0.0, 1.0);
        journal(ctx, &PaDelta::Decay(factor));
        self.decay(factor);
        ctx.note(format!(
            "pa maintenance pass {}: decayed all profiles by {:.2}",
            self.maintenance_passes, m.decay
        ));
        ctx.set_timer(
            agentsim::clock::SimDuration::from_micros(m.interval_us),
            MAINTENANCE_TIMER_TAG,
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match msg.kind.as_str() {
            kinds::PA_LOAD => {
                if let Ok(req) = msg.payload_as::<PaLoad>() {
                    // Fig 4.2 step 5: the PA reads the profile from UserDB.
                    if req.figure == "fig4.2" {
                        ctx.note("fig4.2/step05 pa loads profile from userdb");
                    }
                    let profile = self.load_or_create(ctx, req.consumer);
                    let reply = Message::new(kinds::PA_PROFILE)
                        .with_payload(&PaProfile {
                            consumer: req.consumer,
                            profile,
                        })
                        .expect("profile serializes");
                    ctx.reply(&msg, reply);
                }
            }
            kinds::PA_RECORD => {
                if let Ok(rec) = msg.payload_as::<PaRecord>() {
                    self.record(ctx, rec);
                }
            }
            kinds::PA_SIMILAR => {
                if let Ok(req) = msg.payload_as::<PaSimilar>() {
                    let reply_payload = self.similar(ctx, &req);
                    ctx.inc_counter("pa.similar_requests", 1);
                    ctx.observe("pa.neighbours_found", reply_payload.neighbours.len() as u64);
                    let reply = Message::new(kinds::PA_SIMILAR_REPLY)
                        .with_payload(&reply_payload)
                        .expect("similar reply serializes");
                    ctx.reply(&msg, reply);
                }
            }
            other => {
                ctx.note(format!("pa: unhandled kind {other}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ConsumerId;
    use agentsim::sim::SimWorld;
    use ecp::merchandise::{CategoryPath, ItemId, Merchandise, Money};
    use ecp::terms::TermVector;

    fn merch(id: u64, name: &str) -> Merchandise {
        Merchandise {
            id: ItemId(id),
            name: name.into(),
            category: CategoryPath::new("books", "programming"),
            terms: TermVector::from_pairs([(name.to_lowercase(), 1.0)]),
            list_price: Money::from_units(20),
            seller: 1,
        }
    }

    /// Captures replies for assertions.
    #[derive(Debug, Default, Serialize, Deserialize)]
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
                let to = agentsim::ids::AgentId(target.as_u64().unwrap());
                let inner = Message::new(msg.payload["kind"].as_str().unwrap())
                    .carrying(msg.payload.project("payload"));
                ctx.send(to, inner);
                return;
            }
            self.replies
                .push((msg.kind.to_string(), msg.payload.to_value()));
        }
    }

    struct Fix {
        world: SimWorld,
        pa: agentsim::ids::AgentId,
        sink: agentsim::ids::AgentId,
    }

    fn fix() -> Fix {
        let mut world = SimWorld::new(11);
        let h = world.add_host("buyer-server");
        let pa = world
            .create_agent(
                h,
                Box::new(ProfileAgent::new(
                    LearnerConfig::default(),
                    SimilarityConfig::default(),
                )),
            )
            .unwrap();
        let sink = world.create_agent(h, Box::new(Sink::default())).unwrap();
        Fix { world, pa, sink }
    }

    fn send_to_pa<T: Serialize>(f: &mut Fix, kind: &str, payload: &T) {
        let mut msg = Message::new("instr");
        msg.payload = serde_json::json!({
            "__send_to": f.pa.0,
            "kind": kind,
            "payload": serde_json::to_value(payload).unwrap(),
        })
        .into();
        f.world.send_external(f.sink, msg).unwrap();
        f.world.run_until_idle();
    }

    fn sink_state(f: &Fix) -> Sink {
        serde_json::from_value(f.world.snapshot_of(f.sink).unwrap()).unwrap()
    }

    fn pa_state(f: &Fix) -> ProfileAgent {
        serde_json::from_value(f.world.snapshot_of(f.pa).unwrap()).unwrap()
    }

    #[test]
    fn pa_load_creates_fresh_profile() {
        let mut f = fix();
        send_to_pa(
            &mut f,
            kinds::PA_LOAD,
            &PaLoad {
                consumer: ConsumerId(1),
                figure: String::new(),
            },
        );
        let s = sink_state(&f);
        assert_eq!(s.replies.len(), 1);
        assert_eq!(s.replies[0].0, kinds::PA_PROFILE);
        let p: PaProfile = serde_json::from_value(s.replies[0].1.clone()).unwrap();
        assert!(p.profile.is_empty());
    }

    #[test]
    fn pa_record_updates_profile_and_persists() {
        let mut f = fix();
        send_to_pa(
            &mut f,
            kinds::PA_RECORD,
            &PaRecord {
                consumer: ConsumerId(1),
                item: merch(1, "rustbook"),
                kind: BehaviorKind::Purchase,
                price: Some(Money::from_units(18)),
                at_us: 42,
            },
        );
        let pa = pa_state(&f);
        assert!(pa.store().profile(ConsumerId(1)).unwrap().total_interest() > 0.0);
        assert_eq!(pa.store().consumer_count(), 1);
        let txs = pa.userdb().transactions();
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].price, Money::from_units(18));
        assert_eq!(txs[0].channel, TradeChannel::Direct);
    }

    #[test]
    fn pa_state_with_a_table_store_userdb_is_refused() {
        let mut f = fix();
        send_to_pa(
            &mut f,
            kinds::PA_RECORD,
            &PaRecord {
                consumer: ConsumerId(1),
                item: merch(1, "rustbook"),
                kind: BehaviorKind::Purchase,
                price: None,
                at_us: 0,
            },
        );
        let mut state = f.world.snapshot_of(f.pa).unwrap();
        assert!(serde_json::from_value::<ProfileAgent>(state.clone()).is_ok());
        // the shape the UserDB had while it kept a table store: a second
        // copy of each profile and the transactions as keyed rows
        if let serde_json::Value::Object(fields) = &mut state {
            fields.insert(
                "userdb".into(),
                serde_json::json!({
                    "store": {
                        "indexes": {"transactions": {"by-consumer": {
                            "field_path": "consumer",
                            "map": {"1": ["000000000000"]},
                        }}},
                        "name": "userdb",
                        "tables": {
                            "profiles": {"1": {"categories": {}}},
                            "transactions": {"000000000000": {
                                "consumer": 1, "item": 1, "price": 2000,
                                "channel": "Direct", "at_us": 0,
                            }},
                        },
                    },
                    "tx_seq": 1,
                }),
            );
        }
        assert!(state
            .get("userdb")
            .and_then(|db| db.get("tx_seq"))
            .is_some());
        assert!(
            serde_json::from_value::<ProfileAgent>(state).is_err(),
            "a UserDB without its transaction list must not restore as empty"
        );
    }

    #[test]
    fn pa_record_query_does_not_create_transaction() {
        let mut f = fix();
        send_to_pa(
            &mut f,
            kinds::PA_RECORD,
            &PaRecord {
                consumer: ConsumerId(1),
                item: merch(1, "rustbook"),
                kind: BehaviorKind::Query,
                price: None,
                at_us: 0,
            },
        );
        let pa = pa_state(&f);
        assert_eq!(pa.userdb().transaction_count(), 0);
        assert!(pa.store().profile(ConsumerId(1)).is_some());
    }

    #[test]
    fn pa_similar_finds_neighbours_and_their_preferences() {
        let mut f = fix();
        // consumer 2 and 3 share taste; 3 bought item 9 which 2 hasn't
        for c in [2u64, 3] {
            for i in [1u64, 2, 3] {
                send_to_pa(
                    &mut f,
                    kinds::PA_RECORD,
                    &PaRecord {
                        consumer: ConsumerId(c),
                        item: merch(i, &format!("rustbook{i}")),
                        kind: BehaviorKind::Purchase,
                        price: None,
                        at_us: 0,
                    },
                );
            }
        }
        send_to_pa(
            &mut f,
            kinds::PA_RECORD,
            &PaRecord {
                consumer: ConsumerId(3),
                item: merch(9, "rustbook9"),
                kind: BehaviorKind::Purchase,
                price: None,
                at_us: 0,
            },
        );
        send_to_pa(
            &mut f,
            kinds::PA_SIMILAR,
            &PaSimilar {
                consumer: ConsumerId(2),
                offers: vec![],
                k_neighbours: 5,
            },
        );
        let s = sink_state(&f);
        let reply: PaSimilarReply =
            serde_json::from_value(s.replies.last().unwrap().1.clone()).unwrap();
        assert!(
            !reply.neighbours.is_empty(),
            "consumer 3 should be a neighbour"
        );
        assert_eq!(reply.neighbours[0].0, ConsumerId(3));
        assert!(
            reply
                .neighbour_preferences
                .iter()
                .any(|(m, _)| m.id == ItemId(9)),
            "item 9 must appear among neighbour preferences"
        );
        // items consumer 2 already bought are excluded
        assert!(reply
            .neighbour_preferences
            .iter()
            .all(|(m, _)| m.id != ItemId(1)));
    }

    #[test]
    fn maintenance_cycle_decays_profiles_periodically() {
        use agentsim::clock::{SimDuration, SimTime};
        let mut world = SimWorld::new(12);
        let h = world.add_host("buyer-server");
        let pa = world
            .create_agent(
                h,
                Box::new(
                    ProfileAgent::new(LearnerConfig::default(), SimilarityConfig::default())
                        .with_maintenance(MaintenanceConfig {
                            interval_us: 1_000_000, // every simulated second
                            decay: 0.5,
                        }),
                ),
            )
            .unwrap();
        let sink = world.create_agent(h, Box::new(Sink::default())).unwrap();
        // seed one behaviour
        let mut msg = Message::new("instr");
        msg.payload = serde_json::json!({
            "__send_to": pa.0,
            "kind": kinds::PA_RECORD,
            "payload": serde_json::to_value(&PaRecord {
                consumer: ConsumerId(1),
                item: merch(1, "rustbook"),
                kind: BehaviorKind::Purchase,
                price: None,
                at_us: 0,
            }).unwrap(),
        })
        .into();
        world.send_external(sink, msg).unwrap();
        world.run_until(SimTime::ZERO + SimDuration::from_millis(100));
        let before: ProfileAgent = serde_json::from_value(world.snapshot_of(pa).unwrap()).unwrap();
        let interest_before = before
            .store()
            .profile(ConsumerId(1))
            .unwrap()
            .total_interest();
        // run past three maintenance intervals (never run_until_idle —
        // the cycle re-arms forever)
        world.run_until(SimTime::ZERO + SimDuration::from_micros(3_500_000));
        let after: ProfileAgent = serde_json::from_value(world.snapshot_of(pa).unwrap()).unwrap();
        assert_eq!(after.maintenance_passes(), 3);
        let interest_after = after
            .store()
            .profile(ConsumerId(1))
            .map(|p| p.total_interest())
            .unwrap_or(0.0);
        assert!(
            interest_after < interest_before * 0.2,
            "three 0.5 decays must shrink interest to 12.5%: {interest_before} -> {interest_after}"
        );
    }

    /// `(exact, lsh, queries observed, rows scored)` after 20 PA_SIMILAR
    /// requests to a PA under `similarity` over a clustered store (8
    /// taste clusters, 2,000 consumers, seed 21).
    fn neighbour_search_cost(similarity: SimilarityConfig) -> (u64, u64, u64, u64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut pa = ProfileAgent::new(LearnerConfig::default(), similarity.with_ann_seed(21));
        let items = 96u64;
        for id in 1..=items {
            let mut item = merch(id, &format!("item{id}"));
            item.terms = TermVector::from_pairs([
                (format!("item{id}"), 1.0),
                (format!("shard{}", id % 7), 0.5),
            ]);
            pa.store_mut().upsert_item(item);
        }
        let mut rng = StdRng::seed_from_u64(21);
        let kinds = [
            BehaviorKind::Query,
            BehaviorKind::Browse,
            BehaviorKind::Purchase,
        ];
        for user in 1..=2_000u64 {
            let cluster = user % 8;
            for _ in 0..rng.gen_range(3..8u32) {
                let item = if rng.gen_bool(0.85) {
                    1 + cluster * 12 + rng.gen_range(0..12u64)
                } else {
                    rng.gen_range(1..=items)
                };
                let kind = kinds[rng.gen_range(0..kinds.len())];
                pa.store_mut()
                    .record_event(ConsumerId(user), ItemId(item), kind);
            }
        }
        let mut world = SimWorld::new(21);
        let h = world.add_host("buyer-server");
        let pa = world.create_agent(h, Box::new(pa)).unwrap();
        let sink = world.create_agent(h, Box::new(Sink::default())).unwrap();
        world.enable_telemetry();
        let mut f = Fix { world, pa, sink };
        for user in (1..=2_000u64).step_by(100) {
            send_to_pa(
                &mut f,
                kinds::PA_SIMILAR,
                &PaSimilar {
                    consumer: ConsumerId(user),
                    offers: vec![],
                    k_neighbours: 10,
                },
            );
        }
        let registry = f.world.telemetry().registry();
        let scored = registry.histogram("pa.candidates_scored").unwrap();
        (
            registry.counter("pa.neighbour_source.exact"),
            registry.counter("pa.neighbour_source.lsh"),
            scored.count(),
            scored.sum(),
        )
    }

    /// Every PA_SIMILAR counts the source the store's planner picked and
    /// observes how many rows it exact-scored — deterministic for a seed.
    /// Pinned under perfbench's LSH shape (8 bits, 8 tables, 8 probes):
    /// the cosine is answered by the bounded exact source, Pearson by
    /// LSH.
    #[test]
    fn pa_similar_counts_its_neighbour_source_and_scored_rows() {
        use crate::ann::AnnConfig;
        use crate::similarity::SimilarityMethod;

        let cosine = SimilarityConfig {
            ann: Some(AnnConfig {
                bits: 8,
                tables: 8,
                probes: 8,
                seed: 0,
            }),
            ..SimilarityConfig::default()
        };
        let pearson = SimilarityConfig {
            method: SimilarityMethod::Pearson,
            ..cosine
        };
        assert_eq!(neighbour_search_cost(cosine), (20, 0, 20, 276));
        assert_eq!(neighbour_search_cost(pearson), (0, 20, 20, 14_234));
    }

    #[test]
    fn pa_similar_cold_consumer_gets_empty_neighbours() {
        let mut f = fix();
        send_to_pa(
            &mut f,
            kinds::PA_SIMILAR,
            &PaSimilar {
                consumer: ConsumerId(42),
                offers: vec![merch(1, "x")],
                k_neighbours: 5,
            },
        );
        let s = sink_state(&f);
        let reply: PaSimilarReply =
            serde_json::from_value(s.replies.last().unwrap().1.clone()).unwrap();
        assert!(reply.neighbours.is_empty());
        assert!(reply.profile.is_empty());
    }

    /// A durable PA recovers to exactly its live state: behaviour
    /// records, queries that bring new or changed offers, first-seen
    /// consumers and maintenance passes all come back from its last
    /// capsule plus the deltas logged since, whatever the checkpoint
    /// cadence. The first crash follows a maintenance pass, the second
    /// a query and a load that enter new consumers.
    #[test]
    fn durable_pa_recovers_to_its_live_state() {
        use agentsim::clock::SimDuration;
        use agentsim::durable::DurabilityConfig;

        for checkpoint_every in [0, 3, 32] {
            let mut world = SimWorld::new(13);
            world.enable_durability(DurabilityConfig {
                checkpoint_every,
                sync_every: 1,
            });
            world.registry_mut().register_serde::<ProfileAgent>(PA_TYPE);
            world.registry_mut().register_serde::<Sink>("sink");
            let h = world.add_host("buyer-server");
            let pa = world
                .create_agent(
                    h,
                    Box::new(
                        ProfileAgent::new(LearnerConfig::default(), SimilarityConfig::default())
                            .with_maintenance(MaintenanceConfig {
                                interval_us: 20_000,
                                decay: 0.75,
                            }),
                    ),
                )
                .unwrap();
            let sink = world.create_agent(h, Box::new(Sink::default())).unwrap();
            // never run_until_idle: the maintenance cycle re-arms forever
            let send = |world: &mut SimWorld, kind: &str, payload: serde_json::Value| {
                let mut msg = Message::new("instr");
                msg.payload = serde_json::json!({
                    "__send_to": pa.0,
                    "kind": kind,
                    "payload": payload,
                })
                .into();
                world.send_external(sink, msg).unwrap();
                world.run_for(SimDuration::from_micros(1_000));
            };
            for round in 0..5u64 {
                let record = PaRecord {
                    consumer: ConsumerId(1 + round % 2),
                    item: merch(round, &format!("book{round}")),
                    kind: BehaviorKind::Purchase,
                    price: None,
                    at_us: round,
                };
                send(
                    &mut world,
                    kinds::PA_RECORD,
                    serde_json::to_value(&record).unwrap(),
                );
                // one known offer, one new, one changed
                let mut changed = merch(round, &format!("book{round}"));
                changed.list_price = Money::from_units(21 + round);
                let similar = PaSimilar {
                    consumer: ConsumerId(10 + round),
                    offers: vec![merch(0, "book0"), merch(100 + round, "new"), changed],
                    k_neighbours: 5,
                };
                send(
                    &mut world,
                    kinds::PA_SIMILAR,
                    serde_json::to_value(&similar).unwrap(),
                );
                let load = PaLoad {
                    consumer: ConsumerId(20 + round),
                    figure: String::new(),
                };
                send(
                    &mut world,
                    kinds::PA_LOAD,
                    serde_json::to_value(&load).unwrap(),
                );
                // past the next maintenance pass
                world.run_for(SimDuration::from_micros(20_000));
            }
            let live = world.snapshot_of(pa).unwrap();
            let passes = serde_json::from_value::<ProfileAgent>(live.clone())
                .unwrap()
                .maintenance_passes();
            assert!(passes >= 5, "maintenance ran: {passes}");
            world.crash_host(h).unwrap();
            world.restart_host(h).unwrap();
            assert_eq!(
                world.snapshot_of(pa).unwrap(),
                live,
                "checkpoint_every {checkpoint_every}: the PA recovered after a maintenance \
                 pass differs from the live one"
            );
            // a maintenance pass drops empty profiles, so the profiles a
            // query and a load enter are checked by a crash before the
            // next pass
            let similar = PaSimilar {
                consumer: ConsumerId(98),
                offers: vec![merch(200, "newer")],
                k_neighbours: 5,
            };
            send(
                &mut world,
                kinds::PA_SIMILAR,
                serde_json::to_value(&similar).unwrap(),
            );
            let load = PaLoad {
                consumer: ConsumerId(99),
                figure: String::new(),
            };
            send(
                &mut world,
                kinds::PA_LOAD,
                serde_json::to_value(&load).unwrap(),
            );
            let live = world.snapshot_of(pa).unwrap();
            world.crash_host(h).unwrap();
            world.restart_host(h).unwrap();
            assert_eq!(
                world.snapshot_of(pa).unwrap(),
                live,
                "checkpoint_every {checkpoint_every}: the PA recovered after new consumers \
                 differs from the live one"
            );
        }
    }

    /// Deltas journalled before the PA journalled anything but behaviour
    /// records still replay: a bare [`PaRecord`] is a behaviour record.
    #[test]
    fn record_shaped_deltas_replay() {
        let mut pa = ProfileAgent::new(LearnerConfig::default(), SimilarityConfig::default());
        let record = PaRecord {
            consumer: ConsumerId(1),
            item: merch(1, "rustbook"),
            kind: BehaviorKind::Purchase,
            price: None,
            at_us: 0,
        };
        pa.replay(&serde_json::to_value(&record).unwrap()).unwrap();
        assert_eq!(pa.userdb().transaction_count(), 1);
        assert!(pa.store().profile(ConsumerId(1)).is_some());
        assert!(pa.replay(&serde_json::json!({"Unknown": 1})).is_err());
    }
}
