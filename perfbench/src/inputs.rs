//! Workload definitions and the inputs generated from `--seed`.
//!
//! Everything the platform receives is generated here. The catalog is
//! the marketplaces' fixed stock, the same for every seed; the seed
//! draws the resident population, its history and every request, so
//! the same seed gives the same inputs and the platform sees nothing
//! else.

use abcrm_core::agents::msg::{BuyMode, ConsumerTask, FrontRequestBody};
use abcrm_core::learning::BehaviorKind;
use abcrm_core::profile::ConsumerId;
use abcrm_core::{AnnConfig, SimilarityConfig};
use ecp::merchandise::{ItemId, Merchandise};
use ecp::protocol::Listing;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use workload::{
    generate_listings, split_across_markets, CatalogSpec, ConsumerTruth, PopulationSpec,
    PopulationStream, Taxonomy, TaxonomySpec,
};

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-heavy sessions against 10^4 seeded residents (neighbour
    /// search dominates).
    Browse,
    /// Buy-heavy sessions on a small population with durability on (WAL,
    /// two-phase purchases and the ledger dominate).
    Checkout,
    /// Waves of concurrent tasks on a 2-shard platform (epochs and
    /// cross-shard migration dominate).
    Crowd,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "browse" => Ok(Workload::Browse),
            "checkout" => Ok(Workload::Checkout),
            "crowd" => Ok(Workload::Crowd),
            other => Err(format!(
                "unknown workload {other:?} (browse, checkout, crowd)"
            )),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Checkout => "checkout",
            Workload::Crowd => "crowd",
        }
    }
}

/// Sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Catalog size (split round-robin over two marketplaces).
    pub listings: usize,
    /// Resident consumers whose history seeds the profile agent(s).
    pub residents: usize,
    /// Seeded behaviour events per resident.
    pub events_per_resident: usize,
    /// Latent taste clusters in the population: 50 at full size, so
    /// every seed's population covers the catalog's leaves evenly.
    pub clusters: usize,
    /// Sessions (or crowd waves) one replica runs. A replica is a
    /// platform freshly built from the seed and driven with the seed's
    /// first sessions, so every replica passes through the same platform
    /// states and must produce identical replies.
    pub units_per_replica: usize,
    /// Nominal host time one replica measures on a 2-core x86-64 host;
    /// a run of `--seconds` measures about `--seconds / replica_seconds`
    /// replicas.
    pub replica_seconds: f64,
    /// Set-ups a run times at least. Where set-up is cheap, a run builds
    /// extra platforms that it times and drops, besides the replicas'.
    pub setups: usize,
    /// Tasks per crowd wave.
    pub wave: usize,
    /// Shards of the crowd platform.
    pub shards: usize,
}

impl Scale {
    /// Full size, or toy size for the benchmark's own tests.
    pub fn of(workload: Workload, quick: bool) -> Scale {
        let (listings, residents, clusters, units_per_replica, replica_seconds, setups, wave) =
            match (workload, quick) {
                (Workload::Browse, false) => (300, 10_000, 50, 75, 3.5, 0, 0),
                (Workload::Checkout, false) => (300, 200, 50, 36, 2.8, 21, 0),
                (Workload::Crowd, false) => (300, 300, 50, 30, 3.2, 30, 64),
                (Workload::Browse, true) => (60, 200, 5, 20, 0.1, 0, 0),
                (Workload::Checkout, true) => (60, 40, 4, 20, 0.1, 4, 0),
                (Workload::Crowd, true) => (60, 40, 4, 8, 0.1, 4, 16),
            };
        Scale {
            listings,
            residents,
            events_per_resident: 6,
            clusters,
            units_per_replica,
            replica_seconds,
            setups,
            wave,
            shards: 2,
        }
    }

    /// Replicas a run of `seconds` measures (at least two, so every run
    /// checks that the seed reproduces).
    pub fn replicas(&self, seconds: f64) -> usize {
        ((seconds / self.replica_seconds).round() as usize).max(2)
    }
}

/// Neighbour search configuration of every workload: ANN with 8-bit
/// signatures, the population-scaled rule at 10^4 residents.
pub fn similarity() -> SimilarityConfig {
    SimilarityConfig {
        ann: Some(AnnConfig {
            bits: 8,
            tables: 8,
            probes: 8,
            seed: 0,
        }),
        ..SimilarityConfig::default()
    }
}

/// What kind of request a scripted request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Session open.
    Login,
    /// Fig 4.2 merchandise query.
    Query,
    /// Fig 4.3 purchase.
    Buy,
    /// Session close.
    Logout,
}

/// One scripted browser-level request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Consumer sending it.
    pub consumer: ConsumerId,
    /// Request body.
    pub body: FrontRequestBody,
    /// Its class (fixes the reply variant the check expects).
    pub class: Class,
}

/// A closed-loop session: one consumer's requests, sent one at a time.
#[derive(Debug, Clone)]
pub struct Session {
    /// Resident index of the consumer (its ground truth is derived from it).
    pub resident: usize,
    /// The requests, in order.
    pub requests: Vec<Request>,
}

/// Inputs derived from the seed.
pub struct Inputs {
    /// Workload these inputs are for.
    pub workload: Workload,
    /// Sizes.
    pub scale: Scale,
    /// Platform seed.
    pub seed: u64,
    /// Listings per marketplace.
    pub markets: Vec<Vec<Listing>>,
    /// Resident population (ground truth on demand).
    pub population: PopulationStream,
    /// Seeded history, one entry per event.
    pub history: Vec<(ConsumerId, Merchandise, BehaviorKind)>,
    /// Per catalog leaf: `(marketplace index, listing)` of its items.
    leaf_items: BTreeMap<String, Vec<(usize, Listing)>>,
    rng: StdRng,
}

const CATALOG_SEED: u64 = 0x00ca_7a10_9000;
const POPULATION_STREAM: u64 = 0x0090_9017_a710;
const REQUEST_STREAM: u64 = 0x00e9_0e57_0000;

impl Inputs {
    /// Generate the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64, quick: bool) -> Inputs {
        let scale = Scale::of(workload, quick);
        let taxonomy = Taxonomy::generate(TaxonomySpec::default());
        let listings = generate_listings(
            &taxonomy,
            &CatalogSpec {
                items: scale.listings,
                ..CatalogSpec::default()
            },
            1,
            &mut StdRng::seed_from_u64(CATALOG_SEED),
        );
        let population = PopulationStream::new(
            &PopulationSpec {
                consumers: scale.residents,
                clusters: scale.clusters,
                leaves_per_cluster: 2,
                noise: 0.15,
            },
            &listings,
            seed ^ POPULATION_STREAM,
        );
        let markets = split_across_markets(listings, 2);
        let mut leaf_items: BTreeMap<String, Vec<(usize, Listing)>> = BTreeMap::new();
        let mut by_id: BTreeMap<ItemId, Merchandise> = BTreeMap::new();
        for (m, listings) in markets.iter().enumerate() {
            for l in listings {
                leaf_items
                    .entry(l.item.category.as_key())
                    .or_default()
                    .push((m, l.clone()));
                by_id.insert(l.item.id, l.item.clone());
            }
        }
        let history = (0..scale.residents)
            .flat_map(|i| population.events_of(i, scale.events_per_resident))
            .map(|(c, item, kind)| (c, by_id[&item].clone(), kind))
            .collect();
        Inputs {
            workload,
            scale,
            seed,
            markets,
            population,
            history,
            leaf_items,
            rng: StdRng::seed_from_u64(seed ^ REQUEST_STREAM),
        }
    }

    /// Ground truth of resident `index`.
    pub fn truth(&self, index: usize) -> ConsumerTruth {
        self.population.truth_of(index)
    }

    fn query(&mut self, truth: &ConsumerTruth) -> ConsumerTask {
        let keyword = truth
            .sample_keyword(&mut self.rng)
            .expect("residents have a preference vocabulary");
        ConsumerTask::Query {
            keywords: vec![keyword],
            category: None,
            max_results: 5,
        }
    }

    /// A listing on one of the consumer's favoured leaves, with the index
    /// of the marketplace that lists it.
    fn favoured_listing(&mut self, truth: &ConsumerTruth) -> (usize, Listing) {
        let leaf = &truth.favoured_leaves[self.rng.gen_range(0..truth.favoured_leaves.len())];
        let items = &self.leaf_items[leaf];
        items[self.rng.gen_range(0..items.len())].clone()
    }

    fn buy(&mut self, truth: &ConsumerTruth, negotiate: bool) -> (ItemId, usize, BuyMode) {
        let (market, listing) = self.favoured_listing(truth);
        let mode = if negotiate {
            // budget above the 70% reservation, so every deal closes
            BuyMode::Negotiate {
                budget: listing.item.list_price.scale(0.95),
                opening_fraction: 0.6,
                raise: 0.1,
                max_rounds: 20,
            }
        } else {
            BuyMode::Direct
        };
        (listing.item.id, market, mode)
    }

    /// The next closed-loop session of `browse` or `checkout`.
    /// `market_ref` turns a marketplace index into the task's reference.
    pub fn next_session(
        &mut self,
        market_ref: &dyn Fn(usize) -> abcrm_core::agents::msg::MarketRef,
    ) -> Session {
        let resident = self.rng.gen_range(0..self.scale.residents);
        let truth = self.truth(resident);
        let consumer = truth.id;
        let mut tasks = Vec::new();
        match self.workload {
            Workload::Browse => {
                for _ in 0..3 {
                    tasks.push(self.query(&truth));
                }
                let (item, market, mode) = self.buy(&truth, false);
                tasks.push(ConsumerTask::Buy {
                    item,
                    market: market_ref(market),
                    mode,
                });
            }
            Workload::Checkout | Workload::Crowd => {
                tasks.push(self.query(&truth));
                // Direct and Negotiate alternate, so every seed has the
                // same mix of purchase protocols
                for i in 0..self.rng.gen_range(2..=3) {
                    let (item, market, mode) = self.buy(&truth, i % 2 == 1);
                    tasks.push(ConsumerTask::Buy {
                        item,
                        market: market_ref(market),
                        mode,
                    });
                }
            }
        }
        let mut requests = vec![Request {
            consumer,
            body: FrontRequestBody::Login,
            class: Class::Login,
        }];
        requests.extend(tasks.into_iter().map(|task| Request {
            consumer,
            class: match task {
                ConsumerTask::Query { .. } => Class::Query,
                _ => Class::Buy,
            },
            body: FrontRequestBody::Task(task),
        }));
        requests.push(Request {
            consumer,
            body: FrontRequestBody::Logout,
            class: Class::Logout,
        });
        Session { resident, requests }
    }

    /// The next `crowd` wave: one task for each of `scale.wave` distinct
    /// logged-in residents, about three queries to one buy.
    pub fn next_wave(
        &mut self,
        market_ref: &dyn Fn(usize) -> abcrm_core::agents::msg::MarketRef,
    ) -> Vec<(usize, Request)> {
        let mut chosen: Vec<usize> = Vec::new();
        while chosen.len() < self.scale.wave.min(self.scale.residents) {
            let r = self.rng.gen_range(0..self.scale.residents);
            if !chosen.contains(&r) {
                chosen.push(r);
            }
        }
        chosen
            .into_iter()
            .map(|resident| {
                let truth = self.truth(resident);
                let request = if self.rng.gen::<f64>() < 0.75 {
                    Request {
                        consumer: truth.id,
                        body: FrontRequestBody::Task(self.query(&truth)),
                        class: Class::Query,
                    }
                } else {
                    let (item, market, mode) = self.buy(&truth, false);
                    Request {
                        consumer: truth.id,
                        body: FrontRequestBody::Task(ConsumerTask::Buy {
                            item,
                            market: market_ref(market),
                            mode,
                        }),
                        class: Class::Buy,
                    }
                };
                (resident, request)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentsim::ids::{AgentId, HostId};

    fn market(i: usize) -> abcrm_core::agents::msg::MarketRef {
        abcrm_core::agents::msg::MarketRef {
            host: HostId(i as u32),
            agent: AgentId(i as u64),
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let script = |seed| {
            let mut inputs = Inputs::generate(Workload::Checkout, seed, true);
            let s: Vec<String> = (0..5)
                .flat_map(|_| inputs.next_session(&market).requests)
                .map(|r| format!("{:?}", r.body))
                .collect();
            (s, inputs.history.len())
        };
        assert_eq!(script(1), script(1));
        assert_ne!(script(1).0, script(2).0);
    }

    #[test]
    fn sessions_open_and_close_and_waves_use_distinct_consumers() {
        let mut inputs = Inputs::generate(Workload::Browse, 3, true);
        let s = inputs.next_session(&market);
        assert_eq!(s.requests.first().map(|r| r.class), Some(Class::Login));
        assert_eq!(s.requests.last().map(|r| r.class), Some(Class::Logout));
        assert!(
            s.requests
                .iter()
                .filter(|r| r.class == Class::Query)
                .count()
                == 3
        );
        let mut crowd = Inputs::generate(Workload::Crowd, 3, true);
        let wave = crowd.next_wave(&market);
        assert_eq!(wave.len(), crowd.scale.wave);
        let mut ids: Vec<u64> = wave.iter().map(|(_, r)| r.consumer.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), crowd.scale.wave);
    }
}
