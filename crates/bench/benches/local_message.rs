//! Same-host messages stay typed: what a local hop allocates.
//!
//! A payload built with `Message::with_payload` holds a clone of its Rust
//! value and builds its JSON tree only when the message leaves its host.
//! This binary runs under a counting allocator and reports:
//!
//! * **Hop gate** — a `PaSimilarReply` (the largest payload of a browse
//!   request) relayed between two agents on one host and read back with
//!   `payload_as`: the send, the delivery and the read may allocate no
//!   more than one `clone()` of the reply plus the constant cost of the
//!   same hop with an empty reply. The same hop with the reply in tree
//!   form (`to_value` at the sender, a decode at the receiver) is printed
//!   beside it.
//! * **Query census** — the median allocations of one recommendation
//!   query on a full platform (200 residents, 300 listings): the whole
//!   Fig 4.2 workflow, HttpA to reply.
//!
//! `--assert-alloc` runs only the hop gate.

use abcrm_core::agents::msg::{kinds, ConsumerTask, PaSimilarReply};
use abcrm_core::learning::BehaviorKind;
use abcrm_core::profile::{ConsumerId, Profile};
use abcrm_core::server::{listing, Platform};
use agentsim::agent::{Agent, Ctx};
use agentsim::ids::AgentId;
use agentsim::message::Message;
use agentsim::payload::Payload;
use agentsim::sim::SimWorld;
use criterion::{criterion_group, criterion_main, Criterion};
use ecp::merchandise::{CategoryPath, ItemId, Merchandise, Money};
use ecp::terms::TermVector;
use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// --- counting allocator -------------------------------------------------

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

// --- hop gate --------------------------------------------------------------

/// Forwards every message to `next`; the tail reads it as a
/// `PaSimilarReply`.
#[derive(Debug, Serialize, Deserialize)]
struct Relay {
    next: Option<AgentId>,
    read: u64,
}

impl Agent for Relay {
    fn agent_type(&self) -> &'static str {
        "relay"
    }
    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).unwrap()
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match self.next {
            Some(next) => {
                ctx.send(
                    next,
                    Message::new(kinds::PA_SIMILAR_REPLY).carrying(msg.payload),
                );
            }
            None => {
                let reply: PaSimilarReply = msg.payload_as().expect("a PaSimilarReply");
                std::hint::black_box(reply);
                self.read += 1;
            }
        }
    }
}

fn merch(id: u64) -> Merchandise {
    Merchandise {
        id: ItemId(id),
        name: format!("Item {id}"),
        category: CategoryPath::new("books", ["rust", "go", "sql", "ml"][id as usize % 4]),
        terms: TermVector::from_pairs([(format!("tag{id}"), 0.5), ("books".into(), 1.0)]),
        list_price: Money::from_units(20 + id),
        seller: 0,
    }
}

/// A browse-sized reply: a profile over four sub-categories, ten
/// neighbours and twenty neighbour preferences.
fn full_reply() -> PaSimilarReply {
    let mut profile = Profile::new();
    let books = profile.category_mut("books");
    for (k, sub) in ["rust", "go", "sql", "ml"].iter().enumerate() {
        books.terms.add(*sub, 1.0 + k as f64);
        let terms = books.sub_mut(sub);
        for t in 0..8 {
            terms.add(format!("tag{}", k * 8 + t), 0.25 * (t + 1) as f64);
        }
    }
    PaSimilarReply {
        consumer: ConsumerId(7),
        profile,
        neighbours: (1..=10).map(|c| (ConsumerId(c), 1.0 / c as f64)).collect(),
        neighbour_preferences: (1..=20).map(|i| (merch(i), 0.05 * i as f64)).collect(),
    }
}

fn empty_reply() -> PaSimilarReply {
    PaSimilarReply {
        consumer: ConsumerId(7),
        profile: Profile::new(),
        neighbours: Vec::new(),
        neighbour_preferences: Vec::new(),
    }
}

/// A relay → tail pair on one host.
fn relay_world() -> (SimWorld, AgentId) {
    let mut world = SimWorld::new(1);
    world.registry_mut().register_serde::<Relay>("relay");
    let host = world.add_host("buyer-server");
    let tail = world
        .create_agent(
            host,
            Box::new(Relay {
                next: None,
                read: 0,
            }),
        )
        .unwrap();
    let head = world
        .create_agent(
            host,
            Box::new(Relay {
                next: Some(tail),
                read: 0,
            }),
        )
        .unwrap();
    (world, head)
}

/// Fewest allocations of one relayed hop (send, delivery, read) of the
/// message `make` builds, over warm rounds; building it is not counted.
fn hop_allocations(world: &mut SimWorld, head: AgentId, make: impl Fn() -> Message) -> u64 {
    let mut fewest = u64::MAX;
    for round in 0..60 {
        let msg = make();
        let (n, ()) = allocations(|| {
            world.send_external(head, msg).unwrap();
            world.run_until_idle();
        });
        if round >= 20 {
            fewest = fewest.min(n);
        }
    }
    fewest
}

fn assert_local_hop_alloc() {
    let (mut world, head) = relay_world();
    let full = full_reply();
    let empty = empty_reply();
    let (clone, copy) = allocations(|| full.clone());
    drop(copy);
    let typed = |reply: &PaSimilarReply| {
        Message::new(kinds::PA_SIMILAR_REPLY)
            .with_payload(reply)
            .unwrap()
    };
    let constant = hop_allocations(&mut world, head, || typed(&empty));
    let hop = hop_allocations(&mut world, head, || typed(&full));
    let tree_hop = hop_allocations(&mut world, head, || {
        Message::new(kinds::PA_SIMILAR_REPLY)
            .carrying(Payload::from(serde_json::to_value(&full).unwrap()))
    });
    let (to_value, tree) = allocations(|| serde_json::to_value(&full).unwrap());
    drop(tree);
    println!(
        "alloc gate: same-host PaSimilarReply hop {hop} allocations \
         (one clone {clone} + empty hop {constant}); tree form: to_value {to_value} \
         + hop {tree_hop}"
    );
    assert!(
        hop <= clone + constant,
        "a same-host hop allocated {hop} times, more than one clone ({clone}) \
         plus the empty hop ({constant})"
    );
}

// --- query census ----------------------------------------------------------

fn query_census() {
    const TOPICS: [&str; 4] = ["rust", "go", "sql", "ml"];
    let items: Vec<_> = (1..=300u64)
        .map(|i| {
            let topic = TOPICS[(i % 4) as usize];
            let (tag, name) = (format!("tag{i}"), format!("Item {i}"));
            listing(
                i,
                &name,
                "books",
                topic,
                20 + i,
                &[(topic, 1.0), (&tag, 0.5)],
            )
        })
        .collect();
    let mut p = Platform::builder(5)
        .marketplaces(vec![items.clone()])
        .build();
    let history: Vec<_> = (0..1200u64)
        .map(|e| {
            let resident = 1 + e % 200;
            let item = items[((resident * 7 + e) % 300) as usize].item.clone();
            (ConsumerId(resident), item, BehaviorKind::Browse)
        })
        .collect();
    p.seed_events(&history);
    let consumers: Vec<ConsumerId> = (1..=8).map(ConsumerId).collect();
    for &c in &consumers {
        p.login(c);
    }
    let mut counts: Vec<u64> = (0..64usize)
        .map(|q| {
            let c = consumers[q % consumers.len()];
            let task = ConsumerTask::Query {
                keywords: vec![TOPICS[q % 4].to_string()],
                category: None,
                max_results: 5,
            };
            let (n, replies) = allocations(|| {
                p.submit_task(c, task);
                p.run_and_drain()
            });
            assert_eq!(replies.len(), 1, "one reply per query");
            n
        })
        .collect();
    counts.sort_unstable();
    println!(
        "query census: {} queries, allocations per query median {} (min {}, max {})",
        counts.len(),
        counts[counts.len() / 2],
        counts[0],
        counts[counts.len() - 1]
    );
}

fn run(_c: &mut Criterion) {
    assert_local_hop_alloc();
    if std::env::args().any(|a| a == "--assert-alloc") {
        return;
    }
    query_census();
}

criterion_group!(benches, run);
criterion_main!(benches);
