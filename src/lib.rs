//! # abcrm — An Agent-Based Consumer Recommendation Mechanism
//!
//! Umbrella crate for the reproduction of *"An Agent-Based Consumer
//! Recommendation Mechanism"* (Wang, Hwang & Wang, AINA 2004). It
//! re-exports the workspace crates under one roof and hosts the runnable
//! examples (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! * [`agentsim`] — Aglet-style mobile-agent platform (lifecycle,
//!   messaging, migration, travel-permit security, simulated network).
//! * [`simdb`] — the write-ahead log durable hosts journal agent state
//!   through (in memory and file-backed).
//! * [`ecp`] — e-commerce platform: coordinator, marketplaces with query /
//!   negotiation / auction services, seller servers, merchandise model.
//! * [`core`] — the paper's contribution: profiles (Fig 4.4), the
//!   learning-rate profile update and similarity algorithm (Fig 4.5),
//!   IF / CF / hybrid recommenders, and the Buyer Agent Server with its
//!   BSMA / HttpA / PA / BRA / MBA agents and figure-exact workflows.
//! * [`workload`] — synthetic consumers, catalogs and shopping sessions.
//! * [`eval`] — metrics and the experiment harness behind EXPERIMENTS.md.
//!
//! See the repository README for a guided tour and `DESIGN.md` for the
//! system inventory and experiment index.

pub use abcrm_core as core;
pub use agentsim;
pub use ecp;
pub use eval;
pub use simdb;
pub use workload;
