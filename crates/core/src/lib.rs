//! # abcrm-core — the agent-based consumer recommendation mechanism
//!
//! The paper's primary contribution (Wang, Hwang & Wang, AINA 2004):
//! consumer profiles, the Fig 4.5 learning rule and similarity algorithm,
//! the IF/CF/hybrid recommenders, and the Buyer Agent Server with its
//! functional agents (BSMA, HttpA, PA, BRA, MBA) running figure-exact
//! workflows on the [`agentsim`] platform.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod agents;
pub mod ann;
pub mod breaker;
pub mod extensions;
pub mod index;
pub mod itemcf;
pub mod learning;
pub mod profile;
pub mod ratings;
pub mod recommend;
pub mod retry;
pub mod server;
pub mod similarity;
pub mod store;
pub mod userdb;
pub mod workflow;

pub use admission::{AdmissionConfig, AdmissionGate, AdmissionVerdict, Priority};
pub use ann::AnnConfig;
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use index::{ItemSimCache, ProfileIndex};
pub use itemcf::ItemCfRecommender;
pub use learning::{
    BehaviorEvent, BehaviorKind, FeedbackQuality, LearnerConfig, ProfileDelta, ProfileLearner,
};
pub use profile::{CategoryProfile, ConsumerId, Profile};
pub use ratings::RatingsMatrix;
pub use recommend::{
    CfRecommender, ContentRecommender, HybridRecommender, QueryContext, RandomRecommender,
    Recommendation, Recommender, TopSellerRecommender,
};
pub use retry::BackoffPolicy;
pub use server::{listing, Platform, PlatformBuilder, ShardedPlatform, ShardedPlatformBuilder};
pub use similarity::{profile_similarity, SimilarityConfig, SimilarityMethod};
pub use store::RecommendStore;
pub use userdb::{TradeChannel, TransactionRecord, UserDb};
