//! Identifier newtypes for hosts, agents and messages.
//!
//! Every entity in the platform is addressed by a small copyable id. Using
//! newtypes (rather than bare integers) prevents accidentally passing a host
//! id where an agent id is expected.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a host (an agent server / execution context) in the world.
///
/// Hosts model the paper's servers: the Coordinator Server, each
/// Marketplace, each Seller Server and the Buyer Agent Server are all hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host-{}", self.0)
    }
}

impl From<u32> for HostId {
    fn from(v: u32) -> Self {
        HostId(v)
    }
}

/// Identifier of an agent, unique across the whole world for its lifetime.
///
/// Ids are never reused, so a stale id reliably names a disposed agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AgentId(pub u64);

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent-{}", self.0)
    }
}

impl From<u64> for AgentId {
    fn from(v: u64) -> Self {
        AgentId(v)
    }
}

/// Identifier of a message, unique per world.
///
/// Replies carry the id of the message they answer in
/// [`crate::message::Message::in_reply_to`], which lets request/response
/// protocols correlate without a separate conversation abstraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MessageId(pub u64);

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg-{}", self.0)
    }
}

impl From<u64> for MessageId {
    fn from(v: u64) -> Self {
        MessageId(v)
    }
}

/// Finalizer of the splitmix64 generator: a cheap, well-mixed 64-bit hash.
///
/// Used for consistent shard routing so that the same agent id always
/// lands on the same shard regardless of insertion order or map iteration.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Consistent shard assignment for an agent: stable hash of the id modulo
/// the shard count. With `shards == 1` every agent maps to shard 0.
pub fn shard_of(agent: AgentId, shards: usize) -> usize {
    if shards <= 1 {
        0
    } else {
        (splitmix64(agent.0) % shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_forms_are_distinct_and_nonempty() {
        assert_eq!(HostId(3).to_string(), "host-3");
        assert_eq!(AgentId(9).to_string(), "agent-9");
        assert_eq!(MessageId(1).to_string(), "msg-1");
    }

    #[test]
    fn ids_are_usable_as_map_keys() {
        let mut set = HashSet::new();
        set.insert(AgentId(1));
        set.insert(AgentId(2));
        set.insert(AgentId(1));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn ids_order_by_inner_value() {
        assert!(HostId(1) < HostId(2));
        assert!(AgentId(10) > AgentId(2));
    }

    #[test]
    fn ids_round_trip_serde() {
        let id = AgentId(42);
        let json = serde_json::to_string(&id).unwrap();
        let back: AgentId = serde_json::from_str(&json).unwrap();
        assert_eq!(id, back);
    }

    #[test]
    fn from_impls_construct_ids() {
        assert_eq!(HostId::from(7), HostId(7));
        assert_eq!(AgentId::from(7u64), AgentId(7));
        assert_eq!(MessageId::from(7u64), MessageId(7));
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 8] {
            for raw in 0..256u64 {
                let s = shard_of(AgentId(raw), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(AgentId(raw), shards), "must be deterministic");
            }
        }
        assert_eq!(shard_of(AgentId(12345), 1), 0);
    }

    #[test]
    fn shard_assignment_spreads_across_shards() {
        let shards = 4;
        let mut hit = vec![0usize; shards];
        for raw in 0..1024u64 {
            hit[shard_of(AgentId(raw), shards)] += 1;
        }
        for (i, &n) in hit.iter().enumerate() {
            assert!(n > 128, "shard {i} underloaded: {n}/1024");
        }
    }
}
