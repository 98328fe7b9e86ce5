//! Inter-agent messages.
//!
//! The paper's principle 6 (§4.1): *"The coordination of functional agents
//! in recommendation mechanism is through the message passing."* Messages
//! carry an interned `kind` (a performative, e.g. `"query-request"`), a
//! cheaply cloneable [`Payload`], and correlation metadata for
//! request/response protocols.

use crate::clock::SimTime;
use crate::ids::{AgentId, MessageId};
use crate::intern::InternedStr;
use crate::payload::Payload;
use crate::telemetry::TraceCtx;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

/// A message exchanged between agents.
///
/// Construct with [`Message::new`], attach a typed payload with
/// [`Message::with_payload`], and read it back with [`Message::payload_as`]:
///
/// ```
/// use agentsim::message::Message;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let msg = Message::new("price-quote").with_payload(&42_u32)?;
/// let price: u32 = msg.payload_as()?;
/// assert_eq!(price, 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Message {
    /// Unique id, assigned by the world when the message is sent.
    pub id: MessageId,
    /// Sender agent. `None` for messages injected from outside the world
    /// (e.g. a simulated browser request entering through the front).
    pub from: Option<AgentId>,
    /// Destination agent.
    pub to: AgentId,
    /// Performative / message kind, e.g. `"query-request"`. Interned: the
    /// same spelling always shares one allocation.
    pub kind: InternedStr,
    /// Structured payload (shared, encode-once).
    pub payload: Payload,
    /// Id of the message this one answers, if any.
    pub in_reply_to: Option<MessageId>,
    /// Telemetry context of the in-flight hop this message represents.
    /// `None` when tracing is off (the default); stamped by the world at
    /// send time, never by application code.
    #[serde(default)]
    pub trace: Option<TraceCtx>,
    /// Absolute deadline of the request this message serves, if one was
    /// minted at ingress. Stamped by the world from the sending handler's
    /// ambient deadline; an expired message is dropped at delivery.
    /// Excluded from [`Message::wire_size`] (a few header bytes at most).
    #[serde(default)]
    pub deadline: Option<SimTime>,
}

impl Message {
    /// Create a message of the given kind with a null payload and no
    /// addressing; the world fills in `id`, senders fill in `from`/`to`
    /// via the send API.
    pub fn new(kind: impl Into<InternedStr>) -> Self {
        Message {
            id: MessageId(0),
            from: None,
            to: AgentId(0),
            kind: kind.into(),
            payload: Payload::null(),
            in_reply_to: None,
            trace: None,
            deadline: None,
        }
    }

    /// Attach a typed payload: a clone of `value`, whose JSON tree is built
    /// only if the message leaves its host or something else needs it
    /// (see [`Payload::encode`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error if `value` cannot be
    /// serialized.
    pub fn with_payload<T>(mut self, value: &T) -> serde_json::Result<Self>
    where
        T: Serialize + Clone + Send + Sync + 'static,
    {
        self.payload = Payload::encode(value)?;
        Ok(self)
    }

    /// Attach an already-built payload without re-serializing — the
    /// routing-hop fast path: forwarding a received payload (or a
    /// [`Payload::project`]ion of one) shares the tree and its cached
    /// encoding instead of copying either.
    pub fn carrying(mut self, payload: impl Into<Payload>) -> Self {
        self.payload = payload.into();
        self
    }

    /// Mark this message as a reply to `original`.
    pub fn replying_to(mut self, original: &Message) -> Self {
        self.in_reply_to = Some(original.id);
        self
    }

    /// Read the payload as a concrete type: a clone of the value when it
    /// was attached as a `T`, else a decode of its tree by reference
    /// ([`Payload::typed`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error if the payload does not
    /// match `T`.
    pub fn payload_as<T: DeserializeOwned + 'static>(&self) -> serde_json::Result<T> {
        self.payload.typed()
    }

    /// Approximate on-the-wire size in bytes, used by the network model to
    /// derive the transfer time of a cross-host message. The payload's
    /// encoded length is computed once and cached (shared with every clone
    /// of the payload); asking for it builds a typed payload's tree.
    pub fn wire_size(&self) -> usize {
        // kind + payload dominate; fixed header estimated at 32 bytes.
        32 + self.kind.len() + self.payload.encoded_len()
    }

    /// Whether this message is of the given kind.
    pub fn is(&self, kind: &str) -> bool {
        self.kind == kind
    }

    /// Detach the telemetry context, returning it.
    ///
    /// Span ids are scoped to one shard's `Telemetry` store, so a message
    /// crossing a shard boundary must not carry its origin-shard trace into
    /// the destination shard: the origin ends the hop with a boundary event
    /// and strips the context before handing the message over.
    pub fn strip_trace(&mut self) -> Option<TraceCtx> {
        self.trace.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Quote {
        item: String,
        price: u64,
    }

    #[test]
    fn typed_payload_round_trips() {
        let q = Quote {
            item: "book".into(),
            price: 120,
        };
        let msg = Message::new("quote").with_payload(&q).unwrap();
        assert_eq!(msg.payload_as::<Quote>().unwrap(), q);
    }

    #[test]
    fn payload_type_mismatch_is_an_error() {
        let msg = Message::new("quote")
            .with_payload(&"just a string")
            .unwrap();
        assert!(msg.payload_as::<Quote>().is_err());
    }

    #[test]
    fn replying_links_message_ids() {
        let mut original = Message::new("ask");
        original.id = MessageId(7);
        let reply = Message::new("answer").replying_to(&original);
        assert_eq!(reply.in_reply_to, Some(MessageId(7)));
    }

    #[test]
    fn wire_size_grows_with_payload() {
        let small = Message::new("k").with_payload(&1u8).unwrap();
        let big = Message::new("k").with_payload(&vec![0u8; 1000]).unwrap();
        assert!(big.wire_size() > small.wire_size());
        assert!(small.wire_size() >= 32);
    }

    #[test]
    fn wire_size_equals_header_plus_kind_plus_encoding() {
        let msg = Message::new("quote")
            .with_payload(&Quote {
                item: "book".into(),
                price: 120,
            })
            .unwrap();
        let encoded = serde_json::to_string(msg.payload.value()).unwrap();
        assert_eq!(msg.wire_size(), 32 + "quote".len() + encoded.len());
    }

    #[test]
    fn is_matches_kind_exactly() {
        let msg = Message::new("query-request");
        assert!(msg.is("query-request"));
        assert!(!msg.is("query"));
    }

    #[test]
    fn clone_shares_the_payload_tree() {
        let msg = Message::new("bulk").with_payload(&vec![7u32; 64]).unwrap();
        let copy = msg.clone();
        assert!(crate::payload::Payload::ptr_eq(&msg.payload, &copy.payload));
        assert_eq!(copy.wire_size(), msg.wire_size());
    }

    #[test]
    fn carrying_forwards_a_payload_without_reencoding() {
        let original = Message::new("envelope")
            .with_payload(&Quote {
                item: "book".into(),
                price: 9,
            })
            .unwrap();
        let forwarded = Message::new("routed").carrying(original.payload.clone());
        assert!(crate::payload::Payload::ptr_eq(
            &original.payload,
            &forwarded.payload
        ));
    }
}
