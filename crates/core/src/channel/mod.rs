//! Broadcast channels (paper §2.5–2.7).
//!
//! Channels are *continuous* protocols with online inputs and outputs, in
//! contrast to the one-shot broadcast and agreement primitives:
//!
//! * [`AtomicChannel`]: total-order (atomic) broadcast — rounds of
//!   multi-valued agreement over batches of signed payloads. This is the
//!   primitive that directly yields secure state-machine replication.
//! * [`SecureAtomicChannel`]: secure *causal* atomic broadcast — payloads
//!   are threshold-encrypted until their position in the total order is
//!   fixed, preventing a Byzantine party from injecting requests derived
//!   from in-flight ones.
//! * [`OptimisticChannel`]: the paper's §6 optimization — a leader-
//!   sequenced fast path (one reliable broadcast plus two signed ack
//!   rounds per payload) with agreement-based recovery when the leader is
//!   suspected. Not fully asynchronous (its complaint trigger is a
//!   timeout), exactly as the paper says of such protocols.
//! * [`ReliableChannel`] / [`ConsistentChannel`]: aggregated multiplexes
//!   of the corresponding broadcast primitive, one live instance per
//!   sender — FIFO per sender, no total order, and much cheaper than
//!   atomic broadcast.
//!
//! All channels share SINTRA's termination protocol: a party *closes* the
//! channel by sending a termination request as its last payload; the
//! channel terminates once requests from `t + 1` distinct parties have
//! been delivered (so closure is driven by at least one honest party, and
//! all honest parties observe the same final state).

mod atomic;
mod multiplex;
mod optimistic;
mod secure;

pub use atomic::{AtomicChannel, AtomicChannelConfig, FetchCounts, FETCH_RETAIN_ROUNDS};
pub use multiplex::{ConsistentChannel, ReliableChannel};
pub(crate) use optimistic::RecoverySet;
pub use optimistic::{EpochState, OptimisticChannel, OptimisticChannelConfig, PreparedEntry};
pub use secure::SecureAtomicChannel;
