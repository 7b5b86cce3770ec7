//! Runtimes for the SINTRA protocol stack.
//!
//! The protocol state machines in `sintra-core` are sans-IO; this crate
//! supplies the environments that drive them:
//!
//! * [`sim`]: a **deterministic discrete-event simulator** with a virtual
//!   clock, per-pair latency models (including the paper's measured
//!   Internet RTT matrix), crypto-cost accounting that converts metered
//!   modular exponentiations into virtual CPU time per machine profile,
//!   message-delivery adversaries (reorder, delay, partition) and
//!   pluggable Byzantine party behaviours. This is the substrate on which
//!   the paper's evaluation (Figures 4–6, Table 1) is reproduced.
//! * [`tcp`]: the paper's deployment model over **real sockets** — one
//!   server thread per party, each listening on a TCP address; pairwise
//!   connections carry HMAC-authenticated [`link`] frames with sequence
//!   numbers, cumulative acks and retransmission, and torn connections
//!   are re-established with jittered exponential backoff without losing
//!   or reordering deliveries. The application drives each party through
//!   a [`PartyHandle`], a blocking `send`/`receive`/`close` API mirroring
//!   SINTRA's Java interface.
//!
//! Both step a party the same way: driver → `PartyCore::step` →
//! `Node::handle_envelope` (or `handle_timer`, or an application
//! action). The step stamps each envelope's `send_seq`, expands
//! broadcasts, meters crypto work and derives the round and batch
//! metrics; the simulator adds virtual time, latency and faults, the TCP
//! server loop sockets, wall-clock traces and the flight recorder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Runtime and link code stops on a violated invariant only through
// `sintra-core`'s `invariant*` macros, which write a dump first.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod link;
pub mod metrics;
pub mod observe;
mod server;
pub mod sim;
mod step;
pub mod tcp;

pub use metrics::MetricsConfig;
pub use observe::ObservabilityConfig;

use sintra_core::agreement::CandidateOrder;
use sintra_core::channel::{AtomicChannelConfig, OptimisticChannelConfig};
use sintra_core::message::Payload;
use sintra_core::validator::{ArrayValidator, BinaryValidator};
use sintra_core::{PartyId, ProtocolId};

/// The application-facing API of one party in a running group. Mirrors
/// the paper's Java
/// `Channel`/`Broadcast`/`Agreement` interfaces (§3.4): creation and
/// `send`/`close` are non-blocking requests; `receive`, `decide` and
/// `close_wait` block.
///
/// Implemented by the TCP runtime's [`tcp::TcpHandle`]. A wait on one
/// instance keeps what arrives for the others, so results may be claimed
/// in any order.
pub trait PartyHandle {
    /// This party's identity.
    fn id(&self) -> PartyId;

    /// Opens an atomic broadcast channel.
    fn create_atomic_channel(&self, pid: ProtocolId, config: AtomicChannelConfig);

    /// Opens a secure causal atomic broadcast channel.
    fn create_secure_channel(&self, pid: ProtocolId, config: AtomicChannelConfig);

    /// Opens an optimistic (leader-sequenced) atomic broadcast channel.
    fn create_optimistic_channel(&self, pid: ProtocolId, config: OptimisticChannelConfig);

    /// Opens a reliable channel.
    fn create_reliable_channel(&self, pid: ProtocolId);

    /// Opens a consistent channel.
    fn create_consistent_channel(&self, pid: ProtocolId);

    /// Registers a reliable broadcast instance for `sender`.
    fn create_reliable_broadcast(&self, pid: ProtocolId, sender: PartyId);

    /// Registers a (verifiable) consistent broadcast instance for `sender`.
    fn create_consistent_broadcast(&self, pid: ProtocolId, sender: PartyId);

    /// Registers a binary agreement instance.
    fn create_binary_agreement(
        &self,
        pid: ProtocolId,
        validator: Option<BinaryValidator>,
        bias: Option<bool>,
    );

    /// Registers a multi-valued agreement instance.
    fn create_multi_valued(
        &self,
        pid: ProtocolId,
        validator: ArrayValidator,
        order: CandidateOrder,
    );

    /// Sends a payload on a channel (non-blocking).
    fn send(&self, pid: &ProtocolId, data: Vec<u8>);

    /// Injects an externally encrypted ciphertext into a secure channel.
    fn send_ciphertext(&self, pid: &ProtocolId, ciphertext: Vec<u8>);

    /// Starts a broadcast (this party must be the instance's sender).
    fn broadcast_send(&self, pid: &ProtocolId, payload: Vec<u8>);

    /// Proposes a value to a binary agreement instance.
    fn propose_binary(&self, pid: &ProtocolId, value: bool, proof: Vec<u8>);

    /// Proposes a value to a multi-valued agreement instance.
    fn propose_multi(&self, pid: &ProtocolId, value: Vec<u8>);

    /// Requests termination of a channel (non-blocking).
    fn close(&self, pid: &ProtocolId);

    /// Blocks until the next payload is delivered on `pid`; `None` once
    /// the channel closed or the server shut down.
    fn receive(&mut self, pid: &ProtocolId) -> Option<Payload>;

    /// Non-blocking receive.
    fn try_receive(&mut self, pid: &ProtocolId) -> Option<Payload>;

    /// Whether a `receive` on `pid` would return immediately.
    fn can_receive(&mut self, pid: &ProtocolId) -> bool;

    /// Whether the channel has terminated.
    fn is_closed(&mut self, pid: &ProtocolId) -> bool;

    /// Blocks until the channel terminates; returns undelivered payloads.
    fn close_wait(&mut self, pid: &ProtocolId) -> Vec<Payload>;

    /// Blocks until a broadcast instance delivers.
    fn receive_broadcast(&mut self, pid: &ProtocolId) -> Option<Vec<u8>>;

    /// Blocks until a binary agreement instance decides.
    fn decide_binary(&mut self, pid: &ProtocolId) -> Option<(bool, Option<Vec<u8>>)>;

    /// Blocks until a multi-valued agreement instance decides.
    fn decide_multi(&mut self, pid: &ProtocolId) -> Option<Vec<u8>>;
}
