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
//! * [`threaded`]: a real multithreaded runtime — one thread per party,
//!   HMAC-authenticated framed links over in-process channels, and a
//!   blocking `send`/`receive`/`close` channel API mirroring SINTRA's
//!   Java interface.
//! * [`tcp`]: the paper's deployment model over **real sockets** — each
//!   party listens on a TCP address, pairwise connections carry
//!   HMAC-authenticated frames with sequence numbers, cumulative acks
//!   and retransmission, and torn connections are re-established with
//!   jittered exponential backoff without losing or reordering
//!   deliveries.
//!
//! The real runtimes share one [`link`] layer (framing, authentication,
//! reliability, session handshake) and one [`server`] loop; they differ
//! only in the [`Transport`] that moves sealed frames. The [`Runtime`]
//! and [`PartyHandle`] traits let harnesses and tests run the same
//! scenario over either substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod metrics;
pub mod observe;
pub mod server;
pub mod sim;
pub mod tcp;
pub mod threaded;

pub use metrics::MetricsConfig;
pub use observe::ObservabilityConfig;
pub use server::{ServerHandle, Transport};

use sintra_core::agreement::CandidateOrder;
use sintra_core::channel::{AtomicChannelConfig, OptimisticChannelConfig};
use sintra_core::message::Payload;
use sintra_core::validator::{ArrayValidator, BinaryValidator};
use sintra_core::{PartyId, ProtocolId};

/// The application-facing API of one party in a running group,
/// independent of the transport underneath. Mirrors the paper's Java
/// `Channel`/`Broadcast`/`Agreement` interfaces (§3.4): creation and
/// `send`/`close` are non-blocking requests; `receive`, `decide` and
/// `close_wait` block.
///
/// Implemented by the [`ServerHandle`] both real runtimes hand out and
/// by the TCP runtime's [`tcp::TcpHandle`]; generic harnesses (the
/// testbed's channel scenarios, the shutdown regression tests) are
/// written against this trait so they run unchanged over in-process
/// links and real sockets.
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

/// A running group of SINTRA servers over some transport.
///
/// Implemented by [`threaded::ThreadedGroup`] and [`tcp::TcpGroup`];
/// `shutdown` stops every server loop, drains outbound queues and joins
/// all runtime threads — the two runtimes follow the same teardown
/// discipline so harnesses can treat them interchangeably.
pub trait Runtime {
    /// The per-party handle type this runtime hands out.
    type Handle: PartyHandle;

    /// Stops all server threads (and any transport threads) and waits
    /// for them.
    fn shutdown(self);
}

/// Crate-internal accessor: every handle type is a view onto a
/// [`ServerHandle`], and the blanket [`PartyHandle`] impl below
/// delegates through it. Sealed — external handle types implement
/// [`PartyHandle`] directly.
pub(crate) trait AsServer {
    fn as_server(&self) -> &ServerHandle;
    fn as_server_mut(&mut self) -> &mut ServerHandle;
}

impl AsServer for ServerHandle {
    fn as_server(&self) -> &ServerHandle {
        self
    }
    fn as_server_mut(&mut self) -> &mut ServerHandle {
        self
    }
}

impl<T: AsServer> PartyHandle for T {
    fn id(&self) -> PartyId {
        self.as_server().id()
    }
    fn create_atomic_channel(&self, pid: ProtocolId, config: AtomicChannelConfig) {
        self.as_server().create_atomic_channel(pid, config)
    }
    fn create_secure_channel(&self, pid: ProtocolId, config: AtomicChannelConfig) {
        self.as_server().create_secure_channel(pid, config)
    }
    fn create_optimistic_channel(&self, pid: ProtocolId, config: OptimisticChannelConfig) {
        self.as_server().create_optimistic_channel(pid, config)
    }
    fn create_reliable_channel(&self, pid: ProtocolId) {
        self.as_server().create_reliable_channel(pid)
    }
    fn create_consistent_channel(&self, pid: ProtocolId) {
        self.as_server().create_consistent_channel(pid)
    }
    fn create_reliable_broadcast(&self, pid: ProtocolId, sender: PartyId) {
        self.as_server().create_reliable_broadcast(pid, sender)
    }
    fn create_consistent_broadcast(&self, pid: ProtocolId, sender: PartyId) {
        self.as_server().create_consistent_broadcast(pid, sender)
    }
    fn create_binary_agreement(
        &self,
        pid: ProtocolId,
        validator: Option<BinaryValidator>,
        bias: Option<bool>,
    ) {
        self.as_server()
            .create_binary_agreement(pid, validator, bias)
    }
    fn create_multi_valued(
        &self,
        pid: ProtocolId,
        validator: ArrayValidator,
        order: CandidateOrder,
    ) {
        self.as_server().create_multi_valued(pid, validator, order)
    }
    fn send(&self, pid: &ProtocolId, data: Vec<u8>) {
        self.as_server().send(pid, data)
    }
    fn send_ciphertext(&self, pid: &ProtocolId, ciphertext: Vec<u8>) {
        self.as_server().send_ciphertext(pid, ciphertext)
    }
    fn broadcast_send(&self, pid: &ProtocolId, payload: Vec<u8>) {
        self.as_server().broadcast_send(pid, payload)
    }
    fn propose_binary(&self, pid: &ProtocolId, value: bool, proof: Vec<u8>) {
        self.as_server().propose_binary(pid, value, proof)
    }
    fn propose_multi(&self, pid: &ProtocolId, value: Vec<u8>) {
        self.as_server().propose_multi(pid, value)
    }
    fn close(&self, pid: &ProtocolId) {
        self.as_server().close(pid)
    }
    fn receive(&mut self, pid: &ProtocolId) -> Option<Payload> {
        self.as_server_mut().receive(pid)
    }
    fn try_receive(&mut self, pid: &ProtocolId) -> Option<Payload> {
        self.as_server_mut().try_receive(pid)
    }
    fn can_receive(&mut self, pid: &ProtocolId) -> bool {
        self.as_server_mut().can_receive(pid)
    }
    fn is_closed(&mut self, pid: &ProtocolId) -> bool {
        self.as_server_mut().is_closed(pid)
    }
    fn close_wait(&mut self, pid: &ProtocolId) -> Vec<Payload> {
        self.as_server_mut().close_wait(pid)
    }
    fn receive_broadcast(&mut self, pid: &ProtocolId) -> Option<Vec<u8>> {
        self.as_server_mut().receive_broadcast(pid)
    }
    fn decide_binary(&mut self, pid: &ProtocolId) -> Option<(bool, Option<Vec<u8>>)> {
        self.as_server_mut().decide_binary(pid)
    }
    fn decide_multi(&mut self, pid: &ProtocolId) -> Option<Vec<u8>> {
        self.as_server_mut().decide_multi(pid)
    }
}
