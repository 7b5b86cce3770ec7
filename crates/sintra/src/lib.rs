//! # SINTRA — Secure INtrusion-Tolerant Replication Architecture
//!
//! A Rust implementation of the system described in *Secure
//! Intrusion-tolerant Replication on the Internet* (Cachin & Poritz,
//! DSN 2002): group communication for `n` servers on an asynchronous
//! network tolerating `t < n/3` Byzantine corruptions, built on threshold
//! cryptography.
//!
//! This crate is the umbrella: it re-exports the full stack.
//!
//! | Module | Contents |
//! |---|---|
//! | [`crypto`] | threshold coin-tossing, threshold signatures (Shoup RSA and multi-signatures), TDH2 threshold encryption, RSA, hashing, the trusted dealer |
//! | [`protocols`] | reliable/consistent broadcast, binary and multi-valued Byzantine agreement, atomic / secure-causal / reliable / consistent channels, the per-party [`protocols::node::Node`] |
//! | [`runtime`] | the deterministic discrete-event simulator and the TCP runtime, both stepping parties through one `PartyCore` |
//! | [`testbed`] | the paper's evaluation testbeds and experiment runners |
//! | [`bigint`] | the arbitrary-precision arithmetic substrate |
//!
//! # Quickstart: replicated state machine over atomic broadcast
//!
//! ```
//! use std::sync::Arc;
//! use rand::SeedableRng;
//! use sintra::crypto::dealer::{deal, DealerConfig};
//! use sintra::protocols::channel::AtomicChannelConfig;
//! use sintra::runtime::tcp::TcpGroup;
//! use sintra::runtime::PartyHandle;
//! use sintra::ProtocolId;
//!
//! // 1. Trusted setup: deal keys for n = 4 servers tolerating t = 1.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let keys = deal(&DealerConfig::small(4, 1), &mut rng)?;
//!
//! // 2. Launch the servers (one thread each, authenticated loopback
//! //    TCP links).
//! let (group, mut servers) = TcpGroup::spawn(keys.into_iter().map(Arc::new).collect())?;
//!
//! // 3. Open an atomic broadcast channel and replicate state updates.
//! let channel = ProtocolId::new("bank-ledger");
//! for s in &servers {
//!     s.create_atomic_channel(channel.clone(), AtomicChannelConfig::default());
//! }
//! servers[0].send(&channel, b"credit alice 100".to_vec());
//! for server in servers.iter_mut() {
//!     // Every server delivers the same sequence of updates.
//!     let update = server.receive(&channel).expect("delivery");
//!     assert_eq!(update.data, b"credit alice 100");
//! }
//! group.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Arbitrary-precision arithmetic (re-export of `sintra-bigint`).
pub mod bigint {
    pub use sintra_bigint::*;
}

/// Threshold cryptography (re-export of `sintra-crypto`).
pub mod crypto {
    pub use sintra_crypto::*;
}

/// Protocol state machines (re-export of `sintra-core`).
pub mod protocols {
    pub use sintra_core::*;
}

/// Runtimes (re-export of `sintra-net`).
pub mod runtime {
    pub use sintra_net::*;
}

/// Evaluation testbeds and experiments (re-export of `sintra-testbed`).
pub mod testbed {
    pub use sintra_testbed::*;
}

/// Protocol telemetry: metrics registry, structured trace events and run
/// reports (re-export of `sintra-telemetry`).
pub mod telemetry {
    pub use sintra_telemetry::*;
}

pub use sintra_core::{Event, GroupContext, Outgoing, PartyId, ProtocolId, Recipient};
