//! SINTRA protocol state machines.
//!
//! This crate implements the protocol stack of *Secure Intrusion-tolerant
//! Replication on the Internet* (Cachin & Poritz, DSN 2002) as **sans-IO
//! state machines**: each protocol consumes incoming messages and local
//! requests, and emits outgoing messages plus locally observable outputs.
//! Runtimes (the deterministic discrete-event simulator and the TCP
//! runtime in `sintra-net`) drive these machines; the protocols themselves
//! never touch a socket or a clock, which is what makes them fully
//! asynchronous — exactly the system model of the paper.
//!
//! The stack, bottom to top (paper §2):
//!
//! * [`broadcast`]: Bracha reliable broadcast; Reiter-style consistent
//!   (echo) broadcast with threshold signatures; verifiable consistent
//!   broadcast with transferable closing messages.
//! * [`agreement`]: randomized binary Byzantine agreement (Cachin–Kursawe–
//!   Shoup) with justified votes and the common coin; validated and biased
//!   variants; multi-valued agreement (Cachin–Kursawe–Petzold–Shoup).
//! * [`channel`]: the atomic broadcast channel (state-machine replication),
//!   secure causal atomic broadcast (threshold-encrypted), and the
//!   aggregated reliable/consistent channels.
//! * [`node`]: a per-party container that hosts protocol instances and
//!   routes messages between them.
//!
//! [`pump`] is the in-memory network that tests and benches drive a
//! group of instances on, in FIFO order or a seeded random one.
//!
//! Every protocol acts on a signature, share or signed entry only after
//! checking it, and [`checked`] makes that a type: the decoder yields
//! `Unchecked<T>`, state stores `Checked<T>`, and only a check turns one
//! into the other.
//!
//! All protocols tolerate `t < n/3` Byzantine parties and never rely on
//! timing: progress requires only that messages between honest parties are
//! eventually delivered.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Protocol code stops on a violated invariant only through the
// `invariant*` macros, which the server loop turns into a dump.
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
// Lengths, ids and counts are encoded all over the crate, not only in
// `wire.rs`: none may truncate silently on its way to the wire.
#![deny(clippy::cast_possible_truncation)]

pub mod agreement;
pub mod broadcast;
pub mod channel;
pub mod checked;
mod config;
mod ids;
pub mod invariant;
pub mod message;
pub mod node;
mod outgoing;
pub mod pump;
pub mod schema;
pub mod validator;
pub mod wire;

pub use config::GroupContext;
pub use ids::{PartyId, ProtocolId};
pub use outgoing::{Event, Outgoing, Recipient, TimerRequest};
