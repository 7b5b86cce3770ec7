//! Broadcast primitives (paper §2.2).
//!
//! Both primitives disseminate one payload from a distinguished sender:
//!
//! * [`ReliableBroadcast`] (Bracha–Toueg) guarantees *agreement*: honest
//!   parties deliver the same payload or nothing. Quadratic messages, no
//!   public-key cryptography.
//! * [`ConsistentBroadcast`] (Reiter's echo broadcast) guarantees only
//!   *consistency* among the parties that deliver, in exchange for linear
//!   communication; it relies on a threshold signature at the Byzantine
//!   quorum `⌈(n+t+1)/2⌉`.
//! * [`VerifiableConsistentBroadcast`] adds transferable *closing
//!   messages*: one message lets any party deliver and terminate the
//!   broadcast — the mechanism multi-valued agreement uses to prove a
//!   candidate made a proposal.

mod consistent;
mod reliable;

pub use consistent::{ClosingMessage, ConsistentBroadcast, VerifiableConsistentBroadcast};
pub use reliable::ReliableBroadcast;
