//! The shared authenticated link layer.
//!
//! SINTRA's protocol stack assumes *reliable FIFO authenticated
//! point-to-point links* between every pair of servers (the paper runs
//! HMAC-authenticated TCP connections with a 128-bit pairwise key). This
//! module is the single implementation of that contract, shared by every
//! real runtime in this crate:
//!
//! * [`frame`] — the wire format: length-prefixed frames carrying a
//!   claimed sender, a typed body (data, cumulative ack, or handshake)
//!   and an HMAC tag over both, plus [`frame::FrameBuffer`] for
//!   reassembling frames out of an arbitrary byte stream.
//! * [`reliable`] — [`ReliableLink`], the sans-I/O endpoint state
//!   machine that turns a *fair-lossy* byte stream (TCP connections that
//!   may drop and be re-established) into a reliable FIFO link:
//!   per-link send sequence numbers, cumulative acknowledgements, a
//!   bounded retransmission queue and duplicate suppression.
//! * [`handshake`] — the HMAC challenge–response session handshake that
//!   binds a fresh connection to the pairwise key and exchanges each
//!   side's delivery watermark so unacknowledged frames can be replayed
//!   after a reconnect.
//!
//! The [`tcp`](crate::tcp) runtime runs the full [`ReliableLink`]
//! machinery over real sockets and carries no private framing or MAC
//! code.

// Frame lengths, sequence numbers and ids cross the wire here: none may
// truncate silently.
#![deny(clippy::cast_possible_truncation)]

pub mod frame;
pub mod handshake;
pub mod reliable;

pub use frame::{frame_sender, FrameBuffer, FrameKind, LinkKey, MAX_FRAME_LEN};
pub use handshake::{initiate, read_frame, respond, HandshakeError};
pub use reliable::{LinkConfig, LinkEvent, LinkStats, ReliableLink};

use std::error::Error;
use std::fmt;

use sintra_core::wire::WireError;

/// An error produced by the link layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinkError {
    /// A frame ended before its declared length.
    Truncated,
    /// A frame's length prefix or payload exceeded the configured bound.
    Oversized,
    /// An unknown frame-kind discriminant.
    BadKind(u8),
    /// The HMAC tag did not verify for the claimed sender.
    BadMac,
    /// The frame claimed a sender other than the link's peer.
    WrongSender,
    /// The inner payload failed to decode.
    BadPayload(WireError),
    /// The bounded retransmission queue is full; the frame was not
    /// accepted. The peer has outrun the frame/byte bounds without
    /// acknowledging — usually because it is faulty, but possibly
    /// because a partition outlasted the (deliberately large) bounds;
    /// see [`LinkConfig`] for the trade-off.
    QueueFull,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Truncated => write!(f, "truncated frame"),
            LinkError::Oversized => write!(f, "frame exceeds size bound"),
            LinkError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            LinkError::BadMac => write!(f, "frame authentication failed"),
            LinkError::WrongSender => write!(f, "frame from unexpected sender"),
            LinkError::BadPayload(e) => write!(f, "bad frame payload: {e}"),
            LinkError::QueueFull => write!(f, "retransmission queue full"),
        }
    }
}

impl Error for LinkError {}

impl From<WireError> for LinkError {
    fn from(e: WireError) -> Self {
        LinkError::BadPayload(e)
    }
}
