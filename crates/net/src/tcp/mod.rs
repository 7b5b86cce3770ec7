//! The paper's deployment model over real TCP sockets.
//!
//! Each party binds a loopback listener; for every pair exactly one
//! connection exists at a time, dialed by the lower-id party (the
//! deterministic dial rule avoids duplicate-connection races). A fresh
//! connection is bound to the pairwise HMAC key by the three-frame
//! challenge–response [`handshake`](crate::link::handshake) before it
//! carries data; data frames then flow through the shared
//! [`ReliableLink`](crate::link::ReliableLink), which provides the
//! reliable FIFO authenticated point-to-point links SINTRA assumes
//! (§2.1) on top of a fair-lossy substrate: sequence numbers, cumulative
//! acknowledgements, a bounded retransmission queue, and duplicate
//! suppression.
//!
//! Each party runs one thread, which steps the party and sweeps its
//! sockets, and a short-lived thread per handshake; there is no thread
//! per peer. The party's loop alone owns its links and connections: a
//! handshake thread authenticates a connection and hands it to the loop,
//! which installs it. The sweep accepts connections, reads every
//! connection and redials a torn one, at once and then with jittered
//! exponential backoff; the handshake exchanges delivery watermarks and
//! the sender replays every unacknowledged frame above the peer's
//! watermark, so a severed-and-resumed link loses and reorders nothing.
//! Protocol logic is untouched by any of this: each party's loop steps
//! the same `PartyCore` the simulator steps, and hands its envelopes to
//! a transport whose frames cross real sockets.

mod conn;
mod runtime;

pub(crate) use conn::TcpTransport;
pub use conn::LINK_SCOPE;
pub use runtime::{TcpConfig, TcpGroup, TcpHandle};
