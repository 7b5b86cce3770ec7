//! HMAC challenge–response session handshake.
//!
//! A fresh byte-stream connection is worthless until it is *bound to the
//! pairwise key*: both ends must prove, freshly, that they hold the key
//! the dealer issued for this server pair, and exchange their delivery
//! watermarks so the reliable layer can replay unacknowledged frames.
//! Three frames do it:
//!
//! ```text
//! dialer  → listener   Hello    { nonce_a }
//! listener→ dialer     HelloAck { echo(nonce_a), nonce_b, recv_cum_b }
//! dialer  → listener   Resume   { echo(nonce_b), recv_cum_a }
//! ```
//!
//! Every frame is HMAC-tagged under the pairwise key. The dialer accepts
//! the session when `HelloAck` echoes its nonce (proving the listener
//! computed a fresh tag, not a replay); the listener accepts when
//! `Resume` echoes *its* nonce. A recorded handshake from an old
//! connection therefore cannot install a session, and neither end
//! replays frames until it has the other's authenticated watermark.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use sintra_crypto::hash::Sha256;

use super::frame::{FrameKind, LinkKey, MAX_FRAME_LEN, NONCE_LEN};
use super::LinkError;

/// An error during the session handshake.
#[derive(Debug)]
#[non_exhaustive]
pub enum HandshakeError {
    /// The connection failed or timed out.
    Io(std::io::Error),
    /// A frame failed authentication or decoding.
    Link(LinkError),
    /// The peer sent a well-formed frame of the wrong kind, or echoed
    /// the wrong nonce (a replayed or cross-wired handshake).
    Protocol(&'static str),
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::Io(e) => write!(f, "handshake I/O error: {e}"),
            HandshakeError::Link(e) => write!(f, "handshake frame error: {e}"),
            HandshakeError::Protocol(what) => write!(f, "handshake protocol error: {what}"),
        }
    }
}

impl std::error::Error for HandshakeError {}

impl From<std::io::Error> for HandshakeError {
    fn from(e: std::io::Error) -> Self {
        HandshakeError::Io(e)
    }
}

impl From<LinkError> for HandshakeError {
    fn from(e: LinkError) -> Self {
        HandshakeError::Link(e)
    }
}

/// Reads one complete length-prefixed frame (prefix included) from a
/// blocking stream, bounding the allocation by [`MAX_FRAME_LEN`].
pub fn read_frame<S: Read>(stream: &mut S) -> Result<Vec<u8>, HandshakeError> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let declared = u32::from_be_bytes(len_buf) as usize;
    if declared > MAX_FRAME_LEN {
        return Err(HandshakeError::Link(LinkError::Oversized));
    }
    let mut frame = vec![0u8; 4 + declared];
    frame[..4].copy_from_slice(&len_buf);
    stream.read_exact(&mut frame[4..])?;
    Ok(frame)
}

/// Generates a nonce that is unique per process lifetime (a hash of the
/// wall clock and a process-wide counter). Not a CSPRNG — the handshake
/// only needs freshness against replay, which uniqueness provides.
pub fn fresh_nonce() -> [u8; NONCE_LEN] {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    // The low 64 bits of the clock are as fresh as all of them.
    #[allow(clippy::cast_possible_truncation)]
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut h = Sha256::new();
    h.update(b"sintra-link-nonce");
    h.update(&nanos.to_be_bytes());
    h.update(&count.to_be_bytes());
    let digest = h.finalize();
    let mut nonce = [0u8; NONCE_LEN];
    nonce.copy_from_slice(&digest[..NONCE_LEN]);
    nonce
}

/// Runs the dialer side of the handshake on a fresh connection.
///
/// `recv_cum` is the local delivery watermark to advertise. Returns the
/// peer's watermark: every unacknowledged frame above it must be
/// replayed on this connection.
pub fn initiate<S: Read + Write>(
    stream: &mut S,
    key: &LinkKey,
    recv_cum: u64,
) -> Result<u64, HandshakeError> {
    let my_nonce = fresh_nonce();
    stream.write_all(&key.seal(&FrameKind::Hello { nonce: my_nonce }))?;
    stream.flush()?;
    let reply = read_frame(stream)?;
    let (their_nonce, peer_cum) = match key.open(&reply)? {
        FrameKind::HelloAck {
            nonce_echo,
            nonce,
            recv_cum,
        } => {
            if nonce_echo != my_nonce {
                return Err(HandshakeError::Protocol("stale hello-ack nonce"));
            }
            (nonce, recv_cum)
        }
        _ => return Err(HandshakeError::Protocol("expected hello-ack")),
    };
    stream.write_all(&key.seal(&FrameKind::Resume {
        nonce_echo: their_nonce,
        recv_cum,
    }))?;
    stream.flush()?;
    Ok(peer_cum)
}

/// Runs the listener side of the handshake, after the caller has read
/// the peer's `Hello` frame and verified it under `key` (the listener
/// must peek the claimed sender to select the key first — see
/// [`super::frame_sender`]).
///
/// Returns the peer's advertised watermark once its `Resume` proves
/// freshness.
pub fn respond<S: Read + Write>(
    stream: &mut S,
    key: &LinkKey,
    hello_nonce: [u8; NONCE_LEN],
    recv_cum: u64,
) -> Result<u64, HandshakeError> {
    let my_nonce = fresh_nonce();
    stream.write_all(&key.seal(&FrameKind::HelloAck {
        nonce_echo: hello_nonce,
        nonce: my_nonce,
        recv_cum,
    }))?;
    stream.flush()?;
    let resume = read_frame(stream)?;
    match key.open(&resume)? {
        FrameKind::Resume {
            nonce_echo,
            recv_cum: peer_cum,
        } => {
            if nonce_echo != my_nonce {
                return Err(HandshakeError::Protocol("stale resume nonce"));
            }
            Ok(peer_cum)
        }
        _ => Err(HandshakeError::Protocol("expected resume")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_core::PartyId;
    use sintra_crypto::hmac::HmacKey;
    use std::collections::VecDeque;
    use std::io;
    use std::sync::{Arc, Condvar, Mutex};

    /// A blocking in-memory duplex pipe: two endpoints, two directions.
    #[derive(Default)]
    struct Half {
        buf: Mutex<VecDeque<u8>>,
        ready: Condvar,
    }

    struct Pipe {
        read_from: Arc<Half>,
        write_to: Arc<Half>,
    }

    fn duplex() -> (Pipe, Pipe) {
        let ab = Arc::new(Half::default());
        let ba = Arc::new(Half::default());
        (
            Pipe {
                read_from: Arc::clone(&ba),
                write_to: Arc::clone(&ab),
            },
            Pipe {
                read_from: ab,
                write_to: ba,
            },
        )
    }

    impl Read for Pipe {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let mut buf = self.read_from.buf.lock().unwrap();
            while buf.is_empty() {
                buf = self.read_from.ready.wait(buf).unwrap();
            }
            let n = out.len().min(buf.len());
            for slot in out.iter_mut().take(n) {
                *slot = buf.pop_front().unwrap();
            }
            Ok(n)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            let mut buf = self.write_to.buf.lock().unwrap();
            buf.extend(data);
            self.write_to.ready.notify_all();
            Ok(data.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn keys() -> (LinkKey, LinkKey) {
        let key = HmacKey::new(b"hs pair".to_vec());
        (
            LinkKey::new(key.clone(), PartyId(0), PartyId(1)),
            LinkKey::new(key, PartyId(1), PartyId(0)),
        )
    }

    #[test]
    fn full_handshake_exchanges_watermarks() {
        let (mut dialer, mut listener) = duplex();
        let (dk, lk) = keys();
        let listener_side = std::thread::spawn(move || {
            let hello = read_frame(&mut listener).unwrap();
            let FrameKind::Hello { nonce } = lk.open(&hello).unwrap() else {
                panic!("expected hello");
            };
            respond(&mut listener, &lk, nonce, 42).unwrap()
        });
        let peer_cum_at_dialer = initiate(&mut dialer, &dk, 7).unwrap();
        let peer_cum_at_listener = listener_side.join().unwrap();
        assert_eq!(peer_cum_at_dialer, 42);
        assert_eq!(peer_cum_at_listener, 7);
    }

    #[test]
    fn replayed_hello_ack_rejected() {
        // A "listener" that answers with a HelloAck echoing the wrong
        // nonce (as a replay of an old handshake would).
        let (mut dialer, mut listener) = duplex();
        let (dk, lk) = keys();
        let attacker = std::thread::spawn(move || {
            let _hello = read_frame(&mut listener).unwrap();
            let stale = lk.seal(&FrameKind::HelloAck {
                nonce_echo: [0xAB; NONCE_LEN],
                nonce: [1; NONCE_LEN],
                recv_cum: 0,
            });
            listener.write_all(&stale).unwrap();
        });
        let err = initiate(&mut dialer, &dk, 0).unwrap_err();
        attacker.join().unwrap();
        assert!(matches!(err, HandshakeError::Protocol(_)));
    }

    #[test]
    fn nonces_are_unique() {
        let a = fresh_nonce();
        let b = fresh_nonce();
        assert_ne!(a, b);
    }
}
