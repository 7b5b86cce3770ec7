//! Link frame format: length prefix, claimed sender, typed body, HMAC.
//!
//! Every frame on a link is
//!
//! ```text
//! u32 len  ||  u32 sender  ||  u8 kind + fields  ||  tag
//! ```
//!
//! where `len` counts everything after the length field and `tag` is the
//! pairwise HMAC over `sender || kind || fields`. Covering the claimed
//! sender prevents identity spoofing even when frames travel over a
//! shared substrate; covering the sequence number (part of the fields of
//! a data frame) binds each payload to its position so replayed or
//! reordered frames are detected by the [`reliable`](super::reliable)
//! layer rather than silently accepted.

use sintra_core::wire::Reader;
use sintra_core::PartyId;
use sintra_crypto::hmac::{HmacKey, TAG_LEN};

use super::LinkError;
use sintra_core::invariant::OrInvariant;

/// Upper bound on one frame's `len` field (body + tag). Slightly above
/// the 16 MiB wire-level payload bound so a maximal envelope still fits.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024 + 4096;

/// Nonce width used by the handshake frames.
pub const NONCE_LEN: usize = 16;

const KIND_DATA: u8 = 0;
const KIND_ACK: u8 = 1;
const KIND_HELLO: u8 = 2;
const KIND_HELLO_ACK: u8 = 3;
const KIND_RESUME: u8 = 4;

/// The typed body of a link frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameKind {
    /// An application payload at position `seq` (1-based) in the
    /// sender's FIFO order on this link.
    Data {
        /// Link sequence number.
        seq: u64,
        /// Opaque payload (a serialized envelope).
        payload: Vec<u8>,
    },
    /// Cumulative acknowledgement: every data frame with `seq <= cum`
    /// has been delivered by the sender of this frame.
    Ack {
        /// Highest in-order sequence number delivered.
        cum: u64,
    },
    /// Handshake step 1 (dialer → listener): a fresh challenge.
    Hello {
        /// The dialer's nonce.
        nonce: [u8; NONCE_LEN],
    },
    /// Handshake step 2 (listener → dialer): proof of key possession
    /// bound to the dialer's nonce, a counter-challenge, and the
    /// listener's delivery watermark for resume.
    HelloAck {
        /// Echo of the dialer's nonce.
        nonce_echo: [u8; NONCE_LEN],
        /// The listener's nonce.
        nonce: [u8; NONCE_LEN],
        /// Highest in-order data seq the listener has delivered.
        recv_cum: u64,
    },
    /// Handshake step 3 (dialer → listener): proof of key possession
    /// bound to the listener's nonce plus the dialer's watermark.
    Resume {
        /// Echo of the listener's nonce.
        nonce_echo: [u8; NONCE_LEN],
        /// Highest in-order data seq the dialer has delivered.
        recv_cum: u64,
    },
}

impl FrameKind {
    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            FrameKind::Data { seq, payload } => {
                buf.push(KIND_DATA);
                buf.extend_from_slice(&seq.to_be_bytes());
                buf.extend_from_slice(payload);
            }
            FrameKind::Ack { cum } => {
                buf.push(KIND_ACK);
                buf.extend_from_slice(&cum.to_be_bytes());
            }
            FrameKind::Hello { nonce } => {
                buf.push(KIND_HELLO);
                buf.extend_from_slice(nonce);
            }
            FrameKind::HelloAck {
                nonce_echo,
                nonce,
                recv_cum,
            } => {
                buf.push(KIND_HELLO_ACK);
                buf.extend_from_slice(nonce_echo);
                buf.extend_from_slice(nonce);
                buf.extend_from_slice(&recv_cum.to_be_bytes());
            }
            FrameKind::Resume {
                nonce_echo,
                recv_cum,
            } => {
                buf.push(KIND_RESUME);
                buf.extend_from_slice(nonce_echo);
                buf.extend_from_slice(&recv_cum.to_be_bytes());
            }
        }
    }

    fn decode_body(body: &[u8]) -> Result<FrameKind, LinkError> {
        let mut r = Reader::new(body);
        let kind = r.u8().map_err(|_| LinkError::Truncated)?;
        let take_nonce = |r: &mut Reader<'_>| -> Result<[u8; NONCE_LEN], LinkError> {
            r.take_arr().map_err(|_| LinkError::Truncated)
        };
        let frame = match kind {
            KIND_DATA => {
                let seq = r.u64().map_err(|_| LinkError::Truncated)?;
                let payload = r.take_rest().to_vec();
                return Ok(FrameKind::Data { seq, payload });
            }
            KIND_ACK => FrameKind::Ack {
                cum: r.u64().map_err(|_| LinkError::Truncated)?,
            },
            KIND_HELLO => FrameKind::Hello {
                nonce: take_nonce(&mut r)?,
            },
            KIND_HELLO_ACK => FrameKind::HelloAck {
                nonce_echo: take_nonce(&mut r)?,
                nonce: take_nonce(&mut r)?,
                recv_cum: r.u64().map_err(|_| LinkError::Truncated)?,
            },
            KIND_RESUME => FrameKind::Resume {
                nonce_echo: take_nonce(&mut r)?,
                recv_cum: r.u64().map_err(|_| LinkError::Truncated)?,
            },
            d => return Err(LinkError::BadKind(d)),
        };
        if r.remaining() != 0 {
            return Err(LinkError::Truncated);
        }
        Ok(frame)
    }
}

/// The authentication context of one directed link: the pairwise HMAC
/// key plus the local and peer identities. Sealing stamps the local id
/// as sender; opening only accepts frames claiming the peer.
#[derive(Debug, Clone)]
pub struct LinkKey {
    key: HmacKey,
    local: PartyId,
    peer: PartyId,
}

impl LinkKey {
    /// Creates the link context between `local` and `peer` from their
    /// pairwise key (both directions share it, as dealt by the dealer).
    pub fn new(key: HmacKey, local: PartyId, peer: PartyId) -> Self {
        LinkKey { key, local, peer }
    }

    /// The local party.
    pub fn local(&self) -> PartyId {
        self.local
    }

    /// The peer this link authenticates.
    pub fn peer(&self) -> PartyId {
        self.peer
    }

    /// The value a sealed data frame's `len` field would carry for a
    /// payload of `payload_len` bytes: sender id, kind byte, sequence
    /// number, payload, and tag. Senders use this to refuse payloads
    /// that would exceed [`MAX_FRAME_LEN`] *before* sealing, since a
    /// receiver's [`FrameBuffer`] poisons the whole stream on an
    /// oversized length prefix.
    pub fn data_frame_len(&self, payload_len: usize) -> usize {
        4 + 1 + 8 + payload_len + TAG_LEN
    }

    /// Seals one frame into one buffer: a placeholder length, then
    /// `sender || body`, then its tag; the length is patched in last.
    pub fn seal(&self, kind: &FrameKind) -> Vec<u8> {
        let payload_len = if let FrameKind::Data { payload, .. } = kind {
            payload.len()
        } else {
            0
        };
        // Every kind's fixed fields fit in a kind byte, two nonces and a u64.
        let mut frame = Vec::with_capacity(4 + 4 + 1 + 2 * NONCE_LEN + 8 + payload_len + TAG_LEN);
        frame.extend_from_slice(&[0; 4]);
        let sender = u32::try_from(self.local.0).or_invariant("party id exceeds the u32 field");
        frame.extend_from_slice(&sender.to_be_bytes());
        kind.encode_body(&mut frame);
        let tag = self.key.sign(&frame[4..]);
        frame.extend_from_slice(&tag);
        let len32 =
            u32::try_from(frame.len() - 4).or_invariant("frame length exceeds the u32 prefix");
        frame[..4].copy_from_slice(&len32.to_be_bytes());
        frame
    }

    /// Opens one complete frame (including its length prefix): checks
    /// the length, the claimed sender, and the HMAC, then decodes the
    /// body. Never panics on malformed input.
    pub fn open(&self, frame: &[u8]) -> Result<FrameKind, LinkError> {
        if frame.len() < 4 {
            return Err(LinkError::Truncated);
        }
        let declared = be_u32_prefix(frame) as usize;
        if declared > MAX_FRAME_LEN {
            return Err(LinkError::Oversized);
        }
        if frame.len() != declared + 4 || declared < 4 + 1 + TAG_LEN {
            return Err(LinkError::Truncated);
        }
        let (authed, tag) = frame[4..].split_at(declared - TAG_LEN);
        if !self.key.verify(authed, tag) {
            return Err(LinkError::BadMac);
        }
        let sender = be_u32_prefix(authed) as usize;
        if sender != self.peer.0 {
            return Err(LinkError::WrongSender);
        }
        FrameKind::decode_body(&authed[4..])
    }
}

/// Big-endian `u32` from the first four bytes of `bytes`, which every
/// caller has already length-checked.
fn be_u32_prefix(bytes: &[u8]) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[..4]);
    u32::from_be_bytes(b)
}

/// Reads the claimed (still unauthenticated!) sender of a complete
/// frame, so a listener can select the pairwise key to verify with.
pub fn frame_sender(frame: &[u8]) -> Option<PartyId> {
    if frame.len() < 8 {
        return None;
    }
    Some(PartyId(be_u32_prefix(&frame[4..]) as usize))
}

/// Reassembles length-prefixed frames out of an arbitrary byte stream.
///
/// Bytes arrive in whatever chunks the transport produces; `extend`
/// appends them and `next_frame` yields each complete frame (length
/// prefix included, ready for [`LinkKey::open`]). A length prefix above
/// [`MAX_FRAME_LEN`] poisons the stream — the caller should drop the
/// connection, since resynchronisation inside a corrupt TCP stream is
/// hopeless.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
    poisoned: bool,
}

impl FrameBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are
    /// needed, or `Err(Oversized)` if the stream is unrecoverable.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, LinkError> {
        if self.poisoned {
            return Err(LinkError::Oversized);
        }
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            self.compact();
            return Ok(None);
        }
        let declared = be_u32_prefix(avail) as usize;
        if declared > MAX_FRAME_LEN {
            self.poisoned = true;
            return Err(LinkError::Oversized);
        }
        if avail.len() < 4 + declared {
            self.compact();
            return Ok(None);
        }
        let frame = avail[..4 + declared].to_vec();
        self.start += 4 + declared;
        self.compact();
        Ok(Some(frame))
    }

    /// Like [`FrameBuffer::next_frame`], but borrows the frame out of the
    /// internal buffer instead of allocating a fresh `Vec` per frame —
    /// the hot-path variant for readers that consume the frame before
    /// touching the buffer again. Compaction happens at entry (never
    /// while a frame is borrowed), so memory stays bounded exactly as
    /// with the owning variant.
    pub fn next_frame_ref(&mut self) -> Result<Option<&[u8]>, LinkError> {
        if self.poisoned {
            return Err(LinkError::Oversized);
        }
        self.compact();
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let declared = be_u32_prefix(&self.buf[self.start..]) as usize;
        if declared > MAX_FRAME_LEN {
            self.poisoned = true;
            return Err(LinkError::Oversized);
        }
        if avail < 4 + declared {
            return Ok(None);
        }
        let frame_start = self.start;
        self.start += 4 + declared;
        Ok(Some(&self.buf[frame_start..frame_start + 4 + declared]))
    }

    /// Reclaims consumed prefix space once it dominates the buffer.
    fn compact(&mut self) {
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_pair() -> (LinkKey, LinkKey) {
        let key = HmacKey::new(b"pairwise key 0-1".to_vec());
        (
            LinkKey::new(key.clone(), PartyId(0), PartyId(1)),
            LinkKey::new(key, PartyId(1), PartyId(0)),
        )
    }

    #[test]
    fn all_kinds_roundtrip() {
        let (a, b) = key_pair();
        let kinds = [
            FrameKind::Data {
                seq: 7,
                payload: b"payload".to_vec(),
            },
            FrameKind::Data {
                seq: 0,
                payload: Vec::new(),
            },
            FrameKind::Ack { cum: u64::MAX },
            FrameKind::Hello { nonce: [3; 16] },
            FrameKind::HelloAck {
                nonce_echo: [3; 16],
                nonce: [4; 16],
                recv_cum: 9,
            },
            FrameKind::Resume {
                nonce_echo: [4; 16],
                recv_cum: 11,
            },
        ];
        for kind in kinds {
            let frame = a.seal(&kind);
            assert_eq!(b.open(&frame).unwrap(), kind);
        }
    }

    #[test]
    fn tampered_bytes_rejected() {
        let (a, b) = key_pair();
        let clean = a.seal(&FrameKind::Data {
            seq: 1,
            payload: b"hello".to_vec(),
        });
        for i in 4..clean.len() {
            let mut frame = clean.clone();
            frame[i] ^= 0x40;
            assert!(b.open(&frame).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn truncation_and_oversize_rejected() {
        let (a, b) = key_pair();
        let frame = a.seal(&FrameKind::Ack { cum: 3 });
        for cut in 0..frame.len() {
            assert!(b.open(&frame[..cut]).is_err());
        }
        let mut huge = frame.clone();
        huge[..4].copy_from_slice(&(u32::try_from(MAX_FRAME_LEN).unwrap() + 1).to_be_bytes());
        assert_eq!(b.open(&huge), Err(LinkError::Oversized));
    }

    #[test]
    fn wrong_key_and_spoofed_sender_rejected() {
        let (a, _) = key_pair();
        let frame = a.seal(&FrameKind::Ack { cum: 1 });
        let other = LinkKey::new(HmacKey::new(b"different".to_vec()), PartyId(1), PartyId(0));
        assert_eq!(other.open(&frame), Err(LinkError::BadMac));
        // Party 2 holds the 0-2 key and claims to be party 0 on the 0-1
        // link: the tag covers the claimed sender and fails under the
        // 0-1 key.
        let key_02 = HmacKey::new(b"pairwise key 0-2".to_vec());
        let spoofer = LinkKey::new(key_02, PartyId(0), PartyId(1));
        let (_, receiver_from_0) = key_pair();
        assert_eq!(
            receiver_from_0.open(&spoofer.seal(&FrameKind::Ack { cum: 1 })),
            Err(LinkError::BadMac)
        );
        // A frame legitimately sealed by party 1 is rejected on a link
        // expecting party 2, even under the right key.
        let (_, b) = key_pair();
        let from_1 = b.seal(&FrameKind::Ack { cum: 1 });
        let expects_2 = LinkKey::new(
            HmacKey::new(b"pairwise key 0-1".to_vec()),
            PartyId(0),
            PartyId(2),
        );
        assert_eq!(expects_2.open(&from_1), Err(LinkError::WrongSender));
    }

    #[test]
    fn frame_buffer_reassembles_byte_dribble() {
        let (a, b) = key_pair();
        let mut wire = Vec::new();
        let sent: Vec<FrameKind> = (0..5u8)
            .map(|i| FrameKind::Data {
                seq: u64::from(i) + 1,
                payload: vec![i; usize::from(i) * 17],
            })
            .collect();
        for kind in &sent {
            wire.extend_from_slice(&a.seal(kind));
        }
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(3) {
            fb.extend(chunk);
            while let Some(frame) = fb.next_frame().unwrap() {
                got.push(b.open(&frame).unwrap());
            }
        }
        assert_eq!(got, sent);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn frame_buffer_ref_variant_matches_owning_variant() {
        let (a, b) = key_pair();
        let mut wire = Vec::new();
        let sent: Vec<FrameKind> = (0..64u8)
            .map(|i| FrameKind::Data {
                seq: u64::from(i) + 1,
                payload: vec![i; usize::from(i) * 13 % 97],
            })
            .collect();
        for kind in &sent {
            wire.extend_from_slice(&a.seal(kind));
        }
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(7) {
            fb.extend(chunk);
            while let Some(frame) = fb.next_frame_ref().unwrap() {
                got.push(b.open(frame).unwrap());
            }
        }
        assert_eq!(got, sent);
        assert_eq!(fb.pending(), 0);
        // Long streams of complete frames must not grow the buffer
        // without bound: compaction runs even when no partial frame
        // forces the `Ok(None)` path.
        assert!(fb.buf.len() < 2 * wire.len());
    }

    #[test]
    fn frame_buffer_ref_variant_poisons_on_oversized_prefix() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(u32::MAX).to_be_bytes());
        assert_eq!(fb.next_frame_ref(), Err(LinkError::Oversized));
        fb.extend(b"more");
        assert_eq!(fb.next_frame_ref(), Err(LinkError::Oversized));
    }

    #[test]
    fn frame_buffer_poisons_on_oversized_prefix() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(u32::MAX).to_be_bytes());
        assert_eq!(fb.next_frame(), Err(LinkError::Oversized));
        fb.extend(b"more");
        assert_eq!(fb.next_frame(), Err(LinkError::Oversized));
    }

    #[test]
    fn sender_peek_matches_sealed_identity() {
        let (a, _) = key_pair();
        let frame = a.seal(&FrameKind::Hello { nonce: [0; 16] });
        assert_eq!(frame_sender(&frame), Some(PartyId(0)));
        assert_eq!(frame_sender(&frame[..7]), None);
    }
}
