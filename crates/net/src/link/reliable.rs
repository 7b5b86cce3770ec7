//! Reliable FIFO delivery over a fair-lossy framed substrate.
//!
//! [`ReliableLink`] is the sans-I/O endpoint of one *pairwise* link. It
//! assigns consecutive sequence numbers to outgoing payloads, keeps every
//! sealed frame in a bounded retransmission queue until the peer's
//! cumulative acknowledgement covers it, and on the receive side delivers
//! payloads strictly in order, suppressing duplicates and gaps
//! (go-back-N: the sender replays everything past the peer's watermark
//! after a reconnect, so dropping out-of-order frames is enough).
//!
//! The paper's link contract — reliable FIFO authenticated channels
//! obtained from fair-lossy ones by retransmission — is exactly this
//! machine; the transport below only has to deliver *some* transmissions
//! of each frame eventually (TCP plus reconnect-and-replay qualifies).

use std::collections::VecDeque;

use sintra_telemetry::SnapshotWriter;

use super::frame::{FrameKind, LinkKey, MAX_FRAME_LEN};
use super::LinkError;
use sintra_core::invariant::OrInvariant;

/// Tunables for one reliable link endpoint.
///
/// The retransmission queue is bounded in both frames and bytes. The
/// bounds exist so memory stays finite when a peer never acknowledges
/// (crashed forever, or Byzantine), but they also cap how long an
/// outage to a *correct* peer can last before frames are shed: once
/// [`seal_data`](ReliableLink::seal_data) starts returning
/// [`LinkError::QueueFull`], the shed frames are never resent by any
/// layer, and the reliable-link guarantee toward that peer is lost
/// until protocol-level recovery. The defaults are therefore sized
/// generously — hundreds of thousands of typical protocol envelopes —
/// and every shed is surfaced in [`LinkStats::queue_full_drops`] and
/// the `link` telemetry scope rather than dropped silently.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Retransmission-queue bound in frames.
    pub max_unacked: usize,
    /// Retransmission-queue bound in total sealed-frame bytes.
    pub max_unacked_bytes: usize,
    /// Send a cumulative ack after this many in-order deliveries, or
    /// sooner once they add up to `max_unacked_bytes / ack_every` wire
    /// bytes (see [`ReliableLink::ack_overdue`]); delivered frames stay
    /// in the peer's retransmission queue until the next ack or resume
    /// handshake. Must not exceed `max_unacked`, or the peer's queue
    /// could fill before an ack is due.
    pub ack_every: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            max_unacked: 1 << 18,
            max_unacked_bytes: 64 * 1024 * 1024,
            ack_every: 16,
        }
    }
}

/// Counters a link accumulates over its lifetime (monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Data frames sealed (first transmissions).
    pub frames_sent: u64,
    /// Data frames cloned out of the retransmission queue for replay.
    pub frames_retransmitted: u64,
    /// In-order payloads delivered to the application.
    pub delivered: u64,
    /// Data frames dropped as duplicates or out-of-order.
    pub duplicates: u64,
    /// Acks sealed.
    pub acks_sent: u64,
    /// Sends rejected because the retransmission queue was full.
    pub queue_full_drops: u64,
    /// High-water mark of the retransmission queue in wire bytes — how
    /// close the link has ever come to shedding under
    /// [`LinkConfig::max_unacked_bytes`].
    pub unacked_bytes_hwm: u64,
}

/// What processing one inbound frame produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkEvent {
    /// The next in-order payload; hand it to the application.
    Deliver(Vec<u8>),
    /// A duplicate or out-of-order data frame was suppressed.
    Duplicate,
    /// A cumulative ack was absorbed (retransmission queue pruned).
    Acked,
    /// A handshake frame surfaced mid-stream; the connection layer owns
    /// those.
    Handshake(FrameKind),
}

/// The reliable FIFO endpoint state for one peer.
#[derive(Debug)]
pub struct ReliableLink {
    key: LinkKey,
    config: LinkConfig,
    /// Next sequence number to assign (first frame carries 1).
    next_seq: u64,
    /// Sealed data frames not yet covered by the peer's cumulative ack,
    /// in sequence order.
    unacked: VecDeque<(u64, Vec<u8>)>,
    /// Total wire bytes held in `unacked`.
    unacked_bytes: usize,
    /// Highest sequence number acknowledged by the peer.
    peer_acked: u64,
    /// Highest in-order sequence number delivered locally.
    recv_cum: u64,
    /// Value of `recv_cum` covered by the last ack we sealed.
    last_acked_out: u64,
    /// Wire bytes of the frames delivered since that ack.
    unacked_in_bytes: usize,
    stats: LinkStats,
}

impl ReliableLink {
    /// Creates the endpoint for the link authenticated by `key`.
    pub fn new(key: LinkKey, config: LinkConfig) -> Self {
        ReliableLink {
            key,
            config,
            next_seq: 1,
            unacked: VecDeque::new(),
            unacked_bytes: 0,
            peer_acked: 0,
            recv_cum: 0,
            last_acked_out: 0,
            unacked_in_bytes: 0,
            stats: LinkStats::default(),
        }
    }

    /// The authentication context (for handshakes on the same pair).
    pub fn key(&self) -> &LinkKey {
        &self.key
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Highest in-order sequence number delivered locally — the value a
    /// resume handshake advertises to the peer.
    pub fn recv_cum(&self) -> u64 {
        self.recv_cum
    }

    /// Frames awaiting acknowledgement.
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    /// Total wire bytes awaiting acknowledgement.
    pub fn unacked_bytes(&self) -> usize {
        self.unacked_bytes
    }

    /// Assigns the next sequence number to `payload`, seals the data
    /// frame, and retains it for retransmission. Returns the wire bytes.
    ///
    /// # Errors
    ///
    /// [`LinkError::Oversized`] when the sealed frame would exceed
    /// [`MAX_FRAME_LEN`] — such a frame must never be sealed, let alone
    /// enqueued: the receiver's `FrameBuffer` poisons the stream on its
    /// length prefix, and replaying it from the retransmission queue
    /// after every resume would wedge the link permanently.
    ///
    /// [`LinkError::QueueFull`] when the retransmission queue is at its
    /// frame or byte bound; the frame is not enqueued.
    pub fn seal_data(&mut self, payload: &[u8]) -> Result<Vec<u8>, LinkError> {
        if self.key.data_frame_len(payload.len()) > MAX_FRAME_LEN {
            return Err(LinkError::Oversized);
        }
        if self.unacked.len() >= self.config.max_unacked
            || self.unacked_bytes >= self.config.max_unacked_bytes
        {
            self.stats.queue_full_drops += 1;
            return Err(LinkError::QueueFull);
        }
        let seq = self.next_seq;
        let frame = self.key.seal(&FrameKind::Data {
            seq,
            payload: payload.to_vec(),
        });
        self.next_seq += 1;
        self.unacked_bytes += frame.len();
        self.stats.unacked_bytes_hwm = self.stats.unacked_bytes_hwm.max(self.unacked_bytes as u64);
        self.unacked.push_back((seq, frame.clone()));
        self.stats.frames_sent += 1;
        Ok(frame)
    }

    /// Authenticates and processes one complete inbound frame.
    pub fn on_frame(&mut self, frame: &[u8]) -> Result<LinkEvent, LinkError> {
        let kind = self.key.open(frame)?;
        Ok(self.on_kind(kind))
    }

    /// Processes an already-authenticated frame body.
    pub fn on_kind(&mut self, kind: FrameKind) -> LinkEvent {
        match kind {
            FrameKind::Data { seq, payload } => {
                if seq == self.recv_cum + 1 {
                    self.recv_cum = seq;
                    self.unacked_in_bytes += self.key.data_frame_len(payload.len());
                    self.stats.delivered += 1;
                    LinkEvent::Deliver(payload)
                } else {
                    // Below the watermark: duplicate. Above: a gap from a
                    // torn connection; go-back-N replay will close it.
                    self.stats.duplicates += 1;
                    LinkEvent::Duplicate
                }
            }
            FrameKind::Ack { cum } => {
                if cum > self.peer_acked {
                    self.peer_acked = cum;
                    self.prune_acked();
                }
                LinkEvent::Acked
            }
            other => LinkEvent::Handshake(other),
        }
    }

    /// Whether enough deliveries accumulated since the last outgoing ack
    /// that one should be sent: `ack_every` frames, or frames totalling
    /// `max_unacked_bytes / ack_every` wire bytes. Both ends share one
    /// [`LinkConfig`], so the frames delivered but not yet acknowledged
    /// never fill the peer's retransmission queue by themselves: a few
    /// large frames cannot stall the link short of `ack_every`.
    pub fn ack_overdue(&self) -> bool {
        let frames = self.recv_cum - self.last_acked_out;
        let every = usize::try_from(self.config.ack_every.max(1)).unwrap_or(usize::MAX);
        let byte_bound = (self.config.max_unacked_bytes / every).max(1);
        frames >= self.config.ack_every || self.unacked_in_bytes >= byte_bound
    }

    /// Seals a cumulative ack for the current watermark, or `None` when
    /// nothing new would be acknowledged.
    pub fn make_ack(&mut self) -> Option<Vec<u8>> {
        if self.recv_cum == self.last_acked_out {
            return None;
        }
        self.last_acked_out = self.recv_cum;
        self.unacked_in_bytes = 0;
        self.stats.acks_sent += 1;
        Some(self.key.seal(&FrameKind::Ack { cum: self.recv_cum }))
    }

    /// Serializes the link's live cursors and backlog for a debug dump:
    /// how far ahead of the peer's acknowledgement this endpoint has
    /// run, and how much it would replay on a reconnect.
    pub fn snapshot_json(&self) -> String {
        let pid = format!("link/{}->{}", self.key.local().0, self.key.peer().0);
        SnapshotWriter::new(&pid, "link")
            .num("next_seq", self.next_seq)
            .num("peer_acked", self.peer_acked)
            .num("recv_cum", self.recv_cum)
            .num("last_acked_out", self.last_acked_out)
            .num("unacked_frames", self.unacked.len() as u64)
            .num("unacked_bytes", self.unacked_bytes as u64)
            .num("unacked_bytes_hwm", self.stats.unacked_bytes_hwm)
            .num("frames_sent", self.stats.frames_sent)
            .num("frames_retransmitted", self.stats.frames_retransmitted)
            .num("delivered", self.stats.delivered)
            .num("duplicates", self.stats.duplicates)
            .num("queue_full_drops", self.stats.queue_full_drops)
            .finish()
    }

    /// Prunes the queue against the watermark a resuming peer advertised
    /// and returns clones of every retained frame, in sequence order, for
    /// replay on the fresh connection.
    pub fn replay_from(&mut self, peer_cum: u64) -> Vec<Vec<u8>> {
        if peer_cum > self.peer_acked {
            self.peer_acked = peer_cum;
        }
        self.prune_acked();
        let frames: Vec<Vec<u8>> = self.unacked.iter().map(|(_, f)| f.clone()).collect();
        self.stats.frames_retransmitted += frames.len() as u64;
        frames
    }

    /// Drops every queued frame covered by `peer_acked`, keeping the
    /// byte accounting in step.
    fn prune_acked(&mut self) {
        while matches!(self.unacked.front(), Some((seq, _)) if *seq <= self.peer_acked) {
            let (_, frame) = self
                .unacked
                .pop_front()
                .or_invariant("unacked queue lost its matched front");
            self.unacked_bytes -= frame.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_core::PartyId;
    use sintra_crypto::hmac::HmacKey;

    fn link_pair() -> (ReliableLink, ReliableLink) {
        let key = HmacKey::new(b"pair 0-1".to_vec());
        (
            ReliableLink::new(
                LinkKey::new(key.clone(), PartyId(0), PartyId(1)),
                LinkConfig::default(),
            ),
            ReliableLink::new(
                LinkKey::new(key, PartyId(1), PartyId(0)),
                LinkConfig::default(),
            ),
        )
    }

    #[test]
    fn in_order_delivery_and_ack_prunes_queue() {
        let (mut a, mut b) = link_pair();
        let f1 = a.seal_data(b"one").unwrap();
        let f2 = a.seal_data(b"two").unwrap();
        assert_eq!(a.unacked_len(), 2);
        assert_eq!(
            b.on_frame(&f1).unwrap(),
            LinkEvent::Deliver(b"one".to_vec())
        );
        assert_eq!(
            b.on_frame(&f2).unwrap(),
            LinkEvent::Deliver(b"two".to_vec())
        );
        let ack = b.make_ack().unwrap();
        assert_eq!(a.on_frame(&ack).unwrap(), LinkEvent::Acked);
        assert_eq!(a.unacked_len(), 0);
        assert_eq!(b.make_ack(), None, "nothing new to acknowledge");
    }

    #[test]
    fn duplicates_and_gaps_suppressed() {
        let (mut a, mut b) = link_pair();
        let f1 = a.seal_data(b"one").unwrap();
        let f2 = a.seal_data(b"two").unwrap();
        let f3 = a.seal_data(b"three").unwrap();
        assert!(matches!(b.on_frame(&f1).unwrap(), LinkEvent::Deliver(_)));
        // Replay of f1: duplicate. f3 before f2: gap, suppressed.
        assert_eq!(b.on_frame(&f1).unwrap(), LinkEvent::Duplicate);
        assert_eq!(b.on_frame(&f3).unwrap(), LinkEvent::Duplicate);
        assert!(matches!(b.on_frame(&f2).unwrap(), LinkEvent::Deliver(_)));
        assert!(matches!(b.on_frame(&f3).unwrap(), LinkEvent::Deliver(_)));
        assert_eq!(b.recv_cum(), 3);
        assert_eq!(b.stats().duplicates, 2);
    }

    #[test]
    fn replay_resends_only_unacked_tail() {
        let (mut a, mut b) = link_pair();
        let frames: Vec<_> = (0..5)
            .map(|i| a.seal_data(format!("m{i}").as_bytes()).unwrap())
            .collect();
        // Peer saw the first two before the connection tore.
        for f in &frames[..2] {
            b.on_frame(f).unwrap();
        }
        let replay = a.replay_from(b.recv_cum());
        assert_eq!(replay.len(), 3);
        assert_eq!(a.stats().frames_retransmitted, 3);
        for f in &replay {
            assert!(matches!(b.on_frame(f).unwrap(), LinkEvent::Deliver(_)));
        }
        assert_eq!(b.recv_cum(), 5);
    }

    #[test]
    fn queue_bound_sheds_load() {
        let key = HmacKey::new(b"k".to_vec());
        let mut a = ReliableLink::new(
            LinkKey::new(key, PartyId(0), PartyId(1)),
            LinkConfig {
                max_unacked: 2,
                ..LinkConfig::default()
            },
        );
        a.seal_data(b"x").unwrap();
        a.seal_data(b"y").unwrap();
        assert_eq!(a.seal_data(b"z"), Err(LinkError::QueueFull));
        assert_eq!(a.stats().queue_full_drops, 1);
    }

    #[test]
    fn byte_bound_sheds_load_and_acks_reopen_it() {
        let key = HmacKey::new(b"kb".to_vec());
        let mut a = ReliableLink::new(
            LinkKey::new(key.clone(), PartyId(0), PartyId(1)),
            LinkConfig {
                max_unacked_bytes: 200,
                ..LinkConfig::default()
            },
        );
        let mut b = ReliableLink::new(
            LinkKey::new(key, PartyId(1), PartyId(0)),
            LinkConfig::default(),
        );
        let f1 = a.seal_data(&[0u8; 90]).unwrap();
        let f2 = a.seal_data(&[1u8; 90]).unwrap();
        assert!(a.unacked_bytes() >= 200);
        assert_eq!(a.seal_data(b"over"), Err(LinkError::QueueFull));
        // Acknowledging frees the byte budget again.
        b.on_frame(&f1).unwrap();
        b.on_frame(&f2).unwrap();
        let ack = b.make_ack().unwrap();
        a.on_frame(&ack).unwrap();
        assert_eq!(a.unacked_bytes(), 0);
        a.seal_data(b"fits again").unwrap();
        // The high-water mark remembers the peak, not the drained state.
        assert!(a.stats().unacked_bytes_hwm >= 200);
        assert!(a.stats().unacked_bytes_hwm > a.unacked_bytes() as u64);
    }

    #[test]
    fn oversized_payload_rejected_before_enqueue() {
        let (mut a, _) = link_pair();
        let huge = vec![0u8; crate::link::MAX_FRAME_LEN + 1];
        assert_eq!(a.seal_data(&huge), Err(LinkError::Oversized));
        assert_eq!(a.unacked_len(), 0, "rejected frame must not be queued");
        assert_eq!(a.stats().frames_sent, 0);
        // The next sequence number is untouched: the link keeps working.
        let frame = a.seal_data(b"normal").unwrap();
        let (_, mut b) = link_pair();
        assert_eq!(
            b.on_frame(&frame).unwrap(),
            LinkEvent::Deliver(b"normal".to_vec())
        );
    }

    #[test]
    fn ack_overdue_threshold() {
        let key = HmacKey::new(b"k2".to_vec());
        let pair = |local, peer| LinkKey::new(HmacKey::new(b"k2".to_vec()), local, peer);
        let _ = key;
        let mut a = ReliableLink::new(
            pair(PartyId(0), PartyId(1)),
            LinkConfig {
                ack_every: 3,
                ..LinkConfig::default()
            },
        );
        let mut b = ReliableLink::new(
            pair(PartyId(1), PartyId(0)),
            LinkConfig {
                ack_every: 3,
                ..LinkConfig::default()
            },
        );
        for i in 0..3 {
            let f = a.seal_data(&[i]).unwrap();
            assert!(!b.ack_overdue());
            b.on_frame(&f).unwrap();
        }
        assert!(b.ack_overdue());
        b.make_ack().unwrap();
        assert!(!b.ack_overdue());
    }

    /// Frames that fill the sender's byte budget in fewer than
    /// `ack_every` deliveries still make an ack due: otherwise the sender
    /// sheds every later frame and the receiver waits for deliveries that
    /// never come.
    #[test]
    fn large_frames_make_an_ack_due_before_ack_every() {
        let config = LinkConfig {
            max_unacked_bytes: 16 * 1024,
            ..LinkConfig::default()
        };
        let pair = |local, peer| LinkKey::new(HmacKey::new(b"k3".to_vec()), local, peer);
        let mut a = ReliableLink::new(pair(PartyId(0), PartyId(1)), config.clone());
        let mut b = ReliableLink::new(pair(PartyId(1), PartyId(0)), config);
        // 16 KiB / 16 = 1 KiB of frames since the last ack.
        let f = a.seal_data(&[0u8; 600]).unwrap();
        b.on_frame(&f).unwrap();
        assert!(!b.ack_overdue(), "600 bytes are below the byte bound");
        let f = a.seal_data(&[1u8; 600]).unwrap();
        b.on_frame(&f).unwrap();
        assert!(b.ack_overdue(), "two frames past 1 KiB make an ack due");
        a.on_frame(&b.make_ack().unwrap()).unwrap();
        assert_eq!(a.unacked_bytes(), 0);
        assert!(!b.ack_overdue(), "the ack resets the byte count");
    }
}
