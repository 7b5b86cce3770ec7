//! Link-layer tests over an in-memory fair-lossy pipe: the reliable
//! link must turn a substrate that drops, duplicates and reorders
//! frames into loss-free, duplicate-free FIFO delivery — exactly the
//! point-to-point link abstraction SINTRA's protocols assume (§2.1).
//! Also fuzzes the frame codec with random mutations of valid frames:
//! nothing an adversary does to bytes on the wire may panic the
//! receiver, and no mutated frame may pass authentication.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sintra_core::PartyId;
use sintra_crypto::hmac::HmacKey;
use sintra_net::link::{FrameBuffer, LinkConfig, LinkError, LinkEvent, LinkKey, ReliableLink};

fn link_pair(max_unacked: usize) -> (ReliableLink, ReliableLink) {
    let key = HmacKey::new(b"lossy pipe pair".to_vec());
    let config = LinkConfig {
        max_unacked,
        ..LinkConfig::default()
    };
    (
        ReliableLink::new(
            LinkKey::new(key.clone(), PartyId(0), PartyId(1)),
            config.clone(),
        ),
        ReliableLink::new(LinkKey::new(key, PartyId(1), PartyId(0)), config),
    )
}

/// A fair-lossy unidirectional frame pipe: drops ~20% of frames,
/// duplicates ~10%, and reorders ~10% (swapping a frame behind its
/// predecessor), deterministically from the seed.
struct LossyPipe {
    rng: StdRng,
    pending: Vec<Vec<u8>>,
}

impl LossyPipe {
    fn new(seed: u64) -> Self {
        LossyPipe {
            rng: StdRng::seed_from_u64(seed),
            pending: Vec::new(),
        }
    }

    fn send(&mut self, frame: Vec<u8>) {
        match self.rng.gen::<u32>() % 10 {
            0 | 1 => {} // dropped
            2 => {
                self.pending.push(frame.clone());
                self.pending.push(frame); // duplicated
            }
            3 => {
                // Reordered behind the previous frame.
                let at = self.pending.len().saturating_sub(1);
                self.pending.insert(at, frame);
            }
            _ => self.pending.push(frame),
        }
    }

    fn drain(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.pending)
    }
}

/// Runs sender → lossy pipe → receiver with periodic session resumes
/// (which is when the sender replays its unacknowledged tail) until all
/// payloads arrive. Returns what the receiver delivered, in order.
fn run_lossy_session(
    seed: u64,
    payloads: &[Vec<u8>],
) -> (Vec<Vec<u8>>, ReliableLink, ReliableLink) {
    let (mut tx, mut rx) = link_pair(4096);
    let mut forward = LossyPipe::new(seed);
    let mut backward = LossyPipe::new(seed ^ 0x5EED);
    let mut delivered = Vec::new();
    let mut queued = 0;
    for round in 0..400 {
        // The application trickles in a few payloads per round.
        while queued < payloads.len() && queued < (round + 1) * 3 {
            let frame = tx.seal_data(&payloads[queued]).expect("queue has room");
            forward.send(frame);
            queued += 1;
        }
        for frame in forward.drain() {
            match rx.on_frame(&frame).expect("authentic frame") {
                LinkEvent::Deliver(payload) => delivered.push(payload),
                LinkEvent::Duplicate | LinkEvent::Acked | LinkEvent::Handshake(_) => {}
            }
        }
        if let Some(ack) = rx.make_ack() {
            backward.send(ack);
        }
        for frame in backward.drain() {
            let _ = tx.on_frame(&frame).expect("authentic ack");
        }
        // Every few rounds the connection "breaks" and a new session
        // resumes: the handshake tells the sender the receiver's
        // watermark and the sender replays everything above it.
        if round % 5 == 4 {
            for frame in tx.replay_from(rx.recv_cum()) {
                forward.send(frame);
            }
        }
        if delivered.len() == payloads.len() && tx.unacked_len() == 0 {
            break;
        }
    }
    (delivered, tx, rx)
}

#[test]
fn lossy_pipe_delivers_everything_in_order() {
    let payloads: Vec<Vec<u8>> = (0..120)
        .map(|i| format!("payload-{i:03}").into_bytes())
        .collect();
    for seed in [3, 17, 1999] {
        let (delivered, tx, rx) = run_lossy_session(seed, &payloads);
        assert_eq!(delivered, payloads, "seed {seed}: loss-free FIFO delivery");
        assert_eq!(tx.unacked_len(), 0, "seed {seed}: everything acknowledged");
        let stats = tx.stats();
        assert!(
            stats.frames_retransmitted > 0,
            "seed {seed}: the pipe drops frames, so resumes must retransmit"
        );
        assert!(
            rx.stats().duplicates > 0,
            "seed {seed}: duplicated and replayed frames are suppressed, not redelivered"
        );
    }
}

#[test]
fn queue_bound_backpressure_recovers_after_acks() {
    let (mut tx, mut rx) = link_pair(8);
    // Fill the retransmission queue to its bound.
    let mut frames = Vec::new();
    for i in 0..8 {
        frames.push(tx.seal_data(&[i]).unwrap());
    }
    assert!(matches!(tx.seal_data(&[99]), Err(LinkError::QueueFull)));
    // Once the peer acknowledges, capacity returns.
    for f in &frames {
        rx.on_frame(f).unwrap();
    }
    let ack = rx.make_ack().expect("watermark advanced");
    tx.on_frame(&ack).unwrap();
    assert_eq!(tx.unacked_len(), 0);
    tx.seal_data(&[100]).expect("queue drained");
}

/// The largest messages the atomic channel can produce. Payload bytes
/// travel in `ac-entry` and in the `ac-fetched` reply that stands in for
/// it: an entry with the most payloads and the full byte budget, or a
/// lone payload of any size (1 MiB here). A proposal only names entries,
/// so even the widest one (`n - t = 5` references at n = 7) carried three
/// times in an abstaining main-vote — both justifications' proofs plus
/// the vote's own — stays a few kilobytes. Each must encode, seal, open
/// and decode.
#[test]
fn worst_case_proposal_crosses_the_link() {
    use sintra_bigint::Ubig;
    use sintra_core::checked::Unchecked;
    use sintra_core::message::{
        Body, Entry, EntryRef, Envelope, MainVote, MainVoteJust, Payload, PayloadKind, PreVoteJust,
        MAX_ENTRY_BYTES, MAX_ENTRY_PAYLOADS,
    };
    use sintra_core::wire::Wire;
    use sintra_core::ProtocolId;
    use sintra_crypto::rsa::RsaSignature;
    use sintra_crypto::thsig::{SigShare, SigShareBody, ThresholdSignature};
    use sintra_net::link::MAX_FRAME_LEN;

    let (n, t) = (7usize, 2usize);
    let sig = || RsaSignature(Ubig::from_be_bytes(&[0xFF; 128])); // 1024 bits
    let entry = |signer: usize, count: usize, each: usize| {
        let payloads = (0..count as u64)
            .map(|seq| Payload {
                origin: PartyId(signer),
                seq: u64::MAX - seq,
                kind: PayloadKind::App,
                data: vec![signer as u8; each],
            })
            .collect();
        Entry::new(payloads, PartyId(signer), sig())
    };
    let full = entry(6, MAX_ENTRY_PAYLOADS, MAX_ENTRY_BYTES / MAX_ENTRY_PAYLOADS);
    let lone_giant = entry(6, 1, 1 << 20);
    assert!(full.well_formed() && lone_giant.well_formed());

    let proposal = (0..n - t)
        .map(|signer| entry(signer, 1, 1).to_ref().into())
        .collect::<Vec<Unchecked<EntryRef>>>()
        .to_bytes();
    let quorum_sig = || ThresholdSignature::Multi((0..n - t).map(|i| (i, sig())).collect());
    let carried_thrice = Body::BaMainVote {
        round: 2,
        vote: MainVote::Abstain,
        just: MainVoteJust::Abstain {
            just0: Box::new(PreVoteJust::Hard(quorum_sig().into())),
            just1: Box::new(PreVoteJust::Hard(quorum_sig().into())),
            proof0: Some(proposal.clone()),
            proof1: Some(proposal.clone()),
        },
        share: SigShare {
            index: 0,
            body: SigShareBody::Multi { sig: sig() },
        }
        .into(),
        proof: Some(proposal),
    };
    let round = u64::MAX;
    let (mut tx, mut rx) = link_pair(16);
    for (body, at_most) in [
        (
            Body::AcEntry {
                round,
                entry: full.into(),
            },
            MAX_ENTRY_BYTES + 8 * 1024,
        ),
        (
            Body::AcFetched {
                round,
                entry: lone_giant.into(),
            },
            MAX_FRAME_LEN / 8,
        ),
        (carried_thrice, 5 * 1024),
    ] {
        let env = Envelope {
            pid: ProtocolId::new("channel/vba/18446744073709551615/ba/6"),
            send_seq: u64::MAX,
            body,
        };
        let bytes = env.to_bytes();
        let frame = tx.seal_data(&bytes).expect("fits a frame");
        assert!(
            frame.len() < at_most,
            "{}: a frame of {} bytes, expected under {at_most}",
            env.body.kind(),
            frame.len()
        );
        let Ok(LinkEvent::Deliver(opened)) = rx.on_frame(&frame) else {
            panic!("in-order frame not delivered");
        };
        assert_eq!(Envelope::from_bytes(&opened).unwrap(), env);
    }
}

#[test]
fn frame_buffer_reassembles_arbitrary_chunking() {
    let (mut tx, mut rx) = link_pair(4096);
    let frames: Vec<Vec<u8>> = (0..20)
        .map(|i| tx.seal_data(&vec![i as u8; 100 + i * 13]).unwrap())
        .collect();
    let stream: Vec<u8> = frames.concat();
    // Feed the byte stream in pathological chunk sizes.
    let mut rng = StdRng::seed_from_u64(11);
    let mut buffer = FrameBuffer::new();
    let mut got = 0usize;
    let mut offset = 0usize;
    while offset < stream.len() {
        let n = (rng.gen::<u32>() as usize % 7 + 1).min(stream.len() - offset);
        buffer.extend(&stream[offset..offset + n]);
        offset += n;
        while let Some(frame) = buffer.next_frame().expect("clean stream") {
            match rx.on_frame(&frame).expect("authentic") {
                LinkEvent::Deliver(payload) => {
                    assert_eq!(payload, vec![got as u8; 100 + got * 13]);
                    got += 1;
                }
                other => panic!("unexpected event mid-stream: {other:?}"),
            }
        }
    }
    assert_eq!(got, frames.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // Any byte mutation of a valid sealed frame must be rejected by
    // authentication (or fail framing) — and must never panic.
    #[test]
    fn mutated_frames_never_authenticate(
        payload in prop::collection::vec(any::<u8>(), 0..128),
        seed in any::<u64>(),
    ) {
        let (mut tx, mut rx) = link_pair(4096);
        let frame = tx.seal_data(&payload).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut corrupt = frame.clone();
        // Flip a random bit somewhere past the length prefix (length
        // mutations are exercised below).
        let i = 4 + rng.gen::<u64>() as usize % (corrupt.len() - 4);
        corrupt[i] ^= 1 << (rng.gen::<u32>() % 8);
        prop_assert!(rx.on_frame(&corrupt).is_err(), "bit flip at {i} must not authenticate");

        // Truncations must fail cleanly too.
        let cut = rng.gen::<u64>() as usize % frame.len();
        prop_assert!(rx.on_frame(&frame[..cut]).is_err());

        // And the untouched frame still delivers: rejection left no
        // residue in the link state.
        match rx.on_frame(&frame).unwrap() {
            LinkEvent::Deliver(got) => prop_assert_eq!(got, payload),
            other => prop_assert!(false, "expected delivery, got {:?}", other),
        }
    }

    // A corrupted-length prefix can only poison the buffer or produce
    // frames that fail authentication — never a panic, never a bogus
    // delivery.
    #[test]
    fn mutated_streams_never_panic_the_frame_buffer(
        payload in prop::collection::vec(any::<u8>(), 0..64),
        seed in any::<u64>(),
        edits in 1usize..6,
    ) {
        let (mut tx, mut rx) = link_pair(4096);
        let mut stream = tx.seal_data(&payload).unwrap();
        stream.extend(tx.seal_data(b"second").unwrap());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..edits {
            let i = rng.gen::<u64>() as usize % stream.len();
            stream[i] ^= (rng.gen::<u32>() % 255 + 1) as u8;
        }
        let mut buffer = FrameBuffer::new();
        buffer.extend(&stream);
        while let Ok(Some(frame)) = buffer.next_frame() {
            if let Ok(LinkEvent::Deliver(got)) = rx.on_frame(&frame) {
                // Deliveries can only come from frames the mutation
                // happened to miss.
                prop_assert!(got == payload || got == b"second");
            }
        }
    }
}
