//! Protocol message types and the byte statements that signatures bind.
//!
//! Every network message is an [`Envelope`]: the full hierarchical
//! [`ProtocolId`] of the destination instance plus a [`Body`]. Bodies for
//! all protocols live in one enum so the wire codec, the MAC layer and the
//! simulators handle a single type.

use sintra_crypto::coin::CoinShare;
use sintra_crypto::hash::Sha256;
use sintra_crypto::rsa::{RsaPrivateKey, RsaSignature};
use sintra_crypto::thenc::DecryptionBatch;
use sintra_crypto::thsig::{SigShare, ThresholdSignature};

use crate::checked::Unchecked;
use crate::ids::{PartyId, ProtocolId};
use crate::wire::{
    impl_wire_vec, put_bytes, put_seq, wire_enum, wire_struct, Field, Layout, Reader, Shape,
    Variant, Wire, WireError,
};

/// A main-vote value in binary Byzantine agreement: a bit or "abstain".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MainVote {
    /// Vote for a concrete bit.
    Value(bool),
    /// No unanimous pre-vote was observed.
    Abstain,
}

/// Justification attached to a pre-vote (paper §2.3: "all votes have to be
/// justified by non-interactively verifiable information").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreVoteJust {
    /// Round-1 pre-vote: justified by external validation data (carried in
    /// the enclosing message's `proof` field) or vacuously for plain
    /// agreement.
    Initial,
    /// Round `r > 1` pre-vote for `b`, justified by a threshold signature
    /// on the round-`r-1` pre-vote statement for `b`.
    Hard(Unchecked<ThresholdSignature>),
    /// Round `r > 1` pre-vote for the round-`r-1` coin value, justified by
    /// a threshold signature on the abstain main-vote statement plus the
    /// coin shares that open the coin (self-contained verification).
    Soft {
        /// Threshold signature over `main(pid, r-1, abstain)`.
        sig: Unchecked<ThresholdSignature>,
        /// Enough shares to open the round-`r-1` coin (empty when the
        /// round is biased and the coin value is fixed).
        coin_shares: Vec<Unchecked<CoinShare>>,
    },
}

/// Justification attached to a main-vote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MainVoteJust {
    /// Main-vote for a bit `b`: threshold signature on the round's
    /// pre-vote statement for `b`.
    Value(Unchecked<ThresholdSignature>),
    /// Abstain: exhibits justified pre-votes for *both* bits.
    Abstain {
        /// Justification for a pre-vote of 0.
        just0: Box<PreVoteJust>,
        /// Justification for a pre-vote of 1.
        just1: Box<PreVoteJust>,
        /// External validation data for 0 (validated agreement only).
        proof0: Option<Vec<u8>>,
        /// External validation data for 1 (validated agreement only).
        proof1: Option<Vec<u8>>,
    },
}

/// The kind of an atomic-channel payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadKind {
    /// Application data.
    App,
    /// A termination request (the `close` protocol, paper §2.5).
    Close,
}

/// An application payload flowing through a channel, identified by its
/// origin and the origin's sequence number (the paper's practical
/// relaxation of integrity: dedup is per `(origin, seq)`, not per bit
/// string).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Payload {
    /// The party that first sent this payload.
    pub origin: PartyId,
    /// Origin-assigned sequence number.
    pub seq: u64,
    /// Application data or a close marker.
    pub kind: PayloadKind,
    /// The payload bytes.
    pub data: Vec<u8>,
}

/// Most payloads one atomic-channel [`Entry`] may carry.
///
/// With empty payloads the byte budget never binds, so this is what
/// bounds an entry's bookkeeping (17 header bytes per payload on the
/// wire, one queue slot and one delivery each).
pub const MAX_ENTRY_PAYLOADS: usize = 256;

/// Byte budget of a multi-payload [`Entry`]: the sum of its payloads'
/// data lengths. A single payload is exempt (it is bounded by the codec's
/// length cap, as before entries were vectors), so the queue head always
/// fits into the next entry.
///
/// An entry's payload bytes cross each link once, in the `ac-entry`
/// broadcast (or the `ac-fetched` reply that stands in for it); proposals
/// name entries by [`EntryRef`], so this budget — not a multiple of it —
/// is the largest message the channel produces, far inside the link's
/// 16 MiB frame bound.
pub const MAX_ENTRY_BYTES: usize = 64 * 1024;

/// Most share values one [`Body::ScShares`] batch decodes: one per
/// ciphertext a round ordered, and a round delivers at most its batch of
/// entries times [`MAX_ENTRY_PAYLOADS`] payloads. The secure channel
/// refuses a batch size of more than 64 entries (about 2.2 MB of values
/// at 1024 bits).
pub const MAX_DECRYPTION_BATCH: usize = 64 * MAX_ENTRY_PAYLOADS;

/// An atomic-channel batch entry: an ordered vector of payloads signed
/// (possibly by an adopting relay, not their origin) together with the
/// round number.
///
/// The signature covers `(pid, round, digest)` where `digest` is the
/// SHA-256 of the payload vector's wire encoding. The digest is computed
/// once, when the entry is built or decoded, and kept beside the payloads
/// (never on the wire); the fields are private so it cannot go stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    payloads: Vec<Payload>,
    signer: PartyId,
    sig: RsaSignature,
    digest: [u8; 32],
}

/// SHA-256 of a payload vector as [`Entry::encode`] writes it.
fn payloads_digest(payloads: &[Payload]) -> [u8; 32] {
    let mut encoded = Vec::new();
    put_seq(&mut encoded, payloads);
    Sha256::digest(&encoded)
}

impl Entry {
    /// An entry over `payloads` carrying `signer`'s claimed signature.
    pub fn new(payloads: Vec<Payload>, signer: PartyId, sig: RsaSignature) -> Self {
        Entry {
            digest: payloads_digest(&payloads),
            payloads,
            signer,
            sig,
        }
    }

    /// Cuts `payloads` into `signer`'s entry for `round` of channel
    /// `pid`, signed with `key`.
    pub fn sign(
        pid: &ProtocolId,
        round: u64,
        payloads: Vec<Payload>,
        signer: PartyId,
        key: &RsaPrivateKey,
    ) -> Self {
        let digest = payloads_digest(&payloads);
        Entry {
            sig: key.sign(&statement_entry(pid, round, &digest)),
            payloads,
            signer,
            digest,
        }
    }

    /// The payloads being proposed for this round, in delivery order.
    pub fn payloads(&self) -> &[Payload] {
        &self.payloads
    }

    /// The party whose signature covers `(pid, round, digest)`.
    pub fn signer(&self) -> PartyId {
        self.signer
    }

    /// That party's standard RSA signature.
    pub fn sig(&self) -> &RsaSignature {
        &self.sig
    }

    /// SHA-256 of the payload vector's wire encoding.
    pub fn digest(&self) -> &[u8; 32] {
        &self.digest
    }

    /// Whether this is the entry a proposal or a fetch names by
    /// `(signer, digest)`.
    pub fn is_named(&self, signer: PartyId, digest: &[u8; 32]) -> bool {
        self.signer == signer && self.digest == *digest
    }

    /// The reference a proposal carries in this entry's place.
    pub fn to_ref(&self) -> EntryRef {
        EntryRef {
            signer: self.signer,
            digest: self.digest,
            sig: self.sig.clone(),
        }
    }

    /// Whether the payload vector has a shape an honest party can have
    /// cut: between one and [`MAX_ENTRY_PAYLOADS`] payloads, within
    /// [`MAX_ENTRY_BYTES`] unless it is a single payload, and no
    /// `(origin, seq)` twice. The decoder enforces this; handlers check
    /// it again because in-process runtimes hand over entries that never
    /// crossed the codec.
    pub fn well_formed(&self) -> bool {
        let count = self.payloads.len();
        if count == 0 || count > MAX_ENTRY_PAYLOADS {
            return false;
        }
        if count == 1 {
            return true;
        }
        let bytes: usize = self.payloads.iter().map(|p| p.data.len()).sum();
        let mut ids: Vec<(PartyId, u64)> =
            self.payloads.iter().map(|p| (p.origin, p.seq)).collect();
        ids.sort_unstable();
        bytes <= MAX_ENTRY_BYTES && ids.windows(2).all(|pair| pair[0] != pair[1])
    }
}

/// Whether `entry` is the one `reference` names, under the signature it
/// carries.
impl PartialEq<EntryRef> for Entry {
    fn eq(&self, reference: &EntryRef) -> bool {
        self.is_named(reference.signer, &reference.digest) && self.sig == reference.sig
    }
}

/// What an atomic-channel proposal carries per entry: who signed it, the
/// digest of its payload vector and the signature over
/// `(pid, round, digest)` — enough to check external validity without the
/// payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryRef {
    /// The party that signed the entry.
    pub signer: PartyId,
    /// SHA-256 of the entry's encoded payload vector.
    pub digest: [u8; 32],
    /// The signer's signature over `(pid, round, digest)`.
    pub sig: RsaSignature,
}

/// The body of a network message, covering every protocol in the stack.
///
/// A variant either carries something to check — declared
/// [`Unchecked`], so its handler cannot store it before a `check_*` of
/// [`GroupContext`](crate::GroupContext) returned it — or says here why
/// it carries nothing of the kind.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum Body {
    /// Bracha reliable broadcast: initial payload from the sender.
    /// Unsigned: integrity comes from the echo/ready quorums over its
    /// digest.
    RbSend(Vec<u8>),
    /// Bracha: echo of the payload. An unsigned vote: the intersection of
    /// `2t + 1` echoes provides integrity, there is no signature to check.
    RbEcho(Vec<u8>),
    /// Bracha: ready for the payload digest. An unsigned vote:
    /// amplification is quorum-gated, not signature-gated.
    RbReady([u8; 32]),
    /// Consistent broadcast: payload from the sender. Gated by the
    /// sender's identity: the receiver signs what it echoes, the send
    /// itself is unsigned.
    CbSend(Vec<u8>),
    /// Consistent broadcast: receiver's signature share over the payload,
    /// echoed back to the sender.
    CbEcho(Unchecked<SigShare>),
    /// Consistent broadcast: sender's final message with the assembled
    /// threshold signature.
    CbFinal {
        /// The payload.
        payload: Vec<u8>,
        /// Threshold signature binding payload to this instance.
        sig: Unchecked<ThresholdSignature>,
    },
    /// Binary agreement pre-vote.
    BaPreVote {
        /// Round number (1-based).
        round: u32,
        /// The pre-voted bit.
        value: bool,
        /// Justification.
        just: PreVoteJust,
        /// Signature share over `pre(pid, round, value)`.
        share: Unchecked<SigShare>,
        /// External validation data for `value` (validated agreement).
        proof: Option<Vec<u8>>,
    },
    /// Binary agreement main-vote.
    BaMainVote {
        /// Round number.
        round: u32,
        /// The main-vote.
        vote: MainVote,
        /// Justification.
        just: MainVoteJust,
        /// Signature share over `main(pid, round, vote)`.
        share: Unchecked<SigShare>,
        /// External validation data for a value vote.
        proof: Option<Vec<u8>>,
    },
    /// Binary agreement threshold-coin share for a round.
    BaCoinShare {
        /// Round number.
        round: u32,
        /// The coin share.
        share: Unchecked<CoinShare>,
    },
    /// Binary agreement decision announcement with its justification.
    BaDecide {
        /// Round in which the unanimous main-vote quorum formed.
        round: u32,
        /// Decided bit.
        value: bool,
        /// Threshold signature over `main(pid, round, value)`.
        sig: Unchecked<ThresholdSignature>,
        /// External validation data for the decided value.
        proof: Option<Vec<u8>>,
    },
    /// Multi-valued agreement candidate vote (paper §2.4 step 2a). A
    /// no-vote is a bare bit counted towards a quorum; a yes-vote's
    /// closing is opaque bytes here and is checked as a
    /// [`ClosingMessage`](crate::broadcast::ClosingMessage) when the
    /// vote is counted.
    VbaVote {
        /// Loop iteration this vote belongs to.
        iteration: u32,
        /// Yes: "I have accepted the candidate's consistent broadcast".
        yes: bool,
        /// The candidate's verifiable-broadcast closing message (yes votes).
        closing: Option<Vec<u8>>,
    },
    /// Atomic channel: a signed batch entry for a round.
    AcEntry {
        /// Channel round number.
        round: u64,
        /// The signed entry.
        entry: Unchecked<Entry>,
    },
    /// Atomic channel: asks a holder for the entry that a proposal names
    /// by `(signer, digest)` and the requester lacks. Unsigned: answered
    /// only from entries already held and checked, one reply per
    /// requester and entry, rounds bounded by `FETCH_RETAIN_ROUNDS`.
    AcFetch {
        /// Channel round number.
        round: u64,
        /// Signer of the wanted entry.
        signer: PartyId,
        /// Digest of the wanted entry's payload vector.
        digest: [u8; 32],
    },
    /// Atomic channel: a holder's answer to an [`Body::AcFetch`].
    AcFetched {
        /// Channel round number.
        round: u64,
        /// The entry asked for, under its signer's signature.
        entry: Unchecked<Entry>,
    },
    /// Secure causal atomic channel: a party's decryption shares for the
    /// valid ciphertexts that one atomic-channel round ordered, in
    /// delivery order, under one batched proof.
    ScShares {
        /// The atomic-channel round that ordered the ciphertexts.
        round: u64,
        /// The releasing party's shares.
        batch: Unchecked<DecryptionBatch>,
    },
    /// Optimistic channel: a payload submitted to the epoch leader.
    /// Unsigned: delivery is gated downstream by a quorum of signed acks.
    OptSubmit {
        /// The payload to sequence.
        payload: Payload,
    },
    /// Optimistic channel: a signed acknowledgement of a leader-ordered
    /// payload (phase 1 = prepare, phase 2 = commit).
    OptAck {
        /// Acknowledgement phase (1 or 2).
        phase: u8,
        /// Epoch number.
        epoch: u64,
        /// Leader-assigned sequence number within the epoch.
        seq: u64,
        /// Digest of the ordered payload's encoding.
        digest: [u8; 32],
        /// Signature over the ack statement.
        sig: Unchecked<RsaSignature>,
    },
    /// Optimistic channel: a complaint against the epoch leader (liveness
    /// suspicion). Unsigned: an epoch change requires `t + 1` distinct
    /// complainers.
    OptComplain {
        /// The epoch being complained about.
        epoch: u64,
    },
    /// Optimistic channel: a signed epoch state for recovery (encoded
    /// [`EpochState`](crate::channel::EpochState)).
    OptState {
        /// The epoch being recovered.
        epoch: u64,
        /// Wire-encoded signed state.
        state: Vec<u8>,
    },
}

impl Body {
    /// Stable telemetry name of this message kind (doubles as the
    /// per-kind counter name in run reports).
    pub fn kind(&self) -> &'static str {
        match self {
            Body::RbSend(_) => "rb-send",
            Body::RbEcho(_) => "rb-echo",
            Body::RbReady(_) => "rb-ready",
            Body::CbSend(_) => "cb-send",
            Body::CbEcho(_) => "cb-echo",
            Body::CbFinal { .. } => "cb-final",
            Body::BaPreVote { .. } => "ba-pre-vote",
            Body::BaMainVote { .. } => "ba-main-vote",
            Body::BaCoinShare { .. } => "ba-coin-share",
            Body::BaDecide { .. } => "ba-decide",
            Body::VbaVote { .. } => "vba-vote",
            Body::AcEntry { .. } => "ac-entry",
            Body::AcFetch { .. } => "ac-fetch",
            Body::AcFetched { .. } => "ac-fetched",
            Body::ScShares { .. } => "sc-shares",
            Body::OptSubmit { .. } => "opt-submit",
            Body::OptAck { .. } => "opt-ack",
            Body::OptComplain { .. } => "opt-complain",
            Body::OptState { .. } => "opt-state",
        }
    }
}

/// A routed protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Full hierarchical id of the destination instance.
    pub pid: ProtocolId,
    /// Per-sender send sequence number, stamped by the runtime when the
    /// envelope is drained for transmission. Together with the sending
    /// party it forms the `(sender, send_seq)` causal origin that trace
    /// events on the receiving side point back to; it carries no
    /// protocol meaning and is not covered by protocol signatures.
    pub send_seq: u64,
    /// Message contents.
    pub body: Body,
}

// --- signed statements -----------------------------------------------------
//
// All statements start with a distinct ASCII tag, then the pid, then the
// per-statement fields, each length-prefixed — so no two statements from
// different contexts can collide.

fn statement(tag: &str, pid: &ProtocolId, parts: &[&[u8]]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_bytes(&mut buf, tag.as_bytes());
    put_bytes(&mut buf, pid.as_bytes());
    for part in parts {
        put_bytes(&mut buf, part);
    }
    buf
}

/// Digest used to identify payload bytes compactly.
pub fn payload_digest(payload: &[u8]) -> [u8; 32] {
    Sha256::digest(payload)
}

/// Statement signed by consistent-broadcast echo shares: binds the payload
/// to the broadcast instance.
pub fn statement_cb(pid: &ProtocolId, payload: &[u8]) -> Vec<u8> {
    statement("cb", pid, &[&payload_digest(payload)])
}

/// Statement for a binary-agreement pre-vote `pre(pid, round, value)`.
pub fn statement_pre_vote(pid: &ProtocolId, round: u32, value: bool) -> Vec<u8> {
    statement("ba-pre", pid, &[&round.to_be_bytes(), &[value as u8]])
}

/// Statement for a binary-agreement main-vote `main(pid, round, vote)`.
pub fn statement_main_vote(pid: &ProtocolId, round: u32, vote: MainVote) -> Vec<u8> {
    statement(
        "ba-main",
        pid,
        &[&round.to_be_bytes(), &[main_vote_code(vote)]],
    )
}

/// The name of the round-`round` threshold coin of an agreement instance.
pub fn coin_name(pid: &ProtocolId, round: u32) -> Vec<u8> {
    statement("ba-coin", pid, &[&round.to_be_bytes()])
}

/// Statement signed over an atomic-channel entry: `(pid, round, digest)`
/// with `digest` the SHA-256 of the encoded payload vector
/// ([`Entry::digest`]).
pub fn statement_entry(pid: &ProtocolId, round: u64, digest: &[u8; 32]) -> Vec<u8> {
    statement("ac-entry", pid, &[&round.to_be_bytes(), digest])
}

/// What a party's decryption-share batch for round `round` of secure
/// channel `pid` is bound to: its proof's weights hash it.
pub fn statement_sc_shares(pid: &ProtocolId, round: u64) -> Vec<u8> {
    statement("sc-shares", pid, &[&round.to_be_bytes()])
}

/// Statement signed by an optimistic-channel acknowledgement.
pub fn statement_opt_ack(
    pid: &ProtocolId,
    phase: u8,
    epoch: u64,
    seq: u64,
    digest: &[u8; 32],
) -> Vec<u8> {
    statement(
        "opt-ack",
        pid,
        &[&[phase], &epoch.to_be_bytes(), &seq.to_be_bytes(), digest],
    )
}

/// Statement signed over an optimistic-channel epoch state.
pub fn statement_opt_state(pid: &ProtocolId, epoch: u64, entries_digest: &[u8; 32]) -> Vec<u8> {
    statement("opt-state", pid, &[&epoch.to_be_bytes(), entries_digest])
}

// --- wire layouts ----------------------------------------------------------
//
// Wire discriminants. Explicit and append-only: renumbering or reusing a
// tag byte is a wire-format break, so every tag lives here, under a name,
// and the declarations below refer to it by that name. `tests/wire_kat.rs`
// pins the encoded bytes: a renumbered tag changes its corpus digest.

const TAG_RB_SEND: u8 = 0;
const TAG_RB_ECHO: u8 = 1;
const TAG_RB_READY: u8 = 2;
const TAG_CB_SEND: u8 = 3;
const TAG_CB_ECHO: u8 = 4;
const TAG_CB_FINAL: u8 = 5;
const TAG_BA_PRE_VOTE: u8 = 6;
const TAG_BA_MAIN_VOTE: u8 = 7;
const TAG_BA_COIN_SHARE: u8 = 8;
const TAG_BA_DECIDE: u8 = 9;
const TAG_VBA_VOTE: u8 = 10;
const TAG_AC_ENTRY: u8 = 11;
// 12 was `ScShare`, one decryption share per ciphertext, until wire
// format 4; it is not reused.
const TAG_OPT_SUBMIT: u8 = 13;
const TAG_OPT_ACK: u8 = 14;
const TAG_OPT_COMPLAIN: u8 = 15;
const TAG_OPT_STATE: u8 = 16;
const TAG_AC_FETCH: u8 = 17;
const TAG_AC_FETCHED: u8 = 18;
const TAG_SC_SHARES: u8 = 19;

const TAG_PREVOTE_INITIAL: u8 = 0;
const TAG_PREVOTE_HARD: u8 = 1;
const TAG_PREVOTE_SOFT: u8 = 2;

const TAG_MAINVOTE_VALUE: u8 = 0;
const TAG_MAINVOTE_ABSTAIN: u8 = 1;

const TAG_PAYLOAD_APP: u8 = 0;
const TAG_PAYLOAD_CLOSE: u8 = 1;

// Main-vote codes, shared between the `MainVote` wire encoding and the
// signed main-vote statement (the threshold signature binds these bytes,
// so they are as frozen as the wire tags).
const CODE_MAIN_VOTE_ZERO: u8 = 0;
const CODE_MAIN_VOTE_ONE: u8 = 1;
const CODE_MAIN_VOTE_ABSTAIN: u8 = 2;

fn main_vote_code(vote: MainVote) -> u8 {
    match vote {
        MainVote::Value(false) => CODE_MAIN_VOTE_ZERO,
        MainVote::Value(true) => CODE_MAIN_VOTE_ONE,
        MainVote::Abstain => CODE_MAIN_VOTE_ABSTAIN,
    }
}

wire_struct!(PartyId { 0: usize });

/// By hand for the UTF-8 check: the one place a length-prefixed string is
/// decoded.
impl Wire for ProtocolId {
    const LAYOUT: Layout = Layout::atom("ProtocolId", "u32 length, then UTF-8 bytes");
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        std::str::from_utf8(r.bytes()?)
            .map(ProtocolId::new)
            .map_err(|_| WireError::InvalidUtf8)
    }
}

impl Wire for MainVote {
    const LAYOUT: Layout = Layout {
        name: "MainVote",
        by_hand: Some("its three codes are shared with the signed main-vote statement"),
        unchecked: false,
        shape: Shape::Enum(&[
            Variant {
                name: "Value(false)",
                tag_name: "CODE_MAIN_VOTE_ZERO",
                tag: CODE_MAIN_VOTE_ZERO,
                fields: &[],
            },
            Variant {
                name: "Value(true)",
                tag_name: "CODE_MAIN_VOTE_ONE",
                tag: CODE_MAIN_VOTE_ONE,
                fields: &[],
            },
            Variant {
                name: "Abstain",
                tag_name: "CODE_MAIN_VOTE_ABSTAIN",
                tag: CODE_MAIN_VOTE_ABSTAIN,
                fields: &[],
            },
        ]),
    };
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(main_vote_code(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            CODE_MAIN_VOTE_ZERO => Ok(MainVote::Value(false)),
            CODE_MAIN_VOTE_ONE => Ok(MainVote::Value(true)),
            CODE_MAIN_VOTE_ABSTAIN => Ok(MainVote::Abstain),
            d => Err(WireError::BadDiscriminant(d)),
        }
    }
}

wire_enum!(PreVoteJust {
    TAG_PREVOTE_INITIAL => Initial,
    TAG_PREVOTE_HARD => Hard(sig: Unchecked<ThresholdSignature>),
    TAG_PREVOTE_SOFT => Soft {
        sig: Unchecked<ThresholdSignature>,
        coin_shares: Vec<Unchecked<CoinShare>>,
    },
});

wire_enum!(MainVoteJust {
    TAG_MAINVOTE_VALUE => Value(sig: Unchecked<ThresholdSignature>),
    TAG_MAINVOTE_ABSTAIN => Abstain {
        just0: Box<PreVoteJust>,
        just1: Box<PreVoteJust>,
        proof0: Option<Vec<u8>>,
        proof1: Option<Vec<u8>>,
    },
});

wire_enum!(PayloadKind {
    TAG_PAYLOAD_APP => App,
    TAG_PAYLOAD_CLOSE => Close,
});

wire_struct!(Payload { origin: PartyId, seq: u64, kind: PayloadKind, data: Vec<u8> });

impl Wire for Entry {
    const LAYOUT: Layout = Layout {
        name: "Entry",
        by_hand: Some(
            "the digest is taken over the payload vector's bytes as received, and a vector \
             that fails well_formed() is MalformedEntry",
        ),
        unchecked: false,
        shape: Shape::Struct(&[
            Field::new(
                "payloads",
                &<Vec<Payload>>::LAYOUT,
                Some(MAX_ENTRY_PAYLOADS),
            ),
            Field::new("signer", &PartyId::LAYOUT, None),
            Field::new("sig", &RsaSignature::LAYOUT, None),
        ]),
    };
    fn encode(&self, buf: &mut Vec<u8>) {
        put_seq(buf, &self.payloads);
        self.signer.encode(buf);
        self.sig.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let vector = r.rest();
        let payloads = r.seq(MAX_ENTRY_PAYLOADS)?;
        // The digest is taken over the bytes as received: what the signer
        // encoded, with no second encoding on this side.
        let digest = Sha256::digest(&vector[..vector.len() - r.remaining()]);
        let entry = Entry {
            payloads,
            signer: PartyId::decode(r)?,
            sig: RsaSignature::decode(r)?,
            digest,
        };
        if !entry.well_formed() {
            return Err(WireError::MalformedEntry);
        }
        Ok(entry)
    }
}

wire_struct!(EntryRef {
    signer: PartyId,
    digest: [u8; 32],
    sig: RsaSignature
});

wire_enum!(Body {
    TAG_RB_SEND => RbSend(payload: Vec<u8>),
    TAG_RB_ECHO => RbEcho(payload: Vec<u8>),
    TAG_RB_READY => RbReady(digest: [u8; 32]),
    TAG_CB_SEND => CbSend(payload: Vec<u8>),
    TAG_CB_ECHO => CbEcho(share: Unchecked<SigShare>),
    TAG_CB_FINAL => CbFinal { payload: Vec<u8>, sig: Unchecked<ThresholdSignature> },
    TAG_BA_PRE_VOTE => BaPreVote {
        round: u32,
        value: bool,
        just: PreVoteJust,
        share: Unchecked<SigShare>,
        proof: Option<Vec<u8>>,
    },
    TAG_BA_MAIN_VOTE => BaMainVote {
        round: u32,
        vote: MainVote,
        just: MainVoteJust,
        share: Unchecked<SigShare>,
        proof: Option<Vec<u8>>,
    },
    TAG_BA_COIN_SHARE => BaCoinShare { round: u32, share: Unchecked<CoinShare> },
    TAG_BA_DECIDE => BaDecide {
        round: u32,
        value: bool,
        sig: Unchecked<ThresholdSignature>,
        proof: Option<Vec<u8>>,
    },
    TAG_VBA_VOTE => VbaVote { iteration: u32, yes: bool, closing: Option<Vec<u8>> },
    TAG_AC_ENTRY => AcEntry { round: u64, entry: Unchecked<Entry> },
    TAG_AC_FETCH => AcFetch { round: u64, signer: PartyId, digest: [u8; 32] },
    TAG_AC_FETCHED => AcFetched { round: u64, entry: Unchecked<Entry> },
    TAG_SC_SHARES => ScShares { round: u64, batch: Unchecked<DecryptionBatch> },
    TAG_OPT_SUBMIT => OptSubmit { payload: Payload },
    TAG_OPT_ACK => OptAck {
        phase: u8,
        epoch: u64,
        seq: u64,
        digest: [u8; 32],
        sig: Unchecked<RsaSignature>,
    },
    TAG_OPT_COMPLAIN => OptComplain { epoch: u64 },
    TAG_OPT_STATE => OptState { epoch: u64, state: Vec<u8> },
});

wire_struct!(Envelope {
    pid: ProtocolId,
    send_seq: u64,
    body: Body
});

impl_wire_vec!(Payload);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(body: Body) {
        let env = Envelope {
            pid: ProtocolId::new("test/1"),
            send_seq: 7,
            body,
        };
        let decoded = Envelope::from_bytes(&env.to_bytes()).unwrap();
        assert_eq!(decoded, env);
    }

    #[test]
    fn body_roundtrips() {
        roundtrip(Body::RbSend(b"payload".to_vec()));
        roundtrip(Body::RbEcho(vec![]));
        roundtrip(Body::RbReady([9u8; 32]));
        roundtrip(Body::CbSend(b"x".to_vec()));
        roundtrip(Body::BaCoinShare {
            round: 7,
            share: sintra_crypto::coin::CoinShare {
                index: 2,
                value: sintra_bigint::Ubig::from(99u64),
                proof: sintra_crypto::dleq::DleqProof {
                    commit_g: sintra_bigint::Ubig::from(1u64),
                    commit_u: sintra_bigint::Ubig::from(3u64),
                    response: sintra_bigint::Ubig::from(2u64),
                },
            }
            .into(),
        });
        roundtrip(Body::VbaVote {
            iteration: 3,
            yes: true,
            closing: Some(b"closing".to_vec()),
        });
        let entry = Entry::new(
            vec![
                payload(1, 42, PayloadKind::App, vec![1, 2, 3]),
                payload(1, 43, PayloadKind::Close, vec![]),
            ],
            PartyId(3),
            RsaSignature(sintra_bigint::Ubig::from(5u64)),
        );
        roundtrip(Body::AcFetch {
            round: 12,
            signer: entry.signer(),
            digest: *entry.digest(),
        });
        roundtrip(Body::AcFetched {
            round: 12,
            entry: entry.clone().into(),
        });
        roundtrip(Body::AcEntry {
            round: 12,
            entry: entry.into(),
        });
    }

    #[test]
    fn entry_digest_is_of_the_bytes_on_the_wire() {
        let entry = entry_of(vec![
            payload(2, 7, PayloadKind::App, vec![9; 40]),
            payload(0, 0, PayloadKind::Close, vec![]),
        ]);
        let bytes = entry.to_bytes();
        // Everything before the signer and signature is the payload vector.
        let mut tail = Vec::new();
        entry.signer().encode(&mut tail);
        entry.sig().encode(&mut tail);
        let vector = &bytes[..bytes.len() - tail.len()];
        assert_eq!(*entry.digest(), Sha256::digest(vector));
        // Decoding computes the same digest (derived equality covers it).
        assert_eq!(Entry::from_bytes(&bytes).unwrap(), entry);
        let refs = vec![Unchecked::from(entry.to_ref()); 3];
        assert_eq!(Vec::from_bytes(&refs.to_bytes()).as_ref(), Ok(&refs));
        assert!(entry == entry.to_ref());
        let other_sig = RsaSignature(sintra_bigint::Ubig::from(6u64));
        assert!(Entry::new(entry.payloads().to_vec(), PartyId(0), other_sig) != entry.to_ref());
        let other = entry_of(vec![payload(2, 7, PayloadKind::App, vec![9; 41])]);
        assert_ne!(entry.digest(), other.digest());
    }

    fn payload(origin: usize, seq: u64, kind: PayloadKind, data: Vec<u8>) -> Payload {
        Payload {
            origin: PartyId(origin),
            seq,
            kind,
            data,
        }
    }

    fn entry_of(payloads: Vec<Payload>) -> Entry {
        Entry::new(
            payloads,
            PartyId(0),
            RsaSignature(sintra_bigint::Ubig::from(5u64)),
        )
    }

    #[test]
    fn malformed_entries_fail_to_decode() {
        let app = |seq: u64, len: usize| payload(1, seq, PayloadKind::App, vec![7; len]);
        let at_cap = entry_of((0..MAX_ENTRY_PAYLOADS as u64).map(|s| app(s, 1)).collect());
        let at_budget = entry_of(vec![
            app(0, MAX_ENTRY_BYTES / 2),
            app(1, MAX_ENTRY_BYTES / 2),
        ]);
        // The head of a queue always fits, whatever its size.
        let lone_giant = entry_of(vec![app(0, MAX_ENTRY_BYTES + 1)]);
        for good in [at_cap, at_budget, lone_giant] {
            assert!(good.well_formed());
            assert_eq!(Entry::from_bytes(&good.to_bytes()).unwrap(), good);
        }
        let empty = entry_of(vec![]);
        let over_cap = entry_of((0..=MAX_ENTRY_PAYLOADS as u64).map(|s| app(s, 1)).collect());
        let over_budget = entry_of(vec![
            app(0, MAX_ENTRY_BYTES / 2),
            app(1, MAX_ENTRY_BYTES / 2 + 1),
        ]);
        let duplicate = entry_of(vec![app(4, 1), app(5, 1), app(4, 1)]);
        for (bad, error) in [
            (empty, WireError::MalformedEntry),
            (over_cap, WireError::LengthOverflow),
            (over_budget, WireError::MalformedEntry),
            (duplicate, WireError::MalformedEntry),
        ] {
            assert!(!bad.well_formed());
            assert_eq!(Entry::from_bytes(&bad.to_bytes()), Err(error));
        }
    }

    #[test]
    fn decryption_batches_are_capped() {
        let batch = |values: usize| DecryptionBatch {
            index: 1,
            values: vec![sintra_bigint::Ubig::from(7u64); values],
            proof: sintra_crypto::dleq::DleqProof {
                commit_g: sintra_bigint::Ubig::from(1u64),
                commit_u: sintra_bigint::Ubig::from(3u64),
                response: sintra_bigint::Ubig::from(2u64),
            },
        };
        let at_cap = batch(MAX_DECRYPTION_BATCH);
        let decoded = DecryptionBatch::from_bytes(&at_cap.to_bytes());
        assert_eq!(decoded.as_ref(), Ok(&at_cap));
        let over = batch(MAX_DECRYPTION_BATCH + 1);
        let decoded = DecryptionBatch::from_bytes(&over.to_bytes());
        assert_eq!(decoded, Err(WireError::LengthOverflow));
    }

    #[test]
    fn prevote_just_roundtrips() {
        let sig: Unchecked<_> =
            ThresholdSignature::Multi(vec![(1, RsaSignature(sintra_bigint::Ubig::from(3u64)))])
                .into();
        roundtrip(Body::BaPreVote {
            round: 2,
            value: true,
            just: PreVoteJust::Hard(sig.clone()),
            share: SigShare {
                index: 0,
                body: sintra_crypto::thsig::SigShareBody::Multi {
                    sig: RsaSignature(sintra_bigint::Ubig::from(8u64)),
                },
            }
            .into(),
            proof: None,
        });
        roundtrip(Body::BaMainVote {
            round: 2,
            vote: MainVote::Abstain,
            just: MainVoteJust::Abstain {
                just0: Box::new(PreVoteJust::Initial),
                just1: Box::new(PreVoteJust::Soft {
                    sig,
                    coin_shares: vec![],
                }),
                proof0: Some(b"p0".to_vec()),
                proof1: None,
            },
            share: SigShare {
                index: 1,
                body: sintra_crypto::thsig::SigShareBody::Multi {
                    sig: RsaSignature(sintra_bigint::Ubig::from(8u64)),
                },
            }
            .into(),
            proof: None,
        });
    }

    #[test]
    fn statements_are_distinct() {
        let pid = ProtocolId::new("x");
        let other = ProtocolId::new("y");
        let statements = [
            statement_cb(&pid, b"m"),
            statement_cb(&other, b"m"),
            statement_pre_vote(&pid, 1, false),
            statement_pre_vote(&pid, 1, true),
            statement_pre_vote(&pid, 2, false),
            statement_main_vote(&pid, 1, MainVote::Value(false)),
            statement_main_vote(&pid, 1, MainVote::Abstain),
            coin_name(&pid, 1),
            statement_sc_shares(&pid, 1),
            statement_sc_shares(&pid, 2),
            statement_entry(&pid, 1, &[0; 32]),
        ];
        for (i, a) in statements.iter().enumerate() {
            for (j, b) in statements.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "statements {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn entry_statement_binds_round() {
        let pid = ProtocolId::new("ch");
        let entry = entry_of(vec![payload(0, 1, PayloadKind::App, b"d".to_vec())]);
        assert_ne!(
            statement_entry(&pid, 1, entry.digest()),
            statement_entry(&pid, 2, entry.digest())
        );
    }

    #[test]
    fn entry_statement_binds_the_whole_vector() {
        let pid = ProtocolId::new("ch");
        let c1 = payload(2, 1, PayloadKind::App, b"c1".to_vec());
        let c2 = payload(2, 2, PayloadKind::App, b"c2".to_vec());
        let statement =
            |payloads: Vec<Payload>| statement_entry(&pid, 1, entry_of(payloads).digest());
        let full = statement(vec![c1.clone(), c2.clone()]);
        assert_ne!(full, statement(vec![c2.clone()]), "suffix");
        assert_ne!(full, statement(vec![c1.clone()]), "prefix");
        assert_ne!(full, statement(vec![c2, c1]), "order");
    }
}
