//! The known-answer corpus: one [`Envelope`] per [`Body`] variant plus
//! every shape nested inside them and the values that travel as opaque
//! bytes (closing messages, ciphertexts, proposals, recovery states).
//! Fixed small numbers, no randomness — `wire_kat.rs` pins the bytes,
//! `wire_fuzz.rs` mutates them.

use std::fmt::Debug;

use sintra_bigint::Ubig;
use sintra_core::broadcast::ClosingMessage;
use sintra_core::channel::{EpochState, PreparedEntry};
use sintra_core::checked::Unchecked;
use sintra_core::message::{
    Body, Entry, EntryRef, Envelope, MainVote, MainVoteJust, Payload, PayloadKind, PreVoteJust,
};
use sintra_core::wire::Wire;
use sintra_core::{PartyId, ProtocolId};
use sintra_crypto::coin::CoinShare;
use sintra_crypto::dleq::DleqProof;
use sintra_crypto::rsa::RsaSignature;
use sintra_crypto::thenc::{Ciphertext, DecryptionBatch};
use sintra_crypto::thsig::{ShoupShareProof, SigShare, SigShareBody, ThresholdSignature};

/// One corpus value: its encoding and a decoder for (mutations of) it.
pub struct Case {
    /// What the value is, for failure messages.
    pub name: &'static str,
    /// The value's wire encoding.
    pub bytes: Vec<u8>,
    /// Decodes bytes as the value's type; `true` when they decode.
    pub decodes: fn(&[u8]) -> bool,
}

fn decodes<T: Wire>(bytes: &[u8]) -> bool {
    T::from_bytes(bytes).is_ok()
}

/// Encodes `value`, checking on the way that it round-trips.
fn case<T: Wire + PartialEq + Debug>(name: &'static str, value: T) -> Case {
    let bytes = value.to_bytes();
    assert_eq!(T::from_bytes(&bytes).as_ref(), Ok(&value), "{name}");
    Case {
        name,
        bytes,
        decodes: decodes::<T>,
    }
}

fn big(v: u64) -> Ubig {
    Ubig::from(v)
}

fn rsa(v: u64) -> RsaSignature {
    RsaSignature(big(v))
}

fn dleq(v: u64) -> DleqProof {
    DleqProof {
        commit_g: big(v),
        commit_u: big(v + 1),
        response: big(v + 2),
    }
}

// What a message carries to be checked, as the decoder yields it.

fn multi_share(index: usize) -> Unchecked<SigShare> {
    SigShare {
        index,
        body: SigShareBody::Multi { sig: rsa(0x51) },
    }
    .into()
}

fn shoup_share(index: usize) -> Unchecked<SigShare> {
    SigShare {
        index,
        body: SigShareBody::ShoupRsa {
            sigma: big(0x0102_0304_0506),
            proof: ShoupShareProof {
                challenge: big(0xc4a1),
                response: big(0x4e59),
            },
        },
    }
    .into()
}

fn multi_sig() -> Unchecked<ThresholdSignature> {
    ThresholdSignature::Multi(vec![(0, rsa(0xa0)), (3, rsa(0xa3))]).into()
}

fn shoup_sig() -> Unchecked<ThresholdSignature> {
    ThresholdSignature::ShoupRsa(big(0x5a5a_5a5a_5a5a_5a5a)).into()
}

fn coin_share(index: usize) -> Unchecked<CoinShare> {
    CoinShare {
        index,
        value: big(0xc01),
        proof: dleq(0x10),
    }
    .into()
}

fn payload(origin: usize, seq: u64, kind: PayloadKind, data: &[u8]) -> Payload {
    Payload {
        origin: PartyId(origin),
        seq,
        kind,
        data: data.to_vec(),
    }
}

fn entry() -> Unchecked<Entry> {
    Entry::new(
        vec![
            payload(1, 42, PayloadKind::App, b"request"),
            payload(1, 43, PayloadKind::Close, b""),
        ],
        PartyId(3),
        rsa(0xe7),
    )
    .into()
}

fn epoch_state() -> EpochState {
    EpochState {
        epoch: 4,
        sender: PartyId(2),
        entries: vec![PreparedEntry {
            seq: 9,
            payload: payload(0, 5, PayloadKind::App, b"ordered"),
            cert: vec![
                (0, rsa(0xc0).into()),
                (1, rsa(0xc1).into()),
                (2, rsa(0xc2).into()),
            ],
        }],
        sig: rsa(0x57a7e).into(),
    }
}

/// The corpus, in a fixed order.
pub fn corpus() -> Vec<Case> {
    let bodies = vec![
        ("rb-send", Body::RbSend(b"send".to_vec())),
        ("rb-echo (empty)", Body::RbEcho(Vec::new())),
        ("rb-ready", Body::RbReady([0x11; 32])),
        ("cb-send", Body::CbSend(b"cb".to_vec())),
        ("cb-echo (multi share)", Body::CbEcho(multi_share(2))),
        (
            "cb-final (multi signature)",
            Body::CbFinal {
                payload: b"final".to_vec(),
                sig: multi_sig(),
            },
        ),
        (
            "ba-pre-vote (initial, shoup share, proof)",
            Body::BaPreVote {
                round: 1,
                value: false,
                just: PreVoteJust::Initial,
                share: shoup_share(0),
                proof: Some(b"validation".to_vec()),
            },
        ),
        (
            "ba-pre-vote (hard, shoup signature)",
            Body::BaPreVote {
                round: 2,
                value: true,
                just: PreVoteJust::Hard(shoup_sig()),
                share: multi_share(1),
                proof: None,
            },
        ),
        (
            "ba-pre-vote (soft, coin shares)",
            Body::BaPreVote {
                round: 3,
                value: true,
                just: PreVoteJust::Soft {
                    sig: multi_sig(),
                    coin_shares: vec![coin_share(0), coin_share(2)],
                },
                share: multi_share(3),
                proof: None,
            },
        ),
        (
            "ba-main-vote (zero)",
            Body::BaMainVote {
                round: 1,
                vote: MainVote::Value(false),
                just: MainVoteJust::Value(multi_sig()),
                share: multi_share(0),
                proof: Some(b"p".to_vec()),
            },
        ),
        (
            "ba-main-vote (one)",
            Body::BaMainVote {
                round: 1,
                vote: MainVote::Value(true),
                just: MainVoteJust::Value(shoup_sig()),
                share: shoup_share(1),
                proof: None,
            },
        ),
        (
            "ba-main-vote (abstain, boxed justifications)",
            Body::BaMainVote {
                round: 2,
                vote: MainVote::Abstain,
                just: MainVoteJust::Abstain {
                    just0: Box::new(PreVoteJust::Hard(multi_sig())),
                    just1: Box::new(PreVoteJust::Soft {
                        sig: shoup_sig(),
                        coin_shares: vec![coin_share(1)],
                    }),
                    proof0: Some(b"p0".to_vec()),
                    proof1: None,
                },
                share: multi_share(2),
                proof: None,
            },
        ),
        (
            "ba-coin-share",
            Body::BaCoinShare {
                round: 7,
                share: coin_share(2),
            },
        ),
        (
            "ba-decide",
            Body::BaDecide {
                round: 2,
                value: true,
                sig: multi_sig(),
                proof: Some(b"decided".to_vec()),
            },
        ),
        (
            "vba-vote (yes, closing)",
            Body::VbaVote {
                iteration: 3,
                yes: true,
                closing: Some(
                    ClosingMessage {
                        payload: b"candidate".to_vec(),
                        sig: multi_sig(),
                    }
                    .to_bytes(),
                ),
            },
        ),
        (
            "vba-vote (no)",
            Body::VbaVote {
                iteration: 4,
                yes: false,
                closing: None,
            },
        ),
        (
            "ac-entry (two payloads, one a close)",
            Body::AcEntry {
                round: 12,
                entry: entry(),
            },
        ),
        (
            "ac-fetch",
            Body::AcFetch {
                round: 12,
                signer: entry().signer(),
                digest: *entry().digest(),
            },
        ),
        (
            "ac-fetched",
            Body::AcFetched {
                round: 12,
                entry: entry(),
            },
        ),
        (
            "sc-shares",
            Body::ScShares {
                round: 8,
                batch: DecryptionBatch {
                    index: 3,
                    values: vec![big(0xdec), big(0xded)],
                    proof: dleq(0x20),
                }
                .into(),
            },
        ),
        (
            "opt-submit",
            Body::OptSubmit {
                payload: payload(2, 1, PayloadKind::App, b"submit"),
            },
        ),
        (
            "opt-ack",
            Body::OptAck {
                phase: 2,
                epoch: 4,
                seq: 9,
                digest: [0x22; 32],
                sig: rsa(0xac).into(),
            },
        ),
        ("opt-complain", Body::OptComplain { epoch: 4 }),
        (
            "opt-state",
            Body::OptState {
                epoch: 4,
                state: epoch_state().to_bytes(),
            },
        ),
    ];
    let mut cases: Vec<Case> = bodies
        .into_iter()
        .zip(1u64..)
        .map(|((name, body), send_seq)| {
            let envelope = Envelope {
                pid: ProtocolId::new("kat/ch/1"),
                send_seq,
                body,
            };
            case(name, envelope)
        })
        .collect();
    cases.push(case(
        "closing message",
        ClosingMessage {
            payload: b"closing".to_vec(),
            sig: shoup_sig(),
        },
    ));
    cases.push(case(
        "ciphertext",
        Ciphertext {
            data: b"sealed".to_vec(),
            label: b"label".to_vec(),
            u: big(0x75),
            u_bar: big(0x76),
            e: big(0x65),
            f: big(0x66),
        },
    ));
    let reference: EntryRef = entry().to_ref();
    cases.push(case(
        "proposal (entry references)",
        vec![
            Unchecked::from(reference.clone()),
            Unchecked::from(EntryRef {
                signer: PartyId(0),
                ..reference
            }),
        ],
    ));
    cases.push(case("epoch state (one certified entry)", epoch_state()));
    cases
}
