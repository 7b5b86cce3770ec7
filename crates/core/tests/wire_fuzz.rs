//! Mutation fuzzing of the wire codecs: start from a *valid* encoding
//! and flip, truncate, insert and splice bytes at random. Decoders face
//! exactly this input class from Byzantine peers (a mostly-well-formed
//! message with targeted corruption), and must never panic — every
//! mutation either decodes cleanly to some value or returns an error.
//! The envelopes come from the known-answer corpus, so the edits land in
//! every decoder: nested enums, boxed justifications, pair vectors and
//! the entry's `MalformedEntry` path.

mod corpus;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sintra_core::message::{Body, Envelope, Payload, PayloadKind};
use sintra_core::wire::Wire;
use sintra_core::{PartyId, ProtocolId};

/// Applies `edits` random byte-level mutations (flip / truncate /
/// insert / overwrite-run) to `bytes`, deterministically from `seed`.
fn mutate(bytes: &[u8], seed: u64, edits: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = bytes.to_vec();
    for _ in 0..edits {
        if out.is_empty() {
            out.push(rng.gen::<u8>());
            continue;
        }
        match rng.gen::<u32>() % 4 {
            0 => {
                // Flip one bit.
                let i = rng.gen::<u64>() as usize % out.len();
                out[i] ^= 1 << (rng.gen::<u32>() % 8);
            }
            1 => {
                // Truncate to a random prefix.
                let keep = rng.gen::<u64>() as usize % (out.len() + 1);
                out.truncate(keep);
            }
            2 => {
                // Insert a random byte at a random position.
                let i = rng.gen::<u64>() as usize % (out.len() + 1);
                out.insert(i, rng.gen::<u8>());
            }
            _ => {
                // Overwrite a short run (corrupts length prefixes and
                // discriminants in one edit).
                let i = rng.gen::<u64>() as usize % out.len();
                let run = (rng.gen::<u32>() % 4 + 1) as usize;
                for slot in out.iter_mut().skip(i).take(run) {
                    *slot = rng.gen::<u8>();
                }
            }
        }
    }
    out
}

fn sample_envelope(tag: u8, data: Vec<u8>) -> Envelope {
    let body = match tag % 3 {
        0 => Body::RbSend(data),
        1 => Body::RbEcho(data),
        _ => {
            let mut digest = [0u8; 32];
            for (i, b) in data.iter().take(32).enumerate() {
                digest[i] = *b;
            }
            Body::RbReady(digest)
        }
    };
    Envelope {
        pid: ProtocolId::new("fuzz/ch/1"),
        send_seq: tag as u64,
        body,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_envelopes_never_panic(
        pick in any::<usize>(),
        seed in any::<u64>(),
        edits in 1usize..8,
    ) {
        let cases = corpus::corpus();
        let case = &cases[pick % cases.len()];
        // Sanity: the unmutated encoding decodes.
        prop_assert!((case.decodes)(&case.bytes), "{}", case.name);
        let corrupt = mutate(&case.bytes, seed, edits);
        // Decoding must terminate without panicking; the result value
        // (if any) is irrelevant here — authenticity is the MAC layer's
        // job, robustness is this layer's.
        let _ = (case.decodes)(&corrupt);
        let _ = Envelope::from_bytes(&corrupt);
        let _ = Body::from_bytes(&corrupt);
    }

    #[test]
    fn mutated_payloads_never_panic(
        origin in 0usize..16,
        seq in any::<u64>(),
        close in any::<bool>(),
        data in prop::collection::vec(any::<u8>(), 0..64),
        seed in any::<u64>(),
        edits in 1usize..8,
    ) {
        let payload = Payload {
            origin: PartyId(origin),
            seq,
            kind: if close { PayloadKind::Close } else { PayloadKind::App },
            data,
        };
        let valid = payload.to_bytes();
        prop_assert_eq!(Payload::from_bytes(&valid).unwrap(), payload);
        let corrupt = mutate(&valid, seed, edits);
        let _ = Payload::from_bytes(&corrupt);
    }

    #[test]
    fn concatenation_and_embedding_never_panic(
        data in prop::collection::vec(any::<u8>(), 0..48),
        seed in any::<u64>(),
    ) {
        // Adversaries also splice valid encodings together or embed one
        // inside another; decoders must handle trailing and nested
        // garbage without panicking.
        let a = sample_envelope(0, data.clone()).to_bytes();
        let b = sample_envelope(1, data).to_bytes();
        let mut spliced = a.clone();
        spliced.extend_from_slice(&b);
        let _ = Envelope::from_bytes(&spliced);
        let embedded = sample_envelope(0, spliced).to_bytes();
        let _ = Envelope::from_bytes(&mutate(&embedded, seed, 3));
    }
}
