//! Stateless pre-verification of incoming envelopes.
//!
//! The expensive cryptographic checks on SINTRA's hot receive path —
//! Shoup signature-share verifies, DLEQ coin-share proofs, assembled
//! threshold signatures and plain RSA signatures — depend only on the
//! envelope itself plus the group's public keys, never on protocol state.
//! A [`PreVerifier`] performs exactly those checks through `&self`, so a
//! runtime can run them on worker threads without touching the [`Node`]
//! (verification needs no protocol state lock).
//!
//! Soundness hinges on how results are communicated: a successful check
//! yields an opaque [`PreToken`] — a hash binding the *exact statement
//! bytes* and the *exact wire encoding* of the verified object. The
//! runtime deposits tokens into the party's [`GroupContext`] cache just
//! before dispatching the envelope, and handlers consult the cache at
//! their existing verify sites via [`GroupContext::verify_share_cached`]
//! and friends: cache hit ⇒ the check already ran, skip it; miss ⇒ fall
//! back to the inline verification that has always been there. Because
//! the handler recomputes the statement from its *own* instance pid, a
//! pre-verifier that checked a different statement (say, for a forged
//! descendant pid) simply never produces a matching token — the handler
//! re-verifies and the forgery fails exactly as it would without the
//! pipeline. Skipping a check is only ever possible when the handler
//! would have performed that same check on those same bytes.
//!
//! Invalid envelopes get a [`PreVerdict::Invalid`] with a blame reason
//! (per-share blame for batched coin verification comes from
//! `CoinScheme::verify_shares`); runtimes count and drop them instead of
//! dispatching. Messages whose checks need protocol state (`CbEcho`
//! needs the sender's payload, `ScShare` the ordered ciphertext, …)
//! return [`PreVerdict::Unchecked`] and are dispatched as today.
//!
//! [`Node`]: crate::node::Node

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sintra_crypto::coin::CoinShare;
use sintra_crypto::hash::Sha256;
use sintra_crypto::rsa::RsaSignature;
use sintra_crypto::thsig::{SigShare, ThresholdSignature};

use crate::config::GroupContext;
use crate::ids::PartyId;
use crate::message::{
    coin_name, statement_cb, statement_entry, statement_main_vote, statement_opt_ack,
    statement_pre_vote, Body, Envelope,
};
use crate::wire::Wire;

/// An opaque receipt for one successfully pre-verified check: the hash
/// of the statement bytes and the verified object's wire encoding.
pub type PreToken = [u8; 32];

/// Hashes `(tag, statement, wire encoding of item)` into a token. The
/// statement is length-prefixed so distinct `(statement, item)` splits
/// of the same byte string cannot collide.
fn token(tag: u8, statement: &[u8], item: &impl Wire) -> PreToken {
    let mut buf = Vec::with_capacity(statement.len() + 80);
    buf.push(tag);
    buf.extend_from_slice(&(statement.len() as u64).to_be_bytes());
    buf.extend_from_slice(statement);
    item.encode(&mut buf);
    Sha256::digest(&buf)
}

/// Token for a verified threshold-signature share over `statement`.
pub fn share_token(statement: &[u8], share: &SigShare) -> PreToken {
    token(1, statement, share)
}

/// Token for a verified assembled threshold signature over `statement`.
pub fn threshold_token(statement: &[u8], sig: &ThresholdSignature) -> PreToken {
    token(2, statement, sig)
}

/// Token for a verified plain RSA signature over `statement`.
pub fn rsa_token(statement: &[u8], sig: &RsaSignature) -> PreToken {
    token(3, statement, sig)
}

/// Token for a verified coin share for coin `name`.
pub fn coin_token(name: &[u8], share: &CoinShare) -> PreToken {
    token(4, name, share)
}

/// Cap on cached tokens. Tokens are normally consumed by the very next
/// dispatch; leftovers only arise when a handler drops a message before
/// its verify site (duplicate, bad justification, stale round). Evicting
/// one merely costs an inline re-verification later, so a small bound
/// suffices and memory stays fixed under Byzantine flooding.
const TOKEN_CACHE_CAP: usize = 4096;

/// Bounded FIFO set of outstanding pre-verification receipts.
#[derive(Debug, Default)]
pub(crate) struct TokenCache {
    set: BTreeSet<PreToken>,
    order: VecDeque<PreToken>,
}

impl TokenCache {
    pub(crate) fn insert(&mut self, token: PreToken) {
        if self.set.insert(token) {
            self.order.push_back(token);
            if self.order.len() > TOKEN_CACHE_CAP {
                if let Some(oldest) = self.order.pop_front() {
                    self.set.remove(&oldest);
                }
            }
        }
    }

    /// Removes `token`, reporting whether it was present. The FIFO entry
    /// is left behind; its eventual eviction is a harmless no-op.
    pub(crate) fn consume(&mut self, token: &PreToken) -> bool {
        self.set.remove(token)
    }

    pub(crate) fn len(&self) -> usize {
        self.set.len()
    }
}

/// Outcome of pre-verifying one envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreVerdict {
    /// Every stateless check passed; `token` certifies it.
    Valid,
    /// A check failed that no honest sender can fail — the envelope is
    /// Byzantine and safe to drop with blame attached.
    Invalid(&'static str),
    /// The envelope carries no check derivable without protocol state;
    /// dispatch it exactly as without the pipeline.
    Unchecked,
}

/// One envelope's pre-verification result: the verdict plus the receipt
/// to deposit before dispatch (present only for [`PreVerdict::Valid`]).
#[derive(Debug, Clone)]
pub struct PreVerified {
    /// The verdict.
    pub verdict: PreVerdict,
    /// Receipt for the performed check, if any.
    pub token: Option<PreToken>,
}

impl PreVerified {
    fn valid(token: PreToken) -> Self {
        PreVerified {
            verdict: PreVerdict::Valid,
            token: Some(token),
        }
    }

    fn invalid(reason: &'static str) -> Self {
        PreVerified {
            verdict: PreVerdict::Invalid(reason),
            token: None,
        }
    }

    fn unchecked() -> Self {
        PreVerified {
            verdict: PreVerdict::Unchecked,
            token: None,
        }
    }
}

/// The pure verification stage: group public keys, callable from any
/// thread through `&self`.
#[derive(Debug, Clone)]
pub struct PreVerifier {
    ctx: GroupContext,
}

impl PreVerifier {
    /// Builds a pre-verifier sharing the party's key material.
    pub fn new(ctx: GroupContext) -> Self {
        PreVerifier { ctx }
    }

    /// Pre-verifies a single envelope.
    pub fn pre_verify(&self, from: PartyId, envelope: &Envelope) -> PreVerified {
        let mut out = self.pre_verify_batch(&[(from, envelope)]);
        match out.pop() {
            Some(result) => result,
            None => PreVerified::unchecked(),
        }
    }

    /// Pre-verifies a batch, amortizing fixed costs: coin shares for the
    /// same `(pid, round)` across the batch are checked through the
    /// coin scheme's batched multi-exponentiation (which falls back to
    /// per-share verification to blame the culprit when the batch check
    /// fails).
    pub fn pre_verify_batch(&self, batch: &[(PartyId, &Envelope)]) -> Vec<PreVerified> {
        let mut results: Vec<PreVerified> = Vec::with_capacity(batch.len());
        // Coin shares deferred for grouped verification: coin name →
        // (index into `results`, share).
        let mut coin_groups: BTreeMap<Vec<u8>, Vec<(usize, CoinShare)>> = BTreeMap::new();
        for (slot, (from, envelope)) in batch.iter().enumerate() {
            if !self.ctx.is_valid_party(*from) {
                results.push(PreVerified::invalid("unknown sender"));
                continue;
            }
            results.push(self.pre_verify_one(*from, envelope, slot, &mut coin_groups));
        }
        let common = &self.ctx.keys().common;
        for (name, entries) in coin_groups {
            let shares: Vec<CoinShare> = entries.iter().map(|(_, s)| s.clone()).collect();
            let verdicts = common.coin.verify_shares(&name, &shares);
            for ((slot, share), valid) in entries.into_iter().zip(verdicts) {
                results[slot] = if valid {
                    PreVerified::valid(coin_token(&name, &share))
                } else {
                    PreVerified::invalid("coin share proof")
                };
            }
        }
        results
    }

    /// Dispatches one envelope to its per-kind check. Coin shares are
    /// parked in `coin_groups` (their slot pre-filled as `Unchecked`)
    /// for grouped verification by the caller.
    fn pre_verify_one(
        &self,
        from: PartyId,
        envelope: &Envelope,
        slot: usize,
        coin_groups: &mut BTreeMap<Vec<u8>, Vec<(usize, CoinShare)>>,
    ) -> PreVerified {
        let common = &self.ctx.keys().common;
        let pid = &envelope.pid;
        match &envelope.body {
            Body::BaPreVote {
                round,
                value,
                share,
                ..
            } => {
                if *round == 0 {
                    return PreVerified::invalid("pre-vote round 0");
                }
                if share.index != from.0 {
                    return PreVerified::invalid("pre-vote share index");
                }
                let statement = statement_pre_vote(pid, *round, *value);
                if common.thsig_agreement.verify_share(&statement, share) {
                    PreVerified::valid(share_token(&statement, share))
                } else {
                    PreVerified::invalid("pre-vote share")
                }
            }
            Body::BaMainVote {
                round, vote, share, ..
            } => {
                if *round == 0 {
                    return PreVerified::invalid("main-vote round 0");
                }
                if share.index != from.0 {
                    return PreVerified::invalid("main-vote share index");
                }
                let statement = statement_main_vote(pid, *round, *vote);
                if common.thsig_agreement.verify_share(&statement, share) {
                    PreVerified::valid(share_token(&statement, share))
                } else {
                    PreVerified::invalid("main-vote share")
                }
            }
            Body::BaCoinShare { round, share } => {
                // Round 0 at a multi-valued root is the permutation coin,
                // whose name derives differently — leave it to the
                // handler. (A binary instance rejects round 0 anyway.)
                if *round == 0 {
                    return PreVerified::unchecked();
                }
                if share.index >= common.coin.public_key().n {
                    return PreVerified::invalid("coin share index");
                }
                coin_groups
                    .entry(coin_name(pid, *round))
                    .or_default()
                    .push((slot, share.clone()));
                PreVerified::unchecked()
            }
            Body::BaDecide {
                round, value, sig, ..
            } => {
                if *round == 0 {
                    return PreVerified::invalid("decide round 0");
                }
                let statement =
                    statement_main_vote(pid, *round, crate::message::MainVote::Value(*value));
                if common.thsig_agreement.verify(&statement, sig) {
                    PreVerified::valid(threshold_token(&statement, sig))
                } else {
                    PreVerified::invalid("decide signature")
                }
            }
            Body::CbFinal { payload, sig } => {
                let statement = statement_cb(pid, payload);
                if common.thsig_broadcast.verify(&statement, sig) {
                    PreVerified::valid(threshold_token(&statement, sig))
                } else {
                    PreVerified::invalid("cb-final signature")
                }
            }
            Body::AcEntry { round, entry } | Body::AcFetched { round, entry } => {
                // A broadcast entry comes from its signer; a fetched one
                // from any holder, under the signer's signature all the
                // same (whether it was asked for is the handler's call).
                if matches!(envelope.body, Body::AcEntry { .. }) && entry.signer() != from {
                    return PreVerified::invalid("entry signer");
                }
                if !entry.well_formed() {
                    return PreVerified::invalid("entry payload vector");
                }
                let statement = statement_entry(pid, *round, entry.digest());
                let Some(key) = common.sig_publics.get(entry.signer().0) else {
                    return PreVerified::invalid("entry signer key");
                };
                if key.verify(&statement, entry.sig()) {
                    PreVerified::valid(rsa_token(&statement, entry.sig()))
                } else {
                    PreVerified::invalid("entry signature")
                }
            }
            Body::OptAck {
                phase,
                epoch,
                seq,
                digest,
                sig,
            } => {
                if !(1..=2).contains(phase) {
                    return PreVerified::invalid("ack phase");
                }
                let statement = statement_opt_ack(pid, *phase, *epoch, *seq, digest);
                let Some(key) = common.sig_publics.get(from.0) else {
                    return PreVerified::invalid("ack signer key");
                };
                if key.verify(&statement, sig) {
                    PreVerified::valid(rsa_token(&statement, sig))
                } else {
                    PreVerified::invalid("ack signature")
                }
            }
            // Everything else either carries no signature or needs
            // protocol state to check (CbEcho: the sender's own payload;
            // ScShare: the ordered ciphertext; OptState: epoch history;
            // VbaVote closings: the child broadcast's context).
            _ => PreVerified::unchecked(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProtocolId;
    use crate::message::{Entry, MainVote, Payload, PayloadKind, PreVoteJust};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sintra_crypto::dealer::{deal, DealerConfig, PartyKeys};
    use std::sync::Arc;

    fn contexts(n: usize, t: usize) -> Vec<GroupContext> {
        let mut rng = StdRng::seed_from_u64(7);
        deal(&DealerConfig::small(n, t), &mut rng)
            .unwrap()
            .into_iter()
            .map(|k: PartyKeys| GroupContext::new(Arc::new(k)))
            .collect()
    }

    fn envelope(pid: &ProtocolId, body: Body) -> Envelope {
        Envelope {
            pid: pid.clone(),
            send_seq: 0,
            body,
        }
    }

    #[test]
    fn pre_vote_share_verdicts() {
        let ctxs = contexts(4, 1);
        let pid = ProtocolId::new("ba");
        let statement = statement_pre_vote(&pid, 1, true);
        let share = ctxs[1].keys().thsig_agreement.sign_share(&statement);
        let body = |share: SigShare| Body::BaPreVote {
            round: 1,
            value: true,
            just: PreVoteJust::Initial,
            share,
            proof: None,
        };
        let verifier = PreVerifier::new(ctxs[0].clone());
        let good = verifier.pre_verify(PartyId(1), &envelope(&pid, body(share.clone())));
        assert_eq!(good.verdict, PreVerdict::Valid);
        assert_eq!(good.token, Some(share_token(&statement, &share)));
        // Wrong claimed sender: index mismatch.
        let stolen = verifier.pre_verify(PartyId(2), &envelope(&pid, body(share.clone())));
        assert!(matches!(stolen.verdict, PreVerdict::Invalid(_)));
        // Share transplanted onto a different statement (other value).
        let forged = verifier.pre_verify(
            PartyId(1),
            &envelope(
                &pid,
                Body::BaPreVote {
                    round: 1,
                    value: false,
                    just: PreVoteJust::Initial,
                    share: share.clone(),
                    proof: None,
                },
            ),
        );
        assert!(matches!(forged.verdict, PreVerdict::Invalid(_)));
        // A token for pid X never matches the statement for pid Y, so a
        // descendant-pid forgery cannot consume the receipt.
        let other = statement_pre_vote(&ProtocolId::new("ba/child"), 1, true);
        assert_ne!(share_token(&statement, &share), share_token(&other, &share));
    }

    #[test]
    fn coin_shares_batch_with_blame() {
        let ctxs = contexts(4, 1);
        let pid = ProtocolId::new("ba");
        let name = coin_name(&pid, 3);
        let release = |i: usize, name: &[u8]| {
            ctxs[i]
                .keys()
                .common
                .coin
                .release_share(name, &ctxs[i].keys().coin_secret)
        };
        let mut envelopes = Vec::new();
        for i in 0..3usize {
            envelopes.push(envelope(
                &pid,
                Body::BaCoinShare {
                    round: 3,
                    share: release(i, &name),
                },
            ));
        }
        // A corrupted share: party 3 releases for the wrong coin name.
        let bogus = release(3, &coin_name(&pid, 4));
        envelopes.push(envelope(
            &pid,
            Body::BaCoinShare {
                round: 3,
                share: bogus,
            },
        ));
        let batch: Vec<(PartyId, &Envelope)> = envelopes
            .iter()
            .enumerate()
            .map(|(i, env)| (PartyId(i), env))
            .collect();
        let verifier = PreVerifier::new(ctxs[0].clone());
        let results = verifier.pre_verify_batch(&batch);
        assert_eq!(results.len(), 4);
        for result in &results[..3] {
            assert_eq!(result.verdict, PreVerdict::Valid);
            assert!(result.token.is_some());
        }
        assert!(matches!(results[3].verdict, PreVerdict::Invalid(_)));
    }

    #[test]
    fn stateful_kinds_stay_unchecked() {
        let ctxs = contexts(4, 1);
        let pid = ProtocolId::new("x");
        let verifier = PreVerifier::new(ctxs[0].clone());
        for body in [
            Body::RbSend(vec![1]),
            Body::RbEcho(vec![1]),
            Body::CbSend(vec![1]),
            Body::VbaVote {
                iteration: 1,
                yes: false,
                closing: None,
            },
            Body::OptComplain { epoch: 0 },
            // Round-0 coin shares are the multi-valued permutation coin.
            Body::BaCoinShare {
                round: 0,
                share: ctxs[1]
                    .keys()
                    .common
                    .coin
                    .release_share(b"perm", &ctxs[1].keys().coin_secret),
            },
        ] {
            let result = verifier.pre_verify(PartyId(1), &envelope(&pid, body));
            assert_eq!(result.verdict, PreVerdict::Unchecked, "{:?}", result);
        }
    }

    #[test]
    fn cached_verify_consumes_token_once() {
        let ctxs = contexts(4, 1);
        let pid = ProtocolId::new("ac");
        let payload = Payload {
            origin: PartyId(1),
            seq: 0,
            kind: PayloadKind::App,
            data: b"x".to_vec(),
        };
        let entry = Entry::sign(&pid, 0, vec![payload], PartyId(1), &ctxs[1].keys().sig_key);
        let statement = statement_entry(&pid, 0, entry.digest());
        let sig = entry.sig().clone();
        let verifier = PreVerifier::new(ctxs[0].clone());
        let result = verifier.pre_verify(
            PartyId(1),
            &envelope(
                &pid,
                Body::AcEntry {
                    round: 0,
                    entry: entry.clone(),
                },
            ),
        );
        assert_eq!(result.verdict, PreVerdict::Valid);
        let token = result.token.unwrap();
        // A holder's fetch reply carries the same entry under the same
        // signature, whoever sends it; relayed as a broadcast it is not
        // the sender's to send.
        let fetched = envelope(
            &pid,
            Body::AcFetched {
                round: 0,
                entry: entry.clone(),
            },
        );
        let relayed = verifier.pre_verify(PartyId(3), &fetched);
        assert_eq!(relayed.token, Some(token));
        let stolen = verifier.pre_verify(
            PartyId(3),
            &envelope(&pid, Body::AcEntry { round: 0, entry }),
        );
        assert!(matches!(stolen.verdict, PreVerdict::Invalid(_)));
        ctxs[0].note_preverified([token]);
        assert_eq!(ctxs[0].preverified_len(), 1);
        // First consult hits the cache; the second falls back to a real
        // verification, which still passes.
        assert!(ctxs[0].verify_party_sig_cached(PartyId(1), &statement, &sig));
        assert_eq!(ctxs[0].preverified_len(), 0);
        assert!(ctxs[0].verify_party_sig_cached(PartyId(1), &statement, &sig));
        // A cached token never lets a wrong signature through.
        let wrong = ctxs[2].keys().sig_key.sign(&statement);
        ctxs[0].note_preverified([token]);
        assert!(!ctxs[0].verify_party_sig_cached(PartyId(1), &statement, &wrong));
    }

    #[test]
    fn decide_statement_binds_main_vote() {
        let ctxs = contexts(4, 1);
        let pid = ProtocolId::new("ba");
        let statement = statement_main_vote(&pid, 2, MainVote::Value(true));
        let shares: Vec<SigShare> = ctxs
            .iter()
            .map(|c| c.keys().thsig_agreement.sign_share(&statement))
            .collect();
        let sig = ctxs[0]
            .keys()
            .common
            .thsig_agreement
            .assemble_preverified(&statement, &shares)
            .unwrap();
        let verifier = PreVerifier::new(ctxs[0].clone());
        let good = verifier.pre_verify(
            PartyId(2),
            &envelope(
                &pid,
                Body::BaDecide {
                    round: 2,
                    value: true,
                    sig: sig.clone(),
                    proof: None,
                },
            ),
        );
        assert_eq!(good.verdict, PreVerdict::Valid);
        let flipped = verifier.pre_verify(
            PartyId(2),
            &envelope(
                &pid,
                Body::BaDecide {
                    round: 2,
                    value: false,
                    sig,
                    proof: None,
                },
            ),
        );
        assert!(matches!(flipped.verdict, PreVerdict::Invalid(_)));
    }
}
