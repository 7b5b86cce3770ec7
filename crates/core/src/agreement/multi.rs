//! Multi-valued validated Byzantine agreement (Cachin–Kursawe–Petzold–
//! Shoup), called *array agreement* in SINTRA.
//!
//! Protocol (paper §2.4):
//!
//! 1. Every party broadcasts its proposal with a *verifiable consistent
//!    broadcast*; it waits for `n - t` proposals satisfying the external
//!    validation predicate.
//! 2. Candidates are examined in the order given by a permutation `Π` —
//!    fixed, or derived pseudorandomly from locally available common
//!    information (the protocol id). For each candidate `P_a`:
//!    a. send a yes/no vote, a yes carrying the candidate's closing
//!    message as transferable proof;
//!    b. collect `n - t` proper votes;
//!    c. run a 1-biased validated binary agreement, proposing 1 iff a
//!    valid proposal from `P_a` is known, with the closing message as
//!    validation data;
//!    d. on decision 1, stop; on 0, move to the next candidate.
//! 3. The decision value is `P_a`'s proposal, recoverable from the binary
//!    agreement's validation data if the broadcast was never received.
//!
//! Expected `O(t)` loop iterations with a fixed or locally-random order.

use std::collections::BTreeMap;

use sintra_crypto::coin::CoinShare;
use sintra_crypto::hash::Sha256;
use sintra_telemetry::{SnapshotWriter, StateSnapshot, TraceEvent};

use crate::agreement::BinaryAgreement;
use crate::broadcast::VerifiableConsistentBroadcast;
use crate::checked::{Checked, Unchecked};
use crate::config::GroupContext;
use crate::ids::{PartyId, ProtocolId};
use crate::invariant::OrInvariant;
use crate::invariant_unwrap;
use crate::message::Body;
use crate::outgoing::Outgoing;

/// How the candidate permutation `Π` is chosen. The paper's §2.4 lists
/// three variations; SINTRA implemented the first two, and this library
/// additionally provides the third.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateOrder {
    /// Candidates examined in index order `0, 1, ..., n-1`.
    Fixed,
    /// A pseudorandom permutation derived from the protocol id — the same
    /// for all parties, balancing load across senders between instances.
    #[default]
    LocalRandom,
    /// The permutation is derived from the threshold coin, opened in an
    /// extra round of share exchange once a party holds `n - t` validated
    /// proposals — so the adversary cannot predict the order when choosing
    /// which broadcasts to slow down. (The paper's full constant-expected-
    /// round variant additionally commits votes before the coin opens;
    /// that commitment step is not implemented here, matching the
    /// description in §2.4.)
    CommonCoin,
}

/// Per-iteration vote bookkeeping.
#[derive(Debug, Default)]
struct IterationVotes {
    /// Parties whose vote has been counted.
    voted: BTreeMap<PartyId, bool>,
    /// Number of proper votes (yes with valid closing, or no).
    proper: usize,
}

/// A multi-valued agreement instance.
#[derive(Debug)]
pub struct MultiValuedAgreement {
    pid: ProtocolId,
    ctx: GroupContext,
    order: CandidateOrder,
    /// Proposal broadcast instances, one per party.
    broadcasts: Vec<VerifiableConsistentBroadcast>,
    /// Validated proposals by party (payload); `Some(None)` marks a
    /// delivered-but-invalid proposal.
    proposals: Vec<Option<Option<Vec<u8>>>>,
    /// Closing messages by party, from own delivery or yes-votes.
    closings: Vec<Option<Vec<u8>>>,
    valid_count: usize,
    proposed: bool,
    /// Current loop iteration (candidate index into the permutation);
    /// `None` until `n - t` proposals arrived.
    iteration: Option<u32>,
    votes: BTreeMap<u32, IterationVotes>,
    vote_sent: BTreeMap<u32, bool>,
    /// Binary agreement per iteration, created lazily.
    bas: BTreeMap<u32, BinaryAgreement>,
    /// The resolved permutation (immediate for `Fixed`/`LocalRandom`,
    /// coin-derived for `CommonCoin`).
    perm: Option<Vec<usize>>,
    /// Whether this party has released its permutation-coin share.
    perm_coin_sent: bool,
    /// Verified permutation-coin shares by holder.
    perm_shares: BTreeMap<usize, Checked<CoinShare>>,
    /// Vote / agreement messages parked until the permutation is known,
    /// as they came: a yes-vote's closing is checked when the vote is
    /// replayed and counted, a no-vote is a bare bit.
    deferred: Vec<(PartyId, ProtocolId, Body)>,
    decided: Option<Vec<u8>>,
    decision_taken: bool,
}

/// The external validity predicate, supplied by the instance's owner on
/// each call so that it can see the owner's state: what the owner already
/// holds needs no second check.
type Valid<'a> = &'a dyn Fn(&[u8]) -> bool;

/// The coin identifying this instance's candidate permutation.
fn perm_coin_name(pid: &ProtocolId) -> Vec<u8> {
    let mut name = b"vba-perm".to_vec();
    name.extend_from_slice(pid.as_bytes());
    name
}

/// Fisher–Yates driven by a 64-bit seed (xorshift64*).
fn seeded_permutation(n: usize, mut state: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    if state == 0 {
        state = 0x9E37_79B9_7F4A_7C15;
    }
    for i in (1..n).rev() {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        // The remainder is at most `i`, a `usize`.
        #[allow(clippy::cast_possible_truncation)]
        let j = (state.wrapping_mul(0x2545F4914F6CDD1D) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

impl MultiValuedAgreement {
    /// Creates an instance; its external validity predicate comes with
    /// each call.
    pub fn new(pid: ProtocolId, ctx: GroupContext, order: CandidateOrder) -> Self {
        let n = ctx.n();
        let broadcasts = (0..n)
            .map(|i| {
                VerifiableConsistentBroadcast::new(
                    pid.child(format!("bc/{i}")),
                    ctx.clone(),
                    PartyId(i),
                )
            })
            .collect();
        let perm = match order {
            CandidateOrder::Fixed => Some((0..n).collect()),
            CandidateOrder::LocalRandom => {
                // Seeded by a hash of the pid: common to all parties,
                // different across instances.
                let seed = Sha256::digest(pid.as_bytes());
                Some(seeded_permutation(
                    n,
                    u64::from_be_bytes(
                        seed[..8]
                            .try_into()
                            .or_invariant("digest shorter than 8 bytes"),
                    ),
                ))
            }
            CandidateOrder::CommonCoin => None,
        };
        MultiValuedAgreement {
            pid,
            ctx,
            order,
            broadcasts,
            proposals: vec![None; n],
            closings: vec![None; n],
            valid_count: 0,
            proposed: false,
            iteration: None,
            votes: BTreeMap::new(),
            vote_sent: BTreeMap::new(),
            bas: BTreeMap::new(),
            perm,
            perm_coin_sent: false,
            perm_shares: BTreeMap::new(),
            deferred: Vec::new(),
            decided: None,
            decision_taken: false,
        }
    }

    /// The instance identifier.
    pub fn pid(&self) -> &ProtocolId {
        &self.pid
    }

    /// The candidate permutation, if already determined (always for
    /// `Fixed`/`LocalRandom`; only after the coin opens for `CommonCoin`).
    pub fn permutation(&self) -> Option<&[usize]> {
        self.perm.as_deref()
    }

    /// Starts the instance with this party's proposed value, which must
    /// satisfy `valid`, the external validity predicate.
    ///
    /// # Panics
    ///
    /// Panics if called twice or if the value fails the validator.
    pub fn propose(&mut self, valid: Valid, value: Vec<u8>, out: &mut Outgoing) {
        assert!(!self.proposed, "propose may be executed once");
        assert!(valid(&value), "own proposal must satisfy the validator");
        self.proposed = true;
        let me = self.ctx.me();
        self.broadcasts[me.0].send(value, out);
        self.try_advance(valid, out);
    }

    /// Whether a decision is available (and not yet taken).
    pub fn can_decide(&self) -> bool {
        self.decided.is_some() && !self.decision_taken
    }

    /// Takes the decided value, once.
    pub fn take_decision(&mut self) -> Option<Vec<u8>> {
        if self.decision_taken {
            return None;
        }
        let d = self.decided.clone();
        if d.is_some() {
            self.decision_taken = true;
        }
        d
    }

    /// Read-only view of the decision.
    pub fn decision(&self) -> Option<&[u8]> {
        self.decided.as_deref()
    }

    /// Processes a protocol message addressed to this instance or one of
    /// its children (`msg_pid` is the envelope's full pid), judging
    /// proposals with `valid` (see [`Self::propose`]).
    pub fn handle(
        &mut self,
        valid: Valid,
        from: PartyId,
        msg_pid: &ProtocolId,
        body: &Body,
        out: &mut Outgoing,
    ) {
        if self.decided.is_some() || !self.ctx.is_valid_party(from) {
            return;
        }
        if *msg_pid == self.pid {
            match body {
                Body::VbaVote {
                    iteration,
                    yes,
                    closing,
                } => {
                    if self.perm.is_none() {
                        // Votes cannot be interpreted before the
                        // permutation coin opens; park them.
                        self.deferred.push((from, msg_pid.clone(), body.clone()));
                    } else {
                        self.on_vote(valid, from, *iteration, *yes, closing.as_deref());
                    }
                }
                Body::BaCoinShare { round: 0, share } => {
                    // Round 0 is reserved for the permutation coin.
                    self.on_perm_share(valid, share, out);
                }
                _ => {}
            }
        } else if let Some(bc) = self
            .broadcasts
            .iter_mut()
            .find(|bc| msg_pid.is_self_or_descendant_of(bc.pid()))
        {
            bc.handle(from, body, out);
        } else if let Some(iteration) = Self::parse_ba_child(&self.pid, msg_pid) {
            // Binary agreement children: pid = {pid}/ba/{iter}.
            if self.perm.is_none() {
                // The agreement's validator depends on the candidate,
                // which depends on the permutation.
                self.deferred.push((from, msg_pid.clone(), body.clone()));
            } else {
                self.with_ba(valid, iteration, |ba, valid| {
                    ba.handle(valid, from, body, out)
                });
            }
            self.try_advance(valid, out);
            return;
        }
        self.harvest_broadcasts(valid);
        self.try_advance(valid, out);
    }

    /// Ingests a permutation-coin share (CommonCoin order only).
    fn on_perm_share(&mut self, valid: Valid, share: &Unchecked<CoinShare>, out: &mut Outgoing) {
        if self.order != CandidateOrder::CommonCoin || self.perm.is_some() {
            return;
        }
        let name = perm_coin_name(&self.pid);
        let Some(share) = self.ctx.check_coin_share(&name, share) else {
            return;
        };
        self.perm_shares.insert(share.index, share);
        let coin = &self.ctx.keys().common.coin;
        if self.perm_shares.len() >= coin.threshold() {
            let shares: Vec<CoinShare> = self.perm_shares.values().map(|s| (**s).clone()).collect();
            if let Ok(bytes) = coin.assemble(&name, &shares, 8) {
                let seed = u64::from_be_bytes(
                    bytes[..8]
                        .try_into()
                        .or_invariant("coin value shorter than 8 bytes"),
                );
                self.perm = Some(seeded_permutation(self.ctx.n(), seed));
                self.replay_deferred(valid, out);
            }
        }
    }

    /// Replays messages parked while the permutation was unknown.
    fn replay_deferred(&mut self, valid: Valid, out: &mut Outgoing) {
        let parked = std::mem::take(&mut self.deferred);
        for (from, msg_pid, body) in parked {
            self.handle(valid, from, &msg_pid, &body, out);
        }
    }

    fn parse_ba_child(parent: &ProtocolId, msg_pid: &ProtocolId) -> Option<u32> {
        let rest = msg_pid.as_str().strip_prefix(parent.as_str())?;
        let rest = rest.strip_prefix("/ba/")?;
        rest.parse().ok()
    }

    /// The candidate examined in `iteration`.
    ///
    /// # Panics
    ///
    /// Panics if the permutation is not yet determined (callers gate on
    /// it).
    fn candidate(&self, iteration: u32) -> usize {
        let perm = self
            .perm
            .as_ref()
            .or_invariant("candidate loop entered before permutation was determined");
        perm[iteration as usize % perm.len()]
    }

    /// Runs `f` on `iteration`'s binary agreement, made on its first use,
    /// with the validity of its validation data as this party sees it
    /// now: 1 is backed by a closing message of the candidate's broadcast
    /// whose payload satisfies `valid` — the very bytes held for the
    /// candidate, or bytes that check out.
    fn with_ba<R>(
        &mut self,
        valid: Valid,
        iteration: u32,
        f: impl FnOnce(&mut BinaryAgreement, &dyn Fn(bool, &[u8]) -> bool) -> R,
    ) -> R {
        let candidate = self.candidate(iteration);
        let bc = &self.broadcasts[candidate];
        let ba = self.bas.entry(iteration).or_insert_with(|| {
            BinaryAgreement::new(self.pid.child(format!("ba/{iteration}")), self.ctx.clone())
                .validated()
                .with_bias(true)
        });
        let held = self.closings[candidate].as_deref();
        f(ba, &|value, proof| {
            !value
                || held == Some(proof)
                || bc
                    .check_closing(proof)
                    .is_some_and(|(payload, _sig)| valid(&payload))
        })
    }

    /// Collects newly delivered proposals from the broadcast children.
    fn harvest_broadcasts(&mut self, valid: Valid) {
        for i in 0..self.broadcasts.len() {
            if self.proposals[i].is_some() {
                continue;
            }
            if let Some(payload) = self.broadcasts[i].delivered().map(<[u8]>::to_vec) {
                if valid(&payload) {
                    self.valid_count += 1;
                    if self.closings[i].is_none() {
                        self.closings[i] = self.broadcasts[i].closing();
                    }
                    self.proposals[i] = Some(Some(payload));
                } else {
                    self.proposals[i] = Some(None);
                }
            }
        }
    }

    fn on_vote(
        &mut self,
        valid: Valid,
        from: PartyId,
        iteration: u32,
        yes: bool,
        closing: Option<&[u8]>,
    ) {
        let candidate = self.candidate(iteration);
        let voted = |votes: &IterationVotes| votes.voted.contains_key(&from);
        if self.votes.get(&iteration).is_some_and(voted) {
            return;
        }
        // A yes vote is proper only with a valid closing message whose
        // payload satisfies `valid`; the iteration's slot opens for a vote
        // that counts. The closing this party holds for the candidate has
        // been checked, so the same bytes again count as they are; any
        // other closing is checked and, with none held, adopted with the
        // proposal it transports.
        let adopted = match closing {
            _ if !yes => None,
            None => return,
            Some(closing) if self.closings[candidate].as_deref() == Some(closing) => None,
            Some(closing) => {
                let Some((payload, _sig)) = self.broadcasts[candidate].check_closing(closing)
                else {
                    return;
                };
                if !valid(&payload) {
                    return;
                }
                Some((closing, payload))
            }
        };
        let votes = self.votes.entry(iteration).or_default();
        votes.voted.insert(from, yes);
        votes.proper += 1;
        let Some((closing, payload)) = adopted else {
            return;
        };
        if self.closings[candidate].is_none() {
            self.closings[candidate] = Some(closing.to_vec());
            if self.proposals[candidate].is_none() {
                self.valid_count += 1;
                self.proposals[candidate] = Some(Some(payload));
            }
        }
    }

    /// Drives the candidate loop.
    fn try_advance(&mut self, valid: Valid, out: &mut Outgoing) {
        if self.decided.is_some() || !self.proposed {
            return;
        }
        // Gate: n - t validated proposals before the loop starts.
        if self.iteration.is_none() {
            if self.valid_count < self.ctx.n_minus_t() {
                return;
            }
            // CommonCoin order: open the permutation coin first (one extra
            // exchange of coin shares, paper §2.4 third variation).
            if self.order == CandidateOrder::CommonCoin {
                if !self.perm_coin_sent {
                    self.perm_coin_sent = true;
                    let name = perm_coin_name(&self.pid);
                    let share = self.ctx.release_coin_share(&name).forget();
                    out.send_all(
                        &self.pid,
                        Body::BaCoinShare {
                            round: 0,
                            share: share.clone(),
                        },
                    );
                    self.on_perm_share(valid, &share, out);
                }
                if self.perm.is_none() {
                    return;
                }
            }
            // Releasing our own coin share may have re-entered this
            // function via deferred-message replay; only start the loop if
            // that did not already happen.
            if self.iteration.is_none() {
                self.iteration = Some(0);
                out.trace_with(|| {
                    TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "vba")
                        .phase("round")
                        .round(0)
                });
            }
        }
        if self.perm.is_none() {
            return;
        }
        loop {
            let iteration = self
                .iteration
                .or_invariant("vote handling before the candidate loop started");
            let candidate = self.candidate(iteration);

            // Step 2a: send our vote once.
            if !*self.vote_sent.entry(iteration).or_insert(false) {
                self.vote_sent.insert(iteration, true);
                let closing = self.closings[candidate].clone();
                let yes = closing.is_some() && matches!(&self.proposals[candidate], Some(Some(_)));
                out.send_all(
                    &self.pid,
                    Body::VbaVote {
                        iteration,
                        yes,
                        closing: if yes { closing } else { None },
                    },
                );
            }

            // Step 2b: n - t proper votes gate the binary agreement.
            let proper = self.votes.get(&iteration).map_or(0, |v| v.proper);
            let quorum = self.ctx.n_minus_t();
            let ba_started = self
                .bas
                .get(&iteration)
                .map(|ba| ba.round() > 0)
                .unwrap_or(false);
            if proper >= quorum && !ba_started {
                // Step 2c: propose 1 iff we hold the candidate's proposal.
                let have = matches!(&self.proposals[candidate], Some(Some(_)))
                    && self.closings[candidate].is_some();
                let proof = if have {
                    invariant_unwrap!(
                        self.closings[candidate].clone(),
                        "vote for candidate {candidate} sent without a closing"
                    )
                } else {
                    Vec::new()
                };
                self.with_ba(valid, iteration, |ba, valid| {
                    ba.propose(valid, have, proof, out)
                });
            }

            // Step 2d: act on the decision.
            let Some(ba) = self.bas.get_mut(&iteration) else {
                return;
            };
            let Some(value) = ba.decision() else { return };
            if value {
                // Step 3: recover the proposal from the validation data if
                // we never received the broadcast.
                if self.closings[candidate].is_none() {
                    if let Some(proof) = ba.decision_proof() {
                        if let Some((payload, _sig)) =
                            self.broadcasts[candidate].check_closing(proof)
                        {
                            self.closings[candidate] = Some(proof.to_vec());
                            self.proposals[candidate] = Some(Some(payload));
                        }
                    }
                }
                if let Some(Some(value)) = &self.proposals[candidate] {
                    self.decided = Some(value.clone());
                    let bytes = value.len() as u64;
                    out.trace_with(|| {
                        TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "vba")
                            .phase("decide")
                            .round(iteration as u64)
                            .bytes(bytes)
                    });
                }
                return;
            }
            // Decided 0: next candidate.
            self.iteration = Some(iteration + 1);
            out.trace_with(|| {
                TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "vba")
                    .phase("round")
                    .round((iteration + 1) as u64)
            });
        }
    }
}

impl StateSnapshot for MultiValuedAgreement {
    fn has_pending_work(&self) -> bool {
        self.proposed && self.decided.is_none()
    }

    fn snapshot_json(&self) -> String {
        // The candidate set: parties whose proposal arrived and validated.
        let candidates = self
            .proposals
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, Some(Some(_))))
            .map(|(i, _)| i as u64);
        let iteration = self.iteration.map_or(0, u64::from);
        let current_votes = self
            .iteration
            .and_then(|i| self.votes.get(&i))
            .map_or(0, |v| v.proper);
        let mut w = SnapshotWriter::new(self.pid.as_str(), "vba")
            .flag("proposed", self.proposed)
            .flag("loop_started", self.iteration.is_some())
            .num("iteration", iteration)
            .nums("candidates", candidates)
            .num("valid_proposals", self.valid_count as u64)
            .num("proposal_quorum", self.ctx.n_minus_t() as u64)
            .num("proper_votes", current_votes as u64)
            .num("vote_quorum", self.ctx.n_minus_t() as u64)
            .flag("perm_known", self.perm.is_some())
            .num("deferred_msgs", self.deferred.len() as u64)
            .flag("decided", self.decided.is_some());
        // The current candidate's binary agreement, when it exists, is
        // usually what the loop is waiting on.
        if let Some(ba) = self.iteration.and_then(|i| self.bas.get(&i)) {
            w = w.raw("current_ba", &ba.snapshot_json());
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outgoing::Recipient;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sintra_crypto::dealer::{deal, DealerConfig};
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// A predicate every value satisfies.
    const ANY: Valid<'static> = &|_| true;

    fn group(n: usize, t: usize) -> Vec<GroupContext> {
        let mut rng = StdRng::seed_from_u64(29);
        deal(&DealerConfig::small(n, t), &mut rng)
            .unwrap()
            .into_iter()
            .map(|k| GroupContext::new(Arc::new(k)))
            .collect()
    }

    fn run(instances: &mut [MultiValuedAgreement], proposals: &[Vec<u8>], valid: Valid) {
        let n = instances.len();
        let mut queue: VecDeque<(PartyId, usize, ProtocolId, Body)> = VecDeque::new();
        for (i, inst) in instances.iter_mut().enumerate() {
            let mut out = Outgoing::new();
            inst.propose(valid, proposals[i].clone(), &mut out);
            for (recipient, env) in out.drain() {
                match recipient {
                    Recipient::All => {
                        for to in 0..n {
                            queue.push_back((PartyId(i), to, env.pid.clone(), env.body.clone()));
                        }
                    }
                    Recipient::One(p) => queue.push_back((PartyId(i), p.0, env.pid, env.body)),
                }
            }
        }
        let mut steps = 0;
        while let Some((from, to, pid, body)) = queue.pop_front() {
            steps += 1;
            assert!(steps < 2_000_000, "MVBA did not terminate");
            let mut out = Outgoing::new();
            instances[to].handle(valid, from, &pid, &body, &mut out);
            for (recipient, env) in out.drain() {
                match recipient {
                    Recipient::All => {
                        for dest in 0..n {
                            queue.push_back((PartyId(to), dest, env.pid.clone(), env.body.clone()));
                        }
                    }
                    Recipient::One(p) => queue.push_back((PartyId(to), p.0, env.pid, env.body)),
                }
            }
        }
    }

    fn fresh(ctxs: &[GroupContext], tag: &str, order: CandidateOrder) -> Vec<MultiValuedAgreement> {
        ctxs.iter()
            .map(|c| MultiValuedAgreement::new(ProtocolId::new(tag), c.clone(), order))
            .collect()
    }

    #[test]
    fn agrees_on_some_proposal() {
        let ctxs = group(4, 1);
        for order in [CandidateOrder::Fixed, CandidateOrder::LocalRandom] {
            let proposals: Vec<Vec<u8>> =
                (0..4).map(|i| format!("value-{i}").into_bytes()).collect();
            let mut instances = fresh(&ctxs, &format!("vba-{order:?}"), order);
            run(&mut instances, &proposals, ANY);
            let decisions: Vec<Vec<u8>> = instances
                .iter_mut()
                .map(|i| i.take_decision().expect("decided"))
                .collect();
            assert!(
                decisions.windows(2).all(|w| w[0] == w[1]),
                "disagreement with {order:?}"
            );
            assert!(proposals.contains(&decisions[0]), "external validity");
        }
    }

    #[test]
    fn identical_proposals_decide_that_value() {
        let ctxs = group(4, 1);
        let proposals = vec![b"same".to_vec(); 4];
        let mut instances = fresh(&ctxs, "vba-same", CandidateOrder::LocalRandom);
        run(&mut instances, &proposals, ANY);
        for inst in instances.iter_mut() {
            assert_eq!(inst.take_decision().unwrap(), b"same");
        }
    }

    #[test]
    fn validator_excludes_invalid_values() {
        // Proposals must start with "ok:"; all honest proposals comply, so
        // whatever is decided must comply too.
        let ctxs = group(4, 1);
        let mut instances = fresh(&ctxs, "vba-validated", CandidateOrder::Fixed);
        let proposals: Vec<Vec<u8>> = (0..4).map(|i| format!("ok:{i}").into_bytes()).collect();
        run(&mut instances, &proposals, &|v| v.starts_with(b"ok:"));
        for inst in instances.iter_mut() {
            let d = inst.take_decision().unwrap();
            assert!(d.starts_with(b"ok:"));
        }
    }

    #[test]
    fn permutation_is_common_and_varies_by_pid() {
        let ctxs = group(4, 1);
        let a = MultiValuedAgreement::new(
            ProtocolId::new("instance-a"),
            ctxs[0].clone(),
            CandidateOrder::LocalRandom,
        );
        let a2 = MultiValuedAgreement::new(
            ProtocolId::new("instance-a"),
            ctxs[1].clone(),
            CandidateOrder::LocalRandom,
        );
        assert_eq!(a.permutation(), a2.permutation(), "same pid, same order");
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..20 {
            let b = MultiValuedAgreement::new(
                ProtocolId::new(format!("instance-{i}")),
                ctxs[0].clone(),
                CandidateOrder::LocalRandom,
            );
            let p = b.permutation().expect("local-random is immediate").to_vec();
            assert_eq!(p.len(), 4);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "valid permutation");
            seen.insert(p);
        }
        assert!(seen.len() > 1, "permutations vary across instances");
        // CommonCoin instances have no permutation until the coin opens.
        let c = MultiValuedAgreement::new(
            ProtocolId::new("coin-instance"),
            ctxs[0].clone(),
            CandidateOrder::CommonCoin,
        );
        assert!(c.permutation().is_none());
    }

    #[test]
    fn common_coin_order_agrees() {
        let ctxs = group(4, 1);
        let proposals: Vec<Vec<u8>> = (0..4).map(|i| format!("cc-{i}").into_bytes()).collect();
        let mut instances = fresh(&ctxs, "vba-commoncoin", CandidateOrder::CommonCoin);
        run(&mut instances, &proposals, ANY);
        let decisions: Vec<Vec<u8>> = instances
            .iter_mut()
            .map(|i| i.take_decision().expect("decided"))
            .collect();
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
        assert!(proposals.contains(&decisions[0]));
        // All parties derived the same coin-based permutation.
        let perms: Vec<_> = instances
            .iter()
            .map(|i| i.permutation().map(<[usize]>::to_vec))
            .collect();
        assert!(perms[0].is_some());
        assert!(perms.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    #[should_panic(expected = "propose may be executed once")]
    fn double_propose_panics() {
        let ctxs = group(4, 1);
        let mut inst = MultiValuedAgreement::new(
            ProtocolId::new("vba-double"),
            ctxs[0].clone(),
            CandidateOrder::Fixed,
        );
        let mut out = Outgoing::new();
        inst.propose(ANY, b"a".to_vec(), &mut out);
        inst.propose(ANY, b"b".to_vec(), &mut out);
    }
}
