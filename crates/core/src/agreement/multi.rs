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
//!    information (the protocol id), so known when the instance is built.
//!    For each candidate `P_a`:
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

use std::collections::{BTreeMap, BTreeSet};

use sintra_crypto::hash::Sha256;
use sintra_telemetry::{SnapshotWriter, StateSnapshot, TraceEvent};

use crate::agreement::BinaryAgreement;
use crate::broadcast::VerifiableConsistentBroadcast;
use crate::config::GroupContext;
use crate::ids::{PartyId, ProtocolId};
use crate::invariant::OrInvariant;
use crate::message::Body;
use crate::outgoing::Outgoing;

/// How the candidate permutation `Π` is chosen: the two orders of the
/// paper's §2.4 that SINTRA implemented. Either is known when an instance
/// is built. (The third variation, an order drawn from the threshold coin,
/// needs a vote-commitment step for its constant-expected-rounds bound and
/// is not provided.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateOrder {
    /// Candidates examined in index order `0, 1, ..., n-1`.
    Fixed,
    /// A pseudorandom permutation derived from the protocol id — the same
    /// for all parties, balancing load across senders between instances.
    #[default]
    LocalRandom,
}

/// A multi-valued agreement instance.
#[derive(Debug)]
pub struct MultiValuedAgreement {
    pid: ProtocolId,
    ctx: GroupContext,
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
    /// Per iteration, the parties whose proper vote (yes with a valid
    /// closing, or no) counted.
    votes: BTreeMap<u32, BTreeSet<PartyId>>,
    /// Binary agreement per iteration, created lazily.
    bas: BTreeMap<u32, BinaryAgreement>,
    /// The candidate permutation.
    perm: Vec<usize>,
    decided: Option<Vec<u8>>,
    decision_taken: bool,
}

/// The external validity predicate, supplied by the instance's owner on
/// each call so that it can see the owner's state: what the owner already
/// holds needs no second check.
type Valid<'a> = &'a dyn Fn(&[u8]) -> bool;

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
            CandidateOrder::Fixed => (0..n).collect(),
            CandidateOrder::LocalRandom => {
                // Seeded by a hash of the pid: common to all parties,
                // different across instances.
                let seed = Sha256::digest(pid.as_bytes());
                seeded_permutation(
                    n,
                    u64::from_be_bytes(
                        seed[..8]
                            .try_into()
                            .or_invariant("digest shorter than 8 bytes"),
                    ),
                )
            }
        };
        MultiValuedAgreement {
            pid,
            ctx,
            broadcasts,
            proposals: vec![None; n],
            closings: vec![None; n],
            valid_count: 0,
            proposed: false,
            iteration: None,
            votes: BTreeMap::new(),
            bas: BTreeMap::new(),
            perm,
            decided: None,
            decision_taken: false,
        }
    }

    /// The instance identifier.
    pub fn pid(&self) -> &ProtocolId {
        &self.pid
    }

    /// The candidate permutation.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
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
            if let Body::VbaVote {
                iteration,
                yes,
                closing,
            } = body
            {
                self.on_vote(valid, from, *iteration, *yes, closing.as_deref());
            }
        } else if let Some(bc) = self
            .broadcasts
            .iter_mut()
            .find(|bc| msg_pid.is_self_or_descendant_of(bc.pid()))
        {
            bc.handle(from, body, out);
        } else if let Some(iteration) = Self::parse_ba_child(&self.pid, msg_pid) {
            // Binary agreement children: pid = {pid}/ba/{iter}.
            self.with_ba(valid, iteration, |ba, valid| {
                ba.handle(valid, from, body, out)
            });
            self.try_advance(valid, out);
            return;
        }
        self.harvest_broadcasts(valid);
        self.try_advance(valid, out);
    }

    fn parse_ba_child(parent: &ProtocolId, msg_pid: &ProtocolId) -> Option<u32> {
        let rest = msg_pid.as_str().strip_prefix(parent.as_str())?;
        let rest = rest.strip_prefix("/ba/")?;
        rest.parse().ok()
    }

    /// The candidate examined in `iteration`.
    fn candidate(&self, iteration: u32) -> usize {
        self.perm[iteration as usize % self.perm.len()]
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
        let voted = |voters: &BTreeSet<PartyId>| voters.contains(&from);
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
        self.votes.entry(iteration).or_default().insert(from);
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
        let mut iteration = match self.iteration {
            Some(iteration) => iteration,
            // Gate: n - t validated proposals before the loop starts.
            None if self.valid_count >= self.ctx.n_minus_t() => {
                self.enter(0, out);
                0
            }
            None => return,
        };
        loop {
            let candidate = self.candidate(iteration);

            // Step 2b: n - t proper votes gate the binary agreement.
            let proper = self.votes.get(&iteration).map_or(0, BTreeSet::len);
            let quorum = self.ctx.n_minus_t();
            let ba_started = self
                .bas
                .get(&iteration)
                .map(|ba| ba.round() > 0)
                .unwrap_or(false);
            if proper >= quorum && !ba_started {
                // Step 2c: propose 1 iff we hold the candidate's proposal.
                let proof = self.held_closing(candidate);
                self.with_ba(valid, iteration, |ba, valid| {
                    ba.propose(valid, proof.is_some(), proof.unwrap_or_default(), out)
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
            iteration += 1;
            self.enter(iteration, out);
        }
    }

    /// The candidate's closing if its valid proposal is held: the proof
    /// of a yes-vote and the validation data for proposing 1.
    fn held_closing(&self, candidate: usize) -> Option<Vec<u8>> {
        let held = matches!(&self.proposals[candidate], Some(Some(_)));
        self.closings[candidate].clone().filter(|_| held)
    }

    /// Moves the loop to `iteration` and sends this party's vote on its
    /// candidate (step 2a).
    fn enter(&mut self, iteration: u32, out: &mut Outgoing) {
        self.iteration = Some(iteration);
        out.trace_with(|| {
            TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "vba")
                .phase("round")
                .round(u64::from(iteration))
        });
        let closing = self.held_closing(self.candidate(iteration));
        out.send_all(
            &self.pid,
            Body::VbaVote {
                iteration,
                yes: closing.is_some(),
                closing,
            },
        );
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
            .map_or(0, BTreeSet::len);
        let mut w = SnapshotWriter::new(self.pid.as_str(), "vba")
            .flag("proposed", self.proposed)
            .flag("loop_started", self.iteration.is_some())
            .num("iteration", iteration)
            .nums("candidates", candidates)
            .num("valid_proposals", self.valid_count as u64)
            .num("proposal_quorum", self.ctx.n_minus_t() as u64)
            .num("proper_votes", current_votes as u64)
            .num("vote_quorum", self.ctx.n_minus_t() as u64)
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
    use crate::pump::{Choice, Pump};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sintra_crypto::dealer::{deal, DealerConfig};
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
        let mut pump = Pump::new(instances.len(), Choice::Fifo);
        for (i, inst) in instances.iter_mut().enumerate() {
            let mut out = Outgoing::new();
            inst.propose(valid, proposals[i].clone(), &mut out);
            pump.push(i, &mut out);
        }
        pump.run(
            instances,
            |inst, from, env, out| inst.handle(valid, from, &env.pid, &env.body, out),
            2_000_000,
        )
        .expect("MVBA did not terminate");
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
            let p = b.permutation().to_vec();
            assert_eq!(p.len(), 4);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "valid permutation");
            seen.insert(p);
        }
        assert!(seen.len() > 1, "permutations vary across instances");
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
