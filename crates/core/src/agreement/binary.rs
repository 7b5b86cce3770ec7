//! Randomized binary Byzantine agreement (Cachin–Kursawe–Shoup).
//!
//! Each round has three exchanges (paper §2.3):
//!
//! 1. **Pre-vote**: every party relays its current preference, justified
//!    by evidence from the previous round, together with a threshold-
//!    signature share on the pre-vote statement.
//! 2. **Main-vote**: based on `n - t` pre-votes a party votes the
//!    unanimous bit (justified by the assembled threshold signature on the
//!    pre-vote statement) or *abstain* (justified by exhibiting justified
//!    pre-votes for both bits), with a share on the main-vote statement.
//! 3. **Decision / coin**: `n - t` unanimous main-votes decide; otherwise
//!    the party releases its share of the round's threshold coin, and the
//!    coin (or an observed main-vote value) becomes the new preference.
//!
//! A decision is announced with its justification (the threshold signature
//! on the unanimous main-vote statement), letting every party decide on
//! receipt — this subsumes the "run one extra round" termination device of
//! the original protocol.
//!
//! The *validated* variant attaches external validation data to round-1
//! pre-votes; the *biased* variant fixes the round-1 coin to the bias so
//! the protocol always decides the preferred value when an honest party
//! proposed it.

use std::collections::BTreeMap;

use sintra_crypto::coin::CoinShare;
use sintra_crypto::thsig::{SigShare, ThresholdSignature};
use sintra_telemetry::{SnapshotWriter, StateSnapshot, TraceEvent};

use crate::checked::{Checked, Thsig, Unchecked};
use crate::config::GroupContext;
use crate::ids::{PartyId, ProtocolId};
use crate::invariant::OrInvariant;
use crate::message::{
    coin_name, statement_main_vote, statement_pre_vote, Body, MainVote, MainVoteJust, PreVoteJust,
};
use crate::outgoing::Outgoing;

/// Which exchange of the current round this party is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Waiting for `propose`.
    Idle,
    /// Pre-vote sent; collecting pre-votes.
    CollectingPreVotes,
    /// Main-vote sent; collecting main-votes.
    CollectingMainVotes,
    /// Coin share released; collecting coin shares.
    CollectingCoin,
    /// Decided; the instance is quiescent.
    Done,
}

/// A pre-vote justification whose signature and coin shares this party
/// has checked or assembled: what it keeps as abstain evidence and sends
/// with its own pre-votes.
#[derive(Debug, Clone)]
enum Justified {
    Initial,
    Hard(Checked<ThresholdSignature>),
    Soft {
        sig: Checked<ThresholdSignature>,
        coin_shares: Vec<Checked<CoinShare>>,
    },
}

impl Justified {
    /// The threshold signature the justification rests on.
    fn sig(&self) -> Option<&Checked<ThresholdSignature>> {
        match self {
            Justified::Initial => None,
            Justified::Hard(sig) | Justified::Soft { sig, .. } => Some(sig),
        }
    }
}

/// The external validity predicate, supplied by the instance's owner on
/// each call so that it can see the owner's state: what the owner already
/// holds needs no second check.
type Valid<'a> = &'a dyn Fn(bool, &[u8]) -> bool;

/// Validation data that has just passed the validator for its bit.
struct ValidProof<'a>(&'a [u8]);

impl From<Justified> for PreVoteJust {
    fn from(just: Justified) -> Self {
        match just {
            Justified::Initial => PreVoteJust::Initial,
            Justified::Hard(sig) => PreVoteJust::Hard(sig.forget()),
            Justified::Soft { sig, coin_shares } => PreVoteJust::Soft {
                sig: sig.forget(),
                coin_shares: coin_shares.into_iter().map(Checked::forget).collect(),
            },
        }
    }
}

#[derive(Debug, Default)]
struct RoundState {
    /// Accepted pre-votes: party -> (value, signature share).
    pre_votes: BTreeMap<PartyId, (bool, Checked<SigShare>)>,
    /// This party's own vote shares of the round, as it sent them: what
    /// comes back from its broadcasts.
    sent: Vec<Checked<SigShare>>,
    /// First accepted pre-vote justification per bit, with the
    /// validation data this party holds for the bit: abstain evidence.
    pre_just: [Option<(Justified, Option<Vec<u8>>)>; 2],
    /// Whether the pre-vote quorum has already been evaluated.
    pre_evaluated: bool,
    /// Accepted main-votes: party -> (vote, share).
    main_votes: BTreeMap<PartyId, (MainVote, Checked<SigShare>)>,
    /// First accepted value main-vote justification: the threshold
    /// signature on `pre(pid, round, b)`, reusable as the hard pre-vote
    /// justification for the next round.
    value_just: Option<(bool, Checked<ThresholdSignature>)>,
    main_evaluated: bool,
    /// Verified coin shares by holder index.
    coin_shares: BTreeMap<usize, Checked<CoinShare>>,
    /// The quarantine: received but not yet verified coin shares, keyed
    /// by *sender* so a forged share cannot displace an honest party's
    /// (bounded by `n` per round). Verification is deferred and batched:
    /// one combined DLEQ check replaces per-share checks once enough
    /// shares are queued to flip the coin.
    pending_coin: BTreeMap<PartyId, Unchecked<CoinShare>>,
}

/// A binary Byzantine agreement instance.
///
/// Construct with [`BinaryAgreement::new`] (plain), or configure
/// [validation](BinaryAgreement::validated) and
/// [bias](BinaryAgreement::with_bias) before proposing.
#[derive(Debug)]
pub struct BinaryAgreement {
    pid: ProtocolId,
    ctx: GroupContext,
    validated: bool,
    bias: Option<bool>,
    round: u32,
    stage: Stage,
    preference: bool,
    next_just: Justified,
    rounds: BTreeMap<u32, RoundState>,
    /// Cached external validation data per bit.
    proofs: [Option<Vec<u8>>; 2],
    decided: Option<(bool, Option<Vec<u8>>)>,
    decision_taken: bool,
}

impl BinaryAgreement {
    /// Creates a plain (non-validated, unbiased) instance.
    pub fn new(pid: ProtocolId, ctx: GroupContext) -> Self {
        BinaryAgreement {
            pid,
            ctx,
            validated: false,
            bias: None,
            round: 0,
            stage: Stage::Idle,
            preference: false,
            next_just: Justified::Initial,
            rounds: BTreeMap::new(),
            proofs: [None, None],
            decided: None,
            decision_taken: false,
        }
    }

    /// Enables external validity: validation data travels with the votes
    /// and is judged by the predicate each call passes.
    pub fn validated(mut self) -> Self {
        self.validated = true;
        self
    }

    /// Biases the agreement toward `bias` (the round-1 coin is fixed).
    pub fn with_bias(mut self, bias: bool) -> Self {
        self.bias = Some(bias);
        self
    }

    /// The instance identifier.
    pub fn pid(&self) -> &ProtocolId {
        &self.pid
    }

    /// The current round (0 before `propose`).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Starts the instance with this party's proposal. For validated
    /// agreement, `proof` must satisfy `valid` for `value`; a plain
    /// instance never calls `valid`.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or if the proposal fails validation.
    pub fn propose(&mut self, valid: Valid, value: bool, proof: Vec<u8>, out: &mut Outgoing) {
        if self.stage == Stage::Done {
            // A valid decide message arrived before we proposed (possible
            // after partitions): the decision stands, our proposal is moot.
            return;
        }
        assert_eq!(self.stage, Stage::Idle, "propose may be executed once");
        assert!(
            !self.validated || valid(value, &proof),
            "own proposal must satisfy the validator"
        );
        if self.validated {
            self.proofs[value as usize] = Some(proof);
        }
        self.preference = value;
        self.next_just = Justified::Initial;
        self.round = 1;
        self.send_pre_vote(out);
    }

    /// Takes the decision `(value, proof)`, once.
    pub fn take_decision(&mut self) -> Option<(bool, Option<Vec<u8>>)> {
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
    pub fn decision(&self) -> Option<bool> {
        self.decided.as_ref().map(|(v, _)| *v)
    }

    /// Read-only view of the decision's validation data.
    pub fn decision_proof(&self) -> Option<&[u8]> {
        self.decided.as_ref().and_then(|(_, p)| p.as_deref())
    }

    fn quorum(&self) -> usize {
        self.ctx.n_minus_t()
    }

    fn send_pre_vote(&mut self, out: &mut Outgoing) {
        out.trace_with(|| {
            TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "abba")
                .phase("round")
                .round(self.round as u64)
        });
        let statement = statement_pre_vote(&self.pid, self.round, self.preference);
        let share = self.ctx.sign_share(Thsig::Agreement, &statement);
        let state = self.rounds.entry(self.round).or_default();
        state.sent.push(share.clone());
        let proof = if self.validated {
            self.proofs[self.preference as usize].clone()
        } else {
            None
        };
        out.send_all(
            &self.pid,
            Body::BaPreVote {
                round: self.round,
                value: self.preference,
                just: self.next_just.clone().into(),
                share: share.forget(),
                proof,
            },
        );
        self.stage = Stage::CollectingPreVotes;
        self.try_advance(out);
    }

    /// Processes a protocol message from `from`, judging validation data
    /// with `valid` (see [`Self::propose`]).
    pub fn handle(&mut self, valid: Valid, from: PartyId, body: &Body, out: &mut Outgoing) {
        if self.stage == Stage::Done || !self.ctx.is_valid_party(from) {
            return;
        }
        match body {
            Body::BaPreVote {
                round,
                value,
                just,
                share,
                proof,
            } => self.on_pre_vote(valid, from, *round, *value, just, share, proof.as_deref()),
            Body::BaMainVote {
                round,
                vote,
                just,
                share,
                proof,
            } => self.on_main_vote(valid, from, *round, *vote, just, share, proof.as_deref()),
            Body::BaCoinShare { round, share } => self.on_coin_share(from, *round, share),
            Body::BaDecide {
                round,
                value,
                sig,
                proof,
            } => self.on_decide(valid, *round, *value, sig, proof.as_deref(), out),
            _ => return,
        }
        self.try_advance(out);
    }

    /// `proof` if this party holds no validation data for `value` yet and
    /// the validator accepts it; what it holds is not evaluated again.
    fn fresh_proof<'p>(
        &self,
        valid: Valid,
        value: bool,
        proof: Option<&'p [u8]>,
    ) -> Option<ValidProof<'p>> {
        if !self.validated || self.proofs[value as usize].is_some() {
            return None;
        }
        proof.filter(|p| valid(value, p)).map(ValidProof)
    }

    /// Caches externally validated proof data for a bit, on behalf of a
    /// message whose share or signature checked out: an unverified sender
    /// must not seed the proof cache.
    fn note_proof<W>(&mut self, _checked: &Checked<W>, value: bool, proof: Option<ValidProof>) {
        let held = &mut self.proofs[value as usize];
        if let (None, Some(ValidProof(proof))) = (&held, proof) {
            *held = Some(proof.to_vec());
        }
    }

    /// A threshold signature on a vote statement of `round`, checked but
    /// for what this party holds: compared whole with the justifications
    /// it accepted or assembled for that round's votes, then component by
    /// component with that round's vote shares. What each of those stands
    /// under is compared with `statement`, so all of them are offered.
    fn check_round_sig(
        &self,
        round: u32,
        statement: &[u8],
        sig: &Unchecked<ThresholdSignature>,
    ) -> Option<Checked<ThresholdSignature>> {
        let state = self.rounds.get(&round);
        let next = self.rounds.get(&(round + 1));
        let adopted = state.and_then(|s| s.value_just.as_ref());
        let carried = next.into_iter().flat_map(|s| s.pre_just.iter().flatten());
        let sigs = adopted
            .map(|(_, sig)| sig)
            .into_iter()
            .chain(carried.filter_map(|(just, _)| just.sig()))
            .chain(self.next_just.sig());
        let shares = state.into_iter().flat_map(|s| {
            let pre = s.pre_votes.values().map(|(_, share)| share);
            pre.chain(s.main_votes.values().map(|(_, share)| share))
        });
        self.ctx
            .check_sig_holding(Thsig::Agreement, statement, sig, sigs, shares)
    }

    /// Checks a pre-vote justification for `(round, value)`, yielding it
    /// with what it carried checked, and the accompanying external
    /// validation data `proof` if the justification rested on it.
    fn pre_vote_justified<'p>(
        &self,
        valid: Valid,
        round: u32,
        value: bool,
        just: &PreVoteJust,
        proof: Option<&'p [u8]>,
    ) -> Option<(Justified, Option<ValidProof<'p>>)> {
        match just {
            PreVoteJust::Initial => {
                if round != 1 {
                    return None;
                }
                // Validated: either we know a valid proof, or the message
                // carries one.
                if !self.validated || self.proofs[value as usize].is_some() {
                    return Some((Justified::Initial, None));
                }
                let fresh = self.fresh_proof(valid, value, proof)?;
                Some((Justified::Initial, Some(fresh)))
            }
            PreVoteJust::Hard(sig) => {
                if round <= 1 {
                    return None;
                }
                let statement = statement_pre_vote(&self.pid, round - 1, value);
                let sig = self.check_round_sig(round - 1, &statement, sig)?;
                Some((Justified::Hard(sig), None))
            }
            PreVoteJust::Soft { sig, coin_shares } => {
                if round <= 1 {
                    return None;
                }
                let statement = statement_main_vote(&self.pid, round - 1, MainVote::Abstain);
                let sig = self.check_round_sig(round - 1, &statement, sig)?;
                let (coin, coin_shares) = self.coin_value_from_shares(round - 1, coin_shares)?;
                (coin == value).then_some((Justified::Soft { sig, coin_shares }, None))
            }
        }
    }

    /// The round's coin value as proven by `shares`, with the shares that
    /// prove it (or the bias for a biased round 1, where none are needed).
    fn coin_value_from_shares(
        &self,
        round: u32,
        shares: &[Unchecked<CoinShare>],
    ) -> Option<(bool, Vec<Checked<CoinShare>>)> {
        if round == 1 {
            if let Some(b) = self.bias {
                return Some((b, Vec::new()));
            }
        }
        self.ctx.open_coin(&coin_name(&self.pid, round), shares)
    }

    /// This party's own share of `round`, which a share coming back from
    /// its broadcast equals.
    fn sent(&self, round: u32) -> impl Iterator<Item = &Checked<SigShare>> {
        self.rounds.get(&round).into_iter().flat_map(|s| &s.sent)
    }

    #[allow(clippy::too_many_arguments)]
    fn on_pre_vote(
        &mut self,
        valid: Valid,
        from: PartyId,
        round: u32,
        value: bool,
        just: &PreVoteJust,
        share: &Unchecked<SigShare>,
        proof: Option<&[u8]>,
    ) {
        if round == 0 || share.index != from.0 {
            return;
        }
        if self
            .rounds
            .get(&round)
            .is_some_and(|r| r.pre_votes.contains_key(&from))
        {
            return;
        }
        let Some((just, fresh)) = self.pre_vote_justified(valid, round, value, just, proof) else {
            return;
        };
        let statement = statement_pre_vote(&self.pid, round, value);
        let Some(share) =
            self.ctx
                .check_share_holding(Thsig::Agreement, &statement, share, self.sent(round))
        else {
            return;
        };
        let fresh = fresh.or_else(|| self.fresh_proof(valid, value, proof));
        self.note_proof(&share, value, fresh);
        // Abstain evidence carries the data this party validated, not
        // what the first pre-voter sent along: an `Initial` pre-vote is
        // accepted on the held data whatever it carried.
        let held = self.proofs[value as usize].clone();
        let state = self.rounds.entry(round).or_default();
        state.pre_votes.insert(from, (value, share));
        if state.pre_just[value as usize].is_none() {
            state.pre_just[value as usize] = Some((just, held));
        }
    }

    /// Checks a main-vote justification: `None` if it does not hold,
    /// otherwise the checked signature on the round's pre-vote statement
    /// that a value vote carried.
    fn main_vote_justified(
        &self,
        valid: Valid,
        round: u32,
        vote: MainVote,
        just: &MainVoteJust,
    ) -> Option<Option<Checked<ThresholdSignature>>> {
        match (vote, just) {
            (MainVote::Value(b), MainVoteJust::Value(sig)) => {
                let statement = statement_pre_vote(&self.pid, round, b);
                let sig = self.check_round_sig(round, &statement, sig)?;
                Some(Some(sig))
            }
            (
                MainVote::Abstain,
                MainVoteJust::Abstain {
                    just0,
                    just1,
                    proof0,
                    proof1,
                },
            ) => {
                self.pre_vote_justified(valid, round, false, just0, proof0.as_deref())?;
                self.pre_vote_justified(valid, round, true, just1, proof1.as_deref())?;
                Some(None)
            }
            _ => None,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_main_vote(
        &mut self,
        valid: Valid,
        from: PartyId,
        round: u32,
        vote: MainVote,
        just: &MainVoteJust,
        share: &Unchecked<SigShare>,
        proof: Option<&[u8]>,
    ) {
        if round == 0 || share.index != from.0 {
            return;
        }
        if self
            .rounds
            .get(&round)
            .is_some_and(|r| r.main_votes.contains_key(&from))
        {
            return;
        }
        let Some(value_sig) = self.main_vote_justified(valid, round, vote, just) else {
            return;
        };
        let statement = statement_main_vote(&self.pid, round, vote);
        let Some(share) =
            self.ctx
                .check_share_holding(Thsig::Agreement, &statement, share, self.sent(round))
        else {
            return;
        };
        if let MainVote::Value(b) = vote {
            let fresh = self.fresh_proof(valid, b, proof);
            self.note_proof(&share, b, fresh);
        }
        let state = self.rounds.entry(round).or_default();
        state.main_votes.insert(from, (vote, share));
        if state.value_just.is_none() {
            if let (MainVote::Value(b), Some(sig)) = (vote, value_sig) {
                state.value_just = Some((b, sig));
            }
        }
    }

    fn on_coin_share(&mut self, from: PartyId, round: u32, share: &Unchecked<CoinShare>) {
        if round == 0 || share.index >= self.ctx.keys().common.coin.public_key().n {
            return;
        }
        // No crypto here: the share is only queued. The expensive DLEQ
        // checks run as one batched verification in `try_advance` once a
        // quorum's worth of shares has accumulated.
        let state = self.rounds.entry(round).or_default();
        if state.coin_shares.contains_key(&share.index) {
            return;
        }
        state.pending_coin.insert(from, share.clone());
    }

    /// Batch-verifies any queued coin shares for `round`, promoting valid
    /// ones into `coin_shares` and discarding the rest.
    fn flush_pending_coin(&mut self, round: u32) {
        let Some(state) = self.rounds.get_mut(&round) else {
            return;
        };
        if state.pending_coin.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut state.pending_coin).into_values();
        let name = coin_name(&self.pid, round);
        for share in self.ctx.check_coin_shares(&name, pending) {
            state.coin_shares.entry(share.index).or_insert(share);
        }
    }

    fn on_decide(
        &mut self,
        valid: Valid,
        round: u32,
        value: bool,
        sig: &Unchecked<ThresholdSignature>,
        proof: Option<&[u8]>,
        out: &mut Outgoing,
    ) {
        if self.decided.is_some() || round == 0 {
            return;
        }
        let statement = statement_main_vote(&self.pid, round, MainVote::Value(value));
        let Some(sig) = self.check_round_sig(round, &statement, sig) else {
            return;
        };
        let fresh = self.fresh_proof(valid, value, proof);
        self.note_proof(&sig, value, fresh);
        // In validated mode we must be able to hand the application the
        // validation data for the decision. An honest decider always
        // attaches it; a decide message without usable data (only possible
        // from a corrupted party) is ignored rather than letting it strand
        // callers that need the proof.
        if self.validated && self.proofs[value as usize].is_none() {
            return;
        }
        self.finish(value, round, sig, out);
    }

    fn finish(
        &mut self,
        value: bool,
        round: u32,
        sig: Checked<ThresholdSignature>,
        out: &mut Outgoing,
    ) {
        let proof = if self.validated {
            self.proofs[value as usize].clone()
        } else {
            None
        };
        // Re-announce so every party terminates even if the original
        // decider's message is the only copy in flight.
        out.send_all(
            &self.pid,
            Body::BaDecide {
                round,
                value,
                sig: sig.forget(),
                proof: proof.clone(),
            },
        );
        self.decided = Some((value, proof));
        self.stage = Stage::Done;
        out.trace_with(|| {
            TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "abba")
                .phase("decide")
                .round(round as u64)
                .bytes(value as u64)
        });
    }

    /// Drives the round state machine after any mutation.
    fn try_advance(&mut self, out: &mut Outgoing) {
        loop {
            match self.stage {
                Stage::Idle | Stage::Done => return,
                Stage::CollectingPreVotes => {
                    let round = self.round;
                    let quorum = self.quorum();
                    let Some(state) = self.rounds.get_mut(&round) else {
                        return;
                    };
                    if state.pre_evaluated || state.pre_votes.len() < quorum {
                        return;
                    }
                    state.pre_evaluated = true;
                    // Evaluate the first quorum of accepted pre-votes.
                    let votes: Vec<(bool, Checked<SigShare>)> =
                        state.pre_votes.values().cloned().collect();
                    let ones = votes.iter().filter(|(v, _)| *v).count();
                    let (vote, just, proof) = if ones >= quorum || ones == 0 {
                        let b = ones > 0;
                        let shares = votes.iter().filter(|(v, _)| *v == b).map(|(_, s)| s);
                        let statement = statement_pre_vote(&self.pid, round, b);
                        match self.ctx.assemble_sig(Thsig::Agreement, &statement, shares) {
                            Some(sig) => (
                                MainVote::Value(b),
                                MainVoteJust::Value(sig.forget()),
                                self.proofs[b as usize].clone(),
                            ),
                            // A share that verified individually but fails
                            // assembly indicates an internal inconsistency;
                            // abstaining keeps us safe and live.
                            None => match self.abstain_just(round) {
                                Some(j) => (MainVote::Abstain, j, None),
                                None => return,
                            },
                        }
                    } else {
                        match self.abstain_just(round) {
                            Some(j) => (MainVote::Abstain, j, None),
                            None => return,
                        }
                    };
                    let statement = statement_main_vote(&self.pid, round, vote);
                    let share = self.ctx.sign_share(Thsig::Agreement, &statement);
                    self.rounds
                        .entry(round)
                        .or_default()
                        .sent
                        .push(share.clone());
                    out.send_all(
                        &self.pid,
                        Body::BaMainVote {
                            round,
                            vote,
                            just,
                            share: share.forget(),
                            proof,
                        },
                    );
                    self.stage = Stage::CollectingMainVotes;
                }
                Stage::CollectingMainVotes => {
                    let round = self.round;
                    let quorum = self.quorum();
                    let Some(state) = self.rounds.get_mut(&round) else {
                        return;
                    };
                    if state.main_evaluated || state.main_votes.len() < quorum {
                        return;
                    }
                    state.main_evaluated = true;
                    let votes: Vec<(MainVote, Checked<SigShare>)> =
                        state.main_votes.values().cloned().collect();
                    let value_vote = votes.iter().find_map(|(v, _)| match v {
                        MainVote::Value(b) => Some(*b),
                        MainVote::Abstain => None,
                    });
                    let unanimous = value_vote
                        .is_some_and(|b| votes.iter().all(|(v, _)| *v == MainVote::Value(b)));
                    if let (true, Some(b)) = (unanimous, value_vote) {
                        // Decide: assemble the justification.
                        let shares = votes.iter().map(|(_, s)| s);
                        let statement = statement_main_vote(&self.pid, round, MainVote::Value(b));
                        if let Some(sig) =
                            self.ctx.assemble_sig(Thsig::Agreement, &statement, shares)
                        {
                            self.finish(b, round, sig, out);
                            return;
                        }
                    }
                    // Not decided: release our coin share (others may need
                    // the coin even if we adopt a value).
                    let name = coin_name(&self.pid, round);
                    let skip_coin = round == 1 && self.bias.is_some();
                    if !skip_coin {
                        let share = self.ctx.release_coin_share(&name);
                        // Record our own share locally too.
                        self.rounds
                            .entry(round)
                            .or_default()
                            .coin_shares
                            .insert(share.index, share.clone());
                        let share = share.forget();
                        out.send_all(&self.pid, Body::BaCoinShare { round, share });
                        out.trace_with(|| {
                            TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "abba")
                                .phase("coin")
                                .round(round as u64)
                        });
                    }
                    if let Some(b) = value_vote {
                        // Adopt the observed value; the accepted main-vote's
                        // justification (a threshold signature on the
                        // round's pre-vote statement for b) doubles as the
                        // hard pre-vote justification for the next round.
                        let sig = self.hard_justification(round, b);
                        match sig {
                            Some(sig) => {
                                self.preference = b;
                                self.next_just = Justified::Hard(sig);
                                self.round += 1;
                                self.send_pre_vote(out);
                            }
                            None => {
                                // Fall back to the coin path; we cannot
                                // justify adopting b without its signature.
                                self.stage = Stage::CollectingCoin;
                            }
                        }
                    } else {
                        self.stage = Stage::CollectingCoin;
                    }
                }
                Stage::CollectingCoin => {
                    let round = self.round;
                    let coin_k = self.ctx.keys().common.coin.threshold();
                    let biased_round1 = round == 1 && self.bias.is_some();
                    let (coin, shares_used) = if biased_round1 {
                        (
                            self.bias.or_invariant("biased round without a bias value"),
                            Vec::new(),
                        )
                    } else {
                        let Some(state) = self.rounds.get(&round) else {
                            return;
                        };
                        // Cheap count first: only run the (batched) share
                        // verification once a quorum could be present.
                        if state.coin_shares.len() + state.pending_coin.len() < coin_k {
                            return;
                        }
                        self.flush_pending_coin(round);
                        let Some(state) = self.rounds.get(&round) else {
                            return;
                        };
                        if state.coin_shares.len() < coin_k {
                            return;
                        }
                        let shares = state.coin_shares.values();
                        match self.ctx.open_coin(&coin_name(&self.pid, round), shares) {
                            Some(opened) => opened,
                            None => return,
                        }
                    };
                    // Soft justification: threshold signature on the
                    // abstain main-vote statement.
                    let Some(state) = self.rounds.get(&round) else {
                        return;
                    };
                    let abstain_shares = state
                        .main_votes
                        .values()
                        .filter(|(v, _)| *v == MainVote::Abstain)
                        .map(|(_, s)| s);
                    let statement = statement_main_vote(&self.pid, round, MainVote::Abstain);
                    let Some(sig) =
                        self.ctx
                            .assemble_sig(Thsig::Agreement, &statement, abstain_shares)
                    else {
                        // Not all main-votes were abstain: we got here via
                        // the fallback path; wait for more abstain shares
                        // or a hard justification to appear.
                        return;
                    };
                    self.preference = coin;
                    self.next_just = Justified::Soft {
                        sig,
                        coin_shares: shares_used,
                    };
                    self.round += 1;
                    self.send_pre_vote(out);
                }
            }
        }
    }

    /// A threshold signature on `pre(pid, round, b)`: taken from an
    /// accepted value main-vote's justification, or assembled from our own
    /// accepted pre-vote shares if we hold a quorum for `b`.
    fn hard_justification(&self, round: u32, b: bool) -> Option<Checked<ThresholdSignature>> {
        let state = self.rounds.get(&round)?;
        if let Some((jb, sig)) = &state.value_just {
            if *jb == b {
                return Some(sig.clone());
            }
        }
        let shares = state
            .pre_votes
            .values()
            .filter(|(v, _)| *v == b)
            .map(|(_, s)| s);
        let statement = statement_pre_vote(&self.pid, round, b);
        self.ctx.assemble_sig(Thsig::Agreement, &statement, shares)
    }

    /// Abstain justification: justified pre-votes for both bits of `round`.
    fn abstain_just(&self, round: u32) -> Option<MainVoteJust> {
        let state = self.rounds.get(&round)?;
        let (just0, proof0) = state.pre_just[0].clone()?;
        let (just1, proof1) = state.pre_just[1].clone()?;
        Some(MainVoteJust::Abstain {
            just0: Box::new(just0.into()),
            just1: Box::new(just1.into()),
            proof0,
            proof1,
        })
    }
}

impl StateSnapshot for BinaryAgreement {
    fn has_pending_work(&self) -> bool {
        !matches!(self.stage, Stage::Idle | Stage::Done)
    }

    fn snapshot_json(&self) -> String {
        let stage = match self.stage {
            Stage::Idle => "idle",
            Stage::CollectingPreVotes => "collecting-pre-votes",
            Stage::CollectingMainVotes => "collecting-main-votes",
            Stage::CollectingCoin => "collecting-coin",
            Stage::Done => "done",
        };
        let state = self.rounds.get(&self.round);
        let w = SnapshotWriter::new(self.pid.as_str(), "abba")
            .num("round", self.round as u64)
            .text("stage", stage)
            .flag("preference", self.preference)
            .num("quorum", self.quorum() as u64)
            .num("pre_votes", state.map_or(0, |s| s.pre_votes.len()) as u64)
            .num("main_votes", state.map_or(0, |s| s.main_votes.len()) as u64)
            .num(
                "coin_shares",
                state.map_or(0, |s| s.coin_shares.len() + s.pending_coin.len()) as u64,
            )
            .flag(
                "value_justified",
                state.is_some_and(|s| s.value_just.is_some()),
            )
            .flag("decided", self.decided.is_some());
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

    /// The predicate a plain instance is passed, and never calls.
    const ANY: Valid<'static> = &|_, _| true;

    fn group(n: usize, t: usize) -> Vec<GroupContext> {
        let mut rng = StdRng::seed_from_u64(23);
        deal(&DealerConfig::small(n, t), &mut rng)
            .unwrap()
            .into_iter()
            .map(|k| GroupContext::new(Arc::new(k)))
            .collect()
    }

    /// Drives a full group of instances to quiescence, FIFO order.
    fn run(instances: &mut [BinaryAgreement], proposals: &[bool]) {
        run_with(instances, ANY, |i| (proposals[i], Vec::new()));
    }

    /// Has every instance propose what `propose` gives it and delivers
    /// FIFO to quiescence, checking proofs with `valid`.
    fn run_with(
        instances: &mut [BinaryAgreement],
        valid: Valid,
        propose: impl Fn(usize) -> (bool, Vec<u8>),
    ) {
        let mut pump = Pump::new(instances.len(), Choice::Fifo);
        for (i, inst) in instances.iter_mut().enumerate() {
            let (value, proof) = propose(i);
            let mut out = Outgoing::new();
            inst.propose(valid, value, proof, &mut out);
            pump.push(i, &mut out);
        }
        pump.run(
            instances,
            |inst, from, env, out| inst.handle(valid, from, &env.body, out),
            1_000_000,
        )
        .expect("agreement did not terminate");
    }

    fn fresh(ctxs: &[GroupContext], tag: &str) -> Vec<BinaryAgreement> {
        ctxs.iter()
            .map(|c| BinaryAgreement::new(ProtocolId::new(tag), c.clone()))
            .collect()
    }

    #[test]
    fn unanimous_proposals_decide_fast() {
        let ctxs = group(4, 1);
        for value in [false, true] {
            let mut instances = fresh(&ctxs, &format!("ba-unanimous-{value}"));
            run(&mut instances, &[value; 4]);
            for (i, inst) in instances.iter_mut().enumerate() {
                let (decided, _) = inst.take_decision().expect("decided");
                assert_eq!(decided, value, "party {i}");
            }
        }
    }

    #[test]
    fn mixed_proposals_agree() {
        let ctxs = group(4, 1);
        for (case, proposals) in [
            [true, false, true, false],
            [true, true, true, false],
            [false, false, false, true],
        ]
        .iter()
        .enumerate()
        {
            let mut instances = fresh(&ctxs, &format!("ba-mixed-{case}"));
            run(&mut instances, proposals);
            let decisions: Vec<bool> = instances
                .iter_mut()
                .map(|i| i.take_decision().expect("decided").0)
                .collect();
            assert!(
                decisions.windows(2).all(|w| w[0] == w[1]),
                "disagreement in case {case}: {decisions:?}"
            );
            // Validity: the decision was proposed by someone.
            assert!(proposals.contains(&decisions[0]));
        }
    }

    #[test]
    fn biased_agreement_prefers_bias() {
        let ctxs = group(4, 1);
        // One honest party proposes the bias; a biased protocol must
        // decide the bias value.
        let mut instances: Vec<BinaryAgreement> = ctxs
            .iter()
            .map(|c| BinaryAgreement::new(ProtocolId::new("ba-biased"), c.clone()).with_bias(true))
            .collect();
        run(&mut instances, &[true, false, false, false]);
        for inst in instances.iter_mut() {
            assert!(inst.take_decision().expect("decided").0);
        }
    }

    #[test]
    fn validated_agreement_returns_proof() {
        let ctxs = group(4, 1);
        let valid: Valid =
            &|value, proof| (value && proof == b"proof-of-1") || (!value && proof == b"proof-of-0");
        let mut instances: Vec<BinaryAgreement> = ctxs
            .iter()
            .map(|c| BinaryAgreement::new(ProtocolId::new("ba-validated"), c.clone()).validated())
            .collect();
        // All propose 1 with valid proofs.
        run_with(&mut instances, valid, |_| (true, b"proof-of-1".to_vec()));
        for inst in instances.iter_mut() {
            let (value, proof) = inst.take_decision().expect("decided");
            assert!(value);
            assert_eq!(proof.as_deref(), Some(&b"proof-of-1"[..]));
        }
    }

    #[test]
    #[should_panic(expected = "satisfy the validator")]
    fn invalid_own_proposal_rejected() {
        let ctxs = group(4, 1);
        let mut inst = BinaryAgreement::new(ProtocolId::new("ba"), ctxs[0].clone()).validated();
        inst.propose(
            &|_, proof| proof == b"ok",
            true,
            b"bad".to_vec(),
            &mut Outgoing::new(),
        );
    }

    #[test]
    fn forged_decide_rejected() {
        let ctxs = group(4, 1);
        let mut inst = BinaryAgreement::new(ProtocolId::new("ba-forge"), ctxs[0].clone());
        let mut out = Outgoing::new();
        inst.propose(ANY, false, Vec::new(), &mut out);
        inst.handle(
            ANY,
            PartyId(1),
            &Body::BaDecide {
                round: 1,
                value: true,
                sig: ThresholdSignature::Multi(vec![]).into(),
                proof: None,
            },
            &mut Outgoing::new(),
        );
        assert!(inst.decision().is_none());
    }

    #[test]
    fn pre_vote_share_verdicts() {
        let ctxs = group(4, 1);
        let pid = ProtocolId::new("ba-share");
        let mut inst = BinaryAgreement::new(pid.clone(), ctxs[0].clone());
        inst.propose(ANY, true, Vec::new(), &mut Outgoing::new());
        let share = ctxs[1]
            .sign_share(Thsig::Agreement, &statement_pre_vote(&pid, 1, true))
            .forget();
        let pre_vote = |value: bool| Body::BaPreVote {
            round: 1,
            value,
            just: PreVoteJust::Initial,
            share: share.clone(),
            proof: None,
        };
        let recorded = |inst: &BinaryAgreement, from: usize| {
            inst.rounds
                .get(&1)
                .is_some_and(|r| r.pre_votes.contains_key(&PartyId(from)))
        };
        // Party 1's share under party 2's name: index mismatch.
        inst.handle(ANY, PartyId(2), &pre_vote(true), &mut Outgoing::new());
        assert!(!recorded(&inst, 2));
        // The share transplanted onto the other value's statement.
        inst.handle(ANY, PartyId(1), &pre_vote(false), &mut Outgoing::new());
        assert!(!recorded(&inst, 1));
        inst.handle(ANY, PartyId(1), &pre_vote(true), &mut Outgoing::new());
        assert!(recorded(&inst, 1));
    }

    #[test]
    fn decide_statement_binds_main_vote() {
        let ctxs = group(4, 1);
        let pid = ProtocolId::new("ba-bind");
        let statement = statement_main_vote(&pid, 2, MainVote::Value(true));
        let shares: Vec<Checked<SigShare>> = ctxs
            .iter()
            .map(|c| c.sign_share(Thsig::Agreement, &statement))
            .collect();
        let sig = ctxs[0]
            .assemble_sig(Thsig::Agreement, &statement, &shares)
            .unwrap()
            .forget();
        let decide = |value: bool| Body::BaDecide {
            round: 2,
            value,
            sig: sig.clone(),
            proof: None,
        };
        let mut inst = BinaryAgreement::new(pid, ctxs[0].clone());
        inst.propose(ANY, false, Vec::new(), &mut Outgoing::new());
        inst.handle(ANY, PartyId(2), &decide(false), &mut Outgoing::new());
        assert_eq!(inst.decision(), None, "signature is over the other value");
        inst.handle(ANY, PartyId(2), &decide(true), &mut Outgoing::new());
        assert_eq!(inst.decision(), Some(true));
    }

    #[test]
    fn abstain_evidence_is_the_validated_proof_not_the_carried_one() {
        let ctxs = group(4, 1);
        let pid = ProtocolId::new("ba-evidence");
        let valid: Valid = &|value, proof| proof == if value { &b"one"[..] } else { &b"zero"[..] };
        let instance = |at: usize| BinaryAgreement::new(pid.clone(), ctxs[at].clone()).validated();
        let pre_vote = |from: usize, value: bool, proof: &[u8]| Body::BaPreVote {
            round: 1,
            value,
            just: PreVoteJust::Initial,
            share: ctxs[from]
                .sign_share(Thsig::Agreement, &statement_pre_vote(&pid, 1, value))
                .forget(),
            proof: Some(proof.to_vec()),
        };
        // Party 0 proposes 1 and so holds valid data for it. The first
        // pre-vote for 1 it accepts is a Byzantine party's, validly
        // shared and carrying garbage: it is accepted on the held data.
        let mut inst = instance(0);
        let mut out = Outgoing::new();
        inst.propose(valid, true, b"one".to_vec(), &mut out);
        let (_, own) = out.drain().remove(0);
        inst.handle(valid, PartyId(1), &pre_vote(1, true, b"garbage"), &mut out);
        inst.handle(valid, PartyId(2), &pre_vote(2, false, b"zero"), &mut out);
        inst.handle(valid, PartyId(0), &own.body, &mut out);
        // Pre-votes for both bits: it abstains, exhibiting one of each.
        let (_, abstain) = out.drain().remove(0);
        let Body::BaMainVote {
            vote: MainVote::Abstain,
            just: MainVoteJust::Abstain { proof0, proof1, .. },
            ..
        } = &abstain.body
        else {
            panic!("expected an abstaining main-vote, got {:?}", abstain.body);
        };
        assert_eq!(proof0.as_deref(), Some(&b"zero"[..]));
        assert_eq!(proof1.as_deref(), Some(&b"one"[..]), "not the garbage");
        // A party that knows no data for either bit accepts the vote.
        let mut fresh = instance(3);
        fresh.handle(valid, PartyId(0), &abstain.body, &mut Outgoing::new());
        assert!(fresh.rounds[&1].main_votes.contains_key(&PartyId(0)));
    }

    #[test]
    fn coin_shares_batch_with_blame() {
        let ctxs = group(4, 1);
        let pid = ProtocolId::new("ba-coin");
        let release =
            |i: usize, round: u32| ctxs[i].release_coin_share(&coin_name(&pid, round)).forget();
        let mut inst = BinaryAgreement::new(pid.clone(), ctxs[0].clone());
        // n - t shares for round 3's coin, party 3's released for another
        // round's: the batch check fails, the per-share fallback blames it.
        let shares = [release(1, 3), release(2, 3), release(3, 4)];
        for (i, share) in shares.iter().enumerate() {
            inst.on_coin_share(PartyId(i + 1), 3, share);
        }
        assert_eq!(inst.rounds[&3].pending_coin.len(), 3, "queued unchecked");
        inst.flush_pending_coin(3);
        let state = &inst.rounds[&3];
        assert!(state.pending_coin.is_empty());
        let kept: Vec<usize> = state.coin_shares.keys().copied().collect();
        assert_eq!(kept, vec![shares[0].index, shares[1].index]);
        let kept: Vec<_> = state.coin_shares.values().cloned().collect();
        let kept: Vec<_> = kept.into_iter().map(Checked::forget).collect();
        assert!(inst.coin_value_from_shares(3, &kept).is_some());
    }

    #[test]
    fn crash_fault_tolerated() {
        // Party 3 never participates (crash). The remaining n - t = 3
        // parties must still decide.
        let ctxs = group(4, 1);
        let mut instances = fresh(&ctxs, "ba-crash");
        run_with(&mut instances[..3], ANY, |i| (i % 2 == 0, Vec::new()));
        let decisions: Vec<bool> = instances[..3]
            .iter_mut()
            .map(|i| i.take_decision().expect("decided despite crash").0)
            .collect();
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
    }
}
