//! The atomic broadcast channel (paper §2.5).
//!
//! The protocol proceeds in global rounds, following the structure of
//! Chandra–Toueg atomic broadcast transplanted to the Byzantine setting:
//!
//! 1. every party signs the payloads it has queued (head first, up to
//!    [`MAX_ENTRY_PAYLOADS`] and [`MAX_ENTRY_BYTES`]) together with the
//!    round number and sends the signed *entry* to all parties; a party
//!    with nothing to send may *adopt* another party's payloads and sign
//!    those;
//! 2. once a party holds `n - t` entries signed by distinct parties, it
//!    proposes a *batch* of at least `n - f + 1` of them — every further
//!    held entry that adds a deliverable payload, up to `n` — to a
//!    multi-valued agreement whose external validity predicate checks
//!    `n - f + 1 ..= n` references by distinct signers;
//! 3. the payloads of the agreed batch are delivered in a fixed order
//!    (entries by signer index, payloads in vector order); payload
//!    `(origin, seq)` is delivered iff `seq` is the next sequence number
//!    expected from `origin` — the paper's practical weakening of
//!    integrity, which also gives per-origin FIFO by construction.
//!
//! A signature covers `(pid, round, digest of the payload vector)`, and a
//! proposal names each of its entries by [`EntryRef`] — signer, digest,
//! signature — so the validity predicate needs no payload bytes and the
//! bytes cross each link once, in step 1. Availability comes from
//! holding back: a party lets the consistent-broadcast echo for a
//! proposal happen only once it *holds* every entry the proposal names,
//! so a closing message certifies that `t + 1` honest parties hold all of
//! its payloads, and `ac-fetch` pulls what a party lacks from them.
//!
//! Nothing waits for an entry to fill: a lone request is cut into a
//! one-payload entry the moment it is sent, so one agreement orders
//! whatever the chosen parties had queued when the round began.
//!
//! Fairness: with at least `n - f + 1` entries in a batch, a payload known
//! to `f` honest parties is delivered within a bounded number of rounds,
//! because every agreed batch contains at least one entry signed by one of
//! them.
//!
//! Termination: `close` enqueues a termination request as a regular
//! payload; the channel terminates at the end of the round in which
//! requests from `t + 1` distinct parties have been delivered.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::RangeInclusive;

use sintra_telemetry::{SnapshotWriter, StateSnapshot, TraceEvent};

use crate::agreement::{CandidateOrder, MultiValuedAgreement};
use crate::checked::{Checked, Unchecked};
use crate::config::GroupContext;
use crate::ids::{PartyId, ProtocolId};
use crate::invariant::OrInvariant;
use crate::invariant_unwrap;
use crate::message::{
    Body, Entry, EntryRef, Payload, PayloadKind, MAX_ENTRY_BYTES, MAX_ENTRY_PAYLOADS,
};
use crate::outgoing::Outgoing;
use crate::wire::Wire;

/// How many finished rounds' decided batches a party keeps to answer
/// `ac-fetch` from parties that decide those rounds later: up to 16 × n
/// entries of [`MAX_ENTRY_BYTES`] (a lone oversized payload aside), 4 MiB
/// at n = 4 and 7 MiB at n = 7; 1 MiB at n = 4 with one 16 KiB request per
/// entry. A party further behind than this that also misses an entry its
/// (Byzantine) signer withheld needs state transfer — the same class of
/// bound as the link's retransmission window.
pub const FETCH_RETAIN_ROUNDS: usize = 16;

/// Configuration of an atomic channel.
#[derive(Debug, Clone, Copy)]
pub struct AtomicChannelConfig {
    /// The fairness parameter `f` (`t + 1 <= f <= n - t`); the batch size
    /// is `n - f + 1`. `None` selects the paper's experimental setup
    /// `f = n - t`, i.e. batch size `t + 1`.
    pub fairness: Option<usize>,
    /// Candidate order for the inner multi-valued agreements.
    pub order: CandidateOrder,
    /// Most payloads this party puts into one entry
    /// (`1 ..= MAX_ENTRY_PAYLOADS`, the default). The harnesses that
    /// regenerate the paper's figures set 1: the 2002 prototype signed
    /// one payload per entry.
    pub max_entry_payloads: usize,
    /// Whether a proposal names, beyond its first `n - f + 1` entries,
    /// every further held entry that still adds a deliverable payload,
    /// up to `n` (the default). The harnesses that regenerate the paper's
    /// figures set `false`: the 2002 prototype's batches held exactly
    /// `n - f + 1` entries.
    pub whole_batches: bool,
}

impl Default for AtomicChannelConfig {
    fn default() -> Self {
        AtomicChannelConfig {
            fairness: None,
            order: CandidateOrder::LocalRandom,
            max_entry_payloads: MAX_ENTRY_PAYLOADS,
            whole_batches: true,
        }
    }
}

/// What names an entry in a proposal, a fetch and a decided batch: its
/// signer and the digest of its payload vector.
type EntryName = (PartyId, [u8; 32]);

fn names(refs: &[Checked<EntryRef>]) -> impl Iterator<Item = EntryName> + '_ {
    refs.iter().map(|r| (r.signer, r.digest))
}

/// A proposal's `cb-send`, held back until this party holds every entry
/// the proposal names. The send itself is unsigned bytes; the references
/// in it were checked before it took the proposer's slot.
#[derive(Debug)]
struct ParkedProposal {
    msg_pid: ProtocolId,
    body: Body,
    refs: Vec<Checked<EntryRef>>,
}

/// What a party holds for one round. Once the round is decided and
/// delivered, `arrived` and `fetched` keep only the batch's entries, one
/// copy each, for parties that decide the round later; the state goes
/// when the round falls out of [`FETCH_RETAIN_ROUNDS`].
#[derive(Debug, Default)]
struct RoundState {
    /// Valid entries as their signers broadcast them, in arrival order
    /// (the paper: "the protocol considers the messages in the order in
    /// which they arrive in the current round"), at most one per signer.
    arrived: Vec<Checked<Entry>>,
    /// Entries a proposal named that the signer's own broadcast did not
    /// bring, pulled with `ac-fetch`: at most `max_batch_size` per proposer.
    fetched: Vec<Checked<Entry>>,
    /// Held-back proposals, at most one per proposer.
    parked: BTreeMap<PartyId, ParkedProposal>,
    /// Parties whose (valid) proposal has been seen, held back or not;
    /// anything further a party sends as its proposal is dropped.
    proposers: BTreeSet<PartyId>,
    /// Entries asked for and not yet held, with the parties already
    /// asked; only the current round asks. A fetched entry is accepted
    /// only if it is named here.
    wanted: BTreeMap<EntryName, BTreeSet<PartyId>>,
    /// `(requester, signer, digest)` already answered: one reply each,
    /// however often it is asked.
    served: BTreeSet<(PartyId, PartyId, [u8; 32])>,
}

impl RoundState {
    fn find(&self, signer: PartyId, digest: &[u8; 32]) -> Option<&Checked<Entry>> {
        self.arrived
            .iter()
            .chain(&self.fetched)
            .find(|e| e.is_named(signer, digest))
    }

    /// The entries among `named` that are not held.
    fn missing<'a>(
        &'a self,
        named: impl IntoIterator<Item = EntryName> + 'a,
    ) -> impl Iterator<Item = EntryName> + 'a {
        let unheld = move |(signer, digest): &EntryName| self.find(*signer, digest).is_none();
        named.into_iter().filter(unheld)
    }

    fn holds_all(&self, named: impl IntoIterator<Item = EntryName>) -> bool {
        self.missing(named).next().is_none()
    }
}

/// Hold-backs and the traffic of the pull path since the counts were
/// last taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchCounts {
    /// Proposals held back because an entry they name was not held yet
    /// (most are released by the entry's own arrival, without a fetch).
    pub parked: u64,
    /// `ac-fetch` requests sent.
    pub sent: u64,
    /// Requests answered with the entry.
    pub served: u64,
    /// Requests ignored: entry not held, or already served to that party.
    pub ignored: u64,
}

/// An atomic broadcast channel endpoint at one party. What it holds of a
/// round — entries, proposals, fetches — is that round's `RoundState`.
#[derive(Debug)]
pub struct AtomicChannel {
    pid: ProtocolId,
    ctx: GroupContext,
    batch_size: usize,
    /// The most entries a proposal names: `n`, or `batch_size` under the
    /// paper pin.
    max_batch_size: usize,
    order: CandidateOrder,
    max_entry_payloads: usize,
    round: u64,
    /// Own payloads not yet delivered, numbered contiguously.
    queue: VecDeque<Payload>,
    next_seq: u64,
    /// Per origin, the sequence number delivered next (the integrity
    /// filter): `(o, s)` is delivered iff `s == next_deliver[o]`.
    next_deliver: Vec<u64>,
    /// Application deliveries not yet drained by the runtime, with the
    /// round that ordered each.
    deliveries: VecDeque<(u64, Payload)>,
    /// What is held per round: the current and future rounds, and the
    /// batches of the last [`FETCH_RETAIN_ROUNDS`] decided ones.
    rounds: BTreeMap<u64, RoundState>,
    /// Whether we broadcast our own entry for the current round.
    sent_entry: bool,
    /// Whether we proposed a batch for the current round.
    proposed: bool,
    vbas: BTreeMap<u64, MultiValuedAgreement>,
    /// The current round's decided batch, by name, while some of its
    /// entries are still being fetched; the round's agreement is over by
    /// then, and the signatures it checked are of no further use.
    decided: Option<Vec<EntryName>>,
    fetch_counts: FetchCounts,
    close_requested: bool,
    /// Origins whose termination requests have been delivered.
    close_origins: BTreeSet<PartyId>,
    closed: bool,
    closed_taken: bool,
}

/// The validity predicate on a proposal: a count of references in
/// `sizes`, by distinct signers, each passing `check` (the signer's
/// signature over `(pid, round, digest)`). The shape is judged before any
/// signature is. Returns the references as checked.
fn checked_refs(
    bytes: &[u8],
    sizes: &RangeInclusive<usize>,
    check: impl FnMut(&Unchecked<EntryRef>) -> Option<Checked<EntryRef>>,
) -> Option<Vec<Checked<EntryRef>>> {
    let refs = Vec::<Unchecked<EntryRef>>::from_bytes(bytes).ok()?;
    let mut signers = BTreeSet::new();
    if !sizes.contains(&refs.len()) || !refs.iter().all(|r| signers.insert(r.signer)) {
        return None;
    }
    refs.iter().map(check).collect()
}

/// A proposal's reference for round `round` of channel `pid`, checked —
/// unless it names an entry held in `state` under the very signature the
/// entry was stored with, which is not verified twice.
fn check_ref(
    ctx: &GroupContext,
    pid: &ProtocolId,
    round: u64,
    state: Option<&RoundState>,
    r: &Unchecked<EntryRef>,
) -> Option<Checked<EntryRef>> {
    let held = state.and_then(|s| s.find(r.signer, &r.digest));
    ctx.check_entry_ref_holding(pid, round, r, held)
}

/// The external validity predicate of round `round`'s agreement, as a
/// party holding `state` evaluates it.
fn valid_batch(
    ctx: &GroupContext,
    pid: &ProtocolId,
    sizes: &RangeInclusive<usize>,
    round: u64,
    state: Option<&RoundState>,
    bytes: &[u8],
) -> bool {
    checked_refs(bytes, sizes, |r| check_ref(ctx, pid, round, state, r)).is_some()
}

/// The delivery rule: whether `payload` is its origin's next in sequence
/// under the per-origin watermark `next`, which then moves past it. The
/// proposer runs it on a copy to see how much an entry would add.
fn take_if_next(payload: &Payload, next: &mut [u64]) -> bool {
    match next.get_mut(payload.origin.0) {
        Some(expected) if *expected == payload.seq => {
            *expected += 1;
            true
        }
        _ => false,
    }
}

/// How many of `entry`'s payloads `next` lets through, advancing it.
fn count_deliverable(entry: &Entry, next: &mut [u64]) -> usize {
    entry
        .payloads()
        .iter()
        .filter(|p| take_if_next(p, next))
        .count()
}

impl AtomicChannel {
    /// Opens a channel endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the fairness parameter is outside `t + 1 ..= n - t` or
    /// the per-entry payload limit outside `1 ..= MAX_ENTRY_PAYLOADS`.
    pub fn new(pid: ProtocolId, ctx: GroupContext, config: AtomicChannelConfig) -> Self {
        let f = config.fairness.unwrap_or(ctx.n_minus_t());
        assert!(
            f >= ctx.one_honest() && f <= ctx.n_minus_t(),
            "fairness must satisfy t+1 <= f <= n-t"
        );
        assert!(
            (1..=MAX_ENTRY_PAYLOADS).contains(&config.max_entry_payloads),
            "max_entry_payloads must be in 1..=MAX_ENTRY_PAYLOADS"
        );
        let batch_size = ctx.fairness_batch(f);
        let max_batch_size = if config.whole_batches {
            ctx.n()
        } else {
            batch_size
        };
        AtomicChannel {
            pid,
            next_deliver: vec![0; ctx.n()],
            ctx,
            batch_size,
            max_batch_size,
            order: config.order,
            max_entry_payloads: config.max_entry_payloads,
            round: 0,
            queue: VecDeque::new(),
            next_seq: 0,
            deliveries: VecDeque::new(),
            rounds: BTreeMap::new(),
            sent_entry: false,
            proposed: false,
            vbas: BTreeMap::new(),
            decided: None,
            fetch_counts: FetchCounts::default(),
            close_requested: false,
            close_origins: BTreeSet::new(),
            closed: false,
            closed_taken: false,
        }
    }

    /// The channel identifier.
    pub fn pid(&self) -> &ProtocolId {
        &self.pid
    }

    /// The configured batch size `n - f + 1`: the fewest entries a
    /// proposal names.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The most entries a proposal names: `n`, or the batch size when
    /// [`AtomicChannelConfig::whole_batches`] is off.
    pub fn max_batch_size(&self) -> usize {
        self.max_batch_size
    }

    /// The proposal sizes the validity predicate accepts.
    fn batch_sizes(&self) -> RangeInclusive<usize> {
        self.batch_size..=self.max_batch_size
    }

    /// The current protocol round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether the channel accepts further `send` calls.
    pub fn can_send(&self) -> bool {
        !self.close_requested && !self.closed
    }

    /// Queues a payload for total-order delivery.
    ///
    /// # Panics
    ///
    /// Panics after `close` has been called.
    pub fn send(&mut self, data: Vec<u8>, out: &mut Outgoing) {
        assert!(self.can_send(), "channel is closing or closed");
        self.enqueue(PayloadKind::App, data, out);
    }

    /// Requests channel termination: a termination request is sent as this
    /// party's last payload.
    pub fn close(&mut self, out: &mut Outgoing) {
        if self.close_requested || self.closed {
            return;
        }
        self.close_requested = true;
        self.enqueue(PayloadKind::Close, Vec::new(), out);
    }

    fn enqueue(&mut self, kind: PayloadKind, data: Vec<u8>, out: &mut Outgoing) {
        self.queue.push_back(Payload {
            origin: self.ctx.me(),
            seq: self.next_seq,
            kind,
            data,
        });
        self.next_seq += 1;
        self.try_advance(out);
    }

    /// Whether a delivery is waiting to be received.
    pub fn can_receive(&self) -> bool {
        !self.deliveries.is_empty()
    }

    /// Takes the next delivered payload, in total order.
    pub fn take_delivery(&mut self) -> Option<Payload> {
        self.take_round_delivery().map(|(_, payload)| payload)
    }

    /// Takes the next delivered payload with the round that ordered it.
    /// Every honest party delivers the same payloads in the same rounds,
    /// and a round's deliveries are in the queue together.
    pub fn take_round_delivery(&mut self) -> Option<(u64, Payload)> {
        self.deliveries.pop_front()
    }

    /// How many rounds this party has decided and delivered: every round
    /// below it, none at or above it.
    pub fn rounds_delivered(&self) -> u64 {
        // The round a channel closes in is delivered but not left.
        self.round + u64::from(self.closed)
    }

    /// Whether the channel has terminated.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Returns `true` exactly once, when the channel has terminated (used
    /// by runtimes to emit a single closed event).
    pub fn take_closed(&mut self) -> bool {
        if self.closed && !self.closed_taken {
            self.closed_taken = true;
            true
        } else {
            false
        }
    }

    /// Number of own payloads still waiting for delivery.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// The pull path's traffic since the last call.
    pub fn take_fetch_counts(&mut self) -> FetchCounts {
        std::mem::take(&mut self.fetch_counts)
    }

    /// The sequence number delivered next from `origin`: every payload of
    /// `origin` below it has been delivered, none at or above it.
    pub(crate) fn next_expected(&self, origin: PartyId) -> u64 {
        self.next_deliver.get(origin.0).copied().unwrap_or(0)
    }

    fn is_undelivered(&self, payload: &Payload) -> bool {
        self.next_deliver
            .get(payload.origin.0)
            .is_some_and(|next| payload.seq >= *next)
    }

    /// Runs `f` on round `round`'s agreement, made on its first use, with
    /// the validity of a proposal as this party sees it now: the
    /// references it holds the entries of need no second check.
    fn with_vba<R>(
        &mut self,
        round: u64,
        f: impl FnOnce(&mut MultiValuedAgreement, &dyn Fn(&[u8]) -> bool) -> R,
    ) -> R {
        let sizes = self.batch_sizes();
        let vba = self.vbas.entry(round).or_insert_with(|| {
            let vba_pid = self.pid.child(format!("vba/{round}"));
            MultiValuedAgreement::new(vba_pid, self.ctx.clone(), self.order)
        });
        let state = self.rounds.get(&round);
        f(vba, &|bytes| {
            valid_batch(&self.ctx, &self.pid, &sizes, round, state, bytes)
        })
    }

    /// Processes a protocol message addressed to this channel or one of
    /// its agreement children.
    pub fn handle(&mut self, from: PartyId, msg_pid: &ProtocolId, body: &Body, out: &mut Outgoing) {
        if !self.ctx.is_valid_party(from) {
            return;
        }
        // A terminated endpoint still answers fetches: a party that is
        // deciding the last round may lack one of its payloads.
        if let Body::AcFetch {
            round,
            signer,
            digest,
        } = body
        {
            if *msg_pid == self.pid {
                self.on_fetch(from, *round, *signer, digest, out);
            }
            return;
        }
        if self.closed {
            return;
        }
        if *msg_pid == self.pid {
            match body {
                Body::AcEntry { round, entry } => self.on_entry(from, *round, entry, out),
                Body::AcFetched { round, entry } => self.on_fetched(*round, entry, out),
                _ => {}
            }
        } else if let Some((round, proposer)) = Self::parse_vba_child(&self.pid, msg_pid) {
            // Stale rounds are ignored entirely, and so is the current
            // round's agreement once it has decided.
            let live = round > self.round || (round == self.round && self.decided.is_none());
            if live && self.admit(from, round, proposer, msg_pid, body) {
                self.with_vba(round, |vba, valid| {
                    vba.handle(valid, from, msg_pid, body, out)
                });
            }
        }
        self.try_advance(out);
    }

    /// The round of the agreement instance `msg_pid` lies under and, for
    /// a message to one of its proposal broadcasts, the proposer.
    fn parse_vba_child(
        parent: &ProtocolId,
        msg_pid: &ProtocolId,
    ) -> Option<(u64, Option<PartyId>)> {
        let rest = msg_pid.as_str().strip_prefix(parent.as_str())?;
        let rest = rest.strip_prefix("/vba/")?;
        let (round, child) = rest.split_once('/').unwrap_or((rest, ""));
        let proposer = child
            .strip_prefix("bc/")
            .and_then(|index| index.split('/').next())
            .and_then(|index| index.parse().ok())
            .map(PartyId);
        Some((round.parse().ok()?, proposer))
    }

    /// Whether a message for round `round`'s agreement goes on to it now.
    /// Everything does but a proposal's `cb-send`: an invalid proposal is
    /// dropped (nobody should sign one), and one naming an entry this
    /// party does not hold is parked until it does — the echo it triggers
    /// is this party's word that it holds every payload. Votes, finals and
    /// binary agreement pass untouched: a party may vote for and decide a
    /// proposal it never echoed. (What a parked proposal lacks is asked
    /// for in [`Self::try_advance`], not here.)
    fn admit(
        &mut self,
        from: PartyId,
        round: u64,
        proposer: Option<PartyId>,
        msg_pid: &ProtocolId,
        body: &Body,
    ) -> bool {
        let (Body::CbSend(bytes), Some(proposer)) = (body, proposer) else {
            return true;
        };
        let state = self.rounds.get(&round);
        if from != proposer || state.is_some_and(|s| s.proposers.contains(&proposer)) {
            return false;
        }
        // Every reference is checked before the proposal may occupy the
        // proposer's parking slot.
        let check = |r: &Unchecked<EntryRef>| check_ref(&self.ctx, &self.pid, round, state, r);
        let Some(refs) = checked_refs(bytes, &self.batch_sizes(), check) else {
            return false;
        };
        // A proposal of no entries is no proposal.
        let Some(witness) = refs.first() else {
            return false;
        };
        let complete = state.is_some_and(|s| s.holds_all(names(&refs)));
        if !complete {
            self.fetch_counts.parked += 1;
        }
        let state = self.slot(round, witness);
        state.proposers.insert(proposer);
        if complete {
            return true;
        }
        state.parked.insert(
            proposer,
            ParkedProposal {
                msg_pid: msg_pid.clone(),
                body: body.clone(),
                refs,
            },
        );
        false
    }

    /// Round `round`'s slot, opened on behalf of an entry or a proposal
    /// signed for that round that checked out — so that a forged one
    /// cannot grow the per-round map. The only round opened otherwise is
    /// the current one, by [`Self::request`].
    fn slot<T>(&mut self, round: u64, _checked: &Checked<T>) -> &mut RoundState {
        self.rounds.entry(round).or_default()
    }

    /// Asks each of `holders` not asked before for the current round's
    /// entry `wanted`.
    fn request(
        &mut self,
        wanted: EntryName,
        holders: impl IntoIterator<Item = PartyId>,
        out: &mut Outgoing,
    ) {
        let (signer, digest) = wanted;
        let state = self.rounds.entry(self.round).or_default();
        let asked = state.wanted.entry(wanted).or_default();
        let mut sent = 0;
        for holder in holders {
            if holder != self.ctx.me() && asked.insert(holder) {
                sent += 1;
                out.send_to(
                    holder,
                    &self.pid,
                    Body::AcFetch {
                        round: self.round,
                        signer,
                        digest,
                    },
                );
            }
        }
        if sent > 0 {
            self.fetch_counts.sent += sent;
            out.trace_with(|| {
                TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "atomic")
                    .phase("fetch")
                    .round(self.round)
                    .bytes(sent)
            });
        }
    }

    /// Answers a fetch from the round's entries — a decided round's are
    /// its batch — once per requester and entry; anything else is ignored.
    fn on_fetch(
        &mut self,
        from: PartyId,
        round: u64,
        signer: PartyId,
        digest: &[u8; 32],
        out: &mut Outgoing,
    ) {
        let reply = self.rounds.get_mut(&round).and_then(|state| {
            let mut held = state.arrived.iter().chain(&state.fetched);
            let entry = held.find(|e| e.is_named(signer, digest))?;
            let first = state.served.insert((from, signer, *digest));
            first.then(|| entry.clone().forget())
        });
        match reply {
            Some(entry) => {
                self.fetch_counts.served += 1;
                out.send_to(from, &self.pid, Body::AcFetched { round, entry });
            }
            None => self.fetch_counts.ignored += 1,
        }
    }

    /// The acceptance test every entry passes before it is stored,
    /// broadcast or fetched: an honest shape, and the signer's signature
    /// over `(pid, round, digest)`.
    fn acceptable(&self, round: u64, entry: &Unchecked<Entry>) -> Option<Checked<Entry>> {
        if !entry.well_formed() {
            return None;
        }
        self.ctx.check_entry(&self.pid, round, entry)
    }

    fn on_entry(
        &mut self,
        from: PartyId,
        round: u64,
        entry: &Unchecked<Entry>,
        out: &mut Outgoing,
    ) {
        // Entries are broadcast by their signer.
        if entry.signer() != from || round < self.round {
            return;
        }
        if self
            .rounds
            .get(&round)
            .is_some_and(|state| state.arrived.iter().any(|e| e.signer() == from))
        {
            return;
        }
        // An entry that can add nothing is not worth a signature check.
        if !entry.payloads().iter().any(|p| self.is_undelivered(p)) {
            return;
        }
        let Some(entry) = self.acceptable(round, entry) else {
            return;
        };
        let state = self.slot(round, &entry);
        state.arrived.push(entry.clone());
        self.entry_stored(round, &entry, out);
    }

    fn on_fetched(&mut self, round: u64, entry: &Unchecked<Entry>, out: &mut Outgoing) {
        // Only what this party asked for, in the round it asked in.
        let name = (entry.signer(), *entry.digest());
        let wanted = |state: &RoundState| state.wanted.contains_key(&name);
        if round != self.round || !self.rounds.get(&round).is_some_and(wanted) {
            return;
        }
        let Some(entry) = self.acceptable(round, entry) else {
            return;
        };
        let state = self.slot(round, &entry);
        state.fetched.push(entry.clone());
        self.entry_stored(round, &entry, out);
    }

    /// After `entry` joined round `round`'s store: it is no longer
    /// wanted, and the proposals that waited for it go on to the
    /// agreement.
    fn entry_stored(&mut self, round: u64, entry: &Checked<Entry>, out: &mut Outgoing) {
        let Some(state) = self.rounds.get_mut(&round) else {
            return;
        };
        state.wanted.remove(&(entry.signer(), *entry.digest()));
        let complete: Vec<PartyId> = state
            .parked
            .iter()
            .filter(|(_, parked)| state.holds_all(names(&parked.refs)))
            .map(|(proposer, _)| *proposer)
            .collect();
        for proposer in complete {
            let parked = self
                .rounds
                .get_mut(&round)
                .and_then(|state| state.parked.remove(&proposer));
            if let Some(parked) = parked {
                self.with_vba(round, |vba, valid| {
                    vba.handle(valid, proposer, &parked.msg_pid, &parked.body, out)
                });
            }
        }
    }

    /// The payloads of this party's entry for the current round: the
    /// prefix of its own queue, or, with nothing queued, the undelivered
    /// payloads of the first-arrived entry that has any ("a party may
    /// also adopt a message that was first signed by another party and
    /// sign that"). Adoption keeps every honest party contributing an
    /// entry each round, which the proposal gate relies on.
    fn cut_entry(&mut self) -> Option<Vec<Payload>> {
        let delivered = self.next_expected(self.ctx.me());
        while self.queue.front().is_some_and(|p| p.seq < delivered) {
            self.queue.pop_front();
        }
        let mut own = Vec::new();
        let mut bytes = 0usize;
        for payload in self.queue.iter().take(self.max_entry_payloads) {
            bytes += payload.data.len();
            // The queue head always goes in, whatever its size.
            if !own.is_empty() && bytes > MAX_ENTRY_BYTES {
                break;
            }
            own.push(payload.clone());
        }
        if !own.is_empty() {
            return Some(own);
        }
        self.rounds
            .get(&self.round)?
            .arrived
            .iter()
            .find_map(|entry| {
                let adopted: Vec<Payload> = entry
                    .payloads()
                    .iter()
                    .filter(|p| self.is_undelivered(p))
                    .take(self.max_entry_payloads)
                    .cloned()
                    .collect();
                (!adopted.is_empty()).then_some(adopted)
            })
    }

    /// Picks the proposal's entries: greedily the entry that adds the
    /// most payloads not yet covered by the ones picked before it, ties by
    /// arrival order — `batch_size` of them, and then more while the best
    /// one left still adds a payload, up to `max_batch_size`. With one
    /// payload per entry this is "distinct payloads in arrival order,
    /// padded with duplicates" to the batch size. Any validly signed
    /// entries of distinct signers in the accepted count are a valid
    /// batch, so the choice affects only how much a round delivers — and a
    /// party passed over in one round holds the largest entry in the next.
    /// An entry that adds nothing past the batch size is never named, so a
    /// round with one sender proposes exactly `batch_size` entries. The
    /// proposal names the picked entries, all of which this party holds.
    fn select_batch(&self, all: &[Checked<Entry>]) -> Vec<Unchecked<EntryRef>> {
        let mut covered = self.next_deliver.clone();
        let mut picked: Vec<usize> = Vec::with_capacity(self.max_batch_size);
        while picked.len() < self.max_batch_size {
            let mut best: Option<(usize, usize)> = None;
            for (i, entry) in all.iter().enumerate() {
                if picked.contains(&i) {
                    continue;
                }
                let gain = count_deliverable(entry, &mut covered.clone());
                if best.is_none_or(|(_, most)| gain > most) {
                    best = Some((i, gain));
                }
            }
            let Some((i, gain)) = best else { break };
            if gain == 0 && picked.len() >= self.batch_size {
                break;
            }
            count_deliverable(&all[i], &mut covered);
            picked.push(i);
        }
        picked.into_iter().map(|i| all[i].to_ref().into()).collect()
    }

    /// Delivers a decided batch — entries by signer index, payloads in
    /// vector order — and returns how many payloads it delivered.
    fn deliver_batch(&mut self, mut batch: Vec<&Checked<Entry>>) -> usize {
        batch.sort_by_key(|entry| entry.signer());
        let mut delivered = 0;
        for payload in batch.iter().flat_map(|entry| entry.payloads()) {
            if !take_if_next(payload, &mut self.next_deliver) {
                continue;
            }
            delivered += 1;
            match payload.kind {
                PayloadKind::App => self.deliveries.push_back((self.round, payload.clone())),
                PayloadKind::Close => {
                    self.close_origins.insert(payload.origin);
                }
            }
        }
        delivered
    }

    /// Asks the proposers of the current round's held-back proposals for
    /// the entries those name — they must hold what they propose. Not
    /// before the own proposal is out and those of n - t parties are in,
    /// both sure to happen in a round that still needs this party's echo:
    /// until then a proposal has usually just overtaken an entry that is
    /// about to arrive on another link; after that the entry is late or
    /// withheld.
    fn fetch_for_parked(&mut self, out: &mut Outgoing) {
        let Some(state) = self.rounds.get(&self.round) else {
            return;
        };
        if !self.proposed || state.proposers.len() < self.ctx.n_minus_t() {
            return;
        }
        let asks: Vec<(PartyId, EntryName)> = state
            .parked
            .iter()
            .flat_map(|(proposer, parked)| {
                let missing = state.missing(names(&parked.refs));
                missing.map(|wanted| (*proposer, wanted))
            })
            .collect();
        for (proposer, wanted) in asks {
            self.request(wanted, [proposer], out);
        }
    }

    /// The current round's state, taken out of `rounds` with its entries
    /// trimmed to one copy of each the decided batch names — once all of
    /// them are held. One still missing is asked of everybody: the
    /// proposal's closing message says t + 1 honest parties hold it.
    fn take_decided_batch(&mut self, out: &mut Outgoing) -> Option<RoundState> {
        let named = self.decided.as_ref()?;
        let missing: Vec<EntryName> = match self.rounds.get(&self.round) {
            Some(state) => state.missing(named.iter().copied()).collect(),
            None => named.clone(),
        };
        if !missing.is_empty() {
            for wanted in missing {
                self.request(wanted, self.ctx.parties(), out);
            }
            return None;
        }
        let mut unkept = self.decided.take()?;
        let mut state = self.rounds.remove(&self.round).unwrap_or_default();
        let mut keep = |e: &Checked<Entry>| {
            let at = unkept.iter().position(|(s, d)| e.is_named(*s, d));
            at.map(|at| unkept.swap_remove(at)).is_some()
        };
        state.arrived.retain(&mut keep);
        state.fetched.retain(keep);
        Some(state)
    }

    /// Drives the round state machine.
    fn try_advance(&mut self, out: &mut Outgoing) {
        loop {
            if self.closed {
                return;
            }
            let round = self.round;

            if self.decided.is_none() {
                // Step 1: broadcast our signed entry for this round.
                if !self.sent_entry {
                    if let Some(payloads) = self.cut_entry() {
                        let entry = self.ctx.sign_entry(&self.pid, round, payloads);
                        self.sent_entry = true;
                        self.slot(round, &entry).arrived.push(entry.clone());
                        let entry = entry.forget();
                        out.send_all(&self.pid, Body::AcEntry { round, entry });
                    }
                }

                // Step 2: propose a batch. We wait for n - t entries
                // rather than the bare batch size: every honest party
                // contributes an entry each active round (sending its own
                // payloads or adopting some), so this cannot deadlock, and
                // the extra entries give the selection something to
                // choose from.
                let have = self.rounds.get(&round).map_or(0, |s| s.arrived.len());
                if have >= self.ctx.n_minus_t().max(self.batch_size) && !self.proposed {
                    self.proposed = true;
                    let state = invariant_unwrap!(
                        self.rounds.get(&round),
                        "entry set for round {round} missing at proposal"
                    );
                    let bytes = self.select_batch(&state.arrived).to_bytes();
                    self.with_vba(round, |vba, valid| vba.propose(valid, bytes, out));
                }

                // Step 3: pull what held-back proposals name.
                self.fetch_for_parked(out);

                // Step 4: take the agreed batch. The agreement instance is
                // done with, and so is whatever it held back.
                let Some(bytes) = self
                    .vbas
                    .get_mut(&round)
                    .and_then(MultiValuedAgreement::take_decision)
                else {
                    return;
                };
                let refs = Vec::<Unchecked<EntryRef>>::from_bytes(&bytes)
                    .or_invariant("externally validated batch failed to decode");
                self.vbas.remove(&round);
                if let Some(state) = self.rounds.get_mut(&round) {
                    state.parked.clear();
                    state.wanted.clear();
                }
                self.decided = Some(refs.iter().map(|r| (r.signer, r.digest)).collect());
            }

            // Step 5: deliver it, once every entry it names is held. The
            // round keeps its batch for parties that decide it later.
            let Some(state) = self.take_decided_batch(out) else {
                return;
            };
            let delivered =
                self.deliver_batch(state.arrived.iter().chain(&state.fetched).collect()) as u64;
            self.rounds.insert(round, state);
            let oldest = (round + 1).saturating_sub(FETCH_RETAIN_ROUNDS as u64);
            self.rounds.retain(|r, _| *r >= oldest);
            // One event per decided round; it carries the number of
            // payloads the round delivered.
            out.trace_with(|| {
                TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "atomic")
                    .phase("batch")
                    .round(round)
                    .bytes(delivered)
            });

            if self.close_origins.len() > self.ctx.fault_budget() {
                self.closed = true;
                return;
            }
            self.round += 1;
            self.sent_entry = false;
            self.proposed = false;
            out.trace_with(|| {
                TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "atomic")
                    .phase("round")
                    .round(self.round)
            });
        }
    }
}

impl StateSnapshot for AtomicChannel {
    fn has_pending_work(&self) -> bool {
        if self.closed {
            return false;
        }
        // Held-back proposals live in the rounds not yet delivered (a
        // delivered one keeps only its batch); a decided batch that awaits
        // payloads is in `decided`.
        !self.queue.is_empty()
            || self.close_requested
            || self
                .rounds
                .last_key_value()
                .is_some_and(|(r, _)| *r >= self.round)
            || !self.vbas.is_empty()
            || self.decided.is_some()
    }

    fn snapshot_json(&self) -> String {
        // The current round's state, unless the channel closed in it.
        let current = self.rounds.get(&self.round).filter(|_| !self.closed);
        let current_entries = current.map_or(0, |state| state.arrived.len());
        let parked: usize = self.rounds.values().map(|state| state.parked.len()).sum();
        let retained = self.rounds.range(..self.rounds_delivered()).count();
        let awaiting: Vec<String> = current
            .into_iter()
            .flat_map(|state| state.wanted.keys())
            .map(|(signer, digest)| {
                let prefix: String = digest[..4].iter().map(|b| format!("{b:02x}")).collect();
                format!("{{\"signer\":{},\"digest\":\"{prefix}\"}}", signer.0)
            })
            .collect();
        let mut w = SnapshotWriter::new(self.pid.as_str(), "atomic")
            .num("round", self.round)
            .num("queue_depth", self.queue.len() as u64)
            .num("undrained_deliveries", self.deliveries.len() as u64)
            .num("entries", current_entries as u64)
            .num(
                "entry_quorum",
                self.ctx.n_minus_t().max(self.batch_size) as u64,
            )
            .num("batch_size", self.batch_size as u64)
            .flag("entry_sent", self.sent_entry)
            .flag("batch_proposed", self.proposed)
            .flag("batch_decided", self.decided.is_some())
            .num("parked_proposals", parked as u64)
            .raw("awaiting_payloads", &format!("[{}]", awaiting.join(",")))
            .num("retained_rounds", retained as u64)
            .flag("close_requested", self.close_requested)
            .num("close_origins", self.close_origins.len() as u64)
            .flag("closed", self.closed);
        if let Some(vba) = self.vbas.get(&self.round) {
            w = w.raw("vba", &vba.snapshot_json());
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Envelope;
    use crate::outgoing::Recipient;
    use crate::pump::{Choice, Pump};
    use crate::wire::Wire;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sintra_crypto::dealer::{deal, DealerConfig};
    use std::sync::Arc;

    fn group(n: usize, t: usize) -> Vec<GroupContext> {
        let mut rng = StdRng::seed_from_u64(37);
        deal(&DealerConfig::small(n, t), &mut rng)
            .unwrap()
            .into_iter()
            .map(|k| GroupContext::new(Arc::new(k)))
            .collect()
    }

    fn channels(ctxs: &[GroupContext], tag: &str) -> Vec<AtomicChannel> {
        ctxs.iter()
            .map(|c| {
                AtomicChannel::new(
                    ProtocolId::new(tag),
                    c.clone(),
                    AtomicChannelConfig::default(),
                )
            })
            .collect()
    }

    fn handle(chan: &mut AtomicChannel, from: PartyId, env: &Envelope, out: &mut Outgoing) {
        chan.handle(from, &env.pid, &env.body, out);
    }

    /// A FIFO network the drills can reach into, carrying what the
    /// parties sent into `outs`, in that order: they take messages out
    /// themselves to drop, hold back or answer them on a Byzantine
    /// party's behalf, and hand the rest to [`Pump::deliver`].
    fn fifo(n: usize, outs: Vec<(usize, Outgoing)>) -> Pump {
        let mut net = Pump::new(n, Choice::Fifo);
        net.extend(outs);
        net
    }

    /// Delivers all queued messages FIFO until quiescence.
    fn pump(channels: &mut [AtomicChannel], outs: Vec<(usize, Outgoing)>) {
        fifo(channels.len(), outs)
            .run(channels, handle, 5_000_000)
            .expect("atomic channel did not quiesce");
    }

    #[test]
    fn single_sender_total_order() {
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "ac-single");
        let mut outs = Vec::new();
        let mut out = Outgoing::new();
        for i in 0..5u8 {
            chans[0].send(vec![i], &mut out);
        }
        outs.push((0usize, out));
        pump(&mut chans, outs);
        // All parties deliver the same sequence, in send order.
        for (p, chan) in chans.iter_mut().enumerate() {
            let mut got = Vec::new();
            while let Some(payload) = chan.take_delivery() {
                assert_eq!(payload.origin, PartyId(0));
                got.push(payload.data[0]);
            }
            assert_eq!(got, vec![0, 1, 2, 3, 4], "party {p}");
        }
    }

    #[test]
    fn concurrent_senders_agree_on_order() {
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "ac-multi");
        let mut outs = Vec::new();
        for (i, chan) in chans.iter_mut().enumerate() {
            let mut out = Outgoing::new();
            for k in 0..3u8 {
                chan.send(format!("m{i}-{k}").into_bytes(), &mut out);
            }
            outs.push((i, out));
        }
        pump(&mut chans, outs);
        let sequences: Vec<Vec<Vec<u8>>> = chans
            .iter_mut()
            .map(|c| {
                let mut v = Vec::new();
                while let Some(p) = c.take_delivery() {
                    v.push(p.data);
                }
                v
            })
            .collect();
        assert_eq!(sequences[0].len(), 12, "all 12 payloads delivered");
        for (p, seq) in sequences.iter().enumerate().skip(1) {
            assert_eq!(seq, &sequences[0], "party {p} order differs");
        }
    }

    #[test]
    fn duplicate_sends_deliver_once_per_send() {
        // The paper's weakened integrity: the same bit string sent twice by
        // the same party is delivered twice (distinct sequence numbers),
        // but each (origin, seq) exactly once.
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "ac-dup");
        let mut out = Outgoing::new();
        chans[1].send(b"dup".to_vec(), &mut out);
        chans[1].send(b"dup".to_vec(), &mut out);
        pump(&mut chans, vec![(1, out)]);
        let mut count = 0;
        while let Some(p) = chans[2].take_delivery() {
            assert_eq!(p.data, b"dup");
            count += 1;
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn close_terminates_all_parties() {
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "ac-close");
        let mut outs = Vec::new();
        let mut out0 = Outgoing::new();
        chans[0].send(b"final".to_vec(), &mut out0);
        chans[0].close(&mut out0);
        outs.push((0usize, out0));
        for (i, chan) in chans.iter_mut().enumerate().skip(1) {
            let mut out = Outgoing::new();
            chan.close(&mut out);
            outs.push((i, out));
        }
        pump(&mut chans, outs);
        for (i, chan) in chans.iter_mut().enumerate() {
            assert!(chan.is_closed(), "party {i} closed");
            assert!(chan.take_closed(), "closed event emitted once");
            assert!(!chan.take_closed());
        }
        // The pre-close payload was delivered.
        assert_eq!(chans[3].take_delivery().unwrap().data, b"final");
    }

    #[test]
    fn one_close_does_not_terminate() {
        // t+1 = 2 requests are needed; a single closer leaves the channel
        // open for everyone else.
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "ac-halfclose");
        let mut out = Outgoing::new();
        chans[0].close(&mut out);
        // Other parties keep sending so rounds continue.
        let mut out1 = Outgoing::new();
        chans[1].send(b"x".to_vec(), &mut out1);
        pump(&mut chans, vec![(0, out), (1, out1)]);
        for chan in &chans {
            assert!(!chan.is_closed());
        }
        assert!(!chans[0].can_send(), "closer cannot send anymore");
        assert!(chans[1].can_send());
    }

    #[test]
    fn forged_entry_rejected() {
        let ctxs = group(4, 1);
        let mut chan = AtomicChannel::new(
            ProtocolId::new("ac-forge"),
            ctxs[0].clone(),
            AtomicChannelConfig::default(),
        );
        let payload = Payload {
            origin: PartyId(2),
            seq: 0,
            kind: PayloadKind::App,
            data: b"evil".to_vec(),
        };
        // Signature by the wrong party.
        let by_three = Entry::sign(
            &ProtocolId::new("ac-forge"),
            0,
            vec![payload],
            PartyId(3),
            &ctxs[3].keys().sig_key,
        );
        let entry = Entry::new(
            by_three.payloads().to_vec(),
            PartyId(2),
            by_three.sig().clone(),
        );
        chan.handle(
            PartyId(2),
            &ProtocolId::new("ac-forge"),
            &Body::AcEntry {
                round: 0,
                entry: entry.into(),
            },
            &mut Outgoing::new(),
        );
        assert!(chan.rounds.is_empty());
    }

    fn app(origin: usize, seq: u64, data: &[u8]) -> Payload {
        Payload {
            origin: PartyId(origin),
            seq,
            kind: PayloadKind::App,
            data: data.to_vec(),
        }
    }

    /// An entry for `round` of channel `tag`, validly signed by `signer`.
    fn signed(
        ctxs: &[GroupContext],
        tag: &str,
        round: u64,
        signer: usize,
        payloads: Vec<Payload>,
    ) -> Checked<Entry> {
        ctxs[signer].sign_entry(&ProtocolId::new(tag), round, payloads)
    }

    /// References as a proposal carries them.
    fn encoded(refs: &[EntryRef]) -> Vec<u8> {
        let refs: Vec<Unchecked<EntryRef>> = refs.iter().cloned().map(Into::into).collect();
        refs.to_bytes()
    }

    /// A proposal's `cb-send` as `proposer` would broadcast it in `round`.
    fn proposal(tag: &str, round: u64, proposer: usize, refs: &[EntryRef]) -> (ProtocolId, Body) {
        (
            ProtocolId::new(format!("{tag}/vba/{round}/bc/{proposer}")),
            Body::CbSend(encoded(refs)),
        )
    }

    fn drain(chan: &mut AtomicChannel) -> Vec<(usize, u64)> {
        std::iter::from_fn(|| chan.take_delivery())
            .map(|p| (p.origin.0, p.seq))
            .collect()
    }

    #[test]
    fn queued_sends_share_one_entry() {
        // The first send is cut into a one-payload entry at once (nothing
        // waits to fill an entry); what queues up behind it rides in the
        // next round's entry together.
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "ac-share");
        let mut out = Outgoing::new();
        for i in 0..5u8 {
            chans[0].send(vec![i], &mut out);
        }
        let sent: Vec<usize> = out
            .drain()
            .into_iter()
            .map(|(_, env)| match env.body {
                Body::AcEntry { entry, .. } => entry.payloads().len(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(sent, vec![1], "one entry, cut at the first send");
        let mut out = Outgoing::new();
        chans[0].send(vec![5], &mut out);
        assert!(out.is_empty(), "one entry per round");
        assert_eq!(chans[0].cut_entry().map(|e| e.len()), Some(6));
    }

    #[test]
    fn burst_of_twice_the_cap_takes_several_rounds_head_first() {
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "ac-burst");
        let mut out = Outgoing::new();
        let burst = 2 * MAX_ENTRY_PAYLOADS as u64;
        for i in 0..burst {
            chans[0].send(i.to_be_bytes().to_vec(), &mut out);
        }
        // Whatever is queued, an entry holds the head and at most the cap.
        let cut = chans[0].cut_entry().unwrap();
        assert_eq!(cut.len(), MAX_ENTRY_PAYLOADS);
        assert_eq!(cut[0].seq, 0, "the queue head is always in the entry");
        pump(&mut chans, vec![(0, out)]);
        for (p, chan) in chans.iter_mut().enumerate() {
            // [0], [1..=256], [257..512): three rounds, in send order.
            assert_eq!(chan.round(), 3, "party {p}");
            let expected: Vec<(usize, u64)> = (0..burst).map(|s| (0, s)).collect();
            assert_eq!(drain(chan), expected, "party {p}");
        }
    }

    #[test]
    fn byte_budget_bounds_an_entry_but_never_the_head() {
        let ctxs = group(4, 1);
        let mut chan = channels(&ctxs, "ac-bytes").remove(0);
        let mut out = Outgoing::new();
        chan.send(vec![0; 8], &mut out); // round 0's entry
        chan.send(vec![1; MAX_ENTRY_BYTES + 1], &mut out);
        for _ in 0..4 {
            chan.send(vec![2; MAX_ENTRY_BYTES / 3], &mut out);
        }
        chan.next_deliver[0] = 1;
        let lone: Vec<usize> = chan
            .cut_entry()
            .unwrap()
            .iter()
            .map(|p| p.data.len())
            .collect();
        assert_eq!(
            lone,
            vec![MAX_ENTRY_BYTES + 1],
            "an oversized head goes alone"
        );
        chan.next_deliver[0] = 2;
        let three = chan.cut_entry().unwrap();
        assert_eq!(three.len(), 3, "3 x budget/3 fit, the fourth does not");
        let entry = signed(&ctxs, "ac-bytes", 0, 0, three);
        assert!(entry.well_formed());
    }

    #[test]
    fn paper_pin_cuts_one_payload_per_entry() {
        let ctxs = group(4, 1);
        let mut chan = AtomicChannel::new(
            ProtocolId::new("ac-pin"),
            ctxs[0].clone(),
            AtomicChannelConfig {
                max_entry_payloads: 1,
                ..AtomicChannelConfig::default()
            },
        );
        let mut out = Outgoing::new();
        for i in 0..4u8 {
            chan.send(vec![i], &mut out);
        }
        assert_eq!(chan.cut_entry().map(|e| e.len()), Some(1));
        // Adopting is bound by the same limit.
        let mut idle = AtomicChannel::new(
            ProtocolId::new("ac-pin"),
            ctxs[1].clone(),
            AtomicChannelConfig {
                max_entry_payloads: 1,
                ..AtomicChannelConfig::default()
            },
        );
        let wide = signed(
            &ctxs,
            "ac-pin",
            0,
            2,
            vec![app(2, 0, b"a"), app(2, 1, b"b")],
        );
        idle.on_entry(PartyId(2), 0, &wide.forget(), &mut Outgoing::new());
        assert_eq!(idle.cut_entry(), Some(vec![app(2, 0, b"a")]));
    }

    #[test]
    fn selection_prefers_the_entry_that_adds_most() {
        let ctxs = group(4, 1);
        let chan = channels(&ctxs, "ac-select").remove(3);
        let one = signed(&ctxs, "ac-select", 0, 0, vec![app(0, 0, b"a")]);
        let three = signed(
            &ctxs,
            "ac-select",
            0,
            1,
            vec![app(1, 0, b"b"), app(1, 1, b"c"), app(1, 2, b"d")],
        );
        let two = signed(
            &ctxs,
            "ac-select",
            0,
            2,
            vec![app(2, 0, b"e"), app(2, 1, b"f")],
        );
        let signers = |batch: Vec<Unchecked<EntryRef>>| -> Vec<usize> {
            batch.iter().map(|r| r.signer.0).collect()
        };
        // Past the batch size, every entry that still adds a payload.
        let arrival = [one.clone(), three.clone(), two.clone()];
        assert_eq!(signers(chan.select_batch(&arrival)), vec![1, 2, 0]);
        let pinned = AtomicChannel::new(
            ProtocolId::new("ac-select"),
            ctxs[3].clone(),
            AtomicChannelConfig {
                whole_batches: false,
                ..AtomicChannelConfig::default()
            },
        );
        assert_eq!(signers(pinned.select_batch(&arrival)), vec![1, 2]);
        // Ties go by arrival order; an adopter's copy adds nothing once
        // the original is in and is only picked to fill the batch.
        let copy = signed(&ctxs, "ac-select", 0, 3, three.payloads().to_vec());
        assert_eq!(
            signers(chan.select_batch(&[copy.clone(), three.clone(), one.clone()])),
            vec![3, 0]
        );
        assert_eq!(signers(chan.select_batch(&[copy, three])), vec![3, 1]);
        // One payload per entry: distinct payloads in arrival order, as
        // the paper's prototype chose.
        let a_again = signed(&ctxs, "ac-select", 0, 1, vec![app(0, 0, b"a")]);
        let other = signed(&ctxs, "ac-select", 0, 2, vec![app(2, 0, b"e")]);
        assert_eq!(
            signers(chan.select_batch(&[one, a_again, other])),
            vec![0, 2]
        );
    }

    #[test]
    fn suffix_relay_cannot_reorder_or_duplicate() {
        // Honest party 2 signed [c1, c2]; Byzantine party 0 re-signs only
        // the suffix [c2]. Delivery is per origin in sequence, so the
        // suffix alone delivers nothing and c2 never overtakes c1 —
        // whichever of the two entries a batch holds, in whatever order.
        let ctxs = group(4, 1);
        let (c1, c2) = (app(2, 0, b"c1"), app(2, 1, b"c2"));
        let suffix = signed(&ctxs, "ac-suffix", 0, 0, vec![c2.clone()]);
        let full = signed(&ctxs, "ac-suffix", 0, 2, vec![c1, c2]);
        let filler = signed(&ctxs, "ac-suffix", 0, 1, vec![app(1, 0, b"x")]);

        // Signer order puts the suffix first.
        let mut chan = channels(&ctxs, "ac-suffix").remove(3);
        assert_eq!(chan.deliver_batch(vec![&full, &suffix]), 2);
        assert_eq!(drain(&mut chan), vec![(2, 0), (2, 1)]);

        // Only the suffix was agreed on: c2 waits for c1.
        let mut chan = channels(&ctxs, "ac-suffix").remove(3);
        assert_eq!(chan.deliver_batch(vec![&suffix, &filler]), 1);
        assert_eq!(drain(&mut chan), vec![(1, 0)]);
        assert_eq!(chan.next_expected(PartyId(2)), 0);
        // The honest origin still has both queued; a later round brings
        // them, in order, once.
        assert_eq!(chan.deliver_batch(vec![&full]), 2);
        assert_eq!(drain(&mut chan), vec![(2, 0), (2, 1)]);
        assert_eq!(chan.deliver_batch(vec![&full, &suffix]), 0, "each once");
    }

    #[test]
    fn suffix_relay_full_protocol_run() {
        // The same attack against running channels: party 0 is Byzantine
        // and, whenever it sees an honest multi-payload entry, broadcasts
        // its own validly signed entry carrying only the suffix. The
        // honest parties send in two bursts, each cut into a one-payload
        // entry and then a three-payload one, so that multi-payload
        // entries meet the relay in more than one round.
        let ctxs = group(4, 1);
        let tag = "ac-suffix-run";
        let mut chans = channels(&ctxs, tag);
        let mut net = Pump::new(chans.len(), Choice::Fifo);
        let mut relayed = BTreeSet::new();
        for burst in 0..2u8 {
            for (origin, chan) in chans.iter_mut().enumerate().skip(1) {
                let mut out = Outgoing::new();
                for k in 4 * burst..4 * burst + 4 {
                    chan.send(vec![u8::try_from(origin).unwrap(), k], &mut out);
                }
                net.push(origin, &mut out);
            }
            while let Some(msg) = net.next() {
                if msg.to != 0 {
                    net.deliver(&mut chans, msg, handle);
                    continue;
                }
                // The Byzantine party runs no honest code; it cuts the
                // first multi-payload entry it sees in each round.
                if let Body::AcEntry { round, entry } = &msg.env.body {
                    if entry.payloads().len() > 1 && relayed.insert(*round) {
                        let suffix = signed(&ctxs, tag, *round, 0, entry.payloads()[1..].to_vec());
                        let mut out = Outgoing::new();
                        out.send_all(
                            &msg.env.pid,
                            Body::AcEntry {
                                round: *round,
                                entry: suffix.forget(),
                            },
                        );
                        net.push(0, &mut out);
                    }
                }
            }
        }
        assert!(relayed.len() >= 2, "the relay found entries to cut");
        let reference = drain(&mut chans[1]);
        assert_eq!(reference.len(), 24, "every payload delivered, each once");
        for origin in 1..4usize {
            let seqs: Vec<u64> = reference
                .iter()
                .filter(|(o, _)| *o == origin)
                .map(|(_, s)| *s)
                .collect();
            assert_eq!(
                seqs,
                (0..8).collect::<Vec<u64>>(),
                "origin {origin} in send order"
            );
        }
        for (p, chan) in chans.iter_mut().enumerate().skip(2) {
            assert_eq!(drain(chan), reference, "party {p} agrees");
        }
    }

    #[test]
    fn malformed_and_stale_entries_rejected_before_any_state_grows() {
        let ctxs = group(4, 1);
        let tag = "ac-bad";
        let mut chan = channels(&ctxs, tag).remove(0);
        chan.next_deliver[2] = 3; // (2, 0..3) are delivered
        let many = |count: usize, len: usize| -> Vec<Payload> {
            (0..count as u64)
                .map(|s| app(2, 10 + s, &vec![9; len]))
                .collect()
        };
        let cases: Vec<(&str, Vec<Payload>)> = vec![
            ("empty vector", vec![]),
            ("over the count cap", many(MAX_ENTRY_PAYLOADS + 1, 1)),
            ("over the byte budget", many(3, MAX_ENTRY_BYTES / 2)),
            (
                "duplicated (origin, seq)",
                vec![app(2, 5, b"a"), app(2, 6, b"b"), app(2, 5, b"a")],
            ),
            (
                "only delivered payloads",
                vec![app(2, 1, b"a"), app(2, 2, b"b")],
            ),
        ];
        for (what, payloads) in cases {
            // Validly signed by a (Byzantine) group member, for the
            // current and for a future round.
            for round in [0u64, 7] {
                let entry = signed(&ctxs, tag, round, 2, payloads.clone()).forget();
                let body = Body::AcEntry { round, entry };
                chan.handle(
                    PartyId(2),
                    &ProtocolId::new(tag),
                    &body,
                    &mut Outgoing::new(),
                );
                assert!(chan.rounds.is_empty(), "{what}: no per-round state");
                assert!(chan.vbas.is_empty(), "{what}");
                if what == "only delivered payloads" {
                    continue; // the decoder cannot know what is delivered
                }
                let env = crate::message::Envelope {
                    pid: ProtocolId::new(tag),
                    send_seq: 0,
                    body,
                };
                assert!(
                    crate::message::Envelope::from_bytes(&env.to_bytes()).is_err(),
                    "{what}: decode"
                );
            }
        }
        // A forged signature on a well-formed entry for a far-future
        // round leaves no slot behind either (the PR-10 ordering).
        let honest = signed(&ctxs, tag, 99, 3, vec![app(2, 3, b"next")]);
        let forged = Entry::new(honest.payloads().to_vec(), PartyId(2), honest.sig().clone());
        chan.on_entry(PartyId(2), 99, &forged.into(), &mut Outgoing::new());
        assert!(chan.rounds.is_empty());
        // A partly delivered vector is accepted; only its fresh tail counts.
        let mixed = signed(&ctxs, tag, 0, 2, vec![app(2, 2, b"old"), app(2, 3, b"new")]);
        chan.on_entry(PartyId(2), 0, &mixed.clone().forget(), &mut Outgoing::new());
        assert_eq!(chan.rounds[&0].arrived.len(), 1);
        assert_eq!(chan.deliver_batch(vec![&mixed]), 1);
        assert_eq!(drain(&mut chan), vec![(2, 3)]);
    }

    #[test]
    fn validator_checks_count_signers_and_signatures_not_payloads() {
        let ctxs = group(4, 1);
        let tag = "ac-valid";
        let chan = channels(&ctxs, tag).remove(0);
        let is_valid =
            |bytes: &[u8]| valid_batch(&chan.ctx, &chan.pid, &chan.batch_sizes(), 0, None, bytes);
        let zero = signed(&ctxs, tag, 0, 0, vec![app(0, 0, b"z")]).to_ref();
        let one = signed(&ctxs, tag, 0, 1, vec![app(1, 0, b"a")]).to_ref();
        let two = signed(&ctxs, tag, 0, 2, vec![app(2, 0, b"b")]).to_ref();
        let three = signed(&ctxs, tag, 0, 3, vec![app(3, 0, b"c")]).to_ref();
        let valid = |refs: &[EntryRef]| is_valid(&encoded(refs));
        assert!(valid(&[one.clone(), two.clone()]));
        let all = [zero, one.clone(), two.clone(), three.clone()];
        assert!(valid(&all[1..]) && valid(&all), "up to n");
        assert!(!valid(std::slice::from_ref(&one)), "too few");
        let beyond = EntryRef {
            signer: PartyId(4),
            ..three
        };
        assert!(!valid(&[all.to_vec(), vec![beyond]].concat()), "too many");
        assert!(!valid(&[one.clone(), one.clone()]), "one signer twice");
        assert!(
            !valid(&[one.clone(), two.clone(), one.clone()]),
            "one signer twice, in an n - t batch"
        );
        let other_round = signed(&ctxs, tag, 1, 2, vec![app(2, 0, b"b")]).to_ref();
        assert!(!valid(&[one.clone(), other_round]), "signed for round 1");
        let stolen = EntryRef {
            signer: PartyId(3),
            ..two.clone()
        };
        assert!(!valid(&[one.clone(), stolen]), "another party's signature");
        let far = EntryRef {
            signer: PartyId(9),
            ..two.clone()
        };
        assert!(!valid(&[one.clone(), far]), "no such party");
        let mut bytes = encoded(&[one, two]);
        bytes.push(0);
        assert!(!is_valid(&bytes), "trailing bytes");
    }

    #[test]
    fn round_flags_reset_on_advance() {
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "ac-flags");
        let mut out = Outgoing::new();
        chans[0].send(b"x".to_vec(), &mut out);
        assert!(chans[0].snapshot_json().contains("\"entry_sent\":true"));
        assert!(chans[0]
            .snapshot_json()
            .contains("\"batch_proposed\":false"));
        pump(&mut chans, vec![(0, out)]);
        assert_eq!(chans[0].round(), 1);
        assert!(chans[0].snapshot_json().contains("\"entry_sent\":false"));
        assert!(chans[0]
            .snapshot_json()
            .contains("\"batch_proposed\":false"));
    }

    // --- propose by reference: hold-back and fetch ---------------------------

    /// Each of `senders` queues one payload; returns what they broadcast.
    fn one_payload_each(chans: &mut [AtomicChannel], senders: &[usize]) -> Vec<(usize, Outgoing)> {
        senders
            .iter()
            .map(|&p| {
                let mut out = Outgoing::new();
                chans[p].send(format!("from-{p}").into_bytes(), &mut out);
                (p, out)
            })
            .collect()
    }

    fn drain_data(chan: &mut AtomicChannel) -> Vec<(usize, u64, Vec<u8>)> {
        std::iter::from_fn(|| chan.take_delivery())
            .map(|p| (p.origin.0, p.seq, p.data))
            .collect()
    }

    fn parked_total(chan: &AtomicChannel) -> usize {
        chan.rounds.values().map(|state| state.parked.len()).sum()
    }

    fn wanted_total(chan: &AtomicChannel) -> usize {
        chan.rounds.values().map(|state| state.wanted.len()).sum()
    }

    fn served_total(chan: &AtomicChannel) -> usize {
        chan.rounds.values().map(|state| state.served.len()).sum()
    }

    /// How many rounds at or after the current one have state.
    fn live_rounds(chan: &AtomicChannel) -> usize {
        chan.rounds.range(chan.rounds_delivered()..).count()
    }

    /// The delivered rounds still held, oldest first, each with its batch.
    fn retained(chan: &AtomicChannel) -> Vec<(u64, Vec<Checked<Entry>>)> {
        let delivered = chan.rounds.range(..chan.rounds_delivered());
        let batch = |s: &RoundState| s.arrived.iter().chain(&s.fetched).cloned().collect();
        delivered.map(|(round, s)| (*round, batch(s))).collect()
    }

    #[test]
    fn proposal_naming_an_entry_nobody_holds_is_never_echoed_or_decided() {
        // Party 0 is Byzantine. It signs an entry it shows to nobody and
        // proposes it next to an honest one — a valid proposal by its
        // signatures. No honest party holds the entry, so none echoes,
        // the broadcast never closes and the proposal cannot be decided.
        // A malformed entry fares the same: nobody can ever hold it.
        let ctxs = group(4, 1);
        let tag = "ac-ghost";
        let mut chans = channels(&ctxs, tag);
        let outs = one_payload_each(&mut chans, &[1, 2, 3]);
        let mut net = fifo(4, outs);
        let ghost = signed(&ctxs, tag, 0, 0, vec![app(0, 0, b"ghost")]);
        let twice = signed(&ctxs, tag, 0, 0, vec![app(0, 0, b"x"), app(0, 0, b"x")]);
        assert!(!twice.well_formed());
        let mut proposed = false;
        let mut echoes_to_the_ghost = 0;
        let mut fetches_to_the_proposer = 0;
        let mut most_parked = 0;
        while let Some(msg) = net.next() {
            if msg.to != 0 {
                net.deliver(&mut chans, msg, handle);
                most_parked = most_parked.max(chans[1..].iter().map(parked_total).max().unwrap());
                continue;
            }
            match &msg.env.body {
                Body::AcEntry { entry, .. } if !proposed => {
                    proposed = true;
                    // Two proposals from the same proposer, one per ghost.
                    for unheld in [&ghost, &twice] {
                        let (pid, body) = proposal(tag, 0, 0, &[unheld.to_ref(), entry.to_ref()]);
                        let mut out = Outgoing::new();
                        out.send_all(&pid, body);
                        net.push(0, &mut out);
                    }
                }
                Body::CbEcho(_) if msg.env.pid.as_str().ends_with("/vba/0/bc/0") => {
                    echoes_to_the_ghost += 1;
                }
                Body::AcFetch { signer, digest, .. } => {
                    assert_eq!((*signer, digest), (PartyId(0), ghost.digest()));
                    fetches_to_the_proposer += 1;
                }
                _ => {}
            }
        }
        assert!(proposed);
        assert_eq!(
            echoes_to_the_ghost, 0,
            "nobody vouches for payloads it lacks"
        );
        assert_eq!(
            fetches_to_the_proposer, 3,
            "each honest party asked it, once"
        );
        assert_eq!(most_parked, 1, "one held-back message per proposer");
        let reference = drain_data(&mut chans[1]);
        assert_eq!(reference.len(), 3, "the honest requests went through");
        assert!(reference.iter().all(|(origin, ..)| *origin != 0));
        for chan in &mut chans[2..] {
            assert_eq!(drain_data(chan), reference);
        }
        for chan in &mut chans[1..] {
            let counts = chan.take_fetch_counts();
            assert!(counts.parked >= 1 && counts.sent == 1, "{counts:?}");
            assert_eq!(chan.round(), 1, "three one-payload entries, one round");
            assert_eq!(parked_total(chan), 0, "dropped with the round");
            assert_eq!(wanted_total(chan), 0);
            assert!(!chan.has_pending_work());
        }
    }

    #[test]
    fn entry_shown_to_one_proposer_only_is_fetched_from_it() {
        // Byzantine signer 0 sends entry E1 to party 1 alone and a
        // different E2 to parties 2 and 3, then falls silent — so every
        // broadcast needs all three honest echoes. Party 1 proposes E1;
        // the others hold E2 in party 0's slot, fetch E1 from party 1,
        // echo, and party 1's broadcast closes. Whichever batch wins,
        // all three deliver the same bytes.
        let ctxs = group(4, 1);
        let tag = "ac-split";
        let mut chans = channels(&ctxs, tag);
        let outs = one_payload_each(&mut chans, &[1, 2, 3]);
        let e1 = signed(
            &ctxs,
            tag,
            0,
            0,
            vec![app(0, 0, b"one-a"), app(0, 1, b"one-b")],
        );
        let e2 = signed(&ctxs, tag, 0, 0, vec![app(0, 0, b"two")]);
        // Ahead of everything else, so E1 is what party 1 sees first and
        // — adding two payloads — picks first.
        let mut net = Pump::new(4, Choice::Fifo);
        for (to, entry) in [(3, &e2), (2, &e2), (1, &e1)] {
            let body = Body::AcEntry {
                round: 0,
                entry: entry.clone().forget(),
            };
            let mut out = Outgoing::new();
            out.send_to(PartyId(to), &ProtocolId::new(tag), body);
            net.push(0, &mut out);
        }
        net.extend(outs);
        let mut finals_of_party_one = 0;
        while let Some(msg) = net.next() {
            if msg.to == 0 {
                continue;
            }
            if matches!(msg.env.body, Body::CbFinal { .. })
                && msg.env.pid.as_str().ends_with("/vba/0/bc/1")
            {
                finals_of_party_one += 1;
            }
            net.deliver(&mut chans, msg, handle);
        }
        assert_eq!(finals_of_party_one, 3, "its broadcast closed");
        let counts: Vec<FetchCounts> = chans.iter_mut().map(|c| c.take_fetch_counts()).collect();
        assert_eq!(counts[1].served, 2, "parties 2 and 3 pulled E1 from it");
        assert_eq!((counts[2].sent, counts[3].sent), (1, 1));
        assert_eq!(counts[1].sent, 2, "and it asked both of them for E2");
        let reference = drain_data(&mut chans[1]);
        assert!(reference.len() >= 3, "{reference:?}");
        let from_zero: Vec<&[u8]> = reference
            .iter()
            .filter(|(origin, ..)| *origin == 0)
            .map(|(_, _, data)| data.as_slice())
            .collect();
        assert!(
            from_zero.is_empty()
                || from_zero == [b"one-a" as &[u8], b"one-b"]
                || from_zero == [b"two"],
            "{from_zero:?}"
        );
        for chan in &mut chans[2..] {
            assert_eq!(drain_data(chan), reference, "same bytes everywhere");
        }
    }

    #[test]
    fn deciding_a_batch_never_proposed_to_us_fetches_from_everyone() {
        // The scheduler keeps from party 3: party 0's entry, and every
        // proposal (`cb-send`), its own included. Finals, votes and the
        // binary agreement arrive, so it decides a batch holding party 0's
        // entry on the strength of a closing message alone, asks everyone
        // for the payloads, and delivers what the others deliver.
        let ctxs = group(4, 1);
        let tag = "ac-late";
        let mut chans = channels(&ctxs, tag);
        let outs = one_payload_each(&mut chans, &[0, 1, 2, 3]);
        let mut net = fifo(4, outs);
        let mut held_back = Vec::new();
        let mut asked = 0;
        while let Some(msg) = net.next() {
            let keep = match &msg.env.body {
                Body::AcEntry { round: 0, .. } => (msg.from, msg.to) == (0, 3),
                Body::CbSend(_) => msg.from == 3 || msg.to == 3,
                _ => false,
            };
            if keep {
                held_back.push(msg);
                continue;
            }
            if msg.from == 3 && matches!(msg.env.body, Body::AcFetch { .. }) {
                if asked == 0 {
                    let snapshot = chans[3].snapshot_json();
                    assert!(chans[3].has_pending_work());
                    assert!(snapshot.contains("\"batch_decided\":true"), "{snapshot}");
                    assert!(
                        snapshot.contains("\"awaiting_payloads\":[{\"signer\":0,"),
                        "{snapshot}"
                    );
                    assert!(drain_data(&mut chans[3]).is_empty());
                    assert_eq!(chans[3].round(), 0);
                }
                asked += 1;
            }
            net.deliver(&mut chans, msg, handle);
        }
        assert_eq!(asked, 3, "one request to each other party");
        let served: u64 = chans.iter_mut().map(|c| c.take_fetch_counts().served).sum();
        assert_eq!(served, 3, "every holder answered");
        assert_eq!(live_rounds(&chans[3]), 0, "extra replies left nothing");
        // What was kept back is stale by now.
        for msg in held_back {
            net.deliver(&mut chans, msg, handle);
        }
        while let Some(msg) = net.next() {
            net.deliver(&mut chans, msg, handle);
        }
        let reference = drain_data(&mut chans[0]);
        assert_eq!(reference.len(), 4);
        for chan in &mut chans[1..] {
            assert_eq!(drain_data(chan), reference);
        }
    }

    #[test]
    fn fetch_replies_nobody_asked_for_change_no_state() {
        let ctxs = group(4, 1);
        let tag = "ac-replies";
        let me = ProtocolId::new(tag);
        let mut chan = channels(&ctxs, tag).remove(1);
        // Entries of parties 2 and 3 arrive; it adopts, holds n - t and
        // proposes. With its own proposal back from the network and two
        // more seen, it asks for what those lack.
        let held = signed(&ctxs, tag, 0, 2, vec![app(2, 0, b"held")]);
        let mut own = Outgoing::new();
        let too = signed(&ctxs, tag, 0, 3, vec![app(3, 0, b"too")]);
        for (signer, entry) in [(2, held.clone()), (3, too)] {
            let entry = entry.forget();
            let body = Body::AcEntry { round: 0, entry };
            chan.handle(PartyId(signer), &me, &body, &mut own);
        }
        for (_, env) in own.drain() {
            if matches!(env.body, Body::CbSend(_)) {
                chan.handle(PartyId(1), &env.pid, &env.body, &mut Outgoing::new());
            }
        }
        assert!(chan.proposed);
        // Proposer 0 names a well-formed entry it never broadcast;
        // proposer 3 one that is validly signed and malformed.
        let wanted = signed(&ctxs, tag, 0, 0, vec![app(0, 0, b"wanted")]);
        let twice = signed(&ctxs, tag, 0, 3, vec![app(3, 0, b"x"), app(3, 0, b"x")]);
        let mut out = Outgoing::new();
        for (proposer, unheld) in [(0, &wanted), (3, &twice)] {
            let (pid, body) = proposal(tag, 0, proposer, &[unheld.to_ref(), held.to_ref()]);
            chan.handle(PartyId(proposer), &pid, &body, &mut out);
        }
        let asked: Vec<(Recipient, Body)> = out
            .drain()
            .into_iter()
            .map(|(to, env)| (to, env.body))
            .filter(|(_, body)| matches!(body, Body::AcFetch { .. }))
            .collect();
        assert_eq!(asked.len(), 2);
        assert!(matches!(
            &asked[0],
            (Recipient::One(PartyId(0)), Body::AcFetch { round: 0, signer: PartyId(0), digest }) if digest == wanted.digest()
        ));
        assert_eq!(parked_total(&chan), 2);
        let before = chan.snapshot_json();

        let other_payloads = signed(&ctxs, tag, 0, 0, vec![app(0, 0, b"other")]);
        let by_another = signed(&ctxs, tag, 0, 3, wanted.payloads().to_vec());
        let badly_signed: Unchecked<Entry> = Entry::new(
            wanted.payloads().to_vec(),
            PartyId(0),
            by_another.sig().clone(),
        )
        .into();
        assert_eq!(badly_signed.digest(), wanted.digest());
        let replies = [
            (
                "unsolicited",
                0,
                signed(&ctxs, tag, 0, 2, vec![app(2, 1, b"more")]).forget(),
            ),
            ("already held", 0, held.clone().forget()),
            ("wrong digest", 0, other_payloads.forget()),
            ("wrong signer", 0, by_another.forget()),
            ("badly signed", 0, badly_signed),
            ("malformed", 0, twice.clone().forget()),
            ("wrong round", 1, wanted.clone().forget()),
            (
                "wrong round, signed for it",
                1,
                signed(&ctxs, tag, 1, 0, wanted.payloads().to_vec()).forget(),
            ),
        ];
        for (what, round, entry) in replies {
            let mut out = Outgoing::new();
            chan.handle(PartyId(3), &me, &Body::AcFetched { round, entry }, &mut out);
            assert!(out.is_empty(), "{what}");
            assert_eq!(chan.snapshot_json(), before, "{what}");
            assert!(chan.rounds[&0].fetched.is_empty(), "{what}");
            assert_eq!(live_rounds(&chan), 1, "{what}");
        }
        // The entry asked for, from whoever has it: stored beside the
        // broadcast slots, and the proposal that waited for it goes on.
        let mut out = Outgoing::new();
        let reply = Body::AcFetched {
            round: 0,
            entry: wanted.clone().forget(),
        };
        chan.handle(PartyId(2), &me, &reply, &mut out);
        assert_eq!(chan.rounds[&0].fetched, vec![wanted]);
        assert_eq!(parked_total(&chan), 1, "the malformed one stays unheld");
        let sent: Vec<(Recipient, &'static str)> = out
            .drain()
            .into_iter()
            .map(|(to, env)| (to, env.body.kind()))
            .collect();
        assert_eq!(sent, vec![(Recipient::One(PartyId(0)), "cb-echo")]);
        // Asked and answered: a second copy is unsolicited.
        chan.handle(PartyId(0), &me, &reply, &mut out);
        assert_eq!(chan.rounds[&0].fetched.len(), 1);
    }

    /// Party 0 sends `rounds` requests one after the other, each ordered
    /// by a round of its own.
    fn run_rounds(chans: &mut [AtomicChannel], rounds: u64) {
        for i in 0..rounds {
            let mut out = Outgoing::new();
            chans[0].send(i.to_be_bytes().to_vec(), &mut out);
            pump(chans, vec![(0, out)]);
            assert!(chans
                .iter()
                .all(|c| retained(c).len() <= FETCH_RETAIN_ROUNDS));
        }
        assert!(chans.iter().all(|c| c.round() == rounds));
    }

    #[test]
    fn fetch_flood_gets_one_reply_per_requester_and_entry() {
        let ctxs = group(4, 1);
        let tag = "ac-flood";
        let me = ProtocolId::new(tag);
        let mut chans = channels(&ctxs, tag);
        run_rounds(&mut chans, 3);
        // Round 3 is under way at party 1: it holds party 0's entry.
        let mut out = Outgoing::new();
        chans[0].send(b"current".to_vec(), &mut out);
        let Some((_, env)) = out.drain().pop() else {
            panic!("an entry")
        };
        chans[1].handle(PartyId(0), &env.pid, &env.body, &mut Outgoing::new());
        let current = chans[1].rounds[&3].arrived[0].clone();
        let holder = &mut chans[1];
        holder.take_fetch_counts();
        let fetch = |round: u64, entry: &Entry| Body::AcFetch {
            round,
            signer: entry.signer(),
            digest: *entry.digest(),
        };
        let mut asks = Vec::new();
        for (round, batch) in retained(holder) {
            for entry in batch {
                asks.push((round, entry));
            }
        }
        assert_eq!(asks.len(), 3 * holder.batch_size());
        asks.push((3, current.clone()));
        let mut replies = Vec::new();
        for _ in 0..25 {
            for requester in [2, 3] {
                for (round, entry) in &asks {
                    let mut out = Outgoing::new();
                    holder.handle(PartyId(requester), &me, &fetch(*round, entry), &mut out);
                    for (to, env) in out.drain() {
                        let Body::AcFetched { round, entry } = env.body else {
                            panic!("a reply")
                        };
                        assert_eq!(to, Recipient::One(PartyId(requester)));
                        replies.push((requester, round, entry));
                    }
                }
            }
        }
        assert_eq!(
            replies.len(),
            2 * asks.len(),
            "one each, however often asked"
        );
        for requester in [2, 3] {
            for (round, entry) in &asks {
                assert!(replies.contains(&(requester, *round, entry.clone().forget())));
            }
        }
        // Nothing for what it does not hold: another round's number on a
        // held digest, a digest it never saw, a round yet to come.
        let mut out = Outgoing::new();
        holder.handle(PartyId(2), &me, &fetch(2, &current), &mut out);
        holder.handle(PartyId(2), &me, &fetch(3, &asks[0].1), &mut out);
        let unseen = signed(&ctxs, tag, 3, 3, vec![app(3, 0, b"unseen")]);
        holder.handle(PartyId(2), &me, &fetch(3, &unseen), &mut out);
        holder.handle(PartyId(2), &me, &fetch(900, &current), &mut out);
        holder.handle(PartyId(9), &me, &fetch(3, &current), &mut out);
        assert!(out.is_empty());
        let counts = holder.take_fetch_counts();
        assert_eq!(counts.served, 2 * asks.len() as u64);
        assert_eq!(counts.ignored, 24 * 2 * asks.len() as u64 + 4);
        assert_eq!(counts.sent, 0);
    }

    #[test]
    fn entry_fetched_then_broadcast_is_held_once() {
        // Party 0 is the only sender. Its entry's broadcast reaches party
        // 1 only after party 1 pulled that entry for party 0's proposal,
        // so party 1 stores it twice: fetched, then arrived.
        let ctxs = group(4, 1);
        let tag = "ac-twice";
        let me = ProtocolId::new(tag);
        let fixed = AtomicChannelConfig {
            order: CandidateOrder::Fixed,
            ..AtomicChannelConfig::default()
        };
        let mut chans: Vec<AtomicChannel> = ctxs
            .iter()
            .map(|c| AtomicChannel::new(me.clone(), c.clone(), fixed))
            .collect();
        let outs = one_payload_each(&mut chans, &[0]);
        let mut net = fifo(4, outs);
        let mut held_back = None;
        let mut held_twice = false;
        while let Some(msg) = net.next() {
            if (msg.from, msg.to) == (0, 1)
                && matches!(msg.env.body, Body::AcEntry { round: 0, .. })
            {
                held_back = Some(msg);
                continue;
            }
            let fetched_by_one = msg.to == 1 && matches!(msg.env.body, Body::AcFetched { .. });
            net.deliver(&mut chans, msg, handle);
            if let Some(entry) = held_back.take_if(|_| fetched_by_one) {
                net.deliver(&mut chans, entry, handle);
                let state = &chans[1].rounds[&0];
                let signed_by_zero = |held: &[Checked<Entry>]| {
                    held.iter().filter(|e| e.signer() == PartyId(0)).count()
                };
                held_twice = signed_by_zero(&state.arrived) == 1
                    && signed_by_zero(&state.fetched) == 1
                    && state.arrived.iter().any(|e| state.fetched.contains(e));
            }
        }
        assert!(
            held_twice,
            "party 1 held party 0's entry as fetched and arrived"
        );
        for (p, chan) in chans.iter_mut().enumerate() {
            assert_eq!(drain(chan), vec![(0, 0)], "party {p}: delivered once");
        }
        let (round, batch) = retained(&chans[1]).remove(0);
        assert_eq!(round, 0);
        let names: BTreeSet<EntryName> = batch.iter().map(|e| (e.signer(), *e.digest())).collect();
        assert_eq!(names.len(), batch.len(), "each named entry held once");
        assert_eq!(batch.len(), chans[1].batch_size());
        let zero = batch.iter().find(|e| e.signer() == PartyId(0));
        let zero = zero.expect("the batch names party 0's entry");
        for chan in &chans {
            assert_eq!(retained(chan)[0].1.len(), batch.len());
        }
        let ask = Body::AcFetch {
            round: 0,
            signer: PartyId(0),
            digest: *zero.digest(),
        };
        let mut out = Outgoing::new();
        chans[1].handle(PartyId(2), &me, &ask, &mut out);
        chans[1].handle(PartyId(2), &me, &ask, &mut out);
        assert_eq!(out.len(), 1, "two identical asks, one reply");
    }

    #[test]
    fn retention_never_exceeds_the_constant() {
        let ctxs = group(4, 1);
        let tag = "ac-retain";
        let me = ProtocolId::new(tag);
        let mut chans = channels(&ctxs, tag);
        let extra = 3;
        let mut first_batch = Vec::new();
        for round in 0..FETCH_RETAIN_ROUNDS as u64 + extra {
            if round == 1 {
                first_batch = retained(&chans[2])[0].1.clone();
                // Served while retained; the record of it goes when the
                // round does.
                let ask = Body::AcFetch {
                    round: 0,
                    signer: first_batch[0].signer(),
                    digest: *first_batch[0].digest(),
                };
                let mut out = Outgoing::new();
                chans[2].handle(PartyId(3), &me, &ask, &mut out);
                assert_eq!(out.len(), 1);
                assert_eq!(served_total(&chans[2]), 1);
            }
            let mut out = Outgoing::new();
            chans[0].send(round.to_be_bytes().to_vec(), &mut out);
            pump(&mut chans, vec![(0, out)]);
            let held = (round + 1).min(FETCH_RETAIN_ROUNDS as u64);
            for chan in &chans {
                assert!(retained(chan).len() <= FETCH_RETAIN_ROUNDS);
                assert_eq!(retained(chan).len() as u64, held);
                assert!(live_rounds(chan) == 0 && wanted_total(chan) == 0);
                // Retained rounds are no work: the stall detector stays quiet.
                assert!(!chan.has_pending_work(), "round {round}");
                let snapshot = chan.snapshot_json();
                assert!(snapshot.contains(&format!("\"retained_rounds\":{held},")));
            }
        }
        let chan = &mut chans[2];
        let kept: Vec<u64> = retained(chan).iter().map(|(round, _)| *round).collect();
        let expected: Vec<u64> = (extra..FETCH_RETAIN_ROUNDS as u64 + extra).collect();
        assert_eq!(kept, expected, "the latest rounds, oldest dropped first");
        assert!(chan
            .snapshot_json()
            .contains(&format!("\"retained_rounds\":{FETCH_RETAIN_ROUNDS}")));
        assert_eq!(served_total(chan), 0);
        // Round 0 fell out of the window: nothing for it any more.
        chan.take_fetch_counts();
        let mut out = Outgoing::new();
        for entry in &first_batch {
            let ask = Body::AcFetch {
                round: 0,
                signer: entry.signer(),
                digest: *entry.digest(),
            };
            chan.handle(PartyId(1), &me, &ask, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(chan.take_fetch_counts().ignored, first_batch.len() as u64);
    }

    #[test]
    fn a_closed_endpoint_still_answers_fetches() {
        let ctxs = group(4, 1);
        let tag = "ac-closed";
        let mut chans = channels(&ctxs, tag);
        let outs = (0..4)
            .map(|p| {
                let mut out = Outgoing::new();
                chans[p].close(&mut out);
                (p, out)
            })
            .collect();
        pump(&mut chans, outs);
        assert!(chans[1].is_closed());
        let last = retained(&chans[1]).pop().expect("the closing round");
        let ask = Body::AcFetch {
            round: last.0,
            signer: last.1[0].signer(),
            digest: *last.1[0].digest(),
        };
        let mut out = Outgoing::new();
        chans[1].handle(PartyId(2), &ProtocolId::new(tag), &ask, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    #[should_panic(expected = "closing or closed")]
    fn send_after_close_panics() {
        let ctxs = group(4, 1);
        let mut chan = AtomicChannel::new(
            ProtocolId::new("ac-sac"),
            ctxs[0].clone(),
            AtomicChannelConfig::default(),
        );
        let mut out = Outgoing::new();
        chan.close(&mut out);
        chan.send(b"too late".to_vec(), &mut out);
    }

    #[test]
    fn batch_size_respects_fairness() {
        let ctxs = group(7, 2);
        let chan = AtomicChannel::new(
            ProtocolId::new("ac-f"),
            ctxs[0].clone(),
            AtomicChannelConfig {
                fairness: Some(3), // t+1
                order: CandidateOrder::Fixed,
                ..AtomicChannelConfig::default()
            },
        );
        assert_eq!(chan.batch_size(), 7 - 3 + 1);
        let default = AtomicChannel::new(
            ProtocolId::new("ac-fd"),
            ctxs[0].clone(),
            AtomicChannelConfig::default(),
        );
        assert_eq!(default.batch_size(), 2 + 1, "paper setup: batch = t+1");
    }
}
