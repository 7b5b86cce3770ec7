//! An optimistic atomic broadcast channel (the paper's §6 "Optimized
//! protocols" future-work item, in the style of Castro–Liskov [5] and
//! Kursawe–Shoup [10]).
//!
//! The randomized atomic channel runs a multi-valued Byzantine agreement
//! every round, even when nothing is wrong. The optimistic channel instead
//! runs epochs with a designated *sequencer* (the leader, rotating by
//! epoch number):
//!
//! * **Fast path** — the leader assigns sequence numbers and disseminates
//!   each `(epoch, seq, payload)` assignment with one *reliable broadcast*
//!   ("reduce the cost of atomic broadcast essentially to a single
//!   reliable broadcast per delivered message"); parties then exchange two
//!   rounds of signed acknowledgements (prepare/commit, the PBFT pattern)
//!   and deliver at `n - t` commit acks, in sequence order.
//! * **Recovery** — when `t + 1` parties complain (a *liveness-only*
//!   timeout heuristic; no safety property depends on timing), parties
//!   exchange signed epoch states carrying their *prepared certificates*
//!   and agree on a closing cut with one multi-valued Byzantine agreement
//!   from the pessimistic stack. Quorum intersection guarantees the cut
//!   covers every payload any honest party fast-delivered. The next epoch
//!   starts under the next leader.
//!
//! As the paper notes (§5, discussing BFT), such protocols are no longer
//! *fully* asynchronous — the complaint timeout is a partial-synchrony
//! heuristic — but timeouts are confined to liveness; safety is untimed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sintra_crypto::rsa::RsaSignature;
use sintra_telemetry::{SnapshotWriter, StateSnapshot, TraceEvent};

use crate::agreement::{CandidateOrder, MultiValuedAgreement};
use crate::broadcast::ReliableBroadcast;
use crate::checked::{Checked, Unchecked};
use crate::config::GroupContext;
use crate::ids::{PartyId, ProtocolId};
use crate::invariant::OrInvariant;
use crate::message::{
    payload_digest, statement_opt_ack, statement_opt_state, Body, Payload, PayloadKind,
};
use crate::outgoing::Outgoing;
use crate::wire::{impl_wire_vec, put_seq, wire_struct, Wire};

/// Configuration of an optimistic channel.
#[derive(Debug, Clone, Copy)]
pub struct OptimisticChannelConfig {
    /// Complaint timeout in (virtual or real) milliseconds: how long a
    /// party waits without progress, while work is outstanding, before
    /// suspecting the leader. Liveness heuristic only.
    pub complaint_timeout_ms: u64,
    /// Candidate order for the recovery agreement.
    pub recovery_order: CandidateOrder,
}

impl Default for OptimisticChannelConfig {
    fn default() -> Self {
        OptimisticChannelConfig {
            complaint_timeout_ms: 2_000,
            recovery_order: CandidateOrder::LocalRandom,
        }
    }
}

/// A payload with its leader-assigned slot and the prepared certificate
/// (`n - t` phase-1 acknowledgement signatures) proving the assignment.
/// On the wire its signatures are unchecked; what a party keeps is the
/// same with `S = Checked<RsaSignature>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedEntry<S = Unchecked<RsaSignature>> {
    /// Leader-assigned sequence number within the epoch.
    pub seq: u64,
    /// The ordered payload.
    pub payload: Payload,
    /// `(signer, signature)` pairs over the phase-1 ack statement.
    pub cert: Vec<(usize, S)>,
}

impl PreparedEntry<Checked<RsaSignature>> {
    fn forget(self) -> PreparedEntry {
        PreparedEntry {
            seq: self.seq,
            payload: self.payload,
            cert: self
                .cert
                .into_iter()
                .map(|(i, sig)| (i, sig.forget()))
                .collect(),
        }
    }
}

wire_struct!(PreparedEntry {
    seq: u64,
    payload: Payload,
    cert: Vec<(usize, Unchecked<RsaSignature>)> [max 1024],
});

/// A party's signed view of an epoch at recovery time: every entry it has
/// *prepared*, with certificates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochState<S = Unchecked<RsaSignature>> {
    /// The epoch this state describes.
    pub epoch: u64,
    /// The state's author.
    pub sender: PartyId,
    /// Prepared entries, ascending by sequence number.
    pub entries: Vec<PreparedEntry<S>>,
    /// Author's signature over the state statement.
    pub sig: S,
}

impl EpochState<Checked<RsaSignature>> {
    fn forget(self) -> EpochState {
        EpochState {
            epoch: self.epoch,
            sender: self.sender,
            entries: self
                .entries
                .into_iter()
                .map(PreparedEntry::forget)
                .collect(),
            sig: self.sig.forget(),
        }
    }
}

impl EpochState {
    fn entries_digest(entries: &[PreparedEntry]) -> [u8; 32] {
        let mut buf = Vec::new();
        put_seq(&mut buf, entries);
        payload_digest(&buf)
    }
}

wire_struct!(EpochState {
    epoch: u64,
    sender: PartyId,
    entries: Vec<PreparedEntry> [max 65_536],
    sig: Unchecked<RsaSignature>,
});

/// The recovery agreement's subject: `n - t` signed epoch states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RecoverySet(Vec<EpochState>);

wire_struct!(RecoverySet { 0: Vec<EpochState> [max 1024] });

impl_wire_vec!(PreparedEntry, EpochState, (usize, Unchecked<RsaSignature>));

/// Checks one epoch state — author signature plus every entry's prepared
/// certificate — and yields it as checked.
fn validate_state(
    pid: &ProtocolId,
    ctx: &GroupContext,
    epoch: u64,
    state: &EpochState,
) -> Option<EpochState<Checked<RsaSignature>>> {
    if state.epoch != epoch {
        return None;
    }
    let digest = EpochState::entries_digest(&state.entries);
    let statement = statement_opt_state(pid, epoch, &digest);
    let sig = ctx.check_party_sig(state.sender, &statement, &state.sig)?;
    let mut entries = Vec::with_capacity(state.entries.len());
    for entry in &state.entries {
        let payload_bytes = entry.payload.to_bytes();
        let d = payload_digest(&payload_bytes);
        let statement = statement_opt_ack(pid, 1, epoch, entry.seq, &d);
        let mut seen = BTreeSet::new();
        let mut cert = Vec::with_capacity(entry.cert.len());
        for (idx, sig) in &entry.cert {
            if !seen.insert(*idx) {
                return None;
            }
            cert.push((*idx, ctx.check_party_sig(PartyId(*idx), &statement, sig)?));
        }
        if cert.len() < ctx.n_minus_t() {
            return None;
        }
        entries.push(PreparedEntry {
            seq: entry.seq,
            payload: entry.payload.clone(),
            cert,
        });
    }
    Some(EpochState {
        epoch,
        sender: state.sender,
        entries,
        sig,
    })
}

/// One phase's acknowledgements of a slot: signer -> (digest, signature).
type Acks = BTreeMap<usize, ([u8; 32], Checked<RsaSignature>)>;

/// Per-sequence fast-path bookkeeping.
#[derive(Debug, Default)]
struct SlotAcks {
    /// Per phase (index 0 = phase 1).
    acks: [Acks; 2],
    ack_sent: [bool; 2],
}

/// An optimistic atomic broadcast channel endpoint.
#[derive(Debug)]
pub struct OptimisticChannel {
    pid: ProtocolId,
    ctx: GroupContext,
    config: OptimisticChannelConfig,
    epoch: u64,
    /// Own payload counter.
    next_seq: u64,
    /// Submissions known (own and others'), undelivered.
    known: BTreeMap<(PartyId, u64), Payload>,
    delivered: BTreeSet<(PartyId, u64)>,
    deliveries: VecDeque<Payload>,
    delivery_count: u64,
    /// Monotone counter of *any* fast-path advancement (orders, prepares,
    /// commits, deliveries): the complaint timer only fires when this is
    /// stuck, so a long pipeline in progress is not mistaken for a dead
    /// leader.
    progress: u64,
    // --- fast path (current epoch) ---
    /// Leader role: payloads already assigned a slot this epoch.
    assigned: BTreeSet<(PartyId, u64)>,
    next_assign: u64,
    /// Order-dissemination broadcasts by slot.
    rbs: BTreeMap<u64, ReliableBroadcast>,
    /// Reliable-broadcast-delivered orders by slot.
    orders: BTreeMap<u64, Payload>,
    slots: BTreeMap<u64, SlotAcks>,
    prepared: BTreeMap<u64, PreparedEntry<Checked<RsaSignature>>>,
    committed: BTreeMap<u64, Payload>,
    next_deliver: u64,
    // --- complaints & recovery ---
    complained: bool,
    complainers: BTreeSet<PartyId>,
    in_recovery: bool,
    state_sent: bool,
    states: BTreeMap<PartyId, EpochState<Checked<RsaSignature>>>,
    recovery: Option<MultiValuedAgreement>,
    recovery_proposed: bool,
    // --- timer ---
    timer_armed: bool,
    progress_at_arm: u64,
    // --- close ---
    close_requested: bool,
    close_origins: BTreeSet<PartyId>,
    closed: bool,
    closed_taken: bool,
}

impl OptimisticChannel {
    /// Opens a channel endpoint.
    pub fn new(pid: ProtocolId, ctx: GroupContext, config: OptimisticChannelConfig) -> Self {
        OptimisticChannel {
            pid,
            ctx,
            config,
            epoch: 0,
            next_seq: 0,
            known: BTreeMap::new(),
            delivered: BTreeSet::new(),
            deliveries: VecDeque::new(),
            delivery_count: 0,
            progress: 0,
            assigned: BTreeSet::new(),
            next_assign: 0,
            rbs: BTreeMap::new(),
            orders: BTreeMap::new(),
            slots: BTreeMap::new(),
            prepared: BTreeMap::new(),
            committed: BTreeMap::new(),
            next_deliver: 0,
            complained: false,
            complainers: BTreeSet::new(),
            in_recovery: false,
            state_sent: false,
            states: BTreeMap::new(),
            recovery: None,
            recovery_proposed: false,
            timer_armed: false,
            progress_at_arm: 0,
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

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current epoch's leader (sequencer).
    // The remainder is below `n`, a `usize`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn leader(&self) -> PartyId {
        PartyId((self.epoch % self.ctx.n() as u64) as usize)
    }

    /// Whether `send` is currently allowed.
    pub fn can_send(&self) -> bool {
        !self.close_requested && !self.closed
    }

    /// Whether a delivery is waiting.
    pub fn can_receive(&self) -> bool {
        !self.deliveries.is_empty()
    }

    /// Takes the next delivered payload, in total order.
    pub fn take_delivery(&mut self) -> Option<Payload> {
        self.deliveries.pop_front()
    }

    /// Whether the channel has terminated.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Returns `true` exactly once upon termination.
    pub fn take_closed(&mut self) -> bool {
        if self.closed && !self.closed_taken {
            self.closed_taken = true;
            true
        } else {
            false
        }
    }

    /// Queues a payload for total-order delivery.
    ///
    /// # Panics
    ///
    /// Panics after `close` has been called.
    pub fn send(&mut self, data: Vec<u8>, out: &mut Outgoing) {
        assert!(self.can_send(), "channel is closing or closed");
        let payload = Payload {
            origin: self.ctx.me(),
            seq: self.next_seq,
            kind: PayloadKind::App,
            data,
        };
        self.next_seq += 1;
        self.submit_own(payload, out);
    }

    /// Requests channel termination (a termination request is this party's
    /// last payload; `t + 1` delivered requests close the channel).
    pub fn close(&mut self, out: &mut Outgoing) {
        if self.close_requested || self.closed {
            return;
        }
        self.close_requested = true;
        let payload = Payload {
            origin: self.ctx.me(),
            seq: self.next_seq,
            kind: PayloadKind::Close,
            data: Vec::new(),
        };
        self.next_seq += 1;
        self.submit_own(payload, out);
    }

    fn submit_own(&mut self, payload: Payload, out: &mut Outgoing) {
        self.known
            .insert((payload.origin, payload.seq), payload.clone());
        // Broadcast the submission so every party can hold the leader
        // accountable for it (the complaint trigger needs global
        // knowledge of outstanding work).
        out.send_all(&self.pid, Body::OptSubmit { payload });
        self.arm_timer(out);
    }

    fn arm_timer(&mut self, out: &mut Outgoing) {
        if self.timer_armed || self.closed {
            return;
        }
        self.timer_armed = true;
        self.progress_at_arm = self.progress;
        out.set_timer(&self.pid, self.epoch, self.config.complaint_timeout_ms);
    }

    fn has_work(&self) -> bool {
        self.known.keys().any(|id| !self.delivered.contains(id))
            || self.orders.keys().any(|s| *s >= self.next_deliver)
    }

    /// Timer expiry: complain if no progress happened while work is
    /// outstanding.
    pub fn handle_timer(&mut self, token: u64, out: &mut Outgoing) {
        self.timer_armed = false;
        if self.closed || token != self.epoch {
            return;
        }
        if !self.has_work() {
            return; // quiescent: do not re-arm
        }
        if self.progress == self.progress_at_arm && !self.in_recovery && !self.complained {
            self.complained = true;
            out.send_all(&self.pid, Body::OptComplain { epoch: self.epoch });
            // Count our own complaint immediately (the self-copy also
            // arrives through the network, idempotently).
            self.complainers.insert(self.ctx.me());
            self.maybe_enter_recovery(out);
        }
        self.arm_timer(out);
    }

    fn rb_pid(&self, epoch: u64, seq: u64) -> ProtocolId {
        self.pid.child(format!("rb/{epoch}/{seq}"))
    }

    /// Leader: assign slots to all known undelivered, unassigned payloads.
    fn assign_known(&mut self, out: &mut Outgoing) {
        if self.leader() != self.ctx.me() || self.in_recovery || self.closed {
            return;
        }
        let mut todo: Vec<Payload> = self
            .known
            .iter()
            .filter(|(id, _)| !self.delivered.contains(id) && !self.assigned.contains(id))
            .map(|(_, p)| p.clone())
            .collect();
        todo.sort_by_key(|p| (p.origin, p.seq));
        for payload in todo {
            self.assigned.insert((payload.origin, payload.seq));
            let seq = self.next_assign;
            self.next_assign += 1;
            let rb_pid = self.rb_pid(self.epoch, seq);
            let rb = self
                .rbs
                .entry(seq)
                .or_insert_with(|| ReliableBroadcast::new(rb_pid, self.ctx.clone(), self.ctx.me()));
            rb.send(payload.to_bytes(), out);
        }
    }

    /// Processes a protocol message addressed to this channel or one of
    /// its children.
    pub fn handle(&mut self, from: PartyId, msg_pid: &ProtocolId, body: &Body, out: &mut Outgoing) {
        if self.closed || !self.ctx.is_valid_party(from) {
            return;
        }
        if *msg_pid == self.pid {
            match body {
                Body::OptSubmit { payload } => self.on_submit(from, payload, out),
                Body::OptAck {
                    phase,
                    epoch,
                    seq,
                    digest,
                    sig,
                } => self.on_ack(from, *phase, *epoch, *seq, digest, sig, out),
                Body::OptComplain { epoch } if *epoch == self.epoch => {
                    self.complainers.insert(from);
                    self.maybe_enter_recovery(out);
                }
                Body::OptState { epoch, state } => self.on_state(from, *epoch, state, out),
                _ => {}
            }
            return;
        }
        // Order-dissemination broadcasts: {pid}/rb/{epoch}/{seq}.
        if let Some((e, s)) = self.parse_rb_child(msg_pid) {
            if e == self.epoch && !self.in_recovery {
                // Any traffic for the current epoch's broadcasts counts as
                // liveness progress: the complaint timer should only fire
                // when the epoch has gone *quiet*, not merely when a wide
                // pipeline has not completed a slot yet. (A Byzantine
                // leader can exploit this to stall by trickling traffic —
                // a throughput attack all sequencer-based protocols share;
                // the timeout remains a heuristic, as the paper notes.)
                self.progress += 1;
                let rb_pid = self.rb_pid(e, s);
                let leader = self.leader();
                let ctx = self.ctx.clone();
                let rb = self
                    .rbs
                    .entry(s)
                    .or_insert_with(|| ReliableBroadcast::new(rb_pid, ctx, leader));
                rb.handle(from, body, out);
                if let Some(bytes) = self.rbs.get_mut(&s).and_then(|rb| rb.take_delivery()) {
                    self.on_order(s, &bytes, out);
                }
            }
            return;
        }
        // Recovery agreement: {pid}/rec/{epoch}.
        if let Some(e) = self.parse_rec_child(msg_pid) {
            if e == self.epoch {
                self.with_recovery(|rec, valid| rec.handle(valid, from, msg_pid, body, out));
                self.check_recovery_decision(out);
            }
        }
    }

    fn parse_rb_child(&self, msg_pid: &ProtocolId) -> Option<(u64, u64)> {
        let rest = msg_pid.as_str().strip_prefix(self.pid.as_str())?;
        let rest = rest.strip_prefix("/rb/")?;
        let (e, s) = rest.split_once('/')?;
        Some((e.parse().ok()?, s.parse().ok()?))
    }

    fn parse_rec_child(&self, msg_pid: &ProtocolId) -> Option<u64> {
        let rest = msg_pid.as_str().strip_prefix(self.pid.as_str())?;
        let rest = rest.strip_prefix("/rec/")?;
        match rest.find('/') {
            Some(idx) => rest[..idx].parse().ok(),
            None => rest.parse().ok(),
        }
    }

    fn on_submit(&mut self, _from: PartyId, payload: &Payload, out: &mut Outgoing) {
        let id = (payload.origin, payload.seq);
        if self.delivered.contains(&id) {
            return;
        }
        self.known.entry(id).or_insert_with(|| payload.clone());
        self.assign_known(out);
        self.arm_timer(out);
    }

    /// An order assignment was reliably delivered for `seq`.
    fn on_order(&mut self, seq: u64, payload_bytes: &[u8], out: &mut Outgoing) {
        let Ok(payload) = Payload::from_bytes(payload_bytes) else {
            return; // malformed order from a Byzantine leader: ignore
        };
        self.orders.insert(seq, payload);
        self.progress += 1;
        let digest = payload_digest(payload_bytes);
        self.send_ack(1, seq, digest, out);
        self.check_slot(seq, out);
        self.arm_timer(out);
    }

    fn send_ack(&mut self, phase: u8, seq: u64, digest: [u8; 32], out: &mut Outgoing) {
        let slot = self.slots.entry(seq).or_default();
        if slot.ack_sent[(phase - 1) as usize] {
            return;
        }
        slot.ack_sent[(phase - 1) as usize] = true;
        let statement = statement_opt_ack(&self.pid, phase, self.epoch, seq, &digest);
        let sig = self.ctx.keys().sig_key.sign(&statement).into();
        out.send_all(
            &self.pid,
            Body::OptAck {
                phase,
                epoch: self.epoch,
                seq,
                digest,
                sig,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_ack(
        &mut self,
        from: PartyId,
        phase: u8,
        epoch: u64,
        seq: u64,
        digest: &[u8; 32],
        sig: &Unchecked<RsaSignature>,
        out: &mut Outgoing,
    ) {
        if epoch != self.epoch || self.in_recovery || !(1..=2).contains(&phase) {
            return;
        }
        let statement = statement_opt_ack(&self.pid, phase, epoch, seq, digest);
        let Some(sig) = self.ctx.check_party_sig(from, &statement, sig) else {
            return;
        };
        self.progress += 1;
        let slot = self.slots.entry(seq).or_default();
        slot.acks[(phase - 1) as usize]
            .entry(from.0)
            .or_insert((*digest, sig));
        self.check_slot(seq, out);
    }

    /// Advances a slot through prepare/commit as acknowledgements arrive.
    fn check_slot(&mut self, seq: u64, out: &mut Outgoing) {
        let Some(order) = self.orders.get(&seq).cloned() else {
            return;
        };
        let order_digest = payload_digest(&order.to_bytes());
        let quorum = self.ctx.n_minus_t();

        // Phase 1 -> prepared.
        if !self.prepared.contains_key(&seq) {
            if let Some(slot) = self.slots.get(&seq) {
                let cert: Vec<(usize, Checked<RsaSignature>)> = slot.acks[0]
                    .iter()
                    .filter(|(_, (d, _))| *d == order_digest)
                    .map(|(idx, (_, sig))| (*idx, sig.clone()))
                    .collect();
                if cert.len() >= quorum {
                    self.prepared.insert(
                        seq,
                        PreparedEntry {
                            seq,
                            payload: order.clone(),
                            cert,
                        },
                    );
                    self.progress += 1;
                    self.send_ack(2, seq, order_digest, out);
                }
            }
        }

        // Phase 2 -> committed.
        if self.prepared.contains_key(&seq) && !self.committed.contains_key(&seq) {
            if let Some(slot) = self.slots.get(&seq) {
                let commits = slot.acks[1]
                    .values()
                    .filter(|(d, _)| *d == order_digest)
                    .count();
                if commits >= quorum {
                    self.committed.insert(seq, order);
                    self.progress += 1;
                }
            }
        }
        self.deliver_committed(out);
    }

    /// Delivers committed slots in contiguous sequence order.
    fn deliver_committed(&mut self, out: &mut Outgoing) {
        while let Some(payload) = self.committed.get(&self.next_deliver).cloned() {
            self.next_deliver += 1;
            self.deliver(payload);
        }
        if self.close_origins.len() > self.ctx.fault_budget() {
            self.closed = true;
        } else if self.has_work() {
            self.arm_timer(out);
        }
    }

    fn deliver(&mut self, payload: Payload) {
        let id = (payload.origin, payload.seq);
        if !self.delivered.insert(id) {
            return;
        }
        self.known.remove(&id);
        self.delivery_count += 1;
        self.progress += 1;
        match payload.kind {
            PayloadKind::App => self.deliveries.push_back(payload),
            PayloadKind::Close => {
                self.close_origins.insert(payload.origin);
            }
        }
    }

    fn maybe_enter_recovery(&mut self, out: &mut Outgoing) {
        if self.in_recovery || self.closed || self.complainers.len() <= self.ctx.fault_budget() {
            return;
        }
        self.in_recovery = true;
        if !self.state_sent {
            self.state_sent = true;
            let prepared = self.prepared.values().cloned();
            let entries: Vec<PreparedEntry> = prepared.map(PreparedEntry::forget).collect();
            let digest = EpochState::entries_digest(&entries);
            let statement = statement_opt_state(&self.pid, self.epoch, &digest);
            let sig = self.ctx.keys().sig_key.sign(&statement).into();
            let state = EpochState {
                epoch: self.epoch,
                sender: self.ctx.me(),
                entries,
                sig,
            };
            out.send_all(
                &self.pid,
                Body::OptState {
                    epoch: self.epoch,
                    state: state.to_bytes(),
                },
            );
        }
        self.maybe_propose_recovery(out);
    }

    fn on_state(&mut self, from: PartyId, epoch: u64, bytes: &[u8], out: &mut Outgoing) {
        if epoch != self.epoch || self.states.contains_key(&from) {
            return;
        }
        let Ok(state) = EpochState::from_bytes(bytes) else {
            return;
        };
        if state.sender != from {
            return;
        }
        let Some(state) = validate_state(&self.pid, &self.ctx, epoch, &state) else {
            return;
        };
        self.states.insert(from, state);
        // A valid state is an implicit complaint: its author is already
        // recovering.
        self.complainers.insert(from);
        self.maybe_enter_recovery(out);
        self.maybe_propose_recovery(out);
    }

    /// Runs `f` on this epoch's recovery agreement, made on its first use,
    /// with its external validity: at least `n - t` epoch states, of
    /// distinct senders, each valid for this epoch.
    fn with_recovery(&mut self, f: impl FnOnce(&mut MultiValuedAgreement, &dyn Fn(&[u8]) -> bool)) {
        let (pid, ctx, epoch) = (&self.pid, &self.ctx, self.epoch);
        let rec = self.recovery.get_or_insert_with(|| {
            let rec_pid = pid.child(format!("rec/{epoch}"));
            MultiValuedAgreement::new(rec_pid, ctx.clone(), self.config.recovery_order)
        });
        f(rec, &|bytes| {
            let Ok(set) = RecoverySet::from_bytes(bytes) else {
                return false;
            };
            if set.0.len() < ctx.n_minus_t() {
                return false;
            }
            let mut senders = BTreeSet::new();
            set.0
                .iter()
                .all(|s| senders.insert(s.sender) && validate_state(pid, ctx, epoch, s).is_some())
        });
    }

    fn maybe_propose_recovery(&mut self, out: &mut Outgoing) {
        if !self.in_recovery || self.recovery_proposed || self.states.len() < self.ctx.n_minus_t() {
            return;
        }
        self.recovery_proposed = true;
        let states = self.states.values().cloned();
        let mut states: Vec<EpochState> = states.map(EpochState::forget).collect();
        states.sort_by_key(|s| s.sender);
        states.truncate(self.ctx.n_minus_t());
        let set = RecoverySet(states).to_bytes();
        self.with_recovery(|rec, valid| rec.propose(valid, set, out));
        self.check_recovery_decision(out);
    }

    fn check_recovery_decision(&mut self, out: &mut Outgoing) {
        let Some(rec) = &mut self.recovery else {
            return;
        };
        let Some(decided) = rec.take_decision() else {
            return;
        };
        let set = RecoverySet::from_bytes(&decided)
            .or_invariant("externally validated recovery set failed to decode");
        // The cut: every prepared entry exhibited by the decided set.
        let mut carried: BTreeMap<u64, Payload> = BTreeMap::new();
        for state in &set.0 {
            for entry in &state.entries {
                carried
                    .entry(entry.seq)
                    .or_insert_with(|| entry.payload.clone());
            }
        }
        for (_, payload) in carried {
            self.deliver(payload);
        }
        // Start the next epoch under the next leader.
        self.epoch += 1;
        out.trace_with(|| {
            TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "opt")
                .phase("epoch")
                .round(self.epoch)
        });
        self.assigned.clear();
        self.next_assign = 0;
        self.rbs.clear();
        self.orders.clear();
        self.slots.clear();
        self.prepared.clear();
        self.committed.clear();
        self.next_deliver = 0;
        self.complained = false;
        self.complainers.clear();
        self.in_recovery = false;
        self.state_sent = false;
        self.states.clear();
        self.recovery = None;
        self.recovery_proposed = false;
        self.known.retain(|id, _| !self.delivered.contains(id));
        if self.close_origins.len() > self.ctx.fault_budget() {
            self.closed = true;
            return;
        }
        // Resubmit own outstanding payloads; the new leader assigns every
        // known undelivered payload immediately.
        let me = self.ctx.me();
        let own: Vec<Payload> = self
            .known
            .values()
            .filter(|p| p.origin == me)
            .cloned()
            .collect();
        for payload in own {
            out.send_all(&self.pid, Body::OptSubmit { payload });
        }
        self.assign_known(out);
        if self.has_work() {
            self.timer_armed = false;
            self.arm_timer(out);
        }
    }
}

impl StateSnapshot for OptimisticChannel {
    fn has_pending_work(&self) -> bool {
        !self.closed && (self.has_work() || self.close_requested || self.in_recovery)
    }

    fn snapshot_json(&self) -> String {
        let undelivered = self
            .known
            .keys()
            .filter(|id| !self.delivered.contains(*id))
            .count() as u64;
        let mut w = SnapshotWriter::new(self.pid.as_str(), "optimistic")
            .num("epoch", self.epoch)
            .num("undelivered_known", undelivered)
            .num("next_deliver", self.next_deliver)
            .num("orders", self.orders.len() as u64)
            .num("prepared", self.prepared.len() as u64)
            .num("committed", self.committed.len() as u64)
            .num("delivery_count", self.delivery_count)
            .num("progress", self.progress)
            .flag("complained", self.complained)
            .num("complainers", self.complainers.len() as u64)
            .num("complaint_quorum", self.ctx.one_honest() as u64)
            .flag("in_recovery", self.in_recovery)
            .flag("state_sent", self.state_sent)
            .num("epoch_states", self.states.len() as u64)
            .flag("timer_armed", self.timer_armed)
            .flag("close_requested", self.close_requested)
            .num("close_origins", self.close_origins.len() as u64)
            .flag("closed", self.closed);
        if let Some(recovery) = &self.recovery {
            w = w.raw("recovery_vba", &recovery.snapshot_json());
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outgoing::{Recipient, TimerRequest};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sintra_crypto::dealer::{deal, DealerConfig};
    use std::collections::BinaryHeap;
    use std::sync::Arc;

    fn group(n: usize, t: usize) -> Vec<GroupContext> {
        let mut rng = StdRng::seed_from_u64(67);
        deal(&DealerConfig::small(n, t), &mut rng)
            .unwrap()
            .into_iter()
            .map(|k| GroupContext::new(Arc::new(k)))
            .collect()
    }

    fn channels(ctxs: &[GroupContext], tag: &str) -> Vec<OptimisticChannel> {
        ctxs.iter()
            .map(|c| {
                OptimisticChannel::new(
                    ProtocolId::new(tag),
                    c.clone(),
                    OptimisticChannelConfig::default(),
                )
            })
            .collect()
    }

    /// A miniature event loop with virtual time: messages take 1 time
    /// unit (per hop), timers their requested delay. `silent` parties
    /// drop all their traffic (crash).
    fn pump(chans: &mut [OptimisticChannel], outs: Vec<(usize, Outgoing)>, silent: &[usize]) {
        #[derive(PartialEq, Eq)]
        struct Ev(
            std::cmp::Reverse<(u64, u64)>,
            usize,
            Option<(PartyId, ProtocolId, Body)>,
            u64,
        );
        impl PartialOrd for Ev {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Ev {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.cmp(&other.0)
            }
        }
        let n = chans.len();
        let mut heap: BinaryHeap<Ev> = BinaryHeap::new();
        let mut seq = 0u64;
        let push_out = |heap: &mut BinaryHeap<Ev>,
                        seq: &mut u64,
                        clock: u64,
                        from: usize,
                        mut out: Outgoing| {
            if silent.contains(&from) {
                return;
            }
            for (recipient, env) in out.drain() {
                let targets: Vec<usize> = match recipient {
                    Recipient::All => (0..n).collect(),
                    Recipient::One(p) => vec![p.0],
                };
                for to in targets {
                    *seq += 1;
                    heap.push(Ev(
                        std::cmp::Reverse((clock + 1, *seq)),
                        to,
                        Some((PartyId(from), env.pid.clone(), env.body.clone())),
                        0,
                    ));
                }
            }
            for TimerRequest {
                token, delay_ms, ..
            } in out.drain_timers()
            {
                *seq += 1;
                heap.push(Ev(
                    std::cmp::Reverse((clock + delay_ms, *seq)),
                    from,
                    None,
                    token,
                ));
            }
        };
        for (from, out) in outs {
            push_out(&mut heap, &mut seq, 0, from, out);
        }
        let mut steps = 0u64;
        while let Some(Ev(std::cmp::Reverse((clock, _)), to, msg, token)) = heap.pop() {
            steps += 1;
            assert!(steps < 3_000_000, "optimistic channel did not quiesce");
            if silent.contains(&to) {
                continue;
            }
            let mut out = Outgoing::new();
            match msg {
                Some((from, pid, body)) => chans[to].handle(from, &pid, &body, &mut out),
                None => chans[to].handle_timer(token, &mut out),
            }
            push_out(&mut heap, &mut seq, clock, to, out);
        }
    }

    fn collect(chan: &mut OptimisticChannel) -> Vec<Vec<u8>> {
        let mut v = Vec::new();
        while let Some(p) = chan.take_delivery() {
            v.push(p.data);
        }
        v
    }

    #[test]
    fn fast_path_total_order() {
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "opt");
        let mut outs = Vec::new();
        for (i, chan) in chans.iter_mut().enumerate() {
            let mut out = Outgoing::new();
            for k in 0..3u8 {
                chan.send(vec![u8::try_from(i).unwrap(), k], &mut out);
            }
            outs.push((i, out));
        }
        pump(&mut chans, outs, &[]);
        let reference = collect(&mut chans[0]);
        assert_eq!(reference.len(), 12, "all payloads delivered");
        for (i, chan) in chans.iter_mut().enumerate().skip(1) {
            assert_eq!(collect(chan), reference, "party {i}");
        }
        // Still epoch 0: the fast path never failed over.
        assert!(chans.iter().all(|c| c.epoch() == 0));
    }

    #[test]
    fn crashed_leader_triggers_recovery() {
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "opt-crash");
        // Epoch 0's leader is P0; it is crashed from the start.
        let mut outs = Vec::new();
        for (i, chan) in chans.iter_mut().enumerate().skip(1) {
            let mut out = Outgoing::new();
            chan.send(format!("from-{i}").into_bytes(), &mut out);
            outs.push((i, out));
        }
        pump(&mut chans, outs, &[0]);
        let reference = collect(&mut chans[1]);
        assert_eq!(reference.len(), 3, "payloads delivered despite dead leader");
        for (i, chan) in chans.iter_mut().enumerate().skip(2) {
            assert_eq!(collect(chan), reference, "party {i}");
        }
        // The survivors moved past epoch 0.
        assert!(chans[1..].iter().all(|c| c.epoch() >= 1), "epoch advanced");
    }

    #[test]
    fn leader_crash_after_partial_progress_is_safe() {
        // The leader sequences one payload, everyone delivers it on the
        // fast path, then the leader dies before sequencing the second.
        // Recovery must preserve the first delivery and the new epoch
        // must deliver the second.
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "opt-partial");
        let mut outs = Vec::new();
        let mut out = Outgoing::new();
        chans[0].send(b"sequenced-by-P0".to_vec(), &mut out);
        outs.push((0usize, out));
        pump(&mut chans, outs, &[]);
        for chan in chans.iter_mut() {
            assert_eq!(collect(chan), vec![b"sequenced-by-P0".to_vec()]);
            assert_eq!(chan.epoch(), 0);
        }
        // Now P0 goes silent and P2 sends.
        let mut out = Outgoing::new();
        chans[2].send(b"after-crash".to_vec(), &mut out);
        pump(&mut chans, vec![(2, out)], &[0]);
        for (i, chan) in chans.iter_mut().enumerate().skip(1) {
            assert_eq!(collect(chan), vec![b"after-crash".to_vec()], "party {i}");
            assert!(chan.epoch() >= 1);
        }
    }

    #[test]
    fn close_terminates() {
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "opt-close");
        let mut outs = Vec::new();
        for (i, chan) in chans.iter_mut().enumerate() {
            let mut out = Outgoing::new();
            chan.close(&mut out);
            outs.push((i, out));
        }
        pump(&mut chans, outs, &[]);
        for (i, chan) in chans.iter_mut().enumerate() {
            assert!(chan.is_closed(), "party {i}");
            assert!(chan.take_closed());
        }
    }

    #[test]
    fn forged_state_rejected() {
        let ctxs = group(4, 1);
        let pid = ProtocolId::new("opt-forge");
        let mut chan = OptimisticChannel::new(
            pid.clone(),
            ctxs[1].clone(),
            OptimisticChannelConfig::default(),
        );
        // A state with a bogus signature must not be accepted.
        let state = EpochState {
            epoch: 0,
            sender: PartyId(2),
            entries: vec![],
            sig: RsaSignature(sintra_bigint::Ubig::from(7u64)).into(),
        };
        let mut out = Outgoing::new();
        chan.handle(
            PartyId(2),
            &pid,
            &Body::OptState {
                epoch: 0,
                state: state.to_bytes(),
            },
            &mut out,
        );
        assert!(chan.states.is_empty());
    }

    #[test]
    fn state_and_entry_wire_roundtrip() {
        let entry = PreparedEntry {
            seq: 7,
            payload: Payload {
                origin: PartyId(1),
                seq: 3,
                kind: PayloadKind::App,
                data: b"x".to_vec(),
            },
            cert: vec![(0, RsaSignature(sintra_bigint::Ubig::from(9u64)).into())],
        };
        let decoded = <PreparedEntry>::from_bytes(&entry.to_bytes()).unwrap();
        assert_eq!(decoded, entry);
        let state = EpochState {
            epoch: 2,
            sender: PartyId(3),
            entries: vec![entry],
            sig: RsaSignature(sintra_bigint::Ubig::from(11u64)).into(),
        };
        assert_eq!(<EpochState>::from_bytes(&state.to_bytes()).unwrap(), state);
    }
}
