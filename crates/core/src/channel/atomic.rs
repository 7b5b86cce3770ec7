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
//! 2. once a party holds a *batch* of `n - f + 1` entries signed by
//!    distinct parties, it proposes the batch to a multi-valued agreement
//!    whose external validity predicate checks exactly that property;
//! 3. the payloads of the agreed batch are delivered in a fixed order
//!    (entries by signer index, payloads in vector order); payload
//!    `(origin, seq)` is delivered iff `seq` is the next sequence number
//!    expected from `origin` — the paper's practical weakening of
//!    integrity, which also gives per-origin FIFO by construction.
//!
//! Nothing waits for an entry to fill: a lone request is cut into a
//! one-payload entry the moment it is sent, so one agreement orders
//! whatever the chosen parties had queued when the round began.
//!
//! Fairness: with batch size `n - f + 1`, a payload known to `f` honest
//! parties is delivered within a bounded number of rounds, because every
//! agreed batch contains at least one entry signed by one of them.
//!
//! Termination: `close` enqueues a termination request as a regular
//! payload; the channel terminates at the end of the round in which
//! requests from `t + 1` distinct parties have been delivered.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sintra_telemetry::{SnapshotWriter, StateSnapshot, TraceEvent};

use crate::agreement::{CandidateOrder, MultiValuedAgreement};
use crate::config::GroupContext;
use crate::ids::{PartyId, ProtocolId};
use crate::invariant::OrInvariant;
use crate::invariant_unwrap;
use crate::message::{
    statement_entry, Body, Entry, Payload, PayloadKind, MAX_ENTRY_BYTES, MAX_ENTRY_PAYLOADS,
};
use crate::outgoing::Outgoing;
use crate::validator::ArrayValidator;
use crate::wire::Wire;

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
}

impl Default for AtomicChannelConfig {
    fn default() -> Self {
        AtomicChannelConfig {
            fairness: None,
            order: CandidateOrder::LocalRandom,
            max_entry_payloads: MAX_ENTRY_PAYLOADS,
        }
    }
}

/// An atomic broadcast channel endpoint at one party.
#[derive(Debug)]
pub struct AtomicChannel {
    pid: ProtocolId,
    ctx: GroupContext,
    batch_size: usize,
    order: CandidateOrder,
    max_entry_payloads: usize,
    round: u64,
    /// Own payloads not yet delivered, numbered contiguously.
    queue: VecDeque<Payload>,
    next_seq: u64,
    /// Per origin, the sequence number delivered next (the integrity
    /// filter): `(o, s)` is delivered iff `s == next_deliver[o]`.
    next_deliver: Vec<u64>,
    /// Application deliveries not yet drained by the runtime.
    deliveries: VecDeque<Payload>,
    /// Valid entries by round, in arrival order (the paper: "the protocol
    /// considers the messages in the order in which they arrive in the
    /// current round"), at most one per signer.
    entries: BTreeMap<u64, Vec<Entry>>,
    /// Whether we broadcast our own entry for the current round.
    sent_entry: bool,
    /// Whether we proposed a batch for the current round.
    proposed: bool,
    vbas: BTreeMap<u64, MultiValuedAgreement>,
    close_requested: bool,
    /// Origins whose termination requests have been delivered.
    close_origins: BTreeSet<PartyId>,
    closed: bool,
    closed_taken: bool,
}

/// Wire container for a batch of entries.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Batch(Vec<Entry>);

impl Wire for Batch {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.0.len() as u32).to_be_bytes());
        for e in &self.0 {
            e.encode(buf);
        }
    }
    fn decode(r: &mut crate::wire::Reader<'_>) -> Result<Self, crate::wire::WireError> {
        let len = r.u32()? as usize;
        if len > 4096 {
            return Err(crate::wire::WireError::LengthOverflow);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(Entry::decode(r)?);
        }
        Ok(Batch(out))
    }
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
        .payloads
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
        AtomicChannel {
            pid,
            next_deliver: vec![0; ctx.n()],
            ctx,
            batch_size,
            order: config.order,
            max_entry_payloads: config.max_entry_payloads,
            round: 0,
            queue: VecDeque::new(),
            next_seq: 0,
            deliveries: VecDeque::new(),
            entries: BTreeMap::new(),
            sent_entry: false,
            proposed: false,
            vbas: BTreeMap::new(),
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

    /// The configured batch size `n - f + 1`.
    pub fn batch_size(&self) -> usize {
        self.batch_size
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
        self.deliveries.pop_front()
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

    fn batch_validator(&self, round: u64) -> ArrayValidator {
        let pid = self.pid.clone();
        let batch_size = self.batch_size;
        let keys: Vec<_> = self.ctx.keys().common.sig_publics.clone();
        ArrayValidator::new(move |bytes| {
            // Decoding already rejects entries that are not well formed.
            let Ok(batch) = Batch::from_bytes(bytes) else {
                return false;
            };
            if batch.0.len() != batch_size {
                return false;
            }
            let mut signers = BTreeSet::new();
            for entry in &batch.0 {
                if entry.signer.0 >= keys.len() || !signers.insert(entry.signer) {
                    return false;
                }
                let statement = statement_entry(&pid, round, &entry.payloads);
                if !keys[entry.signer.0].verify(&statement, &entry.sig) {
                    return false;
                }
            }
            true
        })
    }

    fn vba_instance(&mut self, round: u64) -> &mut MultiValuedAgreement {
        if !self.vbas.contains_key(&round) {
            let vba = MultiValuedAgreement::new(
                self.pid.child(format!("vba/{round}")),
                self.ctx.clone(),
                self.batch_validator(round),
                self.order,
            );
            self.vbas.insert(round, vba);
        }
        invariant_unwrap!(
            self.vbas.get_mut(&round),
            "vba for round {round} missing after insert"
        )
    }

    /// Processes a protocol message addressed to this channel or one of
    /// its agreement children.
    pub fn handle(&mut self, from: PartyId, msg_pid: &ProtocolId, body: &Body, out: &mut Outgoing) {
        if self.closed || !self.ctx.is_valid_party(from) {
            return;
        }
        if *msg_pid == self.pid {
            if let Body::AcEntry { round, entry } = body {
                self.on_entry(from, *round, entry);
            }
        } else if let Some(round) = Self::parse_vba_child(&self.pid, msg_pid) {
            // Ignore stale rounds entirely.
            if round >= self.round {
                let vba = self.vba_instance(round);
                vba.handle(from, msg_pid, body, out);
            }
        }
        self.try_advance(out);
    }

    fn parse_vba_child(parent: &ProtocolId, msg_pid: &ProtocolId) -> Option<u64> {
        let rest = msg_pid.as_str().strip_prefix(parent.as_str())?;
        let rest = rest.strip_prefix("/vba/")?;
        match rest.find('/') {
            Some(idx) => rest[..idx].parse().ok(),
            None => rest.parse().ok(),
        }
    }

    fn on_entry(&mut self, from: PartyId, round: u64, entry: &Entry) {
        // Entries are broadcast by their signer.
        if entry.signer != from || round < self.round || !entry.well_formed() {
            return;
        }
        if self
            .entries
            .get(&round)
            .is_some_and(|es| es.iter().any(|e| e.signer == from))
        {
            return;
        }
        // An entry that can add nothing is not worth a signature check.
        if !entry.payloads.iter().any(|p| self.is_undelivered(p)) {
            return;
        }
        let statement = statement_entry(&self.pid, round, &entry.payloads);
        if !self
            .ctx
            .verify_party_sig_cached(from, &statement, &entry.sig)
        {
            return;
        }
        // The round slot is only created once the signature checked out,
        // so forged entries cannot grow the per-round map.
        self.entries.entry(round).or_default().push(entry.clone());
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
        self.entries.get(&self.round)?.iter().find_map(|entry| {
            let adopted: Vec<Payload> = entry
                .payloads
                .iter()
                .filter(|p| self.is_undelivered(p))
                .take(self.max_entry_payloads)
                .cloned()
                .collect();
            (!adopted.is_empty()).then_some(adopted)
        })
    }

    /// Picks the proposal's `batch_size` entries: greedily the entry that
    /// adds the most payloads not yet covered by the ones picked before
    /// it, ties by arrival order. With one payload per entry this is
    /// "distinct payloads in arrival order, padded with duplicates".
    /// Any `batch_size` validly signed entries are a valid batch, so the
    /// choice affects only how much a round delivers — and a party passed
    /// over in one round holds the largest entry in the next.
    fn select_batch(&self, all: &[Entry]) -> Vec<Entry> {
        let mut covered = self.next_deliver.clone();
        let mut picked: Vec<usize> = Vec::with_capacity(self.batch_size);
        for _ in 0..self.batch_size {
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
            let Some((i, _)) = best else { break };
            count_deliverable(&all[i], &mut covered);
            picked.push(i);
        }
        picked.into_iter().map(|i| all[i].clone()).collect()
    }

    /// Delivers a decided batch — entries by signer index, payloads in
    /// vector order — and returns how many payloads it delivered.
    fn deliver_batch(&mut self, mut batch: Vec<Entry>) -> usize {
        batch.sort_by_key(|e| e.signer);
        let mut delivered = 0;
        for payload in batch.into_iter().flat_map(|entry| entry.payloads) {
            if !take_if_next(&payload, &mut self.next_deliver) {
                continue;
            }
            delivered += 1;
            match payload.kind {
                PayloadKind::App => self.deliveries.push_back(payload),
                PayloadKind::Close => {
                    self.close_origins.insert(payload.origin);
                }
            }
        }
        delivered
    }

    /// Drives the round state machine.
    fn try_advance(&mut self, out: &mut Outgoing) {
        loop {
            if self.closed {
                return;
            }
            let round = self.round;

            // Step 1: broadcast our signed entry for this round.
            if !self.sent_entry {
                if let Some(payloads) = self.cut_entry() {
                    let statement = statement_entry(&self.pid, round, &payloads);
                    let sig = self.ctx.keys().sig_key.sign(&statement);
                    let entry = Entry {
                        payloads,
                        signer: self.ctx.me(),
                        sig,
                    };
                    self.sent_entry = true;
                    self.entries.entry(round).or_default().push(entry.clone());
                    out.send_all(&self.pid, Body::AcEntry { round, entry });
                }
            }

            // Step 2: propose a batch. We wait for n - t entries rather
            // than the bare batch size: every honest party contributes an
            // entry each active round (sending its own payloads or
            // adopting some), so this cannot deadlock, and the extra
            // entries give the selection something to choose from.
            let have = self.entries.get(&round).map_or(0, Vec::len);
            if have >= self.ctx.n_minus_t().max(self.batch_size) && !self.proposed {
                self.proposed = true;
                let all = invariant_unwrap!(
                    self.entries.get(&round),
                    "entry set for round {round} missing at proposal"
                );
                let bytes = Batch(self.select_batch(all)).to_bytes();
                let vba = self.vba_instance(round);
                vba.propose(bytes, out);
            }

            // Step 3: deliver the agreed batch.
            let Some(vba) = self.vbas.get_mut(&round) else {
                return;
            };
            let Some(decided) = vba.take_decision() else {
                return;
            };
            let batch = Batch::from_bytes(&decided)
                .or_invariant("externally validated batch failed to decode");
            let delivered = self.deliver_batch(batch.0) as u64;
            // One event per decided round; it carries the number of
            // payloads the round delivered.
            out.trace_with(|| {
                TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "atomic")
                    .phase("batch")
                    .round(round)
                    .bytes(delivered)
            });
            // Clean up the finished round.
            self.vbas.remove(&round);
            self.entries.remove(&round);

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
        !self.queue.is_empty()
            || self.close_requested
            || !self.entries.is_empty()
            || !self.vbas.is_empty()
    }

    fn snapshot_json(&self) -> String {
        let current_entries = self.entries.get(&self.round).map_or(0, Vec::len);
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
    use crate::outgoing::Recipient;
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

    /// Delivers all queued messages FIFO until quiescence.
    fn pump(channels: &mut [AtomicChannel], outs: Vec<(usize, Outgoing)>) {
        let n = channels.len();
        let mut queue: std::collections::VecDeque<(PartyId, usize, ProtocolId, Body)> =
            std::collections::VecDeque::new();
        let push = |queue: &mut std::collections::VecDeque<_>, from: usize, mut out: Outgoing| {
            for (recipient, env) in out.drain() {
                match recipient {
                    Recipient::All => {
                        for to in 0..n {
                            queue.push_back((PartyId(from), to, env.pid.clone(), env.body.clone()));
                        }
                    }
                    Recipient::One(p) => {
                        queue.push_back((PartyId(from), p.0, env.pid, env.body));
                    }
                }
            }
        };
        for (from, out) in outs {
            push(&mut queue, from, out);
        }
        let mut steps = 0usize;
        while let Some((from, to, pid, body)) = queue.pop_front() {
            steps += 1;
            assert!(steps < 5_000_000, "atomic channel did not quiesce");
            let mut out = Outgoing::new();
            channels[to].handle(from, &pid, &body, &mut out);
            push(&mut queue, to, out);
        }
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
        let payloads = vec![payload];
        let statement = statement_entry(&ProtocolId::new("ac-forge"), 0, &payloads);
        let sig = ctxs[3].keys().sig_key.sign(&statement);
        let entry = Entry {
            payloads,
            signer: PartyId(2),
            sig,
        };
        chan.handle(
            PartyId(2),
            &ProtocolId::new("ac-forge"),
            &Body::AcEntry { round: 0, entry },
            &mut Outgoing::new(),
        );
        assert!(chan.entries.get(&0).is_none_or(|m| m.is_empty()));
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
    ) -> Entry {
        let statement = statement_entry(&ProtocolId::new(tag), round, &payloads);
        Entry {
            payloads,
            signer: PartyId(signer),
            sig: ctxs[signer].keys().sig_key.sign(&statement),
        }
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
                Body::AcEntry { entry, .. } => entry.payloads.len(),
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
        idle.on_entry(PartyId(2), 0, &wide);
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
        let signers = |batch: Vec<Entry>| batch.iter().map(|e| e.signer.0).collect::<Vec<_>>();
        let arrival = [one.clone(), three.clone(), two.clone()];
        assert_eq!(signers(chan.select_batch(&arrival)), vec![1, 2]);
        // Ties go by arrival order; an adopter's copy adds nothing once
        // the original is in and is only picked to fill the batch.
        let copy = signed(&ctxs, "ac-select", 0, 3, three.payloads.clone());
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
        assert_eq!(chan.deliver_batch(vec![full.clone(), suffix.clone()]), 2);
        assert_eq!(drain(&mut chan), vec![(2, 0), (2, 1)]);

        // Only the suffix was agreed on: c2 waits for c1.
        let mut chan = channels(&ctxs, "ac-suffix").remove(3);
        assert_eq!(chan.deliver_batch(vec![suffix.clone(), filler]), 1);
        assert_eq!(drain(&mut chan), vec![(1, 0)]);
        assert_eq!(chan.next_expected(PartyId(2)), 0);
        // The honest origin still has both queued; a later round brings
        // them, in order, once.
        assert_eq!(chan.deliver_batch(vec![full.clone()]), 2);
        assert_eq!(drain(&mut chan), vec![(2, 0), (2, 1)]);
        assert_eq!(chan.deliver_batch(vec![full, suffix]), 0, "each once");
    }

    #[test]
    fn suffix_relay_full_protocol_run() {
        // The same attack against running channels: party 0 is Byzantine
        // and, whenever it sees an honest multi-payload entry, broadcasts
        // its own validly signed entry carrying only the suffix.
        let ctxs = group(4, 1);
        let tag = "ac-suffix-run";
        let mut chans = channels(&ctxs, tag);
        let mut outs = Vec::new();
        for (origin, chan) in chans.iter_mut().enumerate().skip(1) {
            let mut out = Outgoing::new();
            for k in 0..4u8 {
                chan.send(vec![origin as u8, k], &mut out);
            }
            outs.push((origin, out));
        }
        let n = chans.len();
        let mut queue: VecDeque<(usize, usize, ProtocolId, Body)> = VecDeque::new();
        let mut relayed = BTreeSet::new();
        let mut push = |queue: &mut VecDeque<_>, from: usize, mut out: Outgoing| {
            for (recipient, env) in out.drain() {
                if let Body::AcEntry { round, entry } = &env.body {
                    if entry.payloads.len() > 1 && relayed.insert(*round) {
                        let suffix = signed(&ctxs, tag, *round, 0, entry.payloads[1..].to_vec());
                        for to in 1..n {
                            let body = Body::AcEntry {
                                round: *round,
                                entry: suffix.clone(),
                            };
                            // Ahead of the honest entry it was cut from.
                            queue.push_front((0, to, env.pid.clone(), body));
                        }
                    }
                }
                let targets: Vec<usize> = match recipient {
                    Recipient::All => (0..n).collect(),
                    Recipient::One(p) => vec![p.0],
                };
                for to in targets {
                    queue.push_back((from, to, env.pid.clone(), env.body.clone()));
                }
            }
        };
        for (from, out) in outs {
            push(&mut queue, from, out);
        }
        while let Some((from, to, pid, body)) = queue.pop_front() {
            if to == 0 {
                continue; // the Byzantine party runs no honest code
            }
            let mut out = Outgoing::new();
            chans[to].handle(PartyId(from), &pid, &body, &mut out);
            push(&mut queue, to, out);
        }
        assert!(relayed.len() >= 2, "the relay found entries to cut");
        let reference = drain(&mut chans[1]);
        assert_eq!(reference.len(), 12, "every payload delivered, each once");
        for origin in 1..4usize {
            let seqs: Vec<u64> = reference
                .iter()
                .filter(|(o, _)| *o == origin)
                .map(|(_, s)| *s)
                .collect();
            assert_eq!(seqs, vec![0, 1, 2, 3], "origin {origin} in send order");
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
        let verifier = crate::preverify::PreVerifier::new(ctxs[0].clone());
        let validator = chan.batch_validator(0);
        let good = signed(&ctxs, tag, 0, 1, vec![app(1, 0, b"ok")]);
        assert!(validator.is_valid(
            &Batch(vec![
                good.clone(),
                signed(&ctxs, tag, 0, 3, vec![app(3, 0, b"ok")])
            ])
            .to_bytes()
        ));
        for (what, payloads) in cases {
            // Validly signed by a (Byzantine) group member, for the
            // current and for a future round.
            for round in [0u64, 7] {
                let entry = signed(&ctxs, tag, round, 2, payloads.clone());
                let body = Body::AcEntry {
                    round,
                    entry: entry.clone(),
                };
                chan.handle(
                    PartyId(2),
                    &ProtocolId::new(tag),
                    &body,
                    &mut Outgoing::new(),
                );
                assert!(chan.entries.is_empty(), "{what}: no per-round state");
                assert!(chan.vbas.is_empty(), "{what}");
                if what == "only delivered payloads" {
                    continue; // stateless stages cannot know what is delivered
                }
                let env = crate::message::Envelope {
                    pid: ProtocolId::new(tag),
                    send_seq: 0,
                    body,
                };
                assert!(
                    matches!(
                        verifier.pre_verify(PartyId(2), &env).verdict,
                        crate::preverify::PreVerdict::Invalid(_)
                    ),
                    "{what}: preverify"
                );
                assert!(
                    crate::message::Envelope::from_bytes(&env.to_bytes()).is_err(),
                    "{what}: decode"
                );
                if round == 0 {
                    let batch = Batch(vec![good.clone(), entry]);
                    assert!(!validator.is_valid(&batch.to_bytes()), "{what}: validator");
                }
            }
        }
        // A forged signature on a well-formed entry for a far-future
        // round leaves no slot behind either (the PR-10 ordering).
        let mut forged = signed(&ctxs, tag, 99, 2, vec![app(2, 3, b"next")]);
        forged.sig = ctxs[3].keys().sig_key.sign(b"something else");
        chan.on_entry(PartyId(2), 99, &forged);
        assert!(chan.entries.is_empty());
        // A partly delivered vector is accepted; only its fresh tail counts.
        let mixed = signed(&ctxs, tag, 0, 2, vec![app(2, 2, b"old"), app(2, 3, b"new")]);
        chan.on_entry(PartyId(2), 0, &mixed);
        assert_eq!(chan.entries[&0].len(), 1);
        assert_eq!(chan.deliver_batch(vec![mixed]), 1);
        assert_eq!(drain(&mut chan), vec![(2, 3)]);
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
