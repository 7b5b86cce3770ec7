//! Secure causal atomic broadcast (paper §2.6).
//!
//! Payloads are encrypted under the channel's threshold public key before
//! entering the atomic channel, so their contents stay confidential until
//! their position in the total order is fixed — preserving *causality*
//! against a Byzantine adversary who could otherwise front-run in-flight
//! requests with derived ones. Once the atomic channel decides a round,
//! every party releases its decryption shares for the round's valid
//! ciphertexts — one message, one batched proof — and `t + 1` parties'
//! shares recover the round's plaintexts, which are then delivered in
//! order.
//!
//! The threshold cryptosystem (Shoup–Gennaro TDH2) is CCA2-secure, which
//! is what prevents mauling an observed ciphertext into a related one.

use std::collections::{BTreeMap, VecDeque};

use rand::Rng;
use sintra_crypto::thenc::{Ciphertext, DecryptionBatch};
use sintra_telemetry::{SnapshotWriter, StateSnapshot};

use crate::channel::atomic::{AtomicChannel, AtomicChannelConfig, FetchCounts};
use crate::checked::{Checked, Unchecked};
use crate::config::GroupContext;
use crate::ids::{PartyId, ProtocolId};
use crate::invariant::OrInvariant;
use crate::message::{Body, Payload, PayloadKind, MAX_DECRYPTION_BATCH, MAX_ENTRY_PAYLOADS};
use crate::outgoing::Outgoing;
use crate::wire::Wire;

/// Most rounds one sender may have an early batch parked for: the
/// horizon the per-ciphertext quarantine had at one ciphertext per round
/// (1024). A party runs ahead of another by the skew between its peers'
/// message streams, so honest senders stay far below this; it stops a
/// Byzantine sender from parking batches for rounds that are far off. A
/// batch dropped here is not fatal while `t` of the other parties'
/// batches for that round are kept: they complete the party's own.
const MAX_EARLY_ROUNDS_PER_SENDER: usize = 1024;

/// Most bytes of share values and proofs one sender may have parked, over
/// all its early batches. With a 1024-bit group a batch of `m` values
/// counts `128·m + 276` bytes: at one ciphertext per round the round cap
/// binds first, at `sac4_sat`'s four this one (665 rounds, 2 660
/// ciphertexts).
///
/// Worst case: every sender fills both caps, so the quarantine holds at
/// most `n` × 512 KiB in at most `n` × 1024 batches (2 MiB and 4096
/// batches at n = 4); a batch over the byte cap by itself is not parked
/// at all.
const MAX_EARLY_BYTES_PER_SENDER: usize = 512 * 1024;

/// The bytes a parked batch holds: its values and proof as they came.
fn parked_bytes(batch: &DecryptionBatch) -> usize {
    let value = |v: &sintra_bigint::Ubig| v.bit_length().div_ceil(8) as usize;
    let proof = &batch.proof;
    batch.values.iter().map(value).sum::<usize>()
        + value(&proof.commit_g)
        + value(&proof.commit_u)
        + value(&proof.response)
}

/// One decided round's valid ciphertexts awaiting decryption.
#[derive(Debug)]
struct PendingRound {
    round: u64,
    /// The round's valid ciphertexts in delivery order, with the
    /// `(origin, seq)` of their payloads. Garbage a Byzantine sender
    /// ordered is skipped before it gets here.
    slots: Vec<((PartyId, u64), Ciphertext)>,
    /// Checked batches by holder index, this party's own included.
    batches: BTreeMap<usize, Checked<DecryptionBatch>>,
    /// The plaintexts, parallel to `slots`, once `k` batches are in.
    plaintexts: Option<Vec<Vec<u8>>>,
}

impl PendingRound {
    fn cts(&self) -> Vec<&Ciphertext> {
        self.slots.iter().map(|(_, ct)| ct).collect()
    }
}

/// A secure causal atomic broadcast channel endpoint.
#[derive(Debug)]
pub struct SecureAtomicChannel {
    pid: ProtocolId,
    ctx: GroupContext,
    inner: AtomicChannel,
    /// Decided rounds with valid ciphertexts, in order, until delivered.
    pending: VecDeque<PendingRound>,
    /// The quarantine: early decryption batches, by round and sender, for
    /// rounds this party has not decided yet (one per sender per round,
    /// capped per sender by rounds and bytes). They stay unchecked until
    /// their round is decided, and then only as many are checked as the
    /// round still needs.
    early: BTreeMap<u64, Vec<(PartyId, Unchecked<DecryptionBatch>)>>,
    /// Per sender, the rounds and bytes it holds in `early` (bounded by
    /// [`MAX_EARLY_ROUNDS_PER_SENDER`] and [`MAX_EARLY_BYTES_PER_SENDER`]).
    early_held: Vec<(usize, usize)>,
    /// Ciphertext-ordered notifications not yet drained.
    ordered_events: VecDeque<(PartyId, u64, Vec<u8>)>,
    deliveries: VecDeque<Payload>,
    closed_taken: bool,
}

impl SecureAtomicChannel {
    /// Opens a channel endpoint. The inner atomic channel runs under the
    /// child identifier `{pid}/ac`.
    ///
    /// # Panics
    ///
    /// Panics if a round could order more ciphertexts than a
    /// [`Body::ScShares`] batch carries ([`MAX_DECRYPTION_BATCH`]): a
    /// proposal that may name more than 64 entries
    /// ([`AtomicChannel::max_batch_size`]), i.e. a group of more than 64
    /// parties unless whole batches are off.
    pub fn new(pid: ProtocolId, ctx: GroupContext, config: AtomicChannelConfig) -> Self {
        let inner = AtomicChannel::new(pid.child("ac"), ctx.clone(), config);
        assert!(
            inner.max_batch_size() * MAX_ENTRY_PAYLOADS <= MAX_DECRYPTION_BATCH,
            "a round's ciphertexts must fit one decryption batch"
        );
        SecureAtomicChannel {
            pid,
            early_held: vec![(0, 0); ctx.n()],
            ctx,
            inner,
            pending: VecDeque::new(),
            early: BTreeMap::new(),
            ordered_events: VecDeque::new(),
            deliveries: VecDeque::new(),
            closed_taken: false,
        }
    }

    /// The channel identifier.
    pub fn pid(&self) -> &ProtocolId {
        &self.pid
    }

    /// Encrypts a message for a secure channel without being a group
    /// member — all that is needed is the channel's public key (carried in
    /// the group's common key material). The result can be handed to any
    /// `t + 1` servers for [`Self::send_ciphertext`].
    pub fn encrypt<R: Rng + ?Sized>(
        ctx: &GroupContext,
        pid: &ProtocolId,
        message: &[u8],
        rng: &mut R,
    ) -> Vec<u8> {
        ctx.keys()
            .common
            .enc
            .encrypt(pid.as_bytes(), message, rng)
            .to_bytes()
    }

    /// Encrypts and sends a payload on the channel.
    ///
    /// # Panics
    ///
    /// Panics after `close` has been called.
    pub fn send<R: Rng + ?Sized>(&mut self, data: Vec<u8>, rng: &mut R, out: &mut Outgoing) {
        let ct = Self::encrypt(&self.ctx, &self.pid, &data, rng);
        self.inner.send(ct, out);
        self.pump(out);
    }

    /// Broadcasts an externally produced ciphertext (from
    /// [`Self::encrypt`]) without seeing the cleartext.
    ///
    /// # Panics
    ///
    /// Panics after `close` has been called.
    pub fn send_ciphertext(&mut self, ciphertext: Vec<u8>, out: &mut Outgoing) {
        self.inner.send(ciphertext, out);
        self.pump(out);
    }

    /// Requests channel termination.
    pub fn close(&mut self, out: &mut Outgoing) {
        self.inner.close(out);
        self.pump(out);
    }

    /// Whether `send` is currently allowed.
    pub fn can_send(&self) -> bool {
        self.inner.can_send()
    }

    /// Whether a decrypted delivery is waiting.
    pub fn can_receive(&self) -> bool {
        !self.deliveries.is_empty()
    }

    /// Takes the next decrypted payload, in total order.
    pub fn take_delivery(&mut self) -> Option<Payload> {
        self.deliveries.pop_front()
    }

    /// Whether an ordered-ciphertext notification is waiting (the
    /// `canReceiveCiphertext` of the Java API).
    pub fn can_receive_ciphertext(&self) -> bool {
        !self.ordered_events.is_empty()
    }

    /// Takes the next ordered-ciphertext notification: the point where a
    /// payload's position is fixed but its content still encrypted.
    pub fn take_ordered_ciphertext(&mut self) -> Option<(PartyId, u64, Vec<u8>)> {
        self.ordered_events.pop_front()
    }

    /// The ordering channel's `ac-fetch` traffic since the last call.
    pub fn take_fetch_counts(&mut self) -> FetchCounts {
        self.inner.take_fetch_counts()
    }

    /// Whether the channel has terminated (inner channel closed and all
    /// ordered ciphertexts resolved).
    pub fn is_closed(&self) -> bool {
        self.inner.is_closed() && self.pending.is_empty()
    }

    /// Returns `true` exactly once upon termination.
    pub fn take_closed(&mut self) -> bool {
        if self.is_closed() && !self.closed_taken {
            self.closed_taken = true;
            true
        } else {
            false
        }
    }

    /// Processes a message addressed to this channel or its inner atomic
    /// channel.
    pub fn handle(&mut self, from: PartyId, msg_pid: &ProtocolId, body: &Body, out: &mut Outgoing) {
        if !self.ctx.is_valid_party(from) {
            return;
        }
        if *msg_pid == self.pid {
            if let Body::ScShares { round, batch } = body {
                self.on_batch(from, *round, batch);
            }
        } else if msg_pid.is_self_or_descendant_of(self.inner.pid()) {
            self.inner.handle(from, msg_pid, body, out);
        }
        self.pump(out);
    }

    fn on_batch(&mut self, from: PartyId, round: u64, batch: &Unchecked<DecryptionBatch>) {
        // A party releases its own shares and no one else's.
        if batch.index != from.0 {
            return;
        }
        let k = self.ctx.keys().common.enc.threshold();
        match self.pending.iter_mut().find(|p| p.round == round) {
            Some(p) => {
                // Resolved already, a second batch from the sender, or
                // not one value per ciphertext: nothing to check.
                let resolved = p.plaintexts.is_some() || p.batches.len() >= k;
                if resolved
                    || p.batches.contains_key(&batch.index)
                    || batch.values.len() != p.slots.len()
                {
                    return;
                }
                if let Some(batch) = self.ctx.check_dec_batch(&self.pid, round, &p.cts(), batch) {
                    p.batches.insert(batch.index, batch);
                }
            }
            // Decided here and resolved, or it ordered no valid
            // ciphertext: one of the `n - k` batches that arrive after
            // the plaintexts went out, or one nobody owes.
            None if round < self.inner.rounds_delivered() => {}
            // Not decided locally yet: park the batch.
            None => {
                let bytes = parked_bytes(batch);
                let (rounds, held) = self.early_held[from.0];
                if rounds >= MAX_EARLY_ROUNDS_PER_SENDER
                    || held + bytes > MAX_EARLY_BYTES_PER_SENDER
                {
                    return;
                }
                let parked = self.early.entry(round).or_default();
                if parked.iter().all(|(sender, _)| *sender != from) {
                    parked.push((from, batch.clone()));
                    self.early_held[from.0] = (rounds + 1, held + bytes);
                }
            }
        }
    }

    /// Takes round `round`'s ordered payloads: skips what is not a valid
    /// ciphertext of this channel, releases this party's batch for the
    /// rest and checks parked batches until the round has `k`.
    fn ingest(&mut self, round: u64, payloads: &[(u64, Payload)], out: &mut Outgoing) {
        let parked = self.take_parked(round);
        let enc = &self.ctx.keys().common.enc;
        let mut slots = Vec::new();
        for (_, payload) in payloads {
            self.ordered_events
                .push_back((payload.origin, payload.seq, payload.data.clone()));
            // The ciphertext's one validity check at this party: releasing
            // our share, checking peers' shares and combining all rely on
            // it. The label binds ciphertexts to this channel instance.
            let ct = Ciphertext::from_bytes(&payload.data)
                .ok()
                .filter(|ct| ct.label == self.pid.as_bytes() && enc.verify_ciphertext(ct));
            if let Some(ct) = ct {
                slots.push(((payload.origin, payload.seq), ct));
            }
        }
        if slots.is_empty() {
            return;
        }
        let mut pending = PendingRound {
            round,
            slots,
            batches: BTreeMap::new(),
            plaintexts: None,
        };
        let cts = pending.cts();
        let own = self.ctx.release_dec_batch(&self.pid, round, &cts);
        let batch = own.clone().forget();
        out.send_all(&self.pid, Body::ScShares { round, batch });
        let mut batches = BTreeMap::from([(own.index, own)]);
        // Parked batches, each verified here and only here, and only as
        // many as the round needs.
        let k = enc.threshold();
        for (_, batch) in parked {
            if batches.len() >= k {
                break;
            }
            if batch.values.len() != cts.len() {
                continue;
            }
            if let Some(batch) = self.ctx.check_dec_batch(&self.pid, round, &cts, &batch) {
                batches.insert(batch.index, batch);
            }
        }
        pending.batches = batches;
        self.pending.push_back(pending);
    }

    /// Takes what is parked for `round` out of the quarantine.
    fn take_parked(&mut self, round: u64) -> Vec<(PartyId, Unchecked<DecryptionBatch>)> {
        let parked = self.early.remove(&round).unwrap_or_default();
        for (sender, batch) in &parked {
            let (rounds, held) = &mut self.early_held[sender.0];
            *rounds -= 1;
            *held -= parked_bytes(batch);
        }
        parked
    }

    /// Moves data between the inner channel and the decryption layer.
    fn pump(&mut self, out: &mut Outgoing) {
        // 1. Ingest newly decided rounds.
        let ordered: Vec<(u64, Payload)> =
            std::iter::from_fn(|| self.inner.take_round_delivery()).collect();
        for round in ordered.chunk_by(|a, b| a.0 == b.0) {
            self.ingest(round[0].0, round, out);
        }
        // A decided round that delivered nothing to this layer leaves
        // what was parked for it behind.
        let decided = self.inner.rounds_delivered();
        while let Some(round) = self.early.keys().next().copied().filter(|r| *r < decided) {
            self.take_parked(round);
        }

        // 2. Combine where possible. Every batch in a round was verified
        // on the way in (or is our own), and so was every ciphertext.
        let k = self.ctx.keys().common.enc.threshold();
        for p in self.pending.iter_mut() {
            if p.plaintexts.is_none() && p.batches.len() >= k {
                let cts = p.cts();
                p.plaintexts =
                    self.ctx
                        .combine_dec_batches(&self.pid, p.round, &cts, p.batches.values());
            }
        }

        // 3. Deliver strictly in order.
        while self.pending.front().is_some_and(|p| p.plaintexts.is_some()) {
            let p = self
                .pending
                .pop_front()
                .or_invariant("pending front vanished during release");
            let plaintexts = p
                .plaintexts
                .or_invariant("released round missing its plaintexts");
            for (((origin, seq), _), data) in p.slots.into_iter().zip(plaintexts) {
                self.deliveries.push_back(Payload {
                    origin,
                    seq,
                    kind: PayloadKind::App,
                    data,
                });
            }
        }
    }
}

impl StateSnapshot for SecureAtomicChannel {
    fn has_pending_work(&self) -> bool {
        self.inner.has_pending_work() || !self.pending.is_empty()
    }

    fn snapshot_json(&self) -> String {
        let k = self.ctx.keys().common.enc.threshold();
        let awaiting: usize = self.pending.iter().map(|p| p.slots.len()).sum();
        let mut w = SnapshotWriter::new(self.pid.as_str(), "secure")
            .num("pending_decryptions", awaiting as u64)
            .num("pending_rounds", self.pending.len() as u64)
            .num("share_threshold", k as u64)
            .num("early_batch_rounds", self.early.len() as u64)
            .num("undrained_deliveries", self.deliveries.len() as u64);
        if let Some(front) = self.pending.front() {
            w = w
                .num("front_round", front.round)
                .num("front_shares", front.batches.len() as u64);
        }
        w.raw("inner", &self.inner.snapshot_json()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outgoing::Recipient;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sintra_crypto::dealer::{deal, DealerConfig};
    use std::sync::Arc;

    fn group(n: usize, t: usize) -> Vec<GroupContext> {
        let mut rng = StdRng::seed_from_u64(43);
        deal(&DealerConfig::small(n, t), &mut rng)
            .unwrap()
            .into_iter()
            .map(|k| GroupContext::new(Arc::new(k)))
            .collect()
    }

    fn channels(ctxs: &[GroupContext], tag: &str) -> Vec<SecureAtomicChannel> {
        ctxs.iter()
            .map(|c| {
                SecureAtomicChannel::new(
                    ProtocolId::new(tag),
                    c.clone(),
                    AtomicChannelConfig::default(),
                )
            })
            .collect()
    }

    fn pump_all(chans: &mut [SecureAtomicChannel], outs: Vec<(usize, Outgoing)>) {
        let n = chans.len();
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
                    Recipient::One(p) => queue.push_back((PartyId(from), p.0, env.pid, env.body)),
                }
            }
        };
        for (from, out) in outs {
            push(&mut queue, from, out);
        }
        while let Some((from, to, pid, body)) = queue.pop_front() {
            let mut out = Outgoing::new();
            chans[to].handle(from, &pid, &body, &mut out);
            push(&mut queue, to, out);
        }
    }

    #[test]
    fn encrypted_payloads_deliver_in_order() {
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "sc");
        let mut rng = StdRng::seed_from_u64(99);
        let mut out = Outgoing::new();
        chans[0].send(b"first secret".to_vec(), &mut rng, &mut out);
        chans[0].send(b"second secret".to_vec(), &mut rng, &mut out);
        pump_all(&mut chans, vec![(0, out)]);
        for (i, chan) in chans.iter_mut().enumerate() {
            assert_eq!(
                chan.take_delivery().unwrap().data,
                b"first secret",
                "party {i}"
            );
            assert_eq!(chan.take_delivery().unwrap().data, b"second secret");
            assert!(chan.take_delivery().is_none());
        }
    }

    #[test]
    fn ciphertext_ordered_before_plaintext() {
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "sc-order");
        let mut rng = StdRng::seed_from_u64(100);
        let mut out = Outgoing::new();
        chans[1].send(b"confidential".to_vec(), &mut rng, &mut out);
        pump_all(&mut chans, vec![(1, out)]);
        let (origin, _seq, ct_bytes) = chans[2].take_ordered_ciphertext().unwrap();
        assert_eq!(origin, PartyId(1));
        // The ordered ciphertext reveals nothing recognizable.
        assert!(!ct_bytes
            .windows(b"confidential".len())
            .any(|w| w == b"confidential"));
        assert_eq!(chans[2].take_delivery().unwrap().data, b"confidential");
    }

    #[test]
    fn external_client_ciphertext() {
        // A non-member encrypts with only the public key; a member injects
        // the ciphertext without ever seeing the cleartext.
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "sc-ext");
        let mut rng = StdRng::seed_from_u64(101);
        let ct = SecureAtomicChannel::encrypt(
            &ctxs[3],
            &ProtocolId::new("sc-ext"),
            b"client request",
            &mut rng,
        );
        let mut out = Outgoing::new();
        chans[2].send_ciphertext(ct, &mut out);
        pump_all(&mut chans, vec![(2, out)]);
        assert_eq!(chans[0].take_delivery().unwrap().data, b"client request");
    }

    #[test]
    fn garbage_ciphertext_skipped() {
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "sc-garbage");
        let mut rng = StdRng::seed_from_u64(102);
        let mut out = Outgoing::new();
        // A Byzantine member orders garbage bytes; honest parties skip it
        // and the channel keeps working.
        chans[3].send_ciphertext(b"not a ciphertext".to_vec(), &mut out);
        chans[0].send(b"real".to_vec(), &mut rng, &mut out);
        pump_all(&mut chans, vec![(3, out)]);
        let mut datas = Vec::new();
        while let Some(p) = chans[1].take_delivery() {
            datas.push(p.data);
        }
        assert_eq!(datas, vec![b"real".to_vec()]);
    }

    #[test]
    fn replayed_ciphertext_across_channels_rejected() {
        // The label binds a ciphertext to its channel: a ciphertext for
        // channel A ordered on channel B is skipped, not decrypted.
        let ctxs = group(4, 1);
        let mut rng = StdRng::seed_from_u64(103);
        let ct_for_a = SecureAtomicChannel::encrypt(
            &ctxs[0],
            &ProtocolId::new("channel-A"),
            b"bound to A",
            &mut rng,
        );
        let mut chans_b = channels(&ctxs, "channel-B");
        let mut out = Outgoing::new();
        chans_b[0].send_ciphertext(ct_for_a, &mut out);
        pump_all(&mut chans_b, vec![(0, out)]);
        assert!(chans_b[1].take_delivery().is_none());
        // But the ordering event still happened (position consumed).
        assert!(chans_b[1].take_ordered_ciphertext().is_some());
    }

    #[test]
    fn early_shares_empty_at_quiescence() {
        // Of the n batches per round, n - k arrive after the plaintexts
        // went out and the round was popped; they must not be parked
        // under a round nothing would ever take again.
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "sc-quiet");
        let mut rng = StdRng::seed_from_u64(105);
        let mut outs = Vec::new();
        for (i, chan) in chans.iter_mut().enumerate() {
            let mut out = Outgoing::new();
            for k in 0..50u32 {
                chan.send(format!("request {i}/{k}").into_bytes(), &mut rng, &mut out);
            }
            outs.push((i, out));
        }
        pump_all(&mut chans, outs);
        for (i, chan) in chans.iter_mut().enumerate() {
            let mut delivered = 0;
            while chan.take_delivery().is_some() {
                delivered += 1;
            }
            assert_eq!(delivered, 200, "party {i}");
            assert!(chan.early.is_empty(), "party {i} still parks batches");
            assert_eq!(chan.early_held, vec![(0, 0); 4], "party {i}");
            assert!(chan.pending.is_empty());
        }
    }

    #[test]
    fn batches_parked_for_a_round_without_ciphertexts_are_dropped() {
        // Party 2 parks a batch at party 1 for round 0, which then orders
        // only party 3's close request: no honest party owes a batch for
        // it, and no ciphertext of it will take the parked one.
        let ctxs = group(4, 1);
        let pid = ProtocolId::new("sc-empty");
        let mut chans = channels(&ctxs, "sc-empty");
        let mut rng = StdRng::seed_from_u64(107);
        let ct = ctxs[2]
            .keys()
            .common
            .enc
            .encrypt(pid.as_bytes(), b"x", &mut rng);
        let batch = ctxs[2].release_dec_batch(&pid, 0, &[&ct]).forget();
        let body = Body::ScShares { round: 0, batch };
        chans[1].handle(PartyId(2), &pid, &body, &mut Outgoing::new());
        assert_eq!(chans[1].early.len(), 1);
        let mut out = Outgoing::new();
        chans[3].close(&mut out);
        pump_all(&mut chans, vec![(3, out)]);
        assert!(chans[1].take_ordered_ciphertext().is_none());
        assert!(chans[1].early.is_empty());
        assert_eq!(chans[1].early_held, vec![(0, 0); 4]);
    }

    #[test]
    fn parked_shares_bounded_per_sender() {
        let ctxs = group(4, 1);
        let pid = ProtocolId::new("sc-flood");
        let mut chan = channels(&ctxs, "sc-flood").remove(0);
        let mut rng = StdRng::seed_from_u64(106);
        let enc = &ctxs[3].keys().common.enc;
        let ct = enc.encrypt(pid.as_bytes(), b"x", &mut rng);
        let one = ctxs[3].release_dec_batch(&pid, 0, &[&ct]).forget();
        let offer =
            |chan: &mut SecureAtomicChannel, from: usize, round: u64, batch: &DecryptionBatch| {
                let body = Body::ScShares {
                    round,
                    batch: batch.clone().into(),
                };
                chan.handle(PartyId(from), &pid, &body, &mut Outgoing::new());
            };
        // Party 3 sends small batches for rounds that are far off, each
        // twice: a repeat for the same round does not count again.
        let flood = MAX_EARLY_ROUNDS_PER_SENDER as u64 + 500;
        for round in 0..flood {
            for _ in 0..2 {
                offer(&mut chan, 3, round, &one);
            }
        }
        assert_eq!(chan.early.len(), MAX_EARLY_ROUNDS_PER_SENDER);
        assert_eq!(chan.early_held[3].0, MAX_EARLY_ROUNDS_PER_SENDER);
        // Party 2 sends large ones: the byte cap stops it first.
        let mut large = DecryptionBatch {
            index: 2,
            ..(*one).clone()
        };
        large.values = vec![large.values[0].clone(); 1000];
        let size = parked_bytes(&large);
        for round in 0..flood {
            offer(&mut chan, 2, round, &large);
        }
        let (rounds, bytes) = chan.early_held[2];
        assert_eq!(rounds, MAX_EARLY_BYTES_PER_SENDER / size);
        assert!(rounds < MAX_EARLY_ROUNDS_PER_SENDER);
        assert!(bytes <= MAX_EARLY_BYTES_PER_SENDER && bytes + size > MAX_EARLY_BYTES_PER_SENDER);
        // A batch sent under another party's index is not parked, and
        // another sender's quota is its own.
        offer(&mut chan, 1, flood, &one);
        assert_eq!(chan.early_held[1], (0, 0));
        let own = DecryptionBatch {
            index: 1,
            ..(*one).clone()
        };
        offer(&mut chan, 1, flood, &own);
        assert_eq!(chan.early_held[1], (1, parked_bytes(&own)));
    }

    #[test]
    fn close_after_decrypting_everything() {
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "sc-close");
        let mut rng = StdRng::seed_from_u64(104);
        let mut outs = Vec::new();
        let mut out0 = Outgoing::new();
        chans[0].send(b"last words".to_vec(), &mut rng, &mut out0);
        chans[0].close(&mut out0);
        outs.push((0usize, out0));
        let mut out1 = Outgoing::new();
        chans[1].close(&mut out1);
        outs.push((1, out1));
        pump_all(&mut chans, outs);
        for (i, chan) in chans.iter_mut().enumerate() {
            assert_eq!(
                chan.take_delivery().unwrap().data,
                b"last words",
                "party {i}"
            );
            assert!(chan.is_closed(), "party {i} closed");
            assert!(chan.take_closed());
        }
    }
}
