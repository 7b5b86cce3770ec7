//! Secure causal atomic broadcast (paper §2.6).
//!
//! Payloads are encrypted under the channel's threshold public key before
//! entering the atomic channel, so their contents stay confidential until
//! their position in the total order is fixed — preserving *causality*
//! against a Byzantine adversary who could otherwise front-run in-flight
//! requests with derived ones. Once the atomic channel delivers a
//! ciphertext, every party releases a decryption share; `t + 1` shares
//! recover the plaintext, which is then delivered in order.
//!
//! The threshold cryptosystem (Shoup–Gennaro TDH2) is CCA2-secure, which
//! is what prevents mauling an observed ciphertext into a related one.

use std::collections::{BTreeMap, VecDeque};

use rand::Rng;
use sintra_crypto::thenc::{Ciphertext, DecryptionShare};
use sintra_telemetry::{SnapshotWriter, StateSnapshot};

use crate::channel::atomic::{AtomicChannel, AtomicChannelConfig, FetchCounts};
use crate::checked::{Checked, Unchecked};
use crate::config::GroupContext;
use crate::ids::{PartyId, ProtocolId};
use crate::invariant::OrInvariant;
use crate::message::{Body, Payload, PayloadKind};
use crate::outgoing::Outgoing;
use crate::wire::Wire;

/// Most ciphertexts one sender may have early shares parked for. A party
/// runs ahead of another by the skew between its peers' message streams
/// — a few rounds — and a round orders at most `n - t` full entries, so
/// honest senders stay far below this; it only stops a Byzantine sender
/// from parking shares for ciphertexts that will never be ordered. A
/// share dropped here is not fatal: any `t` of the other parties' shares
/// complete the party's own.
const MAX_EARLY_KEYS_PER_SENDER: usize = 1024;

/// A decryption share that arrived ahead of its ciphertext, by sender.
type EarlyShare = (PartyId, Unchecked<DecryptionShare>);

/// State of one ordered ciphertext awaiting decryption.
#[derive(Debug)]
struct PendingDecryption {
    payload_meta: (PartyId, u64),
    /// The validated ciphertext; `None` when validation failed (a
    /// Byzantine sender ordered garbage) and the slot is skipped.
    ciphertext: Option<Ciphertext>,
    /// Verified shares by holder index.
    shares: BTreeMap<usize, Checked<DecryptionShare>>,
    plaintext: Option<Vec<u8>>,
}

/// A secure causal atomic broadcast channel endpoint.
#[derive(Debug)]
pub struct SecureAtomicChannel {
    pid: ProtocolId,
    ctx: GroupContext,
    inner: AtomicChannel,
    /// Ordered ciphertexts in delivery order.
    pending: VecDeque<PendingDecryption>,
    /// The quarantine: early decryption shares, by sender, for
    /// ciphertexts we have not ordered yet (one per sender per
    /// ciphertext, a capped number of ciphertexts per sender). They stay
    /// unchecked until their ciphertext is ordered, then go through one
    /// batched check.
    early_shares: BTreeMap<(PartyId, u64), Vec<EarlyShare>>,
    /// Per sender, the number of `early_shares` keys holding a share of
    /// theirs (bounded by [`MAX_EARLY_KEYS_PER_SENDER`]).
    early_keys: Vec<usize>,
    /// Ciphertext-ordered notifications not yet drained.
    ordered_events: VecDeque<(PartyId, u64, Vec<u8>)>,
    deliveries: VecDeque<Payload>,
    closed_taken: bool,
}

impl SecureAtomicChannel {
    /// Opens a channel endpoint. The inner atomic channel runs under the
    /// child identifier `{pid}/ac`.
    pub fn new(pid: ProtocolId, ctx: GroupContext, config: AtomicChannelConfig) -> Self {
        let inner = AtomicChannel::new(pid.child("ac"), ctx.clone(), config);
        SecureAtomicChannel {
            pid,
            early_keys: vec![0; ctx.n()],
            ctx,
            inner,
            pending: VecDeque::new(),
            early_shares: BTreeMap::new(),
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
            if let Body::ScShare { origin, seq, share } = body {
                self.on_share(from, (*origin, *seq), share);
            }
        } else if msg_pid.is_self_or_descendant_of(self.inner.pid()) {
            self.inner.handle(from, msg_pid, body, out);
        }
        self.pump(out);
    }

    fn on_share(&mut self, from: PartyId, key: (PartyId, u64), share: &Unchecked<DecryptionShare>) {
        let slot = self.pending.iter_mut().find(|p| p.payload_meta == key);
        match slot {
            Some(p) => {
                // A skipped or already decrypted slot needs no shares.
                if let (Some(ct), None) = (&p.ciphertext, &p.plaintext) {
                    if let Some(share) = self.ctx.check_dec_share(ct, share) {
                        p.shares.insert(share.index, share);
                    }
                }
            }
            // Ordered and resolved here already: one of the `n - k`
            // shares that arrive after the plaintext went out.
            None if key.1 < self.inner.next_expected(key.0) => {}
            // Not ordered locally yet: park the share.
            None => {
                if self.early_keys[from.0] >= MAX_EARLY_KEYS_PER_SENDER {
                    return;
                }
                let parked = self.early_shares.entry(key).or_default();
                if parked.iter().all(|(sender, _)| *sender != from) {
                    parked.push((from, share.clone()));
                    self.early_keys[from.0] += 1;
                }
            }
        }
    }

    /// Moves data between the inner channel and the decryption layer.
    fn pump(&mut self, out: &mut Outgoing) {
        // 1. Ingest newly ordered ciphertexts.
        while let Some(payload) = self.inner.take_delivery() {
            let meta = (payload.origin, payload.seq);
            self.ordered_events
                .push_back((payload.origin, payload.seq, payload.data.clone()));
            let enc = &self.ctx.keys().common.enc;
            // The ciphertext's one validity check at this party: releasing
            // our share, checking peers' shares and combining all rely on
            // it. The label binds ciphertexts to this channel instance.
            let ct = Ciphertext::from_bytes(&payload.data)
                .ok()
                .filter(|ct| ct.label == self.pid.as_bytes() && enc.verify_ciphertext(ct));
            let parked = self.early_shares.remove(&meta).unwrap_or_default();
            for (sender, _) in &parked {
                self.early_keys[sender.0] -= 1;
            }
            let mut shares = BTreeMap::new();
            if let Some(ct) = &ct {
                // Release our own decryption share.
                let own = self.ctx.release_dec_share(ct);
                shares.insert(own.index, own.clone());
                out.send_all(
                    &self.pid,
                    Body::ScShare {
                        origin: meta.0,
                        seq: meta.1,
                        share: own.forget(),
                    },
                );
                // Ingest parked shares, each verified here and only here.
                let parked = parked.into_iter().map(|(_, share)| share);
                for share in self.ctx.check_dec_shares(ct, parked) {
                    shares.insert(share.index, share);
                }
            }
            self.pending.push_back(PendingDecryption {
                payload_meta: meta,
                ciphertext: ct,
                shares,
                plaintext: None,
            });
        }

        // 2. Combine where possible. Every share in a slot was verified
        // on the way in (or is our own), and so was the ciphertext.
        let k = self.ctx.keys().common.enc.threshold();
        for p in self.pending.iter_mut() {
            let Some(ct) = &p.ciphertext else { continue };
            if p.plaintext.is_none() && p.shares.len() >= k {
                p.plaintext = self.ctx.combine_dec_shares(ct, p.shares.values());
            }
        }

        // 3. Deliver strictly in order.
        while let Some(front) = self.pending.front() {
            if front.ciphertext.is_none() {
                self.pending.pop_front();
            } else if front.plaintext.is_some() {
                let p = self
                    .pending
                    .pop_front()
                    .or_invariant("pending front vanished during release");
                self.deliveries.push_back(Payload {
                    origin: p.payload_meta.0,
                    seq: p.payload_meta.1,
                    kind: PayloadKind::App,
                    data: p
                        .plaintext
                        .or_invariant("released entry missing its plaintext"),
                });
            } else {
                break;
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
        let mut w = SnapshotWriter::new(self.pid.as_str(), "secure")
            .num("pending_decryptions", self.pending.len() as u64)
            .num("share_threshold", k as u64)
            .num("early_share_keys", self.early_shares.len() as u64)
            .num("undrained_deliveries", self.deliveries.len() as u64);
        if let Some(front) = self.pending.front() {
            w = w
                .num("front_origin", front.payload_meta.0 .0 as u64)
                .num("front_seq", front.payload_meta.1)
                .num("front_shares", front.shares.len() as u64)
                .flag("front_skipped", front.ciphertext.is_none());
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
        // Of the n shares per ciphertext, n - k arrive after the plaintext
        // went out and its slot was popped. They used to be parked under
        // a key nothing would ever remove: memory grew with every request.
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
            assert!(chan.early_shares.is_empty(), "party {i} still parks shares");
            assert_eq!(chan.early_keys, vec![0; 4], "party {i}");
            assert!(chan.pending.is_empty());
        }
    }

    #[test]
    fn parked_shares_bounded_per_sender() {
        let ctxs = group(4, 1);
        let mut chan = channels(&ctxs, "sc-flood").remove(0);
        let mut rng = StdRng::seed_from_u64(106);
        let ct = ctxs[3]
            .keys()
            .common
            .enc
            .encrypt(b"sc-flood", b"x", &mut rng);
        let share = ctxs[3].release_dec_share(&ct).forget();
        // Party 3 sends shares for ciphertexts that will never be ordered.
        let flood = MAX_EARLY_KEYS_PER_SENDER as u64 + 500;
        for seq in 0..flood {
            let body = Body::ScShare {
                origin: PartyId(1),
                seq,
                share: share.clone(),
            };
            // Twice: a repeat under the same key does not count again.
            for _ in 0..2 {
                chan.handle(
                    PartyId(3),
                    &ProtocolId::new("sc-flood"),
                    &body,
                    &mut Outgoing::new(),
                );
            }
        }
        assert_eq!(chan.early_shares.len(), MAX_EARLY_KEYS_PER_SENDER);
        assert_eq!(chan.early_keys[3], MAX_EARLY_KEYS_PER_SENDER);
        // Another sender's quota is its own.
        let body = Body::ScShare {
            origin: PartyId(1),
            seq: flood,
            share,
        };
        chan.handle(
            PartyId(2),
            &ProtocolId::new("sc-flood"),
            &body,
            &mut Outgoing::new(),
        );
        assert_eq!(chan.early_keys[2], 1);
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
