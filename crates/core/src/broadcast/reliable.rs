//! Bracha–Toueg reliable broadcast.
//!
//! Protocol (paper §2.2):
//! 1. the sender sends the payload to all parties;
//! 2. every party echoes the payload to everyone;
//! 3. on `⌈(n+t+1)/2⌉` echoes *or* `t+1` readies for the same payload, a
//!    party sends a ready message;
//! 4. on `2t+1` readies a party accepts and delivers.
//!
//! Only cheap hashing is used — no public-key operations — at the cost of
//! `O(n²)` messages per broadcast.

use std::collections::{BTreeMap, BTreeSet};

use sintra_telemetry::{SnapshotWriter, StateSnapshot, TraceEvent};

use crate::config::GroupContext;
use crate::ids::{PartyId, ProtocolId};
use crate::message::{payload_digest, Body};
use crate::outgoing::Outgoing;

/// A reliable broadcast instance (one payload, one distinguished sender).
#[derive(Debug)]
pub struct ReliableBroadcast {
    pid: ProtocolId,
    ctx: GroupContext,
    sender: PartyId,
    sent: bool,
    echoed: bool,
    ready_sent: bool,
    /// Payload bytes by digest (learned from send/echo messages).
    payloads: BTreeMap<[u8; 32], Vec<u8>>,
    /// Echo voters per digest.
    echoes: BTreeMap<[u8; 32], BTreeSet<PartyId>>,
    /// Ready voters per digest.
    readies: BTreeMap<[u8; 32], BTreeSet<PartyId>>,
    delivered: Option<Vec<u8>>,
    delivery_taken: bool,
}

impl ReliableBroadcast {
    /// Creates an instance for `sender`'s broadcast under `pid`.
    pub fn new(pid: ProtocolId, ctx: GroupContext, sender: PartyId) -> Self {
        ReliableBroadcast {
            pid,
            ctx,
            sender,
            sent: false,
            echoed: false,
            ready_sent: false,
            payloads: BTreeMap::new(),
            echoes: BTreeMap::new(),
            readies: BTreeMap::new(),
            delivered: None,
            delivery_taken: false,
        }
    }

    /// The instance identifier.
    pub fn pid(&self) -> &ProtocolId {
        &self.pid
    }

    /// The distinguished sender.
    pub fn sender(&self) -> PartyId {
        self.sender
    }

    /// Starts the broadcast. May only be called once, by the sender.
    ///
    /// # Panics
    ///
    /// Panics if called by a non-sender or twice.
    pub fn send(&mut self, payload: Vec<u8>, out: &mut Outgoing) {
        assert_eq!(self.ctx.me(), self.sender, "only the sender may send");
        assert!(!self.sent, "send may be executed exactly once");
        self.sent = true;
        out.send_all(&self.pid, Body::RbSend(payload));
    }

    /// Whether the payload has been delivered (and not yet taken).
    pub fn can_receive(&self) -> bool {
        self.delivered.is_some() && !self.delivery_taken
    }

    /// Takes the delivered payload, once.
    pub fn take_delivery(&mut self) -> Option<Vec<u8>> {
        if self.delivery_taken {
            return None;
        }
        let d = self.delivered.clone();
        if d.is_some() {
            self.delivery_taken = true;
        }
        d
    }

    /// Read-only view of the delivered payload.
    pub fn delivered(&self) -> Option<&[u8]> {
        self.delivered.as_deref()
    }

    /// Processes a protocol message from `from`.
    pub fn handle(&mut self, from: PartyId, body: &Body, out: &mut Outgoing) {
        if self.delivered.is_some() || !self.ctx.is_valid_party(from) {
            return;
        }
        match body {
            Body::RbSend(payload) => {
                // Only the distinguished sender's initial message counts.
                if from != self.sender || self.echoed {
                    return;
                }
                self.echoed = true;
                out.send_all(&self.pid, Body::RbEcho(payload.clone()));
            }
            Body::RbEcho(payload) => {
                let digest = payload_digest(payload);
                self.payloads
                    .entry(digest)
                    .or_insert_with(|| payload.clone());
                if !self.echoes.entry(digest).or_default().insert(from) {
                    return;
                }
                self.check_progress(digest, out);
            }
            Body::RbReady(digest) => {
                if !self.readies.entry(*digest).or_default().insert(from) {
                    return;
                }
                self.check_progress(*digest, out);
            }
            _ => {}
        }
    }

    fn check_progress(&mut self, digest: [u8; 32], out: &mut Outgoing) {
        let echo_count = self.echoes.get(&digest).map_or(0, BTreeSet::len);
        let ready_count = self.readies.get(&digest).map_or(0, BTreeSet::len);
        if !self.ready_sent
            && (echo_count >= self.ctx.quorum() || ready_count > self.ctx.fault_budget())
        {
            self.ready_sent = true;
            out.send_all(&self.pid, Body::RbReady(digest));
            out.trace_with(|| {
                TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "rb").phase("ready")
            });
        }
        if ready_count >= self.ctx.ready_quorum() {
            if let Some(payload) = self.payloads.get(&digest) {
                self.delivered = Some(payload.clone());
                out.trace_with(|| {
                    TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "rb")
                        .phase("deliver")
                        .bytes(payload.len() as u64)
                });
            }
            // If the payload bytes are unknown the delivery completes when
            // an echo carrying them arrives (quorum of echoes for this
            // digest guarantees an honest party has them).
        }
    }
}

impl StateSnapshot for ReliableBroadcast {
    fn has_pending_work(&self) -> bool {
        let started = self.sent
            || self.echoed
            || !self.echoes.is_empty()
            || !self.readies.is_empty()
            || !self.payloads.is_empty();
        started && self.delivered.is_none()
    }

    fn snapshot_json(&self) -> String {
        let echo_count = self.echoes.values().map(BTreeSet::len).max().unwrap_or(0);
        let ready_count = self.readies.values().map(BTreeSet::len).max().unwrap_or(0);
        SnapshotWriter::new(self.pid.as_str(), "rb")
            .num("sender", self.sender.0 as u64)
            .flag("sent", self.sent)
            .flag("echoed", self.echoed)
            .flag("ready_sent", self.ready_sent)
            .num("echoes", echo_count as u64)
            .num("echo_quorum", self.ctx.quorum() as u64)
            .num("readies", ready_count as u64)
            .num("ready_quorum", self.ctx.ready_quorum() as u64)
            .flag("delivered", self.delivered.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Envelope;
    use crate::pump::{Choice, Pump};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sintra_crypto::dealer::{deal, DealerConfig};
    use std::sync::Arc;

    fn group(n: usize, t: usize) -> Vec<GroupContext> {
        let mut rng = StdRng::seed_from_u64(7);
        deal(&DealerConfig::small(n, t), &mut rng)
            .unwrap()
            .into_iter()
            .map(|k| GroupContext::new(Arc::new(k)))
            .collect()
    }

    fn handle(inst: &mut ReliableBroadcast, from: PartyId, env: &Envelope, out: &mut Outgoing) {
        inst.handle(from, &env.body, out);
    }

    /// Delivers what `from` sent into `out`, and everything it causes,
    /// FIFO to quiescence.
    fn run_to_quiescence(instances: &mut [ReliableBroadcast], from: usize, mut out: Outgoing) {
        let mut pump = Pump::new(instances.len(), Choice::Fifo);
        pump.push(from, &mut out);
        pump.run(instances, handle, 10_000)
            .expect("reliable broadcast did not quiesce");
    }

    fn fresh_instances(ctxs: &[GroupContext], sender: usize) -> Vec<ReliableBroadcast> {
        ctxs.iter()
            .map(|c| ReliableBroadcast::new(ProtocolId::new("rb"), c.clone(), PartyId(sender)))
            .collect()
    }

    #[test]
    fn all_honest_deliver() {
        let ctxs = group(4, 1);
        let mut instances = fresh_instances(&ctxs, 0);
        let mut out = Outgoing::new();
        instances[0].send(b"hello".to_vec(), &mut out);
        run_to_quiescence(&mut instances, 0, out);
        for (i, inst) in instances.iter_mut().enumerate() {
            assert_eq!(
                inst.take_delivery().as_deref(),
                Some(&b"hello"[..]),
                "party {i}"
            );
        }
    }

    #[test]
    fn delivery_taken_once() {
        let ctxs = group(4, 1);
        let mut instances = fresh_instances(&ctxs, 0);
        let mut out = Outgoing::new();
        instances[0].send(b"x".to_vec(), &mut out);
        run_to_quiescence(&mut instances, 0, out);
        assert!(instances[1].can_receive());
        assert!(instances[1].take_delivery().is_some());
        assert!(!instances[1].can_receive());
        assert!(instances[1].take_delivery().is_none());
    }

    #[test]
    fn no_delivery_without_sender() {
        let ctxs = group(4, 1);
        let mut instances = fresh_instances(&ctxs, 0);
        // Party 2 (not the sender) tries to inject a send message.
        let mut out = Outgoing::new();
        out.send_all(&ProtocolId::new("rb"), Body::RbSend(b"forged".to_vec()));
        run_to_quiescence(&mut instances, 2, out);
        for inst in &instances {
            assert!(inst.delivered().is_none());
        }
    }

    #[test]
    fn equivocating_sender_cannot_split_delivery() {
        // Sender 0 is Byzantine: sends "a" to parties 1,2 and "b" to 3.
        let ctxs = group(4, 1);
        let mut instances = fresh_instances(&ctxs, 0);
        // Manually inject conflicting sends (bypassing instance 0).
        let pid = ProtocolId::new("rb");
        let mut out = Outgoing::new();
        out.send_to(PartyId(1), &pid, Body::RbSend(b"a".to_vec()));
        out.send_to(PartyId(2), &pid, Body::RbSend(b"a".to_vec()));
        out.send_to(PartyId(3), &pid, Body::RbSend(b"b".to_vec()));
        let mut pump = Pump::new(4, Choice::Fifo);
        pump.push(0, &mut out);
        while let Some(d) = pump.next() {
            // Honest parties only: party 0 is Byzantine and runs no code.
            if d.to != 0 {
                pump.deliver(&mut instances, d, handle);
            }
        }
        // Agreement: the honest parties that delivered all delivered the
        // same payload.
        let delivered: Vec<&[u8]> = instances[1..]
            .iter()
            .filter_map(|i| i.delivered())
            .collect();
        for pair in delivered.windows(2) {
            assert_eq!(pair[0], pair[1], "honest parties disagree");
        }
    }

    #[test]
    #[should_panic(expected = "only the sender")]
    fn non_sender_cannot_send() {
        let ctxs = group(4, 1);
        let mut inst = ReliableBroadcast::new(ProtocolId::new("rb"), ctxs[1].clone(), PartyId(0));
        inst.send(b"x".to_vec(), &mut Outgoing::new());
    }

    #[test]
    fn duplicate_votes_ignored() {
        let ctxs = group(4, 1);
        let mut inst = ReliableBroadcast::new(ProtocolId::new("rb"), ctxs[1].clone(), PartyId(0));
        let mut out = Outgoing::new();
        let digest = payload_digest(b"x");
        // The same party repeating a ready must not count as 2t+1.
        for _ in 0..10 {
            inst.handle(PartyId(2), &Body::RbReady(digest), &mut out);
        }
        assert!(inst.delivered().is_none());
    }
}
