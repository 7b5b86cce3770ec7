//! Consistent (echo) broadcast with threshold signatures, and its
//! verifiable extension.
//!
//! Protocol (paper §2.2, Reiter's echo broadcast with threshold
//! signatures): the sender sends the payload to all parties; each party
//! returns a threshold-signature share binding the payload to the instance;
//! from a quorum of `⌈(n+t+1)/2⌉` shares the sender assembles a threshold
//! signature and sends it to all; a party delivers on receiving a valid
//! `(payload, signature)` pair. Linear communication, but signature work.
//!
//! Because any two quorums intersect in an honest party, no two different
//! payloads can both acquire signatures — delivering parties are
//! *consistent*, though some parties may deliver nothing (that is the
//! primitive's contract).

use sintra_crypto::thsig::{SigShare, ThresholdSignature};
use sintra_telemetry::{SnapshotWriter, StateSnapshot, TraceEvent};

use crate::checked::{Checked, Thsig, Unchecked};
use crate::config::GroupContext;
use crate::ids::{PartyId, ProtocolId};
use crate::message::{statement_cb, Body};
use crate::outgoing::Outgoing;
use crate::wire::{wire_struct, Wire};

/// A consistent broadcast instance.
#[derive(Debug)]
pub struct ConsistentBroadcast {
    pid: ProtocolId,
    ctx: GroupContext,
    sender: PartyId,
    sent: bool,
    /// This party's echo share, once it has answered the sender.
    echo: Option<Checked<SigShare>>,
    /// (sender only) payload being broadcast and collected shares.
    own_payload: Option<Vec<u8>>,
    shares: Vec<Checked<SigShare>>,
    /// (sender only) the signature it assembled and sent in its final.
    assembled: Option<Checked<ThresholdSignature>>,
    delivered: Option<(Vec<u8>, Checked<ThresholdSignature>)>,
    delivery_taken: bool,
}

impl ConsistentBroadcast {
    /// Creates an instance for `sender`'s broadcast under `pid`.
    pub fn new(pid: ProtocolId, ctx: GroupContext, sender: PartyId) -> Self {
        ConsistentBroadcast {
            pid,
            ctx,
            sender,
            sent: false,
            echo: None,
            own_payload: None,
            shares: Vec::new(),
            assembled: None,
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
        self.own_payload = Some(payload.clone());
        out.send_all(&self.pid, Body::CbSend(payload));
    }

    /// Whether a payload has been delivered (and not yet taken).
    pub fn can_receive(&self) -> bool {
        self.delivered.is_some() && !self.delivery_taken
    }

    /// Takes the delivered payload, once.
    pub fn take_delivery(&mut self) -> Option<Vec<u8>> {
        if self.delivery_taken {
            return None;
        }
        let d = self.delivered.as_ref().map(|(p, _)| p.clone());
        if d.is_some() {
            self.delivery_taken = true;
        }
        d
    }

    /// Read-only view of the delivered payload.
    pub fn delivered(&self) -> Option<&[u8]> {
        self.delivered.as_ref().map(|(p, _)| p.as_slice())
    }

    /// The threshold signature that closed this broadcast, if delivered.
    pub fn delivered_signature(&self) -> Option<&ThresholdSignature> {
        self.delivered.as_ref().map(|(_, s)| &**s)
    }

    /// Processes a protocol message from `from`.
    pub fn handle(&mut self, from: PartyId, body: &Body, out: &mut Outgoing) {
        if !self.ctx.is_valid_party(from) {
            return;
        }
        match body {
            Body::CbSend(payload) => {
                if from != self.sender || self.echo.is_some() {
                    return;
                }
                let statement = statement_cb(&self.pid, payload);
                let share = self.ctx.sign_share(Thsig::Broadcast, &statement);
                out.send_to(self.sender, &self.pid, Body::CbEcho(share.clone().forget()));
                self.echo = Some(share);
            }
            Body::CbEcho(share) => {
                // Only the sender collects shares.
                let Some(payload) = &self.own_payload else {
                    return;
                };
                if self.assembled.is_some() || share.index != from.0 {
                    return;
                }
                if self.shares.iter().any(|s| s.index == share.index) {
                    return;
                }
                let statement = statement_cb(&self.pid, payload);
                // The sender's own echo comes back as it signed it.
                let Some(share) =
                    self.ctx
                        .check_share_holding(Thsig::Broadcast, &statement, share, &self.echo)
                else {
                    return;
                };
                self.shares.push(share);
                if self.shares.len() >= self.ctx.keys().common.thsig_broadcast.threshold() {
                    let sig = self
                        .ctx
                        .assemble_sig(Thsig::Broadcast, &statement, &self.shares);
                    if let Some(sig) = sig {
                        out.trace_with(|| {
                            TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "vcb")
                                .phase("final")
                                .bytes(payload.len() as u64)
                        });
                        out.send_all(
                            &self.pid,
                            Body::CbFinal {
                                payload: payload.clone(),
                                sig: sig.clone().forget(),
                            },
                        );
                        self.assembled = Some(sig);
                    }
                }
            }
            Body::CbFinal { payload, sig } => {
                if self.delivered.is_some() {
                    return;
                }
                if let Some(sig) = self.check_final(payload, sig) {
                    self.delivered = Some((payload.clone(), sig));
                    out.trace_with(|| {
                        TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "vcb")
                            .phase("deliver")
                            .bytes(payload.len() as u64)
                    });
                }
            }
            _ => {}
        }
    }

    /// The signature that closes this broadcast with `payload`, checked
    /// but for what this party holds: compared whole with the signature
    /// it assembled (its own final come back) or delivered with, then
    /// component by component with its own echo share and the shares it
    /// collected.
    fn check_final(
        &self,
        payload: &[u8],
        sig: &Unchecked<ThresholdSignature>,
    ) -> Option<Checked<ThresholdSignature>> {
        let statement = statement_cb(&self.pid, payload);
        let delivered = self.delivered.as_ref().map(|(_, sig)| sig);
        let sigs = self.assembled.iter().chain(delivered);
        let shares = self.shares.iter().chain(&self.echo);
        self.ctx
            .check_sig_holding(Thsig::Broadcast, &statement, sig, sigs, shares)
    }
}

impl StateSnapshot for ConsistentBroadcast {
    fn has_pending_work(&self) -> bool {
        let started = self.sent || self.echo.is_some() || !self.shares.is_empty();
        started && self.delivered.is_none()
    }

    fn snapshot_json(&self) -> String {
        SnapshotWriter::new(self.pid.as_str(), "vcb")
            .num("sender", self.sender.0 as u64)
            .flag("sent", self.sent)
            .flag("echoed", self.echo.is_some())
            .num("shares", self.shares.len() as u64)
            .num(
                "share_threshold",
                self.ctx.keys().common.thsig_broadcast.threshold() as u64,
            )
            .flag("final_sent", self.assembled.is_some())
            .flag("delivered", self.delivered.is_some())
            .finish()
    }
}

impl StateSnapshot for VerifiableConsistentBroadcast {
    fn has_pending_work(&self) -> bool {
        self.inner.has_pending_work()
    }

    fn snapshot_json(&self) -> String {
        self.inner.snapshot_json()
    }
}

/// Verifiable consistent broadcast: consistent broadcast plus transferable
/// *closing messages* (paper §3.2).
///
/// A party that delivered can produce a single byte string which lets any
/// other party deliver the same payload and terminate — no further network
/// interaction needed. This "virtual protocol" adds no messages of its own.
#[derive(Debug)]
pub struct VerifiableConsistentBroadcast {
    inner: ConsistentBroadcast,
}

/// A closing message: the payload together with the threshold signature
/// binding it to the instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosingMessage {
    /// The payload.
    pub payload: Vec<u8>,
    /// The instance-binding threshold signature.
    pub sig: Unchecked<ThresholdSignature>,
}

wire_struct!(ClosingMessage { payload: Vec<u8>, sig: Unchecked<ThresholdSignature> });

impl VerifiableConsistentBroadcast {
    /// Creates an instance for `sender`'s broadcast under `pid`.
    pub fn new(pid: ProtocolId, ctx: GroupContext, sender: PartyId) -> Self {
        VerifiableConsistentBroadcast {
            inner: ConsistentBroadcast::new(pid, ctx, sender),
        }
    }

    /// The instance identifier.
    pub fn pid(&self) -> &ProtocolId {
        self.inner.pid()
    }

    /// The distinguished sender.
    pub fn sender(&self) -> PartyId {
        self.inner.sender()
    }

    /// Starts the broadcast (sender only).
    pub fn send(&mut self, payload: Vec<u8>, out: &mut Outgoing) {
        self.inner.send(payload, out);
    }

    /// Whether a payload has been delivered (and not yet taken).
    pub fn can_receive(&self) -> bool {
        self.inner.can_receive()
    }

    /// Takes the delivered payload, once.
    pub fn take_delivery(&mut self) -> Option<Vec<u8>> {
        self.inner.take_delivery()
    }

    /// Read-only view of the delivered payload.
    pub fn delivered(&self) -> Option<&[u8]> {
        self.inner.delivered()
    }

    /// Processes a protocol message.
    pub fn handle(&mut self, from: PartyId, body: &Body, out: &mut Outgoing) {
        self.inner.handle(from, body, out);
    }

    /// Returns the closing message once the broadcast has delivered.
    pub fn closing(&self) -> Option<Vec<u8>> {
        let (payload, sig) = self.inner.delivered.as_ref()?;
        Some(
            ClosingMessage {
                payload: payload.clone(),
                sig: sig.clone().forget(),
            }
            .to_bytes(),
        )
    }

    /// Delivers from a closing message obtained out-of-band. Returns
    /// whether the message was valid (and the instance is now delivered).
    pub fn deliver_closing(&mut self, closing: &[u8]) -> bool {
        if self.inner.delivered.is_some() {
            return true;
        }
        self.inner.delivered = self.check_closing(closing);
        self.inner.delivered.is_some()
    }

    /// Checks a closing message for this instance, returning its payload
    /// and checked signature if valid. What of its signature equals what
    /// the instance holds is not verified again.
    pub fn check_closing(&self, closing: &[u8]) -> Option<(Vec<u8>, Checked<ThresholdSignature>)> {
        let msg = ClosingMessage::from_bytes(closing).ok()?;
        let sig = self.inner.check_final(&msg.payload, &msg.sig)?;
        Some((msg.payload, sig))
    }

    /// Extracts the payload from a closing message without validation.
    pub fn payload_from_closing(closing: &[u8]) -> Option<Vec<u8>> {
        ClosingMessage::from_bytes(closing).ok().map(|m| m.payload)
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

    fn group(n: usize, t: usize) -> Vec<GroupContext> {
        let mut rng = StdRng::seed_from_u64(17);
        deal(&DealerConfig::small(n, t), &mut rng)
            .unwrap()
            .into_iter()
            .map(|k| GroupContext::new(Arc::new(k)))
            .collect()
    }

    /// Delivers what `sender` sent into `out`, and everything it causes,
    /// FIFO to quiescence.
    fn run(instances: &mut [ConsistentBroadcast], sender: usize, mut out: Outgoing) {
        let mut pump = Pump::new(instances.len(), Choice::Fifo);
        pump.push(sender, &mut out);
        pump.run(
            instances,
            |inst, from, env, out| inst.handle(from, &env.body, out),
            10_000,
        )
        .expect("consistent broadcast did not quiesce");
    }

    #[test]
    fn all_honest_deliver_consistently() {
        let ctxs = group(4, 1);
        let mut instances: Vec<ConsistentBroadcast> = ctxs
            .iter()
            .map(|c| ConsistentBroadcast::new(ProtocolId::new("cb"), c.clone(), PartyId(1)))
            .collect();
        let mut out = Outgoing::new();
        instances[1].send(b"consistent".to_vec(), &mut out);
        run(&mut instances, 1, out);
        for (i, inst) in instances.iter_mut().enumerate() {
            assert_eq!(
                inst.take_delivery().as_deref(),
                Some(&b"consistent"[..]),
                "party {i}"
            );
        }
    }

    #[test]
    fn forged_final_rejected() {
        let ctxs = group(4, 1);
        let mut inst = ConsistentBroadcast::new(ProtocolId::new("cb"), ctxs[2].clone(), PartyId(0));
        let mut out = Outgoing::new();
        // A final with a garbage signature must not deliver.
        inst.handle(
            PartyId(0),
            &Body::CbFinal {
                payload: b"fake".to_vec(),
                sig: ThresholdSignature::Multi(vec![]).into(),
            },
            &mut out,
        );
        assert!(inst.delivered().is_none());
    }

    #[test]
    fn signature_bound_to_instance() {
        // A valid final for pid A must not deliver in an instance with pid B.
        let ctxs = group(4, 1);
        let pid_a = ProtocolId::new("cb-A");
        let pid_b = ProtocolId::new("cb-B");
        let mut senders: Vec<ConsistentBroadcast> = ctxs
            .iter()
            .map(|c| ConsistentBroadcast::new(pid_a.clone(), c.clone(), PartyId(0)))
            .collect();
        let mut out = Outgoing::new();
        senders[0].send(b"m".to_vec(), &mut out);
        run(&mut senders, 0, out);
        let sig = senders[1].delivered_signature().unwrap().clone();

        let mut other = ConsistentBroadcast::new(pid_b, ctxs[1].clone(), PartyId(0));
        other.handle(
            PartyId(0),
            &Body::CbFinal {
                payload: b"m".to_vec(),
                sig: sig.into(),
            },
            &mut Outgoing::new(),
        );
        assert!(
            other.delivered().is_none(),
            "cross-instance replay rejected"
        );
    }

    #[test]
    fn verifiable_closing_transfers_delivery() {
        let ctxs = group(4, 1);
        let pid = ProtocolId::new("vcb");
        let mut instances: Vec<ConsistentBroadcast> = ctxs
            .iter()
            .map(|c| ConsistentBroadcast::new(pid.clone(), c.clone(), PartyId(0)))
            .collect();
        let mut out = Outgoing::new();
        instances[0].send(b"proposal".to_vec(), &mut out);
        run(&mut instances, 0, out);

        // Wrap a delivered instance to extract the closing message.
        let delivered = VerifiableConsistentBroadcast {
            inner: instances.remove(1),
        };
        let closing = delivered.closing().unwrap();
        assert_eq!(
            VerifiableConsistentBroadcast::payload_from_closing(&closing).unwrap(),
            b"proposal"
        );
        let checker = VerifiableConsistentBroadcast::new(pid.clone(), ctxs[2].clone(), PartyId(0));
        assert!(checker.check_closing(&closing).is_some());

        // A fresh party instance that saw no messages delivers from it.
        let mut fresh =
            VerifiableConsistentBroadcast::new(pid.clone(), ctxs[2].clone(), PartyId(0));
        assert!(fresh.deliver_closing(&closing));
        assert_eq!(fresh.take_delivery().as_deref(), Some(&b"proposal"[..]));

        // Tampered closing is rejected.
        let mut bad = closing.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        let mut fresh2 =
            VerifiableConsistentBroadcast::new(pid.clone(), ctxs[3].clone(), PartyId(0));
        assert!(!fresh2.deliver_closing(&bad));
        assert!(fresh2.delivered().is_none());
    }

    #[test]
    fn echo_share_from_wrong_index_ignored() {
        let ctxs = group(4, 1);
        let pid = ProtocolId::new("cb");
        let mut sender = ConsistentBroadcast::new(pid.clone(), ctxs[0].clone(), PartyId(0));
        let mut out = Outgoing::new();
        sender.send(b"m".to_vec(), &mut out);
        // Party 2's share claimed to be from party 3: must be dropped.
        let statement = statement_cb(&pid, b"m");
        let share = ctxs[2].sign_share(Thsig::Broadcast, &statement).forget();
        sender.handle(PartyId(3), &Body::CbEcho(share), &mut Outgoing::new());
        assert!(sender.shares.is_empty());
    }
}
