//! The per-party protocol host.
//!
//! A [`Node`] is the SINTRA server process in miniature: it owns one
//! party's key material and all of that party's live protocol instances,
//! routes incoming envelopes to them by protocol id, and translates their
//! state changes into [`Event`]s for the runtime. It is still sans-IO —
//! runtimes feed it envelopes and transmit what it emits.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sintra_crypto::cost::CostScope;
use sintra_telemetry::{root_scope, NoopRecorder, Recorder, StateSnapshot, CRYPTO_WORK_MILLI};

use crate::agreement::{BinaryAgreement, CandidateOrder, MultiValuedAgreement};
use crate::broadcast::{ReliableBroadcast, VerifiableConsistentBroadcast};
use crate::channel::{
    AtomicChannel, AtomicChannelConfig, ConsistentChannel, FetchCounts, OptimisticChannel,
    OptimisticChannelConfig, ReliableChannel, SecureAtomicChannel,
};
use crate::config::GroupContext;
use crate::ids::{PartyId, ProtocolId};
use crate::invariant_unwrap;
use crate::invariant_violated;
use crate::message::Envelope;
use crate::outgoing::{Event, Outgoing};
use crate::validator::{ArrayValidator, BinaryValidator};

/// Any top-level protocol instance a node can host.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Instance {
    ReliableBroadcast(ReliableBroadcast),
    ConsistentBroadcast(VerifiableConsistentBroadcast),
    /// An agreement with the user's validity predicate, passed on each
    /// call.
    BinaryAgreement(BinaryAgreement, BinaryValidator),
    MultiValued(MultiValuedAgreement, ArrayValidator),
    Atomic(AtomicChannel),
    Secure(SecureAtomicChannel),
    Optimistic(OptimisticChannel),
    ReliableChannel(ReliableChannel),
    ConsistentChannel(ConsistentChannel),
}

/// Shared telemetry sink (newtype so `Node` can keep deriving `Debug`).
#[derive(Clone)]
struct RecorderSlot(Arc<dyn Recorder>);

impl fmt::Debug for RecorderSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.0.enabled())
            .finish()
    }
}

/// Adds an atomic channel's hold-backs and `ac-fetch` traffic to its
/// scope's counters (`proposals_parked`, `fetch_sent`, `fetch_served`,
/// `fetch_ignored`; all stay absent on a run in which every entry arrived
/// before the proposals naming it).
fn record_fetches(recorder: &Arc<dyn Recorder>, pid: &ProtocolId, counts: FetchCounts) {
    let scope = root_scope(pid.as_str());
    for (name, count) in [
        ("proposals_parked", counts.parked),
        ("fetch_sent", counts.sent),
        ("fetch_served", counts.served),
        ("fetch_ignored", counts.ignored),
    ] {
        if count > 0 {
            recorder.counter_add(scope, name, count);
        }
    }
}

/// A party's protocol host.
#[derive(Debug)]
pub struct Node {
    ctx: GroupContext,
    instances: BTreeMap<ProtocolId, Instance>,
    events: Vec<Event>,
    /// Randomness for payload encryption on secure channels.
    rng: StdRng,
    /// Telemetry sink; a no-op unless [`Node::set_recorder`] installs one.
    recorder: RecorderSlot,
    /// Per root scope, the crypto work measured but not yet counted, in
    /// milli-units (at most half of one either way): a step's work is
    /// counted in whole milli-units, and what rounding leaves is carried
    /// into the scope's next step instead of dropped.
    crypto_carry: BTreeMap<String, f64>,
}

impl Node {
    /// Creates a node for a party. `seed` drives only the node's local
    /// randomness (payload encryption); distinct parties should use
    /// distinct seeds.
    pub fn new(ctx: GroupContext, seed: u64) -> Self {
        Node {
            ctx,
            instances: BTreeMap::new(),
            events: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            recorder: RecorderSlot(Arc::new(NoopRecorder)),
            crypto_carry: BTreeMap::new(),
        }
    }

    /// Installs a telemetry recorder. Per-message-kind counters, delivery
    /// counters and per-instance crypto-work attribution flow into it;
    /// with the default [`NoopRecorder`] all instrumentation reduces to
    /// one branch per step.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = RecorderSlot(recorder);
    }

    /// The installed telemetry recorder.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder.0
    }

    /// Opens a crypto-work scope when telemetry is on.
    fn crypto_scope(&self) -> Option<CostScope> {
        if self.recorder.0.enabled() {
            Some(CostScope::enter())
        } else {
            None
        }
    }

    /// Charges the work measured by `scope` to `pid`'s root instance.
    fn attribute_crypto(&mut self, pid: &ProtocolId, scope: Option<CostScope>) {
        if let Some(scope) = scope {
            let name = root_scope(pid.as_str());
            let carry = match self.crypto_carry.get_mut(name) {
                Some(carry) => carry,
                None => self.crypto_carry.entry(name.to_string()).or_default(),
            };
            let exact = *carry + scope.elapsed() * CRYPTO_WORK_MILLI;
            // A work reading is a small count of milli-units, at least
            // −0.5 with the carry, and `as` saturates rather than wraps.
            #[allow(clippy::cast_possible_truncation)]
            let milli = exact.round() as u64;
            *carry = exact - milli as f64;
            if milli > 0 {
                self.recorder
                    .0
                    .counter_add(name, "crypto_work_milli", milli);
            }
        }
    }

    /// This node's party identity.
    pub fn me(&self) -> PartyId {
        self.ctx.me()
    }

    /// The node's group context.
    pub fn context(&self) -> &GroupContext {
        &self.ctx
    }

    /// Drains events produced since the last call.
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    fn register(&mut self, pid: ProtocolId, instance: Instance) {
        let prev = self.instances.insert(pid.clone(), instance);
        assert!(prev.is_none(), "duplicate protocol id {pid}");
    }

    /// Registers a reliable broadcast instance for `sender`.
    pub fn create_reliable_broadcast(&mut self, pid: ProtocolId, sender: PartyId) {
        let inst = ReliableBroadcast::new(pid.clone(), self.ctx.clone(), sender);
        self.register(pid, Instance::ReliableBroadcast(inst));
    }

    /// Registers a (verifiable) consistent broadcast instance for `sender`.
    pub fn create_consistent_broadcast(&mut self, pid: ProtocolId, sender: PartyId) {
        let inst = VerifiableConsistentBroadcast::new(pid.clone(), self.ctx.clone(), sender);
        self.register(pid, Instance::ConsistentBroadcast(inst));
    }

    /// Registers a binary agreement instance. `validator` enables the
    /// validated variant; `bias` the biased one.
    pub fn create_binary_agreement(
        &mut self,
        pid: ProtocolId,
        validator: Option<BinaryValidator>,
        bias: Option<bool>,
    ) {
        let mut inst = BinaryAgreement::new(pid.clone(), self.ctx.clone());
        if validator.is_some() {
            inst = inst.validated();
        }
        if let Some(b) = bias {
            inst = inst.with_bias(b);
        }
        let validator = validator.unwrap_or_else(BinaryValidator::always);
        self.register(pid, Instance::BinaryAgreement(inst, validator));
    }

    /// Registers a multi-valued agreement instance.
    pub fn create_multi_valued(
        &mut self,
        pid: ProtocolId,
        validator: ArrayValidator,
        order: CandidateOrder,
    ) {
        let inst = MultiValuedAgreement::new(pid.clone(), self.ctx.clone(), order);
        self.register(pid, Instance::MultiValued(inst, validator));
    }

    /// Opens an atomic broadcast channel.
    pub fn create_atomic_channel(&mut self, pid: ProtocolId, config: AtomicChannelConfig) {
        let inst = AtomicChannel::new(pid.clone(), self.ctx.clone(), config);
        self.register(pid, Instance::Atomic(inst));
    }

    /// Opens a secure causal atomic broadcast channel.
    pub fn create_secure_channel(&mut self, pid: ProtocolId, config: AtomicChannelConfig) {
        let inst = SecureAtomicChannel::new(pid.clone(), self.ctx.clone(), config);
        self.register(pid, Instance::Secure(inst));
    }

    /// Opens an optimistic (leader-sequenced) atomic broadcast channel.
    pub fn create_optimistic_channel(&mut self, pid: ProtocolId, config: OptimisticChannelConfig) {
        let inst = OptimisticChannel::new(pid.clone(), self.ctx.clone(), config);
        self.register(pid, Instance::Optimistic(inst));
    }

    /// Opens a reliable channel.
    pub fn create_reliable_channel(&mut self, pid: ProtocolId) {
        let inst = ReliableChannel::new(pid.clone(), self.ctx.clone());
        self.register(pid, Instance::ReliableChannel(inst));
    }

    /// Opens a reliable channel with a bounded number of own broadcasts in
    /// flight (`1` models SINTRA's sequential sender thread).
    pub fn create_reliable_channel_windowed(&mut self, pid: ProtocolId, window: usize) {
        let inst = ReliableChannel::new(pid.clone(), self.ctx.clone()).with_send_window(window);
        self.register(pid, Instance::ReliableChannel(inst));
    }

    /// Opens a consistent channel.
    pub fn create_consistent_channel(&mut self, pid: ProtocolId) {
        let inst = ConsistentChannel::new(pid.clone(), self.ctx.clone());
        self.register(pid, Instance::ConsistentChannel(inst));
    }

    /// Opens a consistent channel with a bounded send window.
    pub fn create_consistent_channel_windowed(&mut self, pid: ProtocolId, window: usize) {
        let inst = ConsistentChannel::new(pid.clone(), self.ctx.clone()).with_send_window(window);
        self.register(pid, Instance::ConsistentChannel(inst));
    }

    /// Starts a broadcast (this party must be the instance's sender).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a broadcast instance of this node.
    pub fn broadcast_send(&mut self, pid: &ProtocolId, payload: Vec<u8>, out: &mut Outgoing) {
        let scope = self.crypto_scope();
        match self.instances.get_mut(pid) {
            Some(Instance::ReliableBroadcast(b)) => b.send(payload, out),
            Some(Instance::ConsistentBroadcast(b)) => b.send(payload, out),
            _ => invariant_violated!("no broadcast instance {pid}"),
        }
        self.attribute_crypto(pid, scope);
        self.harvest();
    }

    /// Proposes a value to a binary agreement instance.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a binary agreement instance.
    pub fn propose_binary(
        &mut self,
        pid: &ProtocolId,
        value: bool,
        proof: Vec<u8>,
        out: &mut Outgoing,
    ) {
        let scope = self.crypto_scope();
        match self.instances.get_mut(pid) {
            Some(Instance::BinaryAgreement(a, v)) => {
                a.propose(&|value, proof| v.is_valid(value, proof), value, proof, out);
            }
            _ => invariant_violated!("no binary agreement instance {pid}"),
        }
        self.attribute_crypto(pid, scope);
        self.harvest();
    }

    /// Proposes a value to a multi-valued agreement instance.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a multi-valued agreement instance.
    pub fn propose_multi(&mut self, pid: &ProtocolId, value: Vec<u8>, out: &mut Outgoing) {
        let scope = self.crypto_scope();
        match self.instances.get_mut(pid) {
            Some(Instance::MultiValued(a, v)) => a.propose(&|value| v.is_valid(value), value, out),
            _ => invariant_violated!("no multi-valued agreement instance {pid}"),
        }
        self.attribute_crypto(pid, scope);
        self.harvest();
    }

    /// Sends a payload on a channel.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a channel of this node, or the channel is
    /// closing.
    pub fn channel_send(&mut self, pid: &ProtocolId, data: Vec<u8>, out: &mut Outgoing) {
        let scope = self.crypto_scope();
        match self.instances.get_mut(pid) {
            Some(Instance::Atomic(c)) => c.send(data, out),
            Some(Instance::Secure(c)) => c.send(data, &mut self.rng, out),
            Some(Instance::Optimistic(c)) => c.send(data, out),
            Some(Instance::ReliableChannel(c)) => c.send(data, out),
            Some(Instance::ConsistentChannel(c)) => c.send(data, out),
            _ => invariant_violated!("no channel instance {pid}"),
        }
        self.attribute_crypto(pid, scope);
        self.harvest();
    }

    /// Whether a channel currently accepts sends.
    pub fn channel_can_send(&self, pid: &ProtocolId) -> bool {
        match self.instances.get(pid) {
            Some(Instance::Atomic(c)) => c.can_send(),
            Some(Instance::Secure(c)) => c.can_send(),
            Some(Instance::Optimistic(c)) => c.can_send(),
            Some(Instance::ReliableChannel(c)) => c.can_send(),
            Some(Instance::ConsistentChannel(c)) => c.can_send(),
            _ => false,
        }
    }

    /// Requests termination of a channel.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a channel of this node.
    pub fn channel_close(&mut self, pid: &ProtocolId, out: &mut Outgoing) {
        let scope = self.crypto_scope();
        match self.instances.get_mut(pid) {
            Some(Instance::Atomic(c)) => c.close(out),
            Some(Instance::Secure(c)) => c.close(out),
            Some(Instance::Optimistic(c)) => c.close(out),
            Some(Instance::ReliableChannel(c)) => c.close(out),
            Some(Instance::ConsistentChannel(c)) => c.close(out),
            _ => invariant_violated!("no channel instance {pid}"),
        }
        self.attribute_crypto(pid, scope);
        self.harvest();
    }

    /// Injects an externally produced ciphertext into a secure channel.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a secure channel of this node.
    pub fn channel_send_ciphertext(
        &mut self,
        pid: &ProtocolId,
        ciphertext: Vec<u8>,
        out: &mut Outgoing,
    ) {
        let scope = self.crypto_scope();
        match self.instances.get_mut(pid) {
            Some(Instance::Secure(c)) => c.send_ciphertext(ciphertext, out),
            _ => invariant_violated!("no secure channel instance {pid}"),
        }
        self.attribute_crypto(pid, scope);
        self.harvest();
    }

    /// Routes an incoming envelope to the owning instance. Unroutable
    /// envelopes are dropped (the sender may be corrupt).
    pub fn handle_envelope(&mut self, from: PartyId, envelope: &Envelope, out: &mut Outgoing) {
        // Find the unique root instance whose pid prefixes the envelope's.
        let target = self
            .instances
            .keys()
            .find(|root| envelope.pid.is_self_or_descendant_of(root))
            .cloned();
        let Some(root) = target else { return };
        if self.recorder.0.enabled() {
            self.recorder
                .0
                .counter_add(root_scope(root.as_str()), envelope.body.kind(), 1);
        }
        let scope = self.crypto_scope();
        match invariant_unwrap!(
            self.instances.get_mut(&root),
            "instance {root} vanished under its own key"
        ) {
            Instance::ReliableBroadcast(b) => b.handle(from, &envelope.body, out),
            Instance::ConsistentBroadcast(b) => b.handle(from, &envelope.body, out),
            Instance::BinaryAgreement(a, v) => {
                let valid = |value, proof: &[u8]| v.is_valid(value, proof);
                a.handle(&valid, from, &envelope.body, out);
            }
            Instance::MultiValued(a, v) => {
                let valid = |value: &[u8]| v.is_valid(value);
                a.handle(&valid, from, &envelope.pid, &envelope.body, out);
            }
            Instance::Atomic(c) => c.handle(from, &envelope.pid, &envelope.body, out),
            Instance::Secure(c) => c.handle(from, &envelope.pid, &envelope.body, out),
            Instance::Optimistic(c) => c.handle(from, &envelope.pid, &envelope.body, out),
            Instance::ReliableChannel(c) => c.handle(from, &envelope.pid, &envelope.body, out),
            Instance::ConsistentChannel(c) => c.handle(from, &envelope.pid, &envelope.body, out),
        }
        self.attribute_crypto(&root, scope);
        self.harvest();
    }

    /// Routes a timer expiry to the owning instance (only the optimistic
    /// channel uses timers; other instances ignore them).
    pub fn handle_timer(&mut self, pid: &ProtocolId, token: u64, out: &mut Outgoing) {
        let target = self
            .instances
            .keys()
            .find(|root| pid.is_self_or_descendant_of(root))
            .cloned();
        let Some(root) = target else { return };
        let scope = self.crypto_scope();
        if let Instance::Optimistic(c) = invariant_unwrap!(
            self.instances.get_mut(&root),
            "instance {root} vanished under its own key"
        ) {
            c.handle_timer(token, out);
        }
        self.attribute_crypto(&root, scope);
        self.harvest();
    }

    /// A view of an instance as its [`StateSnapshot`] facet.
    fn as_snapshot(instance: &Instance) -> &dyn StateSnapshot {
        match instance {
            Instance::ReliableBroadcast(b) => b,
            Instance::ConsistentBroadcast(b) => b,
            Instance::BinaryAgreement(a, _) => a,
            Instance::MultiValued(a, _) => a,
            Instance::Atomic(c) => c,
            Instance::Secure(c) => c,
            Instance::Optimistic(c) => c,
            Instance::ReliableChannel(c) => c,
            Instance::ConsistentChannel(c) => c,
        }
    }

    /// Whether any hosted instance has started but not finished its work
    /// (the stall detector's "is anything outstanding" probe).
    pub fn has_pending_work(&self) -> bool {
        self.instances
            .values()
            .any(|inst| Self::as_snapshot(inst).has_pending_work())
    }

    /// Serializes every hosted instance's live phase to JSON, sorted by
    /// protocol id so dumps diff cleanly across parties.
    pub fn snapshot_instances(&self) -> Vec<String> {
        let mut pids: Vec<&ProtocolId> = self.instances.keys().collect();
        pids.sort_by(|a, b| a.as_str().cmp(b.as_str()));
        pids.into_iter()
            .map(|pid| Self::as_snapshot(&self.instances[pid]).snapshot_json())
            .collect()
    }

    /// Translates instance state changes into events.
    fn harvest(&mut self) {
        let before = self.events.len();
        for (pid, instance) in self.instances.iter_mut() {
            match instance {
                Instance::ReliableBroadcast(b) => {
                    if let Some(payload) = b.take_delivery() {
                        self.events.push(Event::BroadcastDelivered {
                            pid: pid.clone(),
                            payload,
                        });
                    }
                }
                Instance::ConsistentBroadcast(b) => {
                    if let Some(payload) = b.take_delivery() {
                        self.events.push(Event::BroadcastDelivered {
                            pid: pid.clone(),
                            payload,
                        });
                    }
                }
                Instance::BinaryAgreement(a, _) => {
                    if let Some((value, proof)) = a.take_decision() {
                        self.events.push(Event::BinaryDecided {
                            pid: pid.clone(),
                            value,
                            proof,
                        });
                    }
                }
                Instance::MultiValued(a, _) => {
                    if let Some(value) = a.take_decision() {
                        self.events.push(Event::MultiDecided {
                            pid: pid.clone(),
                            value,
                        });
                    }
                }
                Instance::Atomic(c) => {
                    while let Some(payload) = c.take_delivery() {
                        self.events.push(Event::ChannelDelivered {
                            pid: pid.clone(),
                            payload,
                        });
                    }
                    if c.take_closed() {
                        self.events.push(Event::ChannelClosed { pid: pid.clone() });
                    }
                    record_fetches(&self.recorder.0, pid, c.take_fetch_counts());
                }
                Instance::Secure(c) => {
                    while let Some((origin, seq, ciphertext)) = c.take_ordered_ciphertext() {
                        self.events.push(Event::CiphertextOrdered {
                            pid: pid.clone(),
                            origin,
                            seq,
                            ciphertext,
                        });
                    }
                    while let Some(payload) = c.take_delivery() {
                        self.events.push(Event::ChannelDelivered {
                            pid: pid.clone(),
                            payload,
                        });
                    }
                    if c.take_closed() {
                        self.events.push(Event::ChannelClosed { pid: pid.clone() });
                    }
                    record_fetches(&self.recorder.0, pid, c.take_fetch_counts());
                }
                Instance::Optimistic(c) => {
                    while let Some(payload) = c.take_delivery() {
                        self.events.push(Event::ChannelDelivered {
                            pid: pid.clone(),
                            payload,
                        });
                    }
                    if c.take_closed() {
                        self.events.push(Event::ChannelClosed { pid: pid.clone() });
                    }
                }
                Instance::ReliableChannel(c) => {
                    while let Some(payload) = c.take_delivery() {
                        self.events.push(Event::ChannelDelivered {
                            pid: pid.clone(),
                            payload,
                        });
                    }
                    if c.take_closed() {
                        self.events.push(Event::ChannelClosed { pid: pid.clone() });
                    }
                }
                Instance::ConsistentChannel(c) => {
                    while let Some(payload) = c.take_delivery() {
                        self.events.push(Event::ChannelDelivered {
                            pid: pid.clone(),
                            payload,
                        });
                    }
                    if c.take_closed() {
                        self.events.push(Event::ChannelClosed { pid: pid.clone() });
                    }
                }
            }
        }
        if self.recorder.0.enabled() {
            for event in &self.events[before..] {
                if let Event::BroadcastDelivered { pid, .. }
                | Event::BinaryDecided { pid, .. }
                | Event::MultiDecided { pid, .. }
                | Event::ChannelDelivered { pid, .. }
                | Event::CiphertextOrdered { pid, .. } = event
                {
                    self.recorder
                        .0
                        .counter_add(root_scope(pid.as_str()), "deliveries", 1);
                }
            }
        }
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

    fn nodes(n: usize, t: usize) -> Vec<Node> {
        let mut rng = StdRng::seed_from_u64(47);
        deal(&DealerConfig::small(n, t), &mut rng)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, k)| Node::new(GroupContext::new(Arc::new(k)), i as u64))
            .collect()
    }

    fn pump(nodes: &mut [Node], outs: Vec<(usize, Outgoing)>) {
        let mut pump = Pump::new(nodes.len(), Choice::Fifo);
        pump.extend(outs);
        pump.run(nodes, Node::handle_envelope, 1_000_000)
            .expect("group did not quiesce");
    }

    #[test]
    fn node_hosts_full_stack() {
        let mut ns = nodes(4, 1);
        let rb_pid = ProtocolId::new("rb");
        let ba_pid = ProtocolId::new("ba");
        let ac_pid = ProtocolId::new("ac");
        for node in ns.iter_mut() {
            node.create_reliable_broadcast(rb_pid.clone(), PartyId(0));
            node.create_binary_agreement(ba_pid.clone(), None, None);
            node.create_atomic_channel(ac_pid.clone(), AtomicChannelConfig::default());
        }
        let mut outs = Vec::new();
        let mut out0 = Outgoing::new();
        ns[0].broadcast_send(&rb_pid, b"hi".to_vec(), &mut out0);
        ns[0].channel_send(&ac_pid, b"ordered".to_vec(), &mut out0);
        outs.push((0usize, out0));
        for (i, node) in ns.iter_mut().enumerate() {
            let mut out = Outgoing::new();
            node.propose_binary(&ba_pid, i % 2 == 0, Vec::new(), &mut out);
            outs.push((i, out));
        }
        pump(&mut ns, outs);
        for (i, node) in ns.iter_mut().enumerate() {
            let events = node.take_events();
            assert!(
                events.iter().any(|e| matches!(
                    e,
                    Event::BroadcastDelivered { payload, .. } if payload == b"hi"
                )),
                "party {i} broadcast"
            );
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, Event::BinaryDecided { .. })),
                "party {i} agreement"
            );
            assert!(
                events.iter().any(|e| matches!(
                    e,
                    Event::ChannelDelivered { payload, .. } if payload.data == b"ordered"
                )),
                "party {i} channel"
            );
        }
    }

    #[test]
    fn unroutable_envelope_dropped() {
        let mut ns = nodes(4, 1);
        let env = Envelope {
            pid: ProtocolId::new("nonexistent"),
            send_seq: 0,
            body: crate::message::Body::RbSend(vec![1]),
        };
        let mut out = Outgoing::new();
        ns[0].handle_envelope(PartyId(1), &env, &mut out);
        assert!(out.is_empty());
        assert!(ns[0].take_events().is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate protocol id")]
    fn duplicate_pid_rejected() {
        let mut ns = nodes(4, 1);
        ns[0].create_reliable_broadcast(ProtocolId::new("x"), PartyId(0));
        ns[0].create_reliable_broadcast(ProtocolId::new("x"), PartyId(1));
    }
}
