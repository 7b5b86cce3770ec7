//! Aggregated broadcast channels (paper §2.7).
//!
//! A reliable/consistent channel multiplexes many instances of the
//! corresponding broadcast primitive: one live instance per sender,
//! reallocated with an incremented sequence number after each delivery.
//! These are *virtual* protocols — they add no network messages of their
//! own — and provide FIFO delivery per sender but no total order, making
//! them a cheap alternative to atomic broadcast (the paper measures them
//! at 4–6× faster).

use std::collections::BTreeMap;

use sintra_telemetry::{SnapshotWriter, StateSnapshot};

use crate::broadcast::{ConsistentBroadcast, ReliableBroadcast};
use crate::config::GroupContext;
use crate::ids::{PartyId, ProtocolId};
use crate::message::{Body, Payload, PayloadKind};
use crate::outgoing::Outgoing;

/// Interface shared by the two broadcast primitives, letting one channel
/// implementation multiplex either. Sealed within the crate.
pub trait BroadcastInstance {
    /// Creates an instance for a sender under a pid.
    fn create(pid: ProtocolId, ctx: GroupContext, sender: PartyId) -> Self;
    /// Starts the broadcast (sender only).
    fn start(&mut self, payload: Vec<u8>, out: &mut Outgoing);
    /// Processes a message.
    fn on_message(&mut self, from: PartyId, body: &Body, out: &mut Outgoing);
    /// The delivered payload, if any (non-consuming).
    fn result(&self) -> Option<&[u8]>;
}

impl BroadcastInstance for ReliableBroadcast {
    fn create(pid: ProtocolId, ctx: GroupContext, sender: PartyId) -> Self {
        ReliableBroadcast::new(pid, ctx, sender)
    }
    fn start(&mut self, payload: Vec<u8>, out: &mut Outgoing) {
        self.send(payload, out);
    }
    fn on_message(&mut self, from: PartyId, body: &Body, out: &mut Outgoing) {
        self.handle(from, body, out);
    }
    fn result(&self) -> Option<&[u8]> {
        self.delivered()
    }
}

impl BroadcastInstance for ConsistentBroadcast {
    fn create(pid: ProtocolId, ctx: GroupContext, sender: PartyId) -> Self {
        ConsistentBroadcast::new(pid, ctx, sender)
    }
    fn start(&mut self, payload: Vec<u8>, out: &mut Outgoing) {
        self.send(payload, out);
    }
    fn on_message(&mut self, from: PartyId, body: &Body, out: &mut Outgoing) {
        self.handle(from, body, out);
    }
    fn result(&self) -> Option<&[u8]> {
        self.delivered()
    }
}

/// A channel multiplexing per-sender broadcast instances.
///
/// Use the [`ReliableChannel`] and [`ConsistentChannel`] aliases.
#[derive(Debug)]
pub struct BroadcastChannel<B> {
    pid: ProtocolId,
    ctx: GroupContext,
    /// Live and future instances: (sender, seq) -> instance.
    instances: BTreeMap<(PartyId, u64), B>,
    /// Next sequence number expected to *deliver* from each sender.
    next_deliver: Vec<u64>,
    /// Deliveries completed out of order, held for FIFO release.
    held: Vec<BTreeMap<u64, Vec<u8>>>,
    /// Next sequence number for our own sends.
    next_send: u64,
    /// Maximum own broadcasts in flight (`None` = unbounded). SINTRA's
    /// Java sender effectively serialized its broadcasts (window 1); the
    /// testbed reproduction uses that setting.
    send_window: Option<usize>,
    /// Own payloads waiting for a window slot.
    send_queue: std::collections::VecDeque<(PayloadKind, Vec<u8>)>,
    /// Own broadcasts started but not yet locally delivered.
    own_in_flight: usize,
    deliveries: std::collections::VecDeque<Payload>,
    close_requested: bool,
    close_senders: std::collections::BTreeSet<PartyId>,
    closed: bool,
    closed_taken: bool,
}

/// A reliable channel: agreement per payload, FIFO per sender, no total
/// order.
pub type ReliableChannel = BroadcastChannel<ReliableBroadcast>;

/// A consistent channel: consistency per payload, FIFO per sender, no
/// total order (the cheapest SINTRA channel).
pub type ConsistentChannel = BroadcastChannel<ConsistentBroadcast>;

impl<B: BroadcastInstance> BroadcastChannel<B> {
    /// Opens a channel endpoint.
    pub fn new(pid: ProtocolId, ctx: GroupContext) -> Self {
        let n = ctx.n();
        BroadcastChannel {
            pid,
            ctx,
            instances: BTreeMap::new(),
            next_deliver: vec![0; n],
            held: vec![BTreeMap::new(); n],
            next_send: 0,
            send_window: None,
            send_queue: std::collections::VecDeque::new(),
            own_in_flight: 0,
            deliveries: std::collections::VecDeque::new(),
            close_requested: false,
            close_senders: std::collections::BTreeSet::new(),
            closed: false,
            closed_taken: false,
        }
    }

    /// Limits own broadcasts in flight (builder style). `1` models
    /// SINTRA's sequential sender; the default is unbounded.
    pub fn with_send_window(mut self, window: usize) -> Self {
        assert!(window >= 1, "window must admit at least one broadcast");
        self.send_window = Some(window);
        self
    }

    /// The channel identifier.
    pub fn pid(&self) -> &ProtocolId {
        &self.pid
    }

    /// Whether `send` is currently allowed.
    pub fn can_send(&self) -> bool {
        !self.close_requested && !self.closed
    }

    fn instance_pid(&self, sender: PartyId, seq: u64) -> ProtocolId {
        self.pid.child(format!("{}/{}", sender.0, seq))
    }

    fn instance(&mut self, sender: PartyId, seq: u64) -> &mut B {
        let pid = self.instance_pid(sender, seq);
        let ctx = self.ctx.clone();
        self.instances
            .entry((sender, seq))
            .or_insert_with(|| B::create(pid, ctx, sender))
    }

    /// Broadcasts a payload on this party's next instance.
    ///
    /// # Panics
    ///
    /// Panics after `close` has been called.
    pub fn send(&mut self, data: Vec<u8>, out: &mut Outgoing) {
        assert!(self.can_send(), "channel is closing or closed");
        self.send_queue.push_back((PayloadKind::App, data));
        self.pump_sends(out);
        self.harvest(out);
    }

    /// Sends a termination request as this party's last message.
    pub fn close(&mut self, out: &mut Outgoing) {
        if self.close_requested || self.closed {
            return;
        }
        self.close_requested = true;
        self.send_queue.push_back((PayloadKind::Close, Vec::new()));
        self.pump_sends(out);
        self.harvest(out);
    }

    /// Starts queued own broadcasts while the send window has room.
    fn pump_sends(&mut self, out: &mut Outgoing) {
        while !self.closed && self.send_window.is_none_or(|w| self.own_in_flight < w) {
            let Some((kind, data)) = self.send_queue.pop_front() else {
                return;
            };
            let me = self.ctx.me();
            let seq = self.next_send;
            self.next_send += 1;
            self.own_in_flight += 1;
            let framed = frame(kind, &data);
            let inst = self.instance(me, seq);
            inst.start(framed, out);
        }
    }

    /// Whether a delivery is waiting.
    pub fn can_receive(&self) -> bool {
        !self.deliveries.is_empty()
    }

    /// Takes the next delivered payload (FIFO per sender).
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

    /// Processes a message addressed to one of the broadcast instances.
    pub fn handle(&mut self, from: PartyId, msg_pid: &ProtocolId, body: &Body, out: &mut Outgoing) {
        if self.closed || !self.ctx.is_valid_party(from) {
            return;
        }
        let Some((sender, seq)) = self.parse_child(msg_pid) else {
            return;
        };
        if sender.0 >= self.ctx.n() || seq < self.next_deliver[sender.0] {
            return;
        }
        // Bound lookahead per sender so a malicious sender cannot force
        // unbounded instance allocation.
        if seq > self.next_deliver[sender.0] + 64 {
            return;
        }
        let inst = self.instance(sender, seq);
        inst.on_message(from, body, out);
        self.harvest(out);
    }

    fn parse_child(&self, msg_pid: &ProtocolId) -> Option<(PartyId, u64)> {
        let rest = msg_pid.as_str().strip_prefix(self.pid.as_str())?;
        let rest = rest.strip_prefix('/')?;
        let (sender, seq) = rest.split_once('/')?;
        Some((PartyId(sender.parse().ok()?), seq.parse().ok()?))
    }

    /// Collects completed instances and releases deliveries in per-sender
    /// FIFO order.
    fn harvest(&mut self, out: &mut Outgoing) {
        // Move completed payloads into the holding area.
        let completed: Vec<((PartyId, u64), Vec<u8>)> = self
            .instances
            .iter()
            .filter_map(|(key, inst)| inst.result().map(|p| (*key, p.to_vec())))
            .collect();
        let me = self.ctx.me();
        for ((sender, seq), payload) in completed {
            self.instances.remove(&(sender, seq));
            if sender == me {
                // An own broadcast completed: free a window slot.
                self.own_in_flight = self.own_in_flight.saturating_sub(1);
            }
            if seq >= self.next_deliver[sender.0] {
                self.held[sender.0].insert(seq, payload);
            }
        }
        self.pump_sends(out);
        // Release in order.
        for s in 0..self.ctx.n() {
            while let Some(payload) = self.held[s].remove(&self.next_deliver[s]) {
                let seq = self.next_deliver[s];
                self.next_deliver[s] += 1;
                let Some((kind, data)) = unframe(&payload) else {
                    continue; // malformed framing from a corrupt sender
                };
                match kind {
                    PayloadKind::App => self.deliveries.push_back(Payload {
                        origin: PartyId(s),
                        seq,
                        kind,
                        data,
                    }),
                    PayloadKind::Close => {
                        self.close_senders.insert(PartyId(s));
                        if self.close_senders.len() > self.ctx.fault_budget() {
                            // Abort all still-active instances and stop.
                            self.instances.clear();
                            self.closed = true;
                            return;
                        }
                    }
                }
            }
        }
    }
}

impl<B: BroadcastInstance + StateSnapshot> StateSnapshot for BroadcastChannel<B> {
    fn has_pending_work(&self) -> bool {
        !self.closed
            && (!self.instances.is_empty()
                || !self.send_queue.is_empty()
                || self.held.iter().any(|h| !h.is_empty())
                || self.close_requested)
    }

    fn snapshot_json(&self) -> String {
        let held: u64 = self.held.iter().map(|h| h.len() as u64).sum();
        let mut w = SnapshotWriter::new(self.pid.as_str(), "broadcast-channel")
            .num("live_instances", self.instances.len() as u64)
            .nums("next_deliver", self.next_deliver.iter().copied())
            .num("held", held)
            .num("next_send", self.next_send)
            .num("send_queue", self.send_queue.len() as u64)
            .num("own_in_flight", self.own_in_flight as u64)
            .num("undrained_deliveries", self.deliveries.len() as u64)
            .flag("close_requested", self.close_requested)
            .num("close_senders", self.close_senders.len() as u64)
            .flag("closed", self.closed);
        // The instance each sender's FIFO is blocked on, if live: that is
        // the one worth inspecting in a stall.
        let blocking: Vec<String> = (0..self.ctx.n())
            .filter_map(|s| {
                self.instances
                    .get(&(PartyId(s), self.next_deliver[s]))
                    .map(StateSnapshot::snapshot_json)
            })
            .collect();
        if !blocking.is_empty() {
            w = w.raw("blocking_instances", &format!("[{}]", blocking.join(",")));
        }
        w.finish()
    }
}

fn frame(kind: PayloadKind, data: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(data.len() + 1);
    framed.push(match kind {
        PayloadKind::App => 0,
        PayloadKind::Close => 1,
    });
    framed.extend_from_slice(data);
    framed
}

fn unframe(framed: &[u8]) -> Option<(PayloadKind, Vec<u8>)> {
    let (&flag, rest) = framed.split_first()?;
    let kind = match flag {
        0 => PayloadKind::App,
        1 => PayloadKind::Close,
        _ => return None,
    };
    Some((kind, rest.to_vec()))
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
        let mut rng = StdRng::seed_from_u64(41);
        deal(&DealerConfig::small(n, t), &mut rng)
            .unwrap()
            .into_iter()
            .map(|k| GroupContext::new(Arc::new(k)))
            .collect()
    }

    fn handle<B: BroadcastInstance>(
        chan: &mut BroadcastChannel<B>,
        from: PartyId,
        env: &Envelope,
        out: &mut Outgoing,
    ) {
        chan.handle(from, &env.pid, &env.body, out);
    }

    /// A FIFO network carrying what the parties sent into `outs`, in
    /// that order.
    fn fifo(n: usize, outs: Vec<(usize, Outgoing)>) -> Pump {
        let mut pump = Pump::new(n, Choice::Fifo);
        pump.extend(outs);
        pump
    }

    fn pump<B: BroadcastInstance>(chans: &mut [BroadcastChannel<B>], outs: Vec<(usize, Outgoing)>) {
        fifo(chans.len(), outs)
            .run(chans, handle, 1_000_000)
            .expect("channel did not quiesce");
    }

    fn collect<B: BroadcastInstance>(chan: &mut BroadcastChannel<B>) -> Vec<(usize, Vec<u8>)> {
        let mut got = Vec::new();
        while let Some(p) = chan.take_delivery() {
            got.push((p.origin.0, p.data));
        }
        got
    }

    #[test]
    fn reliable_channel_fifo_per_sender() {
        let ctxs = group(4, 1);
        let mut chans: Vec<ReliableChannel> = ctxs
            .iter()
            .map(|c| ReliableChannel::new(ProtocolId::new("rc"), c.clone()))
            .collect();
        let mut outs = Vec::new();
        for i in 0..3u8 {
            let mut out = Outgoing::new();
            chans[0].send(vec![i], &mut out);
            outs.push((0usize, out));
        }
        let mut out1 = Outgoing::new();
        chans[1].send(b"other".to_vec(), &mut out1);
        outs.push((1, out1));
        pump(&mut chans, outs);
        for (p, chan) in chans.iter_mut().enumerate() {
            let got = collect(chan);
            let from0: Vec<&Vec<u8>> = got
                .iter()
                .filter(|(s, _)| *s == 0)
                .map(|(_, d)| d)
                .collect();
            assert_eq!(from0, vec![&vec![0], &vec![1], &vec![2]], "party {p} FIFO");
            assert!(got.iter().any(|(s, d)| *s == 1 && d == b"other"));
        }
    }

    #[test]
    fn consistent_channel_delivers() {
        let ctxs = group(4, 1);
        let mut chans: Vec<ConsistentChannel> = ctxs
            .iter()
            .map(|c| ConsistentChannel::new(ProtocolId::new("cc"), c.clone()))
            .collect();
        let mut out = Outgoing::new();
        chans[2].send(b"hello".to_vec(), &mut out);
        chans[2].send(b"world".to_vec(), &mut out);
        pump(&mut chans, vec![(2, out)]);
        for (p, chan) in chans.iter_mut().enumerate() {
            assert_eq!(
                collect(chan),
                vec![(2, b"hello".to_vec()), (2, b"world".to_vec())],
                "party {p}"
            );
        }
    }

    #[test]
    fn close_with_t_plus_1_requests() {
        let ctxs = group(4, 1);
        let mut chans: Vec<ReliableChannel> = ctxs
            .iter()
            .map(|c| ReliableChannel::new(ProtocolId::new("rc-close"), c.clone()))
            .collect();
        let mut outs = Vec::new();
        for (i, chan) in chans.iter_mut().enumerate().take(2) {
            let mut out = Outgoing::new();
            chan.close(&mut out);
            outs.push((i, out));
        }
        pump(&mut chans, outs);
        for (i, chan) in chans.iter_mut().enumerate() {
            assert!(chan.is_closed(), "party {i}");
            assert!(chan.take_closed());
        }
    }

    #[test]
    fn single_close_keeps_channel_open() {
        let ctxs = group(4, 1);
        let mut chans: Vec<ConsistentChannel> = ctxs
            .iter()
            .map(|c| ConsistentChannel::new(ProtocolId::new("cc-open"), c.clone()))
            .collect();
        let mut out = Outgoing::new();
        chans[0].close(&mut out);
        pump(&mut chans, vec![(0, out)]);
        assert!(!chans[1].is_closed());
        // Others can still send and deliver.
        let mut out = Outgoing::new();
        chans[1].send(b"still works".to_vec(), &mut out);
        pump(&mut chans, vec![(1, out)]);
        assert_eq!(collect(&mut chans[2]), vec![(1, b"still works".to_vec())]);
    }

    #[test]
    fn lookahead_is_bounded() {
        let ctxs = group(4, 1);
        let mut chan = ReliableChannel::new(ProtocolId::new("rc-la"), ctxs[0].clone());
        // A message for a far-future instance must not allocate state.
        let far = ProtocolId::new("rc-la/1/1000");
        chan.handle(
            PartyId(1),
            &far,
            &Body::RbSend(b"flood".to_vec()),
            &mut Outgoing::new(),
        );
        assert!(chan.instances.is_empty());
    }

    /// Replica determinism regression: a channel endpoint is a pure
    /// function of its input message sequence. Two replicas fed the same
    /// messages must emit identical ordered deliveries *and* identical
    /// outgoing message streams — the BFT state-machine-replication
    /// contract. This is what the `BTreeMap` instance map (rather than a
    /// randomly-seeded `HashMap`) guarantees structurally; the crate's
    /// `clippy.toml` refuses `HashMap` and `HashSet` to keep it that way.
    #[test]
    fn replicas_with_same_input_emit_identical_output() {
        let ctxs = group(4, 1);
        // Record the message stream party 3 observes in a multi-sender run.
        let mut chans: Vec<ReliableChannel> = ctxs
            .iter()
            .map(|c| ReliableChannel::new(ProtocolId::new("rc-det"), c.clone()))
            .collect();
        let mut outs = Vec::new();
        for (sender, chan) in chans.iter_mut().enumerate().take(3) {
            for k in 0..3u8 {
                let mut out = Outgoing::new();
                chan.send(vec![u8::try_from(sender).unwrap(), k], &mut out);
                outs.push((sender, out));
            }
        }
        let mut script: Vec<(PartyId, ProtocolId, Body)> = Vec::new();
        let mut pump = fifo(chans.len(), outs);
        while let Some(d) = pump.next() {
            if d.to == 3 {
                script.push((PartyId(d.from), d.env.pid.clone(), d.env.body.clone()));
            }
            pump.deliver(&mut chans, d, handle);
        }
        assert!(script.len() > 20, "script too small to be meaningful");
        // Replay the identical script into two fresh replicas of party 3.
        let run = |label: &str| {
            let mut chan = ReliableChannel::new(ProtocolId::new("rc-det"), ctxs[3].clone());
            let mut sent = Vec::new();
            let mut delivered = Vec::new();
            for (from, pid, body) in &script {
                let mut out = Outgoing::new();
                chan.handle(*from, pid, body, &mut out);
                for (recipient, env) in out.drain() {
                    sent.push((format!("{recipient:?}"), env.pid, env.body));
                }
                while let Some(p) = chan.take_delivery() {
                    delivered.push((p.origin, p.seq, p.data));
                }
            }
            assert!(!delivered.is_empty(), "{label}: no deliveries");
            (sent, delivered)
        };
        let (sent_a, delivered_a) = run("replica a");
        let (sent_b, delivered_b) = run("replica b");
        assert_eq!(sent_a, sent_b, "outgoing streams diverged");
        assert_eq!(delivered_a, delivered_b, "delivery order diverged");
    }

    #[test]
    #[should_panic(expected = "closing or closed")]
    fn send_after_close_panics() {
        let ctxs = group(4, 1);
        let mut chan = ReliableChannel::new(ProtocolId::new("rc-sac"), ctxs[0].clone());
        let mut out = Outgoing::new();
        chan.close(&mut out);
        chan.send(b"late".to_vec(), &mut out);
    }
}
