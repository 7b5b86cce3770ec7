//! The replay driver: the workload's traffic shape pushed through `n`
//! `Node`s by one single-threaded FIFO loop, with every hop of the real
//! receive and send paths timed on its own:
//!
//! `Envelope::to_bytes` → `ReliableLink::seal_data` →
//! `ReliableLink::on_frame` → `Envelope::from_bytes` →
//! `Node::handle_envelope`.
//!
//! No threads, sockets or clocks take part, so message, round and byte
//! counts repeat exactly for a fixed seed, and the per-hop times are the
//! layers' own CPU with the runtime subtracted out — the reference the
//! end-to-end `cpu_ms_per_payload` is reconciled against.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use sintra_core::message::Envelope;
use sintra_core::node::Node;
use sintra_core::wire::Wire;
use sintra_core::{Event, GroupContext, Outgoing, PartyId, ProtocolId, Recipient};
use sintra_crypto::cost::CostScope;
use sintra_crypto::dealer::PartyKeys;
use sintra_net::link::{LinkConfig, LinkEvent, LinkKey, ReliableLink};
use sintra_telemetry::MetricsRegistry;

use crate::load::{Load, Outcome};
use crate::probe::Sampler;
use crate::span::SpanLog;
use crate::workload::Spec;

/// Span around one `Node::channel_send`.
const SEND_SPAN: &str = "channel-send";

/// Counts of one replay; they repeat exactly for a fixed seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Point-to-point envelopes handled (self-deliveries included).
    pub msgs: u64,
    /// Atomic-channel rounds decided (observed at party 0).
    pub rounds: u64,
    /// Encoded envelope bytes handed to links or to self-delivery.
    pub wire_bytes: u64,
    /// Sealed frame bytes handed to the network.
    pub frame_bytes: u64,
    /// Cumulative acks exchanged to keep retransmission queues short.
    pub acks: u64,
}

/// What one replay measured.
#[derive(Debug, Clone)]
pub struct Replay {
    pub payloads: u64,
    pub counts: Counts,
    /// Metered crypto work in 1024-bit-exponentiation units.
    pub work_units: f64,
    /// Self time per span name, in ns, over the whole replay.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Host speed over the replay against the probe's reference; the
    /// per-payload times below are multiplied by it.
    pub speed: f64,
    pub outcome: Outcome,
}

impl Replay {
    fn ns_where(&self, keep: impl Fn(&str) -> bool) -> f64 {
        self.self_ns
            .iter()
            .filter(|(name, _)| keep(name))
            .map(|(_, ns)| *ns as f64)
            .sum()
    }

    /// Time inside `Node` entry points for message kinds matching
    /// `keep`, in ms per payload.
    pub fn handle_ms_per_payload(&self, keep: impl Fn(&str) -> bool) -> f64 {
        self.ns_where(|name| is_handle_span(name) && keep(name)) * self.speed
            / 1e6
            / self.payloads as f64
    }

    /// Self time of one hop span, in µs per payload.
    pub fn hop_us_per_payload(&self, name: &str) -> f64 {
        self.ns_where(|n| n == name) * self.speed / 1e3 / self.payloads as f64
    }
}

/// Handle spans are named by `Body::kind()` (`ac-entry`, `cb-final`,
/// `ba-pre-vote`, …) or [`SEND_SPAN`]; hop spans contain a dot.
fn is_handle_span(name: &str) -> bool {
    !name.contains('.')
}

struct State {
    nodes: Vec<Node>,
    /// `links[i][j]`: party `i`'s endpoint of its link to `j`.
    links: Vec<Vec<Option<ReliableLink>>>,
    alive: Vec<bool>,
    /// In-flight transmissions `(from, to, bytes)` in send order: sealed
    /// frames, or bare envelope bytes for self-delivery.
    queue: VecDeque<(usize, usize, Vec<u8>)>,
    send_seqs: Vec<u64>,
    pid: ProtocolId,
    load: Load,
    quota: u64,
    counts: Counts,
    work_units: f64,
    epoch: std::time::Instant,
}

impl State {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Party `at`'s endpoint of its link to `peer`.
    fn link(&mut self, at: usize, peer: usize) -> &mut ReliableLink {
        self.links[at][peer].as_mut().expect("no link to oneself")
    }

    /// Issues `sender`'s next request if window and quota allow.
    fn send_next(&mut self, sender: usize, log: &mut SpanLog) {
        if self.quota == 0 {
            return;
        }
        let Some(data) = self.load.next_request(sender, self.now()) else {
            return;
        };
        self.quota -= 1;
        let round = self.counts.rounds;
        log.time("replay.send", round, |log| {
            let mut out = Outgoing::new();
            out.set_tracing(true);
            let scope = CostScope::enter();
            let pid = self.pid.clone();
            log.time(SEND_SPAN, round, |_| {
                self.nodes[sender].channel_send(&pid, data, &mut out)
            });
            self.work_units += scope.elapsed();
            self.flush(sender, out, log);
        });
    }

    /// What the server loop's flush does: stamp, encode per target,
    /// seal per link.
    fn flush(&mut self, from: usize, mut out: Outgoing, log: &mut SpanLog) {
        let round = self.counts.rounds;
        for ev in out.drain_traces() {
            if from == 0 && ev.family == "atomic" && ev.phase == "batch" {
                self.counts.rounds += 1;
            }
        }
        for (recipient, mut env) in out.drain() {
            env.send_seq = self.send_seqs[from];
            self.send_seqs[from] += 1;
            let targets: Vec<usize> = match recipient {
                Recipient::All => (0..self.nodes.len()).collect(),
                Recipient::One(p) => vec![p.0],
            };
            for to in targets {
                // The TCP transport encodes once per target; so do we.
                let (bytes, _) = log.time("wire.encode", round, |_| env.to_bytes());
                self.counts.wire_bytes += bytes.len() as u64;
                if to == from {
                    self.queue.push_back((from, to, bytes));
                    continue;
                }
                let link = self.link(from, to);
                let (frame, _) = log.time("link.seal", round, |_| link.seal_data(&bytes));
                let frame = frame.expect("replay backlog stays far below the link's queue bound");
                self.counts.frame_bytes += frame.len() as u64;
                // A crashed peer's frames are sealed and queued for
                // retransmission like the runtime does, never opened.
                if self.alive[to] {
                    self.queue.push_back((from, to, frame));
                }
            }
        }
    }

    /// What the reader and the server loop's dispatch do: authenticate,
    /// decode, handle, flush; then the closed loop's follow-up sends.
    fn deliver(&mut self, from: usize, to: usize, bytes: Vec<u8>, log: &mut SpanLog) {
        let round = self.counts.rounds;
        let mut reopened = Vec::new();
        log.time("replay.deliver", round, |log| {
            let data = if from == to {
                bytes
            } else {
                let link = self.link(to, from);
                let (event, _) = log.time("link.open", round, |_| link.on_frame(&bytes));
                let Ok(LinkEvent::Deliver(data)) = event else {
                    panic!("in-order frame {from}->{to} was not delivered: {event:?}");
                };
                if link.ack_overdue() {
                    log.time("link.ack", round, |_| {
                        let ack = self.link(to, from).make_ack().expect("overdue ack");
                        self.link(from, to).on_frame(&ack).expect("authentic ack");
                    });
                    self.counts.acks += 1;
                }
                data
            };
            let (env, _) = log.time("wire.decode", round, |_| Envelope::from_bytes(&data));
            let env = env.expect("a replayed envelope decodes");
            self.counts.msgs += 1;
            let mut out = Outgoing::new();
            out.set_tracing(true);
            out.set_cause(Some((from, env.send_seq)));
            let scope = CostScope::enter();
            log.time(env.body.kind(), round, |_| {
                self.nodes[to].handle_envelope(PartyId(from), &env, &mut out)
            });
            self.work_units += scope.elapsed();
            for event in self.nodes[to].take_events() {
                if let Event::ChannelDelivered { payload, .. } = event {
                    let now = self.now();
                    reopened.extend(self.load.on_delivery(to, &payload, now));
                }
            }
            self.flush(to, out, log);
        });
        for sender in reopened {
            self.send_next(sender, log);
        }
    }
}

/// Replays `payloads` requests of `spec`'s shape; spans go to `log`.
pub fn run(
    spec: &Spec,
    keys: &[Arc<PartyKeys>],
    seed: u64,
    payloads: u64,
    log: &mut SpanLog,
) -> Replay {
    let n = spec.n;
    let pid = ProtocolId::new(spec.name);
    let registry = Arc::new(MetricsRegistry::new());
    let nodes = keys
        .iter()
        .enumerate()
        .map(|(i, keys)| {
            let mut node = Node::new(GroupContext::new(Arc::clone(keys)), i as u64 ^ 0x7EAD_ED01);
            node.set_recorder(registry.clone());
            spec.open_channel(&mut node, &pid);
            node
        })
        .collect();
    let links = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    (i != j).then(|| {
                        let key = LinkKey::new(keys[i].mac_keys[j].clone(), PartyId(i), PartyId(j));
                        ReliableLink::new(key, LinkConfig::default())
                    })
                })
                .collect()
        })
        .collect();
    let mut load = Load::new(spec, seed);
    let mut alive = vec![true; n];
    if let Some(party) = spec.crash {
        alive[party] = false;
        load.crash(party);
    }
    let mut state = State {
        nodes,
        links,
        alive,
        queue: VecDeque::new(),
        send_seqs: vec![1; n],
        pid,
        load,
        quota: payloads,
        counts: Counts::default(),
        work_units: 0.0,
        epoch: std::time::Instant::now(),
    };

    let first_span = log.spans().len();
    for sender in 0..spec.senders {
        for _ in 0..spec.window {
            state.send_next(sender, log);
        }
    }
    let mut sampler = Sampler::start();
    while let Some((from, to, bytes)) = state.queue.pop_front() {
        state.deliver(from, to, bytes, log);
        sampler.tick();
    }

    // The registry sees every envelope the nodes routed: a second,
    // independent count of the messages this loop delivered.
    let routed: u64 = registry
        .snapshot()
        .counters
        .get(spec.name)
        .map(|scope| {
            scope
                .iter()
                .filter(|(name, _)| name.contains('-'))
                .map(|(_, v)| *v)
                .sum()
        })
        .unwrap_or(0);
    assert_eq!(routed, state.counts.msgs, "registry and replay disagree");

    let mut self_ns = BTreeMap::new();
    let own = log.self_times_ns();
    for (span, own) in log.spans().iter().zip(own).skip(first_span) {
        *self_ns.entry(span.name).or_insert(0) += own;
    }
    let end = state.now();
    Replay {
        payloads,
        counts: state.counts,
        work_units: state.work_units,
        self_ns,
        speed: sampler.take_speed(),
        outcome: state.load.finish(0.0, end),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed, same counts — twice, for a plain, a secure and a
    /// crashed shape; the oracle holds on each.
    #[test]
    fn counts_repeat_exactly() {
        for name in ["abc4_sat", "sac4_sat", "abc4_crash"] {
            let spec = Spec::by_name(name).unwrap();
            let keys = spec.deal_keys(128);
            let once = |seed| run(spec, &keys, seed, 24, &mut SpanLog::default());
            let (a, b) = (once(9), once(9));
            assert!(a.outcome.correct(), "{name}: {:?}", a.outcome.violations);
            assert_eq!(a.outcome.completed(), 24, "{name}");
            assert_eq!(a.counts, b.counts, "{name}");
            // The meter is a running thread-local float: equal work, but
            // the subtraction's last bits depend on what ran before.
            assert!((a.work_units - b.work_units).abs() < 1e-6, "{name}");
            assert!(a.counts.rounds >= 12, "{name}: at most t + 1 = 2 per round");
            assert!(a.counts.frame_bytes > a.counts.wire_bytes / 2, "{name}");
            assert!(a.handle_ms_per_payload(|_| true) > 0.0);
            assert!(a.hop_us_per_payload("wire.encode") > 0.0);
            assert!(a.hop_us_per_payload("link.open") > 0.0);
        }
    }

    #[test]
    fn handle_spans_are_told_from_hop_spans() {
        assert!(is_handle_span("ac-entry"));
        assert!(is_handle_span(SEND_SPAN));
        assert!(!is_handle_span("wire.encode"));
        assert!(!is_handle_span("replay.deliver"));
    }
}
