//! A real multithreaded runtime for SINTRA groups.
//!
//! Each party runs on its own OS thread; point-to-point links carry the
//! shared [`link`](crate::link) frames — HMAC-authenticated, sequenced —
//! over in-process channels, the in-memory analogue of SINTRA's
//! authenticated TCP links. The substrate is already reliable and FIFO,
//! so this runtime uses the link layer's framing and duplicate
//! suppression but needs no acknowledgements or retransmission; the
//! [`tcp`](crate::tcp) runtime layers those on the same frames. The
//! application talks to each server through a [`ServerHandle`] whose
//! blocking `send`/`receive`/`close`/`close_wait` API mirrors the Java
//! `Channel` interface of the paper (§3.4).

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};

use sintra_core::message::Envelope;
use sintra_core::wire::Wire;
use sintra_core::PartyId;
use sintra_crypto::dealer::PartyKeys;
use sintra_telemetry::{FanoutRecorder, MetricsRegistry, Recorder, SnapshotWriter};

use crate::link::{FrameKind, LinkKey};
use crate::metrics::MetricsServer;
use crate::observe::ObservabilityConfig;
use crate::server::{server_loop, Command, Input, ServerOpts, Transport};
use crate::Runtime;
use sintra_core::invariant::OrInvariant;

pub use crate::server::ServerHandle;

/// One directed-pair link state: the shared authentication context plus
/// the send/receive sequence cursors for duplicate suppression.
struct LinkState {
    key: LinkKey,
    next_seq: u64,
    recv_cum: u64,
}

/// Moves sealed frames between parties over in-process channels.
struct ThreadedTransport {
    me: PartyId,
    peers: Vec<Sender<Input>>,
    links: Vec<LinkState>,
}

impl Transport for ThreadedTransport {
    fn parties(&self) -> usize {
        self.peers.len()
    }

    fn transmit(&mut self, to: PartyId, env: &Envelope) -> u64 {
        let Some(link) = self.links.get_mut(to.0) else {
            return 0;
        };
        let seq = link.next_seq;
        link.next_seq += 1;
        let frame = link.key.seal(&FrameKind::Data {
            seq,
            payload: env.to_bytes(),
        });
        let wire_bytes = frame.len() as u64;
        let _ = self.peers[to.0].send(Input::Net {
            from: self.me,
            data: frame,
        });
        wire_bytes
    }

    fn open(&mut self, from: PartyId, data: &[u8]) -> Option<Envelope> {
        let link = self.links.get_mut(from.0)?;
        match link.key.open(data).ok()? {
            FrameKind::Data { seq, payload } => {
                // The substrate is FIFO and lossless, so anything other
                // than the next sequence number is a duplicate or a
                // forgery spliced into the stream: drop it.
                if seq != link.recv_cum + 1 {
                    return None;
                }
                link.recv_cum = seq;
                Envelope::from_bytes(&payload).ok()
            }
            _ => None,
        }
    }

    fn link_snapshots(&self) -> Vec<String> {
        self.links
            .iter()
            .enumerate()
            .filter(|(peer, _)| *peer != self.me.0)
            .map(|(peer, link)| {
                let pid = format!("link/{}->{}", self.me.0, peer);
                SnapshotWriter::new(&pid, "link")
                    .num("next_seq", link.next_seq)
                    .num("recv_cum", link.recv_cum)
                    .finish()
            })
            .collect()
    }
}

/// A running group of server threads.
pub struct ThreadedGroup {
    threads: Vec<JoinHandle<()>>,
    shutdown_txs: Vec<Sender<Input>>,
    metrics_servers: Vec<MetricsServer>,
}

impl ThreadedGroup {
    /// Spawns one server thread per set of party keys and returns the
    /// application handles.
    pub fn spawn(party_keys: Vec<Arc<PartyKeys>>) -> (ThreadedGroup, Vec<ServerHandle>) {
        Self::spawn_with_recorder(party_keys, None)
    }

    /// Like [`ThreadedGroup::spawn`], but every server thread reports to
    /// `recorder`: nodes attribute crypto work and message counts to it,
    /// the transport counts `msgs_sent` / `bytes_sent` / `msgs_delivered`
    /// (plus `msgs_dropped` for frames failing authentication), and
    /// protocol trace events are stamped with microseconds since spawn.
    pub fn spawn_with_recorder(
        party_keys: Vec<Arc<PartyKeys>>,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> (ThreadedGroup, Vec<ServerHandle>) {
        Self::spawn_observable(party_keys, recorder, None)
    }

    /// Like [`ThreadedGroup::spawn_with_recorder`], with flight-recorder
    /// and stall-detector observability on top: each server keeps a
    /// bounded ring of recent trace events, watches for quiet periods
    /// with work pending, and writes `sintra-dump-<party>-<reason>.json`
    /// files on stalls, invariant violations and explicit
    /// [`ServerHandle::request_dump`] calls.
    pub fn spawn_observable(
        party_keys: Vec<Arc<PartyKeys>>,
        recorder: Option<Arc<dyn Recorder>>,
        observability: Option<ObservabilityConfig>,
    ) -> (ThreadedGroup, Vec<ServerHandle>) {
        let n = party_keys.len();
        // One shared time zero for the whole group: trace stamps from
        // different party threads must be comparable.
        let run_start = std::time::Instant::now();
        // One inbox per party.
        let inboxes: Vec<(Sender<Input>, Receiver<Input>)> = (0..n).map(|_| unbounded()).collect();
        let mut handles = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        let mut shutdown_txs = Vec::with_capacity(n);
        let mut metrics_servers = Vec::new();
        let metrics_config = observability.as_ref().and_then(|obs| obs.metrics.clone());

        for (i, keys) in party_keys.iter().enumerate() {
            let (event_tx, event_rx) = unbounded();
            let inbox_rx = inboxes[i].1.clone();

            // With the metrics plane on, every party counts into its own
            // registry so scrapes stay per-party; a user-supplied
            // recorder still sees everything through a fanout.
            let party_recorder: Option<Arc<dyn Recorder>> = match &metrics_config {
                Some(metrics) => {
                    let registry = Arc::new(MetricsRegistry::new());
                    // The in-process transport has no retransmission
                    // queue to sample; link gauges are a TCP concern.
                    match MetricsServer::spawn(
                        i,
                        metrics,
                        Arc::clone(&registry) as Arc<dyn Recorder>,
                        Box::new(Vec::new),
                    ) {
                        Ok(server) => metrics_servers.push(server),
                        Err(err) => {
                            eprintln!("sintra: party {i} failed to bind scrape endpoint: {err}")
                        }
                    }
                    match &recorder {
                        Some(user) => Some(Arc::new(FanoutRecorder::new(vec![
                            registry as Arc<dyn Recorder>,
                            Arc::clone(user),
                        ]))),
                        None => Some(registry as Arc<dyn Recorder>),
                    }
                }
                None => recorder.clone(),
            };
            let transport = ThreadedTransport {
                me: PartyId(i),
                peers: inboxes.iter().map(|(tx, _)| tx.clone()).collect(),
                links: (0..n)
                    .map(|j| LinkState {
                        key: LinkKey::new(keys.mac_keys[j].clone(), PartyId(i), PartyId(j)),
                        next_seq: 1,
                        recv_cum: 0,
                    })
                    .collect(),
            };
            let keys = Arc::clone(keys);
            let trace_stream = crate::observe::spawn_trace_stream(i, observability.as_ref());
            let opts = ServerOpts {
                recorder: party_recorder,
                observability: observability.clone(),
                run_start,
                trace_stream,
            };
            let thread = std::thread::Builder::new()
                .name(format!("sintra-p{i}"))
                .spawn(move || {
                    server_loop(i, keys, inbox_rx, transport, event_tx, opts);
                })
                .or_invariant("spawn server thread");
            threads.push(thread);
            shutdown_txs.push(inboxes[i].0.clone());
            handles.push(ServerHandle::new(
                PartyId(i),
                inboxes[i].0.clone(),
                event_rx,
            ));
        }
        (
            ThreadedGroup {
                threads,
                shutdown_txs,
                metrics_servers,
            },
            handles,
        )
    }

    /// The live scrape addresses, by party id. Empty unless the group
    /// was spawned with [`ObservabilityConfig::metrics`] set.
    pub fn metrics_addrs(&self) -> Vec<std::net::SocketAddr> {
        self.metrics_servers.iter().map(|s| s.addr()).collect()
    }

    /// Stops all server threads and waits for them.
    pub fn shutdown(self) {
        for tx in &self.shutdown_txs {
            let _ = tx.send(Input::Cmd(Command::Shutdown));
        }
        for t in self.threads {
            let _ = t.join();
        }
        for server in self.metrics_servers {
            server.stop();
        }
    }
}

impl Runtime for ThreadedGroup {
    type Handle = ServerHandle;

    fn shutdown(self) {
        ThreadedGroup::shutdown(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sintra_core::agreement::CandidateOrder;
    use sintra_core::channel::{AtomicChannelConfig, OptimisticChannelConfig};
    use sintra_core::ProtocolId;
    use sintra_crypto::dealer::{deal, DealerConfig};

    fn keys(n: usize, t: usize) -> Vec<Arc<PartyKeys>> {
        let mut rng = StdRng::seed_from_u64(59);
        deal(&DealerConfig::small(n, t), &mut rng)
            .unwrap()
            .into_iter()
            .map(Arc::new)
            .collect()
    }

    #[test]
    fn atomic_channel_over_threads() {
        let (group, mut handles) = ThreadedGroup::spawn(keys(4, 1));
        let pid = ProtocolId::new("threaded-ac");
        for h in &handles {
            h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
        handles[0].send(&pid, b"over threads".to_vec());
        for (i, h) in handles.iter_mut().enumerate() {
            let p = h.receive(&pid).expect("delivery");
            assert_eq!(p.data, b"over threads", "party {i}");
            assert_eq!(p.origin, PartyId(0));
        }
        group.shutdown();
    }

    #[test]
    fn total_order_across_concurrent_threaded_senders() {
        let (group, mut handles) = ThreadedGroup::spawn(keys(4, 1));
        let pid = ProtocolId::new("threaded-order");
        for h in &handles {
            h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
        for (i, h) in handles.iter().enumerate() {
            h.send(&pid, format!("from-{i}").into_bytes());
        }
        let mut sequences = Vec::new();
        for h in handles.iter_mut() {
            let seq: Vec<Vec<u8>> = (0..4).map(|_| h.receive(&pid).unwrap().data).collect();
            sequences.push(seq);
        }
        for s in &sequences[1..] {
            assert_eq!(s, &sequences[0], "real-thread total order");
        }
        group.shutdown();
    }

    #[test]
    fn close_wait_terminates() {
        let (group, mut handles) = ThreadedGroup::spawn(keys(4, 1));
        let pid = ProtocolId::new("threaded-close");
        for h in &handles {
            h.create_reliable_channel(pid.clone());
        }
        handles[2].send(&pid, b"goodbye".to_vec());
        // Wait for the payload to reach every party before closing: the
        // channel may otherwise terminate (t + 1 close requests) before
        // the payload wins a batch, since fairness only bounds delivery
        // while the channel stays open.
        for h in handles.iter_mut() {
            while !h.can_receive(&pid) {
                std::thread::yield_now();
            }
        }
        // Everyone requests closure first — a single closer would block
        // forever, since termination needs t + 1 requests — then waits.
        for h in &handles {
            h.close(&pid);
        }
        let mut residuals = Vec::new();
        for h in handles.iter_mut() {
            residuals.push(h.close_wait(&pid));
        }
        assert!(residuals
            .iter()
            .all(|r| r.iter().any(|p| p.data == b"goodbye")));
        group.shutdown();
    }

    #[test]
    fn broadcast_and_agreement_over_threads() {
        let (group, mut handles) = ThreadedGroup::spawn(keys(4, 1));
        // Reliable broadcast with party 1 as sender.
        let rb = ProtocolId::new("t-rb");
        for h in &handles {
            h.create_reliable_broadcast(rb.clone(), PartyId(1));
        }
        handles[1].broadcast_send(&rb, b"threaded broadcast".to_vec());
        for h in handles.iter_mut() {
            assert_eq!(
                h.receive_broadcast(&rb).as_deref(),
                Some(&b"threaded broadcast"[..])
            );
        }
        // Binary agreement with split proposals.
        let ba = ProtocolId::new("t-ba");
        for h in &handles {
            h.create_binary_agreement(ba.clone(), None, None);
        }
        for (i, h) in handles.iter().enumerate() {
            h.propose_binary(&ba, i % 2 == 0, Vec::new());
        }
        let decisions: Vec<bool> = handles
            .iter_mut()
            .map(|h| h.decide_binary(&ba).expect("decided").0)
            .collect();
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
        group.shutdown();
    }

    #[test]
    fn multi_valued_agreement_over_threads() {
        let (group, mut handles) = ThreadedGroup::spawn(keys(4, 1));
        let pid = ProtocolId::new("t-vba");
        for h in &handles {
            h.create_multi_valued(
                pid.clone(),
                sintra_core::validator::ArrayValidator::always(),
                CandidateOrder::LocalRandom,
            );
        }
        for (i, h) in handles.iter().enumerate() {
            h.propose_multi(&pid, format!("tv-{i}").into_bytes());
        }
        let decisions: Vec<Vec<u8>> = handles
            .iter_mut()
            .map(|h| h.decide_multi(&pid).expect("decided"))
            .collect();
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
        group.shutdown();
    }

    #[test]
    fn optimistic_channel_over_threads() {
        let (group, mut handles) = ThreadedGroup::spawn(keys(4, 1));
        let pid = ProtocolId::new("threaded-opt");
        for h in &handles {
            h.create_optimistic_channel(pid.clone(), OptimisticChannelConfig::default());
        }
        for (i, h) in handles.iter().enumerate() {
            h.send(&pid, format!("opt-{i}").into_bytes());
        }
        let mut sequences = Vec::new();
        for h in handles.iter_mut() {
            let seq: Vec<Vec<u8>> = (0..4).map(|_| h.receive(&pid).unwrap().data).collect();
            sequences.push(seq);
        }
        for s in &sequences[1..] {
            assert_eq!(s, &sequences[0], "optimistic total order over threads");
        }
        group.shutdown();
    }

    /// End-to-end per-sender FIFO: concurrent senders' messages must
    /// arrive in one identical total order at every party, and each
    /// sender's messages must appear in send order within it.
    #[test]
    fn per_sender_fifo_over_threads() {
        let (group, mut handles) = ThreadedGroup::spawn(keys(4, 1));
        let pid = ProtocolId::new("threaded-fifo");
        for h in &handles {
            h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
        let per_sender = 5usize;
        for m in 0..per_sender {
            for (i, h) in handles.iter().enumerate() {
                h.send(&pid, format!("s{i}-m{m}").into_bytes());
            }
        }
        let total = handles.len() * per_sender;
        let mut sequences = Vec::new();
        for h in handles.iter_mut() {
            let seq: Vec<Vec<u8>> = (0..total).map(|_| h.receive(&pid).unwrap().data).collect();
            sequences.push(seq);
        }
        for s in &sequences[1..] {
            assert_eq!(s, &sequences[0], "total order");
        }
        for i in 0..handles.len() {
            let prefix = format!("s{i}-");
            let mine: Vec<&Vec<u8>> = sequences[0]
                .iter()
                .filter(|d| d.starts_with(prefix.as_bytes()))
                .collect();
            assert_eq!(mine.len(), per_sender, "sender={i}");
            for (m, got) in mine.iter().enumerate() {
                assert_eq!(
                    **got,
                    format!("s{i}-m{m}").into_bytes(),
                    "per-sender FIFO, sender={i}"
                );
            }
        }
        group.shutdown();
    }

    #[test]
    fn secure_channel_over_threads() {
        let (group, mut handles) = ThreadedGroup::spawn(keys(4, 1));
        let pid = ProtocolId::new("threaded-sc");
        for h in &handles {
            h.create_secure_channel(pid.clone(), AtomicChannelConfig::default());
        }
        handles[1].send(&pid, b"threaded secret".to_vec());
        for h in handles.iter_mut() {
            assert_eq!(h.receive(&pid).unwrap().data, b"threaded secret");
        }
        group.shutdown();
    }
}
