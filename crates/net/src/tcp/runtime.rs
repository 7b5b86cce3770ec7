//! Group assembly and teardown for the TCP runtime.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};

use sintra_core::agreement::CandidateOrder;
use sintra_core::channel::{AtomicChannelConfig, OptimisticChannelConfig};
use sintra_core::message::Payload;
use sintra_core::node::Node;
use sintra_core::validator::{ArrayValidator, BinaryValidator};
use sintra_core::{Outgoing, PartyId, ProtocolId};
use sintra_crypto::dealer::PartyKeys;
use sintra_telemetry::{FanoutRecorder, MetricsRegistry, Recorder};

use crate::link::{LinkConfig, LinkKey, ReliableLink};
use crate::metrics::ScrapeListener;
use crate::observe::ObservabilityConfig;
use crate::server::{party_loop, Command, Outputs, Server};
use crate::tcp::TcpTransport;
use crate::PartyHandle;
use sintra_core::invariant::OrInvariant;

/// Configuration for a TCP group.
#[derive(Debug, Clone, Default)]
pub struct TcpConfig {
    /// Reliable-link tuning (retransmission queue bound, ack cadence).
    pub link: LinkConfig,
    /// Flight-recorder and stall-detector settings; `None` disables both
    /// (no per-event overhead beyond one branch).
    pub observability: Option<ObservabilityConfig>,
}

/// A handle to one party of a TCP group: the [`PartyHandle`] API plus
/// TCP-specific controls.
pub struct TcpHandle {
    me: PartyId,
    outputs: Outputs,
    cmds: Sender<Command>,
}

impl TcpHandle {
    /// Forcibly closes every live TCP connection of this party without
    /// stopping it — a fault-injection hook. The party's loop closes
    /// them in order with this handle's other commands: after everything
    /// sent before, before everything sent after, and also once the
    /// party has crashed. The loop of each pair's lower id finds its
    /// link without a connection and redials, with backoff if the dial
    /// fails; the reliable link replays whatever was unacknowledged, so
    /// no delivery is lost or reordered.
    pub fn sever_links(&self) {
        self.command(Command::Sever);
    }

    /// Asks this party's server to dump its live state (instance
    /// snapshots, link state, recent trace events) to a
    /// `sintra-dump-<party>-<reason>.json` file. A no-op unless the group
    /// was spawned with an [`ObservabilityConfig`]. This is the portable
    /// equivalent of a SIGUSR1 "dump state" signal — the dependency-free
    /// workspace cannot install OS signal handlers.
    pub fn request_dump(&self, reason: &str) {
        self.command(Command::DumpState(reason.to_string()));
    }

    /// Crashes this party's server without stopping the group — a
    /// crash-fault injection hook. The party drops its protocol state
    /// and stops stepping: it sends no protocol message, ignores client
    /// actions and dump requests, fires no timer, and this handle's
    /// waits return `None`. Its sockets stay up until the group shuts
    /// down: its loop still reads, acknowledges and discards what its
    /// links deliver, flushes their backlogs, redials and accepts
    /// connections, so its peers' retransmission queues do not fill.
    /// Combine with [`TcpHandle::sever_links`] to cut its current
    /// connections as well.
    pub fn shutdown_server(&self) {
        self.command(Command::Crash);
    }

    /// Runs `action` on this party's node, in its loop.
    fn act(&self, action: impl FnOnce(&mut Node, &mut Outgoing) + Send + 'static) {
        self.command(Command::Act(Box::new(action)));
    }

    fn command(&self, command: Command) {
        let _ = self.cmds.send(command);
    }
}

impl PartyHandle for TcpHandle {
    fn id(&self) -> PartyId {
        self.me
    }
    fn create_atomic_channel(&self, pid: ProtocolId, config: AtomicChannelConfig) {
        self.act(move |node, _| node.create_atomic_channel(pid, config));
    }
    fn create_secure_channel(&self, pid: ProtocolId, config: AtomicChannelConfig) {
        self.act(move |node, _| node.create_secure_channel(pid, config));
    }
    fn create_optimistic_channel(&self, pid: ProtocolId, config: OptimisticChannelConfig) {
        self.act(move |node, _| node.create_optimistic_channel(pid, config));
    }
    fn create_reliable_channel(&self, pid: ProtocolId) {
        self.act(move |node, _| node.create_reliable_channel(pid));
    }
    fn create_consistent_channel(&self, pid: ProtocolId) {
        self.act(move |node, _| node.create_consistent_channel(pid));
    }
    fn create_reliable_broadcast(&self, pid: ProtocolId, sender: PartyId) {
        self.act(move |node, _| node.create_reliable_broadcast(pid, sender));
    }
    fn create_consistent_broadcast(&self, pid: ProtocolId, sender: PartyId) {
        self.act(move |node, _| node.create_consistent_broadcast(pid, sender));
    }
    fn create_binary_agreement(
        &self,
        pid: ProtocolId,
        validator: Option<BinaryValidator>,
        bias: Option<bool>,
    ) {
        self.act(move |node, _| node.create_binary_agreement(pid, validator, bias));
    }
    fn create_multi_valued(
        &self,
        pid: ProtocolId,
        validator: ArrayValidator,
        order: CandidateOrder,
    ) {
        self.act(move |node, _| node.create_multi_valued(pid, validator, order));
    }
    fn send(&self, pid: &ProtocolId, data: Vec<u8>) {
        self.command(Command::Send(pid.clone(), data));
    }
    fn send_ciphertext(&self, pid: &ProtocolId, ciphertext: Vec<u8>) {
        let pid = pid.clone();
        self.act(move |node, out| node.channel_send_ciphertext(&pid, ciphertext, out));
    }
    fn broadcast_send(&self, pid: &ProtocolId, payload: Vec<u8>) {
        let pid = pid.clone();
        self.act(move |node, out| node.broadcast_send(&pid, payload, out));
    }
    fn propose_binary(&self, pid: &ProtocolId, value: bool, proof: Vec<u8>) {
        let pid = pid.clone();
        self.act(move |node, out| node.propose_binary(&pid, value, proof, out));
    }
    fn propose_multi(&self, pid: &ProtocolId, value: Vec<u8>) {
        let pid = pid.clone();
        self.act(move |node, out| node.propose_multi(&pid, value, out));
    }
    fn close(&self, pid: &ProtocolId) {
        let pid = pid.clone();
        self.act(move |node, out| node.channel_close(&pid, out));
    }
    fn receive(&mut self, pid: &ProtocolId) -> Option<Payload> {
        self.outputs.receive(pid)
    }
    fn try_receive(&mut self, pid: &ProtocolId) -> Option<Payload> {
        self.outputs.try_receive(pid)
    }
    fn can_receive(&mut self, pid: &ProtocolId) -> bool {
        self.outputs.can_receive(pid)
    }
    fn is_closed(&mut self, pid: &ProtocolId) -> bool {
        self.outputs.is_closed(pid)
    }
    fn close_wait(&mut self, pid: &ProtocolId) -> Vec<Payload> {
        self.close(pid);
        self.outputs.close_wait(pid)
    }
    fn receive_broadcast(&mut self, pid: &ProtocolId) -> Option<Vec<u8>> {
        self.outputs.receive_broadcast(pid)
    }
    fn decide_binary(&mut self, pid: &ProtocolId) -> Option<(bool, Option<Vec<u8>>)> {
        self.outputs.decide_binary(pid)
    }
    fn decide_multi(&mut self, pid: &ProtocolId) -> Option<Vec<u8>> {
        self.outputs.decide_multi(pid)
    }
}

/// A party's loop thread; it returns the inbound threads (handshakes,
/// scrapes) still to be joined.
type PartyThread = JoinHandle<Vec<JoinHandle<()>>>;

/// A running group of SINTRA servers connected over real TCP sockets.
pub struct TcpGroup {
    /// Each party's loop thread, which hands back the inbound threads
    /// still to be joined, and its command channel, by party id.
    parties: Vec<(PartyThread, Sender<Command>)>,
    addrs: Vec<SocketAddr>,
    metrics_addrs: Vec<SocketAddr>,
}

impl TcpGroup {
    /// Spawns an `n`-party group on loopback sockets with ephemeral
    /// ports and default configuration.
    pub fn spawn(party_keys: Vec<Arc<PartyKeys>>) -> std::io::Result<(TcpGroup, Vec<TcpHandle>)> {
        Self::spawn_with(party_keys, TcpConfig::default(), None)
    }

    /// Spawns a group with explicit configuration and an optional
    /// telemetry recorder; link-layer counters (bytes, frames,
    /// retransmits, reconnects, authentication failures) are recorded
    /// under the `"link"` scope.
    pub fn spawn_with(
        party_keys: Vec<Arc<PartyKeys>>,
        config: TcpConfig,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> std::io::Result<(TcpGroup, Vec<TcpHandle>)> {
        let n = party_keys.len();
        // A receiver acks after `ack_every` deliveries at the latest; a
        // sender whose queue holds fewer frames would shed every frame
        // after its first `max_unacked` and never hear an ack.
        if (config.link.max_unacked as u64) < config.link.ack_every {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "LinkConfig::max_unacked is below ack_every",
            ));
        }
        // One shared time zero for the whole group: trace stamps from
        // different party threads must be comparable.
        let run_start = std::time::Instant::now();
        // Bind every listener first so the full address table is known
        // before anyone dials.
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            listeners.push(listener);
        }

        let mut handles = Vec::with_capacity(n);
        let mut parties = Vec::with_capacity(n);
        let mut metrics_addrs = Vec::new();
        let metrics_config = config
            .observability
            .as_ref()
            .and_then(|obs| obs.metrics.clone());

        for (i, (keys, listener)) in party_keys.iter().zip(listeners).enumerate() {
            let me = PartyId(i);

            // With the metrics plane on, every party counts into its own
            // registry (scrapes must not mix parties); a user-supplied
            // recorder still sees everything through a fanout.
            let registry = metrics_config
                .as_ref()
                .map(|_| Arc::new(MetricsRegistry::new()));
            let party_recorder: Option<Arc<dyn Recorder>> = match (&registry, &recorder) {
                (Some(registry), Some(user)) => Some(Arc::new(FanoutRecorder::new(vec![
                    Arc::clone(registry) as Arc<dyn Recorder>,
                    Arc::clone(user),
                ]))),
                (Some(registry), None) => Some(Arc::clone(registry) as Arc<dyn Recorder>),
                (None, user) => user.clone(),
            };

            let links = (0..n)
                .map(|j| {
                    (j != i).then(|| {
                        ReliableLink::new(
                            LinkKey::new(keys.mac_keys[j].clone(), me, PartyId(j)),
                            config.link.clone(),
                        )
                    })
                })
                .collect();
            // The scrape listener is bound here, so that its address is
            // known at once; the party's loop accepts from it.
            let scrape = match (&metrics_config, registry) {
                (Some(metrics), Some(registry)) => {
                    let scrape = ScrapeListener::bind(i, metrics, registry)?;
                    metrics_addrs.push(scrape.addr()?);
                    Some(scrape)
                }
                _ => None,
            };
            let (cmds, cmd_rx) = unbounded();
            let transport = TcpTransport::new(
                me,
                listener,
                links,
                &addrs,
                party_recorder.clone(),
                scrape,
                cmds.clone(),
            )?;

            let (event_tx, event_rx) = unbounded();
            let server = Server::new(
                Arc::clone(keys),
                party_recorder,
                config.observability.clone(),
                run_start,
                crate::observe::open_trace_stream(i, config.observability.as_ref()),
                event_tx,
            );
            let thread = std::thread::Builder::new()
                .name(format!("sintra-p{i}"))
                .spawn(move || party_loop(transport, cmd_rx, server))
                .or_invariant("spawn party thread");
            handles.push(TcpHandle {
                me,
                outputs: Outputs::new(event_rx),
                cmds: cmds.clone(),
            });

            parties.push((thread, cmds));
        }

        Ok((
            TcpGroup {
                parties,
                addrs,
                metrics_addrs,
            },
            handles,
        ))
    }

    /// The socket addresses the parties are listening on, by party id.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The live scrape addresses, by party id. Empty unless the group
    /// was spawned with [`ObservabilityConfig::metrics`] set.
    pub fn metrics_addrs(&self) -> Vec<SocketAddr> {
        self.metrics_addrs.clone()
    }

    /// Stops the group: party loops first (their final frames are
    /// written or backlogged by the time each is joined, their trace
    /// streams flushed, and their listeners — scrape listeners too — and
    /// connections closed), then the inbound threads they hand back.
    /// Every thread is joined before this returns.
    pub fn shutdown(self) {
        for (_, cmds) in &self.parties {
            let _ = cmds.send(Command::Stop);
        }
        let mut inbound = Vec::new();
        for (thread, _) in self.parties {
            inbound.extend(thread.join().unwrap_or_default());
        }
        // In-flight handshakes and scrapes are bounded by the read
        // timeout; wait them out so no thread outlives the group. A
        // connection a handshake authenticates now finds its loop gone
        // and closes.
        for thread in inbound {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sintra_crypto::dealer::{deal, DealerConfig};

    fn keys(n: usize, t: usize) -> Vec<Arc<PartyKeys>> {
        let mut rng = StdRng::seed_from_u64(71);
        deal(&DealerConfig::small(n, t), &mut rng)
            .unwrap()
            .into_iter()
            .map(Arc::new)
            .collect()
    }

    #[test]
    fn atomic_channel_over_sockets_inline() {
        let (group, mut handles) = TcpGroup::spawn(keys(4, 1)).unwrap();
        let pid = ProtocolId::new("tcp-smoke");
        for h in &handles {
            h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
        for (i, h) in handles.iter().enumerate() {
            h.send(&pid, format!("tcp-{i}").into_bytes());
        }
        let mut sequences = Vec::new();
        for h in handles.iter_mut() {
            let seq: Vec<Vec<u8>> = (0..4).map(|_| h.receive(&pid).unwrap().data).collect();
            sequences.push(seq);
        }
        for s in &sequences[1..] {
            assert_eq!(s, &sequences[0], "total order over real sockets");
        }
        group.shutdown();
    }

    /// The per-sender FIFO property over real sockets: one total order
    /// everywhere, each sender's messages in send order within it.
    #[test]
    fn per_sender_fifo_over_sockets() {
        let (group, mut handles) = TcpGroup::spawn(keys(4, 1)).unwrap();
        let pid = ProtocolId::new("tcp-fifo");
        for h in &handles {
            h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
        let per_sender = 4usize;
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

    /// Requests queued behind a party's first share its next entry, so
    /// some round orders more than the `t + 1` payloads one-payload
    /// entries allowed — seen through the `atomic:batch` event, which
    /// carries the number of payloads its round delivered.
    #[test]
    fn queued_requests_share_a_round_over_sockets() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.set_trace_capture(true);
        let (group, mut handles) =
            TcpGroup::spawn_with(keys(4, 1), TcpConfig::default(), Some(registry.clone())).unwrap();
        let pid = ProtocolId::new("tcp-batch");
        for h in &handles {
            h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
        for (i, h) in handles.iter().enumerate() {
            for m in 0..4 {
                h.send(&pid, format!("s{i}-m{m}").into_bytes());
            }
        }
        for h in handles.iter_mut() {
            for _ in 0..16 {
                h.receive(&pid).unwrap();
            }
        }
        group.shutdown();
        let batches: Vec<sintra_telemetry::TraceEvent> = registry
            .take_traces()
            .into_iter()
            .filter(|ev| ev.party == 0 && ev.family == "atomic" && ev.phase == "batch")
            .collect();
        let rounds: Vec<u64> = batches.iter().map(|ev| ev.round).collect();
        assert_eq!(
            rounds,
            (0..rounds.len() as u64).collect::<Vec<_>>(),
            "one event per round"
        );
        assert_eq!(batches.iter().map(|ev| ev.bytes).sum::<u64>(), 16);
        assert!(
            batches.iter().any(|ev| ev.bytes > 2),
            "no round delivered more than t + 1 = 2 payloads: {:?}",
            batches.iter().map(|ev| ev.bytes).collect::<Vec<_>>()
        );
        let sizes = registry
            .histogram("tcp-batch", "batch_size")
            .expect("fed from the event");
        assert_eq!(
            sizes.sum,
            4 * 16,
            "payloads per round, at each of 4 parties"
        );
    }

    #[test]
    fn reconnect_after_severed_sockets() {
        let (group, mut handles) = TcpGroup::spawn(keys(4, 1)).unwrap();
        let pid = ProtocolId::new("tcp-sever");
        for h in &handles {
            h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
        handles[0].send(&pid, b"before".to_vec());
        for h in handles.iter_mut() {
            assert_eq!(h.receive(&pid).unwrap().data, b"before");
        }
        // Kill every live connection; the loops must redial and pick up
        // the replacement sockets.
        handles[0].sever_links();
        handles[1].send(&pid, b"after".to_vec());
        for h in handles.iter_mut() {
            assert_eq!(h.receive(&pid).unwrap().data, b"after");
        }
        group.shutdown();
    }

    #[test]
    fn broadcast_and_agreement_over_sockets() {
        let (group, mut handles) = TcpGroup::spawn(keys(4, 1)).unwrap();
        // Reliable broadcast with party 1 as sender.
        let rb = ProtocolId::new("t-rb");
        for h in &handles {
            h.create_reliable_broadcast(rb.clone(), PartyId(1));
        }
        handles[1].broadcast_send(&rb, b"broadcast over sockets".to_vec());
        for h in handles.iter_mut() {
            assert_eq!(
                h.receive_broadcast(&rb).as_deref(),
                Some(&b"broadcast over sockets"[..])
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
    fn multi_valued_agreement_over_sockets() {
        let (group, mut handles) = TcpGroup::spawn(keys(4, 1)).unwrap();
        let pid = ProtocolId::new("t-vba");
        for h in &handles {
            h.create_multi_valued(
                pid.clone(),
                ArrayValidator::always(),
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
    fn optimistic_channel_over_sockets() {
        let (group, mut handles) = TcpGroup::spawn(keys(4, 1)).unwrap();
        let pid = ProtocolId::new("tcp-opt");
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
            assert_eq!(s, &sequences[0], "optimistic total order over sockets");
        }
        group.shutdown();
    }

    /// The loop flushes its trace stream whenever it parks: once one
    /// request is delivered everywhere and the group has idled, every
    /// party's segment already holds each `net:recv` event the parties
    /// counted, while the group is still up.
    #[test]
    fn trace_tail_reaches_disk_when_the_loop_parks() {
        let dir = std::env::temp_dir().join(format!("sintra-park-flush-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Arc::new(MetricsRegistry::new());
        let config = TcpConfig {
            observability: Some(ObservabilityConfig::with_trace_dir(&dir)),
            ..TcpConfig::default()
        };
        let (group, mut handles) =
            TcpGroup::spawn_with(keys(4, 1), config, Some(registry.clone())).unwrap();
        let pid = ProtocolId::new("park-flush");
        for h in &handles {
            h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
        handles[0].send(&pid, b"one".to_vec());
        for h in handles.iter_mut() {
            assert_eq!(h.receive(&pid).unwrap().data, b"one");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Each party counts a delivered envelope just before it emits the
        // envelope's `net:recv` event. A tail that waited for shutdown
        // would stay short of the count for good; a loop that is still
        // busy gets a little longer.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let counted = registry.counter("park-flush", "msgs_delivered");
            let on_disk: Vec<u64> = (0..4)
                .map(|party| {
                    let path = dir.join(sintra_telemetry::segment_file_name(party, 0));
                    let body = std::fs::read_to_string(path).expect("segment exists");
                    body.lines()
                        .filter(|line| {
                            line.contains(r#""protocol":"park-flush"#)
                                && line.contains(r#""family":"net","phase":"recv""#)
                        })
                        .count() as u64
                })
                .collect();
            if on_disk.iter().all(|&n| n > 0) && on_disk.iter().sum::<u64>() >= counted {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{counted} envelopes counted, recv events on disk by party: {on_disk:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        group.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A trace directory that cannot be created — its parent is a regular
    /// file — costs the trace, not the group: it spawns and orders.
    #[test]
    fn an_unwritable_trace_dir_does_not_stop_the_group() {
        let file = std::env::temp_dir().join(format!("sintra-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"").unwrap();
        let config = TcpConfig {
            observability: Some(ObservabilityConfig::with_trace_dir(file.join("traces"))),
            ..TcpConfig::default()
        };
        let (group, mut handles) = TcpGroup::spawn_with(keys(4, 1), config, None).unwrap();
        let pid = ProtocolId::new("no-trace");
        for h in &handles {
            h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
        handles[2].send(&pid, b"ordered".to_vec());
        for h in handles.iter_mut() {
            assert_eq!(h.receive(&pid).unwrap().data, b"ordered");
        }
        group.shutdown();
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn secure_channel_over_sockets() {
        let (group, mut handles) = TcpGroup::spawn(keys(4, 1)).unwrap();
        let pid = ProtocolId::new("tcp-sc");
        for h in &handles {
            h.create_secure_channel(pid.clone(), AtomicChannelConfig::default());
        }
        handles[1].send(&pid, b"secret over sockets".to_vec());
        for h in handles.iter_mut() {
            assert_eq!(h.receive(&pid).unwrap().data, b"secret over sockets");
        }
        group.shutdown();
    }
}
