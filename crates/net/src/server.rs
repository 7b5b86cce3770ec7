//! The transport-independent per-party server: one OS thread driving a
//! sans-I/O [`Node`], fed by a command/network inbox.
//!
//! Both real runtimes ([`threaded`](crate::threaded) and
//! [`tcp`](crate::tcp)) run this exact loop; they differ only in the
//! [`Transport`] they plug in — how a sealed envelope reaches a peer and
//! how inbound bytes are authenticated back into envelopes. The
//! application talks to the loop through a [`ServerHandle`], whose
//! blocking `send`/`receive`/`close`/`close_wait` API mirrors the Java
//! `Channel` interface of the paper (§3.4).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};

use sintra_core::agreement::CandidateOrder;
use sintra_core::channel::{AtomicChannelConfig, OptimisticChannelConfig};
use sintra_core::message::{Envelope, Payload, PayloadKind};
use sintra_core::node::Node;
use sintra_core::validator::{ArrayValidator, BinaryValidator};
use sintra_core::{Event, GroupContext, Outgoing, PartyId, ProtocolId, Recipient};
use sintra_crypto::dealer::PartyKeys;
use sintra_telemetry::{
    root_scope, FlightRecorder, Recorder, TraceEvent, TraceStream, DELIVERY_LATENCY,
};

use crate::observe::{write_dump, ObservabilityConfig};
use sintra_core::invariant::OrInvariant;

/// How a party's sealed envelopes reach its peers, and how inbound
/// transport items turn back into authenticated envelopes.
///
/// The server loop owns a `Transport` and calls it from its single
/// thread; `transmit`/`open` must not block on the network (the TCP
/// runtime writes to nonblocking sockets and backlogs what the kernel
/// does not take).
pub trait Transport: Send + 'static {
    /// Number of parties in the group.
    fn parties(&self) -> usize;

    /// Seals `env` and hands it to the delivery substrate for `to`
    /// (which may be the local party — self-delivery is the transport's
    /// job too). Returns the number of bytes put on, or queued for, the
    /// wire; 0 when the frame was shed (e.g. link backpressure).
    fn transmit(&mut self, to: PartyId, env: &Envelope) -> u64;

    /// Authenticates and decodes one inbound item that arrived from
    /// `from`. `None` drops the item (failed authentication, duplicate,
    /// or malformed payload); the loop counts the drop.
    fn open(&mut self, from: PartyId, data: &[u8]) -> Option<Envelope>;

    /// Serializes the transport's per-peer link state (sequence cursors,
    /// retransmission backlog) for a debug dump. The default reports
    /// nothing — only transports with meaningful link state override it.
    fn link_snapshots(&self) -> Vec<String> {
        Vec::new()
    }
}

/// What a server thread can be asked to do.
pub(crate) enum Command {
    CreateAtomic(ProtocolId, AtomicChannelConfig),
    CreateSecure(ProtocolId, AtomicChannelConfig),
    CreateOptimistic(ProtocolId, OptimisticChannelConfig),
    CreateReliableChannel(ProtocolId),
    CreateConsistentChannel(ProtocolId),
    CreateReliableBroadcast(ProtocolId, PartyId),
    CreateConsistentBroadcast(ProtocolId, PartyId),
    CreateBinaryAgreement(ProtocolId, Option<BinaryValidator>, Option<bool>),
    CreateMultiValued(ProtocolId, ArrayValidator, CandidateOrder),
    Send(ProtocolId, Vec<u8>),
    SendCiphertext(ProtocolId, Vec<u8>),
    BroadcastSend(ProtocolId, Vec<u8>),
    ProposeBinary(ProtocolId, bool, Vec<u8>),
    ProposeMulti(ProtocolId, Vec<u8>),
    Close(ProtocolId),
    /// Dump the server's live state under the given reason tag.
    DumpState(String),
    Shutdown,
}

/// One item in a server's inbox: bytes from the network or an
/// application command.
pub(crate) enum Input {
    /// A transport item from `from`; `data` is transport-defined (a
    /// sealed frame for the threaded runtime, an already-authenticated
    /// envelope encoding for TCP).
    Net {
        /// Claimed (threaded) or authenticated (TCP) origin.
        from: PartyId,
        /// Transport-defined bytes, resolved by [`Transport::open`].
        data: Vec<u8>,
    },
    /// An application command from the [`ServerHandle`].
    Cmd(Command),
}

/// A handle to one SINTRA server running on its own thread.
///
/// Mirrors the paper's Java `Channel` API: `send` and `close` are
/// non-blocking requests, `receive` blocks until the next delivery,
/// `close_wait` blocks until the channel terminates. The handle is
/// transport-independent — the threaded and TCP runtimes both hand out
/// this type.
pub struct ServerHandle {
    me: PartyId,
    cmd_tx: Sender<Input>,
    event_rx: Receiver<Event>,
    /// Deliveries already pulled from the event stream but not yet
    /// claimed by `receive` (per channel).
    stash: HashMap<ProtocolId, VecDeque<Payload>>,
    closed: std::collections::HashSet<ProtocolId>,
}

impl ServerHandle {
    pub(crate) fn new(me: PartyId, cmd_tx: Sender<Input>, event_rx: Receiver<Event>) -> Self {
        ServerHandle {
            me,
            cmd_tx,
            event_rx,
            stash: HashMap::new(),
            closed: std::collections::HashSet::new(),
        }
    }

    /// This server's party identity.
    pub fn id(&self) -> PartyId {
        self.me
    }

    /// Opens an atomic broadcast channel on this server.
    pub fn create_atomic_channel(&self, pid: ProtocolId, config: AtomicChannelConfig) {
        let _ = self
            .cmd_tx
            .send(Input::Cmd(Command::CreateAtomic(pid, config)));
    }

    /// Opens a secure causal atomic broadcast channel on this server.
    pub fn create_secure_channel(&self, pid: ProtocolId, config: AtomicChannelConfig) {
        let _ = self
            .cmd_tx
            .send(Input::Cmd(Command::CreateSecure(pid, config)));
    }

    /// Opens an optimistic (leader-sequenced) atomic broadcast channel.
    pub fn create_optimistic_channel(&self, pid: ProtocolId, config: OptimisticChannelConfig) {
        let _ = self
            .cmd_tx
            .send(Input::Cmd(Command::CreateOptimistic(pid, config)));
    }

    /// Opens a reliable channel on this server.
    pub fn create_reliable_channel(&self, pid: ProtocolId) {
        let _ = self
            .cmd_tx
            .send(Input::Cmd(Command::CreateReliableChannel(pid)));
    }

    /// Opens a consistent channel on this server.
    pub fn create_consistent_channel(&self, pid: ProtocolId) {
        let _ = self
            .cmd_tx
            .send(Input::Cmd(Command::CreateConsistentChannel(pid)));
    }

    /// Sends a payload on a channel (non-blocking).
    pub fn send(&self, pid: &ProtocolId, data: Vec<u8>) {
        let _ = self
            .cmd_tx
            .send(Input::Cmd(Command::Send(pid.clone(), data)));
    }

    /// Injects an externally encrypted ciphertext into a secure channel.
    pub fn send_ciphertext(&self, pid: &ProtocolId, ciphertext: Vec<u8>) {
        let _ = self
            .cmd_tx
            .send(Input::Cmd(Command::SendCiphertext(pid.clone(), ciphertext)));
    }

    /// Requests termination of a channel (non-blocking).
    pub fn close(&self, pid: &ProtocolId) {
        let _ = self.cmd_tx.send(Input::Cmd(Command::Close(pid.clone())));
    }

    /// Asks the server to dump its live state (instance snapshots, link
    /// state, recent trace events) to a `sintra-dump-<party>-<reason>.json`
    /// file. A no-op unless the group was spawned with an
    /// [`ObservabilityConfig`](crate::ObservabilityConfig). This is the
    /// portable equivalent of a SIGUSR1 "dump state" signal — the
    /// dependency-free workspace cannot install OS signal handlers.
    pub fn request_dump(&self, reason: &str) {
        let _ = self
            .cmd_tx
            .send(Input::Cmd(Command::DumpState(reason.to_string())));
    }

    /// Stops this server's loop without touching the rest of the group —
    /// a crash-fault injection hook for tests. The group's own
    /// `shutdown` later joins the (already finished) thread.
    pub fn shutdown(&self) {
        let _ = self.cmd_tx.send(Input::Cmd(Command::Shutdown));
    }

    /// Registers a reliable broadcast instance for `sender`.
    pub fn create_reliable_broadcast(&self, pid: ProtocolId, sender: PartyId) {
        let _ = self
            .cmd_tx
            .send(Input::Cmd(Command::CreateReliableBroadcast(pid, sender)));
    }

    /// Registers a (verifiable) consistent broadcast instance for `sender`.
    pub fn create_consistent_broadcast(&self, pid: ProtocolId, sender: PartyId) {
        let _ = self
            .cmd_tx
            .send(Input::Cmd(Command::CreateConsistentBroadcast(pid, sender)));
    }

    /// Registers a binary agreement instance (optionally validated and/or
    /// biased).
    pub fn create_binary_agreement(
        &self,
        pid: ProtocolId,
        validator: Option<BinaryValidator>,
        bias: Option<bool>,
    ) {
        let _ = self.cmd_tx.send(Input::Cmd(Command::CreateBinaryAgreement(
            pid, validator, bias,
        )));
    }

    /// Registers a multi-valued agreement instance.
    pub fn create_multi_valued(
        &self,
        pid: ProtocolId,
        validator: ArrayValidator,
        order: CandidateOrder,
    ) {
        let _ = self.cmd_tx.send(Input::Cmd(Command::CreateMultiValued(
            pid, validator, order,
        )));
    }

    /// Starts a broadcast (this server must be the instance's sender).
    pub fn broadcast_send(&self, pid: &ProtocolId, payload: Vec<u8>) {
        let _ = self
            .cmd_tx
            .send(Input::Cmd(Command::BroadcastSend(pid.clone(), payload)));
    }

    /// Proposes a value to a binary agreement instance.
    pub fn propose_binary(&self, pid: &ProtocolId, value: bool, proof: Vec<u8>) {
        let _ = self.cmd_tx.send(Input::Cmd(Command::ProposeBinary(
            pid.clone(),
            value,
            proof,
        )));
    }

    /// Proposes a value to a multi-valued agreement instance.
    pub fn propose_multi(&self, pid: &ProtocolId, value: Vec<u8>) {
        let _ = self
            .cmd_tx
            .send(Input::Cmd(Command::ProposeMulti(pid.clone(), value)));
    }

    /// Blocks until a broadcast instance delivers; the SINTRA `receive()`
    /// of the `Broadcast` API. Returns `None` if the server shut down.
    pub fn receive_broadcast(&mut self, pid: &ProtocolId) -> Option<Vec<u8>> {
        loop {
            match self.event_rx.recv().ok()? {
                Event::BroadcastDelivered { pid: epid, payload } if epid == *pid => {
                    return Some(payload);
                }
                Event::ChannelDelivered { pid: epid, payload } => {
                    self.stash.entry(epid).or_default().push_back(payload);
                }
                Event::ChannelClosed { pid: epid } => {
                    self.closed.insert(epid);
                }
                _ => {}
            }
        }
    }

    /// Blocks until a binary agreement instance decides; the SINTRA
    /// `decide()` of the `Agreement` API.
    pub fn decide_binary(&mut self, pid: &ProtocolId) -> Option<(bool, Option<Vec<u8>>)> {
        loop {
            match self.event_rx.recv().ok()? {
                Event::BinaryDecided {
                    pid: epid,
                    value,
                    proof,
                } if epid == *pid => return Some((value, proof)),
                Event::ChannelDelivered { pid: epid, payload } => {
                    self.stash.entry(epid).or_default().push_back(payload);
                }
                Event::ChannelClosed { pid: epid } => {
                    self.closed.insert(epid);
                }
                _ => {}
            }
        }
    }

    /// Blocks until a multi-valued agreement instance decides.
    pub fn decide_multi(&mut self, pid: &ProtocolId) -> Option<Vec<u8>> {
        loop {
            match self.event_rx.recv().ok()? {
                Event::MultiDecided { pid: epid, value } if epid == *pid => return Some(value),
                Event::ChannelDelivered { pid: epid, payload } => {
                    self.stash.entry(epid).or_default().push_back(payload);
                }
                Event::ChannelClosed { pid: epid } => {
                    self.closed.insert(epid);
                }
                _ => {}
            }
        }
    }

    /// Blocks until the next payload is delivered on `pid`. Returns
    /// `None` if the channel closed (or the server shut down) first.
    pub fn receive(&mut self, pid: &ProtocolId) -> Option<Payload> {
        if let Some(payload) = self.stash.get_mut(pid).and_then(VecDeque::pop_front) {
            return Some(payload);
        }
        if self.closed.contains(pid) {
            return None;
        }
        loop {
            let event = self.event_rx.recv().ok()?;
            match event {
                Event::ChannelDelivered { pid: epid, payload } => {
                    if epid == *pid {
                        return Some(payload);
                    }
                    self.stash.entry(epid).or_default().push_back(payload);
                }
                Event::ChannelClosed { pid: epid } => {
                    self.closed.insert(epid.clone());
                    if epid == *pid {
                        return None;
                    }
                }
                _ => {}
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_receive(&mut self, pid: &ProtocolId) -> Option<Payload> {
        self.drain_events();
        self.stash.get_mut(pid).and_then(VecDeque::pop_front)
    }

    /// Whether a `receive` on `pid` would return immediately.
    pub fn can_receive(&mut self, pid: &ProtocolId) -> bool {
        self.drain_events();
        self.stash.get(pid).is_some_and(|s| !s.is_empty())
    }

    /// Whether the channel has terminated.
    pub fn is_closed(&mut self, pid: &ProtocolId) -> bool {
        self.drain_events();
        self.closed.contains(pid)
    }

    /// Blocks until the channel terminates, draining deliveries into the
    /// stash (the Java `closeWait`). Returns the undelivered payloads.
    pub fn close_wait(&mut self, pid: &ProtocolId) -> Vec<Payload> {
        self.close(pid);
        while !self.closed.contains(pid) {
            match self.event_rx.recv_timeout(Duration::from_secs(30)) {
                Ok(Event::ChannelDelivered { pid: epid, payload }) => {
                    self.stash.entry(epid).or_default().push_back(payload);
                }
                Ok(Event::ChannelClosed { pid: epid }) => {
                    self.closed.insert(epid);
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        self.stash.remove(pid).map(Vec::from).unwrap_or_default()
    }

    fn drain_events(&mut self) {
        while let Ok(event) = self.event_rx.try_recv() {
            match event {
                Event::ChannelDelivered { pid, payload } => {
                    self.stash.entry(pid).or_default().push_back(payload);
                }
                Event::ChannelClosed { pid } => {
                    self.closed.insert(pid);
                }
                _ => {}
            }
        }
    }
}

/// Everything a server loop needs beyond its transport and channels.
pub(crate) struct ServerOpts {
    /// Telemetry sink for counters, histograms and traces.
    pub recorder: Option<Arc<dyn Recorder>>,
    /// Flight recorder + stall detector configuration.
    pub observability: Option<ObservabilityConfig>,
    /// The group-wide time zero: every party of a group shares one
    /// anchor, so trace stamps from different server threads are directly
    /// comparable (and causal arrows in exported traces point forward).
    pub run_start: Instant,
    /// Streaming trace sink. The loop owns it, so returning from the
    /// loop (any shutdown path) drains the buffered tail to disk before
    /// the runtime can join this thread — flush-on-shutdown ordering.
    pub trace_stream: Option<TraceStream>,
}

/// Pending timers: (deadline, pid, token), earliest first.
type Timers = std::collections::BinaryHeap<std::cmp::Reverse<(Instant, ProtocolId, u64)>>;

/// What every step of one party's loop needs besides the node, the
/// transport and the step's own [`Outgoing`]: where telemetry goes, the
/// application's event stream and the send-sequence counter.
struct LoopState {
    me: usize,
    recorder: Option<Arc<dyn Recorder>>,
    observability: Option<ObservabilityConfig>,
    flight: Option<FlightRecorder>,
    trace_stream: Option<TraceStream>,
    run_start: Instant,
    /// Whether steps collect trace events at all.
    tracing: bool,
    /// Whether the loop's phase counters are recorded.
    metered: bool,
    next_send_seq: u64,
    event_tx: Sender<Event>,
    /// Per-channel FIFO of own send instants, matched against own
    /// deliveries for end-to-end latency.
    send_times: HashMap<String, VecDeque<Instant>>,
}

impl LoopState {
    /// Drains one step's outgoing messages/traces into the transport.
    ///
    /// Every envelope is stamped with this party's next `send_seq` before
    /// transmission — one number per envelope, shared by all fan-out copies —
    /// so receivers can attribute the work a message triggers back to the
    /// exact send. When tracing, a synthetic `net`/`send` event records the
    /// stamp (and inherits the cause of the step that produced the message).
    fn flush<T: Transport>(&mut self, out: &mut Outgoing, transport: &mut T) {
        // Wall-clock trace stamps: microseconds since the group spawned.
        // Events the loop pre-stamped (the dispatch-start `net:recv`) keep
        // their earlier stamp, so a dispatch's recv and its produced events
        // bracket the actual compute interval instead of collapsing onto
        // one flush instant.
        let now_us = self.run_start.elapsed().as_micros() as u64;
        let flush_start = self.metered.then(Instant::now);
        let cause = out.cause();
        for mut ev in out.drain_traces() {
            if ev.time_us == 0 {
                ev.time_us = now_us;
            }
            if let Some(stream) = &self.trace_stream {
                stream.record(ev.clone());
            }
            if let Some(rec) = &self.recorder {
                let scope = root_scope(&ev.protocol);
                match ev.phase {
                    "round" | "epoch" => rec.counter_add(scope, "rounds", 1),
                    "batch" => rec.observe(scope, "batch_size", ev.bytes),
                    _ => {}
                }
                if rec.enabled() {
                    if let Some(flight) = &self.flight {
                        flight.record(ev.clone());
                    }
                    rec.trace(ev);
                    continue;
                }
            }
            if let Some(flight) = &self.flight {
                flight.record(ev);
            }
        }
        for (recipient, mut env) in out.drain() {
            env.send_seq = self.next_send_seq;
            self.next_send_seq += 1;
            let targets: Vec<usize> = match recipient {
                Recipient::All => (0..transport.parties()).collect(),
                Recipient::One(p) => vec![p.0],
            };
            let mut wire_total = 0u64;
            for to in targets {
                let wire_bytes = transport.transmit(PartyId(to), &env);
                wire_total += wire_bytes;
                if let Some(rec) = &self.recorder {
                    let scope = root_scope(env.pid.as_str());
                    rec.counter_add(scope, "msgs_sent", 1);
                    rec.counter_add(scope, "bytes_sent", wire_bytes);
                }
            }
            if self.tracing {
                let mut ev = TraceEvent::new(self.me, env.pid.as_str(), "net")
                    .phase("send")
                    .round(env.send_seq)
                    .bytes(wire_total);
                ev.time_us = now_us;
                ev.cause = cause;
                if let Some(stream) = &self.trace_stream {
                    stream.record(ev.clone());
                }
                if let Some(flight) = &self.flight {
                    flight.record(ev.clone());
                }
                if let Some(rec) = &self.recorder {
                    if rec.enabled() {
                        rec.trace(ev);
                    }
                }
            }
        }
        // Wall time spent sealing and queueing outbound frames — part of
        // the loop's phase breakdown in scrapes.
        if let (Some(rec), Some(start)) = (&self.recorder, flush_start) {
            rec.counter_add("server", "flush_us", start.elapsed().as_micros() as u64);
        }
    }

    /// Forwards harvested node events to the application, recording
    /// end-to-end delivery latency for payloads this party sent itself
    /// (channels deliver each sender's payloads in order, so FIFO pairing of
    /// send instants against own deliveries is exact).
    fn forward_events(&mut self, node: &mut Node) {
        for event in node.take_events() {
            if let Some(rec) = &self.recorder {
                if let Event::ChannelDelivered { pid, payload } = &event {
                    if payload.origin.0 == self.me && payload.kind == PayloadKind::App {
                        if let Some(sent_at) = self
                            .send_times
                            .get_mut(pid.as_str())
                            .and_then(|queue| queue.pop_front())
                        {
                            rec.observe(
                                root_scope(pid.as_str()),
                                DELIVERY_LATENCY,
                                sent_at.elapsed().as_micros() as u64,
                            );
                        }
                    }
                }
            }
            let _ = self.event_tx.send(event);
        }
    }

    /// The end of every step, timer or input alike: re-arm the timers the
    /// step asked for, put its messages on the wire, hand its events to
    /// the application.
    fn finish_step<T: Transport>(
        &mut self,
        out: &mut Outgoing,
        node: &mut Node,
        transport: &mut T,
        timers: &mut Timers,
    ) {
        for t in out.drain_timers() {
            timers.push(std::cmp::Reverse((
                Instant::now() + Duration::from_millis(t.delay_ms),
                t.pid,
                t.token,
            )));
        }
        self.flush(out, transport);
        self.forward_events(node);
    }

    /// Writes the server's live state (instance snapshots, link state,
    /// flight-recorder tail) under `reason`; nothing without observability.
    fn dump<T: Transport>(&self, reason: &str, node: &Node, transport: &T) {
        let Some(obs) = &self.observability else {
            return;
        };
        let (events, dropped) = self
            .flight
            .as_ref()
            .map(|flight| flight.drain())
            .unwrap_or_default();
        write_dump(
            obs,
            self.me,
            reason,
            self.run_start.elapsed().as_micros() as u64,
            obs.quiet.as_micros() as u64,
            &node.snapshot_instances(),
            &transport.link_snapshots(),
            &events,
            dropped,
        );
    }

    /// Runs `dispatch` against the node; with observability on, a panic
    /// inside it (a protocol invariant violation) first writes an
    /// `invariant` dump and then resumes unwinding.
    fn guarded_dispatch<T: Transport>(
        &self,
        node: &mut Node,
        out: &mut Outgoing,
        transport: &T,
        dispatch: impl FnOnce(&mut Node, &mut Outgoing),
    ) {
        if self.observability.is_none() {
            dispatch(node, out);
            return;
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dispatch(node, out)));
        if let Err(panic) = result {
            self.dump("invariant", node, transport);
            std::panic::resume_unwind(panic);
        }
    }

    /// Dispatches one authenticated envelope into the node: recv trace,
    /// cause attribution, guarded `handle_envelope`, phase metering.
    fn dispatch_net<T: Transport>(
        &self,
        from: PartyId,
        env: &Envelope,
        wire_len: u64,
        node: &mut Node,
        out: &mut Outgoing,
        transport: &T,
    ) {
        if let Some(rec) = &self.recorder {
            rec.counter_add(root_scope(env.pid.as_str()), "msgs_delivered", 1);
        }
        // Everything this step emits — messages and trace events alike —
        // descends from this exact transmission.
        out.set_cause(Some((from.0, env.send_seq)));
        if self.tracing {
            // Pre-stamped at dispatch start (flush leaves nonzero stamps
            // alone): with the produced events stamped at flush time, the
            // recv/produced pair brackets this dispatch's compute interval.
            let mut ev = TraceEvent::new(self.me, env.pid.as_str(), "net")
                .phase("recv")
                .round(env.send_seq)
                .bytes(wire_len);
            ev.time_us = self.run_start.elapsed().as_micros() as u64;
            out.trace(ev);
        }
        let dispatch_start = self.metered.then(Instant::now);
        self.guarded_dispatch(node, out, transport, |node, out| {
            node.handle_envelope(from, env, out)
        });
        if let (Some(rec), Some(start)) = (&self.recorder, dispatch_start) {
            let us = start.elapsed().as_micros() as u64;
            rec.counter_add(root_scope(env.pid.as_str()), "dispatch_us", us);
            rec.counter_add("server", "net_dispatch_us", us);
        }
    }
}

/// Runs one party's server loop until shutdown. Spawned on its own
/// thread by each runtime.
pub(crate) fn server_loop<T: Transport>(
    me: usize,
    keys: Arc<PartyKeys>,
    inbox: Receiver<Input>,
    mut transport: T,
    event_tx: Sender<Event>,
    opts: ServerOpts,
) {
    let ServerOpts {
        recorder,
        observability,
        run_start,
        trace_stream,
    } = opts;
    let ctx = GroupContext::new(keys);
    let mut node = Node::new(ctx, me as u64 ^ 0x7EAD_ED01);
    if let Some(rec) = &recorder {
        node.set_recorder(rec.clone());
        // Publish the stalled gauge at 0 up front so the series exists
        // in the first scrape, before any stall has happened.
        rec.gauge_set("server", "stalled", 0);
    }
    let metered = recorder.as_ref().is_some_and(|r| r.enabled());
    let mut state = LoopState {
        me,
        tracing: metered || observability.is_some(),
        metered,
        flight: observability
            .as_ref()
            .map(|obs| FlightRecorder::new(obs.ring_capacity)),
        recorder,
        observability,
        trace_stream,
        run_start,
        next_send_seq: 1,
        event_tx,
        send_times: HashMap::new(),
    };
    // Stall detection: quiet time is measured from the last *network or
    // application* input. Timer expiries deliberately do not reset it —
    // a channel re-arming its complaint timer while starved of messages
    // is exactly the situation worth dumping.
    let mut last_input = Instant::now();
    let mut stall_dumped = false;
    let mut timers = Timers::new();
    loop {
        // Fire due timers before blocking.
        let now = Instant::now();
        while let Some(std::cmp::Reverse((deadline, _, _))) = timers.peek() {
            if *deadline > now {
                break;
            }
            let std::cmp::Reverse((_, pid, token)) =
                timers.pop().or_invariant("timer heap drained after peek");
            let mut out = Outgoing::new();
            out.set_tracing(state.tracing);
            let dispatch_start = state.metered.then(Instant::now);
            state.guarded_dispatch(&mut node, &mut out, &transport, |node, out| {
                node.handle_timer(&pid, token, out)
            });
            if let (Some(rec), Some(start)) = (&state.recorder, dispatch_start) {
                let us = start.elapsed().as_micros() as u64;
                rec.counter_add(root_scope(pid.as_str()), "dispatch_us", us);
                rec.counter_add("server", "timer_dispatch_us", us);
            }
            state.finish_step(&mut out, &mut node, &mut transport, &mut timers);
        }
        // Block for the next input — but never past the next timer
        // deadline, and never past the stall-check cadence when the
        // detector is armed.
        let timer_wait = timers.peek().map(|std::cmp::Reverse((deadline, _, _))| {
            deadline.saturating_duration_since(Instant::now())
        });
        let input = if let Some(obs) = &state.observability {
            let check = obs.effective_check_interval();
            let wait = timer_wait.map_or(check, |w| w.min(check));
            match inbox.recv_timeout(wait) {
                Ok(input) => input,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    if !stall_dumped && last_input.elapsed() >= obs.quiet && node.has_pending_work()
                    {
                        state.dump("stall", &node, &transport);
                        stall_dumped = true;
                        if let Some(rec) = &state.recorder {
                            rec.gauge_set("server", "stalled", 1);
                        }
                    }
                    continue;
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
            }
        } else {
            match timer_wait {
                Some(wait) => match inbox.recv_timeout(wait) {
                    Ok(input) => input,
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                },
                None => match inbox.recv() {
                    Ok(input) => input,
                    Err(_) => return,
                },
            }
        };
        last_input = Instant::now();
        if stall_dumped {
            // Progress after a declared stall: flip the gauge back so
            // scrapes see the recovery, not just the incident.
            if let Some(rec) = &state.recorder {
                rec.gauge_set("server", "stalled", 0);
            }
        }
        stall_dumped = false;
        if let (Some(rec), true) = (&state.recorder, state.metered) {
            rec.gauge_set("server", "inbox_depth", inbox.len() as u64);
        }
        let mut out = Outgoing::new();
        out.set_tracing(state.tracing);
        match input {
            Input::Net { from, data } => {
                let Some(env) = transport.open(from, &data) else {
                    // An unauthenticated frame carries no trustworthy
                    // protocol id; account it against the link itself.
                    if let Some(rec) = &state.recorder {
                        rec.counter_add("link", "msgs_dropped", 1);
                    }
                    continue;
                };
                state.dispatch_net(
                    from,
                    &env,
                    data.len() as u64,
                    &mut node,
                    &mut out,
                    &transport,
                );
            }
            Input::Cmd(cmd) => {
                let cmd_start = state.metered.then(Instant::now);
                match cmd {
                    Command::CreateAtomic(pid, config) => node.create_atomic_channel(pid, config),
                    Command::CreateSecure(pid, config) => node.create_secure_channel(pid, config),
                    Command::CreateOptimistic(pid, config) => {
                        node.create_optimistic_channel(pid, config)
                    }
                    Command::CreateReliableChannel(pid) => node.create_reliable_channel(pid),
                    Command::CreateConsistentChannel(pid) => node.create_consistent_channel(pid),
                    Command::CreateReliableBroadcast(pid, sender) => {
                        node.create_reliable_broadcast(pid, sender)
                    }
                    Command::CreateConsistentBroadcast(pid, sender) => {
                        node.create_consistent_broadcast(pid, sender)
                    }
                    Command::CreateBinaryAgreement(pid, validator, bias) => {
                        node.create_binary_agreement(pid, validator, bias)
                    }
                    Command::CreateMultiValued(pid, validator, order) => {
                        node.create_multi_valued(pid, validator, order)
                    }
                    Command::Send(pid, data) => {
                        if state.metered {
                            state
                                .send_times
                                .entry(pid.as_str().to_string())
                                .or_default()
                                .push_back(Instant::now());
                        }
                        node.channel_send(&pid, data, &mut out)
                    }
                    Command::SendCiphertext(pid, ct) => {
                        node.channel_send_ciphertext(&pid, ct, &mut out)
                    }
                    Command::BroadcastSend(pid, payload) => {
                        node.broadcast_send(&pid, payload, &mut out)
                    }
                    Command::ProposeBinary(pid, value, proof) => {
                        node.propose_binary(&pid, value, proof, &mut out)
                    }
                    Command::ProposeMulti(pid, value) => node.propose_multi(&pid, value, &mut out),
                    Command::Close(pid) => node.channel_close(&pid, &mut out),
                    Command::DumpState(reason) => state.dump(&reason, &node, &transport),
                    Command::Shutdown => return,
                }
                if let (Some(rec), Some(start)) = (&state.recorder, cmd_start) {
                    rec.counter_add(
                        "server",
                        "cmd_dispatch_us",
                        start.elapsed().as_micros() as u64,
                    );
                }
            }
        }
        state.finish_step(&mut out, &mut node, &mut transport, &mut timers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    #[test]
    fn stashed_deliveries_come_back_in_order() {
        let (cmd_tx, _cmd_rx) = unbounded();
        let (event_tx, event_rx) = unbounded();
        let mut handle = ServerHandle::new(PartyId(0), cmd_tx, event_rx);
        let pid = ProtocolId::new("stash");
        let count = 2_000u64;
        for seq in 0..count {
            let payload = Payload {
                origin: PartyId(1),
                seq,
                kind: PayloadKind::App,
                data: Vec::new(),
            };
            event_tx
                .send(Event::ChannelDelivered {
                    pid: pid.clone(),
                    payload,
                })
                .unwrap();
        }
        // The first `try_receive` moves every pending delivery into the
        // stash; from then on both calls are served from it.
        for seq in 0..count - 3 {
            let got = if seq % 2 == 0 {
                handle.try_receive(&pid)
            } else {
                handle.receive(&pid)
            };
            assert_eq!(got.map(|p| p.seq), Some(seq));
        }
        // What is left when the channel closes comes back as a `Vec`.
        event_tx
            .send(Event::ChannelClosed { pid: pid.clone() })
            .unwrap();
        let rest: Vec<u64> = handle.close_wait(&pid).iter().map(|p| p.seq).collect();
        assert_eq!(rest, vec![count - 3, count - 2, count - 1]);
        assert!(handle.try_receive(&pid).is_none());
    }
}
