//! The per-party loop: one OS thread that steps a [`PartyCore`] and
//! services the party's sockets, fed by one command channel.
//!
//! Each step is [`PartyCore::step`], the same sans-IO step the simulator
//! runs. The loop adds what only a real party needs: wall-clock trace
//! stamps, the `net:send`/`net:recv` events, the flight recorder and
//! trace stream, stall detection, timers on the wall clock, and the
//! phase counters (`net_dispatch_us`, `timer_dispatch_us`,
//! `cmd_dispatch_us`, `flush_us`). Between steps it sweeps the party's
//! sockets through the TCP runtime's transport, which it alone owns:
//! accepts, backlogs, redials and reads. Sealed frames leave through the
//! same transport. The application talks to the
//! loop through a [`TcpHandle`](crate::tcp::TcpHandle), whose blocking
//! `send`/`receive`/`close`/`close_wait` API mirrors the Java `Channel`
//! interface of the paper (§3.4).

use std::collections::binary_heap::PeekMut;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};

use sintra_core::message::{Envelope, Payload, PayloadKind};
use sintra_core::node::Node;
use sintra_core::wire::Wire;
use sintra_core::{Event, GroupContext, Outgoing, PartyId, ProtocolId};
use sintra_crypto::dealer::PartyKeys;
use sintra_telemetry::{
    root_scope, FlightRecorder, Recorder, TraceEvent, TraceStream, DELIVERY_LATENCY,
};

use crate::observe::{write_dump, ObservabilityConfig, FLIGHT_RING_CAPACITY};
use crate::step::{self, targets, Effects, PartyCore};
use crate::tcp::TcpTransport;

/// An application action sent to a party's loop.
pub(crate) type Action = Box<dyn FnOnce(&mut Node, &mut Outgoing) + Send>;

/// One item on a party loop's command channel.
pub(crate) enum Command {
    /// An application action: create an instance, propose, close, ...
    Act(Action),
    /// An application payload for a channel. Its own variant because the
    /// loop notes when it was sent, for end-to-end delivery latency.
    Send(ProtocolId, Vec<u8>),
    /// Dump the server's live state under the given reason tag.
    DumpState(String),
    /// An authenticated connection from a handshake thread: the peer,
    /// the stream, and the peer's delivery watermark as the handshake
    /// read it.
    Conn {
        peer: PartyId,
        stream: TcpStream,
        peer_cum: u64,
    },
    /// Close every live connection of this party (fault injection).
    Sever,
    /// The crash hook: drop the core and stop stepping; the sockets stay
    /// serviced.
    Crash,
    /// Stop the loop: the group is shutting down.
    Stop,
}

/// The application's side of a server's event stream: deliveries,
/// decisions and closings, kept per instance until someone asks for
/// them.
///
/// Every wait reads the one stream, so a wait on one instance stashes
/// what arrives for the others; a later wait on those finds it here.
pub(crate) struct Outputs {
    events: Receiver<Event>,
    /// Claimable events pulled from the stream, per instance, in order.
    stash: HashMap<ProtocolId, VecDeque<Event>>,
    closed: HashSet<ProtocolId>,
}

impl Outputs {
    pub(crate) fn new(events: Receiver<Event>) -> Self {
        Outputs {
            events,
            stash: HashMap::new(),
            closed: HashSet::new(),
        }
    }

    /// Files one event under its instance. Ciphertext orderings are
    /// dropped: nobody waits on them.
    fn file(&mut self, event: Event) {
        let pid = match &event {
            Event::ChannelClosed { pid } => {
                self.closed.insert(pid.clone());
                return;
            }
            Event::ChannelDelivered { pid, .. }
            | Event::BroadcastDelivered { pid, .. }
            | Event::BinaryDecided { pid, .. }
            | Event::MultiDecided { pid, .. } => pid,
            _ => return,
        };
        match self.stash.get_mut(pid) {
            Some(queue) => queue.push_back(event),
            None => {
                let pid = pid.clone();
                self.stash.insert(pid, VecDeque::from([event]));
            }
        }
    }

    /// The first event of `pid` that `claim` accepts, stashed or next to
    /// arrive. `None` once the server is gone or the channel `pid` has
    /// closed with nothing left to claim, and — unless `block` — when
    /// nothing claimable has arrived yet.
    fn take(&mut self, pid: &ProtocolId, block: bool, claim: fn(&Event) -> bool) -> Option<Event> {
        loop {
            if let Some(queue) = self.stash.get_mut(pid) {
                if let Some(at) = queue.iter().position(claim) {
                    return queue.remove(at);
                }
            }
            if self.closed.contains(pid) {
                return None;
            }
            let event = if block {
                self.events.recv().ok()?
            } else {
                self.events.try_recv().ok()?
            };
            self.file(event);
        }
    }

    /// Files every event that has already arrived.
    fn drain(&mut self) {
        while let Ok(event) = self.events.try_recv() {
            self.file(event);
        }
    }

    fn delivery(&mut self, pid: &ProtocolId, block: bool) -> Option<Payload> {
        match self.take(pid, block, |e| matches!(e, Event::ChannelDelivered { .. }))? {
            Event::ChannelDelivered { payload, .. } => Some(payload),
            _ => None,
        }
    }

    /// Blocks until the next payload is delivered on `pid`; `None` once
    /// the channel closed or the server shut down.
    pub(crate) fn receive(&mut self, pid: &ProtocolId) -> Option<Payload> {
        self.delivery(pid, true)
    }

    /// The next payload delivered on `pid`, if one has arrived.
    pub(crate) fn try_receive(&mut self, pid: &ProtocolId) -> Option<Payload> {
        self.delivery(pid, false)
    }

    /// Whether a `receive` on `pid` would return a payload at once.
    pub(crate) fn can_receive(&mut self, pid: &ProtocolId) -> bool {
        self.drain();
        self.stash.get(pid).is_some_and(|queue| {
            queue
                .iter()
                .any(|e| matches!(e, Event::ChannelDelivered { .. }))
        })
    }

    /// Whether the channel has terminated.
    pub(crate) fn is_closed(&mut self, pid: &ProtocolId) -> bool {
        self.drain();
        self.closed.contains(pid)
    }

    /// Blocks until the channel closes (at most 30 s between events) and
    /// returns its undelivered payloads.
    pub(crate) fn close_wait(&mut self, pid: &ProtocolId) -> Vec<Payload> {
        while !self.closed.contains(pid) {
            match self.events.recv_timeout(Duration::from_secs(30)) {
                Ok(event) => self.file(event),
                Err(_) => break,
            }
        }
        self.stash
            .remove(pid)
            .into_iter()
            .flatten()
            .filter_map(|event| match event {
                Event::ChannelDelivered { payload, .. } => Some(payload),
                _ => None,
            })
            .collect()
    }

    /// Blocks until the broadcast `pid` delivers.
    pub(crate) fn receive_broadcast(&mut self, pid: &ProtocolId) -> Option<Vec<u8>> {
        match self.take(pid, true, |e| matches!(e, Event::BroadcastDelivered { .. }))? {
            Event::BroadcastDelivered { payload, .. } => Some(payload),
            _ => None,
        }
    }

    /// Blocks until the binary agreement `pid` decides.
    pub(crate) fn decide_binary(&mut self, pid: &ProtocolId) -> Option<(bool, Option<Vec<u8>>)> {
        match self.take(pid, true, |e| matches!(e, Event::BinaryDecided { .. }))? {
            Event::BinaryDecided { value, proof, .. } => Some((value, proof)),
            _ => None,
        }
    }

    /// Blocks until the multi-valued agreement `pid` decides.
    pub(crate) fn decide_multi(&mut self, pid: &ProtocolId) -> Option<Vec<u8>> {
        match self.take(pid, true, |e| matches!(e, Event::MultiDecided { .. }))? {
            Event::MultiDecided { value, .. } => Some(value),
            _ => None,
        }
    }
}

/// Pending timers: (deadline, pid, token), earliest first.
type Timers = std::collections::BinaryHeap<std::cmp::Reverse<(Instant, ProtocolId, u64)>>;

/// Longest the loop parks when a turn moved nothing: bounds both the
/// latency of a frame that arrives while it is parked and the idle cost,
/// one syscall per connection per park.
const PARK: Duration = Duration::from_micros(500);

/// The protocol half of a party's loop: the core, its timers, where
/// telemetry goes and the application's event stream. The crash hook
/// drops it; the socket half runs on.
pub(crate) struct Server {
    me: usize,
    parties: usize,
    core: PartyCore,
    timers: Timers,
    recorder: Option<Arc<dyn Recorder>>,
    observability: Option<ObservabilityConfig>,
    flight: Option<FlightRecorder>,
    /// Streaming trace sink. The loop flushes it whenever it parks;
    /// dropping the server — at a crash, or when the loop returns and so
    /// before the runtime can join the party's thread — flushes the tail.
    trace_stream: Option<TraceStream>,
    /// The group-wide time zero: every party of a group shares one
    /// anchor, so trace stamps from different parties are directly
    /// comparable (and causal arrows in exported traces point forward).
    run_start: Instant,
    /// Whether steps collect trace events at all.
    tracing: bool,
    /// Whether the loop's phase counters are recorded.
    metered: bool,
    event_tx: Sender<Event>,
    /// Per-channel FIFO of own send instants, matched against own
    /// deliveries for end-to-end latency.
    send_times: HashMap<String, VecDeque<Instant>>,
    /// Stall detection: quiet time is measured from the last *network or
    /// application* input. Timer expiries deliberately do not reset it —
    /// a channel re-arming its complaint timer while starved of messages
    /// is exactly the situation worth dumping.
    last_input: Instant,
    stall_dumped: bool,
}

impl Server {
    pub(crate) fn new(
        keys: Arc<PartyKeys>,
        recorder: Option<Arc<dyn Recorder>>,
        observability: Option<ObservabilityConfig>,
        run_start: Instant,
        trace_stream: Option<TraceStream>,
        event_tx: Sender<Event>,
    ) -> Self {
        let ctx = GroupContext::new(keys);
        let me = ctx.me().0;
        let parties = ctx.n();
        let mut core = PartyCore::new(Node::new(ctx, me as u64 ^ 0x7EAD_ED01));
        if let Some(rec) = &recorder {
            core.set_recorder(rec.clone());
            // Publish the stalled gauge at 0 up front so the series exists
            // in the first scrape, before any stall has happened.
            rec.gauge_set("server", "stalled", 0);
        }
        let metered = recorder.as_ref().is_some_and(|r| r.enabled());
        let tracing = metered || observability.is_some();
        core.set_tracing(tracing);
        Server {
            me,
            parties,
            core,
            timers: Timers::new(),
            tracing,
            metered,
            flight: observability
                .as_ref()
                .map(|_| FlightRecorder::new(FLIGHT_RING_CAPACITY)),
            recorder,
            observability,
            trace_stream,
            run_start,
            event_tx,
            send_times: HashMap::new(),
            last_input: Instant::now(),
            stall_dumped: false,
        }
    }

    /// Microseconds since the group spawned: the wall-clock trace stamp.
    fn now_us(&self) -> u64 {
        self.run_start.elapsed().as_micros() as u64
    }

    /// Hands one stamped trace event to the trace stream, the flight ring
    /// and the recorder.
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(stream) = &mut self.trace_stream {
            stream.record(&ev);
        }
        match &self.recorder {
            Some(rec) if rec.enabled() => {
                if let Some(flight) = &mut self.flight {
                    flight.record(ev.clone());
                }
                rec.trace(ev);
            }
            _ => {
                if let Some(flight) = &mut self.flight {
                    flight.record(ev);
                }
            }
        }
    }

    /// Stamps a step's trace events and puts its envelopes on the wire.
    ///
    /// Events the loop pre-stamped keep their stamp; the rest get the
    /// flush instant. When tracing, a synthetic `net`/`send` event records
    /// each envelope's `send_seq` (and inherits the cause of the step that
    /// produced it).
    fn flush(&mut self, effects: &mut Effects, transport: &mut TcpTransport) {
        let now_us = self.now_us();
        let flush_start = self.metered.then(Instant::now);
        for mut ev in effects.traces.drain(..) {
            if ev.time_us == 0 {
                ev.time_us = now_us;
            }
            self.emit(ev);
        }
        for (recipient, env) in effects.sends.drain(..) {
            let mut wire_total = 0u64;
            for to in targets(recipient, self.parties) {
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
                ev.cause = effects.cause;
                self.emit(ev);
            }
        }
        // Wall time spent sealing and queueing outbound frames — part of
        // the loop's phase breakdown in scrapes.
        if let (Some(rec), Some(start)) = (&self.recorder, flush_start) {
            rec.counter_add("server", "flush_us", start.elapsed().as_micros() as u64);
        }
    }

    /// Forwards a step's events to the application, recording end-to-end
    /// delivery latency for payloads this party sent itself (channels
    /// deliver each sender's payloads in order, so FIFO pairing of send
    /// instants against own deliveries is exact).
    fn forward_events(&mut self, events: Vec<Event>) {
        for event in events {
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

    /// The end of every step: arm the timers it asked for, put its
    /// messages on the wire, hand its events to the application.
    fn finish_step(&mut self, mut effects: Effects, transport: &mut TcpTransport) {
        for t in effects.timers.drain(..) {
            self.timers.push(std::cmp::Reverse((
                Instant::now() + Duration::from_millis(t.delay_ms),
                t.pid,
                t.token,
            )));
        }
        self.flush(&mut effects, transport);
        self.forward_events(effects.events);
    }

    /// Writes the server's live state (instance snapshots, link state,
    /// flight-recorder tail) under `reason`; nothing without observability.
    fn dump(&mut self, reason: &str, transport: &TcpTransport) {
        let Some(obs) = &self.observability else {
            return;
        };
        let (events, dropped) = self
            .flight
            .as_mut()
            .map(FlightRecorder::drain)
            .unwrap_or_default();
        write_dump(
            obs,
            self.me,
            reason,
            self.now_us(),
            obs.quiet.as_micros() as u64,
            &self.core.node().snapshot_instances(),
            &transport.link_snapshots(),
            &events,
            dropped,
        );
    }

    /// Runs one step; with observability on, a panic inside it (a
    /// protocol invariant violation) first writes an `invariant` dump and
    /// then resumes unwinding.
    fn step(&mut self, transport: &TcpTransport, input: step::Input<'_>) -> Effects {
        if self.observability.is_none() {
            return self.core.step(input);
        }
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.core.step(input))) {
            Ok(effects) => effects,
            Err(panic) => {
                self.dump("invariant", transport);
                std::panic::resume_unwind(panic);
            }
        }
    }

    /// Notes a network or application input at the start of its step: it
    /// ends a quiet period, and a declared stall with it. When metered,
    /// the `inbox_depth` gauge reads `depth`: the command channel's
    /// length plus the `ready` queue's as this step starts.
    fn input(&mut self, depth: impl FnOnce() -> usize) {
        self.last_input = Instant::now();
        if std::mem::take(&mut self.stall_dumped) {
            // Progress after a declared stall: flip the gauge back so
            // scrapes see the recovery, not just the incident.
            if let Some(rec) = &self.recorder {
                rec.gauge_set("server", "stalled", 0);
            }
        }
        if let (Some(rec), true) = (&self.recorder, self.metered) {
            rec.gauge_set("server", "inbox_depth", depth() as u64);
        }
    }

    /// Steps one envelope encoding from `from`, already authenticated and
    /// deduplicated by the link layer: recv trace, step, phase metering.
    fn envelope(&mut self, from: PartyId, data: &[u8], transport: &mut TcpTransport) {
        // What fails to decode carries no trustworthy protocol id, so it
        // is counted against the link.
        let Ok(env) = Envelope::from_bytes(data) else {
            if let Some(rec) = &self.recorder {
                rec.counter_add("link", "msgs_dropped", 1);
            }
            return;
        };
        if let Some(rec) = &self.recorder {
            rec.counter_add(root_scope(env.pid.as_str()), "msgs_delivered", 1);
        }
        if self.tracing {
            // Stamped at dispatch start: with the produced events stamped
            // at flush time, the recv/produced pair brackets this
            // dispatch's compute interval.
            let mut ev = TraceEvent::new(self.me, env.pid.as_str(), "net")
                .phase("recv")
                .round(env.send_seq)
                .bytes(data.len() as u64);
            ev.time_us = self.now_us();
            ev.cause = Some((from.0, env.send_seq));
            self.emit(ev);
        }
        let dispatch_start = self.metered.then(Instant::now);
        let effects = self.step(transport, step::Input::Envelope { from, env: &env });
        if let (Some(rec), Some(start)) = (&self.recorder, dispatch_start) {
            let us = start.elapsed().as_micros() as u64;
            rec.counter_add(root_scope(env.pid.as_str()), "dispatch_us", us);
            rec.counter_add("server", "net_dispatch_us", us);
        }
        self.finish_step(effects, transport);
    }

    /// Steps one client action or payload, or writes a requested dump,
    /// metered as command dispatch.
    fn command(&mut self, command: Command, transport: &mut TcpTransport) {
        let start = self.metered.then(Instant::now);
        let effects = match command {
            Command::Act(run) => Some(self.step(transport, step::Input::Act(run))),
            Command::Send(pid, data) => {
                if self.metered {
                    self.send_times
                        .entry(pid.as_str().to_string())
                        .or_default()
                        .push_back(Instant::now());
                }
                let run = Box::new(move |node: &mut Node, out: &mut Outgoing| {
                    node.channel_send(&pid, data, out)
                });
                Some(self.step(transport, step::Input::Act(run)))
            }
            Command::DumpState(reason) => {
                self.dump(&reason, transport);
                None
            }
            // The loop itself handles these.
            Command::Conn { .. } | Command::Sever | Command::Crash | Command::Stop => None,
        };
        if let (Some(rec), Some(start)) = (&self.recorder, start) {
            let us = start.elapsed().as_micros() as u64;
            rec.counter_add("server", "cmd_dispatch_us", us);
        }
        if let Some(effects) = effects {
            self.finish_step(effects, transport);
        }
    }

    /// Steps every due timer; returns whether one fired.
    fn fire_timers(&mut self, transport: &mut TcpTransport) -> bool {
        let now = Instant::now();
        let mut fired = false;
        while let Some(std::cmp::Reverse((_, pid, token))) = self
            .timers
            .peek_mut()
            .filter(|next| next.0 .0 <= now)
            .map(PeekMut::pop)
        {
            let dispatch_start = self.metered.then(Instant::now);
            let effects = self.step(transport, step::Input::Timer { pid: &pid, token });
            if let (Some(rec), Some(start)) = (&self.recorder, dispatch_start) {
                let us = start.elapsed().as_micros() as u64;
                rec.counter_add(root_scope(pid.as_str()), "dispatch_us", us);
                rec.counter_add("server", "timer_dispatch_us", us);
            }
            self.finish_step(effects, transport);
            fired = true;
        }
        fired
    }

    /// How long the loop may park, at most `limit`: never past the next
    /// timer deadline, nor past the stall-check cadence when the detector
    /// is armed.
    fn park(&self, limit: Duration) -> Duration {
        let mut wait = limit;
        if let Some(std::cmp::Reverse((deadline, _, _))) = self.timers.peek() {
            wait = wait.min(deadline.saturating_duration_since(Instant::now()));
        }
        if let Some(obs) = &self.observability {
            wait = wait.min(obs.effective_check_interval());
        }
        wait
    }

    /// Before a park: puts the trace stream's buffered lines on disk.
    fn flush_trace(&mut self) {
        if let Some(stream) = &mut self.trace_stream {
            stream.flush();
        }
    }

    /// After a park that brought nothing: a party quiet for longer than
    /// the detector allows while it has work pending writes one `stall`
    /// dump, until the next input.
    fn check_stall(&mut self, transport: &TcpTransport) {
        let Some(obs) = &self.observability else {
            return;
        };
        if !self.stall_dumped
            && self.last_input.elapsed() >= obs.quiet
            && self.core.node().has_pending_work()
        {
            self.dump("stall", transport);
            self.stall_dumped = true;
            if let Some(rec) = &self.recorder {
                rec.gauge_set("server", "stalled", 1);
            }
        }
    }
}

/// Runs one party until group shutdown, on its own thread, and returns
/// the short-lived threads (handshakes, scrapes) still to be joined. Each
/// turn drains the command channel, fires due timers, sweeps the sockets
/// (accept, links, reads, scrapes), and steps every envelope the sweep
/// delivered and every one the party sent itself, in arrival order. A
/// turn that moved something ends by publishing the retransmission-queue
/// gauges; one that moved nothing flushes the trace stream and parks on
/// the command channel.
pub(crate) fn party_loop(
    mut transport: TcpTransport,
    cmds: Receiver<Command>,
    server: Server,
) -> Vec<JoinHandle<()>> {
    let mut server = Some(server);
    // A command the park brought, handled first in the next turn.
    let mut parked = None;
    // When the last sweep that moved something started. A park ends
    // `PARK` after it, not after the steps that sweep led to: the sockets
    // are read as often as if a thread of their own swept them.
    let mut moved_at = Instant::now();
    loop {
        let mut progressed = false;
        while let Some(command) = parked.take().or_else(|| cmds.try_recv().ok()) {
            progressed = true;
            match command {
                Command::Conn {
                    peer,
                    stream,
                    peer_cum,
                } => transport.install(peer, stream, peer_cum),
                Command::Sever => transport.sever(),
                // Dropping the server drops the event sender too, so the
                // application's waits on this party end.
                Command::Crash => server = None,
                Command::Stop => return transport.into_threads(),
                command => {
                    if let Some(server) = &mut server {
                        server.input(|| cmds.len() + transport.ready.len());
                        server.command(command, &mut transport);
                    }
                }
            }
        }
        if let Some(server) = &mut server {
            progressed |= server.fire_timers(&mut transport);
        }
        let sweep_start = Instant::now();
        if transport.sweep() {
            progressed = true;
            moved_at = sweep_start;
        }
        while let Some((from, data)) = transport.ready.pop_front() {
            progressed = true;
            if let Some(server) = &mut server {
                server.input(|| cmds.len() + transport.ready.len());
                server.envelope(from, &data, &mut transport);
            }
        }
        if progressed {
            transport.record_queue_gauges();
        } else {
            let due = PARK.saturating_sub(moved_at.elapsed());
            let limit = if due.is_zero() { PARK } else { due };
            let wait = server.as_mut().map_or(limit, |server| {
                server.flush_trace();
                server.park(limit)
            });
            match (cmds.recv_timeout(wait), &mut server) {
                (Ok(command), _) => parked = Some(command),
                (Err(_), Some(server)) => server.check_stall(&transport),
                (Err(_), None) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    #[test]
    fn stashed_deliveries_come_back_in_order() {
        let (event_tx, event_rx) = unbounded();
        let mut outputs = Outputs::new(event_rx);
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
        // The first `try_receive` moves the first pending delivery into
        // the stash; both calls are served in arrival order.
        for seq in 0..count - 3 {
            let got = if seq % 2 == 0 {
                outputs.try_receive(&pid)
            } else {
                outputs.receive(&pid)
            };
            assert_eq!(got.map(|p| p.seq), Some(seq));
        }
        // What is left when the channel closes comes back as a `Vec`.
        event_tx
            .send(Event::ChannelClosed { pid: pid.clone() })
            .unwrap();
        let rest: Vec<u64> = outputs.close_wait(&pid).iter().map(|p| p.seq).collect();
        assert_eq!(rest, vec![count - 3, count - 2, count - 1]);
        assert!(outputs.try_receive(&pid).is_none());
        assert!(outputs.receive(&pid).is_none(), "closed: no wait");
        assert!(outputs.is_closed(&pid));
    }

    /// A wait on one instance keeps what arrives for the others: waiting
    /// for the results in the reverse of their arrival order gets all of
    /// them, after the server is gone.
    #[test]
    fn results_of_other_instances_wait_for_their_turn() {
        let (event_tx, event_rx) = unbounded();
        let mut outputs = Outputs::new(event_rx);
        let [a, b, m, r] = ["ba-a", "ba-b", "vba-m", "rb-r"].map(ProtocolId::new);
        for event in [
            Event::BinaryDecided {
                pid: a.clone(),
                value: true,
                proof: None,
            },
            Event::BinaryDecided {
                pid: b.clone(),
                value: false,
                proof: Some(vec![7]),
            },
            Event::MultiDecided {
                pid: m.clone(),
                value: b"m".to_vec(),
            },
            Event::BroadcastDelivered {
                pid: r.clone(),
                payload: b"r".to_vec(),
            },
        ] {
            event_tx.send(event).unwrap();
        }
        drop(event_tx);
        assert_eq!(outputs.receive_broadcast(&r), Some(b"r".to_vec()));
        assert_eq!(outputs.decide_multi(&m), Some(b"m".to_vec()));
        assert_eq!(outputs.decide_binary(&b), Some((false, Some(vec![7]))));
        assert_eq!(outputs.decide_binary(&a), Some((true, None)));
        assert_eq!(outputs.decide_binary(&a), None, "each result once");
    }
}
