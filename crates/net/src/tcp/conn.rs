//! Per-peer TCP connection management: dialing, accepting, handshakes,
//! the readiness-driven read sweep, the nonblocking write path, and
//! redialing with jittered exponential backoff.
//!
//! Topology per party: one thread runs the party's loop
//! ([`party_loop`](crate::server::party_loop)), and [`TcpTransport`] is
//! its socket half, owned by that loop alone. Each sweep takes every
//! pending connection from the party's nonblocking listener — only
//! *lower-id* peers dial it (the deterministic dial rule: the lower id
//! dials, so exactly one connection exists per pair) — watches every
//! link, and reads every live connection through one reused scratch
//! buffer, reassembling frames in place ([`FrameBuffer::next_frame_ref`])
//! — no thread per connection and no per-frame allocation. A sweep that
//! finds a higher-id peer with no connection starts a dial, at once or
//! after a backoff ([`Redial`]). With the metrics plane on, the sweep
//! also accepts from the party's scrape listener and answers each
//! scrape on a short-lived thread ([`ScrapeListener`]).
//!
//! Every handshake, dialed or accepted, runs on a short-lived thread of
//! its own. The thread gets by value what it needs — the socket or the
//! address, the pairwise keys and the delivery watermarks as they were
//! when it started — and touches no link state: it hands the
//! authenticated stream and the peer's watermark back to the loop as a
//! [`Command::Conn`], and the loop installs it ([`TcpTransport::install`]).
//!
//! There is no writer thread. The loop writes every frame: its data
//! frames, its acks and the replay of a connection it installs. A write
//! never blocks — what the kernel does not take waits in the connection's
//! backlog, which the next write and every sweep push on. All link state
//! — sequence numbers, the retransmission queue, delivery watermarks —
//! lives in each peer's [`ReliableLink`]; a peer holds at most one
//! connection, a disposable carrier that resumes the link via the
//! [`handshake`] and a replay of unacknowledged frames.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;

use sintra_core::message::Envelope;
use sintra_core::wire::Wire;
use sintra_core::PartyId;
use sintra_telemetry::Recorder;

use crate::link::handshake::{self, fresh_nonce};
use crate::link::{
    frame_sender, FrameBuffer, FrameKind, LinkError, LinkEvent, LinkKey, ReliableLink,
};
use crate::metrics::ScrapeListener;
use crate::server::Command;
use sintra_core::invariant::OrInvariant;

/// Scope under which all link-layer telemetry counters are recorded.
pub const LINK_SCOPE: &str = "link";

/// Read timeout while a connection handshakes; a peer that stalls
/// mid-handshake is dropped after this long.
const HANDSHAKE_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// First redial delay after a dial that did not install a connection.
const REDIAL_INITIAL_MS: u64 = 20;
/// Redial delay ceiling.
const REDIAL_MAX_MS: u64 = 2000;
/// Random extra delay, as a percentage of the current one, so that a
/// partitioned group does not redial in lockstep.
const REDIAL_JITTER_PCT: u64 = 50;

/// Bound on concurrently running inbound threads, handshakes and
/// scrapes together; connections past the bound are dropped at accept.
/// Each thread lives at most a few read-timeouts, so the cap is only
/// reached under a connect flood. Dials do not count against it: there
/// is at most one per peer, and a flood of this party's listeners must
/// not hold back its own redials.
const MAX_INBOUND: usize = 64;

/// One authenticated connection: its socket, the reassembly state of
/// what it has read, and the bytes the kernel has not taken yet. Every
/// backlogged byte belongs to a frame that is also in the retransmission
/// queue (or is an ack), so
/// [`LinkConfig::max_unacked_bytes`](crate::link::LinkConfig::max_unacked_bytes)
/// bounds the backlog too.
struct Conn {
    stream: TcpStream,
    fb: FrameBuffer,
    backlog: VecDeque<u8>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            fb: FrameBuffer::new(),
            backlog: VecDeque::new(),
        }
    }

    /// Writes what the kernel takes of the backlog, then of `bytes`, and
    /// keeps the rest, in order.
    fn push(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.flush()?;
        let taken = if self.backlog.is_empty() {
            write_nb(&mut self.stream, bytes)?
        } else {
            0
        };
        self.backlog.extend(&bytes[taken..]);
        Ok(())
    }

    /// Writes what the kernel takes of the backlog; returns the number of
    /// bytes written.
    fn flush(&mut self) -> std::io::Result<usize> {
        let mut total = 0;
        while !self.backlog.is_empty() {
            let head = self.backlog.as_slices().0;
            let (len, n) = (head.len(), write_nb(&mut self.stream, head)?);
            self.backlog.drain(..n);
            total += n;
            if n < len {
                break;
            }
        }
        Ok(total)
    }
}

/// Writes as much of `bytes` as the nonblocking socket takes right now
/// and returns how much that was.
fn write_nb(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<usize> {
    let mut done = 0;
    while done < bytes.len() {
        match stream.write(&bytes[done..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(done)
}

/// The party's link to one peer: the reliable link, the connection that
/// carries it now, if any, and — for a peer this party dials — the
/// redial schedule and the dial in flight.
struct Peer {
    link: ReliableLink,
    conn: Option<Conn>,
    /// The peer's listener, for a peer this party dials (a higher id);
    /// `None` for one that dials this party.
    addr: Option<SocketAddr>,
    redial: Redial,
    /// The last dial's handshake thread; a dial is in flight until it
    /// finishes.
    dial: Option<JoinHandle<()>>,
    /// Connections installed so far.
    sessions: u64,
}

impl Peer {
    fn new(link: ReliableLink, addr: Option<SocketAddr>) -> Self {
        Peer {
            link,
            conn: None,
            addr,
            redial: Redial::new(),
            dial: None,
            sessions: 0,
        }
    }

    /// Writes `frame` to the current connection without blocking; what
    /// the kernel does not take waits in the backlog. Returns `false`
    /// when there is no connection or the write failed — the connection
    /// is then dropped, and a data frame is recovered from the
    /// retransmission queue at the next resume.
    fn write(&mut self, frame: &[u8]) -> bool {
        self.with_conn(|c| c.push(frame)).is_some()
    }

    /// Pushes the backlog on; returns whether any byte left it, or
    /// `None` when the peer has no connection (any more).
    fn flush(&mut self) -> Option<bool> {
        self.with_conn(Conn::flush).map(|n| n > 0)
    }

    /// With no connection up: starts a dial when this party dials the
    /// peer, no dial is in flight and the [`Redial`] schedule says so. A
    /// dial whose connection still waits on the command channel reads as
    /// failed for one turn: that only pushes the next dial out, and the
    /// install resets the schedule.
    fn dial_if_due(&mut self, me: PartyId, counters: &Counters, cmds: &Sender<Command>) {
        let Some(addr) = self.addr else { return };
        let dialing = self.dial.as_ref().is_some_and(|d| !d.is_finished());
        if self.redial.due(Instant::now(), dialing) {
            let (key, recv_cum) = (self.link.key().clone(), self.link.recv_cum());
            let handshake = move |_: &Counters| dial(addr, &key, recv_cum);
            self.dial = Some(spawn_handshake(me, counters, cmds, handshake));
        }
    }

    fn with_conn<R>(&mut self, io: impl FnOnce(&mut Conn) -> std::io::Result<R>) -> Option<R> {
        let result = io(self.conn.as_mut()?);
        if result.is_err() {
            self.conn = None;
        }
        result.ok()
    }
}

/// Where the link counters go: the party's recorder, if any. Handshake
/// threads take a clone.
#[derive(Clone)]
struct Counters(Option<Arc<dyn Recorder>>);

impl Counters {
    fn add(&self, name: &'static str, delta: u64) {
        if let Some(rec) = &self.0 {
            rec.counter_add(LINK_SCOPE, name, delta);
        }
    }

    /// Counts one frame put on the wire under `counter`.
    fn sent(&self, frame: &[u8], counter: &'static str) {
        self.add("bytes_sent", frame.len() as u64);
        self.add(counter, 1);
    }
}

/// Authenticated envelope encodings waiting to be stepped, with their
/// origin, in arrival order.
pub(crate) type Ready = VecDeque<(PartyId, Vec<u8>)>;

/// The socket half of a party's loop, owned by the loop alone: the
/// nonblocking listener, every peer's link and connection, one reused
/// 64 KiB scratch buffer that every read goes through, and the `ready`
/// queue the loop steps from.
///
/// Sealing never blocks on the network: a frame either enters the
/// bounded retransmission queue — and goes to the nonblocking socket at
/// once, into the connection's backlog if the kernel does not take it,
/// or is replayed at the next resume if there is no connection — or is
/// shed when that queue hits its bound. A peer that stops acknowledging
/// may be faulty — whose links are allowed to be lossy — but may also be
/// a correct peer behind a long partition; shedding to the latter breaks
/// the reliable-link guarantee until protocol-level recovery, which is
/// why the byte-based bound
/// ([`LinkConfig::max_unacked_bytes`](crate::link::LinkConfig::max_unacked_bytes))
/// defaults large enough to buffer minutes of outage and every shed is
/// surfaced via the `backpressure_drops` counter rather than dropped
/// silently. Blocking the loop instead is not an option: one Byzantine
/// peer could then stall this party's progress with every correct peer.
pub(crate) struct TcpTransport {
    me: PartyId,
    listener: TcpListener,
    /// `peers[j]` is `None` at `j == me`.
    peers: Vec<Option<Peer>>,
    buf: Vec<u8>,
    /// Envelope encodings the loop steps next, in arrival order: what the
    /// sweep delivered and what this party sent itself.
    pub(crate) ready: Ready,
    counters: Counters,
    /// The party's scrape endpoint, when the metrics plane is on; the
    /// loop then also publishes the retransmission-queue gauges.
    scrape: Option<ScrapeListener>,
    /// The loop's command channel, on which handshake threads hand back
    /// the connections they authenticate.
    cmds: Sender<Command>,
    /// Inbound handshake and scrape threads, reaped as they finish and
    /// capped at [`MAX_INBOUND`].
    inbound: Vec<JoinHandle<()>>,
}

impl TcpTransport {
    /// Takes over the party's listener, switched to nonblocking mode,
    /// and its scrape endpoint, if any, with one link per peer (`None` at
    /// `me`). Only higher-id peers get an address: the lower id dials.
    pub(crate) fn new(
        me: PartyId,
        listener: TcpListener,
        links: Vec<Option<ReliableLink>>,
        addrs: &[SocketAddr],
        recorder: Option<Arc<dyn Recorder>>,
        scrape: Option<ScrapeListener>,
        cmds: Sender<Command>,
    ) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        let peers = links
            .into_iter()
            .zip(addrs)
            .enumerate()
            .map(|(j, (link, &addr))| Some(Peer::new(link?, (me.0 < j).then_some(addr))))
            .collect();
        Ok(TcpTransport {
            me,
            listener,
            peers,
            buf: vec![0u8; 64 * 1024],
            ready: Ready::new(),
            counters: Counters(recorder),
            scrape,
            cmds,
            inbound: Vec::new(),
        })
    }

    /// Seals `env` for `to` and writes or queues it. Returns the bytes
    /// put on, or queued for, the wire; 0 when the frame was shed.
    /// Self-addressed envelopes go straight onto `ready`.
    pub(crate) fn transmit(&mut self, to: PartyId, env: &Envelope) -> u64 {
        let bytes = env.to_bytes();
        if to == self.me {
            let len = bytes.len() as u64;
            self.ready.push_back((to, bytes));
            return len;
        }
        let Some(peer) = self.peers.get_mut(to.0).and_then(Option::as_mut) else {
            return 0;
        };
        match peer.link.seal_data(&bytes) {
            Ok(frame) => {
                if peer.write(&frame) {
                    self.counters.sent(&frame, "frames_sent");
                }
                frame.len() as u64
            }
            Err(LinkError::Oversized) => {
                // An envelope no receiver could accept; sealing it would
                // poison the peer's stream on every replay.
                self.counters.add("oversized_drops", 1);
                0
            }
            Err(_) => {
                self.counters.add("backpressure_drops", 1);
                0
            }
        }
    }

    /// Every peer link's state (sequence cursors, retransmission
    /// backlog), for a debug dump.
    pub(crate) fn link_snapshots(&self) -> Vec<String> {
        self.peers
            .iter()
            .flatten()
            .map(|peer| peer.link.snapshot_json())
            .collect()
    }

    /// Installs a handshaken socket as `from`'s connection: drops (and so
    /// closes) the one it replaces, switches the socket to nonblocking
    /// mode and writes the replay of every unacknowledged frame above the
    /// peer's watermark `peer_cum`.
    ///
    /// `peer_cum` was read when the peer's handshake started, so it may
    /// be lower than the peer's live watermark: that replays frames the
    /// peer's link drops as duplicates, and never skips one.
    pub(crate) fn install(&mut self, from: PartyId, stream: TcpStream, peer_cum: u64) {
        let Some(peer) = self.peers.get_mut(from.0).and_then(Option::as_mut) else {
            return;
        };
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let conn = peer.conn.insert(Conn::new(stream));
        for frame in peer.link.replay_from(peer_cum) {
            if conn.push(&frame).is_err() {
                // The fresh socket already died; the next sweep drops it.
                break;
            }
            self.counters.add("retransmits", 1);
            self.counters.sent(&frame, "frames_sent");
        }
        peer.sessions += 1;
        if peer.sessions > 1 {
            self.counters.add("reconnects", 1);
        }
        self.counters.add("connects", 1);
    }

    /// Closes every live connection (fault injection: the links must
    /// recover by reconnecting).
    pub(crate) fn sever(&mut self) {
        for peer in self.peers.iter_mut().flatten() {
            peer.conn = None;
        }
    }

    /// One sweep: hands every pending connection to a handshake thread
    /// and every pending scrape to a scrape thread; then for every peer
    /// pushes its write backlog on or, for a peer this party dials that
    /// has no connection, starts a dial when its [`Redial`] schedule says
    /// so, and reads one chunk from its connection, running the frames
    /// through the peer's reliable link and queueing each delivery on
    /// `ready`. Returns whether anything moved.
    pub(crate) fn sweep(&mut self) -> bool {
        let mut progressed = false;
        // Nothing pending ends the accepts, and so does an error such as
        // running out of descriptors: the next sweep tries again.
        while let Ok((stream, _)) = self.listener.accept() {
            progressed = true;
            self.accept(stream);
        }
        while let Some(serve) = self.scrape.as_ref().and_then(ScrapeListener::accept) {
            progressed = true;
            if self.inbound_full() {
                self.counters.add("scrape_rejects", 1);
                continue;
            }
            self.inbound.push(spawn_inbound(self.me, serve));
        }
        for peer in self.peers.iter_mut().flatten() {
            let Some(moved) = peer.flush() else {
                peer.dial_if_due(self.me, &self.counters, &self.cmds);
                continue;
            };
            progressed |= moved;
            peer.redial.up();
            match pump(peer, &mut self.buf, &mut self.ready, &self.counters) {
                Pump::Idle => {}
                Pump::Progress => progressed = true,
                Pump::Broken => peer.conn = None,
            }
        }
        progressed
    }

    /// Reaps the finished inbound threads; returns whether
    /// [`MAX_INBOUND`] are still running.
    fn inbound_full(&mut self) -> bool {
        self.inbound.retain(|h| !h.is_finished());
        self.inbound.len() >= MAX_INBOUND
    }

    /// Hands an accepted socket to a handshake thread, with the key and
    /// watermark of every lower-id peer, the ones that dial this party;
    /// drops it when [`MAX_INBOUND`] threads are still running.
    fn accept(&mut self, stream: TcpStream) {
        if self.inbound_full() {
            self.counters.add("handshake_rejects", 1);
            return;
        }
        let dialers: Vec<(LinkKey, u64)> = self.peers[..self.me.0]
            .iter()
            .flatten()
            .map(|peer| (peer.link.key().clone(), peer.link.recv_cum()))
            .collect();
        let me = self.me;
        self.inbound.push(spawn_handshake(
            me,
            &self.counters,
            &self.cmds,
            move |counters| respond(me, stream, &dialers, counters),
        ));
    }

    /// With the metrics plane on, sets the retransmission-queue gauges:
    /// bytes and frames awaiting acknowledgement over every peer, and the
    /// largest byte count any one link has held.
    pub(crate) fn record_queue_gauges(&self) {
        let (Some(_), Some(rec)) = (&self.scrape, &self.counters.0) else {
            return;
        };
        let (mut bytes, mut frames, mut hwm) = (0u64, 0u64, 0u64);
        for peer in self.peers.iter().flatten() {
            bytes += peer.link.unacked_bytes() as u64;
            frames += peer.link.unacked_len() as u64;
            hwm = hwm.max(peer.link.stats().unacked_bytes_hwm);
        }
        rec.gauge_set(LINK_SCOPE, "retransmit_queue_bytes", bytes);
        rec.gauge_set(LINK_SCOPE, "retransmit_queue_frames", frames);
        rec.gauge_set(LINK_SCOPE, "retransmit_queue_bytes_hwm", hwm);
    }

    /// Closes the listeners and every connection, and hands back the
    /// inbound threads and dials still to be joined.
    pub(crate) fn into_threads(self) -> Vec<JoinHandle<()>> {
        let dials = self
            .peers
            .into_iter()
            .flatten()
            .filter_map(|peer| peer.dial);
        self.inbound.into_iter().chain(dials).collect()
    }
}

/// What one readiness sweep of a single connection produced.
enum Pump {
    /// Nothing readable right now.
    Idle,
    /// At least one chunk of bytes was consumed.
    Progress,
    /// The connection died (EOF, I/O error, unframeable or
    /// unauthenticated stream); drop it.
    Broken,
}

/// Reads one chunk from the peer's connection (if ready) and runs every
/// complete frame through its reliable link.
fn pump(peer: &mut Peer, buf: &mut [u8], ready: &mut Ready, counters: &Counters) -> Pump {
    let Peer { link, conn, .. } = peer;
    let Some(conn) = conn else { return Pump::Idle };
    let n = match conn.stream.read(buf) {
        Ok(0) => return Pump::Broken,
        Ok(n) => n,
        Err(ref e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::Interrupted =>
        {
            return Pump::Idle
        }
        Err(_) => return Pump::Broken,
    };
    counters.add("bytes_received", n as u64);
    conn.fb.extend(&buf[..n]);
    let mut delivered = false;
    loop {
        let frame = match conn.fb.next_frame_ref() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(_) => {
                // Unframeable stream: drop the carrier, the link state
                // survives and replay recovers.
                counters.add("stream_errors", 1);
                return Pump::Broken;
            }
        };
        match link.on_frame(frame) {
            Ok(LinkEvent::Deliver(payload)) => {
                ready.push_back((link.key().peer(), payload));
                delivered = true;
                counters.add("frames_delivered", 1);
            }
            Ok(LinkEvent::Duplicate) => counters.add("dup_frames", 1),
            Ok(LinkEvent::Acked) => {}
            // Handshake frames are consumed before the connection is
            // installed; mid-stream ones are stray replays.
            Ok(LinkEvent::Handshake(_)) => counters.add("stray_handshake_frames", 1),
            Err(_) => {
                // A frame that fails authentication inside an
                // established TCP stream means corruption or an attack;
                // the carrier is untrustworthy.
                counters.add("auth_failures", 1);
                return Pump::Broken;
            }
        }
    }
    // A cumulative ack only every `ack_every` deliveries, or sooner for
    // large frames: it prunes the peer's retransmission queue, and a
    // resume handshake carries the watermark anyway.
    let ack = if delivered && link.ack_overdue() {
        link.make_ack()
    } else {
        None
    };
    if let Some(ack) = ack {
        if peer.write(&ack) {
            counters.sent(&ack, "acks_sent");
        }
    }
    Pump::Progress
}

/// The sweep's redial schedule for one peer it dials: the first
/// dial, and the first after a lost connection, start at once; after a
/// dial that did not leave a connection up the next waits 20 ms, doubled
/// per failure up to 2 s, each plus up to 50 % jitter. At most one dial
/// is in flight.
struct Redial {
    /// Base delay after the next failure, in milliseconds.
    delay_ms: u64,
    /// A dial started and no connection has been seen since.
    attempted: bool,
    /// Earliest start of the next dial.
    not_before: Option<Instant>,
    jitter: Xorshift,
}

impl Redial {
    fn new() -> Self {
        Redial {
            delay_ms: REDIAL_INITIAL_MS,
            attempted: false,
            not_before: None,
            jitter: Xorshift::new(),
        }
    }

    /// A connection is up: the next loss redials at once, from 20 ms.
    fn up(&mut self) {
        self.delay_ms = REDIAL_INITIAL_MS;
        self.attempted = false;
        self.not_before = None;
    }

    /// With no connection up: whether to start a dial at `now`, given
    /// whether one is still in flight. A dial that is over without a
    /// connection seen since it started has failed, and pushes the next
    /// one out.
    fn due(&mut self, now: Instant, dialing: bool) -> bool {
        if dialing {
            return false;
        }
        if self.attempted {
            self.attempted = false;
            let jitter = self.jitter.next() % (self.delay_ms * REDIAL_JITTER_PCT / 100 + 1);
            self.not_before = Some(now + Duration::from_millis(self.delay_ms + jitter));
            self.delay_ms = (self.delay_ms * 2).min(REDIAL_MAX_MS);
        }
        if self.not_before.is_some_and(|at| now < at) {
            return false;
        }
        self.attempted = true;
        true
    }
}

/// An authenticated stream, the peer at its far end and that peer's
/// delivery watermark.
type Handshaken = (PartyId, TcpStream, u64);

/// Runs one handshake on a short-lived thread of its own, so neither a
/// client that connects and then stalls nor a slow peer can block the
/// party's loop (each handshake read is bounded by
/// [`HANDSHAKE_READ_TIMEOUT`], but serial stalls would still starve the
/// loop). A handshake that succeeds hands its connection to the loop as
/// a [`Command::Conn`]; once the loop has stopped, that send fails and
/// the connection closes.
fn spawn_handshake(
    me: PartyId,
    counters: &Counters,
    cmds: &Sender<Command>,
    handshake: impl FnOnce(&Counters) -> Option<Handshaken> + Send + 'static,
) -> JoinHandle<()> {
    let (counters, cmds) = (counters.clone(), cmds.clone());
    spawn_inbound(me, move || {
        if let Some((peer, stream, peer_cum)) = handshake(&counters) {
            let _ = cmds.send(Command::Conn {
                peer,
                stream,
                peer_cum,
            });
        }
    })
}

/// Runs `work` — a handshake or a scrape — on a short-lived thread,
/// named `sintra-hs-<party>` either way.
fn spawn_inbound(me: PartyId, work: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("sintra-hs-{}", me.0))
        .spawn(work)
        .or_invariant("spawn inbound thread")
}

/// Dials a higher-id peer and authenticates the connection. A failure
/// returns `None`: the sweep finds the peer still without a connection
/// and redials after its backoff.
fn dial(addr: SocketAddr, key: &LinkKey, recv_cum: u64) -> Option<Handshaken> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1)).ok()?;
    stream.set_read_timeout(Some(HANDSHAKE_READ_TIMEOUT)).ok()?;
    stream.set_nodelay(true).ok()?;
    let peer_cum = handshake::initiate(&mut stream, key, recv_cum).ok()?;
    stream.set_read_timeout(None).ok()?;
    Some((key.peer(), stream, peer_cum))
}

/// Authenticates one inbound connection from one of `dialers`, the key
/// and watermark of each lower-id peer, by id. Every read is bounded by
/// [`HANDSHAKE_READ_TIMEOUT`], so the thread cannot outlive a stalled
/// client by more than the timeout.
fn respond(
    me: PartyId,
    mut stream: TcpStream,
    dialers: &[(LinkKey, u64)],
    counters: &Counters,
) -> Option<Handshaken> {
    // Some platforms hand out accepted sockets nonblocking, like the
    // listener; the read timeout needs a blocking one.
    stream.set_nonblocking(false).ok()?;
    stream.set_read_timeout(Some(HANDSHAKE_READ_TIMEOUT)).ok()?;
    stream.set_nodelay(true).ok()?;
    let failed = |name| {
        counters.add(name, 1);
        None
    };
    let Ok(hello) = handshake::read_frame(&mut stream) else {
        return failed("handshake_failures");
    };
    // Peek the claimed sender to select the pairwise key; only lower-id
    // peers dial us.
    let Some((key, recv_cum)) = frame_sender(&hello)
        .filter(|p| p.0 < me.0)
        .and_then(|p| dialers.get(p.0))
    else {
        return failed("handshake_failures");
    };
    let Ok(FrameKind::Hello { nonce }) = key.open(&hello) else {
        return failed("auth_failures");
    };
    let Ok(peer_cum) = handshake::respond(&mut stream, key, nonce, *recv_cum) else {
        return failed("handshake_failures");
    };
    stream.set_read_timeout(None).ok()?;
    Some((key.peer(), stream, peer_cum))
}

/// A tiny xorshift64* PRNG for redial jitter (freshness, not crypto).
struct Xorshift(u64);

impl Xorshift {
    fn new() -> Self {
        let nonce = fresh_nonce();
        let seed = u64::from_be_bytes(
            nonce[..8]
                .try_into()
                .or_invariant("nonce shorter than 8 bytes"),
        );
        Xorshift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use sintra_crypto::hmac::HmacKey;

    fn link(local: usize, peer: usize) -> ReliableLink {
        let key = LinkKey::new(
            HmacKey::new(b"pair 0-1".to_vec()),
            PartyId(local),
            PartyId(peer),
        );
        ReliableLink::new(key, LinkConfig::default())
    }

    /// A connected loopback pair: (near, far).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (far, _) = listener.accept().unwrap();
        (near, far)
    }

    fn backlog_len(peer: &Peer) -> usize {
        peer.conn
            .as_ref()
            .expect("connection still installed")
            .backlog
            .len()
    }

    /// A far end that stops reading fills the kernel's buffers; the
    /// writer must keep returning at once, hold the rest in the backlog,
    /// and hand over every byte in order once the far end reads again.
    /// At least 8 MiB go out, and more until the backlog fills, in case
    /// the host's socket buffers are larger than that.
    #[test]
    fn a_peer_that_stops_reading_never_blocks_the_writer() {
        const FRAME: usize = 16 * 1024;
        const MIN_FRAMES: usize = 512; // 8 MiB
        const MAX_FRAMES: usize = 8 * MIN_FRAMES;
        let frame = |i: usize| {
            let mut frame = vec![(i % 251) as u8; FRAME];
            frame[..4].copy_from_slice(&(i as u32).to_be_bytes());
            frame
        };
        let (near, mut far) = pair();
        near.set_nonblocking(true).unwrap();
        let mut peer = Peer::new(link(0, 1), None);
        peer.conn = Some(Conn::new(near));

        let mut sent = 0;
        while sent < MIN_FRAMES || backlog_len(&peer) == 0 {
            assert!(sent < MAX_FRAMES, "the kernel took {sent} frames unread");
            let bytes = frame(sent);
            let start = Instant::now();
            assert!(peer.write(&bytes), "frame {sent} refused");
            let took = start.elapsed();
            assert!(
                took < Duration::from_millis(10),
                "frame {sent} took {took:?}"
            );
            sent += 1;
        }

        let reader = std::thread::spawn(move || {
            let mut got = vec![0u8; FRAME];
            for i in 0..sent {
                far.read_exact(&mut got).unwrap();
                assert!(got == frame(i), "frame {i} lost or reordered");
            }
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while backlog_len(&peer) > 0 {
            assert!(Instant::now() < deadline, "backlog never drained");
            if !peer.flush().expect("connection still installed") {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        reader.join().unwrap();
        assert!(peer.flush().is_some(), "connection dropped");
    }

    /// A peer holds one connection: installing a second closes the first
    /// — its far end reads EOF — and what reaches the first afterwards is
    /// never read, while the second carries the peer's frames.
    #[test]
    fn an_install_closes_the_connection_it_replaces() {
        let (cmds, _rx) = crossbeam::channel::unbounded();
        // Party 1, whose peer 0 dials it: the sweep starts no dial.
        let mut transport = TcpTransport::new(
            PartyId(1),
            TcpListener::bind("127.0.0.1:0").unwrap(),
            vec![Some(link(1, 0)), None],
            &[SocketAddr::from(([127, 0, 0, 1], 0)); 2],
            None,
            None,
            cmds,
        )
        .unwrap();
        let data = link(0, 1).seal_data(b"hello").unwrap();
        let (first, mut first_far) = pair();
        let (second, mut second_far) = pair();
        transport.install(PartyId(0), first, 0);
        transport.install(PartyId(0), second, 0);

        first_far
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(first_far.read(&mut [0u8; 16]).unwrap(), 0, "EOF");
        // The write may succeed locally; no byte of it may be delivered.
        let _ = first_far.write_all(&data);
        for _ in 0..50 {
            transport.sweep();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(transport.ready.is_empty(), "the replaced socket was read");

        second_far.write_all(&data).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while transport.ready.is_empty() {
            assert!(
                Instant::now() < deadline,
                "the installed socket was not read"
            );
            transport.sweep();
        }
        assert_eq!(
            transport.ready.pop_front(),
            Some((PartyId(0), b"hello".to_vec()))
        );
    }

    /// The redial schedule, driven with explicit instants: the first dial
    /// at once, none while one is in flight, then 20, 40, … up to
    /// 2 000 ms between failed dials, each plus at most 50 %, and back to
    /// a dial at once and 20 ms once a connection was up.
    #[test]
    fn redials_back_off_and_reset_once_a_connection_is_up() {
        let mut redial = Redial::new();
        let mut now = Instant::now();
        assert!(redial.due(now, false), "the first dial starts at once");
        assert!(!redial.due(now, true), "a dial is in flight");
        let mut expect_ms = 20;
        for _ in 0..10 {
            // The dial ended without a connection: the next one waits.
            assert!(!redial.due(now, false), "redialed with no backoff");
            let at = redial.not_before.expect("next dial scheduled");
            let wait = at - now;
            let base = Duration::from_millis(expect_ms);
            assert!(
                wait >= base && wait <= base * 3 / 2,
                "waits {wait:?} for a base of {base:?}"
            );
            assert!(!redial.due(at - Duration::from_micros(1), false), "early");
            assert!(!redial.due(at, true), "a dial is in flight");
            assert!(redial.due(at, false), "due at {wait:?}");
            assert!(
                !redial.due(at, true),
                "a second dial while one is in flight"
            );
            now = at;
            expect_ms = (expect_ms * 2).min(2000);
        }
        assert_eq!(expect_ms, 2000, "the schedule reached its ceiling");
        redial.up();
        assert!(redial.due(now, false), "a lost connection redials at once");
        assert!(!redial.due(now, false));
        let wait = redial.not_before.expect("next dial scheduled") - now;
        assert!(
            wait >= Duration::from_millis(20) && wait <= Duration::from_millis(30),
            "the backoff restarts at 20 ms, waits {wait:?}"
        );
    }
}
