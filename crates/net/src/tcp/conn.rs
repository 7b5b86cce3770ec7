//! Per-peer TCP connection management: dialing, accepting, handshakes,
//! the readiness-driven read sweep, the nonblocking write path, and
//! redialing with jittered exponential backoff.
//!
//! Topology per party: one thread runs the party's loop
//! ([`party_loop`](crate::server::party_loop)), and [`Sockets`] is its
//! socket half. Each sweep takes every pending connection from the
//! party's nonblocking listener — only *lower-id* peers dial it (the
//! deterministic dial rule: the lower id dials, so exactly one connection
//! exists per pair) — watches every link, and services every live
//! inbound socket. Handshaken sockets are switched to nonblocking mode
//! and reach the loop over its command channel; the sweep reads them
//! through one reused scratch buffer and reassembles frames in place
//! ([`FrameBuffer::next_frame_ref`]) — no thread per connection and no
//! per-frame allocation. A sweep that finds a higher-id peer with no
//! connection starts a dial, at once or after a backoff ([`Redial`]).
//! Every handshake, dialed or accepted, runs on a short-lived thread of
//! its own, which installs the connection it authenticates.
//!
//! There is no writer thread. Whoever produces a frame writes it: the
//! party's loop its data frames and acks, the handshake thread the
//! replay. A write never blocks — what the kernel does not take waits in
//! the connection's backlog, which the next write and every sweep push
//! on. All link state — sequence numbers, the retransmission queue,
//! delivery watermarks — lives in the shared [`ReliableLink`];
//! connections are disposable carriers that resume the link via the
//! [`handshake`](crate::link::handshake) and a replay of unacknowledged
//! frames.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;

use sintra_core::PartyId;
use sintra_telemetry::Recorder;

use crate::link::handshake::{self, fresh_nonce};
use crate::link::{frame_sender, FrameBuffer, FrameKind, LinkEvent, LinkKey, ReliableLink};
use crate::server::Command;
use crate::tcp::lock;
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

/// The write half of one connection and the bytes the kernel has not
/// taken yet. Every backlogged byte belongs to a frame that is also in
/// the retransmission queue (or is an ack), so
/// [`LinkConfig::max_unacked_bytes`](crate::link::LinkConfig::max_unacked_bytes)
/// bounds the backlog too.
struct Carrier {
    gen: u64,
    stream: TcpStream,
    backlog: VecDeque<u8>,
}

impl Carrier {
    fn new(gen: u64, stream: TcpStream) -> Self {
        Carrier {
            gen,
            stream,
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

/// Shared state for the link to one peer.
///
/// Lock order is `control` → `wstream` → `link`: a thread may take a
/// later lock while holding an earlier one, never the reverse. In
/// particular a frame is sealed under `link` and that guard is dropped
/// before `wstream` is taken to write it.
pub(crate) struct PeerLink {
    pub(crate) peer: PartyId,
    pub(crate) link: Mutex<ReliableLink>,
    /// The peer's listener, for a peer this party dials (a higher id);
    /// `None` for one that dials this party.
    addr: Option<SocketAddr>,
    /// A dial to the peer is in flight; set by the party's loop, cleared
    /// by the handshake thread once it has installed or given up. That
    /// `Release` store pairs with the sweep's `Acquire` load, so a loop
    /// that sees the dial over also sees the connection it left.
    dialing: AtomicBool,
    /// Current write half and its backlog, tagged with its connection
    /// generation.
    wstream: Mutex<Option<Carrier>>,
    /// A second clone used only to `shutdown()` the socket without
    /// taking the write lock (fault injection, teardown).
    control: Mutex<Option<TcpStream>>,
    generation: AtomicU64,
    sessions: AtomicU64,
}

impl PeerLink {
    pub(crate) fn new(peer: PartyId, link: ReliableLink, addr: Option<SocketAddr>) -> Self {
        PeerLink {
            peer,
            link: Mutex::new(link),
            addr,
            dialing: AtomicBool::new(false),
            wstream: Mutex::new(None),
            control: Mutex::new(None),
            generation: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
        }
    }

    /// Forcibly closes the current socket (if any); the reader and the
    /// next write observe the error, and the dialing side's loop redials.
    pub(crate) fn sever(&self) {
        if let Some(s) = lock(&self.control).as_ref() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    fn clear_if_gen(&self, gen: u64) {
        let mut w = lock(&self.wstream);
        if matches!(&*w, Some(c) if c.gen == gen) {
            *w = None;
        }
    }

    /// Writes `frame` to the current connection without blocking; what
    /// the kernel does not take waits in the backlog. Returns `false`
    /// when there is no connection or the write failed — the connection
    /// is then dropped, and a data frame is recovered from the
    /// retransmission queue at the next resume.
    fn write(&self, frame: &[u8]) -> bool {
        self.with_carrier(|c| c.push(frame)).is_some()
    }

    /// Pushes the backlog on; returns whether any byte left it, or
    /// `None` when the peer has no connection (any more).
    fn flush(&self) -> Option<bool> {
        self.with_carrier(Carrier::flush).map(|n| n > 0)
    }

    fn with_carrier<R>(&self, io: impl FnOnce(&mut Carrier) -> std::io::Result<R>) -> Option<R> {
        let mut slot = lock(&self.wstream);
        let result = io(slot.as_mut()?);
        if result.is_err() {
            *slot = None;
        }
        result.ok()
    }
}

/// One party's network side: the per-peer links, the party loop's
/// command channel and the shutdown flag its handshake threads share.
pub(crate) struct PartyNet {
    pub(crate) me: PartyId,
    /// `peers[j]` is `None` at `j == me`.
    pub(crate) peers: Vec<Option<Arc<PeerLink>>>,
    /// Set once the group shuts down; no connection is installed after.
    pub(crate) shutdown: AtomicBool,
    pub(crate) recorder: Option<Arc<dyn Recorder>>,
    /// The party loop's one command channel: client actions, the crash
    /// hook and group shutdown, and the handshaken sockets that enter the
    /// readiness sweep.
    pub(crate) cmds: Sender<Command>,
    /// Short-lived threads running handshakes, one per connection
    /// attempt, each tagged with whether it is inbound (reaped as they
    /// finish; inbound ones capped at [`MAX_INBOUND_HANDSHAKES`]).
    pub(crate) handshake_threads: Mutex<Vec<(std::thread::JoinHandle<()>, bool)>>,
}

/// Bound on concurrently running inbound-handshake threads; attempts
/// past the bound are dropped at accept. Each thread lives at most a
/// few read-timeouts, so the cap is only reached under a connect flood.
/// Dials do not count against it: there is at most one per peer, and a
/// flood of this party's listener must not hold back its own redials.
pub(crate) const MAX_INBOUND_HANDSHAKES: usize = 64;

impl PartyNet {
    pub(crate) fn count(&self, name: &'static str, delta: u64) {
        if let Some(rec) = &self.recorder {
            rec.counter_add(LINK_SCOPE, name, delta);
        }
    }

    /// Writes one frame to `peer` (see [`PeerLink::write`]) and counts
    /// it under `counter`.
    pub(crate) fn send(&self, peer: &PeerLink, frame: &[u8], counter: &'static str) {
        if peer.write(frame) {
            self.count("bytes_sent", frame.len() as u64);
            self.count(counter, 1);
        }
    }

    /// Closes every live connection of this party (fault injection: the
    /// group keeps running and the links must recover by reconnecting).
    pub(crate) fn sever_all(&self) {
        for peer in self.peers.iter().flatten() {
            peer.sever();
        }
    }
}

/// Installs a handshaken socket as the peer's current connection:
/// replaces (and closes) any previous socket, switches the socket to
/// nonblocking mode, writes the replay of unacknowledged frames, and
/// hands its read side to the party's loop. Once the party is shutting
/// down it installs nothing.
fn install_connection(net: &Arc<PartyNet>, peer: &Arc<PeerLink>, stream: TcpStream, peer_cum: u64) {
    let (Ok(reader_stream), Ok(writer_stream)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    // Clones share the socket's file-status flags, so the write side is
    // nonblocking too.
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let mut control = lock(&peer.control);
    // Shutdown sets the flag before it severs under this lock, so a
    // connection installed after the check is severed there.
    if net.shutdown.load(Ordering::Acquire) {
        return;
    }
    if let Some(old) = control.replace(stream) {
        let _ = old.shutdown(Shutdown::Both);
    }
    let gen = peer.generation.fetch_add(1, Ordering::Relaxed) + 1;
    // The replay is written before the write lock is released, so no
    // frame sealed after it can reach the new socket first.
    let mut slot = lock(&peer.wstream);
    let carrier = slot.insert(Carrier::new(gen, writer_stream));
    let frames = lock(&peer.link).replay_from(peer_cum);
    for frame in &frames {
        if carrier.push(frame).is_err() {
            // The fresh socket already died; the next sweep drops it.
            break;
        }
        net.count("retransmits", 1);
        net.count("frames_sent", 1);
        net.count("bytes_sent", frame.len() as u64);
    }
    drop(slot);
    drop(control);
    let _ = net.cmds.send(Command::Conn(PollConn {
        peer_idx: peer.peer.0,
        gen,
        stream: reader_stream,
        fb: FrameBuffer::new(),
    }));
    if peer.sessions.fetch_add(1, Ordering::Relaxed) > 0 {
        net.count("reconnects", 1);
    }
    net.count("connects", 1);
}

/// One nonblocking socket in the party's readiness sweep, carrying its
/// own frame-reassembly state across sweeps.
pub(crate) struct PollConn {
    peer_idx: usize,
    gen: u64,
    stream: TcpStream,
    fb: FrameBuffer,
}

/// What one readiness sweep of a single connection produced.
enum Pump {
    /// Nothing readable right now.
    Idle,
    /// At least one chunk of bytes was consumed.
    Progress,
    /// The connection died (EOF, I/O error, unframeable or
    /// unauthenticated stream); deregister it.
    Broken,
}

/// Authenticated envelope encodings waiting to be stepped, with their
/// origin, in arrival order.
pub(crate) type Ready = VecDeque<(PartyId, Vec<u8>)>;

/// The socket half of a party's loop: the nonblocking listener, every
/// registered connection, each peer's [`Redial`] schedule, and one reused
/// 64 KiB scratch buffer that every read goes through.
pub(crate) struct Sockets {
    listener: TcpListener,
    conns: Vec<PollConn>,
    buf: Vec<u8>,
    redials: Vec<Redial>,
}

impl Sockets {
    /// Takes over the party's listener, switched to nonblocking mode.
    pub(crate) fn new(listener: TcpListener, parties: usize) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        Ok(Sockets {
            listener,
            conns: Vec::new(),
            buf: vec![0u8; 64 * 1024],
            redials: (0..parties).map(|_| Redial::new()).collect(),
        })
    }

    /// Adds a handshaken connection to the sweep.
    pub(crate) fn register(&mut self, conn: PollConn) {
        self.conns.push(conn);
    }

    /// One sweep: hands every pending connection to a handshake thread;
    /// pushes on every peer's write backlog and, for a peer this party
    /// dials that has no connection, starts a dial when its [`Redial`]
    /// schedule says so; then reads one chunk from every registered
    /// socket and runs its frames through the peer's reliable link,
    /// queueing each delivery on `ready`. Returns whether anything moved.
    pub(crate) fn sweep(&mut self, net: &Arc<PartyNet>, ready: &mut Ready) -> bool {
        let mut progressed = false;
        // Nothing pending ends the accepts, and so does an error such as
        // running out of descriptors: the next sweep tries again.
        while let Ok((stream, _)) = self.listener.accept() {
            progressed = true;
            spawn_handshake(net, Handshake::Accept(stream));
        }
        for (peer, redial) in net.peers.iter().zip(&mut self.redials) {
            let Some(peer) = peer else { continue };
            let Some(moved) = peer.flush() else {
                let dialing = peer.dialing.load(Ordering::Acquire);
                if peer.addr.is_some() && redial.due(Instant::now(), dialing) {
                    peer.dialing.store(true, Ordering::Relaxed);
                    spawn_handshake(net, Handshake::Dial(Arc::clone(peer)));
                }
                continue;
            };
            progressed |= moved;
            redial.up();
        }
        let mut i = 0;
        while i < self.conns.len() {
            match pump_conn(net, &mut self.conns[i], &mut self.buf, ready) {
                Pump::Idle => i += 1,
                Pump::Progress => {
                    progressed = true;
                    i += 1;
                }
                Pump::Broken => {
                    let conn = self.conns.swap_remove(i);
                    if let Some(peer) = net.peers.get(conn.peer_idx).and_then(|p| p.as_ref()) {
                        peer.clear_if_gen(conn.gen);
                    }
                }
            }
        }
        progressed
    }
}

/// Reads one chunk from a registered socket (if ready) and runs every
/// complete frame through the peer's reliable link.
fn pump_conn(net: &Arc<PartyNet>, conn: &mut PollConn, buf: &mut [u8], ready: &mut Ready) -> Pump {
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
    let Some(peer) = net.peers.get(conn.peer_idx).and_then(|p| p.as_ref()) else {
        return Pump::Broken;
    };
    let peer = Arc::clone(peer);
    net.count("bytes_received", n as u64);
    conn.fb.extend(&buf[..n]);
    let mut delivered = false;
    loop {
        let frame = match conn.fb.next_frame_ref() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(_) => {
                // Unframeable stream: drop the carrier, the link state
                // survives and replay recovers.
                net.count("stream_errors", 1);
                return Pump::Broken;
            }
        };
        // Queued under the link lock, so `ready` keeps the link's delivery
        // order even while a superseded socket still drains next to its
        // replacement. Nothing is stepped under the lock: a step takes
        // `link` locks to send.
        match lock(&peer.link).on_frame(frame) {
            Ok(LinkEvent::Deliver(payload)) => {
                ready.push_back((peer.peer, payload));
                delivered = true;
                net.count("frames_delivered", 1);
            }
            Ok(LinkEvent::Duplicate) => net.count("dup_frames", 1),
            Ok(LinkEvent::Acked) => {}
            // Handshake frames are consumed before the socket is
            // registered; mid-stream ones are stray replays.
            Ok(LinkEvent::Handshake(_)) => net.count("stray_handshake_frames", 1),
            Err(_) => {
                // A frame that fails authentication inside an
                // established TCP stream means corruption or an attack;
                // the carrier is untrustworthy.
                net.count("auth_failures", 1);
                return Pump::Broken;
            }
        }
    }
    if delivered {
        // A cumulative ack only every `ack_every` deliveries, or sooner
        // for large frames: it prunes the peer's retransmission queue,
        // and a resume handshake carries the watermark anyway.
        let ack = {
            let mut link = lock(&peer.link);
            if link.ack_overdue() {
                link.make_ack()
            } else {
                None
            }
        };
        if let Some(ack) = ack {
            net.send(&peer, &ack, "acks_sent");
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

/// One connection attempt for a handshake thread.
enum Handshake {
    /// Dial this higher-id peer and initiate.
    Dial(Arc<PeerLink>),
    /// Respond on a socket the sweep accepted.
    Accept(TcpStream),
}

/// Runs one handshake on a short-lived thread of its own, so neither a
/// client that connects and then stalls nor a slow peer can block the
/// party's loop (each handshake read is bounded by
/// [`HANDSHAKE_READ_TIMEOUT`], but serial stalls would still starve the
/// caller). Finished threads are reaped here; when
/// [`MAX_INBOUND_HANDSHAKES`] inbound ones are still running, an
/// accepted socket is dropped instead of spawning without bound.
fn spawn_handshake(net: &Arc<PartyNet>, handshake: Handshake) {
    let inbound = matches!(handshake, Handshake::Accept(_));
    let mut slots = lock(&net.handshake_threads);
    slots.retain(|(h, _)| !h.is_finished());
    if inbound && slots.iter().filter(|(_, inbound)| *inbound).count() >= MAX_INBOUND_HANDSHAKES {
        net.count("handshake_rejects", 1);
        return;
    }
    let net2 = Arc::clone(net);
    let handle = std::thread::Builder::new()
        .name(format!("sintra-hs-{}", net.me.0))
        .spawn(move || match handshake {
            Handshake::Dial(peer) => {
                dial(&net2, &peer);
                peer.dialing.store(false, Ordering::Release);
            }
            Handshake::Accept(stream) => handle_inbound(&net2, stream),
        })
        .or_invariant("spawn handshake thread");
    slots.push((handle, inbound));
}

/// Dials a higher-id peer, authenticates the connection and installs
/// it. A failure just returns: the sweep finds the peer still without a
/// connection and redials after its backoff.
fn dial(net: &Arc<PartyNet>, peer: &Arc<PeerLink>) {
    let Some(addr) = peer.addr else { return };
    let attempt = TcpStream::connect_timeout(&addr, Duration::from_secs(1)).and_then(|s| {
        s.set_read_timeout(Some(HANDSHAKE_READ_TIMEOUT))?;
        s.set_nodelay(true)?;
        Ok(s)
    });
    let Ok(mut stream) = attempt else { return };
    let recv_cum = lock(&peer.link).recv_cum();
    let Ok(peer_cum) = handshake::initiate(&mut stream, &key_of(peer), recv_cum) else {
        net.count("handshake_failures", 1);
        return;
    };
    if stream.set_read_timeout(None).is_ok() {
        install_connection(net, peer, stream, peer_cum);
    }
}

/// Authenticates one inbound connection and installs it. Every read is
/// bounded by [`HANDSHAKE_READ_TIMEOUT`], so the thread cannot outlive a
/// stalled client by more than the timeout.
fn handle_inbound(net: &Arc<PartyNet>, mut stream: TcpStream) {
    // Some platforms hand out accepted sockets nonblocking, like the
    // listener; the read timeout needs a blocking one.
    if stream.set_nonblocking(false).is_err()
        || stream
            .set_read_timeout(Some(HANDSHAKE_READ_TIMEOUT))
            .is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let hello = match handshake::read_frame(&mut stream) {
        Ok(frame) => frame,
        Err(_) => {
            net.count("handshake_failures", 1);
            return;
        }
    };
    // Peek the claimed sender to select the pairwise key; only lower-id
    // peers dial us.
    let claimed = match frame_sender(&hello) {
        Some(p) if p.0 < net.me.0 => p,
        _ => {
            net.count("handshake_failures", 1);
            return;
        }
    };
    let Some(peer) = net.peers.get(claimed.0).and_then(|p| p.as_ref()) else {
        net.count("handshake_failures", 1);
        return;
    };
    let nonce = match key_of(peer).open(&hello) {
        Ok(FrameKind::Hello { nonce }) => nonce,
        _ => {
            net.count("auth_failures", 1);
            return;
        }
    };
    let recv_cum = lock(&peer.link).recv_cum();
    let peer_cum = match handshake::respond(&mut stream, &key_of(peer), nonce, recv_cum) {
        Ok(cum) => cum,
        Err(_) => {
            net.count("handshake_failures", 1);
            return;
        }
    };
    if stream.set_read_timeout(None).is_ok() {
        install_connection(net, peer, stream, peer_cum);
    }
}

fn key_of(peer: &Arc<PeerLink>) -> LinkKey {
    lock(&peer.link).key().clone()
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

    fn backlog_len(peer: &PeerLink) -> usize {
        let slot = peer.wstream.lock().unwrap();
        slot.as_ref()
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
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut far, _) = listener.accept().unwrap();
        near.set_nonblocking(true).unwrap();
        let key = LinkKey::new(HmacKey::new(b"stalled".to_vec()), PartyId(0), PartyId(1));
        let peer = PeerLink::new(
            PartyId(1),
            ReliableLink::new(key, LinkConfig::default()),
            None,
        );
        *peer.wstream.lock().unwrap() = Some(Carrier::new(1, near));

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
