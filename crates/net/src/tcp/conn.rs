//! Per-peer TCP connection management: dialing, accepting, handshakes,
//! the readiness-driven read loop, the nonblocking write path, and
//! reconnection with jittered exponential backoff.
//!
//! Topology per party: one listener thread blocks in `accept` for
//! connections from every *lower-id* peer (the deterministic dial rule:
//! the lower id dials, so exactly one connection exists per pair); per
//! peer there is one supervisor thread (dialing or installing accepted
//! sockets); and one **poll thread** for the whole party services every
//! live inbound socket. Handshaken sockets are switched to nonblocking
//! mode and registered with the poll thread, which sweeps them for
//! readable bytes through one reused scratch buffer and reassembles
//! frames in place ([`FrameBuffer::next_frame_ref`]) — no thread per
//! connection and no per-frame allocation.
//!
//! There is no writer thread. Whoever produces a frame writes it: the
//! server loop its data frames, the poll thread its acks, the installing
//! supervisor the replay. A write never blocks — what the kernel does
//! not take waits in the connection's backlog, which the next write and
//! every poll sweep push on. All link state — sequence numbers, the
//! retransmission queue, delivery watermarks — lives in the shared
//! [`ReliableLink`]; connections are disposable carriers that resume the
//! link via the [`handshake`](crate::link::handshake) and a replay of
//! unacknowledged frames.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use sintra_core::PartyId;
use sintra_telemetry::Recorder;

use crate::link::handshake::{self, fresh_nonce};
use crate::link::{frame_sender, FrameBuffer, FrameKind, LinkEvent, LinkKey, ReliableLink};
use crate::server::Input;
use crate::tcp::lock;
use sintra_core::invariant::OrInvariant;

/// Reconnection backoff policy: exponential growth from `initial_ms` to
/// `max_ms` with up to `jitter_pct` percent randomization on each sleep
/// (so a partitioned group does not redial in lockstep).
#[derive(Debug, Clone)]
pub struct BackoffConfig {
    /// First retry delay in milliseconds.
    pub initial_ms: u64,
    /// Delay ceiling in milliseconds.
    pub max_ms: u64,
    /// Random extra delay, as a percentage of the current delay.
    pub jitter_pct: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            initial_ms: 20,
            max_ms: 2000,
            jitter_pct: 50,
        }
    }
}

/// Scope under which all link-layer telemetry counters are recorded.
pub const LINK_SCOPE: &str = "link";

/// Events for a peer's supervisor thread.
pub(crate) enum SupEvent {
    /// The connection of generation `.0` died.
    Broken(u64),
    /// The listener completed a handshake on an inbound socket; install
    /// it (peer watermark attached).
    Accepted(TcpStream, u64),
    /// Stop supervising.
    Shutdown,
}

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
    pub(crate) sup_tx: Sender<SupEvent>,
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
    pub(crate) fn new(peer: PartyId, link: ReliableLink, sup_tx: Sender<SupEvent>) -> Self {
        PeerLink {
            peer,
            link: Mutex::new(link),
            sup_tx,
            wstream: Mutex::new(None),
            control: Mutex::new(None),
            generation: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
        }
    }

    /// Forcibly closes the current socket (if any); the reader and the
    /// next write observe the error and the supervisor reconnects.
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
    /// is then reported broken, and a data frame is recovered from the
    /// retransmission queue at the next resume.
    fn write(&self, frame: &[u8]) -> bool {
        self.with_carrier(|c| c.push(frame)).is_some()
    }

    /// Pushes the backlog on; returns whether any byte left it.
    fn flush(&self) -> bool {
        self.with_carrier(Carrier::flush).unwrap_or(0) > 0
    }

    fn with_carrier<R>(&self, io: impl FnOnce(&mut Carrier) -> std::io::Result<R>) -> Option<R> {
        let mut slot = lock(&self.wstream);
        let carrier = slot.as_mut()?;
        match io(carrier) {
            Ok(r) => Some(r),
            Err(_) => {
                let gen = carrier.gen;
                *slot = None;
                let _ = self.sup_tx.send(SupEvent::Broken(gen));
                None
            }
        }
    }
}

/// One party's network side: the per-peer links plus the thread registry
/// and shutdown flag shared by all its connection threads.
pub(crate) struct PartyNet {
    pub(crate) me: PartyId,
    /// `peers[j]` is `None` at `j == me`.
    pub(crate) peers: Vec<Option<Arc<PeerLink>>>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) recorder: Option<Arc<dyn Recorder>>,
    /// Registration channel to the party's poll thread: handshaken
    /// nonblocking sockets enter the readiness sweep through here.
    pub(crate) poll_tx: Sender<PollConn>,
    pub(crate) threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Short-lived threads running inbound handshakes, one per
    /// connection attempt (reaped as they finish, capped at
    /// [`MAX_INBOUND_HANDSHAKES`]).
    pub(crate) handshake_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    pub(crate) handshake_timeout: Duration,
}

/// Bound on concurrently running inbound-handshake threads; attempts
/// past the bound are dropped at accept. Each thread lives at most a
/// few read-timeouts, so the cap is only reached under a connect flood.
pub(crate) const MAX_INBOUND_HANDSHAKES: usize = 64;

impl PartyNet {
    pub(crate) fn count(&self, name: &'static str, delta: u64) {
        if let Some(rec) = &self.recorder {
            rec.counter_add(LINK_SCOPE, name, delta);
        }
    }

    pub(crate) fn register_thread(&self, handle: std::thread::JoinHandle<()>) {
        lock(&self.threads).push(handle);
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
/// registers its read side with the party's poll thread.
pub(crate) fn install_connection(
    net: &Arc<PartyNet>,
    peer: &Arc<PeerLink>,
    stream: TcpStream,
    peer_cum: u64,
) {
    let gen = net_install_gen(peer);
    // Tear down the previous carrier, if any.
    {
        let mut control = lock(&peer.control);
        if let Some(old) = control.take() {
            let _ = old.shutdown(Shutdown::Both);
        }
        let (Ok(reader_stream), Ok(writer_stream)) = (stream.try_clone(), stream.try_clone())
        else {
            return;
        };
        // Clones share the socket's file-status flags, so the write
        // side is nonblocking too.
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // The replay is written before the write lock is released, so
        // no frame sealed after it can reach the new socket first.
        let mut slot = lock(&peer.wstream);
        let carrier = slot.insert(Carrier::new(gen, writer_stream));
        let frames = lock(&peer.link).replay_from(peer_cum);
        for frame in &frames {
            if carrier.push(frame).is_err() {
                // The fresh socket already died; its reader reports it.
                break;
            }
            net.count("retransmits", 1);
            net.count("frames_sent", 1);
            net.count("bytes_sent", frame.len() as u64);
        }
        drop(slot);
        *control = Some(stream);
        let _ = net
            .poll_tx
            .send(PollConn::new(peer.peer.0, gen, reader_stream));
    }
    if peer.sessions.fetch_add(1, Ordering::Relaxed) > 0 {
        net.count("reconnects", 1);
    }
    net.count("connects", 1);
}

fn net_install_gen(peer: &Arc<PeerLink>) -> u64 {
    peer.generation.fetch_add(1, Ordering::Relaxed) + 1
}

/// What one inbound frame produced, recorded after the link lock is
/// released (telemetry needs no lock).
enum FrameOutcome {
    Delivered,
    Duplicate,
    Acked,
    StrayHandshake,
    AuthFailure,
}

/// One nonblocking socket registered with the party's poll thread,
/// carrying its own frame-reassembly state across sweeps.
pub(crate) struct PollConn {
    peer_idx: usize,
    gen: u64,
    stream: TcpStream,
    fb: FrameBuffer,
}

impl PollConn {
    pub(crate) fn new(peer_idx: usize, gen: u64, stream: TcpStream) -> Self {
        PollConn {
            peer_idx,
            gen,
            stream,
            fb: FrameBuffer::new(),
        }
    }
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

/// The party's readiness-driven read loop: sweeps every registered
/// nonblocking socket for readable bytes, reassembles and processes
/// frames through the owning peer's reliable link, and forwards
/// deliveries to the server inbox; each sweep also pushes on every
/// peer's write backlog. Replaces the thread-per-connection blocking
/// readers: one thread, one reused 64 KiB scratch buffer, and in-place
/// framing serve every inbound connection of this party.
///
/// With no readable socket and no backlog moving, the loop parks briefly
/// on the registration channel, so a fresh connection wakes it
/// immediately and idle cost stays one syscall per connection per
/// ~500 µs.
pub(crate) fn poll_loop(net: Arc<PartyNet>, reg_rx: Receiver<PollConn>, inbox: Sender<Input>) {
    let mut conns: Vec<PollConn> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        if net.shutdown.load(Ordering::Relaxed) {
            return;
        }
        loop {
            match reg_rx.try_recv() {
                Ok(conn) => conns.push(conn),
                Err(crossbeam::channel::TryRecvError::Empty) => break,
                Err(crossbeam::channel::TryRecvError::Disconnected) => return,
            }
        }
        let mut progressed = false;
        for peer in net.peers.iter().flatten() {
            progressed |= peer.flush();
        }
        let mut i = 0;
        while i < conns.len() {
            match pump_conn(&net, &mut conns[i], &mut buf, &inbox) {
                Pump::Idle => i += 1,
                Pump::Progress => {
                    progressed = true;
                    i += 1;
                }
                Pump::Broken => {
                    let conn = conns.swap_remove(i);
                    if let Some(peer) = net.peers.get(conn.peer_idx).and_then(|p| p.as_ref()) {
                        peer.clear_if_gen(conn.gen);
                        let _ = peer.sup_tx.send(SupEvent::Broken(conn.gen));
                    }
                }
            }
        }
        if !progressed {
            match reg_rx.recv_timeout(Duration::from_micros(500)) {
                Ok(conn) => conns.push(conn),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

/// Reads one chunk from a registered socket (if ready) and runs every
/// complete frame through the peer's reliable link.
fn pump_conn(
    net: &Arc<PartyNet>,
    conn: &mut PollConn,
    buf: &mut [u8],
    inbox: &Sender<Input>,
) -> Pump {
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
        // Advancing the link watermark and enqueueing the payload must
        // be one atomic step: a socket from a superseded connection
        // generation may still have buffered bytes swept concurrently
        // with its replacement's, and if the inbox send happened outside
        // the link lock, in-order deliveries could enqueue out of order.
        // The inbox is unbounded, so the send never blocks while the
        // lock is held.
        let outcome = {
            let mut link = lock(&peer.link);
            match link.on_frame(frame) {
                Ok(LinkEvent::Deliver(payload)) => {
                    let _ = inbox.send(Input::Net {
                        from: peer.peer,
                        data: payload,
                    });
                    FrameOutcome::Delivered
                }
                Ok(LinkEvent::Duplicate) => FrameOutcome::Duplicate,
                Ok(LinkEvent::Acked) => FrameOutcome::Acked,
                Ok(LinkEvent::Handshake(_)) => FrameOutcome::StrayHandshake,
                Err(_) => FrameOutcome::AuthFailure,
            }
        };
        match outcome {
            FrameOutcome::Delivered => {
                delivered = true;
                net.count("frames_delivered", 1);
            }
            FrameOutcome::Duplicate => net.count("dup_frames", 1),
            FrameOutcome::Acked => {}
            FrameOutcome::StrayHandshake => {
                // Handshake frames are consumed before the socket is
                // registered; mid-stream ones are stray replays.
                net.count("stray_handshake_frames", 1);
            }
            FrameOutcome::AuthFailure => {
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

/// The dialing supervisor for a higher-id peer: connect, handshake,
/// install, wait for the connection to break, back off, repeat.
pub(crate) fn dial_supervisor(
    net: Arc<PartyNet>,
    peer: Arc<PeerLink>,
    addr: SocketAddr,
    backoff: BackoffConfig,
    sup_rx: Receiver<SupEvent>,
) {
    let mut delay_ms = backoff.initial_ms;
    let mut jitter = Xorshift::new();
    loop {
        if net.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // Absorb any pending events (stale breaks, shutdown).
        loop {
            match sup_rx.try_recv() {
                Ok(SupEvent::Shutdown) => return,
                Ok(_) => {}
                Err(_) => break,
            }
        }
        let attempt = TcpStream::connect_timeout(&addr, Duration::from_secs(1)).and_then(|s| {
            s.set_read_timeout(Some(net.handshake_timeout))?;
            s.set_nodelay(true)?;
            Ok(s)
        });
        let mut stream = match attempt {
            Ok(s) => s,
            Err(_) => {
                if sleep_or_shutdown(&sup_rx, jitter.jittered(delay_ms, &backoff)) {
                    return;
                }
                delay_ms = (delay_ms * 2).min(backoff.max_ms);
                continue;
            }
        };
        let recv_cum = lock(&peer.link).recv_cum();
        let peer_cum = match handshake::initiate(&mut stream, &key_of(&peer), recv_cum) {
            Ok(cum) => cum,
            Err(_) => {
                net.count("handshake_failures", 1);
                if sleep_or_shutdown(&sup_rx, jitter.jittered(delay_ms, &backoff)) {
                    return;
                }
                delay_ms = (delay_ms * 2).min(backoff.max_ms);
                continue;
            }
        };
        let _ = stream.set_read_timeout(None);
        install_connection(&net, &peer, stream, peer_cum);
        delay_ms = backoff.initial_ms;
        let current = peer.generation.load(Ordering::Relaxed);
        // Wait for this connection (or the whole party) to go down.
        loop {
            match sup_rx.recv() {
                Ok(SupEvent::Broken(gen)) if gen >= current => break,
                Ok(SupEvent::Broken(_)) => {}
                Ok(SupEvent::Accepted(s, _)) => drop(s),
                Ok(SupEvent::Shutdown) | Err(_) => return,
            }
        }
    }
}

/// The accepting supervisor for a lower-id peer: installs sockets the
/// listener has already handshaken; the remote side owns redialing.
pub(crate) fn accept_supervisor(
    net: Arc<PartyNet>,
    peer: Arc<PeerLink>,
    sup_rx: Receiver<SupEvent>,
) {
    loop {
        match sup_rx.recv() {
            Ok(SupEvent::Accepted(stream, peer_cum)) => {
                install_connection(&net, &peer, stream, peer_cum);
            }
            Ok(SupEvent::Broken(gen)) => peer.clear_if_gen(gen),
            Ok(SupEvent::Shutdown) | Err(_) => return,
        }
    }
}

/// The party's accept loop: blocks in `accept`, runs the responder
/// handshake, and hands authenticated sockets to the owning peer's
/// supervisor. Shutdown sets the party's flag (a `Release` store this
/// `Acquire` load pairs with) and then connects to the listener, retrying
/// until a connect lands, so the blocked `accept` returns and sees the
/// flag.
pub(crate) fn listener_loop(net: Arc<PartyNet>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if net.shutdown.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _)) => spawn_inbound(&net, stream),
            // Out of descriptors and the like: back off instead of
            // spinning on the error.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Hands one accepted socket to a short-lived handshake thread so a
/// client that connects and then stalls cannot block the accept loop
/// (each handshake read is bounded by `handshake_timeout`, but serial
/// stalls would still starve accepts). Finished threads are reaped
/// here; when [`MAX_INBOUND_HANDSHAKES`] are still running, the attempt
/// is dropped instead of spawning without bound.
fn spawn_inbound(net: &Arc<PartyNet>, stream: TcpStream) {
    let mut slots = lock(&net.handshake_threads);
    slots.retain(|h| !h.is_finished());
    if slots.len() >= MAX_INBOUND_HANDSHAKES {
        net.count("handshake_rejects", 1);
        return;
    }
    let net2 = Arc::clone(net);
    let handle = std::thread::Builder::new()
        .name(format!("sintra-hs-{}", net.me.0))
        .spawn(move || handle_inbound(&net2, stream))
        .or_invariant("spawn handshake thread");
    slots.push(handle);
}

/// Authenticates one inbound connection and forwards it to its peer's
/// supervisor. Runs on its own short-lived thread; every read is
/// bounded by `handshake_timeout`, so the thread cannot outlive a
/// stalled client by more than the timeout.
fn handle_inbound(net: &Arc<PartyNet>, mut stream: TcpStream) {
    if stream
        .set_read_timeout(Some(net.handshake_timeout))
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
    if stream.set_read_timeout(None).is_err() {
        return;
    }
    let _ = peer.sup_tx.send(SupEvent::Accepted(stream, peer_cum));
}

fn key_of(peer: &Arc<PeerLink>) -> LinkKey {
    lock(&peer.link).key().clone()
}

/// Sleeps `ms`, interruptible by a shutdown event. Returns `true` when
/// the supervisor should exit.
fn sleep_or_shutdown(sup_rx: &Receiver<SupEvent>, ms: u64) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_millis(ms);
    loop {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            return false;
        }
        match sup_rx.recv_timeout(left) {
            Ok(SupEvent::Shutdown) | Err(RecvTimeoutError::Disconnected) => return true,
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) => return false,
        }
    }
}

/// A tiny xorshift64* PRNG for backoff jitter (freshness, not crypto).
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

    fn jittered(&mut self, base_ms: u64, backoff: &BackoffConfig) -> u64 {
        if backoff.jitter_pct == 0 {
            return base_ms;
        }
        base_ms + self.next() % (base_ms * backoff.jitter_pct / 100 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use sintra_crypto::hmac::HmacKey;
    use std::time::Instant;

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
        let (sup_tx, sup_rx) = crossbeam::channel::unbounded();
        let key = LinkKey::new(HmacKey::new(b"stalled".to_vec()), PartyId(0), PartyId(1));
        let peer = PeerLink::new(
            PartyId(1),
            ReliableLink::new(key, LinkConfig::default()),
            sup_tx,
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
            if !peer.flush() {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        reader.join().unwrap();
        assert!(sup_rx.try_recv().is_err(), "connection reported broken");
    }
}
