//! Integration tests for the TCP runtime: real sockets on 127.0.0.1,
//! n = 4, t = 1. Atomic broadcast must deliver every payload in the
//! same order at every party; severing a replica's connections
//! mid-stream must be healed by reconnection and replay with no loss or
//! reordering; close/close_wait must return the undelivered residue; and
//! shutdown must join every thread.

mod common;

use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use common::group_keys;
use sintra::protocols::channel::AtomicChannelConfig;
use sintra::runtime::tcp::TcpGroup;
use sintra::runtime::PartyHandle;
use sintra::telemetry::{MetricsRegistry, RunReport};
use sintra::ProtocolId;

/// Runs `f` on a worker thread and fails the test if it neither
/// finishes nor panics within `secs` — a hard wall-clock bound so a
/// wedged socket or a lost frame cannot hang the suite.
fn with_deadline<F: FnOnce() + Send + 'static>(secs: u64, f: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => worker.join().expect("worker"),
        // The sender dropped without sending: the closure panicked.
        // Join to propagate the original panic message.
        Err(RecvTimeoutError::Disconnected) => worker.join().expect("worker"),
        Err(RecvTimeoutError::Timeout) => panic!("test exceeded {secs}s wall-clock deadline"),
    }
}

#[test]
fn atomic_broadcast_over_loopback_tcp() {
    with_deadline(180, || {
        let registry = Arc::new(MetricsRegistry::new());
        let (group, mut handles) = TcpGroup::spawn_with(
            group_keys(4, 1, 91),
            sintra::runtime::tcp::TcpConfig::default(),
            Some(registry.clone()),
        )
        .expect("bind loopback");
        let pid = ProtocolId::new("tcp-ac");
        for h in &handles {
            h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
        // 100 payloads, 25 from each party, fired concurrently.
        for (i, h) in handles.iter().enumerate() {
            for k in 0..25 {
                h.send(&pid, format!("{i}:{k:02}").into_bytes());
            }
        }
        let mut sequences = Vec::new();
        for h in handles.iter_mut() {
            let seq: Vec<Vec<u8>> = (0..100)
                .map(|_| h.receive(&pid).expect("live channel").data)
                .collect();
            sequences.push(seq);
        }
        for (i, s) in sequences.iter().enumerate().skip(1) {
            assert_eq!(s, &sequences[0], "party {i} diverges from party 0");
        }
        // Nothing lost, nothing invented.
        let mut sorted = sequences[0].clone();
        sorted.sort();
        let mut expected: Vec<Vec<u8>> = (0..4)
            .flat_map(|i| (0..25).map(move |k| format!("{i}:{k:02}").into_bytes()))
            .collect();
        expected.sort();
        assert_eq!(sorted, expected, "exactly the 100 sent payloads");
        group.shutdown();
        // A link acks once per `ack_every = 16` deliveries, not once per
        // socket read (which on loopback is about once per frame).
        let snapshot = registry.snapshot();
        let acks = snapshot.counter("link", "acks_sent");
        let delivered = snapshot.counter("link", "frames_delivered");
        assert!(delivered > 0, "frames crossed the links");
        assert!(
            acks <= delivered / 16,
            "{acks} acks for {delivered} delivered frames"
        );
    });
}

/// Large payloads fill a link's byte budget in fewer deliveries than
/// `ack_every`, so the receiver must ack by bytes as well: otherwise the
/// sender sheds every later frame and the channel never delivers again.
/// A reliable channel sends each payload twice per link (rb-send and
/// rb-echo). The budget is scaled to 4 MiB so that 512 KiB payloads
/// stand in for 5 MiB ones under the default 64 MiB.
#[test]
fn large_payloads_are_acked_before_the_link_budget_fills() {
    with_deadline(180, || {
        let registry = Arc::new(MetricsRegistry::new());
        let config = sintra::runtime::tcp::TcpConfig {
            link: sintra::runtime::link::LinkConfig {
                max_unacked_bytes: 4 * 1024 * 1024,
                ..Default::default()
            },
            ..Default::default()
        };
        let (group, mut handles) =
            TcpGroup::spawn_with(group_keys(4, 1, 97), config, Some(registry.clone()))
                .expect("bind loopback");
        let pid = ProtocolId::new("tcp-large");
        for h in &handles {
            h.create_reliable_channel(pid.clone());
        }
        for k in 0..20u8 {
            let payload = vec![k; 512 * 1024];
            handles[0].send(&pid, payload.clone());
            for (i, h) in handles.iter_mut().enumerate() {
                let got = h.receive(&pid).expect("live channel").data;
                assert!(got == payload, "party {i} got the wrong payload {k}");
            }
        }
        group.shutdown();
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counter("link", "backpressure_drops"),
            0,
            "a link shed frames"
        );
    });
}

/// A retransmission queue that holds fewer frames than `ack_every` would
/// fill before any ack came due; such a configuration is refused.
#[test]
fn a_link_queue_shorter_than_ack_every_is_refused() {
    let config = sintra::runtime::tcp::TcpConfig {
        link: sintra::runtime::link::LinkConfig {
            max_unacked: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let err = TcpGroup::spawn_with(group_keys(4, 1, 98), config, None)
        .err()
        .expect("max_unacked 8 < ack_every 16");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

#[test]
fn severed_replica_reconnects_without_loss_or_reorder() {
    with_deadline(180, || {
        let registry = Arc::new(MetricsRegistry::new());
        let (group, mut handles) = TcpGroup::spawn_with(
            group_keys(4, 1, 92),
            sintra::runtime::tcp::TcpConfig::default(),
            Some(registry.clone()),
        )
        .expect("bind loopback");
        let pid = ProtocolId::new("tcp-sever");
        for h in &handles {
            h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
        // Waves of traffic, killing replica 2's connections each wave.
        // The receive barrier between waves proves the group recovered;
        // repeated severing makes it overwhelmingly likely that frames
        // are cut mid-flight and must be replayed on resume.
        let mut per_party: Vec<Vec<Vec<u8>>> = vec![Vec::new(); 4];
        let waves = 8;
        for wave in 0..waves {
            handles[2].sever_links();
            for (i, h) in handles.iter().enumerate() {
                h.send(&pid, format!("w{wave}-{i}").into_bytes());
            }
            for (i, h) in handles.iter_mut().enumerate() {
                for _ in 0..4 {
                    per_party[i].push(h.receive(&pid).expect("channel survives severing").data);
                }
            }
        }
        for (i, s) in per_party.iter().enumerate().skip(1) {
            assert_eq!(s, &per_party[0], "party {i} diverges after reconnects");
        }
        assert_eq!(per_party[0].len(), 4 * waves, "no delivery lost");

        let snapshot = registry.snapshot();
        assert!(
            snapshot.counter("link", "reconnects") > 0,
            "severed connections were re-established"
        );
        assert!(
            snapshot.counter("link", "retransmits") > 0,
            "unacknowledged frames were replayed on resume"
        );
        assert_eq!(
            snapshot.counter("link", "auth_failures"),
            0,
            "no frame failed authentication"
        );
        // The link counters surface in the run report.
        let report = RunReport::from_snapshot("tcp-sever", 4, 0, &snapshot);
        let json = report.to_json();
        assert!(json.contains("reconnects"), "report carries reconnects");
        assert!(json.contains("retransmits"), "report carries retransmits");
        group.shutdown();
    });
}

/// The close/close_wait discipline: every party closes, `close_wait`
/// returns the undelivered residue, and the group then shuts down with
/// every thread joined. Regression for the historical flakiness where
/// closing before the payload reached all parties could terminate the
/// channel without delivering it.
#[test]
fn close_wait_terminates_over_tcp() {
    with_deadline(120, || {
        let (group, mut handles) = TcpGroup::spawn(group_keys(4, 1, 93)).expect("bind loopback");
        let pid = ProtocolId::new("close-regression");
        for h in &handles {
            h.create_reliable_channel(pid.clone());
        }
        handles[1].send(&pid, b"farewell".to_vec());
        // Barrier: the payload must be receivable everywhere before
        // anyone closes — fairness only bounds delivery while the channel
        // is open.
        for h in handles.iter_mut() {
            while !h.can_receive(&pid) {
                std::thread::yield_now();
            }
        }
        for h in &handles {
            h.close(&pid);
        }
        for (i, h) in handles.iter_mut().enumerate() {
            let residual = h.close_wait(&pid);
            assert!(
                residual.iter().any(|p| p.data == b"farewell"),
                "party {i} lost the residual payload"
            );
        }
        group.shutdown();
    });
}

#[test]
fn stalled_inbound_connections_do_not_starve_accepts() {
    // Regression for inbound handshakes running inline on the accept
    // loop: sockets that connect and then go silent each burn a full
    // handshake timeout, and enough of them serialize into accept
    // starvation. Handshakes now run on their own short-lived threads,
    // so legitimate redials complete while the stalled sockets wait out
    // their timeouts in parallel.
    //
    // Party 3 accepts from everyone (lower ids dial): stall its listener
    // and make everyone redial it. Party 0 dials everyone and accepts no
    // one: fill every inbound handshake slot of its listener and make it
    // redial everyone — its own dials must not wait for a slot. Either
    // way a full round must land well inside the 2 s handshake timeout
    // the stalled sockets hold their slots for.
    with_deadline(180, || {
        for (target, flood) in [(3, false), (0, true)] {
            let registry = Arc::new(MetricsRegistry::new());
            let (group, mut handles) = TcpGroup::spawn_with(
                group_keys(4, 1, 96),
                sintra::runtime::tcp::TcpConfig::default(),
                Some(registry.clone()),
            )
            .expect("bind loopback");
            let addr = group.addrs()[target];
            let connect = || std::net::TcpStream::connect(addr).expect("connect");
            let mut stalled: Vec<std::net::TcpStream> =
                (0..if flood { 64 } else { 8 }).map(|_| connect()).collect();
            // A flood holds every slot once the listener refuses one more.
            while flood && registry.snapshot().counter("link", "handshake_rejects") == 0 {
                assert!(stalled.len() < 1000, "the listener never filled its slots");
                stalled.push(connect());
                std::thread::sleep(Duration::from_millis(1));
            }
            let pid = ProtocolId::new("tcp-stall");
            for h in &handles {
                h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
            }
            let start = std::time::Instant::now();
            handles[target].sever_links();
            for (i, h) in handles.iter().enumerate() {
                h.send(&pid, format!("stall-{i}").into_bytes());
            }
            let mut sequences = Vec::new();
            for h in handles.iter_mut() {
                let seq: Vec<Vec<u8>> = (0..4)
                    .map(|_| {
                        h.receive(&pid)
                            .expect("channel survives stalled peers")
                            .data
                    })
                    .collect();
                sequences.push(seq);
            }
            let took = start.elapsed();
            for (i, s) in sequences.iter().enumerate().skip(1) {
                assert_eq!(s, &sequences[0], "party {i} diverges under accept pressure");
            }
            assert!(
                took < Duration::from_millis(1500),
                "party {target} severed: a round took {took:?}"
            );
            drop(stalled);
            group.shutdown();
        }
    });
}

/// A crashed server still services its sockets: it reads and acks what
/// its links deliver, so the live parties' retransmission queues to it
/// drain. One request per round, 20 rounds among the other three send
/// each of them far more than a 64-frame queue's worth to it. Halfway
/// through, its links are severed: the crashed party's loop still
/// serves that, and its peers reconnect.
#[test]
fn crashed_server_still_acks_its_links() {
    with_deadline(180, || {
        let registry = Arc::new(MetricsRegistry::new());
        let config = sintra::runtime::tcp::TcpConfig {
            link: sintra::runtime::link::LinkConfig {
                max_unacked: 64,
                ..Default::default()
            },
            ..Default::default()
        };
        let (group, mut handles) =
            TcpGroup::spawn_with(group_keys(4, 1, 99), config, Some(registry.clone()))
                .expect("bind loopback");
        let pid = ProtocolId::new("tcp-crash-ack");
        for h in &handles {
            h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
        handles[3].shutdown_server();
        for k in 0..20 {
            if k == 10 {
                handles[3].sever_links();
            }
            let data = format!("c{k}").into_bytes();
            handles[k % 3].send(&pid, data.clone());
            for (i, h) in handles[..3].iter_mut().enumerate() {
                let got = h.receive(&pid).expect("live channel").data;
                assert_eq!(got, data, "party {i}, request {k}");
            }
        }
        group.shutdown();
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counter("link", "backpressure_drops"),
            0,
            "a link to the crashed server shed frames"
        );
        assert!(
            snapshot.counter("link", "reconnects") > 0,
            "the crashed server's links were not severed"
        );
    });
}

#[test]
fn tcp_shutdown_joins_cleanly_while_idle() {
    // Teardown with live connections but no protocol traffic: every
    // party's loop thread and every handshake thread must exit.
    with_deadline(60, || {
        let (group, handles) = TcpGroup::spawn(group_keys(4, 1, 95)).expect("bind loopback");
        // Give dialers a moment to establish the mesh so shutdown tears
        // down real connections, not just empty state.
        std::thread::sleep(Duration::from_millis(100));
        drop(handles);
        group.shutdown();
    });
}
