//! Failure-injection integration tests: crashes, silence, equivocation,
//! partitions and message tampering — safety must hold in every case,
//! and liveness whenever at most `t` parties misbehave.

mod common;

use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

use common::{delivered_data, group_keys, lan_sim, wan_sim};
use sintra::protocols::channel::AtomicChannelConfig;
use sintra::runtime::sim::byzantine::{
    ByzantineActor, EntryRelay, EntryWithhold, Mangle, Reflector, Silent,
};
use sintra::runtime::sim::{Fault, LinkDecision};
use sintra::runtime::tcp::{TcpConfig, TcpGroup};
use sintra::runtime::{ObservabilityConfig, PartyHandle};
use sintra::telemetry::parse_json;
use sintra::testbed::inspect::report;
use sintra::testbed::trace_export::validate_dump;
use sintra::{PartyId, ProtocolId, Recipient};

/// Runs `f` on a worker thread and fails the test if it neither
/// finishes nor panics within `secs` — a hard wall-clock bound so a
/// wedged socket cannot hang the suite.
fn with_deadline<F: FnOnce() + Send + 'static>(secs: u64, f: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => worker.join().expect("worker"),
        Err(RecvTimeoutError::Disconnected) => worker.join().expect("worker"),
        Err(RecvTimeoutError::Timeout) => panic!("test exceeded {secs}s wall-clock deadline"),
    }
}

/// A fresh per-test dump directory under the system temp dir.
fn dump_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sintra-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dump dir");
    dir
}

fn dump_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("read dump dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .starts_with("sintra-dump-")
        })
        .collect();
    files.sort();
    files
}

fn open_atomic(sim: &mut sintra::runtime::sim::Simulation, pid: &ProtocolId, skip: &[usize]) {
    for p in 0..sim.n() {
        if !skip.contains(&p) {
            sim.node_mut(p)
                .create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
    }
}

#[test]
fn atomic_channel_with_crash_at_various_times() {
    for crash_at in [0u64, 200_000, 1_000_000] {
        let pid = ProtocolId::new("f-crash");
        let mut sim = lan_sim(4, 1, 2000 + crash_at);
        open_atomic(&mut sim, &pid, &[]);
        sim.set_fault(3, Fault::Crash { at_us: crash_at });
        for p in 0..3 {
            let spid = pid.clone();
            sim.schedule(0, p, move |node, out| {
                node.channel_send(&spid, format!("m{p}").into_bytes(), out);
            });
        }
        sim.run();
        let reference = delivered_data(&sim, 0, &pid);
        assert_eq!(
            reference.len(),
            3,
            "crash@{crash_at}: all survivors' payloads"
        );
        for p in 1..3 {
            assert_eq!(
                delivered_data(&sim, p, &pid),
                reference,
                "crash@{crash_at} party {p}"
            );
        }
    }
}

#[test]
fn atomic_channel_with_mute_party() {
    let pid = ProtocolId::new("f-mute");
    let mut sim = lan_sim(4, 1, 2100);
    open_atomic(&mut sim, &pid, &[]);
    sim.set_fault(1, Fault::Mute);
    let spid = pid.clone();
    sim.schedule(0, 0, move |node, out| {
        node.channel_send(&spid, b"heard".to_vec(), out);
    });
    sim.run();
    for p in [0usize, 2, 3] {
        assert_eq!(
            delivered_data(&sim, p, &pid),
            vec![b"heard".to_vec()],
            "party {p}"
        );
    }
}

#[test]
fn atomic_channel_with_reflector() {
    // A Byzantine party that replays every message it receives back to
    // everyone. The MAC layer is bypassed in the sim, but protocol-level
    // sender checks must drop the reflections (wrong `from`).
    let pid = ProtocolId::new("f-reflect");
    let mut sim = lan_sim(4, 1, 2200);
    open_atomic(&mut sim, &pid, &[3]);
    sim.set_byzantine(3, Box::new(Reflector::default()));
    for p in 0..3 {
        let spid = pid.clone();
        sim.schedule(0, p, move |node, out| {
            node.channel_send(&spid, format!("r{p}").into_bytes(), out);
        });
    }
    sim.run();
    let reference = delivered_data(&sim, 0, &pid);
    assert_eq!(reference.len(), 3);
    for p in 1..3 {
        assert_eq!(delivered_data(&sim, p, &pid), reference, "party {p}");
    }
}

/// A Byzantine actor that floods honest parties with structurally valid
/// but unsigned/forged atomic-channel entries.
struct EntryForger {
    pid: ProtocolId,
    n: usize,
}

impl ByzantineActor for EntryForger {
    fn on_message(
        &mut self,
        _from: PartyId,
        _env: &sintra::protocols::message::Envelope,
        _clock: u64,
    ) -> Vec<(Recipient, sintra::protocols::message::Envelope)> {
        Vec::new()
    }

    fn on_start(&mut self, _clock: u64) -> Vec<(Recipient, sintra::protocols::message::Envelope)> {
        use sintra::bigint::Ubig;
        use sintra::protocols::message::{Body, Entry, Envelope, Payload, PayloadKind};
        (0..self.n)
            .map(|origin| {
                // Forged signature bytes: must be rejected by everyone.
                let entry = Entry::new(
                    vec![Payload {
                        origin: PartyId(origin),
                        seq: 0,
                        kind: PayloadKind::App,
                        data: b"forged".to_vec(),
                    }],
                    PartyId(origin),
                    sintra::crypto::rsa::RsaSignature(Ubig::from(12345u64)),
                );
                (
                    Recipient::All,
                    Envelope {
                        pid: self.pid.clone(),
                        send_seq: 0,
                        body: Body::AcEntry {
                            round: 0,
                            entry: entry.into(),
                        },
                    },
                )
            })
            .collect()
    }
}

#[test]
fn forged_entries_never_delivered() {
    let pid = ProtocolId::new("f-forge");
    let mut sim = lan_sim(4, 1, 2300);
    open_atomic(&mut sim, &pid, &[2]);
    sim.set_byzantine(
        2,
        Box::new(EntryForger {
            pid: pid.clone(),
            n: 4,
        }),
    );
    sim.schedule(0, 2, |_, _| {}); // trigger the forger
    let spid = pid.clone();
    sim.schedule(10_000, 0, move |node, out| {
        node.channel_send(&spid, b"legit".to_vec(), out);
    });
    sim.run();
    for p in [0usize, 1, 3] {
        let data = delivered_data(&sim, p, &pid);
        assert_eq!(
            data,
            vec![b"legit".to_vec()],
            "party {p}: forgeries blocked"
        );
    }
}

/// Party 0 is a group member with a valid signing key that answers
/// honest entries with mangled copies under its own signature: the
/// suffix `[c2]` of `[c1, c2]`, a long-delivered payload in front, one
/// `(origin, seq)` twice, an empty vector, one over the count cap, one
/// over the byte budget. Whatever it signs, honest parties deliver every
/// origin's payloads in send order, each once, and agree.
#[test]
fn mangled_entries_of_a_signing_member_break_nothing() {
    for (i, mangle) in [
        Mangle::Suffix,
        Mangle::Stale,
        Mangle::Duplicate,
        Mangle::Empty,
        Mangle::OverCount,
        Mangle::OverBytes,
    ]
    .into_iter()
    .enumerate()
    {
        let seed = 2350 + i as u64;
        let pid = ProtocolId::new("f-relay");
        let mut sim = lan_sim(4, 1, seed);
        open_atomic(&mut sim, &pid, &[0]);
        let keys = group_keys(4, 1, seed);
        sim.set_byzantine(0, Box::new(EntryRelay::new(keys[0].clone(), mangle)));
        for p in 1..4usize {
            let spid = pid.clone();
            sim.schedule(0, p, move |node, out| {
                for k in 0..4 {
                    node.channel_send(&spid, format!("c{p}-{k}").into_bytes(), out);
                }
            });
        }
        sim.run();
        let reference = common::delivered_payloads(&sim, 1, &pid);
        assert_eq!(reference.len(), 12, "{mangle:?}: all delivered, each once");
        for origin in 1..4usize {
            let seen: Vec<(u64, Vec<u8>)> = reference
                .iter()
                .filter(|p| p.origin == PartyId(origin))
                .map(|p| (p.seq, p.data.clone()))
                .collect();
            let expected: Vec<(u64, Vec<u8>)> = (0..4)
                .map(|k| (k, format!("c{origin}-{k}").into_bytes()))
                .collect();
            assert_eq!(seen, expected, "{mangle:?}: origin {origin} in send order");
        }
        for p in 2..4 {
            assert_eq!(
                common::delivered_payloads(&sim, p, &pid),
                reference,
                "{mangle:?}: party {p} agrees"
            );
        }
    }
}

/// The last party shows each of its (validly signed) entries to an echo
/// quorum only and then plays dead. Proposals that name such an entry
/// reach parties that never saw it; they pull it — from the proposer to
/// echo, from everybody once it is decided — and every honest party
/// delivers every honest request, in one order, whatever the withholder
/// got in.
#[test]
fn entries_withheld_from_part_of_the_group_are_fetched() {
    use sintra::telemetry::{MetricsRegistry, Recorder};
    for (n, t, seed) in [(4usize, 1usize, 2360u64), (7, 2, 2361), (4, 1, 2362)] {
        let pid = ProtocolId::new("f-withhold");
        let byzantine = n - 1;
        // Jitter on the third run: proposals overtake entries as well.
        let mut sim = if seed == 2362 {
            wan_sim(n, t, seed)
        } else {
            lan_sim(n, t, seed)
        };
        let registry = std::sync::Arc::new(MetricsRegistry::new());
        sim.set_recorder(registry.clone() as std::sync::Arc<dyn Recorder>);
        open_atomic(&mut sim, &pid, &[byzantine]);
        let keys = group_keys(n, t, seed);
        sim.set_byzantine(
            byzantine,
            Box::new(EntryWithhold::new(keys[byzantine].clone())),
        );
        let per_party = 4;
        for p in 0..byzantine {
            let spid = pid.clone();
            sim.schedule(0, p, move |node, out| {
                for k in 0..per_party {
                    node.channel_send(&spid, format!("h{p}-{k}").into_bytes(), out);
                }
            });
        }
        sim.run();
        let reference = common::delivered_payloads(&sim, 0, &pid);
        for origin in 0..byzantine {
            let seen: Vec<Vec<u8>> = reference
                .iter()
                .filter(|p| p.origin == PartyId(origin))
                .map(|p| p.data.clone())
                .collect();
            let expected: Vec<Vec<u8>> = (0..per_party)
                .map(|k| format!("h{origin}-{k}").into_bytes())
                .collect();
            assert_eq!(
                seen, expected,
                "n={n}: origin {origin} complete and in order"
            );
        }
        for p in 1..byzantine {
            assert_eq!(
                common::delivered_payloads(&sim, p, &pid),
                reference,
                "n={n}: party {p} agrees"
            );
        }
        let snapshot = registry.snapshot();
        let served = snapshot.counter("f-withhold", "fetch_served");
        assert!(
            snapshot.counter("f-withhold", "fetch_sent") >= served && served > 0,
            "n={n}: the parties left out pulled what they lacked ({served} served)"
        );
    }
}

#[test]
fn partition_heals_and_channel_catches_up() {
    let pid = ProtocolId::new("f-part");
    let mut sim = wan_sim(4, 1, 2400);
    open_atomic(&mut sim, &pid, &[]);
    // {0,1} vs {2,3} split for the first 3 virtual seconds: no quorum on
    // either side, so nothing can be delivered until the heal.
    sim.set_link_filter(|from, to, t| {
        let side = |p: usize| p < 2;
        if side(from) != side(to) && t < 3_000_000 {
            LinkDecision::DelayUntil(3_000_000)
        } else {
            LinkDecision::Deliver
        }
    });
    let spid = pid.clone();
    sim.schedule(0, 0, move |node, out| {
        node.channel_send(&spid, b"split-brain-proof".to_vec(), out);
    });
    sim.run();
    for p in 0..4 {
        let deliveries = sim.channel_deliveries(p, &pid);
        assert_eq!(deliveries.len(), 1, "party {p}");
        assert!(
            deliveries[0].0 >= 3_000_000,
            "party {p}: no delivery during the minority partition"
        );
    }
}

#[test]
fn safety_with_t_byzantine_and_slow_network() {
    // The adversarial worst case the model allows: t Byzantine parties
    // (silent flavor) and extreme jitter. Liveness and agreement must
    // both survive.
    let pid = ProtocolId::new("f-max");
    let mut sim = wan_sim(7, 2, 2500);
    open_atomic(&mut sim, &pid, &[5, 6]);
    sim.set_byzantine(5, Box::new(Silent));
    sim.set_byzantine(6, Box::new(Silent));
    for p in 0..5 {
        let spid = pid.clone();
        sim.schedule(0, p, move |node, out| {
            node.channel_send(&spid, format!("h{p}").into_bytes(), out);
        });
    }
    sim.run();
    let reference = delivered_data(&sim, 0, &pid);
    assert_eq!(reference.len(), 5, "all honest payloads delivered");
    for p in 1..5 {
        assert_eq!(delivered_data(&sim, p, &pid), reference, "party {p}");
    }
}

#[test]
fn stall_past_fault_budget_produces_dump_naming_the_instance() {
    // Crashing two of four servers exceeds the t = 1 budget: the
    // survivors cannot assemble any n - t quorum and wedge. The stall
    // detector must notice the quiet period and write a schema-valid
    // dump that names the stuck channel and the quorum it is missing.
    with_deadline(180, || {
        let dir = dump_dir("stall-dump");
        let config = TcpConfig {
            observability: Some(ObservabilityConfig {
                quiet: Duration::from_millis(300),
                dump_dir: dir.clone(),
                ..ObservabilityConfig::default()
            }),
            ..TcpConfig::default()
        };
        let (group, handles) =
            TcpGroup::spawn_with(group_keys(4, 1, 2600), config, None).expect("bind loopback");
        let pid = ProtocolId::new("f-stall");
        for h in &handles {
            h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
        for h in &handles[2..] {
            h.shutdown_server();
            h.sever_links();
        }
        handles[0].send(&pid, b"wedged".to_vec());

        let path = dir.join("sintra-dump-0-stall.json");
        while !path.exists() {
            std::thread::sleep(Duration::from_millis(25));
        }
        // The write is not atomic; retry until the file parses whole.
        let dump = loop {
            if let Ok(dump) = parse_json(&std::fs::read_to_string(&path).expect("read dump")) {
                break dump;
            }
            std::thread::sleep(Duration::from_millis(25));
        };
        group.shutdown();

        validate_dump(&dump).expect("dump is schema-valid");
        let analysis = report(&dump);
        assert!(
            analysis.contains("f-stall"),
            "names the instance: {analysis}"
        );
        assert!(
            analysis.contains("waiting for round entries"),
            "names the missing quorum: {analysis}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn healthy_run_produces_no_dumps() {
    // No false positives: a group that delivers everything and then
    // sits idle has no pending work, so the stall detector must stay
    // quiet even long after the quiet period has elapsed.
    with_deadline(180, || {
        let dir = dump_dir("no-dump");
        let quiet = Duration::from_millis(400);
        let config = TcpConfig {
            observability: Some(ObservabilityConfig {
                quiet,
                dump_dir: dir.clone(),
                ..ObservabilityConfig::default()
            }),
            ..TcpConfig::default()
        };
        let (group, mut handles) =
            TcpGroup::spawn_with(group_keys(4, 1, 2700), config, None).expect("bind loopback");
        let pid = ProtocolId::new("f-healthy");
        for h in &handles {
            h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
        for (i, h) in handles.iter().enumerate() {
            h.send(&pid, format!("ok{i}").into_bytes());
        }
        for h in handles.iter_mut() {
            for _ in 0..4 {
                h.receive(&pid).expect("healthy delivery");
            }
        }
        // Idle well past the quiet period: ample opportunity for a
        // false positive before teardown.
        std::thread::sleep(quiet * 3);
        group.shutdown();
        assert_eq!(
            dump_files(&dir),
            Vec::<std::path::PathBuf>::new(),
            "healthy run wrote a dump"
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
}
