//! Integration tests for the four channel protocols: total order, FIFO
//! order, close semantics and the secure channel's confidentiality
//! machinery, all under simulated wide-area conditions.

mod common;

use rand::SeedableRng;

use common::{closed_parties, delivered_data, delivered_payloads, lan_sim, wan_sim};
use sintra::protocols::channel::AtomicChannelConfig;
use sintra::{Event, PartyId, ProtocolId};

fn open_atomic(sim: &mut sintra::runtime::sim::Simulation, pid: &ProtocolId) {
    for p in 0..sim.n() {
        sim.node_mut(p)
            .create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
    }
}

#[test]
fn atomic_total_order_under_jitter() {
    for seed in 0..4u64 {
        let pid = ProtocolId::new("at-jitter");
        let mut sim = wan_sim(4, 1, 1000 + seed);
        open_atomic(&mut sim, &pid);
        for p in 0..4 {
            let spid = pid.clone();
            sim.schedule((p as u64) * 30_000, p, move |node, out| {
                for k in 0..3 {
                    node.channel_send(&spid, format!("p{p}k{k}").into_bytes(), out);
                }
            });
        }
        sim.run();
        let reference = delivered_data(&sim, 0, &pid);
        assert_eq!(reference.len(), 12, "seed {seed}: all payloads delivered");
        for p in 1..4 {
            assert_eq!(
                delivered_data(&sim, p, &pid),
                reference,
                "seed {seed} party {p}"
            );
        }
    }
}

#[test]
fn atomic_fifo_per_sender_within_total_order() {
    let pid = ProtocolId::new("at-fifo");
    let mut sim = wan_sim(4, 1, 1100);
    open_atomic(&mut sim, &pid);
    let spid = pid.clone();
    sim.schedule(0, 1, move |node, out| {
        for k in 0..5u8 {
            node.channel_send(&spid, vec![k], out);
        }
    });
    sim.run();
    for p in 0..4 {
        let from_1: Vec<u8> = delivered_payloads(&sim, p, &pid)
            .into_iter()
            .filter(|pl| pl.origin == PartyId(1))
            .map(|pl| pl.data[0])
            .collect();
        assert_eq!(from_1, vec![0, 1, 2, 3, 4], "party {p} sender-FIFO");
    }
}

#[test]
fn atomic_close_with_quorum_of_requests() {
    let pid = ProtocolId::new("at-close");
    let mut sim = lan_sim(4, 1, 1200);
    open_atomic(&mut sim, &pid);
    let spid = pid.clone();
    sim.schedule(0, 0, move |node, out| {
        node.channel_send(&spid, b"before close".to_vec(), out);
    });
    for p in 0..4 {
        let spid = pid.clone();
        sim.schedule(500_000, p, move |node, out| {
            node.channel_close(&spid, out);
        });
    }
    sim.run();
    assert_eq!(closed_parties(&sim, &pid), vec![0, 1, 2, 3]);
    for p in 0..4 {
        assert_eq!(
            delivered_data(&sim, p, &pid),
            vec![b"before close".to_vec()],
            "party {p}"
        );
    }
}

/// Ten waves of four concurrent `len`-byte requests, one per party, on a
/// LAN simulation; returns the run's totals.
fn atomic_waves(len: usize) -> sintra::telemetry::ProtocolRow {
    use sintra::telemetry::{MetricsRegistry, Recorder, RunReport};
    let pid = ProtocolId::new("at-bytes");
    let mut sim = lan_sim(4, 1, 1250);
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    sim.set_recorder(registry.clone() as std::sync::Arc<dyn Recorder>);
    open_atomic(&mut sim, &pid);
    for wave in 0..10u64 {
        for p in 0..4usize {
            let spid = pid.clone();
            sim.schedule(wave * 2_000_000, p, move |node, out| {
                let mut data = format!("w{wave}p{p}").into_bytes();
                data.resize(len, b'.');
                node.channel_send(&spid, data, out);
            });
        }
    }
    let end_us = sim.run();
    for p in 0..4 {
        assert_eq!(delivered_data(&sim, p, &pid).len(), 40, "party {p}");
    }
    RunReport::from_snapshot("at-bytes", 4, end_us, &registry.snapshot()).totals()
}

/// Payload bytes cross each link once: what the group puts on the wire
/// per request is a small multiple of the request's size (each of the
/// four entries of a round goes to four parties and two requests are
/// ordered, so eight copies, plus the agreement's own few hundred bytes
/// per message) — not the hundred copies it took when every proposal,
/// final and vote carried the payloads again. And size changes nothing
/// else: the same messages and rounds as with 64-byte requests.
#[test]
fn atomic_bytes_on_the_wire_follow_the_payload_once() {
    let len = 16 * 1024;
    let bulk = atomic_waves(len);
    let per_request = bulk.bytes_sent / 40;
    assert!(
        per_request <= 12 * len as u64,
        "{per_request} bytes on the wire per {len}-byte request"
    );
    let small = atomic_waves(64);
    assert_eq!(bulk.msgs_sent, small.msgs_sent, "messages");
    assert_eq!(bulk.rounds, small.rounds, "rounds");
    assert_eq!(bulk.decided_rounds, small.decided_rounds, "decided rounds");
    assert_eq!(bulk.extra, small.extra, "per-kind counts");
}

#[test]
fn reliable_and_consistent_channels_fifo() {
    for kind in ["reliable", "consistent"] {
        let pid = ProtocolId::new(format!("mx-{kind}"));
        let mut sim = wan_sim(4, 1, 1300);
        for p in 0..4 {
            let node = sim.node_mut(p);
            if kind == "reliable" {
                node.create_reliable_channel(pid.clone());
            } else {
                node.create_consistent_channel(pid.clone());
            }
        }
        for sender in 0..2usize {
            let spid = pid.clone();
            sim.schedule(0, sender, move |node, out| {
                for k in 0..4u8 {
                    node.channel_send(&spid, vec![sender as u8, k], out);
                }
            });
        }
        sim.run();
        for p in 0..4 {
            let payloads = delivered_payloads(&sim, p, &pid);
            assert_eq!(payloads.len(), 8, "{kind} party {p}");
            for sender in 0..2usize {
                let seqs: Vec<u8> = payloads
                    .iter()
                    .filter(|pl| pl.origin == PartyId(sender))
                    .map(|pl| pl.data[1])
                    .collect();
                assert_eq!(seqs, vec![0, 1, 2, 3], "{kind} party {p} sender {sender}");
            }
        }
    }
}

#[test]
fn secure_channel_orders_then_decrypts() {
    let pid = ProtocolId::new("sc-int");
    let mut sim = wan_sim(4, 1, 1400);
    for p in 0..4 {
        sim.node_mut(p)
            .create_secure_channel(pid.clone(), AtomicChannelConfig::default());
    }
    let spid = pid.clone();
    sim.schedule(0, 0, move |node, out| {
        node.channel_send(&spid, b"secret-1".to_vec(), out);
        node.channel_send(&spid, b"secret-2".to_vec(), out);
    });
    sim.run();
    for p in 0..4 {
        assert_eq!(
            delivered_data(&sim, p, &pid),
            vec![b"secret-1".to_vec(), b"secret-2".to_vec()],
            "party {p}"
        );
        // Ordering notifications precede decrypted deliveries.
        let mut order_time = None;
        let mut deliver_time = None;
        for r in sim.records() {
            if r.party != p {
                continue;
            }
            match &r.event {
                Event::CiphertextOrdered { pid: epid, .. }
                    if epid == &pid && order_time.is_none() =>
                {
                    order_time = Some(r.time_us);
                }
                Event::ChannelDelivered { pid: epid, .. }
                    if epid == &pid && deliver_time.is_none() =>
                {
                    deliver_time = Some(r.time_us);
                }
                _ => {}
            }
        }
        let (o, d) = (
            order_time.expect("ordered"),
            deliver_time.expect("delivered"),
        );
        assert!(
            o <= d,
            "party {p}: ordering at {o} must precede delivery at {d}"
        );
    }
}

#[test]
fn secure_channel_ciphertexts_do_not_leak_plaintext() {
    let pid = ProtocolId::new("sc-leak");
    let mut sim = lan_sim(4, 1, 1500);
    for p in 0..4 {
        sim.node_mut(p)
            .create_secure_channel(pid.clone(), AtomicChannelConfig::default());
    }
    let secret = b"the launch code is 0000";
    let spid = pid.clone();
    let data = secret.to_vec();
    sim.schedule(0, 2, move |node, out| {
        node.channel_send(&spid, data, out);
    });
    sim.run();
    for r in sim.records() {
        if let Event::CiphertextOrdered { ciphertext, .. } = &r.event {
            assert!(
                !ciphertext.windows(secret.len()).any(|w| w == secret),
                "plaintext visible in ordered ciphertext"
            );
        }
    }
    assert_eq!(delivered_data(&sim, 1, &pid), vec![secret.to_vec()]);
}

#[test]
fn atomic_channel_with_shoup_threshold_signatures() {
    // The full stack under the paper's *other* signature configuration:
    // Shoup RSA threshold signatures instead of multi-signatures.
    use sintra::crypto::dealer::{deal, DealerConfig};
    use sintra::crypto::thsig::SigFlavor;
    use sintra::runtime::sim::{LatencyModel, MachineProfile, SimConfig, Simulation};
    let mut rng = rand::rngs::StdRng::seed_from_u64(1700);
    let config = DealerConfig::small(4, 1).flavor(SigFlavor::ShoupRsa);
    let keys = deal(&config, &mut rng)
        .unwrap()
        .into_iter()
        .map(std::sync::Arc::new)
        .collect();
    let mut sim = Simulation::new(
        keys,
        SimConfig {
            latency: LatencyModel::lan(),
            machines: vec![MachineProfile::instant()],
            seed: 1700,
        },
    );
    let pid = ProtocolId::new("shoup-ac");
    for p in 0..4 {
        sim.node_mut(p)
            .create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
    }
    for p in 0..2 {
        let spid = pid.clone();
        sim.schedule(0, p, move |node, out| {
            node.channel_send(&spid, format!("shoup-{p}").into_bytes(), out);
        });
    }
    sim.run();
    let reference = delivered_data(&sim, 0, &pid);
    assert_eq!(reference.len(), 2);
    for p in 1..4 {
        assert_eq!(delivered_data(&sim, p, &pid), reference, "party {p}");
    }
}

#[test]
fn run_until_respects_the_deadline() {
    use sintra::runtime::sim::{LatencyModel, MachineProfile, SimConfig, Simulation};
    let mut rng = rand::rngs::StdRng::seed_from_u64(1800);
    let keys =
        sintra::crypto::dealer::deal(&sintra::crypto::dealer::DealerConfig::small(4, 1), &mut rng)
            .unwrap()
            .into_iter()
            .map(std::sync::Arc::new)
            .collect();
    let mut sim = Simulation::new(
        keys,
        SimConfig {
            latency: LatencyModel::Constant { ms: 100.0 },
            machines: vec![MachineProfile::instant()],
            seed: 1800,
        },
    );
    let pid = ProtocolId::new("ru");
    for p in 0..4 {
        sim.node_mut(p)
            .create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
    }
    let spid = pid.clone();
    sim.schedule(0, 0, move |node, out| {
        node.channel_send(&spid, b"x".to_vec(), out);
    });
    // One 100ms hop cannot complete a multi-hop protocol: nothing is
    // delivered by t=150ms, but the clock has advanced to the deadline.
    sim.run_until(150_000);
    assert!(sim.channel_deliveries(0, &pid).is_empty());
    assert!(sim.now() >= 150_000);
    // Finishing the run delivers everywhere.
    sim.run();
    for p in 0..4 {
        assert_eq!(sim.channel_deliveries(p, &pid).len(), 1, "party {p}");
    }
}

#[test]
fn two_channels_coexist_on_one_node() {
    let pid_a = ProtocolId::new("coexist-a");
    let pid_b = ProtocolId::new("coexist-b");
    let mut sim = lan_sim(4, 1, 1600);
    for p in 0..4 {
        sim.node_mut(p)
            .create_atomic_channel(pid_a.clone(), AtomicChannelConfig::default());
        sim.node_mut(p).create_reliable_channel(pid_b.clone());
    }
    let (sa, sb) = (pid_a.clone(), pid_b.clone());
    sim.schedule(0, 0, move |node, out| {
        node.channel_send(&sa, b"on-A".to_vec(), out);
        node.channel_send(&sb, b"on-B".to_vec(), out);
    });
    sim.run();
    for p in 0..4 {
        assert_eq!(delivered_data(&sim, p, &pid_a), vec![b"on-A".to_vec()]);
        assert_eq!(delivered_data(&sim, p, &pid_b), vec![b"on-B".to_vec()]);
    }
}

#[test]
fn optimistic_channel_in_simulation_with_leader_crash() {
    // The §6 optimistic channel under the simulator: fast path while the
    // leader is honest, timeout-triggered recovery when it crashes, and
    // identical total order at every honest server throughout.
    use sintra::protocols::channel::OptimisticChannelConfig;
    let pid = ProtocolId::new("opt-sim");
    let mut sim = common::lan_sim(4, 1, 4000);
    for p in 0..4 {
        sim.node_mut(p)
            .create_optimistic_channel(pid.clone(), OptimisticChannelConfig::default());
    }
    // Phase 1: leader P0 alive; everyone sends.
    for p in 0..4 {
        let spid = pid.clone();
        sim.schedule(0, p, move |node, out| {
            node.channel_send(&spid, format!("fast-{p}").into_bytes(), out);
        });
    }
    // Phase 2: P0 crashes at 1s; P1 sends afterwards — recovery must kick
    // in (complaint timeout 2s) and the new epoch must deliver it.
    sim.set_fault(0, sintra::runtime::sim::Fault::Crash { at_us: 1_000_000 });
    let spid = pid.clone();
    sim.schedule(1_500_000, 1, move |node, out| {
        node.channel_send(&spid, b"post-crash".to_vec(), out);
    });
    sim.run();
    let reference = delivered_data(&sim, 1, &pid);
    assert_eq!(reference.len(), 5, "4 fast-path + 1 recovered payload");
    assert_eq!(
        reference.last().map(Vec::as_slice),
        Some(&b"post-crash"[..])
    );
    for p in 2..4 {
        assert_eq!(delivered_data(&sim, p, &pid), reference, "party {p}");
    }
}
