//! Golden runs of the simulator: three seeded scenarios whose every
//! observable output is pinned to literals.
//!
//! Each scenario records, at the end of its run:
//! - a digest of every `(time_us, party, event)` record, in record order;
//! - a digest of every trace event the recorder saw, in arrival order;
//! - the run's [`Stats`];
//! - the message, byte, round, batch and crypto-work counters of a
//!   [`MetricsRegistry`], plus a digest of every counter it holds (the
//!   per-kind counters included).
//!
//! The simulator's virtual time is a function of the seed, the latency
//! model and the metered work of each step. A change to how a step is
//! driven that moves any record by one microsecond, drops or adds one
//! message or trace event, or moves one counter fails here.
//!
//! The three scenarios cover the three kinds of scheduled work: network
//! deliveries (with jitter, a crash, a healing partition and a Byzantine
//! party), application actions, and timers (only the optimistic channel
//! arms them).

mod common;

use std::fmt::Write as _;
use std::sync::Arc;

use common::group_keys;
use sintra::crypto::hash::Sha256;
use sintra::protocols::channel::{AtomicChannelConfig, OptimisticChannelConfig};
use sintra::runtime::sim::byzantine::{EntryRelay, Mangle};
use sintra::runtime::sim::{
    Fault, LatencyModel, LinkDecision, MachineProfile, SimConfig, Simulation,
};
use sintra::telemetry::{MetricsRegistry, Recorder};
use sintra::testbed::setups::{hybrid_rtt_ms, internet_rtt_ms};
use sintra::ProtocolId;

/// Everything a golden run pins.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    end_us: u64,
    records: usize,
    records_digest: u64,
    traces: usize,
    traces_digest: u64,
    messages: u64,
    bytes: u64,
    msgs_sent: u64,
    msgs_delivered: u64,
    msgs_dropped: u64,
    bytes_sent: u64,
    rounds: u64,
    batch_count: u64,
    batch_sum: u64,
    crypto_work_milli: u64,
    counters_digest: u64,
}

/// The first eight bytes of SHA-256 of `text`, as a number.
fn digest(text: &str) -> u64 {
    let d = Sha256::digest(text.as_bytes());
    u64::from_be_bytes(d[..8].try_into().expect("eight bytes"))
}

/// Runs `sim` to quiescence with a fresh registry attached and reads off
/// every pinned figure. `scope` is the channel's root protocol id.
fn golden(mut sim: Simulation, registry: &Arc<MetricsRegistry>, scope: &str) -> Golden {
    let end_us = sim.run();
    let mut text = String::new();
    for r in sim.records() {
        writeln!(text, "{} {} {:?}", r.time_us, r.party, r.event).expect("write");
    }
    let records_digest = digest(&text);
    let traces = registry.take_traces();
    let mut text = String::new();
    for ev in &traces {
        writeln!(text, "{ev:?}").expect("write");
    }
    let traces_digest = digest(&text);
    let snapshot = registry.snapshot();
    let mut text = String::new();
    for (scope, counters) in &snapshot.counters {
        for (name, value) in counters {
            writeln!(text, "{scope} {name} {value}").expect("write");
        }
    }
    let (batch_count, batch_sum) = registry
        .histogram(scope, "batch_size")
        .map_or((0, 0), |h| (h.count, h.sum));
    Golden {
        end_us,
        records: sim.records().len(),
        records_digest,
        traces: traces.len(),
        traces_digest,
        messages: sim.stats().messages,
        bytes: sim.stats().bytes,
        msgs_sent: snapshot.counter_total("msgs_sent"),
        msgs_delivered: snapshot.counter_total("msgs_delivered"),
        msgs_dropped: snapshot.counter_total("msgs_dropped"),
        bytes_sent: snapshot.counter_total("bytes_sent"),
        rounds: snapshot.counter(scope, "rounds"),
        batch_count,
        batch_sum,
        crypto_work_milli: snapshot.counter_total("crypto_work_milli"),
        counters_digest: digest(&text),
    }
}

/// A simulation over `n` dealt parties with a registry capturing traces.
fn traced_sim(
    n: usize,
    t: usize,
    seed: u64,
    latency: LatencyModel,
    machine: MachineProfile,
) -> (Simulation, Arc<MetricsRegistry>) {
    let mut sim = Simulation::new(
        group_keys(n, t, seed),
        SimConfig {
            latency,
            machines: vec![machine],
            seed,
        },
    );
    let registry = Arc::new(MetricsRegistry::new());
    registry.set_trace_capture(true);
    sim.set_recorder(registry.clone() as Arc<dyn Recorder>);
    (sim, registry)
}

/// n = 4 on the paper's Internet RTT matrix with 10 % jitter. Party 3
/// crashes after 1.2 virtual seconds, and party 0's links stall until
/// 0.9 s (a partition that heals). Three senders, two requests each, the
/// second wave after the crash.
#[test]
fn internet_with_crash_and_healing_partition() {
    let pid = ProtocolId::new("golden-inet");
    let (mut sim, registry) = traced_sim(
        4,
        1,
        5101,
        LatencyModel::Matrix {
            rtt_ms: internet_rtt_ms(),
            jitter: 0.1,
        },
        MachineProfile::new("golden", 500.0).with_msg_overhead(0.05),
    );
    for p in 0..4 {
        sim.node_mut(p)
            .create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
    }
    sim.set_fault(3, Fault::Crash { at_us: 1_200_000 });
    sim.set_link_filter(|from, to, t| {
        if (from == 0 || to == 0) && from != to && t < 900_000 {
            LinkDecision::DelayUntil(900_000)
        } else {
            LinkDecision::Deliver
        }
    });
    for (at_us, sender) in [(0, 0), (0, 1), (50_000, 2), (1_500_000, 1), (1_600_000, 2)] {
        let spid = pid.clone();
        sim.schedule(at_us, sender, move |node, out| {
            node.channel_send(&spid, format!("inet-{sender}-{at_us}").into_bytes(), out);
        });
    }
    let got = golden(sim, &registry, "golden-inet");
    assert_eq!(
        got,
        Golden {
            end_us: 3_189_192,
            records: 15,
            records_digest: 0x58ebe7143df38bd6,
            traces: 83,
            traces_digest: 0x132dbef4e8e651cf,
            messages: 279,
            bytes: 54_755,
            msgs_sent: 279,
            msgs_delivered: 241,
            msgs_dropped: 38,
            bytes_sent: 54_755,
            rounds: 27,
            batch_count: 6,
            batch_sum: 15,
            crypto_work_milli: 21,
            counters_digest: 0x94ac1ae918f4ca97,
        }
    );
}

/// n = 7 on the hybrid matrix (four LAN parties, three remote sites).
/// Party 0 is a signing member that answers each round's first honest
/// entry with a mangled copy of its own.
#[test]
fn hybrid_with_entry_relay() {
    let pid = ProtocolId::new("golden-hybrid");
    let seed = 5102;
    let (mut sim, registry) = traced_sim(
        7,
        2,
        seed,
        LatencyModel::Matrix {
            rtt_ms: hybrid_rtt_ms(),
            jitter: 0.1,
        },
        MachineProfile::new("golden", 200.0),
    );
    for p in 1..7 {
        sim.node_mut(p)
            .create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
    }
    let keys = group_keys(7, 2, seed);
    sim.set_byzantine(0, Box::new(EntryRelay::new(keys[0].clone(), Mangle::Stale)));
    for sender in [1usize, 4, 6] {
        let spid = pid.clone();
        sim.schedule(0, sender, move |node, out| {
            for k in 0..2 {
                node.channel_send(&spid, format!("hyb-{sender}-{k}").into_bytes(), out);
            }
        });
    }
    let got = golden(sim, &registry, "golden-hybrid");
    assert_eq!(
        got,
        Golden {
            end_us: 3_378_844,
            records: 36,
            records_digest: 0xc607117408eae258,
            traces: 272,
            traces_digest: 0xa08c2ea86c0777e3,
            messages: 1351,
            bytes: 341_047,
            msgs_sent: 1351,
            msgs_delivered: 1351,
            msgs_dropped: 0,
            bytes_sent: 341_047,
            rounds: 78,
            batch_count: 18,
            batch_sum: 36,
            crypto_work_milli: 105,
            counters_digest: 0xe71bc5c5f165d4dc,
        }
    );
}

/// The optimistic channel on a LAN: fast path under an honest leader,
/// then the leader crashes and the complaint timers carry the channel
/// into a new epoch. The only scenario that arms timers.
#[test]
fn optimistic_channel_through_a_leader_crash() {
    let pid = ProtocolId::new("golden-opt");
    let (mut sim, registry) = traced_sim(
        4,
        1,
        5103,
        LatencyModel::lan(),
        MachineProfile::new("golden", 100.0),
    );
    for p in 0..4 {
        sim.node_mut(p)
            .create_optimistic_channel(pid.clone(), OptimisticChannelConfig::default());
    }
    for p in 0..4 {
        let spid = pid.clone();
        sim.schedule(0, p, move |node, out| {
            node.channel_send(&spid, format!("fast-{p}").into_bytes(), out);
        });
    }
    sim.set_fault(0, Fault::Crash { at_us: 1_000_000 });
    let spid = pid.clone();
    sim.schedule(1_500_000, 1, move |node, out| {
        node.channel_send(&spid, b"post-crash".to_vec(), out);
    });
    let got = golden(sim, &registry, "golden-opt");
    assert_eq!(
        got,
        Golden {
            end_us: 6_009_026,
            records: 19,
            records_digest: 0x158709783f0df06a,
            traces: 74,
            traces_digest: 0xfd662b76506888ba,
            messages: 501,
            bytes: 147_495,
            msgs_sent: 501,
            msgs_delivered: 450,
            msgs_dropped: 51,
            bytes_sent: 147_495,
            rounds: 15,
            batch_count: 0,
            batch_sum: 0,
            crypto_work_milli: 154,
            counters_digest: 0x78ec6bd1945084da,
        }
    );
}
