//! A Byzantine fire drill in the deterministic simulator.
//!
//! Runs the same atomic-broadcast workload three times on a simulated
//! wide-area group (the paper's Internet testbed: Zürich, Tokyo, New
//! York, California):
//!
//! 1. all four servers honest;
//! 2. one server crashed from the start;
//! 3. one server replaced by an equivocating Byzantine sender *and* a
//!    2-second network partition around another server.
//!
//! In every case the surviving honest servers deliver identical
//! sequences — and because the simulator is deterministic, so will your
//! run of this example.
//!
//! Run with: `cargo run --release --example byzantine_drill`
//!
//! With `--dumps <dir>` a fourth drill runs on real loopback TCP: two of
//! the four servers are crashed (beyond the `t = 1` fault budget), the
//! survivors stall, and the flight recorder's stall detector writes
//! state dumps into `<dir>`. The drill then loads the dumps back and
//! prints the "who is waiting on what" analysis — the round trip CI
//! exercises to keep the observability pipeline honest.

use std::sync::Arc;
use std::time::Duration;

use rand::SeedableRng;
use sintra::crypto::dealer::{deal, DealerConfig};
use sintra::protocols::channel::AtomicChannelConfig;
use sintra::runtime::sim::{byzantine::EquivocatingSender, Fault, LinkDecision, Simulation};
use sintra::runtime::tcp::{TcpConfig, TcpGroup};
use sintra::runtime::{MetricsConfig, ObservabilityConfig, PartyHandle};
use sintra::telemetry::parse_json;
use sintra::testbed::inspect::report;
use sintra::testbed::scrape::scrape;
use sintra::testbed::setups::{build, Setup};
use sintra::testbed::trace_export::validate_dump;
use sintra::ProtocolId;

/// Builds a fresh simulated Internet group with an atomic channel on
/// every honest party.
fn fresh_sim(seed: u64) -> (Simulation, ProtocolId) {
    // 128-bit demo keys keep the example fast; the mechanics are
    // identical at 1024 bits.
    let testbed = build(
        Setup::Internet,
        128,
        sintra::crypto::thsig::SigFlavor::Multi,
        seed,
    );
    let pid = ProtocolId::new("drill");
    let mut sim = Simulation::new(testbed.keys, testbed.config);
    for p in 0..4 {
        sim.node_mut(p)
            .create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
    }
    (sim, pid)
}

fn workload(sim: &mut Simulation, pid: &ProtocolId, senders: &[usize]) {
    for &party in senders {
        let pid = pid.clone();
        sim.schedule(0, party, move |node, out| {
            for k in 0..3 {
                node.channel_send(&pid, format!("P{party}-msg{k}").into_bytes(), out);
            }
        });
    }
}

fn sequences(sim: &Simulation, pid: &ProtocolId, parties: &[usize]) -> Vec<Vec<String>> {
    parties
        .iter()
        .map(|&p| {
            sim.channel_deliveries(p, pid)
                .iter()
                .map(|(_, payload)| String::from_utf8_lossy(&payload.data).into_owned())
                .collect()
        })
        .collect()
}

fn assert_identical(seqs: &[Vec<String>], scenario: &str) {
    for s in &seqs[1..] {
        assert_eq!(s, &seqs[0], "{scenario}: honest servers diverged!");
    }
    println!(
        "  {} deliveries, identical at every honest server ✓",
        seqs[0].len()
    );
}

/// Scenario 4 (opt-in): a real TCP group stalled past its fault budget.
/// Crashing two of four servers leaves the survivors short of every
/// `n - t = 3` quorum; the stall detector notices the quiet period and
/// dumps their state, which we then read back and analyse.
fn stall_drill(dump_dir: &std::path::Path, trace_dir: Option<&std::path::Path>) {
    std::fs::create_dir_all(dump_dir).expect("create dump dir");
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let keys = deal(&DealerConfig::small(4, 1), &mut rng).expect("dealer");
    let config = TcpConfig {
        observability: Some(ObservabilityConfig {
            quiet: Duration::from_millis(500),
            dump_dir: dump_dir.to_path_buf(),
            metrics: Some(MetricsConfig::default()),
            // The streaming sink coexists with the stall-dump plane:
            // the wedge shows up in the dump *and* in the causal trace.
            trace: trace_dir.map(std::path::Path::to_path_buf),
        }),
        ..TcpConfig::default()
    };
    let (group, handles) =
        TcpGroup::spawn_with(keys.into_iter().map(Arc::new).collect(), config, None)
            .expect("bind loopback");
    let pid = ProtocolId::new("stall-drill");
    for h in &handles {
        h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
    }
    // Crash P2 and P3 — one more than the t = 1 budget — then submit a
    // payload. Atomic broadcast needs 3 live servers; with 2 it wedges.
    for h in &handles[2..] {
        h.shutdown_server();
        h.sever_links();
    }
    handles[0].send(&pid, b"doomed payload".to_vec());

    let dump_path = dump_dir.join("sintra-dump-0-stall.json");
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !dump_path.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "stall detector produced no dump within 60s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // The metrics plane must keep answering while the protocol is
    // wedged: the wedge is exactly when an operator reaches for it.
    // Poll rather than assert one scrape — a survivor's retransmit can
    // briefly flip the gauge back before the quiet period re-expires.
    let scrape_addr = group.metrics_addrs()[0];
    let gauge_deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let exposition = scrape(scrape_addr, Duration::from_secs(5)).expect("scrape stalled party");
        if exposition.value("sintra_stalled", &[("party", "0")]) == Some(1.0) {
            break;
        }
        assert!(
            std::time::Instant::now() < gauge_deadline,
            "stall detector's verdict never became visible in the scrape"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("  scrape endpoint answered mid-stall, stalled gauge = 1 ✓");
    // Let the other survivor finish its dump too before reading.
    std::thread::sleep(Duration::from_millis(300));
    group.shutdown();
    assert!(
        scrape(scrape_addr, Duration::from_secs(2)).is_err(),
        "scrape endpoint closes with the group"
    );

    let mut dumped = 0;
    for entry in std::fs::read_dir(dump_dir).expect("read dump dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if !name.starts_with("sintra-dump-") {
            continue;
        }
        let body = std::fs::read_to_string(&path).expect("read dump");
        let dump = parse_json(&body).expect("dump parses");
        validate_dump(&dump).expect("dump is schema-valid");
        print!("  {}", report(&dump).replace('\n', "\n  "));
        println!();
        dumped += 1;
    }
    assert!(dumped >= 1, "at least the sender's dump exists");
    println!("  {dumped} schema-valid dump(s) analysed ✓");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dump_dir = args
        .iter()
        .position(|a| a == "--dumps")
        .map(|i| args.get(i + 1).expect("--dumps needs a directory").clone());
    let trace_dir = args.iter().position(|a| a == "--trace-dir").map(|i| {
        args.get(i + 1)
            .expect("--trace-dir needs a directory")
            .clone()
    });

    println!("scenario 1: all honest (Zürich + Tokyo + NY sending)");
    let (mut sim, pid) = fresh_sim(1);
    workload(&mut sim, &pid, &[0, 1, 2]);
    let end = sim.run();
    let seqs = sequences(&sim, &pid, &[0, 1, 2, 3]);
    assert_eq!(seqs[0].len(), 9, "all 9 payloads delivered");
    assert_identical(&seqs, "honest");
    println!(
        "  finished at t = {:.2}s virtual, {} messages on the wire\n",
        end as f64 / 1e6,
        sim.stats().messages
    );

    println!("scenario 2: California (P3) crashed from the start");
    let (mut sim, pid) = fresh_sim(2);
    sim.set_fault(3, Fault::Crash { at_us: 0 });
    workload(&mut sim, &pid, &[0, 1, 2]);
    sim.run();
    let seqs = sequences(&sim, &pid, &[0, 1, 2]);
    assert_eq!(seqs[0].len(), 9, "crash of t=1 server is masked");
    assert_identical(&seqs, "crash");
    println!();

    println!("scenario 3: Byzantine equivocator at P3 + partition around Tokyo (P1)");
    let (mut sim, pid) = fresh_sim(3);
    // P3 equivocates on a reliable-broadcast instance it pretends to run
    // (its garbage is ignored by the channel's signature checks), and
    // additionally Tokyo is cut off for the first 2 virtual seconds.
    sim.set_byzantine(
        3,
        Box::new(EquivocatingSender {
            pid: pid.clone(),
            payload_a: b"lie-A".to_vec(),
            payload_b: b"lie-B".to_vec(),
            group_a: vec![0, 1],
            n: 4,
        }),
    );
    sim.set_link_filter(|from, to, t| {
        if (from == 1 || to == 1) && from != to && t < 2_000_000 {
            LinkDecision::DelayUntil(2_000_000)
        } else {
            LinkDecision::Deliver
        }
    });
    workload(&mut sim, &pid, &[0, 2]); // the two reachable honest senders
    sim.schedule(0, 3, |_, _| {}); // trigger the Byzantine actor's on_start
    sim.run();
    let seqs = sequences(&sim, &pid, &[0, 1, 2]);
    assert_eq!(seqs[0].len(), 6);
    assert!(
        seqs[0].iter().all(|m| !m.starts_with("lie")),
        "equivocator's forgeries never delivered"
    );
    assert_identical(&seqs, "byzantine+partition");

    if let Some(dir) = dump_dir {
        println!("\nscenario 4: TCP group crashed past its fault budget (2 of 4 down)");
        stall_drill(
            std::path::Path::new(&dir),
            trace_dir.as_deref().map(std::path::Path::new),
        );
        if let Some(traces) = &trace_dir {
            println!(
                "  streaming traces in {traces}/ — inspect with: sintra-prof profile {traces}"
            );
        }
        println!("\nall four drills passed — safety held in every scenario.");
    } else {
        println!("\nall three drills passed — safety held in every scenario.");
    }
}
