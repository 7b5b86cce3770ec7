//! Ablations for the design choices the paper discusses:
//!
//! * **batch size** (the fairness parameter): the paper sets batch
//!   `= t + 1`; this sweep shows the round-time / throughput trade-off of
//!   larger batches, and the whole batches of the default configuration
//!   (at least `t + 1` entries, and every further held entry that adds a
//!   payload, up to `n`);
//! * **candidate order** in multi-valued agreement: fixed vs the
//!   locally-random permutation the experiments used (§2.4 variants);
//! * **reliable vs consistent broadcast**: the message-count vs
//!   computation trade-off of §2.2 (quadratic cheap messages vs linear
//!   expensive ones);
//! * **threshold-signature flavor** at a fixed 1024-bit key size;
//! * **requests per entry**: the paper's one payload per signed entry
//!   against this implementation's default (an entry carries what its
//!   signer has queued). Every other section pins the paper's protocol.
//! * **request size**: bytes and messages on the wire per 16 KiB request
//!   against per 64-byte request — what ordering references instead of
//!   payloads leaves of the byte amplification.
//!
//! Run with: `cargo bench -p sintra-bench --bench ablations`

use sintra_core::channel::{AtomicChannelConfig, OptimisticChannelConfig};
use sintra_core::{agreement::CandidateOrder, ProtocolId};
use sintra_crypto::thsig::SigFlavor;
use sintra_net::sim::Simulation;
use sintra_testbed::experiments::{paper_channel_config, ChannelKind};
use sintra_testbed::setups::{build, Setup};
use sintra_testbed::stats;

fn messages() -> usize {
    std::env::var("SINTRA_MESSAGES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// Mean sec/delivery of an atomic channel with explicit config and
/// sender set.
fn atomic_mean_multi(
    setup: Setup,
    flavor: SigFlavor,
    config: AtomicChannelConfig,
    senders: &[usize],
    count: usize,
) -> (f64, u64) {
    let testbed = build(setup, 1024, flavor, 11);
    let pid = ProtocolId::new("ablate");
    let mut sim = Simulation::new(testbed.keys, testbed.config);
    for p in 0..sim.n() {
        sim.node_mut(p).create_atomic_channel(pid.clone(), config);
    }
    for &sender in senders {
        let spid = pid.clone();
        sim.schedule(0, sender, move |node, out| {
            for k in 0..count {
                node.channel_send(&spid, format!("m{sender}-{k}").into_bytes(), out);
            }
        });
    }
    sim.run();
    let deliveries = sim.channel_deliveries(0, &pid);
    let times: Vec<f64> = deliveries.iter().map(|(t, _)| *t as f64 / 1e6).collect();
    (stats::mean(&stats::deltas(&times)), sim.stats().messages)
}

/// Single-sender convenience wrapper.
fn atomic_mean(
    setup: Setup,
    flavor: SigFlavor,
    config: AtomicChannelConfig,
    count: usize,
) -> (f64, u64) {
    atomic_mean_multi(setup, flavor, config, &[0], count)
}

fn main() {
    let count = messages();
    eprintln!("ablations: {count} messages per configuration\n");

    // --- Batch size (fairness parameter) --------------------------------
    // Three concurrent senders so the batch size actually changes how many
    // payloads each round can deliver.
    println!("## batch-size ablation (Internet, n=4 t=1, 3 senders, multi-signatures)");
    println!(
        "{:>10} {:>10} {:>14} {:>12}",
        "fairness f", "batch", "sec/delivery", "messages"
    );
    // n - f + 1: f = n-t = 3 -> batch 2 (the paper's setup); f = t+1 = 2 ->
    // batch 3; whole batches at f = n-t -> 2 to 4 entries.
    for (f, batch, whole_batches) in [(3usize, "2", false), (2, "3", false), (3, "2..=4", true)] {
        let config = AtomicChannelConfig {
            fairness: Some(f),
            whole_batches,
            ..paper_channel_config()
        };
        let (mean, msgs) = atomic_mean_multi(
            Setup::Internet,
            SigFlavor::Multi,
            config,
            &[0, 1, 2],
            count / 3,
        );
        println!("{f:>10} {batch:>10} {mean:>14.2} {msgs:>12}");
    }
    println!("# larger batches deliver more payloads per agreement round:");
    println!("# throughput rises at equal round cost, amortizing the agreement.");
    println!("# whole batches keep f = n-t and name every held entry that adds a payload.");

    // --- Candidate order --------------------------------------------------
    println!("\n## MVBA candidate-order ablation (Internet)");
    println!("{:>12} {:>14}", "order", "sec/delivery");
    for (label, order) in [
        ("fixed", CandidateOrder::Fixed),
        ("local-random", CandidateOrder::LocalRandom),
        ("common-coin", CandidateOrder::CommonCoin),
    ] {
        let config = AtomicChannelConfig {
            order,
            ..paper_channel_config()
        };
        let (mean, _) = atomic_mean(Setup::Internet, SigFlavor::Multi, config, count);
        println!("{label:>12} {mean:>14.2}");
    }

    // --- Reliable vs consistent broadcast ---------------------------------
    println!("# common-coin adds one share exchange per agreement but makes the");
    println!("# order unpredictable to the adversary (paper's third variation).");

    println!("\n## reliable vs consistent channel (message count vs crypto, LAN)");
    println!(
        "{:>12} {:>14} {:>12} {:>12}",
        "channel", "sec/delivery", "messages", "bytes"
    );
    for kind in [ChannelKind::Reliable, ChannelKind::Consistent] {
        let testbed = build(Setup::Lan, 1024, SigFlavor::Multi, 12);
        let pid = ProtocolId::new("ablate-bc");
        let mut sim = Simulation::new(testbed.keys, testbed.config);
        for p in 0..sim.n() {
            match kind {
                ChannelKind::Reliable => sim
                    .node_mut(p)
                    .create_reliable_channel_windowed(pid.clone(), 1),
                _ => sim
                    .node_mut(p)
                    .create_consistent_channel_windowed(pid.clone(), 1),
            }
        }
        let spid = pid.clone();
        let c = count;
        sim.schedule(0, 0, move |node, out| {
            for k in 0..c {
                node.channel_send(&spid, format!("m{k}").into_bytes(), out);
            }
        });
        sim.run();
        let deliveries = sim.channel_deliveries(0, &pid);
        let times: Vec<f64> = deliveries.iter().map(|(t, _)| *t as f64 / 1e6).collect();
        println!(
            "{:>12} {:>14.3} {:>12} {:>12}",
            kind.label(),
            stats::mean(&stats::deltas(&times)),
            sim.stats().messages,
            sim.stats().bytes
        );
    }
    println!("# paper: reliable has quadratic messages but no public-key crypto;");
    println!("# consistent has linear messages but threshold-signature work.");

    // --- Optimistic vs randomized atomic broadcast -----------------------
    // The paper's §6: "optimistic protocols ... will reduce the cost of
    // atomic broadcast essentially to a single reliable broadcast per
    // delivered message."
    println!("\n## optimistic (leader-sequenced) vs randomized atomic broadcast");
    println!(
        "{:>14} {:>10} {:>14} {:>12}",
        "protocol", "setup", "sec/delivery", "messages"
    );
    for setup in [Setup::Lan, Setup::Internet] {
        let (base, base_msgs) = atomic_mean(setup, SigFlavor::Multi, paper_channel_config(), count);
        println!(
            "{:>14} {:>10} {base:>14.2} {base_msgs:>12}",
            "randomized",
            setup.label()
        );
        // Optimistic channel, honest leader: the fast path throughout.
        let testbed = build(setup, 1024, SigFlavor::Multi, 13);
        let pid = ProtocolId::new("ablate-opt");
        let mut sim = Simulation::new(testbed.keys, testbed.config);
        for p in 0..sim.n() {
            sim.node_mut(p)
                .create_optimistic_channel(pid.clone(), OptimisticChannelConfig::default());
        }
        let spid = pid.clone();
        let c = count;
        sim.schedule(0, 0, move |node, out| {
            for k in 0..c {
                node.channel_send(&spid, format!("m{k}").into_bytes(), out);
            }
        });
        sim.run();
        let deliveries = sim.channel_deliveries(0, &pid);
        let times: Vec<f64> = deliveries.iter().map(|(t, _)| *t as f64 / 1e6).collect();
        println!(
            "{:>14} {:>10} {:>14.2} {:>12}",
            "optimistic",
            setup.label(),
            stats::mean(&stats::deltas(&times)),
            sim.stats().messages
        );
    }
    println!("# paper (§6): the optimistic fast path cuts atomic broadcast to one");
    println!("# reliable broadcast (plus cheap acks) per payload — no agreement.");

    // --- Signature flavor at fixed size ------------------------------------
    println!("\n## signature-flavor ablation (LAN, 1024-bit, batch = t+1)");
    println!("{:>12} {:>14}", "flavor", "sec/delivery");
    let (multi, _) = atomic_mean(Setup::Lan, SigFlavor::Multi, paper_channel_config(), count);
    println!("{:>12} {multi:>14.2}", "multi");
    let shoup_count = count.min(30); // Shoup shares are ~10x more compute
    let (shoup, _) = atomic_mean(
        Setup::Lan,
        SigFlavor::ShoupRsa,
        paper_channel_config(),
        shoup_count,
    );
    println!("{:>12} {shoup:>14.2}", "shoup-rsa");
    println!("# paper: multi-signatures win at 1024 bits thanks to CRT exponentiation.");

    // --- Requests per entry -----------------------------------------------
    // The batch-size workload again (three senders, everything queued at
    // time zero): the paper's one payload per entry against the default,
    // an entry that carries what its signer has queued, in whole batches.
    println!("\n## requests-per-entry ablation (Internet, n=4 t=1, 3 senders, f = n-t)");
    println!(
        "{:>18} {:>14} {:>12}",
        "requests/entry", "sec/delivery", "messages"
    );
    for (label, config) in [
        ("1 (paper)", paper_channel_config()),
        ("default", AtomicChannelConfig::default()),
    ] {
        let (mean, msgs) = atomic_mean_multi(
            Setup::Internet,
            SigFlavor::Multi,
            config,
            &[0, 1, 2],
            count / 3,
        );
        println!("{label:>18} {mean:>14.3} {msgs:>12}");
    }
    println!("# an agreement orders every request its chosen parties had queued, not one each:");
    println!("# the round's messages and public-key work are shared by all of them.");

    // --- Request size -------------------------------------------------------
    // Four senders, one request each per wave, the next wave once the last
    // is delivered everywhere (the shape of the bulk benchmark workload),
    // default configuration.
    println!(
        "\n## request-size ablation (LAN, n=4 t=1, 4 senders x 1 outstanding, default config)"
    );
    println!(
        "{:>14} {:>16} {:>14} {:>10}",
        "request bytes", "bytes/request", "amplification", "msgs/req"
    );
    let waves = (count / 4).max(1);
    for len in [64usize, 16 * 1024] {
        let (bytes, msgs) = bytes_per_request(len, waves);
        println!(
            "{len:>14} {bytes:>16.0} {:>13.1}x {msgs:>10.1}",
            bytes / len as f64
        );
    }
    println!("# proposals name entries by (signer, digest, signature): a request's bytes cross");
    println!("# each link once per round it is offered in, whatever the agreement then costs.");
}

/// Wire bytes and messages per delivered request: `waves` waves of four
/// concurrent `len`-byte requests on the LAN testbed.
fn bytes_per_request(len: usize, waves: usize) -> (f64, f64) {
    let testbed = build(Setup::Lan, 1024, SigFlavor::Multi, 11);
    let pid = ProtocolId::new("ablate");
    let mut sim = Simulation::new(testbed.keys, testbed.config);
    for p in 0..sim.n() {
        sim.node_mut(p)
            .create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
    }
    for wave in 0..waves as u64 {
        for sender in 0..4usize {
            let spid = pid.clone();
            // Ten virtual seconds apart: every wave finds the channel idle.
            sim.schedule(wave * 10_000_000, sender, move |node, out| {
                let mut data = format!("w{wave}s{sender}").into_bytes();
                data.resize(len, b'.');
                node.channel_send(&spid, data, out);
            });
        }
    }
    sim.run();
    let delivered = sim.channel_deliveries(0, &pid).len();
    assert_eq!(delivered, 4 * waves, "every request delivered");
    let stats = sim.stats();
    (
        stats.bytes as f64 / delivered as f64,
        stats.messages as f64 / delivered as f64,
    )
}
