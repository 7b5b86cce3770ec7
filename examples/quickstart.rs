//! Quickstart: Byzantine fault-tolerant total-order broadcast in a few
//! dozen lines.
//!
//! Spawns a group of 4 SINTRA servers (tolerating 1 Byzantine fault),
//! opens an atomic broadcast channel, has every server concurrently
//! submit payloads, and shows that all servers deliver the *same total
//! order* — the foundation of state-machine replication.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use rand::SeedableRng;
use sintra::crypto::dealer::{deal, DealerConfig};
use sintra::protocols::channel::AtomicChannelConfig;
use sintra::runtime::tcp::{TcpConfig, TcpGroup};
use sintra::runtime::PartyHandle;
use sintra::telemetry::{MetricsRegistry, RunReport};
use sintra::ProtocolId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Trusted setup -------------------------------------------------
    // A trusted dealer generates all key material once: pairwise MAC keys,
    // RSA signing keys, and shares of the threshold coin / signature /
    // encryption schemes. (128-bit demo keys; use DealerConfig::new for
    // the paper's 1024-bit configuration.)
    let (n, t) = (4, 1);
    println!("dealing keys for n = {n} servers, tolerating t = {t} Byzantine faults...");
    let mut rng = rand::rngs::StdRng::seed_from_u64(2002);
    let keys = deal(&DealerConfig::small(n, t), &mut rng)?;

    // --- 2. Launch the group ----------------------------------------------
    // One OS thread per server, each listening on a loopback socket;
    // links are HMAC-authenticated TCP connections. A metrics registry
    // collects per-protocol telemetry as the run goes.
    let registry = Arc::new(MetricsRegistry::new());
    let start = std::time::Instant::now();
    let (group, mut servers) = TcpGroup::spawn_with(
        keys.into_iter().map(Arc::new).collect(),
        TcpConfig::default(),
        Some(registry.clone()),
    )?;

    // --- 3. Open an atomic broadcast channel -------------------------------
    let channel = ProtocolId::new("quickstart");
    for s in &servers {
        s.create_atomic_channel(channel.clone(), AtomicChannelConfig::default());
    }

    // --- 4. Concurrent sends ----------------------------------------------
    // Every server submits two payloads at once; atomic broadcast decides
    // one global order for all of them.
    for (i, s) in servers.iter().enumerate() {
        s.send(&channel, format!("server-{i} says hello").into_bytes());
        s.send(&channel, format!("server-{i} says goodbye").into_bytes());
    }

    // --- 5. Receive and compare orders -------------------------------------
    let total = 2 * n;
    let mut orders: Vec<Vec<String>> = Vec::new();
    for server in servers.iter_mut() {
        let mut order = Vec::new();
        for _ in 0..total {
            let payload = server.receive(&channel).expect("delivery");
            order.push(String::from_utf8_lossy(&payload.data).into_owned());
        }
        orders.push(order);
    }

    println!("\ntotal order as delivered by server 0:");
    for (i, line) in orders[0].iter().enumerate() {
        println!("  {i:2}. {line}");
    }
    for (i, order) in orders.iter().enumerate().skip(1) {
        assert_eq!(order, &orders[0], "server {i} disagreed!");
    }
    println!("\nall {n} servers delivered the same sequence ✓");

    group.shutdown();

    // --- 6. Run report -----------------------------------------------------
    // What did that cost? Message, byte, round, and crypto-work totals per
    // protocol, straight from the recorder the servers reported to.
    let report = RunReport::from_snapshot(
        "quickstart",
        n,
        start.elapsed().as_micros() as u64,
        &registry.snapshot(),
    );
    println!("\n{}", report.to_table());
    Ok(())
}
