//! A replicated key-value store: state-machine replication over SINTRA's
//! atomic broadcast channel (the paper's motivating application, §2.5).
//!
//! Each of the 4 servers maintains a local `HashMap`. Clients submit
//! commands (`PUT k v`, `DEL k`) to *any* server; the atomic channel
//! imposes one global order, so all replicas apply the same commands in
//! the same order and end in identical states — even though commands
//! arrive at different servers concurrently.
//!
//! The replicas run over real loopback TCP sockets with authenticated,
//! reconnecting links (the paper's deployment model).
//!
//! Run with: `cargo run --release --example replicated_kv`. Add
//! `--metrics` to serve a live
//! Prometheus-style scrape endpoint per replica and keep the group up
//! for a while after convergence — point `curl` or `sintra-top` at the
//! printed addresses. Add `--trace-dir DIR` to stream every party's
//! causal trace into rotating `sintra-trace-*.jsonl` files there, ready
//! for `sintra-prof profile DIR`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use rand::SeedableRng;
use sintra::crypto::dealer::{deal, DealerConfig, PartyKeys};
use sintra::protocols::channel::AtomicChannelConfig;
use sintra::runtime::tcp::{TcpConfig, TcpGroup, TcpHandle};
use sintra::runtime::{ObservabilityConfig, PartyHandle};
use sintra::ProtocolId;

/// The replicated state machine: a sorted map plus a command log length.
#[derive(Debug, Default, PartialEq, Eq)]
struct KvStore {
    map: BTreeMap<String, String>,
    applied: usize,
}

impl KvStore {
    /// Applies one ordered command.
    fn apply(&mut self, command: &str) {
        let mut parts = command.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("PUT"), Some(k), Some(v)) => {
                self.map.insert(k.to_string(), v.to_string());
            }
            (Some("DEL"), Some(k), _) => {
                self.map.remove(k);
            }
            _ => eprintln!("ignoring malformed command: {command}"),
        }
        self.applied += 1;
    }
}

fn drive_replica(
    server: &mut TcpHandle,
    channel: &ProtocolId,
    expected_commands: usize,
) -> KvStore {
    let mut store = KvStore::default();
    while store.applied < expected_commands {
        let Some(payload) = server.receive(channel) else {
            break;
        };
        store.apply(&String::from_utf8_lossy(&payload.data));
    }
    store
}

/// The whole scenario: create the channel, submit commands through
/// different servers, drive every replica to the same final state, shut
/// the group down.
fn run_scenario(group: TcpGroup, mut servers: Vec<TcpHandle>, n: usize, linger: Option<Duration>) {
    let channel = ProtocolId::new("kv-store");
    for s in &servers {
        s.create_atomic_channel(channel.clone(), AtomicChannelConfig::default());
    }

    // Clients hit different servers concurrently — including two writes
    // to the same key through different servers, which total order must
    // resolve identically everywhere.
    let commands: Vec<(usize, &str)> = vec![
        (0, "PUT motd welcome"),
        (1, "PUT balance:alice 100"),
        (2, "PUT balance:bob 250"),
        (3, "PUT motd maintenance-window-sunday"),
        (0, "DEL balance:bob"),
        (1, "PUT balance:alice 175"),
    ];
    for (server, cmd) in &commands {
        servers[*server].send(&channel, cmd.as_bytes().to_vec());
    }

    // Drive each replica until it has applied every command.
    let stores: Vec<KvStore> = servers
        .iter_mut()
        .map(|s| drive_replica(s, &channel, commands.len()))
        .collect();

    println!("replica 0 final state:");
    for (k, v) in &stores[0].map {
        println!("  {k} = {v}");
    }
    for (i, store) in stores.iter().enumerate().skip(1) {
        assert_eq!(store, &stores[0], "replica {i} diverged!");
    }
    println!("\nall {n} replicas converged to the same state ✓");
    println!(
        "(note: the motd and balance:alice keys were written through different\n servers — atomic broadcast decided one winner for every replica)"
    );

    if let Some(window) = linger {
        println!(
            "\nserving metrics for another {}s — scrape the addresses above",
            window.as_secs()
        );
        std::thread::sleep(window);
    }
    group.shutdown();
}

/// The value following `flag` on the command line, if present.
fn flag_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let use_metrics = std::env::args().any(|a| a == "--metrics");
    let trace_dir = flag_value("--trace-dir");
    let (n, t) = (4, 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let keys: Vec<Arc<PartyKeys>> = deal(&DealerConfig::small(n, t), &mut rng)?
        .into_iter()
        .map(Arc::new)
        .collect();

    // With --metrics the group stays up after convergence so there is
    // time to point curl or sintra-top at the scrape endpoints.
    let linger = use_metrics.then(|| Duration::from_secs(15));
    // Observability config: metrics and/or streaming traces, composable.
    let observability = if use_metrics || trace_dir.is_some() {
        let mut obs = if use_metrics {
            ObservabilityConfig::with_metrics()
        } else {
            ObservabilityConfig::default()
        };
        if let Some(dir) = &trace_dir {
            obs.trace = Some(dir.into());
        }
        Some(obs)
    } else {
        None
    };
    let config = TcpConfig {
        observability,
        ..TcpConfig::default()
    };
    let (group, servers) = TcpGroup::spawn_with(keys, config, None)?;
    println!("replicas listening on real loopback sockets:");
    for (i, addr) in group.addrs().iter().enumerate() {
        println!("  replica {i}: {addr}");
    }
    for (i, addr) in group.metrics_addrs().iter().enumerate() {
        println!("  replica {i} metrics: http://{addr}/metrics");
    }
    println!();
    run_scenario(group, servers, n, linger);
    if let Some(dir) = &trace_dir {
        println!(
            "\nstreaming traces written to {dir}/ — analyze with:\n  sintra-prof profile {dir}"
        );
    }
    Ok(())
}
