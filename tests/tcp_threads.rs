//! The TCP runtime's thread budget: one long-lived thread per party,
//! with observability off or on. Alone in its file, so that no other
//! group shares the process while it counts the process's threads.

#![cfg(target_os = "linux")]

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::group_keys;
use sintra::runtime::tcp::{TcpConfig, TcpGroup};
use sintra::runtime::{MetricsConfig, ObservabilityConfig};
use sintra::telemetry::MetricsRegistry;
use sintra::testbed::scrape::scrape;

/// Threads of this process whose name starts with `sintra-`, inbound
/// threads (`sintra-hs-*`) aside: those live only while a connection is
/// being set up or a scrape answered.
fn party_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("sintra-") && !name.starts_with("sintra-hs-"))
        .count()
}

/// Spawns a 4-party group and waits until its mesh is up: each of the
/// six connections installed at both of its ends.
fn spawn_meshed(config: TcpConfig) -> TcpGroup {
    let registry = Arc::new(MetricsRegistry::new());
    let (group, _handles) =
        TcpGroup::spawn_with(group_keys(4, 1, 94), config, Some(registry.clone()))
            .expect("bind loopback");
    let deadline = Instant::now() + Duration::from_secs(30);
    while registry.snapshot().counter("link", "connects") < 12 {
        assert!(Instant::now() < deadline, "the mesh never came up");
        std::thread::sleep(Duration::from_millis(5));
    }
    group
}

/// One group after the other, never two at once: first with
/// observability off, then with the flight recorder, the metrics plane
/// and the trace stream all on, which add no long-lived thread.
#[test]
fn a_group_runs_one_thread_per_party() {
    let group = spawn_meshed(TcpConfig::default());
    assert_eq!(party_threads(), 4, "long-lived threads of a 4-party group");
    group.shutdown();
    assert_eq!(party_threads(), 0, "threads left after shutdown");

    let dir = std::env::temp_dir().join(format!("sintra-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let observed = TcpConfig {
        observability: Some(ObservabilityConfig {
            dump_dir: dir.clone(),
            metrics: Some(MetricsConfig::default()),
            ..ObservabilityConfig::with_trace_dir(&dir)
        }),
        ..TcpConfig::default()
    };
    let group = spawn_meshed(observed);
    let exposition = scrape(group.metrics_addrs()[0], Duration::from_secs(10)).expect("scrape");
    assert!(!exposition.series.is_empty(), "the scrape answered");
    assert_eq!(
        party_threads(),
        4,
        "long-lived threads of a 4-party group with observability on"
    );
    group.shutdown();
    assert_eq!(party_threads(), 0, "threads left after shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
