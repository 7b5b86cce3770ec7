//! The TCP runtime's thread budget: one long-lived thread per party.
//! Alone in its file, so that no other group shares the process while it
//! counts the process's threads.

#![cfg(target_os = "linux")]

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::group_keys;
use sintra::runtime::tcp::{TcpConfig, TcpGroup};
use sintra::telemetry::MetricsRegistry;

/// Threads of this process whose name starts with `sintra-`, handshake
/// threads (`sintra-hs-*`) aside: those live only while a connection is
/// being set up.
fn party_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("sintra-") && !name.starts_with("sintra-hs-"))
        .count()
}

#[test]
fn a_group_runs_one_thread_per_party() {
    let registry = Arc::new(MetricsRegistry::new());
    let (group, _handles) = TcpGroup::spawn_with(
        group_keys(4, 1, 94),
        TcpConfig::default(),
        Some(registry.clone()),
    )
    .expect("bind loopback");
    // The mesh is up once every one of the six connections has been
    // installed at both of its ends.
    let deadline = Instant::now() + Duration::from_secs(30);
    while registry.snapshot().counter("link", "connects") < 12 {
        assert!(Instant::now() < deadline, "the mesh never came up");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(party_threads(), 4, "long-lived threads of a 4-party group");
    group.shutdown();
    assert_eq!(party_threads(), 0, "threads left after shutdown");
}
