//! Property tests for the streaming trace sink's causal integrity.
//!
//! The profiler's critical-path walk is only sound if the causal chain
//! it follows is closed: every event that names a parent `(sender,
//! send_seq)` must find that send in the merged multi-party stream.
//! These tests run real atomic-broadcast workloads — randomized command
//! counts, submitting parties, and key seeds — over loopback TCP with
//! streaming traces on, then merge the per-party `.jsonl` segments and
//! assert that every non-anchor event resolves its parent (anchors are
//! local commands and timers, which legitimately carry no cause).
//!
//! Nothing may be dropped either: a lossy capture would make dangling
//! parents indistinguishable from broken stamping, so the sink gets a
//! buffer sized for the whole run and the tests assert `dropped == 0`.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

use common::group_keys;
use proptest::prelude::*;
use sintra::protocols::channel::AtomicChannelConfig;
use sintra::runtime::tcp::{TcpConfig, TcpGroup};
use sintra::runtime::{ObservabilityConfig, PartyHandle};
use sintra::testbed::profile::{causal_resolution, find_trace_files, merge_streams, MergedTrace};
use sintra::ProtocolId;

/// Runs `f` on a worker thread and fails the test if it neither
/// finishes nor panics within `secs` (same guard as the TCP suite).
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

/// A fresh, collision-free trace directory for one run.
fn trace_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "sintra-causal-{tag}-{}-{unique}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create trace dir");
    dir
}

/// Observability with the streaming sink on.
fn traced_observability(dir: &std::path::Path) -> ObservabilityConfig {
    ObservabilityConfig {
        trace: Some(dir.to_path_buf()),
        ..ObservabilityConfig::default()
    }
}

/// Submits `commands` through rotating parties and drives every replica
/// until each has delivered all of them.
fn drive<H: PartyHandle>(handles: &mut [H], channel: &ProtocolId, commands: usize) {
    for h in handles.iter() {
        h.create_atomic_channel(channel.clone(), AtomicChannelConfig::default());
    }
    for c in 0..commands {
        handles[c % handles.len()].send(channel, format!("cmd-{c}").into_bytes());
    }
    for h in handles.iter_mut() {
        for _ in 0..commands {
            assert!(h.receive(channel).is_some(), "replica lost a delivery");
        }
    }
}

/// Merges the run's segments and asserts the causal-closure property.
fn assert_causally_closed(dir: &std::path::Path, parties: usize) -> MergedTrace {
    let files = find_trace_files(dir).expect("list trace files");
    assert_eq!(files.len(), parties, "one segment per party expected");
    let trace = merge_streams(&files).expect("merge streams");
    assert_eq!(
        trace.dropped, 0,
        "sink overflowed — property would be vacuous"
    );
    assert_eq!(trace.parties.len(), parties);
    let resolution = causal_resolution(&trace);
    assert!(
        resolution.caused > 0,
        "run produced no caused events — nothing was traced"
    );
    assert_eq!(
        resolution.resolved, resolution.caused,
        "dangling causal parents: {:?}",
        resolution.dangling
    );
    let _ = std::fs::remove_dir_all(dir);
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    // Any short broadcast workload over real loopback-TCP sockets leaves
    // a merged trace whose every non-anchor event resolves its causal
    // parent: framing and link retransmission must not break the chain.
    #[test]
    fn tcp_traces_are_causally_closed(
        seed in 1u64..1_000,
        commands in 1usize..4,
    ) {
        with_deadline(120, move || {
            let dir = trace_dir("tcp");
            let keys = group_keys(4, 1, seed);
            let config = TcpConfig {
                observability: Some(traced_observability(&dir)),
                ..TcpConfig::default()
            };
            let (group, mut handles) =
                TcpGroup::spawn_with(keys, config, None).expect("spawn tcp group");
            let channel = ProtocolId::new("causal-prop-tcp");
            drive(&mut handles, &channel, commands);
            group.shutdown();
            assert_causally_closed(&dir, 4);
        });
    }
}
