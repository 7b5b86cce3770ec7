//! Integration tests for the telemetry layer: a real 4-party atomic
//! broadcast run must produce consistent counters, trace events and a
//! well-formed run report.

mod common;

use std::sync::Arc;

use common::{group_keys, lan_sim};
use sintra::protocols::channel::AtomicChannelConfig;
use sintra::runtime::tcp::{TcpConfig, TcpGroup};
use sintra::runtime::PartyHandle;
use sintra::telemetry::{MetricsRegistry, RunReport};
use sintra::ProtocolId;

#[test]
fn sim_run_produces_consistent_counters() {
    let pid = ProtocolId::new("telemetry-ac");
    let mut sim = lan_sim(4, 1, 71);
    let registry = Arc::new(MetricsRegistry::new());
    registry.set_trace_capture(true);
    sim.set_recorder(registry.clone());
    for p in 0..4 {
        sim.node_mut(p)
            .create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
    }
    for p in 0..4 {
        let spid = pid.clone();
        sim.schedule(0, p, move |node, out| {
            node.channel_send(&spid, format!("t{p}").into_bytes(), out);
        });
    }
    let end_us = sim.run();

    let snapshot = registry.snapshot();
    let sent = snapshot.counter_total("msgs_sent");
    let delivered = snapshot.counter_total("msgs_delivered");
    let dropped = snapshot.counter_total("msgs_dropped");
    assert!(sent > 0, "a live run transmits messages");
    assert_eq!(sent, delivered + dropped, "message conservation");
    assert!(snapshot.counter_total("bytes_sent") > 0);
    assert!(
        snapshot.counter("telemetry-ac", "rounds") > 0,
        "atomic rounds observed"
    );
    assert!(
        snapshot.counter_total("crypto_work_milli") > 0,
        "crypto work attributed"
    );
    assert_eq!(
        snapshot.counter_total("deliveries"),
        16,
        "4 payloads x 4 parties"
    );

    // Trace events were captured, with virtual timestamps and the
    // channel's protocol family.
    let traces = registry.take_traces();
    assert!(!traces.is_empty(), "trace stream captured");
    assert!(traces.iter().any(|t| t.family == "atomic"));
    assert!(traces.iter().all(|t| t.time_us <= end_us));

    // The report reproduces the counters and serializes both ways.
    let report = RunReport::from_snapshot("integration", 4, end_us, &snapshot);
    let totals = report.totals();
    assert_eq!(totals.msgs_sent, sent);
    let json = report.to_json();
    assert!(json.contains("\"label\":\"integration\""));
    assert!(report.to_table().contains("telemetry-ac"));
}

#[test]
fn sim_without_recorder_stays_silent() {
    // A plain run must not panic and (trivially) records nothing; this
    // guards the noop default path used by all other tests.
    let pid = ProtocolId::new("telemetry-off");
    let mut sim = lan_sim(4, 1, 72);
    for p in 0..4 {
        sim.node_mut(p)
            .create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
    }
    let spid = pid.clone();
    sim.schedule(0, 0, move |node, out| {
        node.channel_send(&spid, b"quiet".to_vec(), out);
    });
    sim.run();
    assert_eq!(sim.channel_deliveries(2, &pid).len(), 1);
}

/// The wall-clock runtime (one server thread per party, over loopback
/// TCP) counts traffic and rounds through the same recorder.
#[test]
fn threaded_runtime_reports_traffic() {
    let registry = Arc::new(MetricsRegistry::new());
    let (group, mut handles) = TcpGroup::spawn_with(
        group_keys(4, 1, 73),
        TcpConfig::default(),
        Some(registry.clone()),
    )
    .expect("bind loopback");
    let pid = ProtocolId::new("telemetry-threads");
    for h in &handles {
        h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
    }
    handles[0].send(&pid, b"counted".to_vec());
    for h in handles.iter_mut() {
        assert_eq!(h.receive(&pid).unwrap().data, b"counted");
    }
    group.shutdown();

    let snapshot = registry.snapshot();
    let scope = "telemetry-threads";
    assert!(snapshot.counter(scope, "msgs_sent") > 0);
    assert!(snapshot.counter(scope, "msgs_delivered") > 0);
    assert!(snapshot.counter(scope, "bytes_sent") > 0);
    assert!(
        snapshot.counter(scope, "rounds") > 0,
        "wall-clock runtime derives round counts too"
    );
}
