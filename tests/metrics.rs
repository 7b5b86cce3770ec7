//! Integration tests for the live metrics plane: real loopback-TCP
//! groups serving per-party scrape endpoints.
//!
//! Three properties matter beyond "the numbers exist": the endpoint
//! answers *while the protocol is wedged* (a stalled group is exactly
//! when an operator scrapes it), the `stalled` gauge tracks the stall
//! detector through recovery — not just into the incident — and the
//! scrape socket dies with its group so monitoring fails fast instead of
//! reading a half-torn-down party.

mod common;

use std::net::SocketAddr;
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

use common::group_keys;
use sintra::protocols::channel::AtomicChannelConfig;
use sintra::runtime::tcp::{TcpConfig, TcpGroup};
use sintra::runtime::{MetricsConfig, ObservabilityConfig, PartyHandle};
use sintra::testbed::scrape::{missing_series, negative_rates, scrape};
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

/// A fresh per-test dump directory under the system temp dir.
fn dump_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sintra-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dump dir");
    dir
}

fn metrics_config(quiet_ms: u64, dir: &std::path::Path) -> TcpConfig {
    TcpConfig {
        observability: Some(ObservabilityConfig {
            quiet: Duration::from_millis(quiet_ms),
            dump_dir: dir.to_path_buf(),
            metrics: Some(MetricsConfig::default()),
            ..ObservabilityConfig::default()
        }),
        ..TcpConfig::default()
    }
}

/// Polls one party's scrape endpoint until `sintra_stalled` reads
/// `want`, panicking if it never does.
fn await_stalled(addr: SocketAddr, party: &str, want: f64, deadline: Duration) {
    let until = Instant::now() + deadline;
    loop {
        let exposition = scrape(addr, Duration::from_secs(2)).expect("scrape answers");
        if exposition.value("sintra_stalled", &[("party", party)]) == Some(want) {
            return;
        }
        assert!(
            Instant::now() < until,
            "stalled gauge never reached {want} for party {party}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The CI `metrics-smoke` scenario: a live n = 4 group over loopback
/// TCP, every party scraped twice. Each exposition must parse, carry the
/// key series of every layer (protocol counters, phase attribution,
/// latency histograms, link gauges, the stall verdict), label itself
/// with the right party, and every counter's windowed rate between the
/// two scrapes must be finite and non-negative.
#[test]
fn scrape_smoke_over_live_tcp_group() {
    with_deadline(180, || {
        let dir = dump_dir("metrics-smoke");
        let (group, mut handles) =
            TcpGroup::spawn_with(group_keys(4, 1, 4100), metrics_config(2000, &dir), None)
                .expect("bind loopback");
        let addrs = group.metrics_addrs();
        assert_eq!(addrs.len(), 4, "one scrape endpoint per party");

        let pid = ProtocolId::new("metrics-smoke");
        for h in &handles {
            h.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
        for (i, h) in handles.iter().enumerate() {
            for k in 0..10 {
                h.send(&pid, format!("{i}:{k}").into_bytes());
            }
        }
        for h in handles.iter_mut() {
            for _ in 0..40 {
                h.receive(&pid).expect("live channel");
            }
        }

        let key_series = [
            "sintra_msgs_sent_total",
            "sintra_bytes_sent_total",
            "sintra_msgs_delivered_total",
            "sintra_deliveries_total",
            "sintra_crypto_work_milli_total",
            "sintra_dispatch_us_total",
            "sintra_net_dispatch_us_total",
            "sintra_flush_us_total",
            "sintra_delivery_latency_us_bucket",
            "sintra_delivery_latency_us_count",
            "sintra_stalled",
            "sintra_inbox_depth",
            "sintra_retransmit_queue_bytes",
            "sintra_retransmit_queue_bytes_hwm",
        ];
        let first: Vec<_> = addrs
            .iter()
            .map(|&addr| scrape(addr, Duration::from_secs(5)).expect("first scrape"))
            .collect();
        std::thread::sleep(Duration::from_millis(200));
        let elapsed = Duration::from_millis(200);
        for (party, (&addr, before)) in addrs.iter().zip(&first).enumerate() {
            let now = scrape(addr, Duration::from_secs(5)).expect("second scrape");
            assert_eq!(
                now.label_values("party"),
                vec![party.to_string()],
                "every series of party {party} carries its own label"
            );
            let missing = missing_series(&now, &key_series);
            assert!(missing.is_empty(), "party {party} scrape lacks {missing:?}");
            let bad = negative_rates(before, &now, elapsed);
            assert!(bad.is_empty(), "party {party} has bad rates in {bad:?}");
            // The latency histogram saw this party's own 10 sends.
            assert_eq!(
                now.value(
                    "sintra_delivery_latency_us_count",
                    &[("scope", "metrics-smoke")]
                ),
                Some(10.0)
            );
            assert!(
                now.quantile(
                    "sintra_delivery_latency_us",
                    &[("scope", "metrics-smoke")],
                    0.95
                )
                .expect("p95 exists")
                    > 0.0
            );
            // 40 channel deliveries reached the application.
            assert_eq!(
                now.value("sintra_deliveries_total", &[("scope", "metrics-smoke")]),
                Some(40.0)
            );
        }
        group.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// The stall detector's verdict must be scrapeable through a wedge and
/// flip back on recovery: two of four proposals leave binary agreement
/// short of its `n - t = 3` quorum (stalled = 1, endpoint still
/// answering), the missing proposals arrive (stalled = 0), and group
/// shutdown closes the scrape socket cleanly.
#[test]
fn stalled_gauge_tracks_wedge_and_recovery() {
    with_deadline(180, || {
        let dir = dump_dir("metrics-stall");
        let (group, mut handles) =
            TcpGroup::spawn_with(group_keys(4, 1, 4200), metrics_config(300, &dir), None)
                .expect("bind loopback");
        let addrs = group.metrics_addrs();
        let pid = ProtocolId::new("metrics-ba");
        for h in &handles {
            h.create_binary_agreement(pid.clone(), None, None);
        }
        // Two proposals cannot form any 3-party quorum: every party now
        // has the instance live with pending work and no way to make
        // progress — the stall detector must fire, and the scrape
        // endpoint must keep answering while it does.
        handles[0].propose_binary(&pid, true, Vec::new());
        handles[1].propose_binary(&pid, true, Vec::new());
        await_stalled(addrs[0], "0", 1.0, Duration::from_secs(60));

        // Recovery: the missing proposals arrive, agreement decides, and
        // the fresh input flips the gauge back at the next scrape.
        handles[2].propose_binary(&pid, true, Vec::new());
        handles[3].propose_binary(&pid, true, Vec::new());
        for h in handles.iter_mut() {
            let (value, _) = h.decide_binary(&pid).expect("agreement decides");
            assert!(value, "all-true proposals decide true");
        }
        await_stalled(addrs[0], "0", 0.0, Duration::from_secs(60));

        // The endpoint dies with its group — a scraper fails fast
        // instead of reading a half-torn-down party.
        group.shutdown();
        for addr in addrs {
            assert!(
                scrape(addr, Duration::from_secs(2)).is_err(),
                "scrape socket closed on shutdown"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}
