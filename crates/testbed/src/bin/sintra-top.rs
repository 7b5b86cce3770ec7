//! `sintra-top` — a live, whole-group view of the metrics plane.
//!
//! ```text
//! sintra-top [--interval-ms N] [--iterations N] ADDR [ADDR ...]
//! sintra-top --demo [--interval-ms N] [--iterations N]
//! ```
//!
//! Scrapes every party's metrics endpoint on an interval and renders one
//! table row per party: windowed message/byte/delivery rates (deltas
//! between successive scrapes), p50/p95 end-to-end delivery latency from
//! the exposed histograms, the server loop's phase-time breakdown
//! (dispatch + flush wall time and metered crypto work), link
//! retransmission-queue depth, and the stall detector's verdict.
//!
//! `--demo` spawns its own 4-party loopback-TCP group with background
//! traffic, so the tool can be tried without a running deployment:
//! `cargo run --release -p sintra-testbed --bin sintra-top -- --demo`.
//!
//! `--once` is the scripting mode: scrape every endpoint a single time,
//! print one table, and exit non-zero when any party is unreachable or
//! its stall detector reports `sintra_stalled 1` — usable directly as a
//! health check in CI or a deploy gate.

#![forbid(unsafe_code)]

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sintra_telemetry::Exposition;
use sintra_testbed::scrape::scrape;

/// One party's parsed scrape plus when it was taken — the unit rates are
/// computed between.
struct Sample {
    at: Instant,
    exposition: Exposition,
}

/// Sums one counter family's windowed rate across every scope label.
fn family_rate(prev: &Sample, next: &Sample, name: &str) -> f64 {
    let elapsed = next.at.duration_since(prev.at);
    next.exposition
        .all(name, &[])
        .iter()
        .map(|series| {
            let want: Vec<(&str, &str)> = series
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            next.exposition
                .rate_since(&prev.exposition, name, &want, elapsed)
                .unwrap_or(0.0)
        })
        .sum()
}

/// Largest delivery-latency quantile across the party's channels, in
/// milliseconds ("worst channel wins" keeps one column per party).
fn latency_ms(sample: &Sample, q: f64) -> Option<f64> {
    sample
        .exposition
        .label_values("scope")
        .iter()
        .filter_map(|scope| {
            sample
                .exposition
                .quantile("sintra_delivery_latency_us", &[("scope", scope)], q)
        })
        .fold(None, |best: Option<f64>, v| {
            Some(best.map_or(v, |b| b.max(v)))
        })
        .map(|us| us / 1000.0)
}

fn fmt_rate(v: f64) -> String {
    if v >= 10_000.0 {
        format!("{:.0}k", v / 1000.0)
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

fn fmt_opt_ms(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |ms| format!("{ms:.1}"))
}

/// Renders one refresh of the table.
fn render(samples: &[(SocketAddr, Option<Sample>, Option<Sample>)]) {
    println!(
        "{:>5}  {:>8}  {:>9}  {:>7}  {:>8}  {:>8}  {:>6}  {:>9}  {:>8}  {:>7}",
        "party",
        "msgs/s",
        "bytes/s",
        "dlv/s",
        "p50 ms",
        "p95 ms",
        "busy%",
        "crypto",
        "rtxq B",
        "stalled"
    );
    for (addr, prev, next) in samples {
        let Some(next) = next else {
            println!("{:>5}  unreachable ({addr})", "?");
            continue;
        };
        let party = next
            .exposition
            .label_values("party")
            .first()
            .cloned()
            .unwrap_or_else(|| "?".to_string());
        let (msgs, bytes, dlv, busy, crypto) = match prev {
            Some(prev) => {
                let msgs = family_rate(prev, next, "sintra_msgs_sent_total");
                let bytes = family_rate(prev, next, "sintra_bytes_sent_total");
                let dlv = family_rate(prev, next, "sintra_deliveries_total");
                // Wall time the loop spent dispatching and flushing, as a
                // percentage of the window (µs/s ÷ 10^4 = %).
                let busy_us = family_rate(prev, next, "sintra_net_dispatch_us_total")
                    + family_rate(prev, next, "sintra_timer_dispatch_us_total")
                    + family_rate(prev, next, "sintra_cmd_dispatch_us_total")
                    + family_rate(prev, next, "sintra_flush_us_total");
                let crypto = family_rate(prev, next, "sintra_crypto_work_milli_total");
                (
                    fmt_rate(msgs),
                    fmt_rate(bytes),
                    fmt_rate(dlv),
                    format!("{:.1}", busy_us / 10_000.0),
                    format!("{crypto:.0}ms/s"),
                )
            }
            None => (
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ),
        };
        let rtxq = next
            .exposition
            .value("sintra_retransmit_queue_bytes", &[])
            .map_or_else(|| "-".to_string(), |v| format!("{v:.0}"));
        let stalled = match next.exposition.value("sintra_stalled", &[]) {
            Some(v) if v > 0.0 => "YES",
            Some(_) => "no",
            None => "-",
        };
        println!(
            "{party:>5}  {msgs:>8}  {bytes:>9}  {dlv:>7}  {:>8}  {:>8}  {busy:>6}  {crypto:>9}  {rtxq:>8}  {stalled:>7}",
            fmt_opt_ms(latency_ms(next, 0.5)),
            fmt_opt_ms(latency_ms(next, 0.95)),
        );
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sintra-top [--interval-ms N] [--iterations N] [--once] ADDR [ADDR ...]\n  \
         sintra-top --demo [--interval-ms N] [--iterations N]\n\
         (--once: scrape each endpoint once; exit non-zero if any party is\n  \
         unreachable or stalled — for scripts and CI health checks)"
    );
    ExitCode::FAILURE
}

/// The `--once` health verdict over a finished round of scrapes:
/// `Err` lists every party that is unreachable or reports a stall.
fn health_check(
    samples: &[(SocketAddr, Option<Sample>, Option<Sample>)],
) -> Result<(), Vec<String>> {
    let mut failures = Vec::new();
    for (addr, _, next) in samples {
        match next {
            None => failures.push(format!("{addr}: unreachable")),
            Some(sample) => {
                if sample
                    .exposition
                    .value("sintra_stalled", &[])
                    .unwrap_or(0.0)
                    > 0.0
                {
                    failures.push(format!("{addr}: stalled"));
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

/// A self-contained 4-party loopback-TCP group with background traffic,
/// so the tool has something to watch without a deployment.
mod demo {
    use super::*;
    use sintra_core::channel::AtomicChannelConfig;
    use sintra_core::ProtocolId;
    use sintra_crypto::dealer::{deal, DealerConfig, PartyKeys};
    use sintra_net::tcp::{TcpConfig, TcpGroup};
    use sintra_net::{ObservabilityConfig, PartyHandle};

    pub struct Demo {
        group: Option<TcpGroup>,
        drivers: Vec<std::thread::JoinHandle<()>>,
    }

    impl Demo {
        pub fn spawn() -> Result<(Demo, Vec<SocketAddr>), String> {
            let (n, t) = (4, 1);
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
            let keys: Vec<Arc<PartyKeys>> = deal(&DealerConfig::small(n, t), &mut rng)
                .map_err(|e| format!("dealer: {e:?}"))?
                .into_iter()
                .map(Arc::new)
                .collect();
            let config = TcpConfig {
                observability: Some(ObservabilityConfig::with_metrics()),
                ..TcpConfig::default()
            };
            let (group, handles) =
                TcpGroup::spawn_with(keys, config, None).map_err(|e| format!("spawn: {e}"))?;
            let addrs = group.metrics_addrs();
            let channel = ProtocolId::new("demo-feed");
            for handle in &handles {
                handle.create_atomic_channel(channel.clone(), AtomicChannelConfig::default());
            }
            // One driver thread per party: send, wait for the delivery,
            // pace, repeat — steady traffic until the group shuts down
            // (receive then returns None and the thread exits).
            let drivers = handles
                .into_iter()
                .enumerate()
                .map(|(i, mut handle)| {
                    let pid = channel.clone();
                    std::thread::spawn(move || loop {
                        handle.send(&pid, format!("tick from {i}").into_bytes());
                        if handle.receive(&pid).is_none() {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    })
                })
                .collect();
            Ok((
                Demo {
                    group: Some(group),
                    drivers,
                },
                addrs,
            ))
        }

        pub fn stop(mut self) {
            if let Some(group) = self.group.take() {
                group.shutdown();
            }
            for driver in self.drivers.drain(..) {
                let _ = driver.join();
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut interval = Duration::from_millis(1000);
    let mut iterations: usize = 0;
    let mut demo = false;
    let mut once = false;
    let mut addrs: Vec<SocketAddr> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--demo" => demo = true,
            "--once" => once = true,
            "--interval-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => interval = Duration::from_millis(ms),
                None => return usage(),
            },
            "--iterations" => match it.next().and_then(|v| v.parse().ok()) {
                Some(count) => iterations = count,
                None => return usage(),
            },
            other => match other.parse() {
                Ok(addr) => addrs.push(addr),
                Err(_) => {
                    eprintln!("sintra-top: not an address: {other}");
                    return usage();
                }
            },
        }
    }

    if once {
        iterations = 1;
    }
    let demo_group = if demo {
        if iterations == 0 {
            iterations = 10;
        }
        match demo::Demo::spawn() {
            Ok((demo, demo_addrs)) => {
                eprintln!("sintra-top: demo group scrape endpoints: {demo_addrs:?}");
                addrs = demo_addrs;
                Some(demo)
            }
            Err(err) => {
                eprintln!("sintra-top: demo spawn failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    if addrs.is_empty() {
        return usage();
    }

    let mut samples: Vec<(SocketAddr, Option<Sample>, Option<Sample>)> =
        addrs.iter().map(|&a| (a, None, None)).collect();
    let mut round = 0usize;
    loop {
        for (addr, prev, next) in &mut samples {
            *prev = next.take();
            *next = scrape(*addr, Duration::from_secs(2))
                .ok()
                .map(|exposition| Sample {
                    at: Instant::now(),
                    exposition,
                });
        }
        println!();
        render(&samples);
        round += 1;
        if iterations != 0 && round >= iterations {
            break;
        }
        std::thread::sleep(interval);
    }
    if let Some(demo) = demo_group {
        demo.stop();
    }
    if once {
        if let Err(failures) = health_check(&samples) {
            for failure in &failures {
                eprintln!("sintra-top: FAIL: {failure}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!("sintra-top: all {} part(y/ies) healthy", samples.len());
    }
    ExitCode::SUCCESS
}
