//! The traced pass: every per-layer metric, from three sources.
//!
//! 1. Isolated drives — unit costs of bigint and crypto primitives.
//! 2. The replay driver — per-hop CPU and exact counts per payload.
//! 3. The workload itself, run once plain and once with what the
//!    runtimes already offer switched on through public configuration
//!    (a `MetricsRegistry` as recorder, the streaming trace sink), no new
//!    instrumentation in the program.
//!
//! The ledger then reconciles outside in: end-to-end CPU per payload,
//! minus the replayed layers (per message, times the messages the
//! runtime handled), minus what counters attribute (acks sent × the
//! replay's cost of one), leaves `ledger.gap_share` — CPU nobody
//! accounts for (reader and writer threads, syscalls, thread hand-offs,
//! the generator's polling). End-to-end numbers never come from this
//! pass.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sintra_net::tcp::{TcpConfig, LINK_SCOPE};
use sintra_net::ObservabilityConfig;
use sintra_telemetry::{MetricsRegistry, MetricsSnapshot, Recorder, CRYPTO_WORK_MILLI};
use sintra_testbed::profile;

use crate::record::{Measured, Metric};
use crate::span::SpanLog;
use crate::workload::{Runtime, Spec, PER_LAYER};
use crate::{drive, isolated, replay, slices, stats, RunOpts};

/// Requests the replay driver pushes through (rounded down to a whole
/// number of full windows).
const REPLAY_PAYLOADS: u64 = 120;

/// Critical-path shares of the traced run's streams, per
/// [`profile::BUCKETS`] entry, plus mean coverage. Zeros when there are
/// no streams (simulator workloads have no `net:send`/`net:recv`).
fn profile_shares(streams: &Path) -> Result<(BTreeMap<&'static str, f64>, f64), String> {
    let files = profile::find_trace_files(streams)?;
    let merged = profile::merge_streams(&files)?;
    let analysis = profile::analyze(&merged);
    let total: u64 = analysis.totals.values().sum();
    let shares = profile::BUCKETS
        .iter()
        .map(|bucket| {
            let us = analysis.totals.get(bucket).copied().unwrap_or(0);
            (*bucket, us as f64 / total.max(1) as f64)
        })
        .collect();
    let (attributed, wall) = analysis.rounds.iter().fold((0u64, 0u64), |(a, w), r| {
        (a + r.attributed_us, w + r.wall_us())
    });
    Ok((shares, attributed as f64 / wall.max(1) as f64))
}

/// Runs the three parts and assembles the per-layer metrics, one value
/// per [`PER_LAYER`] entry in that order (`samples` and the host stamps
/// describe the plain run). Spans go
/// to `span_file`; the trace sink's streams live (briefly) next to it.
pub fn run(spec: &Spec, opts: &RunOpts, span_file: &Path) -> Measured {
    let mut log = SpanLog::default();
    let keys = spec.deal_keys(opts.key_bits);
    let mut values: BTreeMap<String, f64> = isolated::run(&keys, opts.seed, &mut log)
        .into_iter()
        .collect();

    let per_window = (spec.senders * spec.window) as u64;
    let replayed = replay::run(
        spec,
        &keys,
        opts.seed,
        (REPLAY_PAYLOADS / per_window).max(1) * per_window,
        &mut log,
    );

    // The workload twice, half the window each: plain, then traced.
    let half = |process_start| RunOpts {
        seconds: opts.seconds / 2.0,
        warmup_s: opts.warmup_s / 2.0,
        process_start,
        ..opts.clone()
    };
    let plain = drive(spec, &half(Instant::now()), TcpConfig::default(), None);
    let streams = span_file.with_extension("streams");
    let _ = std::fs::remove_dir_all(&streams);
    let registry = Arc::new(MetricsRegistry::new());
    let observed = TcpConfig {
        observability: Some(ObservabilityConfig {
            dump_dir: streams.clone(),
            ..ObservabilityConfig::with_trace_dir(&streams)
        }),
        ..TcpConfig::default()
    };
    let traced = drive(
        spec,
        &half(Instant::now()),
        observed,
        Some(registry.clone() as Arc<dyn Recorder>),
    );
    let snapshot = registry.snapshot();

    let modexp_ms = values["bigint.modexp_1024x1024_us"] / 1000.0;
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };

    // --- replay: hops and handler families -----------------------------
    let handle = replayed.handle_ms_per_payload(|_| true);
    let per_payload = |count: u64| count as f64 / replayed.payloads as f64;
    put("core.handle_ms_per_payload", handle);
    put(
        "core.channel_ms_per_payload",
        replayed.handle_ms_per_payload(|k| {
            k.starts_with("ac-") || k.starts_with("sc-") || k.starts_with("channel-")
        }),
    );
    put(
        "core.broadcast_ms_per_payload",
        replayed.handle_ms_per_payload(|k| k.starts_with("cb-") || k.starts_with("rb-")),
    );
    put(
        "core.agreement_ms_per_payload",
        replayed.handle_ms_per_payload(|k| k.starts_with("ba-") || k.starts_with("vba-")),
    );
    let encode_us = replayed.hop_us_per_payload("wire.encode");
    let decode_us = replayed.hop_us_per_payload("wire.decode");
    let seal_us = replayed.hop_us_per_payload("link.seal");
    let open_us = replayed.hop_us_per_payload("link.open");
    put("core.wire_encode_us_per_payload", encode_us);
    put("core.wire_decode_us_per_payload", decode_us);
    put("net.link_seal_us_per_payload", seal_us);
    put("net.link_open_us_per_payload", open_us);
    put(
        "net.link_frame_bytes_per_payload",
        per_payload(replayed.counts.frame_bytes),
    );

    // --- counts: exact from the replay; on a simulator workload, from
    // the simulation's own statistics (exact per seed as well) ---------
    let (msgs, wire_bytes, rounds, work_units) = match traced.sim_traffic {
        Some((messages, bytes)) => {
            let done = traced.outcome.returned as f64;
            // One `atomic:batch` observation per party per decided round.
            let batches = snapshot
                .histograms
                .get(spec.name)
                .and_then(|scope| scope.get("batch_size"))
                .map_or(0, |h| h.count);
            let all_rounds = batches as f64 / spec.n as f64;
            let work = snapshot.counter(spec.name, "crypto_work_milli") as f64 / CRYPTO_WORK_MILLI;
            (
                messages as f64 / traced.outcome.completed() as f64,
                bytes as f64 / traced.outcome.completed() as f64,
                all_rounds / done,
                work / done,
            )
        }
        None => (
            per_payload(replayed.counts.msgs),
            per_payload(replayed.counts.wire_bytes),
            per_payload(replayed.counts.rounds),
            replayed.work_units / replayed.payloads as f64,
        ),
    };
    put("core.msgs_per_payload", msgs);
    put("core.wire_bytes_per_payload", wire_bytes);
    put("core.rounds_per_payload", rounds);
    put("core.payloads_per_round", 1.0 / rounds);
    put("crypto.work_units_per_payload", work_units);
    let replay_work = replayed.work_units / replayed.payloads as f64;
    put("core.self_ms_per_payload", handle - replay_work * modexp_ms);

    // --- the workload's own runs ---------------------------------------
    let e2e_cpu = plain.cpu_ms_per_payload();
    // Real CPU per payload is the one cost both runtimes share; on a
    // pinned, CPU-bound TCP run its ratio is the throughput ratio.
    put(
        "telemetry.trace_overhead_ratio",
        traced.cpu_ms_per_payload() / e2e_cpu,
    );
    // Hops the runtime actually performs: the simulator hands envelopes
    // over in memory (it encodes once, for the byte count). The replay
    // delivers instantly and in FIFO order; a runtime with delays runs
    // more rounds and messages per payload (abc4_wan: 87 against the
    // replay's 64), so the replayed cost is taken per message and
    // multiplied by the messages the runtime itself handled.
    let is_tcp = matches!(spec.runtime, Runtime::Tcp);
    let per_replay_payload = if is_tcp {
        handle + (encode_us + decode_us + seal_us + open_us) / 1000.0
    } else {
        handle + encode_us / 1000.0
    };
    let runtime_msgs = if is_tcp {
        snapshot.counter(spec.name, "msgs_delivered") as f64 / traced.outcome.returned.max(1) as f64
    } else {
        msgs
    };
    let replay_total = per_replay_payload * runtime_msgs / per_payload(replayed.counts.msgs);
    put(
        "net.runtime_overhead_ms_per_payload",
        e2e_cpu - replay_total,
    );
    let server = |name: &str| {
        snapshot.counter("server", name) as f64 / 1000.0 / traced.outcome.returned.max(1) as f64
    };
    let dispatch =
        server("net_dispatch_us") + server("cmd_dispatch_us") + server("timer_dispatch_us");
    let flush = server("flush_us");
    put("net.server_dispatch_ms_per_payload", dispatch);
    put("net.server_flush_ms_per_payload", flush);
    put_link_counters(&snapshot, &mut put);
    put(
        "net.delivery_gap_max_ms",
        traced.outcome.delivery_gap_max_ms,
    );
    // What a counter can attribute beyond the replayed hops: the acks
    // the links exchanged, at the replay's cost per ack. (The server
    // loop's phase counters above are wall time; on one core they grow
    // with the number of runnable threads and attribute no CPU.)
    let ack_ms = replayed.hop_us_per_payload("link.ack") / 1000.0 * replayed.payloads as f64
        / replayed.counts.acks.max(1) as f64;
    let acks_per_payload =
        snapshot.counter(LINK_SCOPE, "acks_sent") as f64 / traced.outcome.returned.max(1) as f64;
    put(
        "ledger.gap_share",
        (e2e_cpu - replay_total - acks_per_payload * ack_ms) / e2e_cpu,
    );

    let (shares, coverage) = if is_tcp {
        profile_shares(&streams).unwrap_or_else(|err| {
            eprintln!("sintra-bench: profile analysis failed: {err}");
            (BTreeMap::new(), 0.0)
        })
    } else {
        (BTreeMap::new(), 0.0)
    };
    for bucket in profile::BUCKETS {
        put(
            &format!("prof.{bucket}_share"),
            shares.get(bucket).copied().unwrap_or(0.0),
        );
    }
    put("prof.coverage", coverage);
    let _ = std::fs::remove_dir_all(&streams);

    if let Some(dir) = span_file.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(err) = std::fs::write(span_file, log.to_jsonl()) {
        eprintln!("sintra-bench: cannot write {}: {err}", span_file.display());
    }

    let outcomes = [&plain.outcome, &traced.outcome, &replayed.outcome];
    Measured {
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                let value = *values
                    .get(m.name)
                    .unwrap_or_else(|| panic!("traced pass produced no {}", m.name));
                Metric::new(m.name, value, m.unit)
            })
            .collect(),
        attempted: outcomes.iter().map(|o| o.attempted).sum(),
        failed: outcomes.iter().map(|o| o.failed).sum(),
        correct: outcomes.iter().all(|o| o.correct()),
        samples: plain.outcome.completed(),
        latency_p90_ms: stats::percentile(&plain.latencies_ms(), 0.9),
        steal_share: slices::steal_share(&plain.slices),
        host_speed: slices::host_speed(&plain.slices),
    }
}

/// Link-layer counters of the traced run (all zero on the simulator,
/// which has no links).
fn put_link_counters(snapshot: &MetricsSnapshot, put: &mut impl FnMut(&str, f64)) {
    let link = |name: &str| snapshot.counter(LINK_SCOPE, name) as f64;
    let frames = link("frames_sent");
    put(
        "net.link_acks_per_frame",
        if frames > 0.0 {
            link("acks_sent") / frames
        } else {
            0.0
        },
    );
    put("net.link_retransmits", link("retransmits"));
    put("net.link_dup_frames", link("dup_frames"));
    put(
        "net.link_drops",
        link("backpressure_drops") + link("oversized_drops") + link("msgs_dropped"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole traced pass in quick mode, once on each runtime: every
    /// per-layer metric is produced, finite, and the span file exists.
    #[test]
    fn quick_traced_pass_produces_every_layer_metric() {
        for name in ["abc4_lone", "abc7_wan"] {
            let spec = Spec::by_name(name).unwrap();
            let opts = RunOpts {
                seconds: 1.0,
                warmup_s: 0.2,
                key_bits: 128,
                ..RunOpts::new(11)
            };
            let dir =
                std::env::temp_dir().join(format!("sintra-bench-test-{}", std::process::id()));
            let span_file = dir.join(format!("{name}.spans.jsonl"));
            let traced = run(spec, &opts, &span_file);
            assert!(traced.correct && traced.failed == 0, "{name}");
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            for metric in &traced.metrics {
                assert!(metric.value.is_finite(), "{name}: {}", metric.name);
            }
            let value = |n: &str| traced.metrics.iter().find(|m| m.name == n).unwrap().value;
            assert!(value("core.msgs_per_payload") > 10.0, "{name}");
            assert!(value("core.payloads_per_round") > 0.0, "{name}");
            assert!(value("crypto.work_units_per_payload") > 0.0, "{name}");
            if name == "abc4_lone" {
                assert!(value("net.server_dispatch_ms_per_payload") > 0.0);
                assert!(value("prof.coverage") > 0.5, "{}", value("prof.coverage"));
            }
            let spans = std::fs::read_to_string(&span_file).expect("span file written");
            assert!(spans.lines().count() > 300, "{name}");
            assert!(!span_file.with_extension("streams").exists());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
