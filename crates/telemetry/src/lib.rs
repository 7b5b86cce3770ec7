//! Telemetry layer for the SINTRA stack.
//!
//! This crate is deliberately dependency-free so every other workspace
//! crate can use it without pulling anything into the hot path:
//!
//! * [`Recorder`] — the object-safe sink trait protocols and runtimes
//!   report into. The default [`NoopRecorder`] answers
//!   [`Recorder::enabled`] with `false`, so instrumented code pays one
//!   predictable branch when telemetry is off.
//! * [`MetricsRegistry`] — a concrete `Recorder` built from atomics:
//!   counters and gauges are `AtomicU64`s behind a sharded read-mostly
//!   map, histograms use log-linear buckets with relaxed atomic
//!   increments.
//! * [`render_exposition`] / [`Exposition`] — the live metrics plane's
//!   wire format: a Prometheus-style text rendering of a
//!   [`MetricsSnapshot`] with deterministic series ordering, a parser
//!   for it, and windowed rates between successive scrapes
//!   ([`Exposition::rate_since`]).
//! * [`TraceEvent`] — one structured record per interesting protocol
//!   step (phase transitions, round advances, deliveries), stamped with
//!   virtual time by the simulator or wall-clock micros by the TCP
//!   runtime.
//! * [`TraceStream`] — the streaming trace sink: a double-buffered,
//!   off-thread writer spilling events to rotating per-party `.jsonl`
//!   segments (schema [`TRACE_SCHEMA`]), so healthy runs leave a causal
//!   trace behind, not just stalled ones.
//! * [`RunReport`] — a per-protocol-instance rollup of a finished run
//!   (message/byte/round/crypto-work totals) that renders as both JSON
//!   and a human-readable table, mirroring the per-channel breakdowns of
//!   Table 1 in the SINTRA paper.

#![forbid(unsafe_code)]

mod exposition;
mod flight;
mod histogram;
mod json;
mod recorder;
mod registry;
mod report;
mod stream;
mod trace;

pub use exposition::{render_exposition, Exposition, Series, SERIES_PREFIX};
pub use flight::{render_dump, FlightRecorder, SnapshotWriter, StateSnapshot, DUMP_SCHEMA};
pub use histogram::{Histogram, HistogramSnapshot, BUCKETS, SUB_BUCKETS};
pub use json::{parse_json, JsonError, JsonValue};
pub use recorder::{FanoutRecorder, NoopRecorder, Recorder};
pub use registry::{MetricsRegistry, MetricsSnapshot};
pub use report::{ProtocolRow, RunReport, BATCH_SIZE, DELIVERY_LATENCY};
pub use stream::{segment_file_name, TraceStream, TraceStreamConfig, TRACE_SCHEMA};
pub use trace::{json_escape, TraceEvent};

/// Scale factor between floating-point crypto work units and the
/// integer `crypto_work_milli` counter: 1 work unit = 1000 milliunits.
pub const CRYPTO_WORK_MILLI: f64 = 1000.0;

/// Maps a protocol instance id to its reporting scope: the root segment
/// of the id, i.e. the top-level channel or protocol instance that all
/// sub-protocol activity is attributed to.
///
/// ```
/// assert_eq!(sintra_telemetry::root_scope("atomic/ba/7"), "atomic");
/// assert_eq!(sintra_telemetry::root_scope("vcb"), "vcb");
/// ```
pub fn root_scope(pid: &str) -> &str {
    match pid.find('/') {
        Some(i) => &pid[..i],
        None => pid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_scope_strips_sub_protocol_path() {
        assert_eq!(root_scope("atomic/rb/3/echo"), "atomic");
        assert_eq!(root_scope("abba"), "abba");
        assert_eq!(root_scope(""), "");
    }
}
