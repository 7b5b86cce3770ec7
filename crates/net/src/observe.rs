//! Live-debugging hooks for the real runtimes: the flight recorder and
//! stall detector configuration, and the dump writer both share.
//!
//! When a group is spawned with an [`ObservabilityConfig`], every server
//! loop keeps a bounded [`FlightRecorder`](sintra_telemetry::FlightRecorder)
//! of recent trace events and watches its own progress: if nothing
//! happens for [`quiet`](ObservabilityConfig::quiet) while some hosted
//! instance still has pending work, the loop serializes every instance's
//! live phase, the transport's link state and the drained event ring to
//! `sintra-dump-<party>-<reason>.json` in
//! [`dump_dir`](ObservabilityConfig::dump_dir). The same dump fires when
//! a protocol invariant panics the dispatch path (reason `invariant`)
//! and on demand via
//! [`TcpHandle::request_dump`](crate::tcp::TcpHandle::request_dump) —
//! the portable stand-in for a SIGUSR1 handler, which a dependency-free
//! workspace cannot install.
//!
//! None of this adds a thread: the ring, the stall detector, the trace
//! stream and the scrape listener all belong to the party's loop.

use std::path::PathBuf;
use std::time::Duration;

use sintra_telemetry::{render_dump, TraceEvent, TraceStream};

use crate::metrics::MetricsConfig;

/// Capacity of each party's in-memory trace-event ring; the oldest events
/// are evicted once it fills (the eviction count appears in the dump as
/// `dropped_events`).
pub(crate) const FLIGHT_RING_CAPACITY: usize = 4096;

/// Tuning for the per-party flight recorder and stall detector.
#[derive(Debug, Clone)]
pub struct ObservabilityConfig {
    /// How long the server loop may sit idle with work pending before it
    /// declares a stall and writes a dump.
    pub quiet: Duration,
    /// Directory dumps are written into.
    pub dump_dir: PathBuf,
    /// When set, every party serves a live metrics scrape endpoint (its
    /// own registry, an HTTP/1.0 listener its loop accepts from) in
    /// addition to the flight recorder; `None` keeps the metrics plane
    /// off.
    pub metrics: Option<MetricsConfig>,
    /// When set, every party's loop continuously writes its trace events
    /// to rotating `sintra-trace-<party>-<seg>.jsonl` files in this
    /// directory (see [`TraceStream`]) — so healthy runs leave a causal
    /// record for `sintra-prof`, not just stalls. The tail reaches disk
    /// whenever the loop parks, and when the party stops.
    pub trace: Option<PathBuf>,
}

impl Default for ObservabilityConfig {
    fn default() -> Self {
        ObservabilityConfig {
            quiet: Duration::from_secs(2),
            dump_dir: PathBuf::from("."),
            metrics: None,
            trace: None,
        }
    }
}

impl ObservabilityConfig {
    /// An observability config with the metrics plane on (ephemeral
    /// loopback scrape ports) and everything else at defaults.
    pub fn with_metrics() -> Self {
        ObservabilityConfig {
            metrics: Some(MetricsConfig::default()),
            ..ObservabilityConfig::default()
        }
    }

    /// An observability config with the streaming trace sink writing
    /// into `dir` and everything else at defaults.
    pub fn with_trace_dir(dir: impl Into<std::path::PathBuf>) -> Self {
        ObservabilityConfig {
            trace: Some(dir.into()),
            ..ObservabilityConfig::default()
        }
    }
}

impl ObservabilityConfig {
    /// How often the idle loop wakes to check for a stall: a quarter of
    /// `quiet`, at least 10 ms.
    pub fn effective_check_interval(&self) -> Duration {
        (self.quiet / 4).max(Duration::from_millis(10))
    }

    /// The dump path for one party/reason pair. Repeated dumps for the
    /// same reason overwrite — the latest state is the interesting one.
    pub fn dump_path(&self, party: usize, reason: &str) -> PathBuf {
        self.dump_dir
            .join(format!("sintra-dump-{party}-{reason}.json"))
    }
}

/// Opens one party's streaming trace sink when the observability config
/// asks for one. A sink that fails to open (unwritable directory) is
/// reported and skipped rather than propagated — tracing must never
/// prevent a group from spawning.
pub(crate) fn open_trace_stream(
    party: usize,
    observability: Option<&ObservabilityConfig>,
) -> Option<TraceStream> {
    let dir = observability?.trace.as_ref()?;
    match TraceStream::open(party, dir) {
        Ok(stream) => Some(stream),
        Err(err) => {
            eprintln!("sintra: party {party} failed to open trace stream: {err}");
            None
        }
    }
}

/// Renders and writes one dump file; returns its path on success. Errors
/// are reported on stderr rather than propagated — a failing dump must
/// never take down the server loop it is trying to describe.
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_dump(
    config: &ObservabilityConfig,
    party: usize,
    reason: &str,
    time_us: u64,
    quiet_us: u64,
    instances: &[String],
    links: &[String],
    events: &[TraceEvent],
    dropped: u64,
) -> Option<PathBuf> {
    let body = render_dump(
        party, reason, time_us, quiet_us, instances, links, events, dropped,
    );
    let path = config.dump_path(party, reason);
    match std::fs::write(&path, body) {
        Ok(()) => {
            eprintln!(
                "sintra: party {party} wrote {reason} dump to {}",
                path.display()
            );
            Some(path)
        }
        Err(err) => {
            eprintln!("sintra: party {party} failed to write {reason} dump: {err}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_check_interval_is_quarter_quiet() {
        let config = ObservabilityConfig::default();
        assert_eq!(
            config.effective_check_interval(),
            Duration::from_millis(500)
        );
        let fast = ObservabilityConfig {
            quiet: Duration::from_millis(20),
            ..ObservabilityConfig::default()
        };
        assert_eq!(fast.effective_check_interval(), Duration::from_millis(10));
    }

    #[test]
    fn dump_path_names_party_and_reason() {
        let config = ObservabilityConfig {
            dump_dir: PathBuf::from("/tmp/x"),
            ..ObservabilityConfig::default()
        };
        assert_eq!(
            config.dump_path(3, "stall"),
            PathBuf::from("/tmp/x/sintra-dump-3-stall.json")
        );
    }
}
