//! Concrete metrics recorder backed by atomics.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::{Histogram, HistogramSnapshot, Recorder, TraceEvent};

/// Number of shards in each metric map; scopes hash onto shards so
/// unrelated protocol instances rarely contend on the same lock.
const SHARDS: usize = 8;

/// scope → metric name → cell. Nested so the steady-state lookup
/// borrows `&str` and never allocates.
type MetricMap<V> = RwLock<HashMap<String, HashMap<&'static str, V>>>;

#[derive(Default)]
struct Shard {
    counters: MetricMap<Arc<AtomicU64>>,
    gauges: MetricMap<Arc<AtomicU64>>,
    histograms: MetricMap<Arc<Histogram>>,
}

/// A [`Recorder`] that accumulates metrics in shared atomics.
///
/// The steady-state path for a counter update is: hash the scope, take
/// a shard read lock, `fetch_add` on an existing `AtomicU64` — no
/// allocation, no exclusive lock. The write lock is only taken the
/// first time a `(scope, name)` pair is seen. Trace capture is off by
/// default (events are dropped) and can be switched on with
/// [`MetricsRegistry::set_trace_capture`].
#[derive(Default)]
pub struct MetricsRegistry {
    shards: [Shard; SHARDS],
    capture_traces: AtomicBool,
    traces: Mutex<Vec<TraceEvent>>,
}

fn shard_index(scope: &str) -> usize {
    // FNV-1a over the scope only, so all metrics of one protocol
    // instance live in one shard.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in scope.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % SHARDS as u64) as usize
}

/// Looks up an existing cell under the read lock (no allocation).
fn read_cell<V: Clone>(map: &MetricMap<V>, scope: &str, name: &str) -> Option<V> {
    map.read()
        .expect("lock poisoned")
        .get(scope)
        .and_then(|inner| inner.get(name))
        .cloned()
}

/// Gets the cell for `(scope, name)`, creating it on first use.
fn cell<V: Clone + Default>(map: &MetricMap<V>, scope: &str, name: &'static str) -> V {
    if let Some(v) = read_cell(map, scope, name) {
        return v;
    }
    map.write()
        .expect("lock poisoned")
        .entry(scope.to_string())
        .or_default()
        .entry(name)
        .or_default()
        .clone()
}

impl MetricsRegistry {
    /// Creates an empty registry with trace capture disabled.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Enables or disables storage of [`TraceEvent`]s.
    pub fn set_trace_capture(&self, on: bool) {
        self.capture_traces.store(on, Ordering::Relaxed);
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, scope: &str, name: &str) -> u64 {
        read_cell(&self.shards[shard_index(scope)].counters, scope, name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Current value of a gauge (0 when never touched).
    pub fn gauge(&self, scope: &str, name: &str) -> u64 {
        read_cell(&self.shards[shard_index(scope)].gauges, scope, name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Snapshot of a single histogram, if it exists.
    pub fn histogram(&self, scope: &str, name: &str) -> Option<HistogramSnapshot> {
        read_cell(&self.shards[shard_index(scope)].histograms, scope, name).map(|h| h.snapshot())
    }

    /// Removes and returns all captured trace events.
    pub fn take_traces(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.traces.lock().expect("trace lock poisoned"))
    }

    /// Point-in-time copy of every metric, with deterministic
    /// (lexicographic) ordering for reports and tests.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            for (scope, inner) in shard.counters.read().expect("lock poisoned").iter() {
                let out = snap.counters.entry(scope.clone()).or_default();
                for (name, c) in inner {
                    out.insert(name.to_string(), c.load(Ordering::Relaxed));
                }
            }
            for (scope, inner) in shard.gauges.read().expect("lock poisoned").iter() {
                let out = snap.gauges.entry(scope.clone()).or_default();
                for (name, c) in inner {
                    out.insert(name.to_string(), c.load(Ordering::Relaxed));
                }
            }
            for (scope, inner) in shard.histograms.read().expect("lock poisoned").iter() {
                let out = snap.histograms.entry(scope.clone()).or_default();
                for (name, h) in inner {
                    out.insert(name.to_string(), h.snapshot());
                }
            }
        }
        snap
    }
}

impl Recorder for MetricsRegistry {
    fn counter_add(&self, scope: &str, name: &'static str, delta: u64) {
        cell(&self.shards[shard_index(scope)].counters, scope, name)
            .fetch_add(delta, Ordering::Relaxed);
    }

    fn gauge_set(&self, scope: &str, name: &'static str, value: u64) {
        cell(&self.shards[shard_index(scope)].gauges, scope, name).store(value, Ordering::Relaxed);
    }

    fn observe(&self, scope: &str, name: &'static str, value: u64) {
        cell(&self.shards[shard_index(scope)].histograms, scope, name).observe(value);
    }

    fn trace(&self, event: TraceEvent) {
        if self.capture_traces.load(Ordering::Relaxed) {
            self.traces.lock().expect("trace lock poisoned").push(event);
        }
    }

    fn snapshot_metrics(&self) -> Option<MetricsSnapshot> {
        Some(self.snapshot())
    }
}

/// Deterministically ordered copy of a [`MetricsRegistry`].
#[derive(Debug, Default, Clone)]
pub struct MetricsSnapshot {
    /// scope → counter name → value.
    pub counters: BTreeMap<String, BTreeMap<String, u64>>,
    /// scope → gauge name → value.
    pub gauges: BTreeMap<String, BTreeMap<String, u64>>,
    /// scope → histogram name → snapshot.
    pub histograms: BTreeMap<String, BTreeMap<String, HistogramSnapshot>>,
}

impl MetricsSnapshot {
    /// Counter value, or 0 when absent.
    pub fn counter(&self, scope: &str, name: &str) -> u64 {
        self.counters
            .get(scope)
            .and_then(|m| m.get(name))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of one counter across every scope.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.values().filter_map(|m| m.get(name)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = MetricsRegistry::new();
        r.counter_add("atomic", "msgs_sent", 3);
        r.counter_add("atomic", "msgs_sent", 2);
        r.counter_add("vcb", "msgs_sent", 1);
        assert_eq!(r.counter("atomic", "msgs_sent"), 5);
        assert_eq!(r.counter("missing", "msgs_sent"), 0);
        let snap = r.snapshot();
        assert_eq!(snap.counter("atomic", "msgs_sent"), 5);
        assert_eq!(snap.counter_total("msgs_sent"), 6);
        // BTreeMap ordering is deterministic.
        let scopes: Vec<_> = snap.counters.keys().cloned().collect();
        assert_eq!(scopes, vec!["atomic".to_string(), "vcb".to_string()]);
    }

    #[test]
    fn gauges_overwrite() {
        let r = MetricsRegistry::new();
        r.gauge_set("atomic", "epoch", 1);
        r.gauge_set("atomic", "epoch", 7);
        assert_eq!(r.gauge("atomic", "epoch"), 7);
        assert_eq!(r.snapshot().gauges["atomic"]["epoch"], 7);
    }

    #[test]
    fn histograms_record_through_recorder() {
        let r = MetricsRegistry::new();
        r.observe("atomic", "batch_size", 4);
        r.observe("atomic", "batch_size", 9);
        let h = r.histogram("atomic", "batch_size").expect("exists");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 13);
        assert!(r.histogram("atomic", "missing").is_none());
    }

    #[test]
    fn traces_only_kept_when_capture_enabled() {
        let r = MetricsRegistry::new();
        r.trace(TraceEvent::new(0, "a", "rb"));
        assert!(r.take_traces().is_empty());
        r.set_trace_capture(true);
        r.trace(TraceEvent::new(1, "a", "rb"));
        let traces = r.take_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].party, 1);
        assert!(r.take_traces().is_empty(), "take drains the buffer");
    }

    #[test]
    fn snapshot_ordering_is_deterministic_across_shards() {
        // Scopes land on different shards (FNV over the scope), and the
        // underlying maps are HashMaps — but a snapshot must list every
        // scope and metric in lexicographic order regardless of which
        // shard holds it or in what order metrics were first touched.
        let scopes = ["atomic", "vcb", "sbc", "abba", "link", "server", "z9", "a0"];
        let forward = MetricsRegistry::new();
        for s in scopes {
            forward.counter_add(s, "msgs_sent", 1);
            forward.observe(s, "delivery_latency_us", 10);
        }
        let backward = MetricsRegistry::new();
        for s in scopes.iter().rev() {
            backward.observe(s, "delivery_latency_us", 10);
            backward.counter_add(s, "msgs_sent", 1);
        }
        let fs = forward.snapshot();
        let bs = backward.snapshot();
        let f_order: Vec<_> = fs.counters.keys().cloned().collect();
        let b_order: Vec<_> = bs.counters.keys().cloned().collect();
        assert_eq!(f_order, b_order);
        let mut sorted = f_order.clone();
        sorted.sort();
        assert_eq!(f_order, sorted, "scopes come out lexicographically");
        assert_eq!(
            fs.histograms.keys().collect::<Vec<_>>(),
            bs.histograms.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn snapshot_metrics_exposes_registry_through_recorder_trait() {
        let r: Arc<dyn Recorder> = Arc::new(MetricsRegistry::new());
        r.counter_add("atomic", "msgs_sent", 3);
        let snap = r.snapshot_metrics().expect("registry snapshots");
        assert_eq!(snap.counter("atomic", "msgs_sent"), 3);
        assert!(crate::NoopRecorder.snapshot_metrics().is_none());
    }

    #[test]
    fn fanout_feeds_every_sink_and_snapshots_the_first() {
        let own = Arc::new(MetricsRegistry::new());
        let shared = Arc::new(MetricsRegistry::new());
        let fan = crate::FanoutRecorder::new(vec![own.clone(), shared.clone()]);
        assert!(fan.enabled());
        fan.counter_add("atomic", "msgs_sent", 2);
        fan.gauge_set("server", "stalled", 1);
        fan.observe("atomic", "delivery_latency_us", 50);
        assert_eq!(own.counter("atomic", "msgs_sent"), 2);
        assert_eq!(shared.counter("atomic", "msgs_sent"), 2);
        assert_eq!(shared.gauge("server", "stalled"), 1);
        assert!(shared.histogram("atomic", "delivery_latency_us").is_some());
        let snap = fan.snapshot_metrics().expect("fanout snapshots sink 0");
        assert_eq!(snap.counter("atomic", "msgs_sent"), 2);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let r = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.counter_add("shared", "hits", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread");
        }
        assert_eq!(r.counter("shared", "hits"), 4000);
    }
}
