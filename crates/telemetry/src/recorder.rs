//! The `Recorder` sink trait, its no-op default, and a fan-out adapter.

use std::sync::Arc;

use crate::TraceEvent;

/// Object-safe sink for protocol telemetry.
///
/// Instrumented code should gate any non-trivial work (string
/// formatting, allocation) behind [`Recorder::enabled`] so a disabled
/// recorder costs a single predictable branch:
///
/// ```
/// # use sintra_telemetry::{NoopRecorder, Recorder};
/// # let recorder: &dyn Recorder = &NoopRecorder;
/// if recorder.enabled() {
///     recorder.counter_add("atomic", "msgs_sent", 1);
/// }
/// ```
pub trait Recorder: Send + Sync {
    /// Whether this recorder actually records anything. Callers may
    /// skip instrumentation entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Adds `delta` to the counter `name` under `scope` (typically the
    /// root protocol instance id).
    fn counter_add(&self, scope: &str, name: &'static str, delta: u64);

    /// Sets the gauge `name` under `scope` to `value`.
    fn gauge_set(&self, scope: &str, name: &'static str, value: u64);

    /// Records one histogram observation for `name` under `scope`.
    fn observe(&self, scope: &str, name: &'static str, value: u64);

    /// Records a structured trace event (already stamped by the
    /// runtime).
    fn trace(&self, event: TraceEvent);
}

/// Recorder that drops everything; [`Recorder::enabled`] is `false`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn counter_add(&self, _scope: &str, _name: &'static str, _delta: u64) {}

    fn gauge_set(&self, _scope: &str, _name: &'static str, _value: u64) {}

    fn observe(&self, _scope: &str, _name: &'static str, _value: u64) {}

    fn trace(&self, _event: TraceEvent) {}
}

/// Forwards every record to each sink in turn, so one instrumented
/// party can feed both its own scrape registry and a shared,
/// test-provided recorder without either knowing about the other.
pub struct FanoutRecorder {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl FanoutRecorder {
    /// Builds a fan-out over the given sinks.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Self {
        FanoutRecorder { sinks }
    }
}

impl Recorder for FanoutRecorder {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn counter_add(&self, scope: &str, name: &'static str, delta: u64) {
        for s in &self.sinks {
            s.counter_add(scope, name, delta);
        }
    }

    fn gauge_set(&self, scope: &str, name: &'static str, value: u64) {
        for s in &self.sinks {
            s.gauge_set(scope, name, value);
        }
    }

    fn observe(&self, scope: &str, name: &'static str, value: u64) {
        for s in &self.sinks {
            s.observe(scope, name, value);
        }
    }

    fn trace(&self, event: TraceEvent) {
        for s in &self.sinks {
            s.trace(event.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_reports_disabled_and_accepts_calls() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        r.counter_add("s", "c", 1);
        r.gauge_set("s", "g", 2);
        r.observe("s", "h", 3);
        r.trace(TraceEvent::new(0, "s", "rb"));
    }

    #[test]
    fn trait_is_object_safe() {
        let r: Box<dyn Recorder> = Box::new(NoopRecorder);
        assert!(!r.enabled());
    }
}
