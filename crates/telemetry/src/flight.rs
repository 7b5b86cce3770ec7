//! The flight recorder: a bounded ring of recent trace events plus the
//! [`StateSnapshot`] contract protocol state machines implement so a
//! live party can be dumped to JSON.
//!
//! SINTRA's protocols terminate only probabilistically, so the failure
//! mode that matters in production is a *stall*, not a crash: some
//! instance silently stops making progress and nothing in a
//! counters-only view says which party, which instance, or which missing
//! quorum is responsible. The flight recorder keeps the last
//! `capacity` stamped [`TraceEvent`]s per party at all times (old events
//! are overwritten, so memory stays bounded no matter how long the run);
//! when a stall detector, an invariant violation or an explicit request
//! triggers a dump, the ring is drained and every live instance
//! serializes its phase through [`StateSnapshot`] into one JSON document.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::trace::json_string;
use crate::TraceEvent;

/// Identifier of the dump document layout, stored in every dump's
/// `schema` field so tools can reject files they don't understand.
pub const DUMP_SCHEMA: &str = "sintra-dump-v1";

/// Live-state serialization for one protocol instance.
///
/// State machines implement this next to their message handlers: the
/// snapshot must capture the *phase* a debugger needs — which quorum the
/// instance is collecting, how far it got, what it already committed —
/// without cloning payload bytes. `snapshot_json` renders one JSON
/// object; by convention it always carries `"pid"` and `"family"`
/// fields, plus whatever per-family counters describe the wait state
/// (echo/ready counts for reliable broadcast, round and vote tallies for
/// binary agreement, loop index and candidate set for multi-valued
/// agreement, queue depths for channels, seq/ack windows for links).
pub trait StateSnapshot {
    /// Whether the instance has started and not reached a terminal
    /// state — i.e. whether silence from this instance means *stalled*
    /// rather than *done* or *not started*.
    fn has_pending_work(&self) -> bool;

    /// Serializes the live phase as one JSON object.
    fn snapshot_json(&self) -> String;
}

/// Incremental builder for one snapshot JSON object, so
/// [`StateSnapshot`] implementations don't hand-roll comma placement.
///
/// Every snapshot starts with the two conventional fields (`pid`,
/// `family`); callers append whatever per-family state matters and
/// call [`SnapshotWriter::finish`].
#[derive(Debug)]
pub struct SnapshotWriter {
    out: String,
}

impl SnapshotWriter {
    /// Starts an object carrying the conventional `pid` and `family`
    /// fields.
    pub fn new(pid: &str, family: &str) -> Self {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"pid\":{},\"family\":{}",
            json_string(pid),
            json_string(family)
        );
        SnapshotWriter { out }
    }

    /// Appends an unsigned integer field.
    pub fn num(mut self, name: &str, value: u64) -> Self {
        let _ = write!(self.out, ",{}:{}", json_string(name), value);
        self
    }

    /// Appends a boolean field.
    pub fn flag(mut self, name: &str, value: bool) -> Self {
        let _ = write!(self.out, ",{}:{}", json_string(name), value);
        self
    }

    /// Appends a string field.
    pub fn text(mut self, name: &str, value: &str) -> Self {
        let _ = write!(self.out, ",{}:{}", json_string(name), json_string(value));
        self
    }

    /// Appends a field whose value is already rendered JSON (an array
    /// or nested object built by the caller).
    pub fn raw(mut self, name: &str, value: &str) -> Self {
        let _ = write!(self.out, ",{}:{}", json_string(name), value);
        self
    }

    /// Appends an array of unsigned integers.
    pub fn nums(mut self, name: &str, values: impl IntoIterator<Item = u64>) -> Self {
        let _ = write!(self.out, ",{}:[", json_string(name));
        for (i, v) in values.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            let _ = write!(self.out, "{v}");
        }
        self.out.push(']');
        self
    }

    /// Closes and returns the object.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// A bounded ring buffer of recent stamped [`TraceEvent`]s, owned by the
/// party's loop.
///
/// Recording is one ring rotation — cheap enough to leave on for the
/// lifetime of a server. The buffer never grows past its capacity; the
/// count of overwritten events is reported alongside a drain so a dump
/// states how much history was lost.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one stamped event, evicting the oldest when full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Removes and returns the buffered events together with the number
    /// of older events that were overwritten since the last drain.
    pub fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        let events = std::mem::take(&mut self.events).into();
        (events, std::mem::take(&mut self.dropped))
    }
}

/// Renders a complete dump document.
///
/// `instances` and `links` are pre-rendered JSON objects (each produced
/// by a [`StateSnapshot`] implementation); `events` is the drained ring
/// content, `dropped` the overwritten-event count. The layout is
/// [`DUMP_SCHEMA`]:
///
/// ```json
/// {"schema":"sintra-dump-v1","party":0,"reason":"stall","time_us":1,
///  "quiet_us":0,"instances":[...],"links":[...],
///  "dropped_events":0,"events":[...]}
/// ```
#[allow(clippy::too_many_arguments)]
pub fn render_dump(
    party: usize,
    reason: &str,
    time_us: u64,
    quiet_us: u64,
    instances: &[String],
    links: &[String],
    events: &[TraceEvent],
    dropped: u64,
) -> String {
    let mut out = String::with_capacity(1024 + events.len() * 96);
    let _ = write!(
        out,
        "{{\"schema\":{},\"party\":{},\"reason\":{},\"time_us\":{},\"quiet_us\":{},\"instances\":[",
        json_string(DUMP_SCHEMA),
        party,
        json_string(reason),
        time_us,
        quiet_us,
    );
    for (i, inst) in instances.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(inst);
    }
    out.push_str("],\"links\":[");
    for (i, link) in links.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(link);
    }
    let _ = write!(out, "],\"dropped_events\":{dropped},\"events\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&ev.to_json());
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, JsonValue};

    #[test]
    fn ring_keeps_newest_and_counts_evictions() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.record(TraceEvent::new(0, format!("p{i}"), "rb"));
        }
        assert_eq!(fr.len(), 3);
        let (events, dropped) = fr.drain();
        assert_eq!(dropped, 2);
        let pids: Vec<&str> = events.iter().map(|e| e.protocol.as_str()).collect();
        assert_eq!(pids, ["p2", "p3", "p4"]);
        // Drain resets both the buffer and the eviction count.
        assert_eq!(fr.drain(), (Vec::new(), 0));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut fr = FlightRecorder::new(0);
        fr.record(TraceEvent::new(0, "x", "rb"));
        assert_eq!(fr.len(), 1);
    }

    #[test]
    fn snapshot_writer_builds_valid_objects() {
        let s = SnapshotWriter::new("atomic/rb/1", "rb")
            .num("echoes", 2)
            .flag("delivered", false)
            .text("stage", "collecting")
            .nums("candidates", [0, 3])
            .raw("inner", "{\"x\":1}")
            .finish();
        let v = parse_json(&s).expect("parses");
        assert_eq!(
            v.get("pid").and_then(JsonValue::as_str),
            Some("atomic/rb/1")
        );
        assert_eq!(v.get("echoes").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(v.get("delivered").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(
            v.get("stage").and_then(JsonValue::as_str),
            Some("collecting")
        );
        assert_eq!(
            v.get("candidates")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(2)
        );
        assert_eq!(
            v.get("inner")
                .and_then(|i| i.get("x"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
    }

    #[test]
    fn dump_renders_valid_json() {
        let events = vec![TraceEvent::new(1, "atomic", "atomic")
            .phase("round")
            .round(2)];
        let dump = render_dump(
            1,
            "stall",
            777,
            2_000_000,
            &[r#"{"pid":"atomic","family":"atomic","round":2}"#.to_string()],
            &[r#"{"peer":2,"next_seq":5}"#.to_string()],
            &events,
            4,
        );
        let v = parse_json(&dump).expect("dump parses");
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_str),
            Some(DUMP_SCHEMA)
        );
        assert_eq!(v.get("party").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(v.get("reason").and_then(JsonValue::as_str), Some("stall"));
        assert_eq!(v.get("dropped_events").and_then(JsonValue::as_u64), Some(4));
        let instances = v.get("instances").and_then(JsonValue::as_array).unwrap();
        assert_eq!(
            instances[0].get("family").and_then(JsonValue::as_str),
            Some("atomic")
        );
        let evs = v.get("events").and_then(JsonValue::as_array).unwrap();
        assert_eq!(evs[0].get("round").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(
            v.get("links").and_then(JsonValue::as_array).unwrap()[0]
                .get("next_seq")
                .and_then(JsonValue::as_u64),
            Some(5)
        );
    }
}
