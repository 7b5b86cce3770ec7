//! Structured trace events emitted by protocol state machines.

use std::fmt::{self, Write as _};

/// One structured record of protocol progress.
///
/// State machines are sans-IO and have no clock, so they emit events
/// with `time_us == 0`; the runtime that drains them stamps the field —
/// the simulator with [`VirtualTime`] microseconds, the TCP runtime with
/// wall-clock microseconds since the run started.
///
/// [`VirtualTime`]: https://en.wikipedia.org/wiki/Discrete-event_simulation
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microsecond timestamp (virtual or wall, depending on runtime).
    pub time_us: u64,
    /// Party on which the event occurred.
    pub party: usize,
    /// Full protocol instance id (e.g. `atomic/ba/4`).
    pub protocol: String,
    /// Protocol family tag (`rb`, `vcb`, `abba`, `vba`, `atomic`, …).
    pub family: &'static str,
    /// Phase within the protocol (`echo`, `ready`, `pre-vote`, …).
    pub phase: &'static str,
    /// Round or epoch number, when the protocol has one.
    pub round: u64,
    /// Payload bytes associated with the event (0 when not meaningful).
    pub bytes: u64,
    /// Causal parent: the `(sender_party, send_seq)` of the network
    /// message whose processing produced this event, when known. The
    /// runtime stamps it at delivery time; locally-originated events
    /// (client sends, timer expiries) have none.
    pub cause: Option<(usize, u64)>,
    /// Microseconds the event's trigger spent queued before processing
    /// began. Always 0 (and omitted from JSON): no runtime queues an
    /// envelope between admission and dispatch any more. Reserved until
    /// the benchmark drops `prof.verify-wait_share`, which reads it.
    pub wait_us: u64,
}

impl TraceEvent {
    /// Builds an unstamped event; the runtime fills in `time_us`.
    pub fn new(party: usize, protocol: impl Into<String>, family: &'static str) -> Self {
        TraceEvent {
            time_us: 0,
            party,
            protocol: protocol.into(),
            family,
            phase: "",
            round: 0,
            bytes: 0,
            cause: None,
            wait_us: 0,
        }
    }

    /// Sets the phase tag.
    pub fn phase(mut self, phase: &'static str) -> Self {
        self.phase = phase;
        self
    }

    /// Sets the round/epoch number.
    pub fn round(mut self, round: u64) -> Self {
        self.round = round;
        self
    }

    /// Sets the associated payload byte count.
    pub fn bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    /// Sets the causal parent — the `(sender_party, send_seq)` origin of
    /// the message that triggered this event.
    pub fn caused_by(mut self, sender: usize, send_seq: u64) -> Self {
        self.cause = Some((sender, send_seq));
        self
    }

    /// Sets the queued-before-processing wait time.
    pub fn waited(mut self, wait_us: u64) -> Self {
        self.wait_us = wait_us;
        self
    }

    /// Renders the event as one JSON object (hand-rolled; the workspace
    /// has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        self.write_json(&mut out);
        out
    }

    /// Appends the event's JSON object, as [`TraceEvent::to_json`]
    /// renders it, to `out`.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"time_us\":{},\"party\":{},\"protocol\":",
            self.time_us, self.party
        );
        escape_into(out, &self.protocol);
        out.push_str(",\"family\":");
        escape_into(out, self.family);
        out.push_str(",\"phase\":");
        escape_into(out, self.phase);
        let _ = write!(out, ",\"round\":{},\"bytes\":{}", self.round, self.bytes);
        if let Some((sender, seq)) = self.cause {
            let _ = write!(out, ",\"cause\":[{sender},{seq}]");
        }
        if self.wait_us > 0 {
            let _ = write!(out, ",\"wait_us\":{}", self.wait_us);
        }
        out.push('}');
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10} µs] p{} {} {}:{} round={} bytes={}",
            self.time_us,
            self.party,
            self.protocol,
            self.family,
            self.phase,
            self.round,
            self.bytes
        )
    }
}

/// Escapes a string as a JSON string literal — exported so snapshot and
/// dump writers in other crates render strings exactly like the
/// telemetry layer does.
pub fn json_escape(s: &str) -> String {
    json_string(s)
}

/// Escapes a string as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_fills_fields() {
        let e = TraceEvent::new(2, "atomic/ba/1", "abba")
            .phase("pre-vote")
            .round(3)
            .bytes(64);
        assert_eq!(e.party, 2);
        assert_eq!(e.protocol, "atomic/ba/1");
        assert_eq!(e.family, "abba");
        assert_eq!(e.phase, "pre-vote");
        assert_eq!(e.round, 3);
        assert_eq!(e.bytes, 64);
        assert_eq!(e.time_us, 0);
    }

    #[test]
    fn json_is_well_formed() {
        let e = TraceEvent::new(0, "a\"b", "rb").phase("echo");
        let j = e.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"protocol\":\"a\\\"b\""));
        assert!(j.contains("\"phase\":\"echo\""));
    }

    #[test]
    fn cause_serializes_when_present() {
        let e = TraceEvent::new(1, "rb", "rb").phase("echo");
        assert!(!e.to_json().contains("cause"));
        let e = e.caused_by(3, 42);
        assert_eq!(e.cause, Some((3, 42)));
        assert!(e.to_json().contains("\"cause\":[3,42]"));
    }

    #[test]
    fn wait_us_serializes_only_when_nonzero() {
        let e = TraceEvent::new(0, "net", "net").phase("recv");
        assert!(!e.to_json().contains("wait_us"));
        let e = e.waited(137);
        assert_eq!(e.wait_us, 137);
        assert!(e.to_json().contains("\"wait_us\":137"));
    }

    #[test]
    fn json_string_escapes_control_chars() {
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
