//! Schema checks for trace files.
//!
//! A flight-recorder dump (`sintra-dump-<party>-<reason>.json`, schema
//! [`DUMP_SCHEMA`]) carries the trace-event ring of one party plus its
//! instance and link snapshots; a streaming segment carries one event
//! per line. [`validate_dump`] checks a whole dump and [`validate_event`]
//! one event of either. Reading trace files into events, merging them
//! and exporting them to Chrome's `trace_event` format live in
//! [`crate::profile`].

use sintra_telemetry::{JsonValue, DUMP_SCHEMA};

/// Checks that `dump` is a well-formed flight-recorder dump. Returns a
/// human-readable description of the first violation.
pub fn validate_dump(dump: &JsonValue) -> Result<(), String> {
    let schema = dump
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != DUMP_SCHEMA {
        return Err(format!("schema {schema:?}, expected {DUMP_SCHEMA:?}"));
    }
    dump.get("party")
        .and_then(JsonValue::as_u64)
        .ok_or("missing numeric \"party\"")?;
    dump.get("reason")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"reason\"")?;
    dump.get("time_us")
        .and_then(JsonValue::as_u64)
        .ok_or("missing numeric \"time_us\"")?;
    dump.get("dropped_events")
        .and_then(JsonValue::as_u64)
        .ok_or("missing numeric \"dropped_events\"")?;
    let instances = dump
        .get("instances")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"instances\" array")?;
    for (i, inst) in instances.iter().enumerate() {
        inst.get("pid")
            .and_then(JsonValue::as_str)
            .ok_or(format!("instance {i} lacks \"pid\""))?;
        inst.get("family")
            .and_then(JsonValue::as_str)
            .ok_or(format!("instance {i} lacks \"family\""))?;
    }
    dump.get("links")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"links\" array")?;
    let events = dump
        .get("events")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"events\" array")?;
    for (i, ev) in events.iter().enumerate() {
        validate_event(ev).map_err(|err| format!("event {i} {err}"))?;
    }
    Ok(())
}

/// Checks one trace-event object against the shared event schema (used
/// by both the dump `events` array and the streaming `.jsonl` lines).
pub fn validate_event(ev: &JsonValue) -> Result<(), String> {
    for field in ["time_us", "party", "round", "bytes"] {
        ev.get(field)
            .and_then(JsonValue::as_u64)
            .ok_or(format!("lacks numeric {field:?}"))?;
    }
    for field in ["protocol", "family", "phase"] {
        ev.get(field)
            .and_then(JsonValue::as_str)
            .ok_or(format!("lacks string {field:?}"))?;
    }
    if let Some(cause) = ev.get("cause") {
        let ok = cause
            .as_array()
            .is_some_and(|c| c.len() == 2 && c.iter().all(|v| v.as_u64().is_some()));
        if !ok {
            return Err("has malformed \"cause\"".to_string());
        }
    }
    if let Some(wait) = ev.get("wait_us") {
        if wait.as_u64().is_none() {
            return Err("has non-numeric \"wait_us\"".to_string());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_telemetry::{parse_json, render_dump, SnapshotWriter, TraceEvent};

    fn sample_dump(party: usize) -> JsonValue {
        let inst = SnapshotWriter::new("ac", "atomic").num("round", 2).finish();
        let mut send = TraceEvent::new(party, "ac", "net").phase("send").round(7);
        send.time_us = 10;
        let mut recv = TraceEvent::new(party, "ac", "net")
            .phase("recv")
            .round(3)
            .caused_by(1 - party, 3);
        recv.time_us = 20;
        let body = render_dump(party, "stall", 1000, 500, &[inst], &[], &[send, recv], 0);
        parse_json(&body).expect("dump parses")
    }

    #[test]
    fn valid_dump_passes_validation() {
        validate_dump(&sample_dump(0)).expect("valid");
    }

    #[test]
    fn wrong_schema_fails_validation() {
        let dump = parse_json("{\"schema\":\"bogus\"}").unwrap();
        assert!(validate_dump(&dump).unwrap_err().contains("bogus"));
    }
}
