//! "Who is waiting on what" analysis of flight-recorder dumps.
//!
//! A stall dump records every live protocol instance's phase counters
//! (messages seen versus the quorum it needs) and the link-layer
//! cursors. This module turns those numbers into the sentence a person
//! debugging the stall actually wants: *instance X on party P is stuck
//! in phase Y with k of q required messages*.

use std::fmt::Write as _;

use sintra_telemetry::JsonValue;

fn num(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn flag(v: &JsonValue, key: &str) -> bool {
    v.get(key).and_then(JsonValue::as_bool).unwrap_or(false)
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("?")
}

/// Describes what one instance snapshot is waiting for, or `None` when
/// the instance is finished / has nothing outstanding.
pub fn waiting_on(instance: &JsonValue) -> Option<String> {
    let pid = text(instance, "pid");
    let family = text(instance, "family");
    let line = match family {
        "rb" => {
            if instance.get("delivered").and_then(JsonValue::as_bool) == Some(true) {
                return None;
            }
            let echoes = num(instance, "echoes");
            let eq = num(instance, "echo_quorum");
            let readies = num(instance, "readies");
            let rq = num(instance, "ready_quorum");
            if readies > 0 || echoes >= eq {
                format!("waiting for READY quorum ({readies}/{rq} readies)")
            } else if flag(instance, "sent") || flag(instance, "echoed") || echoes > 0 {
                format!("waiting for ECHO quorum ({echoes}/{eq} echoes)")
            } else {
                "waiting for the sender's SEND".to_string()
            }
        }
        "vcb" => {
            if instance.get("delivered").and_then(JsonValue::as_bool) == Some(true) {
                return None;
            }
            let shares = num(instance, "shares");
            let threshold = num(instance, "share_threshold");
            if flag(instance, "final_sent") {
                "final sent, awaiting local completion".to_string()
            } else if flag(instance, "sent") {
                format!("waiting for signature shares ({shares}/{threshold})")
            } else {
                "waiting for the sender's SEND".to_string()
            }
        }
        "abba" => {
            let stage = text(instance, "stage");
            if stage == "done" || stage == "idle" {
                return None;
            }
            let round = num(instance, "round");
            let quorum = num(instance, "quorum");
            let have = match stage {
                "collecting-pre-votes" => num(instance, "pre_votes"),
                "collecting-main-votes" => num(instance, "main_votes"),
                _ => num(instance, "coin_shares"),
            };
            format!("round {round}: {stage} ({have}/{quorum})")
        }
        "vba" => {
            if instance.get("decided").and_then(JsonValue::as_bool) == Some(true) {
                return None;
            }
            if !flag(instance, "proposed") {
                return None;
            }
            if !flag(instance, "loop_started") {
                let got = num(instance, "valid_proposals");
                let need = num(instance, "proposal_quorum");
                format!("waiting for proposals ({got}/{need})")
            } else {
                let iter = num(instance, "iteration");
                let votes = num(instance, "proper_votes");
                let need = num(instance, "vote_quorum");
                let mut line = format!("loop iteration {iter}: {votes}/{need} votes");
                if let Some(ba) = instance.get("current_ba") {
                    if let Some(inner) = waiting_on(ba) {
                        let _ = write!(line, "; {inner}");
                    }
                }
                line
            }
        }
        "atomic" => {
            if flag(instance, "closed") {
                return None;
            }
            let queue = num(instance, "queue_depth");
            let round = num(instance, "round");
            let awaiting = instance
                .get("awaiting_payloads")
                .and_then(JsonValue::as_array)
                .unwrap_or(&[]);
            let parked = num(instance, "parked_proposals");
            if queue == 0
                && !flag(instance, "close_requested")
                && num(instance, "entries") == 0
                && awaiting.is_empty()
                && parked == 0
            {
                return None;
            }
            let mut line = format!("round {round}: {queue} queued payload(s)");
            let entries = num(instance, "entries");
            let entry_quorum = num(instance, "entry_quorum");
            if flag(instance, "batch_decided") {
                let _ = write!(line, ", batch decided");
            } else if !flag(instance, "batch_proposed") && entry_quorum > 0 {
                let _ = write!(
                    line,
                    ", waiting for round entries ({entries}/{entry_quorum})"
                );
            } else if entries > 0 {
                let _ = write!(line, ", {entries} entry broadcast(s) seen");
            }
            if parked > 0 {
                let _ = write!(line, ", {parked} proposal(s) held back");
            }
            for entry in awaiting {
                let _ = write!(
                    line,
                    ", waiting for payload of entry (signer {}, digest {}…)",
                    num(entry, "signer"),
                    text(entry, "digest"),
                );
            }
            if let Some(vba) = instance.get("vba") {
                if let Some(inner) = waiting_on(vba) {
                    let _ = write!(line, "; {inner}");
                }
            }
            line
        }
        "secure" => {
            let pending = num(instance, "pending_decryptions");
            let inner_line = instance.get("inner").and_then(waiting_on);
            if pending == 0 && inner_line.is_none() {
                return None;
            }
            let mut line = String::new();
            if pending > 0 {
                let shares = num(instance, "front_shares");
                let threshold = num(instance, "share_threshold");
                let _ = write!(
                    line,
                    "{pending} ordered ciphertext(s) awaiting decryption \
                     (front round has {shares}/{threshold} share batches)"
                );
            }
            if let Some(inner) = inner_line {
                if !line.is_empty() {
                    line.push_str("; ");
                }
                let _ = write!(line, "inner {inner}");
            }
            line
        }
        "optimistic" => {
            if flag(instance, "closed") {
                return None;
            }
            let undelivered = num(instance, "undelivered_known");
            if undelivered == 0 && !flag(instance, "in_recovery") && !flag(instance, "complained") {
                return None;
            }
            let epoch = num(instance, "epoch");
            let mut line = format!("epoch {epoch}: {undelivered} known undelivered payload(s)");
            if flag(instance, "in_recovery") {
                let _ = write!(line, ", in recovery");
                if let Some(vba) = instance.get("recovery_vba") {
                    if let Some(inner) = waiting_on(vba) {
                        let _ = write!(line, "; {inner}");
                    }
                }
            } else if flag(instance, "complained") {
                let got = num(instance, "complainers");
                let need = num(instance, "complaint_quorum");
                let _ = write!(line, ", complained ({got}/{need} complainers)");
            }
            line
        }
        "broadcast-channel" => {
            if flag(instance, "closed") {
                return None;
            }
            let live = num(instance, "live_instances");
            let queued = num(instance, "send_queue");
            if live == 0 && queued == 0 {
                return None;
            }
            let mut line = format!("{live} live broadcast instance(s), {queued} queued send(s)");
            if let Some(blocking) = instance
                .get("blocking_instances")
                .and_then(JsonValue::as_array)
            {
                for inst in blocking {
                    if let Some(inner) = waiting_on(inst) {
                        let _ = write!(line, "; {} {inner}", text(inst, "pid"));
                    }
                }
            }
            line
        }
        _ => return None,
    };
    Some(format!("{pid} [{family}]: {line}"))
}

/// Renders the full report for one dump: header, per-instance waits and
/// link backlogs.
pub fn report(dump: &JsonValue) -> String {
    let party = dump.get("party").and_then(JsonValue::as_u64).unwrap_or(0);
    let reason = text(dump, "reason");
    let time_us = num(dump, "time_us");
    let mut out = format!("party {party} dumped at {time_us} µs (reason: {reason})\n");
    let mut any = false;
    if let Some(instances) = dump.get("instances").and_then(JsonValue::as_array) {
        for inst in instances {
            if let Some(line) = waiting_on(inst) {
                let _ = writeln!(out, "  {line}");
                any = true;
            }
        }
    }
    if !any {
        out.push_str("  no instance reports pending work\n");
    }
    if let Some(links) = dump.get("links").and_then(JsonValue::as_array) {
        for link in links {
            let unacked = num(link, "unacked_frames");
            if unacked > 0 {
                let _ = writeln!(
                    out,
                    "  {}: {unacked} frame(s) ({} bytes) unacknowledged by peer",
                    text(link, "pid"),
                    num(link, "unacked_bytes"),
                );
            }
        }
    }
    let dropped = num(dump, "dropped_events");
    let events = dump
        .get("events")
        .and_then(JsonValue::as_array)
        .map_or(0, <[JsonValue]>::len);
    let _ = writeln!(out, "  flight ring: {events} event(s), {dropped} evicted");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_telemetry::{parse_json, render_dump, SnapshotWriter};

    #[test]
    fn stuck_rb_names_missing_quorum() {
        let inst = SnapshotWriter::new("rb/2", "rb")
            .flag("sent", true)
            .flag("echoed", true)
            .num("echoes", 2)
            .num("echo_quorum", 3)
            .num("readies", 0)
            .num("ready_quorum", 3)
            .flag("delivered", false)
            .finish();
        let parsed = parse_json(&inst).unwrap();
        let line = waiting_on(&parsed).expect("stuck");
        assert!(line.contains("rb/2"), "{line}");
        assert!(line.contains("2/3 echoes"), "{line}");
    }

    #[test]
    fn delivered_rb_is_quiet() {
        let inst = SnapshotWriter::new("rb/2", "rb")
            .flag("delivered", true)
            .finish();
        assert_eq!(waiting_on(&parse_json(&inst).unwrap()), None);
    }

    #[test]
    fn atomic_reports_nested_vba() {
        let ba = SnapshotWriter::new("ac/vba/1/ba/2", "abba")
            .num("round", 1)
            .text("stage", "collecting-main-votes")
            .num("main_votes", 1)
            .num("quorum", 3)
            .finish();
        let vba = SnapshotWriter::new("ac/vba/1", "vba")
            .flag("proposed", true)
            .flag("loop_started", true)
            .num("iteration", 2)
            .num("proper_votes", 1)
            .num("vote_quorum", 3)
            .raw("current_ba", &ba)
            .finish();
        let atomic = SnapshotWriter::new("ac", "atomic")
            .num("round", 1)
            .num("queue_depth", 4)
            .raw("vba", &vba)
            .finish();
        let line = waiting_on(&parse_json(&atomic).unwrap()).expect("stuck");
        assert!(line.contains("4 queued"), "{line}");
        assert!(line.contains("collecting-main-votes (1/3)"), "{line}");
    }

    #[test]
    fn atomic_names_the_entry_whose_payload_it_lacks() {
        let atomic = SnapshotWriter::new("ac", "atomic")
            .num("round", 7)
            .num("entries", 0)
            .num("entry_quorum", 3)
            .flag("batch_decided", true)
            .num("parked_proposals", 1)
            .raw(
                "awaiting_payloads",
                "[{\"signer\":2,\"digest\":\"0badc0de\"}]",
            )
            .finish();
        let line = waiting_on(&parse_json(&atomic).unwrap()).expect("stuck");
        assert!(line.contains("round 7"), "{line}");
        assert!(
            line.contains("batch decided, 1 proposal(s) held back"),
            "{line}"
        );
        assert!(
            line.contains("waiting for payload of entry (signer 2, digest 0badc0de…)"),
            "{line}"
        );
        assert!(!line.contains("waiting for round entries"), "{line}");
    }

    #[test]
    fn report_covers_links_and_ring() {
        let inst = SnapshotWriter::new("rb/0", "rb")
            .flag("sent", true)
            .finish();
        let link = SnapshotWriter::new("link/0->2", "link")
            .num("unacked_frames", 12)
            .num("unacked_bytes", 3400)
            .finish();
        let body = render_dump(0, "stall", 99, 50, &[inst], &[link], &[], 7);
        let text = report(&parse_json(&body).unwrap());
        assert!(text.contains("reason: stall"), "{text}");
        assert!(text.contains("12 frame(s)"), "{text}");
        assert!(text.contains("7 evicted"), "{text}");
    }
}
