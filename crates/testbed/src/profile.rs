//! Reading trace files, and cross-party critical-path profiling over them.
//!
//! This module is the one reader of trace files on disk. The streaming
//! sink (`sintra-telemetry`'s `TraceStream`) leaves one `.jsonl` file per
//! party per segment, every event stamped in microseconds since the
//! *shared* run-start anchor and carrying its causal parent
//! `(sender, send_seq)`; a flight-recorder dump carries the same events
//! from one party's ring. [`load_trace`] reads either into a
//! [`StreamFile`], [`merge`] joins a run's files into one
//! [`MergedTrace`], [`causal_resolution`] checks that every causal parent
//! names a send, and [`chrome_trace`] exports the merged trace. Both the
//! `trace` and the `sintra-prof` tools read through here.
//!
//! The profiler answers the question the paper answers with its WAN
//! tables: *what did a decided round actually spend its wall-time on?*
//! For every decided ABC round (`atomic:batch`) and VBA outcome
//! (`vba:decide`) the analyzer walks causal parents backwards across
//! parties: the decide's cause names the last-arriving message that
//! completed the quorum — by construction the latency-critical one — and
//! that message's `net:send` on the sender carries the cause of *its*
//! dispatch, and so on until a causeless anchor (a client send or timer
//! expiry). Because the runtimes stamp `net:recv` at dispatch start and
//! stamp produced events at dispatch end, the chain tiles the round's
//! wall-time into contiguous named segments:
//!
//! * `link` — send stamp → admission on the receiver (wire, retransmit
//!   wait, `ready` queue),
//! * `verify-wait` — the `wait_us` a `net:recv` records between admission
//!   and dispatch; no runtime records one any more, so it is always 0 and
//!   the bucket is kept only until the benchmark drops it,
//! * one compute bucket per protocol phase (`rb-quorum`, `cb-final`,
//!   `vba-propose`, `abba-vote`, `abba-coin`, `abc-deliver`), named by
//!   the protocol events the dispatch emitted.
//!
//! [`analyze`] produces per-round [`RoundProfile`]s plus aggregate phase
//! totals; [`render_ledger`]/[`render_histogram`] print them, and
//! [`chrome_trace`] given an [`Analysis`] highlights the critical path as
//! its own lane per party.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use sintra_telemetry::{json_escape, parse_json, root_scope, JsonValue, TRACE_SCHEMA};

use crate::trace_export::{validate_dump, validate_event};

/// One parsed trace event from a stream (owned strings — the schema's
/// `&'static str` fields are only static on the producing side).
#[derive(Debug, Clone)]
pub struct StreamEvent {
    /// Microseconds since the group's shared run-start anchor.
    pub time_us: u64,
    /// Party the event occurred on.
    pub party: u64,
    /// Full protocol instance id.
    pub protocol: String,
    /// Protocol family tag.
    pub family: String,
    /// Phase within the protocol.
    pub phase: String,
    /// Round/epoch, or the send_seq for `net` events.
    pub round: u64,
    /// Associated payload bytes.
    pub bytes: u64,
    /// Causal parent `(sender, send_seq)`, when known.
    pub cause: Option<(u64, u64)>,
    /// Verify-queue wait recorded on `net:recv` events.
    pub wait_us: u64,
}

/// One loaded trace file: a streaming segment or a flight-recorder dump.
#[derive(Debug)]
pub struct StreamFile {
    /// Party the file belongs to.
    pub party: u64,
    /// Segment index from a stream's header line; 0 for a dump.
    pub segment: u64,
    /// Events in file order.
    pub events: Vec<StreamEvent>,
    /// Events lost before reaching the file: the sum of a stream's
    /// `{"dropped":n}` markers, or a dump's `dropped_events`.
    pub dropped: u64,
}

/// All parties' streams merged on the shared run-start anchor, with the
/// causal indices the walker needs.
#[derive(Debug, Default)]
pub struct MergedTrace {
    /// Every event from every input, in per-party file order.
    pub events: Vec<StreamEvent>,
    /// Parties that contributed events.
    pub parties: BTreeSet<u64>,
    /// Total events dropped to sink back-pressure across all inputs —
    /// nonzero means causal chains may dangle.
    pub dropped: u64,
    /// `(sender, send_seq)` → index of the `net:send` event.
    sends: HashMap<(u64, u64), usize>,
    /// `(receiver, sender, send_seq)` → index of the `net:recv` event.
    recvs: HashMap<(u64, u64, u64), usize>,
    /// `(party, sender, send_seq)` → protocol (non-`net`) events that
    /// dispatch emitted, in order.
    produced: HashMap<(u64, u64, u64), Vec<usize>>,
}

/// Parses one `.jsonl` event object.
pub fn parse_stream_event(ev: &JsonValue) -> Result<StreamEvent, String> {
    validate_event(ev)?;
    let num = |field: &str| ev.get(field).and_then(JsonValue::as_u64).unwrap_or(0);
    let text = |field: &str| {
        ev.get(field)
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let cause = ev
        .get("cause")
        .and_then(JsonValue::as_array)
        .map(|c| (c[0].as_u64().unwrap_or(0), c[1].as_u64().unwrap_or(0)));
    Ok(StreamEvent {
        time_us: num("time_us"),
        party: num("party"),
        protocol: text("protocol"),
        family: text("family"),
        phase: text("phase"),
        round: num("round"),
        bytes: num("bytes"),
        cause,
        wait_us: num("wait_us"),
    })
}

/// Loads one trace file: a `.jsonl` file is a streaming segment, any
/// other file a flight-recorder dump. Errors name the path.
pub fn load_trace(path: &Path) -> Result<StreamFile, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
        return parse_stream(&body, path);
    }
    parse_json(&body)
        .map_err(|e| e.to_string())
        .and_then(|dump| StreamFile::from_dump(&dump))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses a streaming segment: a header line carrying [`TRACE_SCHEMA`],
/// then one event or `{"dropped":n}` marker per line.
fn parse_stream(body: &str, path: &Path) -> Result<StreamFile, String> {
    let mut lines = body
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines
        .next()
        .ok_or_else(|| format!("{}: empty stream file", path.display()))?;
    let header = parse_json(header).map_err(|e| format!("{}: header: {e}", path.display()))?;
    let schema = header
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{}: header lacks \"schema\"", path.display()))?;
    if schema != TRACE_SCHEMA {
        return Err(format!(
            "{}: schema {schema:?}, expected {TRACE_SCHEMA:?}",
            path.display()
        ));
    }
    let party = header
        .get("party")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("{}: header lacks numeric \"party\"", path.display()))?;
    let segment = header
        .get("segment")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let mut events = Vec::new();
    let mut dropped = 0;
    for (lineno, line) in lines {
        let value =
            parse_json(line).map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?;
        if let Some(n) = value.get("dropped").and_then(JsonValue::as_u64) {
            dropped += n;
            continue;
        }
        let ev = parse_stream_event(&value)
            .map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?;
        events.push(ev);
    }
    Ok(StreamFile {
        party,
        segment,
        events,
        dropped,
    })
}

impl StreamFile {
    /// Reads a flight-recorder dump (schema `sintra-dump-v1`) as segment 0
    /// of its party, counting the ring's evictions as dropped events.
    pub fn from_dump(dump: &JsonValue) -> Result<StreamFile, String> {
        validate_dump(dump)?;
        let num = |field: &str| dump.get(field).and_then(JsonValue::as_u64).unwrap_or(0);
        let events = dump
            .get("events")
            .and_then(JsonValue::as_array)
            .unwrap_or_default()
            .iter()
            .map(parse_stream_event)
            .collect::<Result<_, _>>()?;
        Ok(StreamFile {
            party: num("party"),
            segment: 0,
            events,
            dropped: num("dropped_events"),
        })
    }
}

/// The `sintra-trace-*.jsonl` segment files under `dir`, sorted so each
/// party's segments concatenate in write order.
pub fn find_trace_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("sintra-trace-") && n.ends_with(".jsonl"))
        })
        .collect();
    files.sort();
    Ok(files)
}

impl MergedTrace {
    /// Builds the merged trace (and its causal indices) from raw events;
    /// the test-friendly entry point behind [`merge_streams`].
    pub fn from_events(events: Vec<StreamEvent>, dropped: u64) -> MergedTrace {
        let mut trace = MergedTrace {
            events,
            dropped,
            ..MergedTrace::default()
        };
        for (i, ev) in trace.events.iter().enumerate() {
            trace.parties.insert(ev.party);
            if ev.family == "net" {
                match ev.phase.as_str() {
                    // `round` carries the send_seq on net events; fan-out
                    // copies share one send event.
                    "send" => {
                        trace.sends.insert((ev.party, ev.round), i);
                    }
                    "recv" => {
                        if let Some((s, q)) = ev.cause {
                            trace.recvs.insert((ev.party, s, q), i);
                        }
                    }
                    _ => {}
                }
            } else if let Some((s, q)) = ev.cause {
                trace.produced.entry((ev.party, s, q)).or_default().push(i);
            }
        }
        trace
    }

    /// The `net:send` event for a `(sender, send_seq)` pair.
    pub fn send_of(&self, sender: u64, send_seq: u64) -> Option<&StreamEvent> {
        self.sends
            .get(&(sender, send_seq))
            .map(|&i| &self.events[i])
    }
}

/// Loads and merges the trace files from every party of a run.
pub fn merge_streams(paths: &[PathBuf]) -> Result<MergedTrace, String> {
    let files = paths
        .iter()
        .map(|path| load_trace(path))
        .collect::<Result<_, _>>()?;
    Ok(merge(files))
}

/// Merges loaded files on the shared run-start anchor.
pub fn merge(mut files: Vec<StreamFile>) -> MergedTrace {
    // Per-party segment order, so each party's events stay chronological.
    files.sort_by_key(|f| (f.party, f.segment));
    let dropped = files.iter().map(|f| f.dropped).sum();
    let events = files.into_iter().flat_map(|f| f.events).collect();
    MergedTrace::from_events(events, dropped)
}

/// How completely causal parents resolve across the merged streams.
#[derive(Debug, Default)]
pub struct Resolution {
    /// Total events inspected.
    pub total: usize,
    /// Events carrying a causal parent.
    pub caused: usize,
    /// Caused events whose `(sender, send_seq)` matched a `net:send`.
    pub resolved: usize,
    /// Unresolved `(party, sender, send_seq)` references, at most 16.
    pub dangling: Vec<(u64, u64, u64)>,
}

impl Resolution {
    /// Whether every causal parent resolved.
    pub fn is_complete(&self) -> bool {
        self.resolved == self.caused
    }
}

/// Resolves every event's causal parent against the merged send index.
pub fn causal_resolution(trace: &MergedTrace) -> Resolution {
    let mut res = Resolution {
        total: trace.events.len(),
        ..Resolution::default()
    };
    for ev in &trace.events {
        let Some((s, q)) = ev.cause else { continue };
        res.caused += 1;
        if trace.sends.contains_key(&(s, q)) {
            res.resolved += 1;
        } else if res.dangling.len() < 16 {
            res.dangling.push((ev.party, s, q));
        }
    }
    res
}

/// Attribution buckets, in ledger-column order. Everything the walker
/// emits lands in one of these named phases.
pub const BUCKETS: [&str; 9] = [
    "link",
    "verify-wait",
    "rb-quorum",
    "cb-final",
    "vba-propose",
    "abba-vote",
    "abba-coin",
    "abc-deliver",
    "dispatch",
];

/// Maps a protocol event to its attribution bucket.
fn bucket_for(family: &str, phase: &str) -> &'static str {
    match (family, phase) {
        ("rb", _) => "rb-quorum",
        ("vcb", _) => "cb-final",
        ("vba", _) => "vba-propose",
        ("abba", "coin") => "abba-coin",
        ("abba", _) => "abba-vote",
        ("atomic", _) | ("opt", _) => "abc-deliver",
        _ => "dispatch",
    }
}

/// One tile of a round's wall-time on the critical path.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Attribution bucket (one of [`BUCKETS`]).
    pub bucket: &'static str,
    /// Human detail: the phase (`rb:ready`) or hop (`p2→p0`).
    pub detail: String,
    /// Party the time was spent on (receiver, for `link`).
    pub party: u64,
    /// Segment start, µs since run start.
    pub from_us: u64,
    /// Segment end, µs since run start.
    pub to_us: u64,
}

impl Segment {
    fn len_us(&self) -> u64 {
        self.to_us.saturating_sub(self.from_us)
    }
}

/// The critical path of one decided round on one party.
#[derive(Debug)]
pub struct RoundProfile {
    /// Root protocol the round belongs to.
    pub protocol: String,
    /// Deciding family (`atomic` or `vba`).
    pub family: String,
    /// Round (ABC round / VBA iteration).
    pub round: u64,
    /// Party whose decide this chain explains.
    pub party: u64,
    /// Requests the round ordered: the payloads an `atomic:batch` decide
    /// delivered (`None` for a VBA decide, which orders one value).
    pub requests: Option<u64>,
    /// Window start: the same party's previous decide (or chain origin).
    pub start_us: u64,
    /// The decide stamp.
    pub end_us: u64,
    /// Critical-path tiles, oldest first, clipped to the window.
    pub segments: Vec<Segment>,
    /// Sum of segment lengths.
    pub attributed_us: u64,
}

impl RoundProfile {
    /// Window wall-time.
    pub fn wall_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Fraction of the window's wall-time attributed to named phases.
    pub fn coverage(&self) -> f64 {
        let wall = self.wall_us();
        if wall == 0 {
            return 1.0;
        }
        (self.attributed_us as f64 / wall as f64).min(1.0)
    }

    /// Per-bucket attributed totals.
    pub fn bucket_totals(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for seg in &self.segments {
            *totals.entry(seg.bucket).or_insert(0) += seg.len_us();
        }
        totals
    }
}

/// Walks causal parents backwards from the event at `decide_idx`,
/// tiling `[window_start_us, decide]` into named segments. Returns the
/// tiles (oldest first) and the chain's origin stamp.
pub fn walk_critical_path(
    trace: &MergedTrace,
    decide_idx: usize,
    window_start_us: u64,
) -> (Vec<Segment>, u64) {
    let decide = &trace.events[decide_idx];
    let mut segments: Vec<Segment> = Vec::new();
    let mut party = decide.party;
    let mut t_end = decide.time_us;
    let mut cause = decide.cause;
    let mut bucket = bucket_for(&decide.family, &decide.phase);
    let mut detail = format!("{}:{}", decide.family, decide.phase);
    let mut origin;
    loop {
        let Some((s, q)) = cause else {
            // Causeless anchor: a client send or timer expiry started
            // this dispatch; its compute is not separately stamped.
            origin = t_end;
            break;
        };
        let Some(&ri) = trace.recvs.get(&(party, s, q)) else {
            // Dangling (sink back-pressure or ring eviction): stop here
            // and let the uncovered remainder show up as lost coverage.
            origin = t_end;
            break;
        };
        let recv = &trace.events[ri];
        // Dispatch start (recv is pre-stamped there); clamp against the
        // produced-event stamp for monotonicity.
        let t_dispatch = recv.time_us.min(t_end);
        segments.push(Segment {
            bucket,
            detail: detail.clone(),
            party,
            from_us: t_dispatch,
            to_us: t_end,
        });
        let t_admit = t_dispatch.saturating_sub(recv.wait_us);
        if recv.wait_us > 0 {
            segments.push(Segment {
                bucket: "verify-wait",
                detail: "pipeline".to_string(),
                party,
                from_us: t_admit,
                to_us: t_dispatch,
            });
        }
        origin = t_admit;
        let Some(send) = trace.send_of(s, q) else {
            break;
        };
        let t_send = send.time_us.min(t_admit);
        segments.push(Segment {
            bucket: "link",
            detail: format!("p{s}\u{2192}p{party}"),
            party,
            from_us: t_send,
            to_us: t_admit,
        });
        origin = t_send;
        if t_send <= window_start_us {
            break;
        }
        // Hop to the sender: the send's stamp closes that dispatch, and
        // the protocol events it co-emitted name the phase its compute
        // belongs to.
        (bucket, detail) = dispatch_label(trace, s, send.cause, &send.protocol);
        party = s;
        t_end = t_send;
        cause = send.cause;
    }
    segments.reverse();
    (segments, origin)
}

/// Names the dispatch on `party` caused by `cause`: the bucket of the
/// last protocol event that dispatch emitted, falling back to the sent
/// envelope's instance path when the dispatch emitted none.
fn dispatch_label(
    trace: &MergedTrace,
    party: u64,
    cause: Option<(u64, u64)>,
    sent_protocol: &str,
) -> (&'static str, String) {
    if let Some((s, q)) = cause {
        if let Some(idxs) = trace.produced.get(&(party, s, q)) {
            if let Some(&last) = idxs.last() {
                let ev = &trace.events[last];
                return (
                    bucket_for(&ev.family, &ev.phase),
                    format!("{}:{}", ev.family, ev.phase),
                );
            }
        }
    }
    // No protocol event to name the phase: infer the family from the
    // instance path of the envelope it sent (e.g. `kv/vba/3/ba/0`).
    for seg in sent_protocol.split('/').rev() {
        let bucket = match seg {
            "rb" | "echo" => "rb-quorum",
            "vcb" | "cb" | "bc" => "cb-final",
            "vba" => "vba-propose",
            "ba" | "abba" => "abba-vote",
            _ => continue,
        };
        return (bucket, format!("path:{seg}"));
    }
    ("dispatch", "dispatch".to_string())
}

/// Clips `segments` to `[start, end]`, dropping empty tiles.
fn clip(segments: Vec<Segment>, start: u64, end: u64) -> Vec<Segment> {
    segments
        .into_iter()
        .filter_map(|mut seg| {
            seg.from_us = seg.from_us.clamp(start, end);
            seg.to_us = seg.to_us.clamp(start, end);
            (seg.to_us > seg.from_us).then_some(seg)
        })
        .collect()
}

/// The full analysis: per-round critical paths plus aggregate totals.
#[derive(Debug, Default)]
pub struct Analysis {
    /// One profile per `(protocol, family, round, party)` decide.
    pub rounds: Vec<RoundProfile>,
    /// Aggregate bucket totals across all profiles.
    pub totals: BTreeMap<&'static str, u64>,
}

impl Analysis {
    /// The group-critical profile per `(protocol, family, round)`: the
    /// party that decided last.
    pub fn critical_rounds(&self) -> Vec<&RoundProfile> {
        let mut last: BTreeMap<(&str, &str, u64), &RoundProfile> = BTreeMap::new();
        for p in &self.rounds {
            let key = (p.protocol.as_str(), p.family.as_str(), p.round);
            let slot = last.entry(key).or_insert(p);
            if p.end_us > slot.end_us {
                *slot = p;
            }
        }
        last.into_values().collect()
    }

    /// The lowest coverage across profiles (1.0 when there are none).
    pub fn min_coverage(&self) -> f64 {
        self.rounds
            .iter()
            .map(RoundProfile::coverage)
            .fold(1.0, f64::min)
    }
}

/// The round a decide event belongs to. VBA decides report their
/// internal iteration (usually 0), so distinct instances under one
/// channel would collapse; the instance index in the protocol path
/// (`kv/vba/3` → 3) is the ABC round the instance served.
fn decide_round(ev: &StreamEvent) -> u64 {
    if ev.family == "vba" {
        let mut segs = ev.protocol.split('/');
        while let Some(seg) = segs.next() {
            if seg == "vba" {
                if let Some(round) = segs.next().and_then(|s| s.parse().ok()) {
                    return round;
                }
            }
        }
    }
    ev.round
}

/// Finds every decided ABC/VBA round in the merged trace and walks its
/// critical path per party.
pub fn analyze(trace: &MergedTrace) -> Analysis {
    // Decide markers: `atomic:batch` (round delivered) and `vba:decide`.
    let mut decides: Vec<usize> = Vec::new();
    for (i, ev) in trace.events.iter().enumerate() {
        let is_decide = matches!(
            (ev.family.as_str(), ev.phase.as_str()),
            ("atomic", "batch") | ("vba", "decide")
        );
        if is_decide {
            decides.push(i);
        }
    }
    // Window starts: per (root, family, party), a round's window begins
    // at the same party's previous decide of that family.
    let mut sorted = decides.clone();
    sorted.sort_by_key(|&i| {
        let ev = &trace.events[i];
        (
            root_scope(&ev.protocol).to_string(),
            ev.family.clone(),
            ev.party,
            decide_round(ev),
            ev.time_us,
        )
    });
    let mut prev_end: HashMap<(String, String, u64), u64> = HashMap::new();
    let mut rounds = Vec::new();
    for idx in sorted {
        let ev = &trace.events[idx];
        let key = (
            root_scope(&ev.protocol).to_string(),
            ev.family.clone(),
            ev.party,
        );
        let prev = prev_end.get(&key).copied().unwrap_or(0);
        let (segments, origin) = walk_critical_path(trace, idx, prev);
        let start = origin.max(prev).min(ev.time_us);
        let segments = clip(segments, start, ev.time_us);
        let attributed = segments.iter().map(Segment::len_us).sum();
        rounds.push(RoundProfile {
            protocol: root_scope(&ev.protocol).to_string(),
            family: ev.family.clone(),
            round: decide_round(ev),
            party: ev.party,
            requests: (ev.family == "atomic").then_some(ev.bytes),
            start_us: start,
            end_us: ev.time_us,
            segments,
            attributed_us: attributed,
        });
        prev_end.insert(key, ev.time_us);
    }
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for profile in &rounds {
        for (bucket, us) in profile.bucket_totals() {
            *totals.entry(bucket).or_insert(0) += us;
        }
    }
    Analysis { rounds, totals }
}

/// Renders the per-round ledger: one row per group-critical decide, with
/// per-bucket microsecond columns.
pub fn render_ledger(analysis: &Analysis) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{:<12} {:<7} {:>5} {:>3} {:>4} {:>10} {:>9} {:>6}",
        "protocol", "family", "round", "p", "reqs", "end µs", "wall µs", "cov%"
    );
    for bucket in BUCKETS {
        let _ = write!(out, " {:>11}", bucket);
    }
    out.push('\n');
    for profile in analysis.critical_rounds() {
        let _ = write!(
            out,
            "{:<12} {:<7} {:>5} {:>3} {:>4} {:>10} {:>9} {:>6.1}",
            profile.protocol,
            profile.family,
            profile.round,
            profile.party,
            profile
                .requests
                .map_or_else(|| "-".to_string(), |r| r.to_string()),
            profile.end_us,
            profile.wall_us(),
            profile.coverage() * 100.0,
        );
        let totals = profile.bucket_totals();
        for bucket in BUCKETS {
            let _ = write!(out, " {:>11}", totals.get(bucket).copied().unwrap_or(0));
        }
        out.push('\n');
    }
    out
}

/// Renders the aggregate phase histogram: total attributed time per
/// bucket, with its share, across every profiled round on every party.
pub fn render_histogram(analysis: &Analysis) -> String {
    let total: u64 = analysis.totals.values().sum();
    let mut out = format!(
        "phase attribution across {} round profile(s):\n",
        analysis.rounds.len()
    );
    for bucket in BUCKETS {
        let us = analysis.totals.get(bucket).copied().unwrap_or(0);
        let share = if total == 0 {
            0.0
        } else {
            us as f64 * 100.0 / total as f64
        };
        let bar_len = (share / 2.0).round() as usize;
        let _ = writeln!(
            out,
            "  {:<12} {:>12} µs {:>5.1}%  {}",
            bucket,
            us,
            share,
            "#".repeat(bar_len)
        );
    }
    out
}

/// A globally unique flow id for one transmission.
fn flow_id(sender: u64, send_seq: u64) -> u64 {
    (sender << 48) | (send_seq & 0xFFFF_FFFF_FFFF)
}

/// Exports the merged trace as Chrome `trace_event` JSON that
/// `chrome://tracing` and Perfetto open directly: every event is a 1µs
/// slice on its party's per-protocol track, with a flow arrow from each
/// `net:send` to the `net:recv` its `(sender, send_seq)` cause names.
/// When `analysis` has rounds, each group-critical round's segments form
/// real-duration slices on a dedicated `critical-path` lane per party.
pub fn chrome_trace(trace: &MergedTrace, analysis: &Analysis) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&s);
    };
    // Tid 1 is the critical-path lane; protocol tracks start at 2.
    for &party in &trace.parties {
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{party},\"tid\":0,\
                 \"args\":{{\"name\":\"party {party}\"}}}}"
            ),
            &mut out,
        );
        if !analysis.rounds.is_empty() {
            push(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{party},\"tid\":1,\
                     \"args\":{{\"name\":\"critical-path\"}}}}"
                ),
                &mut out,
            );
        }
    }
    let mut tids: HashMap<(u64, String), u64> = HashMap::new();
    for ev in &trace.events {
        let scope = root_scope(&ev.protocol).to_string();
        let next_tid = tids.len() as u64 + 2;
        let tid = *tids.entry((ev.party, scope.clone())).or_insert(next_tid);
        if tid == next_tid {
            push(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{tid},\
                     \"args\":{{\"name\":{}}}}}",
                    ev.party,
                    json_escape(&scope)
                ),
                &mut out,
            );
        }
        let name = json_escape(&format!("{}:{}", ev.family, ev.phase));
        let mut slice = format!(
            "{{\"ph\":\"X\",\"name\":{name},\"cat\":{},\"pid\":{},\"tid\":{tid},\
             \"ts\":{},\"dur\":1,\"args\":{{\"protocol\":{},\"round\":{},\"bytes\":{}",
            json_escape(&ev.family),
            ev.party,
            ev.time_us,
            json_escape(&ev.protocol),
            ev.round,
            ev.bytes,
        );
        if let Some((s, q)) = ev.cause {
            let _ = write!(slice, ",\"cause\":\"p{s}#{q}\"");
        }
        if ev.wait_us > 0 {
            let _ = write!(slice, ",\"wait_us\":{}", ev.wait_us);
        }
        slice.push_str("}}");
        push(slice, &mut out);
        if ev.family == "net" && ev.phase == "send" {
            push(
                format!(
                    "{{\"ph\":\"s\",\"name\":\"msg\",\"cat\":\"flow\",\"id\":{},\
                     \"pid\":{},\"tid\":{tid},\"ts\":{}}}",
                    flow_id(ev.party, ev.round),
                    ev.party,
                    ev.time_us
                ),
                &mut out,
            );
        } else if ev.family == "net" && ev.phase == "recv" {
            if let Some((s, q)) = ev.cause {
                push(
                    format!(
                        "{{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"msg\",\"cat\":\"flow\",\
                         \"id\":{},\"pid\":{},\"tid\":{tid},\"ts\":{}}}",
                        flow_id(s, q),
                        ev.party,
                        ev.time_us
                    ),
                    &mut out,
                );
            }
        }
    }
    for profile in analysis.critical_rounds() {
        for seg in &profile.segments {
            push(
                format!(
                    "{{\"ph\":\"X\",\"name\":{},\"cat\":\"critical\",\"pid\":{},\"tid\":1,\
                     \"ts\":{},\"dur\":{},\"args\":{{\"detail\":{},\"family\":{},\
                     \"round\":{}}}}}",
                    json_escape(seg.bucket),
                    seg.party,
                    seg.from_us,
                    seg.len_us().max(1),
                    json_escape(&seg.detail),
                    json_escape(&profile.family),
                    profile.round,
                ),
                &mut out,
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_telemetry::{render_dump, SnapshotWriter, TraceEvent};

    fn ev(
        party: u64,
        time_us: u64,
        family: &str,
        phase: &str,
        round: u64,
        cause: Option<(u64, u64)>,
    ) -> StreamEvent {
        StreamEvent {
            time_us,
            party,
            protocol: "kv".to_string(),
            family: family.to_string(),
            phase: phase.to_string(),
            round,
            bytes: 0,
            cause,
            wait_us: 0,
        }
    }

    /// A 2-party chain: client send on p0 → RB work on p1 (with a
    /// verify-queue wait) → decide on p0.
    fn chain() -> Vec<StreamEvent> {
        let mut recv1 = ev(1, 250, "net", "recv", 5, Some((0, 5)));
        recv1.wait_us = 30;
        vec![
            ev(0, 100, "net", "send", 5, None),
            recv1,
            ev(1, 300, "rb", "ready", 1, Some((0, 5))),
            ev(1, 300, "net", "send", 9, Some((0, 5))),
            ev(0, 400, "net", "recv", 9, Some((1, 9))),
            StreamEvent {
                bytes: 3, // the round delivered three requests
                ..ev(0, 480, "atomic", "batch", 1, Some((1, 9)))
            },
        ]
    }

    #[test]
    fn walk_tiles_the_full_window() {
        let trace = MergedTrace::from_events(chain(), 0);
        let decide_idx = trace.events.len() - 1;
        let (segments, origin) = walk_critical_path(&trace, decide_idx, 0);
        assert_eq!(origin, 100);
        let attributed: u64 = segments.iter().map(Segment::len_us).sum();
        assert_eq!(attributed, 380, "tiles cover 100..480: {segments:#?}");
        // Oldest-first: link, verify-wait, rb compute, link, decide compute.
        let buckets: Vec<&str> = segments.iter().map(|s| s.bucket).collect();
        assert_eq!(
            buckets,
            ["link", "verify-wait", "rb-quorum", "link", "abc-deliver"],
            "{segments:#?}"
        );
        assert_eq!(segments[0].from_us, 100);
        assert_eq!(segments[0].to_us, 220); // admit = 250 - 30 wait
        assert_eq!(segments[1].len_us(), 30);
    }

    #[test]
    fn analyze_reports_full_coverage_for_the_chain() {
        let trace = MergedTrace::from_events(chain(), 0);
        let analysis = analyze(&trace);
        assert_eq!(analysis.rounds.len(), 1);
        let profile = &analysis.rounds[0];
        assert_eq!(profile.family, "atomic");
        assert_eq!(profile.round, 1);
        assert!(
            profile.coverage() >= 0.99,
            "coverage {}",
            profile.coverage()
        );
        assert_eq!(analysis.min_coverage(), profile.coverage());
        assert_eq!(profile.requests, Some(3));
        let ledger = render_ledger(&analysis);
        assert!(ledger.contains("atomic"), "{ledger}");
        assert!(ledger.lines().next().unwrap().contains("reqs"), "{ledger}");
        let histogram = render_histogram(&analysis);
        assert!(histogram.contains("rb-quorum"), "{histogram}");
        let chrome = chrome_trace(&trace, &analysis);
        let parsed = parse_json(&chrome).expect("chrome json parses");
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents");
        assert!(events
            .iter()
            .any(|e| { e.get("cat").and_then(JsonValue::as_str) == Some("critical") }));
    }

    #[test]
    fn causal_resolution_flags_dangling_parents() {
        let mut events = chain();
        let resolution = causal_resolution(&MergedTrace::from_events(events.clone(), 0));
        assert!(resolution.is_complete(), "{resolution:?}");
        // Remove the first send: everything caused by (0,5) dangles.
        events.remove(0);
        let resolution = causal_resolution(&MergedTrace::from_events(events, 0));
        assert!(!resolution.is_complete());
        assert_eq!(resolution.caused - resolution.resolved, 3);
        assert!(resolution
            .dangling
            .iter()
            .all(|&(_, s, q)| (s, q) == (0, 5)));
    }

    /// A two-event flight-recorder dump of `party`: a send (seq 7) and a
    /// receive caused by the other party's seq 3.
    fn dump_body(party: usize, dropped: u64) -> String {
        let inst = SnapshotWriter::new("ac", "atomic").num("round", 2).finish();
        let mut send = TraceEvent::new(party, "ac", "net").phase("send").round(7);
        send.time_us = 10;
        let mut recv = TraceEvent::new(party, "ac", "net")
            .phase("recv")
            .round(3)
            .caused_by(1 - party, 3);
        recv.time_us = 20;
        render_dump(
            party,
            "stall",
            1000,
            500,
            &[inst],
            &[],
            &[send, recv],
            dropped,
        )
    }

    fn chrome_events(trace: &MergedTrace) -> Vec<JsonValue> {
        let chrome = chrome_trace(trace, &Analysis::default());
        let parsed = parse_json(&chrome).expect("chrome json parses");
        parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents")
            .to_vec()
    }

    fn str_field<'a>(ev: &'a JsonValue, field: &str) -> Option<&'a str> {
        ev.get(field).and_then(JsonValue::as_str)
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sintra-profile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn chrome_export_has_tracks_and_flows() {
        let files = [0, 1]
            .map(|party| {
                let dump = parse_json(&dump_body(party, 0)).expect("dump parses");
                StreamFile::from_dump(&dump).expect("valid dump")
            })
            .into();
        let events = chrome_events(&merge(files));
        // Process metadata for both parties.
        for party in ["party 0", "party 1"] {
            assert!(events.iter().any(|e| {
                str_field(e, "ph") == Some("M")
                    && e.get("args").and_then(|a| str_field(a, "name")) == Some(party)
            }));
        }
        // Party 0's send (seq 7) starts a flow; party 1's recv of
        // (sender 0, seq 3) finishes the matching id.
        let start_id = events
            .iter()
            .find(|e| str_field(e, "ph") == Some("s"))
            .and_then(|e| e.get("id"))
            .and_then(JsonValue::as_u64)
            .expect("flow start");
        assert_eq!(start_id, flow_id(0, 7));
        assert!(events.iter().any(|e| str_field(e, "ph") == Some("f")
            && e.get("id").and_then(JsonValue::as_u64) == Some(flow_id(0, 3))));
        // Without an analysis there is no critical-path lane.
        assert!(!events.iter().any(|e| {
            e.get("args").and_then(|a| str_field(a, "name")) == Some("critical-path")
        }));
    }

    #[test]
    fn dump_files_load_as_segment_zero() {
        let dir = scratch_dir("dump");
        let path = dir.join("sintra-dump-1-stall.json");
        std::fs::write(&path, dump_body(1, 6)).expect("write");
        let file = load_trace(&path).expect("loads");
        assert_eq!((file.party, file.segment, file.dropped), (1, 0, 6));
        let [send, recv] = &file.events[..] else {
            panic!("two events: {:?}", file.events);
        };
        assert_eq!(
            (send.phase.as_str(), send.time_us, send.cause),
            ("send", 10, None)
        );
        assert_eq!(
            (recv.phase.as_str(), recv.time_us, recv.cause),
            ("recv", 20, Some((0, 3)))
        );
        // An event without a phase is refused, naming the file and event.
        let broken = dump_body(1, 0).replacen("\"phase\":\"recv\",", "", 1);
        std::fs::write(&path, broken).expect("write");
        let err = load_trace(&path).unwrap_err();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("event 1 lacks string \"phase\""), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_files_round_trip_through_loader_and_dump_shape() {
        let dir = scratch_dir("stream");
        let path = dir.join("sintra-trace-1-0000.jsonl");
        std::fs::write(
            &path,
            format!(
                "{{\"schema\":\"{TRACE_SCHEMA}\",\"party\":1,\"segment\":0}}\n\
                 {{\"time_us\":7,\"party\":1,\"protocol\":\"kv\",\"family\":\"net\",\
                 \"phase\":\"send\",\"round\":1,\"bytes\":9}}\n\
                 {{\"dropped\":4}}\n\
                 {{\"time_us\":9,\"party\":1,\"protocol\":\"kv\",\"family\":\"rb\",\
                 \"phase\":\"echo\",\"round\":0,\"bytes\":0,\"cause\":[1,1],\"wait_us\":3}}\n"
            ),
        )
        .expect("write");
        let file = load_trace(&path).expect("loads");
        assert_eq!((file.party, file.segment, file.dropped), (1, 0, 4));
        assert_eq!(file.events.len(), 2);
        assert_eq!(file.events[1].wait_us, 3);
        let files = find_trace_files(&dir).expect("find");
        assert_eq!(files, vec![path.clone()]);
        let merged = merge_streams(&files).expect("merge");
        assert_eq!(merged.dropped, 4);
        assert!(causal_resolution(&merged).is_complete());
        // A dump of the same party merges into the same process row.
        let dump = dir.join("sintra-dump-1-stall.json");
        std::fs::write(&dump, dump_body(1, 2)).expect("write");
        let merged = merge_streams(&[dump, path]).expect("merge mixed");
        assert_eq!(merged.events.len(), 4);
        assert_eq!(merged.dropped, 6);
        let process_rows: Vec<u64> = chrome_events(&merged)
            .iter()
            .filter(|e| str_field(e, "name") == Some("process_name"))
            .filter_map(|e| e.get("pid").and_then(JsonValue::as_u64))
            .collect();
        assert_eq!(process_rows, [1]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
