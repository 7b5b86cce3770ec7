//! Per-run rollup reports (JSON + pretty table).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::json_string;
use crate::{HistogramSnapshot, MetricsSnapshot, CRYPTO_WORK_MILLI};

/// Histogram name runtimes record end-to-end delivery latency under
/// (microseconds from client send to local channel delivery).
pub const DELIVERY_LATENCY: &str = "delivery_latency_us";

/// Histogram name runtimes feed from the atomic channel's `batch` trace
/// event: the number of payloads each decided round delivered.
pub const BATCH_SIZE: &str = "batch_size";

/// Totals for one reporting scope (one top-level protocol instance,
/// i.e. one channel in the paper's Table 1 terminology).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProtocolRow {
    /// Reporting scope (root protocol instance id).
    pub scope: String,
    /// Point-to-point messages handed to the network layer.
    pub msgs_sent: u64,
    /// Messages that reached a running party's state machine.
    pub msgs_delivered: u64,
    /// Messages dropped by the link model or a crashed receiver.
    pub msgs_dropped: u64,
    /// Total payload bytes across sent messages.
    pub bytes_sent: u64,
    /// Protocol round/epoch advances (ABBA rounds, MVBA loops, epochs).
    pub rounds: u64,
    /// Application-level deliveries (decided values, ordered payloads).
    pub deliveries: u64,
    /// Attributed crypto work in milliunits (1000 = one 1024-bit
    /// modular exponentiation).
    pub crypto_work_milli: u64,
    /// Remaining counters for this scope, e.g. per message kind.
    pub extra: BTreeMap<String, u64>,
    /// End-to-end delivery latency distribution in microseconds
    /// ([`DELIVERY_LATENCY`]), when the runtime recorded one.
    pub latency: Option<HistogramSnapshot>,
    /// Atomic-channel rounds decided, summed over parties
    /// ([`BATCH_SIZE`] observations).
    pub decided_rounds: u64,
    /// Payloads those rounds delivered, summed over parties.
    pub ordered_payloads: u64,
}

impl ProtocolRow {
    /// Attributed crypto work in work units (1.0 = one 1024-bit
    /// modexp).
    pub fn crypto_work(&self) -> f64 {
        self.crypto_work_milli as f64 / CRYPTO_WORK_MILLI
    }

    /// Mean number of payloads (requests) one decided atomic-channel
    /// round delivered, when the scope decided any.
    pub fn payloads_per_round(&self) -> Option<f64> {
        (self.decided_rounds > 0).then(|| self.ordered_payloads as f64 / self.decided_rounds as f64)
    }

    fn add(&mut self, other: &ProtocolRow) {
        self.msgs_sent += other.msgs_sent;
        self.msgs_delivered += other.msgs_delivered;
        self.msgs_dropped += other.msgs_dropped;
        self.bytes_sent += other.bytes_sent;
        self.rounds += other.rounds;
        self.deliveries += other.deliveries;
        self.crypto_work_milli += other.crypto_work_milli;
        self.decided_rounds += other.decided_rounds;
        self.ordered_payloads += other.ordered_payloads;
        for (k, v) in &other.extra {
            *self.extra.entry(k.clone()).or_insert(0) += v;
        }
        if let Some(theirs) = &other.latency {
            match &mut self.latency {
                Some(mine) => mine.merge(theirs),
                None => self.latency = Some(theirs.clone()),
            }
        }
    }
}

/// Rollup of one finished run: a label, the party count, how long the
/// run took, and one [`ProtocolRow`] per reporting scope.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Free-form run label (experiment name, bench id, …).
    pub label: String,
    /// Number of parties in the run.
    pub parties: usize,
    /// Run duration in microseconds (virtual or wall, runtime-defined).
    pub duration_us: u64,
    /// One row per scope, ordered by scope name.
    pub rows: Vec<ProtocolRow>,
}

impl RunReport {
    /// Builds a report from a metrics snapshot.
    pub fn from_snapshot(
        label: impl Into<String>,
        parties: usize,
        duration_us: u64,
        snapshot: &MetricsSnapshot,
    ) -> Self {
        let mut rows: BTreeMap<String, ProtocolRow> = BTreeMap::new();
        let row_for = |rows: &mut BTreeMap<String, ProtocolRow>, scope: &String| {
            rows.entry(scope.clone()).or_insert_with(|| ProtocolRow {
                scope: scope.clone(),
                ..ProtocolRow::default()
            });
        };
        for (scope, counters) in &snapshot.counters {
            row_for(&mut rows, scope);
            let row = rows.get_mut(scope).expect("just inserted");
            for (name, &value) in counters {
                match name.as_str() {
                    "msgs_sent" => row.msgs_sent = value,
                    "msgs_delivered" => row.msgs_delivered = value,
                    "msgs_dropped" => row.msgs_dropped = value,
                    "bytes_sent" => row.bytes_sent = value,
                    "rounds" => row.rounds = value,
                    "deliveries" => row.deliveries = value,
                    "crypto_work_milli" => row.crypto_work_milli = value,
                    _ => {
                        row.extra.insert(name.clone(), value);
                    }
                }
            }
        }
        for (scope, hists) in &snapshot.histograms {
            if let Some(h) = hists.get(DELIVERY_LATENCY) {
                if !h.is_empty() {
                    row_for(&mut rows, scope);
                    rows.get_mut(scope).expect("just inserted").latency = Some(h.clone());
                }
            }
            if let Some(h) = hists.get(BATCH_SIZE) {
                if !h.is_empty() {
                    row_for(&mut rows, scope);
                    let row = rows.get_mut(scope).expect("just inserted");
                    row.decided_rounds = h.count;
                    row.ordered_payloads = h.sum;
                }
            }
        }
        RunReport {
            label: label.into(),
            parties,
            duration_us,
            rows: rows.into_values().collect(),
        }
    }

    /// Sum of every row.
    pub fn totals(&self) -> ProtocolRow {
        let mut total = ProtocolRow {
            scope: "total".to_string(),
            ..ProtocolRow::default()
        };
        for row in &self.rows {
            total.add(row);
        }
        total
    }

    /// Row for one scope, if present.
    pub fn row(&self, scope: &str) -> Option<&ProtocolRow> {
        self.rows.iter().find(|r| r.scope == scope)
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"label\":{},\"parties\":{},\"duration_us\":{},\"channels\":[",
            json_string(&self.label),
            self.parties,
            self.duration_us,
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"scope\":{},\"msgs_sent\":{},\"msgs_delivered\":{},\"msgs_dropped\":{},\"bytes_sent\":{},\"rounds\":{},\"deliveries\":{},\"crypto_work\":{:.3},\"by_kind\":{{",
                json_string(&row.scope),
                row.msgs_sent,
                row.msgs_delivered,
                row.msgs_dropped,
                row.bytes_sent,
                row.rounds,
                row.deliveries,
                row.crypto_work(),
            );
            for (j, (name, value)) in row.extra.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_string(name), value);
            }
            out.push('}');
            if let Some(per_round) = row.payloads_per_round() {
                let _ = write!(out, ",\"payloads_per_round\":{per_round:.2}");
            }
            if let Some(lat) = &row.latency {
                let _ = write!(
                    out,
                    ",\"latency_us\":{{\"count\":{},\"p50\":{},\"p95\":{},\"max\":{}}}",
                    lat.count,
                    lat.quantile(0.5),
                    lat.quantile(0.95),
                    lat.quantile(1.0),
                );
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Renders the report as an aligned text table with a totals line.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run report: {} ({} parties, {} µs)",
            self.label, self.parties, self.duration_us
        );
        let header = [
            "channel",
            "sent",
            "delivered",
            "dropped",
            "bytes",
            "rounds",
            "deliv",
            "req/rnd",
            "crypto",
            "p50µs",
            "p95µs",
            "maxµs",
        ];
        let lat_cell = |row: &ProtocolRow, q: f64| match &row.latency {
            Some(lat) => lat.quantile(q).to_string(),
            None => "-".to_string(),
        };
        let mut table: Vec<[String; 12]> = Vec::with_capacity(self.rows.len() + 2);
        table.push(header.map(str::to_string));
        for row in self.rows.iter().chain(std::iter::once(&self.totals())) {
            table.push([
                row.scope.clone(),
                row.msgs_sent.to_string(),
                row.msgs_delivered.to_string(),
                row.msgs_dropped.to_string(),
                row.bytes_sent.to_string(),
                row.rounds.to_string(),
                row.deliveries.to_string(),
                row.payloads_per_round()
                    .map_or_else(|| "-".to_string(), |v| format!("{v:.2}")),
                format!("{:.3}", row.crypto_work()),
                lat_cell(row, 0.5),
                lat_cell(row, 0.95),
                lat_cell(row, 1.0),
            ]);
        }
        let mut widths = [0usize; 12];
        for line in &table {
            for (w, cell) in widths.iter_mut().zip(line.iter()) {
                // Char count, not byte length: the header has a µ.
                *w = (*w).max(cell.chars().count());
            }
        }
        for (i, line) in table.iter().enumerate() {
            let mut rendered = String::new();
            for (col, (cell, w)) in line.iter().zip(widths.iter()).enumerate() {
                if col > 0 {
                    rendered.push_str("  ");
                }
                if col == 0 {
                    rendered.push_str(&format!("{cell:<w$}"));
                } else {
                    rendered.push_str(&format!("{cell:>w$}"));
                }
            }
            let _ = writeln!(out, "{}", rendered.trim_end());
            if i == 0 {
                let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
                let _ = writeln!(out, "{}", "-".repeat(total));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRegistry, Recorder};

    fn sample_snapshot() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.counter_add("atomic", "msgs_sent", 120);
        r.counter_add("atomic", "msgs_delivered", 110);
        r.counter_add("atomic", "msgs_dropped", 10);
        r.counter_add("atomic", "bytes_sent", 48_000);
        r.counter_add("atomic", "rounds", 6);
        r.counter_add("atomic", "deliveries", 12);
        r.counter_add("atomic", "crypto_work_milli", 2500);
        r.counter_add("atomic", "ba-pre-vote", 24);
        r.counter_add("vcb", "msgs_sent", 16);
        r.counter_add("vcb", "bytes_sent", 4096);
        r.snapshot()
    }

    #[test]
    fn report_rows_map_counters_to_columns() {
        let report = RunReport::from_snapshot("t1", 4, 9000, &sample_snapshot());
        assert_eq!(report.rows.len(), 2);
        let atomic = report.row("atomic").expect("row");
        assert_eq!(atomic.msgs_sent, 120);
        assert_eq!(atomic.msgs_delivered, 110);
        assert_eq!(atomic.msgs_dropped, 10);
        assert_eq!(atomic.bytes_sent, 48_000);
        assert_eq!(atomic.rounds, 6);
        assert_eq!(atomic.deliveries, 12);
        assert!((atomic.crypto_work() - 2.5).abs() < 1e-9);
        assert_eq!(atomic.extra["ba-pre-vote"], 24);
    }

    #[test]
    fn totals_sum_rows() {
        let report = RunReport::from_snapshot("t1", 4, 9000, &sample_snapshot());
        let totals = report.totals();
        assert_eq!(totals.msgs_sent, 136);
        assert_eq!(totals.bytes_sent, 52_096);
        assert_eq!(totals.extra["ba-pre-vote"], 24);
    }

    #[test]
    fn json_contains_all_channels() {
        let report = RunReport::from_snapshot("t1", 4, 9000, &sample_snapshot());
        let json = report.to_json();
        assert!(json.starts_with("{\"label\":\"t1\""));
        assert!(json.contains("\"scope\":\"atomic\""));
        assert!(json.contains("\"scope\":\"vcb\""));
        assert!(json.contains("\"crypto_work\":2.500"));
        assert!(json.contains("\"by_kind\":{\"ba-pre-vote\":24}"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn table_renders_header_rows_and_totals() {
        let report = RunReport::from_snapshot("t1", 4, 9000, &sample_snapshot());
        let table = report.to_table();
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].contains("t1"));
        assert!(lines[1].starts_with("channel"));
        // title + header + separator + 2 rows + totals
        assert_eq!(lines.len(), 6);
        assert!(lines[2].chars().all(|c| c == '-'));
        assert!(lines[5].starts_with("total"));
    }

    #[test]
    fn latency_histograms_surface_in_table_and_json() {
        let r = MetricsRegistry::new();
        r.counter_add("atomic", "msgs_sent", 4);
        r.counter_add("rc", "msgs_sent", 1);
        for v in [900u64, 1000, 1100, 9000] {
            r.observe("atomic", DELIVERY_LATENCY, v);
        }
        let report = RunReport::from_snapshot("lat", 4, 9000, &r.snapshot());
        let atomic = report.row("atomic").expect("row");
        let lat = atomic.latency.as_ref().expect("latency recorded");
        assert_eq!(lat.count, 4);
        // rc recorded no latency: its cells render as "-".
        assert!(report.row("rc").expect("row").latency.is_none());
        let json = report.to_json();
        assert!(json.contains("\"latency_us\":{\"count\":4,\"p50\":"));
        let table = report.to_table();
        let header = table.lines().nth(1).expect("header");
        assert!(header.contains("p50µs") && header.contains("maxµs"));
        let rc_line = table.lines().find(|l| l.starts_with("rc")).expect("rc row");
        assert!(rc_line.trim_end().ends_with('-'));
        // Totals row folds the single distribution in unchanged.
        assert_eq!(report.totals().latency.as_ref().unwrap().count, 4);
    }

    #[test]
    fn payloads_per_round_comes_from_the_batch_histogram() {
        let r = MetricsRegistry::new();
        r.counter_add("atomic", "msgs_sent", 4);
        r.counter_add("rc", "msgs_sent", 1);
        // Four parties saw the same three rounds deliver 1, 4 and 3.
        for _ in 0..4 {
            for delivered in [1u64, 4, 3] {
                r.observe("atomic", BATCH_SIZE, delivered);
            }
        }
        let report = RunReport::from_snapshot("batches", 4, 9000, &r.snapshot());
        let atomic = report.row("atomic").expect("row");
        assert_eq!((atomic.decided_rounds, atomic.ordered_payloads), (12, 32));
        assert!((atomic.payloads_per_round().unwrap() - 8.0 / 3.0).abs() < 1e-9);
        assert_eq!(report.row("rc").unwrap().payloads_per_round(), None);
        assert!(report.to_json().contains("\"payloads_per_round\":2.67"));
        let table = report.to_table();
        assert!(table.lines().nth(1).unwrap().contains("req/rnd"));
        let cell = |line: &str| line.split_whitespace().nth(7).map(str::to_string);
        let line = |name: &str| {
            table
                .lines()
                .find(|l| l.starts_with(name))
                .unwrap()
                .to_string()
        };
        assert_eq!(cell(&line("atomic")).as_deref(), Some("2.67"));
        assert_eq!(cell(&line("rc")).as_deref(), Some("-"));
        assert_eq!(cell(&line("total")).as_deref(), Some("2.67"));
    }

    #[test]
    fn histogram_only_scope_still_gets_a_row() {
        let r = MetricsRegistry::new();
        r.observe("ghost", DELIVERY_LATENCY, 5);
        let report = RunReport::from_snapshot("g", 1, 0, &r.snapshot());
        assert!(report.row("ghost").expect("row").latency.is_some());
    }

    #[test]
    fn empty_snapshot_gives_empty_report() {
        let report = RunReport::from_snapshot("none", 0, 0, &MetricsSnapshot::default());
        assert!(report.rows.is_empty());
        assert_eq!(
            report.to_json(),
            "{\"label\":\"none\",\"parties\":0,\"duration_us\":0,\"channels\":[]}"
        );
    }
}
