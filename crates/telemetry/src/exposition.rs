//! Prometheus-style text exposition: render, parse, and windowed rates.
//!
//! The render side turns a [`MetricsSnapshot`] into the text format a
//! `curl` of a scrape endpoint returns; the parse side turns that text
//! back into queryable series for `sintra-top` and for scrape-based test
//! assertions. Both are dependency-free and deliberately minimal: one
//! metric line is `name{label="value",...} number`, comment lines start
//! with `#`.
//!
//! Series naming convention (documented in DESIGN.md §11):
//!
//! * counters — `sintra_<name>_total{party="..",scope=".."}`
//! * gauges — `sintra_<name>{party="..",scope=".."}`
//! * histograms — `sintra_<name>_bucket{..,le=".."}` (cumulative,
//!   inclusive upper bounds, last bucket `le="+Inf"`), plus
//!   `sintra_<name>_sum` and `sintra_<name>_count`
//!
//! Metric names are sanitized (`[^a-zA-Z0-9_]` → `_`, so the wire kind
//! `ba-pre-vote` becomes `ba_pre_vote`); the protocol instance scope and
//! the party id travel as labels. Output ordering is deterministic:
//! families sort lexicographically, series within a family sort by
//! scope, histogram buckets ascend by bound — successive scrapes diff
//! cleanly.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::histogram::{bucket_high, BUCKETS};
use crate::{HistogramSnapshot, MetricsSnapshot};

/// Prefix shared by every exposition series.
pub const SERIES_PREFIX: &str = "sintra_";

/// Maps a raw metric name onto the exposition alphabet.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Renders one label set as `{k="v",...}`; `extra` labels come first.
fn label_block(extra: &[(&str, &str)], scope: &str) -> String {
    let mut out = String::from("{");
    for (k, v) in extra {
        out.push_str(&format!("{k}=\"{v}\","));
    }
    out.push_str(&format!("scope=\"{scope}\"}}"));
    out
}

fn histogram_lines(
    out: &mut String,
    family: &str,
    extra: &[(&str, &str)],
    scope: &str,
    h: &HistogramSnapshot,
) {
    let mut cumulative = 0u64;
    for i in 0..BUCKETS {
        if h.buckets[i] == 0 {
            continue;
        }
        cumulative += h.buckets[i];
        let mut labels = String::from("{");
        for (k, v) in extra {
            labels.push_str(&format!("{k}=\"{v}\","));
        }
        labels.push_str(&format!("le=\"{}\",scope=\"{scope}\"}}", bucket_high(i)));
        out.push_str(&format!("{family}_bucket{labels} {cumulative}\n"));
    }
    let mut labels = String::from("{");
    for (k, v) in extra {
        labels.push_str(&format!("{k}=\"{v}\","));
    }
    labels.push_str(&format!("le=\"+Inf\",scope=\"{scope}\"}}"));
    out.push_str(&format!("{family}_bucket{labels} {}\n", h.count));
    let plain = label_block(extra, scope);
    out.push_str(&format!("{family}_sum{plain} {}\n", h.sum));
    out.push_str(&format!("{family}_count{plain} {}\n", h.count));
}

/// Renders a snapshot as exposition text. `extra_labels` are constant
/// labels stamped onto every series (typically `[("party", "0")]`).
pub fn render_exposition(snap: &MetricsSnapshot, extra_labels: &[(&str, &str)]) -> String {
    // family → scope → rendered value. BTreeMaps give the sorted,
    // deterministic series order the scrape contract promises.
    let mut counters: BTreeMap<String, BTreeMap<&str, u64>> = BTreeMap::new();
    for (scope, inner) in &snap.counters {
        for (name, value) in inner {
            counters
                .entry(format!("{SERIES_PREFIX}{}_total", sanitize(name)))
                .or_default()
                .insert(scope, *value);
        }
    }
    let mut gauges: BTreeMap<String, BTreeMap<&str, u64>> = BTreeMap::new();
    for (scope, inner) in &snap.gauges {
        for (name, value) in inner {
            gauges
                .entry(format!("{SERIES_PREFIX}{}", sanitize(name)))
                .or_default()
                .insert(scope, *value);
        }
    }
    let mut histograms: BTreeMap<String, BTreeMap<&str, &HistogramSnapshot>> = BTreeMap::new();
    for (scope, inner) in &snap.histograms {
        for (name, h) in inner {
            histograms
                .entry(format!("{SERIES_PREFIX}{}", sanitize(name)))
                .or_default()
                .insert(scope, h);
        }
    }

    let mut out = String::new();
    for (family, by_scope) in &counters {
        out.push_str(&format!("# TYPE {family} counter\n"));
        for (scope, value) in by_scope {
            out.push_str(&format!(
                "{family}{} {value}\n",
                label_block(extra_labels, scope)
            ));
        }
    }
    for (family, by_scope) in &gauges {
        out.push_str(&format!("# TYPE {family} gauge\n"));
        for (scope, value) in by_scope {
            out.push_str(&format!(
                "{family}{} {value}\n",
                label_block(extra_labels, scope)
            ));
        }
    }
    for (family, by_scope) in &histograms {
        out.push_str(&format!("# TYPE {family} histogram\n"));
        for (scope, h) in by_scope {
            histogram_lines(&mut out, family, extra_labels, scope, h);
        }
    }
    out
}

/// One parsed series: a metric name, its labels, and the sample value.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Metric family name (e.g. `sintra_msgs_sent_total`).
    pub name: String,
    /// Label set, sorted by label name.
    pub labels: BTreeMap<String, String>,
    /// Sample value.
    pub value: f64,
}

impl Series {
    /// Whether this series carries every label in `want`.
    pub fn matches(&self, want: &[(&str, &str)]) -> bool {
        want.iter()
            .all(|(k, v)| self.labels.get(*k).map(String::as_str) == Some(*v))
    }
}

/// A parsed exposition document.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// Every sample line, in document order.
    pub series: Vec<Series>,
}

/// Parses one `name{k="v",...} value` line (label block optional).
fn parse_line(line: &str, lineno: usize) -> Result<Series, String> {
    let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line.rfind('}').ok_or_else(|| err("unclosed label block"))?;
            (
                &line[..brace],
                Some((&line[brace + 1..close], &line[close + 1..])),
            )
        }
        None => match line.find(char::is_whitespace) {
            Some(ws) => (&line[..ws], None),
            None => return Err(err("missing value")),
        },
    };
    let name = name_part.trim();
    if name.is_empty() {
        return Err(err("empty metric name"));
    }
    let mut labels = BTreeMap::new();
    let value_text = match rest {
        Some((label_text, tail)) => {
            for pair in label_text.split(',').filter(|p| !p.trim().is_empty()) {
                let eq = pair.find('=').ok_or_else(|| err("label missing '='"))?;
                let key = pair[..eq].trim().to_string();
                let raw = pair[eq + 1..].trim();
                let quoted = raw
                    .strip_prefix('"')
                    .and_then(|r| r.strip_suffix('"'))
                    .ok_or_else(|| err("label value not quoted"))?;
                labels.insert(key, quoted.replace("\\\"", "\"").replace("\\\\", "\\"));
            }
            tail.trim()
        }
        None => line[name.len()..].trim(),
    };
    let value = value_text
        .split_whitespace()
        .next()
        .ok_or_else(|| err("missing value"))?;
    let value = if value == "+Inf" {
        f64::INFINITY
    } else {
        value.parse::<f64>().map_err(|_| err("unparseable value"))?
    };
    Ok(Series {
        name: name.to_string(),
        labels,
        value,
    })
}

impl Exposition {
    /// Parses exposition text; `#` comments and blank lines are skipped.
    pub fn parse(text: &str) -> Result<Exposition, String> {
        let mut series = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            series.push(parse_line(line, lineno)?);
        }
        Ok(Exposition { series })
    }

    /// First sample of `name` whose labels include all of `want`.
    pub fn value(&self, name: &str, want: &[(&str, &str)]) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.name == name && s.matches(want))
            .map(|s| s.value)
    }

    /// Every sample of `name` whose labels include all of `want`.
    pub fn all(&self, name: &str, want: &[(&str, &str)]) -> Vec<&Series> {
        self.series
            .iter()
            .filter(|s| s.name == name && s.matches(want))
            .collect()
    }

    /// Distinct values of one label across every series.
    pub fn label_values(&self, label: &str) -> Vec<String> {
        let mut out: Vec<String> = self
            .series
            .iter()
            .filter_map(|s| s.labels.get(label).cloned())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Approximate quantile of a parsed histogram family: the smallest
    /// bucket bound covering the q-th observation (an upper-bound
    /// estimate; `+Inf` falls back to the largest finite bound).
    pub fn quantile(&self, family: &str, want: &[(&str, &str)], q: f64) -> Option<f64> {
        let bucket_name = format!("{family}_bucket");
        let mut buckets: Vec<(f64, f64)> = self
            .all(&bucket_name, want)
            .iter()
            .filter_map(|s| {
                let le = s.labels.get("le")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>().ok()?
                };
                Some((bound, s.value))
            })
            .collect();
        if buckets.is_empty() {
            return None;
        }
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let total = buckets.last()?.1;
        if total <= 0.0 {
            return Some(0.0);
        }
        let rank = (q.clamp(0.0, 1.0) * total).ceil().max(1.0);
        let mut best_finite = 0.0f64;
        for &(bound, cumulative) in &buckets {
            if bound.is_finite() {
                best_finite = bound;
            }
            if cumulative >= rank {
                return Some(if bound.is_finite() {
                    bound
                } else {
                    best_finite
                });
            }
        }
        Some(best_finite)
    }

    /// Windowed rate of a counter between an earlier scrape and this
    /// one: `(now - prev) / elapsed`, clamped to zero so a counter reset
    /// (process restart) never reports a negative rate.
    pub fn rate_since(
        &self,
        prev: &Exposition,
        name: &str,
        want: &[(&str, &str)],
        elapsed: Duration,
    ) -> Option<f64> {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            return None;
        }
        let now = self.value(name, want)?;
        let before = prev.value(name, want).unwrap_or(0.0);
        Some(((now - before) / secs).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRegistry, Recorder};

    fn sample_registry() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.counter_add("atomic", "msgs_sent", 42);
        r.counter_add("atomic", "ba-pre-vote", 7);
        r.counter_add("vcb", "msgs_sent", 5);
        r.gauge_set("server", "stalled", 1);
        r.observe("atomic", "delivery_latency_us", 900);
        r.observe("atomic", "delivery_latency_us", 9000);
        r
    }

    #[test]
    fn render_is_sorted_and_sanitized() {
        let text = render_exposition(&sample_registry().snapshot(), &[("party", "2")]);
        let pre_vote = text
            .lines()
            .position(|l| l.starts_with("sintra_ba_pre_vote_total"))
            .expect("sanitized counter present");
        let msgs = text
            .lines()
            .position(|l| l.starts_with("sintra_msgs_sent_total"))
            .expect("counter present");
        assert!(pre_vote < msgs, "families are ordered lexicographically");
        assert!(text.contains("sintra_msgs_sent_total{party=\"2\",scope=\"atomic\"} 42"));
        assert!(text.contains("sintra_stalled{party=\"2\",scope=\"server\"} 1"));
        assert!(text.contains("sintra_delivery_latency_us_sum{party=\"2\",scope=\"atomic\"} 9900"));
        assert!(text.contains("le=\"+Inf\""));
    }

    #[test]
    fn render_is_deterministic_across_instances() {
        // Same metrics, different insertion order: identical bytes out.
        let a = sample_registry();
        let b = MetricsRegistry::new();
        b.observe("atomic", "delivery_latency_us", 9000);
        b.gauge_set("server", "stalled", 1);
        b.counter_add("vcb", "msgs_sent", 5);
        b.counter_add("atomic", "ba-pre-vote", 7);
        b.counter_add("atomic", "msgs_sent", 40);
        b.counter_add("atomic", "msgs_sent", 2);
        b.observe("atomic", "delivery_latency_us", 900);
        assert_eq!(
            render_exposition(&a.snapshot(), &[("party", "0")]),
            render_exposition(&b.snapshot(), &[("party", "0")])
        );
    }

    #[test]
    fn parse_round_trips_rendered_text() {
        let snap = sample_registry().snapshot();
        let text = render_exposition(&snap, &[("party", "3")]);
        let exp = Exposition::parse(&text).expect("parses");
        assert_eq!(
            exp.value("sintra_msgs_sent_total", &[("scope", "atomic")]),
            Some(42.0)
        );
        assert_eq!(
            exp.value(
                "sintra_msgs_sent_total",
                &[("scope", "vcb"), ("party", "3")]
            ),
            Some(5.0)
        );
        assert_eq!(
            exp.value("sintra_stalled", &[("scope", "server")]),
            Some(1.0)
        );
        assert_eq!(
            exp.value("sintra_delivery_latency_us_count", &[("scope", "atomic")]),
            Some(2.0)
        );
        assert_eq!(exp.label_values("party"), vec!["3".to_string()]);
        // Histogram buckets are cumulative and the +Inf bucket equals count.
        assert_eq!(
            exp.value(
                "sintra_delivery_latency_us_bucket",
                &[("scope", "atomic"), ("le", "+Inf")]
            ),
            Some(2.0)
        );
    }

    #[test]
    fn parsed_quantiles_track_histogram_quantiles() {
        let r = MetricsRegistry::new();
        for _ in 0..95 {
            r.observe("atomic", "delivery_latency_us", 1000);
        }
        for _ in 0..5 {
            r.observe("atomic", "delivery_latency_us", 50_000);
        }
        let text = render_exposition(&r.snapshot(), &[]);
        let exp = Exposition::parse(&text).expect("parses");
        let p50 = exp
            .quantile("sintra_delivery_latency_us", &[("scope", "atomic")], 0.5)
            .expect("p50");
        let p99 = exp
            .quantile("sintra_delivery_latency_us", &[("scope", "atomic")], 0.99)
            .expect("p99");
        // Upper-bound estimates within the bucket's 25% relative width.
        assert!((1000.0..=1250.0).contains(&p50), "p50 = {p50}");
        assert!((50_000.0..=62_500.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Exposition::parse("sintra_x{scope=\"a\" 1").is_err());
        assert!(Exposition::parse("sintra_x{scope=a} 1").is_err());
        assert!(Exposition::parse("sintra_x{scope=\"a\"} nope").is_err());
        assert!(Exposition::parse("justaname").is_err());
    }

    #[test]
    fn rates_are_windowed_and_non_negative() {
        let r = MetricsRegistry::new();
        r.counter_add("atomic", "msgs_sent", 10);
        let first = r.snapshot();
        r.counter_add("atomic", "msgs_sent", 30);
        r.counter_add("atomic", "deliveries", 4);
        let second = r.snapshot();
        let a = Exposition::parse(&render_exposition(&first, &[])).expect("a");
        let b = Exposition::parse(&render_exposition(&second, &[])).expect("b");
        let rate = |now: &Exposition, prev: &Exposition, name: &str| {
            now.rate_since(prev, name, &[("scope", "atomic")], Duration::from_secs(2))
        };
        assert_eq!(rate(&b, &a, "sintra_msgs_sent_total"), Some(15.0));
        assert_eq!(rate(&b, &a, "sintra_deliveries_total"), Some(2.0));
        // A counter that went backwards (restart) clamps to zero.
        assert_eq!(rate(&a, &b, "sintra_msgs_sent_total"), Some(0.0));
    }
}
