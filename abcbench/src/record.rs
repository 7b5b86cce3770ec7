//! One run's record: the result line the pipeline reads, and the
//! stamped JSON file `compare` reads back.

use std::fmt::Write as _;
use std::path::Path;

use sintra_telemetry::{json_escape, parse_json, JsonValue};

use crate::host::Provenance;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one pass (end to end or traced) measured.
#[derive(Debug)]
pub struct Measured {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// 90th percentile of those samples: stamped, not judged (on this
    /// host it does not hold a bound the pipeline admits).
    pub latency_p90_ms: f64,
    /// Hypervisor steal as a share of the window's wall time.
    pub steal_share: f64,
    /// Mean host speed over the window against the probe's reference.
    pub host_speed: f64,
}

/// Everything one invocation measured, with where it was measured.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub seconds: f64,
    pub warmup_s: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// 90th percentile of those samples, for information.
    pub latency_p90_ms: f64,
    /// Hypervisor steal as a share of the window's wall time.
    pub steal_share: f64,
    /// Mean host speed over the window against the probe's reference:
    /// a timing metric divided by it is what the clock showed.
    pub host_speed: f64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub provenance: Provenance,
}

/// A float as JSON, with all its digits. `main` refuses a run with a
/// metric that is not a number before it gets here; `null` keeps the
/// line valid JSON without passing for a measurement.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

impl Record {
    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_escape(&m.name),
                number(m.value),
                json_escape(m.unit)
            );
        }
        out.push('}');
        out
    }

    /// The last line of standard output: exactly `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed.min(self.attempted),
            self.metrics_json()
        )
    }

    /// The stamped record. A benchmark definition claims no gain, so
    /// the summary ends with `"claim": null`.
    pub fn to_json(&self) -> String {
        let p = &self.provenance;
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"seconds\": {}, \"warmup_s\": {}, \
             \"samples\": {}, \"latency_p90_ms\": {}, \"steal_share\": {}, \"host_speed\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"provenance\": {{\"nproc\": {}, \"cpu_model\": {}, \"cpus_allowed_list\": {}, \
             \"pinned\": {}, \"git_commit\": {}, \"rustc\": {}}}, \"metrics\": {}, \"claim\": null}}",
            json_escape(&self.workload),
            self.seed,
            self.traced,
            number(self.seconds),
            number(self.warmup_s),
            self.samples,
            number(self.latency_p90_ms),
            number(self.steal_share),
            number(self.host_speed),
            self.correct,
            self.attempted,
            self.failed,
            p.nproc,
            json_escape(&p.cpu_model),
            json_escape(&p.cpus_allowed),
            p.pinned,
            json_escape(&p.git_commit),
            json_escape(&p.rustc),
            self.metrics_json()
        )
    }

    /// `<dir>/<workload>-seed<seed>-trace<0|1>.json`
    pub fn write_into(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let name = format!(
            "{}-seed{}-trace{}.json",
            self.workload, self.seed, self.traced as u8
        );
        std::fs::write(dir.join(name), self.to_json() + "\n")
    }
}

/// What `compare` needs of a stored record.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    pub workload: String,
    pub traced: bool,
    pub pinned: bool,
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
}

impl StoredRecord {
    pub fn parse(text: &str) -> Result<StoredRecord, String> {
        let json = parse_json(text).map_err(|e| e.to_string())?;
        let field = |key: &str| json.get(key).ok_or_else(|| format!("record lacks {key:?}"));
        let flag = |value: &JsonValue, key: &str| {
            value
                .as_bool()
                .ok_or_else(|| format!("{key:?} is not a boolean"))
        };
        let metrics = field("metrics")?
            .as_object()
            .ok_or("\"metrics\" is not an object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(JsonValue::as_f64);
                value
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("metric {name:?} lacks a value"))
            })
            .collect::<Result<_, _>>()?;
        let pinned = field("provenance")?
            .get("pinned")
            .ok_or("provenance lacks \"pinned\"")?;
        Ok(StoredRecord {
            workload: field("workload")?
                .as_str()
                .ok_or("\"workload\" is not a string")?
                .to_string(),
            traced: flag(field("traced")?, "traced")?,
            pinned: flag(pinned, "pinned")?,
            correct: flag(field("correct")?, "correct")?,
            metrics,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn record(workload: &str, pinned: bool, metrics: &[(&str, f64)]) -> Record {
        Record {
            workload: workload.to_string(),
            seed: 4,
            traced: false,
            seconds: 10.0,
            warmup_s: 2.0,
            samples: 500,
            latency_p90_ms: 170.0,
            steal_share: 0.1,
            host_speed: 0.9,
            correct: true,
            attempted: 600,
            failed: 0,
            metrics: metrics
                .iter()
                .map(|(n, v)| Metric::new(*n, *v, "ms"))
                .collect(),
            provenance: Provenance {
                nproc: 2,
                cpu_model: "Some \"quoted\" CPU".to_string(),
                cpus_allowed: "1".to_string(),
                pinned,
                git_commit: "abc".to_string(),
                rustc: "rustc 1.0".to_string(),
            },
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = record(
            "abc4_sat",
            true,
            &[("latency_p50_ms", 93.25), ("setup_s", 0.04)],
        );
        let json = parse_json(&r.result_line()).expect("valid JSON");
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = json.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(93.25));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn stored_record_round_trips_and_claims_nothing() {
        let r = record("abc4_wan", true, &[("throughput_pps", 2.3)]);
        let text = r.to_json();
        assert!(text.ends_with("\"claim\": null}"));
        let back = StoredRecord::parse(&text).expect("parses");
        assert_eq!(back.workload, "abc4_wan");
        assert!(back.pinned && back.correct && !back.traced);
        assert_eq!(back.metrics, [("throughput_pps".to_string(), 2.3)]);
        assert!(StoredRecord::parse("{}").is_err());
    }

    #[test]
    fn a_non_finite_value_is_not_a_measurement() {
        let r = record("abc4_sat", true, &[("ratio", f64::NAN)]);
        let json = parse_json(&r.result_line()).expect("still valid JSON");
        let ratio = json.get("metrics").unwrap().get("ratio").unwrap();
        assert_eq!(ratio.get("value").unwrap().as_f64(), None);
        assert!(StoredRecord::parse(&r.to_json()).is_err());
    }
}
