//! The benchmark's declared metrics (read from `BENCHMARK.json`) and the
//! result of one workload run: printed one line per metric and rendered
//! as the JSON object that ends the output.

use pps_obs::JsonValue;

/// `BENCHMARK.json`, the single place metric names, units, directions
/// and regression bounds are declared.
pub const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median a metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let doc = JsonValue::parse(SPEC_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let list = doc
                .get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))?;
            list.iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(JsonValue::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: text("name")?,
                        unit: text("unit")?,
                        lower_is_better: text("better")? == "lower",
                        bound: m.get("bound").and_then(JsonValue::as_f64),
                    })
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("BENCHMARK.json: no `workloads` list")?
            .iter()
            .filter_map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            })
            .collect();
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// One measured value and how many samples it summarises.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

pub struct Report {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// One human-readable line per metric: value, unit, sample count.
    pub fn lines(&self, spec: &Spec) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                let unit = spec.metric(m.name).map_or("?", |s| s.unit.as_str());
                format!(
                    "{:<16} {:<28} {:>16.6} {:<6} (n={})",
                    self.workload, m.name, m.value, unit, m.samples
                )
            })
            .collect()
    }

    /// The result object: `correct`, `attempted`, `failed`, and each
    /// metric's value with the unit `BENCHMARK.json` declares for it.
    ///
    /// # Errors
    /// A metric `BENCHMARK.json` does not declare.
    pub fn to_json(&self, spec: &Spec) -> Result<JsonValue, String> {
        let mut metrics = JsonValue::object();
        for m in &self.metrics {
            let declared = spec
                .metric(m.name)
                .ok_or_else(|| format!("metric {} is not declared in BENCHMARK.json", m.name))?;
            metrics = metrics.field(
                m.name,
                JsonValue::object()
                    .field("value", JsonValue::Float(m.value))
                    .field("unit", declared.unit.as_str()),
            );
        }
        Ok(JsonValue::object()
            .field("correct", self.correct)
            .field("attempted", self.attempted as u64)
            .field("failed", self.failed as u64)
            .field("metrics", metrics))
    }
}
