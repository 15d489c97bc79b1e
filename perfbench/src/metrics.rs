//! Named metrics and the benchmark's result line.

use serde_json::Value;
use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Dotted metric name (`host_s`, `sim.host_ns_per_cycle.1b-4VL`).
    pub name: String,
    /// Unit (`s`, `ms`, `count`, `Mcycles/s`, …).
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
    /// What the value is, when the name alone does not say (which
    /// percentile a tail is, or why a layer reads 0 on this workload).
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
            note: String::new(),
        }
    }

    /// Attaches a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// A metric name: starts with a letter or digit, at most 64 characters
/// of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 characters of letters, digits, `_`, `/`, `%`, `.`
/// and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// A JSON number; a non-finite value (a bug upstream) becomes 0.
pub fn num(x: f64) -> Value {
    Value::F64(if x.is_finite() { x } else { 0.0 })
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The machine-readable last line of a run:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = Value::Map(
        metrics
            .iter()
            .map(|m| {
                let unit = Value::Str(m.unit.to_string());
                (
                    m.name.clone(),
                    obj([("value", num(m.value)), ("unit", unit)]),
                )
            })
            .collect(),
    );
    let line = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&line).expect("a JSON tree serializes")
}

/// One human-readable line per metric: name, value, unit, sample count
/// and note.
pub fn render(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = write!(
            out,
            "  {:<34} {:>16.6} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        );
        if !m.note.is_empty() {
            let _ = write!(out, "  ({})", m.note);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[Metric::new("host_s", "s", 1.5, 2)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"host_s":{"value":1.5,"unit":"s"}}}"#
        );
    }

    #[test]
    fn numbers_keep_every_digit() {
        let line = result_line(true, 1, 0, &[Metric::new("x", "s", 0.1234567891234, 1)]);
        assert!(line.contains(r#""value":0.1234567891234,"#), "{line}");
        let line = result_line(true, 1, 0, &[Metric::new("x", "s", f64::NAN, 1)]);
        assert!(line.contains(r#""value":0.0,"#), "{line}");
    }
}
