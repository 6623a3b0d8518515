//! Result output: the one-line JSON result, the provenance stamp, and the
//! files a run leaves in the output directory.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of `v` (non-finite values become null).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A flat JSON object of string-valued fields.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), v))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The output directory (inside the checkout), created on demand.
pub fn dir() -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var("PERFBENCH_OUT").unwrap_or_else(|_| ".bench_out".into()));
    fs::create_dir_all(&dir).ok()?;
    Some(dir)
}

/// Saves a workload's untraced end-to-end metrics as `name value` lines, so
/// the traced run can report its overhead against them.
pub fn save_untraced(workload: &str, metrics: &[Metric]) {
    let Some(dir) = dir() else { return };
    let text: String = metrics
        .iter()
        .map(|m| format!("{} {}\n", m.name, m.value))
        .collect();
    let _ = fs::write(dir.join(format!("{workload}.untraced.txt")), text);
}

/// The last untraced end-to-end metrics saved for `workload`.
pub fn load_untraced(workload: &str) -> Vec<(String, f64)> {
    let Some(dir) = dir() else { return Vec::new() };
    let Ok(text) = fs::read_to_string(dir.join(format!("{workload}.untraced.txt"))) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("lag_p50_ms", 18.25, "ms"),
                Metric::new("setup_s", 0.5, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"lag_p50_ms\": {\"value\": 18.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(quote("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
