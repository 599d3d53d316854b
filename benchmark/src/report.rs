//! A run's result: named metrics with units, the correctness verdict, and
//! the one-line JSON object that ends the benchmark's standard output.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics that go into the final JSON line.
    pub metrics: Vec<Metric>,
    /// Human-readable detail lines (printed, not in the JSON line).
    pub notes: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Reasons the outputs were judged wrong (empty = correct).
    pub mismatches: Vec<String>,
}

impl Report {
    /// Record a metric for the JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record a detail line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Fail the run's correctness verdict unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Did every output check pass?
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The final JSON line.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values become 0).
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        r.metric("ops_per_s", 12.5, "1/s");
        r.metric("setup_s", 2.0, "s");
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        r.check(false, || "mismatch".into());
        assert!(r.json_line().starts_with("{\"correct\": false"));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(0.1234567891), "0.1234567891");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
