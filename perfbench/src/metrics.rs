//! Named metrics and the one-line JSON result the benchmark prints last.

use hydra_stats::Json;

/// An ordered list of `(name, value, unit)` rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds or replaces a metric. Non-finite values (a ratio over no
    /// work) are stored as 0 so the output stays valid JSON.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.rows.iter_mut().find(|r| r.0 == name) {
            Some(row) => *row = (name, value, unit),
            None => self.rows.push((name, value, unit)),
        }
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// Every row, in insertion order.
    pub fn rows(&self) -> &[(String, f64, &'static str)] {
        &self.rows
    }

    /// The `metrics` member of the result line:
    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> Json {
        Json::obj(self.rows.iter().map(|(name, value, unit)| {
            (
                name.as_str(),
                Json::obj([("value", Json::num(*value)), ("unit", Json::str(*unit))]),
            )
        }))
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::int(attempted)),
        ("failed", Json::int(failed)),
        ("metrics", metrics.to_json()),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_every_digit() {
        let mut m = Metrics::default();
        m.put("wall_s", 1.234_567_891_2, "s");
        m.put("ratio", f64::NAN, "ratio");
        let line = result_line(4, 0, &m);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":\
             {\"wall_s\":{\"value\":1.2345678912,\"unit\":\"s\"},\
             \"ratio\":{\"value\":0,\"unit\":\"ratio\"}}}"
        );
        assert!(hydra_stats::Json::parse(&line).is_ok());
    }

    #[test]
    fn put_replaces_an_existing_row() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "s");
        m.put("a", 2.0, "s");
        assert_eq!(m.rows().len(), 1);
        assert_eq!(m.get("a"), Some(2.0));
    }
}
