//! Named metrics with units, the run context, and the result line.

use crate::json::quote;

/// An ordered list of `(name, value, unit)`.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.items.iter_mut().find(|(n, _, _)| n == name) {
            Some(item) => *item = (name.to_string(), value, unit),
            None => self.items.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .items
            .iter()
            .map(|(n, v, u)| {
                format!("{}: {{\"value\": {}, \"unit\": {}}}", quote(n), number(*v), quote(u))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number with every digit the measurement has.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Free-form run context: `(key, raw JSON value)` pairs.
#[derive(Clone, Debug, Default)]
pub struct Context {
    items: Vec<(String, String)>,
}

impl Context {
    pub fn num(&mut self, key: &str, v: f64) {
        self.items.push((key.to_string(), number(v)));
    }

    pub fn text(&mut self, key: &str, v: &str) {
        self.items.push((key.to_string(), quote(v)));
    }

    pub fn raw(&mut self, key: &str, json: String) {
        self.items.push((key.to_string(), json));
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> =
            self.items.iter().map(|(k, v)| format!("{}: {}", quote(k), v)).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}
