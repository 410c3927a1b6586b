//! Order statistics and the metric table printed as the result line.

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between the
/// closest ranks (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    let weight = position - low as f64;
    sorted[low] * (1.0 - weight) + sorted[high] * weight
}

/// The geometric mean of strictly positive `values` (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Seconds → milliseconds.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// The unit a metric's name implies: one rule for every metric, so the
/// printed units cannot drift from the names in `BENCHMARK.json`.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_per_s") {
        "1/s"
    } else if name.ends_with("_ms") || name.ends_with(".ms") || name.contains("_ms_") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_frac") {
        "ratio"
    } else if name.ends_with("_mb") {
        "MB"
    } else {
        "count"
    }
}

/// Named metrics, in insertion order; each one's unit follows from its
/// name ([`unit_of`]).
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64)>,
}

impl Metrics {
    /// Records (or overwrites) one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = value,
            None => self.entries.push((name, value)),
        }
    }

    /// A count metric.
    pub fn count(&mut self, name: impl Into<String>, value: usize) {
        self.set(name, value as f64);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Renders `{"name": {"value": v, "unit": "u"}, ...}` for the metrics
    /// named in `keep`, in recording order.
    pub fn to_json(&self, keep: &[&str]) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .filter(|(name, _)| keep.contains(&name.as_str()))
            .map(|(name, value)| {
                // `+ 0.0` turns an empty sum's -0.0 into 0.
                let value = if value.is_finite() { value + 0.0 } else { 0.0 };
                let unit = unit_of(name);
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_render_in_order_with_units() {
        let mut m = Metrics::default();
        m.set("a_ms", 1.5);
        m.count("b", 3);
        m.set("a_ms", 2.0);
        assert_eq!(
            m.to_json(&["a_ms", "b"]),
            "{\"a_ms\": {\"value\": 2.0, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
        assert_eq!(
            m.to_json(&["b"]),
            "{\"b\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
    }
}
