//! Sample summaries and the result line.

/// The median of `xs` (0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation (0 for no samples).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A tail summary: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Which percentile `value` is (100 when there are too few samples
    /// for a percentile above the median to have [`TAIL_BEYOND`] beyond
    /// it; `value` is then the maximum).
    pub pct: f64,
    pub samples: usize,
}

/// Samples a tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// See [`Tail`].
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Below 2 * (TAIL_BEYOND + 1) samples that percentile would sit under
    // the median; report the maximum instead.
    if n < 2 * (TAIL_BEYOND + 1) {
        return Tail {
            value: v.last().copied().unwrap_or(0.0),
            pct: 100.0,
            samples: n,
        };
    }
    let i = n - TAIL_BEYOND - 1;
    Tail {
        value: v[i],
        pct: 100.0 * (i + 1) as f64 / n as f64,
        samples: n,
    }
}

/// One named metric of a run.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in report order, with free-form notes printed beside them.
#[derive(Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.list.retain(|m| m.name != name);
        self.list.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.list.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite float as JSON, with all its digits.
pub fn json_number(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x:?}")
    }
}

/// Reset the process's peak resident set (`VmHWM`) to its current size,
/// so that [`peak_rss_mb`] covers only what runs after.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset the peak resident set: {e}"))
}

/// The process's peak resident set size so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.pct, t.samples), (90.0, 90.0, 100));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        let few = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((few.value, few.pct), (3.0, 100.0));
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn result_line_is_json() {
        let m = [Metric {
            name: "setup_s".into(),
            value: 2.0,
            unit: "s",
        }];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
