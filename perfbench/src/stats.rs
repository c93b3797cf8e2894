//! Sample collections and the metric report every workload fills in.

/// Raw samples of one quantity; quantiles are nearest-rank.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Nearest-rank quantile; 0 when there are no samples.
    pub fn q(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// The median, averaging the two middle samples of an even count; 0
    /// when there are no samples.
    pub fn median(&self) -> f64 {
        let n = self.0.len();
        if n == 0 {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        (v[(n - 1) / 2] + v[n / 2]) / 2.0
    }

    pub fn p50(&self) -> f64 {
        self.q(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.q(0.99)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Least-squares slope of `ln y` against `ln x` over points with both
/// positive — the growth exponent of `y` in `x`. Points are first grouped
/// into ten equal-count bins by `x` and each bin reduced to its medians,
/// so single outliers do not steer the fit.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let mut pts: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|&(x, y)| x > 0.0 && y > 0.0)
        .collect();
    if pts.len() < 10 {
        return 0.0;
    }
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let bins: Vec<(f64, f64)> = pts
        .chunks(pts.len().div_ceil(10))
        .map(|c| {
            let xs = Samples(c.iter().map(|p| p.0).collect());
            let ys = Samples(c.iter().map(|p| p.1).collect());
            (xs.p50().ln(), ys.p50().ln())
        })
        .collect();
    let n = bins.len() as f64;
    let mx = bins.iter().map(|b| b.0).sum::<f64>() / n;
    let my = bins.iter().map(|b| b.1).sum::<f64>() / n;
    let sxy: f64 = bins.iter().map(|b| (b.0 - mx) * (b.1 - my)).sum();
    let sxx: f64 = bins.iter().map(|b| (b.0 - mx) * (b.0 - mx)).sum();
    ratio(sxy, sxx)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 for counters and derived values).
    pub samples: usize,
}

/// Operation accounting plus the metrics of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, by description.
    pub check_failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        });
    }

    /// Adds `<name>.p50` and `<name>.p99` of `s`.
    pub fn add_p50_p99(&mut self, name: &str, s: &Samples, unit: &'static str) {
        self.add(&format!("{name}.p50"), s.p50(), unit, s.len());
        self.add(&format!("{name}.p99"), s.p99(), unit, s.len());
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    /// Folds another thread's operation accounting into this one.
    pub fn merge(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.check_failures.extend(other.check_failures);
    }
}
