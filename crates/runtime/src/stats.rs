//! Small statistics helpers for the experiment harness: confidence
//! bounds and log-log exponent fitting (used to check that measured step
//! curves grow no faster than the theorem exponents). Distributions are
//! recorded into `wfl_obs::FixedHistogram`.

/// A Bernoulli success-rate estimate with a Wilson score lower bound,
/// used to compare empirical success probabilities against the paper's
/// analytic `1/(κL)`-style bounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bernoulli {
    /// Number of successes observed.
    pub successes: u64,
    /// Number of trials observed.
    pub trials: u64,
}

impl Bernoulli {
    /// Records one trial.
    pub fn record(&mut self, success: bool) {
        self.trials += 1;
        if success {
            self.successes += 1;
        }
    }

    /// Point estimate of the success probability (0 if no trials).
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Wilson score interval lower bound at confidence `z` (e.g. 2.58 for
    /// 99%). Conservative: suitable for asserting `rate >= bound`.
    pub fn wilson_lower(&self, z: f64) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        let n = self.trials as f64;
        let p = self.rate();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = p + z2 / (2.0 * n);
        let margin = z * ((p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt();
        ((center - margin) / denom).max(0.0)
    }
}

/// Least-squares fit of `ln y = b ln x + ln a` over points with positive
/// coordinates; returns the exponent `b`. Used to verify that measured
/// step counts scale like `κ^b` with `b` at most the theorem's exponent.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> =
        points.iter().filter(|(x, y)| *x > 0.0 && *y > 0.0).map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return 0.0;
    }
    (n * sxy - sx * sy) / denom
}

/// Formats a markdown-style table row (used by the experiment binaries).
pub fn table_row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_wilson_bound_is_below_rate() {
        let mut b = Bernoulli::default();
        for i in 0..1000 {
            b.record(i % 4 == 0);
        }
        assert!((b.rate() - 0.25).abs() < 0.01);
        let lo = b.wilson_lower(2.58);
        assert!(lo < b.rate());
        assert!(lo > 0.2, "1000 trials should give a tight bound, got {lo}");
    }

    #[test]
    fn loglog_slope_recovers_exponent() {
        // y = 3 x^2
        let pts: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, 3.0 * (i * i) as f64)).collect();
        let b = loglog_slope(&pts);
        assert!((b - 2.0).abs() < 1e-9, "slope {b}");
    }

    #[test]
    fn loglog_slope_ignores_nonpositive_points() {
        let pts = vec![(0.0, 5.0), (1.0, 2.0), (2.0, 4.0), (4.0, 8.0)];
        let b = loglog_slope(&pts);
        assert!((b - 1.0).abs() < 1e-9, "slope {b}");
    }
}
