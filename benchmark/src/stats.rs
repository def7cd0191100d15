//! Order statistics of a handful of wall-clock samples.
//!
//! Every timed metric is reported as a median with its quartiles and the
//! sample count. A run yields 5 to 40 samples, which is too few for a
//! tail percentile (the highest percentile with ten samples beyond it
//! would be the median itself), so none is reported.

/// Median and quartiles of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let [q1, median, q3] = quartiles(samples)?;
        Some(Summary {
            n: samples.len(),
            q1,
            median,
            q3,
        })
    }

    /// How far this median may move from run to run, as a share of it:
    /// the distance between the quartiles over √n (the usual rough error
    /// of a median). `--compare` holds it against a metric's bound.
    pub fn median_spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs() / (self.n as f64).sqrt()
    }
}

/// The three cut points of Python's `statistics.quantiles(v, n=4)`
/// (its default "exclusive" method), so this harness and the driver that
/// checks it agree on what a quartile is. A single sample is its own
/// quartiles.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    match m {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => Some([1, 2, 3].map(|i| {
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        })),
    }
}

/// Median of `samples` (0 when empty, so a layer that never ran reads 0).
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).map_or(0.0, |q| q[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
    }

    #[test]
    fn summary_reports_count_and_median_spread() {
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.median_spread(), (12.0 - 1.5) / 4.0 / 5f64.sqrt());
        assert!(Summary::of(&[]).is_none());
    }
}
