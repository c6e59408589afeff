//! Median and quartiles of a sample, reported with its size.

/// A timing or count summarized as median and quartiles over `n` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A single value that was measured once (or is exact): every
    /// quantile is the value itself.
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Median and quartiles of `values`. Quartiles use the "exclusive"
    /// method of Python's `statistics.quantiles(values, n=4)`, so they
    /// match a spread computed with Python over the same samples. An
    /// empty sample summarizes as zero with `n = 0`.
    pub fn of(values: &[f64]) -> Summary {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => Summary {
                n: 0,
                ..Summary::exact(0.0)
            },
            1 => Summary::exact(v[0]),
            _ => {
                let median = if n % 2 == 1 {
                    v[n / 2]
                } else {
                    (v[n / 2 - 1] + v[n / 2]) / 2.0
                };
                Summary {
                    median,
                    q1: exclusive_quartile(&v, 1),
                    q3: exclusive_quartile(&v, 3),
                    n,
                }
            }
        }
    }

    /// Element-wise sum of independent summaries (the pass time as the
    /// sum of each cell's median job time, and likewise for quartiles).
    /// `n` is the smallest contributing sample count.
    pub fn sum(parts: &[Summary]) -> Summary {
        Summary {
            median: parts.iter().map(|s| s.median).sum(),
            q1: parts.iter().map(|s| s.q1).sum(),
            q3: parts.iter().map(|s| s.q3).sum(),
            n: parts.iter().map(|s| s.n).min().unwrap_or(0),
        }
    }
}

/// Quartile `i` (1 or 3) of the sorted sample `v` (`v.len() >= 2`), by
/// linear interpolation between order statistics at position
/// `i * (len + 1) / 4`; the bracketing pair is clamped to the sample, so
/// a position past either end extrapolates, as Python does.
fn exclusive_quartile(v: &[f64], i: usize) -> f64 {
    let m = v.len() + 1;
    let j = (i * m / 4).clamp(1, v.len() - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Geometric mean of positive values (1.0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates on tiny samples.
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (0.75, 1.5, 2.25, 2));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 4.0, 3));
    }

    #[test]
    fn small_samples_report_their_size() {
        assert_eq!(Summary::of(&[3.5]), Summary::exact(3.5));
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn sums_add_quantiles_and_keep_the_smallest_n() {
        let a = Summary::of(&[1.0, 2.0, 3.0]);
        let b = Summary::of(&[10.0, 20.0]);
        let s = Summary::sum(&[a, b]);
        assert_eq!(s.median, 2.0 + 15.0);
        assert_eq!(s.q1, 1.0 + 7.5);
        assert_eq!(s.q3, 3.0 + 22.5);
        assert_eq!(s.n, 2);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}
