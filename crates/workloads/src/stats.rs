//! Small, dependency-free summary statistics for experiment outputs:
//! means, standard deviations, and quantiles of latency samples.
//! [`Summary::of`] buffers every sample, sorts, and interpolates
//! quantiles; this is what the paper-fidelity goldens are pinned against.

/// Summary of a sample of latencies (or any nonnegative metric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample. Returns `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
        let n = v.len();
        let mean = v.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        };
        Some(Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: v[0],
            p50: quantile(&v, 0.50),
            p95: quantile(&v, 0.95),
            p99: quantile(&v, 0.99),
            max: v[n - 1],
        })
    }

    /// Coefficient of variation (σ/µ); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

/// Linear-interpolation quantile of a **sorted** sample, `q ∈ [0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "q out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[42.0]).unwrap();
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.p50, 42.0);
        assert_eq!(s.p99, 42.0);
    }

    #[test]
    fn known_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        // Sample std dev of 1..5 = sqrt(2.5).
        assert!((s.std_dev - 2.5f64.sqrt()).abs() < 1e-12);
        assert!((s.cv() - 2.5f64.sqrt() / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 40.0);
        assert_eq!(quantile(&v, 0.5), 25.0);
        assert!((quantile(&v, 0.25) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn order_independent() {
        let a = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        let b = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "q out of range")]
    fn bad_quantile_panics() {
        quantile(&[1.0], 1.5);
    }
}
