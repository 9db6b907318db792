//! Order statistics for small samples of repetition times.

/// Median, quartiles and extremes of one metric's repetitions. There is no
/// tail percentile on purpose: a run never has ten samples beyond one.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN.
    pub fn of(sample: &[f64]) -> Summary {
        assert!(!sample.is_empty(), "a summary needs at least one sample");
        let mut v = sample.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("times are never NaN"));
        Summary {
            n: v.len(),
            min: v[0],
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
            max: v[v.len() - 1],
        }
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// The `p`-quantile of an ascending sample, interpolating linearly between
/// the two nearest ranks (rank `p·(n−1)`).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median alone.
pub fn median(sample: &[f64]) -> f64 {
    Summary::of(sample).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sample_hits_the_ranks_exactly() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3, s.max), (5, 1.0, 2.0, 3.0, 4.0, 5.0));
        assert_eq!(s.iqr_share(), 2.0 / 3.0);
    }

    #[test]
    fn even_sample_interpolates() {
        let s = Summary::of(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = Summary::of(&[7.5]);
        assert_eq!((s.min, s.q1, s.median, s.q3, s.max), (7.5, 7.5, 7.5, 7.5, 7.5));
        assert_eq!(s.iqr_share(), 0.0);
        assert_eq!(median(&[2.0, 8.0]), 5.0);
    }
}
