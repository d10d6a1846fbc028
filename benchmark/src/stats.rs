//! Order statistics over the samples of one metric.

/// Fewer samples than this and [`Summary::median`] is `None`: with one or
/// two passes the "median" is just a sample (or a mean of two) and would
/// be read as steadier than it is.
pub const MIN_SAMPLES_FOR_MEDIAN: usize = 3;

/// Median of `values` (mean of the middle pair for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// The samples of one metric, reduced to what a report shows.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Summary {
    /// Median, present only from [`MIN_SAMPLES_FOR_MEDIAN`] samples up.
    pub median: Option<f64>,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` for an empty slice.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let min = values.iter().copied().min_by(f64::total_cmp)?;
        let max = values.iter().copied().max_by(f64::total_cmp)?;
        let median = if values.len() >= MIN_SAMPLES_FOR_MEDIAN { median(values) } else { None };
        Some(Summary { median, min, max, n: values.len() })
    }

    /// The value a report leads with: the median when there are enough
    /// samples for one, else the midpoint of the observed range (quick and
    /// traced runs take one or two passes).
    pub fn headline(&self) -> f64 {
        self.median.unwrap_or((self.min + self.max) / 2.0)
    }

    /// `(max − min) ÷ headline`: the run-to-run spread as a share of the
    /// value, the quantity a bound is compared with.
    pub fn spread(&self) -> f64 {
        let h = self.headline();
        if h == 0.0 {
            0.0
        } else {
            (self.max - self.min) / h.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn summary_reports_min_max_n() {
        let s = Summary::of(&[5.0, 1.0, 9.0, 3.0, 7.0]).unwrap();
        assert_eq!((s.min, s.max, s.n), (1.0, 9.0, 5));
        assert_eq!(s.median, Some(5.0));
        assert_eq!(s.headline(), 5.0);
        assert!((s.spread() - 8.0 / 5.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn no_median_from_fewer_than_three_samples() {
        let s = Summary::of(&[2.0, 4.0]).unwrap();
        assert_eq!(s.median, None);
        assert_eq!(s.headline(), 3.0);
        let s = Summary::of(&[2.0]).unwrap();
        assert_eq!((s.median, s.headline(), s.spread()), (None, 2.0, 0.0));
    }
}
