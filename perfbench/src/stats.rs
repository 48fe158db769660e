//! Order statistics for the reported metrics.
//!
//! Percentiles use the nearest-rank definition and refuse to answer when the
//! sample is too thin: a percentile needs at least [`MIN_BEYOND`] samples
//! strictly above its rank, so a p99 needs 1,000 samples. A p99 read off a
//! few hundred requests is the third- or fourth-largest value and says more
//! about one scheduler hiccup than about the system.

/// Samples that must lie beyond a percentile's rank before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q ∈ (0, 1)` of `samples`, or an error naming
/// how many samples lie beyond the rank when fewer than [`MIN_BEYOND`] do.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "percentile must lie in (0, 1)");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Requests per latency window (see [`windowed_percentile`]).
pub const LATENCY_WINDOW: usize = 1_000;

/// Percentile `q` of a latency series in arrival order: the median, over
/// consecutive windows of at least [`LATENCY_WINDOW`] samples, of each
/// window's nearest-rank percentile. One scheduler stall on a shared host
/// then moves one window's tail, not the reported one; a series shorter
/// than two windows is one window.
pub fn windowed_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    Ok(median(&window_percentiles(samples, q)?))
}

/// Each window's nearest-rank percentile `q` (see [`windowed_percentile`]).
pub fn window_percentiles(samples: &[f64], q: f64) -> Result<Vec<f64>, String> {
    let windows = (samples.len() / LATENCY_WINDOW).max(1);
    let per_window = samples.len() / windows;
    let mut values = Vec::with_capacity(windows);
    for w in 0..windows {
        let end = if w + 1 == windows {
            samples.len()
        } else {
            (w + 1) * per_window
        };
        values.push(percentile(&samples[w * per_window..end], q)?);
    }
    Ok(values)
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
/// Used for repeated whole-run measurements such as set-up time, where the
/// sample is a handful of repetitions rather than a latency distribution.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thin: Vec<f64> = (0..999).map(f64::from).collect();
        let err = percentile(&thin, 0.99).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.99).unwrap(), 989.0);
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let thin: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(percentile(&thin, 0.5).is_err());
        let enough: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.5).unwrap(), 10.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = percentile(&v, 0.99).unwrap();
        v.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&v, 0.99).unwrap());
        assert_eq!(a, 1979.0);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_windowed_tail() {
        let mut v = vec![1.0; 5_000];
        v[1_000..1_100].iter_mut().for_each(|x| *x = 100.0);
        assert_eq!(windowed_percentile(&v, 0.99).unwrap(), 1.0);
        assert_eq!(percentile(&v, 0.99).unwrap(), 100.0);
        assert!(windowed_percentile(&v[..999], 0.99).is_err());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
