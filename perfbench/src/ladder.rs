//! The `slo_rps` ladder: a fixed geometric ladder of offered rates and the
//! search for its highest rung that meets the workload's service-level
//! conditions.
//!
//! Rung `k` offers `BASE_RPS · 2^(k / RUNGS_PER_OCTAVE)` requests per second
//! — ten rungs per doubling, so neighbouring rungs differ by 7.2% and a
//! result that flips by one rung between runs stays inside the metric's
//! noise band. The ladder is the same for every workload and every run, so
//! `slo_rps` values are comparable across runs and hosts.
//!
//! The search starts from a fixed rung per workload, gallops away from it in
//! doubling steps (at most [`MAX_STEP`] rungs, so an overshoot past capacity
//! stays within 32%) until one probe passes and one fails, then bisects
//! between them. Which rungs it probes depends only on the pass/fail
//! answers, never on wall time, and a search that runs out of probes before
//! it brackets the answer is an error, not a result.

use crate::stats::{median, windowed_percentile};

/// Offered rate of rung 0.
pub const BASE_RPS: f64 = 100.0;
/// Rungs per doubling of the offered rate.
pub const RUNGS_PER_OCTAVE: f64 = 10.0;
/// Lowest rung the search may probe (12.5 req/s).
pub const MIN_RUNG: i32 = -30;
/// Highest rung the search may probe (12.8k req/s).
pub const MAX_RUNG: i32 = 70;

/// Largest gallop step, in rungs.
pub const MAX_STEP: i32 = 4;

/// Offered rate of rung `k`, in requests per second.
pub fn rate(k: i32) -> f64 {
    BASE_RPS * (k as f64 / RUNGS_PER_OCTAVE).exp2()
}

/// The ladder's three conditions on one probe: the windowed p99 of the
/// due-based latencies within `limit_ms`, every request answered, and no
/// growing backlog — the median latency of the probe's last quarter stays
/// within twice that of its first quarter plus one millisecond (past
/// capacity the queue grows for as long as the probe lasts, and so does the
/// latency of every later request).
pub fn meets_slo(latency_ms: &[f64], sent: usize, failed: usize, limit_ms: f64) -> bool {
    let n = latency_ms.len();
    if failed > 0 || n != sent || n < 8 {
        return false;
    }
    let q = n / 4;
    let steady = median(&latency_ms[n - q..]) <= 2.0 * median(&latency_ms[..q]) + 1.0;
    steady && windowed_percentile(latency_ms, 0.99).is_ok_and(|p99| p99 <= limit_ms)
}

/// Outcome of one ladder search.
#[derive(Clone, Debug, Default)]
pub struct LadderResult {
    /// Highest passing rung, if any rung passed.
    pub best: Option<i32>,
    /// Every probe in order: `(rung, passed)`.
    pub probes: Vec<(i32, bool)>,
}

impl LadderResult {
    /// `slo_rps`: the offered rate of the highest passing rung, 0 if none.
    pub fn slo_rps(&self) -> f64 {
        self.best.map_or(0.0, rate)
    }
}

/// Find the highest rung for which `probe` passes, starting at `start` and
/// probing at most `max_probes` rungs. The answer is bracketed when it is
/// returned: the rung above it failed (or is the top of the ladder) and it
/// passed (or nothing down to the bottom did). Running out of probes first
/// is an error.
pub fn search(
    start: i32,
    max_probes: usize,
    mut probe: impl FnMut(i32) -> bool,
) -> Result<LadderResult, String> {
    let mut out = LadderResult::default();
    let mut run = |k: i32, out: &mut LadderResult| -> Result<bool, String> {
        if out.probes.len() == max_probes {
            return Err(format!(
                "slo_rps ladder not bracketed after {max_probes} probes: {:?}",
                out.probes
            ));
        }
        let pass = probe(k);
        out.probes.push((k, pass));
        if pass && out.best.is_none_or(|b| k > b) {
            out.best = Some(k);
        }
        Ok(pass)
    };
    // Gallop to a bracket: `lo` passed (or lies below the ladder), `hi`
    // failed (or lies above it).
    let start = start.clamp(MIN_RUNG, MAX_RUNG);
    let (mut lo, mut hi);
    let mut step = 1;
    if run(start, &mut out)? {
        lo = start;
        loop {
            if lo == MAX_RUNG {
                return Ok(out);
            }
            let k = (lo + step).min(MAX_RUNG);
            if run(k, &mut out)? {
                lo = k;
                step = (step * 2).min(MAX_STEP);
            } else {
                hi = k;
                break;
            }
        }
    } else {
        hi = start;
        loop {
            if hi == MIN_RUNG {
                return Ok(out);
            }
            let k = (hi - step).max(MIN_RUNG);
            if run(k, &mut out)? {
                lo = k;
                break;
            }
            hi = k;
            step = (step * 2).min(MAX_STEP);
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if run(mid, &mut out)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An M/D/1-shaped synthetic latency curve: p99 grows without bound as
    /// the offered rate approaches the service capacity.
    fn synthetic_p99_ms(rps: f64, capacity: f64, service_ms: f64) -> f64 {
        let rho = rps / capacity;
        if rho >= 1.0 {
            f64::INFINITY
        } else {
            service_ms * (1.0 + 4.6 * rho / (2.0 * (1.0 - rho)))
        }
    }

    #[test]
    fn returns_the_highest_passing_rung_from_any_start() {
        let (capacity, service_ms, limit_ms) = (1800.0, 2.0, 25.0);
        let passes = |k: i32| synthetic_p99_ms(rate(k), capacity, service_ms) <= limit_ms;
        let expected = (MIN_RUNG..=MAX_RUNG).filter(|&k| passes(k)).max().unwrap();
        assert!(passes(expected) && !passes(expected + 1));
        for start in [
            MIN_RUNG,
            0,
            expected - 3,
            expected,
            expected + 1,
            expected + 9,
            MAX_RUNG,
        ] {
            let r = search(start, 200, passes).unwrap();
            assert_eq!(r.best, Some(expected), "start {start}");
            assert_eq!(r.slo_rps(), rate(expected));
        }
    }

    #[test]
    fn a_good_start_needs_two_probes_and_a_poor_one_a_few_more() {
        let passes = |k: i32| synthetic_p99_ms(rate(k), 300.0, 8.0) <= 100.0;
        let expected = (MIN_RUNG..=MAX_RUNG).filter(|&k| passes(k)).max().unwrap();
        assert_eq!(search(expected, 7, passes).unwrap().probes.len(), 2);
        assert_eq!(search(expected + 1, 7, passes).unwrap().probes.len(), 2);
        let far = search(expected - 6, 7, passes).unwrap();
        assert_eq!(far.best, Some(expected));
        assert!(far.probes.len() <= 6, "{:?}", far.probes);
    }

    #[test]
    fn running_out_of_probes_before_a_bracket_is_an_error() {
        let err = search(0, 3, |k| k <= 10).unwrap_err();
        assert!(err.contains("not bracketed after 3 probes"), "{err}");
        assert_eq!(search(0, 7, |k| k <= 10).unwrap().best, Some(10));
    }

    #[test]
    fn nothing_passing_reports_zero() {
        let r = search(MIN_RUNG + 1, 10, |_| false).unwrap();
        assert_eq!(r.best, None);
        assert_eq!(r.slo_rps(), 0.0);
    }

    #[test]
    fn slo_conditions() {
        let flat = vec![5.0; 2_000];
        assert!(meets_slo(&flat, 2_000, 0, 25.0));
        assert!(!meets_slo(&flat, 2_000, 0, 4.0), "p99 over the limit");
        assert!(!meets_slo(&flat, 2_000, 1, 25.0), "a failed request");
        assert!(!meets_slo(&flat, 2_001, 0, 25.0), "an unanswered request");
        let growing: Vec<f64> = (0..2_000).map(|i| 1.0 + i as f64 / 200.0).collect();
        assert!(!meets_slo(&growing, 2_000, 0, 25.0), "a growing backlog");
        assert!(!meets_slo(&flat[..500], 500, 0, 25.0), "too thin for a p99");
    }

    #[test]
    fn rungs_are_geometric() {
        assert_eq!(rate(0), BASE_RPS);
        assert!((rate(10) - 2.0 * BASE_RPS).abs() < 1e-9);
        for k in MIN_RUNG..MAX_RUNG {
            assert!((rate(k + 1) / rate(k) - 2f64.powf(0.1)).abs() < 1e-12);
        }
    }
}
