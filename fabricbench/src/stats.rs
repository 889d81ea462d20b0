//! Percentiles and the per-decision / per-transaction normalisation of
//! the fabric's report counters.

use std::time::Duration;

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples; 0 for
/// none. A failed ticket enters as the time at which it was declared
/// failed (its deadline), so it lies above every latency limit below the
/// deadline.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples; 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `amount / base`, or 0 when nothing was decided: a run that committed
/// nothing reports zero work per decision rather than NaN or infinity.
pub fn per(amount: f64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        amount / base as f64
    }
}

/// Microseconds of `d` per unit of `base` (see [`per`]).
pub fn us_per(d: Duration, base: u64) -> f64 {
    per(d.as_secs_f64() * 1e6, base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_samples_count_at_their_deadline() {
        // 98 tickets commit in 1..=98 ms; two fail and are recorded at the
        // 2 s deadline. The p99 is a failure, the median is not.
        let mut samples: Vec<f64> = (1..=98).map(f64::from).collect();
        samples.push(2000.0);
        samples.push(2000.0);
        assert_eq!(percentile(&samples, 0.99), 2000.0);
        assert_eq!(median(&samples), 50.0);
        // One failure in a hundred sits exactly at the p99 boundary and
        // below it the largest success is reported.
        samples.pop();
        samples.push(99.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 2000.0);
    }

    #[test]
    fn percentile_of_nothing_is_zero() {
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
    }

    #[test]
    fn per_decision_with_no_decisions_is_zero() {
        assert_eq!(per(1234.0, 0), 0.0);
        assert_eq!(us_per(Duration::from_millis(5), 0), 0.0);
        assert_eq!(us_per(Duration::from_millis(5), 10), 500.0);
        assert!(per(0.0, 0).is_finite());
    }
}
