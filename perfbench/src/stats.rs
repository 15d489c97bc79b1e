//! Order statistics over host-time samples.

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of the `p`-th percentile in `n` sorted
/// samples.
fn rank(n: usize, p: u32) -> usize {
    let r = (u64::from(p) * n as u64).div_ceil(100) as usize;
    r.clamp(1, n) - 1
}

/// The `p`-th percentile (nearest rank) of `samples`, which need not be
/// sorted. 0 for an empty slice.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), p)]
}

/// The median of `samples` (mean of the middle two for an even count).
/// 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest whole percentile of `n` samples that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest-rank position; 50 (the
/// median) when `n` is too small for any higher one.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=99)
        .rev()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50)
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }
}
