//! Seeds, order statistics and digests shared by every workload.

/// The `i`-th output of a SplitMix64 stream seeded with `seed`. Every
/// input the benchmark derives from its `--seed` goes through this, so
/// one seed fixes all of them; distinct `i` give distinct outputs
/// because the SplitMix64 finaliser is a bijection.
#[must_use]
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 1-based nearest rank of percentile `p` in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100] of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice: a latency metric without samples is a bug
/// in the workload, not a value to report.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Whether percentile `p` of `n` samples rests on at least ten samples
/// beyond it — the least a reported tail may have.
#[must_use]
pub fn tail_resolved(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= 10
}

/// Sorts a copy of `values` ascending (NaN-free input).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so the benchmark's own spreads match the ones
/// its acceptance is judged by. One value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Median of `values` (the middle quartile).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// 64-bit FNV-1a of `bytes`: a stable fingerprint for comparing long
/// outputs between commits.
#[must_use]
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Rank ceil(0.9 * 13) = 12: the second largest of thirteen.
        let v: Vec<f64> = (1..=13).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 12.0);
    }

    #[test]
    fn tail_count_check() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(tail_resolved(100, 90.0));
        assert!(!tail_resolved(99, 90.0));
        assert!(!tail_resolved(500, 99.0));
        assert!(tail_resolved(1000, 99.0));
        assert!(!tail_resolved(0, 50.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        assert_eq!(derive_seed(2006, 5), derive_seed(2006, 5));
        let seeds: std::collections::HashSet<u64> =
            (0..10_000).map(|i| derive_seed(2006, i)).collect();
        assert_eq!(seeds.len(), 10_000);
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn digest_is_stable() {
        // Reference FNV-1a 64 values.
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
