//! Order statistics and the output digest.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty slice: every caller has at least one sample by construction.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `pct`-th percentile (nearest rank), or `None` when fewer than ten
/// samples lie beyond it: a tail read off fewer does not repeat.
pub fn percentile(values: &[f64], pct: u32) -> Option<f64> {
    let n = values.len();
    let rank = (n * pct as usize).div_ceil(100).max(1);
    if n == 0 || n - rank < 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the exclusive method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median; 0 for one sample.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1).abs() / median(values).abs(),
        None => 0.0,
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=110).map(f64::from).collect();
        // 110 samples: p90 is the 99th, 11 beyond.
        assert_eq!(percentile(&samples, 90), Some(99.0));
        // p95 would leave 5 beyond.
        assert_eq!(percentile(&samples, 95), None);
        assert_eq!(percentile(&samples[..100], 90), Some(90.0));
        assert_eq!(percentile(&samples[..99], 90), None);
        assert_eq!(percentile(&samples[..3], 90), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&ten), 5.5 / 5.5);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
