//! Measurement helpers shared by the workloads: percentiles that refuse to
//! report a tail the sample cannot support, medians, F1 and the
//! order-independent FNV-1a hashes the correctness checks compare.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; a thinner tail is noise, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (0 < `p` < 100) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The highest of `candidates` (descending) that [`percentile`] supports,
/// with its value.
pub fn highest_supported(samples: &[f64], candidates: &[f64]) -> Option<(f64, f64)> {
    candidates.iter().find_map(|&p| percentile(samples, p).map(|v| (p, v)))
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// F1 from true positives, predicted positives and actual positives;
/// 0 when either side is empty.
pub fn f1(true_pos: usize, predicted: usize, actual: usize) -> f64 {
    if predicted == 0 || actual == 0 {
        return 0.0;
    }
    2.0 * true_pos as f64 / (predicted + actual) as f64
}

/// FNV-1a over a stream of words, one multiply per word (the scheme of the
/// repository's scale ladder, so label hashes stay comparable with it).
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Hash of a set of `(query id, reference id, is_match)` decisions. The
/// set is sorted first, so the hash does not depend on how queries were
/// split into batches.
pub fn decision_hash(decisions: &mut [(u64, u64, bool)]) -> u64 {
    decisions.sort_unstable();
    fnv_words(decisions.iter().flat_map(|&(q, r, m)| [q, r, u64::from(m)]))
}

/// splitmix64: the benchmark's own seeded generator (arrival gaps, sampled
/// query indices, remove victims), independent of the program's RNGs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` on an independent `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// Next raw word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential gap with the given rate (events per second).
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: rank 990, exactly 10 beyond.
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
        // 999 samples: rank 990, only 9 beyond -> not reported.
        assert_eq!(percentile(&samples[..999], 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&samples[..5], 50.0), None);
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let samples: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(999.0));
    }

    #[test]
    fn highest_supported_walks_down() {
        let samples: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(highest_supported(&samples, &[99.0, 95.0, 90.0]), Some((95.0, 285.0)));
        assert_eq!(highest_supported(&samples[..5], &[99.0, 50.0]), None);
    }

    #[test]
    fn median_and_f1() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(f1(5, 10, 10), 0.5);
        assert_eq!(f1(0, 0, 3), 0.0);
    }

    #[test]
    fn decision_hash_is_order_independent() {
        let mut a = vec![(1, 7, true), (0, 3, false), (2, 9, true)];
        let mut b = vec![(2, 9, true), (1, 7, true), (0, 3, false)];
        assert_eq!(decision_hash(&mut a), decision_hash(&mut b));
        let mut c = vec![(2, 9, false), (1, 7, true), (0, 3, false)];
        assert_ne!(decision_hash(&mut a), decision_hash(&mut c));
    }
}
