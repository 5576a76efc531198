//! Order statistics for latencies and run-to-run spreads.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the percentile is a guess about one or two
/// outliers.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` in `n` samples: `⌈q·n⌉`, at least 1.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank quantile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Sorts a copy ascending (samples are finite measurements).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones an external checker computes.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Sub-buckets per power of two in [`Hist`]: a recorded value is kept to
/// within 2⁻¹⁰ (0.1 %) of itself.
const SUB_BITS: u32 = 10;
/// Values at or above 2⁴⁰ ns (18 minutes) share the top bucket.
const MAX_BITS: u32 = 40;

/// A latency histogram of fixed size with log-linear buckets. The service
/// workloads record hundreds of thousands of round trips; kept in a
/// `Vec`, they would make the process's peak RSS grow with throughput.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; ((MAX_BITS - SUB_BITS + 1) << SUB_BITS) as usize],
            n: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        let v = v.min((1 << MAX_BITS) - 1);
        if v < 1 << SUB_BITS {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (((shift + 1) << SUB_BITS) as u64 + (v >> shift) - (1 << SUB_BITS)) as usize
    }

    /// The middle of bucket `i`.
    fn value(i: usize) -> f64 {
        let (group, sub) = (i >> SUB_BITS, (i & ((1 << SUB_BITS) - 1)) as u64);
        if group == 0 {
            return sub as f64;
        }
        let width = 1u64 << (group - 1);
        (((1 << SUB_BITS) + sub) * width) as f64 + (width - 1) as f64 / 2.0
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile `q` (in `0..=1`): the `⌈q·n⌉`-th smallest
    /// sample, to within its bucket's width.
    ///
    /// # Panics
    /// Panics on an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.n > 0, "quantile of no samples");
        let r = rank(self.n as usize, q) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= r {
                return Self::value(i);
            }
        }
        unreachable!("rank {r} beyond {} samples", self.n)
    }

    /// The `q` tail when at least [`MIN_BEYOND`] samples lie beyond it,
    /// else the largest sample (the only tail the data supports).
    pub fn supported_tail(&self, q: f64) -> f64 {
        let n = self.n as usize;
        self.quantile(if beyond(n, q) >= MIN_BEYOND { q } else { 1.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: impl IntoIterator<Item = u64>) -> Hist {
        let mut h = Hist::default();
        for v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn nearest_rank_quantiles() {
        let h = hist(1..=100);
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(hist([7]).quantile(0.99), 7.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.5), 50);
        assert_eq!(hist(1..=1000).supported_tail(0.99), 990.0);
        assert_eq!(
            hist(1..=999).supported_tail(0.99),
            999.0,
            "falls back to the maximum"
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn large_values_keep_a_tenth_of_a_percent() {
        let mut x = 88_172_645_463_325_252u64;
        let mut raw = Vec::new();
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // 1 µs to about 16 ms, log-spread like round trips.
            raw.push(1_000 + (x % 4096) * (x >> 52));
        }
        let h = hist(raw.iter().copied());
        raw.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let want = raw[rank(raw.len(), q) - 1] as f64;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() <= want / 1024.0,
                "q={q}: {got} vs {want}"
            );
        }
        let mut both = h.clone();
        both.merge(&h);
        assert_eq!((h.count(), both.count()), (20_000, 40_000));
        assert_eq!(both.quantile(0.5), h.quantile(0.5));
        let mut top = hist([u64::MAX]);
        top.record(1);
        assert!(
            top.quantile(1.0) >= (1u64 << 39) as f64,
            "clamped to the top"
        );
    }
}
