//! A log-linear latency histogram: exact below 64 ns, then 64 buckets
//! per power of two, so a reported quantile is within
//! [`QUANTILE_ERROR`] of the true sample.

/// Sub-buckets per power of two (as a bit count).
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// Largest relative error of a reported quantile: a bucket spans at most
/// 1/64 of its lower bound.
pub const QUANTILE_ERROR: f64 = 1.0 / SUB as f64;

/// Counts of nanosecond samples, plus their exact sum.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    (SUB + u64::from(shift) * SUB + ((v >> shift) & (SUB - 1))) as usize
}

/// Lower bound and width of bucket `i`.
fn bucket(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = (i - SUB) / SUB;
    let m = (i - SUB) % SUB;
    ((SUB + m) << shift, 1 << shift)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
        self.sum += u128::from(ns);
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.n = 0;
        self.sum = 0;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum
    }

    /// The `q`-quantile (0 < q ≤ 1), reported as its bucket's midpoint.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, width) = bucket(i);
                return lo as f64 + (width as f64 - 1.0) / 2.0;
            }
        }
        unreachable!("rank {rank} lies within {} samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for v in (0..100_000u64).chain([u64::MAX / 3, u64::MAX]) {
            let (lo, w) = bucket(index(v));
            assert!(lo <= v && v - lo < w, "v={v} lo={lo} w={w}");
            assert!(w == 1 || (w as f64) <= lo as f64 * QUANTILE_ERROR);
        }
    }

    #[test]
    fn quantiles_are_within_the_error() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 7);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = (q * 10_000.0_f64).ceil() * 7.0;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() <= exact * QUANTILE_ERROR,
                "q={q} {got} vs {exact}"
            );
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.sum_ns(), 7 * 10_000 * 10_001 / 2);
    }
}
