//! The benchmark's own seeded randomness: a SplitMix64 stream and a Zipf
//! sampler. Inputs the benchmark draws itself (query pairs, sample picks)
//! come from here, so they depend on `--seed` alone and not on the stream
//! of the workspace's vendored `rand`.

/// SplitMix64: tiny, fast and good enough for picking workload inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-high reduction; the bias is below 2^-32
    /// for every `n` the benchmark uses).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf distribution over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`. Sampling inverts a precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a Zipf distribution needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix::new(9);
        let mut b = SplitMix::new(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix::new(10);
        assert_ne!(SplitMix::new(9).next_u64(), c.next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix::new(1);
        for n in [1u64, 2, 7, 1000] {
            for _ in 0..1000 {
                assert!(r.below(n) < n);
            }
        }
    }

    /// Rank frequencies follow `1 / (r + 1)^s`: rank 0 is drawn about
    /// `2^s` times as often as rank 1 and `10^s` times as often as rank 9,
    /// and frequencies never rise with rank (beyond sampling noise).
    #[test]
    fn zipf_frequencies_have_the_power_law_shape() {
        let s = 1.0;
        let z = Zipf::new(1000, s);
        let mut rng = SplitMix::new(42);
        let mut freq = vec![0u64; 1000];
        let draws = 2_000_000;
        for _ in 0..draws {
            freq[z.sample(&mut rng)] += 1;
        }
        let ratio = |a: usize, b: usize| freq[a] as f64 / freq[b] as f64;
        assert!((ratio(0, 1) - 2f64.powf(s)).abs() < 0.05, "{}", ratio(0, 1));
        assert!((ratio(0, 9) - 10f64.powf(s)).abs() < 0.5, "{}", ratio(0, 9));
        // Expected share of rank 0 is 1 / H(1000) ~ 0.1336.
        let share0 = freq[0] as f64 / draws as f64;
        assert!((share0 - 0.1336).abs() < 0.003, "{share0}");
        for w in freq[..50].windows(2) {
            assert!(w[1] as f64 <= w[0] as f64 * 1.05);
        }
        assert!(freq[999] > 0);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = SplitMix::new(3);
        let mut freq = [0u64; 4];
        for _ in 0..400_000 {
            freq[z.sample(&mut rng)] += 1;
        }
        for f in freq {
            assert!((f as f64 / 100_000.0 - 1.0).abs() < 0.02);
        }
    }
}
