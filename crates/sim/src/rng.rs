//! Seeded randomness and the distributions the workload models need.
//!
//! Everything random in an experiment flows through one [`SimRng`] seeded at
//! the top of the run, so results are reproducible bit-for-bit. The
//! generator itself is a self-contained xoshiro256** seeded through
//! SplitMix64 — no external crates, so the whole suite builds and runs
//! hermetically — and the distribution sampling (exponential,
//! bounded Pareto, geometric) is implemented here directly rather than
//! pulling in `rand_distr`: the formulas are a few lines each and keeping
//! them local makes the workload model self-contained and auditable.

/// SplitMix64: expands a 64-bit seed into well-mixed state words. This is
/// the reference seeding procedure recommended for the xoshiro family.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic random source for simulations (xoshiro256**).
#[derive(Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> SimRng {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Splits off an independent generator; used to give each simulated user
    /// a private stream so adding users does not perturb existing ones.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seeded(self.next_u64())
    }

    /// Raw 64 random bits (xoshiro256** output function).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`. Uses rejection
    /// sampling, so the result is exactly uniform (no modulo bias).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        if span == 1 {
            return lo;
        }
        // Largest multiple of `span` that fits in u64: values at or above
        // it would bias the low residues, so redraw.
        let zone = u64::MAX - u64::MAX % span;
        loop {
            let v = self.next_u64();
            if v < zone {
                return lo + v % span;
            }
        }
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Picks a uniformly random element of `items`. Panics on empty input.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.range(0, items.len() as u64) as usize]
    }

    /// Samples an index according to `weights` (need not be normalized).
    /// Panics if weights are empty or sum to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.unit() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Exponential with the given mean, via inverse-CDF.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.unit(); // (0, 1]: avoids ln(0)
        -mean * u.ln()
    }

    /// Bounded Pareto on `[lo, hi]` with shape `alpha` — the heavy-tailed
    /// distribution used for file sizes.
    pub fn bounded_pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        assert!(lo > 0.0 && hi > lo && alpha > 0.0);
        let u = self.unit();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }

    /// Geometric: number of Bernoulli(p) failures before the first success.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0);
        if p >= 1.0 {
            return 0;
        }
        let u = 1.0 - self.unit();
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Fills a byte slice with random data.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(43);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent_of_later_draws() {
        // Forking early must give the same child stream regardless of what
        // the parent does afterwards.
        let mut p1 = SimRng::seeded(7);
        let mut c1 = p1.fork();
        let _ = p1.next_u64();

        let mut p2 = SimRng::seeded(7);
        let mut c2 = p2.fork();
        for _ in 0..50 {
            let _ = p2.unit();
        }
        for _ in 0..20 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn unit_stays_in_half_open_interval() {
        let mut r = SimRng::seeded(9);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u), "unit out of range: {u}");
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = SimRng::seeded(10);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.range(0, 7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Offset ranges respect their bounds.
        for _ in 0..1_000 {
            let v = r.range(100, 103);
            assert!((100..103).contains(&v));
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = SimRng::seeded(11);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        // Deterministic for the same seed.
        let mut r2 = SimRng::seeded(11);
        let mut buf2 = [0u8; 13];
        r2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::seeded(1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let mut r = SimRng::seeded(2);
        for _ in 0..10_000 {
            let x = r.bounded_pareto(1.1, 512.0, 4_000_000.0);
            assert!((512.0..=4_000_000.0).contains(&x), "out of bounds: {x}");
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed_but_mostly_small() {
        let mut r = SimRng::seeded(3);
        let n = 20_000;
        let small = (0..n)
            .filter(|_| r.bounded_pareto(1.1, 512.0, 4_000_000.0) < 100_000.0)
            .count();
        // The vast majority of samples should be far below the cap.
        assert!(small as f64 / n as f64 > 0.9);
    }

    #[test]
    fn weighted_index_matches_weights() {
        let mut r = SimRng::seeded(4);
        let weights = [0.65, 0.27, 0.04, 0.02, 0.02];
        let mut counts = [0usize; 5];
        let n = 50_000;
        for _ in 0..n {
            counts[r.weighted_index(&weights)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let observed = counts[i] as f64 / n as f64;
            assert!(
                (observed - w).abs() < 0.01,
                "weight {i}: expected {w}, observed {observed}"
            );
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seeded(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seeded(6);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 100 elements left them sorted");
    }

    #[test]
    fn geometric_mean_is_close() {
        let mut r = SimRng::seeded(8);
        let p: f64 = 0.25;
        let n = 40_000;
        let mean: f64 = (0..n).map(|_| r.geometric(p) as f64).sum::<f64>() / n as f64;
        let expected = (1.0 - p) / p; // 3.0
        assert!((mean - expected).abs() < 0.1, "mean was {mean}");
    }
}
