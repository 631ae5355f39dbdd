//! Zipf sampling — the data-skew variant of Rabl et al. the paper uses.
//!
//! The skewed SSB draws lineorder foreign keys (customer, supplier,
//! part, date) from a Zipf distribution instead of uniformly, which
//! makes every dimension attribute of the pre-joined relation
//! non-uniform — a few cities/brands/days dominate, matching the
//! paper's observation that "database data is not uniformly distributed
//! and the GROUP-BY subgroups have non-uniform sizes".

use rand::Rng;

/// A Zipf(θ) sampler over `1..=n` using inverse-CDF lookup.
///
/// θ = 0 degenerates to uniform; θ around 0.5–1.0 is the range Rabl et
/// al. study.
///
/// ```
/// use bbpim_db::ssb::skew::Zipf;
/// use rand::{rngs::StdRng, SeedableRng};
/// let z = Zipf::new(100, 0.8);
/// let mut rng = StdRng::seed_from_u64(1);
/// let v = z.sample(&mut rng);
/// assert!((1..=100).contains(&v));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the sampler for `n` items with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or `theta` is negative/non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf over zero items");
        assert!(theta.is_finite() && theta >= 0.0, "theta must be ≥ 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in cdf.iter_mut() {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw one value in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        // first index with cdf >= u
        let idx = self.cdf.partition_point(|&c| c < u);
        (idx.min(self.cdf.len() - 1) + 1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl Zipf {
        /// Probability mass of item `i` (1-based).
        fn pmf(&self, i: usize) -> f64 {
            self.cdf[i - 1] - if i == 1 { 0.0 } else { self.cdf[i - 2] }
        }
    }

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(4, 0.0);
        for i in 1..=4 {
            assert!((z.pmf(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(50, 0.9);
        let total: f64 = (1..=50).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn head_is_heavier_with_larger_theta() {
        let z_low = Zipf::new(100, 0.3);
        let z_high = Zipf::new(100, 1.0);
        assert!(z_high.pmf(1) > z_low.pmf(1));
        assert!(z_high.pmf(100) < z_low.pmf(100));
    }

    #[test]
    fn samples_in_range_and_skewed() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            let v = z.sample(&mut rng) as usize;
            assert!((1..=10).contains(&v));
            counts[v - 1] += 1;
        }
        assert!(counts[0] > counts[9] * 3, "item 1 should dominate: {counts:?}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let z = Zipf::new(1000, 0.8);
        let a: Vec<u64> = (0..100).map(|_| z.sample(&mut StdRng::seed_from_u64(7))).collect();
        let b: Vec<u64> = (0..100).map(|_| z.sample(&mut StdRng::seed_from_u64(7))).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "zero items")]
    fn zero_items_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
