//! Weight initializers.
//!
//! Deterministic, seedable initializers used by the models and the training
//! substrate. He initialization is the default for the ReLU networks the
//! paper evaluates (DenseNet, ResNet); Xavier is provided for completeness
//! and for the fully-connected classifier heads.

use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A seedable random weight initializer.
///
/// ```rust
/// use bnff_tensor::{init::Initializer, Shape};
/// let mut init = Initializer::seeded(7);
/// let w = init.he_normal(Shape::nchw(64, 32, 3, 3), 32 * 3 * 3);
/// assert_eq!(w.len(), 64 * 32 * 3 * 3);
/// ```
#[derive(Debug)]
pub struct Initializer {
    rng: StdRng,
}

impl Initializer {
    /// Creates an initializer with a fixed seed (reproducible).
    pub fn seeded(seed: u64) -> Self {
        Initializer { rng: StdRng::seed_from_u64(seed) }
    }

    /// Draws a standard normal sample using the Box–Muller transform.
    fn standard_normal(&mut self) -> f32 {
        let u: f64 = Uniform::new(f64::EPSILON, 1.0).sample(&mut self.rng);
        let v: f64 = Uniform::new(0.0, std::f64::consts::TAU).sample(&mut self.rng);
        ((-2.0 * u.ln()).sqrt() * v.cos()) as f32
    }

    /// He (Kaiming) normal initialization: `N(0, sqrt(2 / fan_in))`.
    ///
    /// # Panics
    /// Panics if `fan_in` is zero.
    pub fn he_normal(&mut self, shape: Shape, fan_in: usize) -> Tensor {
        assert!(fan_in > 0, "fan_in must be positive");
        let std = (2.0 / fan_in as f64).sqrt() as f32;
        let data = (0..shape.volume()).map(|_| self.standard_normal() * std).collect();
        Tensor::from_vec(shape, data).expect("volume matches by construction")
    }

    /// Xavier/Glorot uniform initialization over
    /// `[-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))]`.
    ///
    /// # Panics
    /// Panics if `fan_in + fan_out` is zero.
    pub fn xavier_uniform(&mut self, shape: Shape, fan_in: usize, fan_out: usize) -> Tensor {
        assert!(fan_in + fan_out > 0, "fan_in + fan_out must be positive");
        let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
        let dist = Uniform::new_inclusive(-limit, limit);
        let data = (0..shape.volume()).map(|_| dist.sample(&mut self.rng) as f32).collect();
        Tensor::from_vec(shape, data).expect("volume matches by construction")
    }

    /// Uniform initialization over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, shape: Shape, lo: f32, hi: f32) -> Tensor {
        assert!(lo < hi, "uniform bounds must satisfy lo < hi");
        let dist = Uniform::new(lo, hi);
        let data = (0..shape.volume()).map(|_| dist.sample(&mut self.rng)).collect();
        Tensor::from_vec(shape, data).expect("volume matches by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn he_normal_statistics() {
        let mut init = Initializer::seeded(1);
        let fan_in = 256;
        let w = init.he_normal(Shape::matrix(512, 256), fan_in);
        let mean = w.mean();
        let var = w.sq_norm() / w.len() as f64 - mean * mean;
        let expected_var = 2.0 / fan_in as f64;
        assert!(mean.abs() < 0.01, "mean {mean} too far from 0");
        assert!(
            (var - expected_var).abs() / expected_var < 0.1,
            "variance {var} too far from {expected_var}"
        );
    }

    #[test]
    fn xavier_uniform_bounds() {
        let mut init = Initializer::seeded(2);
        let w = init.xavier_uniform(Shape::matrix(100, 100), 100, 100);
        let limit = (6.0f64 / 200.0).sqrt() as f32;
        assert!(w.max().unwrap() <= limit);
        assert!(w.min().unwrap() >= -limit);
    }

    #[test]
    fn uniform_bounds() {
        let mut init = Initializer::seeded(3);
        let w = init.uniform(Shape::vector(1000), -0.5, 0.5);
        assert!(w.max().unwrap() < 0.5);
        assert!(w.min().unwrap() >= -0.5);
    }

    #[test]
    fn seeding_is_reproducible() {
        let mut a = Initializer::seeded(99);
        let mut b = Initializer::seeded(99);
        let wa = a.he_normal(Shape::vector(64), 8);
        let wb = b.he_normal(Shape::vector(64), 8);
        assert_eq!(wa, wb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Initializer::seeded(1);
        let mut b = Initializer::seeded(2);
        let wa = a.he_normal(Shape::vector(64), 8);
        let wb = b.he_normal(Shape::vector(64), 8);
        assert_ne!(wa, wb);
    }

    #[test]
    #[should_panic(expected = "fan_in must be positive")]
    fn he_normal_zero_fan_in_panics() {
        Initializer::seeded(0).he_normal(Shape::vector(4), 0);
    }
}
