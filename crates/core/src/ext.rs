//! Ergonomic iterator integration: sketch any `Iterator` directly.

use mrl_analysis::optimizer::OptimizerOptions;

use crate::unknown_n::UnknownN;

/// Extension methods for iterators of orderable items.
///
/// ```
/// use mrl_core::{OptimizerOptions, QuantileIteratorExt};
///
/// let p90 = (0..100_000u64)
///     .sketch_with_options(0.02, 0.01, OptimizerOptions::fast(), 7)
///     .query(0.9)
///     .unwrap();
/// assert!((p90 as f64 - 90_000.0).abs() <= 0.02 * 100_000.0);
/// ```
pub trait QuantileIteratorExt: Iterator + Sized
where
    Self::Item: Ord + Clone + 'static,
{
    /// Consume the iterator into an [`UnknownN`] sketch with guarantee
    /// `(ε, δ)` (default optimizer search space; see
    /// [`QuantileIteratorExt::sketch_with_options`] for another).
    fn sketch(self, epsilon: f64, delta: f64) -> UnknownN<Self::Item> {
        self.sketch_with_options(epsilon, delta, OptimizerOptions::default(), 0)
    }

    /// As [`QuantileIteratorExt::sketch`] with an explicit search space
    /// and seed.
    fn sketch_with_options(
        self,
        epsilon: f64,
        delta: f64,
        opts: OptimizerOptions,
        seed: u64,
    ) -> UnknownN<Self::Item> {
        let mut s = UnknownN::with_options(epsilon, delta, opts).with_seed(seed);
        s.extend(self);
        s
    }

    /// One-shot quantiles of the iterator: `None` when it is empty.
    fn approx_quantiles(self, epsilon: f64, delta: f64, phis: &[f64]) -> Option<Vec<Self::Item>> {
        self.sketch(epsilon, delta).query_many(phis)
    }
}

impl<I> QuantileIteratorExt for I
where
    I: Iterator,
    I::Item: Ord + Clone + 'static,
{
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterator_sketching_is_accurate() {
        let sketch = (0..200_000u64)
            .map(|i| (i * 2654435761) % 200_000)
            .sketch_with_options(0.02, 0.01, OptimizerOptions::fast(), 3);
        let med = sketch.query(0.5).unwrap() as f64;
        assert!((med - 100_000.0).abs() <= 0.02 * 200_000.0);
    }

    #[test]
    fn empty_iterator_yields_empty_sketch() {
        let sketch =
            std::iter::empty::<u32>().sketch_with_options(0.1, 0.01, OptimizerOptions::fast(), 1);
        assert_eq!(sketch.n(), 0);
        assert_eq!(sketch.query(0.5), None);
    }

    #[test]
    fn works_for_strings_too() {
        // The framework is generic over Ord + Clone; exercise a non-numeric
        // element type end to end.
        let words: Vec<String> = (0..5_000u32).map(|i| format!("{:05}", i % 977)).collect();
        let sketch =
            words
                .iter()
                .cloned()
                .sketch_with_options(0.05, 0.01, OptimizerOptions::fast(), 5);
        let med = sketch.query(0.5).unwrap();
        let num: u32 = med.parse().unwrap();
        assert!(
            (f64::from(num) - 977.0 / 2.0).abs() <= 0.05 * 977.0 + 2.0,
            "string median {med}"
        );
    }
}
