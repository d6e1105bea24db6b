//! Per-feature transforms.
//!
//! Two front-ends feed the classifiers:
//!
//! * [`Log2Binner`] quantizes raw integer features into a small vocabulary of
//!   log2 bins — this is the "quantizing the optimization space" step
//!   (paper Sec. IV) that lets AIrchitect learn an embedding per bin,
//! * [`Normalizer`] computes per-column z-scores for the raw-feature
//!   baselines (SVC, GBDT, plain MLPs).

use serde::{Deserialize, Serialize};

use crate::Dataset;

/// Quantizes positive values into `bins_per_octave` bins per power of two.
///
/// Bin index: `round(log2(max(v, 1)) · bins_per_octave)`, clamped to the
/// vocabulary size. With the default 2 bins/octave, dimensions up to 2^31
/// map into a 64-entry vocabulary.
///
/// # Example
///
/// ```
/// use airchitect_data::quantize::Log2Binner;
///
/// let q = Log2Binner::new(2, 64);
/// assert_eq!(q.bin(1.0), 0);
/// assert_eq!(q.bin(2.0), 2);
/// assert_eq!(q.bin(4.0), 4);
/// assert!(q.bin(1e12) < 64); // clamped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Log2Binner {
    bins_per_octave: u32,
    vocab: u32,
}

impl Log2Binner {
    /// Creates a binner with `bins_per_octave` resolution and a vocabulary
    /// of `vocab` bins.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(bins_per_octave: u32, vocab: u32) -> Self {
        assert!(bins_per_octave > 0, "bins_per_octave must be positive");
        assert!(vocab > 0, "vocab must be positive");
        Self {
            bins_per_octave,
            vocab,
        }
    }

    /// The vocabulary size (number of distinct bins).
    pub fn vocab(&self) -> u32 {
        self.vocab
    }

    /// Quantizes one value.
    ///
    /// Non-finite and sub-unit inputs are clamped to bin 0: `NaN`,
    /// `-inf`, negative values, and anything in `[0, 1)` all map to the
    /// first bin, and `+inf` maps to the last. This is a contract, not an
    /// accident — untrusted feature rows (e.g. a serve request that
    /// divided by zero upstream) must land on a valid embedding row
    /// rather than poison the lookup index.
    pub fn bin(&self, v: f32) -> u32 {
        if v.is_nan() || v < 1.0 {
            return 0;
        }
        let lg = (v as f64).log2();
        let b = (lg * self.bins_per_octave as f64).round() as u32;
        b.min(self.vocab - 1)
    }

    /// Quantizes a whole dataset in place (every column).
    pub fn apply(&self, dataset: &mut Dataset) {
        dataset.map_features(|_, v| self.bin(v) as f32);
    }
}

impl Default for Log2Binner {
    /// 2 bins per octave, 64-bin vocabulary.
    fn default() -> Self {
        Self::new(2, 64)
    }
}

/// Per-column z-score normalizer fit on a training set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    means: Vec<f32>,
    stds: Vec<f32>,
}

impl Normalizer {
    /// Fits means and standard deviations per column.
    ///
    /// Columns with zero variance get `std = 1` so they normalize to zero
    /// rather than NaN.
    pub fn fit(dataset: &Dataset) -> Self {
        let dim = dataset.feature_dim();
        let n = dataset.len().max(1) as f64;
        let mut means = vec![0f64; dim];
        for i in 0..dataset.len() {
            for (m, &v) in means.iter_mut().zip(dataset.row(i)) {
                *m += v as f64;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0f64; dim];
        for i in 0..dataset.len() {
            for ((var, &v), &m) in vars.iter_mut().zip(dataset.row(i)).zip(&means) {
                let d = v as f64 - m;
                *var += d * d;
            }
        }
        let stds: Vec<f32> = vars
            .iter()
            .map(|&v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s as f32
                } else {
                    1.0
                }
            })
            .collect();
        Self {
            means: means.into_iter().map(|m| m as f32).collect(),
            stds,
        }
    }

    /// Normalizes a dataset in place using the fitted statistics.
    ///
    /// # Panics
    ///
    /// Panics if the dataset's feature width differs from the fit width.
    pub fn apply(&self, dataset: &mut Dataset) {
        assert_eq!(
            dataset.feature_dim(),
            self.means.len(),
            "normalizer fit on a different feature width"
        );
        dataset.map_features(|col, v| (v - self.means[col]) / self.stds[col]);
    }

    /// Normalizes a single row out of place.
    pub fn transform_row(&self, row: &[f32]) -> Vec<f32> {
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(&v, (&m, &s))| (v - m) / s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binner_is_monotone() {
        let q = Log2Binner::default();
        let mut prev = 0;
        for v in [1.0f32, 2.0, 3.0, 8.0, 100.0, 4096.0] {
            let b = q.bin(v);
            assert!(b >= prev, "binning must be monotone");
            prev = b;
        }
    }

    #[test]
    fn binner_clamps_to_vocab() {
        let q = Log2Binner::new(4, 8);
        assert_eq!(q.bin(f32::MAX), 7);
        assert_eq!(q.bin(0.0), 0); // values below 1 clamp to bin 0
        assert_eq!(q.bin(-5.0), 0);
    }

    #[test]
    fn binner_guards_non_finite_and_negative_inputs() {
        // The clamped-to-bin-0 contract: garbage in, a *valid* index out.
        let q = Log2Binner::new(2, 64);
        assert_eq!(q.bin(f32::NAN), 0);
        assert_eq!(q.bin(-f32::NAN), 0);
        assert_eq!(q.bin(f32::NEG_INFINITY), 0);
        assert_eq!(q.bin(-1e30), 0);
        assert_eq!(q.bin(-0.0), 0);
        assert_eq!(q.bin(0.5), 0);
        assert_eq!(q.bin(f32::MIN_POSITIVE), 0);
        // +inf clamps to the *last* bin, still in-vocabulary.
        assert_eq!(q.bin(f32::INFINITY), 63);
        // The guard does not disturb ordinary values.
        assert_eq!(q.bin(1.0), 0);
        assert_eq!(q.bin(4.0), 4);
    }

    #[test]
    fn binner_applies_to_dataset() {
        let mut ds = Dataset::new(2, 2).unwrap();
        ds.push(&[1.0, 1024.0], 0).unwrap();
        let q = Log2Binner::new(1, 32);
        q.apply(&mut ds);
        assert_eq!(ds.row(0), &[0.0, 10.0]);
    }

    #[test]
    fn normalizer_zero_mean_unit_std() {
        let mut ds = Dataset::new(1, 2).unwrap();
        for v in [2.0f32, 4.0, 6.0, 8.0] {
            ds.push(&[v], 0).unwrap();
        }
        let nz = Normalizer::fit(&ds);
        nz.apply(&mut ds);
        let mean: f32 = ds.features().iter().sum::<f32>() / 4.0;
        let var: f32 = ds.features().iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-5);
    }

    #[test]
    fn normalizer_handles_constant_column() {
        let mut ds = Dataset::new(1, 2).unwrap();
        for _ in 0..3 {
            ds.push(&[5.0], 0).unwrap();
        }
        let nz = Normalizer::fit(&ds);
        nz.apply(&mut ds);
        assert!(ds.features().iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn transform_row_matches_apply() {
        let mut ds = Dataset::new(2, 2).unwrap();
        ds.push(&[1.0, 10.0], 0).unwrap();
        ds.push(&[3.0, 30.0], 1).unwrap();
        let nz = Normalizer::fit(&ds);
        let row = nz.transform_row(&[1.0, 10.0]);
        let mut copy = ds.clone();
        nz.apply(&mut copy);
        assert_eq!(row.as_slice(), copy.row(0));
    }
}
