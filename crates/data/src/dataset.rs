use crate::DataError;

/// A labeled classification dataset: row-major `f32` features plus `u32`
/// class labels.
///
/// Rows are appended with [`Dataset::push`]; the container validates feature
/// width and label range eagerly so downstream training code can index
/// without checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Vec<f32>,
    labels: Vec<u32>,
    feature_dim: usize,
    num_classes: u32,
}

impl Dataset {
    /// Creates an empty dataset with `feature_dim` features per row and
    /// `num_classes` output classes.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadFeatureDim`] if `feature_dim` is zero and
    /// [`DataError::BadLabel`] if `num_classes` is zero.
    pub fn new(feature_dim: usize, num_classes: u32) -> Result<Self, DataError> {
        if feature_dim == 0 {
            return Err(DataError::BadFeatureDim {
                expected: 1,
                got: 0,
            });
        }
        if num_classes == 0 {
            return Err(DataError::BadLabel {
                classes: 0,
                label: 0,
            });
        }
        Ok(Self {
            features: Vec::new(),
            labels: Vec::new(),
            feature_dim,
            num_classes,
        })
    }

    /// Wraps already-validated buffers (the codec's decoder checks every
    /// label and the buffer sizes before calling this).
    pub(crate) fn from_parts(
        features: Vec<f32>,
        labels: Vec<u32>,
        feature_dim: usize,
        num_classes: u32,
    ) -> Self {
        debug_assert_eq!(features.len(), labels.len() * feature_dim);
        Self {
            features,
            labels,
            feature_dim,
            num_classes,
        }
    }

    /// Appends one labeled row.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadFeatureDim`] on width mismatch and
    /// [`DataError::BadLabel`] if `label >= num_classes`.
    pub fn push(&mut self, row: &[f32], label: u32) -> Result<(), DataError> {
        if row.len() != self.feature_dim {
            return Err(DataError::BadFeatureDim {
                expected: self.feature_dim,
                got: row.len(),
            });
        }
        if label >= self.num_classes {
            return Err(DataError::BadLabel {
                classes: self.num_classes,
                label,
            });
        }
        self.features.extend_from_slice(row);
        self.labels.push(label);
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Features per row.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// The `i`-th feature row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.features[i * self.feature_dim..(i + 1) * self.feature_dim]
    }

    /// The `i`-th label.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn label(&self, i: usize) -> u32 {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// The full row-major feature buffer.
    pub fn features(&self) -> &[f32] {
        &self.features
    }

    /// Builds a new dataset from the rows at `indices` (used by the
    /// splitters).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset {
            features: Vec::with_capacity(indices.len() * self.feature_dim),
            labels: Vec::with_capacity(indices.len()),
            feature_dim: self.feature_dim,
            num_classes: self.num_classes,
        };
        for &i in indices {
            out.features.extend_from_slice(self.row(i));
            out.labels.push(self.labels[i]);
        }
        out
    }

    /// Per-class label counts (histogram of the output space, paper
    /// Fig. 10d-f).
    pub fn label_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.num_classes as usize];
        for &l in &self.labels {
            h[l as usize] += 1;
        }
        h
    }

    /// Applies a transform to every feature column in place.
    pub fn map_features<F: FnMut(usize, f32) -> f32>(&mut self, mut f: F) {
        let dim = self.feature_dim;
        for (i, v) in self.features.iter_mut().enumerate() {
            *v = f(i % dim, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(Dataset::new(0, 3).is_err());
        assert!(Dataset::new(3, 0).is_err());
        assert!(Dataset::new(3, 3).is_ok());
    }

    #[test]
    fn push_validates_width_and_label() {
        let mut ds = Dataset::new(2, 3).unwrap();
        assert!(matches!(
            ds.push(&[1.0], 0),
            Err(DataError::BadFeatureDim {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            ds.push(&[1.0, 2.0], 3),
            Err(DataError::BadLabel {
                classes: 3,
                label: 3
            })
        ));
        ds.push(&[1.0, 2.0], 2).unwrap();
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn row_and_label_access() {
        let mut ds = Dataset::new(3, 10).unwrap();
        ds.push(&[1.0, 2.0, 3.0], 7).unwrap();
        ds.push(&[4.0, 5.0, 6.0], 1).unwrap();
        assert_eq!(ds.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(ds.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(ds.label(0), 7);
        assert_eq!(ds.label(1), 1);
    }

    #[test]
    fn select_reorders_rows() {
        let mut ds = Dataset::new(1, 5).unwrap();
        for i in 0..5 {
            ds.push(&[i as f32], i).unwrap();
        }
        let sub = ds.select(&[4, 0, 2]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.row(0), &[4.0]);
        assert_eq!(sub.label(1), 0);
        assert_eq!(sub.label(2), 2);
    }

    #[test]
    fn histogram_counts_labels() {
        let mut ds = Dataset::new(1, 3).unwrap();
        for l in [0, 1, 1, 2, 2, 2] {
            ds.push(&[0.0], l).unwrap();
        }
        assert_eq!(ds.label_histogram(), vec![1, 2, 3]);
    }

    #[test]
    fn map_features_sees_column_index() {
        let mut ds = Dataset::new(2, 2).unwrap();
        ds.push(&[1.0, 10.0], 0).unwrap();
        ds.push(&[2.0, 20.0], 1).unwrap();
        ds.map_features(|col, v| if col == 1 { v / 10.0 } else { v });
        assert_eq!(ds.row(0), &[1.0, 1.0]);
        assert_eq!(ds.row(1), &[2.0, 2.0]);
    }
}
