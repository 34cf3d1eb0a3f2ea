//! Feature and target standardisation.

use crate::stats;
use dse_util::json::{FromJson, Json, JsonError, ToJson};

/// Per-dimension standardiser: maps each feature to zero mean and unit
/// variance, fitted on training data. Constant dimensions map to zero.
///
/// # Examples
///
/// ```
/// use dse_ml::Standardizer;
/// let data = vec![vec![1.0, 10.0], vec![3.0, 10.0]];
/// let s = Standardizer::fit(&data);
/// let t = s.transform(&data[0]);
/// assert!((t[0] + 1.0).abs() < 1e-12); // (1 - 2) / 1
/// assert_eq!(t[1], 0.0); // constant column
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits on a non-empty set of equal-length rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or rows have unequal lengths.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit on no data");
        let dim = rows[0].len();
        let mut means = Vec::with_capacity(dim);
        let mut stds = Vec::with_capacity(dim);
        for d in 0..dim {
            let col: Vec<f64> = rows
                .iter()
                .map(|r| {
                    assert_eq!(r.len(), dim, "rows must have equal length");
                    r[d]
                })
                .collect();
            means.push(stats::mean(&col));
            stds.push(stats::std_dev(&col));
        }
        Self { means, stds }
    }

    /// Dimensionality this standardiser was fitted on.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Standardises one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong length.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; row.len()];
        self.transform_into(row, &mut out);
        out
    }

    /// Standardises one row into a caller-provided buffer — the
    /// allocation-free path used by the batched MLP forward. The
    /// arithmetic is the transform the scalar path uses, element for
    /// element, so batched and scalar inference see bit-identical
    /// standardised inputs.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `out` has the wrong length.
    pub fn transform_into(&self, row: &[f64], out: &mut [f64]) {
        assert_eq!(row.len(), self.dim(), "row length mismatch");
        assert_eq!(out.len(), self.dim(), "output length mismatch");
        for (o, (x, (m, s))) in out
            .iter_mut()
            .zip(row.iter().zip(self.means.iter().zip(&self.stds)))
        {
            *o = if *s > 0.0 { (x - m) / s } else { 0.0 };
        }
    }

    /// Inverts the transform for one dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn inverse(&self, dim: usize, value: f64) -> f64 {
        assert!(dim < self.dim(), "dimension out of range");
        value * self.stds[dim] + self.means[dim]
    }
}

impl ToJson for Standardizer {
    fn to_json(&self) -> Json {
        Json::obj([
            ("means", self.means.to_json()),
            ("stds", self.stds.to_json()),
        ])
    }
}

impl FromJson for Standardizer {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let s = Self {
            means: Vec::from_json(v.field("means")?)?,
            stds: Vec::from_json(v.field("stds")?)?,
        };
        if s.means.len() != s.stds.len() {
            return Err(JsonError::msg(format!(
                "standardizer has {} means but {} stds",
                s.means.len(),
                s.stds.len()
            )));
        }
        if s.means.is_empty() {
            return Err(JsonError::msg("standardizer has zero dimensions"));
        }
        // A negative scale would flip its feature's sign at inference; a
        // zero one is a constant column, which maps to zero.
        if let Some(i) = s.stds.iter().position(|v| v.is_nan() || *v < 0.0) {
            let msg = format!("standardizer stds[{i}] is {}, not >= 0", s.stds[i]);
            return Err(JsonError::msg(msg));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_then_inverse_round_trips() {
        let rows = vec![vec![1.0, -5.0], vec![2.0, 0.0], vec![6.0, 5.0]];
        let s = Standardizer::fit(&rows);
        for row in &rows {
            let t = s.transform(row);
            for (d, orig) in row.iter().enumerate() {
                assert!((s.inverse(d, t[d]) - orig).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transformed_data_has_zero_mean_unit_std() {
        let mut rng = dse_rng::Xoshiro256::seed_from(3);
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|_| vec![rng.next_f64() * 100.0, rng.next_f64() - 50.0])
            .collect();
        let s = Standardizer::fit(&rows);
        let transformed: Vec<Vec<f64>> = rows.iter().map(|r| s.transform(r)).collect();
        for d in 0..2 {
            let col: Vec<f64> = transformed.iter().map(|r| r[d]).collect();
            assert!(stats::mean(&col).abs() < 1e-9);
            assert!((stats::std_dev(&col) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_column_maps_to_zero() {
        let rows = vec![vec![7.0], vec![7.0], vec![7.0]];
        let s = Standardizer::fit(&rows);
        assert_eq!(s.transform(&[7.0]), vec![0.0]);
        assert_eq!(s.transform(&[100.0]), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_fit_panics() {
        Standardizer::fit(&[]);
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let rows = vec![vec![1.0, -5.0, 0.3], vec![2.5, 0.0, 1e-7]];
        let s = Standardizer::fit(&rows);
        let back: Standardizer = dse_util::json::from_str(&dse_util::json::to_string(&s)).unwrap();
        assert_eq!(back, s);
        for row in &rows {
            let (a, b) = (s.transform(row), back.transform(row));
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn json_rejects_mismatched_dims() {
        assert!(dse_util::json::from_str::<Standardizer>(r#"{"means":[1,2],"stds":[1]}"#).is_err());
        assert!(dse_util::json::from_str::<Standardizer>(r#"{"means":[],"stds":[]}"#).is_err());
    }

    #[test]
    fn json_rejects_a_negative_std() {
        let err = dse_util::json::from_str::<Standardizer>(r#"{"means":[1,2],"stds":[1,-0.5]}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("stds[1] is -0.5"), "{err}");
        // A constant column's zero scale stays legal.
        let s: Standardizer = dse_util::json::from_str(r#"{"means":[1,2],"stds":[0,1]}"#).unwrap();
        assert_eq!(s.transform(&[5.0, 3.0]), vec![0.0, 1.0]);
    }
}
