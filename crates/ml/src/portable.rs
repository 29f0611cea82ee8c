//! Portable model format.
//!
//! The paper exports the scikit-learn parameter model to ONNX so that the
//! JVM-resident Spark optimizer can score it in-process with millisecond
//! latency (Section 4.3). This module plays the same role: a fitted
//! [`RandomForestRegressor`] is serialised into a compact, self-describing
//! [`PortableModel`] (JSON on disk, extension `.aex`) that scores through
//! the compiled forest once loaded.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::compiled::CompiledForest;
use crate::forest::RandomForestRegressor;
use crate::json::Value;
use crate::matrix::FeatureMatrix;
use crate::{MlError, Result};

/// Current on-disk format version.
pub const PORTABLE_FORMAT_VERSION: u32 = 1;

/// A serialisable snapshot of a fitted parameter model plus the metadata the
/// optimizer rule needs to validate it (feature and target names).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PortableModel {
    /// Format version, for forward-compatibility checks at load time.
    pub version: u32,
    /// Human-readable model name, e.g. `"ae_pl/sf100"`.
    pub name: String,
    /// Names of the features, in the column order the model expects.
    pub feature_names: Vec<String>,
    /// Names of the outputs (PPM parameters) the model predicts.
    pub target_names: Vec<String>,
    /// The underlying forest.
    forest: RandomForestRegressor,
    /// The forest compiled for inference. Derived (never serialized):
    /// rebuilt once at construction and at deserialization, so every loaded
    /// model scores through the flat kernel. Shared via `Arc` so decoded
    /// consumers (e.g. `ParameterModel`) reference the same arena instead
    /// of cloning hundreds of KB of node storage per model.
    compiled: Arc<CompiledForest>,
}

impl PortableModel {
    /// Wraps a fitted forest for export. Fails if the forest is not fitted.
    pub fn from_forest(name: impl Into<String>, forest: RandomForestRegressor) -> Result<Self> {
        if !forest.is_fitted() {
            return Err(MlError::NotFitted);
        }
        let compiled = Arc::new(forest.compile()?);
        Ok(Self {
            version: PORTABLE_FORMAT_VERSION,
            name: name.into(),
            feature_names: forest.feature_names().to_vec(),
            target_names: forest.target_names().to_vec(),
            forest,
            compiled,
        })
    }

    /// Access to the wrapped forest (the interpreted representation —
    /// training-time tooling such as permutation importance walks it).
    pub fn forest(&self) -> &RandomForestRegressor {
        &self.forest
    }

    /// The compiled inference representation of the forest.
    pub fn compiled(&self) -> &CompiledForest {
        &self.compiled
    }

    /// A shared handle to the compiled representation (consumers that
    /// outlive this model clone the `Arc`, not the arena).
    pub fn compiled_handle(&self) -> Arc<CompiledForest> {
        Arc::clone(&self.compiled)
    }

    /// Serialises the model to a JSON byte buffer.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let value = Value::object([
            ("version", Value::Number(self.version as f64)),
            ("name", Value::String(self.name.clone())),
            ("feature_names", Value::strings(&self.feature_names)),
            ("target_names", Value::strings(&self.target_names)),
            ("forest", self.forest.to_json_value()),
        ]);
        Ok(value.to_json().into_bytes())
    }

    /// Deserialises a model from bytes, checking the format version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| MlError::Serialization(format!("invalid UTF-8: {e}")))?;
        let value = Value::parse(text)?;
        let version = value.field("version")?.as_usize()? as u32;
        if version != PORTABLE_FORMAT_VERSION {
            return Err(MlError::Serialization(format!(
                "unsupported portable-model version {version} (expected {PORTABLE_FORMAT_VERSION})"
            )));
        }
        let forest = RandomForestRegressor::from_json_value(value.field("forest")?)?;
        let compiled = Arc::new(forest.compile()?);
        Ok(Self {
            version,
            name: value.field("name")?.as_str()?.to_string(),
            feature_names: value.field("feature_names")?.as_string_vec()?,
            target_names: value.field("target_names")?.as_string_vec()?,
            forest,
            compiled,
        })
    }

    /// Writes the model to a file (conventionally `*.aex`).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let bytes = self.to_bytes()?;
        let mut file = std::fs::File::create(path.as_ref())
            .map_err(|e| MlError::Serialization(e.to_string()))?;
        file.write_all(&bytes)
            .map_err(|e| MlError::Serialization(e.to_string()))
    }

    /// Reads a model from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let mut file = std::fs::File::open(path.as_ref())
            .map_err(|e| MlError::Serialization(e.to_string()))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| MlError::Serialization(e.to_string()))?;
        Self::from_bytes(&bytes)
    }

    /// Serialized size in bytes (the paper reports ~1 MB for 103 queries).
    pub fn serialized_size(&self) -> Result<usize> {
        Ok(self.to_bytes()?.len())
    }

    /// Scores one feature row through the compiled forest (bit-identical to
    /// the interpreted [`RandomForestRegressor::predict`]).
    pub fn predict(&self, row: &[f64]) -> Result<Vec<f64>> {
        self.compiled.predict(row)
    }

    /// Scores every row of a feature matrix through the compiled
    /// kernel; bit-identical to calling
    /// [`predict`](Self::predict) per row.
    pub fn predict_matrix(&self, matrix: &FeatureMatrix) -> Result<Vec<Vec<f64>>> {
        let k = self.compiled.num_outputs();
        let mut flat = Vec::new();
        self.compiled.predict_batch(matrix, &mut flat)?;
        Ok(flat.chunks(k.max(1)).map(<[f64]>::to_vec).collect())
    }

    /// Flat-output batched scoring: fills `out` with
    /// `matrix.len() × num_outputs` values, row-major, through the compiled
    /// kernel.
    pub fn predict_matrix_into(&self, matrix: &FeatureMatrix, out: &mut Vec<f64>) -> Result<()> {
        self.compiled.predict_batch(matrix, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::forest::{RandomForestConfig, RandomForestRegressor};

    fn fitted_forest() -> RandomForestRegressor {
        let mut d = Dataset::new(vec!["x".into()], vec!["y".into(), "z".into()]);
        for i in 0..40 {
            let x = i as f64;
            d.push_row(format!("r{i}"), vec![x], vec![2.0 * x, 100.0 - x])
                .unwrap();
        }
        let mut rf = RandomForestRegressor::new(RandomForestConfig {
            n_estimators: 10,
            seed: 3,
            ..Default::default()
        });
        rf.fit(&d).unwrap();
        rf
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let rf = fitted_forest();
        let direct = rf.predict(&[17.0]).unwrap();
        let portable = PortableModel::from_forest("test", rf).unwrap();
        let bytes = portable.to_bytes().unwrap();
        let restored = PortableModel::from_bytes(&bytes).unwrap();
        assert_eq!(restored.predict(&[17.0]).unwrap(), direct);
        assert_eq!(restored.feature_names, vec!["x".to_string()]);
        assert_eq!(
            restored.target_names,
            vec!["y".to_string(), "z".to_string()]
        );
    }

    #[test]
    fn unfitted_forest_cannot_be_exported() {
        let rf = RandomForestRegressor::new(RandomForestConfig::default());
        assert!(matches!(
            PortableModel::from_forest("x", rf),
            Err(MlError::NotFitted)
        ));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let rf = fitted_forest();
        let portable = PortableModel::from_forest("test", rf).unwrap();
        let text = String::from_utf8(portable.to_bytes().unwrap()).unwrap();
        assert!(text.contains("\"version\":1"));
        let tampered = text.replace("\"version\":1", "\"version\":999");
        assert!(PortableModel::from_bytes(tampered.as_bytes()).is_err());
    }

    #[test]
    fn garbage_bytes_are_rejected() {
        assert!(PortableModel::from_bytes(b"not json at all").is_err());
    }

    #[test]
    fn score_matrix_matches_per_row_scoring() {
        let rf = fitted_forest();
        let portable = PortableModel::from_forest("batch", rf).unwrap();
        let rows = vec![vec![3.0], vec![7.0], vec![21.0]];
        let matrix = FeatureMatrix::from_rows(&rows).unwrap();
        let batched = portable.predict_matrix(&matrix).unwrap();
        assert_eq!(batched.len(), 3);
        for (row, out) in rows.iter().zip(&batched) {
            assert_eq!(out, &portable.predict(row).unwrap());
        }
    }

    #[test]
    fn file_roundtrip_works() {
        let rf = fitted_forest();
        let portable = PortableModel::from_forest("file-test", rf).unwrap();
        let dir = std::env::temp_dir().join("ae_ml_portable_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.aex");
        portable.save(&path).unwrap();
        let loaded = PortableModel::load(&path).unwrap();
        assert_eq!(loaded.name, "file-test");
        assert!(portable.serialized_size().unwrap() > 0);
        std::fs::remove_file(&path).ok();
    }
}
