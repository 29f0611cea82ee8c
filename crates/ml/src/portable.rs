//! Portable model format and in-process scoring runtime.
//!
//! The paper exports the scikit-learn parameter model to ONNX so that the
//! JVM-resident Spark optimizer can score it in-process with millisecond
//! latency (Section 4.3). This module plays the same role: a fitted
//! [`RandomForestRegressor`] is serialised into a compact, self-describing
//! [`PortableModel`] (JSON on disk, extension `.aex`), and a
//! [`ScoringRuntime`] loads, validates, and caches it for repeated scoring
//! inside the query optimizer.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Timing breakdown collected by the scoring runtime, mirroring the
/// overheads of Section 5.6 (model load, session setup, per-query inference).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScoringStats {
    /// Time spent deserialising the model.
    pub load_time: Duration,
    /// Time spent building the in-memory session (validation + warm-up).
    pub setup_time: Duration,
    /// Cumulative inference time across all `score` calls.
    pub total_inference_time: Duration,
    /// Number of `score` calls served.
    pub inferences: u64,
}

impl ScoringStats {
    /// Mean per-call inference latency.
    pub fn mean_inference_time(&self) -> Duration {
        if self.inferences == 0 {
            Duration::ZERO
        } else {
            self.total_inference_time / self.inferences as u32
        }
    }
}

/// An in-process scoring session over a loaded [`PortableModel`].
///
/// The optimizer keeps one `ScoringRuntime` per model and reuses it across
/// queries, so the load/setup costs are paid once (the "model load and cache"
/// step of the AutoExecutor rule).
#[derive(Debug, Clone)]
pub struct ScoringRuntime {
    model: PortableModel,
    stats: ScoringStats,
}

impl ScoringRuntime {
    /// Builds a runtime from serialized bytes, recording the load time.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let load_start = Instant::now();
        let model = PortableModel::from_bytes(bytes)?;
        let load_time = load_start.elapsed();

        let setup_start = Instant::now();
        // Session setup: validate widths by scoring a zero vector once.
        let warmup = vec![0.0; model.feature_names.len()];
        model.predict(&warmup)?;
        let setup_time = setup_start.elapsed();

        Ok(Self {
            model,
            stats: ScoringStats {
                load_time,
                setup_time,
                ..Default::default()
            },
        })
    }

    /// Builds a runtime directly from an in-memory model (no deserialisation).
    pub fn from_model(model: PortableModel) -> Result<Self> {
        let setup_start = Instant::now();
        let warmup = vec![0.0; model.feature_names.len()];
        model.predict(&warmup)?;
        let setup_time = setup_start.elapsed();
        Ok(Self {
            model,
            stats: ScoringStats {
                setup_time,
                ..Default::default()
            },
        })
    }

    /// Builds a runtime by loading a model file.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self> {
        let load_start = Instant::now();
        let model = PortableModel::load(path)?;
        let load_time = load_start.elapsed();
        let mut rt = Self::from_model(model)?;
        rt.stats.load_time = load_time;
        Ok(rt)
    }

    /// The model metadata (name, feature/target names).
    pub fn model(&self) -> &PortableModel {
        &self.model
    }

    /// Scores one feature row, accumulating inference-time statistics.
    pub fn score(&mut self, row: &[f64]) -> Result<Vec<f64>> {
        let start = Instant::now();
        let out = self.model.predict(row)?;
        self.stats.total_inference_time += start.elapsed();
        self.stats.inferences += 1;
        Ok(out)
    }

    /// Scores a whole feature matrix in one call, counting each row as one
    /// inference in the statistics.
    pub fn score_matrix(&mut self, matrix: &FeatureMatrix) -> Result<Vec<Vec<f64>>> {
        let start = Instant::now();
        let out = self.model.predict_matrix(matrix)?;
        self.stats.total_inference_time += start.elapsed();
        self.stats.inferences += matrix.len() as u64;
        Ok(out)
    }

    /// The accumulated timing statistics.
    pub fn stats(&self) -> ScoringStats {
        self.stats
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
    fn scoring_runtime_counts_inferences() {
        let rf = fitted_forest();
        let portable = PortableModel::from_forest("test", rf).unwrap();
        let bytes = portable.to_bytes().unwrap();
        let mut rt = ScoringRuntime::from_bytes(&bytes).unwrap();
        for i in 0..5 {
            rt.score(&[i as f64]).unwrap();
        }
        assert_eq!(rt.stats().inferences, 5);
        assert!(rt.stats().mean_inference_time() <= rt.stats().total_inference_time);
    }

    #[test]
    fn score_matrix_matches_per_row_scoring() {
        let rf = fitted_forest();
        let portable = PortableModel::from_forest("batch", rf).unwrap();
        let mut rt = ScoringRuntime::from_model(portable.clone()).unwrap();
        let rows = vec![vec![3.0], vec![7.0], vec![21.0]];
        let matrix = FeatureMatrix::from_rows(&rows).unwrap();
        let batched = rt.score_matrix(&matrix).unwrap();
        assert_eq!(rt.stats().inferences, 3);
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
        let rt = ScoringRuntime::from_file(&path).unwrap();
        assert_eq!(rt.model().name, "file-test");
        assert!(portable.serialized_size().unwrap() > 0);
        std::fs::remove_file(&path).ok();
    }
}
