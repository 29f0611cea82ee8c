//! Model registry (Section 4.4).
//!
//! In the paper the trained ONNX models live in a model-management service
//! (Azure ML / MLflow) and are looked up by the optimizer extension before
//! being loaded and cached in-process. [`ModelRegistry`] fills that role: a
//! thread-safe store of [`PortableModel`]s addressable by name, optionally
//! backed by a directory of `.aex` files so models survive process restarts.
//!
//! ## Serving-path design
//!
//! The registry sits on the critical path of every scored query, so it is
//! built read-mostly:
//!
//! * models are stored behind `Arc<PortableModel>` handles and [`load`]
//!   returns a cheap handle clone — an owned copy per call survives only as
//!   the explicit [`load_owned`] shim;
//! * the name → model map is split into [`SHARD_COUNT`] shards, each behind
//!   its own `RwLock`, so concurrent lookups of different models never
//!   contend and lookups of the same model share a read lock;
//! * re-registration is an RCU-style swap: the shard briefly takes a write
//!   lock to replace the `Arc`, while every handle already given out keeps
//!   scoring against the old model until dropped. Readers never block
//!   writers for longer than a handle clone.
//!
//! [`load`]: ModelRegistry::load
//! [`load_owned`]: ModelRegistry::load_owned

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ae_ml::portable::PortableModel;
use parking_lot::RwLock;

use crate::{AutoExecutorError, Result};

/// Number of independent shards in the in-memory map. A small power of two
/// is plenty: contention is per-name, and serving deployments hold a handful
/// of models (one per workload family).
pub const SHARD_COUNT: usize = 8;

type Shard = RwLock<HashMap<String, Arc<PortableModel>>>;

/// A named store of portable parameter models.
#[derive(Debug)]
pub struct ModelRegistry {
    directory: Option<PathBuf>,
    shards: Vec<Shard>,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self {
            directory: None,
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }
}

impl ModelRegistry {
    /// Creates a purely in-memory registry.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Creates a registry backed by a directory of `.aex` files. The
    /// directory is created if missing.
    pub fn with_directory(path: impl AsRef<Path>) -> Result<Self> {
        let dir = path.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| {
            AutoExecutorError::InvalidModel(format!("cannot create registry dir: {e}"))
        })?;
        Ok(Self {
            directory: Some(dir),
            ..Self::default()
        })
    }

    fn shard_for(&self, name: &str) -> &Shard {
        let mut hasher = DefaultHasher::new();
        name.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Registers (or replaces) a model under `name`. Directory-backed
    /// registries also persist it to `<dir>/<name>.aex`.
    ///
    /// Replacement is RCU-style: handles returned by earlier [`load`] calls
    /// remain valid and keep pointing at the previous model; only new loads
    /// observe the replacement.
    ///
    /// [`load`]: Self::load
    pub fn register(&self, name: &str, model: PortableModel) -> Result<()> {
        if let Some(dir) = &self.directory {
            model
                .save(dir.join(format!("{name}.aex")))
                .map_err(AutoExecutorError::Ml)?;
        }
        let handle = Arc::new(model);
        self.shard_for(name)
            .write()
            .insert(name.to_string(), handle);
        Ok(())
    }

    /// Loads a model by name, returning a shared handle: the in-memory cache
    /// is consulted first (read lock only), then the backing directory (if
    /// any). Disk deserialization happens without any lock held; a
    /// double-checked insert resolves the race when several threads fault
    /// the same model in simultaneously.
    pub fn load(&self, name: &str) -> Result<Arc<PortableModel>> {
        let shard = self.shard_for(name);
        if let Some(model) = shard.read().get(name) {
            return Ok(Arc::clone(model));
        }
        if let Some(dir) = &self.directory {
            let path = dir.join(format!("{name}.aex"));
            if path.exists() {
                // Deserialize outside the lock — models are megabytes of
                // JSON and this must not stall concurrent lookups.
                let model = PortableModel::load(&path).map_err(AutoExecutorError::Ml)?;
                let mut guard = shard.write();
                let entry = guard
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(model));
                return Ok(Arc::clone(entry));
            }
        }
        Err(AutoExecutorError::ModelNotFound(name.to_string()))
    }

    /// Loads a model by name and returns an owned copy — the pre-refactor
    /// `load` semantics, kept for callers that need to rename or
    /// re-serialize the model. The copy owns its name and metadata and
    /// shares the immutable forest and compiled arena. The serving path
    /// should use [`load`](Self::load).
    pub fn load_owned(&self, name: &str) -> Result<PortableModel> {
        Ok((*self.load(name)?).clone())
    }

    /// Names of all models currently known to the registry (in-memory plus
    /// any `.aex` files in the backing directory).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|shard| shard.read().keys().cloned().collect::<Vec<_>>())
            .collect();
        if let Some(dir) = &self.directory {
            if let Ok(entries) = std::fs::read_dir(dir) {
                for entry in entries.flatten() {
                    let path = entry.path();
                    if path.extension().is_some_and(|e| e == "aex") {
                        if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                            if !names.iter().any(|n| n == stem) {
                                names.push(stem.to_string());
                            }
                        }
                    }
                }
            }
        }
        names.sort();
        names
    }

    /// Removes a model from the registry (memory and disk). Handles already
    /// given out stay usable until dropped.
    pub fn remove(&self, name: &str) -> Result<()> {
        self.shard_for(name).write().remove(name);
        if let Some(dir) = &self.directory {
            let path = dir.join(format!("{name}.aex"));
            if path.exists() {
                std::fs::remove_file(&path).map_err(|e| {
                    AutoExecutorError::InvalidModel(format!("cannot remove model file: {e}"))
                })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_ml::dataset::Dataset;
    use ae_ml::forest::{RandomForestConfig, RandomForestRegressor};

    fn dummy_model(name: &str) -> PortableModel {
        let mut ds = Dataset::new(vec!["x".into()], vec!["y".into()]);
        for i in 0..12 {
            ds.push_row(format!("r{i}"), vec![i as f64], vec![(i * 2) as f64])
                .unwrap();
        }
        let mut forest = RandomForestRegressor::new(RandomForestConfig {
            n_estimators: 3,
            ..Default::default()
        });
        forest.fit(&ds).unwrap();
        PortableModel::from_forest(name, forest).unwrap()
    }

    #[test]
    fn in_memory_register_and_load() {
        let registry = ModelRegistry::in_memory();
        registry.register("pl", dummy_model("pl")).unwrap();
        let loaded = registry.load("pl").unwrap();
        assert_eq!(loaded.name, "pl");
        assert_eq!(registry.names(), vec!["pl".to_string()]);
    }

    #[test]
    fn load_returns_shared_handles_not_copies() {
        let registry = ModelRegistry::in_memory();
        registry.register("shared", dummy_model("shared")).unwrap();
        let a = registry.load("shared").unwrap();
        let b = registry.load("shared").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "load must hand out the same Arc");
        let owned = registry.load_owned("shared").unwrap();
        assert_eq!(owned.name, a.name);
    }

    #[test]
    fn reregistration_swaps_rcu_style() {
        let registry = ModelRegistry::in_memory();
        registry.register("m", dummy_model("v1")).unwrap();
        let old = registry.load("m").unwrap();
        registry.register("m", dummy_model("v2")).unwrap();
        let new = registry.load("m").unwrap();
        assert!(!Arc::ptr_eq(&old, &new));
        // The old handle keeps working after the swap.
        assert_eq!(old.name, "v1");
        assert_eq!(new.name, "v2");
    }

    #[test]
    fn missing_model_is_an_error() {
        let registry = ModelRegistry::in_memory();
        assert!(matches!(
            registry.load("nope"),
            Err(AutoExecutorError::ModelNotFound(_))
        ));
    }

    #[test]
    fn directory_backed_registry_persists_models() {
        let dir = std::env::temp_dir().join(format!("ae_registry_test_{}", std::process::id()));
        let registry = ModelRegistry::with_directory(&dir).unwrap();
        registry
            .register("persisted", dummy_model("persisted"))
            .unwrap();

        // A fresh registry over the same directory finds the model on disk.
        let fresh = ModelRegistry::with_directory(&dir).unwrap();
        assert!(fresh.names().contains(&"persisted".to_string()));
        let loaded = fresh.load("persisted").unwrap();
        assert_eq!(loaded.name, "persisted");
        // The disk fault-in is cached: the next load shares the handle.
        let again = fresh.load("persisted").unwrap();
        assert!(Arc::ptr_eq(&loaded, &again));

        registry.remove("persisted").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_clears_memory_and_names() {
        let registry = ModelRegistry::in_memory();
        registry.register("a", dummy_model("a")).unwrap();
        registry.remove("a").unwrap();
        assert!(registry.names().is_empty());
        assert!(registry.load("a").is_err());
    }

    #[test]
    fn concurrent_loads_share_one_model() {
        let registry = Arc::new(ModelRegistry::in_memory());
        registry.register("hot", dummy_model("hot")).unwrap();
        let reference = registry.load("hot").unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || registry.load("hot").unwrap())
            })
            .collect();
        for h in handles {
            let loaded = h.join().unwrap();
            assert!(Arc::ptr_eq(&reference, &loaded));
        }
    }
}
