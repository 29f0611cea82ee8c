//! Cluster, node, and executor sizing, plus the allocation-lag model.
//!
//! The paper's testbed uses Azure Synapse Spark pools with medium nodes
//! (8 cores, 64 GB) hosting at most two executors of 4 cores / 28 GB each,
//! and observes that the runtime environment takes roughly 20–30 seconds to
//! gradually satisfy a large executor request (Section 5.4). Those knobs
//! live here.

use serde::{Deserialize, Serialize};

use crate::{require_finite_nonneg, EngineError, Result};

/// Size of one executor (Spark worker process).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutorSpec {
    /// Cores per executor (`ec` in the paper).
    pub cores: usize,
    /// Memory per executor in GB.
    pub memory_gb: f64,
}

impl ExecutorSpec {
    /// The paper's executor size: 4 cores, 28 GB.
    pub fn paper_default() -> Self {
        Self {
            cores: 4,
            memory_gb: 28.0,
        }
    }

    /// Validates the spec: a zero-core executor can run no tasks (and would
    /// otherwise surface as a silent `executors_per_node() == 0`), and
    /// memory must be a finite, non-negative number.
    pub fn validate(&self) -> Result<()> {
        if self.cores == 0 {
            return Err(EngineError::InvalidConfig(
                "executor cores must be > 0 (a zero-core executor cannot run tasks)".into(),
            ));
        }
        if !self.memory_gb.is_finite() || self.memory_gb < 0.0 {
            return Err(EngineError::InvalidConfig(format!(
                "executor memory must be finite and non-negative, got {} GB",
                self.memory_gb
            )));
        }
        Ok(())
    }
}

/// Size of one cluster node (VM).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Cores per node (`C` in Section 3.3).
    pub cores: usize,
    /// Memory per node in GB (`M`).
    pub memory_gb: f64,
}

impl NodeSpec {
    /// The paper's medium node: 8 cores, 64 GB.
    pub fn medium() -> Self {
        Self {
            cores: 8,
            memory_gb: 64.0,
        }
    }

    /// How many executors of the given spec fit on one node, limited by both
    /// cores and memory.
    pub fn executors_per_node(&self, executor: &ExecutorSpec) -> usize {
        if executor.cores == 0 {
            return 0;
        }
        let by_cores = self.cores / executor.cores;
        let by_memory = if executor.memory_gb <= 0.0 {
            usize::MAX
        } else {
            (self.memory_gb / executor.memory_gb).floor() as usize
        };
        by_cores.min(by_memory)
    }
}

/// How quickly the cluster manager satisfies executor-allocation requests.
///
/// Requests are granted in waves: nothing for `grant_delay_secs`, then
/// `executors_per_wave` new executors come online every `wave_interval_secs`
/// until the target is reached. Each executor additionally pays
/// `executor_startup_secs` before it can run tasks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllocationLag {
    /// Delay before the first grant of a request.
    pub grant_delay_secs: f64,
    /// Executors granted per wave.
    pub executors_per_wave: usize,
    /// Interval between grant waves.
    pub wave_interval_secs: f64,
    /// Per-executor startup time once granted.
    pub executor_startup_secs: f64,
}

impl AllocationLag {
    /// Lag calibrated to the paper's observation that 25–48 executors take
    /// roughly 20–30 seconds to be fully allocated.
    pub fn synapse_like() -> Self {
        Self {
            grant_delay_secs: 3.0,
            executors_per_wave: 4,
            wave_interval_secs: 2.0,
            executor_startup_secs: 1.0,
        }
    }

    /// No lag at all: requests are satisfied instantly. Useful for isolating
    /// scheduling effects in tests.
    pub fn instant() -> Self {
        Self {
            grant_delay_secs: 0.0,
            executors_per_wave: usize::MAX,
            wave_interval_secs: 0.0,
            executor_startup_secs: 0.0,
        }
    }
}

/// Full cluster configuration used by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Node size.
    pub node: NodeSpec,
    /// Number of nodes in the pool.
    pub max_nodes: usize,
    /// Executor size.
    pub executor: ExecutorSpec,
    /// Allocation-lag behaviour.
    pub lag: AllocationLag,
}

impl ClusterConfig {
    /// The paper's setup: medium nodes, 4-core executors, at most two
    /// executors per node, 1–48 executors available.
    pub fn paper_default() -> Self {
        Self {
            node: NodeSpec::medium(),
            max_nodes: 25, // 48 executors + driver comfortably fit
            executor: ExecutorSpec::paper_default(),
            lag: AllocationLag::synapse_like(),
        }
    }

    /// Same as [`ClusterConfig::paper_default`] but with a different
    /// executor-core count (`ec`), used by the total-cores study (Table 1).
    pub fn with_cores_per_executor(mut self, cores: usize) -> Self {
        self.executor.cores = cores;
        // Memory scales with cores so that the node memory constraint keeps
        // roughly the same executors-per-node ratio as the paper.
        self.executor.memory_gb = 7.0 * cores as f64;
        self
    }

    /// Maximum number of executors the pool can host.
    pub fn max_executors(&self) -> usize {
        self.max_nodes * self.node.executors_per_node(&self.executor)
    }

    /// Validates the configuration. Rejects zero-core executors, zero-core
    /// nodes, node-less pools, executors that do not fit on a node (all of
    /// which would otherwise become downstream div-by-zero or a silent
    /// zero-executor pool), and malformed allocation-lag times.
    pub fn validate(&self) -> Result<()> {
        self.executor.validate()?;
        if self.node.cores == 0 {
            return Err(EngineError::InvalidConfig(
                "node cores must be > 0 (a zero-core node hosts no executors)".into(),
            ));
        }
        if !self.node.memory_gb.is_finite() || self.node.memory_gb < 0.0 {
            return Err(EngineError::InvalidConfig(format!(
                "node memory must be finite and non-negative, got {} GB",
                self.node.memory_gb
            )));
        }
        if self.max_nodes == 0 {
            return Err(EngineError::InvalidConfig(
                "cluster must have at least one node (max_nodes must be > 0)".into(),
            ));
        }
        if self.node.executors_per_node(&self.executor) == 0 {
            return Err(EngineError::InvalidConfig(format!(
                "an executor with {} cores / {} GB does not fit on a node with {} cores / {} GB",
                self.executor.cores, self.executor.memory_gb, self.node.cores, self.node.memory_gb
            )));
        }
        require_finite_nonneg(
            "allocation-lag",
            &[
                ("grant delay", self.lag.grant_delay_secs),
                ("wave interval", self.lag.wave_interval_secs),
                ("executor startup", self.lag.executor_startup_secs),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_hosts_two_executors_per_node() {
        let cfg = ClusterConfig::paper_default();
        assert_eq!(cfg.node.executors_per_node(&cfg.executor), 2);
        assert!(cfg.max_executors() >= 48);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn memory_limits_executors_per_node() {
        let node = NodeSpec {
            cores: 16,
            memory_gb: 30.0,
        };
        let executor = ExecutorSpec {
            cores: 4,
            memory_gb: 28.0,
        };
        // By cores 4 would fit, but memory allows only 1.
        assert_eq!(node.executors_per_node(&executor), 1);
    }

    #[test]
    fn oversized_executor_is_invalid() {
        let cfg = ClusterConfig {
            executor: ExecutorSpec {
                cores: 16,
                memory_gb: 28.0,
            },
            ..ClusterConfig::paper_default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn with_cores_per_executor_rescales_memory() {
        let cfg = ClusterConfig::paper_default().with_cores_per_executor(2);
        assert_eq!(cfg.executor.cores, 2);
        assert_eq!(cfg.node.executors_per_node(&cfg.executor), 4);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn zero_core_executor_is_invalid() {
        let mut cfg = ClusterConfig::paper_default();
        cfg.executor.cores = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("executor cores"), "{err}");
        assert!(cfg.executor.validate().is_err());
    }

    #[test]
    fn zero_executor_pool_is_invalid_with_descriptive_errors() {
        let mut cfg = ClusterConfig::paper_default();
        cfg.max_nodes = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("max_nodes"), "{err}");

        let mut cfg = ClusterConfig::paper_default();
        cfg.node.cores = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("node cores"), "{err}");
    }

    #[test]
    fn non_finite_values_are_invalid() {
        let mut cfg = ClusterConfig::paper_default();
        cfg.executor.memory_gb = f64::NAN;
        assert!(cfg.validate().is_err());

        let mut cfg = ClusterConfig::paper_default();
        cfg.node.memory_gb = f64::INFINITY;
        assert!(cfg.validate().is_err());

        let mut cfg = ClusterConfig::paper_default();
        cfg.lag.grant_delay_secs = f64::NAN;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("grant delay"), "{err}");
    }
}
