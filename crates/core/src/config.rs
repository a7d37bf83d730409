//! The `heterog_config` object (§3.5).

use heterog_agent::HeteroGPlanner;
use heterog_profile::ProfilerConfig;
use heterog_strategies::Planner;

use crate::runner::try_baseline_planner;

/// Configuration accepted by [`crate::get_runner`], mirroring the
/// paper's optional `heterog_config` argument (§3.5: "extra arguments if
/// needed (e.g., ... whether to use default execution order or our order
/// scheduling algorithm)").
pub struct HeterogConfig {
    /// Strategy maker: HeteroG's search by default, or a named baseline
    /// ([`HeterogConfig::baseline`]). The runner keeps it, so the
    /// elastic runtime can replan with it.
    pub planner: Box<dyn Planner>,
    /// `true` = HeteroG's rank-based order scheduling (§4.2);
    /// `false` = the engine's default FIFO order (the §6.6 baseline).
    pub order_scheduling: bool,
    /// Profiler settings; the planner sees the fitted cost model.
    pub profiler: ProfilerConfig,
}

impl Default for HeterogConfig {
    fn default() -> Self {
        HeterogConfig {
            planner: Box::new(HeteroGPlanner::default()),
            order_scheduling: true,
            profiler: ProfilerConfig::default(),
        }
    }
}

impl HeterogConfig {
    /// A smaller/faster search for examples, tests and doctests.
    pub fn quick() -> Self {
        HeterogConfig {
            planner: Box::new(HeteroGPlanner {
                groups: 12,
                passes: 1,
                allow_mp: true,
            }),
            ..Default::default()
        }
    }

    /// Uses the named baseline planner instead of HeteroG.
    ///
    /// # Panics
    /// On a name not in [`crate::BASELINE_PLANNER_NAMES`].
    pub fn baseline(name: &str) -> Self {
        HeterogConfig {
            planner: try_baseline_planner(name)
                .unwrap_or_else(|| panic!("unknown baseline planner {name:?}")),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_search_with_order_scheduling() {
        let c = HeterogConfig::default();
        assert!(c.order_scheduling);
        assert_eq!(c.planner.name(), "HeteroG");
    }

    #[test]
    fn quick_is_smaller() {
        use heterog_cluster::paper_testbed_4gpu;
        use heterog_graph::{BenchmarkModel, ModelSpec};
        use heterog_profile::GroundTruthCost;
        use heterog_strategies::count_evaluations;

        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
        let c = paper_testbed_4gpu();
        let evals = |cfg: HeterogConfig| {
            let (_, stats) = count_evaluations(|| cfg.planner.plan(&g, &c, &GroundTruthCost));
            stats.evaluations + stats.incremental_fast
        };
        assert!(evals(HeterogConfig::quick()) < evals(HeterogConfig::default()));
    }
}
