//! Plan-repair policies: what to do with the deployment after the
//! cluster changes under it.

/// How the elastic runtime repairs the deployment after a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepairPolicy {
    /// Re-run the full planner on the mutated cluster. Best repaired
    /// throughput, highest recovery cost (the planner's whole search
    /// re-runs).
    FullReplan,
    /// Keep the plan's shape: evict replicas from lost devices and
    /// redistribute them proportionally to the survivors' effective
    /// compute power (or rebalance over current speeds after a
    /// slowdown/join). Only re-lowers and re-schedules — no search.
    MigrateReplicas,
    /// Also migrate for validity, then pick the gradient-aggregation
    /// method (PS vs ring all-reduce) that simulates fastest on the
    /// degraded links.
    CollectiveFallback,
}

impl RepairPolicy {
    /// All policies, for comparison sweeps.
    pub const ALL: [RepairPolicy; 3] = [
        RepairPolicy::FullReplan,
        RepairPolicy::MigrateReplicas,
        RepairPolicy::CollectiveFallback,
    ];

    /// Stable kebab-case name (CLI value and report JSON field).
    pub fn name(&self) -> &'static str {
        match self {
            RepairPolicy::FullReplan => "full-replan",
            RepairPolicy::MigrateReplicas => "migrate-replicas",
            RepairPolicy::CollectiveFallback => "collective-fallback",
        }
    }

    /// Parses a CLI policy name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "full-replan" | "replan" => Ok(RepairPolicy::FullReplan),
            "migrate-replicas" | "migrate" => Ok(RepairPolicy::MigrateReplicas),
            "collective-fallback" | "fallback" => Ok(RepairPolicy::CollectiveFallback),
            other => Err(format!(
                "unknown repair policy {other:?} (valid: full-replan, migrate-replicas, collective-fallback)"
            )),
        }
    }
}

impl std::fmt::Display for RepairPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for p in RepairPolicy::ALL {
            assert_eq!(RepairPolicy::parse(p.name()), Ok(p));
        }
        assert!(RepairPolicy::parse("reboot").is_err());
    }
}
