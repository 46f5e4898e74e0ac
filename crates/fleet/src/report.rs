//! Per-policy fleet metrics and the deterministic JSON report.
//!
//! One [`PolicyReport`] summarizes one full fleet run under one
//! policy; a [`FleetReport`] bundles the per-policy reports with the
//! run configuration. `FleetReport::fields` flattens it, with the
//! headline policy-vs-baseline gains, into the fixed-order entries
//! `fleet_bench` writes to `BENCH_fleet.json` and gates on.

/// Metrics of one full fleet run under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyReport {
    /// Policy name ([`crate::SchedulerPolicy::name`]).
    pub policy: String,
    /// Threads that arrived (equals `completed`: runs drain).
    pub arrivals: u64,
    /// Threads that ran to completion.
    pub completed: u64,
    /// Total work units executed.
    pub total_work: f64,
    /// Fleet makespan in cycles (last event across all shards).
    pub makespan_cycles: f64,
    /// Sustained throughput in work units per second.
    pub throughput_units_per_s: f64,
    /// Total energy (J), including idle and migration energy.
    pub energy_j: f64,
    /// Energy per unit of work (J).
    pub energy_per_unit_j: f64,
    /// Mean thread response time (arrival to completion) in seconds.
    pub mean_response_s: f64,
    /// The fleet EDP: energy per unit x mean response time (J*s).
    /// Lower is better; the scale every policy is compared on.
    pub edp: f64,
    /// Median per-thread slowdown vs the unloaded best fleet core.
    pub p50_slowdown: f64,
    /// 99th-percentile per-thread slowdown (the tail the
    /// migration-aware policy is designed to protect).
    pub p99_slowdown: f64,
    /// Worst per-thread slowdown.
    pub max_slowdown: f64,
    /// Migrations taken, by class in [`cisa_migrate::MigrationClass::ALL`]
    /// order: native, transforming, state-transforming.
    pub migrations: [u64; 3],
    /// Total migrations taken.
    pub migrations_total: u64,
    /// Idle-core placements declined because the chip cap had no
    /// headroom for the core's peak power.
    pub cap_blocked: u64,
    /// Max over chips of (peak observed active power / cap): `<= 1.0`
    /// in any correct run.
    pub max_cap_utilization: f64,
    /// Placement iterations (one power-cap scan of a shard's cores
    /// each), summed over shards.
    pub dispatch_iterations: u64,
    /// Candidates priced for the policy, summed over shards.
    pub candidates_priced: u64,
    /// Policy `choose` calls, summed over shards.
    pub policy_calls: u64,
}

/// A full `fleet_bench` result: configuration echo plus one
/// [`PolicyReport`] per policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Chips simulated.
    pub n_chips: u64,
    /// Thread-lifetimes served per policy.
    pub n_threads: u64,
    /// Deterministic shard count.
    pub n_shards: u64,
    /// Arrival-stream seed.
    pub seed: u64,
    /// Migration-matrix entries per class (native, transforming,
    /// state-transforming) — how the static refinement priced the
    /// design space.
    pub matrix_classes: [u64; 3],
    /// One report per policy, in run order.
    pub policies: Vec<PolicyReport>,
}

impl FleetReport {
    /// The report as flat `(key, value)` entries in a fixed order.
    /// Per-policy keys are prefixed with the policy name
    /// (`static_random_edp`), and the headline gains of every policy
    /// over the first (baseline) policy follow
    /// (`migration_aware_edp_gain`).
    pub fn fields(&self) -> Vec<(String, Field)> {
        use Field::{Count, Real};
        let mut out: Vec<(String, Field)> = [
            ("n_chips", self.n_chips),
            ("n_threads", self.n_threads),
            ("n_shards", self.n_shards),
            ("seed", self.seed),
            ("matrix_native", self.matrix_classes[0]),
            ("matrix_transforming", self.matrix_classes[1]),
            ("matrix_state_transforming", self.matrix_classes[2]),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), Count(v)))
        .collect();
        for p in &self.policies {
            let k = p.policy.replace('-', "_");
            out.extend([
                (format!("{k}_completed"), Count(p.completed)),
                (
                    format!("{k}_throughput_units_per_s"),
                    Real(p.throughput_units_per_s),
                ),
                (format!("{k}_energy_per_unit_j"), Real(p.energy_per_unit_j)),
                (format!("{k}_mean_response_s"), Real(p.mean_response_s)),
                (format!("{k}_edp"), Real(p.edp)),
                (format!("{k}_p50_slowdown"), Real(p.p50_slowdown)),
                (format!("{k}_p99_slowdown"), Real(p.p99_slowdown)),
                (format!("{k}_max_slowdown"), Real(p.max_slowdown)),
                (format!("{k}_migrations"), Count(p.migrations_total)),
                (format!("{k}_migrations_native"), Count(p.migrations[0])),
                (
                    format!("{k}_migrations_transforming"),
                    Count(p.migrations[1]),
                ),
                (
                    format!("{k}_migrations_state_transforming"),
                    Count(p.migrations[2]),
                ),
                (format!("{k}_cap_blocked"), Count(p.cap_blocked)),
                (
                    format!("{k}_max_cap_utilization"),
                    Real(p.max_cap_utilization),
                ),
                (
                    format!("{k}_dispatch_iterations"),
                    Count(p.dispatch_iterations),
                ),
                (format!("{k}_candidates_priced"), Count(p.candidates_priced)),
                (format!("{k}_policy_calls"), Count(p.policy_calls)),
            ]);
        }
        if let Some(base) = self.policies.first() {
            for p in self.policies.iter().skip(1) {
                let k = p.policy.replace('-', "_");
                out.extend([
                    (format!("{k}_edp_gain"), Real(base.edp / p.edp)),
                    (
                        format!("{k}_p99_slowdown_gain"),
                        Real(base.p99_slowdown / p.p99_slowdown),
                    ),
                    (
                        format!("{k}_throughput_gain"),
                        Real(p.throughput_units_per_s / base.throughput_units_per_s),
                    ),
                ]);
            }
        }
        out
    }
}

/// The value of one [`FleetReport::fields`] entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Field {
    /// An exact count.
    Count(u64),
    /// A measured or derived real.
    Real(f64),
}

/// Exact percentile of a **sorted** slowdown slice (nearest-rank).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
impl FleetReport {
    /// The report of a named policy, if it ran.
    pub(crate) fn policy(&self, name: &str) -> Option<&PolicyReport> {
        self.policies.iter().find(|p| p.policy == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn fields_are_flat_unique_and_carry_gains() {
        let p = PolicyReport {
            policy: "static-random".into(),
            arrivals: 10,
            completed: 10,
            total_work: 100.0,
            makespan_cycles: 1e6,
            throughput_units_per_s: 1.0,
            energy_j: 2.0,
            energy_per_unit_j: 0.02,
            mean_response_s: 0.5,
            edp: 0.01,
            p50_slowdown: 1.5,
            p99_slowdown: 3.0,
            max_slowdown: 4.0,
            migrations: [1, 2, 3],
            migrations_total: 6,
            cap_blocked: 0,
            max_cap_utilization: 0.9,
            dispatch_iterations: 30,
            candidates_priced: 40,
            policy_calls: 20,
        };
        let mut ma = p.clone();
        ma.policy = "migration-aware".into();
        ma.edp = 0.005;
        let r = FleetReport {
            n_chips: 4,
            n_threads: 10,
            n_shards: 2,
            seed: 1,
            matrix_classes: [10, 5, 2],
            policies: vec![p, ma],
        };
        let fields = r.fields();
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        assert_eq!(get("migration_aware_edp_gain"), Some(Field::Real(2.0)));
        assert_eq!(get("static_random_edp"), Some(Field::Real(0.01)));
        assert_eq!(get("matrix_state_transforming"), Some(Field::Count(2)));
        assert_eq!(get("static_random_edp_gain"), None, "no gain over itself");
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(&keys[..2], ["n_chips", "n_threads"], "fixed order");
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), fields.len(), "keys are unique");
        assert_eq!(r.policy("migration-aware").map(|p| p.edp), Some(0.005));
    }
}
