//! Pins the bits of the schedules every search and replay is scored
//! by: the multiprogrammed mix walk with its optimal 4x4 thread-to-core
//! assignment (throughput and EDP), the per-phase fastest-core pick
//! (single-thread), the greedy EDP pick (single-thread EDP) and the
//! migration replay built on the same walk.
//!
//! One FNV-1a digest covers the searched cores and score bits of all
//! five system organizations under all four objectives, at one budget
//! each, on the 8-phase (one phase per benchmark) table, plus one
//! replay report of the composite throughput chip. A one-phase mix
//! never changes phase, so it never migrates: the replay runs on the
//! 16-phase (two phases per benchmark) table, where threads move and
//! downgrades happen. Any change to any schedule's choice or to the
//! order of its float operations moves the digest.

use cisa_bench::migration::MigrationSim;
use cisa_explore::cache::fnv1a;
use cisa_explore::multicore::{Budget, Evaluator, Objective};
use cisa_explore::{search_system, DesignSpace, PerfTable, SweepRunner, SystemKind};
use cisa_workloads::all_phases;

/// Digest of [`schedules_match_pinned_digest`]'s searches and replay
/// under the one search configuration the figures use.
const SCHEDULE_DIGEST: u64 = 0x8027_a322_9bf9_94de;

#[test]
fn schedules_match_pinned_digest() {
    let space = DesignSpace::new();
    let build = |phases_per_bench| {
        let phases: Vec<_> = all_phases()
            .into_iter()
            .filter(|p| p.index < phases_per_bench)
            .collect();
        PerfTable::build(&space, &phases, &SweepRunner::default()).0
    };
    let table = build(1);
    let eval = Evaluator::new(&space, &table, 12);

    // Everything the digest covers, in order.
    let mut bytes = Vec::new();
    let mut replayed = None;
    for (objective, budget) in [
        (Objective::Throughput, Budget::PeakPower(40.0)),
        (Objective::Edp, Budget::PeakPower(40.0)),
        (Objective::SingleThread, Budget::PeakPower(10.0)),
        (Objective::SingleEdp, Budget::PeakPower(10.0)),
    ] {
        for kind in SystemKind::ALL {
            let r = search_system(&eval, kind, objective, budget)
                .unwrap_or_else(|| panic!("{kind:?} {objective:?} feasible"));
            bytes.extend_from_slice(format!("{:?}", r.cores).as_bytes());
            bytes.extend_from_slice(&r.score.to_bits().to_le_bytes());
            if kind == SystemKind::CompositeFull && objective == Objective::Throughput {
                replayed = Some(r.cores);
            }
        }
    }

    let cores = replayed.expect("composite throughput chip");
    let table2 = build(2);
    let eval2 = Evaluator::new(&space, &table2, 12);
    let report = MigrationSim::new(&eval2)
        .replay(&cores)
        .expect("fault-free replay");
    assert!(report.migrations > 0, "the replay must migrate threads");
    bytes.extend_from_slice(&report.migrations.to_le_bytes());
    let mut downgrades: Vec<_> = report.downgrades.iter().collect();
    downgrades.sort();
    for (label, n) in downgrades {
        bytes.extend_from_slice(label.as_bytes());
        bytes.extend_from_slice(&n.to_le_bytes());
    }
    bytes.extend_from_slice(&report.throughput_free.to_bits().to_le_bytes());
    bytes.extend_from_slice(&report.throughput_with_costs.to_bits().to_le_bytes());

    let digest = fnv1a(&bytes);
    assert_eq!(digest, SCHEDULE_DIGEST, "schedule digest {digest:#018x}");
}
