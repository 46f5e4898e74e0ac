//! Scheduler policies: how a thread picks (or is pinned to) a core.
//!
//! Whenever a thread needs a core, the event loop prices a
//! [`Candidate`] for each core it may take and asks the policy to
//! choose. A thread bound at arrival is offered its bound core alone,
//! and only while that core is idle and power-feasible; any other
//! thread is offered every idle, power-feasible core, in core order.
//! The three shipped policies bracket the design space the paper's
//! Figures 13/15 explore, at fleet scale:
//!
//! - [`StaticRandom`] — the no-affinity baseline: each thread is
//!   pinned at arrival to one uniformly-random core (among cores that
//!   could ever run it under the chip cap) and never migrates.
//! - [`AffinityGreedy`] — pick the fastest feasible core for the
//!   thread's fingerprint, every segment; migration costs are ignored.
//! - [`MigrationAware`] — pick the core minimizing the remaining
//!   work's energy-delay product *inclusive* of the migration's class
//!   latency and energy, so a migration happens exactly when its
//!   amortized EDP delta is negative.
//!
//! Policies are pure functions of the candidate list (plus, for the
//! static baseline, a seeded per-thread RNG), so every policy keeps
//! the simulation deterministic.

use cisa_migrate::MigrationClass;
use cisa_power::CLOCK_HZ;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::migration::MIGRATION_POWER_FRACTION;

/// One placement option: an idle, power-feasible core.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Global core index.
    pub core: u32,
    /// Core-design index in the fleet spec.
    pub design: u16,
    /// Peak power (W) of the core.
    pub peak_w: f64,
    /// Cycles per unit of the thread's workload on this core.
    pub cpu: f64,
    /// Energy (J) per unit of the thread's workload on this core.
    pub epu: f64,
    /// Migration class if moving here migrates the thread; `None` for
    /// the thread's first dispatch or for resuming on the same core.
    pub mig_class: Option<MigrationClass>,
    /// Migration latency in cycles (`0.0` when `mig_class` is `None`).
    pub mig_cycles: f64,
}

/// Per-decision context the policy sees alongside the candidates.
#[derive(Debug, Clone, Copy)]
pub struct PlacementCtx {
    /// Work units left across all remaining segments (including the
    /// one about to run).
    pub remaining_work: f64,
    /// Core the thread is statically bound to, if its policy bound one
    /// at arrival.
    pub bound_core: Option<u32>,
}

/// A scheduling policy: optional arrival-time binding plus the
/// per-segment core choice.
pub trait SchedulerPolicy: Sync {
    /// Stable policy name used in reports and JSON.
    fn name(&self) -> &'static str;

    /// Called once at thread arrival with every core that could ever
    /// run the thread alone under its chip's cap. A static policy
    /// returns the core to pin the thread to; dynamic policies return
    /// `None`. A thread bound at arrival is only ever offered its bound
    /// core: [`SchedulerPolicy::choose`] sees it as the sole candidate
    /// when it is idle and power-feasible, and is not called otherwise.
    fn bind_on_arrival(&self, _rng: &mut SmallRng, _eligible: &[u32]) -> Option<u32> {
        None
    }

    /// Chooses among the offered candidates (never empty), or `None` to
    /// keep the thread queued until the next scheduling opportunity.
    fn choose(&self, ctx: &PlacementCtx, candidates: &[Candidate]) -> Option<usize>;
}

/// The no-affinity baseline: pin each arriving thread to one
/// uniformly-random eligible core; never migrate.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticRandom;

impl SchedulerPolicy for StaticRandom {
    fn name(&self) -> &'static str {
        "static-random"
    }

    fn bind_on_arrival(&self, rng: &mut SmallRng, eligible: &[u32]) -> Option<u32> {
        if eligible.is_empty() {
            return None;
        }
        Some(eligible[rng.gen_range(0..eligible.len())])
    }

    fn choose(&self, ctx: &PlacementCtx, candidates: &[Candidate]) -> Option<usize> {
        let bound = ctx.bound_core?;
        candidates.iter().position(|c| c.core == bound)
    }
}

/// Greedy affinity: the fastest feasible core for the fingerprint,
/// chosen fresh at every segment boundary; migration costs ignored.
#[derive(Debug, Clone, Copy, Default)]
pub struct AffinityGreedy;

impl SchedulerPolicy for AffinityGreedy {
    fn name(&self) -> &'static str {
        "affinity-greedy"
    }

    fn choose(&self, _ctx: &PlacementCtx, candidates: &[Candidate]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in candidates.iter().enumerate() {
            if best.is_none_or(|(_, b)| c.cpu < b) {
                best = Some((i, c.cpu));
            }
        }
        best.map(|(i, _)| i)
    }
}

/// Migration-aware EDP: choose the candidate minimizing the remaining
/// work's energy x delay inclusive of the migration's latency and
/// energy. A migration is taken exactly when its EDP gain over
/// staying put survives the amortized migration cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrationAware;

impl MigrationAware {
    /// The scoring function: remaining-work EDP inclusive of the
    /// migration cost. Exposed for FLEET.md's worked example.
    pub(crate) fn score(ctx: &PlacementCtx, c: &Candidate) -> f64 {
        let delay = ctx.remaining_work * c.cpu + c.mig_cycles;
        let mig_energy = c.mig_cycles / CLOCK_HZ * MIGRATION_POWER_FRACTION * c.peak_w;
        let energy = ctx.remaining_work * c.epu + mig_energy;
        energy * delay
    }
}

impl SchedulerPolicy for MigrationAware {
    fn name(&self) -> &'static str {
        "migration-aware"
    }

    fn choose(&self, ctx: &PlacementCtx, candidates: &[Candidate]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in candidates.iter().enumerate() {
            let s = Self::score(ctx, c);
            if best.is_none_or(|(_, b)| s < b) {
                best = Some((i, s));
            }
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cand(core: u32, cpu: f64, mig_cycles: f64) -> Candidate {
        Candidate {
            core,
            design: 0,
            peak_w: 10.0,
            cpu,
            epu: 1e-9,
            mig_class: (mig_cycles > 0.0).then_some(MigrationClass::Native),
            mig_cycles,
        }
    }

    #[test]
    fn static_random_only_takes_its_bound_core() {
        let p = StaticRandom;
        let mut rng = SmallRng::seed_from_u64(1);
        let bound = p.bind_on_arrival(&mut rng, &[3, 5, 9]).expect("bound");
        assert!([3, 5, 9].contains(&bound));
        let ctx = PlacementCtx {
            remaining_work: 10.0,
            bound_core: Some(5),
        };
        let cands = [cand(4, 1.0, 0.0), cand(5, 2.0, 0.0)];
        assert_eq!(p.choose(&ctx, &cands), Some(1));
        let cands = [cand(4, 1.0, 0.0)];
        assert_eq!(p.choose(&ctx, &cands), None, "waits for its core");
    }

    #[test]
    fn affinity_greedy_picks_fastest_ignoring_migration() {
        let p = AffinityGreedy;
        let ctx = PlacementCtx {
            remaining_work: 10.0,
            bound_core: None,
        };
        let cands = [cand(0, 2.0, 0.0), cand(1, 1.0, 1e9)];
        assert_eq!(p.choose(&ctx, &cands), Some(1), "migration cost ignored");
    }

    #[test]
    fn migration_aware_declines_unamortizable_migrations() {
        let p = MigrationAware;
        let ctx = PlacementCtx {
            remaining_work: 100.0,
            bound_core: None,
        };
        // Staying costs 100*2.0 = 200 cycles; moving to the 1.5x-faster
        // core costs 100*1.33 + 1e9 — never worth it.
        let cands = [cand(0, 2.0, 0.0), cand(1, 1.33, 1e9)];
        assert_eq!(p.choose(&ctx, &cands), Some(0));
        // With a cheap migration the faster core wins.
        let cands = [cand(0, 2.0, 0.0), cand(1, 1.33, 10.0)];
        assert_eq!(p.choose(&ctx, &cands), Some(1));
    }

    #[test]
    fn ties_break_to_the_first_candidate() {
        let p = AffinityGreedy;
        let ctx = PlacementCtx {
            remaining_work: 1.0,
            bound_core: None,
        };
        let cands = [cand(7, 1.0, 0.0), cand(8, 1.0, 0.0)];
        assert_eq!(p.choose(&ctx, &cands), Some(0));
    }
}
