//! Bit-level golden digests of the fleet engine's shard results.
//!
//! Every [`ShardStats`] outcome field (floats by their bits, the
//! slowdown vector in completion order) is hashed with a hand-rolled
//! FNV-1a (stable across Rust versions, unlike `DefaultHasher`) and
//! compared against pinned digests. The cases sweep every policy,
//! three seeds, a moderate and a saturated load, a one-thread and an
//! eight-thread dispatch window, over the conservation suite's roster
//! and a tight-cap roster on which `cap_blocked` runs large. A change
//! to the event loop that is meant to be a pure speed-up must leave
//! every digest untouched.
//!
//! The work counters (`dispatch_iterations`, `candidates_priced`,
//! `policy_calls`) measure what the loop did, not what it computed, so
//! they stay out of the digests and are pinned as sums per roster and
//! policy instead: a speed-up is expected to move them, and a change
//! that does must re-pin them on purpose.

use std::sync::OnceLock;

use cisa_explore::{DesignId, DesignSpace, PerfTable, SweepRunner};
use cisa_fleet::{
    simulate_shard, AffinityGreedy, FleetConfig, FleetSpec, MigrationAware, MigrationMatrix,
    SchedulerPolicy, ShardStats, StaticRandom,
};
use cisa_isa::FeatureSet;
use cisa_workloads::all_phases;

/// The two rosters — the conservation suite's hetero/homo fleet
/// (`"mixed"`) and one chip design whose cap fits its largest core
/// with 5% to spare (`"tight"`) — and the migration matrix.
fn fixtures() -> &'static ([(&'static str, FleetSpec); 2], MigrationMatrix) {
    static CELL: OnceLock<([(&str, FleetSpec); 2], MigrationMatrix)> = OnceLock::new();
    CELL.get_or_init(|| {
        let space = DesignSpace::new();
        let phases: Vec<_> = all_phases().into_iter().filter(|p| p.index == 0).collect();
        let (table, _) = PerfTable::build(&space, &phases, &SweepRunner::default());
        let chip = |ids: [DesignId; 4], frac: f64, label: &str| {
            let sum: f64 = ids.iter().map(|id| space.budget(*id).1).sum();
            (ids, frac * sum, label.to_string())
        };
        let hetero = [
            DesignId { fs: 1, ua: 20 },
            DesignId { fs: 7, ua: 90 },
            DesignId { fs: 14, ua: 150 },
            DesignId { fs: 24, ua: 175 },
        ];
        let homo = [DesignId { fs: 9, ua: 60 }; 4];
        let mixed = FleetSpec::from_chips(
            &table,
            &space,
            &[chip(hetero, 0.75, "hetero"), chip(homo, 0.75, "homo")],
            12,
        );
        let max_peak = hetero
            .iter()
            .map(|id| space.budget(*id).1)
            .fold(0.0f64, f64::max);
        let tight = FleetSpec::from_chips(
            &table,
            &space,
            &[(hetero, max_peak * 1.05, "tight".to_string())],
            8,
        );
        let mm = MigrationMatrix::conservative(table.n_phases, &FeatureSet::all());
        ([("mixed", mixed), ("tight", tight)], mm)
    })
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

/// Folds every outcome field of one shard into `h`, and adds its work
/// counters to `work`. The destructuring is exhaustive, so a new
/// `ShardStats` field must be placed here.
fn hash_shard(h: &mut Fnv, work: &mut [u64; 3], s: &ShardStats) {
    let ShardStats {
        arrivals,
        completed,
        work_demanded,
        work_executed,
        service_scheduled,
        busy_cycles,
        energy_j,
        response_cycles,
        slowdowns,
        migrations,
        cap_blocked,
        makespan,
        max_cap_utilization,
        dispatch_iterations,
        candidates_priced,
        policy_calls,
    } = s;
    h.u64(*arrivals);
    h.u64(*completed);
    for x in [
        work_demanded,
        work_executed,
        service_scheduled,
        busy_cycles,
        energy_j,
        response_cycles,
    ] {
        h.f64(*x);
    }
    h.u64(slowdowns.len() as u64);
    for &x in slowdowns {
        h.f64(x);
    }
    for &m in migrations {
        h.u64(m);
    }
    h.u64(*cap_blocked);
    h.f64(*makespan);
    h.f64(*max_cap_utilization);
    for (w, v) in work
        .iter_mut()
        .zip([dispatch_iterations, candidates_priced, policy_calls])
    {
        *w += v;
    }
}

/// `(roster, policy, seed, utilization, dispatch_window, digest)`: the
/// digest of every shard of the run, in shard order.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64, f64, usize, u64)] = &[
    ("mixed", "static-random", 0x1, 0.55, 1, 0x1c73de83f2478071),
    ("mixed", "static-random", 0x1, 0.55, 8, 0xefa181e2f6b6a78d),
    ("mixed", "static-random", 0x1, 0.95, 1, 0xd1b9362eebad72f9),
    ("mixed", "static-random", 0x1, 0.95, 8, 0xe30849afcd0dc3e6),
    ("mixed", "static-random", 0xbeef, 0.55, 1, 0xebfcacfb33eb20c5),
    ("mixed", "static-random", 0xbeef, 0.55, 8, 0x965631afd55b5fdc),
    ("mixed", "static-random", 0xbeef, 0.95, 1, 0xaa2b34cb52f36728),
    ("mixed", "static-random", 0xbeef, 0.95, 8, 0xa1bc705660289e48),
    ("mixed", "static-random", 0x5eedcafe, 0.55, 1, 0x75d53af9efdc4bb0),
    ("mixed", "static-random", 0x5eedcafe, 0.55, 8, 0xfdff6f03e909a3a7),
    ("mixed", "static-random", 0x5eedcafe, 0.95, 1, 0x41b9322ab266c103),
    ("mixed", "static-random", 0x5eedcafe, 0.95, 8, 0x42021f942e2adcfd),
    ("mixed", "affinity-greedy", 0x1, 0.55, 1, 0x46f2f225969455f4),
    ("mixed", "affinity-greedy", 0x1, 0.55, 8, 0x2fb85cf07a04ab52),
    ("mixed", "affinity-greedy", 0x1, 0.95, 1, 0x1dd9439dddfbf7d0),
    ("mixed", "affinity-greedy", 0x1, 0.95, 8, 0x04053f11a313a171),
    ("mixed", "affinity-greedy", 0xbeef, 0.55, 1, 0xaad4bb5841a9d071),
    ("mixed", "affinity-greedy", 0xbeef, 0.55, 8, 0xd4bde84eb0f76691),
    ("mixed", "affinity-greedy", 0xbeef, 0.95, 1, 0xb60b854f16481e9a),
    ("mixed", "affinity-greedy", 0xbeef, 0.95, 8, 0x8cb17df4d326288e),
    ("mixed", "affinity-greedy", 0x5eedcafe, 0.55, 1, 0x2b669250d3bd9f1b),
    ("mixed", "affinity-greedy", 0x5eedcafe, 0.55, 8, 0x030fe3ab5cce7597),
    ("mixed", "affinity-greedy", 0x5eedcafe, 0.95, 1, 0xb45658e9e8871c89),
    ("mixed", "affinity-greedy", 0x5eedcafe, 0.95, 8, 0xd04df20cb37e1af4),
    ("mixed", "migration-aware", 0x1, 0.55, 1, 0x29877ab91d34b3fd),
    ("mixed", "migration-aware", 0x1, 0.55, 8, 0x05012c5ccb994f99),
    ("mixed", "migration-aware", 0x1, 0.95, 1, 0x1b9db9f6fc19b12c),
    ("mixed", "migration-aware", 0x1, 0.95, 8, 0x475b6d95dfc5378c),
    ("mixed", "migration-aware", 0xbeef, 0.55, 1, 0x2d40ec0125e8963a),
    ("mixed", "migration-aware", 0xbeef, 0.55, 8, 0x5181c8fe82df54ce),
    ("mixed", "migration-aware", 0xbeef, 0.95, 1, 0xadd144e8f1d8696c),
    ("mixed", "migration-aware", 0xbeef, 0.95, 8, 0x513d8865b6266367),
    ("mixed", "migration-aware", 0x5eedcafe, 0.55, 1, 0xd6a2d7f2b0082821),
    ("mixed", "migration-aware", 0x5eedcafe, 0.55, 8, 0xb6138ff9354ca4d7),
    ("mixed", "migration-aware", 0x5eedcafe, 0.95, 1, 0xa14e9d3ce780bf45),
    ("mixed", "migration-aware", 0x5eedcafe, 0.95, 8, 0xd64d7573e90ec0bb),
    ("tight", "static-random", 0x1, 0.55, 1, 0x67092f7f8927bb7e),
    ("tight", "static-random", 0x1, 0.55, 8, 0xae7b1a03c19f27d8),
    ("tight", "static-random", 0x1, 0.95, 1, 0xe7d2213377915056),
    ("tight", "static-random", 0x1, 0.95, 8, 0x8374e4f94a763d3e),
    ("tight", "static-random", 0xbeef, 0.55, 1, 0x6d187b8a78772e96),
    ("tight", "static-random", 0xbeef, 0.55, 8, 0xfd4a38d55ba8d9c4),
    ("tight", "static-random", 0xbeef, 0.95, 1, 0x53eaa133af9ebbb7),
    ("tight", "static-random", 0xbeef, 0.95, 8, 0x185b748e9bfce0e1),
    ("tight", "static-random", 0x5eedcafe, 0.55, 1, 0x023df8682241c863),
    ("tight", "static-random", 0x5eedcafe, 0.55, 8, 0xa849960e3ebda162),
    ("tight", "static-random", 0x5eedcafe, 0.95, 1, 0xff27d245cea135e0),
    ("tight", "static-random", 0x5eedcafe, 0.95, 8, 0xf864a2987f4cb729),
    ("tight", "affinity-greedy", 0x1, 0.55, 1, 0xfa9229eb511ea773),
    ("tight", "affinity-greedy", 0x1, 0.55, 8, 0x67e94ccc8cd15810),
    ("tight", "affinity-greedy", 0x1, 0.95, 1, 0xf07308ee04a6c2b4),
    ("tight", "affinity-greedy", 0x1, 0.95, 8, 0xc1717639b4d2d098),
    ("tight", "affinity-greedy", 0xbeef, 0.55, 1, 0x5eba37d84475950c),
    ("tight", "affinity-greedy", 0xbeef, 0.55, 8, 0x84b9f933ec39a22c),
    ("tight", "affinity-greedy", 0xbeef, 0.95, 1, 0x7ce3978dc9e01d20),
    ("tight", "affinity-greedy", 0xbeef, 0.95, 8, 0x8917bde435e85bd3),
    ("tight", "affinity-greedy", 0x5eedcafe, 0.55, 1, 0x8d8e1217d5868887),
    ("tight", "affinity-greedy", 0x5eedcafe, 0.55, 8, 0x979ed0fd04b90f4c),
    ("tight", "affinity-greedy", 0x5eedcafe, 0.95, 1, 0x0d506799fd70775c),
    ("tight", "affinity-greedy", 0x5eedcafe, 0.95, 8, 0x890113a2e7f17a99),
    ("tight", "migration-aware", 0x1, 0.55, 1, 0xf5b77922496c47bf),
    ("tight", "migration-aware", 0x1, 0.55, 8, 0x98b7285836eba499),
    ("tight", "migration-aware", 0x1, 0.95, 1, 0xcce959d70aa2a5ef),
    ("tight", "migration-aware", 0x1, 0.95, 8, 0x7b9b8d251173c1a3),
    ("tight", "migration-aware", 0xbeef, 0.55, 1, 0x1fb090da77d35520),
    ("tight", "migration-aware", 0xbeef, 0.55, 8, 0x2d9d94fd370de1e9),
    ("tight", "migration-aware", 0xbeef, 0.95, 1, 0x8afbde2a5ded3e8c),
    ("tight", "migration-aware", 0xbeef, 0.95, 8, 0x59dd5030eacd82f2),
    ("tight", "migration-aware", 0x5eedcafe, 0.55, 1, 0x71d50b9a86756411),
    ("tight", "migration-aware", 0x5eedcafe, 0.55, 8, 0xf0d935b21811a2f6),
    ("tight", "migration-aware", 0x5eedcafe, 0.95, 1, 0x2c1b89c35cb8c296),
    ("tight", "migration-aware", 0x5eedcafe, 0.95, 8, 0xa4867a3331885403),
];

/// `(roster, policy, [dispatch_iterations, candidates_priced,
/// policy_calls])`, summed over every case of the roster and policy.
const WORK: &[(&str, &str, [u64; 3])] = &[
    ("mixed", "static-random", [104660, 44652, 44652]),
    ("mixed", "affinity-greedy", [60090, 264860, 44652]),
    ("mixed", "migration-aware", [59760, 261390, 44652]),
    ("tight", "static-random", [101190, 44652, 44652]),
    ("tight", "affinity-greedy", [72776, 223336, 44652]),
    ("tight", "migration-aware", [54966, 194308, 44652]),
];

const POLICIES: [&dyn SchedulerPolicy; 3] = [&StaticRandom, &AffinityGreedy, &MigrationAware];

#[test]
fn shard_stats_match_the_pinned_digests() {
    let (rosters, mm) = fixtures();
    let mut digests = Vec::new();
    let mut work = Vec::new();
    for (roster, spec) in rosters {
        for policy in POLICIES {
            let mut counts = [0u64; 3];
            for seed in [1u64, 0xBEEF, 0x5EED_CAFE] {
                for utilization in [0.55, 0.95] {
                    for dispatch_window in [1usize, 8] {
                        let cfg = FleetConfig {
                            seed,
                            n_threads: 1_500,
                            n_shards: 4,
                            utilization,
                            dispatch_window,
                            ..Default::default()
                        };
                        let n_shards = cfg.effective_shards(spec);
                        let mut h = Fnv::new();
                        for shard in 0..n_shards {
                            let s = simulate_shard(spec, mm, policy, &cfg, shard, n_shards);
                            hash_shard(&mut h, &mut counts, &s);
                        }
                        digests.push((
                            *roster,
                            policy.name(),
                            seed,
                            utilization,
                            dispatch_window,
                            h.0,
                        ));
                    }
                }
            }
            work.push((*roster, policy.name(), counts));
        }
    }
    let table: Vec<String> = digests
        .iter()
        .map(|(r, p, s, u, w, d)| format!("    ({r:?}, {p:?}, {s:#x}, {u}, {w}, {d:#018x}),"))
        .collect();
    assert!(
        digests == GOLDEN,
        "digests drifted; this run:\n{}",
        table.join("\n")
    );
    let table: Vec<String> = work
        .iter()
        .map(|(r, p, c)| format!("    ({r:?}, {p:?}, {c:?}),"))
        .collect();
    assert!(
        work == WORK,
        "work counters drifted; this run:\n{}",
        table.join("\n")
    );
    // A bound thread is offered its bound core alone.
    for (_, policy, [_, priced, calls]) in &work {
        if *policy == "static-random" {
            assert_eq!(priced, calls, "one candidate per static-random call");
        }
    }
}
