//! The eight benchmark models and their 49 phases.
//!
//! SPEC CPU2006 binaries and inputs are proprietary, so each benchmark
//! is a *synthetic characteristic model*: a parameter block that drives
//! the IR generator to produce code with the properties the paper
//! attributes to its namesake (Section VII-C):
//!
//! - **hmmer** — extreme register pressure (consistently compiled to use
//!   all 64 registers), heavy complex addressing, seldom predicated;
//! - **bzip2** — one high-pressure phase (depth 64), the remaining seven
//!   typically depth 32;
//! - **lbm** — low register pressure (depth 16 suffices), FP/streaming;
//! - **sjeng / gobmk** — irregular branch activity (indirect branches,
//!   function-pointer calls) preferring full predication, sjeng prefers
//!   x86's complex addressing when register-constrained;
//! - **milc** — predication profitable in four of six regions;
//! - **mcf** — memory-bound pointer chasing, favours x86 addressing;
//! - **libquantum** — streaming/vector loops.
//!
//! The phase counts sum to the paper's **49** SimPoint regions.

// Phase tables keep parallel structure like `1 * MB` next to `256 * KB`.
#![allow(clippy::identity_op)]

/// Memory-locality profile of a phase: how its working set interacts
/// with the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityProfile {
    /// Bytes of randomly accessed working set (drives L1/L2 hit rates).
    pub working_set_bytes: u64,
    /// Bytes of sequentially streamed data.
    pub stream_bytes: u64,
    /// Fraction of non-stack memory accesses that pointer-chase.
    pub pointer_chase_fraction: f64,
}

/// The dominant temporal structure of a phase's data-dependent branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchStyle {
    /// Mostly loop-bound, highly predictable.
    Regular,
    /// Short repeating patterns (periodic).
    Patterned,
    /// Irregular, data-dependent (sjeng/gobmk-like).
    Irregular,
}

/// Characteristic parameters of one benchmark phase. The IR generator
/// consumes these; every field is a knob the paper's analysis turns.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Owning benchmark.
    pub benchmark: &'static str,
    /// Phase index within the benchmark.
    pub index: u32,
    /// Generation seed (deterministic per phase).
    pub seed: u64,
    /// Simultaneously live scalar values in the hot region: the direct
    /// driver of register pressure.
    pub register_pressure: u32,
    /// Fraction of hot-loop bodies that are data-dependent diamonds or
    /// triangles (if-conversion candidates).
    pub branchiness: f64,
    /// Branch temporal structure.
    pub branch_style: BranchStyle,
    /// Fraction of operations that touch memory.
    pub mem_intensity: f64,
    /// Locality profile.
    pub locality: LocalityProfile,
    /// Fraction of compute that is floating point.
    pub fp_fraction: f64,
    /// Fraction of hot-loop weight in vectorizable (SSE2) loops.
    pub vector_fraction: f64,
    /// Fraction of integer data that is 64-bit (pays double-pumping on
    /// 32-bit cores).
    pub wide_fraction: f64,
    /// Mean trip count of the hot loops.
    pub loop_trip: u32,
    /// Independent dependency chains in the hot region (ILP).
    pub ilp_chains: u32,
}

impl PhaseSpec {
    /// Stable phase name, `benchmark.pN`.
    pub fn name(&self) -> String {
        format!("{}.p{}", self.benchmark, self.index)
    }

    /// A stable textual fingerprint of every generation parameter.
    ///
    /// Two specs with equal fingerprints generate identical IR (the
    /// generator is a pure function of these fields), so content-hash
    /// caches key probe results on this string. Floats are rendered
    /// through their exact bit patterns to avoid any formatting
    /// ambiguity.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}.p{} seed={:#x} rp={} br={:x}/{:?} mem={:x} ws={} st={} pc={:x} \
             fp={:x} vec={:x} wide={:x} trip={} ilp={}",
            self.benchmark,
            self.index,
            self.seed,
            self.register_pressure,
            self.branchiness.to_bits(),
            self.branch_style,
            self.mem_intensity.to_bits(),
            self.locality.working_set_bytes,
            self.locality.stream_bytes,
            self.locality.pointer_chase_fraction.to_bits(),
            self.fp_fraction.to_bits(),
            self.vector_fraction.to_bits(),
            self.wide_fraction.to_bits(),
            self.loop_trip,
            self.ilp_chains,
        )
    }
}

/// A benchmark: a name and its phases.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// SPEC-style name.
    pub name: &'static str,
    /// Phases (SimPoint regions).
    pub phases: Vec<PhaseSpec>,
}

/// KB/MB helpers.
const KB: u64 = 1024;
const MB: u64 = 1024 * KB;

#[allow(clippy::too_many_arguments)]
fn phase(
    benchmark: &'static str,
    index: u32,
    register_pressure: u32,
    branchiness: f64,
    branch_style: BranchStyle,
    mem_intensity: f64,
    locality: LocalityProfile,
    fp_fraction: f64,
    vector_fraction: f64,
    wide_fraction: f64,
    loop_trip: u32,
    ilp_chains: u32,
) -> PhaseSpec {
    // Deterministic seed: stable across runs and machines.
    let mut seed = 0xC0FFEE_u64;
    for b in benchmark.bytes() {
        seed = seed.wrapping_mul(0x100000001B3).wrapping_add(b as u64);
    }
    PhaseSpec {
        benchmark,
        index,
        seed: seed.wrapping_add((index as u64).wrapping_mul(0x9E3779B97F4A7C15)),
        register_pressure,
        branchiness,
        branch_style,
        mem_intensity,
        locality,
        fp_fraction,
        vector_fraction,
        wide_fraction,
        loop_trip,
        ilp_chains,
    }
}

/// The eight benchmarks with 49 phases in total.
pub fn all_benchmarks() -> Vec<Benchmark> {
    let ws = |w: u64, s: u64, p: f64| LocalityProfile {
        working_set_bytes: w,
        stream_bytes: s,
        pointer_chase_fraction: p,
    };

    vec![
        // bzip2: 8 phases. Mixed integer compression; one high-pressure
        // phase (compiled at depth 64 in the paper), the rest ~depth 32.
        Benchmark {
            name: "bzip2",
            phases: vec![
                phase(
                    "bzip2",
                    0,
                    8,
                    0.30,
                    BranchStyle::Patterned,
                    0.32,
                    ws(256 * KB, 1 * MB, 0.0),
                    0.02,
                    0.00,
                    0.10,
                    180,
                    3,
                ),
                phase(
                    "bzip2",
                    1,
                    18,
                    0.22,
                    BranchStyle::Patterned,
                    0.30,
                    ws(512 * KB, 2 * MB, 0.0),
                    0.02,
                    0.00,
                    0.10,
                    220,
                    3,
                ),
                phase(
                    "bzip2",
                    2,
                    6,
                    0.34,
                    BranchStyle::Irregular,
                    0.33,
                    ws(128 * KB, 1 * MB, 0.0),
                    0.02,
                    0.00,
                    0.08,
                    150,
                    2,
                ),
                phase(
                    "bzip2",
                    3,
                    5,
                    0.28,
                    BranchStyle::Patterned,
                    0.35,
                    ws(256 * KB, 2 * MB, 0.0),
                    0.02,
                    0.00,
                    0.10,
                    200,
                    3,
                ),
                phase(
                    "bzip2",
                    4,
                    9,
                    0.25,
                    BranchStyle::Regular,
                    0.30,
                    ws(64 * KB, 4 * MB, 0.0),
                    0.02,
                    0.00,
                    0.12,
                    400,
                    4,
                ),
                phase(
                    "bzip2",
                    5,
                    7,
                    0.30,
                    BranchStyle::Patterned,
                    0.31,
                    ws(256 * KB, 1 * MB, 0.0),
                    0.02,
                    0.00,
                    0.10,
                    180,
                    3,
                ),
                phase(
                    "bzip2",
                    6,
                    6,
                    0.36,
                    BranchStyle::Irregular,
                    0.28,
                    ws(128 * KB, 512 * KB, 0.0),
                    0.02,
                    0.00,
                    0.08,
                    120,
                    2,
                ),
                phase(
                    "bzip2",
                    7,
                    8,
                    0.27,
                    BranchStyle::Patterned,
                    0.33,
                    ws(256 * KB, 2 * MB, 0.0),
                    0.02,
                    0.00,
                    0.10,
                    240,
                    3,
                ),
            ],
        },
        // gobmk: 7 phases. Go engine: irregular branches, shallow loops.
        Benchmark {
            name: "gobmk",
            phases: vec![
                phase(
                    "gobmk",
                    0,
                    6,
                    0.55,
                    BranchStyle::Irregular,
                    0.28,
                    ws(512 * KB, 128 * KB, 0.04),
                    0.01,
                    0.00,
                    0.12,
                    24,
                    2,
                ),
                phase(
                    "gobmk",
                    1,
                    7,
                    0.60,
                    BranchStyle::Irregular,
                    0.26,
                    ws(1 * MB, 128 * KB, 0.04),
                    0.01,
                    0.00,
                    0.12,
                    18,
                    2,
                ),
                phase(
                    "gobmk",
                    2,
                    5,
                    0.52,
                    BranchStyle::Irregular,
                    0.30,
                    ws(256 * KB, 256 * KB, 0.04),
                    0.01,
                    0.00,
                    0.10,
                    30,
                    2,
                ),
                phase(
                    "gobmk",
                    3,
                    6,
                    0.58,
                    BranchStyle::Irregular,
                    0.27,
                    ws(512 * KB, 128 * KB, 0.04),
                    0.01,
                    0.00,
                    0.12,
                    20,
                    2,
                ),
                phase(
                    "gobmk",
                    4,
                    5,
                    0.48,
                    BranchStyle::Patterned,
                    0.29,
                    ws(256 * KB, 256 * KB, 0.04),
                    0.01,
                    0.00,
                    0.10,
                    40,
                    3,
                ),
                phase(
                    "gobmk",
                    5,
                    8,
                    0.62,
                    BranchStyle::Irregular,
                    0.25,
                    ws(1 * MB, 64 * KB, 0.04),
                    0.01,
                    0.00,
                    0.12,
                    16,
                    2,
                ),
                phase(
                    "gobmk",
                    6,
                    6,
                    0.54,
                    BranchStyle::Irregular,
                    0.28,
                    ws(512 * KB, 128 * KB, 0.04),
                    0.01,
                    0.00,
                    0.10,
                    25,
                    2,
                ),
            ],
        },
        // hmmer: 5 phases. Profile HMM search: extreme register
        // pressure, dense integer/addressing work, regular branches.
        Benchmark {
            name: "hmmer",
            phases: vec![
                phase(
                    "hmmer",
                    0,
                    24,
                    0.12,
                    BranchStyle::Regular,
                    0.34,
                    ws(64 * KB, 2 * MB, 0.0),
                    0.05,
                    0.05,
                    0.15,
                    500,
                    6,
                ),
                phase(
                    "hmmer",
                    1,
                    28,
                    0.10,
                    BranchStyle::Regular,
                    0.35,
                    ws(64 * KB, 2 * MB, 0.0),
                    0.05,
                    0.05,
                    0.15,
                    600,
                    6,
                ),
                phase(
                    "hmmer",
                    2,
                    22,
                    0.12,
                    BranchStyle::Regular,
                    0.33,
                    ws(128 * KB, 1 * MB, 0.0),
                    0.05,
                    0.05,
                    0.15,
                    450,
                    5,
                ),
                phase(
                    "hmmer",
                    3,
                    26,
                    0.11,
                    BranchStyle::Regular,
                    0.34,
                    ws(64 * KB, 2 * MB, 0.0),
                    0.05,
                    0.05,
                    0.15,
                    550,
                    6,
                ),
                phase(
                    "hmmer",
                    4,
                    23,
                    0.13,
                    BranchStyle::Regular,
                    0.33,
                    ws(128 * KB, 1 * MB, 0.0),
                    0.05,
                    0.05,
                    0.15,
                    480,
                    5,
                ),
            ],
        },
        // lbm: 4 phases. Lattice-Boltzmann: FP streaming, low pressure.
        Benchmark {
            name: "lbm",
            phases: vec![
                phase(
                    "lbm",
                    0,
                    4,
                    0.06,
                    BranchStyle::Regular,
                    0.42,
                    ws(32 * KB, 16 * MB, 0.0),
                    0.70,
                    0.55,
                    0.30,
                    1000,
                    4,
                ),
                phase(
                    "lbm",
                    1,
                    5,
                    0.05,
                    BranchStyle::Regular,
                    0.44,
                    ws(32 * KB, 16 * MB, 0.0),
                    0.72,
                    0.60,
                    0.30,
                    1200,
                    4,
                ),
                phase(
                    "lbm",
                    2,
                    4,
                    0.06,
                    BranchStyle::Regular,
                    0.40,
                    ws(64 * KB, 8 * MB, 0.0),
                    0.68,
                    0.50,
                    0.30,
                    900,
                    4,
                ),
                phase(
                    "lbm",
                    3,
                    4,
                    0.05,
                    BranchStyle::Regular,
                    0.43,
                    ws(32 * KB, 16 * MB, 0.0),
                    0.70,
                    0.55,
                    0.30,
                    1100,
                    4,
                ),
            ],
        },
        // libquantum: 5 phases. Quantum simulation: streaming over a
        // large state vector, highly vectorizable, simple control.
        Benchmark {
            name: "libquantum",
            phases: vec![
                phase(
                    "libquantum",
                    0,
                    5,
                    0.10,
                    BranchStyle::Regular,
                    0.40,
                    ws(16 * KB, 32 * MB, 0.0),
                    0.30,
                    0.65,
                    0.45,
                    2000,
                    4,
                ),
                phase(
                    "libquantum",
                    1,
                    6,
                    0.08,
                    BranchStyle::Regular,
                    0.42,
                    ws(16 * KB, 32 * MB, 0.0),
                    0.28,
                    0.70,
                    0.45,
                    2500,
                    4,
                ),
                phase(
                    "libquantum",
                    2,
                    5,
                    0.12,
                    BranchStyle::Patterned,
                    0.38,
                    ws(32 * KB, 16 * MB, 0.0),
                    0.30,
                    0.55,
                    0.40,
                    1500,
                    3,
                ),
                phase(
                    "libquantum",
                    3,
                    6,
                    0.09,
                    BranchStyle::Regular,
                    0.41,
                    ws(16 * KB, 32 * MB, 0.0),
                    0.30,
                    0.65,
                    0.45,
                    2200,
                    4,
                ),
                phase(
                    "libquantum",
                    4,
                    5,
                    0.10,
                    BranchStyle::Regular,
                    0.40,
                    ws(16 * KB, 24 * MB, 0.0),
                    0.28,
                    0.60,
                    0.40,
                    1800,
                    4,
                ),
            ],
        },
        // mcf: 6 phases. Network simplex: pointer chasing, memory-bound.
        Benchmark {
            name: "mcf",
            phases: vec![
                phase(
                    "mcf",
                    0,
                    5,
                    0.35,
                    BranchStyle::Patterned,
                    0.46,
                    ws(8 * MB, 256 * KB, 0.7),
                    0.01,
                    0.00,
                    0.40,
                    60,
                    1,
                ),
                phase(
                    "mcf",
                    1,
                    6,
                    0.32,
                    BranchStyle::Patterned,
                    0.48,
                    ws(16 * MB, 256 * KB, 0.8),
                    0.01,
                    0.00,
                    0.40,
                    50,
                    1,
                ),
                phase(
                    "mcf",
                    2,
                    5,
                    0.38,
                    BranchStyle::Irregular,
                    0.44,
                    ws(8 * MB, 128 * KB, 0.7),
                    0.01,
                    0.00,
                    0.35,
                    40,
                    1,
                ),
                phase(
                    "mcf",
                    3,
                    6,
                    0.33,
                    BranchStyle::Patterned,
                    0.47,
                    ws(16 * MB, 256 * KB, 0.8),
                    0.01,
                    0.00,
                    0.40,
                    55,
                    1,
                ),
                phase(
                    "mcf",
                    4,
                    5,
                    0.36,
                    BranchStyle::Patterned,
                    0.45,
                    ws(4 * MB, 512 * KB, 0.6),
                    0.01,
                    0.00,
                    0.35,
                    70,
                    2,
                ),
                phase(
                    "mcf",
                    5,
                    6,
                    0.34,
                    BranchStyle::Irregular,
                    0.46,
                    ws(8 * MB, 256 * KB, 0.7),
                    0.01,
                    0.00,
                    0.40,
                    45,
                    1,
                ),
            ],
        },
        // milc: 6 phases. Lattice QCD: FP, predication-friendly in four
        // of the six regions (the paper's observation).
        Benchmark {
            name: "milc",
            phases: vec![
                phase(
                    "milc",
                    0,
                    7,
                    0.40,
                    BranchStyle::Irregular,
                    0.38,
                    ws(256 * KB, 8 * MB, 0.0),
                    0.55,
                    0.35,
                    0.25,
                    300,
                    3,
                ),
                phase(
                    "milc",
                    1,
                    8,
                    0.42,
                    BranchStyle::Irregular,
                    0.36,
                    ws(256 * KB, 8 * MB, 0.0),
                    0.55,
                    0.30,
                    0.25,
                    280,
                    3,
                ),
                phase(
                    "milc",
                    2,
                    6,
                    0.12,
                    BranchStyle::Regular,
                    0.40,
                    ws(128 * KB, 16 * MB, 0.0),
                    0.60,
                    0.50,
                    0.25,
                    800,
                    4,
                ),
                phase(
                    "milc",
                    3,
                    7,
                    0.44,
                    BranchStyle::Irregular,
                    0.37,
                    ws(256 * KB, 8 * MB, 0.0),
                    0.52,
                    0.30,
                    0.25,
                    260,
                    3,
                ),
                phase(
                    "milc",
                    4,
                    6,
                    0.10,
                    BranchStyle::Regular,
                    0.41,
                    ws(128 * KB, 16 * MB, 0.0),
                    0.58,
                    0.55,
                    0.25,
                    900,
                    4,
                ),
                phase(
                    "milc",
                    5,
                    7,
                    0.41,
                    BranchStyle::Irregular,
                    0.38,
                    ws(256 * KB, 8 * MB, 0.0),
                    0.55,
                    0.35,
                    0.25,
                    300,
                    3,
                ),
            ],
        },
        // sjeng: 8 phases. Chess search: very irregular branches,
        // register-constrained with heavy addressing (prefers x86 when
        // below 32 registers).
        Benchmark {
            name: "sjeng",
            phases: vec![
                phase(
                    "sjeng",
                    0,
                    8,
                    0.58,
                    BranchStyle::Irregular,
                    0.30,
                    ws(1 * MB, 128 * KB, 0.06),
                    0.01,
                    0.00,
                    0.20,
                    14,
                    2,
                ),
                phase(
                    "sjeng",
                    1,
                    10,
                    0.62,
                    BranchStyle::Irregular,
                    0.28,
                    ws(2 * MB, 128 * KB, 0.06),
                    0.01,
                    0.00,
                    0.20,
                    12,
                    2,
                ),
                phase(
                    "sjeng",
                    2,
                    7,
                    0.55,
                    BranchStyle::Irregular,
                    0.32,
                    ws(1 * MB, 256 * KB, 0.06),
                    0.01,
                    0.00,
                    0.18,
                    18,
                    2,
                ),
                phase(
                    "sjeng",
                    3,
                    9,
                    0.60,
                    BranchStyle::Irregular,
                    0.29,
                    ws(2 * MB, 128 * KB, 0.06),
                    0.01,
                    0.00,
                    0.20,
                    13,
                    2,
                ),
                phase(
                    "sjeng",
                    4,
                    8,
                    0.57,
                    BranchStyle::Irregular,
                    0.31,
                    ws(1 * MB, 128 * KB, 0.06),
                    0.01,
                    0.00,
                    0.18,
                    15,
                    2,
                ),
                phase(
                    "sjeng",
                    5,
                    9,
                    0.63,
                    BranchStyle::Irregular,
                    0.27,
                    ws(2 * MB, 64 * KB, 0.06),
                    0.01,
                    0.00,
                    0.20,
                    11,
                    2,
                ),
                phase(
                    "sjeng",
                    6,
                    7,
                    0.54,
                    BranchStyle::Patterned,
                    0.32,
                    ws(512 * KB, 256 * KB, 0.06),
                    0.01,
                    0.00,
                    0.18,
                    20,
                    3,
                ),
                phase(
                    "sjeng",
                    7,
                    9,
                    0.59,
                    BranchStyle::Irregular,
                    0.29,
                    ws(2 * MB, 128 * KB, 0.06),
                    0.01,
                    0.00,
                    0.20,
                    13,
                    2,
                ),
            ],
        },
    ]
}

/// Flattens all benchmarks into their 49 phases.
pub fn all_phases() -> Vec<PhaseSpec> {
    all_benchmarks()
        .into_iter()
        .flat_map(|b| b.phases)
        .collect()
}

/// Looks up one benchmark by name.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forty_nine_phases_total() {
        assert_eq!(all_phases().len(), 49, "the paper's 49 SimPoint regions");
    }

    #[test]
    fn eight_benchmarks() {
        let b = all_benchmarks();
        assert_eq!(b.len(), 8);
        let names: Vec<_> = b.iter().map(|x| x.name).collect();
        assert_eq!(
            names,
            vec![
                "bzip2",
                "gobmk",
                "hmmer",
                "lbm",
                "libquantum",
                "mcf",
                "milc",
                "sjeng"
            ]
        );
    }

    #[test]
    fn seeds_are_unique_and_deterministic() {
        let phases = all_phases();
        let mut seeds: Vec<u64> = phases.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 49, "every phase has a distinct seed");
        assert_eq!(all_phases(), phases, "regeneration is deterministic");
    }

    #[test]
    fn hmmer_has_the_highest_register_pressure() {
        let phases = all_phases();
        let hmmer_min = phases
            .iter()
            .filter(|p| p.benchmark == "hmmer")
            .map(|p| p.register_pressure)
            .min()
            .unwrap();
        let others_max = phases
            .iter()
            .filter(|p| p.benchmark != "hmmer")
            .map(|p| p.register_pressure)
            .max()
            .unwrap();
        assert!(hmmer_min > others_max, "hmmer needs depth 64");
    }

    #[test]
    fn lbm_has_low_pressure_and_high_fp() {
        for p in all_phases().iter().filter(|p| p.benchmark == "lbm") {
            assert!(p.register_pressure <= 13, "lbm prefers depth 16");
            assert!(p.fp_fraction > 0.5);
            assert!(p.vector_fraction > 0.3);
        }
    }

    #[test]
    fn mcf_is_pointer_chasing() {
        for p in all_phases().iter().filter(|p| p.benchmark == "mcf") {
            assert!(p.locality.pointer_chase_fraction >= 0.5);
        }
    }

    #[test]
    fn sjeng_and_gobmk_are_branchy() {
        for p in all_phases()
            .iter()
            .filter(|p| p.benchmark == "sjeng" || p.benchmark == "gobmk")
        {
            assert!(p.branchiness > 0.4, "{} must be branchy", p.name());
        }
    }

    #[test]
    fn milc_predication_split_matches_paper() {
        // Four of six milc regions should look predication-friendly
        // (irregular + branchy); two regular regions should not.
        let friendly = all_phases()
            .iter()
            .filter(|p| p.benchmark == "milc")
            .filter(|p| p.branch_style == BranchStyle::Irregular && p.branchiness > 0.3)
            .count();
        assert_eq!(friendly, 4);
    }

    #[test]
    fn phase_names_are_stable() {
        let p = &all_phases()[0];
        assert_eq!(p.name(), "bzip2.p0");
    }

    #[test]
    fn benchmark_lookup() {
        assert!(benchmark("hmmer").is_some());
        assert!(benchmark("nginx").is_none());
        assert_eq!(benchmark("bzip2").unwrap().phases.len(), 8);
    }
}
