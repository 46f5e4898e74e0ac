//! Acceptance tests for the fused single-pass probe: bit-identity
//! against the multi-pass reference implementation (case by case, and
//! for the whole grid through a pinned digest), a pinned digest of the
//! table filled from that grid, the bounded store-forwarding table
//! regression, and codegen-fingerprint dedup.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use cisa_compiler::{compile, CompileOptions};
use cisa_explore::cache::fnv1a;
use cisa_explore::profile::{probe_compiled, probe_compiled_reference};
use cisa_explore::{
    codegen_fingerprint, probes_run, DesignSpace, PerfTable, PhaseProfile, StoreForwardTable,
    SweepRunner,
};
use cisa_isa::uop::MicroOpKind;
use cisa_isa::{FeatureSet, VendorIsa};
use cisa_workloads::{all_phases, generate, PhaseSpec, TraceArena, TraceParams};

/// The global probe counter is process-wide; tests that measure deltas
/// must not run concurrently with other probing tests in this binary.
static PROBE_COUNTER: Mutex<()> = Mutex::new(());

fn compiled(spec: &PhaseSpec, fs: FeatureSet) -> cisa_compiler::CompiledCode {
    compile(&generate(spec), &fs, &CompileOptions::default()).unwrap()
}

fn phase(bench: &str) -> PhaseSpec {
    all_phases()
        .into_iter()
        .find(|p| p.benchmark == bench)
        .unwrap()
}

/// The tentpole contract: the fused single-pass probe is bit-identical
/// to the multi-pass reference across phases with very different
/// characters (pointer-chasing, irregular branches, vectorizable FP)
/// and across complexities/widths/predication. Because the perf table
/// is a deterministic function of the profiles, profile bit-identity
/// carries over to every table entry.
#[test]
fn fused_probe_is_bit_identical_to_reference() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let feature_sets: [FeatureSet; 3] = [
        FeatureSet::x86_64(),
        "microx86-16D-32W".parse().unwrap(),
        "x86-16D-64W-P".parse().unwrap(),
    ];
    for bench in ["mcf", "sjeng", "lbm", "hmmer"] {
        let spec = phase(bench);
        for fs in feature_sets {
            let code = compiled(&spec, fs);
            let fused = probe_compiled(&spec, &code);
            let reference = probe_compiled_reference(&spec, &code);
            assert_eq!(
                fused.to_values().map(f64::to_bits),
                reference.to_values().map(f64::to_bits),
                "{bench} on {fs}"
            );
        }
    }
}

/// FNV-1a digest of [`full_grid_matches_pinned_digest`]'s grid. It was
/// taken on code whose fused sweep was asserted bit-identical to the
/// multi-pass reference on all 1,274 pairs, so a match pins the whole
/// grid to the reference's bits.
const GRID_DIGEST: u64 = 0x67ac_d7c8_5540_82a3;

/// FNV-1a digest of [`full_table_matches_pinned_digest`]'s table. It
/// was taken on code whose batched fill was asserted bit-identical,
/// entry by entry, to one scalar `evaluate` call per design point, so
/// a match pins every entry to the model's bits.
const TABLE_DIGEST: u64 = 0x5f93_c40d_8935_a6be;

/// The full 49-phase x 26-feature-set grid from
/// [`SweepRunner::profile_grid`] (fused probe, codegen dedup), swept
/// once per test binary. Callers hold [`PROBE_COUNTER`].
fn full_grid() -> &'static [PhaseProfile] {
    static GRID: OnceLock<Vec<PhaseProfile>> = OnceLock::new();
    GRID.get_or_init(|| {
        let space = DesignSpace::new();
        SweepRunner::default().profile_grid(&all_phases(), &space.feature_sets)
    })
}

/// [`fnv1a`] over the little-endian bit patterns of `values`, in order.
fn fnv1a_bits(values: impl IntoIterator<Item = f64>) -> u64 {
    let bytes: Vec<u8> = values
        .into_iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// The full grid, hashed over every profile's `to_values()` bit
/// patterns, row-major. Any change to any probe measurement of any
/// pair moves the digest.
#[test]
fn full_grid_matches_pinned_digest() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let grid = full_grid();
    assert_eq!(grid.len(), 1274);
    let digest = fnv1a_bits(grid.iter().flat_map(|p| p.to_values()));
    assert_eq!(digest, GRID_DIGEST, "grid digest {digest:#018x}");
}

/// The table [`PerfTable::from_profile_grid`] fills from the full
/// grid, hashed over the cycle then energy bits of every composite
/// entry (`[phase][fs][ua]`) and then every vendor entry
/// (`[phase][vendor][ua]`). Any change to the interval or power model,
/// `vendor_adjust` or the fill moves the digest.
#[test]
fn full_table_matches_pinned_digest() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let phases = all_phases();
    let space = DesignSpace::new();
    let table = PerfTable::from_profile_grid(&space, &phases, full_grid());
    let n_ua = space.microarchs.len();
    let mut entries = Vec::new();
    for pi in 0..phases.len() {
        entries.extend(space.ids().map(|id| table.get(pi, id)));
    }
    for pi in 0..phases.len() {
        for v in VendorIsa::ALL {
            entries.extend((0..n_ua).map(|ua| table.vendor(pi, v, ua)));
        }
    }
    assert_eq!(entries.len(), 49 * (26 + 3) * 180);
    let digest = fnv1a_bits(
        entries
            .iter()
            .flat_map(|e| [e.cycles_per_unit, e.energy_per_unit]),
    );
    assert_eq!(digest, TABLE_DIGEST, "table digest {digest:#018x}");
}

/// Satellite regression: the bounded [`StoreForwardTable`] reproduces
/// the historical unbounded `HashMap` forwarding counts exactly, on
/// every one of the 49 phases compiled for `x86_64()`.
#[test]
fn bounded_forward_table_matches_hashmap_on_all_phases() {
    let params = TraceParams {
        max_uops: cisa_explore::PROBE_UOPS,
        seed: cisa_explore::PROBE_SEED,
    };
    let mut any_forwarding = false;
    for spec in all_phases() {
        let code = compiled(&spec, FeatureSet::x86_64());
        let mut last_store: HashMap<u64, usize> = HashMap::new();
        let mut table = StoreForwardTable::new();
        let mut map_fwd = 0u64;
        let mut table_fwd = 0u64;
        let arena = TraceArena::build(&code, &spec, params);
        for (i, (&kind, &addr)) in arena.kinds().iter().zip(arena.mem_addrs()).enumerate() {
            let line = addr & !7;
            match kind {
                MicroOpKind::Store => {
                    last_store.insert(line, i);
                    table.record_store(line, i);
                }
                MicroOpKind::Load => {
                    if matches!(last_store.get(&line), Some(&j) if i - j < 64) {
                        map_fwd += 1;
                    }
                    if table.forwards(line, i) {
                        table_fwd += 1;
                    }
                }
                _ => {}
            }
        }
        assert_eq!(table_fwd, map_fwd, "{}", spec.name());
        any_forwarding |= map_fwd > 0;
    }
    assert!(any_forwarding, "the suite must exercise forwarding");
}

/// Satellite: probe dedup. At least one phase compiles to byte-identical
/// code under multiple feature sets; for such a group the runner runs
/// exactly one probe, counts the rest as dedup hits, and hands every
/// member a profile bit-identical to an independent probe.
#[test]
fn codegen_dedup_collapses_identical_compilations() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let space = DesignSpace::new();
    let (spec, group) = all_phases()
        .into_iter()
        .find_map(|spec| {
            let mut by_fp: HashMap<u64, Vec<FeatureSet>> = HashMap::new();
            for fs in &space.feature_sets {
                by_fp
                    .entry(codegen_fingerprint(&compiled(&spec, *fs)))
                    .or_default()
                    .push(*fs);
            }
            let mut groups: Vec<Vec<FeatureSet>> =
                by_fp.into_values().filter(|g| g.len() >= 2).collect();
            groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
            groups.into_iter().next().map(|g| (spec, g))
        })
        .expect("some phase must collapse feature sets to one codegen fingerprint");
    assert!(group.len() >= 2);

    let runner = SweepRunner::new(2);
    let before = probes_run();
    let deduped: Vec<_> = group.iter().map(|fs| runner.probe(&spec, *fs)).collect();
    assert_eq!(
        probes_run() - before,
        1,
        "one probe for the whole fingerprint group"
    );
    assert_eq!(runner.dedup_hits(), group.len() as u64 - 1);

    for (fs, p) in group.iter().zip(&deduped) {
        let independent = probe_compiled(&spec, &compiled(&spec, *fs));
        assert_eq!(
            p.to_values().map(f64::to_bits),
            independent.to_values().map(f64::to_bits),
            "deduped profile for {fs} must match an independent probe"
        );
    }
}
