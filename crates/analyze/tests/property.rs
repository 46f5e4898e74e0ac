//! Seeded property tests for the static analyzer.
//!
//! Two properties, each swept from a fixed [`SmallRng`] seed so runs
//! are deterministic across machines:
//!
//! 1. **Inclusion**: for any compiled phase, the statically-recovered
//!    minimal feature set is covered by the set the compiler selected —
//!    the analyzer never claims the code needs something the encoder
//!    did not legally emit.
//! 2. **Totality**: `analyze` never panics and always terminates, on
//!    byte soup, on long legacy-prefix runs, or on real images corrupted
//!    by flips, truncations, and splices; malformed input degrades to
//!    findings plus conservative facts.

use cisa_analyze::{analyze, check_against_compile, lay_out};
use cisa_compiler::{compile, CompileOptions};
use cisa_isa::FeatureSet;
use cisa_workloads::{all_phases, generate};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn static_minimal_features_within_compiled_selection() {
    let mut rng = SmallRng::seed_from_u64(0xC15A_0901);
    let phases = all_phases();
    let feature_sets = FeatureSet::all();
    let options = CompileOptions::default();
    for _ in 0..48 {
        let spec = &phases[rng.gen_range(0..phases.len())];
        let fs = feature_sets[rng.gen_range(0..feature_sets.len())];
        let code = compile(&generate(spec), &fs, &options).expect("phase compiles");
        let image = lay_out(&code).expect("layout");
        let a = analyze(&image.bytes);
        assert!(
            a.decoded,
            "{}/{fs}: compiled image must decode",
            spec.name()
        );
        assert!(
            a.errors().next().is_none(),
            "{}/{fs}: {:?}",
            spec.name(),
            a.errors().next()
        );
        let min = a.minimal_fs.expect("decoded");
        assert!(
            fs.covers(&min),
            "{}/{fs}: static minimal {min} not covered",
            spec.name()
        );
        assert!(check_against_compile(&a, &fs).is_empty());
        // lo under-approximates hi by construction.
        assert!(a.hi.depth >= a.lo.depth);
        assert!(a.hi.memop || !a.lo.memop);
    }
}

fn check_coherent(bytes: &[u8]) {
    let a = analyze(bytes);
    if !a.decoded {
        assert!(a.findings.iter().any(|f| f.rule == "stream-undecodable"));
        assert!(a.minimal_fs.is_none());
        assert!(a.points.points.is_empty());
        return;
    }
    // Point offsets are block starts: strictly increasing, in range,
    // entry first whenever any point exists.
    let offsets: Vec<usize> = a.points.points.iter().map(|p| p.offset).collect();
    assert!(offsets.windows(2).all(|w| w[0] < w[1]), "{offsets:?}");
    assert!(offsets.iter().all(|&o| o < bytes.len().max(1)));
    if let Some(&first) = offsets.first() {
        assert_eq!(first, 0, "entry block is always reachable");
    }
    if a.cfg.escaping {
        assert!(a.points.points.is_empty(), "escaping CFGs claim nothing");
    }
}

#[test]
fn analyze_is_total_on_corrupted_streams() {
    let mut rng = SmallRng::seed_from_u64(0xC15A_0902);
    let phases = all_phases();
    let feature_sets = FeatureSet::all();
    let options = CompileOptions::default();

    // Real images under seeded corruption.
    for _ in 0..24 {
        let spec = &phases[rng.gen_range(0..phases.len())];
        let fs = feature_sets[rng.gen_range(0..feature_sets.len())];
        let code = compile(&generate(spec), &fs, &options).expect("phase compiles");
        let image = lay_out(&code).expect("layout");
        let mut bytes = image.bytes.clone();
        for _ in 0..rng.gen_range(1..4) {
            if bytes.is_empty() {
                break;
            }
            match rng.gen_range(0..3u8) {
                0 => {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] = rng.gen();
                }
                1 => bytes.truncate(rng.gen_range(0..bytes.len())),
                _ => {
                    let i = rng.gen_range(0..bytes.len());
                    bytes.insert(i, rng.gen());
                }
            }
        }
        check_coherent(&bytes);
    }

    // Pure byte soup.
    for _ in 0..200 {
        let len = rng.gen_range(0..48usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        check_coherent(&bytes);
    }

    // Hostile prefix runs: up to 300 legacy prefixes before a nop, alone
    // and spliced into real images, plus byte soup longer than any
    // instruction. `analyze` must terminate on each.
    const LEGACY_PREFIXES: [u8; 6] = [0x66, 0x67, 0xF2, 0xF3, 0x2E, 0x3E];
    let images: Vec<Vec<u8>> = (0..4)
        .map(|_| {
            let spec = &phases[rng.gen_range(0..phases.len())];
            let fs = feature_sets[rng.gen_range(0..feature_sets.len())];
            let code = compile(&generate(spec), &fs, &options).expect("phase compiles");
            lay_out(&code).expect("layout").bytes
        })
        .collect();
    let fixed_runs = [16usize, 17, 255, 256, 300];
    for case in 0..48 {
        let run_len = fixed_runs
            .get(case)
            .copied()
            .unwrap_or_else(|| rng.gen_range(0..=300));
        let mut run: Vec<u8> = (0..run_len)
            .map(|_| LEGACY_PREFIXES[rng.gen_range(0..LEGACY_PREFIXES.len())])
            .collect();
        run.push(0x90);
        check_coherent(&run);
        let mut spliced = images[case % images.len()].clone();
        let at = rng.gen_range(0..=spliced.len());
        spliced.splice(at..at, run);
        check_coherent(&spliced);
        let soup: Vec<u8> = (0..rng.gen_range(48..512usize))
            .map(|_| rng.gen())
            .collect();
        check_coherent(&soup);
    }
}
