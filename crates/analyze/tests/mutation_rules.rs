//! One firing scenario per locked analysis rule, PR-4 style.
//!
//! Each scenario builds a *clean* artifact first, proves the rule does
//! not fire on it, then applies one seeded mutation — a byte patch, a
//! crafted stream, or a tampered claim — and proves exactly that rule
//! fires. The coverage test at the bottom holds the registry and this
//! table to each other in both directions: a rule without a scenario or
//! a scenario naming an unknown rule fails the build.

use cisa_analyze::{
    analyze, check_against_compile, check_against_emulation, lay_out, severity_of, Analysis,
    Finding, Severity, ANALYZE_RULES,
};
use cisa_compiler::code::{CodeStats, CompiledBlock, CompiledCode};
use cisa_compiler::ir::Terminator;
use cisa_isa::inst::{MemOperand, MemRole};
use cisa_isa::{
    ArchReg, Complexity, Encoder, FeatureSet, MachineInst, MacroOpcode, MemLocality, Operand,
    Predication, RegisterDepth, RegisterWidth,
};
use cisa_migrate::emulate;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeded per-scenario randomness: register choices vary by seed but
/// every draw stays inside the range the scenario's invariant needs.
fn rng(tag: u64) -> SmallRng {
    SmallRng::seed_from_u64(0xC15A_0900 | tag)
}

fn fs(c: Complexity, w: RegisterWidth, d: RegisterDepth, p: Predication) -> FeatureSet {
    FeatureSet::new(c, w, d, p).expect("viable feature set")
}

fn mov_imm(r: u8, v: u8) -> MachineInst {
    MachineInst::compute(
        MacroOpcode::Mov,
        ArchReg::gpr(r),
        Operand::Imm(v),
        Operand::None,
    )
}

fn alu(dst: u8, src: u8) -> MachineInst {
    MachineInst::compute(
        MacroOpcode::IntAlu,
        ArchReg::gpr(dst),
        Operand::Reg(ArchReg::gpr(dst)),
        Operand::Reg(ArchReg::gpr(src)),
    )
}

fn ret() -> MachineInst {
    MachineInst {
        opcode: MacroOpcode::Ret,
        ..MachineInst::jump()
    }
}

fn stream(insts: &[MachineInst]) -> Vec<u8> {
    Encoder::new(FeatureSet::superset())
        .encode_stream(insts)
        .expect("legal stream")
}

/// One single-block function around `insts`, for the emulation
/// cross-check scenarios.
fn single_block(insts: Vec<MachineInst>, code_fs: FeatureSet) -> CompiledCode {
    CompiledCode {
        name: "mutant".into(),
        fs: code_fs,
        blocks: vec![CompiledBlock {
            insts,
            term: Terminator::Ret,
            weight: 1.0,
            vectorized: false,
            code_bytes: 0,
        }],
        stats: CodeStats::default(),
    }
}

fn analyzed(code: &CompiledCode) -> Analysis {
    analyze(&lay_out(code).expect("layout").bytes)
}

fn assert_clean_emulation(a: &Analysis, code: &CompiledCode, target: &FeatureSet) {
    let clean = check_against_emulation(a, code, target, &emulate(code, target));
    assert!(clean.is_empty(), "clean analysis fired: {clean:?}");
}

// ---- structural rules --------------------------------------------------

fn fire_stream_undecodable() -> Vec<Finding> {
    let mut bytes = stream(&[mov_imm(rng(0).gen_range(0..8), 7), ret()]);
    assert!(analyze(&bytes).decoded);
    // 0x07 maps to no opcode, prefix, or escape byte.
    bytes[0] = 0x07;
    analyze(&bytes).findings
}

fn fire_branch_target_out_of_range() -> Vec<Finding> {
    let clean = stream(&[ret()]);
    assert!(analyze(&clean).errors().next().is_none());
    // An unpatched jump keeps the encoder's placeholder displacement,
    // which lands far past the end of a 5-byte stream.
    analyze(&stream(&[MachineInst::jump()])).findings
}

fn fire_branch_target_misaligned() -> Vec<Finding> {
    let r = rng(2).gen_range(0..8);
    let mut bytes = stream(&[MachineInst::jump(), mov_imm(r, 5), ret()]);
    let mid_mov = 6i32; // jump is 5 bytes, the mov starts at 5
    bytes[1..5].copy_from_slice(&(mid_mov - 5).to_le_bytes());
    analyze(&bytes).findings
}

fn fire_unreachable_block() -> Vec<Finding> {
    let r = rng(3).gen_range(0..8);
    let jump = stream(&[MachineInst::jump()]);
    let skipped = stream(&[mov_imm(r, 5)]);
    let mut bytes = jump.clone();
    bytes.extend_from_slice(&skipped);
    bytes.extend_from_slice(&stream(&[ret()]));
    // Patch the jump over the mov, straight to the ret.
    let rel = skipped.len() as i32;
    bytes[1..5].copy_from_slice(&rel.to_le_bytes());
    let a = analyze(&bytes);
    assert!(!a.all_reachable());
    a.findings
}

fn fire_dead_def() -> Vec<Finding> {
    let r = rng(4).gen_range(0..8);
    let live = analyze(&stream(&[mov_imm(r, 1), ret()]));
    assert!(live.findings.iter().all(|f| f.rule != "dead-def"));
    // The second def of the same register kills the first before any
    // use can see it.
    analyze(&stream(&[mov_imm(r, 1), mov_imm(r, 2), ret()])).findings
}

// ---- cross-check vs. the compile-time selection ------------------------

fn fire_static_features_exceed_compiled() -> Vec<Finding> {
    let a = analyze(&stream(&[alu(1, 2).wide(), ret()]));
    let wide_enough = fs(
        Complexity::X86,
        RegisterWidth::W64,
        RegisterDepth::D16,
        Predication::Partial,
    );
    assert!(check_against_compile(&a, &wide_enough).is_empty());
    // Claim the same code was compiled for a 32-bit feature set.
    let narrow = fs(
        Complexity::X86,
        RegisterWidth::W32,
        RegisterDepth::D16,
        Predication::Partial,
    );
    check_against_compile(&a, &narrow)
}

// ---- cross-checks vs. the dynamic downgrade machinery ------------------
//
// Each scenario compiles-by-hand a function whose emulation to the
// chosen target performs exactly one kind of transformation work, shows
// the honest analysis passes, then tampers the one claim that covers
// that work.

fn fire_depth_claim() -> Vec<Finding> {
    let r = rng(7).gen_range(32..64);
    let code = single_block(vec![mov_imm(r, 1)], FeatureSet::superset());
    let target = fs(
        Complexity::X86,
        RegisterWidth::W64,
        RegisterDepth::D16,
        Predication::Partial,
    );
    let mut a = analyzed(&code);
    assert_clean_emulation(&a, &code, &target);
    a.hi.depth = RegisterDepth::D16; // claim the code fits 16 registers
    check_against_emulation(&a, &code, &target, &emulate(&code, &target))
}

fn fire_width_claim() -> Vec<Finding> {
    let code = single_block(vec![alu(1, 2).wide()], FeatureSet::superset());
    let target = fs(
        Complexity::X86,
        RegisterWidth::W32,
        RegisterDepth::D64,
        Predication::Partial,
    );
    let mut a = analyzed(&code);
    assert_clean_emulation(&a, &code, &target);
    a.hi.wide = false; // claim there is no 64-bit code
    check_against_emulation(&a, &code, &target, &emulate(&code, &target))
}

fn fire_complexity_claim() -> Vec<Finding> {
    let mem = MachineInst::compute(
        MacroOpcode::IntAlu,
        ArchReg::gpr(1),
        Operand::Reg(ArchReg::gpr(1)),
        Operand::None,
    )
    .with_mem(
        MemOperand::base_disp(ArchReg::gpr(2), 4, MemLocality::WorkingSet),
        MemRole::Src,
    );
    let code = single_block(vec![mem], FeatureSet::superset());
    let target = fs(
        Complexity::MicroX86,
        RegisterWidth::W64,
        RegisterDepth::D64,
        Predication::Partial,
    );
    let mut a = analyzed(&code);
    assert_clean_emulation(&a, &code, &target);
    a.hi.memop = false; // claim no expandable memory operands
    check_against_emulation(&a, &code, &target, &emulate(&code, &target))
}

fn fire_predication_claim() -> Vec<Finding> {
    let guard = rng(10).gen_range(0..8);
    let pred = MachineInst::compute(
        MacroOpcode::Mov,
        ArchReg::gpr(2),
        Operand::Reg(ArchReg::gpr(3)),
        Operand::None,
    )
    .predicated_on(ArchReg::gpr(guard), false);
    let code = single_block(vec![pred], FeatureSet::superset());
    let target = fs(
        Complexity::X86,
        RegisterWidth::W64,
        RegisterDepth::D64,
        Predication::Partial,
    );
    let mut a = analyzed(&code);
    assert_clean_emulation(&a, &code, &target);
    a.hi.pred = false; // claim nothing is predicated
    check_against_emulation(&a, &code, &target, &emulate(&code, &target))
}

fn fire_simd_claim() -> Vec<Finding> {
    let code = single_block(
        vec![MachineInst::compute(
            MacroOpcode::VecAlu,
            ArchReg::gpr(1),
            Operand::Reg(ArchReg::gpr(1)),
            Operand::Reg(ArchReg::gpr(2)),
        )],
        FeatureSet::superset(),
    );
    let target = fs(
        Complexity::MicroX86,
        RegisterWidth::W64,
        RegisterDepth::D64,
        Predication::Partial,
    );
    let mut a = analyzed(&code);
    assert_clean_emulation(&a, &code, &target);
    a.hi.vec = false; // claim the code is scalar
    check_against_emulation(&a, &code, &target, &emulate(&code, &target))
}

fn fire_native_claim() -> Vec<Finding> {
    let code = single_block(
        vec![MachineInst::compute(
            MacroOpcode::VecAlu,
            ArchReg::gpr(1),
            Operand::Reg(ArchReg::gpr(1)),
            Operand::Reg(ArchReg::gpr(2)),
        )],
        FeatureSet::superset(),
    );
    let target = fs(
        Complexity::MicroX86,
        RegisterWidth::W64,
        RegisterDepth::D64,
        Predication::Partial,
    );
    let mut a = analyzed(&code);
    assert_clean_emulation(&a, &code, &target);
    // Tamper the entry point's residual needs so it claims a free
    // migration while the honest whole-stream facts stay put.
    let entry = &mut a.points.points[0];
    entry.needs_vec = false;
    entry.needs_memop = false;
    entry.needs_pred = false;
    check_against_emulation(&a, &code, &target, &emulate(&code, &target))
}

// ---- registry coverage -------------------------------------------------

type Scenario = fn() -> Vec<Finding>;

const SCENARIOS: &[(&str, Scenario)] = &[
    ("stream-undecodable", fire_stream_undecodable),
    (
        "branch-target-out-of-range",
        fire_branch_target_out_of_range,
    ),
    ("branch-target-misaligned", fire_branch_target_misaligned),
    ("unreachable-block", fire_unreachable_block),
    ("dead-def", fire_dead_def),
    (
        "static-features-exceed-compiled",
        fire_static_features_exceed_compiled,
    ),
    ("native-claim-contradicts-emulation", fire_native_claim),
    ("depth-claim-contradicts-emulation", fire_depth_claim),
    ("width-claim-contradicts-emulation", fire_width_claim),
    (
        "complexity-claim-contradicts-emulation",
        fire_complexity_claim,
    ),
    (
        "predication-claim-contradicts-emulation",
        fire_predication_claim,
    ),
    ("simd-claim-contradicts-emulation", fire_simd_claim),
];

#[test]
fn every_rule_fires_on_its_mutation() {
    for (rule, scenario) in SCENARIOS {
        let findings = scenario();
        assert!(
            findings.iter().any(|f| f.rule == *rule),
            "rule {rule} did not fire; findings: {findings:?}"
        );
        for f in &findings {
            assert_eq!(f.severity, severity_of(f.rule));
        }
    }
}

#[test]
fn mutation_table_covers_every_rule() {
    for rule in ANALYZE_RULES {
        assert!(
            SCENARIOS.iter().any(|(r, _)| r == rule),
            "registry rule {rule} has no firing scenario"
        );
    }
    for (rule, _) in SCENARIOS {
        assert!(
            ANALYZE_RULES.contains(rule),
            "scenario names unknown rule {rule}"
        );
    }
    assert_eq!(SCENARIOS.len(), ANALYZE_RULES.len());
}

#[test]
fn advisory_rules_do_not_gate() {
    assert_eq!(severity_of("unreachable-block"), Severity::Advisory);
    assert_eq!(severity_of("dead-def"), Severity::Advisory);
    assert_eq!(severity_of("stream-undecodable"), Severity::Error);
    assert_eq!(
        severity_of("native-claim-contradicts-emulation"),
        Severity::Error
    );
}
