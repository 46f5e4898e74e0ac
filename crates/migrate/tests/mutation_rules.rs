//! Seeded mutation tests: every verifier rule must fire.
//!
//! Each scenario starts from a clean artifact (IR, selected code,
//! allocated code, compiled code, or an emulation outcome), breaks
//! exactly one invariant, and asserts the *exact* rule that diagnoses
//! it. `mutation_table_covers_every_rule` then proves the table spans
//! [`RULES`] ∪ [`MIGRATION_RULES`], so no rule can be added without a
//! firing test.

use cisa_compiler::ir::{
    AddrExpr, BlockId, IrBlock, IrFunction, IrInst, IrOp, Terminator, VReg, VectorizableHint,
};
use cisa_compiler::isel::select;
use cisa_compiler::regalloc::allocate;
use cisa_compiler::verify::{
    verify_encoding, verify_ir, verify_isel, verify_predication, verify_regalloc,
    verify_stream_roundtrip, VerifyError, RULES,
};
use cisa_compiler::{compile, CompileOptions, CompiledCode};
use cisa_isa::inst::{MemOperand, MemRole};
use cisa_isa::{ArchReg, Encoder, FeatureSet, MachineInst, MacroOpcode, MemLocality, Operand};
use cisa_migrate::verify::{check_emulation, MIGRATION_RULES};
use cisa_migrate::{EmulationStats, MigrateError};

fn full() -> FeatureSet {
    FeatureSet::superset()
}

fn partial() -> FeatureSet {
    FeatureSet::x86_64()
}

fn micro() -> FeatureSet {
    "microx86-16D-32W".parse().expect("valid feature set")
}

/// A clean scalar base: load, constant, add — one block, one implicit
/// pointer parameter.
fn base_ir() -> IrFunction {
    let mut f = IrFunction::new("mutant");
    let p = f.new_vreg();
    let x = f.new_vreg();
    let y = f.new_vreg();
    let mut b = IrBlock::new(Terminator::Ret, 10.0);
    b.insts
        .push(IrInst::load(x, AddrExpr::base(p), MemLocality::WorkingSet));
    b.insts.push(IrInst::constant(y, 3));
    b.insts.push(IrInst::compute(IrOp::IntAlu, y, x, y));
    f.add_block(b);
    f
}

/// The base with its block marked vectorizable (4 lanes).
fn vec_ir() -> IrFunction {
    let mut f = base_ir();
    f.blocks[0].vectorizable = Some(VectorizableHint { lanes: 4 });
    f
}

/// The base with the add marked 64-bit wide.
fn wide_ir() -> IrFunction {
    let mut f = base_ir();
    f.blocks[0].insts[2].wide = true;
    f
}

fn base_code(fs: &FeatureSet) -> CompiledCode {
    compile(&base_ir(), fs, &CompileOptions::default()).expect("clean base compiles")
}

fn spill_slot() -> MemOperand {
    MemOperand::base_disp(ArchReg::gpr(4), 1, MemLocality::Stack)
}

fn plain_minst() -> MachineInst {
    MachineInst::compute(
        MacroOpcode::IntAlu,
        ArchReg::gpr(0),
        Operand::Reg(ArchReg::gpr(1)),
        Operand::Reg(ArchReg::gpr(2)),
    )
}

/// One mutation per rule: (rule, diagnostics it produces).
fn scenarios() -> Vec<(&'static str, Vec<VerifyError>)> {
    let mut table: Vec<(&'static str, Vec<VerifyError>)> = Vec::new();

    // ---- verify_ir ----
    table.push(("empty-function", verify_ir(&IrFunction::new("hollow"))));
    table.push(("terminator-target-out-of-range", {
        let mut f = base_ir();
        f.blocks[0].term = Terminator::Jump(BlockId(7));
        verify_ir(&f)
    }));
    table.push(("operand-out-of-range", {
        let mut f = base_ir();
        let y = VReg(2);
        f.blocks[0]
            .insts
            .push(IrInst::compute(IrOp::IntAlu, y, VReg(99), y));
        verify_ir(&f)
    }));
    table.push(("negative-block-weight", {
        let mut f = base_ir();
        f.blocks[0].weight = -1.0;
        verify_ir(&f)
    }));
    table.push(("mem-op-missing-addr", {
        let mut f = base_ir();
        f.blocks[0].insts[0].addr = None;
        verify_ir(&f)
    }));
    table.push(("no-reachable-ret", {
        let mut f = base_ir();
        f.blocks[0].term = Terminator::Jump(BlockId(0));
        verify_ir(&f)
    }));
    table.push(("use-before-def", {
        let mut f = IrFunction::new("early");
        let x = f.new_vreg();
        let y = f.new_vreg();
        let mut b = IrBlock::new(Terminator::Ret, 1.0);
        // y is read here but its only definition comes later.
        b.insts.push(IrInst::compute(IrOp::IntAlu, x, y, y));
        b.insts.push(IrInst::compute(IrOp::IntAlu, y, x, x));
        f.add_block(b);
        verify_ir(&f)
    }));
    table.push(("double-def", {
        let mut f = base_ir();
        let y = VReg(2);
        // Second unpredicated def of y with no intervening use.
        f.blocks[0].insts.push(IrInst::constant(y, 1));
        verify_ir(&f)
    }));
    table.push(("unreachable-weighted-block", {
        let mut f = base_ir();
        f.add_block(IrBlock::new(Terminator::Ret, 5.0));
        verify_ir(&f)
    }));

    // ---- verify_predication ----
    table.push(("predicated-op-under-partial-predication", {
        let mut f = base_ir();
        f.blocks[0].insts[2].pred = Some((VReg(1), false));
        verify_predication(&f, &partial())
    }));
    table.push(("predicated-def-of-own-guard", {
        let mut f = base_ir();
        // The add defines y while being guarded by y.
        f.blocks[0].insts[2].pred = Some((VReg(2), false));
        verify_predication(&f, &full())
    }));
    table.push(("predicate-guard-redefined-in-run", {
        let mut f = base_ir();
        let z = f.new_vreg();
        // y's most recent def (the constant) becomes predicated, then y
        // guards a later instruction.
        f.blocks[0].insts[1].pred = Some((VReg(1), false));
        f.blocks[0].insts[2] = IrInst::compute(IrOp::IntAlu, z, VReg(1), VReg(1));
        f.blocks[0].insts[2].pred = Some((VReg(2), false));
        verify_predication(&f, &full())
    }));

    // ---- verify_isel ----
    table.push(("vreg-out-of-range", {
        let mut v = select(&base_ir(), &partial());
        v.vreg_count = 1;
        verify_isel(&v, &partial())
    }));
    table.push(("control-opcode-in-block", {
        let mut v = select(&base_ir(), &partial());
        v.blocks[0].insts[0].opcode = MacroOpcode::Jump;
        verify_isel(&v, &partial())
    }));
    table.push(("load-store-shape", {
        // microx86 selection keeps the explicit load (x86 folds it).
        let mut v = select(&base_ir(), &micro());
        let i = v.blocks[0]
            .insts
            .iter()
            .position(|i| i.opcode == MacroOpcode::Load)
            .expect("microx86 keeps the load");
        v.blocks[0].insts[i].dst = None;
        verify_isel(&v, &micro())
    }));
    table.push(("mem-role-inconsistent", {
        let mut v = select(&base_ir(), &micro());
        // A register-register compute given a memory role without a
        // memory operand.
        let inst = v.blocks[0]
            .insts
            .iter_mut()
            .find(|i| i.opcode == MacroOpcode::IntAlu && i.mem.is_none())
            .expect("reg-reg alu");
        inst.mem_role = MemRole::Src;
        verify_isel(&v, &micro())
    }));
    table.push(("unsplit-mem-op-under-microx86", {
        let mut v = select(&base_ir(), &micro());
        // Re-fold the load into the compute: illegal on microx86.
        let mem = v.blocks[0]
            .insts
            .iter()
            .find(|i| i.opcode == MacroOpcode::Load)
            .and_then(|i| i.mem)
            .expect("load has mem");
        let inst = v.blocks[0]
            .insts
            .iter_mut()
            .find(|i| i.opcode == MacroOpcode::IntAlu)
            .expect("alu inst");
        inst.mem = Some(mem);
        inst.mem_role = MemRole::Src;
        verify_isel(&v, &micro())
    }));
    table.push(("vector-op-without-simd", {
        let v = select(&vec_ir(), &"x86-16D-32W".parse().expect("valid"));
        assert!(v.blocks[0]
            .insts
            .iter()
            .any(|i| i.opcode == MacroOpcode::VecAlu));
        verify_isel(&v, &micro())
    }));
    table.push(("vector-op-outside-vectorized-block", {
        let fs: FeatureSet = "x86-16D-32W".parse().expect("valid");
        let mut v = select(&vec_ir(), &fs);
        v.blocks[0].vectorized = false;
        verify_isel(&v, &fs)
    }));
    table.push(("wide-op-on-32bit-target", {
        let v = select(&wide_ir(), &partial());
        verify_isel(&v, &"x86-16D-32W".parse().expect("valid"))
    }));
    table.push(("predicate-under-partial-predication", {
        let mut v = select(&base_ir(), &partial());
        v.blocks[0].insts[0].pred = Some((VReg(1), false));
        verify_isel(&v, &partial())
    }));

    // ---- verify_regalloc ----
    table.push(("register-beyond-depth", {
        let mut a = allocate(&select(&base_ir(), &partial()), &partial());
        a.blocks[0].insts[0].dst = Some(ArchReg::gpr(40));
        verify_regalloc(&a, &partial())
    }));
    table.push(("overlapping-intervals-share-register", {
        let mut a = allocate(&select(&base_ir(), &partial()), &partial());
        let iv = *a
            .intervals
            .iter()
            .find(|i| i.reg.is_some())
            .expect("some interval got a register");
        a.intervals.push(iv);
        verify_regalloc(&a, &partial())
    }));
    table.push(("spill-slot-shape", {
        let mut a = allocate(&select(&base_ir(), &partial()), &partial());
        // A stack-pointer access with a 4-byte displacement and the
        // wrong locality class.
        a.blocks[0].insts.push(MachineInst::load(
            ArchReg::gpr(0),
            MemOperand::base_disp(ArchReg::gpr(4), 4, MemLocality::Stream),
        ));
        verify_regalloc(&a, &partial())
    }));
    table.push(("spill-store-unpaired", {
        let mut a = allocate(&select(&base_ir(), &partial()), &partial());
        // A spill store at block entry saves nothing just computed.
        a.blocks[0]
            .insts
            .insert(0, MachineInst::store(ArchReg::gpr(0), spill_slot()));
        verify_regalloc(&a, &partial())
    }));
    table.push(("refill-load-unused", {
        let mut a = allocate(&select(&base_ir(), &partial()), &partial());
        // A refill at block end that nothing ever reads.
        a.blocks[0]
            .insts
            .push(MachineInst::load(ArchReg::gpr(0), spill_slot()));
        verify_regalloc(&a, &partial())
    }));
    table.push(("regalloc-stats-mismatch", {
        let mut a = allocate(&select(&base_ir(), &partial()), &partial());
        a.stats.dyn_spill_stores += 100.0;
        verify_regalloc(&a, &partial())
    }));

    // ---- verify_encoding ----
    table.push(("illegal-instruction-for-feature-set", {
        let mut code = base_code(&partial());
        code.blocks[0].insts[0].dst = Some(ArchReg::gpr(40));
        verify_encoding(&code)
    }));
    table.push(("encode-failed", {
        // Decodes fine (the length decoder is feature-set-agnostic) but
        // cannot be re-encoded under a partial-predication target.
        let inst = plain_minst().predicated_on(ArchReg::gpr(3), false);
        let bytes = Encoder::new(full())
            .encode(&inst)
            .expect("legal under superset");
        verify_stream_roundtrip(&partial(), &[inst], &bytes.bytes, "m", None)
    }));
    table.push(("stream-decode-error", {
        let inst = plain_minst();
        let enc = Encoder::new(partial()).encode(&inst).expect("legal");
        let truncated = &enc.bytes[..enc.bytes.len() - 1];
        verify_stream_roundtrip(&partial(), &[inst], truncated, "m", None)
    }));
    table.push(("stream-roundtrip-mismatch", {
        let inst = plain_minst();
        let bytes = Encoder::new(partial())
            .encode_stream(&[inst, inst])
            .expect("legal");
        verify_stream_roundtrip(&partial(), &[inst], &bytes, "m", None)
    }));
    table.push(("block-bytes-mismatch", {
        let mut code = base_code(&partial());
        code.blocks[0].code_bytes += 1;
        verify_encoding(&code)
    }));
    table.push(("stats-code-bytes-mismatch", {
        let mut code = base_code(&partial());
        code.stats.code_bytes += 7;
        verify_encoding(&code)
    }));

    // ---- migration safety ----
    table.push(("predicate-survived-downgrade", {
        let mut code = base_code(&full());
        code.blocks[0]
            .insts
            .push(plain_minst().predicated_on(ArchReg::gpr(3), false));
        check_emulation(Ok((code, EmulationStats::default())), &partial(), "m")
    }));
    table.push(("vector-op-survived-downgrade", {
        let mut code = base_code(&partial());
        code.blocks[0].vectorized = true;
        check_emulation(Ok((code, EmulationStats::default())), &micro(), "m")
    }));
    table.push(("wide-op-survived-downgrade", {
        let mut code = base_code(&partial());
        let mut inst = plain_minst();
        inst.wide = true;
        code.blocks[0].insts.push(inst);
        let target: FeatureSet = "x86-16D-32W".parse().expect("valid");
        check_emulation(Ok((code, EmulationStats::default())), &target, "m")
    }));
    table.push(("mem-op-survived-downgrade", {
        let mut code = base_code(&partial());
        let mut inst = plain_minst();
        inst.mem = Some(MemOperand::base_disp(
            ArchReg::gpr(1),
            1,
            MemLocality::WorkingSet,
        ));
        inst.mem_role = MemRole::Src;
        code.blocks[0].insts.push(inst);
        check_emulation(Ok((code, EmulationStats::default())), &micro(), "m")
    }));
    table.push(("deep-register-survived-downgrade", {
        let mut code = base_code(&full());
        let mut inst = plain_minst();
        inst.dst = Some(ArchReg::gpr(40));
        code.blocks[0].insts.push(inst);
        check_emulation(Ok((code, EmulationStats::default())), &partial(), "m")
    }));
    table.push(("emulation-failed", {
        check_emulation(
            Err(MigrateError::Emulation {
                block: 0,
                index: 0,
                reason: "corrupted in flight",
            }),
            &partial(),
            "m",
        )
    }));

    table
}

#[test]
fn clean_baselines_have_no_violations() {
    // Mutation tests are only meaningful if the unmutated artifacts
    // verify clean.
    assert_eq!(verify_ir(&base_ir()), vec![]);
    assert_eq!(verify_ir(&vec_ir()), vec![]);
    assert_eq!(verify_ir(&wide_ir()), vec![]);
    for fs in [full(), partial(), micro()] {
        let v = select(&base_ir(), &fs);
        assert_eq!(verify_isel(&v, &fs), vec![], "{fs}");
        assert_eq!(verify_regalloc(&allocate(&v, &fs), &fs), vec![], "{fs}");
        assert_eq!(verify_encoding(&base_code(&fs)), vec![], "{fs}");
    }
}

#[test]
fn every_mutation_fires_its_exact_rule() {
    for (rule, errors) in scenarios() {
        assert!(
            errors.iter().any(|e| e.rule == rule),
            "mutation for `{rule}` fired {:?} instead",
            errors.iter().map(|e| e.rule).collect::<Vec<_>>()
        );
    }
}

#[test]
fn mutations_never_fire_rules_outside_the_registries() {
    for (rule, errors) in scenarios() {
        for e in &errors {
            assert!(
                RULES.contains(&e.rule) || MIGRATION_RULES.contains(&e.rule),
                "mutation for `{rule}` fired unregistered rule `{}`",
                e.rule
            );
        }
    }
}

#[test]
fn mutation_table_covers_every_rule() {
    let covered: std::collections::HashSet<&str> =
        scenarios().iter().map(|(rule, _)| *rule).collect();
    for rule in RULES.iter().chain(MIGRATION_RULES) {
        assert!(covered.contains(rule), "no mutation fires `{rule}`");
    }
    for rule in &covered {
        assert!(
            RULES.contains(rule) || MIGRATION_RULES.contains(rule),
            "mutation table names unknown rule `{rule}`"
        );
    }
}
