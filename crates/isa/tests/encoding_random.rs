//! Randomized property tests: every encodable instruction roundtrips
//! through the instruction-length decoder, under every feature set, and
//! the decoder stays total (and agrees with the disassembler) on hostile
//! bytes.
//!
//! These run a fixed number of cases from a seeded [`SmallRng`], so
//! they are deterministic across machines while still sweeping a wide
//! slice of the instruction space.

use cisa_isa::encoding::MAX_INST_LEN;
use cisa_isa::inst::{MachineInst, MacroOpcode, MemLocality, MemOperand, MemRole, Operand};
use cisa_isa::{ArchReg, Encoder, FeatureSet, InstLengthDecoder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn arb_opcode(rng: &mut SmallRng) -> MacroOpcode {
    [
        MacroOpcode::Mov,
        MacroOpcode::IntAlu,
        MacroOpcode::IntMul,
        MacroOpcode::Lea,
        MacroOpcode::FpAlu,
        MacroOpcode::FpMul,
        MacroOpcode::VecAlu,
        MacroOpcode::Cmov,
    ][rng.gen_range(0..8usize)]
}

fn arb_locality(rng: &mut SmallRng) -> MemLocality {
    [
        MemLocality::Stack,
        MemLocality::Stream,
        MemLocality::WorkingSet,
        MemLocality::PointerChase,
    ][rng.gen_range(0..4usize)]
}

fn arb_mem(rng: &mut SmallRng) -> MemOperand {
    let base = rng.gen_range(0..64u8);
    let index = rng.gen_range(0..64u8);
    let disp = [0u8, 1, 4][rng.gen_range(0..3usize)];
    let locality = arb_locality(rng);
    match rng.gen_range(0..3u8) {
        0 => MemOperand::base_only(ArchReg::gpr(base), locality),
        1 => {
            if disp == 0 {
                MemOperand::base_only(ArchReg::gpr(base), locality)
            } else {
                MemOperand::base_disp(ArchReg::gpr(base), disp, locality)
            }
        }
        _ => MemOperand::base_index(ArchReg::gpr(base), ArchReg::gpr(index), disp, locality),
    }
}

fn arb_inst(rng: &mut SmallRng) -> MachineInst {
    // Weighted 4:2:1 across compute / load-store / control, mirroring a
    // plausible instruction mix.
    match rng.gen_range(0..7u8) {
        0..=3 => {
            let op = arb_opcode(rng);
            let dst = rng.gen_range(0..64u8);
            let s1 = rng.gen_range(0..64u8);
            let s2 = match rng.gen_range(0..4u8) {
                0 => Operand::None,
                1 => Operand::Reg(ArchReg::gpr(rng.gen_range(0..64u8))),
                2 => Operand::Imm(1),
                _ => Operand::Imm(4),
            };
            let mut inst =
                MachineInst::compute(op, ArchReg::gpr(dst), Operand::Reg(ArchReg::gpr(s1)), s2);
            if rng.gen_bool(0.5) {
                let m = arb_mem(rng);
                let role = if rng.gen_bool(0.5) {
                    MemRole::Dst
                } else {
                    MemRole::Src
                };
                inst = inst.with_mem(m, role);
            }
            if rng.gen_bool(0.5) {
                inst = inst.predicated_on(ArchReg::gpr(rng.gen_range(0..64u8)), rng.gen());
            }
            if rng.gen_bool(0.5) {
                inst = inst.wide();
            }
            inst
        }
        4 | 5 => {
            let r = ArchReg::gpr(rng.gen_range(0..64u8));
            let m = arb_mem(rng);
            if rng.gen_bool(0.5) {
                MachineInst::store(r, m)
            } else {
                MachineInst::load(r, m)
            }
        }
        _ => match rng.gen_range(0..5u8) {
            0 => MachineInst::branch(),
            1 => MachineInst::jump(),
            2 => MachineInst {
                opcode: MacroOpcode::Call,
                ..MachineInst::jump()
            },
            3 => MachineInst {
                opcode: MacroOpcode::Ret,
                ..MachineInst::jump()
            },
            _ => MachineInst {
                opcode: MacroOpcode::Nop,
                ..MachineInst::jump()
            },
        },
    }
}

/// Every instruction legal under a feature set encodes, decodes to
/// the same length, and reports the same prefix structure.
#[test]
fn encode_decode_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x15A_0001);
    for _ in 0..768 {
        let inst = arb_inst(&mut rng);
        let fs = FeatureSet::all()[rng.gen_range(0..26usize)];
        let encoder = Encoder::new(fs);
        if !inst.legal_under(&fs) {
            assert!(encoder.encode(&inst).is_err(), "illegal {inst} under {fs}");
            continue;
        }
        let enc = encoder.encode(&inst).unwrap();
        assert!(enc.len() <= MAX_INST_LEN);
        assert!(!enc.is_empty());
        let dec = InstLengthDecoder::new().decode_one(&enc.bytes).unwrap();
        assert_eq!(dec.len, enc.len());
        assert_eq!(dec.has_rexbc, enc.has_rexbc);
        assert_eq!(dec.has_predicate, enc.has_predicate);
        assert_eq!(dec.has_rex, enc.has_rex);
        assert_eq!(dec.legacy_prefixes, enc.legacy_prefixes);
    }
}

/// Byte streams of consecutive instructions decode back to the same
/// instruction count and lengths (the ILD's actual job).
#[test]
fn stream_decode_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x15A_0002);
    for _ in 0..192 {
        let fs = FeatureSet::superset();
        let encoder = Encoder::new(fs);
        let mut stream = Vec::new();
        let mut lens = Vec::new();
        for _ in 0..rng.gen_range(1..20usize) {
            let inst = arb_inst(&mut rng);
            if let Ok(e) = encoder.encode(&inst) {
                lens.push(e.len());
                stream.extend_from_slice(&e.bytes);
            }
        }
        let decoded = InstLengthDecoder::new().decode_stream(&stream).unwrap();
        assert_eq!(decoded.len(), lens.len());
        for (d, l) in decoded.iter().zip(&lens) {
            assert_eq!(d.len, *l);
        }
    }
}

/// The micro-op expansion is 1:1 for every instruction legal under
/// any microx86 feature set (the defining property of microx86).
#[test]
fn microx86_legal_implies_single_uop() {
    let mut rng = SmallRng::seed_from_u64(0x15A_0003);
    let micro = FeatureSet::minimal();
    for _ in 0..768 {
        let inst = arb_inst(&mut rng);
        if inst.legal_under(&micro) && !matches!(inst.opcode, MacroOpcode::Call | MacroOpcode::Ret)
        {
            assert_eq!(inst.micro_ops().len(), 1, "{inst}");
        }
    }
}

/// The disassembler inverts the encoder structurally: length,
/// prefixes, and (for compute forms) the destination register field.
#[test]
fn disassembler_inverts_encoder() {
    let mut rng = SmallRng::seed_from_u64(0x15A_0004);
    let fs = FeatureSet::superset();
    for _ in 0..768 {
        let inst = arb_inst(&mut rng);
        if !inst.legal_under(&fs) {
            continue;
        }
        let enc = Encoder::new(fs).encode(&inst).unwrap();
        let d = cisa_isa::disassemble(&enc.bytes).unwrap();
        assert_eq!(d.len as usize, enc.len());
        assert_eq!(d.has_rexbc, enc.has_rexbc);
        assert_eq!(d.predicate.is_some(), enc.has_predicate);
        if let Some(p) = inst.predicate {
            assert_eq!(d.predicate, Some((p.reg.index(), p.negated)));
        }
        if let (Some(dst), Some(reg)) = (inst.dst, d.reg) {
            assert_eq!(reg, dst.index(), "dst register field");
        }
    }
}

/// Builds one valid encoded stream (concatenated instructions) for the
/// mutation fuzzers below, returning the bytes.
fn arb_stream(rng: &mut SmallRng, encoder: &Encoder) -> Vec<u8> {
    let mut stream = Vec::new();
    for _ in 0..rng.gen_range(1..8usize) {
        let inst = arb_inst(rng);
        if let Ok(e) = encoder.encode(&inst) {
            stream.extend_from_slice(&e.bytes);
        }
    }
    stream
}

/// Applies a random corruption — bit flips or a truncation — to a
/// valid stream. Returns `true` if anything actually changed.
fn mutate_stream(rng: &mut SmallRng, stream: &mut Vec<u8>) -> bool {
    if stream.is_empty() {
        return false;
    }
    if rng.gen_bool(0.3) {
        let new_len = rng.gen_range(0..stream.len());
        stream.truncate(new_len);
        true
    } else {
        for _ in 0..rng.gen_range(1..4usize) {
            let byte = rng.gen_range(0..stream.len());
            let bit = rng.gen_range(0..8u8);
            stream[byte] ^= 1 << bit;
        }
        true
    }
}

/// Decodes the instruction at the start of `bytes` with both the length
/// decoder and the disassembler: they must accept the same inputs with
/// the same length and prefix flags, and reject the rest with the same
/// error.
fn assert_ild_matches_disassembler(bytes: &[u8]) {
    let ild = InstLengthDecoder::new().decode_one(bytes);
    let dis = cisa_isa::disassemble(bytes);
    match (ild, dis) {
        (Ok(l), Ok(d)) => {
            assert!((1..=MAX_INST_LEN).contains(&l.len), "{bytes:02x?}");
            assert_eq!(l.len, d.len as usize, "{bytes:02x?}");
            assert_eq!(l.legacy_prefixes, d.legacy_prefixes, "{bytes:02x?}");
            assert_eq!(l.has_rexbc, d.has_rexbc, "{bytes:02x?}");
            assert_eq!(l.has_predicate, d.predicate.is_some(), "{bytes:02x?}");
            assert_eq!(l.has_rex, d.has_rex, "{bytes:02x?}");
        }
        (Err(l), Err(d)) => assert_eq!(l, d, "{bytes:02x?}"),
        (l, d) => panic!("ILD {l:?} but disassembler {d:?} on {bytes:02x?}"),
    }
}

/// Checks the decoder's contract on an arbitrary (possibly corrupt)
/// byte stream: it must return either a structurally consistent
/// decoding or a structured error that accounts for every byte it
/// consumed, and the disassembler must walk the stream identically.
/// Panics are impossible by construction of this test — any panic
/// inside the decoder fails the test run itself.
fn assert_decode_total(stream: &[u8]) {
    let decoded = InstLengthDecoder::new().decode_stream(stream);
    let spanned = cisa_isa::disassemble_stream_with_offsets(stream);
    match (&decoded, &spanned) {
        (Ok(lens), Ok(insts)) => {
            let ild: Vec<usize> = lens.iter().map(|d| d.len).collect();
            let dis: Vec<usize> = insts.iter().map(|s| s.inst.len as usize).collect();
            assert_eq!(ild, dis, "ILD and disassembler split the stream alike");
        }
        (Err(l), Err(d)) => assert_eq!(l, d, "ILD and disassembler fail alike"),
        (l, d) => panic!("ILD {l:?} but disassembler {d:?}"),
    }
    match decoded {
        Ok(decoded) => {
            let total: usize = decoded.iter().map(|d| d.len).sum();
            assert_eq!(total, stream.len(), "decoded lengths must tile the stream");
            for d in &decoded {
                assert!(d.len >= 1 && d.len <= MAX_INST_LEN);
            }
        }
        Err(e) => {
            assert!(e.consumed() <= stream.len());
            assert!(!e.to_string().is_empty(), "error must carry a diagnostic");
            // The reported offset is exact: the prefix before the
            // failing instruction decodes cleanly to `index` insts.
            let prefix = InstLengthDecoder::new()
                .decode_stream(&stream[..e.offset])
                .expect("prefix before the failure offset must be clean");
            assert_eq!(prefix.len(), e.index, "index must count prefix insts");
        }
    }
}

/// Fuzz: 10,000 seeded mutations of valid encoded streams. Decoding
/// never panics; it either round-trips (mutation happened to produce
/// another valid stream) or returns a structured error whose offset
/// and index are exact.
#[test]
fn mutated_streams_decode_totally() {
    let mut rng = SmallRng::seed_from_u64(0x15A_F422);
    let encoder = Encoder::new(FeatureSet::superset());
    for case in 0..10_000 {
        let mut stream = arb_stream(&mut rng, &encoder);
        // Pristine streams must round-trip before we corrupt them.
        InstLengthDecoder::new()
            .decode_stream(&stream)
            .unwrap_or_else(|e| panic!("case {case}: clean stream failed: {e}"));
        mutate_stream(&mut rng, &mut stream);
        assert_decode_total(&stream);
    }
}

/// Fuzz: the disassembler upholds the same totality contract as the
/// length decoder on corrupted streams — structured errors with exact
/// offsets, never a panic.
#[test]
fn mutated_streams_disassemble_totally() {
    let mut rng = SmallRng::seed_from_u64(0x15A_F423);
    let encoder = Encoder::new(FeatureSet::superset());
    for _ in 0..2_000 {
        let mut stream = arb_stream(&mut rng, &encoder);
        mutate_stream(&mut rng, &mut stream);
        match cisa_isa::disassemble_stream(&stream) {
            Ok(insts) => {
                let total: usize = insts.iter().map(|d| d.len as usize).sum();
                assert_eq!(total, stream.len());
            }
            Err(e) => {
                assert!(e.consumed() <= stream.len());
                let prefix = cisa_isa::disassemble_stream(&stream[..e.offset])
                    .expect("prefix before the failure offset must be clean");
                assert_eq!(prefix.len(), e.index);
            }
        }
    }
}

/// Fuzz: fully random (never-valid-by-construction) byte soup also
/// decodes totally — the decoder makes no assumptions about its input
/// having ever been produced by the encoder.
#[test]
fn random_byte_soup_decodes_totally() {
    let mut rng = SmallRng::seed_from_u64(0x15A_F424);
    for _ in 0..2_000 {
        let len = rng.gen_range(0..48usize);
        let stream: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        assert_decode_total(&stream);
    }
}

/// The legacy prefixes the decoder skips.
const LEGACY_PREFIXES: [u8; 6] = [0x66, 0x67, 0xF2, 0xF3, 0x2E, 0x3E];

/// One hostile instruction: a run of 0–300 legacy prefixes (most runs
/// short enough to fit the length limit), then repeated REXBC /
/// predicate markers with random payloads, then either a valid encoding
/// or random bytes.
fn hostile_inst(rng: &mut SmallRng, encoder: &Encoder) -> Vec<u8> {
    let run = if rng.gen_bool(0.5) {
        rng.gen_range(0..=300usize)
    } else {
        rng.gen_range(0..=MAX_INST_LEN)
    };
    let mut bytes: Vec<u8> = (0..run)
        .map(|_| LEGACY_PREFIXES[rng.gen_range(0..LEGACY_PREFIXES.len())])
        .collect();
    for _ in 0..rng.gen_range(0..4usize) {
        bytes.push(if rng.gen_bool(0.5) { 0xD6 } else { 0xF1 });
        bytes.push(rng.gen());
    }
    match encoder.encode(&arb_inst(rng)) {
        Ok(e) if rng.gen_bool(0.5) => bytes.extend_from_slice(&e.bytes),
        _ => bytes.extend((0..rng.gen_range(0..24usize)).map(|_| rng.gen::<u8>())),
    }
    bytes
}

/// Fuzz: hostile instructions and streams of them. On every input, and
/// on every truncation of it, the length decoder and the disassembler
/// agree on accept, reject and length; accepted lengths are in
/// `1..=MAX_INST_LEN`, and decoded streams tile their bytes.
#[test]
fn hostile_prefix_runs_decode_totally_and_agree() {
    let mut rng = SmallRng::seed_from_u64(0x15A_F425);
    let encoder = Encoder::new(FeatureSet::superset());
    for _ in 0..512 {
        let inst = hostile_inst(&mut rng, &encoder);
        for end in 0..=inst.len() {
            assert_ild_matches_disassembler(&inst[..end]);
        }
        assert_decode_total(&inst);
        let stream: Vec<u8> = (0..rng.gen_range(1..6usize))
            .flat_map(|_| hostile_inst(&mut rng, &encoder))
            .collect();
        assert_decode_total(&stream);
    }
}

/// Coverage in the feature lattice implies encodability: if a set
/// covers another, everything encodable under the covered set is
/// encodable under the covering set. Swept over every (a, b) pair with
/// a random instruction sample per covering pair.
#[test]
fn coverage_implies_encodability() {
    let mut rng = SmallRng::seed_from_u64(0x15A_0005);
    let all = FeatureSet::all();
    for &fa in &all {
        for &fb in &all {
            if !fa.covers(&fb) {
                continue;
            }
            for _ in 0..4 {
                let inst = arb_inst(&mut rng);
                if inst.legal_under(&fb) {
                    assert!(inst.legal_under(&fa), "{fa} covers {fb} but rejects {inst}");
                }
            }
        }
    }
}
