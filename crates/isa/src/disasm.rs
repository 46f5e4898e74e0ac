//! Disassembler for superset-ISA machine code, and the one byte walk of
//! the instruction format.
//!
//! [`disassemble`] is the only code that reads instruction bytes. It
//! recovers the full structural form: opcode group, prefixes (legacy,
//! REX, REXBC, predicate), ModRM register fields, addressing mode,
//! displacement and immediate widths. The hardware ILD's job, lengths
//! and prefix flags only, is a projection of that walk
//! ([`InstLengthDecoder`](crate::encoding::InstLengthDecoder)), and the
//! stream decoders of both share one stream loop, so the two cannot
//! disagree on any input. The walk is bounded by [`MAX_INST_LEN`], which
//! keeps it total on hostile bytes such as long prefix runs. It is
//! property-tested to invert the encoder.

use std::fmt;

use crate::encoding::{DecodeError, OpcodeRow, MAX_INST_LEN, PREDICATE_MARKER, REXBC_MARKER};
use crate::error::StreamError;
use crate::inst::{AddressingMode, MacroOpcode};

/// A disassembled instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disassembled {
    /// Opcode group.
    pub opcode: MacroOpcode,
    /// Total length in bytes, in `1..=MAX_INST_LEN`.
    pub len: u8,
    /// Legacy prefix count.
    pub legacy_prefixes: u8,
    /// REX prefix present.
    pub has_rex: bool,
    /// REX.W (64-bit operand) set.
    pub rex_w: bool,
    /// REXBC prefix present (registers 16..64 addressable).
    pub has_rexbc: bool,
    /// Predicate register, if the predicate prefix is present.
    pub predicate: Option<(u8, bool)>,
    /// ModRM `reg` field (extended with REX.R / REXBC bits when present).
    pub reg: Option<u8>,
    /// ModRM `rm` field or memory base (extended likewise).
    pub rm: Option<u8>,
    /// SIB index register (extended likewise), when the instruction has
    /// a base+index addressing mode.
    pub index: Option<u8>,
    /// Addressing mode, if the instruction has a memory operand.
    pub mode: Option<AddressingMode>,
    /// Displacement width in bytes.
    pub disp_bytes: u8,
    /// Immediate width in bytes.
    pub imm_bytes: u8,
    /// Immediate value, sign-extended from its encoded width (0 when
    /// `imm_bytes` is 0). Branch/jump/call displacements are relative to
    /// the end of the instruction.
    pub imm: i32,
}

impl fmt::Display for Disassembled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some((p, neg)) = self.predicate {
            write!(f, "({}r{p}) ", if neg { "!" } else { "" })?;
        }
        write!(f, "{:?}", self.opcode)?;
        if let Some(r) = self.reg {
            write!(f, " r{r}")?;
        }
        match (self.mode, self.rm) {
            (Some(m), Some(rm)) => write!(f, ", [r{rm} {m:?} disp{}]", self.disp_bytes)?,
            (None, Some(rm)) => write!(f, ", r{rm}")?,
            _ => {}
        }
        if self.imm_bytes > 0 {
            write!(f, ", imm{}", self.imm_bytes)?;
        }
        Ok(())
    }
}

// The walk never reads past `MAX_INST_LEN`, so its lengths and prefix
// counts narrow to `u8` exactly.
const _: () = assert!(MAX_INST_LEN <= u8::MAX as usize);

/// Disassembles the instruction at the start of `bytes`.
///
/// This is the one byte walk of the format: prefixes, REXBC, predicate,
/// REX, opcode (classified by the opcode table in
/// [`encoding`](crate::encoding)), ModRM/SIB, displacement and
/// immediate. The length decoder projects its result. Every read is
/// checked against [`MAX_INST_LEN`] before the buffer, so an instruction
/// that would run past the limit is [`DecodeError::TooLong`] however
/// many bytes follow, and every accepted length is in
/// `1..=MAX_INST_LEN`.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncated streams, unknown opcodes, or
/// over-long instructions.
pub fn disassemble(bytes: &[u8]) -> Result<Disassembled, DecodeError> {
    let mut pos = 0usize;
    let next = |pos: &mut usize| -> Result<u8, DecodeError> {
        if *pos >= MAX_INST_LEN {
            return Err(DecodeError::TooLong);
        }
        let b = *bytes.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        Ok(b)
    };

    let mut b = next(&mut pos)?;
    while matches!(b, 0x66 | 0x67 | 0xF2 | 0xF3 | 0x2E | 0x3E) {
        b = next(&mut pos)?;
    }
    let legacy_prefixes = (pos - 1) as u8;
    let mut has_rexbc = false;
    let mut rexbc_payload = 0u8;
    if b == REXBC_MARKER {
        has_rexbc = true;
        rexbc_payload = next(&mut pos)?;
        b = next(&mut pos)?;
    }
    let mut predicate = None;
    if b == PREDICATE_MARKER {
        let payload = next(&mut pos)?;
        predicate = Some((payload & 0x7F, payload & 0x80 != 0));
        b = next(&mut pos)?;
    }
    let mut has_rex = false;
    let mut rex = 0u8;
    if (0x40..=0x4F).contains(&b) {
        has_rex = true;
        rex = b & 0x0F;
        b = next(&mut pos)?;
    }
    let escaped = if b == 0x0F {
        Some(next(&mut pos)?)
    } else {
        None
    };
    let row =
        OpcodeRow::lookup(b, escaped).ok_or(DecodeError::UnknownOpcode(escaped.unwrap_or(b)))?;

    // Reassemble extended register numbers: 3 ModRM/SIB/opcode bits +
    // 1 REX bit + 2 REXBC bits.
    let rex_r = (rex >> 2) & 1;
    let rex_x = (rex >> 1) & 1;
    let rex_b = rex & 1;
    let bc_r = (rexbc_payload >> 6) & 0x3;
    let bc_x = (rexbc_payload >> 4) & 0x3;
    let bc_b = (rexbc_payload >> 2) & 0x3;

    let mut reg = None;
    let mut rm = None;
    let mut index = None;
    let mut mode = None;
    let mut disp_bytes = 0u8;
    if row.reg_in_opcode {
        // B0+rb / B8+rd mov-immediate: the destination's low 3 bits sit
        // in the opcode byte; its high bits borrow the REX.b / REXBC
        // base-extension bits (there is no rm operand to collide with).
        reg = Some((b & 0x7) | (rex_b << 3) | (bc_b << 4));
    }
    if row.has_modrm {
        let modrm = next(&mut pos)?;
        let mod_bits = modrm >> 6;
        let reg_low = (modrm >> 3) & 0x7;
        let rm_low = modrm & 0x7;
        reg = Some(reg_low | (rex_r << 3) | (bc_r << 4));
        let mut base = rm_low | (rex_b << 3) | (bc_b << 4);
        if mod_bits != 0b11 && rm_low == 0b100 {
            let sib = next(&mut pos)?;
            let sib_base = sib & 0x7;
            base = sib_base | (rex_b << 3) | (bc_b << 4);
            // SIB index 0b100 with no extension bits means "no index"
            // (the encoder's escape for base-only forms).
            let full_index = ((sib >> 3) & 0x7) | (rex_x << 3) | (bc_x << 4);
            mode = Some(if full_index == 0b100 {
                AddressingMode::BaseOnly
            } else {
                index = Some(full_index);
                AddressingMode::BaseIndexScaleDisp
            });
        }
        disp_bytes = match (mod_bits, rm_low) {
            (0b00, 0b101) => {
                mode = Some(AddressingMode::Absolute);
                4
            }
            (0b01, _) => 1,
            (0b10, _) => 4,
            _ => disp_bytes,
        };
        if mod_bits != 0b11 && mode.is_none() {
            mode = Some(if disp_bytes > 0 {
                AddressingMode::BaseDisp
            } else {
                AddressingMode::BaseOnly
            });
        }
        if mod_bits != 0b11 && mode == Some(AddressingMode::BaseOnly) && disp_bytes > 0 {
            mode = Some(AddressingMode::BaseDisp);
        }
        rm = Some(base);
        for _ in 0..disp_bytes {
            next(&mut pos)?;
        }
    }
    let imm_start = pos;
    for _ in 0..row.imm_bytes {
        next(&mut pos)?;
    }
    let imm = match bytes.get(imm_start..pos) {
        Some(&[b0]) => b0 as i8 as i32,
        Some(&[b0, b1, b2, b3]) => i32::from_le_bytes([b0, b1, b2, b3]),
        _ => 0,
    };

    Ok(Disassembled {
        opcode: row.opcode,
        len: pos as u8,
        legacy_prefixes,
        has_rex,
        rex_w: has_rex && (rex & 0x8) != 0,
        has_rexbc,
        predicate,
        reg,
        rm,
        index,
        mode,
        disp_bytes,
        imm_bytes: row.imm_bytes,
        imm,
    })
}

/// A disassembled instruction together with its byte position in the
/// stream it came from.
///
/// The offsets are the stable program-point coordinates static analyses
/// key on (CFG leaders, migration points): `offset` is the first byte
/// of the instruction and `offset + inst.len` is the first byte of its
/// successor, so branch targets resolve without re-deriving lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpannedInst {
    /// Byte offset of the instruction's first byte within the stream.
    pub offset: usize,
    /// The disassembled instruction (its `len` gives the span width).
    pub inst: Disassembled,
}

/// The one stream loop: walks `bytes` instruction by instruction and
/// keeps `project(offset, inst)` of each. The walk consumes at least one
/// byte per instruction, so the loop always advances.
pub(crate) fn walk_stream<T>(
    bytes: &[u8],
    mut project: impl FnMut(usize, Disassembled) -> T,
) -> Result<Vec<T>, StreamError> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let inst = disassemble(&bytes[offset..]).map_err(|source| StreamError {
            offset,
            index: out.len(),
            source,
        })?;
        out.push(project(offset, inst));
        offset += inst.len as usize;
    }
    Ok(out)
}

/// Disassembles a whole stream, recording each instruction's byte
/// offset.
///
/// # Errors
///
/// Fails on the first undecodable instruction. The [`StreamError`]
/// reports the failing instruction's index and how many bytes were
/// consumed by the instructions that decoded cleanly before it.
pub fn disassemble_stream_with_offsets(bytes: &[u8]) -> Result<Vec<SpannedInst>, StreamError> {
    walk_stream(bytes, |offset, inst| SpannedInst { offset, inst })
}

/// Disassembles a whole stream.
///
/// # Errors
///
/// Fails on the first undecodable instruction. The [`StreamError`]
/// reports the failing instruction's index and how many bytes were
/// consumed by the instructions that decoded cleanly before it.
pub fn disassemble_stream(bytes: &[u8]) -> Result<Vec<Disassembled>, StreamError> {
    walk_stream(bytes, |_, inst| inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoder;
    use crate::error::IsaError;
    use crate::inst::{MachineInst, MemLocality, MemOperand, Operand};
    use crate::{ArchReg, FeatureSet};

    /// Round-trips one instruction through encode + disassemble,
    /// propagating encode/decode errors instead of unwrapping so a
    /// failure reports the full instruction-context diagnostic.
    fn roundtrip(inst: &MachineInst) -> Result<Disassembled, IsaError> {
        let enc = Encoder::new(FeatureSet::superset())
            .encode(inst)
            .map_err(|source| IsaError::Encode { index: 0, source })?;
        let d = disassemble(&enc.bytes).map_err(|source| StreamError {
            offset: 0,
            index: 0,
            source,
        })?;
        assert_eq!(d.len as usize, enc.len(), "{inst}");
        assert_eq!(d.opcode, inst.opcode, "{inst}");
        assert_eq!(d.has_rexbc, enc.has_rexbc, "{inst}");
        assert_eq!(d.predicate.is_some(), enc.has_predicate, "{inst}");
        Ok(d)
    }

    #[test]
    fn disassembles_plain_alu() -> Result<(), IsaError> {
        let i = MachineInst::compute(
            MacroOpcode::IntAlu,
            ArchReg::gpr(3),
            Operand::Reg(ArchReg::gpr(5)),
            Operand::Reg(ArchReg::gpr(6)),
        );
        let d = roundtrip(&i)?;
        assert_eq!(d.reg, Some(3));
        assert!(!d.has_rex);
        assert_eq!(d.mode, None);
        Ok(())
    }

    #[test]
    fn recovers_extended_registers() -> Result<(), IsaError> {
        let i = MachineInst::compute(
            MacroOpcode::IntAlu,
            ArchReg::gpr(45),
            Operand::Reg(ArchReg::gpr(2)),
            Operand::None,
        );
        let d = roundtrip(&i)?;
        // 45 = 0b101101: low 3 bits 101, REX.R bit 1, REXBC bits 10.
        assert_eq!(d.reg, Some(45));
        assert!(d.has_rexbc);
        assert!(d.has_rex);
        Ok(())
    }

    #[test]
    fn recovers_predicates() -> Result<(), IsaError> {
        let i = MachineInst::compute(
            MacroOpcode::IntAlu,
            ArchReg::gpr(1),
            Operand::Reg(ArchReg::gpr(2)),
            Operand::None,
        )
        .predicated_on(ArchReg::gpr(9), true);
        let d = roundtrip(&i)?;
        assert_eq!(d.predicate, Some((9, true)));
        assert!(d.to_string().starts_with("(!r9)"));
        Ok(())
    }

    #[test]
    fn recovers_memory_bases() -> Result<(), IsaError> {
        let i = MachineInst::load(
            ArchReg::gpr(1),
            MemOperand::base_disp(ArchReg::gpr(20), 4, MemLocality::Stream),
        );
        let d = roundtrip(&i)?;
        assert_eq!(d.opcode, MacroOpcode::Load);
        assert_eq!(d.rm, Some(20));
        assert_eq!(d.mode, Some(AddressingMode::BaseDisp));
        assert_eq!(d.disp_bytes, 4);
        Ok(())
    }

    #[test]
    fn recovers_wide_flag() -> Result<(), IsaError> {
        let i = MachineInst::compute(
            MacroOpcode::IntAlu,
            ArchReg::gpr(1),
            Operand::Reg(ArchReg::gpr(2)),
            Operand::None,
        )
        .wide();
        let d = roundtrip(&i)?;
        assert!(d.rex_w);
        Ok(())
    }

    #[test]
    fn stream_disassembly() -> Result<(), IsaError> {
        let enc = Encoder::new(FeatureSet::superset());
        let insts = [
            MachineInst::compute(
                MacroOpcode::IntAlu,
                ArchReg::gpr(20),
                Operand::Reg(ArchReg::gpr(2)),
                Operand::None,
            ),
            MachineInst::branch(),
            MachineInst::jump(),
        ];
        let stream = enc.encode_stream(&insts)?;
        let ds = disassemble_stream(&stream)?;
        assert_eq!(ds.len(), 3);
        assert_eq!(ds[1].opcode, MacroOpcode::Branch);
        assert_eq!(ds[2].opcode, MacroOpcode::Jump);
        Ok(())
    }

    #[test]
    fn stream_offsets_roundtrip_encoded_lengths() -> Result<(), IsaError> {
        // Pin: `disassemble_stream_with_offsets` reports exactly the
        // offsets at which the encoder placed each instruction (the
        // prefix sums of the encoded lengths), so CFG leader detection
        // can key on them without re-deriving lengths.
        let enc = Encoder::new(FeatureSet::superset());
        let insts = [
            MachineInst::compute(
                MacroOpcode::IntAlu,
                ArchReg::gpr(40),
                Operand::Reg(ArchReg::gpr(2)),
                Operand::None,
            ),
            MachineInst::compute(
                MacroOpcode::Mov,
                ArchReg::gpr(3),
                Operand::Imm(4),
                Operand::None,
            ),
            MachineInst::load(
                ArchReg::gpr(1),
                MemOperand::base_disp(ArchReg::gpr(20), 4, MemLocality::Stream),
            ),
            MachineInst::branch(),
            MachineInst::jump(),
        ];
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for i in &insts {
            expected.push(stream.len());
            stream.extend_from_slice(
                &enc.encode(i)
                    .map_err(|source| IsaError::Encode { index: 0, source })?
                    .bytes,
            );
        }
        let spanned = disassemble_stream_with_offsets(&stream)?;
        let offsets: Vec<usize> = spanned.iter().map(|s| s.offset).collect();
        assert_eq!(offsets, expected);
        let last = spanned.last().expect("non-empty stream");
        assert_eq!(last.offset + last.inst.len as usize, stream.len());
        // The plain stream API stays a projection of the spanned one.
        let plain = disassemble_stream(&stream)?;
        let projected: Vec<Disassembled> = spanned.iter().map(|s| s.inst).collect();
        assert_eq!(plain, projected);
        Ok(())
    }

    #[test]
    fn mov_immediate_recovers_destination() -> Result<(), IsaError> {
        // The B0+rb / B8+rd forms carry the destination in the opcode
        // byte plus the REX.b / REXBC base-extension bits.
        for dst in [0u8, 3, 7, 9, 15, 20, 45, 63] {
            let i = MachineInst::compute(
                MacroOpcode::Mov,
                ArchReg::gpr(dst),
                Operand::Imm(4),
                Operand::None,
            );
            let d = roundtrip(&i)?;
            assert_eq!(d.reg, Some(dst), "mov-imm dst {dst}");
            assert_eq!(d.imm_bytes, 4);
        }
        let i8form = MachineInst::compute(
            MacroOpcode::Mov,
            ArchReg::gpr(11),
            Operand::Imm(1),
            Operand::None,
        );
        let d = roundtrip(&i8form)?;
        assert_eq!(d.reg, Some(11));
        assert_eq!(d.imm_bytes, 1);
        Ok(())
    }

    #[test]
    fn recovers_sib_index_register() -> Result<(), IsaError> {
        for idx in [3u8, 12, 20, 36] {
            let i = MachineInst::load(
                ArchReg::gpr(1),
                MemOperand::base_index(ArchReg::gpr(2), ArchReg::gpr(idx), 4, MemLocality::Stream),
            );
            let d = roundtrip(&i)?;
            assert_eq!(
                d.mode,
                Some(AddressingMode::BaseIndexScaleDisp),
                "idx {idx}"
            );
            assert_eq!(d.index, Some(idx), "idx {idx}");
        }
        // Base-only forms report no index.
        let plain = MachineInst::load(
            ArchReg::gpr(1),
            MemOperand::base_only(ArchReg::gpr(4), MemLocality::Stack),
        );
        let d = roundtrip(&plain)?;
        assert_eq!(d.index, None);
        Ok(())
    }

    #[test]
    fn recovers_immediate_values() -> Result<(), IsaError> {
        // The encoder emits deterministic placeholder immediates
        // (0x20, 0x21, ...); the disassembler must read them back as a
        // little-endian signed value.
        let i = MachineInst::compute(
            MacroOpcode::IntAlu,
            ArchReg::gpr(1),
            Operand::Imm(4),
            Operand::None,
        );
        let d = roundtrip(&i)?;
        assert_eq!(d.imm, i32::from_le_bytes([0x20, 0x21, 0x22, 0x23]));
        // Sign extension of one-byte immediates.
        let neg = disassemble(&[0x83, 0xC8, 0xFF]).map_err(|source| StreamError {
            offset: 0,
            index: 0,
            source,
        })?;
        assert_eq!(neg.imm, -1);
        Ok(())
    }

    #[test]
    fn errors_match_the_ild() {
        assert_eq!(disassemble(&[]), Err(DecodeError::Truncated));
        assert_eq!(disassemble(&[0xFF]), Err(DecodeError::UnknownOpcode(0xFF)));
    }

    #[test]
    fn stream_errors_carry_consumed_bytes() -> Result<(), IsaError> {
        let enc = Encoder::new(FeatureSet::superset());
        let good = MachineInst::compute(
            MacroOpcode::IntAlu,
            ArchReg::gpr(1),
            Operand::Reg(ArchReg::gpr(2)),
            Operand::None,
        );
        let mut stream = enc.encode_stream(&[good, good])?;
        let clean = stream.len();
        stream.extend_from_slice(&[0xFF, 0x00]);
        let err = disassemble_stream(&stream).unwrap_err();
        assert_eq!(err.index, 2);
        assert_eq!(err.consumed(), clean);
        assert_eq!(err.source, DecodeError::UnknownOpcode(0xFF));
        Ok(())
    }
}
