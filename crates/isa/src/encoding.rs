//! The superset ISA's variable-length instruction encoding (Section V-A,
//! Figure 3) and a byte-accurate instruction-length decoder.
//!
//! Layout (in order):
//!
//! ```text
//! [legacy prefixes]* [REXBC: 0xD6 pp]? [predicate: 0xF1 pp]? [REX]?
//! [opcode (1-2 bytes)] [ModRM]? [SIB]? [disp 0/1/4] [imm 0/1/4]
//! ```
//!
//! - The **REXBC** prefix (marker byte `0xD6`, an unused x86 opcode, plus
//!   one payload byte) carries 2 extra bits per register operand,
//!   extending addressable register depth to 64 and lifting x86's
//!   sub-register pairing restrictions.
//! - The **predicate** prefix (marker `0xF1` plus one payload byte)
//!   encodes the predicate register (bits 0-6) and the true/not-true
//!   sense (bit 7).
//!
//! The format is described once, by the opcode table (`OPCODES`: opcode
//! bytes, macro-op group, ModRM, immediate width). [`Encoder`] turns a
//! [`MachineInst`] into bytes for a given [`FeatureSet`] by picking a row
//! of it. Bytes are read back by one bounded walk,
//! [`disassemble`], which classifies the
//! opcode by the same table. [`InstLengthDecoder`], the lengths and
//! prefix flags the hardware ILD marks, is a projection of that walk.
//! Encoder and walk are property-tested to stay inverse.

use std::fmt;

use crate::disasm::{disassemble, walk_stream, Disassembled};
use crate::error::{IsaError, StreamError};
use crate::feature_set::{FeatureSet, RegisterWidth};
use crate::inst::{AddressingMode, MachineInst, MacroOpcode};
use crate::regs::{ArchReg, EncodingTier};

/// Marker byte of the REXBC prefix (recycled unused opcode `0xd6`).
pub const REXBC_MARKER: u8 = 0xD6;
/// Marker byte of the predicate prefix (recycled unused opcode `0xf1`).
pub const PREDICATE_MARKER: u8 = 0xF1;
/// Architectural maximum instruction length: x86's 15 bytes plus the 2
/// bytes by which the paper widens the macro-op queue to accommodate the
/// REXBC and predicate prefixes (Section V-B).
pub const MAX_INST_LEN: usize = 17;

/// An encoded instruction: raw bytes plus a structural breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedInst {
    /// The raw instruction bytes.
    pub bytes: Vec<u8>,
    /// Number of legacy prefix bytes.
    pub legacy_prefixes: u8,
    /// Whether a REXBC prefix (2 bytes) is present.
    pub has_rexbc: bool,
    /// Whether a predicate prefix (2 bytes) is present.
    pub has_predicate: bool,
    /// Whether a REX prefix is present.
    pub has_rex: bool,
    /// Opcode length in bytes (1 or 2).
    pub opcode_len: u8,
    /// Whether a ModRM byte is present.
    pub has_modrm: bool,
    /// Whether a SIB byte is present.
    pub has_sib: bool,
    /// Displacement bytes (0, 1 or 4).
    pub disp_bytes: u8,
    /// Immediate bytes (0, 1 or 4).
    pub imm_bytes: u8,
}

impl EncodedInst {
    /// Total encoded length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the encoding is empty (never true for a valid encoding).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Errors the encoder can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The instruction is not legal under the target feature set.
    IllegalUnderFeatureSet {
        /// Rendered instruction.
        inst: String,
        /// Rendered feature set.
        feature_set: String,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::IllegalUnderFeatureSet { inst, feature_set } => {
                write!(
                    f,
                    "instruction {inst:?} is not legal under feature set {feature_set}"
                )
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// One row of [`OPCODES`]: the bytes of one opcode form and what follows
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OpcodeRow {
    /// Opcode bytes: one, or two behind the `0x0F` escape.
    pub(crate) bytes: &'static [u8],
    /// The macro-op group the form belongs to.
    pub(crate) opcode: MacroOpcode,
    /// Whether a ModRM byte (and so maybe SIB and displacement) follows.
    pub(crate) has_modrm: bool,
    /// Immediate bytes after the operand bytes.
    pub(crate) imm_bytes: u8,
    /// `B0+rb` / `B8+rd`: the low 3 bits of the opcode byte carry the
    /// destination register, so the row covers 8 byte values.
    pub(crate) reg_in_opcode: bool,
}

const fn row(bytes: &'static [u8], opcode: MacroOpcode, has_modrm: bool, imm: u8) -> OpcodeRow {
    OpcodeRow {
        bytes,
        opcode,
        has_modrm,
        imm_bytes: imm,
        reg_in_opcode: false,
    }
}

const fn reg_in_opcode(bytes: &'static [u8], opcode: MacroOpcode, imm: u8) -> OpcodeRow {
    OpcodeRow {
        reg_in_opcode: true,
        ..row(bytes, opcode, false, imm)
    }
}

/// The opcode table: the one description of every opcode form, read by
/// the [`Encoder`] to pick bytes and by the byte walk
/// ([`disassemble`]) to classify them.
///
/// Byte values follow real x86 where a natural analogue exists (e.g.
/// `0x0F 0xAF` imul, `0xE9` jmp rel32, `0x0F 0x44` cmov). A group's
/// first row is its form when no row matches the immediate width.
const OPCODES: [OpcodeRow; 21] = [
    row(&[0x89], MacroOpcode::Mov, true, 0),
    reg_in_opcode(&[0xB0], MacroOpcode::Mov, 1),
    reg_in_opcode(&[0xB8], MacroOpcode::Mov, 4),
    row(&[0xC6], MacroOpcode::Mov, true, 1),
    row(&[0xC7], MacroOpcode::Mov, true, 4),
    row(&[0x01], MacroOpcode::IntAlu, true, 0),
    row(&[0x83], MacroOpcode::IntAlu, true, 1),
    row(&[0x81], MacroOpcode::IntAlu, true, 4),
    row(&[0x0F, 0xAF], MacroOpcode::IntMul, true, 0),
    row(&[0x8D], MacroOpcode::Lea, true, 0),
    row(&[0x8B], MacroOpcode::Load, true, 0),
    row(&[0x88], MacroOpcode::Store, true, 0),
    row(&[0x0F, 0x58], MacroOpcode::FpAlu, true, 0),
    row(&[0x0F, 0x59], MacroOpcode::FpMul, true, 0),
    row(&[0x0F, 0xFE], MacroOpcode::VecAlu, true, 0),
    row(&[0x0F, 0x84], MacroOpcode::Branch, false, 4),
    row(&[0xE9], MacroOpcode::Jump, false, 4),
    row(&[0xE8], MacroOpcode::Call, false, 4),
    row(&[0xC3], MacroOpcode::Ret, false, 0),
    row(&[0x0F, 0x44], MacroOpcode::Cmov, true, 0),
    row(&[0x90], MacroOpcode::Nop, false, 0),
];

impl OpcodeRow {
    /// The form an instruction encodes with: its group's row for its
    /// immediate width (a register-in-opcode row only without a memory
    /// operand), else the group's first row.
    fn for_inst(inst: &MachineInst) -> &'static OpcodeRow {
        let imm = match inst.src1.imm_bytes().max(inst.src2.imm_bytes()) {
            0 => 0,
            1 => 1,
            _ => 4,
        };
        let mut group = OPCODES.iter().filter(|r| r.opcode == inst.opcode);
        group
            .clone()
            .find(|r| r.imm_bytes == imm && !(r.reg_in_opcode && inst.mem.is_some()))
            .or_else(|| group.next())
            .expect("every MacroOpcode has an opcode row")
    }

    /// The row an opcode byte selects; `escaped` is the byte after a
    /// `0x0F` escape.
    pub(crate) fn lookup(first: u8, escaped: Option<u8>) -> Option<&'static OpcodeRow> {
        OPCODES.iter().find(|r| match (r.bytes, escaped) {
            (&[escape, second], Some(b)) => escape == first && second == b,
            (&[only], None) => only == first || (r.reg_in_opcode && only == first & !0x7),
            _ => false,
        })
    }
}

/// Encodes [`MachineInst`]s into superset-ISA bytes.
///
/// # Example
///
/// ```
/// use cisa_isa::{Encoder, FeatureSet, ArchReg};
/// use cisa_isa::inst::{MachineInst, MacroOpcode, Operand};
///
/// let enc = Encoder::new(FeatureSet::superset());
/// // Using register r40 forces the 2-byte REXBC prefix.
/// let inst = MachineInst::compute(
///     MacroOpcode::IntAlu, ArchReg::gpr(40), Operand::Reg(ArchReg::gpr(2)), Operand::None);
/// let bytes = enc.encode(&inst)?;
/// assert!(bytes.has_rexbc);
/// # Ok::<(), cisa_isa::encoding::EncodeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    fs: FeatureSet,
}

impl Encoder {
    /// Creates an encoder targeting the given feature set.
    pub fn new(fs: FeatureSet) -> Self {
        Encoder { fs }
    }

    /// The feature set this encoder targets.
    pub fn feature_set(&self) -> &FeatureSet {
        &self.fs
    }

    /// Encodes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::IllegalUnderFeatureSet`] if the
    /// instruction uses features the target set lacks.
    pub fn encode(&self, inst: &MachineInst) -> Result<EncodedInst, EncodeError> {
        if !inst.legal_under(&self.fs) {
            return Err(EncodeError::IllegalUnderFeatureSet {
                inst: inst.to_string(),
                feature_set: self.fs.to_string(),
            });
        }
        let row = OpcodeRow::for_inst(inst);
        let mut bytes = Vec::with_capacity(8);

        // Legacy prefixes: SSE scalar/packed selection, mimicking real
        // x86 (0xF2 for scalar double ops, 0x66 for packed integer).
        let mut legacy = 0u8;
        match inst.opcode {
            MacroOpcode::FpAlu | MacroOpcode::FpMul => {
                bytes.push(0xF2);
                legacy += 1;
            }
            MacroOpcode::VecAlu => {
                bytes.push(0x66);
                legacy += 1;
            }
            _ => {}
        }

        // REXBC: needed when any register is in the 16..64 tier.
        let needs_rexbc = inst
            .registers()
            .any(|r| r.encoding_tier() == EncodingTier::Rexbc);
        if needs_rexbc {
            let payload = Self::rexbc_payload(inst, row);
            bytes.push(REXBC_MARKER);
            bytes.push(payload);
        }

        // Predicate prefix.
        let has_predicate = inst.predicate.is_some();
        if let Some(p) = inst.predicate {
            bytes.push(PREDICATE_MARKER);
            bytes.push(((p.negated as u8) << 7) | (p.reg.index() & 0x7F));
        }

        // REX: wide operation, any register in the 8..16 tier, or a
        // REXBC prefix (whose 2 extra bits per operand are combined with
        // the REX/ModRM/SIB bits to address all 64 registers).
        let needs_rex = needs_rexbc
            || (inst.wide && self.fs.width() == RegisterWidth::W64)
            || inst
                .registers()
                .any(|r| r.encoding_tier() >= EncodingTier::Rex);
        if needs_rex {
            let w = (inst.wide as u8) << 3;
            let rex_bits = Self::rex_bits(inst, row);
            bytes.push(0x40 | w | rex_bits);
        }

        bytes.extend_from_slice(row.bytes);
        // The register-form mov-immediate (B0+rb / B8+rd, no ModRM)
        // carries its destination in the opcode byte's low 3 bits; the
        // high bits ride the REX.b / REXBC base-extension bits via
        // `rm_register`. Without this the destination would be invisible
        // to the disassembler.
        if row.reg_in_opcode {
            if let (Some(dst), Some(last)) = (inst.dst, bytes.last_mut()) {
                *last |= dst.index() & 0x7;
            }
        }

        let mut has_modrm = false;
        let mut has_sib = false;
        let mut disp_bytes = 0u8;
        if row.has_modrm {
            has_modrm = true;
            let (modrm, sib, disp) = Self::modrm_sib(inst);
            bytes.push(modrm);
            if let Some(s) = sib {
                has_sib = true;
                bytes.push(s);
            }
            disp_bytes = disp;
            for i in 0..disp {
                bytes.push(0x10 + i); // deterministic placeholder displacement
            }
        }
        for i in 0..row.imm_bytes {
            bytes.push(0x20 + i); // deterministic placeholder immediate
        }

        debug_assert!(bytes.len() <= MAX_INST_LEN, "instruction too long: {inst}");
        Ok(EncodedInst {
            bytes,
            legacy_prefixes: legacy,
            has_rexbc: needs_rexbc,
            has_predicate,
            has_rex: needs_rex,
            opcode_len: row.bytes.len() as u8,
            has_modrm,
            has_sib,
            disp_bytes,
            imm_bytes: row.imm_bytes,
        })
    }

    /// Encodes a whole instruction sequence into one contiguous byte
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Encode`] identifying the first instruction
    /// that is not legal under this encoder's feature set.
    pub fn encode_stream(&self, insts: &[MachineInst]) -> Result<Vec<u8>, IsaError> {
        let mut bytes = Vec::with_capacity(insts.len() * 4);
        for (index, inst) in insts.iter().enumerate() {
            let enc = self
                .encode(inst)
                .map_err(|source| IsaError::Encode { index, source })?;
            bytes.extend_from_slice(&enc.bytes);
        }
        Ok(bytes)
    }

    /// The register that lands in the ModRM `rm` field (or the SIB base):
    /// the memory base when there is a memory operand, otherwise the
    /// register-direct rm operand chosen by [`Self::modrm_sib`]. The REX.b
    /// and REXBC base extension bits must cover exactly this register or
    /// high-register encodings collide.
    fn rm_register(inst: &MachineInst, row: &OpcodeRow) -> Option<ArchReg> {
        if row.reg_in_opcode {
            // Register-form mov-immediate (B0+rb / B8+rd): there is no
            // rm operand (any register source is dropped by the form),
            // so the base-extension bits cover the opcode-embedded
            // destination's high bits.
            return inst.dst;
        }
        inst.mem
            .map(|m| m.base)
            .or(inst.src2.reg())
            .or(inst.src1.reg())
    }

    fn rexbc_payload(inst: &MachineInst, row: &OpcodeRow) -> u8 {
        // 2 bits each for reg, index, base extension; low 2 bits lift
        // the sub-register pairing restrictions (always set here).
        let ext = |r: Option<ArchReg>| r.map_or(0, |r| (r.index() >> 4) & 0x3);
        let reg = ext(inst.dst.or(inst.src1.reg()));
        let index = ext(inst.mem.and_then(|m| m.index));
        let base = ext(Self::rm_register(inst, row));
        (reg << 6) | (index << 4) | (base << 2) | 0b11
    }

    fn rex_bits(inst: &MachineInst, row: &OpcodeRow) -> u8 {
        let bit = |r: Option<ArchReg>| r.map_or(0, |r| (r.index() >> 3) & 1);
        let r = bit(inst.dst.or(inst.src1.reg()));
        let x = bit(inst.mem.and_then(|m| m.index));
        let b = bit(Self::rm_register(inst, row));
        (r << 2) | (x << 1) | b
    }

    fn modrm_sib(inst: &MachineInst) -> (u8, Option<u8>, u8) {
        let reg_field = inst.dst.or(inst.src1.reg()).map_or(0, |r| r.index() & 0x7);
        match inst.mem {
            None => {
                // Register-direct: mod = 11.
                let rm = inst
                    .src2
                    .reg()
                    .or(inst.src1.reg())
                    .map_or(0, |r| r.index() & 0x7);
                (0b11 << 6 | reg_field << 3 | rm, None, 0)
            }
            Some(m) => {
                let (mod_bits, disp) = match (m.mode, m.disp_bytes) {
                    (AddressingMode::Absolute, _) => (0b00, 4),
                    (_, 0) => (0b00, 0),
                    (_, 1) => (0b01, 1),
                    _ => (0b10, 4),
                };
                match m.mode {
                    AddressingMode::Absolute => {
                        // mod=00 rm=101 -> disp32 absolute.
                        (reg_field << 3 | 0b101, None, disp)
                    }
                    AddressingMode::BaseIndexScaleDisp => {
                        let sib = (0b10 << 6) // scale 4
                            | ((m.index.map_or(0b100, |r| r.index() & 0x7)) << 3)
                            | (m.base.index() & 0x7);
                        (mod_bits << 6 | reg_field << 3 | 0b100, Some(sib), disp)
                    }
                    AddressingMode::BaseOnly | AddressingMode::BaseDisp => {
                        let base_low = m.base.index() & 0x7;
                        if base_low == 0b100 {
                            // rm=100 escapes to SIB; encode "no index".
                            let sib = (0b100 << 3) | base_low;
                            (mod_bits << 6 | reg_field << 3 | 0b100, Some(sib), disp)
                        } else if base_low == 0b101 && mod_bits == 0b00 {
                            // mod=00 rm=101 means absolute; force disp8.
                            (0b01 << 6 | reg_field << 3 | base_low, None, 1)
                        } else {
                            (mod_bits << 6 | reg_field << 3 | base_low, None, disp)
                        }
                    }
                }
            }
        }
    }
}

/// A decoded instruction length record produced by the ILD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedLength {
    /// Total instruction length in bytes.
    pub len: usize,
    /// Legacy prefix count.
    pub legacy_prefixes: u8,
    /// REXBC prefix present.
    pub has_rexbc: bool,
    /// Predicate prefix present.
    pub has_predicate: bool,
    /// REX prefix present.
    pub has_rex: bool,
}

impl DecodedLength {
    /// The ILD's view of one walked instruction.
    fn of(d: Disassembled) -> Self {
        DecodedLength {
            len: d.len as usize,
            legacy_prefixes: d.legacy_prefixes,
            has_rexbc: d.has_rexbc,
            has_predicate: d.predicate.is_some(),
            has_rex: d.has_rex,
        }
    }
}

/// Errors from length decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of bytes mid-instruction.
    Truncated,
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// Instruction exceeds the [`MAX_INST_LEN`]-byte architectural limit.
    TooLong,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "byte stream ends mid-instruction"),
            DecodeError::UnknownOpcode(b) => write!(f, "unknown opcode byte {b:#04x}"),
            DecodeError::TooLong => write!(f, "instruction exceeds {MAX_INST_LEN} bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The instruction-length decoder: the lengths and prefix flags the
/// hardware ILD of Section V-B marks (prefix scan, length calculation,
/// boundaries). It is a projection of the one byte walk,
/// [`disassemble`], so the two cannot
/// disagree.
#[derive(Debug, Clone, Default)]
pub struct InstLengthDecoder;

impl InstLengthDecoder {
    /// Creates a length decoder.
    pub fn new() -> Self {
        InstLengthDecoder
    }

    /// Decodes the length (and prefix structure) of the instruction at
    /// the start of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated streams, unknown opcodes, or
    /// over-long instructions.
    pub fn decode_one(&self, bytes: &[u8]) -> Result<DecodedLength, DecodeError> {
        disassemble(bytes).map(DecodedLength::of)
    }

    /// Decodes a whole byte stream into consecutive instruction lengths.
    ///
    /// # Errors
    ///
    /// Fails if any instruction fails to decode — trailing garbage is
    /// an error too. The returned [`StreamError`] reports the failing
    /// instruction's index and byte offset (= bytes successfully
    /// consumed), so callers can keep the clean prefix.
    pub fn decode_stream(&self, bytes: &[u8]) -> Result<Vec<DecodedLength>, StreamError> {
        walk_stream(bytes, |_, d| DecodedLength::of(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{MemLocality, MemOperand, Operand};

    fn r(i: u8) -> ArchReg {
        ArchReg::gpr(i)
    }

    fn roundtrip(inst: &MachineInst, fs: FeatureSet) {
        let enc = Encoder::new(fs).encode(inst).expect("encodes");
        let dec = InstLengthDecoder::new()
            .decode_one(&enc.bytes)
            .expect("decodes");
        assert_eq!(dec.len, enc.bytes.len(), "length mismatch for {inst}");
        assert_eq!(dec.has_rexbc, enc.has_rexbc, "{inst}");
        assert_eq!(dec.has_predicate, enc.has_predicate, "{inst}");
        assert_eq!(dec.has_rex, enc.has_rex, "{inst}");
        assert_eq!(dec.legacy_prefixes, enc.legacy_prefixes, "{inst}");
    }

    #[test]
    fn simple_alu_is_two_bytes() {
        let i = MachineInst::compute(
            MacroOpcode::IntAlu,
            r(1),
            Operand::Reg(r(2)),
            Operand::Reg(r(3)),
        );
        let enc = Encoder::new(FeatureSet::x86_64()).encode(&i).unwrap();
        assert_eq!(enc.bytes.len(), 2); // opcode + modrm
        roundtrip(&i, FeatureSet::x86_64());
    }

    #[test]
    fn rexbc_register_adds_two_bytes() {
        let lo = MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(2)), Operand::None);
        let hi = MachineInst::compute(
            MacroOpcode::IntAlu,
            r(40),
            Operand::Reg(r(2)),
            Operand::None,
        );
        let enc = Encoder::new(FeatureSet::superset());
        let lo_len = enc.encode(&lo).unwrap().len();
        let hi_len = enc.encode(&hi).unwrap().len();
        // REXBC is 2 bytes and always rides with a REX prefix (its 2
        // extra bits per operand combine with the REX bit).
        assert_eq!(hi_len, lo_len + 3);
        roundtrip(&hi, FeatureSet::superset());
    }

    #[test]
    fn predicate_prefix_adds_two_bytes() {
        let plain =
            MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(2)), Operand::None);
        let pred = plain.predicated_on(r(5), true);
        let enc = Encoder::new(FeatureSet::superset());
        assert_eq!(
            enc.encode(&pred).unwrap().len(),
            enc.encode(&plain).unwrap().len() + 2
        );
        roundtrip(&pred, FeatureSet::superset());
    }

    #[test]
    fn rex_register_adds_one_byte() {
        let lo = MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(2)), Operand::None);
        let hi = MachineInst::compute(MacroOpcode::IntAlu, r(9), Operand::Reg(r(2)), Operand::None);
        let enc = Encoder::new(FeatureSet::x86_64());
        assert_eq!(
            enc.encode(&hi).unwrap().len(),
            enc.encode(&lo).unwrap().len() + 1
        );
    }

    #[test]
    fn illegal_instruction_is_rejected() {
        let v = MachineInst::compute(MacroOpcode::VecAlu, r(1), Operand::Reg(r(2)), Operand::None);
        assert!(Encoder::new(FeatureSet::minimal()).encode(&v).is_err());
    }

    #[test]
    fn addressing_modes_roundtrip() {
        let fs = FeatureSet::x86_64();
        let cases = [
            MachineInst::load(r(1), MemOperand::base_only(r(2), MemLocality::Stack)),
            MachineInst::load(r(1), MemOperand::base_disp(r(2), 1, MemLocality::Stack)),
            MachineInst::load(r(1), MemOperand::base_disp(r(2), 4, MemLocality::Stream)),
            MachineInst::load(
                r(1),
                MemOperand::base_index(r(2), r(3), 4, MemLocality::Stream),
            ),
            MachineInst::load(
                r(1),
                MemOperand::base_index(r(2), r(3), 0, MemLocality::Stream),
            ),
            // rm=100 escape: base register 4 needs a SIB byte.
            MachineInst::load(r(1), MemOperand::base_only(r(4), MemLocality::Stack)),
            // rm=101 with mod=00 would alias absolute: forced disp8.
            MachineInst::load(r(1), MemOperand::base_only(r(5), MemLocality::Stack)),
            MachineInst::store(
                r(1),
                MemOperand::base_disp(r(6), 4, MemLocality::WorkingSet),
            ),
        ];
        for inst in &cases {
            roundtrip(inst, fs);
        }
    }

    #[test]
    fn control_flow_roundtrips() {
        let fs = FeatureSet::x86_64();
        for inst in [
            MachineInst::branch(),
            MachineInst::jump(),
            MachineInst {
                opcode: MacroOpcode::Call,
                ..MachineInst::jump()
            },
            MachineInst {
                opcode: MacroOpcode::Ret,
                ..MachineInst::jump()
            },
        ] {
            roundtrip(&inst, fs);
        }
    }

    #[test]
    fn sse_ops_carry_legacy_prefix() {
        let fs = FeatureSet::x86_64();
        let v = MachineInst::compute(MacroOpcode::VecAlu, r(1), Operand::Reg(r(2)), Operand::None);
        let f = MachineInst::compute(MacroOpcode::FpAlu, r(1), Operand::Reg(r(2)), Operand::None);
        assert_eq!(Encoder::new(fs).encode(&v).unwrap().legacy_prefixes, 1);
        assert_eq!(Encoder::new(fs).encode(&f).unwrap().legacy_prefixes, 1);
        roundtrip(&v, fs);
        roundtrip(&f, fs);
    }

    #[test]
    fn stream_decode_walks_multiple_instructions() {
        let fs = FeatureSet::superset();
        let enc = Encoder::new(fs);
        let insts = [
            MachineInst::compute(
                MacroOpcode::IntAlu,
                r(20),
                Operand::Reg(r(2)),
                Operand::None,
            ),
            MachineInst::load(r(1), MemOperand::base_disp(r(2), 4, MemLocality::Stack)),
            MachineInst::branch(),
        ];
        let mut stream = Vec::new();
        for i in &insts {
            stream.extend_from_slice(&enc.encode(i).unwrap().bytes);
        }
        let decoded = InstLengthDecoder::new().decode_stream(&stream).unwrap();
        assert_eq!(decoded.len(), 3);
        assert!(decoded[0].has_rexbc);
        assert!(!decoded[1].has_rexbc);
    }

    #[test]
    fn decode_errors() {
        let ild = InstLengthDecoder::new();
        assert_eq!(ild.decode_one(&[]), Err(DecodeError::Truncated));
        assert_eq!(
            ild.decode_one(&[0xFF]),
            Err(DecodeError::UnknownOpcode(0xFF))
        );
        assert_eq!(ild.decode_one(&[0x83, 0xC0]), Err(DecodeError::Truncated)); // missing imm8

        // 16 prefixes + nop is exactly MAX_INST_LEN bytes; one more
        // prefix is too long, however many bytes follow.
        let mut nop = vec![0x66; MAX_INST_LEN - 1];
        nop.push(0x90);
        assert_eq!(ild.decode_one(&nop).map(|d| d.len), Ok(MAX_INST_LEN));
        nop.insert(0, 0x66);
        assert_eq!(ild.decode_one(&nop), Err(DecodeError::TooLong));
        assert_eq!(ild.decode_one(&[0x66; 300]), Err(DecodeError::TooLong));
        assert_eq!(
            DecodeError::TooLong.to_string(),
            "instruction exceeds 17 bytes"
        );
    }

    #[test]
    fn every_opcode_row_classifies_to_itself() {
        for row in &OPCODES {
            let (first, escaped) = match row.bytes {
                &[escape, second] => (escape, Some(second)),
                bytes => (bytes[0], None),
            };
            let low_bits = if row.reg_in_opcode { 0..8 } else { 0..1 };
            for low in low_bits {
                assert_eq!(OpcodeRow::lookup(first | low, escaped), Some(row));
            }
        }
    }

    #[test]
    fn stream_errors_report_consumed_bytes() {
        let enc = Encoder::new(FeatureSet::superset());
        let good = MachineInst::compute(
            MacroOpcode::IntAlu,
            r(1),
            Operand::Reg(r(2)),
            Operand::Reg(r(3)),
        );
        let mut stream = enc.encode(&good).unwrap().bytes;
        let clean_len = stream.len();
        stream.push(0xFF); // garbage tail
        let err = InstLengthDecoder::new().decode_stream(&stream).unwrap_err();
        assert_eq!(err.index, 1, "first instruction decodes cleanly");
        assert_eq!(err.consumed(), clean_len);
        assert_eq!(err.source, DecodeError::UnknownOpcode(0xFF));
    }

    #[test]
    fn encode_stream_reports_failing_instruction() {
        let enc = Encoder::new(FeatureSet::minimal());
        let legal =
            MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(2)), Operand::None);
        let illegal =
            MachineInst::compute(MacroOpcode::VecAlu, r(1), Operand::Reg(r(2)), Operand::None);
        let err = enc.encode_stream(&[legal, illegal]).unwrap_err();
        match err {
            IsaError::Encode { index, .. } => assert_eq!(index, 1),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(enc.encode_stream(&[legal, legal]).is_ok());
    }

    #[test]
    fn wide_ops_set_rex_w() {
        let fs = FeatureSet::x86_64();
        let i = MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(2)), Operand::None)
            .wide();
        let enc = Encoder::new(fs).encode(&i).unwrap();
        assert!(enc.has_rex);
        roundtrip(&i, fs);
    }

    #[test]
    fn immediates_lengthen_encoding() {
        let fs = FeatureSet::x86_64();
        let enc = Encoder::new(fs);
        let i8 = MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Imm(1), Operand::None);
        let i32 = MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Imm(4), Operand::None);
        assert_eq!(
            enc.encode(&i32).unwrap().len(),
            enc.encode(&i8).unwrap().len() + 3
        );
        roundtrip(&i8, fs);
        roundtrip(&i32, fs);
    }

    #[test]
    fn rex_b_covers_register_direct_rm_fallback() {
        // `Mov r9, r1` puts r1 in the rm field via the src1 fallback; the
        // REX.b bit must extend that rm register, not silently drop it.
        // Before the rm_register fix these two encoded byte-identically.
        let fs = FeatureSet::x86_64();
        let enc = Encoder::new(fs);
        let a = MachineInst::compute(MacroOpcode::Mov, r(9), Operand::Reg(r(1)), Operand::None);
        let b = MachineInst::compute(MacroOpcode::Mov, r(9), Operand::Reg(r(9)), Operand::None);
        let ea = enc.encode(&a).unwrap();
        let eb = enc.encode(&b).unwrap();
        assert_ne!(
            ea.bytes, eb.bytes,
            "distinct rm registers must encode differently"
        );
        roundtrip(&a, fs);
        roundtrip(&b, fs);
    }

    #[test]
    fn mov_immediate_destinations_encode_distinctly() {
        // B0+rb / B8+rd: every destination register must produce a
        // distinct byte sequence (low bits in the opcode byte, high bits
        // in REX.b / REXBC base extension), at unchanged length per
        // prefix tier.
        let enc = Encoder::new(FeatureSet::superset());
        let mut seen = std::collections::HashSet::new();
        for dst in 0..ArchReg::MAX_GPRS {
            let i = MachineInst::compute(MacroOpcode::Mov, r(dst), Operand::Imm(4), Operand::None);
            let e = enc.encode(&i).expect("mov-imm encodes");
            assert!(seen.insert(e.bytes.clone()), "dst r{dst} collides");
            roundtrip(&i, FeatureSet::superset());
        }
    }

    #[test]
    fn rexbc_base_ext_covers_register_direct_rm_fallback() {
        // Register-direct rm uses src2 when present; its high (>=32)
        // register bits live in the REXBC base-extension field.
        let fs = FeatureSet::superset();
        let enc = Encoder::new(fs);
        let a = MachineInst::compute(
            MacroOpcode::IntAlu,
            r(1),
            Operand::Reg(r(2)),
            Operand::Reg(r(40)),
        );
        let b = MachineInst::compute(
            MacroOpcode::IntAlu,
            r(1),
            Operand::Reg(r(2)),
            Operand::Reg(r(24)),
        );
        let ea = enc.encode(&a).unwrap();
        let eb = enc.encode(&b).unwrap();
        assert_ne!(
            ea.bytes, eb.bytes,
            "distinct rm registers must encode differently"
        );
        roundtrip(&a, fs);
        roundtrip(&b, fs);
    }
}
