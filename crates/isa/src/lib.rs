//! # cisa-isa: the composite-ISA feature model
//!
//! This crate defines the *superset ISA* of the Composite-ISA Cores paper
//! (HPCA 2019) and everything derivable from it:
//!
//! - the five customizable feature dimensions ([`RegisterDepth`],
//!   [`RegisterWidth`], [`Complexity`], [`Predication`], and derived SIMD
//!   support),
//! - the enumeration of exactly **26** viable composite feature sets
//!   ([`FeatureSet::all`]),
//! - the upgrade/downgrade lattice between overlapping feature sets
//!   ([`FeatureSet::covers`], [`FeatureSet::downgrade_gaps`]),
//! - the machine-instruction form shared by the compiler, encoder and
//!   decoder ([`inst::MachineInst`]), its macro-op to micro-op expansion
//!   rules, and the micro-op ISA ([`uop::MicroOp`]),
//! - the variable-length superset instruction *encoding* with the paper's
//!   REXBC and predicate prefixes ([`encoding`]),
//! - behavioural models of the vendor ISAs (Thumb, Alpha, x86-64) and
//!   their x86-ized equivalents from Table II ([`vendor`]).
//!
//! # Example
//!
//! ```
//! use cisa_isa::{FeatureSet, Complexity, RegisterDepth, RegisterWidth, Predication};
//!
//! let all = FeatureSet::all();
//! assert_eq!(all.len(), 26); // the paper's 26 custom ISAs
//!
//! let superset = FeatureSet::superset();
//! assert!(all.iter().all(|fs| superset.covers(fs)));
//!
//! let thumb_like = FeatureSet::new(
//!     Complexity::MicroX86,
//!     RegisterWidth::W32,
//!     RegisterDepth::D8,
//!     Predication::Partial,
//! ).unwrap();
//! assert_eq!(thumb_like.to_string(), "microx86-8D-32W");
//! ```

#![warn(missing_docs)]

pub mod disasm;
pub mod encoding;
pub mod error;
pub mod feature_set;
pub mod inst;
pub mod regs;
pub mod riscv;
pub mod uop;
pub mod vendor;

pub use disasm::{
    disassemble, disassemble_stream, disassemble_stream_with_offsets, Disassembled, SpannedInst,
};
pub use encoding::{DecodeError, EncodeError, EncodedInst, Encoder, InstLengthDecoder};
pub use error::{IsaError, StreamError};
pub use feature_set::{
    Complexity, DowngradeGap, FeatureConstraint, FeatureSet, Predication, RegisterDepth,
    RegisterWidth, SimdSupport, ViabilityError,
};
pub use inst::{AddressingMode, MachineInst, MacroOpcode, MemLocality, Operand};
pub use regs::{ArchReg, RegClass};
pub use uop::{MicroOp, MicroOpKind, UopClass};
pub use vendor::{IsaModel, VendorIsa};
