//! Architectural registers of the superset ISA.
//!
//! The superset ISA exposes up to 64 general-purpose registers (the
//! first 16 are the classic x86-64 file; registers 16..64 are the
//! REXBC-prefixed extension) plus 16 xmm vector registers. Every GPR is
//! addressable as a byte, word, doubleword or quadword sub-register with
//! no x86-style pairing restrictions (the REXBC prefix lifts those).

use std::fmt;

use crate::feature_set::FeatureSet;

/// Register class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// General-purpose integer register.
    Gpr,
    /// SSE vector register (also used for fat-pointer emulation during
    /// width downgrades).
    Xmm,
}

/// An architectural register of the superset ISA.
///
/// GPR indices run 0..64; xmm indices 0..16. Whether a particular index
/// is *usable* depends on the feature set's register depth — see
/// [`ArchReg::available_in`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArchReg {
    class: RegClass,
    index: u8,
}

impl ArchReg {
    /// Maximum number of GPRs in the superset ISA.
    pub const MAX_GPRS: u8 = 64;
    /// Number of xmm registers.
    pub const NUM_XMM: u8 = 16;

    /// Creates a GPR.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 64`.
    pub fn gpr(index: u8) -> Self {
        assert!(index < Self::MAX_GPRS, "GPR index {index} out of range");
        ArchReg {
            class: RegClass::Gpr,
            index,
        }
    }

    /// Register index within its class.
    #[inline]
    pub fn index(self) -> u8 {
        self.index
    }

    /// Whether this register exists under the given feature set.
    ///
    /// GPRs require `index < depth`; xmm registers require SSE support.
    pub fn available_in(self, fs: &FeatureSet) -> bool {
        match self.class {
            RegClass::Gpr => (self.index as u32) < fs.depth().count(),
            RegClass::Xmm => fs.simd() == crate::feature_set::SimdSupport::Sse,
        }
    }

    /// The narrowest prefix tier that can encode this register:
    /// the legacy 3-bit field, the REX 4th bit, or the REXBC extension.
    pub(crate) fn encoding_tier(self) -> EncodingTier {
        match self.class {
            RegClass::Xmm => EncodingTier::Legacy,
            RegClass::Gpr => match self.index {
                0..=7 => EncodingTier::Legacy,
                8..=15 => EncodingTier::Rex,
                _ => EncodingTier::Rexbc,
            },
        }
    }
}

/// Which encoding tier a register requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EncodingTier {
    /// Encodable in a bare ModRM/SIB 3-bit field.
    Legacy,
    /// Needs a REX prefix bit (registers 8..16).
    Rex,
    /// Needs the 2-byte REXBC prefix (registers 16..64).
    Rexbc,
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Gpr => write!(f, "r{}", self.index),
            RegClass::Xmm => write!(f, "xmm{}", self.index),
        }
    }
}

#[cfg(test)]
impl ArchReg {
    /// Creates an xmm register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    pub(crate) fn xmm(index: u8) -> Self {
        assert!(index < Self::NUM_XMM, "xmm index {index} out of range");
        ArchReg {
            class: RegClass::Xmm,
            index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature_set::{Complexity, FeatureSet, Predication, RegisterWidth};

    #[test]
    fn encoding_tiers() {
        assert_eq!(ArchReg::gpr(3).encoding_tier(), EncodingTier::Legacy);
        assert_eq!(ArchReg::gpr(12).encoding_tier(), EncodingTier::Rex);
        assert_eq!(ArchReg::gpr(40).encoding_tier(), EncodingTier::Rexbc);
    }

    #[test]
    fn availability_tracks_depth_and_simd() {
        let small = FeatureSet::minimal(); // microx86-8D-32W
        let big = FeatureSet::superset();
        assert!(ArchReg::gpr(7).available_in(&small));
        assert!(!ArchReg::gpr(8).available_in(&small));
        assert!(ArchReg::gpr(63).available_in(&big));
        assert!(!ArchReg::xmm(0).available_in(&small), "microx86 has no SSE");
        assert!(ArchReg::xmm(0).available_in(&big));

        let x86_32_8 = FeatureSet::new(
            Complexity::X86,
            RegisterWidth::W32,
            crate::RegisterDepth::D8,
            Predication::Partial,
        )
        .unwrap();
        assert!(
            ArchReg::xmm(3).available_in(&x86_32_8),
            "x86 cores carry SSE"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gpr_index_out_of_range_panics() {
        let _ = ArchReg::gpr(64);
    }

    #[test]
    fn display_names() {
        assert_eq!(ArchReg::gpr(17).to_string(), "r17");
        assert_eq!(ArchReg::xmm(2).to_string(), "xmm2");
    }
}
