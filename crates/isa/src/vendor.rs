//! Vendor ISA models for the multi-vendor heterogeneous-ISA baseline
//! (x86-64, Alpha, Thumb) and their x86-ized equivalents (Table II).
//!
//! The paper's strongest comparison point is a heterogeneous-ISA CMP in
//! the style of Venkat & Tullsen (ISCA 2014) whose cores implement three
//! fully disjoint vendor ISAs. We model each vendor ISA behaviourally:
//! its register file shape, decode style, code density, FP/SIMD support,
//! and the migration costs its disjoint encoding implies.

use std::fmt;

use crate::feature_set::{
    Complexity, FeatureSet, Predication, RegisterDepth, RegisterWidth, SimdSupport,
};

/// One of the three vendor ISAs of the heterogeneous-ISA baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VendorIsa {
    /// ARM Thumb: 16-bit compressed encodings, 8 registers, 32-bit,
    /// no FP/SIMD, single-step decode.
    Thumb,
    /// DEC Alpha: fixed 32-bit encodings, 32 integer + 32 FP registers,
    /// 64-bit, load/store, single-step decode.
    Alpha,
    /// Intel x86-64 with SSE: variable length, 16 registers, 64-bit,
    /// CISC memory operands, two-phase decode.
    X86_64,
}

impl VendorIsa {
    /// The three vendor ISAs of the baseline.
    pub const ALL: [VendorIsa; 3] = [VendorIsa::Thumb, VendorIsa::Alpha, VendorIsa::X86_64];

    /// The x86-ized composite feature set the paper derives to mimic
    /// this vendor ISA (Table II).
    ///
    /// - Thumb   -> `microx86-8D-32W`
    /// - Alpha   -> `microx86-32D-64W`
    /// - x86-64  -> `x86-16D-64W`
    pub fn x86ized(self) -> FeatureSet {
        match self {
            VendorIsa::Thumb => FeatureSet::new(
                Complexity::MicroX86,
                RegisterWidth::W32,
                RegisterDepth::D8,
                Predication::Partial,
            )
            .expect("viable"),
            VendorIsa::Alpha => FeatureSet::new(
                Complexity::MicroX86,
                RegisterWidth::W64,
                RegisterDepth::D32,
                Predication::Partial,
            )
            .expect("viable"),
            VendorIsa::X86_64 => FeatureSet::x86_64(),
        }
    }

    /// The behavioural model for this vendor ISA.
    pub fn model(self) -> IsaModel {
        match self {
            VendorIsa::Thumb => IsaModel {
                name: "thumb",
                depth: RegisterDepth::D8,
                width: RegisterWidth::W32,
                complexity: Complexity::MicroX86,
                predication: Predication::Partial,
                simd: SimdSupport::Scalar,
                has_fp: false,
                code_size_factor: 0.70,
                fixed_length: true,
                fp_regs: 0,
            },
            VendorIsa::Alpha => IsaModel {
                name: "alpha",
                depth: RegisterDepth::D32,
                width: RegisterWidth::W64,
                complexity: Complexity::MicroX86,
                predication: Predication::Partial,
                simd: SimdSupport::Scalar,
                has_fp: true,
                code_size_factor: 1.10,
                fixed_length: true,
                fp_regs: 32,
            },
            VendorIsa::X86_64 => IsaModel {
                name: "x86-64",
                depth: RegisterDepth::D16,
                width: RegisterWidth::W64,
                complexity: Complexity::X86,
                predication: Predication::Partial,
                simd: SimdSupport::Sse,
                has_fp: true,
                code_size_factor: 1.0,
                fixed_length: false,
                fp_regs: 16,
            },
        }
    }

    /// Traits of the vendor ISA that its x86-ized equivalent *cannot*
    /// replicate (Table II's "`<vendor>`-specific features"). These are
    /// the residual advantages the vendor-ISA baseline keeps.
    pub fn unreplicated_traits(self) -> &'static [&'static str] {
        match self {
            VendorIsa::Thumb => &["code compression", "fixed-length one-step decode"],
            VendorIsa::Alpha => &[
                "fixed-length one-step decode",
                "3-address instructions",
                "more FP registers",
            ],
            VendorIsa::X86_64 => &[],
        }
    }

    /// Traits the x86-ized equivalent has that the vendor ISA lacks
    /// (Table II's "exclusive features").
    pub fn x86ized_exclusive_traits(self) -> &'static [&'static str] {
        match self {
            VendorIsa::Thumb => &["FP support"],
            VendorIsa::Alpha => &[],
            VendorIsa::X86_64 => &[],
        }
    }
}

impl fmt::Display for VendorIsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.model().name)
    }
}

/// Behavioural parameters of an ISA (vendor or composite) consumed by
/// the compiler, decode and power models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsaModel {
    /// Short name.
    pub name: &'static str,
    /// Register depth.
    pub depth: RegisterDepth,
    /// Register width.
    pub width: RegisterWidth,
    /// Memory-operand complexity.
    pub complexity: Complexity,
    /// Predication support.
    pub predication: Predication,
    /// SIMD support.
    pub simd: SimdSupport,
    /// Whether the ISA supports floating point at all (Thumb does not).
    pub has_fp: bool,
    /// Static code size relative to x86-64 (Thumb's compression: 0.70;
    /// Alpha's fixed 4-byte instructions: 1.10).
    pub code_size_factor: f64,
    /// Fixed-length encoding enables one-step decode (no ILD).
    pub fixed_length: bool,
    /// Number of architectural FP registers (Alpha's 32 vs x86's 16).
    pub fp_regs: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x86ized_sets_match_table_2() {
        assert_eq!(VendorIsa::Thumb.x86ized().to_string(), "microx86-8D-32W");
        assert_eq!(VendorIsa::Alpha.x86ized().to_string(), "microx86-32D-64W");
        assert_eq!(VendorIsa::X86_64.x86ized().to_string(), "x86-16D-64W");
    }

    #[test]
    fn thumb_has_no_fp() {
        assert!(!VendorIsa::Thumb.model().has_fp);
        assert!(VendorIsa::Alpha.model().has_fp);
        assert!(VendorIsa::X86_64.model().has_fp);
        // ...but its x86-ized version does (Table II exclusive feature).
        assert_eq!(VendorIsa::Thumb.x86ized_exclusive_traits(), &["FP support"]);
    }

    #[test]
    fn thumb_is_denser_than_x86() {
        assert!(VendorIsa::Thumb.model().code_size_factor < 1.0);
        assert!(VendorIsa::Alpha.model().code_size_factor > 1.0);
        assert_eq!(VendorIsa::X86_64.model().code_size_factor, 1.0);
    }

    #[test]
    fn fixed_length_isas_skip_the_ild() {
        assert!(VendorIsa::Thumb.model().fixed_length);
        assert!(VendorIsa::Alpha.model().fixed_length);
        assert!(!VendorIsa::X86_64.model().fixed_length);
    }

    #[test]
    fn x86_has_no_unreplicated_traits() {
        assert!(VendorIsa::X86_64.unreplicated_traits().is_empty());
        assert!(!VendorIsa::Thumb.unreplicated_traits().is_empty());
    }
}
