//! The five customizable ISA feature dimensions and the derivation of the
//! paper's 26 composite feature sets (Section III, Figure 1).
//!
//! A [`FeatureSet`] is a point in the space
//! `Complexity x RegisterWidth x RegisterDepth x Predication`, with SIMD
//! support derived from complexity (the paper constrains microx86 cores to
//! exclude SSE2 because >50% of SIMD operations rely on 1:n macro-op to
//! micro-op encoding, and always pairs SIMD units with full x86 cores).
//!
//! Two viability rules prune the raw space (Section III, final paragraph):
//!
//! 1. 32-bit feature sets with only 8 registers exclude *full* predication
//!    (LLVM's predication profitability analysis seldom turns it on under
//!    that much register pressure).
//! 2. 64-bit feature sets support a register depth of at least 16.
//!
//! `2 complexities x (7 + 6)` surviving width/depth/predication points =
//! **26** feature sets, the paper's number.

use std::fmt;
use std::str::FromStr;

/// Number of general-purpose architectural registers exposed by the ISA
/// ("register depth" in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegisterDepth {
    /// 8 programmable registers (x86-32-like).
    D8,
    /// 16 programmable registers (x86-64-like).
    D16,
    /// 32 programmable registers (Alpha/RISC-V-like).
    D32,
    /// 64 programmable registers (enabled by the REXBC prefix).
    D64,
}

impl RegisterDepth {
    /// All depth options, shallowest first.
    pub const ALL: [RegisterDepth; 4] = [
        RegisterDepth::D8,
        RegisterDepth::D16,
        RegisterDepth::D32,
        RegisterDepth::D64,
    ];

    /// The number of programmable registers.
    #[inline]
    pub fn count(self) -> u32 {
        match self {
            RegisterDepth::D8 => 8,
            RegisterDepth::D16 => 16,
            RegisterDepth::D32 => 32,
            RegisterDepth::D64 => 64,
        }
    }

    /// The depth that exposes `count` registers, if `count` is one of the
    /// supported options.
    pub(crate) fn from_count(count: u32) -> Option<Self> {
        Some(match count {
            8 => RegisterDepth::D8,
            16 => RegisterDepth::D16,
            32 => RegisterDepth::D32,
            64 => RegisterDepth::D64,
            _ => return None,
        })
    }
}

/// Width in bits of the general-purpose registers (and pointers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegisterWidth {
    /// 32-bit registers and pointers.
    W32,
    /// 64-bit registers and pointers.
    W64,
}

impl RegisterWidth {
    /// Both width options, narrowest first.
    pub const ALL: [RegisterWidth; 2] = [RegisterWidth::W32, RegisterWidth::W64];

    /// Register width in bits.
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            RegisterWidth::W32 => 32,
            RegisterWidth::W64 => 64,
        }
    }
}

/// Opcode and addressing-mode complexity (Section III, "Instruction
/// Complexity").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Complexity {
    /// The load-compute-store subset whose every macro-op decodes into
    /// exactly one micro-op ("microx86"). Keeps x86's variable-length
    /// encoding but drops memory-operand ALU forms, the 1:4 decoder and
    /// the microsequencing ROM.
    MicroX86,
    /// The full CISC instruction set with memory-operand ALU forms and
    /// 1:n macro-op to micro-op decoding.
    X86,
}

impl Complexity {
    /// Both complexity options, simplest first.
    pub const ALL: [Complexity; 2] = [Complexity::MicroX86, Complexity::X86];
}

/// Predication support (Section III, "Predication").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Predication {
    /// x86's existing partial predication: only CMOVxx, predicated on
    /// condition codes.
    Partial,
    /// Full predication: any instruction may be predicated on any
    /// general-purpose register via the predicate prefix.
    Full,
}

impl Predication {
    /// Both predication options, weakest first.
    pub const ALL: [Predication; 2] = [Predication::Partial, Predication::Full];
}

/// Data-parallel execution support. Derived from [`Complexity`]: SSE is
/// only paired with full x86 cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdSupport {
    /// Scalar execution only; vector code must run in its precompiled
    /// scalarized form.
    Scalar,
    /// SSE2-class 128-bit SIMD.
    Sse,
}

/// Why a combination of feature dimensions is not a viable feature set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViabilityError {
    /// Full predication with a 32-bit, 8-register file is excluded: the
    /// compiler's profitability analysis never fires under that register
    /// pressure.
    FullPredicationWithDepth8,
    /// 64-bit feature sets must expose at least 16 registers.
    Width64WithDepth8,
}

impl fmt::Display for ViabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViabilityError::FullPredicationWithDepth8 => {
                write!(f, "full predication is not viable with only 8 registers")
            }
            ViabilityError::Width64WithDepth8 => {
                write!(
                    f,
                    "64-bit feature sets require a register depth of at least 16"
                )
            }
        }
    }
}

impl std::error::Error for ViabilityError {}

/// A composite ISA feature set derived from the superset ISA.
///
/// Construct with [`FeatureSet::new`] (which enforces the viability
/// rules), pick a named point such as [`FeatureSet::superset`] /
/// [`FeatureSet::x86_64`], or enumerate every viable set with
/// [`FeatureSet::all`].
///
/// # Example
///
/// ```
/// use cisa_isa::feature_set::*;
///
/// let fs = FeatureSet::new(
///     Complexity::X86,
///     RegisterWidth::W64,
///     RegisterDepth::D64,
///     Predication::Full,
/// )?;
/// assert_eq!(fs, FeatureSet::superset());
/// assert_eq!(fs.simd(), SimdSupport::Sse);
/// # Ok::<(), ViabilityError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FeatureSet {
    complexity: Complexity,
    width: RegisterWidth,
    depth: RegisterDepth,
    predication: Predication,
}

impl FeatureSet {
    /// Creates a feature set, enforcing the paper's viability rules.
    ///
    /// # Errors
    ///
    /// Returns a [`ViabilityError`] if the combination is one of the
    /// pruned points (full predication with a 32-bit 8-register file, or
    /// a 64-bit set with fewer than 16 registers).
    pub fn new(
        complexity: Complexity,
        width: RegisterWidth,
        depth: RegisterDepth,
        predication: Predication,
    ) -> Result<Self, ViabilityError> {
        if width == RegisterWidth::W64 && depth == RegisterDepth::D8 {
            return Err(ViabilityError::Width64WithDepth8);
        }
        if depth == RegisterDepth::D8 && predication == Predication::Full {
            return Err(ViabilityError::FullPredicationWithDepth8);
        }
        Ok(FeatureSet {
            complexity,
            width,
            depth,
            predication,
        })
    }

    /// The superset ISA itself: full x86 complexity, 64-bit, 64
    /// registers, full predication, SSE.
    pub fn superset() -> Self {
        FeatureSet {
            complexity: Complexity::X86,
            width: RegisterWidth::W64,
            depth: RegisterDepth::D64,
            predication: Predication::Full,
        }
    }

    /// Baseline x86-64 with SSE and no customization: full complexity,
    /// 64-bit, 16 registers, partial (cmov) predication.
    pub fn x86_64() -> Self {
        FeatureSet {
            complexity: Complexity::X86,
            width: RegisterWidth::W64,
            depth: RegisterDepth::D16,
            predication: Predication::Partial,
        }
    }

    /// The smallest feature set in the exploration: microx86, 32-bit,
    /// 8 registers, partial predication (Figure 2's `microx86-8D-32W`).
    pub fn minimal() -> Self {
        FeatureSet {
            complexity: Complexity::MicroX86,
            width: RegisterWidth::W32,
            depth: RegisterDepth::D8,
            predication: Predication::Partial,
        }
    }

    /// Enumerates all **26** viable composite feature sets, in a stable
    /// order (complexity-major, then width, depth, predication).
    pub fn all() -> Vec<FeatureSet> {
        let mut sets = Vec::with_capacity(26);
        for &complexity in &Complexity::ALL {
            for &width in &RegisterWidth::ALL {
                for &depth in &RegisterDepth::ALL {
                    for &predication in &Predication::ALL {
                        if let Ok(fs) = FeatureSet::new(complexity, width, depth, predication) {
                            sets.push(fs);
                        }
                    }
                }
            }
        }
        sets
    }

    /// Opcode/addressing-mode complexity.
    #[inline]
    pub fn complexity(self) -> Complexity {
        self.complexity
    }

    /// Register width.
    #[inline]
    pub fn width(self) -> RegisterWidth {
        self.width
    }

    /// Register depth.
    #[inline]
    pub fn depth(self) -> RegisterDepth {
        self.depth
    }

    /// Predication support.
    #[inline]
    pub fn predication(self) -> Predication {
        self.predication
    }

    /// SIMD support, derived from complexity: SSE units are only paired
    /// with full x86 cores.
    #[inline]
    pub fn simd(self) -> SimdSupport {
        match self.complexity {
            Complexity::MicroX86 => SimdSupport::Scalar,
            Complexity::X86 => SimdSupport::Sse,
        }
    }

    /// Whether a core implementing `self` can run code compiled for
    /// `other` natively, with zero binary translation (the paper's
    /// *feature upgrade* scenario).
    ///
    /// This is the coverage partial order: every dimension of `other`
    /// must be implemented by `self`.
    pub fn covers(self, other: &FeatureSet) -> bool {
        self.complexity >= other.complexity
            && self.width >= other.width
            && self.depth >= other.depth
            && self.predication >= other.predication
    }

    /// The feature gaps a core implementing `self` must *emulate* to run
    /// code compiled for `compiled_for` (the paper's *feature downgrade*
    /// scenario). Empty iff [`covers`](Self::covers) holds.
    pub fn downgrade_gaps(self, compiled_for: &FeatureSet) -> Vec<DowngradeGap> {
        let mut gaps = Vec::new();
        if compiled_for.depth > self.depth {
            gaps.push(DowngradeGap::RegisterDepth {
                from: compiled_for.depth,
                to: self.depth,
            });
        }
        if compiled_for.width > self.width {
            gaps.push(DowngradeGap::RegisterWidth);
        }
        if compiled_for.complexity > self.complexity {
            gaps.push(DowngradeGap::Complexity);
        }
        if compiled_for.predication > self.predication {
            gaps.push(DowngradeGap::Predication);
        }
        if compiled_for.simd() > self.simd() {
            gaps.push(DowngradeGap::Simd);
        }
        gaps
    }

    /// Whether this feature set satisfies a search constraint.
    pub fn satisfies(self, constraint: &FeatureConstraint) -> bool {
        match *constraint {
            FeatureConstraint::Any => true,
            FeatureConstraint::DepthExactly(d) => self.depth == d,
            FeatureConstraint::DepthAtMost(d) => self.depth <= d,
            FeatureConstraint::WidthExactly(w) => self.width == w,
            FeatureConstraint::ComplexityExactly(c) => self.complexity == c,
            FeatureConstraint::PredicationExactly(p) => self.predication == p,
        }
    }

    /// The 12 individually countable ISA features of Section VII-A
    /// ("composite-ISA designs continue to implement at least 10 out of
    /// the 12 features"): each concrete option of each dimension, plus
    /// SSE and scalar-only execution.
    pub fn feature_flags(self) -> Vec<&'static str> {
        let mut flags = vec![
            match self.complexity {
                Complexity::MicroX86 => "microx86",
                Complexity::X86 => "x86",
            },
            match self.width {
                RegisterWidth::W32 => "32-bit",
                RegisterWidth::W64 => "64-bit",
            },
            match self.depth {
                RegisterDepth::D8 => "depth-8",
                RegisterDepth::D16 => "depth-16",
                RegisterDepth::D32 => "depth-32",
                RegisterDepth::D64 => "depth-64",
            },
            match self.predication {
                Predication::Partial => "partial-pred",
                Predication::Full => "full-pred",
            },
        ];
        if self.simd() == SimdSupport::Sse {
            flags.push("sse");
        }
        flags
    }
}

/// A single dimension on which running code exceeds the capabilities of
/// the core it migrated to, requiring software emulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DowngradeGap {
    /// Code uses more architectural registers than the core implements;
    /// the excess registers live in a register context block in memory.
    RegisterDepth {
        /// Depth the code was compiled for.
        from: RegisterDepth,
        /// Depth the core implements.
        to: RegisterDepth,
    },
    /// 64-bit code on a 32-bit core: long-mode emulation with fat
    /// pointers in xmm registers.
    RegisterWidth,
    /// x86 code on a microx86 core: memory-operand instructions must be
    /// expanded to load-compute-store sequences.
    Complexity,
    /// Fully predicated code on a partial-predication core: reverse
    /// if-conversion back to branches.
    Predication,
    /// Vector code on a scalar core (avoided by any reasonable scheduler;
    /// scalarized fallback executes instead).
    Simd,
}

/// A constraint on feature sets used by the feature-sensitivity searches
/// of Section VII-B (Figure 9): force every core in the multicore to a
/// fixed value along one dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureConstraint {
    /// No constraint (the unconstrained composite-ISA search).
    Any,
    /// All cores implement exactly this register depth.
    DepthExactly(RegisterDepth),
    /// All cores implement at most this register depth.
    DepthAtMost(RegisterDepth),
    /// All cores implement exactly this register width.
    WidthExactly(RegisterWidth),
    /// All cores implement exactly this complexity.
    ComplexityExactly(Complexity),
    /// All cores implement exactly this predication support.
    PredicationExactly(Predication),
}

impl fmt::Display for FeatureConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FeatureConstraint::Any => write!(f, "unconstrained"),
            FeatureConstraint::DepthExactly(d) => write!(f, "depth={}", d.count()),
            FeatureConstraint::DepthAtMost(d) => write!(f, "depth<={}", d.count()),
            FeatureConstraint::WidthExactly(w) => write!(f, "width={}", w.bits()),
            FeatureConstraint::ComplexityExactly(Complexity::MicroX86) => write!(f, "microx86"),
            FeatureConstraint::ComplexityExactly(Complexity::X86) => write!(f, "x86"),
            FeatureConstraint::PredicationExactly(Predication::Partial) => write!(f, "partial"),
            FeatureConstraint::PredicationExactly(Predication::Full) => write!(f, "full"),
        }
    }
}

impl fmt::Display for FeatureSet {
    /// Formats in the paper's naming convention, e.g. `microx86-32D-64W`
    /// (Table II). Full predication is marked with a `-P` suffix; SSE is
    /// implied by `x86`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self.complexity {
            Complexity::MicroX86 => "microx86",
            Complexity::X86 => "x86",
        };
        write!(f, "{c}-{}D-{}W", self.depth.count(), self.width.bits())?;
        if self.predication == Predication::Full {
            write!(f, "-P")?;
        }
        Ok(())
    }
}

/// Error parsing a feature set name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFeatureSetError(String);

impl fmt::Display for ParseFeatureSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid feature set name: {:?}", self.0)
    }
}

impl std::error::Error for ParseFeatureSetError {}

impl FromStr for FeatureSet {
    type Err = ParseFeatureSetError;

    /// Parses names in the `Display` convention, e.g. `x86-16D-64W` or
    /// `microx86-32D-32W-P`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseFeatureSetError(s.to_owned());
        let mut parts = s.split('-');
        let complexity = match parts.next().ok_or_else(err)? {
            "microx86" => Complexity::MicroX86,
            "x86" => Complexity::X86,
            _ => return Err(err()),
        };
        let depth_part = parts.next().ok_or_else(err)?;
        let depth_num: u32 = depth_part
            .strip_suffix('D')
            .ok_or_else(err)?
            .parse()
            .map_err(|_| err())?;
        let depth = RegisterDepth::from_count(depth_num).ok_or_else(err)?;
        let width_part = parts.next().ok_or_else(err)?;
        let width = match width_part.strip_suffix('W').ok_or_else(err)? {
            "32" => RegisterWidth::W32,
            "64" => RegisterWidth::W64,
            _ => return Err(err()),
        };
        let predication = match parts.next() {
            None => Predication::Partial,
            Some("P") => Predication::Full,
            Some(_) => return Err(err()),
        };
        if parts.next().is_some() {
            return Err(err());
        }
        FeatureSet::new(complexity, width, depth, predication).map_err(|_| err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_26_feature_sets() {
        let all = FeatureSet::all();
        assert_eq!(all.len(), 26, "the paper derives 26 custom feature sets");
        // No duplicates.
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 26);
    }

    #[test]
    fn viability_rules_reject_pruned_points() {
        assert_eq!(
            FeatureSet::new(
                Complexity::X86,
                RegisterWidth::W64,
                RegisterDepth::D8,
                Predication::Partial
            ),
            Err(ViabilityError::Width64WithDepth8)
        );
        assert_eq!(
            FeatureSet::new(
                Complexity::X86,
                RegisterWidth::W32,
                RegisterDepth::D8,
                Predication::Full
            ),
            Err(ViabilityError::FullPredicationWithDepth8)
        );
    }

    #[test]
    fn superset_covers_everything() {
        let superset = FeatureSet::superset();
        for fs in FeatureSet::all() {
            assert!(superset.covers(&fs), "superset must cover {fs}");
            assert!(superset.downgrade_gaps(&fs).is_empty());
        }
    }

    #[test]
    fn minimal_is_covered_by_everything() {
        let minimal = FeatureSet::minimal();
        for fs in FeatureSet::all() {
            assert!(fs.covers(&minimal), "{fs} must cover the minimal set");
        }
    }

    #[test]
    fn coverage_is_a_partial_order() {
        let all = FeatureSet::all();
        for a in &all {
            assert!(a.covers(a), "reflexive");
            for b in &all {
                for c in &all {
                    if a.covers(b) && b.covers(c) {
                        assert!(a.covers(c), "transitive: {a} {b} {c}");
                    }
                }
                if a.covers(b) && b.covers(a) {
                    assert_eq!(a, b, "antisymmetric");
                }
            }
        }
    }

    #[test]
    fn downgrade_gaps_match_coverage() {
        let all = FeatureSet::all();
        for a in &all {
            for b in &all {
                assert_eq!(a.covers(b), a.downgrade_gaps(b).is_empty(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for fs in FeatureSet::all() {
            let name = fs.to_string();
            let parsed: FeatureSet = name.parse().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(parsed, fs);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<FeatureSet>().is_err());
        assert!("arm-16D-32W".parse::<FeatureSet>().is_err());
        assert!("x86-12D-32W".parse::<FeatureSet>().is_err());
        assert!("x86-16D-48W".parse::<FeatureSet>().is_err());
        assert!("x86-8D-64W".parse::<FeatureSet>().is_err(), "pruned point");
        assert!("x86-16D-64W-Q".parse::<FeatureSet>().is_err());
        assert!("x86-16D-64W-P-extra".parse::<FeatureSet>().is_err());
    }

    #[test]
    fn named_points() {
        assert_eq!(FeatureSet::superset().to_string(), "x86-64D-64W-P");
        assert_eq!(FeatureSet::x86_64().to_string(), "x86-16D-64W");
        assert_eq!(FeatureSet::minimal().to_string(), "microx86-8D-32W");
        assert_eq!(FeatureSet::minimal().simd(), SimdSupport::Scalar);
        assert_eq!(FeatureSet::x86_64().simd(), SimdSupport::Sse);
    }

    #[test]
    fn microx86_never_has_sse() {
        for fs in FeatureSet::all() {
            if fs.complexity() == Complexity::MicroX86 {
                assert_eq!(fs.simd(), SimdSupport::Scalar);
            } else {
                assert_eq!(fs.simd(), SimdSupport::Sse);
            }
        }
    }

    #[test]
    fn twelve_distinct_feature_flags_exist() {
        let mut flags: Vec<&str> = FeatureSet::all()
            .into_iter()
            .flat_map(|fs| fs.feature_flags())
            .collect();
        flags.sort();
        flags.dedup();
        // microx86/x86, 32/64-bit, 4 depths, 2 predications, sse = 11
        // explicit flags; scalar-only is the absence of sse, giving the
        // paper's 12 countable features.
        assert_eq!(flags.len(), 11);
    }

    #[test]
    fn constraints_filter_as_expected() {
        let all = FeatureSet::all();
        let micro_only: Vec<_> = all
            .iter()
            .filter(|fs| fs.satisfies(&FeatureConstraint::ComplexityExactly(Complexity::MicroX86)))
            .collect();
        assert_eq!(micro_only.len(), 13);
        let d16: Vec<_> = all
            .iter()
            .filter(|fs| fs.satisfies(&FeatureConstraint::DepthExactly(RegisterDepth::D16)))
            .collect();
        // depth 16: both widths, both predications, both complexities = 8
        assert_eq!(d16.len(), 8);
        assert!(all.iter().all(|fs| fs.satisfies(&FeatureConstraint::Any)));
    }
}
