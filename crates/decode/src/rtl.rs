//! Structural RTL-style area/peak-power estimation for the decoder.
//!
//! The paper synthesizes multiple x86 decoder variants with Synopsys
//! Design Compiler. We cannot run DC here, so this module models the
//! decoder as a sum of named subunits with calibrated gate budgets. The
//! structure follows Section V exactly:
//!
//! - **ILD** (Madduri-style parallel instruction-length decoder): eight
//!   decode subunits, a speculative length calculator (eight length
//!   subunits + length control select), and an instruction marker with a
//!   valid-begin unit. Superset customizations add prefix comparators to
//!   every decode subunit and widen the muxes, costing **+0.87% peak
//!   power / +0.65% area** over the x86-64 ILD.
//! - **Decoder block**: n simple 1:1 decoders, the complex 1:4 decoder,
//!   the MSROM, the macro-op queue (widened by 2 bytes for the new
//!   prefixes), the micro-op queue and micro-op cache (widened by 2
//!   bytes for the wider micro-op encodings). microx86 replaces the
//!   complex decoder with a fourth simple decoder and forgoes the MSROM:
//!   **-0.66% peak power / -1.12% area** vs. the x86-64 decoder. The
//!   superset decoder costs **+0.3% / +0.46%**.
//!
//! Budgets are in abstract gate units (area) and milliwatt units (peak
//! power); the absolute scale is set by the core-level power model in
//! `cisa-power`, which consumes the *relative* figures.

use cisa_isa::{Complexity, FeatureSet, Predication, RegisterDepth};

/// Area/power estimate of the ILD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IldRtl {
    /// Gate units.
    pub area: f64,
    /// Peak-power units.
    pub peak_power: f64,
    /// Subunit breakdown: (name, area, power).
    pub breakdown: [(&'static str, f64, f64); 4],
}

/// Area/power estimate of the decoder block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderRtl {
    /// Gate units.
    pub area: f64,
    /// Peak-power units.
    pub peak_power: f64,
    /// Simple decoders instantiated.
    pub simple_decoders: u8,
    /// Complex decoders instantiated.
    pub complex_decoders: u8,
    /// MSROM present.
    pub has_msrom: bool,
}

// --- ILD subunit budgets (x86-64 baseline) ---
const ILD_DECODE_SUBUNIT_AREA: f64 = 9_500.0; // x8
const ILD_LENGTH_SUBUNIT_AREA: f64 = 1_800.0; // x8
const ILD_LENGTH_CONTROL_AREA: f64 = 4_000.0;
const ILD_MARKER_AREA: f64 = 5_600.0;
const ILD_DECODE_SUBUNIT_POWER: f64 = 10.4; // x8
const ILD_LENGTH_SUBUNIT_POWER: f64 = 1.5; // x8
const ILD_LENGTH_CONTROL_POWER: f64 = 2.8;
const ILD_MARKER_POWER: f64 = 2.0;

// Superset additions per decode subunit: two prefix comparators (REXBC
// marker 0xd6, predicate marker 0xf1) and the extra decode signals.
const ILD_PREFIX_COMPARATOR_AREA: f64 = 25.0; // x2 x8
const ILD_PREFIX_COMPARATOR_POWER: f64 = 0.03; // x2 x8
                                               // Wider multiplexers in the length subunits, control select, valid
                                               // begin unit.
const ILD_MUX_WIDENING_AREA: f64 = 250.0;
const ILD_MUX_WIDENING_POWER: f64 = 0.39;

const ILD_BASE_AREA: f64 = 8.0 * ILD_DECODE_SUBUNIT_AREA
    + 8.0 * ILD_LENGTH_SUBUNIT_AREA
    + ILD_LENGTH_CONTROL_AREA
    + ILD_MARKER_AREA;
const ILD_BASE_POWER: f64 = 8.0 * ILD_DECODE_SUBUNIT_POWER
    + 8.0 * ILD_LENGTH_SUBUNIT_POWER
    + ILD_LENGTH_CONTROL_POWER
    + ILD_MARKER_POWER;

/// ILD estimate for a feature set. Fixed-length vendor ISAs have no ILD
/// at all; the superset prefixes add comparator/mux logic.
pub fn ild(fs: &FeatureSet) -> IldRtl {
    let needs_custom_prefixes =
        fs.depth() > RegisterDepth::D16 || fs.predication() == Predication::Full;
    let (extra_area, extra_power) = if needs_custom_prefixes {
        (
            16.0 * ILD_PREFIX_COMPARATOR_AREA + ILD_MUX_WIDENING_AREA,
            16.0 * ILD_PREFIX_COMPARATOR_POWER + ILD_MUX_WIDENING_POWER,
        )
    } else {
        (0.0, 0.0)
    };
    IldRtl {
        area: ILD_BASE_AREA + extra_area,
        peak_power: ILD_BASE_POWER + extra_power,
        breakdown: [
            (
                "decode subunits",
                8.0 * ILD_DECODE_SUBUNIT_AREA + extra_area * 0.6,
                8.0 * ILD_DECODE_SUBUNIT_POWER + extra_power * 0.6,
            ),
            (
                "length calculator",
                8.0 * ILD_LENGTH_SUBUNIT_AREA + ILD_LENGTH_CONTROL_AREA + extra_area * 0.3,
                8.0 * ILD_LENGTH_SUBUNIT_POWER + ILD_LENGTH_CONTROL_POWER + extra_power * 0.3,
            ),
            (
                "instruction marker",
                ILD_MARKER_AREA + extra_area * 0.1,
                ILD_MARKER_POWER + extra_power * 0.1,
            ),
            (
                "total",
                ILD_BASE_AREA + extra_area,
                ILD_BASE_POWER + extra_power,
            ),
        ],
    }
}

// --- decoder block budgets (x86-64 baseline; full block = decode
// engine + macro-op queue + micro-op queue + micro-op cache) ---
// Engine: 3 simple + 1 complex + MSROM. The microx86 swap (4th simple,
// no complex, no MSROM) must land at -1.12% area / -0.66% power of the
// *full block*, while being 15.1% area / 9.8% power of the engine alone
// (the paper's Section III "excluding 1:n instructions" bound).
const SIMPLE_DECODER_AREA: f64 = 15_744.0;
const COMPLEX_DECODER_AREA: f64 = 20_000.0;
const MSROM_AREA: f64 = 6_944.0;
const SIMPLE_DECODER_POWER: f64 = 15.18;
const COMPLEX_DECODER_POWER: f64 = 18.0;
const MSROM_POWER: f64 = 3.78;
// Queues and the micro-op cache (per byte of width).
const MACRO_QUEUE_AREA_PER_BYTE: f64 = 6_250.0; // 16B baseline
const UOP_STRUCTS_AREA: f64 = 1_000_000.0
    - (3.0 * SIMPLE_DECODER_AREA + COMPLEX_DECODER_AREA + MSROM_AREA)
    - 16.0 * MACRO_QUEUE_AREA_PER_BYTE;
const MACRO_QUEUE_POWER_PER_BYTE: f64 = 6.25;
const UOP_STRUCTS_POWER: f64 = 1_000.0
    - (3.0 * SIMPLE_DECODER_POWER + COMPLEX_DECODER_POWER + MSROM_POWER)
    - 16.0 * MACRO_QUEUE_POWER_PER_BYTE;
// Superset widening: +2B macro-op queue, wider micro-op encodings, and
// predicate routing, totalling +0.46% area / +0.30% power.
const SUPERSET_UOP_WIDENING_AREA: f64 = 4_600.0;
const SUPERSET_UOP_WIDENING_POWER: f64 = 3.0;

/// Decoder-block estimate for a feature set.
pub fn decoder_block(fs: &FeatureSet) -> DecoderRtl {
    let (simple, complex, msrom) = match fs.complexity() {
        Complexity::X86 => (3u8, 1u8, true),
        Complexity::MicroX86 => (4u8, 0u8, false),
    };
    let mut area = simple as f64 * SIMPLE_DECODER_AREA
        + complex as f64 * COMPLEX_DECODER_AREA
        + if msrom { MSROM_AREA } else { 0.0 }
        + 16.0 * MACRO_QUEUE_AREA_PER_BYTE
        + UOP_STRUCTS_AREA;
    let mut power = simple as f64 * SIMPLE_DECODER_POWER
        + complex as f64 * COMPLEX_DECODER_POWER
        + if msrom { MSROM_POWER } else { 0.0 }
        + 16.0 * MACRO_QUEUE_POWER_PER_BYTE
        + UOP_STRUCTS_POWER;
    let needs_custom = fs.depth() > RegisterDepth::D16 || fs.predication() == Predication::Full;
    if needs_custom {
        area += SUPERSET_UOP_WIDENING_AREA;
        power += SUPERSET_UOP_WIDENING_POWER;
    }
    DecoderRtl {
        area,
        peak_power: power,
        simple_decoders: simple,
        complex_decoders: complex,
        has_msrom: msrom,
    }
}

/// The Section III bound: savings of the decode *engine* from excluding
/// every instruction that decodes into more than one micro-op
/// (complex decoder + MSROM replaced by one simple decoder), as
/// `(power_saving_fraction, area_saving_fraction)`.
pub fn single_uop_engine_savings() -> (f64, f64) {
    let engine_area = 3.0 * SIMPLE_DECODER_AREA + COMPLEX_DECODER_AREA + MSROM_AREA;
    let engine_power = 3.0 * SIMPLE_DECODER_POWER + COMPLEX_DECODER_POWER + MSROM_POWER;
    let saved_area = COMPLEX_DECODER_AREA + MSROM_AREA - SIMPLE_DECODER_AREA;
    let saved_power = COMPLEX_DECODER_POWER + MSROM_POWER - SIMPLE_DECODER_POWER;
    (saved_power / engine_power, saved_area / engine_area)
}

/// Relative area/power of a feature set's decoder vs. the x86-64
/// baseline decoder: `(power_ratio, area_ratio)`.
#[cfg(test)]
pub(crate) fn decoder_deltas(fs: &FeatureSet) -> (f64, f64) {
    let base = decoder_block(&FeatureSet::x86_64());
    let d = decoder_block(fs);
    (d.peak_power / base.peak_power, d.area / base.area)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pct(x: f64) -> f64 {
        (x - 1.0) * 100.0
    }

    #[test]
    fn superset_decoder_costs_match_paper() {
        // Paper: +0.3% peak power, +0.46% area vs the x86-64 decoder.
        let (p, a) = decoder_deltas(&FeatureSet::superset());
        assert!((pct(p) - 0.30).abs() < 0.05, "power delta {}%", pct(p));
        assert!((pct(a) - 0.46).abs() < 0.05, "area delta {}%", pct(a));
    }

    #[test]
    fn microx86_decoder_savings_match_paper() {
        // Paper: -0.66% peak power, -1.12% area vs the x86-64 decoder.
        let fs = "microx86-16D-32W".parse().expect("valid feature-set name");
        let (p, a) = decoder_deltas(&fs);
        assert!((pct(p) + 0.66).abs() < 0.05, "power delta {}%", pct(p));
        assert!((pct(a) + 1.12).abs() < 0.05, "area delta {}%", pct(a));
    }

    #[test]
    fn ild_customization_costs_match_paper() {
        // Paper: +0.87% total peak power, +0.65% area for the superset
        // ILD modifications.
        let base = ild(&FeatureSet::x86_64());
        let sup = ild(&FeatureSet::superset());
        let dp = (sup.peak_power / base.peak_power - 1.0) * 100.0;
        let da = (sup.area / base.area - 1.0) * 100.0;
        assert!((dp - 0.87).abs() < 0.06, "ILD power delta {dp}%");
        assert!((da - 0.65).abs() < 0.06, "ILD area delta {da}%");
    }

    #[test]
    fn single_uop_engine_savings_match_section_3() {
        // Paper: up to 9.8% peak power and 15.1% area saved by
        // excluding 1:n instructions from the decode engine.
        let (p, a) = single_uop_engine_savings();
        assert!((p * 100.0 - 9.8).abs() < 0.3, "power saving {}%", p * 100.0);
        assert!((a * 100.0 - 15.1).abs() < 0.3, "area saving {}%", a * 100.0);
    }

    #[test]
    fn depth_32_alone_triggers_prefix_logic() {
        let fs: FeatureSet = "x86-32D-64W".parse().expect("valid feature-set name");
        let base = ild(&FeatureSet::x86_64());
        assert!(ild(&fs).area > base.area, "REXBC prefixes need ILD support");
        let partial16: FeatureSet = "x86-16D-64W".parse().expect("valid feature-set name");
        assert_eq!(ild(&partial16).area, base.area);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let i = ild(&FeatureSet::superset());
        let (_, a, p) = i.breakdown[3];
        assert!((a - i.area).abs() < 1e-6);
        assert!((p - i.peak_power).abs() < 1e-6);
        let parts_a: f64 = i.breakdown[..3].iter().map(|x| x.1).sum();
        assert!((parts_a - i.area).abs() < 1.0);
    }

    #[test]
    fn microx86_instantiates_four_simple_decoders() {
        let d = decoder_block(&"microx86-8D-32W".parse().expect("valid feature-set name"));
        assert_eq!(d.simple_decoders, 4);
        assert_eq!(d.complex_decoders, 0);
        assert!(!d.has_msrom);
        let x = decoder_block(&FeatureSet::x86_64());
        assert_eq!(
            (x.simple_decoders, x.complex_decoders, x.has_msrom),
            (3, 1, true)
        );
    }
}
