//! # cisa-decode: the two-phase x86 decode engine model
//!
//! Models the fetch/decode engine of Section V (Figure 4): the parallel
//! instruction-length decoder, the decoder cluster (n simple 1:1
//! decoders, one complex 1:4 decoder, the microsequencing ROM), the
//! micro-op cache and micro-op fusion.
//!
//! Two halves:
//!
//! - [`engine`] — the *functional* model the cycle simulator drives: a
//!   set-associative micro-op cache over PC windows, per-cycle decode
//!   slot accounting, and macro-op fusion, producing the activity counts
//!   the power model consumes.
//! - [`rtl`] — the *structural* area/power model standing in for the
//!   paper's Synopsys DC synthesis: named subunits with calibrated gate
//!   budgets, reproducing the paper's deltas (superset decoder +0.3%
//!   peak power / +0.46% area; microx86-32 decoder -0.66% / -1.12%; ILD
//!   +0.87% / +0.65%).
//!
//! Under the micro-op cache sits [`lru::LruSets`], the flat LRU tag
//! array that `cisa-sim`'s L1/L2 caches reuse.

#![warn(missing_docs)]

pub mod engine;
pub mod lru;
pub mod rtl;

pub use engine::{DecodeFrontend, DecodeStats, DecoderConfig, MacroRecord, SupplySource};
pub use lru::LruSets;
pub use rtl::{decoder_block, ild, DecoderRtl, IldRtl};
