//! Core configuration: the microarchitectural dimensions of Table I.

use cisa_isa::FeatureSet;

use crate::predictor::PredictorKind;

/// Execution semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecSemantics {
    /// In-order issue.
    InOrder,
    /// Out-of-order issue.
    OutOfOrder,
}

impl ExecSemantics {
    /// Table III/IV display letter.
    pub(crate) fn letter(self) -> char {
        match self {
            ExecSemantics::InOrder => 'I',
            ExecSemantics::OutOfOrder => 'O',
        }
    }
}

/// Window resources of an out-of-order core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowConfig {
    /// Instruction-queue entries.
    pub iq: u32,
    /// Reorder-buffer entries.
    pub rob: u32,
    /// Physical integer registers.
    pub prf_int: u32,
    /// Physical FP/SIMD registers.
    pub prf_fp: u32,
}

impl WindowConfig {
    /// The small OoO window class (IQ 32, ROB 64, PRF 96/64).
    pub fn small() -> Self {
        WindowConfig {
            iq: 32,
            rob: 64,
            prf_int: 96,
            prf_fp: 64,
        }
    }

    /// The large OoO window class (IQ 64, ROB 128, PRF 192/160).
    pub fn large() -> Self {
        WindowConfig {
            iq: 64,
            rob: 128,
            prf_int: 192,
            prf_fp: 160,
        }
    }

    /// The fixed structures of an in-order core (architectural file
    /// only; queues exist but do not reorder).
    pub fn in_order() -> Self {
        WindowConfig {
            iq: 32,
            rob: 64,
            prf_int: 64,
            prf_fp: 16,
        }
    }
}

/// A complete single-core design point: one feature set plus one
/// microarchitecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// ISA feature set.
    pub fs: FeatureSet,
    /// Execution semantics.
    pub sem: ExecSemantics,
    /// Fetch/issue width.
    pub width: u32,
    /// Branch predictor.
    pub predictor: PredictorKind,
    /// Simple integer ALUs.
    pub int_alu: u32,
    /// FP/SIMD ALUs.
    pub fp_alu: u32,
    /// Load/store queue entries.
    pub lsq: u32,
    /// L1 size in KB (instruction and data each, 4-way).
    pub l1_kb: u32,
    /// Shared-L2 per-core slice in KB.
    pub l2_kb: u32,
    /// Window resources (meaningful for OoO; fixed for in-order).
    pub window: WindowConfig,
}

impl CoreConfig {
    /// A mid-size out-of-order reference core on the given feature set
    /// (2-wide, tournament, small window) — convenient for tests and
    /// examples.
    pub fn reference(fs: FeatureSet) -> Self {
        CoreConfig {
            fs,
            sem: ExecSemantics::OutOfOrder,
            width: 2,
            predictor: PredictorKind::Tournament,
            int_alu: 3,
            fp_alu: 1,
            lsq: 16,
            l1_kb: 32,
            l2_kb: 1024,
            window: WindowConfig::small(),
        }
    }

    /// A minimal in-order core on the given feature set.
    pub fn little(fs: FeatureSet) -> Self {
        CoreConfig {
            fs,
            sem: ExecSemantics::InOrder,
            width: 1,
            predictor: PredictorKind::TwoLevelLocal,
            int_alu: 1,
            fp_alu: 1,
            lsq: 16,
            l1_kb: 32,
            l2_kb: 1024,
            window: WindowConfig::in_order(),
        }
    }

    /// The biggest core in the space: 4-wide OoO, large window, max
    /// execution resources.
    pub fn big(fs: FeatureSet) -> Self {
        CoreConfig {
            fs,
            sem: ExecSemantics::OutOfOrder,
            width: 4,
            predictor: PredictorKind::Tournament,
            int_alu: 6,
            fp_alu: 4,
            lsq: 32,
            l1_kb: 64,
            l2_kb: 2048,
            window: WindowConfig::large(),
        }
    }

    /// One-line Table III/IV-style description.
    pub fn describe(&self) -> String {
        format!(
            "{} {}{} {} {}i/{}f lsq{} {}kB/{}MB {}",
            self.fs,
            self.sem.letter(),
            self.width,
            self.predictor.letter(),
            self.int_alu,
            self.fp_alu,
            self.lsq,
            self.l1_kb,
            self.l2_kb / 1024,
            if self.sem == ExecSemantics::OutOfOrder {
                format!("iq{}/rob{}", self.window.iq, self.window.rob)
            } else {
                "inorder".to_string()
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_classes() {
        assert_eq!(WindowConfig::small().rob, 64);
        assert_eq!(WindowConfig::large().iq, 64);
        assert!(WindowConfig::large().prf_int > WindowConfig::small().prf_int);
    }

    #[test]
    fn named_cores_are_sane() {
        let fs = FeatureSet::x86_64();
        let little = CoreConfig::little(fs);
        let big = CoreConfig::big(fs);
        assert!(big.width > little.width);
        assert!(big.int_alu > little.int_alu);
        assert_eq!(little.sem, ExecSemantics::InOrder);
        assert_eq!(big.sem, ExecSemantics::OutOfOrder);
        assert!(CoreConfig::reference(fs).describe().contains("x86-16D-64W"));
    }
}
