//! Structured, context-carrying errors for the superset-ISA hot paths.
//!
//! The composite-ISA scheme lives or dies on its decode path: a
//! variable-length encoding that must be decoded correctly on every
//! derived feature set. Decoders and simulators must therefore be
//! *total* over their input space — a malformed encoding is a value the
//! caller inspects (which instruction, at which byte offset, failed and
//! why), never a crash. Every decode error comes from one bounded byte
//! walk, [`disassemble`](crate::disasm::disassemble); the length decoder
//! is a projection of it, so both report the same [`DecodeError`] for
//! the same bytes. [`StreamError`] carries that context for the
//! stream-level decode entry points, which share one stream loop;
//! [`IsaError`] is the crate-level umbrella the fault-injection harness
//! and the experiment binaries consume.

use std::fmt;

use crate::encoding::{DecodeError, EncodeError};
use crate::feature_set::ViabilityError;

/// A stream-level decode failure: *which* instruction failed, *where*
/// in the byte stream, and *why*.
///
/// Produced by the one stream loop behind
/// [`crate::encoding::InstLengthDecoder::decode_stream`] and
/// [`crate::disasm::disassemble_stream`]. Every instruction before
/// `index` decoded cleanly; `offset` bytes were consumed by them, so a
/// resynchronizing caller can keep the prefix and skip or repair the
/// tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamError {
    /// Byte offset of the failing instruction's first byte — equal to
    /// the number of bytes successfully consumed before the failure.
    pub offset: usize,
    /// Index of the failing instruction within the stream (0-based).
    pub index: usize,
    /// The per-instruction decode error.
    pub source: DecodeError,
}

impl StreamError {
    /// Bytes successfully consumed before the failing instruction.
    pub fn consumed(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instruction #{} at byte offset {}: {}",
            self.index, self.offset, self.source
        )
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Crate-level error: everything the encode/decode/disassemble paths
/// can report, each with enough context to identify the failing
/// instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// Encoding instruction `index` of a sequence failed.
    Encode {
        /// Index of the failing instruction in the input sequence.
        index: usize,
        /// The underlying encoder error.
        source: EncodeError,
    },
    /// Stream decoding or disassembly failed.
    Decode(StreamError),
    /// A feature-set combination violates the paper's viability
    /// constraints.
    Viability(ViabilityError),
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::Encode { index, source } => {
                write!(f, "encoding instruction #{index}: {source}")
            }
            IsaError::Decode(e) => write!(f, "decoding stream: {e}"),
            IsaError::Viability(e) => write!(f, "feature set not viable: {e}"),
        }
    }
}

impl std::error::Error for IsaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IsaError::Encode { source, .. } => Some(source),
            IsaError::Decode(e) => Some(e),
            IsaError::Viability(e) => Some(e),
        }
    }
}

impl From<StreamError> for IsaError {
    fn from(e: StreamError) -> Self {
        IsaError::Decode(e)
    }
}

impl From<ViabilityError> for IsaError {
    fn from(e: ViabilityError) -> Self {
        IsaError::Viability(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_error_reports_offset_and_index() {
        let e = StreamError {
            offset: 17,
            index: 4,
            source: DecodeError::Truncated,
        };
        assert_eq!(e.consumed(), 17);
        let msg = e.to_string();
        assert!(msg.contains("#4"), "{msg}");
        assert!(msg.contains("offset 17"), "{msg}");
    }

    #[test]
    fn isa_error_wraps_with_context() {
        let e: IsaError = StreamError {
            offset: 0,
            index: 0,
            source: DecodeError::UnknownOpcode(0xFF),
        }
        .into();
        assert!(e.to_string().contains("0xff"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }
}
