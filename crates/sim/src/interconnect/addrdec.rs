//! Address decoding: which L2 slice a line address belongs to.
//!
//! The pre-interconnect contention model hard-coded line-granular modulo
//! interleaving inside `SharedMemory::access`. The decoder makes that policy
//! explicit and configurable: [`InterleaveMode::Line`] reproduces the
//! historical mapping bit for bit (and is the default), while
//! [`InterleaveMode::XorFold`] folds the upper line-index bits into the
//! slice index the way real GPU address decoders hash channel/slice bits to
//! spread power-of-two strides across slices.

use serde::{Deserialize, Serialize};

/// How line addresses are interleaved across L2 slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum InterleaveMode {
    /// Consecutive cache lines map to consecutive slices:
    /// `(line_addr / line_bytes) % slices`. This is exactly the historical
    /// implicit mapping, so `Line` keeps every pre-interconnect result
    /// bit-identical.
    #[default]
    Line,
    /// The line index is XOR-folded (`idx ^ (idx >> 16) ^ (idx >> 32)`)
    /// before the modulo, hashing higher-order bits into the slice index so
    /// that large power-of-two strides do not camp on one slice.
    XorFold,
}

impl InterleaveMode {
    /// Short lowercase label, used by CSV reports and flag parsing.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            InterleaveMode::Line => "line",
            InterleaveMode::XorFold => "xor",
        }
    }
}

impl std::str::FromStr for InterleaveMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "line" => Ok(InterleaveMode::Line),
            "xor" | "xor-fold" | "xorfold" => Ok(InterleaveMode::XorFold),
            other => Err(format!("unknown interleave mode `{other}` (line|xor)")),
        }
    }
}

/// Maps line addresses to L2 slice indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressDecoder {
    line_bytes: u64,
    slices: usize,
    interleave: InterleaveMode,
}

impl AddressDecoder {
    /// Builds a decoder over `slices` slices of `line_bytes`-byte lines.
    #[must_use]
    pub fn new(line_bytes: u64, slices: usize, interleave: InterleaveMode) -> Self {
        AddressDecoder {
            line_bytes: line_bytes.max(1),
            slices: slices.max(1),
            interleave,
        }
    }

    /// The slice index `line_addr` decodes to.
    #[must_use]
    pub(crate) fn slice_of(&self, line_addr: u64) -> usize {
        let index = line_addr / self.line_bytes;
        let folded = match self.interleave {
            InterleaveMode::Line => index,
            InterleaveMode::XorFold => index ^ (index >> 16) ^ (index >> 32),
        };
        (folded % self.slices as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_mode_reproduces_the_historical_modulo() {
        let d = AddressDecoder::new(128, 32, InterleaveMode::Line);
        for line_addr in (0..4096u64).map(|i| i * 128) {
            assert_eq!(d.slice_of(line_addr), ((line_addr / 128) % 32) as usize);
        }
    }

    #[test]
    fn xor_fold_spreads_large_power_of_two_strides() {
        // A 2^23-byte stride has identical low line-index bits, so Line maps
        // every access to one slice; XorFold must spread them.
        let line = AddressDecoder::new(128, 32, InterleaveMode::Line);
        let xor = AddressDecoder::new(128, 32, InterleaveMode::XorFold);
        let addrs: Vec<u64> = (0..64u64).map(|i| i << 23).collect();
        let line_slices: std::collections::HashSet<usize> =
            addrs.iter().map(|&a| line.slice_of(a)).collect();
        let xor_slices: std::collections::HashSet<usize> =
            addrs.iter().map(|&a| xor.slice_of(a)).collect();
        assert_eq!(line_slices.len(), 1, "line interleave camps on one slice");
        assert!(xor_slices.len() > 8, "xor fold spreads the stride");
    }

    #[test]
    fn decoder_is_total_and_in_range() {
        let d = AddressDecoder::new(128, 7, InterleaveMode::XorFold);
        for addr in [0, 1, 127, 128, u64::MAX, u64::MAX - 12345] {
            assert!(d.slice_of(addr) < 7);
        }
        // Degenerate configurations clamp instead of dividing by zero.
        let d0 = AddressDecoder::new(0, 0, InterleaveMode::Line);
        assert_eq!(d0.slice_of(u64::MAX), 0);
    }

    #[test]
    fn interleave_labels_round_trip() {
        for mode in [InterleaveMode::Line, InterleaveMode::XorFold] {
            assert_eq!(mode.label().parse::<InterleaveMode>().unwrap(), mode);
        }
        assert!("diagonal".parse::<InterleaveMode>().is_err());
    }
}
