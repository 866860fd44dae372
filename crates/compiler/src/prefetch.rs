//! PREFETCH scheduling and code-size accounting.
//!
//! Each register-interval begins with one PREFETCH operation carrying a
//! 256-bit bit-vector naming the interval's register working-set. The
//! hardware decodes the bit-vector into register indices, allocates
//! register-file-cache space, and fills the cache from the main register
//! file. This module derives those bit-vectors from a
//! [`RegisterIntervalPartition`] and models the code-size overhead (§4.3 of
//! the paper: ~7% when only bit-vectors are embedded, ~9% with an explicit
//! prefetch instruction per site).

use serde::{Deserialize, Serialize};

use ltrf_isa::{BlockId, Kernel, RegSet};

use crate::{IntervalId, RegisterIntervalPartition};

/// How PREFETCH operations are encoded in the instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrefetchEncoding {
    /// Only the 256-bit bit-vector is embedded; every ordinary instruction
    /// carries an extra bit announcing that a bit-vector follows it.
    EmbeddedBitVector,
    /// An explicit PREFETCH instruction precedes each bit-vector.
    ExplicitInstruction,
}

/// Models the static code-size cost of PREFETCH operations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodeSizeModel {
    /// Size of an ordinary instruction, in bytes.
    pub instruction_bytes: usize,
    /// Size of a PREFETCH bit-vector, in bytes (256 bits).
    pub bitvector_bytes: usize,
    /// Encoding scheme in use.
    pub encoding: PrefetchEncoding,
}

impl Default for CodeSizeModel {
    fn default() -> Self {
        CodeSizeModel {
            instruction_bytes: 8,
            bitvector_bytes: 32,
            encoding: PrefetchEncoding::EmbeddedBitVector,
        }
    }
}

impl CodeSizeModel {
    /// Bytes added per PREFETCH site under this model.
    #[must_use]
    pub(crate) const fn bytes_per_site(&self) -> usize {
        match self.encoding {
            PrefetchEncoding::EmbeddedBitVector => self.bitvector_bytes,
            PrefetchEncoding::ExplicitInstruction => self.bitvector_bytes + self.instruction_bytes,
        }
    }
}

/// The PREFETCH schedule of a compiled kernel: which bit-vector is issued at
/// the entry of which block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefetchSchedule {
    /// Bit-vector per interval, indexed by interval id.
    bitvectors: Vec<RegSet>,
    /// For every block, the interval whose PREFETCH fires when the block is
    /// entered from a different interval.
    block_interval: Vec<IntervalId>,
    /// Static code size of the original kernel, in bytes.
    original_code_bytes: usize,
    /// Static code size including PREFETCH overhead, in bytes.
    augmented_code_bytes: usize,
}

impl PrefetchSchedule {
    /// Builds the schedule for `kernel` under `partition`.
    #[must_use]
    pub fn build(
        kernel: &Kernel,
        partition: &RegisterIntervalPartition,
        code_model: &CodeSizeModel,
    ) -> Self {
        let bitvectors = partition.intervals().map(|i| i.working_set).collect();
        let block_interval = (0..kernel.cfg.block_count())
            .map(|i| partition.interval_of(BlockId(i as u32)))
            .collect();
        let original_code_bytes = kernel.static_instruction_count() * code_model.instruction_bytes;
        let augmented_code_bytes =
            original_code_bytes + partition.prefetch_site_count() * code_model.bytes_per_site();
        PrefetchSchedule {
            bitvectors,
            block_interval,
            original_code_bytes,
            augmented_code_bytes,
        }
    }

    /// Returns the PREFETCH bit-vector of an interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is out of range.
    #[must_use]
    pub fn bitvector(&self, interval: IntervalId) -> &RegSet {
        &self.bitvectors[interval.index()]
    }

    /// Returns the interval a block belongs to (and therefore which PREFETCH
    /// covers it).
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    #[must_use]
    pub fn interval_of(&self, block: BlockId) -> IntervalId {
        self.block_interval[block.index()]
    }

    /// Relative code-size increase caused by PREFETCH metadata (e.g. `0.07`
    /// for 7%).
    #[must_use]
    pub(crate) fn code_size_overhead(&self) -> f64 {
        if self.original_code_bytes == 0 {
            return 0.0;
        }
        (self.augmented_code_bytes - self.original_code_bytes) as f64
            / self.original_code_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::register_interval::form_register_intervals;
    use ltrf_isa::straight_line_kernel;

    #[test]
    fn schedule_covers_all_intervals_and_blocks() {
        let kernel = straight_line_kernel("k", 32, 200);
        let (k2, p) = form_register_intervals(&kernel, 16).unwrap();
        let sched = PrefetchSchedule::build(&k2, &p, &CodeSizeModel::default());
        assert_eq!(sched.bitvectors.len(), p.interval_count());
        for block in k2.cfg.blocks() {
            let interval = sched.interval_of(block.id());
            let bv = sched.bitvector(interval);
            assert!(block.touched_registers().is_subset(bv));
        }
    }

    #[test]
    fn code_size_overhead_scales_with_sites() {
        let kernel = straight_line_kernel("k", 64, 400);
        let (k2, p) = form_register_intervals(&kernel, 16).unwrap();
        let embedded = PrefetchSchedule::build(&k2, &p, &CodeSizeModel::default());
        let explicit = PrefetchSchedule::build(
            &k2,
            &p,
            &CodeSizeModel {
                encoding: PrefetchEncoding::ExplicitInstruction,
                ..CodeSizeModel::default()
            },
        );
        assert!(embedded.code_size_overhead() > 0.0);
        assert!(explicit.code_size_overhead() > embedded.code_size_overhead());
        assert!(explicit.augmented_code_bytes > explicit.original_code_bytes);
    }

    #[test]
    fn crossing_detection() {
        let kernel = straight_line_kernel("k", 32, 64);
        let (k2, p) = form_register_intervals(&kernel, 16).unwrap();
        let sched = PrefetchSchedule::build(&k2, &p, &CodeSizeModel::default());
        // The split produced at least two blocks in different intervals.
        let b0 = BlockId(0);
        let mut found_crossing = false;
        for s in k2.cfg.successors(b0) {
            if sched.interval_of(b0) != sched.interval_of(s) {
                found_crossing = true;
            }
        }
        assert!(
            found_crossing,
            "split straight-line kernel must cross intervals"
        );
    }

    #[test]
    fn bytes_per_site_depends_on_encoding() {
        let m = CodeSizeModel::default();
        assert_eq!(m.bytes_per_site(), 32);
        let e = CodeSizeModel {
            encoding: PrefetchEncoding::ExplicitInstruction,
            ..m
        };
        assert_eq!(e.bytes_per_site(), 40);
    }
}
