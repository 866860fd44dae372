//! Synthetic memory-address generation.
//!
//! The synthetic kernels carry no real data, so the simulator generates
//! addresses for their loads and stores from a per-workload
//! [`MemoryBehavior`] description. The goal is not to reproduce any
//! particular benchmark's address trace but to expose the simulator's cache
//! hierarchy and DRAM to the same qualitative pressure the real workloads
//! create: a configurable footprint, a configurable amount of spatial
//! streaming, and a configurable probability of reusing recently touched
//! lines.

use serde::{Deserialize, Serialize};

use crate::types::WarpId;

/// Describes how a kernel touches memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryBehavior {
    /// Total global-memory footprint touched by the kernel, in bytes.
    pub footprint_bytes: u64,
    /// Probability in `[0, 1]` that an access reuses the warp's previous
    /// cache line instead of streaming onward (temporal/spatial locality).
    pub reuse_probability: f64,
    /// Stride, in bytes, between consecutive streaming accesses of one warp
    /// (128 = perfectly coalesced warp accesses marching through memory).
    pub stride_bytes: u64,
}

impl MemoryBehavior {
    /// A streaming workload with a large footprint and little reuse
    /// (memory-bandwidth bound).
    #[must_use]
    pub const fn streaming() -> Self {
        MemoryBehavior {
            footprint_bytes: 64 * 1024 * 1024,
            reuse_probability: 0.10,
            stride_bytes: 128,
        }
    }

    /// A cache-friendly workload whose working set fits in the L1/L2 caches.
    #[must_use]
    pub const fn cache_resident() -> Self {
        MemoryBehavior {
            footprint_bytes: 256 * 1024,
            reuse_probability: 0.75,
            stride_bytes: 128,
        }
    }

    /// An irregular workload: large footprint, scattered accesses.
    #[must_use]
    pub const fn irregular() -> Self {
        MemoryBehavior {
            footprint_bytes: 128 * 1024 * 1024,
            reuse_probability: 0.05,
            stride_bytes: 128 * 37,
        }
    }
}

impl Default for MemoryBehavior {
    fn default() -> Self {
        MemoryBehavior::streaming()
    }
}

/// Per-warp address generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AddressGenerator {
    behavior: MemoryBehavior,
    /// Next streaming offset per warp.
    cursor: Vec<u64>,
    /// Last address issued per warp.
    last: Vec<u64>,
    /// Simple xorshift state for reuse decisions.
    rng: u64,
}

impl AddressGenerator {
    /// Creates a generator for `warps` resident warps.
    #[must_use]
    pub fn new(behavior: MemoryBehavior, warps: usize, seed: u64) -> Self {
        AddressGenerator::sharded(behavior, warps, seed, 0, warps)
    }

    /// Creates a generator for one SM's shard of a multi-SM launch: the SM
    /// holds `warps` local warps whose global indices start at `first_warp`
    /// out of `total_warps` across the GPU.
    ///
    /// Regions are carved from the footprint by *global* warp index, so the
    /// SMs stream through disjoint slices of the same footprint (the common
    /// partitioned-grid pattern) while still colliding in the shared L2/DRAM
    /// through reuse and row/channel interleaving. With `first_warp == 0`
    /// and `total_warps == warps` this is exactly [`AddressGenerator::new`].
    #[must_use]
    pub(crate) fn sharded(
        behavior: MemoryBehavior,
        warps: usize,
        seed: u64,
        first_warp: usize,
        total_warps: usize,
    ) -> Self {
        // Spread warps evenly across the footprint so they stream through
        // disjoint regions, the common GPU access pattern.
        let footprint = behavior.footprint_bytes.max(128);
        let region = footprint / total_warps.max(1) as u64;
        let start = |w: u64| (first_warp as u64 + w) * region;
        let cursor = (0..warps as u64).map(start).collect();
        let last = (0..warps as u64).map(start).collect();
        AddressGenerator {
            behavior,
            cursor,
            last,
            rng: seed | 1,
        }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Produces the next global-memory address for `warp`.
    ///
    /// # Panics
    ///
    /// Panics if `warp` is out of range.
    pub(crate) fn next_address(&mut self, warp: WarpId) -> u64 {
        let idx = warp.index();
        let reuse = (self.next_rand() >> 11) as f64 / (1u64 << 53) as f64;
        if reuse < self.behavior.reuse_probability {
            return self.last[idx];
        }
        let footprint = self.behavior.footprint_bytes.max(128);
        let addr = self.cursor[idx] % footprint;
        self.cursor[idx] = self.cursor[idx].wrapping_add(self.behavior.stride_bytes);
        self.last[idx] = addr;
        addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warps_stream_through_disjoint_regions() {
        let mut gen = AddressGenerator::new(
            MemoryBehavior {
                footprint_bytes: 1024 * 1024,
                reuse_probability: 0.0,
                stride_bytes: 128,
            },
            4,
            7,
        );
        let a0 = gen.next_address(WarpId(0));
        let a1 = gen.next_address(WarpId(1));
        assert_ne!(a0, a1);
        assert_eq!(a1 - a0, 256 * 1024);
    }

    #[test]
    fn streaming_advances_by_stride() {
        let mut gen = AddressGenerator::new(
            MemoryBehavior {
                footprint_bytes: 1024 * 1024,
                reuse_probability: 0.0,
                stride_bytes: 128,
            },
            1,
            7,
        );
        let a = gen.next_address(WarpId(0));
        let b = gen.next_address(WarpId(0));
        assert_eq!(b - a, 128);
    }

    #[test]
    fn full_reuse_repeats_the_same_address() {
        let mut gen = AddressGenerator::new(
            MemoryBehavior {
                footprint_bytes: 1024 * 1024,
                reuse_probability: 1.0,
                stride_bytes: 128,
            },
            1,
            9,
        );
        let a = gen.next_address(WarpId(0));
        let b = gen.next_address(WarpId(0));
        assert_eq!(a, b);
    }

    #[test]
    fn addresses_stay_inside_the_footprint() {
        let behavior = MemoryBehavior {
            footprint_bytes: 4096,
            reuse_probability: 0.2,
            stride_bytes: 128,
        };
        let mut gen = AddressGenerator::new(behavior, 2, 11);
        for _ in 0..1000 {
            assert!(gen.next_address(WarpId(0)) < 4096);
            assert!(gen.next_address(WarpId(1)) < 4096);
        }
    }

    #[test]
    fn sharded_regions_follow_global_warp_indices() {
        let behavior = MemoryBehavior {
            footprint_bytes: 1024 * 1024,
            reuse_probability: 0.0,
            stride_bytes: 128,
        };
        // 4 warps over 2 SMs: SM1's first warp starts where warp 2 of a
        // 4-warp single-SM generator would.
        let mut whole = AddressGenerator::new(behavior, 4, 7);
        let mut sm1 = AddressGenerator::sharded(behavior, 2, 7, 2, 4);
        let _ = whole.next_address(WarpId(0));
        let _ = whole.next_address(WarpId(1));
        let w2 = whole.next_address(WarpId(2));
        assert_eq!(sm1.next_address(WarpId(0)), w2);
    }

    #[test]
    fn presets_are_distinct() {
        assert!(
            MemoryBehavior::streaming().footprint_bytes
                > MemoryBehavior::cache_resident().footprint_bytes
        );
        assert!(
            MemoryBehavior::irregular().reuse_probability
                < MemoryBehavior::cache_resident().reuse_probability
        );
        assert_eq!(MemoryBehavior::default(), MemoryBehavior::streaming());
    }
}
