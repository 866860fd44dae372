//! Parameterized kernel construction.
//!
//! Every synthetic benchmark in the suite is described by a [`WorkloadSpec`]:
//! how many registers its threads use, how its loop nest is shaped, how its
//! instruction mix looks, and how it touches memory. [`WorkloadSpec::build`]
//! turns the description into a concrete [`Kernel`] via the `ltrf-isa`
//! builder. Keeping the description declarative makes the suite easy to
//! audit against the published character of the benchmarks it mimics and
//! gives the random workload generator a single point of truth.

use ltrf_isa::{ArchReg, Kernel, KernelBuilder, LaunchConfig, Opcode, RegisterSensitivity};
use ltrf_sim::MemoryBehavior;
use serde::{Deserialize, Serialize};

/// Which published benchmark suite a workload is modelled after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BenchmarkSuite {
    /// NVIDIA CUDA SDK samples.
    CudaSdk,
    /// The Rodinia heterogeneous-computing suite.
    Rodinia,
    /// The Parboil throughput-computing suite.
    Parboil,
    /// Workloads lowered from an external execution trace (`ltrf-trace`),
    /// rather than modelled after a published suite.
    Traced,
}

/// Coarse memory-access character of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryProfile {
    /// Coalesced streaming through a large footprint (e.g. dense linear
    /// algebra, stencils).
    Streaming,
    /// Working set that largely fits in the on-chip caches.
    CacheResident,
    /// Scattered, data-dependent accesses (graph traversal, sparse algebra).
    Irregular,
}

impl MemoryProfile {
    /// The simulator memory behaviour corresponding to this profile.
    #[must_use]
    pub fn behavior(self) -> MemoryBehavior {
        match self {
            MemoryProfile::Streaming => MemoryBehavior::streaming(),
            MemoryProfile::CacheResident => MemoryBehavior::cache_resident(),
            MemoryProfile::Irregular => MemoryBehavior::irregular(),
        }
    }
}

/// Declarative description of a synthetic kernel.
///
/// Serialize-only: the `&'static str` name ties specs to the static suite
/// catalogue (and the generator's name table), so specs are reconstructed
/// from those sources rather than deserialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WorkloadSpec {
    /// Benchmark name (matches the paper's workload names).
    pub name: &'static str,
    /// Suite the benchmark comes from.
    pub suite: BenchmarkSuite,
    /// Registers per thread the compiler would allocate under the default
    /// register budget (drives occupancy in the simulator).
    pub regs_per_thread: u16,
    /// Registers per thread the kernel would use with `maxregcount` lifted
    /// (drives the Table 1 capacity-requirement study).
    pub unconstrained_regs_per_thread: u16,
    /// Whether the register file limits the kernel's achievable TLP.
    pub sensitivity: RegisterSensitivity,
    /// Iterations of the outer loop.
    pub outer_trips: u32,
    /// Iterations of the inner loop per outer iteration.
    pub inner_trips: u32,
    /// Arithmetic instructions in the inner-loop body.
    pub body_alu: usize,
    /// Global loads in the inner-loop body.
    pub body_loads: usize,
    /// Shared-memory accesses in the inner-loop body.
    pub body_shared: usize,
    /// Special-function operations in the inner-loop body.
    pub body_sfu: usize,
    /// Whether the outer loop ends with a barrier (tiled kernels).
    pub barrier_per_outer: bool,
    /// Memory-access character.
    pub memory: MemoryProfile,
    /// Warps per thread block.
    pub warps_per_block: u32,
    /// Thread blocks in the grid.
    pub blocks_per_grid: u32,
}

impl WorkloadSpec {
    /// Total dynamic instructions one warp of this kernel executes
    /// (prologue + loop nest + epilogue), used by tests and by the harness to
    /// report simulation effort.
    #[must_use]
    pub fn dynamic_instructions_per_warp(&self) -> u64 {
        let body = (self.body_alu + self.body_loads + self.body_shared + self.body_sfu) as u64;
        let prologue = self.prologue_len() as u64;
        let inner = body * u64::from(self.inner_trips);
        // Per outer iteration: one header instruction, the inner loop, one
        // latch instruction, and optionally a barrier.
        let per_outer = inner + 2 + u64::from(self.barrier_per_outer);
        prologue + per_outer * u64::from(self.outer_trips) + 1
    }

    fn prologue_len(&self) -> usize {
        // The prologue materialises every declared register once (base
        // addresses, tile pointers, loop-invariant values), which is what
        // creates the kernel's occupancy pressure; the hot inner loop then
        // works on a compact subset, as real GPU kernels do.
        (self.regs_per_thread as usize).max(4)
    }

    /// Builds the concrete kernel for this specification.
    ///
    /// The CFG shape is always: a prologue block that initialises the live-in
    /// registers, an outer-loop header, an inner-loop body block (the hot
    /// loop), an outer latch (with optional barrier), and an epilogue that
    /// stores results.
    ///
    /// # Panics
    ///
    /// Panics if the specification is degenerate (zero registers or zero trip
    /// counts); the suite and the generator never produce such specs.
    #[must_use]
    pub fn build(&self) -> Kernel {
        assert!(
            self.regs_per_thread >= 8,
            "workloads need at least 8 registers"
        );
        assert!(self.outer_trips >= 1 && self.inner_trips >= 1);
        let regs = self.regs_per_thread;
        let r = |i: u16| ArchReg::new((i % regs.min(256)) as u8);

        let mut b = KernelBuilder::new(self.name, regs);
        b.sensitivity(self.sensitivity);
        b.launch(LaunchConfig::new(
            self.warps_per_block,
            self.blocks_per_grid,
            0,
        ));

        let prologue = b.entry_block();
        let outer = b.add_block();
        let inner = b.add_block();
        let latch = b.add_block();
        let epilogue = b.add_block();

        // Prologue: materialise base addresses and loop-invariant values.
        let prologue_len = self.prologue_len();
        for i in 0..prologue_len {
            b.push(prologue, Opcode::Mov, Some(r(i as u16)), &[]);
        }
        b.jump(prologue, outer);

        // Outer-loop header: a little index arithmetic.
        b.push(outer, Opcode::IAlu, Some(r(0)), &[r(1)]);
        b.jump(outer, inner);

        // Inner-loop body: the hot loop with the configured instruction mix.
        // The loop works on a compact set of accumulator registers (as real
        // kernels do), while the full register allocation was touched in the
        // prologue; this is what lets a 16-register interval capture a loop.
        let hi_base = regs / 2;
        let inner_slots = (regs - hi_base).clamp(1, 8);
        let mut dest = 0u16;
        let mut next_dest = || {
            let d = hi_base + (dest % inner_slots);
            dest += 1;
            d
        };
        for i in 0..self.body_loads {
            let d = next_dest();
            b.push(inner, Opcode::LoadGlobal, Some(r(d)), &[r(i as u16 % 4)]);
        }
        for i in 0..self.body_shared {
            let d = next_dest();
            b.push(inner, Opcode::LoadShared, Some(r(d)), &[r(i as u16 % 4)]);
        }
        for i in 0..self.body_alu {
            let d = next_dest();
            let s1 = r(hi_base + (i as u16 % inner_slots));
            let s2 = r(i as u16 % 4);
            let op = if i % 3 == 0 {
                Opcode::FFma
            } else {
                Opcode::FAlu
            };
            if op == Opcode::FFma {
                b.push(inner, op, Some(r(d)), &[s1, s2, r(d)]);
            } else {
                b.push(inner, op, Some(r(d)), &[s1, s2]);
            }
        }
        for _ in 0..self.body_sfu {
            let d = next_dest();
            b.push(inner, Opcode::Sfu, Some(r(d)), &[r(d)]);
        }
        b.loop_branch(inner, inner, latch, self.inner_trips);

        // Outer latch: accumulate and optionally synchronise.
        b.push(latch, Opcode::FAlu, Some(r(2)), &[r(2), r(hi_base)]);
        if self.barrier_per_outer {
            b.push(latch, Opcode::Barrier, None, &[]);
        }
        b.loop_branch(latch, outer, epilogue, self.outer_trips);

        // Epilogue: store the result.
        b.push(epilogue, Opcode::StoreGlobal, None, &[r(1), r(2)]);
        b.exit(epilogue);

        b.build()
            .expect("workload specifications always build valid kernels")
    }
}

/// A built workload: the kernel plus everything the harness needs to run it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The specification the kernel was built from.
    pub spec: WorkloadSpec,
    /// The kernel.
    pub kernel: Kernel,
}

impl Workload {
    /// Builds the workload from its specification.
    #[must_use]
    pub fn from_spec(spec: WorkloadSpec) -> Self {
        Workload {
            kernel: spec.build(),
            spec,
        }
    }

    /// Benchmark name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.spec.name
    }

    /// The simulator memory behaviour for this workload.
    #[must_use]
    pub fn memory(&self) -> MemoryBehavior {
        self.spec.memory.behavior()
    }

    /// Whether the workload is register-sensitive.
    #[must_use]
    pub fn is_register_sensitive(&self) -> bool {
        self.spec.sensitivity == RegisterSensitivity::Sensitive
    }

    /// The kernel with its grid scaled for an `sm_count`-SM GPU (weak
    /// scaling: `sm_count` times as many CTAs, so every SM of a multi-SM
    /// campaign receives the same per-SM work the single-SM campaigns run).
    ///
    /// The experiment runner applies the same scaling itself from an
    /// `ExperimentConfig`'s `sm_count`; this helper exists for callers that
    /// drive the simulator directly.
    #[must_use]
    pub fn kernel_for_sm_count(&self, sm_count: usize) -> Kernel {
        self.kernel
            .with_grid_scaled(u32::try_from(sm_count.max(1)).unwrap_or(u32::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltrf_isa::trace::trace_stats;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "unit-test",
            suite: BenchmarkSuite::Rodinia,
            regs_per_thread: 32,
            unconstrained_regs_per_thread: 48,
            sensitivity: RegisterSensitivity::Sensitive,
            outer_trips: 3,
            inner_trips: 5,
            body_alu: 6,
            body_loads: 2,
            body_shared: 1,
            body_sfu: 1,
            barrier_per_outer: true,
            memory: MemoryProfile::Streaming,
            warps_per_block: 8,
            blocks_per_grid: 4,
        }
    }

    #[test]
    fn build_produces_a_valid_kernel_with_expected_shape() {
        let w = Workload::from_spec(spec());
        assert_eq!(w.name(), "unit-test");
        assert!(w.is_register_sensitive());
        assert_eq!(w.kernel.cfg.block_count(), 5);
        assert_eq!(w.kernel.regs_per_thread(), 32);
        assert_eq!(w.kernel.launch().total_warps(), 32);
    }

    #[test]
    fn dynamic_instruction_prediction_matches_the_trace() {
        let s = spec();
        let w = Workload::from_spec(s);
        let stats = trace_stats(&w.kernel, 3);
        assert_eq!(
            stats.dynamic_instructions,
            s.dynamic_instructions_per_warp()
        );
    }

    #[test]
    fn kernel_for_sm_count_scales_the_grid() {
        let w = Workload::from_spec(spec());
        let scaled = w.kernel_for_sm_count(8);
        assert_eq!(scaled.launch().blocks_per_grid, 8 * 4);
        assert_eq!(scaled.launch().warps_per_block, 8);
        assert_eq!(
            w.kernel_for_sm_count(1).launch(),
            w.kernel.launch(),
            "one SM keeps the original grid"
        );
    }

    #[test]
    fn memory_profile_maps_to_behaviour() {
        assert_eq!(
            MemoryProfile::Streaming.behavior(),
            MemoryBehavior::streaming()
        );
        assert_eq!(
            MemoryProfile::CacheResident.behavior(),
            MemoryBehavior::cache_resident()
        );
        assert_eq!(
            MemoryProfile::Irregular.behavior(),
            MemoryBehavior::irregular()
        );
    }

    #[test]
    fn register_footprint_scales_with_spec() {
        let small = WorkloadSpec {
            regs_per_thread: 16,
            ..spec()
        }
        .build();
        let large = WorkloadSpec {
            regs_per_thread: 64,
            ..spec()
        }
        .build();
        let referenced = |kernel: &ltrf_isa::Kernel| {
            let mut registers = ltrf_isa::RegSet::new();
            for block in kernel.cfg.blocks() {
                registers.union_with(&block.touched_registers());
            }
            registers.len()
        };
        assert!(referenced(&large) > referenced(&small));
    }
}
