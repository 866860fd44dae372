//! The full memory hierarchy: per-SM L1 data cache, shared last-level cache,
//! and DRAM, with a simple MSHR-style limit on outstanding requests.
//!
//! The hierarchy comes in two shapes behind one type:
//!
//! * **Private** — [`MemoryHierarchy::new`]: the L1, L2, and DRAM all belong
//!   to the one simulated SM. This is the configuration every single-SM
//!   campaign runs and models the L2 with *unlimited* bandwidth (optimistic
//!   when many SMs would really share it).
//! * **Shared** — `MemoryHierarchy::shared_port`: the L1 and MSHRs stay
//!   private, but L2 and DRAM live in a [`SharedMemory`] that every SM's
//!   port references. The shared L2 is sliced ([`L2Config`]) and each slice
//!   serves one request per occupancy window, so concurrent request streams
//!   queue against each other — the chip-level contention the multi-SM mode
//!   exists to model.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use crate::config::{L2Config, MemoryConfig};
use crate::interconnect::{
    build_network, AddressDecoder, Interconnect, InterconnectConfig, InterconnectStats,
};
use crate::memory::cache::{Cache, CacheOutcome, CacheStats};
use crate::memory::dram::{Dram, DramStats};
use crate::types::Cycle;

/// Aggregated statistics of the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MemoryStats {
    /// L1 data-cache statistics.
    pub l1d: CacheStats,
    /// Last-level cache statistics. For a shared port these are the
    /// GPU-global L2 numbers (every SM port reports the same totals).
    pub llc: CacheStats,
    /// DRAM statistics. GPU-global for a shared port, like `llc`.
    pub dram: DramStats,
    /// Global memory requests issued.
    pub global_requests: u64,
    /// Requests rejected because too many were outstanding (issue stalls).
    pub mshr_stalls: u64,
    /// Cycles requests spent queued behind busy L2 slices (always zero for
    /// a private hierarchy, whose L2 has unlimited bandwidth).
    pub l2_queue_wait_cycles: u64,
    /// Slice-port queue wait of the *least* loaded L2 slice, in cycles
    /// (zero for a private hierarchy). The min/max spread exposes slice
    /// imbalance that the aggregate wait hides.
    pub l2_slice_wait_min: u64,
    /// Slice-port queue wait of the *most* loaded L2 slice, in cycles.
    pub l2_slice_wait_max: u64,
    /// SM↔L2 interconnect statistics (all zero for a private hierarchy and
    /// for the default `Ideal` topology's latency counters).
    pub noc: InterconnectStats,
}

/// The chip-level memory structures shared by every SM: the sliced L2 and
/// the DRAM channels.
///
/// Single-threaded by design — a multi-SM simulation interleaves its SMs on
/// one thread (the sweep engine parallelizes across campaign *points*, not
/// inside one), so ports hold this behind `Rc<RefCell<..>>`.
#[derive(Debug)]
pub struct SharedMemory {
    llc: Cache,
    dram: Dram,
    llc_hit_latency: Cycle,
    /// Maps line addresses to L2 slices (replaces the historical implicit
    /// modulo; the default `Line` interleave reproduces it bit for bit).
    decoder: AddressDecoder,
    /// Transport from SM to slice port. `Ideal` (the default) is the
    /// identity on arrival time, so slice-port arbitration below is exactly
    /// the pre-interconnect contention model.
    network: Box<dyn Interconnect>,
    /// Next-free cycle per L2 slice.
    slice_free: Vec<Cycle>,
    /// Cycles spent queued at each slice's port (per-slice imbalance stat).
    slice_wait_cycles: Vec<u64>,
    service_cycles: Cycle,
    l2_queue_wait_cycles: u64,
}

impl SharedMemory {
    /// Creates the shared L2 + DRAM from the chip-wide memory configuration,
    /// with the default (`Ideal`) interconnect.
    #[must_use]
    pub fn new(config: &MemoryConfig, l2: &L2Config) -> Self {
        SharedMemory::with_interconnect(config, l2, &InterconnectConfig::default(), 1)
    }

    /// Creates the shared L2 + DRAM with an explicit SM↔L2 network joining
    /// `sm_count` SMs to the slices.
    #[must_use]
    pub fn with_interconnect(
        config: &MemoryConfig,
        l2: &L2Config,
        interconnect: &InterconnectConfig,
        sm_count: usize,
    ) -> Self {
        let slices = l2.slices.max(1);
        SharedMemory {
            llc: Cache::new(config.llc_bytes, config.llc_ways, config.line_bytes),
            dram: Dram::new(config),
            llc_hit_latency: config.llc_hit_latency,
            decoder: AddressDecoder::new(config.line_bytes, slices, interconnect.interleave),
            network: build_network(interconnect, sm_count, slices, config.line_bytes),
            slice_free: vec![0; slices],
            slice_wait_cycles: vec![0; slices],
            service_cycles: l2.service_cycles,
            l2_queue_wait_cycles: 0,
        }
    }

    /// Services an L1 miss from SM `src_sm` leaving its L1 at `arrive`;
    /// returns the completion cycle. The request first crosses the network
    /// to its slice's input port, then queues for the slice's occupancy
    /// window exactly as before.
    fn access(&mut self, src_sm: usize, line_addr: u64, arrive: Cycle) -> Cycle {
        let slice = self.decoder.slice_of(line_addr);
        let port_arrive = self.network.route(src_sm, slice, arrive);
        let start = port_arrive.max(self.slice_free[slice]);
        self.l2_queue_wait_cycles += start - port_arrive;
        self.slice_wait_cycles[slice] += start - port_arrive;
        self.slice_free[slice] = start + self.service_cycles;
        let tag_done = start + self.llc_hit_latency;
        match self.llc.access(line_addr) {
            CacheOutcome::Hit => tag_done,
            CacheOutcome::Miss => self.dram.access(line_addr, tag_done),
        }
    }

    /// GPU-global L2 statistics.
    #[must_use]
    pub(crate) fn llc_stats(&self) -> CacheStats {
        self.llc.stats()
    }

    /// GPU-global DRAM statistics.
    #[must_use]
    pub(crate) fn dram_stats(&self) -> DramStats {
        self.dram.stats()
    }

    /// Cycles requests spent queued behind busy L2 slices.
    #[must_use]
    pub(crate) fn l2_queue_wait_cycles(&self) -> u64 {
        self.l2_queue_wait_cycles
    }

    /// Queue-wait cycles of the least and most loaded L2 slices.
    #[must_use]
    pub(crate) fn slice_wait_bounds(&self) -> (u64, u64) {
        let min = self.slice_wait_cycles.iter().copied().min().unwrap_or(0);
        let max = self.slice_wait_cycles.iter().copied().max().unwrap_or(0);
        (min, max)
    }

    /// GPU-global SM↔L2 network statistics.
    #[must_use]
    pub(crate) fn noc_stats(&self) -> InterconnectStats {
        self.network.stats()
    }
}

/// Which L2/DRAM a hierarchy drains into.
///
/// The private levels are boxed so the enum stays pointer-sized either way
/// (the cache tag arrays are large).
#[derive(Debug)]
enum Backend {
    /// SM-private L2 + DRAM with unlimited L2 bandwidth (the validated
    /// single-SM configuration).
    Private(Box<PrivateLevels>),
    /// A port onto the chip-shared structures.
    Shared(Rc<RefCell<SharedMemory>>),
}

/// The L2 and DRAM owned outright by a single-SM hierarchy.
#[derive(Debug)]
struct PrivateLevels {
    llc: Cache,
    dram: Dram,
}

/// The memory hierarchy serving one simulated SM.
#[derive(Debug)]
pub struct MemoryHierarchy {
    config: MemoryConfig,
    l1d: Cache,
    backend: Backend,
    /// Which SM this port belongs to — the network source for shared
    /// backends (always 0 for a private hierarchy).
    sm_index: usize,
    /// Completion times of outstanding requests, earliest on top (bounded
    /// by the MSHR count).
    outstanding: BinaryHeap<Reverse<Cycle>>,
    stats_global_requests: u64,
    stats_mshr_stalls: u64,
}

impl MemoryHierarchy {
    /// Creates a fully private hierarchy from the configuration.
    #[must_use]
    pub fn new(config: &MemoryConfig) -> Self {
        MemoryHierarchy {
            config: *config,
            l1d: Cache::new(config.l1d_bytes, config.l1d_ways, config.line_bytes),
            backend: Backend::Private(Box::new(PrivateLevels {
                llc: Cache::new(config.llc_bytes, config.llc_ways, config.line_bytes),
                dram: Dram::new(config),
            })),
            sm_index: 0,
            outstanding: BinaryHeap::with_capacity(config.max_outstanding_requests),
            stats_global_requests: 0,
            stats_mshr_stalls: 0,
        }
    }

    /// Creates SM `sm_index`'s port onto a shared L2/DRAM: a private L1 and
    /// MSHRs in front of `shared`. The index is the port's source address in
    /// the SM↔L2 network.
    #[must_use]
    pub(crate) fn shared_port(
        config: &MemoryConfig,
        shared: Rc<RefCell<SharedMemory>>,
        sm_index: usize,
    ) -> Self {
        MemoryHierarchy {
            config: *config,
            l1d: Cache::new(config.l1d_bytes, config.l1d_ways, config.line_bytes),
            backend: Backend::Shared(shared),
            sm_index,
            outstanding: BinaryHeap::with_capacity(config.max_outstanding_requests),
            stats_global_requests: 0,
            stats_mshr_stalls: 0,
        }
    }

    /// Returns `true` if a new global-memory request can be accepted at
    /// `now` (an MSHR slot is free).
    ///
    /// Retiring is destructive: every request completed by `now` leaves the
    /// MSHRs for good, even if a later call asks about an earlier cycle.
    pub(crate) fn can_accept(&mut self, now: Cycle) -> bool {
        while self
            .outstanding
            .peek()
            .is_some_and(|&Reverse(done)| done <= now)
        {
            self.outstanding.pop();
        }
        self.outstanding.len() < self.config.max_outstanding_requests
    }

    /// While every MSHR is occupied, the completion cycle of the earliest
    /// outstanding request: no request is accepted before it. `None` while
    /// a slot is free.
    #[must_use]
    pub(crate) fn mshr_release(&self) -> Option<Cycle> {
        if self.outstanding.len() < self.config.max_outstanding_requests {
            return None;
        }
        self.outstanding.peek().map(|&Reverse(done)| done)
    }

    /// Issues a global-memory access (load or store) for `address` at `now`
    /// and returns its completion cycle.
    ///
    /// Callers should check [`Self::can_accept`] first; a request issued
    /// while the MSHRs are full is still serviced but records a stall.
    pub(crate) fn access_global(&mut self, address: u64, now: Cycle) -> Cycle {
        if !self.can_accept(now) {
            self.stats_mshr_stalls += 1;
        }
        self.stats_global_requests += 1;
        let line_addr = address / self.config.line_bytes * self.config.line_bytes;
        let l1 = self.l1d.access(line_addr);
        let done = match l1 {
            CacheOutcome::Hit => now + self.config.l1_hit_latency,
            CacheOutcome::Miss => {
                let l2_arrive = now + self.config.l1_hit_latency;
                match &mut self.backend {
                    Backend::Private(levels) => match levels.llc.access(line_addr) {
                        CacheOutcome::Hit => l2_arrive + self.config.llc_hit_latency,
                        CacheOutcome::Miss => levels
                            .dram
                            .access(line_addr, l2_arrive + self.config.llc_hit_latency),
                    },
                    Backend::Shared(shared) => {
                        // Network transport + slice queueing fold into the
                        // completion cycle returned here, which becomes the
                        // issuing warp's wakeup — so the fast engine's
                        // skip-ahead horizon already accounts for in-flight
                        // network occupancy (see `interconnect` module docs).
                        shared
                            .borrow_mut()
                            .access(self.sm_index, line_addr, l2_arrive)
                    }
                }
            }
        };
        self.outstanding.push(Reverse(done));
        done
    }

    /// Cumulative statistics. For a shared port the `llc`/`dram` fields are
    /// the GPU-global totals of the shared structures.
    #[must_use]
    pub(crate) fn stats(&self) -> MemoryStats {
        let (llc, dram, l2_queue_wait_cycles, (slice_min, slice_max), noc) = match &self.backend {
            Backend::Private(levels) => (
                levels.llc.stats(),
                levels.dram.stats(),
                0,
                (0, 0),
                InterconnectStats::default(),
            ),
            Backend::Shared(shared) => {
                let shared = shared.borrow();
                (
                    shared.llc_stats(),
                    shared.dram_stats(),
                    shared.l2_queue_wait_cycles(),
                    shared.slice_wait_bounds(),
                    shared.noc_stats(),
                )
            }
        };
        MemoryStats {
            l1d: self.l1d.stats(),
            llc,
            dram,
            global_requests: self.stats_global_requests,
            mshr_stalls: self.stats_mshr_stalls,
            l2_queue_wait_cycles,
            l2_slice_wait_min: slice_min,
            l2_slice_wait_max: slice_max,
            noc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(&MemoryConfig::default())
    }

    #[test]
    fn l1_hit_is_fast() {
        let mut m = hierarchy();
        let cfg = MemoryConfig::default();
        let first = m.access_global(0, 0);
        assert!(first > cfg.l1_hit_latency, "first access misses everywhere");
        let second = m.access_global(0, first);
        assert_eq!(second - first, cfg.l1_hit_latency);
        assert_eq!(m.stats().l1d.hits, 1);
    }

    #[test]
    fn llc_filters_dram_traffic() {
        let mut m = hierarchy();
        // Touch enough distinct lines to overflow the 16 KB L1 (128 lines)
        // but stay well within the 2 MB LLC.
        let lines = 1024u64;
        for i in 0..lines {
            m.access_global(i * 128, 0);
        }
        // Second sweep: misses L1 (capacity) but hits LLC.
        for i in 0..lines {
            m.access_global(i * 128, 1_000_000);
        }
        let stats = m.stats();
        assert!(
            stats.llc.hits >= lines / 2,
            "LLC should absorb the second sweep"
        );
        assert_eq!(stats.global_requests, 2 * lines);
    }

    #[test]
    fn dram_latency_dominates_cold_misses() {
        let mut m = hierarchy();
        let cfg = MemoryConfig::default();
        let done = m.access_global(0, 0);
        assert!(
            done >= cfg.l1_hit_latency + cfg.llc_hit_latency + cfg.dram_row_miss_latency,
            "cold miss must traverse the full hierarchy"
        );
    }

    #[test]
    fn mshr_limit_throttles() {
        let mut m = hierarchy();
        let cfg = MemoryConfig::default();
        // Issue far more concurrent requests than MSHRs at the same cycle.
        for i in 0..(cfg.max_outstanding_requests as u64 * 2) {
            let _ = m.access_global(i * 4096, 0);
        }
        assert!(!m.can_accept(0));
        assert!(m.stats().mshr_stalls > 0);
        // After everything completes the hierarchy accepts requests again.
        assert!(m.can_accept(1_000_000_000));
    }

    /// The retire semantics the MSHR heap keeps: a request completed by the
    /// latest cycle any call has seen is gone for good, even when a later
    /// call asks about an earlier cycle, and the release query reports the
    /// earliest completion only while every MSHR is busy.
    #[test]
    fn mshr_retire_is_destructive_and_release_is_the_earliest_completion() {
        let cfg = MemoryConfig {
            max_outstanding_requests: 2,
            ..MemoryConfig::default()
        };
        let mut m = MemoryHierarchy::new(&cfg);
        assert_eq!(m.mshr_release(), None, "no request outstanding");
        let a = m.access_global(0, 0);
        assert_eq!(m.mshr_release(), None, "one of two MSHRs busy");
        let b = m.access_global(4096, 10);
        let first = a.min(b);
        assert_eq!(m.mshr_release(), Some(first), "both MSHRs busy");
        assert!(!m.can_accept(first - 1));
        assert_eq!(
            m.mshr_release(),
            Some(first),
            "a failed check retires nothing"
        );
        // A request issued at a future cycle retires everything done by then.
        let c = m.access_global(8192, a.max(b));
        assert!(c > a.max(b));
        // Both retired requests stay retired when an earlier cycle is asked
        // about: only the new request is outstanding.
        assert!(m.can_accept(first - 1));
        assert_eq!(m.mshr_release(), None);
        let d = m.access_global(12288, first - 1);
        assert_eq!(m.mshr_release(), Some(c.min(d)));
        assert!(m.can_accept(c.max(d)));
        assert_eq!(m.mshr_release(), None, "everything retired");
        assert_eq!(m.stats().mshr_stalls, 0);
    }

    #[test]
    fn shared_port_uncontended_matches_private_timing() {
        // One SM on a shared backend with zero slice occupancy sees the
        // private hierarchy's exact latencies (no queueing, same caches).
        let cfg = MemoryConfig::default();
        let l2 = L2Config {
            slices: 32,
            service_cycles: 0,
        };
        let shared = Rc::new(RefCell::new(SharedMemory::new(&cfg, &l2)));
        let mut port = MemoryHierarchy::shared_port(&cfg, shared, 0);
        let mut private = hierarchy();
        for i in 0..256u64 {
            let addr = i * 256;
            assert_eq!(
                port.access_global(addr, i * 10),
                private.access_global(addr, i * 10)
            );
        }
    }

    #[test]
    fn shared_l2_slices_queue_concurrent_requests() {
        let cfg = MemoryConfig::default();
        let l2 = L2Config {
            slices: 1,
            service_cycles: 4,
        };
        let shared = Rc::new(RefCell::new(SharedMemory::new(&cfg, &l2)));
        let mut a = MemoryHierarchy::shared_port(&cfg, Rc::clone(&shared), 0);
        let mut b = MemoryHierarchy::shared_port(&cfg, Rc::clone(&shared), 1);
        // Two SMs miss their L1s at the same cycle; the single slice
        // serialises them.
        let done_a = a.access_global(0, 0);
        let done_b = b.access_global(128, 0);
        assert!(done_b > done_a || done_a > done_b);
        assert!(shared.borrow().l2_queue_wait_cycles() > 0);
        // Both ports report the same GPU-global shared stats.
        assert_eq!(a.stats().llc, b.stats().llc);
        assert_eq!(a.stats().dram, b.stats().dram);
    }

    #[test]
    fn shared_l2_is_shared_content() {
        // SM A warms a line; SM B's first access to it hits the L2 even
        // though B's L1 is cold — cross-SM sharing through the L2.
        let cfg = MemoryConfig::default();
        let shared = Rc::new(RefCell::new(SharedMemory::new(&cfg, &L2Config::default())));
        let mut a = MemoryHierarchy::shared_port(&cfg, Rc::clone(&shared), 0);
        let mut b = MemoryHierarchy::shared_port(&cfg, Rc::clone(&shared), 1);
        let _ = a.access_global(4096, 0);
        let warm = b.access_global(4096, 100_000);
        assert!(
            warm - 100_000 < cfg.l1_hit_latency + cfg.llc_hit_latency + cfg.dram_row_hit_latency,
            "B's access must be served by the shared L2, not DRAM"
        );
        assert_eq!(shared.borrow().llc_stats().hits, 1);
    }

    use crate::interconnect::{InterconnectConfig, Topology};

    /// `n` ports onto one shared memory, SM-indexed 0..n.
    fn ports(
        cfg: &MemoryConfig,
        shared: &Rc<RefCell<SharedMemory>>,
        n: usize,
    ) -> Vec<MemoryHierarchy> {
        (0..n)
            .map(|sm| MemoryHierarchy::shared_port(cfg, Rc::clone(shared), sm))
            .collect()
    }

    #[test]
    fn ideal_with_interconnect_matches_plain_shared_memory() {
        // `with_interconnect` + default config must be bit-identical to the
        // historical `new` constructor, access for access.
        let cfg = MemoryConfig::default();
        let l2 = L2Config::default();
        let plain = Rc::new(RefCell::new(SharedMemory::new(&cfg, &l2)));
        let icn = Rc::new(RefCell::new(SharedMemory::with_interconnect(
            &cfg,
            &l2,
            &InterconnectConfig::default(),
            16,
        )));
        let mut a = ports(&cfg, &plain, 4);
        let mut b = ports(&cfg, &icn, 4);
        for step in 0..2048u64 {
            let sm = (step % 4) as usize;
            let addr = (step * 7919) % (1 << 20);
            let at = step / 4;
            assert_eq!(
                a[sm].access_global(addr, at),
                b[sm].access_global(addr, at),
                "step {step}"
            );
        }
        assert_eq!(
            plain.borrow().l2_queue_wait_cycles(),
            icn.borrow().l2_queue_wait_cycles()
        );
    }

    #[test]
    fn all_sms_hammering_one_slice_serialize_in_sm_order() {
        // Every SM misses to the same line at the same cycle: the single
        // slice's occupancy window serialises them in port-call (SM-index)
        // order, with strictly increasing completions past the first.
        let cfg = MemoryConfig::default();
        let l2 = L2Config {
            slices: 8,
            service_cycles: 4,
        };
        let shared = Rc::new(RefCell::new(SharedMemory::new(&cfg, &l2)));
        // Warm the shared L2 through throwaway ports so the hammering
        // accesses below are pure LLC hits (DRAM bank interleaving would
        // otherwise scramble completion order).
        for (sm, port) in ports(&cfg, &shared, 8).iter_mut().enumerate() {
            port.access_global(sm as u64 * 8 * 128, 0);
        }
        let mut sms = ports(&cfg, &shared, 8);
        // Distinct addresses in the same slice (slice 0 of 8, 128 B lines):
        // line indices 0, 8, 16, ... so L1s don't share lines.
        let dones: Vec<Cycle> = sms
            .iter_mut()
            .enumerate()
            .map(|(sm, port)| port.access_global(sm as u64 * 8 * 128, 1_000_000))
            .collect();
        for pair in dones.windows(2) {
            assert!(pair[1] > pair[0], "later SMs queue behind earlier ones");
        }
        let (min, max) = shared.borrow().slice_wait_bounds();
        assert_eq!(min, 0, "seven slices stayed idle");
        assert_eq!(
            max,
            shared.borrow().l2_queue_wait_cycles(),
            "all queueing happened on the hammered slice"
        );
    }

    #[test]
    fn crossbar_queue_full_backpressures_the_slice_port() {
        // A depth-2 crossbar output port: burst 6 same-slice misses at one
        // cycle and the later ones must wait for queue slots, not just the
        // wire — strictly more total latency than an unbounded queue.
        let cfg = MemoryConfig::default();
        let l2 = L2Config {
            slices: 4,
            service_cycles: 0,
        };
        let run = |depth: usize| {
            let icn = InterconnectConfig {
                topology: Topology::Crossbar,
                queue_depth: depth,
                ..InterconnectConfig::default()
            };
            let shared = Rc::new(RefCell::new(SharedMemory::with_interconnect(
                &cfg, &l2, &icn, 6,
            )));
            let mut sms = ports(&cfg, &shared, 6);
            let last = sms
                .iter_mut()
                .enumerate()
                .map(|(sm, port)| port.access_global(sm as u64 * 4 * 128, 0))
                .max()
                .unwrap();
            let noc = shared.borrow().noc_stats();
            (last, noc)
        };
        let (done_deep, noc_deep) = run(64);
        let (done_shallow, noc_shallow) = run(2);
        assert_eq!(
            done_deep, done_shallow,
            "completion order is FIFO either way; backpressure shifts wait earlier"
        );
        assert_eq!(noc_shallow.messages, 6);
        assert!(
            noc_shallow.max_link_occupancy <= 2,
            "population stays bounded"
        );
        assert!(noc_deep.max_link_occupancy > 2);
        assert!(noc_shallow.total_queue_wait > 0);
    }

    #[test]
    fn shared_access_order_is_deterministic() {
        // Same schedule, same configuration → byte-identical stats, across
        // separately constructed shared memories (mesh, the most stateful
        // topology).
        let cfg = MemoryConfig::default();
        let l2 = L2Config::default();
        let icn = InterconnectConfig {
            topology: Topology::Mesh2D,
            ..InterconnectConfig::default()
        };
        let run = || {
            let shared = Rc::new(RefCell::new(SharedMemory::with_interconnect(
                &cfg, &l2, &icn, 16,
            )));
            let mut sms = ports(&cfg, &shared, 16);
            let mut dones = Vec::new();
            for cycle in 0..64u64 {
                for (sm, port) in sms.iter_mut().enumerate() {
                    let addr = ((sm as u64 * 131 + cycle * 17) % 4096) * 128;
                    dones.push(port.access_global(addr, cycle * 8));
                }
            }
            let (noc, wait) = {
                let s = shared.borrow();
                (s.noc_stats(), s.l2_queue_wait_cycles())
            };
            (dones, noc, wait)
        };
        assert_eq!(run(), run());
    }
}
