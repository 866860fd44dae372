//! The SM↔L2 interconnection network.
//!
//! The multi-SM contention model used to reach the shared L2 by indexing a
//! slice directly — a topology-less model whose high-`sm_count` trends mix
//! up slice-port contention with transport that a real chip would pay for in
//! the network. This module makes the network a first-class, sweepable
//! subsystem:
//!
//! * [`AddressDecoder`] (in `addrdec`) decides which slice a line address
//!   belongs to, replacing the implicit modulo mapping;
//! * [`Link`] (in [`link`]) is a bandwidth-limited wire with a bounded FIFO
//!   queue and deterministic call-order arbitration;
//! * the [`Interconnect`] trait models transport from an SM to a slice's
//!   input port; [`topology`] provides [`topology::Ideal`] (zero-cost
//!   transport — bit-identical to the historical direct access, and the
//!   default), [`topology::Crossbar`] (per-SM injection link + per-slice
//!   output port) and [`topology::Mesh2D`] (XY dimension-ordered routing
//!   over a square grid of bounded links);
//! * [`InterconnectConfig`] selects and parameterizes all of the above, and
//!   [`InterconnectStats`] aggregates what the network observed.
//!
//! ## Determinism and skip-ahead
//!
//! The lock-step driver visits SMs in index order at every simulated cycle,
//! so same-cycle requests reach the network in a fixed order and every link
//! grant is a deterministic round-robin — simulations are bit-reproducible
//! for a given seed and configuration. Network latency is folded into the
//! completion cycle `MemoryHierarchy::access_global` returns at *issue*
//! time, which becomes the issuing warp's stall/wakeup cycle; the fast
//! engine's `next_event_after` horizon is computed from exactly those warp
//! wakeups, so in-flight network occupancy bounds skip-ahead with no extra
//! bookkeeping.

pub(crate) mod addrdec;
pub mod link;
pub mod topology;

use serde::{Deserialize, Serialize};

pub use addrdec::{AddressDecoder, InterleaveMode};
pub use link::{Link, Transfer};
pub use topology::{Crossbar, Ideal, Mesh2D};

use crate::types::Cycle;

/// Which network connects the SMs to the L2 slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Topology {
    /// Zero-latency, infinite-bandwidth transport: requests reach their
    /// slice the cycle they leave the L1. Bit-identical to the
    /// pre-interconnect direct slice access, and therefore the default.
    #[default]
    Ideal,
    /// A full crossbar: every SM owns an injection link and every slice an
    /// output port; contention happens only at the endpoints.
    Crossbar,
    /// A 2D mesh with XY dimension-ordered routing: SMs and slices sit on a
    /// square grid and requests pay per-hop latency and per-link bandwidth
    /// on every traversed edge.
    Mesh2D,
}

impl Topology {
    /// Short lowercase label, used by CSV reports and flag parsing.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Topology::Ideal => "ideal",
            Topology::Crossbar => "crossbar",
            Topology::Mesh2D => "mesh",
        }
    }
}

impl std::str::FromStr for Topology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ideal" => Ok(Topology::Ideal),
            "crossbar" | "xbar" => Ok(Topology::Crossbar),
            "mesh" | "mesh2d" => Ok(Topology::Mesh2D),
            other => Err(format!("unknown topology `{other}` (ideal|crossbar|mesh)")),
        }
    }
}

/// Configuration of the SM↔L2 network. Part of [`crate::GpuConfig`] and —
/// through `ltrf_core::ExperimentConfig` — of every content-addressed cache
/// key (the all-default configuration is elided from key material, so
/// historical `Ideal` keys stay byte-stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterconnectConfig {
    /// The network topology.
    pub topology: Topology,
    /// Link width in bytes per cycle; a cache line occupies each traversed
    /// link for `ceil(line_bytes / link_width)` cycles.
    pub link_width: u64,
    /// Bounded per-link queue depth; a full queue backpressures arrivals
    /// until the head-of-line transfer completes.
    pub queue_depth: usize,
    /// How line addresses are interleaved across L2 slices.
    pub interleave: InterleaveMode,
}

impl Default for InterconnectConfig {
    fn default() -> Self {
        // 32 B/cycle links (a 128 B line serializes in 4 cycles) and
        // 8-deep queues, Maxwell-ballpark figures. Topology and interleave
        // default to the historical bit-identical behaviour.
        InterconnectConfig {
            topology: Topology::Ideal,
            link_width: 32,
            queue_depth: 8,
            interleave: InterleaveMode::Line,
        }
    }
}

impl InterconnectConfig {
    /// A configuration with the given topology and everything else default.
    #[must_use]
    pub fn with_topology(topology: Topology) -> Self {
        InterconnectConfig {
            topology,
            ..InterconnectConfig::default()
        }
    }

    /// Cycles a cache line of `line_bytes` occupies one link.
    #[must_use]
    pub(crate) fn serialization_cycles(&self, line_bytes: u64) -> Cycle {
        line_bytes.div_ceil(self.link_width.max(1)).max(1)
    }
}

/// What the network observed over a run. All counters are message-granular
/// (one message per L1 miss routed to a slice); latency is the full
/// SM-to-slice-port transport time including queueing, and the histogram
/// buckets it by cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct InterconnectStats {
    /// Messages routed through the network.
    pub messages: u64,
    /// Total SM→slice-port transport latency, in cycles (hop latency,
    /// serialization, and queueing).
    pub total_latency: u64,
    /// Worst single-message transport latency observed.
    pub max_latency: u64,
    /// Total cycles messages spent queued at busy or full links.
    pub total_queue_wait: u64,
    /// Worst single-message queueing delay observed.
    pub max_queue_wait: u64,
    /// Peak messages simultaneously in flight on the busiest link.
    pub max_link_occupancy: u64,
    /// Messages delivered within 4 cycles.
    pub latency_le_4: u64,
    /// Messages delivered in 5–16 cycles.
    pub latency_le_16: u64,
    /// Messages delivered in 17–64 cycles.
    pub latency_le_64: u64,
    /// Messages that took more than 64 cycles.
    pub latency_gt_64: u64,
}

impl InterconnectStats {
    /// Folds one delivered message into the counters.
    pub(crate) fn record(&mut self, latency: Cycle, queue_wait: Cycle) {
        self.messages += 1;
        self.total_latency += latency;
        self.max_latency = self.max_latency.max(latency);
        self.total_queue_wait += queue_wait;
        self.max_queue_wait = self.max_queue_wait.max(queue_wait);
        match latency {
            0..=4 => self.latency_le_4 += 1,
            5..=16 => self.latency_le_16 += 1,
            17..=64 => self.latency_le_64 += 1,
            _ => self.latency_gt_64 += 1,
        }
    }

    /// Mean SM→slice-port latency per message; zero if nothing was routed.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.messages as f64
        }
    }
}

/// Transport from an SM to an L2 slice's input port.
///
/// Implementations are single-threaded state machines owned by the shared
/// memory; [`route`](Interconnect::route) is called once per L1 miss, in the
/// deterministic lock-step order, and returns when the request reaches the
/// slice port (slice-port occupancy arbitration then happens in
/// `SharedMemory`, identically for every topology).
pub trait Interconnect: std::fmt::Debug {
    /// Routes a request from SM `src` to slice `slice`, entering the network
    /// at `arrive`; returns the cycle it reaches the slice's input port.
    fn route(&mut self, src: usize, slice: usize, arrive: Cycle) -> Cycle;

    /// Aggregate network statistics for the run so far.
    fn stats(&self) -> InterconnectStats;
}

/// Builds the configured network for `sm_count` SMs and `slices` L2 slices
/// over `line_bytes`-byte messages.
#[must_use]
pub(crate) fn build_network(
    config: &InterconnectConfig,
    sm_count: usize,
    slices: usize,
    line_bytes: u64,
) -> Box<dyn Interconnect> {
    let ser = config.serialization_cycles(line_bytes);
    match config.topology {
        Topology::Ideal => Box::new(Ideal::new()),
        Topology::Crossbar => Box::new(Crossbar::new(sm_count, slices, ser, config.queue_depth)),
        Topology::Mesh2D => Box::new(Mesh2D::new(sm_count, slices, ser, config.queue_depth)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_labels_round_trip() {
        for topo in [Topology::Ideal, Topology::Crossbar, Topology::Mesh2D] {
            assert_eq!(topo.label().parse::<Topology>().unwrap(), topo);
        }
        assert!("torus".parse::<Topology>().is_err());
    }

    #[test]
    fn serialization_rounds_up_and_clamps() {
        let cfg = InterconnectConfig::default();
        assert_eq!(cfg.serialization_cycles(128), 4);
        assert_eq!(cfg.serialization_cycles(129), 5);
        let narrow = InterconnectConfig {
            link_width: 0,
            ..cfg
        };
        assert_eq!(narrow.serialization_cycles(128), 128);
    }

    #[test]
    fn stats_fold_means_and_histogram() {
        let mut s = InterconnectStats::default();
        s.record(3, 0);
        s.record(10, 6);
        s.record(100, 80);
        assert_eq!(s.messages, 3);
        assert_eq!(
            (
                s.latency_le_4,
                s.latency_le_16,
                s.latency_le_64,
                s.latency_gt_64
            ),
            (1, 1, 0, 1)
        );
        assert_eq!(s.max_latency, 100);
        assert_eq!(s.max_queue_wait, 80);
        assert!((s.mean_latency() - 113.0 / 3.0).abs() < 1e-12);
        assert_eq!(InterconnectStats::default().mean_latency(), 0.0);
    }

    #[test]
    fn default_config_is_ideal_line_interleave() {
        let cfg = InterconnectConfig::default();
        assert_eq!(cfg.topology, Topology::Ideal);
        assert_eq!(cfg.interleave, InterleaveMode::Line);
        assert_eq!(cfg, InterconnectConfig::with_topology(Topology::Ideal));
    }
}
