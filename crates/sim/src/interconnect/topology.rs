//! The three network topologies behind the [`Interconnect`] trait.
//!
//! * [`Ideal`] — zero-cost transport, bit-identical to the historical direct
//!   slice access. The default.
//! * [`Crossbar`] — every SM owns an injection link and every slice an
//!   output port; a request serializes over both, plus a constant traversal
//!   latency. Contention exists only at the endpoints, so a crossbar
//!   degrades gracefully until many SMs camp on one slice.
//! * [`Mesh2D`] — SMs and slices are placed on a square grid and requests
//!   walk XY dimension-ordered routes over per-direction links, paying
//!   serialization and router latency at every hop. Distance and shared
//!   edges both cost cycles, so a mesh diverges from a crossbar as the chip
//!   scales.
//!
//! All three are deterministic: links arbitrate in call order, and the
//! lock-step driver calls in SM-index order (see the [`link`](super::link)
//! module docs).

use crate::types::Cycle;

use super::link::Link;
use super::{Interconnect, InterconnectStats};

/// Constant crossbar traversal latency (arbitration + wire), in cycles.
pub(crate) const CROSSBAR_HOP_LATENCY: Cycle = 4;

/// Per-hop mesh router latency (route computation + switch), in cycles.
pub(crate) const MESH_HOP_LATENCY: Cycle = 2;

/// Zero-latency, infinite-bandwidth transport. `route` is the identity on
/// `arrive`, which makes the surrounding `SharedMemory` arithmetic exactly
/// the pre-interconnect sliced-L2 path.
#[derive(Debug, Default)]
pub struct Ideal {
    stats: InterconnectStats,
}

impl Ideal {
    /// A fresh ideal network (no state beyond message counters).
    #[must_use]
    pub fn new() -> Self {
        Ideal::default()
    }
}

impl Interconnect for Ideal {
    fn route(&mut self, _src: usize, _slice: usize, arrive: Cycle) -> Cycle {
        self.stats.record(0, 0);
        arrive
    }

    fn stats(&self) -> InterconnectStats {
        self.stats
    }
}

/// A full SM×slice crossbar: per-SM injection links into the switch and
/// per-slice output ports out of it, with a constant traversal latency in
/// between. A message serializes over its injection link, crosses the
/// switch, then serializes over the destination slice's output port.
#[derive(Debug)]
pub struct Crossbar {
    injection: Vec<Link>,
    output: Vec<Link>,
    serialization: Cycle,
    stats: InterconnectStats,
}

impl Crossbar {
    /// A crossbar joining `sm_count` SMs to `slices` L2 slices, with each
    /// message occupying a link for `serialization` cycles and every link
    /// queue bounded at `queue_depth`.
    #[must_use]
    pub fn new(sm_count: usize, slices: usize, serialization: Cycle, queue_depth: usize) -> Self {
        Crossbar {
            injection: (0..sm_count.max(1))
                .map(|_| Link::new(queue_depth))
                .collect(),
            output: (0..slices.max(1)).map(|_| Link::new(queue_depth)).collect(),
            serialization,
            stats: InterconnectStats::default(),
        }
    }
}

impl Interconnect for Crossbar {
    fn route(&mut self, src: usize, slice: usize, arrive: Cycle) -> Cycle {
        let inj_idx = src % self.injection.len();
        let inj = self.injection[inj_idx].transmit(arrive, self.serialization);
        let crossed = inj.done + CROSSBAR_HOP_LATENCY;
        let out_idx = slice % self.output.len();
        let out = self.output[out_idx].transmit(crossed, self.serialization);
        self.stats
            .record(out.done - arrive, inj.queued + out.queued);
        out.done
    }

    fn stats(&self) -> InterconnectStats {
        let mut stats = self.stats;
        stats.max_link_occupancy = self
            .injection
            .iter()
            .chain(&self.output)
            .map(Link::peak_occupancy)
            .max()
            .unwrap_or(0);
        stats
    }
}

/// A 2D mesh with XY dimension-ordered routing.
///
/// SMs and slices are placed row-major on the smallest square grid that fits
/// them all: SM `i` at node `i`, slice `s` at node `sm_count + s`. A request
/// walks east/west to the destination column, then north/south to the
/// destination row, crossing one per-direction bounded link per hop and
/// paying a `MESH_HOP_LATENCY` router delay each time. XY routing is
/// deadlock-free and, with call-order link arbitration, fully deterministic.
#[derive(Debug)]
pub struct Mesh2D {
    /// Grid side length.
    side: usize,
    /// Node index of slice `s` is `sm_count + s`.
    sm_count: usize,
    /// Directional links: `(node * 4 + dir)` with dir 0=east, 1=west,
    /// 2=south (increasing y), 3=north (decreasing y).
    links: Vec<Link>,
    serialization: Cycle,
    stats: InterconnectStats,
}

const DIR_EAST: usize = 0;
const DIR_WEST: usize = 1;
const DIR_SOUTH: usize = 2;
const DIR_NORTH: usize = 3;

impl Mesh2D {
    /// A mesh joining `sm_count` SMs and `slices` L2 slices, with each
    /// message occupying a traversed link for `serialization` cycles and
    /// every link queue bounded at `queue_depth`.
    #[must_use]
    pub fn new(sm_count: usize, slices: usize, serialization: Cycle, queue_depth: usize) -> Self {
        let nodes = (sm_count + slices).max(1);
        let side = (1..).find(|s| s * s >= nodes).unwrap_or(1);
        Mesh2D {
            side,
            sm_count,
            links: (0..side * side * 4)
                .map(|_| Link::new(queue_depth))
                .collect(),
            serialization,
            stats: InterconnectStats::default(),
        }
    }

    fn coords(&self, node: usize) -> (usize, usize) {
        (node % self.side, node / self.side)
    }

    fn traverse(&mut self, node: usize, dir: usize, at: Cycle) -> (Cycle, Cycle) {
        let transfer = self.links[node * 4 + dir].transmit(at, self.serialization);
        (transfer.done + MESH_HOP_LATENCY, transfer.queued)
    }
}

impl Interconnect for Mesh2D {
    fn route(&mut self, src: usize, slice: usize, arrive: Cycle) -> Cycle {
        let dest = self.sm_count + slice;
        let (mut x, mut y) = self.coords(src.min(self.side * self.side - 1));
        let (dx, dy) = self.coords(dest.min(self.side * self.side - 1));
        let mut at = arrive;
        let mut queued = 0;
        // X first, then Y: dimension-ordered routing.
        while x != dx {
            let dir = if x < dx { DIR_EAST } else { DIR_WEST };
            let (next, wait) = self.traverse(y * self.side + x, dir, at);
            at = next;
            queued += wait;
            if x < dx {
                x += 1;
            } else {
                x -= 1;
            }
        }
        while y != dy {
            let dir = if y < dy { DIR_SOUTH } else { DIR_NORTH };
            let (next, wait) = self.traverse(y * self.side + x, dir, at);
            at = next;
            queued += wait;
            if y < dy {
                y += 1;
            } else {
                y -= 1;
            }
        }
        self.stats.record(at - arrive, queued);
        at
    }

    fn stats(&self) -> InterconnectStats {
        let mut stats = self.stats;
        stats.max_link_occupancy = self
            .links
            .iter()
            .map(Link::peak_occupancy)
            .max()
            .unwrap_or(0);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_the_identity_on_arrival_time() {
        let mut net = Ideal::new();
        for arrive in [0u64, 1, 17, 1_000_000] {
            assert_eq!(net.route(3, 7, arrive), arrive);
        }
        let stats = net.stats();
        assert_eq!(stats.messages, 4);
        assert_eq!(stats.total_latency, 0);
        assert_eq!(stats.max_link_occupancy, 0);
    }

    #[test]
    fn crossbar_uncontended_latency_is_two_links_plus_traversal() {
        let mut net = Crossbar::new(4, 8, 4, 8);
        let port = net.route(0, 5, 100);
        assert_eq!(port, 100 + 4 + CROSSBAR_HOP_LATENCY + 4);
        let stats = net.stats();
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.total_queue_wait, 0);
    }

    #[test]
    fn crossbar_contends_at_the_slice_output_port() {
        let mut net = Crossbar::new(4, 8, 4, 8);
        // Four SMs, same slice, same cycle: injection links are private so
        // the pile-up happens at slice 2's output port, in SM-index order.
        let ports: Vec<Cycle> = (0..4).map(|sm| net.route(sm, 2, 0)).collect();
        assert_eq!(ports, vec![12, 16, 20, 24]);
        let stats = net.stats();
        assert_eq!(stats.max_queue_wait, 12);
        assert_eq!(stats.max_link_occupancy, 4);
    }

    #[test]
    fn crossbar_private_slices_do_not_contend() {
        let mut net = Crossbar::new(4, 8, 4, 8);
        let ports: Vec<Cycle> = (0..4).map(|sm| net.route(sm, sm, 0)).collect();
        assert_eq!(ports, vec![12; 4]);
        assert_eq!(net.stats().total_queue_wait, 0);
    }

    /// Manhattan hop count between an SM and a slice.
    fn hops(mesh: &Mesh2D, src_sm: usize, slice: usize) -> usize {
        let (sx, sy) = mesh.coords(src_sm);
        let (dx, dy) = mesh.coords(mesh.sm_count + slice);
        sx.abs_diff(dx) + sy.abs_diff(dy)
    }

    #[test]
    fn mesh_latency_grows_with_manhattan_distance() {
        let net_probe = Mesh2D::new(16, 32, 4, 8);
        // 16 SMs + 32 slices → 48 nodes → 7×7 grid.
        assert_eq!(net_probe.side, 7);
        let mut net = Mesh2D::new(16, 32, 4, 8);
        let near_hops = hops(&net_probe, 15, 0); // SM node 15 → slice node 16: adjacent-ish
        let far_hops = hops(&net_probe, 0, 31); // SM node 0 → slice node 47: corner to corner
        assert!(far_hops > near_hops);
        let near = net.route(15, 0, 0);
        let far = net.route(0, 31, 0);
        assert_eq!(near, near_hops as u64 * (4 + MESH_HOP_LATENCY));
        assert_eq!(far, far_hops as u64 * (4 + MESH_HOP_LATENCY));
    }

    #[test]
    fn mesh_shared_edges_queue_in_call_order() {
        // Two SMs route to slice 0 through a shared edge.
        let mut net = Mesh2D::new(4, 4, 4, 8);
        // 8 nodes → 3×3 grid. SM 0 at (0,0), SM 1 at (1,0); slice 0 at node
        // 4 = (1,1). SM 0's XY route goes east then down (1,0)'s south link
        // — the same edge SM 1 uses. Two back-to-back messages from SM 1
        // keep that edge busy past SM 0's arrival.
        let a1 = net.route(1, 0, 0);
        let a2 = net.route(1, 0, 0);
        assert!(a2 > a1, "same-edge messages serialize in call order");
        let b = net.route(0, 0, 0);
        let reference = hops(&net, 0, 0) as u64 * (4 + MESH_HOP_LATENCY);
        assert!(b > reference, "queueing added latency beyond pure distance");
        assert!(net.stats().total_queue_wait > 0);
    }

    #[test]
    fn mesh_routing_is_deterministic() {
        let run = || {
            let mut net = Mesh2D::new(16, 32, 4, 8);
            let mut out = Vec::new();
            for round in 0..4u64 {
                for sm in 0..16 {
                    out.push(net.route(sm, (sm * 7 + round as usize) % 32, round * 3));
                }
            }
            (out, net.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crossbar_and_mesh_diverge_under_identical_load() {
        let mut xbar = Crossbar::new(16, 32, 4, 8);
        let mut mesh = Mesh2D::new(16, 32, 4, 8);
        let (mut xbar_last, mut mesh_last) = (0, 0);
        for round in 0..8u64 {
            for sm in 0..16 {
                let slice = (sm * 5 + round as usize) % 32;
                xbar_last = xbar.route(sm, slice, round * 2);
                mesh_last = mesh.route(sm, slice, round * 2);
            }
        }
        let _ = (xbar_last, mesh_last);
        assert_ne!(
            xbar.stats().total_latency,
            mesh.stats().total_latency,
            "topologies must be distinguishable under load"
        );
    }
}
