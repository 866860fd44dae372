//! Operand-delivery network models.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Topology of the network connecting register-file banks to operand
/// collectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetworkTopology {
    /// Full crossbar with wide (1024-bit) links — the conventional design.
    Crossbar,
    /// Flattened butterfly, used by the paper when the bank count grows 8×
    /// to keep wiring overhead manageable.
    FlattenedButterfly,
}

impl NetworkTopology {
    /// Additional traversal latency relative to the baseline 16-bank
    /// crossbar, in baseline register-file access units.
    #[must_use]
    pub(crate) fn traversal_latency_factor(self, bank_count_factor: f64) -> f64 {
        match self {
            // A crossbar's traversal latency is essentially flat until the
            // port count explodes; wiring for more banks adds a small delay.
            NetworkTopology::Crossbar => 0.05 * bank_count_factor.max(1.0).log2(),
            // The flattened butterfly trades hop count for wiring: each
            // doubling of the bank count adds roughly one sixth of a baseline
            // access of traversal time.
            NetworkTopology::FlattenedButterfly => {
                0.5 + 0.16 * (bank_count_factor.max(1.0).log2() - 3.0).max(0.0)
            }
        }
    }

    /// Relative area of the network versus the baseline crossbar, as a
    /// function of the number of ports (bank count factor) and link width
    /// factor.
    #[must_use]
    pub(crate) fn area_factor(self, bank_count_factor: f64, link_width_factor: f64) -> f64 {
        match self {
            // Crossbar area grows quadratically with port count and linearly
            // with link width.
            NetworkTopology::Crossbar => bank_count_factor * bank_count_factor * link_width_factor,
            // The flattened butterfly grows roughly linearly with ports and
            // stays well below the crossbar at high port counts.
            NetworkTopology::FlattenedButterfly => 0.5 * bank_count_factor * link_width_factor,
        }
    }

    /// Relative dynamic energy per traversal versus the baseline crossbar.
    #[must_use]
    pub(crate) fn energy_factor(self, bank_count_factor: f64) -> f64 {
        match self {
            NetworkTopology::Crossbar => bank_count_factor.max(1.0).sqrt(),
            NetworkTopology::FlattenedButterfly => 0.8 * bank_count_factor.max(1.0).sqrt(),
        }
    }

    /// Short name as used in the paper's Table 2.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            NetworkTopology::Crossbar => "Crossbar",
            NetworkTopology::FlattenedButterfly => "F. Butterfly",
        }
    }
}

impl fmt::Display for NetworkTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_crossbar_has_negligible_extra_latency() {
        let l = NetworkTopology::Crossbar.traversal_latency_factor(1.0);
        assert!(l.abs() < 1e-9);
    }

    #[test]
    fn butterfly_beats_crossbar_area_at_high_port_counts() {
        let xbar = NetworkTopology::Crossbar.area_factor(8.0, 1.0);
        let fb = NetworkTopology::FlattenedButterfly.area_factor(8.0, 1.0);
        assert!(
            fb < xbar,
            "flattened butterfly should be smaller at 8x banks"
        );
    }

    #[test]
    fn butterfly_costs_latency() {
        let fb = NetworkTopology::FlattenedButterfly.traversal_latency_factor(8.0);
        assert!(fb >= 0.5);
        let xbar = NetworkTopology::Crossbar.traversal_latency_factor(8.0);
        assert!(fb > xbar);
    }

    #[test]
    fn names_match_table2() {
        assert_eq!(NetworkTopology::Crossbar.to_string(), "Crossbar");
        assert_eq!(
            NetworkTopology::FlattenedButterfly.to_string(),
            "F. Butterfly"
        );
    }

    #[test]
    fn energy_grows_with_ports() {
        for topo in [
            NetworkTopology::Crossbar,
            NetworkTopology::FlattenedButterfly,
        ] {
            assert!(topo.energy_factor(8.0) > topo.energy_factor(1.0));
        }
    }
}
