//! First-order analytical register-file bank model.
//!
//! This plays the role of CACTI/NVSim in the original study: given a cell
//! technology, a bank size, a bank count, and a network topology, it produces
//! relative latency, area, power, and derived capacity-efficiency figures.
//! All outputs are normalized to the baseline design (16 banks × 16 KB of
//! high-performance SRAM behind a full crossbar), matching the normalization
//! of the paper's Table 2.
//!
//! The model is deliberately simple — wordline/bitline delay grows with the
//! square root of the bank size, leakage grows with capacity, dynamic energy
//! grows with bank size and technology — but it reproduces the *ordering* and
//! rough magnitudes of the calibrated design points in [`crate::configs`],
//! which is what the rest of the reproduction depends on.

use serde::{Deserialize, Serialize};

use crate::{CellTechnology, NetworkTopology};

/// Relative (baseline-normalized) estimates produced by the bank model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BankEstimate {
    /// Total capacity relative to the 256 KB baseline.
    pub capacity_factor: f64,
    /// Total register-file area relative to the baseline.
    pub area_factor: f64,
    /// Total register-file power (dynamic + leakage at nominal activity)
    /// relative to the baseline.
    pub power_factor: f64,
    /// Average register access latency relative to the baseline, including
    /// the operand network traversal.
    pub latency_factor: f64,
}

/// Analytical model of a banked register file.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BankModel {
    /// Cell technology of the register file.
    pub technology: CellTechnology,
    /// Number of banks relative to the 16-bank baseline.
    pub bank_count_factor: f64,
    /// Size of each bank relative to the 16 KB baseline bank.
    pub bank_size_factor: f64,
    /// Operand-delivery network topology.
    pub network: NetworkTopology,
}

impl BankModel {
    /// The baseline design: 16 banks × 16 KB HP SRAM behind a crossbar.
    #[must_use]
    pub const fn baseline() -> Self {
        BankModel {
            technology: CellTechnology::HpSram,
            bank_count_factor: 1.0,
            bank_size_factor: 1.0,
            network: NetworkTopology::Crossbar,
        }
    }

    /// Creates a model.
    #[must_use]
    pub const fn new(
        technology: CellTechnology,
        bank_count_factor: f64,
        bank_size_factor: f64,
        network: NetworkTopology,
    ) -> Self {
        BankModel {
            technology,
            bank_count_factor,
            bank_size_factor,
            network,
        }
    }

    /// Total capacity relative to the baseline.
    #[must_use]
    pub(crate) fn capacity_factor(&self) -> f64 {
        self.bank_count_factor * self.bank_size_factor
    }

    /// Produces the relative latency/area/power estimate for this design.
    #[must_use]
    pub fn estimate(&self) -> BankEstimate {
        let capacity = self.capacity_factor();
        let tech = self.technology;

        // --- Latency -------------------------------------------------------
        // Bank access time grows with the square root of the bank size
        // (longer bitlines/wordlines); the cell technology contributes a
        // multiplicative factor; the network adds traversal time. Queueing
        // from bank conflicts is modelled in the timing simulator, not here.
        let size_latency = self.bank_size_factor.max(1e-9).sqrt().max(1.0);
        let cell_latency = tech.relative_cell_latency();
        let network_latency = self
            .network
            .traversal_latency_factor(self.bank_count_factor);
        let latency_factor = cell_latency * (0.75 + 0.25 * size_latency) + network_latency;

        // --- Area ----------------------------------------------------------
        // Cell array area scales with capacity × per-bit area; peripheral
        // circuitry adds ~5% per bank; the network contributes about 10% of
        // the baseline area and scales with its topology.
        let array_area = capacity * tech.relative_cell_area();
        let periphery_area = 0.05 * self.bank_count_factor;
        let network_area = 0.10 * self.network.area_factor(self.bank_count_factor, 1.0);
        let baseline_area = 1.0 + 0.05 + 0.10;
        let area_factor = (array_area + periphery_area + network_area) / baseline_area;

        // --- Power ---------------------------------------------------------
        // At nominal activity, roughly half the baseline register-file power
        // is leakage and half is dynamic access energy.
        let leakage = 0.5 * capacity * tech.relative_leakage();
        let dynamic = 0.5
            * tech.relative_access_energy()
            * (0.75 + 0.25 * size_latency)
            * self.network.energy_factor(self.bank_count_factor)
            / self.network.energy_factor(1.0);
        let power_factor = leakage + dynamic;

        BankEstimate {
            capacity_factor: capacity,
            area_factor,
            power_factor,
            latency_factor,
        }
    }
}

impl Default for BankModel {
    fn default() -> Self {
        BankModel::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_normalizes_to_one() {
        let e = BankModel::baseline().estimate();
        assert!((e.capacity_factor - 1.0).abs() < 1e-9);
        assert!(
            (e.latency_factor - 1.0).abs() < 0.05,
            "latency {}",
            e.latency_factor
        );
        assert!((e.area_factor - 1.0).abs() < 0.05);
        assert!((e.power_factor - 1.0).abs() < 0.05);
        assert!((e.capacity_factor / e.area_factor - 1.0).abs() < 0.06);
        assert!((e.capacity_factor / e.power_factor - 1.0).abs() < 0.06);
    }

    #[test]
    fn bigger_banks_are_slower() {
        let small = BankModel::baseline().estimate();
        let big =
            BankModel::new(CellTechnology::HpSram, 1.0, 8.0, NetworkTopology::Crossbar).estimate();
        assert!(big.latency_factor > small.latency_factor);
        assert!(big.capacity_factor > small.capacity_factor);
        assert!(big.power_factor > small.power_factor);
    }

    #[test]
    fn dwm_is_small_cheap_and_slow() {
        let dwm = BankModel::new(
            CellTechnology::Dwm,
            8.0,
            1.0,
            NetworkTopology::FlattenedButterfly,
        )
        .estimate();
        assert!(dwm.capacity_factor >= 7.9);
        assert!(
            dwm.area_factor < 1.0,
            "8x DWM should be smaller than baseline"
        );
        assert!(
            dwm.power_factor < 1.0,
            "8x DWM should use less power than baseline"
        );
        assert!(dwm.latency_factor > 4.0, "DWM should be much slower");
    }

    #[test]
    fn tfet_power_is_roughly_flat_at_8x_capacity() {
        let tfet = BankModel::new(
            CellTechnology::TfetSram,
            8.0,
            1.0,
            NetworkTopology::FlattenedButterfly,
        )
        .estimate();
        assert!(tfet.capacity_factor >= 7.9);
        assert!(
            tfet.power_factor < 1.5,
            "TFET at 8x should stay near baseline power"
        );
        assert!(tfet.latency_factor > 3.0);
    }

    #[test]
    fn estimates_are_monotone_in_technology_latency() {
        let mut last = 0.0;
        for &t in CellTechnology::all() {
            let e = BankModel::new(t, 8.0, 1.0, NetworkTopology::FlattenedButterfly).estimate();
            assert!(e.latency_factor >= last || t == CellTechnology::HpSram);
            last = e.latency_factor;
        }
    }
}
