//! The seven register-file design points of the paper's Table 2.
//!
//! The paper obtains these numbers from CACTI and NVSim and uses them to
//! drive every performance and power experiment. We treat them as calibrated
//! design points: the analytical [`crate::BankModel`] is sanity-checked
//! against them (same ordering, same ballpark), while the experiments consume
//! the calibrated values directly, exactly as the original study consumes the
//! CACTI/NVSim outputs.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{BankModel, CellTechnology, NetworkTopology};

/// Identifier of one of the seven Table 2 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RegFileConfigId(pub u8);

impl fmt::Display for RegFileConfigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One register-file design point: organization plus its calibrated relative
/// capacity, area, power, and latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegFileConfig {
    /// Configuration number as used in the paper (1–7).
    pub id: RegFileConfigId,
    /// Cell technology.
    pub technology: CellTechnology,
    /// Number of banks relative to the 16-bank baseline.
    pub bank_count_factor: f64,
    /// Bank size relative to the 16 KB baseline bank.
    pub bank_size_factor: f64,
    /// Operand network topology.
    pub network: NetworkTopology,
    /// Total capacity relative to the 256 KB baseline.
    pub capacity_factor: f64,
    /// Area relative to the baseline register file.
    pub area_factor: f64,
    /// Power relative to the baseline register file at nominal activity.
    pub power_factor: f64,
    /// Average access latency relative to the baseline register file
    /// (including queueing measured by the original study's simulator).
    pub latency_factor: f64,
}

impl RegFileConfig {
    /// The corresponding analytical model (without calibration).
    #[must_use]
    pub fn bank_model(&self) -> BankModel {
        BankModel::new(
            self.technology,
            self.bank_count_factor,
            self.bank_size_factor,
            self.network,
        )
    }

    /// Total register-file capacity in kilobytes, assuming the 256 KB
    /// baseline of the paper's Maxwell-like SM.
    #[must_use]
    pub(crate) fn capacity_kib(&self) -> f64 {
        256.0 * self.capacity_factor
    }

    /// Returns the baseline configuration (#1).
    #[must_use]
    pub fn baseline() -> Self {
        TABLE2[0]
    }

    /// Returns configuration `id` (1–7) from Table 2.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `1..=7`.
    #[must_use]
    pub fn from_table(id: u8) -> Self {
        assert!((1..=7).contains(&id), "Table 2 has configurations 1..=7");
        TABLE2[(id - 1) as usize]
    }

    /// All seven Table 2 configurations, in order.
    #[must_use]
    pub fn table2() -> &'static [RegFileConfig] {
        &TABLE2
    }
}

/// Calibrated Table 2 design points.
static TABLE2: [RegFileConfig; 7] = [
    RegFileConfig {
        id: RegFileConfigId(1),
        technology: CellTechnology::HpSram,
        bank_count_factor: 1.0,
        bank_size_factor: 1.0,
        network: NetworkTopology::Crossbar,
        capacity_factor: 1.0,
        area_factor: 1.0,
        power_factor: 1.0,
        latency_factor: 1.0,
    },
    RegFileConfig {
        id: RegFileConfigId(2),
        technology: CellTechnology::HpSram,
        bank_count_factor: 1.0,
        bank_size_factor: 8.0,
        network: NetworkTopology::Crossbar,
        capacity_factor: 8.0,
        area_factor: 8.0,
        power_factor: 8.0,
        latency_factor: 1.25,
    },
    RegFileConfig {
        id: RegFileConfigId(3),
        technology: CellTechnology::HpSram,
        bank_count_factor: 8.0,
        bank_size_factor: 1.0,
        network: NetworkTopology::FlattenedButterfly,
        capacity_factor: 8.0,
        area_factor: 8.0,
        power_factor: 8.0,
        latency_factor: 1.5,
    },
    RegFileConfig {
        id: RegFileConfigId(4),
        technology: CellTechnology::LstpSram,
        bank_count_factor: 1.0,
        bank_size_factor: 8.0,
        network: NetworkTopology::Crossbar,
        capacity_factor: 8.0,
        area_factor: 8.0,
        power_factor: 3.2,
        latency_factor: 1.6,
    },
    RegFileConfig {
        id: RegFileConfigId(5),
        technology: CellTechnology::LstpSram,
        bank_count_factor: 8.0,
        bank_size_factor: 1.0,
        network: NetworkTopology::FlattenedButterfly,
        capacity_factor: 8.0,
        area_factor: 8.0,
        power_factor: 3.2,
        latency_factor: 2.8,
    },
    RegFileConfig {
        id: RegFileConfigId(6),
        technology: CellTechnology::TfetSram,
        bank_count_factor: 8.0,
        bank_size_factor: 1.0,
        network: NetworkTopology::FlattenedButterfly,
        capacity_factor: 8.0,
        area_factor: 8.0,
        power_factor: 1.05,
        latency_factor: 5.3,
    },
    RegFileConfig {
        id: RegFileConfigId(7),
        technology: CellTechnology::Dwm,
        bank_count_factor: 8.0,
        bank_size_factor: 1.0,
        network: NetworkTopology::FlattenedButterfly,
        capacity_factor: 8.0,
        area_factor: 0.25,
        power_factor: 0.65,
        latency_factor: 6.3,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_seven_configs_with_dense_ids() {
        let table = RegFileConfig::table2();
        assert_eq!(table.len(), 7);
        for (i, c) in table.iter().enumerate() {
            assert_eq!(c.id.0 as usize, i + 1);
        }
    }

    #[test]
    fn baseline_is_config_one() {
        let b = RegFileConfig::baseline();
        assert_eq!(b.id, RegFileConfigId(1));
        assert_eq!(b.capacity_factor, 1.0);
        assert_eq!(b.latency_factor, 1.0);
        assert_eq!(b.capacity_kib(), 256.0);
    }

    #[test]
    fn derived_efficiency_matches_paper() {
        // Config #7 (DWM): 32x capacity/area and ~12x capacity/power.
        let c7 = RegFileConfig::from_table(7);
        assert!((c7.capacity_factor / c7.area_factor - 32.0).abs() < 1e-9);
        assert!((c7.capacity_factor / c7.power_factor - 12.3).abs() < 0.5);
        // Config #6 (TFET): ~7.6x capacity/power.
        let c6 = RegFileConfig::from_table(6);
        assert!((c6.capacity_factor / c6.power_factor - 7.6).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "1..=7")]
    fn from_table_rejects_bad_ids() {
        let _ = RegFileConfig::from_table(0);
    }

    #[test]
    fn latency_ordering_matches_paper() {
        let latencies: Vec<f64> = RegFileConfig::table2()
            .iter()
            .map(|c| c.latency_factor)
            .collect();
        let mut sorted = latencies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(
            latencies, sorted,
            "Table 2 latency increases with config id"
        );
        assert_eq!(latencies[6], 6.3);
    }

    #[test]
    fn analytical_model_tracks_calibrated_points() {
        // The analytical model should reproduce the calibrated ordering of
        // latency and stay within a factor of two on each axis.
        for config in RegFileConfig::table2() {
            let est = config.bank_model().estimate();
            assert!(
                est.latency_factor / config.latency_factor < 2.0
                    && config.latency_factor / est.latency_factor < 2.0,
                "latency estimate for {} too far off: {} vs {}",
                config.id,
                est.latency_factor,
                config.latency_factor
            );
            assert!(
                est.capacity_factor == config.capacity_factor,
                "capacity must match exactly for {}",
                config.id
            );
            assert!(
                est.power_factor / config.power_factor < 2.2
                    && config.power_factor / est.power_factor < 2.2,
                "power estimate for {} too far off: {} vs {}",
                config.id,
                est.power_factor,
                config.power_factor
            );
        }
    }
}
