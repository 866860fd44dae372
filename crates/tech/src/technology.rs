//! Memory cell technologies and their first-order electrical parameters.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The four register-file cell technologies explored by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellTechnology {
    /// High-performance CMOS SRAM — the baseline GPU register-file cell.
    HpSram,
    /// Low-standby-power CMOS SRAM — slower, far lower leakage.
    LstpSram,
    /// Tunnel-FET SRAM — very low power, considerably slower.
    TfetSram,
    /// Domain-wall (racetrack) memory — extremely dense and low power, but
    /// with long shift-dominated access latency.
    Dwm,
}

impl CellTechnology {
    /// All technologies, in the order they appear in Table 2.
    #[must_use]
    pub const fn all() -> &'static [CellTechnology] {
        &[
            CellTechnology::HpSram,
            CellTechnology::LstpSram,
            CellTechnology::TfetSram,
            CellTechnology::Dwm,
        ]
    }

    /// Relative cell area (bits per unit area, inverse), normalized to
    /// high-performance SRAM. Smaller is denser.
    #[must_use]
    pub(crate) const fn relative_cell_area(self) -> f64 {
        match self {
            CellTechnology::HpSram => 1.0,
            CellTechnology::LstpSram => 1.0,
            CellTechnology::TfetSram => 1.0,
            // DWM stores many bits per track: the paper's config #7 packs an
            // 8x-capacity register file into 0.25x the baseline area, i.e.
            // 1/32 of the per-bit area.
            CellTechnology::Dwm => 1.0 / 32.0,
        }
    }

    /// Relative dynamic energy per access, normalized to HP SRAM.
    #[must_use]
    pub(crate) const fn relative_access_energy(self) -> f64 {
        match self {
            CellTechnology::HpSram => 1.0,
            CellTechnology::LstpSram => 0.55,
            CellTechnology::TfetSram => 0.30,
            CellTechnology::Dwm => 0.40,
        }
    }

    /// Relative leakage power per bit, normalized to HP SRAM.
    #[must_use]
    pub(crate) const fn relative_leakage(self) -> f64 {
        match self {
            CellTechnology::HpSram => 1.0,
            CellTechnology::LstpSram => 0.28,
            CellTechnology::TfetSram => 0.018,
            CellTechnology::Dwm => 0.012,
        }
    }

    /// Relative raw cell access latency, normalized to HP SRAM.
    #[must_use]
    pub(crate) const fn relative_cell_latency(self) -> f64 {
        match self {
            CellTechnology::HpSram => 1.0,
            CellTechnology::LstpSram => 1.9,
            CellTechnology::TfetSram => 3.6,
            CellTechnology::Dwm => 4.3,
        }
    }

    /// Short human-readable name as used in the paper's tables.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            CellTechnology::HpSram => "HP SRAM",
            CellTechnology::LstpSram => "LSTP SRAM",
            CellTechnology::TfetSram => "TFET SRAM",
            CellTechnology::Dwm => "DWM",
        }
    }
}

impl fmt::Display for CellTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_technology() {
        assert_eq!(CellTechnology::all().len(), 4);
    }

    #[test]
    fn hp_sram_is_the_normalization_point() {
        let hp = CellTechnology::HpSram;
        assert_eq!(hp.relative_cell_area(), 1.0);
        assert_eq!(hp.relative_access_energy(), 1.0);
        assert_eq!(hp.relative_leakage(), 1.0);
        assert_eq!(hp.relative_cell_latency(), 1.0);
    }

    #[test]
    fn denser_technologies_are_slower() {
        for &t in CellTechnology::all() {
            if t != CellTechnology::HpSram {
                assert!(
                    t.relative_cell_latency() > 1.0,
                    "{t} should be slower than HP SRAM"
                );
                assert!(
                    t.relative_leakage() < 1.0,
                    "{t} should leak less than HP SRAM"
                );
            }
        }
    }

    #[test]
    fn dwm_is_the_densest() {
        assert!(CellTechnology::Dwm.relative_cell_area() < 0.1);
        assert_eq!(CellTechnology::Dwm.name(), "DWM");
        assert_eq!(CellTechnology::Dwm.to_string(), "DWM");
    }
}
