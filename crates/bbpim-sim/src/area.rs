//! PIM chip area model (Fig. 5 of the paper).
//!
//! The paper sizes the aggregation circuit with a Synopsys/Cadence flow
//! at TSMC 28 nm and the rest of the chip with a modified NVSim, giving
//! a 346 mm² chip whose breakdown Fig. 5 reports. We cannot synthesize
//! CMOS here, so the model is *calibrated*: per-component areas are
//! derived from the published chip total and breakdown percentages, with
//! a first-principles crossbar-array estimate (4F² cells) exposed
//! alongside as a sanity check. All downstream uses in the paper are
//! additive bookkeeping, which this reproduces exactly.

use crate::config::SimConfig;

/// One chip-area component.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaComponent {
    /// Component name as in Fig. 5.
    pub name: &'static str,
    /// Area in mm².
    pub area_mm2: f64,
}

/// Chip area breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaBreakdown {
    /// Components, largest first.
    pub components: Vec<AreaComponent>,
    /// Chip total in mm².
    pub total_mm2: f64,
}

/// Area model calibrated to the paper's Fig. 5 / 28 nm numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaModel {
    /// Chip area in mm² (paper: 346 mm² per chip, 8 chips per module).
    pub chip_mm2: f64,
    /// Fig. 5 shares, in percent of the chip.
    pub crossbar_peripherals_pct: f64,
    /// Aggregation circuits (one per crossbar).
    pub agg_circuits_pct: f64,
    /// The memory crossbar arrays themselves.
    pub crossbars_pct: f64,
    /// Bank-level peripherals.
    pub bank_peripherals_pct: f64,
    /// PIM (page) controllers.
    pub pim_controllers_pct: f64,
    /// Global wiring.
    pub wires_pct: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel {
            chip_mm2: 346.0,
            crossbar_peripherals_pct: 40.4,
            agg_circuits_pct: 13.9,
            crossbars_pct: 19.24,
            bank_peripherals_pct: 18.83,
            pim_controllers_pct: 6.84,
            wires_pct: 0.76,
        }
    }
}

impl AreaModel {
    /// The Fig. 5 breakdown for this model.
    pub fn breakdown(&self) -> AreaBreakdown {
        let mut components = vec![
            AreaComponent {
                name: "crossbar peripherals",
                area_mm2: self.chip_mm2 * self.crossbar_peripherals_pct / 100.0,
            },
            AreaComponent {
                name: "crossbars",
                area_mm2: self.chip_mm2 * self.crossbars_pct / 100.0,
            },
            AreaComponent {
                name: "bank peripherals",
                area_mm2: self.chip_mm2 * self.bank_peripherals_pct / 100.0,
            },
            AreaComponent {
                name: "aggregation circuits",
                area_mm2: self.chip_mm2 * self.agg_circuits_pct / 100.0,
            },
            AreaComponent {
                name: "PIM controllers",
                area_mm2: self.chip_mm2 * self.pim_controllers_pct / 100.0,
            },
            AreaComponent { name: "wires", area_mm2: self.chip_mm2 * self.wires_pct / 100.0 },
        ];
        components.sort_by(|a, b| b.area_mm2.total_cmp(&a.area_mm2));
        AreaBreakdown { components, total_mm2: self.chip_mm2 }
    }

    /// Crossbars per chip for a module configuration.
    pub fn crossbars_per_chip(&self, cfg: &SimConfig) -> usize {
        (cfg.module_capacity_bytes / cfg.chips as u64 / cfg.crossbar_bytes() as u64) as usize
    }

    /// Area of one aggregation circuit in µm² implied by the calibration
    /// (paper geometry: ≈ 0.139 × 346 mm² / 65536 ≈ 734 µm² — a credible
    /// 28 nm ALU-plus-register footprint).
    pub fn agg_circuit_um2(&self, cfg: &SimConfig) -> f64 {
        self.chip_mm2 * self.agg_circuits_pct / 100.0 * 1e6 / self.crossbars_per_chip(cfg) as f64
    }

    /// First-principles crossbar-array area per chip (4F² RRAM cells at
    /// `feature_nm`), mm² — a sanity check on the calibrated share.
    pub fn crossbar_array_mm2_first_principles(&self, cfg: &SimConfig, feature_nm: f64) -> f64 {
        let cell_mm2 = 4.0 * (feature_nm * 1e-6) * (feature_nm * 1e-6);
        let cells = cfg.crossbar_rows as f64 * cfg.crossbar_cols as f64;
        cell_mm2 * cells * self.crossbars_per_chip(cfg) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_percentages_sum_to_about_100() {
        let b = AreaModel::default().breakdown();
        let sum: f64 = b.components.iter().map(|c| 100.0 * c.area_mm2 / b.total_mm2).sum();
        assert!((sum - 100.0).abs() < 0.2, "sum {sum}");
    }

    #[test]
    fn agg_circuits_take_13_9_percent() {
        let b = AreaModel::default().breakdown();
        let agg = b.components.iter().find(|c| c.name == "aggregation circuits").unwrap();
        assert!((100.0 * agg.area_mm2 / b.total_mm2 - 13.9).abs() < 1e-9);
    }

    #[test]
    fn components_sorted_descending() {
        let b = AreaModel::default().breakdown();
        for w in b.components.windows(2) {
            assert!(w[0].area_mm2 >= w[1].area_mm2);
        }
        assert_eq!(b.components[0].name, "crossbar peripherals");
    }

    #[test]
    fn paper_geometry_has_65536_crossbars_per_chip() {
        let cfg = SimConfig::default();
        assert_eq!(AreaModel::default().crossbars_per_chip(&cfg), 65536);
    }

    #[test]
    fn agg_circuit_footprint_is_credible_28nm() {
        let cfg = SimConfig::default();
        let um2 = AreaModel::default().agg_circuit_um2(&cfg);
        assert!(um2 > 400.0 && um2 < 1200.0, "got {um2} µm²");
    }

    #[test]
    fn first_principles_crossbar_area_same_order_as_calibrated() {
        let cfg = SimConfig::default();
        let model = AreaModel::default();
        let fp = model.crossbar_array_mm2_first_principles(&cfg, 28.0);
        let calibrated = model.chip_mm2 * model.crossbars_pct / 100.0;
        let ratio = fp / calibrated;
        assert!(ratio > 0.3 && ratio < 3.0, "ratio {ratio}");
    }
}
