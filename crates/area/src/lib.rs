//! Area and feasibility model (paper §IV-F and Table III).
//!
//! The paper's silicon numbers come from a Synopsys 14 nm physical
//! implementation of a 4-µcore FireGuard (component areas in §IV-F) and
//! from die-shot area estimates of commercial cores normalised to 14 nm by
//! published density factors. Neither flow can run here, so this crate
//! implements the *arithmetic* of the analysis with the paper's measured
//! constants as inputs: component areas, per-core scaling of the µcore
//! count with normalised throughput (IPC × frequency relative to BOOM),
//! and per-core / per-SoC overhead percentages.
//!
//! # Examples
//!
//! ```
//! use fireguard_area::{components, table3};
//! let c = components();
//! assert!((c.fireguard_4ucore_mm2() - 0.287).abs() < 1e-9);
//! let rows = table3();
//! assert_eq!(rows.len(), 4);
//! ```

#![forbid(unsafe_code)]

/// §IV-F component areas at 14 nm, in mm².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentAreas {
    /// The whole prototype SoC.
    pub soc_mm2: f64,
    /// One SonicBOOM main core.
    pub boom_mm2: f64,
    /// One Rocket µcore.
    pub rocket_mm2: f64,
    /// The 4-wide event filter.
    pub filter_mm2: f64,
    /// The mapper (allocator + fabric interfaces).
    pub mapper_mm2: f64,
}

impl ComponentAreas {
    /// FireGuard's transport mechanisms (filter + mapper).
    pub fn transport_mm2(&self) -> f64 {
        self.filter_mm2 + self.mapper_mm2
    }

    /// Area of a FireGuard deployment with `n` µcores and a filter scaled
    /// to `width` commit paths (the filter SRAM replicates per path).
    pub fn fireguard_mm2(&self, n_ucores: usize, width: usize) -> f64 {
        n_ucores as f64 * self.rocket_mm2 + self.filter_mm2 * (width as f64 / 4.0) + self.mapper_mm2
    }

    /// The paper's headline 4-µcore configuration.
    pub fn fireguard_4ucore_mm2(&self) -> f64 {
        self.fireguard_mm2(4, 4)
    }

    /// Transport share of the BOOM core, in percent (paper: 3.88 %).
    pub fn transport_pct_of_boom(&self) -> f64 {
        100.0 * self.transport_mm2() / self.boom_mm2
    }

    /// Transport share of the SoC, in percent (paper: 1.48 %).
    pub fn transport_pct_of_soc(&self) -> f64 {
        100.0 * self.transport_mm2() / self.soc_mm2
    }
}

/// The §IV-F post-layout measurements (Synopsys 14 nm generic PDK).
pub fn components() -> ComponentAreas {
    ComponentAreas {
        soc_mm2: 2.91,
        boom_mm2: 1.107,
        rocket_mm2: 0.061,
        filter_mm2: 0.032,
        mapper_mm2: 0.011,
    }
}

/// One performance core considered in Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSpec {
    /// Core name.
    pub name: &'static str,
    /// Host SoC name.
    pub soc: &'static str,
    /// Peak frequency in GHz.
    pub freq_ghz: f64,
    /// Native process node label.
    pub tech: &'static str,
    /// Die-shot core area at the native node, mm².
    pub area_native_mm2: f64,
    /// Core area normalised to 14 nm, mm² (paper's density scaling).
    pub area_14nm_mm2: f64,
    /// Single-thread PARSEC IPC (paper measurement).
    pub ipc: f64,
    /// Commit width → FireGuard filter width needed.
    pub filter_width: usize,
    /// SoC area normalised to 14 nm, mm² (implied by the paper's SoC-level
    /// percentages; die-shot derived).
    pub soc_area_14nm_mm2: f64,
    /// Number of cores of this type in the SoC.
    pub cores_in_soc: usize,
}

/// The four cores of Table III (BOOM plus three commercial cores).
pub fn cores() -> Vec<CoreSpec> {
    vec![
        CoreSpec {
            name: "BOOM",
            soc: "(prototype)",
            freq_ghz: 3.2,
            tech: "14nm",
            area_native_mm2: 1.11,
            area_14nm_mm2: 1.11,
            ipc: 1.3,
            filter_width: 4,
            soc_area_14nm_mm2: 2.91,
            cores_in_soc: 1,
        },
        CoreSpec {
            name: "FireStorm",
            soc: "M1-Pro",
            freq_ghz: 3.2,
            tech: "5nm",
            area_native_mm2: 2.53,
            area_14nm_mm2: 22.55,
            ipc: 3.79,
            filter_width: 8,
            soc_area_14nm_mm2: 1298.0,
            cores_in_soc: 8,
        },
        CoreSpec {
            name: "Cortex-A76",
            soc: "Kirin-960",
            freq_ghz: 2.8,
            tech: "7nm",
            area_native_mm2: 1.23,
            area_14nm_mm2: 3.61,
            ipc: 2.07,
            filter_width: 4,
            soc_area_14nm_mm2: 216.0,
            cores_in_soc: 4,
        },
        CoreSpec {
            name: "AlderLake-S",
            soc: "i7-12700F",
            freq_ghz: 4.9,
            tech: "10nm",
            area_native_mm2: 7.30,
            area_14nm_mm2: 22.63,
            ipc: 2.83,
            filter_width: 6,
            soc_area_14nm_mm2: 690.0,
            cores_in_soc: 8,
        },
    ]
}

/// A computed Table III row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// The input core.
    pub core: CoreSpec,
    /// Throughput normalised to BOOM (IPC × freq ratio).
    pub norm_throughput: f64,
    /// µcores needed to keep pace (linear in throughput; BOOM needs 4).
    pub ucores: usize,
    /// FireGuard area for this core, mm².
    pub overhead_mm2: f64,
    /// Overhead as a share of the core, percent.
    pub pct_of_core: f64,
    /// One kernel for every core of this type: total overhead, mm².
    pub soc_overhead_mm2: f64,
    /// …as a share of the SoC, percent.
    pub pct_of_soc: f64,
}

/// Computes Table III from the core specs and §IV-F component areas.
pub fn table3() -> Vec<Table3Row> {
    let c = components();
    let specs = cores();
    let base = &specs[0];
    let base_throughput = base.ipc * base.freq_ghz;
    specs
        .iter()
        .map(|core| {
            let norm = core.ipc * core.freq_ghz / base_throughput;
            // Keeping up with a faster core needs only linearly more
            // µcores (the paper's key observation): BOOM needs 4.
            let ucores = (4.0 * norm).round().max(1.0) as usize;
            let overhead = c.fireguard_mm2(ucores, core.filter_width);
            let soc_overhead = overhead * core.cores_in_soc as f64;
            Table3Row {
                norm_throughput: norm,
                ucores,
                overhead_mm2: overhead,
                pct_of_core: 100.0 * overhead / core.area_14nm_mm2,
                soc_overhead_mm2: soc_overhead,
                pct_of_soc: 100.0 * soc_overhead / core.soc_area_14nm_mm2,
                core: core.clone(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_ivf_numbers_reproduce() {
        let c = components();
        assert!((c.transport_mm2() - 0.043).abs() < 1e-12);
        assert!((c.transport_pct_of_boom() - 3.88).abs() < 0.05);
        assert!((c.transport_pct_of_soc() - 1.48).abs() < 0.01);
        // 4-µcore FireGuard: 0.287 mm² = 25.9% of BOOM, 9.86% of the SoC.
        let fg = c.fireguard_4ucore_mm2();
        assert!((fg - 0.287).abs() < 1e-9);
        assert!((100.0 * fg / c.boom_mm2 - 25.9).abs() < 0.05);
        assert!((100.0 * fg / c.soc_mm2 - 9.86).abs() < 0.01);
    }

    #[test]
    fn firestorm_row_matches_paper() {
        let rows = table3();
        let fs = rows.iter().find(|r| r.core.name == "FireStorm").unwrap();
        assert!((fs.norm_throughput - 2.92).abs() < 0.01);
        assert_eq!(fs.ucores, 12);
        assert!((fs.overhead_mm2 - 0.81).abs() < 0.01);
        assert!((fs.pct_of_core - 3.6).abs() < 0.1);
        assert!(fs.pct_of_soc < 1.0, "M1-Pro SoC overhead under 1%");
    }

    #[test]
    fn alderlake_row_matches_paper() {
        let rows = table3();
        let adl = rows.iter().find(|r| r.core.name == "AlderLake-S").unwrap();
        assert!((adl.norm_throughput - 3.35).abs() < 0.02);
        assert_eq!(adl.ucores, 13);
        assert!((adl.overhead_mm2 - 0.85).abs() < 0.01);
        assert!((adl.pct_of_core - 3.8).abs() < 0.1);
        assert!(adl.pct_of_soc < 1.0, "i7 SoC overhead under 1%");
    }

    #[test]
    fn a76_row_close_to_paper() {
        // The paper lists normalised throughput 1.27 for the A76 where the
        // plain IPC×freq formula gives 1.39; the derived µcore count lands
        // at 5–6 either way and the overheads stay in the paper's range.
        let rows = table3();
        let a76 = rows.iter().find(|r| r.core.name == "Cortex-A76").unwrap();
        assert!(a76.norm_throughput > 1.2 && a76.norm_throughput < 1.45);
        assert!(a76.ucores >= 5 && a76.ucores <= 6);
        assert!((a76.pct_of_core - 9.6).abs() < 2.0);
        assert!(a76.pct_of_soc < 1.0);
    }

    #[test]
    fn boom_row_is_the_reference() {
        let rows = table3();
        let b = &rows[0];
        assert_eq!(b.core.name, "BOOM");
        assert!((b.norm_throughput - 1.0).abs() < 1e-12);
        assert_eq!(b.ucores, 4);
        assert!((b.pct_of_core - 25.9).abs() < 0.1);
        assert!((b.pct_of_soc - 9.86).abs() < 0.05);
    }

    #[test]
    fn all_commercial_socs_under_one_percent() {
        for r in table3().iter().skip(1) {
            assert!(
                r.pct_of_soc < 1.0,
                "{}: {:.2}% must be < 1%",
                r.core.soc,
                r.pct_of_soc
            );
        }
    }
}
