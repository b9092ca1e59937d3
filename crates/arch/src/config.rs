//! Architecture configuration.

use std::fmt;

/// Which floorplan strategy the machine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FloorplanKind {
    /// LSQCA with point-SAM banks (single scan cell per bank). The paper limits
    /// the bank count to 1 or 2 because every bank must touch the CR.
    PointSam {
        /// Number of SAM banks.
        banks: u32,
    },
    /// LSQCA with **dual-port** point-SAM banks: each bank keeps a scan
    /// vacancy at a CR port on *both* its west and east edge, so every access
    /// picks the cheaper side and the second vacancy's faster move protocol
    /// (Fig. 11) is always available. Costs one extra cell per bank and a
    /// second CR attachment; an extension beyond the paper's single-port
    /// design, enabled by the per-anchor vacancy rings.
    DualPointSam {
        /// Number of SAM banks.
        banks: u32,
    },
    /// LSQCA with line-SAM banks (a scan line per bank); 1, 2, or 4 banks are
    /// evaluated in the paper.
    LineSam {
        /// Number of SAM banks.
        banks: u32,
    },
    /// The conventional 1/2-density floorplan used as the paper's baseline:
    /// unit-latency access to every qubit, unbounded parallelism (no path
    /// conflicts assumed), 50% memory density.
    Conventional,
}

impl FloorplanKind {
    /// Number of SAM banks (zero for the conventional floorplan).
    pub fn bank_count(self) -> u32 {
        match self {
            FloorplanKind::PointSam { banks }
            | FloorplanKind::DualPointSam { banks }
            | FloorplanKind::LineSam { banks } => banks,
            FloorplanKind::Conventional => 0,
        }
    }

    /// True for the conventional baseline.
    pub fn is_conventional(self) -> bool {
        matches!(self, FloorplanKind::Conventional)
    }

    /// Short label used in figures, e.g. `"Point #SAM=2"`.
    pub fn label(self) -> String {
        match self {
            FloorplanKind::PointSam { banks } => format!("Point #SAM={banks}"),
            FloorplanKind::DualPointSam { banks } => format!("DualPoint #SAM={banks}"),
            FloorplanKind::LineSam { banks } => format!("Line #SAM={banks}"),
            FloorplanKind::Conventional => "Conventional".to_string(),
        }
    }
}

impl fmt::Display for FloorplanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Full architectural configuration for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    /// The floorplan strategy.
    pub floorplan: FloorplanKind,
    /// Number of magic-state factories. Their output buffer holds
    /// `2 × factories` states, as in the paper (see [`crate::msf`]).
    pub factories: u32,
    /// Fraction `f` of data cells placed in an attached conventional floorplan
    /// (the hybrid layout of Sec. V-D / VI-C). `0.0` is pure LSQCA; the
    /// conventional floorplan ignores this field (it behaves as `f = 1`).
    pub hybrid_fraction: f64,
    /// Use the locality-aware store policy (Sec. V-B). The paper's evaluation
    /// always enables it; disabling it is useful for ablation studies.
    pub locality_aware_store: bool,
}

impl ArchConfig {
    /// Creates a configuration with the paper's defaults: no hybrid region
    /// and the locality-aware store.
    ///
    /// # Panics
    ///
    /// Panics if a SAM floorplan is requested with zero banks, if the point SAM
    /// has more than two banks, or if `factories` is zero.
    pub fn new(floorplan: FloorplanKind, factories: u32) -> Self {
        let config = ArchConfig {
            floorplan,
            factories,
            hybrid_fraction: 0.0,
            locality_aware_store: true,
        };
        config.validate();
        config
    }

    /// The conventional-baseline configuration with the given factory count.
    pub fn conventional(factories: u32) -> Self {
        ArchConfig::new(FloorplanKind::Conventional, factories)
    }

    /// Returns a copy with the hybrid fraction set.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1]`.
    pub fn with_hybrid_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "hybrid fraction must be within [0, 1]"
        );
        self.hybrid_fraction = fraction;
        self
    }

    fn validate(&self) {
        assert!(
            self.factories > 0,
            "at least one magic-state factory is required"
        );
        match self.floorplan {
            FloorplanKind::PointSam { banks } => {
                assert!(banks > 0, "point SAM needs at least one bank");
                assert!(
                    banks <= 2,
                    "the paper limits point SAM to at most two banks"
                );
            }
            FloorplanKind::DualPointSam { banks } => {
                assert!(banks > 0, "dual-port point SAM needs at least one bank");
                assert!(
                    banks <= 2,
                    "dual-port point SAM is limited to two banks (each already \
                     claims two CR attachments)"
                );
            }
            FloorplanKind::LineSam { banks } => {
                assert!(banks > 0, "line SAM needs at least one bank");
            }
            FloorplanKind::Conventional => {}
        }
    }

    /// The five SAM configurations evaluated in Fig. 13/14 plus the baseline:
    /// point SAM with 1/2 banks, line SAM with 1/2/4 banks, conventional.
    pub fn paper_floorplans() -> Vec<FloorplanKind> {
        vec![
            FloorplanKind::PointSam { banks: 1 },
            FloorplanKind::PointSam { banks: 2 },
            FloorplanKind::LineSam { banks: 1 },
            FloorplanKind::LineSam { banks: 2 },
            FloorplanKind::LineSam { banks: 4 },
            FloorplanKind::Conventional,
        ]
    }
}

impl fmt::Display for ArchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} with {} factories, hybrid f={:.2}",
            self.floorplan, self.factories, self.hybrid_fraction,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = ArchConfig::new(FloorplanKind::PointSam { banks: 1 }, 1);
        assert_eq!(c.hybrid_fraction, 0.0);
        assert!(c.locality_aware_store);
    }

    #[test]
    fn builder_methods() {
        let c = ArchConfig::conventional(2).with_hybrid_fraction(0.5);
        assert!(c.floorplan.is_conventional());
        assert_eq!(c.hybrid_fraction, 0.5);
    }

    #[test]
    fn labels() {
        assert_eq!(FloorplanKind::PointSam { banks: 2 }.label(), "Point #SAM=2");
        assert_eq!(FloorplanKind::LineSam { banks: 4 }.label(), "Line #SAM=4");
        assert_eq!(FloorplanKind::Conventional.label(), "Conventional");
        assert_eq!(FloorplanKind::Conventional.bank_count(), 0);
        assert_eq!(FloorplanKind::LineSam { banks: 4 }.bank_count(), 4);
    }

    #[test]
    fn paper_floorplans_cover_fig13() {
        let plans = ArchConfig::paper_floorplans();
        assert_eq!(plans.len(), 6);
        assert!(plans.contains(&FloorplanKind::Conventional));
    }

    #[test]
    #[should_panic(expected = "at most two banks")]
    fn point_sam_with_four_banks_is_rejected() {
        let _ = ArchConfig::new(FloorplanKind::PointSam { banks: 4 }, 1);
    }

    #[test]
    #[should_panic(expected = "at least one magic-state factory")]
    fn zero_factories_is_rejected() {
        let _ = ArchConfig::new(FloorplanKind::Conventional, 0);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn out_of_range_hybrid_fraction_is_rejected() {
        let _ = ArchConfig::conventional(1).with_hybrid_fraction(1.5);
    }

    #[test]
    fn display_is_descriptive() {
        let c = ArchConfig::new(FloorplanKind::LineSam { banks: 2 }, 4);
        let s = c.to_string();
        assert!(s.contains("Line #SAM=2"));
        assert!(s.contains("4 factories"));
    }
}
