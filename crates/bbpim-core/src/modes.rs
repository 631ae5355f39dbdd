//! Engine modes — the three systems Fig. 6–9 of the paper compare.

/// Which variant of the PIM engine executes queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineMode {
    /// `one-xb`: the whole pre-joined record in a single crossbar row;
    /// aggregation through the peripheral circuit (the paper's best
    /// configuration).
    OneXb,
    /// `two-xb`: vertical partitioning — fact attributes in one
    /// crossbar, dimension attributes in an aligned second crossbar;
    /// intermediate masks travel through the host (the paper's
    /// worst-case partitioning study).
    TwoXb,
    /// `pimdb`: identical to `one-xb` except aggregation runs as pure
    /// bulk-bitwise logic (the prior-work baseline the aggregation
    /// circuit improves on).
    PimDb,
}

impl EngineMode {
    /// Number of vertical partitions (crossbars per record).
    pub fn partitions(&self) -> usize {
        match self {
            EngineMode::OneXb | EngineMode::PimDb => 1,
            EngineMode::TwoXb => 2,
        }
    }

    /// Does aggregation use the peripheral circuit (vs pure bitwise)?
    pub fn uses_agg_circuit(&self) -> bool {
        !matches!(self, EngineMode::PimDb)
    }

    /// Label as used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            EngineMode::OneXb => "one_xb",
            EngineMode::TwoXb => "two_xb",
            EngineMode::PimDb => "pimdb",
        }
    }

    /// All three modes in figure order.
    pub fn all() -> [EngineMode; 3] {
        [EngineMode::OneXb, EngineMode::TwoXb, EngineMode::PimDb]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_and_circuit() {
        assert_eq!(EngineMode::OneXb.partitions(), 1);
        assert_eq!(EngineMode::TwoXb.partitions(), 2);
        assert_eq!(EngineMode::PimDb.partitions(), 1);
        assert!(EngineMode::OneXb.uses_agg_circuit());
        assert!(!EngineMode::PimDb.uses_agg_circuit());
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(EngineMode::OneXb.label(), "one_xb");
        assert_eq!(EngineMode::TwoXb.label(), "two_xb");
        assert_eq!(EngineMode::PimDb.label(), "pimdb");
    }
}
