//! Operating-discipline model of S.Y. Kung's fixed-size transitive-closure
//! array \[23\], used by the paper's §3.2 comparison.
//!
//! The paper quotes \[23\]: data must "be first loaded in the nodes and then
//! reused for a period of n cycles", so "certain control is required in the
//! systolic array". We model exactly that discipline: per problem instance,
//! a non-overlapped load phase (the `n × n` matrix enters over the array's
//! `n` boundary ports), then an `n`-cycle compute/reuse period, plus a
//! mode-switch control signal between phases. The Fig. 17 array overlaps
//! transfers with computation and needs no mode control, which is the
//! claimed advantage.

/// Phase model of Kung's array for problem size `n`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KungArrayModel {
    /// Problem size.
    pub n: usize,
}

impl KungArrayModel {
    /// Creates the model.
    pub fn new(n: usize) -> Self {
        Self { n }
    }

    /// Load-phase cycles per instance: `n² words / n boundary ports`.
    pub fn load_cycles(&self) -> u64 {
        self.n as u64
    }

    /// Compute/reuse cycles per instance (the quoted "period of n cycles").
    pub fn compute_cycles(&self) -> u64 {
        self.n as u64
    }

    /// Cycles per chained instance: load and compute do not overlap.
    pub fn cycles_per_instance(&self) -> u64 {
        self.load_cycles() + self.compute_cycles()
    }

    /// Throughput `1/(2n)` — half the Fig. 17 array's `1/n`.
    pub fn throughput(&self) -> f64 {
        1.0 / self.cycles_per_instance() as f64
    }

    /// Distinct control modes each cell must support (load vs reuse) —
    /// the "certain control" of \[23\]. The Fig. 17 array needs one.
    pub fn control_modes(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_metrics::FixedModel;

    #[test]
    fn kung_throughput_is_half_of_ours() {
        let n = 32;
        let kung = KungArrayModel::new(n);
        let ours = FixedModel { n };
        assert!((kung.throughput() - 1.0 / 64.0).abs() < 1e-12);
        assert!((ours.throughput() / kung.throughput() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn kung_needs_more_control() {
        let kung = KungArrayModel::new(8);
        assert_eq!(kung.control_modes(), 2);
    }
}
