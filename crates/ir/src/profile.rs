//! Profile data: per-branch-site bias and predictability.

use std::collections::BTreeMap;
use vanguard_isa::BlockId;

/// Execution statistics for one static conditional-branch site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchSiteStats {
    /// Dynamic executions.
    pub executed: u64,
    /// Taken outcomes.
    pub taken: u64,
    /// Outcomes the profiling predictor got right.
    pub predicted_correctly: u64,
}

impl BranchSiteStats {
    /// Records one execution.
    pub fn record(&mut self, taken: bool, predicted_correctly: bool) {
        self.executed += 1;
        self.taken += taken as u64;
        self.predicted_correctly += predicted_correctly as u64;
    }

    /// Bias: frequency of the more common direction, in `[0.5, 1]`
    /// (Figure 2/3's notion — a 60/40 branch has bias 0.6).
    pub fn bias(&self) -> f64 {
        if self.executed == 0 {
            return 0.0;
        }
        let t = self.taken as f64 / self.executed as f64;
        t.max(1.0 - t)
    }

    /// Predictability: the profiling predictor's accuracy on this site.
    pub fn predictability(&self) -> f64 {
        if self.executed == 0 {
            return 0.0;
        }
        self.predicted_correctly as f64 / self.executed as f64
    }

    /// The paper's candidate test (§5): predictability exceeds bias by at
    /// least `threshold` (0.05 in the evaluation).
    pub fn exceeds_bias_by(&self, threshold: f64) -> bool {
        self.predictability() - self.bias() >= threshold
    }

    /// The more common direction (`true` = taken).
    pub fn majority_taken(&self) -> bool {
        2 * self.taken >= self.executed
    }
}

/// A program profile: statistics per conditional-branch block, keyed by the
/// block whose terminator is the branch.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    sites: BTreeMap<BlockId, BranchSiteStats>,
    /// Total dynamic instructions in the profiled run.
    pub dynamic_insts: u64,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one execution of the branch terminating `block`.
    pub fn record(&mut self, block: BlockId, taken: bool, predicted_correctly: bool) {
        self.sites
            .entry(block)
            .or_default()
            .record(taken, predicted_correctly);
    }

    /// Statistics for one site.
    pub fn site(&self, block: BlockId) -> Option<&BranchSiteStats> {
        self.sites.get(&block)
    }

    /// Iterates `(block, stats)` in block order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &BranchSiteStats)> {
        self.sites.iter().map(|(&b, s)| (b, s))
    }

    /// Number of profiled sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether any site was profiled.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Sites sorted by execution count, hottest first (the paper profiles
    /// the top-75 most-executed forward branches for Figures 2/3).
    pub fn hottest(&self, limit: usize) -> Vec<(BlockId, BranchSiteStats)> {
        let mut v: Vec<_> = self.sites.iter().map(|(&b, &s)| (b, s)).collect();
        v.sort_by(|a, b| b.1.executed.cmp(&a.1.executed).then(a.0.cmp(&b.0)));
        v.truncate(limit);
        v
    }

    /// Misses per thousand profiled instructions across all sites.
    pub fn mppki(&self) -> f64 {
        if self.dynamic_insts == 0 {
            return 0.0;
        }
        let misses: u64 = self
            .sites
            .values()
            .map(|s| s.executed - s.predicted_correctly)
            .sum();
        misses as f64 * 1000.0 / self.dynamic_insts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_and_predictability() {
        let mut s = BranchSiteStats::default();
        for i in 0..100 {
            // 60/40 direction, predictor right 90% of the time.
            s.record(i % 10 < 6, i % 10 != 0);
        }
        assert!((s.bias() - 0.6).abs() < 1e-12);
        assert!((s.predictability() - 0.9).abs() < 1e-12);
        assert!(s.exceeds_bias_by(0.05));
        assert!(!s.exceeds_bias_by(0.35));
        assert!(s.majority_taken());
    }

    #[test]
    fn empty_site_is_safe() {
        let s = BranchSiteStats::default();
        assert_eq!(s.bias(), 0.0);
        assert_eq!(s.predictability(), 0.0);
    }

    #[test]
    fn hottest_orders_by_execution() {
        let mut p = Profile::new();
        for _ in 0..10 {
            p.record(BlockId(1), true, true);
        }
        for _ in 0..5 {
            p.record(BlockId(2), false, true);
        }
        for _ in 0..20 {
            p.record(BlockId(3), true, false);
        }
        let top = p.hottest(2);
        assert_eq!(top[0].0, BlockId(3));
        assert_eq!(top[1].0, BlockId(1));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn mppki_counts_misses_per_kiloinst() {
        let mut p = Profile::new();
        p.dynamic_insts = 10_000;
        for i in 0..100 {
            p.record(BlockId(0), true, i % 2 == 0); // 50 misses
        }
        assert!((p.mppki() - 5.0).abs() < 1e-12);
    }
}
