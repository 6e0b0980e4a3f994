//! Per-operation runtime accounting (regenerates Figure 3).
//!
//! The paper's Figure 3 decomposes a campaign's wall-clock time into target
//! execution plus the five map operations. The fuzzer wraps each stage in a
//! timer and accumulates into an [`OpStats`]; the Figure 3 harness prints the
//! same stacked rows as the paper.

use std::fmt;
use std::time::Duration;

/// The stages of the per-test-case pipeline that the paper accounts for.
///
/// The discriminants follow [`OpKind::ALL`] (Figure 3's stacking order)
/// and index the per-stage accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Running the (instrumented) target — includes the bitmap *update*
    /// cost, exactly as in the paper, where the update happens inside the
    /// instrumented target's execution.
    Execution = 0,
    /// Bitmap reset before each test case.
    Reset = 3,
    /// Bitmap classify (bucketing) after each test case.
    Classify = 1,
    /// Bitmap compare against the virgin map(s).
    Compare = 2,
    /// Bitmap hash (interesting test cases only).
    Hash = 4,
    /// Everything else: scheduling, mutation, queue maintenance, sync.
    Other = 5,
}

impl OpKind {
    /// All kinds, in the order Figure 3 stacks them.
    pub const ALL: [OpKind; 6] = [
        OpKind::Execution,
        OpKind::Classify,
        OpKind::Compare,
        OpKind::Reset,
        OpKind::Hash,
        OpKind::Other,
    ];

    /// Figure-3-compatible label.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Execution => "Execution",
            OpKind::Reset => "Map Reset",
            OpKind::Classify => "Map Classify",
            OpKind::Compare => "Map Compare",
            OpKind::Hash => "Map Hash",
            OpKind::Other => "Others",
        }
    }

    fn slot(self) -> usize {
        self as usize
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated time per pipeline stage.
///
/// # Examples
///
/// ```rust
/// use bigmap_core::{OpKind, OpStats};
/// use std::time::Duration;
///
/// let mut stats = OpStats::new();
/// stats.add(OpKind::Execution, Duration::from_millis(30));
/// stats.add(OpKind::Reset, Duration::from_millis(10));
/// assert_eq!(stats.total(), Duration::from_millis(40));
/// assert_eq!(stats.fraction(OpKind::Reset), 0.25);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpStats {
    nanos: [u128; 6],
    counts: [u64; 6],
}

impl OpStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        OpStats::default()
    }

    /// Adds `elapsed` to the accumulator for `kind` and counts one
    /// invocation of the stage.
    #[inline]
    pub fn add(&mut self, kind: OpKind, elapsed: Duration) {
        self.nanos[kind.slot()] += elapsed.as_nanos();
        self.counts[kind.slot()] += 1;
    }

    /// Number of times `kind` was recorded (telemetry: per-stage pass
    /// counts alongside the per-stage time).
    pub fn count(&self, kind: OpKind) -> u64 {
        self.counts[kind.slot()]
    }

    /// Total time recorded for `kind`.
    pub fn get(&self, kind: OpKind) -> Duration {
        nanos_to_duration(self.nanos[kind.slot()])
    }

    /// Sum over all stages.
    pub fn total(&self) -> Duration {
        nanos_to_duration(self.nanos.iter().sum())
    }

    /// Fraction of total time spent in `kind` (0.0 if nothing recorded).
    pub fn fraction(&self, kind: OpKind) -> f64 {
        let total: u128 = self.nanos.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.nanos[kind.slot()] as f64 / total as f64
        }
    }

    /// Folds another accumulator into this one (parallel instances).
    pub fn merge(&mut self, other: &OpStats) {
        for i in 0..self.nanos.len() {
            self.nanos[i] += other.nanos[i];
            self.counts[i] += other.counts[i];
        }
    }

    /// Scales every accumulator by `factor` — used to extrapolate a measured
    /// run to the paper's "time per one million test cases" normalization.
    /// Invocation counts are extrapolated with the same factor.
    pub fn scaled(&self, factor: f64) -> OpStats {
        let mut out = OpStats::new();
        for (i, &n) in self.nanos.iter().enumerate() {
            out.nanos[i] = (n as f64 * factor) as u128;
            out.counts[i] = (self.counts[i] as f64 * factor) as u64;
        }
        out
    }

    /// Sum of the map-operation stages only (everything except execution
    /// and "others") — the quantity BigMap attacks.
    pub fn map_ops_total(&self) -> Duration {
        let sum = self.nanos[OpKind::Reset.slot()]
            + self.nanos[OpKind::Classify.slot()]
            + self.nanos[OpKind::Compare.slot()]
            + self.nanos[OpKind::Hash.slot()];
        nanos_to_duration(sum)
    }
}

fn nanos_to_duration(nanos: u128) -> Duration {
    Duration::new(
        (nanos / 1_000_000_000) as u64,
        (nanos % 1_000_000_000) as u32,
    )
}

impl fmt::Display for OpStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for kind in OpKind::ALL {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{}: {:?}", kind.label(), self.get(kind))?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_follow_all() {
        for (i, kind) in OpKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
        }
    }

    #[test]
    fn accumulates_and_totals() {
        let mut s = OpStats::new();
        s.add(OpKind::Execution, Duration::from_millis(5));
        s.add(OpKind::Execution, Duration::from_millis(5));
        s.add(OpKind::Hash, Duration::from_millis(10));
        assert_eq!(s.get(OpKind::Execution), Duration::from_millis(10));
        assert_eq!(s.total(), Duration::from_millis(20));
        assert_eq!(s.fraction(OpKind::Hash), 0.5);
    }

    #[test]
    fn empty_stats_fraction_is_zero() {
        assert_eq!(OpStats::new().fraction(OpKind::Reset), 0.0);
        assert_eq!(OpStats::new().total(), Duration::ZERO);
    }

    #[test]
    fn counts_track_invocations() {
        let mut s = OpStats::new();
        s.add(OpKind::Reset, Duration::from_nanos(1));
        s.add(OpKind::Reset, Duration::from_nanos(1));
        s.add(OpKind::Compare, Duration::from_nanos(1));
        assert_eq!(s.count(OpKind::Reset), 2);
        assert_eq!(s.count(OpKind::Compare), 1);
        assert_eq!(s.count(OpKind::Hash), 0);
        let mut other = OpStats::new();
        other.add(OpKind::Reset, Duration::from_nanos(1));
        s.merge(&other);
        assert_eq!(s.count(OpKind::Reset), 3);
        assert_eq!(s.scaled(2.0).count(OpKind::Reset), 6);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = OpStats::new();
        a.add(OpKind::Reset, Duration::from_secs(1));
        let mut b = OpStats::new();
        b.add(OpKind::Reset, Duration::from_secs(2));
        b.add(OpKind::Other, Duration::from_secs(3));
        a.merge(&b);
        assert_eq!(a.get(OpKind::Reset), Duration::from_secs(3));
        assert_eq!(a.get(OpKind::Other), Duration::from_secs(3));
    }

    #[test]
    fn scaled_extrapolates() {
        let mut s = OpStats::new();
        s.add(OpKind::Classify, Duration::from_millis(100));
        let doubled = s.scaled(2.0);
        assert_eq!(doubled.get(OpKind::Classify), Duration::from_millis(200));
    }

    #[test]
    fn map_ops_total_excludes_execution_and_other() {
        let mut s = OpStats::new();
        s.add(OpKind::Execution, Duration::from_secs(100));
        s.add(OpKind::Other, Duration::from_secs(100));
        s.add(OpKind::Reset, Duration::from_secs(1));
        s.add(OpKind::Classify, Duration::from_secs(2));
        s.add(OpKind::Compare, Duration::from_secs(3));
        s.add(OpKind::Hash, Duration::from_secs(4));
        assert_eq!(s.map_ops_total(), Duration::from_secs(10));
    }

    #[test]
    fn display_mentions_every_stage() {
        let text = OpStats::new().to_string();
        for kind in OpKind::ALL {
            assert!(text.contains(kind.label()), "missing {kind}");
        }
    }

    #[test]
    fn duration_conversion_handles_large_values() {
        let mut s = OpStats::new();
        for _ in 0..1000 {
            s.add(OpKind::Execution, Duration::from_secs(10_000));
        }
        assert_eq!(s.total(), Duration::from_secs(10_000_000));
    }
}
