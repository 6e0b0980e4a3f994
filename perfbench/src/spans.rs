//! In-memory span storage. Each layer keeps the durations of its calls;
//! the summary (median, tail percentile, total) is computed once, when
//! the traced run ends, so recording a span costs one `Vec` push.

use std::time::Duration;

/// Durations of one layer's calls, in nanoseconds.
#[derive(Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    total_ns: u64,
}

/// Percentiles tried for the tail, highest first. The tail reported is
/// the highest one with at least ten samples beyond it.
const TAIL_LADDER: [f64; 4] = [0.99, 0.9, 0.75, 0.5];

impl Samples {
    #[inline]
    pub fn push(&mut self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.ns.push(ns);
        self.total_ns += ns;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.total_ns += other.total_ns;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Median, highest qualifying tail percentile and that percentile,
    /// or `None` with no samples.
    pub fn summary(&self) -> Option<Summary> {
        if self.ns.is_empty() {
            return None;
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        // Nearest rank; the rounding keeps 0.9 * 10 from ceiling to 10.
        let rank = |q: f64| {
            ((q * n as f64 * 1e9).round() / 1e9)
                .ceil()
                .clamp(1.0, n as f64) as usize
                - 1
        };
        let tail_q = TAIL_LADDER
            .into_iter()
            .find(|&q| n - 1 - rank(q) >= 10)
            .unwrap_or(0.5);
        Some(Summary {
            median: sorted[rank(0.5)] as f64,
            tail: sorted[rank(tail_q)] as f64,
            tail_q,
            n,
        })
    }
}

pub struct Summary {
    pub median: f64,
    pub tail: f64,
    pub tail_q: f64,
    pub n: usize,
}
