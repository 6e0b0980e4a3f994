//! Per-exec touch journal: the list of condensed slots first-touched by
//! the current execution, deduplicated by an epoch-stamped side array and
//! stored as maximal runs of consecutive slots.
//!
//! Every per-exec map operation — reset, classify, compare, the merged
//! classify+compare — is bounded by BigMap's condensation to the used
//! prefix `[0 .. used_key)` (§IV-B), but a single execution writes only a
//! small fraction of that prefix. The journal records exactly which
//! condensed slots this exec touched, so the sparse pipeline
//! ([`crate::sparse`]) can process `O(touched)` bytes instead of
//! `O(used_key)`.
//!
//! Three design points matter for the hot path:
//!
//! * **Epoch stamps instead of clearing.** Deduplication uses a per-slot
//!   `u16` epoch array compared against the journal's current epoch; a slot
//!   is journaled only when its stamp is stale. Advancing to the next exec
//!   is a single epoch increment — clearing a per-slot "seen" bitmap (or
//!   the stamps themselves) every exec would itself be an `O(used)` pass
//!   and reintroduce exactly the cost the journal exists to remove. On
//!   `u16` wraparound (once every 65 535 execs) the stamps are cleared up
//!   to the highest slot ever stamped (never past BigMap's `used_key`),
//!   so the clear never faults in stamp pages no exec touched.
//! * **Run-length encoding.** Condensation assigns slots in discovery
//!   order, so the edges of one basic-block chain land in consecutive
//!   condensed slots and are touched back-to-back on every later exec.
//!   The journal exploits that: a touch extending the current run is a
//!   single `len += 1`, clustered coverage compresses by the run length,
//!   and — decisively for throughput — the sparse ops can hand whole runs
//!   to the vectorized kernels instead of walking bytes
//!   ([`crate::sparse::classify_and_compare_runs`]).
//! * **Bounded journal with an overflow flag.** The run vector is bounded
//!   (default [`DEFAULT_JOURNAL_CAPACITY`]); a pathological exec that
//!   starts more runs than that sets `overflowed` instead of growing the
//!   vector, and the dispatcher falls back to the dense kernels for that
//!   exec. (Extending an existing run never overflows — it allocates
//!   nothing.) The bound also guarantees `push` never reallocates after
//!   construction.

use crate::alloc::MapBuffer;

/// Default bound on the number of touch runs tracked per exec.
///
/// 64 Ki runs is far above realistic per-exec touch counts (a few percent
/// of the used prefix, mostly coalesced) while keeping the journal's
/// worst-case memory at 512 KiB; executions that exceed it are exactly the
/// high-density scattered execs for which the dense kernels win anyway.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 16;

/// Upper bound on the size-scaled journal capacity (4 Mi runs = 32 MiB of
/// run storage) — proportionally small next to the gigantic map it serves.
pub const MAX_JOURNAL_CAPACITY: usize = 1 << 22;

/// The size-scaled journal capacity for a map of `map_len` condensed slots:
/// `map_len / 256`, clamped to `[DEFAULT_JOURNAL_CAPACITY,
/// MAX_JOURNAL_CAPACITY]`.
///
/// The default 64 Ki bound was tuned at ≤ 16 MiB maps; at 256 MiB–1 GiB a
/// fixed bound would overflow (and force the dense fallback) at densities
/// the sparse path still wins, so the bound grows with the map. Maps at or
/// below 16 MiB get exactly the default — behaviour at the paper's sizes is
/// unchanged.
pub fn capacity_for(map_len: usize) -> usize {
    (map_len >> 8).clamp(DEFAULT_JOURNAL_CAPACITY, MAX_JOURNAL_CAPACITY)
}

/// A maximal run of consecutively-numbered condensed slots, in first-touch
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRun {
    /// First condensed slot of the run.
    pub base: u32,
    /// Number of consecutive slots; always ≥ 1 for journal-produced runs.
    pub len: u32,
}

impl SlotRun {
    /// One past the last slot of the run.
    #[inline]
    pub fn end(self) -> u32 {
        self.base + self.len
    }

    /// The index range this run covers in a condensed region.
    #[inline]
    pub fn range(self) -> std::ops::Range<usize> {
        self.base as usize..self.end() as usize
    }
}

/// Coalesces an explicit slot list into maximal consecutive runs, in order.
///
/// Test and benchmark helper: the journal itself coalesces during
/// [`TouchJournal::touch`], this reproduces the same encoding from a flat
/// list.
pub fn runs_from_slots(slots: &[u32]) -> Vec<SlotRun> {
    let mut runs: Vec<SlotRun> = Vec::new();
    for &s in slots {
        match runs.last_mut() {
            Some(r) if r.end() == s => r.len += 1,
            _ => runs.push(SlotRun { base: s, len: 1 }),
        }
    }
    runs
}

/// Epoch-stamped journal of the condensed slots first-touched this exec.
///
/// `touch` is called from the map-update hot path and does no journal scan:
/// dedup is one load + compare against the per-slot epoch stamp, and run
/// maintenance is one compare against the last run's end.
#[derive(Debug)]
pub struct TouchJournal {
    /// Maximal runs of distinct slots touched this exec, first-touch order.
    runs: Vec<SlotRun>,
    /// Total distinct slots journaled this exec (sum of run lengths).
    touched: usize,
    /// Per-slot epoch stamp; `epochs[s] == epoch` iff `s` is journaled.
    pub(crate) epochs: MapBuffer<u16>,
    /// One past the highest slot ever stamped (`epochs[stamped..]` is 0).
    stamped: usize,
    /// Current exec's epoch. Never 0 — 0 is the "never stamped" state.
    epoch: u16,
    /// Bound on `runs.len()`.
    capacity: usize,
    /// Set when a touch was dropped because the journal was full.
    overflowed: bool,
}

impl TouchJournal {
    /// Creates a journal for a map of `map_len` condensed slots with the
    /// size-scaled capacity ([`capacity_for`]).
    ///
    /// # Panics
    ///
    /// Panics if `map_len` is zero (the epoch buffer cannot be empty).
    pub fn new(map_len: usize) -> Self {
        Self::with_capacity(map_len, capacity_for(map_len))
    }

    /// Creates a journal with an explicit run-vector bound.
    ///
    /// A capacity of 0 makes every exec overflow immediately — useful for
    /// forcing the dense fallback in tests.
    ///
    /// # Panics
    ///
    /// Panics if `map_len` is zero.
    pub fn with_capacity(map_len: usize, capacity: usize) -> Self {
        TouchJournal {
            runs: Vec::with_capacity(capacity),
            touched: 0,
            epochs: MapBuffer::zeroed(map_len),
            stamped: 0,
            epoch: 1,
            capacity,
            overflowed: false,
        }
    }

    /// Records that condensed slot `slot` was touched this exec.
    ///
    /// First touch of a slot extends the current run when consecutive,
    /// otherwise starts a new run (or sets the overflow flag if the run
    /// vector is full); repeat touches are a single load + compare.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside the map this journal was built for.
    #[inline]
    pub fn touch(&mut self, slot: u32) {
        let stamp = &mut self.epochs[slot as usize];
        if *stamp != self.epoch {
            *stamp = self.epoch;
            self.stamped = self.stamped.max(slot as usize + 1);
            if let Some(r) = self.runs.last_mut() {
                if r.end() == slot {
                    r.len += 1;
                    self.touched += 1;
                    return;
                }
            }
            if self.runs.len() < self.capacity {
                self.runs.push(SlotRun { base: slot, len: 1 });
                self.touched += 1;
            } else {
                self.overflowed = true;
            }
        }
    }

    /// Starts the next exec: forgets this exec's touches in O(1).
    ///
    /// The epoch increment invalidates every stamp at once. On `u16`
    /// wraparound the stamped prefix is cleared so stale stamps from
    /// 65 535 execs ago cannot collide with the restarted epoch.
    pub fn advance(&mut self) {
        self.runs.clear();
        self.touched = 0;
        self.overflowed = false;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.epochs[..self.stamped].fill(0);
            self.epoch = 1;
        }
    }

    /// The maximal runs of distinct slots touched this exec, in
    /// first-touch order.
    pub fn runs(&self) -> &[SlotRun] {
        &self.runs
    }

    /// The journaled slots, flattened run by run (tests, diagnostics).
    pub fn iter_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.runs.iter().flat_map(|r| r.base..r.end())
    }

    /// Number of distinct slots journaled this exec.
    pub fn len(&self) -> usize {
        self.touched
    }

    /// Whether no slot has been journaled this exec.
    pub fn is_empty(&self) -> bool {
        self.touched == 0
    }

    /// The journal's run-vector bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether a touch was dropped this exec because the journal was full.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Whether the journal is a complete account of this exec's touches
    /// (i.e. it did not overflow). Only a complete journal may drive the
    /// sparse pipeline.
    pub fn is_complete(&self) -> bool {
        !self.overflowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(base: u32, len: u32) -> SlotRun {
        SlotRun { base, len }
    }

    #[test]
    fn first_touch_journals_repeat_touch_dedups() {
        let mut j = TouchJournal::new(64);
        j.touch(5);
        j.touch(9);
        j.touch(5);
        j.touch(5);
        j.touch(0);
        assert_eq!(j.runs(), &[run(5, 1), run(9, 1), run(0, 1)]);
        assert_eq!(j.iter_slots().collect::<Vec<_>>(), vec![5, 9, 0]);
        assert_eq!(j.len(), 3);
        assert!(j.is_complete());
    }

    #[test]
    fn consecutive_touches_coalesce_into_runs() {
        let mut j = TouchJournal::new(64);
        for s in [3, 4, 5, 9, 10, 2] {
            j.touch(s);
        }
        assert_eq!(j.runs(), &[run(3, 3), run(9, 2), run(2, 1)]);
        assert_eq!(j.len(), 6);
        // Descending adjacency does NOT coalesce — only forward extension
        // (`slot == last.end()`) is O(1) on the hot path.
        let mut k = TouchJournal::new(64);
        k.touch(4);
        k.touch(3);
        assert_eq!(k.runs(), &[run(4, 1), run(3, 1)]);
    }

    #[test]
    fn advance_forgets_previous_exec() {
        let mut j = TouchJournal::new(64);
        j.touch(1);
        j.touch(2);
        j.advance();
        assert!(j.is_empty());
        j.touch(2);
        j.touch(3);
        assert_eq!(j.runs(), &[run(2, 2)]);
    }

    #[test]
    fn overflow_sets_flag_and_keeps_bound() {
        let mut j = TouchJournal::with_capacity(64, 2);
        j.touch(0);
        j.touch(5);
        assert!(j.is_complete());
        j.touch(9); // third non-adjacent run start: dropped
        assert!(j.overflowed());
        assert!(!j.is_complete());
        assert_eq!(j.runs().len(), 2, "journal never grows past its capacity");
        // Extending an existing run allocates nothing and is still allowed
        // (the journal is incomplete either way).
        j.touch(6);
        assert_eq!(j.runs(), &[run(0, 1), run(5, 2)]);
        assert_eq!(j.len(), 3);
        // Re-touching an already-journaled slot does not re-trip anything.
        j.touch(0);
        assert_eq!(j.len(), 3);
        // The next exec starts clean.
        j.advance();
        assert!(j.is_complete());
        assert!(j.is_empty());
    }

    #[test]
    fn zero_capacity_always_overflows() {
        let mut j = TouchJournal::with_capacity(16, 0);
        j.touch(0);
        assert!(j.overflowed());
        assert!(j.is_empty());
    }

    #[test]
    fn epoch_wraparound_refills_stamps() {
        let mut j = TouchJournal::new(16);
        // Walk the epoch all the way around. Touch slot 7 in the first
        // exec only; after 65 535 advances the epoch counter has wrapped
        // through its full range and the stamps have been refilled.
        j.touch(7);
        for _ in 0..u16::MAX {
            j.advance();
        }
        // If wraparound failed to refill, slot 7's ancient stamp could
        // equal the restarted epoch and suppress journaling.
        j.touch(7);
        assert_eq!(j.runs(), &[run(7, 1)]);
    }

    #[test]
    fn capacity_scales_with_map_size() {
        // Paper-regime sizes keep the tuned default…
        assert_eq!(capacity_for(1 << 16), DEFAULT_JOURNAL_CAPACITY);
        assert_eq!(capacity_for(2 << 20), DEFAULT_JOURNAL_CAPACITY);
        assert_eq!(capacity_for(16 << 20), DEFAULT_JOURNAL_CAPACITY);
        // …the giant regime scales linearly…
        assert_eq!(capacity_for(256 << 20), 1 << 20);
        // …and the bound caps the journal's own footprint.
        assert_eq!(capacity_for(1 << 30), MAX_JOURNAL_CAPACITY);
        assert_eq!(capacity_for(usize::MAX / 2), MAX_JOURNAL_CAPACITY);
        // The constructor uses the scaled bound.
        assert_eq!(TouchJournal::new(64).capacity(), DEFAULT_JOURNAL_CAPACITY);
    }

    #[test]
    fn runs_from_slots_matches_touch_coalescing() {
        let slots = [3u32, 4, 5, 9, 10, 2, 40];
        let mut j = TouchJournal::new(64);
        for &s in &slots {
            j.touch(s);
        }
        assert_eq!(runs_from_slots(&slots), j.runs());
        assert_eq!(runs_from_slots(&[]), &[]);
    }
}
