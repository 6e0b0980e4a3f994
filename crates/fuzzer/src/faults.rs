//! Deterministic fault injection for degradation testing.
//!
//! A fault-tolerant runtime is only trustworthy if its failure paths are
//! exercised, and failure paths are only debuggable if the failures are
//! reproducible. This module plants *injection points* at the few places
//! where the campaign runtime touches the outside world — target
//! execution, checkpoint writes, worker threads — and drives them from a
//! precomputed, seeded schedule: fault N of site S on instance I either
//! fires on a given schedule run or it never does, independent of timing,
//! thread interleaving, or retry counts.
//!
//! The discipline mirrors the telemetry layer: the module is compiled
//! unconditionally, and a campaign without faults pays exactly one
//! predicted branch per injection point (`Option::is_none` on a field
//! that never changes), so production builds carry no feature-flag
//! matrix.
//!
//! * [`FaultSite`] — the enumerable injection points.
//! * [`FaultPlan`] — a schedule mapping `(site, instance)` to the set of
//!   *ordinals* (0-based occurrence counts) at which the fault fires;
//!   built explicitly or expanded from a seed.
//! * [`InstanceFaults`] — one instance's live view of a shared plan; its
//!   ordinal counters are atomics shared across supervisor restarts (via
//!   `Arc`), so a fault scheduled at ordinal 7 fires exactly once even if
//!   the instance is torn down and rebuilt in between.
//!
//! # Examples
//!
//! ```rust
//! use bigmap_fuzzer::faults::{FaultPlan, FaultSite, InstanceFaults};
//! use std::sync::Arc;
//!
//! let plan = FaultPlan::new().inject(FaultSite::TargetCrash, 0, 2);
//! let faults = InstanceFaults::new(Arc::new(plan), 0);
//! // Ordinals 0 and 1 pass, ordinal 2 fires, later ordinals pass again.
//! assert!(!faults.fire(FaultSite::TargetCrash));
//! assert!(!faults.fire(FaultSite::TargetCrash));
//! assert!(faults.fire(FaultSite::TargetCrash));
//! assert!(!faults.fire(FaultSite::TargetCrash));
//! ```

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::{rngs::SmallRng, Rng, SeedableRng};

/// The places the campaign runtime can be made to fail on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Force one target execution to report a crash (a "crash storm"
    /// when scheduled densely).
    TargetCrash,
    /// Force one target execution to report a hang.
    TargetHang,
    /// Fail one checkpoint write with an I/O error.
    CheckpointWrite,
    /// Panic the worker thread at its next sync boundary.
    WorkerPanic,
    /// Publish one checkpoint generation with only a prefix of its bytes
    /// and no fsync — the classic torn write: rename succeeds, the file
    /// looks real, the tail is gone. The writer is *not* told.
    TornWrite,
    /// Drop the tail of one checkpoint read before parsing, as if the
    /// kernel returned fewer bytes than the file claims to hold.
    ShortRead,
    /// Flip one bit in the middle of a just-published checkpoint file,
    /// simulating silent media corruption.
    BitFlip,
    /// Stall the worker's sync hook indefinitely — the process stays
    /// alive and heartbeats keep flowing, but no progress is made until
    /// the fleet's liveness deadline kills it.
    PipeStall,
    /// Fail one durable write with an `ENOSPC`-style storage-full error.
    DiskFull,
}

impl FaultSite {
    /// Every site, in slot order.
    pub const ALL: [FaultSite; 9] = [
        FaultSite::TargetCrash,
        FaultSite::TargetHang,
        FaultSite::CheckpointWrite,
        FaultSite::WorkerPanic,
        FaultSite::TornWrite,
        FaultSite::ShortRead,
        FaultSite::BitFlip,
        FaultSite::PipeStall,
        FaultSite::DiskFull,
    ];

    /// Number of sites (and length of every per-site counter array).
    pub const COUNT: usize = FaultSite::ALL.len();

    #[inline]
    fn slot(self) -> usize {
        self as usize
    }

    /// Human-readable site name (stable; used in fault-plan dumps).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::TargetCrash => "target_crash",
            FaultSite::TargetHang => "target_hang",
            FaultSite::CheckpointWrite => "checkpoint_write",
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::TornWrite => "torn_write",
            FaultSite::ShortRead => "short_read",
            FaultSite::BitFlip => "bit_flip",
            FaultSite::PipeStall => "pipe_stall",
            FaultSite::DiskFull => "disk_full",
        }
    }
}

/// A deterministic fault schedule: for each `(site, instance)` pair, the
/// set of ordinals (how many times that site has been *reached* on that
/// instance) at which the fault fires.
///
/// Plans are immutable once shared; build one up front with
/// [`FaultPlan::inject`] / [`FaultPlan::inject_seeded`] and hand it to
/// the fleet behind an `Arc`.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    schedule: HashMap<(FaultSite, usize), BTreeSet<u64>>,
}

impl FaultPlan {
    /// An empty plan (no faults ever fire).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `site` to fire on `instance` at occurrence `ordinal`
    /// (0-based). Chainable.
    pub fn inject(mut self, site: FaultSite, instance: usize, ordinal: u64) -> Self {
        self.schedule
            .entry((site, instance))
            .or_default()
            .insert(ordinal);
        self
    }

    /// Schedules `count` firings of `site` on `instance` at seeded
    /// pseudo-random ordinals within `0..window` — the storm generator
    /// for degradation tests. The same `(seed, site, instance, count,
    /// window)` always yields the same ordinals. Chainable.
    ///
    /// `count` is capped at `window` (can't fire more often than the
    /// site is reached).
    pub fn inject_seeded(
        mut self,
        seed: u64,
        site: FaultSite,
        instance: usize,
        count: u64,
        window: u64,
    ) -> Self {
        if window == 0 {
            return self;
        }
        // Mix the site and instance into the stream so the same seed
        // produces uncorrelated schedules per injection point.
        let stream = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((site.slot() as u64) << 32)
            .wrapping_add(instance as u64);
        let mut rng = SmallRng::seed_from_u64(stream);
        let entry = self.schedule.entry((site, instance)).or_default();
        let target = entry.len() + count.min(window) as usize;
        // BTreeSet dedup means collisions just re-draw; bounded because
        // count ≤ window.
        while entry.len() < target.min(window as usize) {
            entry.insert(rng.gen_range(0..window));
        }
        self
    }

    /// True if `site` on `instance` fires at `ordinal`.
    pub fn fires(&self, site: FaultSite, instance: usize, ordinal: u64) -> bool {
        self.schedule
            .get(&(site, instance))
            .is_some_and(|ordinals| ordinals.contains(&ordinal))
    }

    /// Total scheduled firings for `site` on `instance`.
    pub fn count(&self, site: FaultSite, instance: usize) -> usize {
        self.schedule
            .get(&(site, instance))
            .map_or(0, BTreeSet::len)
    }

    /// True if no fault is scheduled anywhere.
    pub fn is_empty(&self) -> bool {
        self.schedule.values().all(BTreeSet::is_empty)
    }
}

/// One fleet instance's live handle on a shared [`FaultPlan`].
///
/// Holds the per-site ordinal counters as atomics so the handle can be
/// shared (`Arc`) between a campaign and the supervisor that restarts
/// it: the ordinal stream continues across restarts instead of
/// replaying, which is what makes "fire the Nth checkpoint write"
/// mean the Nth *ever*, not the Nth since the last respawn.
#[derive(Debug)]
pub struct InstanceFaults {
    plan: Arc<FaultPlan>,
    instance: usize,
    ordinals: [AtomicU64; FaultSite::COUNT],
}

impl InstanceFaults {
    /// Creates the handle for `instance` over `plan`.
    pub fn new(plan: Arc<FaultPlan>, instance: usize) -> Self {
        InstanceFaults {
            plan,
            instance,
            ordinals: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The fleet instance this handle injects into.
    pub fn instance(&self) -> usize {
        self.instance
    }

    /// Advances `site`'s ordinal counter and reports whether the plan
    /// fires at the ordinal just consumed. Each call consumes exactly
    /// one ordinal, fired or not.
    #[inline]
    pub fn fire(&self, site: FaultSite) -> bool {
        let ordinal = self.ordinals[site.slot()].fetch_add(1, Ordering::Relaxed);
        self.plan.fires(site, self.instance, ordinal)
    }

    /// Current ordinal (occurrences so far) of `site` on this instance.
    pub fn ordinal(&self, site: FaultSite) -> u64 {
        self.ordinals[site.slot()].load(Ordering::Relaxed)
    }

    /// The shared plan.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let faults = InstanceFaults::new(Arc::new(FaultPlan::new()), 0);
        for _ in 0..1000 {
            for site in FaultSite::ALL {
                assert!(!faults.fire(site));
            }
        }
    }

    #[test]
    fn explicit_ordinals_fire_exactly_once() {
        let plan = FaultPlan::new()
            .inject(FaultSite::CheckpointWrite, 1, 0)
            .inject(FaultSite::CheckpointWrite, 1, 3);
        let faults = InstanceFaults::new(Arc::new(plan), 1);
        let fired: Vec<bool> = (0..6)
            .map(|_| faults.fire(FaultSite::CheckpointWrite))
            .collect();
        assert_eq!(fired, [true, false, false, true, false, false]);
    }

    #[test]
    fn instances_are_independent() {
        let plan = Arc::new(FaultPlan::new().inject(FaultSite::WorkerPanic, 0, 0));
        let zero = InstanceFaults::new(Arc::clone(&plan), 0);
        let one = InstanceFaults::new(plan, 1);
        assert!(zero.fire(FaultSite::WorkerPanic));
        assert!(!one.fire(FaultSite::WorkerPanic));
    }

    #[test]
    fn sites_have_independent_ordinals() {
        let plan = Arc::new(
            FaultPlan::new()
                .inject(FaultSite::TargetCrash, 0, 1)
                .inject(FaultSite::TargetHang, 0, 0),
        );
        let faults = InstanceFaults::new(plan, 0);
        assert!(faults.fire(FaultSite::TargetHang));
        assert!(!faults.fire(FaultSite::TargetCrash));
        assert!(faults.fire(FaultSite::TargetCrash));
        assert_eq!(faults.ordinal(FaultSite::TargetCrash), 2);
        assert_eq!(faults.ordinal(FaultSite::TargetHang), 1);
    }

    #[test]
    fn seeded_schedules_are_reproducible() {
        let a = FaultPlan::new().inject_seeded(42, FaultSite::TargetCrash, 0, 10, 500);
        let b = FaultPlan::new().inject_seeded(42, FaultSite::TargetCrash, 0, 10, 500);
        assert_eq!(a.count(FaultSite::TargetCrash, 0), 10);
        for ordinal in 0..500 {
            assert_eq!(
                a.fires(FaultSite::TargetCrash, 0, ordinal),
                b.fires(FaultSite::TargetCrash, 0, ordinal),
            );
        }
        // A different seed produces a different schedule (overwhelmingly).
        let c = FaultPlan::new().inject_seeded(43, FaultSite::TargetCrash, 0, 10, 500);
        let differs = (0..500).any(|ordinal| {
            a.fires(FaultSite::TargetCrash, 0, ordinal)
                != c.fires(FaultSite::TargetCrash, 0, ordinal)
        });
        assert!(differs);
    }

    #[test]
    fn seeded_count_capped_at_window() {
        let plan = FaultPlan::new().inject_seeded(7, FaultSite::TargetHang, 2, 100, 8);
        assert_eq!(plan.count(FaultSite::TargetHang, 2), 8);
        // All 8 ordinals fire.
        for ordinal in 0..8 {
            assert!(plan.fires(FaultSite::TargetHang, 2, ordinal));
        }
        // Zero window is a no-op.
        let empty = FaultPlan::new().inject_seeded(7, FaultSite::TargetHang, 2, 5, 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn slots_are_dense_and_names_unique() {
        // `ALL`, `slot()`, and the ordinal-counter array length are
        // coupled; this pins the invariant as sites are added.
        for (index, site) in FaultSite::ALL.into_iter().enumerate() {
            assert_eq!(site as usize, index);
        }
        let names: BTreeSet<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), FaultSite::COUNT);
    }

    #[test]
    fn io_chaos_sites_fire_independently() {
        let plan = Arc::new(
            FaultPlan::new()
                .inject(FaultSite::TornWrite, 0, 0)
                .inject(FaultSite::BitFlip, 0, 1)
                .inject(FaultSite::DiskFull, 0, 0),
        );
        let faults = InstanceFaults::new(plan, 0);
        assert!(faults.fire(FaultSite::TornWrite));
        assert!(!faults.fire(FaultSite::BitFlip));
        assert!(faults.fire(FaultSite::BitFlip));
        assert!(faults.fire(FaultSite::DiskFull));
        assert!(!faults.fire(FaultSite::ShortRead));
        assert!(!faults.fire(FaultSite::PipeStall));
    }

    #[test]
    fn shared_handle_ordinals_survive_clone_of_arc() {
        // The supervisor shares the *handle* across restarts; the ordinal
        // stream must continue rather than restart.
        let plan = Arc::new(FaultPlan::new().inject(FaultSite::TargetCrash, 0, 2));
        let faults = Arc::new(InstanceFaults::new(plan, 0));
        let first_epoch = Arc::clone(&faults);
        assert!(!first_epoch.fire(FaultSite::TargetCrash)); // ordinal 0
        drop(first_epoch); // "instance died"
        let second_epoch = Arc::clone(&faults);
        assert!(!second_epoch.fire(FaultSite::TargetCrash)); // ordinal 1
        assert!(second_epoch.fire(FaultSite::TargetCrash)); // ordinal 2 fires
    }
}
