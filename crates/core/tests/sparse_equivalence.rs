//! Sparse-pipeline equivalence property suite: the run-dispatch sparse map
//! ops (`bigmap_core::sparse`) must be byte-identical to the dense scalar
//! oracle on the touched slots and leave untouched slots alone — for every
//! kernel the host can run — and a `BigMap` forced onto the sparse path
//! must produce bit-identical verdicts, hashes, coverage bytes and virgin
//! state to one forced onto the dense path over arbitrary exec streams,
//! including journals small enough to overflow mid-exec.
//!
//! CI runs this file under every `BIGMAP_KERNEL` setting it exercises for
//! `kernel_equivalence` — the function-level properties loop over
//! `available()` explicitly, and the map-level properties go through
//! whatever table the dispatcher pinned.

use bigmap_core::classify::classify_slice;
use bigmap_core::diff::classify_and_compare_region;
use bigmap_core::journal::TouchJournal;
use bigmap_core::kernels::{available, table_for};
use bigmap_core::sparse::{classify_and_compare_runs, classify_runs, compare_runs, reset_runs};
use bigmap_core::{BigMap, CoverageMap, MapSize, SparseMode, VirginState};
use proptest::prelude::*;

/// Region length for the function-level properties. Bursts up to
/// [`BURST_MAX`] slots cross the vector-dispatch threshold
/// (`sparse::VECTOR_RUN_MIN` = 32), so both the scalar per-slot loop and
/// the sub-slice kernel calls are exercised.
const REGION: usize = 1024;
const BURST_MAX: u32 = 48;

/// Replays touch bursts through a real journal. Each raw `u32` encodes a
/// burst — base slot in the low bits, length 1..[`BURST_MAX`] in the high
/// bits (the vendored proptest shim has no tuple strategies) — touching
/// consecutive slots clipped to the region, with duplicates and overlaps
/// deduplicated by the epoch stamps exactly as in production.
fn journal_from_bursts(bursts: &[u32]) -> TouchJournal {
    let mut j = TouchJournal::new(REGION);
    for &raw in bursts {
        let base = raw % REGION as u32;
        let len = 1 + (raw >> 16) % (BURST_MAX - 1);
        for s in base..(base + len).min(REGION as u32) {
            j.touch(s);
        }
    }
    j
}

/// Virgin (seen-bit) contents mixing never-seen, single-bucket and
/// arbitrary bytes (same scheme as the kernel_equivalence suite).
fn virgin_from_seed(seed: &[u8]) -> Vec<u8> {
    seed.iter()
        .map(|&s| match s % 4 {
            0 | 1 => 0,
            2 => 1u8 << (s % 8),
            _ => !s,
        })
        .collect()
}

/// Zeroes every byte the journal did NOT record, restoring the invariant
/// the sparse pipeline relies on: a complete journal covers all nonzero
/// bytes of the region.
fn enforce_journal_completeness(cur: &mut [u8], journal: &TouchJournal) {
    let mut keep = vec![false; cur.len()];
    for s in journal.iter_slots() {
        keep[s as usize] = true;
    }
    for (b, &k) in cur.iter_mut().zip(&keep) {
        if !k {
            *b = 0;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `classify_runs` buckets exactly the journaled slots and leaves the
    /// rest of the region untouched, matching the scalar oracle per slot.
    #[test]
    fn classify_runs_matches_dense_oracle_on_touched_slots(
        payload in prop::collection::vec(any::<u8>(), REGION..REGION + 1),
        bursts in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        let journal = journal_from_bursts(&bursts);

        let mut oracle_full = payload.clone();
        classify_slice(&mut oracle_full);
        let mut expect = payload.clone();
        for s in journal.iter_slots() {
            expect[s as usize] = oracle_full[s as usize];
        }

        for kind in available() {
            let mut got = payload.clone();
            classify_runs(&mut got, journal.runs(), table_for(kind).unwrap());
            prop_assert_eq!(&got, &expect, "{} classify_runs diverged", kind);
        }
    }

    /// With the completeness invariant in force (every nonzero byte is
    /// journaled), `compare_runs` and `classify_and_compare_runs` must
    /// return the same verdict and leave the same virgin bytes as the
    /// dense whole-region oracle.
    #[test]
    fn run_compare_matches_dense_oracle_under_completeness(
        payload in prop::collection::vec(any::<u8>(), REGION..REGION + 1),
        virgin_seed in prop::collection::vec(any::<u8>(), REGION..REGION + 1),
        bursts in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        let journal = journal_from_bursts(&bursts);
        let mut raw = payload.clone();
        enforce_journal_completeness(&mut raw, &journal);
        let virgin = virgin_from_seed(&virgin_seed);

        // Dense oracle over the whole region.
        let mut oracle_cur = raw.clone();
        let mut oracle_virgin = virgin.clone();
        let oracle = classify_and_compare_region(&mut oracle_cur, &mut oracle_virgin);

        for kind in available() {
            let table = table_for(kind).unwrap();

            // Merged sparse pass.
            let mut fused_cur = raw.clone();
            let mut fused_virgin = virgin.clone();
            let fused = classify_and_compare_runs(
                &mut fused_cur, &mut fused_virgin, journal.runs(), table,
            );
            prop_assert_eq!(fused, oracle, "{} fused verdict diverged", kind);
            prop_assert_eq!(&fused_cur, &oracle_cur, "{} fused classified bytes", kind);
            prop_assert_eq!(&fused_virgin, &oracle_virgin, "{} fused virgin bytes", kind);

            // Split sparse pipeline: classify_runs then compare_runs.
            let mut split_cur = raw.clone();
            let mut split_virgin = virgin.clone();
            classify_runs(&mut split_cur, journal.runs(), table);
            let split = compare_runs(&split_cur, &mut split_virgin, journal.runs(), table);
            prop_assert_eq!(split, oracle, "{} split verdict diverged", kind);
            prop_assert_eq!(&split_cur, &oracle_cur, "{} split classified bytes", kind);
            prop_assert_eq!(&split_virgin, &oracle_virgin, "{} split virgin bytes", kind);
        }
    }

    /// `reset_runs` clears exactly the journaled slots: journaled bytes go
    /// to zero, everything else keeps its value.
    #[test]
    fn reset_runs_clears_exactly_the_journal(
        payload in prop::collection::vec(any::<u8>(), REGION..REGION + 1),
        bursts in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        let journal = journal_from_bursts(&bursts);
        let mut expect = payload.clone();
        for s in journal.iter_slots() {
            expect[s as usize] = 0;
        }
        let mut got = payload;
        reset_runs(&mut got, journal.runs());
        prop_assert_eq!(got, expect);
    }

    /// A sparse-forced `BigMap` is observationally identical to a
    /// dense-forced one across multi-exec streams: same verdicts (merged
    /// and split pipelines), same hashes, same coverage bytes, same virgin
    /// state. A third map with a tiny journal capacity rides along so the
    /// overflow → dense-fallback boundary stays inside the property.
    #[test]
    fn forced_sparse_map_matches_forced_dense_map(
        execs in prop::collection::vec(
            prop::collection::vec(any::<u32>(), 0..160), 1..8),
        tiny_capacity in 0usize..6,
    ) {
        let mut dense = BigMap::new(MapSize::K64).unwrap();
        let mut sparse = BigMap::new(MapSize::K64).unwrap();
        let mut tiny = BigMap::with_journal_capacity(MapSize::K64, tiny_capacity).unwrap();
        dense.set_sparse_override(Some(SparseMode::Off));
        sparse.set_sparse_override(Some(SparseMode::On));
        tiny.set_sparse_override(Some(SparseMode::On));

        let mut dense_virgin = VirginState::new(MapSize::K64);
        let mut sparse_virgin = VirginState::new(MapSize::K64);
        let mut tiny_virgin = VirginState::new(MapSize::K64);

        for (i, keys) in execs.iter().enumerate() {
            for &key in keys {
                dense.record(key);
                sparse.record(key);
                tiny.record(key);
            }
            prop_assert_eq!(dense.hash(), sparse.hash(), "exec {}: raw hash", i);
            prop_assert_eq!(dense.hash(), tiny.hash(), "exec {}: raw hash (tiny)", i);

            // Alternate between the merged pass and the split pipeline so
            // both sparse entry points face the dense reference.
            let (vd, vs, vt) = if i % 2 == 0 {
                (
                    dense.classify_and_compare(&mut dense_virgin),
                    sparse.classify_and_compare(&mut sparse_virgin),
                    tiny.classify_and_compare(&mut tiny_virgin),
                )
            } else {
                dense.classify();
                sparse.classify();
                tiny.classify();
                (
                    dense.compare(&mut dense_virgin),
                    sparse.compare(&mut sparse_virgin),
                    tiny.compare(&mut tiny_virgin),
                )
            };
            prop_assert_eq!(vd, vs, "exec {}: verdict sparse vs dense", i);
            prop_assert_eq!(vd, vt, "exec {}: verdict tiny vs dense", i);
            prop_assert_eq!(dense.hash(), sparse.hash(), "exec {}: classified hash", i);
            prop_assert_eq!(dense.active_region(), sparse.active_region(),
                "exec {}: active region", i);
            prop_assert_eq!(dense.active_region(), tiny.active_region(),
                "exec {}: active region (tiny)", i);
            prop_assert_eq!(dense_virgin.as_slice(), sparse_virgin.as_slice(),
                "exec {}: virgin bytes", i);
            prop_assert_eq!(dense_virgin.as_slice(), tiny_virgin.as_slice(),
                "exec {}: virgin bytes (tiny)", i);

            dense.reset();
            sparse.reset();
            tiny.reset();
            prop_assert!(dense.active_region().iter().all(|&b| b == 0));
            prop_assert_eq!(dense.active_region(), sparse.active_region(),
                "exec {}: post-reset region", i);
            prop_assert_eq!(dense.active_region(), tiny.active_region(),
                "exec {}: post-reset region (tiny)", i);
        }
    }
}

/// Deterministic overflow-boundary walk: capacities straddling the exact
/// number of scattered runs an exec produces. At `capacity == runs` the
/// journal is complete and the forced-sparse map takes the sparse path; at
/// `capacity == runs - 1` it overflows and must fall back dense — the
/// observable state must be identical either way.
#[test]
fn overflow_boundary_is_observationally_invisible() {
    // Slot scatter needs two execs: exec #1 assigns slots 0..10 in
    // discovery order (a single run); after reset, exec #2 touches every
    // other key -> slots {0, 2, 4, 6, 8}: five singleton runs.
    let first: Vec<u32> = (0..10).collect();
    let second: Vec<u32> = (0..10).step_by(2).collect();

    let mut reference = BigMap::new(MapSize::K64).unwrap();
    reference.set_sparse_override(Some(SparseMode::Off));
    let mut ref_virgin = VirginState::new(MapSize::K64);
    for &k in &first {
        reference.record(k);
    }
    reference.classify_and_compare(&mut ref_virgin);
    reference.reset();
    for &k in &second {
        reference.record(k);
    }
    let ref_verdict = reference.classify_and_compare(&mut ref_virgin);
    let ref_hash = reference.hash();
    let ref_region = reference.active_region().to_vec();

    for capacity in 3..=7usize {
        let mut map = BigMap::with_journal_capacity(MapSize::K64, capacity).unwrap();
        map.set_sparse_override(Some(SparseMode::On));
        let mut virgin = VirginState::new(MapSize::K64);
        for &k in &first {
            map.record(k);
        }
        map.classify_and_compare(&mut virgin);
        map.reset();
        for &k in &second {
            map.record(k);
        }
        // 5 singleton runs: capacities 3..=4 overflow, 5..=7 stay complete.
        assert_eq!(
            map.journal_overflowed(),
            capacity < second.len(),
            "capacity {capacity}: unexpected overflow state"
        );
        let verdict = map.classify_and_compare(&mut virgin);
        assert_eq!(verdict, ref_verdict, "capacity {capacity}: verdict");
        assert_eq!(map.hash(), ref_hash, "capacity {capacity}: hash");
        assert_eq!(
            map.active_region(),
            &ref_region[..],
            "capacity {capacity}: region"
        );
    }
}
