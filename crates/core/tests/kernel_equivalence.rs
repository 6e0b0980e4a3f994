//! Kernel-equivalence property suite: every vector kernel the host can run
//! must be byte-identical to the scalar oracle (`bigmap_core::diff` /
//! `bigmap_core::classify`) on arbitrary region contents, lengths 0–8192,
//! and all 8 alignment offsets of both operands.
//!
//! CI runs this file twice: once with the dispatcher forced to the scalar
//! path (`BIGMAP_KERNEL=scalar`, which also pins `kernels::active()` for
//! the whole process) and once with AVX2 codegen flags — the per-kind
//! loops below always cover every kernel the CPU supports regardless of
//! what `active()` resolved to.

use bigmap_core::classify::classify_slice;
use bigmap_core::diff::{classify_and_compare_region, compare_region};
use bigmap_core::kernels::{available, table_for};
use bigmap_core::NewCoverage;
use proptest::prelude::*;

/// Max region length exercised by the properties (ISSUE spec: 0–8192).
const MAX_LEN: usize = 8192;

/// Builds an offset view: a buffer with `off` bytes of 0xA5 padding before
/// the `len` payload bytes, so the payload slice starts at alignment phase
/// `off` (mod 8, and mod vector width).
fn offset_buf(payload: &[u8], off: usize) -> Vec<u8> {
    let mut buf = vec![0xA5u8; off + payload.len() + 8];
    buf[off..off + payload.len()].copy_from_slice(payload);
    buf
}

/// Virgin (seen-bit) contents mixing realistic states: never-seen zero
/// bytes, single seen buckets, and arbitrary residue, derived
/// deterministically from a random seed vector.
fn virgin_from_seed(seed: &[u8]) -> Vec<u8> {
    seed.iter()
        .map(|&s| match s % 4 {
            0 | 1 => 0,          // never seen (the NewEdge case)
            2 => 1u8 << (s % 8), // one bucket seen
            _ => !s,             // arbitrary residue
        })
        .collect()
}

/// Asserts padding bytes around an offset view were never touched.
fn assert_padding_intact(buf: &[u8], off: usize, len: usize, what: &str) {
    assert!(
        buf[..off].iter().all(|&b| b == 0xA5),
        "{what}: head padding clobbered at offset {off}"
    );
    assert!(
        buf[off + len..].iter().all(|&b| b == 0xA5),
        "{what}: tail padding clobbered at offset {off}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn classify_matches_scalar_oracle(
        payload in prop::collection::vec(any::<u8>(), 0..MAX_LEN),
        off in 0usize..8,
    ) {
        let mut expect = payload.clone();
        classify_slice(&mut expect);
        for kind in available() {
            let mut buf = offset_buf(&payload, off);
            table_for(kind).unwrap().classify(&mut buf[off..off + payload.len()]);
            prop_assert_eq!(
                &buf[off..off + payload.len()],
                &expect[..],
                "{} classify diverged at offset {}", kind, off
            );
            assert_padding_intact(&buf, off, payload.len(), kind.label());
        }
    }

    #[test]
    fn compare_matches_scalar_oracle(
        payload in prop::collection::vec(any::<u8>(), 0..MAX_LEN),
        virgin_seed in prop::collection::vec(any::<u8>(), 0..MAX_LEN),
        cur_off in 0usize..8,
        vir_off in 0usize..8,
    ) {
        let n = payload.len().min(virgin_seed.len());
        // `compare` runs on already-classified data in the real pipeline.
        let mut cur = payload[..n].to_vec();
        classify_slice(&mut cur);
        let virgin = virgin_from_seed(&virgin_seed[..n]);

        let mut oracle_virgin = virgin.clone();
        let oracle = compare_region(&cur, &mut oracle_virgin);

        for kind in available() {
            let cur_buf = offset_buf(&cur, cur_off);
            let mut vir_buf = offset_buf(&virgin, vir_off);
            let got = table_for(kind).unwrap().compare(
                &cur_buf[cur_off..cur_off + n],
                &mut vir_buf[vir_off..vir_off + n],
            );
            prop_assert_eq!(
                got, oracle,
                "{} compare verdict diverged at offsets ({},{})", kind, cur_off, vir_off
            );
            prop_assert_eq!(
                &vir_buf[vir_off..vir_off + n],
                &oracle_virgin[..],
                "{} compare virgin bytes diverged at offsets ({},{})", kind, cur_off, vir_off
            );
            assert_padding_intact(&vir_buf, vir_off, n, kind.label());
        }
    }

    #[test]
    fn fused_matches_scalar_oracle(
        payload in prop::collection::vec(any::<u8>(), 0..MAX_LEN),
        virgin_seed in prop::collection::vec(any::<u8>(), 0..MAX_LEN),
        cur_off in 0usize..8,
        vir_off in 0usize..8,
    ) {
        let n = payload.len().min(virgin_seed.len());
        let raw = &payload[..n];
        let virgin = virgin_from_seed(&virgin_seed[..n]);

        let mut oracle_cur = raw.to_vec();
        let mut oracle_virgin = virgin.clone();
        let oracle = classify_and_compare_region(&mut oracle_cur, &mut oracle_virgin);

        for kind in available() {
            let mut cur_buf = offset_buf(raw, cur_off);
            let mut vir_buf = offset_buf(&virgin, vir_off);
            let got = table_for(kind).unwrap().classify_and_compare(
                &mut cur_buf[cur_off..cur_off + n],
                &mut vir_buf[vir_off..vir_off + n],
            );
            prop_assert_eq!(
                got, oracle,
                "{} fused verdict diverged at offsets ({},{})", kind, cur_off, vir_off
            );
            prop_assert_eq!(
                &cur_buf[cur_off..cur_off + n],
                &oracle_cur[..],
                "{} fused classified bytes diverged at offsets ({},{})", kind, cur_off, vir_off
            );
            prop_assert_eq!(
                &vir_buf[vir_off..vir_off + n],
                &oracle_virgin[..],
                "{} fused virgin bytes diverged at offsets ({},{})", kind, cur_off, vir_off
            );
            assert_padding_intact(&cur_buf, cur_off, n, kind.label());
            assert_padding_intact(&vir_buf, vir_off, n, kind.label());
        }
    }

    #[test]
    fn fused_equals_split_through_any_kernel(
        payload in prop::collection::vec(any::<u8>(), 0..MAX_LEN),
        virgin_seed in prop::collection::vec(any::<u8>(), 0..MAX_LEN),
    ) {
        // The §IV-E merge must stay observationally identical to
        // classify-then-compare *within* each kernel too.
        let n = payload.len().min(virgin_seed.len());
        let raw = &payload[..n];
        let virgin = virgin_from_seed(&virgin_seed[..n]);
        for kind in available() {
            let table = table_for(kind).unwrap();

            let mut split_cur = raw.to_vec();
            let mut split_virgin = virgin.clone();
            table.classify(&mut split_cur);
            let split = table.compare(&split_cur, &mut split_virgin);

            let mut fused_cur = raw.to_vec();
            let mut fused_virgin = virgin.clone();
            let fused = table.classify_and_compare(&mut fused_cur, &mut fused_virgin);

            prop_assert_eq!(split, fused, "{}: fused vs split verdict", kind);
            prop_assert_eq!(split_cur, fused_cur, "{}: fused vs split classified", kind);
            prop_assert_eq!(split_virgin, fused_virgin, "{}: fused vs split virgin", kind);
        }
    }
}

#[test]
fn exhaustive_verdict_cases_across_kernels() {
    // Deterministic spot checks at a vector-unfriendly length (one partial
    // block + tail) covering all three verdicts per kernel.
    let len = 67;
    for kind in available() {
        let table = table_for(kind).unwrap();
        let mut virgin = vec![0u8; len];
        let mut cur = vec![0u8; len];
        cur[0] = 1;
        cur[33] = 3;
        cur[66] = 200;
        assert_eq!(
            table.classify_and_compare(&mut cur, &mut virgin),
            NewCoverage::NewEdge,
            "{kind}: first touch"
        );
        let mut again = vec![0u8; len];
        again[0] = 1;
        again[33] = 3;
        again[66] = 200;
        assert_eq!(
            table.classify_and_compare(&mut again, &mut virgin),
            NewCoverage::None,
            "{kind}: identical rerun"
        );
        let mut hotter = vec![0u8; len];
        hotter[33] = 9; // bucket 16 instead of 4: new bucket, not new edge
        assert_eq!(
            table.classify_and_compare(&mut hotter, &mut virgin),
            NewCoverage::NewBucket,
            "{kind}: higher bucket"
        );
    }
}

#[test]
fn forced_scalar_dispatch_is_honoured() {
    // When CI pins BIGMAP_KERNEL=scalar the process-wide dispatcher must
    // resolve to the scalar table; without the pin this just asserts the
    // dispatcher picked something the host supports.
    let active = bigmap_core::kernels::active();
    match std::env::var("BIGMAP_KERNEL").ok().as_deref() {
        Some("scalar") => assert_eq!(active.kind, bigmap_core::KernelKind::Scalar),
        _ => assert!(available().contains(&active.kind)),
    }
}
