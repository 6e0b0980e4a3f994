//! Property tests for the checkpoint text format.
//!
//! `Checkpoint::from_text` reads files that outlived the process that
//! wrote them — through torn writes, short reads and media bit flips — so
//! the parser must (a) reproduce every checkpoint bit-identically, (b)
//! reject every truncated file, and (c) never turn a damaged file into a
//! *different* checkpoint: a single-byte edit either fails to parse or
//! parses to exactly the original (an edit the format ignores, such as a
//! space turned into a tab inside a checksum line).
//!
//! Case counts stay small: each edit case re-parses the file once per
//! byte, and tier-1 runs this suite in a debug build.

use proptest::prelude::*;

use bigmap::fuzzer::checkpoint::{Checkpoint, CheckpointQueueEntry};
use bigmap::target::OracleSnapshot;

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..max)
}

fn arb_checkpoint() -> impl Strategy<Value = Checkpoint> {
    let counters = (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>());
    let rng = (
        any::<u64>(),
        any::<u64>(),
        prop::array::uniform8(any::<u64>()),
        (any::<bool>(), any::<u64>()),
    );
    let queue = (
        any::<u64>(),
        prop::collection::vec((any::<u32>(), any::<u32>(), arb_bytes(24)), 0..6),
        prop::collection::vec((any::<u32>(), arb_bytes(16)), 0..4),
        prop::collection::vec(arb_bytes(16), 0..3),
    );
    let oracle = (
        0u8..3,
        arb_bytes(16),
        prop::collection::vec(any::<u64>(), 0..6),
    );
    (counters, rng, queue, oracle).prop_map(
        |(
            (execs, wall_nanos, total_crashes, hangs),
            (coverage_unique_crashes, discovered_running, words, (budgeted, budget)),
            (queue_cursor, queue, crashes, hang_inputs),
            (oracle_kind, buckets, paths),
        )| Checkpoint {
            execs,
            wall_nanos,
            total_crashes,
            hangs,
            coverage_unique_crashes,
            discovered_running,
            rng: [words[0], words[1], words[2], words[3]],
            mutator_rng: [words[4], words[5], words[6], words[7]],
            hang_budget: budgeted.then_some(budget),
            queue_cursor,
            queue: queue
                .into_iter()
                .map(|(depth, fuzzed_rounds, input)| CheckpointQueueEntry {
                    depth: depth as usize,
                    fuzzed_rounds: fuzzed_rounds as usize,
                    input,
                })
                .collect(),
            crashes,
            hang_inputs,
            // Always-trace campaigns carry no oracle section at all.
            oracle: (oracle_kind > 0).then_some(OracleSnapshot { buckets, paths }),
        },
    )
}

/// Replacement bytes that probe the format's structure: separators,
/// line ends, digits, hex letters, signs and key characters.
const PROBES: &[u8] = b" \t\r\n019afgAF-+_xe";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn text_round_trips_bit_identically(ckpt in arb_checkpoint()) {
        let text = ckpt.to_text();
        prop_assert_eq!(Checkpoint::from_text(&text), Ok(ckpt.clone()));
        // Serialization is a function of the checkpoint alone.
        prop_assert_eq!(Checkpoint::from_text(&text).unwrap().to_text(), text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_truncation_is_rejected(ckpt in arb_checkpoint()) {
        let text = ckpt.to_text();
        for cut in 0..text.len() {
            prop_assert!(
                Checkpoint::from_text(&text[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte file parsed",
                text.len()
            );
        }
    }

    #[test]
    fn single_byte_edits_never_yield_a_different_checkpoint(
        ckpt in arb_checkpoint(),
        salt in any::<usize>(),
    ) {
        let bytes = ckpt.to_text().into_bytes();
        for pos in 0..bytes.len() {
            let original = bytes[pos];
            let probe = PROBES[pos.wrapping_add(salt) % PROBES.len()];
            let flip = original ^ (1 << (pos.wrapping_add(salt) % 7));
            for replacement in [probe, flip] {
                if replacement == original {
                    continue;
                }
                let mut edited = bytes.clone();
                edited[pos] = replacement;
                // Non-UTF-8 text never reaches the parser: the loader's
                // `read_to_string` rejects it first.
                let Ok(text) = String::from_utf8(edited) else {
                    continue;
                };
                if let Ok(parsed) = Checkpoint::from_text(&text) {
                    prop_assert_eq!(
                        &parsed,
                        &ckpt,
                        "byte {} {:?} -> {:?} parsed to a different checkpoint",
                        pos,
                        original as char,
                        replacement as char
                    );
                }
            }
        }
    }
}
