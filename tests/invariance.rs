//! Mechanism invariance: every policy walks one campaign trajectory.
//!
//! The paper's correctness claim is observational equivalence — the
//! two-level map reaches exactly the coverage decisions of AFL's flat map
//! (§IV). Every mechanism layered on top since (the sparse touched-slot
//! journal, selective tracing, the compiled engine with snapshot resets,
//! huge-page backends, kill/resume) makes the same promise: it changes
//! *how* a campaign runs, never *what* it decides. The policy harness in
//! `tests/common` proves that promise once; this file holds its scheme,
//! default-config, determinism and huge-page cells, and
//! `tests/kernel_trajectory.rs` the two-level sparse × trace × engine ×
//! resume cross-product.
//!
//! Policies travel as arguments (config fields and the thread-local
//! huge-page override), so no cell needs a process of its own. The map-op
//! kernel is the one exception: the dispatcher is process-wide, so the
//! kernel arm replays real coverage maps through every kernel the host
//! supports instead.

mod common;

use bigmap::core::alloc::HugePolicy;
use bigmap::core::kernels::{available, table_for};
use bigmap::prelude::*;
use common::{check, reference, run, Policy, BUDGET};

#[test]
fn reference_cell_is_nontrivial_and_run_to_run_deterministic() {
    let expected = reference(MapSize::M2);
    assert_eq!(expected.execs, BUDGET);
    assert!(
        expected.queue_crcs.len() > 8,
        "nothing admitted past the seeds"
    );
    assert!(expected.timeline.len() > 4);
    assert!(!expected.crash_inputs.is_empty(), "no crash to compare");
    assert!(!expected.hang_inputs.is_empty(), "no hang to compare");
    let repeat = run(Policy::reference(MapSize::M2));
    assert_eq!(
        repeat.fingerprint.diverging_fields(expected),
        Vec::<&str>::new(),
        "same policy, different trajectory"
    );
}

#[test]
fn default_config_matches_the_reference() {
    check(Policy {
        sparse: None,
        trace: None,
        interp: None,
        ..Policy::reference(MapSize::M2)
    });
}

#[test]
fn flat_map_matches_the_two_level_reference_at_equal_size() {
    // 64 KiB keeps AFL's whole-map passes cheap in debug builds.
    check(Policy {
        scheme: MapScheme::Flat,
        ..Policy::reference(MapSize::K64)
    });
}

#[test]
fn huge_page_policies_match_the_reference_at_2_mib() {
    for huge in [HugePolicy::Off, HugePolicy::Thp, HugePolicy::Explicit] {
        check(Policy {
            huge: Some(huge),
            ..Policy::reference(MapSize::M2)
        });
    }
}

#[test]
fn huge_page_policies_match_the_reference_at_256_mib() {
    for huge in [HugePolicy::Off, HugePolicy::Thp, HugePolicy::Explicit] {
        check(Policy {
            huge: Some(huge),
            ..Policy::reference(MapSize::M256)
        });
    }
}

#[test]
fn real_coverage_replay_is_kernel_invariant() {
    // Drive the executor over a deterministic input stream, capturing the
    // raw (unclassified) coverage map of every execution; then push each
    // captured map through every available kernel's fused pipeline against
    // that kernel's own virgin map.
    let spec = BenchmarkSpec::by_name("sqlite3").unwrap();
    let program = spec.build(0.05);
    let seeds = spec.build_seeds(&program, 16);
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, MapSize::M2, 9);
    let interpreter = Interpreter::new(&program);
    let mut executor = Executor::new(
        &interpreter,
        &instrumentation,
        Box::new(EdgeHitCount::new()),
    );

    let map_bytes = MapSize::M2.bytes();
    let mut raw_maps: Vec<Vec<u8>> = Vec::new();
    let mut map = FlatBitmap::new(MapSize::M2).unwrap();
    for (i, seed) in seeds.iter().enumerate() {
        // A cheap variant per seed to diversify the hit patterns.
        let mut input = seed.clone();
        if !input.is_empty() {
            input[0] = input[0].wrapping_add(i as u8);
        }
        map.reset();
        executor.run(&input, &mut map);
        raw_maps.push(map.as_slice().to_vec());
    }
    assert!(!raw_maps.is_empty());

    let kernels = available();
    assert!(!kernels.is_empty());

    // Per-kernel pipeline state.
    let mut virgins: Vec<Vec<u8>> = kernels.iter().map(|_| vec![0u8; map_bytes]).collect();
    for raw in &raw_maps {
        let mut outcomes = Vec::new();
        for (k, &kind) in kernels.iter().enumerate() {
            let table = table_for(kind).expect("available kernel has a table");
            let mut cur = raw.clone();
            let verdict = table.classify_and_compare(&mut cur, &mut virgins[k]);
            outcomes.push((kind, verdict, cur));
        }
        let (_, first_verdict, first_cur) = &outcomes[0];
        for (kind, verdict, cur) in &outcomes[1..] {
            assert_eq!(verdict, first_verdict, "{kind}: verdict diverged");
            assert_eq!(cur, first_cur, "{kind}: classified map diverged");
        }
    }
    let (first_virgin, rest_virgins) = virgins.split_first().unwrap();
    for (kind, virgin) in kernels.iter().skip(1).zip(rest_virgins) {
        assert_eq!(
            virgin, first_virgin,
            "{kind}: virgin map diverged after the full replay"
        );
    }
}
