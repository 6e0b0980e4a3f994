//! The campaign keeps one time ledger: `CampaignStats::ops` tiles the
//! fuzzing loop's wall time exactly, and the telemetry stage clocks are its
//! projection, not a second, independently timed record.

use std::sync::Arc;
use std::time::Duration;

use bigmap::prelude::*;

/// The `OpKind` spans each telemetry stage sums, written out here rather
/// than read from the library so the test pins the mapping.
fn projection(ops: &OpStats, stage: Stage) -> Duration {
    let kinds: &[OpKind] = match stage {
        Stage::TargetExec => &[OpKind::Execution],
        Stage::MapOps => &[
            OpKind::Reset,
            OpKind::Classify,
            OpKind::Compare,
            OpKind::Hash,
        ],
        Stage::Deterministic => &[OpKind::Deterministic],
        Stage::Havoc => &[OpKind::Other],
    };
    kinds.iter().map(|&k| ops.get(k)).sum()
}

fn stage_sum(snap: &TelemetrySnapshot) -> Duration {
    Stage::ALL.iter().map(|&s| snap.stage_time(s)).sum()
}

/// Runs a fresh, exec-budgeted libpng campaign with telemetry attached and
/// checks the one-record property on its result. With `sync_every`, a sync
/// hook also checks that the stage clocks were brought up to date before
/// it ran: they grew since the previous hook and never run ahead of the
/// loop's wall clock.
fn run_and_check(
    config: CampaignConfig,
    sync_every: Option<u64>,
) -> (CampaignStats, TelemetrySnapshot) {
    let spec = BenchmarkSpec::by_name("libpng").unwrap();
    let program = spec.build(0.05);
    let seeds = spec.build_seeds(&program, 4);
    let instrumentation = Instrumentation::assign(
        program.block_count(),
        program.call_sites,
        config.map_size,
        9,
    );
    let interpreter = Interpreter::new(&program);
    let mut campaign = Campaign::new(config, &interpreter, &instrumentation);
    campaign.set_telemetry(Arc::new(Telemetry::new(0)));
    // Seed dry runs happen before the loop's clock starts: not lapped.
    campaign.add_seeds(seeds);
    let stats = match sync_every {
        None => campaign.run(),
        Some(every) => {
            let mut hooks = 0;
            let mut last = Duration::ZERO;
            let stats = campaign.run_with_hook(every, |c| {
                let now = stage_sum(&c.telemetry().unwrap().snapshot());
                assert!(now > last, "stages not stored before the hook");
                assert!(now <= c.wall_so_far());
                last = now;
                hooks += 1;
            });
            assert!(hooks > 1, "hook fired {hooks} times");
            stats
        }
    };

    assert_eq!(
        stats.ops.total(),
        stats.wall_time,
        "the ledger must sum to the loop's wall time: {}",
        stats.ops
    );
    let snap = stats.telemetry.clone().expect("telemetry attached");
    for stage in Stage::ALL {
        assert_eq!(
            snap.stage_time(stage),
            projection(&stats.ops, stage),
            "{stage:?} is not the ledger's projection"
        );
    }
    (stats, snap)
}

fn config(merged: bool, deterministic: bool) -> CampaignConfig {
    CampaignConfig::builder()
        .scheme(MapScheme::TwoLevel)
        .map_size(MapSize::M2)
        .budget_execs(3_000)
        .merged_classify_compare(merged)
        .deterministic(deterministic)
        .seed(11)
        .build()
}

#[test]
fn merged_pipeline_ledger_tiles_the_loop_and_projects_onto_stages() {
    let (stats, snap) = run_and_check(config(true, true), Some(500));
    assert!(snap.stage_time(Stage::Deterministic) > Duration::ZERO);
    assert!(stats.ops.get(OpKind::Compare) > Duration::ZERO);
    // The merged §IV-E pass is one span, accounted to Compare.
    assert_eq!(stats.ops.get(OpKind::Classify), Duration::ZERO);
}

#[test]
fn split_pipeline_ledger_tiles_the_loop_and_projects_onto_stages() {
    let (stats, snap) = run_and_check(config(false, true), None);
    assert!(snap.stage_time(Stage::Deterministic) > Duration::ZERO);
    assert!(stats.ops.get(OpKind::Classify) > Duration::ZERO);
    assert!(stats.ops.get(OpKind::Compare) > Duration::ZERO);
}

#[test]
fn havoc_only_ledger_has_no_deterministic_span() {
    let (stats, snap) = run_and_check(config(true, false), Some(500));
    assert_eq!(stats.ops.get(OpKind::Deterministic), Duration::ZERO);
    assert_eq!(snap.stage_time(Stage::Deterministic), Duration::ZERO);
    assert!(snap.stage_time(Stage::Havoc) > Duration::ZERO);
}

#[test]
fn selective_tracing_fast_path_is_lapped_too() {
    let mut config = config(true, true);
    config.trace = Some(TraceMode::Selective);
    let (_, snap) = run_and_check(config, None);
    assert!(
        snap.get(TelemetryEvent::FastPathExec) > 0,
        "no fast-path exec ran"
    );
}
