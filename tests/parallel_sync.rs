//! Regression tests for the parallel sync protocol, its telemetry, and
//! the corpus hub's contract.
//!
//! Guards the sync-hub bugfixes: instances must never re-import their own
//! publications (the stale-cursor bug made every instance churn through
//! its own finds each sync period), cursors must advance monotonically,
//! and the hub must stay correct under concurrent publish/fetch traffic.
//! The hub contract the process fabric relies on — idempotent publish,
//! typed cursor errors and their recovery, restart replay — is pinned
//! here too.

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bigmap::fuzzer::{parse_jsonl, SharedBuffer, SyncHub};
use bigmap::prelude::*;

/// A thread fleet with the default (contain-only) supervision policy.
fn fleet(
    fixture: &(Program, Instrumentation, Vec<Vec<u8>>),
    config: &CampaignConfig,
    instances: usize,
    sync_every: u64,
    registry: Option<&TelemetryRegistry>,
) -> ParallelStats {
    let (program, instrumentation, seeds) = fixture;
    run_supervised(
        program,
        instrumentation,
        config,
        seeds,
        instances,
        sync_every,
        &SupervisorConfig::default(),
        registry,
    )
}

fn fleet_fixture() -> (Program, Instrumentation, Vec<Vec<u8>>) {
    let spec = BenchmarkSpec::by_name("gvn").unwrap();
    let program = spec.build(0.05);
    let seeds = spec.build_seeds(&program, 4);
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, MapSize::M2, 7);
    (program, instrumentation, seeds)
}

fn fleet_config() -> CampaignConfig {
    CampaignConfig {
        scheme: MapScheme::TwoLevel,
        map_size: MapSize::M2,
        budget: Budget::Time(Duration::from_millis(200)),
        ..Default::default()
    }
}

/// The headline regression: a single-instance "fleet" has nobody to trade
/// inputs with, so after the self-reimport fix its telemetry must show
/// zero sync imports (before the fix it re-imported every one of its own
/// finds each sync period).
#[test]
fn single_instance_fleet_never_imports_its_own_finds() {
    let registry = TelemetryRegistry::new();
    let stats = fleet(&fleet_fixture(), &fleet_config(), 1, 500, Some(&registry));
    assert!(stats.total_execs() > 0);
    let totals = registry.fleet_totals();
    assert_eq!(
        totals.get(TelemetryEvent::SyncImport),
        0,
        "a lone instance re-imported its own publications"
    );
    assert_eq!(totals.get(TelemetryEvent::ImportRejection), 0);
}

/// A two-instance fleet exercises real sync traffic: publications flow and
/// every emitted snapshot parses back from the JSONL sink.
#[test]
fn two_instance_fleet_syncs_and_snapshots_parse() {
    let buffer = SharedBuffer::new();
    let sink = JsonlSink::new(Box::new(buffer.clone()));
    let registry = TelemetryRegistry::with_sink(sink);
    let stats = fleet(&fleet_fixture(), &fleet_config(), 2, 500, Some(&registry));
    assert!(stats.total_execs() > 0);
    let totals = registry.fleet_totals();
    assert!(
        totals.get(TelemetryEvent::SyncPublish) > 0,
        "two busy instances published nothing"
    );

    let text = buffer.contents();
    let snapshots = parse_jsonl(&text).expect("sink emitted malformed JSONL");
    assert!(!snapshots.is_empty());
    let instances: HashSet<usize> = snapshots.iter().map(|s| s.instance).collect();
    assert_eq!(instances, HashSet::from([0, 1]));
}

/// `fetch_since` always advances the cursor to the corpus length — never
/// backwards — so repeated sync rounds see each entry exactly once.
#[test]
fn hub_cursors_are_monotone_and_exactly_once() {
    let hub = SyncHub::new();
    let mut cursor = 0u64;
    let mut seen = Vec::new();
    for round in 0u8..5 {
        hub.publish(1, vec![vec![round], vec![round, round]]);
        let before = cursor;
        let fetched = hub.fetch_since(&mut cursor, 0).expect("valid cursor");
        assert!(cursor >= before, "cursor moved backwards");
        assert_eq!(cursor, hub.published_count());
        seen.extend(fetched.iter().map(|a| a.to_vec()));
    }
    // 5 rounds × 2 inputs, each seen exactly once and in publish order.
    let expected: Vec<Vec<u8>> = (0u8..5).flat_map(|r| [vec![r], vec![r, r]]).collect();
    assert_eq!(seen, expected);
    // Nothing new → nothing fetched, cursor stays put.
    assert!(hub
        .fetch_since(&mut cursor, 0)
        .expect("valid cursor")
        .is_empty());
    assert_eq!(cursor, hub.published_count());
}

/// Concurrent publish/fetch stress: every reader eventually sees every
/// other publisher's entries exactly once, and never one of its own.
#[test]
fn hub_stress_readers_see_others_exactly_once_and_self_never() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 64;

    let hub = Arc::new(SyncHub::new());
    let all_published = Arc::new(std::sync::Barrier::new(WRITERS));
    thread::scope(|scope| {
        let mut readers = Vec::new();
        for me in 0..WRITERS {
            let hub = Arc::clone(&hub);
            let all_published = Arc::clone(&all_published);
            readers.push(scope.spawn(move || {
                let mut cursor = 0u64;
                let mut seen: Vec<Vec<u8>> = Vec::new();
                // Interleave publishing our own tagged inputs with fetching.
                for i in 0..PER_WRITER {
                    hub.publish(me, vec![vec![me as u8, i as u8]]);
                    for input in hub.fetch_since(&mut cursor, me).expect("valid cursor") {
                        seen.push(input.to_vec());
                    }
                }
                // Wait for every writer to finish, then drain the rest.
                all_published.wait();
                for input in hub.fetch_since(&mut cursor, me).expect("valid cursor") {
                    seen.push(input.to_vec());
                }
                (me, seen)
            }));
        }
        for reader in readers {
            let (me, seen) = reader.join().unwrap();
            assert!(
                seen.iter().all(|input| input[0] != me as u8),
                "reader {me} fetched one of its own publications"
            );
            let unique: HashSet<&Vec<u8>> = seen.iter().collect();
            assert_eq!(unique.len(), seen.len(), "reader {me} saw a duplicate");
            assert_eq!(
                seen.len(),
                (WRITERS - 1) * PER_WRITER,
                "reader {me} missed entries from other writers"
            );
        }
    });
}

/// Fetches share the stored payload allocation instead of deep-copying it
/// for every reader (the per-fetch clone bug).
#[test]
fn hub_fetches_share_payload_allocations() {
    let hub = SyncHub::new();
    hub.publish(9, vec![vec![0xAB; 4096]]);
    let (mut c0, mut c1) = (0u64, 0u64);
    let a = hub.fetch_since(&mut c0, 0).expect("valid cursor");
    let b = hub.fetch_since(&mut c1, 1).expect("valid cursor");
    assert!(
        Arc::ptr_eq(&a[0], &b[0]),
        "readers received distinct copies of the same published input"
    );
}

/// A fault-free one-instance fleet is exactly a plain campaign on the
/// master's configuration: the sync hook, with nobody to trade with,
/// must not move the trajectory.
#[test]
fn single_instance_fleet_matches_a_plain_campaign() {
    let fixture = fleet_fixture();
    let config = CampaignConfig {
        budget: Budget::Execs(3_000),
        ..fleet_config()
    };
    let stats = fleet(&fixture, &config, 1, 500, None);
    assert_eq!(stats.health, vec![InstanceHealth::Running]);
    let fleet_run = &stats.instances[0];

    let (program, instrumentation, seeds) = &fixture;
    let instance = config.for_instance(0);
    let interpreter = Interpreter::with_config(program, instance.exec);
    let mut campaign = Campaign::new(instance, &interpreter, instrumentation);
    campaign.add_seeds(seeds.clone());
    let plain = campaign.run();

    assert_eq!(fleet_run.execs, plain.execs);
    assert_eq!(fleet_run.queue_len, plain.queue_len);
    assert_eq!(fleet_run.discovered_slots, plain.discovered_slots);
    assert_eq!(fleet_run.crash_buckets, plain.crash_buckets);
    assert_eq!(fleet_run.timeline.last(), plain.timeline.last());
    assert!(plain.timeline.last().is_some());
}

/// Byte-identical inputs are stored once, whoever publishes them.
#[test]
fn hub_publish_is_content_idempotent() {
    let hub = SyncHub::new();
    hub.publish(0, vec![vec![1], vec![2]]);
    hub.publish(0, vec![vec![1]]);
    hub.publish(1, vec![vec![2], vec![3]]);
    assert_eq!(hub.published_count(), 3);
    let mut cursor = 0u64;
    assert_eq!(hub.fetch_since(&mut cursor, 9).unwrap().len(), 3);
}

/// A cursor beyond the published count is a typed error that fetches
/// nothing and leaves the cursor for the caller to recover.
#[test]
fn hub_cursor_overrun_is_a_typed_error_and_moves_nothing() {
    let hub = SyncHub::new();
    hub.publish(0, vec![vec![1]]);
    let mut cursor = 5u64;
    let err = hub.fetch_since(&mut cursor, 1).unwrap_err();
    assert_eq!(
        err,
        CursorError {
            cursor: 5,
            published: 1
        }
    );
    assert!(err.to_string().contains("beyond published corpus"));
    assert_eq!(cursor, 5);
    // A reset cursor recovers the full stream.
    cursor = 0;
    assert_eq!(hub.fetch_since(&mut cursor, 1).unwrap().len(), 1);
}

/// A cursor exactly at the published count is valid and fetches nothing.
#[test]
fn hub_cursor_at_boundary_is_fine() {
    let hub = SyncHub::new();
    hub.publish(0, vec![vec![1], vec![2]]);
    let mut cursor = hub.published_count();
    assert!(hub.fetch_since(&mut cursor, 1).unwrap().is_empty());
    assert_eq!(cursor, 2);
}

/// The degenerate cursor-fault shape the fabric can hit after state
/// corruption: a nonzero cursor presented to a hub with *zero* entries.
/// The typed error must report `published: 0`, leave the cursor alone,
/// and a reset to zero (the `FRAME_CURSOR_FAULT` recovery) must fully
/// recover, including entries published after the fault.
#[test]
fn hub_cursor_fault_on_zero_entry_hub_recovers_by_reset() {
    let hub = SyncHub::new();
    let mut cursor = 1u64;
    let err = hub.fetch_since(&mut cursor, 0).unwrap_err();
    assert_eq!(
        err,
        CursorError {
            cursor: 1,
            published: 0
        }
    );
    assert_eq!(cursor, 1, "cursor must not move on error");
    cursor = 0;
    assert!(hub.fetch_since(&mut cursor, 0).unwrap().is_empty());
    hub.publish(1, vec![vec![42]]);
    assert_eq!(hub.fetch_since(&mut cursor, 0).unwrap().len(), 1);
    assert_eq!(cursor, 1);
}

/// A restarted worker republishes everything it knows. The replay must
/// be invisible: no new entries, no duplicate deliveries to readers who
/// already caught up, and a from-zero reader still sees each distinct
/// input exactly once.
#[test]
fn hub_restart_replay_of_duplicate_publishes_is_harmless() {
    let hub = SyncHub::new();
    hub.publish(0, vec![vec![1], vec![2], vec![3]]);
    let mut reader = 0u64;
    assert_eq!(hub.fetch_since(&mut reader, 1).unwrap().len(), 3);

    // Worker 0 dies and its replacement replays the same finds, plus one
    // genuinely new discovery.
    hub.publish(0, vec![vec![1], vec![2], vec![3], vec![4]]);
    assert_eq!(hub.published_count(), 4, "replay minted entries");
    let fresh = hub.fetch_since(&mut reader, 1).unwrap();
    assert_eq!(fresh.len(), 1, "caught-up reader re-delivered");
    assert_eq!(&*fresh[0], &[4][..]);

    let mut cold = 0u64;
    let all = hub.fetch_since(&mut cold, 9).unwrap();
    assert_eq!(all.len(), 4);
    let distinct: HashSet<&[u8]> = all.iter().map(|input| &**input).collect();
    assert_eq!(distinct.len(), 4, "duplicates crossed the hub");
}
