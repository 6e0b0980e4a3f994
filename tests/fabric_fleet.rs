//! End-to-end tests for the distributed campaign fabric: real child
//! processes, the binary wire protocol over pipes, supervised restarts,
//! and the single merged fleet telemetry stream.
//!
//! These spawn the `fabric_worker` binary (`src/bin/fabric_worker.rs`)
//! via `CARGO_BIN_EXE_`, so they exercise the full process boundary —
//! frame encode/decode on both sides, pipe backpressure, and exit-status
//! supervision — not an in-process simulation of it.

use std::collections::HashSet;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use bigmap::fuzzer::{parse_jsonl, run_fleet, FleetConfig, InstanceHealth};

const WORKER: &str = env!("CARGO_BIN_EXE_fabric_worker");

fn base_args(execs: u64) -> Vec<String> {
    vec![
        "--benchmark".into(),
        "gvn".into(),
        "--execs".into(),
        execs.to_string(),
        "--sync-every".into(),
        "250".into(),
        "--map-size".into(),
        "m2".into(),
    ]
}

/// Two clean workers: both complete, per-worker stats come back over the
/// wire, and the fleet telemetry is one merged stream covering both
/// nodes plus a fleet-total summary line.
#[test]
fn two_worker_fleet_completes_and_merges_telemetry() {
    let dir = tempdir("fabric-clean");
    let jsonl = dir.join("fleet.jsonl");
    let config = FleetConfig {
        workers: 2,
        max_restarts: 0,
        backoff: Duration::from_millis(10),
        fleet_jsonl: Some(jsonl.clone()),
        liveness_deadline: None,
    };
    let args = base_args(4_000);
    let stats = run_fleet(&config, |_| {
        let mut cmd = Command::new(WORKER);
        cmd.args(&args);
        cmd
    })
    .expect("fleet failed to launch");

    assert_eq!(stats.stats.instances.len(), 2);
    for (i, health) in stats.stats.health.iter().enumerate() {
        assert_eq!(*health, InstanceHealth::Running, "worker {i}: {health:?}");
    }
    for (i, instance) in stats.stats.instances.iter().enumerate() {
        assert_eq!(instance.execs, 4_000, "worker {i} budget mismatch");
    }
    assert_eq!(stats.stats.total_execs(), 8_000);
    assert_eq!(stats.nodes, 2);

    // The merged stream: snapshots from both nodes, one summary line.
    let text = std::fs::read_to_string(&jsonl).expect("fleet jsonl written");
    let snapshots = parse_jsonl(&text).expect("fleet jsonl parses");
    assert!(!snapshots.is_empty());
    let nodes: HashSet<usize> = snapshots.iter().map(|s| s.node).collect();
    assert_eq!(nodes, HashSet::from([0, 1]), "stream missing a node");
    assert_eq!(
        text.matches("\"fleet_total\":1").count(),
        1,
        "expected exactly one fleet summary line"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Node-loss recovery: worker 1 panics at its third sync boundary
/// (single-shot via a sentinel file, so the respawn runs clean). The
/// fleet must restart it, resume from its checkpoint, and still end with
/// every worker's results in one merged telemetry stream.
#[test]
fn killed_worker_is_respawned_and_fleet_recovers() {
    let dir = tempdir("fabric-kill");
    let jsonl = dir.join("fleet.jsonl");
    let sentinel = dir.join("panic-once");
    let config = FleetConfig {
        workers: 2,
        max_restarts: 2,
        backoff: Duration::from_millis(10),
        fleet_jsonl: Some(jsonl.clone()),
        liveness_deadline: None,
    };
    let args = base_args(4_000);
    let stats = run_fleet(&config, |index| {
        let mut cmd = Command::new(WORKER);
        cmd.args(&args);
        let checkpoints = dir.join(format!("ckpt-{index}"));
        cmd.arg("--checkpoint-dir").arg(&checkpoints);
        if index == 1 {
            cmd.arg("--panic-once").arg(&sentinel);
        }
        cmd
    })
    .expect("fleet failed to launch");

    assert!(sentinel.exists(), "the injected panic never armed");
    assert_eq!(stats.stats.health[0], InstanceHealth::Running);
    assert!(
        matches!(stats.stats.health[1], InstanceHealth::Restarted(n) if n >= 1),
        "worker 1 should have died and been respawned: {:?}",
        stats.stats.health[1]
    );
    // The respawned worker still completes its budget (resuming from its
    // checkpoint, not double-counting) and the survivor is untouched.
    assert_eq!(stats.stats.instances[0].execs, 4_000);
    assert_eq!(stats.stats.instances[1].execs, 4_000);

    // One merged stream, both nodes present despite the mid-run death.
    let text = std::fs::read_to_string(&jsonl).expect("fleet jsonl written");
    let snapshots = parse_jsonl(&text).expect("fleet jsonl parses");
    let nodes: HashSet<usize> = snapshots.iter().map(|s| s.node).collect();
    assert_eq!(nodes, HashSet::from([0, 1]));
    assert_eq!(text.matches("\"fleet_total\":1").count(), 1);

    std::fs::remove_dir_all(&dir).ok();
}

/// A worker whose restart budget runs out is reported dead with default
/// stats, and the rest of the fleet still completes.
#[test]
fn worker_that_keeps_dying_is_declared_dead() {
    let dir = tempdir("fabric-dead");
    let config = FleetConfig {
        workers: 2,
        max_restarts: 1,
        backoff: Duration::from_millis(10),
        fleet_jsonl: None,
        liveness_deadline: None,
    };
    let args = base_args(2_000);
    let stats = run_fleet(&config, |index| {
        if index == 1 {
            // A command that dies instantly without ever speaking the
            // protocol.
            let mut cmd = Command::new(WORKER);
            cmd.arg("--unknown-flag-kills-me");
            cmd
        } else {
            let mut cmd = Command::new(WORKER);
            cmd.args(&args);
            cmd
        }
    })
    .expect("fleet failed to launch");

    assert_eq!(stats.stats.health[0], InstanceHealth::Running);
    assert!(
        matches!(stats.stats.health[1], InstanceHealth::Dead(_)),
        "unexpected health: {:?}",
        stats.stats.health[1]
    );
    assert_eq!(stats.stats.instances[0].execs, 2_000);
    assert_eq!(
        stats.stats.instances[1].execs, 0,
        "dead worker has zero stats"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A worker binary that cannot be spawned burns restart budget like any
/// abnormal exit: one initial attempt plus `max_restarts` respawns, then
/// `Dead` — and the fleet itself still returns `Ok`.
#[test]
fn unspawnable_worker_uses_its_restart_budget_then_dies() {
    let attempts = AtomicUsize::new(0);
    let config = FleetConfig {
        workers: 1,
        max_restarts: 2,
        backoff: Duration::from_millis(1),
        fleet_jsonl: None,
        liveness_deadline: None,
    };
    let stats = run_fleet(&config, |_| {
        attempts.fetch_add(1, Ordering::Relaxed);
        Command::new("/nonexistent/bigmap-fabric-worker")
    })
    .expect("spawn failures are reported per worker, not as a fleet error");

    assert_eq!(attempts.load(Ordering::Relaxed), 3);
    match &stats.stats.health[0] {
        InstanceHealth::Dead(msg) => assert!(msg.contains("spawn failed"), "got: {msg}"),
        other => panic!("expected a dead worker, got {other:?}"),
    }
    assert_eq!(stats.stats.instances[0].execs, 0);
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bigmap-{tag}-{}", std::process::id(),));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}
