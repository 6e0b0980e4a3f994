//! The `fleet-2x` workload: a supervised master–secondary fleet of two
//! instances sharing one in-process corpus hub, checkpointing into a
//! scratch directory at the resilient cadence.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use bigmap_core::AllocBackend;
use bigmap_fuzzer::{
    run_supervised, Campaign, CampaignStats, CheckpointManager, InstanceHealth, ParallelStats,
    SupervisorConfig, SyncHub, TelemetryEvent, TelemetryRegistry,
};
use bigmap_target::Interpreter;

use crate::json::Obj;
use crate::spans::Samples;
use crate::traced::{self, Metrics, SetupTimes};
use crate::workload::{self, Tally, Target, Workload, FLEET_SYNC_EVERY};

/// The supervisor policy: `SupervisorConfig::resilient` (1000-exec
/// checkpoint cadence, 250 ms floor) writing under `root`.
fn supervisor(root: &Path) -> SupervisorConfig {
    SupervisorConfig {
        checkpoint_root: Some(root.to_path_buf()),
        ..SupervisorConfig::resilient()
    }
}

/// Per-instance configuration exactly as `run_supervised` derives it.
fn instance_config(
    workload: &Workload,
    seed: u64,
    instance: usize,
) -> bigmap_fuzzer::CampaignConfig {
    let mut config = workload.config(seed);
    config.seed = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(instance as u64 + 1);
    config.deterministic = instance == 0 && config.deterministic;
    config
}

fn fresh_dir(scratch: &Path, tag: &str) -> PathBuf {
    let dir = scratch.join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Fuzzing-loop execs per second summed over the instances, each
/// instance's loop execs (seed dry runs excluded) over its own loop wall
/// time, so an instance that finishes early does not count idle time.
fn aggregate_rate(instances: &[CampaignStats], seeds: usize) -> f64 {
    instances
        .iter()
        .map(|s| workload::loop_rate(s, seeds))
        .sum()
}

/// Instance health, then each instance's newest checkpoint: it must be
/// the live generation, pass its checksums, and restore into a fresh
/// campaign that reproduces its queue and exec count.
fn check_fleet(
    tally: &mut Tally,
    workload: &Workload,
    seed: u64,
    target: &Target,
    stats: &ParallelStats,
    root: &Path,
) {
    let interpreter = Interpreter::new(&target.program);
    for (i, (health, instance)) in stats.health.iter().zip(&stats.instances).enumerate() {
        tally.op(
            &format!("instance{i}.health"),
            *health == InstanceHealth::Running,
            || format!("{health:?}"),
        );
        let dir = root.join(format!("instance-{i:02}"));
        let loaded = CheckpointManager::load_with_report(&dir, None);
        let ok = match &loaded {
            Ok(Some((ckpt, report))) if report.generation == 0 && report.skipped.is_empty() => {
                let mut campaign = Campaign::new(
                    instance_config(workload, seed, i),
                    &interpreter,
                    &target.instrumentation,
                );
                campaign.restore(ckpt);
                ckpt.execs > 0
                    && ckpt.execs <= instance.execs
                    && campaign.execs() == ckpt.execs
                    && campaign.queue().len() == ckpt.queue.len()
            }
            _ => false,
        };
        tally.op(
            &format!("instance{i}.checkpoint_verifies"),
            ok,
            || match &loaded {
                Ok(Some((_, report))) => format!("{report:?}"),
                Ok(None) => "no checkpoint written".into(),
                Err(e) => format!("load failed: {e}"),
            },
        );
    }
}

/// Runs the untraced supervised fleet. Returns the stats, the set-up
/// time (target build plus everything outside the slowest instance's
/// fuzzing loop) and the checkpoint root.
fn untraced_fleet(
    workload: &Workload,
    seed: u64,
    target: &Target,
    root: &Path,
    start: Instant,
) -> (ParallelStats, Duration) {
    let config = workload.config(seed);
    let call = Instant::now();
    let stats = run_supervised(
        &target.program,
        &target.instrumentation,
        &config,
        &target.seeds,
        workload.instances,
        FLEET_SYNC_EVERY,
        &supervisor(root),
        None,
    );
    let in_call = call.elapsed();
    let slowest = stats
        .instances
        .iter()
        .map(|s| s.wall_time)
        .max()
        .unwrap_or_default();
    let setup = (call - start) + in_call.saturating_sub(slowest);
    (stats, setup)
}

/// One untraced fleet repetition.
pub fn rep(workload: &Workload, seed: u64, scratch: &Path) -> String {
    let mut tally = Tally::default();
    let start = Instant::now();
    let target = Target::build(workload);
    let root = fresh_dir(scratch, "fleet");
    let (stats, setup) = untraced_fleet(workload, seed, &target, &root, start);
    let peak_rss = workload::peak_rss_mib();
    tally.op("fleet", stats.all_completed(), || {
        format!("{:?}", stats.health)
    });
    check_fleet(&mut tally, workload, seed, &target, &stats, &root);
    let _ = std::fs::remove_dir_all(&root);

    let master = &stats.instances[0];
    let record = Obj::new()
        .str("workload", workload.name)
        .int("seed", seed)
        .num("setup_s", setup.as_secs_f64())
        .num(
            "fuzz_s",
            stats
                .instances
                .iter()
                .map(|s| s.wall_time)
                .max()
                .unwrap_or_default()
                .as_secs_f64(),
        )
        .int("execs", stats.total_execs())
        .num(
            "execs_per_s",
            aggregate_rate(&stats.instances, target.seeds.len()),
        )
        .int("coverage", master.discovered_slots as u64)
        .num("peak_rss_mib", peak_rss)
        .str("fingerprint", "")
        .obj("policies", workload::policies());
    tally.json(record).finish()
}

/// Sync and checkpoint spans of one traced fleet instance.
#[derive(Default)]
pub struct SyncSpans {
    fetch: Samples,
    import: Samples,
    publish: Samples,
    write: Samples,
    imports: u64,
    accepted: u64,
    published: u64,
    write_errors: u64,
    bytes: Vec<u64>,
}

impl SyncSpans {
    fn merge(&mut self, other: SyncSpans) {
        self.fetch.extend(&other.fetch);
        self.import.extend(&other.import);
        self.publish.extend(&other.publish);
        self.write.extend(&other.write);
        self.imports += other.imports;
        self.accepted += other.accepted;
        self.published += other.published;
        self.write_errors += other.write_errors;
        self.bytes.extend(other.bytes);
    }
}

/// The sync and checkpoint layers. `None` reports every metric as 0: the
/// layer is not exercised by this workload.
pub fn sync_checkpoint_metrics(m: &mut Metrics, s: Option<&SyncSpans>) {
    let median = |x: &Samples| x.summary().map(|s| s.median);
    m.put("sync.publish_ns", "ns", s.and_then(|s| median(&s.publish)));
    m.put("sync.fetch_ns", "ns", s.and_then(|s| median(&s.fetch)));
    m.put(
        "sync.import_ns_per_input",
        "ns",
        s.map(|s| s.import.total_ns() as f64 / s.imports.max(1) as f64),
    );
    m.put(
        "sync.import_accept_ratio",
        "ratio",
        s.map(|s| s.accepted as f64 / s.imports.max(1) as f64),
    );
    let ms = |x: f64| x / 1e6;
    m.put(
        "checkpoint.write_ms",
        "ms",
        s.and_then(|s| s.write.summary().map(|x| ms(x.median))),
    );
    m.put(
        "checkpoint.write_ms.tail",
        "ms",
        s.and_then(|s| s.write.summary().map(|x| ms(x.tail))),
    );
    m.put(
        "checkpoint.bytes",
        "B",
        s.map(|s| {
            let mut b = s.bytes.clone();
            b.sort_unstable();
            b.get(b.len() / 2).copied().unwrap_or(0) as f64
        }),
    );
    m.put("checkpoint.calls", "count", s.map(|s| s.write.len() as f64));
}

/// The traced fleet: each instance is a real `Campaign` driven through
/// `run_with_hook` on the same hub, sync cadence and checkpoint policy as
/// `run_supervised`, with a span around every sync and checkpoint call.
/// The per-exec layers are not stepped here (the single-instance
/// workloads cover them); the program's telemetry is attached so the
/// sync and checkpoint counts can be cross-checked.
pub fn trace(workload: &Workload, seed: u64, scratch: &Path) -> String {
    let mut tally = Tally::default();
    let target = Target::build(workload);
    let t = Instant::now();
    drop(Interpreter::new(&target.program));
    let compile = t.elapsed();
    let root = fresh_dir(scratch, "fleet-traced");
    let hub = Arc::new(SyncHub::new());
    let registry = TelemetryRegistry::new();
    let policy = supervisor(&root);
    let setup_times: Mutex<Vec<(Duration, Duration)>> = Mutex::new(Vec::new());

    let results: Vec<(CampaignStats, SyncSpans)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workload.instances)
            .map(|instance| {
                let (hub, registry, policy, root, target, setup_times) =
                    (&hub, &registry, &policy, &root, &target, &setup_times);
                scope.spawn(move || {
                    let config = instance_config(workload, seed, instance);
                    let interpreter = Interpreter::with_config(&target.program, config.exec);
                    let t = Instant::now();
                    let mut campaign = Campaign::new(config, &interpreter, &target.instrumentation);
                    let map_alloc = t.elapsed();
                    campaign.set_telemetry(registry.register(instance));
                    let t = Instant::now();
                    campaign.add_seeds(target.seeds.clone());
                    let dryrun = t.elapsed();
                    setup_times
                        .lock()
                        .expect("setup lock")
                        .push((map_alloc, dryrun));
                    let _ = campaign.take_fresh_finds();

                    let dir = root.join(format!("instance-{instance:02}"));
                    let mut manager = CheckpointManager::new(&dir, policy.checkpoint_every)
                        .with_min_interval(policy.checkpoint_min_interval);
                    let mut spans = SyncSpans::default();
                    let mut cursor = 0u64;
                    let stats = campaign.run_with_hook(FLEET_SYNC_EVERY, |c| {
                        let t = Instant::now();
                        let fetched = hub
                            .fetch_since(&mut cursor, instance)
                            .expect("local sync cursor cannot overrun");
                        spans.fetch.push(t.elapsed());
                        for input in fetched {
                            let before = c.queue().len();
                            let t = Instant::now();
                            c.import(&input);
                            spans.import.push(t.elapsed());
                            spans.imports += 1;
                            spans.accepted += u64::from(c.queue().len() > before);
                        }
                        let t = Instant::now();
                        let finds = c.take_fresh_finds();
                        spans.published += finds.len() as u64;
                        hub.publish(instance, finds);
                        spans.publish.push(t.elapsed());
                        let t = Instant::now();
                        match manager.maybe_checkpoint(c) {
                            Ok(true) => {
                                spans.write.push(t.elapsed());
                                let file = dir.join(bigmap_fuzzer::checkpoint::CHECKPOINT_FILE);
                                spans
                                    .bytes
                                    .push(std::fs::metadata(file).map_or(0, |m| m.len()));
                            }
                            Ok(false) => {}
                            Err(_) => spans.write_errors += 1,
                        }
                    });
                    (stats, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced fleet instance panicked"))
            .collect()
    });

    let mut spans = SyncSpans::default();
    let mut instances = Vec::new();
    for (i, (stats, s)) in results.into_iter().enumerate() {
        let snap = stats.telemetry.clone().expect("telemetry attached");
        tally.op(
            &format!("instance{i}.ledger.sync_imports"),
            snap.get(TelemetryEvent::SyncImport) == s.imports,
            || {
                format!(
                    "benchmark {} vs telemetry {}",
                    s.imports,
                    snap.get(TelemetryEvent::SyncImport)
                )
            },
        );
        tally.op(
            &format!("instance{i}.ledger.checkpoints"),
            snap.get(TelemetryEvent::Checkpoint) == s.write.len() as u64,
            || {
                format!(
                    "benchmark {} vs telemetry {}",
                    s.write.len(),
                    snap.get(TelemetryEvent::Checkpoint)
                )
            },
        );
        tally.attempted += s.write.len() as u64 + s.write_errors;
        tally.failed += s.write_errors;
        if s.write_errors > 0 {
            tally.failures.push(format!(
                "instance{i}: {} checkpoint write errors",
                s.write_errors
            ));
        }
        spans.merge(s);
        instances.push(stats);
    }
    let _ = std::fs::remove_dir_all(&root);
    let seeds = target.seeds.len();
    let traced_rate = aggregate_rate(&instances, seeds);

    // Untraced reference for the overhead share.
    let ref_root = fresh_dir(scratch, "fleet-ref");
    let (untraced, _) = untraced_fleet(workload, seed, &target, &ref_root, Instant::now());
    tally.op("untraced_fleet", untraced.all_completed(), || {
        format!("{:?}", untraced.health)
    });
    let _ = std::fs::remove_dir_all(&ref_root);
    let untraced_rate = aggregate_rate(&untraced.instances, seeds);

    // Instances set up concurrently; the slower one gates the fleet.
    let times = setup_times.into_inner().expect("setup lock");
    let master = instances[0].telemetry.as_ref().expect("telemetry attached");
    let backend = [
        (TelemetryEvent::AllocPlain, AllocBackend::Plain),
        (TelemetryEvent::AllocThp, AllocBackend::Thp),
        (
            TelemetryEvent::AllocExplicitHuge,
            AllocBackend::ExplicitHuge,
        ),
    ]
    .into_iter()
    .find(|&(event, _)| master.get(event) > 0)
    .map(|(_, backend)| (backend, master.get(TelemetryEvent::AllocFallback) > 0));
    let setup = SetupTimes {
        program: target.program_time,
        instrument: target.instrument_time,
        compile,
        map_alloc: times.iter().map(|t| t.0).max().unwrap_or_default(),
        seed_dryrun: times.iter().map(|t| t.1).max().unwrap_or_default(),
        alloc: backend,
    };

    let mut m = Metrics::default();
    traced::exec_layer_metrics(&mut m, None);
    traced::setup_metrics(&mut m, &setup);
    sync_checkpoint_metrics(&mut m, Some(&spans));
    // Per exec of one instance thread: each instance's loop wall time is
    // busy time of its own thread, like the spans recorded on it.
    let traced_ns = (spans.fetch.total_ns()
        + spans.import.total_ns()
        + spans.publish.total_ns()
        + spans.write.total_ns()) as f64;
    let loop_execs: u64 = instances.iter().map(|s| s.execs - seeds as u64).sum();
    let untraced_ns_per_exec = untraced
        .instances
        .iter()
        .map(|s| s.wall_time.as_nanos() as f64)
        .sum::<f64>()
        / untraced
            .total_execs()
            .saturating_sub((seeds * untraced.instances.len()) as u64) as f64;
    m.put(
        "campaign.glue_ns_per_exec",
        "ns",
        Some(untraced_ns_per_exec - traced_ns / loop_execs as f64),
    );
    m.put(
        "trace.overhead_share",
        "ratio",
        Some(1.0 - traced_rate / untraced_rate),
    );
    for name in [
        "ledger.opstats.execution_share",
        "ledger.opstats.map_share",
        "ledger.opstats.other_share",
    ] {
        m.put(name, "ratio", None);
    }

    eprintln!(
        "[{}] traced sync/checkpoint: {} fetches, {} imports ({} accepted), {} published, \
         {} checkpoints ({} write errors); execs/s traced {traced_rate:.0} vs untraced \
         {untraced_rate:.0}",
        workload.name,
        spans.fetch.len(),
        spans.imports,
        spans.accepted,
        spans.published,
        spans.write.len(),
        spans.write_errors,
    );
    let valid = tally.failed == 0;
    let record = Obj::new()
        .str("workload", workload.name)
        .int("seed", seed)
        .bool("valid", valid)
        .str("fingerprint", "")
        .obj("metrics", m.json(valid))
        .obj("policies", workload::policies());
    tally.json(record).finish()
}
