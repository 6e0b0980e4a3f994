//! Parallel fuzzing: the supervised master–secondary fleet (§V-D).
//!
//! One master instance (runs the deterministic stages first) plus N−1
//! secondaries (havoc only), each on its own OS thread with its own
//! coverage map and virgin state, periodically cross-pollinating their
//! corpora through a shared [`SyncHub`] — the paper's "output corpus is
//! periodically synchronized between these instances".
//!
//! Threads share nothing hot: each instance owns its maps, so the only
//! interaction between instances is (a) the corpus exchange, which is a
//! coarse-grained mutex touched every few thousand executions, and (b) the
//! machine's shared last-level cache — the resource whose exhaustion
//! produces the paper's Figure 9 scaling collapse for AFL.
//!
//! [`run_supervised`] is the one thread-fleet runner. Every instance runs
//! under a restart loop that catches its panic, waits out a linear
//! backoff, and relaunches it — restored from its last on-disk checkpoint
//! when a checkpoint root is configured, from the seed corpus otherwise.
//! Restart attempts are bounded; an instance that keeps dying is declared
//! [`InstanceHealth::Dead`] and the rest of the fleet carries on. With
//! [`SupervisorConfig::default`] (zero restarts, no checkpoints) a panic is
//! merely *contained*: the instance is reported dead with zeroed stats
//! instead of tearing down the whole session. The process fabric
//! ([`crate::fabric`]) shares the per-instance steps: the configuration
//! from [`CampaignConfig::for_instance`], the resume-or-seed start-up, the
//! restart loop and the fleet-wide crash union.
//!
//! ## Sync protocol
//!
//! Published inputs are tagged with their publisher's instance index and
//! stored as [`Arc<[u8]>`], so (a) a fetch is O(new entries) pointer
//! clones — payload bytes are shared across the whole fleet, never
//! deep-copied — and (b) an instance structurally **cannot** re-import its
//! own finds: [`SyncHub::fetch_since`] skips entries it published itself.
//! Each instance fetches *before* publishing at every sync point, and a
//! 1-instance fleet performs zero imports (verified by the telemetry
//! regression tests).
//!
//! ## Sync consistency across restarts
//!
//! A relaunched instance re-reads the **entire** hub (its sync cursor
//! restarts at zero) instead of trying to remember how far its dead
//! predecessor had read: the campaign's novelty filter discards
//! everything already covered, so re-importing is merely redundant work,
//! while resuming a stale cursor could silently skip other instances'
//! finds forever. In the other direction the hub's content-idempotent
//! `publish` guarantees that finds the predecessor had already shared are
//! not duplicated when the successor rediscovers them. Fault ordinals
//! and telemetry counters live in shared handles *outside* the restarted
//! campaign, so a fault scheduled at the Nth occurrence fires exactly
//! once per campaign lifetime and counters accumulate across restarts.

use std::any::Any;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bigmap_coverage::Instrumentation;
use bigmap_target::{Interpreter, Program};

use crate::campaign::{Campaign, CampaignConfig, CampaignStats};
use crate::checkpoint::CheckpointManager;
use crate::faults::{FaultPlan, InstanceFaults};
use crate::telemetry::{TelemetryEvent, TelemetryRegistry};

pub use crate::sync::SyncHub;

/// Terminal health of one fleet instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceHealth {
    /// Completed its budget without intervention.
    Running,
    /// Panicked at least once, was restarted by the supervisor, and then
    /// completed. Carries the restart count.
    Restarted(u32),
    /// Died and stayed dead (the restart budget ran out). Carries the
    /// final failure message; its slot in [`ParallelStats::instances`]
    /// holds default (all-zero) stats.
    Dead(String),
}

impl InstanceHealth {
    /// Whether the instance delivered a completed campaign (possibly
    /// after restarts).
    pub fn completed(&self) -> bool {
        !matches!(self, InstanceHealth::Dead(_))
    }
}

/// Renders a `catch_unwind` payload as text (panic messages are `&str`
/// or `String` in practice; anything else becomes a placeholder).
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Results of a parallel session.
#[derive(Debug, Clone)]
pub struct ParallelStats {
    /// Per-instance campaign statistics (index 0 is the master). An
    /// instance whose health is [`InstanceHealth::Dead`] contributes
    /// default (all-zero) stats.
    pub instances: Vec<CampaignStats>,
    /// Per-instance terminal health, index-aligned with `instances`.
    pub health: Vec<InstanceHealth>,
    /// Fleet-wide unique crashes (Crashwalk, deduplicated *across*
    /// instances).
    pub unique_crashes: usize,
}

impl ParallelStats {
    /// Assembles fleet results from per-instance outcomes, in instance
    /// order. The Crashwalk bucket hash of a (stack, site) pair is
    /// instance-independent, so the union of per-instance bucket sets is
    /// the exact fleet-wide unique crash count.
    pub(crate) fn from_results(results: Vec<(CampaignStats, InstanceHealth)>) -> Self {
        let unique_crashes = results
            .iter()
            .flat_map(|(s, _)| s.crash_buckets.iter().copied())
            .collect::<HashSet<u32>>()
            .len();
        let (instances, health) = results.into_iter().unzip();
        ParallelStats {
            instances,
            health,
            unique_crashes,
        }
    }

    /// Total test cases generated by the fleet (the Figure 9b numerator).
    pub fn total_execs(&self) -> u64 {
        self.instances.iter().map(|s| s.execs).sum()
    }

    /// Whether every instance delivered a completed campaign (restarted
    /// instances count as completed; dead ones don't).
    pub fn all_completed(&self) -> bool {
        self.health.iter().all(InstanceHealth::completed)
    }

    /// Fleet throughput: total execs / wall-time of the slowest instance.
    pub fn throughput(&self) -> f64 {
        let wall = self
            .instances
            .iter()
            .map(|s| s.wall_time)
            .max()
            .unwrap_or_default()
            .as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            self.total_execs() as f64 / wall
        }
    }
}

/// Supervision policy for a fleet. The default — no restarts, no
/// checkpoints — contains a panicking instance without recovering it.
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// Restarts allowed per instance before it is declared dead.
    pub max_restarts: u32,
    /// Base delay before a relaunch; attempt N waits `backoff * N`
    /// (linear backoff keeps a crash-looping instance from burning CPU).
    pub backoff: Duration,
    /// Checkpoint cadence in executions (checked at sync boundaries).
    /// Ignored without a `checkpoint_root`.
    pub checkpoint_every: u64,
    /// Root directory for checkpoints; each instance writes into
    /// `instance-NN/` below it. `None` disables checkpointing — restarts
    /// then begin again from the seed corpus.
    pub checkpoint_root: Option<PathBuf>,
    /// Wall-clock floor between snapshots (see
    /// [`CheckpointManager::with_min_interval`]): bounds the write rate
    /// on fast instances where the exec cadence alone would checkpoint
    /// hundreds of times per second. Zero = pure exec cadence.
    pub checkpoint_min_interval: Duration,
    /// Deterministic fault schedule applied to every instance.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl SupervisorConfig {
    /// A forgiving default policy: 3 restarts, 25 ms base backoff,
    /// checkpoint every 1000 executions but at most every 250 ms (once a
    /// root is set).
    pub fn resilient() -> Self {
        SupervisorConfig {
            max_restarts: 3,
            backoff: Duration::from_millis(25),
            checkpoint_every: 1_000,
            checkpoint_root: None,
            checkpoint_min_interval: Duration::from_millis(250),
            fault_plan: None,
        }
    }
}

/// The restart loop both supervisors run: repeats `attempt` until it
/// completes or fails more than `max_restarts` times, sleeping
/// `backoff * n` before the nth relaunch. A dead instance reports the
/// last failure message and default stats.
pub(crate) fn supervise(
    max_restarts: u32,
    backoff: Duration,
    mut attempt: impl FnMut() -> Result<CampaignStats, String>,
) -> (CampaignStats, InstanceHealth) {
    let mut restarts = 0u32;
    loop {
        match attempt() {
            Ok(stats) if restarts == 0 => return (stats, InstanceHealth::Running),
            Ok(stats) => return (stats, InstanceHealth::Restarted(restarts)),
            Err(msg) => {
                restarts += 1;
                if restarts > max_restarts {
                    return (CampaignStats::default(), InstanceHealth::Dead(msg));
                }
                thread::sleep(backoff * restarts);
            }
        }
    }
}

/// Instance start-up shared by thread instances and fabric workers:
/// resume from the newest intact generation in `checkpoint_dir`, or else
/// seed from the shared corpus. A directory with no intact generation is
/// a cold start, not a death loop. The seed corpus is common knowledge
/// across the fleet, so its finds are drained un-published — publishing
/// them would only make the others re-execute inputs they already have.
pub(crate) fn resume_or_seed(
    campaign: &mut Campaign<'_>,
    checkpoint_dir: Option<&Path>,
    seeds: &[Vec<u8>],
) {
    let resumed = checkpoint_dir.is_some_and(|dir| campaign.resume_from(dir).unwrap_or(false));
    if !resumed {
        campaign.add_seeds(seeds.to_vec());
        let _ = campaign.take_fresh_finds();
    }
}

/// Runs `instances` concurrent campaigns in the master–secondary
/// configuration over one target, each relaunched after a panic according
/// to `supervisor`.
///
/// Instance `i` runs [`CampaignConfig::for_instance`]`(i)` of
/// `base_config`; all instances fuzz the same program with the same
/// instrumentation (the paper pins each to a core; we let the OS
/// schedule the threads, after `BIGMAP_NUMA` placement). Per-instance
/// health lands in [`ParallelStats::health`]: `Running` (no
/// intervention), `Restarted(n)`, or `Dead(panic message)`.
///
/// With a `registry`, each instance registers a
/// [`Telemetry`](crate::telemetry::Telemetry) handle under its index,
/// counts every pipeline event and sync exchange, and emits a
/// [`TelemetrySnapshot`](crate::TelemetrySnapshot) to the registry's sink
/// at every sync boundary plus once at campaign end. A restarted instance
/// keeps its telemetry handle and fault ordinals (they live outside the
/// campaign), so counters accumulate across the whole supervised lifetime
/// and fault schedules do not replay.
///
/// # Panics
///
/// Panics if `instances == 0` or `seeds` is empty.
#[allow(clippy::too_many_arguments)]
pub fn run_supervised(
    program: &Program,
    instrumentation: &Instrumentation,
    base_config: &CampaignConfig,
    seeds: &[Vec<u8>],
    instances: usize,
    sync_every: u64,
    supervisor: &SupervisorConfig,
    registry: Option<&TelemetryRegistry>,
) -> ParallelStats {
    assert!(instances > 0, "need at least one instance");
    assert!(!seeds.is_empty(), "need a seed corpus");

    let hub = SyncHub::new();
    let results = thread::scope(|scope| {
        let mut handles = Vec::with_capacity(instances);
        for instance in 0..instances {
            let hub = &hub;
            let config = base_config.for_instance(instance);
            let telemetry = registry.map(|r| r.register(instance));
            let faults = supervisor
                .fault_plan
                .as_ref()
                .map(|plan| Arc::new(InstanceFaults::new(Arc::clone(plan), instance)));
            let checkpoint_dir = supervisor
                .checkpoint_root
                .as_ref()
                .map(|root| root.join(format!("instance-{instance:02}")));

            handles.push(scope.spawn(move || {
                // NUMA placement first, allocation second: pinning the
                // worker thread to its node before the campaign builds its
                // maps makes first-touch put every map page on the node
                // that will hammer it (BIGMAP_NUMA; a recorded no-op on
                // single-node hosts and refused syscalls).
                bigmap_core::alloc::apply_worker_numa(instance);
                supervise(supervisor.max_restarts, supervisor.backoff, || {
                    // Everything built here dies with the attempt, so
                    // unwind safety is real, not just asserted.
                    catch_unwind(AssertUnwindSafe(|| {
                        let interpreter = Interpreter::with_config(program, config.exec);
                        let mut campaign =
                            Campaign::new(config.clone(), &interpreter, instrumentation);
                        if let Some(tel) = &telemetry {
                            campaign.set_telemetry(Arc::clone(tel));
                        }
                        if let Some(faults) = &faults {
                            campaign.set_faults(Arc::clone(faults));
                        }
                        let mut manager = checkpoint_dir.as_ref().map(|dir| {
                            CheckpointManager::new(dir, supervisor.checkpoint_every)
                                .with_min_interval(supervisor.checkpoint_min_interval)
                        });
                        resume_or_seed(&mut campaign, checkpoint_dir.as_deref(), seeds);

                        // The cursor restarts at zero on every attempt —
                        // see the module docs. It lives and dies with this
                        // attempt, so an overrun is impossible.
                        let mut cursor = 0u64;
                        let stats = campaign.run_with_hook(sync_every, |c| {
                            // Fetch first, publish second: the publisher
                            // filter makes the order a performance nicety,
                            // but it keeps the cursor arithmetic trivially
                            // monotone.
                            let fetched = hub
                                .fetch_since(&mut cursor, instance)
                                .expect("local sync cursor cannot overrun");
                            for input in fetched {
                                c.import(&input);
                            }
                            let finds = c.take_fresh_finds();
                            if let Some(tel) = &telemetry {
                                tel.add(TelemetryEvent::SyncPublish, finds.len() as u64);
                                // Snapshot at the sync boundary — the only
                                // place the fleet pays sink I/O.
                                if let Some(registry) = registry {
                                    registry.emit(tel);
                                }
                            }
                            hub.publish(instance, finds);
                            if let Some(manager) = &mut manager {
                                // A failed write (injected or real) degrades
                                // one checkpoint, never the campaign: the
                                // previous generation is still intact.
                                let _ = manager.maybe_checkpoint(c);
                            }
                        });
                        if let (Some(registry), Some(tel)) = (registry, &telemetry) {
                            registry.emit(tel);
                        }
                        stats
                    }))
                    .map_err(panic_message)
                })
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("supervisor thread must not panic"))
            .collect()
    });
    ParallelStats::from_results(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Budget;
    use crate::faults::FaultSite;
    use bigmap_core::{MapScheme, MapSize};
    use bigmap_target::GeneratorConfig;

    fn setup() -> (Program, Instrumentation) {
        let program = GeneratorConfig {
            seed: 19,
            functions: 6,
            gates_per_function: 10,
            crash_sites: 2,
            crash_guard_width: 2,
            ..Default::default()
        }
        .generate();
        let inst =
            Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 3);
        (program, inst)
    }

    fn config(execs: u64) -> CampaignConfig {
        CampaignConfig {
            scheme: MapScheme::TwoLevel,
            map_size: MapSize::K64,
            budget: Budget::Execs(execs),
            mutations_per_seed: 32,
            ..Default::default()
        }
    }

    /// An unsupervised fleet of `instances` over the 24-zero-byte seed.
    fn fleet(execs: u64, instances: usize, sync_every: u64) -> ParallelStats {
        let (program, inst) = setup();
        run_supervised(
            &program,
            &inst,
            &config(execs),
            &[vec![0u8; 24]],
            instances,
            sync_every,
            &SupervisorConfig::default(),
            None,
        )
    }

    fn tmp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bigmap-sup-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    // The hub contract tests live in `crate::sync` and the root
    // `tests/parallel_sync.rs`; the unsupervised panic-containment test is
    // `tests/fault_tolerance.rs::unsupervised_fleet_contains_a_dead_instance`.

    #[test]
    fn four_instances_generate_four_fold_tests() {
        let stats = fleet(800, 4, 400);
        assert_eq!(stats.instances.len(), 4);
        // Sync imports count as executions, so a hook that fires exactly
        // on the budget boundary can nudge an instance a few execs past
        // it; the fleet delivers at least its nominal volume.
        assert!(stats.total_execs() >= 4 * 800);
        for s in &stats.instances {
            assert!(s.execs >= 800 && s.execs < 900);
        }
        assert!(stats.throughput() > 0.0);
    }

    #[test]
    fn instances_are_decorrelated() {
        let stats = fleet(1_000, 2, 300);
        // Different RNG streams → (almost surely) different queue growth.
        let q0 = stats.instances[0].queue_len;
        let q1 = stats.instances[1].queue_len;
        assert!(q0 > 1 && q1 > 1);
    }

    #[test]
    fn healthy_fleet_reports_running() {
        let (program, inst) = setup();
        let stats = run_supervised(
            &program,
            &inst,
            &config(800),
            &[vec![0u8; 24]],
            2,
            400,
            &SupervisorConfig::resilient(),
            None,
        );
        assert_eq!(stats.health, vec![InstanceHealth::Running; 2]);
        assert!(stats.all_completed());
        for s in &stats.instances {
            assert!(s.execs >= 800);
        }
    }

    #[test]
    fn injected_panic_is_restarted_and_completes() {
        let (program, inst) = setup();
        let root = tmp_root("restart");
        let plan = Arc::new(FaultPlan::new().inject(FaultSite::WorkerPanic, 1, 1));
        let supervisor = SupervisorConfig {
            max_restarts: 3,
            backoff: Duration::from_millis(1),
            checkpoint_every: 200,
            checkpoint_root: Some(root.clone()),
            checkpoint_min_interval: Duration::ZERO,
            fault_plan: Some(plan),
        };
        let stats = run_supervised(
            &program,
            &inst,
            &config(2_000),
            &[vec![0u8; 24]],
            2,
            200,
            &supervisor,
            None,
        );
        assert_eq!(stats.health[0], InstanceHealth::Running);
        assert_eq!(stats.health[1], InstanceHealth::Restarted(1));
        assert!(stats.all_completed());
        // The restarted instance resumed from its checkpoint and still
        // delivered its full budget.
        assert!(stats.instances[1].execs >= 2_000);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn restart_without_checkpoints_starts_from_seeds() {
        let (program, inst) = setup();
        let plan = Arc::new(FaultPlan::new().inject(FaultSite::WorkerPanic, 0, 0));
        let supervisor = SupervisorConfig {
            max_restarts: 2,
            backoff: Duration::from_millis(1),
            fault_plan: Some(plan),
            ..SupervisorConfig::default()
        };
        let stats = run_supervised(
            &program,
            &inst,
            &config(600),
            &[vec![0u8; 24]],
            1,
            200,
            &supervisor,
            None,
        );
        assert_eq!(stats.health[0], InstanceHealth::Restarted(1));
        assert!(stats.instances[0].execs >= 600);
    }

    #[test]
    fn exhausted_restart_budget_reports_dead() {
        let (program, inst) = setup();
        // Panic at every sync boundary the instance will ever reach.
        let plan = Arc::new(FaultPlan::new().inject_seeded(7, FaultSite::WorkerPanic, 0, 64, 64));
        let supervisor = SupervisorConfig {
            max_restarts: 1,
            backoff: Duration::from_millis(1),
            fault_plan: Some(plan),
            ..SupervisorConfig::default()
        };
        let stats = run_supervised(
            &program,
            &inst,
            &config(1_000),
            &[vec![0u8; 24]],
            1,
            100,
            &supervisor,
            None,
        );
        match &stats.health[0] {
            InstanceHealth::Dead(msg) => assert!(msg.contains("injected worker panic")),
            other => panic!("expected dead instance, got {other:?}"),
        }
        assert_eq!(stats.instances[0].execs, 0);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_instances_panics() {
        fleet(10, 0, 100);
    }

    #[test]
    #[should_panic(expected = "seed corpus")]
    fn empty_seeds_panics() {
        let (program, inst) = setup();
        run_supervised(
            &program,
            &inst,
            &config(10),
            &[],
            2,
            100,
            &SupervisorConfig::default(),
            None,
        );
    }
}
