//! The tracer: the campaign loop of `Campaign::run`, stepped from
//! the layers' public functions with a span around every call.
//!
//! The tracer mirrors `Campaign::run_loop` exactly — the same RNG
//! streams and seeds, queue scheduling, deterministic stage, havoc energy
//! factors, splice draw, virgin-map routing and admission — so its
//! trajectory must equal the untraced campaign's at the same seed and
//! budget. A run checks that, and checks the tracer's own counts against
//! the program's telemetry counters; the per-layer numbers are valid only
//! when both agree.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bigmap_core::{build_map, AllocBackend, CoverageMap, NewCoverage, OpKind, OpPath, VirginState};
use bigmap_coverage::Instrumentation;
use bigmap_fuzzer::{
    build_metric, Campaign, CampaignConfig, CampaignStats, CrashWalk, EnginePath, Executor,
    Mutator, Queue, Stage, Telemetry, TelemetryEvent, TelemetrySnapshot,
};
use bigmap_target::{ExecOutcome, Interpreter};

use crate::json::Obj;
use crate::spans::Samples;
use crate::workload::{self, Fingerprint, Tally, Target, Workload};

/// Engine paths as the benchmark groups them: a full replay of the
/// parent's tape, a resume after a replayed prefix, an armed snapshot
/// that could not be reused, and a live run with no snapshot armed.
const PATHS: [&str; 4] = ["replay", "resume", "miss", "live"];

fn path_index(engine: EnginePath) -> usize {
    match engine {
        EnginePath::SnapshotReplay => 0,
        EnginePath::SnapshotResume => 1,
        EnginePath::SnapshotMiss => 2,
        EnginePath::Compiled | EnginePath::Tree => 3,
    }
}

/// Counts taken at the layer boundaries.
#[derive(Default, Clone, Copy)]
pub struct Counts {
    execs: u64,
    steps: u64,
    map_updates: u64,
    touched: u64,
    touched_execs: u64,
    sparse: u64,
    dense: u64,
    overflows: u64,
    interesting: u64,
    new_edges: u64,
    admits: u64,
    paths: [u64; 4],
    compiled: u64,
    crashes: u64,
    hangs: u64,
    schedules: u64,
    det_children: u64,
    havoc_children: u64,
    havoc_bytes: u64,
}

impl Counts {
    fn since(&self, start: &Counts) -> Counts {
        let mut paths = self.paths;
        for (p, s) in paths.iter_mut().zip(start.paths) {
            *p -= s;
        }
        Counts {
            execs: self.execs - start.execs,
            steps: self.steps - start.steps,
            map_updates: self.map_updates - start.map_updates,
            touched: self.touched - start.touched,
            touched_execs: self.touched_execs - start.touched_execs,
            sparse: self.sparse - start.sparse,
            dense: self.dense - start.dense,
            overflows: self.overflows - start.overflows,
            interesting: self.interesting - start.interesting,
            new_edges: self.new_edges - start.new_edges,
            admits: self.admits - start.admits,
            paths,
            compiled: self.compiled - start.compiled,
            crashes: self.crashes - start.crashes,
            hangs: self.hangs - start.hangs,
            schedules: self.schedules - start.schedules,
            det_children: self.det_children - start.det_children,
            havoc_children: self.havoc_children - start.havoc_children,
            havoc_bytes: self.havoc_bytes - start.havoc_bytes,
        }
    }
}

/// Spans of the fuzzing loop, one sample list per layer call site.
#[derive(Default)]
pub struct Spans {
    schedule: Samples,
    prime: Samples,
    det: Samples,
    havoc: Samples,
    reset: Samples,
    run: [Samples; 4],
    judge: Samples,
    hash: Samples,
    admit: Samples,
}

struct Tracer<'p> {
    executor: Executor<'p>,
    map: Box<dyn CoverageMap>,
    virgin: VirginState,
    virgin_crash: VirginState,
    virgin_hang: VirginState,
    queue: Queue,
    mutator: Mutator,
    crashwalk: CrashWalk,
    rng: SmallRng,
    config: CampaignConfig,
    budget: u64,
    execs: u64,
    total_crashes: u64,
    hangs: u64,
    discovered_running: u64,
    admit_depth: usize,
    counts: Counts,
    /// `None` during set-up: the seed dry runs are counted, not spanned.
    spans: Option<Spans>,
}

impl<'p> Tracer<'p> {
    /// The state `Campaign::new` builds, from the same public parts.
    fn new(
        config: &CampaignConfig,
        interpreter: &'p Interpreter<'p>,
        instrumentation: &'p Instrumentation,
    ) -> Self {
        let mut map = build_map(config.scheme, config.map_size);
        map.set_sparse_override(config.sparse);
        let mut executor = Executor::new(interpreter, instrumentation, build_metric(config.metric));
        executor.set_interp_mode(
            config
                .interp
                .unwrap_or_else(bigmap_core::env::interp_request),
        );
        let bigmap_fuzzer::Budget::Execs(budget) = config.budget else {
            panic!("the tracer runs exec budgets only");
        };
        Tracer {
            executor,
            map,
            virgin: VirginState::new(config.map_size),
            virgin_crash: VirginState::new(config.map_size),
            virgin_hang: VirginState::new(config.map_size),
            queue: Queue::new(),
            mutator: Mutator::with_dictionary(config.seed ^ 0x5EED, config.dictionary.clone()),
            crashwalk: CrashWalk::new(),
            rng: SmallRng::seed_from_u64(config.seed ^ 0xD1CE),
            config: config.clone(),
            budget,
            execs: 0,
            total_crashes: 0,
            hangs: 0,
            discovered_running: 0,
            admit_depth: 0,
            counts: Counts::default(),
            spans: None,
        }
    }

    /// One test case through reset → engine → classify+compare and, when
    /// interesting, hash → admission: `Campaign::execute_and_judge` on
    /// the always-traced path.
    fn judge(&mut self, input: &[u8], force_admit: bool) -> NewCoverage {
        let t0 = Instant::now();
        self.map.reset();
        let t1 = Instant::now();
        let execution = self.executor.run(input, self.map.as_mut());
        let t2 = Instant::now();
        self.execs += 1;
        let virgin = match &execution.outcome {
            ExecOutcome::Ok => &mut self.virgin,
            ExecOutcome::Crash { .. } => &mut self.virgin_crash,
            ExecOutcome::Hang => &mut self.virgin_hang,
        };
        let verdict = self.map.classify_and_compare(virgin);
        let t3 = Instant::now();

        let path = path_index(execution.engine);
        let c = &mut self.counts;
        c.execs += 1;
        c.steps += execution.steps;
        c.map_updates += execution.map_updates;
        if let Some(touched) = execution.touched_slots {
            c.touched += touched as u64;
            c.touched_execs += 1;
        }
        match self.map.last_op_path() {
            OpPath::Dense => c.dense += 1,
            OpPath::Sparse => c.sparse += 1,
        }
        c.overflows += u64::from(self.map.journal_overflowed());
        c.interesting += u64::from(verdict.is_interesting());
        c.new_edges += u64::from(verdict == NewCoverage::NewEdge);
        c.paths[path] += 1;
        c.compiled += u64::from(execution.engine.is_compiled());
        if let Some(spans) = &mut self.spans {
            spans.reset.push(t1 - t0);
            spans.run[path].push(t2 - t1);
            spans.judge.push(t3 - t2);
        }

        match &execution.outcome {
            ExecOutcome::Ok => {
                if verdict.is_interesting() || force_admit {
                    let t0 = Instant::now();
                    let hash = self.map.hash();
                    let t1 = Instant::now();
                    let mut slots = Vec::new();
                    self.map.for_each_nonzero(&mut |slot, _| slots.push(slot));
                    self.queue.add_with_depth(
                        input.to_vec(),
                        execution.exec_time,
                        execution.steps,
                        hash,
                        &slots,
                        self.admit_depth,
                    );
                    let t2 = Instant::now();
                    self.counts.admits += 1;
                    if let Some(spans) = &mut self.spans {
                        spans.hash.push(t1 - t0);
                        spans.admit.push(t2 - t1);
                    }
                }
            }
            ExecOutcome::Crash { .. } => {
                self.total_crashes += 1;
                self.counts.crashes += 1;
                self.crashwalk.observe(&execution.outcome);
            }
            ExecOutcome::Hang => {
                self.hangs += 1;
                self.counts.hangs += 1;
            }
        }
        if verdict == NewCoverage::NewEdge {
            self.discovered_running += 1;
        }
        verdict
    }

    fn seed(&mut self, seeds: &[Vec<u8>]) {
        self.admit_depth = 0;
        for input in seeds {
            self.judge(input, true);
        }
    }

    /// `Campaign::run_loop` without a sync hook.
    fn fuzz(&mut self) {
        let mut deterministic_done = 0usize;
        while self.execs < self.budget {
            let t0 = Instant::now();
            let rng = &mut self.rng;
            let entry_id = self
                .queue
                .schedule(|| rng.gen::<f64>())
                .expect("non-empty queue");
            let parent = self.queue.entry(entry_id).input.clone();
            let parent_depth = self.queue.entry(entry_id).depth;
            self.admit_depth = parent_depth + 1;
            let t1 = Instant::now();
            self.executor.prime_snapshot(&parent);
            let t2 = Instant::now();
            self.counts.schedules += 1;
            if let Some(spans) = &mut self.spans {
                spans.schedule.push(t1 - t0);
                spans.prime.push(t2 - t1);
            }

            if self.config.deterministic
                && deterministic_done <= entry_id
                && self.queue.entry(entry_id).fuzzed_rounds <= 1
            {
                deterministic_done = entry_id + 1;
                let t = Instant::now();
                let children = Mutator::deterministic(&parent, 512);
                let elapsed = t.elapsed();
                self.counts.det_children += children.len() as u64;
                if let Some(spans) = &mut self.spans {
                    spans.det.push(elapsed);
                }
                for child in children {
                    if self.execs >= self.budget {
                        break;
                    }
                    self.judge(&child, false);
                }
            }

            let energy_factor = match parent_depth {
                0..=3 => 1,
                4..=7 => 2,
                8..=13 => 3,
                14..=25 => 4,
                _ => 5,
            };
            for _ in 0..self.config.mutations_per_seed * energy_factor {
                if self.execs >= self.budget {
                    break;
                }
                let t = Instant::now();
                let splice_with = if self.queue.len() > 1 && self.rng.gen_bool(0.2) {
                    let other = self.rng.gen_range(0..self.queue.len());
                    Some(self.queue.entry(other).input.clone())
                } else {
                    None
                };
                let child = self.mutator.havoc(&parent, splice_with.as_deref());
                let elapsed = t.elapsed();
                self.counts.havoc_children += 1;
                self.counts.havoc_bytes += child.len() as u64;
                if let Some(spans) = &mut self.spans {
                    spans.havoc.push(elapsed);
                }
                self.judge(&child, false);
            }
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            coverage: self.virgin.discovered_in(self.map.used_len()),
            queue_len: self.queue.len(),
            unique_crashes: self.crashwalk.unique_count(),
            total_crashes: self.total_crashes,
            hangs: self.hangs,
            final_execs: self.execs,
            final_coverage: self.discovered_running,
        }
    }
}

/// Named per-layer values in emission order.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Records one metric; `None` (a layer this workload's traced run
    /// does not step through) is reported as 0.
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: Option<f64>) {
        self.items.push((name, unit, value.unwrap_or(0.0)));
    }

    pub fn json(&self, valid: bool) -> Obj {
        self.items
            .iter()
            .fold(Obj::new(), |obj, &(name, unit, value)| {
                let value = if valid { value } else { f64::NAN };
                obj.obj(name, Obj::new().num("value", value).str("unit", unit))
            })
    }
}

/// Set-up times, measured by the tracer around each step.
pub struct SetupTimes {
    pub program: Duration,
    pub instrument: Duration,
    pub compile: Duration,
    pub map_alloc: Duration,
    pub seed_dryrun: Duration,
    pub alloc: Option<(AllocBackend, bool)>,
}

pub fn setup_metrics(m: &mut Metrics, s: &SetupTimes) {
    let ms = |d: Duration| Some(d.as_secs_f64() * 1e3);
    m.put("setup.program_ms", "ms", ms(s.program));
    m.put("setup.instrument_ms", "ms", ms(s.instrument));
    m.put("setup.compile_ms", "ms", ms(s.compile));
    m.put("setup.map_alloc_ms", "ms", ms(s.map_alloc));
    m.put("setup.seed_dryrun_ms", "ms", ms(s.seed_dryrun));
    // 0 = the map reports no backend (flat scheme), then ascending
    // page size: 1 plain, 2 THP, 3 explicit 2 MiB, 4 explicit 1 GiB.
    let code = s.alloc.map_or(0.0, |(backend, _)| match backend {
        AllocBackend::Plain => 1.0,
        AllocBackend::Thp => 2.0,
        AllocBackend::ExplicitHuge => 3.0,
        AllocBackend::ExplicitGigantic => 4.0,
    });
    m.put("setup.alloc_backend", "code", Some(code));
    m.put(
        "setup.alloc_fallback",
        "count",
        Some(
            s.alloc
                .map_or(0.0, |(_, fell_back)| f64::from(u8::from(fell_back))),
        ),
    );
}

/// What one traced single-instance loop measured.
pub struct LoopResult {
    spans: Spans,
    counts: Counts,
    used_len: usize,
}

impl LoopResult {
    /// Engine-run spans of every path together.
    fn all_runs(&self) -> Samples {
        let mut all = Samples::default();
        for s in &self.spans.run {
            all.extend(s);
        }
        all
    }

    /// Total traced nanoseconds per exec of each layer.
    fn layer_ns_per_exec(&self) -> [f64; 4] {
        let per_exec = |ns: u64| ns as f64 / self.counts.execs.max(1) as f64;
        let s = &self.spans;
        let engine = s.prime.total_ns() + s.run.iter().map(Samples::total_ns).sum::<u64>();
        let mutate = s.det.total_ns() + s.havoc.total_ns();
        let queue = s.schedule.total_ns() + s.admit.total_ns();
        let map = s.reset.total_ns() + s.judge.total_ns() + s.hash.total_ns();
        [
            per_exec(engine),
            per_exec(mutate),
            per_exec(queue),
            per_exec(map),
        ]
    }
}

fn median(s: &Samples) -> Option<f64> {
    s.summary().map(|x| x.median)
}

fn tail(s: &Samples) -> Option<f64> {
    s.summary().map(|x| x.tail)
}

/// The per-exec layers (engine, mutate, queue, map). `None` reports
/// every metric as 0: the layer was not stepped by this traced run.
pub fn exec_layer_metrics(m: &mut Metrics, r: Option<&LoopResult>) {
    let share =
        |f: &dyn Fn(&LoopResult) -> u64| r.map(|r| f(r) as f64 / r.counts.execs.max(1) as f64);
    let all_runs = r.map(LoopResult::all_runs).unwrap_or_default();
    let layer_ns = r.map(LoopResult::layer_ns_per_exec);

    m.put(
        "engine.prime_ns",
        "ns",
        r.and_then(|r| median(&r.spans.prime)),
    );
    m.put("engine.run_ns", "ns", median(&all_runs));
    m.put("engine.run_ns.tail", "ns", tail(&all_runs));
    const RUN_NAMES: [[&str; 2]; 4] = [
        ["engine.run_ns.replay", "engine.run_ns.replay.tail"],
        ["engine.run_ns.resume", "engine.run_ns.resume.tail"],
        ["engine.run_ns.miss", "engine.run_ns.miss.tail"],
        ["engine.run_ns.live", "engine.run_ns.live.tail"],
    ];
    const SHARE_NAMES: [&str; 4] = [
        "engine.path_share.replay",
        "engine.path_share.resume",
        "engine.path_share.miss",
        "engine.path_share.live",
    ];
    for (i, [p50, p_tail]) in RUN_NAMES.iter().enumerate() {
        m.put(p50, "ns", r.and_then(|r| median(&r.spans.run[i])));
        m.put(p_tail, "ns", r.and_then(|r| tail(&r.spans.run[i])));
    }
    for (i, name) in SHARE_NAMES.iter().enumerate() {
        m.put(name, "ratio", share(&|r| r.counts.paths[i]));
    }
    m.put("engine.steps_per_exec", "steps", share(&|r| r.counts.steps));
    m.put(
        "engine.map_updates_per_exec",
        "count",
        share(&|r| r.counts.map_updates),
    );
    m.put("engine.ns_per_exec", "ns", layer_ns.map(|l| l[0]));

    m.put(
        "mutate.havoc_ns",
        "ns",
        r.and_then(|r| median(&r.spans.havoc)),
    );
    m.put(
        "mutate.havoc_ns.tail",
        "ns",
        r.and_then(|r| tail(&r.spans.havoc)),
    );
    m.put(
        "mutate.det_ns_per_child",
        "ns",
        r.map(|r| r.spans.det.total_ns() as f64 / r.counts.det_children.max(1) as f64),
    );
    m.put(
        "mutate.child_len_mean",
        "B",
        r.map(|r| r.counts.havoc_bytes as f64 / r.counts.havoc_children.max(1) as f64),
    );
    m.put("mutate.ns_per_exec", "ns", layer_ns.map(|l| l[1]));

    m.put(
        "queue.schedule_ns",
        "ns",
        r.and_then(|r| median(&r.spans.schedule)),
    );
    m.put(
        "queue.admit_ns",
        "ns",
        r.and_then(|r| median(&r.spans.admit)),
    );
    m.put("queue.admits", "count", r.map(|r| r.counts.admits as f64));
    m.put("queue.ns_per_exec", "ns", layer_ns.map(|l| l[2]));

    m.put("map.reset_ns", "ns", r.and_then(|r| median(&r.spans.reset)));
    m.put("map.judge_ns", "ns", r.and_then(|r| median(&r.spans.judge)));
    m.put("map.hash_ns", "ns", r.and_then(|r| median(&r.spans.hash)));
    m.put("map.used_len", "slots", r.map(|r| r.used_len as f64));
    m.put(
        "map.sparse_share",
        "ratio",
        r.map(|r| r.counts.sparse as f64 / (r.counts.sparse + r.counts.dense).max(1) as f64),
    );
    m.put(
        "map.touched_per_exec",
        "slots",
        r.map(|r| r.counts.touched as f64 / r.counts.touched_execs.max(1) as f64),
    );
    m.put(
        "map.journal_overflow_share",
        "ratio",
        share(&|r| r.counts.overflows),
    );
    m.put(
        "map.new_coverage_ratio",
        "ratio",
        share(&|r| r.counts.interesting),
    );
    m.put("map.ns_per_exec", "ns", layer_ns.map(|l| l[3]));
}

/// The traced run of a single-instance workload.
pub fn run(workload: &Workload, seed: u64) -> String {
    let mut tally = Tally::default();
    let config = workload.config(seed);
    let target = Target::build(workload);
    let t = Instant::now();
    let interpreter = Interpreter::new(&target.program);
    let compile = t.elapsed();

    let t = Instant::now();
    let mut tracer = Tracer::new(&config, &interpreter, &target.instrumentation);
    let map_alloc = t.elapsed();
    let alloc = tracer.map.alloc_info();
    let t = Instant::now();
    tracer.seed(&target.seeds);
    let seed_dryrun = t.elapsed();
    let setup = SetupTimes {
        program: target.program_time,
        instrument: target.instrument_time,
        compile,
        map_alloc,
        seed_dryrun,
        alloc,
    };

    let at_loop = tracer.counts;
    tracer.spans = Some(Spans::default());
    let t = Instant::now();
    tracer.fuzz();
    let traced_wall = t.elapsed();
    let traced_fp = tracer.fingerprint();
    let all_counts = tracer.counts;
    let result = LoopResult {
        spans: tracer.spans.take().expect("spans armed"),
        counts: all_counts.since(&at_loop),
        used_len: tracer.map.used_len(),
    };
    drop(tracer);

    // The untraced reference, then the same campaign with the program's
    // own telemetry attached (for the ledger cross-check).
    let untraced = new_campaign(&config, &interpreter, &target, None).run();
    let telemetry = Arc::new(Telemetry::new(0));
    let with_tel = new_campaign(&config, &interpreter, &target, Some(telemetry)).run();
    let snapshot = with_tel.telemetry.clone().expect("telemetry attached");

    let untraced_fp = Fingerprint::of(&untraced);
    tally.op("traced_equals_untraced", traced_fp == untraced_fp, || {
        format!(
            "traced {} vs untraced {}",
            traced_fp.text(),
            untraced_fp.text()
        )
    });
    let tel_fp = Fingerprint::of(&with_tel);
    tally.op(
        "telemetry_run_equals_untraced",
        tel_fp == untraced_fp,
        || {
            format!(
                "telemetry {} vs untraced {}",
                tel_fp.text(),
                untraced_fp.text()
            )
        },
    );
    let ledger = ledger_pairs(&all_counts, &snapshot);
    for (name, ours, theirs) in &ledger {
        tally.op(&format!("ledger.{name}"), ours == theirs, || {
            format!("benchmark counted {ours}, telemetry {theirs}")
        });
    }
    let valid = tally.failed == 0;

    let untraced_rate = workload::loop_rate(&untraced, target.seeds.len());
    let traced_rate = result.counts.execs as f64 / traced_wall.as_secs_f64();
    let untraced_ns_per_exec = 1e9 / untraced_rate;
    let traced_layers: f64 = result.layer_ns_per_exec().iter().sum();

    let mut m = Metrics::default();
    exec_layer_metrics(&mut m, Some(&result));
    setup_metrics(&mut m, &setup);
    crate::fleet::sync_checkpoint_metrics(&mut m, None);
    m.put(
        "campaign.glue_ns_per_exec",
        "ns",
        Some(untraced_ns_per_exec - traced_layers),
    );
    m.put(
        "trace.overhead_share",
        "ratio",
        Some(1.0 - traced_rate / untraced_rate),
    );
    ledger_metrics(&mut m, &with_tel);

    report(
        workload,
        &result,
        &with_tel,
        &snapshot,
        &ledger,
        traced_rate,
        untraced_rate,
    );
    let record = Obj::new()
        .str("workload", workload.name)
        .int("seed", seed)
        .bool("valid", valid)
        .str("fingerprint", &traced_fp.text())
        .obj("metrics", m.json(valid))
        .obj("policies", workload::policies());
    tally.json(record).finish()
}

/// A seeded campaign, ready to run; telemetry (when given) is attached
/// before the seed dry runs, which it counts like the tracer does.
fn new_campaign<'p>(
    config: &CampaignConfig,
    interpreter: &'p Interpreter<'p>,
    target: &'p Target,
    telemetry: Option<Arc<Telemetry>>,
) -> Campaign<'p> {
    let mut campaign = Campaign::new(config.clone(), interpreter, &target.instrumentation);
    if let Some(tel) = telemetry {
        campaign.set_telemetry(tel);
    }
    campaign.add_seeds(target.seeds.clone());
    campaign
}

/// The benchmark's boundary counts next to the program's telemetry
/// counters for the same trajectory (seed dry runs included on both
/// sides). Every pair must agree exactly.
fn ledger_pairs(c: &Counts, snap: &TelemetrySnapshot) -> Vec<(&'static str, u64, u64)> {
    let kernel_ops = snap.get(TelemetryEvent::for_kernel(
        bigmap_core::kernels::active().kind,
    ));
    vec![
        ("execs", c.execs, snap.get(TelemetryEvent::Exec)),
        (
            "queue_cycles",
            c.schedules,
            snap.get(TelemetryEvent::QueueCycle),
        ),
        (
            "snapshot_hits",
            c.paths[0] + c.paths[1],
            snap.get(TelemetryEvent::SnapshotHit),
        ),
        (
            "snapshot_misses",
            c.paths[2],
            snap.get(TelemetryEvent::SnapshotMiss),
        ),
        (
            "compiled_execs",
            c.compiled,
            snap.get(TelemetryEvent::CompiledExec),
        ),
        (
            "sparse_dispatches",
            c.sparse,
            snap.get(TelemetryEvent::SparseDispatch),
        ),
        (
            "dense_dispatches",
            c.dense,
            snap.get(TelemetryEvent::DenseDispatch),
        ),
        ("kernel_ops", c.dense, kernel_ops),
        (
            "journal_overflows",
            c.overflows,
            snap.get(TelemetryEvent::JournalOverflow),
        ),
        (
            "map_updates",
            c.map_updates,
            snap.get(TelemetryEvent::MapUpdate),
        ),
        (
            "new_coverage",
            c.new_edges,
            snap.get(TelemetryEvent::NewCoverage),
        ),
        ("crashes", c.crashes, snap.get(TelemetryEvent::Crash)),
        ("hangs", c.hangs, snap.get(TelemetryEvent::Hang)),
    ]
}

/// The program's own `OpStats` shares, reported next to the spans.
fn ledger_metrics(m: &mut Metrics, stats: &CampaignStats) {
    let ops = &stats.ops;
    let map = [
        OpKind::Reset,
        OpKind::Classify,
        OpKind::Compare,
        OpKind::Hash,
    ]
    .iter()
    .map(|&k| ops.fraction(k))
    .sum();
    m.put(
        "ledger.opstats.execution_share",
        "ratio",
        Some(ops.fraction(OpKind::Execution)),
    );
    m.put("ledger.opstats.map_share", "ratio", Some(map));
    m.put(
        "ledger.opstats.other_share",
        "ratio",
        Some(ops.fraction(OpKind::Other)),
    );
}

/// Human-readable layer table on stderr: the benchmark's spans beside
/// the program's two ledgers (`OpStats` and telemetry stages).
fn report(
    workload: &Workload,
    r: &LoopResult,
    stats: &CampaignStats,
    snap: &TelemetrySnapshot,
    ledger: &[(&str, u64, u64)],
    traced_rate: f64,
    untraced_rate: f64,
) {
    let wall: f64 = 1e9 / traced_rate;
    let [engine, mutate, queue, map] = r.layer_ns_per_exec();
    eprintln!(
        "[{}] traced layers (ns/exec, share of traced wall):",
        workload.name
    );
    for (name, ns) in [
        ("engine", engine),
        ("mutate", mutate),
        ("queue", queue),
        ("map", map),
    ] {
        eprintln!("    {name:<8} {ns:>9.1} ns  {:>5.1}%", 100.0 * ns / wall);
    }
    let rest = wall - (engine + mutate + queue + map);
    eprintln!(
        "    {:<8} {rest:>9.1} ns  {:>5.1}%",
        "untimed",
        100.0 * rest / wall
    );
    eprintln!(
        "  execs/s traced {traced_rate:.0} vs untraced {untraced_rate:.0}; engine paths {}",
        PATHS
            .iter()
            .zip(r.counts.paths)
            .map(|(p, n)| format!("{p}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let all_runs = r.all_runs();
    for (name, spans) in [
        ("engine.run", &all_runs),
        ("mutate.havoc", &r.spans.havoc),
        ("map.judge", &r.spans.judge),
    ] {
        if let Some(x) = spans.summary() {
            eprintln!(
                "  {name:<12} p50 {:.0} ns, p{} {:.0} ns, n={}",
                x.median,
                x.tail_q * 100.0,
                x.tail,
                x.n
            );
        }
    }
    let ops = &stats.ops;
    eprintln!(
        "  program OpStats: {}",
        OpKind::ALL
            .iter()
            .map(|&k| format!("{} {:.1}%", k.label(), 100.0 * ops.fraction(k)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let stage_total: Duration = Stage::ALL.iter().map(|&s| snap.stage_time(s)).sum();
    eprintln!(
        "  program telemetry stages: {}",
        Stage::ALL
            .iter()
            .map(|&s| format!(
                "{} {:.1}%",
                s.key(),
                100.0 * snap.stage_time(s).as_secs_f64() / stage_total.as_secs_f64().max(1e-12)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    eprintln!(
        "  ledger cross-check (benchmark = telemetry): {}",
        ledger
            .iter()
            .map(|(n, a, b)| if a == b {
                format!("{n} {a}")
            } else {
                format!("{n} {a}!={b}")
            })
            .collect::<Vec<_>>()
            .join(", ")
    );
}
