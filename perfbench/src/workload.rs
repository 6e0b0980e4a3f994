//! The four workloads, the inputs they are built from, and the records
//! every run shares: trajectory fingerprints, resolved policies, peak
//! memory and the attempted/failed tally.

use std::time::{Duration, Instant};

use bigmap_core::{MapScheme, MapSize};
use bigmap_coverage::{Instrumentation, MetricKind};
use bigmap_fuzzer::{CampaignConfig, CampaignStats};
use bigmap_target::{BenchmarkSpec, Program};

use crate::json::Obj;

/// Table II target scale ("standard" in the repository's harnesses).
pub const SCALE: f64 = 0.05;
/// Seed-corpus size.
pub const SEED_INPUTS: usize = 32;
/// Instrumentation ID-assignment seed (fixed: only the campaign seed
/// varies with `--seed`, so every seed fuzzes the same binary).
pub const INSTRUMENT_SEED: u64 = 0xB16_3A9;
/// Fleet corpus-sync cadence in executions.
pub const FLEET_SYNC_EVERY: u64 = 5_000;

/// One benchmark workload: a Table II target at one map configuration
/// and a fixed exec budget (per instance for the fleet).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub target: &'static str,
    pub scheme: MapScheme,
    pub size: MapSize,
    pub metric: MetricKind,
    pub budget: u64,
    pub instances: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "plateau-2m",
        target: "libpng",
        scheme: MapScheme::TwoLevel,
        size: MapSize::M2,
        metric: MetricKind::Edge,
        budget: 400_000,
        instances: 1,
    },
    Workload {
        name: "afl-flat-2m",
        target: "libpng",
        scheme: MapScheme::Flat,
        size: MapSize::M2,
        metric: MetricKind::Edge,
        budget: 3_000,
        instances: 1,
    },
    Workload {
        name: "ngram-256m",
        target: "sqlite3",
        scheme: MapScheme::TwoLevel,
        size: MapSize::M256,
        metric: MetricKind::NGram(3),
        budget: 400_000,
        instances: 1,
    },
    Workload {
        name: "fleet-2x",
        target: "sqlite3",
        scheme: MapScheme::TwoLevel,
        size: MapSize::M2,
        metric: MetricKind::Edge,
        budget: 600_000,
        instances: 2,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Default campaign policies; only scheme, map size, metric, budget
    /// and seed are set.
    pub fn config(&self, seed: u64) -> CampaignConfig {
        CampaignConfig::builder()
            .scheme(self.scheme)
            .map_size(self.size)
            .metric(self.metric)
            .budget_execs(self.budget)
            .seed(seed)
            .build()
    }

    pub fn spec(&self) -> BenchmarkSpec {
        BenchmarkSpec::by_name(self.target).expect("workload target is in Table II")
    }
}

/// The generated target: program, seed corpus and instrumentation.
pub struct Target {
    pub program: Program,
    pub seeds: Vec<Vec<u8>>,
    pub instrumentation: Instrumentation,
    /// Time spent generating the program (and its seed corpus).
    pub program_time: Duration,
    /// Time spent assigning instrumentation IDs.
    pub instrument_time: Duration,
}

impl Target {
    pub fn build(workload: &Workload) -> Target {
        let spec = workload.spec();
        let t = Instant::now();
        let program = spec.build(SCALE);
        let seeds = spec.build_seeds(&program, SEED_INPUTS);
        let program_time = t.elapsed();
        let t = Instant::now();
        let instrumentation = Instrumentation::assign(
            program.block_count(),
            program.call_sites,
            workload.size,
            INSTRUMENT_SEED,
        );
        let instrument_time = t.elapsed();
        Target {
            program,
            seeds,
            instrumentation,
            program_time,
            instrument_time,
        }
    }
}

/// Loop execs per second, excluding the seed dry runs counted in
/// `CampaignStats::execs`.
pub fn loop_rate(stats: &CampaignStats, seeds: usize) -> f64 {
    (stats.execs - seeds as u64) as f64 / stats.wall_time.as_secs_f64()
}

/// What a campaign's trajectory ended at. Single-instance campaigns are
/// deterministic, so equal inputs must give equal fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub coverage: usize,
    pub queue_len: usize,
    pub unique_crashes: usize,
    pub total_crashes: u64,
    pub hangs: u64,
    pub final_execs: u64,
    pub final_coverage: u64,
}

impl Fingerprint {
    pub fn of(stats: &CampaignStats) -> Fingerprint {
        let (final_execs, final_coverage) = stats
            .timeline
            .last()
            .map_or((0, 0), |p| (p.execs, p.coverage));
        Fingerprint {
            coverage: stats.discovered_slots,
            queue_len: stats.queue_len,
            unique_crashes: stats.unique_crashes,
            total_crashes: stats.total_crashes,
            hangs: stats.hangs,
            final_execs,
            final_coverage,
        }
    }

    pub fn text(&self) -> String {
        format!(
            "coverage={} queue={} crashes={}/{} hangs={} final=({}, {})",
            self.coverage,
            self.queue_len,
            self.unique_crashes,
            self.total_crashes,
            self.hangs,
            self.final_execs,
            self.final_coverage
        )
    }
}

/// Operations attempted and failed in one process, with the names of
/// the failures. Runs, instances, checkpoint writes and correctness
/// checks each count as one operation.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn op(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    pub fn json(&self, obj: Obj) -> Obj {
        obj.int("attempted", self.attempted)
            .int("failed", self.failed)
            .str("failures", &self.failures.join("; "))
    }
}

/// The resolved runtime policies: kernel tier, every dispatch knob, the
/// page backends that actually served map memory, and any `BIGMAP_*`
/// variable set in the environment. Call after the maps were allocated.
pub fn policies() -> Obj {
    use bigmap_core::{alloc, env, AllocBackend};
    let served: Vec<String> = [
        AllocBackend::ExplicitGigantic,
        AllocBackend::ExplicitHuge,
        AllocBackend::Thp,
        AllocBackend::Plain,
    ]
    .into_iter()
    .filter_map(|b| {
        let n = alloc::backend_allocs(b);
        (n > 0).then(|| format!("{}:{n}", b.label()))
    })
    .collect();
    let mut stray: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("BIGMAP_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    stray.sort();
    Obj::new()
        .str("kernel", bigmap_core::kernels::active().kind.label())
        .str("sparse", env::sparse_request().label())
        .str("trace_mode", env::trace_request().label())
        .str("interp", env::interp_request().label())
        .str("huge", env::huge_request().label())
        .str("numa", &env::numa_request().to_string())
        .str("alloc_served", &served.join(","))
        .int("alloc_fallbacks", alloc::huge_fallbacks())
        .str("bigmap_env", &stray.join(","))
}

/// Peak resident memory of this process (`VmHWM`) in MiB. Each run is a
/// fresh process, so this is the peak of exactly one workload run.
pub fn peak_rss_mib() -> f64 {
    proc_kib("/proc/self/status", "VmHWM:") / 1024.0
}

/// Anonymous memory of this process currently backed by transparent huge
/// pages, in MiB: whether the THP advice on the maps was actually served.
/// Read after set-up, while the maps are alive.
pub fn thp_mib() -> f64 {
    proc_kib("/proc/self/smaps_rollup", "AnonHugePages:") / 1024.0
}

/// A `<field> <n> kB` line of a procfs file, in KiB (0 when absent).
fn proc_kib(path: &str, field: &str) -> f64 {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
}
