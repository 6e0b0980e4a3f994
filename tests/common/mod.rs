//! The policy harness shared by the trajectory-invariance suites
//! (`tests/invariance.rs`, `tests/kernel_trajectory.rs`).
//!
//! * [`Fingerprint`] is everything a campaign decided, read from its
//!   public output: exec count, each queue entry's CRC in admission
//!   order, discovered slots and used prefix, crash buckets, the crash and
//!   hang inputs, the hang count, the full coverage timeline and a CRC of
//!   each virgin map's used prefix (the novelty state every verdict was
//!   judged against).
//! * [`run`] drives one seeded Table II campaign under a [`Policy`]: map
//!   scheme and size, the `CampaignConfig` sparse / trace / interp
//!   overrides, a scoped huge-page policy, and an optional mid-run
//!   resume (checkpoint → text → parse → restore into a fresh campaign).
//! * [`check`] asserts a cell equals the reference cell (two-level, sparse
//!   off, always-trace, tree engine, default huge-page policy,
//!   uninterrupted) at its map size, and checks from telemetry that the
//!   cell's mechanism actually ran — an equality nothing exercised proves
//!   nothing.

use std::sync::{Arc, OnceLock};

use bigmap::core::alloc::{huge_policy, with_huge_policy, HugePolicy, HUGE_PAGE_BYTES};
use bigmap::core::env::sparse_request;
use bigmap::core::Crc32;
use bigmap::fuzzer::{CampaignOutput, TimelinePoint};
use bigmap::prelude::*;

/// The Table II target every cell fuzzes: a crash-bearing LLVM pass
/// harness, so crash buckets and crash inputs are part of the trajectory.
const TARGET: &str = "jump-threading";
/// Execs per campaign: long enough for every mechanism to fire.
pub const BUDGET: u64 = 4_000;
/// Campaign RNG seed shared by every cell (one that finds a crash).
const SEED: u64 = 5;
/// A hang budget of exactly the slowest seed's step count, so that hangs,
/// hang inputs and the calibrated budget are part of the trajectory too.
const HANG_BUDGET: HangBudget = HangBudget {
    multiplier: 1.0,
    floor: 1,
    ceiling: 1_000_000,
};
/// Timeline sampling cadence of the campaign loop.
const TIMELINE_EVERY: u64 = 256;

/// Everything a campaign decided, from its public output.
#[derive(Debug)]
pub struct Fingerprint {
    pub execs: u64,
    pub queue_crcs: Vec<u32>,
    pub discovered_slots: usize,
    pub used_len: usize,
    pub crash_buckets: Vec<u32>,
    pub total_crashes: u64,
    pub crash_inputs: Vec<Vec<u8>>,
    pub hang_inputs: Vec<Vec<u8>>,
    pub hangs: u64,
    pub timeline: Vec<TimelinePoint>,
    /// CRC32 of the Ok, crash and hang virgin maps over `[..used_len]`.
    pub virgin_crcs: [u32; 3],
}

impl Fingerprint {
    fn of(output: &CampaignOutput) -> Self {
        let stats = &output.stats;
        Fingerprint {
            execs: stats.execs,
            queue_crcs: output.corpus.iter().map(|e| Crc32::checksum(e)).collect(),
            discovered_slots: stats.discovered_slots,
            used_len: stats.used_len,
            crash_buckets: stats.crash_buckets.clone(),
            total_crashes: stats.total_crashes,
            crash_inputs: output.crash_inputs.clone(),
            hang_inputs: output.hang_inputs.clone(),
            hangs: stats.hangs,
            timeline: stats.timeline.points().to_vec(),
            virgin_crcs: output.virgin_crcs,
        }
    }

    /// The fields where `self` differs from `other`.
    pub fn diverging_fields(&self, other: &Fingerprint) -> Vec<&'static str> {
        [
            ("execs", self.execs == other.execs),
            ("queue", self.queue_crcs == other.queue_crcs),
            (
                "discovered_slots",
                self.discovered_slots == other.discovered_slots,
            ),
            ("used_len", self.used_len == other.used_len),
            ("crash_buckets", self.crash_buckets == other.crash_buckets),
            ("total_crashes", self.total_crashes == other.total_crashes),
            ("crash_inputs", self.crash_inputs == other.crash_inputs),
            ("hang_inputs", self.hang_inputs == other.hang_inputs),
            ("hangs", self.hangs == other.hangs),
            ("timeline", self.timeline == other.timeline),
            ("virgin_crcs", self.virgin_crcs == other.virgin_crcs),
        ]
        .into_iter()
        .filter_map(|(field, same)| (!same).then_some(field))
        .collect()
    }
}

/// One cell of the cross-product. `None` fields follow the process-wide
/// default, exactly as a campaign without the override would.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    pub scheme: MapScheme,
    pub map_size: MapSize,
    pub sparse: Option<SparseMode>,
    pub trace: Option<TraceMode>,
    pub interp: Option<InterpMode>,
    pub huge: Option<HugePolicy>,
    /// Checkpoint at the first batch boundary at or past this exec count,
    /// then finish the budget in a fresh campaign restored from it.
    pub resume_at: Option<u64>,
}

impl Policy {
    /// The reference cell at `map_size`: every mechanism at its plainest.
    pub const fn reference(map_size: MapSize) -> Self {
        Policy {
            scheme: MapScheme::TwoLevel,
            map_size,
            sparse: Some(SparseMode::Off),
            trace: Some(TraceMode::Always),
            interp: Some(InterpMode::Tree),
            huge: None,
            resume_at: None,
        }
    }
}

/// A finished cell: its fingerprint plus what the mechanism checks need.
pub struct Run {
    pub fingerprint: Fingerprint,
    policy: Policy,
    telemetry: Arc<Telemetry>,
    trace: TraceMode,
    interp: InterpMode,
    huge: HugePolicy,
    /// The checkpoint a resumed cell restored from, and the oracle state
    /// the restored campaign reported before it ran on.
    resumed: Option<(Checkpoint, Option<OracleSnapshot>)>,
}

pub fn run(policy: Policy) -> Run {
    match policy.huge {
        Some(huge) => with_huge_policy(huge, || run_scoped(policy)),
        None => run_scoped(policy),
    }
}

fn run_scoped(policy: Policy) -> Run {
    let spec = BenchmarkSpec::by_name(TARGET).unwrap();
    let program = spec.build(0.05);
    let seeds = spec.build_seeds(&program, 8);
    let instrumentation = Instrumentation::assign(
        program.block_count(),
        program.call_sites,
        policy.map_size,
        9,
    );
    let interpreter = Interpreter::new(&program);
    let config = CampaignConfig {
        scheme: policy.scheme,
        map_size: policy.map_size,
        budget: Budget::Execs(BUDGET),
        seed: SEED,
        hang_budget: Some(HANG_BUDGET),
        sparse: policy.sparse,
        trace: policy.trace,
        interp: policy.interp,
        ..Default::default()
    };
    let telemetry = Arc::new(Telemetry::new(0));
    let mut campaign = Campaign::new(config.clone(), &interpreter, &instrumentation);
    let (trace, interp) = (campaign.trace_mode(), campaign.interp_mode());
    let Some(resume_at) = policy.resume_at else {
        campaign.set_telemetry(Arc::clone(&telemetry));
        campaign.add_seeds(seeds);
        return Run {
            policy,
            fingerprint: Fingerprint::of(&campaign.run_detailed()),
            telemetry,
            trace,
            interp,
            huge: huge_policy(),
            resumed: None,
        };
    };

    // Segment one runs to the end of the budget (the hook never perturbs
    // it); only its checkpoint and its timeline before that point are used.
    campaign.add_seeds(seeds);
    let mut checkpoint = None;
    let first = campaign.run_with_hook_detailed(resume_at, |c| {
        checkpoint.get_or_insert_with(|| c.checkpoint());
    });
    let checkpoint = checkpoint.expect("the hook fires before the budget runs out");
    // Through the text codec, as `CheckpointManager` persists it.
    let checkpoint = Checkpoint::from_text(&checkpoint.to_text()).unwrap();

    let mut resumed = Campaign::new(config, &interpreter, &instrumentation);
    resumed.set_telemetry(Arc::clone(&telemetry));
    resumed.restore(&checkpoint);
    assert_eq!(resumed.execs(), checkpoint.execs);
    let restored_oracle = resumed.checkpoint().oracle;
    let mut fingerprint = Fingerprint::of(&resumed.run_detailed());

    // A restore samples the timeline at the checkpoint, where the
    // uninterrupted loop samples only every TIMELINE_EVERY execs: splice
    // segment one's samples in front and drop the restore's own.
    let mut timeline: Vec<_> = first
        .stats
        .timeline
        .points()
        .iter()
        .copied()
        .filter(|p| p.execs < checkpoint.execs)
        .collect();
    timeline.extend(
        fingerprint
            .timeline
            .iter()
            .copied()
            .filter(|p| p.execs != checkpoint.execs || p.execs % TIMELINE_EVERY == 0),
    );
    fingerprint.timeline = timeline;
    Run {
        policy,
        fingerprint,
        telemetry,
        trace,
        interp,
        huge: huge_policy(),
        resumed: Some((checkpoint, restored_oracle)),
    }
}

/// Asserts from telemetry that `run`'s mechanisms actually ran.
fn assert_mechanism_fired(run: &Run) {
    let tel = &run.telemetry;
    let cell = format!("{:?}", run.policy);
    let get = |event| tel.get(event);
    let counted = match &run.resumed {
        Some((checkpoint, _)) => run.fingerprint.execs - checkpoint.execs,
        None => run.fingerprint.execs,
    };
    assert_eq!(get(TelemetryEvent::Exec), counted, "{cell}: exec count");

    // Trace mode: the fast pass skips provably-seen execs outright; every
    // other exec is traced once.
    let fast = get(TelemetryEvent::FastPathExec);
    let retraced = get(TelemetryEvent::RetraceExec);
    match run.trace {
        TraceMode::Always => assert_eq!(fast + retraced, 0, "{cell}: always-trace used the oracle"),
        _ => {
            assert!(fast > 0, "{cell}: fast path never fired");
            assert!(fast + retraced <= counted, "{cell}: fast-pass accounting");
        }
    }
    let traced = counted - fast;

    // Sparse dispatch: forced modes send every traced exec down their path.
    let sparse = get(TelemetryEvent::SparseDispatch);
    let dense = get(TelemetryEvent::DenseDispatch);
    assert_eq!(sparse + dense, traced, "{cell}: dispatch accounting");
    let effective_sparse = match run.policy.scheme {
        MapScheme::Flat => SparseMode::Off,
        MapScheme::TwoLevel => run.policy.sparse.unwrap_or_else(sparse_request),
    };
    match effective_sparse {
        SparseMode::On => {
            assert_eq!(
                get(TelemetryEvent::JournalOverflow),
                0,
                "{cell}: journal overflowed"
            );
            assert_eq!(sparse, traced, "{cell}: forced sparse took the dense path");
        }
        SparseMode::Off => assert_eq!(dense, traced, "{cell}: forced dense took the sparse path"),
        SparseMode::Auto => {}
    }

    // Engine: auto compiles every dispatch (the fast pass and the traced
    // run are one dispatch each) and reuses parent snapshots.
    let compiled = get(TelemetryEvent::CompiledExec);
    let hits = get(TelemetryEvent::SnapshotHit);
    match run.interp {
        InterpMode::Tree => assert_eq!(compiled + hits, 0, "{cell}: tree mode compiled"),
        InterpMode::Auto => {
            assert_eq!(
                compiled,
                counted + retraced,
                "{cell}: an exec bypassed the compiled engine"
            );
            assert!(hits > 0, "{cell}: no parent snapshot was ever reused");
        }
    }

    // Huge pages: the map is attributed to the backend its policy asked
    // for; a map smaller than one huge page always sits on plain pages.
    let alloc_ok = match run.huge {
        _ if run.policy.map_size.bytes() < HUGE_PAGE_BYTES => get(TelemetryEvent::AllocPlain) >= 1,
        HugePolicy::Off => get(TelemetryEvent::AllocPlain) >= 1,
        HugePolicy::Thp => get(TelemetryEvent::AllocThp) >= 1,
        HugePolicy::Explicit => {
            get(TelemetryEvent::AllocExplicitHuge) + get(TelemetryEvent::AllocFallback) >= 1
        }
    };
    assert!(
        alloc_ok,
        "{cell}: map never attributed to the {:?} backend",
        run.huge
    );

    // Resume: selective campaigns carry their oracle across the restore,
    // always-trace campaigns have none to carry.
    if let Some((checkpoint, restored)) = &run.resumed {
        match run.trace {
            TraceMode::Always => assert!(checkpoint.oracle.is_none(), "{cell}: stray oracle"),
            _ => {
                let persisted = checkpoint
                    .oracle
                    .as_ref()
                    .expect("checkpoint carries the oracle");
                assert!(
                    !persisted.paths.is_empty(),
                    "{cell}: empty oracle checkpointed"
                );
                let restored = restored.as_ref().expect("oracle survives the restore");
                assert!(
                    persisted
                        .paths
                        .iter()
                        .all(|p| restored.paths.binary_search(p).is_ok()),
                    "{cell}: restore dropped committed path hashes"
                );
                assert_eq!(restored.buckets.len(), persisted.buckets.len(), "{cell}");
            }
        }
    }
}

/// The reference fingerprint at `map_size`, computed once per process.
pub fn reference(map_size: MapSize) -> &'static Fingerprint {
    static K64: OnceLock<Fingerprint> = OnceLock::new();
    static M2: OnceLock<Fingerprint> = OnceLock::new();
    static M256: OnceLock<Fingerprint> = OnceLock::new();
    let cell = match map_size {
        MapSize::K64 => &K64,
        MapSize::M2 => &M2,
        MapSize::M256 => &M256,
        other => panic!("no reference at {other:?}"),
    };
    cell.get_or_init(|| {
        let run = run(Policy::reference(map_size));
        assert_mechanism_fired(&run);
        run.fingerprint
    })
}

/// Runs `policy` and asserts it both fired and matched its reference.
pub fn check(policy: Policy) {
    let expected = reference(policy.map_size);
    let run = run(policy);
    assert_mechanism_fired(&run);
    let mut actual = run.fingerprint;
    if policy.scheme == MapScheme::Flat {
        // AFL's flat map has no condensed prefix: it always "uses" the
        // whole allocation, and its virgin bytes sit at key positions, not
        // in discovery order, so their CRCs cannot equal the condensed
        // reference's. Its novelty state is pinned by the discovered-slot
        // count and every admission and crash decision instead.
        assert_eq!(actual.used_len, policy.map_size.bytes());
        actual.used_len = expected.used_len;
        actual.virgin_crcs = expected.virgin_crcs;
    }
    if policy.resume_at.is_some() {
        // A restore rebuilds the virgin maps by replaying the checkpointed
        // queue, crash and hang inputs, which reproduces every discovered
        // edge but not every hit-count bucket bit the uninterrupted run
        // saw (trimmed entries, crashes outside the saved set). The
        // decisions after the restore are still pinned by every other
        // field.
        actual.virgin_crcs = expected.virgin_crcs;
    }
    assert_eq!(
        actual.diverging_fields(expected),
        Vec::<&str>::new(),
        "{policy:?} left the reference trajectory"
    );
}
