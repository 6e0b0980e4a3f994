//! `perfbench`: one process runs one repetition of one workload and
//! prints one JSON record as its last stdout line. `run.py` launches the
//! repetitions, each in a fresh process, and aggregates them.
//!
//! ```text
//! perfbench rep   --workload <name> --seed <n> --scratch <dir>
//! perfbench trace --workload <name> --seed <n> --scratch <dir>
//! ```
//!
//! `rep` is the untraced end-to-end run: set-up, then `Campaign::run`
//! (or `run_supervised` for the fleet) with no tracing or telemetry
//! attached. `trace` is the per-layer run: the benchmark's own tracer
//! steps the campaign loop through the layers' public functions with a
//! span around each call, and cross-checks itself against the untraced
//! campaign and the program's own telemetry.

mod fleet;
mod json;
mod spans;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bigmap_core::MapScheme;
use bigmap_fuzzer::Campaign;
use bigmap_target::Interpreter;

use json::Obj;
use workload::{Fingerprint, Tally, Target, Workload};

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().ok_or("missing mode (rep | trace)")?;
    let (mut workload, mut seed, mut scratch) = (None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        scratch: scratch.ok_or("missing --scratch")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let record = match (args.mode.as_str(), args.workload.instances) {
        ("rep", 1) => rep(&args.workload, args.seed),
        ("rep", _) => fleet::rep(&args.workload, args.seed, &args.scratch),
        ("trace", 1) => traced::run(&args.workload, args.seed),
        ("trace", _) => fleet::trace(&args.workload, args.seed, &args.scratch),
        (mode, _) => {
            eprintln!("perfbench: unknown mode {mode}");
            return ExitCode::from(2);
        }
    };
    println!("{record}");
    ExitCode::SUCCESS
}

/// One untraced single-instance repetition. Set-up runs from the start
/// of the workload until `Campaign::run` begins: program generation,
/// instrumentation, engine lowering, map and virgin allocation, and the
/// seed dry runs.
fn rep(workload: &Workload, seed: u64) -> String {
    let mut tally = Tally::default();
    let start = Instant::now();
    let target = Target::build(workload);
    let interpreter = Interpreter::new(&target.program);
    let mut campaign = Campaign::new(workload.config(seed), &interpreter, &target.instrumentation);
    campaign.add_seeds(target.seeds.clone());
    let setup = start.elapsed();
    let thp = workload::thp_mib();
    let stats = campaign.run();
    let peak_rss = workload::peak_rss_mib();
    tally.op("campaign", stats.execs == workload.budget, || {
        format!("ran {} of {} execs", stats.execs, workload.budget)
    });
    let fingerprint = Fingerprint::of(&stats);

    // The flat map and the two-level map must walk the same trajectory:
    // the paper's observational equivalence, checked at the flat budget.
    if workload.scheme == MapScheme::Flat {
        let mut two_level = Campaign::new(
            Workload {
                scheme: MapScheme::TwoLevel,
                ..*workload
            }
            .config(seed),
            &interpreter,
            &target.instrumentation,
        );
        two_level.add_seeds(target.seeds.clone());
        let other = Fingerprint::of(&two_level.run());
        tally.op("flat_equiv_two_level", other == fingerprint, || {
            format!("flat {} vs two-level {}", fingerprint.text(), other.text())
        });
    }

    let record = Obj::new()
        .str("workload", workload.name)
        .int("seed", seed)
        .num("setup_s", setup.as_secs_f64())
        .num("fuzz_s", stats.wall_time.as_secs_f64())
        .int("execs", stats.execs)
        .num(
            "execs_per_s",
            workload::loop_rate(&stats, target.seeds.len()),
        )
        .int("coverage", stats.discovered_slots as u64)
        .num("peak_rss_mib", peak_rss)
        .num("thp_mib", thp)
        .str("fingerprint", &fingerprint.text())
        .obj("policies", workload::policies());
    tally.json(record).finish()
}
