#!/usr/bin/env python3
"""Campaign benchmark for the bigmap workspace.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the `perfbench`
binary from source (into $CARGO_TARGET_DIR, default `.bench_build`), then
runs repetitions of one workload, each in a fresh process, until the
measured time (set-up plus fuzzing) adds up to `--seconds`. Every
repetition is a closed loop: a campaign fuzzes its next child only after
the previous exec was judged, one client per campaign instance.

`--seed n` stands for the campaign seeds n*4 .. n*4+3; repetition i runs
campaign seed n*4 + i%4, so a run covers four search trajectories and
repeats at least one of them.

With `--trace 0` each repetition is an untraced campaign and the
end-to-end metrics are medians over the run. With `--trace 1` each
repetition is the tracer plus its reference campaigns, and the
per-layer metrics are medians over those. A human-readable report goes
to stderr; the last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = ROOT / "BENCHMARK.json"

# Campaign seeds per benchmark seed.
SUB_SEEDS = 4
# Untraced repetitions per run at least: every campaign seed once, plus
# one repeat for the determinism check.
MIN_REPS = SUB_SEEDS + 1
MAX_REPS = 40
# No repetition is started after this much wall time, and none may run
# longer than REP_TIMEOUT_S, so one invocation ends well inside 180 s.
LAUNCH_DEADLINE_S = 100.0
REP_TIMEOUT_S = 70.0
# Percentiles tried for a timing's tail, most extreme first: the tail
# reported is the most extreme one with at least ten samples beyond it.
TAIL_LADDER = (0.99, 0.9, 0.75)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    scratch = target / "perfbench-scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    return target / "release" / "perfbench", scratch


def run_rep(binary, mode, workload, campaign_seed, scratch):
    """One repetition in a fresh process; its record, or None on failure."""
    cmd = [str(binary), mode, "--workload", workload, "--seed", str(campaign_seed),
           "--scratch", str(scratch)]
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                timeout=REP_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {mode} repetition timed out after {REP_TIMEOUT_S} s")
        return None
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log(f"perfbench: {mode} repetition exited with {result.returncode}")
        return None
    return json.loads(lines[-1])


def repeat(binary, mode, args, scratch, measured, min_reps):
    """Repetitions until `measured(record, wall)` adds up to --seconds."""
    records, failed_reps, total = [], 0, 0.0
    start = time.monotonic()
    for i in range(MAX_REPS):
        if len(records) >= min_reps and total >= args.seconds:
            break
        if records and time.monotonic() - start > LAUNCH_DEADLINE_S:
            break
        if failed_reps >= 2 and not records:
            break
        rep_start = time.monotonic()
        record = run_rep(binary, mode, args.workload,
                         args.seed * SUB_SEEDS + i % SUB_SEEDS, scratch)
        wall = time.monotonic() - rep_start
        if record is None:
            failed_reps += 1
            continue
        records.append(record)
        total += measured(record, wall)
    return records, failed_reps


def summarize(values, better):
    """Median, plus the tail percentile on the bad side (high for
    lower-is-better, low for higher-is-better): the most extreme one that
    still has at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    median = statistics.median(ordered)
    for q in TAIL_LADDER:
        rank = min(n, max(1, math.ceil(round(q * n, 9)))) - 1
        if n - 1 - rank >= 10:
            if better == "higher":
                return median, (1 - q, ordered[n - 1 - rank])
            return median, (q, ordered[rank])
    return median, None


def describe(metric, values):
    median, tail = summarize(values, metric["better"])
    tail_text = (f", p{tail[0] * 100:.3g} {tail[1]:.6g}" if tail
                 else " (no tail: fewer than 11 samples)")
    return (f"  {metric['name']:<20} {median:>14.6g} {metric['unit']:<6} "
            f"median of n={len(values)}{tail_text}")


def report_policies(records):
    policies = {json.dumps(r["policies"], sort_keys=True) for r in records}
    for p in sorted(policies):
        p = json.loads(p)
        log("  policies: " + " ".join(f"{k}={v}" for k, v in p.items() if v != ""))
        if p.get("bigmap_env"):
            log(f"  WARNING: BIGMAP_* set in the environment ({p['bigmap_env']}); "
                "these figures are not comparable with a default run")


def samples(name, records):
    """The samples behind one end-to-end metric."""
    if name == "coverage_at_budget" and records[0]["fingerprint"]:
        # Deterministic per campaign seed: one sample per seed.
        return list({r["seed"]: float(r["coverage"]) for r in records}.values())
    field = {"execs_per_s": "execs_per_s", "coverage_at_budget": "coverage",
             "setup_s": "setup_s", "peak_rss_mib": "peak_rss_mib"}[name]
    return [float(r[field]) for r in records]


def untraced(spec, binary, args, scratch):
    records, failed_reps = repeat(binary, "rep", args, scratch,
                                  lambda r, _wall: r["setup_s"] + r["fuzz_s"], MIN_REPS)
    attempted = sum(r["attempted"] for r in records) + failed_reps
    failed = sum(r["failed"] for r in records) + failed_reps
    failures = [r["failures"] for r in records if r["failures"]]
    if failed_reps:
        failures.append(f"{failed_reps} repetition(s) did not finish")

    # A single-instance campaign must end at the identical trajectory
    # fingerprint in every process that runs its seed.
    first = {}
    for r in records:
        if not r["fingerprint"]:
            continue
        if r["seed"] not in first:
            first[r["seed"]] = r["fingerprint"]
            continue
        attempted += 1
        if r["fingerprint"] != first[r["seed"]]:
            failed += 1
            failures.append(f"seed {r['seed']}: fingerprint differs between repetitions: "
                            f"{first[r['seed']]} vs {r['fingerprint']}")

    log(f"perfbench {args.workload} seed={args.seed}: {len(records)} repetitions, "
        "each a fresh process running one closed-loop campaign")
    metrics = {}
    if records:
        for m in spec["end_to_end"]:
            values = samples(m["name"], records)
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
            log(describe(m, values))
        thp = [r["thp_mib"] for r in records if "thp_mib" in r]
        if thp:
            log(f"  {'(THP-backed)':<20} {statistics.median(thp):>14.6g} MiB    "
                "anonymous memory on transparent huge pages after set-up")
        log(f"  setup_s of the first (cold) repetition: {records[0]['setup_s']:.4f} s; "
            "setup_s is the median over all repetitions, the cold one included")
        for seed, fingerprint in first.items():
            log(f"  campaign seed {seed}: {fingerprint}")
        report_policies(records)
    log(f"  failure_share        {failed}/{attempted} = {failed / max(attempted, 1):.4g}")
    for f in failures:
        log(f"  FAILED: {f}")
    return metrics, attempted, failed, bool(records)


def traced(spec, binary, args, scratch):
    records, failed_reps = repeat(binary, "trace", args, scratch,
                                  lambda _r, wall: wall, 1)
    attempted = sum(r["attempted"] for r in records) + failed_reps
    failed = sum(r["failed"] for r in records) + failed_reps
    valid = [r for r in records if r["valid"]]
    log(f"perfbench {args.workload} seed={args.seed} (traced): {len(records)} traced "
        f"repetitions, {len(valid)} valid (fingerprint and ledger checks passed)")
    for r in records:
        if r["failures"]:
            log(f"  FAILED: {r['failures']}")
    metrics = {}
    for m in spec["per_layer"]:
        values = [r["metrics"][m["name"]]["value"] for r in valid]
        units = {r["metrics"][m["name"]]["unit"] for r in valid}
        if values and units != {m["unit"]}:
            log(f"  unit mismatch for {m['name']}: {units} vs {m['unit']}")
            failed += 1
            attempted += 1
        median = statistics.median(values) if values else None
        metrics[m["name"]] = {"value": median, "unit": m["unit"]}
        shown = "INVALID" if median is None else f"{median:.6g}"
        log(f"  {m['name']:<34} {shown:>14} {m['unit']}")
    if records:
        report_policies(records)
    log(f"  failure_share        {failed}/{attempted} = {failed / max(attempted, 1):.4g}")
    return metrics, attempted, failed, bool(records)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload}")
    binary, scratch = build()
    run = traced if args.trace else untraced
    metrics, attempted, failed, ran = run(spec, binary, args, scratch)
    if not ran:
        log("perfbench: no repetition completed")
        sys.exit(1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
