//! Quick probe for the giant-regime sparse walk: times
//! `classify_and_compare_runs` over the bench_mapops giant-arm layout
//! (constant ~1.3 Mi-slot active set, 64-byte clusters) at a chosen map
//! size, isolating the run-walk cost from the full bench harness so
//! prefetch-depth experiments turn around in seconds.
//!
//! Usage: `cargo run --release -p bigmap-core --example giant_probe -- [MiB] [iters]`

use bigmap_core::alloc::MapBuffer;
use bigmap_core::journal::SlotRun;
use bigmap_core::kernels;
use bigmap_core::sparse::classify_and_compare_runs;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let mib: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);
    let iters: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(400);
    let size = mib << 20;
    let touched = (64 << 20) / 50 / 64 * 64; // the bench giant arm's active set
    let n_runs = touched / 64;
    let stride = size / n_runs;

    // Deterministic shuffled cluster order, mimicking first-touch order.
    let mut bases: Vec<usize> = (0..n_runs).map(|i| i * stride).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..bases.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        bases.swap(i, (state >> 33) as usize % (i + 1));
    }
    let runs: Vec<SlotRun> = bases
        .iter()
        .map(|&b| SlotRun {
            base: b as u32,
            len: 64,
        })
        .collect();

    let mut cur = MapBuffer::<u8>::zeroed(size);
    for r in &runs {
        for (off, b) in cur.as_mut_slice()[r.range()].iter_mut().enumerate() {
            *b = (off as u8) | 1;
        }
    }
    let mut virgin = MapBuffer::<u8>::zeroed(size);
    let table = kernels::active();

    for _ in 0..3 {
        let _ = classify_and_compare_runs(cur.as_mut_slice(), virgin.as_mut_slice(), &runs, table);
    }
    let start = Instant::now();
    for _ in 0..iters {
        let _ = classify_and_compare_runs(cur.as_mut_slice(), virgin.as_mut_slice(), &runs, table);
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    println!(
        "{mib}M sparse fused: {ns:.0} ns/op ({n_runs} runs, backend {})",
        cur.backend().label()
    );
}
