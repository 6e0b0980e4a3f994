//! Campaign trajectories are independent of the per-campaign mechanism
//! policies: the two-level sparse {off, on, auto} × trace {always,
//! selective} × engine {tree, auto} × resume {none, mid-run} cross-product,
//! each cell checked against the reference trajectory by the policy
//! harness in `tests/common` (which also asserts, from telemetry, that the
//! cell's mechanism fired). The three tests partition the cross-product
//! by the mechanism a cell adds to the reference, so every cell runs once.
//! The map-op kernel arm and the scheme / huge-page cells live in
//! `tests/invariance.rs`.

mod common;

use bigmap::prelude::*;
use common::{check, Policy, BUDGET};

/// Checks every two-level cell in `sparse × trace × interp`, each both
/// uninterrupted and resumed mid-run.
fn check_cells(sparse: &[SparseMode], trace: &[TraceMode], interp: &[InterpMode]) {
    for &sparse in sparse {
        for &trace in trace {
            for &interp in interp {
                for resume_at in [None, Some(BUDGET / 2)] {
                    check(Policy {
                        sparse: Some(sparse),
                        trace: Some(trace),
                        interp: Some(interp),
                        resume_at,
                        ..Policy::reference(MapSize::M2)
                    });
                }
            }
        }
    }
}

const SPARSE_MODES: [SparseMode; 3] = [SparseMode::Off, SparseMode::On, SparseMode::Auto];

#[test]
fn campaign_trajectory_is_sparse_mode_invariant() {
    // The sparse journal walk and the dense kernel pass are alternative
    // implementations of the same map ops: forcing either one, or leaving
    // the adaptive policy to flip between them per exec, must not move the
    // trajectory.
    check_cells(&SPARSE_MODES, &[TraceMode::Always], &[InterpMode::Tree]);
}

#[test]
fn campaign_trajectory_is_trace_mode_invariant() {
    // Selective tracing skips only provably-seen execs, so it must reach
    // the always-trace trajectory under every dispatch mode and across a
    // resume that carries its oracle.
    check_cells(&SPARSE_MODES, &[TraceMode::Selective], &[InterpMode::Tree]);
}

#[test]
fn campaign_trajectory_is_interp_mode_invariant() {
    // The compiled engine with snapshot resets must reproduce the tree
    // walker's trajectory under every dispatch and trace mode.
    check_cells(
        &SPARSE_MODES,
        &[TraceMode::Always, TraceMode::Selective],
        &[InterpMode::Auto],
    );
}
