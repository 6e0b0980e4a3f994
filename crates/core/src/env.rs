//! The `BIGMAP_*` environment knobs, in one place.
//!
//! Every runtime tunable the workspace reads from the environment is
//! declared here as a [`Knob`]: its name, accepted values, default and
//! one-line description. The typed accessors ([`kernel_request`],
//! [`sparse_request`], [`trace_request`], [`interp_request`],
//! [`huge_request`], [`numa_request`], [`fabric_worker`],
//! [`heartbeat_ms`]) parse and validate in one pass and are the only code
//! in the workspace that calls `std::env::var` for a `BIGMAP_*` name, so
//! the registry cannot drift from the behaviour.
//!
//! Two consequences of centralizing:
//!
//! * The README's knob table is **generated** from the registry
//!   ([`markdown_table`]) and a facade test asserts the README contains
//!   it verbatim — documentation cannot go stale.
//! * The first knob read scans the process environment for `BIGMAP_*`
//!   names the registry does not know and warns once per process
//!   ([`warn_unrecognized_once`]) — a typo like `BIGMAP_KERNAL=avx2`
//!   surfaces immediately instead of silently doing nothing.
//!
//! # Examples
//!
//! ```rust
//! use bigmap_core::env;
//!
//! // The registry knows every knob and renders the README table.
//! assert!(env::KNOBS.iter().any(|k| k.name == "BIGMAP_KERNEL"));
//! let table = env::markdown_table();
//! assert!(table.contains("`BIGMAP_SPARSE`"));
//! ```

use std::sync::OnceLock;

use crate::alloc::{HugePolicy, NumaPolicy};
use crate::interp::InterpMode;
use crate::kernels::KernelKind;
use crate::sparse::SparseMode;
use crate::trace::TraceMode;

/// One documented environment knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knob {
    /// The environment variable name.
    pub name: &'static str,
    /// Accepted values, human-readable.
    pub values: &'static str,
    /// The effective default when unset.
    pub default: &'static str,
    /// One-line description (README table cell).
    pub description: &'static str,
}

/// Every `BIGMAP_*` knob the workspace reads, in documentation order.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "BIGMAP_KERNEL",
        values: "`scalar` \\| `sse2` \\| `avx2`",
        default: "widest CPU-supported",
        description: "Pins the map-op kernel table (classify / compare / fused) for the whole \
                      process; unsupported values warn and fall back to detection.",
    },
    Knob {
        name: "BIGMAP_SPARSE",
        values: "`on` \\| `off` \\| `auto`",
        default: "`auto`",
        description: "Sparse touched-slot pipeline: `on` forces the journal walk whenever the \
                      journal is complete, `off` forces the dense prefix kernels, `auto` picks \
                      per exec by the measured run/touched crossover.",
    },
    Knob {
        name: "BIGMAP_TRACE_MODE",
        values: "`always` \\| `selective`",
        default: "`always`",
        description: "Two-speed execution: `always` traces every exec into the coverage map, \
                      `selective` runs untraced fast execs and re-traces only novelty-oracle \
                      flagged ones, falling back to direct tracing in re-trace-heavy windows. \
                      Both modes produce bit-identical campaign trajectories.",
    },
    Knob {
        name: "BIGMAP_INTERP",
        values: "`tree` \\| `auto`",
        default: "`auto`",
        description: "Target execution engine: `tree` walks the CFG IR, `auto` runs the \
                      flattened threaded bytecode with snapshot resets that resume mutated \
                      children from the scheduled parent's memoized trace prefix. Both modes \
                      produce bit-identical campaign trajectories.",
    },
    Knob {
        name: "BIGMAP_HUGE",
        values: "`explicit` \\| `thp` \\| `off`",
        default: "`thp`",
        description: "Page backend of the coverage map and journal stamps (the two-level \
                      index and the virgin maps always take base pages): `explicit` \
                      reserves hugetlbfs pages via `mmap(MAP_HUGETLB)` (1 GiB pages where the \
                      size allows, else 2 MiB) and falls back to `thp` with a telemetry-visible \
                      record when the pool is empty; `thp` advises transparent huge pages \
                      before first touch; `off` opts out of THP — the benchmark control arm.",
    },
    Knob {
        name: "BIGMAP_NUMA",
        values: "`auto` \\| `off` \\| `node:<n>`",
        default: "`auto`",
        description: "NUMA placement for worker maps: `auto` spreads workers round-robin \
                      across nodes (pinning each thread so first-touch lands its maps \
                      locally; a no-op on single-node hosts), `node:<n>` pins every worker to \
                      one node, `off` leaves kernel first-touch untouched. Refused syscalls \
                      degrade to unpinned execution, never an error.",
    },
    Knob {
        name: "BIGMAP_FABRIC_WORKER",
        values: "`<index>/<count>`",
        default: "unset",
        description: "Internal handshake set by the fleet parent on its child processes; a \
                      host binary that sees it assumes the worker role. Not for manual use.",
    },
    Knob {
        name: "BIGMAP_HEARTBEAT_MS",
        values: "milliseconds (integer, `0` disables)",
        default: "`500`",
        description: "Cadence at which fleet workers emit `HEARTBEAT` frames carrying their \
                      exec counter, so the parent can tell a hung worker from a slow one.",
    },
];

/// Looks a knob up by name.
pub fn knob(name: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.name == name)
}

/// Renders the registry as the README's GitHub-flavored markdown table.
pub fn markdown_table() -> String {
    let mut out = String::from("| Variable | Values | Default | Effect |\n|---|---|---|---|\n");
    for knob in KNOBS {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            knob.name, knob.values, knob.default, knob.description
        ));
    }
    out
}

/// Scans the environment for `BIGMAP_*` names the registry does not
/// declare and warns on stderr — once per process, on the first knob
/// read. Returns the unrecognized names (empty almost always).
pub fn warn_unrecognized_once() -> &'static [String] {
    static UNRECOGNIZED: OnceLock<Vec<String>> = OnceLock::new();
    UNRECOGNIZED.get_or_init(|| {
        let mut unknown: Vec<String> = std::env::vars_os()
            .filter_map(|(name, _)| name.into_string().ok())
            .filter(|name| name.starts_with("BIGMAP_") && knob(name).is_none())
            .collect();
        unknown.sort();
        for name in &unknown {
            eprintln!(
                "bigmap: unrecognized environment knob {name} (known: {}); ignoring it",
                KNOBS.iter().map(|k| k.name).collect::<Vec<_>>().join(", ")
            );
        }
        unknown
    })
}

/// Reads a declared knob's raw value, triggering the one-time
/// unrecognized-name scan.
///
/// # Panics
///
/// Panics if `name` is not in [`KNOBS`] — reading an undeclared knob is
/// a bug in this crate, not a user error.
pub fn raw(name: &str) -> Option<String> {
    assert!(knob(name).is_some(), "undeclared BIGMAP knob {name}");
    warn_unrecognized_once();
    std::env::var(name).ok()
}

/// `BIGMAP_KERNEL`: the requested kernel kind, if set and well-formed.
///
/// Unknown values warn on stderr and read as `None` (auto-detection).
/// CPU-support validation stays with the kernel dispatcher, which knows
/// what the host supports.
pub fn kernel_request() -> Option<KernelKind> {
    parse_kernel(raw("BIGMAP_KERNEL").as_deref())
}

/// The pure parse policy behind [`kernel_request`] (`None` = unset), so
/// tests can cover it without touching the process environment.
pub fn parse_kernel(raw: Option<&str>) -> Option<KernelKind> {
    let raw = raw?;
    match KernelKind::from_label(raw.trim()) {
        Some(kind) => Some(kind),
        None => {
            eprintln!(
                "BIGMAP_KERNEL={raw}: unknown kernel (expected scalar|sse2|avx2), \
                 falling back to auto-detection"
            );
            None
        }
    }
}

/// `BIGMAP_SPARSE`: the requested sparse dispatch mode.
///
/// Unknown values warn on stderr and read as [`SparseMode::Auto`]; the
/// parse policy itself lives in [`crate::sparse::select_mode`].
pub fn sparse_request() -> SparseMode {
    crate::sparse::select_mode(raw("BIGMAP_SPARSE").as_deref())
}

/// `BIGMAP_TRACE_MODE`: the requested two-speed execution mode.
///
/// Unknown values warn on stderr and read as [`TraceMode::Always`]; the
/// parse policy itself lives in [`crate::trace::select_trace_mode`].
pub fn trace_request() -> TraceMode {
    crate::trace::select_trace_mode(raw("BIGMAP_TRACE_MODE").as_deref())
}

/// `BIGMAP_INTERP`: the requested target execution engine.
///
/// Unknown values warn on stderr and read as [`InterpMode::Auto`]; the
/// parse policy itself lives in [`crate::interp::select_interp_mode`].
pub fn interp_request() -> InterpMode {
    crate::interp::select_interp_mode(raw("BIGMAP_INTERP").as_deref())
}

/// `BIGMAP_HUGE`: the requested map-buffer page backend.
///
/// Unknown values warn on stderr and read as [`HugePolicy::Thp`]; the
/// parse policy itself lives in [`crate::alloc::parse_huge`].
pub fn huge_request() -> HugePolicy {
    crate::alloc::parse_huge(raw("BIGMAP_HUGE").as_deref())
}

/// `BIGMAP_NUMA`: the requested NUMA placement policy.
///
/// Unknown values warn on stderr and read as [`NumaPolicy::Auto`]; the
/// parse policy itself lives in [`crate::alloc::parse_numa`].
pub fn numa_request() -> NumaPolicy {
    crate::alloc::parse_numa(raw("BIGMAP_NUMA").as_deref())
}

/// `BIGMAP_FABRIC_WORKER`: the `(index, count)` worker handshake, if this
/// process was spawned as a fleet worker. Malformed values (wrong shape,
/// `index >= count`, zero count) warn and read as `None` — the process
/// then runs its normal (parent) role rather than a half-configured
/// worker.
pub fn fabric_worker() -> Option<(usize, usize)> {
    let raw = raw("BIGMAP_FABRIC_WORKER")?;
    let parsed = raw.trim().split_once('/').and_then(|(index, count)| {
        let index = index.trim().parse::<usize>().ok()?;
        let count = count.trim().parse::<usize>().ok()?;
        (index < count).then_some((index, count))
    });
    if parsed.is_none() {
        eprintln!(
            "BIGMAP_FABRIC_WORKER={raw}: expected <index>/<count> with index < count; \
             ignoring (running as a normal process)"
        );
    }
    parsed
}

/// Default for [`heartbeat_ms`].
pub const HEARTBEAT_MS_DEFAULT: u64 = 500;

/// `BIGMAP_HEARTBEAT_MS`: worker heartbeat cadence in milliseconds;
/// `0` disables the heartbeat thread. Malformed values warn and read as
/// the default.
pub fn heartbeat_ms() -> u64 {
    match raw("BIGMAP_HEARTBEAT_MS") {
        None => HEARTBEAT_MS_DEFAULT,
        Some(raw) => raw.trim().parse::<u64>().unwrap_or_else(|_| {
            eprintln!(
                "BIGMAP_HEARTBEAT_MS={raw}: expected milliseconds (integer), \
                 using {HEARTBEAT_MS_DEFAULT}"
            );
            HEARTBEAT_MS_DEFAULT
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_prefixed() {
        let mut names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate knob names");
        assert!(names.iter().all(|n| n.starts_with("BIGMAP_")));
    }

    #[test]
    fn registry_declares_exactly_the_surviving_knobs() {
        let names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        assert_eq!(
            names,
            [
                "BIGMAP_KERNEL",
                "BIGMAP_SPARSE",
                "BIGMAP_TRACE_MODE",
                "BIGMAP_INTERP",
                "BIGMAP_HUGE",
                "BIGMAP_NUMA",
                "BIGMAP_FABRIC_WORKER",
                "BIGMAP_HEARTBEAT_MS",
            ]
        );
    }

    #[test]
    fn lookup_finds_declared_knobs_only() {
        assert!(knob("BIGMAP_KERNEL").is_some());
        assert!(knob("BIGMAP_SPARSE").is_some());
        assert!(knob("BIGMAP_KERNAL").is_none());
    }

    #[test]
    fn markdown_table_lists_every_knob() {
        let table = markdown_table();
        for knob in KNOBS {
            assert!(
                table.contains(&format!("`{}`", knob.name)),
                "{} missing from the table",
                knob.name
            );
        }
        // Header plus one row per knob.
        assert_eq!(table.lines().count(), 2 + KNOBS.len());
    }

    #[test]
    #[should_panic(expected = "undeclared BIGMAP knob")]
    fn raw_rejects_undeclared_names() {
        let _ = raw("BIGMAP_NOT_A_KNOB");
    }

    // The typed accessors read the live process environment; tests cover
    // the unset path only (setting env vars in a threaded test binary is
    // racy). The parse policies are covered through their pure `select`
    // counterparts in `kernels`/`sparse` and the fabric handshake tests.
    #[test]
    fn unset_knobs_read_as_defaults() {
        // The test environment does not set these (CI pins happen in
        // dedicated jobs that only run the equivalence suites).
        if std::env::var_os("BIGMAP_FABRIC_WORKER").is_none() {
            assert_eq!(fabric_worker(), None);
        }
        if std::env::var_os("BIGMAP_TRACE_MODE").is_none() {
            assert_eq!(trace_request(), TraceMode::Always);
        }
        if std::env::var_os("BIGMAP_INTERP").is_none() {
            assert_eq!(interp_request(), InterpMode::Auto);
        }
        if std::env::var_os("BIGMAP_HUGE").is_none() {
            assert_eq!(huge_request(), HugePolicy::Thp);
        }
        if std::env::var_os("BIGMAP_NUMA").is_none() {
            assert_eq!(numa_request(), NumaPolicy::Auto);
        }
        if std::env::var_os("BIGMAP_HEARTBEAT_MS").is_none() {
            assert_eq!(heartbeat_ms(), HEARTBEAT_MS_DEFAULT);
        }
    }

    #[test]
    fn unrecognized_scan_is_stable() {
        // Whatever it returns, it returns the same slice forever after.
        let first = warn_unrecognized_once();
        let second = warn_unrecognized_once();
        assert_eq!(first.as_ptr(), second.as_ptr());
    }
}
