//! Trace-mode selection for two-speed execution.
//!
//! The campaign can run every test case with full coverage tracing
//! (`always`), or run untraced fast execs and re-trace only the ones the
//! novelty oracle flags (`selective`), falling back to direct tracing in
//! windows where the fast pass is re-tracing almost everything anyway.
//! The mode is a pure dispatch choice: selective tracing is
//! coverage-preserving by construction (the oracle is strictly
//! conservative), so both modes produce bit-identical campaign
//! trajectories.

/// Which execution speed(s) the campaign uses per test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Every exec runs fully traced into the coverage map. The default:
    /// maximum telemetry fidelity, no oracle in the loop.
    #[default]
    Always,
    /// Execs run untraced first; only oracle-flagged ones re-run traced.
    /// A deterministic windowed fallback traces directly while recent
    /// re-trace rates make the fast pass pure overhead.
    Selective,
}

impl TraceMode {
    /// The canonical lowercase label (`always` / `selective`).
    pub fn label(self) -> &'static str {
        match self {
            TraceMode::Always => "always",
            TraceMode::Selective => "selective",
        }
    }

    /// Parses a label, case-insensitively. `None` for unknown values.
    pub fn from_label(label: &str) -> Option<Self> {
        match label.to_ascii_lowercase().as_str() {
            "always" => Some(TraceMode::Always),
            "selective" => Some(TraceMode::Selective),
            _ => None,
        }
    }

    /// All modes, for exhaustive tests and equivalence sweeps.
    pub const ALL: [TraceMode; 2] = [TraceMode::Always, TraceMode::Selective];
}

/// Resolves the trace mode from an env override (the raw value of
/// `BIGMAP_TRACE_MODE`, if set). Unknown values warn on stderr and fall
/// back to the default ([`TraceMode::Always`]).
pub fn select_trace_mode(env_override: Option<&str>) -> TraceMode {
    match env_override {
        None => TraceMode::default(),
        Some(raw) => match TraceMode::from_label(raw.trim()) {
            Some(mode) => mode,
            None => {
                eprintln!(
                    "BIGMAP_TRACE_MODE={raw}: unknown mode (expected always|selective), \
                     using always"
                );
                TraceMode::default()
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for mode in TraceMode::ALL {
            assert_eq!(TraceMode::from_label(mode.label()), Some(mode));
        }
        assert_eq!(
            TraceMode::from_label("SELECTIVE"),
            Some(TraceMode::Selective)
        );
        assert_eq!(TraceMode::from_label("fast"), None);
    }

    #[test]
    fn select_falls_back_to_always() {
        assert_eq!(select_trace_mode(None), TraceMode::Always);
        assert_eq!(select_trace_mode(Some("selective")), TraceMode::Selective);
        assert_eq!(select_trace_mode(Some(" Selective ")), TraceMode::Selective);
        assert_eq!(select_trace_mode(Some("auto")), TraceMode::Always);
        assert_eq!(select_trace_mode(Some("bogus")), TraceMode::Always);
    }

    #[test]
    fn default_is_always() {
        assert_eq!(TraceMode::default(), TraceMode::Always);
    }
}
