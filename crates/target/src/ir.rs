//! Program IR: a flat array of basic blocks grouped into functions.
//!
//! The IR models exactly what a coverage-guided fuzzer can observe about a
//! compiled target: basic blocks with static successor edges, byte-guarded
//! branches, multi-byte compare ladders, switches, bounded loops, guarded
//! calls between functions, and crash / hang sites. Block indices are
//! *global* across the whole program — they are the values an
//! instrumentation pass assigns random map IDs to, and the values the
//! interpreter reports to a [`crate::TraceSink`].

use crate::error::TargetError;

/// Sorted, deduplicated list of static `(from, to)` block-index edges.
pub type EdgePairs = Vec<(usize, usize)>;

/// One basic block. `kind` carries the block's behaviour and its static
/// successors (as global block indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Block {
    /// Behaviour + successors.
    pub(crate) kind: BlockKind,
    /// Function this block belongs to (index into `Program::functions`).
    pub(crate) function: usize,
}

/// Behaviour of a basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BlockKind {
    /// Unconditional fall-through to `next`.
    Jump {
        /// Successor block.
        next: usize,
    },
    /// Single-byte guard: `input[offset] == value` branches to `taken`,
    /// otherwise to `fallthrough`. A read past the end of the input fails
    /// the guard — synthetic targets length-check like real parsers do.
    ByteGuard {
        /// Input offset the guard reads.
        offset: usize,
        /// Byte value the guard compares against.
        value: u8,
        /// Successor when the comparison holds.
        taken: usize,
        /// Successor when it does not.
        fallthrough: usize,
    },
    /// Masked single-byte guard: `input[offset] & mask == value` branches
    /// to `taken`, otherwise to `fallthrough`. Produced by
    /// [`crate::apply_laf_intel`] when it splits a byte equality into
    /// bit-prefix rungs; an out-of-range read fails the guard.
    MaskGuard {
        /// Input offset the guard reads.
        offset: usize,
        /// Bit mask applied to the input byte before comparing.
        mask: u8,
        /// Expected value of the masked byte (already masked).
        value: u8,
        /// Successor when the masked comparison holds.
        taken: usize,
        /// Successor when it does not.
        fallthrough: usize,
    },
    /// K-byte all-at-once compare: `input[offset + i] == values[i]` for all
    /// `i` (any out-of-range byte fails the compare). This is the roadblock
    /// construct laf-intel splits into a cascade of sub-byte guards.
    MagicGuard {
        /// Offset of the first compared byte.
        offset: usize,
        /// The magic byte string.
        values: Vec<u8>,
        /// Successor when every byte matches.
        taken: usize,
        /// Successor when any byte differs.
        fallthrough: usize,
    },
    /// Multi-way branch on a single input byte. Each arm is `(case value,
    /// arm block)`; a non-matching byte goes to `default`.
    Switch {
        /// Input offset the switch scrutinises.
        offset: usize,
        /// Case arms as `(value, arm block)` pairs.
        arms: Vec<(u8, usize)>,
        /// Successor when no case matches.
        default: usize,
    },
    /// Bounded loop head. Iteration count is `input[offset] % max_iters`
    /// (zero when `max_iters` is 0 or `offset` is out of range); each
    /// iteration
    /// visits `body` and re-visits the head, then control leaves to `exit`.
    LoopHead {
        /// Input offset controlling the iteration count.
        offset: usize,
        /// Exclusive upper bound on iterations.
        max_iters: u8,
        /// Loop body block.
        body: usize,
        /// Successor after the final iteration.
        exit: usize,
    },
    /// Call site: transfers control to `function`'s entry block, then
    /// resumes at `next`. `call_site` is the dense call-site index reported
    /// to [`crate::TraceSink::on_call`].
    Call {
        /// Callee function index.
        function: usize,
        /// Dense call-site index (`0..Program::call_sites`).
        call_site: usize,
        /// Resume block in the caller.
        next: usize,
    },
    /// Crash site: execution terminates with
    /// [`crate::ExecOutcome::Crash`]. No static out-edges.
    Crash {
        /// Dense crash-site index (`0..Program::crash_sites`).
        site: usize,
    },
    /// Hang site: models an unbounded loop. The interpreter's step budget
    /// is exhausted immediately and the run reports
    /// [`crate::ExecOutcome::Hang`]. No static out-edges.
    Hang,
    /// Function return. Return edges are attributed to call sites (they
    /// depend on the dynamic return address), not to this block.
    Return,
}

/// Per-function bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FunctionInfo {
    /// Entry block (global index).
    pub(crate) entry: usize,
    /// The function's single return block (global index).
    pub(crate) ret: usize,
}

/// A synthetic instrumented target: a named control-flow graph ready to be
/// executed by an [`crate::Interpreter`] and instrumented by a coverage map.
///
/// Programs are immutable once built (by [`crate::ProgramBuilder`],
/// [`crate::GeneratorConfig::generate`] or [`crate::apply_laf_intel`]);
/// execution is fully deterministic in the input bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Human-readable program name.
    pub name: String,
    /// Number of call sites (dense indices `0..call_sites` reported via
    /// [`crate::TraceSink::on_call`]).
    pub call_sites: usize,
    /// Number of planted crash sites (dense indices `0..crash_sites`).
    pub crash_sites: usize,
    /// Number of planted hang sites.
    pub hang_sites: usize,
    pub(crate) blocks: Vec<Block>,
    pub(crate) functions: Vec<FunctionInfo>,
}

impl Program {
    /// Total number of basic blocks. Instrumentation assigns one map ID per
    /// block, so this is the `blocks` argument to an instrumentation pass.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Paper-style static edge count: every direct CFG edge, plus one
    /// return edge per call site. [`Program::static_edge_pairs`] can be
    /// larger because a return edge fans out per callee return block.
    pub fn static_edge_count(&self) -> usize {
        let (direct, _) = self.static_edge_pairs_classified();
        let calls = self
            .blocks
            .iter()
            .filter(|b| matches!(b.kind, BlockKind::Call { .. }))
            .count();
        direct.len() + calls
    }

    /// All static `(from, to)` block-index pairs, sorted and deduplicated.
    /// Includes both direct branch edges and call/return edges.
    pub fn static_edge_pairs(&self) -> Vec<(usize, usize)> {
        let (mut direct, indirect) = self.static_edge_pairs_classified();
        direct.extend(indirect);
        direct.sort_unstable();
        direct.dedup();
        direct
    }

    /// Static edges split into `(direct, indirect)`:
    ///
    /// * *direct* — ordinary branch, fall-through, switch and call-entry
    ///   edges whose target is statically known;
    /// * *indirect* — return edges `(callee return block, caller resume
    ///   block)`, which at runtime depend on the return address and which
    ///   guard-style instrumentation cannot attribute statically.
    ///
    /// Both lists are sorted and deduplicated, and they are disjoint.
    pub fn static_edge_pairs_classified(&self) -> (EdgePairs, EdgePairs) {
        let mut direct = Vec::new();
        let mut indirect = Vec::new();
        for (index, block) in self.blocks.iter().enumerate() {
            match &block.kind {
                BlockKind::Jump { next } => direct.push((index, *next)),
                BlockKind::ByteGuard {
                    taken, fallthrough, ..
                }
                | BlockKind::MaskGuard {
                    taken, fallthrough, ..
                }
                | BlockKind::MagicGuard {
                    taken, fallthrough, ..
                } => {
                    direct.push((index, *taken));
                    direct.push((index, *fallthrough));
                }
                BlockKind::Switch { arms, default, .. } => {
                    for (_, arm) in arms {
                        direct.push((index, *arm));
                    }
                    direct.push((index, *default));
                }
                BlockKind::LoopHead { body, exit, .. } => {
                    direct.push((index, *body));
                    direct.push((index, *exit));
                }
                BlockKind::Call { function, next, .. } => {
                    direct.push((index, self.functions[*function].entry));
                    indirect.push((self.functions[*function].ret, *next));
                }
                BlockKind::Crash { .. } | BlockKind::Hang | BlockKind::Return => {}
            }
        }
        direct.sort_unstable();
        direct.dedup();
        indirect.sort_unstable();
        indirect.dedup();
        (direct, indirect)
    }

    /// Extract a fuzzing dictionary: the byte strings of every multi-byte
    /// compare in the program, in block order, deduplicated. This mirrors
    /// what AFL's `AFL_LLVM_DICT2FILE` / libFuzzer's `-dict` pipelines pull
    /// out of `memcmp`-style call sites.
    pub fn extract_dictionary(&self) -> Vec<Vec<u8>> {
        let mut dictionary: Vec<Vec<u8>> = Vec::new();
        for block in &self.blocks {
            if let BlockKind::MagicGuard { values, .. } = &block.kind {
                if !dictionary.iter().any(|t| t == values) {
                    dictionary.push(values.clone());
                }
            }
        }
        dictionary
    }

    /// Structural validation: every successor, callee and function index is
    /// in range, and the program has at least one function with well-formed
    /// entry and return blocks.
    pub fn validate(&self) -> Result<(), TargetError> {
        if self.name.is_empty() {
            return Err(TargetError::EmptyName);
        }
        if self.functions.is_empty() {
            return Err(TargetError::NoFunctions);
        }
        for (f, info) in self.functions.iter().enumerate() {
            if info.entry >= self.blocks.len() || info.ret >= self.blocks.len() {
                return Err(TargetError::MalformedFunction { function: f });
            }
        }
        let check = |block: usize, successor: usize| {
            if successor >= self.blocks.len() {
                Err(TargetError::DanglingBlock { block, successor })
            } else {
                Ok(())
            }
        };
        for (index, block) in self.blocks.iter().enumerate() {
            match &block.kind {
                BlockKind::Jump { next } => check(index, *next)?,
                BlockKind::ByteGuard {
                    taken, fallthrough, ..
                }
                | BlockKind::MaskGuard {
                    taken, fallthrough, ..
                } => {
                    check(index, *taken)?;
                    check(index, *fallthrough)?;
                }
                BlockKind::MagicGuard {
                    values,
                    taken,
                    fallthrough,
                    ..
                } => {
                    if values.is_empty() {
                        return Err(TargetError::EmptyMagic { site: index });
                    }
                    check(index, *taken)?;
                    check(index, *fallthrough)?;
                }
                BlockKind::Switch { arms, default, .. } => {
                    if arms.is_empty() {
                        return Err(TargetError::EmptySwitch { site: index });
                    }
                    for (_, arm) in arms {
                        check(index, *arm)?;
                    }
                    check(index, *default)?;
                }
                BlockKind::LoopHead { body, exit, .. } => {
                    check(index, *body)?;
                    check(index, *exit)?;
                }
                BlockKind::Call { function, next, .. } => {
                    if *function >= self.functions.len() {
                        return Err(TargetError::DanglingFunction {
                            block: index,
                            function: *function,
                        });
                    }
                    check(index, *next)?;
                }
                BlockKind::Crash { .. } | BlockKind::Hang | BlockKind::Return => {}
            }
        }
        Ok(())
    }
}
