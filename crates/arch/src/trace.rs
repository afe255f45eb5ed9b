//! Execution traces and state digests for differential coverage.
//!
//! The fuzzer compares a device under test against this reference model in
//! two granularities: per-run state digests (cheap, always on) and
//! per-instruction [`ExecutionTrace`] entries (opt-in, for bug-scenario
//! localisation). Both are deterministic functions of architectural state,
//! so two runs agree exactly iff their digests agree.

use tf_riscv::{Instruction, Reg};

use crate::digest::Fnv;
use crate::trap::Trap;

/// What one [`Hart::step`](crate::Hart::step) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction retired normally.
    Retired(Instruction),
    /// The instruction (or its fetch/decode) trapped; the hart has already
    /// vectored to `mtvec`.
    Trapped(Trap),
}

/// One recorded step of execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// `pc` the step started at.
    pub pc: u64,
    /// The fetched machine word, when the fetch itself succeeded.
    pub word: Option<u32>,
    /// What the step did.
    pub outcome: StepOutcome,
    /// The register the instruction defined, with its post-execution
    /// value. `None` for stores, branches, traps and `x0`-writing
    /// instructions (see [`Operands::defs`](tf_riscv::Operands::defs)).
    pub def: Option<(Reg, u64)>,
}

/// An append-only log of executed steps plus a running digest.
///
/// Tracing is opt-in on the hart ([`Hart::enable_tracing`]) because the
/// 100k-instruction fuzzing sweeps only need digests, not per-step
/// storage.
///
/// [`Hart::enable_tracing`]: crate::Hart::enable_tracing
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    entries: Vec<TraceEntry>,
}

impl ExecutionTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a trace from recorded entries — how remote backends hand
    /// a deserialized trace back across the [`Dut`](crate::Dut)
    /// boundary.
    #[must_use]
    pub fn from_entries(entries: Vec<TraceEntry>) -> Self {
        Self { entries }
    }

    /// The recorded steps, oldest first.
    #[must_use]
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of recorded steps that retired (did not trap).
    #[must_use]
    pub fn retired(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.outcome, StepOutcome::Retired(_)))
            .count()
    }

    /// Deterministic FNV-1a digest over the whole trace: pc, word, trap
    /// cause and defined-register values of every step. Two runs took the
    /// same architectural path iff their trace digests agree.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        for entry in &self.entries {
            fold_entry(&mut fnv, entry);
        }
        fnv.finish()
    }
}

/// Fold one step into a running trace digest — the single definition
/// both [`ExecutionTrace::digest`] and the streamed digest of
/// [`TraceSink::Digest`] use, so the two are the same function of the
/// step sequence.
fn fold_entry(fnv: &mut Fnv, entry: &TraceEntry) {
    fnv.write_u64(entry.pc);
    fnv.write_u64(entry.word.map_or(u64::MAX, u64::from));
    match entry.outcome {
        StepOutcome::Retired(_) => fnv.write_u64(0),
        StepOutcome::Trapped(trap) => {
            fnv.write_u64(1 + trap.cause().code());
            fnv.write_u64(trap.tval());
        }
    }
    if let Some((reg, value)) = entry.def {
        fnv.write_u64(u64::from(reg.is_fpr()) << 8 | u64::from(reg.index()));
        fnv.write_u64(value);
    }
}

/// Where a hart's executed steps go: nowhere, into a full
/// [`ExecutionTrace`], or folded straight into the trace digest as they
/// happen — for callers that only want [`ExecutionTrace::digest`] and
/// would otherwise build a trace just to hash it.
#[derive(Debug, Clone, Default)]
pub(crate) enum TraceSink {
    /// Tracing is off.
    #[default]
    Off,
    /// Every step is recorded.
    Full(ExecutionTrace),
    /// Every step is folded into the running trace digest.
    Digest(Fnv),
}

impl TraceSink {
    /// True when steps are being recorded or folded.
    pub(crate) fn is_on(&self) -> bool {
        !matches!(self, TraceSink::Off)
    }

    /// Record one executed step.
    pub(crate) fn record(&mut self, entry: TraceEntry) {
        match self {
            TraceSink::Off => {}
            TraceSink::Full(trace) => trace.entries.push(entry),
            TraceSink::Digest(fnv) => fold_entry(fnv, &entry),
        }
    }

    /// The most recently recorded entry (full traces only).
    pub(crate) fn last_mut(&mut self) -> Option<&mut TraceEntry> {
        match self {
            TraceSink::Full(trace) => trace.entries.last_mut(),
            _ => None,
        }
    }

    /// Stop tracing and take the full trace, if one was being recorded.
    pub(crate) fn take_trace(&mut self) -> Option<ExecutionTrace> {
        match std::mem::take(self) {
            TraceSink::Full(trace) => Some(trace),
            _ => None,
        }
    }

    /// Stop tracing and take the trace digest of whatever was recorded:
    /// the streamed fold, or the digest of a full trace.
    pub(crate) fn take_digest(&mut self) -> Option<u64> {
        match std::mem::take(self) {
            TraceSink::Off => None,
            TraceSink::Full(trace) => Some(trace.digest()),
            TraceSink::Digest(fnv) => Some(fnv.finish()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_digest_distinguishes_outcomes() {
        let retired = TraceEntry {
            pc: 0,
            word: Some(0x13),
            outcome: StepOutcome::Retired(Instruction::nop()),
            def: None,
        };
        let trapped = TraceEntry {
            pc: 0,
            word: Some(0x13),
            outcome: StepOutcome::Trapped(Trap::EnvironmentCall),
            def: None,
        };
        let a = ExecutionTrace::from_entries(vec![retired]);
        let b = ExecutionTrace::from_entries(vec![trapped]);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.retired(), 1);
        assert_eq!(b.retired(), 0);
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
    }
}
