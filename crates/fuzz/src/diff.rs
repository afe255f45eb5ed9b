//! Windowed lockstep differential execution: reference vs device under
//! test.
//!
//! The [`DiffEngine`] loads the same program into the golden reference
//! and a [`Dut`] and compares their executions. With
//! [`DiffConfig::window`]` == 1` it steps both in lockstep and compares
//! after every step: outcome first, then the full architectural digests
//! (registers, CSRs and memory — catching divergences trace entries
//! cannot see, like a dropped `fflags` update). With any window `k > 1`
//! it instead runs each side as one batched [`Dut::run`] that takes a
//! single digest sample, after the final step, and compares the two
//! [`BatchOutcome`]s — one digest per side per program. When the batches
//! disagree the engine replays the run exactly (execution is
//! deterministic, so the step-by-step replay finds the first diverging
//! step), which makes the reported [`Divergence`] bit-identical to what
//! `window == 1` reports. The divergence carries both sides'
//! [`TraceEntry`]s, which is the paper's bug-scenario localisation: not
//! just *that* the device differs, but the exact instruction where it
//! went wrong.
//!
//! The reference's [`Dut::run`] is the hart's native predecoded-block
//! engine (see `tf_arch::Hart`), which is proven bit-identical to the
//! default per-step trait body — so the windowed fast path, the exact
//! replay and the `window == 1` loop all agree on every sample, every
//! verdict and every replayed trace regardless of which engine produced
//! them.
//!
//! Batched detection loses no sensitivity: the sample folds not just
//! the state digest but the device's cumulative *write history*
//! ([`tf_arch::Dut::write_history`], via [`tf_arch::fold_sample`]), and
//! a fold over the write sequence never reconverges once the two sides
//! first wrote differently — so even a divergence whose architectural
//! side effects cancel out again before the run ends still flips the
//! final sample and triggers the exact replay. (The same holds for the
//! cumulative pc-pair fold, so a control-flow divergence flips it too.)
//! Interior samples would therefore only ever mismatch when the final
//! one does, and since any mismatch replays the whole program they
//! localise nothing: the batched path takes none. Backends that leave
//! `write_history` at its constant default stay correct too, at a cost:
//! every batch against the history-bearing reference mismatches and
//! replays, degrading to `window = 1` throughput.

use tf_arch::digest::Fnv;
use tf_arch::{
    fold_op_classes, fold_pc_pair, op_class, BatchOutcome, Dut, RunExit, StepOutcome, TraceEntry,
    Trap, OP_CLASS_BUCKETS, PC_PAIRS_SEED,
};
use tf_riscv::Instruction;

/// Default comparison window (see [`DiffConfig::window`]). Any value
/// above 1 selects the batched path — one final digest sample per side
/// per program — so the exact number does not change what runs.
pub const DEFAULT_WINDOW: u64 = 16;

/// A rejected configuration, explaining which invariant failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub(crate) &'static str);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for ConfigError {}

/// How a [`DiffEngine`] runs: where programs load, the per-run step
/// budget and the comparison window. Mirrors
/// [`CampaignConfig`](crate::CampaignConfig): public fields plus
/// `#[must_use]` builder setters ([`DiffConfig::with_window`] and
/// friends) and [`DiffConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffConfig {
    /// Address programs are loaded at.
    pub base: u64,
    /// Per-run step budget.
    pub max_steps: u64,
    /// Comparison mode. `1` compares after every step (the exhaustive
    /// pre-windowing behaviour, bit for bit). Any `k > 1` runs each side
    /// as one batch with a single final digest sample, and localises a
    /// mismatch by exact replay; every such `k` behaves the same. Must
    /// be at least 1.
    pub window: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            base: 0,
            max_steps: 128,
            window: DEFAULT_WINDOW,
        }
    }
}

impl DiffConfig {
    /// This config with `base` replaced.
    #[must_use]
    pub fn with_base(mut self, base: u64) -> Self {
        self.base = base;
        self
    }

    /// This config with `max_steps` replaced.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// This config with `window` replaced.
    #[must_use]
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = window;
        self
    }

    /// Check the invariants [`DiffEngine::new`] requires.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the violated invariant:
    /// `window >= 1` and `max_steps >= 1`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window < 1 {
            return Err(ConfigError("window must be at least 1"));
        }
        if self.max_steps < 1 {
            return Err(ConfigError("max_steps must be at least 1"));
        }
        Ok(())
    }
}

/// How a differential run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffVerdict {
    /// Reference and DUT agreed at every step.
    Agree {
        /// Steps both sides executed.
        steps: u64,
        /// Why the run ended.
        exit: RunExit,
        /// Digest of the reference execution trace (coverage key).
        trace_digest: u64,
        /// Bitmask of privileged-spec trap-cause codes the reference
        /// raised during the run (bit `c` set iff a trap with
        /// `mcause == c` occurred) — the coarse secondary coverage key.
        trap_causes: u64,
        /// [`fold_pc_pair`] fold of the reference's control-flow edge
        /// sequence — the cheap path-shape key feeding the scheduler's
        /// yield signal.
        pc_pairs: u64,
        /// [`fold_op_classes`] fold of the reference's retired
        /// opcode-class histogram — the cheap instruction-mix key
        /// feeding the scheduler's yield signal.
        op_classes: u64,
    },
    /// The DUT diverged from the reference.
    Diverged(Divergence),
}

/// The first observed disagreement between reference and DUT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 1-based step index at which the divergence was observed.
    pub step: u64,
    /// What the reference did at that step, when tracing captured it.
    pub reference: Option<TraceEntry>,
    /// What the DUT did at that step.
    pub dut: Option<TraceEntry>,
    /// Reference architectural digest after the step.
    pub reference_digest: u64,
    /// DUT architectural digest after the step.
    pub dut_digest: u64,
}

impl Divergence {
    /// Stable fingerprint identifying the divergence *signature* rather
    /// than the run it came from: for each side's diverging entry, the
    /// opcode it retired or the trap cause it raised. Two workers
    /// tripping the same bug at different pcs, with different operand
    /// registers or register values, fingerprint equally — which is what
    /// merged campaign reports deduplicate on. (Deliberately coarse: the
    /// raw instruction word is excluded because it encodes operand
    /// fields, which would make every generated trigger look unique.)
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fn write_entry(fnv: &mut Fnv, entry: Option<&TraceEntry>) {
            let Some(entry) = entry else {
                fnv.write_u64(u64::MAX);
                return;
            };
            match entry.outcome {
                StepOutcome::Retired(insn) => {
                    fnv.write_u64(0);
                    fnv.write_bytes(insn.opcode().mnemonic().as_bytes());
                }
                StepOutcome::Trapped(trap) => fnv.write_u64(1 + trap.cause().code()),
            }
        }
        let mut fnv = Fnv::new();
        write_entry(&mut fnv, self.reference.as_ref());
        write_entry(&mut fnv, self.dut.as_ref());
        fnv.finish()
    }
}

fn write_entry(f: &mut std::fmt::Formatter<'_>, entry: Option<&TraceEntry>) -> std::fmt::Result {
    match entry {
        None => f.write_str("<no trace entry>"),
        Some(entry) => {
            write!(f, "pc={:#x}", entry.pc)?;
            if let Some(word) = entry.word {
                write!(f, " word={word:#010x}")?;
            }
            match &entry.outcome {
                StepOutcome::Retired(insn) => write!(f, " retired `{insn}`")?,
                StepOutcome::Trapped(trap) => write!(f, " trapped: {trap}")?,
            }
            if let Some((reg, value)) = entry.def {
                write!(f, " ({reg} <- {value:#x})")?;
            }
            Ok(())
        }
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "divergence at step {}:", self.step)?;
        f.write_str("  reference: ")?;
        write_entry(f, self.reference.as_ref())?;
        f.write_str("\n  dut:       ")?;
        write_entry(f, self.dut.as_ref())?;
        write!(
            f,
            "\n  digests:   reference {:#018x} vs dut {:#018x}",
            self.reference_digest, self.dut_digest
        )
    }
}

/// Reusable per-diff buffers: the two [`BatchOutcome`]s a windowed run
/// fills. Campaign hot loops hold one of these and pass it to
/// [`DiffEngine::diff_with`] so the per-window sample vectors are
/// cleared, never reallocated, across thousands of runs.
#[derive(Debug, Clone, Default)]
pub struct DiffScratch {
    /// The reference side's batch outcome.
    pub reference: BatchOutcome,
    /// The DUT side's batch outcome.
    pub dut: BatchOutcome,
}

/// Windowed lockstep differential executor.
#[derive(Debug, Clone, Copy)]
pub struct DiffEngine {
    config: DiffConfig,
}

impl DiffEngine {
    /// An engine running under `config`.
    ///
    /// # Panics
    ///
    /// Panics when [`DiffConfig::validate`] rejects the config.
    #[must_use]
    pub fn new(config: DiffConfig) -> Self {
        if let Err(error) = config.validate() {
            panic!("invalid DiffConfig: {error}");
        }
        DiffEngine { config }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> DiffConfig {
        self.config
    }

    /// Reset both devices, load `program` into each, and execute both
    /// sides until divergence, program end (`ebreak`/`ecall`) or the
    /// step budget: step by step at [`DiffConfig::window`]` == 1`,
    /// otherwise as one batch per side compared once at the end.
    ///
    /// A batch mismatch is localised by exact replay: both sides are
    /// reset and re-run in per-step lockstep, which — execution being a
    /// pure function of the loaded program — reports the same
    /// [`Divergence`], bit for bit, that `window == 1` would have.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] raised when the program cannot be loaded
    /// (does not fit in memory, or fails to encode).
    pub fn diff(
        &self,
        reference: &mut dyn Dut,
        dut: &mut dyn Dut,
        program: &[Instruction],
    ) -> Result<DiffVerdict, Trap> {
        let mut scratch = DiffScratch::default();
        self.diff_with(reference, dut, program, &mut scratch)
    }

    /// [`DiffEngine::diff`] with caller-owned batch buffers: the batched
    /// run fills `scratch` via [`Dut::run_into`] instead of allocating
    /// two fresh [`BatchOutcome`]s, so a campaign's one-batch-per-program
    /// hot loop never reallocates the sample vectors. The verdict is
    /// bit-identical to [`DiffEngine::diff`]'s.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] raised when the program cannot be loaded
    /// (does not fit in memory, or fails to encode).
    pub fn diff_with(
        &self,
        reference: &mut dyn Dut,
        dut: &mut dyn Dut,
        program: &[Instruction],
        scratch: &mut DiffScratch,
    ) -> Result<DiffVerdict, Trap> {
        reference.reset();
        dut.reset();
        reference.load(self.config.base, program)?;
        dut.load(self.config.base, program)?;
        if self.config.window > 1 {
            // Trace the reference only, and only its digest: the trace
            // digest is the coverage key on agreement, and the replay
            // recollects both sides' full traces on mismatch. Each side
            // takes just its final sample (module docs: interior samples
            // cannot localise anything the replay does not redo).
            reference.enable_trace_digest();
            reference.run_into(self.config.max_steps, 0, &mut scratch.reference);
            dut.run_into(self.config.max_steps, 0, &mut scratch.dut);
            if let Some(verdict) =
                self.agree_on_batches(reference, &scratch.reference, &scratch.dut)
            {
                return Ok(verdict);
            }
            // The batches disagreed: replay from reset, step by step, to
            // find the exact diverging step.
            reference.reset();
            dut.reset();
            reference.load(self.config.base, program)?;
            dut.load(self.config.base, program)?;
        }
        Ok(self.diff_exact(reference, dut))
    }

    /// The batched agreement check: equal batches become the verdict
    /// the exact loop would have produced, a mismatch becomes `None`.
    fn agree_on_batches(
        &self,
        reference: &mut dyn Dut,
        ref_batch: &BatchOutcome,
        dut_batch: &BatchOutcome,
    ) -> Option<DiffVerdict> {
        let trace_digest = reference.take_trace_digest();
        if ref_batch != dut_batch {
            return None;
        }
        let trace_digest = trace_digest.unwrap_or(0);
        Some(DiffVerdict::Agree {
            steps: ref_batch.steps,
            exit: ref_batch.exit,
            trace_digest,
            trap_causes: ref_batch.trap_causes,
            pc_pairs: ref_batch.pc_pairs,
            op_classes: ref_batch.op_classes,
        })
    }

    /// The exhaustive per-step loop: compare outcome and digest after
    /// every single step. Callers have already reset and loaded both
    /// sides.
    fn diff_exact(&self, reference: &mut dyn Dut, dut: &mut dyn Dut) -> DiffVerdict {
        reference.enable_tracing();
        dut.enable_tracing();

        let mut verdict = None;
        let mut steps = 0;
        let mut trap_causes = 0u64;
        // The yield-signal folds are computed reference-side with the
        // exact scheme the default `Dut::run_into` uses, so windowed and
        // exact verdicts carry bit-identical folds.
        let mut pc_pairs = PC_PAIRS_SEED;
        let mut classes = [0u32; OP_CLASS_BUCKETS];
        while steps < self.config.max_steps {
            let from = reference.pc();
            let ref_outcome = reference.step();
            let dut_outcome = dut.step();
            steps += 1;
            pc_pairs = fold_pc_pair(pc_pairs, from, reference.pc());
            if let StepOutcome::Retired(insn) = ref_outcome {
                classes[op_class(&insn)] += 1;
            }
            let (ref_digest, dut_digest) = (reference.digest(), dut.digest());
            if ref_outcome != dut_outcome || ref_digest != dut_digest {
                verdict = Some((steps, ref_digest, dut_digest));
                break;
            }
            if let StepOutcome::Trapped(trap) = ref_outcome {
                trap_causes |= 1 << (trap.cause().code() & 63);
            }
            match ref_outcome {
                StepOutcome::Trapped(Trap::Breakpoint { .. }) => {
                    return self.agree(
                        reference,
                        dut,
                        RunExit::Breakpoint { steps },
                        steps,
                        trap_causes,
                        pc_pairs,
                        &classes,
                    );
                }
                StepOutcome::Trapped(Trap::EnvironmentCall) => {
                    return self.agree(
                        reference,
                        dut,
                        RunExit::EnvironmentCall { steps },
                        steps,
                        trap_causes,
                        pc_pairs,
                        &classes,
                    );
                }
                _ => {}
            }
        }
        match verdict {
            None => self.agree(
                reference,
                dut,
                RunExit::OutOfGas,
                steps,
                trap_causes,
                pc_pairs,
                &classes,
            ),
            Some((step, reference_digest, dut_digest)) => {
                let ref_entry = reference
                    .take_trace()
                    .and_then(|t| t.entries().last().copied());
                let dut_entry = dut.take_trace().and_then(|t| t.entries().last().copied());
                DiffVerdict::Diverged(Divergence {
                    step,
                    reference: ref_entry,
                    dut: dut_entry,
                    reference_digest,
                    dut_digest,
                })
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn agree(
        &self,
        reference: &mut dyn Dut,
        dut: &mut dyn Dut,
        exit: RunExit,
        steps: u64,
        trap_causes: u64,
        pc_pairs: u64,
        classes: &[u32; OP_CLASS_BUCKETS],
    ) -> DiffVerdict {
        let trace_digest = reference.take_trace_digest().unwrap_or(0);
        dut.take_trace();
        DiffVerdict::Agree {
            steps,
            exit,
            trace_digest,
            trap_causes,
            pc_pairs,
            op_classes: fold_op_classes(classes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_arch::{BugScenario, Hart, MutantHart};
    use tf_riscv::{csr, Fpr, Gpr, Opcode, RoundingMode};

    const MEM: u64 = 1 << 16;

    fn x(i: u8) -> Gpr {
        Gpr::new(i).unwrap()
    }

    fn f(i: u8) -> Fpr {
        Fpr::new(i).unwrap()
    }

    #[test]
    fn identical_devices_agree() {
        let program = [
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 5).unwrap(),
            Instruction::r_type(Opcode::Add, x(2), x(1), x(1)),
            Instruction::system(Opcode::Ebreak),
        ];
        let engine = DiffEngine::new(DiffConfig::default().with_max_steps(100));
        let mut reference = Hart::new(MEM);
        let mut dut = Hart::new(MEM);
        let verdict = engine.diff(&mut reference, &mut dut, &program).unwrap();
        match verdict {
            DiffVerdict::Agree {
                steps,
                exit,
                trace_digest,
                trap_causes,
                pc_pairs,
                op_classes,
            } => {
                assert_eq!(steps, 3);
                assert_eq!(exit, RunExit::Breakpoint { steps: 3 });
                assert_ne!(trace_digest, 0);
                // The only trap was the terminating breakpoint (cause 3).
                assert_eq!(trap_causes, 1 << 3);
                // Three steps folded into the path key; two retirements
                // into the instruction-mix key.
                assert_ne!(pc_pairs, PC_PAIRS_SEED);
                assert_ne!(op_classes, fold_op_classes(&[0; OP_CLASS_BUCKETS]));
            }
            DiffVerdict::Diverged(d) => panic!("unexpected divergence: {d}"),
        }
    }

    #[test]
    fn fingerprints_identify_the_signature_not_the_run() {
        // Two B2-style divergences at different pcs fingerprint equally;
        // a different divergence signature does not.
        let engine = DiffEngine::new(DiffConfig::default().with_max_steps(100));
        let prelude = Instruction::csr_imm(Opcode::Csrrwi, Gpr::ZERO, csr::FRM, 0b101).unwrap();
        let fadd = Instruction::fp_r_type(Opcode::FaddS, f(1), f(2), f(3), Some(RoundingMode::Dyn))
            .unwrap();
        let diverge = |program: &[Instruction]| {
            let mut reference = Hart::new(MEM);
            let mut dut = MutantHart::new(MEM, BugScenario::B2ReservedRounding);
            match engine.diff(&mut reference, &mut dut, program).unwrap() {
                DiffVerdict::Diverged(d) => d,
                DiffVerdict::Agree { .. } => panic!("expected divergence"),
            }
        };
        let near = diverge(&[prelude, fadd, Instruction::system(Opcode::Ebreak)]);
        let far = diverge(&[
            prelude,
            Instruction::nop(),
            Instruction::nop(),
            fadd,
            Instruction::system(Opcode::Ebreak),
        ]);
        assert_ne!(near.reference.unwrap().pc, far.reference.unwrap().pc);
        assert_eq!(near.fingerprint(), far.fingerprint());

        // Different operand registers encode to a different word but are
        // still the same bug signature — generated triggers must dedupe.
        let fadd_other =
            Instruction::fp_r_type(Opcode::FaddS, f(4), f(5), f(6), Some(RoundingMode::Dyn))
                .unwrap();
        assert_ne!(fadd.encode().unwrap(), fadd_other.encode().unwrap());
        let regs = diverge(&[prelude, fadd_other, Instruction::system(Opcode::Ebreak)]);
        assert_eq!(near.fingerprint(), regs.fingerprint());

        let mut reference = Hart::new(MEM);
        let mut dut = MutantHart::new(MEM, BugScenario::OffByOneImmediate);
        let program = [
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 5).unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let DiffVerdict::Diverged(other) = engine.diff(&mut reference, &mut dut, &program).unwrap()
        else {
            panic!("imm mutant must diverge");
        };
        assert_ne!(near.fingerprint(), other.fingerprint());
    }

    #[test]
    fn b2_mutant_divergence_is_localised_to_the_fp_step() {
        let program = [
            Instruction::csr_imm(Opcode::Csrrwi, Gpr::ZERO, csr::FRM, 0b101).unwrap(),
            Instruction::fp_r_type(Opcode::FaddS, f(1), f(2), f(3), Some(RoundingMode::Dyn))
                .unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let engine = DiffEngine::new(DiffConfig::default().with_max_steps(100));
        let mut reference = Hart::new(MEM);
        let mut dut = MutantHart::new(MEM, BugScenario::B2ReservedRounding);
        let verdict = engine.diff(&mut reference, &mut dut, &program).unwrap();
        let DiffVerdict::Diverged(divergence) = verdict else {
            panic!("b2 mutant must diverge");
        };
        assert_eq!(divergence.step, 2, "divergence is at the FP instruction");
        assert!(matches!(
            divergence.reference.unwrap().outcome,
            StepOutcome::Trapped(Trap::IllegalInstruction { .. })
        ));
        assert!(matches!(
            divergence.dut.unwrap().outcome,
            StepOutcome::Retired(_)
        ));
        assert_ne!(divergence.reference_digest, divergence.dut_digest);
        let report = divergence.to_string();
        assert!(report.contains("divergence at step 2"), "{report}");
        assert!(report.contains("illegal instruction"), "{report}");
    }

    #[test]
    fn fflags_mutant_diverges_on_digest_despite_equal_entries() {
        let mut reference = Hart::new(MEM);
        let mut dut = MutantHart::new(MEM, BugScenario::DroppedFflags);
        // 1/3 is inexact -> reference accrues NX, mutant drops it. Both
        // retire the same instruction with the same register result.
        let program = [
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 1).unwrap(),
            Instruction::fp_unary(
                Opcode::FcvtSW,
                tf_riscv::Reg::F(f(2)),
                tf_riscv::Reg::X(x(1)),
                Some(RoundingMode::Rne),
            )
            .unwrap(),
            Instruction::i_type(Opcode::Addi, x(3), Gpr::ZERO, 3).unwrap(),
            Instruction::fp_unary(
                Opcode::FcvtSW,
                tf_riscv::Reg::F(f(4)),
                tf_riscv::Reg::X(x(3)),
                Some(RoundingMode::Rne),
            )
            .unwrap(),
            Instruction::fp_r_type(Opcode::FdivS, f(5), f(2), f(4), Some(RoundingMode::Rne))
                .unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let engine = DiffEngine::new(DiffConfig::default().with_max_steps(100));
        let verdict = engine.diff(&mut reference, &mut dut, &program).unwrap();
        let DiffVerdict::Diverged(divergence) = verdict else {
            panic!("fflags mutant must diverge");
        };
        assert_eq!(divergence.step, 5, "localised to the inexact division");
        // Same retirement on both sides; only the digest disagrees.
        assert_eq!(divergence.reference, divergence.dut);
        assert_ne!(divergence.reference_digest, divergence.dut_digest);
    }

    #[test]
    fn load_failures_surface_as_traps() {
        let engine = DiffEngine::new(DiffConfig::default().with_max_steps(10));
        let mut reference = Hart::new(16);
        let mut dut = Hart::new(16);
        let program = vec![Instruction::nop(); 32];
        let err = engine.diff(&mut reference, &mut dut, &program).unwrap_err();
        assert!(matches!(err, Trap::StoreFault { .. }));
    }

    #[test]
    fn out_of_gas_still_agrees() {
        let engine = DiffEngine::new(DiffConfig::default().with_max_steps(4));
        let mut reference = Hart::new(MEM);
        let mut dut = Hart::new(MEM);
        // An infinite loop: jal x0, 0 jumps to itself.
        let program = [Instruction::j_type(
            Opcode::Jal,
            Gpr::ZERO,
            tf_riscv::JumpOffset::new(0).unwrap(),
        )];
        let verdict = engine.diff(&mut reference, &mut dut, &program).unwrap();
        assert!(matches!(
            verdict,
            DiffVerdict::Agree {
                steps: 4,
                exit: RunExit::OutOfGas,
                ..
            }
        ));
    }

    #[test]
    fn builders_compose_and_validation_names_the_invariant() {
        let config = DiffConfig::default()
            .with_base(0x1000)
            .with_max_steps(64)
            .with_window(4);
        assert_eq!(
            config,
            DiffConfig {
                base: 0x1000,
                max_steps: 64,
                window: 4
            }
        );
        assert_eq!(config.validate(), Ok(()));
        // max_steps need not be a multiple of the window.
        assert_eq!(config.with_max_steps(63).validate(), Ok(()));
        assert!(config
            .with_window(0)
            .validate()
            .unwrap_err()
            .to_string()
            .contains("window"));
        assert!(config
            .with_max_steps(0)
            .validate()
            .unwrap_err()
            .to_string()
            .contains("max_steps"));
        let engine = DiffEngine::new(config);
        assert_eq!(engine.config(), config);
    }

    #[test]
    #[should_panic(expected = "invalid DiffConfig")]
    fn the_engine_rejects_a_zero_window() {
        let _ = DiffEngine::new(DiffConfig::default().with_window(0));
    }

    #[test]
    fn batched_runs_take_one_final_sample_per_side() {
        // A 100-step program spans several default windows, yet each
        // side of the batched path samples its digest exactly once.
        let mut program = vec![Instruction::i_type(Opcode::Addi, x(1), x(1), 1).unwrap(); 99];
        program.push(Instruction::system(Opcode::Ebreak));
        let engine = DiffEngine::new(DiffConfig::default());
        assert!(engine.config().window > 1 && engine.config().max_steps == 128);
        let mut reference = Hart::new(MEM);
        let mut dut = Hart::new(MEM);
        let mut scratch = DiffScratch::default();
        let verdict = engine
            .diff_with(&mut reference, &mut dut, &program, &mut scratch)
            .unwrap();
        assert!(matches!(verdict, DiffVerdict::Agree { steps: 100, .. }));
        assert!(scratch.reference.steps > engine.config().window);
        assert_eq!(scratch.reference.samples.len(), 1);
        assert_eq!(scratch.dut.samples.len(), 1);
    }

    #[test]
    fn every_window_reports_the_exact_loop_verdict() {
        // The replay guarantee, in miniature (the 1k-seed property test
        // lives in tests/windowed_equivalence.rs): agreement and
        // divergence verdicts at every window equal window=1's, bit for
        // bit — including a budget that is not a window multiple.
        let diverging = [
            Instruction::csr_imm(Opcode::Csrrwi, Gpr::ZERO, csr::FRM, 0b101).unwrap(),
            Instruction::fp_r_type(Opcode::FaddS, f(1), f(2), f(3), Some(RoundingMode::Dyn))
                .unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let clean = [
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 5).unwrap(),
            Instruction::r_type(Opcode::Add, x(2), x(1), x(1)),
            Instruction::system(Opcode::Ebreak),
        ];
        for max_steps in [100, 7] {
            let exact = DiffEngine::new(
                DiffConfig::default()
                    .with_max_steps(max_steps)
                    .with_window(1),
            );
            for window in [4, 16, 64] {
                let windowed = DiffEngine::new(
                    DiffConfig::default()
                        .with_max_steps(max_steps)
                        .with_window(window),
                );
                for program in [&diverging[..], &clean[..]] {
                    let mut reference = Hart::new(MEM);
                    let mut dut = MutantHart::new(MEM, BugScenario::B2ReservedRounding);
                    let expected = exact.diff(&mut reference, &mut dut, program).unwrap();
                    let got = windowed.diff(&mut reference, &mut dut, program).unwrap();
                    assert_eq!(got, expected, "window {window}, max_steps {max_steps}");
                }
            }
        }
    }
}
