//! Native batched `Hart::run` is bit-identical to the default trait
//! implementation.
//!
//! `Hart` and `MutantHart` override [`Dut::run`] with the engine that
//! walks the program table `load_program` predecodes; the override is
//! only sound if every observable — step and retire counts, exit,
//! trap-cause set, every digest sample, the end-state digest, the write
//! history and the recorded trace — matches what the default per-step
//! trait body would have produced. These tests drive both
//! implementations (the default one through a wrapper that forwards
//! everything except `run`) over generated programs, every bug
//! scenario, self-modifying code, pcs outside the image and a sweep of
//! sampling windows, and require exact equality.
//!
//! The same runs also pin the streamed trace digest: both paths, armed
//! with [`Dut::enable_trace_digest`] instead, must report the
//! [`ExecutionTrace::digest`] of the trace they record under
//! [`Dut::enable_tracing`].

use tf_arch::{BugScenario, Dut, ExecutionTrace, Hart, MutantHart, StepOutcome, Trap};
use tf_riscv::{
    BranchOffset, Gpr, Instruction, InstructionLibrary, JumpOffset, LibraryConfig, Opcode,
};

const MEM: u64 = 1 << 20;

/// Sampling windows the equivalence is checked at, per the issue: dense,
/// prime, the campaign default and a sparse one — plus 0 (final sample
/// only) where the sweep adds it.
const WINDOWS: [u64; 4] = [1, 3, 16, 64];

/// Forwards every [`Dut`] method to the wrapped device except `run`,
/// which stays the default trait body — the reference schedule any
/// native override must reproduce bit-for-bit.
struct PerStep<D: Dut>(D);

impl<D: Dut> Dut for PerStep<D> {
    fn name(&self) -> &'static str {
        "per-step"
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn load(&mut self, base: u64, program: &[Instruction]) -> Result<(), Trap> {
        self.0.load(base, program)
    }
    fn step(&mut self) -> StepOutcome {
        self.0.step()
    }
    fn pc(&self) -> u64 {
        self.0.pc()
    }
    fn digest(&self) -> u64 {
        self.0.digest()
    }
    fn write_history(&self) -> u64 {
        self.0.write_history()
    }
    fn enable_tracing(&mut self) {
        self.0.enable_tracing();
    }
    fn take_trace(&mut self) -> Option<ExecutionTrace> {
        self.0.take_trace()
    }
    fn enable_trace_digest(&mut self) {
        self.0.enable_trace_digest();
    }
    fn take_trace_digest(&mut self) -> Option<u64> {
        self.0.take_trace_digest()
    }
}

/// Run `make()`-built devices through the native path and the default
/// path and assert every observable matches — then run both again
/// streaming the trace digest and assert it equals the recorded trace's.
fn assert_run_identical<D: Dut>(
    make: &dyn Fn() -> D,
    max_steps: u64,
    digest_every: u64,
    label: &str,
) {
    let mut native = make();
    let mut default = PerStep(make());
    native.enable_tracing();
    default.enable_tracing();
    let native_batch = native.run(max_steps, digest_every);
    let default_batch = default.run(max_steps, digest_every);
    let ctx = format!("{label}, max_steps {max_steps}, digest_every {digest_every}");
    assert_eq!(
        native_batch, default_batch,
        "batch outcomes diverged: {ctx}"
    );
    assert_eq!(native.digest(), default.digest(), "end digests: {ctx}");
    assert_eq!(
        native.write_history(),
        default.write_history(),
        "write histories: {ctx}"
    );
    let native_trace = native.take_trace().expect("tracing was enabled");
    let default_trace = default.take_trace().expect("tracing was enabled");
    assert_eq!(
        native_trace.entries(),
        default_trace.entries(),
        "traces: {ctx}"
    );
    let mut native = make();
    let mut default = PerStep(make());
    native.enable_trace_digest();
    default.enable_trace_digest();
    native.run(max_steps, digest_every);
    default.run(max_steps, digest_every);
    for (path, streamed) in [
        ("native", native.take_trace_digest()),
        ("default", default.take_trace_digest()),
    ] {
        assert_eq!(
            streamed,
            Some(native_trace.digest()),
            "{path} streamed trace digest: {ctx}"
        );
    }
    assert_eq!(native.take_trace_digest(), None, "taking disarms: {ctx}");
}

fn x(i: u8) -> Gpr {
    Gpr::new(i).unwrap()
}

fn word_of(insn: Instruction) -> u32 {
    insn.encode().unwrap()
}

#[test]
fn native_run_matches_default_on_generated_programs() {
    let seeds: u64 = if cfg!(debug_assertions) { 60 } else { 250 };
    for seed in 0..seeds {
        let mut library = InstructionLibrary::new(LibraryConfig::all(), 0x5EED ^ seed);
        let mut program = library.sample_program(48).expect("full library");
        // Half the programs end in an ebreak (early exit), half run out
        // of gas mid-stream.
        if seed % 2 == 0 {
            program.push(Instruction::system(Opcode::Ebreak));
        }
        let make = || {
            let mut hart = Hart::new(MEM);
            hart.load_program(0, &program).unwrap();
            hart
        };
        let window = WINDOWS[(seed % 4) as usize];
        for max_steps in [7, 200] {
            assert_run_identical(&make, max_steps, window, &format!("seed {seed}"));
        }
        // Final-sample-only mode and a zero-step budget.
        assert_run_identical(&make, 200, 0, &format!("seed {seed}"));
        assert_run_identical(&make, 0, 1, &format!("seed {seed}"));
        if seed % 3 == 0 {
            // An undecodable word mid-image: the table engine must hand
            // that step to the per-step fallback.
            let corrupt = || {
                let mut hart = make();
                hart.mem_mut().store_u32(4 * (seed % 40), 0).unwrap();
                hart
            };
            assert_run_identical(&corrupt, 200, window, &format!("seed {seed}, corrupt"));
        }
    }
}

#[test]
fn native_run_matches_default_at_an_offset_load_base() {
    let mut library = InstructionLibrary::new(LibraryConfig::all(), 0xBA5E);
    let mut program = library.sample_program(32).expect("full library");
    program.push(Instruction::system(Opcode::Ebreak));
    let make = || {
        let mut hart = Hart::new(MEM);
        hart.load_program(0x1000, &program).unwrap();
        hart.state_mut().set_pc(0x1000);
        hart
    };
    for window in WINDOWS {
        assert_run_identical(&make, 150, window, "offset base");
    }
    // And with pc left at 0, outside the program image: the per-step
    // fallback path trap-loops identically on both sides.
    let stuck = || {
        let mut hart = Hart::new(MEM);
        hart.load_program(0x1000, &program).unwrap();
        hart
    };
    assert_run_identical(&stuck, 25, 3, "pc outside program");
    // A load base off the 4-byte grid: every aligned pc in the image
    // falls between two loaded words, so no table entry may serve it.
    let straddled = || {
        let mut hart = Hart::new(MEM);
        hart.load_program(0x1002, &program).unwrap();
        hart.state_mut().set_pc(0x1004);
        hart
    };
    assert_run_identical(&straddled, 25, 3, "misaligned base");
}

/// A prelude that fires every planted bug once: a negative `addi`
/// (`imm`) stored and reloaded narrow (`ldsext`), an explicit write of
/// all five flags (`csrmask`), an invalid 0/0 divide (`fflags`), a taken
/// branch whose offset has bit 3 set (`btrunc`, which re-lands on the
/// second of two filler words the reference skips) and a
/// dynamic-rounding add under a reserved `frm` (`b2`). `mtvec` points
/// just past the prelude, so the reference's trap on that add — and
/// every later trap — resumes in the code that follows.
fn every_bug_prelude() -> Vec<Instruction> {
    use tf_riscv::{csr, Fpr, RoundingMode};
    const LEN: i64 = 12;
    let f = |i| Fpr::new(i).unwrap();
    let prelude = vec![
        Instruction::i_type(Opcode::Addi, x(7), Gpr::ZERO, 4 * LEN).unwrap(),
        Instruction::csr_reg(Opcode::Csrrw, Gpr::ZERO, csr::MTVEC, x(7)).unwrap(),
        Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, -1).unwrap(),
        Instruction::s_type(Opcode::Sw, Gpr::ZERO, x(1), 0x400).unwrap(),
        Instruction::i_type(Opcode::Lw, x(2), Gpr::ZERO, 0x400).unwrap(),
        Instruction::csr_imm(Opcode::Csrrwi, Gpr::ZERO, csr::FFLAGS, 0x1F).unwrap(),
        Instruction::fp_r_type(Opcode::FdivS, f(1), f(2), f(3), Some(RoundingMode::Rne)).unwrap(),
        Instruction::b_type(
            Opcode::Beq,
            Gpr::ZERO,
            Gpr::ZERO,
            BranchOffset::new(12).unwrap(),
        ),
        Instruction::i_type(Opcode::Addi, x(3), Gpr::ZERO, 1).unwrap(),
        Instruction::i_type(Opcode::Addi, x(3), Gpr::ZERO, 2).unwrap(),
        Instruction::csr_imm(Opcode::Csrrwi, Gpr::ZERO, csr::FRM, 0b101).unwrap(),
        Instruction::fp_r_type(Opcode::FaddS, f(4), f(5), f(6), Some(RoundingMode::Dyn)).unwrap(),
    ];
    assert_eq!(prelude.len() as i64, LEN);
    prelude
}

#[test]
fn every_mutant_stays_on_the_exact_per_step_schedule() {
    // Mutants run natively: their bugs are handler overlays in the
    // hart's program table, and the per-step path resolves the same
    // overlays. A mutant's native `run_into` must therefore equal the
    // run of its `PerStep` wrapper — batch outcome, full trace and
    // streamed trace digest — and the bug must actually have fired.
    let seeds: u64 = if cfg!(debug_assertions) { 12 } else { 60 };
    for scenario in BugScenario::ALL {
        for seed in 0..seeds {
            let mut library = InstructionLibrary::new(LibraryConfig::all(), 0x0DD ^ seed);
            let mut program = every_bug_prelude();
            program.extend(library.sample_program(40).expect("full library"));
            program.push(Instruction::system(Opcode::Ebreak));
            let make = || {
                let mut mutant = MutantHart::new(MEM, scenario);
                mutant.load(0, &program).unwrap();
                mutant
            };
            let window = WINDOWS[(seed % 4) as usize];
            assert_run_identical(&make, 160, window, scenario.id());
            let mut mutant = make();
            let mut golden = Hart::new(MEM);
            golden.load_program(0, &program).unwrap();
            Dut::run(&mut mutant, 160, 0);
            Dut::run(&mut golden, 160, 0);
            // Every firing overlay makes a write the golden hart does
            // not, so the histories part even where a later write
            // reconverges the state.
            assert_ne!(
                mutant.write_history(),
                golden.write_history(),
                "{} must fire on the native path (seed {seed})",
                scenario.id()
            );
        }
    }
}

#[test]
fn in_block_self_modification_is_architecturally_exact() {
    // The store at pc 4 rewrites the not-yet-executed instruction at pc
    // 12. The native engine must notice (memory generation moved, word
    // no longer the table's) and execute the fresh word, exactly like
    // the per-step path.
    let patch = word_of(Instruction::i_type(Opcode::Addi, x(6), Gpr::ZERO, 99).unwrap());
    let program = [
        Instruction::i_type(Opcode::Lw, x(5), Gpr::ZERO, 0x400).unwrap(),
        Instruction::s_type(Opcode::Sw, Gpr::ZERO, x(5), 12).unwrap(),
        Instruction::i_type(Opcode::Addi, x(7), Gpr::ZERO, 1).unwrap(),
        Instruction::i_type(Opcode::Addi, x(6), Gpr::ZERO, 1).unwrap(),
        Instruction::system(Opcode::Ebreak),
    ];
    let make = || {
        let mut hart = Hart::new(MEM);
        hart.load_program(0, &program).unwrap();
        hart.mem_mut().store_u32(0x400, patch).unwrap();
        hart
    };
    for window in [1, 3, 16] {
        assert_run_identical(&make, 100, window, "in-block overwrite");
    }
    // Sanity: the run really did execute the patched instruction.
    let mut hart = make();
    Dut::run(&mut hart, 100, 0);
    assert_eq!(hart.state().x(x(6)), 99, "patched word must execute");
}

#[test]
fn same_word_store_into_code_revalidates_without_divergence() {
    // Rewriting an instruction with identical bytes bumps the code
    // generation but leaves every table word intact — word validation
    // must keep executing the table entries and stay exact.
    let program = [
        Instruction::i_type(Opcode::Lw, x(5), Gpr::ZERO, 8).unwrap(),
        Instruction::s_type(Opcode::Sw, Gpr::ZERO, x(5), 8).unwrap(),
        Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 5).unwrap(),
        Instruction::system(Opcode::Ebreak),
    ];
    let make = || {
        let mut hart = Hart::new(MEM);
        hart.load_program(0, &program).unwrap();
        hart
    };
    for window in [1, 2] {
        assert_run_identical(&make, 50, window, "same-word rewrite");
    }
}

#[test]
fn loop_back_into_modified_code_rebuilds_the_block() {
    // Iteration 1 executes the original instruction at pc 8, then
    // overwrites it; iteration 2, reached by the backward branch, must
    // execute the modified word (x4 = 1 + 10 = 11).
    let patch = word_of(Instruction::i_type(Opcode::Addi, x(4), x(4), 10).unwrap());
    let program = [
        Instruction::i_type(Opcode::Lw, x(5), Gpr::ZERO, 0x400).unwrap(),
        Instruction::i_type(Opcode::Addi, x(1), x(1), 1).unwrap(),
        Instruction::i_type(Opcode::Addi, x(4), x(4), 1).unwrap(),
        Instruction::s_type(Opcode::Sw, Gpr::ZERO, x(5), 8).unwrap(),
        Instruction::i_type(Opcode::Addi, x(2), Gpr::ZERO, 2).unwrap(),
        Instruction::b_type(Opcode::Bne, x(1), x(2), BranchOffset::new(-16).unwrap()),
        Instruction::system(Opcode::Ebreak),
    ];
    let make = || {
        let mut hart = Hart::new(MEM);
        hart.load_program(0, &program).unwrap();
        hart.mem_mut().store_u32(0x400, patch).unwrap();
        hart
    };
    for window in WINDOWS {
        assert_run_identical(&make, 100, window, "loop-back rebuild");
    }
    let mut hart = make();
    Dut::run(&mut hart, 100, 0);
    assert_eq!(hart.state().x(x(4)), 11, "second pass must see the patch");
}

#[test]
fn jump_below_the_load_base_takes_the_per_step_path() {
    // Loaded at 0x100; the jal at 0x104 lands at 0xF8, below the image,
    // where two words planted outside the table run per step and jump
    // back in to the ebreak at 0x10C.
    let program = [
        Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 1).unwrap(),
        Instruction::j_type(Opcode::Jal, Gpr::ZERO, JumpOffset::new(-12).unwrap()),
        Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 2).unwrap(),
        Instruction::system(Opcode::Ebreak),
    ];
    let make = || {
        let mut hart = Hart::new(MEM);
        hart.load_program(0x100, &program).unwrap();
        let below = [
            Instruction::i_type(Opcode::Addi, x(5), Gpr::ZERO, 7).unwrap(),
            Instruction::j_type(Opcode::Jal, Gpr::ZERO, JumpOffset::new(16).unwrap()),
        ];
        for (i, insn) in below.into_iter().enumerate() {
            hart.mem_mut()
                .store_u32(0xF8 + 4 * i as u64, word_of(insn))
                .unwrap();
        }
        hart.state_mut().set_pc(0x100);
        hart
    };
    for window in WINDOWS {
        assert_run_identical(&make, 50, window, "below the base");
    }
    let mut hart = make();
    let batch = Dut::run(&mut hart, 50, 0);
    assert_eq!(batch.exit, tf_arch::RunExit::Breakpoint { steps: 5 });
    assert_eq!((hart.state().x(x(1)), hart.state().x(x(5))), (1, 7));
}

#[test]
fn branch_past_the_end_of_the_image_takes_the_per_step_path() {
    // The taken branch leaves the three-word image; the words it lands
    // on were stored after loading, outside the table's range.
    let program = [
        Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 1).unwrap(),
        Instruction::b_type(Opcode::Bne, x(1), Gpr::ZERO, BranchOffset::new(16).unwrap()),
        Instruction::system(Opcode::Ebreak),
    ];
    let make = || {
        let mut hart = Hart::new(MEM);
        hart.load_program(0, &program).unwrap();
        let past = [
            Instruction::i_type(Opcode::Addi, x(6), Gpr::ZERO, 9).unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        for (i, insn) in past.into_iter().enumerate() {
            hart.mem_mut()
                .store_u32(20 + 4 * i as u64, word_of(insn))
                .unwrap();
        }
        hart
    };
    for window in WINDOWS {
        assert_run_identical(&make, 50, window, "past the end");
    }
    let mut hart = make();
    let batch = Dut::run(&mut hart, 50, 0);
    assert_eq!(batch.exit, tf_arch::RunExit::Breakpoint { steps: 4 });
    assert_eq!(hart.state().x(x(6)), 9);
}

#[test]
fn reset_and_mode_switches_disarm_the_other_tracing_mode() {
    let mut program = vec![Instruction::i_type(Opcode::Addi, x(1), x(1), 1).unwrap(); 30];
    program.push(Instruction::system(Opcode::Ebreak));
    let fresh = || {
        let mut hart = Hart::new(MEM);
        hart.load_program(0, &program).unwrap();
        hart
    };
    // reset() disarms either mode.
    for digest_only in [false, true] {
        let mut hart = fresh();
        if digest_only {
            hart.enable_trace_digest();
        } else {
            hart.enable_tracing();
        }
        Dut::run(&mut hart, 10, 0);
        hart.reset();
        assert_eq!(hart.take_trace_digest(), None, "digest_only {digest_only}");
        assert!(hart.take_trace().is_none(), "digest_only {digest_only}");
    }
    // The steps after a switch at step 5, as a full trace would hold
    // them.
    let mut whole = fresh();
    whole.enable_tracing();
    Dut::run(&mut whole, 25, 0);
    let after_switch =
        ExecutionTrace::from_entries(whole.take_trace().unwrap().entries()[5..].to_vec());

    // Full -> digest: the full trace is gone, the digest covers only the
    // steps since the switch.
    let switched = || {
        let mut hart = fresh();
        hart.enable_tracing();
        Dut::run(&mut hart, 5, 0);
        hart.enable_trace_digest();
        Dut::run(&mut hart, 20, 0);
        hart
    };
    assert!(switched().take_trace().is_none());
    assert_eq!(switched().take_trace_digest(), Some(after_switch.digest()));

    // Digest -> full: the fold is dropped, the trace holds only the
    // steps since the switch.
    let mut hart = fresh();
    hart.enable_trace_digest();
    Dut::run(&mut hart, 5, 0);
    hart.enable_tracing();
    Dut::run(&mut hart, 20, 0);
    let trace = hart.take_trace().unwrap();
    assert_eq!(trace.entries(), after_switch.entries());
    assert_eq!(hart.take_trace_digest(), None, "taking the trace disarmed");
}
