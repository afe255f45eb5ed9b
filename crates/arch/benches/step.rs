//! Throughput baseline for `Hart::step` / `Hart::run`.
//!
//! Two workloads, matching the golden e2e suite:
//!
//! * **fib** — a tight integer loop (branches + adds), the interpreter's
//!   best case: hot pages, no traps.
//! * **chaos** — a library-sampled random instruction stream re-run from
//!   reset, the fuzzing workload: FP, CSR accesses, frequent traps.
//!
//! Plus the cost every cold program pays before it runs: the mean
//! `Instruction::decode` time per word over the chaos program's words
//! (`decode_ns_per_word`).
//!
//! The harness is hand-rolled (criterion is unavailable in the offline
//! build environment) but keeps its shape: warm-up, `SAMPLES` timed
//! samples, and the median reported alongside min/max so a single
//! scheduler hiccup cannot move the headline number. The workloads are
//! sampled in interleaved rounds so a slow host phase hits them alike.
//! Run with `cargo bench -p tf_arch`; CI compiles it via
//! `cargo bench --no-run` and executes it in smoke mode
//! (`TF_BENCH_SMOKE=1`: short runs, but still the median of
//! `SMOKE_SAMPLES` rounds, because CI gates ratios of these numbers and
//! a single ~100 µs sample is at the mercy of one scheduler hiccup).
//!
//! Results are also appended to the machine-readable `BENCH_arch.json`
//! at the workspace root (see `benches/json.rs`) so the perf trajectory
//! is tracked across PRs.

mod json;
mod rounds;

use std::hint::black_box;
use std::time::Instant;

use rounds::{bench, Sampler};
use tf_arch::Hart;
use tf_riscv::{BranchOffset, Gpr, Instruction, InstructionLibrary, LibraryConfig, Opcode};

const MEM_SIZE: u64 = 1 << 20;
const SAMPLES: usize = 15;
const SMOKE_SAMPLES: usize = 7;

fn x(i: u8) -> Gpr {
    Gpr::new(i).unwrap()
}

/// Iterative Fibonacci: `rounds * 4096` iterations of the add/swap loop.
fn fib_program(rounds: i64) -> Vec<Instruction> {
    vec![
        // x1 = 0, x2 = 1, x3 = counter (rounds << 12, via lui)
        Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 0).unwrap(),
        Instruction::i_type(Opcode::Addi, x(2), Gpr::ZERO, 1).unwrap(),
        Instruction::u_type(Opcode::Lui, x(3), rounds).unwrap(),
        // loop: x4 = x1 + x2; x1 = x2; x2 = x4; x3 -= 1; bne x3, x0, loop
        Instruction::r_type(Opcode::Add, x(4), x(1), x(2)),
        Instruction::r_type(Opcode::Add, x(1), Gpr::ZERO, x(2)),
        Instruction::r_type(Opcode::Add, x(2), Gpr::ZERO, x(4)),
        Instruction::i_type(Opcode::Addi, x(3), x(3), -1).unwrap(),
        Instruction::b_type(
            Opcode::Bne,
            x(3),
            Gpr::ZERO,
            BranchOffset::new(-16).unwrap(),
        ),
        Instruction::system(Opcode::Ebreak),
    ]
}

/// A deterministic random instruction stream over the full library.
fn chaos_program(len: usize) -> Vec<Instruction> {
    let mut library = InstructionLibrary::new(LibraryConfig::all(), 0xC4A0_5BEE);
    let mut program = library.sample_program(len).expect("full library");
    program.push(Instruction::system(Opcode::Ebreak));
    program
}

/// Re-run `program` from reset on one hart per sample, `max_steps` at
/// most, and time it in ns per executed step.
fn run_sampler(program: &[Instruction], max_steps: u64) -> Sampler<'_> {
    let mut hart = Hart::new(MEM_SIZE);
    Box::new(move || {
        hart.reset();
        hart.load_program(0, program).expect("program fits");
        let start = Instant::now();
        let exit = hart.run(max_steps);
        let elapsed = start.elapsed();
        black_box(exit);
        black_box(hart.digest());
        let steps = hart
            .state()
            .csrs()
            .read(tf_riscv::csr::MCYCLE)
            .expect("mcycle exists");
        elapsed.as_nanos() as f64 / steps as f64
    })
}

/// Decode every word of `program` `passes` times per sample and time it
/// in mean ns per word.
fn decode_sampler(program: &[Instruction], passes: usize) -> Sampler<'static> {
    let words: Vec<u32> = program
        .iter()
        .map(|insn| insn.encode().expect("library instructions encode"))
        .collect();
    Box::new(move || {
        let start = Instant::now();
        for _ in 0..passes {
            for &word in &words {
                black_box(Instruction::decode(black_box(word)).ok());
            }
        }
        start.elapsed().as_nanos() as f64 / (passes * words.len()) as f64
    })
}

fn main() {
    // `cargo bench` passes `--bench` (and test-filter args); none apply
    // to this hand-rolled harness.
    let smoke = json::smoke();
    let samples = if smoke { SMOKE_SAMPLES } else { SAMPLES };
    let (fib_steps, chaos_steps) = if smoke {
        (5_000, 5_000)
    } else {
        (200_000, 100_000)
    };
    println!("tf_arch interpreter throughput (Hart::run over Hart::step)");
    let fib_insns = fib_program(5);
    let chaos_insns = chaos_program(4_096);
    let medians = bench(
        &mut [
            ("fib", "step", run_sampler(&fib_insns, fib_steps)),
            ("chaos", "step", run_sampler(&chaos_insns, chaos_steps)),
            (
                "decode",
                "word",
                decode_sampler(&chaos_insns, if smoke { 10 } else { 50 }),
            ),
        ],
        samples,
    );
    json::update(
        &[
            ("fib_ns_per_step", medians[0]),
            ("chaos_ns_per_step", medians[1]),
            ("decode_ns_per_word", medians[2]),
        ],
        &[],
    );
}
