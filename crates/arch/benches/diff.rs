//! Lockstep differential throughput: the fuzzing loop's true hot path.
//!
//! `Hart::step` alone understates campaign cost — every lockstep step
//! also digests *both* sides' full architectural state. This bench
//! measures exactly that path with the real `tf_fuzz` machinery:
//!
//! * **diff** — `DiffEngine::diff` of the golden hart against itself on
//!   a chaos workload, reported as ns per lockstep step (two `step`s and
//!   two digests per step). This is the number the incremental
//!   `Memory::digest` / cached `ArchState::digest` work moves.
//! * **chaos** — a plain `Hart::run` of the same chaos program, sampled
//!   in the same rounds: the same-process baseline CI divides the
//!   windowed lockstep cost by.
//! * **campaign-jobs1 / campaign-jobsN** — whole coordinated campaigns
//!   (generation, lockstep diffing, coverage, corpus) driven through
//!   `CampaignDriver`, reported as aggregate steps per wall-clock
//!   second, 1 worker vs N.
//! * **campaign_live_share** — jobs-N throughput with live cross-worker
//!   seed admission on (default sync cadence) over the same campaign
//!   with sharing off: the coordination tax the round barriers charge.
//!
//! Medians land in `BENCH_arch.json` next to the interpreter numbers
//! (see `benches/json.rs`); `TF_BENCH_SMOKE=1` shrinks everything to a
//! completes-and-emits-valid-JSON check for CI.

mod json;
mod rounds;

use std::hint::black_box;
use std::time::Instant;

use rounds::{bench, Sampler};
use tf_arch::Hart;
use tf_fuzz::{
    CampaignConfig, CampaignDriver, DiffConfig, DiffEngine, DiffVerdict, DEFAULT_SYNC_EVERY,
    DEFAULT_WINDOW,
};
use tf_riscv::{Instruction, InstructionLibrary, LibraryConfig, Opcode};

const MEM_SIZE: u64 = 1 << 20;
const JOBS: usize = 4;

/// A deterministic random instruction stream over the full library —
/// the same chaos recipe as the `step` bench, so numbers line up.
fn chaos_program(len: usize) -> Vec<Instruction> {
    let mut library = InstructionLibrary::new(LibraryConfig::all(), 0xC4A0_5BEE);
    let mut program = library.sample_program(len).expect("full library");
    program.push(Instruction::system(Opcode::Ebreak));
    program
}

/// Reference-vs-reference diffing of the chaos program at the given
/// window, in ns per lockstep step. Window 1 is the exhaustive per-step
/// loop; the default window is the batched path campaigns actually run.
fn diff_sampler(max_steps: u64, window: u64) -> Sampler<'static> {
    let program = chaos_program(2_048);
    let engine = DiffEngine::new(
        DiffConfig::default()
            .with_max_steps(max_steps)
            .with_window(window),
    );
    let mut reference = Hart::new(MEM_SIZE);
    let mut dut = Hart::new(MEM_SIZE);
    Box::new(move || {
        let start = Instant::now();
        let verdict = engine
            .diff(&mut reference, &mut dut, &program)
            .expect("program loads");
        let elapsed = start.elapsed();
        let DiffVerdict::Agree { steps, .. } = black_box(verdict) else {
            panic!("reference diverged from itself");
        };
        elapsed.as_nanos() as f64 / steps as f64
    })
}

/// A plain `Hart::run` of the same chaos program from reset, in ns per
/// step: the single-side execution cost the lockstep numbers divide by.
/// Timed in this process, alongside them, because chaos step cost moves
/// from one bench process to the next.
fn chaos_sampler(max_steps: u64) -> Sampler<'static> {
    let program = chaos_program(2_048);
    let mut hart = Hart::new(MEM_SIZE);
    Box::new(move || {
        hart.reset();
        hart.load_program(0, &program).expect("program fits");
        let start = Instant::now();
        black_box(hart.run(max_steps));
        let elapsed = start.elapsed();
        let steps = hart
            .state()
            .csrs()
            .read(tf_riscv::csr::MCYCLE)
            .expect("mcycle exists");
        elapsed.as_nanos() as f64 / steps as f64
    })
}

/// Median ns per `Hart::digest` call on a hart with `pages` resident
/// dirty pages and a settled cache — the cost every lockstep step pays
/// twice. With the incremental cache this stays flat as `pages` grows;
/// the from-scratch rescan (the pre-incremental algorithm) is measured
/// alongside as the contrast.
fn bench_digest_resident(pages: u64, iters: u32) -> (f64, f64) {
    let mut hart = Hart::new(pages * 2 * tf_arch::PAGE_SIZE);
    for page in 0..pages {
        hart.mem_mut()
            .store_u64(page * tf_arch::PAGE_SIZE, page + 1)
            .expect("in bounds");
    }
    black_box(hart.digest()); // settle the page-hash cache
    let start = Instant::now();
    for _ in 0..iters {
        black_box(hart.digest());
    }
    let cached = start.elapsed().as_nanos() as f64 / f64::from(iters);
    // The rescan is O(resident) per call; a handful of iterations gives a
    // stable mean without dominating the bench's runtime.
    let rescan_iters = (iters / 20).max(3);
    let start = Instant::now();
    for _ in 0..rescan_iters {
        black_box(hart.mem().digest_from_scratch());
        black_box(hart.state().digest_uncached());
    }
    let rescan = start.elapsed().as_nanos() as f64 / f64::from(rescan_iters);
    println!(
        "digest   {cached:8.1} ns cached vs {rescan:10.1} ns full-rescan  ({pages} resident pages)"
    );
    (cached, rescan)
}

/// Aggregate steps/sec of a whole coordinated campaign over `jobs`
/// workers at the given synchronisation cadence (`0` = live sharing
/// off, one round per worker).
fn bench_campaign(jobs: usize, budget: u64, sync_every: u64) -> f64 {
    let config = CampaignConfig::default()
        .with_seed(0xBE9C)
        .with_instruction_budget(budget)
        .with_mem_size(1 << 16);
    let outcome = CampaignDriver::new(config)
        .with_jobs(jobs)
        .with_sync_every(sync_every)
        .run(|_| Ok(Hart::new(1 << 16)))
        .expect("reference campaign drives");
    assert!(outcome.report.is_clean(), "reference campaign diverged");
    let throughput = outcome.steps_per_sec();
    println!(
        "campaign-jobs{jobs}-sync{sync_every} {throughput:12.0} steps/sec  \
         ({} programs, {} steps, {:.2} s wall)",
        outcome.report.programs,
        outcome.report.steps_executed,
        outcome.elapsed.as_secs_f64(),
    );
    throughput
}

fn main() {
    let smoke = json::smoke();
    // Smoke keeps the campaign budget small but the lockstep step budget
    // full-size: per-run reset/load overhead (~1 ms for a 1 MiB hart)
    // would otherwise swamp ns-per-step and make the CI regression ratio
    // meaningless. It still takes 7 interleaved rounds (~0.4 s): host
    // speed moves in phases of seconds, and the median of 3 rounds that
    // straddle a phase change can pair a fast chaos with a slow
    // lockstep.
    let (samples, max_steps, budget) = if smoke {
        (7, 100_000, 2_000)
    } else {
        (15, 100_000, 200_000)
    };
    let iters = if smoke { 10 } else { 2_000 };
    println!("tf_arch lockstep differential throughput (DiffEngine over Dut)");
    let medians = bench(
        &mut [
            ("diff-w1", "step", diff_sampler(max_steps, 1)),
            ("diff-w16", "step", diff_sampler(max_steps, DEFAULT_WINDOW)),
            ("chaos", "step", chaos_sampler(max_steps)),
        ],
        samples,
    );
    let (diff, windowed, chaos) = (medians[0], medians[1], medians[2]);
    let (digest_small, _) = bench_digest_resident(8, iters);
    let (digest_large, rescan_large) = bench_digest_resident(512, iters);
    let jobs1 = bench_campaign(1, budget, DEFAULT_SYNC_EVERY);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut entries = vec![
        ("diff_ns_per_step", diff),
        // The batched path campaigns run by default (any window > 1:
        // one final digest sample per side).
        ("lockstep_windowed", windowed),
        // Same-process chaos baseline: CI gates lockstep_windowed
        // against it rather than against the `step` bench's chaos.
        ("diff_chaos_ns_per_step", chaos),
        ("digest_ns_resident8", digest_small),
        ("digest_ns_resident512", digest_large),
        ("digest_rescan_ns_resident512", rescan_large),
        ("campaign_steps_per_sec_jobs1", jobs1),
        ("host_cores", cores as f64),
    ];
    // A jobs-1-vs-N comparison only measures scaling when the host can
    // actually run the workers in parallel; on a single hardware thread
    // it just re-times jobs-1 plus scheduler noise, so skip it and label
    // the document instead of recording a misleading "speedup".
    let stale: &[&str] = if cores > 1 {
        let share_on = bench_campaign(JOBS, budget, DEFAULT_SYNC_EVERY);
        let share_off = bench_campaign(JOBS, budget, 0);
        // Key carries the worker count so trajectories stay comparable.
        entries.push(("campaign_steps_per_sec_jobs4", share_on));
        // Same-run ratio, so host speed cancels: live admission on over
        // off. A drop means the round barriers got more expensive.
        entries.push(("campaign_live_share", share_on / share_off));
        println!(
            "campaign_live_share {:.3} (sharing-on/sharing-off throughput, {JOBS} workers)",
            share_on / share_off
        );
        &["campaign_single_core"]
    } else {
        println!(
            "campaign-jobs{JOBS}: skipped — single-core host, a scaling comparison would mislead"
        );
        entries.push(("campaign_single_core", 1.0));
        &["campaign_steps_per_sec_jobs4", "campaign_live_share"]
    };
    json::update(&entries, stale);
}
