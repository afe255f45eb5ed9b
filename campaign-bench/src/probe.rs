//! The layer probe: re-drive one worker's program stream through the
//! public per-layer functions, with a span around every call.
//!
//! The probe restates the loop a campaign worker runs (generate or
//! mutate, diff, observe coverage, admit, minimize divergences) using
//! only `tf_fuzz`'s public API, with both the reference and the device
//! under test wrapped in [`Timed`]. For a fresh single-worker campaign
//! the restated loop draws from the same seeded streams as the real one,
//! so it reproduces the campaign's counted outputs exactly; the traced
//! run checks that it does.

use tf_arch::{Dut, Hart};
use tf_fuzz::persist::WorkerStream;
use tf_fuzz::{
    minimize, CampaignConfig, Corpus, CoverageMap, DiffEngine, DiffScratch, DiffVerdict,
    ProgramGenerator, SeedCalibration,
};
use tf_riscv::{Instruction, InstructionLibrary};

use crate::spans::Trace;
use crate::timed::{CallKind, Timed};

/// Divergence reports a campaign minimizes before it only counts.
const MAX_REPORTS: usize = 16;

/// The campaign's decision stream: splitmix64, seeded like the
/// campaign's own.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, num: u8) -> bool {
        (self.next_u64() & 0xFF) < u64::from(num)
    }
}

/// What the probe counted along the stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Programs diffed by the probe.
    pub programs: u64,
    /// Instructions generated, cumulative from the stream's start.
    pub instructions: u64,
    /// Lockstep steps, cumulative.
    pub steps: u64,
    /// Distinct trace digests at the end.
    pub unique_traces: usize,
    /// Corpus size at the end.
    pub corpus: usize,
    /// Divergent runs, cumulative.
    pub divergent: u64,
    /// Instructions generated at the first divergence.
    pub first_divergence_at: Option<u64>,
    /// Diffs whose windowed comparison mismatched and was replayed.
    pub replays: u64,
}

/// Where a probed stream starts.
pub enum Start<'a> {
    /// A fresh single-worker campaign.
    Fresh,
    /// A multi-worker checkpoint's worker stream (foreign seeds the
    /// coordinator would broadcast mid-run are not replayed).
    Stream(&'a WorkerStream),
}

/// Span ids of diff calls paired with the per-step device time inside
/// them, which is not a span of its own.
pub type FineTimes = Vec<(usize, u64)>;

/// Re-drive the stream of `config` (one worker's configuration) against
/// `dut`, recording spans into `trace` under `parent`. Returns the
/// counts, the final corpus and generator (for the final-size mutation
/// probe), and the per-diff per-step device time.
pub fn run<D: Dut>(
    trace: &mut Trace,
    parent: usize,
    config: &CampaignConfig,
    start: &Start<'_>,
    dut: D,
) -> (ProbeCounts, Corpus, ProgramGenerator, FineTimes) {
    let library = InstructionLibrary::new(config.library, config.seed);
    let mut generator = ProgramGenerator::with_config(library, config.seed ^ 1, config.generator);
    let mut corpus = Corpus::new(config.seed ^ 2);
    let mut coverage = CoverageMap::new();
    let mut rng = SplitMix64(config.seed ^ 3);
    let mut counts = ProbeCounts::default();
    if let Start::Stream(stream) = start {
        corpus.merge_entries(&stream.entries);
        corpus.set_rng_state(stream.corpus_rng);
        generator.set_rng_states(stream.generator_rng, stream.library_rng);
        coverage = stream.coverage.clone();
        rng.0 = stream.campaign_rng;
        counts.instructions = stream.report.instructions_generated;
        counts.steps = stream.report.steps_executed;
        counts.divergent = stream.report.divergent_runs;
        counts.first_divergence_at = stream.report.first_divergence_at;
    }
    let engine = DiffEngine::new(config.diff_config());
    let mut reference = Timed::new(Hart::new(config.mem_size), trace.epoch());
    let mut dut = Timed::new(dut, trace.epoch());
    let mut scratch = DiffScratch::default();
    let mut program: Vec<Instruction> = Vec::with_capacity(config.program_len);
    let mut fine_times = FineTimes::new();
    let mut reports = 0usize;

    while counts.instructions < config.instruction_budget {
        let root = trace.open("probe.program", Some(parent));
        let mutated = !corpus.is_empty() && rng.chance(128);
        let parent_seed = if mutated {
            let picked = trace.time("corpus.mutate_into", Some(root), || {
                corpus.mutate_into(&mut generator, config.schedule, &mut program)
            });
            if picked.is_none() {
                trace.time("generator.generate_into", Some(root), || {
                    generator.generate_into(config.program_len, &mut program);
                });
            }
            picked
        } else {
            trace.time("generator.generate_into", Some(root), || {
                generator.generate_into(config.program_len, &mut program);
            });
            None
        };
        counts.programs += 1;
        counts.instructions += program.len() as u64;

        let fine_before = reference.fine_ns() + dut.fine_ns();
        let diff = trace.open("diff.diff_with", Some(root));
        let verdict = engine.diff_with(&mut reference, &mut dut, &program, &mut scratch);
        trace.close(diff);
        fine_times.push((diff, reference.fine_ns() + dut.fine_ns() - fine_before));
        for call in reference.drain_calls() {
            trace.record(
                call_name(call.kind, "ref"),
                Some(diff),
                call.start,
                call.end,
            );
        }
        let dut_calls = dut.drain_calls();
        if dut_calls
            .iter()
            .filter(|c| c.kind == CallKind::Reset)
            .count()
            > 1
        {
            counts.replays += 1;
        }
        for call in dut_calls {
            trace.record(
                call_name(call.kind, "dut"),
                Some(diff),
                call.start,
                call.end,
            );
        }

        match verdict {
            Err(_) => {}
            Ok(DiffVerdict::Agree {
                steps,
                exit: _,
                trace_digest,
                trap_causes,
                pc_pairs,
                op_classes,
            }) => {
                counts.steps += steps;
                let observe = trace.open("coverage.observe", Some(root));
                let new_trace = coverage.observe(trace_digest);
                let new_traps = coverage.observe_trap_set(trap_causes);
                let novel = new_trace || new_traps;
                let (new_pairs, new_classes) = if novel {
                    (
                        coverage.observe_pc_pairs(pc_pairs),
                        coverage.observe_op_classes(op_classes),
                    )
                } else {
                    (false, false)
                };
                trace.close(observe);
                if novel {
                    let calibration = SeedCalibration {
                        cost: steps,
                        cov_yield: u8::from(new_trace)
                            + u8::from(new_traps)
                            + u8::from(new_pairs)
                            + u8::from(new_classes),
                        spent: 0,
                        children: 0,
                    };
                    trace.time("corpus.add", Some(root), || {
                        corpus.add(&program, trace_digest, trap_causes, calibration);
                        if let Some(parent_seed) = parent_seed {
                            corpus.record_child(parent_seed);
                        }
                    });
                }
            }
            Ok(DiffVerdict::Diverged(divergence)) => {
                counts.steps += divergence.step;
                counts.divergent += 1;
                counts
                    .first_divergence_at
                    .get_or_insert(counts.instructions);
                if reports < MAX_REPORTS {
                    reports += 1;
                    trace.time("corpus.minimize", Some(root), || {
                        let shrunk = minimize(&program, |candidate| {
                            matches!(
                                engine.diff(&mut reference, &mut dut, candidate),
                                Ok(DiffVerdict::Diverged(_))
                            )
                        });
                        let _ = engine.diff(&mut reference, &mut dut, &shrunk);
                    });
                    // Minimization makes hundreds of diffs; their device
                    // calls are part of the minimize span, not spans of
                    // their own.
                    reference.drain_calls();
                    dut.drain_calls();
                }
            }
        }
        trace.close(root);
    }
    counts.unique_traces = coverage.unique();
    counts.corpus = corpus.len();
    (counts, corpus, generator, fine_times)
}

fn call_name(kind: CallKind, side: &str) -> &'static str {
    match (kind, side) {
        (CallKind::Reset, "ref") => "probe.ref.reset",
        (CallKind::Load, "ref") => "probe.ref.load",
        (CallKind::Run, "ref") => "probe.ref.run",
        (CallKind::Reset, _) => "probe.dut.reset",
        (CallKind::Load, _) => "probe.dut.load",
        (CallKind::Run, _) => "probe.dut.run",
    }
}

/// Time `count` mutations drawn from the final corpus (on clones, so
/// the probed stream is untouched), as `corpus.mutate_final` spans.
pub fn mutate_at_final_size(
    trace: &mut Trace,
    parent: usize,
    config: &CampaignConfig,
    corpus: &Corpus,
    generator: &ProgramGenerator,
    count: usize,
) {
    let mut corpus = corpus.clone();
    let mut generator = generator.clone();
    let mut program = Vec::with_capacity(config.program_len + 3);
    for _ in 0..count {
        trace.time("corpus.mutate_final", Some(parent), || {
            std::hint::black_box(corpus.mutate_into(&mut generator, config.schedule, &mut program));
        });
    }
}
