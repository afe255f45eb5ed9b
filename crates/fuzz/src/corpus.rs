//! The seed corpus: interesting programs and how to evolve them.
//!
//! Programs that produced new coverage are saved with their coverage
//! keys (trace digest and trap-cause set) and a [`SeedCalibration`]
//! record — execution cost, coverage yield and mutation fecundity —
//! that the campaign's [`PowerSchedule`] turns into selection energy.
//! Later campaign iterations draw on the corpus instead of always
//! generating from scratch: [`Corpus::mutate_into`] picks a seed by
//! energy-weighted deterministic selection and applies small structural
//! edits (replace / insert / delete) that preserve the `ebreak`
//! terminator, and [`minimize`] shrinks a divergence-triggering program
//! to a near-minimal reproducer before it is reported — the classic
//! corpus/stage decomposition of coverage-guided fuzzers.
//!
//! A corpus also outlives the process: [`Corpus::save`] writes the
//! entries to the versioned on-disk format of the [`persist`] module
//! (atomically — temp file plus rename) and [`Corpus::load`] reads them
//! back, skipping corrupt entries, so campaigns can resume and seeds can
//! cross-pollinate between runs.
//!
//! [`persist`]: crate::persist

use std::path::Path;

use tf_riscv::Instruction;

use crate::generator::ProgramGenerator;
use crate::persist::{self, LoadReport, PersistError};
use crate::rng::SplitMix64;
use crate::schedule::PowerSchedule;

/// A seed's calibration record: what it cost to execute, what coverage
/// it brought in, and how its mutants have fared — the raw material a
/// [`PowerSchedule`] turns into selection energy. All counters are
/// exact integers so schedules stay bit-deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedCalibration {
    /// Instructions the admitting run retired (execution cost).
    pub cost: u64,
    /// How many of the four coverage-key families (trace digest,
    /// trap-cause set, pc-pair fold, opcode-class fold) this seed's
    /// admitting run lit up for the first time: `0..=4`.
    pub cov_yield: u8,
    /// Mutations drawn from this seed so far.
    pub spent: u64,
    /// Mutants of this seed that themselves earned a corpus slot.
    pub children: u64,
}

/// One saved program and the coverage keys that made it interesting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedEntry {
    /// The program, `ebreak`-terminated.
    pub program: Vec<Instruction>,
    /// Digest of the reference execution trace it produced.
    pub trace_digest: u64,
    /// Trap-cause bitmask of the run (the coarse secondary coverage key).
    pub trap_causes: u64,
    /// Scheduler metadata: cost, yield and fecundity.
    pub calibration: SeedCalibration,
}

impl SeedEntry {
    /// The pair of coverage keys the corpus deduplicates on when merging:
    /// a campaign only records an entry when at least one of the two keys
    /// is novel, so within one campaign no two entries share the pair.
    #[must_use]
    pub fn coverage_key(&self) -> (u64, u64) {
        (self.trace_digest, self.trap_causes)
    }
}

/// Seed programs that earned their place by producing new coverage.
#[derive(Debug, Clone)]
pub struct Corpus {
    entries: Vec<SeedEntry>,
    // Coverage keys of `entries`, maintained incrementally so repeated
    // `merge_entries` calls (one per worker, one per merged file) stay
    // linear instead of re-hashing the whole corpus each time.
    keys: std::collections::HashSet<(u64, u64)>,
    rng: SplitMix64,
}

impl Corpus {
    /// An empty corpus with a deterministic mutation stream.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Corpus {
            entries: Vec::new(),
            keys: std::collections::HashSet::new(),
            rng: SplitMix64::new(seed),
        }
    }

    /// Record a program, the coverage keys it earned and its calibration
    /// record. The program is cloned here — on the rare admission path —
    /// so the campaign hot loop can keep reusing its program buffer.
    pub fn add(
        &mut self,
        program: &[Instruction],
        trace_digest: u64,
        trap_causes: u64,
        calibration: SeedCalibration,
    ) {
        self.keys.insert((trace_digest, trap_causes));
        self.entries.push(SeedEntry {
            program: program.to_vec(),
            trace_digest,
            trap_causes,
            calibration,
        });
    }

    /// Fold foreign entries in, skipping any whose
    /// [`SeedEntry::coverage_key`] is already present — the dedup rule
    /// sharded-campaign merges and `tf-cli corpus merge` share. Returns
    /// how many entries were actually admitted.
    pub fn merge_entries<'a, I>(&mut self, entries: I) -> usize
    where
        I: IntoIterator<Item = &'a SeedEntry>,
    {
        let mut admitted = 0;
        for entry in entries {
            if self.keys.insert(entry.coverage_key()) {
                self.entries.push(entry.clone());
                admitted += 1;
            }
        }
        admitted
    }

    /// The saved entries, oldest first.
    #[must_use]
    pub fn entries(&self) -> &[SeedEntry] {
        &self.entries
    }

    /// Mutable access for the campaign coordinator, which folds the
    /// owning workers' live calibration back into its admission-time
    /// clones before the corpus leaves the coordinator.
    pub(crate) fn entries_mut(&mut self) -> &mut [SeedEntry] {
        &mut self.entries
    }

    /// Consume the corpus, yielding its entries without cloning the
    /// programs — for handing a finished campaign's corpus to a report
    /// or the persistence layer.
    #[must_use]
    pub fn into_entries(self) -> Vec<SeedEntry> {
        self.entries
    }

    /// Write the corpus to `path` in the versioned on-disk format
    /// ([`persist::save_entries`]): atomic temp-file-plus-rename, so a
    /// crash mid-save never clobbers an existing corpus.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying filesystem.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        persist::save_entries(path, &self.entries)
    }

    /// Load a corpus from `path`, with a fresh mutation stream seeded by
    /// `seed`. Corrupt entries are skipped (counted in the returned
    /// [`LoadReport`]); a bad header — wrong magic, unsupported format
    /// version, or a digest-scheme fingerprint mismatch — rejects the
    /// whole file instead of silently mis-replaying stale digests.
    ///
    /// # Errors
    ///
    /// Returns a [`PersistError`] for I/O failures and header mismatches.
    pub fn load(path: &Path, seed: u64) -> Result<(Self, LoadReport), PersistError> {
        let loaded = persist::load_file(path)?;
        let corpus = Corpus {
            keys: loaded.entries.iter().map(SeedEntry::coverage_key).collect(),
            entries: loaded.entries,
            rng: SplitMix64::new(seed),
        };
        Ok((corpus, loaded.report))
    }

    /// The current state of the mutation-scheduling RNG (for campaign
    /// checkpoints).
    #[must_use]
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Restore the mutation stream to a checkpointed position.
    pub fn set_rng_state(&mut self, state: u64) {
        self.rng.set_state(state);
    }

    /// Number of saved seeds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been saved.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Draw a seed index by energy-weighted deterministic selection:
    /// each entry weighs [`PowerSchedule::energy`] of its calibration,
    /// and a single RNG draw below the energy total picks the seed by
    /// subtractive walk, O(corpus length). Under
    /// [`PowerSchedule::Uniform`] every weight is 1, so the walk would
    /// return the draw itself: the pick is that single draw below the
    /// corpus length, O(1) — exactly the historical uniform pick, same
    /// draw from the same stream, bit for bit.
    ///
    /// Returns `None` when the corpus is empty.
    pub fn select(&mut self, schedule: PowerSchedule) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        Some(if schedule == PowerSchedule::Uniform {
            self.rng.below(self.entries.len() as u64) as usize
        } else {
            self.select_by_walk(schedule)
        })
    }

    /// The subtractive energy walk behind [`Corpus::select`]; valid for
    /// every schedule, so it is also the uniform shortcut's test oracle.
    /// The corpus must not be empty.
    fn select_by_walk(&mut self, schedule: PowerSchedule) -> usize {
        let total: u64 = self
            .entries
            .iter()
            .map(|entry| schedule.energy(&entry.calibration))
            .sum();
        let mut draw = self.rng.below(total);
        for (index, entry) in self.entries.iter().enumerate() {
            let energy = schedule.energy(&entry.calibration);
            if draw < energy {
                return index;
            }
            draw -= energy;
        }
        unreachable!("draw is below the energy total");
    }

    /// Pick a saved seed under `schedule` and derive a mutant from it
    /// into `out`: one to three edits (replace an instruction with a
    /// fresh library sample, insert one, or delete one), never touching
    /// the trailing `ebreak`. The picked seed's
    /// [`SeedCalibration::spent`] counter is charged, and its index is
    /// returned so an admitted mutant can be credited back with
    /// [`Corpus::record_child`].
    ///
    /// Returns `None` when the corpus is empty or the generator's
    /// library cannot supply replacement instructions.
    pub fn mutate_into(
        &mut self,
        generator: &mut ProgramGenerator,
        schedule: PowerSchedule,
        out: &mut Vec<Instruction>,
    ) -> Option<usize> {
        let pick = self.select(schedule)?;
        self.entries[pick].calibration.spent += 1;
        out.clear();
        out.extend_from_slice(&self.entries[pick].program);
        let edits = 1 + self.rng.below(3);
        for _ in 0..edits {
            // The final ebreak is immutable; body is everything before it.
            let body = out.len() - 1;
            match self.rng.below(3) {
                0 if body > 0 => {
                    let at = self.rng.below(body as u64) as usize;
                    out[at] = generator.sample_insn()?;
                }
                1 => {
                    let at = self.rng.below(body as u64 + 1) as usize;
                    out.insert(at, generator.sample_insn()?);
                }
                _ if body > 0 => {
                    let at = self.rng.below(body as u64) as usize;
                    out.remove(at);
                }
                _ => {}
            }
        }
        Some(pick)
    }

    /// [`Corpus::mutate_into`] under the uniform schedule, returning the
    /// mutant by value — the pre-scheduler convenience shape, same RNG
    /// stream.
    pub fn mutate(&mut self, generator: &mut ProgramGenerator) -> Option<Vec<Instruction>> {
        let mut out = Vec::new();
        self.mutate_into(generator, PowerSchedule::Uniform, &mut out)
            .map(|_| out)
    }

    /// Credit the seed at `parent` with an admitted child — its mutant
    /// earned a corpus slot, raising the seed's fecundity signal.
    pub fn record_child(&mut self, parent: usize) {
        self.entries[parent].calibration.children += 1;
    }
}

/// Shrink an interesting program while a predicate stays true.
///
/// Greedy one-instruction elimination, iterated to a fixed point: each
/// round tries dropping every body instruction in turn and keeps the
/// removal whenever `still_interesting` accepts the shorter program. The
/// trailing `ebreak` terminator is never removed. The predicate is
/// typically "the diff engine still reports a divergence", making the
/// result a near-minimal reproducer.
pub fn minimize<F>(program: &[Instruction], mut still_interesting: F) -> Vec<Instruction>
where
    F: FnMut(&[Instruction]) -> bool,
{
    let mut current = program.to_vec();
    let mut shrunk = true;
    while shrunk && current.len() > 1 {
        shrunk = false;
        let mut at = 0;
        while at + 1 < current.len() {
            let mut candidate = current.clone();
            candidate.remove(at);
            if still_interesting(&candidate) {
                current = candidate;
                shrunk = true;
            } else {
                at += 1;
            }
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_riscv::{Gpr, InstructionLibrary, LibraryConfig, Opcode};

    fn ebreak() -> Instruction {
        Instruction::system(Opcode::Ebreak)
    }

    fn addi(rd: u8, imm: i64) -> Instruction {
        Instruction::i_type(Opcode::Addi, Gpr::new(rd).unwrap(), Gpr::ZERO, imm).unwrap()
    }

    fn generator() -> ProgramGenerator {
        ProgramGenerator::new(InstructionLibrary::new(LibraryConfig::all(), 5), 5)
    }

    #[test]
    fn mutate_preserves_the_terminator() {
        let mut corpus = Corpus::new(1);
        corpus.add(
            &[addi(1, 1), addi(2, 2), addi(3, 3), ebreak()],
            0x11,
            0,
            SeedCalibration::default(),
        );
        let mut generator = generator();
        for _ in 0..64 {
            let mutated = corpus.mutate(&mut generator).unwrap();
            assert_eq!(mutated.last().unwrap().opcode(), Opcode::Ebreak);
            assert!(!mutated.is_empty());
        }
        assert_eq!(
            corpus.entries()[0].calibration.spent,
            64,
            "every mutation charges the picked seed"
        );
    }

    #[test]
    fn mutate_on_empty_corpus_is_none() {
        let mut corpus = Corpus::new(1);
        assert!(corpus.mutate(&mut generator()).is_none());
        assert!(corpus.select(PowerSchedule::Fast).is_none());
        assert!(corpus.is_empty());
        assert_eq!(corpus.len(), 0);
    }

    #[test]
    fn mutants_eventually_differ_from_their_seed() {
        let seed_program = vec![addi(1, 1), addi(2, 2), ebreak()];
        let mut corpus = Corpus::new(2);
        corpus.add(&seed_program, 0x22, 0, SeedCalibration::default());
        let mut generator = generator();
        let changed = (0..32)
            .filter_map(|_| corpus.mutate(&mut generator))
            .any(|m| m != seed_program);
        assert!(changed, "32 mutations never changed the program");
    }

    #[test]
    fn selection_follows_energy_and_uniform_ignores_it() {
        // Seed 0 is stale and weak, seed 1 fresh and fecund: under the
        // fast schedule the draw should overwhelmingly favour seed 1,
        // while uniform keeps an even split of the same RNG stream.
        let weak = SeedCalibration {
            cost: 1 << 20,
            cov_yield: 0,
            spent: 1000,
            children: 0,
        };
        let hot = SeedCalibration {
            cost: 16,
            cov_yield: 4,
            spent: 0,
            children: 8,
        };
        let mut counts = [[0u32; 2]; 2];
        for (which, schedule) in [PowerSchedule::Uniform, PowerSchedule::Fast]
            .into_iter()
            .enumerate()
        {
            let mut corpus = Corpus::new(3);
            corpus.add(&[addi(1, 1), ebreak()], 0x1, 0, weak);
            corpus.add(&[addi(2, 2), ebreak()], 0x2, 0, hot);
            for _ in 0..512 {
                counts[which][corpus.select(schedule).unwrap()] += 1;
            }
        }
        let [uniform, fast] = counts;
        assert!(uniform[0] > 180 && uniform[1] > 180, "{uniform:?}");
        assert!(fast[1] > 490, "fast must favour the hot seed: {fast:?}");
        assert!(fast[0] > 0, "energy floor keeps the weak seed alive");
    }

    #[test]
    fn the_uniform_draw_equals_the_energy_walk() {
        // The O(1) uniform pick must return, draw for draw, the index
        // the subtractive walk returns when every energy is 1.
        let mut fast = Corpus::new(9);
        let mut walk = Corpus::new(9);
        for i in 0..1_500 {
            let calibration = SeedCalibration {
                cost: 1 + i,
                cov_yield: (i % 5) as u8,
                spent: i,
                children: i % 3,
            };
            for corpus in [&mut fast, &mut walk] {
                corpus.add(&[addi(1, 1), ebreak()], i, 0, calibration);
            }
        }
        for draw in 0..10_000 {
            assert_eq!(
                fast.select(PowerSchedule::Uniform),
                Some(walk.select_by_walk(PowerSchedule::Uniform)),
                "draw {draw}"
            );
        }
    }

    #[test]
    fn record_child_raises_fecundity() {
        let mut corpus = Corpus::new(4);
        corpus.add(&[ebreak()], 0x1, 0, SeedCalibration::default());
        corpus.record_child(0);
        corpus.record_child(0);
        assert_eq!(corpus.entries()[0].calibration.children, 2);
    }

    #[test]
    fn minimize_strips_irrelevant_instructions() {
        // Interesting iff the program still writes 7 into x5.
        let program = vec![addi(1, 1), addi(5, 7), addi(2, 2), addi(3, 3), ebreak()];
        let minimized = minimize(&program, |p| p.contains(&addi(5, 7)));
        assert_eq!(minimized, vec![addi(5, 7), ebreak()]);
    }

    #[test]
    fn minimize_never_drops_the_terminator() {
        let program = vec![addi(1, 1), ebreak()];
        let minimized = minimize(&program, |_| true);
        assert_eq!(minimized, vec![ebreak()]);
    }
}
