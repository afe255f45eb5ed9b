//! The campaign coordinator: one corpus, many workers, live seed
//! sharing — the LibAFL launcher/broker shape on `std::thread`s.
//!
//! [`CampaignDriver`] is the single entry point for running campaigns
//! (it replaced the four historical doors: `Campaign::run`,
//! `Campaign::resume`, `run_sharded` and `run_sharded_seeded`). The
//! coordinator on the calling thread owns the global [`Corpus`], the
//! union [`CoverageMap`] and the findings — and it owns the workers too:
//! one seed-disjoint [`Campaign`] and one device under test each. The
//! campaign advances in *synchronisation rounds*:
//!
//! ```text
//!   round r    worker 0..jobs, each on a scoped thread borrowing its
//!              campaign and DUT: prime the broadcast, advance to the
//!              round's instruction target
//!   barrier    the coordinator admits each worker's novel seeds
//!              (its corpus entries past the pre-round length)
//!   round r+1  the admitted tail is the next broadcast
//! ```
//!
//! The coordinator merges the novel seeds into the global corpus **in
//! worker-id order** — never completion order — and broadcasts the
//! admitted tail next round, so one worker's discovery reshapes every
//! other worker's power-schedule energies while the campaign runs,
//! deterministically. Nothing else crosses between rounds: full worker
//! state (corpus, coverage, report) is read only to freeze a checkpoint
//! — at an autosave and at the end of the run, where it is moved
//! rather than copied.
//!
//! # Determinism rules
//!
//! * Worker `i` runs [`worker_seed`]`(master, i)` over its
//!   [`shard_config`] budget slice; its trajectory depends only on the
//!   master seed, its index, its budget and the (deterministic)
//!   broadcast stream — never on thread scheduling.
//! * Admission into the global corpus happens in `(round, worker id)`
//!   order, and each round is a barrier: no result is folded before
//!   every active worker has finished the round.
//! * With `jobs = 1` the broadcast is the worker's own echo (admitting
//!   nothing and touching no RNG), and budget slicing is exact, so the
//!   run is bit-identical to the historical single-threaded campaign.
//! * Autosave cadence is counted in completed batches (one batch = one
//!   worker-round), so checkpoint content never depends on wall-clock.
//!
//! Checkpoints (format v6, [`crate::persist`]) have one shape at every
//! worker count: the coordinator state — autosave ordinal, batch/round
//! counters, pending-broadcast tail — and one [`WorkerStream`] per
//! worker, so `--resume` composes with `--jobs N`: every worker thaws
//! its own RNG streams, corpus and report and the rounds continue where
//! they stopped.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tf_arch::{Dut, RemoteDutStats};

use crate::campaign::{Campaign, CampaignConfig, CampaignReport, RestoreError};
use crate::corpus::{Corpus, SeedEntry};
use crate::coverage::CoverageMap;
use crate::diff::ConfigError;
use crate::persist::{self, CampaignCheckpoint, LoadedFile, PersistError, WorkerStream};
use crate::rng::SplitMix64;

/// Default per-worker instruction distance between synchronisation
/// rounds ([`CampaignDriver::with_sync_every`]): how often novel seeds
/// are exchanged. `0` disables live sharing (one round per worker).
pub const DEFAULT_SYNC_EVERY: u64 = 1024;

/// The seed worker `worker` runs under a master seed.
///
/// Worker 0 inherits the master seed itself (so `jobs = 1` reproduces
/// the single-threaded campaign bit for bit); workers `i >= 1` take the
/// `i`-th value of a splitmix64 stream seeded with the master seed. The
/// mapping depends only on `(master, worker)`, not on the job count, so
/// worker `i` explores the same programs whether the run uses 2 workers
/// or 16.
#[must_use]
pub fn worker_seed(master: u64, worker: usize) -> u64 {
    if worker == 0 {
        return master;
    }
    let mut stream = SplitMix64::new(master);
    let mut seed = 0;
    for _ in 0..worker {
        seed = stream.next_u64();
    }
    seed
}

/// The configuration worker `worker` of a `jobs`-wide run executes: the
/// master config with the worker's seed and its slice of the instruction
/// budget (the remainder of an uneven split goes to the lowest-indexed
/// workers).
#[must_use]
pub fn shard_config(config: &CampaignConfig, jobs: usize, worker: usize) -> CampaignConfig {
    assert!(worker < jobs, "worker index out of range");
    let jobs = jobs as u64;
    let base = config.instruction_budget / jobs;
    let extra = u64::from((worker as u64) < config.instruction_budget % jobs);
    config
        .clone()
        .with_seed(worker_seed(config.seed, worker))
        .with_instruction_budget(base + extra)
}

/// The identity handed to the DUT factory for each worker it must
/// equip: which worker, under which seed, and — when resuming a run
/// recorded against an out-of-process DUT — the supervisor batch
/// counter to re-base chaos schedules on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSpec {
    /// Worker index, `0..jobs`.
    pub worker: usize,
    /// The seed the worker's campaign runs under
    /// ([`worker_seed`]`(master, worker)`).
    pub seed: u64,
    /// Cumulative batches an out-of-process DUT already served for this
    /// stream (0 for fresh runs and in-process DUTs) — pass to
    /// [`crate::DutSupervisor::spawn`] as the batch offset.
    pub remote_batches: u64,
}

/// What one worker of a coordinated campaign produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// Worker index, `0..jobs`.
    pub worker: usize,
    /// The seed the worker's campaign ran under.
    pub seed: u64,
    /// The worker's own campaign report.
    pub report: CampaignReport,
}

/// A live event from the coordinator, delivered to the run's
/// [`EventSink`] on the coordinator thread, in deterministic order.
/// Counters are cumulative across the whole campaign (including the
/// resumed-from checkpoint), so a sink can derive rates by differencing.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignEvent {
    /// A corpus file was loaded before the run.
    CorpusLoaded {
        /// Seed records loaded.
        loaded: usize,
        /// Corrupt records skipped.
        skipped: usize,
        /// Whether the file lost a truncated tail.
        truncated: bool,
        /// Whether the file carried a campaign checkpoint.
        checkpoint: bool,
    },
    /// Seeds (from the file and/or [`CampaignDriver::with_seeds`]) were
    /// admitted into the fresh campaign's global corpus.
    CorpusPrimed {
        /// Entries admitted after coverage-key dedup.
        admitted: usize,
    },
    /// A checkpoint thawed; the campaign continues toward a larger
    /// budget.
    Resuming {
        /// Instructions the checkpoint already covers.
        instructions_done: u64,
        /// The new total instruction budget.
        budget: u64,
    },
    /// One worker finished one synchronisation round (one *batch*).
    BatchCompleted {
        /// The worker that finished the batch.
        worker: usize,
        /// Global 1-based batch ordinal (continues across resume).
        batch: u64,
        /// Programs executed, campaign-wide.
        programs: u64,
        /// Instructions generated, campaign-wide.
        instructions: u64,
        /// Lockstep steps executed, campaign-wide.
        steps: u64,
        /// Distinct execution-trace digests in the union coverage.
        unique_traces: usize,
        /// Global corpus size after this batch's admissions.
        corpus: usize,
        /// Divergent runs observed, campaign-wide.
        divergent_runs: u64,
        /// DUT failures recorded, campaign-wide.
        dut_failures: u64,
        /// Seeds this batch admitted into the global corpus.
        admitted: usize,
        /// Seeds admitted by workers that did not discover them,
        /// campaign-wide — the live-sharing counter.
        foreign_admitted: u64,
    },
    /// A worker's divergence counter grew this round.
    DivergenceFound {
        /// The worker that observed the divergence.
        worker: usize,
        /// That worker's cumulative divergent runs.
        divergent_runs: u64,
    },
    /// A worker's DUT-failure counter grew this round.
    DutFailureRecorded {
        /// The worker whose DUT failed.
        worker: usize,
        /// That worker's cumulative failures (crash + hang + desync).
        dut_failures: u64,
    },
    /// A periodic checkpoint was written mid-run.
    AutosaveWritten {
        /// 1-based autosave ordinal (continues across resume).
        ordinal: u64,
        /// Completed batches at the save.
        batches_completed: u64,
    },
}

/// Observer for live campaign statistics. Implementations are invoked
/// on the coordinator thread between rounds — they can block without
/// corrupting the campaign, but long stalls cost wall-clock.
pub trait EventSink {
    /// Observe one coordinator event.
    fn event(&mut self, event: &CampaignEvent);
}

impl<F: FnMut(&CampaignEvent)> EventSink for F {
    fn event(&mut self, event: &CampaignEvent) {
        self(event)
    }
}

/// Why a [`CampaignDriver`] run could not produce an outcome. `Display`
/// renders the operator-facing message the CLI prints verbatim.
#[derive(Debug)]
pub enum DriveError {
    /// The driver configuration is invalid.
    Config(ConfigError),
    /// The DUT factory failed to equip a worker.
    DutFactory(String),
    /// The corpus file exists but could not be loaded.
    Load(PersistError),
    /// Resume was requested but the corpus file does not exist.
    ResumeMissing(PathBuf),
    /// Resume was requested from a file that lost records to
    /// corruption.
    ResumeDamaged {
        /// The damaged file.
        path: PathBuf,
        /// Corrupt records skipped at load.
        skipped: usize,
        /// Whether the tail was truncated.
        truncated: bool,
    },
    /// Resume was requested from a file with no campaign checkpoint.
    NoCheckpoint(PathBuf),
    /// The checkpoint was frozen at a different worker count.
    JobsMismatch {
        /// Worker count the checkpoint was frozen with.
        frozen: usize,
        /// Worker count requested for this run.
        requested: usize,
    },
    /// The checkpoint was recorded against a different DUT.
    DutMismatch {
        /// DUT name in the checkpoint.
        recorded: String,
        /// DUT name the factory produced.
        offered: String,
    },
    /// The checkpoint already covers the requested budget.
    NothingToResume {
        /// Instructions the checkpoint covers.
        covered: u64,
    },
    /// A worker checkpoint could not be restored.
    Restore(RestoreError),
    /// A mid-run autosave failed; the campaign stopped rather than keep
    /// running with a broken crash-recovery guarantee.
    Save(std::io::Error),
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::Config(error) => error.fmt(f),
            DriveError::DutFactory(error) => f.write_str(error),
            DriveError::Load(error) => error.fmt(f),
            DriveError::ResumeMissing(path) => {
                write!(f, "cannot resume: `{}` does not exist", path.display())
            }
            DriveError::ResumeDamaged {
                path,
                skipped,
                truncated,
            } => write!(
                f,
                "`{}` lost records to corruption ({} skipped{}); a damaged corpus \
                 cannot resume bit-identically — re-run without --resume to reseed from it",
                path.display(),
                skipped,
                if *truncated { ", truncated tail" } else { "" }
            ),
            DriveError::NoCheckpoint(path) => write!(
                f,
                "`{}` carries no campaign checkpoint to resume \
                 (was it written by `corpus merge`?)",
                path.display()
            ),
            DriveError::JobsMismatch { frozen, requested } => write!(
                f,
                "checkpoint was frozen by a --jobs {frozen} run but --jobs {requested} \
                 was requested — per-worker rng streams only resume at the same worker count"
            ),
            DriveError::DutMismatch { recorded, offered } => write!(
                f,
                "checkpoint was recorded against `{recorded}`, not `{offered}` — \
                 pass the same --mutant"
            ),
            DriveError::NothingToResume { covered } => write!(
                f,
                "nothing to resume: the checkpoint already covers {covered} instructions; \
                 raise --steps beyond that to continue the campaign"
            ),
            DriveError::Restore(error) => error.fmt(f),
            DriveError::Save(error) => write!(f, "saving corpus: {error}"),
        }
    }
}

impl std::error::Error for DriveError {}

/// What [`DriveOutcome::save`] wrote, for the caller's bookkeeping line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveSummary {
    /// Seed entries written.
    pub seeds: usize,
    /// Destination file.
    pub path: PathBuf,
}

/// A finished coordinated campaign: the merged view, per-worker detail,
/// the grown corpus and the checkpoint ready to persist.
///
/// The report, the per-worker reports and the coverage are all derived
/// from the final checkpoint's worker streams ([`CampaignCheckpoint::fold`]),
/// so what [`DriveOutcome::save`] persists and what the caller sees
/// cannot disagree.
#[derive(Debug, Clone)]
pub struct DriveOutcome {
    /// All workers folded together ([`CampaignCheckpoint::fold`]): the
    /// coverage counters come from the *union* of the per-worker
    /// coverage maps and `corpus_size` from the global corpus. With one
    /// worker this is that worker's report, verbatim.
    pub report: CampaignReport,
    /// Per-worker reports, in worker order.
    pub workers: Vec<WorkerReport>,
    /// The union of every worker's coverage.
    pub coverage: CoverageMap,
    /// The global corpus in admission order, deduped by
    /// [`SeedEntry::coverage_key`].
    pub corpus: Vec<SeedEntry>,
    /// Wall-clock time of the parallel section.
    pub elapsed: Duration,
    /// Seeds admitted by workers that did not discover them — proof the
    /// live cross-worker sharing fired.
    pub foreign_admitted: u64,
    /// Worker-rounds completed over the campaign's whole life.
    pub batches_completed: u64,
    /// Synchronisation rounds completed over the campaign's whole life.
    pub rounds_completed: u64,
    /// Autosaves written over the campaign's whole life.
    pub autosaves: u64,
    /// Lifetime statistics of worker 0's out-of-process DUT backend
    /// (`None` for in-process DUTs).
    pub remote: Option<RemoteDutStats>,
    checkpoint: CampaignCheckpoint,
    path: Option<PathBuf>,
    /// Steps executed by this run alone: a resumed campaign's report
    /// also counts the steps its checkpoint carried in.
    run_steps: u64,
}

impl DriveOutcome {
    /// Aggregate lockstep throughput: steps executed across all workers
    /// by this run (not the steps a resumed checkpoint carried in) per
    /// wall-clock second of [`DriveOutcome::elapsed`].
    #[must_use]
    pub fn steps_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.run_steps as f64 / secs
        } else {
            0.0
        }
    }

    /// The checkpoint the campaign froze at its end — one
    /// [`WorkerStream`] per worker, moved out of the finished workers —
    /// which [`DriveOutcome::save`] persists alongside the corpus.
    #[must_use]
    pub fn checkpoint(&self) -> &CampaignCheckpoint {
        &self.checkpoint
    }

    /// Persist the grown corpus and the final checkpoint to the path
    /// the driver was configured with ([`CampaignDriver::with_corpus`]).
    /// Returns `Ok(None)` for ephemeral campaigns. Deliberately a
    /// separate step from [`CampaignDriver::run`] so callers can report
    /// the campaign before risking the save.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying filesystem.
    pub fn save(&self) -> std::io::Result<Option<SaveSummary>> {
        let Some(path) = &self.path else {
            return Ok(None);
        };
        persist::save_campaign(path, &self.corpus, &self.checkpoint)?;
        Ok(Some(SaveSummary {
            seeds: self.corpus.len(),
            path: path.clone(),
        }))
    }
}

impl std::fmt::Display for DriveOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.report)?;
        for worker in &self.workers {
            writeln!(
                f,
                "  worker {}: seed {:#018x}  programs {}  steps {}  divergent {}",
                worker.worker,
                worker.seed,
                worker.report.programs,
                worker.report.steps_executed,
                worker.report.divergent_runs,
            )?;
        }
        write!(
            f,
            "  throughput: {:.0} steps/sec aggregate over {} worker(s) ({:.2} s wall)",
            self.steps_per_sec(),
            self.workers.len(),
            self.elapsed.as_secs_f64(),
        )
    }
}

/// One worker the coordinator owns: its campaign and device, the report
/// the campaign continues from, and its budget slice.
struct Worker<D> {
    index: usize,
    campaign: Campaign,
    dut: D,
    report: CampaignReport,
    foreign: u64,
    budget: u64,
    finished: bool,
}

impl<D: Dut> Worker<D> {
    /// Play one round: prime the broadcast, advance the campaign to
    /// `target`, and return the corpus length before the advance — the
    /// worker's novel seeds are `corpus().entries()[before..]`
    /// (broadcast-primed foreign seeds are not among them).
    fn round(&mut self, broadcast: &[SeedEntry], target: u64) -> usize {
        self.foreign += self.campaign.prime(broadcast) as u64;
        self.campaign.set_instruction_budget(target);
        let before = self.campaign.corpus().len();
        let prior = std::mem::take(&mut self.report);
        self.report = self.campaign.resume(&mut self.dut, prior);
        // Falling short of the target means the DUT died for good
        // mid-round (respawn budget exhausted); the worker retires with
        // whatever it observed.
        let dead = self.report.instructions_generated < target;
        self.finished = dead || target >= self.budget;
        before
    }

    fn remote_batches(&self) -> Option<u64> {
        self.dut.remote_stats().map(|stats| stats.batches_issued)
    }

    /// The worker's stream as of now, for an autosave.
    fn checkpoint(&self) -> WorkerStream {
        WorkerStream {
            worker: self.index,
            foreign_admitted: self.foreign,
            remote_batches: self.remote_batches(),
            ..self.campaign.clone().checkpoint(self.report.clone())
        }
    }

    /// The worker's final stream, its state moved rather than cloned.
    fn into_checkpoint(self) -> WorkerStream {
        WorkerStream {
            worker: self.index,
            foreign_admitted: self.foreign,
            remote_batches: self.remote_batches(),
            ..self.campaign.checkpoint(self.report)
        }
    }
}

/// Advance every unfinished worker by one round, each on a scoped
/// thread that borrows it — off the calling thread even at jobs 1, so
/// the caller only ever runs the coordinator's own work. Returns each
/// advanced worker's index and pre-round corpus length, in worker order.
fn play_round<D: Dut + Send>(
    workers: &mut [Worker<D>],
    broadcast: &[SeedEntry],
    round: u64,
    sync_every: u64,
) -> Vec<(usize, usize)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .filter(|worker| !worker.finished)
            .map(|worker| {
                let target = round_target(worker.budget, round, sync_every);
                (
                    worker.index,
                    scope.spawn(move || worker.round(broadcast, target)),
                )
            })
            .collect();
        handles
            .into_iter()
            .map(|(index, handle)| {
                let before = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                (index, before)
            })
            .collect()
    })
}

/// Cumulative per-worker counters the coordinator tracks for events.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerCounters {
    programs: u64,
    instructions: u64,
    steps: u64,
    divergent: u64,
    failures: u64,
    foreign: u64,
}

impl WorkerCounters {
    fn of(report: &CampaignReport, foreign: u64) -> Self {
        WorkerCounters {
            programs: report.programs,
            instructions: report.instructions_generated,
            steps: report.steps_executed,
            divergent: report.divergent_runs,
            failures: report.dut_failures(),
            foreign,
        }
    }
}

/// Mutable coordinator state shared by the round loop, the autosave
/// writer and the outcome builder.
struct CoordinatorState {
    global: Corpus,
    /// Union of the workers' trace coverage as of their last reported
    /// round — what `BatchCompleted::unique_traces` counts.
    live_coverage: CoverageMap,
    /// Each worker's counters as of its last reported round.
    totals: Vec<WorkerCounters>,
    pending: Vec<SeedEntry>,
    autosave_ordinal: u64,
    batches_completed: u64,
    rounds_completed: u64,
}

impl CoordinatorState {
    /// Freeze the coordinated campaign around the workers' streams.
    fn freeze(&self, config: &CampaignConfig, workers: Vec<WorkerStream>) -> CampaignCheckpoint {
        CampaignCheckpoint {
            config_fingerprint: config.fingerprint(),
            autosave_ordinal: self.autosave_ordinal,
            batches_completed: self.batches_completed,
            rounds_completed: self.rounds_completed,
            pending_broadcast: self.pending.len(),
            workers,
        }
    }
}

/// The absolute instruction target worker with budget `budget` advances
/// to in round `round` (0-based, absolute across resume).
fn round_target(budget: u64, round: u64, sync_every: u64) -> u64 {
    if sync_every == 0 {
        budget
    } else {
        budget.min(round.saturating_add(1).saturating_mul(sync_every))
    }
}

fn fire(sink: &mut Option<&mut dyn EventSink>, event: &CampaignEvent) {
    if let Some(sink) = sink {
        sink.event(event);
    }
}

/// Fold the workers' live calibration back into the global corpus.
///
/// Global entries are clones taken at admission time, but the owning
/// worker keeps calibrating its own copy every time the seed is
/// selected and mutated. Before the corpus leaves the coordinator — an
/// autosave or the final outcome — the live values are written back:
/// for each coverage key, the lowest-indexed worker holding it wins,
/// which for an admitted seed is always the worker that admitted it. A
/// jobs-1 save therefore carries exactly the calibration the plain
/// single-threaded campaign would have saved.
fn refresh_calibration<D>(global: &mut Corpus, workers: &[Worker<D>]) {
    let mut live = HashMap::new();
    for worker in workers {
        for entry in worker.campaign.corpus().entries() {
            live.entry(entry.coverage_key())
                .or_insert(entry.calibration);
        }
    }
    for entry in global.entries_mut() {
        if let Some(calibration) = live.get(&entry.coverage_key()) {
            entry.calibration = *calibration;
        }
    }
}

/// Builder-style driver for coordinated campaigns — the one way to run
/// a campaign, ephemeral or persistent, single- or multi-worker.
///
/// ```
/// use tf_arch::{BugScenario, MutantHart};
/// use tf_fuzz::{CampaignConfig, CampaignDriver};
///
/// let config = CampaignConfig::default()
///     .with_instruction_budget(1_000)
///     .with_mem_size(1 << 16);
/// let outcome = CampaignDriver::new(config)
///     .with_jobs(2)
///     .run(|_spec| Ok(MutantHart::new(1 << 16, BugScenario::B2ReservedRounding)))
///     .unwrap();
/// assert!(!outcome.report.is_clean());
/// ```
#[must_use = "a driver does nothing until run"]
pub struct CampaignDriver<'a> {
    config: CampaignConfig,
    jobs: usize,
    corpus: Option<PathBuf>,
    resume: bool,
    seeds: Vec<SeedEntry>,
    autosave_every: u64,
    sync_every: u64,
    sink: Option<&'a mut dyn EventSink>,
}

impl<'a> CampaignDriver<'a> {
    /// A driver for `config`: one worker, ephemeral, live sharing every
    /// [`DEFAULT_SYNC_EVERY`] instructions, autosave off, no sink.
    pub fn new(config: CampaignConfig) -> Self {
        CampaignDriver {
            config,
            jobs: 1,
            corpus: None,
            resume: false,
            seeds: Vec::new(),
            autosave_every: 0,
            sync_every: DEFAULT_SYNC_EVERY,
            sink: None,
        }
    }

    /// Split the instruction budget across `jobs` worker threads
    /// ([`shard_config`]). `jobs = 1` (the default) is bit-identical to
    /// the historical single-threaded campaign.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Make the campaign persistent: seeds (and a checkpoint, if
    /// present) load from `path` before the run, and
    /// [`DriveOutcome::save`] writes the grown corpus plus the final
    /// checkpoint back.
    pub fn with_corpus(mut self, path: impl Into<PathBuf>) -> Self {
        self.corpus = Some(path.into());
        self
    }

    /// Thaw the corpus file's checkpoint and continue toward a raised
    /// budget instead of starting fresh — bit-identical to one
    /// uninterrupted run at the same worker count.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Prime every fresh campaign with these entries (cross-run
    /// cross-pollination), in addition to whatever the corpus file
    /// holds. Ignored on resume — a checkpointed corpus is closed.
    pub fn with_seeds(mut self, seeds: Vec<SeedEntry>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Write a checkpoint every `batches` completed worker-rounds
    /// (deterministic cadence; `0`, the default, disables autosave).
    /// Requires a corpus path.
    pub fn with_autosave_every(mut self, batches: u64) -> Self {
        self.autosave_every = batches;
        self
    }

    /// Per-worker instruction distance between synchronisation rounds —
    /// how often workers exchange novel seeds. `0` disables live
    /// sharing (each worker runs its whole budget in one round).
    pub fn with_sync_every(mut self, instructions: u64) -> Self {
        self.sync_every = instructions;
        self
    }

    /// Deliver live [`CampaignEvent`]s to `sink` during the run.
    pub fn with_event_sink(mut self, sink: &'a mut dyn EventSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Check the invariants [`CampaignDriver::run`] requires.
    ///
    /// # Errors
    ///
    /// Returns [`DriveError::Config`] naming the violated invariant:
    /// the embedded [`CampaignConfig`] must validate, `jobs >= 1`, and
    /// resume/autosave both require a corpus path.
    pub fn validate(&self) -> Result<(), DriveError> {
        self.config.validate().map_err(DriveError::Config)?;
        if self.jobs < 1 {
            return Err(DriveError::Config(ConfigError("jobs must be at least 1")));
        }
        if self.resume && self.corpus.is_none() {
            return Err(DriveError::Config(ConfigError(
                "resume requires a corpus path",
            )));
        }
        if self.autosave_every > 0 && self.corpus.is_none() {
            return Err(DriveError::Config(ConfigError(
                "autosave requires a corpus path",
            )));
        }
        Ok(())
    }

    /// Run the campaign. `dut_factory` is called once per worker, on
    /// the calling thread, with that worker's [`WorkerSpec`]; the
    /// coordinator owns the devices and lends each one, with its
    /// campaign, to a scoped thread every round.
    ///
    /// # Errors
    ///
    /// See [`DriveError`] — configuration, load/resume validation,
    /// factory and autosave failures. A clean run that merely *finds*
    /// divergences is `Ok`; outcomes live in the report.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a worker thread.
    pub fn run<D, F>(mut self, mut dut_factory: F) -> Result<DriveOutcome, DriveError>
    where
        D: Dut + Send,
        F: FnMut(WorkerSpec) -> Result<D, String>,
    {
        self.validate()?;
        let jobs = self.jobs;
        let config = self.config.clone();
        let budget = config.instruction_budget;
        let mut sink = self.sink.take();

        // 1. Load the corpus file, if any.
        let mut loaded: Option<LoadedFile> = match &self.corpus {
            Some(path) if path.exists() => {
                let loaded = persist::load_file(path).map_err(DriveError::Load)?;
                fire(
                    &mut sink,
                    &CampaignEvent::CorpusLoaded {
                        loaded: loaded.report.loaded,
                        skipped: loaded.report.skipped,
                        truncated: loaded.report.truncated,
                        checkpoint: loaded.checkpoint.is_some(),
                    },
                );
                Some(loaded)
            }
            Some(path) if self.resume => {
                return Err(DriveError::ResumeMissing(path.clone()));
            }
            _ => None,
        };

        // 2. Resume sanity checks that need no DUT.
        let checkpoint: Option<CampaignCheckpoint> = if self.resume {
            let path = self.corpus.as_deref().expect("validated above");
            let loaded = loaded.as_mut().expect("missing-file case handled above");
            if loaded.report.skipped > 0 || loaded.report.truncated {
                return Err(DriveError::ResumeDamaged {
                    path: path.to_path_buf(),
                    skipped: loaded.report.skipped,
                    truncated: loaded.report.truncated,
                });
            }
            let Some(checkpoint) = loaded.checkpoint.take() else {
                return Err(DriveError::NoCheckpoint(path.to_path_buf()));
            };
            if checkpoint.worker_count() != jobs {
                return Err(DriveError::JobsMismatch {
                    frozen: checkpoint.worker_count(),
                    requested: jobs,
                });
            }
            config
                .check_resume(checkpoint.config_fingerprint)
                .map_err(DriveError::Restore)?;
            Some(checkpoint)
        } else {
            None
        };
        let streams = checkpoint.as_ref().map(|c| c.workers.as_slice());

        // 3. Equip every worker with a DUT.
        let mut duts: Vec<D> = Vec::with_capacity(jobs);
        for worker in 0..jobs {
            let spec = WorkerSpec {
                worker,
                seed: worker_seed(config.seed, worker),
                remote_batches: streams
                    .and_then(|streams| streams[worker].remote_batches)
                    .unwrap_or(0),
            };
            duts.push(dut_factory(spec).map_err(DriveError::DutFactory)?);
        }

        // 4. Set up the global corpus: thawed, or primed from the seeds.
        let mut state = CoordinatorState {
            global: Corpus::new(config.seed),
            live_coverage: CoverageMap::new(),
            totals: Vec::new(),
            pending: Vec::new(),
            autosave_ordinal: 0,
            batches_completed: 0,
            rounds_completed: 0,
        };
        if let Some(checkpoint) = &checkpoint {
            for (stream, dut) in checkpoint.workers.iter().zip(&duts) {
                if stream.report.dut != dut.name() {
                    return Err(DriveError::DutMismatch {
                        recorded: stream.report.dut.clone(),
                        offered: dut.name().to_string(),
                    });
                }
            }
            let covered = checkpoint
                .workers
                .iter()
                .map(|stream| stream.report.instructions_generated)
                .sum();
            if covered >= budget {
                return Err(DriveError::NothingToResume { covered });
            }
            fire(
                &mut sink,
                &CampaignEvent::Resuming {
                    instructions_done: covered,
                    budget,
                },
            );
            let entries = &loaded.as_ref().expect("resume loads a file").entries;
            state.global.merge_entries(entries);
            state.autosave_ordinal = checkpoint.autosave_ordinal;
            state.batches_completed = checkpoint.batches_completed;
            state.rounds_completed = checkpoint.rounds_completed;
            let tail = checkpoint.pending_broadcast.min(state.global.len());
            state.pending = state.global.entries()[state.global.len() - tail..].to_vec();
        } else {
            // The global corpus is primed once, up front, and every
            // worker primes it at its seat — so the round-0 broadcast is
            // empty and primed seeds never count as foreign admissions.
            let mut admitted = 0usize;
            if let Some(loaded) = &loaded {
                admitted += state.global.merge_entries(&loaded.entries);
            }
            admitted += state.global.merge_entries(&self.seeds);
            // Fires whenever there was anything to prime from — even an
            // (empty) existing file — so persistent runs always log the
            // admission count.
            if loaded.is_some() || !self.seeds.is_empty() {
                fire(&mut sink, &CampaignEvent::CorpusPrimed { admitted });
            }
        }

        // 5. Seat the workers: each thaws its own stream, or starts
        // fresh from the primed global corpus.
        let mut workers = Vec::with_capacity(jobs);
        for (index, dut) in duts.into_iter().enumerate() {
            let worker_config = shard_config(&config, jobs, index);
            let budget = worker_config.instruction_budget;
            let (campaign, report, foreign) = match streams {
                Some(streams) => {
                    let stream = &streams[index];
                    let campaign =
                        Campaign::restore(worker_config, stream).map_err(DriveError::Restore)?;
                    (campaign, stream.report.clone(), stream.foreign_admitted)
                }
                None => {
                    let mut campaign = Campaign::new(worker_config);
                    campaign.prime(state.global.entries());
                    (campaign, CampaignReport::default(), 0)
                }
            };
            state.totals.push(WorkerCounters::of(&report, foreign));
            workers.push(Worker {
                index,
                campaign,
                dut,
                report,
                foreign,
                budget,
                finished: false,
            });
        }
        // The thawed streams and loaded records now live in the workers
        // and the global corpus.
        drop((checkpoint, loaded));

        // 6. The round loop.
        let sync_every = self.sync_every;
        let autosave_every = self.autosave_every;
        let mut next_autosave = state.batches_completed + autosave_every;
        let path = self.corpus.clone();
        let first_round = state.rounds_completed;
        let steps_before: u64 = state.totals.iter().map(|c| c.steps).sum();
        let start = Instant::now();
        while workers.iter().any(|worker| !worker.finished) {
            let broadcast = std::mem::take(&mut state.pending);
            let round = state.rounds_completed;
            let advanced = play_round(&mut workers, &broadcast, round, sync_every);
            state.rounds_completed += 1;
            // Admission order is (round, worker id) — never completion
            // order — which is what makes a fixed worker count
            // deterministic. Only the round's novel seeds cross over.
            let tail_start = state.global.len();
            for (index, before) in advanced {
                let worker = &workers[index];
                let novel = &worker.campaign.corpus().entries()[before..];
                state.batches_completed += 1;
                let admitted = state.global.merge_entries(novel);
                if round == first_round {
                    state.live_coverage.merge(worker.campaign.coverage());
                } else {
                    // Every other key a worker learns arrives through a
                    // broadcast, i.e. another worker's novel seeds.
                    for entry in novel {
                        state.live_coverage.admit(entry.trace_digest);
                        state.live_coverage.admit_trap_set(entry.trap_causes);
                    }
                }
                let counters = WorkerCounters::of(&worker.report, worker.foreign);
                let previous = std::mem::replace(&mut state.totals[index], counters);
                let mut sum = WorkerCounters::default();
                for c in &state.totals {
                    sum.programs += c.programs;
                    sum.instructions += c.instructions;
                    sum.steps += c.steps;
                    sum.divergent += c.divergent;
                    sum.failures += c.failures;
                    sum.foreign += c.foreign;
                }
                fire(
                    &mut sink,
                    &CampaignEvent::BatchCompleted {
                        worker: index,
                        batch: state.batches_completed,
                        programs: sum.programs,
                        instructions: sum.instructions,
                        steps: sum.steps,
                        unique_traces: state.live_coverage.unique(),
                        corpus: state.global.len(),
                        divergent_runs: sum.divergent,
                        dut_failures: sum.failures,
                        admitted,
                        foreign_admitted: sum.foreign,
                    },
                );
                if counters.divergent > previous.divergent {
                    fire(
                        &mut sink,
                        &CampaignEvent::DivergenceFound {
                            worker: index,
                            divergent_runs: counters.divergent,
                        },
                    );
                }
                if counters.failures > previous.failures {
                    fire(
                        &mut sink,
                        &CampaignEvent::DutFailureRecorded {
                            worker: index,
                            dut_failures: counters.failures,
                        },
                    );
                }
            }
            // The admitted tail is next round's broadcast. Its entries
            // are the admitting workers' end-of-round copies, so they
            // already carry the live calibration a resumed run rebuilds
            // from the saved entries.
            state.pending = state.global.entries()[tail_start..].to_vec();
            if autosave_every > 0 && state.batches_completed >= next_autosave {
                let path = path.as_deref().expect("validated: autosave needs a path");
                state.autosave_ordinal += 1;
                refresh_calibration(&mut state.global, &workers);
                let streams = workers.iter().map(Worker::checkpoint).collect();
                let frozen = state.freeze(&config, streams);
                persist::save_campaign(path, state.global.entries(), &frozen)
                    .map_err(DriveError::Save)?;
                fire(
                    &mut sink,
                    &CampaignEvent::AutosaveWritten {
                        ordinal: state.autosave_ordinal,
                        batches_completed: state.batches_completed,
                    },
                );
                while next_autosave <= state.batches_completed {
                    next_autosave += autosave_every;
                }
            }
        }
        let elapsed = start.elapsed();
        let run_steps = state.totals.iter().map(|c| c.steps).sum::<u64>() - steps_before;

        // 7. Fold the final outcome from the workers' moved state.
        refresh_calibration(&mut state.global, &workers);
        let remote = workers[0].dut.remote_stats();
        let streams = workers.into_iter().map(Worker::into_checkpoint).collect();
        let checkpoint = state.freeze(&config, streams);
        let (mut report, coverage) = checkpoint.fold();
        report.corpus_size = state.global.len();
        let workers = checkpoint
            .workers
            .iter()
            .map(|stream| WorkerReport {
                worker: stream.worker,
                seed: worker_seed(config.seed, stream.worker),
                report: stream.report.clone(),
            })
            .collect();
        let foreign_admitted = checkpoint
            .workers
            .iter()
            .map(|stream| stream.foreign_admitted)
            .sum();
        Ok(DriveOutcome {
            report,
            workers,
            coverage,
            corpus: state.global.into_entries(),
            elapsed,
            foreign_admitted,
            batches_completed: state.batches_completed,
            rounds_completed: state.rounds_completed,
            autosaves: state.autosave_ordinal,
            remote,
            checkpoint,
            path,
            run_steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_arch::{BugScenario, Hart, MutantHart};

    fn config(budget: u64) -> CampaignConfig {
        CampaignConfig::default()
            .with_seed(0xF00D)
            .with_instruction_budget(budget)
            .with_mem_size(1 << 16)
    }

    #[test]
    fn worker_seeds_are_stable_and_job_count_independent() {
        assert_eq!(worker_seed(42, 0), 42, "worker 0 inherits the master");
        let w1 = worker_seed(42, 1);
        let w2 = worker_seed(42, 2);
        assert_ne!(w1, 42);
        assert_ne!(w1, w2);
        // Re-derivation is stable: there is no hidden job-count input.
        assert_eq!(worker_seed(42, 1), w1);
        assert_eq!(worker_seed(42, 2), w2);
    }

    #[test]
    fn shard_budgets_cover_the_master_budget_exactly() {
        let config = CampaignConfig {
            instruction_budget: 10_001,
            ..CampaignConfig::default()
        };
        for jobs in 1..=7 {
            let total: u64 = (0..jobs)
                .map(|w| shard_config(&config, jobs, w).instruction_budget)
                .sum();
            assert_eq!(total, 10_001, "budget lost or invented at jobs={jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "worker index out of range")]
    fn shard_config_rejects_out_of_range_workers() {
        let _ = shard_config(&CampaignConfig::default(), 2, 2);
    }

    #[test]
    fn one_worker_is_bit_identical_to_the_plain_campaign() {
        // The tentpole invariant: coordinated jobs=1 — rounds, echo
        // broadcasts and all — reproduces Campaign::run bit for bit.
        let mut campaign = Campaign::new(config(3_000));
        let mut dut = MutantHart::new(1 << 16, BugScenario::B2ReservedRounding);
        let plain = campaign.run(&mut dut);

        let outcome = CampaignDriver::new(config(3_000))
            .run(|_| Ok(MutantHart::new(1 << 16, BugScenario::B2ReservedRounding)))
            .unwrap();
        assert_eq!(outcome.report, plain, "driver drifted from Campaign::run");
        assert_eq!(outcome.corpus, campaign.corpus().entries());
        assert_eq!(outcome.foreign_admitted, 0, "echo broadcasts admit nothing");
    }

    #[test]
    fn one_worker_identity_holds_across_sync_cadences() {
        let run = |sync_every: u64| {
            let outcome = CampaignDriver::new(config(2_000))
                .with_sync_every(sync_every)
                .run(|_| Ok(Hart::new(1 << 16)))
                .unwrap();
            (outcome.report.clone(), outcome.corpus.clone())
        };
        let whole = run(0);
        for sync_every in [64, 512, 1024] {
            assert_eq!(run(sync_every), whole, "sync {sync_every} drifted");
        }
    }

    #[test]
    fn multi_worker_campaigns_share_seeds_while_running() {
        // The live-sharing acceptance criterion: a jobs-4 campaign
        // admits at least one seed discovered by a different worker
        // before the run ends.
        let outcome = CampaignDriver::new(config(8_000))
            .with_jobs(4)
            .with_sync_every(512)
            .run(|_| Ok(Hart::new(1 << 16)))
            .unwrap();
        assert!(
            outcome.foreign_admitted >= 1,
            "no cross-worker admissions in {} rounds",
            outcome.rounds_completed
        );
        assert_eq!(outcome.workers.len(), 4);
    }

    #[test]
    fn multi_worker_campaigns_are_deterministic() {
        let run = || {
            let outcome = CampaignDriver::new(config(6_000))
                .with_jobs(4)
                .run(|_| Ok(MutantHart::new(1 << 16, BugScenario::OffByOneImmediate)))
                .unwrap();
            (
                outcome.report.clone(),
                outcome.corpus.clone(),
                outcome.foreign_admitted,
            )
        };
        assert_eq!(run(), run(), "jobs=4 reran differently");
    }

    #[test]
    fn event_sinks_see_the_campaign_grow() {
        let mut batches = 0u64;
        let mut last_instructions = 0u64;
        let mut sink = |event: &CampaignEvent| {
            if let CampaignEvent::BatchCompleted {
                batch,
                instructions,
                ..
            } = event
            {
                batches = *batch;
                assert!(*instructions >= last_instructions, "counters ran backward");
                last_instructions = *instructions;
            }
        };
        let outcome = CampaignDriver::new(config(2_000))
            .with_event_sink(&mut sink)
            .run(|_| Ok(Hart::new(1 << 16)))
            .unwrap();
        assert_eq!(batches, outcome.batches_completed);
        assert_eq!(last_instructions, outcome.report.instructions_generated);
    }

    #[test]
    fn the_driver_validates_before_running() {
        assert!(matches!(
            CampaignDriver::new(config(1_000)).with_jobs(0).validate(),
            Err(DriveError::Config(_))
        ));
        assert!(matches!(
            CampaignDriver::new(config(1_000))
                .with_resume(true)
                .validate(),
            Err(DriveError::Config(_))
        ));
        assert!(matches!(
            CampaignDriver::new(config(1_000))
                .with_autosave_every(4)
                .validate(),
            Err(DriveError::Config(_))
        ));
        assert!(CampaignDriver::new(config(1_000)).validate().is_ok());
    }

    #[test]
    fn resumed_throughput_counts_only_this_runs_steps() {
        let dir = std::env::temp_dir().join(format!("tf-coord-rate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.tfc");
        let drive = |budget: u64, resume: bool| {
            CampaignDriver::new(config(budget))
                .with_corpus(&path)
                .with_resume(resume)
                .run(|_| Ok(Hart::new(1 << 16)))
                .unwrap()
        };
        let half = drive(1_000, false);
        half.save().unwrap();
        let resumed = drive(2_000, true);
        // The report also counts the checkpoint's steps; the rate must not.
        let run = resumed.report.steps_executed - half.report.steps_executed;
        let counted = resumed.steps_per_sec() * resumed.elapsed.as_secs_f64();
        assert!(
            (counted - run as f64).abs() < 0.5,
            "rate covers {counted} steps, the resumed run took {run}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failing_dut_factory_surfaces_cleanly() {
        let error = CampaignDriver::new(config(1_000))
            .run(|_| -> Result<Hart, String> { Err("no such device".into()) })
            .unwrap_err();
        assert_eq!(error.to_string(), "no such device");
    }
}
