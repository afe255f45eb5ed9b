//! The three benchmark workloads and the campaigns each one drives.
//!
//! Every workload is a list of [`CampaignSpec`]s derived from the
//! workload seed alone; the program under test only ever sees the
//! resulting [`CampaignConfig`]s. Why each workload exists is recorded in
//! this package's `README.md`.

use std::path::{Path, PathBuf};
use std::time::Duration;

use tf_arch::{BugScenario, Dut, Hart, MutantHart};
use tf_fuzz::{
    CampaignConfig, CampaignDriver, CampaignEvent, CampaignReport, DriveOutcome, EventSink,
    PowerSchedule, WorkerSpec,
};

use crate::cpu;

/// Workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Seed reserved for re-checking a claimed gain: never tune on it.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Generated instructions of the `clean-long` campaign (the ROADMAP's
/// realistic length).
pub const CLEAN_BUDGET: u64 = 1_000_000;

/// Per-campaign instruction cap of the `detect-matrix` cells, as in
/// `crates/fuzz/benches/detect.rs`.
pub const DETECT_CAP: u64 = 20_000;

/// Campaign seeds per `detect-matrix` (scenario, schedule) cell.
pub const DETECT_SEEDS: u64 = 3;

/// Device memory of the `detect-matrix` cells, as in the detect bench.
pub const DETECT_MEM: u64 = 1 << 16;

/// Full budget of `resume-jobs2`; its checkpoint is frozen at half.
pub const RESUME_BUDGET: u64 = 1_000_000;

/// Worker count of `resume-jobs2`.
pub const RESUME_JOBS: usize = 2;

/// Autosave cadence of `resume-jobs2`, in worker-rounds.
pub const RESUME_AUTOSAVE_EVERY: u64 = 64;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Golden vs golden, jobs 1, fresh corpus, 1M instructions.
    CleanLong,
    /// Every bug scenario x every power schedule x a seed set.
    DetectMatrix,
    /// Golden vs golden, jobs 2, resumed from a half-budget checkpoint.
    ResumeJobs2,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CleanLong,
        Workload::DetectMatrix,
        Workload::ResumeJobs2,
    ];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CleanLong => "clean-long",
            Workload::DetectMatrix => "detect-matrix",
            Workload::ResumeJobs2 => "resume-jobs2",
        }
    }

    /// Parse a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's campaigns must come out clean.
    #[must_use]
    pub fn golden(self) -> bool {
        self != Workload::DetectMatrix
    }

    /// Build the workload's campaigns for `seed`. Untimed set-up happens
    /// here: `resume-jobs2` runs its half-budget campaign and freezes
    /// the checkpoint into `work`.
    ///
    /// # Errors
    ///
    /// Propagates a failed set-up campaign or checkpoint write.
    pub fn specs(self, seed: u64, work: &Path) -> Result<Vec<CampaignSpec>, String> {
        match self {
            Workload::CleanLong => Ok(vec![CampaignSpec::fresh(
                CampaignConfig::default()
                    .with_seed(campaign_seed(seed, 0))
                    .with_instruction_budget(CLEAN_BUDGET),
                1,
                DutKind::Golden,
            )]),
            Workload::DetectMatrix => {
                let mut specs = Vec::new();
                for scenario in BugScenario::ALL {
                    for schedule in PowerSchedule::ALL {
                        for k in 0..DETECT_SEEDS {
                            let config = CampaignConfig::default()
                                .with_seed(campaign_seed(seed, k))
                                .with_instruction_budget(DETECT_CAP)
                                .with_mem_size(DETECT_MEM)
                                .with_schedule(schedule);
                            specs.push(CampaignSpec::fresh(config, 1, DutKind::Mutant(scenario)));
                        }
                    }
                }
                Ok(specs)
            }
            Workload::ResumeJobs2 => {
                let config = CampaignConfig::default().with_seed(campaign_seed(seed, 0));
                let pristine = work.join("half.tfc");
                let half =
                    CampaignDriver::new(config.clone().with_instruction_budget(RESUME_BUDGET / 2))
                        .with_jobs(RESUME_JOBS)
                        .with_corpus(&pristine)
                        .run(|_| Ok(Hart::new(config.mem_size)))
                        .map_err(|e| format!("building the resume checkpoint: {e}"))?;
                half.save()
                    .map_err(|e| format!("saving the resume checkpoint: {e}"))?;
                Ok(vec![CampaignSpec {
                    config: config.with_instruction_budget(RESUME_BUDGET),
                    jobs: RESUME_JOBS,
                    dut: DutKind::Golden,
                    resume: Some(Resume {
                        pristine,
                        live: work.join("live.tfc"),
                        prior: half.report.clone(),
                        prior_corpus: half.corpus.len(),
                        prior_rounds: half.rounds_completed,
                    }),
                }])
            }
        }
    }
}

/// Mix the workload seed into the `k`-th campaign seed (splitmix64
/// finalizer), so neighbouring workload seeds give unrelated campaigns.
#[must_use]
pub fn campaign_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The device a campaign diffs against the golden reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DutKind {
    /// The golden [`Hart`] itself.
    Golden,
    /// A [`MutantHart`] with one planted bug.
    Mutant(BugScenario),
}

/// What a resumed campaign starts from.
#[derive(Debug, Clone)]
pub struct Resume {
    /// The frozen half-budget checkpoint, never written after set-up.
    pub pristine: PathBuf,
    /// The copy each run resumes and autosaves into.
    pub live: PathBuf,
    /// The checkpoint's report: counters the resumed run did not earn.
    pub prior: CampaignReport,
    /// The checkpoint's corpus size.
    pub prior_corpus: usize,
    /// The checkpoint's coordinator rounds.
    pub prior_rounds: u64,
}

/// One campaign of a workload.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// The campaign configuration the program receives.
    pub config: CampaignConfig,
    /// Worker threads.
    pub jobs: usize,
    /// The device under test.
    pub dut: DutKind,
    /// Resume set-up, for `resume-jobs2`.
    pub resume: Option<Resume>,
}

impl CampaignSpec {
    fn fresh(config: CampaignConfig, jobs: usize, dut: DutKind) -> Self {
        CampaignSpec {
            config,
            jobs,
            dut,
            resume: None,
        }
    }

    /// Run the campaign once through [`CampaignDriver`], building each
    /// worker's device with `factory` and forwarding events to `sink`.
    ///
    /// CPU time is split at the round loop's edges, seen from the
    /// coordinator thread (which runs `run` itself and alone runs outside
    /// the loop): set-up is its CPU time from the call to the first
    /// round's `BatchCompleted` event and from the last round's event to
    /// the return; the loop is the rest of the process's CPU time.
    ///
    /// # Errors
    ///
    /// The driver's error, or an unreadable CPU clock.
    pub fn drive<D, F>(
        &self,
        factory: F,
        mut sink: Option<&mut dyn EventSink>,
    ) -> Result<Drive, String>
    where
        D: Dut + Send,
        F: FnMut(WorkerSpec) -> Result<D, String>,
    {
        let mut driver = CampaignDriver::new(self.config.clone()).with_jobs(self.jobs);
        if let Some(resume) = &self.resume {
            // Every run resumes the same frozen file, not the previous
            // run's autosaves.
            std::fs::copy(&resume.pristine, &resume.live)
                .map_err(|e| format!("copying the resume checkpoint: {e}"))?;
            driver = driver
                .with_corpus(&resume.live)
                .with_resume(true)
                .with_autosave_every(RESUME_AUTOSAVE_EVERY);
        }
        let (mut first_main, mut last_main) = (None, 0);
        let mut clock_error = None;
        let mut sampler = |event: &CampaignEvent| {
            if let Some(inner) = sink.as_deref_mut() {
                inner.event(event);
            }
            if matches!(event, CampaignEvent::BatchCompleted { .. }) {
                match cpu::thread_ns() {
                    Ok(main) => {
                        first_main.get_or_insert(main);
                        last_main = main;
                    }
                    Err(e) => clock_error = Some(e),
                }
            }
        };
        let clock = |e: std::io::Error| format!("reading the CPU clock: {e}");
        let process_start = cpu::process_ns().map_err(clock)?;
        let main_start = cpu::thread_ns().map_err(clock)?;
        let outcome = driver
            .with_event_sink(&mut sampler)
            .run(factory)
            .map_err(|e| e.to_string())?;
        let main_end = cpu::thread_ns().map_err(clock)?;
        let process = cpu::process_ns().map_err(clock)? - process_start;
        if let Some(e) = clock_error {
            return Err(clock(e));
        }
        let first_main = first_main.ok_or("the campaign completed no round")?;
        let setup = first_main - main_start + (main_end - last_main);
        Ok(Drive {
            cpu_setup: Duration::from_nanos(setup),
            cpu_loop: Duration::from_nanos(process.saturating_sub(setup)),
            counts: Counts::of(&outcome),
            outcome,
        })
    }

    /// Run the campaign against the bare device.
    ///
    /// # Errors
    ///
    /// See [`CampaignSpec::drive`].
    pub fn drive_bare(&self) -> Result<Drive, String> {
        let mem = self.config.mem_size;
        match self.dut {
            DutKind::Golden => self.drive(|_| Ok(Hart::new(mem)), None),
            DutKind::Mutant(scenario) => self.drive(|_| Ok(MutantHart::new(mem, scenario)), None),
        }
    }

    /// Programs diffed by one run of this campaign (excluding what a
    /// resumed checkpoint already covered).
    #[must_use]
    pub fn programs_done(&self, report: &CampaignReport) -> u64 {
        report.programs - self.resume.as_ref().map_or(0, |r| r.prior.programs)
    }

    /// Lockstep steps executed by one run of this campaign.
    #[must_use]
    pub fn steps_done(&self, report: &CampaignReport) -> u64 {
        report.steps_executed - self.resume.as_ref().map_or(0, |r| r.prior.steps_executed)
    }

    /// Seeds one run of this campaign added to the corpus.
    #[must_use]
    pub fn admitted(&self, outcome: &DriveOutcome) -> usize {
        outcome.corpus.len() - self.resume.as_ref().map_or(0, |r| r.prior_corpus)
    }
}

/// One finished [`CampaignDriver::run`].
#[derive(Debug)]
pub struct Drive {
    /// CPU time outside the round loop: load, restore, device
    /// construction, priming and the closing freeze.
    pub cpu_setup: Duration,
    /// CPU time of every thread inside the round loop.
    pub cpu_loop: Duration,
    /// The counted outputs every repeat must reproduce.
    pub counts: Counts,
    /// The driver's outcome.
    pub outcome: DriveOutcome,
}

/// The counted outputs of one campaign. They are a pure function of the
/// campaign's configuration, so every repeat must reproduce them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// Programs diffed (cumulative, as reported).
    pub programs: u64,
    /// Lockstep steps (cumulative, as reported).
    pub steps: u64,
    /// Distinct trace digests.
    pub unique_traces: usize,
    /// Corpus seeds.
    pub corpus: usize,
    /// Divergent runs.
    pub divergent: u64,
    /// DUT failures.
    pub dut_failures: u64,
    /// Instructions generated at the first divergence.
    pub first_divergence_at: Option<u64>,
}

impl Counts {
    /// The counted outputs of `outcome`.
    #[must_use]
    pub fn of(outcome: &DriveOutcome) -> Counts {
        let r = &outcome.report;
        Counts {
            programs: r.programs,
            steps: r.steps_executed,
            unique_traces: r.unique_traces,
            corpus: outcome.corpus.len(),
            divergent: r.divergent_runs,
            dut_failures: r.dut_failures(),
            first_divergence_at: r.first_divergence_at,
        }
    }
}
