//! Flag parsing for `tf-cli`, dependency-free by design.

use tf_arch::BugScenario;
use tf_fuzz::{PowerSchedule, DEFAULT_WINDOW};

/// Usage text for `--help` and parse failures.
pub const USAGE: &str = "\
tf-cli — TurboFuzz differential fuzzing campaigns

USAGE:
    tf-cli fuzz [OPTIONS]
    tf-cli serve [OPTIONS]
    tf-cli corpus info <FILE>
    tf-cli corpus merge <OUT> <IN>...
    tf-cli corpus minimize <FILE> [--out <OUT>]

FUZZ OPTIONS:
    --seed <N>        campaign seed (default 0)
    --steps <M>       generated-instruction budget (default 10000)
    --len <L>         instructions per program, incl. ebreak (default 32)
    --window <K>      lockstep window: 1 compares digests after every
                      step; any K > 1 runs each program as one batch per
                      side, compares the final digests and replays the
                      program step by step when they mismatch; reported
                      divergences are bit-identical at every K
                      (default 16)
    --jobs <J>        worker threads; the budget is sharded across
                      seed-disjoint campaigns coordinated around one
                      shared corpus — novel seeds are admitted centrally
                      and broadcast to every worker while the campaign
                      runs — and the reports merged (default 1, which is
                      bit-identical to the single-threaded campaign;
                      any fixed J is deterministic)
    --schedule <S>    corpus power schedule: uniform | fast | explore
                      (default uniform, which is bit-identical to
                      pre-scheduler campaigns; fast and explore weight
                      seed selection by calibration-derived energy and
                      stay just as deterministic)
    --mutant <ID>     fuzz a known-buggy DUT: b2 | imm | fflags |
                      csrmask | btrunc | ldsext
                      (default: the golden reference hart)
    --dut cmd:<ARGV>  fuzz an out-of-process DUT: spawn ARGV
                      (whitespace-split) and speak the remote-DUT wire
                      protocol over its stdin/stdout — e.g.
                      `--dut \"cmd:tf-cli serve --mutant b2\"`. Child
                      crashes, hangs and protocol desyncs become
                      findings in the report; the child is respawned
                      with bounded exponential backoff and the campaign
                      keeps fuzzing. Requires --jobs 1 and excludes
                      --mutant (inject bugs server-side instead)
    --expect <WHAT>   exit non-zero unless the campaign reported what
                      you asked for: divergence | clean | crash | hang
                      (clean also requires zero dut failures)
    --corpus <FILE>   persistent corpus: seed the campaign from FILE when
                      it exists, and save the grown corpus plus a
                      resumable checkpoint (with per-worker rng streams)
                      back to it atomically when the campaign finishes
    --resume          continue the campaign checkpointed in --corpus up
                      to the (raised) --steps budget — bit-identical to a
                      single uninterrupted run; requires the same
                      seed/len/flags and the same --jobs count as the
                      checkpointed run
    --autosave-every <B>  with --corpus: also checkpoint mid-run, every B
                      completed worker batches (deterministic cadence), so
                      a killed campaign resumes from the last autosave
    --stats-every <B> print live campaign statistics to stderr every B
                      completed worker batches (stdout stays report-only)
    -h, --help        print this help

SERVE OPTIONS (the server side of `--dut`; protocol frames only on
stdout, diagnostics on stderr):
    --mutant <ID>           serve a known-buggy DUT (same ids as fuzz)
    --mem <BYTES>           served memory size; must match the client
                            campaign's mem_size (default 1048576)
    --chaos-crash-after <N> exit abruptly at cumulative batch N (0-based)
    --chaos-hang-after <N>  stop answering at cumulative batch N
    --chaos-garble-after <N> send one corrupt frame at cumulative batch N
                            (each chaos trigger fires exactly once per
                            campaign: batch ordinals count across
                            respawns and --resume)

CORPUS COMMANDS (all files use the versioned on-disk corpus format):
    info              print header, entry and coverage statistics
    merge             combine corpora from separate runs, deduplicated by
                      coverage key, into OUT (checkpoints are stripped)
    minimize          keep only entries contributing new coverage; write
                      back in place, or to --out";

/// Outcome the caller requires, mapped to the exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// At least one divergence must be reported.
    Divergence,
    /// No divergence — and no DUT failure — may be reported.
    Clean,
    /// At least one DUT crash finding must be reported.
    Crash,
    /// At least one DUT hang finding must be reported.
    Hang,
}

impl std::fmt::Display for Expectation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Expectation::Divergence => "divergence",
            Expectation::Clean => "clean",
            Expectation::Crash => "crash",
            Expectation::Hang => "hang",
        })
    }
}

/// Parsed `tf-cli fuzz` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzArgs {
    /// Campaign seed.
    pub seed: u64,
    /// Generated-instruction budget.
    pub steps: u64,
    /// Program length.
    pub len: usize,
    /// Lockstep window: 1 compares after every step, any larger value
    /// one batch per side.
    pub window: u64,
    /// Worker threads to shard the budget across.
    pub jobs: usize,
    /// Corpus power schedule.
    pub schedule: PowerSchedule,
    /// Bug scenario to inject into the DUT, if any.
    pub mutant: Option<BugScenario>,
    /// Out-of-process DUT command (whitespace-split argv), if any.
    pub dut: Option<Vec<String>>,
    /// Required campaign outcome, if any.
    pub expect: Option<Expectation>,
    /// Persistent corpus file to load seeds from and save back to.
    pub corpus: Option<String>,
    /// Resume the checkpoint stored in the corpus file.
    pub resume: bool,
    /// Mid-run checkpoint cadence in completed batches (0 = off).
    pub autosave_every: u64,
    /// Live-stats cadence in completed batches (0 = off).
    pub stats_every: u64,
    /// `-h`/`--help` was given: print usage instead of fuzzing.
    pub help: bool,
}

impl Default for FuzzArgs {
    fn default() -> Self {
        FuzzArgs {
            seed: 0,
            steps: 10_000,
            len: 32,
            window: DEFAULT_WINDOW,
            jobs: 1,
            schedule: PowerSchedule::Uniform,
            mutant: None,
            dut: None,
            expect: None,
            corpus: None,
            resume: false,
            autosave_every: 0,
            stats_every: 0,
            help: false,
        }
    }
}

impl FuzzArgs {
    /// Parse the arguments following the `fuzz` subcommand.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags, missing or
    /// unparsable values.
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = FuzzArgs::default();
        let mut argv = argv.peekable();
        while let Some(flag) = argv.next() {
            let mut value = |name: &str| {
                argv.next()
                    .ok_or_else(|| format!("`{name}` requires a value"))
            };
            match flag.as_str() {
                "--seed" => args.seed = parse_int(&value("--seed")?, "--seed")?,
                "--steps" => {
                    args.steps = parse_int(&value("--steps")?, "--steps")?;
                    if args.steps == 0 {
                        return Err("`--steps` must be positive".into());
                    }
                }
                "--len" => {
                    args.len = parse_int(&value("--len")?, "--len")? as usize;
                    if args.len == 0 {
                        return Err("`--len` must be positive".into());
                    }
                }
                "--window" => {
                    args.window = parse_int(&value("--window")?, "--window")?;
                    if args.window == 0 {
                        return Err("`--window` must be positive".into());
                    }
                }
                "--jobs" => {
                    args.jobs = parse_int(&value("--jobs")?, "--jobs")? as usize;
                    if args.jobs == 0 {
                        return Err("`--jobs` must be positive".into());
                    }
                }
                "--schedule" => {
                    let id = value("--schedule")?;
                    args.schedule = PowerSchedule::parse(&id).ok_or_else(|| {
                        let known: Vec<&str> = PowerSchedule::ALL.iter().map(|s| s.id()).collect();
                        format!("unknown schedule `{id}` (known: {})", known.join(", "))
                    })?;
                }
                "--mutant" => {
                    let id = value("--mutant")?;
                    args.mutant = Some(BugScenario::parse(&id).ok_or_else(|| {
                        let known: Vec<&str> = BugScenario::ALL.iter().map(|s| s.id()).collect();
                        format!("unknown mutant `{id}` (known: {})", known.join(", "))
                    })?);
                }
                "--dut" => {
                    let spec = value("--dut")?;
                    let rest = spec
                        .strip_prefix("cmd:")
                        .ok_or_else(|| format!("`--dut` expects `cmd:<argv>`, got `{spec}`"))?;
                    let argv: Vec<String> = rest.split_whitespace().map(str::to_string).collect();
                    if argv.is_empty() {
                        return Err("`--dut cmd:` needs a command to run".into());
                    }
                    args.dut = Some(argv);
                }
                "--expect" => {
                    args.expect = Some(match value("--expect")?.as_str() {
                        "divergence" => Expectation::Divergence,
                        "clean" => Expectation::Clean,
                        "crash" => Expectation::Crash,
                        "hang" => Expectation::Hang,
                        other => {
                            return Err(format!(
                                "unknown expectation `{other}` \
                                 (known: divergence, clean, crash, hang)"
                            ))
                        }
                    });
                }
                "--corpus" => args.corpus = Some(value("--corpus")?),
                "--resume" => args.resume = true,
                "--autosave-every" => {
                    args.autosave_every =
                        parse_int(&value("--autosave-every")?, "--autosave-every")?;
                }
                "--stats-every" => {
                    args.stats_every = parse_int(&value("--stats-every")?, "--stats-every")?;
                }
                "-h" | "--help" => args.help = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if args.resume && args.corpus.is_none() {
            return Err("`--resume` requires `--corpus <FILE>`".into());
        }
        if args.autosave_every > 0 && args.corpus.is_none() {
            return Err("`--autosave-every` requires `--corpus <FILE>`".into());
        }
        if args.dut.is_some() {
            if args.mutant.is_some() {
                return Err("`--dut` excludes `--mutant`: inject bugs server-side \
                     (`tf-cli serve --mutant …`) instead"
                    .into());
            }
            if args.jobs != 1 {
                return Err("`--dut` requires `--jobs 1` (one supervised child)".into());
            }
        }
        Ok(args)
    }
}

/// Parsed `tf-cli serve` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Bug scenario to inject into the served DUT, if any.
    pub mutant: Option<BugScenario>,
    /// Served memory size in bytes (must match the client campaign).
    pub mem: u64,
    /// Chaos: exit abruptly at this cumulative batch ordinal.
    pub chaos_crash_after: Option<u64>,
    /// Chaos: stop answering at this cumulative batch ordinal.
    pub chaos_hang_after: Option<u64>,
    /// Chaos: send one corrupt frame at this cumulative batch ordinal.
    pub chaos_garble_after: Option<u64>,
    /// `-h`/`--help` was given: print usage instead of serving.
    pub help: bool,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            mutant: None,
            mem: 1 << 20,
            chaos_crash_after: None,
            chaos_hang_after: None,
            chaos_garble_after: None,
            help: false,
        }
    }
}

impl ServeArgs {
    /// Parse the arguments following the `serve` subcommand.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags, missing or
    /// unparsable values.
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = ServeArgs::default();
        let mut argv = argv.peekable();
        while let Some(flag) = argv.next() {
            let mut value = |name: &str| {
                argv.next()
                    .ok_or_else(|| format!("`{name}` requires a value"))
            };
            match flag.as_str() {
                "--mutant" => {
                    let id = value("--mutant")?;
                    args.mutant = Some(BugScenario::parse(&id).ok_or_else(|| {
                        let known: Vec<&str> = BugScenario::ALL.iter().map(|s| s.id()).collect();
                        format!("unknown mutant `{id}` (known: {})", known.join(", "))
                    })?);
                }
                "--mem" => {
                    args.mem = parse_int(&value("--mem")?, "--mem")?;
                    if args.mem == 0 {
                        return Err("`--mem` must be positive".into());
                    }
                }
                "--chaos-crash-after" => {
                    args.chaos_crash_after = Some(parse_int(
                        &value("--chaos-crash-after")?,
                        "--chaos-crash-after",
                    )?);
                }
                "--chaos-hang-after" => {
                    args.chaos_hang_after = Some(parse_int(
                        &value("--chaos-hang-after")?,
                        "--chaos-hang-after",
                    )?);
                }
                "--chaos-garble-after" => {
                    args.chaos_garble_after = Some(parse_int(
                        &value("--chaos-garble-after")?,
                        "--chaos-garble-after",
                    )?);
                }
                "-h" | "--help" => args.help = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(args)
    }
}

/// Parsed `tf-cli corpus` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusArgs {
    /// `corpus info <FILE>`: print header and coverage statistics.
    Info {
        /// The corpus file to inspect.
        path: String,
    },
    /// `corpus merge <OUT> <IN>...`: combine corpora into `out`.
    Merge {
        /// Destination file (overwritten atomically).
        out: String,
        /// Source corpora, merged in order.
        inputs: Vec<String>,
    },
    /// `corpus minimize <FILE> [--out <OUT>]`: drop entries that
    /// contribute no new coverage.
    Minimize {
        /// The corpus file to minimize.
        path: String,
        /// Destination; in-place when absent.
        out: Option<String>,
    },
}

impl CorpusArgs {
    /// Parse the arguments following the `corpus` subcommand.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown verbs and missing
    /// operands.
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut argv = argv.peekable();
        let verb = argv
            .next()
            .ok_or("`corpus` needs a verb: info | merge | minimize")?;
        match verb.as_str() {
            "info" => {
                let path = argv.next().ok_or("`corpus info` needs a file")?;
                reject_extra(argv)?;
                Ok(CorpusArgs::Info { path })
            }
            "merge" => {
                let out = argv.next().ok_or("`corpus merge` needs an output file")?;
                let inputs: Vec<String> = argv.collect();
                if inputs.is_empty() {
                    return Err("`corpus merge` needs at least one input file".into());
                }
                Ok(CorpusArgs::Merge { out, inputs })
            }
            "minimize" => {
                let path = argv.next().ok_or("`corpus minimize` needs a file")?;
                let mut out = None;
                while let Some(flag) = argv.next() {
                    match flag.as_str() {
                        "--out" => {
                            out = Some(argv.next().ok_or("`--out` requires a value")?);
                        }
                        other => return Err(format!("unknown flag `{other}`")),
                    }
                }
                Ok(CorpusArgs::Minimize { path, out })
            }
            other => Err(format!(
                "unknown corpus verb `{other}` (known: info, merge, minimize)"
            )),
        }
    }
}

fn reject_extra(mut argv: impl Iterator<Item = String>) -> Result<(), String> {
    match argv.next() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected argument `{extra}`")),
    }
}

fn parse_int(text: &str, flag: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("`{flag}` expects an integer, got `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FuzzArgs, String> {
        FuzzArgs::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn defaults_when_no_flags() {
        assert_eq!(parse(&[]).unwrap(), FuzzArgs::default());
    }

    #[test]
    fn full_flag_set() {
        let args = parse(&[
            "--seed",
            "7",
            "--steps",
            "1000",
            "--len",
            "16",
            "--window",
            "8",
            "--jobs",
            "4",
            "--schedule",
            "fast",
            "--mutant",
            "b2",
            "--expect",
            "divergence",
        ])
        .unwrap();
        assert_eq!(args.seed, 7);
        assert_eq!(args.steps, 1000);
        assert_eq!(args.len, 16);
        assert_eq!(args.window, 8);
        assert_eq!(args.jobs, 4);
        assert_eq!(args.schedule, PowerSchedule::Fast);
        assert_eq!(args.mutant, Some(BugScenario::B2ReservedRounding));
        assert_eq!(args.expect, Some(Expectation::Divergence));
    }

    #[test]
    fn every_scenario_id_parses() {
        for scenario in BugScenario::ALL {
            let args = parse(&["--mutant", scenario.id()]).unwrap();
            assert_eq!(args.mutant, Some(scenario));
        }
    }

    #[test]
    fn every_schedule_id_parses_and_uniform_is_the_default() {
        assert_eq!(parse(&[]).unwrap().schedule, PowerSchedule::Uniform);
        for schedule in PowerSchedule::ALL {
            let args = parse(&["--schedule", schedule.id()]).unwrap();
            assert_eq!(args.schedule, schedule);
        }
        let err = parse(&["--schedule", "lightning"]).unwrap_err();
        assert!(err.contains("uniform") && err.contains("fast") && err.contains("explore"));
    }

    #[test]
    fn help_flags_request_usage() {
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["-h"]).unwrap().help);
        assert!(!parse(&[]).unwrap().help);
    }

    #[test]
    fn corpus_flags_parse_and_validate() {
        let args = parse(&["--corpus", "seeds.tfc"]).unwrap();
        assert_eq!(args.corpus.as_deref(), Some("seeds.tfc"));
        assert!(!args.resume);

        let args = parse(&["--corpus", "seeds.tfc", "--resume"]).unwrap();
        assert!(args.resume);

        assert!(parse(&["--resume"]).unwrap_err().contains("--corpus"));
        // Per-worker rng streams in the checkpoint make resume compose
        // with any job count.
        assert!(parse(&["--corpus", "c", "--resume", "--jobs", "4"]).is_ok());
    }

    #[test]
    fn coordinator_cadence_flags_parse_and_validate() {
        let args = parse(&[
            "--corpus",
            "c",
            "--autosave-every",
            "8",
            "--stats-every",
            "4",
        ])
        .unwrap();
        assert_eq!(args.autosave_every, 8);
        assert_eq!(args.stats_every, 4);
        assert_eq!(parse(&[]).unwrap().autosave_every, 0);
        assert_eq!(parse(&[]).unwrap().stats_every, 0);
        assert!(parse(&["--autosave-every", "8"])
            .unwrap_err()
            .contains("--corpus"));
        assert!(parse(&["--stats-every"])
            .unwrap_err()
            .contains("requires a value"));
    }

    #[test]
    fn corpus_subcommand_verbs_parse() {
        let parse = |args: &[&str]| CorpusArgs::parse(args.iter().map(ToString::to_string));
        assert_eq!(
            parse(&["info", "a.tfc"]).unwrap(),
            CorpusArgs::Info {
                path: "a.tfc".into()
            }
        );
        assert_eq!(
            parse(&["merge", "out.tfc", "a.tfc", "b.tfc"]).unwrap(),
            CorpusArgs::Merge {
                out: "out.tfc".into(),
                inputs: vec!["a.tfc".into(), "b.tfc".into()],
            }
        );
        assert_eq!(
            parse(&["minimize", "a.tfc", "--out", "b.tfc"]).unwrap(),
            CorpusArgs::Minimize {
                path: "a.tfc".into(),
                out: Some("b.tfc".into()),
            }
        );
        assert_eq!(
            parse(&["minimize", "a.tfc"]).unwrap(),
            CorpusArgs::Minimize {
                path: "a.tfc".into(),
                out: None,
            }
        );
        assert!(parse(&[]).unwrap_err().contains("verb"));
        assert!(parse(&["frob"])
            .unwrap_err()
            .contains("unknown corpus verb"));
        assert!(parse(&["merge", "out.tfc"])
            .unwrap_err()
            .contains("at least one input"));
        assert!(parse(&["info", "a.tfc", "extra"])
            .unwrap_err()
            .contains("unexpected argument"));
    }

    #[test]
    fn dut_flag_parses_and_validates() {
        let args = parse(&["--dut", "cmd:tf-cli serve --mutant b2"]).unwrap();
        assert_eq!(
            args.dut.as_deref(),
            Some(&["tf-cli", "serve", "--mutant", "b2"].map(String::from)[..])
        );

        assert!(parse(&["--dut", "tf-cli serve"])
            .unwrap_err()
            .contains("cmd:<argv>"));
        assert!(parse(&["--dut", "cmd:"])
            .unwrap_err()
            .contains("needs a command"));
        assert!(parse(&["--dut", "cmd:x", "--mutant", "b2"])
            .unwrap_err()
            .contains("server-side"));
        assert!(parse(&["--dut", "cmd:x", "--jobs", "2"])
            .unwrap_err()
            .contains("--jobs 1"));
        // --dut composes with persistence and resume.
        assert!(parse(&["--dut", "cmd:x", "--corpus", "c", "--resume"]).is_ok());
    }

    #[test]
    fn crash_and_hang_expectations_parse() {
        assert_eq!(
            parse(&["--expect", "crash"]).unwrap().expect,
            Some(Expectation::Crash)
        );
        assert_eq!(
            parse(&["--expect", "hang"]).unwrap().expect,
            Some(Expectation::Hang)
        );
    }

    #[test]
    fn serve_args_parse_and_validate() {
        let parse = |args: &[&str]| ServeArgs::parse(args.iter().map(ToString::to_string));
        assert_eq!(parse(&[]).unwrap(), ServeArgs::default());
        let args = parse(&[
            "--mutant",
            "b2",
            "--mem",
            "65536",
            "--chaos-crash-after",
            "3",
            "--chaos-hang-after",
            "5",
            "--chaos-garble-after",
            "7",
        ])
        .unwrap();
        assert_eq!(args.mutant, Some(BugScenario::B2ReservedRounding));
        assert_eq!(args.mem, 65536);
        assert_eq!(args.chaos_crash_after, Some(3));
        assert_eq!(args.chaos_hang_after, Some(5));
        assert_eq!(args.chaos_garble_after, Some(7));
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["--mem", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--mutant", "nope"]).unwrap_err().contains("b2"));
        assert!(parse(&["--chaos-crash-after"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&["--frob"]).unwrap_err().contains("unknown flag"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--mutant", "nope"]).unwrap_err().contains("b2"));
        assert!(parse(&["--seed"]).unwrap_err().contains("requires a value"));
        assert!(parse(&["--steps", "x"]).unwrap_err().contains("integer"));
        assert!(parse(&["--steps", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--jobs", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--window", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&["--expect", "maybe"]).unwrap_err().contains("clean"));
    }
}
