//! `campaign-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Measured mode (`--trace 0`) repeats the workload's campaigns for
//! about `--seconds`, checks every repeat, and prints the end-to-end
//! metrics. Traced mode (`--trace 1`) makes one untraced and one traced
//! pass plus the layer probe and prints the per-layer metrics. Either
//! way the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tf_campaign_bench::stats::median;
use tf_campaign_bench::traced;
use tf_campaign_bench::workload::{CampaignSpec, Counts, Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 25;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload `{value}` (expected one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(args: &Args) -> Result<WorkDir, String> {
        let path = Path::new(".bench_work").join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the parent only if another run is still using it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The result line.
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(String, &'static str, f64)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// One pass over every campaign of the workload.
struct Pass {
    programs: u64,
    steps: u64,
    cpu_loop: Duration,
    /// Campaign count times the median campaign's set-up: the sum, robust
    /// to the third of `detect-matrix` campaigns whose set-up takes 3-8x
    /// the usual CPU time.
    cpu_setup: f64,
    counts: Vec<Counts>,
}

fn pass(specs: &[CampaignSpec]) -> Result<Pass, String> {
    let mut p = Pass {
        programs: 0,
        steps: 0,
        cpu_loop: Duration::ZERO,
        cpu_setup: 0.0,
        counts: Vec::with_capacity(specs.len()),
    };
    let mut setups = Vec::with_capacity(specs.len());
    for spec in specs {
        let drive = spec.drive_bare()?;
        p.programs += spec.programs_done(&drive.outcome.report);
        p.steps += spec.steps_done(&drive.outcome.report);
        p.cpu_loop += drive.cpu_loop;
        setups.push(drive.cpu_setup.as_secs_f64());
        p.counts.push(drive.counts);
    }
    p.cpu_setup = median(&setups) * setups.len() as f64;
    Ok(p)
}

fn measured(args: &Args, specs: &[CampaignSpec]) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(pass(specs)?);
        // Stop before a pass that would overrun the budget.
        let spent = start.elapsed();
        if spent + spent / passes.len() as u32 > budget {
            break;
        }
    }

    let mut failures = Vec::new();
    let golden = args.workload.golden();
    for (i, p) in passes.iter().enumerate() {
        for ((spec, counts), first) in specs.iter().zip(&p.counts).zip(&passes[0].counts) {
            let problem = if counts != first {
                format!("{counts:?} differs from the first pass's {first:?}")
            } else if counts.dut_failures > 0 {
                "the in-process device failed".to_string()
            } else if golden && counts.divergent > 0 {
                "the golden campaign diverged".to_string()
            } else if !golden && counts.first_divergence_at.is_none() {
                format!("the planted bug went undetected ({:?})", spec.dut)
            } else {
                continue;
            };
            failures.push(format!("pass {i}, seed {:#x}: {problem}", spec.config.seed));
        }
    }

    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| -> f64 { median(&passes.iter().map(f).collect::<Vec<_>>()) };
    let metrics = vec![
        (
            "programs_per_s".to_string(),
            "1/s",
            per_pass(&|p| p.programs as f64 / p.cpu_loop.as_secs_f64()),
        ),
        (
            "steps_per_s".to_string(),
            "1/s",
            per_pass(&|p| p.steps as f64 / p.cpu_loop.as_secs_f64()),
        ),
        ("setup_s".to_string(), "s", per_pass(&|p| p.cpu_setup)),
        ("peak_rss_mb".to_string(), "MB", peak_rss_mb()?),
    ];
    eprintln!(
        "{}: seed {} ({} campaigns x {} passes in {:.1} s)",
        args.workload.name(),
        args.seed,
        specs.len(),
        passes.len(),
        start.elapsed().as_secs_f64()
    );
    Ok(Outcome {
        attempted: (passes.len() * specs.len()) as u64,
        failures,
        metrics,
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create(args)?;
    let specs = args.workload.specs(args.seed, &work.0)?;
    if args.trace {
        let spans = Path::new(".bench_trace").join(format!("{}.spans.csv", args.workload.name()));
        let layers = traced::run(&specs, &spans, &work.0)?;
        eprintln!(
            "{}: spans written to {}",
            args.workload.name(),
            spans.display()
        );
        Ok(Outcome {
            attempted: layers.attempted,
            failures: layers.failures,
            metrics: layers.metrics,
        })
    } else {
        measured(args, &specs)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("campaign-bench: {error}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for failure in &outcome.failures {
                eprintln!("check failed: {failure}");
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("campaign-bench: {error}");
            ExitCode::FAILURE
        }
    }
}
