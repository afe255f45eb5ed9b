//! The traced run: per-layer metrics measured from outside.
//!
//! Part one drives the workload's real campaigns through
//! [`CampaignDriver`](tf_fuzz::CampaignDriver) with a [`Timed`] wrapper
//! as every worker's device and an event recorder as the sink. Part two
//! is the [`probe`], which re-drives the program streams through the
//! per-layer public functions. Both record [`Span`](crate::spans::Span)s
//! into one [`Trace`], written out when the run ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tf_arch::{Hart, MutantHart};
use tf_fuzz::{persist, shard_config, CampaignEvent};

use crate::probe::{self, Start};
use crate::spans::Trace;
use crate::stats::{median, Summary};
use crate::timed::{CallKind, CallLog, LogSink, Timed};
use crate::workload::{CampaignSpec, Counts, Drive, DutKind, DETECT_SEEDS};

/// Final-size mutations timed per workload, split across its streams.
const MUTATE_SAMPLES: usize = 4_000;

/// Saves and loads timed by the persist probe (a 15 MB load takes
/// over a second, so too few for a tail: the tail reads as the median).
const PERSIST_REPEATS: usize = 6;

/// One `BatchCompleted` event as the recorder saw it.
#[derive(Debug, Clone)]
struct Event {
    /// When the coordinator delivered it.
    at: u64,
    /// The worker whose round ended.
    worker: usize,
    /// Every worker's last device-call end time at that moment.
    last_ends: Vec<u64>,
}

/// A campaign driven with the timing wrapper.
#[derive(Debug)]
struct TracedDrive {
    /// The driver's result.
    drive: Drive,
    /// Every worker's wrapper log.
    logs: Vec<CallLog>,
    /// Coordinator rounds the recorder saw.
    rounds: u64,
}

/// Drive `spec` with [`Timed`] devices and the event recorder, adding
/// `arch.*` and `coordinator.*` spans under a `driver.run` span.
///
/// # Errors
///
/// The driver's error, or an unreadable CPU clock.
fn drive(
    trace: &mut Trace,
    spec: &CampaignSpec,
    rounds: &mut Rounds,
) -> Result<TracedDrive, String> {
    let epoch = trace.epoch();
    let sink: LogSink = Arc::new(Mutex::new(Vec::new()));
    let last_ends: Vec<Arc<AtomicU64>> = (0..spec.jobs)
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();
    let mut events = Vec::new();
    let mut recorder = |event: &CampaignEvent| {
        if let CampaignEvent::BatchCompleted { worker, .. } = event {
            events.push(Event {
                at: u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
                worker: *worker,
                last_ends: last_ends
                    .iter()
                    .map(|t| t.load(Ordering::Relaxed))
                    .collect(),
            });
        }
    };
    let mem = spec.config.mem_size;
    let wrap = |worker: usize| (worker, Arc::clone(&sink), Arc::clone(&last_ends[worker]));
    let span = trace.open("driver.run", None);
    let drive = match spec.dut {
        DutKind::Golden => spec.drive(
            |w| {
                let (worker, sink, last) = wrap(w.worker);
                Ok(Timed::new(Hart::new(mem), epoch).reporting(worker, sink, last))
            },
            Some(&mut recorder),
        ),
        DutKind::Mutant(scenario) => spec.drive(
            |w| {
                let (worker, sink, last) = wrap(w.worker);
                Ok(Timed::new(MutantHart::new(mem, scenario), epoch).reporting(worker, sink, last))
            },
            Some(&mut recorder),
        ),
    }?;
    trace.close(span);
    let mut logs = std::mem::take(&mut *sink.lock().expect("no worker holds the log sink"));
    logs.sort_by_key(|log| log.worker);
    for log in &logs {
        for call in &log.calls {
            trace.record(arch_name(call.kind), Some(span), call.start, call.end);
        }
    }
    let loop_start = logs
        .iter()
        .filter_map(|log| log.calls.first().map(|c| c.start))
        .min()
        .unwrap_or(trace.spans()[span].start);
    let rounds = rounds.add(
        trace,
        span,
        loop_start,
        &events,
        spec.jobs,
        drive.outcome.elapsed.as_nanos(),
    );
    Ok(TracedDrive {
        drive,
        logs,
        rounds,
    })
}

fn arch_name(kind: CallKind) -> &'static str {
    match kind {
        CallKind::Reset => "arch.reset",
        CallKind::Load => "arch.load",
        CallKind::Run => "arch.run",
    }
}

/// Coordinator round statistics pooled over a workload's campaigns.
#[derive(Debug, Default)]
struct Rounds {
    /// Round durations (ns).
    durations: Vec<f64>,
    /// Last device call of a round to its last `BatchCompleted` (ns).
    syncs: Vec<f64>,
    /// Per-campaign growth: mean round time of the last tenth over the
    /// first tenth.
    growths: Vec<f64>,
    /// Summed worker time spent waiting for the slowest worker (ns).
    barrier_wait: f64,
    /// Summed worker time (elapsed x jobs, ns).
    worker_time: f64,
}

impl Rounds {
    /// Fold one campaign's events in. A round's events arrive in
    /// ascending worker order, so a worker id that does not rise starts
    /// the next round. Returns the campaign's round count.
    fn add(
        &mut self,
        trace: &mut Trace,
        parent: usize,
        loop_start: u64,
        events: &[Event],
        jobs: usize,
        elapsed: u128,
    ) -> u64 {
        let mut rounds: Vec<&[Event]> = Vec::new();
        let mut first = 0;
        for i in 1..=events.len() {
            if i == events.len() || events[i].worker <= events[i - 1].worker {
                rounds.push(&events[first..i]);
                first = i;
            }
        }
        let mut previous_end = loop_start;
        let mut durations = Vec::with_capacity(rounds.len());
        for round in rounds {
            let end = round[round.len() - 1].at;
            // Workers idle from their last result until the next round's
            // task, so any event's snapshot holds this round's last calls.
            let lasts: Vec<u64> = round.iter().map(|e| round[0].last_ends[e.worker]).collect();
            let last_call = lasts.iter().copied().max().unwrap_or(previous_end);
            let id = trace.record("coordinator.round", Some(parent), previous_end, end);
            trace.record("coordinator.sync", Some(id), last_call.min(end), end);
            durations.push((end - previous_end) as f64);
            self.syncs.push(end.saturating_sub(last_call) as f64);
            self.barrier_wait += lasts.iter().map(|&t| (last_call - t) as f64).sum::<f64>();
            previous_end = end;
        }
        let tenth = (durations.len() / 10).max(1);
        if durations.len() >= 2 {
            let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
            self.growths
                .push(mean(&durations[durations.len() - tenth..]) / mean(&durations[..tenth]));
        }
        let count = durations.len() as u64;
        self.durations.extend(durations);
        self.worker_time += elapsed as f64 * jobs as f64;
        count
    }
}

/// The per-layer measurements of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// `(name, unit, value)` in `BENCHMARK.json` order.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Checks that failed, with a reason each.
    pub failures: Vec<String>,
    /// Campaigns attempted.
    pub attempted: u64,
}

impl Layers {
    fn scalar(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push((name.to_string(), unit, value));
    }

    /// A timing distribution of `samples` (in `unit`): the median under
    /// `name`, then its tail, tail percentile and sample count.
    fn timing(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.scalar(name, unit, s.p50);
        self.scalar(&format!("{name}.tail"), unit, s.tail);
        self.scalar(&format!("{name}.tail_pct"), "%", s.tail_pct);
        self.scalar(&format!("{name}.n"), "count", s.n as f64);
    }

    fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(reason());
        }
    }
}

fn ns(samples: Vec<u64>, per: f64) -> Vec<f64> {
    samples.into_iter().map(|x| x as f64 / per).collect()
}

/// Run the traced measurement of a workload's `specs`, write the spans
/// to `spans_path`, and return every per-layer metric.
///
/// # Errors
///
/// Propagates driver, persist and I/O errors.
pub fn run(
    specs: &[CampaignSpec],
    spans_path: &std::path::Path,
    work: &std::path::Path,
) -> Result<Layers, String> {
    let mut layers = Layers::default();

    // Untraced reference: the denominator of `trace_overhead`, and the
    // report the traced run must reproduce bit for bit.
    let bare: Vec<Drive> = specs
        .iter()
        .map(CampaignSpec::drive_bare)
        .collect::<Result<_, _>>()?;

    let mut trace = Trace::new(Instant::now());
    let mut rounds = Rounds::default();
    let mut traced = Vec::with_capacity(specs.len());
    for (spec, bare) in specs.iter().zip(&bare) {
        let run = drive(&mut trace, spec, &mut rounds)?;
        let (t, b) = (&run.drive.outcome, &bare.outcome);
        layers.attempted += 1;
        layers.check(
            t.report == b.report && t.corpus == b.corpus && t.checkpoint() == b.checkpoint(),
            || {
                format!(
                    "traced campaign seed {:#x} differs from the bare run",
                    spec.config.seed
                )
            },
        );
        let prior_rounds = spec.resume.as_ref().map_or(0, |r| r.prior_rounds);
        layers.check(run.rounds == t.rounds_completed - prior_rounds, || {
            format!(
                "{} rounds recorded, driver counted {}",
                run.rounds,
                t.rounds_completed - prior_rounds
            )
        });
        traced.push(run);
    }

    // The layer probe.
    let mutate_per_stream = (MUTATE_SAMPLES / specs.len()).max(20);
    let mut fine_times = Vec::new();
    let mut replays = 0u64;
    let mut probed_programs = 0u64;
    for (spec, run) in specs.iter().zip(&traced) {
        let checkpoint = match &spec.resume {
            Some(resume) => Some(
                persist::load_file(&resume.pristine)
                    .map_err(|e| e.to_string())?
                    .checkpoint
                    .ok_or("resume checkpoint vanished")?,
            ),
            None => None,
        };
        let start = match &checkpoint {
            Some(c) => Start::Stream(&c.workers[0]),
            None => Start::Fresh,
        };
        let config = shard_config(&spec.config, spec.jobs, 0);
        let parent = trace.open("probe.campaign", None);
        let mem = config.mem_size;
        let (counts, corpus, generator, fine) = match spec.dut {
            DutKind::Golden => probe::run(&mut trace, parent, &config, &start, Hart::new(mem)),
            DutKind::Mutant(s) => {
                probe::run(&mut trace, parent, &config, &start, MutantHart::new(mem, s))
            }
        };
        probe::mutate_at_final_size(
            &mut trace,
            parent,
            &config,
            &corpus,
            &generator,
            mutate_per_stream,
        );
        trace.close(parent);
        fine_times.extend(fine);
        replays += counts.replays;
        probed_programs += counts.programs;
        if matches!(start, Start::Fresh) && spec.jobs == 1 {
            let probed = Counts {
                programs: counts.programs,
                steps: counts.steps,
                unique_traces: counts.unique_traces,
                corpus: counts.corpus,
                divergent: counts.divergent,
                dut_failures: 0,
                first_divergence_at: counts.first_divergence_at,
            };
            let real = &run.drive.counts;
            layers.check(probed == *real, || {
                format!("probe drifted from the campaign: {probed:?} vs {real:?}")
            });
        }
    }

    // The persist probe, on the largest final state of the workload.
    let largest = traced
        .iter()
        .max_by_key(|run| run.drive.outcome.corpus.len())
        .ok_or("workload has no campaigns")?;
    let file = work.join("persist-probe.tfc");
    let persist_span = trace.open("persist.probe", None);
    for _ in 0..PERSIST_REPEATS {
        trace
            .time("persist.save_campaign", Some(persist_span), || {
                persist::save_campaign(
                    &file,
                    &largest.drive.outcome.corpus,
                    largest.drive.outcome.checkpoint(),
                )
            })
            .map_err(|e| e.to_string())?;
    }
    for _ in 0..PERSIST_REPEATS {
        let loaded = trace
            .time("persist.load_file", Some(persist_span), || {
                persist::load_file(&file)
            })
            .map_err(|e| e.to_string())?;
        layers.check(
            loaded.entries.len() == largest.drive.outcome.corpus.len(),
            || "persist round trip lost seeds".to_string(),
        );
    }
    trace.close(persist_span);
    let file_mb = std::fs::metadata(&file).map_err(|e| e.to_string())?.len() as f64 / 1e6;
    let _ = std::fs::remove_file(&file);

    // Spans out, then the metrics.
    let totals = trace
        .write_csv(spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    for (name, (total, self_ns)) in totals {
        eprintln!(
            "  {name:<26} total {:>10.1} ms  self {:>10.1} ms",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    let self_times = trace.self_times();
    let diff_self: Vec<f64> = fine_times
        .iter()
        .map(|&(id, fine)| self_times[id].saturating_sub(fine) as f64 / 1e3)
        .collect();

    let calls = |kind: CallKind| -> Vec<&crate::timed::Call> {
        traced
            .iter()
            .flat_map(|r| &r.logs)
            .flat_map(|l| &l.calls)
            .filter(|c| c.kind == kind)
            .collect()
    };
    let dur_us = |kind| {
        calls(kind)
            .iter()
            .map(|c| (c.end - c.start) as f64 / 1e3)
            .collect::<Vec<_>>()
    };
    let per_step: Vec<f64> = calls(CallKind::Run)
        .iter()
        .filter(|c| c.steps > 0)
        .map(|c| (c.end - c.start) as f64 / c.steps as f64)
        .collect();
    let busy: f64 = traced
        .iter()
        .flat_map(|r| &r.logs)
        .map(|l| l.busy_ns() as f64)
        .sum();

    let (mut programs, mut admitted, mut unique, mut cpu) = (0u64, 0usize, 0usize, 0f64);
    let mut bare_programs = 0u64;
    let mut bare_cpu = 0f64;
    let mut latencies = Vec::new();
    let mut missed = 0u64;
    for ((spec, run), bare) in specs.iter().zip(&traced).zip(&bare) {
        let outcome = &run.drive.outcome;
        programs += spec.programs_done(&outcome.report);
        admitted += spec.admitted(outcome);
        unique += outcome.report.unique_traces;
        cpu += run.drive.cpu_loop.as_secs_f64();
        bare_programs += spec.programs_done(&bare.outcome.report);
        bare_cpu += bare.cpu_loop.as_secs_f64();
        if matches!(spec.dut, DutKind::Mutant(_)) {
            let latency = outcome.report.first_divergence_at;
            missed += u64::from(latency.is_none());
            latencies.push(latency.unwrap_or(spec.config.instruction_budget) as f64);
        }
    }

    let ms = |xs: &[f64]| xs.iter().map(|x| x / 1e6).collect::<Vec<_>>();
    layers.timing("arch.load_us", "us", &dur_us(CallKind::Load));
    layers.timing("arch.reset_us", "us", &dur_us(CallKind::Reset));
    layers.timing("arch.run_ns_per_step", "ns", &per_step);
    let worker_time = rounds.worker_time.max(1.0);
    layers.scalar("arch.dut_share", "ratio", busy / worker_time);
    let diffs = ns(trace.durations("diff.diff_with"), 1e3);
    layers.timing("diff.program_us", "us", &diffs);
    layers.timing("diff.self_us", "us", &diff_self);
    let replay_rate = replays as f64 / probed_programs.max(1) as f64;
    layers.scalar("diff.replay_rate", "ratio", replay_rate);
    let generated = ns(trace.durations("generator.generate_into"), 1e3);
    layers.timing("generator.program_us", "us", &generated);
    let mutated = ns(trace.durations("corpus.mutate_final"), 1e3);
    layers.timing("corpus.mutate_us", "us", &mutated);
    let minimized = ns(trace.durations("corpus.minimize"), 1e6);
    layers.timing("corpus.minimize_ms", "ms", &minimized);
    let admit_rate = admitted as f64 / programs.max(1) as f64;
    layers.scalar("corpus.admit_rate", "ratio", admit_rate);
    let observed = ns(trace.durations("coverage.observe"), 1.0);
    layers.timing("coverage.observe_ns", "ns", &observed);
    layers.scalar("coverage.unique_traces", "count", unique as f64);
    layers.timing("coordinator.round_ms_p50", "ms", &ms(&rounds.durations));
    let growth = median(&rounds.growths);
    layers.scalar("coordinator.round_growth", "ratio", growth);
    layers.timing("coordinator.sync_ms", "ms", &ms(&rounds.syncs));
    let barrier = rounds.barrier_wait / worker_time;
    layers.scalar("coordinator.barrier_wait_share", "ratio", barrier);
    let loads = ns(trace.durations("persist.load_file"), 1e6);
    layers.timing("persist.load_ms", "ms", &loads);
    let saves = ns(trace.durations("persist.save_campaign"), 1e6);
    layers.timing("persist.save_ms", "ms", &saves);
    layers.scalar("persist.file_mb", "MB", file_mb);
    let overhead = (bare_programs as f64 / bare_cpu) / (programs as f64 / cpu);
    layers.scalar("trace_overhead", "ratio", overhead);
    let cells: Vec<f64> = latencies
        .chunks(DETECT_SEEDS as usize)
        .map(median)
        .collect();
    layers.scalar("detect_instr_p50", "count", median(&cells));
    layers.scalar("bugs_missed", "count", missed as f64);
    Ok(layers)
}
