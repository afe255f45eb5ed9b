//! The traced run must measure the same program the measured run does:
//! a campaign driven through the timing wrapper is bit-identical to one
//! driven against the bare device, and the layer probe reproduces a
//! single-worker campaign's counted outputs.

use std::time::Instant;

use tf_arch::{BugScenario, Dut, Hart, MutantHart};
use tf_campaign_bench::probe::{self, Start};
use tf_campaign_bench::spans::Trace;
use tf_campaign_bench::timed::Timed;
use tf_campaign_bench::traced;
use tf_campaign_bench::workload::{CampaignSpec, DutKind};
use tf_fuzz::{persist, CampaignConfig, CampaignDriver, DriveOutcome, PowerSchedule};

const MEM: u64 = 1 << 16;

fn config(seed: u64, budget: u64) -> CampaignConfig {
    CampaignConfig::default()
        .with_seed(seed)
        .with_instruction_budget(budget)
        .with_mem_size(MEM)
}

fn drive<D: Dut + Send>(
    config: &CampaignConfig,
    jobs: usize,
    make: impl Fn() -> D,
) -> DriveOutcome {
    CampaignDriver::new(config.clone())
        .with_jobs(jobs)
        .run(|_| Ok(make()))
        .expect("campaign drives")
}

fn saved_bytes(outcome: &DriveOutcome, name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    persist::save_campaign(&path, &outcome.corpus, outcome.checkpoint()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

fn assert_identical(bare: &DriveOutcome, timed: &DriveOutcome, what: &str) {
    assert_eq!(bare.report, timed.report, "{what}: report");
    assert_eq!(bare.workers, timed.workers, "{what}: worker reports");
    assert_eq!(bare.corpus, timed.corpus, "{what}: corpus");
    assert_eq!(bare.coverage, timed.coverage, "{what}: coverage");
    assert_eq!(bare.checkpoint(), timed.checkpoint(), "{what}: checkpoint");
    assert_eq!(
        (
            bare.foreign_admitted,
            bare.batches_completed,
            bare.rounds_completed
        ),
        (
            timed.foreign_admitted,
            timed.batches_completed,
            timed.rounds_completed
        ),
        "{what}: coordinator counters"
    );
    assert_eq!(
        saved_bytes(bare, &format!("{what}-bare.tfc")),
        saved_bytes(timed, &format!("{what}-timed.tfc")),
        "{what}: saved checkpoint bytes"
    );
}

#[test]
fn the_timing_wrapper_is_transparent_to_golden_campaigns() {
    let epoch = Instant::now();
    for jobs in [1, 2] {
        let config = config(11, 6_000);
        let bare = drive(&config, jobs, || Hart::new(MEM));
        let timed = drive(&config, jobs, || Timed::new(Hart::new(MEM), epoch));
        assert!(bare.report.is_clean());
        assert_identical(&bare, &timed, &format!("hart-jobs{jobs}"));
    }
}

#[test]
fn the_timing_wrapper_is_transparent_to_mutant_campaigns() {
    let epoch = Instant::now();
    for scenario in [
        BugScenario::B2ReservedRounding,
        BugScenario::OffByOneImmediate,
    ] {
        for jobs in [1, 2] {
            let config = config(5, 4_000);
            let bare = drive(&config, jobs, || MutantHart::new(MEM, scenario));
            let timed = drive(&config, jobs, || {
                Timed::new(MutantHart::new(MEM, scenario), epoch)
            });
            assert!(!bare.report.is_clean(), "{} went undetected", scenario.id());
            assert_identical(&bare, &timed, &format!("{}-jobs{jobs}", scenario.id()));
        }
    }
}

#[test]
fn the_probe_replays_a_single_worker_campaign_exactly() {
    let cases = [
        (DutKind::Golden, PowerSchedule::Uniform),
        (
            DutKind::Mutant(BugScenario::B2ReservedRounding),
            PowerSchedule::Fast,
        ),
        (
            DutKind::Mutant(BugScenario::CsrWriteMask),
            PowerSchedule::Explore,
        ),
    ];
    for (dut, schedule) in cases {
        let config = config(3, 5_000).with_schedule(schedule);
        let mut trace = Trace::new(Instant::now());
        let root = trace.open("test", None);
        let (real, counts) = match dut {
            DutKind::Golden => (
                drive(&config, 1, || Hart::new(MEM)),
                probe::run(&mut trace, root, &config, &Start::Fresh, Hart::new(MEM)).0,
            ),
            DutKind::Mutant(s) => (
                drive(&config, 1, || MutantHart::new(MEM, s)),
                probe::run(
                    &mut trace,
                    root,
                    &config,
                    &Start::Fresh,
                    MutantHart::new(MEM, s),
                )
                .0,
            ),
        };
        let r = &real.report;
        assert_eq!(
            (
                counts.programs,
                counts.steps,
                counts.unique_traces,
                counts.corpus
            ),
            (
                r.programs,
                r.steps_executed,
                r.unique_traces,
                real.corpus.len()
            ),
            "{dut:?}"
        );
        assert_eq!(
            (counts.divergent, counts.first_divergence_at),
            (r.divergent_runs, r.first_divergence_at),
            "{dut:?}"
        );
    }
}

#[test]
fn the_traced_run_emits_every_per_layer_metric_in_benchmark_json() {
    let spec = CampaignSpec {
        config: config(2, 3_000),
        jobs: 1,
        dut: DutKind::Mutant(BugScenario::B2ReservedRounding),
        resume: None,
    };
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("traced");
    std::fs::create_dir_all(&dir).unwrap();
    let layers = traced::run(&[spec], &dir.join("spans.csv"), &dir).expect("traced run");
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(layers.failures.is_empty(), "{:?}", layers.failures);
    let emitted: Vec<&str> = layers
        .metrics
        .iter()
        .map(|(name, _, _)| name.as_str())
        .collect();

    let manifest = include_str!("../../BENCHMARK.json");
    let per_layer = &manifest[manifest.find("\"per_layer\"").expect("per_layer key")..];
    let listed: Vec<&str> = per_layer
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').unwrap()])
        .collect();
    assert_eq!(
        emitted, listed,
        "traced metrics and BENCHMARK.json per_layer differ"
    );
}
