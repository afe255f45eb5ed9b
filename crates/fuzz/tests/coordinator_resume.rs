//! Crash-recovery composition tests for the campaign coordinator: a
//! campaign resumed from a *mid-run autosave* — the file a SIGKILL at
//! that moment would leave behind (saves are atomic temp+rename) — must
//! land on the identical outcome an uninterrupted campaign produces, at
//! any worker count. The per-worker RNG streams in the v5 checkpoint
//! are exactly what makes `--resume` compose with `--jobs N`.

use std::path::PathBuf;

use tf_fuzz::prelude::*;

const MEM: u64 = 1 << 16;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tf-coord-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config(seed: u64, budget: u64) -> CampaignConfig {
    CampaignConfig::default()
        .with_seed(seed)
        .with_instruction_budget(budget)
        .with_mem_size(MEM)
}

#[test]
fn resume_from_a_mid_run_autosave_is_bit_identical_at_any_job_count() {
    for jobs in [1usize, 4] {
        let budget = 8_000;
        let want = CampaignDriver::new(config(0xA117, budget))
            .with_jobs(jobs)
            .with_sync_every(512)
            .run(|_| Ok(Hart::new(MEM)))
            .unwrap();

        // An autosaving run; the sink freezes the first autosave's file
        // the instant it lands, simulating a kill right after the write.
        let live = temp_path(&format!("autosave-live-{jobs}.tfc"));
        let frozen = temp_path(&format!("autosave-frozen-{jobs}.tfc"));
        let _ = std::fs::remove_file(&live);
        let _ = std::fs::remove_file(&frozen);
        let mut sink = |event: &CampaignEvent| {
            if let CampaignEvent::AutosaveWritten { ordinal, .. } = event {
                if *ordinal == 1 {
                    std::fs::copy(&live, &frozen).unwrap();
                }
            }
        };
        let completed = CampaignDriver::new(config(0xA117, budget))
            .with_jobs(jobs)
            .with_sync_every(512)
            .with_corpus(&live)
            .with_autosave_every(3)
            .with_event_sink(&mut sink)
            .run(|_| Ok(Hart::new(MEM)))
            .unwrap();
        assert!(completed.autosaves >= 1, "jobs {jobs}: no autosave fired");
        assert!(frozen.exists(), "jobs {jobs}: autosave was not frozen");

        // The frozen file is a genuine mid-run state, not the final one.
        let snapshot = persist::load_file(&frozen).unwrap();
        let checkpoint = snapshot.checkpoint.expect("autosave carries a checkpoint");
        assert!(
            checkpoint.fold().0.instructions_generated < budget,
            "jobs {jobs}: the frozen autosave already covers the budget"
        );

        let got = CampaignDriver::new(config(0xA117, budget))
            .with_jobs(jobs)
            .with_sync_every(512)
            .with_corpus(&frozen)
            .with_resume(true)
            .run(|_| Ok(Hart::new(MEM)))
            .unwrap();
        assert_eq!(got.report, want.report, "jobs {jobs}: report drifted");
        assert_eq!(got.corpus, want.corpus, "jobs {jobs}: corpus drifted");
        assert_eq!(got.workers, want.workers, "jobs {jobs}: workers drifted");

        std::fs::remove_file(&live).unwrap();
        std::fs::remove_file(&frozen).unwrap();
    }
}

#[test]
fn checkpoints_are_pinned_to_their_worker_count() {
    let path = temp_path("jobs-pinned.tfc");
    let _ = std::fs::remove_file(&path);
    let outcome = CampaignDriver::new(config(0x10B5, 4_000))
        .with_jobs(2)
        .with_corpus(&path)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    outcome.save().unwrap().expect("persistent outcome saves");

    let rejected = CampaignDriver::new(config(0x10B5, 8_000))
        .with_jobs(3)
        .with_corpus(&path)
        .with_resume(true)
        .run(|_| Ok(Hart::new(MEM)));
    match rejected {
        Err(DriveError::JobsMismatch { frozen, requested }) => {
            assert_eq!((frozen, requested), (2, 3));
        }
        other => panic!("expected JobsMismatch, got {other:?}"),
    }

    // At the frozen worker count the same file resumes fine.
    let resumed = CampaignDriver::new(config(0x10B5, 8_000))
        .with_jobs(2)
        .with_corpus(&path)
        .with_resume(true)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    assert!(resumed.report.instructions_generated >= 8_000);
    std::fs::remove_file(&path).unwrap();
}
