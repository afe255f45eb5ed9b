//! `tf-cli corpus info` prints one line per seed entry, so its output is
//! routinely cut short by a pager or `head`. A reader that goes away
//! early must end the command quietly with status 0, not a panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use tf_fuzz::prelude::*;
use tf_riscv::{Instruction, Opcode};

#[test]
fn corpus_info_exits_quietly_when_its_reader_hangs_up() {
    let dir = std::env::temp_dir().join(format!("tf-info-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seeds.tfc");
    // Enough entries that the listing overflows any pipe buffer.
    let entries: Vec<SeedEntry> = (0..5_000u64)
        .map(|digest| SeedEntry {
            program: vec![Instruction::nop(), Instruction::system(Opcode::Ebreak)],
            trace_digest: digest,
            trap_causes: 0,
            calibration: SeedCalibration::default(),
        })
        .collect();
    persist::save_entries(&path, &entries).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_tf-cli"))
        .args(["corpus", "info", path.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tf-cli spawns");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.starts_with("corpus "), "first line was: {first}");
    drop(stdout);

    let output = child.wait_with_output().expect("tf-cli exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "status {}: {stderr}",
        output.status
    );
    assert!(stderr.is_empty(), "stderr was: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
