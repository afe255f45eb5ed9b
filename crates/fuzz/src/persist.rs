//! The versioned on-disk corpus format: seeds and campaign checkpoints
//! that outlive the process.
//!
//! A corpus file is a small header followed by a sequence of
//! independently checksummed records. The header carries the format
//! version and the [`STABILITY_FINGERPRINT`] of the digest scheme, so a
//! reader whose hasher drifted — or a file written by a future
//! incompatible format — is *rejected* rather than silently mis-replayed
//! as coverage. Each record frame carries a one-byte check over its tag
//! and length plus a full FNV-1a checksum over its payload, giving two
//! distinct failure modes: a corrupt *payload* costs exactly that one
//! record (the frame length is still trustworthy, so the reader skips it
//! and continues), while a corrupt *frame header* means the record
//! boundaries themselves can no longer be trusted — the reader
//! fail-stops there, salvaging every record before it (reported as a
//! truncated stream). A physically truncated tail likewise ends the
//! stream early.
//!
//! ```text
//! header   "TFCORPUS" magic (8) · format version u32 · digest fingerprint u64
//! record   tag u8 · payload length u32 · FNV-1a(tag·length) low byte
//!          · payload · FNV-1a(payload) u64
//! ```
//!
//! Two record tags exist today. [`TAG_SEED`] records are corpus entries
//! — the program words, both coverage keys and the seed's scheduler
//! calibration record — and are what
//! `tf-cli corpus info|merge|minimize` operate on. A [`TAG_CHECKPOINT`]
//! record is a full campaign freeze — the coordinator counters plus one
//! stream per worker (every RNG stream position, its report, coverage
//! map and corpus, the corpus stored as references to the seed records
//! before it): together with the seed records it makes
//! `tf-cli fuzz --resume` continue a campaign *bit-identically* to a run
//! that was never interrupted. Unknown tags are skipped, so older
//! readers survive newer writers of the same version.
//!
//! All multi-byte values are little-endian. Writes go through a
//! temporary file in the target directory followed by a rename, so a
//! crash mid-save never destroys the previous corpus.
//!
//! [`STABILITY_FINGERPRINT`]: tf_arch::digest::STABILITY_FINGERPRINT

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::path::Path;

use tf_arch::digest::{Fnv, STABILITY_FINGERPRINT};
use tf_arch::{StepOutcome, TraceEntry, Trap};
use tf_riscv::csr::Cause;
use tf_riscv::{Fpr, Gpr, Instruction, Reg};

use crate::campaign::{CampaignReport, Finding, FindingKind};
use crate::corpus::{SeedCalibration, SeedEntry};
use crate::coverage::CoverageMap;
use crate::diff::Divergence;

/// File magic: the first eight bytes of every corpus file.
pub const MAGIC: [u8; 8] = *b"TFCORPUS";

/// Current format version. Bumped on any incompatible layout change;
/// readers reject other versions outright (versioning policy: no silent
/// cross-version migration, corpora are cheap to regrow).
///
/// Version 2 accompanies digest scheme v2
/// ([`tf_arch::digest::STABILITY_FINGERPRINT`]):
/// checkpoints embed state digests, so a digest-scheme change is a
/// layout-compatible but *semantically* incompatible change and gets a
/// version bump of its own on top of the fingerprint check.
///
/// Version 3 adds scheduler state: every seed record carries its
/// [`SeedCalibration`] (cost, coverage yield,
/// mutations spent, children admitted), and checkpoints additionally
/// freeze the yield-signal coverage sets (pc-pair and opcode-class
/// folds) plus the report's first-divergence latency. A v2 corpus is
/// rejected outright — replaying it with zeroed calibration would give
/// power schedules a silently different energy landscape than the run
/// that wrote it.
///
/// Version 4 adds out-of-process DUT robustness state to checkpoints:
/// the crash/hang/desync counters, the recorded
/// [`Finding`]s (cause, offending program, batch
/// ordinal, repeat count) and the supervisor's issued-batch counter
/// ([`WorkerStream::remote_batches`]), so `--resume` against a
/// respawned external DUT — chaos schedules included — stays
/// bit-identical to an uninterrupted run.
///
/// Version 5 made checkpoints coordinator-aware: the autosave ordinal,
/// the completed-batch and completed-round counters, the
/// pending-broadcast tail length and per-worker stream sections.
///
/// Version 6 gives every checkpoint one shape, whatever the worker
/// count: the config fingerprint, the coordinator counters and one
/// [`WorkerStream`] per worker, each fact stored once. The remote batch
/// offset moves into each stream; the worker count, the campaign-wide
/// report and the union coverage are folded from the streams
/// ([`CampaignCheckpoint::fold`]) instead of stored; a stream's corpus
/// refers to the file's seed records by index instead of embedding a
/// second copy of each program; and its coverage map omits the keys its
/// corpus entries already carry. Seed records are unchanged from v3.
pub const FORMAT_VERSION: u32 = 6;

/// Record tag for one corpus seed entry.
pub const TAG_SEED: u8 = 1;

/// Record tag for a campaign checkpoint.
pub const TAG_CHECKPOINT: u8 = 2;

/// Why a corpus file could not be opened at all. Per-entry corruption is
/// *not* an error — corrupt entries are skipped and counted in the
/// [`LoadReport`].
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// The version the file claims.
        found: u32,
    },
    /// The file was written under a different digest scheme: its stored
    /// trace digests are incomparable with ours and must not be replayed.
    FingerprintMismatch {
        /// The fingerprint the file carries.
        found: u64,
    },
    /// The header itself is truncated.
    TruncatedHeader,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "corpus i/o error: {e}"),
            PersistError::BadMagic => f.write_str("not a corpus file (bad magic)"),
            PersistError::UnsupportedVersion { found } => write!(
                f,
                "unsupported corpus format version {found} (this build reads {FORMAT_VERSION})"
            ),
            PersistError::FingerprintMismatch { found } => write!(
                f,
                "corpus digest fingerprint {found:#018x} does not match this build's \
                 {STABILITY_FINGERPRINT:#018x}; its stored digests cannot be replayed"
            ),
            PersistError::TruncatedHeader => f.write_str("corpus header is truncated"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// What loading salvaged beyond the entries themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Seed entries successfully decoded.
    pub loaded: usize,
    /// Records lost to damage: checksum mismatch or undecodable payload.
    pub skipped: usize,
    /// Intact records with a tag this build does not know — the
    /// forward-compat path, *not* corruption (resume treats the two
    /// differently).
    pub unknown: usize,
    /// The record stream ended early: the file is physically truncated,
    /// or a corrupt frame header made the remaining record boundaries
    /// untrustworthy (everything before that point is salvaged).
    pub truncated: bool,
}

/// A fully parsed corpus file.
#[derive(Debug, Clone, Default)]
pub struct LoadedFile {
    /// The surviving seed entries, in file order.
    pub entries: Vec<SeedEntry>,
    /// The campaign checkpoint, when the file carries one (last wins).
    pub checkpoint: Option<CampaignCheckpoint>,
    /// Salvage statistics.
    pub report: LoadReport,
}

/// A frozen coordinated campaign: everything the driver needs to
/// continue a half-spent budget exactly as if it had never stopped.
///
/// The checkpoint has one shape at every worker count: the coordinator
/// counters plus one [`WorkerStream`] per worker, in worker order. What
/// can be derived from the streams is not stored — the worker count is
/// [`CampaignCheckpoint::worker_count`], and the campaign-wide report
/// and coverage are [`CampaignCheckpoint::fold`]. The global corpus is
/// not part of the value either: it lives as ordinary [`TAG_SEED`]
/// records in the same file, which keeps checkpointed corpora directly
/// usable by `corpus merge` and as plain cross-run seed material.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// Fingerprint of the master [`CampaignConfig`](crate::CampaignConfig)
    /// the campaign ran under (budget excluded — resuming raises it).
    pub config_fingerprint: u64,
    /// How many autosave checkpoints the campaign has written so far.
    pub autosave_ordinal: u64,
    /// Worker round-slices completed across the whole campaign — the
    /// deterministic currency the autosave cadence is counted in.
    pub batches_completed: u64,
    /// Coordinator rounds completed; a resumed campaign continues its
    /// round-slice targets from here so two resumed runs slice their
    /// budgets identically.
    pub rounds_completed: u64,
    /// Length of the global corpus tail that was admitted in the final
    /// completed round and not yet broadcast to the workers. A resumed
    /// coordinator re-broadcasts exactly these entries first.
    pub pending_broadcast: usize,
    /// One stream per worker, in worker order. `--resume` requires the
    /// same `--jobs` value: per-worker streams only continue at the
    /// worker count they were frozen at.
    pub workers: Vec<WorkerStream>,
}

impl CampaignCheckpoint {
    /// Worker count the campaign ran with: one stream per worker.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The campaign-wide view of the streams: the per-worker reports
    /// folded in worker order ([`CampaignReport::merge`]) with the
    /// coverage counters taken from the union of the per-worker coverage
    /// maps, and that union. A lone worker's report is returned
    /// verbatim, because `merge` deduplicates divergences by fingerprint
    /// and a single campaign keeps the repeats it recorded. With several
    /// workers `corpus_size` is the sum of the private corpora; the
    /// driver replaces it with the global corpus length.
    #[must_use]
    pub fn fold(&self) -> (CampaignReport, CoverageMap) {
        let mut coverage = CoverageMap::new();
        for stream in &self.workers {
            coverage.merge(&stream.coverage);
        }
        let mut report = match self.workers.as_slice() {
            [lone] => lone.report.clone(),
            streams => streams
                .iter()
                .fold(CampaignReport::default(), |mut merged, stream| {
                    merged.merge(&stream.report);
                    merged
                }),
        };
        report.unique_traces = coverage.unique();
        report.unique_trap_sets = coverage.unique_trap_sets();
        (report, coverage)
    }
}

/// The frozen mid-run state of one coordinator worker: everything needed
/// to rebuild its [`Campaign`](crate::Campaign) exactly — RNG stream
/// positions, its own report and coverage, and its private corpus (which
/// can differ from the merged global corpus: two workers may discover
/// different programs with the same coverage key, and only the
/// lower-indexed worker's program enters the global corpus).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStream {
    /// Worker index, `0..worker_count` — the stream's position in
    /// [`CampaignCheckpoint::workers`].
    pub worker: usize,
    /// Campaign scheduling stream position.
    pub campaign_rng: u64,
    /// Corpus mutation stream position.
    pub corpus_rng: u64,
    /// Generator decision stream position.
    pub generator_rng: u64,
    /// Instruction-library sampling stream position.
    pub library_rng: u64,
    /// Seeds this worker admitted that were discovered by *other*
    /// workers — the live cross-worker sharing counter.
    pub foreign_admitted: u64,
    /// The worker's own report counters as of the freeze.
    pub report: CampaignReport,
    /// The worker's own coverage map as of the freeze.
    pub coverage: CoverageMap,
    /// The worker's private corpus entries, in admission order.
    pub entries: Vec<SeedEntry>,
    /// For workers driven through an out-of-process DUT supervisor: the
    /// number of `run` batches issued to the worker's child-process
    /// lineage as of the freeze. A resumed campaign hands this back to
    /// the server as its chaos-counter offset, so deterministic fault
    /// schedules fire at the same cumulative batch whether or not the
    /// campaign was interrupted. `None` for in-process DUTs.
    pub remote_batches: Option<u64>,
}

// ---- byte-level helpers ------------------------------------------------

/// Append-only little-endian byte sink. Shared with the remote-DUT wire
/// protocol ([`crate::proto`]), which frames its messages with the same
/// byte-level idiom as on-disk records.
#[derive(Default)]
pub(crate) struct Cursor {
    pub(crate) bytes: Vec<u8>,
}

impl Cursor {
    pub(crate) fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes.extend_from_slice(s.as_bytes());
    }
}

/// Little-endian reader over a record payload. Every getter returns
/// `None` past the end, which the record loaders treat as corruption.
pub(crate) struct Slice<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Slice<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Slice { bytes, at: 0 }
    }
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let chunk = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(chunk)
    }
    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
    pub(crate) fn exhausted(&self) -> bool {
        self.at == self.bytes.len()
    }
}

pub(crate) fn checksum(payload: &[u8]) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write_bytes(payload);
    fnv.finish()
}

/// One-byte integrity check over a frame's tag and length. The payload
/// checksum cannot vouch for the length that located the payload in the
/// first place; this byte can, so a corrupt frame header is detected at
/// the frame boundary instead of desynchronizing the record stream.
pub(crate) fn frame_check(tag: u8, len: u32) -> u8 {
    let mut fnv = Fnv::new();
    fnv.write_bytes(&[tag]);
    fnv.write_bytes(&len.to_le_bytes());
    (fnv.finish() & 0xFF) as u8
}

// ---- record payloads ---------------------------------------------------

fn write_seed(entry: &SeedEntry) -> Vec<u8> {
    let mut c = Cursor::default();
    c.u64(entry.trace_digest);
    c.u64(entry.trap_causes);
    c.u32(entry.program.len() as u32);
    for insn in &entry.program {
        c.u32(insn.encode_lossy());
    }
    // v3: the calibration record that power schedules turn into energy.
    write_calibration(&mut c, &entry.calibration);
    c.bytes
}

fn read_seed(payload: &[u8]) -> Option<SeedEntry> {
    let mut s = Slice::new(payload);
    let trace_digest = s.u64()?;
    let trap_causes = s.u64()?;
    let count = s.u32()? as usize;
    let mut program = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let word = s.u32()?;
        program.push(Instruction::decode(word).ok()?);
    }
    // Every legitimate writer emits `ebreak`-terminated programs (the
    // generator guarantees it, mutation and minimization preserve it, and
    // `Corpus::mutate` relies on a non-empty body-plus-terminator shape).
    // An empty or unterminated program is corruption, not a seed.
    if program.last().map(Instruction::opcode) != Some(tf_riscv::Opcode::Ebreak) {
        return None;
    }
    let calibration = read_calibration(&mut s)?;
    s.exhausted().then_some(SeedEntry {
        program,
        trace_digest,
        trap_causes,
        calibration,
    })
}

pub(crate) fn write_trap(c: &mut Cursor, trap: &Trap) {
    c.u64(trap.cause().code());
    c.u64(trap.tval());
}

/// Rebuild a [`Trap`] from its privileged cause code and `mtval`
/// payload — the inverse of [`Trap::cause`]/[`Trap::tval`].
pub(crate) fn read_trap(code: u64, tval: u64) -> Option<Trap> {
    Some(match code {
        c if c == Cause::InstructionMisaligned.code() => Trap::InstructionMisaligned { addr: tval },
        c if c == Cause::InstructionFault.code() => Trap::InstructionFault { addr: tval },
        c if c == Cause::IllegalInstruction.code() => Trap::IllegalInstruction {
            word: u32::try_from(tval).ok()?,
        },
        c if c == Cause::Breakpoint.code() => Trap::Breakpoint { addr: tval },
        c if c == Cause::LoadMisaligned.code() => Trap::LoadMisaligned { addr: tval },
        c if c == Cause::LoadFault.code() => Trap::LoadFault { addr: tval },
        c if c == Cause::StoreMisaligned.code() => Trap::StoreMisaligned { addr: tval },
        c if c == Cause::StoreFault.code() => Trap::StoreFault { addr: tval },
        c if c == Cause::EnvironmentCall.code() => Trap::EnvironmentCall,
        _ => return None,
    })
}

pub(crate) fn write_trace_entry(c: &mut Cursor, entry: Option<&TraceEntry>) {
    let Some(entry) = entry else {
        c.u8(0);
        return;
    };
    c.u8(1);
    c.u64(entry.pc);
    match entry.word {
        None => c.u8(0),
        Some(word) => {
            c.u8(1);
            c.u32(word);
        }
    }
    match &entry.outcome {
        StepOutcome::Retired(insn) => {
            c.u8(0);
            c.u32(insn.encode_lossy());
        }
        StepOutcome::Trapped(trap) => {
            c.u8(1);
            write_trap(c, trap);
        }
    }
    match entry.def {
        None => c.u8(0),
        Some((reg, value)) => {
            c.u8(1);
            c.u8(u8::from(reg.is_fpr()));
            c.u8(reg.index());
            c.u64(value);
        }
    }
}

pub(crate) fn read_trace_entry(s: &mut Slice) -> Option<Option<TraceEntry>> {
    if s.u8()? == 0 {
        return Some(None);
    }
    let pc = s.u64()?;
    let word = if s.u8()? == 0 { None } else { Some(s.u32()?) };
    let outcome = if s.u8()? == 0 {
        StepOutcome::Retired(Instruction::decode(s.u32()?).ok()?)
    } else {
        let code = s.u64()?;
        let tval = s.u64()?;
        StepOutcome::Trapped(read_trap(code, tval)?)
    };
    let def = if s.u8()? == 0 {
        None
    } else {
        let is_fpr = s.u8()? != 0;
        let index = s.u8()?;
        let value = s.u64()?;
        let reg = if is_fpr {
            Reg::F(Fpr::wrapping(index))
        } else {
            Reg::X(Gpr::wrapping(index))
        };
        Some((reg, value))
    };
    Some(Some(TraceEntry {
        pc,
        word,
        outcome,
        def,
    }))
}

/// Serialize a full [`CampaignReport`] — counters, detection latency,
/// divergences, robustness counters and findings — of one worker
/// stream. The coverage-derived `unique_traces`/`unique_trap_sets`
/// fields are *not* written; readers rederive them from the coverage map
/// stored next to the report.
fn write_report(c: &mut Cursor, r: &CampaignReport) {
    c.str(&r.dut);
    for counter in [
        r.programs,
        r.instructions_generated,
        r.steps_executed,
        r.breakpoint_exits,
        r.ecall_exits,
        r.out_of_gas_exits,
        r.divergent_runs,
        r.corpus_size as u64,
    ] {
        c.u64(counter);
    }
    // `u64::MAX` is the no-divergence-yet sentinel (a real campaign
    // cannot generate that many instructions).
    c.u64(r.first_divergence_at.unwrap_or(u64::MAX));
    c.u32(r.divergences.len() as u32);
    for d in &r.divergences {
        c.u64(d.step);
        write_trace_entry(c, d.reference.as_ref());
        write_trace_entry(c, d.dut.as_ref());
        c.u64(d.reference_digest);
        c.u64(d.dut_digest);
    }
    c.u64(r.dut_crashes);
    c.u64(r.dut_hangs);
    c.u64(r.dut_desyncs);
    c.u32(r.findings.len() as u32);
    for finding in &r.findings {
        c.u8(match finding.kind {
            FindingKind::DutCrash => 0,
            FindingKind::DutHang => 1,
            FindingKind::DutDesync => 2,
        });
        c.str(&finding.cause);
        c.u64(finding.at_batch);
        c.u64(finding.repeats);
        c.u32(finding.program.len() as u32);
        for insn in &finding.program {
            c.u32(insn.encode_lossy());
        }
    }
}

/// Inverse of [`write_report`]. The coverage-derived unique counters are
/// left at zero; the caller sets them from the coverage map read
/// alongside.
fn read_report(s: &mut Slice) -> Option<CampaignReport> {
    let mut report = CampaignReport {
        dut: s.str()?,
        ..CampaignReport::default()
    };
    report.programs = s.u64()?;
    report.instructions_generated = s.u64()?;
    report.steps_executed = s.u64()?;
    report.breakpoint_exits = s.u64()?;
    report.ecall_exits = s.u64()?;
    report.out_of_gas_exits = s.u64()?;
    report.divergent_runs = s.u64()?;
    report.corpus_size = usize::try_from(s.u64()?).ok()?;
    report.first_divergence_at = match s.u64()? {
        u64::MAX => None,
        at => Some(at),
    };
    let divergences = s.u32()? as usize;
    for _ in 0..divergences.min(1 << 10) {
        let step = s.u64()?;
        let reference = read_trace_entry(s)?;
        let dut = read_trace_entry(s)?;
        let reference_digest = s.u64()?;
        let dut_digest = s.u64()?;
        report.divergences.push(Divergence {
            step,
            reference,
            dut,
            reference_digest,
            dut_digest,
        });
    }
    report.dut_crashes = s.u64()?;
    report.dut_hangs = s.u64()?;
    report.dut_desyncs = s.u64()?;
    let findings = s.u32()? as usize;
    for _ in 0..findings.min(1 << 10) {
        let kind = match s.u8()? {
            0 => FindingKind::DutCrash,
            1 => FindingKind::DutHang,
            2 => FindingKind::DutDesync,
            _ => return None,
        };
        let cause = s.str()?;
        let at_batch = s.u64()?;
        let repeats = s.u64()?;
        let count = s.u32()? as usize;
        let mut program = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            program.push(Instruction::decode(s.u32()?).ok()?);
        }
        report.findings.push(Finding {
            kind,
            cause,
            program,
            at_batch,
            repeats,
        });
    }
    Some(report)
}

/// Serialize a worker's [`CoverageMap`] next to its corpus `entries`.
/// Every entry's trace digest and trap-cause set are in the map — a
/// campaign observes or admits both keys of each seed it holds — so
/// only the digests and sets no entry carries are written, and the
/// reader re-admits the rest from the entries. Hash-set iteration order
/// is nondeterministic; each family is sorted so identical campaigns
/// write byte-identical checkpoints.
fn write_coverage(c: &mut Cursor, coverage: &CoverageMap, entries: &[SeedEntry]) {
    fn write_set(c: &mut Cursor, values: Vec<u64>) {
        c.u32(values.len() as u32);
        values.into_iter().for_each(|v| c.u64(v));
    }
    fn write_unkeyed(c: &mut Cursor, mut sorted: Vec<u64>, keyed: HashSet<u64>) {
        assert!(
            keyed.iter().all(|k| sorted.binary_search(k).is_ok()),
            "a corpus entry's coverage key is missing from its stream's coverage map"
        );
        sorted.retain(|k| !keyed.contains(k));
        write_set(c, sorted);
    }
    write_unkeyed(
        c,
        coverage.digests_sorted(),
        entries.iter().map(|e| e.trace_digest).collect(),
    );
    write_unkeyed(
        c,
        coverage.trap_sets_sorted(),
        entries.iter().map(|e| e.trap_causes).collect(),
    );
    write_set(c, coverage.pc_pairs_sorted());
    write_set(c, coverage.op_classes_sorted());
    c.u64(coverage.observations());
}

/// Inverse of [`write_coverage`].
fn read_coverage(s: &mut Slice, entries: &[SeedEntry]) -> Option<CoverageMap> {
    fn read_set(s: &mut Slice, mut admit: impl FnMut(u64)) -> Option<()> {
        for _ in 0..s.u32()? {
            admit(s.u64()?);
        }
        Some(())
    }
    let mut coverage = CoverageMap::new();
    for entry in entries {
        coverage.admit(entry.trace_digest);
        coverage.admit_trap_set(entry.trap_causes);
    }
    read_set(s, |d| coverage.admit(d))?;
    read_set(s, |t| coverage.admit_trap_set(t))?;
    read_set(s, |p| coverage.admit_pc_pairs(p))?;
    read_set(s, |o| coverage.admit_op_classes(o))?;
    coverage.set_observations(s.u64()?);
    Some(coverage)
}

/// Stream-entry kinds. A worker's corpus is mostly the global corpus in
/// another order, so its entries refer to the file's seed records by
/// index, carrying the worker's own calibration only where it differs
/// from the record's. Only a program no seed record holds — one that
/// lost a coverage-key race to a lower worker — is embedded in full.
const ENTRY_SEED: u8 = 0;
const ENTRY_RECALIBRATED: u8 = 1;
const ENTRY_EMBEDDED: u8 = 2;

fn write_calibration(c: &mut Cursor, calibration: &SeedCalibration) {
    c.u64(calibration.cost);
    c.u8(calibration.cov_yield);
    c.u64(calibration.spent);
    c.u64(calibration.children);
}

fn read_calibration(s: &mut Slice) -> Option<SeedCalibration> {
    Some(SeedCalibration {
        cost: s.u64()?,
        cov_yield: s.u8()?,
        spent: s.u64()?,
        children: s.u64()?,
    })
}

/// Write a worker's corpus against the seed records `seeds`, whose
/// coverage keys `index` maps to record ordinals.
fn write_stream_entries(
    c: &mut Cursor,
    entries: &[SeedEntry],
    seeds: &[SeedEntry],
    index: &HashMap<(u64, u64), usize>,
) {
    c.u32(entries.len() as u32);
    for entry in entries {
        let record = index
            .get(&entry.coverage_key())
            .filter(|&&i| seeds[i].program == entry.program);
        match record {
            Some(&i) if seeds[i].calibration == entry.calibration => {
                c.u8(ENTRY_SEED);
                c.u32(i as u32);
            }
            Some(&i) => {
                c.u8(ENTRY_RECALIBRATED);
                c.u32(i as u32);
                write_calibration(c, &entry.calibration);
            }
            None => {
                c.u8(ENTRY_EMBEDDED);
                // Length-prefixed so the seed-record codec is reused
                // verbatim (it validates against its exact payload
                // length).
                let payload = write_seed(entry);
                c.u32(payload.len() as u32);
                c.bytes.extend_from_slice(&payload);
            }
        }
    }
}

/// Inverse of [`write_stream_entries`]. `seeds` holds one slot per seed
/// record in the file, `None` where the record was lost to damage; a
/// reference to a lost record fails the whole checkpoint.
fn read_stream_entries(s: &mut Slice, seeds: &[Option<&SeedEntry>]) -> Option<Vec<SeedEntry>> {
    let count = s.u32()? as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let kind = s.u8()?;
        let entry = if kind == ENTRY_EMBEDDED {
            let len = s.u32()? as usize;
            read_seed(s.take(len)?)?
        } else {
            let mut entry = seeds.get(s.u32()? as usize).copied().flatten()?.clone();
            match kind {
                ENTRY_SEED => {}
                ENTRY_RECALIBRATED => entry.calibration = read_calibration(s)?,
                _ => return None,
            }
            entry
        };
        entries.push(entry);
    }
    Some(entries)
}

fn write_worker_stream(
    c: &mut Cursor,
    ws: &WorkerStream,
    seeds: &[SeedEntry],
    index: &HashMap<(u64, u64), usize>,
) {
    c.u64(ws.campaign_rng);
    c.u64(ws.corpus_rng);
    c.u64(ws.generator_rng);
    c.u64(ws.library_rng);
    c.u64(ws.foreign_admitted);
    // `u64::MAX` is the in-process "no supervisor" sentinel.
    c.u64(ws.remote_batches.unwrap_or(u64::MAX));
    write_report(c, &ws.report);
    write_stream_entries(c, &ws.entries, seeds, index);
    write_coverage(c, &ws.coverage, &ws.entries);
}

fn read_worker_stream(
    s: &mut Slice,
    worker: usize,
    seeds: &[Option<&SeedEntry>],
) -> Option<WorkerStream> {
    let campaign_rng = s.u64()?;
    let corpus_rng = s.u64()?;
    let generator_rng = s.u64()?;
    let library_rng = s.u64()?;
    let foreign_admitted = s.u64()?;
    let remote_batches = match s.u64()? {
        u64::MAX => None,
        issued => Some(issued),
    };
    let mut report = read_report(s)?;
    let entries = read_stream_entries(s, seeds)?;
    let coverage = read_coverage(s, &entries)?;
    report.unique_traces = coverage.unique();
    report.unique_trap_sets = coverage.unique_trap_sets();
    Some(WorkerStream {
        worker,
        campaign_rng,
        corpus_rng,
        generator_rng,
        library_rng,
        foreign_admitted,
        report,
        coverage,
        entries,
        remote_batches,
    })
}

/// Serialize a checkpoint whose streams refer to `seeds`, the seed
/// records written before it in the same file.
fn write_checkpoint(cp: &CampaignCheckpoint, seeds: &[SeedEntry]) -> Vec<u8> {
    let mut index = HashMap::with_capacity(seeds.len());
    for (i, seed) in seeds.iter().enumerate() {
        index.entry(seed.coverage_key()).or_insert(i);
    }
    let mut c = Cursor::default();
    c.u64(cp.config_fingerprint);
    c.u64(cp.autosave_ordinal);
    c.u64(cp.batches_completed);
    c.u64(cp.rounds_completed);
    c.u64(cp.pending_broadcast as u64);
    c.u32(cp.workers.len() as u32);
    for ws in &cp.workers {
        write_worker_stream(&mut c, ws, seeds, &index);
    }
    c.bytes
}

fn read_checkpoint(payload: &[u8], seeds: &[Option<&SeedEntry>]) -> Option<CampaignCheckpoint> {
    let mut s = Slice::new(payload);
    let config_fingerprint = s.u64()?;
    let autosave_ordinal = s.u64()?;
    let batches_completed = s.u64()?;
    let rounds_completed = s.u64()?;
    let pending_broadcast = usize::try_from(s.u64()?).ok()?;
    // Loop over the declared count; only the pre-allocation is capped,
    // so a corrupt count cannot reserve unbounded memory.
    let streams = s.u32()? as usize;
    let mut workers = Vec::with_capacity(streams.min(1 << 10));
    for worker in 0..streams {
        workers.push(read_worker_stream(&mut s, worker, seeds)?);
    }
    s.exhausted().then_some(CampaignCheckpoint {
        config_fingerprint,
        autosave_ordinal,
        batches_completed,
        rounds_completed,
        pending_broadcast,
        workers,
    })
}

// ---- file-level save / load -------------------------------------------

fn write_record(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let len = payload.len() as u32;
    out.push(tag);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(frame_check(tag, len));
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum(payload).to_le_bytes());
}

fn file_bytes(entries: &[SeedEntry], checkpoint: Option<&CampaignCheckpoint>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&STABILITY_FINGERPRINT.to_le_bytes());
    for entry in entries {
        write_record(&mut out, TAG_SEED, &write_seed(entry));
    }
    if let Some(cp) = checkpoint {
        write_record(&mut out, TAG_CHECKPOINT, &write_checkpoint(cp, entries));
    }
    out
}

/// Atomically write `bytes` to `path`: a uniquely named temp file in the
/// same directory, flushed, then renamed over the target.
fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(dir) => dir.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Save seed entries (no checkpoint) to `path`, atomically.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn save_entries(path: &Path, entries: &[SeedEntry]) -> std::io::Result<()> {
    atomic_write(path, &file_bytes(entries, None))
}

/// Save seed entries plus a campaign checkpoint to `path`, atomically.
///
/// # Errors
///
/// Propagates filesystem failures.
///
/// # Panics
///
/// Panics when a worker stream holds a corpus entry whose trace digest
/// or trap-cause set is missing from that stream's coverage map — a
/// state no campaign reaches, since admitting a seed observes both keys.
pub fn save_campaign(
    path: &Path,
    entries: &[SeedEntry],
    checkpoint: &CampaignCheckpoint,
) -> std::io::Result<()> {
    atomic_write(path, &file_bytes(entries, Some(checkpoint)))
}

/// Parse corpus bytes: validate the header, then salvage every record
/// that survives its checksum and decodes.
///
/// # Errors
///
/// Returns a [`PersistError`] when the header is missing, has the wrong
/// magic or version, or was written under a different digest scheme.
pub fn load_bytes(bytes: &[u8]) -> Result<LoadedFile, PersistError> {
    let mut s = Slice::new(bytes);
    let magic = s.take(8).ok_or(PersistError::TruncatedHeader)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = s.u32().ok_or(PersistError::TruncatedHeader)?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version });
    }
    let fingerprint = s.u64().ok_or(PersistError::TruncatedHeader)?;
    if fingerprint != STABILITY_FINGERPRINT {
        return Err(PersistError::FingerprintMismatch { found: fingerprint });
    }

    let mut loaded = LoadedFile::default();
    // One slot per seed record, damaged ones included, so checkpoint
    // stream entries resolve by record ordinal: `Some(i)` is
    // `loaded.entries[i]`.
    let mut seed_slots: Vec<Option<usize>> = Vec::new();
    while !s.exhausted() {
        let Some((tag, payload)) = read_frame(&mut s) else {
            loaded.report.truncated = true;
            break;
        };
        match (tag, payload) {
            (TAG_SEED, payload) => match payload.and_then(read_seed) {
                Some(entry) => {
                    seed_slots.push(Some(loaded.entries.len()));
                    loaded.entries.push(entry);
                    loaded.report.loaded += 1;
                }
                None => {
                    seed_slots.push(None);
                    loaded.report.skipped += 1;
                }
            },
            // Intact frame, bad checksum: one record lost.
            (_, None) => loaded.report.skipped += 1,
            (TAG_CHECKPOINT, Some(payload)) => {
                let seeds: Vec<Option<&SeedEntry>> = seed_slots
                    .iter()
                    .map(|slot| slot.map(|i| &loaded.entries[i]))
                    .collect();
                match read_checkpoint(payload, &seeds) {
                    Some(cp) => loaded.checkpoint = Some(cp),
                    None => loaded.report.skipped += 1,
                }
            }
            _ => loaded.report.unknown += 1,
        }
    }
    Ok(loaded)
}

/// Read one `tag · len · frame-check · payload · checksum` frame. Outer
/// `None` means the record boundaries can no longer be trusted — the
/// stream ended mid-frame or the frame header itself is corrupt — so the
/// caller must fail-stop (everything before this frame is already
/// salvaged). Inner `None` means the frame is sound but its payload
/// checksum did not match: exactly this record is lost and the caller
/// may continue at the next frame.
fn read_frame<'a>(s: &mut Slice<'a>) -> Option<(u8, Option<&'a [u8]>)> {
    let tag = s.u8()?;
    let len = s.u32()?;
    if s.u8()? != frame_check(tag, len) {
        return None;
    }
    let payload = s.take(len as usize)?;
    let stored = s.u64()?;
    Some((tag, (checksum(payload) == stored).then_some(payload)))
}

/// Load and parse a corpus file from disk.
///
/// # Errors
///
/// Returns a [`PersistError`] for I/O failures and header mismatches.
pub fn load_file(path: &Path) -> Result<LoadedFile, PersistError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    load_bytes(&bytes)
}

/// Keep the minimal prefix-greedy subset of `entries` that preserves the
/// union of both coverage keys: an entry survives iff it contributes a
/// trace digest or a trap-cause set no earlier survivor already covers.
/// This is the classic corpus-minimization (`cmin`) pass behind
/// `tf-cli corpus minimize`.
#[must_use]
pub fn minimize_entries(entries: &[SeedEntry]) -> Vec<SeedEntry> {
    let mut digests = HashSet::new();
    let mut trap_sets = HashSet::new();
    let mut kept = Vec::new();
    for entry in entries {
        let new_digest = digests.insert(entry.trace_digest);
        let new_traps = trap_sets.insert(entry.trap_causes);
        if new_digest || new_traps {
            kept.push(entry.clone());
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_riscv::Opcode;

    fn entry(words: &[Instruction], digest: u64, traps: u64) -> SeedEntry {
        SeedEntry {
            program: words.to_vec(),
            trace_digest: digest,
            trap_causes: traps,
            calibration: SeedCalibration::default(),
        }
    }

    fn ebreak() -> Instruction {
        Instruction::system(Opcode::Ebreak)
    }

    #[test]
    fn bytes_round_trip() {
        let entries = vec![
            entry(&[Instruction::nop(), ebreak()], 0xAAAA, 0b1000),
            entry(&[ebreak()], 0xBBBB, 0),
        ];
        let bytes = file_bytes(&entries, None);
        let loaded = load_bytes(&bytes).unwrap();
        assert_eq!(loaded.entries, entries);
        assert_eq!(loaded.report.loaded, 2);
        assert_eq!(loaded.report.skipped, 0);
        assert!(!loaded.report.truncated);
        assert!(loaded.checkpoint.is_none());
    }

    #[test]
    fn calibration_round_trips_through_seed_records() {
        let mut seeded = entry(&[Instruction::nop(), ebreak()], 0xC0DE, 0b10);
        seeded.calibration = SeedCalibration {
            cost: 12_345,
            cov_yield: 3,
            spent: 77,
            children: 9,
        };
        let plain = entry(&[ebreak()], 0xF00D, 0);
        let bytes = file_bytes(&[seeded.clone(), plain.clone()], None);
        let loaded = load_bytes(&bytes).unwrap();
        assert_eq!(loaded.entries, vec![seeded, plain]);
        assert_eq!(loaded.entries[0].calibration.cost, 12_345);
        assert_eq!(loaded.entries[1].calibration, SeedCalibration::default());
    }

    #[test]
    fn a_version_2_corpus_is_rejected_with_a_clear_error() {
        // v5 is the two-shape checkpoint format this one replaced.
        for version in [2u32, 5] {
            let mut old = file_bytes(&[entry(&[ebreak()], 1, 0)], None);
            old[8..12].copy_from_slice(&version.to_le_bytes());
            let err = load_bytes(&old).unwrap_err();
            assert!(matches!(err, PersistError::UnsupportedVersion { found } if found == version));
            let message = err.to_string();
            assert!(
                message.contains(&format!("version {version}")) && message.contains("reads 6"),
                "{message}"
            );
        }
    }

    #[test]
    fn header_mismatches_reject_the_file() {
        let good = file_bytes(&[], None);

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            load_bytes(&bad_magic),
            Err(PersistError::BadMagic)
        ));

        let mut bad_version = good.clone();
        bad_version[8] = 0xFE;
        assert!(matches!(
            load_bytes(&bad_version),
            Err(PersistError::UnsupportedVersion { found: 0xFE })
        ));

        let mut bad_fingerprint = good.clone();
        bad_fingerprint[12] ^= 0x01;
        assert!(matches!(
            load_bytes(&bad_fingerprint),
            Err(PersistError::FingerprintMismatch { .. })
        ));

        assert!(matches!(
            load_bytes(&good[..10]),
            Err(PersistError::TruncatedHeader)
        ));
    }

    #[test]
    fn corrupt_entry_is_skipped_not_fatal() {
        let entries = vec![
            entry(&[Instruction::nop(), ebreak()], 1, 0),
            entry(&[ebreak()], 2, 0),
            entry(&[Instruction::nop(), ebreak()], 3, 0),
        ];
        let mut bytes = file_bytes(&entries, None);
        // Flip one byte inside the second record's payload (header is 20
        // bytes; record 1 occupies 1 + 4 + 1 + 53 + 8 = 67 bytes, and the
        // second record's payload starts after its own 6-byte frame
        // header).
        let second_payload_start = 20 + 67 + 6;
        bytes[second_payload_start] ^= 0xFF;
        let loaded = load_bytes(&bytes).unwrap();
        assert_eq!(loaded.report.loaded, 2);
        assert_eq!(loaded.report.skipped, 1);
        assert!(!loaded.report.truncated, "payload damage is local");
        assert_eq!(loaded.entries[0].trace_digest, 1);
        assert_eq!(loaded.entries[1].trace_digest, 3);
    }

    #[test]
    fn corrupt_frame_header_fail_stops_with_the_prefix_salvaged() {
        let entries = vec![
            entry(&[Instruction::nop(), ebreak()], 1, 0),
            entry(&[ebreak()], 2, 0),
            entry(&[Instruction::nop(), ebreak()], 3, 0),
        ];
        let mut bytes = file_bytes(&entries, None);
        // Flip a byte of the second record's *length* field (bytes the
        // payload checksum cannot cover): the frame check catches it and
        // parsing stops instead of consuming the tail as garbage.
        let second_len_field = 20 + 67 + 1;
        bytes[second_len_field] ^= 0xFF;
        let loaded = load_bytes(&bytes).unwrap();
        assert_eq!(loaded.report.loaded, 1);
        assert_eq!(loaded.report.skipped, 0, "no garbage frames consumed");
        assert!(loaded.report.truncated, "header damage is a fail-stop");
        assert_eq!(loaded.entries[0].trace_digest, 1);
    }

    #[test]
    fn truncated_tail_ends_the_stream_cleanly() {
        let entries = vec![
            entry(&[ebreak()], 1, 0),
            entry(&[Instruction::nop(), ebreak()], 2, 0),
        ];
        let bytes = file_bytes(&entries, None);
        let loaded = load_bytes(&bytes[..bytes.len() - 5]).unwrap();
        assert_eq!(loaded.report.loaded, 1);
        assert!(loaded.report.truncated);
    }

    #[test]
    fn empty_or_unterminated_seed_records_are_corrupt() {
        let mut bytes = file_bytes(&[], None);
        // A checksum-valid record with zero program words.
        let mut c = Cursor::default();
        c.u64(1);
        c.u64(0);
        c.u32(0);
        write_record(&mut bytes, TAG_SEED, &c.bytes);
        // A checksum-valid record whose program does not end in ebreak.
        let mut c = Cursor::default();
        c.u64(2);
        c.u64(0);
        c.u32(1);
        c.u32(Instruction::nop().encode_lossy());
        write_record(&mut bytes, TAG_SEED, &c.bytes);
        let loaded = load_bytes(&bytes).unwrap();
        assert_eq!(loaded.report.loaded, 0);
        assert_eq!(loaded.report.skipped, 2);
        assert!(loaded.entries.is_empty());
    }

    #[test]
    fn unknown_tags_are_skipped_for_forward_compat() {
        let mut bytes = file_bytes(&[entry(&[ebreak()], 7, 0)], None);
        write_record(&mut bytes, 0x7F, b"future record kind");
        let loaded = load_bytes(&bytes).unwrap();
        assert_eq!(loaded.report.loaded, 1);
        assert_eq!(loaded.report.unknown, 1);
        assert_eq!(
            loaded.report.skipped, 0,
            "an extension record is not corruption"
        );
    }

    #[test]
    fn trap_serialisation_round_trips_every_variant() {
        for trap in [
            Trap::InstructionMisaligned { addr: 2 },
            Trap::InstructionFault { addr: 0x8000 },
            Trap::IllegalInstruction { word: 0xDEAD_BEEF },
            Trap::Breakpoint { addr: 8 },
            Trap::LoadMisaligned { addr: 3 },
            Trap::LoadFault { addr: 0x9000 },
            Trap::StoreMisaligned { addr: 5 },
            Trap::StoreFault { addr: 0xA000 },
            Trap::EnvironmentCall,
        ] {
            let rebuilt = read_trap(trap.cause().code(), trap.tval()).unwrap();
            assert_eq!(rebuilt, trap);
        }
        assert_eq!(read_trap(999, 0), None);
    }

    #[test]
    fn minimize_keeps_only_coverage_contributors() {
        let entries = vec![
            entry(&[ebreak()], 1, 0b01),
            entry(&[ebreak()], 2, 0b01), // new digest
            entry(&[ebreak()], 1, 0b10), // new trap set
            entry(&[ebreak()], 1, 0b01), // contributes nothing
            entry(&[ebreak()], 2, 0b10), // contributes nothing
        ];
        let kept = minimize_entries(&entries);
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].coverage_key(), (1, 0b01));
        assert_eq!(kept[1].coverage_key(), (2, 0b01));
        assert_eq!(kept[2].coverage_key(), (1, 0b10));
    }

    #[test]
    fn atomic_save_and_load_via_the_filesystem() {
        let dir = std::env::temp_dir().join(format!("tf-persist-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.tfc");
        let entries = vec![entry(&[Instruction::nop(), ebreak()], 0x1234, 0b1000)];
        save_entries(&path, &entries).unwrap();
        // Overwriting goes through the same rename path.
        save_entries(&path, &entries).unwrap();
        let loaded = load_file(&path).unwrap();
        assert_eq!(loaded.entries, entries);
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name() != "corpus.tfc")
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
