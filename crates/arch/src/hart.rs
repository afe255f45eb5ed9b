//! The hart: fetch, decode, execute — one instruction per [`Hart::step`],
//! or one predecoded basic block per inner iteration of the native
//! batched [`Hart::run_batch_into`].

use std::sync::Arc;

use tf_riscv::csr::{self, CsrAddr};
use tf_riscv::{Format, Fpr, Gpr, Instruction, Opcode, RoundingMode};

use crate::digest::{Fnv, WideFnv};
use crate::dut::{
    fold_op_classes, fold_pc_pair, fold_sample, op_class, BatchOutcome, Dut, OP_CLASS_BUCKETS,
    PC_PAIRS_SEED,
};
use crate::fpu::{self, dp, sp};
use crate::mem::Memory;
use crate::state::ArchState;
use crate::trace::{ExecutionTrace, StepOutcome, TraceEntry, TraceSink};
use crate::trap::Trap;

/// Execution routine of one predecoded instruction. Non-capturing, so
/// every handler is a plain `fn` pointer and a block walk is a
/// direct-threaded dispatch loop with no opcode re-matching.
type Handler = fn(&mut Hart, &MicroOp) -> Result<(), Trap>;

/// One pre-resolved instruction of a predecoded basic block: the decoded
/// form, its fetch address and raw word (the `(pc, word)` validation
/// key), and the selected handler.
#[derive(Debug, Clone, Copy)]
struct MicroOp {
    insn: Instruction,
    pc: u64,
    word: u32,
    handler: Handler,
    /// Whether the op can write memory (stores and atomics). Only such
    /// ops can move the code generation, so the block walk checks for
    /// in-block self-modification after these alone.
    stores: bool,
}

/// A cached straight-line block starting at some pc. Valid while the
/// memory code-range generation still equals `gen`; on a generation
/// mismatch the per-word store stamps ([`Memory::code_range_unchanged`])
/// prove the block's words intact in one L1 scan, and the block is
/// rebuilt only when one of its words was actually stored to. An empty
/// `ops` caches a *failed* build (the word at the block's pc does not
/// decode), so repeated execution there skips straight to the per-step
/// path, which raises the illegal-instruction trap from the decode cache
/// without decoding again.
#[derive(Debug, Clone)]
struct Block {
    gen: u64,
    ops: Arc<[MicroOp]>,
}

/// Longest straight-line block predecoded in one go. Bounds the work a
/// single build or re-validation can do; block-spanning straight-line
/// code simply continues in the next cached block.
const BLOCK_CAP: usize = 64;

/// True for opcodes that end a basic block: anything after them in
/// memory order is not necessarily the next instruction executed.
/// Branches and jumps redirect control; `ecall`/`ebreak` end the run or
/// vector to the trap handler. CSR accesses stay in-block — they are
/// straight-line in this machine-mode-only model.
fn ends_block(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Beq
            | Opcode::Bne
            | Opcode::Blt
            | Opcode::Bge
            | Opcode::Bltu
            | Opcode::Bgeu
            | Opcode::Jal
            | Opcode::Jalr
            | Opcode::Ecall
            | Opcode::Ebreak
    )
}

/// Why [`Hart::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// An `ebreak` trapped after `steps` executed steps — the conventional
    /// end-of-program marker for generated workloads.
    Breakpoint {
        /// Steps executed, including the trapping one.
        steps: u64,
    },
    /// An `ecall` trapped after `steps` executed steps.
    EnvironmentCall {
        /// Steps executed, including the trapping one.
        steps: u64,
    },
    /// The step budget ran out first.
    OutOfGas,
}

impl std::fmt::Display for RunExit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunExit::Breakpoint { steps } => write!(f, "breakpoint after {steps} steps"),
            RunExit::EnvironmentCall { steps } => {
                write!(f, "environment call after {steps} steps")
            }
            RunExit::OutOfGas => f.write_str("out of gas"),
        }
    }
}

/// A single RV64 IMAFD+Zicsr hart with its private memory.
///
/// [`Hart::step`] never panics: every abnormal condition becomes a typed
/// [`Trap`], which is architecturally taken (CSRs updated, `pc` vectored
/// to `mtvec`) before the step returns. This totality is what makes the
/// model usable as the golden reference under fuzzed instruction streams.
#[derive(Debug, Clone)]
pub struct Hart {
    state: ArchState,
    mem: Memory,
    reservation: Option<u64>,
    trace: TraceSink,
    // Pre-decoded program cache filled by `load_program`: entry `i`
    // holds the word stored at `icache_base + 4*i` and its decode
    // (`None`: the word does not decode), so neither the block builder
    // nor the per-step fetch path decodes a loaded word twice. Every hit
    // is validated against the word actually loaded from memory, which
    // keeps self-modifying programs architecturally exact (a stale
    // entry simply decodes the fresh word).
    icache_base: u64,
    icache: Vec<(u32, Option<Instruction>)>,
    // Predecoded-block cache, indexed like the icache: entry `i` caches
    // the basic block *starting at* `icache_base + 4*i`. Blocks validate
    // against the memory code-range generation (see
    // [`Memory::code_generation`]); pcs outside the loaded program never
    // get blocks and always take the exact per-step path.
    blocks: Vec<Option<Block>>,
}

impl Hart {
    /// Create a hart at the reset state with `mem_size` bytes of memory.
    #[must_use]
    pub fn new(mem_size: u64) -> Self {
        Hart {
            state: ArchState::new(),
            mem: Memory::new(mem_size),
            reservation: None,
            trace: TraceSink::Off,
            icache_base: 0,
            icache: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// Return to the reset state: registers, CSRs, memory and the LR/SC
    /// reservation are cleared and tracing is disarmed, discarding any
    /// recorded trace or trace digest. The memory size is kept.
    pub fn reset(&mut self) {
        *self = Hart::new(self.mem.size());
    }

    /// The architectural register state.
    #[must_use]
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// The architectural register state, mutably (test setup, templates).
    pub fn state_mut(&mut self) -> &mut ArchState {
        &mut self.state
    }

    /// The memory.
    #[must_use]
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// The memory, mutably (program loading, data placement).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Start recording an [`ExecutionTrace`], replacing any previous
    /// trace or armed trace digest.
    pub fn enable_tracing(&mut self) {
        self.trace = TraceSink::Full(ExecutionTrace::new());
    }

    /// Stop tracing and take the recorded trace. `None` when no full
    /// trace was being recorded (including after
    /// [`Hart::enable_trace_digest`]).
    pub fn take_trace(&mut self) -> Option<ExecutionTrace> {
        self.trace.take_trace()
    }

    /// Start folding every executed step straight into the trace digest,
    /// replacing any previous trace or digest: the digest
    /// [`Hart::take_trace_digest`] returns equals
    /// [`ExecutionTrace::digest`] of what [`Hart::enable_tracing`] would
    /// have recorded, without storing the trace.
    pub fn enable_trace_digest(&mut self) {
        self.trace = TraceSink::Digest(Fnv::new());
    }

    /// Stop tracing and take the trace digest of the steps executed
    /// since tracing was armed in either mode. `None` when tracing is
    /// off.
    pub fn take_trace_digest(&mut self) -> Option<u64> {
        self.trace.take_digest()
    }

    /// The most recently recorded trace entry, for in-crate mutant
    /// implementations that patch the defined-register value after
    /// injecting a bug into the retired result.
    pub(crate) fn trace_last_mut(&mut self) -> Option<&mut TraceEntry> {
        self.trace.last_mut()
    }

    /// Encode `program` and store it contiguously starting at `base`.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] a fetch of the offending word would raise:
    /// [`Trap::StoreFault`] when the program does not fit in memory, and
    /// [`Trap::IllegalInstruction`] carrying the best-effort encoding
    /// ([`Instruction::encode_lossy`]) of the offending instruction in
    /// the type-invariant-excluded case that it fails to encode.
    pub fn load_program(&mut self, base: u64, program: &[Instruction]) -> Result<(), Trap> {
        let mut icache = Vec::with_capacity(program.len());
        for (i, insn) in program.iter().enumerate() {
            let addr = base + 4 * i as u64;
            let word = insn.encode().map_err(|_| Trap::IllegalInstruction {
                word: insn.encode_lossy(),
            })?;
            self.mem
                .store_u32(addr, word)
                .ok_or(Trap::StoreFault { addr })?;
            // Cache the decode of the *stored word* (not the given
            // instruction) so cached fetches are bit-identical to
            // uncached ones even if encode/decode ever disagreed.
            icache.push((word, Instruction::decode(word).ok()));
        }
        // Only a fully loaded program replaces the cache; fetch-time word
        // validation keeps any stale range harmless either way.
        self.icache_base = base;
        self.icache = icache;
        // The program image is the code range: stores into it bump the
        // generation the block cache validates against.
        self.blocks = vec![None; self.icache.len()];
        self.mem
            .set_code_watch(base, base + 4 * self.icache.len() as u64);
        Ok(())
    }

    /// Combined digest of register state and memory — the run fingerprint
    /// differential coverage compares between reference and DUT.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut fnv = WideFnv::new();
        fnv.write_u64(self.state.digest());
        fnv.write_u64(self.mem.digest());
        fnv.finish()
    }

    /// Cumulative fold of every architectural write — registers, CSRs
    /// and memory — since reset. The path-sensitive companion of
    /// [`Hart::digest`]: equal digests say two devices *reached* the
    /// same state, equal histories say they took the same sequence of
    /// writes to get there (see [`ArchState::write_history`]).
    #[must_use]
    pub fn write_history(&self) -> u64 {
        let mut fnv = WideFnv::new();
        fnv.write_u64(self.state.write_history());
        fnv.write_u64(self.mem.write_history());
        fnv.finish()
    }

    /// Execute one instruction.
    ///
    /// On a trap the hart has already vectored: `mepc`, `mcause`, `mtval`
    /// and `mstatus` are updated and `pc` points at the handler
    /// (`mtvec.base`). Never panics.
    pub fn step(&mut self) -> StepOutcome {
        self.state.bump_cycle();
        let pc = self.state.pc();
        let mut word = None;
        let outcome = match self.execute_at(pc, &mut word) {
            Ok(insn) => {
                self.state.bump_instret();
                StepOutcome::Retired(insn)
            }
            Err(trap) => {
                let handler =
                    self.state
                        .csrs_mut()
                        .enter_trap(pc, trap.cause().code(), trap.tval());
                self.state.set_pc(handler);
                StepOutcome::Trapped(trap)
            }
        };
        if self.trace.is_on() {
            let def = match outcome {
                StepOutcome::Retired(insn) => self.traced_def(&insn),
                StepOutcome::Trapped(_) => None,
            };
            self.trace.record(TraceEntry {
                pc,
                word,
                outcome,
                def,
            });
        }
        outcome
    }

    /// Step until an `ebreak`/`ecall` trap or until `max_steps` is spent.
    pub fn run(&mut self, max_steps: u64) -> RunExit {
        Dut::run(self, max_steps, 0).exit
    }

    fn execute_at(&mut self, pc: u64, word_out: &mut Option<u32>) -> Result<Instruction, Trap> {
        if pc % 4 != 0 {
            return Err(Trap::InstructionMisaligned { addr: pc });
        }
        let word = self
            .mem
            .load_u32(pc)
            .ok_or(Trap::InstructionFault { addr: pc })?;
        *word_out = Some(word);
        let insn = self
            .decode_at(pc, word)
            .ok_or(Trap::IllegalInstruction { word })?;
        self.exec(insn, pc, word)?;
        Ok(insn)
    }

    /// The decode of `word`, which memory holds at `pc`. When the
    /// load-time cache entry for `pc` still holds `word`, its result is
    /// final either way — decoded, or known not to decode — and nothing
    /// is decoded; only a miss (a pc outside the loaded program, or a
    /// word stored over it since) decodes afresh.
    pub(crate) fn decode_at(&self, pc: u64, word: u32) -> Option<Instruction> {
        let cached = pc
            .checked_sub(self.icache_base)
            .and_then(|offset| usize::try_from(offset / 4).ok())
            .and_then(|index| self.icache.get(index));
        match cached {
            Some(&(cached_word, decoded)) if cached_word == word => decoded,
            _ => Instruction::decode(word).ok(),
        }
    }

    // ---- predecoded-block engine ---------------------------------------

    /// The cached basic block starting at `pc`, validated or (re)built.
    /// `blocks` is the hart's own block table, lent out by [`run_batch_into`]
    /// (see there) so the returned ops slice can be walked while the
    /// handlers borrow the hart — no per-op indexing, no `Arc` refcount
    /// traffic in the hot loop. `None` when no block applies — pc
    /// misaligned, outside the loaded program, or the word there does
    /// not decode — in which case the caller must take the exact
    /// per-step path.
    fn block_at<'b>(&mut self, blocks: &'b mut [Option<Block>], pc: u64) -> Option<&'b [MicroOp]> {
        if pc % 4 != 0 {
            return None;
        }
        let index = usize::try_from(pc.checked_sub(self.icache_base)? / 4).ok()?;
        if index >= blocks.len() {
            return None;
        }
        let gen = self.mem.code_generation();
        let rebuild = match &blocks[index] {
            Some(block) if block.gen == gen => false,
            // The generation moved, but the store(s) behind it may not
            // have hit this block's words: the per-word store stamps
            // prove intactness without re-reading memory. A cached
            // failed build covers the one undecodable word at `pc`.
            Some(block) => !self
                .mem
                .code_range_unchanged(pc, block.ops.len().max(1), block.gen),
            None => true,
        };
        if rebuild {
            self.build_block(blocks, pc, index)
        } else {
            let block = blocks[index].as_mut()?;
            block.gen = gen;
            (!block.ops.is_empty()).then_some(&block.ops[..])
        }
    }

    /// Decode forward from `pc` to the next block-ending instruction (or
    /// [`BLOCK_CAP`], the end of the program image, or an undecodable
    /// word) and cache the straight-line result. A failed build (the
    /// word at `pc` itself does not decode) is cached as an empty block,
    /// so the build is not retried until that word is stored to.
    fn build_block<'b>(
        &mut self,
        blocks: &'b mut [Option<Block>],
        pc: u64,
        index: usize,
    ) -> Option<&'b [MicroOp]> {
        let end = self.icache_base + 4 * blocks.len() as u64;
        let gen = self.mem.code_generation();
        let mut ops = Vec::new();
        let mut addr = pc;
        while addr < end && ops.len() < BLOCK_CAP {
            let Some(word) = self.mem.load_u32(addr) else {
                break;
            };
            let Some(insn) = self.decode_at(addr, word) else {
                break;
            };
            ops.push(MicroOp {
                insn,
                pc: addr,
                word,
                handler: handler_for(insn.opcode()),
                stores: matches!(
                    insn.opcode().format(),
                    Format::S | Format::FpStore | Format::Amo
                ),
            });
            if ends_block(insn.opcode()) {
                break;
            }
            addr = addr.wrapping_add(4);
        }
        blocks[index] = Some(Block {
            gen,
            ops: ops.into(),
        });
        let block = blocks[index].as_ref()?;
        (!block.ops.is_empty()).then_some(&block.ops[..])
    }

    /// The register a retired `insn` defined, with its current value —
    /// a trace entry's [`TraceEntry::def`].
    fn traced_def(&self, insn: &Instruction) -> Option<(tf_riscv::Reg, u64)> {
        insn.operands().defs().map(|reg| {
            let value = match reg {
                tf_riscv::Reg::X(g) => self.state.x(g),
                tf_riscv::Reg::F(f) => self.state.f_bits(f),
            };
            (reg, value)
        })
    }

    /// Record a retired micro-op into the trace, exactly as
    /// [`Hart::step`] would have.
    #[cold]
    fn trace_retired(&mut self, op: &MicroOp) {
        let def = self.traced_def(&op.insn);
        self.trace.record(TraceEntry {
            pc: op.pc,
            word: Some(op.word),
            outcome: StepOutcome::Retired(op.insn),
            def,
        });
    }

    /// Record a trapped micro-op into the trace, exactly as
    /// [`Hart::step`] would have.
    #[cold]
    fn trace_trapped(&mut self, op: &MicroOp, trap: Trap) {
        self.trace.record(TraceEntry {
            pc: op.pc,
            word: Some(op.word),
            outcome: StepOutcome::Trapped(trap),
            def: None,
        });
    }

    /// Native batched run: the [`Dut::run`] override for [`Hart`].
    ///
    /// Executes whole predecoded blocks between sample points, with the
    /// per-step trait dispatch, [`StepOutcome`] construction and
    /// bookkeeping hoisted out of the inner loop. Observable behaviour —
    /// step/retire counts, exits, trap causes, trace entries and every
    /// digest sample, and the pc-pair / opcode-class coverage folds — is
    /// bit-identical to the default trait implementation's documented
    /// schedule (interior samples at step numbers divisible by
    /// `digest_every`, skipping one that would coincide with the final
    /// sample; a final sample always). Pcs without a valid block —
    /// outside the program image, misaligned, or holding an undecodable
    /// word — fall back to the exact per-step path for that step.
    pub(crate) fn run_batch_into(
        &mut self,
        max_steps: u64,
        digest_every: u64,
        out: &mut BatchOutcome,
    ) {
        let mut steps = 0;
        let mut retired = 0;
        let mut trap_causes = 0u64;
        let mut exit = RunExit::OutOfGas;
        let mut pc_pairs = PC_PAIRS_SEED;
        let mut classes = [0u32; OP_CLASS_BUCKETS];
        out.samples.clear();
        let samples = &mut out.samples;
        // Countdown to the next interior sample — equivalent to the
        // default impl's `steps % digest_every == 0` because `steps`
        // only ever grows by one, but without a hardware division on
        // every step. One definition (this macro), three sample points.
        let mut until_sample = digest_every;
        macro_rules! sample_point {
            () => {
                if digest_every != 0 {
                    until_sample -= 1;
                    if until_sample == 0 {
                        until_sample = digest_every;
                        if steps < max_steps {
                            samples.push(fold_sample(self.digest(), self.write_history(), retired));
                        }
                    }
                }
            };
        }
        // Lend the block table out of `self` for the duration of the
        // run: the ops slice returned by `block_at` then borrows the
        // local table while the handlers borrow the hart disjointly, so
        // the walk is a plain slice iteration — no per-op bounds checks,
        // no `Arc` refcount traffic, no micro-op copies. Nothing on the
        // handler or fallback path reads `self.blocks`.
        let mut blocks = std::mem::take(&mut self.blocks);
        'outer: while steps < max_steps {
            let pc = self.state.pc();
            let Some(ops) = self.block_at(&mut blocks, pc) else {
                // Exact per-step fallback for this one step: traps on
                // misalignment/fetch faults/illegal words are raised by
                // `step` itself, identically to the default impl.
                let outcome = self.step();
                steps += 1;
                pc_pairs = fold_pc_pair(pc_pairs, pc, self.state.pc());
                match outcome {
                    StepOutcome::Retired(insn) => {
                        retired += 1;
                        classes[op_class(&insn)] += 1;
                    }
                    StepOutcome::Trapped(trap) => {
                        trap_causes |= 1 << (trap.cause().code() & 63);
                        match trap {
                            Trap::Breakpoint { .. } => {
                                exit = RunExit::Breakpoint { steps };
                                break 'outer;
                            }
                            Trap::EnvironmentCall => {
                                exit = RunExit::EnvironmentCall { steps };
                                break 'outer;
                            }
                            _ => {}
                        }
                    }
                }
                sample_point!();
                continue;
            };
            let block_gen = self.mem.code_generation();
            for op in ops {
                self.state.bump_cycle();
                match (op.handler)(self, op) {
                    Ok(()) => {
                        self.state.bump_instret();
                        retired += 1;
                        steps += 1;
                        pc_pairs = fold_pc_pair(pc_pairs, op.pc, self.state.pc());
                        // The major-opcode field of the fetched word is
                        // what `op_class` computes by re-encoding.
                        classes[((op.word >> 2) & 0x1F) as usize] += 1;
                        if self.trace.is_on() {
                            self.trace_retired(op);
                        }
                    }
                    Err(trap) => {
                        let handler = self.state.csrs_mut().enter_trap(
                            op.pc,
                            trap.cause().code(),
                            trap.tval(),
                        );
                        self.state.set_pc(handler);
                        steps += 1;
                        pc_pairs = fold_pc_pair(pc_pairs, op.pc, handler);
                        trap_causes |= 1 << (trap.cause().code() & 63);
                        if self.trace.is_on() {
                            self.trace_trapped(op, trap);
                        }
                        match trap {
                            Trap::Breakpoint { .. } => {
                                exit = RunExit::Breakpoint { steps };
                                break 'outer;
                            }
                            Trap::EnvironmentCall => {
                                exit = RunExit::EnvironmentCall { steps };
                                break 'outer;
                            }
                            _ => {}
                        }
                        // A non-exit trap vectored pc to mtvec: the rest
                        // of this block is not what executes next.
                        sample_point!();
                        if steps == max_steps {
                            break 'outer;
                        }
                        continue 'outer;
                    }
                }
                sample_point!();
                if steps == max_steps {
                    break 'outer;
                }
                if op.stores && self.mem.code_generation() != block_gen {
                    // The store may have hit the code range (in-block
                    // self-modification): re-resolve at the
                    // architectural pc instead of walking stale ops.
                    continue 'outer;
                }
            }
        }
        self.blocks = blocks;
        out.samples
            .push(fold_sample(self.digest(), self.write_history(), retired));
        out.steps = steps;
        out.exit = exit;
        out.trap_causes = trap_causes;
        out.pc_pairs = pc_pairs;
        out.op_classes = fold_op_classes(&classes);
    }

    // ---- register helpers ----------------------------------------------

    fn x(&self, index: u8) -> u64 {
        self.state.x(Gpr::wrapping(index))
    }

    fn set_x(&mut self, index: u8, value: u64) {
        self.state.set_x(Gpr::wrapping(index), value);
    }

    fn f(index: u8) -> Fpr {
        Fpr::wrapping(index)
    }

    fn accrue(&mut self, flags: u64) {
        if flags != 0 {
            self.state.csrs_mut().accrue_fflags(flags);
            self.state.csrs_mut().set_fp_dirty();
        }
    }

    fn fp_guard(&self, word: u32) -> Result<(), Trap> {
        if self.state.csrs().fp_off() {
            Err(Trap::IllegalInstruction { word })
        } else {
            Ok(())
        }
    }

    /// Resolve the effective rounding mode; a dynamic mode reading a
    /// reserved `fcsr.frm` raises illegal instruction (bug scenario B2).
    fn resolve_rm(&self, insn: Instruction, word: u32) -> Result<RoundingMode, Trap> {
        match insn.rm() {
            Some(RoundingMode::Dyn) => match RoundingMode::from_bits(self.state.csrs().frm()) {
                Some(RoundingMode::Dyn) | None => Err(Trap::IllegalInstruction { word }),
                Some(mode) => Ok(mode),
            },
            Some(mode) => Ok(mode),
            // Opcodes without a rounding-mode field never consult it.
            None => Ok(RoundingMode::Rne),
        }
    }

    /// Finish a straight-line micro-op: advance pc to the next word.
    /// Every handler ends by setting pc — the per-step `(slot, pc)`
    /// history fold is part of the write-history contract.
    #[inline]
    fn advance(&mut self, m: &MicroOp) -> Result<(), Trap> {
        self.state.set_pc(m.pc.wrapping_add(4));
        Ok(())
    }

    /// Conditional branch: pc moves to the target when `cmp` holds, else
    /// to the next word. Branch offsets are 4-byte aligned by
    /// construction, so no alignment trap is possible here.
    #[inline]
    fn branch_to(&mut self, m: &MicroOp, cmp: fn(u64, u64) -> bool) -> Result<(), Trap> {
        let next = if cmp(self.x(m.insn.rs1()), self.x(m.insn.rs2())) {
            m.pc.wrapping_add(m.insn.imm() as u64)
        } else {
            m.pc.wrapping_add(4)
        };
        self.state.set_pc(next);
        Ok(())
    }

    // ---- memory helpers ------------------------------------------------

    fn int_load(&mut self, insn: Instruction, bytes: u64, signed: bool) -> Result<(), Trap> {
        let addr = self.x(insn.rs1()).wrapping_add(insn.imm() as u64);
        if addr % bytes != 0 {
            return Err(Trap::LoadMisaligned { addr });
        }
        let fault = Trap::LoadFault { addr };
        let value = match (bytes, signed) {
            (1, false) => u64::from(self.mem.load_u8(addr).ok_or(fault)?),
            (1, true) => self.mem.load_u8(addr).ok_or(fault)? as i8 as i64 as u64,
            (2, false) => u64::from(self.mem.load_u16(addr).ok_or(fault)?),
            (2, true) => self.mem.load_u16(addr).ok_or(fault)? as i16 as i64 as u64,
            (4, false) => u64::from(self.mem.load_u32(addr).ok_or(fault)?),
            (4, true) => self.mem.load_u32(addr).ok_or(fault)? as i32 as i64 as u64,
            _ => self.mem.load_u64(addr).ok_or(fault)?,
        };
        self.set_x(insn.rd(), value);
        Ok(())
    }

    fn int_store(&mut self, insn: Instruction, bytes: u64) -> Result<(), Trap> {
        let addr = self.x(insn.rs1()).wrapping_add(insn.imm() as u64);
        if addr % bytes != 0 {
            return Err(Trap::StoreMisaligned { addr });
        }
        let value = self.x(insn.rs2());
        let fault = Trap::StoreFault { addr };
        match bytes {
            1 => self.mem.store_u8(addr, value as u8).ok_or(fault),
            2 => self.mem.store_u16(addr, value as u16).ok_or(fault),
            4 => self.mem.store_u32(addr, value as u32).ok_or(fault),
            _ => self.mem.store_u64(addr, value).ok_or(fault),
        }
    }

    // ---- atomics -------------------------------------------------------

    fn load_reserved(&mut self, insn: Instruction, bytes: u64) -> Result<(), Trap> {
        let addr = self.x(insn.rs1());
        if addr % bytes != 0 {
            return Err(Trap::LoadMisaligned { addr });
        }
        let fault = Trap::LoadFault { addr };
        let value = if bytes == 4 {
            self.mem.load_u32(addr).ok_or(fault)? as i32 as i64 as u64
        } else {
            self.mem.load_u64(addr).ok_or(fault)?
        };
        self.reservation = Some(addr);
        self.set_x(insn.rd(), value);
        Ok(())
    }

    fn store_conditional(&mut self, insn: Instruction, bytes: u64) -> Result<(), Trap> {
        let addr = self.x(insn.rs1());
        if addr % bytes != 0 {
            return Err(Trap::StoreMisaligned { addr });
        }
        let success = self.reservation == Some(addr);
        // Any sc invalidates the reservation, pass or fail.
        self.reservation = None;
        if success {
            let value = self.x(insn.rs2());
            let fault = Trap::StoreFault { addr };
            if bytes == 4 {
                self.mem.store_u32(addr, value as u32).ok_or(fault)?;
            } else {
                self.mem.store_u64(addr, value).ok_or(fault)?;
            }
            self.set_x(insn.rd(), 0);
        } else {
            self.set_x(insn.rd(), 1);
        }
        Ok(())
    }

    /// Read-modify-write on a 32-bit memory word; `rd` gets the old value
    /// sign-extended.
    fn amo32(&mut self, insn: Instruction, op: fn(u32, u32) -> u32) -> Result<(), Trap> {
        let addr = self.x(insn.rs1());
        if addr % 4 != 0 {
            return Err(Trap::StoreMisaligned { addr });
        }
        let old = self.mem.load_u32(addr).ok_or(Trap::StoreFault { addr })?;
        let new = op(old, self.x(insn.rs2()) as u32);
        self.mem
            .store_u32(addr, new)
            .ok_or(Trap::StoreFault { addr })?;
        self.set_x(insn.rd(), old as i32 as i64 as u64);
        Ok(())
    }

    /// Read-modify-write on a 64-bit memory doubleword.
    fn amo64(&mut self, insn: Instruction, op: fn(u64, u64) -> u64) -> Result<(), Trap> {
        let addr = self.x(insn.rs1());
        if addr % 8 != 0 {
            return Err(Trap::StoreMisaligned { addr });
        }
        let old = self.mem.load_u64(addr).ok_or(Trap::StoreFault { addr })?;
        let new = op(old, self.x(insn.rs2()));
        self.mem
            .store_u64(addr, new)
            .ok_or(Trap::StoreFault { addr })?;
        self.set_x(insn.rd(), old);
        Ok(())
    }

    // ---- floating point ------------------------------------------------

    fn fp_bin_s(
        &mut self,
        insn: Instruction,
        word: u32,
        op: fn(f32, f32, RoundingMode) -> (f32, u64),
    ) -> Result<(), Trap> {
        self.fp_guard(word)?;
        let rm = self.resolve_rm(insn, word)?;
        let (a, b) = (
            self.state.f32(Self::f(insn.rs1())),
            self.state.f32(Self::f(insn.rs2())),
        );
        let (v, flags) = op(a, b, rm);
        self.state.set_f32(Self::f(insn.rd()), v);
        self.accrue(flags);
        Ok(())
    }

    fn fp_bin_d(
        &mut self,
        insn: Instruction,
        word: u32,
        op: fn(f64, f64, RoundingMode) -> (f64, u64),
    ) -> Result<(), Trap> {
        self.fp_guard(word)?;
        let rm = self.resolve_rm(insn, word)?;
        let (a, b) = (
            self.state.f64(Self::f(insn.rs1())),
            self.state.f64(Self::f(insn.rs2())),
        );
        let (v, flags) = op(a, b, rm);
        self.state.set_f64(Self::f(insn.rd()), v);
        self.accrue(flags);
        Ok(())
    }

    fn fp_fma_s(&mut self, insn: Instruction, word: u32, na: bool, nc: bool) -> Result<(), Trap> {
        self.fp_guard(word)?;
        let rm = self.resolve_rm(insn, word)?;
        let a = self.state.f32(Self::f(insn.rs1()));
        let b = self.state.f32(Self::f(insn.rs2()));
        let c = self.state.f32(Self::f(insn.rs3()));
        let (a, c) = (if na { -a } else { a }, if nc { -c } else { c });
        let (v, flags) = sp::fma(a, b, c, rm);
        self.state.set_f32(Self::f(insn.rd()), v);
        self.accrue(flags);
        Ok(())
    }

    fn fp_fma_d(&mut self, insn: Instruction, word: u32, na: bool, nc: bool) -> Result<(), Trap> {
        self.fp_guard(word)?;
        let rm = self.resolve_rm(insn, word)?;
        let a = self.state.f64(Self::f(insn.rs1()));
        let b = self.state.f64(Self::f(insn.rs2()));
        let c = self.state.f64(Self::f(insn.rs3()));
        let (a, c) = (if na { -a } else { a }, if nc { -c } else { c });
        let (v, flags) = dp::fma(a, b, c, rm);
        self.state.set_f64(Self::f(insn.rd()), v);
        self.accrue(flags);
        Ok(())
    }

    fn fp_cmp_s(
        &mut self,
        insn: Instruction,
        word: u32,
        op: fn(f32, f32) -> (bool, u64),
    ) -> Result<(), Trap> {
        self.fp_guard(word)?;
        let (a, b) = (
            self.state.f32(Self::f(insn.rs1())),
            self.state.f32(Self::f(insn.rs2())),
        );
        let (v, flags) = op(a, b);
        self.set_x(insn.rd(), u64::from(v));
        self.accrue(flags);
        Ok(())
    }

    fn fp_cmp_d(
        &mut self,
        insn: Instruction,
        word: u32,
        op: fn(f64, f64) -> (bool, u64),
    ) -> Result<(), Trap> {
        self.fp_guard(word)?;
        let (a, b) = (
            self.state.f64(Self::f(insn.rs1())),
            self.state.f64(Self::f(insn.rs2())),
        );
        let (v, flags) = op(a, b);
        self.set_x(insn.rd(), u64::from(v));
        self.accrue(flags);
        Ok(())
    }

    /// Sign injection on the single-precision value: `mode` 0 copies the
    /// sign of `b`, 1 the negated sign, 2 the xor of both signs.
    fn fsgnj_s(&mut self, insn: Instruction, word: u32, mode: u8) -> Result<(), Trap> {
        self.fp_guard(word)?;
        let a = self.state.f32(Self::f(insn.rs1())).to_bits();
        let b = self.state.f32(Self::f(insn.rs2())).to_bits();
        let sign = 1u32 << 31;
        let s = match mode {
            0 => b & sign,
            1 => !b & sign,
            _ => (a ^ b) & sign,
        };
        self.state
            .set_f32(Self::f(insn.rd()), f32::from_bits((a & !sign) | s));
        Ok(())
    }

    /// Sign injection on the double-precision value.
    fn fsgnj_d(&mut self, insn: Instruction, word: u32, mode: u8) -> Result<(), Trap> {
        self.fp_guard(word)?;
        let a = self.state.f_bits(Self::f(insn.rs1()));
        let b = self.state.f_bits(Self::f(insn.rs2()));
        let sign = 1u64 << 63;
        let s = match mode {
            0 => b & sign,
            1 => !b & sign,
            _ => (a ^ b) & sign,
        };
        self.state.set_f_bits(Self::f(insn.rd()), (a & !sign) | s);
        Ok(())
    }

    fn fp_load(&mut self, insn: Instruction, word: u32, bytes: u64) -> Result<(), Trap> {
        self.fp_guard(word)?;
        let addr = self.x(insn.rs1()).wrapping_add(insn.imm() as u64);
        if addr % bytes != 0 {
            return Err(Trap::LoadMisaligned { addr });
        }
        let fault = Trap::LoadFault { addr };
        if bytes == 4 {
            let bits = self.mem.load_u32(addr).ok_or(fault)?;
            self.state.set_f32(Self::f(insn.rd()), f32::from_bits(bits));
        } else {
            let bits = self.mem.load_u64(addr).ok_or(fault)?;
            self.state.set_f_bits(Self::f(insn.rd()), bits);
        }
        Ok(())
    }

    fn fp_store(&mut self, insn: Instruction, word: u32, bytes: u64) -> Result<(), Trap> {
        self.fp_guard(word)?;
        let addr = self.x(insn.rs1()).wrapping_add(insn.imm() as u64);
        if addr % bytes != 0 {
            return Err(Trap::StoreMisaligned { addr });
        }
        let fault = Trap::StoreFault { addr };
        // Stores move the raw low bits, independent of NaN boxing.
        let bits = self.state.f_bits(Self::f(insn.rs2()));
        if bytes == 4 {
            self.mem.store_u32(addr, bits as u32).ok_or(fault)
        } else {
            self.mem.store_u64(addr, bits).ok_or(fault)
        }
    }

    /// `fcvt` to an integer register: convert, then sign-extend the
    /// 32-bit results as RV64 requires.
    fn fcvt_to_int_s(
        &mut self,
        insn: Instruction,
        word: u32,
        cvt: fn(f32, RoundingMode) -> (u64, u64),
    ) -> Result<(), Trap> {
        self.fp_guard(word)?;
        let rm = self.resolve_rm(insn, word)?;
        let (v, flags) = cvt(self.state.f32(Self::f(insn.rs1())), rm);
        self.set_x(insn.rd(), v);
        self.accrue(flags);
        Ok(())
    }

    fn fcvt_to_int_d(
        &mut self,
        insn: Instruction,
        word: u32,
        cvt: fn(f64, RoundingMode) -> (u64, u64),
    ) -> Result<(), Trap> {
        self.fp_guard(word)?;
        let rm = self.resolve_rm(insn, word)?;
        let (v, flags) = cvt(self.state.f64(Self::f(insn.rs1())), rm);
        self.set_x(insn.rd(), v);
        self.accrue(flags);
        Ok(())
    }

    fn fcvt_from_int_s(&mut self, insn: Instruction, word: u32, v: i128) -> Result<(), Trap> {
        self.fp_guard(word)?;
        let rm = self.resolve_rm(insn, word)?;
        let (r, flags) = sp::from_int(v, rm);
        self.state.set_f32(Self::f(insn.rd()), r);
        self.accrue(flags);
        Ok(())
    }

    fn fcvt_from_int_d(&mut self, insn: Instruction, word: u32, v: i128) -> Result<(), Trap> {
        self.fp_guard(word)?;
        let rm = self.resolve_rm(insn, word)?;
        let (r, flags) = dp::from_int(v, rm);
        self.state.set_f64(Self::f(insn.rd()), r);
        self.accrue(flags);
        Ok(())
    }

    // ---- csr -----------------------------------------------------------

    fn csr_op(&mut self, insn: Instruction, word: u32) -> Result<(), Trap> {
        let illegal = Trap::IllegalInstruction { word };
        let addr: CsrAddr = insn.csr_addr().ok_or(illegal)?;
        // fcsr and its views are FP state: accesses trap when FS is off.
        let fp_csr = matches!(addr, csr::FFLAGS | csr::FRM | csr::FCSR);
        if fp_csr {
            self.fp_guard(word)?;
        }
        // Immediate forms carry the 5-bit source in the rs1 slot; register
        // forms read the register. An x0/zero source suppresses the write
        // for the set/clear flavours.
        let (src, src_is_zero) = match insn.opcode() {
            Opcode::Csrrw | Opcode::Csrrs | Opcode::Csrrc => (self.x(insn.rs1()), insn.rs1() == 0),
            _ => (u64::from(insn.rs1()), insn.rs1() == 0),
        };
        let old = self.state.csrs().read(addr).ok_or(illegal)?;
        let write = match insn.opcode() {
            Opcode::Csrrw | Opcode::Csrrwi => Some(src),
            Opcode::Csrrs | Opcode::Csrrsi => (!src_is_zero).then_some(old | src),
            _ => (!src_is_zero).then_some(old & !src),
        };
        if let Some(value) = write {
            self.state.csrs_mut().write(addr, value).ok_or(illegal)?;
            if fp_csr {
                self.state.csrs_mut().set_fp_dirty();
            }
        }
        self.set_x(insn.rd(), old);
        Ok(())
    }

    // ---- the interpreter -----------------------------------------------

    /// Execute one decoded instruction by dispatching through the same
    /// handler table the block engine uses, so the per-step path and the
    /// batched path share one implementation of every opcode.
    fn exec(&mut self, insn: Instruction, pc: u64, word: u32) -> Result<(), Trap> {
        let op = MicroOp {
            insn,
            pc,
            word,
            handler: handler_for(insn.opcode()),
            stores: false, // unused on the per-step path
        };
        (op.handler)(self, &op)
    }
}

/// The handler for one opcode. The match is exhaustive over every
/// [`Opcode`] — no catch-all — so adding an opcode to the substrate
/// without teaching the reference model about it fails to compile. Every
/// handler ends by setting pc (straight-line ops via [`Hart::advance`],
/// control flow explicitly); on a trap (`Err`) pc is untouched and the
/// caller vectors it.
#[allow(clippy::too_many_lines)]
fn handler_for(opcode: Opcode) -> Handler {
    use Opcode as Op;
    match opcode {
        // ---- RV64I: upper immediates and jumps ---------------------
        Op::Lui => |h, m| {
            h.set_x(m.insn.rd(), (m.insn.imm() << 12) as u64);
            h.advance(m)
        },
        Op::Auipc => |h, m| {
            h.set_x(m.insn.rd(), m.pc.wrapping_add((m.insn.imm() << 12) as u64));
            h.advance(m)
        },
        Op::Jal => |h, m| {
            h.set_x(m.insn.rd(), m.pc.wrapping_add(4));
            h.state.set_pc(m.pc.wrapping_add(m.insn.imm() as u64));
            Ok(())
        },
        Op::Jalr => |h, m| {
            let target = h.x(m.insn.rs1()).wrapping_add(m.insn.imm() as u64) & !1;
            if target % 4 != 0 {
                return Err(Trap::InstructionMisaligned { addr: target });
            }
            h.set_x(m.insn.rd(), m.pc.wrapping_add(4));
            h.state.set_pc(target);
            Ok(())
        },
        // ---- RV64I: branches ---------------------------------------
        Op::Beq => |h, m| h.branch_to(m, |a, b| a == b),
        Op::Bne => |h, m| h.branch_to(m, |a, b| a != b),
        Op::Blt => |h, m| h.branch_to(m, |a, b| (a as i64) < (b as i64)),
        Op::Bge => |h, m| h.branch_to(m, |a, b| (a as i64) >= (b as i64)),
        Op::Bltu => |h, m| h.branch_to(m, |a, b| a < b),
        Op::Bgeu => |h, m| h.branch_to(m, |a, b| a >= b),
        // ---- RV64I: loads and stores -------------------------------
        Op::Lb => |h, m| {
            h.int_load(m.insn, 1, true)?;
            h.advance(m)
        },
        Op::Lh => |h, m| {
            h.int_load(m.insn, 2, true)?;
            h.advance(m)
        },
        Op::Lw => |h, m| {
            h.int_load(m.insn, 4, true)?;
            h.advance(m)
        },
        Op::Ld => |h, m| {
            h.int_load(m.insn, 8, true)?;
            h.advance(m)
        },
        Op::Lbu => |h, m| {
            h.int_load(m.insn, 1, false)?;
            h.advance(m)
        },
        Op::Lhu => |h, m| {
            h.int_load(m.insn, 2, false)?;
            h.advance(m)
        },
        Op::Lwu => |h, m| {
            h.int_load(m.insn, 4, false)?;
            h.advance(m)
        },
        Op::Sb => |h, m| {
            h.int_store(m.insn, 1)?;
            h.advance(m)
        },
        Op::Sh => |h, m| {
            h.int_store(m.insn, 2)?;
            h.advance(m)
        },
        Op::Sw => |h, m| {
            h.int_store(m.insn, 4)?;
            h.advance(m)
        },
        Op::Sd => |h, m| {
            h.int_store(m.insn, 8)?;
            h.advance(m)
        },
        // ---- RV64I: register-immediate -----------------------------
        Op::Addi => |h, m| {
            let v = h.x(m.insn.rs1()).wrapping_add(m.insn.imm() as u64);
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::Slti => |h, m| {
            let v = (h.x(m.insn.rs1()) as i64) < m.insn.imm();
            h.set_x(m.insn.rd(), u64::from(v));
            h.advance(m)
        },
        Op::Sltiu => |h, m| {
            let v = h.x(m.insn.rs1()) < m.insn.imm() as u64;
            h.set_x(m.insn.rd(), u64::from(v));
            h.advance(m)
        },
        Op::Xori => |h, m| {
            let v = h.x(m.insn.rs1()) ^ m.insn.imm() as u64;
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::Ori => |h, m| {
            let v = h.x(m.insn.rs1()) | m.insn.imm() as u64;
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::Andi => |h, m| {
            let v = h.x(m.insn.rs1()) & m.insn.imm() as u64;
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::Slli => |h, m| {
            let v = h.x(m.insn.rs1()) << m.insn.imm();
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::Srli => |h, m| {
            let v = h.x(m.insn.rs1()) >> m.insn.imm();
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::Srai => |h, m| {
            let v = (h.x(m.insn.rs1()) as i64) >> m.insn.imm();
            h.set_x(m.insn.rd(), v as u64);
            h.advance(m)
        },
        Op::Addiw => |h, m| {
            let v = h.x(m.insn.rs1()).wrapping_add(m.insn.imm() as u64) as i32;
            h.set_x(m.insn.rd(), v as i64 as u64);
            h.advance(m)
        },
        Op::Slliw => |h, m| {
            let v = ((h.x(m.insn.rs1()) as u32) << m.insn.imm()) as i32;
            h.set_x(m.insn.rd(), v as i64 as u64);
            h.advance(m)
        },
        Op::Srliw => |h, m| {
            let v = ((h.x(m.insn.rs1()) as u32) >> m.insn.imm()) as i32;
            h.set_x(m.insn.rd(), v as i64 as u64);
            h.advance(m)
        },
        Op::Sraiw => |h, m| {
            let v = (h.x(m.insn.rs1()) as i32) >> m.insn.imm();
            h.set_x(m.insn.rd(), v as i64 as u64);
            h.advance(m)
        },
        // ---- RV64I: register-register ------------------------------
        Op::Add => |h, m| {
            let v = h.x(m.insn.rs1()).wrapping_add(h.x(m.insn.rs2()));
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::Sub => |h, m| {
            let v = h.x(m.insn.rs1()).wrapping_sub(h.x(m.insn.rs2()));
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::Sll => |h, m| {
            let v = h.x(m.insn.rs1()) << (h.x(m.insn.rs2()) & 63);
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::Slt => |h, m| {
            let v = (h.x(m.insn.rs1()) as i64) < (h.x(m.insn.rs2()) as i64);
            h.set_x(m.insn.rd(), u64::from(v));
            h.advance(m)
        },
        Op::Sltu => |h, m| {
            let v = h.x(m.insn.rs1()) < h.x(m.insn.rs2());
            h.set_x(m.insn.rd(), u64::from(v));
            h.advance(m)
        },
        Op::Xor => |h, m| {
            let v = h.x(m.insn.rs1()) ^ h.x(m.insn.rs2());
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::Srl => |h, m| {
            let v = h.x(m.insn.rs1()) >> (h.x(m.insn.rs2()) & 63);
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::Sra => |h, m| {
            let v = (h.x(m.insn.rs1()) as i64) >> (h.x(m.insn.rs2()) & 63);
            h.set_x(m.insn.rd(), v as u64);
            h.advance(m)
        },
        Op::Or => |h, m| {
            let v = h.x(m.insn.rs1()) | h.x(m.insn.rs2());
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::And => |h, m| {
            let v = h.x(m.insn.rs1()) & h.x(m.insn.rs2());
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::Addw => |h, m| {
            let v = h.x(m.insn.rs1()).wrapping_add(h.x(m.insn.rs2())) as i32;
            h.set_x(m.insn.rd(), v as i64 as u64);
            h.advance(m)
        },
        Op::Subw => |h, m| {
            let v = h.x(m.insn.rs1()).wrapping_sub(h.x(m.insn.rs2())) as i32;
            h.set_x(m.insn.rd(), v as i64 as u64);
            h.advance(m)
        },
        Op::Sllw => |h, m| {
            let v = ((h.x(m.insn.rs1()) as u32) << (h.x(m.insn.rs2()) & 31)) as i32;
            h.set_x(m.insn.rd(), v as i64 as u64);
            h.advance(m)
        },
        Op::Srlw => |h, m| {
            let v = ((h.x(m.insn.rs1()) as u32) >> (h.x(m.insn.rs2()) & 31)) as i32;
            h.set_x(m.insn.rd(), v as i64 as u64);
            h.advance(m)
        },
        Op::Sraw => |h, m| {
            let v = (h.x(m.insn.rs1()) as i32) >> (h.x(m.insn.rs2()) & 31);
            h.set_x(m.insn.rd(), v as i64 as u64);
            h.advance(m)
        },
        // ---- RV64I: fence and system -------------------------------
        // A single in-order hart: fences are architectural no-ops.
        Op::Fence => |h, m| h.advance(m),
        Op::Ecall => |_, _| Err(Trap::EnvironmentCall),
        Op::Ebreak => |_, m| Err(Trap::Breakpoint { addr: m.pc }),
        // ---- RV64M -------------------------------------------------
        Op::Mul => |h, m| {
            let v = h.x(m.insn.rs1()).wrapping_mul(h.x(m.insn.rs2()));
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::Mulh => |h, m| {
            let a = i128::from(h.x(m.insn.rs1()) as i64);
            let b = i128::from(h.x(m.insn.rs2()) as i64);
            h.set_x(m.insn.rd(), ((a * b) >> 64) as u64);
            h.advance(m)
        },
        Op::Mulhsu => |h, m| {
            let a = i128::from(h.x(m.insn.rs1()) as i64);
            let b = i128::from(h.x(m.insn.rs2()));
            h.set_x(m.insn.rd(), ((a * b) >> 64) as u64);
            h.advance(m)
        },
        Op::Mulhu => |h, m| {
            let a = u128::from(h.x(m.insn.rs1()));
            let b = u128::from(h.x(m.insn.rs2()));
            h.set_x(m.insn.rd(), ((a * b) >> 64) as u64);
            h.advance(m)
        },
        Op::Div => |h, m| {
            let (a, b) = (h.x(m.insn.rs1()) as i64, h.x(m.insn.rs2()) as i64);
            let v = if b == 0 { -1 } else { a.wrapping_div(b) };
            h.set_x(m.insn.rd(), v as u64);
            h.advance(m)
        },
        Op::Divu => |h, m| {
            let (a, b) = (h.x(m.insn.rs1()), h.x(m.insn.rs2()));
            h.set_x(m.insn.rd(), a.checked_div(b).unwrap_or(u64::MAX));
            h.advance(m)
        },
        Op::Rem => |h, m| {
            let (a, b) = (h.x(m.insn.rs1()) as i64, h.x(m.insn.rs2()) as i64);
            let v = if b == 0 { a } else { a.wrapping_rem(b) };
            h.set_x(m.insn.rd(), v as u64);
            h.advance(m)
        },
        Op::Remu => |h, m| {
            let (a, b) = (h.x(m.insn.rs1()), h.x(m.insn.rs2()));
            let v = if b == 0 { a } else { a % b };
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::Mulw => |h, m| {
            let v = (h.x(m.insn.rs1()) as i32).wrapping_mul(h.x(m.insn.rs2()) as i32);
            h.set_x(m.insn.rd(), v as i64 as u64);
            h.advance(m)
        },
        Op::Divw => |h, m| {
            let (a, b) = (h.x(m.insn.rs1()) as i32, h.x(m.insn.rs2()) as i32);
            let v = if b == 0 { -1 } else { a.wrapping_div(b) };
            h.set_x(m.insn.rd(), v as i64 as u64);
            h.advance(m)
        },
        Op::Divuw => |h, m| {
            let (a, b) = (h.x(m.insn.rs1()) as u32, h.x(m.insn.rs2()) as u32);
            let v = a.checked_div(b).unwrap_or(u32::MAX);
            h.set_x(m.insn.rd(), v as i32 as i64 as u64);
            h.advance(m)
        },
        Op::Remw => |h, m| {
            let (a, b) = (h.x(m.insn.rs1()) as i32, h.x(m.insn.rs2()) as i32);
            let v = if b == 0 { a } else { a.wrapping_rem(b) };
            h.set_x(m.insn.rd(), v as i64 as u64);
            h.advance(m)
        },
        Op::Remuw => |h, m| {
            let (a, b) = (h.x(m.insn.rs1()) as u32, h.x(m.insn.rs2()) as u32);
            let v = if b == 0 { a } else { a % b };
            h.set_x(m.insn.rd(), v as i32 as i64 as u64);
            h.advance(m)
        },
        // ---- RV64A -------------------------------------------------
        Op::LrW => |h, m| {
            h.load_reserved(m.insn, 4)?;
            h.advance(m)
        },
        Op::LrD => |h, m| {
            h.load_reserved(m.insn, 8)?;
            h.advance(m)
        },
        Op::ScW => |h, m| {
            h.store_conditional(m.insn, 4)?;
            h.advance(m)
        },
        Op::ScD => |h, m| {
            h.store_conditional(m.insn, 8)?;
            h.advance(m)
        },
        Op::AmoswapW => |h, m| {
            h.amo32(m.insn, |_, s| s)?;
            h.advance(m)
        },
        Op::AmoaddW => |h, m| {
            h.amo32(m.insn, u32::wrapping_add)?;
            h.advance(m)
        },
        Op::AmoxorW => |h, m| {
            h.amo32(m.insn, |o, s| o ^ s)?;
            h.advance(m)
        },
        Op::AmoandW => |h, m| {
            h.amo32(m.insn, |o, s| o & s)?;
            h.advance(m)
        },
        Op::AmoorW => |h, m| {
            h.amo32(m.insn, |o, s| o | s)?;
            h.advance(m)
        },
        Op::AmominW => |h, m| {
            h.amo32(m.insn, |o, s| (o as i32).min(s as i32) as u32)?;
            h.advance(m)
        },
        Op::AmomaxW => |h, m| {
            h.amo32(m.insn, |o, s| (o as i32).max(s as i32) as u32)?;
            h.advance(m)
        },
        Op::AmominuW => |h, m| {
            h.amo32(m.insn, u32::min)?;
            h.advance(m)
        },
        Op::AmomaxuW => |h, m| {
            h.amo32(m.insn, u32::max)?;
            h.advance(m)
        },
        Op::AmoswapD => |h, m| {
            h.amo64(m.insn, |_, s| s)?;
            h.advance(m)
        },
        Op::AmoaddD => |h, m| {
            h.amo64(m.insn, u64::wrapping_add)?;
            h.advance(m)
        },
        Op::AmoxorD => |h, m| {
            h.amo64(m.insn, |o, s| o ^ s)?;
            h.advance(m)
        },
        Op::AmoandD => |h, m| {
            h.amo64(m.insn, |o, s| o & s)?;
            h.advance(m)
        },
        Op::AmoorD => |h, m| {
            h.amo64(m.insn, |o, s| o | s)?;
            h.advance(m)
        },
        Op::AmominD => |h, m| {
            h.amo64(m.insn, |o, s| (o as i64).min(s as i64) as u64)?;
            h.advance(m)
        },
        Op::AmomaxD => |h, m| {
            h.amo64(m.insn, |o, s| (o as i64).max(s as i64) as u64)?;
            h.advance(m)
        },
        Op::AmominuD => |h, m| {
            h.amo64(m.insn, u64::min)?;
            h.advance(m)
        },
        Op::AmomaxuD => |h, m| {
            h.amo64(m.insn, u64::max)?;
            h.advance(m)
        },
        // ---- RV64F -------------------------------------------------
        Op::Flw => |h, m| {
            h.fp_load(m.insn, m.word, 4)?;
            h.advance(m)
        },
        Op::Fsw => |h, m| {
            h.fp_store(m.insn, m.word, 4)?;
            h.advance(m)
        },
        Op::FmaddS => |h, m| {
            h.fp_fma_s(m.insn, m.word, false, false)?;
            h.advance(m)
        },
        Op::FmsubS => |h, m| {
            h.fp_fma_s(m.insn, m.word, false, true)?;
            h.advance(m)
        },
        Op::FnmsubS => |h, m| {
            h.fp_fma_s(m.insn, m.word, true, false)?;
            h.advance(m)
        },
        Op::FnmaddS => |h, m| {
            h.fp_fma_s(m.insn, m.word, true, true)?;
            h.advance(m)
        },
        Op::FaddS => |h, m| {
            h.fp_bin_s(m.insn, m.word, sp::add)?;
            h.advance(m)
        },
        Op::FsubS => |h, m| {
            h.fp_bin_s(m.insn, m.word, sp::sub)?;
            h.advance(m)
        },
        Op::FmulS => |h, m| {
            h.fp_bin_s(m.insn, m.word, sp::mul)?;
            h.advance(m)
        },
        Op::FdivS => |h, m| {
            h.fp_bin_s(m.insn, m.word, sp::div)?;
            h.advance(m)
        },
        Op::FsqrtS => |h, m| {
            h.fp_guard(m.word)?;
            let rm = h.resolve_rm(m.insn, m.word)?;
            let (v, flags) = sp::sqrt(h.state.f32(Hart::f(m.insn.rs1())), rm);
            h.state.set_f32(Hart::f(m.insn.rd()), v);
            h.accrue(flags);
            h.advance(m)
        },
        Op::FsgnjS => |h, m| {
            h.fsgnj_s(m.insn, m.word, 0)?;
            h.advance(m)
        },
        Op::FsgnjnS => |h, m| {
            h.fsgnj_s(m.insn, m.word, 1)?;
            h.advance(m)
        },
        Op::FsgnjxS => |h, m| {
            h.fsgnj_s(m.insn, m.word, 2)?;
            h.advance(m)
        },
        Op::FminS => |h, m| {
            h.fp_bin_s(m.insn, m.word, |a, b, _| sp::min(a, b))?;
            h.advance(m)
        },
        Op::FmaxS => |h, m| {
            h.fp_bin_s(m.insn, m.word, |a, b, _| sp::max(a, b))?;
            h.advance(m)
        },
        Op::FeqS => |h, m| {
            h.fp_cmp_s(m.insn, m.word, sp::feq)?;
            h.advance(m)
        },
        Op::FltS => |h, m| {
            h.fp_cmp_s(m.insn, m.word, sp::flt)?;
            h.advance(m)
        },
        Op::FleS => |h, m| {
            h.fp_cmp_s(m.insn, m.word, sp::fle)?;
            h.advance(m)
        },
        Op::FclassS => |h, m| {
            h.fp_guard(m.word)?;
            let v = sp::fclass(h.state.f32(Hart::f(m.insn.rs1())));
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::FcvtWS => |h, m| {
            h.fcvt_to_int_s(m.insn, m.word, |v, rm| {
                let (r, f) = fpu::f32_to_i32(v, rm);
                (r as i64 as u64, f)
            })?;
            h.advance(m)
        },
        Op::FcvtWuS => |h, m| {
            h.fcvt_to_int_s(m.insn, m.word, |v, rm| {
                let (r, f) = fpu::f32_to_u32(v, rm);
                (r as i32 as i64 as u64, f)
            })?;
            h.advance(m)
        },
        Op::FcvtLS => |h, m| {
            h.fcvt_to_int_s(m.insn, m.word, |v, rm| {
                let (r, f) = fpu::f32_to_i64(v, rm);
                (r as u64, f)
            })?;
            h.advance(m)
        },
        Op::FcvtLuS => |h, m| {
            h.fcvt_to_int_s(m.insn, m.word, fpu::f32_to_u64)?;
            h.advance(m)
        },
        Op::FcvtSW => |h, m| {
            let v = i128::from(h.x(m.insn.rs1()) as i32);
            h.fcvt_from_int_s(m.insn, m.word, v)?;
            h.advance(m)
        },
        Op::FcvtSWu => |h, m| {
            let v = i128::from(h.x(m.insn.rs1()) as u32);
            h.fcvt_from_int_s(m.insn, m.word, v)?;
            h.advance(m)
        },
        Op::FcvtSL => |h, m| {
            let v = i128::from(h.x(m.insn.rs1()) as i64);
            h.fcvt_from_int_s(m.insn, m.word, v)?;
            h.advance(m)
        },
        Op::FcvtSLu => |h, m| {
            let v = i128::from(h.x(m.insn.rs1()));
            h.fcvt_from_int_s(m.insn, m.word, v)?;
            h.advance(m)
        },
        Op::FmvXW => |h, m| {
            h.fp_guard(m.word)?;
            let bits = h.state.f_bits(Hart::f(m.insn.rs1())) as u32;
            h.set_x(m.insn.rd(), bits as i32 as i64 as u64);
            h.advance(m)
        },
        Op::FmvWX => |h, m| {
            h.fp_guard(m.word)?;
            let bits = h.x(m.insn.rs1()) as u32;
            h.state.set_f32(Hart::f(m.insn.rd()), f32::from_bits(bits));
            h.advance(m)
        },
        // ---- RV64D -------------------------------------------------
        Op::Fld => |h, m| {
            h.fp_load(m.insn, m.word, 8)?;
            h.advance(m)
        },
        Op::Fsd => |h, m| {
            h.fp_store(m.insn, m.word, 8)?;
            h.advance(m)
        },
        Op::FmaddD => |h, m| {
            h.fp_fma_d(m.insn, m.word, false, false)?;
            h.advance(m)
        },
        Op::FmsubD => |h, m| {
            h.fp_fma_d(m.insn, m.word, false, true)?;
            h.advance(m)
        },
        Op::FnmsubD => |h, m| {
            h.fp_fma_d(m.insn, m.word, true, false)?;
            h.advance(m)
        },
        Op::FnmaddD => |h, m| {
            h.fp_fma_d(m.insn, m.word, true, true)?;
            h.advance(m)
        },
        Op::FaddD => |h, m| {
            h.fp_bin_d(m.insn, m.word, dp::add)?;
            h.advance(m)
        },
        Op::FsubD => |h, m| {
            h.fp_bin_d(m.insn, m.word, dp::sub)?;
            h.advance(m)
        },
        Op::FmulD => |h, m| {
            h.fp_bin_d(m.insn, m.word, dp::mul)?;
            h.advance(m)
        },
        Op::FdivD => |h, m| {
            h.fp_bin_d(m.insn, m.word, dp::div)?;
            h.advance(m)
        },
        Op::FsqrtD => |h, m| {
            h.fp_guard(m.word)?;
            let rm = h.resolve_rm(m.insn, m.word)?;
            let (v, flags) = dp::sqrt(h.state.f64(Hart::f(m.insn.rs1())), rm);
            h.state.set_f64(Hart::f(m.insn.rd()), v);
            h.accrue(flags);
            h.advance(m)
        },
        Op::FsgnjD => |h, m| {
            h.fsgnj_d(m.insn, m.word, 0)?;
            h.advance(m)
        },
        Op::FsgnjnD => |h, m| {
            h.fsgnj_d(m.insn, m.word, 1)?;
            h.advance(m)
        },
        Op::FsgnjxD => |h, m| {
            h.fsgnj_d(m.insn, m.word, 2)?;
            h.advance(m)
        },
        Op::FminD => |h, m| {
            h.fp_bin_d(m.insn, m.word, |a, b, _| dp::min(a, b))?;
            h.advance(m)
        },
        Op::FmaxD => |h, m| {
            h.fp_bin_d(m.insn, m.word, |a, b, _| dp::max(a, b))?;
            h.advance(m)
        },
        Op::FeqD => |h, m| {
            h.fp_cmp_d(m.insn, m.word, dp::feq)?;
            h.advance(m)
        },
        Op::FltD => |h, m| {
            h.fp_cmp_d(m.insn, m.word, dp::flt)?;
            h.advance(m)
        },
        Op::FleD => |h, m| {
            h.fp_cmp_d(m.insn, m.word, dp::fle)?;
            h.advance(m)
        },
        Op::FclassD => |h, m| {
            h.fp_guard(m.word)?;
            let v = dp::fclass(h.state.f64(Hart::f(m.insn.rs1())));
            h.set_x(m.insn.rd(), v);
            h.advance(m)
        },
        Op::FcvtSD => |h, m| {
            h.fp_guard(m.word)?;
            let rm = h.resolve_rm(m.insn, m.word)?;
            let (v, flags) = fpu::f64_to_f32(h.state.f64(Hart::f(m.insn.rs1())), rm);
            h.state.set_f32(Hart::f(m.insn.rd()), v);
            h.accrue(flags);
            h.advance(m)
        },
        Op::FcvtDS => |h, m| {
            h.fp_guard(m.word)?;
            let (v, flags) = fpu::f32_to_f64(h.state.f32(Hart::f(m.insn.rs1())));
            h.state.set_f64(Hart::f(m.insn.rd()), v);
            h.accrue(flags);
            h.advance(m)
        },
        Op::FcvtWD => |h, m| {
            h.fcvt_to_int_d(m.insn, m.word, |v, rm| {
                let (r, f) = fpu::f64_to_i32(v, rm);
                (r as i64 as u64, f)
            })?;
            h.advance(m)
        },
        Op::FcvtWuD => |h, m| {
            h.fcvt_to_int_d(m.insn, m.word, |v, rm| {
                let (r, f) = fpu::f64_to_u32(v, rm);
                (r as i32 as i64 as u64, f)
            })?;
            h.advance(m)
        },
        Op::FcvtLD => |h, m| {
            h.fcvt_to_int_d(m.insn, m.word, |v, rm| {
                let (r, f) = fpu::f64_to_i64(v, rm);
                (r as u64, f)
            })?;
            h.advance(m)
        },
        Op::FcvtLuD => |h, m| {
            h.fcvt_to_int_d(m.insn, m.word, fpu::f64_to_u64)?;
            h.advance(m)
        },
        Op::FcvtDW => |h, m| {
            let v = i128::from(h.x(m.insn.rs1()) as i32);
            h.fcvt_from_int_d(m.insn, m.word, v)?;
            h.advance(m)
        },
        Op::FcvtDWu => |h, m| {
            let v = i128::from(h.x(m.insn.rs1()) as u32);
            h.fcvt_from_int_d(m.insn, m.word, v)?;
            h.advance(m)
        },
        Op::FcvtDL => |h, m| {
            let v = i128::from(h.x(m.insn.rs1()) as i64);
            h.fcvt_from_int_d(m.insn, m.word, v)?;
            h.advance(m)
        },
        Op::FcvtDLu => |h, m| {
            let v = i128::from(h.x(m.insn.rs1()));
            h.fcvt_from_int_d(m.insn, m.word, v)?;
            h.advance(m)
        },
        Op::FmvXD => |h, m| {
            h.fp_guard(m.word)?;
            let bits = h.state.f_bits(Hart::f(m.insn.rs1()));
            h.set_x(m.insn.rd(), bits);
            h.advance(m)
        },
        Op::FmvDX => |h, m| {
            h.fp_guard(m.word)?;
            let bits = h.x(m.insn.rs1());
            h.state.set_f_bits(Hart::f(m.insn.rd()), bits);
            h.advance(m)
        },
        // ---- Zicsr -------------------------------------------------
        Op::Csrrw | Op::Csrrs | Op::Csrrc | Op::Csrrwi | Op::Csrrsi | Op::Csrrci => |h, m| {
            h.csr_op(m.insn, m.word)?;
            h.advance(m)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_riscv::{BranchOffset, Gpr, Reg};

    fn x(i: u8) -> Gpr {
        Gpr::new(i).unwrap()
    }

    fn hart_with(program: &[Instruction]) -> Hart {
        let mut hart = Hart::new(1 << 20);
        hart.load_program(0, program).unwrap();
        hart
    }

    #[test]
    fn addi_add_sequence_retires() {
        let program = [
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 5).unwrap(),
            Instruction::i_type(Opcode::Addi, x(2), Gpr::ZERO, 7).unwrap(),
            Instruction::r_type(Opcode::Add, x(3), x(1), x(2)),
        ];
        let mut hart = hart_with(&program);
        for _ in 0..3 {
            assert!(matches!(hart.step(), StepOutcome::Retired(_)));
        }
        assert_eq!(hart.state().x(x(3)), 12);
        assert_eq!(hart.state().pc(), 12);
    }

    #[test]
    fn x0_writes_are_discarded() {
        let program = [Instruction::i_type(Opcode::Addi, Gpr::ZERO, Gpr::ZERO, 42).unwrap()];
        let mut hart = hart_with(&program);
        hart.step();
        assert_eq!(hart.state().x(Gpr::ZERO), 0);
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let off = BranchOffset::new(8).unwrap();
        let program = [
            Instruction::b_type(Opcode::Beq, Gpr::ZERO, Gpr::ZERO, off),
            Instruction::nop(),
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 1).unwrap(),
        ];
        let mut hart = hart_with(&program);
        hart.step();
        assert_eq!(hart.state().pc(), 8);
        hart.step();
        assert_eq!(hart.state().x(x(1)), 1);
    }

    #[test]
    fn traps_vector_to_mtvec_and_record_cause() {
        let mut hart = Hart::new(1 << 20);
        hart.state_mut()
            .csrs_mut()
            .write(csr::MTVEC, 0x100)
            .unwrap();
        // pc = 0 holds zeros: an illegal instruction.
        let outcome = hart.step();
        assert!(matches!(
            outcome,
            StepOutcome::Trapped(Trap::IllegalInstruction { word: 0 })
        ));
        assert_eq!(hart.state().pc(), 0x100);
        assert_eq!(hart.state().csrs().read(csr::MEPC), Some(0));
        assert_eq!(hart.state().csrs().read(csr::MCAUSE), Some(2));
    }

    #[test]
    fn fetch_outside_memory_faults() {
        let mut hart = Hart::new(64);
        hart.state_mut().set_pc(128);
        assert!(matches!(
            hart.step(),
            StepOutcome::Trapped(Trap::InstructionFault { addr: 128 })
        ));
    }

    #[test]
    fn misaligned_load_traps_with_address() {
        let program = [Instruction::i_type(Opcode::Lw, x(1), Gpr::ZERO, 2).unwrap()];
        let mut hart = hart_with(&program);
        assert!(matches!(
            hart.step(),
            StepOutcome::Trapped(Trap::LoadMisaligned { addr: 2 })
        ));
    }

    #[test]
    fn ecall_and_ebreak_end_runs() {
        let program = [Instruction::nop(), Instruction::system(Opcode::Ebreak)];
        let mut hart = hart_with(&program);
        assert_eq!(hart.run(10), RunExit::Breakpoint { steps: 2 });
        let program = [Instruction::system(Opcode::Ecall)];
        let mut hart = hart_with(&program);
        assert_eq!(hart.run(10), RunExit::EnvironmentCall { steps: 1 });
        let mut hart = hart_with(&[Instruction::nop()]);
        assert_eq!(hart.run(1), RunExit::OutOfGas);
    }

    #[test]
    fn lr_sc_pair_succeeds_and_stale_sc_fails() {
        let program = [
            Instruction::amo(Opcode::LrW, x(1), x(5), Gpr::ZERO, false, false).unwrap(),
            Instruction::amo(Opcode::ScW, x(2), x(5), x(6), false, false).unwrap(),
            Instruction::amo(Opcode::ScW, x(3), x(5), x(6), false, false).unwrap(),
        ];
        let mut hart = hart_with(&program);
        hart.state_mut().set_x(x(5), 0x200);
        hart.state_mut().set_x(x(6), 77);
        hart.mem_mut().store_u32(0x200, 33).unwrap();
        hart.step();
        assert_eq!(hart.state().x(x(1)), 33);
        hart.step();
        assert_eq!(hart.state().x(x(2)), 0, "sc with reservation succeeds");
        assert_eq!(hart.mem().load_u32(0x200), Some(77));
        hart.step();
        assert_eq!(hart.state().x(x(3)), 1, "second sc fails");
        assert_eq!(hart.mem().load_u32(0x200), Some(77));
    }

    #[test]
    fn amo_returns_old_value_sign_extended() {
        let program = [Instruction::amo(Opcode::AmoaddW, x(1), x(5), x(6), false, false).unwrap()];
        let mut hart = hart_with(&program);
        hart.state_mut().set_x(x(5), 0x300);
        hart.state_mut().set_x(x(6), 1);
        hart.mem_mut().store_u32(0x300, 0xFFFF_FFFF).unwrap();
        hart.step();
        assert_eq!(hart.state().x(x(1)), u64::MAX, "old -1 sign-extends");
        assert_eq!(hart.mem().load_u32(0x300), Some(0));
    }

    #[test]
    fn dynamic_reserved_frm_is_illegal() {
        use tf_riscv::{Fpr, RoundingMode};
        let f1 = Fpr::new(1).unwrap();
        let program =
            [Instruction::fp_r_type(Opcode::FaddS, f1, f1, f1, Some(RoundingMode::Dyn)).unwrap()];
        let mut hart = hart_with(&program);
        // frm = 0b101 is reserved: executing a Dyn-rm instruction traps.
        hart.state_mut().csrs_mut().write(csr::FRM, 0b101).unwrap();
        assert!(matches!(
            hart.step(),
            StepOutcome::Trapped(Trap::IllegalInstruction { .. })
        ));
    }

    #[test]
    fn fp_off_makes_fp_illegal() {
        use tf_riscv::{Fpr, RoundingMode};
        let f1 = Fpr::new(1).unwrap();
        let program =
            [Instruction::fp_r_type(Opcode::FaddD, f1, f1, f1, Some(RoundingMode::Rne)).unwrap()];
        let mut hart = hart_with(&program);
        hart.state_mut().csrs_mut().write(csr::MSTATUS, 0).unwrap();
        assert!(matches!(
            hart.step(),
            StepOutcome::Trapped(Trap::IllegalInstruction { .. })
        ));
    }

    #[test]
    fn csr_set_clear_and_readonly() {
        let program = [
            Instruction::csr_imm(Opcode::Csrrsi, x(1), csr::FFLAGS, 0b101).unwrap(),
            Instruction::csr_imm(Opcode::Csrrci, x(2), csr::FFLAGS, 0b001).unwrap(),
            Instruction::csr_reg(Opcode::Csrrs, x(3), csr::FFLAGS, Gpr::ZERO).unwrap(),
            Instruction::csr_reg(Opcode::Csrrw, x(4), csr::MHARTID, x(5)).unwrap(),
        ];
        let mut hart = hart_with(&program);
        hart.step();
        assert_eq!(hart.state().x(x(1)), 0);
        hart.step();
        assert_eq!(hart.state().x(x(2)), 0b101);
        hart.step();
        assert_eq!(hart.state().x(x(3)), 0b100);
        // Writing the read-only mhartid traps.
        assert!(matches!(
            hart.step(),
            StepOutcome::Trapped(Trap::IllegalInstruction { .. })
        ));
        // But csrrs rd-only (rs1=x0) on a read-only CSR is a pure read.
        let program = [Instruction::csr_reg(Opcode::Csrrs, x(1), csr::MHARTID, Gpr::ZERO).unwrap()];
        let mut hart = hart_with(&program);
        assert!(matches!(hart.step(), StepOutcome::Retired(_)));
        assert_eq!(hart.state().x(x(1)), 0);
    }

    #[test]
    fn tracing_records_defs_and_digest() {
        let program = [
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 9).unwrap(),
            Instruction::s_type(Opcode::Sd, Gpr::ZERO, x(1), 0x80).unwrap(),
        ];
        let mut hart = hart_with(&program);
        hart.enable_tracing();
        hart.step();
        hart.step();
        let trace = hart.take_trace().unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.entries()[0].def, Some((Reg::X(x(1)), 9)));
        assert_eq!(trace.entries()[1].def, None, "stores define no register");
        assert_ne!(trace.digest(), ExecutionTrace::new().digest());
    }

    #[test]
    fn digest_reflects_memory_and_registers() {
        let a = Hart::new(1 << 20);
        let mut b = Hart::new(1 << 20);
        assert_eq!(a.digest(), b.digest());
        b.mem_mut().store_u8(0, 1).unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn run_exit_displays_readably() {
        assert_eq!(
            RunExit::Breakpoint { steps: 7 }.to_string(),
            "breakpoint after 7 steps"
        );
        assert_eq!(
            RunExit::EnvironmentCall { steps: 1 }.to_string(),
            "environment call after 1 steps"
        );
        assert_eq!(RunExit::OutOfGas.to_string(), "out of gas");
    }

    #[test]
    fn minstret_counts_only_retired() {
        let program = [Instruction::nop(), Instruction::system(Opcode::Ecall)];
        let mut hart = hart_with(&program);
        hart.run(10);
        assert_eq!(hart.state().csrs().read(csr::MINSTRET), Some(1));
        assert_eq!(hart.state().csrs().read(csr::MCYCLE), Some(2));
    }
}
