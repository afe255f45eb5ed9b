//! A transparent timing wrapper around any [`Dut`].
//!
//! [`Timed`] forwards every trait method to the wrapped device unchanged
//! and records, from the outside, how long each call took. The
//! per-program calls (`reset`, `load`, `run`/`run_into`) are kept one by
//! one as [`Call`]s; the per-step calls a replay makes (`step`,
//! `digest`, `pc`, ...) are only summed, because a divergence replay
//! makes millions of them. The wrapper changes no result: the
//! transparency test in `tests/transparency.rs` pins campaigns through
//! it bit-identical to the bare device.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tf_arch::{BatchOutcome, Dut, DutFailure, ExecutionTrace, RemoteDutStats, StepOutcome, Trap};
use tf_riscv::Instruction;

/// Which per-program [`Dut`] method a [`Call`] timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// [`Dut::reset`].
    Reset,
    /// [`Dut::load`].
    Load,
    /// [`Dut::run`] or [`Dut::run_into`].
    Run,
}

/// One timed per-program call, in nanoseconds since the wrapper's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// The method called.
    pub kind: CallKind,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Steps the call executed (`Run` only).
    pub steps: u64,
}

/// Everything one wrapper recorded.
#[derive(Debug, Clone, Default)]
pub struct CallLog {
    /// The worker the wrapper served (0 outside a driver run).
    pub worker: usize,
    /// Per-program calls, in call order.
    pub calls: Vec<Call>,
    /// Summed time of every other (per-step) call.
    pub fine_ns: u64,
    /// Number of per-step calls summed into `fine_ns`.
    pub fine_calls: u64,
}

impl CallLog {
    /// Total time inside the wrapped device: per-program plus per-step
    /// calls.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.end - c.start).sum::<u64>() + self.fine_ns
    }
}

/// Where wrappers that were moved into a campaign's worker threads hand
/// their logs when the driver drops them.
pub type LogSink = Arc<Mutex<Vec<CallLog>>>;

/// The timing wrapper. See the module docs.
#[derive(Debug)]
pub struct Timed<D> {
    inner: D,
    epoch: Instant,
    log: CallLog,
    // Per-step calls include `&self` methods (`digest`, `pc`), so their
    // counters need interior mutability.
    fine_ns: Cell<u64>,
    fine_calls: Cell<u64>,
    last_end: Arc<AtomicU64>,
    sink: Option<LogSink>,
}

impl<D: Dut> Timed<D> {
    /// Wrap `inner`, timing against `epoch`.
    pub fn new(inner: D, epoch: Instant) -> Self {
        Timed {
            inner,
            epoch,
            log: CallLog::default(),
            fine_ns: Cell::new(0),
            fine_calls: Cell::new(0),
            last_end: Arc::new(AtomicU64::new(0)),
            sink: None,
        }
    }

    /// Hand the log to `sink` when the wrapper is dropped, tagged with
    /// `worker`, and publish the end time of every call to `last_end`.
    #[must_use]
    pub fn reporting(mut self, worker: usize, sink: LogSink, last_end: Arc<AtomicU64>) -> Self {
        self.log.worker = worker;
        self.sink = Some(sink);
        self.last_end = last_end;
        self
    }

    /// Take the calls recorded so far, leaving the counters running.
    pub fn drain_calls(&mut self) -> Vec<Call> {
        std::mem::take(&mut self.log.calls)
    }

    /// Summed per-step call time so far.
    #[must_use]
    pub fn fine_ns(&self) -> u64 {
        self.fine_ns.get()
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn call<T>(&mut self, kind: CallKind, f: impl FnOnce(&mut D) -> T) -> T {
        let start = self.now();
        let out = f(&mut self.inner);
        let end = self.now();
        self.log.calls.push(Call {
            kind,
            start,
            end,
            steps: 0,
        });
        self.last_end.store(end, Ordering::Relaxed);
        out
    }

    fn fine_mut<T>(&mut self, f: impl FnOnce(&mut D) -> T) -> T {
        let start = self.now();
        let out = f(&mut self.inner);
        self.fine_done(start);
        out
    }

    fn fine<T>(&self, f: impl FnOnce(&D) -> T) -> T {
        let start = self.now();
        let out = f(&self.inner);
        self.fine_done(start);
        out
    }

    fn fine_done(&self, start: u64) {
        let end = self.now();
        self.fine_ns.set(self.fine_ns.get() + (end - start));
        self.fine_calls.set(self.fine_calls.get() + 1);
        self.last_end.store(end, Ordering::Relaxed);
    }

    fn set_last_steps(&mut self, steps: u64) {
        if let Some(call) = self.log.calls.last_mut() {
            call.steps = steps;
        }
    }
}

impl<D> Drop for Timed<D> {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            let mut log = std::mem::take(&mut self.log);
            log.fine_ns = self.fine_ns.get();
            log.fine_calls = self.fine_calls.get();
            // A poisoned sink means another worker panicked; the driver
            // re-raises that panic, so losing this log is harmless.
            if let Ok(mut logs) = sink.lock() {
                logs.push(log);
            }
        }
    }
}

impl<D: Dut> Dut for Timed<D> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.call(CallKind::Reset, D::reset);
    }

    fn load(&mut self, base: u64, program: &[Instruction]) -> Result<(), Trap> {
        self.call(CallKind::Load, |d| d.load(base, program))
    }

    fn step(&mut self) -> StepOutcome {
        self.fine_mut(D::step)
    }

    fn digest(&self) -> u64 {
        self.fine(D::digest)
    }

    fn write_history(&self) -> u64 {
        self.fine(D::write_history)
    }

    fn enable_tracing(&mut self) {
        self.fine_mut(D::enable_tracing);
    }

    fn take_trace(&mut self) -> Option<ExecutionTrace> {
        self.fine_mut(D::take_trace)
    }

    fn pc(&self) -> u64 {
        self.fine(D::pc)
    }

    fn take_failure(&mut self) -> Option<DutFailure> {
        self.fine_mut(D::take_failure)
    }

    fn remote_stats(&self) -> Option<RemoteDutStats> {
        self.inner.remote_stats()
    }

    fn run(&mut self, max_steps: u64, digest_every: u64) -> BatchOutcome {
        let out = self.call(CallKind::Run, |d| d.run(max_steps, digest_every));
        self.set_last_steps(out.steps);
        out
    }

    fn run_into(&mut self, max_steps: u64, digest_every: u64, out: &mut BatchOutcome) {
        self.call(CallKind::Run, |d| d.run_into(max_steps, digest_every, out));
        self.set_last_steps(out.steps);
    }
}
