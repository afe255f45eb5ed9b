//! Shared interleaved-rounds sampler for the `step` and `diff` benches.
//!
//! Each workload is a [`Sampler`]: a closure that runs it once and
//! returns its mean cost per unit. [`bench`] takes warm-up rounds, then
//! `samples` rounds that each take one sample of every workload in
//! turn, so a slow host phase hits them alike and the ratios CI gates
//! between workloads of one bench stay stable even when the absolute
//! numbers drift.

/// Warm-up rounds before the timed ones (capped at the sample count).
const WARMUP: usize = 3;

/// A timed workload: each call runs it once and returns its mean cost
/// per unit (ns per step or per decoded word).
pub type Sampler<'a> = Box<dyn FnMut() -> f64 + 'a>;

/// Time every `(name, unit, sampler)` workload in interleaved rounds
/// and print each one's median/min/max. Returns the medians in
/// workload order.
pub fn bench(workloads: &mut [(&str, &str, Sampler<'_>)], samples: usize) -> Vec<f64> {
    let warmup = WARMUP.min(samples);
    let mut timings = vec![Vec::with_capacity(samples); workloads.len()];
    for round in 0..warmup + samples {
        for ((_, _, sample), timing) in workloads.iter_mut().zip(&mut timings) {
            let ns = sample();
            if round >= warmup {
                timing.push(ns);
            }
        }
    }
    workloads
        .iter()
        .zip(&mut timings)
        .map(|((name, unit, _), timing)| {
            timing.sort_by(f64::total_cmp);
            let median = timing[samples / 2];
            println!(
                "{name:<8} {median:8.1} ns/{unit}  (min {:.1}, max {:.1} over {samples} samples)",
                timing[0],
                timing[samples - 1],
            );
            median
        })
        .collect()
}
