//! CPU clocks read from `/proc`.
//!
//! The benchmark's end-to-end times are CPU times, not wall times: on a
//! shared virtual machine the hypervisor steals a varying share of wall
//! time (half of it on some runs), which moves wall-clock throughput of
//! the same campaign by 2x between runs. The scheduler's per-thread run
//! time excludes stolen time.

use std::fs;

/// Run time of one thread's `schedstat` file, in nanoseconds.
fn schedstat_ns(path: &str) -> std::io::Result<u64> {
    let text = fs::read_to_string(path)?;
    text.split_whitespace()
        .next()
        .and_then(|field| field.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("{path}: no run time field")))
}

/// CPU time the calling thread has run, in nanoseconds.
///
/// # Errors
///
/// Fails when `/proc/thread-self/schedstat` is unreadable.
pub fn thread_ns() -> std::io::Result<u64> {
    schedstat_ns("/proc/thread-self/schedstat")
}

/// CPU time (user plus system) this process has used across all its
/// threads, including exited ones, in nanoseconds. The kernel reports it
/// in clock ticks of 10 ms (`USER_HZ` is 100 on Linux).
///
/// # Errors
///
/// Fails when `/proc/self/stat` is unreadable or malformed.
pub fn process_ns() -> std::io::Result<u64> {
    let text = fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name, which may hold spaces;
    // utime and stime are fields 14 and 15 of the whole line.
    let rest = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) * 10_000_000),
        _ => Err(std::io::Error::other(
            "/proc/self/stat: no utime/stime fields",
        )),
    }
}
