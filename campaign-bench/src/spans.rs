//! In-memory spans around calls into each layer, written out when the
//! traced run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval: a call into a layer, in nanoseconds since the
/// trace's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `diff.diff_with`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

impl Span {
    /// Wall duration.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The shared clock every span and wrapper call is measured on.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished span; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(name, parent, now, now)
    }

    /// Close a span opened with [`Trace::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Self time of every span: its duration minus the part of it that
    /// its child spans cover (overlapping children count once).
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start;
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(span.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration() - covered
            })
            .collect()
    }

    /// Write every span as CSV (`id,parent,name,start_ns,end_ns,self_ns`,
    /// parent `-1` for roots) and return per-name totals.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<BTreeMap<&'static str, (u64, u64)>> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns,self_ns")?;
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{id},{parent},{},{},{},{self_ns}",
                span.name, span.start, span.end
            )?;
            let total = totals.entry(span.name).or_default();
            total.0 += span.duration();
            total.1 += self_ns;
        }
        out.flush()?;
        Ok(totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut trace = Trace::new(Instant::now());
        let root = trace.record("root", None, 0, 100);
        trace.record("a", Some(root), 10, 40);
        trace.record("b", Some(root), 30, 50); // overlaps `a` by 10
        trace.record("c", Some(root), 90, 120); // runs past the root
        assert_eq!(trace.self_times(), vec![100 - 40 - 10, 30, 20, 30]);
    }
}
