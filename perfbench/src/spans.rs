//! The traced run's span recorder. Spans are recorded by the benchmark's
//! own code around its calls into each layer, kept in memory, and written
//! out once the run ends (one tab-separated line per span).

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed interval.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same tracer, or [`ROOT`].
    pub parent: u32,
    /// Request id: session and seq, history index, or transaction index.
    pub req: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// An in-memory span log for one thread.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span ending at the matching [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let start = self.now();
        self.push(name, start, start, parent, req)
    }

    pub fn close(&mut self, idx: u32) {
        let end = self.now();
        self.spans[idx as usize].end = end;
    }

    /// Records a span whose bounds were taken with [`Tracer::now`].
    pub fn push(&mut self, name: &'static str, start: u64, end: u64, parent: u32, req: u64) -> u32 {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(name, parent, req);
        let r = f();
        self.close(idx);
        r
    }

    /// Durations of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Appends every span to `out` as `thread name start end parent req`.
    pub fn write_tsv(&self, thread: usize, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{thread}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.req
            )?;
        }
        Ok(())
    }
}

/// Writes the span logs of a traced run, one file per run.
pub fn write_all(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tname\tstart_ns\tend_ns\tparent\treq")?;
    for (i, t) in tracers.iter().enumerate() {
        t.write_tsv(i, &mut out)?;
    }
    out.flush()
}
