//! In-memory spans, written out once when the run ends.
//!
//! Every span has an id, its parent's id (0 for the root), a name, the
//! connection it ran on (0 when none) and its start and end in
//! nanoseconds since the log's epoch. Client calls are recorded by the
//! client threads into plain vectors and adopted here after the phase.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Client-call spans a connection records per phase, and spans the log
/// keeps in all; later ones are counted as dropped but not kept, so
/// memory stays bounded on long runs.
pub const CALL_SPAN_CAP: usize = 1 << 18;
const SPAN_CAP: usize = 1 << 19;

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub conn: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covers (draws, reads, appends).
    pub ops: u64,
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: u64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            conn: 0,
            start_ns,
            end_ns: start_ns,
            ops: 0,
        });
        id
    }

    pub fn close(&mut self, id: u64, ops: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.ops = ops;
    }

    /// Adopt one connection's recorded `(start_ns, end_ns, ops)` calls as
    /// children of `parent`; `dropped` calls were not kept.
    pub fn adopt_calls(
        &mut self,
        parent: u64,
        name: &'static str,
        conn: u32,
        calls: &[(u64, u64, u32)],
        dropped: u64,
    ) {
        let keep = calls.len().min(SPAN_CAP.saturating_sub(self.spans.len()));
        self.dropped += dropped + (calls.len() - keep) as u64;
        for &(start_ns, end_ns, ops) in &calls[..keep] {
            let id = self.spans.len() as u64 + 1;
            self.spans.push(Span {
                id,
                parent,
                name,
                conn,
                start_ns,
                end_ns,
                ops: ops as u64,
            });
        }
    }

    /// Write every span as one CSV row after a `#`-prefixed header line.
    pub fn write_csv(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "# {header}")?;
        writeln!(out, "# dropped_call_spans={}", self.dropped)?;
        writeln!(out, "id,parent,name,conn,start_ns,end_ns,ops")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                s.id, s.parent, s.name, s.conn, s.start_ns, s.end_ns, s.ops
            )?;
        }
        out.flush()
    }
}
