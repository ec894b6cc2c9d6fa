//! In-memory spans for the traced run.
//!
//! Spans are recorded from `vload`'s own code, around its calls into each
//! layer, into a buffer allocated before the phase starts; the buffer is
//! analysed and written out only after the phase ends. A span's *self*
//! time is its duration minus the part its children cover.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Spans kept per traced run. At four spans an operation this is ~65 000
/// operations — plenty for a median, and a trace file of a few megabytes
/// rather than a few hundred.
pub const SPAN_CAPACITY: usize = 1 << 18;

/// Most spans one operation records; the traced loop stops while at least
/// this many slots are free, so no operation is ever half-recorded.
pub const MAX_SPANS_PER_OP: usize = 8;

#[derive(Clone, Copy)]
struct Span {
    parent: Option<u32>,
    request: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct TraceBuf {
    t0: Instant,
    spans: Vec<Span>,
}

impl TraceBuf {
    pub fn new() -> Self {
        TraceBuf {
            t0: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
        }
    }

    /// Nanoseconds since the buffer was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn has_room(&self) -> bool {
        self.spans.len() + MAX_SPANS_PER_OP <= SPAN_CAPACITY
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Records a span and returns its id (its index in the buffer).
    #[inline]
    pub fn push(
        &mut self,
        parent: Option<u32>,
        request: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Per operation (root span), in recording order: its duration, and
    /// the part of it its direct children called `child` cover. The
    /// difference is the root's time outside those children.
    pub fn per_op(&self, child: &str) -> (Vec<u64>, Vec<u64>) {
        let mut slot_of = vec![usize::MAX; self.spans.len()];
        let (mut totals, mut covered) = (Vec::new(), Vec::new());
        for (id, s) in self.spans.iter().enumerate() {
            match s.parent {
                None => {
                    slot_of[id] = totals.len();
                    totals.push(s.end_ns - s.start_ns);
                    covered.push(0);
                }
                Some(p) if s.name == child => {
                    covered[slot_of[p as usize]] += s.end_ns - s.start_ns;
                }
                Some(_) => {}
            }
        }
        (totals, covered)
    }

    /// Writes the buffer as one JSON document: a `columns` legend and one
    /// array per span.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\
             \"columns\":[\"id\",\"parent\",\"request\",\"name\",\"start_ns\",\"end_ns\"],\
             \"spans\":["
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "[{id},{parent},{},\"{}\",{},{}]{sep}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_sums_named_children_under_their_root() {
        let mut t = TraceBuf::new();
        for r in 0..3u32 {
            let root = t.push(None, r, "op", 0, 100 + u64::from(r));
            t.push(Some(root), r, "build", 0, 10);
            t.push(Some(root), r, "txn", 10, 40);
            t.push(Some(root), r, "txn", 50, 90);
        }
        let (totals, txn) = t.per_op("txn");
        assert_eq!(totals, [100, 101, 102]);
        assert_eq!(txn, [70, 70, 70]);
        assert_eq!(t.len(), 12);
    }
}
