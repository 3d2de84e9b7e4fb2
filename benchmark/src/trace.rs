//! Benchmark-side spans, kept in memory during a traced repetition and written
//! as one JSON file when the run ends.
//!
//! Spans are recorded around the calls into the system under test, from the
//! benchmark's own files; spans inside the engine are a later change. The
//! children of a `txn` span partition it, so a stage's self time is its own
//! span's duration.

use serde_json::Value;
use std::io::Write;
use std::path::Path;

/// One span. `parent == 0` marks a root; `reference` is the block index or
/// submit id the span belongs to, shared by all spans of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique, non-zero id.
    pub id: u64,
    /// Id of the causing span, or 0.
    pub parent: u64,
    /// Layer-boundary name (`setup.genesis`, `block`, `txn.queue`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Block index or submit id.
    pub reference: u64,
}

/// Spans kept in the trace file; what a traced run records beyond this is
/// counted in the file's `dropped` field.
pub const MAX_SPANS: usize = 60_000;

/// The in-memory span store of one run.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    dropped: u64,
    next_id: u64,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a span and returns its id (for use as a parent). Past
    /// [`MAX_SPANS`] the span is counted as dropped; its id is still unique.
    pub fn span(
        &mut self,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        reference: u64,
    ) -> u64 {
        self.next_id += 1;
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                id: self.next_id,
                parent,
                name,
                start_ns,
                end_ns,
                reference,
            });
        } else {
            self.dropped += 1;
        }
        self.next_id
    }

    /// The trace as a JSON value.
    pub fn to_json(&self, workload: &str) -> Value {
        let uint = |v: u64| Value::UInt(v as u128);
        let spans = self
            .spans
            .iter()
            .map(|span| {
                Value::Object(vec![
                    ("id".into(), uint(span.id)),
                    ("parent".into(), uint(span.parent)),
                    ("name".into(), Value::String(span.name.into())),
                    ("start_ns".into(), uint(span.start_ns)),
                    ("end_ns".into(), uint(span.end_ns)),
                    ("ref".into(), uint(span.reference)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::String(workload.into())),
            ("dropped".into(), uint(self.dropped)),
            ("spans".into(), Value::Array(spans)),
        ])
    }

    /// Writes the trace to `path`.
    pub fn write(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string(&self.to_json(workload))
            .map_err(|err| std::io::Error::new(std::io::ErrorKind::InvalidData, err.to_string()))?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(json.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_json_lists_every_span_and_counts_dropped_ones() {
        let mut tracer = Tracer::new();
        let root = tracer.span(0, "block", 0, 10, 3);
        tracer.span(root, "warmup", 2, 4, 3);
        let json = serde_json::to_string(&tracer.to_json("demo")).unwrap();
        let parsed = serde_json::parse_value_complete(&json).unwrap();
        assert_eq!(parsed.get("workload"), Some(&Value::String("demo".into())));
        let Some(Value::Array(spans)) = parsed.get("spans") else {
            panic!("spans array missing");
        };
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent"), Some(&Value::UInt(1)));
        assert_eq!(spans[1].get("ref"), Some(&Value::UInt(3)));

        for _ in 0..MAX_SPANS {
            tracer.span(0, "fill", 0, 1, 0);
        }
        assert_eq!(tracer.spans.len(), MAX_SPANS);
        assert_eq!(tracer.to_json("demo").get("dropped"), Some(&Value::UInt(2)));
    }
}
