//! In-memory spans recorded by the benchmark around its own calls into
//! each layer of the engine (nothing inside the program is instrumented).
//!
//! Phase spans (`setup`, `feed`, `drain`) are the parents of the layer
//! spans. A span's self time is its duration minus the time its child
//! spans cover; a phase's self time is the benchmark's own work in it
//! (generating inputs, checking outputs).

use std::time::Instant;

/// Layer span names, in report order.
pub const LAYER_SPANS: [&str; 10] = [
    "lang.execute",
    "dsms.push_batch",
    "dsms.flush_disorder",
    "core.on_tuple",
    "core.on_punctuation",
    "shard.push_batch",
    "shard.flush",
    "shard.take_output",
    "sink.take",
    "state.checkpoint",
];

/// Phase span names.
pub const PHASES: [&str; 3] = ["setup", "feed", "drain"];

fn layer_index(name: &str) -> Option<usize> {
    LAYER_SPANS.iter().position(|l| *l == name)
}

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Times every layer call into per-layer totals; a recording tracer
/// (the traced run) also keeps each call as a span.
pub struct Tracer {
    origin: Instant,
    run_id: u64,
    record: bool,
    totals: [u64; LAYER_SPANS.len()],
    spans: Vec<Span>,
    phase: Option<usize>,
}

impl Tracer {
    /// A tracer that keeps totals only.
    pub fn totals() -> Tracer {
        Tracer {
            origin: Instant::now(),
            run_id: 0,
            record: false,
            totals: [0; LAYER_SPANS.len()],
            spans: Vec::new(),
            phase: None,
        }
    }

    /// A tracer that also records spans, tagged with `run_id`.
    pub fn recording(run_id: u64) -> Tracer {
        Tracer {
            run_id,
            record: true,
            ..Tracer::totals()
        }
    }

    /// Total nanoseconds spent in calls to layer `name`.
    pub fn layer_ns(&self, name: &str) -> u64 {
        layer_index(name).map_or(0, |i| self.totals[i])
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a phase span; layer spans recorded until [`Tracer::end_phase`]
    /// become its children.
    pub fn begin_phase(&mut self, name: &'static str) {
        if !self.record {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.phase = Some(self.spans.len() - 1);
    }

    pub fn end_phase(&mut self) {
        if let Some(p) = self.phase.take() {
            self.spans[p].end_ns = self.now_ns();
        }
    }

    /// Run `f` as a call into layer `name` (one of [`LAYER_SPANS`]).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        let i = layer_index(name).expect("span names come from LAYER_SPANS");
        self.totals[i] += end_ns - start_ns;
        if self.record {
            self.spans.push(Span {
                name,
                parent: self.phase,
                start_ns,
                end_ns,
            });
        }
        r
    }

    /// Self time per span name, in nanoseconds.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .sum()
    }

    /// Total duration of the spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Append every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"run\":{},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}
