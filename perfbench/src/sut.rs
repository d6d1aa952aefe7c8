//! The system under test: one engine (or, for the shard arm, a one-shard
//! sharded engine) set up for a workload, driven only through the crates'
//! public API. Every call into a layer runs inside a [`Tracer`] span.

use eslev_dsms::prelude::*;
use eslev_lang::prelude::*;

use std::sync::Arc;

use crate::gen::CompactFeed;
use crate::trace::Tracer;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    E1Dedup,
    SeqModes,
    E1Disorder,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "e1_dedup" => Workload::E1Dedup,
            "seq_modes" => Workload::SeqModes,
            "e1_disorder" => Workload::E1Disorder,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::E1Dedup => "e1_dedup",
            Workload::SeqModes => "seq_modes",
            Workload::E1Disorder => "e1_disorder",
        }
    }

    /// Rows per push call.
    pub fn batch(self) -> usize {
        match self {
            // The SEQ queries read several streams, which forces the
            // per-tuple watermark path whatever the batch size.
            Workload::SeqModes => 1,
            _ => 64,
        }
    }

    /// Whether the workload's feed is the perturbed E1 feed.
    pub fn perturbed(self) -> bool {
        self == Workload::E1Disorder
    }
}

/// Which part of the workload a run sets up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arm {
    /// The workload's queries.
    Full,
    /// The same streams and feed with no query: admission only.
    AdmitOnly,
    /// Admission only with the disorder tolerance set.
    ReorderOnly,
    /// The workload's query through a `ShardedEngine` with one worker
    /// shard, `take_output` polled during the feed (`e1_dedup`): it
    /// differs from the full arm exactly by route, journal, hop and merge.
    Sharded,
}

const E1_DDL: &str =
    "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);";

/// Example 1's duplicate elimination as a collected query.
const E1_QUERY: &str = "SELECT * FROM readings AS r1
    WHERE NOT EXISTS
      (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
       WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)";

const SEQ_DDL: &str = "
    CREATE STREAM C1 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
    CREATE STREAM C2 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
    CREATE STREAM C3 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
    CREATE STREAM C4 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
    CREATE STREAM R1 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
    CREATE STREAM R2 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);";

/// The `seq_modes` query names, in registration (output slot) order.
pub const SEQ_QUERIES: [&str; 4] = ["recent", "chronicle", "consecutive", "star"];

fn seq_query(mode: &str) -> String {
    format!(
        "SELECT C1.tagid, C4.tagtime FROM C1, C2, C3, C4
         WHERE SEQ(C1, C2, C3, C4) OVER [2 MINUTES PRECEDING C4] MODE {mode}
         AND C1.tagid = C2.tagid AND C1.tagid = C3.tagid AND C1.tagid = C4.tagid"
    )
}

const STAR_QUERY: &str = "SELECT COUNT(R1*), R2.tagid FROM R1, R2
    WHERE SEQ(R1*, R2) MODE CHRONICLE AND R1.tagid = R2.tagid";

/// Reorder slack of `e1_disorder`: the perturbation's delay bound.
pub fn disorder_slack() -> Duration {
    Duration::from_micros(crate::gen::E1_MAX_DELAY_US)
}

/// The workload's queries, in output slot order.
fn queries(w: Workload) -> Vec<String> {
    match w {
        Workload::E1Dedup => vec![E1_QUERY.to_string()],
        Workload::E1Disorder => vec![E1_QUERY.to_string(), format!("{E1_QUERY} CONSISTENCY FAST")],
        Workload::SeqModes => vec![
            seq_query("RECENT"),
            seq_query("CHRONICLE"),
            seq_query("CONSECUTIVE"),
            STAR_QUERY.to_string(),
        ],
    }
}

fn ddl(w: Workload) -> &'static str {
    match w {
        Workload::SeqModes => SEQ_DDL,
        _ => E1_DDL,
    }
}

/// Plan the workload's DDL and queries on `engine`, returning the
/// output collectors in slot order.
fn plan(engine: &mut Engine, w: Workload, arm: Arm, tr: &mut Tracer) -> Result<Vec<Collector>> {
    tr.span("lang.execute", || execute_script(engine, ddl(w)))?;
    if w == Workload::E1Disorder && arm != Arm::AdmitOnly {
        engine.set_disorder_tolerance("readings", disorder_slack())?;
    }
    if arm != Arm::Full {
        return Ok(Vec::new());
    }
    let mut outs = Vec::new();
    for q in queries(w) {
        let outcome = tr.span("lang.execute", || execute(engine, &q))?;
        let c = outcome
            .collector()
            .ok_or_else(|| DsmsError::plan("benchmark query is not collected"))?;
        outs.push(c.clone());
    }
    Ok(outs)
}

/// Rows of one push call, already shaped for the API that takes them.
pub enum Batch {
    /// Rows of the single `readings` stream.
    Readings(Vec<Vec<Value>>),
    /// Rows naming their stream.
    Named(Vec<(String, Vec<Value>)>),
}

/// Output of one collection: `(query slot, tuple)`.
pub type Outputs = Vec<(usize, Tuple)>;

/// Sharded runs poll the merge every this many push calls.
const SHARD_POLL_EVERY: usize = 4;

pub enum Sut {
    Single {
        engine: Box<Engine>,
        outs: Vec<Collector>,
        disorder: bool,
    },
    Sharded {
        se: Box<ShardedEngine>,
        slots: usize,
        pushes: usize,
    },
}

impl Sut {
    /// Build the engine, run the DDL and plan the queries.
    pub fn setup(w: Workload, arm: Arm, tr: &mut Tracer) -> Result<Sut> {
        if arm == Arm::Sharded {
            if w != Workload::E1Dedup {
                return Err(DsmsError::plan("the shard arm runs the E1 query only"));
            }
            let se = ShardedEngine::build(1, 1024, ShardSpec::new(), move |e| {
                execute_script(e, E1_DDL)?;
                let q = execute(e, E1_QUERY)?;
                let c = q
                    .collector()
                    .ok_or_else(|| DsmsError::plan("benchmark query is not collected"))?;
                Ok(vec![c.clone()])
            })?;
            return Ok(Sut::Sharded {
                se: Box::new(se),
                slots: 1,
                pushes: 0,
            });
        }
        let mut engine = Box::new(Engine::new());
        let outs = plan(&mut engine, w, arm, tr)?;
        Ok(Sut::Single {
            engine,
            outs,
            disorder: w == Workload::E1Disorder && arm != Arm::AdmitOnly,
        })
    }

    /// Shape `rows` for this system's push call.
    pub fn prepare(&self, w: Workload, rows: Vec<(&'static str, Vec<Value>)>) -> Batch {
        match (self, w) {
            (Sut::Single { .. }, w) if w != Workload::SeqModes => {
                Batch::Readings(rows.into_iter().map(|(_, v)| v).collect())
            }
            _ => Batch::Named(rows.into_iter().map(|(s, v)| (s.to_string(), v)).collect()),
        }
    }

    /// Push one batch and collect what the system releases for it.
    pub fn push(&mut self, batch: Batch, tr: &mut Tracer, out: &mut Outputs) -> Result<u64> {
        match self {
            Sut::Single { engine, outs, .. } => {
                tr.span("dsms.push_batch", || match batch {
                    Batch::Readings(rows) => engine.push_batch_to("readings", rows),
                    Batch::Named(rows) => engine.push_batch(rows),
                })?;
                take_all(outs, tr, out);
                Ok(1 + outs.len() as u64)
            }
            Sut::Sharded { se, slots, pushes } => {
                let rows = match batch {
                    Batch::Named(rows) => rows,
                    Batch::Readings(rows) => rows
                        .into_iter()
                        .map(|v| ("readings".to_string(), v))
                        .collect(),
                };
                tr.span("shard.push_batch", || se.push_batch(rows))?;
                *pushes += 1;
                if *pushes % SHARD_POLL_EVERY == 0 {
                    take_merged(se, *slots, tr, out)?;
                    return Ok(1 + *slots as u64);
                }
                Ok(1)
            }
        }
    }

    /// End of feed: drain buffers and collect the rest.
    pub fn finish(&mut self, tr: &mut Tracer, out: &mut Outputs) -> Result<u64> {
        match self {
            Sut::Single {
                engine,
                outs,
                disorder,
            } => {
                let mut calls = outs.len() as u64;
                if *disorder {
                    tr.span("dsms.flush_disorder", || engine.flush_disorder())?;
                    calls += 1;
                }
                take_all(outs, tr, out);
                Ok(calls)
            }
            Sut::Sharded { se, slots, .. } => {
                tr.span("shard.flush", || se.flush())?;
                take_merged(se, *slots, tr, out)?;
                Ok(1 + *slots as u64)
            }
        }
    }

    /// Tuples waiting in the engine's reorder buffers.
    pub fn buffered(&self) -> u64 {
        match self {
            Sut::Single { engine, .. } => engine
                .stream_stats()
                .iter()
                .map(|s| s.buffered as u64)
                .sum(),
            Sut::Sharded { .. } => 0,
        }
    }

    /// Tuples dead-lettered as too late to reorder.
    pub fn late_tuples(&self) -> u64 {
        match self {
            Sut::Single { engine, .. } => engine.late_tuples(),
            Sut::Sharded { se, .. } => se.late_tuples(),
        }
    }

    /// Stop worker threads and wait for them.
    pub fn stop(self) -> Result<()> {
        if let Sut::Sharded { se, .. } = self {
            (*se).stop()?;
        }
        Ok(())
    }
}

fn take_all(outs: &[Collector], tr: &mut Tracer, out: &mut Outputs) {
    for (q, c) in outs.iter().enumerate() {
        let rows = tr.span("sink.take", || c.take());
        out.extend(rows.into_iter().map(|t| (q, t)));
    }
}

fn take_merged(
    se: &mut ShardedEngine,
    slots: usize,
    tr: &mut Tracer,
    out: &mut Outputs,
) -> Result<()> {
    for q in 0..slots {
        let rows = tr.span("shard.take_output", || se.take_output(q))?;
        out.extend(rows.into_iter().map(|t| (q, t)));
    }
    Ok(())
}

/// A workload's feed in arrival order, materialised batch by batch.
pub struct Feed {
    data: Arc<CompactFeed>,
    /// Arrival order (indices into `data`); `None` = event-time order.
    order: Option<Arc<Vec<u32>>>,
    pos: usize,
}

impl Feed {
    pub fn new(data: Arc<CompactFeed>, order: Option<Arc<Vec<u32>>>) -> Feed {
        Feed {
            data,
            order,
            pos: 0,
        }
    }

    /// Rows in the whole feed.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// The next `n` rows (fewer at the end), with their stream names.
    pub fn next_batch(&mut self, n: usize) -> Vec<(&'static str, Vec<Value>)> {
        let end = (self.pos + n).min(self.data.len());
        let rows = (self.pos..end)
            .map(|k| {
                let i = self.order.as_ref().map_or(k, |o| o[k] as usize);
                (
                    self.data.streams[self.data.stream[i] as usize],
                    self.data.values(i),
                )
            })
            .collect();
        self.pos = end;
        rows
    }
}

/// Stable 64-bit hash of an output row's values and timestamp.
pub fn row_hash(values: &[Value], ts: Timestamp) -> u64 {
    let mut h = crate::stats::SeqDigest::new();
    for v in values {
        match v {
            Value::Null => h.add(0),
            Value::Int(i) => h.add(*i as u64 ^ 1 << 60),
            Value::Float(f) => h.add(f.to_bits() ^ 2 << 60),
            Value::Bool(b) => h.add(*b as u64 ^ 3 << 60),
            Value::Ts(t) => h.add(t.as_micros() ^ 4 << 60),
            Value::Str(s) => {
                for chunk in s.as_bytes().chunks(8) {
                    let mut b = [0u8; 8];
                    b[..chunk.len()].copy_from_slice(chunk);
                    h.add(u64::from_le_bytes(b));
                }
                h.add(s.len() as u64 ^ 5 << 60);
            }
        }
    }
    h.add(ts.as_micros());
    h.hash
}
