//! Combinations of the engine toggles, each checked against the plain
//! single engine on E1 (windowed NOT EXISTS dedup).
//!
//! The grid is the full product of:
//! - shared execution off / on (two identical queries registered, so
//!   "on" fuses them into one chain);
//! - `CONSISTENCY CONSISTENT` / `FAST`;
//! - disorder slack 0 s (in-order feed) / 2 s (feed perturbed by up to
//!   2 s);
//! - the single engine and the sharded engine at N ∈ {1, 2, 4};
//! - feed batches of 1 and 64 rows.
//!
//! Every combination must reproduce the plain engine's in-order output
//! byte for byte on both queries: consistent queries directly, fast
//! queries after their retractions cancel the speculative rows they
//! withdraw. No tuple may be dropped as late.

use eslev::prelude::*;
use eslev::rfid::scenario::dedup;

type Feed = Vec<(String, Vec<Value>)>;
type Row = (Vec<Value>, Timestamp);

const DDL: &str = "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP)";

const E1_QUERY: &str = "SELECT * FROM readings AS r1
    WHERE NOT EXISTS
      (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
       WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)";

/// Maximum perturbation of the disordered feed, equal to its slack.
const DELAY_SECS: u64 = 2;

#[derive(Debug, Clone, Copy)]
struct Combo {
    shared: bool,
    fast: bool,
    slack_secs: u64,
    /// `None` is the single engine.
    shards: Option<usize>,
    batch: usize,
}

fn e1_feed() -> Feed {
    let w = dedup::generate(&dedup::DedupConfig {
        presences: 120,
        duplicate_prob: 0.6,
        seed: 5,
        ..dedup::DedupConfig::default()
    });
    w.readings
        .iter()
        .map(|r| ("readings".to_string(), r.to_values()))
        .collect()
}

fn key_rows(rows: &[Tuple]) -> Vec<Row> {
    rows.iter().map(|t| (t.values().to_vec(), t.ts())).collect()
}

/// A fast query's emission log with each retraction cancelling the
/// latest matching prior emission.
fn reconcile(rows: Vec<Tuple>) -> Vec<Row> {
    let mut live: Vec<Tuple> = Vec::new();
    for t in rows {
        if t.is_retraction() {
            let pos = live
                .iter()
                .rposition(|p| p.values() == t.values() && p.ts() == t.ts() && p.seq() == t.seq())
                .expect("retraction matches a prior emission");
            live.remove(pos);
        } else {
            live.push(t);
        }
    }
    key_rows(&live)
}

/// The plain single engine on the in-order feed, one tuple at a time.
fn reference(feed: &Feed) -> Vec<Row> {
    let mut e = Engine::new();
    execute_script(&mut e, DDL).expect("ddl");
    let c = execute(&mut e, E1_QUERY)
        .expect("query")
        .collector()
        .expect("collected")
        .clone();
    for (stream, values) in feed {
        e.push(stream, values.clone()).expect("push");
    }
    key_rows(&c.take())
}

/// Run one combination; returns the raw output of both registered
/// queries and the number of tuples dropped as late.
fn run(c: Combo, feed: &Feed) -> (Vec<Vec<Tuple>>, u64) {
    let query = format!(
        "{E1_QUERY} CONSISTENCY {}",
        if c.fast { "FAST" } else { "CONSISTENT" }
    );
    let slack = Duration::from_secs(c.slack_secs);
    match c.shards {
        None => {
            let mut e = Engine::new();
            e.set_shared_execution(c.shared);
            execute_script(&mut e, DDL).expect("ddl");
            e.set_disorder_tolerance("readings", slack).expect("slack");
            let outs: Vec<Collector> = (0..2)
                .map(|_| {
                    let q = execute(&mut e, &query).expect("query");
                    q.collector().expect("collected").clone()
                })
                .collect();
            for chunk in feed.chunks(c.batch) {
                e.push_batch(chunk.iter().cloned()).expect("push_batch");
            }
            e.flush_disorder().expect("flush disorder");
            (outs.iter().map(Collector::take).collect(), e.late_tuples())
        }
        Some(n) => {
            let shared = c.shared;
            let mut se = ShardedEngine::build(n, 1024, ShardSpec::new(), move |e| {
                e.set_shared_execution(shared);
                execute_script(e, DDL)?;
                (0..2)
                    .map(|_| Ok(execute(e, &query)?.collector().expect("collected").clone()))
                    .collect()
            })
            .expect("sharded build");
            se.set_disorder_tolerance("readings", slack).expect("slack");
            for chunk in feed.chunks(c.batch) {
                se.push_batch(chunk.to_vec()).expect("push_batch");
            }
            se.flush_disorder().expect("flush disorder");
            se.flush().expect("flush");
            let outs = (0..2)
                .map(|slot| se.take_output(slot).expect("slot"))
                .collect();
            let late = se.late_tuples();
            se.stop().expect("clean stop");
            (outs, late)
        }
    }
}

#[test]
fn e1_every_toggle_combination_equals_plain_engine() {
    let ordered = e1_feed();
    let want = reference(&ordered);
    assert!(!want.is_empty(), "reference output must be non-trivial");
    let disordered = perturb_rows(ordered.clone(), 42, Duration::from_secs(DELAY_SECS));
    assert_ne!(
        disordered, ordered,
        "the perturbation must reorder the feed"
    );

    let mut combos = 0;
    let mut retractions = 0;
    for shared in [false, true] {
        for fast in [false, true] {
            for slack_secs in [0, DELAY_SECS] {
                for shards in [None, Some(1), Some(2), Some(4)] {
                    for batch in [1, 64] {
                        let c = Combo {
                            shared,
                            fast,
                            slack_secs,
                            shards,
                            batch,
                        };
                        let feed = if slack_secs == 0 {
                            &ordered
                        } else {
                            &disordered
                        };
                        let (outs, late) = run(c, feed);
                        assert_eq!(late, 0, "{c:?}: tuples dropped as late");
                        for (slot, out) in outs.into_iter().enumerate() {
                            retractions += out.iter().filter(|t| t.is_retraction()).count();
                            let got = if fast { reconcile(out) } else { key_rows(&out) };
                            assert_eq!(got, want, "{c:?}: query {slot} diverged");
                        }
                        combos += 1;
                    }
                }
            }
        }
    }
    assert_eq!(combos, 64);
    // The single engine speculates on the disordered feed, so the fast
    // combinations really exercise retraction.
    assert!(retractions > 0, "no fast combination retracted anything");
}
