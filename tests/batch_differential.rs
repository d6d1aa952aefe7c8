//! Batch-vs-tuple differential: `Engine::push_batch` must produce
//! byte-identical query output to pushing the same rows one at a time
//! with `Engine::push`, at every batch size — including batches whose
//! internal timestamp spread expires windows mid-batch.
//!
//! Three paper workloads cover the punctuation-sensitive operator
//! classes: E1 (windowed NOT EXISTS dedup), E6 (multi-stream SEQ with a
//! window and partition keys), E10 (star SEQ with a COUNT aggregate).

use eslev::prelude::*;

const BATCH_SIZES: [usize; 4] = [1, 7, 64, 4096];

/// Deterministic LCG — same feed on every run, no external crates.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

type Row = (String, Vec<Value>);

/// Build two identical engines from a DDL+query script; return both
/// engines and their collectors.
fn pair(script: &str, query: &str) -> ((Engine, Collector), (Engine, Collector)) {
    let build = || {
        let mut e = Engine::new();
        execute_script(&mut e, script).expect("script");
        let out = execute(&mut e, query).expect("query");
        let c = out.collector().expect("bare SELECT collects").clone();
        (e, c)
    };
    (build(), build())
}

/// Feed `rows` tuple-at-a-time into one engine and in `batch`-sized
/// chunks into the other; assert the collected outputs match exactly
/// (values and timestamps).
fn assert_equivalent(script: &str, query: &str, rows: &[Row], label: &str) {
    for batch in BATCH_SIZES {
        let ((mut e_tuple, c_tuple), (mut e_batch, c_batch)) = pair(script, query);
        for (stream, values) in rows {
            e_tuple.push(stream, values.clone()).expect("push");
        }
        for chunk in rows.chunks(batch) {
            e_batch
                .push_batch(chunk.iter().cloned())
                .expect("push_batch");
        }
        let take = |c: &Collector| -> Vec<(Vec<Value>, Timestamp)> {
            c.take()
                .iter()
                .map(|t| (t.values().to_vec(), t.ts()))
                .collect()
        };
        let (a, b) = (take(&c_tuple), take(&c_batch));
        assert_eq!(
            a, b,
            "{label}: batch size {batch} diverged from tuple-at-a-time"
        );
        assert!(!a.is_empty(), "{label}: workload produced no output");
    }
}

/// E1: dedup via windowed NOT EXISTS. Timestamps stride ~0.4 s with a
/// 1-second window, so a 64-row batch spans many window expirations —
/// the mid-batch expiry case.
#[test]
fn e1_dedup_batch_equals_tuple() {
    let script = "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP)";
    let query = "SELECT * FROM readings AS r1
         WHERE NOT EXISTS
           (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
            WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)";
    let mut rng = Lcg(11);
    let mut ts = 0u64;
    let rows: Vec<Row> = (0..600)
        .map(|_| {
            // ~40% duplicates: same (reader, tag) again within the window.
            if rng.below(5) >= 2 {
                ts += 400_000; // 0.4 s in micros
            }
            (
                "readings".to_string(),
                vec![
                    Value::str(format!("reader{}", rng.below(3)).as_str()),
                    Value::str(format!("tag{}", rng.below(8)).as_str()),
                    Value::Ts(Timestamp::from_micros(ts)),
                ],
            )
        })
        .collect();
    assert_equivalent(script, query, &rows, "E1 dedup");
}

/// E6: three-stage SEQ (shelf → checkout → exit) with per-tag partition
/// equalities, a gap constraint, and MODE RECENT.
#[test]
fn e6_seq_batch_equals_tuple() {
    let script = "CREATE STREAM shelf (tagid VARCHAR, tagtime TIMESTAMP);
         CREATE STREAM checkout (tagid VARCHAR, tagtime TIMESTAMP);
         CREATE STREAM exits (tagid VARCHAR, tagtime TIMESTAMP)";
    let query = "SELECT s.tagid, x.tagtime FROM shelf AS s, checkout AS c, exits AS x
         WHERE SEQ(s, c, x) MODE RECENT
           AND s.tagid = c.tagid AND c.tagid = x.tagid
           AND x.tagtime - c.tagtime <= 120 SECONDS";
    let mut rng = Lcg(12);
    let mut ts = 0u64;
    let streams = ["shelf", "checkout", "exits"];
    let rows: Vec<Row> = (0..900)
        .map(|_| {
            ts += rng.below(30) + 1;
            (
                streams[rng.below(3) as usize].to_string(),
                vec![
                    Value::str(format!("tag{}", rng.below(12)).as_str()),
                    Value::Ts(Timestamp::from_secs(ts)),
                ],
            )
        })
        .collect();
    assert_equivalent(script, query, &rows, "E6 seq");
}

/// E10: star sequence SEQ(a*, b) in CHRONICLE mode with a star COUNT,
/// runs of `a` closed by a `b`.
#[test]
fn e10_star_batch_equals_tuple() {
    let script = "CREATE STREAM scans (tagid VARCHAR, tagtime TIMESTAMP);
         CREATE STREAM cases (tagid VARCHAR, tagtime TIMESTAMP)";
    let query = "SELECT COUNT(a*), b.tagid FROM scans AS a, cases AS b
         WHERE SEQ(a*, b) MODE CHRONICLE
           AND b.tagtime - LAST(a*).tagtime <= 30 SECONDS";
    let mut rng = Lcg(13);
    let mut ts = 0u64;
    let mut rows: Vec<Row> = Vec::new();
    for case in 0..80 {
        for i in 0..(rng.below(6) + 1) {
            ts += rng.below(5) + 1;
            rows.push((
                "scans".to_string(),
                vec![
                    Value::str(format!("item{case}-{i}").as_str()),
                    Value::Ts(Timestamp::from_secs(ts)),
                ],
            ));
        }
        ts += rng.below(5) + 1;
        rows.push((
            "cases".to_string(),
            vec![
                Value::str(format!("case{case}").as_str()),
                Value::Ts(Timestamp::from_secs(ts)),
            ],
        ));
    }
    assert_equivalent(script, query, &rows, "E10 star");
}

/// A row that fails validation mid-batch: the rows before it are
/// delivered exactly as one-at-a-time pushes would deliver them, the
/// error comes back, and the rows after it can be resubmitted. Covers a
/// malformed row (wrong arity) and a row whose timestamp regresses, at
/// the head, middle and tail of the batch, on E1's coalesced batch
/// schedule.
#[test]
fn failed_row_mid_batch_delivers_prefix() {
    let script = "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP)";
    let query = "SELECT * FROM readings AS r1
         WHERE NOT EXISTS
           (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
            WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)";
    let mut rng = Lcg(14);
    let rows: Vec<Row> = (0..40u64)
        .map(|i| {
            (
                "readings".to_string(),
                vec![
                    Value::str(format!("reader{}", rng.below(2)).as_str()),
                    Value::str(format!("tag{}", rng.below(4)).as_str()),
                    Value::Ts(Timestamp::from_micros(1_000_000 + i * 300_000)),
                ],
            )
        })
        .collect();
    let malformed: Row = ("readings".to_string(), vec![Value::str("reader0")]);
    let regressed: Row = (
        "readings".to_string(),
        vec![
            Value::str("reader0"),
            Value::str("tag0"),
            Value::Ts(Timestamp::from_micros(0)),
        ],
    );
    let take = |c: &Collector| -> Vec<(Vec<Value>, Timestamp)> {
        c.take()
            .iter()
            .map(|t| (t.values().to_vec(), t.ts()))
            .collect()
    };
    for (kind, bad) in [("malformed", &malformed), ("regressed", &regressed)] {
        for k in [0usize, 1, 17, 39] {
            if k == 0 && kind == "regressed" {
                // Nothing precedes it, so it regresses from nothing.
                continue;
            }
            let label = format!("{kind} row at position {k}");
            let ((mut e_tuple, c_tuple), (mut e_batch, c_batch)) = pair(script, query);
            assert!(!e_batch.needs_per_tuple_watermarks());

            for (stream, values) in &rows[..k] {
                e_tuple.push(stream, values.clone()).expect("push");
            }
            assert!(e_tuple.push(&bad.0, bad.1.clone()).is_err(), "{label}");
            for (stream, values) in &rows[k..] {
                e_tuple.push(stream, values.clone()).expect("push");
            }

            let mut batch = rows[..k].to_vec();
            batch.push(bad.clone());
            batch.extend_from_slice(&rows[k..]);
            assert!(e_batch.push_batch(batch).is_err(), "{label}");
            assert_eq!(
                e_batch.stream_pushed("readings").expect("stream"),
                k as u64,
                "{label}: the validated prefix is delivered"
            );
            e_batch
                .push_batch(rows[k..].iter().cloned())
                .unwrap_or_else(|e| panic!("{label}: resubmitting the rest failed: {e}"));

            let (a, b) = (take(&c_tuple), take(&c_batch));
            assert!(!a.is_empty(), "{label}: workload produced no output");
            assert_eq!(a, b, "{label}: batched output diverged from per-tuple");
            assert_eq!(e_batch.dead_letters().count(), 1, "{label}");
        }
    }
}
