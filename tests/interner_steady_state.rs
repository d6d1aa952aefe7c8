//! Interner steady-state regression: with a fixed vocabulary, the
//! dictionary must stop growing once every distinct string has been
//! seen — for admitted rows, and for strings constructed *mid-chain* by
//! computed projection outputs, which are routed through the bound
//! interner rather than left as fresh un-interned `Arc<str>`s.

use eslev::prelude::*;
use std::sync::Arc;

fn e1_feed(n: usize) -> Vec<(String, Vec<Value>)> {
    // Fixed vocabulary: 3 readers × 8 tags, ~0.4 s stride.
    let mut ts = 0u64;
    (0..n)
        .map(|i| {
            if i % 3 != 0 {
                ts += 400_000;
            }
            (
                "readings".to_string(),
                vec![
                    Value::str(format!("reader{}", i % 3).as_str()),
                    Value::str(format!("tag{}", i % 8).as_str()),
                    Value::Ts(Timestamp::from_micros(ts)),
                ],
            )
        })
        .collect()
}

const DDL: &str = "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP)";

const E1: &str = "SELECT * FROM readings AS r1
     WHERE NOT EXISTS
       (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
        WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)";

/// Feed the first half, record the dictionary size, feed the second
/// half (same vocabulary), and require zero growth.
fn assert_flat(mut engine: Engine, query: &str, label: &str) {
    execute_script(&mut engine, DDL).expect("ddl");
    let q = execute(&mut engine, query).expect("query");
    let c = q.collector().expect("collector").clone();
    let feed = e1_feed(600);
    let (warm, steady) = feed.split_at(feed.len() / 2);
    for (s, v) in warm {
        engine.push(s, v.clone()).expect("push");
    }
    let (entries_mid, bytes_mid) = engine.interner_stats();
    for (s, v) in steady {
        engine.push(s, v.clone()).expect("push");
    }
    let (entries_end, bytes_end) = engine.interner_stats();
    assert!(!c.take().is_empty(), "{label}: no output");
    assert_eq!(
        entries_mid, entries_end,
        "{label}: dictionary grew in steady state ({entries_mid} -> {entries_end} entries)"
    );
    assert_eq!(
        bytes_mid, bytes_end,
        "{label}: dictionary bytes grew in steady state"
    );
}

#[test]
fn e1_steady_state_keeps_dictionary_flat() {
    assert_flat(Engine::new(), E1, "E1");
}

/// Computed string outputs: a UDF builds a *new* string per tuple from
/// a fixed vocabulary. Before projection outputs were canonicalized
/// through the bound interner, each output was a fresh `Arc<str>`;
/// the dictionary must converge to one entry per distinct content.
#[test]
fn computed_string_outputs_keep_dictionary_flat() {
    let mut e = Engine::new();
    e.functions_mut().register(
        "tagcat",
        Arc::new(|args: &[Value]| {
            let a = args[0].as_str().unwrap_or("");
            let b = args[1].as_str().unwrap_or("");
            Ok(Value::str(format!("{a}-{b}").as_str()))
        }),
    );
    assert_flat(
        e,
        "SELECT tagcat(reader_id, tag_id) FROM readings",
        "tagcat",
    );
}
