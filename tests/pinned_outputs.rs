//! Pinned outputs of the interned row path.
//!
//! Each case replays one paper workload and checks the collected output
//! against a pinned row count and FNV-1a digest of its `(values, ts)`
//! sequence in emission order. The pins were recorded from the oracle
//! each workload was checked against before the columnar batch path and
//! the un-interned row representation were removed: the row engine for
//! the `LCG`-generated feeds, which were compared with columnar
//! execution, and the un-interned engine for the scenario feeds. Every
//! arm of the grid must reproduce its pin:
//!
//! - the single engine at batch sizes 1, 7, 64 and 4096;
//! - the EPC-sharded engine at N ∈ {1, 2, 4, 8}, at the same batch
//!   sizes.
//!
//! The workloads cover E1 (windowed NOT EXISTS dedup, with window
//! expiry landing mid-batch at 64 and 4096), E1 behind a selection, E1
//! under bounded disorder through the reorder buffer, E6 (multi-stream
//! `SEQ`) in every pairing mode, and E10 (star `SEQ` with `COUNT`).
//!
//! Two sharded pins differ from the single engine's, and are pinned as
//! the engine produced them:
//! - E10's star query has no partition key, so EPC routing splits the
//!   star runs across shards and the row count changes with N;
//! - for E1 behind a selection, the shard merge orders rows with equal
//!   timestamps differently from the single engine.

use eslev::prelude::*;
use eslev::rfid::scenario::{dedup, qc_line};

const BATCH_SIZES: [usize; 4] = [1, 7, 64, 4096];
const SHARDS: [usize; 4] = [1, 2, 4, 8];
const MODES: [&str; 4] = ["UNRESTRICTED", "RECENT", "CHRONICLE", "CONSECUTIVE"];

type Feed = Vec<(String, Vec<Value>)>;

/// `(rows, FNV-1a digest)` of one output sequence.
type Pin = (usize, u64);

/// The pins of one workload: the single engine, then the sharded engine
/// at each entry of [`SHARDS`].
struct Pins {
    single: Pin,
    sharded: [Pin; 4],
}

impl Pins {
    /// Every arm produces the same output.
    fn everywhere(pin: Pin) -> Pins {
        Pins {
            single: pin,
            sharded: [pin; 4],
        }
    }
}

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

/// Row count and FNV-1a 64 over a tagged byte encoding of every row's
/// values followed by its timestamp.
fn digest(rows: &[Tuple]) -> Pin {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in rows {
        eat(&(t.values().len() as u64).to_le_bytes());
        for v in t.values() {
            match v {
                Value::Null => eat(&[0]),
                Value::Int(i) => {
                    eat(&[1]);
                    eat(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    eat(&[2]);
                    eat(&f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    eat(&[3]);
                    eat(&(s.len() as u64).to_le_bytes());
                    eat(s.as_bytes());
                }
                Value::Bool(b) => eat(&[4, u8::from(*b)]),
                Value::Ts(ts) => {
                    eat(&[5]);
                    eat(&ts.as_micros().to_le_bytes());
                }
            }
        }
        eat(&t.ts().as_micros().to_le_bytes());
    }
    (rows.len(), h)
}

/// One single-engine arm: feed `feed` in `batch`-sized chunks,
/// optionally through a reorder buffer with `slack` of tolerance.
fn run_single(
    ddl: &str,
    query: &str,
    feed: &Feed,
    batch: usize,
    slack: Option<Duration>,
) -> Vec<Tuple> {
    let mut e = Engine::new();
    execute_script(&mut e, ddl).expect("ddl");
    if let Some(slack) = slack {
        let mut streams: Vec<&String> = feed.iter().map(|(s, _)| s).collect();
        streams.sort();
        streams.dedup();
        for s in streams {
            e.set_disorder_tolerance(s, slack).expect("tolerant stream");
        }
    }
    let q = execute(&mut e, query).expect("query");
    let c = q.collector().expect("collected").clone();
    for chunk in feed.chunks(batch) {
        e.push_batch(chunk.iter().cloned()).expect("push_batch");
    }
    if slack.is_some() {
        e.flush_disorder().expect("flush disorder");
    }
    c.take()
}

/// One sharded arm over `shards` workers; reads the merged output.
fn run_sharded(ddl: &str, query: &str, feed: &Feed, batch: usize, shards: usize) -> Vec<Tuple> {
    let ddl = ddl.to_string();
    let query = query.to_string();
    let mut se = ShardedEngine::build(shards, 1024, ShardSpec::new(), move |e| {
        execute_script(e, &ddl)?;
        let q = execute(e, &query)?;
        Ok(vec![q.collector().expect("collected").clone()])
    })
    .expect("sharded build");
    for chunk in feed.chunks(batch) {
        se.push_batch(chunk.to_vec()).expect("push_batch");
    }
    se.flush().expect("flush");
    let rows = se.take_output(0).expect("slot 0");
    se.stop().expect("clean stop");
    rows
}

fn assert_pinned(label: &str, ddl: &str, query: &str, feed: &Feed, pins: Pins) {
    assert!(pins.single.0 > 0, "{label}: a pin must be non-trivial");
    for batch in BATCH_SIZES {
        let got = digest(&run_single(ddl, query, feed, batch, None));
        assert_eq!(got, pins.single, "{label}: single, batch {batch}");
        for (shards, pin) in SHARDS.into_iter().zip(pins.sharded) {
            let got = digest(&run_sharded(ddl, query, feed, batch, shards));
            assert_eq!(got, pin, "{label}: {shards} shards, batch {batch}");
        }
    }
}

// ------------------------------------------------------------------ E1

const E1_DDL: &str =
    "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP)";

const E1_QUERY: &str = "SELECT * FROM readings AS r1
     WHERE NOT EXISTS
       (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
        WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)";

/// 3 readers × 8 tags with a ~0.4 s stride against the 1 s window, so
/// expirations land mid-batch; ~40% of rows repeat a timestamp.
fn e1_rows(n: usize, seed: u64) -> Feed {
    let mut rng = Lcg(seed);
    let mut ts = 0u64;
    (0..n)
        .map(|_| {
            if rng.below(5) >= 2 {
                ts += 400_000;
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
        .collect()
}

#[test]
fn e1_dedup_pinned() {
    let pins = Pins::everywhere((503, 0x1525_3208_5268_0223));
    assert_pinned("E1 dedup", E1_DDL, E1_QUERY, &e1_rows(600, 11), pins);
}

/// A selection feeding the dedup in one chain.
#[test]
fn e1_selected_dedup_pinned() {
    let query = "SELECT * FROM readings AS r1
     WHERE r1.reader_id <> 'reader1' AND NOT EXISTS
       (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
        WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)";
    let pins = Pins {
        single: (324, 0xc393_89d8_d34f_2323),
        sharded: [
            (324, 0xc393_89d8_d34f_2323),
            (324, 0xa06a_8dad_0796_dbcf),
            (324, 0x57a4_571e_4ff8_21ff),
            (324, 0x38f4_32ef_410a_af9f),
        ],
    };
    assert_pinned("E1 select+dedup", E1_DDL, query, &e1_rows(600, 17), pins);
}

/// E1 perturbed by up to 0.8 s and restored by a 1 s reorder buffer,
/// which re-batches internally: every feed batch size must release the
/// same output.
#[test]
fn e1_disordered_pinned() {
    let rows = perturb_rows(e1_rows(400, 19), 7, Duration::from_micros(800_000));
    let slack = Some(Duration::from_secs(1));
    for batch in BATCH_SIZES {
        let got = digest(&run_single(E1_DDL, E1_QUERY, &rows, batch, slack));
        assert_eq!(
            got,
            (347, 0x323a_4f06_6483_99e5),
            "E1 disordered: batch {batch}"
        );
    }
}

/// The paper's `cleaned_readings` cascade over the dedup scenario.
const CLEANED_DDL: &str = "
    CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);
    CREATE STREAM cleaned_readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);
    INSERT INTO cleaned_readings
    SELECT * FROM readings AS r1
    WHERE NOT EXISTS
      (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
       WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);";

fn cleaned_feed(seed: u64) -> Feed {
    let w = dedup::generate(&dedup::DedupConfig {
        presences: 150,
        duplicate_prob: 0.6,
        seed,
        ..dedup::DedupConfig::default()
    });
    w.readings
        .iter()
        .map(|r| ("readings".to_string(), r.to_values()))
        .collect()
}

#[test]
fn e1_cleaned_readings_pinned() {
    for (seed, pin) in [
        (1u64, (150, 0x3bfa_4e25_47ca_afd8)),
        (7, (150, 0xe6f1_bf91_0f8e_5440)),
    ] {
        assert_pinned(
            &format!("E1 cleaned, seed {seed}"),
            CLEANED_DDL,
            "SELECT * FROM cleaned_readings",
            &cleaned_feed(seed),
            Pins::everywhere(pin),
        );
    }
}

/// E1's dedup state after the cleaned-readings feed: interned keys
/// encode each string as a 4-byte symbol (27 bytes of raw key became
/// 10), and the dictionary holds each distinct string once.
#[test]
fn e1_state_key_bytes_pinned() {
    let mut e = Engine::new();
    execute_script(&mut e, CLEANED_DDL).expect("ddl");
    for (stream, values) in cleaned_feed(1) {
        e.push(&stream, values).expect("feed");
    }
    assert_eq!(e.state_key_bytes(), 10, "E1 state-key bytes");
    assert_eq!(
        e.interner_stats(),
        (51, 301),
        "E1 dictionary (entries, bytes)"
    );
}

// ------------------------------------------------------------------ E6

const SHOP_DDL: &str = "CREATE STREAM shelf (tagid VARCHAR, tagtime TIMESTAMP);
     CREATE STREAM checkout (tagid VARCHAR, tagtime TIMESTAMP);
     CREATE STREAM exits (tagid VARCHAR, tagtime TIMESTAMP)";

/// Three-stage SEQ with partition keys and a gap constraint.
#[test]
fn e6_seq_all_modes_pinned() {
    let mut rng = Lcg(12);
    let mut ts = 0u64;
    let streams = ["shelf", "checkout", "exits"];
    let rows: Feed = (0..900)
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
    let pins = [
        (746, 0x3177_685e_30d5_25ad),
        (58, 0xeed2_8193_fb55_1b8d),
        (49, 0xf18e_5a51_5cfc_5e53),
        (12, 0xf5dd_07e0_236c_d735),
    ];
    for (mode, pin) in MODES.into_iter().zip(pins) {
        let query = format!(
            "SELECT s.tagid, x.tagtime FROM shelf AS s, checkout AS c, exits AS x
             WHERE SEQ(s, c, x) MODE {mode}
               AND s.tagid = c.tagid AND c.tagid = x.tagid
               AND x.tagtime - c.tagtime <= 120 SECONDS"
        );
        let label = format!("E6 seq {mode}");
        assert_pinned(&label, SHOP_DDL, &query, &rows, Pins::everywhere(pin));
    }
}

const QC_DDL: &str = "
    CREATE STREAM C1 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
    CREATE STREAM C2 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
    CREATE STREAM C3 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
    CREATE STREAM C4 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);";

/// The QC-line scenario: four checkpoints, tag equalities lifted into
/// the detector's symbol-encoded partition key. All four modes produce
/// the same rows on this feed.
#[test]
fn e6_qc_line_pairing_modes_pinned() {
    let w = qc_line::generate(&qc_line::QcConfig {
        products: 80,
        seed: 3,
        ..qc_line::QcConfig::default()
    });
    let feeds: Vec<(String, Vec<Reading>)> = w
        .feeds
        .iter()
        .enumerate()
        .map(|(i, f)| (format!("c{}", i + 1), f.clone()))
        .collect();
    let feed: Feed = merge_feeds(feeds)
        .into_iter()
        .map(|item| (item.stream, item.reading.to_values()))
        .collect();
    for mode in MODES {
        let query = format!(
            "SELECT C1.tagid, C4.tagtime FROM C1, C2, C3, C4
             WHERE SEQ(C1, C2, C3, C4) MODE {mode}
             AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid AND C1.tagid=C4.tagid"
        );
        let pins = Pins::everywhere((67, 0x8214_93b5_1b43_708f));
        assert_pinned(&format!("E6 QC {mode}"), QC_DDL, &query, &feed, pins);
    }
}

// ----------------------------------------------------------------- E10

/// Star sequence with a COUNT aggregate in CHRONICLE mode, no partition
/// key.
#[test]
fn e10_star_pinned() {
    let ddl = "CREATE STREAM scans (tagid VARCHAR, tagtime TIMESTAMP);
         CREATE STREAM cases (tagid VARCHAR, tagtime TIMESTAMP)";
    let query = "SELECT COUNT(a*), b.tagid FROM scans AS a, cases AS b
         WHERE SEQ(a*, b) MODE CHRONICLE
           AND b.tagtime - LAST(a*).tagtime <= 30 SECONDS";
    let mut rng = Lcg(13);
    let mut ts = 0u64;
    let mut rows = Feed::new();
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
    let pins = Pins {
        single: (80, 0x259e_bc8e_436c_2357),
        sharded: [
            (80, 0x259e_bc8e_436c_2357),
            (80, 0x7262_26ac_2e88_360f),
            (77, 0xda8a_8c85_53a3_6ee7),
            (64, 0x9207_20a3_5955_0e25),
        ],
    };
    assert_pinned("E10 star", ddl, query, &rows, pins);
}

/// Tag-interleaved star runs partitioned by tag.
#[test]
fn e10_star_sequence_pinned() {
    let ddl = "
        CREATE STREAM R1 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
        CREATE STREAM R2 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);";
    let query = "SELECT COUNT(R1*), R2.tagid FROM R1, R2
                 WHERE SEQ(R1*, R2) MODE CHRONICLE AND R1.tagid = R2.tagid";
    let (tags, runs_per_tag, run_len) = (7, 6, 3);
    let mut feed = Feed::new();
    let mut ts = 0u64;
    for _run in 0..runs_per_tag {
        for step in 0..=run_len {
            for tag in 0..tags {
                ts += 1;
                let stream = if step < run_len { "r1" } else { "r2" };
                feed.push((
                    stream.to_string(),
                    vec![
                        Value::str("rd"),
                        Value::str(format!("tag-{tag}")),
                        Value::Ts(Timestamp::from_secs(ts)),
                    ],
                ));
            }
        }
    }
    let pins = Pins::everywhere((42, 0x8d2e_56d9_d5f9_eb8f));
    assert_pinned("E10 tagged star", ddl, query, &feed, pins);
}

// ------------------------------------------- dictionary crash recovery

/// The interner dictionary must survive the checkpoint byte codec: a
/// run interrupted by checkpoint → serialize → deserialize → restore
/// into a fresh engine must finish with the same output as the
/// uninterrupted run (restored state keys land on the symbols the
/// capturing engine assigned).
#[test]
fn dictionary_survives_checkpoint_restore() {
    let feed = cleaned_feed(5);
    let query = "SELECT * FROM cleaned_readings";
    let want: Vec<(Vec<Value>, Timestamp)> = run_single(CLEANED_DDL, query, &feed, 1, None)
        .iter()
        .map(|t| (t.values().to_vec(), t.ts()))
        .collect();
    assert!(!want.is_empty(), "reference output must be non-trivial");

    let cut = feed.len() / 2;

    let mut first = Engine::new();
    execute_script(&mut first, CLEANED_DDL).unwrap();
    let q = execute(&mut first, query).unwrap();
    let out_a = q.collector().unwrap().clone();
    for (stream, values) in &feed[..cut] {
        first.push(stream, values.clone()).unwrap();
    }
    let ck = first.checkpoint().unwrap();
    let bytes = ck.to_bytes();
    let (entries, _) = first.interner_stats();
    assert!(entries > 0, "E1 feed must have interned strings");
    assert_eq!(ck.dict.len(), entries, "checkpoint carries the dictionary");
    let mut rows = out_a.take();

    let ck = EngineCheckpoint::from_bytes(&bytes).unwrap();
    let mut second = Engine::new();
    execute_script(&mut second, CLEANED_DDL).unwrap();
    let q = execute(&mut second, query).unwrap();
    let out_b = q.collector().unwrap().clone();
    second.restore(&ck).unwrap();
    assert_eq!(
        second.interner_stats().0,
        entries,
        "restore rebuilds the dictionary"
    );
    for (stream, values) in &feed[cut..] {
        second.push(stream, values.clone()).unwrap();
    }
    rows.extend(out_b.take());

    let got: Vec<(Vec<Value>, Timestamp)> =
        rows.iter().map(|t| (t.values().to_vec(), t.ts())).collect();
    assert_eq!(
        got, want,
        "restored run diverged from the uninterrupted reference"
    );
}
