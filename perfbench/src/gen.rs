//! Seeded workload generators.
//!
//! Each feed is generated once per run with the `eslev-rfid` scenario
//! generators and kept in a compact columnar form (13 bytes a row: event
//! time, tag index, stream index). Rows are materialised batch by batch
//! right before each push, with freshly allocated strings as a wire
//! decoder would produce, so a run never holds a materialised feed
//! (about 150 bytes a row) and generation cost stays out of the timed
//! calls.

use eslev_dsms::prelude::*;
use eslev_rfid::prelude::*;
use eslev_rfid::scenario::{dedup, qc_line};

/// splitmix64 finalizer: derives independent sub-seeds from the run seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A generated feed in event-time order.
pub struct CompactFeed {
    /// Stream names; the reader id of stream `s` is `readers[s]`.
    pub streams: Vec<&'static str>,
    pub readers: Vec<String>,
    pub tags: Vec<String>,
    pub ts: Vec<u64>,
    pub tag: Vec<u32>,
    pub stream: Vec<u8>,
    /// Physical presences behind the rows (E1: the expected output count).
    pub presences: u64,
}

impl CompactFeed {
    fn new(streams: Vec<&'static str>, readers: Vec<String>) -> CompactFeed {
        CompactFeed {
            streams,
            readers,
            tags: Vec::new(),
            ts: Vec::new(),
            tag: Vec::new(),
            stream: Vec::new(),
            presences: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.ts.len()
    }

    fn push(&mut self, stream: u8, tag: u32, ts: Timestamp) {
        self.stream.push(stream);
        self.tag.push(tag);
        self.ts.push(ts.as_micros());
    }

    /// Row `i` as engine values, with fresh string allocations.
    pub fn values(&self, i: usize) -> Vec<Value> {
        vec![
            Value::str(&self.readers[self.stream[i] as usize]),
            Value::str(&self.tags[self.tag[i] as usize]),
            Value::Ts(Timestamp::from_micros(self.ts[i])),
        ]
    }

    fn tag_id(&mut self, ids: &mut std::collections::HashMap<String, u32>, tag: &str) -> u32 {
        if let Some(&id) = ids.get(tag) {
            return id;
        }
        let id = self.tags.len() as u32;
        self.tags.push(tag.to_string());
        ids.insert(tag.to_string(), id);
        id
    }
}

/// Presences per `dedup::generate` call (a multiple of the scenario's 50
/// tags, so the round-robin tag order continues across calls).
const E1_CHUNK_PRESENCES: usize = 2_000;

/// Event-time gap between E1 chunks.
const E1_CHUNK_GAP_US: u64 = 4_000_000;

/// Delay bound of the `e1_disorder` perturbation (and its reorder slack).
pub const E1_MAX_DELAY_US: u64 = 2_000_000;

/// The Example 1 feed: `presences` tag presences at a gate reader with
/// geometric duplicate bursts (`dedup` scenario, duplicate probability
/// 0.5), generated in chunks laid end to end in event time.
pub fn e1_feed(seed: u64, presences: usize) -> CompactFeed {
    let mut f = CompactFeed::new(vec!["readings"], vec!["gate-reader".to_string()]);
    let mut ids = std::collections::HashMap::new();
    let mut offset = Duration::ZERO;
    let mut left = presences;
    let mut chunk = 0u64;
    while left > 0 {
        let n = left.min(E1_CHUNK_PRESENCES);
        left -= n;
        let w = dedup::generate(&dedup::DedupConfig {
            presences: n,
            duplicate_prob: 0.5,
            seed: mix(seed ^ chunk.wrapping_mul(0x1000_0001)),
            ..dedup::DedupConfig::default()
        });
        chunk += 1;
        let mut last = Timestamp::ZERO;
        for r in &w.readings {
            let tag = f.tag_id(&mut ids, &r.tag);
            let ts = r.ts + offset;
            last = last.max(ts);
            f.push(0, tag, ts);
        }
        f.presences += w.unique_presences as u64;
        // The scenario starts at 1 s; the next chunk starts a gap later.
        offset = (last + Duration::from_micros(E1_CHUNK_GAP_US)) - Timestamp::from_secs(1);
    }
    f
}

/// Arrival order of `feed` under the `eslev-rfid` bounded-disorder model:
/// each event time draws a delay in `[0, E1_MAX_DELAY_US]` and rows are
/// stably sorted by arrival time (the `perturb` rule, applied to indices).
pub fn perturbed_order(feed: &CompactFeed, seed: u64) -> Vec<u32> {
    let max = Duration::from_micros(E1_MAX_DELAY_US);
    let dseed = mix(seed ^ 0xd150_4de4);
    let mut keyed: Vec<(u64, u32)> = feed
        .ts
        .iter()
        .enumerate()
        .map(|(i, &us)| {
            let ts = Timestamp::from_micros(us);
            (
                ts.saturating_add(delay_for(dseed, ts, max)).as_micros(),
                i as u32,
            )
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Products entering the QC line per `seq_modes` feed.
pub const QC_PRODUCTS: usize = 400;
/// Gap between product entries: shorter than a product's 15–90 s trip,
/// so every product of the feed is on the line at once.
const QC_ENTRY_US: u64 = 25_000;
/// Star-sequence tags interleaved at once.
pub const STAR_TAGS: usize = 100;
/// R1 readings per star run (each run ends with one R2).
const STAR_RUN: usize = 4;
/// Star rounds per tag.
const STAR_ROUNDS: usize = 3;

/// The `seq_modes` feed: a busy QC line (`qc_line`, every product in
/// flight at once) merged in time order with `STAR_TAGS` tags each
/// cycling `STAR_RUN` R1 readings and one R2, rounds interleaved across
/// tags.
pub fn seq_feed(seed: u64, products: usize) -> CompactFeed {
    let streams = vec!["c1", "c2", "c3", "c4", "r1", "r2"];
    let readers = ["C1", "C2", "C3", "C4", "star-rd", "star-rd"];
    let mut f = CompactFeed::new(streams, readers.into_iter().map(String::from).collect());
    let w = qc_line::generate(&qc_line::QcConfig {
        products,
        entry_period: Duration::from_micros(QC_ENTRY_US),
        seed: mix(seed ^ 0x0c11),
        ..qc_line::QcConfig::default()
    });
    let mut ids = std::collections::HashMap::new();
    // (ts, stream, position, tag)
    let mut keyed: Vec<(Timestamp, u8, usize, u32)> = Vec::new();
    for (s, feed) in w.feeds.iter().enumerate() {
        for (j, r) in feed.iter().enumerate() {
            let tag = f.tag_id(&mut ids, &r.tag);
            keyed.push((r.ts, s as u8, j, tag));
        }
    }
    // Star rows spread evenly over the QC entry period, tag order
    // rotated per round by the seed.
    let star_base = f.tags.len() as u32;
    f.tags.extend((0..STAR_TAGS).map(|t| format!("star-{t}")));
    let star_rows = STAR_TAGS * (STAR_RUN + 1) * STAR_ROUNDS;
    let step = (QC_ENTRY_US * products as u64 / star_rows as u64).max(1);
    let mut k = 0u64;
    for round in 0..STAR_ROUNDS {
        let rot = (mix(seed ^ round as u64) % STAR_TAGS as u64) as usize;
        for s in 0..=STAR_RUN {
            for t in 0..STAR_TAGS {
                let tag = star_base + ((t + rot) % STAR_TAGS) as u32;
                let stream = if s < STAR_RUN { 4 } else { 5 };
                let ts = Timestamp::from_secs(1) + Duration::from_micros(k * step + 1);
                keyed.push((ts, stream, k as usize, tag));
                k += 1;
            }
        }
    }
    keyed.sort_unstable();
    for (ts, s, _, tag) in keyed {
        f.push(s, tag, ts);
    }
    f
}
