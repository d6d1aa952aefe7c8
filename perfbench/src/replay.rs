//! Direct replays of a workload's feed into the operators the planner
//! lowers its queries to, outside the engine.
//!
//! The `seq_modes` replay drives `eslev-core` detectors: it gives the
//! `core.*` metrics and, by comparing its matches with the engine's
//! outputs, checks the planner's lowering. The E1 replay drives the
//! `Dedup` operator (and, for `e1_disorder`'s FAST query, a
//! `SpeculativeGate` around one): it measures the operator layer on its
//! own, independently of the admission ablation arm.

use eslev_core::prelude::*;
use eslev_dsms::prelude::*;

use std::time::Instant;

use crate::gen::CompactFeed;
use crate::stats::{BagDigest, SeqDigest};
use crate::sut::row_hash;
use crate::trace::Tracer;

/// Per-detector counters of one replay.
#[derive(Default, Clone)]
pub struct CoreStats {
    pub on_tuple_calls: u64,
    pub on_tuple_ns: u64,
    pub on_punct_calls: u64,
    pub on_punct_ns: u64,
    pub peak_partitions: usize,
    pub retained_end: usize,
    pub matches: u64,
}

pub struct Replay {
    pub stats: Vec<CoreStats>,
    /// Digest of each detector's projected matches, in emission order.
    pub digests: Vec<SeqDigest>,
}

fn qc_detector(mode: PairingMode) -> Result<Detector> {
    let pattern = SeqPattern::new(
        (0..4).map(Element::new).collect(),
        Some(EventWindow::preceding(Duration::from_mins(2), 3)),
        mode,
    )?;
    Detector::new(DetectorConfig::seq(pattern).with_partition(vec![Expr::col(1); 4]))
}

fn star_detector() -> Result<Detector> {
    let pattern = SeqPattern::new(
        vec![Element::star(0), Element::new(1)],
        None,
        PairingMode::Chronicle,
    )?;
    Detector::new(DetectorConfig::seq(pattern).with_partition(vec![Expr::col(1); 2]))
}

/// The projected row of a match, as the planned query renders it.
fn match_row(q: usize, m: &SeqMatch) -> Vec<Value> {
    if q < 3 {
        // SELECT C1.tagid, C4.tagtime
        vec![
            m.binding(0).last().value(1).clone(),
            m.binding(3).last().value(2).clone(),
        ]
    } else {
        // SELECT COUNT(R1*), R2.tagid
        vec![
            Value::Int(m.binding(0).count() as i64),
            m.binding(1).last().value(1).clone(),
        ]
    }
}

fn record(q: usize, outs: Vec<DetectorOutput>, stats: &mut CoreStats, digest: &mut SeqDigest) {
    for o in outs {
        if let Some(m) = o.as_match() {
            stats.matches += 1;
            digest.add(row_hash(&match_row(q, m), m.ts()));
        }
    }
}

/// Replay `feed` through the four detectors, following the engine's
/// per-tuple schedule: a punctuation to every detector whenever event
/// time advances, then the tuple to the detectors that read its stream.
pub fn replay(feed: &CompactFeed, tr: &mut Tracer) -> Result<Replay> {
    let mut dets = [
        qc_detector(PairingMode::Recent)?,
        qc_detector(PairingMode::Chronicle)?,
        qc_detector(PairingMode::Consecutive)?,
        star_detector()?,
    ];
    let mut stats = vec![CoreStats::default(); dets.len()];
    let mut digests = vec![SeqDigest::new(); dets.len()];
    let (interner, codec) = interned();
    for det in &mut dets {
        det.bind_codec(&codec);
    }
    let mut now = Timestamp::ZERO;
    for i in 0..feed.len() {
        let t = tuple(feed, i, &interner);
        let ts = t.ts();
        let stream = feed.stream[i] as usize;
        if ts > now {
            now = ts;
            for (q, det) in dets.iter_mut().enumerate() {
                let start = std::time::Instant::now();
                let outs = tr.span("core.on_punctuation", || det.on_punctuation(ts))?;
                stats[q].on_punct_ns += start.elapsed().as_nanos() as u64;
                stats[q].on_punct_calls += 1;
                record(q, outs, &mut stats[q], &mut digests[q]);
            }
        }
        // Streams c1..c4 feed the three QC detectors, r1/r2 the star.
        let (targets, port) = if stream < 4 {
            (0..3, stream)
        } else {
            (3..4, stream - 4)
        };
        for q in targets {
            let det = &mut dets[q];
            let start = std::time::Instant::now();
            let outs = tr.span("core.on_tuple", || det.on_tuple(port, &t))?;
            stats[q].on_tuple_ns += start.elapsed().as_nanos() as u64;
            stats[q].on_tuple_calls += 1;
            stats[q].peak_partitions = stats[q].peak_partitions.max(det.partitions());
            record(q, outs, &mut stats[q], &mut digests[q]);
        }
    }
    for (q, det) in dets.iter().enumerate() {
        stats[q].retained_end = det.retained();
    }
    Ok(Replay { stats, digests })
}

/// Outcome of an E1 operator replay.
pub struct OpsReplay {
    /// Time inside operator calls, in nanoseconds.
    pub ns: u64,
    /// Outputs of the in-order dedup.
    pub dedup_rows: u64,
    /// Whether the FAST gate's outputs, retractions applied, equal the
    /// in-order dedup's (`true` when there is no FAST query).
    pub fast_reconciles: bool,
}

/// Example 1's `NOT EXISTS` as the planner lowers it: a dedup keyed on
/// `(reader_id, tag_id)` over a 1 s window.
fn e1_dedup() -> Box<dyn Operator> {
    Box::new(Dedup::new(
        vec![Expr::col(0), Expr::col(1)],
        Duration::from_secs(1),
    ))
}

/// An interner and the key codec over it, as an engine binds its
/// operators to.
fn interned() -> (InternerRef, KeyCodec) {
    let interner: InternerRef = std::sync::Arc::new(StrInterner::new());
    let codec = KeyCodec::interned(interner.clone());
    (interner, codec)
}

/// Row `i` of `feed` as a tuple, its strings interned as the engine's
/// admission interns them.
fn tuple(feed: &CompactFeed, i: usize, interner: &StrInterner) -> Tuple {
    let mut values = feed.values(i);
    for v in &mut values {
        interner.canonicalize(v);
    }
    Tuple::new(values, Timestamp::from_micros(feed.ts[i]), i as u64)
}

/// Replay the E1 feed into the dedup the way the engine delivers it:
/// batches of `batch` rows in event-time order, each followed by a
/// punctuation at its newest event time. With `arrival` (the perturbed
/// order of `e1_disorder`) the feed also goes, in arrival order, to a
/// FAST `SpeculativeGate` around a second dedup, punctuated at the
/// frontier the reorder slack proves.
pub fn e1_replay(
    feed: &CompactFeed,
    batch: usize,
    arrival: Option<(&[u32], Duration)>,
) -> Result<OpsReplay> {
    let mut ns = 0u64;
    let mut out = Vec::new();
    let (interner, codec) = interned();
    let mut dedup = e1_dedup();
    dedup.bind_interner(&codec);
    let mut in_order = BagDigest::default();
    let mut dedup_rows = 0u64;
    for lo in (0..feed.len()).step_by(batch) {
        let tuples: Vec<Tuple> = (lo..(lo + batch).min(feed.len()))
            .map(|i| tuple(feed, i, &interner))
            .collect();
        let last = tuples.last().expect("non-empty batch").ts();
        let start = Instant::now();
        dedup.process_batch(0, &tuples, &mut out)?;
        dedup.on_punctuation(last, &mut out)?;
        ns += start.elapsed().as_nanos() as u64;
        for t in out.drain(..) {
            dedup_rows += 1;
            in_order.add(row_hash(t.values(), t.ts()));
        }
    }
    let mut fast_reconciles = true;
    if let Some((order, slack)) = arrival {
        let mut gate = SpeculativeGate::new(e1_dedup(), true)?;
        gate.bind_interner(&codec);
        let mut fast = BagDigest::default();
        let mut newest = Timestamp::ZERO;
        let mut proven = Timestamp::ZERO;
        for chunk in order.chunks(batch) {
            let tuples: Vec<Tuple> = chunk
                .iter()
                .map(|&i| tuple(feed, i as usize, &interner))
                .collect();
            newest = tuples.iter().map(Tuple::ts).fold(newest, Timestamp::max);
            // Every later arrival is at most `slack` older than `newest`.
            let frontier = newest.saturating_sub(slack + Duration::from_micros(1));
            let start = Instant::now();
            gate.process_batch(0, &tuples, &mut out)?;
            if frontier > proven {
                proven = frontier;
                gate.on_punctuation(frontier, &mut out)?;
            }
            ns += start.elapsed().as_nanos() as u64;
            apply(&mut fast, &mut out);
        }
        let start = Instant::now();
        gate.on_punctuation(newest, &mut out)?;
        ns += start.elapsed().as_nanos() as u64;
        apply(&mut fast, &mut out);
        fast_reconciles = fast == in_order;
    }
    Ok(OpsReplay {
        ns,
        dedup_rows,
        fast_reconciles,
    })
}

fn apply(bag: &mut BagDigest, out: &mut Vec<Tuple>) {
    for t in out.drain(..) {
        let h = row_hash(t.values(), t.ts());
        if t.is_retraction() {
            bag.remove(h);
        } else {
            bag.add(h);
        }
    }
}
