//! The run: phases, correctness gates and metric assembly.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use eslev_bench::count_alloc;
use eslev_dsms::prelude::*;

use crate::gen::{e1_feed, perturbed_order, seq_feed, CompactFeed, QC_PRODUCTS};
use crate::replay::{e1_replay, replay, Replay};
use crate::stats::{calib_ns_per_iter, median, peak_rss_mb, quantile, BagDigest, SeqDigest};
use crate::sut::{disorder_slack, row_hash, Arm, Feed, Outputs, Sut, Workload, SEQ_QUERIES};
use crate::trace::{Tracer, LAYER_SPANS, PHASES};
use crate::Args;

/// Input sizes of one rep.
///
/// An end-to-end run takes a third of the per-layer run's E1 feed, so
/// that a run holds many reps: its figures are each taken from the
/// run's best reps (see `run`).
struct Sizes {
    /// E1 presences per rep (about two rows each).
    e1_presences: usize,
    /// QC products per `seq_modes` rep.
    seq_products: usize,
}

fn sizes(smoke: bool, trace: bool) -> Sizes {
    if smoke {
        Sizes {
            e1_presences: 2_000,
            seq_products: 200,
        }
    } else {
        Sizes {
            e1_presences: if trace { 60_000 } else { 20_000 },
            seq_products: QC_PRODUCTS,
        }
    }
}

/// Set-up samples per burst behind the `setup_s` median, after warm-up
/// builds.
const SETUP_REPS: usize = 10;
const SETUP_WARMUP: usize = 2;

/// Outputs seen by one rep, reduced to digests.
#[derive(Clone)]
struct Check {
    /// Per slot: non-retraction outputs, in order.
    ordered: Vec<SeqDigest>,
    /// Per slot: outputs as a multiset, retractions subtracted.
    bag: Vec<BagDigest>,
    retractions: u64,
}

impl Check {
    fn new() -> Check {
        Check {
            ordered: vec![SeqDigest::new(); SEQ_QUERIES.len()],
            bag: vec![BagDigest::default(); SEQ_QUERIES.len()],
            retractions: 0,
        }
    }

    fn add(&mut self, q: usize, t: &Tuple) {
        let h = row_hash(t.values(), t.ts());
        if t.is_retraction() {
            self.retractions += 1;
            self.bag[q].remove(h);
        } else {
            self.ordered[q].add(h);
            self.bag[q].add(h);
        }
    }

    fn outputs(&self) -> u64 {
        self.ordered.iter().map(|d| d.count).sum::<u64>() + self.retractions
    }
}

#[derive(Clone, Copy)]
enum Loop {
    Closed,
    /// After the first `OPEN_WARMUP` share of the feed (pushed closed
    /// loop, unrecorded), batches are due on a fixed schedule of `rate`
    /// rows per second.
    Open {
        rate: f64,
    },
}

/// Share of an open-loop rep's feed pushed closed loop first, so the
/// recorded part runs against grown state.
const OPEN_WARMUP: f64 = 0.25;

/// Lag growth over an open-loop rep above which the run is flagged.
const BACKLOG_FLAG_US: f64 = 1_000.0;

/// Rounds of a per-layer run (each with one traced rep), at least.
const MIN_LAYER_ROUNDS: u64 = 5;

/// Shard-arm reps of `e1_dedup`'s per-layer run.
const SHARD_REPS: u64 = 3;

/// Rounds of a per-layer run, at most.
const MAX_LAYER_ROUNDS: u64 = 60;

/// Rounds (set-up burst, closed-loop rep, open-loop rep) per end-to-end
/// run, at least.
const MIN_ROUNDS: usize = 5;

/// The traced feed time the layer breakdown must account for, in %.
const ACCOUNTED_PCT: std::ops::RangeInclusive<f64> = 90.0..=110.0;

/// Operator counters from `Engine::query_report`, by stage kind.
#[derive(Default, Clone)]
struct Stage {
    rows_in: u64,
    rows_out: u64,
    retained: u64,
}

#[derive(Default, Clone)]
struct EndState {
    dedup: Stage,
    gate: Stage,
    seq: Stage,
    retractions: u64,
    state_key_bytes: u64,
    ckpt_bytes: u64,
    ckpt_ns: u64,
    intern_entries: u64,
    intern_bytes: u64,
    journal_entries: u64,
    routed: u64,
}

fn walk(r: &OpReport, e: &mut EndState) {
    let stage = match r.name.as_str() {
        "dedup" | "not-exists" => Some(&mut e.dedup),
        "seq-detector" => Some(&mut e.seq),
        n if n.starts_with("speculat") => Some(&mut e.gate),
        _ => None,
    };
    if let Some(s) = stage {
        s.rows_in += r.tuples_in;
        s.rows_out += r.tuples_out;
        s.retained += r.retained as u64;
    }
    for (k, v) in &r.counters {
        if k == "retractions" {
            e.retractions += v;
        }
    }
    for c in &r.children {
        walk(c, e);
    }
}

/// Engine-side end-of-feed state of one engine (runs on shard workers too).
fn engine_end_state(engine: &Engine) -> Result<(EndState, u64)> {
    let mut e = EndState::default();
    for q in engine.query_stats() {
        walk(&engine.query_report(q.id), &mut e);
    }
    e.state_key_bytes = engine.state_key_bytes() as u64;
    let (entries, bytes) = engine.interner_stats();
    e.intern_entries = entries as u64;
    e.intern_bytes = bytes as u64;
    let start = Instant::now();
    e.ckpt_bytes = engine.checkpoint()?.to_bytes().len() as u64;
    Ok((e, start.elapsed().as_nanos() as u64))
}

fn add_stage(a: &mut Stage, b: &Stage) {
    a.rows_in += b.rows_in;
    a.rows_out += b.rows_out;
    a.retained += b.retained;
}

fn end_state(sut: &mut Sut, tr: &mut Tracer) -> Result<EndState> {
    match sut {
        Sut::Single { engine, .. } => {
            let engine = &*engine;
            let (mut e, ns) = tr.span("state.checkpoint", || engine_end_state(engine))?;
            e.ckpt_ns = ns;
            Ok(e)
        }
        Sut::Sharded { se, .. } => {
            let parts = tr.span("state.checkpoint", || {
                se.exec_all(|e| engine_end_state(e).map_err(|err| err.to_string()))
            })?;
            let mut e = EndState::default();
            for part in parts {
                let (p, ns) = part.map_err(DsmsError::plan)?;
                add_stage(&mut e.dedup, &p.dedup);
                add_stage(&mut e.gate, &p.gate);
                add_stage(&mut e.seq, &p.seq);
                e.retractions += p.retractions;
                e.state_key_bytes += p.state_key_bytes;
                e.ckpt_bytes += p.ckpt_bytes;
                e.ckpt_ns += ns;
                e.intern_entries += p.intern_entries;
                e.intern_bytes += p.intern_bytes;
            }
            e.journal_entries = se
                .recovery_stats()
                .shards
                .iter()
                .map(|s| s.journal_len as u64)
                .sum();
            e.routed = se.shard_stats().iter().map(|s| s.routed).sum();
            Ok(e)
        }
    }
}

/// One pass of a feed through a freshly set-up system.
struct Rep {
    rows: u64,
    /// Time inside calls into the system after set-up (push, collect,
    /// flush), in nanoseconds.
    call_ns: u64,
    calls: u64,
    check: Check,
    peak_buffered: u64,
    late: u64,
    end: Option<EndState>,
}

fn ts_of(values: &[Value]) -> u64 {
    match values.get(2) {
        Some(Value::Ts(t)) => t.as_micros(),
        _ => 0,
    }
}

struct Recorders<'a> {
    /// Output latencies in ns.
    latency: Option<&'a mut Vec<u32>>,
    /// How late each open-loop batch was pushed, in ns.
    lag: Option<&'a mut Vec<u32>>,
}

impl Recorders<'_> {
    fn none() -> Recorders<'static> {
        Recorders {
            latency: None,
            lag: None,
        }
    }
}

fn run_rep(
    w: Workload,
    arm: Arm,
    mut feed: Feed,
    lp: Loop,
    tr: &mut Tracer,
    rec: Recorders<'_>,
    capture_end: bool,
) -> Result<Rep> {
    let Recorders {
        mut latency,
        mut lag,
    } = rec;
    tr.begin_phase("setup");
    let mut sut = Sut::setup(w, arm, tr)?;
    tr.end_phase();

    let batch = w.batch();
    let track_reorder = w == Workload::E1Disorder && arm != Arm::AdmitOnly;
    // Due time (ns since the schedule started) of the batch that carried
    // each input event time; an output is timed from its input's due.
    let mut due: BTreeMap<u64, u64> = BTreeMap::new();
    let mut check = Check::new();
    let mut outs: Outputs = Vec::new();
    let mut rows = 0u64;
    let mut call_ns = 0u64;
    let mut calls = 0u64;
    let mut peak_buffered = 0u64;
    let total = feed.len().max(1) as u64;
    let mut scheduled = false;
    let mut warmup_rows = match lp {
        Loop::Closed => total,
        Loop::Open { .. } => (total as f64 * OPEN_WARMUP) as u64,
    };
    let mut origin = Instant::now();

    // `now`: collection time, ns since the schedule's origin.
    let mut collect =
        |outs: &mut Outputs, check: &mut Check, due: &BTreeMap<u64, u64>, now: u64| {
            for (q, t) in outs.drain(..) {
                // Outputs of inputs pushed during the warm-up have no due time.
                if let (Some(h), false, Some(d)) = (
                    latency.as_deref_mut(),
                    t.is_retraction(),
                    due.get(&t.ts().as_micros()),
                ) {
                    h.push(u32::try_from(now.saturating_sub(*d)).unwrap_or(u32::MAX));
                }
                check.add(q, &t);
            }
        };

    let uncollected = |outs: &mut Outputs, check: &mut Check| {
        for (q, t) in outs.drain(..) {
            check.add(q, &t);
        }
    };

    tr.begin_phase("feed");
    loop {
        let chunk = feed.next_batch(batch);
        if chunk.is_empty() {
            break;
        }
        let n = chunk.len() as u64;
        let open = match lp {
            Loop::Open { rate } if rows >= warmup_rows => Some(rate),
            _ => None,
        };
        if open.is_some() && !scheduled {
            // The warm-up is over: start the schedule.
            scheduled = true;
            warmup_rows = rows;
            origin = Instant::now();
        }
        if let Some(rate) = open {
            let due_ns = ((rows - warmup_rows + n) as f64 / rate * 1e9) as u64;
            // The benchmark's bookkeeping is done before the batch is
            // due, so it never counts in a latency.
            for (_, v) in &chunk {
                due.entry(ts_of(v)).or_insert(due_ns);
            }
            // Outputs carry recent event times; forget inputs an hour
            // of event time behind the newest as they age.
            if let Some(&newest) = due.keys().next_back() {
                let horizon = newest.saturating_sub(3_600_000_000);
                while due.first_key_value().is_some_and(|(&ts, _)| ts < horizon) {
                    due.pop_first();
                }
            }
            let mut now = origin.elapsed().as_nanos() as u64;
            while now < due_ns {
                // Spin rather than sleep: waking a sleeping thread on a
                // busy virtual machine can take milliseconds, which would
                // show up as generator lag and output latency.
                std::hint::spin_loop();
                now = origin.elapsed().as_nanos() as u64;
            }
            if let Some(l) = lag.as_deref_mut() {
                l.push(u32::try_from(now - due_ns).unwrap_or(u32::MAX));
            }
        }
        let b = sut.prepare(w, chunk);
        let start = Instant::now();
        calls += sut.push(b, tr, &mut outs)?;
        call_ns += start.elapsed().as_nanos() as u64;
        rows += n;
        if open.is_some() {
            collect(
                &mut outs,
                &mut check,
                &due,
                origin.elapsed().as_nanos() as u64,
            );
        } else {
            uncollected(&mut outs, &mut check);
        }
        if track_reorder {
            peak_buffered = peak_buffered.max(sut.buffered());
        }
    }
    tr.end_phase();

    tr.begin_phase("drain");
    let start = Instant::now();
    calls += sut.finish(tr, &mut outs)?;
    call_ns += start.elapsed().as_nanos() as u64;
    collect(
        &mut outs,
        &mut check,
        &due,
        origin.elapsed().as_nanos() as u64,
    );
    tr.end_phase();

    let end = if capture_end {
        Some(end_state(&mut sut, tr)?)
    } else {
        None
    };
    let late = sut.late_tuples();
    sut.stop()?;
    Ok(Rep {
        rows,
        call_ns,
        calls,
        check,
        peak_buffered,
        late,
        end,
    })
}

/// Everything one run needs to build feeds and judge outputs.
struct Ctx {
    w: Workload,
    seed: u64,
    data: Arc<CompactFeed>,
    /// Arrival order of the perturbed feed (`e1_disorder`).
    perturbed: Option<Arc<Vec<u32>>>,
    /// In-order single-engine outputs of the E1 feed.
    e1_reference: Option<Check>,
    /// Detector replay of the `seq_modes` feed.
    replay: Option<Replay>,
}

impl Ctx {
    fn feed(&self, arm: Arm) -> Feed {
        let order = if arm == Arm::AdmitOnly {
            None
        } else {
            self.perturbed.clone()
        };
        Feed::new(self.data.clone(), order)
    }

    /// Correctness gates of a rep: the number of failed outputs (0 when
    /// every gate passes).
    fn failures(&self, arm: Arm, rep: &Rep) -> u64 {
        let mut failed = 0u64;
        let mut gate = |ok: bool, miss: u64| {
            if !ok {
                failed += miss.max(1);
            }
        };
        let diff = |a: u64, b: u64| a.abs_diff(b);
        let got = &rep.check;
        match arm {
            Arm::Full => {}
            Arm::AdmitOnly => return failed,
            Arm::ReorderOnly => {
                gate(rep.late == 0, rep.late);
                return failed;
            }
            Arm::Sharded => {
                let want = self
                    .e1_reference
                    .as_ref()
                    .expect("reference is built for the shard arm");
                gate(
                    got.ordered[0] == want.ordered[0],
                    diff(got.ordered[0].count, want.ordered[0].count),
                );
                gate(
                    got.ordered[0].count == self.data.presences,
                    diff(got.ordered[0].count, self.data.presences),
                );
                return failed;
            }
        }
        match self.w {
            Workload::E1Dedup => {
                gate(
                    got.ordered[0].count == self.data.presences,
                    diff(got.ordered[0].count, self.data.presences),
                );
            }
            Workload::E1Disorder => {
                let want = self
                    .e1_reference
                    .as_ref()
                    .expect("reference is built for e1_disorder");
                gate(
                    got.ordered[0] == want.ordered[0],
                    diff(got.ordered[0].count, want.ordered[0].count),
                );
                gate(rep.late == 0, rep.late);
                gate(
                    got.bag[1] == want.bag[0],
                    got.bag[1].count.abs_diff(want.bag[0].count),
                );
                gate(
                    got.ordered[0].count == self.data.presences,
                    diff(got.ordered[0].count, self.data.presences),
                );
            }
            Workload::SeqModes => {
                let want = self.replay.as_ref().expect("replay is built for seq_modes");
                for q in 0..SEQ_QUERIES.len() {
                    gate(
                        got.ordered[q] == want.digests[q],
                        diff(got.ordered[q].count, want.digests[q].count),
                    );
                }
            }
        }
        failed
    }
}

/// Attempted and failed operations across the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Run one rep and book its calls, outputs and gate failures.
    fn rep(
        &mut self,
        ctx: &Ctx,
        arm: Arm,
        lp: Loop,
        tr: &mut Tracer,
        rec: Recorders<'_>,
        capture_end: bool,
    ) -> Option<Rep> {
        match run_rep(ctx.w, arm, ctx.feed(arm), lp, tr, rec, capture_end) {
            Ok(rep) => {
                self.attempted += rep.calls + rep.check.outputs();
                let failed = ctx.failures(arm, &rep);
                if failed > 0 {
                    eprintln!(
                        "{} {arm:?}: correctness gate failed ({failed})",
                        ctx.w.name()
                    );
                }
                self.failed += failed;
                Some(rep)
            }
            Err(e) => {
                eprintln!("{} {arm:?}: call failed: {e}", ctx.w.name());
                self.attempted += 1;
                self.failed += 1;
                None
            }
        }
    }
}

/// Metric list of the result line.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn header(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"header\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rate_tps\": {}, \"scale\": {}, \"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"profile\": {}, \"git_rev\": {}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rate,
        json_str(if args.smoke { "smoke" } else { "full" }),
        json_str(&cpu_model()),
        json_str(&args.rustc),
        json_str(profile),
        json_str(&args.git_rev),
    )
}

/// Run the benchmark and return the result line.
pub fn run(args: &Args) -> Result<String> {
    let t0 = Instant::now();
    println!("{}", header(args));
    let budget = args.seconds;
    let until = |share: f64| t0 + StdDuration::from_secs_f64(budget * share);
    let w = args.workload;
    let calib_start = calib_ns_per_iter();

    let sizes = sizes(args.smoke, args.trace);
    let data = Arc::new(match w {
        Workload::SeqModes => seq_feed(args.seed, sizes.seq_products),
        _ => e1_feed(args.seed, sizes.e1_presences),
    });
    let perturbed = w
        .perturbed()
        .then(|| Arc::new(perturbed_order(&data, args.seed)));
    let mut ctx = Ctx {
        w,
        seed: args.seed,
        data,
        perturbed,
        e1_reference: None,
        replay: None,
    };
    let mut tally = Tally::default();

    // References for the correctness gates (untimed). In the traced run
    // the detector replay is recorded as a run of its own.
    let mut core_tr = if args.trace {
        Tracer::recording(args.seed.wrapping_mul(64).wrapping_add(60))
    } else {
        Tracer::totals()
    };
    // The in-order single-engine reference serves e1_disorder and the
    // shard arm of e1_dedup's per-layer run.
    match w {
        Workload::E1Dedup if !args.trace => {}
        Workload::E1Dedup | Workload::E1Disorder => {
            let feed = Feed::new(ctx.data.clone(), None);
            let rep = run_rep(
                Workload::E1Dedup,
                Arm::Full,
                feed,
                Loop::Closed,
                &mut Tracer::totals(),
                Recorders::none(),
                false,
            )?;
            ctx.e1_reference = Some(rep.check);
        }
        Workload::SeqModes => {
            core_tr.begin_phase("feed");
            ctx.replay = Some(replay(&ctx.data, &mut core_tr)?);
            core_tr.end_phase();
        }
    }

    let mut m = Metrics(Vec::new());
    let mut lag: Vec<u32> = Vec::new();
    if !args.trace {
        // Rounds of a set-up burst, a closed-loop rep (the whole feed as
        // fast as it is taken) and an open-loop rep (the fixed rate).
        // Every rep replays the same feed, so what the program does
        // recurs in each of them; what differs between reps is the
        // shared machine's interference, which only ever slows a rep.
        let mut setup = Vec::new();
        let mut rep_tps = Vec::new();
        // Per timed output, in output order: its lowest latency over the
        // open-loop reps, in ns.
        let mut best: Vec<u32> = Vec::new();
        // Each open-loop rep's own p99 over all its timed outputs, for the
        // summary on standard error.
        let mut rep_p99 = Vec::new();
        // The generator's lag, per open-loop rep: its p99 and its maximum,
        // in ns (not every lag, whose count grows with the run's reps).
        let mut lag_p99 = Vec::new();
        let mut lag_max = Vec::new();
        let mut open_reps = 0;
        let mut backlog_reps = 0;
        let mut rounds = 0;
        let mut round = StdDuration::ZERO;
        while rounds < MIN_ROUNDS || Instant::now() + round < until(0.95) {
            let start = Instant::now();
            rounds += 1;
            setup_samples(w, &mut setup)?;
            if let Some(rep) = tally.rep(
                &ctx,
                Arm::Full,
                Loop::Closed,
                &mut Tracer::totals(),
                Recorders::none(),
                false,
            ) {
                rep_tps.push(rep.rows as f64 / (rep.call_ns as f64 / 1e9));
            }
            let mut latency = Vec::new();
            let mut rep_lag = Vec::new();
            let rec = Recorders {
                latency: Some(&mut latency),
                lag: Some(&mut rep_lag),
            };
            if tally
                .rep(
                    &ctx,
                    Arm::Full,
                    Loop::Open { rate: args.rate },
                    &mut Tracer::totals(),
                    rec,
                    false,
                )
                .is_some()
            {
                if open_reps > 0 && latency.len() != best.len() {
                    // The feed is the same every rep, so are its outputs.
                    eprintln!(
                        "{}: an open-loop rep timed {} outputs, not {}",
                        w.name(),
                        latency.len(),
                        best.len()
                    );
                    tally.failed += 1;
                }
                rep_p99.push(quantile(&latency, 0.99));
                best.resize(best.len().max(latency.len()), u32::MAX);
                for (b, l) in best.iter_mut().zip(&latency) {
                    *b = (*b).min(*l);
                }
                open_reps += 1;
            }
            if lag_growth_us(&rep_lag) > BACKLOG_FLAG_US {
                backlog_reps += 1;
            }
            lag_p99.push(quantile(&rep_lag, 0.99));
            lag_max.push(quantile(&rep_lag, 1.0));
            round = start.elapsed();
        }
        // The best rep's throughput, and the latency quantiles over the
        // outputs' best latencies: each figure is the program's on the
        // machine at its quietest in the run (see README.md, Steadiness).
        m.put("throughput_tps", quantile(&rep_tps, 1.0), "1/s");
        m.put("latency_p50_us", quantile(&best, 0.5) / 1e3, "us");
        m.put("latency_p99_us", quantile(&best, 0.99) / 1e3, "us");
        m.put("setup_s", median(&setup), "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        eprintln!(
            "{}: {rounds} rounds; closed-loop tps per rep: median {:.0}, best {:.0}; {} outputs timed in each of {open_reps} open-loop reps, p99 per rep: median {:.1} us, worst {:.1} us; gen lag per rep: worst p99 {:.1} us, max {:.1} us; calib {:.3} -> {:.3} ns/iter",
            w.name(),
            median(&rep_tps),
            quantile(&rep_tps, 1.0),
            best.len(),
            median(&rep_p99) / 1e3,
            quantile(&rep_p99, 1.0) / 1e3,
            quantile(&lag_p99, 1.0) / 1e3,
            quantile(&lag_max, 1.0) / 1e3,
            calib_start,
            calib_ns_per_iter()
        );
        if backlog_reps > 0 {
            eprintln!(
                "FLAG {}: the open-loop backlog grew in {backlog_reps} of {rounds} reps; the rate may not be sustainable",
                w.name(),
            );
        }
    } else {
        per_layer(
            args,
            &ctx,
            &mut tally,
            &mut m,
            &mut lag,
            &core_tr,
            calib_start,
            &until,
        )?;
    }

    let correct = tally.failed == 0;
    let metrics: Vec<String> =
        m.0.iter()
            .map(|(k, v, u)| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_str(k),
                    json_str(u)
                )
            })
            .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    ))
}

/// How much the generator's lag grew over one open-loop rep: the median
/// lag of the last quarter of its batches minus that of the first, in µs.
/// A growing lag means a growing backlog.
fn lag_growth_us(lag: &[u32]) -> f64 {
    let q = lag.len() / 4;
    (quantile(&lag[lag.len() - q..], 0.5) - quantile(&lag[..q], 0.5)) / 1e3
}

/// Set-up samples (engine or shard build, DDL, planning) taken in a
/// burst, after a few unrecorded warm-up builds.
fn setup_samples(w: Workload, out: &mut Vec<f64>) -> Result<()> {
    for i in 0..SETUP_WARMUP + SETUP_REPS {
        let start = Instant::now();
        let sut = Sut::setup(w, Arm::Full, &mut Tracer::totals())?;
        if i >= SETUP_WARMUP {
            out.push(start.elapsed().as_secs_f64());
        }
        sut.stop()?;
    }
    Ok(())
}

/// The feed replayed straight into the workload's operators: the time
/// inside operator calls, in ns. A wrong replay output counts as a
/// failed operation.
fn ops_replay_ns(ctx: &Ctx, tally: &mut Tally) -> Result<f64> {
    tally.attempted += 1;
    if ctx.w == Workload::SeqModes {
        let r = replay(&ctx.data, &mut Tracer::totals())?;
        let want = ctx.replay.as_ref().expect("replay is built for seq_modes");
        if r.digests != want.digests {
            eprintln!("seq_modes: detector replays disagree");
            tally.failed += 1;
        }
        return Ok(r
            .stats
            .iter()
            .map(|s| (s.on_tuple_ns + s.on_punct_ns) as f64)
            .sum());
    }
    let arrival = ctx
        .perturbed
        .as_deref()
        .map(|o| (o.as_slice(), disorder_slack()));
    let r = e1_replay(&ctx.data, ctx.w.batch(), arrival)?;
    if r.dedup_rows != ctx.data.presences || !r.fast_reconciles {
        eprintln!(
            "{}: operator replay is wrong ({} of {} rows, FAST reconciles: {})",
            ctx.w.name(),
            r.dedup_rows,
            ctx.data.presences,
            r.fast_reconciles
        );
        tally.failed += 1;
    }
    Ok(r.ns as f64)
}

/// How much of a traced rep's feed time (feed and drain phases) the
/// layer breakdown accounts for, in %. The engine's ingest calls count
/// as `engine_ns_per_row`, the admission (and reorder) arm plus the
/// operator replay of the same round, each measured on its own, so an
/// engine cost that none of them explains shows as a shortfall;
/// everything else (the sink and the benchmark's own work) counts as its
/// traced self time.
fn accounted_pct(tr: &Tracer, rep: &Rep, engine_ns_per_row: f64) -> f64 {
    let feed_ns = (tr.total_ns("feed") + tr.total_ns("drain")) as f64;
    let engine = engine_ns_per_row * rep.rows as f64;
    let other: f64 = ["sink.take", "feed", "drain"]
        .iter()
        .map(|s| tr.self_ns(s) as f64)
        .sum();
    (engine + other) / feed_ns.max(1.0) * 100.0
}

/// Per-row cost of the engine's ingest calls in one rep, in ns.
fn engine_ns_per_row(tr: &Tracer, rows: u64) -> f64 {
    let ns = tr.layer_ns("dsms.push_batch") + tr.layer_ns("dsms.flush_disorder");
    ns as f64 / rows.max(1) as f64
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    ctx: &Ctx,
    tally: &mut Tally,
    m: &mut Metrics,
    lag: &mut Vec<u32>,
    core_tr: &Tracer,
    calib_start: f64,
    until: &dyn Fn(f64) -> Instant,
) -> Result<()> {
    let w = ctx.w;
    // Planning alone.
    let mut plan_ms = Vec::new();
    for _ in 0..SETUP_REPS {
        let mut tr = Tracer::totals();
        Sut::setup(w, Arm::Full, &mut tr)?.stop()?;
        plan_ms.push(tr.layer_ns("lang.execute") as f64 / 1e6);
    }

    // Allocation counts (all threads) of one admission-only and one full rep.
    let (admit_rep, admit_allocs) = count_alloc::measure(|| {
        tally.rep(
            ctx,
            Arm::AdmitOnly,
            Loop::Closed,
            &mut Tracer::totals(),
            Recorders::none(),
            false,
        )
    });
    let (full_rep, full_allocs) = count_alloc::measure(|| {
        tally.rep(
            ctx,
            Arm::Full,
            Loop::Closed,
            &mut Tracer::totals(),
            Recorders::none(),
            false,
        )
    });
    let per_row = |allocs: Option<u64>, rep: &Option<Rep>| -> Result<f64> {
        let allocs =
            allocs.ok_or_else(|| DsmsError::plan("the counting allocator is not installed"))?;
        Ok(allocs as f64 / rep.as_ref().map_or(1, |r| r.rows.max(1)) as f64)
    };

    // One open-loop rep for the generator's lag.
    let rec = Recorders {
        latency: None,
        lag: Some(&mut *lag),
    };
    tally.rep(
        ctx,
        Arm::Full,
        Loop::Open { rate: args.rate },
        &mut Tracer::totals(),
        rec,
        false,
    );

    // e1_dedup also sends its feed through the shard arm, traced as runs
    // of their own; the rep with the median call time gives the
    // dsms.shard metrics (0 on the other workloads).
    let mut shard_reps: Vec<(Tracer, Rep)> = Vec::new();
    if w == Workload::E1Dedup {
        for k in 0..SHARD_REPS {
            let mut tr = Tracer::recording(ctx.seed.wrapping_mul(64).wrapping_add(63 - k));
            if let Some(rep) = tally.rep(
                ctx,
                Arm::Sharded,
                Loop::Closed,
                &mut tr,
                Recorders::none(),
                true,
            ) {
                shard_reps.push((tr, rep));
            }
        }
    }
    shard_reps.sort_by_key(|(_, rep)| rep.call_ns);
    let shard = (!shard_reps.is_empty()).then(|| shard_reps.swap_remove(shard_reps.len() / 2));
    let no_shard = Tracer::totals();
    let (shard_tr, shard_rep) = shard
        .as_ref()
        .map_or((&no_shard, None), |(t, r)| (t, Some(r)));

    // Rounds of the ablation arms (full, admission only, reorder only),
    // the operator replay and a traced rep, so the machine's drift over
    // the run touches each of them alike.
    let mut full_ns = Vec::new();
    let mut full_tps = Vec::new();
    let mut admit_ns = Vec::new();
    let mut reorder_ns = Vec::new();
    let mut replay_ns = Vec::new();
    let mut traced_reps: Vec<(Tracer, Rep)> = Vec::new();
    let mut accounted = Vec::new();
    let arm = |tally: &mut Tally, arm: Arm| -> Option<(f64, Rep)> {
        let mut tr = Tracer::totals();
        let rep = tally.rep(ctx, arm, Loop::Closed, &mut tr, Recorders::none(), false)?;
        Some((engine_ns_per_row(&tr, rep.rows), rep))
    };
    let mut round = StdDuration::ZERO;
    let mut i = 0;
    while i < MIN_LAYER_ROUNDS || (Instant::now() + round < until(0.95) && i < MAX_LAYER_ROUNDS) {
        let start = Instant::now();
        if let Some((ns, rep)) = arm(tally, Arm::Full) {
            full_ns.push(ns);
            full_tps.push(rep.rows as f64 / (rep.call_ns as f64 / 1e9));
        }
        // Admission (plus reorder on e1_disorder) per tuple, this round.
        let mut ingest = arm(tally, Arm::AdmitOnly).map(|(ns, _)| ns);
        admit_ns.extend(ingest);
        if w == Workload::E1Disorder {
            ingest = arm(tally, Arm::ReorderOnly).map(|(ns, _)| ns);
            reorder_ns.extend(ingest);
        }
        let replay = ops_replay_ns(ctx, tally)? / ctx.data.len().max(1) as f64;
        replay_ns.push(replay);
        let mut tr = Tracer::recording(ctx.seed.wrapping_mul(64).wrapping_add(i));
        if let Some(rep) = tally.rep(
            ctx,
            Arm::Full,
            Loop::Closed,
            &mut tr,
            Recorders::none(),
            true,
        ) {
            if let Some(ingest) = ingest {
                accounted.push(accounted_pct(&tr, &rep, ingest + replay));
            }
            traced_reps.push((tr, rep));
        }
        i += 1;
        round = start.elapsed();
    }
    let admit = median(&admit_ns);
    let reorder = if w == Workload::E1Disorder {
        median(&reorder_ns) - admit
    } else {
        0.0
    };
    // The operators' share of the full arm, by difference.
    let ops_residual = median(&full_ns) - admit - reorder;
    if ops_residual < 0.0 {
        eprintln!(
            "FLAG {}: the full arm ran faster than its ablation arms ({ops_residual:.1} ns/tuple); ops.ns_per_tuple reads 0",
            w.name()
        );
    }
    let ops = ops_residual.max(0.0);
    let ops_replay = median(&replay_ns);

    // The traced rep with the median call time is the traced run.
    if traced_reps.is_empty() {
        return Err(DsmsError::plan("every traced rep failed"));
    }
    traced_reps.sort_by_key(|(_, rep)| rep.call_ns);
    let (tr, traced) = traced_reps.swap_remove(traced_reps.len() / 2);
    let rows = traced.rows.max(1) as f64;
    let traced_tps = rows / (traced.call_ns as f64 / 1e9);
    if let Some(path) = &args.spans {
        let written = (|| -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            tr.write_jsonl(&mut out)?;
            core_tr.write_jsonl(&mut out)?;
            shard_tr.write_jsonl(&mut out)?;
            std::io::Write::flush(&mut out)
        })();
        if let Err(e) = written {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
    }

    let end = traced.end.clone().unwrap_or_default();

    m.put("lang.plan_ms", median(&plan_ms), "ms");
    m.put("admit.ns_per_tuple", admit, "ns");
    m.put(
        "admit.allocs_per_tuple",
        per_row(admit_allocs, &admit_rep)?,
        "count",
    );
    m.put("reorder.ns_per_tuple", reorder, "ns");
    m.put(
        "reorder.peak_buffered",
        traced.peak_buffered as f64,
        "count",
    );
    m.put("reorder.late_tuples", traced.late as f64, "count");
    m.put("ops.ns_per_tuple", ops, "ns");
    m.put("ops.replay_ns_per_tuple", ops_replay, "ns");
    m.put("ops.state_key_bytes", end.state_key_bytes as f64, "bytes");
    m.put("ops.retractions", end.retractions as f64, "count");
    for (name, s) in [
        ("dedup", &end.dedup),
        ("gate", &end.gate),
        ("seq", &end.seq),
    ] {
        m.put(format!("ops.{name}.rows_in"), s.rows_in as f64, "count");
        m.put(format!("ops.{name}.rows_out"), s.rows_out as f64, "count");
        m.put(format!("ops.{name}.retained"), s.retained as f64, "count");
    }
    for (q, name) in SEQ_QUERIES.iter().enumerate() {
        let s = ctx
            .replay
            .as_ref()
            .map(|r| r.stats[q].clone())
            .unwrap_or_default();
        m.put(
            format!("core.{name}.on_tuple_ns"),
            s.on_tuple_ns as f64 / s.on_tuple_calls.max(1) as f64,
            "ns",
        );
        m.put(
            format!("core.{name}.on_punct_ns"),
            s.on_punct_ns as f64 / s.on_punct_calls.max(1) as f64,
            "ns",
        );
        m.put(
            format!("core.{name}.peak_partitions"),
            s.peak_partitions as f64,
            "count",
        );
        if *name != "star" {
            m.put(
                format!("core.{name}.retained_end"),
                s.retained_end as f64,
                "count",
            );
        }
        m.put(format!("core.{name}.matches"), s.matches as f64, "count");
    }
    let srows = shard_rep.map_or(1, |r| r.rows.max(1)) as f64;
    let souts = shard_rep.map_or(1, |r| r.check.outputs().max(1)) as f64;
    let send = shard_rep.and_then(|r| r.end.clone()).unwrap_or_default();
    m.put(
        "shard.ns_per_tuple",
        shard_rep.map_or(0.0, |r| r.call_ns as f64 / srows),
        "ns",
    );
    m.put(
        "shard.route_ns_per_tuple",
        shard_tr.layer_ns("shard.push_batch") as f64 / srows,
        "ns",
    );
    m.put(
        "shard.flush_ms",
        shard_tr.layer_ns("shard.flush") as f64 / 1e6,
        "ms",
    );
    m.put(
        "shard.merge_ns_per_row",
        shard_tr.layer_ns("shard.take_output") as f64 / souts,
        "ns",
    );
    m.put(
        "shard.journal_entries_end",
        send.journal_entries as f64,
        "count",
    );
    m.put("shard.routed", send.routed as f64, "count");
    let out_rows = traced.check.outputs().max(1) as f64;
    m.put("sink.rows_out", traced.check.outputs() as f64, "count");
    m.put(
        "sink.take_ns_per_row",
        tr.layer_ns("sink.take") as f64 / out_rows,
        "ns",
    );
    m.put("state.ckpt_bytes", end.ckpt_bytes as f64, "bytes");
    m.put("state.ckpt_ms", end.ckpt_ns as f64 / 1e6, "ms");
    m.put("intern.entries", end.intern_entries as f64, "count");
    m.put("intern.bytes", end.intern_bytes as f64, "bytes");
    m.put(
        "run.allocs_per_tuple",
        per_row(full_allocs, &full_rep)?,
        "count",
    );
    m.put(
        "run.error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    m.put("gen.lag_p99_us", quantile(lag, 0.99) / 1e3, "us");
    m.put("gen.lag_max_us", quantile(lag, 1.0) / 1e3, "us");
    m.put("gen.lag_growth_us", lag_growth_us(lag), "us");
    let calib_end = calib_ns_per_iter();
    m.put("calib.ns_per_iter", (calib_start + calib_end) / 2.0, "ns");
    m.put(
        "trace.overhead_pct",
        (median(&full_tps) / traced_tps - 1.0) * 100.0,
        "%",
    );

    let accounted = median(&accounted);
    eprintln!(
        "{}: ns/tuple full arm {:.1}, admission {admit:.1}, reorder {reorder:.1}, operator replay {ops_replay:.1}, traced engine calls {:.1}; accounted {accounted:.1}%",
        w.name(),
        median(&full_ns),
        engine_ns_per_row(&tr, traced.rows),
    );
    if !ACCOUNTED_PCT.contains(&accounted) {
        eprintln!(
            "FLAG {}: the layer breakdown accounts for {accounted:.1}% of the traced feed time",
            w.name()
        );
    }
    let feed_ns = tr.total_ns("feed") + tr.total_ns("drain");
    m.put("trace.feed_ms", feed_ns as f64 / 1e6, "ms");
    m.put("trace.accounted_pct", accounted, "%");
    for s in LAYER_SPANS.iter().chain(PHASES.iter()) {
        let ns = if s.starts_with("core.") {
            core_tr.self_ns(s)
        } else if s.starts_with("shard.") {
            shard_tr.self_ns(s)
        } else {
            tr.self_ns(s)
        };
        m.put(format!("self.{s}_ms"), ns as f64 / 1e6, "ms");
    }
    Ok(())
}
