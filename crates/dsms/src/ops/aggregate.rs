//! Windowed, grouped aggregation.
//!
//! Covers the paper's §2.1 "Data Aggregation" tasks: counts per hour,
//! min/max sensor values per patient, EPC-pattern counts (Example 3,
//! where the grouping is degenerate and the predicate upstream selects
//! the EPC pattern). Supports:
//!
//! * grouping by arbitrary expressions,
//! * any [`Aggregate`] from the registry (built-in or UDA),
//! * `RANGE d PRECEDING` sliding windows (incremental when the
//!   accumulator can retract, recompute-from-buffer otherwise),
//!   unbounded (cumulative) aggregation, and
//! * two emission policies: per-arrival (continuous) or on-punctuation
//!   (periodic report, the ALE reporting style).

use super::Operator;
use crate::agg::{Accumulator, AggregateRef};
use crate::ckpt::StateNode;
use crate::error::Result;
use crate::expr::Expr;
use crate::hash::FnvBuildHasher;
use crate::key::{KeyCodec, StateKey};
use crate::time::{Duration, Timestamp};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;
use std::collections::VecDeque;

/// Window shape for aggregation: time-based or row-count-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggWindow {
    /// `RANGE d PRECEDING` — retain tuples within `d` of the newest.
    Range(Duration),
    /// `ROWS n PRECEDING` — retain the most recent `n + 1` tuples
    /// (per group).
    Rows(usize),
}

/// One aggregate column: the function plus its argument expression.
pub struct AggSpec {
    /// Aggregate function (COUNT, SUM, ..., or a UDA).
    pub agg: AggregateRef,
    /// Argument expression, evaluated per input tuple.
    pub arg: Expr,
}

/// When aggregate rows are emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emission {
    /// Emit the affected group's current aggregates after every arrival —
    /// the continuous-query default.
    PerArrival,
    /// Emit all groups on every punctuation (ALE-style periodic reports),
    /// then reset unbounded accumulators per reporting period.
    OnPunctuation,
}

struct GroupState {
    /// Retained (ts, arg-value) pairs for the window; empty when unbounded
    /// (nothing ever retracts).
    window: VecDeque<(Timestamp, Vec<Value>)>,
    accs: Vec<Box<dyn Accumulator>>,
    /// Set when some accumulator failed to retract and the accumulators
    /// must be rebuilt from the window buffer before the next read.
    dirty: bool,
}

/// Grouped sliding-window aggregation operator.
///
/// Output rows are `group values ++ aggregate values`, timestamped at the
/// triggering arrival (or at the punctuation for periodic emission).
/// Groups key on compact [`StateKey`] encodings; probes reuse a scratch
/// buffer so existing groups are found without allocating.
pub struct WindowAggregate {
    group_by: Vec<Expr>,
    specs: Vec<AggSpec>,
    /// `None` = unbounded (cumulative) aggregation.
    window: Option<AggWindow>,
    emission: Emission,
    codec: KeyCodec,
    scratch: Vec<u8>,
    groups: HashMap<StateKey, GroupState, FnvBuildHasher>,
}

impl WindowAggregate {
    /// Build the operator. `window = None` aggregates over the whole
    /// stream history (cumulative).
    pub fn new(
        group_by: Vec<Expr>,
        specs: Vec<AggSpec>,
        window: Option<AggWindow>,
        emission: Emission,
    ) -> WindowAggregate {
        WindowAggregate {
            group_by,
            specs,
            window,
            emission,
            codec: KeyCodec::raw(),
            scratch: Vec::new(),
            groups: HashMap::default(),
        }
    }

    fn fresh_accs(specs: &[AggSpec]) -> Vec<Box<dyn Accumulator>> {
        specs.iter().map(|s| s.agg.init()).collect()
    }

    fn slide(window: AggWindow, specs: &[AggSpec], g: &mut GroupState, now: Timestamp) {
        let expired = |g: &GroupState| -> bool {
            match window {
                AggWindow::Range(d) => g
                    .window
                    .front()
                    .is_some_and(|(ts, _)| *ts < now.saturating_sub(d)),
                AggWindow::Rows(n) => g.window.len() > n + 1,
            }
        };
        while expired(g) {
            let (_, vals) = g.window.pop_front().expect("front checked");
            if !g.dirty {
                for (acc, v) in g.accs.iter_mut().zip(&vals) {
                    if acc.retract(v).is_err() {
                        g.dirty = true;
                        break;
                    }
                }
            }
        }
        if g.dirty {
            // Rebuild from the surviving window contents.
            g.accs = Self::fresh_accs(specs);
            for (_, vals) in &g.window {
                for (acc, v) in g.accs.iter_mut().zip(vals) {
                    acc.iterate(v)
                        .expect("re-iterate of previously accepted value");
                }
            }
            g.dirty = false;
        }
    }

    fn emit_group(
        codec: &KeyCodec,
        key: &[Value],
        g: &GroupState,
        ts: Timestamp,
        seq: u64,
    ) -> Tuple {
        let mut vals: Vec<Value> = key.to_vec();
        vals.extend(g.accs.iter().map(|a| a.terminate()));
        // Key values are already canonical (decoded through the codec or
        // evaluated from canonical inputs); accumulator outputs can be
        // freshly built strings (MIN/MAX over a string column), so they
        // route through the interner to stay canonical mid-chain.
        // `canonicalize` is a no-op match for non-string values.
        if let Some(int) = codec.interner() {
            for v in &mut vals[key.len()..] {
                int.canonicalize(v);
            }
        }
        Tuple::new(vals, ts, seq)
    }
}

impl Operator for WindowAggregate {
    fn on_tuple(&mut self, _port: usize, t: &Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        let key: Vec<Value> = self
            .group_by
            .iter()
            .map(|e| e.eval(&[t]))
            .collect::<Result<_>>()?;
        let args: Vec<Value> = self
            .specs
            .iter()
            .map(|s| s.arg.eval(&[t]))
            .collect::<Result<_>>()?;

        self.codec.encode_into(&mut self.scratch, &key);
        if !self.groups.contains_key(self.scratch.as_slice()) {
            self.groups.insert(
                StateKey::from_slice(&self.scratch),
                GroupState {
                    window: VecDeque::new(),
                    accs: Self::fresh_accs(&self.specs),
                    dirty: false,
                },
            );
        }
        let g = self
            .groups
            .get_mut(self.scratch.as_slice())
            .expect("group just ensured");
        for (acc, v) in g.accs.iter_mut().zip(&args) {
            acc.iterate(v)?;
        }
        if let Some(w) = self.window {
            g.window.push_back((t.ts(), args));
            Self::slide(w, &self.specs, g, t.ts());
        }
        if self.emission == Emission::PerArrival {
            out.push(Self::emit_group(&self.codec, &key, g, t.ts(), t.seq()));
        }
        Ok(())
    }

    fn on_punctuation(&mut self, ts: Timestamp, out: &mut Vec<Tuple>) -> Result<()> {
        if self.emission == Emission::OnPunctuation {
            // Emission order is by the decoded key's rendering —
            // identical to a `Vec<Value>` sort, so periodic reports do
            // not depend on the key codec.
            let mut keys: Vec<(Vec<Value>, StateKey)> = self
                .groups
                .keys()
                .map(|k| Ok((self.codec.decode(k.as_bytes())?, k.clone())))
                .collect::<Result<_>>()?;
            keys.sort_by(|a, b| format!("{:?}", a.0).cmp(&format!("{:?}", b.0)));
            for (vals, key) in keys {
                if let Some(w) = self.window {
                    let specs = &self.specs;
                    let g = self.groups.get_mut(&key).expect("key from map");
                    Self::slide(w, specs, g, ts);
                }
                let g = &self.groups[&key];
                out.push(Self::emit_group(&self.codec, &vals, g, ts, 0));
            }
            if self.window.is_none() {
                // Periodic reports over unbounded state restart each period
                // (tumbling behaviour, matching ALE report cycles).
                self.groups.clear();
            }
        } else if let Some(w) = self.window {
            // Keep sliding state tight even without arrivals (time
            // windows only — ROWS windows never expire by time); drop
            // groups whose windows emptied.
            if matches!(w, AggWindow::Range(_)) {
                let specs = &self.specs;
                for g in self.groups.values_mut() {
                    Self::slide(w, specs, g, ts);
                }
                self.groups.retain(|_, g| !g.window.is_empty());
            }
        }
        Ok(())
    }

    fn name(&self) -> &str {
        "aggregate"
    }

    fn bind_interner(&mut self, codec: &KeyCodec) {
        self.codec = codec.clone();
    }

    fn state_key_bytes(&self) -> usize {
        self.groups.keys().map(|k| k.len()).sum()
    }

    // Per-arrival emission re-slides the window at each arrival's own
    // timestamp, so punctuations only pre-expire rows the next arrival
    // would expire anyway; punctuation emission, by contrast, *is* the
    // output schedule and every watermark matters.
    fn punctuation_sensitive(&self) -> bool {
        self.emission == Emission::OnPunctuation
    }

    fn retained(&self) -> usize {
        self.groups.values().map(|g| g.window.len().max(1)).sum()
    }

    fn save_state(&self) -> Result<StateNode> {
        // Keys decode back to values: the checkpoint format is the same
        // whichever key codec the operator runs.
        let mut keys: Vec<(Vec<Value>, &StateKey)> = self
            .groups
            .keys()
            .map(|k| Ok((self.codec.decode(k.as_bytes())?, k)))
            .collect::<Result<_>>()?;
        keys.sort_by_key(|(k, _)| format!("{k:?}"));
        let groups = keys
            .into_iter()
            .map(|(key, state_key)| {
                let g = &self.groups[state_key];
                let key_node =
                    StateNode::List(key.iter().map(|v| StateNode::Value(v.clone())).collect());
                let window = StateNode::List(
                    g.window
                        .iter()
                        .map(|(ts, vals)| {
                            let mut entry = vec![StateNode::ts(*ts)];
                            entry.extend(vals.iter().map(|v| StateNode::Value(v.clone())));
                            StateNode::List(entry)
                        })
                        .collect(),
                );
                let accs = StateNode::List(
                    g.accs
                        .iter()
                        .map(|a| a.save_state())
                        .collect::<Result<_>>()?,
                );
                Ok(StateNode::List(vec![
                    key_node,
                    window,
                    accs,
                    StateNode::Bool(g.dirty),
                ]))
            })
            .collect::<Result<_>>()?;
        Ok(StateNode::List(groups))
    }

    fn restore_state(&mut self, state: &StateNode) -> Result<()> {
        self.groups.clear();
        for gnode in state.as_list()? {
            let key = gnode
                .item(0)?
                .as_list()?
                .iter()
                .map(|v| v.as_value().cloned())
                .collect::<Result<Vec<Value>>>()?;
            let mut window = VecDeque::new();
            for entry in gnode.item(1)?.as_list()? {
                let parts = entry.as_list()?;
                if parts.is_empty() {
                    return Err(crate::error::DsmsError::ckpt("empty window entry"));
                }
                let ts = parts[0].as_ts()?;
                let vals = parts[1..]
                    .iter()
                    .map(|v| v.as_value().cloned())
                    .collect::<Result<Vec<Value>>>()?;
                window.push_back((ts, vals));
            }
            let acc_nodes = gnode.item(2)?.as_list()?;
            if acc_nodes.len() != self.specs.len() {
                return Err(crate::error::DsmsError::ckpt(format!(
                    "aggregate group has {} accumulators, checkpoint has {}",
                    self.specs.len(),
                    acc_nodes.len()
                )));
            }
            let mut accs = Self::fresh_accs(&self.specs);
            for (acc, node) in accs.iter_mut().zip(acc_nodes) {
                acc.restore_state(node)?;
            }
            self.groups.insert(
                self.codec.encode(&key),
                GroupState {
                    window,
                    accs,
                    dirty: gnode.item(3)?.as_bool()?,
                },
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateRegistry;

    fn t(tag: &str, v: i64, secs: u64, seq: u64) -> Tuple {
        Tuple::new(
            vec![Value::str(tag), Value::Int(v)],
            Timestamp::from_secs(secs),
            seq,
        )
    }

    fn count_sum(window: Option<AggWindow>, emission: Emission) -> WindowAggregate {
        let reg = AggregateRegistry::new();
        WindowAggregate::new(
            vec![Expr::col(0)],
            vec![
                AggSpec {
                    agg: reg.get("count").unwrap(),
                    arg: Expr::col(1),
                },
                AggSpec {
                    agg: reg.get("sum").unwrap(),
                    arg: Expr::col(1),
                },
            ],
            window,
            emission,
        )
    }

    #[test]
    fn cumulative_per_arrival() {
        let mut agg = count_sum(None, Emission::PerArrival);
        let mut out = Vec::new();
        agg.on_tuple(0, &t("a", 10, 0, 0), &mut out).unwrap();
        agg.on_tuple(0, &t("a", 5, 1, 1), &mut out).unwrap();
        agg.on_tuple(0, &t("b", 7, 2, 2), &mut out).unwrap();
        assert_eq!(out.len(), 3);
        // key, count, sum
        assert_eq!(
            out[1].values(),
            &[Value::str("a"), Value::Int(2), Value::Int(15)]
        );
        assert_eq!(
            out[2].values(),
            &[Value::str("b"), Value::Int(1), Value::Int(7)]
        );
    }

    #[test]
    fn sliding_window_retracts() {
        let mut agg = count_sum(
            Some(AggWindow::Range(Duration::from_secs(10))),
            Emission::PerArrival,
        );
        let mut out = Vec::new();
        agg.on_tuple(0, &t("a", 1, 0, 0), &mut out).unwrap();
        agg.on_tuple(0, &t("a", 2, 5, 1), &mut out).unwrap();
        // t=20: first two readings (0, 5) are out of the 10s window.
        agg.on_tuple(0, &t("a", 4, 20, 2), &mut out).unwrap();
        assert_eq!(
            out[2].values(),
            &[Value::str("a"), Value::Int(1), Value::Int(4)]
        );
    }

    #[test]
    fn sliding_window_min_recomputes() {
        // MIN cannot retract, exercising the rebuild path.
        let reg = AggregateRegistry::new();
        let mut agg = WindowAggregate::new(
            vec![],
            vec![AggSpec {
                agg: reg.get("min").unwrap(),
                arg: Expr::col(1),
            }],
            Some(AggWindow::Range(Duration::from_secs(10))),
            Emission::PerArrival,
        );
        let mut out = Vec::new();
        agg.on_tuple(0, &t("a", 1, 0, 0), &mut out).unwrap();
        agg.on_tuple(0, &t("a", 5, 5, 1), &mut out).unwrap();
        assert_eq!(out[1].values(), &[Value::Int(1)]);
        // t=12: the min=1 reading at t=0 expires; min becomes 5.
        agg.on_tuple(0, &t("a", 9, 12, 2), &mut out).unwrap();
        assert_eq!(out[2].values(), &[Value::Int(5)]);
    }

    #[test]
    fn punctuation_emission_reports_all_groups() {
        let mut agg = count_sum(None, Emission::OnPunctuation);
        let mut out = Vec::new();
        agg.on_tuple(0, &t("a", 1, 0, 0), &mut out).unwrap();
        agg.on_tuple(0, &t("b", 2, 1, 1), &mut out).unwrap();
        assert!(out.is_empty());
        agg.on_punctuation(Timestamp::from_secs(60), &mut out)
            .unwrap();
        assert_eq!(out.len(), 2);
        // Next period starts fresh (tumbling).
        out.clear();
        agg.on_tuple(0, &t("a", 9, 61, 2), &mut out).unwrap();
        agg.on_punctuation(Timestamp::from_secs(120), &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].values(),
            &[Value::str("a"), Value::Int(1), Value::Int(9)]
        );
    }

    #[test]
    fn rows_window_slides_by_count() {
        // ROWS 1 PRECEDING = current + one previous row, per group.
        let mut agg = count_sum(Some(AggWindow::Rows(1)), Emission::PerArrival);
        let mut out = Vec::new();
        agg.on_tuple(0, &t("a", 10, 0, 0), &mut out).unwrap();
        agg.on_tuple(0, &t("a", 20, 1, 1), &mut out).unwrap();
        agg.on_tuple(0, &t("a", 30, 2, 2), &mut out).unwrap();
        assert_eq!(
            out[2].values(),
            &[Value::str("a"), Value::Int(2), Value::Int(50)]
        );
        // ROWS windows count per group, not globally.
        agg.on_tuple(0, &t("b", 7, 3, 3), &mut out).unwrap();
        assert_eq!(
            out[3].values(),
            &[Value::str("b"), Value::Int(1), Value::Int(7)]
        );
        // Time never expires a ROWS window.
        agg.on_punctuation(Timestamp::from_secs(1_000_000), &mut out)
            .unwrap();
        assert!(agg.retained() > 0);
    }

    #[test]
    fn punctuation_prunes_expired_sliding_groups() {
        let mut agg = count_sum(
            Some(AggWindow::Range(Duration::from_secs(1))),
            Emission::PerArrival,
        );
        let mut out = Vec::new();
        agg.on_tuple(0, &t("a", 1, 0, 0), &mut out).unwrap();
        assert_eq!(agg.retained(), 1);
        agg.on_punctuation(Timestamp::from_secs(100), &mut out)
            .unwrap();
        assert_eq!(agg.retained(), 0);
    }
}
