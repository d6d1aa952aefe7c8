//! Checkpoint serialization substrate.
//!
//! Operator state is captured as a [`StateNode`] tree — a small,
//! self-describing value language (scalars, tuples, lists) that every
//! stateful operator can flatten itself into and rebuild itself from.
//! An [`EngineCheckpoint`] wraps one tree with the engine's stream
//! position (`next_seq`, watermark) plus a version byte and an FNV-1a
//! checksum, and encodes to a portable byte buffer.
//!
//! The encoding is hand-rolled (tag byte per node, little-endian
//! lengths) rather than serde-derived: the workspace vendors a no-op
//! `serde` stub, so checkpoints must not depend on derive machinery.
//! The format is versioned — [`CHECKPOINT_VERSION`] — and decoding a
//! buffer with a different version or a corrupt checksum is a typed
//! error, never a silent misparse.

use crate::error::{DsmsError, Result};
use crate::hash::FnvHasher;
use crate::time::Timestamp;
use crate::tuple::{Sign, Tuple};
use crate::value::Value;
use std::hash::Hasher;

/// Current checkpoint format version (bumped on incompatible changes).
/// Version 2 added the interner dictionary section; version-1 buffers
/// (no dictionary) still decode, with an empty dictionary. Version 3
/// added the shared-chain section to the engine root (shared subplan
/// state saved once, with a versioned subscriber list); version-2 roots
/// still decode and restore into engines without shared chains.
/// Version 4 added the dead-letter section to the engine root (rejected
/// rows with reason tags survive recovery) and a signed-tuple node tag
/// for speculative state; v3 roots still decode with an empty
/// dead-letter buffer, and plain tuples keep the v3 wire shape.
pub const CHECKPOINT_VERSION: u32 = 4;

const MAGIC: &[u8; 4] = b"ESCK";

/// One node of serialized operator state.
///
/// Operators flatten their state into this tree in `save_state` and
/// rebuild from it in `restore_state`; the engine nests per-operator
/// trees into one root per checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum StateNode {
    /// No state (the default for stateless operators).
    Unit,
    /// Unsigned 64-bit scalar (counters, sequence numbers, timestamps).
    U64(u64),
    /// Signed 64-bit scalar.
    I64(i64),
    /// 64-bit float scalar (encoded via its bit pattern — NaN-safe).
    F64(f64),
    /// Boolean scalar.
    Bool(bool),
    /// UTF-8 string (names, keys).
    Str(String),
    /// A column value.
    Value(Value),
    /// A full stream tuple (values + event time + sequence number).
    Tuple(Tuple),
    /// An ordered sequence of child nodes.
    List(Vec<StateNode>),
}

impl StateNode {
    /// Wrap a timestamp (stored as its microsecond count).
    pub fn ts(t: Timestamp) -> StateNode {
        StateNode::U64(t.as_micros())
    }

    /// Wrap an optional timestamp (`I64(-1)` encodes `None`).
    pub fn opt_ts(t: Option<Timestamp>) -> StateNode {
        match t {
            Some(t) => StateNode::U64(t.as_micros()),
            None => StateNode::Unit,
        }
    }

    /// Wrap a `usize` (stored as `U64`).
    pub fn usize(n: usize) -> StateNode {
        StateNode::U64(n as u64)
    }

    /// The node as a `u64`, or a checkpoint-shape error.
    pub fn as_u64(&self) -> Result<u64> {
        match self {
            StateNode::U64(v) => Ok(*v),
            other => Err(shape("U64", other)),
        }
    }

    /// The node as an `i64`, or a checkpoint-shape error.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            StateNode::I64(v) => Ok(*v),
            other => Err(shape("I64", other)),
        }
    }

    /// The node as an `f64`, or a checkpoint-shape error.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            StateNode::F64(v) => Ok(*v),
            other => Err(shape("F64", other)),
        }
    }

    /// The node as a `bool`, or a checkpoint-shape error.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            StateNode::Bool(v) => Ok(*v),
            other => Err(shape("Bool", other)),
        }
    }

    /// The node as a string slice, or a checkpoint-shape error.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            StateNode::Str(s) => Ok(s),
            other => Err(shape("Str", other)),
        }
    }

    /// The node as a [`Value`], or a checkpoint-shape error.
    pub fn as_value(&self) -> Result<&Value> {
        match self {
            StateNode::Value(v) => Ok(v),
            other => Err(shape("Value", other)),
        }
    }

    /// The node as a [`Tuple`], or a checkpoint-shape error.
    pub fn as_tuple(&self) -> Result<&Tuple> {
        match self {
            StateNode::Tuple(t) => Ok(t),
            other => Err(shape("Tuple", other)),
        }
    }

    /// The node's children, or a checkpoint-shape error.
    pub fn as_list(&self) -> Result<&[StateNode]> {
        match self {
            StateNode::List(items) => Ok(items),
            other => Err(shape("List", other)),
        }
    }

    /// Child `i` of a list node (shape error when absent or not a list).
    pub fn item(&self, i: usize) -> Result<&StateNode> {
        self.as_list()?
            .get(i)
            .ok_or_else(|| DsmsError::ckpt(format!("list index {i} out of range")))
    }

    /// The node as a timestamp (stored micros), or a shape error.
    pub fn as_ts(&self) -> Result<Timestamp> {
        Ok(Timestamp::from_micros(self.as_u64()?))
    }

    /// The node as an optional timestamp (`Unit` encodes `None`).
    pub fn as_opt_ts(&self) -> Result<Option<Timestamp>> {
        match self {
            StateNode::Unit => Ok(None),
            other => Ok(Some(other.as_ts()?)),
        }
    }

    /// The node as a `usize`, or a shape error.
    pub fn as_usize(&self) -> Result<usize> {
        Ok(self.as_u64()? as usize)
    }

    /// The variant's name (for shape-mismatch diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            StateNode::Unit => "Unit",
            StateNode::U64(_) => "U64",
            StateNode::I64(_) => "I64",
            StateNode::F64(_) => "F64",
            StateNode::Bool(_) => "Bool",
            StateNode::Str(_) => "Str",
            StateNode::Value(_) => "Value",
            StateNode::Tuple(_) => "Tuple",
            StateNode::List(_) => "List",
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            StateNode::Unit => buf.push(0),
            StateNode::U64(v) => {
                buf.push(1);
                put_u64(buf, *v);
            }
            StateNode::I64(v) => {
                buf.push(2);
                put_u64(buf, *v as u64);
            }
            StateNode::F64(v) => {
                buf.push(3);
                put_u64(buf, v.to_bits());
            }
            StateNode::Bool(v) => {
                buf.push(4);
                buf.push(u8::from(*v));
            }
            StateNode::Str(s) => {
                buf.push(5);
                put_bytes(buf, s.as_bytes());
            }
            StateNode::Value(v) => {
                buf.push(6);
                encode_value(buf, v);
            }
            StateNode::Tuple(t) => {
                // Ordinary tuples keep the v3 wire shape (tag 7); only
                // signed/speculative tuples need the extended tag, so v4
                // buffers without speculation decode under a v3 reader.
                if t.sign() == Sign::Insert && t.revision() == 0 {
                    buf.push(7);
                    encode_tuple(buf, t);
                } else {
                    buf.push(9);
                    encode_tuple(buf, t);
                    buf.push(match t.sign() {
                        Sign::Insert => 0,
                        Sign::Retract => 1,
                    });
                    put_u64(buf, t.revision());
                }
            }
            StateNode::List(items) => {
                buf.push(8);
                put_u32(buf, items.len() as u32);
                for item in items {
                    item.encode(buf);
                }
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<StateNode> {
        let tag = get_u8(buf, pos)?;
        Ok(match tag {
            0 => StateNode::Unit,
            1 => StateNode::U64(get_u64(buf, pos)?),
            2 => StateNode::I64(get_u64(buf, pos)? as i64),
            3 => StateNode::F64(f64::from_bits(get_u64(buf, pos)?)),
            4 => StateNode::Bool(get_u8(buf, pos)? != 0),
            5 => StateNode::Str(get_string(buf, pos)?),
            6 => StateNode::Value(decode_value(buf, pos)?),
            7 => StateNode::Tuple(decode_tuple(buf, pos)?),
            9 => {
                let t = decode_tuple(buf, pos)?;
                let sign = match get_u8(buf, pos)? {
                    0 => Sign::Insert,
                    1 => Sign::Retract,
                    s => return Err(DsmsError::ckpt(format!("unknown tuple sign {s}"))),
                };
                let revision = get_u64(buf, pos)?;
                StateNode::Tuple(Tuple::with_sign(
                    t.values().to_vec(),
                    t.ts(),
                    t.seq(),
                    sign,
                    revision,
                ))
            }
            8 => {
                let n = get_u32(buf, pos)? as usize;
                let mut items = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    items.push(StateNode::decode(buf, pos)?);
                }
                StateNode::List(items)
            }
            t => return Err(DsmsError::ckpt(format!("unknown state-node tag {t}"))),
        })
    }
}

fn shape(want: &str, got: &StateNode) -> DsmsError {
    DsmsError::ckpt(format!("expected {want} node, found {}", got.kind()))
}

/// A serialized engine snapshot: the watermark position the state was
/// captured at plus the per-query operator state trees.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`] when produced here).
    pub version: u32,
    /// The engine's next input sequence number at capture time.
    pub next_seq: u64,
    /// The engine's watermark (stream time) at capture time.
    pub now: Timestamp,
    /// The engine interner's dictionary in symbol order, so a restored
    /// engine re-encodes state keys onto the symbols the capturing
    /// engine assigned. Empty when nothing was interned and for
    /// version-1 checkpoints.
    pub dict: Vec<String>,
    /// The engine-assembled state tree (streams, queries, tables).
    pub root: StateNode,
}

impl EngineCheckpoint {
    /// Wrap a state tree with the current format version (no
    /// dictionary; see [`EngineCheckpoint::with_dict`]).
    pub fn new(next_seq: u64, now: Timestamp, root: StateNode) -> EngineCheckpoint {
        EngineCheckpoint {
            version: CHECKPOINT_VERSION,
            next_seq,
            now,
            dict: Vec::new(),
            root,
        }
    }

    /// Attach the interner dictionary (symbol order).
    pub fn with_dict(mut self, dict: Vec<String>) -> EngineCheckpoint {
        self.dict = dict;
        self
    }

    /// Serialize to a self-contained byte buffer (magic, version,
    /// position, dictionary, state tree, FNV-1a checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(MAGIC);
        put_u32(&mut buf, self.version);
        put_u64(&mut buf, self.next_seq);
        put_u64(&mut buf, self.now.as_micros());
        put_u32(&mut buf, self.dict.len() as u32);
        for s in &self.dict {
            put_bytes(&mut buf, s.as_bytes());
        }
        self.root.encode(&mut buf);
        let mut h = FnvHasher::default();
        h.write(&buf);
        put_u64(&mut buf, h.finish());
        buf
    }

    /// Decode a buffer produced by [`EngineCheckpoint::to_bytes`],
    /// verifying magic, version, and checksum.
    pub fn from_bytes(buf: &[u8]) -> Result<EngineCheckpoint> {
        if buf.len() < MAGIC.len() + 8 || &buf[..MAGIC.len()] != MAGIC {
            return Err(DsmsError::ckpt("not a checkpoint buffer (bad magic)"));
        }
        let body = &buf[..buf.len() - 8];
        let mut h = FnvHasher::default();
        h.write(body);
        let mut tail = buf.len() - 8;
        let stored = get_u64(buf, &mut tail)?;
        if stored != h.finish() {
            return Err(DsmsError::ckpt("checkpoint checksum mismatch"));
        }
        let mut pos = MAGIC.len();
        let version = get_u32(body, &mut pos)?;
        if version == 0 || version > CHECKPOINT_VERSION {
            return Err(DsmsError::ckpt(format!(
                "checkpoint version {version} unsupported (expected <= {CHECKPOINT_VERSION})"
            )));
        }
        let next_seq = get_u64(body, &mut pos)?;
        let now = Timestamp::from_micros(get_u64(body, &mut pos)?);
        // Version 1 predates the dictionary section.
        let mut dict = Vec::new();
        if version >= 2 {
            let n = get_u32(body, &mut pos)? as usize;
            dict.reserve(n.min(1 << 20));
            for _ in 0..n {
                dict.push(get_string(body, &mut pos)?);
            }
        }
        let root = StateNode::decode(body, &mut pos)?;
        if pos != body.len() {
            return Err(DsmsError::ckpt("trailing bytes after checkpoint state"));
        }
        Ok(EngineCheckpoint {
            version,
            next_seq,
            now,
            dict,
            root,
        })
    }
}

fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Int(i) => {
            buf.push(1);
            put_u64(buf, *i as u64);
        }
        Value::Float(f) => {
            buf.push(2);
            put_u64(buf, f.to_bits());
        }
        Value::Str(s) => {
            buf.push(3);
            put_bytes(buf, s.as_bytes());
        }
        Value::Bool(b) => {
            buf.push(4);
            buf.push(u8::from(*b));
        }
        Value::Ts(t) => {
            buf.push(5);
            put_u64(buf, t.as_micros());
        }
    }
}

fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value> {
    let tag = get_u8(buf, pos)?;
    Ok(match tag {
        0 => Value::Null,
        1 => Value::Int(get_u64(buf, pos)? as i64),
        2 => Value::Float(f64::from_bits(get_u64(buf, pos)?)),
        3 => Value::Str(get_string(buf, pos)?.into()),
        4 => Value::Bool(get_u8(buf, pos)? != 0),
        5 => Value::Ts(Timestamp::from_micros(get_u64(buf, pos)?)),
        t => return Err(DsmsError::ckpt(format!("unknown value tag {t}"))),
    })
}

fn encode_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_u32(buf, t.arity() as u32);
    for v in t.values() {
        encode_value(buf, v);
    }
    put_u64(buf, t.ts().as_micros());
    put_u64(buf, t.seq());
}

fn decode_tuple(buf: &[u8], pos: &mut usize) -> Result<Tuple> {
    let arity = get_u32(buf, pos)? as usize;
    let mut values = Vec::with_capacity(arity.min(1 << 16));
    for _ in 0..arity {
        values.push(decode_value(buf, pos)?);
    }
    let ts = Timestamp::from_micros(get_u64(buf, pos)?);
    let seq = get_u64(buf, pos)?;
    Ok(Tuple::new(values, ts, seq))
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn get_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| DsmsError::ckpt("truncated checkpoint buffer"))?;
    *pos += 1;
    Ok(b)
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    let end = pos
        .checked_add(4)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| DsmsError::ckpt("truncated checkpoint buffer"))?;
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(u32::from_le_bytes(raw))
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let end = pos
        .checked_add(8)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| DsmsError::ckpt("truncated checkpoint buffer"))?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(u64::from_le_bytes(raw))
}

fn get_string(buf: &[u8], pos: &mut usize) -> Result<String> {
    let len = get_u32(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| DsmsError::ckpt("truncated checkpoint buffer"))?;
    let s = std::str::from_utf8(&buf[*pos..end])
        .map_err(|_| DsmsError::ckpt("invalid UTF-8 in checkpoint string"))?
        .to_string();
    *pos = end;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_root() -> StateNode {
        StateNode::List(vec![
            StateNode::Unit,
            StateNode::U64(42),
            StateNode::I64(-7),
            StateNode::F64(2.5),
            StateNode::F64(f64::NAN),
            StateNode::Bool(true),
            StateNode::Str("cleaned_readings".into()),
            StateNode::Value(Value::str("tag17")),
            StateNode::Value(Value::Null),
            StateNode::Tuple(Tuple::new(
                vec![Value::Int(3), Value::Ts(Timestamp::from_secs(9))],
                Timestamp::from_secs(9),
                123,
            )),
            StateNode::List(vec![StateNode::U64(1), StateNode::U64(2)]),
        ])
    }

    #[test]
    fn round_trip_preserves_every_variant() {
        let ck = EngineCheckpoint::new(77, Timestamp::from_secs(3), sample_root());
        let bytes = ck.to_bytes();
        let back = EngineCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.version, CHECKPOINT_VERSION);
        assert_eq!(back.next_seq, 77);
        assert_eq!(back.now, Timestamp::from_secs(3));
        // NaN compares bitwise through the F64 encoding; compare via
        // re-encoding rather than PartialEq (NaN != NaN).
        let mut a = Vec::new();
        let mut b = Vec::new();
        ck.root.encode(&mut a);
        back.root.encode(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn checksum_detects_corruption() {
        let ck = EngineCheckpoint::new(1, Timestamp::ZERO, StateNode::U64(5));
        let mut bytes = ck.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let err = EngineCheckpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn bad_magic_and_truncation_are_typed_errors() {
        assert!(EngineCheckpoint::from_bytes(b"nope").is_err());
        let bytes = EngineCheckpoint::new(1, Timestamp::ZERO, StateNode::Unit).to_bytes();
        assert!(EngineCheckpoint::from_bytes(&bytes[..bytes.len() - 9]).is_err());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let ck = EngineCheckpoint::new(1, Timestamp::ZERO, StateNode::Unit);
        let mut bytes = ck.to_bytes();
        // Patch the version field and re-stamp the checksum.
        bytes[4] = 99;
        let body_len = bytes.len() - 8;
        let mut h = FnvHasher::default();
        h.write(&bytes[..body_len]);
        let sum = h.finish().to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        let err = EngineCheckpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn dictionary_section_round_trips() {
        let dict = vec!["reader-1".to_string(), String::new(), "tag17".to_string()];
        let ck = EngineCheckpoint::new(9, Timestamp::from_secs(1), sample_root())
            .with_dict(dict.clone());
        let back = EngineCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back.version, CHECKPOINT_VERSION);
        assert_eq!(back.dict, dict);
    }

    #[test]
    fn version_one_buffers_decode_with_empty_dictionary() {
        // Hand-build a v1 buffer: same layout as v2 minus the dictionary
        // section between the watermark and the state tree.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        put_u32(&mut buf, 1);
        put_u64(&mut buf, 55);
        put_u64(&mut buf, Timestamp::from_secs(4).as_micros());
        StateNode::U64(11).encode(&mut buf);
        let mut h = FnvHasher::default();
        h.write(&buf);
        put_u64(&mut buf, h.finish());
        let back = EngineCheckpoint::from_bytes(&buf).unwrap();
        assert_eq!(back.version, 1);
        assert_eq!(back.next_seq, 55);
        assert_eq!(back.now, Timestamp::from_secs(4));
        assert!(back.dict.is_empty());
        assert_eq!(back.root, StateNode::U64(11));
    }

    #[test]
    fn signed_tuples_round_trip() {
        let base = Tuple::new(vec![Value::Int(1)], Timestamp::from_secs(2), 5);
        let retract = base.retraction_of(3);
        let root = StateNode::List(vec![
            StateNode::Tuple(base.clone()),
            StateNode::Tuple(retract.clone()),
            StateNode::Tuple(base.at_revision(7)),
        ]);
        let ck = EngineCheckpoint::new(1, Timestamp::ZERO, root);
        let back = EngineCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back.root.item(0).unwrap().as_tuple().unwrap(), &base);
        let r = back.root.item(1).unwrap().as_tuple().unwrap();
        assert_eq!(r, &retract);
        assert!(r.is_retraction());
        assert_eq!(back.root.item(2).unwrap().as_tuple().unwrap().revision(), 7);
    }

    #[test]
    fn plain_tuples_keep_v3_wire_shape() {
        // An unsigned tuple must still encode under tag 7 so that v4
        // buffers without speculation state stay decodable by shape.
        let mut buf = Vec::new();
        StateNode::Tuple(Tuple::new(vec![], Timestamp::ZERO, 0)).encode(&mut buf);
        assert_eq!(buf[0], 7);
        let mut signed = Vec::new();
        StateNode::Tuple(Tuple::new(vec![], Timestamp::ZERO, 0).retraction_of(1))
            .encode(&mut signed);
        assert_eq!(signed[0], 9);
    }

    #[test]
    fn shape_accessors_report_mismatches() {
        let n = StateNode::Str("x".into());
        assert!(n.as_u64().is_err());
        assert!(n.as_list().is_err());
        assert_eq!(n.as_str().unwrap(), "x");
        let l = StateNode::List(vec![StateNode::U64(1)]);
        assert_eq!(l.item(0).unwrap().as_u64().unwrap(), 1);
        assert!(l.item(1).is_err());
        assert_eq!(StateNode::Unit.as_opt_ts().unwrap(), None);
        assert_eq!(
            StateNode::ts(Timestamp::from_secs(2)).as_opt_ts().unwrap(),
            Some(Timestamp::from_secs(2))
        );
    }
}
