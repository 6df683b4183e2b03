//! Hand-rolled binary snapshot codec for arena and formula state.
//!
//! The streaming runtime checkpoints its entire state at GC epochs (see the
//! `rvmtl-runtime` crate's "Checkpoint format & recovery semantics" section);
//! this module provides the logic-layer half of that format: length-prefixed
//! little-endian primitives ([`SnapshotWriter`] / [`SnapshotReader`]), a
//! CRC-32 for the container checksum, tree codecs for [`Formula`], [`State`]
//! and [`Interval`], and the arena codec ([`encode_arena`] /
//! [`decode_arena`]) that persists an [`Interner`]'s node table together
//! with its fused [`crate::NodeMeta`] records and `ever_shifted` watermark.
//!
//! Everything is hand-rolled because the build environment is offline (no
//! serde); the format is versioned at the container level (the runtime's
//! envelope), kept deliberately flat, and **paranoid on decode**: no input,
//! however truncated or bit-flipped, may panic the decoder — every failure
//! is a [`SnapshotError`]. The same codec grammar carries the `rvmtl-wire`
//! streaming frames; `docs/PROTOCOL.md` at the repository root is the
//! normative byte-level specification of the shared primitives, the
//! checkpoint container and the wire stream.
//!
//! # Arena encoding and remap-on-restore
//!
//! The node table is written in id order with children as raw `u32` indices
//! (children always precede their parents, so every index refers backwards).
//! Decoding does **not** splice raw nodes into a new arena: each stored node
//! is re-interned bottom-up through the same canonicalising smart
//! constructors that built it (`mk_and_all`, `mk_until`, …), and the decoder
//! returns a *remap table* from stored index to fresh [`FormulaId`]. This
//! keeps every arena invariant (hash-consing, shift-normal canon links,
//! metadata) true by construction — the decoder then cross-checks the stored
//! [`crate::NodeMeta`] records and watermark against the re-interned arena
//! and rejects any disagreement as corruption. Callers translate their
//! persisted ids (e.g. pending [`crate::ShiftedId`] sets) through the remap
//! table, exactly as they would through a [`crate::FormulaRemap`] after GC.

use crate::{Formula, FormulaId, Interner, Interval, Node, Prop, State};
use std::fmt;

/// Maximum formula-tree nesting the decoder will follow. Deeper input is
/// rejected as malformed instead of risking stack exhaustion — real
/// specifications are orders of magnitude shallower.
pub const MAX_FORMULA_DEPTH: usize = 512;

/// Error produced when snapshot bytes cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The input ended before a field's bytes.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A structurally invalid field: unknown tag, dangling child index,
    /// metadata that disagrees with the re-interned arena, and so on.
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needed {needed} more bytes, {available} available"
            ),
            SnapshotError::Malformed(reason) => write!(f, "malformed snapshot: {reason}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn malformed(reason: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(reason.into())
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes` — the
/// checksum the runtime's checkpoint envelope carries.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Append-only little-endian byte writer for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte (`0` / `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds `u32::MAX` bytes (no real proposition
    /// name does).
    pub fn put_str(&mut self, s: &str) {
        let len = u32::try_from(s.len())
            .unwrap_or_else(|_| panic!("snapshot string field of {} bytes", s.len()));
        self.put_u32(len);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a collection length as a `u32` prefix.
    ///
    /// # Panics
    ///
    /// Panics if the length exceeds `u32::MAX` (arena ids are `u32`, so no
    /// real table does).
    pub fn put_len(&mut self, len: usize) {
        let len =
            u32::try_from(len).unwrap_or_else(|_| panic!("snapshot collection of {len} entries"));
        self.put_u32(len);
    }
}

/// Cursor over snapshot bytes; every read is bounds-checked and returns a
/// [`SnapshotError`] instead of panicking.
#[derive(Debug, Clone)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed (trailing garbage is
    /// corruption, not padding).
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(malformed(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let mut bytes = [0u8; 4];
        bytes.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(bytes))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(bytes))
    }

    /// Reads a bool byte, rejecting anything but `0` / `1`.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(malformed(format!("bool byte {other:#04x}"))),
        }
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|e| malformed(format!("non-UTF-8 string: {e}")))
    }

    /// Reads a collection length prefix and checks it against the remaining
    /// input (each element needs at least `min_item_bytes`), so a corrupt
    /// count can neither over-allocate nor mask a truncation.
    pub fn len(&mut self, min_item_bytes: usize) -> Result<usize, SnapshotError> {
        let count = self.u32()? as usize;
        let needed = count.saturating_mul(min_item_bytes.max(1));
        if needed > self.remaining() {
            return Err(SnapshotError::Truncated {
                needed,
                available: self.remaining(),
            });
        }
        Ok(count)
    }
}

/// Encodes an observation [`State`] (its propositions in sorted order).
pub fn encode_state(w: &mut SnapshotWriter, state: &State) {
    w.put_len(state.iter().count());
    for p in state.iter() {
        w.put_str(p.name());
    }
}

/// Decodes an observation [`State`].
pub fn decode_state(r: &mut SnapshotReader<'_>) -> Result<State, SnapshotError> {
    let count = r.len(4)?;
    let mut state = State::empty();
    for _ in 0..count {
        state.insert(Prop::new(r.str()?));
    }
    Ok(state)
}

/// Encodes a timing [`Interval`].
pub fn encode_interval(w: &mut SnapshotWriter, i: Interval) {
    w.put_u64(i.start());
    match i.end() {
        Some(end) => {
            w.put_bool(true);
            w.put_u64(end);
        }
        None => w.put_bool(false),
    }
}

/// Decodes a timing [`Interval`], rejecting `end < start` (which the
/// constructor would assert on).
pub fn decode_interval(r: &mut SnapshotReader<'_>) -> Result<Interval, SnapshotError> {
    let start = r.u64()?;
    let end = if r.bool()? { Some(r.u64()?) } else { None };
    if let Some(end) = end {
        if end < start {
            return Err(malformed(format!("interval [{start}, {end}) ends early")));
        }
    }
    Ok(Interval::new(start, end))
}

const TAG_TRUE: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_ATOM: u8 = 2;
const TAG_NOT: u8 = 3;
const TAG_AND: u8 = 4;
const TAG_OR: u8 = 5;
const TAG_IMPLIES: u8 = 6;
const TAG_UNTIL: u8 = 7;
const TAG_EVENTUALLY: u8 = 8;
const TAG_ALWAYS: u8 = 9;

/// Encodes a plain [`Formula`] tree (pre-order, tagged).
pub fn encode_formula(w: &mut SnapshotWriter, phi: &Formula) {
    match phi {
        Formula::True => w.put_u8(TAG_TRUE),
        Formula::False => w.put_u8(TAG_FALSE),
        Formula::Atom(p) => {
            w.put_u8(TAG_ATOM);
            w.put_str(p.name());
        }
        Formula::Not(a) => {
            w.put_u8(TAG_NOT);
            encode_formula(w, a);
        }
        Formula::And(a, b) => {
            w.put_u8(TAG_AND);
            encode_formula(w, a);
            encode_formula(w, b);
        }
        Formula::Or(a, b) => {
            w.put_u8(TAG_OR);
            encode_formula(w, a);
            encode_formula(w, b);
        }
        Formula::Implies(a, b) => {
            w.put_u8(TAG_IMPLIES);
            encode_formula(w, a);
            encode_formula(w, b);
        }
        Formula::Until(a, i, b) => {
            w.put_u8(TAG_UNTIL);
            encode_interval(w, *i);
            encode_formula(w, a);
            encode_formula(w, b);
        }
        Formula::Eventually(i, a) => {
            w.put_u8(TAG_EVENTUALLY);
            encode_interval(w, *i);
            encode_formula(w, a);
        }
        Formula::Always(i, a) => {
            w.put_u8(TAG_ALWAYS);
            encode_interval(w, *i);
            encode_formula(w, a);
        }
    }
}

/// Decodes a plain [`Formula`] tree (depth-bounded by
/// [`MAX_FORMULA_DEPTH`]).
pub fn decode_formula(r: &mut SnapshotReader<'_>) -> Result<Formula, SnapshotError> {
    decode_formula_at(r, 0)
}

fn decode_formula_at(r: &mut SnapshotReader<'_>, depth: usize) -> Result<Formula, SnapshotError> {
    if depth >= MAX_FORMULA_DEPTH {
        return Err(malformed(format!(
            "formula nests deeper than {MAX_FORMULA_DEPTH}"
        )));
    }
    let tag = r.u8()?;
    Ok(match tag {
        TAG_TRUE => Formula::True,
        TAG_FALSE => Formula::False,
        TAG_ATOM => Formula::Atom(Prop::new(r.str()?)),
        TAG_NOT => Formula::Not(Box::new(decode_formula_at(r, depth + 1)?)),
        TAG_AND => Formula::And(
            Box::new(decode_formula_at(r, depth + 1)?),
            Box::new(decode_formula_at(r, depth + 1)?),
        ),
        TAG_OR => Formula::Or(
            Box::new(decode_formula_at(r, depth + 1)?),
            Box::new(decode_formula_at(r, depth + 1)?),
        ),
        TAG_IMPLIES => Formula::Implies(
            Box::new(decode_formula_at(r, depth + 1)?),
            Box::new(decode_formula_at(r, depth + 1)?),
        ),
        TAG_UNTIL => {
            let i = decode_interval(r)?;
            Formula::Until(
                Box::new(decode_formula_at(r, depth + 1)?),
                i,
                Box::new(decode_formula_at(r, depth + 1)?),
            )
        }
        TAG_EVENTUALLY => {
            let i = decode_interval(r)?;
            Formula::Eventually(i, Box::new(decode_formula_at(r, depth + 1)?))
        }
        TAG_ALWAYS => {
            let i = decode_interval(r)?;
            Formula::Always(i, Box::new(decode_formula_at(r, depth + 1)?))
        }
        other => return Err(malformed(format!("formula tag {other:#04x}"))),
    })
}

fn encode_node(w: &mut SnapshotWriter, node: &Node) {
    match node {
        Node::True => w.put_u8(TAG_TRUE),
        Node::False => w.put_u8(TAG_FALSE),
        Node::Atom(p) => {
            w.put_u8(TAG_ATOM);
            w.put_str(p.name());
        }
        Node::Not(a) => {
            w.put_u8(TAG_NOT);
            w.put_u32(a.raw());
        }
        Node::And(children) | Node::Or(children) => {
            w.put_u8(if matches!(node, Node::And(_)) {
                TAG_AND
            } else {
                TAG_OR
            });
            w.put_len(children.len());
            for c in children.iter() {
                w.put_u32(c.raw());
            }
        }
        Node::Implies(a, b) => {
            w.put_u8(TAG_IMPLIES);
            w.put_u32(a.raw());
            w.put_u32(b.raw());
        }
        Node::Until(a, i, b) => {
            w.put_u8(TAG_UNTIL);
            encode_interval(w, *i);
            w.put_u32(a.raw());
            w.put_u32(b.raw());
        }
        Node::Eventually(i, a) => {
            w.put_u8(TAG_EVENTUALLY);
            encode_interval(w, *i);
            w.put_u32(a.raw());
        }
        Node::Always(i, a) => {
            w.put_u8(TAG_ALWAYS);
            encode_interval(w, *i);
            w.put_u32(a.raw());
        }
    }
}

/// Resolves a stored child index through the remap table built so far; a
/// child may only refer to an earlier node.
fn child(map: &[FormulaId], r: &mut SnapshotReader<'_>) -> Result<FormulaId, SnapshotError> {
    let idx = r.u32()? as usize;
    map.get(idx).copied().ok_or_else(|| {
        malformed(format!(
            "child index {idx} refers at or beyond node {}",
            map.len()
        ))
    })
}

fn decode_node(r: &mut SnapshotReader<'_>, map: &[FormulaId]) -> Result<Node, SnapshotError> {
    let tag = r.u8()?;
    Ok(match tag {
        TAG_TRUE => Node::True,
        TAG_FALSE => Node::False,
        TAG_ATOM => Node::Atom(Prop::new(r.str()?)),
        TAG_NOT => Node::Not(child(map, r)?),
        TAG_AND | TAG_OR => {
            let count = r.len(4)?;
            if count < 2 {
                return Err(malformed(format!("n-ary node with {count} operands")));
            }
            let mut children = Vec::with_capacity(count);
            for _ in 0..count {
                children.push(child(map, r)?);
            }
            let children = children.into_boxed_slice();
            if tag == TAG_AND {
                Node::And(children)
            } else {
                Node::Or(children)
            }
        }
        TAG_IMPLIES => Node::Implies(child(map, r)?, child(map, r)?),
        TAG_UNTIL => {
            let i = decode_interval(r)?;
            Node::Until(child(map, r)?, i, child(map, r)?)
        }
        TAG_EVENTUALLY => Node::Eventually(decode_interval(r)?, child(map, r)?),
        TAG_ALWAYS => Node::Always(decode_interval(r)?, child(map, r)?),
        other => return Err(malformed(format!("node tag {other:#04x}"))),
    })
}

/// Re-interns a decoded node (whose children were already remapped) through
/// the canonicalising smart constructors.
fn reinsert(arena: &mut Interner, node: Node) -> FormulaId {
    match node {
        Node::True => FormulaId::TRUE,
        Node::False => FormulaId::FALSE,
        Node::Atom(p) => arena.mk_atom(p),
        Node::Not(a) => arena.mk_not(a),
        Node::And(children) => arena.mk_and_all(children.iter().copied()),
        Node::Or(children) => arena.mk_or_all(children.iter().copied()),
        Node::Implies(a, b) => arena.mk_implies(a, b),
        Node::Until(a, i, b) => arena.mk_until(a, i, b),
        Node::Eventually(i, a) => arena.mk_eventually(i, a),
        Node::Always(i, a) => arena.mk_always(i, a),
    }
}

/// Encodes an [`Interner`]'s node table, fused metadata records and
/// `ever_shifted` watermark. Interned observation states and progression
/// caches are *not* persisted — they are warmth, not state, and re-warm
/// naturally after a restore.
pub fn encode_arena(w: &mut SnapshotWriter, arena: &Interner) {
    w.put_bool(arena.ever_shifted());
    w.put_len(arena.len());
    for i in 0..arena.len() {
        let id = FormulaId::from_raw(i as u32);
        encode_node(w, arena.node(id));
    }
    for i in 0..arena.len() {
        let meta = arena.node_meta(FormulaId::from_raw(i as u32));
        w.put_u64(meta.horizon);
        w.put_u64(meta.slack);
        w.put_u32(meta.canon.raw());
    }
}

/// Decodes an arena snapshot into a fresh [`Interner`], returning the remap
/// table from stored node index to re-interned [`FormulaId`].
///
/// Every stored node is rebuilt through the smart constructors (see the
/// module documentation), then the stored metadata records and watermark are
/// cross-checked against the re-interned arena; any disagreement — dangling
/// child, non-canonical structure, forged horizon/slack/canon — is rejected
/// as [`SnapshotError::Malformed`]. No input can panic this function.
pub fn decode_arena(
    r: &mut SnapshotReader<'_>,
) -> Result<(Interner, Vec<FormulaId>), SnapshotError> {
    let ever_shifted = r.bool()?;
    let count = r.len(1)?;
    if count < 2 {
        return Err(malformed(format!(
            "arena of {count} nodes cannot hold the boolean constants"
        )));
    }
    let mut arena = Interner::new();
    let mut map: Vec<FormulaId> = Vec::with_capacity(count);
    for i in 0..count {
        let node = decode_node(r, &map)?;
        match i {
            0 if node != Node::True => return Err(malformed("node 0 must be the constant true")),
            1 if node != Node::False => return Err(malformed("node 1 must be the constant false")),
            _ => {}
        }
        map.push(reinsert(&mut arena, node));
    }
    // Deferred metadata cross-check: a canon link may point *forward* (the
    // canonical residual is interned right after its translate), so it can
    // only be verified once the whole remap table exists.
    for (i, &id) in map.iter().enumerate() {
        let horizon = r.u64()?;
        let slack = r.u64()?;
        let canon_idx = r.u32()? as usize;
        let canon = map
            .get(canon_idx)
            .copied()
            .ok_or_else(|| malformed(format!("canon index {canon_idx} out of range")))?;
        let meta = arena.node_meta(id);
        if meta.horizon != horizon || meta.slack != slack || meta.canon != canon {
            return Err(malformed(format!(
                "metadata of node {i} disagrees with the re-interned arena"
            )));
        }
    }
    if arena.ever_shifted() != ever_shifted {
        return Err(malformed(
            "ever_shifted watermark disagrees with the re-interned arena",
        ));
    }
    Ok((arena, map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, state};

    fn sample_formulas() -> Vec<Formula> {
        vec![
            parse("a U[0,6) b").unwrap(),
            parse("G[0,inf) (a -> F[2,8) b)").unwrap(),
            parse("(a & b) | !c").unwrap(),
            parse("F[3,9) (a U[1,4) (b & c))").unwrap(),
            Formula::True,
        ]
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_bool(true);
        w.put_str("hello ε");
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hello ε");
        r.expect_end().unwrap();
    }

    #[test]
    fn reader_rejects_truncation_and_bad_bools() {
        let mut r = SnapshotReader::new(&[1, 2]);
        assert!(matches!(
            r.u64(),
            Err(SnapshotError::Truncated {
                needed: 8,
                available: 2
            })
        ));
        let mut r = SnapshotReader::new(&[3]);
        assert!(matches!(r.bool(), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn length_prefix_is_checked_against_remaining_input() {
        // A count of u32::MAX with 4 payload bytes must fail fast instead of
        // allocating or looping.
        let mut w = SnapshotWriter::new();
        w.put_u32(u32::MAX);
        w.put_u32(0);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(r.len(4), Err(SnapshotError::Truncated { .. })));
    }

    #[test]
    fn states_and_intervals_roundtrip() {
        let mut w = SnapshotWriter::new();
        encode_state(&mut w, &state!["b.ack", "a.req"]);
        encode_state(&mut w, &State::empty());
        encode_interval(&mut w, Interval::bounded(2, 9));
        encode_interval(&mut w, Interval::unbounded(4));
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(decode_state(&mut r).unwrap(), state!["a.req", "b.ack"]);
        assert_eq!(decode_state(&mut r).unwrap(), State::empty());
        assert_eq!(decode_interval(&mut r).unwrap(), Interval::bounded(2, 9));
        assert_eq!(decode_interval(&mut r).unwrap(), Interval::unbounded(4));
        r.expect_end().unwrap();
    }

    #[test]
    fn inverted_interval_is_rejected_not_asserted() {
        let mut w = SnapshotWriter::new();
        w.put_u64(9);
        w.put_bool(true);
        w.put_u64(2);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(
            decode_interval(&mut r),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn formulas_roundtrip() {
        for phi in sample_formulas() {
            let mut w = SnapshotWriter::new();
            encode_formula(&mut w, &phi);
            let bytes = w.into_bytes();
            let mut r = SnapshotReader::new(&bytes);
            assert_eq!(decode_formula(&mut r).unwrap(), phi, "{phi}");
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn formula_decode_bounds_depth() {
        // A run of Not tags with no leaf: must fail (by depth or truncation)
        // without exhausting the stack.
        let bytes = vec![TAG_NOT; 100_000];
        let mut r = SnapshotReader::new(&bytes);
        assert!(decode_formula(&mut r).is_err());
    }

    #[test]
    fn arena_roundtrip_preserves_structure_and_metadata() {
        let mut arena = Interner::new();
        let roots: Vec<FormulaId> = sample_formulas().iter().map(|f| arena.intern(f)).collect();
        // Touch the shift-normal machinery so canon links and the watermark
        // are non-trivial.
        let normals: Vec<_> = roots.iter().map(|&id| arena.normalize(id)).collect();
        let mut w = SnapshotWriter::new();
        encode_arena(&mut w, &arena);
        let bytes = w.into_bytes();

        let mut r = SnapshotReader::new(&bytes);
        let (restored, map) = decode_arena(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(map.len(), arena.len());
        assert_eq!(restored.ever_shifted(), arena.ever_shifted());
        for (i, &new_id) in map.iter().enumerate() {
            let old_id = FormulaId::from_raw(i as u32);
            assert_eq!(
                restored.resolve(new_id),
                arena.resolve(old_id),
                "node {i} must resolve identically"
            );
            let old_meta = arena.node_meta(old_id);
            let new_meta = restored.node_meta(new_id);
            assert_eq!(old_meta.horizon, new_meta.horizon);
            assert_eq!(old_meta.slack, new_meta.slack);
            assert_eq!(map[old_meta.canon.index()], new_meta.canon);
        }
        // Shift-normal decompositions survive the roundtrip.
        for (&root, &normal) in roots.iter().zip(&normals) {
            let restored_normal = restored.normalize(map[root.index()]);
            assert_eq!(restored_normal.shift, normal.shift);
            assert_eq!(restored_normal.id, map[normal.id.index()]);
        }
    }

    #[test]
    fn arena_roundtrips_after_compaction() {
        let mut arena = Interner::new();
        let keep = arena.intern(&parse("G[0,inf) (a -> F[2,8) b)").unwrap());
        let _dead = arena.intern(&parse("F[0,30) zz").unwrap());
        let keep = arena.normalize(keep);
        let remap = arena.compact([keep.id]);
        let keep = remap.remap_unchecked(keep.id);
        let mut w = SnapshotWriter::new();
        encode_arena(&mut w, &arena);
        let bytes = w.into_bytes();
        let (restored, map) = decode_arena(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(restored.resolve(map[keep.index()]), arena.resolve(keep));
    }

    #[test]
    fn arena_decode_never_panics_on_corrupt_input() {
        let mut arena = Interner::new();
        for phi in sample_formulas() {
            arena.intern(&phi);
        }
        let mut w = SnapshotWriter::new();
        encode_arena(&mut w, &arena);
        let pristine = w.into_bytes();
        // Pristine decodes.
        assert!(decode_arena(&mut SnapshotReader::new(&pristine)).is_ok());
        // Every truncation either errors cleanly or (never) panics.
        for cut in 0..pristine.len() {
            let mut r = SnapshotReader::new(&pristine[..cut]);
            assert!(
                decode_arena(&mut r).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        // Every single-bit flip either decodes (it may hit redundant
        // structure the cross-checks cannot distinguish) or errors — but
        // never panics. The container CRC catches these in production; this
        // exercises the decoder's own robustness.
        for i in 0..pristine.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut corrupt = pristine.clone();
                corrupt[i] ^= bit;
                let _ = decode_arena(&mut SnapshotReader::new(&corrupt));
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }
}
