//! The `dpsd-bin/v1` flat binary synopsis format and the arena-backed
//! query kernel ([`FlatSynopsis`]).
//!
//! JSON is convenient to inspect, but pays a text parse at load time and
//! the pointer tree pays a cache-hostile recursive descent at query
//! time. This module is the serving-scale alternative: a released
//! synopsis serializes to one little-endian byte blob of
//! **structure-of-arrays columns** which a validate-then-index pass
//! loads into a [`FlatSynopsis`] arena — a handful of contiguous `Vec`s,
//! zero per-node allocation — whose query kernel descends it one query
//! at a time, testing rect intersection against the raw `f64` columns.
//!
//! Both published codecs decode into one column form, checked by one
//! validator, and the arena is built from those columns without a
//! tree: JSON through `FlatSynopsis`'s `Deserialize` impl, `dpsd-bin`
//! through [`FlatSynopsis::from_bytes`].
//!
//! Answers are **bit-identical** to the pointer path: the kernel settles
//! nodes in exactly the same depth-first preorder as
//! [`crate::query::range_query`] and
//! [`crate::query::range_query_batch`], so `f64` accumulation order (and
//! therefore every bit of every answer) is preserved. The golden
//! fingerprint suite and the flat-parity assertions in the benches
//! enforce this.
//!
//! # Wire layout (`dpsd-bin/v1`, all fields little-endian)
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 8 | magic `b"DPSDBIN1"` |
//! | 8 | 8 | FNV-1a 64 checksum of every byte from offset 16 to the end |
//! | 16 | 4 | format version (`u32`, currently 1) |
//! | 20 | 4 | dimension `D` (`u32`) |
//! | 24 | 4 | tree-kind code (`u32`, see the `kind_code` mapping below) |
//! | 28 | 4 | flags (`u32`; bit 0 = post-processed) |
//! | 32 | 8 | fanout (`u64`, must equal `2^D`) |
//! | 40 | 8 | height (`u64`) |
//! | 48 | 8 | node count `n` (`u64`, must match the complete tree) |
//! | 56 | 8 | total epsilon (`f64`) |
//! | 64 | 16·D | domain (`D` minima then `D` maxima, `f64`) |
//! | … | 8·(h+1) | per-level count budgets, leaves first (`f64`) |
//! | … | 8·(h+1) | per-level median budgets (`f64`) |
//! | … | 8·(h+2) | level offset table: first node index per depth, then `n` (`u64`) |
//! | … | 8·D·n | node minima, axis-major: `mins[k·n + v]` (`f64`) |
//! | … | 8·D·n | node maxima, axis-major (`f64`) |
//! | … | 8·n | released noisy counts, `0.0` where withheld (`f64`) |
//! | … | ⌈n/8⌉ | released bitmap (bit `v%8` of byte `v/8`) |
//! | … | ⌈n/8⌉ | pruning-cut bitmap |
//!
//! Trailing bytes, nonzero bitmap padding, a level table that disagrees
//! with the complete-tree shape, or any non-finite/inconsistent header
//! field are all typed [`DpsdError::Format`] rejections — the decoder
//! never panics on untrusted input.
//!
//! Like JSON, post-processed counts are **not** on the wire: bit 0 of
//! the flags only records that OLS was applied, and the loader
//! recomputes it bit-for-bit from the released counts.
//!
//! # Bit-exactness across formats
//!
//! The binary format is the **canonical bit-exact carrier** of a
//! release: every `f64` travels as its 8 raw bytes, with no text
//! round-trip involved. JSON stays bit-exact too, but only because the
//! vendored `serde_json` prints floats in shortest-round-trip form
//! (whole floats as `1.0` — see `vendor/README.md`); archival and
//! cross-implementation exchange should prefer `dpsd-bin/v1`, which has
//! no such formatting dependency.
//!
//! ```
//! use dpsd_core::flat::FlatSynopsis;
//! use dpsd_core::geometry::{Point, Rect};
//! use dpsd_core::synopsis::SpatialSynopsis;
//! use dpsd_core::tree::PsdConfig;
//!
//! let pts: Vec<Point> = (0..400)
//!     .map(|i| Point::new((i % 20) as f64, (i / 20) as f64))
//!     .collect();
//! let domain = Rect::new(0.0, 0.0, 20.0, 20.0).unwrap();
//! let tree = PsdConfig::quadtree(domain, 3, 0.5).with_seed(9).build(&pts).unwrap();
//!
//! // Owner side: one blob, checksummed and self-describing.
//! let blob = tree.release().to_flat_bytes();
//!
//! // Server side: arena-load, then answer identically to the tree.
//! let flat = FlatSynopsis::<2>::from_bytes(&blob).unwrap();
//! let q = Rect::new(2.0, 3.0, 11.0, 9.0).unwrap();
//! assert_eq!(flat.query(&q).to_bits(), tree.query(&q).to_bits());
//! ```

use crate::budget::audit_path_epsilon;
use crate::error::DpsdError;
use crate::geometry::Rect;
use crate::query::QueryProfile;
use crate::synopsis::SpatialSynopsis;
use crate::tree::released::columns_from_json;
use crate::tree::{
    complete_tree_nodes_checked, first_index_at_depth, CountSource, PsdTree, ReleasedSynopsis,
    TreeKind, MAX_NODES,
};
use serde::{Deserialize, Error as SerdeError, Value};

/// Magic bytes opening every `dpsd-bin` artifact.
pub const MAGIC: [u8; 8] = *b"DPSDBIN1";
/// Current binary format version.
pub const VERSION: u32 = 1;
/// Header flag bit 0: the source tree was OLS-post-processed (the
/// loader recomputes the posted counts; they are never on the wire).
const FLAG_POSTPROCESSED: u32 = 1;

/// Stable on-wire code for each tree family (same order as the JSON
/// `kind` tags).
fn kind_code(kind: TreeKind) -> u32 {
    match kind {
        TreeKind::Quadtree => 0,
        TreeKind::KdStandard => 1,
        TreeKind::KdHybrid => 2,
        TreeKind::KdCell => 3,
        TreeKind::KdNoisyMean => 4,
        TreeKind::KdPure => 5,
        TreeKind::KdTrue => 6,
        TreeKind::HilbertR => 7,
    }
}

fn kind_from_code(code: u32) -> Option<TreeKind> {
    Some(match code {
        0 => TreeKind::Quadtree,
        1 => TreeKind::KdStandard,
        2 => TreeKind::KdHybrid,
        3 => TreeKind::KdCell,
        4 => TreeKind::KdNoisyMean,
        5 => TreeKind::KdPure,
        6 => TreeKind::KdTrue,
        7 => TreeKind::HilbertR,
        _ => return None,
    })
}

/// FNV-1a 64-bit — the same hash the bit-identity fingerprints use, so
/// the checksum layer introduces no new primitive.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Whether `bytes` starts with the `dpsd-bin` magic (format sniffing;
/// a `true` here does not imply the artifact is valid).
pub fn is_flat_artifact(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Reads the dimension field of a `dpsd-bin` header without validating
/// the artifact — `None` when the blob is too short or not `dpsd-bin`.
/// Registries use this to dispatch on `D` before the typed decode.
pub fn peek_dims(bytes: &[u8]) -> Option<usize> {
    if !is_flat_artifact(bytes) {
        return None;
    }
    let dims = bytes.get(20..24)?;
    let dims = u32::from_le_bytes([dims[0], dims[1], dims[2], dims[3]]);
    usize::try_from(dims).ok()
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bitmap(buf: &mut Vec<u8>, bits: impl Iterator<Item = bool>) {
    let mut byte = 0u8;
    let mut filled = 0u32;
    for bit in bits {
        if bit {
            byte |= 1 << filled;
        }
        filled += 1;
        if filled == 8 {
            buf.push(byte);
            byte = 0;
            filled = 0;
        }
    }
    if filled > 0 {
        buf.push(byte);
    }
}

/// Serializes a released synopsis to one `dpsd-bin/v1` blob (layout in
/// the module docs). Infallible for any valid [`ReleasedSynopsis`].
pub(crate) fn encode<const D: usize>(synopsis: &ReleasedSynopsis<D>) -> Vec<u8> {
    let t = synopsis.as_tree();
    let n = t.node_count();
    let h = t.height();
    let mut buf = Vec::with_capacity(64 + 16 * D + 8 * (2 * h + 4) + 8 * n * (2 * D + 1) + 2 * n);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&[0u8; 8]); // checksum, patched below
    put_u32(&mut buf, VERSION);
    // dpsd-allow(no-panic-in-lib): D is a compile-time dimension; every workspace instantiation is 1..=4
    put_u32(&mut buf, u32::try_from(D).expect("dimension fits in u32"));
    put_u32(&mut buf, kind_code(t.kind()));
    put_u32(
        &mut buf,
        if t.is_postprocessed() {
            FLAG_POSTPROCESSED
        } else {
            0
        },
    );
    put_u64(&mut buf, t.fanout() as u64);
    put_u64(&mut buf, t.height() as u64);
    put_u64(&mut buf, n as u64);
    put_f64(&mut buf, t.epsilon());
    for k in 0..D {
        put_f64(&mut buf, t.domain().min[k]);
    }
    for k in 0..D {
        put_f64(&mut buf, t.domain().max[k]);
    }
    for &e in t.eps_count_levels() {
        put_f64(&mut buf, e);
    }
    for &e in t.eps_median_levels() {
        put_f64(&mut buf, e);
    }
    for depth in 0..=h {
        put_u64(&mut buf, first_index_at_depth(t.fanout(), depth) as u64);
    }
    put_u64(&mut buf, n as u64);
    for k in 0..D {
        for v in 0..n {
            put_f64(&mut buf, t.rect(v).min[k]);
        }
    }
    for k in 0..D {
        for v in 0..n {
            put_f64(&mut buf, t.rect(v).max[k]);
        }
    }
    for v in 0..n {
        put_f64(&mut buf, t.noisy_count(v).unwrap_or(0.0));
    }
    put_bitmap(&mut buf, t.node_ids().map(|v| t.noisy_count(v).is_some()));
    put_bitmap(&mut buf, t.node_ids().map(|v| t.is_cut(v)));
    let checksum = fnv1a(&buf[16..]);
    buf[8..16].copy_from_slice(&checksum.to_le_bytes());
    buf
}

/// A bounds-checked little-endian byte reader; every failure is a typed
/// [`DpsdError::Format`], never a panic or a silent wrap.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], DpsdError> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or_else(|| DpsdError::format("dpsd-bin: length arithmetic overflows"))?;
        if end > self.bytes.len() {
            return Err(DpsdError::format(format!(
                "dpsd-bin: truncated artifact (need {end} bytes, have {})",
                self.bytes.len()
            )));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, DpsdError> {
        let b = self.take(4)?;
        let b: [u8; 4] = b
            .try_into()
            .map_err(|_| DpsdError::format("dpsd-bin: short u32"))?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, DpsdError> {
        let b = self.take(8)?;
        let b: [u8; 8] = b
            .try_into()
            .map_err(|_| DpsdError::format("dpsd-bin: short u64"))?;
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, DpsdError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn f64s(&mut self, count: usize, what: &str) -> Result<Vec<f64>, DpsdError> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.f64().map_err(|_| {
                DpsdError::format(format!("dpsd-bin: truncated inside the {what} column"))
            })?);
        }
        Ok(out)
    }

    fn bitmap(&mut self, n: usize, what: &str) -> Result<Vec<bool>, DpsdError> {
        let bytes = self.take(n.div_ceil(8)).map_err(|_| {
            DpsdError::format(format!("dpsd-bin: truncated inside the {what} bitmap"))
        })?;
        let mut out = vec![false; n];
        for (v, out_bit) in out.iter_mut().enumerate() {
            *out_bit = bytes[v / 8] >> (v % 8) & 1 == 1;
        }
        if !n.is_multiple_of(8) {
            let last = bytes[bytes.len() - 1];
            if last >> (n % 8) != 0 {
                return Err(DpsdError::format(format!(
                    "dpsd-bin: {what} bitmap has nonzero padding bits"
                )));
            }
        }
        Ok(out)
    }
}

fn usize_field(value: u64, what: &str) -> Result<usize, DpsdError> {
    usize::try_from(value)
        .map_err(|_| DpsdError::format(format!("dpsd-bin: {what} {value} does not fit in memory")))
}

/// One published artifact in column form: what both codecs (JSON and
/// `dpsd-bin/v1`) decode into, what [`Columns::validate`] checks, and
/// what the arena is built from. The layout **is** the arena layout
/// (axis-major min/max columns, a count column, flag columns), so the
/// vectors move straight into a [`FlatSynopsis`] with no transpose and
/// no intermediate tree; [`Columns::into_tree`] rebuilds the pointer
/// tree only where a [`ReleasedSynopsis`] needs one.
pub(crate) struct Columns<const D: usize> {
    pub(crate) kind: TreeKind,
    pub(crate) postprocessed: bool,
    pub(crate) fanout: usize,
    pub(crate) height: usize,
    pub(crate) epsilon: f64,
    /// Unchecked corners; [`Columns::validate`] checks their order.
    pub(crate) domain: Rect<D>,
    pub(crate) eps_count: Vec<f64>,
    pub(crate) eps_median: Vec<f64>,
    /// Axis-major minima, `mins[k * n + v]` — wire order == arena order.
    pub(crate) mins: Vec<f64>,
    pub(crate) maxs: Vec<f64>,
    /// Released noisy counts; entries under a cleared `released` flag
    /// carry no information and are ignored.
    pub(crate) noisy: Vec<f64>,
    pub(crate) released: Vec<bool>,
    pub(crate) cut: Vec<bool>,
}

/// The shape checks of [`Columns::validate`]: fanout `2^D`, a height
/// whose complete tree fits under the node cap, and a node count equal
/// to that tree's. The binary decoder also runs this on the header
/// alone, before any column is sized from it.
pub(crate) fn check_shape<const D: usize>(
    fanout: usize,
    height: usize,
    nodes: usize,
) -> Result<(), DpsdError> {
    if fanout != 1usize << D {
        return Err(DpsdError::format(format!(
            "fanout {fanout} must be 2^dims ({})",
            1usize << D
        )));
    }
    let Some(m) = complete_tree_nodes_checked(fanout, height).filter(|&m| m <= MAX_NODES) else {
        return Err(DpsdError::format(format!(
            "fanout {fanout} height {height} exceeds the node cap"
        )));
    };
    if nodes != m {
        return Err(DpsdError::format(format!(
            "node count {nodes} does not match the complete tree ({m} nodes)"
        )));
    }
    Ok(())
}

impl<const D: usize> Columns<D> {
    fn node_count(&self) -> usize {
        self.noisy.len()
    }

    /// Node `v`'s corners, read from the axis-major columns.
    fn node_rect(&self, v: usize) -> Rect<D> {
        let n = self.node_count();
        let mut min = [0.0; D];
        let mut max = [0.0; D];
        for k in 0..D {
            min[k] = self.mins[k * n + v];
            max[k] = self.maxs[k * n + v];
        }
        Rect { min, max }
    }

    /// Every check the two codecs share; each codec keeps only its own
    /// framing. Failures are typed [`DpsdError::Format`] rejections.
    ///
    /// Beyond well-formedness, the declared `epsilon` must cover what
    /// the level budgets spend along a root-to-leaf path: registries
    /// debit the declared value, so an artifact that under-declares it
    /// would spend budget its tenant was never charged for.
    pub(crate) fn validate(self) -> Result<Self, DpsdError> {
        let n = self.node_count();
        check_shape::<D>(self.fanout, self.height, n)?;
        if !self.epsilon.is_finite() || self.epsilon < 0.0 {
            return Err(DpsdError::format("epsilon must be finite and non-negative"));
        }
        for (name, levels) in [
            ("eps_count", &self.eps_count),
            ("eps_median", &self.eps_median),
        ] {
            if levels.len() != self.height + 1 {
                return Err(DpsdError::format(format!(
                    "{name} must have height+1 = {} entries, got {}",
                    self.height + 1,
                    levels.len()
                )));
            }
            if levels.iter().any(|e| !e.is_finite() || *e < 0.0) {
                return Err(DpsdError::format(format!(
                    "{name} entries must be finite and non-negative"
                )));
            }
        }
        debug_assert!(self.mins.len() == D * n && self.maxs.len() == D * n);
        debug_assert!(self.released.len() == n && self.cut.len() == n);
        Rect::from_corners(self.domain.min, self.domain.max)
            .map_err(|e| DpsdError::format(format!("domain: {e}")))?;
        for v in 0..n {
            let r = self.node_rect(v);
            Rect::from_corners(r.min, r.max)
                .map_err(|e| DpsdError::format(format!("node {v}: {e}")))?;
        }
        if self.noisy.iter().any(|c| !c.is_finite()) {
            return Err(DpsdError::format("node counts must be finite"));
        }
        // OLS recomputation requires a released leaf level; a crafted
        // artifact claiming post-processing without one must be a typed
        // error, not a downstream panic.
        if self.postprocessed && self.eps_count[0] <= 0.0 {
            return Err(DpsdError::format(
                "postprocessed synopsis must carry leaf-level count budget",
            ));
        }
        let audit = audit_path_epsilon(&self.eps_count, &self.eps_median)
            .map_err(|e| DpsdError::format(e.to_string()))?;
        if !audit.within(self.epsilon) {
            return Err(DpsdError::format(format!(
                "declared epsilon {} is below the {} its level budgets spend per path",
                self.epsilon,
                audit.total()
            )));
        }
        Ok(self)
    }

    /// Rebuilds the pointer-path tree: per-node rects from the columns,
    /// OLS recomputed when the flag says the source was post-processed
    /// (posted counts are never on the wire), pruning cuts re-marked.
    pub(crate) fn into_tree(self) -> PsdTree<D> {
        let m = self.node_count();
        // Already validated corner-by-corner in `validate`.
        let rects = (0..m).map(|v| self.node_rect(v)).collect();
        let mut tree = PsdTree::from_columns(
            self.kind,
            self.fanout,
            self.height,
            self.domain,
            rects,
            vec![0.0; m], // exact counts were never published
            self.noisy,
            self.released,
            self.eps_count,
            self.eps_median,
            self.epsilon,
        );
        if self.postprocessed {
            let beta = crate::postprocess::ols_postprocess(&tree);
            tree.set_posted(beta);
        }
        for (v, &is_cut) in self.cut.iter().enumerate() {
            if is_cut {
                tree.mark_cut(v);
            }
        }
        tree
    }
}

/// Reads a `dpsd-bin/v1` artifact into validated columns. This function
/// checks only the binary framing — magic, checksum, version, header
/// codes, level table, bitmaps, exact length — and leaves everything
/// the JSON codec shares to [`Columns::validate`].
pub(crate) fn decode<const D: usize>(bytes: &[u8]) -> Result<Columns<D>, DpsdError> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.take(8)? != MAGIC {
        return Err(DpsdError::format(
            "not a dpsd-bin artifact (bad magic bytes)",
        ));
    }
    let checksum = cur.u64()?;
    if fnv1a(&bytes[16..]) != checksum {
        return Err(DpsdError::format(
            "dpsd-bin: checksum mismatch (corrupt artifact)",
        ));
    }
    let version = cur.u32()?;
    if version != VERSION {
        return Err(DpsdError::format(format!(
            "dpsd-bin: unsupported version {version}"
        )));
    }
    let dims = cur.u32()?;
    if usize::try_from(dims) != Ok(D) {
        return Err(DpsdError::format(format!(
            "dpsd-bin: artifact is {dims}-dimensional, expected {D}"
        )));
    }
    let kind_raw = cur.u32()?;
    let kind = kind_from_code(kind_raw)
        .ok_or_else(|| DpsdError::format(format!("dpsd-bin: unknown tree kind code {kind_raw}")))?;
    let flags = cur.u32()?;
    if flags & !FLAG_POSTPROCESSED != 0 {
        return Err(DpsdError::format(format!(
            "dpsd-bin: unknown flag bits {flags:#x}"
        )));
    }
    let fanout = usize_field(cur.u64()?, "fanout")?;
    let height = usize_field(cur.u64()?, "height")?;
    let m = usize_field(cur.u64()?, "node count")?;
    check_shape::<D>(fanout, height, m)?;
    let epsilon = cur.f64()?;
    let mut domain = Rect {
        min: [0.0; D],
        max: [0.0; D],
    };
    for k in 0..D {
        domain.min[k] = cur.f64()?;
    }
    for k in 0..D {
        domain.max[k] = cur.f64()?;
    }
    let eps_count = cur.f64s(height + 1, "eps_count")?;
    let eps_median = cur.f64s(height + 1, "eps_median")?;
    for depth in 0..=height {
        let offset = cur.u64()?;
        let expected = first_index_at_depth(fanout, depth) as u64;
        if offset != expected {
            return Err(DpsdError::format(format!(
                "dpsd-bin: level table entry {offset} at depth {depth}, expected {expected}"
            )));
        }
    }
    if cur.u64()? != m as u64 {
        return Err(DpsdError::format(
            "dpsd-bin: level table must end at the node count",
        ));
    }
    let mins = cur.f64s(D * m, "node minima")?;
    let maxs = cur.f64s(D * m, "node maxima")?;
    let noisy = cur.f64s(m, "noisy count")?;
    let released = cur.bitmap(m, "released")?;
    let cut = cur.bitmap(m, "cut")?;
    if cur.pos != bytes.len() {
        return Err(DpsdError::format(format!(
            "dpsd-bin: {} trailing bytes after the cut bitmap",
            bytes.len() - cur.pos
        )));
    }
    Columns {
        kind,
        postprocessed: flags & FLAG_POSTPROCESSED != 0,
        fanout,
        height,
        epsilon,
        domain,
        eps_count,
        eps_median,
        mins,
        maxs,
        noisy,
        released,
        cut,
    }
    .validate()
}

/// A released synopsis flattened into structure-of-arrays columns: the
/// zero-per-node-allocation arena behind `dpsd-bin` serving.
///
/// Everything a query needs is pre-resolved at construction — effective
/// leaf flags, the `Auto` count column, per-axis min/max slices — so the
/// hot loop is pure contiguous-slice arithmetic with no `Option`
/// chasing and no per-node structure loads. Implements
/// [`SpatialSynopsis`], so batch sharding
/// ([`ParallelQuery`](crate::synopsis::ParallelQuery)) and the serve
/// cache compose unchanged, and all answers are bit-identical to the
/// source tree's.
#[derive(Debug, Clone)]
pub struct FlatSynopsis<const D: usize = 2> {
    kind: TreeKind,
    fanout: usize,
    height: usize,
    domain: Rect<D>,
    epsilon: f64,
    eps_count: Vec<f64>,
    eps_median: Vec<f64>,
    postprocessed: bool,
    /// Node count.
    n: usize,
    /// Axis-major minima: `mins[k * n + v]` is node `v`'s lower bound on
    /// axis `k`. The same layout as the wire, so a blob's columns move
    /// in without a transpose.
    mins: Vec<f64>,
    maxs: Vec<f64>,
    /// `Auto`-resolved counts (posted when available, else noisy);
    /// `0.0` where withheld — guarded by `has_count`.
    counts: Vec<f64>,
    has_count: Vec<bool>,
    /// Effective-leaf flags (bottom level or pruning cut).
    leafish: Vec<bool>,
    /// First node index per depth, root first, with a final `n` sentinel
    /// (`height + 2` entries) — the fixed-width offset table of the
    /// binary format, kept for depth lookups.
    level_first: Vec<usize>,
}

impl<const D: usize> FlatSynopsis<D> {
    /// Flattens a released synopsis into the arena.
    pub fn from_released(synopsis: &ReleasedSynopsis<D>) -> Self {
        Self::from_tree(synopsis.as_tree())
    }

    /// Flattens any built tree into the arena. Counts are resolved as
    /// the tree's `Auto` source resolves them (posted when available,
    /// otherwise released noisy counts), so answers match
    /// [`crate::query::range_query`] on the same tree bit-for-bit.
    pub fn from_tree(tree: &PsdTree<D>) -> Self {
        let n = tree.node_count();
        let fanout = tree.fanout();
        let height = tree.height();
        let mut mins = vec![0.0; D * n];
        let mut maxs = vec![0.0; D * n];
        let mut counts = vec![0.0; n];
        let mut has_count = vec![false; n];
        let mut leafish = vec![false; n];
        for v in 0..n {
            let r = tree.rect(v);
            for k in 0..D {
                mins[k * n + v] = r.min[k];
                maxs[k * n + v] = r.max[k];
            }
            if let Some(c) = tree.count(v, CountSource::Auto) {
                counts[v] = c;
                has_count[v] = true;
            }
            leafish[v] = tree.is_effective_leaf(v);
        }
        let mut level_first = Vec::with_capacity(height + 2);
        for depth in 0..=height {
            level_first.push(first_index_at_depth(fanout, depth));
        }
        level_first.push(n);
        FlatSynopsis {
            kind: tree.kind(),
            fanout,
            height,
            domain: *tree.domain(),
            epsilon: tree.epsilon(),
            eps_count: tree.eps_count_levels().to_vec(),
            eps_median: tree.eps_median_levels().to_vec(),
            postprocessed: tree.is_postprocessed(),
            n,
            mins,
            maxs,
            counts,
            has_count,
            leafish,
            level_first,
        }
    }

    /// Validates a `dpsd-bin/v1` blob and loads it straight into the
    /// arena (see the module docs for the layout).
    ///
    /// The wire columns are already in arena order, so after validation
    /// they **move** into place: no transpose, no intermediate tree, and
    /// zero per-node allocation. A post-processed artifact's posted
    /// counts are never on the wire; OLS recomputes them over the
    /// level-ordered count column.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DpsdError> {
        Ok(Self::from_columns(decode::<D>(bytes)?))
    }

    /// Builds the arena from validated columns, resolving counts as a
    /// tree's `Auto` source does: OLS-posted on every node when the
    /// artifact was post-processed, else noisy where released.
    /// Effective leaves are the bottom level plus the pruning cuts.
    fn from_columns(c: Columns<D>) -> Self {
        let n = c.node_count();
        let mut counts = c.noisy;
        // Withheld entries read as 0 on the tree path (`noisy_count`
        // is `None`); OLS must see exactly that, whatever the wire held.
        for (count, &released) in counts.iter_mut().zip(&c.released) {
            if !released {
                *count = 0.0;
            }
        }
        let has_count = if c.postprocessed {
            counts =
                crate::postprocess::ols_over_columns(c.fanout, c.height, &c.eps_count, &counts);
            vec![true; n]
        } else {
            c.released
        };
        let mut leafish = c.cut;
        for flag in leafish[first_index_at_depth(c.fanout, c.height)..].iter_mut() {
            *flag = true;
        }
        let mut level_first = Vec::with_capacity(c.height + 2);
        for depth in 0..=c.height {
            level_first.push(first_index_at_depth(c.fanout, depth));
        }
        level_first.push(n);
        FlatSynopsis {
            kind: c.kind,
            fanout: c.fanout,
            height: c.height,
            domain: c.domain,
            epsilon: c.epsilon,
            eps_count: c.eps_count,
            eps_median: c.eps_median,
            postprocessed: c.postprocessed,
            n,
            mins: c.mins,
            maxs: c.maxs,
            counts,
            has_count,
            leafish,
            level_first,
        }
    }

    /// The family the source tree belongs to.
    pub fn kind(&self) -> TreeKind {
        self.kind
    }

    /// Fanout `f = 2^D`.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Height `h` (leaves at level 0, root at level `h`).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Whether the source tree was OLS-post-processed.
    pub fn is_postprocessed(&self) -> bool {
        self.postprocessed
    }

    /// Per-level count budgets (index 0 = leaves).
    pub fn eps_count_levels(&self) -> &[f64] {
        &self.eps_count
    }

    /// Per-level median budgets (index 0 = leaves).
    pub fn eps_median_levels(&self) -> &[f64] {
        &self.eps_median
    }

    /// Resident size of the arena's node columns in bytes — what the
    /// load-time benches report as `resident_bytes`.
    pub fn resident_bytes(&self) -> usize {
        self.mins.len() * 8
            + self.maxs.len() * 8
            + self.counts.len() * 8
            + self.has_count.len()
            + self.leafish.len()
            + self.level_first.len() * 8
    }

    /// Depth of node `v` (root 0), via the level offset table.
    fn depth_of(&self, v: usize) -> usize {
        match self.level_first.binary_search(&v) {
            Ok(depth) => depth,
            Err(insertion) => insertion - 1,
        }
    }

    /// Level of node `v` in the paper's convention (leaves 0).
    fn level_of(&self, v: usize) -> usize {
        self.height - self.depth_of(v)
    }

    /// Rebuilds node `v`'s rectangle from the columns. Only the partial-
    /// leaf path pays this; containment tests read the columns directly.
    #[inline]
    fn node_rect(&self, v: usize) -> Rect<D> {
        let mut min = [0.0; D];
        let mut max = [0.0; D];
        for k in 0..D {
            min[k] = self.mins[k * self.n + v];
            max[k] = self.maxs[k * self.n + v];
        }
        Rect { min, max }
    }

    /// The per-query descent behind every query entry point. An
    /// explicit node stack replaces the tree path's recursion; children
    /// are pushed in reverse so nodes settle in the tree's depth-first
    /// preorder, every `f64` is added in the same order as
    /// [`crate::query::range_query`] adds it, and answers stay
    /// bit-for-bit equal. `stack` is scratch space that callers reuse
    /// across queries; `sink` sees every settled node.
    fn descend<S: Sink<D>>(&self, query: &Rect<D>, stack: &mut Vec<usize>, sink: &mut S) -> f64 {
        let n = self.n;
        let mut acc = 0.0;
        stack.clear();
        stack.push(0);
        while let Some(v) = stack.pop() {
            // Branch-light containment tests: both fold over the axis
            // columns with no early exit, exact because they are pure
            // comparisons (no float arithmetic).
            let mut intersecting = true;
            let mut inside = true;
            for k in 0..D {
                let lo = self.mins[k * n + v];
                let hi = self.maxs[k * n + v];
                intersecting &= lo <= query.max[k] && query.min[k] <= hi;
                inside &= lo >= query.min[k] && hi <= query.max[k];
            }
            if !intersecting {
                continue;
            }
            let leafish = self.leafish[v];
            if inside {
                if self.has_count[v] {
                    sink.contained(self, v);
                    acc += self.counts[v];
                    continue;
                }
                if leafish {
                    continue;
                }
            } else if leafish {
                if self.has_count[v] {
                    // The real geometry method, on the rebuilt rect:
                    // op-identical to the tree path's uniformity
                    // estimate.
                    let fraction = self.node_rect(v).overlap_fraction(query);
                    if fraction > 0.0 {
                        sink.partial_leaf();
                        acc += self.counts[v] * fraction;
                    }
                }
                continue;
            }
            // Not an effective leaf, so not on the bottom level: the
            // node has a full block of children.
            let first = self.fanout * v + 1;
            stack.extend((first..first + self.fanout).rev());
        }
        acc
    }

    /// A descent stack sized for the deepest path: each level below the
    /// root leaves at most `fanout - 1` siblings waiting.
    fn stack(&self) -> Vec<usize> {
        Vec::with_capacity(self.height * (self.fanout - 1) + 1)
    }
}

/// What a descent reports about the nodes it settles. The unprofiled
/// path uses `()`, whose empty methods compile away; the profiled path
/// fills a [`QueryProfile`].
trait Sink<const D: usize> {
    /// Node `v` was maximally contained and contributed its count.
    fn contained(&mut self, flat: &FlatSynopsis<D>, v: usize);
    /// A partially covered leaf contributed a uniformity share.
    fn partial_leaf(&mut self);
}

impl<const D: usize> Sink<D> for () {
    fn contained(&mut self, _: &FlatSynopsis<D>, _: usize) {}
    fn partial_leaf(&mut self) {}
}

impl<const D: usize> Sink<D> for QueryProfile {
    fn contained(&mut self, flat: &FlatSynopsis<D>, v: usize) {
        self.contained_per_level[flat.level_of(v)] += 1;
    }

    fn partial_leaf(&mut self) {
        self.partial_leaves += 1;
    }
}

impl<const D: usize> Deserialize for FlatSynopsis<D> {
    /// Reads a published JSON synopsis straight into the arena: the JSON
    /// codec's column reader and the shared validator, then the same
    /// arena constructor as `from_bytes` — no tree in between.
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        Ok(Self::from_columns(columns_from_json(value)?))
    }
}

impl<const D: usize> SpatialSynopsis<D> for FlatSynopsis<D> {
    fn query(&self, query: &Rect<D>) -> f64 {
        self.descend(query, &mut self.stack(), &mut ())
    }

    fn query_batch(&self, queries: &[Rect<D>]) -> Vec<f64> {
        let mut stack = self.stack();
        queries
            .iter()
            .map(|q| self.descend(q, &mut stack, &mut ()))
            .collect()
    }

    fn query_profiled(&self, query: &Rect<D>) -> (f64, QueryProfile) {
        let mut profile = QueryProfile {
            contained_per_level: vec![0; self.height + 1],
            partial_leaves: 0,
        };
        let answer = self.descend(query, &mut self.stack(), &mut profile);
        (answer, profile)
    }

    fn domain(&self) -> Rect<D> {
        self.domain
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn node_count(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CountBudget;
    use crate::geometry::Point;
    use crate::synopsis::ParallelQuery;
    use crate::tree::PsdConfig;
    use crate::Parallelism;

    fn sample_points() -> (Rect<2>, Vec<Point>) {
        let domain = Rect::new(0.0, 0.0, 64.0, 64.0).unwrap();
        let pts = (0..2000)
            .map(|i| {
                Point::new(
                    (i % 53) as f64 * 64.0 / 53.0,
                    ((i * 7) % 61) as f64 * 64.0 / 61.0,
                )
            })
            .collect();
        (domain, pts)
    }

    fn workload(domain: &Rect, n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let fx = (i % 17) as f64 / 17.0;
                let fy = ((i * 5) % 13) as f64 / 13.0;
                let w = 4.0 + (i % 7) as f64 * 6.0;
                let h = 3.0 + (i % 11) as f64 * 4.0;
                Rect::new(
                    domain.min_x() + fx * (domain.width() - w),
                    domain.min_y() + fy * (domain.height() - h),
                    domain.min_x() + fx * (domain.width() - w) + w,
                    domain.min_y() + fy * (domain.height() - h) + h,
                )
                .unwrap()
            })
            .collect()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: query {i}: {x} vs {y}");
        }
    }

    #[test]
    fn flat_kernel_matches_tree_bit_for_bit_across_families() {
        let (domain, pts) = sample_points();
        let configs = [
            PsdConfig::quadtree(domain, 4, 0.5),
            PsdConfig::kd_standard(domain, 3, 0.5),
            PsdConfig::kd_hybrid(domain, 3, 0.5, 2),
            PsdConfig::kd_noisymean(domain, 3, 0.5),
            PsdConfig::hilbert_r(domain, 3, 0.5).with_hilbert_order(10),
        ];
        let queries = workload(&domain, 300);
        for config in configs {
            let tree = config.with_seed(21).build(&pts).unwrap();
            let flat = FlatSynopsis::from_tree(&tree);
            let expect = tree.query_batch(&queries);
            assert_bits_eq(
                &flat.query_batch(&queries),
                &expect,
                &format!("{} batch", tree.kind()),
            );
            let singles: Vec<f64> = queries.iter().map(|q| flat.query(q)).collect();
            assert_bits_eq(&singles, &expect, &format!("{} singles", tree.kind()));
            let parallel = flat.query_batch_parallel(&queries, Parallelism::fixed(3));
            assert_bits_eq(&parallel, &expect, &format!("{} parallel", tree.kind()));
        }
    }

    #[test]
    fn binary_roundtrip_is_bit_identical() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::kd_standard(domain, 4, 0.4)
            .with_prune_threshold(20.0)
            .with_seed(5)
            .build(&pts)
            .unwrap();
        assert!(tree.node_ids().any(|v| tree.is_cut(v)), "no pruning");
        let released = tree.release();
        let blob = released.to_flat_bytes();
        let reloaded = ReleasedSynopsis::<2>::from_flat_bytes(&blob).unwrap();
        let queries = workload(&domain, 200);
        assert_bits_eq(
            &reloaded.query_batch(&queries),
            &released.query_batch(&queries),
            "reloaded synopsis",
        );
        // Encoding is deterministic, so the blob round-trips exactly.
        assert_eq!(reloaded.to_flat_bytes(), blob, "re-encode drifted");
        // And the arena constructor answers the same.
        let flat = FlatSynopsis::<2>::from_bytes(&blob).unwrap();
        assert_bits_eq(
            &flat.query_batch(&queries),
            &released.query_batch(&queries),
            "arena from bytes",
        );
        for v in tree.node_ids() {
            assert_eq!(reloaded.as_tree().is_cut(v), tree.is_cut(v), "cut {v}");
            assert_eq!(
                reloaded.as_tree().noisy_count(v),
                tree.noisy_count(v),
                "count {v}"
            );
        }
    }

    #[test]
    fn direct_arena_load_matches_flatten_for_unpostprocessed_trees() {
        // The arena built from the wire columns must agree with
        // flattening the source tree on answers, leaf resolution
        // (pruning cuts!), and layout.
        let (domain, pts) = sample_points();
        let tree = PsdConfig::kd_standard(domain, 4, 0.4)
            .with_postprocess(false)
            .with_prune_threshold(20.0)
            .with_seed(5)
            .build(&pts)
            .unwrap();
        assert!(tree.node_ids().any(|v| tree.is_cut(v)), "no pruning");
        let blob = tree.release().to_flat_bytes();
        let direct = FlatSynopsis::<2>::from_bytes(&blob).unwrap();
        let flattened = FlatSynopsis::from_tree(&tree);
        let queries = workload(&domain, 200);
        assert_bits_eq(
            &direct.query_batch(&queries),
            &flattened.query_batch(&queries),
            "direct arena load",
        );
        assert_eq!(direct.resident_bytes(), flattened.resident_bytes());
        assert!(!direct.is_postprocessed());
    }

    #[test]
    fn withheld_wire_counts_are_ignored_by_the_ols_recompute() {
        // A crafted post-processed blob withholds the root (its level
        // still carries budget) and leaves a non-zero count under the
        // cleared released bit. The tree path reads a withheld count as
        // 0, so the arena must answer exactly as if the wire held 0.
        let (domain, pts) = sample_points();
        let tree = PsdConfig::quadtree(domain, 2, 0.5)
            .with_seed(3)
            .build(&pts)
            .unwrap();
        assert!(tree.is_postprocessed() && tree.eps_count_levels()[2] > 0.0);
        let craft = |root_count: f64| {
            let mut blob = tree.release().to_flat_bytes();
            let released_bitmap = blob.len() - 2 * 21usize.div_ceil(8);
            let noisy_root = released_bitmap - 8 * 21;
            blob[released_bitmap] &= !1;
            blob[noisy_root..noisy_root + 8].copy_from_slice(&root_count.to_le_bytes());
            let sum = fnv1a(&blob[16..]);
            blob[8..16].copy_from_slice(&sum.to_le_bytes());
            blob
        };
        let (zero, garbage) = (craft(0.0), craft(12345.0));

        let queries = workload(&domain, 120);
        let expect = FlatSynopsis::<2>::from_bytes(&zero)
            .unwrap()
            .query_batch(&queries);
        let arena = FlatSynopsis::<2>::from_bytes(&garbage).unwrap();
        assert_bits_eq(&arena.query_batch(&queries), &expect, "arena");
        let singles: Vec<f64> = queries.iter().map(|q| arena.query(q)).collect();
        assert_bits_eq(&singles, &expect, "arena singles");
        let reloaded = ReleasedSynopsis::<2>::from_flat_bytes(&garbage).unwrap();
        assert_eq!(reloaded.as_tree().noisy_count(0), None);
        assert_bits_eq(&reloaded.query_batch(&queries), &expect, "tree");
    }

    #[test]
    fn profiled_queries_match_the_tree_path() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::quadtree(domain, 3, 0.8)
            .with_seed(11)
            .build(&pts)
            .unwrap();
        let flat = FlatSynopsis::from_tree(&tree);
        for q in workload(&domain, 60) {
            let (a, pa) = tree.query_profiled(&q);
            let (b, pb) = flat.query_profiled(&q);
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(pa, pb, "profile diverged for {q:?}");
        }
    }

    #[test]
    fn withheld_counts_and_leaf_only_budgets_roundtrip() {
        let (domain, pts) = sample_points();
        let leafy = PsdConfig::quadtree(domain, 2, 0.5)
            .with_count_budget(CountBudget::LeafOnly)
            .with_postprocess(false)
            .with_seed(2)
            .build(&pts)
            .unwrap();
        let blob = leafy.release().to_flat_bytes();
        let loaded = ReleasedSynopsis::<2>::from_flat_bytes(&blob).unwrap();
        assert_eq!(loaded.as_tree().noisy_count(0), None, "root stays withheld");
        assert!(!loaded.as_tree().is_postprocessed());
        let queries = workload(&domain, 100);
        assert_bits_eq(
            &loaded.query_batch(&queries),
            &leafy.release().query_batch(&queries),
            "leaf-only",
        );
    }

    #[test]
    fn corrupt_artifacts_are_typed_errors_not_panics() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::quadtree(domain, 2, 0.5)
            .with_seed(4)
            .build(&pts)
            .unwrap();
        let good = tree.release().to_flat_bytes();
        assert!(ReleasedSynopsis::<2>::from_flat_bytes(&good).is_ok());

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            ReleasedSynopsis::<2>::from_flat_bytes(&bad),
            Err(DpsdError::Format { .. })
        ));
        // Flipped payload byte fails the checksum.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            ReleasedSynopsis::<2>::from_flat_bytes(&bad),
            Err(DpsdError::Format { reason }) if reason.contains("checksum")
        ));
        // Wrong dimension rejects under a typed error.
        assert!(matches!(
            ReleasedSynopsis::<3>::from_flat_bytes(&good),
            Err(DpsdError::Format { reason }) if reason.contains("dimensional")
        ));
        // Every truncation is an error, never a panic.
        for len in 0..good.len() {
            assert!(
                matches!(
                    ReleasedSynopsis::<2>::from_flat_bytes(&good[..len]),
                    Err(DpsdError::Format { .. })
                ),
                "prefix of {len} bytes must be rejected"
            );
        }
        // Trailing garbage is rejected (checksum covers it, so corrupt
        // the length while keeping the checksum honest: re-hash).
        let mut padded = good.clone();
        padded.push(0);
        let sum = super::fnv1a(&padded[16..]);
        padded[8..16].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            ReleasedSynopsis::<2>::from_flat_bytes(&padded),
            Err(DpsdError::Format { reason }) if reason.contains("trailing")
        ));
    }

    #[test]
    fn sniffing_helpers_read_the_header() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::quadtree(domain, 2, 0.5)
            .with_seed(8)
            .build(&pts)
            .unwrap();
        let blob = tree.release().to_flat_bytes();
        assert!(is_flat_artifact(&blob));
        assert_eq!(peek_dims(&blob), Some(2));
        assert!(!is_flat_artifact(b"{\"format\":\"dpsd-synopsis\"}"));
        assert_eq!(peek_dims(b"DPSDBIN1"), None, "short header");
        assert_eq!(peek_dims(b"not binary"), None);
    }

    #[test]
    fn height_zero_tree_roundtrips() {
        let domain = Rect::new(0.0, 0.0, 8.0, 8.0).unwrap();
        let pts: Vec<Point> = (0..32).map(|i| Point::new(i as f64 / 4.0, 1.0)).collect();
        let tree = PsdConfig::quadtree(domain, 0, 1.0)
            .with_seed(1)
            .build(&pts)
            .unwrap();
        let blob = tree.release().to_flat_bytes();
        let flat = FlatSynopsis::<2>::from_bytes(&blob).unwrap();
        assert_eq!(flat.node_count(), 1);
        let q = Rect::new(1.0, 0.0, 5.0, 4.0).unwrap();
        assert_eq!(flat.query(&q).to_bits(), tree.query(&q).to_bits());
    }
}
