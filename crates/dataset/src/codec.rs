//! The versioned binary image of a [`LongitudinalStore`] — the payload
//! of every [`crate::segment`] file.
//!
//! Re-parsing YAML dominates an uncached load, and the paper's own
//! workflow (§4–§5) analyses one frozen corpus many times: parse once,
//! reload in milliseconds. This codec is the part of the segment store
//! that makes the reload cheap; it is not a cache file of its own.
//!
//! # Image format (version 1)
//!
//! ```text
//! [ magic "OVHWMLC\n" (8 bytes) ][ u32 format version ]
//! [ u32 section count ]
//! [ section table: per section { u32 tag, u64 offset, u64 len, u32 crc } ]
//! [ section payloads ... ]
//! ```
//!
//! All integers are little-endian. Each section's CRC-32 (IEEE) covers
//! its payload bytes, so a flipped bit anywhere is detected before any
//! payload is interpreted. Sections:
//!
//! | tag | contents |
//! |-----|----------|
//! | `FPRT` | corpus fingerprint: per-file relative path, size, FNV-1a hash |
//! | `STAT` | the [`CorpusLoadStats`] base counters of the original build |
//! | `NODE` | the sorted node symbol table |
//! | `LDEF` | the sorted link-identity table |
//! | `SNAP` | timestamps, map kinds, node/link offset tables |
//! | `CELL` | node cells and link rows (ids + loads + orientation bits) |
//! | `EVNT` | the topology event log |
//!
//! The load and orientation columns are stored as raw byte runs and
//! deserialised with bulk slice copies; `u32` columns are fixed-width
//! little-endian runs decoded chunk-wise — no per-token branching. The
//! inverted link-series index is *not* stored: it is a deterministic
//! counting sort over the link column and is rebuilt on load, which costs
//! less than reading and checksumming it would.
//!
//! Decoding never panics: every read is bounds-checked, every id and load
//! is validated, and any violation (truncation, bad magic, unknown
//! version, CRC mismatch, dangling id) surfaces as [`CacheError`] so the
//! segment store can rebuild that one segment from YAML.

use std::fmt;

use wm_model::{GroupDelta, Load, MapKind, Node, NodeKind, SnapshotDiff, Timestamp};

use crate::loader::CorpusLoadStats;
use crate::longitudinal::{LinkDef, LongitudinalStore, NodeId, TopologyEvent};

/// The eight magic bytes opening every store image.
pub const CACHE_MAGIC: [u8; 8] = *b"OVHWMLC\n";

/// The current cache format version. Bump on any layout change; older
/// versions are rejected (and rebuilt), never migrated.
pub const CACHE_FORMAT_VERSION: u32 = 1;

const TAG_FINGERPRINT: u32 = u32::from_le_bytes(*b"FPRT");
const TAG_STATS: u32 = u32::from_le_bytes(*b"STAT");
const TAG_NODES: u32 = u32::from_le_bytes(*b"NODE");
const TAG_DEFS: u32 = u32::from_le_bytes(*b"LDEF");
const TAG_SNAPSHOTS: u32 = u32::from_le_bytes(*b"SNAP");
const TAG_CELLS: u32 = u32::from_le_bytes(*b"CELL");
const TAG_EVENTS: u32 = u32::from_le_bytes(*b"EVNT");

/// Section tags of version 1, in file order.
const SECTION_TAGS: [u32; 7] = [
    TAG_FINGERPRINT,
    TAG_STATS,
    TAG_NODES,
    TAG_DEFS,
    TAG_SNAPSHOTS,
    TAG_CELLS,
    TAG_EVENTS,
];

/// Why a cache file was rejected.
///
/// Every variant means "this file is not a usable cache"; none is a
/// programming error, and the cache-aware loader reacts to all of them
/// the same way — warn and rebuild from YAML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// The file does not start with [`CACHE_MAGIC`].
    BadMagic,
    /// The file's format version is not [`CACHE_FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// A read ran past the end of the file.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// A section payload failed its CRC-32 check.
    ChecksumMismatch {
        /// The four-character section tag.
        section: String,
    },
    /// The section table is malformed (missing, duplicated or
    /// out-of-bounds sections).
    BadSectionTable(&'static str),
    /// A decoded value violates a structural invariant (dangling id,
    /// load above 100, non-monotonic offsets, ...).
    Invalid(&'static str),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::BadMagic => write!(f, "not a longitudinal cache file (bad magic)"),
            CacheError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported cache format version {v} (this build reads {CACHE_FORMAT_VERSION})"
                )
            }
            CacheError::Truncated { context } => {
                write!(f, "cache file truncated while reading {context}")
            }
            CacheError::ChecksumMismatch { section } => {
                write!(f, "cache section {section:?} failed its CRC-32 check")
            }
            CacheError::BadSectionTable(why) => write!(f, "bad cache section table: {why}"),
            CacheError::Invalid(why) => write!(f, "invalid cache contents: {why}"),
        }
    }
}

impl std::error::Error for CacheError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, std-only.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0usize;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// One FNV-1a step.
fn fnv_step(h: u64, byte: &u8) -> u64 {
    (h ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01B3)
}

/// FNV-1a 64-bit hash — the per-file content hash of the fingerprint.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, fnv_step)
}

/// [`fnv1a`] of four byte strings at once, equal to four separate
/// calls. One chain is bound by the multiply's latency; four
/// independent chains stepped together keep the multiplier busy, which
/// is what makes content-checking a whole corpus cheap.
#[must_use]
pub(crate) fn fnv1a_x4(inputs: [&[u8]; 4]) -> [u64; 4] {
    let [a, b, c, d] = inputs;
    let [mut ha, mut hb, mut hc, mut hd] = [FNV_OFFSET; 4];
    for (((x, y), z), w) in a.iter().zip(b).zip(c).zip(d) {
        ha = fnv_step(ha, x);
        hb = fnv_step(hb, y);
        hc = fnv_step(hc, z);
        hd = fnv_step(hd, w);
    }
    let common = a.len().min(b.len()).min(c.len()).min(d.len());
    let rest = |bytes: &[u8], h: u64| bytes.get(common..).unwrap_or(&[]).iter().fold(h, fnv_step);
    [rest(a, ha), rest(b, hb), rest(c, hc), rest(d, hd)]
}

// ---------------------------------------------------------------------------
// Corpus fingerprint.
// ---------------------------------------------------------------------------

/// One corpus file's identity inside a [`CorpusFingerprint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintEntry {
    /// Relative path under the corpus root, `/`-separated.
    pub path: String,
    /// File size in bytes.
    pub size: u64,
    /// FNV-1a 64 hash of the file contents.
    pub hash: u64,
}

/// The identity of one map's YAML corpus: every snapshot file's relative
/// path, length and content hash, in timestamp order.
///
/// Only layout-conforming snapshot files participate — the segment
/// store itself, editor backups and other foreign files in the corpus
/// tree never influence the fingerprint (see
/// [`crate::paths::parse_path`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CorpusFingerprint {
    /// Per-file identities, sorted by snapshot timestamp.
    pub entries: Vec<FingerprintEntry>,
}

impl CorpusFingerprint {
    /// Number of fingerprinted files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no files were fingerprinted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A single digest over the whole fingerprint, for display.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for entry in &self.entries {
            h ^= fnv1a(entry.path.as_bytes()) ^ entry.size ^ entry.hash;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
    pub(crate) fn str16(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize);
        self.u16(s.len() as u16);
        self.bytes(s.as_bytes());
    }
    pub(crate) fn opt_str16(&mut self, s: Option<&str>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str16(s);
            }
        }
    }
    pub(crate) fn u32_run(&mut self, values: &[u32]) {
        self.u64(values.len() as u64);
        for &v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn map_kind_code(map: MapKind) -> u8 {
    match map {
        MapKind::Europe => 0,
        MapKind::World => 1,
        MapKind::NorthAmerica => 2,
        MapKind::AsiaPacific => 3,
    }
}

fn map_kind_from_code(code: u8) -> Option<MapKind> {
    match code {
        0 => Some(MapKind::Europe),
        1 => Some(MapKind::World),
        2 => Some(MapKind::NorthAmerica),
        3 => Some(MapKind::AsiaPacific),
        _ => None,
    }
}

fn node_kind_code(kind: NodeKind) -> u8 {
    match kind {
        NodeKind::Router => 0,
        NodeKind::Peering => 1,
    }
}

fn node_kind_from_code(code: u8) -> Option<NodeKind> {
    match code {
        0 => Some(NodeKind::Router),
        1 => Some(NodeKind::Peering),
        _ => None,
    }
}

fn encode_node(w: &mut Writer, node: &Node) {
    w.u8(node_kind_code(node.kind));
    w.str16(node.name.as_str());
}

fn encode_diff(w: &mut Writer, diff: &SnapshotDiff) {
    w.u32(diff.added_nodes.len() as u32);
    for node in &diff.added_nodes {
        encode_node(w, node);
    }
    w.u32(diff.removed_nodes.len() as u32);
    for node in &diff.removed_nodes {
        encode_node(w, node);
    }
    w.u32(diff.group_changes.len() as u32);
    for change in &diff.group_changes {
        w.str16(&change.a);
        w.str16(&change.b);
        w.u64(change.before as u64);
        w.u64(change.after as u64);
    }
}

/// Serialises a store, its corpus fingerprint and the load counters of
/// the build that produced it into one cache image.
#[must_use]
pub fn encode_store(
    store: &LongitudinalStore,
    fingerprint: &CorpusFingerprint,
    stats: &CorpusLoadStats,
) -> Vec<u8> {
    let mut sections: Vec<(u32, Vec<u8>)> = Vec::with_capacity(SECTION_TAGS.len());

    let mut w = Writer { buf: Vec::new() };
    w.u64(fingerprint.entries.len() as u64);
    for entry in &fingerprint.entries {
        w.str16(&entry.path);
        w.u64(entry.size);
        w.u64(entry.hash);
    }
    sections.push((TAG_FINGERPRINT, std::mem::take(&mut w.buf)));

    w.u64(stats.files as u64);
    w.u64(stats.parsed as u64);
    w.u64(stats.failed as u64);
    w.u64(stats.bytes);
    sections.push((TAG_STATS, std::mem::take(&mut w.buf)));

    w.u32(store.nodes.len() as u32);
    for node in &store.nodes {
        encode_node(&mut w, node);
    }
    sections.push((TAG_NODES, std::mem::take(&mut w.buf)));

    w.u32(store.defs.len() as u32);
    for def in &store.defs {
        w.u32(def.a.index() as u32);
        w.u32(def.b.index() as u32);
        w.opt_str16(def.label_a.as_deref());
        w.opt_str16(def.label_b.as_deref());
    }
    sections.push((TAG_DEFS, std::mem::take(&mut w.buf)));

    w.u32(store.timestamps.len() as u32);
    for &t in &store.timestamps {
        w.i64(t.unix());
    }
    for &map in &store.maps {
        w.u8(map_kind_code(map));
    }
    w.u32_run(&store.node_offsets);
    w.u32_run(&store.link_offsets);
    sections.push((TAG_SNAPSHOTS, std::mem::take(&mut w.buf)));

    w.u32_run(&store.node_cells);
    w.u32_run(&store.link_cells);
    w.u64(store.load_a.len() as u64);
    w.bytes(&store.load_a);
    w.bytes(&store.load_b);
    w.bytes(
        &store
            .flipped
            .iter()
            .map(|&f| u8::from(f))
            .collect::<Vec<u8>>(),
    );
    sections.push((TAG_CELLS, std::mem::take(&mut w.buf)));

    w.u32(store.events.len() as u32);
    for event in &store.events {
        w.i64(event.previous.unix());
        w.i64(event.at.unix());
        encode_diff(&mut w, &event.diff);
    }
    sections.push((TAG_EVENTS, std::mem::take(&mut w.buf)));

    // Assemble: header, table, payloads.
    let header_len = CACHE_MAGIC.len() + 4 + 4;
    let table_len = sections.len() * (4 + 8 + 8 + 4);
    let mut out = Vec::with_capacity(
        header_len + table_len + sections.iter().map(|(_, p)| p.len()).sum::<usize>(),
    );
    out.extend_from_slice(&CACHE_MAGIC);
    out.extend_from_slice(&CACHE_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = (header_len + table_len) as u64;
    for (tag, payload) in &sections {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        offset += payload.len() as u64;
    }
    for (_, payload) in &sections {
        out.extend_from_slice(payload);
    }
    out
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over a section payload.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CacheError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(CacheError::Truncated { context })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self, context: &'static str) -> Result<u8, CacheError> {
        Ok(self.take(1, context)?[0])
    }

    pub(crate) fn u16(&mut self, context: &'static str) -> Result<u16, CacheError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self, context: &'static str) -> Result<u32, CacheError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, context: &'static str) -> Result<u64, CacheError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    pub(crate) fn i64(&mut self, context: &'static str) -> Result<i64, CacheError> {
        Ok(self.u64(context)? as i64)
    }

    pub(crate) fn str16(&mut self, context: &'static str) -> Result<&'a str, CacheError> {
        let len = self.u16(context)? as usize;
        let bytes = self.take(len, context)?;
        std::str::from_utf8(bytes).map_err(|_| CacheError::Invalid("non-UTF-8 string"))
    }

    pub(crate) fn opt_str16(
        &mut self,
        context: &'static str,
    ) -> Result<Option<&'a str>, CacheError> {
        match self.u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(self.str16(context)?)),
            _ => Err(CacheError::Invalid("bad optional-string marker")),
        }
    }

    /// Bulk-decodes a length-prefixed `u32` run.
    pub(crate) fn u32_run(&mut self, context: &'static str) -> Result<Vec<u32>, CacheError> {
        let len = self.checked_len(context)?;
        let bytes = self.take(len * 4, context)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Reads a `u64` count and sanity-bounds it against the bytes left,
    /// so a corrupt length cannot trigger a huge allocation.
    pub(crate) fn checked_len(&mut self, context: &'static str) -> Result<usize, CacheError> {
        let len = self.u64(context)?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if len > remaining {
            return Err(CacheError::Truncated { context });
        }
        Ok(len as usize)
    }

    pub(crate) fn finished(&self, context: &'static str) -> Result<(), CacheError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CacheError::Invalid(context))
        }
    }
}

fn decode_node(r: &mut Reader<'_>, context: &'static str) -> Result<Node, CacheError> {
    let kind =
        node_kind_from_code(r.u8(context)?).ok_or(CacheError::Invalid("unknown node kind"))?;
    let name = r.str16(context)?;
    Ok(Node {
        name: name.into(),
        kind,
    })
}

fn decode_diff(r: &mut Reader<'_>) -> Result<SnapshotDiff, CacheError> {
    const CTX: &str = "an event diff";
    let mut diff = SnapshotDiff::default();
    let added = r.u32(CTX)?;
    for _ in 0..added {
        diff.added_nodes.push(decode_node(r, CTX)?);
    }
    let removed = r.u32(CTX)?;
    for _ in 0..removed {
        diff.removed_nodes.push(decode_node(r, CTX)?);
    }
    let changes = r.u32(CTX)?;
    for _ in 0..changes {
        let a = r.str16(CTX)?.to_owned();
        let b = r.str16(CTX)?.to_owned();
        let before = usize::try_from(r.u64(CTX)?)
            .map_err(|_| CacheError::Invalid("group-change count overflow"))?;
        let after = usize::try_from(r.u64(CTX)?)
            .map_err(|_| CacheError::Invalid("group-change count overflow"))?;
        diff.group_changes.push(GroupDelta {
            a,
            b,
            before,
            after,
        });
    }
    Ok(diff)
}

/// The section table entry of one section, resolved to its payload.
fn section<'a>(
    bytes: &'a [u8],
    table: &[(u32, u64, u64, u32)],
    tag: u32,
) -> Result<&'a [u8], CacheError> {
    let mut found = None;
    for entry in table {
        if entry.0 == tag {
            if found.is_some() {
                return Err(CacheError::BadSectionTable("duplicate section"));
            }
            found = Some(entry);
        }
    }
    let &(_, offset, len, crc) = found.ok_or(CacheError::BadSectionTable("missing section"))?;
    let start = usize::try_from(offset).map_err(|_| CacheError::BadSectionTable("huge offset"))?;
    let len = usize::try_from(len).map_err(|_| CacheError::BadSectionTable("huge length"))?;
    let end = start
        .checked_add(len)
        .filter(|&end| end <= bytes.len())
        .ok_or(CacheError::Truncated {
            context: "a section payload",
        })?;
    let payload = &bytes[start..end];
    if crc32(payload) != crc {
        let tag_bytes = tag.to_le_bytes();
        return Err(CacheError::ChecksumMismatch {
            section: String::from_utf8_lossy(&tag_bytes).into_owned(),
        });
    }
    Ok(payload)
}

/// Deserialises a cache image back into the store, the fingerprint it
/// was built from and the original build's load counters.
///
/// Any structural problem — truncation, wrong magic or version, CRC
/// mismatch, dangling ids — returns a [`CacheError`]; this function
/// never panics on arbitrary input.
pub fn decode_store(
    bytes: &[u8],
) -> Result<(LongitudinalStore, CorpusFingerprint, CorpusLoadStats), CacheError> {
    // Header.
    let mut header = Reader::new(bytes);
    let magic = header.take(CACHE_MAGIC.len(), "the magic")?;
    if magic != CACHE_MAGIC {
        return Err(CacheError::BadMagic);
    }
    let version = header.u32("the format version")?;
    if version != CACHE_FORMAT_VERSION {
        return Err(CacheError::UnsupportedVersion(version));
    }
    let section_count = header.u32("the section count")?;
    if section_count as usize != SECTION_TAGS.len() {
        return Err(CacheError::BadSectionTable("wrong section count"));
    }
    let mut table = Vec::with_capacity(section_count as usize);
    for _ in 0..section_count {
        let tag = header.u32("the section table")?;
        let offset = header.u64("the section table")?;
        let len = header.u64("the section table")?;
        let crc = header.u32("the section table")?;
        table.push((tag, offset, len, crc));
    }

    // Fingerprint.
    let mut r = Reader::new(section(bytes, &table, TAG_FINGERPRINT)?);
    let n = r.checked_len("the fingerprint")?;
    let mut fingerprint = CorpusFingerprint {
        entries: Vec::with_capacity(n),
    };
    for _ in 0..n {
        fingerprint.entries.push(FingerprintEntry {
            path: r.str16("a fingerprint path")?.to_owned(),
            size: r.u64("a fingerprint size")?,
            hash: r.u64("a fingerprint hash")?,
        });
    }
    r.finished("trailing bytes after the fingerprint")?;

    // Stats.
    let mut r = Reader::new(section(bytes, &table, TAG_STATS)?);
    let overflow = |_| CacheError::Invalid("stats counter overflow");
    let stats = CorpusLoadStats {
        files: usize::try_from(r.u64("the load stats")?).map_err(overflow)?,
        parsed: usize::try_from(r.u64("the load stats")?).map_err(overflow)?,
        failed: usize::try_from(r.u64("the load stats")?).map_err(overflow)?,
        bytes: r.u64("the load stats")?,
        ..CorpusLoadStats::default()
    };
    r.finished("trailing bytes after the load stats")?;

    // Node table.
    let mut r = Reader::new(section(bytes, &table, TAG_NODES)?);
    let n = r.u32("the node table")? as usize;
    let mut nodes = Vec::with_capacity(n.min(r.buf.len()));
    for _ in 0..n {
        nodes.push(decode_node(&mut r, "the node table")?);
    }
    r.finished("trailing bytes after the node table")?;

    // Link-identity table.
    let mut r = Reader::new(section(bytes, &table, TAG_DEFS)?);
    let n = r.u32("the link table")? as usize;
    let mut defs = Vec::with_capacity(n.min(r.buf.len()));
    for _ in 0..n {
        let a = r.u32("a link endpoint")?;
        let b = r.u32("a link endpoint")?;
        if a as usize >= nodes.len() || b as usize >= nodes.len() {
            return Err(CacheError::Invalid("link endpoint id out of range"));
        }
        defs.push(LinkDef {
            a: NodeId::from_raw(a),
            b: NodeId::from_raw(b),
            label_a: r.opt_str16("a link label")?.map(str::to_owned),
            label_b: r.opt_str16("a link label")?.map(str::to_owned),
        });
    }
    r.finished("trailing bytes after the link table")?;

    // Snapshot axis: timestamps, maps, offset tables.
    let mut r = Reader::new(section(bytes, &table, TAG_SNAPSHOTS)?);
    let snaps = r.u32("the snapshot count")? as usize;
    let timestamp_bytes = r.take(
        snaps.checked_mul(8).ok_or(CacheError::Truncated {
            context: "the timestamps",
        })?,
        "the timestamps",
    )?;
    let timestamps: Vec<Timestamp> = timestamp_bytes
        .chunks_exact(8)
        .map(|c| Timestamp::from_unix(i64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
        .collect();
    if timestamps.windows(2).any(|w| w[0] > w[1]) {
        return Err(CacheError::Invalid("timestamps out of order"));
    }
    let map_bytes = r.take(snaps, "the map kinds")?;
    let maps = map_bytes
        .iter()
        .map(|&c| map_kind_from_code(c).ok_or(CacheError::Invalid("unknown map kind")))
        .collect::<Result<Vec<MapKind>, CacheError>>()?;
    let node_offsets = r.u32_run("the node offsets")?;
    let link_offsets = r.u32_run("the link offsets")?;
    r.finished("trailing bytes after the snapshot axis")?;

    // Cells: node ids, link rows, loads, orientation — bulk reads.
    let mut r = Reader::new(section(bytes, &table, TAG_CELLS)?);
    let node_cells = r.u32_run("the node cells")?;
    let link_cells = r.u32_run("the link cells")?;
    let rows = r.checked_len("the load columns")?;
    if rows != link_cells.len() {
        return Err(CacheError::Invalid("load column length mismatch"));
    }
    let load_a = r.take(rows, "the load column")?.to_vec();
    let load_b = r.take(rows, "the load column")?.to_vec();
    let flipped_bytes = r.take(rows, "the orientation column")?;
    r.finished("trailing bytes after the cells")?;
    if load_a
        .iter()
        .chain(&load_b)
        .any(|&p| Load::new(p).is_none())
    {
        return Err(CacheError::Invalid("load above 100 %"));
    }
    if flipped_bytes.iter().any(|&b| b > 1) {
        return Err(CacheError::Invalid("bad orientation bit"));
    }
    let flipped: Vec<bool> = flipped_bytes.iter().map(|&b| b != 0).collect();

    // Offset-table invariants: right length, start at 0, non-decreasing,
    // end at the matching cell count.
    let check_offsets = |offsets: &[u32], cells: usize| -> Result<(), CacheError> {
        if offsets.len() != snaps + 1
            || offsets.first() != Some(&0)
            || offsets.last().map(|&o| o as usize) != Some(cells)
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(CacheError::Invalid("bad offset table"));
        }
        Ok(())
    };
    check_offsets(&node_offsets, node_cells.len())?;
    check_offsets(&link_offsets, link_cells.len())?;
    if node_cells.iter().any(|&id| id as usize >= nodes.len()) {
        return Err(CacheError::Invalid("node cell id out of range"));
    }
    if link_cells.iter().any(|&id| id as usize >= defs.len()) {
        return Err(CacheError::Invalid("link cell id out of range"));
    }

    // Event log.
    let mut r = Reader::new(section(bytes, &table, TAG_EVENTS)?);
    let n = r.u32("the event log")? as usize;
    let mut events = Vec::with_capacity(n.min(r.buf.len()));
    for _ in 0..n {
        events.push(TopologyEvent {
            previous: Timestamp::from_unix(r.i64("an event timestamp")?),
            at: Timestamp::from_unix(r.i64("an event timestamp")?),
            diff: decode_diff(&mut r)?,
        });
    }
    r.finished("trailing bytes after the event log")?;

    let mut store = LongitudinalStore {
        nodes,
        defs,
        timestamps,
        maps,
        node_offsets,
        node_cells,
        link_offsets,
        link_cells,
        load_a,
        load_b,
        flipped,
        series_offsets: Vec::new(),
        series_rows: Vec::new(),
        events,
    };
    // The inverted series index is derived, not stored: rebuild it.
    store.rebuild_series_index();
    Ok((store, fingerprint, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::{Duration, Link, LinkEnd, TopologySnapshot};

    fn load(p: u8) -> Load {
        Load::new(p).unwrap()
    }

    fn link(a: &str, la: u8, b: &str, lb: u8, label: Option<&str>) -> Link {
        Link::new(
            LinkEnd::new(Node::from_name(a), label.map(str::to_owned), load(la)),
            LinkEnd::new(Node::from_name(b), label.map(str::to_owned), load(lb)),
        )
    }

    fn sample_store() -> LongitudinalStore {
        let t0 = Timestamp::from_ymd(2021, 6, 1);
        let mut s0 = TopologySnapshot::new(MapKind::Europe, t0);
        s0.nodes = vec![
            Node::from_name("rbx-g1"),
            Node::from_name("fra-fr5"),
            Node::from_name("ARELION"),
        ];
        s0.links = vec![
            link("rbx-g1", 10, "fra-fr5", 20, Some("#1")),
            link("fra-fr5", 42, "ARELION", 9, None),
        ];
        let mut s1 = s0.clone();
        s1.timestamp = t0 + Duration::from_minutes(5);
        s1.nodes.push(Node::from_name("sbg-g2"));
        s1.links.push(link("sbg-g2", 7, "rbx-g1", 8, None));
        LongitudinalStore::from_snapshots([&s0, &s1])
    }

    fn sample_fingerprint() -> CorpusFingerprint {
        CorpusFingerprint {
            entries: vec![
                FingerprintEntry {
                    path: "europe/yaml/2021/06/01/0000.yaml".into(),
                    size: 120,
                    hash: 0xDEAD_BEEF,
                },
                FingerprintEntry {
                    path: "europe/yaml/2021/06/01/0005.yaml".into(),
                    size: 140,
                    hash: 0xFEED_FACE,
                },
            ],
        }
    }

    fn sample_stats() -> CorpusLoadStats {
        CorpusLoadStats {
            files: 3,
            parsed: 2,
            failed: 1,
            bytes: 260,
            ..CorpusLoadStats::default()
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let store = sample_store();
        let image = encode_store(&store, &sample_fingerprint(), &sample_stats());
        let (back, fingerprint, stats) = decode_store(&image).expect("decodes");
        assert_eq!(back, store);
        assert_eq!(fingerprint, sample_fingerprint());
        assert_eq!(stats, sample_stats());
        // Deterministic: re-encoding the decoded store is byte-identical.
        let image2 = encode_store(&back, &fingerprint, &stats);
        assert_eq!(image, image2);
    }

    #[test]
    fn empty_store_round_trips() {
        let store = LongitudinalStore::from_snapshots(std::iter::empty());
        let image = encode_store(&store, &CorpusFingerprint::default(), &sample_stats());
        let (back, fingerprint, _) = decode_store(&image).expect("decodes");
        assert_eq!(back, store);
        assert!(fingerprint.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut image = encode_store(&sample_store(), &sample_fingerprint(), &sample_stats());
        image[0] ^= 0xFF;
        assert_eq!(decode_store(&image), Err(CacheError::BadMagic));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut image = encode_store(&sample_store(), &sample_fingerprint(), &sample_stats());
        image[8] = 99;
        assert_eq!(
            decode_store(&image),
            Err(CacheError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn flipped_payload_bit_fails_its_crc() {
        let image = encode_store(&sample_store(), &sample_fingerprint(), &sample_stats());
        // Flip one bit in every payload byte position in turn — each must
        // be caught by a section CRC (the header/table region is walked
        // by the truncation test instead).
        let payload_start = image.len() - 64; // deep in the last sections
        for pos in payload_start..image.len() {
            let mut corrupt = image.clone();
            corrupt[pos] ^= 0x01;
            match decode_store(&corrupt) {
                Err(CacheError::ChecksumMismatch { .. }) => {}
                other => panic!("flip at {pos}: expected checksum mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let image = encode_store(&sample_store(), &sample_fingerprint(), &sample_stats());
        for len in 0..image.len() {
            assert!(
                decode_store(&image[..len]).is_err(),
                "truncation to {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn digest_reacts_to_any_entry_change() {
        let full = sample_fingerprint();
        let mut diverged = full.clone();
        diverged.entries[0].hash ^= 1;
        assert_ne!(full.digest(), diverged.digest());
    }

    #[test]
    fn fnv1a_matches_known_vectors_and_its_four_lane_form() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
        let inputs: [&[u8]; 4] = [b"foobar", b"", b"a longer input string", b"a"];
        assert_eq!(fnv1a_x4(inputs), inputs.map(fnv1a));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
