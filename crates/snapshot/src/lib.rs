//! Durable-session wire codec: versioned, sectioned, CRC-checked snapshots.
//!
//! The fleet's closed loop is a *continuously learning* controller — its
//! knowledge base is the product of uptime — so suspending a process must
//! not discard it. This crate is the process-to-process transport behind
//! checkpoint/restore: a dependency-free, hand-rolled binary codec — the
//! workspace's only serialization — with the layout
//!
//! ```text
//! magic "MCAS" | version u16 LE
//! repeated sections:
//!   tag u16 LE | payload length u64 LE | CRC32(payload) u32 LE | payload
//! end marker: tag 0xFFFF
//! ```
//!
//! Every multi-byte integer is little-endian; `f64`s travel as their IEEE-754
//! bit patterns ([`f64::to_bits`]), so round-trips are bit-exact — the
//! repo's standing determinism invariant extends across a checkpoint
//! boundary. Decoding never panics: truncation, corruption (CRC mismatch),
//! version skew and malformed payloads all surface as a typed
//! [`SnapshotError`].
//!
//! The codec works in memory. [`SnapshotWriter`] appends a stream to the
//! caller's `Vec<u8>`, encoding each section's payload straight into it and
//! patching the section's length and CRC in place afterwards, and
//! [`SnapshotReader`] reads a borrowed `&[u8]`, lending each section out as
//! a CRC-checked sub-slice of it — no payload is staged or copied on either
//! side. Moving the bytes to and from a file or socket is the caller's.
//!
//! Domain types implement [`Snapshot`] (encode into a byte buffer) and
//! [`Restore`] (decode from a [`Cursor`]); the traits ship with impls for
//! the primitives and the std collections the workspace's state lives in,
//! so a struct's impl is usually a field-by-field fold. Types whose restore
//! needs ambient context (a `SystemConfig`) expose inherent
//! `decode_state`-style constructors instead of `Restore`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// The magic bytes every snapshot stream starts with.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MCAS";

/// The wire-format version this build writes and accepts.
///
/// Versioning policy: the format is rigid within a version — readers reject
/// any other version outright ([`SnapshotError::UnsupportedVersion`]) rather
/// than guessing at field offsets. Additive evolution bumps the version and
/// teaches the reader both layouts.
///
/// Version 2 dropped the predictor's metric index from the predictor
/// payload (the block-summary tree that replaced it is derived state,
/// recomputed on restore) and the pivot count from `IndexPolicy`. Version 3
/// dropped the scan parallelism policy (two `usize`s) from the predictor
/// payload along with the chunked scan it selected. Version 4 reordered the
/// tenant state inside a shard section (the control loop's fields —
/// predictor, pool, billing, standing forecast, memo — now sit together,
/// ahead of the RNG words and rollups; same bytes, different order). Version
/// 5 dropped the predictor's distance-kind tag and scratch-growth counter
/// (nine bytes per predictor) with the code that set them. Version 6 dropped
/// the user-sharded tenant set (its eight-byte length prefix, when empty)
/// from the engine section, with the mode it recorded. Version 7 dropped the
/// engine seed from the meta section and every tenant's RNG words from its
/// shard section (eight bytes plus 32 per tenant), with the engine's own mix
/// tick that drew from them. Version 8 writes every slot history as
/// columns — runs per slot, `(group, len)` per run, then each run's users
/// as its first id and the gaps after it — instead of a length-prefixed
/// vector per slot and per run. Version 9 drops the simulated server each
/// running pool instance carried (its configuration and, on a t2 instance,
/// its CPU-credit model: 34 bytes per instance, 32 more per t2), which no
/// restore read back into anything. Streams of any older version are
/// rejected.
pub const SNAPSHOT_VERSION: u16 = 9;

/// The reserved end-of-stream section tag.
pub const END_TAG: u16 = 0xFFFF;

/// Why a snapshot could not be decoded (or a section written). Decoding is
/// total: arbitrary bytes produce one of these, never a panic and never a
/// silently wrong restore (payloads are CRC-checked and must be consumed
/// exactly).
#[derive(Debug)]
pub enum SnapshotError {
    /// The stream ended before the announced bytes arrived.
    Truncated {
        /// What was being read when the stream ran out.
        context: &'static str,
    },
    /// The stream does not start with [`SNAPSHOT_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The stream's version is not the one this build understands.
    UnsupportedVersion {
        /// The version in the header.
        found: u16,
        /// The version this build supports.
        supported: u16,
    },
    /// A section's payload failed its CRC32 check.
    CorruptSection {
        /// The section's tag.
        tag: u16,
        /// The CRC stored in the stream.
        stored_crc: u32,
        /// The CRC computed over the payload actually read.
        computed_crc: u32,
    },
    /// The next section's tag is not the one the reader expected.
    UnexpectedSection {
        /// The tag the reader was asked for.
        expected: u16,
        /// The tag found in the stream ([`END_TAG`] when the stream ended
        /// early).
        found: u16,
    },
    /// A payload decoded to an impossible value (bad enum tag, trailing
    /// bytes, an out-of-range length, an invariant violation).
    Malformed {
        /// What was malformed.
        context: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::BadMagic { found } => {
                write!(f, "bad snapshot magic {found:?} (expected \"MCAS\")")
            }
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported snapshot version {found} (supported: {supported})")
            }
            SnapshotError::CorruptSection {
                tag,
                stored_crc,
                computed_crc,
            } => write!(
                f,
                "section {tag:#06x} corrupt: stored CRC {stored_crc:#010x}, computed {computed_crc:#010x}"
            ),
            SnapshotError::UnexpectedSection { expected, found } => {
                write!(f, "expected section {expected:#06x}, found {found:#06x}")
            }
            SnapshotError::Malformed { context } => write!(f, "malformed snapshot: {context}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The IEEE CRC-32 polynomial, reflected (bit 31 is the coefficient of x⁰).
const POLY: u32 = 0xEDB8_8320;

/// The IEEE CRC-32 lookup tables (reflected, polynomial [`POLY`]) for
/// slicing-by-16, computed at compile time: `CRC_TABLES[0]` is the classic
/// bytewise table, and `CRC_TABLES[k][n]` is the CRC of byte `n` followed by
/// `k` zero bytes, so sixteen input bytes fold into the running CRC with
/// sixteen independent lookups instead of a sixteen-step dependency chain.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            n += 1;
        }
        k += 1;
    }
    tables
};

/// Inputs at least this long are checksummed as four lanes ([`crc32`]).
const LANE_MIN: usize = 16 * 1024;

/// IEEE CRC-32 of a byte slice (the zlib/PNG polynomial).
///
/// Inputs under 16 KiB run one slicing-by-16 loop. Longer ones are cut into
/// four equal stripes, each a whole number of 16-byte blocks, plus a tail
/// of under 64 bytes: one loop advances the four stripes' CRCs side by side
/// — four independent dependency chains instead of one — and zlib's
/// `crc32_combine` arithmetic joins them before the tail is folded in. The
/// values are the same either way.
pub fn crc32(data: &[u8]) -> u32 {
    if data.len() < LANE_MIN {
        return !crc32_serial(!0, data);
    }
    let stripe = (data.len() / 4) & !15;
    let (striped, tail) = data.split_at(4 * stripe);
    let (blocks, _) = striped.as_chunks::<16>();
    let (first, rest) = blocks.split_at(stripe / 16);
    let (second, rest) = rest.split_at(stripe / 16);
    let (third, fourth) = rest.split_at(stripe / 16);
    let mut lanes = [!0u32; 4];
    for (((a, b), c), d) in first.iter().zip(second).zip(third).zip(fourth) {
        lanes = [
            fold_block(lanes[0], a),
            fold_block(lanes[1], b),
            fold_block(lanes[2], c),
            fold_block(lanes[3], d),
        ];
    }
    // crc(A ++ B) = crc(A) · x^(8·|B|) ⊕ crc(B), and every B here is one
    // stripe long, so the three joins share one operator
    let shift = x8nmodp(stripe as u64);
    let joined = lanes[1..]
        .iter()
        .fold(!lanes[0], |crc, &lane| multmodp(shift, crc) ^ !lane);
    !crc32_serial(!joined, tail)
}

/// Advances a running (pre-conditioned) CRC over `data`: slicing-by-16 over
/// the whole blocks, then the tail a byte at a time.
fn crc32_serial(mut c: u32, data: &[u8]) -> u32 {
    let (blocks, tail) = data.as_chunks::<16>();
    for block in blocks {
        c = fold_block(c, block);
    }
    for &byte in tail {
        c = CRC_TABLES[0][((c ^ u32::from(byte)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Folds one 16-byte block into the running CRC `c`.
#[inline(always)]
fn fold_block(c: u32, block: &[u8; 16]) -> u32 {
    let word =
        |at: usize| u32::from_le_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]]);
    // folds one little-endian word that has `words_after` more words behind
    // it in its 16-byte block: its last byte is `4 * words_after` bytes from
    // the block's end, its first three bytes further
    let fold = |w: u32, words_after: usize| {
        let t = &CRC_TABLES[4 * words_after..4 * words_after + 4];
        t[3][(w & 0xFF) as usize]
            ^ t[2][((w >> 8) & 0xFF) as usize]
            ^ t[1][((w >> 16) & 0xFF) as usize]
            ^ t[0][(w >> 24) as usize]
    };
    fold(word(0) ^ c, 3) ^ fold(word(4), 2) ^ fold(word(8), 1) ^ fold(word(12), 0)
}

/// `a · b mod P` over GF(2), both operands and the result in the CRC's
/// reflected representation (zlib's `multmodp`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    product
}

/// `X2N_TABLE[k]` is x^(2^k) mod P (zlib's `x2n_table`).
const X2N_TABLE: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x¹
    table[0] = p;
    let mut k = 1;
    while k < 32 {
        p = multmodp(p, p);
        table[k] = p;
        k += 1;
    }
    table
};

/// x^(8·`bytes`) mod P: the operator that moves a CRC past `bytes` bytes
/// (zlib's `x2nmodp(bytes, 3)`). The order of x modulo P divides 2³² − 1,
/// so the table's exponents wrap every 32 doublings.
fn x8nmodp(mut bytes: u64) -> u32 {
    let mut p = 1u32 << 31; // x⁰
    let mut k = 3;
    while bytes != 0 {
        if bytes & 1 != 0 {
            p = multmodp(X2N_TABLE[k & 31], p);
        }
        bytes >>= 1;
        k += 1;
    }
    p
}

/// What a completed write or read amounted to — the numbers the
/// `fleet_snapshot_*` telemetry counters and the snapshot benchmark report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStats {
    /// Total bytes written/read, framing included.
    pub bytes: u64,
    /// Sections written/read (end marker excluded).
    pub sections: u32,
}

/// A bounds-checked read position over a decoded section payload.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Takes the next `n` bytes, or fails with [`SnapshotError::Truncated`].
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(SnapshotError::Truncated { context })?;
        let bytes = &self.buf[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

/// Serializes a value into the snapshot wire format.
pub trait Snapshot {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Appends the encodings of `items` back to back, with no length prefix
    /// — the body of every `Vec<Self>` on the wire. Must produce exactly the
    /// bytes of encoding each item in turn; fixed-width types override it to
    /// move the run in one pass ([`encode_le_run`]).
    fn encode_slice(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(out);
        }
    }
}

/// [`Restore::decode_many`]'s default pre-allocates at most this many
/// elements, so a corrupt length prefix cannot force a huge allocation
/// before the payload bound catches it.
const PREALLOC_CAP: usize = 4096;

/// Deserializes a value from the snapshot wire format. Decoding must
/// consume exactly the bytes [`Snapshot::encode`] produced and must never
/// panic on adversarial input.
pub trait Restore: Sized {
    /// Decodes one value from the cursor.
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError>;

    /// Decodes `len` values laid back to back — the body of every
    /// `Vec<Self>` on the wire. Must equal decoding each item in turn;
    /// fixed-width types override it to claim the whole run with one bounds
    /// check ([`decode_le_run`]). `len` comes off the wire: an
    /// implementation must not allocate for it before the cursor has shown
    /// the bytes are there.
    fn decode_many(cur: &mut Cursor<'_>, len: usize) -> Result<Vec<Self>, SnapshotError> {
        let mut items = Vec::with_capacity(len.min(PREALLOC_CAP));
        for _ in 0..len {
            items.push(Self::decode(cur)?);
        }
        Ok(items)
    }
}

/// Appends `items` as a run of `W`-byte little-endian words: one `resize`,
/// then one fill pass. The shared body of [`Snapshot::encode_slice`] for
/// the fixed-width integers and for newtypes over them.
pub fn encode_le_run<T, const W: usize>(
    items: &[T],
    out: &mut Vec<u8>,
    to_le_bytes: impl Fn(&T) -> [u8; W],
) {
    let start = out.len();
    out.resize(start + items.len() * W, 0);
    let (words, _) = out[start..].as_chunks_mut::<W>();
    for (word, item) in words.iter_mut().zip(items) {
        *word = to_le_bytes(item);
    }
}

/// Decodes `len` `W`-byte little-endian words: the run's `len × W` bytes are
/// claimed from the cursor first (an overflowing or overlong `len` is
/// [`SnapshotError::Truncated`], before anything is allocated) and
/// collected after. The shared body of [`Restore::decode_many`] for the
/// fixed-width integers and for newtypes over them.
pub fn decode_le_run<T, const W: usize>(
    cur: &mut Cursor<'_>,
    len: usize,
    context: &'static str,
    from_le_bytes: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>, SnapshotError> {
    let bytes = len
        .checked_mul(W)
        .ok_or(SnapshotError::Truncated { context })?;
    let (words, _) = cur.take(bytes, context)?.as_chunks::<W>();
    Ok(words.iter().map(|word| from_le_bytes(*word)).collect())
}

macro_rules! impl_le_int {
    ($($t:ty),*) => {$(
        impl Snapshot for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
                encode_le_run(items, out, |item| item.to_le_bytes());
            }
        }
        impl Restore for $t {
            fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
                let bytes = cur.take(std::mem::size_of::<$t>(), stringify!($t))?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returned the exact size")))
            }
            fn decode_many(cur: &mut Cursor<'_>, len: usize) -> Result<Vec<Self>, SnapshotError> {
                decode_le_run(cur, len, stringify!($t), <$t>::from_le_bytes)
            }
        }
    )*};
}

impl_le_int!(u8, u16, u32, u64, i64);

impl Snapshot for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Restore for usize {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        usize::try_from(u64::decode(cur)?).map_err(|_| SnapshotError::Malformed {
            context: "usize out of range for this platform",
        })
    }
}

impl Snapshot for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}

impl Restore for f64 {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(f64::from_bits(u64::decode(cur)?))
    }
}

impl Snapshot for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Restore for bool {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        match u8::decode(cur)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed {
                context: "bool tag",
            }),
        }
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => false.encode(out),
            Some(value) => {
                true.encode(out);
                value.encode(out);
            }
        }
    }
}

impl<T: Restore> Restore for Option<T> {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(if bool::decode(cur)? {
            Some(T::decode(cur)?)
        } else {
            None
        })
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        T::encode_slice(self, out);
    }
}

impl<T: Restore> Restore for Vec<T> {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let len = usize::decode(cur)?;
        T::decode_many(cur, len)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        let (front, back) = self.as_slices();
        T::encode_slice(front, out);
        T::encode_slice(back, out);
    }
}

impl<T: Restore> Restore for VecDeque<T> {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Vec::<T>::decode(cur)?.into())
    }
}

impl<K: Snapshot, V: Snapshot> Snapshot for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (key, value) in self {
            key.encode(out);
            value.encode(out);
        }
    }
}

impl<K: Restore + Ord, V: Restore> Restore for BTreeMap<K, V> {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let len = usize::decode(cur)?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let key = K::decode(cur)?;
            let value = V::decode(cur)?;
            if map.insert(key, value).is_some() {
                return Err(SnapshotError::Malformed {
                    context: "duplicate map key",
                });
            }
        }
        Ok(map)
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Restore, B: Restore> Restore for (A, B) {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(cur)?, B::decode(cur)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
}

impl<A: Restore, B: Restore, C: Restore> Restore for (A, B, C) {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(cur)?, B::decode(cur)?, C::decode(cur)?))
    }
}

impl Snapshot for [u64; 4] {
    fn encode(&self, out: &mut Vec<u8>) {
        for word in self {
            word.encode(out);
        }
    }
}

impl Restore for [u64; 4] {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok([
            u64::decode(cur)?,
            u64::decode(cur)?,
            u64::decode(cur)?,
            u64::decode(cur)?,
        ])
    }
}

/// Appends a snapshot stream to a caller's buffer: header, then tagged
/// CRC-framed sections in call order, then the end marker
/// ([`SnapshotWriter::finish`]). Every section is encoded straight into the
/// buffer behind 12 placeholder bytes, which are patched with the payload's
/// length and CRC once it is complete, so no payload is staged or copied.
#[derive(Debug)]
pub struct SnapshotWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Where this stream starts in `out`; the bytes before it are the
    /// caller's and are never touched.
    start: usize,
    sections: u32,
}

impl<'a> SnapshotWriter<'a> {
    /// Starts a stream at the end of `out`: appends the magic and version
    /// header. Nothing already in `out` is cleared or moved.
    ///
    /// # Errors
    ///
    /// None: appending to a `Vec` cannot fail. The `Result` lets a
    /// checkpoint propagate every step of the stream with `?` alike.
    pub fn new(out: &'a mut Vec<u8>) -> Result<Self, SnapshotError> {
        let start = out.len();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        Ok(Self {
            out,
            start,
            sections: 0,
        })
    }

    /// Writes one section whose payload is whatever `encode` appends to the
    /// buffer it is handed (the stream's own buffer). `encode` must only
    /// append.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when `tag` is the reserved [`END_TAG`];
    /// nothing is written and `encode` is not called.
    pub fn section(
        &mut self,
        tag: u16,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), SnapshotError> {
        if tag == END_TAG {
            return Err(SnapshotError::Malformed {
                context: "END_TAG is reserved",
            });
        }
        let header = self.out.len();
        self.out.extend_from_slice(&tag.to_le_bytes());
        self.out.extend_from_slice(&[0; 12]);
        let payload = self.out.len();
        encode(self.out);
        let len = (self.out.len() - payload) as u64;
        let crc = crc32(&self.out[payload..]);
        self.out[header + 2..header + 10].copy_from_slice(&len.to_le_bytes());
        self.out[header + 10..payload].copy_from_slice(&crc.to_le_bytes());
        self.sections += 1;
        Ok(())
    }

    /// Encodes `value` as one section.
    pub fn encode_section<T: Snapshot + ?Sized>(
        &mut self,
        tag: u16,
        value: &T,
    ) -> Result<(), SnapshotError> {
        self.section(tag, |out| value.encode(out))
    }

    /// Writes the end marker and reports what this stream amounted to.
    pub fn finish(self) -> Result<SnapshotStats, SnapshotError> {
        self.out.extend_from_slice(&END_TAG.to_le_bytes());
        Ok(SnapshotStats {
            bytes: (self.out.len() - self.start) as u64,
            sections: self.sections,
        })
    }
}

/// Reads a snapshot stream off the front of a borrowed byte slice, section
/// by section, validating the header, each section's CRC, and the end
/// marker. Payloads are lent out as sub-slices of the input.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    /// The input; its position is the number of stream bytes read so far.
    cur: Cursor<'a>,
    sections: u32,
}

impl<'a> SnapshotReader<'a> {
    /// Opens the stream at the front of `bytes`: validates the magic and
    /// version header. Bytes past the stream's end marker are never read.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let mut cur = Cursor::new(bytes);
        let magic = cur.take(4, "magic")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic {
                found: magic.try_into().expect("take returned 4 bytes"),
            });
        }
        let version = u16::from_le_bytes(
            cur.take(2, "version")?
                .try_into()
                .expect("take returned 2 bytes"),
        );
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        Ok(Self { cur, sections: 0 })
    }

    /// Reads the next section, which must carry `expected` as its tag, and
    /// returns its CRC-verified payload: a sub-slice of the input.
    pub fn payload(&mut self, expected: u16) -> Result<&'a [u8], SnapshotError> {
        let tag = self.read_tag()?;
        if tag != expected {
            return Err(SnapshotError::UnexpectedSection {
                expected,
                found: tag,
            });
        }
        let header = self.cur.take(12, "section header")?;
        let len = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
        let stored_crc = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        // a corrupt (huge) length is a truncation at the real end of the
        // input, never an allocation
        let truncated = SnapshotError::Truncated {
            context: "section payload",
        };
        let len = usize::try_from(len).map_err(|_| truncated)?;
        let payload = self.cur.take(len, "section payload")?;
        let computed_crc = crc32(payload);
        if computed_crc != stored_crc {
            return Err(SnapshotError::CorruptSection {
                tag,
                stored_crc,
                computed_crc,
            });
        }
        self.sections += 1;
        Ok(payload)
    }

    /// Reads the next section and decodes it as `T`, requiring the payload
    /// to be consumed exactly.
    pub fn decode_section<T: Restore>(&mut self, tag: u16) -> Result<T, SnapshotError> {
        let mut cur = Cursor::new(self.payload(tag)?);
        let value = T::decode(&mut cur)?;
        if !cur.is_empty() {
            return Err(SnapshotError::Malformed {
                context: "trailing bytes in section",
            });
        }
        Ok(value)
    }

    /// Consumes the end marker and reports what was read; `bytes` is the
    /// stream's length, end marker included.
    pub fn finish(mut self) -> Result<SnapshotStats, SnapshotError> {
        let tag = self.read_tag()?;
        if tag != END_TAG {
            return Err(SnapshotError::UnexpectedSection {
                expected: END_TAG,
                found: tag,
            });
        }
        Ok(SnapshotStats {
            bytes: self.cur.pos as u64,
            sections: self.sections,
        })
    }

    fn read_tag(&mut self) -> Result<u16, SnapshotError> {
        let tag = self.cur.take(2, "section tag")?;
        Ok(u16::from_le_bytes(
            tag.try_into().expect("take returned 2 bytes"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // the canonical IEEE check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook bit-at-a-time CRC-32 the sliced kernel must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data
            .iter()
            .fold(!0u32, |crc, &byte| bitwise_step(crc, byte))
    }

    /// Advances a running CRC by one byte, a bit at a time.
    fn bitwise_step(crc: u32, byte: u8) -> u32 {
        (0..8).fold(crc ^ u32::from(byte), |c, _| {
            (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg())
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Every length around the 16-byte block size (empty, a lone tail,
        /// up to eight blocks plus a tail), at every alignment of the
        /// slice's start.
        #[test]
        fn crc32_matches_the_bytewise_reference(
            raw in proptest::collection::vec(0u16..256, 146..147),
        ) {
            let buffer: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
            for start in 0..16 {
                for len in 0..=130 {
                    let data = &buffer[start..start + len];
                    proptest::prop_assert_eq!(
                        crc32(data),
                        crc32_bytewise(data),
                        "start {}, length {}", start, len
                    );
                }
            }
        }

        /// zlib's combine identity, `crc(a ++ b)` from `crc(a)`, `crc(b)`
        /// and `|b|` — the join the four-lane path relies on — at every
        /// split of the buffer, both empty halves included.
        #[test]
        fn crc32_combine_joins_the_crcs_of_two_halves(
            raw in proptest::collection::vec(0u16..256, 0..200),
        ) {
            let buffer: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
            for split in 0..=buffer.len() {
                let (a, b) = buffer.split_at(split);
                proptest::prop_assert_eq!(
                    crc32_combine(crc32(a), crc32(b), b.len() as u64),
                    crc32(&buffer),
                    "split {} of {}", split, buffer.len()
                );
            }
        }
    }

    /// zlib's `crc32_combine`, from the operator the four-lane path uses.
    fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
        multmodp(x8nmodp(len_b), crc_a) ^ crc_b
    }

    /// Deterministic pseudo-random bytes (splitmix64).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// `crc32_bytewise` of every prefix of `data`: entry `n` covers
    /// `data[..n]`.
    fn bytewise_prefixes(data: &[u8]) -> Vec<u32> {
        let mut crc = !0u32;
        let mut prefixes = vec![0];
        for &byte in data {
            crc = bitwise_step(crc, byte);
            prefixes.push(!crc);
        }
        prefixes
    }

    /// The four-lane path against the bit-at-a-time reference: every length
    /// within 64 bytes of the 16 KiB cut-over (both sides of it), every tail
    /// length 0..64 behind four whole stripes (4·16·k + r), at unaligned
    /// starts. A stripe boundary 16 bytes off or a dropped tail changes
    /// these values.
    #[test]
    fn crc32_lanes_match_the_bytewise_reference() {
        let buffer = noise(4 * 16 * 400 + 64 + 16, 42);
        for start in [0, 1, 7, 13] {
            let data = &buffer[start..];
            let reference = bytewise_prefixes(data);
            let around_cut_over = LANE_MIN - 64..=LANE_MIN + 64;
            let tails = (0..64).map(|r| 4 * 16 * 400 + r);
            for len in around_cut_over.chain(tails) {
                assert_eq!(
                    crc32(&data[..len]),
                    reference[len],
                    "start {start}, length {len}"
                );
            }
        }
    }

    /// One multi-MiB input, aligned and not, against the reference.
    #[test]
    fn crc32_lanes_match_the_bytewise_reference_at_megabytes() {
        let buffer = noise(3 * 1024 * 1024 + 45, 7);
        for start in [0, 5] {
            let data = &buffer[start..];
            assert_eq!(crc32(data), crc32_bytewise(data), "start {start}");
        }
    }

    fn write_two_sections() -> Vec<u8> {
        let mut buf = Vec::new();
        let mut writer = SnapshotWriter::new(&mut buf).unwrap();
        writer
            .encode_section(1, &vec![(3u32, 4.5f64), (7u32, -0.0f64)])
            .unwrap();
        writer.encode_section(2, &Some(42u64)).unwrap();
        let stats = writer.finish().unwrap();
        assert_eq!(stats.sections, 2);
        assert_eq!(stats.bytes as usize, buf.len());
        buf
    }

    #[test]
    fn round_trip_preserves_values_bit_exactly() {
        let buf = write_two_sections();
        let mut reader = SnapshotReader::new(buf.as_slice()).unwrap();
        let pairs: Vec<(u32, f64)> = reader.decode_section(1).unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], (3, 4.5));
        assert_eq!(pairs[1].0, 7);
        assert_eq!(
            pairs[1].1.to_bits(),
            (-0.0f64).to_bits(),
            "signed zero survives"
        );
        let answer: Option<u64> = reader.decode_section(2).unwrap();
        assert_eq!(answer, Some(42));
        let stats = reader.finish().unwrap();
        assert_eq!(stats.bytes as usize, buf.len());
    }

    #[test]
    fn collections_and_scalars_round_trip() {
        let map: BTreeMap<u32, Vec<u8>> = [(1, vec![2, 3]), (9, vec![])].into();
        let deque: VecDeque<usize> = vec![8, 6, 7].into();
        let state: [u64; 4] = [1, u64::MAX, 0, 0xDEAD_BEEF];
        let mut out = Vec::new();
        map.encode(&mut out);
        deque.encode(&mut out);
        state.encode(&mut out);
        true.encode(&mut out);
        (-5i64).encode(&mut out);
        let mut cur = Cursor::new(&out);
        assert_eq!(BTreeMap::<u32, Vec<u8>>::decode(&mut cur).unwrap(), map);
        assert_eq!(VecDeque::<usize>::decode(&mut cur).unwrap(), deque);
        assert_eq!(<[u64; 4]>::decode(&mut cur).unwrap(), state);
        assert!(bool::decode(&mut cur).unwrap());
        assert_eq!(i64::decode(&mut cur).unwrap(), -5);
        assert!(cur.is_empty());
    }

    #[test]
    fn a_wrapped_deque_encodes_in_logical_order() {
        let mut deque: VecDeque<u32> = (0..8).collect();
        for next in 8..11 {
            deque.pop_front();
            deque.push_back(next);
        }
        assert!(
            !deque.as_slices().1.is_empty(),
            "the ring must wrap for the two-run encoding to be exercised"
        );
        let mut out = Vec::new();
        deque.encode(&mut out);
        let mut flat = Vec::new();
        Vec::from(deque.clone()).encode(&mut flat);
        assert_eq!(out, flat);
        assert_eq!(
            VecDeque::<u32>::decode(&mut Cursor::new(&out)).unwrap(),
            deque
        );
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let mut buf = write_two_sections();
        buf[0] ^= 0xFF;
        assert!(matches!(
            SnapshotReader::new(buf.as_slice()).unwrap_err(),
            SnapshotError::BadMagic { .. }
        ));
        let mut buf = write_two_sections();
        buf[4] = 0x7F; // version low byte
        assert!(matches!(
            SnapshotReader::new(buf.as_slice()).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 0x7F, .. }
        ));
        // version 1 carried the pivot index inside the predictor payload;
        // its streams are refused, not misread
        let mut buf = write_two_sections();
        buf[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            SnapshotReader::new(buf.as_slice()).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 1,
                supported: 9
            }
        ));
        // version 2 carried 16 bytes of scan parallelism policy inside every
        // predictor; a complete (empty) version-2 stream is refused at the
        // header, not decoded 16 bytes late
        assert!(matches!(
            SnapshotReader::new(&b"MCAS\x02\x00\xFF\xFF"[..]).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 2,
                supported: 9
            }
        ));
        // version 3 kept a tenant's standing forecast and memo after its
        // metrics; its field order is refused, not decoded into the wrong
        // fields
        assert!(matches!(
            SnapshotReader::new(&b"MCAS\x03\x00\xFF\xFF"[..]).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 3,
                supported: 9
            }
        ));
        // version 4 carried a distance-kind tag and an eighth stats counter
        // inside every predictor; refused, not decoded nine bytes late
        assert!(matches!(
            SnapshotReader::new(&b"MCAS\x04\x00\xFF\xFF"[..]).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 4,
                supported: 9
            }
        ));
        // version 5 carried the user-sharded tenant set in the engine
        // section; refused, not decoded eight bytes early
        assert!(matches!(
            SnapshotReader::new(&b"MCAS\x05\x00\xFF\xFF"[..]).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 5,
                supported: 9
            }
        ));
        // version 6 carried the engine seed and every tenant's RNG words;
        // refused, not read with the seed as the thread count
        assert!(matches!(
            SnapshotReader::new(&b"MCAS\x06\x00\xFF\xFF"[..]).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 6,
                supported: 9
            }
        ));
        // version 7 carried every slot history as a tree of vectors (per
        // slot an index and a run count, per run a group and a length-prefixed
        // user list); refused, not read as columns
        assert!(matches!(
            SnapshotReader::new(&b"MCAS\x07\x00\xFF\xFF"[..]).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 7,
                supported: 9
            }
        ));
        // version 8 carried a simulated server inside every running pool
        // instance; refused, not read 34 bytes late
        assert!(matches!(
            SnapshotReader::new(&b"MCAS\x08\x00\xFF\xFF"[..]).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 8,
                supported: 9
            }
        ));
    }

    #[test]
    fn the_wire_doc_names_this_version() {
        let doc = include_str!("../../../docs/snapshot.md");
        let pin = format!("`SNAPSHOT_VERSION = {SNAPSHOT_VERSION}`");
        assert!(doc.contains(&pin), "docs/snapshot.md must say {pin}");
    }

    #[test]
    fn payload_corruption_is_caught_by_the_crc() {
        let mut buf = write_two_sections();
        let last = buf.len() - 3; // inside section 2's payload
        buf[last] ^= 0x01;
        let mut reader = SnapshotReader::new(buf.as_slice()).unwrap();
        let _: Vec<(u32, f64)> = reader.decode_section(1).unwrap();
        assert!(matches!(
            reader.decode_section::<Option<u64>>(2).unwrap_err(),
            SnapshotError::CorruptSection { tag: 2, .. }
        ));
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_length() {
        let buf = write_two_sections();
        for cut in 0..buf.len() {
            let mut reader = match SnapshotReader::new(&buf[..cut]) {
                Ok(reader) => reader,
                Err(SnapshotError::Truncated { .. }) => continue,
                Err(other) => panic!("cut {cut}: unexpected header error {other}"),
            };
            let outcome = reader
                .decode_section::<Vec<(u32, f64)>>(1)
                .and_then(|_| reader.decode_section::<Option<u64>>(2))
                .and_then(|_| reader.finish().map(|_| ()));
            assert!(
                matches!(
                    outcome,
                    Err(SnapshotError::Truncated { .. })
                        | Err(SnapshotError::UnexpectedSection { .. })
                ),
                "cut {cut}: {outcome:?}"
            );
        }
    }

    #[test]
    fn wrong_tag_and_trailing_bytes_are_rejected() {
        let buf = write_two_sections();
        let mut reader = SnapshotReader::new(buf.as_slice()).unwrap();
        assert!(matches!(
            reader.payload(9).unwrap_err(),
            SnapshotError::UnexpectedSection {
                expected: 9,
                found: 1
            }
        ));
        // decoding section 1 as a smaller type leaves trailing bytes
        let mut reader = SnapshotReader::new(buf.as_slice()).unwrap();
        assert!(matches!(
            reader.decode_section::<u64>(1).unwrap_err(),
            SnapshotError::Malformed { .. }
        ));
    }

    #[test]
    fn malformed_scalars_are_rejected() {
        let mut cur = Cursor::new(&[2u8]);
        assert!(matches!(
            bool::decode(&mut cur).unwrap_err(),
            SnapshotError::Malformed {
                context: "bool tag"
            }
        ));
        // a map with a duplicate key cannot round-trip silently
        let mut out = Vec::new();
        2usize.encode(&mut out);
        1u32.encode(&mut out);
        5u8.encode(&mut out);
        1u32.encode(&mut out);
        6u8.encode(&mut out);
        let mut cur = Cursor::new(&out);
        assert!(matches!(
            BTreeMap::<u32, u8>::decode(&mut cur).unwrap_err(),
            SnapshotError::Malformed { .. }
        ));
    }

    #[test]
    fn the_end_tag_cannot_name_a_section() {
        let mut buf = Vec::new();
        let mut writer = SnapshotWriter::new(&mut buf).unwrap();
        assert!(matches!(
            writer
                .section(END_TAG, |out| out.extend_from_slice(b"payload"))
                .unwrap_err(),
            SnapshotError::Malformed {
                context: "END_TAG is reserved"
            }
        ));
        assert!(matches!(
            writer.encode_section(END_TAG, &7u64).unwrap_err(),
            SnapshotError::Malformed { .. }
        ));
        // the refused sections left no bytes behind
        let stats = writer.finish().unwrap();
        assert_eq!((stats.sections, stats.bytes), (0, 8));
        assert_eq!(buf, b"MCAS\x09\x00\xFF\xFF");
    }

    #[test]
    fn corrupt_length_prefix_does_not_allocate_unbounded() {
        let mut buf = Vec::new();
        let mut writer = SnapshotWriter::new(&mut buf).unwrap();
        writer
            .section(1, |out| out.extend_from_slice(b"tiny"))
            .unwrap();
        writer.finish().unwrap();
        // blow the length field up to ~2^63 while keeping the stream short
        buf[8] = 0xFF;
        buf[14] = 0x7F;
        let mut reader = SnapshotReader::new(buf.as_slice()).unwrap();
        assert!(matches!(
            reader.payload(1).unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
    }
}
