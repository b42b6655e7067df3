//! Durable-session wire codec: versioned, sectioned, CRC-checked snapshots.
//!
//! The fleet's closed loop is a *continuously learning* controller — its
//! knowledge base is the product of uptime — so suspending a process must
//! not discard it. This crate is the process-to-process transport behind
//! checkpoint/restore: a dependency-free, hand-rolled binary codec (the
//! workspace's serde stand-ins implement only marker traits, so there is no
//! derive path) with the layout
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
//! Domain types implement [`Snapshot`] (encode into a byte buffer) and
//! [`Restore`] (decode from a [`Cursor`]); the traits ship with impls for
//! the primitives and the std collections the workspace's state lives in,
//! so a struct's impl is usually a field-by-field fold. Types whose restore
//! needs ambient context (a `SystemConfig`, a thread pool) expose inherent
//! `decode_state`-style constructors instead of `Restore`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};

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
/// ahead of the RNG words and rollups; same bytes, different order). Streams
/// of any older version are rejected.
pub const SNAPSHOT_VERSION: u16 = 4;

/// The reserved end-of-stream section tag.
pub const END_TAG: u16 = 0xFFFF;

/// Why a snapshot could not be decoded (or written). Decoding is total:
/// arbitrary bytes produce one of these, never a panic and never a silently
/// wrong restore (payloads are CRC-checked and must be consumed exactly).
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
    /// An underlying I/O failure other than clean truncation.
    Io(io::Error),
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
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated { context: "stream" }
        } else {
            SnapshotError::Io(e)
        }
    }
}

/// The IEEE CRC-32 lookup table (reflected, polynomial `0xEDB88320`),
/// computed at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut n = 0;
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
};

/// IEEE CRC-32 of a byte slice (the zlib/PNG polynomial).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &byte in data {
        c = CRC_TABLE[((c ^ u32::from(byte)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
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
}

/// Deserializes a value from the snapshot wire format. Decoding must
/// consume exactly the bytes [`Snapshot::encode`] produced and must never
/// panic on adversarial input.
pub trait Restore: Sized {
    /// Decodes one value from the cursor.
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! impl_le_int {
    ($($t:ty),*) => {$(
        impl Snapshot for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Restore for $t {
            fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
                let bytes = cur.take(std::mem::size_of::<$t>(), stringify!($t))?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returned the exact size")))
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

/// Decoded collection lengths pre-allocate at most this many elements, so a
/// corrupt length prefix cannot force a huge allocation before the payload
/// bound catches it.
const PREALLOC_CAP: usize = 4096;

impl<T: Snapshot> Snapshot for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Restore> Restore for Vec<T> {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let len = usize::decode(cur)?;
        let mut items = Vec::with_capacity(len.min(PREALLOC_CAP));
        for _ in 0..len {
            items.push(T::decode(cur)?);
        }
        Ok(items)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
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

impl<T: Snapshot> Snapshot for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Restore + Ord> Restore for BTreeSet<T> {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let len = usize::decode(cur)?;
        let mut set = BTreeSet::new();
        for _ in 0..len {
            if !set.insert(T::decode(cur)?) {
                return Err(SnapshotError::Malformed {
                    context: "duplicate set element",
                });
            }
        }
        Ok(set)
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

/// Writes a snapshot stream: header, then tagged CRC-framed sections in
/// call order, then the end marker ([`SnapshotWriter::finish`]).
#[derive(Debug)]
pub struct SnapshotWriter<W: Write> {
    sink: W,
    bytes: u64,
    sections: u32,
}

impl<W: Write> SnapshotWriter<W> {
    /// Starts a stream: writes the magic and version header.
    pub fn new(mut sink: W) -> Result<Self, SnapshotError> {
        sink.write_all(&SNAPSHOT_MAGIC)?;
        sink.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
        Ok(Self {
            sink,
            bytes: 6,
            sections: 0,
        })
    }

    /// Writes one raw section.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is the reserved [`END_TAG`].
    pub fn section(&mut self, tag: u16, payload: &[u8]) -> Result<(), SnapshotError> {
        assert_ne!(tag, END_TAG, "END_TAG is reserved for the end marker");
        self.sink.write_all(&tag.to_le_bytes())?;
        self.sink.write_all(&(payload.len() as u64).to_le_bytes())?;
        self.sink.write_all(&crc32(payload).to_le_bytes())?;
        self.sink.write_all(payload)?;
        self.bytes += 14 + payload.len() as u64;
        self.sections += 1;
        Ok(())
    }

    /// Encodes `value` and writes it as one section.
    pub fn encode_section<T: Snapshot + ?Sized>(
        &mut self,
        tag: u16,
        value: &T,
    ) -> Result<(), SnapshotError> {
        let mut payload = Vec::new();
        value.encode(&mut payload);
        self.section(tag, &payload)
    }

    /// Writes the end marker, flushes, and reports what was written.
    pub fn finish(mut self) -> Result<SnapshotStats, SnapshotError> {
        self.sink.write_all(&END_TAG.to_le_bytes())?;
        self.bytes += 2;
        self.sink.flush()?;
        Ok(SnapshotStats {
            bytes: self.bytes,
            sections: self.sections,
        })
    }
}

/// Reads a snapshot stream section by section, validating the header, each
/// section's CRC, and the end marker.
#[derive(Debug)]
pub struct SnapshotReader<R: Read> {
    source: R,
    bytes: u64,
    sections: u32,
}

impl<R: Read> SnapshotReader<R> {
    /// Opens a stream: validates the magic and version header.
    pub fn new(mut source: R) -> Result<Self, SnapshotError> {
        let mut magic = [0u8; 4];
        read_exact(&mut source, &mut magic, "magic")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic { found: magic });
        }
        let mut version = [0u8; 2];
        read_exact(&mut source, &mut version, "version")?;
        let version = u16::from_le_bytes(version);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        Ok(Self {
            source,
            bytes: 6,
            sections: 0,
        })
    }

    /// Reads the next section, which must carry `expected` as its tag, and
    /// returns its CRC-verified payload.
    pub fn section(&mut self, expected: u16) -> Result<Vec<u8>, SnapshotError> {
        let tag = self.read_tag()?;
        if tag != expected {
            return Err(SnapshotError::UnexpectedSection {
                expected,
                found: tag,
            });
        }
        let mut header = [0u8; 12];
        read_exact(&mut self.source, &mut header, "section header")?;
        let len = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
        let stored_crc = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        // Read through `take` so a corrupt (huge) length yields Truncated at
        // the real end of data instead of a pre-allocation blow-up.
        let mut payload = Vec::new();
        (&mut self.source)
            .take(len)
            .read_to_end(&mut payload)
            .map_err(SnapshotError::from)?;
        if payload.len() as u64 != len {
            return Err(SnapshotError::Truncated {
                context: "section payload",
            });
        }
        let computed_crc = crc32(&payload);
        if computed_crc != stored_crc {
            return Err(SnapshotError::CorruptSection {
                tag,
                stored_crc,
                computed_crc,
            });
        }
        self.bytes += 12 + len; // the tag's 2 bytes were counted in read_tag
        self.sections += 1;
        Ok(payload)
    }

    /// Reads the next section and decodes it as `T`, requiring the payload
    /// to be consumed exactly.
    pub fn decode_section<T: Restore>(&mut self, tag: u16) -> Result<T, SnapshotError> {
        let payload = self.section(tag)?;
        let mut cur = Cursor::new(&payload);
        let value = T::decode(&mut cur)?;
        if !cur.is_empty() {
            return Err(SnapshotError::Malformed {
                context: "trailing bytes in section",
            });
        }
        Ok(value)
    }

    /// Consumes the end marker and reports what was read.
    pub fn finish(mut self) -> Result<SnapshotStats, SnapshotError> {
        let tag = self.read_tag()?;
        if tag != END_TAG {
            return Err(SnapshotError::UnexpectedSection {
                expected: END_TAG,
                found: tag,
            });
        }
        Ok(SnapshotStats {
            bytes: self.bytes,
            sections: self.sections,
        })
    }

    fn read_tag(&mut self) -> Result<u16, SnapshotError> {
        let mut tag = [0u8; 2];
        read_exact(&mut self.source, &mut tag, "section tag")?;
        self.bytes += 2;
        Ok(u16::from_le_bytes(tag))
    }
}

fn read_exact<R: Read>(
    source: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), SnapshotError> {
    source.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated { context }
        } else {
            SnapshotError::Io(e)
        }
    })
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
        let set: BTreeSet<u64> = [5, 11].into();
        let deque: VecDeque<usize> = vec![8, 6, 7].into();
        let state: [u64; 4] = [1, u64::MAX, 0, 0xDEAD_BEEF];
        let mut out = Vec::new();
        map.encode(&mut out);
        set.encode(&mut out);
        deque.encode(&mut out);
        state.encode(&mut out);
        true.encode(&mut out);
        (-5i64).encode(&mut out);
        let mut cur = Cursor::new(&out);
        assert_eq!(BTreeMap::<u32, Vec<u8>>::decode(&mut cur).unwrap(), map);
        assert_eq!(BTreeSet::<u64>::decode(&mut cur).unwrap(), set);
        assert_eq!(VecDeque::<usize>::decode(&mut cur).unwrap(), deque);
        assert_eq!(<[u64; 4]>::decode(&mut cur).unwrap(), state);
        assert!(bool::decode(&mut cur).unwrap());
        assert_eq!(i64::decode(&mut cur).unwrap(), -5);
        assert!(cur.is_empty());
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
                supported: 4
            }
        ));
        // version 2 carried 16 bytes of scan parallelism policy inside every
        // predictor; a complete (empty) version-2 stream is refused at the
        // header, not decoded 16 bytes late
        assert!(matches!(
            SnapshotReader::new(&b"MCAS\x02\x00\xFF\xFF"[..]).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 2,
                supported: 4
            }
        ));
        // version 3 kept a tenant's standing forecast and memo after its
        // metrics; its field order is refused, not decoded into the wrong
        // fields
        assert!(matches!(
            SnapshotReader::new(&b"MCAS\x03\x00\xFF\xFF"[..]).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 3,
                supported: 4
            }
        ));
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
            reader.section(9).unwrap_err(),
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
    fn corrupt_length_prefix_does_not_allocate_unbounded() {
        let mut buf = Vec::new();
        let mut writer = SnapshotWriter::new(&mut buf).unwrap();
        writer.section(1, b"tiny").unwrap();
        writer.finish().unwrap();
        // blow the length field up to ~2^63 while keeping the stream short
        buf[8] = 0xFF;
        buf[14] = 0x7F;
        let mut reader = SnapshotReader::new(buf.as_slice()).unwrap();
        assert!(matches!(
            reader.section(1).unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
    }
}
