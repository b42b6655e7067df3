//! Adversarial property tests over the checkpoint wire codec.
//!
//! The codec's contract is that **every** malformed input surfaces as a
//! typed [`SnapshotError`] — truncation at any byte, any single flipped
//! byte, a wrong or future format version — and that a well-formed stream
//! round-trips bit for bit. Nothing here may panic, and no corruption may
//! restore silently. The same sweep runs over a real payload: a windowed,
//! indexed workload predictor, whose slot history is the bulk of every
//! checkpoint.

use mca_core::{IndexPolicy, TimeSlot, WorkloadPredictor};
use mca_offload::{AccelerationGroupId, UserId};
use mca_snapshot::{
    Cursor, Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotStats, SnapshotWriter,
    END_TAG, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Appends `sections` to `out` as a complete snapshot stream.
fn append_stream(out: &mut Vec<u8>, sections: &[(u16, Vec<u8>)]) -> SnapshotStats {
    let mut writer = SnapshotWriter::new(out).expect("writing to a Vec cannot fail");
    for (tag, payload) in sections {
        writer
            .section(*tag, |out| out.extend_from_slice(payload))
            .expect("section write");
    }
    writer.finish().expect("finish")
}

/// Encodes `sections` into a complete snapshot stream.
fn build_stream(sections: &[(u16, Vec<u8>)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    append_stream(&mut bytes, sections);
    bytes
}

/// Reads a stream back, expecting `tags` in order; returns the payloads.
fn read_stream(bytes: &[u8], tags: &[u16]) -> Result<Vec<Vec<u8>>, SnapshotError> {
    let mut reader = SnapshotReader::new(bytes)?;
    let mut payloads = Vec::new();
    for &tag in tags {
        payloads.push(reader.payload(tag)?.to_vec());
    }
    reader.finish()?;
    Ok(payloads)
}

/// Decodes a one-section stream whose payload is a `Vec<T>` length prefix
/// announcing `len` items followed by `body` — CRC-valid, so only the codec
/// stands between the length and an allocation.
fn decode_announced<T: Restore>(len: u64, body: &[u8]) -> Result<Vec<T>, SnapshotError> {
    let mut payload = len.to_le_bytes().to_vec();
    payload.extend_from_slice(body);
    let bytes = build_stream(&[(1, payload)]);
    SnapshotReader::new(&bytes)?.decode_section(1)
}

/// Narrows the generated `(tag, wide-byte payload)` list to real sections
/// (the vendored strategy set has no `u8` inclusive range, so payload bytes
/// travel as `u16` and fold down here).
fn to_sections(raw: Vec<(u16, Vec<u16>)>) -> Vec<(u16, Vec<u8>)> {
    raw.into_iter()
        .map(|(tag, payload)| (tag, payload.into_iter().map(|b| b as u8).collect()))
        .collect()
}

/// A predictor past its 12-slot window (so its stream starts mid-history),
/// with the summary tree built, whose groups' user gaps take one, one and
/// two bytes; and its one-section stream.
fn predictor_stream() -> (WorkloadPredictor, Vec<u8>) {
    let groups = (1..=3).map(AccelerationGroupId).collect();
    let mut predictor = WorkloadPredictor::new(groups, 3_600_000.0)
        .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(4))
        .with_window(12);
    for slot in 0..20u32 {
        let pairs = [1u32, 40, 300]
            .into_iter()
            .zip(1u8..)
            .flat_map(|(spacing, group)| {
                (0..slot % 5 + 1).map(move |user| {
                    (
                        AccelerationGroupId(group),
                        UserId(slot * 3 + user * spacing),
                    )
                })
            });
        predictor.observe_slot(TimeSlot::from_assignments(0, pairs));
    }
    let bytes = build_stream(&[(1, predictor_snapshot(&predictor))]);
    (predictor, bytes)
}

fn predictor_snapshot(predictor: &WorkloadPredictor) -> Vec<u8> {
    let mut payload = Vec::new();
    predictor.encode(&mut payload);
    payload
}

fn restore_predictor(bytes: &[u8]) -> Result<WorkloadPredictor, SnapshotError> {
    let mut reader = SnapshotReader::new(bytes)?;
    let predictor = reader.decode_section(1)?;
    reader.finish()?;
    Ok(predictor)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The predictor stream restores to the predictor; cut at any byte or
    /// with any byte flipped, it restores to nothing — a typed error every
    /// time. Past the CRC (the payload decoded directly), a cut or flipped
    /// payload still never panics: it is a typed error or a predictor whose
    /// own checkpoint restores to it.
    #[test]
    fn a_predictor_stream_restores_whole_or_not_at_all(
        at_seed in 0usize..1_000_000,
        xor in 1u16..256,
    ) {
        let (predictor, bytes) = predictor_stream();
        prop_assert_eq!(restore_predictor(&bytes).ok(), Some(predictor.clone()));
        let at = at_seed % bytes.len();
        prop_assert!(restore_predictor(&bytes[..at]).is_err(), "cut at {} restored", at);
        let mut flipped = bytes.clone();
        flipped[at] ^= xor as u8;
        prop_assert!(restore_predictor(&flipped).is_err(), "flip at {} restored", at);

        let payload = predictor_snapshot(&predictor);
        let at = at_seed % payload.len();
        let mut flipped = payload.clone();
        flipped[at] ^= xor as u8;
        for bytes in [&payload[..at], &flipped[..]] {
            if let Ok(decoded) = WorkloadPredictor::decode(&mut Cursor::new(bytes)) {
                let again = predictor_snapshot(&decoded);
                let restored = WorkloadPredictor::decode(&mut Cursor::new(&again));
                prop_assert_eq!(restored.ok(), Some(decoded));
            }
        }
    }

    /// A well-formed stream round-trips every section bit for bit, in
    /// order.
    #[test]
    fn roundtrip_restores_every_section(
        raw in proptest::collection::vec(
            (0u16..END_TAG, proptest::collection::vec(0u16..256, 0..64)),
            0..5,
        ),
    ) {
        let sections = to_sections(raw);
        let bytes = build_stream(&sections);
        let tags: Vec<u16> = sections.iter().map(|(tag, _)| *tag).collect();
        let payloads = read_stream(&bytes, &tags).expect("well-formed stream");
        let expected: Vec<Vec<u8>> = sections.into_iter().map(|(_, p)| p).collect();
        prop_assert_eq!(payloads, expected);
    }

    /// A writer opened on a non-empty buffer appends behind the caller's
    /// bytes without touching them, writes exactly the stream an empty
    /// buffer would hold, and counts only that stream in its stats.
    #[test]
    fn a_writer_appends_behind_the_callers_bytes(
        prefix in proptest::collection::vec(0u16..256, 1..64),
        raw in proptest::collection::vec(
            (0u16..END_TAG, proptest::collection::vec(0u16..256, 0..64)),
            0..5,
        ),
    ) {
        let prefix: Vec<u8> = prefix.into_iter().map(|b| b as u8).collect();
        let sections = to_sections(raw);
        let mut bytes = prefix.clone();
        let stats = append_stream(&mut bytes, &sections);
        let alone = build_stream(&sections);
        prop_assert_eq!(&bytes[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&bytes[prefix.len()..], &alone[..]);
        prop_assert_eq!(stats.bytes, alone.len() as u64);
        prop_assert_eq!(stats.sections as usize, sections.len());
    }

    /// Truncating a stream at **any** byte surfaces as
    /// [`SnapshotError::Truncated`] — the reader never panics and never
    /// returns a partial restore as success.
    #[test]
    fn truncation_at_any_byte_is_a_typed_error(
        raw in proptest::collection::vec(
            (0u16..END_TAG, proptest::collection::vec(0u16..256, 0..64)),
            0..5,
        ),
        cut_seed in 0usize..1_000_000,
    ) {
        let sections = to_sections(raw);
        let bytes = build_stream(&sections);
        let cut = cut_seed % bytes.len(); // strictly shorter than the stream
        let tags: Vec<u16> = sections.iter().map(|(tag, _)| *tag).collect();
        let result = read_stream(&bytes[..cut], &tags);
        prop_assert!(
            matches!(result, Err(SnapshotError::Truncated { .. })),
            "cut at {} of {} gave {:?}",
            cut,
            bytes.len(),
            result
        );
    }

    /// Flipping any single byte of the stream surfaces as a typed error —
    /// magic and version flips classify precisely, everything else is
    /// caught by framing or the per-section CRC. No flip restores
    /// silently.
    #[test]
    fn single_byte_flips_never_restore_silently(
        raw in proptest::collection::vec(
            (0u16..END_TAG, proptest::collection::vec(0u16..256, 0..64)),
            0..5,
        ),
        at_seed in 0usize..1_000_000,
        xor in 1u16..256,
    ) {
        let sections = to_sections(raw);
        let mut bytes = build_stream(&sections);
        let at = at_seed % bytes.len();
        bytes[at] ^= xor as u8;
        let tags: Vec<u16> = sections.iter().map(|(tag, _)| *tag).collect();
        let result = read_stream(&bytes, &tags);
        match at {
            0..=3 => prop_assert!(
                matches!(result, Err(SnapshotError::BadMagic { .. })),
                "magic flip at {} gave {:?}", at, result
            ),
            4..=5 => prop_assert!(
                matches!(result, Err(SnapshotError::UnsupportedVersion { .. })),
                "version flip at {} gave {:?}", at, result
            ),
            _ => prop_assert!(result.is_err(), "body flip at {} restored: {:?}", at, result),
        }
    }

    /// A length prefix that announces more items than the payload holds —
    /// by one, by terabytes, or by enough that `len × width` overflows — is
    /// a typed truncation on the bulk path (`u32`) and on the generic
    /// capped-preallocation path (`(u32, f64)`) alike, never an attempt to
    /// allocate what was announced.
    #[test]
    fn hostile_run_lengths_are_truncations(
        raw in proptest::collection::vec(0u16..256, 0..64),
        excess in 1u64..(1 << 40),
    ) {
        let body: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        for len in [1 << 61, (body.len() / 4) as u64 + excess] {
            let bulk = decode_announced::<u32>(len, &body);
            prop_assert!(
                matches!(bulk, Err(SnapshotError::Truncated { .. })),
                "{} u32s announced over {} bytes gave {:?}", len, body.len(), bulk
            );
        }
        for len in [1 << 61, (body.len() / 12) as u64 + excess] {
            let generic = decode_announced::<(u32, f64)>(len, &body);
            prop_assert!(
                matches!(generic, Err(SnapshotError::Truncated { .. })),
                "{} pairs announced over {} bytes gave {:?}", len, body.len(), generic
            );
        }
    }

    /// A header claiming any version other than the supported one is
    /// rejected up front, before any section is interpreted.
    #[test]
    fn wrong_version_headers_are_rejected(
        raw in proptest::collection::vec(
            (0u16..END_TAG, proptest::collection::vec(0u16..256, 0..16)),
            0..3,
        ),
        version_seed in 0u32..65_536,
    ) {
        let version = version_seed as u16;
        let version = if version == SNAPSHOT_VERSION {
            SNAPSHOT_VERSION.wrapping_add(1)
        } else {
            version
        };
        let mut bytes = build_stream(&to_sections(raw));
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let result = SnapshotReader::new(&bytes);
        prop_assert!(matches!(
            result.err(),
            Some(SnapshotError::UnsupportedVersion { found, supported })
                if found == version && supported == SNAPSHOT_VERSION
        ));
    }

    /// The blanket value impls round-trip exactly: integers, float bit
    /// patterns, nested containers, options and tuples.
    #[test]
    fn value_impls_roundtrip_exactly(
        a in 0u64..u64::MAX,
        bits in 0u64..u64::MAX,
        v in proptest::collection::vec(0u32..u32::MAX, 0..32),
        entries in proptest::collection::vec((0u16..u16::MAX, 0i64..i64::MAX), 0..16),
        opt_seed in 0u16..512,
        pair in (0u8..2, 0u64..u64::MAX),
    ) {
        let f = f64::from_bits(bits);
        let m: BTreeMap<u16, i64> = entries.into_iter().collect();
        let o: Option<u8> = if opt_seed < 256 { Some(opt_seed as u8) } else { None };
        let pair = (pair.0 == 1, pair.1);
        let mut out = Vec::new();
        a.encode(&mut out);
        f.encode(&mut out);
        v.encode(&mut out);
        m.encode(&mut out);
        o.encode(&mut out);
        pair.encode(&mut out);
        let mut cur = Cursor::new(&out);
        prop_assert_eq!(u64::decode(&mut cur).unwrap(), a);
        prop_assert_eq!(f64::decode(&mut cur).unwrap().to_bits(), bits);
        prop_assert_eq!(Vec::<u32>::decode(&mut cur).unwrap(), v);
        prop_assert_eq!(BTreeMap::<u16, i64>::decode(&mut cur).unwrap(), m);
        prop_assert_eq!(Option::<u8>::decode(&mut cur).unwrap(), o);
        prop_assert_eq!(<(bool, u64)>::decode(&mut cur).unwrap(), pair);
        prop_assert!(cur.is_empty());
    }
}

/// The degenerate inputs the ranges above skip: an empty stream and a
/// stream holding only the header.
#[test]
fn empty_and_header_only_streams_are_truncations() {
    assert!(matches!(
        SnapshotReader::new(&[]).err(),
        Some(SnapshotError::Truncated { .. })
    ));

    let mut header = Vec::new();
    header.extend_from_slice(&SNAPSHOT_MAGIC);
    header.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    let reader = SnapshotReader::new(&header).expect("header alone parses");
    assert!(matches!(
        reader.finish().err(),
        Some(SnapshotError::Truncated { .. })
    ));
}
