//! The checked-in `BENCH_*.json` artifacts at the repository root stay
//! well-formed, and every identity flag they record is `true`: a regenerated
//! file that captured a divergence cannot be committed unnoticed.
//! `BENCH_allocation.json` compares no two paths and carries no flag; what it
//! must not carry is a timed field, or it would stop regenerating byte for
//! byte.

use mca_telemetry::json::{self, JsonValue};
use std::path::Path;

/// The flags a `bench_*` report sets when two paths that must agree did.
const IDENTITY_FLAGS: [&str; 4] = [
    "forecasts_bit_identical",
    "forecasts_identical",
    "costs_identical",
    "all_identical",
];

/// What the name of a field read off a clock contains: a time unit, or a
/// ratio of two timings.
const TIMED_MARKERS: [&str; 6] = ["_ms", "_us", "_ns", "seconds", "per_s", "speedup"];

/// Collects `(key, value)` of every identity flag anywhere under `value`.
fn identity_flags<'a>(value: &'a JsonValue, found: &mut Vec<(&'a str, &'a JsonValue)>) {
    match value {
        JsonValue::Object(members) => {
            for (key, member) in members {
                if IDENTITY_FLAGS.contains(&key.as_str()) {
                    found.push((key, member));
                }
                identity_flags(member, found);
            }
        }
        JsonValue::Array(items) => items.iter().for_each(|item| identity_flags(item, found)),
        _ => {}
    }
}

#[test]
fn checked_in_artifacts_parse_and_carry_true_identity_flags() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut artifacts: Vec<_> = std::fs::read_dir(&root)
        .expect("the repository root is readable")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    artifacts.sort();
    assert_eq!(
        artifacts.len(),
        5,
        "one artifact per bench_* bin: {artifacts:?}"
    );
    for path in artifacts {
        let text = std::fs::read_to_string(&path).expect("the artifact is readable");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(doc.get("benchmark").is_some(), "{}", path.display());
        if path.ends_with("BENCH_allocation.json") {
            for marker in TIMED_MARKERS {
                assert!(!text.contains(marker), "{} `{marker}`", path.display());
            }
            continue;
        }
        let mut flags = Vec::new();
        identity_flags(&doc, &mut flags);
        assert!(!flags.is_empty(), "{} carries no flag", path.display());
        for (key, value) in flags {
            assert_eq!(value, &JsonValue::Bool(true), "{} `{key}`", path.display());
        }
    }
}
