//! Exposition formats: Prometheus-style text and a versioned JSON snapshot.
//!
//! Both serializers are hand-rolled writers over [`Registry`] iteration
//! order, so the output is byte-deterministic for a given registry. The JSON
//! snapshot carries a `version` field; consumers should reject versions they
//! do not understand rather than guess at field meanings.

use std::fmt::Write as _;

use crate::hist::LatencyHistogram;
use crate::json::write_json_string;
use crate::registry::Registry;

/// Version stamped into every JSON snapshot. Bump when the snapshot shape
/// changes incompatibly.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Render the registry in Prometheus text exposition format.
///
/// Counters become `# TYPE <name> counter` samples, gauges become gauges,
/// and each histogram expands into cumulative `<name>_bucket{le="…"}`
/// samples plus `<name>_sum` and `<name>_count`, matching the conventional
/// Prometheus histogram encoding.
pub fn prometheus_text(registry: &Registry) -> String {
    let mut out = String::new();
    for (name, value) in registry.counters() {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in registry.gauges() {
        let _ = writeln!(out, "# TYPE {name} gauge");
        if value.is_finite() {
            let _ = writeln!(out, "{name} {value}");
        } else {
            let _ = writeln!(out, "{name} NaN");
        }
    }
    for (name, hist) in registry.histograms() {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (upper, count) in hist.nonzero_buckets() {
            cumulative += count;
            let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count());
        let _ = writeln!(out, "{name}_sum {}", hist.sum());
        let _ = writeln!(out, "{name}_count {}", hist.count());
    }
    out
}

/// Render the registry as a versioned JSON snapshot.
///
/// Shape (version 1):
///
/// ```json
/// {
///   "version": 1,
///   "counters": { "<name>": <u64>, … },
///   "gauges": { "<name>": <f64|null>, … },
///   "histograms": {
///     "<name>": {
///       "count": <u64>, "sum": <u64>, "min": <u64>, "max": <u64>,
///       "p50": <u64>, "p99": <u64>, "p999": <u64>,
///       "buckets": [[<upper_bound>, <count>], …]
///     }, …
///   }
/// }
/// ```
///
/// Non-finite gauge values serialize as `null` (JSON has no NaN).
pub fn json_snapshot(registry: &Registry) -> String {
    let mut out = String::new();
    out.push('{');
    let _ = write!(out, "\"version\":{SNAPSHOT_VERSION},");

    out.push_str("\"counters\":{");
    for (index, (name, value)) in registry.counters().enumerate() {
        if index > 0 {
            out.push(',');
        }
        write_json_string(&mut out, name);
        let _ = write!(out, ":{value}");
    }
    out.push_str("},");

    out.push_str("\"gauges\":{");
    for (index, (name, value)) in registry.gauges().enumerate() {
        if index > 0 {
            out.push(',');
        }
        write_json_string(&mut out, name);
        if value.is_finite() {
            let _ = write!(out, ":{value}");
        } else {
            out.push_str(":null");
        }
    }
    out.push_str("},");

    out.push_str("\"histograms\":{");
    for (index, (name, hist)) in registry.histograms().enumerate() {
        if index > 0 {
            out.push(',');
        }
        write_json_string(&mut out, name);
        out.push(':');
        write_histogram_json(&mut out, hist);
    }
    out.push_str("}}");
    out
}

fn write_histogram_json(out: &mut String, hist: &LatencyHistogram) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{},\"p999\":{},\"buckets\":[",
        hist.count(),
        hist.sum(),
        hist.min(),
        hist.max(),
        hist.p50(),
        hist.p99(),
        hist.p999(),
    );
    for (index, (upper, count)) in hist.nonzero_buckets().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{upper},{count}]");
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let mut registry = Registry::new();
        registry.add_counter("fleet_records_total", 42);
        registry.set_gauge("shard_load_ewma", 3.5);
        let mut hist = LatencyHistogram::new();
        for v in [10u64, 20, 100, 5000] {
            hist.record(v);
        }
        registry.merge_histogram("tick_latency_ns", &hist);
        registry
    }

    #[test]
    fn prometheus_text_has_cumulative_buckets_and_totals() {
        let text = prometheus_text(&sample_registry());
        assert!(text.contains("# TYPE fleet_records_total counter"));
        assert!(text.contains("fleet_records_total 42"));
        assert!(text.contains("shard_load_ewma 3.5"));
        assert!(text.contains("tick_latency_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("tick_latency_ns_count 4"));
        assert!(text.contains("tick_latency_ns_sum 5130"));
    }

    #[test]
    fn json_snapshot_is_versioned_and_deterministic() {
        let a = json_snapshot(&sample_registry());
        let b = json_snapshot(&sample_registry());
        assert_eq!(a, b);
        assert!(a.starts_with("{\"version\":1,"));
        assert!(a.contains("\"fleet_records_total\":42"));
        assert!(a.contains("\"count\":4"));
        // golden bytes, captured before the string escaper moved to `json`:
        // name escaping and the `null` of a non-finite gauge included
        let mut registry = sample_registry();
        registry.set_gauge("bad\"name\n", f64::NAN);
        assert_eq!(
            json_snapshot(&registry),
            "{\"version\":1,\"counters\":{\"fleet_records_total\":42},\"gauges\":{\"bad\\\"name\\n\":null,\
             \"shard_load_ewma\":3.5},\"histograms\":{\"tick_latency_ns\":{\"count\":4,\"sum\":5130,\
             \"min\":10,\"max\":5000,\"p50\":20,\"p99\":5000,\"p999\":5000,\
             \"buckets\":[[10,1],[20,1],[101,1],[5119,1]]}}}"
        );
    }

    #[test]
    fn json_strings_escape_control_characters() {
        let mut out = String::new();
        write_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn empty_registry_still_produces_valid_shapes() {
        let registry = Registry::new();
        assert_eq!(prometheus_text(&registry), "");
        assert_eq!(
            json_snapshot(&registry),
            "{\"version\":1,\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }
}
