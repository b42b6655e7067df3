//! # mca-bench — evaluation harness
//!
//! One module per figure of the paper's evaluation (§VI). Every module
//! exposes a `run(...)` function that produces the series/rows of the figure
//! and a `print(...)` helper that writes them as an aligned text table, so
//! the binaries (`cargo run -p mca-bench --bin fig4` … `fig11`) regenerate
//! the paper's figures.
//!
//! The harness is calibrated for *shape* fidelity, not absolute numbers: the
//! back-end is the `mca-cloudsim` simulator rather than EC2 hardware.
//!
//! Five `bench_*` harnesses ride alongside the figures, each a binary with
//! two modes — the default run, which regenerates a `BENCH_*.json` at the
//! repository root, and a gate that writes nothing: `--check`, which
//! compares the regenerated document with the checked-in one byte for byte
//! (the four artifacts that hold counts only), or `--smoke`, the small shape
//! of `bench_prediction`, whose artifact carries timings. **None of them
//! times the system for a verdict**: how fast this repository runs is
//! measured by `benchmark/` against `BENCHMARK.json`, and no exit code here
//! depends on a clock.
//!
//! * [`fleet`] (`bench_fleet` → `BENCH_fleet.json`), [`datacenter`]
//!   (`bench_datacenter` → `BENCH_datacenter.json`) and [`snapshot`]
//!   (`bench_snapshot` → `BENCH_snapshot.json`) count and compare — fleet
//!   forecasts bit-identical to tenant-alone replicas and the Zipf
//!   rebalancer's record counts; the placement-policy sweep of the
//!   datacenter-backed bill stage; checkpoint wire bytes versus fleet size
//!   with every restore resumed bit-identically — so their artifacts are
//!   pure functions of the code: regenerate and `git diff`.
//! * [`prediction`] (`bench_prediction` → `BENCH_prediction.json`: the
//!   100 k → 1 M-slot summary-tree sweep) and [`allocation`]
//!   (`bench_allocation` → `BENCH_allocation.json`: the 6–48-variable ILP
//!   scaling table) are the two places this crate reads a clock, because
//!   `benchmark/` has no workload there. Their timings explain the
//!   end-to-end numbers and are reported, never gated (the allocation
//!   sweep's are printed only: its artifact holds counts); their gates are
//!   forecast identity and the solver's counted columns.

#![forbid(unsafe_code)]

pub mod allocation;
pub mod datacenter;
pub mod fig10;
pub mod fig11;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fleet;
pub mod prediction;
pub mod snapshot;
pub mod util;

/// Default RNG seed used by every figure harness so that regenerated figures
/// are reproducible run-to-run.
pub const DEFAULT_SEED: u64 = 20170605;

#[cfg(test)]
mod tests {
    use mca_telemetry::json::{self, JsonValue};

    /// Walks `path` (object keys; a number indexes an array) into `doc`.
    fn at<'a>(doc: &'a JsonValue, path: &[&str]) -> &'a JsonValue {
        path.iter().fold(doc, |value, step| {
            let child = match step.parse::<usize>() {
                Ok(index) => value.as_array().and_then(|items| items.get(index)),
                Err(_) => value.get(step),
            };
            child.unwrap_or_else(|| panic!("no `{step}` on the way to {path:?}"))
        })
    }

    #[test]
    fn every_report_parses_and_reads_back_its_counted_fields() {
        use crate::{allocation, datacenter, fleet, prediction, snapshot};
        let seed = crate::DEFAULT_SEED;
        let fleet_workload = fleet::FleetWorkload {
            tenants: 3,
            slots: 4,
            users_per_tenant: 10,
            threads: 2,
        };
        let skew_workload = fleet::SkewWorkload {
            shards: 3,
            tenants: 4,
            zipf_s: 0.8,
            max_users: 30,
            slots: 12,
            threads: 2,
        };
        let skew = fleet::run_skewed(&skew_workload, seed);
        let datacenter_workload = datacenter::DatacenterWorkload {
            shards: 2,
            tenants: 3,
            zipf_s: 0.8,
            max_users: 30,
            slots: 4,
            threads: 2,
        };
        let datacenter = datacenter::run(&datacenter_workload, seed);
        let snapshot_workload = snapshot::SnapshotWorkload {
            fleet_sizes: vec![2],
            users_per_tenant: 6,
            shards: 2,
            threads: 2,
            warmup_slots: 3,
            resume_slots: 3,
        };
        let snapshot = snapshot::run(&snapshot_workload, seed);
        let index_workload = prediction::IndexScanWorkload {
            sizes: vec![40],
            groups: 2,
            users_per_group: 8,
            probes: 10,
            checked_probes: 2,
            verify_naive_up_to: 40,
            stationary_slots: None,
        };
        let allocation_workload = allocation::AllocationWorkload {
            group_counts: vec![1],
            forecasts: 2,
        };
        let allocation = allocation::run(&allocation_workload, seed);

        type Expected = (&'static [&'static str], JsonValue);
        let number = |n: usize| JsonValue::Number(n as f64);
        let table: [(&str, String, Vec<Expected>); 5] = [
            (
                "fleet",
                fleet::run(&fleet_workload, seed).to_json(&skew),
                vec![
                    (&["tenants"], number(3)),
                    (&["threads"], number(2)),
                    (&["forecasts_bit_identical"], JsonValue::Bool(true)),
                    (&["shard_loads", "0", "ticks"], number(4)),
                    (&["skewed", "slots"], number(12)),
                    (&["skewed", "forecasts_identical"], JsonValue::Bool(true)),
                    (
                        &["skewed", "static_projected_records"],
                        number(skew.static_projected_records as usize),
                    ),
                    (
                        &["skewed", "rebalanced_projected_records"],
                        number(skew.rebalanced_projected_records as usize),
                    ),
                ],
            ),
            (
                "datacenter",
                datacenter.to_json(),
                vec![
                    (&["forecasts_identical"], JsonValue::Bool(true)),
                    (&["costs_identical"], JsonValue::Bool(true)),
                    (
                        &["policies", "2", "placement"],
                        JsonValue::String("worst-fit".into()),
                    ),
                    (
                        &["policies", "1", "placed_instance_slots"],
                        number(datacenter.outcomes[1].placed_instance_slots),
                    ),
                    (&["policies", "0", "placement_failures"], number(0)),
                ],
            ),
            (
                "snapshot",
                snapshot.to_json(),
                vec![
                    (&["all_identical"], JsonValue::Bool(true)),
                    (&["points", "0", "tenants"], number(2)),
                    (
                        &["points", "0", "bytes"],
                        number(snapshot.points[0].bytes as usize),
                    ),
                    (&["points", "0", "resume_identical"], JsonValue::Bool(true)),
                ],
            ),
            (
                "prediction",
                prediction::run_index(&index_workload).to_json(),
                vec![
                    (&["index", "groups"], number(2)),
                    (&["index", "forecasts_identical"], JsonValue::Bool(true)),
                    // one swept size: no scaling ratio to report
                    (&["index", "indexed_scaling_ratio"], JsonValue::Null),
                    (&["index", "points", "0", "history_slots"], number(40)),
                    (
                        &["index", "points", "0", "population"],
                        JsonValue::String("drifting".into()),
                    ),
                ],
            ),
            (
                "allocation",
                allocation.to_json(),
                vec![
                    (&["rows", "0", "instance_types"], number(6)),
                    (&["rows", "0", "forecasts"], number(2)),
                    (
                        &["engine"],
                        JsonValue::String("revised_simplex_warm_started".into()),
                    ),
                ],
            ),
        ];
        for (report, text, expected) in table {
            let doc = json::parse(&text).unwrap_or_else(|e| panic!("{report}: {e}\n{text}"));
            assert!(text.ends_with("}\n"), "{report}");
            for (path, value) in expected {
                assert_eq!(at(&doc, path), &value, "{report} {path:?}");
            }
        }
    }
}
