//! Regenerates `BENCH_fleet.json`: the sharded fleet engine's per-tenant
//! forecasts verified bit-identical to running each tenant alone (the
//! block-summary tree forced on in the replicas), plus the Zipf-skew
//! comparison of static hash placement versus the elastic rebalancer.
//! Nothing is timed — the file is a pure function of the code; slot cost is
//! `service_p50_ms` / `records_per_s` of `BENCHMARK.json`.
//!
//! Run with `cargo run --release -p mca-bench --bin bench_fleet`.
//!
//! * default: the acceptance-bar workload (64 tenants × 2,000 slots),
//!   written to `BENCH_fleet.json`; exits non-zero on any forecast
//!   divergence. The skew section must show migrations, identical forecasts
//!   and the rebalanced fleet ≥ 1.5× over static placement at 4 threads,
//!   projected from per-shard per-slot record counts — the same figure on
//!   every machine and run (989,600 ÷ 521,768 = 1.897×).
//! * `--check`: the same run and gates, written nowhere; exits non-zero
//!   unless the regenerated document equals the checked-in one byte for
//!   byte.

use mca_bench::fleet::{self, FleetWorkload, SkewWorkload};

/// The rebalancer acceptance bar: projected work, static over rebalanced.
const WORK_SPEEDUP_GATE: f64 = 1.5;

fn main() {
    let check = mca_bench::util::mode_flag("bench_fleet", &["--check"]).is_some();

    let report = fleet::run(&FleetWorkload::headline(), mca_bench::DEFAULT_SEED);
    fleet::print(&report);
    let skew = fleet::run_skewed(&SkewWorkload::headline(), mca_bench::DEFAULT_SEED);
    fleet::print_skewed(&skew);

    mca_bench::util::check_or_write(check, "BENCH_fleet.json", &report.to_json(&skew));

    if !report.forecasts_identical {
        eprintln!("ERROR: fleet forecasts diverged from the tenant-alone replay");
        std::process::exit(1);
    }
    if !skew.forecasts_identical {
        eprintln!("ERROR: rebalancing changed the forecasts or metrics");
        std::process::exit(1);
    }
    if skew.migrations == 0 {
        eprintln!("ERROR: the Zipf skew triggered no migrations");
        std::process::exit(1);
    }
    // gated on work, not nanoseconds: the shard ticks being balanced are
    // tens of microseconds, inside scheduler jitter on any runner
    if skew.work_speedup() < WORK_SPEEDUP_GATE {
        eprintln!(
            "ERROR: rebalanced projected work speedup {:.3}x is below the {WORK_SPEEDUP_GATE}x bar",
            skew.work_speedup()
        );
        std::process::exit(1);
    }
}
