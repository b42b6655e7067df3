//! Regenerates `BENCH_fleet.json`: the sharded fleet engine's per-tenant
//! forecasts verified bit-identical to running each tenant alone (the
//! block-summary tree forced on in the replicas), plus the Zipf-skew
//! comparison of static hash placement versus the elastic rebalancer.
//! Nothing is timed — the file is a pure function of the code; slot cost is
//! `service_p50_ms` / `records_per_s` of `BENCHMARK.json`.
//!
//! Run with `cargo run --release -p mca-bench --bin bench_fleet`.
//!
//! * default: the acceptance-bar workload (64 tenants × 2,000 slots); exits
//!   non-zero on any forecast divergence. The skew section must show the
//!   rebalanced fleet ≥ 1.5× over static placement at 4 threads, projected
//!   from per-shard per-slot record counts — the same figure on every
//!   machine and run (989,600 ÷ 521,768 = 1.897×).
//! * `--smoke`: a small CI gate (16 tenants × 200 slots), same identity
//!   gate; writes nothing. The skew gate requires migrations to happen,
//!   forecasts to stay identical, and the rebalanced fleet to beat static
//!   placement ≥ 1.2× on projected record counts (101,640 ÷ 54,420 =
//!   1.868×).

use mca_bench::fleet::{self, FleetWorkload, SkewWorkload};

fn main() {
    let smoke = mca_bench::util::mode_flag("bench_fleet", &["--smoke"]).is_some();
    // the rebalancer acceptance bar is 1.5x at the headline shape; the smoke
    // shape is smaller and skews a little less
    let (workload, skew_workload, gate) = if smoke {
        (FleetWorkload::smoke(), SkewWorkload::smoke(), 1.2)
    } else {
        (FleetWorkload::headline(), SkewWorkload::headline(), 1.5)
    };

    let report = fleet::run(&workload, mca_bench::DEFAULT_SEED);
    fleet::print(&report);
    let skew = fleet::run_skewed(&skew_workload, mca_bench::DEFAULT_SEED);
    fleet::print_skewed(&skew);

    if !smoke {
        let path = "BENCH_fleet.json";
        std::fs::write(path, report.to_json(&skew)).expect("write BENCH_fleet.json");
        println!("wrote {path}");
    }

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
    if skew.work_speedup() < gate {
        eprintln!(
            "ERROR: rebalanced projected work speedup {:.3}x is below the {gate}x bar",
            skew.work_speedup()
        );
        std::process::exit(1);
    }
}
