//! Regenerates `BENCH_fleet.json`: the sharded fleet engine's parallel tick
//! versus the sequential single-shard loop, with per-tenant forecasts
//! verified bit-identical to running each tenant alone — plus the Zipf-skew
//! comparison of static hash placement versus the elastic rebalancer.
//!
//! Run with `cargo run --release -p mca-bench --bin bench_fleet`.
//!
//! * default: the acceptance-bar workload (64 tenants × 2,000 slots); exits
//!   non-zero below a 4× speedup or on any forecast divergence. The skew
//!   section must show the rebalanced fleet ≥ 1.5× over static placement at
//!   4 threads, projected from per-shard per-slot record counts — the same
//!   figure on every machine and run; the timed models (critical path,
//!   projected ticks, wall clock) are reported, not gated.
//! * `--smoke`: a small CI gate (16 tenants × 200 slots); exits non-zero if
//!   the fleet is slower than the single-shard baseline or forecasts
//!   diverge. Also runs the telemetry gates — histogram totals must equal
//!   event counts, the JSON snapshot must round-trip, and instrumentation
//!   overhead must stay within bounds — and writes
//!   `BENCH_fleet_telemetry.json`. The skew gate requires migrations to
//!   happen, forecasts to stay identical, and the rebalanced fleet to beat
//!   static placement ≥ 1.2× on projected record counts.
//! * `bench_fleet [tenants] [slots] [users_per_tenant]`: custom shape, no
//!   speedup gate and no skew section (forecast divergence still fails).

use mca_bench::fleet::{self, FleetWorkload, SkewWorkload};

fn parse_arg(value: Option<String>, name: &str, default: usize) -> usize {
    match value {
        None => default,
        Some(raw) => match raw.parse() {
            Ok(parsed) if parsed > 0 => parsed,
            _ => {
                eprintln!("error: {name} must be a positive integer, got '{raw}'");
                eprintln!("usage: bench_fleet [--smoke | tenants slots users_per_tenant]");
                std::process::exit(2);
            }
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.first().map(String::as_str) == Some("--smoke");
    let custom = !smoke && !args.is_empty();
    let (workload, speedup_gate) = if smoke {
        (FleetWorkload::smoke(), Some(1.0))
    } else if custom {
        let mut args = args.into_iter();
        let mut workload = FleetWorkload::headline();
        workload.tenants = parse_arg(args.next(), "tenants", workload.tenants);
        workload.slots = parse_arg(args.next(), "slots", workload.slots);
        workload.users_per_tenant =
            parse_arg(args.next(), "users_per_tenant", workload.users_per_tenant);
        (workload, None)
    } else {
        (FleetWorkload::headline(), Some(4.0))
    };
    // the rebalancer acceptance bar is 1.5x at the headline shape; the smoke
    // shape is smaller and skews a little less
    let skew = if custom {
        None
    } else if smoke {
        Some((SkewWorkload::smoke(), 1.2))
    } else {
        Some((SkewWorkload::headline(), 1.5))
    };

    let report = fleet::run(&workload, mca_bench::DEFAULT_SEED);
    fleet::print(&report);
    let skew_report = skew.as_ref().map(|(skew_workload, _)| {
        let skew_report = fleet::run_skewed(skew_workload, mca_bench::DEFAULT_SEED);
        fleet::print_skewed(&skew_report);
        skew_report
    });

    let json = match &skew_report {
        Some(skew_report) => report.to_json_with_skew(skew_report),
        None => report.to_json(),
    };
    let path = "BENCH_fleet.json";
    std::fs::write(path, &json).expect("write BENCH_fleet.json");
    println!("wrote {path}");

    if !report.forecasts_identical {
        eprintln!("ERROR: fleet forecasts diverged from the tenant-alone replay");
        std::process::exit(1);
    }
    if let Some(gate) = speedup_gate {
        if report.speedup() < gate {
            eprintln!(
                "WARNING: speedup {:.1}x is below the {gate}x acceptance bar",
                report.speedup()
            );
            std::process::exit(1);
        }
    }

    if let (Some(skew_report), Some((_, gate))) = (&skew_report, &skew) {
        if !skew_report.forecasts_identical {
            eprintln!("ERROR: rebalancing changed the forecasts or metrics");
            std::process::exit(1);
        }
        if skew_report.migrations == 0 {
            eprintln!("ERROR: the Zipf skew triggered no migrations");
            std::process::exit(1);
        }
        // gated on work, not nanoseconds: the shard ticks being balanced
        // are tens of microseconds, inside scheduler jitter on any runner
        if skew_report.work_speedup() < *gate {
            eprintln!(
                "ERROR: rebalanced projected work speedup {:.3}x is below the {gate}x bar",
                skew_report.work_speedup()
            );
            std::process::exit(1);
        }
    }

    if smoke {
        let telemetry = fleet::telemetry_smoke(&workload, mca_bench::DEFAULT_SEED);
        fleet::print_telemetry_smoke(&telemetry);
        let path = "BENCH_fleet_telemetry.json";
        std::fs::write(path, telemetry.to_json()).expect("write BENCH_fleet_telemetry.json");
        println!("wrote {path}");
        if !telemetry.passed() {
            eprintln!("ERROR: the telemetry smoke gates failed");
            std::process::exit(1);
        }
    }
}
