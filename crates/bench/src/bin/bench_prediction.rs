//! Regenerates `BENCH_prediction.json`: pruned versus naive nearest-slot
//! prediction over the acceptance-bar workload (5,000 slots × 3 groups ×
//! 200 users per group), and the **block-summary tree** versus the pruned
//! linear scan in steady state — a history grown by `observe_slot` from 100k
//! to 1M slots, 1,000 distinct probes per point, p50/p99 — plus one
//! stationary-population row.
//!
//! Run with `cargo run --release -p mca-bench --bin bench_prediction`.
//!
//! * default: both acceptance-bar workloads; exits non-zero below the 5×
//!   pruned-vs-naive bar, below 5× tree-vs-pruned at 1M slots, at a tree
//!   scaling ratio (median query) ≥3× for the 10× size span, or on any
//!   forecast divergence. The stationary row is reported, not gated.
//! * `--smoke`: a small CI gate — serial, indexed and naive forecasts must
//!   all be bit-identical on small histories; exits non-zero only on
//!   divergence (no speedup gates: CI runners vary).
//! * `bench_prediction [slots] [users_per_group] [rounds]`: custom shape;
//!   the pruned-vs-naive 5× gate and the forecast-identity gate apply, the
//!   index sweep runs on the same shape without speedup gates.

use mca_bench::prediction::{self, IndexScanWorkload, PredictionWorkload};

fn parse_arg(value: Option<String>, name: &str, default: usize) -> usize {
    match value {
        None => default,
        Some(raw) => match raw.parse() {
            Ok(parsed) if parsed > 0 => parsed,
            _ => {
                eprintln!("error: {name} must be a positive integer, got '{raw}'");
                eprintln!("usage: bench_prediction [--smoke | slots users_per_group rounds]");
                std::process::exit(2);
            }
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.first().map(String::as_str) == Some("--smoke");
    let custom = !smoke && !args.is_empty();

    let (workload, index_workload, rounds, pruned_gate, speed_gates) = if smoke {
        let workload = PredictionWorkload {
            slots: 2_000,
            groups: 3,
            users_per_group: 40,
        };
        (workload, IndexScanWorkload::smoke(), 3, None, false)
    } else if custom {
        let mut args = args.into_iter();
        let mut workload = PredictionWorkload::headline();
        workload.slots = parse_arg(args.next(), "slots", workload.slots);
        workload.users_per_group =
            parse_arg(args.next(), "users_per_group", workload.users_per_group);
        let rounds = parse_arg(args.next(), "rounds", 10);
        let mut index = IndexScanWorkload::smoke();
        index.sizes = vec![workload.slots];
        index.users_per_group = workload.users_per_group;
        index.verify_naive_up_to = workload.slots;
        index.stationary_slots = Some(workload.slots);
        (workload, index, rounds, Some(5.0), false)
    } else {
        (
            PredictionWorkload::headline(),
            IndexScanWorkload::headline(),
            10,
            Some(5.0),
            true,
        )
    };

    let report = prediction::run(&workload, rounds);
    prediction::print(&report);
    println!();
    let index = prediction::run_index(&index_workload);
    prediction::print_index(&index);

    let json = prediction::combined_json(&report, &index);
    let path = "BENCH_prediction.json";
    std::fs::write(path, &json).expect("write BENCH_prediction.json");
    println!("wrote {path}");

    if !index.forecasts_identical() {
        eprintln!("ERROR: the indexed scan diverged from the serial/naive forecast");
        std::process::exit(1);
    }
    if let Some(gate) = pruned_gate {
        if report.speedup() < gate {
            eprintln!(
                "WARNING: pruned speedup {:.1}x is below the {gate}x acceptance bar",
                report.speedup()
            );
            std::process::exit(1);
        }
    }
    if speed_gates {
        let at_largest = index.speedup_at_largest().unwrap_or(0.0);
        if at_largest < 5.0 {
            eprintln!(
                "WARNING: indexed speedup {at_largest:.1}x at the largest history is below \
                 the 5x acceptance bar"
            );
            std::process::exit(1);
        }
        if let Some(ratio) = index.indexed_scaling_ratio() {
            if ratio >= 3.0 {
                eprintln!(
                    "WARNING: indexed scaling ratio {ratio:.2}x for 10x more history is not \
                     sub-linear enough (bar: <3x)"
                );
                std::process::exit(1);
            }
        }
    }
}
