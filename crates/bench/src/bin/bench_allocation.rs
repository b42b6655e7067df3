//! Regenerates `BENCH_allocation.json`: the sparse revised simplex with
//! warm-started branch-and-bound versus the cold dense tableau on the
//! allocation ILP, swept across instance-type catalogue sizes.
//!
//! Run with `cargo run --release -p mca-bench --bin bench_allocation`.
//!
//! * default: the acceptance-bar sweep (6–48 instance-type variables, 48
//!   forecasts per point); exits non-zero below a 3× speedup at ≥ 32
//!   variables or if any allocation differs between the backends.
//! * `--smoke`: a small CI gate; exits non-zero if the revised path is
//!   slower than dense at ≥ 32 variables or any allocation differs.
//! * `--check`: the deterministic half of the gate. Runs the default sweep,
//!   writes nothing, and exits non-zero if a counted column of any row —
//!   allocations identical, mean nodes, mean pivots per backend, phase-1
//!   skip rate — differs from the checked-in `BENCH_allocation.json`; the
//!   timing columns are not read.

use mca_bench::allocation::{self, AllocationWorkload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.as_slice() {
        [] => None,
        [flag] if flag == "--smoke" || flag == "--check" => Some(flag.as_str()),
        _ => {
            eprintln!("usage: bench_allocation [--smoke | --check]");
            std::process::exit(2);
        }
    };
    let (workload, speedup_gate) = if mode == Some("--smoke") {
        (AllocationWorkload::smoke(), 1.0)
    } else {
        (AllocationWorkload::headline(), 3.0)
    };

    let report = allocation::run(&workload, mca_bench::DEFAULT_SEED);
    allocation::print(&report);

    let json = report.to_json();
    let path = "BENCH_allocation.json";
    if mode == Some("--check") {
        let checked_in = std::fs::read_to_string(path).expect("read BENCH_allocation.json");
        match allocation::count_differences(&checked_in, &json) {
            Ok(differences) if differences.is_empty() => {
                println!("check: every counted column matches {path}");
                return;
            }
            Ok(differences) => {
                for difference in differences {
                    eprintln!("ERROR: {difference}");
                }
            }
            Err(malformed) => eprintln!("ERROR: {malformed}"),
        }
        std::process::exit(1);
    }
    std::fs::write(path, &json).expect("write BENCH_allocation.json");
    println!("wrote {path}");

    if !report.all_identical() {
        eprintln!("ERROR: revised allocations diverged from the dense reference");
        std::process::exit(1);
    }
    match report.min_speedup_at(32) {
        Some(speedup) if speedup < speedup_gate => {
            eprintln!(
                "ERROR: speedup {speedup:.1}x at >=32 instance types is below the \
                 {speedup_gate}x acceptance bar"
            );
            std::process::exit(1);
        }
        Some(speedup) => println!(
            "gate: {speedup:.1}x at >=32 instance types (bar {speedup_gate}x), \
             allocations identical"
        ),
        None => {
            eprintln!("ERROR: the sweep has no >=32 instance-type row to gate on");
            std::process::exit(1);
        }
    }
}
