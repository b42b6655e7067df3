//! Regenerates `BENCH_allocation.json`: the sparse revised simplex with
//! warm-started branch-and-bound versus the cold dense tableau on the
//! allocation ILP, swept across instance-type catalogue sizes.
//!
//! Run with `cargo run --release -p mca-bench --bin bench_allocation`.
//!
//! * default: the headline sweep (6–48 instance-type variables, 48
//!   forecasts per point); exits non-zero if any allocation differs between
//!   the backends. The timing columns are reported, never gated.
//! * `--smoke`: a small CI gate with the same exit rule.
//! * `--check`: runs the default sweep, writes nothing, and exits non-zero
//!   if a counted column of any row — allocations identical, mean nodes,
//!   mean pivots per backend, phase-1 skip rate — differs from the
//!   checked-in `BENCH_allocation.json`; the timing columns are not read.

use mca_bench::allocation::{self, AllocationWorkload};

fn main() {
    let mode = mca_bench::util::mode_flag("bench_allocation", &["--smoke", "--check"]);
    let workload = if mode == Some("--smoke") {
        AllocationWorkload::smoke()
    } else {
        AllocationWorkload::headline()
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
}
