//! Regenerates `BENCH_allocation.json`: the scaling table of the allocation
//! ILP under the one engine that ships, swept across instance-type catalogue
//! sizes — mean nodes, pivots and phase-1 skip rate per solve. The file holds
//! counts only and regenerates byte for byte; ms per solve is printed, never
//! written.
//!
//! Run with `cargo run --release -p mca-bench --bin bench_allocation`.
//!
//! * default: the sweep (6–48 instance-type variables, 48 forecasts per
//!   point), written to `BENCH_allocation.json`.
//! * `--check`: the same sweep, written nowhere; exits non-zero unless the
//!   regenerated document equals the checked-in one byte for byte.

use mca_bench::allocation::{self, AllocationWorkload};

fn main() {
    let check = mca_bench::util::mode_flag("bench_allocation", &["--check"]).is_some();

    let report = allocation::run(&AllocationWorkload::headline(), mca_bench::DEFAULT_SEED);
    allocation::print(&report);

    mca_bench::util::check_or_write(check, "BENCH_allocation.json", &report.to_json());
}
