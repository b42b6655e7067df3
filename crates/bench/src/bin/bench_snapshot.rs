//! Regenerates `BENCH_snapshot.json`: checkpoint wire bytes and sections as
//! the fleet grows, with every restore verified bit-identical against the
//! uninterrupted run. (Checkpoint and restore latency are measured by the
//! end-to-end benchmark, `BENCHMARK.json`.)
//!
//! Run with `cargo run --release -p mca-bench --bin bench_snapshot`.
//!
//! * default: the acceptance-bar sweep (8–128 tenants), written to
//!   `BENCH_snapshot.json`; exits non-zero if any arm's resumed drive
//!   diverges from the uninterrupted one.
//! * `--check`: the same sweep and gate, written nowhere; exits non-zero
//!   unless the regenerated document equals the checked-in one byte for
//!   byte.

use mca_bench::snapshot::{self, SnapshotWorkload};

fn main() {
    let check = mca_bench::util::mode_flag("bench_snapshot", &["--check"]).is_some();

    let report = snapshot::run(&SnapshotWorkload::headline(), mca_bench::DEFAULT_SEED);
    snapshot::print(&report);

    mca_bench::util::check_or_write(check, "BENCH_snapshot.json", &report.to_json());

    if !report.all_identical() {
        eprintln!("ERROR: a restored fleet diverged from the uninterrupted run");
        std::process::exit(1);
    }
}
