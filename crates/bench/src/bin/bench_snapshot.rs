//! Regenerates `BENCH_snapshot.json`: checkpoint wire bytes and sections as
//! the fleet grows, with every restore verified bit-identical against the
//! uninterrupted run. (Checkpoint and restore latency are measured by the
//! end-to-end benchmark, `BENCHMARK.json`.)
//!
//! Run with `cargo run --release -p mca-bench --bin bench_snapshot`.
//!
//! * default: the acceptance-bar sweep (8–128 tenants); exits non-zero if
//!   any arm's resumed drive diverges from the uninterrupted one.
//! * `--smoke`: a small CI gate (4–16 tenants); same resume-identity gate,
//!   writes nothing.

use mca_bench::snapshot::{self, SnapshotWorkload};

fn main() {
    let smoke = mca_bench::util::mode_flag("bench_snapshot", &["--smoke"]).is_some();
    let workload = if smoke {
        SnapshotWorkload::smoke()
    } else {
        SnapshotWorkload::headline()
    };

    let report = snapshot::run(&workload, mca_bench::DEFAULT_SEED);
    snapshot::print(&report);

    if !smoke {
        let path = "BENCH_snapshot.json";
        std::fs::write(path, report.to_json()).expect("write BENCH_snapshot.json");
        println!("wrote {path}");
    }

    if !report.all_identical() {
        eprintln!("ERROR: a restored fleet diverged from the uninterrupted run");
        std::process::exit(1);
    }
}
