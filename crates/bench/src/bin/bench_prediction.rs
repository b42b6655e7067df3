//! Regenerates `BENCH_prediction.json`: the **block-summary tree** versus
//! the pruned linear scan in steady state — a history grown by
//! `observe_slot` from 100k to 1M slots, 1,000 distinct probes per point,
//! p50/p99 — plus one stationary-population row. The timings are reported,
//! never gated (the serial scan's end-to-end cost is `service_p50_ms` on
//! `forecast_linear`, the tree's on `forecast_indexed`, in
//! `BENCHMARK.json`).
//!
//! Run with `cargo run --release -p mca-bench --bin bench_prediction`.
//!
//! * default: the 100k → 1M sweep; exits non-zero if the serial, tree and
//!   (up to 100k slots) naive scans ever disagree on a forecast.
//! * `--smoke`: a small CI gate (6,000 slots) with the same exit rule —
//!   serial, indexed and naive forecasts must all be bit-identical; writes
//!   nothing.

use mca_bench::prediction::{self, IndexScanWorkload};

fn main() {
    let smoke = mca_bench::util::mode_flag("bench_prediction", &["--smoke"]).is_some();
    let workload = if smoke {
        IndexScanWorkload::smoke()
    } else {
        IndexScanWorkload::headline()
    };

    let report = prediction::run_index(&workload);
    prediction::print_index(&report);

    if !smoke {
        let path = "BENCH_prediction.json";
        std::fs::write(path, report.to_json()).expect("write BENCH_prediction.json");
        println!("wrote {path}");
    }

    if !report.forecasts_identical() {
        eprintln!("ERROR: the indexed scan diverged from the serial/naive forecast");
        std::process::exit(1);
    }
}
