//! Regenerates `BENCH_datacenter.json`: the Zipf fleet billed against
//! simulated datacenters under first-fit, best-fit and worst-fit placement,
//! with an arithmetic-billing baseline run in lockstep.
//!
//! Run with `cargo run --release -p mca-bench --bin bench_datacenter`.
//!
//! * default: the acceptance-bar workload (24 tenants × 300 slots), written
//!   to `BENCH_datacenter.json`.
//! * `--check`: the same run, written nowhere; exits non-zero unless the
//!   regenerated document equals the checked-in one byte for byte.
//!
//! Both modes gate identically, on the two contracts of the datacenter
//! refactor: every arm's forecasts and total cost must match the arithmetic
//! baseline bit for bit (the datacenter is pure accounting), no placement
//! may fail on the paper-default host shape, and the policy sweep must show
//! a measurable energy spread between worst-fit and best-fit at that equal
//! cost — the tradeoff the sweep exists to expose.

use mca_bench::datacenter::{self, DatacenterWorkload};

/// Minimum worst-fit-over-best-fit energy ratio: consolidation must power
/// down enough hosts to be visible above float noise.
const ENERGY_SPREAD_GATE: f64 = 1.01;

fn main() {
    let check = mca_bench::util::mode_flag("bench_datacenter", &["--check"]).is_some();

    let report = datacenter::run(&DatacenterWorkload::headline(), mca_bench::DEFAULT_SEED);
    datacenter::print(&report);

    mca_bench::util::check_or_write(check, "BENCH_datacenter.json", &report.to_json());

    if !report.forecasts_identical {
        eprintln!("ERROR: datacenter billing changed a forecast");
        std::process::exit(1);
    }
    if !report.costs_identical {
        eprintln!("ERROR: a policy arm billed a different total than the arithmetic baseline");
        std::process::exit(1);
    }
    if !report.no_placement_failures() {
        eprintln!("ERROR: a placement failed on the paper-default host shape");
        std::process::exit(1);
    }
    if report.energy_spread() < ENERGY_SPREAD_GATE {
        eprintln!(
            "ERROR: energy spread {:.3}x is below the {ENERGY_SPREAD_GATE}x bar \
             (consolidation saved no measurable energy)",
            report.energy_spread()
        );
        std::process::exit(1);
    }
}
