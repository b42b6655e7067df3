//! # mca-bench — evaluation harness
//!
//! One module per figure of the paper's evaluation (§VI). Every module
//! exposes a `run(...)` function that produces the series/rows of the figure
//! and a `print(...)` helper that writes them as an aligned text table, so
//! the binaries (`cargo run -p mca-bench --bin fig4` … `fig11`) regenerate
//! the paper's figures.
//!
//! The harness is calibrated for *shape* fidelity, not absolute numbers: the
//! back-end is the `mca-cloudsim` simulator rather than EC2 hardware.
//!
//! Nothing here times the system or gates a count. How fast this
//! repository runs is measured by `benchmark/` against `BENCHMARK.json`;
//! the counted invariants of the fleet, the datacenter placements, the
//! checkpoint wire, the allocation solver and the summary tree are tier-1
//! tests beside the code they pin (`cargo test`): the fleet's in
//! `crates/fleet/tests/determinism.rs` and `mca-fleet`'s engine tests, the
//! solver's in `crates/core/tests/ilp_golden.rs`, the tree's in
//! `mca-core`'s predictor tests and `tests/prop_invariants.rs`.

#![forbid(unsafe_code)]

pub mod fig10;
pub mod fig11;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod util;

/// Default RNG seed used by every figure harness so that regenerated figures
/// are reproducible run-to-run.
pub const DEFAULT_SEED: u64 = 20170605;
