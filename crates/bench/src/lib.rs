//! # mca-bench — evaluation harness
//!
//! One module per figure of the paper's evaluation (§VI). Every module
//! exposes a `run(...)` function that produces the series/rows of the figure
//! and a `print(...)` helper that writes them as an aligned text table, so
//! the binaries (`cargo run -p mca-bench --bin fig4` … `fig11`) regenerate
//! the paper's figures and the Criterion benches time the underlying
//! machinery.
//!
//! The harness is calibrated for *shape* fidelity, not absolute numbers: the
//! back-end is the `mca-cloudsim` simulator rather than EC2 hardware. See
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! comparison of every figure.
//!
//! Five performance harnesses ride alongside the figures: [`prediction`]
//! (pruned versus naive nearest-slot search, `bench_prediction` →
//! `BENCH_prediction.json`), [`fleet`] (sharded multi-tenant engine versus
//! the single-shard loop, `bench_fleet` → `BENCH_fleet.json`),
//! [`allocation`] (revised simplex + warm-started branch-and-bound versus
//! the cold dense tableau, `bench_allocation` → `BENCH_allocation.json`),
//! [`datacenter`] (the placement-policy sweep of the datacenter-backed
//! bill stage, `bench_datacenter` → `BENCH_datacenter.json`) and
//! [`snapshot`] (checkpoint wire bytes versus fleet size, every restore
//! resumed bit-identically, `bench_snapshot` → `BENCH_snapshot.json`).

#![forbid(unsafe_code)]

pub mod allocation;
pub mod datacenter;
pub mod fig10;
pub mod fig11;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fleet;
pub mod prediction;
pub mod snapshot;
pub mod util;

/// Default RNG seed used by every figure harness so that regenerated figures
/// are reproducible run-to-run.
pub const DEFAULT_SEED: u64 = 20170605;
