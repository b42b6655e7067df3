//! Scaling table of the allocation solver: the paper's §IV-C ILP, solved by
//! the one engine that ships — sparse revised simplex under warm-started
//! branch-and-bound — swept across instance-type catalogue sizes.
//!
//! Every sweep point solves a fixed sequence of forecasts through a
//! [`ResourceAllocator`] and counts what the search did: mean nodes and
//! pivots per solve, and the share of child nodes that re-entered from their
//! parent's basis without a phase 1. The counts repeat to the digit on any
//! machine and are all `BENCH_allocation.json` holds, so `bench_allocation`
//! regenerates it byte for byte and `--check` compares the whole document —
//! a difference means the solver's arithmetic, a tie-break or the search
//! order changed. The end-to-end benchmark runs one catalogue size
//! (`fleet_solver`, 4 groups × 6 types), so this is one of the two places
//! `mca-bench` reads a clock: ms per solve is **printed, never written,
//! never gated**. That the answers are right is pinned elsewhere
//! (`crates/lp/src/torture.rs`, `crates/core/tests/ilp_golden.rs`).

use mca_cloudsim::InstanceType;
use mca_core::{AccelerationGroups, AllocationPolicy, ResourceAllocator, WorkloadForecast};
use mca_offload::AccelerationGroupId;
use mca_telemetry::json::JsonWriter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Shape of the allocation benchmark sweep.
#[derive(Debug, Clone)]
pub struct AllocationWorkload {
    /// Acceleration-group counts to sweep; each group carries the 6-type
    /// distinct-price catalogue, so the decision-variable count is
    /// `6 × groups`.
    pub group_counts: Vec<usize>,
    /// Forecasts solved per sweep point (each forecast is one ILP).
    pub forecasts: usize,
}

impl AllocationWorkload {
    /// The checked-in sweep: 6 → 48 instance-type variables, 48 forecasts
    /// per point.
    pub fn headline() -> Self {
        Self {
            group_counts: vec![1, 2, 4, 8],
            forecasts: 48,
        }
    }
}

/// The instance types with pairwise-distinct price structure. `t2.micro`
/// (2× the nano price exactly) and `t2.medium` (2× the small price exactly)
/// are excluded: exact price multiples make equal-cost instance mixes
/// ubiquitous, which turns the ILP's optimum into a plateau — the solve
/// then measures tie-plateau search rather than simplex work, and the
/// optimal *mix* is no longer unique.
pub const BENCH_TYPES: [InstanceType; 6] = [
    InstanceType::T2Nano,
    InstanceType::T2Small,
    InstanceType::T2Large,
    InstanceType::M4_4XLarge,
    InstanceType::M4_10XLarge,
    InstanceType::C4_8XLarge,
];

/// A synthetic catalogue of `groups` acceleration groups, each offering the
/// six distinct-price instance types of [`BENCH_TYPES`] — the many-types
/// regime the revised simplex is built for (the paper's own three groups
/// pin one type each).
pub fn catalogue(groups: usize) -> AccelerationGroups {
    assert!((1..=8).contains(&groups), "group ids are u8 and small");
    let assignments: Vec<(AccelerationGroupId, Vec<InstanceType>)> = (0..groups)
        .map(|g| (AccelerationGroupId(g as u8 + 1), BENCH_TYPES.to_vec()))
        .collect();
    AccelerationGroups::from_assignments(&assignments, 500.0, 65.0)
}

/// One sweep point.
#[derive(Debug, Clone)]
pub struct AllocationRow {
    /// Acceleration groups at this point.
    pub groups: usize,
    /// Decision variables: (group, instance type) pairs.
    pub instance_types: usize,
    /// Forecasts solved.
    pub forecasts: usize,
    /// Mean wall-clock time of one solve, ms. Printed, not written.
    pub ms_per_solve: f64,
    /// Mean branch-and-bound nodes per solve.
    pub nodes_mean: f64,
    /// Mean simplex pivots per solve.
    pub pivots_mean: f64,
    /// Fraction of non-root nodes that re-entered from their parent basis
    /// without phase 1.
    pub phase1_skip_rate: f64,
}

/// The full sweep report.
#[derive(Debug, Clone)]
pub struct AllocationBenchReport {
    /// One row per swept group count.
    pub rows: Vec<AllocationRow>,
}

impl AllocationBenchReport {
    /// The report as the `BENCH_allocation.json` document: counts only, so
    /// the same code writes the same bytes on any machine.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty(2);
        w.object(|w| {
            w.key("benchmark").string("allocation_solver");
            w.key("engine").string("revised_simplex_warm_started");
            w.key("rows").array(|w| {
                for r in &self.rows {
                    w.object(|w| {
                        w.key("groups").u64(r.groups as u64);
                        w.key("instance_types").u64(r.instance_types as u64);
                        w.key("forecasts").u64(r.forecasts as u64);
                        w.key("nodes_mean").f64(r.nodes_mean, 1);
                        w.key("pivots_mean").f64(r.pivots_mean, 1);
                        w.key("phase1_skip_rate").f64(r.phase1_skip_rate, 3);
                    });
                }
            });
        });
        w.finish()
    }
}

/// Largest per-group forecast load, in concurrent users — the scale of the
/// fleet benchmark's heavy tenants. Loads of this order need double-digit
/// instance mixes (and brush against the account cap), while staying far
/// from the degenerate regime where tens of thousands of users turn every
/// solve into a cap-bound knapsack over interchangeable giant instances.
pub const MAX_GROUP_LOAD: usize = 2_000;

/// Deterministic forecast sequence for one sweep point.
fn forecast_sequence(
    count: usize,
    groups: &AccelerationGroups,
    seed: u64,
) -> Vec<WorkloadForecast> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ids: Vec<AccelerationGroupId> = groups.ids();
    (0..count)
        .map(|_| WorkloadForecast {
            per_group: ids
                .iter()
                .map(|&id| (id, rng.gen_range(0..MAX_GROUP_LOAD + 1)))
                .collect(),
            matched_slot: None,
        })
        .collect()
}

/// Runs the sweep: for every group count, solves the forecast sequence and
/// counts the search's work.
pub fn run(workload: &AllocationWorkload, seed: u64) -> AllocationBenchReport {
    let mut rows = Vec::with_capacity(workload.group_counts.len());
    for &group_count in &workload.group_counts {
        let groups = catalogue(group_count);
        // the paper's per-operator cap (CC = 20), scaled with the catalogue:
        // roomy enough that the per-group coverings stay decoupled (a
        // *tight* cap makes equal-cost allocations interchangeable across
        // same-catalogue groups, turning the optimum into a plateau)
        let allocator = ResourceAllocator::with_policy(groups.clone(), AllocationPolicy::IlpExact)
            .with_account_cap(20 * group_count);
        let forecasts = forecast_sequence(workload.forecasts, &groups, seed ^ (group_count as u64));

        // one untimed warmup (first-touch allocator noise)
        let _ = allocator.allocate(&forecasts[0]);

        let mut ms = 0.0f64;
        let (mut nodes, mut pivots, mut skips, mut non_root_nodes) = (0usize, 0usize, 0usize, 0);
        for f in &forecasts {
            let start = Instant::now();
            let allocation = allocator.allocate(f).expect("bench forecasts are feasible");
            ms += start.elapsed().as_secs_f64() * 1_000.0;

            nodes += allocation.stats.nodes;
            pivots += allocation.stats.pivots;
            skips += allocation.stats.phase1_skips;
            non_root_nodes += allocation.stats.nodes.saturating_sub(1);
        }
        let n = workload.forecasts as f64;
        rows.push(AllocationRow {
            groups: group_count,
            instance_types: BENCH_TYPES.len() * group_count,
            forecasts: workload.forecasts,
            ms_per_solve: ms / n,
            nodes_mean: nodes as f64 / n,
            pivots_mean: pivots as f64 / n,
            phase1_skip_rate: if non_root_nodes == 0 {
                0.0
            } else {
                skips as f64 / non_root_nodes as f64
            },
        });
    }
    AllocationBenchReport { rows }
}

/// Prints the report as an aligned table, timing column included.
pub fn print(report: &AllocationBenchReport) {
    println!("allocation ILP: revised simplex + warm-started B&B");
    println!(
        "  {:>6} {:>6} {:>12} {:>8} {:>8} {:>10}",
        "types", "groups", "ms / solve", "nodes", "pivots", "p1 skips"
    );
    for r in &report.rows {
        println!(
            "  {:>6} {:>6} {:>12.4} {:>8.1} {:>8.1} {:>9.1}%",
            r.instance_types,
            r.groups,
            r.ms_per_solve,
            r.nodes_mean,
            r.pivots_mean,
            100.0 * r.phase1_skip_rate,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_writes_counts_only_and_repeats_byte_for_byte() {
        let workload = AllocationWorkload {
            group_counts: vec![1, 2],
            forecasts: 4,
        };
        let report = run(&workload, crate::DEFAULT_SEED);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[1].instance_types, 12);
        assert!(report
            .rows
            .iter()
            .all(|r| r.nodes_mean >= 1.0 && r.pivots_mean > 0.0));
        // the clock is read and printed, and never reaches the document:
        // another machine, another day writes the same bytes
        assert!(report.rows.iter().all(|r| r.ms_per_solve > 0.0));
        let json = report.to_json();
        assert!(json.contains("\"instance_types\": 12, \"forecasts\": 4, \"nodes_mean\": "));
        assert!(!json.contains("ms_per_solve") && !json.contains("identical"));
        let mut again = run(&workload, crate::DEFAULT_SEED);
        for row in &mut again.rows {
            row.ms_per_solve *= 3.0;
        }
        assert_eq!(again.to_json(), json);
    }

    #[test]
    fn catalogue_sizes_scale_with_groups() {
        let c = catalogue(4);
        assert_eq!(c.len(), 4);
        assert!(c
            .groups()
            .iter()
            .all(|g| g.instance_types.len() == BENCH_TYPES.len()));
    }
}
