//! Performance harness for the allocation solver: the sparse revised
//! simplex with warm-started branch-and-bound versus the cold dense
//! tableau, on the paper's allocation ILP swept across instance-type
//! catalogue sizes.
//!
//! Both backends solve the **identical** sequence of forecasts through the
//! same [`ResourceAllocator`] and the same branch-and-bound search; they
//! differ exactly where the architectures differ:
//!
//! * the **dense baseline** ([`mca_lp::LpBackend::DenseTableau`]) rebuilds
//!   a full tableau at every node — every variable bound becomes a row, so
//!   the tableau grows with the instance-type count — and solves every node
//!   cold through phase 1;
//! * the **revised path** ([`mca_lp::LpBackend::RevisedWarmStart`]) builds
//!   one sparse row representation per solve, keeps the basis at the size
//!   of the constraint system, and re-enters every child node from its
//!   parent's optimal basis through the dual simplex (no phase 1).
//!
//! Alongside the timing comparison the harness asserts that **every**
//! allocation the revised path produces is identical to the dense path's —
//! same instances, same cost, same capacities — so the speedup can never
//! come from answering a different question. The end-to-end benchmark has
//! no dense-backend workload, so this is one of the two places `mca-bench`
//! reads a clock; the timings explain `lp.us_per_pivot` and
//! `core.allocator.allocate_us_per_slot` on `fleet_solver` and are
//! **reported, never gated** — the gates are allocation identity and the
//! counted columns. `cargo run --release -p mca-bench --bin
//! bench_allocation` regenerates `BENCH_allocation.json` at the repository
//! root; `--check` re-runs the sweep and compares its counted columns with
//! that file ([`count_differences`]).

use mca_cloudsim::InstanceType;
use mca_core::{AccelerationGroups, AllocationPolicy, ResourceAllocator, WorkloadForecast};
use mca_lp::LpBackend;
use mca_offload::AccelerationGroupId;
use mca_telemetry::json::{self, JsonValue, JsonWriter};
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
    /// Forecasts solved per sweep point (each forecast is one ILP per
    /// backend).
    pub forecasts: usize,
}

impl AllocationWorkload {
    /// The acceptance-bar sweep: 6 → 48 instance-type variables, 48
    /// forecasts per point.
    pub fn headline() -> Self {
        Self {
            group_counts: vec![1, 2, 4, 8],
            forecasts: 48,
        }
    }

    /// A small configuration for the CI smoke gate.
    pub fn smoke() -> Self {
        Self {
            group_counts: vec![1, 4, 8],
            forecasts: 10,
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

/// One sweep point of the comparison.
#[derive(Debug, Clone)]
pub struct AllocationRow {
    /// Acceleration groups at this point.
    pub groups: usize,
    /// Decision variables: (group, instance type) pairs.
    pub instance_types: usize,
    /// Forecasts solved.
    pub forecasts: usize,
    /// Mean wall-clock time of one dense cold solve, ms.
    pub dense_ms: f64,
    /// Mean wall-clock time of one revised warm-started solve, ms.
    pub revised_ms: f64,
    /// Whether every revised allocation equalled the dense allocation.
    pub identical: bool,
    /// Mean branch-and-bound nodes per solve (identical across backends by
    /// construction when the allocations agree; reported from the revised
    /// run).
    pub nodes_mean: f64,
    /// Mean simplex pivots per dense solve.
    pub dense_pivots_mean: f64,
    /// Mean simplex pivots per revised solve.
    pub revised_pivots_mean: f64,
    /// Fraction of non-root nodes that re-entered from their parent basis
    /// without phase 1.
    pub phase1_skip_rate: f64,
}

impl AllocationRow {
    /// Dense time over revised time.
    pub fn speedup(&self) -> f64 {
        self.dense_ms / self.revised_ms
    }
}

/// The full sweep report.
#[derive(Debug, Clone)]
pub struct AllocationBenchReport {
    /// One row per swept group count.
    pub rows: Vec<AllocationRow>,
}

impl AllocationBenchReport {
    /// `true` when every row's allocations were bit-identical across
    /// backends.
    pub fn all_identical(&self) -> bool {
        self.rows.iter().all(|r| r.identical)
    }

    /// The report as the `BENCH_allocation.json` document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty(2);
        w.object(|w| {
            w.key("benchmark").string("allocation_solver");
            w.key("baseline").string("dense_tableau_cold");
            w.key("candidate").string("revised_simplex_warm_started");
            w.key("rows").array(|w| {
                for r in &self.rows {
                    w.object(|w| {
                        w.key("groups").u64(r.groups as u64);
                        w.key("instance_types").u64(r.instance_types as u64);
                        w.key("forecasts").u64(r.forecasts as u64);
                        w.key("dense_ms_per_solve").f64(r.dense_ms, 4);
                        w.key("revised_ms_per_solve").f64(r.revised_ms, 4);
                        w.key("speedup").f64(r.speedup(), 2);
                        w.key("allocations_identical").bool(r.identical);
                        w.key("nodes_mean").f64(r.nodes_mean, 1);
                        w.key("dense_pivots_mean").f64(r.dense_pivots_mean, 1);
                        w.key("revised_pivots_mean").f64(r.revised_pivots_mean, 1);
                        w.key("phase1_skip_rate").f64(r.phase1_skip_rate, 3);
                    });
                }
            });
        });
        w.finish()
    }
}

/// The columns of a row that count work instead of timing it. They repeat
/// exactly on any machine: a difference means the solver's arithmetic, a
/// tie-break or the search order changed.
pub const COUNT_COLUMNS: [&str; 8] = [
    "groups",
    "instance_types",
    "forecasts",
    "allocations_identical",
    "nodes_mean",
    "dense_pivots_mean",
    "revised_pivots_mean",
    "phase1_skip_rate",
];

/// Compares the [`COUNT_COLUMNS`] of two reports in their JSON form (what
/// [`AllocationBenchReport::to_json`] writes and `BENCH_allocation.json`
/// holds), row by row; the timing columns are ignored. Returns one line per
/// difference.
///
/// # Errors
///
/// When either document is not a report.
pub fn count_differences(expected: &str, actual: &str) -> Result<Vec<String>, String> {
    let rows = |name: &str, document: &str| -> Result<Vec<JsonValue>, String> {
        let parsed = json::parse(document).map_err(|e| format!("{name}: {e}"))?;
        let rows = parsed.get("rows").and_then(JsonValue::as_array);
        Ok(rows.ok_or(format!("{name}: no `rows` array"))?.to_vec())
    };
    let (expected, actual) = (rows("expected", expected)?, rows("actual", actual)?);
    let mut differences = Vec::new();
    if expected.len() != actual.len() {
        differences.push(format!(
            "{} rows expected, {} measured",
            expected.len(),
            actual.len()
        ));
    }
    for (i, (e, a)) in expected.iter().zip(&actual).enumerate() {
        for column in COUNT_COLUMNS {
            if e.get(column).is_none() || e.get(column) != a.get(column) {
                differences.push(format!(
                    "row {i} `{column}`: {:?} expected, {:?} measured",
                    e.get(column),
                    a.get(column)
                ));
            }
        }
    }
    Ok(differences)
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

/// Runs the sweep: for every group count, solves the same forecasts with
/// the dense cold backend and the revised warm-started backend, timing both
/// and checking the allocations are identical.
pub fn run(workload: &AllocationWorkload, seed: u64) -> AllocationBenchReport {
    let mut rows = Vec::with_capacity(workload.group_counts.len());
    for &group_count in &workload.group_counts {
        let groups = catalogue(group_count);
        // the paper's per-operator cap (CC = 20), scaled with the catalogue:
        // roomy enough that the per-group coverings stay decoupled (a
        // *tight* cap makes equal-cost allocations interchangeable across
        // same-catalogue groups, turning the optimum into a plateau)
        let account_cap = 20 * group_count;
        let revised = ResourceAllocator::with_policy(groups.clone(), AllocationPolicy::IlpExact)
            .with_account_cap(account_cap);
        let dense = ResourceAllocator::with_policy(groups.clone(), AllocationPolicy::IlpExact)
            .with_account_cap(account_cap)
            .with_lp_backend(LpBackend::DenseTableau);
        let forecasts = forecast_sequence(workload.forecasts, &groups, seed ^ (group_count as u64));

        // one untimed warmup per backend (first-touch allocator noise)
        let _ = revised.allocate(&forecasts[0]);
        let _ = dense.allocate(&forecasts[0]);

        let mut dense_ms = 0.0f64;
        let mut revised_ms = 0.0f64;
        let mut identical = true;
        let mut nodes = 0usize;
        let mut dense_pivots = 0usize;
        let mut revised_pivots = 0usize;
        let mut skips = 0usize;
        let mut non_root_nodes = 0usize;
        for f in &forecasts {
            let start = Instant::now();
            let a = dense.allocate(f).expect("bench forecasts are feasible");
            dense_ms += start.elapsed().as_secs_f64() * 1_000.0;

            let start = Instant::now();
            let b = revised.allocate(f).expect("bench forecasts are feasible");
            revised_ms += start.elapsed().as_secs_f64() * 1_000.0;

            if a != b {
                identical = false;
            }
            nodes += b.stats.nodes;
            dense_pivots += a.stats.pivots;
            revised_pivots += b.stats.pivots;
            skips += b.stats.phase1_skips;
            non_root_nodes += b.stats.nodes.saturating_sub(1);
        }
        let n = workload.forecasts as f64;
        rows.push(AllocationRow {
            groups: group_count,
            instance_types: BENCH_TYPES.len() * group_count,
            forecasts: workload.forecasts,
            dense_ms: dense_ms / n,
            revised_ms: revised_ms / n,
            identical,
            nodes_mean: nodes as f64 / n,
            dense_pivots_mean: dense_pivots as f64 / n,
            revised_pivots_mean: revised_pivots as f64 / n,
            phase1_skip_rate: if non_root_nodes == 0 {
                0.0
            } else {
                skips as f64 / non_root_nodes as f64
            },
        });
    }
    AllocationBenchReport { rows }
}

/// Prints the report as an aligned table.
pub fn print(report: &AllocationBenchReport) {
    println!("allocation ILP: dense cold tableau vs revised simplex + warm-started B&B");
    println!(
        "  {:>6} {:>6} {:>12} {:>12} {:>9} {:>10} {:>8} {:>8} {:>8} {:>10}",
        "types",
        "groups",
        "dense ms",
        "revised ms",
        "speedup",
        "identical",
        "nodes",
        "piv(d)",
        "piv(r)",
        "p1 skips"
    );
    for r in &report.rows {
        println!(
            "  {:>6} {:>6} {:>12.4} {:>12.4} {:>8.1}x {:>10} {:>8.1} {:>8.1} {:>8.1} {:>9.1}%",
            r.instance_types,
            r.groups,
            r.dense_ms,
            r.revised_ms,
            r.speedup(),
            r.identical,
            r.nodes_mean,
            r.dense_pivots_mean,
            r.revised_pivots_mean,
            100.0 * r.phase1_skip_rate,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_produces_identical_allocations() {
        let workload = AllocationWorkload {
            group_counts: vec![1, 2],
            forecasts: 4,
        };
        let report = run(&workload, crate::DEFAULT_SEED);
        assert_eq!(report.rows.len(), 2);
        assert!(report.all_identical());
        assert!(report.rows.iter().all(|r| r.dense_ms > 0.0));
        assert_eq!(report.rows[1].instance_types, 12);
        let json = report.to_json();
        assert!(json.contains("\"allocations_identical\": true"));
        assert!(json.contains("\"instance_types\": 12"));
    }

    #[test]
    fn the_count_check_reads_counts_and_ignores_timings() {
        let workload = AllocationWorkload {
            group_counts: vec![1, 2],
            forecasts: 4,
        };
        let mut report = run(&workload, crate::DEFAULT_SEED);
        let checked_in = report.to_json();
        // another machine, another day: every timing differs
        for row in &mut report.rows {
            row.dense_ms *= 3.0;
            row.revised_ms *= 0.5;
        }
        assert_eq!(
            count_differences(&checked_in, &report.to_json()),
            Ok(Vec::new())
        );
        // one more pivot in 4 solves moves the mean's printed digit
        report.rows[1].revised_pivots_mean += 0.25;
        report.rows[0].identical = false;
        let differences = count_differences(&checked_in, &report.to_json()).unwrap();
        assert_eq!(differences.len(), 2, "{differences:?}");
        assert!(differences[0].contains("row 0 `allocations_identical`"));
        assert!(differences[1].contains("row 1 `revised_pivots_mean`"));
        report.rows.pop();
        assert_eq!(
            count_differences(&checked_in, &report.to_json())
                .unwrap()
                .len(),
            2,
            "a missing row is reported beside the remaining difference"
        );
        assert!(count_differences("{}", &checked_in).is_err());
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
