//! Placement-policy sweep for the datacenter-backed bill stage: the same
//! Zipf-skewed fleet billed against simulated hosts under first-fit,
//! best-fit and worst-fit placement, with an arithmetic-billing baseline in
//! lockstep.
//!
//! The sweep exists to demonstrate two contracts of the datacenter
//! refactor at once:
//!
//! * **determinism** — all four engines consume the identical
//!   [`TenantMix::zipf`] stream slot by slot, and their forecasts are
//!   compared after **every** slot; per-slot billed cost is the identical
//!   arithmetic expression on every arm, so total cost must agree bit for
//!   bit across the baseline and all three policies;
//! * **the policy tradeoff** — at equal cost, a consolidating policy
//!   (best-fit) powers fewer hosts but co-locates instances (lower energy,
//!   higher modeled latency), while a spreading policy (worst-fit) powers
//!   more hosts for lower latency. The gate requires the energy spread to
//!   be measurable.
//!
//! `cargo run --release -p mca-bench --bin bench_datacenter` regenerates
//! `BENCH_datacenter.json` at the repository root and gates on both
//! contracts. Every field is counted or metered by the simulation, so the
//! file regenerates byte for byte (`--check` compares instead of writing,
//! as CI does); what the bill
//! stage costs in time is `core.billing.settle_us_per_slot` in
//! `BENCHMARK.json`.

use mca_cloudsim::{DatacenterConfig, PlacementKind};
use mca_fleet::{FleetDriver, FleetEngine};
use mca_telemetry::json::JsonWriter;
use mca_workload::TenantMix;

/// Shape of the Zipf-skewed placement-sweep workload.
#[derive(Debug, Clone, Copy)]
pub struct DatacenterWorkload {
    /// Number of shards each engine runs.
    pub shards: usize,
    /// Number of tenants, Zipf-sized.
    pub tenants: usize,
    /// The Zipf exponent `s` of [`TenantMix::zipf`].
    pub zipf_s: f64,
    /// Users of the heaviest tenant (tenant 0).
    pub max_users: usize,
    /// Number of provisioning slots.
    pub slots: usize,
    /// Thread count of every engine.
    pub threads: usize,
}

impl DatacenterWorkload {
    /// The acceptance-bar configuration.
    pub fn headline() -> Self {
        Self {
            shards: 7,
            tenants: 24,
            zipf_s: 0.8,
            max_users: 400,
            slots: 300,
            threads: 4,
        }
    }
}

/// One arm's end-of-run accounting, straight off its `FleetMetrics` rollup.
#[derive(Debug, Clone, Copy)]
pub struct PolicyOutcome {
    /// The placement policy this arm billed under.
    pub placement: PlacementKind,
    /// Total billed cost, USD — must agree bit for bit with every other arm.
    pub total_cost: f64,
    /// Slots where a group's observed demand exceeded its standing capacity
    /// or its modeled response blew the target.
    pub sla_violations: usize,
    /// Users beyond admission capacity across all violating slots.
    pub sla_dropped_users: usize,
    /// Summed worst-case modeled response times, ms.
    pub sla_latency_ms: f64,
    /// Energy metered across the fleet's active hosts, watt-hours.
    pub energy_wh: f64,
    /// Instances placed onto hosts, summed over slots.
    pub placed_instance_slots: usize,
    /// Allocations no host could fit (must be zero on this workload).
    pub placement_failures: usize,
}

/// Measurements of one placement sweep.
#[derive(Debug, Clone)]
pub struct DatacenterBenchReport {
    /// The workload shape measured.
    pub workload: DatacenterWorkload,
    /// The host shape every datacenter arm ran (per tenant).
    pub datacenter: DatacenterConfig,
    /// Whether every arm's forecasts matched the arithmetic baseline after
    /// every slot.
    pub forecasts_identical: bool,
    /// Whether every arm's total cost matched the baseline bit for bit.
    pub costs_identical: bool,
    /// The arithmetic baseline's total billed cost, USD.
    pub arithmetic_cost: f64,
    /// One outcome per placement policy, in [`PlacementKind::ALL`] order.
    pub outcomes: Vec<PolicyOutcome>,
}

impl DatacenterBenchReport {
    /// The outcome of one policy arm.
    pub fn outcome(&self, placement: PlacementKind) -> &PolicyOutcome {
        self.outcomes
            .iter()
            .find(|o| o.placement == placement)
            .expect("the sweep runs every placement policy")
    }

    /// Worst-fit energy over best-fit energy: the spread the consolidation
    /// tradeoff produces at equal cost. Greater than 1 when consolidation
    /// actually powers down hosts.
    pub fn energy_spread(&self) -> f64 {
        self.outcome(PlacementKind::WorstFit).energy_wh
            / self.outcome(PlacementKind::BestFit).energy_wh
    }

    /// Best-fit modeled latency over worst-fit: the co-location price of
    /// consolidating. Greater than 1 when packed hosts slow their tenants.
    pub fn latency_spread(&self) -> f64 {
        self.outcome(PlacementKind::BestFit).sla_latency_ms
            / self.outcome(PlacementKind::WorstFit).sla_latency_ms
    }

    /// True when no arm failed a placement.
    pub fn no_placement_failures(&self) -> bool {
        self.outcomes.iter().all(|o| o.placement_failures == 0)
    }

    /// The report as the `BENCH_datacenter.json` document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty(2);
        w.object(|w| {
            w.key("benchmark").string("datacenter_placement");
            w.key("tenants").u64(self.workload.tenants as u64);
            w.key("slots").u64(self.workload.slots as u64);
            w.key("max_users").u64(self.workload.max_users as u64);
            w.key("zipf_s").f64(self.workload.zipf_s, 2);
            w.key("shards").u64(self.workload.shards as u64);
            w.key("threads").u64(self.workload.threads as u64);
            w.key("hosts_per_tenant").u64(self.datacenter.hosts as u64);
            w.key("host_vcpus").u64(self.datacenter.host_vcpus as u64);
            w.key("host_memory_gib")
                .f64(self.datacenter.host_memory_gib, 1);
            w.key("forecasts_identical").bool(self.forecasts_identical);
            w.key("costs_identical").bool(self.costs_identical);
            w.key("arithmetic_cost").f64(self.arithmetic_cost, 6);
            w.key("energy_spread").f64(self.energy_spread(), 4);
            w.key("latency_spread").f64(self.latency_spread(), 4);
            w.key("policies").array(|w| {
                for outcome in &self.outcomes {
                    w.object(|w| {
                        w.key("placement").string(outcome.placement.label());
                        w.key("total_cost").f64(outcome.total_cost, 6);
                        w.key("sla_violations").u64(outcome.sla_violations as u64);
                        w.key("sla_dropped_users")
                            .u64(outcome.sla_dropped_users as u64);
                        w.key("sla_latency_ms").f64(outcome.sla_latency_ms, 3);
                        w.key("energy_wh").f64(outcome.energy_wh, 3);
                        w.key("placed_instance_slots")
                            .u64(outcome.placed_instance_slots as u64);
                        w.key("placement_failures")
                            .u64(outcome.placement_failures as u64);
                    });
                }
            });
        });
        w.finish()
    }
}

/// Runs the sweep: an arithmetic-billing baseline plus one datacenter-billed
/// engine per placement policy, all consuming the identical Zipf mix in
/// lockstep with forecasts compared after every slot.
pub fn run(workload: &DatacenterWorkload, seed: u64) -> DatacenterBenchReport {
    let base = crate::fleet::bench_config();
    let datacenter = DatacenterConfig::paper_default();
    let mix = TenantMix::zipf(
        workload.tenants,
        workload.max_users,
        workload.zipf_s,
        base.groups.ids(),
        seed,
    );

    let build = |config: mca_core::SystemConfig| {
        let mut engine =
            FleetEngine::new(config, workload.shards, seed).with_threads(workload.threads);
        engine.add_tenants(mix.tenant_ids());
        FleetDriver::new(engine)
            .with_mix(&mix)
            .expect("every hosted tenant is in the mix")
    };
    let mut baseline = build(base.clone());
    let mut arms: Vec<(PlacementKind, FleetDriver)> = PlacementKind::ALL
        .into_iter()
        .map(|placement| {
            (
                placement,
                build(
                    base.clone()
                        .with_datacenter(datacenter.with_placement(placement)),
                ),
            )
        })
        .collect();

    let mut forecasts_identical = true;
    for _ in 0..workload.slots {
        baseline.step().expect("mix sources never misbehave");
        let reference = baseline.engine().forecasts();
        for (_, arm) in &mut arms {
            arm.step().expect("mix sources never misbehave");
            forecasts_identical &= arm.engine().forecasts() == reference;
        }
    }

    let arithmetic_cost = baseline.engine().metrics().total_cost;
    let mut costs_identical = true;
    let outcomes: Vec<PolicyOutcome> = arms
        .iter()
        .map(|(placement, arm)| {
            let metrics = arm.engine().metrics();
            if metrics.total_cost.to_bits() != arithmetic_cost.to_bits() {
                costs_identical = false;
            }
            PolicyOutcome {
                placement: *placement,
                total_cost: metrics.total_cost,
                sla_violations: metrics.total_sla_violations,
                sla_dropped_users: metrics.total_sla_dropped_users,
                sla_latency_ms: metrics.total_sla_latency_ms,
                energy_wh: metrics.total_energy_wh,
                placed_instance_slots: metrics.total_placed_instance_slots,
                placement_failures: metrics.total_placement_failures,
            }
        })
        .collect();

    DatacenterBenchReport {
        workload: *workload,
        datacenter,
        forecasts_identical,
        costs_identical,
        arithmetic_cost,
        outcomes,
    }
}

/// Prints the sweep as an aligned table.
pub fn print(report: &DatacenterBenchReport) {
    println!(
        "datacenter placement sweep: zipf (s={:.1}) over {} tenants x {} slots, \
         {} shards, {} thread(s), {} hosts/tenant ({} vcpus each)",
        report.workload.zipf_s,
        report.workload.tenants,
        report.workload.slots,
        report.workload.shards,
        report.workload.threads,
        report.datacenter.hosts,
        report.datacenter.host_vcpus,
    );
    println!(
        "  {:<12} {:>12} {:>8} {:>9} {:>14} {:>12} {:>8}",
        "policy", "cost $", "viol", "dropped", "latency ms", "energy wh", "fails"
    );
    println!(
        "  {:<12} {:>12.4} {:>8} {:>9} {:>14} {:>12} {:>8}",
        "arithmetic", report.arithmetic_cost, "-", "-", "-", "-", "-",
    );
    for outcome in &report.outcomes {
        println!(
            "  {:<12} {:>12.4} {:>8} {:>9} {:>14.1} {:>12.1} {:>8}",
            outcome.placement.label(),
            outcome.total_cost,
            outcome.sla_violations,
            outcome.sla_dropped_users,
            outcome.sla_latency_ms,
            outcome.energy_wh,
            outcome.placement_failures,
        );
    }
    println!(
        "  forecasts identical every slot: {}; costs bit-identical: {}",
        report.forecasts_identical, report.costs_identical,
    );
    println!(
        "  consolidation tradeoff at equal cost: worst-fit meters {:.2}x the energy of \
         best-fit; best-fit models {:.2}x the latency of worst-fit",
        report.energy_spread(),
        report.latency_spread(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DatacenterWorkload {
        DatacenterWorkload {
            shards: 3,
            tenants: 6,
            zipf_s: 0.8,
            max_users: 60,
            slots: 16,
            threads: 2,
        }
    }

    #[test]
    fn sweep_holds_cost_identity_and_shows_the_energy_tradeoff() {
        let report = run(&tiny(), crate::DEFAULT_SEED);
        assert!(report.forecasts_identical);
        assert!(report.costs_identical);
        assert!(report.no_placement_failures());
        assert_eq!(report.outcomes.len(), 3);
        for outcome in &report.outcomes {
            assert_eq!(
                outcome.total_cost.to_bits(),
                report.arithmetic_cost.to_bits()
            );
            assert!(outcome.energy_wh > 0.0);
            assert!(outcome.placed_instance_slots > 0);
        }
        assert!(
            report.energy_spread() >= 1.0,
            "spreading can never meter less energy than consolidating"
        );
    }

    #[test]
    fn report_serializes_to_valid_json() {
        let report = run(&tiny(), crate::DEFAULT_SEED);
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"datacenter_placement\""));
        assert!(json.contains("\"placement\": \"first-fit\""));
        assert!(json.contains("\"placement\": \"worst-fit\""));
        mca_telemetry::json::parse(&json).expect("the sweep report is valid JSON");
    }
}
