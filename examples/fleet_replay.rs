//! Multi-tenant replay of **recorded** workloads — the closed loop the
//! ROADMAP's "fleet ingest from live traces" item asked for. Four tenants
//! are driven from recorded [`ArrivalTrace`]s (the workload generator's
//! output), and a fifth from the request log a real closed-loop
//! [`System`] run produced (the SDN-accelerator's `<timestamp, user,
//! group, …>` trace of §IV-A). A sixth is **live**: tenant 0's recorded
//! arrivals are pushed through a [`StreamSource`] slot by slot, shuffled
//! within each slot, with a few stragglers pushed after their slot ticked.
//! All six stream through the same source→windower→driver path:
//! timestamps are folded into provisioning slots, gaps become empty slots,
//! and the fleet runs its predict→allocate→bill cycle per slot. The live
//! tenant must forecast exactly what its replayed twin does, and drop
//! exactly the stragglers as late.
//!
//! ```bash
//! cargo run --release --example fleet_replay
//! ```

use mobile_code_acceleration::cloudsim::{DatacenterConfig, PlacementKind};
use mobile_code_acceleration::core::{System, SystemConfig, TraceLog};
use mobile_code_acceleration::fleet::{
    ArrivalTraceSource, FleetDriver, FleetEngine, RebalancerConfig, RecordSource, SlotRecord,
    StreamHandle, StreamSource, TraceLogSource,
};
use mobile_code_acceleration::offload::{AccelerationGroupId, TaskPool, TaskSpec, TenantId};
use mobile_code_acceleration::workload::{ArrivalTrace, TenantMix, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const TRACE_TENANTS: u32 = 4;
const USERS_PER_TENANT: usize = 12;
const DURATION_MS: f64 = 20.0 * 60_000.0; // 20 minutes of arrivals
const SLOT_MS: f64 = 60_000.0; // one-minute provisioning slots
const SHARDS: usize = 3;
const SEED: u64 = 20170605;
/// The live tenant, and the recorded tenant whose arrivals it replays.
const LIVE: TenantId = TenantId(TRACE_TENANTS + 1);
const TWIN: TenantId = TenantId(0);
/// Every this many slots, one record of the slot before is pushed again
/// after that slot ticked: a straggler the stream must drop as late.
const STRAGGLER_EVERY: usize = 4;

/// `trace`'s arrivals as `LIVE`'s timestamped records, one list per slot,
/// each slot's list in a shuffled order.
fn live_slots(trace: &ArrivalTrace, group: AccelerationGroupId) -> Vec<Vec<(f64, SlotRecord)>> {
    let mut slots: Vec<Vec<(f64, SlotRecord)>> = Vec::new();
    for arrival in trace.iter() {
        let slot = (arrival.time_ms / SLOT_MS).floor() as usize;
        if slots.len() <= slot {
            slots.resize_with(slot + 1, Vec::new);
        }
        let record = SlotRecord::new(LIVE, group, arrival.user);
        slots[slot].push((arrival.time_ms, record));
    }
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x11fe);
    for slot in &mut slots {
        for at in (1..slot.len()).rev() {
            slot.swap(at, rng.gen_range(0..at + 1));
        }
    }
    slots
}

/// Pushes slot `slot`'s live records, plus a straggler for the slot before
/// every [`STRAGGLER_EVERY`] slots; returns the stragglers pushed.
fn push_live(lane: &StreamHandle, live: &[Vec<(f64, SlotRecord)>], slot: usize) -> usize {
    for &(time_ms, record) in live.get(slot).map_or(&[][..], Vec::as_slice) {
        assert!(lane.push(time_ms, record), "slot {slot} is still open");
    }
    let straggler = slot
        .checked_sub(1)
        .filter(|_| slot.is_multiple_of(STRAGGLER_EVERY))
        .and_then(|before| live[before].first());
    match straggler {
        Some(&(time_ms, record)) => {
            assert!(
                !lane.push(time_ms, record),
                "slot {} already ticked",
                slot - 1
            );
            1
        }
        None => 0,
    }
}

/// Steps the driver one slot and checks the live tenant forecasts what its
/// replayed twin does.
fn step(driver: &mut FleetDriver) {
    driver.step().expect("every source stays on its tenant");
    let forecast = |tenant| {
        driver
            .engine()
            .tenant(tenant)
            .expect("onboarded")
            .forecast()
    };
    assert_eq!(
        forecast(LIVE),
        forecast(TWIN),
        "slot {}: the live tenant diverged from its replayed twin",
        driver.engine().slot_index() - 1
    );
}

fn main() {
    let config = SystemConfig::paper_three_groups()
        .with_slot_length_ms(SLOT_MS)
        .with_history_window(64);
    let entry_group = config.groups.lowest().id;

    // an aggressive elastic policy so the short replay visibly migrates:
    // fire on 5 % imbalance once two slots of load signal exist
    let mut engine = FleetEngine::new(config.clone(), SHARDS, SEED).with_rebalancer(
        RebalancerConfig::default()
            .with_ratio(1.05)
            .with_warmup_slots(2),
    );
    let mut driver = {
        engine.add_tenants((0..=LIVE.0).map(TenantId));
        FleetDriver::new(engine)
    };

    // four tenants replayed from recorded arrival traces, disjoint user-id
    // ranges per tenant (the traces are kept: the mid-replay restore below
    // rebuilds its sources from the same recordings)
    let mut max_slots = 0usize;
    let traces: Vec<ArrivalTrace> = (0..TRACE_TENANTS)
        .map(|tenant| {
            let mut rng = StdRng::seed_from_u64(SEED ^ u64::from(tenant));
            WorkloadGenerator::inter_arrival(
                USERS_PER_TENANT,
                TaskPool::static_load(TaskSpec::paper_static_minimax()),
            )
            .with_user_id_offset(tenant * 1_000)
            .generate(DURATION_MS, &mut rng)
        })
        .collect();
    for (tenant, trace) in traces.iter().enumerate() {
        let tenant = tenant as u32;
        let source = ArrivalTraceSource::new(TenantId(tenant), trace, SLOT_MS, entry_group);
        println!(
            "tenant {tenant}: {} recorded arrivals over {} slots",
            trace.len(),
            source.slot_count(),
        );
        max_slots = max_slots.max(source.slot_count());
        driver
            .add_source(TenantId(tenant), source)
            .expect("trace tenants are onboarded once");
    }

    // the fifth tenant replays a real SDN-accelerator request log: a
    // single-operator closed-loop run records its trace, and the log drives
    // the fleet — TraceLog output wired into per-tenant record streams
    let log: TraceLog = {
        let mut rng = StdRng::seed_from_u64(SEED);
        let workload = WorkloadGenerator::inter_arrival(
            USERS_PER_TENANT,
            TaskPool::static_load(TaskSpec::paper_static_minimax()),
        )
        .with_user_id_offset(TRACE_TENANTS * 1_000)
        .generate(DURATION_MS, &mut rng);
        let report = System::new(config.clone()).run(&workload, &mut rng);
        report.records.into_iter().collect()
    };
    let log_tenant = TenantId(TRACE_TENANTS);
    let source = TraceLogSource::new(log_tenant, &log, SLOT_MS);
    println!(
        "tenant {}: {} logged requests over {} slots (SDN request log)\n",
        log_tenant.0,
        log.len(),
        source.slot_count(),
    );
    max_slots = max_slots.max(source.slot_count());
    driver
        .add_source(log_tenant, source)
        .expect("the log tenant is onboarded once");

    // the sixth tenant is live: tenant 0's recording, pushed slot by slot
    let live = live_slots(&traces[0], entry_group);
    let (lane, source) = StreamSource::channel(SLOT_MS);
    driver
        .add_source(LIVE, source)
        .expect("the live tenant is onboarded once");
    println!(
        "tenant {}: tenant {}'s arrivals pushed live, shuffled within each slot\n",
        LIVE.0, TWIN.0
    );

    // drive half the replay, checkpoint the whole session — engine state
    // plus every source's resume cursor, the live slot's pushed records
    // included — and finish on the restored driver, exactly as a
    // crashed-and-restarted process would
    let half = max_slots.div_ceil(2);
    let mut stragglers = 0;
    for slot in 0..half {
        stragglers += push_live(&lane, &live, slot);
        step(&mut driver);
    }
    stragglers += push_live(&lane, &live, half);
    let mut snapshot = Vec::new();
    let start = Instant::now();
    let stats = driver
        .checkpoint(&mut snapshot)
        .expect("checkpointing to memory cannot fail");
    let checkpoint_ms = start.elapsed().as_secs_f64() * 1_000.0;
    let fresh_sources: Vec<(Option<TenantId>, Box<dyn RecordSource>)> = traces
        .iter()
        .enumerate()
        .map(|(tenant, trace)| {
            let tenant = TenantId(tenant as u32);
            let source = ArrivalTraceSource::new(tenant, trace, SLOT_MS, entry_group);
            (Some(tenant), Box::new(source) as Box<dyn RecordSource>)
        })
        .chain(std::iter::once((
            Some(log_tenant),
            Box::new(TraceLogSource::new(log_tenant, &log, SLOT_MS)) as Box<dyn RecordSource>,
        )))
        .collect();
    let (lane, source) = StreamSource::channel(SLOT_MS);
    let mut fresh_sources = fresh_sources;
    fresh_sources.push((Some(LIVE), Box::new(source)));
    let start = Instant::now();
    let mut driver = FleetDriver::restore(&mut snapshot.as_slice(), &config, fresh_sources)
        .expect("the checkpoint was just written");
    let restore_ms = start.elapsed().as_secs_f64() * 1_000.0;
    println!(
        "mid-replay checkpoint at slot {half}: {} bytes in {} sections, \
         {checkpoint_ms:.3} ms to write, {restore_ms:.3} ms to restore\n",
        stats.bytes, stats.sections,
    );

    step(&mut driver);
    for slot in half + 1..max_slots {
        stragglers += push_live(&lane, &live, slot);
        if slot + 1 == max_slots {
            lane.close();
        }
        step(&mut driver);
    }
    let report = driver.report();

    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10}",
        "tenant", "users/slot", "peak", "accuracy", "cost $"
    );
    for tenant in &report.metrics.per_tenant {
        println!(
            "{:<8} {:>10.1} {:>10} {:>9.1}% {:>10.2}",
            tenant.tenant.to_string(),
            tenant.mean_users(),
            tenant.peak_users,
            tenant.mean_accuracy().unwrap_or(0.0) * 100.0,
            tenant.total_cost,
        );
    }
    println!(
        "\ndrive: {} slots, {} records via {} sources ({} exhausted), \
         {} late, {} dropped, fleet spend ${:.2}",
        report.slots,
        report.records,
        report.total_sources,
        report.exhausted_sources,
        report.late_records,
        report.dropped_records,
        report.metrics.total_cost,
    );
    // the engine instruments itself by default, so the replay reports its
    // own tail latencies: per-slot ingest+tick and the predict stage
    let telemetry = &report.telemetry;
    println!(
        "slot tick latency ({:?} clock): p50 {:.1} us, p99 {:.1} us, p999 {:.1} us over {} slots",
        telemetry.mode,
        telemetry.slot.p50() as f64 / 1_000.0,
        telemetry.slot.p99() as f64 / 1_000.0,
        telemetry.slot.p999() as f64 / 1_000.0,
        telemetry.slot.count(),
    );
    println!(
        "predict stage: p50 {:.1} us, p99 {:.1} us over {} tenant-ticks; \
         shard load ewma {:?}",
        telemetry.stages.predict.p50() as f64 / 1_000.0,
        telemetry.stages.predict.p99() as f64 / 1_000.0,
        telemetry.stages.predict.count(),
        telemetry
            .shards
            .iter()
            .map(|s| (s.load_ewma * 10.0).round() / 10.0)
            .collect::<Vec<_>>(),
    );
    let rebalance = telemetry
        .rebalance
        .as_ref()
        .expect("the replay runs with a rebalancer");
    println!(
        "\nrebalancer: {} checks, {} triggers, {} migrations (last max/mean {:.2})",
        rebalance.checks, rebalance.triggers, rebalance.migrations, rebalance.last_ratio,
    );
    if !rebalance.loads_before.is_empty() {
        println!("{:<8} {:>12} {:>12}", "shard", "load before", "load after");
        for (shard, (before, after)) in rebalance
            .loads_before
            .iter()
            .zip(&rebalance.loads_after)
            .enumerate()
        {
            println!("{shard:<8} {before:>12.1} {after:>12.1}");
        }
    }
    for record in &rebalance.recent {
        println!(
            "  slot {:>3}: tenant {} moved shard {} -> {} (load {:.1})",
            record.slot, record.tenant.0, record.from, record.to, record.load,
        );
    }
    assert_eq!(report.exhausted_sources, report.total_sources);
    assert_eq!(report.dropped_records, 0);
    assert!(stragglers > 0);
    assert_eq!(
        report.late_records, stragglers,
        "only the stragglers are late"
    );
    assert_eq!(report.late_by_tenant.get(&LIVE), Some(&stragglers));
    let twin = report.metrics.tenant(TWIN).expect("onboarded");
    let live = report.metrics.tenant(LIVE).expect("onboarded");
    assert_eq!(live.total_user_slots, twin.total_user_slots);
    assert_eq!(telemetry.slot.count(), report.slots as u64);

    // datacenter-in-the-loop: the same small Zipf mix billed against
    // simulated hosts under each placement policy — the bill is identical
    // by construction, SLA and energy diverge (docs/datacenter.md)
    const DC_TENANTS: usize = 8;
    const DC_SLOTS: usize = 24;
    let mix = TenantMix::zipf(DC_TENANTS, 60, 0.8, config.groups.ids(), SEED);
    println!("\ndatacenter billing, {DC_TENANTS}-tenant zipf mix over {DC_SLOTS} slots:");
    println!(
        "{:<12} {:>10} {:>6} {:>9} {:>13} {:>11}",
        "billing", "cost $", "viol", "dropped", "latency ms", "energy wh"
    );
    let mut baseline_cost = None;
    for placement in std::iter::once(None).chain(PlacementKind::ALL.into_iter().map(Some)) {
        let mut dc_config = config.clone();
        if let Some(placement) = placement {
            dc_config = dc_config
                .with_datacenter(DatacenterConfig::paper_default().with_placement(placement));
        }
        let mut engine = FleetEngine::new(dc_config, SHARDS, SEED);
        engine.add_tenants(mix.tenant_ids());
        let mut dc_driver = FleetDriver::new(engine)
            .with_mix(&mix)
            .expect("every tenant is part of the mix");
        let dc_report = dc_driver
            .run(DC_SLOTS)
            .expect("mix sources never misbehave");
        let metrics = &dc_report.metrics;
        match baseline_cost {
            None => baseline_cost = Some(metrics.total_cost),
            Some(cost) => assert_eq!(
                metrics.total_cost.to_bits(),
                cost.to_bits(),
                "placement policy changed the bill"
            ),
        }
        println!(
            "{:<12} {:>10.4} {:>6} {:>9} {:>13.1} {:>11.1}",
            placement.map_or("arithmetic", PlacementKind::label),
            metrics.total_cost,
            metrics.total_sla_violations,
            metrics.total_sla_dropped_users,
            metrics.total_sla_latency_ms,
            metrics.total_energy_wh,
        );
        assert!(dc_driver.engine().placement_health().is_ok());
    }
}
