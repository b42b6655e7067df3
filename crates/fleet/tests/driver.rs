//! End-to-end acceptance of the unified streaming ingestion API: driving a
//! fleet from trace-, log-, mix- and stream-backed `RecordSource`s through
//! `FleetDriver` must be bit-identical to replaying the equivalent hand-built
//! batches (a `SlotBatchSource`) — and every misuse the old API answered
//! with a panic must surface as a typed `FleetError`.

use mca_core::{SystemConfig, TraceLog};
use mca_fleet::{
    ArrivalTraceSource, FleetDriver, FleetEngine, FleetError, SlotBatchSource, SlotRecord,
    StreamSource, TraceLogSource,
};
use mca_offload::{AccelerationGroupId, TenantId, TraceRecord, UserId};
use mca_offload::{TaskKind, TaskSpec};
use mca_workload::{Arrival, ArrivalTrace, TenantMix};

const SEED: u64 = 20170605;
const SLOT_MS: f64 = 1_000.0;
const ENTRY: AccelerationGroupId = AccelerationGroupId(1);

fn config() -> SystemConfig {
    SystemConfig::paper_three_groups()
        .with_slot_length_ms(SLOT_MS)
        .with_history_window(16)
}

fn arrival(t: f64, user: u32) -> Arrival {
    Arrival {
        time_ms: t,
        user: UserId(user),
        task: TaskSpec::new(TaskKind::Minimax, 5),
    }
}

/// A deterministic trace for one tenant exercising every windower edge:
/// events exactly on slot boundaries, several users inside one slot, an
/// interior gap slot, and per-tenant phase shifts.
fn trace_for(tenant: u32, slots: usize) -> ArrivalTrace {
    let base = tenant * 1_000;
    let mut arrivals = Vec::new();
    for slot in 0..slots {
        if slot % 4 == 2 && tenant.is_multiple_of(2) {
            continue; // interior gap for even tenants
        }
        let start = slot as f64 * SLOT_MS;
        arrivals.push(arrival(start, base + slot as u32)); // exact boundary
        for u in 0..3 + (tenant + slot as u32) % 3 {
            arrivals.push(arrival(start + 10.0 + f64::from(u) * 7.0, base + u));
        }
    }
    ArrivalTrace::new(arrivals)
}

/// The hand-built batch the old API would have been fed for `slot`: every
/// tenant's arrivals with `floor(time / SLOT_MS) == slot`, as entry-group
/// records.
fn hand_batch(traces: &[(TenantId, ArrivalTrace)], slot: usize) -> Vec<SlotRecord> {
    let mut batch = Vec::new();
    for (tenant, trace) in traces {
        for a in trace.iter() {
            if (a.time_ms / SLOT_MS).floor().max(0.0) as usize == slot {
                batch.push(SlotRecord::new(*tenant, ENTRY, a.user));
            }
        }
    }
    batch
}

#[test]
fn trace_driven_fleet_is_bit_identical_to_hand_built_batches() {
    const SLOTS: usize = 12;
    let traces: Vec<(TenantId, ArrivalTrace)> =
        (0..4).map(|t| (TenantId(t), trace_for(t, SLOTS))).collect();

    let mut by_hand = FleetEngine::new(config(), 3, SEED);
    by_hand.add_tenants(traces.iter().map(|(t, _)| *t));
    let batches = (0..SLOTS).map(|s| hand_batch(&traces, s)).collect();
    let mut by_hand = FleetDriver::new(by_hand).with_shared_source(SlotBatchSource::new(batches));

    let mut engine = FleetEngine::new(config(), 3, SEED);
    engine.add_tenants(traces.iter().map(|(t, _)| *t));
    let mut driver = FleetDriver::new(engine);
    for (tenant, trace) in &traces {
        driver
            .add_source(
                *tenant,
                ArrivalTraceSource::new(*tenant, trace, SLOT_MS, ENTRY),
            )
            .expect("tenants are onboarded once");
    }

    for slot in 0..SLOTS {
        by_hand.step().expect("a shared lane is never quarantined");
        driver.step().expect("bound sources stay on their tenant");
        // bit-identity after every slot, not just at the end
        assert_eq!(
            driver.engine().forecasts(),
            by_hand.engine().forecasts(),
            "slot {slot}"
        );
    }
    let report = driver.report();
    assert_eq!(report.metrics, by_hand.engine().metrics());
    assert_eq!(report.slots, SLOTS);
    assert_eq!(report.late_records, 0);
    assert_eq!(report.dropped_records, 0);
    assert_eq!(
        report.records,
        traces.iter().map(|(_, t)| t.len()).sum::<usize>()
    );
    let staged: u64 = report.telemetry.shards.iter().map(|s| s.records).sum();
    assert_eq!(
        staged, report.records as u64,
        "every ingested record is staged on exactly one shard"
    );
}

#[test]
fn trace_log_replay_tolerates_out_of_order_and_matches_hand_batches() {
    let record = |t: f64, user: u32, group: u8| TraceRecord {
        timestamp_ms: t,
        user: UserId(user),
        group: AccelerationGroupId(group),
        battery_level: 80.0,
        round_trip_ms: 100.0,
        t1_ms: 10.0,
        t2_ms: 20.0,
        t_cloud_ms: 70.0,
        success: true,
    };
    // out of order within slots (the log of a concurrent front-end), a
    // boundary record, an interior gap (slot 2) and a trailing slot
    let log: TraceLog = vec![
        record(700.0, 2, 2),
        record(100.0, 1, 1),
        record(1_000.0, 3, 1), // boundary: slot 1
        record(1_800.0, 1, 3),
        record(1_200.0, 2, 1),
        record(3_100.0, 4, 2),
    ]
    .into_iter()
    .collect();
    let tenant = TenantId(0);

    let mut by_hand = FleetEngine::new(config(), 2, SEED);
    by_hand.add_tenant(tenant);
    let batches: Vec<Vec<SlotRecord>> = (0..4)
        .map(|slot| {
            log.records()
                .iter()
                .filter(|r| (r.timestamp_ms / SLOT_MS).floor() as usize == slot)
                .map(|r| SlotRecord::new(tenant, r.group, r.user))
                .collect()
        })
        .collect();
    let by_hand = FleetDriver::new(by_hand)
        .with_shared_source(SlotBatchSource::new(batches))
        .run(4)
        .unwrap();

    let mut engine = FleetEngine::new(config(), 2, SEED);
    engine.add_tenant(tenant);
    let source = TraceLogSource::new(tenant, &log, SLOT_MS);
    assert_eq!(source.slot_count(), 4);
    let mut driver = FleetDriver::new(engine)
        .with_source(tenant, source)
        .unwrap();
    let report = driver.run_until_exhausted(64).unwrap();

    assert_eq!(report.slots, 4, "the log spans four slots, gap included");
    assert_eq!(report.metrics, by_hand.metrics);
    assert_eq!(report.forecasts, by_hand.forecasts);
    assert_eq!(report.exhausted_sources, 1);
}

#[test]
fn shared_replay_source_matches_per_tenant_bound_sources() {
    const SLOTS: usize = 8;
    let traces: Vec<(TenantId, ArrivalTrace)> =
        (0..3).map(|t| (TenantId(t), trace_for(t, SLOTS))).collect();
    let batches: Vec<Vec<SlotRecord>> = (0..SLOTS).map(|s| hand_batch(&traces, s)).collect();

    let mut bound_engine = FleetEngine::new(config(), 2, SEED);
    bound_engine.add_tenants(traces.iter().map(|(t, _)| *t));
    let mut bound = FleetDriver::new(bound_engine);
    for (tenant, trace) in &traces {
        bound
            .add_source(
                *tenant,
                ArrivalTraceSource::new(*tenant, trace, SLOT_MS, ENTRY),
            )
            .unwrap();
    }
    let bound_report = bound.run(SLOTS).unwrap();

    let mut shared_engine = FleetEngine::new(config(), 2, SEED);
    shared_engine.add_tenants(traces.iter().map(|(t, _)| *t));
    let mut shared =
        FleetDriver::new(shared_engine).with_shared_source(SlotBatchSource::new(batches));
    let shared_report = shared.run(SLOTS).unwrap();

    assert_eq!(bound_report.metrics, shared_report.metrics);
    assert_eq!(bound_report.forecasts, shared_report.forecasts);
    assert_eq!(bound_report.records, shared_report.records);
}

#[test]
fn live_stream_driving_accounts_late_records_in_the_report() {
    let tenant = TenantId(0);
    let mut engine = FleetEngine::new(config(), 2, SEED);
    engine.add_tenant(tenant);
    let (handle, source) = StreamSource::channel(SLOT_MS);
    let mut driver = FleetDriver::new(engine)
        .with_source(tenant, source)
        .unwrap();

    let rec = |u: u32| SlotRecord::new(tenant, ENTRY, UserId(u));
    handle.push(700.0, rec(2));
    handle.push(100.0, rec(1)); // out of order within slot 0
    assert!(driver.step().unwrap());

    handle.push(300.0, rec(3)); // slot 0 already ticked: late, dropped
    handle.push(1_400.0, rec(4));
    assert!(driver.step().unwrap());

    handle.close();
    let report = driver.run_until_exhausted(8).unwrap();
    assert_eq!(report.records, 3);
    assert_eq!(report.late_records, 1, "the straggler is surfaced");
    assert_eq!(report.metrics.slots, 3, "two live slots + the closing one");
    assert_eq!(report.exhausted_sources, 1);
}

#[test]
fn driver_misuse_surfaces_as_typed_errors() {
    let mix = TenantMix::heterogeneous(2, 8, config().groups.ids(), SEED);
    let mut engine = FleetEngine::new(config(), 2, SEED);
    engine.add_tenant(TenantId(0));

    // a source for a tenant that is not onboarded
    let trace = trace_for(1, 2);
    let driver = FleetDriver::new(engine);
    let err = driver
        .with_source(
            TenantId(9),
            ArrivalTraceSource::new(TenantId(9), &trace, SLOT_MS, ENTRY),
        )
        .unwrap_err();
    assert_eq!(
        err,
        FleetError::UnknownTenant {
            tenant: TenantId(9)
        }
    );

    // two sources for one tenant
    let mut engine = FleetEngine::new(config(), 2, SEED);
    engine.add_tenant(TenantId(0));
    let mut driver = FleetDriver::new(engine)
        .with_source(
            TenantId(0),
            ArrivalTraceSource::new(TenantId(0), &trace, SLOT_MS, ENTRY),
        )
        .unwrap();
    assert_eq!(
        driver
            .add_source(
                TenantId(0),
                ArrivalTraceSource::new(TenantId(0), &trace, SLOT_MS, ENTRY),
            )
            .unwrap_err(),
        FleetError::DuplicateSource {
            tenant: TenantId(0)
        }
    );

    // a bound source producing another tenant's records is quarantined: the
    // slot still ticks (other sources stay in lockstep with the clock), its
    // batch is discarded, and the source is never polled again
    let mut engine = FleetEngine::new(config(), 2, SEED);
    engine.add_tenants([TenantId(0), TenantId(1)]);
    let foreign = SlotBatchSource::new(vec![vec![SlotRecord::new(TenantId(1), ENTRY, UserId(5))]]);
    let honest = trace_for(1, 2);
    let mut driver = FleetDriver::new(engine)
        .with_source(TenantId(0), foreign)
        .unwrap()
        .with_source(
            TenantId(1),
            ArrivalTraceSource::new(TenantId(1), &honest, SLOT_MS, ENTRY),
        )
        .unwrap();
    assert_eq!(
        driver.step().unwrap_err(),
        FleetError::ForeignRecord {
            bound: TenantId(0),
            found: TenantId(1)
        }
    );
    assert_eq!(
        driver.engine().slot_index(),
        1,
        "the slot ticked without the foreign batch"
    );
    assert_eq!(driver.live_sources(), 1, "the offender is quarantined");
    let report = driver.run_until_exhausted(8).unwrap();
    assert_eq!(
        report.records,
        honest.len(),
        "only the honest source's records were ingested"
    );
    assert_eq!(
        report.metrics.tenant(TenantId(0)).unwrap().total_user_slots,
        0
    );

    // a hosted tenant the mix does not define — the non-consuming add_mix
    // leaves the engine (and its knowledge bases) intact
    let mut engine = FleetEngine::new(config(), 2, SEED);
    engine.add_tenants([TenantId(0), TenantId(7)]);
    let mut driver = FleetDriver::new(engine);
    assert_eq!(
        driver.add_mix(&mix).unwrap_err(),
        FleetError::TenantNotInMix {
            tenant: TenantId(7),
            mix_tenants: 2
        }
    );
    assert_eq!(driver.sources(), 0, "a failed add_mix registers nothing");
    assert_eq!(driver.engine().tenants(), 2, "the engine survives");
}

#[test]
fn replay_sources_anchor_at_their_first_polled_slot() {
    // an engine pre-ticked three slots, then a recorded trace joins: the
    // replay serves its slot 0 at the next tick — no silent head loss
    let tenant = TenantId(0);
    let mut engine = FleetEngine::new(config(), 2, SEED);
    engine.add_tenant(tenant);
    let mut driver = FleetDriver::new(engine);
    driver.run(3).expect("no source, nothing to quarantine");
    let trace = trace_for(0, 4);
    driver
        .add_source(
            tenant,
            ArrivalTraceSource::new(tenant, &trace, SLOT_MS, ENTRY),
        )
        .unwrap();
    let report = driver.run_until_exhausted(16).unwrap();
    assert_eq!(
        report.records,
        trace.len(),
        "every recorded arrival ingested"
    );
    assert_eq!(driver.engine().slot_index(), 3 + 4);

    // the batch-list replay anchors the same way
    let batches = vec![vec![SlotRecord::new(tenant, ENTRY, UserId(1))]; 2];
    let mut engine = FleetEngine::new(config(), 2, SEED);
    engine.add_tenant(tenant);
    let mut driver = FleetDriver::new(engine);
    driver.run(5).expect("no source, nothing to quarantine");
    driver
        .add_source(tenant, SlotBatchSource::new(batches))
        .unwrap();
    let report = driver.run_until_exhausted(16).unwrap();
    assert_eq!(report.records, 2);
    assert_eq!(driver.engine().slot_index(), 5 + 2);
}

#[test]
fn short_trace_and_empty_fleet_edges_stay_consistent() {
    // a trace shorter than one slot: one ticked slot, then exhaustion
    let tenant = TenantId(0);
    let short = ArrivalTrace::new(vec![arrival(10.0, 1), arrival(500.0, 2)]);
    let mut engine = FleetEngine::new(config(), 2, SEED);
    engine.add_tenant(tenant);
    let mut driver = FleetDriver::new(engine)
        .with_source(
            tenant,
            ArrivalTraceSource::new(tenant, &short, SLOT_MS, ENTRY),
        )
        .unwrap();
    let report = driver.run_until_exhausted(16).unwrap();
    assert_eq!(report.slots, 1);
    assert_eq!(report.records, 2);
    assert_eq!(report.metrics.tenant(tenant).unwrap().total_user_slots, 2);

    // a driver with no sources ticks empty slots (the clock never skips)
    let mut engine = FleetEngine::new(config(), 2, SEED);
    engine.add_tenant(tenant);
    let mut driver = FleetDriver::new(engine);
    let report = driver.run(3).unwrap();
    assert_eq!(report.slots, 3);
    assert_eq!(report.records, 0);
    assert_eq!(report.metrics.tenant(tenant).unwrap().slots, 3);
}
