//! End-to-end acceptance of the unified streaming ingestion API: driving a
//! fleet from trace-, log-, mix- and stream-backed `RecordSource`s through
//! `FleetDriver` must be bit-identical to replaying the equivalent hand-built
//! batches (a `SlotBatchSource`) — and every misuse the old API answered
//! with a panic must surface as a typed `FleetError`.

use mca_core::{SystemConfig, TraceLog};
use mca_fleet::{
    ArrivalTraceSource, FleetDriver, FleetEngine, FleetError, RecordSource, SlotBatchSource,
    SlotRecord, StreamHandle, StreamSource, TraceLogSource,
};
use mca_offload::{AccelerationGroupId, TenantId, TraceRecord, UserId};
use mca_offload::{TaskKind, TaskSpec};
use mca_snapshot::{crc32, Snapshot, SnapshotError};
use mca_workload::{Arrival, ArrivalTrace, TenantMix};
use std::collections::BTreeMap;

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
fn non_finite_trace_timestamps_build_drive_and_conserve_records() {
    // NaN and −∞ timestamps sort in the total order (−NaN first, NaN last)
    // and window into slot 0, where `slot_of` clamps; the trace builds, the
    // fleet drives it, and every record is served, none late or dropped
    let tenant = TenantId(0);
    let trace = ArrivalTrace::new(vec![
        arrival(f64::NAN, 1),
        arrival(1_500.0, 2),
        arrival(f64::NEG_INFINITY, 3),
        arrival(-f64::NAN, 4),
        arrival(200.0, 5),
    ]);
    let source = ArrivalTraceSource::new(tenant, &trace, SLOT_MS, ENTRY);
    assert_eq!(source.slot_count(), 2);
    assert_eq!(source.clone().next_slot(0).records.len(), 4);
    let mut engine = FleetEngine::new(config(), 2, SEED);
    engine.add_tenant(tenant);
    let mut driver = FleetDriver::new(engine)
        .with_source(tenant, source)
        .unwrap();
    let report = driver.run_until_exhausted(8).unwrap();
    assert_eq!(report.records, trace.len());
    assert_eq!((report.late_records, report.dropped_records), (0, 0));
    assert_eq!(report.exhausted_sources, 1);
}

#[test]
fn unbounded_trace_timestamps_build_at_once_and_drive_their_finite_slots() {
    // `+∞` and 1e300 ms both window into slot `usize::MAX`: the replay keeps
    // only the slots that hold records, so the source builds without one
    // batch per gap slot, serves its finite slots and leaves the far one
    // for a drive that never gets there
    let tenant = TenantId(0);
    let trace = ArrivalTrace::new(vec![
        arrival(200.0, 1),
        arrival(f64::INFINITY, 2),
        arrival(1_500.0, 3),
        arrival(1e300, 4),
    ]);
    let source = ArrivalTraceSource::new(tenant, &trace, SLOT_MS, ENTRY);
    assert_eq!(source.slot_count(), usize::MAX);
    let mut engine = FleetEngine::new(config(), 2, SEED);
    engine.add_tenant(tenant);
    let mut driver = FleetDriver::new(engine)
        .with_source(tenant, source)
        .unwrap();
    let report = driver.run_until_exhausted(4).unwrap();
    assert_eq!(report.metrics.slots, 4);
    assert_eq!(report.records, 2, "slots 0 and 1 hold one record each");
    assert_eq!((report.late_records, report.dropped_records), (0, 0));
    assert_eq!(report.exhausted_sources, 0);
    // the cursor carries the span, so a source rebuilt from the same trace
    // resumes the replay
    let mut bytes = Vec::new();
    driver.checkpoint(&mut bytes).unwrap();
    let rebuilt = ArrivalTraceSource::new(tenant, &trace, SLOT_MS, ENTRY);
    let sources: Vec<(Option<TenantId>, Box<dyn RecordSource>)> =
        vec![(Some(tenant), Box::new(rebuilt))];
    let mut resumed = FleetDriver::restore(&mut bytes.as_slice(), &config(), sources).unwrap();
    assert_eq!(resumed.run(2).unwrap().records, 2);
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

/// What a live tenant-0 stream sees around slot `slot`: two records of
/// the slot itself pushed out of order, one for two slots ahead, and from
/// slot 1 on a straggler for the slot before, which is late.
fn feed_stream(handle: &StreamHandle, slot: usize) {
    let rec = |u: usize| SlotRecord::new(TenantId(0), ENTRY, UserId(u as u32));
    let start = slot as f64 * SLOT_MS;
    handle.push(start + 900.0, rec(100 + slot % 5));
    handle.push(start + 2.0 * SLOT_MS + 5.0, rec(300 + slot));
    handle.push(start, rec(slot % 3));
    if slot > 0 {
        handle.push(start - 500.0, rec(200 + slot));
    }
}

/// A one-tenant fleet on a live stream, and the stream's producer half.
fn stream_driver() -> (StreamHandle, FleetDriver) {
    let mut engine = FleetEngine::new(config(), 2, SEED);
    engine.add_tenant(TenantId(0));
    let (handle, source) = StreamSource::channel(SLOT_MS);
    let driver = FleetDriver::new(engine)
        .with_source(TenantId(0), source)
        .unwrap();
    (handle, driver)
}

/// Re-frames the last section of a checkpoint after its payload's last
/// `old_tail` bytes were replaced by `new_tail`: the section's length and
/// CRC-32 are rewritten as the writer would, so only the payload differs.
fn splice_last_section(bytes: &[u8], old_tail: usize, new_tail: &[u8]) -> Vec<u8> {
    const HEADER: usize = 14; // tag, u64 length, u32 CRC-32
    let end = bytes.len() - 2; // the end marker follows the last section
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let header = (0..end - HEADER)
        .rev()
        .find(|&at| at + HEADER + word(at + 2) as usize == end)
        .expect("the checkpoint ends in a section");
    let mut out = bytes[..end - old_tail].to_vec();
    out.extend_from_slice(new_tail);
    let len = (out.len() - header - HEADER) as u64;
    let crc = crc32(&out[header + HEADER..]);
    out[header + 2..header + 10].copy_from_slice(&len.to_le_bytes());
    out[header + 10..header + HEADER].copy_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&bytes[end..]);
    out
}

/// Encodes a source cursor the way the driver section carries it.
fn framed(cursor: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    cursor.to_vec().encode(&mut out);
    out
}

#[test]
fn a_stream_checkpoint_keeps_its_wire_and_resumes_bit_identically() {
    // the cursor of a stream holding records for the slot the driver ticks
    // next and for a later one, as the windower wrote it when every slot
    // lived in one map
    const GOLDEN: &str = "0000000000408f400300000000000000060000000000000003000000000000000000000001300100000000000001650000000000000001000000000700000000000000010000000000000000000000013101000008000000000000000100000000000000000000000132010000060000000000000006000000000000000005000000000000000100000000000000000000000100000000000000";
    const CUT: usize = 6;
    let (handle, mut driver) = stream_driver();
    let (twin_handle, mut twin) = StreamSource::channel(SLOT_MS);
    for slot in 0..CUT {
        feed_stream(&handle, slot);
        feed_stream(&twin_handle, slot);
        driver.step().unwrap();
        twin.next_slot(slot);
    }
    feed_stream(&handle, CUT);
    feed_stream(&twin_handle, CUT);
    let mut cursor = Vec::new();
    twin.save_cursor(&mut cursor);
    let hex: String = cursor.iter().map(|byte| format!("{byte:02x}")).collect();
    assert_eq!(hex, GOLDEN, "the stream cursor's bytes changed");
    let mut checkpoint = Vec::new();
    driver.checkpoint(&mut checkpoint).unwrap();
    let framed = framed(&cursor);
    assert!(
        checkpoint[..checkpoint.len() - 2].ends_with(&framed),
        "the driver section carries the cursor last"
    );

    // the uninterrupted drive and a restored one, fed the same tail
    let (resumed_handle, source) = StreamSource::channel(SLOT_MS);
    let mut resumed = FleetDriver::restore(
        &mut checkpoint.as_slice(),
        &config(),
        vec![(Some(TenantId(0)), Box::new(source) as Box<dyn RecordSource>)],
    )
    .unwrap();
    for (handle, driver) in [(&handle, &mut driver), (&resumed_handle, &mut resumed)] {
        driver.step().unwrap();
        for slot in CUT + 1..CUT + 5 {
            feed_stream(handle, slot);
            driver.step().unwrap();
        }
        handle.close();
        driver.run_until_exhausted(8).unwrap();
    }
    let report = driver.report();
    assert!(
        report == resumed.report(),
        "the restored drive ends where the uninterrupted one does"
    );
    assert_eq!(driver.engine().forecasts(), resumed.engine().forecasts());
    assert_eq!(
        report.late_records,
        CUT + 4,
        "one straggler per fed slot after the first"
    );
    assert_eq!(report.records, 3 * (CUT + 5));
}

#[test]
fn a_stream_cursor_with_an_empty_pending_batch_is_refused() {
    // a closed stream whose last record waits two slots ahead
    let (handle, mut driver) = stream_driver();
    let rec = SlotRecord::new(TenantId(0), ENTRY, UserId(7));
    handle.push(10.0, rec);
    driver.step().unwrap();
    handle.push(3.0 * SLOT_MS + 10.0, rec);
    handle.close();
    let mut checkpoint = Vec::new();
    driver.checkpoint(&mut checkpoint).unwrap();
    let restore = |bytes: &[u8]| {
        let (_, source) = StreamSource::channel(SLOT_MS);
        FleetDriver::restore(
            &mut &bytes[..],
            &config(),
            vec![(Some(TenantId(0)), Box::new(source) as Box<dyn RecordSource>)],
        )
    };
    assert!(restore(&checkpoint).is_ok());

    // the same cursor with that batch emptied: no push makes an empty
    // batch, and a closed stream carrying one would never report its end
    // before slot 3
    let cursor = |pending: BTreeMap<usize, Vec<SlotRecord>>| {
        let mut out = Vec::new();
        SLOT_MS.encode(&mut out);
        pending.encode(&mut out);
        1usize.encode(&mut out); // next slot
        0usize.encode(&mut out); // late events
        true.encode(&mut out); // closed
        0usize.encode(&mut out); // late events reported
        BTreeMap::<TenantId, usize>::new().encode(&mut out);
        framed(&out)
    };
    let honest = cursor(BTreeMap::from([(3, vec![rec])]));
    assert!(checkpoint[..checkpoint.len() - 2].ends_with(&honest));
    let forged = splice_last_section(
        &checkpoint,
        honest.len(),
        &cursor(BTreeMap::from([(3, Vec::new())])),
    );
    assert!(matches!(
        restore(&forged),
        Err(SnapshotError::Malformed { .. })
    ));
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
