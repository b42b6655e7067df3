//! Cross-crate integration of the full provisioning pipeline:
//! benchmark the cloud → classify into acceleration levels → build groups →
//! predict workload → allocate instances → apply the allocation to the pool →
//! route requests through the SDN-accelerator.

use mobile_code_acceleration::core::{TimeSlot, WorkloadPredictor};
use mobile_code_acceleration::offload::{OffloadRequest, RequestId};
use mobile_code_acceleration::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn benchmark_to_groups_to_allocation_to_pool() {
    let mut rng = StdRng::seed_from_u64(99);
    let pool_tasks = TaskPool::paper_default();

    // 1. Characterize a subset of instances (the Fig. 4 set).
    let benchmarks: Vec<InstanceBenchmark> = InstanceType::FIG4_SET
        .iter()
        .map(|&ty| {
            InstanceBenchmark::run(
                ty,
                &pool_tasks,
                &[1, 20, 50, 100],
                20_000.0,
                500.0,
                &mut rng,
            )
        })
        .collect();
    let classification = LevelClassification::classify(&benchmarks, 1.5);
    assert!(classification.num_levels() >= 3);

    // 2. Build acceleration groups from the classification.
    let groups = AccelerationGroups::from_classification(&classification);
    assert_eq!(groups.len(), classification.num_levels());

    // 3. Learn a tiny history and forecast the next slot.
    let mut predictor = WorkloadPredictor::new(groups.ids(), 3_600_000.0);
    for load in [30u32, 45, 60] {
        let mut slot = TimeSlot::new(0);
        for u in 0..load {
            slot.assign(groups.lowest().id, UserId(u));
        }
        for u in 0..load / 3 {
            slot.assign(groups.highest().id, UserId(1_000 + u));
        }
        predictor.observe_slot(slot);
    }
    let mut current = TimeSlot::new(3);
    for u in 0..55u32 {
        current.assign(groups.lowest().id, UserId(u));
    }
    let forecast = predictor.predict(&current).expect("history present");
    assert!(forecast.total() > 0);

    // 4. Allocate for the forecast and apply it to an instance pool.
    let allocator = ResourceAllocator::new(groups.clone());
    let allocation = allocator
        .allocate(&forecast)
        .expect("forecast fits the cap");
    assert!(allocation.covers(&forecast));
    let mut pool = InstancePool::new();
    pool.apply_allocation(&allocation.pool_allocation(), 0.0)
        .expect("within account cap");
    assert_eq!(pool.len(), allocation.total_instances());

    // 5. Route a burst of requests through the SDN front-end backed by the
    //    same groups and verify every record is timing-consistent.
    let config = mobile_code_acceleration::core::SystemConfig {
        groups,
        ..SystemConfig::paper_three_groups()
    };
    let mut sdn = SdnAccelerator::new(config);
    for i in 0..50u32 {
        let request = OffloadRequest::new(
            RequestId(u64::from(i)),
            UserId(i),
            AccelerationGroupId(1),
            TaskSpec::paper_static_minimax(),
            80.0,
            f64::from(i) * 500.0,
        );
        let routed = sdn
            .handle(&request, f64::from(i) * 500.0, &mut rng)
            .expect("route");
        assert!(routed.record.is_consistent(1e-6));
        assert!(routed.record.round_trip_ms > 0.0);
    }
    assert_eq!(sdn.log().len(), 50);
    assert_eq!(sdn.requests_dropped(), 0);

    // 6. Tear the pool down and check the bill is positive and hourly-rounded:
    //    45 minutes bill one whole hour of every instance.
    pool.terminate_all(45.0 * 60_000.0);
    assert!(pool.billing().total_cost() > 0.0);
    assert!((pool.billing().total_cost() - allocation.hourly_cost).abs() < 1e-9);
}

#[test]
fn paper_inter_arrival_sampler_drives_workload_generation() {
    let mut rng = StdRng::seed_from_u64(123);
    // The 100–5000 ms inter-arrival calibration the paper extracts from its
    // 3-month usage study is what the generator consumes.
    let sampler = mobile_code_acceleration::mobile::InterArrivalSampler::paper_calibrated();
    let generator = mobile_code_acceleration::workload::WorkloadGenerator::new(
        mobile_code_acceleration::workload::GenerationMode::InterArrival { users: 20, sampler },
        TaskPool::paper_default(),
    );
    let trace = generator.generate(5.0 * 60_000.0, &mut rng);
    assert!(trace.len() > 100);
    assert_eq!(trace.distinct_users(), 20);
    // every arrival carries a valid task from the pool
    assert!(trace.iter().all(|a| a.task.work_units() > 0.0));
}

#[test]
fn network_assumption_holds_for_offload_payloads() {
    // §IV assumption (c): over LTE, payload transfer adds no meaningful
    // overhead for homogeneous-model application states.
    let transfer =
        mobile_code_acceleration::network::TransferModel::for_technology(Technology::Lte);
    for task in TaskPool::paper_default().tasks() {
        assert!(
            transfer.uplink_time_ms(task.state_bytes()) + transfer.downlink_time_ms(256) <= 100.0,
            "{task}: {} bytes",
            task.state_bytes()
        );
    }
    // ... but a heavyweight payload over 3G would violate the assumption.
    let threeg =
        mobile_code_acceleration::network::TransferModel::for_technology(Technology::ThreeG);
    assert!(threeg.uplink_time_ms(2_000_000) + threeg.downlink_time_ms(1_000) > 50.0);
}
