//! End-to-end behaviour of the closed-loop system: the headline claims of the
//! paper's evaluation, checked against the simulator at a reduced scale.

use mobile_code_acceleration::fleet::SlotBatchSource;
use mobile_code_acceleration::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn static_minimax_workload(users: usize, duration_ms: f64, seed: u64) -> ArrivalTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    WorkloadGenerator::inter_arrival(
        users,
        TaskPool::static_load(TaskSpec::paper_static_minimax()),
    )
    .generate(duration_ms, &mut rng)
}

#[test]
fn sdn_routing_overhead_is_about_150_ms_of_the_total() {
    // §I / Fig. 8a: the SDN component introduces ≈150 ms, "a fair price" in
    // the total response time.
    let mut rng = StdRng::seed_from_u64(1);
    let workload = static_minimax_workload(10, 3.0 * 60_000.0, 2);
    let mut system = System::new(SystemConfig::paper_three_groups().with_slot_length_ms(60_000.0));
    let report = system.run(&workload, &mut rng);
    let mean_t2: f64 =
        report.records.iter().map(|r| r.t2_ms).sum::<f64>() / report.records.len() as f64;
    assert!(
        (mean_t2 - 150.0).abs() < 20.0,
        "mean routing overhead {mean_t2} ms"
    );
    // routing is a small fraction of the level-1 response time under load
    assert!(mean_t2 < report.mean_response_ms * 0.2);
}

#[test]
fn promotions_lower_the_response_time_users_perceive() {
    // Fig. 9 / Fig. 10c: promoted users perceive shorter response times, and
    // the overall response time drops as the workload migrates upwards.
    let mut rng = StdRng::seed_from_u64(3);
    let workload = static_minimax_workload(12, 10.0 * 60_000.0, 4);
    let mut promoted_system = System::new(
        SystemConfig::paper_three_groups()
            .with_slot_length_ms(2.0 * 60_000.0)
            .with_promotion_policy(PromotionPolicy::ResponseTimeThreshold {
                threshold_ms: 800.0,
            }),
    );
    let promoted = promoted_system.run(&workload, &mut rng);

    let mut rng = StdRng::seed_from_u64(3);
    let mut static_system = System::new(
        SystemConfig::paper_three_groups()
            .with_slot_length_ms(2.0 * 60_000.0)
            .with_promotion_policy(PromotionPolicy::Never),
    );
    let unpromoted = static_system.run(&workload, &mut rng);

    assert!(promoted.promotions.len() > 10);
    assert_eq!(unpromoted.promotions.len(), 0);
    assert!(
        promoted.mean_response_ms < unpromoted.mean_response_ms * 0.8,
        "promoted {} vs unpromoted {}",
        promoted.mean_response_ms,
        unpromoted.mean_response_ms
    );
    assert!(promoted.promoted_user_fraction(AccelerationGroupId(1)) > 0.9);
}

#[test]
fn prediction_accuracy_is_high_on_a_steady_workload() {
    // §VI-C-2: the model predicts the per-group workload with high accuracy
    // once enough history is available (≈87.5 % in the paper).
    let mut rng = StdRng::seed_from_u64(5);
    let workload = static_minimax_workload(20, 16.0 * 60_000.0, 6);
    let mut system = System::new(
        SystemConfig::paper_three_groups()
            .with_slot_length_ms(60_000.0)
            .with_promotion_policy(PromotionPolicy::Never),
    );
    let report = system.run(&workload, &mut rng);
    let accuracy = report
        .mean_prediction_accuracy()
        .expect("several slots closed");
    assert!(
        accuracy > 0.8,
        "steady workload should be predicted well, got {accuracy}"
    );
    assert!(accuracy <= 1.0);
}

#[test]
fn ilp_allocation_is_cheaper_than_overprovisioning_for_the_same_workload() {
    // §IV-C / §VII-4: the point of the allocation model is to avoid paying
    // for capacity the workload does not need.
    let workload = static_minimax_workload(15, 8.0 * 60_000.0, 7);
    let mut rng_a = StdRng::seed_from_u64(8);
    let ilp_report = System::new(
        SystemConfig::paper_three_groups()
            .with_slot_length_ms(2.0 * 60_000.0)
            .with_allocation_policy(AllocationPolicy::IlpExact),
    )
    .run(&workload, &mut rng_a);
    let mut rng_b = StdRng::seed_from_u64(8);
    let over_report = System::new(
        SystemConfig::paper_three_groups()
            .with_slot_length_ms(2.0 * 60_000.0)
            .with_allocation_policy(AllocationPolicy::OverProvision),
    )
    .run(&workload, &mut rng_b);
    assert!(
        ilp_report.total_cost <= over_report.total_cost,
        "ilp ${} vs over-provisioning ${}",
        ilp_report.total_cost,
        over_report.total_cost
    );
    // both serve every request
    assert_eq!(ilp_report.records.len(), workload.len());
    assert_eq!(over_report.records.len(), workload.len());
}

#[test]
fn trace_records_always_decompose_into_t1_t2_tcloud() {
    // Fig. 7a: T_response = T1 + T2 + T_cloud for every logged request.
    let mut rng = StdRng::seed_from_u64(9);
    let workload = static_minimax_workload(8, 4.0 * 60_000.0, 10);
    let mut system = System::new(SystemConfig::paper_three_groups().with_slot_length_ms(60_000.0));
    let report = system.run(&workload, &mut rng);
    assert!(!report.records.is_empty());
    for record in &report.records {
        assert!(record.is_consistent(1e-6), "{record:?}");
        assert!(record.t_cloud_ms > 0.0);
        assert!(record.battery_level >= 0.0 && record.battery_level <= 100.0);
    }
    // battery levels decrease over time for each user (radio drain)
    for perception in &report.perceptions {
        let levels: Vec<f64> = report
            .records
            .iter()
            .filter(|r| r.user == perception.user)
            .map(|r| r.battery_level)
            .collect();
        assert!(
            levels.windows(2).all(|w| w[1] <= w[0] + 1e-9),
            "battery must not recharge"
        );
    }
}

#[test]
fn battery_aware_policy_promotes_low_battery_devices() {
    // §VII-3: the battery-aware policy promotes devices whose battery drops,
    // shortening the time their radio stays active.
    let mut rng = StdRng::seed_from_u64(11);
    let workload = static_minimax_workload(5, 6.0 * 60_000.0, 12);
    let mut system = System::new(
        SystemConfig::paper_three_groups()
            .with_slot_length_ms(2.0 * 60_000.0)
            .with_promotion_policy(PromotionPolicy::BatteryAware {
                battery_threshold_percent: 99.99,
                latency_threshold_ms: f64::INFINITY,
            }),
    );
    let report = system.run(&workload, &mut rng);
    // with the threshold effectively always met, every device is promoted to
    // the ceiling almost immediately
    assert!(report.promoted_user_fraction(AccelerationGroupId(1)) > 0.99);
}

/// Replays a `System::run` through a one-tenant fleet: the arrivals, tagged
/// with the group that served them, bucketed into provisioning slots and fed
/// to a `FleetDriver`. After every slot the shard's standing forecast must
/// be the one the system recorded, and over the run both must have bought
/// the same number of instance-slots.
fn assert_system_equals_one_tenant_fleet(config: SystemConfig, workload_seed: u64) {
    let tenant = TenantId(7);
    let slot_len = config.slot_length_ms;
    let workload = static_minimax_workload(14, 12.0 * 60_000.0, workload_seed);
    let mut rng = StdRng::seed_from_u64(workload_seed + 1);
    let report = System::new(config.clone()).run(&workload, &mut rng);
    assert_eq!(report.records.len(), workload.len());
    assert!(!report.promotions.is_empty(), "users spread over groups");

    let mut batches: Vec<Vec<SlotRecord>> = vec![Vec::new(); report.slots.len()];
    for (arrival, record) in workload.iter().zip(&report.records) {
        assert_eq!(arrival.user, record.user, "records keep arrival order");
        let slot = (arrival.time_ms / slot_len).floor() as usize;
        batches[slot].push(SlotRecord::new(tenant, record.group, record.user));
    }

    let mut engine = FleetEngine::new(config, 1, 99);
    engine.add_tenant(tenant);
    let mut driver = FleetDriver::new(engine)
        .with_source(tenant, SlotBatchSource::new(batches))
        .expect("the tenant is onboarded and has no other source");
    for observation in &report.slots {
        driver.step().expect("a bound replay never misroutes");
        let shard = driver.engine().tenant(tenant).expect("onboarded");
        assert_eq!(
            shard.forecast(),
            observation.forecast.as_ref(),
            "standing forecast after slot {}",
            observation.index
        );
    }
    let shard = driver.engine().tenant(tenant).expect("onboarded");
    let bought: usize = report.slots.iter().map(|s| s.allocated_instances).sum();
    assert_eq!(bought, shard.metrics().allocated_instance_slots);
    assert_eq!(report.slots.len(), shard.metrics().slots);
}

#[test]
fn system_is_a_one_tenant_fleet() {
    // Fig. 2 has one control loop; the fleet runs it per tenant. Promotions
    // spread the users over all three groups, so the slots are not trivial.
    let config = SystemConfig::paper_three_groups()
        .with_slot_length_ms(60_000.0)
        .with_background_load(5)
        .with_promotion_policy(PromotionPolicy::ResponseTimeThreshold {
            threshold_ms: 400.0,
        });
    assert_system_equals_one_tenant_fleet(config.clone(), 21);
    assert_system_equals_one_tenant_fleet(
        config.with_datacenter(DatacenterConfig::paper_default()),
        23,
    );
}
