//! Allocation-discipline gate for the nearest-slot scan: once a predictor
//! is warm, one prediction must allocate only a small constant number of
//! times (the forecast itself plus the probe's counts and id ranges), the
//! same on either search regime and **independent of the history length**
//! — the scan allocates nothing per candidate. A second gate holds the fleet's
//! slot ingest to a count **independent of the records per tenant** and the
//! live timestamped lane in front of it to one **independent of the records
//! per slot**, a third holds a warmed engine's checkpoint to the same, a
//! fourth holds one
//! ILP solve to a few allocations per branch-and-bound node **independent of
//! the pivot count**, a fifth holds the datacenter's bill stage to a
//! count **independent of the placed instances**, and a sixth holds a
//! predictor's restore to **one allocation per slot column** (a runs and a
//! users column per slot) plus a constant.
//!
//! This lives in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide. It counts per thread, so the
//! test harness and the tests running beside a measurement never leak
//! into it; every measured body runs on the measuring thread.

use mobile_code_acceleration::cloudsim::{DatacenterConfig, InstanceType};
use mobile_code_acceleration::core::{
    AccelerationGroups, BillingBackend, IndexPolicy, WorkloadForecast, WorkloadPredictor,
};
use mobile_code_acceleration::fleet::{SlotBatchSource, StreamSource};
use mobile_code_acceleration::offload::{AccelerationGroupId, UserId};
use mobile_code_acceleration::prelude::{
    FleetDriver, FleetEngine, SlotRecord, SystemConfig, TenantId, TimeSlot,
};
use mobile_code_acceleration::snapshot::{Cursor, Restore, Snapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations (and reallocations) made by this thread so far.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // a thread being torn down has no counter left to bump
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during(mut body: impl FnMut()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    body();
    ALLOCATIONS.with(Cell::get) - before
}

const GROUPS: [AccelerationGroupId; 3] = [
    AccelerationGroupId(1),
    AccelerationGroupId(2),
    AccelerationGroupId(3),
];

/// A drifting synthetic slot, deterministic and allocation-cheap: each
/// group's population is a contiguous id window sliding one id per slot.
fn drifting_slot(index: usize, users_per_group: u32) -> TimeSlot {
    let mut slot = TimeSlot::new(index);
    for (g, group) in GROUPS.into_iter().enumerate() {
        let base = g as u32 * 1_000_000 + index as u32;
        for u in 0..users_per_group {
            slot.assign(group, UserId(base + u));
        }
    }
    slot
}

fn warmed_predictor(
    slots: usize,
    configure: impl Fn(WorkloadPredictor) -> WorkloadPredictor,
) -> WorkloadPredictor {
    let mut predictor = configure(WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0));
    for index in 0..slots {
        predictor.observe_slot(drifting_slot(index, 24));
    }
    predictor
}

/// Allocations of one warmed prediction on a history of `slots` slots. The
/// warm-up predict lets every lazily grown buffer reach its steady-state
/// capacity first.
fn steady_state_allocations(
    slots: usize,
    configure: impl Fn(WorkloadPredictor) -> WorkloadPredictor,
) -> usize {
    let predictor = warmed_predictor(slots, configure);
    let probe = drifting_slot(slots, 24);
    predictor.predict(&probe).expect("non-empty history");
    allocations_during(|| {
        std::hint::black_box(predictor.predict(&probe).expect("non-empty history"));
    })
}

fn indexed(predictor: WorkloadPredictor) -> WorkloadPredictor {
    predictor.with_index_policy(IndexPolicy::indexed())
}

#[test]
fn serial_set_edit_scan_allocates_a_small_constant() {
    let serial = |p: WorkloadPredictor| p;
    let (small, large) = (
        steady_state_allocations(500, serial),
        steady_state_allocations(2_000, serial),
    );
    assert_eq!(
        small, large,
        "allocations grew with history length ({small} at 500 slots, {large} at 2000): \
         the scan is allocating per candidate"
    );
    let tree = steady_state_allocations(10_000, indexed);
    assert_eq!(
        small, tree,
        "one warmed serial prediction allocated {small} times and one indexed prediction {tree}: \
         both should allocate the probe's counts, its ranges and the forecast, nothing else"
    );
}

#[test]
fn indexed_probe_allocates_a_small_constant() {
    assert!(
        warmed_predictor(5_000, indexed).index_active(),
        "the summary tree must be live"
    );
    // one level at 10k slots, two at 100k
    let (small, large) = (
        steady_state_allocations(10_000, indexed),
        steady_state_allocations(100_000, indexed),
    );
    assert!(
        small < 16,
        "one warmed indexed prediction allocated {small} times; expected the probe's counts, its \
         ranges and the forecast"
    );
    assert_eq!(
        small, large,
        "indexed-probe allocations differ between 10k and 100k slots: a per-query buffer scales \
         with the history"
    );
}

/// A driver over `tenants` tenants of `users` users each, spread over the
/// three groups and fed in an interleaved arrival order with duplicates,
/// stepped past the history window so eviction, the builders' buffers and
/// frames and the allocation memo are all in steady state; one more slot
/// is queued. `id(slot, users, u)` places user `u` of a tenant in `slot`,
/// within the tenant's own million ids.
fn warmed_driver(tenants: u32, users: u32, id: impl Fn(usize, u32, u32) -> u32) -> FleetDriver {
    let batch = |slot: usize| -> Vec<SlotRecord> {
        // a stride coprime to the user count visits every user, out of order
        (0..users + users / 4)
            .flat_map(|i| {
                let u = (i * 7919) % users;
                let id = id(slot, users, u);
                (0..tenants).map(move |t| {
                    let group = GROUPS[(u * 3 / users) as usize];
                    SlotRecord::new(TenantId(t), group, UserId(t * 1_000_000 + id))
                })
            })
            .collect()
    };
    let config = SystemConfig::paper_three_groups().with_history_window(16);
    let mut engine = FleetEngine::new(config, 4, 1).with_threads(1);
    engine.add_tenants((0..tenants).map(TenantId));
    let (lane, source) = SlotBatchSource::channel();
    let mut driver = FleetDriver::new(engine).with_shared_source(source);
    for slot in 0..40 {
        lane.push_slot(batch(slot));
        driver.step().expect("a shared lane never misroutes");
    }
    lane.push_slot(batch(40));
    driver
}

/// Asserts that one warmed `FleetDriver::step` allocates as often at 250
/// records per tenant as at 1,000, and about twice as often for twice the
/// tenants, with users placed by `id` (see [`warmed_driver`]).
fn assert_ingest_allocations_flat(population: &str, id: impl Fn(usize, u32, u32) -> u32 + Copy) {
    let step = |tenants: u32, users: u32| {
        let mut driver = warmed_driver(tenants, users, id);
        allocations_during(|| {
            driver.step().expect("a shared lane never misroutes");
        })
    };
    let (light, heavy) = (step(6, 200), step(6, 800));
    assert_eq!(
        light, heavy,
        "{population}: one warmed slot allocated {light} times at 250 records per tenant and \
         {heavy} at 1,000: a per-record buffer is growing inside the ingest"
    );
    // what a slot does allocate is its own: a run per non-empty group, the
    // forecast, the memoized allocation handed to billing
    let more_tenants = step(12, 200);
    assert!(
        light < more_tenants && more_tenants <= 2 * light,
        "{population}: allocations should scale with tenants: {light} for 6, {more_tenants} \
         for 12"
    );
}

#[test]
fn slot_ingest_allocations_do_not_grow_with_records_per_tenant() {
    // adjacent ids span fewer words than there are records, so each
    // tenant's first slot is set into an exact frame and every later one
    // lands in the frame the slot before left; ids 97 apart span more
    // (84,840 bits over 250 records, 339,648 over 1,000), so each slot is
    // radix-sorted and keeps no frame
    for spacing in [1, 97] {
        assert_ingest_allocations_flat(&format!("ids {spacing} apart"), move |_, _, u| u * spacing);
    }
}

#[test]
fn framed_ingest_allocations_do_not_grow_with_records_per_tenant() {
    // ids sliding by a fiftieth of the population per slot, as `TenantMix`
    // and the benchmark's diurnal tenants drift: every record lands in the
    // frame the tenant's last slot left, and the slot is read off it
    assert_ingest_allocations_flat("drifting", |slot, users, u| slot as u32 * (users / 50) + u);
}

#[test]
fn unframed_ingest_allocations_do_not_grow_with_records_per_tenant() {
    // a population that jumps three spans up and back every slot: no record
    // lands in the frame, so every slot takes the keys' exact frame
    assert_ingest_allocations_flat("jumping", |slot, users, u| {
        (slot as u32 % 2) * (3 * users + 1_000) + u
    });
}

/// Allocations of one warmed slot on a live timestamped lane: `records`
/// pushes through a `StreamHandle`, spread over the slot in a scattered
/// order, then the `FleetDriver::step` that ticks the slot. Four steady
/// tenants share the records, each with the same users every slot.
fn warmed_stream_slot_allocations(records: u32) -> usize {
    const TENANTS: u32 = 4;
    let config = SystemConfig::paper_three_groups().with_history_window(16);
    let slot_ms = config.slot_length_ms;
    let mut engine = FleetEngine::new(config, 2, 1).with_threads(1);
    engine.add_tenants((0..TENANTS).map(TenantId));
    let (lane, source) = StreamSource::channel(slot_ms);
    let mut driver = FleetDriver::new(engine).with_shared_source(source);
    let users = records / TENANTS;
    let feed = |slot: usize| {
        for i in 0..records {
            let at = (i * 7919) % records;
            let (tenant, u) = (at % TENANTS, at / TENANTS);
            let group = GROUPS[(u * 3 / users) as usize];
            let record = SlotRecord::new(TenantId(tenant), group, UserId(tenant << 20 | u));
            let time_ms = (slot as f64 + f64::from(at) / f64::from(records)) * slot_ms;
            assert!(lane.push(time_ms, record), "every record is on time");
        }
    };
    for slot in 0..24 {
        feed(slot);
        driver.step().expect("a shared lane never misroutes");
    }
    allocations_during(|| {
        feed(24);
        driver.step().expect("a shared lane never misroutes");
    })
}

#[test]
fn a_stream_lane_allocates_per_slot_never_per_record() {
    let (light, heavy) = (
        warmed_stream_slot_allocations(1_000),
        warmed_stream_slot_allocations(10_000),
    );
    assert_eq!(
        light, heavy,
        "one warmed stream slot allocated {light} times at 1,000 records and {heavy} at \
         10,000: a buffer is growing with the records on the push or the hand-over"
    );
}

/// Allocations of the second `FleetEngine::checkpoint` of a warmed engine
/// into a buffer the caller keeps.
fn warmed_checkpoint_allocations(tenants: u32, users: u32) -> usize {
    let mut engine = warmed_driver(tenants, users, |_, _, u| u).into_engine();
    let mut bytes = Vec::new();
    engine
        .checkpoint(&mut bytes)
        .expect("appending to a Vec cannot fail");
    let first = bytes.len();
    bytes.clear();
    let allocations = allocations_during(|| {
        engine
            .checkpoint(&mut bytes)
            .expect("appending to a Vec cannot fail");
    });
    assert_eq!(bytes.len(), first, "nothing ticked between the checkpoints");
    allocations
}

#[test]
fn checkpoint_allocations_do_not_grow_with_users_per_tenant() {
    let (light, heavy) = (
        warmed_checkpoint_allocations(6, 100),
        warmed_checkpoint_allocations(6, 1_000),
    );
    // every section is encoded straight into the kept buffer, so the one
    // allocation left is the config fingerprint's `groups.ids()`
    assert!(
        light <= 1,
        "a warmed checkpoint allocated {light} times; expected at most one"
    );
    assert_eq!(
        light, heavy,
        "a warmed checkpoint allocated {light} times at 100 users per tenant and {heavy} at \
         1,000: a buffer is growing with the shards"
    );
}

/// `groups` acceleration groups that each offer six instance types of
/// pairwise distinct price structure: the catalogue of the end-to-end
/// benchmark's `fleet_solver` (4 groups) and of `bench_allocation`.
fn wide_catalogue(groups: u8, account_cap: usize) -> SystemConfig {
    let types = vec![
        InstanceType::T2Nano,
        InstanceType::T2Small,
        InstanceType::T2Large,
        InstanceType::M4_4XLarge,
        InstanceType::M4_10XLarge,
        InstanceType::C4_8XLarge,
    ];
    let assignments: Vec<(AccelerationGroupId, Vec<InstanceType>)> = (1..=groups)
        .map(|g| (AccelerationGroupId(g), types.clone()))
        .collect();
    let mut config = SystemConfig::paper_three_groups();
    config.groups = AccelerationGroups::from_assignments(&assignments, 500.0, 65.0);
    config.account_cap = account_cap;
    config
}

/// Allocations, nodes and pivots of one warmed ILP solve.
fn warmed_solve(config: &SystemConfig, loads: &[usize]) -> (usize, usize, usize) {
    let allocator = config.build_allocator();
    let forecast = WorkloadForecast {
        per_group: config
            .groups
            .ids()
            .into_iter()
            .zip(loads.iter().copied())
            .collect(),
        matched_slot: None,
    };
    allocator.allocate(&forecast).expect("feasible");
    let mut stats = None;
    let allocations = allocations_during(|| {
        stats = Some(allocator.allocate(&forecast).expect("feasible").stats);
    });
    let stats = stats.expect("solved");
    (allocations, stats.nodes, stats.pivots)
}

#[test]
fn an_ilp_solve_allocates_per_branching_node_never_per_pivot() {
    // the per-solve workspace, the demand vector and the allocation handed
    // back are the constant; a branching node keeps its basis and inverse
    // for its two children; a pivot, a transform or a refactorization
    // allocates nothing
    let bound = |nodes: usize| 5 * nodes + 64;
    let (allocations, nodes, pivots) =
        warmed_solve(&wide_catalogue(4, 2_000), &[231, 173, 116, 58]);
    assert!(nodes > 10 && pivots > 20, "{nodes} nodes, {pivots} pivots");
    assert!(
        allocations <= bound(nodes),
        "a 4 x 6 solve of {nodes} nodes and {pivots} pivots allocated {allocations} times, over \
         {}",
        bound(nodes)
    );
    // the same bound where a solve pivots some thirty times as often
    let (allocations, nodes, pivots) = warmed_solve(
        &wide_catalogue(8, 160),
        &[628, 21, 542, 1_084, 436, 1_002, 660, 1_981],
    );
    assert!(pivots > 1_000, "{nodes} nodes, {pivots} pivots");
    assert!(
        allocations <= bound(nodes),
        "an 8 x 6 solve of {nodes} nodes and {pivots} pivots allocated {allocations} times, over \
         {}",
        bound(nodes)
    );
}

/// Allocations of one warmed datacenter-backed `settle`, and the instances
/// it placed: the paper's three groups at `users` users each, the same
/// allocation settled until the pool and the standing placement are the
/// ones being re-applied and scored.
fn warmed_settle(users: usize) -> (usize, usize) {
    let mut config = SystemConfig::paper_three_groups()
        .with_datacenter(DatacenterConfig::paper_default().with_hosts(64, 48, 192.0));
    config.account_cap = 2_000;
    let observed: Vec<(AccelerationGroupId, usize)> =
        GROUPS.into_iter().map(|group| (group, users)).collect();
    let allocation = config
        .build_allocator()
        .allocate(&WorkloadForecast {
            per_group: observed.clone(),
            matched_slot: None,
        })
        .expect("feasible");
    let (mut pool, mut billing) = (config.build_pool(), config.build_billing());
    let mut settle = |slot: usize| {
        let now_ms = slot as f64 * config.slot_length_ms;
        billing.settle(
            &mut pool,
            &allocation,
            &observed,
            config.slot_length_ms,
            now_ms,
        )
    };
    settle(0);
    settle(1);
    let mut placed = 0;
    let allocations = allocations_during(|| placed = settle(2).placements);
    (allocations, placed)
}

#[test]
fn datacenter_settle_allocations_do_not_grow_with_placed_instances() {
    let ((few, few_placed), (many, many_placed)) = (warmed_settle(50), warmed_settle(8_000));
    assert!(
        few_placed < 5 && many_placed > 100,
        "{few_placed} and {many_placed} instances placed"
    );
    // the demand vector, the pool's type list and target, fresh hosts, the
    // placement list at its final size, the standing capacity
    assert!(
        few < 16,
        "a warmed settle allocated {few} times; expected a small constant"
    );
    assert_eq!(
        few, many,
        "a warmed settle allocated {few} times over {few_placed} placed instances and {many} \
         over {many_placed}: the SLA assessment or the placement is allocating per instance"
    );
}

/// Allocations of one restore of a warmed indexed predictor of `slots`
/// slots, and whether the restore equalled the original.
fn restore_allocations(slots: usize) -> (usize, bool) {
    let predictor = warmed_predictor(slots, indexed);
    let mut bytes = Vec::new();
    predictor.encode(&mut bytes);
    let mut restored = None;
    let allocations = allocations_during(|| {
        restored = Some(WorkloadPredictor::decode(&mut Cursor::new(&bytes)));
    });
    let equal = restored.is_some_and(|r| r.is_ok_and(|r| r == predictor && r.index_active()));
    (allocations, equal)
}

#[test]
fn a_restore_allocates_each_slot_once_per_column() {
    // more than 64 blocks at both sizes: the summary tree has two levels
    // either way, so only the history differs
    let (small, small_equal) = restore_allocations(5_000);
    let (large, large_equal) = restore_allocations(50_000);
    assert!(
        small_equal && large_equal,
        "a restore differs from its original"
    );
    // every slot has users: a runs column and a users column each
    let fixed = small.saturating_sub(2 * 5_000);
    assert!(
        fixed < 32,
        "a 5,000-slot restore allocated {small} times: {fixed} beyond two per slot"
    );
    assert_eq!(
        large - small,
        2 * 45_000,
        "45,000 more slots cost {} more allocations: the decode allocates more than one \
         buffer per slot column",
        large - small
    );
}
