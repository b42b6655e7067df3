//! The sharded fleet engine: many tenants, one provisioning clock.
//!
//! [`FleetEngine`] owns `N` shards, each holding the [`TenantShard`]s the
//! [`ShardRouter`] hashes onto it. Every provisioning slot the engine
//! ingests one batch of arrival records, scatters it in one pass through a
//! table of the hosted tenants' slot-builder lanes (see [`crate::ingest`]),
//! and runs every shard's
//! build→predict→allocate→bill cycle **in parallel** — one contiguous chunk
//! of shards per thread (`shard_chunks`), the calling thread ticking the
//! last chunk and a scoped thread each of the others. Two properties make
//! the parallel tick safe and reproducible:
//!
//! * shards share no state — every tenant lives whole on exactly one shard,
//!   with its knowledge base, allocator and pool, and its tick reads only
//!   the records routed to it, and
//! * the nearest-neighbour tie-break (first minimum in chronological order)
//!   is deterministic inside each predictor, so per-tenant forecasts are
//!   bit-identical to running that tenant alone, whatever the shard layout
//!   or thread count.

use crate::error::FleetError;
use crate::ingest::{LaneTable, SlotRecord};
use crate::metrics::FleetMetrics;
use crate::rebalance::{MigrationRecord, Rebalancer, RebalancerConfig};
use crate::router::ShardRouter;
use crate::shard::TenantShard;
use crate::telemetry::{FleetTelemetry, ShardTelemetry, StageHistograms, TelemetryMode};
use mca_core::{PredictorStatsSnapshot, SlotHistory, SystemConfig, WorkloadForecast};
use mca_offload::TenantId;
use mca_snapshot::{
    Cursor, Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotStats, SnapshotWriter,
};
use mca_telemetry::{LatencyHistogram, Registry, StageTimer, TelemetryClock};
use std::collections::BTreeMap;
use std::ops::Range;

/// Wire-section tags of the engine checkpoint stream, in stream order. One
/// `SHARD` section follows per shard; the driver appends its own sections
/// after the engine's (see `FleetDriver::checkpoint`).
pub(crate) const SECTION_META: u16 = 0x0001;
pub(crate) const SECTION_ROUTER: u16 = 0x0002;
pub(crate) const SECTION_ENGINE: u16 = 0x0003;
pub(crate) const SECTION_REBALANCER: u16 = 0x0004;
pub(crate) const SECTION_SHARD: u16 = 0x0005;

/// One worker partition: the tenants a shard index owns, each staging its
/// own slot before a parallel tick.
#[derive(Debug)]
struct Shard {
    /// The shard's tenants, sorted by tenant id.
    tenants: Vec<TenantShard>,
    /// Records naming an unknown tenant charged here for the next tick (the
    /// tenants count the rest).
    unrouted: usize,
    /// The shard's private instrumentation state: its own clock (so logical
    /// timestamps are deterministic under any thread schedule), stage
    /// histograms and load accounting.
    telemetry: ShardTelemetry,
}

impl Shard {
    fn new(tenants: Vec<TenantShard>, telemetry: ShardTelemetry) -> Self {
        Self {
            tenants,
            unrouted: 0,
            telemetry,
        }
    }

    /// Builds each tenant's staged slot — read off its builder's frame, or
    /// sorted and deduplicated — and runs the tenant's provisioning tick,
    /// timing the windowing and per-tenant stages against the shard's
    /// telemetry.
    fn tick(&mut self, slot_index: usize, now_ms: f64) {
        let telemetry = &mut self.telemetry;
        let tick_timer = telemetry.start_stage();
        let mut staged = std::mem::take(&mut self.unrouted);
        for tenant in &mut self.tenants {
            staged += tenant.builder.len();
            let timer = telemetry.start_stage();
            let slot = tenant.builder.finish(slot_index);
            telemetry.end_windowing(timer);
            tenant.tick(slot, now_ms, telemetry);
        }
        telemetry.finish_tick(staged, tick_timer);
    }
}

/// How a tick divides `len` shards among `threads` threads: contiguous,
/// near-equal index ranges covering `0..len` in order, the first
/// `len % parts` one longer, where `parts = threads.clamp(1, len.max(1))`.
/// Each range is ticked by one thread, so a slot ends when the range with
/// the most work does.
pub(crate) fn shard_chunks(
    len: usize,
    threads: usize,
) -> impl ExactSizeIterator<Item = Range<usize>> {
    let parts = threads.clamp(1, len.max(1));
    let (base, extra) = (len / parts, len % parts);
    (0..parts).map(move |part| {
        let start = part * base + part.min(extra);
        start..start + base + usize::from(part < extra)
    })
}

/// The multi-tenant sharded prediction/allocation engine.
#[derive(Debug)]
pub struct FleetEngine {
    config: SystemConfig,
    router: ShardRouter,
    shards: Vec<Shard>,
    threads: usize,
    slot_index: usize,
    dropped_records: usize,
    /// Dropped records broken down by the unknown tenant they named.
    dropped_by_tenant: BTreeMap<TenantId, usize>,
    /// How stage and slot latencies are measured.
    telemetry_mode: TelemetryMode,
    /// The engine-level clock timing each full slot tick.
    clock: TelemetryClock,
    /// Latency histogram over full `ingest_batch` slot ticks.
    slot_hist: LatencyHistogram,
    /// The between-slots rebalancing policy, when one is configured.
    rebalancer: Option<Rebalancer>,
    /// Sum over slots of the slowest shard tick of the slot — the fleet's
    /// serial floor (0 while stage measurements are disabled).
    critical_path_ns: u64,
    /// Checkpoint bytes written by this engine (`fleet_snapshot_*` family).
    snapshot_bytes_written: u64,
    /// Checkpoint bytes this engine was restored from.
    snapshot_bytes_read: u64,
    /// Checkpoint sections written plus read.
    snapshot_sections: u64,
    /// Restores this engine went through (0 or 1; the drive history before a
    /// restore lives in the checkpoint's own counters).
    snapshot_restores: u64,
}

impl FleetEngine {
    /// Creates an engine with `shards` empty shards over the shared system
    /// configuration. The tick's thread count defaults to the machine's
    /// available parallelism; see [`FleetEngine::with_threads`].
    /// `_seed` is ignored; it goes with ROADMAP item 1(c).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(config: SystemConfig, shards: usize, _seed: u64) -> Self {
        let mode = TelemetryMode::default();
        let router = ShardRouter::new(shards);
        let shards = (0..shards)
            .map(|_| Shard::new(Vec::new(), ShardTelemetry::new(mode)))
            .collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            config,
            router,
            shards,
            threads,
            slot_index: 0,
            dropped_records: 0,
            dropped_by_tenant: BTreeMap::new(),
            telemetry_mode: mode,
            clock: mode.clock(),
            slot_hist: LatencyHistogram::new(),
            rebalancer: None,
            critical_path_ns: 0,
            snapshot_bytes_written: 0,
            snapshot_bytes_read: 0,
            snapshot_sections: 0,
            snapshot_restores: 0,
        }
    }

    /// Overrides the tick's thread count (1 = fully sequential). Forecasts
    /// and metrics are independent of this setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Switches how stage and slot latencies are measured, resetting every
    /// clock and histogram (typically called right after construction).
    /// Forecasts and metrics are bit-identical in every mode: measurement
    /// flows through per-shard clocks and touches no tenant state.
    pub fn with_telemetry(mut self, mode: TelemetryMode) -> Self {
        self.telemetry_mode = mode;
        self.clock = mode.clock();
        self.slot_hist.clear();
        self.critical_path_ns = 0;
        for shard in &mut self.shards {
            shard.telemetry = ShardTelemetry::new(mode);
        }
        self
    }

    /// Enables between-slots hot-shard rebalancing under `config`: before
    /// each due slot the engine evaluates the per-shard load view (every
    /// hosted tenant's users-per-tick EWMA) and live-migrates tenants chosen
    /// by the policy, carrying their history, index, allocation memo cache
    /// and metrics intact. Forecasts and [`FleetMetrics`] are
    /// bit-identical with rebalancing on or off — the policy reads only
    /// deterministic load counts and migrations move state without mutating
    /// it.
    pub fn with_rebalancer(mut self, config: RebalancerConfig) -> Self {
        self.rebalancer = Some(Rebalancer::new(config));
        self
    }

    /// The active telemetry mode.
    pub fn telemetry_mode(&self) -> TelemetryMode {
        self.telemetry_mode
    }

    /// The shared system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The tick's thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of onboarded tenants.
    pub fn tenants(&self) -> usize {
        self.shards.iter().map(|s| s.tenants.len()).sum()
    }

    /// Every onboarded tenant id, sorted.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = self
            .shards
            .iter()
            .flat_map(|s| s.tenants.iter().map(TenantShard::id))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Index of the next slot to tick.
    pub fn slot_index(&self) -> usize {
        self.slot_index
    }

    /// Records dropped so far because they named an unknown tenant.
    pub fn dropped_records(&self) -> usize {
        self.dropped_records
    }

    /// Dropped records broken down by the unknown tenant they named, sorted
    /// by tenant id.
    pub fn dropped_by_tenant(&self) -> &BTreeMap<TenantId, usize> {
        &self.dropped_by_tenant
    }

    /// The shard index hosting `tenant`.
    pub fn shard_of(&self, tenant: TenantId) -> usize {
        self.router.shard_of_tenant(tenant)
    }

    /// Onboards a tenant: a fresh [`TenantShard`] is placed on the shard the
    /// router assigns. Onboarding mid-run is allowed — the tenant simply has
    /// no history yet.
    ///
    /// # Panics
    ///
    /// Panics if the tenant is already onboarded.
    pub fn add_tenant(&mut self, tenant: TenantId) {
        let shard = &mut self.shards[self.router.shard_of_tenant(tenant)];
        match shard.tenants.binary_search_by_key(&tenant, TenantShard::id) {
            Ok(_) => panic!("tenant {tenant} is already onboarded"),
            Err(at) => shard
                .tenants
                .insert(at, TenantShard::new(tenant, &self.config)),
        }
    }

    /// Onboards every tenant of the iterator.
    pub fn add_tenants(&mut self, tenants: impl IntoIterator<Item = TenantId>) {
        for tenant in tenants {
            self.add_tenant(tenant);
        }
    }

    /// Offboards `tenant`, handing its slot history out (shard hand-off: the
    /// knowledge base moves without copying and can seed another engine or
    /// shard). A placement override the tenant carried is cleared, so a
    /// later onboarding lands on its hash home shard.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownTenant`] when the tenant is not onboarded.
    pub fn extract_tenant(&mut self, tenant: TenantId) -> Result<SlotHistory, FleetError> {
        let now_ms = self.slot_index as f64 * self.config.slot_length_ms;
        let shard = &mut self.shards[self.router.shard_of_tenant(tenant)];
        let at = shard
            .tenants
            .binary_search_by_key(&tenant, TenantShard::id)
            .map_err(|_| FleetError::UnknownTenant { tenant })?;
        let mut state = shard.tenants.remove(at);
        self.router
            .place(tenant, self.router.home_shard_of_tenant(tenant));
        Ok(state.decommission(now_ms))
    }

    /// Runs the rebalancer's periodic check when one is configured and due,
    /// applying the migrations it plans. Control-plane work between slots:
    /// runs before the slot timer starts, so the slot latency histogram
    /// keeps measuring the data path alone.
    fn maybe_rebalance(&mut self) {
        let due = match &self.rebalancer {
            Some(rebalancer) => rebalancer.due(self.slot_index),
            None => return,
        };
        if due {
            self.run_rebalance_check();
        }
    }

    /// Builds the load view, runs one rebalance check and applies the
    /// planned migrations.
    fn run_rebalance_check(&mut self) -> Vec<MigrationRecord> {
        let Some(rebalancer) = self.rebalancer.as_mut() else {
            return Vec::new();
        };
        let slot = self.slot_index;
        let mut loads: Vec<f64> = Vec::with_capacity(self.shards.len());
        let mut movable: Vec<Vec<(TenantId, f64)>> = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let mut total = 0.0;
            let mut tenants = Vec::new();
            for tenant in &shard.tenants {
                total += tenant.load_ewma();
                tenants.push((tenant.id(), tenant.load_ewma()));
            }
            loads.push(total);
            movable.push(tenants);
        }
        let moves = rebalancer.check(slot, &mut loads, &mut movable);
        for record in &moves {
            self.move_tenant_between_shards(record.tenant, record.from, record.to);
        }
        moves
    }

    /// Runs one rebalance check immediately, regardless of warmup or check
    /// interval (the trigger still decides whether anything moves). Returns
    /// the migrations performed, or `None` when no rebalancer is configured.
    pub fn rebalance_now(&mut self) -> Option<Vec<MigrationRecord>> {
        self.rebalancer.as_ref()?;
        Some(self.run_rebalance_check())
    }

    /// Live-migrates `tenant` from `from` to `to`: the whole [`TenantShard`]
    /// moves — slot history, nearest-slot index, standing forecast, warm
    /// allocation memo cache, instance pool and metrics — and
    /// the router's indirection table is updated so subsequent records
    /// follow.
    fn move_tenant_between_shards(&mut self, tenant: TenantId, from: usize, to: usize) {
        // both callers name a tenant `from` hosts and `to` does not: the
        // rebalancer plans off the shards' own tenant lists and moves off
        // the hot shard only, and `migrate_tenant` looks the tenant up
        // first and moves it only to another shard
        let Ok(at) = self.shards[from]
            .tenants
            .binary_search_by_key(&tenant, TenantShard::id)
        else {
            return;
        };
        let state = self.shards[from].tenants.remove(at);
        let destination = &mut self.shards[to];
        let (Ok(at) | Err(at)) = destination
            .tenants
            .binary_search_by_key(&tenant, TenantShard::id);
        destination.tenants.insert(at, state);
        self.router.place(tenant, to);
    }

    /// Explicitly live-migrates `tenant` onto shard `to`, independent of any
    /// rebalancer (migration schedules in tests and operational drains use
    /// this). Migrating a tenant onto the shard it already occupies is a
    /// no-op. Forecasts and metrics are unaffected: the tenant's state moves
    /// intact and the router's indirection table keeps its records routing
    /// to it.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidShard`] when `to` is out of range;
    /// [`FleetError::UnknownTenant`] when the tenant is not onboarded.
    pub fn migrate_tenant(&mut self, tenant: TenantId, to: usize) -> Result<(), FleetError> {
        if to >= self.shards.len() {
            return Err(FleetError::InvalidShard {
                shard: to,
                shards: self.shards.len(),
            });
        }
        let from = self.router.shard_of_tenant(tenant);
        self.shards[from]
            .tenants
            .binary_search_by_key(&tenant, TenantShard::id)
            .map_err(|_| FleetError::UnknownTenant { tenant })?;
        if from != to {
            self.move_tenant_between_shards(tenant, from, to);
        }
        Ok(())
    }

    /// Number of tenants currently placed away from their hash home shard.
    pub fn displaced_tenants(&self) -> usize {
        self.router.displaced_tenants()
    }

    /// Ticks one provisioning slot on a batch of arrival records: appends
    /// every record to its tenant's slot builder through the builder's lane
    /// (one pass over the batch), then runs every shard's
    /// build→predict→allocate→bill cycle in parallel. Records naming
    /// unknown tenants are counted in
    /// [`FleetEngine::dropped_records`], and against the shard the router
    /// names for the tenant. This is the single
    /// ingestion primitive every front-end funnels into. When a rebalancer
    /// is configured its periodic check runs first, between slots.
    pub(crate) fn ingest_batch(&mut self, records: &[SlotRecord]) {
        self.maybe_rebalance();
        let timer = StageTimer::start(&mut self.clock);
        let slot_index = self.slot_index;
        let now_ms = (slot_index + 1) as f64 * self.config.slot_length_ms;
        // every hosted tenant's lane, lent by its builder for this slot:
        // O(tenants) per slot, so no control-plane operation has a table to
        // invalidate, and the one allocation of the slot's scatter
        let mut unknown: BTreeMap<TenantId, usize> = BTreeMap::new();
        let mut lanes = LaneTable::with_capacity(self.tenants());
        for tenant in self.shards.iter_mut().flat_map(|s| s.tenants.iter_mut()) {
            lanes.insert(tenant.id(), tenant.builder.lane());
        }
        for record in records {
            match lanes.get(record.tenant) {
                Some(lane) => lane.assign(record.group, record.user),
                None => *unknown.entry(record.tenant).or_insert(0) += 1,
            }
        }
        drop(lanes);
        // an unknown tenant: charged to the shard it would route to
        for (tenant, count) in unknown {
            self.shards[self.router.shard_of_tenant(tenant)].unrouted += count;
            self.dropped_records += count;
            *self.dropped_by_tenant.entry(tenant).or_insert(0) += count;
        }
        let tick = move |shards: &mut [Shard]| {
            for shard in shards {
                shard.tick(slot_index, now_ms);
            }
        };
        let chunks = shard_chunks(self.shards.len(), self.threads);
        if chunks.len() == 1 {
            tick(&mut self.shards);
        } else {
            // one worker per chunk but the last, which this thread ticks
            // itself; the scope joins every worker and re-raises a worker's
            // panic
            let workers = chunks.len() - 1;
            std::thread::scope(|scope| {
                let mut rest = self.shards.as_mut_slice();
                for chunk in chunks.take(workers) {
                    let (head, tail) = rest.split_at_mut(chunk.len());
                    rest = tail;
                    scope.spawn(move || tick(head));
                }
                tick(rest);
            });
        }
        if self.clock.enabled() {
            let slowest = self
                .shards
                .iter()
                .map(|s| s.telemetry.last_tick_ns())
                .max()
                .unwrap_or(0);
            self.critical_path_ns += slowest;
        }
        self.slot_index += 1;
        let elapsed = timer.stop(&mut self.clock);
        if self.clock.enabled() {
            self.slot_hist.record(elapsed);
        }
    }

    /// Every tenant's standing forecast for the next slot, sorted by tenant
    /// id.
    pub fn forecasts(&self) -> Vec<(TenantId, Option<WorkloadForecast>)> {
        let mut forecasts: Vec<(TenantId, Option<WorkloadForecast>)> = self
            .shards
            .iter()
            .flat_map(|s| s.tenants.iter())
            .map(|t| (t.id(), t.forecast().cloned()))
            .collect();
        forecasts.sort_by_key(|(id, _)| *id);
        forecasts
    }

    /// Read access to one tenant's provisioning state.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantShard> {
        let shard = &self.shards[self.router.shard_of_tenant(tenant)];
        shard
            .tenants
            .binary_search_by_key(&tenant, TenantShard::id)
            .ok()
            .map(|at| &shard.tenants[at])
    }

    /// Aggregates every tenant's accounting into the fleet rollup.
    pub fn metrics(&self) -> FleetMetrics {
        FleetMetrics::aggregate(
            self.shards
                .iter()
                .flat_map(|s| s.tenants.iter())
                .map(|t| t.metrics().clone())
                .collect(),
        )
    }

    /// The engine-wide telemetry snapshot: per-slot ingest latency, stage
    /// histograms merged over shards (in shard order) and every shard's load
    /// view. Cheap relative to a tick — clones of mostly-small histograms —
    /// but intended for end-of-run reporting, not the per-slot hot path.
    pub fn telemetry(&self) -> FleetTelemetry {
        let mut stages = StageHistograms::default();
        let mut shard_loads = Vec::with_capacity(self.shards.len());
        for (index, shard) in self.shards.iter().enumerate() {
            stages.merge(shard.telemetry.stages());
            shard_loads.push(shard.telemetry.load_snapshot(index, shard.tenants.len()));
        }
        FleetTelemetry {
            mode: self.telemetry_mode,
            slot: self.slot_hist.clone(),
            stages,
            shards: shard_loads,
            rebalance: self.rebalancer.as_ref().map(Rebalancer::snapshot),
            critical_path_ns: self.critical_path_ns,
        }
    }

    /// Assembles the full metrics registry for exposition
    /// ([`mca_telemetry::prometheus_text`] / [`mca_telemetry::json_snapshot`]):
    /// the telemetry histograms and per-shard gauges, the fleet accounting
    /// counters, the summed solver work and the summed predictor scan
    /// statistics.
    pub fn telemetry_registry(&self) -> Registry {
        let mut registry = Registry::new();
        self.telemetry().fill_registry(&mut registry);

        let metrics = self.metrics();
        registry.add_counter("fleet_slots_total", self.slot_index as u64);
        let staged: u64 = self.shards.iter().map(|s| s.telemetry.records()).sum();
        registry.add_counter("fleet_records_total", staged);
        registry.add_counter("fleet_dropped_records_total", self.dropped_records as u64);
        registry.add_counter("fleet_allocations_total", metrics.total_allocations as u64);
        registry.add_counter(
            "fleet_infeasible_allocations_total",
            metrics.total_infeasible as u64,
        );
        registry.add_counter(
            "fleet_alloc_cache_hits_total",
            metrics.total_cache_hits as u64,
        );
        registry.add_counter(
            "fleet_alloc_cache_misses_total",
            metrics.total_cache_misses as u64,
        );
        registry.add_counter(
            "fleet_alloc_cache_evictions_total",
            metrics.total_cache_evictions as u64,
        );
        registry.add_counter(
            "fleet_solver_nodes_total",
            metrics.total_solver_nodes as u64,
        );
        registry.add_counter(
            "fleet_solver_pivots_total",
            metrics.total_solver_pivots as u64,
        );
        registry.add_counter(
            "fleet_solver_phase1_skips_total",
            metrics.total_solver_phase1_skips as u64,
        );
        if let Some(accuracy) = metrics.mean_accuracy {
            registry.set_gauge("fleet_mean_accuracy", accuracy);
        }
        registry.add_counter(
            "fleet_sla_violations_total",
            metrics.total_sla_violations as u64,
        );
        registry.add_counter(
            "fleet_sla_dropped_users_total",
            metrics.total_sla_dropped_users as u64,
        );
        registry.set_gauge("fleet_sla_latency_ms_total", metrics.total_sla_latency_ms);
        registry.set_gauge("fleet_energy_wh_total", metrics.total_energy_wh);
        registry.add_counter(
            "fleet_placement_placed_total",
            metrics.total_placed_instance_slots as u64,
        );
        registry.add_counter(
            "fleet_placement_failures_total",
            metrics.total_placement_failures as u64,
        );

        let predictor = self.predictor_stats();
        registry.add_counter("predictor_queries_total", predictor.queries);
        registry.add_counter(
            "predictor_fast_predictions_total",
            predictor.fast_predictions,
        );
        registry.add_counter("predictor_rings_walked_total", predictor.rings_walked);
        registry.add_counter(
            "predictor_candidates_bounded_total",
            predictor.candidates_bounded,
        );
        registry.add_counter(
            "predictor_candidates_evaluated_total",
            predictor.candidates_evaluated,
        );
        registry.add_counter("predictor_index_builds_total", predictor.index_builds);
        registry.add_counter("predictor_index_rebuilds_total", predictor.index_rebuilds);

        registry.add_counter(
            "fleet_snapshot_bytes_written_total",
            self.snapshot_bytes_written,
        );
        registry.add_counter("fleet_snapshot_bytes_read_total", self.snapshot_bytes_read);
        registry.add_counter("fleet_snapshot_sections_total", self.snapshot_sections);
        registry.add_counter("fleet_snapshot_restores_total", self.snapshot_restores);
        registry
    }

    /// Checks every tenant's standing datacenter placement and surfaces the
    /// first failure as a typed [`FleetError::Placement`] (tenants scanned
    /// in shard order, then tenant-id order — deterministic). Host
    /// exhaustion never panics the tick path: the failing tenant keeps
    /// running degraded (placement cleared, failures counted in its
    /// metrics), and a control plane polls this to decide whether to grow
    /// the host fleet or shed the tenant. Always `Ok` under arithmetic
    /// billing.
    ///
    /// # Errors
    ///
    /// [`FleetError::Placement`] naming the first tenant whose allocation
    /// found no host.
    pub fn placement_health(&self) -> Result<(), FleetError> {
        for shard in &self.shards {
            for tenant in &shard.tenants {
                if let Some(error) = tenant.placement_error() {
                    return Err(FleetError::Placement {
                        tenant: tenant.id(),
                        error: *error,
                    });
                }
            }
        }
        Ok(())
    }

    /// The summed scan statistics of every hosted predictor.
    pub fn predictor_stats(&self) -> PredictorStatsSnapshot {
        let mut total = PredictorStatsSnapshot::default();
        for shard in &self.shards {
            for tenant in &shard.tenants {
                total.merge(&tenant.predictor().stats());
            }
        }
        total
    }

    /// Appends a durable checkpoint of the engine to `out`: a versioned,
    /// CRC-guarded section stream carrying the router's indirection table,
    /// the rebalancer, every shard's telemetry and every tenant's full tick
    /// state (knowledge base, index, memo cache in FIFO order, standing
    /// forecast, pool, billing backend and metrics). An
    /// engine restored from these bytes with the same [`SystemConfig`] and
    /// driven over the same records produces bit-identical forecasts,
    /// [`FleetMetrics`] and logical-clock telemetry at any thread count.
    ///
    /// Checkpoints are taken **between slots** — after an ingest returns and
    /// before the next one — so the slot builders are empty by construction
    /// and never travel on the wire; their frames are speed hints, and a
    /// restored engine's tenants start without one. The [`SystemConfig`]
    /// itself is not serialized; restore receives it from the caller, the
    /// same way [`FleetEngine::new`] does.
    ///
    /// Every section is encoded straight into `out`, behind whatever it
    /// already holds, so a caller that keeps the buffer (clearing it between
    /// checkpoints) checkpoints without allocating for the stream. Writing
    /// the bytes to a file or socket is the caller's.
    ///
    /// # Errors
    ///
    /// None arise: appending to a `Vec` cannot fail and no engine section
    /// carries the reserved end tag. The `Result` is the codec's.
    pub fn checkpoint(&mut self, out: &mut Vec<u8>) -> Result<SnapshotStats, SnapshotError> {
        let mut writer = SnapshotWriter::new(out)?;
        self.write_sections(&mut writer)?;
        let stats = writer.finish()?;
        self.note_checkpoint(&stats);
        Ok(stats)
    }

    /// Writes the engine's sections into an already-open writer — the shared
    /// body of [`FleetEngine::checkpoint`] and the driver checkpoint, which
    /// appends its own cursor section before finishing the stream.
    pub(crate) fn write_sections(
        &self,
        writer: &mut SnapshotWriter<'_>,
    ) -> Result<(), SnapshotError> {
        debug_assert!(
            self.shards
                .iter()
                .all(|s| s.tenants.iter().all(|t| t.builder.is_empty())),
            "checkpoints are taken between slots"
        );
        writer.section(SECTION_META, |out| {
            self.threads.encode(out);
            self.slot_index.encode(out);
            self.shards.len().encode(out);
            // a fingerprint of the configuration the checkpoint was taken
            // under, so restore can reject a disagreeing one instead of
            // mis-resuming
            self.config.slot_length_ms.encode(out);
            self.config.groups.ids().encode(out);
        })?;
        writer.encode_section(SECTION_ROUTER, &self.router)?;
        writer.section(SECTION_ENGINE, |out| {
            self.dropped_records.encode(out);
            self.dropped_by_tenant.encode(out);
            self.telemetry_mode.encode(out);
            self.clock.encode(out);
            self.slot_hist.encode(out);
            self.critical_path_ns.encode(out);
        })?;
        writer.encode_section(SECTION_REBALANCER, &self.rebalancer)?;
        for shard in &self.shards {
            writer.section(SECTION_SHARD, |out| {
                shard.telemetry.encode(out);
                shard.tenants.len().encode(out);
                for tenant in &shard.tenants {
                    tenant.encode_state(out);
                }
            })?;
        }
        Ok(())
    }

    /// Credits a finished checkpoint to the engine's snapshot counters.
    pub(crate) fn note_checkpoint(&mut self, stats: &SnapshotStats) {
        self.snapshot_bytes_written += stats.bytes;
        self.snapshot_sections += u64::from(stats.sections);
    }

    /// Credits a finished restore to the engine's snapshot counters.
    pub(crate) fn note_restore(&mut self, stats: &SnapshotStats) {
        self.snapshot_bytes_read = stats.bytes;
        self.snapshot_sections = u64::from(stats.sections);
        self.snapshot_restores = 1;
    }

    /// Rebuilds an engine from [`FleetEngine::checkpoint`] bytes and the
    /// shared system configuration. The restored engine resumes at the
    /// checkpoint's slot index with the checkpoint's thread count; driving
    /// it over the remaining records reproduces the uninterrupted run bit
    /// for bit (wall-clock telemetry excepted — monotonic clocks restart at
    /// a fresh epoch).
    ///
    /// Reads one stream off the front of `*source`, decoding the sections
    /// where they lie, and on success leaves `*source` just past the
    /// stream's end marker, so streams written back to back restore one
    /// after the other from one slice. On error `*source` is left as it
    /// was.
    ///
    /// # Errors
    ///
    /// Every corruption is a typed [`SnapshotError`]: truncation, a flipped
    /// byte (CRC), a wrong or future format version, a configuration that
    /// disagrees with the checkpoint's fingerprint, or internally
    /// inconsistent state (a tenant on the wrong shard, an unsorted shard,
    /// a router override out of range).
    pub fn restore(source: &mut &[u8], config: &SystemConfig) -> Result<Self, SnapshotError> {
        let bytes = *source;
        let mut reader = SnapshotReader::new(bytes)?;
        let mut engine = Self::read_sections(&mut reader, config)?;
        let stats = reader.finish()?;
        *source = &bytes[stats.bytes as usize..];
        engine.note_restore(&stats);
        Ok(engine)
    }

    /// Reads the engine's sections from an already-open reader — the shared
    /// body of [`FleetEngine::restore`] and the driver restore, which reads
    /// its own cursor section before finishing the stream. Snapshot counters
    /// are left zeroed; the caller credits them via
    /// [`FleetEngine::note_restore`] once the stream is finished.
    pub(crate) fn read_sections(
        reader: &mut SnapshotReader<'_>,
        config: &SystemConfig,
    ) -> Result<Self, SnapshotError> {
        let mut cur = Cursor::new(reader.payload(SECTION_META)?);
        let threads = usize::decode(&mut cur)?;
        let slot_index = usize::decode(&mut cur)?;
        let shard_count = usize::decode(&mut cur)?;
        let slot_length_ms = f64::decode(&mut cur)?;
        let group_ids = Vec::<mca_offload::AccelerationGroupId>::decode(&mut cur)?;
        if !cur.is_empty() {
            return Err(SnapshotError::Malformed {
                context: "trailing bytes in the meta section",
            });
        }
        if shard_count == 0 {
            return Err(SnapshotError::Malformed {
                context: "engine with no shards",
            });
        }
        if slot_length_ms.to_bits() != config.slot_length_ms.to_bits()
            || group_ids != config.groups.ids()
        {
            return Err(SnapshotError::Malformed {
                context: "restore configuration disagrees with the checkpoint",
            });
        }
        let router: ShardRouter = reader.decode_section(SECTION_ROUTER)?;
        if router.shards() != shard_count {
            return Err(SnapshotError::Malformed {
                context: "router shard count out of step with the engine",
            });
        }
        let mut cur = Cursor::new(reader.payload(SECTION_ENGINE)?);
        let dropped_records = usize::decode(&mut cur)?;
        let dropped_by_tenant = BTreeMap::<TenantId, usize>::decode(&mut cur)?;
        let telemetry_mode = TelemetryMode::decode(&mut cur)?;
        let clock = TelemetryClock::decode(&mut cur)?;
        let slot_hist = LatencyHistogram::decode(&mut cur)?;
        let critical_path_ns = u64::decode(&mut cur)?;
        if !cur.is_empty() {
            return Err(SnapshotError::Malformed {
                context: "trailing bytes in the engine section",
            });
        }
        let rebalancer: Option<Rebalancer> = reader.decode_section(SECTION_REBALANCER)?;
        let mut shards = Vec::with_capacity(shard_count.min(4096));
        for index in 0..shard_count {
            let mut cur = Cursor::new(reader.payload(SECTION_SHARD)?);
            let telemetry = ShardTelemetry::decode(&mut cur)?;
            let tenant_count = usize::decode(&mut cur)?;
            let mut tenants = Vec::with_capacity(tenant_count.min(4096));
            for _ in 0..tenant_count {
                tenants.push(TenantShard::decode_state(&mut cur, config)?);
            }
            if !cur.is_empty() {
                return Err(SnapshotError::Malformed {
                    context: "trailing bytes in a shard section",
                });
            }
            if tenants.windows(2).any(|pair| pair[0].id() >= pair[1].id()) {
                return Err(SnapshotError::Malformed {
                    context: "shard tenants out of id order",
                });
            }
            // every tenant must sit where the restored router routes it, so
            // no tenant can be hosted on two shards
            if tenants
                .iter()
                .any(|tenant| router.shard_of_tenant(tenant.id()) != index)
            {
                return Err(SnapshotError::Malformed {
                    context: "tenant hosted away from its routed shard",
                });
            }
            shards.push(Shard::new(tenants, telemetry));
        }
        Ok(Self {
            config: config.clone(),
            router,
            shards,
            threads: threads.max(1),
            slot_index,
            dropped_records,
            dropped_by_tenant,
            telemetry_mode,
            clock,
            slot_hist,
            rebalancer,
            critical_path_ns,
            snapshot_bytes_written: 0,
            snapshot_bytes_read: 0,
            snapshot_sections: 0,
            snapshot_restores: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_offload::{AccelerationGroupId, UserId};

    fn config() -> SystemConfig {
        SystemConfig::paper_three_groups().with_history_window(32)
    }

    fn records(tenants: u32, users: u32) -> Vec<SlotRecord> {
        // interleave tenants, the way concurrent arrivals reach a front-end
        (0..users)
            .flat_map(|u| {
                (0..tenants).map(move |t| {
                    SlotRecord::new(
                        TenantId(t),
                        AccelerationGroupId((u % 3 + 1) as u8),
                        UserId(t * 1000 + u),
                    )
                })
            })
            .collect()
    }

    #[test]
    fn tick_slot_serves_every_tenant_and_advances_the_clock() {
        let mut engine = FleetEngine::new(config(), 4, 1);
        engine.add_tenants((0..6).map(TenantId));
        assert_eq!(engine.tenants(), 6);
        assert_eq!(engine.shard_count(), 4);

        engine.ingest_batch(&records(6, 8));
        engine.ingest_batch(&records(6, 8));
        assert_eq!(engine.slot_index(), 2);
        assert_eq!(engine.dropped_records(), 0);

        let metrics = engine.metrics();
        assert_eq!(metrics.tenants, 6);
        assert_eq!(metrics.slots, 2);
        assert_eq!(metrics.total_allocations, 12, "one per tenant per slot");
        assert!(metrics.total_cost > 0.0);
        // identical consecutive slots score perfect accuracy
        assert!((metrics.mean_accuracy.unwrap() - 1.0).abs() < 1e-12);
        let forecasts = engine.forecasts();
        assert_eq!(forecasts.len(), 6);
        assert!(forecasts.iter().all(|(_, f)| f.is_some()));
    }

    /// One slot's cost at `threads` threads, from the per-shard record
    /// counts: the engine ticks each [`shard_chunks`] range on one thread,
    /// and the slot ends when the range with the most records does.
    fn projected_slot_cost(per_shard: &[u64], threads: usize) -> u64 {
        shard_chunks(per_shard.len(), threads)
            .map(|chunk| per_shard[chunk].iter().sum())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn projected_slot_model_mirrors_the_pool_chunking() {
        // 5 shards at 2 threads: chunks [0..3], [3..5]
        assert_eq!(shard_chunks(5, 2).collect::<Vec<_>>(), [0..3, 3..5]);
        assert_eq!(projected_slot_cost(&[5, 1, 1, 4, 4], 2), 8);
        // more threads than shards: one shard per worker = critical path
        assert_eq!(projected_slot_cost(&[5, 1, 1], 8), 5);
        // one thread: the full serial sum
        assert_eq!(projected_slot_cost(&[5, 1, 1], 1), 7);
    }

    /// Drives a Zipf fleet (`tenants` tenants, s = 0.8, the heaviest
    /// `max_users` strong) on 7 shards under static hash placement and under
    /// a rebalancer that fires at 10 % over the mean after 8 slots, in
    /// lockstep for `slots` slots. Asserts that the two fleets' forecasts
    /// agree after every slot and their rollups at the end. Returns the
    /// projected work of each, each slot's heaviest [`shard_chunks`] range
    /// at 4 threads summed over the drive, and the rebalancer's snapshot.
    fn zipf_projected_work(
        tenants: usize,
        max_users: usize,
        slots: usize,
    ) -> (u64, u64, crate::RebalanceSnapshot) {
        let config = SystemConfig::paper_three_groups()
            .with_history_window(168)
            .with_allocation_policy(mca_core::AllocationPolicy::GreedyCheapest);
        let mix =
            mca_workload::TenantMix::zipf(tenants, max_users, 0.8, config.groups.ids(), 20170605);
        let drive = |mut engine: FleetEngine| {
            engine.add_tenants(mix.tenant_ids());
            crate::FleetDriver::new(engine).with_mix(&mix).unwrap()
        };
        let rebalancer = RebalancerConfig::default()
            .with_ratio(1.1)
            .with_warmup_slots(8);
        let mut fleets = [
            drive(FleetEngine::new(config.clone(), 7, 20170605)),
            drive(FleetEngine::new(config, 7, 20170605).with_rebalancer(rebalancer)),
        ];
        let mut work = [0u64; 2];
        let mut seen = [[0u64; 7]; 2];
        for slot in 0..slots {
            for ((fleet, work), seen) in fleets.iter_mut().zip(&mut work).zip(&mut seen) {
                fleet.step().unwrap();
                // the slot's records per shard: deltas of the cumulative counts
                let per_shard: Vec<u64> = fleet
                    .engine()
                    .telemetry()
                    .shards
                    .iter()
                    .zip(seen.iter_mut())
                    .map(|(shard, seen)| shard.records - std::mem::replace(seen, shard.records))
                    .collect();
                *work += projected_slot_cost(&per_shard, 4);
            }
            let [fixed, rebalanced] = fleets.each_ref().map(|f| f.engine().forecasts());
            assert_eq!(fixed, rebalanced, "slot {slot}");
        }
        let [fixed, rebalanced] = fleets.each_ref().map(crate::FleetDriver::engine);
        assert_eq!(fixed.metrics(), rebalanced.metrics());
        (work[0], work[1], rebalanced.telemetry().rebalance.unwrap())
    }

    #[test]
    fn rebalancing_a_zipf_fleet_halves_its_projected_critical_path() {
        // counts, not clocks: the same figures on every machine and run (a
        // shard tick is tens of microseconds, within scheduler jitter of its
        // neighbours; `fleet.engine.critical_path_share` on `fleet_elastic`
        // is the measured view of the same imbalance)
        let (fixed, rebalanced, snapshot) = zipf_projected_work(16, 300, 120);
        assert!(snapshot.migrations > 0, "the skew must trigger moves");
        assert_eq!((fixed, rebalanced), (101_640, 54_420));
        let ratio = fixed as f64 / rebalanced as f64;
        assert!(ratio >= 1.5, "static / rebalanced work {ratio:.3}");
    }

    #[test]
    fn skewed_run_rebalances_without_perturbing_forecasts() {
        // a few slots past the warm-up: the rebalancer moves tenants, and
        // the drive compares both fleets' forecasts every slot
        let slots = 30;
        let (fixed, rebalanced, snapshot) = zipf_projected_work(8, 60, slots);
        assert!(snapshot.migrations > 0, "the Zipf skew must trigger moves");
        // the projected model counts records: every slot of either arm has some
        assert!(fixed >= slots as u64 && rebalanced >= slots as u64);
    }

    #[test]
    fn shard_chunks_cover_the_range_in_order_longer_chunks_first() {
        for (len, threads) in [(10, 3), (3, 8), (0, 4), (7, 1), (16, 4)] {
            let chunks: Vec<Range<usize>> = shard_chunks(len, threads).collect();
            assert_eq!(chunks.len(), threads.clamp(1, len.max(1)));
            let mut next = 0;
            for chunk in &chunks {
                assert_eq!(chunk.start, next, "contiguous ({len}, {threads})");
                next = chunk.end;
            }
            assert_eq!(next, len, "covers 0..{len}");
            let sizes: Vec<usize> = chunks.iter().map(Range::len).collect();
            assert!(sizes.windows(2).all(|pair| pair[0] >= pair[1]));
            assert!(sizes[0] - sizes[sizes.len() - 1] <= 1);
        }
    }

    #[test]
    fn the_thread_count_is_at_least_one_and_may_exceed_the_shards() {
        assert_eq!(
            FleetEngine::new(config(), 2, 1).with_threads(0).threads(),
            1
        );

        // more threads than shards: one shard per worker, same answers
        let run = |threads: usize| {
            let mut engine = FleetEngine::new(config(), 3, 1).with_threads(threads);
            engine.add_tenants((0..5).map(TenantId));
            engine.ingest_batch(&records(5, 6));
            engine.ingest_batch(&records(5, 6));
            (engine.metrics(), engine.forecasts())
        };
        assert_eq!(run(8), run(1));

        // no tenant hosted: every shard still ticks, every record is dropped
        let mut empty = FleetEngine::new(config(), 4, 1).with_threads(2);
        empty.ingest_batch(&records(2, 3));
        assert_eq!(empty.slot_index(), 1);
        assert_eq!(empty.dropped_records(), 6);
        assert!(empty.telemetry().shards.iter().all(|s| s.ticks == 1));
    }

    #[test]
    fn unknown_tenant_records_are_counted_not_served() {
        let mut engine = FleetEngine::new(config(), 2, 1);
        engine.add_tenant(TenantId(0));
        let mut batch = records(1, 4);
        batch.push(SlotRecord::new(
            TenantId(99),
            AccelerationGroupId(1),
            UserId(1),
        ));
        engine.ingest_batch(&batch);
        assert_eq!(engine.dropped_records(), 1);
        assert_eq!(engine.dropped_by_tenant().get(&TenantId(99)), Some(&1));
        assert_eq!(engine.metrics().tenants, 1);
    }

    #[test]
    fn stage_histogram_counts_follow_the_tick_arithmetic() {
        let mut engine = FleetEngine::new(config(), 2, 1).with_telemetry(TelemetryMode::Logical);
        engine.add_tenants((0..3).map(TenantId));
        for _ in 0..4 {
            engine.ingest_batch(&records(3, 6));
        }
        let telemetry = engine.telemetry();
        let metrics = engine.metrics();
        assert_eq!(telemetry.mode, TelemetryMode::Logical);
        assert_eq!(telemetry.slot.count(), 4, "one sample per slot tick");
        assert_eq!(telemetry.stages.tick.count(), 2 * 4, "one per shard-slot");
        assert_eq!(
            telemetry.stages.windowing.count(),
            3 * 4,
            "one per tenant-tick"
        );
        assert_eq!(telemetry.stages.predict.count(), 3 * 4);
        assert_eq!(
            telemetry.stages.allocate.count() as usize,
            metrics.total_allocations + metrics.total_infeasible,
            "one per produced forecast"
        );
        assert_eq!(
            telemetry.stages.bill.count() as usize,
            metrics.total_allocations,
            "one per successful allocation"
        );
        assert_eq!(telemetry.shards.len(), 2);
        let staged: u64 = telemetry.shards.iter().map(|s| s.records).sum();
        assert_eq!(staged, 4 * 18, "every record lands on exactly one shard");
        assert_eq!(telemetry.shards.iter().map(|s| s.tenants).sum::<usize>(), 3);
        assert!(telemetry.shards.iter().all(|s| s.ticks == 4));
    }

    #[test]
    fn disabled_telemetry_records_nothing_but_still_counts_load() {
        let mut engine = FleetEngine::new(config(), 2, 1).with_telemetry(TelemetryMode::Disabled);
        engine.add_tenants((0..2).map(TenantId));
        engine.ingest_batch(&records(2, 5));
        let telemetry = engine.telemetry();
        assert_eq!(telemetry.slot.count(), 0);
        assert_eq!(telemetry.stages.total_samples(), 0);
        let staged: u64 = telemetry.shards.iter().map(|s| s.records).sum();
        assert_eq!(staged, 10, "load accounting runs in every mode");
        assert!(telemetry.shards.iter().any(|s| s.load_ewma > 0.0));
    }

    #[test]
    fn telemetry_registry_exposes_counters_gauges_and_histograms() {
        let mut engine = FleetEngine::new(config(), 2, 1).with_telemetry(TelemetryMode::Logical);
        engine.add_tenants((0..3).map(TenantId));
        for _ in 0..3 {
            engine.ingest_batch(&records(3, 4));
        }
        let metrics = engine.metrics();
        let registry = engine.telemetry_registry();
        assert_eq!(registry.counter("fleet_slots_total"), Some(3));
        assert_eq!(registry.counter("fleet_records_total"), Some(3 * 12));
        assert_eq!(
            registry.counter("fleet_allocations_total"),
            Some(metrics.total_allocations as u64)
        );
        assert_eq!(
            registry.counter("fleet_alloc_cache_misses_total"),
            Some(metrics.total_cache_misses as u64)
        );
        assert!(
            registry.counter("fleet_solver_nodes_total").unwrap() > 0,
            "the ILP solves did measurable work"
        );
        let queries = registry.counter("predictor_queries_total").unwrap();
        let fast = registry
            .counter("predictor_fast_predictions_total")
            .unwrap();
        assert_eq!(
            queries + fast,
            3 * 3,
            "every tenant-tick predicted, by scan or by fast path"
        );
        assert!(registry.gauge("fleet_mean_accuracy").is_some());
        assert!(registry.gauge("fleet_shard_0_load_ewma").is_some());
        assert_eq!(registry.histogram("fleet_slot_tick_ns").unwrap().count(), 3);
        // both exposition formats serialize the registry, and the JSON
        // snapshot round-trips through the bundled parser
        let text = mca_telemetry::prometheus_text(&registry);
        assert!(text.contains("fleet_slot_tick_ns"));
        let snapshot = mca_telemetry::json_snapshot(&registry);
        let parsed = mca_telemetry::json::parse(&snapshot).expect("snapshot is valid JSON");
        assert_eq!(
            parsed.get("version").and_then(|v| v.as_u64()),
            Some(mca_telemetry::SNAPSHOT_VERSION)
        );
    }

    #[test]
    fn datacenter_registry_families_and_placement_health() {
        use mca_cloudsim::{DatacenterConfig, PlacementKind};
        // arithmetic engines expose the new families at zero and stay healthy
        let mut plain = FleetEngine::new(config(), 2, 1);
        plain.add_tenants((0..2).map(TenantId));
        plain.ingest_batch(&records(2, 4));
        let registry = plain.telemetry_registry();
        assert_eq!(registry.counter("fleet_sla_violations_total"), Some(0));
        assert_eq!(registry.counter("fleet_placement_placed_total"), Some(0));
        assert_eq!(registry.gauge("fleet_energy_wh_total"), Some(0.0));
        assert!(plain.placement_health().is_ok());

        // a datacenter engine populates the families from its rollups
        let dc_config = config().with_datacenter(
            DatacenterConfig::paper_default().with_placement(PlacementKind::BestFit),
        );
        let mut engine = FleetEngine::new(dc_config, 2, 1);
        engine.add_tenants((0..2).map(TenantId));
        for _ in 0..3 {
            engine.ingest_batch(&records(2, 4));
        }
        let metrics = engine.metrics();
        assert!(metrics.total_placed_instance_slots > 0);
        assert!(metrics.total_energy_wh > 0.0);
        assert_eq!(metrics.total_placement_failures, 0);
        let registry = engine.telemetry_registry();
        assert_eq!(
            registry.counter("fleet_placement_placed_total"),
            Some(metrics.total_placed_instance_slots as u64)
        );
        assert_eq!(
            registry.counter("fleet_sla_violations_total"),
            Some(metrics.total_sla_violations as u64)
        );
        assert_eq!(
            registry.gauge("fleet_energy_wh_total"),
            Some(metrics.total_energy_wh)
        );
        assert!(engine.placement_health().is_ok());

        // starved hosts: placements fail, ticks keep running, health reports it
        let starved =
            config().with_datacenter(DatacenterConfig::paper_default().with_hosts(1, 1, 0.5));
        let mut engine = FleetEngine::new(starved, 2, 1);
        engine.add_tenants((0..2).map(TenantId));
        engine.ingest_batch(&records(2, 4));
        let err = engine.placement_health().unwrap_err();
        assert!(matches!(err, FleetError::Placement { .. }));
        assert!(err.to_string().contains("placement failed"));
        assert!(engine.metrics().total_placement_failures > 0);
    }

    #[test]
    fn extract_tenant_hands_off_its_history() {
        let mut engine = FleetEngine::new(config(), 3, 9);
        engine.add_tenants((0..4).map(TenantId));
        for _ in 0..3 {
            engine.ingest_batch(&records(4, 5));
        }
        let history = engine.extract_tenant(TenantId(2)).expect("tenant exists");
        assert_eq!(history.len(), 3);
        assert_eq!(engine.tenants(), 3);
        assert!(engine.tenant(TenantId(2)).is_none());
        assert_eq!(
            engine.extract_tenant(TenantId(2)).unwrap_err(),
            FleetError::UnknownTenant {
                tenant: TenantId(2)
            }
        );
        // the remaining tenants keep ticking
        engine.ingest_batch(&records(4, 5));
        assert_eq!(engine.dropped_records(), 5, "tenant 2's records now drop");
    }

    #[test]
    fn extracting_a_displaced_tenant_clears_its_placement() {
        let mut engine = FleetEngine::new(config(), 3, 9);
        engine.add_tenants((0..4).map(TenantId));
        let tenant = TenantId(2);
        let home = engine.shard_of(tenant);
        engine.migrate_tenant(tenant, (home + 1) % 3).unwrap();
        assert_eq!(engine.displaced_tenants(), 1);

        engine.extract_tenant(tenant).expect("tenant exists");
        assert_eq!(engine.displaced_tenants(), 0, "no override outlives it");
        engine.add_tenant(tenant);
        assert_eq!(engine.shard_of(tenant), home, "re-onboarding lands home");
        assert!(engine.tenant(tenant).is_some());
    }

    #[test]
    #[should_panic(expected = "already onboarded")]
    fn double_onboarding_panics() {
        let mut engine = FleetEngine::new(config(), 2, 1);
        engine.add_tenant(TenantId(1));
        engine.add_tenant(TenantId(1));
    }

    #[test]
    fn tenant_ids_lists_every_tenant_once() {
        let mut engine = FleetEngine::new(config(), 3, 1);
        engine.add_tenants([TenantId(4), TenantId(1), TenantId(2)]);
        let away = (engine.shard_of(TenantId(2)) + 1) % 3;
        engine.migrate_tenant(TenantId(2), away).unwrap();
        assert_eq!(engine.tenants(), 3);
        assert_eq!(
            engine.tenant_ids(),
            vec![TenantId(1), TenantId(2), TenantId(4)]
        );
    }

    #[test]
    fn migrate_tenant_carries_state_and_keeps_metrics_placement_invariant() {
        let mut migrated = FleetEngine::new(config(), 3, 9);
        migrated.add_tenants((0..4).map(TenantId));
        let mut control = FleetEngine::new(config(), 3, 9);
        control.add_tenants((0..4).map(TenantId));
        for _ in 0..3 {
            migrated.ingest_batch(&records(4, 5));
            control.ingest_batch(&records(4, 5));
        }
        let tenant = TenantId(2);
        let home = migrated.shard_of(tenant);
        let (forecast, history_len, cached) = {
            let before = migrated.tenant(tenant).unwrap();
            (
                before.forecast().cloned(),
                before.predictor().history().len(),
                before.cached_allocations(),
            )
        };
        assert!(forecast.is_some() && history_len == 3 && cached > 0);

        let away = (home + 1) % 3;
        migrated.migrate_tenant(tenant, away).unwrap();
        assert_eq!(migrated.shard_of(tenant), away);
        assert_eq!(migrated.displaced_tenants(), 1);
        let after = migrated.tenant(tenant).unwrap();
        assert_eq!(after.forecast().cloned(), forecast, "forecast survives");
        assert_eq!(after.predictor().history().len(), history_len);
        assert_eq!(after.cached_allocations(), cached, "warm cache survives");

        for _ in 0..3 {
            migrated.ingest_batch(&records(4, 5));
            control.ingest_batch(&records(4, 5));
        }
        assert_eq!(migrated.dropped_records(), 0, "records follow the move");
        assert_eq!(migrated.metrics(), control.metrics());
        assert_eq!(migrated.forecasts(), control.forecasts());
    }

    #[test]
    fn migrate_tenant_rejects_bad_targets() {
        let mut engine = FleetEngine::new(config(), 2, 1);
        engine.add_tenant(TenantId(0));
        assert_eq!(
            engine.migrate_tenant(TenantId(0), 5).unwrap_err(),
            FleetError::InvalidShard {
                shard: 5,
                shards: 2
            }
        );
        assert_eq!(
            engine.migrate_tenant(TenantId(9), 1).unwrap_err(),
            FleetError::UnknownTenant {
                tenant: TenantId(9)
            }
        );
        let home = engine.shard_of(TenantId(0));
        engine.migrate_tenant(TenantId(0), home).unwrap();
        assert_eq!(engine.displaced_tenants(), 0, "migrating home is a no-op");
    }

    #[test]
    fn rebalance_now_moves_load_off_the_hot_shard() {
        let mut engine = FleetEngine::new(config(), 2, 1).with_rebalancer(
            RebalancerConfig::default()
                .with_ratio(1.0)
                .with_max_moves_per_check(2),
        );
        // pin the skew by construction: three heavy tenants on shard 0,
        // three light ones on shard 1, whichever ids hash there
        let on_zero: Vec<TenantId> = (0..60u32)
            .map(TenantId)
            .filter(|&t| engine.shard_of(t) == 0)
            .take(3)
            .collect();
        let on_one: Vec<TenantId> = (0..60u32)
            .map(TenantId)
            .filter(|&t| engine.shard_of(t) == 1)
            .take(3)
            .collect();
        engine.add_tenants(on_zero.iter().chain(&on_one).copied());
        let batch = || {
            let mut records = Vec::new();
            for &t in &on_zero {
                for u in 0..40u32 {
                    records.push(SlotRecord::new(
                        t,
                        AccelerationGroupId((u % 3 + 1) as u8),
                        UserId(t.0 * 1000 + u),
                    ));
                }
            }
            for &t in &on_one {
                for u in 0..2u32 {
                    records.push(SlotRecord::new(
                        t,
                        AccelerationGroupId(1),
                        UserId(t.0 * 1000 + u),
                    ));
                }
            }
            records
        };
        // four slots stay inside the default warmup: no automatic check yet
        for _ in 0..4 {
            engine.ingest_batch(&batch());
        }

        let forecasts_before = engine.forecasts();
        let moves = engine.rebalance_now().expect("a rebalancer is configured");
        assert!(!moves.is_empty(), "the 120:6 skew must trigger a move");
        assert!(moves.iter().all(|m| m.from == 0 && m.to == 1));
        assert!(engine.displaced_tenants() > 0);
        assert_eq!(
            engine.forecasts(),
            forecasts_before,
            "rebalancing moves state without mutating it"
        );
        let snapshot = engine.telemetry().rebalance.unwrap();
        assert_eq!(snapshot.checks, 1);
        assert_eq!(snapshot.triggers, 1);
        assert_eq!(snapshot.migrations, moves.len() as u64);
        assert!(snapshot.last_ratio > 1.0);
        assert!(snapshot.loads_before[0] > snapshot.loads_after[0]);

        // records keep finding their tenants after the move
        engine.ingest_batch(&batch());
        assert_eq!(engine.dropped_records(), 0);
        assert!(engine.telemetry().critical_path_ns > 0);
    }
}
