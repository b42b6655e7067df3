//! Fleet-side telemetry: per-shard stage tracing and the fleet rollup.
//!
//! Every [`crate::FleetEngine`] shard carries a [`ShardTelemetry`]: one
//! [`TelemetryClock`] plus one latency histogram per provisioning stage
//! (windowing → predict → allocate → bill, and the whole shard tick). The
//! engine keeps a matching fleet-level clock for the per-slot ingest
//! latency. Because clocks are *per shard* and stage boundaries are fixed by
//! the deterministic tick loop, a [`TelemetryMode::Logical`] run records
//! bit-identical histograms under any thread count — the determinism suite
//! proves it — while a [`TelemetryMode::Monotonic`] run measures real wall
//! time for benchmarks and dashboards.
//!
//! Nothing here allocates on the hot path: a stage measurement is two clock
//! reads and a counter increment ([`mca_telemetry::LatencyHistogram`]
//! allocates its bucket table once, on the first record), and a disabled
//! shard telemetry is a handful of machine words whose clock reads cost one
//! branch.

use crate::rebalance::RebalanceSnapshot;
use mca_core::{Stage, StageObserver};
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};
use mca_telemetry::{
    LatencyHistogram, LogicalClock, MonotonicClock, Registry, StageTimer, TelemetryClock,
};

/// Smoothing factor of the per-shard load and tick-latency EWMAs: each new
/// slot contributes 1/8, the classic RFC 6298 weighting — heavy enough to
/// follow a load shift within a few slots, light enough to ride out one
/// bursty slot.
const EWMA_ALPHA: f64 = 0.125;

/// How an engine's instrumentation measures time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// No measurements are taken or recorded; the load accounting
    /// (tick/record counts, load EWMA) still runs.
    Disabled,
    /// Wall-clock monotonic stage timing — the default for real runs.
    #[default]
    Monotonic,
    /// Fixed-quantum logical stage timing: histograms become a deterministic
    /// function of the event counts alone, bit-identical across thread
    /// counts and repeats. What the determinism suite and golden tests use.
    Logical,
}

impl TelemetryMode {
    /// A fresh clock measuring in this mode.
    pub(crate) fn clock(self) -> TelemetryClock {
        match self {
            TelemetryMode::Disabled => TelemetryClock::Disabled,
            TelemetryMode::Monotonic => TelemetryClock::Monotonic(MonotonicClock::new()),
            TelemetryMode::Logical => TelemetryClock::Logical(LogicalClock::default()),
        }
    }
}

/// One latency histogram per stage of the provisioning tick.
///
/// Stage counts obey the tick's own arithmetic, which the bench smoke gate
/// asserts: `windowing` and `predict` record once per tenant-tick, `allocate`
/// once per produced forecast, `bill` once per successful allocation, and
/// `tick` once per shard-slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageHistograms {
    /// Building the tenant's observed [`mca_core::TimeSlot`] from the staged
    /// records: reading the frame the records set their bits in, or
    /// sorting and deduplicating the keys outside it. The bits themselves
    /// are set during the engine's scatter, which no stage times.
    pub windowing: LatencyHistogram,
    /// `observe_and_predict`: folding the slot into the knowledge base and
    /// forecasting the next one.
    pub predict: LatencyHistogram,
    /// Serving the allocation for the forecast (memo-cache hit or solve).
    pub allocate: LatencyHistogram,
    /// Billing and applying the allocation to the instance pool.
    pub bill: LatencyHistogram,
    /// The whole shard tick (drain + every tenant's cycle).
    pub tick: LatencyHistogram,
}

impl StageHistograms {
    /// Folds another set of stage histograms into this one.
    pub fn merge(&mut self, other: &StageHistograms) {
        self.windowing.merge(&other.windowing);
        self.predict.merge(&other.predict);
        self.allocate.merge(&other.allocate);
        self.bill.merge(&other.bill);
        self.tick.merge(&other.tick);
    }

    /// Total stage samples across the five histograms.
    pub fn total_samples(&self) -> u64 {
        self.windowing.count()
            + self.predict.count()
            + self.allocate.count()
            + self.bill.count()
            + self.tick.count()
    }
}

/// The instrumentation state one shard carries through its ticks: a private
/// clock (so logical time is deterministic under any thread schedule), the
/// stage histograms, and the shard's load accounting.
#[derive(Debug, Clone)]
pub struct ShardTelemetry {
    clock: TelemetryClock,
    stages: StageHistograms,
    ticks: u64,
    records: u64,
    load_ewma: f64,
    tick_ewma_ns: f64,
    last_tick_ns: u64,
}

impl ShardTelemetry {
    /// Fresh telemetry measuring in `mode`.
    pub fn new(mode: TelemetryMode) -> Self {
        Self {
            clock: mode.clock(),
            stages: StageHistograms::default(),
            ticks: 0,
            records: 0,
            load_ewma: 0.0,
            tick_ewma_ns: 0.0,
            last_tick_ns: 0,
        }
    }

    /// Telemetry that measures nothing. Construction never allocates, so the
    /// un-instrumented tick path can build one per call for free.
    pub fn disabled() -> Self {
        Self::new(TelemetryMode::Disabled)
    }

    /// Whether stage measurements are being recorded.
    pub fn enabled(&self) -> bool {
        self.clock.enabled()
    }

    /// Starts a stage measurement against the shard's clock.
    pub fn start_stage(&mut self) -> StageTimer {
        StageTimer::start(&mut self.clock)
    }

    /// Stops `timer` and records the windowing stage.
    pub fn end_windowing(&mut self, timer: StageTimer) {
        let elapsed = timer.stop(&mut self.clock);
        if self.enabled() {
            self.stages.windowing.record(elapsed);
        }
    }

    /// Closes one shard tick: records the whole-tick latency and folds
    /// `records` into the shard's load accounting. The load EWMA runs in
    /// every mode (it is a deterministic function of the record counts); the
    /// latency EWMA only when measurements are real.
    pub(crate) fn finish_tick(&mut self, records: usize, timer: StageTimer) {
        let elapsed = timer.stop(&mut self.clock);
        self.ticks += 1;
        self.records += records as u64;
        self.load_ewma = ewma(self.load_ewma, records as f64, self.ticks);
        if self.enabled() {
            self.stages.tick.record(elapsed);
            self.tick_ewma_ns = ewma(self.tick_ewma_ns, elapsed as f64, self.ticks);
            self.last_tick_ns = elapsed;
        }
    }

    /// The shard's stage histograms.
    pub fn stages(&self) -> &StageHistograms {
        &self.stages
    }

    /// Shard ticks closed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Records staged to this shard so far (including unknown-tenant drops —
    /// routing and draining them is work the shard did).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Exponentially-weighted moving average of records per tick — the load
    /// signal a rebalancer would watch.
    pub fn load_ewma(&self) -> f64 {
        self.load_ewma
    }

    /// Exponentially-weighted moving average of the shard tick latency in
    /// nanoseconds (0 while disabled).
    pub fn tick_ewma_ns(&self) -> f64 {
        self.tick_ewma_ns
    }

    /// Latency of the most recent shard tick, ns (0 while disabled). What
    /// the engine's critical-path accounting reads per slot.
    pub fn last_tick_ns(&self) -> u64 {
        self.last_tick_ns
    }

    /// The shard's load snapshot.
    pub(crate) fn load_snapshot(&self, shard: usize, tenants: usize) -> ShardLoad {
        ShardLoad {
            shard,
            tenants,
            ticks: self.ticks,
            records: self.records,
            load_ewma: self.load_ewma,
            tick_ewma_ns: self.tick_ewma_ns,
            tick_p99_ns: self.stages.tick.p99(),
            last_tick_ns: self.last_tick_ns,
        }
    }
}

/// The shard's clock watches [`mca_core::ControlLoop::close_slot`]: each
/// stage is two reads of it and one histogram sample, taken inside the loop
/// at the loop's own stage boundaries — so the stage counts are the loop's
/// arithmetic (allocate = allocations + infeasible, bill = allocations) by
/// construction.
impl StageObserver for ShardTelemetry {
    type Mark = StageTimer;

    fn begin(&mut self) -> StageTimer {
        self.start_stage()
    }

    fn end(&mut self, stage: Stage, mark: StageTimer) {
        let elapsed = mark.stop(&mut self.clock);
        if self.enabled() {
            let histogram = match stage {
                Stage::Predict => &mut self.stages.predict,
                Stage::Allocate => &mut self.stages.allocate,
                Stage::Bill => &mut self.stages.bill,
            };
            histogram.record(elapsed);
        }
    }
}

impl Snapshot for TelemetryMode {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            TelemetryMode::Disabled => 0,
            TelemetryMode::Monotonic => 1,
            TelemetryMode::Logical => 2,
        };
        tag.encode(out);
    }
}

impl Restore for TelemetryMode {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        match u8::decode(cur)? {
            0 => Ok(TelemetryMode::Disabled),
            1 => Ok(TelemetryMode::Monotonic),
            2 => Ok(TelemetryMode::Logical),
            _ => Err(SnapshotError::Malformed {
                context: "telemetry mode tag",
            }),
        }
    }
}

impl Snapshot for StageHistograms {
    fn encode(&self, out: &mut Vec<u8>) {
        self.windowing.encode(out);
        self.predict.encode(out);
        self.allocate.encode(out);
        self.bill.encode(out);
        self.tick.encode(out);
    }
}

impl Restore for StageHistograms {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            windowing: LatencyHistogram::decode(cur)?,
            predict: LatencyHistogram::decode(cur)?,
            allocate: LatencyHistogram::decode(cur)?,
            bill: LatencyHistogram::decode(cur)?,
            tick: LatencyHistogram::decode(cur)?,
        })
    }
}

/// The whole instrumentation state travels on the wire — clock included, so
/// a restored [`TelemetryMode::Logical`] run resumes its logical timeline
/// mid-quantum and stays bit-identical with the uninterrupted run. A
/// monotonic clock restores to a fresh epoch: wall-clock histograms resume
/// *counting* exactly but their future samples measure the new process (they
/// are deliberately outside every determinism comparison).
impl Snapshot for ShardTelemetry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.clock.encode(out);
        self.stages.encode(out);
        self.ticks.encode(out);
        self.records.encode(out);
        self.load_ewma.encode(out);
        self.tick_ewma_ns.encode(out);
        self.last_tick_ns.encode(out);
    }
}

impl Restore for ShardTelemetry {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            clock: TelemetryClock::decode(cur)?,
            stages: StageHistograms::decode(cur)?,
            ticks: u64::decode(cur)?,
            records: u64::decode(cur)?,
            load_ewma: f64::decode(cur)?,
            tick_ewma_ns: f64::decode(cur)?,
            last_tick_ns: u64::decode(cur)?,
        })
    }
}

/// First sample seeds the average; later samples fold in at [`EWMA_ALPHA`].
/// Shared with the per-tenant load EWMA in [`crate::TenantShard`] so both
/// load signals smooth identically.
pub(crate) fn ewma(prev: f64, sample: f64, count: u64) -> f64 {
    if count <= 1 {
        sample
    } else {
        EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * prev
    }
}

/// One shard's load view inside a [`FleetTelemetry`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: usize,
    /// Tenants the shard hosts.
    pub tenants: usize,
    /// Shard ticks closed.
    pub ticks: u64,
    /// Records staged to the shard.
    pub records: u64,
    /// EWMA of records per tick.
    pub load_ewma: f64,
    /// EWMA of the shard tick latency, ns (0 while disabled).
    pub tick_ewma_ns: f64,
    /// p99 of the shard tick latency, ns (0 while disabled).
    pub tick_p99_ns: u64,
    /// Latency of the most recent shard tick, ns (0 while disabled).
    pub last_tick_ns: u64,
}

/// The engine-wide telemetry snapshot: per-slot ingest latency, stage
/// histograms merged over the shards (in shard order, so the merge is
/// deterministic), and every shard's load view.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTelemetry {
    /// The mode the engine measured in.
    pub mode: TelemetryMode,
    /// Latency of each full `ingest_batch` slot tick (bucketing + every
    /// shard's parallel tick), measured by the engine's own clock.
    pub slot: LatencyHistogram,
    /// Stage histograms merged across shards.
    pub stages: StageHistograms,
    /// Per-shard load, one entry per shard in shard order.
    pub shards: Vec<ShardLoad>,
    /// Rebalancer activity, when the engine runs one.
    pub rebalance: Option<RebalanceSnapshot>,
    /// Sum over slots of the slowest shard tick of the slot, ns (0 while
    /// stage measurements are disabled). The fleet's serial floor: what the
    /// slot latency would be with one thread per shard.
    pub critical_path_ns: u64,
}

impl FleetTelemetry {
    /// Writes the snapshot's histograms and per-shard gauges into `registry`
    /// under the `fleet_*` namespace.
    pub fn fill_registry(&self, registry: &mut Registry) {
        registry.merge_histogram("fleet_slot_tick_ns", &self.slot);
        registry.merge_histogram("fleet_shard_tick_ns", &self.stages.tick);
        registry.merge_histogram("fleet_stage_windowing_ns", &self.stages.windowing);
        registry.merge_histogram("fleet_stage_predict_ns", &self.stages.predict);
        registry.merge_histogram("fleet_stage_allocate_ns", &self.stages.allocate);
        registry.merge_histogram("fleet_stage_bill_ns", &self.stages.bill);
        for shard in &self.shards {
            registry.set_gauge(
                &format!("fleet_shard_{}_load_ewma", shard.shard),
                shard.load_ewma,
            );
            registry.set_gauge(
                &format!("fleet_shard_{}_tick_ewma_ns", shard.shard),
                shard.tick_ewma_ns,
            );
        }
        registry.add_counter("fleet_critical_path_ns_total", self.critical_path_ns);
        if let Some(rebalance) = &self.rebalance {
            registry.add_counter("fleet_rebalance_checks_total", rebalance.checks);
            registry.add_counter("fleet_rebalance_triggers_total", rebalance.triggers);
            registry.add_counter("fleet_rebalance_migrations_total", rebalance.migrations);
            registry.set_gauge("fleet_rebalance_last_ratio", rebalance.last_ratio);
            for (shard, &load) in rebalance.loads_before.iter().enumerate() {
                registry.set_gauge(&format!("fleet_rebalance_shard_{shard}_load_before"), load);
            }
            for (shard, &load) in rebalance.loads_after.iter().enumerate() {
                registry.set_gauge(&format!("fleet_rebalance_shard_{shard}_load_after"), load);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_counts_load_but_records_no_stage() {
        let mut tel = ShardTelemetry::disabled();
        assert!(!tel.enabled());
        let tick = tel.start_stage();
        let stage = tel.start_stage();
        tel.end(Stage::Predict, stage);
        tel.finish_tick(10, tick);
        assert_eq!(tel.stages().total_samples(), 0, "nothing recorded");
        assert_eq!(tel.ticks(), 1);
        assert_eq!(tel.records(), 10);
        assert_eq!(tel.load_ewma(), 10.0, "first sample seeds the EWMA");
        assert_eq!(tel.tick_ewma_ns(), 0.0);
    }

    #[test]
    fn logical_telemetry_is_a_pure_function_of_the_event_sequence() {
        let run = || {
            let mut tel = ShardTelemetry::new(TelemetryMode::Logical);
            for slot in 0..5 {
                let tick = tel.start_stage();
                for _ in 0..3 {
                    let t = tel.start_stage();
                    tel.end(Stage::Predict, t);
                    let t = tel.start_stage();
                    tel.end(Stage::Allocate, t);
                }
                tel.finish_tick(slot * 2, tick);
            }
            tel
        };
        let a = run();
        let b = run();
        assert_eq!(a.stages(), b.stages());
        assert_eq!(a.load_ewma(), b.load_ewma());
        assert_eq!(a.tick_ewma_ns(), b.tick_ewma_ns());
        assert_eq!(a.stages().predict.count(), 15);
        assert_eq!(a.stages().allocate.count(), 15);
        assert_eq!(a.stages().tick.count(), 5);
        // each stage is exactly one logical quantum
        assert_eq!(a.stages().predict.max(), a.stages().predict.min());
    }

    #[test]
    fn load_ewma_follows_the_classic_alpha() {
        let mut tel = ShardTelemetry::disabled();
        let t = tel.start_stage();
        tel.finish_tick(8, t);
        let t = tel.start_stage();
        tel.finish_tick(16, t);
        let expected = 0.125 * 16.0 + 0.875 * 8.0;
        assert!((tel.load_ewma() - expected).abs() < 1e-12);
    }

    #[test]
    fn fill_registry_exposes_histograms_and_per_shard_gauges() {
        let mut tel = ShardTelemetry::new(TelemetryMode::Logical);
        let tick = tel.start_stage();
        let t = tel.start_stage();
        tel.end_windowing(t);
        tel.finish_tick(4, tick);
        let snapshot = FleetTelemetry {
            mode: TelemetryMode::Logical,
            slot: LatencyHistogram::new(),
            stages: tel.stages().clone(),
            shards: vec![tel.load_snapshot(0, 2)],
            rebalance: None,
            critical_path_ns: 0,
        };
        let mut registry = Registry::new();
        snapshot.fill_registry(&mut registry);
        assert_eq!(
            registry
                .histogram("fleet_stage_windowing_ns")
                .unwrap()
                .count(),
            1
        );
        assert_eq!(registry.gauge("fleet_shard_0_load_ewma"), Some(4.0));
        assert!(registry.gauge("fleet_shard_0_tick_ewma_ns").unwrap() > 0.0);
    }

    #[test]
    fn fill_registry_exposes_rebalancer_activity() {
        let snapshot = FleetTelemetry {
            mode: TelemetryMode::Logical,
            slot: LatencyHistogram::new(),
            stages: StageHistograms::default(),
            shards: Vec::new(),
            rebalance: Some(RebalanceSnapshot {
                checks: 10,
                triggers: 3,
                migrations: 2,
                last_ratio: 1.4,
                loads_before: vec![30.0, 10.0],
                loads_after: vec![20.0, 20.0],
                recent: Vec::new(),
            }),
            critical_path_ns: 7_000,
        };
        let mut registry = Registry::new();
        snapshot.fill_registry(&mut registry);
        assert_eq!(registry.counter("fleet_rebalance_checks_total"), Some(10));
        assert_eq!(registry.counter("fleet_rebalance_triggers_total"), Some(3));
        assert_eq!(
            registry.counter("fleet_rebalance_migrations_total"),
            Some(2)
        );
        assert_eq!(registry.gauge("fleet_rebalance_last_ratio"), Some(1.4));
        assert_eq!(
            registry.gauge("fleet_rebalance_shard_0_load_before"),
            Some(30.0)
        );
        assert_eq!(
            registry.gauge("fleet_rebalance_shard_1_load_after"),
            Some(20.0)
        );
        assert_eq!(
            registry.counter("fleet_critical_path_ns_total"),
            Some(7_000)
        );
    }
}
