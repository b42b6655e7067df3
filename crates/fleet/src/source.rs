//! Record sources: the unified streaming ingestion surface.
//!
//! Every workload shape the fleet can consume — a recorded [`ArrivalTrace`],
//! an SDN-accelerator [`TraceLog`], a synthetic [`TenantMix`], a replayable
//! batch list, a live push stream — is exposed as one trait:
//! [`RecordSource`], a pull-based stream of per-slot [`SourceBatch`]es. The
//! [`crate::FleetDriver`] multiplexes many sources and drives the engine's
//! predict→allocate→bill cycle slot by slot, so recorded, synthetic and live
//! workloads all travel the **same** ingestion path — the only one into the
//! engine.
//!
//! Timestamped sources fold their events into slot batches with
//! [`mca_core::SlotWindower`]: out-of-order events within a slot are
//! tolerated, gaps yield empty slots, boundary events deterministically open
//! the later slot, and events arriving after their slot was ticked are
//! dropped and surfaced as `late` counts in the [`crate::DriveReport`].

use crate::error::FleetError;
use crate::ingest::SlotRecord;
use mca_core::{SlotWindower, TraceLog};
use mca_offload::{AccelerationGroupId, TenantId};
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};
use mca_workload::{ArrivalTrace, TenantMix};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// What one source produced for one provisioning slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceBatch {
    /// The slot's records (tenant-tagged; any order — each tenant's slot is
    /// sorted and deduplicated downstream).
    pub records: Vec<SlotRecord>,
    /// End-of-stream marker: `true` when the source will never produce
    /// another record. The driver stops polling an exhausted source.
    pub exhausted: bool,
    /// Events this source dropped since the previous slot because they
    /// arrived after their slot had already been ticked.
    pub late: usize,
    /// The late events broken down by the tenant each dropped record named
    /// (sums to [`SourceBatch::late`] — every dropped record carries a
    /// tenant tag).
    pub late_by_tenant: BTreeMap<TenantId, usize>,
}

impl SourceBatch {
    /// A batch from a still-live source.
    pub fn live(records: Vec<SlotRecord>) -> Self {
        Self {
            records,
            ..Self::default()
        }
    }

    /// An empty end-of-stream batch.
    pub fn end_of_stream() -> Self {
        Self {
            exhausted: true,
            ..Self::default()
        }
    }
}

/// A source-agnostic stream of per-slot record batches.
///
/// `slot` is the engine's global slot index; the driver calls `next_slot`
/// with consecutive indices starting from the engine's clock at
/// registration. Implementations must be deterministic in the slot sequence
/// alone so a replay reproduces the run bit for bit.
///
/// ```
/// use mca_core::SystemConfig;
/// use mca_fleet::{FleetDriver, FleetEngine, RecordSource, SlotRecord, SourceBatch};
/// use mca_offload::{AccelerationGroupId, TenantId, UserId};
///
/// /// Three users of tenant 0, every slot, for four slots.
/// struct Steady;
/// impl RecordSource for Steady {
///     fn next_slot(&mut self, slot: usize) -> SourceBatch {
///         let records = (0..3)
///             .map(|u| SlotRecord::new(TenantId(0), AccelerationGroupId(1), UserId(u)))
///             .collect();
///         SourceBatch { records, exhausted: slot + 1 >= 4, ..SourceBatch::default() }
///     }
/// }
///
/// let mut engine = FleetEngine::new(SystemConfig::paper_three_groups(), 2, 1);
/// engine.add_tenant(TenantId(0));
/// let mut driver = FleetDriver::new(engine)
///     .with_source(TenantId(0), Steady)
///     .unwrap();
/// let report = driver.run(4).unwrap();
/// assert_eq!(report.metrics.slots, 4);
/// assert_eq!(report.records, 12);
/// ```
pub trait RecordSource {
    /// Produces the records of provisioning slot `slot`.
    fn next_slot(&mut self, slot: usize) -> SourceBatch;

    /// Serializes the source's **resume cursor**: the minimal mutable state
    /// a freshly constructed source over the same underlying data needs to
    /// continue this stream exactly where it stands — a replay anchor, RNG
    /// stream words, buffered windower slots. Sources that are pure
    /// functions of the slot index (the default) write nothing.
    fn save_cursor(&self, _out: &mut Vec<u8>) {}

    /// Restores the cursor written by [`RecordSource::save_cursor`] into a
    /// freshly constructed source over the **same underlying data**. The
    /// default accepts only an empty cursor (the driver rejects trailing
    /// bytes after the load).
    ///
    /// # Errors
    ///
    /// A typed [`SnapshotError`] on truncation or on a cursor that
    /// disagrees with the source it is loaded into.
    fn load_cursor(&mut self, _cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
        Ok(())
    }
}

/// Drains a windower of tenant-tagged records into per-slot batches.
fn drain_windower(mut windower: SlotWindower<SlotRecord>) -> Vec<Vec<SlotRecord>> {
    let mut slots = Vec::new();
    while !windower.is_drained() {
        slots.push(windower.take_next());
    }
    slots
}

/// A precomputed per-slot batch list, **anchored at the first slot it is
/// polled for**: recording slot `i` is served at engine slot `base + i`, so
/// a replay source registered on a pre-ticked engine replays from its own
/// beginning instead of silently losing its head. All replay-shaped sources
/// share this, so they agree on the mid-run-registration contract.
#[derive(Debug, Clone)]
struct ReplaySlots {
    slots: Vec<Vec<SlotRecord>>,
    /// The engine slot the recording's slot 0 was served at (fixed by the
    /// first poll, so replays are deterministic in the slot sequence).
    base: Option<usize>,
}

impl ReplaySlots {
    fn new(slots: Vec<Vec<SlotRecord>>) -> Self {
        Self { slots, base: None }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn next_slot(&mut self, slot: usize) -> SourceBatch {
        let base = *self.base.get_or_insert(slot);
        let index = slot.saturating_sub(base);
        SourceBatch {
            records: self.slots.get(index).cloned().unwrap_or_default(),
            exhausted: index + 1 >= self.slots.len(),
            ..SourceBatch::default()
        }
    }

    /// The cursor is the replay anchor; the slot list itself is rebuilt by
    /// the caller from the original recording, so only its length travels —
    /// as a fingerprint the load can check the replacement against.
    fn save_cursor(&self, out: &mut Vec<u8>) {
        self.slots.len().encode(out);
        self.base.encode(out);
    }

    fn load_cursor(&mut self, cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
        let len = usize::decode(cur)?;
        if len != self.slots.len() {
            return Err(SnapshotError::Malformed {
                context: "replay source length disagrees with the checkpoint",
            });
        }
        self.base = Option::<usize>::decode(cur)?;
        Ok(())
    }
}

/// A [`RecordSource`] replaying a recorded [`ArrivalTrace`] for one tenant.
///
/// Arrivals carry no acceleration group (routing happens downstream of the
/// trace), so every arrival is attributed to `group` — typically the
/// configuration's entry group, where un-promoted users start. Timestamps
/// are windowed into slots of `slot_length_ms` with the shared boundary and
/// gap semantics of [`SlotWindower`]. Replays anchor at the first slot the
/// driver polls, so nothing is lost when the source joins a pre-ticked
/// engine.
#[derive(Debug, Clone)]
pub struct ArrivalTraceSource {
    slots: ReplaySlots,
}

impl ArrivalTraceSource {
    /// Windows `trace` into per-slot batches for `tenant`.
    pub fn new(
        tenant: TenantId,
        trace: &ArrivalTrace,
        slot_length_ms: f64,
        group: AccelerationGroupId,
    ) -> Self {
        let mut windower = SlotWindower::new(slot_length_ms);
        for arrival in trace.iter() {
            windower.push(
                arrival.time_ms,
                SlotRecord::new(tenant, group, arrival.user),
            );
        }
        Self {
            slots: ReplaySlots::new(drain_windower(windower)),
        }
    }

    /// Number of slots the trace spans (0 for an empty trace).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

impl RecordSource for ArrivalTraceSource {
    fn next_slot(&mut self, slot: usize) -> SourceBatch {
        self.slots.next_slot(slot)
    }

    fn save_cursor(&self, out: &mut Vec<u8>) {
        self.slots.save_cursor(out);
    }

    fn load_cursor(&mut self, cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
        self.slots.load_cursor(cur)
    }
}

/// A [`RecordSource`] replaying an SDN-accelerator request log
/// ([`TraceLog`]) for one tenant — the end-to-end path from a recorded
/// `<timestamp, user, group, …>` trace (§IV-A) into the multi-tenant
/// engine. Each record keeps the acceleration group that actually served
/// it. Replays anchor at the first slot the driver polls.
#[derive(Debug, Clone)]
pub struct TraceLogSource {
    slots: ReplaySlots,
}

impl TraceLogSource {
    /// Windows `log` into per-slot batches for `tenant`.
    pub fn new(tenant: TenantId, log: &TraceLog, slot_length_ms: f64) -> Self {
        let mut windower = SlotWindower::new(slot_length_ms);
        for (time_ms, group, user) in log.assignments() {
            windower.push(time_ms, SlotRecord::new(tenant, group, user));
        }
        Self {
            slots: ReplaySlots::new(drain_windower(windower)),
        }
    }

    /// Number of slots the log spans (0 for an empty log).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

impl RecordSource for TraceLogSource {
    fn next_slot(&mut self, slot: usize) -> SourceBatch {
        self.slots.next_slot(slot)
    }

    fn save_cursor(&self, out: &mut Vec<u8>) {
        self.slots.save_cursor(out);
    }

    fn load_cursor(&mut self, cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
        self.slots.load_cursor(cur)
    }
}

/// A [`RecordSource`] generating one tenant's synthetic workload from a
/// [`TenantMix`], drawing churn from the tenant's canonical stream
/// ([`TenantMix::stream_for`]). Never exhausts.
#[derive(Debug, Clone)]
pub struct TenantMixSource {
    /// Shared, not cloned per tenant: a fleet-wide `with_mix` registers one
    /// source per tenant over one mix.
    mix: Rc<TenantMix>,
    tenant: TenantId,
    rng: StdRng,
}

impl TenantMixSource {
    /// Creates the source for `tenant`, seeding the tenant's canonical
    /// stream from the mix.
    ///
    /// # Errors
    ///
    /// [`FleetError::TenantNotInMix`] when the mix does not define `tenant`.
    pub fn new(mix: &TenantMix, tenant: TenantId) -> Result<Self, FleetError> {
        Self::from_shared(Rc::new(mix.clone()), tenant)
    }

    /// Like [`TenantMixSource::new`], but sharing one mix allocation across
    /// many per-tenant sources (what [`crate::FleetDriver::with_mix`] uses).
    pub fn from_shared(mix: Rc<TenantMix>, tenant: TenantId) -> Result<Self, FleetError> {
        if tenant.0 as usize >= mix.tenants() {
            return Err(FleetError::TenantNotInMix {
                tenant,
                mix_tenants: mix.tenants(),
            });
        }
        let rng = mix.stream_for(tenant);
        Ok(Self { mix, tenant, rng })
    }
}

impl RecordSource for TenantMixSource {
    fn next_slot(&mut self, slot: usize) -> SourceBatch {
        let records = self
            .mix
            .slot_records(self.tenant, slot, &mut self.rng)
            .into_iter()
            .map(|(group, user)| SlotRecord::new(self.tenant, group, user))
            .collect();
        SourceBatch::live(records)
    }

    /// The cursor is the tenant's RNG stream position (the mix itself is
    /// immutable shared data the caller reconstructs).
    fn save_cursor(&self, out: &mut Vec<u8>) {
        self.tenant.encode(out);
        self.rng.state().encode(out);
    }

    fn load_cursor(&mut self, cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
        let tenant = TenantId::decode(cur)?;
        if tenant != self.tenant {
            return Err(SnapshotError::Malformed {
                context: "mix source cursor belongs to another tenant",
            });
        }
        self.rng = StdRng::from_state(<[u64; 4]>::decode(cur)?);
        Ok(())
    }
}

/// Shared queue behind [`SlotBatchSource`].
#[derive(Debug, Default)]
struct BatchQueue {
    batches: VecDeque<Vec<SlotRecord>>,
    closed: bool,
}

/// A [`RecordSource`] serving pre-bucketed per-slot record batches — the
/// replay shape (`Vec<Vec<SlotRecord>>`, anchored at the first slot
/// polled) and, through [`SlotBatchSource::channel`], a push-fed live lane:
/// a front-end holds the [`SlotBatchHandle`] and enqueues each slot's batch
/// as it closes, while the driver drains the queue one batch per tick.
/// Batches may span many tenants; a slot with no queued batch yields an
/// empty batch (the stream is live but idle).
#[derive(Debug)]
pub struct SlotBatchSource {
    inner: BatchInner,
}

/// The two serving modes of [`SlotBatchSource`].
#[derive(Debug)]
enum BatchInner {
    /// Closed recording, indexed by slot relative to the first poll.
    Replay(ReplaySlots),
    /// Open push-fed lane, drained one batch per tick.
    Live(Rc<RefCell<BatchQueue>>),
}

/// The producer half of [`SlotBatchSource::channel`].
#[derive(Debug, Clone)]
pub struct SlotBatchHandle {
    queue: Rc<RefCell<BatchQueue>>,
}

impl SlotBatchHandle {
    /// Enqueues the next slot's records.
    pub fn push_slot(&self, records: Vec<SlotRecord>) {
        self.queue.borrow_mut().batches.push_back(records);
    }

    /// Marks the stream finished: once the queue drains, the source reports
    /// end-of-stream.
    pub fn close(&self) {
        self.queue.borrow_mut().closed = true;
    }
}

impl SlotBatchSource {
    /// A closed, replayable source over a recorded batch list: recording
    /// slot `i` serves at the `i`-th slot the driver polls (anchored at the
    /// first poll), and the stream ends with the last batch.
    pub fn new(batches: Vec<Vec<SlotRecord>>) -> Self {
        Self {
            inner: BatchInner::Replay(ReplaySlots::new(batches)),
        }
    }

    /// An open live lane: the returned handle feeds batches in, the source
    /// hands them to the driver one slot at a time.
    pub fn channel() -> (SlotBatchHandle, Self) {
        let queue = Rc::new(RefCell::new(BatchQueue::default()));
        (
            SlotBatchHandle {
                queue: Rc::clone(&queue),
            },
            Self {
                inner: BatchInner::Live(queue),
            },
        )
    }
}

impl RecordSource for SlotBatchSource {
    fn next_slot(&mut self, slot: usize) -> SourceBatch {
        match &mut self.inner {
            BatchInner::Replay(slots) => slots.next_slot(slot),
            BatchInner::Live(queue) => {
                let mut queue = queue.borrow_mut();
                let records = queue.batches.pop_front().unwrap_or_default();
                SourceBatch {
                    records,
                    exhausted: queue.closed && queue.batches.is_empty(),
                    ..SourceBatch::default()
                }
            }
        }
    }

    /// A replay lane saves its anchor; a live lane saves the queued batches
    /// themselves (they exist nowhere else — the producer already moved on).
    fn save_cursor(&self, out: &mut Vec<u8>) {
        match &self.inner {
            BatchInner::Replay(slots) => {
                0u8.encode(out);
                slots.save_cursor(out);
            }
            BatchInner::Live(queue) => {
                1u8.encode(out);
                let queue = queue.borrow();
                queue.batches.encode(out);
                queue.closed.encode(out);
            }
        }
    }

    fn load_cursor(&mut self, cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
        let mode = u8::decode(cur)?;
        match (&mut self.inner, mode) {
            (BatchInner::Replay(slots), 0) => slots.load_cursor(cur),
            (BatchInner::Live(queue), 1) => {
                let batches = VecDeque::<Vec<SlotRecord>>::decode(cur)?;
                let closed = bool::decode(cur)?;
                let mut queue = queue.borrow_mut();
                queue.batches = batches;
                queue.closed = closed;
                Ok(())
            }
            _ => Err(SnapshotError::Malformed {
                context: "slot batch source mode disagrees with the checkpoint",
            }),
        }
    }
}

/// Shared state behind [`StreamSource`].
#[derive(Debug)]
struct StreamQueue {
    windower: SlotWindower<SlotRecord>,
    closed: bool,
    /// Late events already surfaced in an earlier [`SourceBatch`].
    reported_late: usize,
    /// Per-tenant breakdown of late events not yet surfaced (every dropped
    /// record names its tenant, so attribution is exact).
    pending_late_by_tenant: BTreeMap<TenantId, usize>,
}

/// A [`RecordSource`] over a **live record stream**: timestamped records are
/// pushed through a [`StreamHandle`] as they happen (in any order within a
/// slot), and the source windows them into the slot the driver is ticking.
/// Records arriving after their slot was ticked are dropped and surfaced as
/// `late` counts.
#[derive(Debug)]
pub struct StreamSource {
    queue: Rc<RefCell<StreamQueue>>,
}

/// The producer half of [`StreamSource::channel`].
#[derive(Debug, Clone)]
pub struct StreamHandle {
    queue: Rc<RefCell<StreamQueue>>,
}

impl StreamHandle {
    /// Pushes one timestamped record. Returns `false` when the record's slot
    /// was already ticked (it is dropped and counted late against the
    /// record's tenant).
    #[inline]
    pub fn push(&self, time_ms: f64, record: SlotRecord) -> bool {
        let tenant = record.tenant;
        let mut queue = self.queue.borrow_mut();
        let accepted = queue.windower.push(time_ms, record);
        if !accepted {
            *queue.pending_late_by_tenant.entry(tenant).or_insert(0) += 1;
        }
        accepted
    }

    /// Marks the stream finished: once the buffered slots drain, the source
    /// reports end-of-stream.
    pub fn close(&self) {
        self.queue.borrow_mut().closed = true;
    }
}

impl StreamSource {
    /// An open live stream over slots of `slot_length_ms`.
    pub fn channel(slot_length_ms: f64) -> (StreamHandle, Self) {
        let queue = Rc::new(RefCell::new(StreamQueue {
            windower: SlotWindower::new(slot_length_ms),
            closed: false,
            reported_late: 0,
            pending_late_by_tenant: BTreeMap::new(),
        }));
        (
            StreamHandle {
                queue: Rc::clone(&queue),
            },
            Self { queue },
        )
    }
}

impl RecordSource for StreamSource {
    /// The cursor is the whole windower — buffered slots, clock, late
    /// accounting — plus the stream's close flag: records pushed but not
    /// yet ticked exist nowhere else.
    fn save_cursor(&self, out: &mut Vec<u8>) {
        let queue = self.queue.borrow();
        queue.windower.encode(out);
        queue.closed.encode(out);
        queue.reported_late.encode(out);
        queue.pending_late_by_tenant.encode(out);
    }

    fn load_cursor(&mut self, cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
        let windower = SlotWindower::<SlotRecord>::decode(cur)?;
        let closed = bool::decode(cur)?;
        let reported_late = usize::decode(cur)?;
        let pending_late_by_tenant = BTreeMap::<TenantId, usize>::decode(cur)?;
        if reported_late > windower.late_events() {
            return Err(SnapshotError::Malformed {
                context: "stream source reported more late events than it saw",
            });
        }
        let mut queue = self.queue.borrow_mut();
        let slot_length_ms = windower.slot_length_ms();
        if slot_length_ms.to_bits() != queue.windower.slot_length_ms().to_bits() {
            return Err(SnapshotError::Malformed {
                context: "stream source slot length disagrees with the checkpoint",
            });
        }
        queue.windower = windower;
        queue.closed = closed;
        queue.reported_late = reported_late;
        queue.pending_late_by_tenant = pending_late_by_tenant;
        Ok(())
    }

    fn next_slot(&mut self, slot: usize) -> SourceBatch {
        let mut queue = self.queue.borrow_mut();
        // fold every buffered slot up to the requested one into this batch
        // (they are the same provisioning slot from the driver's viewpoint
        // when the source was registered mid-run)
        let mut records = Vec::new();
        while queue.windower.next_slot() <= slot {
            let batch = queue.windower.take_next();
            if records.is_empty() {
                // the common one-slot step moves its batch, no copy
                records = batch;
            } else {
                records.extend(batch);
            }
        }
        let late = queue.windower.late_events() - queue.reported_late;
        queue.reported_late = queue.windower.late_events();
        let late_by_tenant = std::mem::take(&mut queue.pending_late_by_tenant);
        SourceBatch {
            records,
            exhausted: queue.closed && queue.windower.is_drained(),
            late,
            late_by_tenant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_offload::UserId;
    use mca_offload::{TaskKind, TaskSpec};
    use mca_workload::Arrival;

    const GROUP: AccelerationGroupId = AccelerationGroupId(1);

    fn arrival(t: f64, user: u32) -> Arrival {
        Arrival {
            time_ms: t,
            user: UserId(user),
            task: TaskSpec::new(TaskKind::Minimax, 5),
        }
    }

    #[test]
    fn arrival_trace_source_windows_boundaries_gaps_and_short_traces() {
        let trace = ArrivalTrace::new(vec![
            arrival(0.0, 1),     // boundary of slot 0
            arrival(999.0, 2),   // still slot 0
            arrival(1_000.0, 3), // boundary: slot 1
            arrival(3_500.0, 4), // slot 3 — slot 2 is a gap
        ]);
        let mut source = ArrivalTraceSource::new(TenantId(7), &trace, 1_000.0, GROUP);
        assert_eq!(source.slot_count(), 4);
        let slot0 = source.next_slot(0);
        assert_eq!(
            slot0.records,
            vec![
                SlotRecord::new(TenantId(7), GROUP, UserId(1)),
                SlotRecord::new(TenantId(7), GROUP, UserId(2)),
            ]
        );
        assert!(!slot0.exhausted);
        assert_eq!(source.next_slot(1).records.len(), 1);
        let gap = source.next_slot(2);
        assert!(
            gap.records.is_empty() && !gap.exhausted,
            "interior gap slot"
        );
        let last = source.next_slot(3);
        assert_eq!(
            last.records,
            vec![SlotRecord::new(TenantId(7), GROUP, UserId(4))]
        );
        assert!(
            last.exhausted,
            "final slot carries the end-of-stream marker"
        );

        // a trace shorter than one slot is a one-slot stream
        let short = ArrivalTrace::new(vec![arrival(10.0, 1), arrival(20.0, 2)]);
        let mut source = ArrivalTraceSource::new(TenantId(0), &short, 60_000.0, GROUP);
        assert_eq!(source.slot_count(), 1);
        let batch = source.next_slot(0);
        assert_eq!(batch.records.len(), 2);
        assert!(batch.exhausted);

        // an empty trace exhausts immediately
        let mut empty =
            ArrivalTraceSource::new(TenantId(0), &ArrivalTrace::default(), 1_000.0, GROUP);
        let batch = empty.next_slot(0);
        assert!(batch.records.is_empty() && batch.exhausted);
    }

    #[test]
    fn trace_log_source_keeps_serving_groups_and_tolerates_out_of_order() {
        let record = |t: f64, user: u32, group: u8| mca_offload::TraceRecord {
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
        // out of order *within* slot 0 — the windower tolerates it
        let log: TraceLog = vec![
            record(800.0, 2, 2),
            record(100.0, 1, 1),
            record(1_200.0, 3, 3),
        ]
        .into_iter()
        .collect();
        let mut source = TraceLogSource::new(TenantId(4), &log, 1_000.0);
        assert_eq!(source.slot_count(), 2);
        let slot0 = source.next_slot(0);
        assert_eq!(
            slot0.records,
            vec![
                SlotRecord::new(TenantId(4), AccelerationGroupId(2), UserId(2)),
                SlotRecord::new(TenantId(4), AccelerationGroupId(1), UserId(1)),
            ]
        );
        assert!(source.next_slot(1).exhausted);
    }

    #[test]
    fn mix_source_replays_the_canonical_stream_and_rejects_unknown_tenants() {
        let mix = TenantMix::heterogeneous(3, 12, vec![GROUP], 9);
        let mut source = TenantMixSource::new(&mix, TenantId(1)).unwrap();
        let mut rng = mix.stream_for(TenantId(1));
        for slot in 0..8 {
            let expected: Vec<SlotRecord> = mix
                .slot_records(TenantId(1), slot, &mut rng)
                .into_iter()
                .map(|(g, u)| SlotRecord::new(TenantId(1), g, u))
                .collect();
            let batch = source.next_slot(slot);
            assert_eq!(batch.records, expected, "slot {slot}");
            assert!(!batch.exhausted, "a mix never ends");
        }
        assert_eq!(
            TenantMixSource::new(&mix, TenantId(3)).unwrap_err(),
            FleetError::TenantNotInMix {
                tenant: TenantId(3),
                mix_tenants: 3
            }
        );
    }

    #[test]
    fn slot_batch_source_replays_and_streams() {
        let batch = |user: u32| vec![SlotRecord::new(TenantId(0), GROUP, UserId(user))];
        // replay: closed from the start
        let mut replay = SlotBatchSource::new(vec![batch(1), batch(2)]);
        assert!(!replay.next_slot(0).exhausted);
        let last = replay.next_slot(1);
        assert_eq!(last.records, batch(2));
        assert!(last.exhausted);

        // live lane: open until the handle closes it
        let (handle, mut live) = SlotBatchSource::channel();
        handle.push_slot(batch(3));
        let first = live.next_slot(0);
        assert_eq!(first.records, batch(3));
        assert!(!first.exhausted);
        let idle = live.next_slot(1);
        assert!(idle.records.is_empty() && !idle.exhausted, "idle, not over");
        handle.push_slot(batch(4));
        handle.close();
        assert!(live.next_slot(2).exhausted);
    }

    #[test]
    fn stream_source_windows_live_pushes_and_counts_late_records() {
        let (handle, mut source) = StreamSource::channel(1_000.0);
        let rec = |user: u32| SlotRecord::new(TenantId(0), GROUP, UserId(user));
        assert!(handle.push(700.0, rec(2)));
        assert!(handle.push(100.0, rec(1)), "out of order within the slot");
        let batch = source.next_slot(0);
        assert_eq!(batch.records, vec![rec(2), rec(1)]);
        assert_eq!(batch.late, 0);

        // slot 0 was ticked: a straggler for it is late
        assert!(!handle.push(900.0, rec(3)));
        assert!(handle.push(1_500.0, rec(4)));
        let batch = source.next_slot(1);
        assert_eq!(batch.records, vec![rec(4)]);
        assert_eq!(batch.late, 1, "the straggler is surfaced once");
        assert_eq!(batch.late_by_tenant.get(&TenantId(0)), Some(&1));
        assert!(!batch.exhausted);

        handle.close();
        let last = source.next_slot(2);
        assert!(last.records.is_empty() && last.exhausted);
        assert_eq!(last.late, 0, "late counts are not re-reported");
    }
}
