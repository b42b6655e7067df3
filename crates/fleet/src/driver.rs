//! The streaming ingestion driver: one front-end for every workload shape.
//!
//! [`FleetDriver`] owns a [`FleetEngine`] and a set of [`RecordSource`]s.
//! Each [`FleetDriver::step`] pulls one [`crate::SourceBatch`] per live source (in
//! registration order), concatenates the records into the slot's batch and
//! runs the engine's predict→allocate→bill tick — exactly the batch a
//! caller would have built by hand, which a [`crate::SlotBatchSource`]
//! replays through the same step. Sources that raise their end-of-stream
//! marker stop being polled; misuse (a source for an unknown tenant, two
//! sources for one tenant, a bound source producing another tenant's
//! records) surfaces as a typed [`FleetError`] instead of a panic.

use crate::engine::FleetEngine;
use crate::error::FleetError;
use crate::ingest::SlotRecord;
use crate::metrics::FleetMetrics;
use crate::source::{RecordSource, TenantMixSource};
use crate::telemetry::FleetTelemetry;
use mca_core::{SystemConfig, WorkloadForecast};
use mca_offload::TenantId;
use mca_snapshot::{
    Cursor, Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotStats, SnapshotWriter,
};
use mca_workload::TenantMix;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

/// The driver's own checkpoint section, appended after the engine sections.
pub(crate) const SECTION_DRIVER: u16 = 0x0006;

/// One registered source and its driving state.
struct DriverSource {
    /// The tenant the source is bound to (`None` for a shared, multi-tenant
    /// source such as a replay batch list).
    tenant: Option<TenantId>,
    source: Box<dyn RecordSource>,
    exhausted: bool,
}

/// What a drive accomplished: the rollup an operator dashboard would show
/// for the session, plus the ingestion accounting the old batch API had no
/// home for.
///
/// Equality compares the *semantic* outcome — forecasts, metrics and the
/// ingestion accounting — and deliberately ignores the [`FleetTelemetry`]
/// section: under the default monotonic clock two identical runs measure
/// different wall times, and the determinism suite compares reports across
/// telemetry modes.
#[derive(Debug, Clone)]
pub struct DriveReport {
    /// Slots this driver ticked.
    pub slots: usize,
    /// Every tenant's standing forecast for the next slot, sorted by tenant
    /// id (user-sharded tenants appear once, combined).
    pub forecasts: Vec<(TenantId, Option<WorkloadForecast>)>,
    /// The fleet-wide metrics rollup.
    pub metrics: FleetMetrics,
    /// Records ingested through the driver's sources.
    pub records: usize,
    /// Records sources dropped because they arrived after their slot was
    /// ticked (late events on windower-backed live streams).
    pub late_records: usize,
    /// The late records broken down by tenant (bound sources attribute to
    /// their tenant; shared stream sources attribute by each dropped
    /// record's tag).
    pub late_by_tenant: BTreeMap<TenantId, usize>,
    /// Records the engine dropped because they named an unknown tenant
    /// (engine-lifetime counter; includes pre-driver ticks on the same
    /// engine).
    pub dropped_records: usize,
    /// The dropped records broken down by the unknown tenant they named
    /// (engine-lifetime, like [`DriveReport::dropped_records`]).
    pub dropped_by_tenant: BTreeMap<TenantId, usize>,
    /// Sources that have raised their end-of-stream marker.
    pub exhausted_sources: usize,
    /// Sources registered in total.
    pub total_sources: usize,
    /// The engine's telemetry snapshot: per-slot tick latency, per-stage
    /// histograms and per-shard load. Ignored by `==`.
    pub telemetry: FleetTelemetry,
}

impl PartialEq for DriveReport {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
            && self.forecasts == other.forecasts
            && self.metrics == other.metrics
            && self.records == other.records
            && self.late_records == other.late_records
            && self.late_by_tenant == other.late_by_tenant
            && self.dropped_records == other.dropped_records
            && self.dropped_by_tenant == other.dropped_by_tenant
            && self.exhausted_sources == other.exhausted_sources
            && self.total_sources == other.total_sources
    }
}

/// A driving session over a [`FleetEngine`]: multiplexes [`RecordSource`]s
/// and advances the provisioning clock slot by slot.
///
/// ```
/// use mca_core::SystemConfig;
/// use mca_fleet::{FleetDriver, FleetEngine};
/// use mca_workload::TenantMix;
///
/// let config = SystemConfig::paper_three_groups().with_history_window(32);
/// let mix = TenantMix::heterogeneous(6, 12, config.groups.ids(), 7);
/// let mut engine = FleetEngine::new(config, 3, 7);
/// engine.add_tenants(mix.tenant_ids());
///
/// let mut driver = FleetDriver::new(engine).with_mix(&mix).unwrap();
/// let report = driver.run(10).unwrap();
/// assert_eq!(report.slots, 10);
/// assert_eq!(report.metrics.tenants, 6);
/// assert!(report.records > 0);
/// ```
pub struct FleetDriver {
    engine: FleetEngine,
    sources: Vec<DriverSource>,
    /// Tenants with a bound source (duplicate registration guard).
    bound: BTreeSet<TenantId>,
    slots_driven: usize,
    records_ingested: usize,
    late_records: usize,
    late_by_tenant: BTreeMap<TenantId, usize>,
}

impl FleetDriver {
    /// Wraps an engine (empty source set; `step` ticks empty slots until
    /// sources are registered).
    pub fn new(engine: FleetEngine) -> Self {
        Self {
            engine,
            sources: Vec::new(),
            bound: BTreeSet::new(),
            slots_driven: 0,
            records_ingested: 0,
            late_records: 0,
            late_by_tenant: BTreeMap::new(),
        }
    }

    /// Read access to the driven engine.
    pub fn engine(&self) -> &FleetEngine {
        &self.engine
    }

    /// Mutable access to the engine for mid-drive control-plane operations —
    /// explicit migration schedules ([`FleetEngine::migrate_tenant`]),
    /// on-demand rebalance checks ([`FleetEngine::rebalance_now`]). The
    /// driver's own accounting is untouched; ticking the engine directly
    /// from here would desynchronize the two, so stick to control-plane
    /// calls.
    pub fn engine_mut(&mut self) -> &mut FleetEngine {
        &mut self.engine
    }

    /// Hands the engine back (e.g. to extract tenants after a drive).
    pub fn into_engine(self) -> FleetEngine {
        self.engine
    }

    /// Registers a source bound to `tenant`: every record it produces must
    /// name that tenant ([`FleetError::ForeignRecord`] otherwise, checked at
    /// each step).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownTenant`] when the tenant is not onboarded,
    /// [`FleetError::DuplicateSource`] when the tenant already has a source.
    pub fn add_source(
        &mut self,
        tenant: TenantId,
        source: impl RecordSource + 'static,
    ) -> Result<(), FleetError> {
        if self.engine.tenant(tenant).is_none() {
            return Err(FleetError::UnknownTenant { tenant });
        }
        if !self.bound.insert(tenant) {
            return Err(FleetError::DuplicateSource { tenant });
        }
        self.sources.push(DriverSource {
            tenant: Some(tenant),
            source: Box::new(source),
            exhausted: false,
        });
        Ok(())
    }

    /// Builder form of [`FleetDriver::add_source`].
    pub fn with_source(
        mut self,
        tenant: TenantId,
        source: impl RecordSource + 'static,
    ) -> Result<Self, FleetError> {
        self.add_source(tenant, source)?;
        Ok(self)
    }

    /// Registers a shared (multi-tenant) source — e.g. a replayable batch
    /// list or a live record stream whose records span tenants. Records
    /// naming unknown tenants are dropped and counted by the engine.
    pub fn add_shared_source(&mut self, source: impl RecordSource + 'static) {
        self.sources.push(DriverSource {
            tenant: None,
            source: Box::new(source),
            exhausted: false,
        });
    }

    /// Builder form of [`FleetDriver::add_shared_source`].
    pub fn with_shared_source(mut self, source: impl RecordSource + 'static) -> Self {
        self.add_shared_source(source);
        self
    }

    /// Registers a [`TenantMixSource`] for every onboarded tenant — the
    /// driver equivalent of `FleetEngine::try_tick_mix`, including for
    /// user-sharded tenants (whose generated records route per user like any
    /// other batch). The mix is shared across the per-tenant sources (one
    /// allocation), and every tenant is validated against the mix **before**
    /// any source is registered, so a failed call leaves the driver
    /// unchanged.
    ///
    /// # Errors
    ///
    /// [`FleetError::TenantNotInMix`] when a hosted tenant is missing from
    /// the mix, plus the [`FleetDriver::add_source`] errors.
    pub fn add_mix(&mut self, mix: &TenantMix) -> Result<(), FleetError> {
        let shared = Rc::new(mix.clone());
        let tenants = self.engine.tenant_ids();
        let sources: Vec<TenantMixSource> = tenants
            .iter()
            .map(|&tenant| {
                if self.bound.contains(&tenant) {
                    return Err(FleetError::DuplicateSource { tenant });
                }
                TenantMixSource::from_shared(Rc::clone(&shared), tenant)
            })
            .collect::<Result<_, _>>()?;
        for (tenant, source) in tenants.into_iter().zip(sources) {
            self.add_source(tenant, source)?;
        }
        Ok(())
    }

    /// Builder form of [`FleetDriver::add_mix`]. Prefer [`FleetDriver::add_mix`]
    /// when the engine must survive a configuration error — the builder form
    /// consumes (and on error drops) the driver and its engine.
    pub fn with_mix(mut self, mix: &TenantMix) -> Result<Self, FleetError> {
        self.add_mix(mix)?;
        Ok(self)
    }

    /// Number of registered sources.
    pub fn sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of sources that have not yet raised end-of-stream.
    pub fn live_sources(&self) -> usize {
        self.sources.iter().filter(|s| !s.exhausted).count()
    }

    /// Drives one provisioning slot: polls every live source for the slot's
    /// records, ticks the engine on the concatenated batch, and returns
    /// whether any source is still live.
    ///
    /// The slot always ticks, even on error: a bound source producing
    /// another tenant's records is **quarantined** — its whole batch is
    /// discarded, it stops being polled — and the remaining sources' records
    /// still drive the slot. Every source is therefore polled exactly once
    /// per slot and stays in lockstep with the provisioning clock (stateful
    /// sources never desynchronize on the error path).
    ///
    /// # Errors
    ///
    /// [`FleetError::ForeignRecord`] (after the slot ticked) naming the
    /// first quarantined source's tenants.
    pub fn step(&mut self) -> Result<bool, FleetError> {
        let slot = self.engine.slot_index();
        let mut batch: Vec<SlotRecord> = Vec::new();
        let mut records = 0usize;
        let mut late = 0usize;
        let mut late_by_tenant: BTreeMap<TenantId, usize> = BTreeMap::new();
        let mut first_error: Option<FleetError> = None;
        for entry in &mut self.sources {
            if entry.exhausted {
                continue;
            }
            let produced = entry.source.next_slot(slot);
            late += produced.late;
            match entry.tenant {
                // a bound source's events are all its tenant's, so even late
                // events a source does not break down are attributable
                Some(bound) if produced.late > 0 => {
                    *late_by_tenant.entry(bound).or_insert(0) += produced.late;
                }
                None => {
                    for (&tenant, &count) in &produced.late_by_tenant {
                        *late_by_tenant.entry(tenant).or_insert(0) += count;
                    }
                }
                _ => {}
            }
            if let Some(bound) = entry.tenant {
                if let Some(foreign) = produced.records.iter().find(|r| r.tenant != bound) {
                    entry.exhausted = true;
                    first_error.get_or_insert(FleetError::ForeignRecord {
                        bound,
                        found: foreign.tenant,
                    });
                    continue;
                }
            }
            records += produced.records.len();
            if produced.exhausted {
                entry.exhausted = true;
            }
            if batch.is_empty() {
                // the common single-source slot moves its batch, no copy
                batch = produced.records;
            } else {
                batch.extend(produced.records);
            }
        }
        self.engine.ingest_batch(&batch);
        self.records_ingested += records;
        self.late_records += late;
        for (tenant, count) in late_by_tenant {
            *self.late_by_tenant.entry(tenant).or_insert(0) += count;
        }
        self.slots_driven += 1;
        match first_error {
            Some(error) => Err(error),
            None => Ok(self.sources.iter().any(|s| !s.exhausted)),
        }
    }

    /// Drives exactly `n_slots` slots and reports.
    ///
    /// # Errors
    ///
    /// Propagates the first [`FleetDriver::step`] error.
    pub fn run(&mut self, n_slots: usize) -> Result<DriveReport, FleetError> {
        for _ in 0..n_slots {
            self.step()?;
        }
        Ok(self.report())
    }

    /// Drives until every source has raised end-of-stream, bounded by
    /// `max_slots` (unbounded sources — mixes, open streams — never
    /// exhaust, so the cap keeps the session finite). Reports either way.
    ///
    /// # Errors
    ///
    /// Propagates the first [`FleetDriver::step`] error.
    pub fn run_until_exhausted(&mut self, max_slots: usize) -> Result<DriveReport, FleetError> {
        for _ in 0..max_slots {
            if self.live_sources() == 0 {
                break;
            }
            self.step()?;
        }
        Ok(self.report())
    }

    /// Appends a durable checkpoint of the whole driving session to `out`: every
    /// engine section ([`FleetEngine::checkpoint`]) plus a driver section
    /// carrying the ingestion accounting and one resume cursor per
    /// registered source (replay anchors, RNG stream words, buffered
    /// windower slots, exhaustion flags), in registration order.
    ///
    /// Like the engine's, the checkpoint is taken **between slots** — after
    /// a [`FleetDriver::step`] returns. A driver restored from these bytes
    /// with the same configuration and equivalent sources continues the
    /// session bit for bit.
    ///
    /// # Errors
    ///
    /// None arise, as for [`FleetEngine::checkpoint`].
    pub fn checkpoint(&mut self, out: &mut Vec<u8>) -> Result<SnapshotStats, SnapshotError> {
        let mut writer = SnapshotWriter::new(out)?;
        self.engine.write_sections(&mut writer)?;
        writer.section(SECTION_DRIVER, |out| {
            self.slots_driven.encode(out);
            self.records_ingested.encode(out);
            self.late_records.encode(out);
            self.late_by_tenant.encode(out);
            self.sources.len().encode(out);
            for entry in &self.sources {
                entry.tenant.encode(out);
                entry.exhausted.encode(out);
                // the cursor travels as a `Vec<u8>`: its length prefix is
                // patched once the source has appended the body behind it
                let prefix = out.len();
                0usize.encode(out);
                entry.source.save_cursor(out);
                let len = out.len() - prefix - 8;
                out[prefix..prefix + 8].copy_from_slice(&(len as u64).to_le_bytes());
            }
        })?;
        let stats = writer.finish()?;
        self.engine.note_checkpoint(&stats);
        Ok(stats)
    }

    /// Rebuilds a driving session from [`FleetDriver::checkpoint`] bytes.
    /// Like [`FleetEngine::restore`], it reads one stream off the front of
    /// `*source` and on success leaves `*source` just past its end marker.
    ///
    /// The caller supplies the shared configuration (as for
    /// [`FleetEngine::restore`]) and one **freshly constructed** source per
    /// checkpointed source, in registration order, each paired with the
    /// tenant it was bound to (`None` for shared sources). Sources are
    /// rebuilt from the same underlying data the originals were — the same
    /// trace, mix or channel — and this function loads each one's resume
    /// cursor so the stream continues exactly where the checkpoint left it.
    ///
    /// # Errors
    ///
    /// Every [`FleetEngine::restore`] error, plus [`SnapshotError::Malformed`]
    /// when the supplied sources disagree with the checkpoint: wrong count,
    /// a different tenant binding, a cursor the source rejects, a bound
    /// tenant the engine does not host, or two sources bound to one tenant.
    pub fn restore(
        source: &mut &[u8],
        config: &SystemConfig,
        sources: Vec<(Option<TenantId>, Box<dyn RecordSource>)>,
    ) -> Result<Self, SnapshotError> {
        let bytes = *source;
        let mut reader = SnapshotReader::new(bytes)?;
        let mut engine = FleetEngine::read_sections(&mut reader, config)?;
        let mut cur = Cursor::new(reader.payload(SECTION_DRIVER)?);
        let slots_driven = usize::decode(&mut cur)?;
        let records_ingested = usize::decode(&mut cur)?;
        let late_records = usize::decode(&mut cur)?;
        let late_by_tenant = BTreeMap::<TenantId, usize>::decode(&mut cur)?;
        let source_count = usize::decode(&mut cur)?;
        if source_count != sources.len() {
            return Err(SnapshotError::Malformed {
                context: "restore sources out of step with the checkpoint",
            });
        }
        let mut bound = BTreeSet::new();
        let mut restored: Vec<DriverSource> = Vec::with_capacity(source_count.min(4096));
        for (tenant, mut src) in sources {
            let checkpointed = Option::<TenantId>::decode(&mut cur)?;
            if checkpointed != tenant {
                return Err(SnapshotError::Malformed {
                    context: "restore source bound to a different tenant than the checkpoint",
                });
            }
            let exhausted = bool::decode(&mut cur)?;
            let cursor_len = usize::decode(&mut cur)?;
            let mut source_cur = Cursor::new(cur.take(cursor_len, "source cursor")?);
            src.load_cursor(&mut source_cur)?;
            if !source_cur.is_empty() {
                return Err(SnapshotError::Malformed {
                    context: "trailing bytes in a source cursor",
                });
            }
            if let Some(tenant) = tenant {
                if engine.tenant(tenant).is_none() {
                    return Err(SnapshotError::Malformed {
                        context: "restore source bound to a tenant the engine does not host",
                    });
                }
                if !bound.insert(tenant) {
                    return Err(SnapshotError::Malformed {
                        context: "two restore sources bound to one tenant",
                    });
                }
            }
            restored.push(DriverSource {
                tenant,
                source: src,
                exhausted,
            });
        }
        if !cur.is_empty() {
            return Err(SnapshotError::Malformed {
                context: "trailing bytes in the driver section",
            });
        }
        let stats = reader.finish()?;
        *source = &bytes[stats.bytes as usize..];
        engine.note_restore(&stats);
        Ok(Self {
            engine,
            sources: restored,
            bound,
            slots_driven,
            records_ingested,
            late_records,
            late_by_tenant,
        })
    }

    /// The session report as of now (forecasts, rollup, ingestion
    /// accounting).
    pub fn report(&self) -> DriveReport {
        DriveReport {
            slots: self.slots_driven,
            forecasts: self.engine.forecasts(),
            metrics: self.engine.metrics(),
            records: self.records_ingested,
            late_records: self.late_records,
            late_by_tenant: self.late_by_tenant.clone(),
            dropped_records: self.engine.dropped_records(),
            dropped_by_tenant: self.engine.dropped_by_tenant().clone(),
            exhausted_sources: self.sources.iter().filter(|s| s.exhausted).count(),
            total_sources: self.sources.len(),
            telemetry: self.engine.telemetry(),
        }
    }
}

impl fmt::Debug for FleetDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetDriver")
            .field("tenants", &self.engine.tenants())
            .field("sources", &self.sources.len())
            .field("live_sources", &self.live_sources())
            .field("slots_driven", &self.slots_driven)
            .field("records_ingested", &self.records_ingested)
            .finish()
    }
}
