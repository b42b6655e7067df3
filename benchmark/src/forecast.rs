//! The forecast workloads: the predictor used as a read-mostly query
//! service. A closed loop with one client issues one `predict` per round
//! with a fresh probe, and every fourth round a new slot is observed, so
//! the cost of keeping the knowledge base (and its index) current sits
//! beside the cost of querying it. No fleet, LP or billing code runs.
//!
//! The fleet path never reaches this code: `observe_and_predict` answers
//! every fleet forecast from its equality shortcut, so these are the only
//! workloads in which the nearest-slot scans and the index run at all.

use crate::loadgen::ForecastGen;
use crate::report::{mb_per_s, ns_between as ns, Rep, RESTORES_PER_REP};
use crate::stats::Digest;
use crate::trace::Trace;
use mca_core::{IndexPolicy, TimeSlot, WorkloadPredictor};
use mca_offload::AccelerationGroupId;
use mca_snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

const GROUPS: u8 = 3;
const SLOT_LENGTH_MS: f64 = 3_600_000.0;
/// A new slot is observed after every this many queries.
const OBSERVE_EVERY: usize = 4;
/// Share of probes that revisit a random old epoch; the rest resemble the
/// next slot.
const REVISIT_SHARE: f64 = 0.3;
/// Queries answered before measuring starts, timed as set-up: they grow the
/// predictor's lazily sized scratch buffers.
const WARMUP_QUERIES: usize = 100;
/// Section tag of the predictor in the service's checkpoint stream.
const SECTION_PREDICTOR: u16 = 0x0100;
/// Spans a traced round records at most: the round, generate, predict,
/// observe.
const SPANS_PER_ROUND: usize = 4;

/// A forecast workload. The sizes are frozen, like the fleet workloads'.
#[derive(Debug, Clone)]
pub struct ForecastSpec {
    /// Workload name.
    pub name: &'static str,
    /// Users per group at the day's mean.
    pub users_per_group: usize,
    /// Slots observed before measuring.
    pub history_slots: usize,
    /// Queries per repetition.
    pub rounds: usize,
    /// Queries per repetition that are also answered by the naive
    /// reference scan (outside the timed spans).
    pub naive_checks: usize,
}

impl ForecastSpec {
    /// A long history grown slot by slot: far above the index threshold, so
    /// queries walk the index's rings, mostly long after its last rebuild.
    pub fn indexed() -> Self {
        Self {
            name: "forecast_indexed",
            users_per_group: 48,
            history_slots: 100_000,
            rounds: 1_000,
            naive_checks: 2,
        }
    }

    /// A short history of large slots: below the 4,096-slot threshold, so
    /// queries take the serial pruned scan.
    pub fn linear() -> Self {
        Self {
            name: "forecast_linear",
            users_per_group: 200,
            history_slots: 3_000,
            rounds: 2_000,
            naive_checks: 10,
        }
    }

    /// The same workload at another size.
    #[cfg(test)]
    pub fn resized(mut self, history_slots: usize, rounds: usize) -> Self {
        self.history_slots = history_slots;
        self.rounds = rounds;
        self
    }

    /// The sizes, for the environment stamp.
    pub fn sizes(&self) -> String {
        format!(
            "{GROUPS} groups x {} users, {} slots of history, {WARMUP_QUERIES} warm-up + {} measured \
             queries per repetition, one observe per {OBSERVE_EVERY} queries, {REVISIT_SHARE} of \
             probes revisit an old epoch",
            self.users_per_group, self.history_slots, self.rounds
        )
    }
}

fn checkpoint(predictor: &WorkloadPredictor, out: &mut Vec<u8>) -> Result<(), SnapshotError> {
    let mut writer = SnapshotWriter::new(out)?;
    writer.encode_section(SECTION_PREDICTOR, predictor)?;
    writer.finish().map(|_| ())
}

fn restore(bytes: &[u8]) -> Result<WorkloadPredictor, SnapshotError> {
    let mut reader = SnapshotReader::new(bytes)?;
    let predictor = reader.decode_section(SECTION_PREDICTOR)?;
    reader.finish().map(|_| predictor)
}

/// Runs one repetition on a freshly grown predictor.
pub fn run_rep(spec: &ForecastSpec, seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let groups: Vec<AccelerationGroupId> = (1..=GROUPS).map(AccelerationGroupId).collect();
    let mut gen = ForecastGen::new(groups.clone(), spec.users_per_group, seed);
    let history: Vec<TimeSlot> = (0..spec.history_slots).map(|i| gen.slot(i, i)).collect();

    let start = Instant::now();
    let mut predictor =
        WorkloadPredictor::new(groups, SLOT_LENGTH_MS).with_index_policy(IndexPolicy::indexed());
    for slot in history {
        predictor.observe_slot(slot);
    }
    rep.setup_ns = start.elapsed().as_nanos() as u64;

    let rounds = WARMUP_QUERIES + spec.rounds;
    let mut trace = traced.then(|| Trace::with_capacity(rounds * SPANS_PER_ROUND));
    let mut before = predictor.stats();
    let mut digest = Digest::default();
    let mut next = spec.history_slots;
    let mut forecast_users = 0u64;
    let (mut gen_ns, mut probe_records) = (0u64, 0u64);
    let check_every = spec.rounds / spec.naive_checks.max(1);

    for round in 0..rounds {
        let warming = round < WARMUP_QUERIES;
        if round == WARMUP_QUERIES {
            before = predictor.stats();
        }
        let generate = Instant::now();
        let epoch = if gen.rng().gen_bool(REVISIT_SHARE) {
            gen.rng().gen_range(0..next)
        } else {
            next
        };
        let probe = gen.slot(next, epoch);
        let new_slot = ((round + 1) % OBSERVE_EVERY == 0).then(|| gen.slot(next, next));
        let query = Instant::now();
        let answer = predictor.predict(black_box(&probe));
        let answered = Instant::now();

        if warming {
            rep.setup_ns += ns(query, answered);
        } else {
            rep.service_ns.push(ns(query, answered));
            rep.records += probe.total_users() as u64;
        }
        probe_records += probe.total_users() as u64;
        gen_ns += ns(generate, query);
        rep.check(answer.is_ok(), || {
            format!("round {round}: predict failed: {answer:?}")
        });
        if let Ok(forecast) = &answer {
            digest.forecast(forecast);
            forecast_users += forecast.total() as u64;
            if spec.naive_checks > 0 && !warming && round % check_every == check_every / 2 {
                let naive = predictor.predict_naive(&probe);
                rep.check(naive.as_ref().ok() == Some(forecast), || {
                    format!("round {round}: predict differs from the naive reference scan")
                });
            }
        }

        let mut observed = None;
        if let Some(slot) = new_slot {
            let users = slot.total_users() as u64;
            let start = Instant::now();
            predictor.observe_slot(slot);
            let end = Instant::now();
            if warming {
                rep.setup_ns += ns(start, end);
            } else {
                rep.other_ns.push(ns(start, end));
                rep.records += users;
            }
            rep.attempted += 1;
            next += 1;
            observed = Some((start, end));
        }
        if let Some(trace) = trace.as_mut() {
            let op = round as u32;
            let end = observed.map_or(answered, |(_, end)| end);
            let root = trace.record("round", generate, end, None, op);
            trace.record("loadgen.generate", generate, query, Some(root), op);
            trace.record("core.predictor.predict", query, answered, Some(root), op);
            if let Some((start, end)) = observed {
                trace.record("core.predictor.observe", start, end, Some(root), op);
            }
        }
    }

    let after = predictor.stats();

    // the service's durable state is its knowledge base
    let mut bytes = Vec::new();
    let start = Instant::now();
    let written = checkpoint(&predictor, &mut bytes);
    rep.checkpoint_ns.push(start.elapsed().as_nanos() as u64);
    rep.check(written.is_ok(), || {
        format!("checkpoint failed: {written:?}")
    });
    let probe = gen.slot(next, next);
    for _ in 0..RESTORES_PER_REP {
        let start = Instant::now();
        let restored = restore(&bytes);
        rep.restore_ns.push(start.elapsed().as_nanos() as u64);
        rep.check(
            restored
                .as_ref()
                .is_ok_and(|r| *r == predictor && r.predict(&probe) == predictor.predict(&probe)),
            || "the restored predictor differs from the live one".to_string(),
        );
    }

    digest.word(predictor.history().len() as u64);
    rep.digest = digest.value();
    rep.sim = vec![
        ("sim.forecast_users", forecast_users as f64),
        ("sim.history_slots", predictor.history().len() as f64),
    ];

    if let Some(trace) = trace {
        let queries = (after.queries - before.queries) as f64;
        let per_query = |after: u64, before: u64| (after - before) as f64 / queries.max(1.0);
        let mean_us = |samples: &[u64]| {
            samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64 / 1e3
        };
        let rounds = rounds as f64;
        let l = &mut rep.layers;
        l.insert("loadgen.gen_us_per_op", gen_ns as f64 / rounds / 1e3);
        l.insert("loadgen.records_per_op", probe_records as f64 / rounds);
        l.insert("core.predictor.queries", queries);
        l.insert(
            "core.predictor.fast_predictions",
            after.fast_predictions as f64,
        );
        l.insert("core.predictor.query_us", mean_us(&rep.service_ns));
        l.insert(
            "core.index.rings_per_query",
            per_query(after.rings_walked, before.rings_walked),
        );
        l.insert(
            "core.index.bounded_per_query",
            per_query(after.candidates_bounded, before.candidates_bounded),
        );
        l.insert(
            "core.predictor.evaluated_per_query",
            per_query(after.candidates_evaluated, before.candidates_evaluated),
        );
        l.insert("core.index.rebuilds", after.index_rebuilds as f64);
        l.insert("core.predictor.observe_us", mean_us(&rep.other_ns));
        l.insert(
            "core.predictor.observe_max_us",
            rep.other_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3,
        );
        l.insert("snapshot.checkpoint_bytes", bytes.len() as f64);
        l.insert(
            "snapshot.encode_mb_per_s",
            mb_per_s(bytes.len(), &rep.checkpoint_ns),
        );
        l.insert(
            "snapshot.restore_mb_per_s",
            mb_per_s(bytes.len(), &rep.restore_ns),
        );
        rep.trace = Some(trace);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_indexed_service_scans_and_passes_every_check() {
        // 5,000 slots: above the 4,096-slot threshold, so the index answers
        let spec = ForecastSpec::indexed().resized(5_000, 40);
        let rep = run_rep(&spec, 42, true);
        assert_eq!(rep.failed, 0, "{:?}", rep.messages);
        assert_eq!(rep.service_ns.len(), 40);
        assert_eq!(rep.layers["core.predictor.queries"], 40.0);
        assert!(rep.layers["core.index.rings_per_query"] > 0.0);
        assert_eq!(rep.layers["core.predictor.fast_predictions"], 0.0);
        assert_eq!(rep.sim[1], ("sim.history_slots", 5_035.0));
        assert_eq!(
            rep.trace.unwrap().totals()["core.predictor.observe"].count,
            35
        );
    }

    #[test]
    fn a_small_linear_service_never_touches_the_index_and_repeats_per_seed() {
        let spec = ForecastSpec::linear().resized(300, 40);
        let traced = run_rep(&spec, 7, true);
        assert_eq!(traced.failed, 0, "{:?}", traced.messages);
        assert_eq!(traced.layers["core.index.rings_per_query"], 0.0);
        assert!(traced.layers["core.predictor.evaluated_per_query"] > 0.0);
        let untraced = run_rep(&spec, 7, false);
        assert_eq!(untraced.signature(), traced.signature());
        assert_ne!(untraced.signature(), run_rep(&spec, 8, false).signature());
    }
}
