//! Workload prediction (§IV-B).
//!
//! Given the current time slot `t_h`, the model computes the knowledge base
//! `P = {p_k}` of distances between `t_h` and every historical slot, and
//! approximates the next slot `t'_h` by the historical slot with the minimum
//! distance. Because the prediction is always a slot that has actually been
//! observed, "dramatically growing loads are only ever matched to the largest
//! load seen in the near history", which makes the subsequent allocation
//! conservative (§IV-B-2).
//!
//! Besides the paper's strategy, three ablation strategies are provided:
//! predicting the *successor* of the nearest slot, repeating the last
//! observed slot, and using the per-group mean of the history.
//!
//! # Pruned nearest-neighbour search
//!
//! The nearest-slot scan is the hottest loop of the closed-loop system, so
//! [`WorkloadPredictor::predict`] does not evaluate the full distance for
//! every candidate. The predictor caches a *count signature* (the per-group
//! user count) and an *id-range signature* (the per-group `(min, max)` user
//! id) for every historical slot; because a per-group set edit distance is
//! at least the difference of the two user counts, and because two sorted
//! deduplicated runs cannot share more ids than their ranges overlap, the
//! signatures give an `O(groups)` lower bound on the slot distance that
//! also refutes drifted-apart user populations outright. Candidates whose
//! bound cannot beat the best distance found so far are skipped without
//! touching their user lists, and the remaining candidates are evaluated
//! with [`slot_distance_bounded`] capped at best-so-far. The result is
//! exactly the slot the naive linear scan would pick (first minimum in
//! chronological order); [`WorkloadPredictor::predict_naive`] retains that
//! scan as the reference and benchmark baseline.
//!
//! # Block-summary tree
//!
//! Under an [`IndexPolicy`] that asks for it, a history past the policy's
//! threshold is searched through the per-block signature envelopes of
//! [`crate::index`] instead: whole stretches of history are refuted by one
//! bound each, and only the surviving blocks are scanned as above.

use crate::distance::{slot_distance, slot_distance_bounded, slot_distance_naive};
use crate::error::CoreError;
use crate::index::{
    group_bound, range_misalignment, range_overlap, IndexPolicy, SummaryTree, FANOUT,
};
use crate::timeslot::{HistoryColumns, SlotHistory, TimeSlot};
use mca_offload::AccelerationGroupId;
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// How the predictor turns the slot history into a forecast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictionStrategy {
    /// The paper's strategy: the forecast is the historical slot closest to
    /// the current slot under the edit distance.
    #[default]
    NearestSlot,
    /// Forecast the slot that *followed* the nearest historical slot
    /// (classic nearest-neighbour sequence prediction).
    SuccessorOfNearest,
    /// Forecast that the next slot equals the current slot (persistence
    /// baseline).
    LastValue,
    /// Forecast the per-group mean load over the whole history (mean
    /// baseline; loses user identities).
    MeanOfHistory,
}

/// The `(min, max)` id range of one sorted user run (`(u32::MAX, 0)` for an
/// empty run).
fn id_range(users: &[mca_offload::UserId]) -> (u32, u32) {
    match (users.first(), users.last()) {
        (Some(first), Some(last)) => (first.0, last.0),
        _ => (u32::MAX, 0),
    }
}

/// Appends `slot`'s count signature and id ranges over `groups` to the
/// flat caches, in one pass over the slot's runs: a run's count is its
/// length, its range its first and last user.
fn push_signature(
    groups: &[AccelerationGroupId],
    slot: &TimeSlot,
    signatures: &mut Vec<usize>,
    id_ranges: &mut Vec<(u32, u32)>,
) {
    slot.for_each_group(groups, |users| {
        signatures.push(users.len());
        id_ranges.push(id_range(users));
    });
}

/// Lower bound on the slot distance between the probe (its per-group
/// counts and id ranges) and one slot (its cached `counts` and `ranges`),
/// from the signatures alone — `O(groups)`, no user lists touched: the
/// id-range bound of [`group_bound`], which dominates the count difference.
fn signature_bound(
    probe_counts: &[usize],
    probe_ranges: &[(u32, u32)],
    counts: &[usize],
    ranges: &[(u32, u32)],
) -> usize {
    probe_counts
        .iter()
        .zip(probe_ranges)
        .zip(counts.iter().zip(ranges))
        .map(|((&ca, &probe_range), (&cb, &range))| {
            group_bound(ca, cb, range_overlap(probe_range, range))
        })
        .sum()
}

/// The live part of a predictor's flat signature caches: `groups` entries
/// per retained slot, by position. Taken once per query or scan, so no
/// access pays for the dead prefix the caches keep (see
/// [`WorkloadPredictor::sync_signatures`]).
#[derive(Debug, Clone, Copy)]
struct Caches<'a> {
    groups: usize,
    signatures: &'a [usize],
    id_ranges: &'a [(u32, u32)],
}

impl Caches<'_> {
    /// The entries of the retained slot at `position`.
    fn entries(&self, position: usize) -> Range<usize> {
        position * self.groups..(position + 1) * self.groups
    }

    /// Lower bound on the slot distance between the probe (described by
    /// its per-group counts and id ranges) and the retained slot at
    /// `position`: the free [`signature_bound`] over that slot's cached
    /// signatures.
    fn signature_bound(
        &self,
        probe_counts: &[usize],
        probe_ranges: &[(u32, u32)],
        position: usize,
    ) -> usize {
        let entries = self.entries(position);
        signature_bound(
            probe_counts,
            probe_ranges,
            &self.signatures[entries.clone()],
            &self.id_ranges[entries],
        )
    }

    /// [`range_misalignment`] between the probe's id ranges and those of the
    /// retained slot at `position`, summed over the groups.
    fn misalignment(&self, probe_ranges: &[(u32, u32)], position: usize) -> u64 {
        self.id_ranges[self.entries(position)]
            .iter()
            .zip(probe_ranges)
            .map(|(&range, &probe_range)| range_misalignment(probe_range, range))
            .sum()
    }
}

/// The best candidate a nearest-slot scan has found so far.
#[derive(Debug)]
struct Incumbent {
    distance: usize,
    /// Position within the retained slots.
    position: usize,
    /// Full distance evaluations spent so far.
    evaluated: u64,
}

impl Incumbent {
    /// No candidate yet: anything evaluated replaces it.
    const NONE: Self = Self {
        distance: usize::MAX,
        position: usize::MAX,
        evaluated: 0,
    };

    /// Whether slots from `position` on, all at least `lower_bound` away,
    /// cannot replace the incumbent: they are farther, or can at best tie
    /// and would lose the earliest-slot tie-break.
    fn refutes(&self, lower_bound: usize, position: usize) -> bool {
        lower_bound > self.distance || (lower_bound == self.distance && position > self.position)
    }

    /// Evaluates `predictor`'s retained slot at `position`, whose lower
    /// bound is `lower_bound`, against `current`, unless the bound already
    /// shows it cannot replace the incumbent. The full distance runs
    /// through the early-exit [`slot_distance_bounded`], capped at the
    /// incumbent's distance for earlier candidates (where an equal distance
    /// wins the tie) and one below it for later ones (where only a strictly
    /// smaller distance helps) — so a distance that comes back at all
    /// replaces the incumbent.
    fn consider(
        &mut self,
        predictor: &WorkloadPredictor,
        current: &TimeSlot,
        position: usize,
        lower_bound: usize,
    ) {
        if self.refutes(lower_bound, position) {
            return;
        }
        let cap = if position < self.position {
            self.distance
        } else {
            // not refuted, so lower_bound < distance and the cap cannot wrap
            self.distance - 1
        };
        self.evaluated += 1;
        let candidate = predictor.history.slot(position);
        if let Some(distance) = slot_distance_bounded(current, candidate, &predictor.groups, cap) {
            self.distance = distance;
            self.position = position;
        }
    }
}

/// The state of one nearest-slot query; see
/// [`WorkloadPredictor::nearest_position`]. Both regimes seed the
/// incumbent and then walk the history chronologically, and both bound
/// each candidate at most once: the query's buffer keeps every bound the
/// seed computed for the walk to read. The serial regime bounds every slot
/// in one pass, which also picks the seed. The summary tree descends to
/// the block where the answer most likely is, scans it from its
/// best-aligned slot, and walks the nodes around it, bounding the nodes
/// the descent did not and the slots of the blocks it enters.
struct Search<'a> {
    predictor: &'a WorkloadPredictor,
    caches: Caches<'a>,
    current: &'a TimeSlot,
    current_signature: &'a [usize],
    current_ranges: &'a [(u32, u32)],
    /// Serial regime: every retained slot's signature bound, by position,
    /// written by the seed pass and read by the walk. Tree regime: one
    /// [`FANOUT`] segment per level from the top down — the top level's
    /// node bounds, then those of each descent node's children — and a last
    /// one for the slot bounds of the seed block.
    bounds: &'a mut [usize],
    /// Global index of the first retained slot.
    first_index: usize,
    /// Serial regime: the position the seed considered; the walk does not
    /// reconsider it.
    seed_position: usize,
    /// The block the seeding descent scanned; the walk does not rescan it.
    seed_block: usize,
    incumbent: Incumbent,
    nodes_bounded: u64,
    slots_bounded: u64,
}

impl<'a> Search<'a> {
    fn new(
        predictor: &'a WorkloadPredictor,
        current: &'a TimeSlot,
        current_signature: &'a [usize],
        current_ranges: &'a [(u32, u32)],
        bounds: &'a mut [usize],
    ) -> Self {
        Self {
            predictor,
            caches: predictor.caches(),
            current,
            current_signature,
            current_ranges,
            bounds,
            first_index: predictor.history.first_index(),
            seed_position: usize::MAX,
            seed_block: usize::MAX,
            incumbent: Incumbent::NONE,
            nodes_bounded: 0,
            slots_bounded: 0,
        }
    }

    /// Bounds every retained slot into `bounds` in one pass over the flat
    /// signature caches and seeds the incumbent from the earliest slot of
    /// minimum bound.
    fn seed_flat(&mut self) {
        let predictor = self.predictor;
        let Caches {
            groups,
            signatures,
            id_ranges,
        } = self.caches;
        let slots = signatures
            .chunks_exact(groups)
            .zip(id_ranges.chunks_exact(groups));
        let (mut seed, mut seed_bound) = (0, usize::MAX);
        for (position, (bound, (counts, ranges))) in self.bounds.iter_mut().zip(slots).enumerate() {
            *bound = signature_bound(self.current_signature, self.current_ranges, counts, ranges);
            if *bound < seed_bound {
                (seed, seed_bound) = (position, *bound);
            }
        }
        self.slots_bounded += self.bounds.len() as u64;
        self.seed_position = seed;
        self.incumbent
            .consider(predictor, self.current, seed, seed_bound);
    }

    /// Considers every retained slot but the seed chronologically, reading
    /// the bounds [`Self::seed_flat`] wrote.
    fn walk_flat(&mut self) {
        for (position, &lower_bound) in self.bounds.iter().enumerate() {
            if position != self.seed_position {
                self.incumbent
                    .consider(self.predictor, self.current, position, lower_bound);
            }
        }
    }

    /// Where the tree regime's buffer keeps the bounds of the nodes of
    /// `level` the descent bounded.
    fn segment(tree: &SummaryTree, level: usize) -> usize {
        (tree.depth() - 1 - level) * FANOUT
    }

    /// Seeds the incumbent from one block. From the top level down, bounds
    /// every child of the node chosen one level up (every top-level node
    /// first) into the buffer and follows the child of least
    /// `(envelope bound, misalignment)`: among the many nodes a drifting
    /// population ties at one bound, the one whose id envelope lines up
    /// with the probe's ranges is where the answer lies. The block reached
    /// is scanned by [`Self::scan_seed_block`].
    fn seed_descent(&mut self, tree: &SummaryTree) {
        let top = tree.depth() - 1;
        let mut children = tree.nodes(top);
        let mut seed_block = usize::MAX;
        for level in (0..=top).rev() {
            let segment = Self::segment(tree, level);
            let mut least = (usize::MAX, u64::MAX);
            let mut chosen = None;
            for (offset, node) in children.clone().enumerate() {
                let bound = self.node_bound(tree, level, node);
                self.bounds[segment + offset] = bound;
                // the misalignment is read only where the bound can win
                if bound <= least.0 {
                    let key = (
                        bound,
                        tree.node_misalignment(level, node, self.current_ranges),
                    );
                    if key < least {
                        (least, chosen) = (key, Some(node));
                    }
                }
            }
            // a kept tree covers at least one slot and every stored node
            // covers one, so a node is always chosen; were none, the walk
            // alone would answer: it reads only the top level's bounds,
            // written above, and bounds every other node it meets
            let Some(node) = chosen else {
                return;
            };
            seed_block = node;
            children = tree.children(level, node);
        }
        self.seed_block = seed_block;
        self.scan_seed_block(tree, children);
    }

    /// Bounds the slots of the seed block (global indices) into the last
    /// segment of the buffer, considers the slot of least `(signature
    /// bound, misalignment)` first and then every other slot of the block
    /// chronologically. Misalignment only orders the candidates and never
    /// refutes one, so the incumbent's rules still return the earliest
    /// nearest slot.
    fn scan_seed_block(&mut self, tree: &SummaryTree, slots: Range<usize>) {
        let predictor = self.predictor;
        let segment = tree.depth() * FANOUT;
        let positions = slots.start - self.first_index..slots.end - self.first_index;
        let mut least = (usize::MAX, u64::MAX);
        let mut seed = None;
        for (offset, position) in positions.clone().enumerate() {
            let bound =
                self.caches
                    .signature_bound(self.current_signature, self.current_ranges, position);
            self.bounds[segment + offset] = bound;
            if bound <= least.0 {
                let key = (
                    bound,
                    self.caches.misalignment(self.current_ranges, position),
                );
                if key < least {
                    (least, seed) = (key, Some(position));
                }
            }
        }
        self.slots_bounded += positions.len() as u64;
        // every block holds a slot; without one there is nothing to scan
        let Some(seed) = seed else {
            return;
        };
        self.incumbent
            .consider(predictor, self.current, seed, least.0);
        for (offset, position) in positions.enumerate() {
            if position != seed {
                let lower_bound = self.bounds[segment + offset];
                self.incumbent
                    .consider(predictor, self.current, position, lower_bound);
            }
        }
    }

    fn node_bound(&mut self, tree: &SummaryTree, level: usize, node: usize) -> usize {
        self.nodes_bounded += 1;
        tree.node_bound(level, node, self.current_signature, self.current_ranges)
    }

    /// Considers the slots of one block (global indices) chronologically,
    /// bounding each.
    fn scan_block(&mut self, slots: Range<usize>) {
        self.slots_bounded += slots.len() as u64;
        for global in slots {
            let position = global - self.first_index;
            let lower_bound =
                self.caches
                    .signature_bound(self.current_signature, self.current_ranges, position);
            self.incumbent
                .consider(self.predictor, self.current, position, lower_bound);
        }
    }

    /// Walks `nodes` of `level` chronologically, descending into those the
    /// incumbent does not refute. `stored` says whether the descent bounded
    /// these nodes — the top level, or the children of a descent node — in
    /// which case their bounds are read from the buffer, not computed again.
    fn walk(&mut self, tree: &SummaryTree, level: usize, nodes: Range<usize>, stored: bool) {
        let segment = Self::segment(tree, level);
        let on_path = SummaryTree::ancestor(level, self.seed_block);
        for (offset, node) in nodes.enumerate() {
            if level == 0 && node == self.seed_block {
                continue;
            }
            let lower_bound = if stored {
                self.bounds[segment + offset]
            } else {
                self.node_bound(tree, level, node)
            };
            let first_position = tree.first_slot(level, node) - self.first_index;
            if self.incumbent.refutes(lower_bound, first_position) {
                continue;
            }
            let children = tree.children(level, node);
            match level {
                0 => self.scan_block(children),
                _ => self.walk(tree, level - 1, children, stored && node == on_path),
            }
        }
    }

    /// Adds this query to the predictor's counters and returns the
    /// position of the nearest slot.
    fn finish(self) -> usize {
        let stats = &self.predictor.stats;
        stats.queries.fetch_add(1, Relaxed);
        stats.rings_walked.fetch_add(self.nodes_bounded, Relaxed);
        stats
            .candidates_bounded
            .fetch_add(self.slots_bounded, Relaxed);
        stats
            .candidates_evaluated
            .fetch_add(self.incumbent.evaluated, Relaxed);
        self.incumbent.position
    }
}

/// The per-group workload forecast for the next provisioning interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadForecast {
    /// Predicted number of users per acceleration group (`W_{a_n}`).
    pub per_group: Vec<(AccelerationGroupId, usize)>,
    /// Global index of the historical slot the forecast was taken from, when
    /// the strategy is history-based.
    pub matched_slot: Option<usize>,
}

impl WorkloadForecast {
    /// Predicted workload for one group (0 when the group is absent).
    pub fn load_of(&self, group: AccelerationGroupId) -> usize {
        self.per_group
            .iter()
            .find(|(g, _)| *g == group)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Total predicted number of users across groups.
    pub fn total(&self) -> usize {
        self.per_group.iter().map(|(_, n)| n).sum()
    }
}

/// Cumulative query and index-health counters of one predictor.
///
/// The counters are atomics because [`WorkloadPredictor::predict`] counts
/// through `&self` and a shared predictor may be queried from several
/// threads; every total is a deterministic function of the queries
/// answered. Like [`crate::AllocationStats`] on [`crate::Allocation`], the
/// stats are observability data, **not** part of the predictor's semantic
/// state: two predictors with identical knowledge bases compare equal
/// regardless of how many queries each has answered, so `PartialEq` here is
/// identically true.
#[derive(Debug, Default)]
pub struct PredictorStats {
    /// Nearest-slot scan queries answered (both regimes: the flat seed and
    /// chronological scan, the summary tree's descent and walk).
    queries: AtomicU64,
    /// `observe_and_predict` calls resolved by the signature-equality
    /// shortcut, never evaluating a distance.
    fast_predictions: AtomicU64,
    /// Summary-tree nodes whose envelope bound was computed
    /// ([`SummaryTree::node_bound`]); the name predates the tree. A query
    /// bounds each node at most once: the walk reads the bounds the seeding
    /// descent computed, so a query never counts more nodes than the tree
    /// holds.
    rings_walked: AtomicU64,
    /// Candidates whose signature lower bound was computed. A serial query
    /// bounds each retained slot exactly once, in work as well as in this
    /// counter: one pass writes every bound into the query's buffer and the
    /// walk reads it back. A tree query bounds the slots of the blocks it
    /// scans.
    candidates_bounded: AtomicU64,
    /// Candidates that survived the bounds and had a full (early-exit)
    /// distance evaluation.
    candidates_evaluated: AtomicU64,
    /// Summary-tree builds from scratch (the history crossed
    /// [`IndexPolicy::min_indexed_slots`], was replaced, or the policy
    /// changed).
    index_builds: AtomicU64,
    /// Always zero: the summary tree is kept current in place and has no
    /// rebuild schedule. The counter stays for the readers of
    /// [`PredictorStatsSnapshot`].
    index_rebuilds: AtomicU64,
}

impl PredictorStats {
    /// A plain-integer copy of the current counter values.
    pub fn snapshot(&self) -> PredictorStatsSnapshot {
        PredictorStatsSnapshot {
            queries: self.queries.load(Relaxed),
            fast_predictions: self.fast_predictions.load(Relaxed),
            rings_walked: self.rings_walked.load(Relaxed),
            candidates_bounded: self.candidates_bounded.load(Relaxed),
            candidates_evaluated: self.candidates_evaluated.load(Relaxed),
            index_builds: self.index_builds.load(Relaxed),
            index_rebuilds: self.index_rebuilds.load(Relaxed),
        }
    }
}

impl Clone for PredictorStats {
    fn clone(&self) -> Self {
        let snapshot = self.snapshot();
        Self {
            queries: AtomicU64::new(snapshot.queries),
            fast_predictions: AtomicU64::new(snapshot.fast_predictions),
            rings_walked: AtomicU64::new(snapshot.rings_walked),
            candidates_bounded: AtomicU64::new(snapshot.candidates_bounded),
            candidates_evaluated: AtomicU64::new(snapshot.candidates_evaluated),
            index_builds: AtomicU64::new(snapshot.index_builds),
            index_rebuilds: AtomicU64::new(snapshot.index_rebuilds),
        }
    }
}

impl PartialEq for PredictorStats {
    /// Always true: query counters are observability data and take no part
    /// in predictor equality (the precedent is [`crate::Allocation`], whose
    /// equality ignores its [`crate::AllocationStats`]). A fast-path
    /// predictor that never scanned and a slow-path one that scanned
    /// everything hold the same knowledge and must compare equal.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// Plain-integer snapshot of [`PredictorStats`], comparable and copyable.
/// See the field docs on [`PredictorStats`] for meanings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredictorStatsSnapshot {
    /// Nearest-slot scan queries answered.
    pub queries: u64,
    /// Fast-path `observe_and_predict` resolutions.
    pub fast_predictions: u64,
    /// Summary-tree nodes bounded (each at most once per query).
    pub rings_walked: u64,
    /// Candidates with a lower bound computed.
    pub candidates_bounded: u64,
    /// Candidates fully evaluated.
    pub candidates_evaluated: u64,
    /// Index builds from scratch.
    pub index_builds: u64,
    /// Scheduled index rebuilds (always zero).
    pub index_rebuilds: u64,
}

impl PredictorStatsSnapshot {
    /// Component-wise sum — used by the fleet to fold per-tenant stats into
    /// fleet-wide totals.
    pub fn merge(&mut self, other: &PredictorStatsSnapshot) {
        self.queries += other.queries;
        self.fast_predictions += other.fast_predictions;
        self.rings_walked += other.rings_walked;
        self.candidates_bounded += other.candidates_bounded;
        self.candidates_evaluated += other.candidates_evaluated;
        self.index_builds += other.index_builds;
        self.index_rebuilds += other.index_rebuilds;
    }
}

impl Snapshot for PredictionStrategy {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            PredictionStrategy::NearestSlot => 0,
            PredictionStrategy::SuccessorOfNearest => 1,
            PredictionStrategy::LastValue => 2,
            PredictionStrategy::MeanOfHistory => 3,
        };
        tag.encode(out);
    }
}

impl Restore for PredictionStrategy {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        match u8::decode(cur)? {
            0 => Ok(PredictionStrategy::NearestSlot),
            1 => Ok(PredictionStrategy::SuccessorOfNearest),
            2 => Ok(PredictionStrategy::LastValue),
            3 => Ok(PredictionStrategy::MeanOfHistory),
            _ => Err(SnapshotError::Malformed {
                context: "prediction strategy tag",
            }),
        }
    }
}

impl Snapshot for PredictorStatsSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.queries.encode(out);
        self.fast_predictions.encode(out);
        self.rings_walked.encode(out);
        self.candidates_bounded.encode(out);
        self.candidates_evaluated.encode(out);
        self.index_builds.encode(out);
        self.index_rebuilds.encode(out);
    }
}

impl Restore for PredictorStatsSnapshot {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            queries: u64::decode(cur)?,
            fast_predictions: u64::decode(cur)?,
            rings_walked: u64::decode(cur)?,
            candidates_bounded: u64::decode(cur)?,
            candidates_evaluated: u64::decode(cur)?,
            index_builds: u64::decode(cur)?,
            index_rebuilds: u64::decode(cur)?,
        })
    }
}

impl Snapshot for PredictorStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.snapshot().encode(out);
    }
}

impl Restore for PredictorStats {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let snapshot = PredictorStatsSnapshot::decode(cur)?;
        Ok(Self {
            queries: AtomicU64::new(snapshot.queries),
            fast_predictions: AtomicU64::new(snapshot.fast_predictions),
            rings_walked: AtomicU64::new(snapshot.rings_walked),
            candidates_bounded: AtomicU64::new(snapshot.candidates_bounded),
            candidates_evaluated: AtomicU64::new(snapshot.candidates_evaluated),
            index_builds: AtomicU64::new(snapshot.index_builds),
            index_rebuilds: AtomicU64::new(snapshot.index_rebuilds),
        })
    }
}

/// The workload predictor: a knowledge base of historical slots plus a
/// prediction strategy.
#[derive(Debug, Clone)]
pub struct WorkloadPredictor {
    history: SlotHistory,
    strategy: PredictionStrategy,
    groups: Vec<AccelerationGroupId>,
    /// Flat per-slot count signatures, `groups.len()` entries per slot from
    /// the global slot `signature_first_index` on: a dead prefix of evicted
    /// slots, then one entry per group for each retained slot of `history`
    /// (see [`WorkloadPredictor::sync_signatures`]).
    signatures: Vec<usize>,
    /// Flat per-slot `(min, max)` user-id ranges, `groups.len()` entries per
    /// retained slot, aligned with `signatures`. Because every per-group run
    /// is sorted and deduplicated, `|A ∩ B| <= min(|A|, |B|, range overlap)`,
    /// which turns the ranges into a second-level distance lower bound that
    /// refutes candidates whose user populations have drifted apart without
    /// touching their user lists. Empty groups use the `(u32::MAX, 0)`
    /// sentinel.
    id_ranges: Vec<(u32, u32)>,
    /// Global index of the slot `signatures[0..groups.len()]` belongs to;
    /// the slots before the history's first retained one are the dead
    /// prefix.
    signature_first_index: usize,
    /// Whether (and when) the block-summary tree takes over the
    /// nearest-slot search.
    index_policy: IndexPolicy,
    /// The block-summary tree over `signatures` and `id_ranges`, kept
    /// exactly while the retained history is at least
    /// [`IndexPolicy::min_indexed_slots`] long and maintained incrementally
    /// alongside the signatures. `None` while the policy is linear or the
    /// history is short. Derived state like the signatures: always equal to
    /// a from-scratch build.
    summaries: Option<SummaryTree>,
    /// Cumulative query and index-health counters. Excluded from equality
    /// (see [`PredictorStats`]).
    stats: PredictorStats,
}

impl WorkloadPredictor {
    /// Creates a predictor over the given acceleration groups with the
    /// paper's configuration (nearest slot, unbounded history).
    pub fn new(groups: Vec<AccelerationGroupId>, slot_length_ms: f64) -> Self {
        Self {
            history: SlotHistory::new(slot_length_ms),
            strategy: PredictionStrategy::NearestSlot,
            groups,
            signatures: Vec::new(),
            id_ranges: Vec::new(),
            signature_first_index: 0,
            index_policy: IndexPolicy::default(),
            summaries: None,
            stats: PredictorStats::default(),
        }
    }

    /// Plain-integer snapshot of the cumulative query and index-health
    /// counters: scan queries answered, summary nodes and candidates bounded
    /// vs. candidates evaluated, and summary-tree builds. Counters only ever
    /// increase; diff two snapshots to rate a window.
    pub fn stats(&self) -> PredictorStatsSnapshot {
        self.stats.snapshot()
    }

    /// Overrides the prediction strategy.
    pub fn with_strategy(mut self, strategy: PredictionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the summary-tree policy (builder form).
    pub fn with_index_policy(mut self, policy: IndexPolicy) -> Self {
        self.set_index_policy(policy);
        self
    }

    /// Changes the summary-tree policy in place, building (or dropping)
    /// the summary tree to match.
    pub fn set_index_policy(&mut self, policy: IndexPolicy) {
        self.index_policy = policy;
        self.sync_summaries();
    }

    /// The summary-tree policy in force.
    pub fn index_policy(&self) -> IndexPolicy {
        self.index_policy
    }

    /// Whether the summary tree is currently kept and answering
    /// nearest-slot queries (benchmarks assert the indexed path is really
    /// exercised).
    pub fn index_active(&self) -> bool {
        self.summaries.is_some()
    }

    /// Caps the knowledge base at the `window` most recent slots, bounding
    /// both memory and the nearest-neighbour scan for long traces.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(mut self, window: usize) -> Self {
        self.set_window(Some(window));
        self
    }

    /// Changes the knowledge-base retention window (`None` = unbounded).
    ///
    /// # Panics
    ///
    /// Panics if `window` is `Some(0)`.
    pub fn set_window(&mut self, window: Option<usize>) {
        self.history.set_window(window);
        self.sync_signatures();
    }

    /// The prediction strategy in force.
    pub fn strategy(&self) -> PredictionStrategy {
        self.strategy
    }

    /// The acceleration groups the predictor forecasts for.
    pub fn groups(&self) -> &[AccelerationGroupId] {
        &self.groups
    }

    /// Read access to the accumulated history.
    pub fn history(&self) -> &SlotHistory {
        &self.history
    }

    /// Appends an observed slot to the knowledge base.
    pub fn observe_slot(&mut self, slot: TimeSlot) {
        self.observe(slot);
    }

    /// [`WorkloadPredictor::observe_slot`], handing back the slot the
    /// history evicted to make room.
    fn observe(&mut self, slot: TimeSlot) -> Option<TimeSlot> {
        let evicted = self.history.push(slot);
        self.sync_signatures();
        evicted
    }

    /// Replaces the whole history (used by cross-validation), keeping the
    /// window configured on the new history.
    pub fn set_history(&mut self, history: SlotHistory) {
        self.history = history;
        self.rebuild_signatures();
    }

    /// Moves the accumulated knowledge base out of the predictor without
    /// copying, leaving an empty history with the same slot length and
    /// retention window. This is the shard hand-off path: when a tenant is
    /// migrated between shards (or offboarded), its slot history travels
    /// with it and can seed the receiving predictor via
    /// [`WorkloadPredictor::set_history`].
    pub fn take_history(&mut self) -> SlotHistory {
        let mut empty = SlotHistory::new(self.history.slot_length_ms);
        empty.set_window(self.history.window());
        let history = std::mem::replace(&mut self.history, empty);
        self.rebuild_signatures();
        history
    }

    /// Recomputes every derived cache — signatures and summary tree — from
    /// the retained slots, after the history was replaced wholesale.
    fn rebuild_signatures(&mut self) {
        self.signatures.clear();
        self.id_ranges.clear();
        self.signature_first_index = self.history.first_index();
        self.summaries = None;
        self.sync_signatures();
    }

    /// Brings the cached count signatures back in line with the retained
    /// slots after the history grew or evicted from the front. An evicted
    /// slot's entries stay behind as a dead prefix until the prefix is as
    /// long as the live entries, and one `drain` then drops them all: a
    /// window of `W` slots shifts its caches once every `W` evictions, not
    /// on every one.
    fn sync_signatures(&mut self) {
        let group_count = self.groups.len();
        if group_count == 0 {
            return;
        }
        // every slot the history evicted had its entries cached
        let first = self.history.first_index();
        let dead = (first - self.signature_first_index) * group_count;
        let covered = (self.signatures.len() - dead) / group_count;
        for position in covered..self.history.len() {
            push_signature(
                &self.groups,
                self.history.slot(position),
                &mut self.signatures,
                &mut self.id_ranges,
            );
        }
        if dead > 0 && dead >= self.signatures.len() - dead {
            self.signatures.drain(..dead);
            self.id_ranges.drain(..dead);
            self.signature_first_index = first;
        }
        debug_assert_eq!(
            self.caches().signatures.len(),
            self.history.len() * group_count
        );
        debug_assert_eq!(self.id_ranges.len(), self.signatures.len());
        self.sync_summaries();
    }

    /// The live signature caches: the retained slots' entries, past the
    /// dead prefix.
    fn caches(&self) -> Caches<'_> {
        let dead = (self.history.first_index() - self.signature_first_index) * self.groups.len();
        Caches {
            groups: self.groups.len(),
            signatures: &self.signatures[dead..],
            id_ranges: &self.id_ranges[dead..],
        }
    }

    /// Brings the summary tree in line with the signatures: builds it when
    /// the history reaches the policy threshold, evicts and appends
    /// alongside the signatures, and drops it when the history falls back
    /// below the threshold — so whether and what it is depends on the
    /// retained slots alone. Never kept for linear policies.
    fn sync_summaries(&mut self) {
        let wanted = !self.groups.is_empty()
            && self
                .index_policy
                .min_indexed_slots
                .is_some_and(|min| self.history.len() >= min.max(1));
        if !wanted {
            self.summaries = None;
            return;
        }
        let first_index = self.history.first_index();
        let dead = (first_index - self.signature_first_index) * self.groups.len();
        let (signatures, id_ranges) = (&self.signatures[dead..], &self.id_ranges[dead..]);
        match &mut self.summaries {
            Some(tree) => tree.sync(first_index, signatures, id_ranges),
            None => {
                self.summaries = Some(SummaryTree::build(
                    self.groups.len(),
                    first_index,
                    signatures,
                    id_ranges,
                ));
                self.stats.index_builds.fetch_add(1, Relaxed);
            }
        }
    }

    /// Slot distance `Δ` between two slots over the predictor's groups.
    pub fn distance_between(&self, a: &TimeSlot, b: &TimeSlot) -> usize {
        slot_distance(a, b, &self.groups)
    }

    /// Position (within the retained slots) of the nearest historical slot.
    /// Ties resolve to the earliest slot, exactly like the naive linear scan.
    ///
    /// Both regimes **seed, then walk**, and both compute each bound at
    /// most once per query. Without a summary tree, one pass bounds every
    /// retained slot into the query's buffer (`O(groups)` each, straight off
    /// the flat signature caches) and seeds on the earliest minimum; the
    /// walk reads the buffer and never bounds a slot again. A kept summary
    /// tree descends from its top level to one block, bounding the children
    /// of each node it passes into the buffer and following the child of
    /// least `(envelope bound, misalignment)`: in a drifting population many
    /// nodes tie at the least bound, and the misalignment (how far the
    /// envelope's per-group id range sits from the probe's) points at the
    /// one the answer lies in. Inside that block the slot of least
    /// `(signature bound, misalignment)` is considered first, then the
    /// block's other slots chronologically. A seed whose distance is zero
    /// ends the serial search at once: every earlier slot had a bound above
    /// zero, and a later tie loses. Otherwise the search walks the history
    /// in chronological order — every other slot, or every other tree node,
    /// skipping one whose bound shows that no slot below it can replace the
    /// incumbent (the same bound-and-tie rule single candidates are refuted
    /// by, applied to the node's first slot). The tree's walk reads the
    /// bounds the descent left in the buffer and bounds only the nodes the
    /// descent did not. A candidate that survives its bound is evaluated
    /// with the early-exit [`slot_distance_bounded`], capped at the best
    /// distance (for candidates earlier than the incumbent, where an equal
    /// distance wins the tie) or one below it (for later candidates, where
    /// only a strictly smaller distance helps). A node bound never exceeds
    /// a member's signature bound, which never exceeds its distance, and the
    /// misalignment only orders candidates, never refutes one; so only
    /// losers are skipped, and both regimes are bit-identical to
    /// [`Self::predict_naive`]. Nothing is allocated per query beyond the
    /// probe's signature: its counts and the bounds share one buffer.
    fn nearest_position(&self, current: &TimeSlot) -> Option<usize> {
        if self.history.is_empty() {
            return None;
        }
        if self.groups.is_empty() {
            // every distance is zero over an empty group universe; the
            // earliest slot wins the tie
            return Some(0);
        }
        // one allocation: the probe's counts, then every retained slot's
        // bound (serial regime) or the bounds the descent leaves the walk
        // (tree regime)
        let group_count = self.groups.len();
        let bounded = match &self.summaries {
            Some(tree) => (tree.depth() + 1) * FANOUT,
            None => self.history.len(),
        };
        let mut buffer = Vec::with_capacity(group_count + bounded);
        buffer.extend(self.groups.iter().map(|g| current.load_of(*g)));
        buffer.resize(group_count + bounded, 0);
        let (current_signature, bounds) = buffer.split_at_mut(group_count);
        let current_ranges: Vec<(u32, u32)> = self
            .groups
            .iter()
            .map(|g| id_range(current.users_in(*g)))
            .collect();
        let mut search = Search::new(self, current, current_signature, &current_ranges, bounds);
        match &self.summaries {
            Some(tree) => {
                debug_assert_eq!(tree.first_index(), self.history.first_index());
                search.seed_descent(tree);
                let top = tree.depth() - 1;
                search.walk(tree, top, tree.nodes(top), true);
            }
            None => {
                search.seed_flat();
                if search.incumbent.distance > 0 {
                    search.walk_flat();
                }
            }
        }
        Some(search.finish())
    }

    /// Observes `slot` and immediately forecasts the next slot — the closed
    /// loop's per-interval step, equivalent to
    /// [`WorkloadPredictor::observe_slot`] followed by
    /// [`WorkloadPredictor::predict`] on the same slot but substantially
    /// cheaper. Because the probe is part of the knowledge base by the time
    /// the prediction runs, the minimum distance is exactly zero, and the
    /// nearest slot is the **earliest retained slot equal to the probe**:
    /// equal per-group user runs (slice equality exits on the first
    /// differing user). No distance is ever evaluated. Equal runs have
    /// equal counts and equal `(min, max)` ids, so a candidate must first
    /// match the probe's cached count signature and id ranges — both read
    /// from the flat caches, without touching the slot — and only the
    /// survivors compare their user runs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyHistory`] when the history-based strategy
    /// has no slot to forecast from, which after observing cannot happen —
    /// the error case exists only for [`PredictionStrategy::MeanOfHistory`]
    /// symmetry with [`WorkloadPredictor::predict`].
    pub fn observe_and_predict(&mut self, slot: TimeSlot) -> Result<WorkloadForecast, CoreError> {
        let mut forecast = WorkloadForecast {
            per_group: Vec::new(),
            matched_slot: None,
        };
        self.observe_and_forecast(slot, &mut forecast);
        Ok(forecast)
    }

    /// [`WorkloadPredictor::observe_and_predict`] into `forecast`, whose
    /// buffer it refills, handing back the slot the history evicted to make
    /// room. Once `slot` is observed the history is never empty, so a
    /// forecast always results.
    pub(crate) fn observe_and_forecast(
        &mut self,
        slot: TimeSlot,
        forecast: &mut WorkloadForecast,
    ) -> Option<TimeSlot> {
        match self.strategy {
            PredictionStrategy::LastValue => {
                self.fill_from_current(&slot, forecast);
                self.observe(slot)
            }
            PredictionStrategy::MeanOfHistory => {
                let evicted = self.observe(slot);
                self.fill_from_mean(forecast);
                evicted
            }
            PredictionStrategy::NearestSlot | PredictionStrategy::SuccessorOfNearest => {
                let evicted = self.observe(slot);
                let last = self.history.len() - 1;
                let caches = self.caches();
                let group_count = caches.groups;
                let mut position = last;
                if group_count > 0 {
                    let current = self.history.slot(last);
                    let probe = caches.entries(last);
                    let current_signature = &caches.signatures[probe.clone()];
                    let current_ranges = &caches.id_ranges[probe];
                    for (earlier, (signature, ranges)) in caches
                        .signatures
                        .chunks_exact(group_count)
                        .zip(caches.id_ranges.chunks_exact(group_count))
                        .enumerate()
                        .take(last)
                    {
                        if signature != current_signature || ranges != current_ranges {
                            continue;
                        }
                        let candidate = self.history.slot(earlier);
                        if self
                            .groups
                            .iter()
                            .all(|g| candidate.users_in(*g) == current.users_in(*g))
                        {
                            position = earlier;
                            break;
                        }
                    }
                } else {
                    // no groups: every distance is zero, the earliest slot wins
                    position = 0;
                }
                self.stats.fast_predictions.fetch_add(1, Relaxed);
                self.fill_from_position(position, forecast);
                evicted
            }
        }
    }

    /// Predicts the workload of the next slot given the current slot.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyHistory`] when no historical slot is
    /// available for a history-based strategy.
    pub fn predict(&self, current: &TimeSlot) -> Result<WorkloadForecast, CoreError> {
        match self.strategy {
            PredictionStrategy::LastValue => Ok(self.forecast_from_current(current)),
            PredictionStrategy::MeanOfHistory => self.forecast_from_mean(),
            PredictionStrategy::NearestSlot | PredictionStrategy::SuccessorOfNearest => {
                let nearest = self
                    .nearest_position(current)
                    .ok_or(CoreError::EmptyHistory)?;
                Ok(self.forecast_from_position(nearest))
            }
        }
    }

    /// The naive reference prediction: a full linear scan of the knowledge
    /// base with the `*_naive` distance implementations, as the seed
    /// computed it. Produces the same forecast as [`WorkloadPredictor::predict`];
    /// kept for property testing and as the benchmark baseline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyHistory`] when no historical slot is
    /// available for a history-based strategy.
    pub fn predict_naive(&self, current: &TimeSlot) -> Result<WorkloadForecast, CoreError> {
        match self.strategy {
            PredictionStrategy::LastValue => Ok(self.forecast_from_current(current)),
            PredictionStrategy::MeanOfHistory => self.forecast_from_mean(),
            PredictionStrategy::NearestSlot | PredictionStrategy::SuccessorOfNearest => {
                let Some((nearest, _)) = self
                    .history
                    .iter()
                    .map(|s| slot_distance_naive(current, s, &self.groups))
                    .enumerate()
                    .min_by_key(|(_, d)| *d)
                else {
                    return Err(CoreError::EmptyHistory);
                };
                Ok(self.forecast_from_position(nearest))
            }
        }
    }

    fn forecast_from_current(&self, current: &TimeSlot) -> WorkloadForecast {
        let mut forecast = blank_forecast();
        self.fill_from_current(current, &mut forecast);
        forecast
    }

    fn forecast_from_mean(&self) -> Result<WorkloadForecast, CoreError> {
        if self.history.is_empty() {
            return Err(CoreError::EmptyHistory);
        }
        let mut forecast = blank_forecast();
        self.fill_from_mean(&mut forecast);
        Ok(forecast)
    }

    fn forecast_from_position(&self, position: usize) -> WorkloadForecast {
        let mut forecast = blank_forecast();
        self.fill_from_position(position, &mut forecast);
        forecast
    }

    /// Refills `forecast` with `load` of each group and `matched_slot`.
    fn fill(
        &self,
        forecast: &mut WorkloadForecast,
        load: impl Fn(AccelerationGroupId) -> usize,
        matched_slot: Option<usize>,
    ) {
        forecast.per_group.clear();
        forecast
            .per_group
            .extend(self.groups.iter().map(|g| (*g, load(*g))));
        forecast.matched_slot = matched_slot;
    }

    fn fill_from_current(&self, current: &TimeSlot, forecast: &mut WorkloadForecast) {
        self.fill(forecast, |g| current.load_of(g), None);
    }

    /// The per-group mean over a non-empty history.
    fn fill_from_mean(&self, forecast: &mut WorkloadForecast) {
        let n = self.history.len() as f64;
        let mean = |g| {
            let total: usize = self.history.iter().map(|s| s.load_of(g)).sum();
            let mean = (total as f64 / n).round() as usize;
            // a group observed at least once never forecasts to zero: the
            // paper's model only ever predicts loads it has seen, so a small
            // average must not round a live group out of the allocation
            if total > 0 {
                mean.max(1)
            } else {
                0
            }
        };
        self.fill(forecast, mean, None);
    }

    /// Fills the forecast from the retained slot at `position`, applying
    /// the successor shift when the strategy asks for it.
    fn fill_from_position(&self, position: usize, forecast: &mut WorkloadForecast) {
        let source = match self.strategy {
            PredictionStrategy::SuccessorOfNearest => (position + 1).min(self.history.len() - 1),
            _ => position,
        };
        let slot = self.history.slot(source);
        let matched_slot = Some(self.history.first_index() + source);
        self.fill(forecast, |g| slot.load_of(g), matched_slot);
    }
}

/// A forecast with no groups, for a `fill_*` to refill.
fn blank_forecast() -> WorkloadForecast {
    WorkloadForecast {
        per_group: Vec::new(),
        matched_slot: None,
    }
}

/// Equality over what the predictor knows: its history, configuration,
/// summary tree and the live part of its signature caches, which are
/// functions of the history. The dead prefix the caches keep between
/// compactions, and the counters, take no part.
impl PartialEq for WorkloadPredictor {
    fn eq(&self, other: &Self) -> bool {
        let (ours, theirs) = (self.caches(), other.caches());
        self.history == other.history
            && self.strategy == other.strategy
            && self.groups == other.groups
            && ours.signatures == theirs.signatures
            && ours.id_ranges == theirs.id_ranges
            && self.index_policy == other.index_policy
            && self.summaries == other.summaries
            && self.stats == other.stats
    }
}

impl Snapshot for WorkloadForecast {
    fn encode(&self, out: &mut Vec<u8>) {
        self.per_group.encode(out);
        self.matched_slot.encode(out);
    }
}

impl Restore for WorkloadForecast {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            per_group: Vec::<(AccelerationGroupId, usize)>::decode(cur)?,
            matched_slot: Option::<usize>::decode(cur)?,
        })
    }
}

/// Signature entries a restore reserves before the history is checked
/// (4 Mi: a 100,000-slot history over 40 groups).
const MAX_RESERVED_SIGNATURES: usize = 1 << 22;

/// The predictor checkpoints its knowledge base, configuration and
/// counters. The count/id-range signatures and the summary tree over them
/// are derived caches: they stay off the wire. The decode reads the
/// history's columns first and validates them once the groups are known,
/// filling each slot's signature in the same pass; it then builds the tree
/// and leaves the restored counters as checkpointed (the build is not one
/// the original run performed).
impl Snapshot for WorkloadPredictor {
    fn encode(&self, out: &mut Vec<u8>) {
        self.history.encode(out);
        self.strategy.encode(out);
        self.groups.encode(out);
        self.index_policy.encode(out);
        self.stats.encode(out);
    }
}

impl Restore for WorkloadPredictor {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let columns = HistoryColumns::read(cur)?;
        let strategy = PredictionStrategy::decode(cur)?;
        let groups = Vec::<AccelerationGroupId>::decode(cur)?;
        let index_policy = IndexPolicy::decode(cur)?;
        // reserved up to a bound: slot and group counts come off the wire,
        // and past the bound the caches grow as the checked slots arrive
        let entries = columns
            .len()
            .saturating_mul(groups.len())
            .min(MAX_RESERVED_SIGNATURES);
        let mut signatures = Vec::with_capacity(entries);
        let mut id_ranges = Vec::with_capacity(entries);
        let history = columns.validate(|slot| {
            push_signature(&groups, slot, &mut signatures, &mut id_ranges);
        })?;
        let mut predictor = Self {
            signature_first_index: history.first_index(),
            history,
            strategy,
            groups,
            signatures,
            id_ranges,
            index_policy,
            summaries: None,
            stats: PredictorStats::default(),
        };
        predictor.sync_summaries();
        predictor.stats = PredictorStats::decode(cur)?;
        Ok(predictor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_offload::UserId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    const GROUPS: [AccelerationGroupId; 3] = [
        AccelerationGroupId(1),
        AccelerationGroupId(2),
        AccelerationGroupId(3),
    ];

    /// A synthetic slot with `n1`/`n2`/`n3` users in groups 1/2/3, using user
    /// ids offset so that similar loads share most user identities.
    fn slot(n1: u32, n2: u32, n3: u32) -> TimeSlot {
        let mut pairs = Vec::new();
        for u in 0..n1 {
            pairs.push((AccelerationGroupId(1), UserId(u)));
        }
        for u in 0..n2 {
            pairs.push((AccelerationGroupId(2), UserId(1_000 + u)));
        }
        for u in 0..n3 {
            pairs.push((AccelerationGroupId(3), UserId(2_000 + u)));
        }
        TimeSlot::from_assignments(0, pairs)
    }

    fn predictor_with_history(history: Vec<TimeSlot>) -> WorkloadPredictor {
        let mut p = WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0);
        for s in history {
            p.observe_slot(s);
        }
        p
    }

    #[test]
    fn empty_history_is_an_error() {
        let p = WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0);
        assert_eq!(
            p.predict(&slot(3, 0, 0)).unwrap_err(),
            CoreError::EmptyHistory
        );
        assert_eq!(
            p.predict_naive(&slot(3, 0, 0)).unwrap_err(),
            CoreError::EmptyHistory
        );
    }

    #[test]
    fn nearest_slot_matches_the_most_similar_history_entry() {
        let p = predictor_with_history(vec![slot(10, 2, 0), slot(40, 10, 5), slot(3, 1, 0)]);
        let forecast = p.predict(&slot(9, 2, 0)).unwrap();
        assert_eq!(forecast.matched_slot, Some(0));
        assert_eq!(forecast.load_of(AccelerationGroupId(1)), 10);
        assert_eq!(forecast.load_of(AccelerationGroupId(2)), 2);
        assert_eq!(forecast.total(), 12);
    }

    #[test]
    fn growing_load_is_matched_to_largest_seen_slot() {
        // §IV-B-2: a dramatically growing load can only be matched to the
        // largest load in the history, making allocation conservative.
        let p = predictor_with_history(vec![slot(5, 0, 0), slot(20, 5, 0), slot(60, 20, 10)]);
        let huge = slot(500, 100, 50);
        let forecast = p.predict(&huge).unwrap();
        assert_eq!(forecast.matched_slot, Some(2));
        assert_eq!(forecast.load_of(AccelerationGroupId(1)), 60);
    }

    #[test]
    fn successor_strategy_predicts_following_slot() {
        let p = predictor_with_history(vec![slot(10, 0, 0), slot(20, 5, 0), slot(30, 10, 2)])
            .with_strategy(PredictionStrategy::SuccessorOfNearest);
        let forecast = p.predict(&slot(11, 0, 0)).unwrap();
        // nearest is slot 0, successor is slot 1
        assert_eq!(forecast.matched_slot, Some(1));
        assert_eq!(forecast.load_of(AccelerationGroupId(1)), 20);
    }

    #[test]
    fn successor_of_last_slot_saturates() {
        let p = predictor_with_history(vec![slot(10, 0, 0), slot(50, 0, 0)])
            .with_strategy(PredictionStrategy::SuccessorOfNearest);
        let forecast = p.predict(&slot(49, 0, 0)).unwrap();
        assert_eq!(forecast.matched_slot, Some(1));
    }

    #[test]
    fn last_value_strategy_repeats_current() {
        let p = predictor_with_history(vec![slot(1, 1, 1)])
            .with_strategy(PredictionStrategy::LastValue);
        let forecast = p.predict(&slot(7, 3, 2)).unwrap();
        assert_eq!(forecast.load_of(AccelerationGroupId(1)), 7);
        assert_eq!(forecast.load_of(AccelerationGroupId(2)), 3);
        assert_eq!(forecast.matched_slot, None);
    }

    #[test]
    fn mean_strategy_averages_history() {
        let p = predictor_with_history(vec![slot(10, 0, 0), slot(20, 4, 0), slot(30, 2, 0)])
            .with_strategy(PredictionStrategy::MeanOfHistory);
        let forecast = p.predict(&slot(0, 0, 0)).unwrap();
        assert_eq!(forecast.load_of(AccelerationGroupId(1)), 20);
        assert_eq!(forecast.load_of(AccelerationGroupId(2)), 2);
    }

    #[test]
    fn pruned_search_agrees_with_naive_reference_for_every_strategy() {
        let history: Vec<TimeSlot> = (0..40u32)
            .map(|i| slot(5 + (i * 7) % 23, (i * 3) % 11, (i * 5) % 7))
            .collect();
        let probes = [
            slot(9, 2, 1),
            slot(0, 0, 0),
            slot(30, 10, 6),
            slot(5, 0, 0),
            slot(17, 8, 3),
        ];
        for strategy in [
            PredictionStrategy::NearestSlot,
            PredictionStrategy::SuccessorOfNearest,
        ] {
            let p = predictor_with_history(history.clone()).with_strategy(strategy);
            for probe in &probes {
                let fast = p.predict(probe).unwrap();
                let naive = p.predict_naive(probe).unwrap();
                assert_eq!(fast, naive, "{strategy:?}");
            }
        }
    }

    #[test]
    fn window_caps_the_knowledge_base_and_keeps_global_indices() {
        let mut p = WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0).with_window(3);
        for i in 0..6u32 {
            p.observe_slot(slot(10 * (i + 1), 0, 0));
        }
        assert_eq!(p.history().len(), 3);
        assert_eq!(p.history().first_index(), 3);
        // slots retained: loads 40, 50, 60 at global indices 3, 4, 5
        let forecast = p.predict(&slot(41, 0, 0)).unwrap();
        assert_eq!(forecast.matched_slot, Some(3));
        assert_eq!(forecast.load_of(AccelerationGroupId(1)), 40);
        // the evicted load-10 slot is no longer matchable
        let forecast = p.predict(&slot(10, 0, 0)).unwrap();
        assert_eq!(forecast.matched_slot, Some(3));
        assert_eq!(p.predict_naive(&slot(10, 0, 0)).unwrap(), forecast);
    }

    #[test]
    fn a_windowed_predictor_equals_one_rebuilt_from_its_history() {
        // k·W + r observations for every k up to 3 and every r: the caches
        // carry a dead prefix of every length from 0 to W slots between
        // compactions, under both search regimes
        const WINDOW: usize = 8;
        let load = |i: u32| slot(3 + (i * 7) % 11, (i * 3) % 6, i % 3);
        for policy in [
            IndexPolicy::linear(),
            IndexPolicy::indexed().with_min_indexed_slots(3),
        ] {
            let new =
                || WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0).with_index_policy(policy);
            let mut observed = new().with_window(WINDOW);
            let mut forecasting = new().with_window(WINDOW);
            let mut dead_prefixes = BTreeSet::new();
            for i in 0..(4 * WINDOW) as u32 {
                observed.observe_slot(load(i));
                let forecast = forecasting.observe_and_predict(load(i)).unwrap();
                let mut rebuilt = new();
                rebuilt.set_history(observed.history().clone());
                assert_eq!(observed, rebuilt, "after {} observations", i + 1);
                assert_eq!(forecasting, rebuilt, "after {} observations", i + 1);
                let (mut ours, mut theirs) = (Vec::new(), Vec::new());
                observed.encode(&mut ours);
                rebuilt.encode(&mut theirs);
                assert_eq!(ours, theirs, "after {} observations", i + 1);
                assert_eq!(forecast, rebuilt.predict(&load(i)).unwrap());
                // queried through a clone, dead prefix and all, so that the
                // query counters stay off the compared checkpoints
                let queried = observed.clone();
                for probe in [load(i + 1), load(i + 5), slot(0, 0, 0)] {
                    assert_eq!(
                        queried.predict(&probe).unwrap(),
                        rebuilt.predict(&probe).unwrap()
                    );
                }
                let live = observed.history().len() * GROUPS.len();
                dead_prefixes.insert((observed.signatures.len() - live) / GROUPS.len());
            }
            assert_eq!(
                dead_prefixes,
                (0..WINDOW).collect::<BTreeSet<_>>(),
                "the dead prefix grows by a slot per eviction and is dropped at a window"
            );
        }
    }

    #[test]
    fn observe_and_predict_equals_observe_then_predict() {
        let history: Vec<TimeSlot> = (0..30u32)
            .map(|i| slot(3 + (i * 5) % 17, (i * 3) % 7, i % 4))
            .collect();
        let probes: Vec<TimeSlot> = (0..12u32)
            .map(|i| slot(3 + (i * 5) % 17, (i * 7) % 7, i % 3))
            .collect();
        for strategy in [
            PredictionStrategy::NearestSlot,
            PredictionStrategy::SuccessorOfNearest,
            PredictionStrategy::LastValue,
            PredictionStrategy::MeanOfHistory,
        ] {
            let mut fast = predictor_with_history(history.clone()).with_strategy(strategy);
            let mut slow = fast.clone();
            for probe in &probes {
                let combined = fast.observe_and_predict(probe.clone());
                slow.observe_slot(probe.clone());
                let separate = slow.predict(probe);
                assert_eq!(combined, separate, "{strategy:?}");
                assert_eq!(fast, slow, "{strategy:?} predictor state");
            }
        }
    }

    /// A slot holding `users` in group 1 and user 7 in group 2.
    fn population(users: &[u32]) -> TimeSlot {
        let pairs = users.iter().map(|&u| (AccelerationGroupId(1), UserId(u)));
        TimeSlot::from_assignments(0, pairs.chain([(AccelerationGroupId(2), UserId(7))]))
    }

    #[test]
    fn observe_and_predict_skips_equal_counts_with_other_id_ranges() {
        let mut p = predictor_with_history(vec![
            population(&[0, 1, 2]),
            population(&[10, 11, 12]),
            population(&[1, 2, 3]),
        ]);
        let forecast = p.observe_and_predict(population(&[10, 11, 12])).unwrap();
        assert_eq!(forecast.matched_slot, Some(1));
        // no retained slot shares the probe's ranges: it matches itself
        let forecast = p.observe_and_predict(population(&[0, 1, 3])).unwrap();
        assert_eq!(forecast.matched_slot, Some(4));
    }

    #[test]
    fn observe_and_predict_compares_users_inside_equal_id_ranges() {
        // equal counts and equal (min, max) per group, one interior user
        // apart: not a twin
        let mut p = predictor_with_history(vec![population(&[0, 5, 9])]);
        let forecast = p.observe_and_predict(population(&[0, 6, 9])).unwrap();
        assert_eq!(forecast.matched_slot, Some(1));
        let forecast = p.observe_and_predict(population(&[0, 5, 9])).unwrap();
        assert_eq!(forecast.matched_slot, Some(0));
    }

    #[test]
    fn observe_and_predict_matches_the_earliest_twin_after_eviction() {
        let mut p = WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0).with_window(4);
        let (twin, near) = (population(&[0, 5, 9]), population(&[0, 6, 9]));
        let mut matched = Vec::new();
        for slot in [&twin, &near, &twin, &slot(4, 0, 0), &twin, &twin] {
            matched.push(p.observe_and_predict(slot.clone()).unwrap().matched_slot);
        }
        // global slot 0 leaves the window with the fifth slot: from then on
        // the earliest retained twin is global slot 2
        assert_eq!(p.history().first_index(), 2);
        let expected = [0, 1, 0, 3, 2, 2];
        assert_eq!(matched, expected.map(Some));
    }

    #[test]
    fn serial_scan_keeps_the_earliest_slot_on_ties() {
        // many identical slots: the naive scan returns the first minimum in
        // chronological order, and the seed and the walk must agree even
        // though every candidate has the same signature lower bound
        let p = predictor_with_history(vec![slot(5, 2, 1); 7]);
        for probe in [slot(5, 2, 1), slot(6, 2, 1), slot(0, 0, 0)] {
            let fast = p.predict(&probe).unwrap();
            let naive = p.predict_naive(&probe).unwrap();
            assert_eq!(fast, naive);
            assert_eq!(fast.matched_slot, Some(0));
        }
        // an exact match later in the history still loses to an equal-distance
        // earlier slot, but wins over strictly-worse earlier slots
        let p = predictor_with_history(vec![slot(9, 9, 9), slot(5, 2, 1), slot(5, 2, 1)]);
        let forecast = p.predict(&slot(5, 2, 1)).unwrap();
        assert_eq!(forecast.matched_slot, Some(1));
        assert_eq!(forecast, p.predict_naive(&slot(5, 2, 1)).unwrap());
    }

    #[test]
    fn serial_scan_stops_at_an_exact_seed_and_bounds_every_slot_once() {
        let history: Vec<TimeSlot> = (0..40u32).map(|i| slot(i + 1, i % 3, 0)).collect();
        // slot 11 is the probe itself, and the only slot of bound zero: the
        // seed is evaluated and nothing else
        let p = predictor_with_history(history.clone());
        assert_eq!(p.predict(&slot(12, 2, 0)).unwrap().matched_slot, Some(11));
        let stats = p.stats();
        assert_eq!(stats.candidates_bounded, 40);
        assert_eq!(stats.candidates_evaluated, 1);
        // no exact match: the walk runs over the bounds the seed pass
        // wrote, so each slot is still bounded once
        p.predict(&slot(12, 2, 5)).unwrap();
        let stats = p.stats();
        assert_eq!((stats.queries, stats.candidates_bounded), (2, 80));
        assert_eq!(stats.rings_walked, 0, "no tree, no node bounded");
    }

    #[test]
    fn mean_forecast_never_rounds_a_live_group_to_zero() {
        // regression: one user in group 1 over three slots averages to 1/3,
        // which `round()` silently truncated to a zero forecast for a group
        // the predictor had just observed
        let p = predictor_with_history(vec![slot(1, 0, 5), slot(0, 0, 5), slot(0, 0, 4)])
            .with_strategy(PredictionStrategy::MeanOfHistory);
        let forecast = p.predict(&slot(0, 0, 0)).unwrap();
        assert_eq!(forecast.load_of(AccelerationGroupId(1)), 1, "clamped to 1");
        // a group never observed still forecasts zero
        assert_eq!(forecast.load_of(AccelerationGroupId(2)), 0);
        // ordinary averages are untouched (14/3 rounds to 5)
        assert_eq!(forecast.load_of(AccelerationGroupId(3)), 5);
    }

    #[test]
    fn indexed_scan_is_bit_identical_to_serial_and_naive() {
        // near-duplicates and exact ties, so equal-distance candidates land
        // in different blocks
        let history: Vec<TimeSlot> = (0..160u32)
            .map(|i| slot(5 + (i * 7) % 13, (i * 3) % 5, (i * 5) % 4))
            .collect();
        let probes = [
            slot(9, 2, 1),
            slot(0, 0, 0),
            slot(12, 4, 3),
            slot(5, 0, 0),
            slot(300, 9, 2),
        ];
        for strategy in [
            PredictionStrategy::NearestSlot,
            PredictionStrategy::SuccessorOfNearest,
        ] {
            let serial = predictor_with_history(history.clone()).with_strategy(strategy);
            let indexed = serial
                .clone()
                .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(1));
            assert!(indexed.index_active(), "history is long enough");
            for probe in &probes {
                let forecast = indexed.predict(probe).unwrap();
                assert_eq!(
                    forecast,
                    serial.predict(probe).unwrap(),
                    "{strategy:?} vs serial"
                );
                assert_eq!(
                    forecast,
                    serial.predict_naive(probe).unwrap(),
                    "{strategy:?} vs naive"
                );
            }
        }
    }

    #[test]
    fn indexed_scan_keeps_the_earliest_slot_on_ties() {
        // identical slots: every block bounds the same, and the search must
        // still return the globally earliest one
        let p = predictor_with_history(vec![slot(4, 2, 1); 150])
            .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(1));
        assert!(p.index_active());
        for probe in [slot(4, 2, 1), slot(5, 2, 1), slot(0, 0, 0)] {
            let forecast = p.predict(&probe).unwrap();
            assert_eq!(forecast.matched_slot, Some(0));
            assert_eq!(forecast, p.predict_naive(&probe).unwrap());
        }
        // an exact match later in the history still loses to an equal-distance
        // earlier slot, but wins over strictly-worse earlier slots
        let p = predictor_with_history(vec![slot(9, 9, 9), slot(5, 2, 1), slot(5, 2, 1)])
            .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(1));
        let forecast = p.predict(&slot(5, 2, 1)).unwrap();
        assert_eq!(forecast.matched_slot, Some(1));
    }

    #[test]
    fn index_follows_window_eviction_and_keeps_global_indices() {
        let mut indexed = WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0)
            .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(2))
            .with_window(5);
        let mut plain = WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0).with_window(5);
        for i in 0..23u32 {
            let s = slot(3 + (i * 7) % 11, (i * 3) % 6, i % 3);
            indexed.observe_slot(s.clone());
            plain.observe_slot(s);
            let probe = slot(3 + (i * 5) % 11, (i * 2) % 6, (i + 1) % 3);
            assert_eq!(
                indexed.predict(&probe).unwrap(),
                plain.predict_naive(&probe).unwrap(),
                "step {i}"
            );
        }
        assert!(indexed.index_active());
        assert_eq!(indexed.history().len(), 5);
        assert_eq!(indexed.history().first_index(), 18);
    }

    #[test]
    fn index_gates_on_threshold_and_policy() {
        let history: Vec<TimeSlot> = (0..10u32).map(|i| slot(i + 1, 0, 0)).collect();
        // linear policy: no index
        let p = predictor_with_history(history.clone());
        assert!(!p.index_active());
        // below the build threshold the linear scans keep running
        let p = predictor_with_history(history.clone())
            .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(50));
        assert!(!p.index_active());
        assert_eq!(
            p.predict(&slot(3, 0, 0)).unwrap(),
            p.predict_naive(&slot(3, 0, 0)).unwrap()
        );
        // at the threshold the tree takes over
        let p = predictor_with_history(history.clone())
            .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(10));
        assert!(p.index_active());
        assert_eq!(
            p.predict(&slot(3, 0, 0)).unwrap(),
            p.predict_naive(&slot(3, 0, 0)).unwrap()
        );
    }

    /// A predictor whose caches were recomputed from the retained slots
    /// alone: derived equality makes `==` against it compare the
    /// signatures and the summary tree field by field.
    fn recomputed(p: &WorkloadPredictor) -> WorkloadPredictor {
        let mut fresh = p.clone();
        fresh.rebuild_signatures();
        fresh
    }

    #[test]
    fn derived_caches_always_equal_a_from_scratch_recompute() {
        let policy = IndexPolicy::indexed().with_min_indexed_slots(3);
        let load = |i: u32| slot(3 + (i * 7) % 11, (i * 3) % 6, i % 3);
        let mut p = WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0).with_index_policy(policy);
        for i in 0..200 {
            p.observe_slot(load(i));
        }
        assert!(p.index_active());
        assert_eq!(p, recomputed(&p), "grown by observe_slot");

        // a window shrink evicts into the middle of a block: the first block
        // is partial and must be refolded from its survivors
        p.set_window(Some(100));
        assert_eq!(p.history().first_index(), 100);
        assert_eq!(p, recomputed(&p), "after a shrink");
        for i in 200..330 {
            p.observe_slot(load(i));
            assert_eq!(p, recomputed(&p), "windowed eviction, step {i}");
        }

        // a checkpoint taken with a partial first block restores to the live
        // predictor, tree included
        assert_eq!(p.history().first_index() % 64, 38);
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        let restored = WorkloadPredictor::decode(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(restored, p);
        assert_eq!(restored.stats(), p.stats(), "the decode counts no build");

        // a policy change drops the tree and re-arming rebuilds it
        p.set_index_policy(IndexPolicy::linear());
        assert!(!p.index_active());
        p.set_index_policy(policy);
        assert_eq!(p, recomputed(&p), "policy re-armed");

        // shrinking below the threshold drops the tree, as a restore would
        p.set_window(Some(2));
        assert!(!p.index_active());
        assert_eq!(p, recomputed(&p));
        p.set_window(None);

        // migration: the history leaves one predictor and seeds another
        for i in 330..400 {
            p.observe_slot(load(i));
        }
        let history = p.take_history();
        assert!(!p.index_active());
        assert_eq!(p, recomputed(&p), "donor after take_history");
        let mut receiver =
            WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0).with_index_policy(policy);
        receiver.observe_slot(load(0));
        receiver.set_history(history);
        assert!(receiver.index_active());
        assert_eq!(
            receiver,
            recomputed(&receiver),
            "receiver after set_history"
        );
        let probe = load(7);
        assert_eq!(
            receiver.predict(&probe).unwrap(),
            receiver.predict_naive(&probe).unwrap()
        );
    }

    /// Global indices of the slots below `node` of `level`.
    fn members(tree: &SummaryTree, level: usize, node: usize) -> Range<usize> {
        let children = tree.children(level, node);
        match level {
            0 => children,
            _ => {
                members(tree, level - 1, children.start).start
                    ..members(tree, level - 1, children.end - 1).end
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The chain the tree search rests on: a node's envelope bound
        /// never exceeds the signature bound of any slot below it, which
        /// never exceeds that slot's true distance.
        /// The history cycles through a small pool of slots — empty groups
        /// (the `(u32::MAX, 0)` id-range sentinel) and the empty slot
        /// included — long enough for partial first blocks (the window) and,
        /// at the larger sizes, a second level.
        #[test]
        fn summary_bound_never_exceeds_signature_bound_nor_true_distance(
            pool in proptest::collection::vec(
                proptest::collection::vec((1u8..4, 0u32..400), 0..9),
                1..7,
            ),
            probe in proptest::collection::vec((1u8..4, 0u32..400), 0..9),
            len in proptest::sample::select(vec![1usize, 64, 65, 200, 4_097, 4_300]),
            evicted in 0usize..70,
        ) {
            let slot_of = |pairs: &Vec<(u8, u32)>| {
                TimeSlot::from_assignments(
                    0,
                    pairs.iter().map(|&(g, u)| (AccelerationGroupId(g), UserId(u))),
                )
            };
            let mut p = WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0)
                .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(1))
                .with_window(len);
            for i in 0..len + evicted {
                // a stride coprime to the pool sizes, so blocks mix the pool
                p.observe_slot(slot_of(&pool[(i * 7 + i / 64) % pool.len()]));
            }
            let probe = slot_of(&probe);
            let counts: Vec<usize> = GROUPS.iter().map(|g| probe.load_of(*g)).collect();
            let ranges: Vec<(u32, u32)> =
                GROUPS.iter().map(|g| id_range(probe.users_in(*g))).collect();
            let tree = p.summaries.as_ref().expect("threshold 1");
            let first = p.history().first_index();
            proptest::prop_assert_eq!(first, evicted);
            proptest::prop_assert_eq!(tree.depth(), if len > 4_096 { 2 } else { 1 });
            let slot_bounds: Vec<usize> = (0..len)
                .map(|position| p.caches().signature_bound(&counts, &ranges, position))
                .collect();
            for (position, bound) in slot_bounds.iter().enumerate() {
                let distance = p.distance_between(&probe, p.history().slot(position));
                proptest::prop_assert!(*bound <= distance, "slot {position}: {bound} > {distance}");
            }
            for level in 0..tree.depth() {
                let mut covered = first;
                for node in tree.nodes(level) {
                    let below = members(tree, level, node);
                    proptest::prop_assert_eq!(below.start, covered, "nodes tile the history");
                    proptest::prop_assert_eq!(below.start, tree.first_slot(level, node));
                    covered = below.end;
                    let tightest = below.map(|global| slot_bounds[global - first]).min();
                    let bound = tree.node_bound(level, node, &counts, &ranges);
                    proptest::prop_assert!(
                        Some(bound) <= tightest,
                        "level {level} node {node}: {bound} > {tightest:?}"
                    );
                }
                proptest::prop_assert_eq!(covered, first + len);
            }
        }
    }

    /// The serial scan as it ran before each query kept its bounds: one
    /// pass seeds on the earliest least signature bound, then, unless the
    /// seed is exact, a second pass walks every other slot chronologically
    /// and bounds it again. The refute, cap and tie rules are spelled out
    /// here rather than shared. Returns the matched position and the
    /// distances evaluated.
    fn two_pass_scan(p: &WorkloadPredictor, current: &TimeSlot) -> (usize, u64) {
        let counts: Vec<usize> = p.groups.iter().map(|g| current.load_of(*g)).collect();
        let ranges: Vec<(u32, u32)> = p
            .groups
            .iter()
            .map(|g| id_range(current.users_in(*g)))
            .collect();
        let bound = |position| p.caches().signature_bound(&counts, &ranges, position);
        // (distance, position, evaluated) of the incumbent
        let consider = |best: &mut (usize, usize, u64), position: usize, lower_bound: usize| {
            let (distance, at, evaluated) = best;
            if lower_bound > *distance || (lower_bound == *distance && position > *at) {
                return;
            }
            let cap = if position < *at {
                *distance
            } else {
                *distance - 1
            };
            *evaluated += 1;
            let candidate = p.history.slot(position);
            if let Some(found) = slot_distance_bounded(current, candidate, &p.groups, cap) {
                (*distance, *at) = (found, position);
            }
        };
        let len = p.history.len();
        let (seed, seed_bound) = (0..len)
            .map(|position| (position, bound(position)))
            .min_by_key(|&(_, lower_bound)| lower_bound)
            .expect("a non-empty history");
        let mut best = (usize::MAX, usize::MAX, 0);
        consider(&mut best, seed, seed_bound);
        if best.0 > 0 {
            for position in (0..len).filter(|&position| position != seed) {
                consider(&mut best, position, bound(position));
            }
        }
        (best.1, best.2)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The serial scan bounds each retained slot once and matches, query
        /// by query, the slot and the evaluation count of the two-pass scan
        /// that bounded every slot twice. Each step is probed before it is
        /// observed. Slots come from few counts and spacings, so many share
        /// a bound; the ids of slot `i` start at `i * drift` (a stationary
        /// population at zero); the window evicts, and the predictor is
        /// checkpointed and restored midway.
        #[test]
        fn serial_scan_matches_the_two_pass_reference(
            steps in proptest::collection::vec((0u32..5, 0u32..5, 0u32..3), 1..120),
            drift in proptest::sample::select(vec![0u32, 1, 7]),
            window in proptest::sample::select(vec![None, Some(1usize), Some(16), Some(50)]),
        ) {
            let slot_of = |index: usize, &(n1, n2, spacing): &(u32, u32, u32)| {
                let start = index as u32 * drift;
                let run = move |group: u8, count: u32| {
                    (0..count * 3).map(move |k| {
                        let user = UserId(u32::from(group) * 100_000 + start + k * (1 + spacing));
                        (AccelerationGroupId(group), user)
                    })
                };
                TimeSlot::from_assignments(0, run(1, n1).chain(run(2, n2)).chain(run(3, n1 % 2)))
            };
            let mut p = WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0);
            p.set_window(window);
            for (index, step) in steps.iter().enumerate() {
                let probe = slot_of(index, step);
                if !p.history().is_empty() {
                    let before = p.stats();
                    let forecast = p.predict(&probe).unwrap();
                    let after = p.stats();
                    let (position, evaluated) = two_pass_scan(&p, &probe);
                    let first = p.history().first_index();
                    proptest::prop_assert_eq!(forecast.matched_slot, Some(first + position));
                    proptest::prop_assert_eq!(
                        after.candidates_evaluated - before.candidates_evaluated,
                        evaluated
                    );
                    proptest::prop_assert_eq!(
                        after.candidates_bounded - before.candidates_bounded,
                        p.history().len() as u64
                    );
                }
                p.observe_slot(probe);
                if index == steps.len() / 2 {
                    let mut bytes = Vec::new();
                    p.encode(&mut bytes);
                    let restored = WorkloadPredictor::decode(&mut Cursor::new(&bytes)).unwrap();
                    proptest::prop_assert_eq!(&restored, &p);
                    p = restored;
                }
            }
        }
    }

    #[test]
    fn take_history_hands_off_the_knowledge_base() {
        let mut donor = predictor_with_history(vec![slot(3, 0, 0), slot(7, 1, 0)]).with_window(8);
        let history = donor.take_history();
        assert_eq!(history.len(), 2);
        assert_eq!(history.window(), Some(8));
        // the donor keeps its configuration but forgets its knowledge base
        assert!(donor.history().is_empty());
        assert_eq!(donor.history().window(), Some(8));
        assert_eq!(
            donor.predict(&slot(3, 0, 0)).unwrap_err(),
            CoreError::EmptyHistory
        );
        // the receiving predictor picks up exactly where the donor stopped
        let mut receiver = WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0);
        receiver.set_history(history);
        let forecast = receiver.predict(&slot(3, 0, 0)).unwrap();
        assert_eq!(forecast.matched_slot, Some(0));
        assert_eq!(forecast.load_of(AccelerationGroupId(1)), 3);
    }

    #[test]
    fn stats_count_queries_but_never_affect_equality() {
        let mut p = predictor_with_history(vec![slot(3, 0, 0), slot(7, 1, 0), slot(5, 2, 1)]);
        let untouched = p.clone();
        assert_eq!(p.stats(), PredictorStatsSnapshot::default());

        p.predict(&slot(4, 1, 0)).unwrap();
        let after_one = p.stats();
        assert_eq!(after_one.queries, 1);
        assert_eq!(after_one.candidates_bounded, 3);
        assert!(after_one.candidates_evaluated >= 1);

        p.observe_and_predict(slot(4, 1, 0)).unwrap();
        assert_eq!(p.stats().fast_predictions, 1);
        // the fast path resolves by signature equality: no new scan query
        assert_eq!(p.stats().queries, 1);

        // stats are observability data, not semantic state: the probed
        // predictor still equals one that never answered a query (modulo the
        // slot the fast path observed, which we remove again)
        let probed = untouched.clone();
        probed.predict(&slot(4, 1, 0)).unwrap();
        assert_eq!(probed, untouched);
        assert_ne!(probed.stats(), untouched.stats());
    }

    #[test]
    fn stats_snapshots_are_identical_across_scan_paths() {
        let history: Vec<TimeSlot> = (0..64u32).map(|i| slot(i % 7 + 1, i % 5, i % 3)).collect();
        let probe = slot(4, 2, 1);

        let serial = predictor_with_history(history.clone());
        serial.predict(&probe).unwrap();

        // the linear path bounds every candidate exactly once per query
        assert_eq!(serial.stats().candidates_bounded, 64);
        assert_eq!(serial.stats().queries, 1);

        // the tree path reports the nodes it bounded and the tree's build
        let indexed = predictor_with_history(history)
            .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(1));
        indexed.predict(&probe).unwrap();
        let stats = indexed.stats();
        assert_eq!(stats.index_builds, 1);
        assert_eq!(stats.index_rebuilds, 0);
        assert_eq!(
            stats.rings_walked, 1,
            "one block, bounded by the seeding descent"
        );
        assert_eq!(stats.candidates_bounded, 64);
        assert!(stats.candidates_bounded >= stats.candidates_evaluated);
        assert!(stats.candidates_evaluated >= 1);
    }

    /// Indexed (from one slot on) and serial predictors over `history`.
    fn indexed_and_serial(history: &[TimeSlot]) -> (WorkloadPredictor, WorkloadPredictor) {
        let serial = predictor_with_history(history.to_vec());
        let indexed = serial
            .clone()
            .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(1));
        assert!(indexed.index_active());
        (indexed, serial)
    }

    #[test]
    fn an_earlier_slot_tied_with_the_best_aligned_seed_wins() {
        // both candidates bound 0 and sit 2 from the probe; the later one
        // lines up with the probe's range (10, 13) and seeds the search
        let probe = population(&[10, 11, 12, 13]);
        let misaligned = population(&[5, 11, 12, 13]);
        let aligned = population(&[10, 11, 12, 14]);
        let far = population(&[1_000, 1_001, 1_002, 1_003]);
        // one block, then a block apart: the seed block's own scan and the
        // walk must each let the earlier tie win
        let apart: Vec<TimeSlot> = std::iter::once(misaligned.clone())
            .chain(std::iter::repeat_n(far, 100))
            .chain(std::iter::once(aligned.clone()))
            .collect();
        for history in [vec![misaligned, aligned], apart] {
            let (indexed, serial) = indexed_and_serial(&history);
            let forecast = indexed.predict(&probe).unwrap();
            assert_eq!(forecast.matched_slot, Some(0));
            assert_eq!(forecast, serial.predict(&probe).unwrap());
            assert_eq!(forecast, serial.predict_naive(&probe).unwrap());
            assert_eq!(
                indexed.stats().candidates_evaluated,
                2,
                "seed, then the tie"
            );
        }
    }

    #[test]
    fn a_best_aligned_seed_that_is_not_the_nearest_slot_loses() {
        // both bound 0 against the probe's range (10, 16): `aligned` shares
        // that range exactly but sits 4 away, `nearest` ends one id later
        // and sits 2 away
        let probe = population(&[10, 12, 14, 16]);
        let aligned = population(&[10, 11, 15, 16]);
        let nearest = population(&[10, 12, 14, 17]);
        let far = population(&[1_000, 1_001, 1_002, 1_003]);
        let gap = || std::iter::repeat_n(far.clone(), 100);
        let histories = [
            (vec![aligned.clone(), nearest.clone()], 1),
            (vec![nearest.clone(), aligned.clone()], 0),
            (
                gap()
                    .chain([aligned.clone()])
                    .chain(gap())
                    .chain([nearest.clone()])
                    .collect(),
                201,
            ),
            (
                gap()
                    .chain([nearest])
                    .chain(gap())
                    .chain([aligned])
                    .collect(),
                100,
            ),
        ];
        for (history, at) in histories {
            let (indexed, serial) = indexed_and_serial(&history);
            let forecast = indexed.predict(&probe).unwrap();
            assert_eq!(forecast.matched_slot, Some(at));
            assert_eq!(forecast, serial.predict(&probe).unwrap());
            assert_eq!(forecast, serial.predict_naive(&probe).unwrap());
            assert_eq!(
                indexed.stats().candidates_evaluated,
                2,
                "seed, then the nearest"
            );
        }
    }

    /// The summary tree's node count over all levels.
    fn tree_nodes(p: &WorkloadPredictor) -> u64 {
        let tree = p.summaries.as_ref().expect("a kept tree");
        (0..tree.depth())
            .map(|level| tree.nodes(level).len() as u64)
            .sum()
    }

    #[test]
    fn a_tree_query_that_refutes_nothing_bounds_every_node_once() {
        // every slot bounds 0 against the probe (equal counts, equal id
        // ranges) but sits 4 away, so no node is ever refuted: 66 blocks
        // under 2 top-level nodes, each bounded exactly once, whether the
        // descent or the walk bounded it
        let history = vec![population(&[0, 2, 4, 6]); 4_200];
        let (indexed, _) = indexed_and_serial(&history);
        let probe = population(&[0, 3, 5, 6]);
        assert_eq!(indexed.predict(&probe).unwrap().matched_slot, Some(0));
        let stats = indexed.stats();
        assert_eq!(tree_nodes(&indexed), 68);
        assert_eq!(stats.rings_walked, 68);
        assert_eq!(stats.candidates_bounded, 4_200, "every slot, once");
    }

    /// SplitMix64: the deterministic stream of the drifting histories.
    fn split_mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The population of `epoch` in the shape of the end-to-end
    /// `forecast_indexed` workload: per group a window of ids that slides by
    /// one id per epoch while the load swings ±25 % around 48 users over a
    /// 24-slot day, with 2 % of the ids churned up to 49 ids ahead.
    fn drifting(epoch: usize, rng: &mut u64) -> TimeSlot {
        let phase = (epoch % 24) as f64 / 24.0 * std::f64::consts::TAU;
        let load = (48.0 * (1.0 + 0.25 * phase.sin())).round() as u32;
        let mut pairs = Vec::new();
        for (g, &group) in GROUPS.iter().enumerate() {
            let base = g as u32 * 100_000_000 + epoch as u32;
            for u in 0..load {
                let churn = match split_mix(rng) % 50 {
                    0 => 1 + (split_mix(rng) % 49) as u32,
                    _ => 0,
                };
                pairs.push((group, UserId(base + u + churn)));
            }
        }
        TimeSlot::from_assignments(epoch, pairs)
    }

    /// The counted work gate of the tree query: on a 20,000-slot drifting
    /// history, 70 % of the probes resemble the next slot and 30 % revisit
    /// a random old epoch, with an observe every fourth query. The counts
    /// repeat exactly. The aligned descent and seed slot spend 6.1
    /// evaluations a query here; seeding on the first block of least bound
    /// but from its best slot spends 9.6, and scanning that block from its
    /// start 43.7. No query bounds more nodes than the tree holds.
    #[test]
    fn tree_query_seeds_near_the_answer_on_a_drifting_history() {
        let mut rng = 42;
        let mut p = WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0)
            .with_index_policy(IndexPolicy::indexed());
        for epoch in 0..20_000 {
            p.observe_slot(drifting(epoch, &mut rng));
        }
        assert!(p.index_active());
        // (queries, evaluations, nodes bounded) of the next-slot and the
        // revisiting probes
        let mut work = [(0u64, 0u64, 0u64); 2];
        for round in 0..400 {
            let len = p.history().len();
            let revisit = split_mix(&mut rng) % 10 < 3;
            let epoch = match revisit {
                true => split_mix(&mut rng) as usize % len,
                false => len,
            };
            let probe = drifting(epoch, &mut rng);
            let before = p.stats();
            let forecast = p.predict(&probe).unwrap();
            let after = p.stats();
            let nodes = after.rings_walked - before.rings_walked;
            assert!(
                nodes <= tree_nodes(&p),
                "round {round}: {nodes} nodes bounded"
            );
            let kind = &mut work[usize::from(revisit)];
            kind.0 += 1;
            kind.1 += after.candidates_evaluated - before.candidates_evaluated;
            kind.2 += nodes;
            if round % 50 == 0 {
                let indexed = p.index_policy();
                p.set_index_policy(IndexPolicy::linear());
                assert_eq!(forecast, p.predict(&probe).unwrap(), "round {round}");
                p.set_index_policy(indexed);
            }
            if round % 4 == 3 {
                p.observe_slot(drifting(len, &mut rng));
            }
        }
        let per_query = |(queries, total): (u64, u64)| total as f64 / queries as f64;
        let evaluated = per_query((work[0].0 + work[1].0, work[0].1 + work[1].1));
        for (kind, (queries, evaluations, nodes)) in ["next", "revisit"].iter().zip(work) {
            println!(
                "{kind}: {queries} queries, {:.2} evaluations and {:.1} nodes per query",
                per_query((queries, evaluations)),
                per_query((queries, nodes)),
            );
        }
        assert!(evaluated <= 8.0, "{evaluated:.2} evaluations per query");
    }

    /// A slot at the diurnal phase of `epoch`: per group a window of ids
    /// whose load swings ±25 % around 48 users over a 24-slot day, slid by
    /// `drift` (one id per epoch; `0` holds it still, so the population is
    /// stationary), with 2 % of the ids churned up to 49 ids ahead.
    fn diurnal(epoch: usize, drift: usize, rng: &mut StdRng) -> TimeSlot {
        let phase = (epoch % 24) as f64 / 24.0 * std::f64::consts::TAU;
        let load = (48.0 * (1.0 + 0.25 * phase.sin())).round() as u32;
        let mut pairs = Vec::new();
        for (g, &group) in GROUPS.iter().enumerate() {
            let base = (g * 1_000_000 + drift) as u32;
            for u in 0..load {
                let churn = match rng.gen_bool(0.02) {
                    true => rng.gen_range(1u32..50),
                    false => 0,
                };
                pairs.push((group, UserId(base + u + churn)));
            }
        }
        TimeSlot::from_assignments(epoch, pairs)
    }

    /// Grows `p` by `observe_slot` to `slots` slots of [`diurnal`] and asks
    /// it `probes` fresh probes, 30 % of them revisiting a random old epoch
    /// and the rest resembling the next slot, after one warm-up query.
    /// Returns the distance evaluations and the tree nodes bounded by those
    /// probes. Every 50th probe is answered again by the serial scan, and the
    /// first three of those by the naive scan: all three agree.
    fn tree_work(
        p: &mut WorkloadPredictor,
        slots: usize,
        stationary: bool,
        probes: usize,
        rng: &mut StdRng,
    ) -> (u64, u64) {
        let drift = |epoch: usize| if stationary { 0 } else { epoch };
        for epoch in p.history().len()..slots {
            p.observe_slot(diurnal(epoch, drift(epoch), rng));
        }
        assert!(p.index_active());
        let probes: Vec<TimeSlot> = (0..probes)
            .map(|_| {
                let epoch = match rng.gen_bool(0.3) {
                    true => rng.gen_range(0..slots),
                    false => slots,
                };
                diurnal(epoch, drift(epoch), rng)
            })
            .collect();
        p.predict(&probes[0]).unwrap();
        let before = p.stats();
        let forecasts: Vec<WorkloadForecast> = probes
            .iter()
            .map(|probe| p.predict(probe).unwrap())
            .collect();
        let after = p.stats();
        let indexed = p.index_policy();
        p.set_index_policy(IndexPolicy::linear());
        for (checked, at) in (0..probes.len()).step_by(50).enumerate() {
            assert_eq!(p.predict(&probes[at]).unwrap(), forecasts[at], "probe {at}");
            if checked < 3 {
                assert_eq!(p.predict_naive(&probes[at]).unwrap(), forecasts[at]);
            }
        }
        p.set_index_policy(indexed);
        (
            after.candidates_evaluated - before.candidates_evaluated,
            after.rings_walked - before.rings_walked,
        )
    }

    /// The counted work of the tree query where it can refute least: a
    /// stationary population, whose slots share one id window, so no
    /// envelope separates one stretch of history from another. 200 probes on
    /// 2,000 slots; the counts repeat exactly. (At 100,000 slots and 1,000
    /// probes, grown after a drifting sweep to 1,000,000 slots on the same
    /// stream, the same protocol evaluates 6,671.81 candidates and bounds
    /// 1,316.8 nodes per query; the drifting sweep, 2.55–3.24 and 57–84.)
    #[test]
    fn tree_query_on_a_stationary_history_evaluates_what_it_cannot_refute() {
        let mut rng = StdRng::seed_from_u64(20170605);
        let mut p = WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0)
            .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(1));
        assert_eq!(
            tree_work(&mut p, 2_000, true, 200, &mut rng),
            (48_126, 6_400)
        );
    }

    #[test]
    fn checkpoint_payload_is_history_strategy_groups_policy_and_seven_counters() {
        let p = predictor_with_history(vec![slot(3, 0, 0), slot(7, 1, 0), slot(5, 2, 1)])
            .with_strategy(PredictionStrategy::SuccessorOfNearest)
            .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(2));
        p.predict(&slot(4, 1, 0)).unwrap();
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        let mut cur = Cursor::new(&bytes);
        assert_eq!(&SlotHistory::decode(&mut cur).unwrap(), p.history());
        assert_eq!(PredictionStrategy::decode(&mut cur).unwrap(), p.strategy());
        assert_eq!(
            Vec::<AccelerationGroupId>::decode(&mut cur).unwrap(),
            GROUPS
        );
        assert_eq!(IndexPolicy::decode(&mut cur).unwrap(), p.index_policy());
        let stats = p.stats();
        for counter in [
            stats.queries,
            stats.fast_predictions,
            stats.rings_walked,
            stats.candidates_bounded,
            stats.candidates_evaluated,
            stats.index_builds,
            stats.index_rebuilds,
        ] {
            assert_eq!(u64::decode(&mut cur).unwrap(), counter);
        }
        assert!(cur.is_empty(), "{} bytes left over", cur.remaining());
    }

    #[test]
    fn window_keeps_signatures_aligned_after_set_history() {
        let mut donor = SlotHistory::new(3_600_000.0);
        for i in 0..5u32 {
            donor.push(slot(i + 1, 0, 0));
        }
        let mut p = WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0);
        p.set_history(donor);
        p.set_window(Some(2));
        assert_eq!(p.history().len(), 2);
        let forecast = p.predict(&slot(4, 0, 0)).unwrap();
        assert_eq!(forecast.matched_slot, Some(3));
        assert_eq!(forecast.load_of(AccelerationGroupId(1)), 4);
    }
}
