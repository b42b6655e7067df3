//! The block-summary tree over the predictor's slot signatures.
//!
//! # The envelope invariant
//!
//! The predictor keeps, for every retained slot and group, a *signature*:
//! the user count and the `(min, max)` user id of the group's sorted run.
//! From two signatures alone `group_bound` lower-bounds the group's edit
//! distance — two sorted deduplicated runs share at most
//! `min(|A|, |B|, range overlap)` ids — and the linear scans use that bound
//! to skip candidates without touching their user lists.
//!
//! The tree summarises those signatures so whole stretches of history are
//! skipped without touching even their signatures. Slots are grouped into
//! **blocks** of 64 consecutive *global* slot indices (block `b`
//! covers indices `64 b .. 64 b + 64`), blocks into level-1 nodes of 64
//! blocks, and so on; a level is added while the one below it holds more
//! than 64 nodes. Every node stores, per group, the **envelope** of its
//! members: `(min count, max count, min id, max id)`. Because every member's
//! id range lies inside the envelope's and its count inside
//! `[min count, max count]`, evaluating `group_bound` at the most
//! favourable count of that interval against the envelope's range overlap
//! never exceeds any member's own signature bound (the bound is convex in
//! the candidate's count, so the interval's minimum sits at the clamped
//! unconstrained minimum). A node whose bound cannot beat the incumbent
//! therefore refutes every slot below it.
//!
//! The envelope's id range also says *where* in the id space a stretch of
//! history sits. Among the nodes that tie at the least bound, the query
//! descends into the one whose range lines up best with the probe's
//! (`range_misalignment`). That choice only orders the search; it never
//! refutes a node.
//!
//! Envelopes are minima and maxima, so appending a slot touches one node per
//! level — `O(groups × depth)` — and a window eviction drops whole nodes and
//! refolds only the partial first node of each level from its survivors.
//! The tree is a pure function of the retained signatures: it is rebuilt on
//! restore like the signatures themselves and never written to a
//! checkpoint.

use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};
use std::ops::Range;

/// Whether (and from which history length) the predictor's nearest-slot
/// search descends the block-summary tree.
///
/// This is purely a performance knob: the tree search returns bit-identical
/// forecasts to the serial scan, because a summary bound only ever
/// *refutes* candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexPolicy {
    /// Retained history length from which the tree is kept and queried
    /// (`None` never builds it). Below it the serial seed-then-walk scan runs.
    pub min_indexed_slots: Option<usize>,
}

impl IndexPolicy {
    /// Default build threshold: histories below ~4k slots stay on the
    /// serial scan.
    pub const DEFAULT_MIN_INDEXED_SLOTS: usize = 4096;

    /// The linear policy (the default): never build the tree.
    pub fn linear() -> Self {
        Self {
            min_indexed_slots: None,
        }
    }

    /// Builds the tree once the history reaches the default threshold.
    pub fn indexed() -> Self {
        Self::linear().with_min_indexed_slots(Self::DEFAULT_MIN_INDEXED_SLOTS)
    }

    /// Builds the tree once the history reaches `min_indexed_slots`.
    pub fn with_min_indexed_slots(mut self, min_indexed_slots: usize) -> Self {
        self.min_indexed_slots = Some(min_indexed_slots);
        self
    }

    /// Whether this policy ever builds the tree.
    pub fn is_indexed(&self) -> bool {
        self.min_indexed_slots.is_some()
    }
}

impl Default for IndexPolicy {
    fn default() -> Self {
        Self::linear()
    }
}

impl Snapshot for IndexPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        self.min_indexed_slots.encode(out);
    }
}

impl Restore for IndexPolicy {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            min_indexed_slots: Option::<usize>::decode(cur)?,
        })
    }
}

/// Upper bound on how many ids two sorted, deduplicated runs with the given
/// `(min, max)` ranges can share: the number of integers in the overlap of
/// the ranges (zero when either run is empty — the `(u32::MAX, 0)` sentinel
/// — or the ranges are disjoint). Branchless: an empty run on either side
/// makes `low > high`, like disjoint ranges do, and in a 64-bit `usize`
/// neither `high + 1` nor the saturating difference can wrap.
pub(crate) fn range_overlap(a: (u32, u32), b: (u32, u32)) -> usize {
    let low = a.0.max(b.0) as usize;
    let high = a.1.min(b.1) as usize;
    (high + 1).saturating_sub(low)
}

/// Lower bound on one group's edit distance between runs of `ca` and `cb`
/// users whose id ranges overlap in `overlap` integers. With
/// `shared = min(ca, cb, overlap)` an upper bound on the ids the runs can
/// have in common, the distance is at least `ca + cb - 2 * shared`, which
/// reduces to the count difference when the ranges fully overlap and
/// refutes drifted-apart populations outright when they do not.
pub(crate) fn group_bound(ca: usize, cb: usize, overlap: usize) -> usize {
    let shared = ca.min(cb).min(overlap);
    ca + cb - 2 * shared
}

/// How far apart two `(min, max)` id ranges sit: the distance between
/// their minima plus the distance between their maxima. Unlike
/// [`range_overlap`] it bounds nothing; it only orders candidates of equal
/// bound by how closely their ranges line up with the probe's.
pub(crate) fn range_misalignment(a: (u32, u32), b: (u32, u32)) -> u64 {
    u64::from(a.0.abs_diff(b.0)) + u64::from(a.1.abs_diff(b.1))
}

/// Slots per block and children per inner node.
pub(crate) const FANOUT: usize = 64;
const FANOUT_BITS: u32 = FANOUT.trailing_zeros();

/// Global-index shift from a slot to its node at `level`.
fn shift(level: usize) -> u32 {
    FANOUT_BITS * (level as u32 + 1)
}

/// The envelope of one group over a node's member slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Envelope {
    min_count: usize,
    max_count: usize,
    min_id: u32,
    max_id: u32,
}

impl Envelope {
    /// The envelope of no slots: absorbing anything replaces it. Its id
    /// range is the empty-run sentinel, which an empty run leaves untouched.
    const EMPTY: Self = Self {
        min_count: usize::MAX,
        max_count: 0,
        min_id: u32::MAX,
        max_id: 0,
    };

    fn of_slot(count: usize, id_range: (u32, u32)) -> Self {
        Self {
            min_count: count,
            max_count: count,
            min_id: id_range.0,
            max_id: id_range.1,
        }
    }

    fn absorb(&mut self, other: Envelope) {
        self.min_count = self.min_count.min(other.min_count);
        self.max_count = self.max_count.max(other.max_count);
        self.min_id = self.min_id.min(other.min_id);
        self.max_id = self.max_id.max(other.max_id);
    }
}

/// One level of the tree: the envelopes of consecutive nodes, `group_count`
/// entries per node, starting at node number `first_node` (a node's number
/// is its first global slot index shifted down by the level's [`shift`]).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Level {
    first_node: usize,
    envelopes: Vec<Envelope>,
}

impl Level {
    /// Makes room for every node up to `last_node` at once, so a build
    /// allocates each level once however many slots it covers.
    fn reserve_through(&mut self, last_node: usize, group_count: usize) {
        let needed = (last_node + 1 - self.first_node) * group_count;
        self.envelopes
            .reserve(needed.saturating_sub(self.envelopes.len()));
    }

    /// Folds one member's per-group envelopes into `node`, which is either
    /// a stored node or the next one to append.
    fn absorb(&mut self, node: usize, member: impl ExactSizeIterator<Item = Envelope>) {
        let group_count = member.len();
        let at = (node - self.first_node) * group_count;
        debug_assert!(at <= self.envelopes.len());
        if at == self.envelopes.len() {
            self.envelopes
                .extend(std::iter::repeat_n(Envelope::EMPTY, group_count));
        }
        for (envelope, member) in self.envelopes[at..].iter_mut().zip(member) {
            envelope.absorb(member);
        }
    }
}

/// The block-summary tree. See the module docs for the invariant;
/// [`crate::predictor::WorkloadPredictor`] owns one while its
/// [`IndexPolicy`] and history length call for it and keeps it aligned with
/// the signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SummaryTree {
    group_count: usize,
    /// Global index of the first covered slot.
    first_index: usize,
    /// Number of covered slots.
    len: usize,
    /// `levels[0]` holds the blocks; the last level holds at most
    /// [`FANOUT`] nodes.
    levels: Vec<Level>,
}

impl SummaryTree {
    /// Builds the tree over the flat signatures (`group_count` entries per
    /// slot) of the slots from global index `first_index` on.
    pub(crate) fn build(
        group_count: usize,
        first_index: usize,
        counts: &[usize],
        id_ranges: &[(u32, u32)],
    ) -> Self {
        debug_assert!(group_count > 0);
        let mut tree = Self::empty(group_count, first_index);
        tree.sync(first_index, counts, id_ranges);
        tree
    }

    /// The tree over no slots, the next one being `first_index`.
    fn empty(group_count: usize, first_index: usize) -> Self {
        Self {
            group_count,
            first_index,
            len: 0,
            levels: vec![Level {
                first_node: first_index >> shift(0),
                envelopes: Vec::new(),
            }],
        }
    }

    /// Brings the tree in line with the signatures after the history
    /// evicted from the front (up to `first_index`) and grew at the back.
    pub(crate) fn sync(&mut self, first_index: usize, counts: &[usize], id_ranges: &[(u32, u32)]) {
        let group_count = self.group_count;
        debug_assert_eq!(counts.len(), id_ranges.len());
        let signature = |global: usize| {
            let at = (global - first_index) * group_count;
            counts[at..at + group_count]
                .iter()
                .zip(&id_ranges[at..at + group_count])
                .map(|(count, id_range)| Envelope::of_slot(*count, *id_range))
        };
        let mut covered_end = self.first_index + self.len;
        if first_index >= covered_end {
            // nothing covered survives (a window of one slot evicts it all)
            *self = Self::empty(group_count, first_index);
            covered_end = first_index;
        } else if first_index > self.first_index {
            self.first_index = first_index;
            for level in 0..self.levels.len() {
                let (below, here) = self.levels.split_at_mut(level);
                let here = &mut here[0];
                let node = first_index >> shift(level);
                here.envelopes
                    .drain(..(node - here.first_node) * group_count);
                here.first_node = node;
                // refold the (possibly partial) first node from its survivors
                here.envelopes[..group_count].fill(Envelope::EMPTY);
                match below.last() {
                    None => {
                        let block_end = ((node + 1) << shift(0)).min(covered_end);
                        for global in first_index..block_end {
                            here.absorb(node, signature(global));
                        }
                    }
                    Some(below) => {
                        for child in below
                            .envelopes
                            .chunks_exact(group_count)
                            .take(((node + 1) << FANOUT_BITS) - below.first_node)
                        {
                            here.absorb(node, child.iter().copied());
                        }
                    }
                }
            }
        }
        let end = first_index + counts.len() / group_count;
        if end > covered_end {
            for (level, here) in self.levels.iter_mut().enumerate() {
                here.reserve_through((end - 1) >> shift(level), group_count);
            }
        }
        for global in covered_end..end {
            for (level, here) in self.levels.iter_mut().enumerate() {
                here.absorb(global >> shift(level), signature(global));
            }
        }
        self.len = end - first_index;
        self.fit_levels();
    }

    /// Adds or removes top levels until the depth is the smallest at which
    /// the top level holds at most [`FANOUT`] nodes.
    fn fit_levels(&mut self) {
        let group_count = self.group_count;
        let nodes = |level: &Level| level.envelopes.len() / group_count;
        while self.levels.len() > 1 && nodes(&self.levels[self.levels.len() - 2]) <= FANOUT {
            self.levels.pop();
        }
        while let Some(below) = self.levels.last().filter(|top| nodes(top) > FANOUT) {
            let mut top = Level {
                first_node: below.first_node >> FANOUT_BITS,
                envelopes: Vec::new(),
            };
            top.reserve_through(
                (below.first_node + nodes(below) - 1) >> FANOUT_BITS,
                group_count,
            );
            for (offset, child) in below.envelopes.chunks_exact(group_count).enumerate() {
                top.absorb(
                    (below.first_node + offset) >> FANOUT_BITS,
                    child.iter().copied(),
                );
            }
            self.levels.push(top);
        }
    }

    /// Global index of the first covered slot.
    pub(crate) fn first_index(&self) -> usize {
        self.first_index
    }

    /// Number of levels (at least one).
    pub(crate) fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The node numbers stored at `level`, in chronological order.
    pub(crate) fn nodes(&self, level: usize) -> Range<usize> {
        let first = self.levels[level].first_node;
        first..first + self.levels[level].envelopes.len() / self.group_count
    }

    /// What lies below `node` of `level`, in chronological order: node
    /// numbers of the level below, or global slot indices under a block.
    pub(crate) fn children(&self, level: usize, node: usize) -> Range<usize> {
        let stored = match level {
            0 => self.first_index..self.first_index + self.len,
            _ => self.nodes(level - 1),
        };
        (node << FANOUT_BITS).max(stored.start)..((node + 1) << FANOUT_BITS).min(stored.end)
    }

    /// Global index of the first covered slot below `node` of `level`.
    pub(crate) fn first_slot(&self, level: usize, node: usize) -> usize {
        (node << shift(level)).max(self.first_index)
    }

    /// The node of `level` that `block` lies below (`block` itself at
    /// level 0).
    pub(crate) fn ancestor(level: usize, block: usize) -> usize {
        block >> (FANOUT_BITS * level as u32)
    }

    /// Lower bound on the slot distance between the probe (described by
    /// its per-group counts and id ranges) and *every* slot below `node` of
    /// `level`: never above any member's own signature bound.
    pub(crate) fn node_bound(
        &self,
        level: usize,
        node: usize,
        probe_counts: &[usize],
        probe_ranges: &[(u32, u32)],
    ) -> usize {
        let here = &self.levels[level];
        let at = (node - here.first_node) * self.group_count;
        here.envelopes[at..at + self.group_count]
            .iter()
            .zip(probe_counts.iter().zip(probe_ranges))
            .map(|(envelope, (&ca, &probe_range))| {
                let overlap = range_overlap(probe_range, (envelope.min_id, envelope.max_id));
                let cb = ca
                    .min(overlap)
                    .max(envelope.min_count)
                    .min(envelope.max_count);
                group_bound(ca, cb, overlap)
            })
            .sum()
    }

    /// [`range_misalignment`] between the probe's id ranges and the
    /// envelope of `node` of `level`, summed over the groups.
    pub(crate) fn node_misalignment(
        &self,
        level: usize,
        node: usize,
        probe_ranges: &[(u32, u32)],
    ) -> u64 {
        let here = &self.levels[level];
        let at = (node - here.first_node) * self.group_count;
        here.envelopes[at..at + self.group_count]
            .iter()
            .zip(probe_ranges)
            .map(|(envelope, &probe_range)| {
                range_misalignment(probe_range, (envelope.min_id, envelope.max_id))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_defaults_to_linear() {
        let policy = IndexPolicy::default();
        assert_eq!(policy, IndexPolicy::linear());
        assert!(!policy.is_indexed());
        assert!(IndexPolicy::indexed().is_indexed());
        assert_eq!(
            IndexPolicy::indexed().min_indexed_slots,
            Some(IndexPolicy::DEFAULT_MIN_INDEXED_SLOTS)
        );
        assert_eq!(
            IndexPolicy::linear()
                .with_min_indexed_slots(7)
                .min_indexed_slots,
            Some(7)
        );
    }

    /// The definitions the branchless kernels replaced, kept as the
    /// reference the table below pins them to.
    fn range_overlap_branchy(a: (u32, u32), b: (u32, u32)) -> usize {
        if a.0 > a.1 || b.0 > b.1 {
            return 0;
        }
        let (low, high) = (a.0.max(b.0), a.1.min(b.1));
        if low > high {
            0
        } else {
            (high - low) as usize + 1
        }
    }

    fn group_bound_branchy(ca: usize, cb: usize, overlap: usize) -> usize {
        let fewer = if ca < cb { ca } else { cb };
        let shared = if overlap < fewer { overlap } else { fewer };
        ca + cb - 2 * shared
    }

    #[test]
    fn branchless_kernels_match_their_branchy_definitions() {
        const EMPTY: (u32, u32) = (u32::MAX, 0);
        const MAX: u32 = u32::MAX;
        // (a, b, overlap): each pair is also checked in the other order
        let table = [
            (EMPTY, (5, 10), 0),
            (EMPTY, (0, MAX), 0),
            (EMPTY, (MAX, MAX), 0),
            (EMPTY, (0, 0), 0),
            (EMPTY, EMPTY, 0),
            ((0, 10), (10, 20), 1),
            ((0, 9), (10, 20), 0),
            ((0, 100), (10, 20), 11),
            ((7, 7), (7, 7), 1),
            ((0, 5), (7, 9), 0),
            ((10, MAX), (MAX - 5, MAX), 6),
            ((MAX, MAX), (MAX, MAX), 1),
            ((0, MAX - 1), (MAX, MAX), 0),
            ((0, MAX), (MAX, MAX), 1),
            ((0, MAX), (0, MAX), 1 << 32),
        ];
        for (a, b, overlap) in table {
            for (a, b) in [(a, b), (b, a)] {
                assert_eq!(range_overlap(a, b), overlap, "{a:?} against {b:?}");
                assert_eq!(range_overlap_branchy(a, b), overlap, "{a:?} against {b:?}");
                for (ca, cb) in [(0, 0), (0, 3), (3, 0), (4, 9), (9, 4), (12, 12)] {
                    let bound = group_bound(ca, cb, overlap);
                    assert_eq!(bound, group_bound_branchy(ca, cb, overlap));
                    // a one-slot node's envelope is that slot's signature:
                    // the tree's bound reads the same kernels
                    let tree = SummaryTree::build(1, 0, &[cb], &[b]);
                    assert_eq!(tree.node_bound(0, 0, &[ca], &[a]), bound, "{a:?} {b:?}");
                }
            }
        }
    }

    /// Flat two-group signatures of `len` slots starting at global `first`;
    /// group 2 is empty in every fifth slot.
    fn signatures(first: usize, len: usize) -> (Vec<usize>, Vec<(u32, u32)>) {
        let mut counts = Vec::new();
        let mut id_ranges = Vec::new();
        for global in first..first + len {
            let low = (global * 3) as u32;
            counts.push(5 + global % 7);
            id_ranges.push((low, low + 20));
            if global % 5 == 0 {
                counts.push(0);
                id_ranges.push((u32::MAX, 0));
            } else {
                counts.push(1 + global % 3);
                id_ranges.push((1_000_000 + low, 1_000_002 + low));
            }
        }
        (counts, id_ranges)
    }

    #[test]
    fn incremental_upkeep_equals_a_from_scratch_build_across_level_changes() {
        let build = |first, len| {
            let (counts, id_ranges) = signatures(first, len);
            SummaryTree::build(2, first, &counts, &id_ranges)
        };
        let sync = |tree: &mut SummaryTree, first, len| {
            let (counts, id_ranges) = signatures(first, len);
            tree.sync(first, &counts, &id_ranges);
        };
        // growth: the 65th block (slot 4,097) brings the second level
        let mut tree = build(0, 1);
        for len in 2..=4_200 {
            sync(&mut tree, 0, len);
            assert_eq!(tree.depth(), if len > 4_096 { 2 } else { 1 }, "{len}");
            if len % 61 == 0 || (4_090..4_100).contains(&len) {
                assert_eq!(tree, build(0, len), "grown to {len}");
            }
        }
        // a sliding window: every step evicts one slot and appends one
        for first in 1..200 {
            sync(&mut tree, first, 4_200);
            assert_eq!(tree, build(first, 4_200), "window at {first}");
        }
        // eviction and growth in one step, landing mid-block
        sync(&mut tree, 1_000, 3_500);
        assert_eq!(tree, build(1_000, 3_500));
        assert_eq!(tree.depth(), 1, "55 blocks need one level");
        assert_eq!(tree.nodes(0), 15..71);
        assert_eq!(tree.children(0, 15), 1_000..1_024);
        assert_eq!(tree.first_slot(0, 15), 1_000);
        // a window of one slot evicts everything that was covered
        sync(&mut tree, 4_500, 1);
        assert_eq!(tree, build(4_500, 1));
    }

    #[test]
    fn a_node_bound_is_the_signature_bound_at_the_most_favourable_count() {
        // one group, one block: counts 4..=9, ids 100..=180
        let counts = [4, 9, 6];
        let id_ranges = [(100, 120), (150, 180), (110, 130)];
        let tree = SummaryTree::build(1, 0, &counts, &id_ranges);
        let bound = |ca: usize, range| tree.node_bound(0, 0, &[ca], &[range]);
        // full overlap: only the count interval matters
        assert_eq!(bound(6, (0, 500)), 0);
        assert_eq!(bound(12, (0, 500)), 3);
        assert_eq!(bound(1, (0, 500)), 3);
        // disjoint ids: nothing shared, the smallest member is the cheapest
        assert_eq!(bound(6, (900, 950)), 6 + 4);
        // two ids of overlap
        assert_eq!(bound(6, (179, 300)), 6 + 4 - 2 * 2);
        // an empty probe group against a node that is never empty
        assert_eq!(bound(0, (u32::MAX, 0)), 4);
    }
}
