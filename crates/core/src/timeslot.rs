//! Time slots: the per-interval assignment of users to acceleration groups.
//!
//! §IV-A: "The traces are sorted in chronological order and transformed into a
//! set of time slots. Let `T` be a set of time slots `T = {t_i}` … of equal
//! length … Each time slot consists of a set of acceleration groups … each
//! acceleration group at a time period `t` contains a certain number of users
//! or an empty set." The model supports any slot length, defined in
//! (fractions of) hours.
//!
//! # Representation
//!
//! A slot stores one *run* per non-empty acceleration group: a sorted,
//! deduplicated `Vec<UserId>`. Runs are kept sorted by group id. This flat
//! layout exists for the workload predictor's sake — it compares the current
//! slot against every historical slot each interval, and sorted runs let
//! [`crate::distance`] compute edit distances as allocation-free linear
//! merges while [`TimeSlot::users_in`] hands out a borrowed `&[UserId]`
//! instead of cloning a set. Semantics are unchanged from the earlier
//! `BTreeMap<_, BTreeSet<_>>` representation: the same `(group, user)` pairs
//! produce an equal slot regardless of insertion order, and a user assigned
//! twice is stored once.

use crate::logs::TraceLog;
use crate::window::SlotWindower;
use mca_offload::{AccelerationGroupId, TraceRecord, UserId};
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};

/// The users of one acceleration group within a slot, sorted by id and
/// deduplicated.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GroupRun {
    group: AccelerationGroupId,
    users: Vec<UserId>,
}

/// One time slot `t_i`: which users were active in which acceleration group.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeSlot {
    /// Slot index within the history (chronological).
    pub index: usize,
    /// One run per non-empty group, sorted by group id.
    runs: Vec<GroupRun>,
}

impl TimeSlot {
    /// Creates an empty slot with the given index.
    pub fn new(index: usize) -> Self {
        Self {
            index,
            runs: Vec::new(),
        }
    }

    /// Records that `user` was active in `group` during this slot. A user
    /// that appears in several groups within one slot (it was promoted
    /// mid-slot) is counted in each group it touched, matching the paper's
    /// per-group workload definition `W_an`.
    pub fn assign(&mut self, group: AccelerationGroupId, user: UserId) {
        let run = match self.runs.binary_search_by_key(&group, |r| r.group) {
            Ok(at) => &mut self.runs[at],
            Err(at) => {
                self.runs.insert(
                    at,
                    GroupRun {
                        group,
                        users: Vec::new(),
                    },
                );
                &mut self.runs[at]
            }
        };
        // the common case is appending in increasing user order
        match run.users.last() {
            Some(&last) if last < user => run.users.push(user),
            Some(&last) if last == user => {}
            _ => {
                if let Err(at) = run.users.binary_search(&user) {
                    run.users.insert(at, user);
                }
            }
        }
    }

    /// The users active in `group`, sorted by id (empty slice when none).
    ///
    /// This is a borrow into the slot — the predictor's distance loops call
    /// it for every (slot, group) pair and must not allocate.
    pub fn users_in(&self, group: AccelerationGroupId) -> &[UserId] {
        match self.runs.binary_search_by_key(&group, |r| r.group) {
            Ok(at) => &self.runs[at].users,
            Err(_) => &[],
        }
    }

    /// Number of users active in `group` — the workload `W_an`.
    pub fn load_of(&self, group: AccelerationGroupId) -> usize {
        self.users_in(group).len()
    }

    /// The acceleration groups that have at least one user in this slot, in
    /// increasing id order.
    pub fn groups(&self) -> impl Iterator<Item = AccelerationGroupId> + '_ {
        self.runs.iter().map(|r| r.group)
    }

    /// `(group, user count)` per non-empty group, in increasing group order —
    /// the slot's count signature, used by the predictor's pruning bound.
    pub fn group_loads(&self) -> impl Iterator<Item = (AccelerationGroupId, usize)> + '_ {
        self.runs.iter().map(|r| (r.group, r.users.len()))
    }

    /// Total number of distinct users active in the slot (allocation-free).
    pub fn total_users(&self) -> usize {
        // a k-way merge over one cursor per run; group ids are `u8`, so 256
        // cursors cover any slot
        let mut cursors = [0usize; 256];
        let mut distinct = 0;
        loop {
            // the lowest head, its run, and the lowest head of the other runs
            let (mut lowest, mut bound) = (None, None);
            for (at, run) in self.runs.iter().enumerate() {
                match (run.users.get(cursors[at]), lowest) {
                    (None, _) => {}
                    (Some(&head), Some((low, _))) if head >= low => {
                        bound = Some(bound.map_or(head, |b: UserId| b.min(head)));
                    }
                    (Some(&head), _) => {
                        bound = lowest.map(|(low, _)| low);
                        lowest = Some((head, at));
                    }
                }
            }
            let Some((low, at)) = lowest else {
                return distinct;
            };
            if bound == Some(low) {
                // shared: every run listing `low` steps over it
                distinct += 1;
                for (run, cursor) in self.runs.iter().zip(&mut cursors) {
                    *cursor += usize::from(run.users.get(*cursor) == Some(&low));
                }
            } else {
                // everything below the other heads is this run's alone, so
                // runs with disjoint id ranges cost one step each
                let rest = &self.runs[at].users[cursors[at]..];
                let alone = bound.map_or(rest.len(), |b| rest.partition_point(|&u| u < b));
                distinct += alone;
                cursors[at] += alone;
            }
        }
    }

    /// The per-group workload vector over `groups` (0 for missing groups).
    pub fn workload_vector(&self, groups: &[AccelerationGroupId]) -> Vec<usize> {
        groups.iter().map(|g| self.load_of(*g)).collect()
    }

    /// Returns `true` when no user is assigned to any group.
    pub fn is_empty(&self) -> bool {
        // runs are only materialized by `assign`, so none is ever empty
        self.runs.is_empty()
    }

    /// Builds a slot directly from `(group, user)` pairs (mainly for tests
    /// and synthetic histories).
    pub fn from_assignments(
        index: usize,
        pairs: impl IntoIterator<Item = (AccelerationGroupId, UserId)>,
    ) -> Self {
        let mut builder = TimeSlotBuilder::new(index);
        builder.extend(pairs);
        builder.build()
    }
}

impl Snapshot for GroupRun {
    fn encode(&self, out: &mut Vec<u8>) {
        self.group.encode(out);
        self.users.encode(out);
    }
}

impl Restore for GroupRun {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let group = AccelerationGroupId::decode(cur)?;
        let users = Vec::<UserId>::decode(cur)?;
        if users.is_empty() {
            return Err(SnapshotError::Malformed {
                context: "empty group run",
            });
        }
        if users.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SnapshotError::Malformed {
                context: "group run users not strictly increasing",
            });
        }
        Ok(Self { group, users })
    }
}

impl Snapshot for TimeSlot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.index.encode(out);
        self.runs.encode(out);
    }
}

impl Restore for TimeSlot {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let index = usize::decode(cur)?;
        let runs = Vec::<GroupRun>::decode(cur)?;
        if runs.windows(2).any(|w| w[0].group >= w[1].group) {
            return Err(SnapshotError::Malformed {
                context: "slot runs not sorted by group",
            });
        }
        Ok(Self { index, runs })
    }
}

/// Batch constructor for [`TimeSlot`].
///
/// [`TimeSlot::assign`] keeps the slot's runs sorted after every insertion,
/// which costs `O(n)` per *out-of-order* user — fine for a trickle of
/// mostly-ordered arrivals, quadratic for a bulk feed of interleaved users
/// (many tenants, shuffled ingest). The builder instead collects raw
/// assignments unordered, packed as `group << 32 | user` so that key order
/// is `(group, user)` order, and produces the slot with **one** sort +
/// dedup, yielding exactly the slot the per-record path would have built.
/// One tenant's ids are close together, so that sort is usually a bitmap
/// pass (see [`TimeSlotBuilder::finish`]). The trace-replay path
/// ([`SlotHistory::from_log`]) builds and drops a builder per slot; the
/// fleet ingest keeps one per tenant and drains it with
/// [`TimeSlotBuilder::finish`], reusing both buffers.
#[derive(Debug, Clone, Default)]
pub struct TimeSlotBuilder {
    index: usize,
    keys: Vec<u64>,
    /// The radix sort's second buffer, or the bitmap of a dense batch.
    scratch: Vec<u64>,
}

/// Below this many keys the 256-counter passes cost more than comparing.
const RADIX_MIN_KEYS: usize = 64;

/// Sorts keys below `1 << bits` ascending with an LSD byte-radix sort.
/// Returns at once on sorted input, the shape of a recorded trace. On
/// return `scratch` holds unspecified keys.
fn sort_keys(keys: &mut Vec<u64>, scratch: &mut Vec<u64>, bits: u32) {
    if keys.windows(2).all(|w| w[0] <= w[1]) {
        return;
    }
    if keys.len() < RADIX_MIN_KEYS {
        keys.sort_unstable();
        return;
    }
    scratch.resize(keys.len(), 0);
    for shift in (0..bits).step_by(8) {
        let byte = |key: u64| (key >> shift) as usize & 0xff;
        let mut offsets = [0usize; 256];
        for &key in keys.iter() {
            offsets[byte(key)] += 1;
        }
        let mut next = 0;
        for offset in &mut offsets {
            next += std::mem::replace(offset, next);
        }
        for &key in keys.iter() {
            scratch[offsets[byte(key)]] = key;
            offsets[byte(key)] += 1;
        }
        std::mem::swap(keys, scratch);
    }
}

/// Sorts and deduplicates keys below `words * 64` by setting one bit per
/// key in `bitmap` and reading the set bits back into `keys` in order.
/// Allocates nothing once `bitmap` has held `words` words.
fn sort_dedup_dense(keys: &mut Vec<u64>, bitmap: &mut Vec<u64>, words: usize) {
    bitmap.clear();
    bitmap.resize(words, 0);
    for &key in keys.iter() {
        bitmap[(key >> 6) as usize] |= 1 << (key & 63);
    }
    keys.clear();
    for (at, &word) in bitmap.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            keys.push((at as u64) << 6 | u64::from(bits.trailing_zeros()));
            bits &= bits - 1;
        }
    }
}

impl TimeSlotBuilder {
    /// Creates an empty builder for the slot at `index`.
    pub fn new(index: usize) -> Self {
        Self::with_capacity(index, 0)
    }

    /// Creates a builder with room for `capacity` assignments.
    pub fn with_capacity(index: usize, capacity: usize) -> Self {
        Self {
            index,
            keys: Vec::with_capacity(capacity),
            scratch: Vec::new(),
        }
    }

    /// Records that `user` was active in `group` (duplicates are cheap and
    /// collapse when the slot is built).
    pub fn assign(&mut self, group: AccelerationGroupId, user: UserId) {
        self.keys.push(u64::from(group.0) << 32 | u64::from(user.0));
    }

    /// Records a batch of `(group, user)` assignments.
    pub fn extend(&mut self, pairs: impl IntoIterator<Item = (AccelerationGroupId, UserId)>) {
        for (group, user) in pairs {
            self.assign(group, user);
        }
    }

    /// Number of recorded assignments (before deduplication).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` when no assignment has been recorded.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Sorts and deduplicates the collected assignments once and builds the
    /// slot at the builder's index. Equal to feeding every pair through
    /// [`TimeSlot::assign`] in any order.
    pub fn build(mut self) -> TimeSlot {
        let index = self.index;
        self.finish(index)
    }

    /// [`TimeSlotBuilder::build`] for a builder that lives on: builds the
    /// slot at `index` and leaves the builder empty with its buffers'
    /// capacity, ready for the next slot's assignments.
    ///
    /// One pass finds the smallest and largest group and user, and every
    /// key is rewritten relative to them, `(group − gmin) << ubits |
    /// (user − umin)` with `ubits` the bits of the user span, which keeps
    /// `(group, user)` order. When the relative span fits in as many 64-bit
    /// words as there are keys, a bitmap of that size sorts and
    /// deduplicates in one pass; otherwise the keys are radix-sorted and
    /// deduplicated. Neither grows a buffer past the number of keys.
    pub fn finish(&mut self, index: usize) -> TimeSlot {
        let Some(&first) = self.keys.first() else {
            return TimeSlot::new(index);
        };
        let group = |key: u64| (key >> 32) as u32;
        let user = |key: u64| key as u32;
        let (mut gmin, mut gmax) = (group(first), group(first));
        let (mut umin, mut umax) = (user(first), user(first));
        for &key in &self.keys {
            (gmin, gmax) = (gmin.min(group(key)), gmax.max(group(key)));
            (umin, umax) = (umin.min(user(key)), umax.max(user(key)));
        }
        let ubits = u32::BITS - (umax - umin).leading_zeros();
        let relative =
            |key: u64| u64::from(group(key) - gmin) << ubits | u64::from(user(key) - umin);
        self.keys.iter_mut().for_each(|key| *key = relative(*key));
        let largest = relative(u64::from(gmax) << 32 | u64::from(umax));
        let words = (largest >> 6) as usize + 1;
        if words <= self.keys.len() {
            sort_dedup_dense(&mut self.keys, &mut self.scratch, words);
        } else {
            let bits = u64::BITS - largest.leading_zeros();
            sort_keys(&mut self.keys, &mut self.scratch, bits);
            self.keys.dedup();
        }
        // collected from exact-size slices: a retained slot has no slack
        let user_mask = (1u64 << ubits) - 1;
        let same_group = |a: &u64, b: &u64| a >> ubits == b >> ubits;
        let cut = |run: &[u64]| GroupRun {
            group: AccelerationGroupId((run[0] >> ubits) as u8 + gmin as u8),
            users: run
                .iter()
                .map(|&key| UserId((key & user_mask) as u32 + umin))
                .collect(),
        };
        let runs = self.keys.chunk_by(same_group).map(cut).collect();
        self.keys.clear();
        TimeSlot { index, runs }
    }
}

/// The chronological history of time slots `T` extracted from the log.
///
/// A history may be given a *window*: an upper bound on the number of most
/// recent slots it retains. Older slots are evicted from the front, which
/// bounds both the memory held by a long-running system and the cost of the
/// predictor's nearest-neighbour scan. [`TimeSlot::index`] values stay
/// global (chronological since the beginning of the trace), so an evicted
/// history still reports meaningful slot indices; [`SlotHistory::first_index`]
/// gives the global index of the oldest retained slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotHistory {
    slots: Vec<TimeSlot>,
    /// Slot length in milliseconds.
    pub slot_length_ms: f64,
    /// Maximum number of retained slots (`None` = unbounded).
    window: Option<usize>,
    /// Number of slots evicted from the front so far.
    evicted: usize,
}

impl SlotHistory {
    /// Creates an empty, unbounded history with the given slot length.
    ///
    /// # Panics
    ///
    /// Panics if the slot length is not strictly positive.
    pub fn new(slot_length_ms: f64) -> Self {
        assert!(slot_length_ms > 0.0, "slot length must be positive");
        Self {
            slots: Vec::new(),
            slot_length_ms,
            window: None,
            evicted: 0,
        }
    }

    /// A one-hour slot length — the granularity at which cloud instances are
    /// billed and (re-)allocated.
    pub fn hourly() -> Self {
        Self::new(3_600_000.0)
    }

    /// Caps the history at the `window` most recent slots.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(mut self, window: usize) -> Self {
        self.set_window(Some(window));
        self
    }

    /// Changes the retention window (`None` = unbounded), evicting
    /// immediately if the history already exceeds it.
    ///
    /// # Panics
    ///
    /// Panics if `window` is `Some(0)`.
    pub fn set_window(&mut self, window: Option<usize>) {
        assert!(
            window != Some(0),
            "history window must hold at least one slot"
        );
        self.window = window;
        self.trim();
    }

    /// The retention window, when one is set.
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// Global index of the oldest retained slot (0 until eviction starts).
    pub fn first_index(&self) -> usize {
        self.evicted
    }

    fn trim(&mut self) {
        if let Some(window) = self.window {
            if self.slots.len() > window {
                let excess = self.slots.len() - window;
                self.slots.drain(0..excess);
                self.evicted += excess;
            }
        }
    }

    /// Builds the history from a trace log, assigning each record to the slot
    /// containing its timestamp.
    ///
    /// This is the batch-replay path: records are bucketed into one
    /// [`TimeSlotBuilder`] per slot and each slot is materialized with a
    /// single sort + dedup pass, instead of paying [`TimeSlot::assign`]'s
    /// ordered insert per record. The result is identical to replaying the
    /// log through [`SlotHistory::observe`].
    pub fn from_log(log: &TraceLog, slot_length_ms: f64) -> Self {
        let mut history = Self::new(slot_length_ms);
        let mut windower = SlotWindower::new(slot_length_ms);
        for (time_ms, group, user) in log.assignments() {
            windower.push(time_ms, (group, user));
        }
        while !windower.is_drained() {
            let index = windower.next_slot();
            let assignments = windower.take_next();
            let mut builder = TimeSlotBuilder::with_capacity(index, assignments.len());
            builder.extend(assignments);
            history.push(builder.build());
        }
        history
    }

    /// Incorporates one processed request into the history, creating slots as
    /// needed. Records older than the oldest retained slot (possible only
    /// after window eviction) are dropped.
    pub fn observe(&mut self, record: &TraceRecord) {
        let idx = (record.timestamp_ms / self.slot_length_ms).floor().max(0.0) as usize;
        if idx < self.evicted {
            return;
        }
        while self.evicted + self.slots.len() <= idx {
            let next = self.evicted + self.slots.len();
            self.slots.push(TimeSlot::new(next));
            self.trim();
        }
        self.slots[idx - self.evicted].assign(record.group, record.user);
    }

    /// Appends an already-built slot (its index is rewritten to stay
    /// chronological), evicting the oldest slot when a window is set and
    /// full.
    pub fn push(&mut self, mut slot: TimeSlot) {
        slot.index = self.evicted + self.slots.len();
        self.slots.push(slot);
        self.trim();
    }

    /// The retained slots in chronological order.
    pub fn slots(&self) -> &[TimeSlot] {
        &self.slots
    }

    /// Number of retained slots (`H`, the amount of history available).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when the history holds no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The most recent slot, if any.
    pub fn last(&self) -> Option<&TimeSlot> {
        self.slots.last()
    }
}

impl Snapshot for SlotHistory {
    fn encode(&self, out: &mut Vec<u8>) {
        self.slots.encode(out);
        self.slot_length_ms.encode(out);
        self.window.encode(out);
        self.evicted.encode(out);
    }
}

impl Restore for SlotHistory {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let slots = Vec::<TimeSlot>::decode(cur)?;
        let slot_length_ms = f64::decode(cur)?;
        let window = Option::<usize>::decode(cur)?;
        let evicted = usize::decode(cur)?;
        if slot_length_ms.is_nan() || slot_length_ms <= 0.0 {
            return Err(SnapshotError::Malformed {
                context: "non-positive slot length",
            });
        }
        if window == Some(0) {
            return Err(SnapshotError::Malformed {
                context: "zero history window",
            });
        }
        if window.is_some_and(|w| slots.len() > w) {
            return Err(SnapshotError::Malformed {
                context: "history longer than its window",
            });
        }
        if slots
            .iter()
            .enumerate()
            .any(|(at, slot)| slot.index != evicted + at)
        {
            return Err(SnapshotError::Malformed {
                context: "history slot indices not chronological",
            });
        }
        Ok(Self {
            slots,
            slot_length_ms,
            window,
            evicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(t: f64, user: u32, group: u8) -> TraceRecord {
        TraceRecord {
            timestamp_ms: t,
            user: UserId(user),
            group: AccelerationGroupId(group),
            battery_level: 90.0,
            round_trip_ms: 500.0,
            t1_ms: 40.0,
            t2_ms: 150.0,
            t_cloud_ms: 310.0,
            success: true,
        }
    }

    #[test]
    fn slot_counts_distinct_users_per_group() {
        let mut slot = TimeSlot::new(0);
        slot.assign(AccelerationGroupId(1), UserId(1));
        slot.assign(AccelerationGroupId(1), UserId(1)); // duplicate ignored
        slot.assign(AccelerationGroupId(1), UserId(2));
        slot.assign(AccelerationGroupId(2), UserId(3));
        assert_eq!(slot.load_of(AccelerationGroupId(1)), 2);
        assert_eq!(slot.load_of(AccelerationGroupId(2)), 1);
        assert_eq!(slot.load_of(AccelerationGroupId(3)), 0);
        assert_eq!(slot.total_users(), 3);
        assert_eq!(
            slot.groups().collect::<Vec<_>>(),
            vec![AccelerationGroupId(1), AccelerationGroupId(2)]
        );
        assert!(!slot.is_empty());
    }

    #[test]
    fn users_are_sorted_and_deduplicated_regardless_of_insertion_order() {
        let slot = TimeSlot::from_assignments(
            0,
            [9, 3, 7, 3, 1, 9, 2]
                .into_iter()
                .map(|u| (AccelerationGroupId(1), UserId(u))),
        );
        assert_eq!(
            slot.users_in(AccelerationGroupId(1)),
            &[UserId(1), UserId(2), UserId(3), UserId(7), UserId(9)]
        );
        // insertion order does not matter for equality
        let sorted = TimeSlot::from_assignments(
            0,
            [1, 2, 3, 7, 9]
                .into_iter()
                .map(|u| (AccelerationGroupId(1), UserId(u))),
        );
        assert_eq!(slot, sorted);
    }

    #[test]
    fn users_in_missing_group_is_the_empty_slice() {
        let slot = TimeSlot::new(0);
        assert_eq!(slot.users_in(AccelerationGroupId(9)), &[] as &[UserId]);
    }

    #[test]
    fn promoted_user_counts_in_both_groups_but_once_in_total() {
        let slot = TimeSlot::from_assignments(
            0,
            [
                (AccelerationGroupId(1), UserId(8)),
                (AccelerationGroupId(2), UserId(8)),
            ],
        );
        assert_eq!(slot.load_of(AccelerationGroupId(1)), 1);
        assert_eq!(slot.load_of(AccelerationGroupId(2)), 1);
        assert_eq!(slot.total_users(), 1);
    }

    #[test]
    fn total_users_merges_across_groups() {
        let slot = TimeSlot::from_assignments(
            0,
            [
                (AccelerationGroupId(1), UserId(1)),
                (AccelerationGroupId(1), UserId(2)),
                (AccelerationGroupId(2), UserId(2)),
                (AccelerationGroupId(2), UserId(3)),
                (AccelerationGroupId(3), UserId(3)),
                (AccelerationGroupId(3), UserId(4)),
            ],
        );
        assert_eq!(slot.total_users(), 4);
    }

    #[test]
    fn workload_vector_follows_group_order() {
        let slot = TimeSlot::from_assignments(
            0,
            [
                (AccelerationGroupId(1), UserId(1)),
                (AccelerationGroupId(3), UserId(2)),
                (AccelerationGroupId(3), UserId(3)),
            ],
        );
        let groups = [
            AccelerationGroupId(1),
            AccelerationGroupId(2),
            AccelerationGroupId(3),
        ];
        assert_eq!(slot.workload_vector(&groups), vec![1, 0, 2]);
        assert_eq!(
            slot.group_loads().collect::<Vec<_>>(),
            vec![(AccelerationGroupId(1), 1), (AccelerationGroupId(3), 2)]
        );
    }

    #[test]
    fn history_from_log_partitions_by_timestamp() {
        let log: TraceLog = vec![
            record(100.0, 1, 1),
            record(200.0, 2, 1),
            record(3_700_000.0, 1, 2), // second hour
            record(7_300_000.0, 3, 1), // third hour
        ]
        .into_iter()
        .collect();
        let history = SlotHistory::from_log(&log, 3_600_000.0);
        assert_eq!(history.len(), 3);
        assert_eq!(history.slots()[0].load_of(AccelerationGroupId(1)), 2);
        assert_eq!(history.slots()[1].load_of(AccelerationGroupId(2)), 1);
        assert_eq!(history.slots()[2].load_of(AccelerationGroupId(1)), 1);
        assert_eq!(history.last().unwrap().index, 2);
    }

    #[test]
    fn intermediate_empty_slots_are_materialized() {
        let log: TraceLog = vec![record(100.0, 1, 1), record(10.0 * 3_600_000.0 + 1.0, 2, 1)]
            .into_iter()
            .collect();
        let history = SlotHistory::from_log(&log, 3_600_000.0);
        assert_eq!(history.len(), 11);
        assert!(history.slots()[5].is_empty());
    }

    #[test]
    fn push_rewrites_index() {
        let mut history = SlotHistory::hourly();
        history.push(TimeSlot::from_assignments(
            99,
            [(AccelerationGroupId(1), UserId(1))],
        ));
        history.push(TimeSlot::from_assignments(
            42,
            [(AccelerationGroupId(1), UserId(2))],
        ));
        assert_eq!(history.slots()[0].index, 0);
        assert_eq!(history.slots()[1].index, 1);
        assert_eq!(history.slot_length_ms, 3_600_000.0);
    }

    #[test]
    fn window_evicts_oldest_slots_and_keeps_global_indices() {
        let mut history = SlotHistory::hourly().with_window(3);
        for u in 0..5u32 {
            history.push(TimeSlot::from_assignments(
                0,
                [(AccelerationGroupId(1), UserId(u))],
            ));
        }
        assert_eq!(history.len(), 3);
        assert_eq!(history.first_index(), 2);
        assert_eq!(history.window(), Some(3));
        let indices: Vec<usize> = history.slots().iter().map(|s| s.index).collect();
        assert_eq!(indices, vec![2, 3, 4]);
        assert_eq!(
            history.slots()[0].users_in(AccelerationGroupId(1)),
            &[UserId(2)]
        );
        assert_eq!(history.last().unwrap().index, 4);
    }

    #[test]
    fn shrinking_the_window_trims_immediately() {
        let mut history = SlotHistory::hourly();
        for u in 0..6u32 {
            history.push(TimeSlot::from_assignments(
                0,
                [(AccelerationGroupId(1), UserId(u))],
            ));
        }
        history.set_window(Some(2));
        assert_eq!(history.len(), 2);
        assert_eq!(history.first_index(), 4);
        history.set_window(None);
        for u in 6..9u32 {
            history.push(TimeSlot::from_assignments(
                0,
                [(AccelerationGroupId(1), UserId(u))],
            ));
        }
        assert_eq!(history.len(), 5);
    }

    #[test]
    fn windowed_observe_ignores_records_older_than_retention() {
        let mut history = SlotHistory::new(1_000.0).with_window(2);
        history.observe(&record(100.0, 1, 1)); // slot 0
        history.observe(&record(3_500.0, 2, 1)); // slots 1..=3, evicts 0..=1
        assert_eq!(history.len(), 2);
        assert_eq!(history.first_index(), 2);
        history.observe(&record(500.0, 3, 1)); // slot 0: already evicted, dropped
        assert_eq!(history.slots()[0].load_of(AccelerationGroupId(1)), 0);
        history.observe(&record(2_500.0, 4, 1)); // slot 2: retained
        assert_eq!(
            history.slots()[0].users_in(AccelerationGroupId(1)),
            &[UserId(4)]
        );
    }

    #[test]
    fn builder_matches_per_record_assign_on_shuffled_input() {
        // worst case for `assign`: users arrive interleaved across groups in
        // decreasing id order, with duplicates
        let pairs: Vec<(AccelerationGroupId, UserId)> = (0..120u32)
            .rev()
            .flat_map(|u| {
                [
                    (AccelerationGroupId((u % 3 + 1) as u8), UserId(u)),
                    (AccelerationGroupId((u % 3 + 1) as u8), UserId(u)), // duplicate
                    (AccelerationGroupId(1), UserId(u / 2)),
                ]
            })
            .collect();
        let mut reference = TimeSlot::new(7);
        for &(g, u) in &pairs {
            reference.assign(g, u);
        }
        let mut builder = TimeSlotBuilder::with_capacity(7, pairs.len());
        for &(g, u) in &pairs {
            builder.assign(g, u);
        }
        assert_eq!(builder.len(), pairs.len());
        assert!(!builder.is_empty());
        let built = builder.build();
        assert_eq!(built, reference);
        assert_eq!(built.index, 7);
    }

    /// A cheap deterministic key stream (SplitMix64).
    fn mixed(seed: u64) -> u64 {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn radix_sort_equals_sort_unstable_at_every_length_around_the_cut_over() {
        let mut scratch = Vec::new();
        // relative keys: the widest (a `u8` group span above a 32-bit user
        // span), one tenant's ids under three groups, and each byte of the
        // widest varying alone above constant lower bytes
        let masks = [(1u64 << 40) - 1, 0x3_ffff]
            .into_iter()
            .chain((0..40).step_by(8).map(|shift| 0xff << shift));
        for mask in masks {
            let bits = u64::BITS - mask.leading_zeros();
            let fixed = 0xa5_a5a5_a5a5 & !mask & ((1 << bits) - 1);
            for len in 0..=300u64 {
                let shuffled: Vec<u64> = (0..len)
                    .map(|i| fixed | mixed(len << 32 | i) & mask)
                    .collect();
                let mut expected = shuffled.clone();
                expected.sort_unstable();
                let reversed: Vec<u64> = expected.iter().rev().copied().collect();
                for input in [&shuffled, &expected, &reversed] {
                    let mut keys = input.clone();
                    sort_keys(&mut keys, &mut scratch, bits);
                    assert_eq!(keys, expected, "mask {mask:#x}, {len} keys");
                }
            }
        }
    }

    #[test]
    fn finish_drains_the_builder_and_keeps_its_buffers() {
        // 200 users 7 ids apart span 11 bits: under three adjacent groups
        // that is 86 words, the bitmap; under groups 127 apart, 8,150
        // words, the radix sort
        for (gap, dense) in [(1u32, true), (127, false)] {
            let pairs = move |slot: u32| {
                (0..200u32).rev().map(move |u| {
                    (
                        AccelerationGroupId((u % 3 * gap) as u8),
                        UserId(u * 7 + slot),
                    )
                })
            };
            let assigned = |index: usize, slot: u32| {
                let mut reference = TimeSlot::new(index);
                pairs(slot).for_each(|(group, user)| reference.assign(group, user));
                reference
            };
            let mut builder = TimeSlotBuilder::new(0);
            builder.extend(pairs(0));
            let first = builder.finish(4);
            assert_eq!(first, assigned(4, 0), "gap {gap}");
            assert!(builder.is_empty());
            // the bitmap holds a word per 64 ids of the span, the radix sort
            // a key per key
            assert_eq!(builder.scratch.len() < 200, dense, "gap {gap}");
            // the radix sort leaves the two buffers in either role
            let capacities = |b: &TimeSlotBuilder| {
                let (keys, scratch) = (b.keys.capacity(), b.scratch.capacity());
                (keys.min(scratch), keys.max(scratch))
            };
            let warm = capacities(&builder);
            assert!(warm.1 >= 200);
            builder.extend(pairs(1));
            let second = builder.finish(5);
            assert_eq!(second, assigned(5, 1), "gap {gap}");
            assert_eq!(second.index, 5);
            assert_eq!(
                capacities(&builder),
                warm,
                "gap {gap}: the second slot reuses the first one's buffers"
            );
            // runs hold exactly their users
            assert!(second
                .runs
                .iter()
                .all(|r| r.users.capacity() == r.users.len()));
        }
    }

    #[test]
    fn builder_keeps_the_extreme_ids_apart() {
        let pairs = [
            (AccelerationGroupId(255), UserId(0)),
            (AccelerationGroupId(0), UserId(u32::MAX)),
            (AccelerationGroupId(255), UserId(u32::MAX)),
            (AccelerationGroupId(0), UserId(0)),
            (AccelerationGroupId(0), UserId(u32::MAX)),
        ];
        let mut reference = TimeSlot::new(0);
        for (group, user) in pairs {
            reference.assign(group, user);
        }
        let built = TimeSlot::from_assignments(0, pairs);
        assert_eq!(built, reference);
        assert_eq!(
            built.users_in(AccelerationGroupId(0)),
            &[UserId(0), UserId(u32::MAX)]
        );
        assert_eq!(built.load_of(AccelerationGroupId(255)), 2);
    }

    #[test]
    fn total_users_counts_the_union_of_the_runs() {
        // the definition: distinct user ids over all groups
        let union = |slot: &TimeSlot| {
            slot.groups()
                .flat_map(|g| slot.users_in(g).iter().copied())
                .collect::<std::collections::BTreeSet<UserId>>()
                .len()
        };
        let window = |group: u8, users: std::ops::Range<u32>| {
            users.map(move |u| (AccelerationGroupId(group), UserId(u)))
        };
        let cases: Vec<Vec<(AccelerationGroupId, UserId)>> = vec![
            vec![],
            window(1, 0..40).collect(),
            // disjoint windows, in and out of group order
            window(1, 0..40).chain(window(2, 40..70)).collect(),
            window(1, 100..140).chain(window(2, 0..30)).collect(),
            // touching, nested and interleaved ranges
            window(1, 0..40).chain(window(2, 39..70)).collect(),
            window(1, 0..100).chain(window(2, 40..50)).collect(),
            window(1, 0..100)
                .step_by(2)
                .chain(window(2, 0..100).skip(1).step_by(2))
                .collect(),
            // one user in every group, and ranges that overlap without sharing
            (0..=255).flat_map(|g| window(g, 7..9)).collect(),
            window(1, 0..60)
                .chain(window(2, 50..90))
                .chain(window(3, 55..58))
                .chain(window(9, 89..200))
                .collect(),
        ];
        for pairs in cases {
            let slot = TimeSlot::from_assignments(0, pairs);
            assert_eq!(slot.total_users(), union(&slot), "{slot:?}");
        }
    }

    #[test]
    fn empty_builder_builds_an_empty_slot() {
        let built = TimeSlotBuilder::new(3).build();
        assert!(built.is_empty());
        assert_eq!(built, TimeSlot::new(3));
    }

    #[test]
    fn from_log_batch_replay_matches_incremental_observe() {
        let records: Vec<TraceRecord> = (0..200)
            .map(|i| {
                // timestamps deliberately out of chronological order
                let t = ((i * 37) % 200) as f64 * 90_000.0;
                record(t, (200 - i) as u32 % 23, (i % 3 + 1) as u8)
            })
            .collect();
        let log: TraceLog = records.iter().cloned().collect();
        let batched = SlotHistory::from_log(&log, 3_600_000.0);
        let mut incremental = SlotHistory::new(3_600_000.0);
        for r in &records {
            incremental.observe(r);
        }
        assert_eq!(batched, incremental);
    }

    #[test]
    #[should_panic(expected = "slot length must be positive")]
    fn zero_slot_length_panics() {
        let _ = SlotHistory::new(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_window_panics() {
        let _ = SlotHistory::hourly().with_window(0);
    }
}
