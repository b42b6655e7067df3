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
//! A slot is two columns: one *run* per non-empty acceleration group — the
//! group, where its users start and how many there are — sorted by group
//! id, and one users column in which every run's ids sit back to back,
//! sorted and deduplicated. A [`TimeSlot`] owns its two columns, so a slot
//! costs two allocations however many groups it spans, and a
//! [`SlotHistory`] keeps the slots it retains whole: pushing one moves it
//! in uncopied, evicting one drops it. [`TimeSlot::users_in`] hands out a
//! borrowed sorted `&[UserId]`, so the [`crate::distance`] kernels compute
//! edit distances as allocation-free linear merges. The same `(group, user)`
//! pairs produce an equal slot regardless of insertion order, and a user
//! assigned twice is stored once.
//!
//! On the wire a history is columns too: runs per slot, `(group, len)` per
//! run, and each run's users as its first id and the gaps after it, at the
//! narrowest of one, two or four bytes that holds them. One tenant's ids
//! sit close together, so a user costs about a byte instead of four, and a
//! restore decodes each slot into its two columns, allocated once at their
//! exact size, in the same pass that checks them.

use crate::logs::TraceLog;
use crate::window::SlotWindower;
use mca_offload::{AccelerationGroupId, UserId};
use mca_snapshot::{encode_le_run, Cursor, Restore, Snapshot, SnapshotError};
use std::collections::VecDeque;
use std::ops::{Range, RangeInclusive};

/// One non-empty group run: `len` users of `group`, from `start` on in its
/// slot's users column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    group: AccelerationGroupId,
    len: u32,
    start: usize,
}

impl Run {
    fn range(&self) -> Range<usize> {
        self.start..self.start + self.len as usize
    }
}

/// One time slot `t_i`: which users were active in which acceleration group.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeSlot {
    /// Slot index within the history (chronological).
    pub index: usize,
    /// One run per non-empty group, sorted by group id, tiling `users` in
    /// order.
    runs: Vec<Run>,
    users: Vec<UserId>,
}

impl TimeSlot {
    /// Creates an empty slot with the given index.
    pub fn new(index: usize) -> Self {
        Self {
            index,
            runs: Vec::new(),
            users: Vec::new(),
        }
    }

    /// Records that `user` was active in `group` during this slot. A user
    /// that appears in several groups within one slot (it was promoted
    /// mid-slot) is counted in each group it touched, matching the paper's
    /// per-group workload definition `W_an`.
    pub fn assign(&mut self, group: AccelerationGroupId, user: UserId) {
        let at = match self.runs.binary_search_by_key(&group, |r| r.group) {
            Ok(at) => at,
            Err(at) => {
                let start = self.runs.get(at).map_or(self.users.len(), |r| r.start);
                self.runs.insert(
                    at,
                    Run {
                        group,
                        len: 0,
                        start,
                    },
                );
                at
            }
        };
        let run = self.runs[at];
        let users = &self.users[run.range()];
        // the common case is appending in increasing user order
        let offset = match users.last() {
            Some(&last) if last < user => users.len(),
            Some(&last) if last == user => return,
            _ => match users.binary_search(&user) {
                Ok(_) => return,
                Err(offset) => offset,
            },
        };
        self.users.insert(run.start + offset, user);
        self.runs[at].len += 1;
        for later in &mut self.runs[at + 1..] {
            later.start += 1;
        }
    }

    /// The users of the run at position `at` of the slot's runs.
    fn run(&self, at: usize) -> &[UserId] {
        &self.users[self.runs[at].range()]
    }

    /// The users active in `group`, sorted by id (empty slice when none).
    ///
    /// This is a borrow into the slot — the predictor's distance loops call
    /// it for every (slot, group) pair and must not allocate.
    pub fn users_in(&self, group: AccelerationGroupId) -> &[UserId] {
        match self.runs.binary_search_by_key(&group, |r| r.group) {
            Ok(at) => self.run(at),
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
        self.runs.iter().map(|r| (r.group, r.len as usize))
    }

    /// Calls `visit` with the users of each of `groups`, in the order of
    /// `groups` (an empty slice for a group without users). One pass over
    /// the runs marks the groups present in a 256-bit map, and a group's
    /// run is its rank in that map, so no group is searched for.
    pub(crate) fn for_each_group<'a>(
        &'a self,
        groups: &[AccelerationGroupId],
        mut visit: impl FnMut(&'a [UserId]),
    ) {
        let mut present = [0u64; 4];
        for run in &self.runs {
            present[usize::from(run.group.0 >> 6)] |= 1 << (run.group.0 & 63);
        }
        for group in groups {
            let (word, bit) = (usize::from(group.0 >> 6), group.0 & 63);
            if present[word] >> bit & 1 == 0 {
                visit(&[]);
                continue;
            }
            let below = present[..word].iter().map(|w| w.count_ones()).sum::<u32>()
                + (present[word] & ((1 << bit) - 1)).count_ones();
            visit(self.run(below as usize));
        }
    }

    /// Total number of distinct users active in the slot (allocation-free).
    pub fn total_users(&self) -> usize {
        // a k-way merge over one cursor per run; group ids are `u8`, so 256
        // cursors cover any slot
        let mut cursors = [0usize; 256];
        let cursors = &mut cursors[..self.runs.len()];
        let mut distinct = 0;
        loop {
            // the lowest head, its run, and the lowest head of the other runs
            let (mut lowest, mut bound) = (None, None);
            for (at, &cursor) in cursors.iter().enumerate() {
                match (self.run(at).get(cursor), lowest) {
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
                for (run, cursor) in cursors.iter_mut().enumerate() {
                    *cursor += usize::from(self.run(run).get(*cursor) == Some(&low));
                }
            } else {
                // everything below the other heads is this run's alone, so
                // runs with disjoint id ranges cost one step each
                let rest = &self.run(at)[cursors[at]..];
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
        // runs are never empty, so a slot without runs has no user
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

/// Batch constructor for [`TimeSlot`].
///
/// [`TimeSlot::assign`] keeps the slot's runs sorted after every insertion,
/// which costs `O(n)` per *out-of-order* user — fine for a trickle of
/// mostly-ordered arrivals, quadratic for a bulk feed of interleaved users
/// (many tenants, shuffled ingest). The builder instead collects raw
/// assignments unordered and sorts and deduplicates them once per slot,
/// yielding exactly the slot the per-record path would have built.
///
/// A builder that lives on — the fleet keeps one per tenant and drains it
/// with [`TimeSlotBuilder::finish`] — keeps a *frame* after each slot: one
/// bitmap row per group of the slot it just built, each covering that
/// slot's user ids with some slack either side. A tenant's users in the
/// next slot fall almost all inside it, and an assignment that does sets
/// its bit at once, so such a slot is read straight off the frame. An
/// assignment outside the frame is kept as a packed key, `group << 32 |
/// user`, so that key order is `(group, user)` order, and then the whole
/// slot takes the general path (see [`TimeSlotBuilder::finish`]). The frame
/// is a speed hint, never state: a fresh builder has none, which is how
/// the trace-replay path ([`SlotHistory::from_log`]) uses one, built and
/// dropped per slot, and the slot is the same whichever path builds it.
#[derive(Debug, Clone, Default)]
pub struct TimeSlotBuilder {
    index: usize,
    frame: Frame,
    /// The assignments outside the frame, packed.
    keys: Vec<u64>,
    /// The radix sort's second buffer.
    scratch: Vec<u64>,
}

/// Below this many keys the 256-counter passes cost more than comparing.
const RADIX_MIN_KEYS: usize = 64;

/// User ids a kept frame covers beyond the slot it is cut from, on either
/// side, over a quarter of that slot's id span. The quarter covers a slot's
/// drift (a fiftieth of the population per slot in every generator) and
/// most of a diurnal population's swing in size; the word is room for the
/// churned ids just above the top and for a slot of a handful of users.
const FRAME_SLACK_IDS: u32 = 64;

/// Words a kept frame may take per user of the slot it is cut from, and 64
/// more so that a slot of a handful of users keeps one. Every slot reads
/// the whole frame, so it must stay within a small multiple of the keys it
/// spares; the slot after a sparser one — ids or groups far apart — has no
/// frame, and its keys are radix-sorted when they are as sparse.
const FRAME_WORDS_PER_USER: usize = 2;

/// A bitmap over a range of groups and users: row `r` is the group `g0 +
/// r`, and bit `b` of a row is the user `u0 + b`. Between slots every word
/// is zero; a frame of no rows is no frame.
#[derive(Debug, Clone, Default)]
struct Frame {
    g0: u32,
    rows: u32,
    /// A multiple of 64, and `u0 + 64 · row_words ≤ 2³²`.
    u0: u32,
    row_words: u32,
    /// Assignments that set a bit since the frame was last drained.
    hits: usize,
    bits: Vec<u64>,
}

impl Frame {
    /// Re-cuts the frame over the `groups` and the word-aligned span of the
    /// `users` when that takes at most `max_words` words, and drops it
    /// otherwise. Returns whether a frame was cut.
    fn cut(
        &mut self,
        groups: RangeInclusive<u32>,
        users: RangeInclusive<u32>,
        max_words: usize,
    ) -> bool {
        let u0 = users.start() & !63;
        let row_words = (users.end() - u0) / 64 + 1;
        let rows = groups.end() - groups.start() + 1;
        let words = u64::from(rows) * u64::from(row_words);
        let keep = words <= max_words as u64;
        (self.g0, self.rows, self.u0, self.row_words) = if keep {
            (*groups.start(), rows, u0, row_words)
        } else {
            (0, 0, 0, 0)
        };
        // every word is zero between slots, so a resize leaves a clean frame
        self.bits.resize(if keep { words as usize } else { 0 }, 0);
        keep
    }

    /// Sets the bit of `(group, user)` when the frame covers it.
    #[inline]
    fn set(&mut self, group: u32, user: u32) -> bool {
        // below the origin wraps past the end
        let row = group.wrapping_sub(self.g0);
        let word = user.wrapping_sub(self.u0) >> 6;
        if row >= self.rows || word >= self.row_words {
            return false;
        }
        self.bits[row as usize * self.row_words as usize + word as usize] |= 1 << (user & 63);
        self.hits += 1;
        true
    }

    /// Reads the set bits out as the slot at `index`, each non-empty row one
    /// run, zeroing each word as it is read. The users column is sized by a
    /// popcount first.
    fn read(&mut self, index: usize) -> TimeSlot {
        let count = self.bits.iter().map(|w| w.count_ones() as usize).sum();
        let mut slot = TimeSlot {
            index,
            runs: Vec::new(),
            users: Vec::with_capacity(count),
        };
        self.hits = 0;
        if self.rows == 0 {
            return slot;
        }
        let rows = self.bits.chunks_exact_mut(self.row_words as usize);
        for (group, words) in (self.g0..).zip(rows) {
            let start = slot.users.len();
            for (at, word) in words.iter_mut().enumerate() {
                let base = self.u0 + 64 * at as u32;
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    slot.users.push(UserId(base + bits.trailing_zeros()));
                    bits &= bits - 1;
                }
            }
            if slot.users.len() > start {
                slot.runs.push(Run {
                    group: AccelerationGroupId(group as u8),
                    len: (slot.users.len() - start) as u32,
                    start,
                });
            }
        }
        slot
    }
}

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

/// Writes a slot's two columns from its distinct keys in ascending order,
/// each `(group − gmin) << ubits | (user − umin)`: a run starts wherever the
/// group bits change.
struct ColumnWriter {
    ubits: u32,
    gmin: u32,
    umin: u32,
    group: u64,
    runs: Vec<Run>,
    users: Vec<UserId>,
}

impl ColumnWriter {
    /// A writer for `count` keys: the users column takes exactly that many.
    fn new(count: usize, ubits: u32, gmin: u32, umin: u32) -> Self {
        Self {
            ubits,
            gmin,
            umin,
            group: u64::MAX,
            runs: Vec::new(),
            users: Vec::with_capacity(count),
        }
    }

    #[inline]
    fn push(&mut self, key: u64) {
        if key >> self.ubits != self.group {
            self.group = key >> self.ubits;
            self.runs.push(Run {
                group: AccelerationGroupId(self.group as u8 + self.gmin as u8),
                len: 0,
                start: self.users.len(),
            });
        }
        let user = key & ((1u64 << self.ubits) - 1);
        self.users.push(UserId(user as u32 + self.umin));
    }

    fn finish(mut self, index: usize) -> TimeSlot {
        let mut end = self.users.len();
        for run in self.runs.iter_mut().rev() {
            run.len = (end - run.start) as u32;
            end = run.start;
        }
        TimeSlot {
            index,
            runs: self.runs,
            users: self.users,
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
            frame: Frame::default(),
            keys: Vec::with_capacity(capacity),
            scratch: Vec::new(),
        }
    }

    /// Records that `user` was active in `group` (duplicates are cheap and
    /// collapse when the slot is built).
    #[inline]
    pub fn assign(&mut self, group: AccelerationGroupId, user: UserId) {
        if !self.frame.set(u32::from(group.0), user.0) {
            self.keys.push(u64::from(group.0) << 32 | u64::from(user.0));
        }
    }

    /// Records a batch of `(group, user)` assignments.
    pub fn extend(&mut self, pairs: impl IntoIterator<Item = (AccelerationGroupId, UserId)>) {
        for (group, user) in pairs {
            self.assign(group, user);
        }
    }

    /// Number of recorded assignments (before deduplication).
    pub fn len(&self) -> usize {
        self.keys.len() + self.frame.hits
    }

    /// Returns `true` when no assignment has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorts and deduplicates the collected assignments once and builds the
    /// slot at the builder's index. Equal to feeding every pair through
    /// [`TimeSlot::assign`] in any order.
    pub fn build(mut self) -> TimeSlot {
        let index = self.index;
        self.take(index)
    }

    /// [`TimeSlotBuilder::build`] for a builder that lives on: builds the
    /// slot at `index`, leaves the builder empty with its buffers' capacity
    /// and frames it on the slot just built, ready for the next slot's
    /// assignments.
    ///
    /// When every assignment fell inside the frame, the slot is read
    /// straight off it, each non-empty row one run, and its words are
    /// zeroed as they are read. Otherwise the frame's bits join the keys,
    /// and one pass finds the smallest and largest group and user. When the
    /// frame over exactly that range takes at most a word per key, the keys
    /// are set into it and the slot is read off it the same way; otherwise
    /// each key is rewritten relative to the range, `(group − gmin) <<
    /// ubits | (user − umin)` with `ubits` the bits of the user span, which
    /// keeps `(group, user)` order, and the keys are radix-sorted and
    /// deduplicated. Neither path grows a buffer past the number of keys.
    /// The next frame is the slot's groups and ids widened by a slack, and
    /// none when that would be sparse.
    pub fn finish(&mut self, index: usize) -> TimeSlot {
        let slot = self.take(index);
        if let (Some(first), Some(last)) = (slot.runs.first(), slot.runs.last()) {
            let (umin, umax) = slot.runs.iter().fold((u32::MAX, 0), |(lo, hi), run| {
                let users = &slot.users[run.range()];
                (lo.min(users[0].0), hi.max(users[users.len() - 1].0))
            });
            let slack = (umax - umin) / 4 + FRAME_SLACK_IDS;
            self.frame.cut(
                u32::from(first.group.0)..=u32::from(last.group.0),
                umin.saturating_sub(slack)..=umax.saturating_add(slack),
                FRAME_WORDS_PER_USER * slot.users.len() + 64,
            );
        }
        slot
    }

    /// Builds the slot at `index` from the frame and the keys, leaving both
    /// empty.
    fn take(&mut self, index: usize) -> TimeSlot {
        if self.frame.hits > 0 {
            let framed = self.frame.read(index);
            if self.keys.is_empty() {
                return framed;
            }
            for run in &framed.runs {
                let group = u64::from(run.group.0) << 32;
                let users = framed.users[run.range()].iter();
                self.keys
                    .extend(users.map(|user| group | u64::from(user.0)));
            }
        }
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
        let slot = if self.frame.cut(gmin..=gmax, umin..=umax, self.keys.len()) {
            for &key in &self.keys {
                let set = self.frame.set(group(key), user(key));
                debug_assert!(set, "the keys' exact frame covers every key");
            }
            self.frame.read(index)
        } else {
            let ubits = u32::BITS - (umax - umin).leading_zeros();
            let relative =
                |key: u64| u64::from(group(key) - gmin) << ubits | u64::from(user(key) - umin);
            self.keys.iter_mut().for_each(|key| *key = relative(*key));
            let largest = relative(u64::from(gmax) << 32 | u64::from(umax));
            let bits = u64::BITS - largest.leading_zeros();
            sort_keys(&mut self.keys, &mut self.scratch, bits);
            self.keys.dedup();
            let mut columns = ColumnWriter::new(self.keys.len(), ubits, gmin, umin);
            self.keys.iter().for_each(|&key| columns.push(key));
            columns.finish(index)
        };
        self.keys.clear();
        slot
    }
}

/// The chronological history of time slots `T` extracted from the log.
///
/// A history may be given a *window*: an upper bound on the number of most
/// recent slots it retains. Older slots are evicted from the front, which
/// bounds both the memory held by a long-running system and the cost of the
/// predictor's nearest-neighbour scan. Slot indices stay global
/// (chronological since the beginning of the trace), so an evicted history
/// still reports meaningful slot indices; [`SlotHistory::first_index`]
/// gives the global index of the oldest retained slot.
///
/// Each retained slot keeps its own two columns (see the module docs): a
/// pushed slot moves in uncopied, and eviction drops the oldest one.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotHistory {
    /// The retained slots, oldest first.
    slots: VecDeque<TimeSlot>,
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
            slots: VecDeque::new(),
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
            let excess = self.slots.len().saturating_sub(window);
            self.slots.drain(..excess);
            self.evicted += excess;
        }
    }

    /// Builds the history from a trace log, assigning each record to the slot
    /// containing its timestamp.
    ///
    /// This is the batch-replay path: records are bucketed into one
    /// [`TimeSlotBuilder`] per slot and each slot is materialized with a
    /// single sort + dedup pass, instead of paying [`TimeSlot::assign`]'s
    /// ordered insert per record; the slots are the ones one `assign` per
    /// record would build.
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

    /// Appends an already-built slot (its index is rewritten to stay
    /// chronological), evicting the oldest slot when a window is set and
    /// full.
    pub fn push(&mut self, mut slot: TimeSlot) {
        slot.index = self.evicted + self.slots.len();
        self.slots.push_back(slot);
        self.trim();
    }

    /// The retained slot at `position` (0 is the oldest retained slot).
    ///
    /// # Panics
    ///
    /// Panics if `position` is not below [`SlotHistory::len`].
    pub fn slot(&self, position: usize) -> &TimeSlot {
        &self.slots[position]
    }

    /// The retained slots in chronological order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &TimeSlot> + ExactSizeIterator {
        self.slots.iter()
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
        self.slots.back()
    }
}

/// A run on the wire: its group and its user count, five bytes.
fn run_to_le_bytes(run: &Run) -> [u8; 5] {
    let [a, b, c, d] = run.len.to_le_bytes();
    [run.group.0, a, b, c, d]
}

/// Bytes per gap of a run whose widest gap is `gap`.
fn gap_width(gap: u32) -> u8 {
    match gap {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        _ => 4,
    }
}

/// Appends one run's users: the width `w` of its gaps (1, 2 or 4 bytes), its
/// first id (`u32`), then each later id as its gap `id − previous − 1` in
/// `w` little-endian bytes. A run of one tenant's users is mostly gaps under
/// 256, a byte each instead of four.
fn encode_gaps(users: &[UserId], out: &mut Vec<u8>) {
    let gaps = || users.iter().zip(&users[1..]).map(|(a, b)| b.0 - a.0 - 1);
    // the gaps sum to the span less the ids between: when that sum fits a
    // byte, so does every gap, and the gaps need no scan
    let spread = users[users.len() - 1].0 - users[0].0 - (users.len() as u32 - 1);
    let width = gap_width(if spread < 0x100 {
        spread
    } else {
        gaps().max().unwrap_or(0)
    });
    out.push(width);
    out.extend_from_slice(&users[0].0.to_le_bytes());
    match width {
        // the common width: a trusted-length extend, the fastest writer
        1 => out.extend(gaps().map(|gap| gap as u8)),
        2 => put_gaps::<2>(gaps(), out),
        _ => put_gaps::<4>(gaps(), out),
    }
}

/// Appends each gap as its `W` low little-endian bytes.
fn put_gaps<const W: usize>(gaps: impl ExactSizeIterator<Item = u32>, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + W * gaps.len(), 0);
    for (word, gap) in out[start..].as_chunks_mut::<W>().0.iter_mut().zip(gaps) {
        word.copy_from_slice(&gap.to_le_bytes()[..W]);
    }
}

/// The history is its slot length, window and evicted count, then its
/// retained slots as three length-prefixed runs: runs per slot (`u16`
/// each), `(group u8, len u32)` per run, and the users' bytes, run by run
/// a gap width, the first id and the gaps after it (`encode_gaps`). A
/// slot's index is `evicted` plus its position, and a run's start is the
/// sum of the lengths before it in its slot, so neither travels.
impl Snapshot for SlotHistory {
    fn encode(&self, out: &mut Vec<u8>) {
        self.slot_length_ms.encode(out);
        self.window.encode(out);
        self.evicted.encode(out);
        self.slots.len().encode(out);
        out.reserve(2 * self.slots.len());
        for slot in &self.slots {
            // at most 256 runs: one per `u8` group
            out.extend_from_slice(&(slot.runs.len() as u16).to_le_bytes());
        }
        let runs: usize = self.slots.iter().map(|slot| slot.runs.len()).sum();
        runs.encode(out);
        out.reserve(5 * runs);
        for slot in &self.slots {
            encode_le_run(&slot.runs, out, run_to_le_bytes);
        }
        // room for the common case, one-byte gaps
        let users: usize = self.slots.iter().map(|slot| slot.users.len()).sum();
        out.reserve(8 + 4 * runs + users);
        let prefix = out.len();
        0u64.encode(out);
        for slot in &self.slots {
            for run in &slot.runs {
                encode_gaps(&slot.users[run.range()], out);
            }
        }
        let bytes = (out.len() - prefix - 8) as u64;
        out[prefix..prefix + 8].copy_from_slice(&bytes.to_le_bytes());
    }
}

/// Claims a length-prefixed run of `W`-byte words from the cursor, without
/// decoding it.
fn words<'a, const W: usize>(
    cur: &mut Cursor<'a>,
    context: &'static str,
) -> Result<&'a [[u8; W]], SnapshotError> {
    let bytes = usize::decode(cur)?
        .checked_mul(W)
        .ok_or(SnapshotError::Truncated { context })?;
    Ok(cur.take(bytes, context)?.as_chunks::<W>().0)
}

/// Slots a restore reserves room for before it has checked them.
const MAX_RESERVED_SLOTS: usize = 1 << 20;

/// A history's columns as read off the wire: the lengths claimed from the
/// cursor, the contents not yet decoded. [`HistoryColumns::validate`] turns
/// them into a [`SlotHistory`].
#[derive(Debug)]
pub(crate) struct HistoryColumns<'a> {
    slot_length_ms: f64,
    window: Option<usize>,
    evicted: usize,
    runs_per_slot: &'a [[u8; 2]],
    runs: &'a [[u8; 5]],
    users: &'a [u8],
}

impl<'a> HistoryColumns<'a> {
    /// Reads a history's columns off the cursor.
    pub(crate) fn read(cur: &mut Cursor<'a>) -> Result<Self, SnapshotError> {
        Ok(Self {
            slot_length_ms: f64::decode(cur)?,
            window: Option::<usize>::decode(cur)?,
            evicted: usize::decode(cur)?,
            runs_per_slot: words(cur, "history runs per slot")?,
            runs: words(cur, "history runs")?,
            users: words::<1>(cur, "history users")?.as_flattened(),
        })
    }

    /// Number of slots the columns describe.
    pub(crate) fn len(&self) -> usize {
        self.runs_per_slot.len()
    }

    /// Decodes the slots while checking every invariant of a history, in
    /// one pass over the columns — each run non-empty, inside the users and
    /// its ids within `u32`, each slot's groups strictly increasing, the run
    /// counts summing to the runs and the users bytes all read, no more
    /// slots than the window. (Gaps cannot make ids repeat or decrease.)
    /// Each slot's columns are allocated once, at their exact size, and the
    /// slot is handed to `visit` as soon as it is decoded, while its users
    /// are in cache.
    pub(crate) fn validate(
        self,
        mut visit: impl FnMut(&TimeSlot),
    ) -> Result<SlotHistory, SnapshotError> {
        let malformed = |context| Err(SnapshotError::Malformed { context });
        let Self {
            slot_length_ms,
            window,
            evicted,
            runs_per_slot,
            runs,
            users,
        } = self;
        if slot_length_ms.is_nan() || slot_length_ms <= 0.0 {
            return malformed("non-positive slot length");
        }
        if window == Some(0) {
            return malformed("zero history window");
        }
        if window.is_some_and(|w| runs_per_slot.len() > w) {
            return malformed("history longer than its window");
        }
        if evicted.checked_add(runs_per_slot.len()).is_none() {
            return malformed("history slot indices overflow");
        }
        let run_len = |[_, a, b, c, d]: [u8; 5]| u32::from_le_bytes([a, b, c, d]) as usize;
        // a slot takes two bytes on the wire and a `TimeSlot` in memory:
        // reserve up to a bound, and grow past it as checked slots arrive
        let mut slots = VecDeque::with_capacity(runs_per_slot.len().min(MAX_RESERVED_SLOTS));
        let (mut row, mut at) = (0, 0);
        for (position, &count) in runs_per_slot.iter().enumerate() {
            let count = usize::from(u16::from_le_bytes(count));
            let Some(slot_runs) = runs.get(row..row + count) else {
                return malformed("runs per slot exceed the runs");
            };
            // every run takes at least a width byte, its first id and a
            // byte per later id: bound the allocation by the bytes left
            let len: usize = slot_runs.iter().map(|&run| run_len(run)).sum();
            if 4 * count + len > users.len() - at {
                return malformed("group run past the users");
            }
            let mut slot = TimeSlot {
                index: evicted + position,
                runs: Vec::with_capacity(count),
                users: Vec::with_capacity(len),
            };
            for &wire in slot_runs {
                let run = Run {
                    group: AccelerationGroupId(wire[0]),
                    len: run_len(wire) as u32,
                    start: slot.users.len(),
                };
                if run.len == 0 {
                    return malformed("empty group run");
                }
                if slot.runs.last().is_some_and(|last| last.group >= run.group) {
                    return malformed("slot runs not sorted by group");
                }
                at += decode_gaps(&users[at..], run.len as usize, &mut slot.users)?;
                slot.runs.push(run);
            }
            visit(&slot);
            slots.push_back(slot);
            row += count;
        }
        if row != runs.len() {
            return malformed("runs per slot do not sum to the runs");
        }
        if at != users.len() {
            return malformed("users bytes left over");
        }
        Ok(SlotHistory {
            slots,
            slot_length_ms,
            window,
            evicted,
        })
    }
}

/// Decodes one run of `len` users written by [`encode_gaps`] from the front
/// of `wire` onto `users`, returning the bytes it took.
fn decode_gaps(wire: &[u8], len: usize, users: &mut Vec<UserId>) -> Result<usize, SnapshotError> {
    let width = wire.first().map_or(0, |&width| usize::from(width));
    let taken = 5 + (len - 1) * width;
    let Some((first, gaps)) = wire
        .get(1..taken)
        .and_then(|run| run.split_first_chunk::<4>())
    else {
        return Err(SnapshotError::Malformed {
            context: "group run past the users",
        });
    };
    let first = u32::from_le_bytes(*first);
    match width {
        1 => extend_gaps::<1>(first, gaps, users)?,
        2 => extend_gaps::<2>(first, gaps, users)?,
        4 => extend_gaps::<4>(first, gaps, users)?,
        _ => {
            return Err(SnapshotError::Malformed {
                context: "user gap width not 1, 2 or 4",
            })
        }
    }
    Ok(taken)
}

/// Appends `first` and the ids its `W`-byte gaps lead to.
fn extend_gaps<const W: usize>(
    first: u32,
    gaps: &[u8],
    users: &mut Vec<UserId>,
) -> Result<(), SnapshotError> {
    let (gaps, _) = gaps.as_chunks::<W>();
    let gap = |bytes: &[u8; W]| {
        let mut word = [0; 4];
        word[..W].copy_from_slice(bytes);
        u32::from_le_bytes(word)
    };
    // ids only grow: the last one is the one that could pass `u32::MAX`
    let last = gaps
        .iter()
        .map(|bytes| u64::from(gap(bytes)) + 1)
        .sum::<u64>()
        + u64::from(first);
    if last > u64::from(u32::MAX) {
        return Err(SnapshotError::Malformed {
            context: "group run ids past u32::MAX",
        });
    }
    users.push(UserId(first));
    let mut id = first;
    users.extend(gaps.iter().map(|bytes| {
        id += gap(bytes) + 1;
        UserId(id)
    }));
    Ok(())
}

impl Restore for SlotHistory {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        HistoryColumns::read(cur)?.validate(|_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_offload::TraceRecord;

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
        assert_eq!(history.slot(0).load_of(AccelerationGroupId(1)), 2);
        assert_eq!(history.slot(1).load_of(AccelerationGroupId(2)), 1);
        assert_eq!(history.slot(2).load_of(AccelerationGroupId(1)), 1);
        assert_eq!(history.last().unwrap().index, 2);
    }

    #[test]
    fn intermediate_empty_slots_are_materialized() {
        let log: TraceLog = vec![record(100.0, 1, 1), record(10.0 * 3_600_000.0 + 1.0, 2, 1)]
            .into_iter()
            .collect();
        let history = SlotHistory::from_log(&log, 3_600_000.0);
        assert_eq!(history.len(), 11);
        assert!(history.slot(5).is_empty());
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
        assert_eq!(history.slot(0).index, 0);
        assert_eq!(history.slot(1).index, 1);
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
        let indices: Vec<usize> = history.iter().map(|s| s.index).collect();
        assert_eq!(indices, vec![2, 3, 4]);
        assert_eq!(
            history.slot(0).users_in(AccelerationGroupId(1)),
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
        // that is 66 words, set straight into the frame; under groups 127
        // apart, 5,610 words, so the keys are radix-sorted and no frame is
        // kept
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
            assert_eq!(builder.frame.rows > 0, dense, "gap {gap}");
            assert!(builder.frame.bits.iter().all(|&word| word == 0));
            // the frame holds a row of words per group, the radix sort a key
            // per key in either buffer
            let capacities = |b: &TimeSlotBuilder| {
                let (keys, scratch) = (b.keys.capacity(), b.scratch.capacity());
                (
                    keys.min(scratch),
                    keys.max(scratch),
                    b.frame.bits.capacity(),
                )
            };
            let warm = capacities(&builder);
            assert!(warm.1 >= 200);
            builder.extend(pairs(1));
            // the ids moved one up: every pair lands in the frame
            assert_eq!(builder.keys.is_empty(), dense, "gap {gap}");
            assert_eq!(builder.len(), 200);
            let second = builder.finish(5);
            assert_eq!(second, assigned(5, 1), "gap {gap}");
            assert_eq!(second.index, 5);
            assert_eq!(
                capacities(&builder),
                warm,
                "gap {gap}: the second slot reuses the first one's buffers"
            );
            // the users column holds exactly the slot's users
            assert_eq!(second.users.capacity(), second.users.len());
        }
    }

    /// The slot `TimeSlot::assign` builds from `pairs`.
    fn assigned(index: usize, pairs: &[(AccelerationGroupId, UserId)]) -> TimeSlot {
        let mut slot = TimeSlot::new(index);
        for &(group, user) in pairs {
            slot.assign(group, user);
        }
        slot
    }

    #[test]
    fn a_framed_builder_takes_each_path_and_builds_the_same_slot() {
        let population = |groups: &[u8], base: u32, users: u32| -> Vec<_> {
            (0..users)
                .map(|u| {
                    let group = groups[(u as usize * 7) % groups.len()];
                    (AccelerationGroupId(group), UserId(base + (u * 31) % users))
                })
                .collect()
        };
        let mut builder = TimeSlotBuilder::new(0);
        let mut check = |index: usize, pairs: &[(AccelerationGroupId, UserId)]| {
            builder.extend(pairs.iter().copied());
            let path = (builder.keys.len(), builder.frame.hits);
            assert_eq!(path.0 + path.1, pairs.len(), "slot {index}");
            assert_eq!(
                builder.finish(index),
                assigned(index, pairs),
                "slot {index}"
            );
            assert!(builder.is_empty() && builder.frame.bits.iter().all(|&w| w == 0));
            (path, builder.frame.rows)
        };
        // a fresh builder has no frame: keys, cut exactly, then a frame
        // over groups 1..=3
        let slot = population(&[1, 2, 3], 5_000, 400);
        assert_eq!(check(0, &slot), ((400, 0), 3));
        // drifted by a fiftieth, with duplicates: all hits
        let mut slot = population(&[1, 2, 3], 5_008, 400);
        slot.extend_from_slice(&slot.clone()[..50]);
        assert_eq!(check(1, &slot), ((0, 450), 3));
        // one pair in a new group: the hits join the keys
        let mut slot = population(&[1, 2, 3], 5_016, 400);
        slot.push((AccelerationGroupId(4), UserId(5_100)));
        assert_eq!(check(2, &slot), ((1, 400), 4));
        // beyond the slack below and above: keys alone
        assert_eq!(check(3, &population(&[2], 3_000, 100)).0, (100, 0));
        assert_eq!(check(4, &population(&[2], 9_000, 100)).0, (100, 0));
        // an empty slot keeps the frame the slot before it left
        assert_eq!(check(5, &[]), ((0, 0), 1));
        assert_eq!(check(6, &population(&[2], 9_000, 100)).0, (0, 100));
        // a sparse slot is radix-sorted and leaves no frame
        let sparse: Vec<_> = [(0, 0), (255, u32::MAX), (3, 9_010), (0, u32::MAX)]
            .map(|(g, u)| (AccelerationGroupId(g), UserId(u)))
            .into();
        assert_eq!(check(7, &sparse), ((4, 0), 0));
        // the extremes, dense: a frame against both ends of the id space
        let low = population(&[0], 0, 64);
        assert_eq!(check(8, &low), ((64, 0), 1));
        assert_eq!(check(9, &low), ((0, 64), 1));
        let high = population(&[255], u32::MAX - 63, 64);
        assert_eq!(check(10, &high), ((64, 0), 1));
        assert_eq!(check(11, &high), ((0, 64), 1));
        // a single user
        let single = [(AccelerationGroupId(255), UserId(u32::MAX))];
        assert_eq!(check(12, &single), ((0, 1), 1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// One builder that lives across a random sequence of slots builds
        /// each slot as one `TimeSlot::assign` per pair does, whichever path
        /// its frame sends the slot down. A tenant-like population over a
        /// few adjacent groups drifts a fiftieth of its span per slot, and
        /// steps interleave: drift past the slack up and down, a group below
        /// or above the frame's (group 255 and 0 included), a fresh narrow
        /// group range, empty slots, duplicate-heavy batches, single-user
        /// slots, the ids 0 and `u32::MAX`, and sparse slots that take the
        /// radix sort.
        #[test]
        fn a_framed_builder_equals_per_record_assign_over_random_slot_sequences(
            steps in proptest::collection::vec((0u8..12, 0u64..u64::MAX), 1..40),
            start in (0u32..256, 0u32..3, 0u32..u32::MAX, 1u32..3_000),
        ) {
            let (glo, gspan, base, span) = start;
            let (mut glo, mut gspan, mut base) = (glo.min(255 - gspan), gspan, base);
            let mut builder = TimeSlotBuilder::new(0);
            for (index, &(kind, seed)) in steps.iter().enumerate() {
                let mut z = seed;
                let mut next = move || {
                    z = mixed(z);
                    z as u32
                };
                match kind {
                    // past the slack, up and down
                    3 => base = base.saturating_add(2 * span + 200),
                    4 => base = base.saturating_sub(2 * span + 200),
                    // a group below or above the frame's
                    5 => {
                        let below = glo.saturating_sub(1 + next() % 3);
                        gspan += glo - below;
                        glo = below;
                    }
                    6 => gspan = if next() % 3 == 0 { 255 - glo } else { (gspan + 1).min(255 - glo) },
                    // a fresh narrow range of groups
                    7 => {
                        glo = next() % 256;
                        gspan = (next() % 3).min(255 - glo);
                    }
                    _ => base = base.saturating_add(span / 50),
                }
                base = base.min(u32::MAX - span);
                let draw = |g: u32, u: u32| {
                    (
                        AccelerationGroupId((glo + g % (gspan + 1)) as u8),
                        UserId(base + u % (span + 1)),
                    )
                };
                let pairs: Vec<_> = match kind {
                    8 => Vec::new(),
                    // a handful of users, each many times over
                    9 => {
                        let few: Vec<_> = (0..1 + next() % 5).map(|_| draw(next(), next())).collect();
                        (0..200).map(|i| few[i % few.len()]).collect()
                    }
                    10 => vec![draw(next(), next())],
                    // sparse: the extremes and ids spread over the id space
                    11 => {
                        let mut pairs: Vec<_> = (0..20)
                            .map(|_| (AccelerationGroupId(next() as u8), UserId(next() << 7)))
                            .collect();
                        pairs.push((AccelerationGroupId(glo as u8), UserId(0)));
                        pairs.push((AccelerationGroupId(255), UserId(u32::MAX)));
                        pairs
                    }
                    _ => (0..span / 2 + next() % span).map(|_| draw(next(), next())).collect(),
                };
                builder.extend(pairs.iter().copied());
                proptest::prop_assert_eq!(builder.len(), pairs.len());
                proptest::prop_assert_eq!(
                    builder.finish(index),
                    assigned(index, &pairs),
                    "step {} of kind {}",
                    index,
                    kind
                );
                proptest::prop_assert!(builder.is_empty());
                proptest::prop_assert!(builder.frame.bits.iter().all(|&word| word == 0));
            }
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
    fn from_log_batch_replay_matches_per_record_assign() {
        let records: Vec<TraceRecord> = (0..200)
            .map(|i| {
                // timestamps deliberately out of chronological order
                let t = ((i * 37) % 200) as f64 * 90_000.0;
                record(t, (200 - i) as u32 % 23, (i % 3 + 1) as u8)
            })
            .collect();
        let log: TraceLog = records.iter().cloned().collect();
        let batched = SlotHistory::from_log(&log, 3_600_000.0);
        // one `assign` per record, into the slot holding its timestamp
        let mut assigned: Vec<TimeSlot> = (0..5).map(TimeSlot::new).collect();
        for r in &records {
            assigned[(r.timestamp_ms / 3_600_000.0) as usize].assign(r.group, r.user);
        }
        assert_eq!(batched.len(), assigned.len());
        for (position, slot) in assigned.iter().enumerate() {
            assert_eq!(batched.slot(position), slot);
        }
    }

    /// Slot `i` of a drifting history: `i % 5 + 1` users of group 1 from
    /// id `i` on, and user `i` of group 3 every other slot.
    fn drifting(i: u32) -> TimeSlot {
        let group1 = (i..i + i % 5 + 1).map(|u| (AccelerationGroupId(1), UserId(u)));
        let group3 = i
            .is_multiple_of(2)
            .then_some((AccelerationGroupId(3), UserId(i)));
        TimeSlot::from_assignments(0, group1.chain(group3))
    }

    fn restored(history: &SlotHistory) -> SlotHistory {
        let mut bytes = Vec::new();
        history.encode(&mut bytes);
        let mut cur = Cursor::new(&bytes);
        let restored = SlotHistory::decode(&mut cur).expect("a live history restores");
        assert!(cur.is_empty());
        restored
    }

    #[test]
    fn a_windowed_history_equals_its_restore_and_grows_on_alike() {
        let mut history = SlotHistory::hourly().with_window(4);
        for i in 0..9 {
            history.push(drifting(i));
        }
        assert_eq!((history.len(), history.first_index()), (4, 5));
        let mut copy = restored(&history);
        assert_eq!(copy, history);
        for (position, slot) in copy.iter().enumerate() {
            let mut expected = drifting(5 + position as u32);
            expected.index = 5 + position;
            assert_eq!(slot, &expected);
        }
        for i in 9..14 {
            history.push(drifting(i));
            copy.push(drifting(i));
            assert_eq!(copy, history, "slot {i}");
        }
        // restored columns hold exactly their slot
        let copy = restored(&history);
        assert!(copy
            .slots
            .iter()
            .all(|s| s.users.capacity() == s.users.len() && s.runs.capacity() == s.runs.len()));
    }

    /// A history stream of one-hour slots, none evicted, with the given
    /// window, runs and users bytes.
    fn wire(
        window: Option<usize>,
        runs_per_slot: &[u16],
        runs: &[(u8, u32)],
        users: &[u8],
    ) -> Vec<u8> {
        let mut out = Vec::new();
        3_600_000.0f64.encode(&mut out);
        window.encode(&mut out);
        0usize.encode(&mut out);
        runs_per_slot.to_vec().encode(&mut out);
        runs.len().encode(&mut out);
        for &(group, len) in runs {
            group.encode(&mut out);
            len.encode(&mut out);
        }
        users.to_vec().encode(&mut out);
        out
    }

    fn malformed(bytes: &[u8]) -> &'static str {
        match SlotHistory::decode(&mut Cursor::new(bytes)) {
            Err(SnapshotError::Malformed { context }) => context,
            other => panic!("expected a malformed history, got {other:?}"),
        }
    }

    #[test]
    fn the_wire_is_runs_per_slot_then_runs_then_each_runs_first_id_and_gaps() {
        let mut history = SlotHistory::hourly().with_window(3);
        let pairs = [(2, 300), (0, 7), (2, 9), (0, 5)];
        for slot in [
            TimeSlot::new(0),
            TimeSlot::from_assignments(0, [(AccelerationGroupId(1), UserId(4))]),
            TimeSlot::from_assignments(
                0,
                pairs.map(|(group, user)| (AccelerationGroupId(group), UserId(user))),
            ),
        ] {
            history.push(slot);
        }
        #[rustfmt::skip]
        let users = [
            1, 4, 0, 0, 0, // group 1: width 1, first id 4
            1, 5, 0, 0, 0, 1, // group 0: 5, then 7 as gap 1
            2, 9, 0, 0, 0, 34, 1, // group 2: 9, then 300 as gap 290 in two bytes
        ];
        let expected = wire(Some(3), &[0, 1, 2], &[(1, 1), (0, 2), (2, 2)], &users);
        let mut bytes = Vec::new();
        history.encode(&mut bytes);
        assert_eq!(bytes, expected);
        assert_eq!(restored(&history), history);
        // four-byte gaps, and ids up to `u32::MAX`
        let wide = TimeSlot::from_assignments(
            0,
            [0, 70_000, u32::MAX].map(|user| (AccelerationGroupId(3), UserId(user))),
        );
        history.push(wide.clone());
        assert_eq!(
            restored(&history)
                .last()
                .unwrap()
                .users_in(AccelerationGroupId(3)),
            wide.users_in(AccelerationGroupId(3))
        );
    }

    #[test]
    fn each_broken_column_invariant_is_a_typed_error() {
        // a run past the users
        assert_eq!(
            malformed(&wire(None, &[1], &[(1, 3)], &[1, 1, 0, 0, 0, 0])),
            "group run past the users"
        );
        assert_eq!(
            malformed(&wire(None, &[1], &[(1, 3)], &[4, 1, 0, 0, 0, 0, 0])),
            "group run past the users"
        );
        // a zero-length run
        assert_eq!(
            malformed(&wire(
                None,
                &[2],
                &[(1, 1), (2, 0)],
                &[1, 1, 0, 0, 0, 0, 0, 0, 0]
            )),
            "empty group run"
        );
        // gaps cannot make ids repeat or decrease, only pass `u32::MAX`
        assert_eq!(
            malformed(&wire(None, &[1], &[(1, 2)], &[1, 255, 255, 255, 255, 0])),
            "group run ids past u32::MAX"
        );
        assert_eq!(
            malformed(&wire(None, &[1], &[(1, 2)], &[3, 1, 0, 0, 0, 0, 0, 0])),
            "user gap width not 1, 2 or 4"
        );
        // groups out of order, or repeated, within a slot
        for groups in [(2, 1), (1, 1)] {
            assert_eq!(
                malformed(&wire(
                    None,
                    &[2],
                    &[(groups.0, 1), (groups.1, 1)],
                    &[1, 1, 0, 0, 0, 1, 2, 0, 0, 0]
                )),
                "slot runs not sorted by group"
            );
        }
        // run counts that overrun the runs, or leave some over
        assert_eq!(
            malformed(&wire(None, &[1, 1], &[(1, 1)], &[1, 1, 0, 0, 0])),
            "runs per slot exceed the runs"
        );
        assert_eq!(
            malformed(&wire(
                None,
                &[1],
                &[(1, 1), (2, 1)],
                &[1, 1, 0, 0, 0, 1, 2, 0, 0, 0]
            )),
            "runs per slot do not sum to the runs"
        );
        // users bytes no run reads
        assert_eq!(
            malformed(&wire(None, &[1], &[(1, 1)], &[1, 1, 0, 0, 0, 7])),
            "users bytes left over"
        );
        // more slots than the window
        assert_eq!(
            malformed(&wire(Some(1), &[0, 0], &[], &[])),
            "history longer than its window"
        );
        // the same group in two slots is two runs
        let two_slots = wire(
            None,
            &[1, 1],
            &[(1, 1), (1, 1)],
            &[1, 1, 0, 0, 0, 1, 1, 0, 0, 0],
        );
        assert_eq!(
            SlotHistory::decode(&mut Cursor::new(&two_slots))
                .unwrap()
                .len(),
            2
        );
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
