//! Slot windowing: folding timestamped events into provisioning-slot batches.
//!
//! The paper's model consumes *time slots* (§IV-A), but every real workload
//! source is timestamped — the SDN-accelerator's request log, a recorded
//! arrival trace, a live record stream. [`SlotWindower`] is the bridge: it
//! buckets events by `floor(timestamp / slot_length)` and hands slots out in
//! chronological order, with three properties the ingestion layer relies on:
//!
//! * **out-of-order tolerance within a slot** — events may arrive in any
//!   order; a slot's batch is complete once the slot is taken, and batch
//!   order is irrelevant downstream ([`crate::TimeSlotBuilder`] sorts),
//! * **empty slots for gaps** — [`SlotWindower::take_next`] yields an empty
//!   batch for interior slots no event fell into, so the provisioning clock
//!   never skips,
//! * **deterministic boundary assignment** — an event whose timestamp lies
//!   exactly on a slot boundary `k * slot_length` belongs to slot `k` (the
//!   slot it *opens*), the same floor rule
//!   [`crate::SlotHistory::from_log`] and the trace aggregation helpers use.
//!
//! Events that arrive for a slot that was already taken are **late**: they
//! are dropped and counted ([`SlotWindower::late_events`]), never silently
//! folded into a wrong slot.
//!
//! # The open slot
//!
//! Almost every event of a live stream falls into the slot the window is
//! about to emit, so that slot lives outside the map of later slots, with
//! the exact timestamp interval `[start, end)` it covers. An event inside
//! the interval costs two comparisons and a push; any other timestamp
//! (earlier, later, NaN, ±∞) takes the division of [`SlotWindower::slot_of`].
//! The interval is exact because `slot_of` is monotone in the timestamp:
//! IEEE division by a positive length is correctly rounded and so monotone,
//! and `floor`, the clamp at 0 and the saturating cast to `usize` are too.
//! Every slot is therefore an interval of the ordered `f64`s, and its
//! `start` — the least timestamp whose slot is at least the open one — is
//! found by evaluating `slot_of` itself: out from `slot × slot_length` in
//! ulp steps that double, then by bisection. The bounds are computed once
//! per slot and agree with the division on every timestamp, subnormals and
//! the ulps around a boundary included.

use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};
use std::collections::BTreeMap;

/// Folds timestamped events into provisioning-slot batches.
///
/// Generic over the event payload `T` so the same windower serves the core
/// trace-replay path (`(group, user)` assignments) and the fleet ingestion
/// layer (tenant-tagged records).
///
/// ```
/// use mca_core::SlotWindower;
///
/// let mut windower = SlotWindower::new(1_000.0);
/// windower.push(250.0, "a");
/// windower.push(2_500.0, "c"); // slot 2: leaves slot 1 as a gap
/// windower.push(100.0, "b");   // out of order within slot 0: fine
/// assert_eq!(windower.take_next(), vec!["a", "b"]);
/// assert_eq!(windower.take_next(), Vec::<&str>::new()); // the gap slot
/// assert!(!windower.push(500.0, "late")); // slot 0 was already taken
/// assert_eq!(windower.take_next(), vec!["c"]);
/// assert_eq!(windower.late_events(), 1);
/// assert!(windower.is_drained());
/// ```
#[derive(Debug, Clone)]
pub struct SlotWindower<T> {
    slot_length_ms: f64,
    /// The open slot's events (slot `next_slot`), in push order.
    open: Vec<T>,
    /// The least timestamp of the open slot (see the module docs).
    open_start: f64,
    /// The least timestamp of the slot after the open one; `+∞` when no
    /// finite timestamp reaches it.
    open_end: f64,
    /// Events awaiting a slot after the open one, keyed by slot index.
    pending: BTreeMap<usize, Vec<T>>,
    /// The next slot [`SlotWindower::take_next`] will emit: the open slot.
    next_slot: usize,
    /// Events dropped because their slot was already emitted.
    late_events: usize,
}

/// Maps an `f64` to a `u64` key in the same order: `-∞` to `+∞` land on
/// one contiguous key range that holds no NaN, and `−0.0` sits just below
/// `+0.0`.
fn order_key(time_ms: f64) -> u64 {
    let bits = time_ms.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

impl<T> SlotWindower<T> {
    /// Creates a windower over slots of `slot_length_ms` milliseconds,
    /// starting at slot 0.
    ///
    /// # Panics
    ///
    /// Panics if the slot length is not strictly positive.
    pub fn new(slot_length_ms: f64) -> Self {
        assert!(slot_length_ms > 0.0, "slot length must be positive");
        Self::open_at(slot_length_ms, BTreeMap::new(), 0, 0)
    }

    /// The windower whose open slot is `next_slot`, holding `pending`'s
    /// batch for it (if any) outside the map.
    fn open_at(
        slot_length_ms: f64,
        mut pending: BTreeMap<usize, Vec<T>>,
        next_slot: usize,
        late_events: usize,
    ) -> Self {
        let mut windower = Self {
            slot_length_ms,
            open: pending.remove(&next_slot).unwrap_or_default(),
            open_start: f64::NEG_INFINITY,
            open_end: f64::INFINITY,
            pending,
            next_slot,
            late_events,
        };
        windower.open_start = windower.slot_start(next_slot);
        windower.open_end = windower.end_of(next_slot);
        windower
    }

    /// The slot length, ms.
    pub fn slot_length_ms(&self) -> f64 {
        self.slot_length_ms
    }

    /// The slot a timestamp falls into: `floor(time / slot_length)`, clamped
    /// at 0. A timestamp exactly on a boundary opens the later slot.
    pub fn slot_of(&self, time_ms: f64) -> usize {
        (time_ms / self.slot_length_ms).floor().max(0.0) as usize
    }

    /// The least timestamp `t` (in the order of the non-NaN `f64`s) with
    /// `slot_of(t) >= slot`, or `+∞` when no finite timestamp has one.
    /// `slot_of` is monotone, so this bounds the slot exactly; the search
    /// starts at `slot × slot_length`, a few ulps from the answer.
    fn slot_start(&self, slot: usize) -> f64 {
        let reaches = |key: u64| self.slot_of(from_order_key(key)) >= slot;
        let (least, most) = (order_key(f64::NEG_INFINITY), order_key(f64::INFINITY));
        if reaches(least) {
            return f64::NEG_INFINITY;
        }
        if !reaches(most) {
            return f64::INFINITY;
        }
        // slot ≥ 1 here, so the guess is positive and never NaN; step out
        // from it until `below` falls short of the slot and `above` reaches it
        let guess = order_key(slot as f64 * self.slot_length_ms);
        let (mut below, mut above) = (guess, guess);
        let mut step = 1u64;
        if reaches(guess) {
            while reaches(below) {
                above = below;
                below = below.saturating_sub(step).max(least);
                step = step.saturating_mul(2);
            }
        } else {
            while !reaches(above) {
                below = above;
                above = above.saturating_add(step).min(most);
                step = step.saturating_mul(2);
            }
        }
        while above - below > 1 {
            let middle = below + (above - below) / 2;
            if reaches(middle) {
                above = middle;
            } else {
                below = middle;
            }
        }
        from_order_key(above)
    }

    /// The exclusive end of slot `slot`'s interval: where the next slot
    /// starts, or `+∞` past the last index.
    fn end_of(&self, slot: usize) -> f64 {
        slot.checked_add(1)
            .map_or(f64::INFINITY, |next| self.slot_start(next))
    }

    /// Buckets one event. Returns `false` (and counts the event as late)
    /// when its slot was already emitted.
    #[inline]
    pub fn push(&mut self, time_ms: f64, event: T) -> bool {
        // `slot_of(time_ms) == next_slot`, without the division
        if self.open_start <= time_ms && time_ms < self.open_end {
            self.open.push(event);
            return true;
        }
        let slot = self.slot_of(time_ms);
        if slot < self.next_slot {
            self.late_events += 1;
            return false;
        }
        if slot == self.next_slot {
            self.open.push(event);
        } else {
            self.pending.entry(slot).or_default().push(event);
        }
        true
    }

    /// Index of the next slot [`SlotWindower::take_next`] will emit.
    pub fn next_slot(&self) -> usize {
        self.next_slot
    }

    /// The highest slot currently holding a pending event, if any.
    pub fn last_pending_slot(&self) -> Option<usize> {
        let open = (!self.open.is_empty()).then_some(self.next_slot);
        self.pending.keys().next_back().copied().or(open)
    }

    /// Number of buffered events across all pending slots.
    pub fn pending_events(&self) -> usize {
        self.open.len() + self.pending.values().map(Vec::len).sum::<usize>()
    }

    /// Returns `true` when no event is waiting for a future slot.
    pub fn is_drained(&self) -> bool {
        self.open.is_empty() && self.pending.is_empty()
    }

    /// Events dropped so far because their slot had already been emitted.
    pub fn late_events(&self) -> usize {
        self.late_events
    }

    /// Emits the next slot's batch, in push order, and advances the window.
    /// Gap slots (no event fell into them) yield an empty batch, so calling
    /// this repeatedly walks every slot up to the last pending one. The new
    /// open slot's buffer is sized to the batch just emitted.
    pub fn take_next(&mut self) -> Vec<T> {
        self.next_slot += 1;
        let open = self
            .pending
            .remove(&self.next_slot)
            .unwrap_or_else(|| Vec::with_capacity(self.open.len()));
        let batch = std::mem::replace(&mut self.open, open);
        self.open_start = self.open_end;
        self.open_end = self.end_of(self.next_slot);
        batch
    }

    /// Decomposes the windower into its raw state, for checkpointing:
    /// `(slot_length_ms, pending batches, next slot, late-event count)`,
    /// the open slot's batch keyed by `next slot` when it holds any event.
    /// [`SlotWindower::from_parts`] is the inverse.
    pub fn into_parts(mut self) -> (f64, BTreeMap<usize, Vec<T>>, usize, usize) {
        if !self.open.is_empty() {
            self.pending.insert(self.next_slot, self.open);
        }
        (
            self.slot_length_ms,
            self.pending,
            self.next_slot,
            self.late_events,
        )
    }

    /// Rebuilds a windower from [`SlotWindower::into_parts`] state. Returns
    /// `None` instead of panicking when the state is one no sequence of
    /// pushes reaches — a non-positive (or NaN) slot length, a pending batch
    /// for a slot the window already emitted, or an empty pending batch.
    pub fn from_parts(
        slot_length_ms: f64,
        pending: BTreeMap<usize, Vec<T>>,
        next_slot: usize,
        late_events: usize,
    ) -> Option<Self> {
        if slot_length_ms.is_nan() || slot_length_ms <= 0.0 {
            return None;
        }
        if pending.keys().next().is_some_and(|&slot| slot < next_slot) {
            return None;
        }
        if pending.values().any(Vec::is_empty) {
            return None;
        }
        Some(Self::open_at(
            slot_length_ms,
            pending,
            next_slot,
            late_events,
        ))
    }
}

/// The wire form is [`SlotWindower::into_parts`]'s four fields in order,
/// the pending batches as a `BTreeMap<usize, Vec<T>>`.
impl<T: Snapshot> Snapshot for SlotWindower<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.slot_length_ms.encode(out);
        let open = !self.open.is_empty();
        (self.pending.len() + usize::from(open)).encode(out);
        if open {
            self.next_slot.encode(out);
            self.open.encode(out);
        }
        for (slot, batch) in &self.pending {
            slot.encode(out);
            batch.encode(out);
        }
        self.next_slot.encode(out);
        self.late_events.encode(out);
    }
}

impl<T: Restore> Restore for SlotWindower<T> {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let slot_length_ms = f64::decode(cur)?;
        let pending = BTreeMap::<usize, Vec<T>>::decode(cur)?;
        let next_slot = usize::decode(cur)?;
        let late_events = usize::decode(cur)?;
        Self::from_parts(slot_length_ms, pending, next_slot, late_events).ok_or(
            SnapshotError::Malformed {
                context: "slot windower state is inconsistent",
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn boundary_events_open_the_later_slot() {
        let mut windower = SlotWindower::new(1_000.0);
        windower.push(0.0, 0u32); // boundary of slot 0
        windower.push(999.999, 1);
        windower.push(1_000.0, 2); // boundary: slot 1, deterministically
        windower.push(2_000.0, 3);
        assert_eq!(windower.take_next(), vec![0, 1]);
        assert_eq!(windower.take_next(), vec![2]);
        assert_eq!(windower.take_next(), vec![3]);
    }

    #[test]
    fn out_of_order_within_a_slot_is_tolerated_in_push_order() {
        let mut windower = SlotWindower::new(100.0);
        windower.push(90.0, "c");
        windower.push(10.0, "a");
        windower.push(50.0, "b");
        assert_eq!(windower.take_next(), vec!["c", "a", "b"]);
        assert_eq!(windower.late_events(), 0);
    }

    #[test]
    fn gaps_emit_empty_slots_and_drain_reports_pending() {
        let mut windower = SlotWindower::new(100.0);
        windower.push(10.0, 1u8);
        windower.push(410.0, 2);
        assert_eq!(windower.last_pending_slot(), Some(4));
        assert_eq!(windower.pending_events(), 2);
        assert_eq!(windower.take_next(), vec![1]);
        for gap in 1..4 {
            assert_eq!(windower.take_next(), Vec::<u8>::new(), "slot {gap}");
            assert_eq!(windower.next_slot(), gap + 1);
        }
        assert!(!windower.is_drained());
        assert_eq!(windower.take_next(), vec![2]);
        assert!(windower.is_drained());
    }

    #[test]
    fn late_events_are_dropped_and_counted() {
        let mut windower = SlotWindower::new(100.0);
        windower.push(10.0, 1u8);
        assert_eq!(windower.take_next(), vec![1]);
        assert!(!windower.push(50.0, 2), "slot 0 already emitted");
        assert!(windower.push(150.0, 3), "slot 1 still open");
        assert_eq!(windower.late_events(), 1);
        assert_eq!(windower.take_next(), vec![3]);
    }

    #[test]
    fn negative_timestamps_clamp_to_slot_zero() {
        let mut windower = SlotWindower::new(100.0);
        windower.push(-50.0, 1u8);
        windower.push(20.0, 2);
        assert_eq!(windower.take_next(), vec![1, 2]);
    }

    #[test]
    fn from_parts_refuses_state_no_push_reaches() {
        let batch = |slot: usize, events: Vec<u8>| BTreeMap::from([(slot, events)]);
        assert!(SlotWindower::from_parts(10.0, batch(3, vec![1]), 3, 0).is_some());
        assert!(SlotWindower::from_parts(10.0, batch(2, vec![1]), 3, 0).is_none());
        assert!(SlotWindower::from_parts(10.0, batch(3, vec![]), 3, 0).is_none());
        assert!(SlotWindower::from_parts(10.0, batch(5, vec![]), 3, 0).is_none());
        assert!(SlotWindower::<u8>::from_parts(f64::NAN, BTreeMap::new(), 0, 0).is_none());
        assert!(SlotWindower::<u8>::from_parts(-1.0, BTreeMap::new(), 0, 0).is_none());
    }

    /// The windower as it was before the open slot: every event divides,
    /// and every slot lives in the map.
    #[derive(Debug)]
    struct Reference {
        slot_length_ms: f64,
        pending: BTreeMap<usize, Vec<u32>>,
        next_slot: usize,
        late_events: usize,
    }

    impl Reference {
        fn slot_of(&self, time_ms: f64) -> usize {
            (time_ms / self.slot_length_ms).floor().max(0.0) as usize
        }

        fn push(&mut self, time_ms: f64, event: u32) -> bool {
            let slot = self.slot_of(time_ms);
            if slot < self.next_slot {
                self.late_events += 1;
                return false;
            }
            self.pending.entry(slot).or_default().push(event);
            true
        }

        fn take_next(&mut self) -> Vec<u32> {
            let batch = self.pending.remove(&self.next_slot).unwrap_or_default();
            self.next_slot += 1;
            batch
        }
    }

    /// A timestamp near slot `slot`'s boundaries, or one of the values a
    /// division treats specially.
    fn timestamp(rng: &mut StdRng, slot_length_ms: f64, slot: usize) -> f64 {
        const SPECIAL: [f64; 12] = [
            0.0,
            -0.0,
            -1.0,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -5e-324,
            1.1e-308,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        if rng.gen_bool(0.15) {
            return SPECIAL[rng.gen_range(0..SPECIAL.len())];
        }
        let target = slot.saturating_add(rng.gen_range(0..4)).saturating_sub(1);
        let edge = target as f64 * slot_length_ms;
        let mut time_ms = if rng.gen_bool(0.2) {
            edge + slot_length_ms * rng.gen_range(0.0..1.0)
        } else {
            edge
        };
        // up to three ulps either way
        for _ in 0..rng.gen_range(0..4) {
            time_ms = if rng.gen_bool(0.5) {
                time_ms.next_up()
            } else {
                time_ms.next_down()
            };
        }
        time_ms
    }

    #[test]
    fn the_open_slot_agrees_with_the_division_on_random_operations() {
        const LENGTHS: [f64; 6] = [0.1, 1.0 / 3.0, 3.6e6, 1e-300, 1e300, 5e-324];
        const STARTS: [usize; 7] = [
            0,
            1,
            977,
            (1 << 53) - 2,
            (1 << 53) + 1,
            usize::MAX - 2,
            usize::MAX,
        ];
        let mut rng = StdRng::seed_from_u64(0x5107_3ad0);
        let mut pushes = 0usize;
        for slot_length_ms in LENGTHS {
            for start in STARTS {
                let mut windower =
                    SlotWindower::from_parts(slot_length_ms, BTreeMap::new(), start, 0).unwrap();
                let mut reference = Reference {
                    slot_length_ms,
                    pending: BTreeMap::new(),
                    next_slot: start,
                    late_events: 0,
                };
                for step in 0..3_000 {
                    let context =
                        || format!("length {slot_length_ms:e}, start {start}, step {step}");
                    match rng.gen_range(0..100) {
                        0..=79 => {
                            let time_ms = timestamp(&mut rng, slot_length_ms, reference.next_slot);
                            let event = step as u32;
                            assert_eq!(
                                windower.push(time_ms, event),
                                reference.push(time_ms, event),
                                "{} at {time_ms:e}",
                                context()
                            );
                            pushes += 1;
                        }
                        // taking past the last index overflows either way
                        80..=94 if reference.next_slot < usize::MAX => {
                            assert_eq!(
                                windower.take_next(),
                                reference.take_next(),
                                "{}",
                                context()
                            );
                        }
                        80..=94 => {}
                        95..=97 => {
                            let (length, pending, next_slot, late) = windower.into_parts();
                            assert_eq!(length.to_bits(), slot_length_ms.to_bits());
                            assert_eq!(pending, reference.pending, "{}", context());
                            windower = SlotWindower::from_parts(length, pending, next_slot, late)
                                .expect("a windower's own state restores");
                        }
                        _ => {
                            let mut bytes = Vec::new();
                            windower.encode(&mut bytes);
                            windower = SlotWindower::decode(&mut Cursor::new(&bytes))
                                .expect("a windower's own bytes restore");
                        }
                    }
                    assert_eq!(windower.next_slot(), reference.next_slot, "{}", context());
                    assert_eq!(windower.late_events(), reference.late_events);
                    assert_eq!(windower.is_drained(), reference.pending.is_empty());
                    assert_eq!(
                        windower.last_pending_slot(),
                        reference.pending.keys().next_back().copied()
                    );
                    assert_eq!(
                        windower.pending_events(),
                        reference.pending.values().map(Vec::len).sum::<usize>()
                    );
                }
            }
        }
        assert!(pushes > 90_000);
    }

    #[test]
    #[should_panic(expected = "slot length must be positive")]
    fn zero_slot_length_panics() {
        let _ = SlotWindower::<u8>::new(0.0);
    }
}
