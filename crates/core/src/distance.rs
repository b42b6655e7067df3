//! The distance metric of §IV-B-1.
//!
//! Given two time slots `t_x` and `t_z`, the per-group distance `δ` is zero
//! when the group has exactly the same assigned users in both slots and an
//! edit distance `D > 0` otherwise; the slot distance `Δ` is the sum of the
//! per-group distances. The paper computes `D` with the R `RecordLinkage`
//! package (Levenshtein edit distance); for sets of user ids the natural edit
//! distance is the number of insertions plus deletions that turn one user set
//! into the other, i.e. the size of the symmetric difference. Both are
//! provided, together with the Marzal–Vidal normalized edit distance used as
//! an ablation.
//!
//! # Performance
//!
//! This module sits in the hottest loop of the closed-loop system: the
//! predictor evaluates a slot distance against every historical slot, every
//! provisioning interval. [`TimeSlot::users_in`] returns a borrowed sorted
//! slice, so [`group_distance`] and [`slot_distance`] run as linear merges
//! with **zero heap allocations**. Every distance also has a `*_bounded`
//! variant that abandons the computation as soon as the accumulating
//! distance exceeds a caller-provided cap — the nearest-neighbour search
//! passes its best-so-far so hopeless candidates exit early — and a
//! `*_naive` reference that keeps the original set/full-matrix formulation
//! for property testing and benchmarking.

use crate::timeslot::TimeSlot;
use mca_offload::{AccelerationGroupId, UserId};
use std::collections::BTreeSet;

/// Edit distance between the user sets of one acceleration group in two
/// slots: the minimum number of single-user insertions and deletions that
/// turn one set into the other (`|A \ B| + |B \ A|`, the symmetric
/// difference). Returns 0 exactly when the sets are equal, matching the
/// paper's definition of `δ`.
///
/// Both inputs must be sorted and deduplicated, which
/// [`TimeSlot::users_in`] guarantees; the distance is then a single linear
/// merge with no allocation.
pub fn group_distance(a: &[UserId], b: &[UserId]) -> usize {
    let (mut i, mut j) = (0, 0);
    let mut distance = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                distance += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                distance += 1;
                j += 1;
            }
        }
    }
    distance + (a.len() - i) + (b.len() - j)
}

/// [`group_distance`] with an early exit: returns `None` as soon as the
/// distance is known to exceed `cap`.
pub fn group_distance_bounded(a: &[UserId], b: &[UserId], cap: usize) -> Option<usize> {
    // each side's surplus length is an unavoidable contribution
    if a.len().abs_diff(b.len()) > cap {
        return None;
    }
    let (mut i, mut j) = (0, 0);
    let mut distance = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                distance += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                distance += 1;
                j += 1;
            }
        }
        if distance > cap {
            return None;
        }
    }
    distance += (a.len() - i) + (b.len() - j);
    (distance <= cap).then_some(distance)
}

/// Reference implementation of [`group_distance`] through
/// `BTreeSet::symmetric_difference`, as the seed implementation computed it
/// (including its per-call set construction). Kept for property tests and
/// as the benchmark baseline.
pub fn group_distance_naive(a: &[UserId], b: &[UserId]) -> usize {
    let a: BTreeSet<UserId> = a.iter().copied().collect();
    let b: BTreeSet<UserId> = b.iter().copied().collect();
    a.symmetric_difference(&b).count()
}

/// The slot distance `Δ(t_x, t_z)`: the sum of per-group distances `δ` over
/// the acceleration groups in `groups`. Allocation-free.
pub fn slot_distance(a: &TimeSlot, b: &TimeSlot, groups: &[AccelerationGroupId]) -> usize {
    groups
        .iter()
        .map(|g| group_distance(a.users_in(*g), b.users_in(*g)))
        .sum()
}

/// [`slot_distance`] with an early exit once the accumulated distance
/// exceeds `cap`.
pub fn slot_distance_bounded(
    a: &TimeSlot,
    b: &TimeSlot,
    groups: &[AccelerationGroupId],
    cap: usize,
) -> Option<usize> {
    let mut total = 0;
    for g in groups {
        total += group_distance_bounded(a.users_in(*g), b.users_in(*g), cap - total)?;
    }
    Some(total)
}

/// Reference implementation of [`slot_distance`] over [`group_distance_naive`].
pub fn slot_distance_naive(a: &TimeSlot, b: &TimeSlot, groups: &[AccelerationGroupId]) -> usize {
    groups
        .iter()
        .map(|g| group_distance_naive(a.users_in(*g), b.users_in(*g)))
        .sum()
}

/// A coarser distance that only compares per-group user *counts* (ignoring
/// identities). Used as an ablation of the distance metric.
///
/// Because every per-group edit distance — set edit or Levenshtein — is at
/// least the difference of the two user counts, this is also a lower bound
/// on [`slot_distance`] and [`slot_levenshtein_distance`]; the predictor's
/// pruned nearest-neighbour search exploits exactly that.
pub fn count_distance(a: &TimeSlot, b: &TimeSlot, groups: &[AccelerationGroupId]) -> usize {
    groups
        .iter()
        .map(|g| a.load_of(*g).abs_diff(b.load_of(*g)))
        .sum()
}

/// Reusable buffers for the banded and bit-parallel Levenshtein
/// computations, so the nearest-neighbour search allocates once per query
/// instead of once per candidate.
#[derive(Debug, Default, Clone)]
pub struct DistanceScratch {
    prev: Vec<usize>,
    cur: Vec<usize>,
    /// `(symbol, position)` pairs of the Myers pattern, sorted by symbol.
    peq_symbols: Vec<(u32, u32)>,
    /// Per-block equality mask of the current text symbol (Myers `Peq`).
    eq_words: Vec<u64>,
    /// Myers vertical-positive delta words, one per 64-row block.
    vp: Vec<u64>,
    /// Myers vertical-negative delta words, one per 64-row block.
    vn: Vec<u64>,
    grows: usize,
}

impl DistanceScratch {
    /// Fresh, empty buffers (they grow to the longest sequence compared).
    pub fn new() -> Self {
        Self::default()
    }

    /// How many times any buffer had to grow beyond its capacity. Once the
    /// scratch has seen the longest inputs of a scan this stays constant —
    /// the per-candidate allocation-freedom the pruned scans rely on, and
    /// what the regression tests assert.
    pub fn grows(&self) -> usize {
        self.grows
    }
}

/// Classic Levenshtein edit distance between two sequences (the paper's
/// `RecordLinkage` primitive operates on strings; user-id sequences sorted by
/// id are the equivalent here). This is the full-matrix reference; the
/// nearest-neighbour search uses [`levenshtein_bounded`] instead.
pub fn levenshtein<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, ai) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, bj) in b.iter().enumerate() {
            let cost = usize::from(ai != bj);
            current[j + 1] = (prev[j + 1] + 1).min(current[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[b.len()]
}

/// Banded Levenshtein with early exit: returns `Some(d)` when the edit
/// distance `d` is at most `cap`, `None` otherwise.
///
/// Only the diagonal band of width `2·cap + 1` is evaluated (cells outside
/// it are provably further than `cap`), and the computation abandons a
/// candidate as soon as a whole row exceeds the cap — the "best-so-far"
/// early exit of the pruned nearest-neighbour search.
pub fn levenshtein_bounded<T: PartialEq>(a: &[T], b: &[T], cap: usize) -> Option<usize> {
    levenshtein_bounded_with(a, b, cap, &mut DistanceScratch::new())
}

/// [`levenshtein_bounded`] against caller-owned scratch buffers (no
/// allocation once the scratch has grown to the sequence length).
pub fn levenshtein_bounded_with<T: PartialEq>(
    a: &[T],
    b: &[T],
    cap: usize,
    scratch: &mut DistanceScratch,
) -> Option<usize> {
    let (n, m) = (a.len(), b.len());
    if n.abs_diff(m) > cap {
        return None;
    }
    if n == 0 || m == 0 {
        // covered by the length bound above: the distance is max(n, m) <= cap
        return Some(n.max(m));
    }
    // the distance never exceeds the longer length, so a larger cap adds
    // nothing (and would overflow the band arithmetic)
    let cap = cap.min(n.max(m));
    const UNREACHED: usize = usize::MAX / 2;
    if scratch.prev.capacity() <= m || scratch.cur.capacity() <= m {
        scratch.grows += 1;
    }
    let prev = &mut scratch.prev;
    let cur = &mut scratch.cur;
    prev.clear();
    prev.resize(m + 1, UNREACHED);
    cur.clear();
    cur.resize(m + 1, UNREACHED);
    #[allow(clippy::needless_range_loop)]
    for j in 0..=m.min(cap) {
        prev[j] = j;
    }
    for i in 1..=n {
        let lo = i.saturating_sub(cap);
        let hi = (i + cap).min(m);
        let mut row_min = UNREACHED;
        for j in lo..=hi {
            let value = if j == 0 {
                i // reachable only while i <= cap, which lo == 0 implies
            } else {
                let delete = prev[j].saturating_add(1);
                let insert = if j > lo { cur[j - 1] + 1 } else { UNREACHED };
                let substitute = prev[j - 1].saturating_add(usize::from(a[i - 1] != b[j - 1]));
                delete.min(insert).min(substitute)
            };
            cur[j] = value;
            row_min = row_min.min(value);
        }
        if row_min > cap {
            return None;
        }
        // the next row's band extends one cell right; that cell still holds
        // a value from two rows ago and must read as unreached
        if hi < m {
            cur[hi + 1] = UNREACHED;
        }
        std::mem::swap(prev, cur);
    }
    let distance = prev[m];
    (distance <= cap).then_some(distance)
}

/// Myers' bit-parallel Levenshtein distance between two user-id sequences
/// (Myers 1999, in Hyyrö's blocked formulation): the pattern — the shorter
/// sequence — is packed into ⌈m/64⌉ vertical-delta words, and each text
/// symbol advances all m dynamic-programming cells of its column with a
/// handful of word operations per block, so an unpruned candidate costs
/// word-parallel rather than cell-by-cell work. Exact for any inputs,
/// including duplicate-heavy and unsorted sequences.
pub fn levenshtein_myers(a: &[UserId], b: &[UserId]) -> usize {
    levenshtein_myers_bounded(a, b, a.len().max(b.len()))
        .expect("distance never exceeds max length")
}

/// [`levenshtein_myers`] with an early exit once the distance provably
/// exceeds `cap` (allocating fresh scratch; the scans reuse one via
/// [`levenshtein_myers_bounded_with`]).
pub fn levenshtein_myers_bounded(a: &[UserId], b: &[UserId], cap: usize) -> Option<usize> {
    levenshtein_myers_bounded_with(a, b, cap, &mut DistanceScratch::new())
}

/// [`levenshtein_myers`] with a cap and caller-owned scratch: the score
/// after `j` text symbols is `D(j, m)`, and each further symbol lowers it by
/// at most one, so the candidate is abandoned as soon as
/// `score - remaining > cap`.
pub fn levenshtein_myers_bounded_with(
    a: &[UserId],
    b: &[UserId],
    cap: usize,
    scratch: &mut DistanceScratch,
) -> Option<usize> {
    if a.len().abs_diff(b.len()) > cap {
        return None;
    }
    if a.is_empty() || b.is_empty() {
        // covered by the length bound above: the distance is max(n, m) <= cap
        return Some(a.len().max(b.len()));
    }
    // the shorter sequence becomes the bit-packed pattern: fewest blocks
    let (text, pattern) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let (n, m) = (text.len(), pattern.len());
    let cap = cap.min(n); // the distance never exceeds the longer length
    let blocks = m.div_ceil(64);
    let DistanceScratch {
        peq_symbols,
        eq_words,
        vp,
        vn,
        grows,
        ..
    } = scratch;
    if peq_symbols.capacity() < m
        || eq_words.capacity() < blocks
        || vp.capacity() < blocks
        || vn.capacity() < blocks
    {
        *grows += 1;
    }
    // Peq table: every pattern symbol with its row, sorted by symbol, so one
    // binary search finds a text symbol's occurrence run. The sorted runs
    // `TimeSlot::users_in` hands out skip the sort outright.
    peq_symbols.clear();
    peq_symbols.extend(pattern.iter().enumerate().map(|(j, u)| (u.0, j as u32)));
    if !pattern.windows(2).all(|w| w[0] <= w[1]) {
        peq_symbols.sort_unstable();
    }
    eq_words.clear();
    eq_words.resize(blocks, 0);
    vp.clear();
    vp.resize(blocks, !0u64);
    vn.clear();
    vn.resize(blocks, 0);
    let last_bit = 1u64 << ((m - 1) % 64);
    let mut score = m;
    for (j, tj) in text.iter().enumerate() {
        let run_start = peq_symbols.partition_point(|&(s, _)| s < tj.0);
        for &(_, row) in peq_symbols[run_start..]
            .iter()
            .take_while(|&&(s, _)| s == tj.0)
        {
            eq_words[(row / 64) as usize] |= 1u64 << (row % 64);
        }
        // carry chain bottom-up: each block's horizontal delta out of its
        // top row feeds the next block; the boundary row D(j, 0) = j always
        // increments, so block 0 sees +1
        let mut hin: i32 = 1;
        for (k, (pv_k, mv_k)) in vp.iter_mut().zip(vn.iter_mut()).enumerate() {
            let mut eq = eq_words[k];
            let (pv, mv) = (*pv_k, *mv_k);
            let xv = eq | mv;
            if hin < 0 {
                eq |= 1;
            }
            let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
            let mut ph = mv | !(xh | pv);
            let mut mh = pv & xh;
            let top = if k + 1 == blocks {
                last_bit
            } else {
                1u64 << 63
            };
            let hout = i32::from(ph & top != 0) - i32::from(mh & top != 0);
            ph <<= 1;
            mh <<= 1;
            match hin.cmp(&0) {
                std::cmp::Ordering::Greater => ph |= 1,
                std::cmp::Ordering::Less => mh |= 1,
                std::cmp::Ordering::Equal => {}
            }
            *pv_k = mh | !(xv | ph);
            *mv_k = ph & xv;
            hin = hout;
        }
        score = score.wrapping_add_signed(hin as isize);
        for &(_, row) in peq_symbols[run_start..]
            .iter()
            .take_while(|&&(s, _)| s == tj.0)
        {
            eq_words[(row / 64) as usize] = 0;
        }
        // each remaining text symbol lowers the score by at most one
        let remaining = n - j - 1;
        if score > cap.saturating_add(remaining) {
            return None;
        }
    }
    (score <= cap).then_some(score)
}

/// Capped Levenshtein between two user-id runs, dispatching between the
/// banded scalar computation ([`levenshtein_bounded_with`]) and the Myers
/// bit-vector kernel: the band costs ~`min(2·cap+1, m)` cells per text
/// symbol, the bit-parallel kernel ~`⌈m/64⌉` words, so Myers wins exactly
/// when the cap is loose relative to the pattern's block count. Both are
/// exact, so the dispatch is invisible in the result.
pub fn id_levenshtein_bounded_with(
    a: &[UserId],
    b: &[UserId],
    cap: usize,
    scratch: &mut DistanceScratch,
) -> Option<usize> {
    let (n, m) = (a.len().max(b.len()), a.len().min(b.len()));
    let blocks = m.div_ceil(64);
    let band = (2 * cap.min(n)).saturating_add(1).min(m + 1);
    if m >= 32 && blocks * 4 < band {
        levenshtein_myers_bounded_with(a, b, cap, scratch)
    } else {
        levenshtein_bounded_with(a, b, cap, scratch)
    }
}

/// Marzal–Vidal normalized edit distance between two sequences: the edit
/// distance divided by the length of the longer sequence, in `[0, 1]`.
/// (The exact Marzal–Vidal definition normalizes over editing paths; the
/// length normalization is the standard practical approximation and
/// preserves the `[0, 1]` range and the identity-of-indiscernibles
/// property.)
pub fn normalized_levenshtein<T: PartialEq>(a: &[T], b: &[T]) -> f64 {
    let longest = a.len().max(b.len());
    if longest == 0 {
        return 0.0;
    }
    levenshtein(a, b) as f64 / longest as f64
}

/// Slot distance computed with Levenshtein over the sorted user-id sequences
/// of each group (an ablation variant closest to the paper's string-based
/// implementation).
pub fn slot_levenshtein_distance(
    a: &TimeSlot,
    b: &TimeSlot,
    groups: &[AccelerationGroupId],
) -> usize {
    groups
        .iter()
        .map(|g| levenshtein(a.users_in(*g), b.users_in(*g)))
        .sum()
}

/// [`slot_levenshtein_distance`] with early exit against a cap, taking the
/// banded-or-bit-parallel dispatch of [`id_levenshtein_bounded_with`] per
/// group.
pub fn slot_levenshtein_distance_bounded(
    a: &TimeSlot,
    b: &TimeSlot,
    groups: &[AccelerationGroupId],
    cap: usize,
    scratch: &mut DistanceScratch,
) -> Option<usize> {
    let mut total = 0;
    for g in groups {
        total += id_levenshtein_bounded_with(a.users_in(*g), b.users_in(*g), cap - total, scratch)?;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users(ids: &[u32]) -> Vec<UserId> {
        let set: BTreeSet<UserId> = ids.iter().map(|&i| UserId(i)).collect();
        set.into_iter().collect()
    }

    fn slot(index: usize, pairs: &[(u8, u32)]) -> TimeSlot {
        TimeSlot::from_assignments(
            index,
            pairs
                .iter()
                .map(|&(g, u)| (AccelerationGroupId(g), UserId(u))),
        )
    }

    const GROUPS: [AccelerationGroupId; 3] = [
        AccelerationGroupId(1),
        AccelerationGroupId(2),
        AccelerationGroupId(3),
    ];

    #[test]
    fn group_distance_is_zero_iff_equal() {
        assert_eq!(group_distance(&users(&[1, 2, 3]), &users(&[1, 2, 3])), 0);
        assert_eq!(group_distance(&users(&[]), &users(&[])), 0);
        assert!(group_distance(&users(&[1, 2]), &users(&[1, 2, 3])) > 0);
    }

    #[test]
    fn group_distance_counts_insertions_and_deletions() {
        assert_eq!(group_distance(&users(&[1, 2, 3]), &users(&[2, 3, 4])), 2);
        assert_eq!(group_distance(&users(&[1, 2]), &users(&[3, 4])), 4);
        assert_eq!(group_distance(&users(&[]), &users(&[7, 8, 9])), 3);
    }

    #[test]
    fn group_distance_is_a_metric() {
        let sets = [
            users(&[1, 2]),
            users(&[2, 3]),
            users(&[1, 2, 3, 4]),
            users(&[]),
        ];
        for a in &sets {
            assert_eq!(group_distance(a, a), 0);
            for b in &sets {
                assert_eq!(group_distance(a, b), group_distance(b, a), "symmetry");
                for c in &sets {
                    assert!(
                        group_distance(a, c) <= group_distance(a, b) + group_distance(b, c),
                        "triangle inequality"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_distance_agrees_with_naive_reference() {
        let cases = [
            (users(&[]), users(&[])),
            (users(&[1]), users(&[])),
            (users(&[1, 5, 9]), users(&[2, 5, 8])),
            (users(&[1, 2, 3, 4]), users(&[3, 4, 5, 6])),
            (users(&[10, 20, 30]), users(&[10, 20, 30])),
        ];
        for (a, b) in &cases {
            assert_eq!(group_distance(a, b), group_distance_naive(a, b));
            let d = group_distance(a, b);
            assert_eq!(group_distance_bounded(a, b, d), Some(d));
            if d > 0 {
                assert_eq!(group_distance_bounded(a, b, d - 1), None);
            }
        }
    }

    #[test]
    fn slot_distance_sums_over_groups() {
        let a = slot(0, &[(1, 1), (1, 2), (2, 5)]);
        let b = slot(1, &[(1, 1), (2, 5), (2, 6), (3, 9)]);
        // group 1: {1,2} vs {1} -> 1; group 2: {5} vs {5,6} -> 1; group 3: {} vs {9} -> 1
        assert_eq!(slot_distance(&a, &b, &GROUPS), 3);
        assert_eq!(slot_distance(&a, &a, &GROUPS), 0);
        assert_eq!(
            slot_distance(&a, &b, &GROUPS),
            slot_distance(&b, &a, &GROUPS)
        );
        assert_eq!(slot_distance_naive(&a, &b, &GROUPS), 3);
        assert_eq!(slot_distance_bounded(&a, &b, &GROUPS, 3), Some(3));
        assert_eq!(slot_distance_bounded(&a, &b, &GROUPS, 2), None);
    }

    #[test]
    fn count_distance_ignores_identities() {
        let a = slot(0, &[(1, 1), (1, 2)]);
        let b = slot(1, &[(1, 7), (1, 8)]);
        assert_eq!(count_distance(&a, &b, &GROUPS), 0);
        assert_eq!(slot_distance(&a, &b, &GROUPS), 4);
    }

    #[test]
    fn count_distance_lower_bounds_both_edit_distances() {
        let a = slot(0, &[(1, 1), (1, 2), (1, 3), (2, 9), (3, 4)]);
        let b = slot(1, &[(1, 2), (1, 7), (2, 9), (2, 10), (3, 5)]);
        let lower = count_distance(&a, &b, &GROUPS);
        assert!(lower <= slot_distance(&a, &b, &GROUPS));
        assert!(lower <= slot_levenshtein_distance(&a, &b, &GROUPS));
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
        assert_eq!(levenshtein(b"", b"abc"), 3);
        assert_eq!(levenshtein(b"abc", b""), 3);
        assert_eq!(levenshtein(b"abc", b"abc"), 0);
        assert_eq!(levenshtein(&[1, 2, 3], &[2, 3, 4]), 2);
    }

    #[test]
    fn bounded_levenshtein_agrees_within_cap_and_prunes_beyond() {
        let cases: [(&[u8], &[u8]); 6] = [
            (b"kitten", b"sitting"),
            (b"", b"abc"),
            (b"abc", b""),
            (b"abc", b"abc"),
            (b"abcdefgh", b"ABCDEFGH"),
            (b"ab", b"ba"),
        ];
        for (a, b) in cases {
            let exact = levenshtein(a, b);
            for cap in 0..=(a.len().max(b.len()) + 2) {
                let bounded = levenshtein_bounded(a, b, cap);
                if cap >= exact {
                    assert_eq!(bounded, Some(exact), "{a:?} vs {b:?} cap {cap}");
                } else {
                    assert_eq!(bounded, None, "{a:?} vs {b:?} cap {cap}");
                }
            }
        }
    }

    #[test]
    fn bounded_levenshtein_reuses_scratch() {
        let mut scratch = DistanceScratch::new();
        assert_eq!(
            levenshtein_bounded_with(b"kitten", b"sitting", 10, &mut scratch),
            Some(3)
        );
        assert_eq!(
            levenshtein_bounded_with(b"ab", b"cd", 1, &mut scratch),
            None
        );
        assert_eq!(
            levenshtein_bounded_with(b"xy", b"xy", 0, &mut scratch),
            Some(0)
        );
    }

    fn ids(raw: &[u32]) -> Vec<UserId> {
        raw.iter().map(|&i| UserId(i)).collect()
    }

    #[test]
    fn myers_agrees_with_scalar_levenshtein() {
        let cases: Vec<(Vec<UserId>, Vec<UserId>)> = vec![
            (ids(&[]), ids(&[])),
            (ids(&[1]), ids(&[])),
            (ids(&[1, 2, 3]), ids(&[2, 3, 4])),
            (ids(&[5, 5, 5, 5]), ids(&[5, 5])), // duplicates
            (ids(&[9, 1, 4, 4, 2]), ids(&[4, 9, 9, 1])), // unsorted
            (
                (0..200).map(UserId).collect(),
                (3..180).map(|i| UserId(i * 2)).collect(),
            ),
            (
                (0..70).map(UserId).collect(),
                (0..70).map(|i| UserId(i + 1)).collect(),
            ),
        ];
        for (a, b) in &cases {
            let exact = levenshtein(a, b);
            assert_eq!(levenshtein_myers(a, b), exact, "{a:?} vs {b:?}");
            for cap in [0, 1, exact.saturating_sub(1), exact, exact + 3] {
                let expect = (exact <= cap).then_some(exact);
                assert_eq!(levenshtein_myers_bounded(a, b, cap), expect, "cap {cap}");
                let mut scratch = DistanceScratch::new();
                assert_eq!(id_levenshtein_bounded_with(a, b, cap, &mut scratch), expect);
            }
        }
    }

    #[test]
    fn myers_crosses_word_boundaries_exactly() {
        // patterns of 64, 65, 128 and 129 rows exercise the inter-block
        // carry chain on both sides of every boundary
        for m in [63usize, 64, 65, 127, 128, 129, 200] {
            let a: Vec<UserId> = (0..m as u32).map(UserId).collect();
            for shift in [0u32, 1, 7, 64] {
                let b: Vec<UserId> = (0..m as u32).map(|i| UserId(i + shift)).collect();
                assert_eq!(
                    levenshtein_myers(&a, &b),
                    levenshtein(&a, &b),
                    "m={m} shift={shift}"
                );
            }
        }
    }

    #[test]
    fn scratch_growth_settles_after_the_largest_input() {
        let mut scratch = DistanceScratch::new();
        let a: Vec<UserId> = (0..150u32).map(UserId).collect();
        let b: Vec<UserId> = (0..140u32).map(|i| UserId(i + 5)).collect();
        levenshtein_bounded_with(&a, &b, 300, &mut scratch);
        levenshtein_myers_bounded_with(&a, &b, 300, &mut scratch);
        levenshtein_bounded_with(&b, &a, 300, &mut scratch);
        levenshtein_myers_bounded_with(&b, &a, 300, &mut scratch);
        let grown = scratch.grows();
        assert!(grown > 0, "first calls grow the fresh buffers");
        for _ in 0..50 {
            levenshtein_bounded_with(&a, &b, 300, &mut scratch);
            levenshtein_myers_bounded_with(&a, &b, 300, &mut scratch);
            levenshtein_bounded_with(&b, &a, 10, &mut scratch);
            levenshtein_myers_bounded_with(&b, &a, 10, &mut scratch);
        }
        assert_eq!(scratch.grows(), grown, "warm scratch never regrows");
    }

    #[test]
    fn normalized_levenshtein_range() {
        assert_eq!(normalized_levenshtein::<u8>(&[], &[]), 0.0);
        assert_eq!(normalized_levenshtein(b"abc", b"abc"), 0.0);
        assert_eq!(normalized_levenshtein(b"abc", b"xyz"), 1.0);
        let d = normalized_levenshtein(b"kitten", b"sitting");
        assert!(d > 0.0 && d < 1.0);
    }

    #[test]
    fn slot_levenshtein_close_to_set_distance_for_sorted_ids() {
        let a = slot(0, &[(1, 1), (1, 2), (1, 3)]);
        let b = slot(1, &[(1, 1), (1, 2), (1, 4)]);
        // substitute 3 -> 4
        assert_eq!(slot_levenshtein_distance(&a, &b, &GROUPS), 1);
        // the set distance counts the same change as one deletion + one insertion
        assert_eq!(slot_distance(&a, &b, &GROUPS), 2);
        let mut scratch = DistanceScratch::new();
        assert_eq!(
            slot_levenshtein_distance_bounded(&a, &b, &GROUPS, 1, &mut scratch),
            Some(1)
        );
        assert_eq!(
            slot_levenshtein_distance_bounded(&a, &b, &GROUPS, 0, &mut scratch),
            None
        );
    }
}
