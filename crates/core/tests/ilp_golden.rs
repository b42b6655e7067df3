//! Golden pin of the §IV-C ILP's arithmetic. The end-to-end benchmark folds
//! the solver's node, pivot and phase-1-skip counters into its expected
//! digests, so a reordered sum, a skipped refactorization or a changed
//! tie-break inside `mca-lp` is an output-check failure there — after a 15 s
//! run. This suite pins the same figures, plus every allocation's counts and
//! cost bits, over two forecast sweeps that solve in milliseconds. The
//! constants were captured from the solver as it stood before its inner
//! loops were rebuilt; they change only with a deliberate change of the
//! arithmetic.

use mca_cloudsim::InstanceType;
use mca_core::{AccelerationGroups, Allocation, ResourceAllocator, SystemConfig, WorkloadForecast};
use mca_offload::AccelerationGroupId;

/// What a sweep of solves adds up to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    nodes: usize,
    pivots: usize,
    phase1_skips: usize,
    infeasible: usize,
    /// FNV-1a over every allocation's `counts` and `hourly_cost.to_bits()`.
    digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Folded in place of an allocation the account cap made infeasible.
const INFEASIBLE_MARK: u64 = u64::MAX;

fn fnv1a(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(FNV_PRIME);
    }
}

fn fold(golden: &mut Golden, solved: Result<Allocation, mca_core::CoreError>) {
    match solved {
        Ok(allocation) => {
            golden.nodes += allocation.stats.nodes;
            golden.pivots += allocation.stats.pivots;
            golden.phase1_skips += allocation.stats.phase1_skips;
            fnv1a(&mut golden.digest, allocation.counts.len() as u64);
            for &(ty, n) in &allocation.counts {
                fnv1a(&mut golden.digest, ty as u64);
                fnv1a(&mut golden.digest, n as u64);
            }
            fnv1a(&mut golden.digest, allocation.hourly_cost.to_bits());
        }
        Err(_) => {
            golden.infeasible += 1;
            fnv1a(&mut golden.digest, INFEASIBLE_MARK);
        }
    }
}

fn sweep(
    allocator: &ResourceAllocator,
    forecasts: impl Iterator<Item = WorkloadForecast>,
) -> Golden {
    let mut golden = Golden {
        nodes: 0,
        pivots: 0,
        phase1_skips: 0,
        infeasible: 0,
        digest: FNV_OFFSET,
    };
    for forecast in forecasts {
        fold(&mut golden, allocator.allocate(&forecast));
    }
    golden
}

/// `users` spread over `groups` as the end-to-end benchmark's diurnal
/// tenants spread them: user `u` of `users` has rank `u * weights / users`
/// and group `g` of `n` owns `n - g` consecutive ranks (4:3:2:1 for four).
fn diurnal_split(users: usize, groups: &[AccelerationGroupId]) -> WorkloadForecast {
    let n = groups.len();
    let weights = n * (n + 1) / 2;
    let mut loads = vec![0usize; n];
    for u in 0..users {
        let mut rank = u * weights / users;
        let mut group = 0;
        while rank >= n - group {
            rank -= n - group;
            group += 1;
        }
        loads[group] += 1;
    }
    WorkloadForecast {
        per_group: groups.iter().copied().zip(loads).collect(),
        matched_slot: None,
    }
}

/// `users` split evenly, the remainder going to the first groups.
fn even_split(users: usize, groups: &[AccelerationGroupId]) -> WorkloadForecast {
    let n = groups.len();
    WorkloadForecast {
        per_group: groups
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, users / n + usize::from(i < users % n)))
            .collect(),
        matched_slot: None,
    }
}

/// The `fleet_solver` catalogue: four groups that each offer six instance
/// types of pairwise distinct price structure, 24 decision variables.
fn wide_catalogue() -> SystemConfig {
    let types = vec![
        InstanceType::T2Nano,
        InstanceType::T2Small,
        InstanceType::T2Large,
        InstanceType::M4_4XLarge,
        InstanceType::M4_10XLarge,
        InstanceType::C4_8XLarge,
    ];
    let assignments: Vec<(AccelerationGroupId, Vec<InstanceType>)> = (1..=4)
        .map(|g| (AccelerationGroupId(g), types.clone()))
        .collect();
    let mut config = SystemConfig::paper_three_groups();
    config.groups = AccelerationGroups::from_assignments(&assignments, 500.0, 65.0);
    config.account_cap = 2_000;
    config
}

#[test]
fn wide_catalogue_sweep_repeats_to_the_bit() {
    let config = wide_catalogue();
    let groups = config.groups.ids();
    let allocator = config.build_allocator();
    let golden = sweep(
        &allocator,
        (250..=825).map(|users| diurnal_split(users, &groups)),
    );
    assert_eq!(
        golden,
        Golden {
            nodes: 17_602,
            pivots: 33_680,
            phase1_skips: 16_581,
            infeasible: 0,
            digest: 5_659_784_360_438_227_521,
        }
    );
}

#[test]
fn paper_three_groups_sweep_repeats_to_the_bit() {
    let config = SystemConfig::paper_three_groups();
    let groups = config.groups.ids();
    let allocator = config.build_allocator();
    let golden = sweep(
        &allocator,
        // the 20-instance account stops covering an even split at 3,739
        // users: the tail pins the infeasible classification too
        (1..=600)
            .chain(3_700..=3_780)
            .map(|users| even_split(users, &groups)),
    );
    assert_eq!(
        golden,
        Golden {
            nodes: 1_449,
            pivots: 4_236,
            phase1_skips: 405,
            infeasible: 42,
            digest: 17_137_548_549_190_693_141,
        }
    );
}
