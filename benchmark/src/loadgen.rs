//! Load generation. Everything here runs outside the timed spans, and the
//! programs under test see only the records it produces: every draw comes
//! from streams seeded by the `--seed` argument, so one seed gives one
//! input.

use mca_core::{TimeSlot, TimeSlotBuilder};
use mca_fleet::SlotRecord;
use mca_offload::{AccelerationGroupId, TenantId, UserId};
use mca_workload::TenantMix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stride of the per-tenant user-id space (the one `TenantMix` uses).
const USER_ID_STRIDE: u32 = 1 << 20;

/// Tenants whose population follows a day/night cycle with noise on top, so
/// per-group loads rarely repeat from one slot to the next.
#[derive(Debug, Clone)]
pub struct Diurnal {
    /// Number of tenants.
    pub tenants: usize,
    /// Users of one tenant at the cycle's mean.
    pub nominal_users: usize,
    /// Groups users are spread over, in decreasing share.
    pub groups: Vec<AccelerationGroupId>,
}

impl Diurnal {
    /// Slots per cycle.
    const PERIOD: usize = 24;
    /// Swing around the mean.
    const AMPLITUDE: f64 = 0.5;
    /// Upper end of the uniform noise added on top of the cycle.
    const NOISE: f64 = 0.10;
    /// Share of a slot's users replaced by ids from outside the window.
    const CHURN: f64 = 0.02;

    fn slot_records(
        &self,
        tenant: TenantId,
        slot: usize,
        rng: &mut StdRng,
    ) -> Vec<(AccelerationGroupId, UserId)> {
        // tenants peak at different hours, as tenants in different time
        // zones do
        let hour = slot + tenant.0 as usize * Self::PERIOD / self.tenants;
        let phase = (hour % Self::PERIOD) as f64 / Self::PERIOD as f64 * std::f64::consts::TAU;
        let level = 1.0 + Self::AMPLITUDE * phase.sin();
        let noise = 1.0 + rng.gen_range(0.0..Self::NOISE);
        let users = ((self.nominal_users as f64 * level * noise).round() as usize).max(1);
        let drift = (slot * (self.nominal_users / 50).max(1)) % (USER_ID_STRIDE / 2) as usize;
        let base = tenant.0 * USER_ID_STRIDE + drift as u32;
        // group g of n takes the share (n - g) / (1 + 2 + ... + n)
        let n = self.groups.len();
        let weights = n * (n + 1) / 2;
        let mut records = Vec::with_capacity(users);
        for u in 0..users {
            let id = if rng.gen_bool(Self::CHURN) {
                base + users as u32 + rng.gen_range(1u32..50)
            } else {
                base + u as u32
            };
            let mut rank = u * weights / users;
            let mut group = 0;
            while rank >= n - group {
                rank -= n - group;
                group += 1;
            }
            records.push((self.groups[group], UserId(id)));
        }
        records
    }
}

/// Who the tenants of a fleet workload are.
#[derive(Debug, Clone)]
pub enum Population {
    /// A `mca-workload` tenant mix (steady / ramp / doubling / Zipf).
    Mix(TenantMix),
    /// Day/night tenants.
    Diurnal(Diurnal),
}

/// Generates one fleet's arrival batches slot by slot. A clone continues
/// the same stream, which is how the harness replays the tail of a
/// repetition into a restored driver.
#[derive(Debug, Clone)]
pub struct FleetGen {
    population: Population,
    /// One private stream per tenant.
    streams: Vec<StdRng>,
    /// Arrival order and timestamps.
    arrival: StdRng,
    slot: usize,
}

impl FleetGen {
    /// A generator at slot 0.
    pub fn new(population: Population, seed: u64) -> Self {
        let streams = match &population {
            Population::Mix(mix) => mix.tenant_ids().map(|t| mix.stream_for(t)).collect(),
            Population::Diurnal(diurnal) => (0..diurnal.tenants as u64)
                .map(|t| StdRng::seed_from_u64(seed ^ t.wrapping_mul(0xBF58_476D_1CE4_E5B9)))
                .collect(),
        };
        Self {
            population,
            streams,
            arrival: StdRng::seed_from_u64(seed ^ 0x5bd1_e995),
            slot: 0,
        }
    }

    /// The tenants records are generated for.
    pub fn tenant_ids(&self) -> impl Iterator<Item = TenantId> {
        (0..self.streams.len() as u32).map(TenantId)
    }

    /// The slot the next batch belongs to.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The next slot's records of every tenant, interleaved in a random
    /// arrival order: consecutive records almost never share a tenant.
    pub fn next_batch(&mut self) -> Vec<SlotRecord> {
        let slot = self.slot;
        self.slot += 1;
        let mut batch = Vec::new();
        for (t, stream) in self.streams.iter_mut().enumerate() {
            let tenant = TenantId(t as u32);
            let records = match &self.population {
                Population::Mix(mix) => mix.slot_records(tenant, slot, stream),
                Population::Diurnal(diurnal) => diurnal.slot_records(tenant, slot, stream),
            };
            batch.extend(
                records
                    .into_iter()
                    .map(|(group, user)| SlotRecord::new(tenant, group, user)),
            );
        }
        for i in (1..batch.len()).rev() {
            batch.swap(i, self.arrival.gen_range(0..i + 1));
        }
        batch
    }

    /// Arrival times for `count` records of slot `slot`, each inside the
    /// slot's interval.
    pub fn timestamps(&mut self, count: usize, slot: usize, slot_length_ms: f64) -> Vec<f64> {
        (0..count)
            .map(|_| (slot as f64 + self.arrival.gen_range(0.0..1.0)) * slot_length_ms)
            .collect()
    }
}

/// Digest of a batch, order included: the generator-determinism fingerprint.
#[cfg(test)]
pub fn batch_digest(batch: &[SlotRecord]) -> u64 {
    let mut digest = crate::stats::Digest::default();
    for record in batch {
        digest.word(u64::from(record.tenant.0));
        digest.word(u64::from(record.group.0));
        digest.word(u64::from(record.user.0));
    }
    digest.value()
}

/// Generates the slots of one drifting user population: per group a
/// contiguous id window that slides ~2 % per epoch while the load swings
/// ±25 % over a 24-slot day, with 2 % of ids churned. Consecutive epochs
/// share most users and far-apart ones share none, the regime the
/// nearest-slot search is built for.
#[derive(Debug, Clone)]
pub struct ForecastGen {
    groups: Vec<AccelerationGroupId>,
    users_per_group: usize,
    rng: StdRng,
}

impl ForecastGen {
    /// A generator over `groups` with `users_per_group` users at the mean.
    pub fn new(groups: Vec<AccelerationGroupId>, users_per_group: usize, seed: u64) -> Self {
        Self {
            groups,
            users_per_group,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A slot numbered `index` whose population is the one of `epoch`:
    /// `epoch == index` continues the history, an older epoch revisits it.
    pub fn slot(&mut self, index: usize, epoch: usize) -> TimeSlot {
        let mut builder =
            TimeSlotBuilder::with_capacity(index, self.groups.len() * self.users_per_group * 2);
        let phase = (epoch % 24) as f64 / 24.0 * std::f64::consts::TAU;
        let load =
            ((self.users_per_group as f64 * (1.0 + 0.25 * phase.sin())).round() as u32).max(1);
        let drift = epoch * (self.users_per_group / 50).max(1);
        for (g, &group) in self.groups.iter().enumerate() {
            let base = (g * 100_000_000 + drift) as u32;
            for u in 0..load {
                let id = if self.rng.gen_bool(0.02) {
                    base + u + self.rng.gen_range(1u32..50)
                } else {
                    base + u
                };
                builder.assign(group, UserId(id));
            }
        }
        builder.build()
    }

    /// Draws from the generator's stream (probe scheduling shares it, so a
    /// seed fixes the whole query sequence).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diurnal() -> Population {
        Population::Diurnal(Diurnal {
            tenants: 4,
            nominal_users: 60,
            groups: (1..=4).map(AccelerationGroupId).collect(),
        })
    }

    fn fingerprint(population: Population, seed: u64) -> Vec<u64> {
        let mut gen = FleetGen::new(population, seed);
        (0..6).map(|_| batch_digest(&gen.next_batch())).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_batches_and_another_seed_differs() {
        assert_eq!(fingerprint(diurnal(), 42), fingerprint(diurnal(), 42));
        assert_ne!(fingerprint(diurnal(), 42), fingerprint(diurnal(), 7));
        let groups: Vec<AccelerationGroupId> = (1..=3).map(AccelerationGroupId).collect();
        let mix = |seed| Population::Mix(TenantMix::heterogeneous(8, 40, groups.clone(), seed));
        assert_eq!(fingerprint(mix(42), 42), fingerprint(mix(42), 42));
        assert_ne!(fingerprint(mix(42), 42), fingerprint(mix(7), 7));
    }

    #[test]
    fn a_clone_continues_the_stream() {
        let mut gen = FleetGen::new(diurnal(), 42);
        gen.next_batch();
        let mut fork = gen.clone();
        assert_eq!(gen.slot(), 1);
        assert_eq!(
            batch_digest(&gen.next_batch()),
            batch_digest(&fork.next_batch())
        );
    }

    #[test]
    fn diurnal_tenants_use_every_group_and_stay_in_their_id_range() {
        let mut gen = FleetGen::new(diurnal(), 42);
        let batch = gen.next_batch();
        for group in 1..=4 {
            assert!(batch.iter().any(|r| r.group == AccelerationGroupId(group)));
        }
        assert!(batch
            .iter()
            .all(|r| r.user.0 / USER_ID_STRIDE == r.tenant.0));
        let times = gen.timestamps(100, 3, 1_000.0);
        assert!(times.iter().all(|&t| (3_000.0..4_000.0).contains(&t)));
    }

    #[test]
    fn forecast_slots_repeat_per_seed_and_neighbours_overlap() {
        let groups: Vec<AccelerationGroupId> = (1..=3).map(AccelerationGroupId).collect();
        let mut a = ForecastGen::new(groups.clone(), 100, 42);
        let mut b = ForecastGen::new(groups.clone(), 100, 42);
        let (first, second) = (a.slot(0, 0), a.slot(1, 1));
        assert_eq!(first, b.slot(0, 0));
        let shared = first
            .users_in(groups[0])
            .iter()
            .filter(|u| second.users_in(groups[0]).contains(u))
            .count();
        assert!(
            shared > 80,
            "consecutive epochs share most users, got {shared}"
        );
        let far = a.slot(2, 5_000);
        assert!(!far
            .users_in(groups[0])
            .iter()
            .any(|u| first.users_in(groups[0]).contains(u)));
    }
}
