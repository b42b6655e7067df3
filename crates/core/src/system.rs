//! The closed-loop system of Fig. 2: workload → SDN-accelerator → back-end
//! pool, with client-side promotion. The per-interval score → learn →
//! predict → allocate → bill cycle is [`crate::control::ControlLoop`]'s —
//! the same loop a fleet runs per tenant, so the system is a one-tenant
//! fleet behind an SDN front-end (`tests/integration_system.rs` replays one
//! through the other).

use crate::billing::DatacenterUsage;
use crate::config::SystemConfig;
use crate::control::{ControlLoop, Provisioned};
use crate::predictor::WorkloadForecast;
use crate::sdn::SdnAccelerator;
use crate::timeslot::TimeSlot;
use mca_mobile::{Battery, DeviceProfile, Moderator};
use mca_offload::{AccelerationGroupId, OffloadRequest, RequestId, TraceRecord, UserId};
use mca_workload::ArrivalTrace;
use rand::Rng;
use std::collections::HashMap;

/// One promotion performed by a device's moderator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PromotionEvent {
    /// The promoted user.
    pub user: UserId,
    /// Simulation time of the promotion, ms.
    pub time_ms: f64,
    /// The group the user moved to.
    pub to_group: AccelerationGroupId,
}

/// What one provisioning slot looked like: the observed workload, the
/// forecast made for the *next* slot, and the allocation applied.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotObservation {
    /// Slot index.
    pub index: usize,
    /// Observed number of users per group during the slot.
    pub actual: Vec<(AccelerationGroupId, usize)>,
    /// Forecast produced at the end of the slot for the next slot.
    pub forecast: Option<WorkloadForecast>,
    /// Accuracy of the forecast made at the end of the *previous* slot,
    /// evaluated against this slot's actual workload.
    pub previous_forecast_accuracy: Option<f64>,
    /// Hourly cost of the allocation applied for the next slot, USD.
    pub allocation_cost: f64,
    /// Total instances allocated for the next slot.
    pub allocated_instances: usize,
}

/// Per-user view of the experiment: every response the user perceived, in
/// order, with the serving acceleration group (the data behind Fig. 9b/9c and
/// Fig. 10b/10c).
#[derive(Debug, Clone, PartialEq)]
pub struct UserPerception {
    /// The user.
    pub user: UserId,
    /// `(response time ms, serving group)` per request, in request order.
    pub responses: Vec<(f64, AccelerationGroupId)>,
    /// Number of promotions the user went through.
    pub promotions: u32,
}

impl UserPerception {
    /// Mean perceived response time, ms.
    pub fn mean_response_ms(&self) -> f64 {
        if self.responses.is_empty() {
            return 0.0;
        }
        self.responses.iter().map(|(r, _)| r).sum::<f64>() / self.responses.len() as f64
    }

    /// The highest group the user reached.
    pub fn final_group(&self) -> Option<AccelerationGroupId> {
        self.responses.last().map(|(_, g)| *g)
    }
}

/// The report produced by a system run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Every processed request, in completion order.
    pub records: Vec<TraceRecord>,
    /// Every promotion, in time order.
    pub promotions: Vec<PromotionEvent>,
    /// Per-slot observations (actual vs forecast, allocation).
    pub slots: Vec<SlotObservation>,
    /// Per-user perception traces.
    pub perceptions: Vec<UserPerception>,
    /// Total cloud bill of the run, USD.
    pub total_cost: f64,
    /// Mean end-to-end response time over all requests, ms.
    pub mean_response_ms: f64,
    /// Datacenter accounting rollup — all zeros unless the configuration
    /// enabled [`SystemConfig::with_datacenter`].
    pub datacenter: DatacenterUsage,
}

impl SystemReport {
    /// The perception trace of one user, if it issued any request.
    pub fn perception_of(&self, user: UserId) -> Option<&UserPerception> {
        self.perceptions.iter().find(|p| p.user == user)
    }

    /// Mean accuracy of the workload forecasts over the run (ignoring slots
    /// without a prior forecast).
    pub fn mean_prediction_accuracy(&self) -> Option<f64> {
        let scores: Vec<f64> = self
            .slots
            .iter()
            .filter_map(|s| s.previous_forecast_accuracy)
            .collect();
        if scores.is_empty() {
            None
        } else {
            Some(scores.iter().sum::<f64>() / scores.len() as f64)
        }
    }

    /// Fraction of users that ended the run in a higher group than the entry
    /// group (the promotion rate of Fig. 10c).
    pub fn promoted_user_fraction(&self, entry_group: AccelerationGroupId) -> f64 {
        if self.perceptions.is_empty() {
            return 0.0;
        }
        let promoted = self
            .perceptions
            .iter()
            .filter(|p| p.final_group().map(|g| g > entry_group).unwrap_or(false))
            .count();
        promoted as f64 / self.perceptions.len() as f64
    }
}

struct DeviceState {
    moderator: Moderator,
    battery: Battery,
    requests_issued: u64,
}

/// The closed-loop SDN code-acceleration system.
pub struct System {
    config: SystemConfig,
    sdn: SdnAccelerator,
    control: ControlLoop,
    usage: DatacenterUsage,
    devices: HashMap<UserId, DeviceState>,
    next_request_id: u64,
}

impl System {
    /// Builds a system from a configuration.
    pub fn new(config: SystemConfig) -> Self {
        let control = ControlLoop::new(&config);
        let sdn = SdnAccelerator::new(config.clone());
        Self {
            config,
            sdn,
            control,
            usage: DatacenterUsage::default(),
            devices: HashMap::new(),
            next_request_id: 1,
        }
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs the system over an arrival trace and returns the full report.
    ///
    /// Every arrival is routed through the SDN-accelerator, each device's
    /// moderator observes the response and may request a promotion, and at
    /// every slot boundary the predictor forecasts the next slot's workload
    /// and the allocator re-provisions the back-end.
    pub fn run<R: Rng + ?Sized>(&mut self, workload: &ArrivalTrace, rng: &mut R) -> SystemReport {
        let slot_len = self.config.slot_length_ms;
        let mut current_slot = TimeSlot::new(0);
        let mut slot_start = 0.0f64;
        let mut slot_index = 0usize;
        let mut slots: Vec<SlotObservation> = Vec::new();
        let mut promotions = Vec::new();

        // Initial minimum fleet. One that does not fit the account cap is
        // skipped like any later infeasible allocation: requests still
        // route, against no instances.
        let minimum = WorkloadForecast {
            per_group: self.config.groups.ids().iter().map(|g| (*g, 0)).collect(),
            matched_slot: None,
        };
        if let Ok(provisioned) = self.control.provision(&minimum, &[], 0.0, &mut ()) {
            self.apply(&provisioned);
        }

        for arrival in workload.iter() {
            // Close every slot boundary we have passed.
            while arrival.time_ms >= slot_start + slot_len {
                let closed = std::mem::replace(&mut current_slot, TimeSlot::new(slot_index + 1));
                slots.push(self.close_slot(slot_index, closed, slot_start + slot_len));
                slot_index += 1;
                slot_start += slot_len;
            }

            let user = arrival.user;
            let groups = &self.config.groups;
            let entry_group = groups.lowest().id;
            let highest = groups.highest().id;
            let device_class = self.config.device_class;
            let policy = self.config.promotion_policy;
            let state = self.devices.entry(user).or_insert_with(|| {
                let profile = DeviceProfile::for_class(device_class);
                DeviceState {
                    moderator: Moderator::new(profile, policy, entry_group, highest),
                    battery: Battery::new(profile.battery_capacity_mwh),
                    requests_issued: 0,
                }
            });

            let request = OffloadRequest::new(
                RequestId(self.next_request_id),
                user,
                state.moderator.current_group(),
                arrival.task,
                state.battery.level_percent(),
                arrival.time_ms,
            );
            self.next_request_id += 1;
            state.requests_issued += 1;

            let routed = self
                .sdn
                .handle(&request, arrival.time_ms, rng)
                .expect("validated configurations always route");
            current_slot.assign(routed.group, user);

            // Device-side bookkeeping: battery drain while the radio waits for
            // the result, then the moderator's promotion decision.
            let radio_power = state.moderator.device().radio_power_mw;
            state
                .battery
                .drain(radio_power, routed.record.round_trip_ms);
            let event = state.moderator.observe(
                routed.record.round_trip_ms,
                state.battery.level_percent(),
                rng,
            );
            if let mca_mobile::ModeratorEvent::Promote(to_group) = event {
                promotions.push(PromotionEvent {
                    user,
                    time_ms: arrival.time_ms,
                    to_group,
                });
            }
        }

        // Close the final (partial) slot.
        let final_time = slot_start + slot_len;
        slots.push(self.close_slot(slot_index, current_slot, final_time));
        self.control.stand_down(final_time);

        let records: Vec<TraceRecord> = self.sdn.log().records().to_vec();
        let mean_response_ms = self.sdn.log().mean_response_ms();
        let perceptions = self.build_perceptions(&records);
        SystemReport {
            records,
            promotions,
            slots,
            perceptions,
            total_cost: self.control.pool().billing().total_cost(),
            mean_response_ms,
            datacenter: std::mem::take(&mut self.usage),
        }
    }

    /// Closes `slot` through the control loop and records what it saw.
    fn close_slot(&mut self, index: usize, slot: TimeSlot, now_ms: f64) -> SlotObservation {
        let actual: Vec<(AccelerationGroupId, usize)> = self
            .config
            .groups
            .ids()
            .iter()
            .map(|g| (*g, slot.load_of(*g)))
            .collect();
        let outcome = self.control.close_slot(slot, now_ms, &mut ());
        let (allocation_cost, allocated_instances) = match &outcome.provision {
            Some(Ok(provisioned)) => {
                self.apply(provisioned);
                (
                    provisioned.allocation.hourly_cost,
                    provisioned.allocation.total_instances(),
                )
            }
            _ => (0.0, 0),
        };
        SlotObservation {
            index,
            actual,
            forecast: self.control.forecast().cloned(),
            previous_forecast_accuracy: outcome.forecast_accuracy,
            allocation_cost,
            allocated_instances,
        }
    }

    /// Folds a settled allocation into the run: the datacenter rollup, and
    /// the SDN capacity update when the pool accepted it.
    fn apply(&mut self, provisioned: &Provisioned) {
        self.usage.absorb(&provisioned.settlement);
        if provisioned.settlement.pool_applied {
            let per_group: Vec<(AccelerationGroupId, usize)> = provisioned
                .allocation
                .per_group
                .iter()
                .map(|(g, counts)| (*g, counts.iter().map(|(_, n)| n).sum()))
                .collect();
            self.sdn.apply_allocation(&per_group);
        }
    }

    fn build_perceptions(&self, records: &[TraceRecord]) -> Vec<UserPerception> {
        let mut map: HashMap<UserId, UserPerception> = HashMap::new();
        for r in records {
            let entry = map.entry(r.user).or_insert_with(|| UserPerception {
                user: r.user,
                responses: Vec::new(),
                promotions: 0,
            });
            entry.responses.push((r.round_trip_ms, r.group));
        }
        for (user, perception) in &mut map {
            if let Some(state) = self.devices.get(user) {
                perception.promotions = state.moderator.promotions();
            }
        }
        let mut perceptions: Vec<UserPerception> = map.into_values().collect();
        perceptions.sort_by_key(|p| p.user);
        perceptions
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("groups", &self.config.groups.len())
            .field("devices", &self.devices.len())
            .field("requests", &self.sdn.requests_handled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_mobile::PromotionPolicy;
    use mca_offload::{TaskPool, TaskSpec};
    use mca_workload::WorkloadGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn minimax_workload(users: usize, duration_ms: f64, seed: u64) -> ArrivalTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        WorkloadGenerator::inter_arrival(
            users,
            TaskPool::static_load(TaskSpec::paper_static_minimax()),
        )
        .generate(duration_ms, &mut rng)
    }

    #[test]
    fn run_processes_every_arrival_and_logs_consistently() {
        let mut rng = StdRng::seed_from_u64(1);
        let workload = minimax_workload(10, 5.0 * 60_000.0, 11);
        let mut system = System::new(
            SystemConfig::paper_three_groups()
                .with_slot_length_ms(60_000.0)
                .with_background_load(10),
        );
        let report = system.run(&workload, &mut rng);
        assert_eq!(report.records.len(), workload.len());
        assert!(report.records.iter().all(|r| r.is_consistent(1e-6)));
        assert!(report.mean_response_ms > 0.0);
        assert_eq!(report.perceptions.len(), 10);
        assert!(report.total_cost > 0.0);
    }

    #[test]
    fn never_promoting_keeps_every_user_in_the_entry_group() {
        let mut rng = StdRng::seed_from_u64(2);
        let workload = minimax_workload(8, 4.0 * 60_000.0, 12);
        let mut system = System::new(
            SystemConfig::paper_three_groups()
                .with_promotion_policy(PromotionPolicy::Never)
                .with_slot_length_ms(60_000.0),
        );
        let report = system.run(&workload, &mut rng);
        assert!(report.promotions.is_empty());
        assert!(report
            .records
            .iter()
            .all(|r| r.group == AccelerationGroupId(1)));
        assert_eq!(report.promoted_user_fraction(AccelerationGroupId(1)), 0.0);
    }

    #[test]
    fn aggressive_promotion_moves_users_to_the_top_group_and_speeds_them_up() {
        let mut rng = StdRng::seed_from_u64(3);
        let workload = minimax_workload(6, 8.0 * 60_000.0, 13);
        let mut system = System::new(
            SystemConfig::paper_three_groups()
                .with_promotion_policy(PromotionPolicy::ResponseTimeThreshold {
                    threshold_ms: 100.0,
                })
                .with_slot_length_ms(2.0 * 60_000.0),
        );
        let report = system.run(&workload, &mut rng);
        assert!(!report.promotions.is_empty());
        assert_eq!(report.promoted_user_fraction(AccelerationGroupId(1)), 1.0);
        // Fig. 9c behaviour: the response time after reaching group 3 is lower
        // than while in group 1.
        for p in &report.perceptions {
            let g1: Vec<f64> = p
                .responses
                .iter()
                .filter(|(_, g)| *g == AccelerationGroupId(1))
                .map(|(r, _)| *r)
                .collect();
            let g3: Vec<f64> = p
                .responses
                .iter()
                .filter(|(_, g)| *g == AccelerationGroupId(3))
                .map(|(r, _)| *r)
                .collect();
            if !g1.is_empty() && !g3.is_empty() {
                let m1 = g1.iter().sum::<f64>() / g1.len() as f64;
                let m3 = g3.iter().sum::<f64>() / g3.len() as f64;
                assert!(m3 < m1, "user {} group3 {m3} >= group1 {m1}", p.user);
            }
        }
    }

    #[test]
    fn slots_record_forecasts_and_allocations() {
        let mut rng = StdRng::seed_from_u64(4);
        let workload = minimax_workload(12, 10.0 * 60_000.0, 14);
        let mut system = System::new(
            SystemConfig::paper_three_groups()
                .with_slot_length_ms(2.0 * 60_000.0)
                .with_background_load(5),
        );
        let report = system.run(&workload, &mut rng);
        assert!(report.slots.len() >= 5);
        // every closed slot carries a forecast and an applied allocation
        assert!(report.slots.iter().all(|s| s.forecast.is_some()));
        assert!(report.slots.iter().all(|s| s.allocated_instances >= 3));
        // forecasts are scored from the second slot onwards
        assert!(report
            .slots
            .iter()
            .skip(1)
            .all(|s| s.previous_forecast_accuracy.is_some()));
        let acc = report.mean_prediction_accuracy().unwrap();
        assert!(acc > 0.3 && acc <= 1.0, "accuracy {acc}");
    }

    #[test]
    fn bounded_history_window_keeps_the_system_running() {
        let mut rng = StdRng::seed_from_u64(7);
        let workload = minimax_workload(8, 10.0 * 60_000.0, 17);
        let mut system = System::new(
            SystemConfig::paper_three_groups()
                .with_slot_length_ms(60_000.0)
                .with_history_window(3),
        );
        let report = system.run(&workload, &mut rng);
        assert_eq!(report.records.len(), workload.len());
        assert!(report.slots.len() >= 9);
        // forecasts keep flowing after eviction starts, and every match
        // references a retained (global) slot index
        assert!(report.slots.iter().all(|s| s.forecast.is_some()));
        for observation in &report.slots {
            let matched = observation.forecast.as_ref().unwrap().matched_slot.unwrap();
            assert!(matched <= observation.index);
            assert!(
                matched + 3 > observation.index,
                "match fell out of the window"
            );
        }
    }

    #[test]
    fn user_perception_tracks_groups_and_promotions() {
        let mut rng = StdRng::seed_from_u64(5);
        let workload = minimax_workload(3, 6.0 * 60_000.0, 15);
        let mut system = System::new(
            SystemConfig::paper_three_groups()
                .with_promotion_policy(PromotionPolicy::ResponseTimeThreshold {
                    threshold_ms: 50.0,
                })
                .with_slot_length_ms(60_000.0),
        );
        let report = system.run(&workload, &mut rng);
        let perception = report.perception_of(UserId(0)).unwrap();
        assert!(!perception.responses.is_empty());
        assert!(perception.promotions >= 1);
        assert_eq!(perception.final_group(), Some(AccelerationGroupId(3)));
        assert!(perception.mean_response_ms() > 0.0);
        assert!(report.perception_of(UserId(999)).is_none());
    }

    #[test]
    fn datacenter_billing_changes_no_bit_of_the_run_but_adds_accounting() {
        use mca_cloudsim::DatacenterConfig;
        let workload = minimax_workload(10, 8.0 * 60_000.0, 18);
        let mut rng_a = StdRng::seed_from_u64(8);
        let mut rng_b = StdRng::seed_from_u64(8);
        let base_config = SystemConfig::paper_three_groups()
            .with_slot_length_ms(60_000.0)
            .with_background_load(5);
        let plain = System::new(base_config.clone()).run(&workload, &mut rng_a);
        let datacenter =
            System::new(base_config.with_datacenter(DatacenterConfig::paper_default()))
                .run(&workload, &mut rng_b);
        // identical records, forecasts, allocations and bill — to the bit
        assert_eq!(plain.records, datacenter.records);
        assert_eq!(plain.slots, datacenter.slots);
        assert_eq!(plain.total_cost.to_bits(), datacenter.total_cost.to_bits());
        // but only the datacenter run carries placement/energy accounting
        assert_eq!(plain.datacenter, DatacenterUsage::default());
        assert!(datacenter.datacenter.placements > 0);
        assert!(datacenter.datacenter.energy_wh > 0.0);
        assert_eq!(datacenter.datacenter.placement_failures, 0);
    }

    #[test]
    fn a_minimum_fleet_over_the_account_cap_is_skipped_not_fatal() {
        // three groups need three instances; a cap of two admits no
        // allocation at all, from the initial minimum fleet onwards
        let mut rng = StdRng::seed_from_u64(9);
        let workload = minimax_workload(6, 4.0 * 60_000.0, 19);
        let mut config = SystemConfig::paper_three_groups().with_slot_length_ms(60_000.0);
        config.account_cap = 2;
        let report = System::new(config).run(&workload, &mut rng);
        assert_eq!(report.records.len(), workload.len());
        assert!(report.slots.iter().all(|s| s.allocated_instances == 0));
        assert_eq!(report.total_cost, 0.0);
    }

    #[test]
    fn higher_background_load_increases_response_times() {
        let workload = minimax_workload(5, 4.0 * 60_000.0, 16);
        let mut rng_a = StdRng::seed_from_u64(6);
        let mut rng_b = StdRng::seed_from_u64(6);
        let light = System::new(
            SystemConfig::paper_three_groups()
                .with_background_load(0)
                .with_slot_length_ms(60_000.0),
        )
        .run(&workload, &mut rng_a);
        let heavy = System::new(
            SystemConfig::paper_three_groups()
                .with_background_load(80)
                .with_slot_length_ms(60_000.0),
        )
        .run(&workload, &mut rng_b);
        assert!(heavy.mean_response_ms > light.mean_response_ms * 1.5);
    }
}
