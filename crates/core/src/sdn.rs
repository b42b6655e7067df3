//! The SDN-accelerator front-end (§V, Fig. 3).
//!
//! The Request Handler (RH) is the entry point for offloading requests; the
//! Code Offloader (CO) determines the acceleration level a request needs and
//! routes it to the corresponding group of instances, logging every processed
//! request. The total response time decomposes as
//! `T_response = T1 + T2 + T_cloud` (Fig. 7a) where `T1` is the mobile ↔
//! front-end communication, `T2` the front-end ↔ back-end routing (≈150 ms,
//! Fig. 8a) and `T_cloud` the execution time in the chosen instance.

use crate::accel::AccelerationGroups;
use crate::config::SystemConfig;
use crate::error::CoreError;
use crate::logs::TraceLog;
use mca_cloudsim::{InstanceType, Server};
use mca_network::TransferModel;
use mca_offload::{AccelerationGroupId, OffloadRequest, TraceRecord};
use rand::Rng;
use std::collections::HashMap;

/// Outcome of routing one request through the SDN-accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedRequest {
    /// The trace record logged for the request (timing decomposition and
    /// outcome).
    pub record: TraceRecord,
    /// The acceleration group that served the request (after clamping).
    pub group: AccelerationGroupId,
    /// The instance type the request was executed on.
    pub instance_type: InstanceType,
    /// Number of requests concurrently in service on the chosen group's
    /// servers when this one was admitted (including the background load).
    pub concurrency: usize,
}

/// The SDN-accelerator: request handler, code offloader/router and log.
#[derive(Debug, Clone, PartialEq)]
pub struct SdnAccelerator {
    groups: AccelerationGroups,
    config: SystemConfig,
    transfer: TransferModel,
    log: TraceLog,
    /// Representative server per group (used for the execution-time model;
    /// keeps CPU-credit state across requests).
    servers: HashMap<u8, Server>,
    /// Number of instances currently allocated per group.
    instances: HashMap<u8, usize>,
    /// Completion times of outstanding requests per group.
    outstanding: HashMap<u8, Vec<f64>>,
    requests_handled: u64,
    requests_dropped: u64,
}

impl SdnAccelerator {
    /// Creates an accelerator for the given system configuration, with one
    /// instance initially allocated per group.
    pub fn new(config: SystemConfig) -> Self {
        let groups = config.groups.clone();
        let mut servers = HashMap::new();
        let mut instances = HashMap::new();
        let mut outstanding = HashMap::new();
        for g in groups.groups() {
            let ty = g
                .cheapest_instance()
                .expect("validated groups have instance types");
            servers.insert(g.id.0, Server::new(ty));
            instances.insert(g.id.0, 1);
            outstanding.insert(g.id.0, Vec::new());
        }
        Self {
            groups,
            transfer: TransferModel::for_technology(config.network.profile().technology),
            config,
            log: TraceLog::new(),
            servers,
            instances,
            outstanding,
            requests_handled: 0,
            requests_dropped: 0,
        }
    }

    /// The acceleration groups the accelerator routes to.
    pub fn groups(&self) -> &AccelerationGroups {
        &self.groups
    }

    /// The request log accumulated so far.
    pub fn log(&self) -> &TraceLog {
        &self.log
    }

    /// Total number of requests handled.
    pub fn requests_handled(&self) -> u64 {
        self.requests_handled
    }

    /// Total number of requests dropped (no capacity in the target group).
    pub fn requests_dropped(&self) -> u64 {
        self.requests_dropped
    }

    /// Applies a new allocation: updates the instance count of every group
    /// (groups absent from the allocation keep at least one instance so that
    /// routing stays possible).
    pub fn apply_allocation(&mut self, per_group: &[(AccelerationGroupId, usize)]) {
        for (group, count) in per_group {
            self.instances.insert(group.0, (*count).max(1));
        }
    }

    /// Number of instances currently serving `group`.
    pub fn instances_of(&self, group: AccelerationGroupId) -> usize {
        self.instances.get(&group.0).copied().unwrap_or(0)
    }

    /// Number of requests currently in service in `group` at time `now_ms`.
    pub fn outstanding_in(&mut self, group: AccelerationGroupId, now_ms: f64) -> usize {
        let entry = self.outstanding.entry(group.0).or_default();
        entry.retain(|&finish| finish > now_ms);
        entry.len()
    }

    /// Handles one offloading request at simulation time `now_ms`: clamps the
    /// requested group, samples the communication time `T1`, the routing time
    /// `T2` and the cloud execution time `T_cloud`, logs the trace record and
    /// returns the routed result.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownGroup`] only if the system has no groups at
    /// all (never for a validated configuration).
    pub fn handle<R: Rng + ?Sized>(
        &mut self,
        request: &OffloadRequest,
        now_ms: f64,
        rng: &mut R,
    ) -> Result<RoutedRequest, CoreError> {
        let group_id = self.groups.clamp(request.group);
        let group = self
            .groups
            .get(group_id)
            .ok_or(CoreError::UnknownGroup {
                group: request.group,
            })?
            .clone();
        let instance_type = group
            .cheapest_instance()
            .ok_or(CoreError::NoInstanceAvailable { group: group_id })?;

        // T1: cellular RTT plus payload transfer both ways.
        let hour = self.config.start_hour_of_day + now_ms / 3_600_000.0;
        let rtt = self.config.network.sample_rtt_ms(hour, rng);
        let t1 = rtt
            + self.transfer.uplink_time_ms(request.payload_bytes)
            + self.transfer.downlink_time_ms(self.config.result_bytes);

        // T2: SDN routing overhead (≈150 ms, Fig. 8a), mildly noisy.
        let t2 = (self.config.routing_overhead_ms * rng.gen_range(0.85..1.15)).max(1.0);

        // T_cloud: execution on the group's servers, with the concurrency
        // spread across the allocated instances plus the background load.
        let instances = self.instances_of(group_id).max(1);
        let queued = self.outstanding_in(group_id, now_ms);
        let concurrency = queued / instances + self.config.background_load + 1;
        let work = request.task.work_units();
        let server = self
            .servers
            .get_mut(&group_id.0)
            .expect("every group has a representative server");
        let t_cloud = server.sample_execution_ms(work, concurrency, rng);

        let response = t1 + t2 + t_cloud;
        self.outstanding
            .entry(group_id.0)
            .or_default()
            .push(now_ms + response);

        let record = TraceRecord {
            timestamp_ms: now_ms + response,
            user: request.user,
            group: group_id,
            battery_level: request.battery_level,
            round_trip_ms: response,
            t1_ms: t1,
            t2_ms: t2,
            t_cloud_ms: t_cloud,
            success: true,
        };
        self.log.append(record.clone());
        self.requests_handled += 1;
        Ok(RoutedRequest {
            record,
            group: group_id,
            instance_type,
            concurrency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use mca_offload::{RequestId, TaskSpec, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn request(group: u8, user: u32) -> OffloadRequest {
        OffloadRequest::new(
            RequestId(u64::from(user)),
            UserId(user),
            AccelerationGroupId(group),
            TaskSpec::paper_static_minimax(),
            90.0,
            0.0,
        )
    }

    fn accelerator() -> SdnAccelerator {
        SdnAccelerator::new(SystemConfig::paper_three_groups().with_background_load(50))
    }

    #[test]
    fn response_decomposes_into_t1_t2_tcloud() {
        let mut sdn = accelerator();
        let mut rng = StdRng::seed_from_u64(1);
        let routed = sdn.handle(&request(1, 1), 0.0, &mut rng).unwrap();
        let r = &routed.record;
        assert!(r.is_consistent(1e-6));
        assert!(r.t1_ms > 0.0 && r.t2_ms > 0.0 && r.t_cloud_ms > 0.0);
        assert_eq!(sdn.log().len(), 1);
        assert_eq!(sdn.requests_handled(), 1);
    }

    #[test]
    fn routing_overhead_is_about_150_ms() {
        let mut sdn = accelerator();
        let mut rng = StdRng::seed_from_u64(2);
        let mut total = 0.0;
        let n = 200;
        for i in 0..n {
            total += sdn
                .handle(&request(1, i), i as f64 * 10_000.0, &mut rng)
                .unwrap()
                .record
                .t2_ms;
        }
        let mean = total / f64::from(n);
        assert!((mean - 150.0).abs() < 15.0, "mean routing {mean} ms");
    }

    #[test]
    fn t1_is_well_under_a_second_on_lte() {
        let mut sdn = accelerator();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..100 {
            let r = sdn
                .handle(&request(2, i), i as f64 * 5_000.0, &mut rng)
                .unwrap()
                .record;
            assert!(r.t1_ms < 1_000.0, "T1 {}", r.t1_ms);
        }
    }

    #[test]
    fn fig7_tcloud_dominates_and_decreases_with_acceleration() {
        let mut sdn = accelerator();
        let mut rng = StdRng::seed_from_u64(4);
        let mut mean_cloud = [0.0f64; 3];
        let samples = 60;
        for level in 1u8..=3 {
            let mut total = 0.0;
            for i in 0..samples {
                // spread requests out so queues stay empty; the background
                // load of 50 users dominates the concurrency
                let t = (u32::from(level) * 10_000 + i) as f64 * 20_000.0;
                let r = sdn.handle(&request(level, i), t, &mut rng).unwrap().record;
                total += r.t_cloud_ms;
                assert!(r.t_cloud_ms > r.t2_ms, "T_cloud must dominate routing");
            }
            mean_cloud[usize::from(level) - 1] = total / f64::from(samples);
        }
        assert!(
            mean_cloud[0] > mean_cloud[1] && mean_cloud[1] > mean_cloud[2],
            "{mean_cloud:?}"
        );
        // Acceleration 1 under a 50-user background load sits in the ≈2–2.5 s
        // band the paper reports (Fig. 7b / Fig. 9b).
        assert!(
            mean_cloud[0] > 1_500.0 && mean_cloud[0] < 3_200.0,
            "{mean_cloud:?}"
        );
    }

    #[test]
    fn out_of_range_group_requests_are_clamped() {
        let mut sdn = accelerator();
        let mut rng = StdRng::seed_from_u64(5);
        let routed = sdn.handle(&request(200, 1), 0.0, &mut rng).unwrap();
        assert_eq!(routed.group, AccelerationGroupId(3));
        let routed_low = sdn.handle(&request(0, 2), 0.0, &mut rng).unwrap();
        assert_eq!(routed_low.group, AccelerationGroupId(1));
    }

    #[test]
    fn more_instances_reduce_effective_concurrency() {
        let mut sdn =
            SdnAccelerator::new(SystemConfig::paper_three_groups().with_background_load(0));
        let mut rng = StdRng::seed_from_u64(6);
        // pile up 40 simultaneous requests on group 1 with a single instance
        for i in 0..40 {
            sdn.handle(&request(1, i), 0.0, &mut rng).unwrap();
        }
        let single_concurrency = sdn
            .handle(&request(1, 99), 1.0, &mut rng)
            .unwrap()
            .concurrency;
        // now give the group 8 instances and admit another request
        sdn.apply_allocation(&[(AccelerationGroupId(1), 8)]);
        let spread_concurrency = sdn
            .handle(&request(1, 100), 2.0, &mut rng)
            .unwrap()
            .concurrency;
        assert!(
            spread_concurrency < single_concurrency,
            "allocation must spread the load: {spread_concurrency} vs {single_concurrency}"
        );
    }

    #[test]
    fn outstanding_requests_expire_over_time() {
        let mut sdn = accelerator();
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..10 {
            sdn.handle(&request(1, i), 0.0, &mut rng).unwrap();
        }
        assert!(sdn.outstanding_in(AccelerationGroupId(1), 1.0) > 0);
        assert_eq!(sdn.outstanding_in(AccelerationGroupId(1), 1e9), 0);
    }

    #[test]
    fn instances_never_drop_to_zero() {
        let mut sdn = accelerator();
        sdn.apply_allocation(&[(AccelerationGroupId(1), 0)]);
        assert_eq!(sdn.instances_of(AccelerationGroupId(1)), 1);
    }
}
