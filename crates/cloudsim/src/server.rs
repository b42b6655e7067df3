//! Processor-sharing server model and load experiments.
//!
//! The response-time behaviour the paper characterizes in §VI-A and §VI-B has
//! three ingredients:
//!
//! 1. **Single-task speed** — set by the instance's per-core speed factor
//!    (Fig. 5 acceleration ratios).
//! 2. **Contention** — as more users offload concurrently, requests share the
//!    instance's cores and response times grow; the growth flattens for
//!    instances with more cores (Fig. 4). The paper's concurrent-mode bursts
//!    observe a *sub-linear* degradation (offloaded Dalvik workloads are not
//!    perfectly CPU-bound: I/O, VM multiplexing, short tasks), which we model
//!    as a slowdown of `max(1, (n / vcpus)^alpha)` with `alpha < 1`.
//! 3. **Saturation** — in an open system, once the offered arrival rate
//!    exceeds the instance's sustainable throughput the backlog explodes and
//!    requests are dropped (Fig. 8b/8c). The open-loop simulation reproduces
//!    this with an event-driven, capacity-conserving processor-sharing queue
//!    with bounded admission.

use crate::credits::CpuCreditModel;
use crate::instance::{InstanceSpec, InstanceType};
use mca_offload::TaskPool;
use rand::Rng;

/// Tunable parameters of the server model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ServerConfig {
    /// Sub-linear contention exponent (`alpha`); 0.45 reproduces the
    /// degradation slopes of Fig. 4 and the ≈2.5 s perceived response time of
    /// Fig. 9b under a 50-user background load.
    pub contention_exponent: f64,
    /// Fixed per-request overhead of the Dalvik surrogate (process creation,
    /// APK dispatch), milliseconds.
    pub per_request_overhead_ms: f64,
    /// Multiplicative execution-time noise (standard deviation of a unit-mean
    /// factor).
    pub service_noise: f64,
    /// Maximum number of requests admitted simultaneously; beyond this the
    /// server drops incoming requests (Fig. 8c).
    pub max_outstanding: usize,
}

impl ServerConfig {
    /// Default configuration for an instance type.
    fn for_instance(instance_type: InstanceType) -> Self {
        let spec = instance_type.spec();
        Self {
            contention_exponent: 0.45,
            per_request_overhead_ms: 18.0,
            service_noise: 0.10,
            // Roughly sixty outstanding dalvikvm processes per core before the
            // surrogate starts refusing work.
            max_outstanding: 60 * spec.vcpus.max(1) as usize,
        }
    }
}

/// A simulated cloud server (one instance running the Dalvik-x86 surrogate).
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    config: ServerConfig,
    spec: InstanceSpec,
    credits: Option<CpuCreditModel>,
}

impl Server {
    /// Creates a server with the default configuration for `instance_type`.
    pub fn new(instance_type: InstanceType) -> Self {
        Self {
            config: ServerConfig::for_instance(instance_type),
            spec: instance_type.spec(),
            credits: CpuCreditModel::for_instance(instance_type),
        }
    }

    /// The server's configuration.
    pub(crate) fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Contention slowdown factor with `concurrent` requests in service.
    fn contention_slowdown(&self, concurrent: usize) -> f64 {
        let n = concurrent.max(1) as f64;
        let c = f64::from(self.spec.vcpus.max(1));
        if n <= c {
            1.0
        } else {
            (n / c).powf(self.config.contention_exponent)
        }
    }

    /// Expected (noise-free) execution time of `work_units` of work while
    /// `concurrent` requests are in service, milliseconds.
    pub fn expected_execution_ms(&self, work_units: f64, concurrent: usize) -> f64 {
        let throttle = self.credits.map(|c| c.speed_multiplier()).unwrap_or(1.0);
        let speed = self.spec.sustained_core_speed() * throttle;
        self.config.per_request_overhead_ms
            + work_units / speed.max(1e-9) * self.contention_slowdown(concurrent)
    }

    /// Samples a noisy execution time for one request.
    pub fn sample_execution_ms<R: Rng + ?Sized>(
        &self,
        work_units: f64,
        concurrent: usize,
        rng: &mut R,
    ) -> f64 {
        let noise = 1.0 + self.config.service_noise * standard_normal(rng);
        self.expected_execution_ms(work_units, concurrent) * noise.max(0.2)
    }

    /// Sustainable throughput of the server in requests per second for tasks
    /// of `mean_work_units` work.
    fn sustainable_rate_hz(&self, mean_work_units: f64) -> f64 {
        1_000.0 * self.spec.aggregate_throughput() / mean_work_units.max(1e-9)
    }

    /// Largest number of concurrent users the server can serve while keeping
    /// the expected response time of a task of `work_units` at or below
    /// `target_ms` (the paper's per-group capacity `K_s`).
    pub fn capacity_under(&self, work_units: f64, target_ms: f64) -> usize {
        if self.expected_execution_ms(work_units, 1) > target_ms {
            return 0;
        }
        // Expected execution time is monotone in the concurrency, so binary
        // search over a generous range.
        let (mut lo, mut hi) = (1usize, 100_000usize);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if self.expected_execution_ms(work_units, mid) <= target_ms {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    /// Runs the paper's concurrent benchmarking mode: `users` concurrent
    /// emulated devices repeatedly offloading random tasks from `pool` for
    /// `duration_ms`. Advances the CPU-credit model for burstable instances.
    ///
    /// # Panics
    ///
    /// Panics if `users` is zero.
    pub fn run_closed_loop<R: Rng + ?Sized>(
        &mut self,
        pool: &TaskPool,
        users: usize,
        duration_ms: f64,
        rng: &mut R,
    ) -> ClosedLoopResult {
        assert!(users > 0, "closed loop requires at least one user");
        let mut samples = Vec::new();
        let mut elapsed = 0.0;
        let utilization = (users as f64 / f64::from(self.spec.vcpus.max(1))).min(1.0);
        let mut throttled_time = 0.0;
        while elapsed < duration_ms {
            let work = pool.draw(rng).work_units();
            let response = self.sample_execution_ms(work, users, rng);
            samples.push(response);
            // One sample advances wall-clock time by one response time (all
            // users progress roughly in lock step in the concurrent mode).
            if let Some(credits) = self.credits.as_mut() {
                let multiplier = credits.advance(response, utilization, self.spec.vcpus);
                if multiplier < 1.0 {
                    throttled_time += response;
                }
            }
            elapsed += response;
        }
        ClosedLoopResult::from_samples(users, samples, throttled_time / elapsed.max(1e-9))
    }

    /// Runs the paper's inter-arrival mode as an open-loop, event-driven
    /// processor-sharing simulation: Poisson arrivals at `arrival_hz` for
    /// `duration_ms`, with requests dropped whenever the number of
    /// outstanding requests reaches the admission limit (Fig. 8b/8c).
    ///
    /// # Panics
    ///
    /// Panics if `arrival_hz` is not strictly positive.
    pub fn run_open_loop<R: Rng + ?Sized>(
        &mut self,
        pool: &TaskPool,
        arrival_hz: f64,
        duration_ms: f64,
        rng: &mut R,
    ) -> OpenLoopResult {
        assert!(arrival_hz > 0.0, "arrival rate must be positive");

        let speed = self.spec.sustained_core_speed().max(1e-9);
        let cores = f64::from(self.spec.vcpus.max(1));
        let mean_arrival_ms = 1_000.0 / arrival_hz;

        // Remaining service demand is expressed in dedicated-core
        // milliseconds; with `n` active requests each progresses at
        // `min(1, cores / n)` dedicated-core ms per wall-clock ms.
        let mut active: Vec<ActiveRequest> = Vec::new();
        let mut now = 0.0f64;
        let mut next_arrival = sample_exponential(mean_arrival_ms, rng);
        let mut offered = 0usize;
        let mut dropped = 0usize;
        let mut response_times = Vec::new();

        loop {
            let share = if active.is_empty() {
                1.0
            } else {
                (cores / active.len() as f64).min(1.0)
            };
            let next_completion = active
                .iter()
                .enumerate()
                .map(|(i, a)| (i, now + a.remaining_ms / share))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

            let arrivals_open = next_arrival <= duration_ms;
            match (arrivals_open, next_completion) {
                (false, None) => break,
                (true, None) => {
                    now = next_arrival;
                    offered += 1;
                    admit(
                        &mut active,
                        pool,
                        speed,
                        &self.config,
                        now,
                        &mut dropped,
                        rng,
                    );
                    next_arrival = now + sample_exponential(mean_arrival_ms, rng);
                }
                (arrival_possible, Some((idx, completion_at))) => {
                    if arrival_possible && next_arrival <= completion_at {
                        let dt = next_arrival - now;
                        progress(&mut active, dt * share);
                        now = next_arrival;
                        offered += 1;
                        admit(
                            &mut active,
                            pool,
                            speed,
                            &self.config,
                            now,
                            &mut dropped,
                            rng,
                        );
                        next_arrival = now + sample_exponential(mean_arrival_ms, rng);
                    } else {
                        let dt = completion_at - now;
                        progress(&mut active, dt * share);
                        now = completion_at;
                        let finished = active.swap_remove(idx);
                        response_times.push(now - finished.started_at);
                    }
                }
            }
        }

        let utilization = (arrival_hz / self.sustainable_rate_hz(pool.mean_work_units())).min(1.0);
        if let Some(credits) = self.credits.as_mut() {
            credits.advance(duration_ms, utilization, self.spec.vcpus);
        }

        OpenLoopResult::new(arrival_hz, offered, dropped, response_times)
    }
}

#[derive(Debug, Clone, Copy)]
struct ActiveRequest {
    remaining_ms: f64,
    started_at: f64,
}

fn admit<R: Rng + ?Sized>(
    active: &mut Vec<ActiveRequest>,
    pool: &TaskPool,
    speed: f64,
    config: &ServerConfig,
    now: f64,
    dropped: &mut usize,
    rng: &mut R,
) {
    if active.len() >= config.max_outstanding {
        *dropped += 1;
    } else {
        let work = pool.draw(rng).work_units();
        let service_ms = config.per_request_overhead_ms + work / speed;
        active.push(ActiveRequest {
            remaining_ms: service_ms,
            started_at: now,
        });
    }
}

fn progress(active: &mut [ActiveRequest], dedicated_ms: f64) {
    for a in active.iter_mut() {
        a.remaining_ms = (a.remaining_ms - dedicated_ms).max(0.0);
    }
}

fn sample_exponential<R: Rng + ?Sized>(mean_ms: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean_ms * u.ln()
}

fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Result of a closed-loop (concurrent mode) experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopResult {
    /// Number of concurrent users emulated.
    pub users: usize,
    /// Individual response-time samples, ms.
    pub samples: Vec<f64>,
    /// Mean response time, ms.
    pub mean_ms: f64,
    /// Sample standard deviation, ms.
    pub std_dev_ms: f64,
    /// 5th percentile, ms.
    pub p5_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// Fraction of the experiment spent CPU-credit throttled.
    pub throttled_fraction: f64,
}

impl ClosedLoopResult {
    fn from_samples(users: usize, samples: Vec<f64>, throttled_fraction: f64) -> Self {
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let mean = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<f64>() / sorted.len() as f64
        };
        let std_dev = if sorted.len() > 1 {
            (sorted.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (sorted.len() - 1) as f64)
                .sqrt()
        } else {
            0.0
        };
        let pct = |q: f64| -> f64 {
            if sorted.is_empty() {
                0.0
            } else {
                sorted[((sorted.len() - 1) as f64 * q).round() as usize]
            }
        };
        Self {
            users,
            mean_ms: mean,
            std_dev_ms: std_dev,
            p5_ms: pct(0.05),
            p95_ms: pct(0.95),
            throttled_fraction,
            samples,
        }
    }
}

/// Result of an open-loop (inter-arrival mode) experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopResult {
    /// Offered arrival rate, Hz.
    pub arrival_hz: f64,
    /// Requests offered to the server.
    pub offered: usize,
    /// Requests rejected because the admission limit was reached.
    pub dropped: usize,
    /// Mean response time of completed requests, ms.
    pub mean_response_ms: f64,
    /// 95th percentile response time of completed requests, ms.
    pub p95_response_ms: f64,
    /// Fraction of offered requests that completed successfully.
    pub success_ratio: f64,
}

impl OpenLoopResult {
    fn new(arrival_hz: f64, offered: usize, dropped: usize, mut responses: Vec<f64>) -> Self {
        responses.sort_by(f64::total_cmp);
        let mean = if responses.is_empty() {
            0.0
        } else {
            responses.iter().sum::<f64>() / responses.len() as f64
        };
        let p95 = if responses.is_empty() {
            0.0
        } else {
            responses[((responses.len() - 1) as f64 * 0.95).round() as usize]
        };
        let completed = offered.saturating_sub(dropped);
        Self {
            arrival_hz,
            offered,
            dropped,
            mean_response_ms: mean,
            p95_response_ms: p95,
            success_ratio: if offered == 0 {
                1.0
            } else {
                completed as f64 / offered as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_offload::TaskSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn minimax_pool() -> TaskPool {
        TaskPool::static_load(TaskSpec::paper_static_minimax())
    }

    #[test]
    fn single_request_response_matches_core_speed() {
        let server = Server::new(InstanceType::T2Small);
        let work = 100.0;
        let t = server.expected_execution_ms(work, 1);
        assert!((t - (18.0 + 100.0)).abs() < 1e-9);
        let faster = Server::new(InstanceType::M4_10XLarge);
        assert!(faster.expected_execution_ms(work, 1) < t);
    }

    #[test]
    fn fig5_single_task_acceleration_ratios() {
        let minimax = TaskSpec::paper_static_minimax().work_units();
        let l1 = Server::new(InstanceType::T2Small).expected_execution_ms(minimax, 1) - 18.0;
        let l2 = Server::new(InstanceType::T2Large).expected_execution_ms(minimax, 1) - 18.0;
        let l3 = Server::new(InstanceType::M4_4XLarge).expected_execution_ms(minimax, 1) - 18.0;
        assert!((l1 / l2 - 1.25).abs() < 0.02, "l1/l2 = {}", l1 / l2);
        assert!((l1 / l3 - 1.73).abs() < 0.02, "l1/l3 = {}", l1 / l3);
    }

    #[test]
    fn contention_grows_response_time_and_flattens_with_cores() {
        let nano = Server::new(InstanceType::T2Nano);
        let big = Server::new(InstanceType::M4_10XLarge);
        let work = 65.0;
        assert!(nano.expected_execution_ms(work, 100) > nano.expected_execution_ms(work, 10));
        assert!(nano.expected_execution_ms(work, 10) > nano.expected_execution_ms(work, 1));
        // the 40-core machine barely notices 30 users
        assert!(
            (big.expected_execution_ms(work, 30) - big.expected_execution_ms(work, 1)).abs() < 1.0
        );
        // relative degradation at 100 users is much larger on the small box
        let nano_ratio =
            nano.expected_execution_ms(work, 100) / nano.expected_execution_ms(work, 1);
        let big_ratio = big.expected_execution_ms(work, 100) / big.expected_execution_ms(work, 1);
        assert!(
            nano_ratio > 3.0 * big_ratio,
            "nano {nano_ratio} big {big_ratio}"
        );
    }

    #[test]
    fn fig9_background_load_gives_two_and_a_half_seconds_on_level1() {
        // User 32 (never promoted) perceives ≈2.5 s on acceleration level 1
        // under the 50-user background load of the 8-hour experiment.
        let server = Server::new(InstanceType::T2Nano);
        let work = TaskSpec::paper_static_minimax().work_units();
        let t = server.expected_execution_ms(work, 50);
        assert!(
            t > 1_800.0 && t < 3_200.0,
            "level-1 response under load: {t} ms"
        );
    }

    #[test]
    fn micro_slower_than_nano_under_load() {
        let nano = Server::new(InstanceType::T2Nano);
        let micro = Server::new(InstanceType::T2Micro);
        for users in [1usize, 10, 50, 100] {
            assert!(
                micro.expected_execution_ms(65.0, users) > nano.expected_execution_ms(65.0, users),
                "anomaly must hold at {users} users"
            );
        }
    }

    #[test]
    fn capacity_orders_instances() {
        let work = 65.0;
        let target = 500.0;
        let cap_micro = Server::new(InstanceType::T2Micro).capacity_under(work, target);
        let cap_small = Server::new(InstanceType::T2Small).capacity_under(work, target);
        let cap_large = Server::new(InstanceType::T2Large).capacity_under(work, target);
        let cap_m4 = Server::new(InstanceType::M4_10XLarge).capacity_under(work, target);
        assert!(cap_micro < cap_small, "{cap_micro} < {cap_small}");
        assert!(cap_small < cap_large, "{cap_small} < {cap_large}");
        assert!(cap_large < cap_m4, "{cap_large} < {cap_m4}");
        assert!(cap_micro >= 1);
    }

    #[test]
    fn capacity_zero_when_single_request_misses_target() {
        let server = Server::new(InstanceType::T2Micro);
        assert_eq!(server.capacity_under(10_000.0, 100.0), 0);
    }

    #[test]
    fn closed_loop_produces_samples_and_matches_expectation() {
        let mut server = Server::new(InstanceType::T2Medium);
        let mut rng = StdRng::seed_from_u64(1);
        let result = server.run_closed_loop(&minimax_pool(), 30, 120_000.0, &mut rng);
        assert!(result.samples.len() > 20);
        assert_eq!(result.users, 30);
        let expected = Server::new(InstanceType::T2Medium)
            .expected_execution_ms(TaskSpec::paper_static_minimax().work_units(), 30);
        assert!(
            (result.mean_ms - expected).abs() / expected < 0.25,
            "mean {} vs expected {expected}",
            result.mean_ms
        );
        assert!(result.std_dev_ms > 0.0);
        assert!(result.p95_ms >= result.mean_ms);
        assert!(result.p5_ms <= result.mean_ms);
    }

    #[test]
    fn open_loop_below_saturation_has_no_drops_and_low_latency() {
        let mut server = Server::new(InstanceType::T2Large);
        let mut rng = StdRng::seed_from_u64(2);
        let pool = TaskPool::paper_default();
        let result = server.run_open_loop(&pool, 4.0, 60_000.0, &mut rng);
        assert!(result.offered > 150);
        assert_eq!(result.dropped, 0, "4 Hz is far below the ~38 Hz capacity");
        assert!(result.success_ratio > 0.999);
        assert!(
            result.mean_response_ms < 200.0,
            "mean {}",
            result.mean_response_ms
        );
    }

    #[test]
    fn open_loop_saturates_between_32_and_128_hz() {
        // Fig. 8b: t2.large keeps up until 32 Hz; at 128 Hz it is far beyond
        // capacity, response time explodes and requests drop.
        let pool = TaskPool::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut at = |hz: f64| {
            let mut server = Server::new(InstanceType::T2Large);
            server.run_open_loop(&pool, hz, 60_000.0, &mut rng)
        };
        let low = at(16.0);
        let high = at(128.0);
        assert!(
            low.success_ratio > 0.95,
            "16 Hz success {}",
            low.success_ratio
        );
        assert!(
            high.success_ratio < 0.6,
            "128 Hz success {}",
            high.success_ratio
        );
        assert!(high.mean_response_ms > 5.0 * low.mean_response_ms);
        assert!(high.dropped > 0);
    }

    #[test]
    fn open_loop_response_time_plateaus_at_queue_limit() {
        let pool = TaskPool::paper_default();
        let mut rng = StdRng::seed_from_u64(4);
        let mut server = Server::new(InstanceType::T2Large);
        let result = server.run_open_loop(&pool, 512.0, 20_000.0, &mut rng);
        // Response time is bounded by (queue limit × mean service time).
        let bound = server.config().max_outstanding as f64
            * (pool.mean_work_units() / server.spec.sustained_core_speed() + 40.0)
            * 1.6;
        assert!(
            result.mean_response_ms < bound,
            "mean {} bound {bound}",
            result.mean_response_ms
        );
        assert!(result.p95_response_ms >= result.mean_response_ms);
    }

    #[test]
    fn sustainable_rate_scales_with_cores_and_speed() {
        let pool = TaskPool::paper_default();
        let small = Server::new(InstanceType::T2Small).sustainable_rate_hz(pool.mean_work_units());
        let large = Server::new(InstanceType::T2Large).sustainable_rate_hz(pool.mean_work_units());
        let m4 = Server::new(InstanceType::M4_10XLarge).sustainable_rate_hz(pool.mean_work_units());
        assert!(large > 2.0 * small, "two faster cores");
        assert!(m4 > 20.0 * small);
        // t2.large knee lands in the 32–64 Hz band of Fig. 8b
        assert!(
            large > 30.0 && large < 64.0,
            "t2.large saturation {large} Hz"
        );
    }

    #[test]
    fn noise_keeps_samples_positive() {
        let server = Server::new(InstanceType::T2Nano);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2_000 {
            assert!(server.sample_execution_ms(10.0, 5, &mut rng) > 0.0);
        }
    }
}
