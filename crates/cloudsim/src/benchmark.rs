//! Instance characterization and acceleration-level classification (§VI-A).
//!
//! The paper answers "what is the effect of code execution when outsourced to
//! the cloud by multiple devices?" by stressing each instance type with the
//! simulator's concurrent mode at load levels 1, 10, 20, …, 100 users for
//! three hours per server, and then classifying instances into acceleration
//! levels: "when the minimum level of acceleration is defined, e.g., 500
//! milliseconds, all the available instances are sorted in an ascending manner
//! based on their capacity to handle that response time … an acceleration
//! group is created for each capacity. Instances with the same capacity are
//! assigned to the same group" (§IV-C-1).

use crate::instance::InstanceType;
use crate::server::Server;
use mca_offload::TaskPool;
use rand::Rng;

/// One measured point of the Fig. 4 characterization: statistics of the
/// response time at a fixed number of concurrent users.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacterizationPoint {
    /// Number of concurrent users applied.
    pub users: usize,
    /// Mean response time, ms.
    pub mean_ms: f64,
    /// Sample standard deviation, ms.
    pub std_dev_ms: f64,
    /// 5th percentile, ms.
    pub p5_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// Fraction of the measurement spent CPU-credit throttled.
    pub throttled_fraction: f64,
}

/// Characterization of one instance type across load levels.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceBenchmark {
    /// The instance type benchmarked.
    pub instance_type: InstanceType,
    /// Response-time target used for the capacity estimate, ms.
    pub response_target_ms: f64,
    /// Measured points, in increasing load order.
    pub points: Vec<CharacterizationPoint>,
    /// Estimated maximum number of concurrent users served within the target
    /// (the paper's `K_s`, expressed in concurrent users).
    pub capacity: usize,
}

impl InstanceBenchmark {
    /// The load levels of the paper's characterization (§VI-A-1).
    pub const PAPER_LOAD_LEVELS: [usize; 11] = [1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

    /// Runs the concurrent-mode characterization of one instance.
    ///
    /// `duration_per_level_ms` is the simulated time spent at each load level
    /// (the paper uses a 3-hour run over all levels; the default figure
    /// harness uses a few simulated minutes per level, which is enough for
    /// stable statistics).
    pub fn run<R: Rng + ?Sized>(
        instance_type: InstanceType,
        pool: &TaskPool,
        load_levels: &[usize],
        duration_per_level_ms: f64,
        response_target_ms: f64,
        rng: &mut R,
    ) -> Self {
        let mut points = Vec::with_capacity(load_levels.len());
        for &users in load_levels {
            // Fresh server per level: the 1-minute inter-burst cool-down of the
            // paper's methodology lets credits recover between levels.
            let mut server = Server::new(instance_type);
            let result = server.run_closed_loop(pool, users.max(1), duration_per_level_ms, rng);
            points.push(CharacterizationPoint {
                users,
                mean_ms: result.mean_ms,
                std_dev_ms: result.std_dev_ms,
                p5_ms: result.p5_ms,
                p95_ms: result.p95_ms,
                throttled_fraction: result.throttled_fraction,
            });
        }
        let capacity = estimate_capacity(&points, response_target_ms);
        Self {
            instance_type,
            response_target_ms,
            points,
            capacity,
        }
    }
}

/// Estimates the number of concurrent users at which the mean response time
/// crosses `target_ms`, interpolating (or extrapolating with a power-law fit)
/// between measured points.
pub(crate) fn estimate_capacity(points: &[CharacterizationPoint], target_ms: f64) -> usize {
    if points.is_empty() {
        return 0;
    }
    if points[0].mean_ms > target_ms {
        return 0;
    }
    for pair in points.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if b.mean_ms > target_ms {
            // log-log interpolation between a and b
            let t = ((target_ms.ln() - a.mean_ms.ln()) / (b.mean_ms.ln() - a.mean_ms.ln()))
                .clamp(0.0, 1.0);
            let users = (a.users as f64).ln() + t * ((b.users as f64).ln() - (a.users as f64).ln());
            return users.exp().floor().max(a.users as f64) as usize;
        }
    }
    // Even the heaviest measured load stays under the target: extrapolate a
    // power law `mean = a * users^b` fitted by least squares in log-log space
    // over every measured point with more than one user (measurement noise on
    // individual points would otherwise dominate the extrapolation).
    let n = points.len();
    if n < 2 {
        return points[0].users;
    }
    let fit_points: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.users >= 2 && p.mean_ms > 0.0)
        .map(|p| ((p.users as f64).ln(), p.mean_ms.ln()))
        .collect();
    let fit_points = if fit_points.len() >= 2 {
        fit_points
    } else {
        points
            .iter()
            .map(|p| ((p.users.max(1) as f64).ln(), p.mean_ms.max(1e-9).ln()))
            .collect()
    };
    let m = fit_points.len() as f64;
    let sx: f64 = fit_points.iter().map(|(x, _)| x).sum();
    let sy: f64 = fit_points.iter().map(|(_, y)| y).sum();
    let sxx: f64 = fit_points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = fit_points.iter().map(|(x, y)| x * y).sum();
    let denom = m * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return 100_000;
    }
    let slope = (m * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / m;
    if slope <= 1e-6 {
        // response time does not grow over the measured range
        return 100_000;
    }
    let users = ((target_ms.ln() - intercept) / slope).exp();
    users.floor().clamp(points[n - 1].users as f64, 100_000.0) as usize
}

/// One acceleration level: the set of instance types that provide the same
/// capacity under the response-time target.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelerationLevel {
    /// Level index (0 = lowest acceleration).
    pub level: u8,
    /// Instance types belonging to the level.
    pub members: Vec<InstanceType>,
    /// Representative capacity of the level (maximum member capacity).
    pub capacity: usize,
}

/// The result of classifying benchmarked instances into acceleration levels.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelClassification {
    /// Response-time target the classification is based on, ms.
    pub response_target_ms: f64,
    /// Levels in ascending acceleration order.
    pub levels: Vec<AccelerationLevel>,
}

impl LevelClassification {
    /// Groups benchmarked instances by capacity: instances are sorted by
    /// ascending capacity and a new level starts whenever an instance's
    /// capacity exceeds the current level's representative capacity by more
    /// than `ratio_threshold` (instances "with the same capacity" share a
    /// level; measured capacities are never exactly equal, so similarity is
    /// judged by ratio).
    ///
    /// # Panics
    ///
    /// Panics if `ratio_threshold <= 1.0` or `benchmarks` is empty.
    pub fn classify(benchmarks: &[InstanceBenchmark], ratio_threshold: f64) -> Self {
        assert!(ratio_threshold > 1.0, "ratio threshold must exceed 1.0");
        assert!(
            !benchmarks.is_empty(),
            "classification requires at least one benchmark"
        );
        let target = benchmarks[0].response_target_ms;
        let mut sorted: Vec<&InstanceBenchmark> = benchmarks.iter().collect();
        sorted.sort_by_key(|b| b.capacity);

        let mut levels: Vec<AccelerationLevel> = Vec::new();
        for b in sorted {
            match levels.last_mut() {
                Some(level)
                    if (b.capacity as f64) <= (level.capacity.max(1) as f64) * ratio_threshold =>
                {
                    level.members.push(b.instance_type);
                    level.capacity = level.capacity.max(b.capacity);
                }
                _ => {
                    levels.push(AccelerationLevel {
                        level: levels.len() as u8,
                        members: vec![b.instance_type],
                        capacity: b.capacity,
                    });
                }
            }
        }
        Self {
            response_target_ms: target,
            levels,
        }
    }

    /// Number of distinct acceleration levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The level index assigned to an instance type, if it was classified.
    pub fn level_of(&self, instance_type: InstanceType) -> Option<u8> {
        self.levels
            .iter()
            .find(|l| l.members.contains(&instance_type))
            .map(|l| l.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Mean response at the highest load level over the lowest — the
    /// "slope" the paper compares instances by in Fig. 4.
    fn degradation_ratio(b: &InstanceBenchmark) -> f64 {
        b.points[b.points.len() - 1].mean_ms / b.points[0].mean_ms
    }

    fn bench(instance_type: InstanceType, rng: &mut StdRng) -> InstanceBenchmark {
        InstanceBenchmark::run(
            instance_type,
            &TaskPool::paper_default(),
            &[1, 10, 30, 50, 100],
            30_000.0,
            500.0,
            rng,
        )
    }

    #[test]
    fn response_time_grows_with_load_on_small_instances() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = bench(InstanceType::T2Nano, &mut rng);
        assert_eq!(b.points.len(), 5);
        assert!(b
            .points
            .windows(2)
            .all(|w| w[1].mean_ms > w[0].mean_ms * 0.9));
        assert!(
            degradation_ratio(&b) > 3.0,
            "ratio {}",
            degradation_ratio(&b)
        );
    }

    #[test]
    fn big_instances_have_flat_curves() {
        let mut rng = StdRng::seed_from_u64(2);
        let b = bench(InstanceType::M4_10XLarge, &mut rng);
        assert!(
            degradation_ratio(&b) < 2.0,
            "ratio {}",
            degradation_ratio(&b)
        );
        assert!(b.capacity > 1_000);
    }

    #[test]
    fn fig4_set_classifies_into_four_levels_with_micro_at_the_bottom() {
        let mut rng = StdRng::seed_from_u64(3);
        let benchmarks: Vec<InstanceBenchmark> = InstanceType::FIG4_SET
            .iter()
            .map(|&t| bench(t, &mut rng))
            .collect();
        let classes = LevelClassification::classify(&benchmarks, 1.5);
        assert_eq!(classes.num_levels(), 4, "{classes:?}");
        // Level 0 is t2.micro alone (the anomaly demotes it).
        assert_eq!(classes.level_of(InstanceType::T2Micro), Some(0));
        // nano and small share level 1.
        assert_eq!(classes.level_of(InstanceType::T2Nano), Some(1));
        assert_eq!(classes.level_of(InstanceType::T2Small), Some(1));
        // medium and large share level 2.
        assert_eq!(classes.level_of(InstanceType::T2Medium), Some(2));
        assert_eq!(classes.level_of(InstanceType::T2Large), Some(2));
        // the 40-core machine is level 3.
        assert_eq!(classes.level_of(InstanceType::M4_10XLarge), Some(3));
    }

    #[test]
    fn c4_sits_at_or_above_the_m4_level() {
        let mut rng = StdRng::seed_from_u64(4);
        let benchmarks: Vec<InstanceBenchmark> = [
            InstanceType::T2Small,
            InstanceType::T2Large,
            InstanceType::M4_4XLarge,
            InstanceType::C4_8XLarge,
        ]
        .iter()
        .map(|&t| bench(t, &mut rng))
        .collect();
        let classes = LevelClassification::classify(&benchmarks, 1.5);
        let m4 = classes.level_of(InstanceType::M4_4XLarge).unwrap();
        let c4 = classes.level_of(InstanceType::C4_8XLarge).unwrap();
        assert!(c4 >= m4, "c4 level {c4} must not be below m4 level {m4}");
        assert_eq!(classes.level_of(InstanceType::T2Small), Some(0));
    }

    #[test]
    fn capacity_estimation_interpolates() {
        let points = vec![
            CharacterizationPoint {
                users: 1,
                mean_ms: 100.0,
                std_dev_ms: 0.0,
                p5_ms: 0.0,
                p95_ms: 0.0,
                throttled_fraction: 0.0,
            },
            CharacterizationPoint {
                users: 10,
                mean_ms: 300.0,
                std_dev_ms: 0.0,
                p5_ms: 0.0,
                p95_ms: 0.0,
                throttled_fraction: 0.0,
            },
            CharacterizationPoint {
                users: 100,
                mean_ms: 900.0,
                std_dev_ms: 0.0,
                p5_ms: 0.0,
                p95_ms: 0.0,
                throttled_fraction: 0.0,
            },
        ];
        let cap = estimate_capacity(&points, 500.0);
        assert!(cap > 10 && cap < 100, "cap {cap}");
    }

    #[test]
    fn capacity_zero_when_even_one_user_misses_target() {
        let points = vec![CharacterizationPoint {
            users: 1,
            mean_ms: 800.0,
            std_dev_ms: 0.0,
            p5_ms: 0.0,
            p95_ms: 0.0,
            throttled_fraction: 0.0,
        }];
        assert_eq!(estimate_capacity(&points, 500.0), 0);
    }

    #[test]
    fn capacity_extrapolates_beyond_measured_range() {
        let points = vec![
            CharacterizationPoint {
                users: 50,
                mean_ms: 60.0,
                std_dev_ms: 0.0,
                p5_ms: 0.0,
                p95_ms: 0.0,
                throttled_fraction: 0.0,
            },
            CharacterizationPoint {
                users: 100,
                mean_ms: 80.0,
                std_dev_ms: 0.0,
                p5_ms: 0.0,
                p95_ms: 0.0,
                throttled_fraction: 0.0,
            },
        ];
        let cap = estimate_capacity(&points, 500.0);
        assert!(cap > 100, "cap {cap}");
    }

    #[test]
    #[should_panic(expected = "ratio threshold")]
    fn classify_rejects_bad_threshold() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = bench(InstanceType::T2Nano, &mut rng);
        let _ = LevelClassification::classify(&[b], 0.9);
    }
}
