//! Characterize a set of cloud instances into acceleration levels exactly the
//! way the paper does in §VI-A: stress each instance with the concurrent-mode
//! simulator, estimate its capacity under a 500 ms response-time target, and
//! group instances with similar capacity into acceleration levels.
//!
//! ```bash
//! cargo run --example characterize_cloud
//! ```

use mobile_code_acceleration::prelude::*;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2017);
    let pool = TaskPool::paper_default();
    let load_levels = [1usize, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

    println!(
        "benchmarking {} instance types with loads 1..100...\n",
        InstanceType::ALL.len()
    );
    let benchmarks: Vec<InstanceBenchmark> = InstanceType::ALL
        .iter()
        .map(|&ty| {
            let b = InstanceBenchmark::run(ty, &pool, &load_levels, 60_000.0, 500.0, &mut rng);
            let first = b.points.first().map(|p| p.mean_ms).unwrap_or(0.0);
            let last = b.points.last().map(|p| p.mean_ms).unwrap_or(0.0);
            println!(
                "{:<12} 1 user: {:>5.0} ms   100 users: {:>6.0} ms   degradation {:>4.1}x   capacity ≈ {:>6} users",
                ty.to_string(),
                first,
                last,
                if first > 0.0 { last / first } else { 1.0 },
                b.capacity
            );
            b
        })
        .collect();

    let classification = LevelClassification::classify(&benchmarks, 1.5);
    println!("\nacceleration levels under a 500 ms target:");
    for level in &classification.levels {
        let members: Vec<String> = level.members.iter().map(|m| m.to_string()).collect();
        let cost: f64 = level
            .members
            .iter()
            .map(|m| m.spec().cost_per_hour)
            .sum::<f64>()
            / level.members.len() as f64;
        println!(
            "  level {}: {:<28} capacity ≈ {:>6} users/instance, mean price ${:.3}/h",
            level.level,
            members.join(", "),
            level.capacity,
            cost
        );
    }

    let groups = AccelerationGroups::from_classification(&classification);
    println!(
        "\nderived {} acceleration groups; entry group is {} and the ceiling is {}",
        groups.len(),
        groups.lowest().id,
        groups.highest().id
    );
}
