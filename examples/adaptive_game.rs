//! The paper's motivating scenario (§I): a decision-making routine (minimax)
//! that a flagship phone computes easily but a legacy phone or wearable
//! cannot. The example runs a legacy phone through the closed-loop system
//! and shows the client-side moderator promoting it through the
//! acceleration groups until the game becomes responsive.
//!
//! ```bash
//! cargo run --example adaptive_game
//! ```

use mobile_code_acceleration::prelude::*;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let task = TaskSpec::paper_static_minimax();
    println!(
        "game AI task: {task} ({:.0} work units)\n",
        task.work_units()
    );

    // Run the legacy phone through the closed-loop system with a
    // latency-threshold moderator: whenever a move takes longer than one
    // second, the device asks for the next acceleration level.
    println!("adaptive acceleration for the legacy phone (threshold 1000 ms):");
    let config = SystemConfig::paper_three_groups()
        .with_promotion_policy(PromotionPolicy::ResponseTimeThreshold {
            threshold_ms: 1_000.0,
        })
        .with_slot_length_ms(5.0 * 60_000.0);
    let mut system = System::new(config);
    let workload = WorkloadGenerator::inter_arrival(1, TaskPool::static_load(task))
        .generate(20.0 * 60_000.0, &mut rng);
    let report = system.run(&workload, &mut rng);
    let player = report
        .perception_of(UserId(0))
        .expect("the player issued requests");
    let mut last_group = None;
    for (i, (response, group)) in player.responses.iter().enumerate() {
        if last_group != Some(*group) {
            println!("  -- now served by acceleration group {group} --");
            last_group = Some(*group);
        }
        if i < 6 || last_group == Some(*group) && i % 10 == 0 {
            println!("  move {i:>3}: {response:>6.0} ms");
        }
    }
    println!(
        "\nplayer promoted {} times; mean move latency {:.0} ms; total cloud bill ${:.2}",
        player.promotions,
        player.mean_response_ms(),
        report.total_cost
    );
}
