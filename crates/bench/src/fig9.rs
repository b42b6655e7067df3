//! Fig. 9 — dynamic acceleration and user perception: the 8-hour,
//! 100-user, trace-driven experiment with three acceleration groups
//! (t2.nano, t2.large, m4.4xlarge), a 50-user background load per server and
//! the static 1/50 promotion probability. Panel (b) shows a user that was
//! never promoted (stable ≈2.5 s responses); panel (c) shows a user promoted
//! through every level (response time drops at each promotion).

use mca_core::{System, SystemConfig, SystemReport, UserPerception};
use mca_mobile::InterArrivalSampler;
use mca_offload::{AccelerationGroupId, TaskPool, TaskSpec, UserId};
use mca_workload::{ArrivalTrace, GenerationMode, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::util;

/// Output of the 8-hour experiment.
#[derive(Debug, Clone)]
pub struct Fig9Output {
    /// Full system report.
    pub report: SystemReport,
    /// A user that was never promoted (the paper's "user 32").
    pub stable_user: Option<UserPerception>,
    /// A user promoted to the highest group (the paper's "user 8").
    pub promoted_user: Option<UserPerception>,
}

/// Generates the paper-style sporadic workload: `users` devices issuing
/// requests with a mean inter-request gap chosen so that roughly
/// `total_requests` arrive over `duration_ms` (≈4000 requests over 8 hours
/// for 100 users in the paper).
pub fn sporadic_workload(
    users: usize,
    duration_ms: f64,
    total_requests: usize,
    seed: u64,
) -> ArrivalTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let per_user = (total_requests as f64 / users as f64).max(1.0);
    let mean_gap_ms = (duration_ms / per_user).max(200.0);
    let sampler = InterArrivalSampler::new(100.0, duration_ms.max(200.0), mean_gap_ms);
    WorkloadGenerator::new(
        GenerationMode::InterArrival { users, sampler },
        TaskPool::static_load(TaskSpec::paper_static_minimax()),
    )
    .generate(duration_ms, &mut rng)
}

/// Runs the experiment. The defaults used by the `fig9` binary are the
/// paper's values (100 users, 8 hours, ≈4000 requests); tests use smaller
/// settings.
pub fn run(users: usize, duration_ms: f64, total_requests: usize, seed: u64) -> Fig9Output {
    let workload = sporadic_workload(users, duration_ms, total_requests, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let config = SystemConfig::paper_three_groups();
    let mut system = System::new(config);
    let report = system.run(&workload, &mut rng);

    let entry = AccelerationGroupId(1);
    let top = AccelerationGroupId(3);
    let stable_user = report
        .perceptions
        .iter()
        .filter(|p| p.promotions == 0 && p.final_group() == Some(entry))
        .max_by_key(|p| p.responses.len())
        .cloned();
    let promoted_user = report
        .perceptions
        .iter()
        .filter(|p| p.final_group() == Some(top))
        .max_by_key(|p| p.responses.len())
        .cloned();
    Fig9Output {
        report,
        stable_user,
        promoted_user,
    }
}

/// Prints both user-perception panels.
pub fn print(output: &Fig9Output) {
    println!(
        "8-hour experiment: {} requests, {} users, mean response {:.0} ms, total cost ${:.2}",
        output.report.records.len(),
        output.report.perceptions.len(),
        output.report.mean_response_ms,
        output.report.total_cost
    );
    if let Some(user) = &output.stable_user {
        print_user("Fig 9b: user never promoted", user);
    }
    if let Some(user) = &output.promoted_user {
        print_user("Fig 9c: user promoted to every level", user);
    }
}

fn print_user(title: &str, user: &UserPerception) {
    util::header(
        &format!("{title} ({})", UserId(user.user.0)),
        &["request", "response_ms", "group"],
    );
    for (i, (response, group)) in user.responses.iter().enumerate() {
        util::row(&[i.to_string(), util::f1(*response), group.to_string()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_user_sees_seconds_promoted_user_speeds_up() {
        // scaled-down run: 40 users, 2 simulated hours, ~1500 requests
        let out = run(40, 2.0 * 3_600_000.0, 1_500, 42);
        assert!(out.report.records.len() > 800);
        let stable = out
            .stable_user
            .as_ref()
            .expect("some user is never promoted");
        assert!(stable.promotions == 0);
        // ≈2.5 s perceived on acceleration 1 under the 50-user background load
        assert!(
            stable.mean_response_ms() > 1_800.0 && stable.mean_response_ms() < 3_500.0,
            "stable user mean {}",
            stable.mean_response_ms()
        );
        let promoted = out
            .promoted_user
            .as_ref()
            .expect("some user reaches the top group");
        assert!(promoted.promotions >= 2);
        // responses served by group 3 are faster than those served by group 1
        let mean_in = |p: &UserPerception, g: u8| {
            let v: Vec<f64> = p
                .responses
                .iter()
                .filter(|(_, gr)| gr.0 == g)
                .map(|(r, _)| *r)
                .collect();
            if v.is_empty() {
                None
            } else {
                Some(v.iter().sum::<f64>() / v.len() as f64)
            }
        };
        if let (Some(g1), Some(g3)) = (mean_in(promoted, 1), mean_in(promoted, 3)) {
            assert!(g3 < g1, "group3 {g3} should be faster than group1 {g1}");
        }
    }

    #[test]
    fn test_scale_reads_the_pinned_figure() {
        let out = run(40, 2.0 * 3_600_000.0, 1_500, 42);
        let report = &out.report;
        let totals = util::digest([
            report.records.len() as u64,
            report.promotions.len() as u64,
            report.perceptions.len() as u64,
            report.total_cost.to_bits(),
            report.mean_response_ms.to_bits(),
        ]);
        let user = |p: &Option<UserPerception>| {
            let p = p.as_ref().expect("both panels have a user");
            let responses = p
                .responses
                .iter()
                .flat_map(|(ms, group)| [ms.to_bits(), u64::from(group.0)]);
            util::digest(
                [u64::from(p.user.0), u64::from(p.promotions)]
                    .into_iter()
                    .chain(responses),
            )
        };
        let read = [totals, user(&out.stable_user), user(&out.promoted_user)];
        let pinned = [0xdb86209467324b91, 0x3d0aa92f384305fa, 0x3790c614215d49df];
        assert_eq!(read, pinned, "{read:#x?}");
    }

    #[test]
    fn sporadic_workload_matches_requested_volume() {
        let trace = sporadic_workload(50, 3_600_000.0, 2_000, 7);
        let ratio = trace.len() as f64 / 2_000.0;
        assert!(
            ratio > 0.6 && ratio < 1.6,
            "generated {} requests",
            trace.len()
        );
        assert_eq!(trace.distinct_users(), 50);
    }
}
