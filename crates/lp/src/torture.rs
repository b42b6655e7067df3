//! The oracle's torture suite: the revised simplex that ships against the
//! dense tableau of `simplex.rs`, both under the same branch-and-bound
//! search, on the §IV-C allocation program at every catalogue size the
//! allocation sweep runs and on the corners a hostile catalogue or forecast
//! can reach — price ties, useless types, huge right-hand sides, programs
//! with no optimum.

use crate::model::{Problem, Sense, Solution, VarKind};
use crate::simplex::solve_ilp as solve_dense;
use crate::test_rng::XorShift;
use crate::{LpError, VarId};

/// `(hourly price, concurrent users served)` of one instance type.
type Kind = (f64, f64);

/// The six distinct-price types of `ilp_golden.rs`'s catalogue sweep with the
/// capacities the allocator derives for them (t2.nano, t2.small, t2.large,
/// m4.4xlarge, m4.10xlarge, c4.8xlarge).
const CATALOGUE: [Kind; 6] = [
    (0.0063, 89.0),
    (0.025, 85.0),
    (0.101, 281.0),
    (0.95, 4642.0),
    (2.377, 11605.0),
    (1.906, 15730.0),
];

/// The §IV-C program as the allocator builds it: one integer variable per
/// (group, type), each bounded by the account cap; per group a capacity row
/// (row `2g`: at least `demands[g]` users served) and a minimum row (at
/// least one instance); the account cap last.
fn allocation_program(groups: &[&[Kind]], cap: f64, demands: &[f64]) -> Problem {
    let mut p = Problem::minimize();
    let mut all = Vec::new();
    for (kinds, &demand) in groups.iter().zip(demands) {
        let vars: Vec<VarId> = kinds
            .iter()
            .map(|&(price, _)| p.add_var("x", VarKind::Integer, 0.0, Some(cap), price))
            .collect();
        let users: Vec<(VarId, f64)> = vars.iter().zip(*kinds).map(|(&v, k)| (v, k.1)).collect();
        p.add_constraint("capacity", &users, Sense::Ge, demand);
        let count: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint("min", &count, Sense::Ge, 1.0);
        all.extend(count);
    }
    p.add_constraint("account-cap", &all, Sense::Le, cap);
    p
}

/// `groups` demands drawn from `0..=max`.
fn random_demands(rng: &mut XorShift, groups: usize, max: usize) -> Vec<f64> {
    (0..groups).map(|_| rng.below(max + 1) as f64).collect()
}

type Outcome = Result<Solution, LpError>;

/// `revised` (or a fresh revised solve of `p`) against the oracle: the same
/// class, objectives within 1e-9 relative, values that satisfy `p`.
fn assert_same_optimum(p: &Problem, revised: Option<Outcome>, what: &str) -> (Outcome, Outcome) {
    let (revised, dense) = (revised.unwrap_or_else(|| p.solve()), solve_dense(p));
    match (&revised, &dense) {
        (Ok(r), Ok(d)) => {
            let error = (r.objective - d.objective).abs();
            assert!(
                error <= 1e-9 * d.objective.abs().max(1.0),
                "{what}: {r:?} vs {d:?}"
            );
            assert!(p.is_feasible(&r.values, 1e-6), "{what}: {r:?}");
        }
        (Err(r), Err(d)) => assert_eq!(r, d, "{what}"),
        (r, d) => panic!("{what}: revised {r:?} vs dense {d:?}"),
    }
    (revised, dense)
}

/// Every demand vector through ONE compiled program under replaced
/// right-hand sides — the allocator's path — and through the oracle on a
/// freshly built program: the same optimum, identical instance counts.
fn assert_allocations_agree(groups: &[&[Kind]], cap: f64, demands: &[Vec<f64>]) {
    let compiled = allocation_program(groups, cap, &vec![0.0; groups.len()]).compile();
    let compiled = compiled.expect("a valid program");
    for demand in demands {
        let what = format!("{} groups, demands {demand:?}", groups.len());
        let rhs: Vec<(usize, f64)> = demand
            .iter()
            .enumerate()
            .map(|(g, &d)| (2 * g, d))
            .collect();
        let fresh = allocation_program(groups, cap, demand);
        let (revised, dense) =
            assert_same_optimum(&fresh, Some(compiled.solve_with_rhs(&rhs)), &what);
        assert_eq!(revised.map(|s| s.values), dense.map(|s| s.values), "{what}");
    }
}

#[test]
fn allocation_programs_of_every_sweep_size_agree_with_the_oracle() {
    // the six-type catalogue under the sweep's account cap and demand range;
    // the oracle's tableau adds a row per bounded column and per branching
    // bound, so at eight groups three vectors are what a debug build affords
    let mut rng = XorShift(0x5EED_A110_CA7E_0001);
    for (groups, vectors) in [(1, 12), (2, 12), (4, 12), (8, 3)] {
        let demands: Vec<Vec<f64>> = (0..vectors)
            .map(|_| random_demands(&mut rng, groups, 2_000))
            .collect();
        let cap = 20.0 * groups as f64;
        assert_allocations_agree(&vec![&CATALOGUE[..]; groups], cap, &demands);
    }
}

#[test]
fn the_papers_three_groups_agree_with_the_oracle_on_the_allocator_load_vectors() {
    // `AccelerationGroups::paper_three_groups`: one type per group, CC = 20
    let groups: [&[Kind]; 3] = [&CATALOGUE[0..1], &CATALOGUE[2..3], &CATALOGUE[3..4]];
    let loads = [
        vec![0.0, 0.0, 0.0],
        vec![60.0, 120.0, 40.0],
        vec![150.0, 300.0, 100.0],
        vec![777.0, 13.0, 333.0],
    ];
    assert_allocations_agree(&groups, 20.0, &loads);
}

#[test]
fn equal_price_catalogues_reach_the_same_objective() {
    // whole faces of the polytope are optimal, so under Bland's rule the
    // engines may stop on different vertices: objective, feasibility and
    // class are what must agree
    let same_price: Vec<Kind> = CATALOGUE.iter().map(|&(_, users)| (1.0, users)).collect();
    // interchangeable columns: the proof of optimality walks every
    // permutation of a mix, so the shape stays small
    let identical: Vec<Kind> = vec![(0.5, 100.0); 3];
    let mut rng = XorShift(0x0713_50FB_1A4D);
    let (mut optimal, mut infeasible) = (0, 0);
    for (kinds, group_counts, max_demand) in [
        (&same_price, &[1, 2, 3][..], 2_000),
        (&identical, &[1, 2][..], 600),
    ] {
        for &groups in group_counts {
            for _ in 0..10 {
                let demands = random_demands(&mut rng, groups, max_demand);
                let cap = 5.0 * groups as f64;
                let p = allocation_program(&vec![&kinds[..]; groups], cap, &demands);
                let what = format!("{groups} groups, demands {demands:?}");
                match assert_same_optimum(&p, None, &what).0 {
                    Ok(_) => optimal += 1,
                    Err(LpError::Infeasible) => infeasible += 1,
                    Err(other) => panic!("{what}: {other}"),
                }
            }
        }
    }
    assert!(optimal > 30 && infeasible > 3, "{optimal} / {infeasible}");
}

#[test]
fn zero_capacity_types_and_huge_right_hand_sides_agree_with_the_oracle() {
    // the cheapest type serves nobody: it satisfies the minimum row and no
    // capacity row (its coefficient is dropped from the sparse form), next
    // to types that serve tens of millions
    let kinds: &[Kind] = &[(0.001, 0.0), (0.7, 3.0e7), (1.9, 1.1e8), (0.05, 0.0)];
    let useless: &[Kind] = &[(0.001, 0.0), (0.05, 0.0)];
    for (groups, cap, demands) in [
        // 1e9 users under a cap of twenty, and under a cap of 1e9 instances,
        // where every bound is huge
        (vec![kinds], 20.0, vec![1.0e9]),
        (vec![kinds], 1.0e9, vec![1.0e9]),
        (vec![kinds, kinds], 1.0e9, vec![1.0e9, 999_999_999.0]),
        // a demand no cap-sized mix serves
        (vec![kinds], 9.0, vec![1.0e9]),
        // a group of useless types: fine while nobody asks, infeasible after
        (vec![useless, kinds], 20.0, vec![0.0, 4.0e8]),
        (vec![useless, kinds], 20.0, vec![1.0, 4.0e8]),
    ] {
        assert_allocations_agree(&groups, cap, &[demands]);
    }
    let p = allocation_program(&[kinds], 9.0, &[1.0e9]);
    assert_eq!(p.solve(), Err(LpError::Infeasible));
    // the cheapest useless type keeps the idle group's minimum row
    let p = allocation_program(&[useless, kinds], 20.0, &[0.0, 4.0e8]);
    assert_eq!(p.solve().unwrap().values, [1.0, 0.0, 0.0, 0.0, 4.0, 0.0]);
}

/// `(terms, sense, rhs)` of one row.
type Row<'a> = (&'a [(usize, f64)], Sense, f64);

/// A program from tables: `(integer, upper, cost)` per variable, then rows.
fn program(mut p: Problem, vars: &[(bool, Option<f64>, f64)], rows: &[Row]) -> Problem {
    let ids: Vec<VarId> = vars
        .iter()
        .map(|&(integer, upper, cost)| {
            let kind = [VarKind::Continuous, VarKind::Integer][usize::from(integer)];
            p.add_var("x", kind, 0.0, upper, cost)
        })
        .collect();
    for &(terms, sense, rhs) in rows {
        let terms: Vec<(VarId, f64)> = terms.iter().map(|&(j, a)| (ids[j], a)).collect();
        p.add_constraint("r", &terms, sense, rhs);
    }
    p
}

#[test]
fn programs_without_an_optimum_classify_like_the_oracle() {
    use Sense::{Eq, Ge, Le};
    let (min, max) = (Problem::minimize, Problem::maximize);
    let unbounded = [
        // a free integer maximized over a floor
        program(max(), &[(true, None, 1.0)], &[(&[(0, 1.0)], Ge, 2.5)]),
        // a negative price on an uncapped type
        program(
            min(),
            &[(true, None, -0.5), (true, Some(4.0), 1.0)],
            &[(&[(0, 3.0), (1, 7.0)], Ge, 10.0)],
        ),
        // a ray the row leaves open
        program(
            max(),
            &[(false, None, 1.0), (true, None, 1.0)],
            &[(&[(0, 1.0), (1, -1.0)], Le, 3.5)],
        ),
        // no rows at all
        program(min(), &[(true, None, -1.0)], &[]),
    ];
    let x = [(true, Some(9.0), 1.0)];
    let infeasible = [
        // more groups than the cap has instances
        allocation_program(&[&CATALOGUE[..]; 3], 2.0, &[1.0, 1.0, 1.0]),
        // two equalities that disagree
        program(min(), &x, &[(&[(0, 1.0)], Eq, 3.0), (&[(0, 2.0)], Eq, 7.0)]),
        // a feasible relaxation with no integer point
        program(min(), &x, &[(&[(0, 2.0)], Ge, 5.0), (&[(0, 2.0)], Le, 5.5)]),
    ];
    for (programs, class) in [
        (&unbounded[..], LpError::Unbounded),
        (&infeasible[..], LpError::Infeasible),
    ] {
        for (i, p) in programs.iter().enumerate() {
            assert_eq!(p.solve(), Err(class.clone()), "{class} {i}");
            assert_eq!(solve_dense(p), Err(class.clone()), "{class} {i}");
        }
    }
}
