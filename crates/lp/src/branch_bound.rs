//! Branch-and-bound search over LP relaxations for integer variables.

use crate::error::LpError;
use crate::model::{Sense, Solution, SolveStats};
use crate::sparse::{Relaxed, SparseProblem, WarmStart, Workspace};
use crate::VarId;
use std::rc::Rc;

/// Nodes (LP relaxations) explored before the search gives up with
/// [`LpError::NodeLimit`].
pub(crate) const MAX_NODES: usize = 100_000;
/// An LP value within this distance of an integer is integral.
const INTEGRALITY_TOLERANCE: f64 = 1e-6;
/// A node must beat the incumbent by more than this to be explored or kept.
const ABSOLUTE_GAP: f64 = 1e-9;

/// A node that branched: the bound it added to its own parent's, and what
/// its two children share.
struct Branch {
    /// `None` at the root.
    bound: Option<(VarId, Sense, f64)>,
    up: Option<Rc<Branch>>,
    /// Optimal basis of this node's relaxation with its factorization (only
    /// when the basis is reusable): the children re-enter from it instead of
    /// solving cold.
    warm: Option<WarmStart>,
}

/// An open node: its parent's bounds plus one.
pub(crate) struct Node {
    /// `None` at the root.
    bound: Option<(VarId, Sense, f64)>,
    parent: Option<Rc<Branch>>,
}

impl Node {
    /// The node's branching bounds, its own first and the root's child's
    /// last.
    pub(crate) fn bounds(&self) -> impl Iterator<Item = (VarId, Sense, f64)> + '_ {
        let ancestors = std::iter::successors(self.parent.as_deref(), |b| b.up.as_deref());
        self.bound
            .into_iter()
            .chain(ancestors.filter_map(|b| b.bound))
    }
}

/// What solves the relaxation at a node. [`Revised`] is the one
/// implementation in a build; the crate's tests put the dense tableau oracle
/// behind it (`crate::simplex`), so that the reference solve walks the same
/// search as the one under test.
pub(crate) trait Relaxation {
    /// Solves the relaxation of `sp` under the bounds of `node`, leaving an
    /// optimum's values in [`Workspace::values`].
    fn relax(
        &self,
        sp: &SparseProblem,
        node: &Node,
        ws: &mut Workspace,
    ) -> Result<Relaxed, LpError>;

    /// What the children of the node just relaxed re-enter from; `None` has
    /// them solve cold.
    fn warm_start(&self, _sp: &SparseProblem, _ws: &mut Workspace) -> Option<WarmStart> {
        None
    }
}

/// The revised simplex in the search's workspace: a child re-enters from its
/// parent's optimal basis through one shared factorization.
struct Revised;

impl Relaxation for Revised {
    fn relax(
        &self,
        sp: &SparseProblem,
        node: &Node,
        ws: &mut Workspace,
    ) -> Result<Relaxed, LpError> {
        let warm = node
            .parent
            .as_deref()
            .and_then(|branch| branch.warm.as_ref())
            .map(WarmStart::as_warm);
        ws.relax(sp, node.bounds(), warm)
    }

    fn warm_start(&self, sp: &SparseProblem, ws: &mut Workspace) -> Option<WarmStart> {
        ws.warm_start(sp)
    }
}

/// Solves the compiled problem `sp` — integer variables included — by
/// branch-and-bound, with the listed `(row, value)` right-hand sides
/// replaced, every node working in `ws`.
pub(crate) fn solve(
    sp: &SparseProblem,
    rhs: &[(usize, f64)],
    ws: &mut Workspace,
) -> Result<Solution, LpError> {
    search(sp, rhs, ws, &Revised)
}

/// [`solve`], with the relaxation at every node left to `engine`.
pub(crate) fn search(
    sp: &SparseProblem,
    rhs: &[(usize, f64)],
    ws: &mut Workspace,
    engine: &impl Relaxation,
) -> Result<Solution, LpError> {
    ws.begin(sp, rhs)?;
    if sp.num_vars() == 0 {
        return Ok(Solution {
            objective: 0.0,
            values: Vec::new(),
            stats: SolveStats::default(),
        });
    }
    let maximize = sp.maximizes();
    let integer_vars = sp.integers();

    let mut stack = vec![Node {
        bound: None,
        parent: None,
    }];
    let mut incumbent: Option<Solution> = None;
    let mut nodes = 0usize;
    let mut pivots = 0usize;
    let mut phase1_skips = 0usize;
    let mut root_unbounded = false;

    while let Some(node) = stack.pop() {
        if nodes >= sp.max_nodes {
            return incumbent.ok_or(LpError::NodeLimit { explored: nodes });
        }
        nodes += 1;

        let objective = match engine.relax(sp, &node, ws)? {
            Relaxed::Optimal {
                objective,
                pivots: node_pivots,
                warm_started,
                ..
            } => {
                pivots += node_pivots;
                // a stalled warm attempt that restarted cold is not a
                // phase-1 skip, even if the cold solve needed none
                phase1_skips += usize::from(warm_started);
                objective
            }
            Relaxed::Infeasible => continue,
            Relaxed::Unbounded => {
                if node.parent.is_none() {
                    root_unbounded = true;
                }
                // An unbounded relaxation at the root means the ILP is
                // unbounded (or infeasible); deeper nodes are only more
                // constrained, so stop exploring this branch.
                continue;
            }
        };

        // Bound: prune nodes that cannot beat the incumbent.
        if let Some(ref inc) = incumbent {
            let worse = if maximize {
                objective <= inc.objective + ABSOLUTE_GAP
            } else {
                objective >= inc.objective - ABSOLUTE_GAP
            };
            if worse {
                continue;
            }
        }

        // Find the most fractional integer variable.
        let fractional = integer_vars
            .iter()
            .map(|&j| {
                let x = ws.values[j];
                let frac = (x - x.round()).abs();
                (j, x, frac)
            })
            .filter(|&(_, _, frac)| frac > INTEGRALITY_TOLERANCE)
            .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));

        match fractional {
            None => {
                // Integral solution: round the integer coordinates exactly and
                // keep it if it improves the incumbent.
                for &j in integer_vars {
                    ws.values[j] = ws.values[j].round();
                }
                let obj = sp.objective_value(&ws.values);
                let better = match &incumbent {
                    None => true,
                    Some(inc) => {
                        if maximize {
                            obj > inc.objective + ABSOLUTE_GAP
                        } else {
                            obj < inc.objective - ABSOLUTE_GAP
                        }
                    }
                };
                if better {
                    let solution = incumbent.get_or_insert_with(|| Solution {
                        objective: obj,
                        values: Vec::new(),
                        stats: SolveStats::default(),
                    });
                    solution.objective = obj;
                    solution.values.clone_from(&ws.values);
                    solution.stats = SolveStats {
                        nodes,
                        pivots,
                        phase1_skips,
                    };
                }
            }
            Some((j, x, _frac)) => {
                let var = VarId(j);
                let branch = Rc::new(Branch {
                    bound: node.bound,
                    up: node.parent,
                    warm: engine.warm_start(sp, ws),
                });
                // Depth-first: push the "up" branch last so it is explored
                // first — for covering-style minimization problems (like the
                // paper's allocation) rounding up tends to reach feasibility
                // quickly and yields early incumbents for pruning.
                stack.push(Node {
                    bound: Some((var, Sense::Le, x.floor())),
                    parent: Some(Rc::clone(&branch)),
                });
                stack.push(Node {
                    bound: Some((var, Sense::Ge, x.ceil())),
                    parent: Some(branch),
                });
            }
        }
    }

    match incumbent {
        Some(mut sol) => {
            sol.stats = SolveStats {
                nodes,
                pivots,
                phase1_skips,
            };
            Ok(sol)
        }
        None if root_unbounded => Err(LpError::Unbounded),
        None => Err(LpError::Infeasible),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Objective, Problem, VarKind};
    use crate::simplex::solve_ilp as solve_dense;

    /// Brute-force reference for small integer problems over a box.
    fn brute_force_min(problem: &Problem, max_value: i64) -> Option<(f64, Vec<f64>)> {
        let n = problem.num_vars();
        let mut best: Option<(f64, Vec<f64>)> = None;
        let mut assignment = vec![0i64; n];
        loop {
            let xs: Vec<f64> = assignment.iter().map(|&v| v as f64).collect();
            if problem.is_feasible(&xs, 1e-9) {
                let obj = problem.objective_value(&xs);
                let better = match &best {
                    None => true,
                    Some((b, _)) => {
                        if problem.objective_sense() == Objective::Maximize {
                            obj > *b
                        } else {
                            obj < *b
                        }
                    }
                };
                if better {
                    best = Some((obj, xs));
                }
            }
            // increment mixed-radix counter
            let mut i = 0;
            loop {
                if i == n {
                    return best;
                }
                assignment[i] += 1;
                if assignment[i] > max_value {
                    assignment[i] = 0;
                    i += 1;
                } else {
                    break;
                }
            }
        }
    }

    #[test]
    fn matches_brute_force_on_covering_problem() {
        // A miniature version of the paper's allocation problem: choose
        // instance counts to cover workloads at minimum cost.
        let mut p = Problem::minimize();
        let small = p.add_var("small", VarKind::Integer, 0.0, Some(8.0), 0.026);
        let medium = p.add_var("medium", VarKind::Integer, 0.0, Some(8.0), 0.052);
        let large = p.add_var("large", VarKind::Integer, 0.0, Some(8.0), 0.104);
        p.add_constraint(
            "capacity",
            &[(small, 30.0), (medium, 60.0), (large, 90.0)],
            Sense::Ge,
            200.0,
        );
        p.add_constraint(
            "cc",
            &[(small, 1.0), (medium, 1.0), (large, 1.0)],
            Sense::Le,
            8.0,
        );
        let sol = p.solve().unwrap();
        let (bf_obj, _) = brute_force_min(&p, 8).unwrap();
        assert!(
            (sol.objective - bf_obj).abs() < 1e-9,
            "bb={} bf={}",
            sol.objective,
            bf_obj
        );
        assert!(p.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn respects_node_limit() {
        let mut p = Problem::minimize();
        let vars: Vec<_> = (0..6)
            .map(|i| {
                p.add_var(
                    format!("x{i}"),
                    VarKind::Integer,
                    0.0,
                    Some(50.0),
                    1.0 + i as f64,
                )
            })
            .collect();
        let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 7.0)).collect();
        p.add_constraint("c", &terms, Sense::Ge, 100.0);
        // Either an incumbent was found within one node or we get NodeLimit;
        // with one node no incumbent can exist unless the relaxation is integral.
        match p.compile().unwrap().with_max_nodes(1).solve_with_rhs(&[]) {
            Ok(sol) => assert!(p.is_feasible(&sol.values, 1e-6)),
            Err(LpError::NodeLimit { explored }) => assert_eq!(explored, 1),
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn mixed_integer_continuous() {
        // min 2x + y, x integer, y continuous, x + y >= 3.5, x <= 2
        // best: x = 2 (cost 4), y = 1.5 (cost 1.5) -> 5.5; or x=1,y=2.5 -> 4.5; x=0,y=3.5 -> 3.5
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Integer, 0.0, Some(2.0), 2.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, None, 1.0);
        p.add_constraint("c", &[(x, 1.0), (y, 1.0)], Sense::Ge, 3.5);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 3.5).abs() < 1e-6);
        assert_eq!(sol.value_rounded(x), 0);
    }

    #[test]
    fn all_integer_infeasible() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Integer, 0.0, Some(3.0), 1.0);
        p.add_constraint("lo", &[(x, 2.0)], Sense::Ge, 100.0);
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn integer_unbounded() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Integer, 0.0, None, 1.0);
        p.add_constraint("c", &[(x, 1.0)], Sense::Ge, 0.0);
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    use crate::test_rng::XorShift;

    /// A random covering ILP (the allocation shape): integer types under a
    /// cover row and an instance cap. `fractional` leaves capacities (to 40)
    /// and demand unrounded, prices from a cent, bounds types by the cap.
    fn random_covering(rng: &mut XorShift, fractional: bool) -> Problem {
        let round = |x: f64| if fractional { x } else { x.round() };
        let (types, min_price, max_capacity, max_demand, cc) = if fractional {
            (3, 0.01, 40.0, 150.0, (2.5, 7.5))
        } else {
            (4, 0.05, 12.0, 60.0, (2.0, 10.0))
        };
        let n = 2 + rng.below(types);
        let prices: Vec<f64> = (0..n).map(|_| rng.uniform(min_price, 2.0)).collect();
        let capacities: Vec<f64> = (0..n)
            .map(|_| round(rng.uniform(1.0, max_capacity)))
            .collect();
        let demand = round(rng.uniform(1.0, max_demand));
        let cc = rng.uniform(cc.0, cc.1).round();
        let upper = if fractional { cc } else { 8.0 };
        let mut p = Problem::minimize();
        let vars: Vec<VarId> = prices
            .iter()
            .map(|&price| p.add_var("x", VarKind::Integer, 0.0, Some(upper), price))
            .collect();
        let cover: Vec<(VarId, f64)> = vars.iter().copied().zip(capacities).collect();
        p.add_constraint("cover", &cover, Sense::Ge, demand);
        let count: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint("cc", &count, Sense::Le, cc);
        p
    }

    #[test]
    fn warm_started_backend_matches_dense_cold_backend() {
        // The revised warm-started search and the dense cold search must
        // agree on the optimal objective and on infeasibility, every time,
        // and a revised search that branches must warm-start.
        let mut rng = XorShift(0xA076_1D64_78BD_642F);
        for fractional in [false, true] {
            let (mut warm_runs, mut branched) = (0usize, 0usize);
            for case in 0..60 {
                let p = random_covering(&mut rng, fractional);
                let (revised, dense) = (p.solve(), solve_dense(&p));
                match (revised, dense) {
                    (Ok(r), Ok(d)) => {
                        assert!(
                            (r.objective - d.objective).abs() < 1e-6,
                            "case {case}: revised {} vs dense {}",
                            r.objective,
                            d.objective
                        );
                        assert!(p.is_feasible(&r.values, 1e-6), "case {case}");
                        assert_eq!(d.stats.phase1_skips, 0, "dense never warm-starts");
                        warm_runs += usize::from(r.stats.phase1_skips > 0);
                        branched += usize::from(r.stats.nodes > 1);
                    }
                    (Err(re), Err(de)) => assert_eq!(re, de, "case {case}"),
                    (r, d) => panic!("case {case}: revised {r:?} vs dense {d:?}"),
                }
            }
            assert!(
                warm_runs > 10 && warm_runs == branched,
                "branching cases must warm-start: {warm_runs} of {branched}"
            );
        }
    }

    #[test]
    fn warm_starts_skip_phase_one_on_branching_problems() {
        // a problem that must branch: every explored child re-enters from
        // its parent's basis without phase 1
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Integer, 0.0, Some(10.0), 1.0);
        let y = p.add_var("y", VarKind::Integer, 0.0, Some(10.0), 1.3);
        p.add_constraint("c", &[(x, 2.0), (y, 3.0)], Sense::Ge, 12.5);
        let sol = p.solve().unwrap();
        assert!(sol.stats.nodes > 1, "the relaxation is fractional");
        // every non-root *optimal* node warm-starts (infeasible children
        // count as nodes but not as skips)
        assert!(
            sol.stats.phase1_skips >= 1 && sol.stats.phase1_skips < sol.stats.nodes,
            "warm starts expected: {:?}",
            sol.stats
        );
        let dense = solve_dense(&p).unwrap();
        assert!((sol.objective - dense.objective).abs() < 1e-9);
        assert_eq!(sol.values, dense.values, "same incumbent on this problem");
    }

    #[test]
    fn maximization_knapsack_matches_brute_force() {
        let mut p = Problem::maximize();
        let a = p.add_var("a", VarKind::Integer, 0.0, Some(5.0), 10.0);
        let b = p.add_var("b", VarKind::Integer, 0.0, Some(5.0), 13.0);
        let c = p.add_var("c", VarKind::Integer, 0.0, Some(5.0), 7.0);
        p.add_constraint("w", &[(a, 4.0), (b, 6.0), (c, 3.0)], Sense::Le, 11.0);
        let sol = p.solve().unwrap();
        let (bf, _) = brute_force_min(&p, 5).unwrap();
        assert!((sol.objective - bf).abs() < 1e-9);
    }

    /// The structure of a random covering ILP, apart from its right-hand
    /// sides: what a caller compiles once.
    struct Shape {
        /// `(kind, upper, cost)` per variable.
        vars: Vec<(VarKind, Option<f64>, f64)>,
        /// `(terms, sense)` per row.
        rows: Vec<(Vec<(usize, f64)>, Sense)>,
    }

    impl Shape {
        /// 2–12 columns under 1–6 rows (or none at all): covering rows
        /// (`>=`, so a positive demand starts in phase 1), instance-count
        /// caps (`<=`, the source of infeasibility) and, one catalogue in
        /// four, a single price for every column (ties under Bland's rule).
        fn random(rng: &mut XorShift, rows: usize) -> Self {
            let n = 2 + rng.below(11);
            let equal_price = rng.below(4) == 0;
            let vars = (0..n)
                .map(|_| {
                    let kind = if rng.below(5) == 0 {
                        VarKind::Continuous
                    } else {
                        VarKind::Integer
                    };
                    let upper = (rng.below(6) != 0).then(|| 2.0 + rng.below(9) as f64);
                    let cost = if equal_price {
                        1.0
                    } else {
                        rng.uniform(0.05, 3.0)
                    };
                    (kind, upper, cost)
                })
                .collect();
            let rows = (0..rows)
                .map(|_| {
                    let cover = rng.below(3) != 0;
                    let terms = (0..n)
                        .filter_map(|j| {
                            let a = if cover {
                                rng.uniform(1.0, 12.0).round()
                            } else {
                                1.0
                            };
                            (rng.below(3) != 0).then_some((j, a))
                        })
                        .collect();
                    (terms, if cover { Sense::Ge } else { Sense::Le })
                })
                .collect();
            Self { vars, rows }
        }

        /// Right-hand sides for the rows: demands to cover, caps to respect.
        fn random_rhs(&self, rng: &mut XorShift) -> Vec<f64> {
            self.rows
                .iter()
                .map(|(_, sense)| match sense {
                    Sense::Ge => rng.uniform(0.0, 70.0).round(),
                    _ => rng.uniform(1.0, 14.0).round(),
                })
                .collect()
        }

        fn problem(&self, rhs: &[f64]) -> Problem {
            let mut p = Problem::minimize();
            let ids: Vec<VarId> = self
                .vars
                .iter()
                .enumerate()
                .map(|(j, &(kind, upper, cost))| p.add_var(format!("x{j}"), kind, 0.0, upper, cost))
                .collect();
            for (r, ((terms, sense), &rhs)) in self.rows.iter().zip(rhs).enumerate() {
                let terms: Vec<(VarId, f64)> = terms.iter().map(|&(j, a)| (ids[j], a)).collect();
                p.add_constraint(format!("r{r}"), &terms, *sense, rhs);
            }
            p
        }
    }

    /// `problem` solved alone: compiled afresh, in a workspace of its own.
    fn alone(problem: &Problem, budget: usize) -> Result<Solution, LpError> {
        problem
            .compile()?
            .with_max_iterations(budget)
            .solve_with_rhs(&[])
    }

    fn assert_same(
        shared: &Result<Solution, LpError>,
        alone: &Result<Solution, LpError>,
        what: &str,
    ) {
        match (shared, alone) {
            (Ok(s), Ok(a)) => {
                let bits =
                    |sol: &Solution| sol.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(s), bits(a), "{what}: values");
                assert_eq!(s.objective.to_bits(), a.objective.to_bits(), "{what}");
                assert_eq!(s.stats, a.stats, "{what}");
            }
            (Err(s), Err(a)) => assert_eq!(s, a, "{what}"),
            (s, a) => panic!("{what}: shared {s:?} vs alone {a:?}"),
        }
    }

    #[test]
    fn one_workspace_serves_problems_of_every_shape_without_leaking_state() {
        // Problems of different shapes solved back to back through ONE
        // workspace, each structure compiled once and re-solved under
        // successively replaced right-hand sides: every outcome — values,
        // objective bits, node / pivot / skip counts, errors — must be the
        // one the same problem gives when built, compiled and solved alone.
        let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
        let mut ws = Workspace::default();
        let (mut optimal, mut infeasible, mut branched, mut phase1, mut limited) = (0, 0, 0, 0, 0);
        for case in 0..160 {
            // an unconstrained problem every eighth case, between two
            // constrained ones
            let rows = if case % 8 == 3 { 0 } else { 1 + rng.below(6) };
            let shape = Shape::random(&mut rng, rows);
            // one case in five runs on a pivot budget small enough to stall
            // warm re-entries into their cold fallback, or to fail outright
            let budget = if rng.below(5) == 0 {
                1 + rng.below(12)
            } else {
                20_000
            };
            let base = shape.random_rhs(&mut rng);
            let compiled = shape
                .problem(&base)
                .compile()
                .expect("valid")
                .with_max_iterations(budget);
            for round in 0..4 {
                // a random subset of the rows replaced, the others as compiled
                let mut rhs = base.clone();
                let mut replaced = Vec::new();
                for (row, value) in shape.random_rhs(&mut rng).into_iter().enumerate() {
                    if rng.below(3) != 0 {
                        rhs[row] = value;
                        replaced.push((row, value));
                    }
                }
                let shared = solve(&compiled, &replaced, &mut ws);
                let alone = alone(&shape.problem(&rhs), budget);
                assert_same(&shared, &alone, &format!("case {case} round {round}"));
                match &alone {
                    Ok(sol) => {
                        optimal += 1;
                        branched += usize::from(sol.stats.nodes > 1);
                        phase1 += usize::from(sol.stats.pivots > 0);
                    }
                    Err(LpError::Infeasible) => infeasible += 1,
                    Err(LpError::IterationLimit) => limited += 1,
                    Err(other) => panic!("case {case} round {round}: {other}"),
                }
            }
        }
        assert!(
            optimal > 200 && infeasible > 40 && branched > 60 && phase1 > 100 && limited > 5,
            "the sweep must reach every regime: {optimal} optimal, {infeasible} infeasible, \
             {branched} branched, {phase1} pivoted, {limited} out of budget"
        );
    }

    #[test]
    fn an_infeasible_right_hand_side_leaves_nothing_behind() {
        // min x + 1.3 y, 2x + 3y >= demand, x + y <= 4: a demand the cap
        // cannot cover, then one it can, through the same workspace
        let build = |demand: f64| {
            let mut p = Problem::minimize();
            let x = p.add_var("x", VarKind::Integer, 0.0, Some(10.0), 1.0);
            let y = p.add_var("y", VarKind::Integer, 0.0, Some(10.0), 1.3);
            p.add_constraint("cover", &[(x, 2.0), (y, 3.0)], Sense::Ge, demand);
            p.add_constraint("cap", &[(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
            p
        };
        let compiled = build(0.0).compile().unwrap();
        let mut ws = Workspace::default();
        for demand in [100.0, 10.5, 13.0, 0.0, 11.5] {
            let shared = solve(&compiled, &[(0, demand)], &mut ws);
            assert_eq!(shared.is_err(), demand > 12.0, "demand {demand}");
            assert_same(&shared, &build(demand).solve(), &format!("demand {demand}"));
        }
        assert_eq!(
            compiled.solve_with_rhs(&[(2, 1.0)]),
            Err(LpError::UnknownRow { index: 2 })
        );
        assert!(matches!(
            compiled.solve_with_rhs(&[(0, f64::NAN)]),
            Err(LpError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn a_stalled_warm_re_entry_restarts_cold_in_the_same_workspace() {
        // max x, 2x <= 5, x integer in [0, 10], two iterations per attempt:
        // the root pivots once and checks; the `x <= 2` child re-enters warm,
        // pivots once, checks, and has no iteration left for its polish, so
        // it restarts cold (one bound flip, one check) on a fresh budget
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Integer, 0.0, Some(10.0), 1.0);
        p.add_constraint("c", &[(x, 2.0)], Sense::Le, 5.0);
        let stalled = alone(&p, 2).unwrap();
        assert_eq!(stalled.values, [2.0]);
        assert_eq!(
            stalled.stats,
            SolveStats {
                nodes: 3,
                // the root's pivot; the warm attempt's is discarded with it
                pivots: 1,
                phase1_skips: 0
            },
            "the child that reached the optimum did so cold"
        );
        assert_eq!(
            p.solve().unwrap().stats.phase1_skips,
            1,
            "and warm otherwise"
        );

        // the same through a workspace another problem has just used, and
        // that problem again afterwards
        let mut q = Problem::minimize();
        let a = q.add_var("a", VarKind::Integer, 0.0, Some(10.0), 1.0);
        let b = q.add_var("b", VarKind::Integer, 0.0, Some(10.0), 1.3);
        q.add_constraint("c", &[(a, 2.0), (b, 3.0)], Sense::Ge, 12.5);
        q.add_constraint("cc", &[(a, 1.0), (b, 1.0)], Sense::Le, 8.0);
        let (sp, sq) = (
            p.compile().unwrap().with_max_iterations(2),
            q.compile().unwrap(),
        );
        let mut ws = Workspace::default();
        assert_same(&solve(&sq, &[], &mut ws), &q.solve(), "q");
        assert_same(&solve(&sp, &[], &mut ws), &Ok(stalled), "stalled p");
        assert_same(&solve(&sq, &[], &mut ws), &q.solve(), "q");
    }
}
