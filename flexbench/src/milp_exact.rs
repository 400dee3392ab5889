//! `milp-exact`: seeded 0/1 knapsacks and small assignment ILPs shaped
//! like the Flex-Offline ILP (Eq 1 once-rows, per-pair capacity rows and,
//! for half of them, Eq 4 failover rows), each solved to proven
//! optimality on one deterministic thread with warm-started node LPs.
//!
//! The only workload that reaches the simplex and branch-and-bound; it
//! bypasses the DES entirely. Flex-Offline placement itself is left out:
//! its solves stop on a wall-clock limit with a worker pool sized by core
//! count, so their time measures the limit rather than the code.

use std::time::Duration;

use flex_milp::{MilpError, MilpSolution, Model, Relation, Sense, SolveConfig, SolveStatus};
use flex_obs::Obs;
use flex_sim::rng::RngPool;
use rand::Rng;

use crate::clock::Stopwatch;
use crate::pace::paced;
use crate::report::{Metrics, OpTimes, RunResult, Tally, Timings, PER_LAYER};
use crate::verify::{self, failover_share, Assignment, Knapsack, PAIRS};
use crate::{layers, stats, RunConfig, SETUP_REPEATS};

/// Models built at set-up. A round solves every one of them once.
pub const POOL: usize = 1024;
/// Knapsack item counts of the first four shapes.
pub const KNAPSACK_ITEMS: [usize; 4] = [24, 32, 40, 48];
/// Deployment counts of the assignment shapes, each once without and
/// once with failover rows.
pub const ASSIGNMENT_DEPLOYMENTS: [usize; 2] = [6, 7];

/// The solver settings: deterministic, warm-started, and with a time
/// limit and node cap far beyond what any pool instance needs, so a
/// solve that hits either is a failure.
pub fn solve_config() -> SolveConfig {
    SolveConfig {
        time_limit: Duration::from_secs(60),
        max_nodes: 200_000,
        threads: 1,
        warm_lp: true,
        ..SolveConfig::default()
    }
}

/// One pool instance.
#[derive(Debug, Clone, PartialEq)]
pub enum Instance {
    /// A 0/1 knapsack.
    Knapsack(Knapsack),
    /// A Flex-Offline-shaped assignment.
    Assignment(Assignment),
}

impl Instance {
    /// Instance `index` of a run: its shape cycles through the eight
    /// shapes, its data comes from the seed.
    pub fn generate(seed: u64, index: usize) -> Self {
        let mut rng = RngPool::new(seed).indexed_stream("milp-exact", index as u64);
        let shape = index % 8;
        if let Some(&n) = KNAPSACK_ITEMS.get(shape) {
            // Values track weights, which keeps the LP bound loose and
            // the search non-trivial.
            let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(10..100)).collect();
            let values = weights.iter().map(|w| w + rng.gen_range(0..20)).collect();
            let capacity = weights.iter().sum::<u64>() / 2;
            return Instance::Knapsack(Knapsack {
                values,
                weights,
                capacity,
            });
        }
        let d = ASSIGNMENT_DEPLOYMENTS[(shape - 4) / 2];
        let power: Vec<u64> = (0..d).map(|_| 10 * rng.gen_range(5..40)).collect();
        let total: u64 = power.iter().sum();
        Instance::Assignment(Assignment {
            power,
            pair_cap: total * 3 / 10,
            ups_cap: (shape % 2 == 1).then_some(total * 45 / 100),
        })
    }

    /// The flex-milp model of the instance.
    ///
    /// # Errors
    ///
    /// Propagates model-construction errors (none for generated data).
    pub fn model(&self) -> Result<Model, MilpError> {
        let mut m = Model::new(Sense::Maximize);
        match self {
            Instance::Knapsack(k) => {
                let x: Vec<_> = k
                    .values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| m.add_binary(format!("x{i}"), v as f64))
                    .collect();
                let row = x.iter().zip(&k.weights).map(|(&v, &w)| (v, w as f64));
                m.add_constraint("capacity", row, Relation::Le, k.capacity as f64)?;
            }
            Instance::Assignment(a) => {
                let x: Vec<Vec<_>> = a
                    .power
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        (0..PAIRS.len())
                            .map(|j| m.add_binary(format!("x{i}_{j}"), p as f64))
                            .collect()
                    })
                    .collect();
                for (i, row) in x.iter().enumerate() {
                    let once = row.iter().map(|&v| (v, 1.0));
                    m.add_constraint(format!("once{i}"), once, Relation::Le, 1.0)?;
                }
                for j in 0..PAIRS.len() {
                    let row = x.iter().zip(&a.power).map(|(xi, &p)| (xi[j], p as f64));
                    m.add_constraint(format!("pair{j}"), row, Relation::Le, a.pair_cap as f64)?;
                }
                if let Some(cap) = a.ups_cap {
                    for f in 0..3 {
                        for u in (0..3).filter(|&u| u != f) {
                            let row = (0..PAIRS.len()).flat_map(|j| {
                                let share = failover_share(u, f, j);
                                x.iter()
                                    .zip(&a.power)
                                    .map(move |(xi, &p)| (xi[j], share * p as f64))
                            });
                            m.add_constraint(
                                format!("failover{f}_{u}"),
                                row,
                                Relation::Le,
                                cap as f64,
                            )?;
                        }
                    }
                }
            }
        }
        Ok(m)
    }

    /// The independent optimum.
    pub fn optimum(&self) -> u64 {
        match self {
            Instance::Knapsack(k) => k.optimum(),
            Instance::Assignment(a) => a.optimum(),
        }
    }

    /// The benchmark's own evaluation of a returned vector.
    pub fn evaluate(&self, x: &[f64]) -> Result<f64, String> {
        match self {
            Instance::Knapsack(k) => k.evaluate(x),
            Instance::Assignment(a) => a.evaluate(x),
        }
    }
}

/// What one solve produced, in plain data for the checks.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutput {
    /// The program's result.
    pub solution: Result<MilpSolution, MilpError>,
    /// Paced milliseconds the solve took (see [`crate::pace`]).
    pub ms: f64,
}

/// The first solve of a pool model, which later solves must repeat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    /// Objective bits.
    pub objective: u64,
    /// Nodes explored.
    pub nodes: u64,
}

impl SolveOutput {
    /// The solve proved optimality within its limits, its vector passes
    /// the benchmark's own evaluation, its objective equals the
    /// independent optimum, and it repeats `first` when given.
    pub fn verify(
        &self,
        instance: &Instance,
        optimum: u64,
        first: Option<Fingerprint>,
    ) -> Result<(), String> {
        let sol = self
            .solution
            .as_ref()
            .map_err(|e| format!("solve failed: {e}"))?;
        let cfg = solve_config();
        if sol.status != SolveStatus::Optimal {
            return Err(format!("status {:?}, not proven optimal", sol.status));
        }
        if sol.nodes_explored >= cfg.max_nodes || self.ms >= cfg.time_limit.as_secs_f64() * 1e3 {
            return Err("the solve reached its node cap or time limit".to_string());
        }
        let evaluated = instance.evaluate(&sol.values)?;
        verify::check_objective(sol.objective, evaluated, optimum)?;
        match first {
            Some(f) if f != fingerprint(sol) => Err(format!(
                "a repeated solve gave {:?}, the first {f:?}",
                fingerprint(sol)
            )),
            _ => Ok(()),
        }
    }
}

/// Objective bits and node count of a solution.
pub fn fingerprint(sol: &MilpSolution) -> Fingerprint {
    Fingerprint {
        objective: sol.objective.to_bits(),
        nodes: sol.nodes_explored,
    }
}

/// One pool entry: the instance, its model, and what the benchmark
/// learns about it on first solve.
struct Entry {
    instance: Instance,
    model: Model,
    optimum: Option<u64>,
    first: Option<Fingerprint>,
}

fn build_pool(seed: u64) -> Vec<Entry> {
    (0..POOL)
        .filter_map(|i| {
            let instance = Instance::generate(seed, i);
            let model = instance.model().ok()?;
            Some(Entry {
                instance,
                model,
                optimum: None,
                first: None,
            })
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> RunResult {
    let mut timings = Timings::default();
    let mut pool = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (built, ms) = paced(|| build_pool(cfg.seed));
        pool = built;
        timings.setup_s.push(ms / 1e3);
    }
    let solve_cfg = solve_config();
    let mut tally = Tally::default();
    // Every generated model builds; a missing one is a failed operation.
    for _ in pool.len()..POOL {
        tally.record(Err("model construction failed".to_string()));
    }

    let obs = Obs::recording();
    let mut traced_ops = OpTimes::default();
    let mut pivots = 0u64;
    let mut solves = 0u64;
    let sw = Stopwatch::start();
    let mut round = 0;
    while round == 0 || sw.secs() < cfg.seconds {
        for (k, e) in pool.iter_mut().enumerate() {
            let (solution, ms) = paced(|| e.model.solve(&solve_cfg));
            timings.ops.record(k, ms);
            let out = SolveOutput { solution, ms };
            let optimum = *e.optimum.get_or_insert_with(|| e.instance.optimum());
            tally.record(out.verify(&e.instance, optimum, e.first));
            if let Ok(sol) = &out.solution {
                e.first.get_or_insert(fingerprint(sol));
            }
            if cfg.trace {
                let (traced, ms) = paced(|| e.model.solve_observed(&solve_cfg, &obs));
                traced_ops.record(k, ms);
                if let Ok(sol) = &traced {
                    pivots += sol.lp_iterations;
                    solves += 1;
                }
                tally.record(if traced == out.solution {
                    Ok(())
                } else {
                    Err(format!("model {k}: the observed solve differs"))
                });
            }
        }
        round += 1;
    }
    let correct = tally.failed == 0;

    let metrics = if cfg.trace {
        let mut m = Metrics::new(PER_LAYER);
        let c = obs.snapshot().counters;
        let count = |name: &str| c.get(name).copied().unwrap_or(0) as f64;
        let nodes = count("milp/nodes");
        let solves = solves as f64;
        m.set("milp.nodes", stats::ratio(nodes, solves));
        m.set("milp.pivots", stats::ratio(pivots as f64, solves));
        m.set("milp.pivots_per_node", stats::ratio(pivots as f64, nodes));
        // Nodes per solve at the median traced solve time.
        m.set(
            "milp.nodes_per_s",
            stats::ratio(nodes, solves) * traced_ops.per_s(),
        );
        let warm = count("milp/warm_starts");
        m.set(
            "milp.warm_ratio",
            stats::ratio(warm, warm + count("milp/cold_starts")),
        );
        m.set(
            "milp.relaxation_failures",
            stats::ratio(count("milp/relaxation_failures"), solves),
        );
        timings.traced(&mut m, &traced_ops);
        layers::probe(cfg.seed, &mut m);
        m
    } else {
        timings.end_to_end()
    };
    RunResult {
        correct,
        tally,
        metrics,
    }
}
