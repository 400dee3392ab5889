//! Output checks that share no code with the program under test.
//!
//! Each check takes plain data extracted from the program's outputs and
//! recomputes the expected answer on its own: UPS loads from rack draws
//! and the Section II-A transfer rules, knapsack optima by dynamic
//! programming, assignment optima by exhaustive enumeration.

use flex_power::Watts;

/// Tolerance between a recomputed and a reported UPS load.
pub const LOAD_TOL_W: f64 = 1.0;

/// Overload an in-service UPS may carry at a check instant, as a share of
/// capacity: the first point of the end-of-life trip curve (102% for
/// 600 s). Algorithm 1 sheds to 2% under capacity, but demand drifts and
/// meter noise move the load between decisions, and during a failover the
/// controllers restore racks up to the limit, so the load rides it; a
/// hardened chaos run (seed 43, scenario 353) ends at 100.04%.
pub const OVERLOAD_SLACK: f64 = 0.02;

/// Tolerance on MILP objectives and constraint rows.
pub const MILP_TOL: f64 = 1e-6;

/// The electrical state a UPS-load recomputation needs.
#[derive(Debug, Clone)]
pub struct RoomPower {
    /// The two UPSes feeding each PDU pair (index = pair id).
    pub pair_upstream: Vec<(usize, usize)>,
    /// Whether each UPS is in service (index = UPS id).
    pub online: Vec<bool>,
    /// Rated capacity of each UPS.
    pub capacity: Vec<Watts>,
    /// The PDU pair of each rack (index = rack id).
    pub rack_pair: Vec<usize>,
    /// Effective draw of each rack.
    pub rack_power: Vec<Watts>,
    /// The program's own per-UPS loads.
    pub reported: Vec<Watts>,
}

/// Recomputes per-UPS load: a pair with both feeds splits 50/50, a pair
/// with one feed puts everything on the survivor, a pair with none drops
/// its load.
pub fn recompute_ups_loads(p: &RoomPower) -> Vec<Watts> {
    let mut loads = vec![Watts::ZERO; p.online.len()];
    let on = |u: usize| p.online.get(u).copied().unwrap_or(false);
    for (&pair, &draw) in p.rack_pair.iter().zip(&p.rack_power) {
        let Some(&(a, b)) = p.pair_upstream.get(pair) else {
            continue;
        };
        match (on(a), on(b)) {
            (true, true) => {
                loads[a] += draw * 0.5;
                loads[b] += draw * 0.5;
            }
            (true, false) => loads[a] += draw,
            (false, true) => loads[b] += draw,
            (false, false) => {}
        }
    }
    loads
}

/// The recomputed loads match the reported ones within 1 W, and no
/// in-service UPS carries more than [`OVERLOAD_SLACK`] over its capacity.
pub fn check_ups_loads(p: &RoomPower) -> Result<(), String> {
    let expected = recompute_ups_loads(p);
    if expected.len() != p.reported.len() {
        return Err(format!(
            "{} UPS loads reported for {} UPSes",
            p.reported.len(),
            expected.len()
        ));
    }
    for (u, (want, got)) in expected.iter().zip(&p.reported).enumerate() {
        if (*want - *got).as_w().abs() > LOAD_TOL_W {
            return Err(format!("UPS {u} load {got} differs from recomputed {want}"));
        }
        let cap = p.capacity.get(u).copied().unwrap_or(Watts::ZERO);
        let limit = cap * (1.0 + OVERLOAD_SLACK);
        if p.online.get(u).copied().unwrap_or(false) && want.as_w() > limit.as_w() {
            return Err(format!(
                "in-service UPS {u} carries {want}, over its {cap} capacity plus slack"
            ));
        }
    }
    Ok(())
}

/// A seeded 0/1 knapsack with integer data.
#[derive(Debug, Clone, PartialEq)]
pub struct Knapsack {
    /// Item values.
    pub values: Vec<u64>,
    /// Item weights.
    pub weights: Vec<u64>,
    /// Weight capacity.
    pub capacity: u64,
}

impl Knapsack {
    /// The optimum by dynamic programming over capacity.
    pub fn optimum(&self) -> u64 {
        let cap = usize::try_from(self.capacity).unwrap_or(usize::MAX);
        let mut best = vec![0u64; cap + 1];
        for (&v, &w) in self.values.iter().zip(&self.weights) {
            let Ok(w) = usize::try_from(w) else { continue };
            for c in (w..=cap).rev() {
                best[c] = best[c].max(best[c - w] + v);
            }
        }
        best[cap]
    }

    /// Evaluates a returned vector: every entry binary, the capacity
    /// row satisfied; returns the objective.
    pub fn evaluate(&self, x: &[f64]) -> Result<f64, String> {
        if x.len() != self.values.len() {
            return Err(format!(
                "{} values for {} items",
                x.len(),
                self.values.len()
            ));
        }
        binary(x)?;
        let weight: f64 = x
            .iter()
            .zip(&self.weights)
            .map(|(xi, &w)| xi * w as f64)
            .sum();
        if weight > self.capacity as f64 + MILP_TOL {
            return Err(format!("weight {weight} over capacity {}", self.capacity));
        }
        Ok(x.iter()
            .zip(&self.values)
            .map(|(xi, &v)| xi * v as f64)
            .sum())
    }
}

/// A small Flex-Offline-shaped assignment: each deployment goes to at
/// most one PDU pair of a 3-UPS distributed-redundant room (Eq 1), each
/// pair has a power cap, and optionally every single-UPS failover keeps
/// each survivor under its capacity (Eq 4). The objective is placed
/// power.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Per-deployment power.
    pub power: Vec<u64>,
    /// Per-pair power cap.
    pub pair_cap: u64,
    /// Per-UPS failover capacity, when Eq 4 rows are present.
    pub ups_cap: Option<u64>,
}

/// The PDU pairs of the 3-UPS room, as `(ups, ups)`.
pub const PAIRS: [(usize, usize); 3] = [(0, 1), (1, 2), (0, 2)];

/// Share of pair `j`'s load that UPS `u` carries while UPS `f` is down.
pub fn failover_share(u: usize, f: usize, j: usize) -> f64 {
    let (a, b) = PAIRS[j];
    if (a == u && b == f) || (b == u && a == f) {
        1.0
    } else if a == u || b == u {
        0.5
    } else {
        0.0
    }
}

impl Assignment {
    /// Checks per-pair loads against every row; returns placed power.
    fn feasible(&self, pair_load: &[f64; 3]) -> bool {
        if pair_load
            .iter()
            .any(|&l| l > self.pair_cap as f64 + MILP_TOL)
        {
            return false;
        }
        let Some(cap) = self.ups_cap else {
            return true;
        };
        (0..3).all(|f| {
            (0..3).filter(|&u| u != f).all(|u| {
                let load: f64 = (0..3).map(|j| failover_share(u, f, j) * pair_load[j]).sum();
                load <= cap as f64 + MILP_TOL
            })
        })
    }

    /// The optimum by enumerating all `4^n` choices (unplaced or one of
    /// three pairs per deployment).
    pub fn optimum(&self) -> u64 {
        fn go(a: &Assignment, i: usize, loads: &mut [f64; 3], placed: u64, best: &mut u64) {
            if i == a.power.len() {
                if a.feasible(loads) {
                    *best = (*best).max(placed);
                }
                return;
            }
            go(a, i + 1, loads, placed, best);
            let p = a.power[i];
            for j in 0..3 {
                loads[j] += p as f64;
                if loads[j] <= a.pair_cap as f64 + MILP_TOL {
                    go(a, i + 1, loads, placed + p, best);
                }
                loads[j] -= p as f64;
            }
        }
        let mut best = 0;
        go(self, 0, &mut [0.0; 3], 0, &mut best);
        best
    }

    /// Evaluates a returned vector laid out deployment-major
    /// (`x[i * 3 + j]`): every entry binary, each deployment placed at
    /// most once, every pair and failover row satisfied; returns the
    /// objective.
    pub fn evaluate(&self, x: &[f64]) -> Result<f64, String> {
        if x.len() != self.power.len() * 3 {
            return Err(format!(
                "{} values for {} deployments",
                x.len(),
                self.power.len()
            ));
        }
        binary(x)?;
        let mut loads = [0.0; 3];
        let mut placed = 0.0;
        for (i, row) in x.chunks(3).enumerate() {
            let once: f64 = row.iter().sum();
            if once > 1.0 + MILP_TOL {
                return Err(format!("deployment {i} placed {once} times"));
            }
            let p = self.power[i] as f64;
            for (j, xij) in row.iter().enumerate() {
                loads[j] += xij * p;
                placed += xij * p;
            }
        }
        if !self.feasible(&loads) {
            return Err(format!(
                "pair loads {loads:?} break a capacity or failover row"
            ));
        }
        Ok(placed)
    }
}

fn binary(x: &[f64]) -> Result<(), String> {
    match x
        .iter()
        .position(|v| v.abs() > MILP_TOL && (v - 1.0).abs() > MILP_TOL)
    {
        Some(i) => Err(format!("value {i} = {} is not binary", x[i])),
        None => Ok(()),
    }
}

/// A reported objective agrees with the independent optimum and with the
/// benchmark's own evaluation of the returned vector.
pub fn check_objective(reported: f64, evaluated: f64, optimum: u64) -> Result<(), String> {
    if (reported - evaluated).abs() > MILP_TOL {
        return Err(format!(
            "reported objective {reported} but the returned vector evaluates to {evaluated}"
        ));
    }
    if (reported - optimum as f64).abs() > MILP_TOL {
        return Err(format!(
            "objective {reported} differs from the independent optimum {optimum}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack_dp_matches_hand_solution() {
        let k = Knapsack {
            values: vec![60, 100, 120],
            weights: vec![10, 20, 30],
            capacity: 50,
        };
        assert_eq!(k.optimum(), 220);
        assert_eq!(k.evaluate(&[0.0, 1.0, 1.0]), Ok(220.0));
        assert!(k.evaluate(&[1.0, 1.0, 1.0]).is_err());
        assert!(k.evaluate(&[0.5, 1.0, 1.0]).is_err());
    }

    #[test]
    fn assignment_enumeration_respects_failover_rows() {
        let free = Assignment {
            power: vec![10, 10, 10],
            pair_cap: 10,
            ups_cap: None,
        };
        assert_eq!(free.optimum(), 30);
        // Any two pairs share a UPS. When the other UPS of one of them
        // fails, the shared UPS carries that pair in full and half of
        // the other: 15 for two deployments on two pairs.
        let tight = Assignment {
            ups_cap: Some(14),
            ..free.clone()
        };
        assert_eq!(tight.optimum(), 10);
        let loose = Assignment {
            ups_cap: Some(15),
            ..free
        };
        assert_eq!(loose.optimum(), 30);
    }

    #[test]
    fn transfer_rules_split_carry_and_drop() {
        let p = RoomPower {
            pair_upstream: vec![(0, 1), (1, 2)],
            online: vec![true, false, false],
            capacity: vec![Watts::from_kw(10.0); 3],
            rack_pair: vec![0, 1],
            rack_power: vec![Watts::from_kw(4.0), Watts::from_kw(2.0)],
            reported: vec![Watts::from_kw(4.0), Watts::ZERO, Watts::ZERO],
        };
        let loads = recompute_ups_loads(&p);
        assert!((loads[0] - Watts::from_kw(4.0)).as_w().abs() < 1e-9);
        assert!(check_ups_loads(&p).is_ok());
    }
}
