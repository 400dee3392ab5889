//! The repository's benchmark: one workload per run, a fixed host-time
//! budget, seeded inputs, output checks that share no code with the
//! program, and one JSON line of metrics at the end.
//!
//! See `README.md` for the workloads, the metrics and what each
//! per-layer figure should move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos_campaign;
pub mod clock;
pub mod des;
pub mod layers;
pub mod milp_exact;
pub mod pace;
pub mod report;
pub mod room_drill;
pub mod stats;
pub mod verify;

use report::RunResult;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPEATS: usize = 15;

/// The workloads, by the names the command line takes.
pub const WORKLOADS: [&str; 3] = ["chaos-campaign", "room-drill", "milp-exact"];

/// One run's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Host seconds to measure for; runs end on a whole round.
    pub seconds: f64,
    /// Traced run: print the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
}

/// Runs one workload by name; `None` for an unknown name.
pub fn run(workload: &str, cfg: &RunConfig) -> Option<RunResult> {
    match workload {
        "chaos-campaign" => Some(chaos_campaign::run(cfg)),
        "room-drill" => Some(room_drill::run(cfg)),
        "milp-exact" => Some(milp_exact::run(cfg)),
        _ => None,
    }
}
