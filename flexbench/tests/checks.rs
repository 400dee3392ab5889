//! Every output check can fail: a corrupted output makes the run count
//! the operation as failed.

use flex_chaos::{oracle, scenario};
use flex_obs::Obs;
use flex_online::RackPowerState;
use flex_power::Watts;
use flexbench::chaos_campaign::{generate_pool, ScenarioOutput};
use flexbench::milp_exact::{solve_config, Instance, SolveOutput};
use flexbench::report::Tally;
use flexbench::room_drill::{room_inputs_timed, Room};

/// Records the clean output, then the corrupted one; asserts exactly the
/// second failed.
fn clean_then_corrupt(clean: Result<(), String>, corrupt: Result<(), String>) -> Tally {
    let mut tally = Tally::default();
    tally.record(clean);
    assert_eq!(
        tally.failed, 0,
        "clean output rejected: {:?}",
        tally.messages
    );
    tally.record(corrupt);
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    tally
}

fn chaos_output() -> ScenarioOutput {
    let s = &generate_pool(7, 1)[0];
    let out = scenario::run_scenario_obs(s, &Obs::recording());
    let violations = oracle::check(&out);
    ScenarioOutput::of(&out, &violations)
}

#[test]
fn knapsack_objective_off_by_one_fails() {
    let instance = Instance::generate(3, 0);
    assert!(matches!(instance, Instance::Knapsack(_)));
    let model = instance.model().expect("generated model builds");
    let solution = model.solve(&solve_config());
    let out = SolveOutput { solution, ms: 1.0 };
    let optimum = instance.optimum();
    let mut bad = out.clone();
    if let Ok(sol) = &mut bad.solution {
        sol.objective += 1.0;
    }
    clean_then_corrupt(
        out.verify(&instance, optimum, None),
        bad.verify(&instance, optimum, None),
    );
}

#[test]
fn assignment_vector_breaking_a_row_fails() {
    let instance = Instance::generate(3, 5);
    assert!(matches!(instance, Instance::Assignment(_)));
    let model = instance.model().expect("generated model builds");
    let out = SolveOutput {
        solution: model.solve(&solve_config()),
        ms: 1.0,
    };
    let optimum = instance.optimum();
    let mut bad = out.clone();
    if let Ok(sol) = &mut bad.solution {
        // Place every deployment on every pair at once.
        sol.values.iter_mut().for_each(|v| *v = 1.0);
    }
    clean_then_corrupt(
        out.verify(&instance, optimum, None),
        bad.verify(&instance, optimum, None),
    );
}

#[test]
fn ups_load_off_by_one_kw_fails() {
    let out = chaos_output();
    let mut bad = out.clone();
    bad.power.reported[0] += Watts::from_kw(1.0);
    clean_then_corrupt(out.verify(), bad.verify());
}

#[test]
fn oracle_violation_fails() {
    let out = chaos_output();
    let mut bad = out.clone();
    bad.violations.push("unexcused-trip: injected".to_string());
    clean_then_corrupt(out.verify(), bad.verify());
}

#[test]
fn rack_left_off_after_its_restore_window_fails() {
    let (inputs, _) = room_inputs_timed(5, 0);
    let mut room = Room::new(&inputs, &Obs::noop());
    let (out, _) = room.episode(0);
    let mut bad = out.clone();
    bad.rack_states[0] = RackPowerState::Off;
    clean_then_corrupt(out.verify(), bad.verify());
}
