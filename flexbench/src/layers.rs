//! Layer probes: each times calls into one crate's public functions on
//! fixed inputs derived from the seed. Every traced run makes all of
//! them, so every per-layer host-time figure is measured in every
//! workload's traced run; the counters come from the workload itself.

use std::collections::BTreeMap;
use std::hint::black_box;

use flex_chaos::oracle;
use flex_chaos::scenario;
use flex_milp::simplex;
use flex_obs::Obs;
use flex_online::policy::{decide, DecisionInput, PolicyConfig};
use flex_online::ImpactRegistry;
use flex_power::meter::GroundTruth;
use flex_power::{FeedState, UpsId, Watts};
use flex_sim::rng::RngPool;
use flex_sim::{Ctx, Sim, SimDuration, SimTime};
use flex_telemetry::{Pipeline, PipelineConfig};
use flex_workload::impact::scenarios;

use crate::clock::timed;
use crate::report::Metrics;
use crate::stats::{mean, median, ratio};
use crate::{chaos_campaign, milp_exact, room_drill};

/// Events per `flex-sim` probe.
const SIM_EVENTS: u64 = 100_000;
/// Chaos scenarios the chaos, oracle and recorder probes judge.
const CHAOS_SCENARIOS: u64 = 64;
/// Repetitions of the room-scale probes; their median is reported.
const REPEATS: usize = 5;
/// Calls per room-scale micro-probe.
const CALLS: usize = 200;
/// Calls per Algorithm 1 probe: one decision over a paper-scale room
/// takes milliseconds.
const DECIDE_CALLS: usize = 10;
/// Models the MILP probes build and relax.
const MILP_MODELS: usize = 64;

/// Makes every probe and sets its metrics.
pub fn probe(seed: u64, m: &mut Metrics) {
    m.set("sim.event_ns", sim_event_ns());
    chaos(seed, m);
    room(seed, m);
    milp(seed, m);
}

/// `flex_sim::Sim` schedule-plus-step cost on a world that only counts.
fn sim_event_ns() -> f64 {
    fn tick(w: &mut u64, ctx: &mut Ctx<u64>) {
        *w += 1;
        if *w < SIM_EVENTS {
            ctx.schedule_in(SimDuration::from_millis(1), tick);
        }
    }
    let runs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let mut sim = Sim::new(0u64);
            sim.schedule_at(SimTime::ZERO, tick);
            let (events, ms) = timed(|| sim.run_until_idle());
            ms * 1e6 / events.max(1) as f64
        })
        .collect();
    median(&runs)
}

/// Scenario generation, `run_scenario`, the oracle, and the recorder's
/// cost and event count on the first scenarios of the seed's campaign.
fn chaos(seed: u64, m: &mut Metrics) {
    let (pool, gen_ms) = timed(|| chaos_campaign::generate_pool(seed, CHAOS_SCENARIOS));
    let mut run_ms = Vec::new();
    let mut oracle_ms = Vec::new();
    let mut recording_ms = 0.0;
    let mut noop_ms = 0.0;
    let mut events = 0u64;
    for (i, s) in pool.iter().enumerate() {
        let noop = |noop_ms: &mut f64| {
            let (v, ms) = timed(|| oracle::check(&scenario::run_scenario_obs(s, &Obs::noop())));
            black_box(v);
            *noop_ms += ms;
        };
        // Alternate which variant runs first, so neither always finds
        // the caches warm.
        if i % 2 == 1 {
            noop(&mut noop_ms);
        }
        let obs = Obs::recording();
        let (out, run) = timed(|| scenario::run_scenario_obs(s, &obs));
        let (v, check) = timed(|| oracle::check(&out));
        black_box(v);
        run_ms.push(run);
        oracle_ms.push(check);
        recording_ms += run + check;
        let dump = obs.dump();
        events += dump.events.len() as u64 + dump.dropped;
        if i % 2 == 0 {
            noop(&mut noop_ms);
        }
    }
    let n = pool.len() as f64;
    m.set("chaos.generate_us", ratio(gen_ms * 1e3, n));
    m.set("chaos.run_scenario_ms", mean(&run_ms));
    m.set("chaos.oracle_us", mean(&oracle_ms) * 1e3);
    m.set("obs.recorder_overhead", ratio(recording_ms, noop_ms));
    m.set("obs.flight_events", ratio(events as f64, n));
}

/// The median of `REPEATS` runs of `f`, in the unit `f` returns.
fn repeat(mut f: impl FnMut() -> f64) -> f64 {
    let runs: Vec<f64> = (0..REPEATS).map(|_| f()).collect();
    median(&runs)
}

/// Mean microseconds per call of `f` over `calls` calls.
fn per_call_us<T>(calls: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let ((), ms) = timed(|| {
        for i in 0..calls {
            black_box(f(i));
        }
    });
    ms * 1e3 / calls as f64
}

/// Set-up steps, simulator construction and quiet running, Algorithm 1,
/// load computation and telemetry polls on the first drill room.
fn room(seed: u64, m: &mut Metrics) {
    let mut times = Vec::new();
    for _ in 0..REPEATS {
        times.push(room_drill::room_inputs_timed(seed, 0).1);
    }
    m.set(
        "workload.trace_ms",
        median(&times.iter().map(|t| t.trace_ms).collect::<Vec<_>>()),
    );
    m.set(
        "placement.place_ms",
        median(&times.iter().map(|t| t.place_ms).collect::<Vec<_>>()),
    );
    m.set(
        "placement.materialize_ms",
        median(&times.iter().map(|t| t.materialize_ms).collect::<Vec<_>>()),
    );

    let (inputs, _) = room_drill::room_inputs_timed(seed, 0);
    m.set(
        "online.roomsim_new_ms",
        repeat(|| timed(|| room_drill::room_sim(&inputs, &Obs::noop())).1),
    );
    let warm = SimTime::from_secs_f64(room_drill::WARMUP_S);
    let quiet_s = 60.0;
    m.set(
        "online.quiet_ms_per_sim_s",
        repeat(|| {
            let mut sim = room_drill::room_sim(&inputs, &Obs::noop());
            sim.run_until(warm);
            let until = SimTime::from_secs_f64(room_drill::WARMUP_S + quiet_s);
            timed(|| sim.run_until(until)).1 / quiet_s
        }),
    );

    // The snapshot Algorithm 1 sees right after UPS 0 fails.
    let placed = &inputs.placed;
    let draws: Vec<Watts> = placed
        .racks()
        .iter()
        .map(|r| r.provisioned * room_drill::UTIL)
        .collect();
    let topo = placed.room().topology();
    let feed = FeedState::with_failed(topo, [UpsId(0)]);
    let loads = placed.ups_loads(&draws, &feed);
    let ups_power: Vec<Watts> = topo.ups_ids().into_iter().map(|u| loads.load(u)).collect();
    let registry = ImpactRegistry::from_scenario(
        placed.racks().iter().map(|r| (r.deployment, r.category)),
        &scenarios::realistic_1(),
    );
    let input = DecisionInput {
        topology: topo,
        racks: placed.racks(),
        rack_power: &draws,
        ups_power: &ups_power,
    };
    let prior = BTreeMap::new();
    let policy = PolicyConfig::default();
    m.set(
        "online.decide_us",
        repeat(|| {
            per_call_us(DECIDE_CALLS, |_| {
                decide(&input, &prior, &registry, &policy).map(|o| o.actions.len())
            })
        }),
    );
    m.set(
        "power.ups_loads_us",
        repeat(|| per_call_us(CALLS, |_| placed.ups_loads(&draws, &feed))),
    );

    let truth = GroundTruth::from_loads(loads);
    let config = PipelineConfig::production();
    let pool = RngPool::new(seed);
    m.set(
        "telemetry.ups_poll_us",
        repeat(|| {
            let mut pipeline = Pipeline::new(config.clone(), topo.ups_count(), draws.len(), &pool);
            let step = config.ups_poll_interval;
            per_call_us(CALLS, |i| {
                pipeline.poll_upses(SimTime::ZERO + step * i as u64, &truth)
            })
        }),
    );
    m.set(
        "telemetry.rack_poll_us",
        repeat(|| {
            let mut pipeline = Pipeline::new(config.clone(), topo.ups_count(), draws.len(), &pool);
            let step = config.rack_poll_interval;
            per_call_us(CALLS, |i| {
                pipeline.poll_racks(SimTime::ZERO + step * i as u64, &draws)
            })
        }),
    );
}

/// Model construction and the root LP relaxation of the first pool
/// models.
fn milp(seed: u64, m: &mut Metrics) {
    let mut build_ms = Vec::new();
    let mut root_ms = Vec::new();
    for i in 0..MILP_MODELS {
        let instance = milp_exact::Instance::generate(seed, i);
        let (model, ms) = timed(|| instance.model());
        build_ms.push(ms);
        let Ok(model) = model else { continue };
        let bounds = vec![(0.0, 1.0); model.var_count()];
        let (relaxation, ms) = timed(|| simplex::solve_relaxation(&model, &bounds));
        black_box(relaxation.ok());
        root_ms.push(ms);
    }
    m.set("milp.build_ms", mean(&build_ms));
    m.set("milp.root_lp_ms", mean(&root_ms));
}
