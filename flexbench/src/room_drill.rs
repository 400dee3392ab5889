//! `room-drill`: 32 paper-scale rooms (`RoomConfig::paper_placement_room`,
//! about 550–600 racks placed by `BalancedRoundRobin`), three
//! controllers, the recorder off and no injected faults. Each UPS in turn
//! fails and is restored; every episode runs until the restored racks are
//! back to normal.
//!
//! Per-rack work dominates each event: delivery fan-out, Algorithm 1
//! over hundreds of racks and load recomputation. The recorder and the
//! fault machinery are bypassed, and restores (with the 90 s restart
//! delay) exercise actuation differently from sheds.

use flex_obs::Obs;
use flex_online::sim::{DemandFn, RoomSim, RoomSimConfig, SimEvent};
use flex_online::{ImpactRegistry, RackPowerState};
use flex_placement::policies::BalancedRoundRobin;
use flex_placement::{PlacedRoom, PlacementPolicy, RoomConfig};
use flex_power::UpsId;
use flex_sim::rng::RngPool;
use flex_sim::stats::{Percentiles, TimeSeries};
use flex_sim::SimTime;
use flex_workload::impact::scenarios;
use flex_workload::trace::{TraceConfig, TraceGenerator};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::clock::{timed, Stopwatch};
use crate::des::{self, Counters};
use crate::pace::paced;
use crate::report::{Metrics, OpTimes, RunResult, Tally, Timings, PER_LAYER};
use crate::verify::{self, RoomPower};
use crate::{layers, stats, RunConfig, SETUP_REPEATS};

/// Rooms per run.
pub const ROOMS: u64 = 32;
/// Simulated seconds each room runs before its first failure.
pub const WARMUP_S: f64 = 30.0;
/// Simulated seconds between one episode's end and the next failure.
pub const QUIET_S: f64 = 10.0;
/// Simulated seconds a UPS stays failed.
pub const FAILED_S: f64 = 20.0;
/// Simulated seconds from a failure to the episode's end: the restore,
/// the controllers' 30 s restore hysteresis, the 90 s restart delay of
/// shut-down racks, and margin.
pub const EPISODE_S: f64 = 180.0;
/// Mean rack utilisation, drawn uniformly within ±2% every 5 s.
pub const UTIL: f64 = 0.85;

/// A room's simulator-independent recipe: what set-up builds before
/// `RoomSim::new`.
pub struct RoomInputs {
    /// The placed room.
    pub placed: PlacedRoom,
    /// The seed the room and its simulation derive from.
    pub seed: u64,
}

/// Host milliseconds of the three steps of [`room_inputs_timed`].
#[derive(Debug, Clone, Copy)]
pub struct InputTimes {
    /// `TraceGenerator::generate`.
    pub trace_ms: f64,
    /// `BalancedRoundRobin::place`.
    pub place_ms: f64,
    /// `PlacedRoom::materialize`.
    pub materialize_ms: f64,
}

/// Generates the trace, places it and materialises the racks of room
/// `index` of a run, timing each step.
pub fn room_inputs_timed(seed: u64, index: u64) -> (RoomInputs, InputTimes) {
    let mut rng = RngPool::new(seed).indexed_stream("room-drill", index);
    let room_seed = rng.gen::<u64>();
    let room = match RoomConfig::paper_placement_room().build() {
        Ok(room) => room,
        Err(e) => panic!("the paper placement room is a valid constant: {e}"),
    };
    let config = TraceConfig::microsoft(room.provisioned_power());
    let (trace, trace_ms) = timed(|| TraceGenerator::new(config).generate(&mut rng));
    let (placement, place_ms) = timed(|| BalancedRoundRobin.place(&room, &trace, &mut rng));
    let (placed, materialize_ms) = timed(|| PlacedRoom::materialize(&room, &trace, &placement));
    let inputs = RoomInputs {
        placed,
        seed: room_seed,
    };
    let times = InputTimes {
        trace_ms,
        place_ms,
        materialize_ms,
    };
    (inputs, times)
}

/// Builds the room's simulation, reporting into `obs`.
pub fn room_sim(inputs: &RoomInputs, obs: &Obs) -> RoomSim {
    let placed = &inputs.placed;
    let registry = ImpactRegistry::from_scenario(
        placed.racks().iter().map(|r| (r.deployment, r.category)),
        &scenarios::realistic_1(),
    );
    let demand: DemandFn = Box::new(|rack, _, rng: &mut SmallRng| {
        rack.provisioned * rng.gen_range((UTIL - 0.02)..(UTIL + 0.02))
    });
    let config = RoomSimConfig {
        controllers: 3,
        seed: inputs.seed,
        obs: obs.clone(),
        ..RoomSimConfig::default()
    };
    RoomSim::new(placed, registry, demand, config)
}

/// What one episode produced, in plain data for the checks.
#[derive(Debug, Clone)]
pub struct EpisodeOutput {
    /// The room's event log since the previous episode.
    pub events: Vec<(SimTime, SimEvent)>,
    /// Failure-to-first-command latencies recorded in the episode.
    pub detect_ms: Vec<f64>,
    /// Electrical state at the episode's end.
    pub power: RoomPower,
    /// Power state of every rack at the episode's end.
    pub rack_states: Vec<RackPowerState>,
}

impl EpisodeOutput {
    /// Takes the episode's outputs and clears the statistics the room
    /// accumulates, so memory stays flat however long the run. The
    /// simulation only writes those statistics, so clearing them
    /// changes nothing it computes.
    fn drain(sim: &mut RoomSim) -> Self {
        let power = des::room_power(sim.world());
        let rack_states = sim.world().rack_states().to_vec();
        let st = &mut sim.world_mut().stats;
        let events = std::mem::take(&mut st.events);
        let detect_ms = std::mem::take(&mut st.detection_latency)
            .iter()
            .map(|d| d.as_millis_f64())
            .collect();
        for series in &mut st.ups_fraction {
            *series = TimeSeries::new();
        }
        st.total_power = TimeSeries::new();
        st.action_latency = Percentiles::new();
        EpisodeOutput {
            events,
            detect_ms,
            power,
            rack_states,
        }
    }

    /// No UPS tripped, the loads pass the independent recomputation, and
    /// every rack is back to normal.
    pub fn verify(&self) -> Result<(), String> {
        let trips = des::trips(&self.events);
        if trips > 0 {
            return Err(format!("{trips} UPS trip(s)"));
        }
        verify::check_ups_loads(&self.power)?;
        match self
            .rack_states
            .iter()
            .position(|s| *s != RackPowerState::Normal)
        {
            Some(r) => Err(format!(
                "rack {r} is {:?} after its restore window",
                self.rack_states[r]
            )),
            None => Ok(()),
        }
    }
}

/// One room's simulation and its episode clock.
pub struct Room {
    sim: RoomSim,
    /// Simulated seconds at which the next episode's quiet time starts.
    at: f64,
}

impl Room {
    /// Builds the room's simulation and runs it to the end of warm-up.
    pub fn new(inputs: &RoomInputs, obs: &Obs) -> Self {
        let mut sim = room_sim(inputs, obs);
        sim.run_until(SimTime::from_secs_f64(WARMUP_S));
        Room { sim, at: WARMUP_S }
    }

    /// Quiet time, then UPS `ups` fails and is restored. Both are
    /// scheduled while the clock is still short of them: a failure
    /// scheduled at the instant the clock already reached would fire
    /// late and inflate the detection latency. Returns the outputs and
    /// the paced milliseconds (see [`crate::pace`]) of the episode's
    /// `run_until` call.
    pub fn episode(&mut self, ups: usize) -> (EpisodeOutput, f64) {
        let fail = self.at + QUIET_S;
        self.sim
            .fail_ups_at(SimTime::from_secs_f64(fail), UpsId(ups));
        self.sim
            .restore_ups_at(SimTime::from_secs_f64(fail + FAILED_S), UpsId(ups));
        self.sim.run_until(SimTime::from_secs_f64(fail - 1e-3));
        let ((), episode_ms) =
            paced(|| self.sim.run_until(SimTime::from_secs_f64(fail + EPISODE_S)));
        self.at = fail + EPISODE_S;
        (EpisodeOutput::drain(&mut self.sim), episode_ms)
    }
}

/// Runs the workload. Every round rebuilds each room's simulation from
/// its set-up inputs, so every round repeats the same episodes.
pub fn run(cfg: &RunConfig) -> RunResult {
    let mut timings = Timings::default();
    let mut inputs = Vec::new();
    let mut rooms = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let ((built_inputs, built_rooms), ms) = paced(|| {
            let inputs: Vec<RoomInputs> = (0..ROOMS)
                .map(|r| room_inputs_timed(cfg.seed, r).0)
                .collect();
            let rooms: Vec<Room> = inputs.iter().map(|i| Room::new(i, &Obs::noop())).collect();
            (inputs, rooms)
        });
        inputs = built_inputs;
        rooms = built_rooms;
        timings.setup_s.push(ms / 1e3);
    }
    let ups_count = rooms
        .first()
        .map_or(0, |r| r.sim.world().topology().ups_count());

    // Tracing turns the counters on; a one-entry ring keeps the
    // recorder, which this workload runs without, from growing.
    let twin_obs = Obs::with_capacity(1);
    let mut twin_sim_s = 0.0;
    let mut tally = Tally::default();
    let mut traced_ops = OpTimes::default();
    let mut detect_ms = Vec::new();
    let sw = Stopwatch::start();
    let mut round = 0;
    while round == 0 || sw.secs() < cfg.seconds {
        if round > 0 {
            rooms = inputs.iter().map(|i| Room::new(i, &Obs::noop())).collect();
        }
        let mut twins: Vec<Room> = if cfg.trace {
            inputs.iter().map(|i| Room::new(i, &twin_obs)).collect()
        } else {
            Vec::new()
        };
        // Room by room, so one room's state stays in cache through its
        // episodes.
        for (r, room) in rooms.iter_mut().enumerate() {
            for ups in 0..ups_count {
                let op = r * ups_count + ups;
                let (out, ms) = room.episode(ups);
                timings.ops.record(op, ms);
                if round == 0 {
                    detect_ms.extend_from_slice(&out.detect_ms);
                }
                tally.record(out.verify());
                if let Some(twin) = twins.get_mut(r) {
                    let (traced, ms) = twin.episode(ups);
                    traced_ops.record(op, ms);
                    tally.record(if traced.events == out.events {
                        Ok(())
                    } else {
                        Err(format!("room {r}: tracing changed the event log"))
                    });
                }
            }
        }
        twin_sim_s += twins.iter().map(|t| t.sim.now().as_secs_f64()).sum::<f64>();
        round += 1;
    }
    let correct = tally.failed == 0;

    let metrics = if cfg.trace {
        let mut m = Metrics::new(PER_LAYER);
        let mut counters = Counters::default();
        counters.add(&twin_obs, twin_sim_s);
        counters.fill(&mut m);
        let episodes = timings.ops.ms();
        let host_s = episodes.iter().sum::<f64>() / 1e3;
        m.set(
            "sim.sim_s_per_s",
            stats::ratio(EPISODE_S * episodes.len() as f64, host_s),
        );
        m.set("online.detect_sim_ms_p50", stats::median(&detect_ms));
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
