//! Shared by the two workloads that drive the room simulator: output
//! extraction and the `flex-obs` counters a traced run reads.

use std::collections::BTreeMap;

use flex_obs::Obs;
use flex_online::sim::{RoomWorld, SimEvent};

use crate::report::Metrics;
use crate::stats::ratio;
use crate::verify::RoomPower;

/// The electrical state of a room, for [`crate::verify::check_ups_loads`].
pub fn room_power(world: &RoomWorld) -> RoomPower {
    let topo = world.topology();
    RoomPower {
        pair_upstream: topo
            .pdu_pairs()
            .iter()
            .map(|p| {
                let (a, b) = p.upstream();
                (a.0, b.0)
            })
            .collect(),
        online: topo
            .upses()
            .iter()
            .map(|u| world.feed().is_online(u.id()))
            .collect(),
        capacity: topo.upses().iter().map(|u| u.capacity()).collect(),
        rack_pair: world.racks().iter().map(|r| r.pdu_pair.0).collect(),
        rack_power: world.effective_rack_power(),
        reported: world.ups_loads().as_slice().to_vec(),
    }
}

/// UPS trips in an event log.
pub fn trips(events: &[(flex_sim::SimTime, SimEvent)]) -> usize {
    events
        .iter()
        .filter(|(_, e)| matches!(e, SimEvent::UpsTripped(_)))
        .count()
}

/// `flex-obs` counter totals over some simulated seconds.
#[derive(Debug, Default)]
pub struct Counters {
    totals: BTreeMap<String, u64>,
    sim_s: f64,
}

impl Counters {
    /// Adds the counters of `obs`, which covered `sim_s` simulated seconds.
    pub fn add(&mut self, obs: &Obs, sim_s: f64) {
        for (name, v) in obs.snapshot().counters {
            *self.totals.entry(name).or_insert(0) += v;
        }
        self.sim_s += sim_s;
    }

    fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0) as f64
    }

    fn rate(&self, name: &str) -> f64 {
        ratio(self.total(name), self.sim_s)
    }

    /// Sets the telemetry, online and actuation counter metrics.
    pub fn fill(&self, m: &mut Metrics) {
        m.set("telemetry.ups_polls", self.rate("telemetry/ups_polls"));
        m.set("telemetry.rack_polls", self.rate("telemetry/rack_polls"));
        m.set("telemetry.deliveries", self.rate("telemetry/deliveries"));
        m.set("telemetry.meter_reads", self.rate("telemetry/meter_reads"));
        let accepted = self.total("online/readings_accepted");
        let stale = self.total("online/readings_stale");
        m.set(
            "online.readings_accepted",
            self.rate("online/readings_accepted"),
        );
        m.set("online.readings_stale", self.rate("online/readings_stale"));
        m.set("online.accept_ratio", ratio(accepted, accepted + stale));
        m.set("online.watchdog_fires", self.rate("online/watchdog_fires"));
        m.set(
            "online.commands_issued",
            self.rate("online/commands_issued"),
        );
        m.set("actuation.submissions", self.rate("actuation/submissions"));
        m.set("actuation.applies", self.rate("actuation/applies"));
        m.set("actuation.retries", self.rate("actuation/retries"));
        m.set("actuation.fenced", self.rate("actuation/fenced"));
        m.set(
            "actuation.apply_ratio",
            ratio(
                self.total("actuation/applies"),
                self.total("actuation/submissions"),
            ),
        );
    }
}
