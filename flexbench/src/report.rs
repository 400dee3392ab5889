//! What one run prints: the operation tally, the metric tables and the
//! final JSON line.

use std::collections::BTreeMap;

use flex_obs::json::{obj, Value};

use crate::stats;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
/// `BENCHMARK.json` lists the same names with their bounds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A
/// counter of a layer the workload never reaches reads 0; every host-time
/// figure comes from a layer probe that each traced run makes (see
/// `layers`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.event_ns", "ns"),
    ("sim.sim_s_per_s", "sim_s/s"),
    ("chaos.generate_us", "us"),
    ("chaos.run_scenario_ms", "ms"),
    ("chaos.oracle_us", "us"),
    ("obs.recorder_overhead", "x"),
    ("obs.flight_events", "count"),
    ("telemetry.ups_polls", "1/sim_s"),
    ("telemetry.rack_polls", "1/sim_s"),
    ("telemetry.deliveries", "1/sim_s"),
    ("telemetry.meter_reads", "1/sim_s"),
    ("telemetry.ups_poll_us", "us"),
    ("telemetry.rack_poll_us", "us"),
    ("online.readings_accepted", "1/sim_s"),
    ("online.readings_stale", "1/sim_s"),
    ("online.accept_ratio", "ratio"),
    ("online.watchdog_fires", "1/sim_s"),
    ("online.commands_issued", "1/sim_s"),
    ("online.decide_us", "us"),
    ("online.quiet_ms_per_sim_s", "ms/sim_s"),
    ("online.roomsim_new_ms", "ms"),
    ("online.detect_sim_ms_p50", "sim_ms"),
    ("actuation.submissions", "1/sim_s"),
    ("actuation.applies", "1/sim_s"),
    ("actuation.retries", "1/sim_s"),
    ("actuation.fenced", "1/sim_s"),
    ("actuation.apply_ratio", "ratio"),
    ("power.ups_loads_us", "us"),
    ("workload.trace_ms", "ms"),
    ("placement.place_ms", "ms"),
    ("placement.materialize_ms", "ms"),
    ("milp.build_ms", "ms"),
    ("milp.root_lp_ms", "ms"),
    ("milp.nodes", "count"),
    ("milp.pivots", "count"),
    ("milp.pivots_per_node", "ratio"),
    ("milp.nodes_per_s", "1/s"),
    ("milp.warm_ratio", "ratio"),
    ("milp.relaxation_failures", "count"),
    ("trace.op_ms_p50", "ms"),
    ("trace.untraced_op_ms_p50", "ms"),
    ("trace.overhead", "x"),
];

/// Operations attempted and failed in one run. An operation fails when
/// the program returns an error or an output check rejects its result.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one operation with its check result.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(msg);
            }
        }
    }
}

/// Named metric values, checked against one of the tables above.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set over `table`.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the table: a misspelt metric would
    /// otherwise print as 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.values.insert(name, value);
    }

    /// Every metric of the table with its unit; unset metrics read 0.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.table
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Every timing of every operation over the rounds of a run.
///
/// Every round repeats the same operations. Other tenants of the host
/// slow stretches of a run by a quarter or more; an operation's median
/// over its repeats is the figure that varies least from run to run.
/// Percentiles run over the distinct operations.
#[derive(Debug, Default)]
pub struct OpTimes(Vec<Vec<f64>>);

impl OpTimes {
    /// Records one timing of operation `op`.
    pub fn record(&mut self, op: usize, ms: f64) {
        if self.0.len() <= op {
            self.0.resize(op + 1, Vec::new());
        }
        self.0[op].push(ms);
    }

    /// The median time of every operation timed at least once.
    pub fn ms(&self) -> Vec<f64> {
        self.0
            .iter()
            .filter(|t| !t.is_empty())
            .map(|t| stats::median(t))
            .collect()
    }

    /// Operations per second of their median times.
    pub fn per_s(&self) -> f64 {
        let ms = self.ms();
        stats::ratio(ms.len() as f64, ms.iter().sum::<f64>() / 1e3)
    }
}

/// Host-time figures every workload collects.
#[derive(Debug, Default)]
pub struct Timings {
    /// Seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Operation times.
    pub ops: OpTimes,
}

impl Timings {
    /// The end-to-end metric set.
    pub fn end_to_end(&self) -> Metrics {
        let ms = self.ops.ms();
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", stats::median(&self.setup_s));
        m.set("peak_rss_mb", peak_rss_mb());
        m.set("ops_per_s", self.ops.per_s());
        m.set("op_ms_p50", stats::median(&ms));
        m.set("op_ms_p95", stats::quantile(&ms, 0.95));
        m
    }

    /// Sets the `trace.*` metrics: the traced copies against the
    /// untraced operations they follow.
    pub fn traced(&self, m: &mut Metrics, traced: &OpTimes) {
        m.set("trace.op_ms_p50", stats::median(&traced.ms()));
        m.set("trace.untraced_op_ms_p50", stats::median(&self.ops.ms()));
        m.set(
            "trace.overhead",
            stats::ratio(self.ops.per_s(), traced.per_s()),
        );
    }
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct RunResult {
    /// True when every run-level check passed and no operation failed.
    pub correct: bool,
    /// Operation counts.
    pub tally: Tally,
    /// The metrics to print.
    pub metrics: Metrics,
}

impl RunResult {
    /// The last line of standard output.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .rows()
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    obj(vec![
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.tally.attempted as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_json()
    }
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
