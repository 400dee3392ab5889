//! `BENCHMARK.json` and the benchmark agree on workloads and metrics,
//! and a run's last line has the shape the manifest promises.

use flex_obs::json::{parse, Value};
use flexbench::report::{END_TO_END, PER_LAYER};
use flexbench::{run, RunConfig, WORKLOADS};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_arr)
        .expect("array")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn manifest_matches_the_metric_tables() {
    let m = manifest();
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&m, "end_to_end"), table(END_TO_END));
    assert_eq!(names(&m, "per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = names(&m, "workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
}

#[test]
fn last_line_has_the_promised_shape() {
    for trace in [false, true] {
        let cfg = RunConfig {
            seed: 2,
            seconds: 0.0,
            trace,
        };
        let result = run("milp-exact", &cfg).expect("known workload");
        let line = parse(&result.json_line()).expect("the last line is JSON");
        let obj = line.as_obj().expect("an object");
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics = line
            .get("metrics")
            .and_then(Value::as_obj)
            .expect("metrics");
        assert_eq!(metrics.len(), table.len());
        for (name, unit) in table {
            let m = metrics
                .get(*name)
                .expect("every declared metric is printed");
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
            assert!(m
                .get("value")
                .and_then(Value::as_num)
                .is_some_and(f64::is_finite));
        }
    }
}
