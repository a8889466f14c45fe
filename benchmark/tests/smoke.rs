//! Runs all four workloads, untraced and traced, at smoke scale through the
//! built binary, and holds what they print against `BENCHMARK.json`.

use std::process::Command;

/// A JSON value, parsed just far enough for `BENCHMARK.json` and the
/// benchmark's result line. Objects keep their keys in order.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.at < self.text.len() && self.text[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_space();
        let hit = self.text.get(self.at) == Some(&byte);
        self.at += usize::from(hit);
        hit
    }

    fn string(&mut self) -> String {
        assert!(self.eat(b'"'), "a string at byte {}", self.at);
        let start = self.at;
        while self.text[self.at] != b'"' {
            assert_ne!(self.text[self.at], b'\\', "escapes are not used here");
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(self.text[start..self.at - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.skip_space();
        match self.text[self.at] {
            b'{' => {
                self.at += 1;
                let mut fields = Vec::new();
                while !self.eat(b'}') {
                    let key = self.string();
                    assert!(self.eat(b':'));
                    fields.push((key, self.value()));
                    self.eat(b',');
                }
                Json::Obj(fields)
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                while !self.eat(b']') {
                    items.push(self.value());
                    self.eat(b',');
                }
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.at;
                while self.at < self.text.len() && !b",}] \n".contains(&self.text[self.at]) {
                    self.at += 1;
                }
                match std::str::from_utf8(&self.text[start..self.at]).expect("utf-8") {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    number => Json::Num(number.parse().expect("a number")),
                }
            }
        }
    }
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut parser = Parser {
            text: text.as_bytes(),
            at: 0,
        };
        let value = parser.value();
        parser.skip_space();
        assert_eq!(parser.at, text.len(), "trailing text after the JSON value");
        value
    }

    fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            other => panic!("{other:?} is not an object"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        self.fields().iter().map(|(k, _)| k.as_str()).collect()
    }

    fn get(&self, key: &str) -> &Json {
        let hit = self.fields().iter().find(|(k, _)| k == key);
        &hit.unwrap_or_else(|| panic!("no {key} in {self:?}")).1
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }

    /// The `name` of every object in the array under `section`.
    fn names(&self, section: &str) -> Vec<String> {
        match self.get(section) {
            Json::Arr(items) => items
                .iter()
                .map(|item| match item.get("name") {
                    Json::Str(name) => name.clone(),
                    other => panic!("{other:?} is not a name"),
                })
                .collect(),
            other => panic!("{other:?} is not an array"),
        }
    }
}

struct Run {
    attempted: f64,
    failed: f64,
    /// (name, value) in the order printed.
    metrics: Vec<(String, f64)>,
}

/// Parses the result line and checks its shape: exactly the four keys, and
/// exactly `value` and `unit` per metric.
fn parse(line: &str) -> Run {
    let result = Json::parse(line);
    assert_eq!(
        result.keys(),
        ["correct", "attempted", "failed", "metrics"],
        "{line}"
    );
    assert_eq!(*result.get("correct"), Json::Bool(true), "{line}");
    let metrics = result.get("metrics").fields().iter().map(|(name, m)| {
        assert_eq!(m.keys(), ["value", "unit"], "{name}");
        (name.clone(), m.get("value").num())
    });
    Run {
        attempted: result.get("attempted").num(),
        failed: result.get("failed").num(),
        metrics: metrics.collect(),
    }
}

fn run(workload: &str, trace: bool) -> Run {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let out = Command::new(env!("CARGO_BIN_EXE_gcs-benchmark"))
        .args(["--workload", workload, "--seed", "42", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .env("CARGO_TARGET_DIR", dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    if trace {
        let spans = std::fs::read_to_string(format!("{dir}/trace_{workload}.json"))
            .expect("the traced run wrote its span file");
        assert!(spans.contains("\"spans\":[") && spans.trim_end().ends_with("]}"));
    }
    parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn smoke_runs_print_exactly_what_benchmark_json_lists() {
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let bench = Json::parse(&bench);
    let workloads = bench.names("workloads");
    let end_to_end = bench.names("end_to_end");
    let per_layer = bench.names("per_layer");
    assert_eq!(workloads.len(), 4);

    // Metrics that must be strictly positive wherever the workload calls
    // their layer: every timing and every rate.
    let positive_on = |workload: &str, name: &str| match workload {
        "ring4k_stream" => {
            (name.starts_with("sim.engine.") && name != "sim.engine.record_ns_per_event")
                || name.starts_with("sim.shard.ring4k")
                || name.ends_with("_12k")
                || name.starts_with("sim.observer.")
                || name.starts_with("clocks.source.")
                || name.starts_with("net.")
                || (name.starts_with("algorithms.node.") && !name.contains("topology_change"))
        }
        "rgg100k_churn" => {
            (name.starts_with("sim.shard.") && !name.contains("ring4k"))
                || name.ends_with("_300k")
                || name.starts_with("sim.observer.")
                || name.starts_with("clocks.source.")
                || name.starts_with("net.")
                || (name.starts_with("dynamic.topology.") && !name.contains("mib"))
                || name.starts_with("algorithms.node.")
        }
        "lowerbound_line129" => {
            name.starts_with("core.")
                || name == "sim.engine.record_ns_per_event"
                || (name.starts_with("algorithms.node.") && !name.contains("topology_change"))
        }
        "timed_open_2k" => name.starts_with("timed.") && name != "timed.server.errors",
        _ => unreachable!(),
    };

    for workload in &workloads {
        let names = |run: &Run| -> Vec<String> {
            run.metrics.iter().map(|(name, _)| name.clone()).collect()
        };
        let untraced = run(workload, false);
        assert!(untraced.failed == 0.0 && untraced.attempted >= 1.0);
        assert_eq!(names(&untraced), end_to_end, "{workload}");
        for (name, value) in &untraced.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload} {name} = {value}"
            );
        }

        let traced = run(workload, true);
        assert!(traced.failed == 0.0 && traced.attempted >= 1.0);
        assert_eq!(names(&traced), per_layer, "{workload}");
        for (name, value) in &traced.metrics {
            assert!(
                value.is_finite() && *value >= 0.0,
                "{workload} {name} = {value}"
            );
            if name == "trace.overhead_ratio" || positive_on(workload, name) {
                assert!(*value > 0.0, "{workload} {name} = {value}");
            }
        }

        if workload == "ring4k_stream" {
            // Self times are exclusive, so the engine's own share and its
            // children's add up to the wall time per event, short of the
            // hundred nanoseconds a slice spends opening its own span.
            let m = |name: &str| {
                let hit = traced.metrics.iter().find(|(n, _)| n == name);
                hit.unwrap_or_else(|| panic!("{name} was not printed")).1
            };
            let wall = m("sim.engine.wall_ns_per_event");
            let sum = m("sim.engine.self_ns_per_event")
                + m("algorithms.node.busy_share") * wall
                + m("clocks.source.busy_share") * wall
                + m("net.delay.calls_per_event") * m("net.delay.ns_per_call")
                + m("sim.observer.busy_ns_per_event");
            assert!((sum - wall).abs() < 1e-3 * wall, "{sum} != {wall}");
        }
    }
}
