//! Failure reports: the one-line repro and a self-contained regression
//! test snippet for a shrunken scenario.
//!
//! Snippets render every `f64` through `f64::from_bits(0x…)` so the
//! committed test re-creates the scenario *bit for bit* — decimal
//! round-tripping is exactly the kind of silent divergence a
//! deterministic fuzzer cannot afford.

use crate::harness::Failure;
use crate::spec::{ChurnSpec, FaultSpec, HostileDelay, TopologySpec, VoprScenario};
use gcs_algorithms::AlgorithmKind;
use gcs_testkit::{DelaySpec, DriftSpec};
use std::fmt::Write as _;

/// The one-line repro command for a failing seed.
#[must_use]
pub fn repro_line(seed: u64) -> String {
    format!("cargo run -p gcs-vopr -- --seed {seed:#018x}")
}

/// Renders an `f64` as a bit-exact Rust expression with a readable
/// decimal comment.
fn lit(x: f64) -> String {
    // Integral values round-trip exactly through a decimal literal; keep
    // those human-readable and reserve from_bits for the rest.
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("f64::from_bits({:#018x}) /* {x} */", x.to_bits())
    }
}

fn topology_expr(t: &TopologySpec) -> String {
    match *t {
        TopologySpec::Line { n } => format!("TopologySpec::Line {{ n: {n} }}"),
        TopologySpec::Ring { n } => format!("TopologySpec::Ring {{ n: {n} }}"),
        TopologySpec::Grid { rows, cols } => {
            format!("TopologySpec::Grid {{ rows: {rows}, cols: {cols} }}")
        }
        TopologySpec::Star { n } => format!("TopologySpec::Star {{ n: {n} }}"),
        TopologySpec::Complete { n } => format!("TopologySpec::Complete {{ n: {n} }}"),
    }
}

fn drift_expr(d: &DriftSpec) -> String {
    match d {
        DriftSpec::Nominal => "DriftSpec::Nominal".into(),
        DriftSpec::Constant(rates) => {
            let items: Vec<String> = rates.iter().map(|r| lit(*r)).collect();
            format!("DriftSpec::Constant(vec![{}])", items.join(", "))
        }
        DriftSpec::Spread { rho } => format!("DriftSpec::Spread {{ rho: {} }}", lit(*rho)),
        DriftSpec::Walk {
            rho,
            step,
            max_step_change,
        } => format!(
            "DriftSpec::Walk {{ rho: {}, step: {}, max_step_change: {} }}",
            lit(*rho),
            lit(*step),
            lit(*max_step_change)
        ),
    }
}

fn delay_expr(d: &DelaySpec) -> String {
    match *d {
        DelaySpec::FixedFraction { frac } => {
            format!("DelaySpec::FixedFraction {{ frac: {} }}", lit(frac))
        }
        DelaySpec::Uniform { lo_frac, hi_frac } => format!(
            "DelaySpec::Uniform {{ lo_frac: {}, hi_frac: {} }}",
            lit(lo_frac),
            lit(hi_frac)
        ),
        DelaySpec::Broadcast { base, epsilon } => format!(
            "DelaySpec::Broadcast {{ base: {}, epsilon: {} }}",
            lit(base),
            lit(epsilon)
        ),
    }
}

fn algorithm_expr(a: AlgorithmKind) -> String {
    match a {
        AlgorithmKind::NoSync => "AlgorithmKind::NoSync".into(),
        AlgorithmKind::Max { period } => {
            format!("AlgorithmKind::Max {{ period: {} }}", lit(period))
        }
        AlgorithmKind::OffsetMax {
            period,
            compensation,
        } => format!(
            "AlgorithmKind::OffsetMax {{ period: {}, compensation: {} }}",
            lit(period),
            lit(compensation)
        ),
        AlgorithmKind::Rbs { period } => {
            format!("AlgorithmKind::Rbs {{ period: {} }}", lit(period))
        }
        AlgorithmKind::Gradient { period, kappa } => format!(
            "AlgorithmKind::Gradient {{ period: {}, kappa: {} }}",
            lit(period),
            lit(kappa)
        ),
        AlgorithmKind::GradientRate {
            period,
            threshold,
            boost,
        } => format!(
            "AlgorithmKind::GradientRate {{ period: {}, threshold: {}, boost: {} }}",
            lit(period),
            lit(threshold),
            lit(boost)
        ),
        AlgorithmKind::DynamicGradient {
            period,
            kappa_strong,
            kappa_weak,
            window,
        } => format!(
            "AlgorithmKind::DynamicGradient {{ period: {}, kappa_strong: {}, \
             kappa_weak: {}, window: {} }}",
            lit(period),
            lit(kappa_strong),
            lit(kappa_weak),
            lit(window)
        ),
        AlgorithmKind::TreeSync { period } => {
            format!("AlgorithmKind::TreeSync {{ period: {} }}", lit(period))
        }
    }
}

fn fault_expr(f: Option<FaultSpec>) -> String {
    match f {
        None => "None".into(),
        Some(FaultSpec::Crash { node, at }) => {
            format!("Some(FaultSpec::Crash {{ node: {node}, at: {} }})", lit(at))
        }
        Some(FaultSpec::Silence { node, from, to }) => format!(
            "Some(FaultSpec::Silence {{ node: {node}, from: {}, to: {} }})",
            lit(from),
            lit(to)
        ),
    }
}

fn hostile_expr(h: Option<HostileDelay>) -> &'static str {
    match h {
        None => "None",
        Some(HostileDelay::Nan) => "Some(HostileDelay::Nan)",
        Some(HostileDelay::Infinite) => "Some(HostileDelay::Infinite)",
    }
}

fn churn_expr(churn: &[ChurnSpec]) -> String {
    if churn.is_empty() {
        return "vec![]".into();
    }
    let mut s = String::from("vec![\n");
    for c in churn {
        let _ = writeln!(
            s,
            "            ChurnSpec {{ time: {}, a: {}, b: {}, up: {} }},",
            lit(c.time),
            c.a,
            c.b,
            c.up
        );
    }
    s.push_str("        ]");
    s
}

/// Renders the scenario as a Rust struct-literal expression (the body of
/// a regression test).
#[must_use]
pub fn scenario_expr(sc: &VoprScenario) -> String {
    format!(
        "VoprScenario {{\n\
         \x20       seed: {seed:#018x},\n\
         \x20       topology: {topology},\n\
         \x20       drift: {drift},\n\
         \x20       delay: {delay},\n\
         \x20       loss: {loss},\n\
         \x20       churn: {churn},\n\
         \x20       drop_in_flight: {dif},\n\
         \x20       fault: {fault},\n\
         \x20       algorithm: {algorithm},\n\
         \x20       probe_from: {probe_from},\n\
         \x20       probe_every: {probe_every},\n\
         \x20       horizon: {horizon},\n\
         \x20       hostile: {hostile},\n\
         \x20   }}",
        seed = sc.seed,
        topology = topology_expr(&sc.topology),
        drift = drift_expr(&sc.drift),
        delay = delay_expr(&sc.delay),
        loss = match sc.loss {
            None => "None".to_string(),
            Some(l) => format!("Some({})", lit(l)),
        },
        churn = churn_expr(&sc.churn),
        dif = sc.drop_in_flight,
        fault = fault_expr(sc.fault),
        algorithm = algorithm_expr(sc.algorithm),
        probe_from = lit(sc.probe_from),
        probe_every = lit(sc.probe_every),
        horizon = lit(sc.horizon),
        hostile = hostile_expr(sc.hostile),
    )
}

/// The full self-contained regression-test snippet for a shrunken
/// failing scenario: paste into `tests/vopr.rs`, commit, done.
#[must_use]
pub fn test_snippet(sc: &VoprScenario, failure: &Failure) -> String {
    format!(
        "/// Shrunken from `{repro}`.\n\
         /// Failed check: [{check}] {message}\n\
         #[test]\n\
         fn vopr_regression_{seed:016x}() {{\n\
         \x20   use gcs_algorithms::AlgorithmKind;\n\
         \x20   use gcs_testkit::{{DelaySpec, DriftSpec}};\n\
         \x20   use gcs_vopr::{{check, CheckOptions, ChurnSpec, FaultSpec, HostileDelay, \
         TopologySpec, VoprScenario}};\n\
         \x20   let scenario = {expr};\n\
         \x20   let outcome = check(&scenario, &CheckOptions::default());\n\
         \x20   assert!(outcome.is_pass(), \"still failing: {{outcome:?}}\");\n\
         }}\n",
        repro = repro_line(sc.seed),
        check = failure.check,
        message = failure.message.replace('\n', " "),
        seed = sc.seed,
        expr = scenario_expr(sc),
    )
}

/// Renders the black-box recorder section of a failure report: the last
/// trace events captured before the failure, fenced for Markdown. Empty
/// when the failure carries no trace tail (hostile scenarios, injected
/// bugs, failures before the primary run started).
#[must_use]
pub fn black_box_section(failure: &Failure) -> String {
    if failure.trace_tail.is_empty() {
        return String::new();
    }
    let mut s = format!(
        "\n## black box: last {} trace events before the failure\n\n```text\n",
        failure.trace_tail.len()
    );
    for line in &failure.trace_tail {
        s.push_str(line);
        s.push('\n');
    }
    s.push_str("```\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_line_is_one_line_with_a_hex_seed() {
        let line = repro_line(0xdead_beef);
        assert_eq!(line, "cargo run -p gcs-vopr -- --seed 0x00000000deadbeef");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn literals_round_trip_bit_for_bit() {
        for x in [0.5, 1.0, 123.456, 0.1 + 0.2, 1.0 / 3.0, 20.0] {
            let rendered = lit(x);
            // Integral literals stay decimal; everything else goes
            // through from_bits and must carry the exact bit pattern.
            if let Some(hex) = rendered
                .strip_prefix("f64::from_bits(")
                .and_then(|s| s.split(')').next())
            {
                let bits = u64::from_str_radix(hex.trim_start_matches("0x"), 16).unwrap();
                assert_eq!(bits, x.to_bits());
            } else {
                assert_eq!(rendered.parse::<f64>().unwrap().to_bits(), x.to_bits());
            }
        }
    }

    #[test]
    fn snippet_mentions_every_moving_part() {
        let sc = VoprScenario::from_seed(42);
        let failure = Failure {
            seed: 42,
            check: "streaming".into(),
            message: "live != post-hoc".into(),
            trace_tail: vec![],
        };
        let snippet = test_snippet(&sc, &failure);
        assert!(snippet.contains("vopr_regression_"));
        assert!(snippet.contains("cargo run -p gcs-vopr -- --seed"));
        assert!(snippet.contains("VoprScenario {"));
        assert!(snippet.contains("outcome.is_pass()"));
    }

    #[test]
    fn black_box_section_is_empty_without_a_tail_and_fenced_with_one() {
        let mut failure = Failure {
            seed: 7,
            check: "gradient".into(),
            message: "skew out of envelope".into(),
            trace_tail: vec![],
        };
        assert!(black_box_section(&failure).is_empty());
        failure.trace_tail = vec!["send 0->1 seq=1".into(), "deliver 0->1 seq=1".into()];
        let section = black_box_section(&failure);
        assert!(section.contains("last 2 trace events"));
        assert!(section.contains("send 0->1 seq=1\ndeliver 0->1 seq=1"));
        assert!(section.starts_with('\n'));
        assert!(section.ends_with("```\n"));
    }
}
