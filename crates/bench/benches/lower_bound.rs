//! Benchmarks of the lower-bound machinery: the Add Skew transformation,
//! exact replay, full main-theorem rounds, and the static/dynamic
//! retiming apply+validate hot paths (shared with the CI bench gate via
//! `gcs_bench::workloads`).

use criterion::{criterion_group, criterion_main, Criterion};
use gcs_algorithms::{AlgorithmKind, SyncMsg};
use gcs_clocks::{DriftBound, RateSchedule};
use gcs_core::lower_bound::{AddSkew, AddSkewParams, MainTheorem, MainTheoremConfig};
use gcs_core::replay::{nominal_fallback, replay_execution};
use gcs_net::Topology;
use gcs_sim::{Execution, SimulationBuilder};
use std::hint::black_box;

fn rho() -> DriftBound {
    DriftBound::new(0.5).expect("valid rho")
}

fn nominal(n: usize) -> Execution<SyncMsg> {
    let tau = rho().tau();
    SimulationBuilder::new(Topology::line(n))
        .schedules(vec![RateSchedule::constant(1.0); n])
        .build_with(|id, nn| AlgorithmKind::Max { period: 1.0 }.build(id, nn))
        .unwrap()
        .try_execute_until(tau * (n as f64 - 1.0))
        .expect("the nominal line run")
}

fn bench_add_skew(c: &mut Criterion) {
    let mut group = c.benchmark_group("add_skew");
    for &n in &[16usize, 64] {
        let alpha = nominal(n);
        group.bench_function(format!("apply_line_{n}"), |b| {
            b.iter(|| {
                black_box(
                    AddSkew::new(rho())
                        .apply(&alpha, AddSkewParams::suffix(0, n - 1))
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay");
    group.sample_size(20);
    let n = 32;
    let alpha = nominal(n);
    let outcome = AddSkew::new(rho())
        .apply(&alpha, AddSkewParams::suffix(0, n - 1))
        .unwrap();
    group.bench_function("replay_and_extend_line_32", |b| {
        b.iter(|| {
            black_box(
                replay_execution(
                    &outcome.transformed,
                    outcome.transformed.horizon() + 10.0,
                    nominal_fallback(alpha.topology()),
                    |id, nn| AlgorithmKind::Max { period: 1.0 }.build(id, nn),
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_main_theorem(c: &mut Criterion) {
    let mut group = c.benchmark_group("main_theorem");
    group.sample_size(10);
    for &nodes in &[17usize, 65] {
        group.bench_function(format!("full_construction_{nodes}"), |b| {
            b.iter(|| {
                black_box(
                    MainTheorem::new(MainTheoremConfig::practical(nodes, rho()))
                        .run(|id, n| AlgorithmKind::Max { period: 1.0 }.build(id, n))
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_retiming(c: &mut Criterion) {
    use gcs_bench::workloads;
    let mut group = c.benchmark_group("retiming");
    let static_exec = workloads::nominal_line_run(32, 200.0);
    group.bench_function("static_apply_validate_line32_200t", |b| {
        b.iter(|| black_box(workloads::static_retiming_apply_validate(&static_exec)))
    });
    let dynamic_exec = workloads::nominal_churned_ring_run(16, 200.0);
    group.bench_function("dynamic_apply_validate_ring16_200t", |b| {
        b.iter(|| black_box(workloads::dynamic_retiming_apply_validate(&dynamic_exec)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_add_skew,
    bench_replay,
    bench_main_theorem,
    bench_retiming
);
criterion_main!(benches);
