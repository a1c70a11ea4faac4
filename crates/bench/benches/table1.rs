//! Criterion bench for the Table I measurement path: the p2p execution of
//! each best-case application configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esp4ml::apps::TrainedModels;
use esp4ml::experiments::Table1;
use esp4ml_soc::SocEngine;

fn bench_table1(c: &mut Criterion) {
    let models = TrainedModels::untrained();
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    for point in Table1::grid() {
        group.bench_with_input(
            BenchmarkId::from_parameter(point.app.label()),
            &point,
            |b, point| {
                b.iter(|| {
                    point
                        .run(&models, 4, SocEngine::default())
                        .expect("run succeeds")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
